#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark package (perfbench/Cargo.toml) from source and runs one
workload per process, so that peak_rss_mib belongs to that workload:

    python3 perfbench/run.py --workload aba-sim --seed 1 --seconds 36 --trace 0

--trace 0 prints the end-to-end metrics of an untraced pass.  The simulator
workloads split the window across PARTS[workload] processes, which decide
on different seeds and whose decisions are pooled; peak_rss_mib is then the
median over the processes, and setup_s the median of their cold starts.
beacon-tcp runs in one process (its medians are over meshes inside it), and
its setup_s is the median over that run and SETUP_PROBES extra processes
that stop after their first epoch.  --trace 1 prints the per-layer metrics
of a traced pass over the decisions of an untraced pass on the same seed.
Without --workload, every workload runs, untraced and traced.
--selftest forces one failed decision and checks that it is counted.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The cargo build goes to CARGO_TARGET_DIR
(default: .bench_build at the checkout root); spans of traced passes are
written next to the binary.
"""

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ["aba-sim", "vba-sharded", "beacon-tcp"]
SETUP_PROBES = 4
RUN_TIMEOUT_S = 170
# The peak RSS of a simulator workload is set by its heaviest decision; the
# median over several shorter processes is steadier than one long process's
# maximum.
PARTS = {"aba-sim": 4, "vba-sharded": 4, "beacon-tcp": 1}


def build():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit("perfbench: build failed")
    return target / "release" / "perfbench"


def invoke(binary, argv):
    """Runs the binary; returns (human-readable lines, parsed last line)."""
    result = subprocess.run([str(binary)] + argv, cwd=ROOT, capture_output=True, text=True,
                            timeout=RUN_TIMEOUT_S)
    sys.stderr.write(result.stderr)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.exit(f"perfbench: {' '.join(argv)} exited with {result.returncode}")
    return lines[:-1], json.loads(lines[-1])


def nearest_rank(values, q):
    """The same nearest-rank percentile the binary reports."""
    ranked = sorted(values)
    return ranked[min(max(math.ceil(q * len(ranked)), 1), len(ranked)) - 1]


def pool(parts):
    """End-to-end metrics of a window split across processes: decisions
    pooled, peak RSS and set-up time the median over the processes."""
    total = {k: sum(sum(p["samples"][k]) for p in parts)
             for k in ("window_decisions", "window_s", "window_cpu_ms")}
    pooled = {k: [v for p in parts for v in p["samples"][k]]
              for k in ("latencies_ms", "bytes", "msgs", "rounds")}
    value = {
        "decide_ms_p50": nearest_rank(pooled["latencies_ms"], 0.5),
        "decide_ms_p90": nearest_rank(pooled["latencies_ms"], 0.9),
        "decisions_per_s": total["window_decisions"] / total["window_s"],
        "cpu_ms_per_decision": total["window_cpu_ms"] / total["window_decisions"],
        "bytes_per_decision": nearest_rank(pooled["bytes"], 0.5),
        "msgs_per_decision": nearest_rank(pooled["msgs"], 0.5),
        "rounds_p50": nearest_rank(pooled["rounds"], 0.5),
        "setup_s": statistics.median(p["metrics"]["setup_s"]["value"] for p in parts),
        "peak_rss_mib": statistics.median(p["metrics"]["peak_rss_mib"]["value"] for p in parts),
    }
    metrics = {name: {"value": value[name], "unit": m["unit"]} for name, m in parts[0]["metrics"].items()}
    return {"correct": all(p["correct"] for p in parts),
            "attempted": sum(p["attempted"] for p in parts),
            "failed": sum(p["failed"] for p in parts),
            "metrics": metrics}


def run_workload(binary, workload, seed, seconds, trace, extra=()):
    base = ["--workload", workload, "--seed", str(seed)] + list(extra)
    if trace:
        spans = binary.parent / f"perfbench-spans-{workload}-seed{seed}.tsv"
        return invoke(binary, base + ["--seconds", str(seconds), "--trace", "1",
                                      "--spans-out", str(spans)])
    parts = PARTS[workload]
    runs = [invoke(binary, base + ["--seconds", str(seconds / parts), "--trace", "0", "--part", str(p)])
            for p in range(parts)]
    if parts > 1:
        result = pool([r for _, r in runs])
        note = f"pooled over {parts} processes of {seconds / parts:g} s each"
    else:
        probes = [invoke(binary, base + ["--setup-only"])[1] for _ in range(SETUP_PROBES)]
        result = runs[0][1]
        setups = [p["metrics"]["setup_s"]["value"] for p in probes + [result]]
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        result["correct"] = all(p["correct"] for p in probes + [result])
        result["attempted"] += sum(p["attempted"] for p in probes)
        result["failed"] += sum(p["failed"] for p in probes)
        note = f"setup_s is the median of {len(setups)} cold starts"
    # Each process's own lines, without its metric table; then the result.
    human = [line for lines, r in runs for line in lines
             if line.split()[0] not in r["metrics"] and "failed_frac" not in line]
    human.append(f"  {note}")
    human.append(f"  {'failed_frac':<40} {result['failed'] / max(result['attempted'], 1)} "
                 f"(attempted {result['attempted']}, failed {result['failed']})")
    human += [f"  {name:<40} {m['value']:.6f} {m['unit']}" for name, m in result["metrics"].items()]
    return human, result


def selftest(binary, seed):
    """One decision gets a delivery budget too small to finish: it must be
    counted as failed while the other decisions are still reported."""
    argv = ["--workload", "aba-sim", "--seed", str(seed), "--seconds", "3", "--trace", "0",
            "--fail-decision", "1"]
    human, result = invoke(binary, argv)
    print("\n".join(human))
    p50 = result["metrics"]["decide_ms_p50"]["value"]
    ok = (result["failed"] == 1 and result["attempted"] >= 3 and not result["correct"]
          and 0 < p50 < 1e300)
    print(f"selftest: failed {result['failed']} of {result['attempted']}, "
          f"decide_ms_p50 {p50:.3f} ms: {'PASS' if ok else 'FAIL'}")
    del result["samples"]
    print(json.dumps(result))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    binary = build()
    if args.selftest:
        return selftest(binary, args.seed)
    if args.workload:
        human, result = run_workload(binary, args.workload, args.seed, args.seconds, args.trace == 1)
        print("\n".join(human))
        print(json.dumps(result))
        return 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    passes = [False, True] if args.trace is None else [args.trace == 1]
    for workload in WORKLOADS:
        for trace in passes:
            human, result = run_workload(binary, workload, args.seed, args.seconds, trace)
            print("\n".join(human))
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                summary["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
