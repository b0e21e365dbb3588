//! `aba-sim`: the paper's setup-free ABA (the real Coin in every round),
//! n = 13, all honest, mixed inputs, on the deterministic simulator with
//! the seeded `RandomScheduler`, one instance at a time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use setupfree_aba::MmrAba;
use setupfree_core::coin::CoinProtocolFactory;
use setupfree_crypto::{generate_pki, Keyring, PartySecrets};
use setupfree_net::{
    BoxedParty, Envelope, PartyId, RandomScheduler, Scheduler, Sid, Simulation, StopReason,
};

use crate::probe::{self, LayerTotals, Probe, ProbeRef, Timed, TimedScheduler};
use crate::report::{self, Outcome};
use crate::stats::{mix, percentile, process_cpu_ms};
use crate::{crypto_probe, Args, PART_STRIDE};

const N: usize = 13;
/// A decision takes about 39 k deliveries; a run that needs fifty times
/// that has failed to terminate.
const BUDGET: u64 = 2_000_000;
/// The self-test's budget: too small for one instance.
const FORCED_BUDGET: u64 = 1_000;

struct Keys {
    keyring: Arc<Keyring>,
    secrets: Vec<Arc<PartySecrets>>,
}

pub fn pki(n: usize, seed: u64) -> (Arc<Keyring>, Vec<Arc<PartySecrets>>) {
    let (keyring, secrets) = generate_pki(n, seed);
    (
        Arc::new(keyring),
        secrets.into_iter().map(Arc::new).collect(),
    )
}

/// Counters a replay of the same decision must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub deliveries: u64,
    pub bytes: u64,
    pub msgs: u64,
    pub rounds: u64,
}

struct Decision {
    probe: Probe,
    fp: Fingerprint,
    verdict: Result<(), String>,
}

/// Mixed inputs: party 0 proposes 0, party 1 proposes 1, the rest by seed.
fn inputs(seed: u64) -> Vec<bool> {
    (0..N)
        .map(|p| match p {
            0 => false,
            1 => true,
            _ => mix(seed, 1000 + p as u64) & 1 == 1,
        })
        .collect()
}

fn decide(keys: &Keys, workload_seed: u64, index: u64, traced: bool, budget: u64) -> Decision {
    let seed = mix(workload_seed, index);
    let probe = ProbeRef::new(index, N, None);
    let inputs = inputs(seed);
    let sid = Sid::new(&format!("perfbench-aba-{seed}"));
    let parties: Vec<BoxedParty<Envelope, bool>> = (0..N)
        .map(|i| {
            let coins =
                CoinProtocolFactory::new(PartyId(i), keys.keyring.clone(), keys.secrets[i].clone());
            let aba = MmrAba::new(
                sid.clone(),
                PartyId(i),
                N,
                keys.keyring.f(),
                inputs[i],
                coins,
            );
            Box::new(Timed::new(aba, probe::ABA, traced, probe.share()))
                as BoxedParty<Envelope, bool>
        })
        .collect();
    let scheduler: Box<dyn Scheduler> = if traced {
        Box::new(TimedScheduler::new(
            RandomScheduler::new(seed),
            probe.share(),
        ))
    } else {
        Box::new(RandomScheduler::new(seed))
    };
    let mut sim = Simulation::new(parties, scheduler);
    let run = sim.run(budget);
    let m = sim.metrics();
    let fp = Fingerprint {
        deliveries: run.deliveries,
        bytes: m.honest_bytes,
        msgs: m.honest_messages,
        rounds: m.rounds_to_all_outputs().unwrap_or(0),
    };
    let sent = m.honest_messages + m.byzantine_messages;
    let settled = m.delivered_messages + m.purged_messages + sim.in_flight() as u64;
    let outputs = sim.outputs();
    let verdict = if run.reason != StopReason::AllOutputs {
        Err(format!(
            "no termination within {budget} deliveries ({:?})",
            run.reason
        ))
    } else if outputs.iter().any(Option::is_none) || outputs.windows(2).any(|w| w[0] != w[1]) {
        Err(format!("agreement violated: {outputs:?}"))
    } else if !inputs.contains(&outputs[0].expect("checked above")) {
        Err("validity violated: output is no honest input".into())
    } else if sent != settled {
        Err(format!(
            "conservation violated: sent {sent} != delivered + purged + in flight {settled}"
        ))
    } else {
        Ok(())
    };
    Decision {
        probe: probe.snapshot(),
        fp,
        verdict,
    }
}

fn budget_for(args: &Args, index: u64) -> u64 {
    if args.fail_decision == Some(index) {
        FORCED_BUDGET
    } else {
        BUDGET
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (keyring, secrets) = pki(N, args.seed);
    let keys = Keys { keyring, secrets };
    let id = |i: u64| args.part * PART_STRIDE + i;
    let first = decide(&keys, args.seed, id(0), false, budget_for(args, 0));
    let setup_end = Instant::now();
    let setup_s = (setup_end - args.started).as_secs_f64();
    out.attempted = 1;
    if let Err(e) = &first.verdict {
        out.failed += 1;
        out.violation(format!("decision 0: {e}"));
    }
    if args.setup_only {
        out.push("setup_s", Some(setup_s), "s");
        return out;
    }
    out.info.push(format!(
        "n={N} f={} all honest, mixed inputs, seeded RandomScheduler, one instance at a time, \
         PKI and party seeds derived from --seed",
        keys.keyring.f()
    ));

    // Untraced pass: closed loop until the window closes.
    let window = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let cpu0 = process_cpu_ms();
    let mut timed: Vec<(u64, Decision)> = Vec::new();
    let mut index = 1;
    while setup_end.elapsed() < window {
        timed.push((
            index,
            decide(&keys, args.seed, id(index), false, budget_for(args, index)),
        ));
        index += 1;
    }
    let elapsed = setup_end.elapsed().as_secs_f64();
    let cpu1 = process_cpu_ms();
    let rss = crate::stats::peak_rss_mib();

    let mut latencies = Vec::new();
    let mut rounds = Vec::new();
    let (mut bytes, mut msgs) = (Vec::new(), Vec::new());
    for (i, d) in &timed {
        out.attempted += 1;
        bytes.push(d.fp.bytes as f64);
        msgs.push(d.fp.msgs as f64);
        match &d.verdict {
            Ok(()) => {
                latencies.push(d.probe.latency_ms().unwrap_or(f64::INFINITY));
                rounds.push(d.fp.rounds as f64);
            }
            Err(e) => {
                out.failed += 1;
                out.violation(format!("decision {i}: {e}"));
                latencies.push(f64::INFINITY);
            }
        }
    }
    let k = timed.len().max(1) as f64;
    let p50 = percentile(&latencies, 0.5);
    out.info.push(format!(
        "timed decisions: {} (p90 needs >= 100: {})",
        timed.len(),
        if timed.len() >= 100 {
            "valid"
        } else {
            "too few"
        }
    ));

    // Replay: the traced pass replays every timed decision; the untraced
    // pass re-runs the first.  Either must reproduce the counters.
    let replay: Vec<u64> = if args.trace {
        timed.iter().map(|(i, _)| *i).collect()
    } else {
        timed.iter().map(|(i, _)| *i).take(1).collect()
    };
    let mut layers = LayerTotals::default();
    let mut traced_latencies = Vec::new();
    let origin = Instant::now();
    for i in replay {
        let again = decide(&keys, args.seed, id(i), args.trace, budget_for(args, i));
        let before = &timed
            .iter()
            .find(|(j, _)| *j == i)
            .expect("replayed decision was timed")
            .1;
        if again.fp != before.fp {
            out.nondeterministic(format!("decision {i}: {:?} then {:?}", before.fp, again.fp));
        }
        if args.trace && again.verdict.is_ok() {
            layers.add(&again.probe, again.fp.deliveries, origin);
            traced_latencies.extend(again.probe.latency_ms());
        }
    }

    if !args.trace {
        let cpu = (cpu1.0 + cpu1.1) - (cpu0.0 + cpu0.1);
        out.push("decide_ms_p50", p50, "ms");
        out.push("decide_ms_p90", percentile(&latencies, 0.9), "ms");
        out.push("decisions_per_s", Some(timed.len() as f64 / elapsed), "1/s");
        out.push("cpu_ms_per_decision", Some(cpu / k), "ms");
        out.push("bytes_per_decision", percentile(&bytes, 0.5), "B");
        out.push("msgs_per_decision", percentile(&msgs, 0.5), "count");
        out.push("rounds_p50", percentile(&rounds, 0.5), "count");
        out.push("setup_s", Some(setup_s), "s");
        out.push("peak_rss_mib", Some(rss), "MiB");
        out.samples = vec![
            ("latencies_ms", latencies),
            ("rounds", rounds),
            ("window_decisions", vec![timed.len() as f64]),
            ("window_s", vec![elapsed]),
            ("window_cpu_ms", vec![cpu]),
            ("bytes", bytes),
            ("msgs", msgs),
        ];
        return out;
    }

    out.info.push(layers.sum_line());
    out.info
        .extend(layers.write_spans(args.spans_out.as_deref(), "aba-sim"));
    let mut m = Vec::new();
    layers.sim_metrics(&mut m);
    layers.crate_metrics(layers.wall_ns as f64, &mut m);
    m.push(report::metric(
        "app.beacon.live_elections_max",
        None,
        "count",
    ));
    crypto_probe::measure(&keys.keyring, &keys.secrets, &mut m);
    report::absent(report::RUNTIME, &mut m);
    report::absent(report::TRANSPORT, &mut m);
    m.push(report::trace_overhead(
        percentile(&traced_latencies, 0.5),
        p50,
    ));
    out.metrics = m;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The self-test of the failure accounting: one decision gets a budget
    /// too small to finish; it is counted as failed, and the others are
    /// still checked and reported.
    #[test]
    fn a_forced_failure_is_counted_and_the_rest_still_reported() {
        let args = Args {
            workload: "aba-sim".into(),
            seed: 3,
            seconds: 1.0,
            trace: false,
            setup_only: false,
            fail_decision: Some(1),
            part: 0,
            spans_out: None,
            started: Instant::now(),
        };
        let out = run(&args);
        assert_eq!(out.failed, 1, "{:?}", out.violations);
        assert!(out.attempted > out.failed + 1, "other decisions still ran");
        assert!(!out.correct());
        let p50 = out
            .metrics
            .iter()
            .find(|m| m.name == "decide_ms_p50")
            .and_then(|m| m.value);
        assert!(
            p50.is_some_and(f64::is_finite),
            "p50 of the successful decisions is reported"
        );
    }
}
