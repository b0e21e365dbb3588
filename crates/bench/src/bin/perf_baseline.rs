//! Records the workspace's end-to-end performance baseline as four grids:
//!
//! * **end to end** — wall-clock timings and delivery throughput of the
//!   coin, AVSS, beacon and ABA through the simulator at n ∈ {4, 10, 22, 40};
//! * **committee** — all-to-all vs committee-sampled ABA/VBA at
//!   n ∈ {40, 100, 250}, committee sizes swept;
//! * **simulated vs socket** — wall-clock of the simulator grid's coin /
//!   full ABA / beacon workloads (same PKI seeds and sids) over real TCP
//!   loopback peers (`setupfree-transport`) at n ∈ {4, 10, 22};
//! * **clean vs chaos** — the same coin / ABA / beacon at n ∈ {4, 10} over a
//!   mesh shaped by a seeded `LinkFaultPlan` (1 % frame drops, ≤ 20 ms
//!   jitter, one forced link cut), recording wall-clock overhead,
//!   retransmissions and redials.
//!
//! Every grid's rows are one [`Row`] type of named cells.  A run prints
//! every row and writes them as JSON to the path given with `--out`, and writes nothing without it, so re-running never overwrites a
//! committed record such as `BENCH_pr9.json`, the point later performance
//! changes are judged against.  The recorder judges nothing itself: the
//! deterministic checks (delivery goldens, byte budget, round mean,
//! tracing overhead, liveness) live in `cargo test`.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p setupfree-bench --bin perf_baseline                            # prints only
//! cargo run --release -p setupfree-bench --bin perf_baseline -- --out BENCH_pr<k>.json  # writes the record
//! ```

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::{Duration, Instant};

use setupfree_bench::{
    beacon_workload, coin_workload, measure_avss, measure_beacon, measure_coin,
    measure_committee_aba, measure_committee_vba, measure_setupfree_aba, measure_trusted_aba,
    measure_trusted_vba, setupfree_aba_workload, Measurement, SocketMeasurement,
};
use setupfree_core::coin::CoreSetMode;
use setupfree_transport::LinkFaultPlan;

/// One recorded row: `(key, value)` cells in record order, each value
/// already rendered as a JSON scalar.
#[derive(Default)]
struct Row(Vec<(&'static str, String)>);

impl Row {
    fn text(mut self, key: &'static str, value: &str) -> Self {
        self.0.push((key, format!("\"{value}\"")));
        self
    }

    fn num(mut self, key: &'static str, value: impl Display) -> Self {
        self.0.push((key, value.to_string()));
        self
    }

    fn fixed(mut self, key: &'static str, value: f64, decimals: usize) -> Self {
        self.0.push((key, format!("{value:.decimals$}")));
        self
    }

    /// Prints the row as `key=value` cells.
    fn print(self) -> Self {
        let cells: Vec<String> = self
            .0
            .iter()
            .map(|(key, value)| format!("{key}={}", value.trim_matches('"')))
            .collect();
        println!("  {}", cells.join(" "));
        self
    }

    /// The row as one JSON object, keys in record order.
    fn json(&self) -> String {
        let cells: Vec<String> =
            self.0.iter().map(|(key, value)| format!("\"{key}\": {value}")).collect();
        format!("{{{}}}", cells.join(", "))
    }
}

/// Runs `run` and returns its wall-clock milliseconds with its result.
fn timed<T>(run: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = run();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

fn end_to_end_row(protocol: &str, wall_ms: f64, m: &Measurement) -> Row {
    Row::default()
        .text("protocol", protocol)
        .num("n", m.n)
        .num("f", m.f)
        .fixed("wall_ms", wall_ms, 1)
        .fixed("deliveries_per_sec", m.deliveries as f64 / (wall_ms / 1e3), 0)
        .num("honest_bytes", m.honest_bytes)
        .num("honest_messages", m.honest_messages)
        .num("rounds", m.rounds)
        .num("deliveries", m.deliveries)
}

/// One cell of the committee-subsampling grid.  `m == n` marks the
/// all-to-all comparator rows (a full committee, bit-identical to the
/// pre-committee protocol); `m < n` is a sampled committee with `n − m`
/// listeners.  Both arms use the trusted coin/election so the cell isolates
/// the fan-out the committee removes.
fn committee_row(protocol: &str, m: usize, wall_ms: f64, meas: &Measurement) -> Row {
    Row::default()
        .text("protocol", &format!("committee-{protocol}"))
        .num("n", meas.n)
        .num("m", m)
        .num("all_to_all", m == meas.n)
        .fixed("wall_ms", wall_ms, 1)
        .num("honest_bytes", meas.honest_bytes)
        .num("honest_messages", meas.honest_messages)
        .fixed("per_node_messages", meas.honest_messages as f64 / meas.n as f64, 1)
        .num("rounds", meas.rounds)
        .num("deliveries", meas.deliveries)
        .num("agreed", meas.agreed)
}

/// One simulated-vs-socket comparison cell: the same workload run through
/// the simulator (exact metrics, no clock) and over real loopback TCP peers
/// (wall-clock, kernel-ordered delivery).
fn transport_row(protocol: &str, sim_wall_ms: f64, socket: &SocketMeasurement) -> Row {
    Row::default()
        .text("protocol", protocol)
        .num("n", socket.n)
        .num("f", socket.f)
        .fixed("sim_wall_ms", sim_wall_ms, 1)
        .fixed("socket_wall_ms", socket.wall_ms, 1)
        .fixed("socket_over_sim", socket.wall_ms / sim_wall_ms, 2)
        .num("socket_sent_envelopes", socket.sent_envelopes)
        .num("socket_sent_bytes", socket.sent_bytes)
        .num("agreed", socket.agreed)
}

/// One clean-vs-chaos socket cell: the same workload once over a quiet mesh
/// and once under the chaos plan.
fn chaos_row(protocol: &str, clean: &SocketMeasurement, chaos: &SocketMeasurement) -> Row {
    Row::default()
        .text("protocol", protocol)
        .num("n", chaos.n)
        .num("f", chaos.f)
        .fixed("clean_wall_ms", clean.wall_ms, 1)
        .fixed("chaos_wall_ms", chaos.wall_ms, 1)
        .fixed("wall_overhead", chaos.wall_ms / clean.wall_ms, 2)
        .num("drops_injected", chaos.drops_injected)
        .num("retransmitted", chaos.retransmitted)
        .num("redials", chaos.redials)
        .num("chaos_sent_envelopes", chaos.sent_envelopes)
        .num("agreed", chaos.agreed)
}

/// The PKI and session seed of `protocol`'s workload at `n`, shared by the
/// simulator, transport and chaos grids.
fn seed(protocol: &str, n: usize) -> u64 {
    let base = match protocol {
        "coin" => 7_000,
        "avss" => 7_100,
        "beacon" => 7_200,
        "aba" => 7_300,
        other => unreachable!("no workload {other:?}"),
    };
    base + n as u64
}

/// Runs `protocol`'s workload at `n` through the simulator.
fn simulate(protocol: &str, n: usize) -> Measurement {
    let seed = seed(protocol, n);
    match protocol {
        "coin" => measure_coin(n, seed, CoreSetMode::Weak),
        "avss" => measure_avss(n, seed),
        "beacon" => measure_beacon(n, 2, seed).0,
        _ => measure_setupfree_aba(n, seed),
    }
}

/// Runs `protocol`'s workload at `n` over loopback sockets, under `plan`
/// when one is given.
fn over_sockets(protocol: &str, n: usize, plan: Option<&LinkFaultPlan>) -> SocketMeasurement {
    let seed = seed(protocol, n);
    match protocol {
        "coin" => coin_workload(n, seed, CoreSetMode::Weak).over_sockets(plan),
        "beacon" => beacon_workload(n, 2, seed).over_sockets(plan),
        _ => setupfree_aba_workload(n, seed).over_sockets(plan),
    }
}

/// The committee-subsampling grid: all-to-all comparators at
/// n ∈ {40, 100, 250} (VBA comparators stop at n = 100 — its signature
/// verification work grows ~n³ and the ABA comparator already anchors the
/// n = 250 column), committee cells sweeping m at each n.
fn committee_grid() -> Vec<Row> {
    let cell = |protocol, m, run: &dyn Fn() -> Measurement| {
        let (wall_ms, meas) = timed(run);
        committee_row(protocol, m, wall_ms, &meas).print()
    };
    let mut rows = Vec::new();
    for n in [40usize, 100, 250] {
        let seed = 7_800 + n as u64;
        rows.push(cell("aba", n, &|| measure_trusted_aba(n, seed)));
        for m in [10usize, 22] {
            rows.push(cell("aba", m, &|| measure_committee_aba(n, m, seed)));
        }
    }
    for n in [40usize, 100] {
        rows.push(cell("vba", n, &|| measure_trusted_vba(n, 32, 7_850 + n as u64)));
    }
    for n in [40usize, 100, 250] {
        for m in [10usize, 16] {
            rows.push(cell("vba", m, &|| measure_committee_vba(n, m, 32, 7_850 + n as u64)));
        }
    }
    rows
}

/// The chaos plan of the recorded grid: 1 % frame drops, up to 20 ms of
/// per-frame jitter, and one forced cut of the 0→1 link at its 50th frame —
/// enough to force redials and outbox replays on every run while keeping
/// each run within a few seconds.
fn chaos_plan(seed: u64) -> LinkFaultPlan {
    LinkFaultPlan::new(seed)
        .drop_probability(0.01)
        .delay(Duration::ZERO, Duration::from_millis(20))
        .cut_link(0, 1, 50)
}

const DESCRIPTION: &str = "End-to-end baseline: the simulator grid (coin, avss, beacon and \
    aba at n = 4..40), the committee-subsampling grid (all-to-all vs sampled committees up to \
    n = 250), simulated vs socket wall-clock over loopback TCP peers, and clean vs chaos \
    sockets (1 % drop, <= 20 ms jitter, one forced link cut). Timings are single-run release \
    builds; socket runs include thread and mesh setup.";

/// Renders the record: the description, then one `"name": [rows]` section
/// per grid (a flat, fixed-shape writer keeps the workspace free of a JSON
/// dependency).
fn record_json(sections: &[(&str, Vec<Row>)]) -> String {
    let sections: Vec<String> = sections
        .iter()
        .map(|(name, rows)| {
            let rows: Vec<String> = rows.iter().map(Row::json).collect();
            format!("  \"{name}\": [\n    {}\n  ]", rows.join(",\n    "))
        })
        .collect();
    format!("{{\n  \"description\": \"{DESCRIPTION}\",\n{}\n}}\n", sections.join(",\n"))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let out = match (args.next(), args.next(), args.next()) {
        (None, _, _) => None,
        (Some(flag), Some(path), None) if flag == "--out" => Some(path),
        _ => {
            eprintln!("usage: perf_baseline [--out <path>]");
            std::process::exit(2)
        }
    };

    println!("perf_baseline — end-to-end wall-clock timings through the simulator");
    let mut sim_wall_ms = BTreeMap::new();
    let mut end_to_end = Vec::new();
    for n in [4usize, 10, 22, 40] {
        for protocol in ["coin", "avss", "beacon", "aba"] {
            let (wall_ms, m) = timed(|| simulate(protocol, n));
            sim_wall_ms.insert((protocol, n), wall_ms);
            end_to_end.push(end_to_end_row(protocol, wall_ms, &m).print());
        }
    }
    println!("\ncommittee grid — all-to-all (m = n) vs sampled committees, n up to 250");
    let committee = committee_grid();
    println!("\ntransport — simulated vs socket-backed wall-clock (loopback TCP peers)");
    let mut transport = Vec::new();
    for n in [4usize, 10, 22] {
        for protocol in ["coin", "aba", "beacon"] {
            let socket = over_sockets(protocol, n, None);
            transport.push(transport_row(protocol, sim_wall_ms[&(protocol, n)], &socket).print());
        }
    }
    println!("\nchaos — clean vs fault-plan-shaped sockets (1 % drop, <=20 ms jitter, one cut)");
    let mut chaos = Vec::new();
    for n in [4usize, 10] {
        for protocol in ["coin", "aba", "beacon"] {
            let plan = chaos_plan(0x0C8A05 + n as u64);
            let clean = over_sockets(protocol, n, None);
            let shaped = over_sockets(protocol, n, Some(&plan));
            chaos.push(chaos_row(protocol, &clean, &shaped).print());
        }
    }

    let Some(path) = out else {
        println!("\nno --out given; no baseline file written.");
        return;
    };
    let sections = [
        ("end_to_end", end_to_end),
        ("committee", committee),
        ("transport", transport),
        ("chaos", chaos),
    ];
    std::fs::write(&path, record_json(&sections)).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_row_per_section_renders_the_recorded_schema() {
        let m = Measurement {
            n: 4,
            f: 1,
            honest_bytes: 34_811,
            honest_messages: 607,
            rounds: 47,
            deliveries: 601,
            agreed: true,
        };
        let socket = |wall_ms, sent_envelopes| SocketMeasurement {
            n: 4,
            f: 1,
            wall_ms,
            sent_envelopes,
            sent_bytes: 32_064,
            agreed: true,
            failure: None,
            drops_injected: 3,
            retransmitted: 13,
            redials: 6,
        };
        let sections = [
            ("end_to_end", vec![end_to_end_row("coin", 9.3, &m)]),
            ("committee", vec![committee_row("aba", 4, 3.54, &m)]),
            ("transport", vec![transport_row("coin", 9.3, &socket(7.5, 456))]),
            ("chaos", vec![chaos_row("coin", &socket(7.7, 456), &socket(282.6, 519))]),
        ];
        let expected = format!(
            "{{\n  \"description\": \"{DESCRIPTION}\",\n  \"end_to_end\": [\n    \
             {{\"protocol\": \"coin\", \"n\": 4, \"f\": 1, \"wall_ms\": 9.3, \
             \"deliveries_per_sec\": 64624, \"honest_bytes\": 34811, \"honest_messages\": 607, \
             \"rounds\": 47, \"deliveries\": 601}}\n  ],\n  \"committee\": [\n    \
             {{\"protocol\": \"committee-aba\", \"n\": 4, \"m\": 4, \"all_to_all\": true, \
             \"wall_ms\": 3.5, \"honest_bytes\": 34811, \"honest_messages\": 607, \
             \"per_node_messages\": 151.8, \"rounds\": 47, \"deliveries\": 601, \"agreed\": \
             true}}\n  ],\n  \"transport\": [\n    \
             {{\"protocol\": \"coin\", \"n\": 4, \"f\": 1, \"sim_wall_ms\": 9.3, \
             \"socket_wall_ms\": 7.5, \"socket_over_sim\": 0.81, \"socket_sent_envelopes\": 456, \
             \"socket_sent_bytes\": 32064, \"agreed\": true}}\n  ],\n  \"chaos\": [\n    \
             {{\"protocol\": \"coin\", \"n\": 4, \"f\": 1, \"clean_wall_ms\": 7.7, \
             \"chaos_wall_ms\": 282.6, \"wall_overhead\": 36.70, \"drops_injected\": 3, \
             \"retransmitted\": 13, \"redials\": 6, \"chaos_sent_envelopes\": 519, \
             \"agreed\": true}}\n  ]\n}}\n"
        );
        assert_eq!(record_json(&sections), expected);
    }
}
