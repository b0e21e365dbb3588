//! Records the workspace's end-to-end performance baseline as four grids:
//!
//! * **end to end** — wall-clock timings and delivery throughput of the
//!   coin, AVSS, beacon and ABA through the simulator at n ∈ {4, 10, 22, 40};
//! * **committee** — all-to-all vs committee-sampled ABA/VBA at
//!   n ∈ {40, 100, 250}, committee sizes swept;
//! * **simulated vs socket** — wall-clock of the coin / full ABA / beacon
//!   over real TCP loopback peers (`setupfree-transport`) at n ∈ {4, 10, 22};
//! * **clean vs chaos** — the same coin / ABA / beacon at n ∈ {4, 10} over a
//!   mesh shaped by a seeded `LinkFaultPlan` (1 % frame drops, ≤ 20 ms
//!   jitter, one forced link cut), recording wall-clock overhead,
//!   retransmissions and redials.
//!
//! A run prints every row and writes them as JSON to the path given with
//! `--out`, and writes nothing without it, so re-running never overwrites a
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

use std::fmt::Write as _;
use std::time::Instant;

use setupfree_bench::{
    measure_avss, measure_beacon, measure_coin, measure_committee_aba, measure_committee_vba,
    measure_setupfree_aba, measure_socket_aba, measure_socket_aba_chaos, measure_socket_beacon,
    measure_socket_beacon_chaos, measure_socket_coin, measure_socket_coin_chaos,
    measure_trusted_aba, measure_trusted_vba, Measurement, SocketMeasurement,
};
use setupfree_core::coin::CoreSetMode;
use setupfree_transport::LinkFaultPlan;

struct Timed {
    protocol: String,
    wall_ms: f64,
    m: Measurement,
}

impl Timed {
    fn deliveries_per_sec(&self) -> f64 {
        self.m.deliveries as f64 / (self.wall_ms / 1e3)
    }
}

fn timed(protocol: impl Into<String>, run: impl FnOnce() -> Measurement) -> Timed {
    let protocol = protocol.into();
    let start = Instant::now();
    let m = run();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let t = Timed { protocol, wall_ms, m };
    println!(
        "  {:<22} n={:<3} {:>10.1} ms {:>12.0} deliv/s   bytes={:<12} msgs={:<8} rounds={}",
        t.protocol,
        m.n,
        wall_ms,
        t.deliveries_per_sec(),
        m.honest_bytes,
        m.honest_messages,
        m.rounds
    );
    t
}

/// One cell of the committee-subsampling grid.  `m == n` marks the
/// all-to-all comparator rows (a full committee, bit-identical to the
/// pre-committee protocol); `m < n` is a sampled committee with `n − m`
/// listeners.  Both arms use the trusted coin/election so the cell isolates
/// the fan-out the committee removes.
struct CommitteeCell {
    protocol: &'static str,
    m: usize,
    wall_ms: f64,
    meas: Measurement,
}

impl CommitteeCell {
    fn per_node_messages(&self) -> f64 {
        self.meas.honest_messages as f64 / self.meas.n as f64
    }
}

fn committee_cell(
    protocol: &'static str,
    m: usize,
    run: impl FnOnce() -> Measurement,
) -> CommitteeCell {
    let start = Instant::now();
    let meas = run();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let cell = CommitteeCell { protocol, m, wall_ms, meas };
    println!(
        "  {:<4} n={:<4} m={:<4} {:>10.1} ms  msgs/node={:<10.1} bytes={:<12} msgs={:<9} agreed={}",
        protocol,
        meas.n,
        m,
        wall_ms,
        cell.per_node_messages(),
        meas.honest_bytes,
        meas.honest_messages,
        meas.agreed
    );
    cell
}

/// The committee-subsampling grid: all-to-all comparators at
/// n ∈ {40, 100, 250} (VBA comparators stop at n = 100 — its signature
/// verification work grows ~n³ and the ABA comparator already anchors the
/// n = 250 column), committee cells sweeping m at each n.
fn committee_grid() -> Vec<CommitteeCell> {
    let mut cells = Vec::new();
    for &n in &[40usize, 100, 250] {
        cells.push(committee_cell("aba", n, || measure_trusted_aba(n, 7_800 + n as u64)));
        for &m in &[10usize, 22] {
            cells.push(committee_cell("aba", m, || measure_committee_aba(n, m, 7_800 + n as u64)));
        }
    }
    for &n in &[40usize, 100] {
        cells.push(committee_cell("vba", n, || measure_trusted_vba(n, 32, 7_850 + n as u64)));
    }
    for &n in &[40usize, 100, 250] {
        for &m in &[10usize, 16] {
            cells.push(committee_cell("vba", m, || {
                measure_committee_vba(n, m, 32, 7_850 + n as u64)
            }));
        }
    }
    cells
}

/// One simulated-vs-socket comparison cell: the same protocol, same PKI
/// seeds, run through the simulator (exact metrics, no clock) and over real
/// loopback TCP peers (wall-clock, kernel-ordered delivery).
struct TransportRow {
    protocol: &'static str,
    sim_wall_ms: f64,
    socket: SocketMeasurement,
}

/// Runs the socket-backed transport grid at n ∈ {4, 10, 22}, pairing each
/// row with the simulator wall-clock already measured for the same
/// `(protocol, n)` — seeds match, so the two runs build identical machines.
fn transport_rows(rows: &[Timed]) -> Vec<TransportRow> {
    let mut out = Vec::new();
    for &n in &[4usize, 10, 22] {
        for protocol in ["coin", "aba", "beacon"] {
            let sim_wall_ms = rows
                .iter()
                .filter(|t| t.protocol == protocol && t.m.n == n)
                .map(|t| t.wall_ms)
                .min_by(f64::total_cmp)
                .expect("the simulator grid covers every transport cell");
            let socket = match protocol {
                "coin" => measure_socket_coin(n, 7_000 + n as u64),
                "aba" => measure_socket_aba(n, 7_300 + n as u64),
                _ => measure_socket_beacon(n, 2, 7_200 + n as u64),
            };
            println!(
                "  {:<8} n={:<3} sim {:>9.1} ms  socket {:>9.1} ms ({:>5.2}x)  \
                 socket-envelopes={:<8} socket-bytes={:<10} agreed={}",
                protocol,
                n,
                sim_wall_ms,
                socket.wall_ms,
                socket.wall_ms / sim_wall_ms,
                socket.sent_envelopes,
                socket.sent_bytes,
                socket.agreed,
            );
            out.push(TransportRow { protocol, sim_wall_ms, socket });
        }
    }
    out
}

/// One clean-vs-chaos socket cell: the same machines, same PKI seeds, once
/// over a quiet mesh and once under the PR 8 fault plan.
struct ChaosRow {
    protocol: &'static str,
    clean: SocketMeasurement,
    chaos: SocketMeasurement,
}

impl ChaosRow {
    fn overhead(&self) -> f64 {
        self.chaos.wall_ms / self.clean.wall_ms
    }
}

/// The chaos plan of the recorded grid: 1 % frame drops, up to 20 ms of
/// per-frame jitter, and one forced cut of the 0→1 link at its 50th frame —
/// enough to force redials and outbox replays on every run while keeping
/// each run within a few seconds.
fn chaos_plan(seed: u64) -> LinkFaultPlan {
    LinkFaultPlan::new(seed)
        .drop_probability(0.01)
        .delay(std::time::Duration::ZERO, std::time::Duration::from_millis(20))
        .cut_link(0, 1, 50)
}

/// Runs the clean-vs-chaos grid at n ∈ {4, 10}.
fn chaos_rows() -> Vec<ChaosRow> {
    let mut out = Vec::new();
    for &n in &[4usize, 10] {
        for protocol in ["coin", "aba", "beacon"] {
            let plan = chaos_plan(0x0C8A05 + n as u64);
            let (clean, chaos) = match protocol {
                "coin" => (
                    measure_socket_coin(n, 7_000 + n as u64),
                    measure_socket_coin_chaos(n, 7_000 + n as u64, Some(&plan)),
                ),
                "aba" => (
                    measure_socket_aba(n, 7_300 + n as u64),
                    measure_socket_aba_chaos(n, 7_300 + n as u64, Some(&plan)),
                ),
                _ => (
                    measure_socket_beacon(n, 2, 7_200 + n as u64),
                    measure_socket_beacon_chaos(n, 2, 7_200 + n as u64, Some(&plan)),
                ),
            };
            let row = ChaosRow { protocol, clean, chaos };
            println!(
                "  {:<8} n={:<3} clean {:>9.1} ms  chaos {:>9.1} ms ({:>5.2}x)  \
                 drops={:<5} retransmitted={:<5} redials={:<4} agreed={}/{}",
                protocol,
                n,
                row.clean.wall_ms,
                row.chaos.wall_ms,
                row.overhead(),
                row.chaos.drops_injected,
                row.chaos.retransmitted,
                row.chaos.redials,
                row.clean.agreed,
                row.chaos.agreed,
            );
            out.push(row);
        }
    }
    out
}

/// Appends one `"name": [rows]` section to the record.
fn push_section(out: &mut String, name: &str, rows: &[String], last: bool) {
    let _ = writeln!(
        out,
        "  \"{name}\": [\n    {}\n  ]{}",
        rows.join(",\n    "),
        if last { "" } else { "," }
    );
}

/// Renders the four grids as the JSON record (a flat, fixed-shape writer
/// keeps the workspace free of a JSON dependency).
fn record_json(
    rows: &[Timed],
    committee: &[CommitteeCell],
    transport: &[TransportRow],
    chaos: &[ChaosRow],
) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"description\": \"End-to-end baseline: the simulator grid (coin, avss, beacon and \
         aba at n = 4..40), the committee-subsampling grid (all-to-all vs sampled committees \
         up to n = 250), simulated vs socket wall-clock over loopback TCP peers, and clean vs \
         chaos sockets (1 % drop, <= 20 ms jitter, one forced link cut). Timings are \
         single-run release builds; socket runs include thread and mesh setup.\",\n",
    );
    let end_to_end: Vec<String> = rows
        .iter()
        .map(|t| {
            format!(
                "{{\"protocol\": \"{}\", \"n\": {}, \"f\": {}, \"wall_ms\": {:.1}, \
                 \"deliveries_per_sec\": {:.0}, \"honest_bytes\": {}, \"honest_messages\": {}, \
                 \"rounds\": {}, \"deliveries\": {}}}",
                t.protocol,
                t.m.n,
                t.m.f,
                t.wall_ms,
                t.deliveries_per_sec(),
                t.m.honest_bytes,
                t.m.honest_messages,
                t.m.rounds,
                t.m.deliveries,
            )
        })
        .collect();
    push_section(&mut out, "end_to_end", &end_to_end, false);
    let committee: Vec<String> = committee
        .iter()
        .map(|c| {
            format!(
                "{{\"protocol\": \"committee-{}\", \"n\": {}, \"m\": {}, \"all_to_all\": {}, \
                 \"wall_ms\": {:.1}, \"honest_bytes\": {}, \"honest_messages\": {}, \
                 \"per_node_messages\": {:.1}, \"rounds\": {}, \"deliveries\": {}, \"agreed\": \
                 {}}}",
                c.protocol,
                c.meas.n,
                c.m,
                c.m == c.meas.n,
                c.wall_ms,
                c.meas.honest_bytes,
                c.meas.honest_messages,
                c.per_node_messages(),
                c.meas.rounds,
                c.meas.deliveries,
                c.meas.agreed,
            )
        })
        .collect();
    push_section(&mut out, "committee", &committee, false);
    let transport: Vec<String> = transport
        .iter()
        .map(|r| {
            format!(
                "{{\"protocol\": \"{}\", \"n\": {}, \"f\": {}, \"sim_wall_ms\": {:.1}, \
                 \"socket_wall_ms\": {:.1}, \"socket_over_sim\": {:.2}, \"socket_sent_envelopes\": \
                 {}, \"socket_sent_bytes\": {}, \"agreed\": {}}}",
                r.protocol,
                r.socket.n,
                r.socket.f,
                r.sim_wall_ms,
                r.socket.wall_ms,
                r.socket.wall_ms / r.sim_wall_ms,
                r.socket.sent_envelopes,
                r.socket.sent_bytes,
                r.socket.agreed,
            )
        })
        .collect();
    push_section(&mut out, "transport", &transport, false);
    let chaos: Vec<String> = chaos
        .iter()
        .map(|r| {
            format!(
                "{{\"protocol\": \"{}\", \"n\": {}, \"f\": {}, \"clean_wall_ms\": {:.1}, \
                 \"chaos_wall_ms\": {:.1}, \"wall_overhead\": {:.2}, \"drops_injected\": {}, \
                 \"retransmitted\": {}, \"redials\": {}, \"chaos_sent_envelopes\": {}, \
                 \"agreed\": {}}}",
                r.protocol,
                r.chaos.n,
                r.chaos.f,
                r.clean.wall_ms,
                r.chaos.wall_ms,
                r.overhead(),
                r.chaos.drops_injected,
                r.chaos.retransmitted,
                r.chaos.redials,
                r.chaos.sent_envelopes,
                r.chaos.agreed,
            )
        })
        .collect();
    push_section(&mut out, "chaos", &chaos, true);
    out.push_str("}\n");
    out
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
    let mut rows: Vec<Timed> = Vec::new();
    for &n in &[4usize, 10, 22, 40] {
        rows.push(timed("coin", || measure_coin(n, 7_000 + n as u64, CoreSetMode::Weak)));
        rows.push(timed("avss", || measure_avss(n, 7_100 + n as u64)));
        rows.push(timed("beacon", || measure_beacon(n, 2, 7_200 + n as u64).0));
        rows.push(timed("aba", || measure_setupfree_aba(n, 7_300 + n as u64)));
    }
    println!("\ncommittee grid — all-to-all (m = n) vs sampled committees, n up to 250");
    let committee = committee_grid();
    println!("\ntransport — simulated vs socket-backed wall-clock (loopback TCP peers)");
    let transport = transport_rows(&rows);
    println!("\nchaos — clean vs fault-plan-shaped sockets (1 % drop, <=20 ms jitter, one cut)");
    let chaos = chaos_rows();

    let Some(path) = out else {
        println!("\nno --out given; no baseline file written.");
        return;
    };
    std::fs::write(&path, record_json(&rows, &committee, &transport, &chaos))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}
