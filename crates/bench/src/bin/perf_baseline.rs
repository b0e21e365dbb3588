//! Records the workspace's end-to-end performance baseline: wall-clock
//! timings and delivery throughput of the coin, AVSS, beacon and ABA through
//! the simulator at n ∈ {4, 10, 22, 40}, the **committee-subsampling grid**
//! (all-to-all vs committee-sampled ABA/VBA at n ∈ {40, 100, 250}, committee
//! sizes swept), **simulated-vs-socket** wall-clock for the coin / full ABA
//! / beacon over real TCP loopback peers (`setupfree-transport`) at
//! n ∈ {4, 10, 22}, the **clean-vs-chaos socket grid** (PR 8: the same
//! coin / ABA / beacon at n ∈ {4, 10} over a mesh shaped by a seeded
//! `LinkFaultPlan` — 1 % frame drops, ≤ 20 ms jitter, one forced link cut —
//! recording wall-clock overhead, retransmissions and redials), the
//! batched-vs-per-transcript PVSS
//! verification micro-comparison, and the **cross-session verify-queue
//! grid** (PR 9: the shard-level `VerifyQueue` flushing k sessions' pending
//! RLC checks in one batch vs k per-session batches).  A full run prints
//! every row and writes them as JSON to the path given with `--out`, and
//! writes nothing without it, so re-running never overwrites a committed
//! record such as `BENCH_pr9.json`, the point later performance changes
//! are judged against.  (The concurrent- and sharded-session grid of
//! `BENCH_pr5.json` is *not* re-recorded here; that file stays committed
//! as its record.)
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p setupfree-bench --bin perf_baseline                            # full run, prints only
//! cargo run --release -p setupfree-bench --bin perf_baseline -- --out BENCH_pr<k>.json  # full run, writes the record
//! cargo run --release -p setupfree-bench --bin perf_baseline -- --smoke                 # CI gate, prints only
//! ```
//!
//! The `--smoke` mode is CI's regression gate.  It proves the binary still
//! builds and runs, that **every run still reaches `AllOutputs` within its
//! delivery budget**, that the
//! **socket transport is live** (a 4-peer beacon over real loopback TCP must
//! decide, agree, and come home inside a minute), that the transport
//! **survives chaos** (the same beacon under 1 % drops plus a forced link
//! cut must still decide and agree — the PR 8 liveness gate), that
//! **committee-sampled ABA at n = 100 is live and agrees** (members decide,
//! listeners adopt), that the **ABA n = 22 honest bytes stay within the
//! certificate-aggregation budget** (below 110 % of the PR 9 record, and at
//! least 2× under the pre-aggregation PR 7 bytes — the PR 9 tentpole gate),
//! that the **cross-session verify queue still beats per-session
//! verification wall-clock**, and replays the simulator ABA at
//! n ∈ {22, 40} — the simulator is deterministic, so the delivery counts
//! must match the post-aggregation goldens **exactly**
//! (195 801 / 791 847); the committed `BENCH_pr4.json` comparison stays
//! printed as advisory context only, because certificates and shared
//! seeding deliberately changed the replayed work.

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use setupfree_bench::tracing::{aba_overhead_arm, aba_round_distribution, OverheadArm};
use setupfree_bench::{
    measure_avss, measure_beacon, measure_coin, measure_committee_aba, measure_committee_vba,
    measure_setupfree_aba, measure_sharded_abas, measure_sharded_pipelined_beacon,
    measure_socket_aba, measure_socket_aba_chaos, measure_socket_beacon,
    measure_socket_beacon_chaos, measure_socket_coin, measure_socket_coin_chaos,
    measure_trusted_aba, measure_trusted_vba, Measurement, SocketMeasurement,
};
use setupfree_transport::LinkFaultPlan;
use setupfree_core::coin::CoreSetMode;
use setupfree_crypto::pvss::{
    verify_single_dealer_batch, PvssDecryptionKey, PvssParams, PvssScript,
};
use setupfree_crypto::{Scalar, SigningKey};
use setupfree_net::StopReason;
use setupfree_runtime::VerifyQueue;

/// Maximum tolerated growth in replayed deliveries against the PR 4
/// baseline (the deterministic work-inflation gate; see `regression_gate`).
const MAX_REGRESSION: f64 = 0.20;

/// Worker-shard count of the sharded rows.
const WORKERS: usize = 4;

/// Exact delivery counts of the deterministic simulator ABA replays after
/// the PR 9 aggregated certificates + shared coin seeding, the re-pinned
/// successors of PR 4's 405 666 / 1 398 566.  The simulator is
/// deterministic, so under `--smoke` these must reproduce **exactly** —
/// any drift means the default all-to-all path changed behaviour.
const PR9_DELIVERY_GOLDENS: &[(usize, u64)] = &[(22, 195_801), (40, 791_847)];

/// ABA n = 22 honest bytes before certificate aggregation (the committed
/// `BENCH_pr7.json` record) — the PR 9 acceptance bar is at least a 2×
/// reduction against this.
const ABA22_PRE_AGGREGATION_BYTES: u64 = 31_092_836;

/// ABA n = 22 honest bytes recorded after PR 9 (aggregated `QuorumCert`s,
/// varint wire lengths, shared coin seeding).  The certificate-bytes gate
/// fails on any growth beyond 10 % of this.
const ABA22_CERT_BYTES_BASELINE: u64 = 9_479_964;

/// Tracing-overhead ceilings (PR 10): wall-clock of the instrumented ABA
/// n = 22 replay with a sink installed but emission *off* must stay within
/// 2 % of the uninstrumented run, and the cheapest live sink (a counter
/// bump per event) within 10 %.  Judged on the per-arm minimum of
/// interleaved repetitions, which cancels most shared-runner noise.
const TRACE_OFF_CEILING: f64 = 1.02;
const TRACE_COUNTING_CEILING: f64 = 1.10;

/// Golden band for the trace-derived ABA round distribution: the mean
/// rounds-to-decide over the pinned 20-seed sweep at n = 10 (seeds
/// 9000..9020) recorded when PR 10 landed was exactly 4.00; the simulator
/// is deterministic, so drift outside ±1.0 means the ABA's round behaviour
/// (or the trace's round accounting) changed.
const ABA_ROUNDS_GOLDEN_MEAN: f64 = 4.00;
const ABA_ROUNDS_BAND: f64 = 1.0;

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

/// Every committee cell must agree (members decide, listeners adopt the
/// same value) and the sampled cells' per-node message counts must be
/// sublinear in n: at fixed m, growing n from 100 to 250 must not grow
/// per-node messages by more than the listener-side O(1) adoption traffic
/// allows (we gate at 1.5×, far under the 2.5× a linear term would show).
fn committee_gate(cells: &[CommitteeCell]) {
    let mut failures = Vec::new();
    for cell in cells {
        if !cell.meas.agreed {
            failures.push(format!(
                "{} n={} m={} did not agree",
                cell.protocol, cell.meas.n, cell.m
            ));
        }
    }
    for protocol in ["aba", "vba"] {
        for m in [10usize, 16, 22] {
            let at = |n: usize| {
                cells
                    .iter()
                    .find(|c| c.protocol == protocol && c.m == m && c.meas.n == n)
                    .map(CommitteeCell::per_node_messages)
            };
            if let (Some(small), Some(large)) = (at(100), at(250)) {
                if large > 1.5 * small {
                    failures.push(format!(
                        "{protocol} m={m}: per-node messages grew {small:.1} -> {large:.1} \
                         from n=100 to n=250 (not sublinear)"
                    ));
                }
            }
        }
    }
    if !failures.is_empty() {
        eprintln!("COMMITTEE GATE: {}", failures.join("; "));
        std::process::exit(1);
    }
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
/// A socket run that fails or disagrees kills the recording: transport
/// liveness is a correctness property, not a data point.
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
            transport_gate(protocol, &socket);
            println!(
                "  {:<8} n={:<3} sim {:>9.1} ms  socket {:>9.1} ms ({:>5.2}x)  \
                 socket-envelopes={:<8} socket-bytes={}",
                protocol,
                n,
                sim_wall_ms,
                socket.wall_ms,
                socket.wall_ms / sim_wall_ms,
                socket.sent_envelopes,
                socket.sent_bytes,
            );
            out.push(TransportRow { protocol, sim_wall_ms, socket });
        }
    }
    out
}

/// Fails the process on a dead or disagreeing socket run.
fn transport_gate(protocol: &str, socket: &SocketMeasurement) {
    if let Some(failure) = &socket.failure {
        eprintln!("TRANSPORT FAILURE: {protocol} at n={}: {failure}", socket.n);
        std::process::exit(1);
    }
    if !socket.agreed {
        eprintln!("TRANSPORT DISAGREEMENT: {protocol} at n={} over sockets", socket.n);
        std::process::exit(1);
    }
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
/// enough to force redials and outbox replays on every run without pushing
/// wall-clock past CI patience.
fn chaos_plan(seed: u64) -> LinkFaultPlan {
    LinkFaultPlan::new(seed)
        .drop_probability(0.01)
        .delay(std::time::Duration::ZERO, std::time::Duration::from_millis(20))
        .cut_link(0, 1, 50)
}

/// Runs the clean-vs-chaos grid at n ∈ {4, 10}.  Chaos runs are held to the
/// same gate as clean ones: the plan injects faults the reconnect layer must
/// absorb, so a failure or disagreement under chaos is a resilience bug,
/// not noise.
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
            transport_gate(protocol, &clean);
            transport_gate(protocol, &chaos);
            let row = ChaosRow { protocol, clean, chaos };
            println!(
                "  {:<8} n={:<3} clean {:>9.1} ms  chaos {:>9.1} ms ({:>5.2}x)  \
                 drops={:<5} retransmitted={:<5} redials={}",
                protocol,
                n,
                row.clean.wall_ms,
                row.chaos.wall_ms,
                row.overhead(),
                row.chaos.drops_injected,
                row.chaos.retransmitted,
                row.chaos.redials,
            );
            out.push(row);
        }
    }
    out
}

/// Reads the recorded `wall_ms` for `(protocol, n)` out of the committed
/// `BENCH_pr4.json` (a flat, machine-written file; a fixed-shape string scan
/// keeps the workspace free of a JSON dependency).
fn baseline_field(json: &str, protocol: &str, n: usize, field: &str) -> Option<f64> {
    let needle = format!("\"protocol\": \"{protocol}\", \"n\": {n},");
    let row_start = json.find(&needle)?;
    let row = &json[row_start..];
    let key = format!("\"{field}\": ");
    let at = row.find(&key)? + key.len();
    let rest = &row[at..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

struct PvssComparison {
    n: usize,
    transcripts: usize,
    per_transcript_ms: f64,
    batch_ms: f64,
}

/// Times verifying one full setup's worth of single-dealer transcripts (the
/// Seeding leader's workload) per-transcript vs batched, asserting along the
/// way that both paths accept the same scripts.
fn pvss_comparison(n: usize, reps: u32) -> PvssComparison {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let params = PvssParams::new(n, 2 * ((n - 1) / 3));
    let mut eks = Vec::new();
    let mut sig_keys = Vec::new();
    let mut vks = Vec::new();
    let mut entropy = [0u8; 32];
    for i in 0..n {
        let (dk, ek) = PvssDecryptionKey::generate(&mut rng);
        eks.push(ek);
        let sk = SigningKey::generate(&mut rng);
        vks.push(sk.verifying_key());
        sig_keys.push(sk);
        if i == 0 {
            entropy = dk.batch_entropy();
        }
    }
    let scripts: Vec<PvssScript> = (0..n)
        .map(|d| {
            PvssScript::deal(&params, &eks, &sig_keys[d], d, Scalar::from_u64(d as u64 + 1), &mut rng)
        })
        .collect();
    let entries: Vec<(usize, &PvssScript)> = scripts.iter().enumerate().collect();

    // Warm the process-wide caches (Lagrange tables, comb tables) so the
    // comparison measures the steady state both paths run in.
    assert!(scripts[0].verify_single_dealer(&params, &eks, &vks, 0));
    let warm = verify_single_dealer_batch(&params, &eks, &vks, &entries, &entropy);
    assert_eq!(warm, vec![true; n], "batch verification must accept the honest setup");

    let start = Instant::now();
    for _ in 0..reps {
        for (d, script) in &entries {
            assert!(script.verify_single_dealer(&params, &eks, &vks, *d));
        }
    }
    let per_transcript_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(reps);

    let start = Instant::now();
    for _ in 0..reps {
        let flags = verify_single_dealer_batch(&params, &eks, &vks, &entries, &entropy);
        assert_eq!(flags.len(), n);
    }
    let batch_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(reps);

    println!(
        "  pvss     n={n:<3} per-transcript {per_transcript_ms:.3} ms, batched {batch_ms:.3} ms \
         ({:.2}x)",
        per_transcript_ms / batch_ms
    );
    PvssComparison { n, transcripts: n, per_transcript_ms, batch_ms }
}

/// One cell of the cross-session verify-queue grid: the same `k` sessions'
/// worth of pending RLC checks, verified per-session (`2k` separate batch
/// calls, paying each batch's fixed cost `k` times) vs enqueued into one
/// [`VerifyQueue`] and flushed in a single cross-session step (one
/// [`verify_single_dealer_batch`] call plus one `verify_share_groups`
/// call).
struct VerifyQueueRow {
    n: usize,
    k: usize,
    entries: usize,
    per_session_ms: f64,
    queued_ms: f64,
    batches_saved: u64,
}

/// Times one shard step's verification work for `k` concurrent sessions over
/// one shared PKI — the exact regime `ShardedHost` runs (shard key = session
/// index mod workers, every session on the same keyring).  Each session's
/// workload is its seeding leader's `n` single-dealer transcripts plus an
/// AVSS party's opening checks for the session's `n` concurrent AVSS
/// instances (a beacon session shares one per party): `n` dealer
/// commitments with `n` claimed openings each; everything honest.  The
/// per-session arm is the pre-queue behaviour — one batch call per pending
/// check group — while the queued arm flushes everything in one PVSS batch
/// plus one cross-group RLC.  The queued arm includes the flush's verdict
/// split, so the comparison charges the queue its real overhead (the
/// enqueue clones exist only because the bench replays one workload `reps`
/// times — in the shard a session *moves* its checks in — so those are
/// prepared outside the timed region).
fn verify_queue_row(n: usize, k: usize, reps: u32) -> VerifyQueueRow {
    use setupfree_crypto::pedersen::PedersenCommitment;
    use setupfree_crypto::Polynomial;

    let mut rng = StdRng::seed_from_u64(0x0b9e + n as u64);
    let degree = 2 * ((n - 1) / 3);
    let params = PvssParams::new(n, degree);
    let mut eks = Vec::new();
    let mut sig_keys = Vec::new();
    let mut vks = Vec::new();
    let mut entropy = [0u8; 32];
    for i in 0..n {
        let (dk, ek) = PvssDecryptionKey::generate(&mut rng);
        eks.push(ek);
        let sk = SigningKey::generate(&mut rng);
        vks.push(sk.verifying_key());
        sig_keys.push(sk);
        if i == 0 {
            entropy = dk.batch_entropy();
        }
    }
    let scripts_of: Vec<Vec<PvssScript>> = (0..k)
        .map(|s| {
            (0..n)
                .map(|d| {
                    PvssScript::deal(
                        &params,
                        &eks,
                        &sig_keys[d],
                        d,
                        Scalar::from_u64((s * n + d) as u64 + 1),
                        &mut rng,
                    )
                })
                .collect()
        })
        .collect();
    type SessionOpenings = Vec<(PedersenCommitment, Vec<(usize, Scalar, Scalar)>)>;
    let openings_of: Vec<SessionOpenings> = (0..k)
        .map(|_| {
            (0..n)
                .map(|_| {
                    let a = Polynomial::random(degree, &mut rng);
                    let b = Polynomial::random(degree, &mut rng);
                    let commitment = PedersenCommitment::commit(&a, &b);
                    let shares =
                        (1..=n).map(|i| (i, a.eval_at_index(i), b.eval_at_index(i))).collect();
                    (commitment, shares)
                })
                .collect()
        })
        .collect();

    // Warm the process-wide caches so both arms run in the steady state.
    let warm: Vec<(usize, &PvssScript)> = scripts_of[0].iter().enumerate().collect();
    assert_eq!(
        verify_single_dealer_batch(&params, &eks, &vks, &warm, &entropy),
        vec![true; n],
        "the honest workload must verify"
    );

    let start = Instant::now();
    for _ in 0..reps {
        for (scripts, groups) in scripts_of.iter().zip(openings_of.iter()) {
            let entries: Vec<(usize, &PvssScript)> = scripts.iter().enumerate().collect();
            let flags = verify_single_dealer_batch(&params, &eks, &vks, &entries, &entropy);
            assert_eq!(flags, vec![true; n]);
            for (commitment, shares) in groups {
                let flags = commitment.verify_shares_batch(shares, &entropy);
                assert_eq!(flags, vec![true; n]);
            }
        }
    }
    let per_session_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(reps);

    type Workload = (Vec<Vec<(usize, PvssScript)>>, Vec<SessionOpenings>);
    let mut workloads: Vec<Workload> = (0..reps)
        .map(|_| {
            (
                scripts_of.iter().map(|s| s.iter().cloned().enumerate().collect()).collect(),
                openings_of.clone(),
            )
        })
        .collect();
    let mut batches_saved = 0;
    let start = Instant::now();
    for (script_load, opening_load) in workloads.drain(..) {
        let mut queue = VerifyQueue::new();
        for (s, entries) in script_load.into_iter().enumerate() {
            queue.enqueue_scripts(s, entries);
        }
        for (s, groups) in opening_load.into_iter().enumerate() {
            for (commitment, shares) in groups {
                queue.enqueue_shares(s, commitment, shares);
            }
        }
        let report = queue.flush(&params, &eks, &vks, &entropy);
        assert!(report.all_ok(), "the honest cross-session flush must verify");
        assert_eq!(report.entries, k * n + k * n * n);
        batches_saved = queue.stats().batches_saved;
    }
    let queued_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(reps);

    println!(
        "  vqueue   n={n:<3} k={k:<2} per-session {per_session_ms:>8.3} ms, queued \
         {queued_ms:>8.3} ms ({:.2}x, {batches_saved} batch costs amortised)",
        per_session_ms / queued_ms
    );
    VerifyQueueRow { n, k, entries: k * n + k * n * n, per_session_ms, queued_ms, batches_saved }
}

/// The PR 9 verify-queue gate: one cross-session flush must beat `k`
/// per-session batch calls on the same workload.  Wall-clock gates are
/// normally banned here (machine drift), but this one compares two arms
/// measured back-to-back in the *same* process on the same data — the
/// machine cancels out, and the queued arm losing means the fixed batch
/// cost is no longer being amortised at all.
fn verify_queue_gate(rows: &[VerifyQueueRow], gate: bool) {
    let failures: Vec<String> = rows
        .iter()
        .filter(|r| r.queued_ms >= r.per_session_ms)
        .map(|r| {
            format!(
                "verify queue at n={} k={}: queued {:.1} ms did not beat per-session {:.1} ms",
                r.n, r.k, r.queued_ms, r.per_session_ms
            )
        })
        .collect();
    if !failures.is_empty() {
        if gate {
            eprintln!("VERIFY-QUEUE REGRESSION: {}", failures.join("; "));
            std::process::exit(1);
        }
        eprintln!("  note (not fatal outside --smoke): {}", failures.join("; "));
    }
}

/// Everything one recording produced, bundled for the JSON writer.
struct Recording<'a> {
    rows: &'a [Timed],
    committee: &'a [CommitteeCell],
    transport: &'a [TransportRow],
    chaos: &'a [ChaosRow],
    pr4: &'a str,
    pr7: &'a str,
    pvss: &'a PvssComparison,
    vqueue: &'a [VerifyQueueRow],
}

fn json_escape_free(rec: &Recording<'_>) -> String {
    let Recording { rows, committee, transport, chaos, pr4, pr7, pvss, vqueue } = *rec;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"pr\": 9,\n");
    out.push_str(
        "  \"description\": \"Baseline after the aggregated quorum certificates + verify queue \
         (PR 9): every quorum-carrying message (AVSS Cipher, WCS Commit, VBA Confirm/Vote, \
         Seeding AggPvssCommit/Seed) now ships one Schnorr half-aggregated QuorumCert instead \
         of n-f raw signatures, wire lengths went varint, and later ABA coin rounds reuse \
         round 0's seeds through a shared seed store instead of re-running the n Seeding \
         instances. The pr7_comparison section is the headline: honest bytes and wall-clock of \
         the same ABA rows before vs after (n=22 bytes dropped over 3x). The verify_queue \
         section is the second observable: k concurrent sessions' RLC transcript checks \
         flushed in one cross-session batch vs k per-session batches, amortising the fixed \
         pairing cost of each batch across the shard. The end_to_end, committee, transport, \
         chaos and PVSS sections repeat the previous baseline's instrumentation; the delivery \
         goldens are re-pinned to the post-aggregation replays (195801 / 791847 at n=22/40) \
         and must reproduce exactly. Timings are single-run, release build, on a single-core \
         container; socket runs include thread and mesh setup.\",\n",
    );
    out.push_str("  \"end_to_end\": [\n");
    for (i, t) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"protocol\": \"{}\", \"n\": {}, \"f\": {}, \"wall_ms\": {:.1}, \
             \"deliveries_per_sec\": {:.0}, \"honest_bytes\": {}, \"honest_messages\": {}, \
             \"rounds\": {}, \"deliveries\": {}}}{}",
            t.protocol,
            t.m.n,
            t.m.f,
            t.wall_ms,
            t.deliveries_per_sec(),
            t.m.honest_bytes,
            t.m.honest_messages,
            t.m.rounds,
            t.m.deliveries,
            if i + 1 == rows.len() { "\n" } else { ",\n" }
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"committee\": [\n");
    for (i, c) in committee.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"protocol\": \"committee-{}\", \"n\": {}, \"m\": {}, \"all_to_all\": {}, \
             \"wall_ms\": {:.1}, \"honest_bytes\": {}, \"honest_messages\": {}, \
             \"per_node_messages\": {:.1}, \"rounds\": {}, \"deliveries\": {}, \"agreed\": \
             {}}}{}",
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
            if i + 1 == committee.len() { "\n" } else { ",\n" }
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"transport\": [\n");
    for (i, r) in transport.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"protocol\": \"{}\", \"n\": {}, \"f\": {}, \"sim_wall_ms\": {:.1}, \
             \"socket_wall_ms\": {:.1}, \"socket_over_sim\": {:.2}, \"socket_sent_envelopes\": \
             {}, \"socket_sent_bytes\": {}, \"agreed\": {}}}{}",
            r.protocol,
            r.socket.n,
            r.socket.f,
            r.sim_wall_ms,
            r.socket.wall_ms,
            r.socket.wall_ms / r.sim_wall_ms,
            r.socket.sent_envelopes,
            r.socket.sent_bytes,
            r.socket.agreed,
            if i + 1 == transport.len() { "\n" } else { ",\n" }
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"chaos\": [\n");
    for (i, r) in chaos.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"protocol\": \"{}\", \"n\": {}, \"f\": {}, \"clean_wall_ms\": {:.1}, \
             \"chaos_wall_ms\": {:.1}, \"wall_overhead\": {:.2}, \"drops_injected\": {}, \
             \"retransmitted\": {}, \"redials\": {}, \"chaos_sent_envelopes\": {}, \
             \"agreed\": {}}}{}",
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
            if i + 1 == chaos.len() { "\n" } else { ",\n" }
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"pr4_comparison\": [\n");
    let compared: Vec<&Timed> = rows
        .iter()
        .filter(|t| baseline_field(pr4, &t.protocol, t.m.n, "wall_ms").is_some())
        .collect();
    for (i, t) in compared.iter().enumerate() {
        let prev = baseline_field(pr4, &t.protocol, t.m.n, "wall_ms").expect("filtered above");
        let _ = write!(
            out,
            "    {{\"protocol\": \"{}\", \"n\": {}, \"pr4_wall_ms\": {prev}, \"pr9_wall_ms\": \
             {:.1}, \"speedup\": {:.2}}}{}",
            t.protocol,
            t.m.n,
            t.wall_ms,
            prev / t.wall_ms,
            if i + 1 == compared.len() { "\n" } else { ",\n" }
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"pr7_comparison\": [\n");
    let certed: Vec<&Timed> = rows
        .iter()
        .filter(|t| baseline_field(pr7, &t.protocol, t.m.n, "honest_bytes").is_some())
        .collect();
    for (i, t) in certed.iter().enumerate() {
        let prev_bytes =
            baseline_field(pr7, &t.protocol, t.m.n, "honest_bytes").expect("filtered above");
        let prev_wall = baseline_field(pr7, &t.protocol, t.m.n, "wall_ms").unwrap_or(0.0);
        let _ = write!(
            out,
            "    {{\"protocol\": \"{}\", \"n\": {}, \"pr7_honest_bytes\": {prev_bytes:.0}, \
             \"pr9_honest_bytes\": {}, \"bytes_reduction\": {:.2}, \"pr7_wall_ms\": \
             {prev_wall}, \"pr9_wall_ms\": {:.1}}}{}",
            t.protocol,
            t.m.n,
            t.m.honest_bytes,
            prev_bytes / t.m.honest_bytes as f64,
            t.wall_ms,
            if i + 1 == certed.len() { "\n" } else { ",\n" }
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"verify_queue\": [\n");
    for (i, r) in vqueue.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"n\": {}, \"sessions\": {}, \"entries\": {}, \"per_session_ms\": {:.3}, \
             \"queued_ms\": {:.3}, \"speedup\": {:.2}, \"batches_saved\": {}}}{}",
            r.n,
            r.k,
            r.entries,
            r.per_session_ms,
            r.queued_ms,
            r.per_session_ms / r.queued_ms,
            r.batches_saved,
            if i + 1 == vqueue.len() { "\n" } else { ",\n" }
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"pvss_verification\": {{\"n\": {}, \"transcripts\": {}, \"per_transcript_ms\": {:.3}, \
         \"batch_ms\": {:.3}, \"speedup\": {:.2}}}",
        pvss.n,
        pvss.transcripts,
        pvss.per_transcript_ms,
        pvss.batch_ms,
        pvss.per_transcript_ms / pvss.batch_ms
    );
    out.push_str("}\n");
    out
}

fn load_pr4_baseline() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr4.json");
    std::fs::read_to_string(path).expect("BENCH_pr4.json must be committed at the workspace root")
}

fn load_pr7_baseline() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr7.json");
    std::fs::read_to_string(path).expect("BENCH_pr7.json must be committed at the workspace root")
}

fn liveness_gate(rows: &[Timed]) {
    let stuck: Vec<String> = rows
        .iter()
        .filter(|t| t.m.reason != StopReason::AllOutputs)
        .map(|t| format!("{} at n={} stopped with {:?}", t.protocol, t.m.n, t.m.reason))
        .collect();
    if !stuck.is_empty() {
        eprintln!("BUDGET REGRESSION: {}", stuck.join("; "));
        std::process::exit(1);
    }
}

/// Checks the simulator ABA at n ∈ {22, 40} against the pinned
/// delivery goldens and prints the historical PR 4 comparison.
///
/// The *fatal* check (under `gate`, the `--smoke` CI mode) is on
/// **delivery counts**: the simulator is deterministic, so the same seeds
/// must replay the same protocol work on any machine.  PRs 4–6 recorded
/// exactly 405 666 / 1 398 566 deliveries for these two rows; PR 9's
/// aggregated certificates and shared coin seeding deliberately changed the
/// replayed work (later coin rounds reuse round 0's seeds and drop their
/// seeding traffic outright), so the gate is re-pinned to the
/// [`PR9_DELIVERY_GOLDENS`] — still **exact equality**, not a tolerance
/// band; [`MAX_REGRESSION`] remains the advisory threshold outside the
/// gate.  The PR 4 comparison is kept as a *printed* advisory line so the
/// reviewer sees the cumulative delivery trajectory, but it is never fatal:
/// the counts are expected to differ.
///
/// Wall-clock is compared and *printed* but never fatal: the baseline file
/// records one machine state, the gate runs on another (shared CI runners,
/// background load), and a pre-PR 6 audit showed the unmodified tree
/// drifting ±40 % against its own committed numbers on a loaded single-core
/// host.  An absolute cross-session wall-clock gate therefore fails red on
/// machine drift far more often than on real regressions; the reviewer
/// reads the printed comparison instead.
fn regression_gate(rows: &[Timed], pr4: &str, gate: bool) {
    let mut failures = Vec::new();
    for &(n, golden) in PR9_DELIVERY_GOLDENS {
        // Against shared-runner noise, judge the *minimum* wall-clock of
        // the (possibly repeated) measurements for each size.
        let Some(best) = rows
            .iter()
            .filter(|t| t.protocol == "aba" && t.m.n == n)
            .min_by(|a, b| f64::total_cmp(&a.wall_ms, &b.wall_ms))
        else {
            continue;
        };
        let wall_ms = best.wall_ms;
        let deliveries = best.m.deliveries;
        let ratio = deliveries as f64 / golden as f64;
        println!(
            "  regression check: aba n={n}: {deliveries} deliveries vs PR 9 golden {golden} \
             ({:+.2} %)",
            (ratio - 1.0) * 100.0
        );
        if gate && deliveries != golden {
            failures.push(format!(
                "aba at n={n} replays {deliveries} deliveries vs the PR 9 golden's exact \
                 {golden} — the default all-to-all path changed behaviour"
            ));
        } else if ratio > 1.0 + MAX_REGRESSION {
            failures.push(format!(
                "aba at n={n} now replays {deliveries} deliveries vs the PR 9 golden {golden} \
                 ({:+.0} %)",
                (ratio - 1.0) * 100.0
            ));
        }
        if let Some(prev_deliveries) = baseline_field(pr4, "aba", n, "deliveries") {
            println!(
                "  history (advisory): aba n={n}: {deliveries} deliveries vs PR 4 \
                 {prev_deliveries:.0} ({:+.1} %)",
                (deliveries as f64 / prev_deliveries - 1.0) * 100.0
            );
        }
        if let Some(prev) = baseline_field(pr4, "aba", n, "wall_ms") {
            println!(
                "  wall-clock (advisory): aba n={n}: {wall_ms:.1} ms vs PR 4 {prev:.1} ms \
                 ({:+.1} %)",
                (wall_ms / prev - 1.0) * 100.0
            );
        }
    }
    if !failures.is_empty() {
        if gate {
            eprintln!("DELIVERY-COUNT REGRESSION: {}", failures.join("; "));
            std::process::exit(1);
        }
        eprintln!("  note (not fatal outside --smoke): {}", failures.join("; "));
    }
}

/// The PR 9 tentpole gate: ABA n = 22 honest bytes must stay at least 2×
/// under the pre-aggregation PR 7 record *and* within 10 % of the bytes
/// recorded when the aggregated certificates landed.  Bytes, like delivery
/// counts, are fully deterministic in the simulator, so a tight bound is
/// safe — growth here means quorum messages regressed toward carrying raw
/// signature vectors again (or some other wire bloat crept in).
fn cert_bytes_gate(rows: &[Timed], gate: bool) {
    let Some(best) = rows
        .iter()
        .filter(|t| t.protocol == "aba" && t.m.n == 22)
        .min_by(|a, b| f64::total_cmp(&a.wall_ms, &b.wall_ms))
    else {
        return;
    };
    let bytes = best.m.honest_bytes;
    let vs_pre = ABA22_PRE_AGGREGATION_BYTES as f64 / bytes as f64;
    println!(
        "  cert-bytes check: aba n=22: {bytes} honest bytes = {vs_pre:.2}x under the \
         pre-aggregation {ABA22_PRE_AGGREGATION_BYTES} (baseline {ABA22_CERT_BYTES_BASELINE})"
    );
    let mut failures = Vec::new();
    if bytes > ABA22_CERT_BYTES_BASELINE + ABA22_CERT_BYTES_BASELINE / 10 {
        failures.push(format!(
            "aba n=22 honest bytes {bytes} grew past 110 % of the PR 9 baseline \
             {ABA22_CERT_BYTES_BASELINE}"
        ));
    }
    if bytes > ABA22_PRE_AGGREGATION_BYTES / 2 {
        failures.push(format!(
            "aba n=22 honest bytes {bytes} lost the 2x reduction vs the pre-aggregation \
             {ABA22_PRE_AGGREGATION_BYTES}"
        ));
    }
    if !failures.is_empty() {
        if gate {
            eprintln!("CERT-BYTES REGRESSION: {}", failures.join("; "));
            std::process::exit(1);
        }
        eprintln!("  note (not fatal outside --smoke): {}", failures.join("; "));
    }
}

/// PR 10 gate: instrumentation must be (nearly) free when nobody is
/// looking.  Re-runs the golden ABA n = 22 replay under three arms —
/// uninstrumented, sink installed with emission off, and the cheapest live
/// sink — interleaved over several repetitions.  Each repetition yields one
/// overhead ratio per arm against *that repetition's* plain run (adjacent
/// in time, so thermal drift and background load mostly cancel); the gate
/// judges the **minimum** rep ratio: one-sided noise spikes inflate single
/// ratios but a real regression inflates all of them, so the minimum keeps
/// a 2 % bound meaningful on hosts whose raw wall-clock wanders ±20 %
/// within a process.  All arms must replay the golden delivery count
/// exactly: tracing observes, it never steers.
fn tracing_overhead_gate(gate: bool) {
    let (n, seed) = (22usize, 7_322u64);
    let golden = PR9_DELIVERY_GOLDENS
        .iter()
        .find_map(|&(gn, g)| (gn == n).then_some(g))
        .expect("n = 22 golden is pinned");
    const ARMS: [OverheadArm; 3] =
        [OverheadArm::Plain, OverheadArm::DisabledSink, OverheadArm::CountingSink];
    let mut ratios = [f64::INFINITY; 3];
    let mut events = 0u64;
    for _rep in 0..4 {
        let mut walls = [0f64; 3];
        for (slot, arm) in ARMS.into_iter().enumerate() {
            let (wall, deliveries, ev) = aba_overhead_arm(n, seed, arm);
            if deliveries != golden {
                eprintln!(
                    "TRACING REGRESSION: the {arm:?} arm replayed {deliveries} deliveries vs \
                     the golden {golden} — tracing steered the run"
                );
                std::process::exit(1);
            }
            walls[slot] = wall.as_secs_f64();
            events = events.max(ev);
        }
        for slot in 0..3 {
            ratios[slot] = ratios[slot].min(walls[slot] / walls[0]);
        }
    }
    let off = ratios[1];
    let counting = ratios[2];
    println!(
        "  tracing overhead: aba n={n}: sink-off {:+.1} %, counting {:+.1} % \
         (best-rep ratios vs the uninstrumented run), {events} events counted",
        (off - 1.0) * 100.0,
        (counting - 1.0) * 100.0,
    );
    let mut failures = Vec::new();
    if off > TRACE_OFF_CEILING {
        failures.push(format!(
            "disabled-sink overhead {:.1} % exceeds the {:.0} % ceiling",
            (off - 1.0) * 100.0,
            (TRACE_OFF_CEILING - 1.0) * 100.0
        ));
    }
    if counting > TRACE_COUNTING_CEILING {
        failures.push(format!(
            "counting-sink overhead {:.1} % exceeds the {:.0} % ceiling",
            (counting - 1.0) * 100.0,
            (TRACE_COUNTING_CEILING - 1.0) * 100.0
        ));
    }
    if events == 0 {
        failures.push("the counting sink observed no events".into());
    }
    if !failures.is_empty() {
        if gate {
            eprintln!("TRACING REGRESSION: {}", failures.join("; "));
            std::process::exit(1);
        }
        eprintln!("  note (not fatal outside --smoke): {}", failures.join("; "));
    }
}

/// PR 10 gate: the trace-derived ABA round distribution must stay in the
/// expected-constant regime — the mean rounds-to-decide over the pinned
/// 20-seed sweep within [`ABA_ROUNDS_BAND`] of the recorded
/// [`ABA_ROUNDS_GOLDEN_MEAN`].  Deterministic seeds, so a drift is a
/// behaviour change in the ABA or in the trace's round accounting, not
/// sampling noise.
fn aba_rounds_gate(gate: bool) {
    let rounds = aba_round_distribution(10, (0..20).map(|s| 9_000 + s));
    let mean = rounds.iter().sum::<u64>() as f64 / rounds.len() as f64;
    let min = *rounds.iter().min().unwrap();
    let max = *rounds.iter().max().unwrap();
    println!(
        "  aba round distribution (from traces): n=10, 20 seeds: mean {mean:.2} \
         (golden {ABA_ROUNDS_GOLDEN_MEAN:.2} ± {ABA_ROUNDS_BAND:.1}), min {min}, max {max}"
    );
    if (mean - ABA_ROUNDS_GOLDEN_MEAN).abs() > ABA_ROUNDS_BAND {
        if gate {
            eprintln!(
                "ROUND-DISTRIBUTION REGRESSION: mean {mean:.2} left the golden band \
                 {ABA_ROUNDS_GOLDEN_MEAN:.2} ± {ABA_ROUNDS_BAND:.1}"
            );
            std::process::exit(1);
        }
        eprintln!(
            "  note (not fatal outside --smoke): round mean {mean:.2} outside the golden band"
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args.iter().position(|a| a == "--out").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("perf_baseline: --out needs a path");
            std::process::exit(2)
        })
    });
    let pr4 = load_pr4_baseline();
    let pr7 = load_pr7_baseline();
    let mut rows: Vec<Timed> = Vec::new();

    println!("perf_baseline — end-to-end wall-clock timings through the simulator");
    let sizes: &[usize] = if smoke { &[4] } else { &[4, 10, 22, 40] };
    for &n in sizes {
        rows.push(timed("coin", || measure_coin(n, 7_000 + n as u64, CoreSetMode::Weak)));
        rows.push(timed("avss", || measure_avss(n, 7_100 + n as u64)));
        rows.push(timed("beacon", || measure_beacon(n, 2, 7_200 + n as u64).0));
        rows.push(timed("aba", || measure_setupfree_aba(n, 7_300 + n as u64)));
    }
    if smoke {
        // The regression gate re-times the two sizes it compares, twice
        // each: judging the per-size minimum halves the impact of one-off
        // scheduler hiccups on shared CI runners.
        for &n in &[22usize, 40] {
            for _ in 0..2 {
                rows.push(timed("aba", || measure_setupfree_aba(n, 7_300 + n as u64)));
            }
        }
        // Sharded-runtime smoke: both execution modes at a small size.
        rows.push(timed("aba-x4-shard-w4", || measure_sharded_abas(4, 4, WORKERS, 7_600, false)));
        rows.push(timed("aba-x4-par-w4", || measure_sharded_abas(4, 4, WORKERS, 7_600, true)));
        rows.push(timed("beacon-pipe4-shard", || {
            measure_sharded_pipelined_beacon(4, 4, 2, 2, 7_700)
        }));
    }

    // Committee-sampled liveness at the scale the tentpole unlocks: a
    // committee of 22 inside n = 100 must decide *and* its 78 listeners must
    // adopt, in both modes (the smoke gate and the recorded grid).
    println!("\ncommittee — committee-sampled ABA liveness at n = 100");
    let committee_smoke = committee_cell("aba", 22, || measure_committee_aba(100, 22, 7_900));
    committee_gate(std::slice::from_ref(&committee_smoke));

    let committee = if smoke {
        Vec::new()
    } else {
        println!("\ncommittee grid — all-to-all (m = n) vs sampled committees, n up to 250");
        let cells = committee_grid();
        committee_gate(&cells);
        cells
    };

    // Liveness gate: a run that regressed to BudgetExhausted is a failure,
    // not a data point (the measure_* helpers also assert this — the
    // explicit check keeps the guarantee even if that assert ever moves).
    liveness_gate(&rows);

    let (transport, chaos) = if smoke {
        // Transport liveness gate: a 4-peer beacon over real loopback TCP
        // must decide, agree, and come home fast.  The group's own watchdog
        // bounds the run; the explicit wall-clock cap catches a transport
        // that still finishes but has silently become pathological.
        println!("\ntransport liveness — 4-peer beacon over loopback TCP sockets");
        let socket = measure_socket_beacon(4, 2, 7_204);
        transport_gate("beacon", &socket);
        if socket.wall_ms > 60_000.0 {
            eprintln!("TRANSPORT REGRESSION: 4-peer socket beacon took {:.0} ms", socket.wall_ms);
            std::process::exit(1);
        }
        println!(
            "  beacon   n=4   socket {:>9.1} ms  envelopes={} bytes={}",
            socket.wall_ms, socket.sent_envelopes, socket.sent_bytes
        );
        // Chaos liveness gate (PR 8): the same beacon must also survive a
        // hostile mesh — 1 % frame drops plus one forced link cut — by
        // redialling and replaying its outboxes, and still decide + agree.
        println!("\nchaos liveness — the same beacon under 1 % drops and a forced link cut");
        let hostile = measure_socket_beacon_chaos(4, 2, 7_204, Some(&chaos_plan(0x0C8A05)));
        transport_gate("beacon-chaos", &hostile);
        if hostile.wall_ms > 120_000.0 {
            eprintln!("CHAOS REGRESSION: 4-peer chaos beacon took {:.0} ms", hostile.wall_ms);
            std::process::exit(1);
        }
        println!(
            "  beacon   n=4   chaos  {:>9.1} ms  drops={} retransmitted={} redials={}",
            hostile.wall_ms, hostile.drops_injected, hostile.retransmitted, hostile.redials
        );
        (Vec::new(), Vec::new())
    } else {
        println!("\ntransport — simulated vs socket-backed wall-clock (loopback TCP peers)");
        let transport = transport_rows(&rows);
        println!("\nchaos — clean vs fault-plan-shaped sockets (1 % drop, <=20 ms jitter, one cut)");
        (transport, chaos_rows())
    };

    println!(
        "\nregression check vs the PR 9 delivery goldens ({} on any drift; PR 4 history and \
         wall-clock advisory)",
        if smoke { "fail" } else { "warn" }
    );
    regression_gate(&rows, &pr4, smoke);
    println!(
        "\ncert-bytes check — ABA n=22 honest bytes vs the pre-aggregation PR 7 record ({})",
        if smoke { "fail on regression" } else { "warn" }
    );
    cert_bytes_gate(&rows, smoke);

    println!("\nPVSS transcript verification: per-transcript vs random-linear-combination batch");
    let pvss = pvss_comparison(if smoke { 4 } else { 22 }, if smoke { 2 } else { 20 });

    println!(
        "\nverify queue — k sessions' transcript checks: per-session batches vs one \
         cross-session flush"
    );
    let vqueue = if smoke {
        let rows = vec![verify_queue_row(10, 4, 100)];
        verify_queue_gate(&rows, true);
        rows
    } else {
        let rows: Vec<VerifyQueueRow> =
            [2usize, 4, 8].iter().map(|&k| verify_queue_row(22, k, 10)).collect();
        verify_queue_gate(&rows, false);
        rows
    };

    println!(
        "\ntracing gates — zero-cost-when-off overhead and trace-derived ABA round sanity ({})",
        if smoke { "fail on regression" } else { "warn" }
    );
    tracing_overhead_gate(smoke);
    aba_rounds_gate(smoke);

    if smoke {
        println!(
            "\n--smoke: all runners (simulator, sharded, parallel) reached AllOutputs, the \
             socket transport is live and survives chaos \
             (1 % drops + a forced cut), committee-sampled ABA at n=100 decided with listener \
             adoption, the ABA delivery counts match the PR 9 goldens exactly, the n=22 honest \
             bytes hold the 2x certificate reduction, the cross-session verify queue beat \
             per-session verification, tracing stays within its overhead ceilings without \
             steering the replay, and the trace-derived ABA round mean sits in its golden \
             band; no baseline file written."
        );
        return;
    }
    let Some(path) = out else {
        println!("\nno --out given; no baseline file written.");
        return;
    };
    std::fs::write(
        &path,
        json_escape_free(&Recording {
            rows: &rows,
            committee: &committee,
            transport: &transport,
            chaos: &chaos,
            pr4: &pr4,
            pr7: &pr7,
            pvss: &pvss,
            vqueue: &vqueue,
        }),
    )
    .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}
