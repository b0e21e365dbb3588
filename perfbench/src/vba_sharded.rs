//! `vba-sharded`: VBA with the leader election and vote-ABA coins taken
//! from an external beacon (`TrustedElectionFactory`, `TrustedCoinFactory`),
//! n = 40 with f = 13 parties silenced from the start, 8-byte proposals,
//! through `ShardedHost::run_parallel` on 2 worker shards under
//! `MaxConcurrent(2)`: a closed loop with two sessions outstanding.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use setupfree_aba::MmrAbaFactory;
use setupfree_core::{TrustedCoinFactory, TrustedElectionFactory};
use setupfree_crypto::{Keyring, PartySecrets};
use setupfree_net::{BoxedParty, Envelope, PartyId, RandomScheduler, Scheduler, Sid, StopReason};
use setupfree_runtime::{
    AdmissionPolicy, MaxConcurrent, SessionSetup, ShardedHost, ShardedRunReport,
};
use setupfree_vba::{Predicate, Vba};

use crate::aba_sim::{pki, Fingerprint};
use crate::probe::{self, LayerTotals, Probe, ProbeRef, Sink, Timed, TimedScheduler};
use crate::report::{self, metric, Outcome};
use crate::stats::{mix, percentile, process_cpu_ms, thread_schedstat};
use crate::{crypto_probe, Args, PART_STRIDE};

const N: usize = 40;
const F: usize = 13;
const WORKERS: usize = 2;
const OUTSTANDING: usize = 2;
const PROPOSAL_LEN: usize = 8;
/// First byte of every valid proposal; the predicate checks it.
const MAGIC: u8 = 0x42;
const BUDGET: u64 = 20_000_000;

fn predicate() -> Predicate {
    Arc::new(|v: &[u8]| v.len() == PROPOSAL_LEN && v[0] == MAGIC)
}

fn proposal(seed: u64, party: usize) -> Vec<u8> {
    let mut v = mix(seed, 7000 + party as u64).to_le_bytes();
    v[0] = MAGIC;
    v.to_vec()
}

/// The f parties a decision silences, chosen by its seed.
fn silenced(seed: u64) -> BTreeSet<usize> {
    let mut order: Vec<usize> = (0..N).collect();
    order.sort_by_key(|&p| mix(seed, 9000 + p as u64));
    order.into_iter().take(F).collect()
}

/// Which session indices are real decisions.
enum Plan {
    /// Every session built before `first decision + window` (closed loop).
    Until(Duration),
    /// Exactly these sessions (a replay).
    Only(BTreeSet<usize>),
}

/// What the session factory saw of one session.
struct Build {
    session: usize,
    real: bool,
    start: Instant,
    end: Instant,
    /// The worker's schedstat when the build started.
    sched: (u64, u64),
}

/// The admission policy under test, with each admission's instant noted.
/// `MaxConcurrent` never forces an admission, so the i-th admission is
/// session i.
struct TimedAdmission {
    inner: MaxConcurrent,
    admitted: Arc<Mutex<Vec<Instant>>>,
}

impl AdmissionPolicy for TimedAdmission {
    fn admit(&mut self, active: usize) -> bool {
        let verdict = self.inner.admit(active);
        if verdict {
            self.admitted
                .lock()
                .expect("admission log poisoned")
                .push(Instant::now());
        }
        verdict
    }
    fn on_delivery(&mut self) {
        self.inner.on_delivery();
    }
    fn on_deliveries(&mut self, n: u64) {
        self.inner.on_deliveries(n);
    }
    fn on_session_closed(&mut self) {
        self.inner.on_session_closed();
    }
}

struct HostRun {
    report: ShardedRunReport<Vec<u8>>,
    builds: Vec<Build>,
    probes: Vec<Probe>,
    admitted: Vec<Instant>,
    first_done: Option<Instant>,
}

/// Decision seed of session `index` of part `part`.
fn session_seed(seed: u64, part: u64, index: usize) -> u64 {
    mix(seed, part * PART_STRIDE + index as u64)
}

fn run_host(
    keyring: &Arc<Keyring>,
    secrets: &[Arc<PartySecrets>],
    seed: u64,
    part: u64,
    plan: &Plan,
    sessions: usize,
    traced: bool,
) -> HostRun {
    let sink = Sink {
        closed: Arc::new(Mutex::new(Vec::new())),
        first_done: Arc::new(OnceLock::new()),
    };
    let builds = Mutex::new(Vec::new());
    let admitted = Arc::new(Mutex::new(Vec::new()));
    let factory = |index: usize| -> SessionSetup<Envelope, Vec<u8>> {
        let start = Instant::now();
        let sched = if traced { thread_schedstat() } else { (0, 0) };
        let real = match plan {
            Plan::Until(window) => sink.first_done.get().is_none_or(|t0| start < *t0 + *window),
            Plan::Only(set) => set.contains(&index),
        };
        let setup = if real {
            build_session(
                keyring,
                secrets,
                session_seed(seed, part, index),
                index,
                traced,
                &sink,
            )
        } else {
            // The loop has closed: the host drains the remaining indices
            // as sessions without parties, which close at once.
            SessionSetup::new(Vec::new(), Box::new(RandomScheduler::new(0)), 0)
        };
        let build = Build {
            session: index,
            real,
            start,
            end: Instant::now(),
            sched,
        };
        builds.lock().expect("build log poisoned").push(build);
        setup
    };
    let report = ShardedHost::new(WORKERS, sessions, factory)
        .with_admission(TimedAdmission {
            inner: MaxConcurrent(OUTSTANDING),
            admitted: admitted.clone(),
        })
        .run_parallel();
    let mut probes = std::mem::take(&mut *sink.closed.lock().expect("probe sink poisoned"));
    probes.sort_by_key(|p| p.decision);
    let admitted = std::mem::take(&mut *admitted.lock().expect("admission log poisoned"));
    let mut builds = builds.into_inner().expect("build log poisoned");
    builds.sort_by_key(|b| b.session);
    HostRun {
        report,
        builds,
        probes,
        admitted,
        first_done: sink.first_done.get().copied(),
    }
}

fn build_session(
    keyring: &Arc<Keyring>,
    secrets: &[Arc<PartySecrets>],
    seed: u64,
    index: usize,
    traced: bool,
    sink: &Sink,
) -> SessionSetup<Envelope, Vec<u8>> {
    let probe = ProbeRef::new(index as u64, N - F, Some(sink.clone()));
    let sid = Sid::new(&format!("perfbench-vba-{seed}"));
    let parties: Vec<BoxedParty<Envelope, Vec<u8>>> = (0..N)
        .map(|i| {
            let votes = MmrAbaFactory::new(PartyId(i), N, F, TrustedCoinFactory);
            let vba = Vba::new(
                sid.clone(),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                proposal(seed, i),
                predicate(),
                TrustedElectionFactory::new(N),
                votes,
            );
            Box::new(Timed::new(vba, probe::VBA, traced, probe.share()))
                as BoxedParty<Envelope, Vec<u8>>
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
    let mut setup = SessionSetup::new(parties, scheduler, BUDGET);
    for p in silenced(seed) {
        setup = setup.silence(p);
    }
    setup
}

/// One real session's verdict and counters.
struct Session {
    index: usize,
    fp: Fingerprint,
    verdict: Result<(), String>,
}

fn check(run: &HostRun, seed: u64, part: u64, out: &mut Outcome) -> Vec<Session> {
    for failure in &run.report.failures {
        out.violation(format!("worker failure: {failure}"));
    }
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run.report.assert_conservation()
    }))
    .is_err()
    {
        out.violation("ShardedRunReport::assert_conservation failed".into());
        out.failed += 1;
    }
    let mut sessions = Vec::new();
    for b in run.builds.iter().filter(|b| b.real) {
        let s = b.session;
        let Some(r) = run.report.sessions.iter().find(|r| r.session == s) else {
            sessions.push(Session {
                index: s,
                fp: Fingerprint {
                    deliveries: 0,
                    bytes: 0,
                    msgs: 0,
                    rounds: 0,
                },
                verdict: Err("session lost".into()),
            });
            continue;
        };
        let dseed = session_seed(seed, part, s);
        let silent = silenced(dseed);
        let outputs = &run.report.outputs[s];
        let honest: Vec<&Option<Vec<u8>>> = outputs
            .iter()
            .enumerate()
            .filter(|(p, _)| !silent.contains(p))
            .map(|(_, o)| o)
            .collect();
        let proposals: Vec<Vec<u8>> = (0..N)
            .filter(|p| !silent.contains(p))
            .map(|p| proposal(dseed, p))
            .collect();
        let verdict = if r.reason != StopReason::AllOutputs {
            Err(format!(
                "no termination within {BUDGET} deliveries ({:?})",
                r.reason
            ))
        } else if honest.iter().any(|o| o.is_none()) || honest.windows(2).any(|w| w[0] != w[1]) {
            Err("agreement violated".into())
        } else if !honest[0]
            .as_ref()
            .is_some_and(|v| predicate()(v) && proposals.contains(v))
        {
            Err("validity violated: output is no honest proposal passing the predicate".into())
        } else if !r.metrics.conserved() {
            Err(format!("conservation violated: {:?}", r.metrics))
        } else {
            Ok(())
        };
        let fp = Fingerprint {
            deliveries: r.deliveries,
            bytes: r.metrics.honest_bytes,
            msgs: r.metrics.honest_messages,
            rounds: r.metrics.rounds.unwrap_or(0),
        };
        sessions.push(Session {
            index: s,
            fp,
            verdict,
        });
    }
    sessions
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (keyring, secrets) = pki(N, args.seed);
    let window = match (args.setup_only, args.trace) {
        (true, _) => 0.0,
        (false, true) => args.seconds / 2.0,
        (false, false) => args.seconds,
    };
    // Generous upper bound on sessions; the loop closes on time, and the
    // rest drain as empty sessions.
    let sessions = (window * 60.0) as usize + 16;
    let cpu_start = {
        let (user, sys) = process_cpu_ms();
        user + sys
    };
    let run = run_host(
        &keyring,
        &secrets,
        args.seed,
        args.part,
        &Plan::Until(Duration::from_secs_f64(window)),
        sessions,
        false,
    );
    let rss = crate::stats::peak_rss_mib();
    let checked = check(&run, args.seed, args.part, &mut out);

    let probe_of = |s: usize| run.probes.iter().find(|p| p.decision == s as u64);
    let Some(t0) = run.first_done else {
        out.violation("decision 0 never completed".into());
        out.attempted = checked.len() as u64;
        out.failed = out.failed.max(1);
        return out;
    };
    let setup_s = (t0 - args.started).as_secs_f64();
    if args.setup_only {
        out.attempted = 1;
        out.push("setup_s", Some(setup_s), "s");
        return out;
    }
    out.info.push(format!(
        "n={N} f={F} silenced per decision (seeded), trusted election and vote coins, \
         {PROPOSAL_LEN}-byte proposals, ShardedHost::run_parallel on {WORKERS} shards under \
         MaxConcurrent({OUTSTANDING})"
    ));

    let mut latencies = Vec::new();
    let mut rounds = Vec::new();
    let (mut bytes, mut msgs) = (Vec::new(), Vec::new());
    let (mut timed, mut in_window) = (0u64, 0u64);
    let mut t_last = t0;
    let mut cpu_last = None;
    for s in &checked {
        out.attempted += 1;
        if let Err(e) = &s.verdict {
            out.failed += 1;
            out.violation(format!("session {}: {e}", s.index));
        }
        if s.index == 0 {
            continue;
        }
        timed += 1;
        bytes.push(s.fp.bytes as f64);
        msgs.push(s.fp.msgs as f64);
        let probe = probe_of(s.index);
        match (&s.verdict, probe.and_then(Probe::latency_ms)) {
            (Ok(()), Some(ms)) => {
                latencies.push(ms);
                rounds.push(s.fp.rounds as f64);
            }
            _ => latencies.push(f64::INFINITY),
        }
        if let Some(done) = probe.and_then(|p| p.done) {
            if done > t0 {
                in_window += 1;
            }
            if done > t_last {
                t_last = done;
                cpu_last = probe.and_then(|p| p.done_cpu_ms);
            }
        }
    }
    let cpu_t0 = probe_of(0).and_then(|p| p.done_cpu_ms).unwrap_or(cpu_start);
    let p50 = percentile(&latencies, 0.5);
    out.info.push(format!(
        "timed decisions: {timed} (p90 needs >= 100: {})",
        if timed >= 100 { "valid" } else { "too few" }
    ));

    // Replay: the traced pass replays every real session, the untraced
    // pass the first timed one; the counters must repeat exactly.
    let real: BTreeSet<usize> = checked.iter().map(|s| s.index).filter(|&s| s > 0).collect();
    let replay: BTreeSet<usize> = if args.trace {
        real.clone()
    } else {
        real.iter().copied().take(1).collect()
    };
    if let Some(&last) = replay.iter().next_back() {
        let again = run_host(
            &keyring,
            &secrets,
            args.seed,
            args.part,
            &Plan::Only(replay.clone()),
            last + 1,
            args.trace,
        );
        let mut replayed = Outcome::default();
        for s in check(&again, args.seed, args.part, &mut replayed) {
            let before = checked
                .iter()
                .find(|b| b.index == s.index)
                .expect("replayed session was real");
            if s.fp != before.fp {
                out.nondeterministic(format!(
                    "session {}: {:?} then {:?}",
                    s.index, before.fp, s.fp
                ));
            }
        }
        if args.trace {
            per_layer(args, &again, &keyring, &secrets, p50, &mut out);
            return out;
        }
    }

    let cpu = cpu_last.map_or(0.0, |c| c - cpu_t0);
    let elapsed = (t_last - t0).as_secs_f64();
    out.push("decide_ms_p50", p50, "ms");
    out.push("decide_ms_p90", percentile(&latencies, 0.9), "ms");
    out.push("decisions_per_s", Some(in_window as f64 / elapsed), "1/s");
    out.push(
        "cpu_ms_per_decision",
        Some(cpu / in_window.max(1) as f64),
        "ms",
    );
    out.push("bytes_per_decision", percentile(&bytes, 0.5), "B");
    out.push("msgs_per_decision", percentile(&msgs, 0.5), "count");
    out.push("rounds_p50", percentile(&rounds, 0.5), "count");
    out.push("setup_s", Some(setup_s), "s");
    out.push("peak_rss_mib", Some(rss), "MiB");
    out.samples = vec![
        ("latencies_ms", latencies),
        ("rounds", rounds),
        ("window_decisions", vec![in_window as f64]),
        ("window_s", vec![elapsed]),
        ("window_cpu_ms", vec![cpu]),
        ("bytes", bytes),
        ("msgs", msgs),
    ];
    out
}

fn per_layer(
    args: &Args,
    run: &HostRun,
    keyring: &Keyring,
    secrets: &[Arc<PartySecrets>],
    untraced_p50: Option<f64>,
    out: &mut Outcome,
) {
    let origin = run.builds.first().map_or_else(Instant::now, |b| b.start);
    let mut layers = LayerTotals::default();
    let mut latencies = Vec::new();
    for p in &run.probes {
        let deliveries = run
            .report
            .sessions
            .iter()
            .find(|r| r.session as u64 == p.decision)
            .map_or(0, |r| r.deliveries);
        layers.add(p, deliveries, origin);
        latencies.extend(p.latency_ms());
    }
    out.info.push(layers.sum_line());
    out.info
        .extend(layers.write_spans(args.spans_out.as_deref(), "vba-sharded"));

    // Runtime: build and dispatch times per real session; worker busy
    // fraction and shard imbalance from the workers' on-CPU time between
    // their first build and their last session close.
    let real: Vec<&Build> = run.builds.iter().filter(|b| b.real).collect();
    let build_ms: Vec<f64> = real
        .iter()
        .map(|b| crate::stats::ms(b.end - b.start))
        .collect();
    let waits: Vec<f64> = real
        .iter()
        .filter_map(|b| {
            run.admitted
                .get(b.session)
                .map(|a| crate::stats::ms(b.start.saturating_duration_since(*a)))
        })
        .collect();
    let mut busy = Vec::new();
    for shard in 0..WORKERS {
        let first = real.iter().find(|b| b.session % WORKERS == shard);
        let last = run
            .probes
            .iter()
            .filter(|p| p.decision as usize % WORKERS == shard)
            .filter_map(|p| p.closed)
            .max_by_key(|(t, _)| *t);
        if let (Some(first), Some((t_end, (cpu_end, _)))) = (first, last) {
            let wall = (t_end - first.start).as_nanos() as f64;
            busy.push(((cpu_end - first.sched.0) as f64, wall));
        }
    }
    let cpu_total: f64 = busy.iter().map(|b| b.0).sum();
    let wall_total: f64 = busy.iter().map(|b| b.1).sum();
    let max_cpu = busy.iter().map(|b| b.0).fold(0.0, f64::max);
    let mean_cpu = cpu_total / busy.len().max(1) as f64;

    let mut m = Vec::new();
    layers.sim_metrics(&mut m);
    layers.crate_metrics(layers.wall_ns as f64, &mut m);
    m.push(metric("app.beacon.live_elections_max", None, "count"));
    crypto_probe::measure(keyring, secrets, &mut m);
    m.push(metric(
        "runtime.worker_busy_frac",
        (wall_total > 0.0).then(|| cpu_total / wall_total),
        "ratio",
    ));
    m.push(metric(
        "runtime.dispatch_wait_ms_p50",
        percentile(&waits, 0.5),
        "ms",
    ));
    m.push(metric(
        "runtime.session_build_ms",
        (!build_ms.is_empty()).then(|| build_ms.iter().sum::<f64>() / build_ms.len() as f64),
        "ms",
    ));
    m.push(metric(
        "runtime.shard_imbalance",
        (mean_cpu > 0.0).then(|| max_cpu / mean_cpu),
        "ratio",
    ));
    report::absent(report::TRANSPORT, &mut m);
    m.push(report::trace_overhead(
        percentile(&latencies, 0.5),
        untraced_p50,
    ));
    out.metrics = m;
}
