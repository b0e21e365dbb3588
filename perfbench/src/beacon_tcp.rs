//! `beacon-tcp`: the random beacon (real Election and Coin per epoch, the
//! trusted-coin ABA inside the election, child GC on), n = 7 peers over
//! `TcpPeerGroup` loopback: one long run of consecutive epochs with one
//! epoch outstanding.  A decision is one epoch.
//!
//! Each peer's machine is wrapped in a [`Peer`] probe that notes when the
//! peer enters and records each epoch.  To count asynchronous rounds over
//! sockets it also tags every message with its causal depth through a
//! side table, one FIFO per ordered link: the transport delivers each link
//! in order and exactly once, so the receiver pops the depth its sender
//! pushed for that message.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use setupfree_aba::MmrAbaFactory;
use setupfree_app::beacon::{BeaconEpoch, RandomBeacon};
use setupfree_core::TrustedCoinFactory;
use setupfree_net::{BoxedParty, Dest, Envelope, PartyId, ProtocolInstance, Sid, Step};
use setupfree_transport::{SocketRunReport, TcpPeerGroup};

use crate::aba_sim::pki;
use crate::probe::{self, classify, LayerTotals, Span};
use crate::report::{self, metric, Outcome};
use crate::stats::{ms, percentile, process_cpu_ms, thread_schedstat};
use crate::{crypto_probe, Args};

const N: usize = 7;
/// The beacon's epoch count is fixed at construction; the run stops long
/// before this, when the time window closes.
const EPOCHS: u32 = u16::MAX as u32;
/// An epoch that takes longer than this to reach every peer has failed.
const EPOCH_DEADLINE: Duration = Duration::from_secs(5);
/// Slack on top of the window before the transport gives up on the run.
const RUN_SLACK: Duration = Duration::from_secs(30);
const UNSET: u32 = u32::MAX;

type Beacon = RandomBeacon<MmrAbaFactory<TrustedCoinFactory>>;

/// One epoch as every peer saw it.
#[derive(Clone, Default)]
struct EpochRec {
    /// The first peer entering the epoch, with its causal depth then.
    entered: Option<(Instant, u32)>,
    /// Each peer's record of the epoch: when, at what depth, and what.
    recorded: Vec<Option<(Instant, u32, BeaconEpoch)>>,
    /// Process CPU time when the last peer recorded it.
    all_cpu_ms: Option<f64>,
}

/// A driver thread's totals, handed over when its machine is dropped.
#[derive(Default)]
struct PeerTotals {
    handler_ns: [u64; 9],
    handler_msgs: [u64; 9],
    /// On-CPU and run-queue-wait ns over the machine's life, and that life.
    run_ns: u64,
    wait_ns: u64,
    life_ns: u64,
    live_elections_max: usize,
    depth_misses: u64,
}

struct Shared {
    traced: bool,
    window: Duration,
    /// Epochs every peer must record before deciding (`UNSET` until the
    /// window closes).
    stop_at: AtomicU32,
    /// Epochs recorded so far, per peer.
    current: Vec<AtomicU32>,
    /// Epoch 0 recorded by every peer: the end of set-up.
    first_done: OnceLock<Instant>,
    epochs: Mutex<Vec<EpochRec>>,
    /// Causal depth of every in-flight message, per ordered link.
    links: Vec<Mutex<VecDeque<u32>>>,
    peers: Mutex<Vec<PeerTotals>>,
}

impl Shared {
    fn new(traced: bool, window: Duration) -> Self {
        Shared {
            traced,
            window,
            stop_at: AtomicU32::new(UNSET),
            current: (0..N).map(|_| AtomicU32::new(0)).collect(),
            first_done: OnceLock::new(),
            epochs: Mutex::new(Vec::new()),
            links: (0..N * N).map(|_| Mutex::new(VecDeque::new())).collect(),
            peers: Mutex::new(Vec::new()),
        }
    }

    fn link(&self, from: usize, to: usize) -> std::sync::MutexGuard<'_, VecDeque<u32>> {
        self.links[from * N + to]
            .lock()
            .expect("depth table poisoned")
    }

    fn enter(&self, epoch: usize, at: Instant, depth: u32) {
        let mut epochs = self.epochs.lock().expect("epoch log poisoned");
        let rec = slot(&mut epochs, epoch);
        if rec.entered.is_none_or(|(t, _)| at < t) {
            rec.entered = Some((at, depth));
        }
    }

    fn record(&self, me: usize, epoch: usize, at: Instant, depth: u32, value: BeaconEpoch) {
        self.current[me].store(epoch as u32 + 1, Ordering::SeqCst);
        let all = {
            let mut epochs = self.epochs.lock().expect("epoch log poisoned");
            let rec = slot(&mut epochs, epoch);
            rec.recorded[me] = Some((at, depth, value));
            let all = rec.recorded.iter().all(Option::is_some);
            if all {
                let (user, sys) = process_cpu_ms();
                rec.all_cpu_ms = Some(user + sys);
            }
            all
        };
        if all && epoch == 0 {
            let _ = self.first_done.set(at);
        }
        // The window closes on the first record after its end: every peer
        // must then record the epochs the fastest peer has recorded.
        if let Some(t0) = self.first_done.get() {
            if at >= *t0 + self.window && self.stop_at.load(Ordering::SeqCst) == UNSET {
                let reached = self
                    .current
                    .iter()
                    .map(|c| c.load(Ordering::SeqCst))
                    .max()
                    .unwrap_or(1);
                let _ = self.stop_at.compare_exchange(
                    UNSET,
                    reached,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
            }
        }
    }
}

fn slot(epochs: &mut Vec<EpochRec>, epoch: usize) -> &mut EpochRec {
    if epochs.len() <= epoch {
        epochs.resize(
            epoch + 1,
            EpochRec {
                recorded: vec![None; N],
                ..EpochRec::default()
            },
        );
    }
    &mut epochs[epoch]
}

/// One peer's beacon with its probe around it.
struct Peer {
    inner: Beacon,
    me: usize,
    shared: Arc<Shared>,
    depth: u32,
    seen: usize,
    decided: Cell<bool>,
    born: Instant,
    sched_at_birth: (u64, u64),
    totals: PeerTotals,
}

impl Peer {
    fn new(inner: Beacon, me: usize, shared: Arc<Shared>) -> Self {
        let sched_at_birth = if shared.traced {
            thread_schedstat()
        } else {
            (0, 0)
        };
        Peer {
            inner,
            me,
            shared,
            depth: 0,
            seen: 0,
            decided: Cell::new(false),
            born: Instant::now(),
            sched_at_birth,
            totals: PeerTotals::default(),
        }
    }

    /// Tags the step's messages with their depth, then notes every epoch
    /// the machine recorded during the call.
    fn after(&mut self, step: &Step<Envelope>) {
        let depth = self.depth + 1;
        for out in &step.outgoing {
            match out.dest {
                Dest::All => (0..N).for_each(|to| self.shared.link(self.me, to).push_back(depth)),
                Dest::One(PartyId(to)) => self.shared.link(self.me, to).push_back(depth),
            }
        }
        let results = self.inner.results();
        if self.seen < results.len() {
            let now = Instant::now();
            while self.seen < results.len() {
                let e = self.seen;
                self.shared
                    .record(self.me, e, now, self.depth, results[e].clone());
                self.shared.enter(e + 1, now, self.depth);
                self.seen += 1;
            }
            if self.shared.traced {
                self.totals.live_elections_max = self
                    .totals
                    .live_elections_max
                    .max(self.inner.live_elections());
            }
        }
    }
}

impl ProtocolInstance for Peer {
    type Message = Envelope;
    type Output = Vec<BeaconEpoch>;

    fn on_activation(&mut self) -> Step<Envelope> {
        let start = Instant::now();
        self.shared.enter(0, start, 0);
        let step = self.inner.on_activation();
        if self.shared.traced {
            self.totals.handler_ns[probe::BEACON] += start.elapsed().as_nanos() as u64;
        }
        self.after(&step);
        step
    }

    fn on_message(&mut self, from: PartyId, msg: Envelope) -> Step<Envelope> {
        match self.shared.link(from.index(), self.me).pop_front() {
            Some(d) => self.depth = self.depth.max(d),
            None => self.totals.depth_misses += 1,
        }
        let step = if self.shared.traced {
            let krate = classify(probe::BEACON, &msg.path);
            let start = Instant::now();
            let step = self.inner.on_message(from, msg);
            self.totals.handler_ns[krate] += start.elapsed().as_nanos() as u64;
            self.totals.handler_msgs[krate] += 1;
            step
        } else {
            self.inner.on_message(from, msg)
        };
        self.after(&step);
        step
    }

    fn output(&self) -> Option<Vec<BeaconEpoch>> {
        if self.decided.get() {
            return None;
        }
        let stop = self.shared.stop_at.load(Ordering::SeqCst);
        (stop != UNSET && self.seen as u32 >= stop).then(|| {
            self.decided.set(true);
            self.inner.results().to_vec()
        })
    }
}

impl Drop for Peer {
    fn drop(&mut self) {
        let mut totals = std::mem::take(&mut self.totals);
        if self.shared.traced {
            let (run, wait) = thread_schedstat();
            totals.run_ns = run.saturating_sub(self.sched_at_birth.0);
            totals.wait_ns = wait.saturating_sub(self.sched_at_birth.1);
            totals.life_ns = self.born.elapsed().as_nanos() as u64;
        }
        if let Ok(mut peers) = self.shared.peers.lock() {
            peers.push(totals);
        }
    }
}

struct BeaconRun {
    started: Instant,
    ended: Instant,
    shared: Arc<Shared>,
    report: Option<SocketRunReport<Vec<BeaconEpoch>>>,
    cpu: (f64, f64, f64, f64),
}

/// One mesh: boots the peers, runs epochs until `window` after epoch 0,
/// tears down.  `part` numbers the meshes of one invocation (it enters the
/// session id, so each mesh runs its own epochs).
fn run_group(args: &Args, window: Duration, traced: bool, part: usize) -> BeaconRun {
    let (keyring, secrets) = pki(N, args.seed);
    let shared = Arc::new(Shared::new(traced, window));
    let sid = Sid::new(&format!("perfbench-beacon-{}-{part}", args.seed));
    let (u0, s0) = process_cpu_ms();
    let started = Instant::now();
    let report = TcpPeerGroup::new(N)
        .timeout(window + RUN_SLACK)
        .run(|i| {
            let votes = MmrAbaFactory::new(PartyId(i), N, keyring.f(), TrustedCoinFactory);
            let beacon = RandomBeacon::new(
                sid.clone(),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                votes,
                EPOCHS,
            )
            .with_child_gc();
            Box::new(Peer::new(beacon, i, shared.clone())) as BoxedParty<Envelope, Vec<BeaconEpoch>>
        })
        .ok();
    let (u1, s1) = process_cpu_ms();
    BeaconRun {
        started,
        ended: Instant::now(),
        shared,
        report,
        cpu: (u0, s0, u1, s1),
    }
}

/// The timed epochs' verdicts and the end-to-end figures of one run.
struct Summary {
    latencies: Vec<f64>,
    rounds: Vec<f64>,
    timed: u64,
    t0: Option<Instant>,
    elapsed_s: f64,
    cpu_ms: f64,
}

fn summarize(run: &BeaconRun, out: &mut Outcome) -> Summary {
    let mut s = Summary {
        latencies: Vec::new(),
        rounds: Vec::new(),
        timed: 0,
        t0: None,
        elapsed_s: 0.0,
        cpu_ms: 0.0,
    };
    match &run.report {
        None => out.violation("loopback listeners could not be bound".into()),
        Some(r) => {
            if let Some(f) = &r.failure {
                out.violation(format!("transport: {f}"));
            }
            for from in 0..N {
                for to in (0..N).filter(|&to| to != from) {
                    let (o, i) = (r.link(from, to), r.link(to, from));
                    if i.delivered + o.dropped + o.parked > o.offered {
                        out.violation(format!(
                            "link {from} -> {to} delivered more frames than it was offered"
                        ));
                        out.failed += 1;
                    }
                }
            }
        }
    }
    let misses: u64 = run
        .shared
        .peers
        .lock()
        .expect("peer totals poisoned")
        .iter()
        .map(|p| p.depth_misses)
        .sum();
    if misses > 0 {
        out.violation(format!("{misses} messages arrived without a depth tag"));
        out.failed += 1;
    }
    let epochs = run
        .shared
        .epochs
        .lock()
        .expect("epoch log poisoned")
        .clone();
    let stop = run.shared.stop_at.load(Ordering::SeqCst);
    // Attempted: every epoch the peers had to finish, or, if the run ended
    // before the window closed, every epoch anyone entered.
    let attempted = if stop == UNSET {
        epochs.len()
    } else {
        stop as usize
    };
    let mut first_all: Option<(Instant, f64)> = None;
    let mut last_all: Option<(Instant, f64)> = None;
    for (e, rec) in epochs.iter().enumerate().take(attempted) {
        out.attempted += 1;
        let all: Option<Vec<&(Instant, u32, BeaconEpoch)>> =
            rec.recorded.iter().map(Option::as_ref).collect();
        let verdict = match (&all, rec.entered) {
            (None, _) | (_, None) => Err("not recorded by every peer".to_string()),
            (Some(all), Some((entered, _))) => {
                let last = all.iter().map(|r| r.0).max().expect("n peers");
                if all.windows(2).any(|w| w[0].2 != w[1].2) {
                    Err("peers recorded different epochs".into())
                } else if last - entered > EPOCH_DEADLINE {
                    Err(format!("took longer than {EPOCH_DEADLINE:?}"))
                } else {
                    Ok(last)
                }
            }
        };
        match verdict {
            Ok(last) => {
                let (entered, depth_in) = rec.entered.expect("checked");
                let depth_out = all
                    .as_ref()
                    .expect("checked")
                    .iter()
                    .map(|r| r.1)
                    .max()
                    .unwrap_or(0);
                if e == 0 {
                    first_all = rec.all_cpu_ms.map(|c| (last, c));
                    continue;
                }
                s.latencies.push(ms(last - entered));
                s.rounds.push(f64::from(depth_out.saturating_sub(depth_in)));
                last_all = rec.all_cpu_ms.map(|c| (last, c)).or(last_all);
            }
            Err(why) => {
                out.failed += 1;
                out.violation(format!("epoch {e}: {why}"));
                if e > 0 {
                    s.latencies.push(f64::INFINITY);
                }
            }
        }
        if e > 0 {
            s.timed += 1;
        }
    }
    if let (Some((t0, c0)), Some((t1, c1))) = (first_all, last_all) {
        s.t0 = Some(t0);
        s.elapsed_s = (t1 - t0).as_secs_f64();
        s.cpu_ms = c1 - c0;
    }
    s
}

/// The end-to-end pass runs this many meshes back to back, each for an
/// equal share of the window, and reports the median over them: a burst of
/// interference from outside the process then moves one mesh's figures,
/// not the median.
const MESHES: usize = 3;

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (window, meshes) = match (args.setup_only, args.trace) {
        (true, _) => (0.0, 1),
        (false, true) => (args.seconds / 2.0, 1),
        (false, false) => (args.seconds / MESHES as f64, MESHES),
    };
    let window = Duration::from_secs_f64(window);
    let runs: Vec<BeaconRun> = (0..meshes)
        .map(|part| run_group(args, window, false, part))
        .collect();
    let summaries: Vec<Summary> = runs.iter().map(|r| summarize(r, &mut out)).collect();
    let first = &runs[0];
    let Some(t0) = summaries[0]
        .t0
        .or_else(|| first.shared.first_done.get().copied())
    else {
        out.failed = out.failed.max(1);
        out.violation("epoch 0 never completed".into());
        return out;
    };
    let setup_s = (t0 - args.started).as_secs_f64();
    if args.setup_only {
        out.push("setup_s", Some(setup_s), "s");
        return out;
    }
    out.info.push(format!(
        "n={N} all honest over TcpPeerGroup loopback, real Election and Coin per epoch, trusted-coin \
         ABA inside the election, child GC, one epoch outstanding, no injected delay"
    ));
    let timed: u64 = summaries.iter().map(|s| s.timed).sum();
    let p50s: Vec<f64> = summaries
        .iter()
        .filter_map(|s| percentile(&s.latencies, 0.5))
        .collect();
    let p90s: Vec<f64> = summaries
        .iter()
        .filter_map(|s| percentile(&s.latencies, 0.9))
        .collect();
    let rates: Vec<f64> = summaries
        .iter()
        .filter(|s| s.elapsed_s > 0.0)
        .map(|s| s.timed as f64 / s.elapsed_s)
        .collect();
    let cpus: Vec<f64> = summaries
        .iter()
        .map(|s| s.cpu_ms / s.timed.max(1) as f64)
        .collect();
    for (part, s) in summaries.iter().enumerate() {
        out.info.push(format!(
            "mesh {part}: {} timed epochs (p90 needs >= 100: {}), p50 {:.3} ms, p90 {:.3} ms, {:.3} epochs/s",
            s.timed,
            if s.timed >= 100 { "valid" } else { "too few" },
            percentile(&s.latencies, 0.5).unwrap_or(f64::NAN),
            percentile(&s.latencies, 0.9).unwrap_or(f64::NAN),
            s.timed as f64 / s.elapsed_s,
        ));
    }
    let untraced_p50 = percentile(&p50s, 0.5);

    if args.trace {
        let traced = run_group(args, window, true, 0);
        let mut traced_out = Outcome::default();
        let ts = summarize(&traced, &mut traced_out);
        out.attempted += traced_out.attempted;
        out.failed += traced_out.failed;
        for v in traced_out.violations {
            out.violation(format!("traced pass: {v}"));
        }
        per_layer(args, &traced, &ts, untraced_p50, &mut out);
        return out;
    }

    // Frames and bytes over every epoch all peers recorded, pooled.
    let epochs_run: f64 = runs
        .iter()
        .map(|r| r.shared.stop_at.load(Ordering::SeqCst).clamp(1, UNSET - 1) as f64)
        .sum();
    let reports: Vec<&SocketRunReport<Vec<BeaconEpoch>>> =
        runs.iter().filter_map(|r| r.report.as_ref()).collect();
    let bytes: u64 = reports.iter().map(|r| r.total_sent_bytes()).sum();
    let frames: u64 = reports.iter().map(|r| r.total_sent_envelopes()).sum();
    let rounds: Vec<f64> = summaries
        .iter()
        .flat_map(|s| s.rounds.iter().copied())
        .collect();
    out.info.push(format!(
        "timed epochs: {timed} over {meshes} meshes; medians over meshes"
    ));
    out.push("decide_ms_p50", untraced_p50, "ms");
    out.push("decide_ms_p90", percentile(&p90s, 0.5), "ms");
    out.push("decisions_per_s", percentile(&rates, 0.5), "1/s");
    out.push("cpu_ms_per_decision", percentile(&cpus, 0.5), "ms");
    out.push("bytes_per_decision", Some(bytes as f64 / epochs_run), "B");
    out.push(
        "msgs_per_decision",
        Some(frames as f64 / epochs_run),
        "count",
    );
    out.push("rounds_p50", percentile(&rounds, 0.5), "count");
    out.push("setup_s", Some(setup_s), "s");
    out.push("peak_rss_mib", Some(crate::stats::peak_rss_mib()), "MiB");
    out
}

fn per_layer(
    args: &Args,
    run: &BeaconRun,
    s: &Summary,
    untraced_p50: Option<f64>,
    out: &mut Outcome,
) {
    let peers = run.shared.peers.lock().expect("peer totals poisoned");
    let mut layers = LayerTotals::default();
    for p in peers.iter() {
        for k in 0..probe::CRATES.len() {
            layers.handler_ns[k] += p.handler_ns[k];
            layers.handler_msgs[k] += p.handler_msgs[k];
        }
    }
    let driver_run: u64 = peers.iter().map(|p| p.run_ns).sum();
    let driver_wait: u64 = peers.iter().map(|p| p.wait_ns).sum();
    let driver_life: u64 = peers.iter().map(|p| p.life_ns).sum();
    let handler: u64 = layers.handler_ns.iter().sum();
    let (u0, s0, u1, s1) = run.cpu;
    let process_ms = (u1 - u0) + (s1 - s0);
    let epochs = run
        .shared
        .stop_at
        .load(Ordering::SeqCst)
        .clamp(1, UNSET - 1) as f64;
    out.info.push(format!(
        "driver threads: {:.1} ms on CPU, {:.1} ms waiting to run, {:.1} ms alive; handlers {:.1} ms; \
         process CPU {process_ms:.0} ms over {epochs} epochs",
        driver_run as f64 / 1e6,
        driver_wait as f64 / 1e6,
        driver_life as f64 / 1e6,
        handler as f64 / 1e6
    ));

    // Spans: one per timed epoch, and per crate one covering the run.
    let rel = |t: Instant| t.saturating_duration_since(run.started).as_nanos() as u64;
    let epochs_log = run.shared.epochs.lock().expect("epoch log poisoned");
    for (e, rec) in epochs_log.iter().enumerate().take(epochs as usize).skip(1) {
        let last = rec.recorded.iter().flatten().map(|r| r.0).max();
        if let (Some((entered, _)), Some(last)) = (rec.entered, last) {
            layers.spans.push(Span {
                decision: Some(e as u64),
                name: "decide".into(),
                parent: "",
                start_ns: rel(entered),
                end_ns: rel(last),
                busy_ns: (last - entered).as_nanos() as u64,
                count: N as u64,
            });
        }
    }
    let run_ns = rel(run.ended);
    layers.spans.push(Span {
        decision: None,
        name: "run".into(),
        parent: "",
        start_ns: 0,
        end_ns: run_ns,
        busy_ns: driver_run,
        count: epochs as u64,
    });
    for (k, name) in probe::CRATES
        .iter()
        .enumerate()
        .filter(|(k, _)| layers.handler_msgs[*k] > 0)
    {
        layers.spans.push(Span {
            decision: None,
            name: (*name).into(),
            parent: "run",
            start_ns: 0,
            end_ns: run_ns,
            busy_ns: layers.handler_ns[k],
            count: layers.handler_msgs[k],
        });
    }
    out.info
        .extend(layers.write_spans(args.spans_out.as_deref(), "beacon-tcp"));

    let mut m = Vec::new();
    report::absent(report::SIM, &mut m);
    layers.crate_metrics(driver_run as f64, &mut m);
    m.push(metric(
        "app.beacon.live_elections_max",
        Some(
            peers
                .iter()
                .map(|p| p.live_elections_max)
                .max()
                .unwrap_or(0) as f64,
        ),
        "count",
    ));
    let (keyring, secrets) = pki(N, args.seed);
    crypto_probe::measure(&keyring, &secrets, &mut m);
    report::absent(report::RUNTIME, &mut m);
    let r = run.report.as_ref();
    m.push(metric(
        "transport.sys_cpu_ms_per_decision",
        Some((s1 - s0) / epochs),
        "ms",
    ));
    m.push(metric(
        "transport.user_cpu_ms_per_decision",
        Some((u1 - u0) / epochs),
        "ms",
    ));
    m.push(metric(
        "transport.handler_cpu_share",
        Some(handler as f64 / 1e6 / process_ms.max(1.0)),
        "ratio",
    ));
    m.push(metric(
        "transport.driver_runq_wait_share",
        Some(driver_wait as f64 / driver_life.max(1) as f64),
        "ratio",
    ));
    m.push(metric(
        "transport.inbox_high_water_max",
        r.map(|r| {
            r.peers
                .iter()
                .map(|p| p.inbox_high_water)
                .max()
                .unwrap_or(0) as f64
        }),
        "count",
    ));
    m.push(metric(
        "transport.redials",
        r.map(|r| r.total_redials() as f64),
        "count",
    ));
    m.push(metric(
        "transport.retransmitted",
        r.map(|r| r.total_retransmitted() as f64),
        "count",
    ));
    m.push(report::trace_overhead(
        percentile(&s.latencies, 0.5),
        untraced_p50,
    ));
    out.metrics = m;
}
