//! The worker-partitioned session host.
//!
//! [`ShardedHost`] runs `k` top-level protocol sessions partitioned across
//! `W` worker shards by session index (shard `= session mod W`), one OS
//! thread per shard ([`ShardedHost::run_parallel`]).  Each session owns its
//! complete execution state: party machines, adversarial scheduler,
//! in-flight slab, delivery budget and [`SessionMetrics`].  That buys three
//! things:
//!
//! * **isolation** — a session that exhausts its budget is reported as
//!   [`StopReason::BudgetExhausted`] *for that session* while the rest run
//!   to completion, and per-session metrics make cross-session interference
//!   measurable instead of folded into one aggregate;
//! * **scalability** — scheduler pools stay session-sized (one pool shared
//!   by all sessions would grow with `k`, and its per-pick cost with `log`
//!   of that), and the shards run on real OS threads;
//! * **admission** — sessions are *opened* by an
//!   [`AdmissionPolicy`] instead of
//!   pre-spawned, so pipelined workloads (beacon epochs, view streams)
//!   become admitted sessions under a concurrency/rate policy.
//!
//! # Determinism contract
//!
//! Each session runs start to finish on one worker thread, delivered by the
//! scheduler the caller seeded for that session.  Top-level sessions
//! exchange no traffic, so a session's delivery sequence is a pure function
//! of its own setup: per-session results (deliveries, rounds, bytes,
//! outputs, trace streams) are **identical for every `W`** and every thread
//! interleaving.  The golden tests pin exactly this against recorded
//! tables.  Host-level *telemetry* ([`ShardedRunReport::peak_live_sessions`]
//! and the admission trace) depends on when workers report back and is
//! excluded from the contract.

use std::fmt;

use setupfree_net::{BoxedParty, PartyId, Scheduler, Simulation, StopReason};
use setupfree_obs::{EventKind, TraceEvent, VecSink, NO_PARTY};

use crate::admission::{AdmissionPolicy, Unlimited};
use crate::queue::ShardQueue;

/// What running a session yields: its report, its outputs, and its trace
/// stream (empty unless tracing is on).
type ClosedSession<O> = (SessionReport, Vec<Option<O>>, Vec<TraceEvent>);

/// Everything needed to open one session: its [`Simulation`] (the
/// per-party state machines on the session's own adversarial scheduler —
/// seed it per session, which is what makes per-session execution
/// independent of the shard count — with the fault plan applied through
/// [`Simulation::silence`], [`Simulation::crash_after`],
/// [`Simulation::crash`] and [`Simulation::mark_byzantine`]) and its
/// delivery budget.
pub struct SessionSetup<M, O>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug,
{
    /// The session's simulation, fault plan included.
    pub sim: Simulation<M, O>,
    /// The session's delivery budget; exhausting it closes *this* session
    /// with [`StopReason::BudgetExhausted`] and touches no other.
    pub budget: u64,
}

impl<M, O> SessionSetup<M, O>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug + 'static,
{
    /// An all-honest session with the given parties, scheduler and budget.
    pub fn new(parties: Vec<BoxedParty<M, O>>, scheduler: Box<dyn Scheduler>, budget: u64) -> Self {
        SessionSetup { sim: Simulation::new(parties, scheduler), budget }
    }

    /// Silences party `i` ([`Simulation::silence`]).
    pub fn silence(mut self, i: usize) -> Self {
        self.sim.silence(PartyId(i));
        self
    }
}

/// Builds the [`SessionSetup`] of session `index` (0-based, in admission
/// order).  `Sync` because [`ShardedHost::run_parallel`]'s workers build
/// their sessions on their own threads — party machines never cross a
/// thread boundary, only the factory reference does.
pub trait SessionFactory<M, O>: Sync
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug,
{
    /// Creates session `index`'s setup.
    fn build(&self, index: usize) -> SessionSetup<M, O>;
}

impl<M, O, F> SessionFactory<M, O> for F
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug,
    F: Fn(usize) -> SessionSetup<M, O> + Sync,
{
    fn build(&self, index: usize) -> SessionSetup<M, O> {
        self(index)
    }
}

/// The per-session accounting of one closed session — the sharded analogue
/// of the aggregate `Metrics`, plus the conservation law every session obeys
/// individually: `sent == delivered + purged + in_flight`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionMetrics {
    /// Message copies sent (honest and Byzantine senders).
    pub sent: u64,
    /// Messages sent by honest parties only.
    pub honest_messages: u64,
    /// Bytes sent by honest parties (exact wire encoding).
    pub honest_bytes: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages purged (receiver crashed).
    pub purged: u64,
    /// Messages still in flight when the session closed (non-zero only for
    /// budget-exhausted sessions).
    pub in_flight: u64,
    /// Asynchronous rounds until every awaited party output (`None` when the
    /// session closed without full termination).
    pub rounds: Option<u64>,
}

impl SessionMetrics {
    /// `true` when the session's books balance:
    /// `sent == delivered + purged + in_flight`.
    pub fn conserved(&self) -> bool {
        self.sent == self.delivered + self.purged + self.in_flight
    }
}

/// The outcome of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionReport {
    /// Session index (admission order).
    pub session: usize,
    /// The shard that executed it (`session mod workers`).
    pub shard: usize,
    /// Why the session stopped — a [`StopReason::BudgetExhausted`] here is
    /// attributed to exactly this session.
    pub reason: StopReason,
    /// Deliveries the session consumed from its own budget.
    pub deliveries: u64,
    /// The session's metrics.
    pub metrics: SessionMetrics,
}

/// One worker shard that died before finishing its sessions — the
/// structured form of what used to be a host-thread panic.  A poisoned
/// shard now fails the run *loudly* (the failure is in the report, and
/// [`ShardedRunReport::all_terminated`] is false) without aborting the
/// process: the healthy shards' sessions still report normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// The shard whose worker thread died.
    pub shard: usize,
    /// The worker's panic payload (best-effort string form).
    pub message: String,
    /// Sessions assigned to this shard that never reported: the one that
    /// killed the worker, anything still queued in its inbox, and anything
    /// never admitted because the run aborted.
    pub lost_sessions: Vec<usize>,
}

impl fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker shard {} died ({}); sessions {:?} never reported",
            self.shard, self.message, self.lost_sessions
        )
    }
}

/// The outcome of a whole sharded run.
#[derive(Debug, Clone)]
pub struct ShardedRunReport<O> {
    /// One report per *closed* session, indexed by session.  Complete
    /// (`sessions.len() == k`) exactly when [`ShardedRunReport::failures`]
    /// is empty; a failed run reports only the sessions that closed before
    /// (or despite) the failure.
    pub sessions: Vec<SessionReport>,
    /// Every session's per-party outputs, indexed by session then party
    /// (empty for sessions lost to a worker failure).
    pub outputs: Vec<Vec<Option<O>>>,
    /// Maximum number of concurrently live sessions observed (telemetry
    /// that depends on when workers report back — *not* covered by the
    /// determinism contract).
    pub peak_live_sessions: usize,
    /// Worker shards that died mid-run.
    pub failures: Vec<WorkerFailure>,
    /// Per-session trace streams (indexed by session; all empty unless the
    /// host was built [`ShardedHost::with_tracing`]).  Each stream is the
    /// session's own deterministic event sequence — identical for every
    /// worker count, the trace-level form of the determinism contract.
    pub session_traces: Vec<Vec<TraceEvent>>,
    /// The host's admission-decision trace ([`EventKind::Admission`]): one
    /// event per committed admission (and per first refusal of a delayed
    /// session), stamped with the host-level delivery clock (the deliveries
    /// of every session closed so far).  Empty unless tracing is on.
    /// Report-order-dependent telemetry, like
    /// [`ShardedRunReport::peak_live_sessions`].
    pub admission_trace: Vec<TraceEvent>,
}

impl<O> ShardedRunReport<O> {
    /// Sessions that exhausted their delivery budget.
    pub fn exhausted_sessions(&self) -> Vec<usize> {
        self.sessions
            .iter()
            .filter(|r| r.reason == StopReason::BudgetExhausted)
            .map(|r| r.session)
            .collect()
    }

    /// `true` when no worker died and every session terminated with all
    /// awaited outputs.
    pub fn all_terminated(&self) -> bool {
        self.failures.is_empty()
            && self.sessions.iter().all(|r| r.reason == StopReason::AllOutputs)
    }

    /// Component-wise sum of every session's metrics (`rounds` is the
    /// maximum over terminated sessions).
    pub fn aggregate(&self) -> SessionMetrics {
        let mut total = SessionMetrics::default();
        for r in &self.sessions {
            total.sent += r.metrics.sent;
            total.honest_messages += r.metrics.honest_messages;
            total.honest_bytes += r.metrics.honest_bytes;
            total.delivered += r.metrics.delivered;
            total.purged += r.metrics.purged;
            total.in_flight += r.metrics.in_flight;
            total.rounds = match (total.rounds, r.metrics.rounds) {
                (a, None) => a,
                (None, b) => b,
                (Some(a), Some(b)) => Some(a.max(b)),
            };
        }
        total
    }

    /// Panics unless every session's books balance individually and their
    /// sums match the aggregate — the per-session conservation law.
    pub fn assert_conservation(&self) {
        for r in &self.sessions {
            assert!(
                r.metrics.conserved(),
                "session {} books do not balance: {:?}",
                r.session,
                r.metrics
            );
        }
        let agg = self.aggregate();
        assert_eq!(agg.sent, agg.delivered + agg.purged + agg.in_flight);
    }

    /// The per-session fingerprint the determinism golden pins:
    /// `(session, deliveries, rounds, sent, honest_bytes)` must be
    /// cell-for-cell identical for every worker count.
    pub fn fingerprints(&self) -> Vec<(usize, u64, Option<u64>, u64, u64)> {
        self.sessions
            .iter()
            .map(|r| (r.session, r.deliveries, r.metrics.rounds, r.metrics.sent, r.metrics.honest_bytes))
            .collect()
    }
}

/// Capacity of each worker inbox: deep enough to keep a worker busy while
/// the coordinator does other work, small enough that admission (and its
/// policy) stays in control of how much work is committed ahead.
const INBOX_CAPACITY: usize = 4;

/// Runs `k` sessions over `W` worker shards.  See the module docs for the
/// execution and determinism model.
pub struct ShardedHost<M, O, F>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug,
    F: SessionFactory<M, O>,
{
    factory: F,
    sessions: usize,
    workers: usize,
    policy: Box<dyn AdmissionPolicy>,
    tracing: bool,
    _marker: std::marker::PhantomData<fn() -> (M, O)>,
}

impl<M, O, F> ShardedHost<M, O, F>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug,
    F: SessionFactory<M, O>,
{
    /// Creates a host running `sessions` sessions over `workers` shards with
    /// unlimited admission (every session opened immediately).
    pub fn new(workers: usize, sessions: usize, factory: F) -> Self {
        assert!(workers > 0, "at least one worker shard is required");
        assert!(sessions > 0, "a host with zero sessions has nothing to run");
        ShardedHost {
            factory,
            sessions,
            workers,
            policy: Box::new(Unlimited),
            tracing: false,
            _marker: std::marker::PhantomData,
        }
    }

    /// Enables protocol tracing: every session records its own
    /// [`TraceEvent`] stream (surfaced as
    /// [`ShardedRunReport::session_traces`]) and the host records its
    /// admission decisions ([`ShardedRunReport::admission_trace`]).
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Replaces the admission policy (see [`crate::admission`]).
    ///
    /// Liveness floor: when no session is live, one pending session is
    /// opened even against the policy's verdict — an empty host generates no
    /// deliveries, so a delivery-clocked policy could otherwise never refill
    /// and the run would wedge.
    pub fn with_admission(mut self, policy: impl AdmissionPolicy + 'static) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Runs every session to its close on `W` worker threads, one per
    /// shard.
    ///
    /// The calling thread coordinates: it admits session indices under the
    /// policy and hands each to its shard's worker over a bounded
    /// [`ShardQueue`]; the worker runs the session start to finish and sends
    /// the report back on one queue all workers share.  The policy's delivery
    /// clock advances by a session's deliveries when its report arrives.
    pub fn run_parallel(self) -> ShardedRunReport<O>
    where
        O: Send,
    {
        let k = self.sessions;
        let w = self.workers;
        let ShardedHost { factory, mut policy, tracing, .. } = self;
        let factory = &factory;
        let inboxes: Vec<ShardQueue<usize>> = (0..w).map(|_| ShardQueue::new(INBOX_CAPACITY)).collect();
        // One report per session plus one exit notice per worker: a worker
        // never blocks on a push, so the coordinator can never deadlock it.
        let results: ShardQueue<WorkerReport<O>> = ShardQueue::new(k + w);
        let results = &results;

        let mut reports: Vec<Option<SessionReport>> = (0..k).map(|_| None).collect();
        let mut outputs: Vec<Vec<Option<O>>> = (0..k).map(|_| Vec::new()).collect();
        let mut session_traces: Vec<Vec<TraceEvent>> = (0..k).map(|_| Vec::new()).collect();
        let mut admission_trace: Vec<TraceEvent> = Vec::new();
        let mut peak = 0usize;
        let mut host_clock = 0u64;

        let mut failures: Vec<WorkerFailure> = Vec::new();

        std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(w);
            for (shard, inbox) in inboxes.iter().enumerate() {
                workers.push(scope.spawn(move || {
                    // Dropped on return and on a panic's unwind alike, so the
                    // coordinator always learns that this worker is gone.
                    let _exit = ExitNotice(results);
                    // The whole session lives and dies on this thread; only
                    // the index in and the report out cross threads.
                    while let Some(index) = inbox.pop() {
                        let closed = run_session(factory, index, shard, tracing);
                        let _ = results.push(WorkerReport::Closed(closed));
                    }
                }));
            }

            // Coordinator (this thread): admission + report collection.  It
            // never blocks on an inbox (try_push only), so worker and
            // coordinator can never wait on each other in a cycle.
            let mut next = 0usize;
            let mut active = 0usize;
            let mut closed = 0usize;
            let mut exited = 0usize;
            let mut aborted = false;
            let mut inboxes_closed = false;
            let mut last_refused: Option<usize> = None;
            while exited < w {
                // Room is checked BEFORE the policy is consulted: `admit`
                // commits the admission (a token bucket debits a token), so
                // asking it while the target inbox is full would burn
                // admissions without admitting anything.  The coordinator is
                // each inbox's only producer, so observed room cannot vanish
                // before the push.
                while !aborted && next < k && inboxes[next % w].has_capacity() {
                    let verdict = policy.admit(active);
                    let forced = !verdict && active == 0;
                    if tracing && (verdict || forced || last_refused != Some(next)) {
                        admission_trace.push(admission_event(
                            next,
                            verdict,
                            forced,
                            policy.token_state(),
                            active,
                            host_clock,
                        ));
                    }
                    if !(verdict || forced) {
                        last_refused = Some(next);
                        break;
                    }
                    if inboxes[next % w].try_push(next).is_err() {
                        // Unreachable while the single-producer invariant
                        // holds; if it ever breaks, abort the run and report
                        // it as a failure instead of taking the process down.
                        aborted = true;
                        break;
                    }
                    next += 1;
                    active += 1;
                    peak = peak.max(active);
                }
                if (closed == k || aborted) && !inboxes_closed {
                    // Closing the inboxes releases every healthy worker: each
                    // drains its queued indices, reports them, and exits.
                    for inbox in &inboxes {
                        inbox.close();
                    }
                    inboxes_closed = true;
                }
                // Something is always coming: a live session's report, or
                // the exit notice of a worker that is gone or going.
                match results.pop().expect("the report queue is never closed") {
                    WorkerReport::Closed((report, outs, trace)) => {
                        policy.on_deliveries(report.deliveries);
                        host_clock += report.deliveries;
                        policy.on_session_closed();
                        outputs[report.session] = outs;
                        session_traces[report.session] = trace;
                        reports[report.session] = Some(report);
                        active -= 1;
                        closed += 1;
                    }
                    // A worker only exits before its inbox closes by
                    // panicking, and its sessions will never report: stop
                    // admitting and collect what the healthy shards produce.
                    WorkerReport::Exited => {
                        exited += 1;
                        aborted |= !inboxes_closed;
                    }
                }
            }
            // Join explicitly, consuming panic payloads so the scope does not
            // re-panic on drop.  A `Err` here is the worker's own panic; its
            // payload becomes the structured failure message.
            for (shard, handle) in workers.into_iter().enumerate() {
                if let Err(payload) = handle.join() {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "worker panicked with a non-string payload".into());
                    let lost_sessions = (0..k)
                        .filter(|&i| i % w == shard && reports[i].is_none())
                        .collect();
                    failures.push(WorkerFailure { shard, message, lost_sessions });
                }
            }
            if aborted && failures.is_empty() {
                // The abort came from the coordinator side (capacity-invariant
                // breach), not a worker panic; record it against shard `w` so
                // the report still fails loudly.
                let lost_sessions = (0..k).filter(|&i| reports[i].is_none()).collect();
                failures.push(WorkerFailure {
                    shard: w,
                    message: "single-producer inbox lost capacity".into(),
                    lost_sessions,
                });
            }
        });

        ShardedRunReport {
            sessions: reports.into_iter().flatten().collect(),
            outputs,
            peak_live_sessions: peak,
            failures,
            session_traces,
            admission_trace,
        }
    }
}

/// What a worker sends the coordinator: a closed session, or the notice
/// that it has exited.
enum WorkerReport<O> {
    Closed(ClosedSession<O>),
    Exited,
}

/// Sends [`WorkerReport::Exited`] when dropped.
struct ExitNotice<'a, O>(&'a ShardQueue<WorkerReport<O>>);

impl<O> Drop for ExitNotice<'_, O> {
    fn drop(&mut self) {
        let _ = self.0.push(WorkerReport::Exited);
    }
}

/// Builds one host-level admission-decision event (no party context; the
/// clock is the host-level delivery count at decision time).
fn admission_event(
    session: usize,
    admitted: bool,
    forced: bool,
    tokens: Option<u64>,
    live: usize,
    clock: u64,
) -> TraceEvent {
    TraceEvent {
        party: NO_PARTY,
        clock,
        wall_ns: 0,
        cause: None,
        kind: EventKind::Admission {
            session: session as u32,
            admitted,
            forced,
            tokens,
            live: live as u32,
        },
    }
}

/// Runs session `index` start to finish on the calling thread: builds its
/// setup (fault plan included), installs a trace sink if the session is
/// traced, runs the simulation to its close, then drains the sink and
/// reports.  The session's state is freed on return (the runtime-level
/// analogue of router child GC — a completed session retains nothing).
fn run_session<M, O, F>(factory: &F, index: usize, shard: usize, traced: bool) -> ClosedSession<O>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug,
    F: SessionFactory<M, O>,
{
    let SessionSetup { mut sim, budget } = factory.build(index);
    // The sink is live before `run` activates the parties, so the session's
    // stream opens with its activation events (and activation-time sends).
    if traced {
        setupfree_obs::install(Box::new(VecSink::new()));
    }
    let run = sim.run(budget);
    let trace = if traced {
        setupfree_obs::uninstall().map(|mut sink| sink.drain()).unwrap_or_default()
    } else {
        Vec::new()
    };
    let m = sim.metrics();
    let metrics = SessionMetrics {
        sent: m.honest_messages + m.byzantine_messages,
        honest_messages: m.honest_messages,
        honest_bytes: m.honest_bytes,
        delivered: m.delivered_messages,
        purged: m.purged_messages,
        in_flight: sim.in_flight() as u64,
        rounds: m.rounds_to_all_outputs(),
    };
    (
        SessionReport { session: index, shard, reason: run.reason, deliveries: run.deliveries, metrics },
        sim.outputs(),
        trace,
    )
}
