//! The worker-partitioned session host.
//!
//! [`ShardedHost`] runs `k` top-level protocol sessions partitioned across
//! `W` worker shards by session index (shard `= session mod W`).  Each
//! session owns its complete execution state: party machines, adversarial
//! scheduler, in-flight slab, delivery budget and [`SessionMetrics`].  That
//! buys three things:
//!
//! * **isolation** — a session that exhausts its budget is reported as
//!   [`StopReason::BudgetExhausted`] *for that session* while the rest run
//!   to completion, and per-session metrics make cross-session interference
//!   measurable instead of folded into one aggregate;
//! * **scalability** — scheduler pools stay session-sized (one pool shared
//!   by all sessions would grow with `k`, and its per-pick cost with `log`
//!   of that),
//!   and the shards can run on real OS threads ([`ShardedHost::run_parallel`]);
//! * **admission** — sessions are *opened* by an
//!   [`AdmissionPolicy`] instead of
//!   pre-spawned, so pipelined workloads (beacon epochs, view streams)
//!   become admitted sessions under a concurrency/rate policy.
//!
//! # Determinism contract
//!
//! [`ShardedHost::run`] merges the shards on one thread by a round-robin
//! shard step (shard 0, 1, …, W−1, repeat; within a shard, round-robin over
//! its live sessions), and every session's scheduler is seeded by the
//! caller per session.  Because top-level sessions exchange no cross-shard
//! traffic today, a session's delivery sequence is a pure function of its
//! own setup — so per-session results (deliveries, rounds, bytes, outputs)
//! are **identical for every `W`**, and identical to
//! [`ShardedHost::run_parallel`]'s.  The golden tests pin exactly this.
//! Host-level *telemetry* (e.g. [`ShardedRunReport::peak_live_sessions`])
//! depends on the merge interleaving and is excluded from the contract.
//! `run_parallel` is the opt-in mode: today it happens to preserve
//! per-session determinism because sessions are isolated; once cross-shard
//! traffic exists (shared seeding), only `run` will keep the guarantee.

use std::collections::VecDeque;
use std::fmt;

use setupfree_net::{BoxedParty, PartyId, Scheduler, Simulation, StopReason};
use setupfree_obs::{EventKind, TraceEvent, VecSink, NO_PARTY};

use crate::admission::{AdmissionPolicy, Unlimited};
use crate::queue::ShardQueue;

/// What closing a session yields: its report, its outputs, and its trace
/// stream (empty unless tracing is on).
type ClosedSession<O> = (SessionReport, Vec<Option<O>>, Vec<TraceEvent>);

/// Everything needed to open one session: the per-party state machines, the
/// session's own adversarial scheduler (seed it per session — that is what
/// makes per-session execution independent of the shard count), its
/// delivery budget, and the fault plan.
pub struct SessionSetup<M, O>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug,
{
    /// Party `i`'s state machine for this session.
    pub parties: Vec<BoxedParty<M, O>>,
    /// The session's delivery scheduler.
    pub scheduler: Box<dyn Scheduler>,
    /// The session's delivery budget; exhausting it closes *this* session
    /// with [`StopReason::BudgetExhausted`] and touches no other.
    pub budget: u64,
    /// Parties marked Byzantine (their traffic is not charged as honest).
    pub byzantine: Vec<usize>,
    /// Parties crashed before the session starts.
    pub crashed_at_start: Vec<usize>,
    /// Parties wrapped by [`SessionSetup::crash_after`]: honest, but not
    /// awaited for termination (they will go silent mid-run).
    pub crash_faulty: Vec<usize>,
}

impl<M, O> SessionSetup<M, O>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug + 'static,
{
    /// An all-honest session with the given parties, scheduler and budget.
    pub fn new(parties: Vec<BoxedParty<M, O>>, scheduler: Box<dyn Scheduler>, budget: u64) -> Self {
        SessionSetup {
            parties,
            scheduler,
            budget,
            byzantine: Vec::new(),
            crashed_at_start: Vec::new(),
            crash_faulty: Vec::new(),
        }
    }

    /// Wraps party `i` so it crashes (goes permanently silent) after
    /// `activations` deliveries — the testkit's mid-run crash fault, per
    /// session.  The party stays honest (pre-crash traffic is charged to the
    /// honest complexity, a pre-crash output joins the agreement
    /// quantifier); it is just no longer awaited for termination.
    pub fn crash_after(mut self, i: usize, activations: usize) -> Self {
        let machine =
            std::mem::replace(&mut self.parties[i], Box::new(setupfree_net::SilentParty::new()));
        self.parties[i] = Box::new(setupfree_net::CrashAfter::new(machine, activations));
        self.crash_faulty.push(i);
        self
    }

    /// Replaces party `i` with a fully silent Byzantine machine.
    pub fn silence(mut self, i: usize) -> Self {
        self.parties[i] = Box::new(setupfree_net::SilentParty::new());
        self.byzantine.push(i);
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
    /// is empty; a failed parallel run reports only the sessions that
    /// closed before (or despite) the failure.
    pub sessions: Vec<SessionReport>,
    /// Every session's per-party outputs, indexed by session then party
    /// (empty for sessions lost to a worker failure).
    pub outputs: Vec<Vec<Option<O>>>,
    /// Maximum number of concurrently live sessions observed (merge-order
    /// dependent telemetry — *not* covered by the determinism contract).
    pub peak_live_sessions: usize,
    /// Worker shards that died mid-run (always empty for the deterministic
    /// [`ShardedHost::run`], which executes sessions on the host thread).
    pub failures: Vec<WorkerFailure>,
    /// Per-session trace streams (indexed by session; all empty unless the
    /// host was built [`ShardedHost::with_tracing`]).  Each stream is the
    /// session's own deterministic event sequence — identical for every
    /// worker count, the trace-level form of the determinism contract.
    pub session_traces: Vec<Vec<TraceEvent>>,
    /// The host's admission-decision trace ([`EventKind::Admission`]): one
    /// event per committed admission (and per first refusal of a delayed
    /// session), stamped with the host-level delivery clock.  Empty unless
    /// tracing is on.  Merge-order-dependent telemetry, like
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
    /// cell-for-cell identical for every worker count and for the parallel
    /// mode.
    pub fn fingerprints(&self) -> Vec<(usize, u64, Option<u64>, u64, u64)> {
        self.sessions
            .iter()
            .map(|r| (r.session, r.deliveries, r.metrics.rounds, r.metrics.sent, r.metrics.honest_bytes))
            .collect()
    }
}

/// Capacity of each worker inbox in parallel mode: deep enough to keep a
/// worker busy while the coordinator does other work, small enough that
/// admission (and its policy) stays in control of how much work is
/// committed ahead.
const INBOX_CAPACITY: usize = 4;

/// One live session inside a shard (deterministic mode).
struct LiveSession<M, O>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug,
{
    session: usize,
    sim: Simulation<M, O>,
    budget: u64,
    deliveries: u64,
    /// `true` when this session records a trace stream.
    traced: bool,
    /// The session's suspended trace sink while another session (or host
    /// code) runs on this thread; taken while the sink is installed.
    trace: Option<Box<dyn setupfree_obs::TraceSink>>,
}

/// Re-installs a suspended session trace sink on the current thread (no-op
/// for untraced sessions).
fn resume_trace<M, O>(slot: &mut LiveSession<M, O>)
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug,
{
    if let Some(sink) = slot.trace.take() {
        setupfree_obs::install(sink);
    }
}

/// Uninstalls the current thread's sink back into the session slot, so the
/// next session's deliveries cannot leak into this session's stream.
fn suspend_trace<M, O>(slot: &mut LiveSession<M, O>)
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug,
{
    if slot.traced {
        slot.trace = setupfree_obs::uninstall();
    }
}

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

    /// Runs every session to its close on the current thread, merging the
    /// shards deterministically: one round-robin pass over the shards per
    /// step, one delivery from each shard's next live session per pass.
    pub fn run(mut self) -> ShardedRunReport<O> {
        let k = self.sessions;
        let w = self.workers;
        let mut shards: Vec<VecDeque<LiveSession<M, O>>> = (0..w).map(|_| VecDeque::new()).collect();
        let mut reports: Vec<Option<SessionReport>> = (0..k).map(|_| None).collect();
        let mut outputs: Vec<Vec<Option<O>>> = (0..k).map(|_| Vec::new()).collect();
        let mut session_traces: Vec<Vec<TraceEvent>> = (0..k).map(|_| Vec::new()).collect();
        let mut admission_trace: Vec<TraceEvent> = Vec::new();
        let mut next = 0usize;
        let mut active = 0usize;
        let mut peak = 0usize;
        let mut host_clock = 0u64;
        // Dedup refusal events: one per delayed session, not one per pass.
        let mut last_refused: Option<usize> = None;

        loop {
            // Admission: open pending sessions while the policy allows, with
            // the liveness floor of one forced admission on an idle host.
            while next < k {
                let verdict = self.policy.admit(active);
                let forced = !verdict && active == 0;
                if self.tracing && (verdict || forced || last_refused != Some(next)) {
                    admission_trace.push(admission_event(
                        next,
                        verdict,
                        forced,
                        self.policy.token_state(),
                        active,
                        host_clock,
                    ));
                }
                if !(verdict || forced) {
                    last_refused = Some(next);
                    break;
                }
                let session = open_session(&self.factory, next, self.tracing);
                shards[next % w].push_back(session);
                next += 1;
                active += 1;
                peak = peak.max(active);
            }
            if active == 0 {
                debug_assert!(next >= k, "idle host with pending sessions must force-admit");
                break;
            }
            // One deterministic merge pass: each shard steps its next live
            // session once (delivering one message or closing it).
            for shard in shards.iter_mut() {
                let Some(mut slot) = shard.pop_front() else { continue };
                // `step_with_budget` IS `Simulation::run`'s loop body, so a
                // session's close state (reason and delivery count, zero
                // budgets included) is identical to what `sim.run(budget)` —
                // the parallel workers' path — produces.
                resume_trace(&mut slot);
                let closed = slot.sim.step_with_budget(slot.deliveries, slot.budget);
                suspend_trace(&mut slot);
                if closed.is_none() {
                    slot.deliveries += 1;
                    host_clock += 1;
                    self.policy.on_delivery();
                }
                match closed {
                    None => shard.push_back(slot),
                    Some(reason) => {
                        let shard_id = slot.session % w;
                        let (report, outs, trace) = close_session(slot, reason, shard_id);
                        outputs[report.session] = outs;
                        session_traces[report.session] = trace;
                        reports[report.session] = Some(report);
                        active -= 1;
                        self.policy.on_session_closed();
                    }
                }
            }
        }

        ShardedRunReport {
            sessions: reports.into_iter().map(|r| r.expect("every session closed")).collect(),
            outputs,
            peak_live_sessions: peak,
            failures: Vec::new(),
            session_traces,
            admission_trace,
        }
    }

    /// Runs the shards on `W` OS threads — the opt-in parallel mode.
    ///
    /// Admitted session indices flow to the workers over bounded
    /// [`ShardQueue`]s and reports flow back the same way (the seam
    /// cross-shard protocol traffic would use in a shared-seeding future).
    /// Today's sessions are isolated, so per-session results still match
    /// [`ShardedHost::run`] bit-for-bit; the *guarantee*, however, is only
    /// made by the deterministic mode, which is why golden tests pin `run`.
    pub fn run_parallel(self) -> ShardedRunReport<O>
    where
        O: Send,
    {
        let k = self.sessions;
        let w = self.workers;
        let ShardedHost { factory, mut policy, tracing, .. } = self;
        let factory = &factory;
        let inboxes: Vec<ShardQueue<usize>> = (0..w).map(|_| ShardQueue::new(INBOX_CAPACITY)).collect();
        // Outbox capacity k: a worker can always hand its report back
        // without blocking, so the coordinator can never deadlock it.
        let outboxes: Vec<ShardQueue<ClosedSession<O>>> =
            (0..w).map(|_| ShardQueue::new(k)).collect();

        let mut reports: Vec<Option<SessionReport>> = (0..k).map(|_| None).collect();
        let mut outputs: Vec<Vec<Option<O>>> = (0..k).map(|_| Vec::new()).collect();
        let mut session_traces: Vec<Vec<TraceEvent>> = (0..k).map(|_| Vec::new()).collect();
        let mut admission_trace: Vec<TraceEvent> = Vec::new();
        let mut peak = 0usize;
        let mut host_clock = 0u64;

        let mut failures: Vec<WorkerFailure> = Vec::new();

        std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(w);
            for (shard, (inbox, outbox)) in inboxes.iter().zip(&outboxes).enumerate() {
                workers.push(scope.spawn(move || {
                    // The whole session lives and dies on this thread; only
                    // the index in and the report out cross threads.
                    while let Some(index) = inbox.pop() {
                        let mut slot = open_session(factory, index, tracing);
                        resume_trace(&mut slot);
                        let run = slot.sim.run(slot.budget);
                        suspend_trace(&mut slot);
                        slot.deliveries = run.deliveries;
                        let result = close_session(slot, run.reason, shard);
                        if outbox.push(result).is_err() {
                            break;
                        }
                    }
                }));
            }

            // Coordinator (this thread): admission + report collection.  It
            // never blocks on an inbox (try_push only), so worker and
            // coordinator can never wait on each other in a cycle.
            let mut next = 0usize;
            let mut active = 0usize;
            let mut closed = 0usize;
            let mut aborted = false;
            let mut last_refused: Option<usize> = None;
            while closed < k {
                // Room is checked BEFORE the policy is consulted: `admit`
                // commits the admission (a token bucket debits a token), so
                // asking it while the target inbox is full would burn
                // admissions without admitting anything.  The coordinator is
                // each inbox's only producer, so observed room cannot vanish
                // before the push.
                while next < k && inboxes[next % w].has_capacity() {
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
                let mut got = false;
                for outbox in &outboxes {
                    while let Some((report, outs, trace)) = outbox.try_pop() {
                        policy.on_deliveries(report.deliveries);
                        host_clock += report.deliveries;
                        policy.on_session_closed();
                        outputs[report.session] = outs;
                        session_traces[report.session] = trace;
                        reports[report.session] = Some(report);
                        active -= 1;
                        closed += 1;
                        got = true;
                    }
                }
                if aborted {
                    break;
                }
                if !got {
                    // A worker only exits after its inbox closes (below), so
                    // one finishing early has panicked — its sessions will
                    // never report.  Stop admitting and collect what the
                    // healthy shards produced instead of spinning forever (or
                    // panicking the host thread, as this path once did).
                    if workers.iter().any(|h| h.is_finished()) {
                        aborted = true;
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
            // Closing the inboxes releases every healthy worker: each drains
            // its queued indices, runs them to close, and exits.
            for inbox in &inboxes {
                inbox.close();
            }
            // Join explicitly, consuming panic payloads so the scope does not
            // re-panic on drop.  A `Err` here is the worker's own panic; its
            // payload becomes the structured failure message.
            let mut dead: Vec<(usize, String)> = Vec::new();
            for (shard, handle) in workers.into_iter().enumerate() {
                if let Err(payload) = handle.join() {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "worker panicked with a non-string payload".into());
                    dead.push((shard, message));
                }
            }
            // Healthy workers kept reporting while we joined the dead one;
            // drain the outboxes once more so their sessions are not misread
            // as lost.
            for outbox in &outboxes {
                while let Some((report, outs, trace)) = outbox.try_pop() {
                    policy.on_deliveries(report.deliveries);
                    policy.on_session_closed();
                    outputs[report.session] = outs;
                    session_traces[report.session] = trace;
                    reports[report.session] = Some(report);
                }
            }
            for (shard, message) in dead {
                let lost_sessions = (0..k)
                    .filter(|&i| i % w == shard && reports[i].is_none())
                    .collect();
                failures.push(WorkerFailure { shard, message, lost_sessions });
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

/// Opens one session (shared by the deterministic merge and the parallel
/// workers, so the two paths can never diverge in how a session starts):
/// builds the setup, applies the fault plan, and activates every party.
/// Activation happens at admission because the deterministic merge checks
/// outputs/quiescence *before* each delivery — those checks must never
/// observe pre-activation state (an unactivated session has zero in-flight
/// messages and would be misread as quiescent).
fn open_session<M, O, F>(factory: &F, index: usize, traced: bool) -> LiveSession<M, O>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug,
    F: SessionFactory<M, O>,
{
    let setup = factory.build(index);
    let mut sim = Simulation::new(setup.parties, setup.scheduler);
    for &i in &setup.byzantine {
        sim.mark_byzantine(PartyId(i));
    }
    for &i in &setup.crashed_at_start {
        sim.crash(PartyId(i));
    }
    for &i in &setup.crash_faulty {
        // Honest-but-crash-faulty: still in the agreement quantifier and
        // the honest communication metrics, just not awaited.
        sim.mark_crash_faulty(PartyId(i));
    }
    // The sink must be live across activation so the session's stream opens
    // with its activation events (and activation-time sends).
    let mut slot =
        LiveSession { session: index, sim, budget: setup.budget, deliveries: 0, traced, trace: None };
    if traced {
        setupfree_obs::install(Box::new(VecSink::new()));
    }
    slot.sim.activate_all();
    suspend_trace(&mut slot);
    slot
}

/// Finalises one session: refreshes its buffer telemetry, snapshots its
/// metrics and outputs, and frees its state (the runtime-level analogue of
/// router child GC — a completed session retains nothing).
fn close_session<M, O>(
    mut slot: LiveSession<M, O>,
    reason: StopReason,
    shard: usize,
) -> ClosedSession<O>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug,
{
    let trace = slot.trace.take().map(|mut sink| sink.drain()).unwrap_or_default();
    slot.sim.refresh_buffer_telemetry();
    let m = slot.sim.metrics();
    debug_assert_eq!(slot.deliveries, m.delivered_messages, "budget units must be deliveries");
    let metrics = SessionMetrics {
        sent: m.honest_messages + m.byzantine_messages,
        honest_messages: m.honest_messages,
        honest_bytes: m.honest_bytes,
        delivered: m.delivered_messages,
        purged: m.purged_messages,
        in_flight: slot.sim.in_flight() as u64,
        rounds: m.rounds_to_all_outputs(),
    };
    let outputs = slot.sim.outputs();
    (
        SessionReport { session: slot.session, shard, reason, deliveries: slot.deliveries, metrics },
        outputs,
        trace,
    )
}
