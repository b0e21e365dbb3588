//! The deterministic asynchronous-network simulator.
//!
//! The simulator executes one protocol instance per party, charges every
//! outgoing message's exact wire length
//! ([`Encode::encoded_len`](setupfree_wire::Encode::encoded_len)) to the
//! sender, feeds every in-flight message to an adversarial [`Scheduler`]
//! that decides delivery order, and tracks causal depth ("asynchronous
//! rounds", §3).
//!
//! Fault injection: the simulation holds a run's whole fault plan.  A party
//! can be *silenced* ([`Simulation::silence`]: a never-sending machine,
//! marked Byzantine), marked *Byzantine* with a custom adversarial machine
//! ([`Simulation::mark_byzantine`]: its traffic is not charged to the
//! protocol's communication complexity), mounted to *crash after* a number
//! of activations ([`Simulation::crash_after`]: its traffic stays honest,
//! but it is not awaited), or *crashed* now ([`Simulation::crash`]: it stops
//! sending and processing; undelivered traffic to it is purged so it never
//! consumes scheduler picks or delivery budget).  Each of these stops
//! awaiting the party, so [`Metrics`] alone records who is awaited and who
//! has output: a run stops when its count of awaited parties without a
//! recorded output reaches zero.  Debug builds cross-check that count
//! against every awaited party's `output()` before each delivery.
//!
//! # Delivery engine
//!
//! Three properties keep per-delivery cost independent of both the number of
//! in-flight messages and the multicast fan-out:
//!
//! * **Incremental scheduling** — every send is pushed into the scheduler
//!   once ([`Scheduler::on_enqueue`]); each delivery is one
//!   [`Scheduler::select_next`] call (O(1)–O(log P)) instead of
//!   materialising an O(P) snapshot of the pending pool per delivery.
//! * **Messages travel as values** — each in-flight copy carries a clone of
//!   the sent message (`M: Clone`), and is charged its exact wire length
//!   without building the bytes.  For an [`Envelope`](crate::mux::Envelope)
//!   a clone is a reference-count bump, and the length is O(1).
//! * **Decode once per send** — the clones of an `Envelope` share one
//!   [`Payload`](crate::mux::Payload), whose memoized typed decode
//!   ([`Payload::open`](crate::mux::Payload::open)) serves every
//!   recipient's leaf or root-path handler: one decode per multicast (or
//!   per committee fan-out), group element decompression included, instead
//!   of one per recipient.  The memo is a pure function of the payload's
//!   bytes, so a Byzantine sender that sends different (or equal) unicasts
//!   to different recipients cannot poison another recipient's decode.
//!   In debug builds every send is round-tripped through the codec: its
//!   encoding must have the charged length, decode, and re-encode to the
//!   same bytes.

use std::collections::VecDeque;

use setupfree_wire::{from_bytes, to_bytes};

use crate::faults::{CrashAfter, SilentParty};
use crate::metrics::Metrics;
use crate::party::PartyId;
use crate::protocol::{Dest, ProtocolInstance, Step};
use crate::scheduler::{PendingInfo, Scheduler};

/// A trace-path classifier: maps an outgoing message to the instance path of
/// its destination (see [`Simulation::set_trace_path_of`]).  Only consulted
/// while tracing is enabled.
pub type TracePathClassifier<M> = Box<dyn Fn(&M) -> setupfree_obs::ObsPath>;

/// A party implementation erased to its message/output types, so honest and
/// Byzantine implementations can coexist in one simulation.
pub type BoxedParty<M, O> = Box<dyn ProtocolInstance<Message = M, Output = O>>;

struct PartySlot<M, O> {
    machine: BoxedParty<M, O>,
    honest: bool,
    crashed: bool,
    depth: u64,
}

struct Pending<M> {
    from: PartyId,
    to: PartyId,
    /// This copy's message: a clone of the sent value.
    msg: M,
    depth: u64,
    seq: u64,
}

/// Why a simulation run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every awaited party (neither Byzantine, crashed, nor mounted to
    /// crash) produced an output.
    AllOutputs,
    /// No messages remain in flight.
    Quiescent,
    /// The delivery budget was exhausted (likely a liveness bug or an
    /// intentionally starving scheduler).
    BudgetExhausted,
}

/// Outcome summary of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Why the run stopped.
    pub reason: StopReason,
    /// Number of messages delivered.
    pub deliveries: u64,
}

/// A single-protocol simulation over `n` parties.
pub struct Simulation<M, O>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + std::fmt::Debug + 'static,
    O: Clone + std::fmt::Debug,
{
    parties: Vec<PartySlot<M, O>>,
    /// In-flight messages in a free-list slab: only live messages occupy a
    /// slot, so memory is O(max in-flight) even under starvation schedulers
    /// that keep the oldest message undelivered for the whole run.
    slots: Vec<Option<Pending<M>>>,
    /// Free slot ids available for reuse.
    free: Vec<u32>,
    /// seq → slot-id ring: position `i` maps `seq == base + i` to its slab
    /// slot ([`EMPTY`] once delivered or purged).  Direct indexing keeps the
    /// per-delivery cost hash-free; holes cost 4 bytes, and the front sheds
    /// as the oldest messages drain.
    index: VecDeque<u32>,
    /// First seq still tracked by `index`.
    base: u64,
    /// Number of messages in flight.
    in_flight: usize,
    scheduler: Box<dyn Scheduler>,
    metrics: Metrics,
    seq: u64,
    activated: bool,
    /// Optional trace-path classifier: maps an outgoing message to the
    /// destination instance path recorded on its trace `Send` event (e.g.
    /// the envelope path for mux workloads).  Only consulted while tracing
    /// is enabled, so it adds no cost to untraced runs.
    trace_path_of: Option<TracePathClassifier<M>>,
}

/// `index` marker for a seq that is no longer in flight.
const EMPTY: u32 = u32::MAX;

impl<M, O> Simulation<M, O>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + std::fmt::Debug + 'static,
    O: Clone + std::fmt::Debug,
{
    /// Creates a simulation over the given party state machines (index `i`
    /// is party `P_i`) and scheduler.
    pub fn new(parties: Vec<BoxedParty<M, O>>, scheduler: Box<dyn Scheduler>) -> Self {
        let n = parties.len();
        let parties = parties
            .into_iter()
            .map(|machine| PartySlot { machine, honest: true, crashed: false, depth: 0 })
            .collect();
        Simulation {
            parties,
            slots: Vec::new(),
            free: Vec::new(),
            index: VecDeque::new(),
            base: 0,
            in_flight: 0,
            scheduler,
            metrics: Metrics::new(n),
            seq: 0,
            activated: false,
            trace_path_of: None,
        }
    }

    /// Installs a trace-path classifier: while tracing is enabled, every
    /// send's trace event carries the instance path this closure extracts
    /// from the message (for mux workloads, the envelope's own path), making
    /// per-protocol byte attribution possible from the trace stream alone.
    pub fn set_trace_path_of(&mut self, f: impl Fn(&M) -> setupfree_obs::ObsPath + 'static) {
        assert_eq!(self.seq, 0, "install the trace-path classifier before any traffic flows");
        self.trace_path_of = Some(Box::new(f));
    }

    /// Number of parties.
    pub fn n(&self) -> usize {
        self.parties.len()
    }

    /// Marks a party as Byzantine: its messages are not charged to the
    /// honest communication complexity, and it is not awaited.  (Its
    /// behaviour is whatever state machine was installed at construction
    /// time; [`Self::silence`] installs a silent one.)
    pub fn mark_byzantine(&mut self, party: PartyId) {
        self.parties[party.index()].honest = false;
        self.metrics.exclude(party);
    }

    /// `true` unless the party is Byzantine or crashed by [`Self::crash`]:
    /// the honest parties are the ones agreement and validity quantify
    /// over.  A party mounted with [`Self::crash_after`] stays honest, so an
    /// output it gives before crashing must agree.
    pub fn is_honest(&self, party: PartyId) -> bool {
        let slot = &self.parties[party.index()];
        slot.honest && !slot.crashed
    }

    /// Crashes a party: it stops processing and sending from now on, and is
    /// no longer awaited.  Valid before the run and mid-run alike.
    ///
    /// Undelivered messages to the party are purged immediately (and later
    /// sends to it are dropped at send time), so traffic to a crashed party
    /// never consumes a scheduler pick or a delivery-budget unit.  Senders
    /// are still charged for such messages — a sender cannot know its peer
    /// is gone.
    pub fn crash(&mut self, party: PartyId) {
        self.parties[party.index()].crashed = true;
        self.metrics.exclude(party);
        // Sorted so the scheduler sees removals in a deterministic
        // ascending-seq order (slab order is not seq order after free-list
        // reuse).  O(in-flight), but crashes are rare events, not
        // per-delivery work.
        let mut doomed: Vec<u64> = self
            .slots
            .iter()
            .filter_map(|slot| slot.as_ref())
            .filter(|p| p.to == party)
            .map(|p| p.seq)
            .collect();
        doomed.sort_unstable();
        for seq in doomed {
            self.take_pending(seq);
            self.scheduler.on_remove(seq);
            self.metrics.record_purge();
            if setupfree_obs::enabled() {
                setupfree_obs::emit(setupfree_obs::EventKind::Purge { seq: Some(seq) });
            }
        }
    }

    /// Removes the in-flight message with this seq from the slab.
    fn take_pending(&mut self, seq: u64) -> Pending<M> {
        let idx = (seq - self.base) as usize;
        let slot = std::mem::replace(&mut self.index[idx], EMPTY);
        debug_assert_ne!(slot, EMPTY, "message is not in flight");
        let msg = self.slots[slot as usize].take().expect("index points at an empty slot");
        self.free.push(slot);
        self.in_flight -= 1;
        // Shed drained positions so the index tracks the live seq window.
        while self.index.front() == Some(&EMPTY) {
            self.index.pop_front();
            self.base += 1;
        }
        msg
    }

    /// Returns the metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Returns each party's output (by party index).
    pub fn outputs(&self) -> Vec<Option<O>> {
        self.parties.iter().map(|p| p.machine.output()).collect()
    }

    /// Activates every non-crashed party (calls `on_activation` once).
    fn activate_all(&mut self) {
        assert!(!self.activated, "activate_all may only be called once");
        self.activated = true;
        for i in 0..self.parties.len() {
            if self.parties[i].crashed {
                continue;
            }
            if setupfree_obs::enabled() {
                setupfree_obs::begin_activation(i as u16, self.metrics.delivered_messages);
                setupfree_obs::activated();
            }
            let step = self.parties[i].machine.on_activation();
            self.enqueue(PartyId(i), step);
            self.check_output(PartyId(i));
        }
    }

    /// Activates the parties on the first call, then runs until every
    /// awaited party has a recorded output, the network is quiescent, or
    /// `max_deliveries` messages have been delivered.
    pub fn run(&mut self, max_deliveries: u64) -> RunReport {
        if !self.activated {
            self.activate_all();
        }
        let delivered_before = self.metrics.delivered_messages;
        let mut deliveries = 0;
        // Stop order: outputs, then quiescence, then the budget verdict, and
        // only then one delivery — so a zero budget closes a session with
        // zero deliveries.
        let reason = loop {
            if self.all_honest_output() {
                break StopReason::AllOutputs;
            }
            if self.in_flight == 0 {
                break StopReason::Quiescent;
            }
            if deliveries >= max_deliveries {
                break StopReason::BudgetExhausted;
            }
            self.deliver_one();
            deliveries += 1;
        };
        // Budget reconciliation: every budget unit is an actual delivery —
        // messages to crashed parties are purged, never "delivered".
        debug_assert_eq!(deliveries, self.metrics.delivered_messages - delivered_before);
        self.refresh_buffer_telemetry();
        RunReport { reason, deliveries }
    }

    /// Runs until no messages remain in flight (or the budget is exhausted).
    /// Useful for checking quiescent end states and totality properties.
    pub fn run_to_quiescence(&mut self, max_deliveries: u64) -> RunReport {
        if !self.activated {
            self.activate_all();
        }
        let delivered_before = self.metrics.delivered_messages;
        let mut deliveries = 0;
        while self.in_flight > 0 && deliveries < max_deliveries {
            self.deliver_one();
            deliveries += 1;
        }
        let reason =
            if self.in_flight == 0 { StopReason::Quiescent } else { StopReason::BudgetExhausted };
        debug_assert_eq!(deliveries, self.metrics.delivered_messages - delivered_before);
        self.refresh_buffer_telemetry();
        RunReport { reason, deliveries }
    }

    /// Polls every party's
    /// [`PreActivationBuffer`](crate::mux::PreActivationBuffer) counters
    /// ([`ProtocolInstance::pre_activation_stats`]) into [`Metrics`] at the
    /// end of [`Self::run`] / [`Self::run_to_quiescence`].
    fn refresh_buffer_telemetry(&mut self) {
        let stats = self
            .parties
            .iter()
            .map(|p| p.machine.pre_activation_stats())
            .fold(crate::mux::BufferStats::default(), crate::mux::BufferStats::merge);
        self.metrics.pre_activation_buffered = stats.buffered;
        self.metrics.pre_activation_dropped = stats.dropped;
    }

    /// `true` once every awaited party (neither Byzantine, crashed, nor
    /// mounted with [`Self::crash_after`]) has a recorded first output.
    /// O(1): it reads the count of awaited parties without one that
    /// [`Metrics`] keeps.  Debug builds check the count against a poll of
    /// every awaited party's `output()`.
    pub fn all_honest_output(&self) -> bool {
        debug_assert_eq!(
            self.metrics.awaiting(),
            self.parties
                .iter()
                .zip(&self.metrics.excluded)
                .filter(|(p, &excluded)| !excluded && p.machine.output().is_none())
                .count(),
            "the count of awaited parties without a recorded output disagrees with their outputs"
        );
        self.metrics.awaiting() == 0
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    fn enqueue(&mut self, from: PartyId, step: Step<M>) {
        for out in step.outgoing {
            // Trace path extracted only while tracing (ObsPath is Copy).
            let trace_path = if setupfree_obs::enabled() {
                self.trace_path_of.as_ref().map(|f| f(&out.msg)).unwrap_or_default()
            } else {
                setupfree_obs::ObsPath::ROOT
            };
            let len = out.msg.encoded_len();
            if cfg!(debug_assertions) {
                assert_wire_exact(&out.msg, len);
            }
            match out.dest {
                Dest::All => {
                    for to in 0..self.parties.len() {
                        self.push_pending(from, PartyId(to), out.msg.clone(), len, trace_path);
                    }
                }
                Dest::One(to) => self.push_pending(from, to, out.msg, len, trace_path),
            }
        }
    }

    /// Charges and enqueues one copy of a send; copies to crashed
    /// destinations are dropped (the sender is still charged — it cannot
    /// know its peer is gone).
    fn push_pending(
        &mut self,
        from: PartyId,
        to: PartyId,
        msg: M,
        len: usize,
        trace_path: setupfree_obs::ObsPath,
    ) {
        let PartySlot { honest, depth: sender_depth, .. } = self.parties[from.index()];
        self.metrics.record_send(from, len, honest);
        if self.parties[to.index()].crashed {
            self.metrics.record_purge();
            if setupfree_obs::enabled() {
                // Dropped at send time: charged to the sender but never in
                // flight, so the trace carries no seq for it.
                setupfree_obs::emit(setupfree_obs::EventKind::Purge { seq: None });
            }
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        if setupfree_obs::enabled() {
            setupfree_obs::emit(setupfree_obs::EventKind::Send {
                seq,
                from: from.index() as u16,
                to: to.index() as u16,
                bytes: len as u32,
                path: trace_path,
            });
        }
        self.scheduler.on_enqueue(PendingInfo { from, to, len, seq });
        let msg = Pending { from, to, msg, depth: sender_depth + 1, seq };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(msg);
                slot
            }
            None => {
                self.slots.push(Some(msg));
                u32::try_from(self.slots.len() - 1).expect("more than u32::MAX messages in flight")
            }
        };
        self.index.push_back(slot);
        self.in_flight += 1;
    }

    fn deliver_one(&mut self) {
        let seq = self.scheduler.select_next();
        let msg = self.take_pending(seq);
        let to = msg.to;
        debug_assert!(!self.parties[to.index()].crashed, "traffic to crashed parties is purged");
        self.metrics.record_delivery(msg.depth);
        if setupfree_obs::enabled() {
            // Ambient context for everything this delivery triggers: the
            // receiving party, the delivery clock, and the delivered seq as
            // the causal edge of every send/decide it produces.
            setupfree_obs::begin_delivery(to.index() as u16, self.metrics.delivered_messages, seq);
            setupfree_obs::emit(setupfree_obs::EventKind::Deliver {
                seq,
                from: msg.from.index() as u16,
                to: to.index() as u16,
            });
        }
        let slot = &mut self.parties[to.index()];
        slot.depth = slot.depth.max(msg.depth);
        let step = slot.machine.on_message(msg.from, msg.msg);
        self.enqueue(to, step);
        self.check_output(to);
    }

    fn check_output(&mut self, party: PartyId) {
        let slot = &self.parties[party.index()];
        if self.metrics.output_rounds[party.index()].is_none() && slot.machine.output().is_some() {
            self.metrics.record_output(party, slot.depth);
            // The top-level machine's decide marker; its cause is the
            // delivery that produced the output (ambient), anchoring
            // backward critical-path walks.
            setupfree_obs::decided();
        }
    }
}

/// The fault plan's machine-replacing half: it boxes new machines for the
/// party slots, so it needs `'static` outputs.
impl<M, O> Simulation<M, O>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + std::fmt::Debug + 'static,
    O: Clone + std::fmt::Debug + 'static,
{
    /// Replaces a party's machine with one that never sends, and marks it
    /// Byzantine ([`Self::mark_byzantine`]).
    ///
    /// # Panics
    ///
    /// Panics once the simulation has activated.
    pub fn silence(&mut self, party: PartyId) {
        self.assert_not_activated("silence");
        self.parties[party.index()].machine = Box::new(SilentParty::new());
        self.mark_byzantine(party);
    }

    /// Wraps a party's machine so it crashes (goes permanently silent) after
    /// `activations` activations, its own activation counting as one.  The
    /// party is not awaited and is excluded from the round metric, but —
    /// unlike [`Self::mark_byzantine`] — its traffic is still charged to the
    /// honest communication complexity, as the crash-fault model requires.
    /// Once crashed it reports no output, even one it gave before.
    ///
    /// # Panics
    ///
    /// Panics once the simulation has activated.
    pub fn crash_after(&mut self, party: PartyId, activations: usize) {
        self.assert_not_activated("crash_after");
        let slot = &mut self.parties[party.index()];
        let machine = std::mem::replace(&mut slot.machine, Box::new(SilentParty::new()));
        slot.machine = Box::new(CrashAfter::new(machine, activations));
        self.metrics.exclude(party);
    }

    fn assert_not_activated(&self, what: &str) {
        assert!(!self.activated, "{what} must be called before the simulation activates");
    }
}

/// The debug-build codec check every send passes: the message's encoding
/// has the length the simulator charges, decodes, and re-encodes to the same
/// bytes.  Recipients get clones of the sent value, so this round trip is
/// what keeps every protocol test a test of its wire format.
fn assert_wire_exact<M>(msg: &M, len: usize)
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + std::fmt::Debug,
{
    let bytes = to_bytes(msg);
    assert_eq!(bytes.len(), len, "encoded_len disagrees with the encoding of {msg:?}");
    let decoded: M = from_bytes(&bytes)
        .expect("message failed to decode: wire codec and message construction must agree");
    assert_eq!(to_bytes(&decoded), bytes, "re-encoding a decoded {msg:?} changed its bytes");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{FifoScheduler, RandomScheduler};

    /// A toy "echo agreement": every party multicasts a `Hello`, and outputs
    /// after hearing from `n - f` distinct parties.
    #[derive(Debug)]
    struct Echo {
        quorum: usize,
        heard: std::collections::BTreeSet<usize>,
        output: Option<usize>,
    }

    impl Echo {
        fn new(quorum: usize) -> Self {
            Echo { quorum, heard: Default::default(), output: None }
        }
    }

    impl ProtocolInstance for Echo {
        type Message = u64;
        type Output = usize;

        fn on_activation(&mut self) -> Step<u64> {
            Step::multicast(7)
        }

        fn on_message(&mut self, from: PartyId, msg: u64) -> Step<u64> {
            assert_eq!(msg, 7);
            self.heard.insert(from.index());
            if self.heard.len() >= self.quorum && self.output.is_none() {
                self.output = Some(self.heard.len());
            }
            Step::none()
        }

        fn output(&self) -> Option<usize> {
            self.output
        }
    }

    fn echo_parties(n: usize, quorum: usize) -> Vec<BoxedParty<u64, usize>> {
        (0..n).map(|_| Box::new(Echo::new(quorum)) as BoxedParty<u64, usize>).collect()
    }

    #[test]
    fn all_parties_reach_output_under_fifo() {
        let mut sim = Simulation::new(echo_parties(4, 3), Box::new(FifoScheduler::default()));
        let report = sim.run(10_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
        for out in sim.outputs() {
            assert!(out.unwrap() >= 3);
        }
        // 4 parties multicast one 8-byte message to 4 destinations.
        assert_eq!(sim.metrics().honest_messages, 16);
        assert_eq!(sim.metrics().honest_bytes, 16 * 8);
        assert_eq!(sim.metrics().rounds_to_all_outputs(), Some(1));
    }

    #[test]
    fn random_scheduler_still_terminates() {
        for seed in 0..10 {
            let mut sim = Simulation::new(echo_parties(7, 5), Box::new(RandomScheduler::new(seed)));
            let report = sim.run(10_000);
            assert_eq!(report.reason, StopReason::AllOutputs, "seed {seed}");
        }
    }

    #[test]
    fn crashed_parties_are_excluded_from_termination() {
        let mut sim = Simulation::new(echo_parties(4, 3), Box::new(FifoScheduler::default()));
        sim.crash(PartyId(3));
        let report = sim.run(10_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
        assert!(sim.outputs()[3].is_none());
        assert!(sim.outputs()[0].is_some());
    }

    #[test]
    fn quorum_larger_than_live_parties_stalls() {
        let mut sim = Simulation::new(echo_parties(4, 4), Box::new(FifoScheduler::default()));
        sim.crash(PartyId(0));
        let report = sim.run(10_000);
        // Only 3 parties ever speak, so a quorum of 4 is unreachable; the
        // network drains without outputs.
        assert_eq!(report.reason, StopReason::Quiescent);
        assert!(!sim.all_honest_output());
    }

    #[test]
    fn byzantine_traffic_not_charged() {
        let mut sim = Simulation::new(echo_parties(4, 3), Box::new(FifoScheduler::default()));
        sim.mark_byzantine(PartyId(0));
        sim.run(10_000);
        assert_eq!(sim.metrics().honest_messages, 12);
        assert_eq!(sim.metrics().byzantine_messages, 4);
    }

    #[test]
    fn crash_faulty_traffic_still_charged_but_not_awaited() {
        // Party 0 crashes after its activation multicast: it sends 4 honest
        // messages, is never awaited for termination, and must not block the
        // round metric.
        let mut sim = Simulation::new(echo_parties(4, 3), Box::new(FifoScheduler::default()));
        sim.crash_after(PartyId(0), 1);
        let report = sim.run(10_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
        assert_eq!(sim.metrics().honest_messages, 16, "pre-crash traffic is honest traffic");
        assert_eq!(sim.metrics().byzantine_messages, 0);
        assert!(sim.outputs()[0].is_none());
        assert!(sim.metrics().rounds_to_all_outputs().is_some());
    }

    #[test]
    fn a_party_that_outputs_then_crashes_does_not_hold_the_run() {
        // P0 outputs on its third delivery (its fourth activation) and
        // crashes on its fourth delivery, FIFO's 13th; P3 needs all four
        // senders, so the run lasts until the 16th delivery.  The crashed
        // P0 reports no output, yet it is not awaited: the run ends once
        // the other three have output, and P0's early output stays on
        // record.
        let mut parties = echo_parties(4, 3);
        parties[3] = Box::new(Echo::new(4));
        let mut sim = Simulation::new(parties, Box::new(FifoScheduler::default()));
        sim.crash_after(PartyId(0), 5);
        let report = sim.run(10_000);
        assert_eq!(report, RunReport { reason: StopReason::AllOutputs, deliveries: 16 });
        assert_eq!(sim.outputs()[0], None);
        assert!(sim.metrics().output_rounds[0].is_some(), "P0 output before it crashed");
        assert!(sim.outputs()[1..].iter().all(Option::is_some));
        assert_eq!(sim.metrics().rounds_to_all_outputs(), Some(1));
    }

    #[test]
    fn faulting_the_last_awaited_party_mid_run_ends_the_next_run() {
        // P0–P2 output after FIFO's 11th delivery; P3 waits for a fifth
        // sender that does not exist.  Once P3 is crashed or marked
        // Byzantine, nobody is awaited: the next run stops before its first
        // delivery, with traffic still in flight.
        for crash in [true, false] {
            let mut parties = echo_parties(4, 3);
            parties[3] = Box::new(Echo::new(5));
            let mut sim = Simulation::new(parties, Box::new(FifoScheduler::default()));
            assert_eq!(sim.run(11).reason, StopReason::BudgetExhausted);
            assert!(sim.outputs()[..3].iter().all(Option::is_some));
            assert_eq!(sim.outputs()[3], None);
            if crash {
                sim.crash(PartyId(3));
            } else {
                sim.mark_byzantine(PartyId(3));
            }
            assert!(sim.in_flight() > 0);
            let report = sim.run(10_000);
            assert_eq!(report, RunReport { reason: StopReason::AllOutputs, deliveries: 0 });
        }
    }

    #[test]
    #[should_panic(expected = "silence must be called before the simulation activates")]
    fn silence_after_activation_panics() {
        let mut sim = Simulation::new(echo_parties(4, 3), Box::new(FifoScheduler::default()));
        sim.run(0);
        sim.silence(PartyId(1));
    }

    #[test]
    #[should_panic(expected = "crash_after must be called before the simulation activates")]
    fn crash_after_after_activation_panics() {
        let mut sim = Simulation::new(echo_parties(4, 3), Box::new(FifoScheduler::default()));
        sim.run(0);
        sim.crash_after(PartyId(1), 2);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let mut sim = Simulation::new(echo_parties(4, 3), Box::new(FifoScheduler::default()));
        let report = sim.run(1);
        assert_eq!(report.reason, StopReason::BudgetExhausted);
    }

    #[test]
    #[should_panic(expected = "activate_all may only be called once")]
    fn double_activation_panics() {
        let mut sim = Simulation::new(echo_parties(4, 3), Box::new(FifoScheduler::default()));
        sim.activate_all();
        sim.activate_all();
    }

    #[test]
    fn crash_purges_in_flight_traffic_and_budget_reconciles() {
        let mut sim = Simulation::new(echo_parties(4, 3), Box::new(FifoScheduler::default()));
        sim.activate_all();
        assert_eq!(sim.in_flight(), 16);
        // Crashing P3 withdraws the 4 undelivered copies addressed to it.
        sim.crash(PartyId(3));
        assert_eq!(sim.in_flight(), 12);
        assert_eq!(sim.metrics().purged_messages, 4);
        let report = sim.run(10_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
        // Every budget unit was an actual delivery: nothing was burned on
        // the crashed receiver, and the books balance exactly.
        assert_eq!(report.deliveries, sim.metrics().delivered_messages);
        let sent = sim.metrics().honest_messages + sim.metrics().byzantine_messages;
        assert_eq!(
            sent,
            sim.metrics().delivered_messages
                + sim.metrics().purged_messages
                + sim.in_flight() as u64
        );
    }

    #[test]
    fn the_trace_stream_mirrors_the_metrics_ledger_under_stress() {
        use setupfree_obs::analysis::FlowCounts;
        use setupfree_obs::{EventKind, VecSink};

        // A run that exercises every flow class: a budget stop strands
        // traffic in flight, a mid-run crash withdraws copies from flight,
        // and the resumed run drains to completion with send-time drops to
        // the dead receiver.  At each checkpoint the trace's flow counters
        // must equal the metrics ledger column for column — the trace is a
        // second *view* of the run, never a second opinion.
        let mut sim = Simulation::new(echo_parties(4, 3), Box::new(FifoScheduler::default()));
        setupfree_obs::install(Box::new(VecSink::new()));
        let report = sim.run(5);
        assert_eq!(report.reason, StopReason::BudgetExhausted);

        sim.crash(PartyId(3));
        let finish = sim.run(10_000);
        assert_eq!(finish.reason, StopReason::AllOutputs);

        let trace = setupfree_obs::uninstall().map(|mut s| s.drain()).unwrap_or_default();
        let flows = FlowCounts::of(&trace);
        let m = sim.metrics();
        assert_eq!(flows.delivers, m.delivered_messages);
        assert_eq!(flows.delivers, report.deliveries + finish.deliveries);
        assert_eq!(flows.sent_copies(), m.honest_messages + m.byzantine_messages);
        assert_eq!(flows.purged(), m.purged_messages);
        assert_eq!(flows.in_flight(), sim.in_flight() as u64);
        assert!(
            flows.purged_in_flight > 0,
            "the crash withdrew copies from flight and the trace saw it"
        );
        // The conservation law, read off the trace alone.
        assert_eq!(flows.sent_copies(), flows.delivers + flows.purged() + flows.in_flight());
        // Crashed parties emit no further events after their crash point.
        let last_p3 = trace.iter().rposition(|e| e.party == 3 && matches!(e.kind, EventKind::Send { .. }));
        let first_purge = trace.iter().position(|e| matches!(e.kind, EventKind::Purge { seq: Some(_), .. }));
        if let (Some(send), Some(purge)) = (last_p3, first_purge) {
            assert!(send < purge, "P3's sends all precede its crash purges");
        }
    }

    #[test]
    fn sends_to_already_crashed_parties_charge_sender_but_burn_no_budget() {
        let mut sim = Simulation::new(echo_parties(4, 3), Box::new(FifoScheduler::default()));
        sim.crash(PartyId(0));
        let report = sim.run(10_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
        // The three live parties each multicast to all four destinations:
        // senders are charged for the copies to P0 (they cannot know it is
        // gone) but those copies are dropped at send time.
        assert_eq!(sim.metrics().honest_messages, 12);
        assert_eq!(sim.metrics().purged_messages, 3);
        assert_eq!(report.deliveries, sim.metrics().delivered_messages);
    }

    /// A machine that unicasts a per-destination payload to every other
    /// party on activation and outputs exactly what it received from whom.
    #[derive(Debug)]
    struct Gossip {
        me: usize,
        n: usize,
        payloads: Vec<Vec<u8>>,
        received: std::collections::BTreeMap<usize, Vec<u8>>,
    }

    type GossipParty = BoxedParty<Vec<u8>, Vec<(usize, Vec<u8>)>>;

    impl Gossip {
        fn ensemble(n: usize, payload_for: impl Fn(usize, usize) -> Vec<u8>) -> Vec<GossipParty> {
            (0..n)
                .map(|me| {
                    Box::new(Gossip {
                        me,
                        n,
                        payloads: (0..n).map(|to| payload_for(me, to)).collect(),
                        received: Default::default(),
                    }) as GossipParty
                })
                .collect()
        }
    }

    impl ProtocolInstance for Gossip {
        type Message = Vec<u8>;
        type Output = Vec<(usize, Vec<u8>)>;

        fn on_activation(&mut self) -> Step<Vec<u8>> {
            let mut step = Step::none();
            for to in 0..self.n {
                if to != self.me {
                    step.push_send(PartyId(to), self.payloads[to].clone());
                }
            }
            step
        }

        fn on_message(&mut self, from: PartyId, msg: Vec<u8>) -> Step<Vec<u8>> {
            self.received.insert(from.index(), msg);
            Step::none()
        }

        fn output(&self) -> Option<Vec<(usize, Vec<u8>)>> {
            (self.received.len() == self.n - 1)
                .then(|| self.received.iter().map(|(&k, v)| (k, v.clone())).collect())
        }
    }

    #[test]
    fn byzantine_equivocating_unicasts_cannot_poison_other_recipients() {
        // P0 equivocates: it sends a *different* payload to every peer
        // (while P2/P3 get byte-identical ones, to stress aliasing).  Each
        // recipient must get its own send's value — a decode shared across
        // sends, or keyed by byte equality, could hand P2 the message meant
        // for P1.  Each copy carries its own send's value, so that cannot
        // happen.
        let n = 4;
        let payload_for = |me: usize, to: usize| -> Vec<u8> {
            if me == 0 {
                if to >= 2 { vec![9, 9] } else { vec![to as u8] }
            } else {
                vec![me as u8; 3]
            }
        };
        for seed in 0..5 {
            let mut sim =
                Simulation::new(Gossip::ensemble(n, payload_for), Box::new(RandomScheduler::new(seed)));
            sim.mark_byzantine(PartyId(0));
            let report = sim.run(10_000);
            assert_eq!(report.reason, StopReason::AllOutputs, "seed {seed}");
            // The Byzantine sender itself is not awaited and may not have
            // output; every party that did must hold unpoisoned payloads.
            for (to, out) in sim.outputs().into_iter().enumerate() {
                for (from, got) in out.into_iter().flatten() {
                    assert_eq!(got, payload_for(from, to), "P{to} poisoned by P{from}'s copy");
                }
            }
        }
    }

    #[test]
    fn every_unicast_recipient_gets_its_own_payload() {
        let n = 4;
        let payload_for = |me: usize, to: usize| -> Vec<u8> { vec![me as u8, to as u8, 7] };
        let mut sim =
            Simulation::new(Gossip::ensemble(n, payload_for), Box::new(RandomScheduler::new(11)));
        let report = sim.run(10_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
        for (to, out) in sim.outputs().into_iter().enumerate() {
            let got = out.unwrap();
            assert_eq!(got.len(), n - 1);
            for (from, payload) in got {
                assert_eq!(payload, payload_for(from, to));
            }
        }
    }

    /// A machine where one designated sender multicasts a payload and every
    /// recipient records the decoded value.
    #[derive(Debug)]
    struct Broadcast<T: Clone + std::fmt::Debug> {
        is_sender: bool,
        payload: T,
        received: Option<T>,
    }

    impl<T> ProtocolInstance for Broadcast<T>
    where
        T: setupfree_wire::Encode + setupfree_wire::Decode + Clone + std::fmt::Debug + 'static,
    {
        type Message = T;
        type Output = T;

        fn on_activation(&mut self) -> Step<T> {
            if self.is_sender {
                Step::multicast(self.payload.clone())
            } else {
                Step::none()
            }
        }

        fn on_message(&mut self, _from: PartyId, msg: T) -> Step<T> {
            self.received = Some(msg);
            Step::none()
        }

        fn output(&self) -> Option<T> {
            self.received.clone()
        }
    }

    type GossipMsg = (u64, Vec<u8>, Option<String>);

    /// A message whose `encoded_len` override undercounts its encoding by a
    /// byte, so the simulator would charge the wrong length.
    #[derive(Debug, Clone)]
    struct Miscounted(u32);

    impl setupfree_wire::Encode for Miscounted {
        fn encode(&self, w: &mut setupfree_wire::Writer) {
            self.0.encode(w);
        }

        fn encoded_len(&self) -> usize {
            3
        }
    }

    impl setupfree_wire::Decode for Miscounted {
        fn decode(r: &mut setupfree_wire::Reader<'_>) -> Result<Self, setupfree_wire::WireError> {
            u32::decode(r).map(Miscounted)
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "encoded_len disagrees with the encoding of Miscounted(7)")]
    fn a_miscounted_encoded_len_panics_at_the_first_send() {
        use setupfree_wire::Encode;
        assert_eq!(setupfree_wire::to_bytes(&Miscounted(7)).len(), 4);
        assert_eq!(Miscounted(7).encoded_len(), 3);
        let parties: Vec<BoxedParty<Miscounted, Miscounted>> = (0..4)
            .map(|i| {
                Box::new(Broadcast { is_sender: i == 0, payload: Miscounted(7), received: None })
                    as BoxedParty<Miscounted, Miscounted>
            })
            .collect();
        let mut sim = Simulation::new(parties, Box::new(FifoScheduler::default()));
        // P0's activation multicast is the run's first send.
        sim.run(1_000);
    }

    proptest::proptest! {
        #[test]
        fn cached_multicast_decodes_equal_fresh_decodes(
            word in proptest::any::<u64>(),
            blob in proptest::collection::vec(proptest::any::<u8>(), 0..64),
            tag in proptest::option::of(".*"),
            seed in 0u64..8,
        ) {
            use proptest::prelude::*;
            let payload: GossipMsg = (word, blob, tag);
            let n = 5;
            let parties: Vec<BoxedParty<GossipMsg, GossipMsg>> = (0..n)
                .map(|i| {
                    Box::new(Broadcast { is_sender: i == 0, payload: payload.clone(), received: None })
                        as BoxedParty<GossipMsg, GossipMsg>
                })
                .collect();
            let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
            let report = sim.run(1_000);
            prop_assert_eq!(report.reason, StopReason::AllOutputs);
            // Every recipient holds a clone of the sent value, and must hold
            // exactly what a fresh `from_bytes` of the wire encoding yields.
            let fresh: GossipMsg =
                setupfree_wire::from_bytes(&setupfree_wire::to_bytes(&payload)).unwrap();
            for out in sim.outputs().into_iter().flatten() {
                prop_assert_eq!(&out, &fresh);
            }
        }
    }
}
