//! The protocol state-machine model ("sans-IO").
//!
//! Every protocol in the workspace — RBC, AVSS, WCS, Seeding, Coin, ABA,
//! Election, VBA, the applications and the baselines — is a deterministic
//! state machine implementing [`ProtocolInstance`].  A state machine reacts
//! to its activation and to incoming messages by returning a [`Step`]: the
//! messages it wants sent.  Outputs are exposed through
//! [`ProtocolInstance::output`].
//!
//! This mirrors the computing model of §3: a party "is activated upon
//! receiving an incoming message to carry out some polynomial steps of
//! computations, update its states, possibly generate some outgoing
//! messages, and wait for the next activation".
//!
//! Parent protocols own their sub-protocol instances and exchange one flat
//! message type, [`Envelope`](crate::mux::Envelope), whose path carries the
//! paper's hierarchical instance identifiers `⟨ID, j⟩`: a composite is a
//! `ProtocolInstance<Message = Envelope>` that mounts its children in
//! [`Router`](crate::mux::Router)s, and a typed leaf joins the tree through
//! [`Leaf`](crate::mux::Leaf).

use crate::party::PartyId;

/// Destination of an outgoing message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// Multicast to all `n` parties (including the sender itself; protocols
    /// in the Bracha style count their own messages).
    All,
    /// Point-to-point message to a single party.
    One(PartyId),
}

/// An outgoing message together with its destination.
#[derive(Debug, Clone)]
pub struct Outgoing<M> {
    /// Where the message goes.
    pub dest: Dest,
    /// The message payload.
    pub msg: M,
}

/// The result of one activation of a protocol state machine: the messages to
/// be handed to the network.
///
/// A silently dropped `Step` loses protocol messages — every step must be
/// sent, extended into another step, or explicitly discarded with `let _ =`
/// (only correct when the step is provably empty).
#[derive(Debug, Clone)]
#[must_use = "dropping a Step loses its outgoing protocol messages"]
pub struct Step<M> {
    /// Messages to send, in order.
    pub outgoing: Vec<Outgoing<M>>,
}

impl<M> Default for Step<M> {
    fn default() -> Self {
        Step { outgoing: Vec::new() }
    }
}

impl<M> Step<M> {
    /// A step that sends nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// A step that multicasts a single message to all parties.
    pub fn multicast(msg: M) -> Self {
        Step { outgoing: vec![Outgoing { dest: Dest::All, msg }] }
    }

    /// A step that sends a single message to one party.
    pub fn send(to: PartyId, msg: M) -> Self {
        Step { outgoing: vec![Outgoing { dest: Dest::One(to), msg }] }
    }

    /// Queues an additional multicast.
    pub fn push_multicast(&mut self, msg: M) {
        self.outgoing.push(Outgoing { dest: Dest::All, msg });
    }

    /// Queues an additional point-to-point message.
    pub fn push_send(&mut self, to: PartyId, msg: M) {
        self.outgoing.push(Outgoing { dest: Dest::One(to), msg });
    }

    /// Appends all messages of `other` to this step.
    pub fn extend(&mut self, other: Step<M>) {
        self.outgoing.extend(other.outgoing);
    }

    /// `true` if the step sends nothing.
    pub fn is_empty(&self) -> bool {
        self.outgoing.is_empty()
    }
}

/// A deterministic protocol state machine run by one party.
///
/// Implementations must be deterministic functions of their construction
/// arguments and the sequence of delivered messages — all randomness is
/// injected at construction time (seeded RNGs, key material), which keeps
/// every simulation reproducible.
pub trait ProtocolInstance {
    /// The message type exchanged by this protocol.
    type Message: setupfree_wire::Encode + setupfree_wire::Decode + Clone + std::fmt::Debug + 'static;
    /// The output type produced by this protocol.
    type Output: Clone + std::fmt::Debug;

    /// Called exactly once when the party is activated on this instance.
    fn on_activation(&mut self) -> Step<Self::Message>;

    /// Called for every delivered message.
    fn on_message(&mut self, from: PartyId, msg: Self::Message) -> Step<Self::Message>;

    /// Returns the output, once produced.  Protocols may keep participating
    /// (sending messages that help others terminate) after producing output.
    fn output(&self) -> Option<Self::Output>;

    /// Buffer-pressure telemetry: the aggregate occupancy/drop counters of
    /// every [`PreActivationBuffer`](crate::mux::PreActivationBuffer) this
    /// machine (and its sub-instances, recursively) owns.  Composite
    /// protocols built on [`Router`](crate::mux::Router) override this; the
    /// default covers leaves, which buffer nothing.
    fn pre_activation_stats(&self) -> crate::mux::BufferStats {
        crate::mux::BufferStats::default()
    }
}

/// Blanket implementation so `Box<dyn ProtocolInstance>` / `Box<Concrete>`
/// can be driven like the concrete type.
impl<P: ProtocolInstance + ?Sized> ProtocolInstance for Box<P> {
    type Message = P::Message;
    type Output = P::Output;

    fn on_activation(&mut self) -> Step<Self::Message> {
        (**self).on_activation()
    }

    fn on_message(&mut self, from: PartyId, msg: Self::Message) -> Step<Self::Message> {
        (**self).on_message(from, msg)
    }

    fn output(&self) -> Option<Self::Output> {
        (**self).output()
    }

    fn pre_activation_stats(&self) -> crate::mux::BufferStats {
        (**self).pre_activation_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_builders() {
        let mut s: Step<u32> = Step::none();
        assert!(s.is_empty());
        s.push_multicast(1);
        s.push_send(PartyId(2), 7);
        assert_eq!(s.outgoing.len(), 2);
        assert_eq!(s.outgoing[0].dest, Dest::All);
        assert_eq!(s.outgoing[1].dest, Dest::One(PartyId(2)));
    }

    #[test]
    fn step_extend_concatenates() {
        let mut a: Step<u8> = Step::multicast(1);
        a.extend(Step::send(PartyId(0), 2));
        assert_eq!(a.outgoing.len(), 2);
    }
}
