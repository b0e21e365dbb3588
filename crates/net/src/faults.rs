//! Generic Byzantine / crash fault wrappers.
//!
//! Protocol-specific attacks (equivocating AVSS dealers, silent Seeding
//! leaders, lying WCS participants, …) live next to the protocols they
//! attack; this module provides the behaviour-agnostic faults every protocol
//! is tested against.  The simulator mounts the silent and crash-after
//! faults itself ([`Simulation::silence`](crate::sim::Simulation::silence),
//! [`Simulation::crash_after`](crate::sim::Simulation::crash_after)), so
//! that a mounted fault is always part of the run's fault plan.

use crate::party::PartyId;
use crate::protocol::{ProtocolInstance, Step};

/// A party that never sends anything (a crash fault present from the start,
/// or equivalently a fully silent Byzantine party).
#[derive(Debug, Default)]
pub struct SilentParty<M, O> {
    _marker: std::marker::PhantomData<(M, O)>,
}

impl<M, O> SilentParty<M, O> {
    /// Creates a silent party.
    pub fn new() -> Self {
        SilentParty { _marker: std::marker::PhantomData }
    }
}

impl<M, O> ProtocolInstance for SilentParty<M, O>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + std::fmt::Debug + 'static,
    O: Clone + std::fmt::Debug,
{
    type Message = M;
    type Output = O;

    fn on_activation(&mut self) -> Step<M> {
        Step::none()
    }

    fn on_message(&mut self, _from: PartyId, _msg: M) -> Step<M> {
        Step::none()
    }

    fn output(&self) -> Option<O> {
        None
    }
}

/// Wraps an honest implementation but crashes it (goes permanently silent)
/// after a fixed number of activations — modelling a mid-protocol crash.
/// Mounted only by [`Simulation::crash_after`](crate::sim::Simulation::crash_after),
/// which also stops awaiting the party: its output vanishes at the crash.
#[derive(Debug)]
pub(crate) struct CrashAfter<P> {
    inner: P,
    remaining: usize,
}

impl<P> CrashAfter<P> {
    /// Crashes after `activations` message deliveries (the activation itself
    /// counts as one).
    pub(crate) fn new(inner: P, activations: usize) -> Self {
        CrashAfter { inner, remaining: activations }
    }
}

impl<P: ProtocolInstance> ProtocolInstance for CrashAfter<P> {
    type Message = P::Message;
    type Output = P::Output;

    fn on_activation(&mut self) -> Step<Self::Message> {
        if self.remaining == 0 {
            return Step::none();
        }
        self.remaining -= 1;
        self.inner.on_activation()
    }

    fn on_message(&mut self, from: PartyId, msg: Self::Message) -> Step<Self::Message> {
        if self.remaining == 0 {
            return Step::none();
        }
        self.remaining -= 1;
        self.inner.on_message(from, msg)
    }

    fn output(&self) -> Option<Self::Output> {
        // A crashed party never reports output (it may have produced one
        // internally, but the simulator treats it as gone).
        if self.remaining == 0 {
            None
        } else {
            self.inner.output()
        }
    }

    fn pre_activation_stats(&self) -> crate::mux::BufferStats {
        self.inner.pre_activation_stats()
    }
}

/// Wraps an honest implementation and duplicates every outgoing message —
/// a crude "spamming" Byzantine behaviour that checks protocols are robust
/// to duplicate delivery (all handlers must be idempotent on the
/// "first time" pattern of the paper's pseudocode).
#[derive(Debug)]
pub struct DuplicatingParty<P> {
    inner: P,
}

impl<P> DuplicatingParty<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        DuplicatingParty { inner }
    }
}

impl<P: ProtocolInstance> ProtocolInstance for DuplicatingParty<P> {
    type Message = P::Message;
    type Output = P::Output;

    fn on_activation(&mut self) -> Step<Self::Message> {
        duplicate(self.inner.on_activation())
    }

    fn on_message(&mut self, from: PartyId, msg: Self::Message) -> Step<Self::Message> {
        duplicate(self.inner.on_message(from, msg))
    }

    fn output(&self) -> Option<Self::Output> {
        self.inner.output()
    }

    fn pre_activation_stats(&self) -> crate::mux::BufferStats {
        self.inner.pre_activation_stats()
    }
}

fn duplicate<M: Clone>(step: Step<M>) -> Step<M> {
    let mut out = Step::none();
    for o in step.outgoing {
        out.outgoing.push(o.clone());
        out.outgoing.push(o);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Dest;

    #[derive(Debug)]
    struct Chatty;

    impl ProtocolInstance for Chatty {
        type Message = u8;
        type Output = u8;
        fn on_activation(&mut self) -> Step<u8> {
            Step::multicast(1)
        }
        fn on_message(&mut self, _from: PartyId, m: u8) -> Step<u8> {
            Step::multicast(m + 1)
        }
        fn output(&self) -> Option<u8> {
            Some(9)
        }
    }

    #[test]
    fn silent_party_says_nothing() {
        let mut p: SilentParty<u8, u8> = SilentParty::new();
        assert!(p.on_activation().is_empty());
        assert!(p.on_message(PartyId(0), 1).is_empty());
        assert!(p.output().is_none());
    }

    #[test]
    fn crash_after_limits_activity() {
        let mut p = CrashAfter::new(Chatty, 2);
        assert!(!p.on_activation().is_empty());
        assert!(!p.on_message(PartyId(0), 1).is_empty());
        assert!(p.on_message(PartyId(0), 2).is_empty());
        assert!(p.output().is_none());
    }

    #[test]
    fn duplicating_party_doubles_traffic() {
        let mut p = DuplicatingParty::new(Chatty);
        let step = p.on_activation();
        assert_eq!(step.outgoing.len(), 2);
        assert_eq!(step.outgoing[0].dest, Dest::All);
        assert_eq!(p.output(), Some(9));
    }
}
