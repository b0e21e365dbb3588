//! Bracha reliable broadcast (RBC) [Bracha '87], the broadcast primitive of
//! §4.
//!
//! A designated sender broadcasts a value; the protocol guarantees
//! *agreement* (no two honest parties output different values), *totality*
//! (if one honest party outputs, all do) and *validity* (an honest sender's
//! value is output by everyone), tolerating `f < n/3` Byzantine parties.
//!
//! The paper uses Bracha's broadcast at two levels, and each is written
//! once:
//!
//! * the `Echo` / `Ready` amplification inside one broadcast is
//!   [`setupfree_net::Amplifier`], which [`Rbc`], the AVSS ciphertext
//!   dissemination (Alg 1 lines 20–26) and the Seeding reveal (Alg 7
//!   lines 11–17) share;
//! * the gather of `n` broadcasts, one per party, is [`Gather`]: the
//!   Election gathers the parties' speculative largest VRFs with it (Alg 5
//!   line 2), and [`SetGather`] is the CR93/AJM+21 core-set gather that the
//!   gather-mode Coin and the n²-AVSS baseline coin share.
//!
//! # Example
//!
//! ```
//! use setupfree_net::{FifoScheduler, PartyId, ProtocolInstance, Simulation};
//! use setupfree_rbc::{Rbc, RbcMessage};
//!
//! let n = 4;
//! let f = 1;
//! let sender = PartyId(0);
//! let parties: Vec<_> = (0..n)
//!     .map(|i| {
//!         let input = if i == 0 { Some(b"hello".to_vec()) } else { None };
//!         Box::new(Rbc::new(PartyId(i), n, f, sender, input))
//!             as setupfree_net::BoxedParty<RbcMessage, Vec<u8>>
//!     })
//!     .collect();
//! let mut sim = Simulation::new(parties, Box::new(FifoScheduler::default()));
//! sim.run(100_000);
//! assert!(sim.outputs().iter().all(|o| o.as_deref() == Some(&b"hello"[..])));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gather;

pub use gather::{Gather, SetGather};

use setupfree_net::{Amplifier, PartyId, ProtocolInstance, Step};
use setupfree_wire::codec;

/// Messages exchanged by one RBC instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RbcMessage {
    /// The sender's initial proposal.
    Init(Vec<u8>),
    /// Echo of the proposal.
    Echo(Vec<u8>),
    /// Ready (commit) message for the proposal.
    Ready(Vec<u8>),
}

codec!(enum RbcMessage {
    0 => Init(value),
    1 => Echo(value),
    2 => Ready(value),
});

/// One party's state machine for a single RBC instance.
#[derive(Debug)]
pub struct Rbc {
    me: PartyId,
    n: usize,
    sender: PartyId,
    input: Option<Vec<u8>>,
    /// Whether the sender's `Init` arrived (and was echoed).
    echo_sent: bool,
    amplifier: Amplifier<Vec<u8>>,
    output: Option<Vec<u8>>,
}

impl Rbc {
    /// Creates the RBC state machine for `me`.  `input` must be `Some` for
    /// the designated `sender` and is ignored for everyone else.
    pub fn new(me: PartyId, n: usize, f: usize, sender: PartyId, input: Option<Vec<u8>>) -> Self {
        Rbc {
            me,
            n,
            sender,
            input,
            echo_sent: false,
            amplifier: Amplifier::new(n, f),
            output: None,
        }
    }

    /// The designated sender of this instance.
    pub fn sender(&self) -> PartyId {
        self.sender
    }

    /// Provides the sender's input after construction (used by protocols that
    /// only learn their broadcast value mid-execution, e.g. the Election
    /// protocol broadcasting its speculative largest VRF).  Returns the
    /// `Init` multicast if `self` is the designated sender and no input had
    /// been provided yet; otherwise does nothing.
    pub fn provide_input(&mut self, value: Vec<u8>) -> Step<RbcMessage> {
        if self.me != self.sender || self.input.is_some() {
            return Step::none();
        }
        self.input = Some(value.clone());
        Step::multicast(RbcMessage::Init(value))
    }

    fn handle_ready(&mut self, from: PartyId, value: Vec<u8>) -> Step<RbcMessage> {
        let Some(due) = self.amplifier.ready(from, value) else { return Step::none() };
        if due.deliver {
            self.output = Some(due.value.clone());
        }
        if due.send_ready {
            return Step::multicast(RbcMessage::Ready(due.value.clone()));
        }
        Step::none()
    }
}

impl ProtocolInstance for Rbc {
    type Message = RbcMessage;
    type Output = Vec<u8>;

    fn on_activation(&mut self) -> Step<RbcMessage> {
        if self.me == self.sender {
            if let Some(v) = self.input.clone() {
                return Step::multicast(RbcMessage::Init(v));
            }
        }
        Step::none()
    }

    fn on_message(&mut self, from: PartyId, msg: RbcMessage) -> Step<RbcMessage> {
        if from.index() >= self.n {
            return Step::none();
        }
        match msg {
            RbcMessage::Init(value) => {
                // Only the designated sender's first Init is honoured.
                if from != self.sender || self.echo_sent {
                    return Step::none();
                }
                self.echo_sent = true;
                Step::multicast(RbcMessage::Echo(value))
            }
            RbcMessage::Echo(value) => match self.amplifier.echo(from, value) {
                Some(value) => Step::multicast(RbcMessage::Ready(value.clone())),
                None => Step::none(),
            },
            RbcMessage::Ready(value) => self.handle_ready(from, value),
        }
    }

    fn output(&self) -> Option<Vec<u8>> {
        self.output.clone()
    }
}

/// A Byzantine sender that equivocates: it sends `Init(value_a)` to the first
/// half of the parties and `Init(value_b)` to the rest.  Used by tests to
/// confirm RBC agreement holds regardless.
#[derive(Debug)]
pub struct EquivocatingSender {
    n: usize,
    value_a: Vec<u8>,
    value_b: Vec<u8>,
}

impl EquivocatingSender {
    /// Creates the equivocating sender behaviour.
    pub fn new(n: usize, value_a: Vec<u8>, value_b: Vec<u8>) -> Self {
        EquivocatingSender { n, value_a, value_b }
    }
}

impl ProtocolInstance for EquivocatingSender {
    type Message = RbcMessage;
    type Output = Vec<u8>;

    fn on_activation(&mut self) -> Step<RbcMessage> {
        let mut step = Step::none();
        for i in 0..self.n {
            let v = if i < self.n / 2 { self.value_a.clone() } else { self.value_b.clone() };
            step.push_send(PartyId(i), RbcMessage::Init(v));
        }
        step
    }

    fn on_message(&mut self, _from: PartyId, _msg: RbcMessage) -> Step<RbcMessage> {
        Step::none()
    }

    fn output(&self) -> Option<Vec<u8>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setupfree_net::{BoxedParty, FifoScheduler, RandomScheduler, Simulation, StopReason};

    fn make_parties(n: usize, f: usize, value: &[u8]) -> Vec<BoxedParty<RbcMessage, Vec<u8>>> {
        (0..n)
            .map(|i| {
                let input = if i == 0 { Some(value.to_vec()) } else { None };
                Box::new(Rbc::new(PartyId(i), n, f, PartyId(0), input))
                    as BoxedParty<RbcMessage, Vec<u8>>
            })
            .collect()
    }

    #[test]
    fn honest_sender_all_deliver() {
        for n in [4usize, 7, 10] {
            let f = (n - 1) / 3;
            let mut sim = Simulation::new(make_parties(n, f, b"value"), Box::new(FifoScheduler::default()));
            let report = sim.run(1_000_000);
            assert_eq!(report.reason, StopReason::AllOutputs);
            for out in sim.outputs() {
                assert_eq!(out.unwrap(), b"value".to_vec());
            }
        }
    }

    #[test]
    fn random_schedules_preserve_validity() {
        for seed in 0..20 {
            let mut sim =
                Simulation::new(make_parties(7, 2, b"payload"), Box::new(RandomScheduler::new(seed)));
            sim.run(1_000_000);
            for out in sim.outputs() {
                assert_eq!(out.unwrap(), b"payload".to_vec(), "seed {seed}");
            }
        }
    }

    #[test]
    fn tolerates_f_silent_parties() {
        let n = 7;
        let f = 2;
        let mut sim =
            Simulation::new(make_parties(n, f, b"robust"), Box::new(RandomScheduler::new(3)));
        sim.silence(PartyId(5));
        sim.silence(PartyId(6));
        let report = sim.run(1_000_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
        for (i, out) in sim.outputs().into_iter().enumerate() {
            if i < 5 {
                assert_eq!(out.unwrap(), b"robust".to_vec());
            }
        }
    }

    #[test]
    fn equivocating_sender_cannot_split_honest_outputs() {
        // With n = 4, f = 1 the equivocating sender sends value A to 2 parties
        // and value B to 2 parties; no value can reach an echo quorum of 3
        // honest echoes for two different values, so agreement holds.
        for seed in 0..20 {
            let n = 4;
            let f = 1;
            let mut parties: Vec<BoxedParty<RbcMessage, Vec<u8>>> = vec![Box::new(
                EquivocatingSender::new(n, b"A".to_vec(), b"B".to_vec()),
            )];
            for i in 1..n {
                parties.push(Box::new(Rbc::new(PartyId(i), n, f, PartyId(0), None)));
            }
            let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
            sim.mark_byzantine(PartyId(0));
            sim.run_to_quiescence(1_000_000);
            let outputs: Vec<Vec<u8>> = sim.outputs().into_iter().skip(1).flatten().collect();
            // Agreement: all honest outputs (if any) are identical.
            for w in outputs.windows(2) {
                assert_eq!(w[0], w[1], "seed {seed}");
            }
        }
    }

    #[test]
    fn no_init_means_no_output() {
        let n = 4;
        let f = 1;
        let parties: Vec<BoxedParty<RbcMessage, Vec<u8>>> = (0..n)
            .map(|i| {
                Box::new(Rbc::new(PartyId(i), n, f, PartyId(0), None))
                    as BoxedParty<RbcMessage, Vec<u8>>
            })
            .collect();
        let mut sim = Simulation::new(parties, Box::new(FifoScheduler::default()));
        let report = sim.run(10_000);
        assert_eq!(report.reason, StopReason::Quiescent);
        assert!(sim.outputs().iter().all(Option::is_none));
    }

    #[test]
    fn duplicate_messages_do_not_double_count() {
        let mut rbc = Rbc::new(PartyId(1), 4, 1, PartyId(0), None);
        let _ = rbc.on_activation();
        // Same echo from the same party delivered twice: still only 1 echo,
        // so no Ready yet.
        assert!(rbc.on_message(PartyId(2), RbcMessage::Echo(b"v".to_vec())).is_empty());
        assert!(rbc.on_message(PartyId(2), RbcMessage::Echo(b"v".to_vec())).is_empty());
        assert!(rbc.on_message(PartyId(3), RbcMessage::Echo(b"v".to_vec())).is_empty());
        let step = rbc.on_message(PartyId(0), RbcMessage::Echo(b"v".to_vec()));
        assert_eq!(step.outgoing.len(), 1);
        assert!(matches!(step.outgoing[0].msg, RbcMessage::Ready(_)));
    }

    #[test]
    fn second_init_from_sender_ignored() {
        let mut rbc = Rbc::new(PartyId(1), 4, 1, PartyId(0), None);
        let _ = rbc.on_activation();
        let s1 = rbc.on_message(PartyId(0), RbcMessage::Init(b"a".to_vec()));
        assert_eq!(s1.outgoing.len(), 1);
        let s2 = rbc.on_message(PartyId(0), RbcMessage::Init(b"b".to_vec()));
        assert!(s2.is_empty());
        // Init from a non-sender is ignored entirely.
        let mut rbc2 = Rbc::new(PartyId(1), 4, 1, PartyId(0), None);
        let _ = rbc2.on_activation();
        assert!(rbc2.on_message(PartyId(2), RbcMessage::Init(b"a".to_vec())).is_empty());
    }

    #[test]
    fn message_wire_roundtrip() {
        for msg in [
            RbcMessage::Init(vec![1, 2, 3]),
            RbcMessage::Echo(vec![]),
            RbcMessage::Ready(vec![9; 100]),
        ] {
            let bytes = setupfree_wire::to_bytes(&msg);
            assert_eq!(setupfree_wire::from_bytes::<RbcMessage>(&bytes).unwrap(), msg);
        }
        assert!(setupfree_wire::from_bytes::<RbcMessage>(&[9]).is_err());
    }

    #[test]
    fn communication_scales_quadratically() {
        // Bracha RBC exchanges O(n^2 · |v|) bits; check the measured growth
        // factor between n=4 and n=8 is ≈ 4 (within slack).
        let measure = |n: usize| {
            let f = (n - 1) / 3;
            let mut sim = Simulation::new(make_parties(n, f, &[7u8; 64]), Box::new(FifoScheduler::default()));
            sim.run(1_000_000);
            sim.metrics().honest_bytes as f64
        };
        let b4 = measure(4);
        let b8 = measure(8);
        let ratio = b8 / b4;
        assert!(ratio > 2.5 && ratio < 6.5, "ratio {ratio}");
    }
}
