//! The *setup-based* common coin the paper replaces.
//!
//! Practical asynchronous BFT systems implement their common coin with a
//! non-interactive threshold PRF whose key is dealt by a trusted party
//! (Cachin–Kursawe–Shoup, "random oracles in Constantinople").  Given that
//! private setup, flipping a coin costs essentially nothing: everybody can
//! locally evaluate the same pseudorandom bit for a session identifier.
//!
//! [`TrustedCoin`] models exactly that idealised primitive: zero messages,
//! immediate output, perfect agreement and fairness — but it *requires the
//! private setup the paper is eliminating*.  It exists for two purposes:
//!
//! * as a drop-in [`CoinFactory`] so the ABA can be unit-tested and
//!   benchmarked independently of the full Coin construction, and
//! * as the "with private setup" comparison row of the Table 1 reproduction
//!   (what ABA costs once the coin is free).

use setupfree_net::{PartyId, ProtocolInstance, Sid, Step};

use crate::coin::CoinOutput;
use crate::election::ElectionOutput;
use crate::traits::{CoinFactory, ElectionFactory};

/// An idealised, setup-based common coin: all parties output the same
/// pseudorandom bit derived from the session identifier, with no
/// communication.
#[derive(Debug, Clone)]
pub struct TrustedCoin {
    sid: Sid,
    output: Option<CoinOutput>,
}

impl TrustedCoin {
    /// Creates the coin for session `sid`.
    pub fn new(sid: Sid) -> Self {
        TrustedCoin { sid, output: None }
    }
}

impl ProtocolInstance for TrustedCoin {
    type Message = u8;
    type Output = CoinOutput;

    fn on_activation(&mut self) -> Step<u8> {
        let digest = setupfree_crypto::hash::hash_fields("setupfree/trusted-coin", &[self.sid.as_bytes()]);
        self.output = Some(CoinOutput { bit: digest[0] & 1 == 1, max_vrf: None });
        Step::none()
    }

    fn on_message(&mut self, _from: PartyId, _msg: u8) -> Step<u8> {
        Step::none()
    }

    fn output(&self) -> Option<CoinOutput> {
        self.output.clone()
    }
}

/// Factory producing [`TrustedCoin`] instances, adapted into the session
/// router as leaves (the trusted coin exchanges no sub-protocol traffic).
#[derive(Debug, Clone, Default)]
pub struct TrustedCoinFactory;

impl CoinFactory for TrustedCoinFactory {
    type Instance = setupfree_net::Leaf<TrustedCoin>;

    fn create(&self, sid: Sid) -> Self::Instance {
        setupfree_net::Leaf::new(TrustedCoin::new(sid))
    }
}

/// The *setup-based* leader election the paper's Election replaces: with a
/// dealt threshold PRF, electing a leader costs nothing — everyone locally
/// evaluates the same pseudorandom index for the session identifier.
///
/// Like [`TrustedCoin`], this exists as the "with private setup" comparison
/// arm and as a zero-message [`ElectionFactory`] for unit tests and for the
/// committee-sampled VBA benchmarks, where the election must not reintroduce
/// the all-to-all traffic the committee removed.
#[derive(Debug, Clone)]
pub struct TrustedElection {
    sid: Sid,
    n: usize,
    output: Option<ElectionOutput>,
}

impl TrustedElection {
    /// Creates the election for session `sid` over `n` parties.
    pub fn new(sid: Sid, n: usize) -> Self {
        TrustedElection { sid, n, output: None }
    }
}

impl ProtocolInstance for TrustedElection {
    type Message = u8;
    type Output = ElectionOutput;

    fn on_activation(&mut self) -> Step<u8> {
        let digest =
            setupfree_crypto::hash::hash_fields("setupfree/trusted-election", &[self.sid.as_bytes()]);
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&digest[..8]);
        let leader = PartyId((u64::from_le_bytes(bytes) % self.n as u64) as usize);
        self.output = Some(ElectionOutput { leader, winning_vrf: None, by_default: false });
        Step::none()
    }

    fn on_message(&mut self, _from: PartyId, _msg: u8) -> Step<u8> {
        Step::none()
    }

    fn output(&self) -> Option<ElectionOutput> {
        self.output.clone()
    }
}

/// Factory producing [`TrustedElection`] instances over a fixed party count.
#[derive(Debug, Clone)]
pub struct TrustedElectionFactory {
    n: usize,
}

impl TrustedElectionFactory {
    /// A factory electing leaders among `n` parties.
    pub fn new(n: usize) -> Self {
        TrustedElectionFactory { n }
    }
}

impl ElectionFactory for TrustedElectionFactory {
    type Instance = setupfree_net::Leaf<TrustedElection>;

    fn create(&self, sid: Sid) -> Self::Instance {
        setupfree_net::Leaf::new(TrustedElection::new(sid, self.n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_sid_same_bit_zero_messages() {
        let mut a = TrustedCoinFactory.create(Sid::new("x").derive("coin", 3));
        let mut b = TrustedCoinFactory.create(Sid::new("x").derive("coin", 3));
        assert!(a.on_activation().is_empty());
        assert!(b.on_activation().is_empty());
        assert_eq!(a.output().unwrap().bit, b.output().unwrap().bit);
        assert!(a.output().unwrap().max_vrf.is_none());
    }

    #[test]
    fn trusted_election_same_sid_same_leader_zero_messages() {
        let mut a = TrustedElectionFactory::new(10).create(Sid::new("e").derive("round", 2));
        let mut b = TrustedElectionFactory::new(10).create(Sid::new("e").derive("round", 2));
        assert!(a.on_activation().is_empty());
        assert!(b.on_activation().is_empty());
        let (oa, ob) = (a.output().unwrap(), b.output().unwrap());
        assert_eq!(oa.leader, ob.leader);
        assert!(oa.leader.index() < 10);
        assert!(!oa.by_default && oa.winning_vrf.is_none());
    }

    #[test]
    fn trusted_election_spreads_leaders_across_sessions() {
        let leaders: std::collections::BTreeSet<usize> = (0..64)
            .map(|i| {
                let mut e = TrustedElection::new(Sid::new("spread").derive("r", i), 7);
                let _ = e.on_activation();
                e.output().unwrap().leader.index()
            })
            .collect();
        assert!(leaders.len() > 3, "64 sessions must hit more than half the parties");
    }

    #[test]
    fn different_sessions_flip_differently_sometimes() {
        let bits: Vec<bool> = (0..64)
            .map(|i| {
                let mut c = TrustedCoin::new(Sid::new("s").derive("round", i));
                let _ = c.on_activation();
                c.output().unwrap().bit
            })
            .collect();
        assert!(bits.iter().any(|b| *b));
        assert!(bits.iter().any(|b| !*b));
    }
}
