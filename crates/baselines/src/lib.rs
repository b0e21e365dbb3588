//! Baseline protocols the paper compares against (Table 1 and §1).
//!
//! * [`LocalCoin`] — Ben-Or style *local* randomness: each party flips its
//!   own private coin.  Plugged into the MMR ABA this demonstrates why a
//!   *common* coin is needed for expected-constant-round termination.
//! * [`SquaredAvssCoin`] — a CR93/CKLS02-style common coin built from `n²`
//!   AVSS instances and a reliable-broadcast gather.  It reproduces the
//!   `O(λn⁴)` communication shape of the prior private-setup-free coins that
//!   the paper's `O(λn³)` construction improves on.  (It is a *cost-model*
//!   baseline: the dealing/reconstruction pattern and the gather are those of
//!   CKLS02, while the final bit-extraction is simplified; see
//!   `ARCHITECTURE.md` §"Cryptographic substitutions".)
//! * The gather-based core-set variant of the paper's own coin
//!   ([`setupfree_core::coin::CoreSetMode::RbcGather`]) serves as the
//!   AJM+21-style ablation and is exercised by the benchmark harness.
//!
//! The `n²` AVSS baseline is the heaviest crypto consumer in the workspace
//! (its `n²` instances each commit, open and reconstruct through the
//! Pedersen paths), so it rides the `setupfree_crypto::multiexp` engine and
//! the batched share verification of the AVSS directly: every dealer row
//! commits through the fixed-base comb tables, reconstruction opening checks
//! are one random-linear-combination multi-exponentiation per instance, and
//! all `n²` reconstructions over the same quorum share one cached Lagrange
//! table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use setupfree_avss::{Avss, AvssMessage};
use setupfree_core::coin::CoinOutput;
use setupfree_core::traits::CoinFactory;
use setupfree_crypto::hash::hash_fields;
use setupfree_crypto::scalar::Scalar;
use setupfree_crypto::{Keyring, PartySecrets};
use setupfree_net::{PartyId, ProtocolInstance, Sid, Step};
use setupfree_rbc::{Rbc, RbcMessage};
use setupfree_wire::{Decode, Encode, Reader, WireError, Writer};

// ---------------------------------------------------------------------------
// Local (non-common) coin — the Ben-Or baseline.
// ---------------------------------------------------------------------------

/// A "coin" that is purely local randomness: each party derives its own
/// private bit.  No communication, no agreement — the Ben-Or baseline.
#[derive(Debug, Clone)]
pub struct LocalCoin {
    sid: Sid,
    me: PartyId,
    output: Option<CoinOutput>,
}

impl LocalCoin {
    /// Creates the local coin for party `me` and session `sid`.
    pub fn new(sid: Sid, me: PartyId) -> Self {
        LocalCoin { sid, me, output: None }
    }
}

impl ProtocolInstance for LocalCoin {
    type Message = u8;
    type Output = CoinOutput;

    fn on_activation(&mut self) -> Step<u8> {
        let digest = hash_fields(
            "setupfree/local-coin",
            &[self.sid.as_bytes(), &self.me.index().to_le_bytes()],
        );
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

/// Factory producing [`LocalCoin`] instances for a fixed party.
#[derive(Debug, Clone)]
pub struct LocalCoinFactory {
    me: PartyId,
}

impl LocalCoinFactory {
    /// Creates the factory for party `me`.
    pub fn new(me: PartyId) -> Self {
        LocalCoinFactory { me }
    }
}

impl CoinFactory for LocalCoinFactory {
    type Instance = setupfree_net::Leaf<LocalCoin>;

    fn create(&self, sid: Sid) -> Self::Instance {
        setupfree_net::Leaf::new(LocalCoin::new(sid, self.me))
    }
}

// ---------------------------------------------------------------------------
// CKLS02-style coin: n² AVSS + reliable-broadcast gather.
// ---------------------------------------------------------------------------

/// Messages of the [`SquaredAvssCoin`].
#[derive(Debug, Clone)]
pub enum SquaredCoinMessage {
    /// Traffic of the AVSS instance `(dealer, slot)`.
    Avss {
        /// The dealing party.
        dealer: u32,
        /// The slot (one secret is dealt per receiving party).
        slot: u32,
        /// Wrapped AVSS message.
        inner: AvssMessage,
    },
    /// Gather traffic: reliable broadcast of a party's completed-dealer set.
    Gather {
        /// The broadcasting party.
        sender: u32,
        /// Wrapped RBC message.
        inner: RbcMessage,
    },
}

impl Encode for SquaredCoinMessage {
    fn encode(&self, w: &mut Writer) {
        match self {
            SquaredCoinMessage::Avss { dealer, slot, inner } => {
                w.write_u8(0);
                w.write_u32(*dealer);
                w.write_u32(*slot);
                inner.encode(w);
            }
            SquaredCoinMessage::Gather { sender, inner } => {
                w.write_u8(1);
                w.write_u32(*sender);
                inner.encode(w);
            }
        }
    }
}

impl Decode for SquaredCoinMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(SquaredCoinMessage::Avss {
                dealer: r.read_u32()?,
                slot: r.read_u32()?,
                inner: AvssMessage::decode(r)?,
            }),
            1 => Ok(SquaredCoinMessage::Gather { sender: r.read_u32()?, inner: RbcMessage::decode(r)? }),
            tag => Err(WireError::InvalidTag { tag: u64::from(tag), ty: "SquaredCoinMessage" }),
        }
    }
}

/// A CR93/CKLS02-style common coin: every party deals `n` AVSS instances
/// (one secret per receiving slot), completed dealers are gathered through
/// `n` reliable broadcasts, and all secrets of the gathered dealers are
/// reconstructed; the coin is the low bit of a hash over the reconstructed
/// secrets.
pub struct SquaredAvssCoin {
    #[allow(dead_code)]
    sid: Sid,
    me: PartyId,
    keyring: Arc<Keyring>,
    /// avss[dealer][slot]
    avss: Vec<Vec<Avss>>,
    /// Dealers whose full slot row completed locally.
    complete_dealers: BTreeSet<usize>,
    gather_rbcs: Vec<Rbc>,
    gather_sent: bool,
    gather_outputs: BTreeMap<usize, Vec<u32>>,
    core: Option<BTreeSet<usize>>,
    rec_started: bool,
    output: Option<CoinOutput>,
}

impl std::fmt::Debug for SquaredAvssCoin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SquaredAvssCoin")
            .field("me", &self.me)
            .field("complete_dealers", &self.complete_dealers)
            .field("output", &self.output.is_some())
            .finish_non_exhaustive()
    }
}

impl SquaredAvssCoin {
    /// Creates the baseline coin for party `me`.
    pub fn new(sid: Sid, me: PartyId, keyring: Arc<Keyring>, secrets: Arc<PartySecrets>) -> Self {
        let n = keyring.n();
        let avss = (0..n)
            .map(|dealer| {
                (0..n)
                    .map(|slot| {
                        let secret = if dealer == me.index() {
                            // A fresh random secret per slot, derandomized from
                            // the session and the dealer's key material.
                            Some(
                                Scalar::from_hash(
                                    "setupfree/squared-coin/secret",
                                    &[
                                        sid.as_bytes(),
                                        &(dealer as u64).to_le_bytes(),
                                        &(slot as u64).to_le_bytes(),
                                        &secrets.index.to_le_bytes(),
                                    ],
                                )
                                .to_bytes()
                                .to_vec(),
                            )
                        } else {
                            None
                        };
                        Avss::new(
                            sid.derive("sq-avss", dealer * n + slot),
                            me,
                            PartyId(dealer),
                            keyring.clone(),
                            secrets.clone(),
                            secret,
                        )
                    })
                    .collect()
            })
            .collect();
        let gather_rbcs = (0..n)
            .map(|j| Rbc::new(sid.derive("sq-gather", j), me, n, keyring.f(), PartyId(j), None))
            .collect();
        SquaredAvssCoin {
            sid,
            me,
            keyring,
            avss,
            complete_dealers: BTreeSet::new(),
            gather_rbcs,
            gather_sent: false,
            gather_outputs: BTreeMap::new(),
            core: None,
            rec_started: false,
            output: None,
        }
    }

    fn n(&self) -> usize {
        self.keyring.n()
    }

    fn quorum(&self) -> usize {
        self.keyring.quorum()
    }

    fn wrap_avss(dealer: usize, slot: usize, step: Step<AvssMessage>) -> Step<SquaredCoinMessage> {
        step.map(move |inner| SquaredCoinMessage::Avss {
            dealer: dealer as u32,
            slot: slot as u32,
            inner,
        })
    }

    fn wrap_gather(sender: usize, step: Step<RbcMessage>) -> Step<SquaredCoinMessage> {
        step.map(move |inner| SquaredCoinMessage::Gather { sender: sender as u32, inner })
    }

    fn advance(&mut self) -> Step<SquaredCoinMessage> {
        let mut step = Step::none();
        loop {
            let mut progressed = false;
            // Track dealers whose entire row of sharings completed.
            for dealer in 0..self.n() {
                if self.complete_dealers.contains(&dealer) {
                    continue;
                }
                if self.avss[dealer].iter().all(|a| a.sharing_output().is_some()) {
                    self.complete_dealers.insert(dealer);
                    progressed = true;
                }
            }
            // Gather: broadcast our completed-dealer set once it reaches n − f.
            if !self.gather_sent && self.complete_dealers.len() >= self.quorum() {
                self.gather_sent = true;
                let set: Vec<u32> = self.complete_dealers.iter().map(|d| *d as u32).collect();
                let me = self.me.index();
                step.extend(Self::wrap_gather(
                    me,
                    self.gather_rbcs[me].provide_input(setupfree_wire::to_bytes(&set)),
                ));
                progressed = true;
            }
            // Union of the first n − f gathered sets becomes the core.
            if self.core.is_none() {
                for j in 0..self.n() {
                    if self.gather_outputs.contains_key(&j) {
                        continue;
                    }
                    if let Some(bytes) = self.gather_rbcs[j].output() {
                        if let Ok(set) = setupfree_wire::from_bytes::<Vec<u32>>(&bytes) {
                            if set.len() >= self.quorum()
                                && set.iter().all(|d| (*d as usize) < self.n())
                            {
                                self.gather_outputs.insert(j, set);
                                progressed = true;
                            }
                        }
                    }
                }
                if self.gather_outputs.len() >= self.quorum() {
                    self.core = Some(
                        self.gather_outputs
                            .values()
                            .flat_map(|s| s.iter().map(|d| *d as usize))
                            .collect(),
                    );
                    progressed = true;
                }
            }
            // Reconstruct every slot of every core dealer.
            if let Some(core) = self.core.clone() {
                if !self.rec_started
                    && core.iter().all(|d| {
                        self.avss[*d].iter().all(|a| a.sharing_output().is_some())
                    })
                {
                    self.rec_started = true;
                    for dealer in &core {
                        for slot in 0..self.n() {
                            let avss = &mut self.avss[*dealer][slot];
                            step.extend(Self::wrap_avss(*dealer, slot, avss.start_reconstruction()));
                        }
                    }
                    progressed = true;
                }
                if self.rec_started && self.output.is_none() {
                    let all_done = core.iter().all(|d| {
                        self.avss[*d].iter().all(|a| a.reconstructed().is_some())
                    });
                    if all_done {
                        let mut hasher_fields: Vec<Vec<u8>> = Vec::new();
                        for dealer in &core {
                            for slot in 0..self.n() {
                                hasher_fields
                                    .push(self.avss[*dealer][slot].reconstructed().unwrap().to_vec());
                            }
                        }
                        let refs: Vec<&[u8]> = hasher_fields.iter().map(Vec::as_slice).collect();
                        let digest = hash_fields("setupfree/squared-coin/out", &refs);
                        self.output = Some(CoinOutput { bit: digest[0] & 1 == 1, max_vrf: None });
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        step
    }
}

impl ProtocolInstance for SquaredAvssCoin {
    type Message = SquaredCoinMessage;
    type Output = CoinOutput;

    fn on_activation(&mut self) -> Step<SquaredCoinMessage> {
        let mut step = Step::none();
        for dealer in 0..self.n() {
            for slot in 0..self.n() {
                step.extend(Self::wrap_avss(dealer, slot, self.avss[dealer][slot].activate()));
            }
        }
        step.extend(self.advance());
        step
    }

    fn on_message(&mut self, from: PartyId, msg: SquaredCoinMessage) -> Step<SquaredCoinMessage> {
        if from.index() >= self.n() {
            return Step::none();
        }
        let mut step = match msg {
            SquaredCoinMessage::Avss { dealer, slot, inner } => {
                let dealer = dealer as usize;
                let slot = slot as usize;
                if dealer >= self.n() || slot >= self.n() {
                    return Step::none();
                }
                Self::wrap_avss(dealer, slot, self.avss[dealer][slot].handle(from, inner))
            }
            SquaredCoinMessage::Gather { sender, inner } => {
                let sender = sender as usize;
                if sender >= self.n() {
                    return Step::none();
                }
                Self::wrap_gather(sender, self.gather_rbcs[sender].on_message(from, inner))
            }
        };
        step.extend(self.advance());
        step
    }

    fn output(&self) -> Option<CoinOutput> {
        self.output.clone()
    }
}

/// Factory producing [`SquaredAvssCoin`] instances for a fixed party.
#[derive(Clone)]
pub struct SquaredAvssCoinFactory {
    me: PartyId,
    keyring: Arc<Keyring>,
    secrets: Arc<PartySecrets>,
}

impl SquaredAvssCoinFactory {
    /// Creates the factory for party `me`.
    pub fn new(me: PartyId, keyring: Arc<Keyring>, secrets: Arc<PartySecrets>) -> Self {
        SquaredAvssCoinFactory { me, keyring, secrets }
    }
}

impl CoinFactory for SquaredAvssCoinFactory {
    type Instance = setupfree_net::Leaf<SquaredAvssCoin>;

    fn create(&self, sid: Sid) -> Self::Instance {
        setupfree_net::Leaf::new(SquaredAvssCoin::new(sid, self.me, self.keyring.clone(), self.secrets.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setupfree_crypto::generate_pki;
    use setupfree_net::{BoxedParty, FifoScheduler, RandomScheduler, Simulation, StopReason};

    fn setup(n: usize) -> (Arc<Keyring>, Vec<Arc<PartySecrets>>) {
        let (keyring, secrets) = generate_pki(n, 77);
        (Arc::new(keyring), secrets.into_iter().map(Arc::new).collect())
    }

    #[test]
    fn local_coin_is_not_common() {
        let mut bits = BTreeSet::new();
        for i in 0..16 {
            let mut c = LocalCoin::new(Sid::new("x"), PartyId(i));
            let _ = c.on_activation();
            bits.insert(c.output().unwrap().bit);
        }
        assert_eq!(bits.len(), 2, "local coins must disagree across parties");
    }

    #[test]
    fn squared_coin_terminates_and_agrees_under_fifo() {
        let n = 4;
        let (keyring, secrets) = setup(n);
        let parties: Vec<BoxedParty<SquaredCoinMessage, CoinOutput>> = (0..n)
            .map(|i| {
                Box::new(SquaredAvssCoin::new(
                    Sid::new("sq"),
                    PartyId(i),
                    keyring.clone(),
                    secrets[i].clone(),
                )) as BoxedParty<SquaredCoinMessage, CoinOutput>
            })
            .collect();
        let mut sim = Simulation::new(parties, Box::new(FifoScheduler::default()));
        let report = sim.run(20_000_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
        let outs: Vec<CoinOutput> = sim.outputs().into_iter().flatten().collect();
        assert!(outs.windows(2).all(|w| w[0].bit == w[1].bit));
    }

    #[test]
    fn squared_coin_grows_faster_than_papers_coin() {
        // The headline of Table 1: CKLS02-style coins cost O(λn⁴) vs the
        // paper's O(λn³).  At small n the constants of the two constructions
        // are comparable (the paper's coin pays for Seeding and the VRF
        // reveal phase); the separation is in the *growth rate*, so measure
        // the byte-growth factor from n = 4 to n = 7 for both.
        let measure_sq = |n: usize| {
            let (keyring, secrets) = setup(n);
            let parties: Vec<BoxedParty<SquaredCoinMessage, CoinOutput>> = (0..n)
                .map(|i| {
                    Box::new(SquaredAvssCoin::new(
                        Sid::new("sq-cost"),
                        PartyId(i),
                        keyring.clone(),
                        secrets[i].clone(),
                    )) as BoxedParty<SquaredCoinMessage, CoinOutput>
                })
                .collect();
            let mut sim = Simulation::new(parties, Box::new(FifoScheduler::default()));
            sim.run(100_000_000);
            sim.metrics().honest_bytes as f64
        };
        let measure_paper = |n: usize| {
            use setupfree_core::coin::Coin;
            use setupfree_net::Envelope;
            let (keyring, secrets) = setup(n);
            let parties: Vec<BoxedParty<Envelope, CoinOutput>> = (0..n)
                .map(|i| {
                    Box::new(Coin::new(Sid::new("paper-cost"), PartyId(i), keyring.clone(), secrets[i].clone()))
                        as BoxedParty<Envelope, CoinOutput>
                })
                .collect();
            let mut sim = Simulation::new(parties, Box::new(FifoScheduler::default()));
            sim.run(100_000_000);
            sim.metrics().honest_bytes as f64
        };
        let sq_growth = measure_sq(7) / measure_sq(4);
        let paper_growth = measure_paper(7) / measure_paper(4);
        assert!(
            sq_growth > paper_growth,
            "n² AVSS baseline growth ({sq_growth:.2}x) should exceed the paper's coin growth ({paper_growth:.2}x)"
        );
    }

    #[test]
    fn squared_coin_random_schedules_terminate() {
        let n = 4;
        let (keyring, secrets) = setup(n);
        for seed in 0..3 {
            let parties: Vec<BoxedParty<SquaredCoinMessage, CoinOutput>> = (0..n)
                .map(|i| {
                    Box::new(SquaredAvssCoin::new(
                        Sid::new("sq-rand"),
                        PartyId(i),
                        keyring.clone(),
                        secrets[i].clone(),
                    )) as BoxedParty<SquaredCoinMessage, CoinOutput>
                })
                .collect();
            let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
            let report = sim.run(30_000_000);
            assert_eq!(report.reason, StopReason::AllOutputs, "seed {seed}");
        }
    }

    #[test]
    fn message_wire_roundtrip() {
        let msg = SquaredCoinMessage::Gather {
            sender: 1,
            inner: RbcMessage::Echo(vec![1, 2, 3]),
        };
        let bytes = setupfree_wire::to_bytes(&msg);
        let decoded: SquaredCoinMessage = setupfree_wire::from_bytes(&bytes).unwrap();
        assert_eq!(setupfree_wire::to_bytes(&decoded), bytes);
    }
}
