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
//!   `ARCHITECTURE.md` §"Cryptographic substitutions".)  Like every other
//!   composite it mounts its children in session routers: the AVSS of
//!   `(dealer, slot)` at path kind [`K_AVSS`], index `dealer · n + slot`, and
//!   the gather RBCs at [`K_GATHER`], index broadcaster.
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

use std::collections::BTreeSet;
use std::sync::Arc;

use setupfree_avss::Avss;
use setupfree_core::coin::CoinOutput;
use setupfree_core::traits::CoinFactory;
use setupfree_crypto::hash::hash_fields;
use setupfree_crypto::scalar::Scalar;
use setupfree_crypto::{Keyring, PartySecrets};
use setupfree_net::mux::sealed_step;
use setupfree_net::{Envelope, Leaf, PartyId, ProtocolInstance, Router, Sid, Step};
use setupfree_rbc::SetGather;

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

/// Path kind of the [`SquaredAvssCoin`]'s AVSS instances, keyed by
/// `dealer · n + slot`.
pub const K_AVSS: u8 = 0;
/// Path kind of the [`SquaredAvssCoin`]'s gather RBCs, keyed by broadcaster.
pub const K_GATHER: u8 = 1;

/// A CR93/CKLS02-style common coin: every party deals `n` AVSS instances
/// (one secret per receiving slot), completed dealers are gathered through
/// `n` reliable broadcasts ([`SetGather`], the rule the gather-mode Coin
/// uses too), and all secrets of the gathered dealers are reconstructed;
/// the coin is the low bit of a hash over the reconstructed secrets.
pub struct SquaredAvssCoin {
    sid: Sid,
    me: PartyId,
    keyring: Arc<Keyring>,
    secrets: Arc<PartySecrets>,
    /// The AVSS of `(dealer, slot)` at index `dealer · n + slot`.
    avss: Router<Leaf<Avss>>,
    /// Dealers whose full slot row completed locally.
    complete_dealers: BTreeSet<usize>,
    gather: SetGather,
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
        let gather = SetGather::new(K_GATHER, me, keyring.n(), keyring.f());
        SquaredAvssCoin {
            sid,
            me,
            keyring,
            secrets,
            avss: Router::new(K_AVSS),
            complete_dealers: BTreeSet::new(),
            gather,
            rec_started: false,
            output: None,
        }
    }

    fn n(&self) -> usize {
        self.keyring.n()
    }

    /// The AVSS of `(dealer, slot)`; every one is mounted at activation.
    fn avss(&self, dealer: usize, slot: usize) -> &Avss {
        self.avss.get(dealer * self.n() + slot).expect("mounted at activation").inner()
    }

    /// Whether every slot `dealer` deals has completed its sharing here.
    fn row_shared(&self, dealer: usize) -> bool {
        (0..self.n()).all(|slot| self.avss(dealer, slot).sharing_output().is_some())
    }

    fn advance(&mut self) -> Step<Envelope> {
        let mut step = Step::none();
        loop {
            let mut progressed = false;
            // Track dealers whose entire row of sharings completed.
            for dealer in 0..self.n() {
                if self.complete_dealers.contains(&dealer) {
                    continue;
                }
                if self.row_shared(dealer) {
                    self.complete_dealers.insert(dealer);
                    progressed = true;
                }
            }
            // Gather the completed-dealer sets; the core is the union of
            // the first n − f.
            step.extend(self.gather.offer(&self.complete_dealers));
            // Reconstruct every slot of every core dealer.
            if let Some(core) = self.gather.core().cloned() {
                if !self.rec_started && core.iter().all(|d| self.row_shared(*d)) {
                    self.rec_started = true;
                    for dealer in &core {
                        for slot in 0..self.n() {
                            let index = dealer * self.n() + slot;
                            let seg = self.avss.seg(index);
                            let avss = self.avss.get_mut(index).expect("mounted at activation");
                            step.extend(sealed_step(seg, avss.inner_mut().start_reconstruction()));
                        }
                    }
                    progressed = true;
                }
                if self.rec_started && self.output.is_none() {
                    let all_done = core.iter().all(|d| {
                        (0..self.n()).all(|slot| self.avss(*d, slot).reconstructed().is_some())
                    });
                    if all_done {
                        let mut hasher_fields: Vec<Vec<u8>> = Vec::new();
                        for dealer in &core {
                            for slot in 0..self.n() {
                                let secret = self.avss(*dealer, slot).reconstructed().unwrap();
                                hasher_fields.push(secret.to_vec());
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
    type Message = Envelope;
    type Output = CoinOutput;

    fn on_activation(&mut self) -> Step<Envelope> {
        let n = self.n();
        let mut step = Step::none();
        for dealer in 0..n {
            for slot in 0..n {
                let secret = (dealer == self.me.index()).then(|| {
                    // A fresh random secret per slot, derandomized from the
                    // session and the dealer's key material.
                    Scalar::from_hash(
                        "setupfree/squared-coin/secret",
                        &[
                            self.sid.as_bytes(),
                            &(dealer as u64).to_le_bytes(),
                            &(slot as u64).to_le_bytes(),
                            &self.secrets.index.to_le_bytes(),
                        ],
                    )
                    .to_bytes()
                    .to_vec()
                });
                let avss = Avss::new(
                    self.sid.derive("sq-avss", dealer * n + slot),
                    self.me,
                    PartyId(dealer),
                    self.keyring.clone(),
                    self.secrets.clone(),
                    secret,
                );
                step.extend(self.avss.insert(dealer * n + slot, Leaf::new(avss)));
            }
        }
        step.extend(self.gather.activate());
        step.extend(self.advance());
        step
    }

    fn on_message(&mut self, from: PartyId, msg: Envelope) -> Step<Envelope> {
        let n = self.n();
        if from.index() >= n {
            return Step::none();
        }
        let Some((seg, path)) = msg.path.split_first() else { return Step::none() };
        let child = Envelope { path, payload: msg.payload };
        let mut step = match seg.kind {
            K_AVSS if (seg.index as usize) < n * n => self.avss.route(from, seg.index, child),
            K_GATHER => self.gather.route(from, seg.index, child),
            _ => return Step::none(),
        };
        step.extend(self.advance());
        step
    }

    fn output(&self) -> Option<CoinOutput> {
        self.output.clone()
    }

    fn pre_activation_stats(&self) -> setupfree_net::BufferStats {
        self.avss.stats().merge(self.gather.stats())
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
    type Instance = SquaredAvssCoin;

    fn create(&self, sid: Sid) -> Self::Instance {
        SquaredAvssCoin::new(sid, self.me, self.keyring.clone(), self.secrets.clone())
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
        let parties: Vec<BoxedParty<Envelope, CoinOutput>> = (0..n)
            .map(|i| {
                Box::new(SquaredAvssCoin::new(
                    Sid::new("sq"),
                    PartyId(i),
                    keyring.clone(),
                    secrets[i].clone(),
                )) as BoxedParty<Envelope, CoinOutput>
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
            let parties: Vec<BoxedParty<Envelope, CoinOutput>> = (0..n)
                .map(|i| {
                    Box::new(SquaredAvssCoin::new(
                        Sid::new("sq-cost"),
                        PartyId(i),
                        keyring.clone(),
                        secrets[i].clone(),
                    )) as BoxedParty<Envelope, CoinOutput>
                })
                .collect();
            let mut sim = Simulation::new(parties, Box::new(FifoScheduler::default()));
            sim.run(100_000_000);
            sim.metrics().honest_bytes as f64
        };
        let measure_paper = |n: usize| {
            use setupfree_core::coin::Coin;
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
            let parties: Vec<BoxedParty<Envelope, CoinOutput>> = (0..n)
                .map(|i| {
                    Box::new(SquaredAvssCoin::new(
                        Sid::new("sq-rand"),
                        PartyId(i),
                        keyring.clone(),
                        secrets[i].clone(),
                    )) as BoxedParty<Envelope, CoinOutput>
                })
                .collect();
            let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
            let report = sim.run(30_000_000);
            assert_eq!(report.reason, StopReason::AllOutputs, "seed {seed}");
        }
    }
}
