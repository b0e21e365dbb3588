//! Random leader election with perfect agreement (§7.1, Algorithm 5,
//! Figure 3).
//!
//! Every party runs the Coin (Alg 4) to obtain its speculative largest VRF,
//! commits that speculation through a reliable broadcast, collects `n − f`
//! broadcast speculations, and votes through a **single** binary agreement on
//! whether a VRF exists that is simultaneously the *majority* and the
//! *largest* among them.  If the ABA returns 1 the (provably unique) such VRF
//! picks the leader `(r mod n) + 1`; otherwise a default leader is elected.
//!
//! The construction is generic over the binary agreement through
//! [`AbaFactory`], demonstrating the paper's claim that the election is
//! pluggable with any existing ABA.  Sub-instances are mounted in the
//! session-router tree: the Coin at path kind [`K_COIN`], the `n` RBCs at
//! [`K_RBC`], and the single ABA at [`K_ABA`] (created when the ballot is
//! cast; earlier ABA traffic waits in the router's bounded pre-activation
//! buffer, which replaced the hand-rolled `aba_buffer`).
//!
//! Complexity: expected `O(n³)` messages, `O(λn³)` bits, expected `O(1)`
//! rounds (§7.1).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use setupfree_crypto::vrf::{VrfOutput, VrfProof};
use setupfree_crypto::{Keyring, PartySecrets};
use setupfree_net::mux::{composite_cap, sealed_step, Envelope, PathSeg};
use setupfree_net::{Leaf, PartyId, ProtocolInstance, Router, Sid, Step};
use setupfree_rbc::Rbc;

use crate::coin::Coin;
use crate::traits::AbaFactory;

/// Path kind of the embedded Coin.
pub const K_COIN: u8 = 0;
/// Path kind of the per-broadcaster RBC instances.
pub const K_RBC: u8 = 1;
/// Path kind of the single ABA instance.
pub const K_ABA: u8 = 2;

/// The election's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElectionOutput {
    /// The elected leader.
    pub leader: PartyId,
    /// The winning VRF output, when the election succeeded through the
    /// largest-and-majority rule (Alg 5 line 16); `None` when the default
    /// leader was chosen.  The random beacon application (§7.3) uses this
    /// value as the epoch's randomness.
    pub winning_vrf: Option<VrfOutput>,
    /// Whether the default index was output because the ABA returned 0.
    pub by_default: bool,
}

/// One party's state machine for a single Election instance.
pub struct Election<F: AbaFactory> {
    sid: Sid,
    me: PartyId,
    keyring: Arc<Keyring>,
    coin: Coin,
    rbcs: Router<Leaf<Rbc>>,
    own_vrf_broadcast: bool,
    /// Verified RBC outputs: broadcaster → (evaluator, output, proof).
    g: BTreeMap<usize, (usize, VrfOutput, VrfProof)>,
    /// RBC outputs awaiting the evaluator's seed for verification (bounded:
    /// at most one entry per broadcaster, gated by `processed_rbc`).
    pending_rbc: Vec<(usize, (u32, VrfOutput, VrfProof))>,
    processed_rbc: BTreeSet<usize>,
    aba_factory: F,
    ballot_cast: bool,
    aba: Router<F::Instance>,
    aba_result: Option<bool>,
    output: Option<ElectionOutput>,
}

impl<F: AbaFactory> std::fmt::Debug for Election<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Election")
            .field("sid", &self.sid)
            .field("me", &self.me)
            .field("g_len", &self.g.len())
            .field("ballot_cast", &self.ballot_cast)
            .field("aba_result", &self.aba_result)
            .field("output", &self.output)
            .finish_non_exhaustive()
    }
}

impl<F: AbaFactory> Election<F> {
    /// Creates the Election state machine for party `me` in instance `sid`.
    pub fn new(
        sid: Sid,
        me: PartyId,
        keyring: Arc<Keyring>,
        secrets: Arc<PartySecrets>,
        aba_factory: F,
    ) -> Self {
        let coin = Coin::new(sid.derive("coin", 0), me, keyring.clone(), secrets);
        let n = keyring.n();
        Election {
            sid,
            me,
            keyring,
            coin,
            rbcs: Router::new(K_RBC),
            own_vrf_broadcast: false,
            g: BTreeMap::new(),
            pending_rbc: Vec::new(),
            processed_rbc: BTreeSet::new(),
            aba_factory,
            ballot_cast: false,
            aba: Router::with_cap(K_ABA, composite_cap(n)),
            aba_result: None,
            output: None,
        }
    }

    fn n(&self) -> usize {
        self.keyring.n()
    }

    fn quorum(&self) -> usize {
        self.keyring.quorum()
    }

    /// Runs `f` on the embedded coin and wraps its step under the coin's
    /// segment.  The coin is held directly, not in a router, so its trace
    /// path is pushed here for its phases to land on its own span.
    fn with_coin(&mut self, f: impl FnOnce(&mut Coin) -> Step<Envelope>) -> Step<Envelope> {
        let _trace = setupfree_obs::PathGuard::push(K_COIN, 0);
        f(&mut self.coin).prefix(PathSeg::new(K_COIN, 0))
    }

    /// Read access to the embedded coin (used by tests and by the random
    /// beacon application).
    pub fn coin(&self) -> &Coin {
        &self.coin
    }

    /// The election output, if decided.
    pub fn election_output(&self) -> Option<&ElectionOutput> {
        self.output.as_ref()
    }

    fn vrf_context(&self) -> Vec<u8> {
        // Must match the context the Coin used for VRF evaluation.
        let mut ctx = self.sid.derive("coin", 0).as_bytes().to_vec();
        ctx.extend_from_slice(b"/coin/vrf");
        ctx
    }

    fn advance(&mut self) -> Step<Envelope> {
        let mut step = Step::none();
        loop {
            let mut progressed = false;

            // Line 2–4: when the Coin decides, reliably broadcast vrf_max.
            if !self.own_vrf_broadcast {
                if let Some(out) = self.coin.coin_output() {
                    self.own_vrf_broadcast = true;
                    let payload: Option<(u32, VrfOutput, VrfProof)> =
                        out.max_vrf.as_ref().map(|(p, o, pr)| (p.index() as u32, *o, *pr));
                    let bytes = setupfree_wire::to_bytes(&payload);
                    let me = self.me.index();
                    let seg = self.rbcs.seg(me);
                    let rbc_step = self
                        .rbcs
                        .get_mut(me)
                        .expect("own RBC exists from activation")
                        .inner_mut()
                        .provide_input(bytes);
                    step.extend(sealed_step(seg, rbc_step));
                    progressed = true;
                }
            }

            // Lines 5–7: collect and verify RBC outputs into G.
            for j in 0..self.n() {
                if self.processed_rbc.contains(&j) {
                    continue;
                }
                if let Some(bytes) = self.rbcs.get(j).and_then(|r| r.inner().output()) {
                    self.processed_rbc.insert(j);
                    progressed = true;
                    if let Ok(Some(cand)) =
                        setupfree_wire::from_bytes::<Option<(u32, VrfOutput, VrfProof)>>(&bytes)
                    {
                        if (cand.0 as usize) < self.n() {
                            if self.coin.seed_of(cand.0 as usize).is_some() {
                                self.verify_into_g(j, cand);
                            } else {
                                self.pending_rbc.push((j, cand));
                            }
                        }
                    }
                }
            }

            // Re-check pending RBC outputs whose seeds have since arrived.
            if !self.pending_rbc.is_empty() {
                let pending = std::mem::take(&mut self.pending_rbc);
                for (j, cand) in pending {
                    if self.coin.seed_of(cand.0 as usize).is_some() {
                        self.verify_into_g(j, cand);
                        progressed = true;
                    } else {
                        self.pending_rbc.push((j, cand));
                    }
                }
            }

            // Lines 8–12: with n − f verified entries, vote and start the ABA.
            if !self.ballot_cast && self.g.len() >= self.quorum() {
                self.ballot_cast = true;
                let ballot = self.largest_and_majority(self.quorum()).is_some();
                let aba = self.aba_factory.create(self.sid.derive("aba", 0), ballot);
                // Mounting the instance also replays whatever ABA traffic the
                // router buffered before the ballot was cast.
                step.extend(self.aba.insert(0, aba));
                progressed = true;
            }

            // Line 13: record the ABA decision.
            if self.aba_result.is_none() {
                if let Some(b) = self.aba.get(0).and_then(|a| a.output()) {
                    self.aba_result = Some(b);
                    progressed = true;
                }
            }

            // Lines 14–17: decide the leader.
            if self.output.is_none() {
                match self.aba_result {
                    Some(false) => {
                        self.output = Some(ElectionOutput {
                            leader: PartyId(0),
                            winning_vrf: None,
                            by_default: true,
                        });
                        progressed = true;
                    }
                    Some(true) => {
                        if let Some(winner) = self.largest_and_majority(self.quorum()) {
                            self.output = Some(ElectionOutput {
                                leader: PartyId(winner.leader_index(self.n())),
                                winning_vrf: Some(winner),
                                by_default: false,
                            });
                            progressed = true;
                        }
                    }
                    None => {}
                }
            }

            if !progressed {
                break;
            }
        }
        step
    }

    fn verify_into_g(&mut self, broadcaster: usize, cand: (u32, VrfOutput, VrfProof)) {
        let (evaluator, output, proof) = cand;
        let evaluator = evaluator as usize;
        let Some(seed) = self.coin.seed_of(evaluator) else { return };
        if self.keyring.vrf_key(evaluator).verify(&self.vrf_context(), &seed, &output, &proof) {
            self.g.insert(broadcaster, (evaluator, output, proof));
        }
    }

    /// Searches `G` for a VRF value that can be both the majority and the
    /// largest within some `(n − f)`-sized subset `G* ⊆ G` (Alg 5 lines 9–10
    /// and 15).  Returns the winning VRF output if one exists.
    fn largest_and_majority(&self, subset_size: usize) -> Option<VrfOutput> {
        let mut counts: BTreeMap<VrfOutput, usize> = BTreeMap::new();
        for (_, output, _) in self.g.values() {
            *counts.entry(*output).or_default() += 1;
        }
        let mut best: Option<VrfOutput> = None;
        for (output, count) in &counts {
            // Elements with value ≤ output (candidates to fill the subset).
            let le = self.g.values().filter(|(_, o, _)| o <= output).count();
            if le >= subset_size && 2 * count > subset_size {
                match best {
                    Some(cur) if cur >= *output => {}
                    _ => best = Some(*output),
                }
            }
        }
        best
    }
}

impl<F: AbaFactory> ProtocolInstance for Election<F> {
    type Message = Envelope;
    type Output = ElectionOutput;

    fn on_activation(&mut self) -> Step<Envelope> {
        let mut step = self.with_coin(Coin::on_activation);
        for j in 0..self.n() {
            let rbc = Rbc::new(
                self.sid.derive("rbc", j),
                self.me,
                self.n(),
                self.keyring.f(),
                PartyId(j),
                None,
            );
            step.extend(self.rbcs.insert(j, Leaf::new(rbc)));
        }
        step.extend(self.advance());
        step
    }

    fn on_message(&mut self, from: PartyId, msg: Envelope) -> Step<Envelope> {
        if from.index() >= self.n() {
            return Step::none();
        }
        let mut step = match msg.path.split_first() {
            Some((seg, path)) => {
                let child = Envelope { path, payload: msg.payload };
                match seg.kind {
                    K_COIN if seg.index == 0 => self.with_coin(|coin| coin.on_message(from, child)),
                    K_RBC if (seg.index as usize) < self.n() => {
                        self.rbcs.route(from, seg.index, child)
                    }
                    K_ABA if seg.index == 0 => self.aba.route(from, seg.index, child),
                    _ => Step::none(),
                }
            }
            // The election has no local messages.
            None => Step::none(),
        };
        step.extend(self.advance());
        step
    }

    fn output(&self) -> Option<ElectionOutput> {
        self.output.clone()
    }

    fn pre_activation_stats(&self) -> setupfree_net::BufferStats {
        self.coin.pre_activation_stats().merge(self.rbcs.stats()).merge(self.aba.stats())
    }
}
