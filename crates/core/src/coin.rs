//! The reasonably fair common coin without private setup
//! (§6.1, Algorithm 4, Figure 2).
//!
//! Per party the protocol composes:
//!
//! 1. **VRF sharing** (lines 1–8): participate in all `n` Seeding instances
//!    (leading your own); once your seed arrives, evaluate your VRF on it and
//!    share the evaluation–proof pair through your own AVSS instance; join
//!    every other AVSS once its dealer's seed is known.
//! 2. **Core-set selection** (lines 9–12): when `n − f` AVSS sharings have
//!    completed locally, run WCS over their indices.
//! 3. **VRF revealing** (lines 13–24): once WCS outputs `Ŝ`, request
//!    reconstruction of every AVSS in `Ŝ`, reconstruct, verify the revealed
//!    VRFs and multicast the largest as a `Candidate`.
//! 4. **Largest-VRF amplification** (lines 25–31): after `n − f` candidates,
//!    output the lowest bit of the largest verified VRF.
//!
//! The sub-protocol instances — the paper's `⟨ID, j⟩` composition — are
//! mounted in session [`Router`]s: Seeding at path kind [`K_SEEDING`], AVSS
//! at [`K_AVSS`] (created lazily when the dealer's seed arrives, with the
//! router's bounded pre-activation buffer replacing the former hand-rolled
//! `avss_buffers`), WCS at [`K_WCS`] and the gather-ablation RBCs at
//! [`K_GATHER`].  The coin's own `RecRequest`/`Candidate` messages travel at
//! the root path as [`CoinMessage`].
//!
//! The output also carries the speculative largest VRF (`max_vrf`), which is
//! exactly what the Election protocol (Alg 5 line 2) consumes.
//!
//! Complexity: `O(n³)` messages, `O(λn³)` bits, constant rounds (§6.1).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::Arc;

use setupfree_avss::Avss;
use setupfree_crypto::vrf::{VrfOutput, VrfProof};
use setupfree_crypto::{Keyring, PartySecrets};
use setupfree_net::mux::{decode_payload, sealed_step, Envelope, InstancePath, PathSeg};
use setupfree_net::{Leaf, PartyId, ProtocolInstance, Router, Sid, Step};
use setupfree_rbc::Rbc;
use setupfree_seeding::{Seed, Seeding};
use setupfree_wcs::Wcs;
use setupfree_wire::{Decode, Encode, Reader, WireError, Writer};

/// Path kind of the per-leader Seeding instances.
pub const K_SEEDING: u8 = 0;
/// Path kind of the per-dealer AVSS instances.
pub const K_AVSS: u8 = 1;
/// Path kind of the weak core-set selection.
pub const K_WCS: u8 = 2;
/// Path kind of the gather-ablation RBC instances.
pub const K_GATHER: u8 = 3;

/// How the coin selects its core set of completed AVSS instances.
///
/// The paper's contribution is the *weak* core-set selection (Alg 3), which
/// replaces the conventional reliable-broadcast gather of CR93/AJM+21.  The
/// gather variant is retained as an ablation baseline: it is what the
/// `fig_component_scaling` and `table1` benchmarks compare against to show
/// the communication saved by WCS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoreSetMode {
    /// Weak core-set selection (the paper's Alg 3) — the default.
    #[default]
    Weak,
    /// Conventional gather: every party reliably broadcasts its completed-set
    /// and takes the union of the first `n − f` delivered sets (CR93 /
    /// AJM+21 style).
    RbcGather,
}

/// Seeds shared by every coin round of one agreement.
///
/// The seeding phase binds each party to a public seed but does not depend
/// on the coin round (§6.1: the seeds are reusable — only the VRF context,
/// which includes the round sid, changes per toss).  The first round's coin
/// *owns* the `n` Seeding instances and publishes each completed seed here;
/// sibling rounds created via
/// [`CoinFactory::create_sibling`](crate::traits::CoinFactory::create_sibling)
/// read the store instead of re-running the seeding — by far the dominant
/// byte cost of a multi-round ABA — and are re-checked through
/// [`CoinFactory::poke`](crate::traits::CoinFactory::poke) when it changes.
#[derive(Debug)]
pub struct SeedStore {
    seeds: Vec<Option<Seed>>,
    /// Seeds published so far.  A sibling remembers the count it last read,
    /// so a poke that finds it unchanged knows nothing new can have happened.
    published: usize,
}

impl SeedStore {
    fn publish(&mut self, leader: usize, seed: Seed) {
        self.seeds[leader] = Some(seed);
        self.published += 1;
    }
}

/// The child instance an envelope reached, so that [`Coin::advance`]
/// re-checks only the conditions that delivery can have changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Touched {
    /// Every child: the coin's activation.
    All,
    /// The Seeding instance led by this party.
    Seeding(usize),
    /// The AVSS instance dealt by this party.
    Avss(usize),
    /// A coin message at the root path (a `RecRequest` or `Candidate`).
    Local,
    /// The WCS, a gather RBC, or a dropped envelope.
    Other,
}

/// Handle to a [`SeedStore`] shared between the coin rounds of one ABA.
pub type SharedSeeds = Rc<RefCell<SeedStore>>;

/// The coin's *local* messages (root instance path); all sub-protocol
/// traffic travels under the path kinds above.
#[derive(Debug, Clone)]
pub enum CoinMessage {
    /// Request to reconstruct the AVSS with the given dealer index
    /// (Alg 4 line 14).
    RecRequest {
        /// The requested AVSS index.
        index: u32,
    },
    /// The speculative largest VRF seen by the sender (line 21); `None`
    /// mirrors the `⊥` candidate of line 20.
    Candidate {
        /// `(evaluator, output, proof)` of the largest verified VRF, if any.
        candidate: Option<(u32, VrfOutput, VrfProof)>,
    },
}

impl Encode for CoinMessage {
    fn encode(&self, w: &mut Writer) {
        match self {
            CoinMessage::RecRequest { index } => {
                w.write_u8(0);
                w.write_u32(*index);
            }
            CoinMessage::Candidate { candidate } => {
                w.write_u8(1);
                candidate.encode(w);
            }
        }
    }
}

impl Decode for CoinMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(CoinMessage::RecRequest { index: r.read_u32()? }),
            1 => Ok(CoinMessage::Candidate {
                candidate: Option::<(u32, VrfOutput, VrfProof)>::decode(r)?,
            }),
            tag => Err(WireError::InvalidTag { tag: u64::from(tag), ty: "CoinMessage" }),
        }
    }
}

/// The coin's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoinOutput {
    /// The tossed bit (lowest bit of the largest verified VRF, Alg 4
    /// line 31).
    pub bit: bool,
    /// The speculative largest VRF `(evaluator, output, proof)` — the value
    /// the Election protocol commits via reliable broadcast (Alg 5 line 2).
    pub max_vrf: Option<(PartyId, VrfOutput, VrfProof)>,
}

/// One party's state machine for a single Coin instance.
pub struct Coin {
    pub(crate) sid: Sid,
    pub(crate) me: PartyId,
    keyring: Arc<Keyring>,
    secrets: Arc<PartySecrets>,
    seedings: Router<Leaf<Seeding>>,
    seeds: Vec<Option<Seed>>,
    shared_seeds: SharedSeeds,
    /// Whether this coin mounts (and publishes from) the Seeding instances.
    /// `false` for sibling rounds sharing the first round's seeds.
    seeding_owner: bool,
    /// The store's publish count when this (sibling) coin last read it.
    seen_published: usize,
    avss: Router<Leaf<Avss>>,
    completed_sharings: BTreeSet<usize>,
    core_mode: CoreSetMode,
    wcs: Wcs,
    wcs_started: bool,
    gather_rbcs: Router<Leaf<Rbc>>,
    gather_outputs: BTreeMap<usize, Vec<u32>>,
    core_set: Option<BTreeSet<usize>>,
    rec_requests_sent: bool,
    requested_indices: BTreeSet<usize>,
    candidate_sent: bool,
    candidate_senders: BTreeSet<usize>,
    /// Verified candidates: sender → (evaluator, output, proof).
    candidates: BTreeMap<usize, (usize, VrfOutput, VrfProof)>,
    /// Candidates whose evaluator seed is not yet known.
    pending_candidates: Vec<(usize, (u32, VrfOutput, VrfProof))>,
    bottom_candidates: usize,
    /// Memoised VRF verification verdicts keyed by `(evaluator, output,
    /// proof)`: with `n − f` candidate messages usually relaying the same
    /// largest VRF, each distinct tuple is verified (two engine-backed
    /// exponentiations) once instead of once per sender.  Never iterated, so
    /// the hash-map order cannot leak into the deterministic execution.
    vrf_verdicts: HashMap<(usize, VrfOutput, VrfProof), bool>,
    output: Option<CoinOutput>,
}

impl std::fmt::Debug for Coin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coin")
            .field("sid", &self.sid)
            .field("me", &self.me)
            .field("completed_sharings", &self.completed_sharings)
            .field("core_set", &self.core_set)
            .field("output", &self.output)
            .finish_non_exhaustive()
    }
}

impl Coin {
    /// Creates the Coin state machine for party `me` in instance `sid`, using
    /// the paper's weak core-set selection.
    pub fn new(sid: Sid, me: PartyId, keyring: Arc<Keyring>, secrets: Arc<PartySecrets>) -> Self {
        Self::with_core_mode(sid, me, keyring, secrets, CoreSetMode::Weak)
    }

    /// Creates the Coin with an explicit core-set selection strategy (the
    /// [`CoreSetMode::RbcGather`] variant exists as an ablation baseline).
    pub fn with_core_mode(
        sid: Sid,
        me: PartyId,
        keyring: Arc<Keyring>,
        secrets: Arc<PartySecrets>,
        core_mode: CoreSetMode,
    ) -> Self {
        let n = keyring.n();
        let store = Rc::new(RefCell::new(SeedStore { seeds: vec![None; n], published: 0 }));
        Self::build(sid, me, keyring, secrets, core_mode, store, true)
    }

    /// Creates a coin for a *later round* of the same agreement that reads
    /// the seeds an earlier round's coin publishes into `store` instead of
    /// mounting its own Seeding instances (§6.1: seeds are round-reusable).
    pub fn with_seed_store(
        sid: Sid,
        me: PartyId,
        keyring: Arc<Keyring>,
        secrets: Arc<PartySecrets>,
        store: SharedSeeds,
    ) -> Self {
        Self::build(sid, me, keyring, secrets, CoreSetMode::Weak, store, false)
    }

    /// The seed store this coin publishes to (owner) or reads from
    /// (sibling); hand it to [`Coin::with_seed_store`] to build later rounds.
    pub fn seed_store(&self) -> SharedSeeds {
        Rc::clone(&self.shared_seeds)
    }

    fn build(
        sid: Sid,
        me: PartyId,
        keyring: Arc<Keyring>,
        secrets: Arc<PartySecrets>,
        core_mode: CoreSetMode,
        shared_seeds: SharedSeeds,
        seeding_owner: bool,
    ) -> Self {
        let n = keyring.n();
        let wcs = Wcs::new(sid.derive("wcs", 0), me, keyring.clone(), secrets.clone());
        Coin {
            sid,
            me,
            keyring,
            secrets,
            seedings: Router::new(K_SEEDING),
            seeds: vec![None; n],
            shared_seeds,
            seeding_owner,
            seen_published: 0,
            avss: Router::new(K_AVSS),
            completed_sharings: BTreeSet::new(),
            core_mode,
            wcs,
            wcs_started: false,
            gather_rbcs: Router::new(K_GATHER),
            gather_outputs: BTreeMap::new(),
            core_set: None,
            rec_requests_sent: false,
            requested_indices: BTreeSet::new(),
            candidate_sent: false,
            candidate_senders: BTreeSet::new(),
            candidates: BTreeMap::new(),
            pending_candidates: Vec::new(),
            bottom_candidates: 0,
            vrf_verdicts: HashMap::new(),
            output: None,
        }
    }

    fn n(&self) -> usize {
        self.keyring.n()
    }

    fn quorum(&self) -> usize {
        self.keyring.quorum()
    }

    /// The seed produced by the Seeding instance led by party `j`, if known.
    /// (The Election protocol needs these seeds to verify broadcast VRFs.)
    pub fn seed_of(&self, j: usize) -> Option<Seed> {
        self.seeds.get(j).copied().flatten()
    }

    /// The core set `Ŝ` output by the WCS, if available.
    pub fn core_set(&self) -> Option<&BTreeSet<usize>> {
        self.core_set.as_ref()
    }

    /// The coin output, if decided.
    pub fn coin_output(&self) -> Option<&CoinOutput> {
        self.output.as_ref()
    }

    fn vrf_context(&self) -> Vec<u8> {
        let mut ctx = self.sid.as_bytes().to_vec();
        ctx.extend_from_slice(b"/coin/vrf");
        ctx
    }

    fn wcs_seg() -> PathSeg {
        PathSeg::new(K_WCS, 0)
    }

    fn local(msg: &CoinMessage) -> Envelope {
        Envelope::seal(InstancePath::root(), msg)
    }

    /// Runs all "upon"-style pending conditions of Alg 4 until no further
    /// progress is possible, collecting any messages generated along the way.
    ///
    /// Only the conditions `touched` can have changed are re-checked: a new
    /// seed comes from the touched Seeding instance (or, in a sibling, from
    /// the store once the owner has published), a completed sharing from the
    /// touched AVSS or one a new seed just spawned.  The conditions run in
    /// the same order as a full rescan would, so the outgoing messages are
    /// the same, in the same order.
    fn advance(&mut self, touched: Touched) -> Step<Envelope> {
        let mut step = Step::none();

        // Lines 4–8: seeds that became known spawn the corresponding AVSS
        // instance (as dealer of our own, as participant otherwise).  The
        // owner harvests its Seeding instances and publishes into the
        // shared store; sibling rounds read the store.  Nothing later in
        // this call can produce a seed, so this runs once.
        let mut fresh: Vec<usize> = match touched {
            Touched::Avss(j) => vec![j],
            _ => Vec::new(),
        };
        let leaders = if self.seeding_owner {
            match touched {
                Touched::All => 0..self.n(),
                Touched::Seeding(j) => j..j + 1,
                _ => 0..0,
            }
        } else {
            let published = self.shared_seeds.borrow().published;
            if published == self.seen_published {
                0..0
            } else {
                self.seen_published = published;
                0..self.n()
            }
        };
        for j in leaders {
            if self.seeds[j].is_some() {
                continue;
            }
            let seed = if self.seeding_owner {
                let seed = self.seedings.get(j).and_then(|s| s.inner().seed());
                if let Some(seed) = seed {
                    self.shared_seeds.borrow_mut().publish(j, seed);
                }
                seed
            } else {
                self.shared_seeds.borrow().seeds[j]
            };
            if let Some(seed) = seed {
                self.seeds[j] = Some(seed);
                step.extend(self.spawn_avss(j));
                fresh.push(j);
            }
        }
        fresh.sort_unstable();
        fresh.dedup();
        // Reconstructions can become due when Ŝ, a request or a sharing
        // output appears.
        let mut rec_due = matches!(touched, Touched::Local) || !fresh.is_empty();

        loop {
            let mut progressed = false;

            // Lines 9–12: record completed sharings, feed the core-set
            // selection, start it at n − f completions.
            for j in std::mem::take(&mut fresh) {
                let completed = self
                    .avss
                    .get(j)
                    .map(|a| a.inner().sharing_output().is_some())
                    .unwrap_or(false);
                if completed && self.completed_sharings.insert(j) {
                    if self.core_mode == CoreSetMode::Weak {
                        step.extend(sealed_step(Self::wcs_seg(), self.wcs.add_index(j)));
                    }
                    progressed = true;
                }
            }
            if !self.wcs_started && self.completed_sharings.len() >= self.quorum() {
                self.wcs_started = true;
                match self.core_mode {
                    CoreSetMode::Weak => {
                        step.extend(sealed_step(Self::wcs_seg(), self.wcs.start()));
                    }
                    CoreSetMode::RbcGather => {
                        let me = self.me.index();
                        let set: Vec<u32> =
                            self.completed_sharings.iter().map(|i| *i as u32).collect();
                        let bytes = setupfree_wire::to_bytes(&set);
                        let seg = self.gather_rbcs.seg(me);
                        let rbc_step = self
                            .gather_rbcs
                            .get_mut(me)
                            .expect("own gather RBC exists from activation")
                            .inner_mut()
                            .provide_input(bytes);
                        step.extend(sealed_step(seg, rbc_step));
                    }
                }
                progressed = true;
            }

            // Lines 13–14: the core-set selection fixes Ŝ; request
            // reconstructions.
            if self.core_set.is_none() {
                match self.core_mode {
                    CoreSetMode::Weak => {
                        if let Some(s_hat) = self.wcs.output_set().cloned() {
                            self.core_set = Some(s_hat);
                            rec_due = true;
                            progressed = true;
                        }
                    }
                    CoreSetMode::RbcGather => {
                        for j in 0..self.n() {
                            if self.gather_outputs.contains_key(&j) {
                                continue;
                            }
                            if let Some(bytes) = self.gather_rbcs.get(j).and_then(|r| r.inner().output()) {
                                if let Ok(set) = setupfree_wire::from_bytes::<Vec<u32>>(&bytes) {
                                    if set.len() >= self.quorum()
                                        && set.iter().all(|i| (*i as usize) < self.n())
                                    {
                                        self.gather_outputs.insert(j, set);
                                        progressed = true;
                                    }
                                }
                            }
                        }
                        if self.gather_outputs.len() >= self.quorum() {
                            let union: BTreeSet<usize> = self
                                .gather_outputs
                                .values()
                                .flat_map(|s| s.iter().map(|i| *i as usize))
                                .collect();
                            self.core_set = Some(union);
                            rec_due = true;
                            progressed = true;
                        }
                    }
                }
            }
            if !self.rec_requests_sent {
                if let Some(s_hat) = &self.core_set {
                    self.rec_requests_sent = true;
                    for k in s_hat {
                        step.push_multicast(Self::local(&CoinMessage::RecRequest {
                            index: *k as u32,
                        }));
                    }
                    progressed = true;
                }
            }

            // Lines 22–24: start reconstruction for requested indices once the
            // preconditions hold (Ŝ fixed and the sharing completed locally).
            if rec_due && self.core_set.is_some() {
                rec_due = false;
                for &k in &self.requested_indices {
                    let seg = self.avss.seg(k);
                    if let Some(avss) = self.avss.get_mut(k) {
                        let avss = avss.inner_mut();
                        if avss.sharing_output().is_some() && !avss.reconstruction_started() {
                            step.extend(sealed_step(seg, avss.start_reconstruction()));
                            progressed = true;
                        }
                    }
                }
            }

            // Lines 15–21: once every AVSS in Ŝ reconstructed, pick and
            // multicast the largest verified VRF.
            if !self.candidate_sent {
                if let Some(candidate_step) = self.try_send_candidate() {
                    step.extend(candidate_step);
                    progressed = true;
                }
            }

            // Line 27: candidates whose evaluator seed just became known.
            if !self.pending_candidates.is_empty() {
                let pending = std::mem::take(&mut self.pending_candidates);
                for (sender, cand) in pending {
                    if self.seeds[cand.0 as usize].is_some() {
                        self.accept_candidate(sender, cand);
                        progressed = true;
                    } else {
                        self.pending_candidates.push((sender, cand));
                    }
                }
            }

            // Lines 29–31: decide.
            if self.output.is_none()
                && self.candidates.len() + self.bottom_candidates >= self.quorum()
            {
                self.decide();
                progressed = true;
            }

            if !progressed {
                break;
            }
        }
        step
    }

    fn spawn_avss(&mut self, dealer: usize) -> Step<Envelope> {
        let seed = self.seeds[dealer].expect("spawn_avss requires the dealer's seed");
        let secret = if dealer == self.me.index() {
            // Line 6: evaluate our VRF on our own seed and share it.
            let (output, proof) = self.secrets.vrf.eval(&self.vrf_context(), &seed);
            Some(setupfree_wire::to_bytes(&(output, proof)))
        } else {
            None
        };
        let avss = Avss::new(
            self.sid.derive("avss", dealer),
            self.me,
            PartyId(dealer),
            self.keyring.clone(),
            self.secrets.clone(),
            secret,
        );
        // Line 7–8: traffic that arrived before the seed was known sits in
        // the router's pre-activation buffer and is replayed here.
        self.avss.insert(dealer, Leaf::new(avss))
    }

    /// Verifies the VRF evaluation `(output, proof)` of `evaluator` on its
    /// seed, memoising the verdict: repeated relays of the same candidate
    /// tuple (the common case — every party multicasts the largest VRF it
    /// saw) cost one lookup instead of a fresh DLEQ check.
    fn verify_vrf_memo(&mut self, evaluator: usize, output: &VrfOutput, proof: &VrfProof) -> bool {
        let Some(seed) = self.seeds[evaluator] else { return false };
        let key = (evaluator, *output, *proof);
        if let Some(ok) = self.vrf_verdicts.get(&key) {
            return *ok;
        }
        let ok = self.keyring.vrf_key(evaluator).verify(&self.vrf_context(), &seed, output, proof);
        self.vrf_verdicts.insert(key, ok);
        ok
    }

    fn try_send_candidate(&mut self) -> Option<Step<Envelope>> {
        // Wait until every AVSS in Ŝ has been reconstructed locally.
        let s_hat = self.core_set.as_ref()?;
        let avss = &self.avss;
        if !s_hat.iter().all(|k| avss.get(*k).and_then(|a| a.inner().reconstructed()).is_some()) {
            return None;
        }
        let s_hat: Vec<usize> = s_hat.iter().copied().collect();
        // Verify each revealed VRF against its dealer's seed (line 17); the
        // verdicts are memoised so the candidates multicast back to us later
        // do not pay a second verification.
        let mut best: Option<(usize, VrfOutput, VrfProof)> = None;
        for k in &s_hat {
            if self.seeds[*k].is_none() {
                continue;
            }
            let decoded = self
                .avss
                .get(*k)
                .and_then(|a| a.inner().reconstructed())
                .and_then(|bytes| setupfree_wire::from_bytes::<(VrfOutput, VrfProof)>(bytes).ok());
            let Some((output, proof)) = decoded else { continue };
            if !self.verify_vrf_memo(*k, &output, &proof) {
                continue;
            }
            let better = match &best {
                Some((_, cur, _)) => output > *cur,
                None => true,
            };
            if better {
                best = Some((*k, output, proof));
            }
        }
        self.candidate_sent = true;
        let candidate = best.map(|(k, o, p)| (k as u32, o, p));
        Some(Step::multicast(Self::local(&CoinMessage::Candidate { candidate })))
    }

    fn accept_candidate(&mut self, sender: usize, cand: (u32, VrfOutput, VrfProof)) {
        let (evaluator, output, proof) = cand;
        let evaluator = evaluator as usize;
        if evaluator >= self.n() {
            return;
        }
        if self.seeds[evaluator].is_none() {
            return;
        }
        if self.verify_vrf_memo(evaluator, &output, &proof) {
            self.candidates.insert(sender, (evaluator, output, proof));
        } else {
            // An invalid candidate still counts towards the n − f arrival
            // threshold (the sender is necessarily faulty); treat it as ⊥.
            self.bottom_candidates += 1;
        }
    }

    fn decide(&mut self) {
        let best = self
            .candidates
            .values()
            .max_by(|a, b| a.1.cmp(&b.1))
            .map(|(evaluator, output, proof)| (PartyId(*evaluator), *output, *proof));
        let bit = best.as_ref().map(|(_, output, _)| output.lowest_bit()).unwrap_or(false);
        setupfree_obs::phase(setupfree_obs::Phase::CoinRevealed, bit as u32);
        self.output = Some(CoinOutput { bit, max_vrf: best });
    }

    fn on_local(&mut self, from: PartyId, msg: CoinMessage) {
        match msg {
            CoinMessage::RecRequest { index } => {
                let index = index as usize;
                if index < self.n() {
                    self.requested_indices.insert(index);
                }
            }
            CoinMessage::Candidate { candidate } => {
                if self.candidate_senders.insert(from.index()) {
                    match candidate {
                        None => self.bottom_candidates += 1,
                        Some(cand) => {
                            if self.seeds.get(cand.0 as usize).copied().flatten().is_some() {
                                self.accept_candidate(from.index(), cand);
                            } else {
                                // Verification "implicitly waits" for the seed
                                // (line 27): buffer until the seed arrives.
                                self.pending_candidates.push((from.index(), cand));
                            }
                        }
                    }
                }
            }
        }
    }

    /// Re-runs the pending conditions of a sibling round whose progress the
    /// owner round may have unblocked by publishing seeds into the shared
    /// store, without any envelope of this round arriving.  Nothing else
    /// reaches a coin out of band, so the conditions are re-run only after a
    /// publish: the owner and an up-to-date sibling return at once.
    pub fn poke(&mut self) -> Step<Envelope> {
        if self.seeding_owner || self.shared_seeds.borrow().published == self.seen_published {
            return Step::none();
        }
        self.advance(Touched::Other)
    }
}

impl ProtocolInstance for Coin {
    type Message = Envelope;
    type Output = CoinOutput;

    fn on_activation(&mut self) -> Step<Envelope> {
        // Line 3: mount and activate all Seeding instances (leading our own)
        // and the gather RBCs of the ablation mode (quiescent under Weak).
        // Sibling rounds mount no seedings — their seeds arrive through the
        // shared store.
        let mut step = Step::none();
        if self.seeding_owner {
            for j in 0..self.n() {
                let seeding = Seeding::new(
                    self.sid.derive("seeding", j),
                    self.me,
                    PartyId(j),
                    self.keyring.clone(),
                    self.secrets.clone(),
                );
                step.extend(self.seedings.insert(j, Leaf::new(seeding)));
            }
        }
        for j in 0..self.n() {
            let rbc = Rbc::new(
                self.sid.derive("gather", j),
                self.me,
                self.n(),
                self.keyring.f(),
                PartyId(j),
                None,
            );
            step.extend(self.gather_rbcs.insert(j, Leaf::new(rbc)));
        }
        step.extend(self.advance(Touched::All));
        step
    }

    fn on_message(&mut self, from: PartyId, msg: Envelope) -> Step<Envelope> {
        if from.index() >= self.n() {
            return Step::none();
        }
        let (mut step, touched) = match msg.path.split_first() {
            None => {
                if let Some(local) = decode_payload::<CoinMessage>(&msg.payload) {
                    self.on_local(from, local);
                }
                (Step::none(), Touched::Local)
            }
            Some((seg, path)) => {
                let index = seg.index as usize;
                let child = Envelope { path, payload: msg.payload };
                match seg.kind {
                    // Sibling rounds never mount Seeding instances; honest
                    // parties never address seeding traffic to them, so it
                    // is Byzantine and dropped outright (buffering it would
                    // leak — nothing ever mounts).
                    K_SEEDING if index < self.n() && self.seeding_owner => {
                        (self.seedings.route(from, seg.index, child), Touched::Seeding(index))
                    }
                    K_AVSS if index < self.n() => {
                        (self.avss.route(from, seg.index, child), Touched::Avss(index))
                    }
                    K_WCS if path.is_root() && index == 0 => {
                        // The WCS is held directly, not in a router: push its
                        // trace path here so its phases land on its span.
                        let _trace = setupfree_obs::PathGuard::push(K_WCS, 0);
                        let step = match decode_payload(&child.payload) {
                            Some(wcs_msg) => {
                                sealed_step(Self::wcs_seg(), self.wcs.handle(from, wcs_msg))
                            }
                            None => Step::none(),
                        };
                        (step, Touched::Other)
                    }
                    K_GATHER if index < self.n() => {
                        (self.gather_rbcs.route(from, seg.index, child), Touched::Other)
                    }
                    _ => (Step::none(), Touched::Other),
                }
            }
        };
        step.extend(self.advance(touched));
        step
    }

    fn output(&self) -> Option<CoinOutput> {
        self.output.clone()
    }

    fn pre_activation_stats(&self) -> setupfree_net::BufferStats {
        self.seedings.stats().merge(self.avss.stats()).merge(self.gather_rbcs.stats())
    }
}

/// Factory producing full [`Coin`] instances for a fixed party — the
/// private-setup-free coin of this paper, pluggable into any ABA via
/// [`crate::traits::CoinFactory`].
#[derive(Debug, Clone)]
pub struct CoinProtocolFactory {
    me: PartyId,
    keyring: Arc<Keyring>,
    secrets: Arc<PartySecrets>,
}

impl CoinProtocolFactory {
    /// Creates a factory for party `me`.
    pub fn new(me: PartyId, keyring: Arc<Keyring>, secrets: Arc<PartySecrets>) -> Self {
        CoinProtocolFactory { me, keyring, secrets }
    }
}

impl crate::traits::CoinFactory for CoinProtocolFactory {
    type Instance = Coin;

    fn create(&self, sid: Sid) -> Coin {
        Coin::new(sid, self.me, self.keyring.clone(), self.secrets.clone())
    }

    fn create_sibling(&self, sid: Sid, first: &Coin) -> Coin {
        // Later rounds of the same ABA reuse the first round's seeds (§6.1)
        // instead of re-running the n Seeding instances.
        Coin::with_seed_store(
            sid,
            self.me,
            self.keyring.clone(),
            self.secrets.clone(),
            first.seed_store(),
        )
    }

    fn poke(&self, coin: &mut Coin) -> Step<Envelope> {
        coin.poke()
    }
}

impl crate::traits::HasParty for CoinProtocolFactory {
    fn party(&self) -> PartyId {
        self.me
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setupfree_crypto::generate_pki;
    use setupfree_net::{
        BoxedParty, FifoScheduler, RandomScheduler, SilentParty, Simulation, StopReason,
        TargetedDelayScheduler,
    };

    fn setup(n: usize, seed: u64) -> (Arc<Keyring>, Vec<Arc<PartySecrets>>) {
        let (keyring, secrets) = generate_pki(n, seed);
        (Arc::new(keyring), secrets.into_iter().map(Arc::new).collect())
    }

    fn coin_parties(
        n: usize,
        sid: &str,
        keyring: &Arc<Keyring>,
        secrets: &[Arc<PartySecrets>],
    ) -> Vec<BoxedParty<Envelope, CoinOutput>> {
        (0..n)
            .map(|i| {
                Box::new(Coin::new(Sid::new(sid), PartyId(i), keyring.clone(), secrets[i].clone()))
                    as BoxedParty<Envelope, CoinOutput>
            })
            .collect()
    }

    #[test]
    fn all_honest_parties_output_under_fifo() {
        let n = 4;
        let (keyring, secrets) = setup(n, 1);
        let mut sim = Simulation::new(
            coin_parties(n, "coin-fifo", &keyring, &secrets),
            Box::new(FifoScheduler::default()),
        );
        let report = sim.run(10_000_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
        let outs: Vec<CoinOutput> = sim.outputs().into_iter().flatten().collect();
        assert_eq!(outs.len(), n);
        // Under FIFO (benign) scheduling every party sees the same candidates,
        // so the outputs agree.
        assert!(outs.windows(2).all(|w| w[0].bit == w[1].bit));
        assert!(outs.iter().all(|o| o.max_vrf.is_some()));
    }

    #[test]
    fn agreement_frequency_exceeds_one_third() {
        // Lemma 10/12: with probability ≥ 1/3 all honest parties output the
        // same (unpredictable) bit.  Measure the empirical agreement rate
        // under adversarial random scheduling across sessions.
        let n = 4;
        let (keyring, secrets) = setup(n, 2);
        let trials = 12;
        let mut agreements = 0;
        for t in 0..trials {
            let sid = format!("coin-trial-{t}");
            let mut sim = Simulation::new(
                coin_parties(n, &sid, &keyring, &secrets),
                Box::new(RandomScheduler::new(1000 + t)),
            );
            let report = sim.run(10_000_000);
            assert_eq!(report.reason, StopReason::AllOutputs, "trial {t}");
            let outs: Vec<CoinOutput> = sim.outputs().into_iter().flatten().collect();
            if outs.windows(2).all(|w| w[0].bit == w[1].bit) {
                agreements += 1;
            }
        }
        assert!(
            agreements * 3 >= trials,
            "agreement rate {agreements}/{trials} below the 1/3 bound"
        );
    }

    #[test]
    fn tolerates_f_silent_parties() {
        let n = 4;
        let (keyring, secrets) = setup(n, 3);
        let mut parties = coin_parties(n, "coin-crash", &keyring, &secrets);
        parties[3] = Box::new(SilentParty::new());
        let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(7)));
        sim.mark_byzantine(PartyId(3));
        let report = sim.run(10_000_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
        assert!(sim.outputs().into_iter().take(3).all(|o| o.is_some()));
    }

    #[test]
    fn targeted_delay_of_one_party_does_not_block_termination() {
        let n = 4;
        let (keyring, secrets) = setup(n, 4);
        let mut sim = Simulation::new(
            coin_parties(n, "coin-delay", &keyring, &secrets),
            Box::new(TargetedDelayScheduler::new(vec![PartyId(2)], 5)),
        );
        let report = sim.run(10_000_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
    }

    #[test]
    fn coin_bits_are_not_constant_across_sessions() {
        let n = 4;
        let (keyring, secrets) = setup(n, 5);
        let mut bits = Vec::new();
        for t in 0..6 {
            let sid = format!("coin-bits-{t}");
            let mut sim = Simulation::new(
                coin_parties(n, &sid, &keyring, &secrets),
                Box::new(FifoScheduler::default()),
            );
            sim.run(10_000_000);
            bits.push(sim.outputs()[0].clone().unwrap().bit);
        }
        assert!(bits.iter().any(|b| *b) && bits.iter().any(|b| !*b), "bits {bits:?} look constant");
    }

    #[test]
    fn message_wire_roundtrip() {
        let (keyring, secrets) = setup(4, 6);
        let mut coin = Coin::new(Sid::new("wire"), PartyId(0), keyring, secrets[0].clone());
        let step = coin.on_activation();
        assert!(!step.is_empty());
        for o in step.outgoing.iter().take(10) {
            let bytes = setupfree_wire::to_bytes(&o.msg);
            let decoded = setupfree_wire::from_bytes::<Envelope>(&bytes).unwrap();
            // Round-trip must preserve the encoding exactly.
            assert_eq!(setupfree_wire::to_bytes(&decoded), bytes);
            assert_eq!(decoded, o.msg);
        }
        let rr = Coin::local(&CoinMessage::RecRequest { index: 3 });
        assert_eq!(setupfree_wire::from_bytes::<Envelope>(&setupfree_wire::to_bytes(&rr)).unwrap(), rr);
    }

    #[test]
    fn misrouted_and_malformed_envelopes_are_dropped() {
        let (keyring, secrets) = setup(4, 8);
        let mut coin = Coin::new(Sid::new("drop"), PartyId(0), keyring, secrets[0].clone());
        let _ = coin.on_activation();
        // Unknown kind.
        let stray = Envelope::seal(InstancePath::of(PathSeg::new(200, 0)), &1u8);
        assert!(coin.on_message(PartyId(1), stray).is_empty());
        // Out-of-range seeding index.
        let oob = Envelope::seal(InstancePath::of(PathSeg::new(K_SEEDING, 99)), &1u8);
        assert!(coin.on_message(PartyId(1), oob).is_empty());
        // Malformed local payload.
        let junk = Envelope { path: InstancePath::root(), payload: vec![99u8, 1, 2].into() };
        assert!(coin.on_message(PartyId(1), junk).is_empty());
    }

    #[test]
    fn sibling_coin_shares_seeds_without_seeding_traffic() {
        use crate::traits::CoinFactory as _;
        let (keyring, secrets) = setup(4, 9);
        let factory = CoinProtocolFactory::new(PartyId(0), keyring, secrets[0].clone());
        let mut owner = factory.create(Sid::new("shared").derive("coin", 0));
        let owner_step = owner.on_activation();
        // The owner round runs the seedings (its activation contributes).
        assert!(!owner_step.is_empty());

        let mut sibling = factory.create_sibling(Sid::new("shared").derive("coin", 1), &owner);
        let sibling_step = sibling.on_activation();
        // A sibling mounts no Seeding instances: it is quiescent until the
        // owner publishes seeds into the shared store.
        assert!(sibling_step.is_empty());
        assert!(sibling.seed_of(2).is_none());

        // Seeding traffic addressed to a sibling is dropped, not buffered.
        let stray = Envelope::seal(InstancePath::of(PathSeg::new(K_SEEDING, 2)), &1u8);
        assert!(sibling.on_message(PartyId(1), stray).is_empty());
        assert_eq!(sibling.pre_activation_stats().buffered, 0);

        // Once the owner's store learns a seed, a poke surfaces it in the
        // sibling (and spawns the dealer's AVSS — the step is non-empty for
        // our own dealer index because we share our VRF evaluation).
        owner.seed_store().borrow_mut().publish(0, [7u8; 32]);
        let step = factory.poke(&mut sibling);
        assert_eq!(sibling.seed_of(0), Some([7u8; 32]));
        assert!(!step.is_empty());
    }

    #[test]
    fn factory_builds_instances_for_fresh_sessions() {
        use crate::traits::CoinFactory as _;
        let (keyring, secrets) = setup(4, 7);
        let factory = CoinProtocolFactory::new(PartyId(1), keyring, secrets[1].clone());
        let a = factory.create(Sid::new("a"));
        let b = factory.create(Sid::new("b"));
        assert_eq!(a.me, PartyId(1));
        assert_ne!(a.sid, b.sid);
    }
}
