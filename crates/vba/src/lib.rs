//! Validated (multi-valued) asynchronous Byzantine agreement — VBA, §7.2.
//!
//! The paper's point is that its leader-election primitive (Alg 5) can be
//! plugged into the existing VBA frameworks [16, 5, 52] to remove their
//! private setup.  This crate implements the classic Cachin–Kursawe–Petzold–
//! Shoup style VBA skeleton and makes both randomized components pluggable:
//!
//! * proposals are disseminated by *consistent broadcast* (a signature quorum
//!   guarantees per-proposer value uniqueness and external validity),
//! * once `n − f` proposals are committed, repeated rounds elect a random
//!   leader with the plugged [`ElectionFactory`] (the paper's Election, or
//!   any other), forward the leader's committed proposal, and run a plugged
//!   binary agreement on whether to accept it,
//! * the first accepted leader's value is the common output.
//!
//! The per-round elections and vote-ABAs are mounted in session
//! [`Router`]s ([`K_ELECTION`] and [`K_VOTE_ABA`], keyed by round); the
//! routers' bounded pre-activation buffers hold traffic for rounds this
//! party has not reached yet (replacing the former hand-rolled
//! `election_buffer`/`aba_buffer` pair).  The VBA's own
//! `Propose`/`Ack`/`Confirm`/`Vote` messages travel at the root path.
//!
//! Properties (Definition 7): termination in expected `O(1)` election rounds,
//! agreement, and external validity.  With the paper's Election and ABA the
//! whole construction is private-setup free and costs expected `O(λn³)` bits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use setupfree_core::committee::Committee;
use setupfree_core::election::ElectionOutput;
use setupfree_core::traits::{AbaFactory, ElectionFactory};
use setupfree_crypto::hash::sha256;
use setupfree_crypto::sig::{QuorumCert, Signature};
use setupfree_crypto::{Keyring, PartySecrets};
use setupfree_net::mux::{committee_cap, composite_cap, decode_payload, Envelope, InstancePath};
use setupfree_net::{PartyId, ProtocolInstance, Router, Sid, Step, VoteTally};
use setupfree_wire::{Decode, Encode, Reader, WireError, Writer};

/// Path kind of the per-round election instances (keyed by round).
pub const K_ELECTION: u8 = 0;
/// Path kind of the per-round vote-ABA instances (keyed by round).
pub const K_VOTE_ABA: u8 = 1;

/// A transferable quorum certificate: one aggregated signature over a
/// proposer's value from `n − f` distinct parties (`m − f_c` members in
/// committee mode).  The paper replaces threshold signatures by signature
/// concatenations in the PKI setting (§7.2); we aggregate those
/// concatenations into a constant-size Schnorr half-aggregate plus a signer
/// bitmap.
pub type Cert = QuorumCert;

/// The external validity predicate `Q_ID` (Definition 7).
pub type Predicate = Arc<dyn Fn(&[u8]) -> bool + Send + Sync>;

/// Wire tag of [`VbaMessage::Confirm`]; its proposer index follows it.
const CONFIRM_TAG: u8 = 2;

/// The proposer a `Confirm` encoding names, read from its header without
/// decoding the value or the certificate; `None` for any other message.
fn confirm_proposer(bytes: &[u8]) -> Option<usize> {
    let mut r = Reader::new(bytes);
    (r.read_u8().ok()? == CONFIRM_TAG).then(|| r.read_u32().ok().map(|p| p as usize))?
}

/// The VBA's *local* messages (root instance path); election and vote-ABA
/// traffic travels under the path kinds above.
#[derive(Debug, Clone)]
pub enum VbaMessage {
    /// A proposer's value (consistent-broadcast send).
    Propose {
        /// The proposed value.
        value: Vec<u8>,
    },
    /// Acknowledgement signature for a proposer's value.
    Ack {
        /// Whose proposal is acknowledged.
        proposer: u32,
        /// Signature over `(proposer, H(value))`.
        signature: Signature,
    },
    /// A proposer's commit certificate for its value.
    Confirm {
        /// The proposer.
        proposer: u32,
        /// The proposed value.
        value: Vec<u8>,
        /// `n − f` acknowledgement signatures.
        cert: Cert,
    },
    /// Forwarding of the elected leader's committed proposal (or `None`).
    Vote {
        /// Election round.
        round: u32,
        /// The leader's `Confirm` message, byte for byte, if committed here.
        confirm: Option<Vec<u8>>,
    },
    /// Committee mode only: a member announces its decided value to all `n`
    /// parties so non-members can adopt it.  A value is adopted once
    /// `f_c + 1` distinct members announced it (at least one honest, and
    /// honest members only announce their actual output).  Never sent — and
    /// ignored — in all-to-all mode.
    Decide {
        /// The decided value.
        value: Vec<u8>,
    },
}

impl Encode for VbaMessage {
    fn encode(&self, w: &mut Writer) {
        match self {
            VbaMessage::Propose { value } => {
                w.write_u8(0);
                value.encode(w);
            }
            VbaMessage::Ack { proposer, signature } => {
                w.write_u8(1);
                w.write_u32(*proposer);
                signature.encode(w);
            }
            VbaMessage::Confirm { proposer, value, cert } => {
                w.write_u8(CONFIRM_TAG);
                w.write_u32(*proposer);
                value.encode(w);
                cert.encode(w);
            }
            VbaMessage::Vote { round, confirm } => {
                w.write_u8(3);
                w.write_u32(*round);
                confirm.encode(w);
            }
            VbaMessage::Decide { value } => {
                w.write_u8(4);
                value.encode(w);
            }
        }
    }
}

impl Decode for VbaMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(VbaMessage::Propose { value: Vec::<u8>::decode(r)? }),
            1 => Ok(VbaMessage::Ack { proposer: r.read_u32()?, signature: Signature::decode(r)? }),
            CONFIRM_TAG => Ok(VbaMessage::Confirm {
                proposer: r.read_u32()?,
                value: Vec::<u8>::decode(r)?,
                cert: Cert::decode(r)?,
            }),
            3 => Ok(VbaMessage::Vote { round: r.read_u32()?, confirm: Option::decode(r)? }),
            4 => Ok(VbaMessage::Decide { value: Vec::<u8>::decode(r)? }),
            tag => Err(WireError::InvalidTag { tag: u64::from(tag), ty: "VbaMessage" }),
        }
    }
}

/// Per-election-round state (the round's election and ABA instances live in
/// their routers).
#[derive(Debug, Default)]
struct RoundState {
    leader: Option<PartyId>,
    vote_sent: bool,
    votes_from: BTreeSet<usize>,
    aba_input_cast: bool,
    aba_result: Option<bool>,
}

/// One party's state machine for a single VBA instance.
///
/// # Committee mode
///
/// Parameterised by a [`Committee`], like the ABA.  Under
/// [`Committee::full`] (the [`Vba::new`] default) this is the classic
/// all-to-all protocol, bit-identical.  Under a proper committee
/// ([`Vba::with_committee`]):
///
/// * only **members** propose, acknowledge, confirm and vote, and all four
///   exchanges fan out to members only; certificates carry
///   `m − f_c` *member* signatures (non-member signatures are rejected);
/// * the plugged election's leader (over `0..n`) is mapped onto a member
///   via [`Committee::member_at`], and the per-round vote-ABA should be a
///   committee ABA over the *same* committee
///   ([`MmrAbaFactory::with_committee`](setupfree_aba::MmrAbaFactory));
/// * a member that outputs multicasts [`VbaMessage::Decide`] to all `n`
///   parties; **non-members** send nothing and adopt a value announced by
///   `f_c + 1` distinct members.
pub struct Vba<EF: ElectionFactory, AF: AbaFactory> {
    sid: Sid,
    me: PartyId,
    keyring: Arc<Keyring>,
    secrets: Arc<PartySecrets>,
    predicate: Predicate,
    input: Vec<u8>,
    committee: Committee,
    election_factory: EF,
    aba_factory: AF,
    /// Parties we have acknowledged (first proposal only).
    acked: BTreeSet<usize>,
    /// Raw acknowledgement signatures collected on our own proposal,
    /// aggregated into a [`Cert`] once the quorum completes.
    own_cert: Vec<(usize, Signature)>,
    own_cert_from: BTreeSet<usize>,
    confirm_sent: bool,
    /// Committed proposals: proposer → its verified `Confirm`, as received.
    committed: BTreeMap<usize, Arc<[u8]>>,
    rounds: BTreeMap<u32, RoundState>,
    elections: Router<EF::Instance>,
    abas: Router<AF::Instance>,
    current_round: u32,
    election_started: bool,
    /// Committee mode: each member's first announced decision.
    decides: VoteTally<Vec<u8>>,
    decide_sent: bool,
    output: Option<Vec<u8>>,
    max_rounds: u32,
}

impl<EF: ElectionFactory, AF: AbaFactory> std::fmt::Debug for Vba<EF, AF> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vba")
            .field("sid", &self.sid)
            .field("me", &self.me)
            .field("committed", &self.committed.keys().collect::<Vec<_>>())
            .field("current_round", &self.current_round)
            .field("output", &self.output.is_some())
            .finish_non_exhaustive()
    }
}

impl<EF: ElectionFactory, AF: AbaFactory> Vba<EF, AF> {
    /// Creates the VBA state machine for party `me` with the given input and
    /// external-validity predicate.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        sid: Sid,
        me: PartyId,
        keyring: Arc<Keyring>,
        secrets: Arc<PartySecrets>,
        input: Vec<u8>,
        predicate: Predicate,
        election_factory: EF,
        aba_factory: AF,
    ) -> Self {
        let n = keyring.n();
        Self::with_committee(
            sid,
            me,
            keyring,
            secrets,
            input,
            predicate,
            election_factory,
            aba_factory,
            Committee::full(n),
        )
    }

    /// Creates the VBA state machine running inside `committee` (see the
    /// type-level docs for member / listener roles).  The vote-ABA factory
    /// should build committee ABAs over the same committee.
    #[allow(clippy::too_many_arguments)]
    pub fn with_committee(
        sid: Sid,
        me: PartyId,
        keyring: Arc<Keyring>,
        secrets: Arc<PartySecrets>,
        input: Vec<u8>,
        predicate: Predicate,
        election_factory: EF,
        aba_factory: AF,
        committee: Committee,
    ) -> Self {
        let n = keyring.n();
        assert_eq!(committee.n(), n, "committee sampled over a different party set");
        let cap = if committee.is_proper() {
            committee_cap(committee.size())
        } else {
            composite_cap(n)
        };
        Vba {
            sid,
            me,
            keyring,
            secrets,
            predicate,
            input,
            committee,
            election_factory,
            aba_factory,
            acked: BTreeSet::new(),
            own_cert: Vec::new(),
            own_cert_from: BTreeSet::new(),
            confirm_sent: false,
            committed: BTreeMap::new(),
            rounds: BTreeMap::new(),
            elections: Router::with_cap(K_ELECTION, cap),
            abas: Router::with_cap(K_VOTE_ABA, cap),
            current_round: 0,
            election_started: false,
            decides: VoteTally::new(n),
            decide_sent: false,
            output: None,
            max_rounds: 32,
        }
    }

    fn n(&self) -> usize {
        self.keyring.n()
    }

    fn quorum(&self) -> usize {
        if self.committee.is_proper() {
            self.committee.quorum()
        } else {
            self.keyring.quorum()
        }
    }

    /// The committee this instance runs in.
    pub fn committee(&self) -> &Committee {
        &self.committee
    }

    /// Whether this party actively runs the protocol.
    fn is_member(&self) -> bool {
        self.committee.is_member(self.me)
    }

    /// Whether a protocol exchange with `from` is part of the active run:
    /// both endpoints must be members (always true under a full committee).
    fn active_exchange(&self, from: PartyId) -> bool {
        self.is_member() && self.committee.is_member(from)
    }

    /// Fans a protocol message out to the active participants.
    fn fan(&self, step: &mut Step<Envelope>, env: Envelope) {
        self.committee.fan_out(step, env);
    }

    /// The round the party is currently working on (diagnostics).
    pub fn round(&self) -> u32 {
        self.current_round
    }

    fn local(msg: &VbaMessage) -> Envelope {
        Envelope::seal(InstancePath::root(), msg)
    }

    fn ack_context(&self, proposer: usize) -> Vec<u8> {
        let mut ctx = self.sid.as_bytes().to_vec();
        ctx.extend_from_slice(b"/vba/ack/");
        ctx.extend_from_slice(&(proposer as u64).to_le_bytes());
        ctx
    }

    fn verify_cert(&self, proposer: usize, value: &[u8], cert: &Cert) -> bool {
        // The declared quorum must meet this instance's quorum (`verify` only
        // enforces signer_count ≥ the certificate's own declared quorum).
        if cert.quorum() < self.quorum() {
            return false;
        }
        let ctx = self.ack_context(proposer);
        let digest = sha256(value);
        if self.committee.is_proper() {
            // Committee mode: only member acknowledgements carry weight — a
            // quorum padded with non-member signatures must not verify.
            let members: Vec<usize> =
                self.committee.members().iter().map(|p| p.index()).collect();
            cert.verify_within(self.keyring.sig_key_slice(), &members, &ctx, &digest)
        } else {
            cert.verify(self.keyring.sig_key_slice(), &ctx, &digest)
        }
    }

    fn round_state(&mut self, round: u32) -> &mut RoundState {
        self.rounds.entry(round).or_default()
    }

    /// Drives every pending condition to quiescence.
    fn advance(&mut self) -> Step<Envelope> {
        if !self.is_member() {
            // Listeners run no pipeline; they adopt through `Decide`.
            return Step::none();
        }
        let mut step = Step::none();
        loop {
            let mut progressed = false;

            // Start the first election round once a quorum of proposals
            // committed (n − f all-to-all, m − f_c inside a committee).
            if !self.election_started && self.committed.len() >= self.quorum() {
                self.election_started = true;
                step.extend(self.start_round(0));
                progressed = true;
            }

            if self.election_started && self.output.is_none() {
                let round = self.current_round;
                // Election decided → send our Vote.
                let election_output =
                    self.elections.get(round as usize).and_then(|e| e.output());
                let leader = {
                    // The plugged election elects over 0..n; map the index
                    // onto a member (identity when full).
                    let mapped = election_output
                        .map(|out| self.committee.member_at(out.leader.index()));
                    let state = self.round_state(round);
                    if state.leader.is_none() {
                        state.leader = mapped;
                    }
                    state.leader
                };
                if let Some(leader) = leader {
                    let state_vote_sent = self.round_state(round).vote_sent;
                    if !state_vote_sent {
                        self.round_state(round).vote_sent = true;
                        let confirm = self.committed.get(&leader.index()).map(|c| c.to_vec());
                        self.fan(&mut step, Self::local(&VbaMessage::Vote { round, confirm }));
                        progressed = true;
                    }
                    // Enough votes → cast ABA input.
                    let votes = self.round_state(round).votes_from.len();
                    let input_cast = self.round_state(round).aba_input_cast;
                    if !input_cast && votes >= self.quorum() {
                        self.round_state(round).aba_input_cast = true;
                        let have_leader_value = self.committed.contains_key(&leader.index());
                        let aba = self
                            .aba_factory
                            .create(self.sid.derive("vote-aba", round as usize), have_leader_value);
                        step.extend(self.abas.insert(round as usize, aba));
                        progressed = true;
                    }
                    // ABA decided → accept or move on.
                    let aba_output = self.abas.get(round as usize).and_then(|a| a.output());
                    let result = {
                        let state = self.round_state(round);
                        if state.aba_result.is_none() {
                            if let Some(b) = aba_output {
                                state.aba_result = Some(b);
                            }
                        }
                        state.aba_result
                    };
                    match result {
                        Some(true) => {
                            if let Some(VbaMessage::Confirm { value, .. }) =
                                self.committed.get(&leader.index()).and_then(|c| decode_payload(c))
                            {
                                // Agreement: the leader's committed value is
                                // unique (per-proposer uniqueness of the
                                // consistent broadcast) and externally valid.
                                self.output = Some(value.clone());
                                // Committee mode: announce the decision to all
                                // n parties so listeners terminate too.
                                if self.committee.is_proper() && !self.decide_sent {
                                    self.decide_sent = true;
                                    step.push_multicast(Self::local(&VbaMessage::Decide {
                                        value,
                                    }));
                                }
                                progressed = true;
                            }
                            // Otherwise wait: some honest party voted 1, so its
                            // Vote carries the leader's Confirm.
                        }
                        Some(false) if round + 1 < self.max_rounds => {
                            self.current_round = round + 1;
                            step.extend(self.start_round(round + 1));
                            progressed = true;
                        }
                        _ => {}
                    }
                }
            }

            if !progressed {
                break;
            }
        }
        step
    }

    fn start_round(&mut self, round: u32) -> Step<Envelope> {
        // A VBA "view" in the trace: one election round with its vote-ABA.
        setupfree_obs::phase(setupfree_obs::Phase::VbaView, round);
        let sid = self.sid.derive("election", round as usize);
        let election = self.election_factory.create(sid);
        // Mounting the round's election replays buffered traffic for it.
        self.elections.insert(round as usize, election)
    }

    fn on_propose(&mut self, from: PartyId, value: Vec<u8>) -> Step<Envelope> {
        if !self.active_exchange(from) {
            return Step::none();
        }
        if self.acked.contains(&from.index()) || !(self.predicate)(&value) {
            return Step::none();
        }
        self.acked.insert(from.index());
        let signature = self.secrets.sig.sign(&self.ack_context(from.index()), &sha256(&value));
        Step::send(
            from,
            Self::local(&VbaMessage::Ack { proposer: from.index() as u32, signature }),
        )
    }

    fn on_ack(&mut self, from: PartyId, proposer: u32, signature: Signature) -> Step<Envelope> {
        if !self.active_exchange(from) {
            return Step::none();
        }
        if proposer as usize != self.me.index() || self.confirm_sent {
            return Step::none();
        }
        if self.own_cert_from.contains(&from.index()) {
            return Step::none();
        }
        let ctx = self.ack_context(self.me.index());
        if !self.keyring.sig_key(from.index()).verify(&ctx, &sha256(&self.input), &signature) {
            return Step::none();
        }
        self.own_cert_from.insert(from.index());
        self.own_cert.push((from.index(), signature));
        if self.own_cert.len() >= self.quorum() {
            self.confirm_sent = true;
            // Aggregate the drained acknowledgements into one certificate.
            let entries = std::mem::take(&mut self.own_cert);
            let cert = QuorumCert::new(
                self.quorum(),
                &entries,
                self.keyring.sig_key_slice(),
                &ctx,
                &sha256(&self.input),
            )
            .expect("individually verified acknowledgements always aggregate");
            let mut step = Step::none();
            self.fan(
                &mut step,
                Self::local(&VbaMessage::Confirm {
                    proposer: self.me.index() as u32,
                    value: self.input.clone(),
                    cert,
                }),
            );
            return step;
        }
        Step::none()
    }

    /// Commits a `Confirm`, received directly or inside a Vote: for a proposer
    /// not yet committed, checks the value and verifies the certificate once,
    /// against the proposer the Confirm names, and keeps the bytes as received.
    fn record_committed(&mut self, bytes: impl AsRef<[u8]> + Into<Arc<[u8]>>) {
        let Some(proposer) = confirm_proposer(bytes.as_ref()) else { return };
        if proposer >= self.n() || self.committed.contains_key(&proposer) {
            return;
        }
        let Some(VbaMessage::Confirm { value, cert, .. }) = decode_payload(bytes.as_ref()) else {
            return;
        };
        if (self.predicate)(&value) && self.verify_cert(proposer, &value, &cert) {
            self.committed.insert(proposer, bytes.into());
        }
    }

    fn on_local(&mut self, from: PartyId, payload: Arc<[u8]>) -> Step<Envelope> {
        // A Confirm stays encoded until `record_committed` needs its fields.
        if confirm_proposer(&payload).is_some() {
            if self.active_exchange(from) {
                self.record_committed(payload);
            }
            return Step::none();
        }
        match decode_payload::<VbaMessage>(&payload) {
            Some(VbaMessage::Propose { value }) => self.on_propose(from, value),
            Some(VbaMessage::Ack { proposer, signature }) => self.on_ack(from, proposer, signature),
            Some(VbaMessage::Vote { round, confirm }) => {
                // Only a sender's first Vote of a round is examined.
                if self.active_exchange(from)
                    && round < self.max_rounds
                    && self.round_state(round).votes_from.insert(from.index())
                {
                    if let Some(confirm) = confirm {
                        self.record_committed(confirm);
                    }
                }
                Step::none()
            }
            Some(VbaMessage::Decide { value }) => self.on_decide(from, value),
            Some(VbaMessage::Confirm { .. }) | None => Step::none(),
        }
    }

    /// Committee mode: adopt a value once `f_c + 1` distinct members
    /// announced it — at least one of them is honest, and honest members
    /// only announce their actual (agreed) output.  Only a member's first
    /// `Decide` counts (an honest member sends one), so a Byzantine member
    /// cannot grow a listener's state by announcing many values.
    fn on_decide(&mut self, from: PartyId, value: Vec<u8>) -> Step<Envelope> {
        if !self.committee.is_proper()
            || !self.committee.is_member(from)
            || self.output.is_some()
        {
            return Step::none();
        }
        if let Some((value, count)) = self.decides.vote(from, value) {
            if count >= self.committee.adopt_threshold() {
                self.output = Some(value.clone());
            }
        }
        Step::none()
    }
}

impl<EF: ElectionFactory, AF: AbaFactory> ProtocolInstance for Vba<EF, AF> {
    type Message = Envelope;
    type Output = Vec<u8>;

    fn on_activation(&mut self) -> Step<Envelope> {
        if !self.is_member() {
            // Listeners contribute no proposal and send nothing; they
            // terminate by adopting the committee's `Decide` announcements.
            return Step::none();
        }
        assert!(
            (self.predicate)(&self.input),
            "VBA requires an input satisfying the external-validity predicate"
        );
        let mut step = Step::none();
        self.fan(&mut step, Self::local(&VbaMessage::Propose { value: self.input.clone() }));
        step.extend(self.advance());
        step
    }

    fn on_message(&mut self, from: PartyId, msg: Envelope) -> Step<Envelope> {
        if from.index() >= self.n() {
            return Step::none();
        }
        let mut step = match msg.path.split_first() {
            None => self.on_local(from, msg.payload),
            Some((seg, path)) => {
                let round = seg.index as u32;
                if round >= self.max_rounds {
                    return Step::none();
                }
                // Committee mode: election/vote-ABA traffic is a members-only
                // exchange.  Dropping (rather than buffering) non-member
                // traffic keeps listeners' pre-activation buffers empty.
                if !self.active_exchange(from) {
                    return Step::none();
                }
                let child = Envelope { path, payload: msg.payload };
                match seg.kind {
                    K_ELECTION => self.elections.route(from, seg.index, child),
                    K_VOTE_ABA => self.abas.route(from, seg.index, child),
                    _ => Step::none(),
                }
            }
        };
        step.extend(self.advance());
        step
    }

    fn output(&self) -> Option<Vec<u8>> {
        self.output.clone()
    }

    fn pre_activation_stats(&self) -> setupfree_net::BufferStats {
        self.elections.stats().merge(self.abas.stats())
    }
}

/// A predicate accepting every value (the common choice when VBA is used as
/// plain multi-valued agreement).
pub fn accept_all() -> Predicate {
    Arc::new(|_| true)
}

/// Re-export of the election output type for downstream convenience.
pub type VbaElectionOutput = ElectionOutput;

#[cfg(test)]
mod tests {
    use super::*;
    use setupfree_aba::MmrAbaFactory;
    use setupfree_core::election::Election;
    use setupfree_core::TrustedCoinFactory;
    use setupfree_crypto::generate_pki;
    use setupfree_net::{BoxedParty, FifoScheduler, RandomScheduler, SilentParty, Simulation, StopReason};

    /// Election factory over the full Coin but with the idealised ABA-coin:
    /// the real Election (Alg 5) with the real internal Coin, where the
    /// internal ABA uses the trusted coin to keep unit tests fast.  The full
    /// "everything setup-free" stack is exercised in the workspace
    /// integration tests.
    #[derive(Clone)]
    struct TestElectionFactory {
        me: PartyId,
        keyring: Arc<Keyring>,
        secrets: Arc<PartySecrets>,
    }

    impl ElectionFactory for TestElectionFactory {
        type Instance = Election<MmrAbaFactory<TrustedCoinFactory>>;

        fn create(&self, sid: Sid) -> Self::Instance {
            let aba = MmrAbaFactory::new(self.me, self.keyring.n(), self.keyring.f(), TrustedCoinFactory);
            Election::new(sid, self.me, self.keyring.clone(), self.secrets.clone(), aba)
        }
    }


    fn make_parties(
        n: usize,
        inputs: Vec<Vec<u8>>,
        predicate: Predicate,
        pki_seed: u64,
    ) -> Vec<BoxedParty<Envelope, Vec<u8>>> {
        let (keyring, secrets) = generate_pki(n, pki_seed);
        let keyring = Arc::new(keyring);
        let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();
        (0..n)
            .map(|i| {
                let ef = TestElectionFactory {
                    me: PartyId(i),
                    keyring: keyring.clone(),
                    secrets: secrets[i].clone(),
                };
                let af = MmrAbaFactory::new(PartyId(i), n, keyring.f(), TrustedCoinFactory);
                Box::new(Vba::new(
                    Sid::new("vba"),
                    PartyId(i),
                    keyring.clone(),
                    secrets[i].clone(),
                    inputs[i].clone(),
                    predicate.clone(),
                    ef,
                    af,
                )) as BoxedParty<Envelope, Vec<u8>>
            })
            .collect()
    }

    fn check_agreement(outputs: &[Option<Vec<u8>>], honest: usize, inputs: &[Vec<u8>]) {
        let decided: Vec<&Vec<u8>> =
            outputs.iter().take(honest).map(|o| o.as_ref().expect("honest must decide")).collect();
        assert!(decided.windows(2).all(|w| w[0] == w[1]), "agreement violated");
        assert!(inputs.contains(decided[0]), "output must be one of the proposed values");
    }

    #[test]
    fn all_honest_agree_on_a_proposed_value() {
        let n = 4;
        let inputs: Vec<Vec<u8>> = (0..n).map(|i| format!("proposal-{i}").into_bytes()).collect();
        let mut sim =
            Simulation::new(make_parties(n, inputs.clone(), accept_all(), 1), Box::new(FifoScheduler::default()));
        let report = sim.run(50_000_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
        check_agreement(&sim.outputs(), n, &inputs);
    }

    #[test]
    fn agreement_under_random_schedules() {
        for seed in 0..3 {
            let n = 4;
            let inputs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8 + 1; 8]).collect();
            let mut sim = Simulation::new(
                make_parties(n, inputs.clone(), accept_all(), 2),
                Box::new(RandomScheduler::new(seed)),
            );
            let report = sim.run(50_000_000);
            assert_eq!(report.reason, StopReason::AllOutputs, "seed {seed}");
            check_agreement(&sim.outputs(), n, &inputs);
        }
    }

    #[test]
    fn external_validity_is_enforced() {
        // Predicate: the value must start with the magic byte 0x42.  One
        // Byzantine party proposes an invalid value; the decided value must
        // always satisfy the predicate.
        let n = 4;
        let predicate: Predicate = Arc::new(|v: &[u8]| v.first() == Some(&0x42));
        let mut inputs: Vec<Vec<u8>> = (0..n).map(|i| vec![0x42, i as u8]).collect();
        inputs[3] = vec![0x42, 99]; // still valid; the invalid-proposer case is
                                    // covered by the silent-party test (an
                                    // honest VBA asserts its own input).
        let mut sim = Simulation::new(
            make_parties(n, inputs.clone(), predicate.clone(), 3),
            Box::new(RandomScheduler::new(7)),
        );
        let report = sim.run(50_000_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
        let out = sim.outputs()[0].clone().unwrap();
        assert!(predicate(&out));
        check_agreement(&sim.outputs(), n, &inputs);
    }

    #[test]
    fn tolerates_a_silent_party() {
        let n = 4;
        let inputs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 4]).collect();
        let mut parties = make_parties(n, inputs.clone(), accept_all(), 4);
        parties[2] = Box::new(SilentParty::new());
        let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(5)));
        sim.mark_byzantine(PartyId(2));
        let report = sim.run(80_000_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
        let outputs = sim.outputs();
        let decided: Vec<&Vec<u8>> = outputs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 2)
            .map(|(_, o)| o.as_ref().unwrap())
            .collect();
        assert!(decided.windows(2).all(|w| w[0] == w[1]));
        assert!(inputs.contains(decided[0]));
    }

    #[test]
    #[should_panic(expected = "external-validity")]
    fn invalid_own_input_panics() {
        let n = 4;
        let predicate: Predicate = Arc::new(|v: &[u8]| !v.is_empty());
        let inputs: Vec<Vec<u8>> = vec![vec![], vec![1], vec![2], vec![3]];
        let mut parties = make_parties(n, inputs, predicate, 5);
        // Activating party 0 with an empty (invalid) input must panic.
        let _ = parties[0].on_activation();
    }

    #[allow(clippy::type_complexity)]
    fn make_committee_parties(
        n: usize,
        size: usize,
        committee_seed: u64,
        pki_seed: u64,
    ) -> (Committee, Vec<BoxedParty<Envelope, Vec<u8>>>, Vec<Vec<u8>>) {
        use setupfree_core::{CommitteeConfig, TrustedElectionFactory};
        let config = CommitteeConfig::new(size, "vba-test");
        let committee = Committee::sample(&config, &committee_seed.to_le_bytes(), n);
        let inputs: Vec<Vec<u8>> = (0..n).map(|i| format!("val-{i}").into_bytes()).collect();
        let (keyring, secrets) = generate_pki(n, pki_seed);
        let keyring = Arc::new(keyring);
        let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();
        let parties = (0..n)
            .map(|i| {
                let af = MmrAbaFactory::with_committee(
                    PartyId(i),
                    n,
                    keyring.f(),
                    TrustedCoinFactory,
                    committee.clone(),
                );
                Box::new(Vba::with_committee(
                    Sid::new("cvba"),
                    PartyId(i),
                    keyring.clone(),
                    secrets[i].clone(),
                    inputs[i].clone(),
                    accept_all(),
                    TrustedElectionFactory::new(n),
                    af,
                    committee.clone(),
                )) as BoxedParty<Envelope, Vec<u8>>
            })
            .collect();
        (committee, parties, inputs)
    }

    #[test]
    fn committee_vba_members_and_listeners_agree() {
        let (n, size) = (22, 10);
        for seed in 0..3u64 {
            let (committee, parties, inputs) = make_committee_parties(n, size, 0xFEED, 40 + seed);
            let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
            let report = sim.run(200_000_000);
            assert_eq!(report.reason, StopReason::AllOutputs, "seed {seed}");
            let outputs = sim.outputs();
            let decided: Vec<&Vec<u8>> =
                outputs.iter().map(|o| o.as_ref().expect("every party decides")).collect();
            assert!(decided.windows(2).all(|w| w[0] == w[1]), "agreement violated");
            // Validity: the decided value is a *member's* proposal (listeners
            // never propose).
            let member_inputs: Vec<&Vec<u8>> =
                committee.members().iter().map(|p| &inputs[p.index()]).collect();
            assert!(member_inputs.contains(&decided[0]), "seed {seed}: non-member value decided");
        }
    }

    #[test]
    fn committee_vba_tolerates_f_c_silent_members() {
        let (n, size) = (22, 10);
        let (committee, mut parties, inputs) = make_committee_parties(n, size, 0xFEED, 77);
        let f_c = committee.f();
        assert_eq!(f_c, 3);
        let silenced: Vec<PartyId> = committee.members()[..f_c].to_vec();
        for p in &silenced {
            parties[p.index()] = Box::new(SilentParty::new());
        }
        let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(11)));
        for p in &silenced {
            sim.mark_byzantine(*p);
        }
        let report = sim.run(300_000_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
        let outputs = sim.outputs();
        let decided: Vec<&Vec<u8>> = outputs
            .iter()
            .enumerate()
            .filter(|(i, _)| !silenced.contains(&PartyId(*i)))
            .map(|(_, o)| o.as_ref().expect("honest party must decide"))
            .collect();
        assert!(decided.windows(2).all(|w| w[0] == w[1]));
        assert!(inputs.contains(decided[0]));
    }

    #[test]
    fn message_wire_roundtrip() {
        let (keyring, secrets) = generate_pki(4, 9);
        let sig = secrets[0].sig.sign(b"x", b"y");
        let entries: Vec<(usize, Signature)> =
            (0..3).map(|i| (i, secrets[i].sig.sign(b"x", b"y"))).collect();
        let cert = QuorumCert::new(3, &entries, keyring.sig_key_slice(), b"x", b"y").unwrap();
        let confirm = VbaMessage::Confirm { proposer: 1, value: vec![9], cert };
        let confirm_bytes = setupfree_wire::to_bytes(&confirm);
        let msgs: Vec<VbaMessage> = vec![
            VbaMessage::Propose { value: vec![1, 2, 3] },
            VbaMessage::Ack { proposer: 2, signature: sig },
            confirm,
            VbaMessage::Vote { round: 1, confirm: Some(confirm_bytes.clone()) },
            VbaMessage::Vote { round: 2, confirm: None },
            VbaMessage::Decide { value: vec![7, 7, 7] },
        ];
        for msg in msgs {
            let env = Envelope::seal(InstancePath::root(), &msg);
            let bytes = setupfree_wire::to_bytes(&env);
            let decoded: Envelope = setupfree_wire::from_bytes(&bytes).unwrap();
            assert_eq!(decoded, env);
            assert_eq!(setupfree_wire::to_bytes(&decoded), bytes);
        }
        // The Vote forwards the Confirm byte for byte: its embedded bytes
        // decode back to the same Confirm, proposer index included.
        let vote = Envelope::seal(
            InstancePath::root(),
            &VbaMessage::Vote { round: 1, confirm: Some(confirm_bytes.clone()) },
        );
        let Some(VbaMessage::Vote { confirm: Some(embedded), .. }) = vote.open() else {
            panic!("the Vote lost its Confirm");
        };
        assert_eq!(embedded, confirm_bytes);
        assert_eq!(confirm_proposer(&embedded), Some(1));
        assert!(matches!(decode_payload(&embedded), Some(VbaMessage::Confirm { proposer: 1, .. })));
    }

    #[test]
    fn committee_cert_padded_with_non_member_signatures_rejected() {
        // In committee mode a certificate must carry only member signatures:
        // a quorum "completed" by non-member acknowledgements is worthless.
        use setupfree_core::{CommitteeConfig, TrustedElectionFactory};
        let (n, size) = (22, 10);
        let config = CommitteeConfig::new(size, "vba-test");
        let committee = Committee::sample(&config, &0xFEEDu64.to_le_bytes(), n);
        let (keyring, secrets) = generate_pki(n, 13);
        let keyring = Arc::new(keyring);
        let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();
        let me = committee.members()[0];
        let af = MmrAbaFactory::with_committee(
            me,
            n,
            keyring.f(),
            TrustedCoinFactory,
            committee.clone(),
        );
        let vba = Vba::with_committee(
            Sid::new("cvba"),
            me,
            keyring.clone(),
            secrets[me.index()].clone(),
            b"mine".to_vec(),
            accept_all(),
            TrustedElectionFactory::new(n),
            af,
            committee.clone(),
        );
        let proposer = committee.members()[1];
        let value = b"committee-value";
        let ctx = vba.ack_context(proposer.index());
        let digest = sha256(value);
        let quorum = committee.quorum();
        let non_member = (0..n)
            .map(PartyId)
            .find(|p| !committee.is_member(*p))
            .expect("a proper committee leaves non-members");
        // Quorum-sized cert whose last slot is a (validly signed!) non-member
        // acknowledgement: rejected.
        let mut entries: Vec<(usize, Signature)> = committee.members()[..quorum - 1]
            .iter()
            .map(|p| (p.index(), secrets[p.index()].sig.sign(&ctx, &digest)))
            .collect();
        entries.push((non_member.index(), secrets[non_member.index()].sig.sign(&ctx, &digest)));
        let padded =
            QuorumCert::new(quorum, &entries, keyring.sig_key_slice(), &ctx, &digest).unwrap();
        assert!(!vba.verify_cert(proposer.index(), value, &padded));
        // The same quorum drawn entirely from members verifies.
        let member_entries: Vec<(usize, Signature)> = committee.members()[..quorum]
            .iter()
            .map(|p| (p.index(), secrets[p.index()].sig.sign(&ctx, &digest)))
            .collect();
        let good =
            QuorumCert::new(quorum, &member_entries, keyring.sig_key_slice(), &ctx, &digest)
                .unwrap();
        assert!(vba.verify_cert(proposer.index(), value, &good));
        // A cert declaring a smaller quorum than the committee's must not
        // pass even if internally consistent.
        let small = QuorumCert::new(
            quorum - 1,
            &member_entries[..quorum - 1],
            keyring.sig_key_slice(),
            &ctx,
            &digest,
        )
        .unwrap();
        assert!(!vba.verify_cert(proposer.index(), value, &small));
    }

    type TrustedVba =
        Vba<setupfree_core::TrustedElectionFactory, MmrAbaFactory<TrustedCoinFactory>>;

    /// Party 0 of an n = 4 VBA whose predicate wants the magic byte 0x42,
    /// with every party's secrets for forging traffic at it.
    fn lone_member() -> (TrustedVba, Arc<Keyring>, Vec<Arc<PartySecrets>>) {
        let (keyring, secrets) = generate_pki(4, 21);
        let keyring = Arc::new(keyring);
        let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();
        let vba = Vba::new(
            Sid::new("hostile-vba"),
            PartyId(0),
            keyring.clone(),
            secrets[0].clone(),
            vec![0x42, 0],
            Arc::new(|v: &[u8]| v.first() == Some(&0x42)),
            setupfree_core::TrustedElectionFactory::new(4),
            MmrAbaFactory::new(PartyId(0), 4, keyring.f(), TrustedCoinFactory),
        );
        (vba, keyring, secrets)
    }

    /// A `Confirm` naming `named`, carrying a quorum certificate that parties
    /// 1..=3 really signed over `value` for proposer `signed_for`.
    fn forged_confirm(
        vba: &TrustedVba,
        keyring: &Keyring,
        secrets: &[Arc<PartySecrets>],
        signed_for: usize,
        named: u32,
        value: &[u8],
    ) -> Vec<u8> {
        let ctx = vba.ack_context(signed_for);
        let digest = sha256(value);
        let entries: Vec<(usize, Signature)> =
            (1..4).map(|i| (i, secrets[i].sig.sign(&ctx, &digest))).collect();
        let cert = QuorumCert::new(3, &entries, keyring.sig_key_slice(), &ctx, &digest).unwrap();
        let confirm = VbaMessage::Confirm { proposer: named, value: value.to_vec(), cert };
        setupfree_wire::to_bytes(&confirm)
    }

    fn feed(vba: &mut TrustedVba, from: usize, msg: &VbaMessage) {
        let env = Envelope::seal(InstancePath::root(), msg);
        let _ = vba.on_message(PartyId(from), env);
    }

    fn vote(round: u32, confirm: Vec<u8>) -> VbaMessage {
        VbaMessage::Vote { round, confirm: Some(confirm) }
    }

    #[test]
    fn hostile_votes_commit_nothing_and_never_panic() {
        use setupfree_crypto::sig::qc_verify_count;
        let (mut vba, keyring, secrets) = lone_member();
        let good = forged_confirm(&vba, &keyring, &secrets, 2, 2, &[0x42, 2]);
        let nested = setupfree_wire::to_bytes(&vote(0, good.clone()));
        let hostile: Vec<(&str, Vec<u8>)> = vec![
            ("empty", vec![]),
            ("unknown tag", vec![0xff, 1, 2, 3]),
            ("truncated Confirm header", vec![CONFIRM_TAG, 2, 0]),
            ("Confirm cut short", good[..good.len() - 1].to_vec()),
            ("Confirm with trailing bytes", [&good[..], &[0]].concat()),
            ("not a Confirm", setupfree_wire::to_bytes(&VbaMessage::Propose { value: vec![0x42] })),
            ("a Vote nested in a Vote", setupfree_wire::to_bytes(&vote(0, nested))),
            ("proposer out of range", forged_confirm(&vba, &keyring, &secrets, 2, 9, &[0x42, 2])),
            (
                "certificate collected for another proposer",
                forged_confirm(&vba, &keyring, &secrets, 2, 3, &[0x42, 2]),
            ),
            ("value fails the predicate", forged_confirm(&vba, &keyring, &secrets, 2, 2, &[7, 2])),
        ];
        // Each from a fresh (sender, round), so each is examined.
        for (round, (what, bytes)) in hostile.into_iter().enumerate() {
            for from in 1..4 {
                feed(&mut vba, from, &vote(round as u32, bytes.clone()));
            }
            assert!(vba.committed.is_empty(), "{what}: committed something");
        }
        // A repeated Vote from one sender for one round costs at most one
        // verification, and the repeat is ignored even when it is valid.
        let wrong_proposer = forged_confirm(&vba, &keyring, &secrets, 2, 3, &[0x42, 2]);
        let before = qc_verify_count();
        for _ in 0..5 {
            feed(&mut vba, 1, &vote(20, wrong_proposer.clone()));
        }
        assert_eq!(qc_verify_count() - before, 1, "one verification for five repeats");
        feed(&mut vba, 1, &vote(20, good.clone()));
        assert!(vba.committed.is_empty(), "a repeat Vote was examined");
        assert_eq!(qc_verify_count() - before, 1);
        // The same valid Confirm from a fresh sender commits, stored byte for
        // byte; once committed, the proposer is never verified again.
        feed(&mut vba, 2, &vote(20, good.clone()));
        assert_eq!(vba.committed.get(&2).map(|c| c.to_vec()), Some(good.clone()));
        assert_eq!(qc_verify_count() - before, 2);
        feed(&mut vba, 3, &vote(20, good));
        assert_eq!(qc_verify_count() - before, 2);
    }

    #[test]
    fn a_direct_confirm_is_verified_once_and_stored_as_received() {
        use setupfree_crypto::sig::qc_verify_count;
        let (mut vba, keyring, secrets) = lone_member();
        let (mut other, _, _) = lone_member();
        let bytes = forged_confirm(&vba, &keyring, &secrets, 1, 1, &[0x42, 1]);
        let payload: Arc<[u8]> = bytes.into();
        let confirm = Envelope { path: InstancePath::root(), payload: payload.clone() };
        let before = qc_verify_count();
        for _ in 0..3 {
            let _ = vba.on_message(PartyId(1), confirm.clone());
        }
        let _ = other.on_message(PartyId(1), confirm);
        assert_eq!(qc_verify_count() - before, 2, "one verification per recipient");
        // Both recipients hold the multicast's one allocation.
        assert!(Arc::ptr_eq(&vba.committed[&1], &payload));
        assert!(Arc::ptr_eq(&other.committed[&1], &payload));
    }
}
