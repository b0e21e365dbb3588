//! Asynchronous verifiable secret sharing without private setups
//! (paper §5.1, Algorithms 1 and 2).
//!
//! The dealer commits to an encryption key with a Pedersen polynomial
//! commitment, collects `n − f` signatures on the commitment (so at least
//! `f + 1` honest parties hold consistent key shares), then reliably
//! broadcasts the ciphertext of its actual secret using a Bracha-style
//! `Echo`/`Ready` pattern gated on the signature quorum.  Reconstruction
//! recovers the key from any `f + 1` consistent shares and amplifies it to
//! everyone.
//!
//! Properties (Definition 1): totality, commitment, correctness, secrecy —
//! exercised by the unit tests below and the cross-crate integration tests.
//!
//! The sharing phase costs `O(n²)` messages and `O(λn²)` bits; the
//! reconstruction phase the same.  This is the key ingredient that lets the
//! Coin protocol (Alg 4) stay within `O(λn³)` bits overall.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use std::collections::BTreeSet;
use std::sync::Arc;

use setupfree_crypto::hash::{sha256, stream_xor};
use setupfree_crypto::pedersen::PedersenCommitment;
use setupfree_crypto::poly::{interpolate_at_zero, Polynomial};
use setupfree_crypto::scalar::Scalar;
use setupfree_crypto::sig::{CertCollector, QuorumCert, Signature};
use setupfree_crypto::{Keyring, PartySecrets};
use setupfree_net::{Amplifier, PartyId, ProtocolInstance, Sid, Step, VoteTally};
use setupfree_wire::codec;

const CIPHER_DOMAIN: &str = "setupfree/avss/cipher";

/// Messages of one AVSS instance (both phases).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AvssMessage {
    /// Dealer → party: polynomial commitment and this party's key shares
    /// (Alg 1 line 6).
    KeyShare {
        /// Pedersen commitment to the key polynomial pair.
        commitment: PedersenCommitment,
        /// `A(i)` for the receiving party.
        share_a: Scalar,
        /// `B(i)` for the receiving party.
        share_b: Scalar,
    },
    /// Party → dealer: signature acknowledging the commitment (line 15).
    KeyStored {
        /// Signature over the commitment under the session identifier.
        signature: Signature,
    },
    /// Dealer → all: ciphertext, commitment and the signature quorum
    /// (line 10).
    Cipher {
        /// Aggregated certificate of `n − f` distinct signatures on the
        /// commitment (one multi-signature instead of `n − f` sig pairs).
        quorum: QuorumCert,
        /// The commitment the quorum signed.
        commitment: PedersenCommitment,
        /// Encryption of the dealer's secret under the committed key.
        cipher: Vec<u8>,
    },
    /// Bracha-style echo of the ciphertext (line 20).
    Echo {
        /// The echoed ciphertext.
        cipher: Vec<u8>,
    },
    /// Bracha-style ready for the ciphertext (lines 22/24).
    Ready {
        /// The committed ciphertext.
        cipher: Vec<u8>,
    },
    /// Reconstruction: a party's key shares (Alg 2 line 3).
    KeyRec {
        /// `A(j)` of the sending party.
        share_a: Scalar,
        /// `B(j)` of the sending party.
        share_b: Scalar,
    },
    /// Reconstruction: the recovered key, amplified to everyone (line 11).
    Key {
        /// The reconstructed encryption key `A(0)`.
        key: Scalar,
    },
}

codec!(enum AvssMessage {
    0 => KeyShare { commitment, share_a, share_b },
    1 => KeyStored { signature },
    2 => Cipher { quorum, commitment, cipher },
    3 => Echo { cipher },
    4 => Ready { cipher },
    5 => KeyRec { share_a, share_b },
    6 => Key { key },
});

/// Output of the sharing phase (Alg 1 line 26): the ciphertext plus this
/// party's (possibly missing) key shares and commitment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvssShareOutput {
    /// The committed ciphertext.
    pub cipher: Vec<u8>,
    /// `A(i)` if this party received a valid `KeyShare`.
    pub share_a: Option<Scalar>,
    /// `B(i)` if this party received a valid `KeyShare`.
    pub share_b: Option<Scalar>,
    /// The commitment, if received with a valid quorum.
    pub commitment: Option<PedersenCommitment>,
}

/// Dealer-side sharing state.
#[derive(Debug)]
struct DealerState {
    secret: Vec<u8>,
    poly_a: Polynomial,
    poly_b: Polynomial,
    commitment: PedersenCommitment,
    /// The `KeyStored` quorum on the encoded commitment (Alg 1 lines 7–9);
    /// its certificate goes out in the `Cipher`.
    key_stored: CertCollector,
}

/// A validated-but-not-yet-deliverable ciphertext: the quorum certificate,
/// the Pedersen commitment and the encrypted share vector (Alg 1 line 15).
type PendingCipher = (QuorumCert, PedersenCommitment, Vec<u8>);

/// One party's state machine for a single AVSS instance (both phases).
#[derive(Debug)]
pub struct Avss {
    sid: Sid,
    me: PartyId,
    dealer: PartyId,
    keyring: Arc<Keyring>,
    secrets: Arc<PartySecrets>,
    dealer_state: Option<DealerState>,
    // --- receiving side, sharing phase ---
    recorded_commitment: Option<PedersenCommitment>,
    recorded_share_a: Option<Scalar>,
    recorded_share_b: Option<Scalar>,
    /// Commitment + shares accepted after quorum validation (Alg 1 line 19).
    locked: bool,
    pending_cipher: Option<PendingCipher>,
    echo_sent: bool,
    /// The ciphertext's `Echo`/`Ready` amplification.
    amplifier: Amplifier<Vec<u8>>,
    share_output: Option<AvssShareOutput>,
    // --- reconstruction phase ---
    rec_activated: bool,
    /// Reconstruction traffic that arrived before activation, in arrival
    /// order: at most one `KeyRec` and one `Key` per sender, the only ones
    /// that would count.
    rec_buffer: Vec<(PartyId, AvssMessage)>,
    key_rec_seen: BTreeSet<usize>,
    /// Arrived-but-unverified key shares `(point, A(point), B(point))`; they
    /// are batch-verified against the commitment in one RLC check as soon as
    /// the threshold is reachable.
    key_rec_pending: Vec<(usize, Scalar, Scalar)>,
    key_rec_shares: Vec<(usize, Scalar)>,
    key_sent: bool,
    /// Each sender's first `Key`.
    key_votes: VoteTally<Scalar>,
    reconstructed: Option<Vec<u8>>,
}

impl Avss {
    /// Creates the state machine for party `me` in the AVSS instance `sid`
    /// with the given `dealer`.  `dealer_secret` must be `Some` iff
    /// `me == dealer`.
    pub fn new(
        sid: Sid,
        me: PartyId,
        dealer: PartyId,
        keyring: Arc<Keyring>,
        secrets: Arc<PartySecrets>,
        dealer_secret: Option<Vec<u8>>,
    ) -> Self {
        let (n, f) = (keyring.n(), keyring.f());
        let dealer_state = if me == dealer {
            let secret = dealer_secret.expect("the dealer must provide a secret");
            Some(Self::make_dealer_state(&keyring, secret, &sid, &secrets))
        } else {
            None
        };
        Avss {
            sid,
            me,
            dealer,
            keyring,
            secrets,
            dealer_state,
            recorded_commitment: None,
            recorded_share_a: None,
            recorded_share_b: None,
            locked: false,
            pending_cipher: None,
            echo_sent: false,
            amplifier: Amplifier::new(n, f),
            share_output: None,
            rec_activated: false,
            rec_buffer: Vec::new(),
            key_rec_seen: BTreeSet::new(),
            key_rec_pending: Vec::new(),
            key_rec_shares: Vec::new(),
            key_sent: false,
            key_votes: VoteTally::new(n),
            reconstructed: None,
        }
    }

    fn make_dealer_state(
        keyring: &Keyring,
        secret: Vec<u8>,
        sid: &Sid,
        secrets: &PartySecrets,
    ) -> DealerState {
        // Derandomized polynomial sampling keyed by the dealer's signing key
        // and the session id keeps the whole protocol deterministic per seed
        // while remaining unpredictable to other parties.
        let mut seed_bytes = Vec::new();
        seed_bytes.extend_from_slice(sid.as_bytes());
        seed_bytes.extend_from_slice(&secret);
        seed_bytes.extend_from_slice(&secrets.index.to_le_bytes());
        let seed = u64::from_le_bytes(sha256(&seed_bytes)[..8].try_into().expect("8 bytes"));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::SeedableRng;
        let f = keyring.f();
        let poly_a = Polynomial::random(f, &mut rng);
        let poly_b = Polynomial::random(f, &mut rng);
        let commitment = PedersenCommitment::commit(&poly_a, &poly_b);
        let key_stored = CertCollector::new(
            keyring.quorum(),
            &Self::sig_context(sid),
            &setupfree_wire::to_bytes(&commitment),
        );
        DealerState { secret, poly_a, poly_b, commitment, key_stored }
    }

    /// The dealer of this instance.
    pub fn dealer(&self) -> PartyId {
        self.dealer
    }

    /// Output of the sharing phase, if complete.
    pub fn sharing_output(&self) -> Option<&AvssShareOutput> {
        self.share_output.as_ref()
    }

    /// The reconstructed secret, if reconstruction has completed.
    pub fn reconstructed(&self) -> Option<&[u8]> {
        self.reconstructed.as_deref()
    }

    fn n(&self) -> usize {
        self.keyring.n()
    }

    fn f(&self) -> usize {
        self.keyring.f()
    }

    fn quorum(&self) -> usize {
        self.keyring.quorum()
    }

    fn sig_context(sid: &Sid) -> Vec<u8> {
        let mut ctx = sid.as_bytes().to_vec();
        ctx.extend_from_slice(b"/avss/keystored");
        ctx
    }

    fn encrypt(&self, key: Scalar, plaintext: &[u8]) -> Vec<u8> {
        let mut k = key.to_bytes().to_vec();
        k.extend_from_slice(self.sid.as_bytes());
        stream_xor(CIPHER_DOMAIN, &k, plaintext)
    }

    /// Activates the instance: the dealer distributes key shares (Alg 1
    /// lines 1–6); other parties do nothing until messages arrive.
    pub fn activate(&mut self) -> Step<AvssMessage> {
        let mut step = Step::none();
        if let Some(ds) = &self.dealer_state {
            for i in 0..self.n() {
                let point = i + 1;
                step.push_send(
                    PartyId(i),
                    AvssMessage::KeyShare {
                        commitment: ds.commitment.clone(),
                        share_a: ds.poly_a.eval_at_index(point),
                        share_b: ds.poly_b.eval_at_index(point),
                    },
                );
            }
        }
        step
    }

    /// Handles a delivered message.
    pub fn handle(&mut self, from: PartyId, msg: AvssMessage) -> Step<AvssMessage> {
        if from.index() >= self.n() {
            return Step::none();
        }
        match msg {
            AvssMessage::KeyShare { commitment, share_a, share_b } => {
                self.on_key_share(from, commitment, share_a, share_b)
            }
            AvssMessage::KeyStored { signature } => self.on_key_stored(from, signature),
            AvssMessage::Cipher { quorum, commitment, cipher } => {
                self.on_cipher(from, quorum, commitment, cipher)
            }
            AvssMessage::Echo { cipher } => match self.amplifier.echo(from, cipher) {
                Some(cipher) => Step::multicast(AvssMessage::Ready { cipher: cipher.clone() }),
                None => Step::none(),
            },
            AvssMessage::Ready { cipher } => self.on_ready(from, cipher),
            msg @ (AvssMessage::KeyRec { .. } | AvssMessage::Key { .. }) => {
                if self.rec_activated {
                    self.handle_rec(from, msg)
                } else {
                    // Buffer reconstruction traffic until this party activates
                    // the reconstruction phase (secrecy: it must not help
                    // reconstruct before being asked to).  Only a sender's
                    // first message of each kind would count, so only that
                    // one is kept.
                    let kind = std::mem::discriminant(&msg);
                    if !self
                        .rec_buffer
                        .iter()
                        .any(|(f, m)| *f == from && std::mem::discriminant(m) == kind)
                    {
                        self.rec_buffer.push((from, msg));
                    }
                    Step::none()
                }
            }
        }
    }

    fn on_key_share(
        &mut self,
        from: PartyId,
        commitment: PedersenCommitment,
        share_a: Scalar,
        share_b: Scalar,
    ) -> Step<AvssMessage> {
        // Only the dealer's first KeyShare counts (Alg 1 line 12).
        if from != self.dealer || self.recorded_commitment.is_some() {
            return Step::none();
        }
        let point = self.me.index() + 1;
        if !commitment.verify_share(point, share_a, share_b) || commitment.degree() != self.f() {
            return Step::none();
        }
        self.recorded_commitment = Some(commitment.clone());
        self.recorded_share_a = Some(share_a);
        self.recorded_share_b = Some(share_b);
        let ctx = Self::sig_context(&self.sid);
        let signature = self.secrets.sig.sign(&ctx, &setupfree_wire::to_bytes(&commitment));
        let mut step = Step::send(self.dealer, AvssMessage::KeyStored { signature });
        // A Cipher that arrived before the KeyShare can now be validated.
        if let Some((quorum, cmt, cipher)) = self.pending_cipher.take() {
            step.extend(self.try_accept_cipher(quorum, cmt, cipher));
        }
        step
    }

    fn on_key_stored(&mut self, from: PartyId, signature: Signature) -> Step<AvssMessage> {
        let keys = self.keyring.sig_key_slice();
        let Some(ds) = &mut self.dealer_state else { return Step::none() };
        let Some(quorum) = ds.key_stored.offer(from.index(), &signature, keys) else {
            return Step::none();
        };
        let (key, secret, commitment) = (ds.poly_a.constant(), ds.secret.clone(), ds.commitment.clone());
        let cipher = self.encrypt(key, &secret);
        Step::multicast(AvssMessage::Cipher { quorum, commitment, cipher })
    }

    fn on_cipher(
        &mut self,
        from: PartyId,
        quorum: QuorumCert,
        commitment: PedersenCommitment,
        cipher: Vec<u8>,
    ) -> Step<AvssMessage> {
        if from != self.dealer || self.echo_sent {
            return Step::none();
        }
        if self.recorded_commitment.is_none() {
            // Alg 1 line 17: wait for the KeyShare before echoing.
            if self.pending_cipher.is_none() {
                self.pending_cipher = Some((quorum, commitment, cipher));
            }
            return Step::none();
        }
        self.try_accept_cipher(quorum, commitment, cipher)
    }

    fn try_accept_cipher(
        &mut self,
        quorum: QuorumCert,
        commitment: PedersenCommitment,
        cipher: Vec<u8>,
    ) -> Step<AvssMessage> {
        if self.echo_sent {
            return Step::none();
        }
        let Some(recorded) = &self.recorded_commitment else { return Step::none() };
        if *recorded != commitment {
            return Step::none();
        }
        if !self.verify_quorum(&commitment, &quorum) {
            return Step::none();
        }
        self.locked = true;
        self.echo_sent = true;
        setupfree_obs::phase(setupfree_obs::Phase::AvssCipher, 0);
        Step::multicast(AvssMessage::Echo { cipher })
    }

    fn verify_quorum(&self, commitment: &PedersenCommitment, quorum: &QuorumCert) -> bool {
        // The certificate's signer bitmap makes duplicates unrepresentable
        // and its verification pins distinct registered signers ≥ n − f.
        quorum.quorum() >= self.quorum()
            && quorum.verify(
                self.keyring.sig_key_slice(),
                &Self::sig_context(&self.sid),
                &setupfree_wire::to_bytes(commitment),
            )
    }

    fn on_ready(&mut self, from: PartyId, cipher: Vec<u8>) -> Step<AvssMessage> {
        let Some(due) = self.amplifier.ready(from, cipher) else { return Step::none() };
        if due.deliver {
            // Alg 1 line 26: output (cipher, shA, shB, cmt); shares may be ⊥.
            let (share_a, share_b, commitment) = if self.locked {
                (self.recorded_share_a, self.recorded_share_b, self.recorded_commitment.clone())
            } else {
                (None, None, None)
            };
            setupfree_obs::phase(setupfree_obs::Phase::AvssShare, share_a.is_some() as u32);
            self.share_output =
                Some(AvssShareOutput { cipher: due.value.clone(), share_a, share_b, commitment });
        }
        if due.send_ready {
            return Step::multicast(AvssMessage::Ready { cipher: due.value.clone() });
        }
        Step::none()
    }

    /// Activates the reconstruction phase (Alg 2), using this party's sharing
    /// output as input.  Must only be called after the sharing phase has
    /// produced an output.
    ///
    /// # Panics
    ///
    /// Panics if the sharing phase has not completed for this party.
    pub fn start_reconstruction(&mut self) -> Step<AvssMessage> {
        assert!(self.share_output.is_some(), "reconstruction requires the sharing output");
        if self.rec_activated {
            return Step::none();
        }
        self.rec_activated = true;
        let mut step = Step::none();
        // Alg 2 lines 2–3: multicast our key shares if we hold them.
        if self.locked {
            if let (Some(a), Some(b)) = (self.recorded_share_a, self.recorded_share_b) {
                step.push_multicast(AvssMessage::KeyRec { share_a: a, share_b: b });
            }
        }
        // Drain buffered reconstruction traffic.
        let buffered = std::mem::take(&mut self.rec_buffer);
        for (from, msg) in buffered {
            step.extend(self.handle_rec(from, msg));
        }
        step
    }

    /// Whether this party has activated the reconstruction phase.
    pub fn reconstruction_started(&self) -> bool {
        self.rec_activated
    }
}

/// [`ProtocolInstance`] for a bare AVSS: activation distributes the dealer's
/// key shares, messages go through [`Avss::handle`], and the output is the
/// reconstructed secret.  This is what lets an AVSS instance sit directly in
/// a session-router tree (`Leaf<Avss>` inside the Coin); parents drive the
/// phase transition explicitly via [`Avss::start_reconstruction`].  For
/// stand-alone runs with automatic reconstruction see
/// [`harness::AvssEndToEnd`].
impl ProtocolInstance for Avss {
    type Message = AvssMessage;
    type Output = Vec<u8>;

    fn on_activation(&mut self) -> Step<AvssMessage> {
        self.activate()
    }

    fn on_message(&mut self, from: PartyId, msg: AvssMessage) -> Step<AvssMessage> {
        self.handle(from, msg)
    }

    fn output(&self) -> Option<Vec<u8>> {
        self.reconstructed().map(<[u8]>::to_vec)
    }
}

impl Avss {

    fn handle_rec(&mut self, from: PartyId, msg: AvssMessage) -> Step<AvssMessage> {
        match msg {
            AvssMessage::KeyRec { share_a, share_b } => self.on_key_rec(from, share_a, share_b),
            AvssMessage::Key { key } => self.on_key(from, key),
            _ => Step::none(),
        }
    }

    fn on_key_rec(&mut self, from: PartyId, share_a: Scalar, share_b: Scalar) -> Step<AvssMessage> {
        if !self.key_rec_seen.insert(from.index()) || self.key_sent {
            return Step::none();
        }
        let Some(cmt) = self.recorded_commitment.clone() else { return Step::none() };
        self.key_rec_pending.push((from.index() + 1, share_a, share_b));
        // Defer the Pedersen opening checks until the pending set could reach
        // the f + 1 reconstruction threshold, then verify the whole set in
        // one random-linear-combination check (per-share fallback identifies
        // any bad shares without losing the good ones).
        if self.key_rec_shares.len() + self.key_rec_pending.len() <= self.f() {
            return Step::none();
        }
        let pending = std::mem::take(&mut self.key_rec_pending);
        // Batch weights come from this party's secret signing key, unknown to
        // whoever crafted the shares.
        let flags = cmt.verify_shares_batch(&pending, &self.secrets.sig.batch_entropy());
        for ((point, a, _), ok) in pending.into_iter().zip(flags) {
            if ok {
                self.key_rec_shares.push((point, a));
            }
        }
        if self.key_rec_shares.len() > self.f() {
            let points: Vec<(Scalar, Scalar)> = self
                .key_rec_shares
                .iter()
                .map(|(x, y)| (Scalar::from_u64(*x as u64), *y))
                .collect();
            // Interpolation over a repeated quorum hits the cached Lagrange
            // table inside `interpolate_at_zero`.
            let key = interpolate_at_zero(&points);
            self.key_sent = true;
            return Step::multicast(AvssMessage::Key { key });
        }
        Step::none()
    }

    fn on_key(&mut self, from: PartyId, key: Scalar) -> Step<AvssMessage> {
        let f = self.f();
        let Some((_, votes)) = self.key_votes.vote(from, key) else { return Step::none() };
        if votes > f && self.reconstructed.is_none() {
            if let Some(output) = &self.share_output {
                let plain = self.encrypt(key, &output.cipher);
                self.reconstructed = Some(plain);
            }
        }
        Step::none()
    }
}

// ---------------------------------------------------------------------------
// Byzantine dealer behaviours used by tests and the experiment harness.
// ---------------------------------------------------------------------------

/// A Byzantine dealer that sends share values inconsistent with its
/// commitment to a subset of parties (they will refuse to sign), while
/// behaving correctly towards the rest.
#[derive(Debug)]
pub struct InconsistentShareDealer {
    inner: Avss,
    victims: BTreeSet<usize>,
}

impl InconsistentShareDealer {
    /// Wraps an honest dealer instance, corrupting the shares sent to
    /// `victims`.
    pub fn new(inner: Avss, victims: BTreeSet<usize>) -> Self {
        InconsistentShareDealer { inner, victims }
    }

    /// Activates the corrupted dealer.
    pub fn activate(&mut self) -> Step<AvssMessage> {
        let step = self.inner.activate();
        let victims = self.victims.clone();
        Step {
            outgoing: step
                .outgoing
                .into_iter()
                .map(|mut o| {
                    if let setupfree_net::Dest::One(pid) = o.dest {
                        if victims.contains(&pid.index()) {
                            if let AvssMessage::KeyShare { commitment, share_a, share_b } = o.msg {
                                o.msg = AvssMessage::KeyShare {
                                    commitment,
                                    share_a: share_a + Scalar::one(),
                                    share_b,
                                };
                            }
                        }
                    }
                    o
                })
                .collect(),
        }
    }

    /// Forwards message handling to the honest logic.
    pub fn handle(&mut self, from: PartyId, msg: AvssMessage) -> Step<AvssMessage> {
        self.inner.handle(from, msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::{AvssEndToEnd, AvssSharing};
    use setupfree_crypto::generate_pki;
    use setupfree_net::{BoxedParty, FifoScheduler, RandomScheduler, Simulation, StopReason};

    fn setup(n: usize) -> (Arc<Keyring>, Vec<Arc<PartySecrets>>) {
        let (keyring, secrets) = generate_pki(n, 99);
        (Arc::new(keyring), secrets.into_iter().map(Arc::new).collect())
    }

    fn sharing_parties(
        n: usize,
        secret: &[u8],
        keyring: &Arc<Keyring>,
        secrets: &[Arc<PartySecrets>],
    ) -> Vec<BoxedParty<AvssMessage, AvssShareOutput>> {
        (0..n)
            .map(|i| {
                let input = if i == 0 { Some(secret.to_vec()) } else { None };
                Box::new(AvssSharing::new(Avss::new(
                    Sid::new("avss-test"),
                    PartyId(i),
                    PartyId(0),
                    keyring.clone(),
                    secrets[i].clone(),
                    input,
                ))) as BoxedParty<AvssMessage, AvssShareOutput>
            })
            .collect()
    }

    #[test]
    fn sharing_completes_for_all_honest_parties() {
        let n = 4;
        let (keyring, secrets) = setup(n);
        let parties = sharing_parties(n, b"secret!", &keyring, &secrets);
        let mut sim = Simulation::new(parties, Box::new(FifoScheduler::default()));
        let report = sim.run(1_000_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
        let outputs: Vec<AvssShareOutput> = sim.outputs().into_iter().flatten().collect();
        // Agreement on the ciphertext (Lemma 1).
        for w in outputs.windows(2) {
            assert_eq!(w[0].cipher, w[1].cipher);
        }
        // With an honest dealer and FIFO delivery everyone holds shares.
        assert!(outputs.iter().all(|o| o.share_a.is_some() && o.commitment.is_some()));
    }

    #[test]
    fn end_to_end_share_then_reconstruct() {
        for seed in 0..5 {
            let n = 4;
            let (keyring, secrets) = setup(n);
            let secret = b"the dealer's secret value".to_vec();
            let parties: Vec<BoxedParty<AvssMessage, Vec<u8>>> = (0..n)
                .map(|i| {
                    let input = if i == 1 { Some(secret.clone()) } else { None };
                    Box::new(AvssEndToEnd::new(Avss::new(
                        Sid::new("avss-e2e"),
                        PartyId(i),
                        PartyId(1),
                        keyring.clone(),
                        secrets[i].clone(),
                        input,
                    ))) as BoxedParty<AvssMessage, Vec<u8>>
                })
                .collect();
            let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
            let report = sim.run(1_000_000);
            assert_eq!(report.reason, StopReason::AllOutputs, "seed {seed}");
            for out in sim.outputs() {
                assert_eq!(out.unwrap(), secret, "correctness (Lemma 6), seed {seed}");
            }
        }
    }

    #[test]
    fn tolerates_f_crashed_receivers() {
        let n = 7;
        let (keyring, secrets) = setup(n);
        let secret = b"resilient".to_vec();
        let parties: Vec<BoxedParty<AvssMessage, Vec<u8>>> = (0..n)
            .map(|i| {
                let input = if i == 0 { Some(secret.clone()) } else { None };
                Box::new(AvssEndToEnd::new(Avss::new(
                    Sid::new("avss-crash"),
                    PartyId(i),
                    PartyId(0),
                    keyring.clone(),
                    secrets[i].clone(),
                    input,
                ))) as BoxedParty<AvssMessage, Vec<u8>>
            })
            .collect();
        let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(11)));
        sim.silence(PartyId(5));
        sim.silence(PartyId(6));
        let report = sim.run(2_000_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
        for (i, out) in sim.outputs().into_iter().enumerate() {
            if i < 5 {
                assert_eq!(out.unwrap(), secret);
            }
        }
    }

    #[test]
    fn silent_dealer_produces_no_output() {
        let n = 4;
        let (keyring, secrets) = setup(n);
        let parties = sharing_parties(n, b"unused", &keyring, &secrets);
        let mut sim = Simulation::new(parties, Box::new(FifoScheduler::default()));
        sim.silence(PartyId(0));
        let report = sim.run(100_000);
        assert_eq!(report.reason, StopReason::Quiescent);
        assert!(sim.outputs().into_iter().skip(1).all(|o| o.is_none()));
    }

    #[test]
    fn inconsistent_shares_to_f_parties_still_complete() {
        // The dealer corrupts the shares of one party (≤ f); that party will
        // not sign, but n − f = 3 other signatures still form a quorum, and
        // the victim still outputs (with ⊥ shares) by totality.
        let n = 4;
        let (keyring, secrets) = setup(n);
        let dealer_inner = Avss::new(
            Sid::new("avss-bad"),
            PartyId(0),
            PartyId(0),
            keyring.clone(),
            secrets[0].clone(),
            Some(b"sneaky".to_vec()),
        );
        let mut victims = BTreeSet::new();
        victims.insert(3usize);
        let mut dealer = InconsistentShareDealer::new(dealer_inner, victims);
        let mut receivers: Vec<Avss> = (1..n)
            .map(|i| {
                Avss::new(
                    Sid::new("avss-bad"),
                    PartyId(i),
                    PartyId(0),
                    keyring.clone(),
                    secrets[i].clone(),
                    None,
                )
            })
            .collect();
        // Drive the exchange by hand with a simple FIFO queue.
        let mut queue: Vec<(PartyId, PartyId, AvssMessage)> = Vec::new();
        let push = |step: Step<AvssMessage>, from: PartyId, queue: &mut Vec<(PartyId, PartyId, AvssMessage)>| {
            for o in step.outgoing {
                match o.dest {
                    setupfree_net::Dest::All => {
                        for t in 0..n {
                            queue.push((from, PartyId(t), o.msg.clone()));
                        }
                    }
                    setupfree_net::Dest::One(t) => queue.push((from, t, o.msg.clone())),
                }
            }
        };
        push(dealer.activate(), PartyId(0), &mut queue);
        let mut guard = 0;
        while let Some((from, to, msg)) = queue.pop() {
            guard += 1;
            assert!(guard < 100_000, "no livelock expected");
            let step = if to.index() == 0 {
                dealer.handle(from, msg)
            } else {
                receivers[to.index() - 1].handle(from, msg)
            };
            push(step, to, &mut queue);
        }
        // All honest receivers complete sharing with the same ciphertext.
        let outs: Vec<&AvssShareOutput> =
            receivers.iter().filter_map(|r| r.sharing_output()).collect();
        assert_eq!(outs.len(), 3);
        assert!(outs.windows(2).all(|w| w[0].cipher == w[1].cipher));
        // The victim (party 3) holds no shares but still has the ciphertext.
        assert!(receivers[2].sharing_output().unwrap().share_a.is_none());
    }

    #[test]
    fn replayed_key_stored_does_not_inflate_the_quorum() {
        // A replaying adversary re-delivers one party's valid KeyStored
        // signature; the dealer must count distinct signers, not messages.
        let n = 4;
        let (keyring, secrets) = setup(n);
        let mut dealer = Avss::new(
            Sid::new("avss-dedupe"),
            PartyId(0),
            PartyId(0),
            keyring.clone(),
            secrets[0].clone(),
            Some(b"dedupe".to_vec()),
        );
        let mut receivers: Vec<Avss> = (1..n)
            .map(|i| {
                Avss::new(
                    Sid::new("avss-dedupe"),
                    PartyId(i),
                    PartyId(0),
                    keyring.clone(),
                    secrets[i].clone(),
                    None,
                )
            })
            .collect();
        let key_shares = dealer.activate();
        let mut stored: Vec<(PartyId, AvssMessage)> = Vec::new();
        for o in key_shares.outgoing {
            if let setupfree_net::Dest::One(pid) = o.dest {
                if pid.index() > 0 {
                    let step = receivers[pid.index() - 1].handle(PartyId(0), o.msg);
                    for r in step.outgoing {
                        stored.push((pid, r.msg));
                    }
                }
            }
        }
        assert_eq!(stored.len(), 3);
        // Replay party 1's signature three times: no quorum.
        let (p1, sig1) = (stored[0].0, stored[0].1.clone());
        for _ in 0..3 {
            let step = dealer.handle(p1, sig1.clone());
            assert!(step.outgoing.is_empty(), "replayed signature must not count");
        }
        // Two more distinct signers complete the n − f = 3 quorum.
        assert!(dealer.handle(stored[1].0, stored[1].1.clone()).outgoing.is_empty());
        let step = dealer.handle(stored[2].0, stored[2].1.clone());
        let cipher = step.outgoing.iter().find_map(|o| match &o.msg {
            AvssMessage::Cipher { quorum, .. } => Some(quorum.clone()),
            _ => None,
        });
        let cert = cipher.expect("third distinct signer completes the quorum");
        assert_eq!(cert.signer_count(), 3);
        assert_eq!(cert.quorum(), 3);
    }

    #[test]
    fn message_wire_roundtrip() {
        let (keyring, secrets) = setup(4);
        let mut dealer = Avss::new(
            Sid::new("wire"),
            PartyId(0),
            PartyId(0),
            keyring,
            secrets[0].clone(),
            Some(vec![1, 2, 3]),
        );
        let step = dealer.activate();
        for o in step.outgoing {
            let bytes = setupfree_wire::to_bytes(&o.msg);
            assert_eq!(setupfree_wire::from_bytes::<AvssMessage>(&bytes).unwrap(), o.msg);
        }
        let other = AvssMessage::Key { key: Scalar::from_u64(5) };
        assert_eq!(
            setupfree_wire::from_bytes::<AvssMessage>(&setupfree_wire::to_bytes(&other)).unwrap(),
            other
        );
    }

    #[test]
    fn sharing_communication_is_quadratic() {
        let measure = |n: usize| {
            let (keyring, secrets) = setup(n);
            let parties = sharing_parties(n, &[5u8; 32], &keyring, &secrets);
            let mut sim = Simulation::new(parties, Box::new(FifoScheduler::default()));
            sim.run(5_000_000);
            sim.metrics().honest_bytes as f64
        };
        let b4 = measure(4);
        let b8 = measure(8);
        let b16 = measure(16);
        let r1 = b8 / b4;
        let r2 = b16 / b8;
        // O(λ n²): doubling n should roughly quadruple the bytes.
        assert!(r1 > 2.0 && r1 < 8.0, "r1 = {r1}");
        assert!(r2 > 2.0 && r2 < 8.0, "r2 = {r2}");
    }

    #[test]
    #[should_panic(expected = "the dealer must provide a secret")]
    fn dealer_without_secret_panics() {
        let (keyring, secrets) = setup(4);
        let _ = Avss::new(Sid::new("x"), PartyId(0), PartyId(0), keyring, secrets[0].clone(), None);
    }

    #[test]
    #[should_panic(expected = "reconstruction requires the sharing output")]
    fn premature_reconstruction_panics() {
        let (keyring, secrets) = setup(4);
        let mut avss =
            Avss::new(Sid::new("x"), PartyId(1), PartyId(0), keyring, secrets[1].clone(), None);
        let _ = avss.start_reconstruction();
    }
}
