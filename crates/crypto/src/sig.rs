//! EUF-CMA digital signatures (Schnorr over the discrete-log group, in the
//! random-oracle model).
//!
//! These are the bulletin-PKI signatures used by every protocol in the paper:
//! the `KeyStored` acknowledgements of the AVSS dealer (Alg 1), the
//! `Confirm`/`Commit` quorum proofs of WCS (Alg 3), the `AggPvssStored`
//! certificates of Seeding (Alg 7), and the quorum certificates of the VBA's
//! provable broadcasts (§7.2).  Signatures are always domain-separated by a
//! protocol session identifier, mirroring the paper's `Sign^ID_i(m)` notation.
//!
//! A quorum `Σ = {Sign^ID_i(m)}` of such signatures travels as one
//! [`QuorumCert`], and a protocol builds each one with a [`CertCollector`]:
//! it checks every signature once, on arrival, against a message absorbed
//! once, and assembles the certificate from the kept nonce commitments at
//! the quorum-th valid signer.  Every signature check recomputes the nonce
//! commitment `R = g^s · pk^{−c}` in one place, `nonce_commitment`.
//!
//! Hashing is most of a certificate check, so each call absorbs the message
//! once, each signer costs its challenge hash, and the signers' aggregation
//! weights come two per SHA-256 compression from one counter-mode stream
//! over the transcript digest (the `setupfree/sig/v3` layout): at k = 27
//! signers, a 59-byte context and a 32-byte message, a check takes 48
//! compressions.

use std::cell::Cell;
use std::fmt;

use rand::Rng;
use setupfree_wire::{codec, Decode, Encode, Reader, WireError, Writer};

use crate::group::GroupElement;
use crate::hash::{CounterStream, Digest, Sha256};
use crate::multiexp;
use crate::scalar::Scalar;

/// Serialized signature length in bytes (challenge + response scalars).
pub const SIGNATURE_LEN: usize = 16;

/// Domain of every hash a signature operation makes.
const SIG_DOMAIN: &[u8] = b"setupfree/sig/v3";
/// Domain of an aggregate's weight stream over its transcript digest.
const AGG_WEIGHTS_DOMAIN: &str = "setupfree/sig/agg-weights";
/// Role tags absorbed after the shared `(context, message)` prefix.
const TAG_NONCE: u8 = 0;
const TAG_CHALLENGE: u8 = 1;
const TAG_AGG_BIND: u8 = 2;

/// A Schnorr signing key.
#[derive(Clone)]
pub struct SigningKey {
    sk: Scalar,
    pk: VerifyingKey,
}

impl fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the secret exponent.
        write!(f, "SigningKey(pk={:?})", self.pk)
    }
}

/// A Schnorr verification (public) key, registered at the bulletin PKI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifyingKey(GroupElement);

/// A Schnorr signature `(c, s)` with `c` the Fiat–Shamir challenge and `s`
/// the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    c: Scalar,
    s: Scalar,
}

impl SigningKey {
    /// Generates a fresh key pair.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let sk = Scalar::random_nonzero(rng);
        Self::from_secret(sk)
    }

    /// Builds a key pair from a known secret exponent (used by tests and by
    /// the "maliciously generated key" adversary hooks).
    pub fn from_secret(sk: Scalar) -> Self {
        let pk = VerifyingKey(multiexp::fixed_pow_g1(sk));
        SigningKey { sk, pk }
    }

    /// The corresponding verification key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.pk
    }

    /// Secret verifier-side entropy derived from the signing key, for the
    /// random weights of local batch verifications (e.g.
    /// [`crate::pedersen::PedersenCommitment::verify_shares_batch`]).  Never
    /// leaves the party, so an adversary fixing the batched claims cannot
    /// predict the weights derived from it.
    pub fn batch_entropy(&self) -> [u8; 32] {
        crate::hash::hash_fields("setupfree/sig/batch-entropy", &[&self.sk.to_bytes()])
    }

    /// Signs `message` under the given domain-separation `context`
    /// (the paper's `Sign^ID_i(m)`).
    pub fn sign(&self, context: &[u8], message: &[u8]) -> Signature {
        let prefix = message_state(context, message);
        // Derandomized nonce: k = H(ctx, m, sk).  Deterministic signing keeps
        // the protocol state machines reproducible under a fixed seed.
        let mut nonce = prefix.clone();
        nonce.update(&[TAG_NONCE]);
        nonce.update(&self.sk.to_bytes());
        let k = Scalar::from_digest(&nonce.finalize());
        let k = if k.is_zero() { Scalar::one() } else { k };
        let r = multiexp::fixed_pow_g1(k);
        let c = challenge(&prefix, &r, &self.pk);
        let s = k + c * self.sk;
        Signature { c, s }
    }
}

impl VerifyingKey {
    /// Verifies `sig` on `(context, message)`.
    pub fn verify(&self, context: &[u8], message: &[u8], sig: &Signature) -> bool {
        nonce_commitment(&message_state(context, message), self, sig).is_some()
    }

    /// The underlying group element.
    pub fn element(&self) -> GroupElement {
        self.0
    }
}

/// The random-oracle prefix shared by every hash of one signature
/// operation: the domain, the context and the message, each length-framed.
/// Each `sign`, `verify`, `aggregate` and aggregate `verify` call absorbs it
/// once and clones the state for every nonce, challenge and transcript hash,
/// so a long message (Seeding certifies a whole aggregated PVSS script) is
/// hashed once per call, not once per signer.  The message goes in as given:
/// a signature binds exactly these bytes, never a digest of them.
fn message_state(context: &[u8], message: &[u8]) -> Sha256 {
    let mut h = Sha256::new();
    h.update_framed(SIG_DOMAIN);
    h.update_framed(context);
    h.update_framed(message);
    h
}

/// The Fiat–Shamir challenge `H(ctx, m, R, pk)`.  `R` and `pk` have fixed
/// width, so the input stays injective without framing them.
fn challenge(prefix: &Sha256, r: &GroupElement, pk: &VerifyingKey) -> Scalar {
    let mut h = prefix.clone();
    h.update(&[TAG_CHALLENGE]);
    h.update(&r.to_bytes());
    h.update(&pk.0.to_bytes());
    Scalar::from_digest(&h.finalize())
}

/// The nonce commitment `R = g^s · pk^{−c}` of `sig`, if `sig` is valid on
/// the message absorbed in `prefix`: it is iff the challenge recomputed from
/// `R` is `c`.  The g-part uses the fixed-base table and `pk^{−c}` is a
/// single exponentiation with the negated scalar (order-q elements satisfy
/// `x^{−c} = x^{q−c}`), avoiding the full field inversion the naive form
/// would pay.
fn nonce_commitment(prefix: &Sha256, pk: &VerifyingKey, sig: &Signature) -> Option<GroupElement> {
    let r = multiexp::fixed_pow_g1(sig.s) * pk.0.pow(sig.c.negate());
    (challenge(prefix, &r, pk) == sig.c).then_some(r)
}

// ---------------------------------------------------------------------------
// Half-aggregation of Schnorr signatures over a repeated message.
// ---------------------------------------------------------------------------

/// Why an aggregation or certificate operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggregateError {
    /// No signatures were provided.
    Empty,
    /// The same signer index appeared more than once.
    DuplicateSigner(usize),
    /// A signer index is not registered at the PKI (`index ≥ n`).
    SignerOutOfRange(usize),
    /// Per-signature verification identified these contributions as invalid;
    /// the remaining entries are fine and can be re-aggregated without them.
    BadContributors(Vec<usize>),
    /// Fewer valid signatures than the pinned quorum size.
    BelowQuorum {
        /// Number of signatures provided.
        have: usize,
        /// The pinned quorum size.
        need: usize,
    },
}

impl fmt::Display for AggregateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregateError::Empty => write!(f, "no signatures to aggregate"),
            AggregateError::DuplicateSigner(i) => write!(f, "duplicate signer {i}"),
            AggregateError::SignerOutOfRange(i) => write!(f, "signer {i} out of range"),
            AggregateError::BadContributors(v) => write!(f, "invalid contributions from {v:?}"),
            AggregateError::BelowQuorum { have, need } => {
                write!(f, "only {have} valid signatures, quorum needs {need}")
            }
        }
    }
}

impl std::error::Error for AggregateError {}

/// A half-aggregated Schnorr multi-signature on one repeated `(ctx, msg)`.
///
/// The aggregator keeps each signer's nonce commitment `R_i` (recomputed from
/// the individual signature via the verification equation `R_i = g^{s_i} ·
/// pk_i^{-c_i}`) but collapses the `k` response scalars into one random
/// linear combination `s̄ = Σ z_i·s_i`, with the weights `z_i` derived by
/// Fiat–Shamir from the full transcript (signer bitmap, all `R_i`, context
/// and message): the transcript digest seeds one counter-mode stream whose
/// every block gives two weights.  Verification checks the combined
/// equation
///
/// ```text
///   g^{s̄}  ==  Π R_i^{z_i} · Π pk_i^{c_i·z_i}
/// ```
///
/// with a single fixed-base exponentiation and one Pippenger multi-exp over
/// `2k` bases — and the wire carries one response scalar instead of `k`,
/// and a `⌈n/8⌉`-byte signer bitmap instead of `k` party ids.  The bitmap
/// representation makes duplicate signers unrepresentable.  It travels only
/// inside a [`QuorumCert`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct AggregateSignature {
    /// Signer bitmap: bit `i` (byte `i/8`, bit `i%8`) set iff party `i`
    /// contributed.  Trailing zero bytes are non-canonical and rejected.
    signers: Vec<u8>,
    /// Nonce commitments `R_i`, in ascending signer order.
    rs: Vec<GroupElement>,
    /// Weighted aggregate response `s̄ = Σ z_i·s_i`.
    s: Scalar,
}

/// A checked contribution to an aggregate: the signer, its nonce
/// commitment `R_i` and its response `s_i`.
type Contribution = (usize, GroupElement, Scalar);

fn bitmap_indices(bitmap: &[u8]) -> impl Iterator<Item = usize> + '_ {
    bitmap.iter().enumerate().flat_map(|(byte, bits)| {
        (0..8).filter_map(move |bit| (bits & (1 << bit) != 0).then_some(byte * 8 + bit))
    })
}

/// The Fiat–Shamir weights `z_0, z_1, …` of the signers in ascending
/// order, drawn lazily two per block of one [`CounterStream`] over the
/// transcript digest: block `j` gives `z_{2j}` from its first 16 bytes and
/// `z_{2j+1}` from its last 16, each reduced mod q (a zero weight becomes
/// one).  The digest binds every `R_i` and the signer set, so the weights
/// are fixed only after they are, and a forger cannot steer the linear
/// combination.
fn agg_weights(digest: &Digest) -> impl Iterator<Item = Scalar> {
    CounterStream::new(AGG_WEIGHTS_DOMAIN, digest).flat_map(|block| {
        let (lo, hi) = block.split_at(16);
        [lo, hi].map(|half| {
            let z = Scalar::from_wide(half.try_into().expect("16 bytes"));
            if z.is_zero() {
                Scalar::one()
            } else {
                z
            }
        })
    })
}

impl AggregateSignature {
    /// Aggregates individual signatures on one `(context, message)` into a
    /// half-aggregated multi-signature.
    ///
    /// Each input signature is verified while its nonce commitment is
    /// recomputed, so invalid contributions are identified by signer index
    /// ([`AggregateError::BadContributors`]) rather than poisoning the
    /// aggregate — the caller drops them and re-aggregates the rest.
    fn aggregate(
        entries: &[(usize, Signature)],
        keys: &[VerifyingKey],
        context: &[u8],
        message: &[u8],
    ) -> Result<Self, AggregateError> {
        if entries.is_empty() {
            return Err(AggregateError::Empty);
        }
        let mut sorted: Vec<(usize, Signature)> = entries.to_vec();
        sorted.sort_by_key(|(i, _)| *i);
        for pair in sorted.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(AggregateError::DuplicateSigner(pair[0].0));
            }
        }
        if let Some(&(i, _)) = sorted.iter().find(|(i, _)| *i >= keys.len()) {
            return Err(AggregateError::SignerOutOfRange(i));
        }
        let prefix = message_state(context, message);
        let mut bad = Vec::new();
        let mut contributions = Vec::with_capacity(sorted.len());
        for &(i, sig) in &sorted {
            match nonce_commitment(&prefix, &keys[i], &sig) {
                Some(r) => contributions.push((i, r, sig.s)),
                None => bad.push(i),
            }
        }
        if !bad.is_empty() {
            return Err(AggregateError::BadContributors(bad));
        }
        Ok(Self::assemble(&prefix, &contributions))
    }

    /// Folds checked contributions, in ascending signer order, into the
    /// aggregate: the signer bitmap, the transcript digest, the weights
    /// `z_i` and `s̄ = Σ z_i·s_i`.
    fn assemble(prefix: &Sha256, contributions: &[Contribution]) -> Self {
        let mut signers = vec![0u8; contributions.last().map_or(0, |&(i, ..)| i / 8 + 1)];
        for &(i, ..) in contributions {
            signers[i / 8] |= 1 << (i % 8);
        }
        let rs: Vec<GroupElement> = contributions.iter().map(|&(_, r, _)| r).collect();
        let digest = Self::transcript_digest(prefix, &signers, &rs);
        let mut s = Scalar::zero();
        for (&(.., s_i), z) in contributions.iter().zip(agg_weights(&digest)) {
            s += z * s_i;
        }
        AggregateSignature { signers, rs, s }
    }

    /// `H(ctx, m, signer bitmap, all R_i)`, from the call's shared prefix.
    fn transcript_digest(prefix: &Sha256, signers: &[u8], rs: &[GroupElement]) -> [u8; 32] {
        let mut h = prefix.clone();
        h.update(&[TAG_AGG_BIND]);
        h.update_framed(signers);
        h.update(&(rs.len() as u64).to_le_bytes());
        for r in rs {
            h.update(&r.to_bytes());
        }
        h.finalize()
    }

    /// Verifies the aggregate against the registered keys with one fixed-base
    /// exponentiation and a single multi-exponentiation over `2k` bases.
    fn verify(&self, keys: &[VerifyingKey], context: &[u8], message: &[u8]) -> bool {
        if self.rs.is_empty() || self.signers.last() == Some(&0) {
            return false;
        }
        let indices: Vec<usize> = bitmap_indices(&self.signers).collect();
        if indices.len() != self.rs.len() || indices.last().is_some_and(|&i| i >= keys.len()) {
            return false;
        }
        let prefix = message_state(context, message);
        let digest = Self::transcript_digest(&prefix, &self.signers, &self.rs);
        let mut bases = Vec::with_capacity(2 * indices.len());
        let mut exps = Vec::with_capacity(2 * indices.len());
        for ((&i, &r), z) in indices.iter().zip(&self.rs).zip(agg_weights(&digest)) {
            let c = challenge(&prefix, &r, &keys[i]);
            bases.push(r);
            exps.push(z);
            bases.push(keys[i].0);
            exps.push(c * z);
        }
        multiexp::fixed_pow_g1(self.s) == multiexp::multi_exp(&bases, &exps)
    }

    /// Signer indices in ascending order.
    fn signer_indices(&self) -> Vec<usize> {
        bitmap_indices(&self.signers).collect()
    }

    /// Number of contributing signers.
    fn signer_count(&self) -> usize {
        self.signers.iter().map(|b| b.count_ones() as usize).sum()
    }
}

impl Encode for AggregateSignature {
    fn encode(&self, w: &mut Writer) {
        self.signers.encode(w);
        self.rs.encode(w);
        self.s.encode(w);
    }
}

impl Decode for AggregateSignature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let signers = Vec::<u8>::decode(r)?;
        let rs = Vec::<GroupElement>::decode(r)?;
        let s = Scalar::decode(r)?;
        // Internal consistency: bitmap popcount matches the commitment count
        // and the bitmap has no non-canonical trailing zero bytes.
        let count: usize = signers.iter().map(|b| b.count_ones() as usize).sum();
        if count != rs.len() || count == 0 || signers.last() == Some(&0) {
            return Err(WireError::InvalidValue { ty: "AggregateSignature" });
        }
        Ok(AggregateSignature { signers, rs, s })
    }
}

std::thread_local! {
    /// [`QuorumCert::verify`] calls made on this thread (see
    /// [`qc_verify_count`]).
    static QC_VERIFY_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// How many [`QuorumCert::verify`] calls the calling thread has made —
/// [`QuorumCert::verify_within`] included once it reaches the aggregate
/// check.  A deterministic work counter: a simulation runs on one thread,
/// so the difference across a run is that run's certificate work.
pub fn qc_verify_count() -> u64 {
    QC_VERIFY_COUNT.with(Cell::get)
}

/// A quorum certificate: a half-aggregated Schnorr multi-signature plus the
/// pinned quorum size it must meet.
///
/// This is the compact wire form of the paper's `Σ = {Sign^ID_i(m)}` quorum
/// justifications: the signers' nonce commitments `R_i`, one weighted
/// response scalar and a signer bitmap instead of `n − f` individual
/// `(PartyId, Signature)` pairs.  Protocols build one with a
/// [`CertCollector`]; [`QuorumCert::new`] builds one from a finished list.
/// [`QuorumCert::verify`] pins the signer count to the quorum, and
/// [`QuorumCert::verify_within`] restricts the signer set to an explicit
/// membership list (committee-relative quorums).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumCert {
    quorum: u32,
    agg: AggregateSignature,
}

impl QuorumCert {
    /// Builds a certificate from at least `quorum` signatures.  Duplicate
    /// and out-of-range signers are rejected, and every signature is checked,
    /// so invalid ones are reported by signer index
    /// ([`AggregateError::BadContributors`]).
    pub fn new(
        quorum: usize,
        entries: &[(usize, Signature)],
        keys: &[VerifyingKey],
        context: &[u8],
        message: &[u8],
    ) -> Result<Self, AggregateError> {
        if entries.len() < quorum {
            return Err(AggregateError::BelowQuorum { have: entries.len(), need: quorum });
        }
        let agg = AggregateSignature::aggregate(entries, keys, context, message)?;
        Ok(QuorumCert { quorum: quorum as u32, agg })
    }

    /// The pinned quorum size.
    pub fn quorum(&self) -> usize {
        self.quorum as usize
    }

    /// Signer indices in ascending order.
    pub fn signer_indices(&self) -> Vec<usize> {
        self.agg.signer_indices()
    }

    /// Number of contributing signers.
    pub fn signer_count(&self) -> usize {
        self.agg.signer_count()
    }

    /// Verifies the certificate: at least `quorum` distinct registered
    /// signers and a valid aggregate on `(context, message)`.
    pub fn verify(&self, keys: &[VerifyingKey], context: &[u8], message: &[u8]) -> bool {
        QC_VERIFY_COUNT.with(|count| count.set(count.get() + 1));
        self.agg.signer_count() >= self.quorum() && self.agg.verify(keys, context, message)
    }

    /// Verifies the certificate against a committee: every signer must be in
    /// `members` (global party indices), with at least `quorum` of them.
    pub fn verify_within(
        &self,
        keys: &[VerifyingKey],
        members: &[usize],
        context: &[u8],
        message: &[u8],
    ) -> bool {
        self.agg.signer_indices().iter().all(|i| members.contains(i))
            && self.verify(keys, context, message)
    }
}

/// Builds one [`QuorumCert`] from signatures that arrive one at a time: the
/// AVSS dealer's `KeyStored` quorum, the WCS `Commit`, the Seeding leader's
/// commitment and the VBA proposer's certificate.
///
/// The framed `(context, message)` prefix is absorbed once, at
/// construction, and the message itself is not kept.  Each offered
/// signature is checked once, on arrival, and its nonce commitment `R_i` is
/// kept, so the certificate is assembled at the `quorum`-th valid signer
/// without checking any signature again.  It equals [`QuorumCert::new`]
/// over the same signatures, byte for byte.
#[derive(Debug)]
pub struct CertCollector {
    quorum: usize,
    prefix: Sha256,
    /// The valid contributions so far, in ascending signer order.
    contributions: Vec<Contribution>,
}

impl CertCollector {
    /// A collector of a `quorum`-signer certificate on `(context, message)`.
    pub fn new(quorum: usize, context: &[u8], message: &[u8]) -> Self {
        CertCollector {
            quorum,
            prefix: message_state(context, message),
            contributions: Vec::with_capacity(quorum),
        }
    }

    /// Offers `signer`'s signature, checked against `keys[signer]`.  Each
    /// signer's first valid signature counts: an invalid one leaves the
    /// signer's slot open, while a repeated signer, a signer outside `keys`
    /// and any offer once the certificate is built count for nothing.
    /// Returns the certificate once, at the `quorum`-th valid signer.
    pub fn offer(
        &mut self,
        signer: usize,
        sig: &Signature,
        keys: &[VerifyingKey],
    ) -> Option<QuorumCert> {
        if self.contributions.len() >= self.quorum {
            return None;
        }
        let slot = self.contributions.binary_search_by_key(&signer, |&(i, ..)| i).err()?;
        let r = nonce_commitment(&self.prefix, keys.get(signer)?, sig)?;
        self.contributions.insert(slot, (signer, r, sig.s));
        (self.contributions.len() == self.quorum).then(|| QuorumCert {
            quorum: self.quorum as u32,
            agg: AggregateSignature::assemble(&self.prefix, &self.contributions),
        })
    }
}

codec!(struct QuorumCert { quorum, agg });
codec!(struct VerifyingKey(_));
codec!(struct Signature { c, s });

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(seed: u64) -> SigningKey {
        let mut rng = StdRng::seed_from_u64(seed);
        SigningKey::generate(&mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = keypair(1);
        let sig = sk.sign(b"ctx", b"hello");
        assert!(sk.verifying_key().verify(b"ctx", b"hello", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let sk = keypair(2);
        let sig = sk.sign(b"ctx", b"hello");
        assert!(!sk.verifying_key().verify(b"ctx", b"hellp", &sig));
    }

    #[test]
    fn wrong_context_rejected() {
        let sk = keypair(3);
        let sig = sk.sign(b"ctx-a", b"hello");
        assert!(!sk.verifying_key().verify(b"ctx-b", b"hello", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let sk1 = keypair(4);
        let sk2 = keypair(5);
        let sig = sk1.sign(b"ctx", b"hello");
        assert!(!sk2.verifying_key().verify(b"ctx", b"hello", &sig));
    }

    #[test]
    fn digests_and_re_encodings_of_the_message_are_rejected() {
        // A signature binds the message bytes themselves: neither a digest
        // of them nor a re-framing across the context boundary verifies.
        let sk = keypair(9);
        let pk = sk.verifying_key();
        let message = b"an aggregated script";
        let sig = sk.sign(b"ctx", message);
        assert!(pk.verify(b"ctx", message, &sig));
        let digest = crate::hash::sha256(message);
        let framed = setupfree_wire::to_bytes(&message.to_vec());
        let mut shifted_ctx = b"ctx".to_vec();
        shifted_ctx.push(message[0]);
        for (ctx, m) in [
            (&b"ctx"[..], &digest[..]),
            (&b"ctx"[..], &framed[..]),
            (&shifted_ctx[..], &message[1..]),
            (&b"ct"[..], &b"xan aggregated script"[..]),
        ] {
            assert!(!pk.verify(ctx, m, &sig), "{ctx:?} / {m:?}");
        }
        let (sks, pks) = quorum_setup(5, 21);
        let entries = signed_entries(&sks, &[0, 1, 2, 4], b"ctx", message);
        let cert = QuorumCert::new(4, &entries, &pks, b"ctx", message).unwrap();
        assert!(cert.verify(&pks, b"ctx", message));
        assert!(!cert.verify(&pks, b"ctx", &digest));
        assert!(!cert.verify(&pks, b"ctx", &framed));
        let signed_digest = signed_entries(&sks, &[0, 1, 2, 4], b"ctx", &digest);
        assert_eq!(
            AggregateSignature::aggregate(&signed_digest, &pks, b"ctx", message),
            Err(AggregateError::BadContributors(vec![0, 1, 2, 4]))
        );
    }

    #[test]
    fn each_call_hashes_the_message_once() {
        use crate::hash::compression_count;
        // A 4 KiB message is 64 blocks; per-signer hashing would cost 64 more
        // compressions for every signer.  The framed prefix leaves 43 bytes
        // buffered, so each challenge spills into a second block: k signers
        // cost 64 + 2k, plus the transcript (2 blocks at k = 3, 3 at k = 9)
        // and the weights (1 + ⌈k/2⌉), whether aggregated or verified.
        let message = vec![7u8; 4096];
        let (sks, pks) = quorum_setup(13, 22);
        let work = |signers: &[usize]| {
            let entries = signed_entries(&sks, signers, b"ctx", &message);
            let before = compression_count();
            let cert = QuorumCert::new(signers.len(), &entries, &pks, b"ctx", &message).unwrap();
            let aggregate = compression_count() - before;
            let before = compression_count();
            assert!(cert.verify(&pks, b"ctx", &message));
            (aggregate, compression_count() - before)
        };
        assert_eq!(work(&[0, 1, 2]), (64 + 6 + 2 + 3, 64 + 6 + 2 + 3));
        assert_eq!(work(&[0, 1, 2, 3, 4, 5, 6, 7, 8]), (64 + 18 + 3 + 6, 64 + 18 + 3 + 6));
        // One signature: the nonce fits the prefix's last block, the
        // challenge spills, both when signing and when verifying.
        let before = compression_count();
        let sig = sks[0].sign(b"ctx", &message);
        assert_eq!(compression_count() - before, 64 + 1 + 2);
        let before = compression_count();
        assert!(pks[0].verify(b"ctx", &message, &sig));
        assert_eq!(compression_count() - before, 64 + 2);
    }

    #[test]
    fn a_certificate_costs_one_challenge_per_signer_and_one_weight_block_per_two() {
        use crate::hash::compression_count;
        // The `vba-sharded` shape: a 59-byte context and a 32-byte message
        // frame into a 131-byte prefix (2 blocks), after which each
        // challenge is one compression.  A check of k signers costs the
        // prefix, k challenges, the transcript digest (t blocks: the bitmap
        // and the k R_i after the prefix's 3-byte tail) and the weights,
        // 1 + ⌈k/2⌉; the offer completing a collector costs its own
        // challenge, the transcript and the weights.
        let (ctx, msg) = ([b'c'; 59], [b'm'; 32]);
        let (sks, pks) = quorum_setup(27, 28);
        // (k, verify = 2 + k + t + weights, completing offer = 1 + t + weights)
        for (k, verify, offer) in [
            (1, 2 + 1 + 1 + (1 + 1), 1 + 1 + (1 + 1)),
            (2, 2 + 2 + 1 + (1 + 1), 1 + 1 + (1 + 1)),
            (9, 2 + 9 + 2 + (1 + 5), 1 + 2 + (1 + 5)),
            (26, 2 + 26 + 4 + (1 + 13), 1 + 4 + (1 + 13)),
            (27, 2 + 27 + 4 + (1 + 14), 1 + 4 + (1 + 14)),
        ] {
            let signers: Vec<usize> = (0..k).collect();
            let entries = signed_entries(&sks, &signers, &ctx, &msg);
            let mut collector = CertCollector::new(k, &ctx, &msg);
            for (i, sig) in &entries[..k - 1] {
                let before = compression_count();
                assert!(collector.offer(*i, sig, &pks).is_none());
                assert_eq!(compression_count() - before, 1, "k = {k}: offer from {i}");
            }
            let (last, sig) = entries[k - 1];
            let before = compression_count();
            let cert = collector.offer(last, &sig, &pks).expect("the k-th signer completes it");
            assert_eq!(compression_count() - before, offer, "k = {k}: completing offer");
            let before = compression_count();
            assert!(cert.verify(&pks, &ctx, &msg));
            assert_eq!(compression_count() - before, verify, "k = {k}: verify");
        }
    }

    #[test]
    fn signature_is_deterministic() {
        let sk = keypair(6);
        assert_eq!(sk.sign(b"c", b"m"), sk.sign(b"c", b"m"));
    }

    #[test]
    fn signature_wire_roundtrip() {
        let sk = keypair(7);
        let sig = sk.sign(b"c", b"m");
        let bytes = setupfree_wire::to_bytes(&sig);
        assert_eq!(bytes.len(), SIGNATURE_LEN);
        assert_eq!(setupfree_wire::from_bytes::<Signature>(&bytes).unwrap(), sig);
        let pk = sk.verifying_key();
        let pk_bytes = setupfree_wire::to_bytes(&pk);
        assert_eq!(setupfree_wire::from_bytes::<VerifyingKey>(&pk_bytes).unwrap(), pk);
    }

    #[test]
    fn debug_does_not_leak_secret() {
        let sk = keypair(8);
        let printed = format!("{sk:?}");
        assert!(!printed.contains(&sk.sk.to_u64().to_string()));
    }

    fn quorum_setup(n: usize, seed: u64) -> (Vec<SigningKey>, Vec<VerifyingKey>) {
        let sks: Vec<SigningKey> = (0..n as u64).map(|i| keypair(seed * 1000 + i)).collect();
        let pks = sks.iter().map(SigningKey::verifying_key).collect();
        (sks, pks)
    }

    fn signed_entries(sks: &[SigningKey], signers: &[usize], ctx: &[u8], msg: &[u8]) -> Vec<(usize, Signature)> {
        signers.iter().map(|&i| (i, sks[i].sign(ctx, msg))).collect()
    }

    #[test]
    fn aggregate_roundtrip_verifies() {
        let (sks, pks) = quorum_setup(7, 10);
        let entries = signed_entries(&sks, &[0, 2, 3, 5, 6], b"ctx", b"msg");
        let agg = AggregateSignature::aggregate(&entries, &pks, b"ctx", b"msg").unwrap();
        assert!(agg.verify(&pks, b"ctx", b"msg"));
        assert_eq!(agg.signer_indices(), vec![0, 2, 3, 5, 6]);
        let bytes = setupfree_wire::to_bytes(&agg);
        let decoded = setupfree_wire::from_bytes::<AggregateSignature>(&bytes).unwrap();
        assert_eq!(decoded, agg);
        assert!(decoded.verify(&pks, b"ctx", b"msg"));
    }

    #[test]
    fn aggregate_is_compact_on_the_wire() {
        let (sks, pks) = quorum_setup(22, 11);
        let signers: Vec<usize> = (0..15).collect();
        let entries = signed_entries(&sks, &signers, b"ctx", b"msg");
        let agg = AggregateSignature::aggregate(&entries, &pks, b"ctx", b"msg").unwrap();
        let agg_len = setupfree_wire::to_bytes(&agg).len();
        let naive_len = setupfree_wire::to_bytes(&entries).len();
        // bitmap (1+3) + 15 commitments (1+15·8) + one response (8) = 133 B,
        // versus 15 × (usize + 16-byte sig) pairs.
        assert!(agg_len * 2 < naive_len, "aggregate {agg_len} B vs naive {naive_len} B");
    }

    #[test]
    fn aggregate_rejects_wrong_message_and_context() {
        let (sks, pks) = quorum_setup(5, 12);
        let entries = signed_entries(&sks, &[0, 1, 2, 3], b"ctx", b"msg");
        let agg = AggregateSignature::aggregate(&entries, &pks, b"ctx", b"msg").unwrap();
        assert!(!agg.verify(&pks, b"ctx", b"other"));
        assert!(!agg.verify(&pks, b"other", b"msg"));
    }

    #[test]
    fn aggregate_identifies_bad_contributors() {
        let (sks, pks) = quorum_setup(6, 13);
        let mut entries = signed_entries(&sks, &[0, 1, 2, 3, 4], b"ctx", b"msg");
        entries[1].1 = sks[1].sign(b"ctx", b"different message");
        entries[3].1 = Signature { c: entries[3].1.c, s: entries[3].1.s + Scalar::one() };
        match AggregateSignature::aggregate(&entries, &pks, b"ctx", b"msg") {
            Err(AggregateError::BadContributors(bad)) => assert_eq!(bad, vec![1, 3]),
            other => panic!("expected BadContributors, got {other:?}"),
        }
    }

    #[test]
    fn aggregate_rejects_duplicate_and_out_of_range_signers() {
        let (sks, pks) = quorum_setup(5, 14);
        let mut entries = signed_entries(&sks, &[0, 1, 2], b"ctx", b"msg");
        entries.push(entries[0]);
        assert_eq!(
            AggregateSignature::aggregate(&entries, &pks, b"ctx", b"msg"),
            Err(AggregateError::DuplicateSigner(0))
        );
        let oor = vec![(7usize, sks[0].sign(b"ctx", b"msg"))];
        assert_eq!(
            AggregateSignature::aggregate(&oor, &pks, b"ctx", b"msg"),
            Err(AggregateError::SignerOutOfRange(7))
        );
        assert_eq!(
            AggregateSignature::aggregate(&[], &pks, b"ctx", b"msg"),
            Err(AggregateError::Empty)
        );
    }

    #[test]
    fn forged_aggregate_rejected() {
        let (sks, pks) = quorum_setup(5, 15);
        let entries = signed_entries(&sks, &[0, 1, 2, 3], b"ctx", b"msg");
        let agg = AggregateSignature::aggregate(&entries, &pks, b"ctx", b"msg").unwrap();
        // Tamper the aggregate response.
        let mut forged = agg.clone();
        forged.s += Scalar::one();
        assert!(!forged.verify(&pks, b"ctx", b"msg"));
        // Tamper one nonce commitment.
        let mut forged = agg.clone();
        forged.rs[2] = GroupElement::generator();
        assert!(!forged.verify(&pks, b"ctx", b"msg"));
    }

    #[test]
    fn signer_bitmap_tampering_rejected() {
        let (sks, pks) = quorum_setup(8, 16);
        let entries = signed_entries(&sks, &[0, 1, 2, 3, 4], b"ctx", b"msg");
        let agg = AggregateSignature::aggregate(&entries, &pks, b"ctx", b"msg").unwrap();
        // Claim a different signer set (swap signer 4 for signer 5): the
        // transcript digest and challenges change, so verification fails.
        let mut forged = agg.clone();
        forged.signers[0] = (forged.signers[0] & !(1 << 4)) | (1 << 5);
        assert!(!forged.verify(&pks, b"ctx", b"msg"));
        // Add a signer bit without a matching commitment: structurally invalid.
        let mut forged = agg.clone();
        forged.signers[0] |= 1 << 6;
        assert!(!forged.verify(&pks, b"ctx", b"msg"));
        // Out-of-range signer bit.
        let mut forged = agg;
        forged.signers.push(0x01);
        forged.rs.push(GroupElement::generator());
        assert!(!forged.verify(&pks, b"ctx", b"msg"));
    }

    #[test]
    fn quorum_cert_verifies_and_pins_quorum() {
        let (sks, pks) = quorum_setup(7, 17);
        let entries = signed_entries(&sks, &[0, 1, 3, 4, 6], b"ctx", b"msg");
        let cert = QuorumCert::new(5, &entries, &pks, b"ctx", b"msg").unwrap();
        assert!(cert.verify(&pks, b"ctx", b"msg"));
        assert_eq!(cert.quorum(), 5);
        assert_eq!(cert.signer_count(), 5);
        let bytes = setupfree_wire::to_bytes(&cert);
        let decoded = setupfree_wire::from_bytes::<QuorumCert>(&bytes).unwrap();
        assert!(decoded.verify(&pks, b"ctx", b"msg"));
        // Below quorum at construction.
        assert_eq!(
            QuorumCert::new(6, &entries, &pks, b"ctx", b"msg"),
            Err(AggregateError::BelowQuorum { have: 5, need: 6 })
        );
        // A decoded cert whose quorum field was inflated must fail verify.
        let mut r = setupfree_wire::Reader::new(&bytes);
        let mut tampered = QuorumCert::decode(&mut r).unwrap();
        tampered.quorum = 6;
        assert!(!tampered.verify(&pks, b"ctx", b"msg"));
    }

    #[test]
    fn quorum_cert_rejects_non_members() {
        let (sks, pks) = quorum_setup(8, 18);
        let members = [1usize, 2, 4, 5, 7];
        let entries = signed_entries(&sks, &[1, 2, 4, 5], b"ctx", b"msg");
        let cert = QuorumCert::new(4, &entries, &pks, b"ctx", b"msg").unwrap();
        assert!(cert.verify_within(&pks, &members, b"ctx", b"msg"));
        // A cert padded with a valid signature from a non-member must reject
        // under the committee-relative check even though the aggregate itself
        // is valid.
        let padded = signed_entries(&sks, &[1, 2, 4, 5, 6], b"ctx", b"msg");
        let cert = QuorumCert::new(4, &padded, &pks, b"ctx", b"msg").unwrap();
        assert!(cert.verify(&pks, b"ctx", b"msg"));
        assert!(!cert.verify_within(&pks, &members, b"ctx", b"msg"));
    }

    #[test]
    fn qc_verify_count_counts_every_verify_call() {
        let (sks, pks) = quorum_setup(4, 20);
        let entries = signed_entries(&sks, &[0, 1, 2], b"ctx", b"msg");
        let cert = QuorumCert::new(3, &entries, &pks, b"ctx", b"msg").unwrap();
        let before = qc_verify_count();
        assert!(cert.verify(&pks, b"ctx", b"msg"));
        assert!(!cert.verify(&pks, b"ctx", b"other"), "a failed check is counted too");
        assert!(cert.verify_within(&pks, &[0, 1, 2], b"ctx", b"msg"));
        // Rejected by the membership check before reaching the aggregate.
        assert!(!cert.verify_within(&pks, &[0, 1], b"ctx", b"msg"));
        assert_eq!(qc_verify_count() - before, 3);
        // Per thread: another thread's verifications are not charged here.
        std::thread::spawn(move || cert.verify(&pks, b"ctx", b"msg")).join().unwrap();
        assert_eq!(qc_verify_count() - before, 3);
    }

    /// Offers `(signer, signature)` pairs in order and returns what each
    /// offer returned.
    fn offer_all(
        collector: &mut CertCollector,
        offers: &[(usize, Signature)],
        keys: &[VerifyingKey],
    ) -> Vec<Option<QuorumCert>> {
        offers.iter().map(|(i, sig)| collector.offer(*i, sig, keys)).collect()
    }

    #[test]
    fn the_collector_builds_the_certificate_new_builds_and_returns_it_once() {
        let (sks, pks) = quorum_setup(7, 23);
        let offers = signed_entries(&sks, &[4, 0, 6, 2, 5, 1, 3], b"ctx", b"msg");
        let mut collector = CertCollector::new(5, b"ctx", b"msg");
        let returned = offer_all(&mut collector, &offers, &pks);
        assert!(returned[..4].iter().all(Option::is_none));
        assert!(returned[5..].iter().all(Option::is_none), "no second certificate");
        let cert = returned[4].clone().expect("the fifth valid signer completes it");
        let built = QuorumCert::new(5, &offers[..5], &pks, b"ctx", b"msg").unwrap();
        assert_eq!(cert, built);
        assert_eq!(setupfree_wire::to_bytes(&cert), setupfree_wire::to_bytes(&built));
        assert_eq!(cert.signer_indices(), vec![0, 2, 4, 5, 6]);
        assert!(cert.verify(&pks, b"ctx", b"msg"));
    }

    #[test]
    fn the_collector_counts_a_repeated_signer_once() {
        let (sks, pks) = quorum_setup(5, 24);
        let sig = sks[0].sign(b"ctx", b"msg");
        let mut collector = CertCollector::new(3, b"ctx", b"msg");
        for _ in 0..3 {
            assert!(collector.offer(0, &sig, &pks).is_none());
        }
        assert!(collector.offer(1, &sks[1].sign(b"ctx", b"msg"), &pks).is_none());
        let cert = collector.offer(2, &sks[2].sign(b"ctx", b"msg"), &pks).unwrap();
        assert_eq!(cert.signer_indices(), vec![0, 1, 2]);
    }

    #[test]
    fn an_invalid_signature_leaves_its_signers_slot_open() {
        let (sks, pks) = quorum_setup(5, 25);
        let mut collector = CertCollector::new(3, b"ctx", b"msg");
        // Signer 1's signature on another message, and signer 3's signature
        // offered as signer 1's: neither counts, and neither uses up slot 1.
        assert!(collector.offer(1, &sks[1].sign(b"ctx", b"other"), &pks).is_none());
        assert!(collector.offer(1, &sks[3].sign(b"ctx", b"msg"), &pks).is_none());
        assert!(collector.offer(0, &sks[0].sign(b"ctx", b"msg"), &pks).is_none());
        assert!(collector.offer(1, &sks[1].sign(b"ctx", b"msg"), &pks).is_none());
        let cert = collector.offer(2, &sks[2].sign(b"ctx", b"msg"), &pks).unwrap();
        assert_eq!(cert.signer_indices(), vec![0, 1, 2]);
        assert!(cert.verify(&pks, b"ctx", b"msg"));
    }

    #[test]
    fn a_signer_outside_the_keys_is_ignored() {
        let (sks, pks) = quorum_setup(5, 26);
        let sig = sks[0].sign(b"ctx", b"msg");
        let mut collector = CertCollector::new(2, b"ctx", b"msg");
        assert!(collector.offer(pks.len(), &sig, &pks).is_none());
        assert!(collector.offer(usize::MAX, &sig, &pks).is_none());
        assert!(collector.offer(0, &sig, &pks).is_none());
        let cert = collector.offer(4, &sks[4].sign(b"ctx", b"msg"), &pks).unwrap();
        assert_eq!(cert.signer_indices(), vec![0, 4]);
    }

    #[test]
    fn a_collector_absorbs_the_message_once() {
        use crate::hash::compression_count;
        // A 4 KiB message is 64 blocks.  Each offer that does not complete
        // the certificate costs one challenge (2 compressions here: the
        // prefix's buffered tail spills into a second block); an offer that
        // counts for nothing costs none.
        let message = vec![7u8; 4096];
        let (sks, pks) = quorum_setup(13, 27);
        let offers = signed_entries(&sks, &[3, 1, 4, 0, 5, 9, 2, 6, 8], b"ctx", &message);
        let before = compression_count();
        let mut collector = CertCollector::new(offers.len(), b"ctx", &message);
        assert_eq!(compression_count() - before, 64);
        for (i, sig) in &offers[..offers.len() - 1] {
            let before = compression_count();
            assert!(collector.offer(*i, sig, &pks).is_none());
            assert_eq!(compression_count() - before, 2, "offer from {i}");
        }
        let before = compression_count();
        assert!(collector.offer(3, &offers[0].1, &pks).is_none());
        assert_eq!(compression_count() - before, 0, "a repeated signer");
        let (last, sig) = offers[offers.len() - 1];
        let cert = collector.offer(last, &sig, &pks).unwrap();
        let late = sks[7].sign(b"ctx", &message);
        let before = compression_count();
        assert!(collector.offer(7, &late, &pks).is_none());
        assert_eq!(compression_count() - before, 0, "an offer after the certificate");
        assert_eq!(cert, QuorumCert::new(offers.len(), &offers, &pks, b"ctx", &message).unwrap());
    }

    #[test]
    fn aggregate_decode_rejects_inconsistent_bitmap() {
        let (sks, pks) = quorum_setup(5, 19);
        let entries = signed_entries(&sks, &[0, 1, 2], b"ctx", b"msg");
        let agg = AggregateSignature::aggregate(&entries, &pks, b"ctx", b"msg").unwrap();
        // Append a commitment without a bitmap bit.
        let mut forged = agg.clone();
        forged.rs.push(GroupElement::generator());
        let err = setupfree_wire::from_bytes::<AggregateSignature>(&setupfree_wire::to_bytes(&forged));
        assert!(err.is_err());
        // Trailing zero byte in the bitmap is non-canonical.
        let mut forged = agg;
        forged.signers.push(0);
        let err = setupfree_wire::from_bytes::<AggregateSignature>(&setupfree_wire::to_bytes(&forged));
        assert!(err.is_err());
    }

    proptest! {
        #[test]
        fn prop_aggregate_equivalent_to_per_sig_verification(
            seed in 0u64..1000,
            signer_mask in 1u8..64,
            tamper in proptest::option::of(0usize..6),
        ) {
            // The aggregate verifies iff every per-signature verification
            // passes — over random signer subsets and optional tampering.
            let (sks, pks) = quorum_setup(6, 20 + seed);
            let signers: Vec<usize> = (0..6).filter(|i| signer_mask & (1 << i) != 0).collect();
            let mut entries = signed_entries(&sks, &signers, b"p", b"m");
            if let Some(t) = tamper {
                if let Some(slot) = entries.iter().position(|(i, _)| *i == t) {
                    entries[slot].1 = sks[t].sign(b"p", b"tampered");
                }
            }
            let per_sig_ok = entries.iter().all(|(i, sig)| pks[*i].verify(b"p", b"m", sig));
            match AggregateSignature::aggregate(&entries, &pks, b"p", b"m") {
                Ok(agg) => {
                    prop_assert!(per_sig_ok);
                    prop_assert!(agg.verify(&pks, b"p", b"m"));
                }
                Err(AggregateError::BadContributors(bad)) => {
                    prop_assert!(!per_sig_ok);
                    for i in &bad {
                        prop_assert!(!pks[*i].verify(b"p", b"m", &entries.iter().find(|(j, _)| j == i).unwrap().1));
                    }
                }
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
        }

        #[test]
        fn prop_collector_matches_new_over_its_first_quorum_of_valid_signers(
            seed in 0u64..1000,
            order in proptest::collection::vec(0usize..9, 0..24),
            tampered in proptest::collection::vec(any::<bool>(), 24),
            quorum in 1usize..6,
        ) {
            // Offers arrive in any order, with repeats, out-of-range signers
            // and invalid signatures mixed in.
            let (sks, pks) = quorum_setup(6, 40 + seed);
            let mut collector = CertCollector::new(quorum, b"p", b"m");
            let mut counted: Vec<(usize, Signature)> = Vec::new();
            let mut certs = Vec::new();
            for (&i, &bad) in order.iter().zip(&tampered) {
                let sig = sks[i % 6].sign(b"p", if bad { b"x" } else { b"m" });
                if i < 6 && !bad && counted.len() < quorum && counted.iter().all(|(j, _)| *j != i) {
                    counted.push((i, sig));
                }
                certs.extend(collector.offer(i, &sig, &pks));
            }
            if counted.len() == quorum {
                prop_assert_eq!(certs.len(), 1);
                prop_assert_eq!(&certs[0], &QuorumCert::new(quorum, &counted, &pks, b"p", b"m").unwrap());
            } else {
                prop_assert!(certs.is_empty());
            }
        }

        #[test]
        fn prop_valid_signatures_verify(seed in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 0..128)) {
            let sk = keypair(seed);
            let sig = sk.sign(b"prop", &msg);
            prop_assert!(sk.verifying_key().verify(b"prop", &msg, &sig));
        }

        #[test]
        fn prop_tampered_signature_rejected(seed in any::<u64>(), delta in 1u64..1000) {
            let sk = keypair(seed);
            let sig = sk.sign(b"prop", b"msg");
            let bad = Signature { c: sig.c, s: sig.s + Scalar::from_u64(delta) };
            prop_assert!(!sk.verifying_key().verify(b"prop", b"msg", &bad));
        }
    }
}
