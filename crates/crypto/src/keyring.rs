//! The bulletin PKI: per-party secret keys and the public keyring every
//! party can read (§3, "Bulletin PKI").
//!
//! Key *generation* is local to each party; the keyring only aggregates the
//! registered public keys.  The [`generate_pki`] helper plays the role of the
//! registration phase for tests, examples and benchmarks; adversarial
//! ("maliciously generated") keys can be injected by constructing
//! [`PartySecrets`] from chosen secrets and registering their public halves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pvss::{PvssDecryptionKey, PvssEncryptionKey};
use crate::scalar::Scalar;
use crate::sig::{SigningKey, VerifyingKey};
use crate::vrf::{VrfPublicKey, VrfSecretKey};

/// All secret key material held by one party.
#[derive(Debug, Clone)]
pub struct PartySecrets {
    /// This party's index in `[0, n)`.
    pub index: usize,
    /// Signing key (bulletin-PKI signature key).
    pub sig: SigningKey,
    /// VRF secret key.
    pub vrf: VrfSecretKey,
    /// PVSS decryption key.
    pub pvss_dk: PvssDecryptionKey,
}

impl PartySecrets {
    /// Generates fresh key material for party `index`.
    pub fn generate<R: Rng + ?Sized>(index: usize, rng: &mut R) -> Self {
        let (pvss_dk, _) = PvssDecryptionKey::generate(rng);
        PartySecrets {
            index,
            sig: SigningKey::generate(rng),
            vrf: VrfSecretKey::generate(rng),
            pvss_dk,
        }
    }

    /// The public keys this party registers at the PKI.
    pub fn public(&self) -> PartyPublic {
        PartyPublic {
            sig: self.sig.verifying_key(),
            vrf: self.vrf.public_key(),
            pvss_ek: PvssEncryptionKey::from_decryption_key(&self.pvss_dk),
        }
    }

    /// A generator only this party can reproduce, seeded from a hash of its
    /// PVSS decryption key, the domain `domain` and `fields`.  A protocol
    /// that derandomizes what it contributes (a dealt secret and the
    /// randomness that deals it) draws it from here, so runs stay
    /// reproducible per PKI while the values stay unknown to every other
    /// party.
    pub fn private_rng(&self, domain: &str, fields: &[&[u8]]) -> StdRng {
        let key = self.pvss_dk.0.to_bytes();
        let mut keyed: Vec<&[u8]> = Vec::with_capacity(fields.len() + 1);
        keyed.push(&key);
        keyed.extend_from_slice(fields);
        StdRng::from_seed(crate::hash::hash_fields(domain, &keyed))
    }
}

impl PvssEncryptionKey {
    /// Derives the encryption key corresponding to a decryption key.
    fn from_decryption_key(dk: &PvssDecryptionKey) -> Self {
        PvssEncryptionKey(crate::pairing::G2::generator().pow(dk.0))
    }
}

/// The public keys registered by one party.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartyPublic {
    /// Signature verification key.
    pub sig: VerifyingKey,
    /// VRF public key.
    pub vrf: VrfPublicKey,
    /// PVSS encryption key.
    pub pvss_ek: PvssEncryptionKey,
}

/// The bulletin PKI view shared by all parties: `n`, `f`, and every party's
/// registered public keys.
#[derive(Debug, Clone)]
pub struct Keyring {
    n: usize,
    f: usize,
    parties: Vec<PartyPublic>,
    /// Signature keys in party order, cached contiguously for the aggregate
    /// certificate paths that need a `&[VerifyingKey]` on every verification.
    sig_keys: Vec<VerifyingKey>,
}

impl Keyring {
    /// Builds a keyring from registered public keys, with `f = ⌊(n−1)/3⌋`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than four parties are registered (the smallest system
    /// that tolerates one fault).
    pub fn new(parties: Vec<PartyPublic>) -> Self {
        let n = parties.len();
        assert!(n >= 4, "at least 4 parties are required (n ≥ 3f + 1 with f ≥ 1)");
        let sig_keys = parties.iter().map(|p| p.sig).collect();
        Keyring { n, f: (n - 1) / 3, parties, sig_keys }
    }

    /// Number of parties.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Fault threshold `f = ⌊(n−1)/3⌋`.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Quorum size `n − f`.
    pub fn quorum(&self) -> usize {
        self.n - self.f
    }

    /// The registered public keys of party `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn party(&self, i: usize) -> &PartyPublic {
        &self.parties[i]
    }

    /// VRF public key of party `i`.
    pub fn vrf_key(&self, i: usize) -> &VrfPublicKey {
        &self.parties[i].vrf
    }

    /// All PVSS encryption keys, in party order.
    pub fn pvss_eks(&self) -> Vec<PvssEncryptionKey> {
        self.parties.iter().map(|p| p.pvss_ek).collect()
    }

    /// All signature verification keys, in party order.
    pub fn sig_keys(&self) -> Vec<VerifyingKey> {
        self.sig_keys.clone()
    }

    /// The cached contiguous slice of signature verification keys, in party
    /// order — the registry the aggregate certificate paths verify against.
    pub fn sig_key_slice(&self) -> &[VerifyingKey] {
        &self.sig_keys
    }
}

/// Generates a complete PKI for `n` parties from a seed: returns the shared
/// keyring and each party's secrets.  Used by tests, examples and benchmarks
/// as the "registration phase".
pub fn generate_pki(n: usize, seed: u64) -> (Keyring, Vec<PartySecrets>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let secrets: Vec<PartySecrets> = (0..n).map(|i| PartySecrets::generate(i, &mut rng)).collect();
    let keyring = Keyring::new(secrets.iter().map(PartySecrets::public).collect());
    (keyring, secrets)
}

/// Generates a PKI in which the parties listed in `malicious` register keys
/// derived from adversarially chosen (non-uniform) secrets — modelling the
/// "malicious key generation" threat of §3.
pub fn generate_pki_with_malicious(n: usize, seed: u64, malicious: &[usize]) -> (Keyring, Vec<PartySecrets>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut secrets: Vec<PartySecrets> = (0..n).map(|i| PartySecrets::generate(i, &mut rng)).collect();
    for &m in malicious {
        // The adversary picks tiny, structured secrets instead of uniform ones.
        let chosen = Scalar::from_u64(m as u64 + 1);
        secrets[m] = PartySecrets {
            index: m,
            sig: SigningKey::from_secret(chosen),
            vrf: VrfSecretKey::from_secret(chosen),
            pvss_dk: secrets[m].pvss_dk,
        };
    }
    let keyring = Keyring::new(secrets.iter().map(PartySecrets::public).collect());
    (keyring, secrets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pki_shapes() {
        let (keyring, secrets) = generate_pki(7, 1);
        assert_eq!(keyring.n(), 7);
        assert_eq!(keyring.f(), 2);
        assert_eq!(keyring.quorum(), 5);
        assert_eq!(secrets.len(), 7);
        for (i, s) in secrets.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(keyring.party(i).sig, s.sig.verifying_key());
            assert_eq!(keyring.party(i).vrf, s.vrf.public_key());
        }
    }

    #[test]
    fn pki_is_deterministic_in_seed() {
        let (k1, _) = generate_pki(4, 42);
        let (k2, _) = generate_pki(4, 42);
        let (k3, _) = generate_pki(4, 43);
        assert_eq!(k1.party(0), k2.party(0));
        assert_ne!(k1.party(0), k3.party(0));
    }

    #[test]
    fn signatures_from_generated_keys_verify() {
        let (keyring, secrets) = generate_pki(4, 2);
        let sig = secrets[2].sig.sign(b"id", b"msg");
        assert!(keyring.sig_key_slice()[2].verify(b"id", b"msg", &sig));
        assert!(!keyring.sig_key_slice()[1].verify(b"id", b"msg", &sig));
    }

    #[test]
    fn malicious_keys_still_form_valid_keyring() {
        let (keyring, secrets) = generate_pki_with_malicious(7, 3, &[0, 5]);
        // Malicious parties can still sign/verify under their chosen keys.
        let sig = secrets[0].sig.sign(b"id", b"msg");
        assert!(keyring.sig_key_slice()[0].verify(b"id", b"msg", &sig));
        // And their VRF remains unique/verifiable.
        let (out, proof) = secrets[5].vrf.eval(b"id", b"seed");
        assert!(keyring.vrf_key(5).verify(b"id", b"seed", &out, &proof));
    }

    #[test]
    #[should_panic(expected = "at least 4 parties")]
    fn too_few_parties_panics() {
        let (_, secrets) = generate_pki(4, 4);
        Keyring::new(secrets.iter().take(2).map(PartySecrets::public).collect());
    }

    #[test]
    fn fault_thresholds_follow_formula() {
        for (n, f) in [(4, 1), (7, 2), (10, 3), (13, 4), (16, 5), (31, 10)] {
            let (keyring, _) = generate_pki(n, 7);
            assert_eq!(keyring.f(), f, "n = {n}");
            assert!(keyring.n() > 3 * keyring.f());
        }
    }
}
