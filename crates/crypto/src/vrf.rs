//! Verifiable random function (ECVRF-style: hash-to-group plus a
//! Chaum–Pedersen DLEQ proof) over the discrete-log group.
//!
//! The Coin protocol (Alg 4) has each party evaluate its VRF on the
//! unpredictable seed produced by `Seeding`; the largest evaluation in the
//! weak core-set determines the coin.  The VRF therefore needs *uniqueness*
//! (a malicious party cannot produce two different valid evaluations for the
//! same input) and *verifiability* — both provided by the DLEQ proof — and
//! *unpredictability under malicious key generation*, modelled here in the
//! random-oracle style of David et al. \[26\]: the output is a hash of
//! `Γ = H(m)^sk`, so without evaluating the VRF (which requires `sk`) the
//! output is indistinguishable from random even for adversarially chosen
//! keys, as long as the seed `m` is unpredictable.

use std::fmt;

use rand::Rng;
use setupfree_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::hash::{hash_fields, Digest};
use crate::group::GroupElement;
use crate::multiexp;
use crate::scalar::Scalar;

/// VRF output length in bytes.
pub const VRF_OUTPUT_LEN: usize = 32;

/// A VRF secret key.
#[derive(Clone)]
pub struct VrfSecretKey {
    sk: Scalar,
    pk: VrfPublicKey,
}

impl fmt::Debug for VrfSecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VrfSecretKey(pk={:?})", self.pk)
    }
}

/// A VRF public key, registered at the bulletin PKI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VrfPublicKey(GroupElement);

/// The pseudorandom VRF output `r`.
///
/// Outputs are compared as big-endian unsigned integers ("the largest VRF"
/// in Alg 4/5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VrfOutput(pub [u8; VRF_OUTPUT_LEN]);

impl fmt::Debug for VrfOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VrfOutput({:02x}{:02x}{:02x}{:02x}..)", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// The proof `π` accompanying a VRF output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VrfProof {
    gamma: GroupElement,
    c: Scalar,
    s: Scalar,
}

impl VrfSecretKey {
    /// Generates a fresh VRF key pair.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::from_secret(Scalar::random_nonzero(rng))
    }

    /// Builds a key pair from a known secret (used by malicious-key tests).
    pub fn from_secret(sk: Scalar) -> Self {
        let pk = VrfPublicKey(multiexp::fixed_pow_g1(sk));
        VrfSecretKey { sk, pk }
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> VrfPublicKey {
        self.pk
    }

    /// Evaluates the VRF on `(context, input)`, returning the pseudorandom
    /// output and the proof (the paper's `VRF.Eval^ID_i(x)`).
    pub fn eval(&self, context: &[u8], input: &[u8]) -> (VrfOutput, VrfProof) {
        let h = hash_point(context, input);
        let gamma = h.pow(self.sk);
        // DLEQ proof that log_g(pk) == log_h(gamma).
        let k = Scalar::from_hash("setupfree/vrf/nonce", &[&self.sk.to_bytes(), context, input]);
        let k = if k.is_zero() { Scalar::one() } else { k };
        let a = multiexp::fixed_pow_g1(k);
        let b = h.pow(k);
        let c = dleq_challenge(&self.pk.0, &h, &gamma, &a, &b, context, input);
        let s = k + c * self.sk;
        let proof = VrfProof { gamma, c, s };
        (output_from_gamma(&gamma), proof)
    }
}

impl VrfPublicKey {
    /// Verifies that `(output, proof)` is the unique valid VRF evaluation of
    /// this key on `(context, input)` (the paper's `VRF.Verify^ID_i`).
    pub fn verify(&self, context: &[u8], input: &[u8], output: &VrfOutput, proof: &VrfProof) -> bool {
        let h = hash_point(context, input);
        // Recompute the DLEQ commitments A = g^s·pk^{-c} and B = h^s·γ^{-c}:
        // the g-part rides the fixed-base table, the h-part is one Shamir
        // double exponentiation, and both negate the challenge scalar
        // (x^{-c} = x^{q-c}) instead of inverting group elements.
        let neg_c = proof.c.negate();
        let a = multiexp::fixed_pow_g1(proof.s) * self.0.pow(neg_c);
        let b = multiexp::dual_pow(h, proof.s, proof.gamma, neg_c);
        let c = dleq_challenge(&self.0, &h, &proof.gamma, &a, &b, context, input);
        c == proof.c && output_from_gamma(&proof.gamma) == *output
    }

    /// The underlying group element.
    pub fn element(&self) -> GroupElement {
        self.0
    }
}

impl VrfOutput {
    /// Interprets the lowest bit of the output — the tossed coin of Alg 4
    /// line 31.
    pub fn lowest_bit(&self) -> bool {
        self.0[VRF_OUTPUT_LEN - 1] & 1 == 1
    }

    /// Reduces the output modulo `n` and adds one — the leader index rule
    /// `(r mod n) + 1` of Alg 5 line 16 (returned 0-based here).
    pub fn leader_index(&self, n: usize) -> usize {
        let mut acc: u64 = 0;
        for b in self.0.iter() {
            acc = acc.wrapping_mul(256).wrapping_add(u64::from(*b)) % (n as u64);
        }
        acc as usize
    }

    /// The low half of the output, used as a beacon value (§7.3).
    pub fn beacon_value(&self) -> [u8; VRF_OUTPUT_LEN / 2] {
        let mut out = [0u8; VRF_OUTPUT_LEN / 2];
        out.copy_from_slice(&self.0[VRF_OUTPUT_LEN / 2..]);
        out
    }
}

fn hash_point(context: &[u8], input: &[u8]) -> GroupElement {
    GroupElement::hash_to_group("setupfree/vrf/h2g", &[context, input])
}

fn output_from_gamma(gamma: &GroupElement) -> VrfOutput {
    VrfOutput(hash_fields("setupfree/vrf/output", &[&gamma.to_bytes()]))
}

#[allow(clippy::too_many_arguments)]
fn dleq_challenge(
    pk: &GroupElement,
    h: &GroupElement,
    gamma: &GroupElement,
    a: &GroupElement,
    b: &GroupElement,
    context: &[u8],
    input: &[u8],
) -> Scalar {
    Scalar::from_hash(
        "setupfree/vrf/challenge",
        &[
            &pk.to_bytes(),
            &h.to_bytes(),
            &gamma.to_bytes(),
            &a.to_bytes(),
            &b.to_bytes(),
            context,
            input,
        ],
    )
}

/// Hashes a digest-like value; helper for deriving beacon outputs.
pub fn hash_output(domain: &str, fields: &[&[u8]]) -> Digest {
    hash_fields(domain, fields)
}

impl Encode for VrfPublicKey {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
}

impl Decode for VrfPublicKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(VrfPublicKey(GroupElement::decode(r)?))
    }
}

impl Encode for VrfOutput {
    fn encode(&self, w: &mut Writer) {
        w.write_bytes(&self.0);
    }
}

impl Decode for VrfOutput {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(VrfOutput(<[u8; VRF_OUTPUT_LEN]>::decode(r)?))
    }
}

impl Encode for VrfProof {
    fn encode(&self, w: &mut Writer) {
        self.gamma.encode(w);
        self.c.encode(w);
        self.s.encode(w);
    }
}

impl Decode for VrfProof {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(VrfProof {
            gamma: GroupElement::decode(r)?,
            c: Scalar::decode(r)?,
            s: Scalar::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key(seed: u64) -> VrfSecretKey {
        let mut rng = StdRng::seed_from_u64(seed);
        VrfSecretKey::generate(&mut rng)
    }

    #[test]
    fn eval_verify_roundtrip() {
        let sk = key(1);
        let (out, proof) = sk.eval(b"ctx", b"seed");
        assert!(sk.public_key().verify(b"ctx", b"seed", &out, &proof));
    }

    #[test]
    fn wrong_input_rejected() {
        let sk = key(2);
        let (out, proof) = sk.eval(b"ctx", b"seed");
        assert!(!sk.public_key().verify(b"ctx", b"other", &out, &proof));
    }

    #[test]
    fn wrong_key_rejected() {
        let sk1 = key(3);
        let sk2 = key(4);
        let (out, proof) = sk1.eval(b"ctx", b"seed");
        assert!(!sk2.public_key().verify(b"ctx", b"seed", &out, &proof));
    }

    #[test]
    fn forged_output_rejected() {
        let sk = key(5);
        let (out, proof) = sk.eval(b"ctx", b"seed");
        let mut forged = out;
        forged.0[0] ^= 1;
        assert!(!sk.public_key().verify(b"ctx", b"seed", &forged, &proof));
    }

    #[test]
    fn uniqueness_same_input_same_output() {
        let sk = key(6);
        let (o1, _) = sk.eval(b"ctx", b"seed");
        let (o2, _) = sk.eval(b"ctx", b"seed");
        assert_eq!(o1, o2);
    }

    #[test]
    fn different_inputs_give_different_outputs() {
        let sk = key(7);
        let (o1, _) = sk.eval(b"ctx", b"a");
        let (o2, _) = sk.eval(b"ctx", b"b");
        assert_ne!(o1, o2);
    }

    #[test]
    fn lowest_bit_and_leader_index() {
        let mut out = VrfOutput([0u8; VRF_OUTPUT_LEN]);
        assert!(!out.lowest_bit());
        out.0[VRF_OUTPUT_LEN - 1] = 1;
        assert!(out.lowest_bit());
        assert_eq!(out.leader_index(7), 1);
        let max = VrfOutput([0xff; VRF_OUTPUT_LEN]);
        assert!(max.leader_index(10) < 10);
    }

    #[test]
    fn wire_roundtrips() {
        let sk = key(8);
        let (out, proof) = sk.eval(b"ctx", b"seed");
        let pk = sk.public_key();
        assert_eq!(setupfree_wire::from_bytes::<VrfOutput>(&setupfree_wire::to_bytes(&out)).unwrap(), out);
        assert_eq!(setupfree_wire::from_bytes::<VrfProof>(&setupfree_wire::to_bytes(&proof)).unwrap(), proof);
        assert_eq!(setupfree_wire::from_bytes::<VrfPublicKey>(&setupfree_wire::to_bytes(&pk)).unwrap(), pk);
    }

    #[test]
    fn outputs_ordered_as_bytes() {
        let a = VrfOutput([0x01; VRF_OUTPUT_LEN]);
        let b = VrfOutput([0x02; VRF_OUTPUT_LEN]);
        assert!(b > a);
    }

    proptest! {
        #[test]
        fn prop_eval_verify(seed in any::<u64>(), input in proptest::collection::vec(any::<u8>(), 0..64)) {
            let sk = key(seed);
            let (out, proof) = sk.eval(b"prop", &input);
            prop_assert!(sk.public_key().verify(b"prop", &input, &out, &proof));
        }

        #[test]
        fn prop_leader_index_in_range(bytes in any::<[u8; 32]>(), n in 1usize..64) {
            let out = VrfOutput(bytes);
            prop_assert!(out.leader_index(n) < n);
        }

        #[test]
        fn prop_malicious_key_cannot_forge_other_seed(seed in any::<u64>(), secret in 1u64..u64::MAX) {
            // Even with an adversarially chosen secret key, a proof for one
            // seed never verifies against another seed.
            let sk = VrfSecretKey::from_secret(Scalar::from_u64(secret));
            let _ = seed;
            let (out, proof) = sk.eval(b"prop", b"seed-1");
            prop_assert!(!sk.public_key().verify(b"prop", b"seed-2", &out, &proof));
        }
    }
}
