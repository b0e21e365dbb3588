//! The prime-order discrete-log group `G` (quadratic-residue subgroup of
//! `Z_p^*` for the global safe prime `p = 2q + 1`).
//!
//! This group backs the "real" discrete-log cryptography of the paper:
//! Pedersen polynomial commitments (AVSS, Alg 1), Schnorr signatures (the
//! bulletin-PKI signatures used everywhere), and the DLEQ-based VRF (Coin,
//! Alg 4).

use std::fmt;
use std::ops::Mul;

use setupfree_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::hash::hash_fields;
use crate::modarith::{inv_mod, mul_mod, pow_mod};
use crate::params::group_params;
use crate::scalar::Scalar;

/// Serialized length of a group element in bytes.
pub const GROUP_ELEMENT_LEN: usize = 8;

/// An element of the order-`q` subgroup.
///
/// # Example
///
/// ```
/// use setupfree_crypto::group::GroupElement;
/// use setupfree_crypto::scalar::Scalar;
///
/// let g = GroupElement::generator();
/// let a = Scalar::from_u64(12);
/// let b = Scalar::from_u64(30);
/// assert_eq!(g.pow(a).pow(b), g.pow(a * b));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupElement(u64);

impl fmt::Debug for GroupElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GroupElement({})", self.0)
    }
}

impl GroupElement {
    /// The group identity element.
    pub fn identity() -> Self {
        GroupElement(1)
    }

    /// The primary generator `g1`.
    pub fn generator() -> Self {
        GroupElement(group_params().g1)
    }

    /// The secondary generator `g2` (independent of `g1`), used as the
    /// blinding base of Pedersen commitments.
    pub fn generator2() -> Self {
        GroupElement(group_params().g2)
    }

    /// Returns `true` for the identity element.
    pub fn is_identity(self) -> bool {
        self.0 == 1
    }

    /// Group exponentiation `self^e`.
    pub fn pow(self, e: Scalar) -> Self {
        GroupElement(pow_mod(self.0, e.to_u64(), group_params().p))
    }

    /// Group inverse.
    pub fn inverse(self) -> Self {
        GroupElement(inv_mod(self.0, group_params().p))
    }

    /// Deterministically hashes arbitrary fields into the group
    /// (hash-to-representative then squaring maps into the QR subgroup).
    pub fn hash_to_group(domain: &str, fields: &[&[u8]]) -> Self {
        let p = group_params().p;
        let mut counter: u64 = 0;
        loop {
            let mut all: Vec<&[u8]> = Vec::with_capacity(fields.len() + 1);
            let ctr_bytes = counter.to_le_bytes();
            all.push(&ctr_bytes);
            all.extend_from_slice(fields);
            let digest = hash_fields(domain, &all);
            let x = u64::from_le_bytes(digest[..8].try_into().expect("8 bytes")) % p;
            if x > 1 {
                let y = mul_mod(x, x, p);
                if y != 1 {
                    return GroupElement(y);
                }
            }
            counter += 1;
        }
    }

    /// `g1^a * g2^b` — the Pedersen commitment base operation, computed
    /// through the fixed-base comb tables of [`crate::multiexp`].
    pub fn commit(a: Scalar, b: Scalar) -> Self {
        crate::multiexp::commit(a, b)
    }

    /// Wraps a raw representative (must already be a subgroup member); only
    /// the exponentiation engine constructs elements this way.
    pub(crate) fn from_raw(v: u64) -> Self {
        GroupElement(v)
    }

    /// The raw representative, for the exponentiation engine.
    pub(crate) fn raw(self) -> u64 {
        self.0
    }

    /// Canonical 8-byte encoding.
    pub fn to_bytes(self) -> [u8; GROUP_ELEMENT_LEN] {
        self.0.to_le_bytes()
    }

    /// Decodes and validates subgroup membership.
    pub fn from_bytes(bytes: [u8; GROUP_ELEMENT_LEN]) -> Option<Self> {
        let gp = group_params();
        let v = u64::from_le_bytes(bytes);
        if v == 0 || v >= gp.p {
            return None;
        }
        if pow_mod(v, gp.q, gp.p) != 1 {
            return None;
        }
        Some(GroupElement(v))
    }
}

impl Mul for GroupElement {
    type Output = GroupElement;
    fn mul(self, rhs: GroupElement) -> GroupElement {
        GroupElement(mul_mod(self.0, rhs.0, group_params().p))
    }
}

impl Encode for GroupElement {
    fn encode(&self, w: &mut Writer) {
        w.write_bytes(&self.to_bytes());
    }
}

impl Decode for GroupElement {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes: [u8; GROUP_ELEMENT_LEN] = <[u8; GROUP_ELEMENT_LEN]>::decode(r)?;
        GroupElement::from_bytes(bytes).ok_or(WireError::InvalidValue { ty: "GroupElement" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiexp::multi_exp;
    use proptest::prelude::*;

    fn arb_scalar() -> impl Strategy<Value = Scalar> {
        any::<u64>().prop_map(Scalar::from_u64)
    }

    #[test]
    fn generator_has_order_q() {
        let g = GroupElement::generator();
        assert_eq!(g.pow(Scalar::zero()), GroupElement::identity());
        assert!(!g.is_identity());
        // g^q = identity is implied by membership validation; check explicitly
        // via pow with exponent q represented as zero scalar (q ≡ 0 mod q).
        assert_eq!(g.pow(Scalar::from_u64(0)), GroupElement::identity());
    }

    #[test]
    fn exponent_laws() {
        let g = GroupElement::generator();
        let a = Scalar::from_u64(123);
        let b = Scalar::from_u64(456);
        assert_eq!(g.pow(a) * g.pow(b), g.pow(a + b));
        assert_eq!(g.pow(a).pow(b), g.pow(a * b));
        assert_eq!(g.pow(a) * g.pow(a).inverse(), GroupElement::identity());
    }

    #[test]
    fn commit_is_binding_on_different_openings() {
        let c1 = GroupElement::commit(Scalar::from_u64(1), Scalar::from_u64(2));
        let c2 = GroupElement::commit(Scalar::from_u64(2), Scalar::from_u64(2));
        assert_ne!(c1, c2);
    }

    #[test]
    fn hash_to_group_lands_in_subgroup() {
        for i in 0..10u64 {
            let h = GroupElement::hash_to_group("test", &[&i.to_le_bytes()]);
            assert!(GroupElement::from_bytes(h.to_bytes()).is_some());
        }
    }

    #[test]
    fn encoding_rejects_non_members() {
        // 0 and p are invalid representatives.
        assert!(GroupElement::from_bytes(0u64.to_le_bytes()).is_none());
        let p = crate::params::group_params().p;
        assert!(GroupElement::from_bytes(p.to_le_bytes()).is_none());
        // A quadratic non-residue must be rejected.  g^x for any x is a QR, so
        // search for a small non-residue directly.
        let gp = crate::params::group_params();
        let mut nr = None;
        for v in 2u64..200 {
            if pow_mod(v, gp.q, gp.p) != 1 {
                nr = Some(v);
                break;
            }
        }
        let nr = nr.expect("a small non-residue exists");
        assert!(GroupElement::from_bytes(nr.to_le_bytes()).is_none());
    }

    #[test]
    fn wire_roundtrip() {
        let g = GroupElement::generator().pow(Scalar::from_u64(777));
        let bytes = setupfree_wire::to_bytes(&g);
        assert_eq!(bytes.len(), GROUP_ELEMENT_LEN);
        assert_eq!(setupfree_wire::from_bytes::<GroupElement>(&bytes).unwrap(), g);
    }

    #[test]
    fn multi_exp_matches_naive() {
        let g = GroupElement::generator();
        let h = GroupElement::generator2();
        let bases = vec![g, h, g * h];
        let exps = vec![Scalar::from_u64(3), Scalar::from_u64(5), Scalar::from_u64(7)];
        let expected = g.pow(exps[0]) * h.pow(exps[1]) * (g * h).pow(exps[2]);
        assert_eq!(multi_exp(&bases, &exps), expected);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn multi_exp_length_mismatch_panics() {
        multi_exp(&[GroupElement::generator()], &[]);
    }

    proptest! {
        #[test]
        fn prop_homomorphic(a in arb_scalar(), b in arb_scalar()) {
            let g = GroupElement::generator();
            prop_assert_eq!(g.pow(a) * g.pow(b), g.pow(a + b));
        }

        #[test]
        fn prop_roundtrip(a in arb_scalar()) {
            let x = GroupElement::generator().pow(a);
            prop_assert_eq!(GroupElement::from_bytes(x.to_bytes()), Some(x));
        }

        #[test]
        fn prop_pow_composes_multiplicatively(a in arb_scalar(), b in arb_scalar()) {
            // (g^a)^b = g^(a·b): the law Pedersen share verification and the
            // VRF both rely on.
            let g = GroupElement::generator();
            prop_assert_eq!(g.pow(a).pow(b), g.pow(a * b));
        }

        #[test]
        fn prop_identity_and_inverse_laws(a in arb_scalar()) {
            let x = GroupElement::generator().pow(a);
            prop_assert_eq!(x * GroupElement::identity(), x);
            prop_assert_eq!(x * x.inverse(), GroupElement::identity());
            prop_assert_eq!(x.inverse().inverse(), x);
        }

        #[test]
        fn prop_multi_exp_matches_naive(a in arb_scalar(), b in arb_scalar(), c in arb_scalar()) {
            let bases = [
                GroupElement::generator(),
                GroupElement::generator2(),
                GroupElement::hash_to_group("prop", &[b"base"]),
            ];
            let exps = [a, b, c];
            let naive = bases
                .iter()
                .zip(exps.iter())
                .fold(GroupElement::identity(), |acc, (base, e)| acc * base.pow(*e));
            prop_assert_eq!(multi_exp(&bases, &exps), naive);
        }
    }
}
