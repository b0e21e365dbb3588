//! The scalar field `Z_q` (exponents of the discrete-log group).
//!
//! Scalars are the coefficients of the secret-sharing polynomials, the
//! exponents of Pedersen commitments, and the secret keys of signatures and
//! VRFs.  The modulus `q` is the order of the global group
//! ([`crate::params::group_params`]).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;
use setupfree_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::hash::{hash_fields, Digest};
use crate::modarith::{add_mod, inv_mod, mul_mod, pow_mod, sub_mod};
use crate::params::group_params;

/// An element of the prime field `Z_q` where `q` is the group order.
///
/// # Example
///
/// ```
/// use setupfree_crypto::scalar::Scalar;
///
/// let a = Scalar::from_u64(5);
/// let b = Scalar::from_u64(7);
/// assert_eq!(a * b, Scalar::from_u64(35));
/// assert_eq!((a - a), Scalar::zero());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Scalar(u64);

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scalar({})", self.0)
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Scalar {
    /// The field modulus `q`.
    pub fn modulus() -> u64 {
        group_params().q
    }

    /// The additive identity.
    pub fn zero() -> Self {
        Scalar(0)
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        Scalar(1)
    }

    /// Reduces a `u64` into the field.
    pub fn from_u64(v: u64) -> Self {
        Scalar(v % Self::modulus())
    }

    /// Returns the canonical representative in `[0, q)`.
    pub fn to_u64(self) -> u64 {
        self.0
    }

    /// Returns `true` for the additive identity.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Uniformly random field element.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection sampling over the 64-bit range keeps the distribution
        // uniform; q > 2^60 so at most a handful of retries are ever needed.
        let q = Self::modulus();
        loop {
            let v: u64 = rng.gen();
            if v < q.wrapping_mul(u64::MAX / q) {
                return Scalar(v % q);
            }
        }
    }

    /// Uniformly random *non-zero* field element.
    pub fn random_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let s = Self::random(rng);
            if !s.is_zero() {
                return s;
            }
        }
    }

    /// Derives a field element from a domain-separated hash of `fields`
    /// (used for Fiat–Shamir challenges and derandomized nonces).
    pub fn from_hash(domain: &str, fields: &[&[u8]]) -> Self {
        Self::from_digest(&hash_fields(domain, fields))
    }

    /// Reduces a random-oracle digest to a field element.
    pub(crate) fn from_digest(digest: &Digest) -> Self {
        Self::from_wide(digest[..16].try_into().expect("16 bytes"))
    }

    /// Reduces 128 uniform bits mod q: the bias is < 2^-60, negligible for
    /// our use.
    pub(crate) fn from_wide(bytes: [u8; 16]) -> Self {
        Scalar((u128::from_le_bytes(bytes) % Self::modulus() as u128) as u64)
    }

    /// Field addition inverse.
    pub fn negate(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            Scalar(Self::modulus() - self.0)
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    pub fn invert(self) -> Self {
        Scalar(inv_mod(self.0, Self::modulus()))
    }

    /// Raises `self` to the power `e`.
    pub fn pow(self, e: u64) -> Self {
        Scalar(pow_mod(self.0, e, Self::modulus()))
    }

    /// Inverts every element of `values` in place using Montgomery's batch
    /// trick: `3(k − 1)` multiplications plus a single field inversion,
    /// instead of `k` inversions.  Used by the Lagrange tables in
    /// [`crate::poly`].
    ///
    /// # Panics
    ///
    /// Panics if any element is zero.
    pub fn batch_invert(values: &mut [Scalar]) {
        if values.is_empty() {
            return;
        }
        // prefix[i] = values[0] · … · values[i]
        let mut prefix = Vec::with_capacity(values.len());
        let mut acc = Scalar::one();
        for v in values.iter() {
            assert!(!v.is_zero(), "attempted to batch-invert zero");
            acc *= *v;
            prefix.push(acc);
        }
        // Walk back dividing out one element at a time.
        let mut inv = acc.invert();
        for i in (1..values.len()).rev() {
            let v_inv = inv * prefix[i - 1];
            inv *= values[i];
            values[i] = v_inv;
        }
        values[0] = inv;
    }

    /// Canonical 8-byte little-endian encoding.
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_le_bytes()
    }

    /// Decodes a canonical 8-byte encoding, rejecting non-canonical values.
    pub fn from_bytes(bytes: [u8; 8]) -> Option<Self> {
        let v = u64::from_le_bytes(bytes);
        if v < Self::modulus() {
            Some(Scalar(v))
        } else {
            None
        }
    }
}

impl Add for Scalar {
    type Output = Scalar;
    fn add(self, rhs: Scalar) -> Scalar {
        Scalar(add_mod(self.0, rhs.0, Self::modulus()))
    }
}

impl AddAssign for Scalar {
    fn add_assign(&mut self, rhs: Scalar) {
        *self = *self + rhs;
    }
}

impl Sub for Scalar {
    type Output = Scalar;
    fn sub(self, rhs: Scalar) -> Scalar {
        Scalar(sub_mod(self.0, rhs.0, Self::modulus()))
    }
}

impl SubAssign for Scalar {
    fn sub_assign(&mut self, rhs: Scalar) {
        *self = *self - rhs;
    }
}

impl Mul for Scalar {
    type Output = Scalar;
    fn mul(self, rhs: Scalar) -> Scalar {
        Scalar(mul_mod(self.0, rhs.0, Self::modulus()))
    }
}

impl MulAssign for Scalar {
    fn mul_assign(&mut self, rhs: Scalar) {
        *self = *self * rhs;
    }
}

impl Neg for Scalar {
    type Output = Scalar;
    fn neg(self) -> Scalar {
        self.negate()
    }
}

impl Sum for Scalar {
    fn sum<I: Iterator<Item = Scalar>>(iter: I) -> Scalar {
        iter.fold(Scalar::zero(), |acc, x| acc + x)
    }
}

impl Encode for Scalar {
    fn encode(&self, w: &mut Writer) {
        w.write_u64(self.0);
    }
}

impl Decode for Scalar {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = r.read_u64()?;
        Scalar::from_bytes(v.to_le_bytes()).ok_or(WireError::InvalidValue { ty: "Scalar" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arb_scalar() -> impl Strategy<Value = Scalar> {
        any::<u64>().prop_map(Scalar::from_u64)
    }

    #[test]
    fn basic_identities() {
        let a = Scalar::from_u64(123456789);
        assert_eq!(a + Scalar::zero(), a);
        assert_eq!(a * Scalar::one(), a);
        assert_eq!(a - a, Scalar::zero());
        assert_eq!(a + a.negate(), Scalar::zero());
        assert_eq!(a * a.invert(), Scalar::one());
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let a = Scalar::from_u64(3);
        let mut acc = Scalar::one();
        for e in 0..20u64 {
            assert_eq!(a.pow(e), acc);
            acc *= a;
        }
    }

    #[test]
    fn canonical_encoding_roundtrip() {
        let a = Scalar::from_u64(987654321);
        assert_eq!(Scalar::from_bytes(a.to_bytes()), Some(a));
        // Non-canonical value rejected.
        assert_eq!(Scalar::from_bytes(u64::MAX.to_le_bytes()), None);
    }

    #[test]
    fn wire_roundtrip_and_rejects_noncanonical() {
        let a = Scalar::from_u64(42);
        let bytes = setupfree_wire::to_bytes(&a);
        assert_eq!(setupfree_wire::from_bytes::<Scalar>(&bytes).unwrap(), a);
        let bad = u64::MAX.to_le_bytes().to_vec();
        assert!(setupfree_wire::from_bytes::<Scalar>(&bad).is_err());
    }

    #[test]
    fn random_is_well_distributed_enough() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(Scalar::random(&mut rng).to_u64());
        }
        assert!(seen.len() > 95, "random scalars should rarely collide");
    }

    #[test]
    fn from_hash_is_deterministic_and_domain_separated() {
        let a = Scalar::from_hash("d", &[b"x"]);
        let b = Scalar::from_hash("d", &[b"x"]);
        let c = Scalar::from_hash("e", &[b"x"]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in arb_scalar(), b in arb_scalar()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn prop_mul_distributes(a in arb_scalar(), b in arb_scalar(), c in arb_scalar()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn prop_mul_associative(a in arb_scalar(), b in arb_scalar(), c in arb_scalar()) {
            prop_assert_eq!((a * b) * c, a * (b * c));
        }

        #[test]
        fn prop_nonzero_inverse(a in arb_scalar()) {
            prop_assume!(!a.is_zero());
            prop_assert_eq!(a * a.invert(), Scalar::one());
        }

        #[test]
        fn prop_sub_is_add_neg(a in arb_scalar(), b in arb_scalar()) {
            prop_assert_eq!(a - b, a + b.negate());
        }
    }
}
