//! Polynomials over the scalar field, Shamir secret sharing, and Lagrange
//! interpolation.
//!
//! These are the arithmetic backbone of the AVSS (Alg 1/2) and of the
//! aggregatable PVSS (Appendix B): secrets are constant terms of random
//! polynomials of degree at most `f` (resp. `t`), shares are evaluations at
//! party-specific points, and reconstruction is Lagrange interpolation at 0.
//!
//! Interpolation over a fixed point set is a protocol hot path — every PVSS
//! verification interpolates over `{1, …, n}` and every reconstruction over
//! the same quorum of share points — so the barycentric denominators are
//! precomputed once per point set in a [`LagrangeTable`] and memoised
//! process-wide by [`lagrange_table`]: the first use of a point set costs
//! `O(k²)` multiplications (plus one batched inversion), every later
//! coefficient-vector evaluation costs `O(k)`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use rand::Rng;

use crate::scalar::Scalar;

/// A polynomial with scalar coefficients, lowest degree first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Polynomial {
    coeffs: Vec<Scalar>,
}

impl Polynomial {
    /// Creates a polynomial from coefficients (constant term first).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is empty.
    pub fn new(coeffs: Vec<Scalar>) -> Self {
        assert!(!coeffs.is_empty(), "a polynomial needs at least one coefficient");
        Polynomial { coeffs }
    }

    /// Samples a uniformly random polynomial of the given degree with the
    /// prescribed constant term (the shared secret).
    pub fn random_with_constant<R: Rng + ?Sized>(constant: Scalar, degree: usize, rng: &mut R) -> Self {
        let mut coeffs = Vec::with_capacity(degree + 1);
        coeffs.push(constant);
        for _ in 0..degree {
            coeffs.push(Scalar::random(rng));
        }
        Polynomial { coeffs }
    }

    /// Samples a uniformly random polynomial of the given degree.
    pub fn random<R: Rng + ?Sized>(degree: usize, rng: &mut R) -> Self {
        Self::random_with_constant(Scalar::random(rng), degree, rng)
    }

    /// Degree of the polynomial (number of coefficients minus one).
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// The coefficients, constant term first.
    pub fn coeffs(&self) -> &[Scalar] {
        &self.coeffs
    }

    /// The constant term `P(0)`.
    pub fn constant(&self) -> Scalar {
        self.coeffs[0]
    }

    /// Evaluates the polynomial at `x` by Horner's rule.
    pub fn eval(&self, x: Scalar) -> Scalar {
        let mut acc = Scalar::zero();
        for c in self.coeffs.iter().rev() {
            acc = acc * x + *c;
        }
        acc
    }

    /// Evaluates the polynomial at the canonical share point of party `i`
    /// (1-based point `i + 1` is *not* used; the convention throughout the
    /// workspace is point `x = i` for party index `i ≥ 1`).
    pub fn eval_at_index(&self, i: usize) -> Scalar {
        self.eval(Scalar::from_u64(i as u64))
    }

    /// Adds two polynomials coefficient-wise.
    pub fn add(&self, other: &Polynomial) -> Polynomial {
        let len = self.coeffs.len().max(other.coeffs.len());
        let mut coeffs = Vec::with_capacity(len);
        for i in 0..len {
            let a = self.coeffs.get(i).copied().unwrap_or_else(Scalar::zero);
            let b = other.coeffs.get(i).copied().unwrap_or_else(Scalar::zero);
            coeffs.push(a + b);
        }
        Polynomial { coeffs }
    }
}

/// Lagrange coefficient `ℓ_j(x)` for the interpolation point set `xs`
/// evaluated at `x`.
///
/// One coefficient costs `O(k)` multiplications plus an inversion; callers
/// that need the whole coefficient vector (every interpolation does) should
/// use a cached [`LagrangeTable`] instead.  This direct formula is the
/// reference that the table cache's tests compare against.
///
/// # Panics
///
/// Panics if `xs` contains duplicate points.
pub fn lagrange_coefficient(xs: &[Scalar], j: usize, x: Scalar) -> Scalar {
    let xj = xs[j];
    let mut num = Scalar::one();
    let mut den = Scalar::one();
    for (m, &xm) in xs.iter().enumerate() {
        if m == j {
            continue;
        }
        assert!(xm != xj, "duplicate interpolation points");
        num *= x - xm;
        den *= xj - xm;
    }
    num * den.invert()
}

/// Precomputed barycentric denominators for one interpolation point set.
///
/// Construction costs `O(k²)` multiplications and a single (batched)
/// inversion; every subsequent [`Self::coefficients_at`] call is `O(k)` with
/// no inversions — the win that makes repeated PVSS verifications and
/// quorum reconstructions cheap.
#[derive(Debug, Clone)]
pub struct LagrangeTable {
    xs: Vec<Scalar>,
    /// Barycentric weights `w_j = 1 / ∏_{m≠j} (x_j − x_m)`.
    weights: Vec<Scalar>,
}

impl LagrangeTable {
    /// Builds the table for the point set `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or contains duplicate points.
    pub fn new(xs: Vec<Scalar>) -> Self {
        assert!(!xs.is_empty(), "interpolation requires at least one point");
        let k = xs.len();
        let mut weights = Vec::with_capacity(k);
        for j in 0..k {
            let mut den = Scalar::one();
            for m in 0..k {
                if m != j {
                    let diff = xs[j] - xs[m];
                    assert!(!diff.is_zero(), "duplicate interpolation points");
                    den *= diff;
                }
            }
            weights.push(den);
        }
        Scalar::batch_invert(&mut weights);
        LagrangeTable { xs, weights }
    }

    /// The interpolation point set.
    pub fn xs(&self) -> &[Scalar] {
        &self.xs
    }

    /// All coefficients `ℓ_0(x), …, ℓ_{k−1}(x)` in `O(k)` via prefix/suffix
    /// products of `(x − x_m)`.
    pub fn coefficients_at(&self, x: Scalar) -> Vec<Scalar> {
        let k = self.xs.len();
        // At an interpolation point the coefficient vector is an indicator.
        if let Some(j) = self.xs.iter().position(|xm| *xm == x) {
            let mut out = vec![Scalar::zero(); k];
            out[j] = Scalar::one();
            return out;
        }
        let mut prefix = Vec::with_capacity(k + 1);
        prefix.push(Scalar::one());
        for xm in &self.xs {
            let last = *prefix.last().expect("non-empty");
            prefix.push(last * (x - *xm));
        }
        let mut out = vec![Scalar::zero(); k];
        let mut suffix = Scalar::one();
        for j in (0..k).rev() {
            out[j] = prefix[j] * suffix * self.weights[j];
            suffix *= x - self.xs[j];
        }
        out
    }

    /// Interpolates the polynomial through `(xs[j], ys[j])` and evaluates it
    /// at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `ys` has a different length than the point set.
    pub fn interpolate_at(&self, ys: &[Scalar], x: Scalar) -> Scalar {
        assert_eq!(ys.len(), self.xs.len(), "one value per interpolation point is required");
        self.coefficients_at(x)
            .into_iter()
            .zip(ys.iter())
            .fold(Scalar::zero(), |acc, (c, y)| acc + c * *y)
    }
}

/// Upper bound on the number of memoised point sets; the cache is cleared
/// when it fills (protocols cycle through a handful of quorums, so in
/// practice it never does).
const LAGRANGE_CACHE_CAP: usize = 256;

static LAGRANGE_CACHE: OnceLock<Mutex<HashMap<Vec<u64>, Arc<LagrangeTable>>>> = OnceLock::new();

/// Returns the process-wide memoised [`LagrangeTable`] for `xs`, building it
/// on first use.  Repeated reconstructions over the same quorum — the normal
/// case in AVSS/PVSS — pay the `O(k²)` table setup only once.
///
/// # Panics
///
/// Panics if `xs` is empty or contains duplicate points.
pub fn lagrange_table(xs: &[Scalar]) -> Arc<LagrangeTable> {
    let key: Vec<u64> = xs.iter().map(|x| x.to_u64()).collect();
    let cache = LAGRANGE_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    // The critical sections below cannot panic, so a poisoned lock (from a
    // caller that panicked constructing a table) is safe to recover.
    if let Some(table) =
        cache.lock().unwrap_or_else(|e| e.into_inner()).get(&key).cloned()
    {
        return table;
    }
    // Built outside the lock: construction can panic on duplicate points and
    // is the expensive part; a racing duplicate build is harmless.
    let table = Arc::new(LagrangeTable::new(xs.to_vec()));
    let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
    if map.len() >= LAGRANGE_CACHE_CAP {
        map.clear();
    }
    map.insert(key, table.clone());
    table
}

/// The canonical share-point table `{1, …, n}` used by the PVSS low-degree
/// test and by full-quorum reconstructions.
pub fn share_point_table(n: usize) -> Arc<LagrangeTable> {
    let xs: Vec<Scalar> = (1..=n).map(|i| Scalar::from_u64(i as u64)).collect();
    lagrange_table(&xs)
}

/// Interpolates the unique polynomial through `points` and evaluates it at
/// `x`.  `points` are `(x_i, y_i)` pairs with distinct `x_i`.
///
/// Uses the memoised [`LagrangeTable`] for the point set, so repeated
/// interpolations over the same quorum are `O(k)` after the first.
///
/// # Panics
///
/// Panics if `points` is empty or contains duplicate x-coordinates.
pub fn interpolate_at(points: &[(Scalar, Scalar)], x: Scalar) -> Scalar {
    assert!(!points.is_empty(), "interpolation requires at least one point");
    let xs: Vec<Scalar> = points.iter().map(|(xi, _)| *xi).collect();
    let ys: Vec<Scalar> = points.iter().map(|(_, yi)| *yi).collect();
    lagrange_table(&xs).interpolate_at(&ys, x)
}

/// Interpolates at zero — the common "reconstruct the secret" operation.
pub fn interpolate_at_zero(points: &[(Scalar, Scalar)]) -> Scalar {
    interpolate_at(points, Scalar::zero())
}

/// Produces Shamir shares `(i, P(i))` for parties `1..=n` of a fresh random
/// polynomial with constant term `secret` and degree `threshold`.
///
/// Any `threshold + 1` shares reconstruct the secret; `threshold` shares
/// reveal nothing (information-theoretically).
pub fn shamir_share<R: Rng + ?Sized>(
    secret: Scalar,
    threshold: usize,
    n: usize,
    rng: &mut R,
) -> (Polynomial, Vec<(usize, Scalar)>) {
    let poly = Polynomial::random_with_constant(secret, threshold, rng);
    let shares = (1..=n).map(|i| (i, poly.eval_at_index(i))).collect();
    (poly, shares)
}

/// Reconstructs a Shamir secret from `(index, share)` pairs.
pub fn shamir_reconstruct(shares: &[(usize, Scalar)]) -> Scalar {
    let points: Vec<(Scalar, Scalar)> =
        shares.iter().map(|(i, s)| (Scalar::from_u64(*i as u64), *s)).collect();
    interpolate_at_zero(&points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn eval_simple_polynomial() {
        // P(x) = 3 + 2x + x^2
        let p = Polynomial::new(vec![Scalar::from_u64(3), Scalar::from_u64(2), Scalar::from_u64(1)]);
        assert_eq!(p.eval(Scalar::zero()), Scalar::from_u64(3));
        assert_eq!(p.eval(Scalar::from_u64(1)), Scalar::from_u64(6));
        assert_eq!(p.eval(Scalar::from_u64(2)), Scalar::from_u64(11));
        assert_eq!(p.degree(), 2);
        assert_eq!(p.constant(), Scalar::from_u64(3));
    }

    #[test]
    fn interpolation_recovers_polynomial() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = Polynomial::random(4, &mut rng);
        let points: Vec<(Scalar, Scalar)> =
            (1..=5u64).map(|i| (Scalar::from_u64(i), p.eval(Scalar::from_u64(i)))).collect();
        assert_eq!(interpolate_at_zero(&points), p.constant());
        assert_eq!(interpolate_at(&points, Scalar::from_u64(9)), p.eval(Scalar::from_u64(9)));
    }

    #[test]
    fn shamir_roundtrip_with_any_quorum() {
        let mut rng = StdRng::seed_from_u64(3);
        let secret = Scalar::from_u64(424242);
        let (_, shares) = shamir_share(secret, 2, 7, &mut rng);
        // Any 3 shares reconstruct.
        assert_eq!(shamir_reconstruct(&shares[0..3]), secret);
        assert_eq!(shamir_reconstruct(&shares[2..5]), secret);
        assert_eq!(shamir_reconstruct(&[shares[0], shares[3], shares[6]]), secret);
        // 2 shares give a different (wrong) value with overwhelming probability.
        assert_ne!(shamir_reconstruct(&shares[0..2]), secret);
    }

    #[test]
    fn polynomial_addition() {
        let p = Polynomial::new(vec![Scalar::from_u64(1), Scalar::from_u64(2)]);
        let q = Polynomial::new(vec![Scalar::from_u64(5), Scalar::from_u64(0), Scalar::from_u64(3)]);
        let r = p.add(&q);
        assert_eq!(r.eval(Scalar::from_u64(2)), p.eval(Scalar::from_u64(2)) + q.eval(Scalar::from_u64(2)));
    }

    #[test]
    #[should_panic(expected = "at least one coefficient")]
    fn empty_polynomial_panics() {
        Polynomial::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "duplicate interpolation points")]
    fn duplicate_points_panic() {
        let pts = vec![(Scalar::from_u64(1), Scalar::from_u64(1)), (Scalar::from_u64(1), Scalar::from_u64(2))];
        interpolate_at_zero(&pts);
    }

    #[test]
    fn table_coefficients_match_pointwise_formula() {
        let xs: Vec<Scalar> = [1u64, 3, 4, 7, 9].iter().map(|v| Scalar::from_u64(*v)).collect();
        let table = LagrangeTable::new(xs.clone());
        for x in [0u64, 2, 5, 100] {
            let x = Scalar::from_u64(x);
            let coeffs = table.coefficients_at(x);
            for (j, c) in coeffs.iter().enumerate() {
                assert_eq!(*c, lagrange_coefficient(&xs, j, x), "x = {x}, j = {j}");
            }
        }
    }

    #[test]
    fn table_coefficients_at_an_interpolation_point_are_indicators() {
        let table = share_point_table(5);
        let coeffs = table.coefficients_at(Scalar::from_u64(3));
        for (j, c) in coeffs.iter().enumerate() {
            let expected = if j == 2 { Scalar::one() } else { Scalar::zero() };
            assert_eq!(*c, expected);
        }
    }

    #[test]
    fn cached_tables_are_shared() {
        let xs: Vec<Scalar> = [11u64, 13, 17].iter().map(|v| Scalar::from_u64(*v)).collect();
        let a = lagrange_table(&xs);
        let b = lagrange_table(&xs);
        assert!(Arc::ptr_eq(&a, &b), "the second lookup must hit the cache");
    }

    #[test]
    fn batch_invert_matches_individual_inversion() {
        let mut vals: Vec<Scalar> = [2u64, 3, 5, 7, 11].iter().map(|v| Scalar::from_u64(*v)).collect();
        let expected: Vec<Scalar> = vals.iter().map(|v| v.invert()).collect();
        Scalar::batch_invert(&mut vals);
        assert_eq!(vals, expected);
        let mut empty: Vec<Scalar> = vec![];
        Scalar::batch_invert(&mut empty);
        let mut single = [Scalar::from_u64(9)];
        Scalar::batch_invert(&mut single);
        assert_eq!(single[0], Scalar::from_u64(9).invert());
    }

    proptest! {
        #[test]
        fn prop_shamir_reconstructs(secret in any::<u64>(), seed in any::<u64>(), t in 1usize..5, extra in 1usize..5) {
            let mut rng = StdRng::seed_from_u64(seed);
            let secret = Scalar::from_u64(secret);
            let n = t + extra;
            let (_, shares) = shamir_share(secret, t, n, &mut rng);
            prop_assert_eq!(shamir_reconstruct(&shares[..t + 1]), secret);
            prop_assert_eq!(shamir_reconstruct(&shares[extra.saturating_sub(1)..]), secret);
        }

        #[test]
        fn prop_interpolate_identity(seed in any::<u64>(), deg in 0usize..6) {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = Polynomial::random(deg, &mut rng);
            let points: Vec<(Scalar, Scalar)> = (1..=deg as u64 + 1)
                .map(|i| (Scalar::from_u64(i), p.eval(Scalar::from_u64(i))))
                .collect();
            let x = Scalar::from_u64(seed % 1000 + 100);
            prop_assert_eq!(interpolate_at(&points, x), p.eval(x));
        }
    }
}
