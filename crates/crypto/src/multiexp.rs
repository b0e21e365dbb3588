//! The exponentiation engine: windowed/Pippenger-style simultaneous
//! multi-exponentiation, fixed-base precomputation for the two global
//! generators, and Shamir's trick for double exponentiations.
//!
//! Every discrete-log hot path of the workspace funnels through this module:
//! Pedersen commits and share checks ([`crate::pedersen`]), Schnorr signing
//! and verification ([`crate::sig`]), the DLEQ-based VRF ([`crate::vrf`]),
//! and the commitment evaluations of the AVSS.  The algorithms:
//!
//! * [`multi_exp`] — the bucket (Pippenger) method: `∏ bᵢ^{eᵢ}` for `k`
//!   terms costs `⌈63/c⌉·(k + 2^c)` multiplications plus 63 squarings for a
//!   window width `c` chosen per call to minimise exactly that expression,
//!   instead of `k` full square-and-multiply exponentiations (~`94·k`).
//! * [`fixed_pow_g1`] / [`commit`] — 8-bit fixed-base comb tables for `g1`
//!   and `g2`, built once per process: a `g1` exponentiation becomes ≤ 8
//!   table lookups/multiplications, and a Pedersen base commit `g1^a·g2^b`
//!   ≤ 16, versus ~190 for two naive pows.
//! * [`dual_pow`] — Shamir's trick for `x^a·y^b` with arbitrary bases (the
//!   shape of every Σ-protocol verification equation): one shared
//!   square-chain, ~63 squarings + ~47 multiplications instead of two
//!   independent exponentiations.
//!
//! All exponents are canonical scalars in `[0, q)` with `q < 2^62`, so 63-bit
//! scans cover every input.  The engine is exact — no probabilistic
//! shortcuts — and `multi_exp` is property-tested against the naive fold.

use std::sync::OnceLock;

use crate::group::GroupElement;
use crate::modarith::mul_mod;
use crate::params::group_params;
use crate::scalar::Scalar;

/// Number of bits scanned per fixed-base comb window.
const COMB_WINDOW: u32 = 8;
/// Number of comb windows needed to cover a 63-bit exponent.
const COMB_WINDOWS: usize = 8;
/// Highest bit index a canonical exponent can occupy (`q < 2^62`).
const EXP_BITS: u32 = 63;

/// Fixed-base comb table for one base: `table[w][d] = base^(d << (8w))`.
struct CombTable {
    windows: Vec<[u64; 1 << COMB_WINDOW as usize]>,
}

impl CombTable {
    fn build(base: u64, p: u64) -> Self {
        let mut windows = Vec::with_capacity(COMB_WINDOWS);
        let mut window_base = base;
        for _ in 0..COMB_WINDOWS {
            let mut row = [1u64; 1 << COMB_WINDOW as usize];
            for d in 1..row.len() {
                row[d] = mul_mod(row[d - 1], window_base, p);
            }
            // The base of the next window is this window's base raised to 2^8.
            window_base = row[row.len() - 1];
            window_base = mul_mod(window_base, row[1], p);
            windows.push(row);
        }
        CombTable { windows }
    }

    fn pow(&self, e: u64, p: u64) -> u64 {
        let mut acc = 1u64;
        for (w, row) in self.windows.iter().enumerate() {
            let digit = ((e >> (COMB_WINDOW as usize * w)) & 0xff) as usize;
            if digit != 0 {
                acc = mul_mod(acc, row[digit], p);
            }
        }
        acc
    }
}

struct FixedBaseTables {
    g1: CombTable,
    g2: CombTable,
}

static TABLES: OnceLock<FixedBaseTables> = OnceLock::new();

fn tables() -> &'static FixedBaseTables {
    TABLES.get_or_init(|| {
        let gp = group_params();
        FixedBaseTables { g1: CombTable::build(gp.g1, gp.p), g2: CombTable::build(gp.g2, gp.p) }
    })
}

/// `g1^e` through the fixed-base comb table (≤ 8 multiplications).
pub fn fixed_pow_g1(e: Scalar) -> GroupElement {
    GroupElement::from_raw(tables().g1.pow(e.to_u64(), group_params().p))
}

/// `g1^a · g2^b` — the Pedersen base commit, via both comb tables
/// (≤ 16 multiplications).
pub fn commit(a: Scalar, b: Scalar) -> GroupElement {
    let gp = group_params();
    let t = tables();
    GroupElement::from_raw(mul_mod(t.g1.pow(a.to_u64(), gp.p), t.g2.pow(b.to_u64(), gp.p), gp.p))
}

/// `x^a · y^b` for arbitrary bases by Shamir's trick: one shared squaring
/// chain over the joint bit pattern, with `x·y` precomputed.
pub fn dual_pow(x: GroupElement, a: Scalar, y: GroupElement, b: Scalar) -> GroupElement {
    let p = group_params().p;
    let (x, y) = (x.raw(), y.raw());
    let (a, b) = (a.to_u64(), b.to_u64());
    let xy = mul_mod(x, y, p);
    let mut acc = 1u64;
    let top = 64 - (a | b | 1).leading_zeros();
    for i in (0..top).rev() {
        acc = mul_mod(acc, acc, p);
        match ((a >> i) & 1, (b >> i) & 1) {
            (1, 1) => acc = mul_mod(acc, xy, p),
            (1, 0) => acc = mul_mod(acc, x, p),
            (0, 1) => acc = mul_mod(acc, y, p),
            _ => {}
        }
    }
    GroupElement::from_raw(acc)
}

/// Picks the Pippenger window width minimising `⌈63/c⌉ · (k + 2^c)`.
fn window_width(terms: usize) -> u32 {
    let mut best_c = 1u32;
    let mut best_cost = u64::MAX;
    for c in 1..=12u32 {
        let windows = EXP_BITS.div_ceil(c) as u64;
        let cost = windows * (terms as u64 + (1u64 << c));
        if cost < best_cost {
            best_cost = cost;
            best_c = c;
        }
    }
    best_c
}

/// Simultaneous multi-exponentiation `∏ bases[i]^{exps[i]}` by the bucket
/// (Pippenger) method.
///
/// Equivalent to — and property-tested against — the naive fold
/// `bases.iter().zip(exps).fold(identity, |acc, (b, e)| acc * b.pow(e))`,
/// but asymptotically `O(63/log k)` multiplications per term instead of
/// `O(63)`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn multi_exp(bases: &[GroupElement], exps: &[Scalar]) -> GroupElement {
    assert_eq!(bases.len(), exps.len(), "multi_exp requires equal-length inputs");
    match bases.len() {
        0 => return GroupElement::identity(),
        1 => return bases[0].pow(exps[0]),
        _ => {}
    }
    let p = group_params().p;
    let c = window_width(bases.len());
    let mask = (1u64 << c) - 1;
    let windows = EXP_BITS.div_ceil(c);
    let mut buckets = vec![1u64; 1 << c];
    let mut acc = 1u64;
    for w in (0..windows).rev() {
        for _ in 0..c {
            if acc != 1 {
                acc = mul_mod(acc, acc, p);
            }
        }
        for b in buckets.iter_mut() {
            *b = 1;
        }
        let shift = w * c;
        let mut any = false;
        for (base, exp) in bases.iter().zip(exps.iter()) {
            let digit = ((exp.to_u64() >> shift) & mask) as usize;
            if digit != 0 {
                buckets[digit] = mul_mod(buckets[digit], base.raw(), p);
                any = true;
            }
        }
        if !any {
            continue;
        }
        // Window sum Σ d·bucket[d] via the running suffix-product trick.
        let mut running = 1u64;
        let mut sum = 1u64;
        for b in buckets.iter().skip(1).rev() {
            if *b != 1 {
                running = mul_mod(running, *b, p);
            }
            if running != 1 {
                sum = mul_mod(sum, running, p);
            }
        }
        acc = mul_mod(acc, sum, p);
    }
    GroupElement::from_raw(acc)
}

/// The powers `1, x, x², …, x^{count−1}` — the exponent vector of every
/// "evaluate a commitment at a point" multi-exponentiation.
pub fn powers_of(x: Scalar, count: usize) -> Vec<Scalar> {
    let mut powers = Vec::with_capacity(count);
    let mut acc = Scalar::one();
    for _ in 0..count {
        powers.push(acc);
        acc *= x;
    }
    powers
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive(bases: &[GroupElement], exps: &[Scalar]) -> GroupElement {
        bases
            .iter()
            .zip(exps.iter())
            .fold(GroupElement::identity(), |acc, (b, e)| acc * b.pow(*e))
    }

    #[test]
    fn fixed_base_matches_generic_pow() {
        for e in [0u64, 1, 2, 255, 256, 0xffff, 0x1234_5678_9abc_def0] {
            let e = Scalar::from_u64(e);
            assert_eq!(fixed_pow_g1(e), GroupElement::generator().pow(e));
        }
    }

    #[test]
    fn commit_matches_two_pows() {
        let a = Scalar::from_u64(0xdead_beef);
        let b = Scalar::from_u64(0x1357_9bdf_2468);
        assert_eq!(
            commit(a, b),
            GroupElement::generator().pow(a) * GroupElement::generator2().pow(b)
        );
    }

    #[test]
    fn dual_pow_matches_two_pows() {
        let x = GroupElement::hash_to_group("multiexp-test", &[b"x"]);
        let y = GroupElement::hash_to_group("multiexp-test", &[b"y"]);
        for (a, b) in [(0u64, 0u64), (1, 0), (0, 1), (7, 13), (u64::MAX >> 3, 12345)] {
            let (a, b) = (Scalar::from_u64(a), Scalar::from_u64(b));
            assert_eq!(dual_pow(x, a, y, b), x.pow(a) * y.pow(b));
        }
    }

    #[test]
    fn multi_exp_empty_and_singleton() {
        assert_eq!(multi_exp(&[], &[]), GroupElement::identity());
        let g = GroupElement::generator();
        let e = Scalar::from_u64(42);
        assert_eq!(multi_exp(&[g], &[e]), g.pow(e));
    }

    #[test]
    fn multi_exp_zero_and_identity_edges() {
        let g = GroupElement::generator();
        let h = GroupElement::generator2();
        // All-zero exponents.
        assert_eq!(
            multi_exp(&[g, h], &[Scalar::zero(), Scalar::zero()]),
            GroupElement::identity()
        );
        // Identity bases contribute nothing.
        let id = GroupElement::identity();
        assert_eq!(
            multi_exp(&[id, g, id], &[Scalar::from_u64(9), Scalar::from_u64(3), Scalar::one()]),
            g.pow(Scalar::from_u64(3))
        );
    }

    #[test]
    fn multi_exp_matches_naive_across_sizes() {
        let mut rng = StdRng::seed_from_u64(42);
        for k in [2usize, 3, 5, 16, 23, 64, 200] {
            let bases: Vec<GroupElement> =
                (0..k).map(|_| GroupElement::generator().pow(Scalar::random(&mut rng))).collect();
            let exps: Vec<Scalar> = (0..k).map(|_| Scalar::random(&mut rng)).collect();
            assert_eq!(multi_exp(&bases, &exps), naive(&bases, &exps), "k = {k}");
        }
    }

    #[test]
    fn powers_of_is_the_geometric_sequence() {
        let x = Scalar::from_u64(3);
        assert_eq!(
            powers_of(x, 4),
            vec![Scalar::one(), x, x * x, x * x * x]
        );
        assert!(powers_of(x, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn multi_exp_length_mismatch_panics() {
        multi_exp(&[GroupElement::generator()], &[]);
    }

    proptest! {
        #[test]
        fn prop_multi_exp_matches_naive(seed in any::<u64>(), k in 0usize..24) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut bases: Vec<GroupElement> = Vec::new();
            let mut exps: Vec<Scalar> = Vec::new();
            for i in 0..k {
                // Mix in identity bases and zero/one exponents to cover edges.
                let base = match i % 4 {
                    0 => GroupElement::identity(),
                    1 => GroupElement::generator(),
                    2 => GroupElement::generator2(),
                    _ => GroupElement::generator().pow(Scalar::random(&mut rng)),
                };
                let exp = match i % 3 {
                    0 => Scalar::zero(),
                    1 => Scalar::one(),
                    _ => Scalar::random(&mut rng),
                };
                bases.push(base);
                exps.push(exp);
            }
            prop_assert_eq!(multi_exp(&bases, &exps), naive(&bases, &exps));
        }

        #[test]
        fn prop_fixed_base_and_dual_pow_agree(a in any::<u64>(), b in any::<u64>()) {
            let a = Scalar::from_u64(a);
            let b = Scalar::from_u64(b);
            let g = GroupElement::generator();
            let h = GroupElement::generator2();
            prop_assert_eq!(fixed_pow_g1(a), g.pow(a));
            prop_assert_eq!(commit(a, b), g.pow(a) * h.pow(b));
            prop_assert_eq!(dual_pow(g, a, h, b), g.pow(a) * h.pow(b));
        }
    }
}
