//! Committee subsampling: deterministic, seed-derived committees so
//! per-node traffic stops scaling with `n`.
//!
//! Every protocol in the workspace is all-to-all by default, so per-node
//! traffic grows linearly with the system size.  The paper's beacon /
//! Election machinery produces exactly the shared, unpredictable randomness
//! needed to do better: sample a small committee from that seed, run the
//! protocol *inside* the committee, and let everyone else adopt the
//! committee's decision — the committee-sampled VABA line of work
//! (arxiv 2501.00717) shows this keeps agreement with optimal resilience
//! while cutting word complexity.
//!
//! The derivation must satisfy three properties, all pinned by tests:
//!
//! * **determinism** — every party, given the same `(seed, config, n)`,
//!   computes the *same* member set, with no communication;
//! * **exact size** — the committee has exactly `min(size, n)` distinct
//!   members (a Fisher–Yates prefix, not per-party coin flips);
//! * **uniformity** — each party is sampled with probability `size / n`,
//!   so a static adversary corrupting `f` of `n` parties corrupts about
//!   `f/n` of the committee (membership bias is checked against binomial
//!   bounds over 1000 seeds).
//!
//! Quorum arithmetic moves with the committee: a committee of `m` members
//! tolerates `f_c = ⌊(m − 1) / 3⌋` Byzantine members, quorums are
//! `m − f_c`, and a non-member adopts a decision once `f_c + 1` distinct
//! members vouch for it (at least one of them honest).

use std::fmt;

use setupfree_crypto::hash::{CounterStream, Digest};
use setupfree_net::{Envelope, PartyId, Step};

/// Domain-separation prefix of every committee derivation.
const COMMITTEE_DOMAIN: &str = "setupfree/committee";

/// How to sample a committee: the target size and the domain label that
/// separates this committee's derivation from every other use of the same
/// seed (two sessions deriving from one beacon output get unrelated
/// committees when their domains differ).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitteeConfig {
    /// Target number of members (clamped to `n` at sampling time).
    pub size: usize,
    /// Domain label mixed into the hash (e.g. `"aba"`, `"vba/round"`).
    pub seed_domain: String,
}

impl CommitteeConfig {
    /// A config sampling `size` members under `seed_domain`.
    pub fn new(size: usize, seed_domain: impl Into<String>) -> Self {
        CommitteeConfig { size, seed_domain: seed_domain.into() }
    }
}

/// A deterministic committee over an `n`-party system.
///
/// `Committee::full(n)` is the degenerate all-to-all committee — protocols
/// parameterised by a committee behave *bit-identically* to their classic
/// all-to-all formulation under it (same messages, same destinations, same
/// thresholds), which is what keeps the delivery-count goldens exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Committee {
    n: usize,
    /// Sorted ascending; every entry is a distinct index `< n`.
    members: Vec<PartyId>,
    /// `rank[i]` is `Some(position of P_i in members)`.
    rank: Vec<Option<u16>>,
}

impl Committee {
    /// The all-to-all committee: every party is a member.
    pub fn full(n: usize) -> Self {
        Committee {
            n,
            members: (0..n).map(PartyId).collect(),
            rank: (0..n).map(|i| Some(i as u16)).collect(),
        }
    }

    /// Samples `config.size` distinct members of `0..n` from `seed`,
    /// deterministically: a Fisher–Yates shuffle driven by a
    /// counter-mode, domain-separated hash stream, taking the first
    /// `size` slots.  Identical on every party for identical inputs.
    pub fn sample(config: &CommitteeConfig, seed: &[u8], n: usize) -> Self {
        assert!(n > 0, "a committee needs a non-empty party set");
        let size = config.size.min(n);
        assert!(size > 0, "a committee needs at least one member");
        let mut stream = HashStream::new(&config.seed_domain, seed);
        let mut slots: Vec<usize> = (0..n).collect();
        for i in 0..size {
            let j = i + stream.below((n - i) as u64) as usize;
            slots.swap(i, j);
        }
        let mut indices: Vec<usize> = slots[..size].to_vec();
        indices.sort_unstable();
        let mut rank = vec![None; n];
        for (r, &i) in indices.iter().enumerate() {
            rank[i] = Some(r as u16);
        }
        Committee { n, members: indices.into_iter().map(PartyId).collect(), rank }
    }

    /// The size of the underlying party set.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// `true` when every party is a member (all-to-all semantics).
    pub fn is_full(&self) -> bool {
        self.members.len() == self.n
    }

    /// `true` for a strict subset — the committee-sampled code paths.
    pub fn is_proper(&self) -> bool {
        !self.is_full()
    }

    /// Whether `p` is a member.
    pub fn is_member(&self, p: PartyId) -> bool {
        p.index() < self.n && self.rank[p.index()].is_some()
    }

    /// The members, sorted ascending.
    pub fn members(&self) -> &[PartyId] {
        &self.members
    }

    /// The member at `index` (modulo the committee size) — used to map an
    /// elected leader over `0..n` onto a member.  For a full committee this
    /// is the identity on `0..n`.
    pub fn member_at(&self, index: usize) -> PartyId {
        self.members[index % self.members.len()]
    }

    /// The Byzantine tolerance *inside* the committee:
    /// `f_c = ⌊(m − 1) / 3⌋`.
    pub fn f(&self) -> usize {
        (self.members.len() - 1) / 3
    }

    /// The intra-committee quorum `m − f_c`.
    pub fn quorum(&self) -> usize {
        self.members.len() - self.f()
    }

    /// Distinct member endorsements a non-member needs before adopting a
    /// decision: `f_c + 1` (at least one endorser is honest).
    pub fn adopt_threshold(&self) -> usize {
        self.f() + 1
    }

    /// Fans `env` out to every member: a true multicast when the committee
    /// is full (bit-identical to the all-to-all protocols), point-to-point
    /// sends to each member otherwise.  The unicasts are clones of one
    /// envelope, so in the simulator they share one payload and its one
    /// memoized decode, as a multicast's copies do.
    pub fn fan_out(&self, step: &mut Step<Envelope>, env: Envelope) {
        if self.is_full() {
            step.push_multicast(env);
        } else {
            for &m in &self.members {
                step.push_send(m, env.clone());
            }
        }
    }
}

impl fmt::Display for Committee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "committee({}/{})", self.members.len(), self.n)
    }
}

/// A [`CounterStream`] read as an unbiased uniform sampler (rejection
/// sampling kills the modulo bias exactly, so the binomial-bound membership
/// test is a statement about the construction, not about slack in the
/// test).
struct HashStream {
    blocks: CounterStream,
    block: Digest,
    used: usize,
}

impl HashStream {
    fn new(seed_domain: &str, seed: &[u8]) -> Self {
        HashStream {
            blocks: CounterStream::new(&format!("{COMMITTEE_DOMAIN}/{seed_domain}"), seed),
            block: [0; 32],
            used: 32,
        }
    }

    fn next_u64(&mut self) -> u64 {
        if self.used + 8 > 32 {
            self.block = self.blocks.next().expect("a counter stream is endless");
            self.used = 0;
        }
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&self.block[self.used..self.used + 8]);
        self.used += 8;
        u64::from_le_bytes(bytes)
    }

    /// Uniform draw in `0..bound` via rejection sampling.
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % bound;
            }
        }
    }
}

/// Picks the *worst* seed for the honest parties from a pool: the seed
/// whose derived committee overlaps a fixed Byzantine candidate set the
/// most.  Returns the chosen seed, its committee, and the members to
/// corrupt — capped at the committee's own tolerance `f_c`, the maximum a
/// protocol can be asked to survive.
///
/// This is the adversary of the committee test battery: a static corruptor
/// that waits for the seed pool, grinds every seed, and plants its parties
/// inside the sampled committee.
pub fn worst_committee_seed(
    pool: &[u64],
    config: &CommitteeConfig,
    n: usize,
    candidates: &[usize],
) -> (u64, Committee, Vec<usize>) {
    assert!(!pool.is_empty(), "the seed pool must be non-empty");
    let mut best: Option<(u64, Committee, Vec<usize>)> = None;
    for &seed in pool {
        let committee = Committee::sample(config, &seed.to_le_bytes(), n);
        let inside: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&c| committee.is_member(PartyId(c)))
            .collect();
        if best.as_ref().is_none_or(|(_, _, b)| inside.len() > b.len()) {
            best = Some((seed, committee, inside));
        }
    }
    let (seed, committee, mut inside) = best.expect("non-empty pool");
    inside.truncate(committee.f());
    (seed, committee, inside)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg(size: usize) -> CommitteeConfig {
        CommitteeConfig::new(size, "test")
    }

    #[test]
    fn full_committee_is_the_identity() {
        let c = Committee::full(7);
        assert!(c.is_full() && !c.is_proper());
        assert_eq!(c.size(), 7);
        assert_eq!(c.f(), 2);
        assert_eq!(c.quorum(), 5);
        for i in 0..7 {
            assert!(c.is_member(PartyId(i)));
            assert_eq!(c.member_at(i), PartyId(i));
        }
        let mut step: Step<Envelope> = Step::none();
        c.fan_out(
            &mut step,
            Envelope::seal(setupfree_net::InstancePath::root(), &1u8),
        );
        assert_eq!(step.outgoing.len(), 1, "full committees multicast");
    }

    #[test]
    fn proper_committee_fans_out_point_to_point() {
        let c = Committee::sample(&cfg(4), b"seed", 10);
        assert!(c.is_proper());
        let mut step: Step<Envelope> = Step::none();
        c.fan_out(
            &mut step,
            Envelope::seal(setupfree_net::InstancePath::root(), &1u8),
        );
        assert_eq!(step.outgoing.len(), 4, "one send per member");
    }

    #[test]
    fn sampling_is_stable_against_a_pinned_golden() {
        // A change to the derivation is a consensus-breaking change across
        // versions; this golden makes it impossible to do by accident.
        let c = Committee::sample(&cfg(5), &0xC0FFEEu64.to_le_bytes(), 20);
        let got: Vec<usize> = c.members().iter().map(|p| p.index()).collect();
        assert_eq!(got, vec![1, 2, 8, 9, 19]);
    }

    #[test]
    fn domains_separate_committees() {
        let a = Committee::sample(&CommitteeConfig::new(8, "aba"), b"s", 64);
        let b = Committee::sample(&CommitteeConfig::new(8, "vba"), b"s", 64);
        assert_ne!(a.members(), b.members(), "domains must decorrelate");
    }

    #[test]
    fn membership_bias_stays_within_binomial_bounds_over_1000_seeds() {
        // Each of the n parties should be sampled ~ Binomial(1000, m/n).
        // With n = 20, m = 5: mean 250, σ ≈ 13.7.  A ±6σ corridor gives a
        // per-party false-alarm rate ~ 2e-9 — across 20 parties the test is
        // deterministic in practice while still catching any real skew
        // (a biased shuffle shifts counts by Θ(mean), not Θ(σ)).
        let (n, m, trials) = (20usize, 5usize, 1000u64);
        let mut counts = vec![0u32; n];
        for seed in 0..trials {
            let c = Committee::sample(&cfg(m), &seed.to_le_bytes(), n);
            assert_eq!(c.size(), m);
            for p in c.members() {
                counts[p.index()] += 1;
            }
        }
        let mean = trials as f64 * m as f64 / n as f64;
        let sigma = (mean * (1.0 - m as f64 / n as f64)).sqrt();
        let (lo, hi) = (mean - 6.0 * sigma, mean + 6.0 * sigma);
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (f64::from(c)) > lo && (f64::from(c)) < hi,
                "party {i} sampled {c} times; binomial corridor is [{lo:.0}, {hi:.0}]"
            );
        }
    }

    #[test]
    fn worst_seed_plants_byzantine_members_inside_the_committee() {
        let pool: Vec<u64> = (0..64).collect();
        let candidates: Vec<usize> = (0..13).collect(); // global f at n = 40
        let (seed, committee, corrupt) =
            worst_committee_seed(&pool, &cfg(10), 40, &candidates);
        assert!(pool.contains(&seed));
        assert_eq!(corrupt.len(), committee.f(), "the pool must yield a full plant");
        for &c in &corrupt {
            assert!(committee.is_member(PartyId(c)));
            assert!(candidates.contains(&c));
        }
    }

    proptest! {
        #[test]
        fn prop_derivation_is_deterministic_across_parties(
            seed in any::<u64>(),
            n in 1usize..80,
            size in 1usize..40,
        ) {
            let config = cfg(size);
            // "Across parties": the derivation takes no party identity at
            // all, so every party evaluates the same pure function; two
            // independent evaluations must agree exactly.
            let a = Committee::sample(&config, &seed.to_le_bytes(), n);
            let b = Committee::sample(&config, &seed.to_le_bytes(), n);
            prop_assert_eq!(a.members(), b.members());
            prop_assert_eq!(a.size(), size.min(n));
        }

        #[test]
        fn prop_members_are_distinct_sorted_and_in_range(
            seed in any::<u64>(),
            n in 2usize..120,
            size in 1usize..60,
        ) {
            let c = Committee::sample(&cfg(size), &seed.to_le_bytes(), n);
            let idx: Vec<usize> = c.members().iter().map(|p| p.index()).collect();
            prop_assert!(idx.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
            prop_assert!(idx.iter().all(|&i| i < n), "in range");
            prop_assert_eq!(idx.len(), size.min(n));
            for &i in &idx {
                prop_assert!(c.is_member(PartyId(i)));
            }
            prop_assert_eq!(
                (0..n).filter(|&i| c.is_member(PartyId(i))).count(),
                idx.len()
            );
        }

        #[test]
        fn prop_quorum_arithmetic_is_committee_relative(
            seed in any::<u64>(),
            m in 1usize..40,
        ) {
            let c = Committee::sample(&cfg(m), &seed.to_le_bytes(), 200);
            prop_assert_eq!(c.f(), (m - 1) / 3);
            prop_assert_eq!(c.quorum() + c.f(), m);
            prop_assert!(c.quorum() > 2 * c.f(), "quorum overlap argument holds");
            prop_assert_eq!(c.adopt_threshold(), c.f() + 1);
        }
    }
}
