//! Deterministic link-fault injection for the socket mesh.
//!
//! The simulator's testkit can delay, reorder, and partition traffic at
//! will because *it* is the network.  Real sockets have no such knob — so
//! this module fakes a hostile WAN inside the transport itself.  A
//! [`LinkFaultPlan`] is a pure, seed-driven description of what each
//! ordered link does to each frame: drop it, delay it, cut the connection
//! under it, or hold it behind a timed partition.  "Pure" is the load-
//! bearing word: every decision is a function of `(seed, from, to, seq)` or
//! of elapsed run time, never of thread timing, so a chaos run is
//! replayable — the same seed injects the same faults into the same frames,
//! which is what lets `tests/chaos.rs` assert exact outcomes and CI gate on
//! them.
//!
//! Where each fault is applied is part of the semantics:
//!
//! * **drops** and **cuts** act at the *writer* (the frame dies on, or
//!   kills, the wire) — the sender's reconnect layer sees a dead link,
//!   parks subsequent frames, and redials, so a drop exercises the full
//!   sever → backoff → resume → retransmit path;
//! * **delay + jitter** act at the *reader*, as a sleep until
//!   `recv_instant + delay` before the envelope enters the inbox.  Applied
//!   per-frame at the receiver, back-to-back frames pay the latency once
//!   (pipelined), not once each — the shape of real propagation delay, not
//!   a bandwidth cap;
//! * **partitions** act at both the writer (frames offered across the
//!   boundary are treated as dropped) and the dialer (redials across the
//!   boundary wait, without burning retry budget, until the heal time).
//!
//! A drop/cut decision is made **once per sequence number**, at first
//! offer.  A retransmitted frame is never re-dropped: the model is "the
//! network ate that transmission", not "the network eats this payload
//! forever", and re-rolling per attempt could livelock a link at high drop
//! rates.

use std::time::Duration;

/// A one-shot cut of the connection under an ordered link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinkCut {
    from: usize,
    to: usize,
    at_frame: u64,
}

/// A timed bidirectional partition between two halves of the roster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Partition {
    /// Peers `< boundary` are one side, peers `>= boundary` the other.
    boundary: usize,
    start: Duration,
    heal: Duration,
}

/// A deterministic, seed-driven fault schedule for every link of a run.
///
/// The default plan ([`LinkFaultPlan::new`] with no faults configured) is a
/// no-op: the group skips the chaos code paths entirely, so clean runs pay
/// nothing for the feature existing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkFaultPlan {
    seed: u64,
    drop_probability: f64,
    delay: Option<(Duration, Duration)>,
    cuts: Vec<LinkCut>,
    partitions: Vec<Partition>,
}

impl LinkFaultPlan {
    /// An empty plan keyed by `seed`.  With no faults added it injects
    /// nothing; the seed only matters once [`drop_probability`]
    /// (/ [`delay`]) give it something to randomise.
    ///
    /// [`drop_probability`]: LinkFaultPlan::drop_probability
    /// [`delay`]: LinkFaultPlan::delay
    pub fn new(seed: u64) -> Self {
        LinkFaultPlan { seed, ..LinkFaultPlan::default() }
    }

    /// Every data frame is independently dropped at the writer with
    /// probability `p` (decided once per sequence number — retransmissions
    /// of a dropped frame go through).
    pub fn drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability must be in [0, 1]");
        self.drop_probability = p;
        self
    }

    /// Every delivered frame waits `base + uniform(0..=jitter)` at the
    /// receiver before entering the inbox.
    pub fn delay(mut self, base: Duration, jitter: Duration) -> Self {
        self.delay = Some((base, jitter));
        self
    }

    /// The connection under the ordered link `from → to` is severed when
    /// `from` offers its `at_frame`-th data frame (0-based) to `to`.  The
    /// frame itself is lost with the connection; reconnect + retransmit
    /// must recover it.
    pub fn cut_link(mut self, from: usize, to: usize, at_frame: u64) -> Self {
        self.cuts.push(LinkCut { from, to, at_frame });
        self
    }

    /// From `start` until `start + heal` (measured from the run's first
    /// activation), peers `< boundary` cannot exchange frames with peers
    /// `>= boundary` in either direction, and redials across the boundary
    /// stall (without consuming retry budget) until the heal.
    pub fn partition_halves(mut self, boundary: usize, start: Duration, heal: Duration) -> Self {
        assert!(heal > Duration::ZERO, "a zero-length partition is a no-op");
        self.partitions.push(Partition { boundary, start, heal });
        self
    }

    /// `true` when the plan injects nothing — the group uses this to skip
    /// chaos bookkeeping on clean runs.
    pub fn is_noop(&self) -> bool {
        self.drop_probability == 0.0
            && self.delay.is_none()
            && self.cuts.is_empty()
            && self.partitions.is_empty()
    }

    /// Should the `seq`-th frame of `from → to` be dropped at the writer?
    /// Deterministic in `(seed, from, to, seq)`.
    pub fn should_drop(&self, from: usize, to: usize, seq: u64) -> bool {
        if self.drop_probability <= 0.0 {
            return false;
        }
        if self.drop_probability >= 1.0 {
            return true;
        }
        let roll = self.hash(from, to, seq, 0x01);
        // Compare in u64 space: p * 2^64, saturating at the top.
        let threshold = (self.drop_probability * (u64::MAX as f64)) as u64;
        roll < threshold
    }

    /// The receiver-side delay for the `seq`-th frame of `from → to`, if
    /// the plan shapes latency.  Deterministic in `(seed, from, to, seq)`.
    pub fn frame_delay(&self, from: usize, to: usize, seq: u64) -> Option<Duration> {
        let (base, jitter) = self.delay?;
        if jitter.is_zero() {
            return Some(base);
        }
        let roll = self.hash(from, to, seq, 0x02);
        let jitter_ns = jitter.as_nanos() as u64;
        Some(base + Duration::from_nanos(roll % (jitter_ns + 1)))
    }

    /// Does offering the `seq`-th frame of `from → to` trigger a scheduled
    /// one-shot cut?
    pub fn cuts_at(&self, from: usize, to: usize, seq: u64) -> bool {
        self.cuts.iter().any(|c| c.from == from && c.to == to && c.at_frame == seq)
    }

    /// Are `a` and `b` separated by an active partition at `elapsed` run
    /// time?
    pub fn partitioned(&self, a: usize, b: usize, elapsed: Duration) -> bool {
        self.partitions.iter().any(|p| {
            (a < p.boundary) != (b < p.boundary)
                && elapsed >= p.start
                && elapsed < p.start + p.heal
        })
    }

    /// Total time the link `a ↔ b` spent partitioned within a run of length
    /// `wall` — reported per link in `LinkStats::partitioned_ms`.
    pub fn partitioned_for(&self, a: usize, b: usize, wall: Duration) -> Duration {
        self.partitions
            .iter()
            .filter(|p| (a < p.boundary) != (b < p.boundary))
            .map(|p| wall.min(p.start + p.heal).saturating_sub(p.start))
            .sum()
    }

    /// splitmix64 over the fault coordinates: independent, well-mixed
    /// 64-bit rolls per `(link, frame, fault-kind)` without any shared
    /// RNG state to contend on across writer threads.
    fn hash(&self, from: usize, to: usize, seq: u64, salt: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add((from as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((to as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(seq.wrapping_mul(0x94D0_49BB_1331_11EB))
            .wrapping_add(salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_decisions_are_deterministic_and_seed_sensitive() {
        let plan = LinkFaultPlan::new(42).drop_probability(0.5);
        let a: Vec<bool> = (0..64).map(|s| plan.should_drop(1, 2, s)).collect();
        let b: Vec<bool> = (0..64).map(|s| plan.should_drop(1, 2, s)).collect();
        assert_eq!(a, b, "same (seed, link, seq) must always roll the same");
        let other = LinkFaultPlan::new(43).drop_probability(0.5);
        let c: Vec<bool> = (0..64).map(|s| other.should_drop(1, 2, s)).collect();
        assert_ne!(a, c, "a different seed must perturb the schedule");
        assert!(a.iter().any(|&d| d) && a.iter().any(|&d| !d), "p=0.5 over 64 rolls mixes");
    }

    #[test]
    fn drop_probability_extremes_and_rate() {
        let never = LinkFaultPlan::new(7);
        assert!((0..100).all(|s| !never.should_drop(0, 1, s)));
        let always = LinkFaultPlan::new(7).drop_probability(1.0);
        assert!((0..100).all(|s| always.should_drop(0, 1, s)));
        // 1% over 10k frames lands within loose binomial bounds.
        let one_pct = LinkFaultPlan::new(99).drop_probability(0.01);
        let dropped = (0..10_000).filter(|&s| one_pct.should_drop(3, 4, s)).count();
        assert!((40..=200).contains(&dropped), "expected ~100 drops, got {dropped}");
    }

    #[test]
    fn delay_is_bounded_by_base_plus_jitter() {
        let base = Duration::from_millis(5);
        let jitter = Duration::from_millis(20);
        let plan = LinkFaultPlan::new(11).delay(base, jitter);
        for seq in 0..200 {
            let d = plan.frame_delay(0, 1, seq).unwrap();
            assert!(d >= base && d <= base + jitter, "delay {d:?} out of range at seq {seq}");
        }
        assert_eq!(LinkFaultPlan::new(11).frame_delay(0, 1, 0), None);
    }

    #[test]
    fn cuts_fire_on_the_exact_frame_and_link() {
        let plan = LinkFaultPlan::new(0).cut_link(2, 5, 10);
        assert!(plan.cuts_at(2, 5, 10));
        assert!(!plan.cuts_at(2, 5, 9));
        assert!(!plan.cuts_at(2, 5, 11));
        assert!(!plan.cuts_at(5, 2, 10), "cuts are per ordered link");
    }

    #[test]
    fn partitions_cover_their_window_and_report_their_span() {
        let plan = LinkFaultPlan::new(0).partition_halves(
            5,
            Duration::from_millis(100),
            Duration::from_millis(300),
        );
        let ms = Duration::from_millis;
        assert!(!plan.partitioned(0, 9, ms(50)), "before the start");
        assert!(plan.partitioned(0, 9, ms(100)), "at the start");
        assert!(plan.partitioned(9, 0, ms(250)), "symmetric in the endpoints");
        assert!(!plan.partitioned(0, 9, ms(400)), "healed");
        assert!(!plan.partitioned(0, 4, ms(200)), "same side never partitioned");
        assert!(!plan.partitioned(5, 9, ms(200)), "same side never partitioned");
        assert_eq!(plan.partitioned_for(0, 9, ms(1000)), ms(300));
        assert_eq!(plan.partitioned_for(0, 9, ms(250)), ms(150), "clamped to the run");
        assert_eq!(plan.partitioned_for(0, 4, ms(1000)), ms(0));
    }

    #[test]
    fn an_empty_plan_is_a_noop() {
        assert!(LinkFaultPlan::new(123).is_noop());
        assert!(!LinkFaultPlan::new(123).drop_probability(0.01).is_noop());
        assert!(!LinkFaultPlan::new(123)
            .delay(Duration::ZERO, Duration::from_millis(1))
            .is_noop());
    }
}
