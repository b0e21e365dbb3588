//! Adversarial message schedulers.
//!
//! The asynchronous network of §3 lets the adversary "arbitrarily delay and
//! reorder messages", subject only to eventual delivery.  The simulator
//! models this by keeping every in-flight message in a pending pool and
//! asking a [`Scheduler`] which one to deliver next.  Because every pending
//! message is eventually selectable and the pool is finite, eventual delivery
//! holds for every scheduler implemented here.
//!
//! # Incremental API
//!
//! Schedulers are *stateful*: the simulator pushes every newly sent message
//! through [`Scheduler::on_enqueue`], asks for one delivery at a time via
//! [`Scheduler::select_next`], and withdraws messages that leave the network
//! undelivered (receiver crashed) via [`Scheduler::on_remove`].  This keeps
//! the per-delivery cost at O(1)–O(log P) in the number of in-flight
//! messages P, instead of the O(P) per delivery (O(D·P) per run) that a
//! stateless `select(&[PendingInfo])` API forces.
//!
//! Delivery order is **bit-identical** to the historical stateless engine
//! under the same seeds: the randomised schedulers keep an internal arena
//! that mirrors the old engine's pending `Vec` (push on send, swap-remove on
//! delivery) and draw the same `gen_range` values over the same bounds, so
//! every recorded schedule replays exactly (see the determinism suite in
//! `crates/bench/tests/determinism.rs`).

use std::collections::{HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::party::PartyId;

/// Summary of an in-flight message shown to the scheduler (the adversary is
/// allowed to see sender, receiver and length, but not plaintext contents of
/// honest-to-honest messages — §3 "secure channels").
#[derive(Debug, Clone, Copy)]
pub struct PendingInfo {
    /// Sending party.
    pub from: PartyId,
    /// Receiving party.
    pub to: PartyId,
    /// Encoded length in bytes.
    pub len: usize,
    /// Sequence number assigned at send time (FIFO order).  Uniquely
    /// identifies the in-flight message.
    pub seq: u64,
}

/// Chooses which pending message the network delivers next.
///
/// The simulator upholds this contract:
///
/// * [`Scheduler::on_enqueue`] is called exactly once per message, with
///   strictly increasing `seq`;
/// * [`Scheduler::select_next`] is only called while at least one enqueued
///   message has neither been selected nor removed;
/// * every `seq` leaves the scheduler through exactly one of
///   [`Scheduler::select_next`] or [`Scheduler::on_remove`].
pub trait Scheduler {
    /// A message entered the network.
    fn on_enqueue(&mut self, info: PendingInfo);

    /// Returns the `seq` of the message the network delivers next.
    ///
    /// The pool is never empty when this is called.
    fn select_next(&mut self) -> u64;

    /// The message with this `seq` left the network without being delivered
    /// (e.g. its receiver crashed); forget it without consuming randomness.
    fn on_remove(&mut self, seq: u64);
}

// ---------------------------------------------------------------------------
// Shared building blocks.
// ---------------------------------------------------------------------------

/// A swap-remove arena of `seq`s that mirrors the historical engine's pending
/// `Vec` ordering exactly: push on enqueue, swap-remove on selection.  The
/// per-delivery operations are O(1) and hash-free; only `remove_seq` (used
/// when a receiver crashes — a rare event, not per-delivery work) scans.
#[derive(Debug, Clone, Default)]
struct Arena {
    seqs: Vec<u64>,
}

impl Arena {
    fn len(&self) -> usize {
        self.seqs.len()
    }

    fn push(&mut self, seq: u64) {
        self.seqs.push(seq);
    }

    fn swap_remove(&mut self, slot: usize) -> u64 {
        self.seqs.swap_remove(slot)
    }

    fn remove_seq(&mut self, seq: u64) {
        let slot =
            self.seqs.iter().position(|&s| s == seq).expect("removed seq is not in the arena");
        self.swap_remove(slot);
    }
}

/// A Fenwick (binary indexed) tree over 0/1 eligibility bits, supporting
/// append, point update, pop and order-statistics selection — all O(log P).
#[derive(Debug, Clone)]
struct Fenwick {
    /// 1-based tree; `tree[0]` is unused padding.
    tree: Vec<i64>,
    len: usize,
    total: i64,
}

impl Fenwick {
    fn new() -> Self {
        Fenwick { tree: vec![0], len: 0, total: 0 }
    }

    fn prefix(&self, mut pos: usize) -> i64 {
        let mut sum = 0;
        while pos > 0 {
            sum += self.tree[pos];
            pos &= pos - 1;
        }
        sum
    }

    /// Appends a new position holding `bit`.
    fn push(&mut self, bit: bool) {
        self.len += 1;
        let pos = self.len;
        let low = pos & pos.wrapping_neg();
        // A fresh node covers positions (pos-low, pos]; rebuild it from
        // prefix sums (any stale popped value is overwritten here).
        let node = self.prefix(pos - 1) - self.prefix(pos - low) + i64::from(bit);
        if self.tree.len() <= pos {
            self.tree.push(node);
        } else {
            self.tree[pos] = node;
        }
        self.total += i64::from(bit);
    }

    /// Adds `delta` to the bit at 1-based `pos`.
    fn add(&mut self, mut pos: usize, delta: i64) {
        if delta == 0 {
            return;
        }
        self.total += delta;
        while pos <= self.len {
            self.tree[pos] += delta;
            pos += pos & pos.wrapping_neg();
        }
    }

    /// Drops the last position.  Its bit must already be zero.
    fn pop(&mut self) {
        self.len -= 1;
    }

    /// 0-based slot of the `k`-th (0-based) set bit, in position order.
    fn select(&self, k: usize) -> usize {
        debug_assert!((k as i64) < self.total, "fenwick select out of range");
        let mut pos = 0;
        let mut remaining = k as i64 + 1;
        let mut step = self.len.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= self.len && self.tree[next] < remaining {
                remaining -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        pos // 1-based answer is pos + 1; as a 0-based slot that is `pos`.
    }
}

/// An arena (mirroring the historical pending-`Vec` order) with a Fenwick
/// index over a per-message eligibility bit fixed at enqueue time.  Supports
/// "pick the k-th eligible message in arena order" in O(log P) — the
/// operation the targeted-delay and partition schedulers are built on.
#[derive(Debug, Clone)]
struct EligibilityPool {
    seqs: Vec<u64>,
    eligible: Vec<bool>,
    index: Fenwick,
}

impl EligibilityPool {
    fn new() -> Self {
        EligibilityPool { seqs: Vec::new(), eligible: Vec::new(), index: Fenwick::new() }
    }

    fn len(&self) -> usize {
        self.seqs.len()
    }

    fn eligible_count(&self) -> usize {
        self.index.total as usize
    }

    fn push(&mut self, seq: u64, eligible: bool) {
        self.seqs.push(seq);
        self.eligible.push(eligible);
        self.index.push(eligible);
    }

    fn seq_at(&self, slot: usize) -> u64 {
        self.seqs[slot]
    }

    /// 0-based slot of the `k`-th eligible message in arena order.
    fn kth_eligible_slot(&self, k: usize) -> usize {
        self.index.select(k)
    }

    fn swap_remove(&mut self, slot: usize) -> u64 {
        let last = self.seqs.len() - 1;
        self.index.add(slot + 1, -i64::from(self.eligible[slot]));
        if slot != last {
            self.index.add(last + 1, -i64::from(self.eligible[last]));
        }
        let moved_bit = self.eligible[last];
        let seq = self.seqs.swap_remove(slot);
        self.eligible.swap_remove(slot);
        self.index.pop();
        if slot != last {
            self.eligible[slot] = moved_bit;
            self.index.add(slot + 1, i64::from(moved_bit));
        }
        seq
    }

    /// Withdraws a message by `seq`.  O(P) scan — only called when a
    /// receiver crashes, never per delivery.
    fn remove_seq(&mut self, seq: u64) {
        let slot =
            self.seqs.iter().position(|&s| s == seq).expect("removed seq is not in the pool");
        self.swap_remove(slot);
    }

    /// One adversarial pick: a uniformly random eligible message (in arena
    /// order), falling back to a uniformly random message when nothing is
    /// eligible — exactly the historical two-branch draw, bounds and all.
    fn pick(&mut self, rng: &mut StdRng) -> u64 {
        let slot = match self.eligible_count() {
            0 => rng.gen_range(0..self.len()),
            m => {
                let k = rng.gen_range(0..m);
                self.kth_eligible_slot(k)
            }
        };
        let seq = self.seq_at(slot);
        self.swap_remove(slot);
        seq
    }
}

/// The shared core of every starvation scheduler: a seeded RNG plus an
/// [`EligibilityPool`].  Each concrete scheduler contributes only its
/// eligibility predicate (who is starved); selection, removal and the
/// eventual-delivery fallback live here exactly once.
#[derive(Debug, Clone)]
struct StarvationPool {
    rng: StdRng,
    pool: EligibilityPool,
}

impl StarvationPool {
    fn new(seed: u64) -> Self {
        StarvationPool { rng: StdRng::seed_from_u64(seed), pool: EligibilityPool::new() }
    }

    fn on_enqueue(&mut self, seq: u64, eligible: bool) {
        self.pool.push(seq, eligible);
    }

    fn select_next(&mut self) -> u64 {
        self.pool.pick(&mut self.rng)
    }

    fn on_remove(&mut self, seq: u64) {
        self.pool.remove_seq(seq);
    }
}

// ---------------------------------------------------------------------------
// The schedulers.
// ---------------------------------------------------------------------------

/// Delivers messages in the order they were sent.
#[derive(Debug, Default, Clone)]
pub struct FifoScheduler {
    /// Pending `seq`s in arrival order — sorted, because the `Scheduler`
    /// contract guarantees strictly increasing enqueue seqs, so the front
    /// is always the oldest message: O(1) per delivery.
    queue: VecDeque<u64>,
    /// Lazily deleted `seq`s (withdrawn via `on_remove`).
    removed: HashSet<u64>,
}

impl Scheduler for FifoScheduler {
    fn on_enqueue(&mut self, info: PendingInfo) {
        debug_assert!(
            self.queue.back().is_none_or(|&last| last < info.seq),
            "the simulator enqueues strictly increasing seqs"
        );
        self.queue.push_back(info.seq);
    }

    fn select_next(&mut self) -> u64 {
        loop {
            let seq = self.queue.pop_front().expect("select_next called on an empty pool");
            if self.removed.is_empty() || !self.removed.remove(&seq) {
                return seq;
            }
        }
    }

    fn on_remove(&mut self, seq: u64) {
        self.removed.insert(seq);
    }
}

/// Delivers a uniformly random pending message — the standard model of an
/// asynchronous network with arbitrary (oblivious) reordering.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: StdRng,
    arena: Arena,
}

impl RandomScheduler {
    /// Creates a scheduler from a seed (reproducible).
    pub fn new(seed: u64) -> Self {
        RandomScheduler { rng: StdRng::seed_from_u64(seed), arena: Arena::default() }
    }
}

impl Scheduler for RandomScheduler {
    fn on_enqueue(&mut self, info: PendingInfo) {
        self.arena.push(info.seq);
    }

    fn select_next(&mut self) -> u64 {
        let slot = self.rng.gen_range(0..self.arena.len());
        self.arena.swap_remove(slot)
    }

    fn on_remove(&mut self, seq: u64) {
        self.arena.remove_seq(seq);
    }
}

/// An adversarial scheduler that starves a target set of parties: messages
/// sent *by or to* the targets are delayed as long as any other message is
/// pending (while still being eventually delivered).  This is the classic
/// strategy against leader-based protocols — delay the would-be winner.
#[derive(Debug, Clone)]
pub struct TargetedDelayScheduler {
    targets: Vec<PartyId>,
    inner: StarvationPool,
}

impl TargetedDelayScheduler {
    /// Creates a scheduler that starves `targets`.
    pub fn new(targets: Vec<PartyId>, seed: u64) -> Self {
        TargetedDelayScheduler { targets, inner: StarvationPool::new(seed) }
    }

    fn involves_target(&self, p: &PendingInfo) -> bool {
        self.targets.contains(&p.from) || self.targets.contains(&p.to)
    }
}

impl Scheduler for TargetedDelayScheduler {
    fn on_enqueue(&mut self, info: PendingInfo) {
        let eligible = !self.involves_target(&info);
        self.inner.on_enqueue(info.seq, eligible);
    }

    fn select_next(&mut self) -> u64 {
        self.inner.select_next()
    }

    fn on_remove(&mut self, seq: u64) {
        self.inner.on_remove(seq);
    }
}

/// Splits the parties into two halves and delivers all intra-half traffic
/// before any cross-half traffic, approximating a long (but not permanent)
/// network partition.
#[derive(Debug, Clone)]
pub struct PartitionScheduler {
    boundary: usize,
    inner: StarvationPool,
}

impl PartitionScheduler {
    /// Parties with index `< boundary` form one side of the partition.
    pub fn new(boundary: usize, seed: u64) -> Self {
        PartitionScheduler { boundary, inner: StarvationPool::new(seed) }
    }

    fn crosses(&self, p: &PendingInfo) -> bool {
        (p.from.index() < self.boundary) != (p.to.index() < self.boundary)
    }
}

impl Scheduler for PartitionScheduler {
    fn on_enqueue(&mut self, info: PendingInfo) {
        let eligible = !self.crosses(&info);
        self.inner.on_enqueue(info.seq, eligible);
    }

    fn select_next(&mut self) -> u64 {
        self.inner.select_next()
    }

    fn on_remove(&mut self, seq: u64) {
        self.inner.on_remove(seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(from: usize, to: usize, seq: u64) -> PendingInfo {
        PendingInfo { from: PartyId(from), to: PartyId(to), len: 1, seq }
    }

    /// Drives `scheduler` and a reference implementation of the historical
    /// stateless engine (pending `Vec`, swap-remove, `select(&[PendingInfo])`
    /// re-run per delivery) over the same traffic, asserting the delivered
    /// `seq` sequences are identical.
    fn assert_matches_stateless_oracle(
        mut scheduler: impl Scheduler,
        mut oracle_select: impl FnMut(&[PendingInfo]) -> usize,
        traffic_seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(traffic_seed);
        let mut oracle_pending: Vec<PendingInfo> = Vec::new();
        let mut seq = 0u64;
        for _round in 0..200 {
            // A burst of enqueues (multicast-shaped: same sender, all dests).
            let n = 6;
            let from = rng.gen_range(0..n);
            for to in 0..n {
                let i = info(from, to, seq);
                oracle_pending.push(i);
                scheduler.on_enqueue(i);
                seq += 1;
            }
            // Drain a few deliveries.
            for _ in 0..rng.gen_range(1..8usize) {
                if oracle_pending.is_empty() {
                    break;
                }
                let idx = oracle_select(&oracle_pending);
                let expected = oracle_pending.swap_remove(idx).seq;
                assert_eq!(scheduler.select_next(), expected, "divergence at delivery of {expected}");
            }
        }
    }

    #[test]
    fn fifo_delivers_in_send_order() {
        let mut s = FifoScheduler::default();
        for (f, t, q) in [(1, 2, 2), (0, 1, 5), (2, 0, 9)] {
            s.on_enqueue(info(f, t, q));
        }
        assert_eq!(s.select_next(), 2);
        assert_eq!(s.select_next(), 5);
        assert_eq!(s.select_next(), 9);
    }

    #[test]
    fn fifo_skips_removed_messages() {
        let mut s = FifoScheduler::default();
        for q in 0..5 {
            s.on_enqueue(info(0, 1, q));
        }
        s.on_remove(0);
        s.on_remove(2);
        assert_eq!(s.select_next(), 1);
        assert_eq!(s.select_next(), 3);
        assert_eq!(s.select_next(), 4);
    }

    #[test]
    fn random_is_reproducible() {
        let build = || {
            let mut s = RandomScheduler::new(7);
            for i in 0..10u64 {
                s.on_enqueue(info(i as usize, (i as usize + 1) % 10, i));
            }
            (0..10).map(|_| s.select_next()).collect::<Vec<u64>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn random_matches_stateless_oracle() {
        // The historical engine drew `gen_range(0..len)` as an index into the
        // pending Vec; the arena must replay that draw bit-for-bit.
        let mut oracle_rng = StdRng::seed_from_u64(7);
        assert_matches_stateless_oracle(
            RandomScheduler::new(7),
            move |pending| oracle_rng.gen_range(0..pending.len()),
            0xbeef,
        );
    }

    #[test]
    fn targeted_matches_stateless_oracle() {
        let targets = [PartyId(0), PartyId(3)];
        let mut oracle_rng = StdRng::seed_from_u64(3);
        assert_matches_stateless_oracle(
            TargetedDelayScheduler::new(targets.to_vec(), 3),
            move |pending| {
                let non_target: Vec<usize> = (0..pending.len())
                    .filter(|&i| {
                        !targets.contains(&pending[i].from) && !targets.contains(&pending[i].to)
                    })
                    .collect();
                if non_target.is_empty() {
                    oracle_rng.gen_range(0..pending.len())
                } else {
                    non_target[oracle_rng.gen_range(0..non_target.len())]
                }
            },
            0xfeed,
        );
    }

    #[test]
    fn partition_matches_stateless_oracle() {
        let boundary = 3;
        let mut oracle_rng = StdRng::seed_from_u64(5);
        assert_matches_stateless_oracle(
            PartitionScheduler::new(boundary, 5),
            move |pending| {
                let intra: Vec<usize> = (0..pending.len())
                    .filter(|&i| {
                        (pending[i].from.index() < boundary) == (pending[i].to.index() < boundary)
                    })
                    .collect();
                if intra.is_empty() {
                    oracle_rng.gen_range(0..pending.len())
                } else {
                    intra[oracle_rng.gen_range(0..intra.len())]
                }
            },
            0xcafe,
        );
    }

    #[test]
    fn targeted_scheduler_avoids_targets_when_possible() {
        let mut s = TargetedDelayScheduler::new(vec![PartyId(0)], 3);
        s.on_enqueue(info(0, 1, 0));
        s.on_enqueue(info(2, 3, 1));
        s.on_enqueue(info(1, 0, 2));
        // Only seq 1 avoids the target; it must go first.
        assert_eq!(s.select_next(), 1);
        // Now only target traffic remains; it must still be delivered.
        let mut rest = vec![s.select_next(), s.select_next()];
        rest.sort_unstable();
        assert_eq!(rest, vec![0, 2]);
    }

    #[test]
    fn partition_prefers_intra_half_traffic() {
        let mut s = PartitionScheduler::new(2, 5);
        s.on_enqueue(info(0, 3, 0));
        s.on_enqueue(info(0, 1, 1));
        s.on_enqueue(info(2, 3, 2));
        let first_two = [s.select_next(), s.select_next()];
        assert!(first_two.contains(&1) && first_two.contains(&2), "cross-half message must wait");
        assert_eq!(s.select_next(), 0);
    }

    #[test]
    fn removal_keeps_eligibility_index_consistent() {
        let mut s = PartitionScheduler::new(2, 9);
        for q in 0..20u64 {
            // Even seqs intra-half, odd seqs cross-half.
            let (from, to) = if q % 2 == 0 { (0, 1) } else { (0, 2) };
            s.on_enqueue(info(from, to, q));
        }
        // Withdraw a mix of intra- and cross-half messages.
        for q in [0, 1, 6, 7, 18] {
            s.on_remove(q);
        }
        let mut delivered: Vec<u64> = (0..15).map(|_| s.select_next()).collect();
        // All intra-half survivors must come out before any cross-half one.
        let first_cross = delivered.iter().position(|q| q % 2 == 1).unwrap();
        assert!(delivered[first_cross..].iter().all(|q| q % 2 == 1));
        delivered.sort_unstable();
        assert_eq!(delivered, vec![2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 19]);
    }

    #[test]
    fn fenwick_select_finds_kth_set_bit() {
        let bits = [true, false, true, true, false, false, true, false, true];
        let mut f = Fenwick::new();
        for &b in &bits {
            f.push(b);
        }
        let set: Vec<usize> =
            (0..bits.len()).filter(|&i| bits[i]).collect();
        assert_eq!(f.total as usize, set.len());
        for (k, &slot) in set.iter().enumerate() {
            assert_eq!(f.select(k), slot, "k = {k}");
        }
        // Clear 0-based slot 2 (1-based position 3): the second set bit is
        // now at slot 3.
        f.add(3, -1);
        assert_eq!(f.select(1), 3);
    }
}
