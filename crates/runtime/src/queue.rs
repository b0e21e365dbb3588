//! Bounded blocking channels between the coordinator and the worker
//! shards — and, since the socket transport, between a peer's reader
//! threads and its driver.
//!
//! Each shard owns one inbox (coordinator → shard: admitted session
//! indices), and all shards share one report queue (shards → coordinator:
//! per-session reports and worker exit notices); a socket-backed peer owns
//! one inbox fed by `n − 1` connection reader threads.  All are
//! **bounded**: a producer that outruns its consumer blocks instead of
//! growing memory, so a misbehaving shard (or a flooding connection) can
//! never buffer the whole workload.  The implementation is a
//! `Mutex<VecDeque>` + two condvars — correct for any number of producers
//! and consumers (only [`ShardQueue::has_capacity`] assumes a single
//! producer), and the workspace's `forbid(unsafe_code)` rules out a
//! lock-free ring.
//!
//! The close protocol every consumer relies on: [`ShardQueue::close`] makes
//! producers fail fast (the item is handed back), while consumers still
//! drain the accepted backlog before seeing `None` — an accepted item is
//! never lost.  The property tests below pin exactly this under concurrent
//! producers and a mid-drain close, for the one-item calls and for the
//! batch calls ([`ShardQueue::push_all`], [`ShardQueue::pop_all`]) a socket
//! peer's readers and driver use to move a burst under one lock.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
    /// Highest occupancy ever observed — how close the queue came to
    /// exercising backpressure.  Reported per peer inbox by the transport.
    high_water: usize,
}

/// A bounded blocking FIFO channel.
pub struct ShardQueue<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    /// Signalled when an item is pushed or the queue closes (wakes `pop`).
    filled: Condvar,
    /// Signalled when an item is popped or the queue closes (wakes `push`).
    drained: Condvar,
}

impl<T> ShardQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity queue can never transfer anything");
        ShardQueue {
            capacity,
            state: Mutex::new(State { queue: VecDeque::new(), closed: false, high_water: 0 }),
            filled: Condvar::new(),
            drained: Condvar::new(),
        }
    }

    /// Blocks until there is room, then enqueues `item`.  Returns the item
    /// back as an `Err` when the queue has been closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        while state.queue.len() >= self.capacity && !state.closed {
            state = self.drained.wait(state).expect("queue lock poisoned");
        }
        if state.closed {
            return Err(item);
        }
        state.queue.push_back(item);
        state.high_water = state.high_water.max(state.queue.len());
        drop(state);
        self.filled.notify_one();
        Ok(())
    }

    /// Enqueues without blocking; `Err` when full or closed.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        if state.closed || state.queue.len() >= self.capacity {
            return Err(item);
        }
        state.queue.push_back(item);
        state.high_water = state.high_water.max(state.queue.len());
        drop(state);
        self.filled.notify_one();
        Ok(())
    }

    /// Blocks until an item arrives; `None` once the queue is closed *and*
    /// drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = state.queue.pop_front() {
                drop(state);
                self.drained.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.filled.wait(state).expect("queue lock poisoned");
        }
    }

    /// Enqueues every item of `items`, in order, blocking while the queue
    /// is full; each wait hands over as many items as fit under one lock.
    /// Returns `false` once the queue is closed: `items` then holds, in
    /// order, the ones it did not accept.
    #[must_use]
    pub fn push_all(&self, items: &mut VecDeque<T>) -> bool {
        while !items.is_empty() {
            let mut state = self.state.lock().expect("queue lock poisoned");
            while state.queue.len() >= self.capacity && !state.closed {
                state = self.drained.wait(state).expect("queue lock poisoned");
            }
            if state.closed {
                return false;
            }
            let take = (self.capacity - state.queue.len()).min(items.len());
            state.queue.extend(items.drain(..take));
            state.high_water = state.high_water.max(state.queue.len());
            drop(state);
            self.filled.notify_all();
        }
        true
    }

    /// Blocks until an item arrives, then moves every queued item onto the
    /// back of `into` under one lock.  Returns `false`, adding nothing, once
    /// the queue is closed *and* drained.
    #[must_use]
    pub fn pop_all(&self, into: &mut VecDeque<T>) -> bool {
        let mut state = self.state.lock().expect("queue lock poisoned");
        while state.queue.is_empty() {
            if state.closed {
                return false;
            }
            state = self.filled.wait(state).expect("queue lock poisoned");
        }
        into.append(&mut state.queue);
        drop(state);
        self.drained.notify_all();
        true
    }

    /// Closes the queue: producers fail fast, consumers drain the backlog
    /// and then see `None`.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue lock poisoned");
        state.closed = true;
        drop(state);
        self.filled.notify_all();
        self.drained.notify_all();
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").queue.len()
    }

    /// `true` when a `try_push` would currently succeed.  Only meaningful to
    /// the queue's single producer: the consumer can only *make* room, so a
    /// `true` here cannot be invalidated before the producer's next push.
    pub fn has_capacity(&self) -> bool {
        let state = self.state.lock().expect("queue lock poisoned");
        !state.closed && state.queue.len() < self.capacity
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest occupancy the queue ever reached — `capacity` here means
    /// producers actually blocked (or, for `try_push` callers, items were
    /// refused) at least once.
    pub fn high_water(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_capacity() {
        let q = ShardQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3), "bounded: a full queue rejects");
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert!(q.is_empty());
        assert_eq!(q.high_water(), 2, "the high-water mark survives the drain");
    }

    #[test]
    fn close_drains_then_ends() {
        let q = ShardQueue::new(4);
        q.push(7).unwrap();
        q.close();
        assert_eq!(q.push(8), Err(8), "closed queues reject producers");
        assert_eq!(q.pop(), Some(7), "the backlog is still drained");
        assert_eq!(q.pop(), None, "then the consumer sees the end");
    }

    #[test]
    fn blocking_push_wakes_on_pop() {
        let q = Arc::new(ShardQueue::new(1));
        q.push(0u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(1).is_ok())
        };
        // The producer blocks on the full queue until we make room.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn blocking_pop_wakes_on_close() {
        let q: Arc<ShardQueue<u32>> = Arc::new(ShardQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    // -----------------------------------------------------------------
    // Close/contention semantics under concurrent producers — the
    // transport's peer inboxes are MPSC ShardQueues torn down by `close`
    // mid-run, so these properties are load-bearing beyond the sharded
    // host's SPSC use:
    //
    //   * the run never deadlocks (producers blocked on a full queue are
    //     woken by `close` and fail fast);
    //   * an item whose `push` returned `Ok` is *always* delivered to the
    //     consumer, even when the close lands mid-drain;
    //   * an item whose `push` returned `Err` is handed back intact.
    //
    // The same holds when producers hand over chunks with `push_all` and
    // the consumer takes whole backlogs with `pop_all` (the socket
    // transport's readers and drivers), in every mix with the one-item
    // calls.
    // -----------------------------------------------------------------

    use proptest::prelude::*;

    /// How the producers and the consumer of a [`contention_run`] move
    /// items: `chunk` 0 pushes one at a time with `push`, any other value
    /// hands chunks of that many to `push_all`; `pop_all` drains the whole
    /// backlog per wake-up instead of popping one item.
    #[derive(Debug, Clone, Copy)]
    struct Mode {
        chunk: usize,
        pop_all: bool,
    }

    const ONE_BY_ONE: Mode = Mode { chunk: 0, pop_all: false };

    /// `(producer, seq)` tags.
    type Tags = Vec<(usize, usize)>;

    /// Pushes `items` the way `mode` says; returns `(accepted, rejected)`.
    /// A rejected item must come back intact, and once one is rejected so
    /// is every later one (the queue stays closed).
    fn produce(q: &ShardQueue<(usize, usize)>, items: Tags, mode: Mode) -> (Tags, Tags) {
        let mut accepted = Vec::new();
        let mut rejected = Vec::new();
        if mode.chunk == 0 {
            for item in items {
                match q.push(item) {
                    Ok(()) if rejected.is_empty() => accepted.push(item),
                    Ok(()) => panic!("{item:?} accepted after a rejection"),
                    Err(back) => {
                        assert_eq!(back, item, "a rejected item is handed back intact");
                        rejected.push(back);
                    }
                }
            }
            return (accepted, rejected);
        }
        for chunk in items.chunks(mode.chunk) {
            let mut batch: VecDeque<_> = chunk.iter().copied().collect();
            let all = q.push_all(&mut batch);
            let taken = chunk.len() - batch.len();
            assert_eq!(all, batch.is_empty(), "push_all reports whether it took everything");
            assert!(
                batch.iter().eq(&chunk[taken..]),
                "the items push_all hands back are the chunk's untaken suffix, in order"
            );
            assert!(rejected.is_empty() || taken == 0, "accepted after a rejection");
            accepted.extend_from_slice(&chunk[..taken]);
            rejected.extend(batch);
        }
        (accepted, rejected)
    }

    /// Runs `producers` threads pushing `per_producer` tagged items each
    /// into a queue of `capacity`, closes the queue once the consumer has
    /// taken at least `close_after` items, then drains the backlog.  Returns
    /// `(accepted, rejected, popped)` as sorted multisets of `(producer,
    /// seq)` tags.
    fn contention_run(
        producers: usize,
        capacity: usize,
        per_producer: usize,
        close_after: usize,
        mode: Mode,
    ) -> (Tags, Tags, Tags) {
        let q: Arc<ShardQueue<(usize, usize)>> = Arc::new(ShardQueue::new(capacity));
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    produce(&q, (0..per_producer).map(|seq| (p, seq)).collect(), mode)
                })
            })
            .collect();

        // Consumer (this thread): take at least `close_after` items, close
        // mid-drain, then drain whatever backlog was accepted before the
        // close.  `close_after <= total` (the callers clamp), and every
        // pre-close push eventually succeeds, so the blocking pops below
        // cannot wedge.
        let take = |popped: &mut Tags| {
            if mode.pop_all {
                let mut batch = VecDeque::new();
                let more = q.pop_all(&mut batch);
                assert_eq!(more, !batch.is_empty(), "pop_all takes at least one item or ends");
                popped.extend(batch);
                more
            } else {
                q.pop().map(|item| popped.push(item)).is_some()
            }
        };
        let mut popped = Vec::new();
        while popped.len() < close_after {
            assert!(take(&mut popped), "pre-close items must arrive");
        }
        q.close();
        while take(&mut popped) {}
        assert_eq!(q.pop(), None, "a closed drained queue stays ended");
        assert!(!q.pop_all(&mut VecDeque::new()), "and ended for pop_all too");

        let (mut accepted, mut rejected) = (Vec::new(), Vec::new());
        for h in handles {
            let (a, r) = h.join().expect("producer thread must not panic");
            accepted.extend(a);
            rejected.extend(r);
        }
        accepted.sort_unstable();
        rejected.sort_unstable();
        popped.sort_unstable();
        (accepted, rejected, popped)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn concurrent_producers_and_mid_drain_close_lose_nothing(
            producers in 1usize..5,
            capacity in 1usize..5,
            per_producer in 1usize..32,
            close_fraction in 0usize..33,
            chunk in 0usize..7,
            pop_all in any::<bool>(),
        ) {
            let total = producers * per_producer;
            let close_after = (close_fraction * total / 32).min(total);
            let (accepted, rejected, popped) = contention_run(
                producers,
                capacity,
                per_producer,
                close_after,
                Mode { chunk, pop_all },
            );
            // Conservation: every push either reached the consumer or came
            // back to its producer — nothing vanished, nothing duplicated.
            prop_assert_eq!(&popped, &accepted);
            prop_assert_eq!(accepted.len() + rejected.len(), total);
            // The consumer saw at least what it drained before closing.
            prop_assert!(popped.len() >= close_after);
        }
    }

    #[test]
    fn producers_blocked_on_a_full_queue_are_released_by_close() {
        // Deterministic worst case: capacity 1, many producers, immediate
        // close — every producer is parked on the `drained` condvar when the
        // close lands, and all of them must come back with their item.
        for mode in [ONE_BY_ONE, Mode { chunk: 5, pop_all: true }] {
            let (accepted, rejected, popped) = contention_run(4, 1, 16, 0, mode);
            assert_eq!(popped, accepted, "{mode:?}");
            assert_eq!(accepted.len() + rejected.len(), 64, "{mode:?}");
        }
    }
}
