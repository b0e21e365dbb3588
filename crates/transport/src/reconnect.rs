//! Reconnect, retransmission, and per-link health for the socket mesh.
//!
//! PR 6's transport treated a broken socket as permanent: a failed write
//! marked the destination dead and every later frame to it was dropped.
//! That matches the asynchronous model's *crashed* peers but not its
//! *links*, which are merely unreliable — and it made every injected link
//! fault run-fatal.  This module gives each ordered link a small state
//! machine instead:
//!
//! ```text
//!            write error / injected fault              redial + resume
//!   Up ────────────────────────────────────▶ Reconnecting ───────────▶ Up
//!                                                 │ retry budget spent,
//!                                                 │ or the peer is gone
//!                                                 ▼
//!                                               Dead
//! ```
//!
//! While `Reconnecting`, frames **park** in a bounded outbox rather than
//! dying.  The outbox doubles as the retransmission window: entries stay
//! until the receiver's cumulative ack covers them, so on resume the writer
//! replays exactly the suffix the other side reports missing (the resume
//! hello carries each side's `next_expected` sequence).  Sequence numbers
//! make the whole thing exact — the receiver delivers frame `k` only after
//! `k−1`, drops duplicates by number, and treats a gap as a fault of the
//! connection: the sequence number is written by the peer, so a gap drops
//! that connection (as a malformed frame does) and is counted in
//! [`LinkStats::seq_gaps`]; peer input never panics the reader.  An
//! honest mesh never gaps, which is what lets the chaos tests assert
//! *zero lost, zero duplicated* frames across forced cuts, and zero gaps.
//!
//! Locking: all link state sits behind one `Mutex` per link.  The driver
//! (writes), the reader (delivery bookkeeping + acks), and the redialer
//! (resume) each take it briefly; none holds it across a blocking
//! operation *except* the socket write itself, which is bounded by the
//! socket's write timeout (`WRITE_TIMEOUT`) — a wedged receiver turns into
//! a write error and a sever, never a deadlock.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::framing::encode_data_frame;

// Tuning for the redial / retransmission machinery.  The values suit
// loopback chaos tests: backoff starts near the kernel's connect latency and
// caps two orders of magnitude up; the retry budget and death timer are
// generous enough to sit out a configured partition, strict enough that a
// genuinely crashed peer is declared dead well inside a test deadline.

/// First redial delay after a sever.
const INITIAL_BACKOFF: Duration = Duration::from_millis(2);
/// Cap on the exponentially growing redial delay.
const MAX_BACKOFF: Duration = Duration::from_millis(100);
/// Redial attempts before the dialer declares the link `Dead`.  Attempts
/// stalled by a scheduled partition are not counted.
const MAX_REDIALS: u32 = 25;
/// Bound on parked + unacked frames per ordered link.  Overflow kills the
/// link: unbounded parking would just hide a dead peer in the heap.
const OUTBOX_CAPACITY: usize = 8192;
/// The receiver sends a cumulative ack every this many delivered frames
/// (and the writer prunes its outbox on receipt).
const ACK_INTERVAL: u64 = 32;
/// Accept-side death timer: a link that has been `Reconnecting` this long —
/// excluding time covered by a scheduled partition — is declared `Dead` by
/// the acceptor (which cannot dial and would otherwise wait forever).
const DEAD_AFTER: Duration = Duration::from_secs(15);
/// Socket write timeout; a blocked write becomes an error and a sever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// The redial delay after `attempt` failures (0-based): exponential from
/// `INITIAL_BACKOFF`, capped at `MAX_BACKOFF`.
fn backoff(attempt: u32) -> Duration {
    let exp = attempt.min(16); // 2^16 × anything sane exceeds any cap
    INITIAL_BACKOFF.saturating_mul(1u32 << exp).min(MAX_BACKOFF)
}

/// Health of one ordered link, and (aggregated) of one peer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LinkStatus {
    /// Connected; writes go to the socket.
    #[default]
    Up,
    /// Severed; writes park in the outbox while the dialer redials (or the
    /// acceptor waits).
    Reconnecting,
    /// Given up (retry budget spent, peer declared crashed, or outbox
    /// overflow).  Writes are dropped — the asynchronous model's "messages
    /// to a crashed party are lost".
    Dead,
}

/// Per-ordered-link counters, snapshotted into
/// [`PeerStats`](crate::PeerStats) at teardown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Data frames the machine offered to this link (every `dispatch`
    /// destination counts once, whatever then happened to the frame).
    pub offered: u64,
    /// Frames written to a socket, first transmissions and retransmissions
    /// alike.
    pub sent: u64,
    /// Frame bytes written (headers included).
    pub sent_bytes: u64,
    /// Frames replayed from the outbox while resuming a *recovered*
    /// connection (the retransmission path; the run's initial connection
    /// replaying early parked frames is not counted).
    pub retransmitted: u64,
    /// Frames eaten by the fault injector at this writer (probabilistic
    /// drops, cut casualties, partition losses).
    pub drops_injected: u64,
    /// Frames abandoned because the link was `Dead` or the outbox
    /// overflowed.
    pub dropped: u64,
    /// Frames still parked at teardown: offered and accepted into the
    /// sequence space but never yet written to any socket (the link was
    /// down when the run ended).  Written-but-unacked frames are *not*
    /// parked — they are on the wire or already delivered.
    pub parked: u64,
    /// Successful resumes (initial connection not counted).
    pub redials: u64,
    /// Duplicate data frames the *receiving* side of this link discarded
    /// by sequence number.
    pub duplicates: u64,
    /// Data frames the receiving side accepted and delivered in sequence.
    pub delivered: u64,
    /// Data frames the receiving side refused because their sequence number
    /// skipped ahead of the next expected one; each dropped its connection.
    /// Zero on an honest mesh: anything else is a transport bug or a
    /// hostile peer.
    pub seq_gaps: u64,
    /// Time this link spent inside scheduled partition windows.
    pub partitioned_ms: u64,
    /// Health at teardown.
    pub status: LinkStatus,
}

/// A data frame whose sequence number skipped ahead: the resume protocol
/// would have lost frames `expected..got`.  Returned by
/// [`Link::record_delivery`]; the reader drops the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqGap {
    /// The next sequence number the link expected.
    pub expected: u64,
    /// The sequence number the frame carried.
    pub got: u64,
}

/// What [`Link::send`] tells the fault injector it did, so the caller can
/// sever the socket *outside* exotic lock orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Frame written to the socket.
    Written,
    /// Frame parked (link down) or consumed by an injected fault; the
    /// outbox retains it for resume.
    Parked,
    /// Frame abandoned (link `Dead`, or outbox overflow killed the link).
    Dropped,
}

/// The writer-side state of one ordered link (`me → peer`).
pub struct Link {
    inner: Mutex<LinkInner>,
}

struct LinkInner {
    status: LinkStatus,
    /// The current connection's writing half; `None` while down.  The
    /// reader side holds its own clone of the same `Arc`.
    writer: Option<Arc<TcpStream>>,
    /// Bumped on every resume; readers quote it so a stale reader's death
    /// can't sever its successor.
    generation: u64,
    /// Next sequence number to assign (== total frames accepted into the
    /// sequence space).
    next_seq: u64,
    /// Frames written to *some* socket at least once (`seq < written`).
    written: u64,
    /// Frames the peer has cumulatively acked (`seq < acked` are pruned).
    acked: u64,
    /// Unacked + parked frames, in sequence order: `(seq, frame-bytes)`.
    outbox: VecDeque<(u64, Vec<u8>)>,
    /// Receiver side of the *reverse* direction: next data seq expected
    /// from the peer, and frames delivered since the last ack we sent.
    next_expected_in: u64,
    unacked_in: u64,
    /// Redial bookkeeping (dial side) / death timer (accept side).
    redial_attempts: u32,
    down_since: Option<Instant>,
    next_attempt_at: Instant,
    stats: LinkStats,
}

impl Link {
    /// A fresh link in the `Reconnecting` state with an empty sequence
    /// space — the initial connection is just the first "resume".
    pub fn new() -> Self {
        let now = Instant::now();
        Link {
            inner: Mutex::new(LinkInner {
                status: LinkStatus::Reconnecting,
                writer: None,
                generation: 0,
                next_seq: 0,
                written: 0,
                acked: 0,
                outbox: VecDeque::new(),
                next_expected_in: 0,
                unacked_in: 0,
                redial_attempts: 0,
                down_since: Some(now),
                next_attempt_at: now,
                stats: LinkStats { status: LinkStatus::Reconnecting, ..LinkStats::default() },
            }),
        }
    }

    /// Offers one envelope payload to this link.  Assigns the next sequence
    /// number, applies the writer-side fault verdicts the caller computed
    /// for that sequence number (`inject_drop` / `inject_cut`), and either
    /// writes, parks, or drops the frame.
    ///
    /// The caller computes the verdicts *before* calling (they need the
    /// seq, which is `peek_next_seq`) — see `group.rs`; this keeps the
    /// chaos plan out of the link's lock.
    pub fn send(&self, payload: &[u8], inject_drop: bool, inject_cut: bool) -> SendOutcome {
        let mut g = self.inner.lock().unwrap();
        if g.status == LinkStatus::Dead {
            g.stats.offered += 1;
            g.stats.dropped += 1;
            return SendOutcome::Dropped;
        }
        let seq = g.next_seq;
        g.next_seq += 1;
        g.stats.offered += 1;
        if g.outbox.len() >= OUTBOX_CAPACITY {
            // Overflow: the peer has been unreachable long enough to back
            // up a full window.  Declare the link dead and abandon
            // everything parked — bounded memory beats a silent balloon.
            let abandoned = g.outbox.len() as u64 + 1;
            g.outbox.clear();
            g.stats.dropped += abandoned;
            Self::kill(&mut g);
            return SendOutcome::Dropped;
        }
        let frame = encode_data_frame(seq, payload);
        g.outbox.push_back((seq, frame));
        if g.status != LinkStatus::Up {
            return SendOutcome::Parked;
        }
        if inject_drop || inject_cut {
            // The fault injector eats this transmission (and, for a cut,
            // the connection): sever so the redialer resumes and the
            // outbox retransmits.  The frame stays parked — "the network
            // ate that transmission", not the payload forever.
            g.stats.drops_injected += 1;
            Self::sever_locked(&mut g);
            return SendOutcome::Parked;
        }
        // The one blocking operation under the lock — bounded by the
        // stream's write timeout (set at resume), so a wedged peer costs at
        // most `write_timeout` before becoming a sever.
        let stream = g.writer.as_ref().expect("Up link has a writer").clone();
        let len = g.outbox.back().expect("just pushed").1.len() as u64;
        match stream.as_ref().write_all(&g.outbox.back().unwrap().1) {
            Ok(()) => {
                g.written = seq + 1;
                g.stats.sent += 1;
                g.stats.sent_bytes += len;
                SendOutcome::Written
            }
            Err(_) => {
                Self::sever_locked(&mut g);
                SendOutcome::Parked
            }
        }
    }

    /// The sequence number [`send`](Self::send) will assign next — the
    /// caller uses it to pre-compute fault verdicts.
    pub fn peek_next_seq(&self) -> u64 {
        self.inner.lock().unwrap().next_seq
    }

    /// Handles a cumulative ack from the peer: frames `seq < received` are
    /// pruned from the outbox.
    pub fn on_ack(&self, received: u64) {
        let mut g = self.inner.lock().unwrap();
        if received > g.acked {
            g.acked = received;
        }
        while g.outbox.front().is_some_and(|(seq, _)| *seq < received) {
            g.outbox.pop_front();
        }
    }

    /// Installs a fresh connection: prunes everything the peer already has
    /// (`peer_next_expected`), replays the remaining outbox in order, and
    /// marks the link `Up`.  Returns `Err` if a replay write fails (the new
    /// connection died already — the caller severs and retries later).
    ///
    /// The run's *first* connection is just the first resume (generation
    /// 0 → 1); it counts as neither a redial nor a retransmission.
    pub fn resume(&self, stream: Arc<TcpStream>, peer_next_expected: u64) -> std::io::Result<u64> {
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let mut g = self.inner.lock().unwrap();
        if g.status == LinkStatus::Dead {
            // Lost the race against the reaper / retry budget: refuse, the
            // caller closes the socket.
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "link already declared dead",
            ));
        }
        // Whatever the peer has is as good as acked.
        if peer_next_expected > g.acked {
            g.acked = peer_next_expected;
        }
        while g.outbox.front().is_some_and(|(seq, _)| *seq < peer_next_expected) {
            g.outbox.pop_front();
        }
        debug_assert!(
            g.outbox.front().is_none_or(|(seq, _)| *seq == peer_next_expected),
            "retransmit window must start exactly at the peer's resume point"
        );
        // Replay the outbox suffix — everything the peer reports missing.
        let recovered = g.generation > 0;
        let mut replayed = 0u64;
        for idx in 0..g.outbox.len() {
            let len = g.outbox[idx].1.len() as u64;
            if let Err(e) = stream.as_ref().write_all(&g.outbox[idx].1) {
                Self::sever_locked(&mut g);
                return Err(e);
            }
            replayed += 1;
            g.stats.sent += 1;
            g.stats.sent_bytes += len;
        }
        if recovered {
            g.stats.retransmitted += replayed;
            g.stats.redials += 1;
        }
        g.written = g.next_seq;
        g.writer = Some(stream);
        g.generation += 1;
        g.status = LinkStatus::Up;
        g.stats.status = LinkStatus::Up;
        g.redial_attempts = 0;
        g.down_since = None;
        Ok(g.generation)
    }

    /// Receiver-side bookkeeping for an inbound data frame on this link's
    /// reverse direction: returns `(deliver, ack_now)`.
    ///
    /// Duplicates (seq below the expected counter — retransmissions of
    /// frames that *did* arrive) are counted and discarded.  A gap means
    /// the frame cannot be delivered in order; the peer wrote that seq, so
    /// it is a fault of the connection, not of this process: it is counted
    /// ([`LinkStats::seq_gaps`]) and returned, leaving the expected counter
    /// where it was, and the reader drops the connection.
    pub fn record_delivery(&self, seq: u64) -> Result<(bool, bool), SeqGap> {
        let mut g = self.inner.lock().unwrap();
        if seq < g.next_expected_in {
            g.stats.duplicates += 1;
            return Ok((false, false));
        }
        if seq != g.next_expected_in {
            g.stats.seq_gaps += 1;
            return Err(SeqGap { expected: g.next_expected_in, got: seq });
        }
        g.next_expected_in += 1;
        g.unacked_in += 1;
        g.stats.delivered += 1;
        let ack_now = g.unacked_in >= ACK_INTERVAL;
        if ack_now {
            g.unacked_in = 0;
        }
        Ok((true, ack_now))
    }

    /// The next inbound sequence number this side expects — quoted in the
    /// resume handshake so the peer knows where to restart.
    pub fn next_expected_in(&self) -> u64 {
        self.inner.lock().unwrap().next_expected_in
    }

    /// Writes a cumulative ack for the reverse direction on the current
    /// connection (best-effort: a failed ack is just a sever; the resume
    /// handshake re-synchronises).  Written under the link lock so acks
    /// never interleave bytes with the driver's data frames.
    pub fn send_ack(&self, frame: &[u8]) {
        let mut g = self.inner.lock().unwrap();
        let Some(stream) = (g.status == LinkStatus::Up).then(|| g.writer.clone()).flatten()
        else {
            return;
        };
        if stream.as_ref().write_all(frame).is_err() {
            Self::sever_locked(&mut g);
        }
    }

    /// Severs the current connection (if up): shuts the socket down and
    /// enters `Reconnecting`.  Safe to call from any thread, any state.
    pub fn sever(&self) {
        let mut g = self.inner.lock().unwrap();
        if g.status == LinkStatus::Up {
            Self::sever_locked(&mut g);
        }
    }

    /// Like [`sever`](Self::sever), but only if the reader quoting
    /// `generation` is still current — a reader that died *because* a
    /// resume replaced its connection must not kill the replacement.
    pub fn sever_generation(&self, generation: u64) {
        let mut g = self.inner.lock().unwrap();
        if g.status == LinkStatus::Up && g.generation == generation {
            Self::sever_locked(&mut g);
        }
    }

    /// Declares the link permanently dead (retry budget spent, reaper
    /// fired, or the peer's crash was announced).  Parked frames become
    /// `dropped`.
    pub fn give_up(&self) {
        let mut g = self.inner.lock().unwrap();
        if g.status != LinkStatus::Dead {
            let abandoned = g.outbox.len() as u64;
            g.outbox.clear();
            g.stats.dropped += abandoned;
            Self::kill(&mut g);
        }
    }

    /// Dial-side poll: is a redial due now?  Returns the attempt number to
    /// use, or `None` (link not down, not yet time, or budget exhausted —
    /// in which case this call *performs* the give-up).  `stalled` marks a
    /// scheduled partition covering this link: the attempt clock pauses
    /// and the budget is not charged.
    pub fn redial_due(&self, now: Instant, stalled: bool) -> Option<u32> {
        let mut g = self.inner.lock().unwrap();
        if g.status != LinkStatus::Reconnecting {
            return None;
        }
        if stalled {
            // Don't burn budget against a fault we *scheduled*; try again
            // promptly once the partition heals.
            g.next_attempt_at = now;
            g.down_since = Some(now);
            return None;
        }
        if now < g.next_attempt_at {
            return None;
        }
        if g.redial_attempts >= MAX_REDIALS {
            let abandoned = g.outbox.len() as u64;
            g.outbox.clear();
            g.stats.dropped += abandoned;
            Self::kill(&mut g);
            return None;
        }
        let attempt = g.redial_attempts;
        g.redial_attempts += 1;
        g.next_attempt_at = now + backoff(attempt);
        Some(attempt)
    }

    /// Accept-side poll: has this link been down long enough — partition
    /// time excluded — to declare the peer gone?  Performs the give-up and
    /// reports `true` if so.
    pub fn reap_if_expired(&self, now: Instant, stalled: bool) -> bool {
        let mut g = self.inner.lock().unwrap();
        if g.status != LinkStatus::Reconnecting {
            return false;
        }
        if stalled {
            g.down_since = Some(now);
            return false;
        }
        let expired = g.down_since.is_some_and(|t| now.duration_since(t) >= DEAD_AFTER);
        if expired {
            let abandoned = g.outbox.len() as u64;
            g.outbox.clear();
            g.stats.dropped += abandoned;
            Self::kill(&mut g);
        }
        expired
    }

    /// Current health.
    pub fn status(&self) -> LinkStatus {
        self.inner.lock().unwrap().status
    }

    /// Final counters.  Taken at teardown, after the drivers have exited,
    /// so the outbox is quiescent; `parked` counts only the never-written
    /// suffix (`seq >= written`).
    pub fn snapshot(&self) -> LinkStats {
        let g = self.inner.lock().unwrap();
        let mut stats = g.stats;
        stats.parked = g.outbox.iter().filter(|(seq, _)| *seq >= g.written).count() as u64;
        stats.status = g.status;
        stats
    }

    fn sever_locked(g: &mut MutexGuard<'_, LinkInner>) {
        if let Some(stream) = g.writer.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        g.status = LinkStatus::Reconnecting;
        g.stats.status = LinkStatus::Reconnecting;
        g.down_since = Some(Instant::now());
        g.next_attempt_at = Instant::now();
    }

    fn kill(g: &mut MutexGuard<'_, LinkInner>) {
        if let Some(stream) = g.writer.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        g.status = LinkStatus::Dead;
        g.stats.status = LinkStatus::Dead;
    }
}

impl Default for Link {
    fn default() -> Self {
        Link::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        assert_eq!(backoff(0), Duration::from_millis(2));
        assert_eq!(backoff(1), Duration::from_millis(4));
        assert_eq!(backoff(4), Duration::from_millis(32));
        assert_eq!(backoff(6), MAX_BACKOFF);
        assert_eq!(backoff(30), MAX_BACKOFF, "large attempts stay capped, no overflow");
    }

    #[test]
    fn a_down_link_parks_and_a_dead_link_drops() {
        let link = Link::new(); // starts Reconnecting, no writer
        assert_eq!(link.send(b"x", false, false), SendOutcome::Parked);
        assert_eq!(link.send(b"y", false, false), SendOutcome::Parked);
        link.give_up();
        assert_eq!(link.send(b"z", false, false), SendOutcome::Dropped);
        let stats = link.snapshot();
        assert_eq!(stats.offered, 3);
        assert_eq!(stats.dropped, 3, "give_up abandons the 2 parked + 1 post-death drop");
        assert_eq!(stats.parked, 0);
        assert_eq!(stats.status, LinkStatus::Dead);
    }

    #[test]
    fn outbox_overflow_kills_the_link_with_conservation_intact() {
        let link = Link::new();
        for _ in 0..OUTBOX_CAPACITY {
            assert_eq!(link.send(b"p", false, false), SendOutcome::Parked);
        }
        assert_eq!(link.send(b"overflow", false, false), SendOutcome::Dropped);
        let stats = link.snapshot();
        assert_eq!(stats.status, LinkStatus::Dead);
        assert_eq!(stats.offered, OUTBOX_CAPACITY as u64 + 1);
        assert_eq!(
            stats.dropped,
            OUTBOX_CAPACITY as u64 + 1,
            "all parked frames abandoned with the overflowing one"
        );
    }

    #[test]
    fn delivery_sequencing_discards_duplicates_and_batches_acks() {
        let link = Link::new();
        assert_eq!(link.record_delivery(0), Ok((true, false)));
        assert_eq!(link.record_delivery(1), Ok((true, false)));
        assert_eq!(link.record_delivery(0), Ok((false, false)), "retransmit discarded");
        assert_eq!(link.record_delivery(1), Ok((false, false)));
        for seq in 2..ACK_INTERVAL - 1 {
            assert_eq!(link.record_delivery(seq), Ok((true, false)));
        }
        assert_eq!(
            link.record_delivery(ACK_INTERVAL - 1),
            Ok((true, true)),
            "ack every ACK_INTERVAL deliveries"
        );
        assert_eq!(link.next_expected_in(), ACK_INTERVAL);
        let stats = link.snapshot();
        assert_eq!(stats.delivered, ACK_INTERVAL);
        assert_eq!(stats.duplicates, 2);
    }

    #[test]
    fn a_sequence_gap_is_a_counted_fault_not_a_silent_loss() {
        let link = Link::new();
        assert_eq!(link.record_delivery(0), Ok((true, false)));
        // A peer skipping seq 1 is refused, and the expected counter stays
        // put: the resumed connection must still deliver seq 1 first.
        assert_eq!(link.record_delivery(2), Err(SeqGap { expected: 1, got: 2 }));
        assert_eq!(link.next_expected_in(), 1);
        let far = link.record_delivery(u64::MAX);
        assert_eq!(far, Err(SeqGap { expected: 1, got: u64::MAX }));
        assert_eq!(link.record_delivery(1), Ok((true, false)));
        let stats = link.snapshot();
        assert_eq!(stats.seq_gaps, 2);
        assert_eq!(stats.delivered, 2);
    }

    #[test]
    fn redial_schedule_respects_backoff_budget_and_partitions() {
        let link = Link::new();
        let t0 = Instant::now();
        assert_eq!(link.redial_due(t0, false), Some(0));
        assert_eq!(link.redial_due(t0, false), None, "backoff holds the next attempt");
        assert_eq!(link.redial_due(t0 + INITIAL_BACKOFF, false), Some(1));
        // A partition stall neither attempts nor charges budget.
        assert_eq!(link.redial_due(t0 + Duration::from_secs(1), true), None);
        assert_eq!(link.redial_due(t0 + Duration::from_secs(1), false), Some(2));
        for attempt in 3..MAX_REDIALS {
            let now = t0 + Duration::from_secs(u64::from(attempt));
            assert_eq!(link.redial_due(now, false), Some(attempt));
        }
        // Budget spent: the next due poll performs the give-up.
        let spent = t0 + Duration::from_secs(u64::from(MAX_REDIALS) + 1);
        assert_eq!(link.redial_due(spent, false), None);
        assert_eq!(link.status(), LinkStatus::Dead);
    }

    #[test]
    fn the_reaper_excludes_partition_time() {
        let link = Link::new();
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        assert!(!link.reap_if_expired(t0 + ms(10), false));
        // A stall resets the death clock to `now`.
        let stall = t0 + DEAD_AFTER + ms(10);
        assert!(!link.reap_if_expired(stall, true));
        assert!(!link.reap_if_expired(stall + DEAD_AFTER - ms(10), false));
        assert!(link.reap_if_expired(stall + DEAD_AFTER + ms(5), false));
        assert_eq!(link.status(), LinkStatus::Dead);
    }

    #[test]
    fn acks_prune_the_outbox() {
        let link = Link::new();
        for _ in 0..5 {
            link.send(b"m", false, false);
        }
        link.on_ack(3);
        let stats = link.snapshot();
        assert_eq!(stats.parked, 2, "acked frames leave the retransmission window");
    }
}
