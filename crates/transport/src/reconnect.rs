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
//! Sending is two steps.  [`Link::offer`] assigns the sequence number,
//! parks the frame in the outbox and applies the fault plan's verdicts; it
//! does no I/O.  [`Link::flush`] writes every frame offered since the last
//! flush, plus the cumulative ack the reverse direction has due, in one
//! socket write.  The driver offers a whole batch of handled messages
//! before it flushes, so one write carries many frames.
//!
//! Locking: all link state sits behind one `Mutex` per link.  The driver
//! (offers and flushes), the reader (delivery bookkeeping, acks received)
//! and the redialer (resume) each take it briefly.  A flush copies its
//! frames out under the lock and writes them after releasing it, so a
//! peer that stops reading stalls only that write, never this side's
//! reader, which needs the lock for every frame it accepts.  The write is
//! bounded by the socket's write timeout (`WRITE_TIMEOUT`): a wedged
//! receiver turns into a write error and a sever.  The one write made
//! under the lock is a resume's replay, onto a connection no other thread
//! can write to yet.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::framing::{encode_ack_frame, encode_data_frame};

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
    /// Socket writes that carried data frames (a flush or a resume replay
    /// writes all of its frames at once).
    pub writes: u64,
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

/// What [`Link::offer`] did with a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferOutcome {
    /// Frame queued on an up link; the next [`Link::flush`] writes it.
    Queued,
    /// Frame parked (link down) or consumed by an injected fault; the
    /// outbox retains it for resume.
    Parked,
    /// Frame abandoned (link `Dead`, or outbox overflow killed the link).
    Dropped,
}

/// Raised whenever a link leaves `Up`.  The mesh's accept and redial
/// threads sleep on it while every link they serve is up.  It is an
/// eventcount: a waiter reads [`count`](Self::count), checks its links,
/// and then [`wait_past`](Self::wait_past)s that count, so a link that goes
/// down between the check and the wait is never missed.
#[derive(Debug, Default)]
pub(crate) struct DownSignal {
    count: Mutex<u64>,
    raised: Condvar,
}

impl DownSignal {
    /// How often the signal has been raised.
    pub(crate) fn count(&self) -> u64 {
        *self.count.lock().expect("down signal lock poisoned")
    }

    /// Wakes every waiter.
    pub(crate) fn raise(&self) {
        *self.count.lock().expect("down signal lock poisoned") += 1;
        self.raised.notify_all();
    }

    /// Blocks until the signal has been raised past `seen`.
    pub(crate) fn wait_past(&self, seen: u64) {
        let count = self.count.lock().expect("down signal lock poisoned");
        drop(self.raised.wait_while(count, |count| *count == seen));
    }
}

/// The writer-side state of one ordered link (`me → peer`).
pub struct Link {
    inner: Mutex<LinkInner>,
    /// Raised on every transition out of `Up`.
    down: Arc<DownSignal>,
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
    /// Frames offered before the latest flush (`seq < released`).  A resume
    /// replays only these; the rest wait for the driver's next flush, so
    /// each batch still leaves in one write.
    released: u64,
    /// Frames the peer has cumulatively acked (`seq < acked` are pruned).
    acked: u64,
    /// Unacked + parked frames, in sequence order: `(seq, frame-bytes)`.
    outbox: VecDeque<(u64, Vec<u8>)>,
    /// Receiver side of the *reverse* direction: next data seq expected
    /// from the peer, and frames delivered since the last ack we sent.
    next_expected_in: u64,
    unacked_in: u64,
    /// A cumulative ack is owed to the peer; the next flush carries it.
    ack_due: bool,
    /// Redial bookkeeping (dial side) / death timer (accept side).
    redial_attempts: u32,
    down_since: Option<Instant>,
    next_attempt_at: Instant,
    stats: LinkStats,
}

impl Link {
    /// A fresh link in the `Reconnecting` state with an empty sequence
    /// space — the initial connection is just the first "resume".  `down`
    /// is raised whenever the link leaves `Up`.
    pub(crate) fn new(down: Arc<DownSignal>) -> Self {
        let now = Instant::now();
        Link {
            inner: Mutex::new(LinkInner {
                status: LinkStatus::Reconnecting,
                writer: None,
                generation: 0,
                next_seq: 0,
                written: 0,
                released: 0,
                acked: 0,
                outbox: VecDeque::new(),
                next_expected_in: 0,
                unacked_in: 0,
                ack_due: false,
                redial_attempts: 0,
                down_since: Some(now),
                next_attempt_at: now,
                stats: LinkStats { status: LinkStatus::Reconnecting, ..LinkStats::default() },
            }),
            down,
        }
    }

    /// Offers one envelope payload to this link.  Assigns the next sequence
    /// number, applies the writer-side fault verdicts the caller computed
    /// for that sequence number (`inject_drop` / `inject_cut`), and queues,
    /// parks, or drops the frame.  No I/O: a queued frame goes out with the
    /// next [`flush`](Self::flush).
    ///
    /// The caller computes the verdicts *before* calling (they need the
    /// seq, which is `peek_next_seq`) — see `group.rs`; this keeps the
    /// chaos plan out of the link's lock.
    pub fn offer(&self, payload: &[u8], inject_drop: bool, inject_cut: bool) -> OfferOutcome {
        let mut guard = self.inner.lock().expect("link lock poisoned");
        let g = &mut *guard;
        if g.status == LinkStatus::Dead {
            g.stats.offered += 1;
            g.stats.dropped += 1;
            return OfferOutcome::Dropped;
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
            self.kill(g);
            return OfferOutcome::Dropped;
        }
        g.outbox.push_back((seq, encode_data_frame(seq, payload)));
        if g.status != LinkStatus::Up {
            return OfferOutcome::Parked;
        }
        if inject_drop || inject_cut {
            // The fault injector eats this transmission (and, for a cut,
            // the connection): sever so the redialer resumes and the
            // outbox retransmits.  The frame stays parked — "the network
            // ate that transmission", not the payload forever.
            g.stats.drops_injected += 1;
            self.sever_locked(g);
            return OfferOutcome::Parked;
        }
        OfferOutcome::Queued
    }

    /// Writes every frame offered since the last flush, and the reverse
    /// direction's due ack, to the current connection in one socket write.
    /// `buf` is a buffer the caller reuses between flushes.
    ///
    /// The frames are copied into `buf` under the link lock and written
    /// after it is released (see the module's Locking note).  A write that
    /// fails severs the connection it was made on, unless a resume has
    /// already replaced it.  On a link that is not up nothing is written:
    /// the frames stay parked and the next resume replays them.
    pub fn flush(&self, buf: &mut Vec<u8>) {
        buf.clear();
        let (stream, generation, end, frames, data_bytes) = {
            let mut guard = self.inner.lock().expect("link lock poisoned");
            let g = &mut *guard;
            g.released = g.next_seq;
            if g.status != LinkStatus::Up {
                return;
            }
            let first = g.outbox.partition_point(|(seq, _)| *seq < g.written);
            for (_, frame) in g.outbox.range(first..) {
                buf.extend_from_slice(frame);
            }
            let data_bytes = buf.len() as u64;
            if std::mem::take(&mut g.ack_due) {
                buf.extend_from_slice(&encode_ack_frame(g.next_expected_in));
            }
            if buf.is_empty() {
                return;
            }
            let stream = g.writer.clone().expect("Up link has a writer");
            (stream, g.generation, g.next_seq, (g.outbox.len() - first) as u64, data_bytes)
        };
        let result = stream.as_ref().write_all(buf);
        let mut guard = self.inner.lock().expect("link lock poisoned");
        let g = &mut *guard;
        match result {
            Ok(()) => {
                if frames > 0 {
                    g.stats.sent += frames;
                    g.stats.sent_bytes += data_bytes;
                    g.stats.writes += 1;
                }
                if g.generation == generation {
                    g.written = end;
                }
            }
            Err(_) => {
                if g.status == LinkStatus::Up && g.generation == generation {
                    self.sever_locked(g);
                }
            }
        }
    }

    /// The sequence number [`offer`](Self::offer) will assign next — the
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
    /// (`peer_next_expected`), replays the rest of what was flushed in one
    /// write, and marks the link `Up`.  Frames offered since the last flush
    /// are left to the next one.  Returns `Err` if the replay write fails
    /// (the new connection died already — the caller severs and retries
    /// later).
    ///
    /// The run's *first* connection is just the first resume (generation
    /// 0 → 1); it counts as neither a redial nor a retransmission.
    pub fn resume(&self, stream: Arc<TcpStream>, peer_next_expected: u64) -> std::io::Result<u64> {
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let mut guard = self.inner.lock().expect("link lock poisoned");
        let g = &mut *guard;
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
        // Replay the flushed outbox suffix — everything the peer reports
        // missing — in one write.
        let recovered = g.generation > 0;
        let mut replay = Vec::new();
        let mut replayed = 0u64;
        for (_, frame) in g.outbox.iter().take_while(|(seq, _)| *seq < g.released) {
            replay.extend_from_slice(frame);
            replayed += 1;
        }
        if replayed > 0 {
            if let Err(e) = stream.as_ref().write_all(&replay) {
                self.sever_locked(g);
                return Err(e);
            }
            g.stats.sent += replayed;
            g.stats.sent_bytes += replay.len() as u64;
            g.stats.writes += 1;
        }
        if recovered {
            g.stats.retransmitted += replayed;
            g.stats.redials += 1;
        }
        g.written = g.released;
        g.writer = Some(stream);
        g.generation += 1;
        g.status = LinkStatus::Up;
        g.stats.status = LinkStatus::Up;
        g.redial_attempts = 0;
        g.down_since = None;
        Ok(g.generation)
    }

    /// Receiver-side bookkeeping for an inbound data frame on this link's
    /// reverse direction: returns whether to deliver it.  Every
    /// `ACK_INTERVAL`-th delivery makes a cumulative ack due, which the
    /// next [`flush`](Self::flush) carries.
    ///
    /// Duplicates (seq below the expected counter — retransmissions of
    /// frames that *did* arrive) are counted and discarded.  A gap means
    /// the frame cannot be delivered in order; the peer wrote that seq, so
    /// it is a fault of the connection, not of this process: it is counted
    /// ([`LinkStats::seq_gaps`]) and returned, leaving the expected counter
    /// where it was, and the reader drops the connection.
    pub fn record_delivery(&self, seq: u64) -> Result<bool, SeqGap> {
        let mut g = self.inner.lock().unwrap();
        if seq < g.next_expected_in {
            g.stats.duplicates += 1;
            return Ok(false);
        }
        if seq != g.next_expected_in {
            g.stats.seq_gaps += 1;
            return Err(SeqGap { expected: g.next_expected_in, got: seq });
        }
        g.next_expected_in += 1;
        g.unacked_in += 1;
        g.stats.delivered += 1;
        if g.unacked_in >= ACK_INTERVAL {
            g.unacked_in = 0;
            g.ack_due = true;
        }
        Ok(true)
    }

    /// The next inbound sequence number this side expects — quoted in the
    /// resume handshake so the peer knows where to restart.
    pub fn next_expected_in(&self) -> u64 {
        self.inner.lock().unwrap().next_expected_in
    }

    /// Severs the current connection (if up): shuts the socket down and
    /// enters `Reconnecting`.  Safe to call from any thread, any state.
    pub fn sever(&self) {
        let mut g = self.inner.lock().unwrap();
        if g.status == LinkStatus::Up {
            self.sever_locked(&mut g);
        }
    }

    /// Like [`sever`](Self::sever), but only if the reader quoting
    /// `generation` is still current — a reader that died *because* a
    /// resume replaced its connection must not kill the replacement.
    pub fn sever_generation(&self, generation: u64) {
        let mut g = self.inner.lock().unwrap();
        if g.status == LinkStatus::Up && g.generation == generation {
            self.sever_locked(&mut g);
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
            self.kill(&mut g);
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
            self.kill(&mut g);
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
            self.kill(&mut g);
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

    fn sever_locked(&self, g: &mut LinkInner) {
        if let Some(stream) = g.writer.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        g.status = LinkStatus::Reconnecting;
        g.stats.status = LinkStatus::Reconnecting;
        g.down_since = Some(Instant::now());
        g.next_attempt_at = Instant::now();
        self.down.raise();
    }

    fn kill(&self, g: &mut LinkInner) {
        if let Some(stream) = g.writer.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        g.status = LinkStatus::Dead;
        g.stats.status = LinkStatus::Dead;
        self.down.raise();
    }
}

impl Default for Link {
    fn default() -> Self {
        Link::new(Arc::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::{encode_envelope, read_frame, Frame};
    use setupfree_net::{Envelope, InstancePath};
    use std::net::TcpListener;

    /// `link` resumed (as the run's first connection) over a fresh loopback
    /// connection; returns the far end, which reads what the link writes.
    fn connect(link: &Link) -> TcpStream {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (far, _) = listener.accept().unwrap();
        assert_eq!(link.resume(Arc::new(near), 0).unwrap(), 1);
        far
    }

    fn payload(k: u64) -> Vec<u8> {
        encode_envelope(&Envelope::seal(InstancePath::root(), &k))
    }

    /// Severs `link` (so the far end sees EOF) and returns every frame the
    /// far end received, as `(seq, k)` for data and `(u64::MAX, received)`
    /// for acks.
    fn frames_at(far: TcpStream, link: &Link) -> Vec<(u64, u64)> {
        link.sever();
        let mut r = std::io::BufReader::new(far);
        let mut frames = Vec::new();
        while let Some(frame) = read_frame(&mut r).unwrap() {
            frames.push(match frame {
                Frame::Data { seq, env } => (seq, env.open::<u64>().unwrap()),
                Frame::Ack { received } => (u64::MAX, received),
            });
        }
        frames
    }

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
        let link = Link::default(); // starts Reconnecting, no writer
        assert_eq!(link.offer(b"x", false, false), OfferOutcome::Parked);
        assert_eq!(link.offer(b"y", false, false), OfferOutcome::Parked);
        link.flush(&mut Vec::new()); // down: nothing to write to
        link.give_up();
        assert_eq!(link.offer(b"z", false, false), OfferOutcome::Dropped);
        let stats = link.snapshot();
        assert_eq!(stats.offered, 3);
        assert_eq!(stats.dropped, 3, "give_up abandons the 2 parked + 1 post-death drop");
        assert_eq!(stats.parked, 0);
        assert_eq!(stats.status, LinkStatus::Dead);
    }

    #[test]
    fn outbox_overflow_kills_the_link_with_conservation_intact() {
        let link = Link::default();
        for _ in 0..OUTBOX_CAPACITY {
            assert_eq!(link.offer(b"p", false, false), OfferOutcome::Parked);
        }
        assert_eq!(link.offer(b"overflow", false, false), OfferOutcome::Dropped);
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
        let link = Link::default();
        let far = connect(&link);
        let mut buf = Vec::new();
        // Every delivery is followed by a flush, which writes an ack only
        // when one is due.
        let mut deliver = |seq| {
            let verdict = link.record_delivery(seq);
            link.flush(&mut buf);
            verdict
        };
        assert_eq!(deliver(0), Ok(true));
        assert_eq!(deliver(1), Ok(true));
        assert_eq!(deliver(0), Ok(false), "retransmit discarded");
        assert_eq!(deliver(1), Ok(false));
        for seq in 2..ACK_INTERVAL - 1 {
            assert_eq!(deliver(seq), Ok(true));
        }
        assert_eq!(deliver(ACK_INTERVAL - 1), Ok(true));
        assert_eq!(
            frames_at(far, &link),
            vec![(u64::MAX, ACK_INTERVAL)],
            "ack every ACK_INTERVAL deliveries"
        );
        assert_eq!(link.next_expected_in(), ACK_INTERVAL);
        let stats = link.snapshot();
        assert_eq!(stats.delivered, ACK_INTERVAL);
        assert_eq!(stats.duplicates, 2);
        assert_eq!(stats.writes, 0, "an ack alone is not a data write");
    }

    #[test]
    fn a_sequence_gap_is_a_counted_fault_not_a_silent_loss() {
        let link = Link::default();
        assert_eq!(link.record_delivery(0), Ok(true));
        // A peer skipping seq 1 is refused, and the expected counter stays
        // put: the resumed connection must still deliver seq 1 first.
        assert_eq!(link.record_delivery(2), Err(SeqGap { expected: 1, got: 2 }));
        assert_eq!(link.next_expected_in(), 1);
        let far = link.record_delivery(u64::MAX);
        assert_eq!(far, Err(SeqGap { expected: 1, got: u64::MAX }));
        assert_eq!(link.record_delivery(1), Ok(true));
        let stats = link.snapshot();
        assert_eq!(stats.seq_gaps, 2);
        assert_eq!(stats.delivered, 2);
    }

    #[test]
    fn redial_schedule_respects_backoff_budget_and_partitions() {
        let link = Link::default();
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
        let link = Link::default();
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
        let link = Link::default();
        for _ in 0..5 {
            link.offer(b"m", false, false);
        }
        link.on_ack(3);
        let stats = link.snapshot();
        assert_eq!(stats.parked, 2, "acked frames leave the retransmission window");
    }

    #[test]
    fn a_flush_writes_every_offered_frame_and_the_due_ack_in_one_write() {
        let link = Link::default();
        let far = connect(&link);
        for k in 0..3 {
            assert_eq!(link.offer(&payload(k), false, false), OfferOutcome::Queued);
        }
        assert_eq!(link.snapshot().parked, 3, "offered, not yet written");
        for seq in 0..ACK_INTERVAL {
            assert_eq!(link.record_delivery(seq), Ok(true));
        }
        let mut buf = Vec::new();
        link.flush(&mut buf);
        link.flush(&mut buf); // nothing new: no write
        let stats = link.snapshot();
        assert_eq!((stats.sent, stats.writes, stats.parked), (3, 1, 0));
        assert_eq!(
            frames_at(far, &link),
            vec![(0, 0), (1, 1), (2, 2), (u64::MAX, ACK_INTERVAL)],
            "the frames in sequence, then the ack"
        );
    }

    #[test]
    fn a_resume_replays_what_was_flushed_and_the_next_flush_sends_the_rest() {
        let link = Link::default();
        let mut buf = Vec::new();
        for k in 0..2 {
            assert_eq!(link.offer(&payload(k), false, false), OfferOutcome::Parked);
        }
        link.flush(&mut buf); // down: the two stay parked for the resume
        assert_eq!(link.offer(&payload(2), false, false), OfferOutcome::Parked);
        let far = connect(&link);
        assert_eq!(link.snapshot().writes, 1, "the resume replays both flushed frames at once");
        assert_eq!(link.snapshot().parked, 1, "the unflushed frame waits for the driver");
        link.flush(&mut buf);
        let stats = link.snapshot();
        assert_eq!((stats.sent, stats.writes, stats.parked, stats.retransmitted), (3, 2, 0, 0));
        assert_eq!(frames_at(far, &link), vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn an_injected_fault_parks_the_frame_and_severs_at_offer_time() {
        let link = Link::default();
        let _far = connect(&link);
        let down = link.down.count();
        assert_eq!(link.offer(&payload(0), false, true), OfferOutcome::Parked);
        assert_eq!(link.status(), LinkStatus::Reconnecting);
        assert_eq!(link.down.count(), down + 1, "leaving Up raises the down signal");
        link.flush(&mut Vec::new());
        let stats = link.snapshot();
        assert_eq!((stats.drops_injected, stats.sent, stats.parked), (1, 0, 1));
    }
}
