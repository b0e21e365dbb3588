//! The typed event model: paths, phases, and trace events.

use std::fmt;

/// Maximum path depth mirrored from the mux (`MAX_PATH_SEGMENTS`).
pub const MAX_SEGMENTS: usize = 8;

/// Bytes of one `(kind, index)` segment: kind `u8` + index `u16` LE.
const SEG_BYTES: usize = 3;

/// A compact mirror of the mux's `InstancePath`: up to `MAX_SEGMENTS`
/// `(kind: u8, index: u16)` segments, outermost first, stored inline.
///
/// `obs` keeps its own copy of the representation (rather than depending on
/// `setupfree-net`) so the dependency points the right way: the net crate —
/// and every protocol crate above it — emits *into* obs.  The byte layout is
/// identical to `InstancePath::as_bytes`, so a path crosses the boundary
/// with a plain [`ObsPath::from_bytes`]; a property test beside
/// `InstancePath` (`prop_obs_path_mirrors_the_instance_path`) pins the
/// copy.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObsPath {
    len: u8,
    buf: [u8; MAX_SEGMENTS * SEG_BYTES],
}

impl ObsPath {
    /// The empty path (a top-level instance).
    pub const ROOT: ObsPath = ObsPath { len: 0, buf: [0; MAX_SEGMENTS * SEG_BYTES] };

    /// Builds a path from mux path bytes (3-byte segments, outermost first).
    /// Trailing bytes beyond `MAX_SEGMENTS` segments are ignored.
    pub fn from_bytes(bytes: &[u8]) -> ObsPath {
        let mut p = ObsPath::ROOT;
        let take = bytes.len().min(MAX_SEGMENTS * SEG_BYTES);
        let take = take - take % SEG_BYTES;
        p.buf[..take].copy_from_slice(&bytes[..take]);
        p.len = take as u8;
        p
    }

    /// Builds a path from `(kind, index)` segments, outermost first.
    pub fn from_segments(segs: &[(u8, u16)]) -> ObsPath {
        let mut p = ObsPath::ROOT;
        for &(kind, index) in segs {
            p.push_back(kind, index);
        }
        p
    }

    /// The raw segment bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }

    /// Number of segments.
    pub fn depth(&self) -> usize {
        self.len as usize / SEG_BYTES
    }

    /// `true` for the empty (top-level) path.
    pub fn is_root(&self) -> bool {
        self.len == 0
    }

    /// Appends a segment at the *innermost* end (used by the ambient path
    /// stack as routing descends into children).
    pub fn push_back(&mut self, kind: u8, index: u16) {
        let at = self.len as usize;
        assert!(at + SEG_BYTES <= self.buf.len(), "ObsPath deeper than MAX_SEGMENTS");
        self.buf[at] = kind;
        self.buf[at + 1..at + SEG_BYTES].copy_from_slice(&index.to_le_bytes());
        self.len += SEG_BYTES as u8;
    }

    /// Removes the innermost segment (no-op on the root).
    pub fn pop_back(&mut self) {
        let new_len = self.len.saturating_sub(SEG_BYTES as u8);
        // Zero the dropped tail: derived equality/ordering/hash compare the
        // whole buffer, so the representation must stay canonical.
        self.buf[new_len as usize..self.len as usize].fill(0);
        self.len = new_len;
    }

    /// The `(kind, index)` segments, outermost first.
    pub fn segments(&self) -> impl Iterator<Item = (u8, u16)> + '_ {
        self.as_bytes()
            .chunks_exact(SEG_BYTES)
            .map(|c| (c[0], u16::from_le_bytes([c[1], c[2]])))
    }

    /// The first `depth` segments (the whole path if shorter).
    pub fn prefix(&self, depth: usize) -> ObsPath {
        let keep = (depth * SEG_BYTES).min(self.len as usize);
        let mut p = ObsPath::ROOT;
        p.buf[..keep].copy_from_slice(&self.buf[..keep]);
        p.len = keep as u8;
        p
    }

    /// `true` when `prefix` is a (non-strict) prefix of this path.
    pub fn starts_with(&self, prefix: &ObsPath) -> bool {
        self.as_bytes().starts_with(prefix.as_bytes())
    }

    /// The immediate parent path (`None` for the root).
    pub fn parent(&self) -> Option<ObsPath> {
        if self.is_root() {
            return None;
        }
        let mut p = *self;
        p.pop_back();
        Some(p)
    }
}

impl fmt::Display for ObsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, "/");
        }
        for (kind, index) in self.segments() {
            write!(f, "/{kind}:{index}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for ObsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A protocol phase transition marker.
///
/// The `info` word on the carrying [`EventKind::Phase`] event holds the
/// phase's natural coordinate: the ABA round number, the VBA view, the
/// beacon epoch, or the decided/estimated bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// AVSS: this party's share output became available.
    AvssShare,
    /// AVSS: the dealer's cipher payload was accepted.
    AvssCipher,
    /// WCS: the commit certificate was accepted.
    WcsCommit,
    /// Coin seeding: the shared seed is established (`info` = leader/party).
    CoinSeeded,
    /// Coin: the coin value was revealed (`info` = bit).
    CoinRevealed,
    /// ABA: a round started (`info` = round).
    AbaRound,
    /// ABA: the estimate was set or adopted (`info` = bit).
    AbaEst,
    /// ABA: the Aux vote was broadcast (`info` = bit).
    AbaAux,
    /// ABA: this party decided (`info` = bit).
    AbaDecide,
    /// VBA: a view started (`info` = view).
    VbaView,
    /// Beacon: an epoch started (`info` = epoch).
    BeaconEpoch,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 11] = [
        Phase::CoinSeeded,
        Phase::AvssShare,
        Phase::AvssCipher,
        Phase::WcsCommit,
        Phase::CoinRevealed,
        Phase::AbaRound,
        Phase::AbaEst,
        Phase::AbaAux,
        Phase::AbaDecide,
        Phase::VbaView,
        Phase::BeaconEpoch,
    ];

    /// Stable lower-case name (report keys).
    pub fn name(&self) -> &'static str {
        match self {
            Phase::AvssShare => "avss_share",
            Phase::AvssCipher => "avss_cipher",
            Phase::WcsCommit => "wcs_commit",
            Phase::CoinSeeded => "coin_seeded",
            Phase::CoinRevealed => "coin_revealed",
            Phase::AbaRound => "aba_round",
            Phase::AbaEst => "aba_est",
            Phase::AbaAux => "aba_aux",
            Phase::AbaDecide => "aba_decide",
            Phase::VbaView => "vba_view",
            Phase::BeaconEpoch => "beacon_epoch",
        }
    }
}

/// Why a transport link went down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkDownReason {
    /// A chaos plan severed the connection.
    Cut,
    /// A socket error (or EOF) closed it.
    Error,
}

/// A fault the chaos plan injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The frame was dropped at the writer.
    Drop,
    /// The connection under the link was severed.
    Cut,
    /// The frame was blocked by an active partition.
    Partition,
}

/// What one trace event records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An instance was activated at `path` (root = top-level machine).
    Activated {
        /// Absolute instance path.
        path: ObsPath,
    },
    /// The top-level machine's output became available.
    Decided {
        /// Absolute instance path (root for party-level outputs).
        path: ObsPath,
    },
    /// A protocol phase transition at `path`.
    Phase {
        /// Absolute path of the emitting instance.
        path: ObsPath,
        /// Which phase.
        phase: Phase,
        /// Phase coordinate (round / view / epoch / bit).
        info: u32,
    },
    /// One copy of a send was enqueued into the network.
    Send {
        /// The copy's delivery sequence number (the causal edge id).
        seq: u64,
        /// Sender.
        from: u16,
        /// Destination of this copy.
        to: u16,
        /// Exact wire bytes of the payload.
        bytes: u32,
        /// The destination instance path (when a path classifier is
        /// installed; root otherwise).
        path: ObsPath,
    },
    /// One in-flight copy was delivered.
    Deliver {
        /// The copy's sequence number.
        seq: u64,
        /// Sender.
        from: u16,
        /// Receiver.
        to: u16,
    },
    /// One copy was purged: withdrawn in flight (`seq` set) or dropped at
    /// send time because the destination had already crashed (`seq` none).
    Purge {
        /// Sequence of the withdrawn copy; `None` for send-time drops.
        seq: Option<u64>,
    },
    /// The runtime consulted its admission policy about opening a session.
    Admission {
        /// The candidate session index.
        session: u32,
        /// The policy's verdict (or the liveness floor's override).
        admitted: bool,
        /// `true` when an idle host force-admitted against the verdict.
        forced: bool,
        /// The policy's token state, for token-bucket-style policies.
        tokens: Option<u64>,
        /// Live sessions at decision time.
        live: u32,
    },
    /// A transport link came up (connected or accepted).
    LinkUp {
        /// Local peer.
        from: u16,
        /// Remote peer.
        to: u16,
    },
    /// A transport link went down.
    LinkDown {
        /// Local peer.
        from: u16,
        /// Remote peer.
        to: u16,
        /// Why.
        reason: LinkDownReason,
    },
    /// A severed link was successfully re-established by the dialer.
    Redial {
        /// Dialing peer.
        from: u16,
        /// Remote peer.
        to: u16,
    },
    /// The chaos plan injected a fault into `from → to`.
    Fault {
        /// Writer side.
        from: u16,
        /// Destination.
        to: u16,
        /// What was injected.
        fault: FaultKind,
        /// The affected frame's link sequence number.
        seq: u64,
    },
    /// End-of-run summary of one directed link's `LinkStats`.
    LinkSummary {
        /// Writer side.
        from: u16,
        /// Destination.
        to: u16,
        /// Envelopes sent.
        sent: u64,
        /// Frames replayed from the outbox after reconnects.
        retransmitted: u64,
        /// Frames the chaos plan dropped or cut.
        drops: u64,
        /// Successful redials.
        redials: u64,
        /// Milliseconds the link spent partitioned.
        partitioned_ms: u64,
    },
}

/// One observation in the trace stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The executing party (`u16::MAX` when no party context applies, e.g.
    /// transport accept/redial threads).
    pub party: u16,
    /// The session-local delivery clock at emission (0 outside a simulator).
    pub clock: u64,
    /// Nanoseconds since the sink's wall origin (0 when wall stamping is
    /// off — deterministic traces leave it off so streams compare exactly).
    pub wall_ns: u64,
    /// The seq of the envelope whose delivery caused this event (`None` for
    /// activation-time and external events) — the backward causal edge.
    pub cause: Option<u64>,
    /// The typed observation.
    pub kind: EventKind,
}

/// Marker for "no party context".
pub const NO_PARTY: u16 = u16::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_roundtrip_and_prefix() {
        let p = ObsPath::from_segments(&[(0xFE, 3), (0, 7), (1, 40000)]);
        assert_eq!(p.depth(), 3);
        assert_eq!(p.segments().collect::<Vec<_>>(), vec![(0xFE, 3), (0, 7), (1, 40000)]);
        let q = ObsPath::from_bytes(p.as_bytes());
        assert_eq!(p, q);
        assert!(p.starts_with(&p.prefix(2)));
        assert!(p.starts_with(&ObsPath::ROOT));
        assert!(!p.prefix(2).starts_with(&p));
        assert_eq!(p.prefix(2).depth(), 2);
        assert_eq!(p.parent(), Some(p.prefix(2)));
        assert_eq!(ObsPath::ROOT.parent(), None);
        assert_eq!(format!("{p}"), "/254:3/0:7/1:40000");
        assert_eq!(format!("{}", ObsPath::ROOT), "/");
    }

    #[test]
    fn push_pop_mirror_the_stack_discipline() {
        let mut p = ObsPath::ROOT;
        p.push_back(2, 9);
        p.push_back(0, 1);
        assert_eq!(p.depth(), 2);
        p.pop_back();
        assert_eq!(p.segments().collect::<Vec<_>>(), vec![(2, 9)]);
        p.pop_back();
        assert!(p.is_root());
        p.pop_back();
        assert!(p.is_root(), "pop on root is a no-op");
    }

    #[test]
    fn from_bytes_ignores_trailing_garbage() {
        // 4 bytes = one whole segment + one dangling byte.
        let p = ObsPath::from_bytes(&[7, 1, 0, 0xAA]);
        assert_eq!(p.segments().collect::<Vec<_>>(), vec![(7, 1)]);
    }
}
