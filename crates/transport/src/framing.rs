//! Length-prefixed, sequence-numbered framing for [`Envelope`]s on a byte
//! stream, plus the resumable connection handshake.
//!
//! The simulator hands whole messages to the scheduler, so the wire codec
//! never needed message boundaries: an [`Envelope`]'s payload simply runs to
//! the end of the buffer.  TCP is a byte stream, so the transport adds a
//! 4-byte little-endian length prefix per frame.  Since the chaos layer
//! (PR 8), a frame also carries a one-byte *kind* and, for data frames, a
//! 64-bit per-link **sequence number**: the receiver checks that data
//! arrives exactly in sequence, which is what lets a healed connection
//! resume mid-protocol with provably zero lost and zero duplicated frames
//! (retransmitted frames the receiver already has are recognised by their
//! sequence number and dropped; a *gap* would mean the resume protocol
//! itself is broken and is treated as a hard error by the reader).
//! *Inside* a data frame the payload bytes are exactly what
//! [`setupfree_wire::to_bytes`] produces for the envelope — the encoding
//! whose length the simulator charges for each send, and which
//! debug-build simulations round-trip on every send, so the two transports
//! can never disagree about message contents or sizes.
//!
//! The second frame kind is a transport-internal cumulative
//! **acknowledgement** (`Frame::Ack`): the receiver periodically reports how
//! many data frames it has accepted, which lets the sender prune its
//! retransmission outbox.  Acks carry no sequence number of their own — they
//! are idempotent cumulative counters, safe to lose on a dying link because
//! the resume handshake re-synchronises both sides anyway.
//!
//! Connections open with a hello (`MAGIC ‖ dialer-id ‖ session-nonce ‖
//! next-expected-seq`) answered by a hello-ack (`MAGIC ‖ session-nonce ‖
//! next-expected-seq`).  The nonce pins both ends to the same run (a stray
//! dialer from another process or an earlier run is rejected before any
//! protocol traffic flows); the two `next-expected` values tell each side's
//! writer exactly where to resume, so a redial after a link fault continues
//! the frame stream as if the fault never happened.

use std::io::{self, Read, Write};

use setupfree_net::Envelope;

/// Connection-preamble magic: `"sfp2"` — *s*etup-*f*ree *p*eer, version 2
/// (version 1 had no sequence numbers and no resumable handshake).
pub const MAGIC: u32 = u32::from_le_bytes(*b"sfp2");

/// Upper bound on a single frame body (16 MiB).  Real envelopes in this
/// workspace are a few KiB at most; anything larger is a corrupt or hostile
/// stream and is rejected before the length is trusted for an allocation.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Frame-kind tag: a protocol envelope with a per-link sequence number.
const KIND_DATA: u8 = 0;
/// Frame-kind tag: a cumulative transport-level acknowledgement.
const KIND_ACK: u8 = 1;

/// The opening frame of every connection (initial dial and redial alike),
/// sent by the dialing peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The dialing peer's id.
    pub peer: usize,
    /// The group's session nonce — both sides must present the same value.
    pub nonce: u64,
    /// The next data-frame sequence number the dialer expects *from the
    /// acceptor* (i.e. how many frames of the acceptor→dialer direction it
    /// has accepted so far).  Zero on an initial dial.
    pub next_expected: u64,
}

/// Writes the connection hello identifying the dialing peer and its resume
/// point.
pub fn write_hello(w: &mut impl Write, hello: &Hello) -> io::Result<()> {
    let mut buf = [0u8; 24];
    buf[..4].copy_from_slice(&MAGIC.to_le_bytes());
    buf[4..8].copy_from_slice(&(hello.peer as u32).to_le_bytes());
    buf[8..16].copy_from_slice(&hello.nonce.to_le_bytes());
    buf[16..24].copy_from_slice(&hello.next_expected.to_le_bytes());
    w.write_all(&buf)
}

/// Reads the connection hello.
pub fn read_hello(r: &mut impl Read) -> io::Result<Hello> {
    let mut buf = [0u8; 24];
    r.read_exact(&mut buf)?;
    let magic = u32::from_le_bytes(buf[..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad transport hello magic"));
    }
    Ok(Hello {
        peer: u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize,
        nonce: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
        next_expected: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
    })
}

/// Writes the acceptor's answer to a [`Hello`]: the same nonce (proof it is
/// the peer the dialer meant) and the acceptor's own resume point for the
/// dialer→acceptor direction.
pub fn write_hello_ack(w: &mut impl Write, nonce: u64, next_expected: u64) -> io::Result<()> {
    let mut buf = [0u8; 20];
    buf[..4].copy_from_slice(&MAGIC.to_le_bytes());
    buf[4..12].copy_from_slice(&nonce.to_le_bytes());
    buf[12..20].copy_from_slice(&next_expected.to_le_bytes());
    w.write_all(&buf)
}

/// Reads the acceptor's hello-ack, returning `(nonce, next_expected)`.
pub fn read_hello_ack(r: &mut impl Read) -> io::Result<(u64, u64)> {
    let mut buf = [0u8; 20];
    r.read_exact(&mut buf)?;
    let magic = u32::from_le_bytes(buf[..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad transport hello-ack magic"));
    }
    Ok((
        u64::from_le_bytes(buf[4..12].try_into().unwrap()),
        u64::from_le_bytes(buf[12..20].try_into().unwrap()),
    ))
}

/// One decoded frame off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A protocol envelope, the `seq`-th data frame of its link direction.
    Data {
        /// Per-link-direction sequence number (0-based, dense).
        seq: u64,
        /// The envelope, decoded with the workspace wire codec.
        env: Envelope,
    },
    /// A cumulative acknowledgement: the sender of this frame has accepted
    /// `received` data frames of the *reverse* direction.
    Ack {
        /// Count of data frames accepted so far.
        received: u64,
    },
}

/// Encodes an envelope once (the wire encoding whose length the simulator
/// charges).
/// A multicast calls this once and shares the bytes across every
/// destination; the per-link frame header is prepended per destination by
/// [`encode_data_frame`], because each link runs its own sequence space.
pub fn encode_envelope(env: &Envelope) -> Vec<u8> {
    let bytes = setupfree_wire::to_bytes(env);
    assert!(bytes.len() + 9 <= MAX_FRAME_LEN, "envelope exceeds MAX_FRAME_LEN");
    bytes
}

/// Builds one contiguous data frame (`len ‖ kind ‖ seq ‖ payload`); a
/// link's flush writes the frames it has queued back to back.
pub fn encode_data_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let body_len = 1 + 8 + payload.len();
    assert!(body_len <= MAX_FRAME_LEN, "envelope exceeds MAX_FRAME_LEN");
    let mut frame = Vec::with_capacity(4 + body_len);
    frame.extend_from_slice(&(body_len as u32).to_le_bytes());
    frame.push(KIND_DATA);
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Builds one contiguous ack frame (`len ‖ kind ‖ received`).
pub fn encode_ack_frame(received: u64) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + 9);
    frame.extend_from_slice(&9u32.to_le_bytes());
    frame.push(KIND_ACK);
    frame.extend_from_slice(&received.to_le_bytes());
    frame
}

/// `true` when `buf` starts with a whole frame, so that [`read_frame`] on a
/// reader holding `buf` in its buffer returns without waiting on the
/// socket.
pub(crate) fn holds_frame(buf: &[u8]) -> bool {
    buf.len() >= 4 && buf.len() - 4 >= u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize
}

/// Reads one length-prefixed frame.
///
/// Returns `Ok(None)` on a clean end-of-stream *at a frame boundary* (the
/// peer closed, or the link was severed between frames); an EOF mid-frame is
/// an error like any other short read — with the reconnect layer above, both
/// simply end this connection generation, and the resume handshake decides
/// what (if anything) was lost.  A frame that decodes to garbage is an
/// `InvalidData` error — on a trusted loopback harness that is corruption,
/// not a Byzantine peer (Byzantine *behaviour* lives inside the machines,
/// which exchange well-formed envelopes with hostile contents).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut len_buf = [0u8; 4];
    // Distinguish "closed between frames" from "died mid-frame" by hand:
    // read_exact reports both as UnexpectedEof.
    match r.read(&mut len_buf)? {
        0 => return Ok(None),
        got => r.read_exact(&mut len_buf[got..])?,
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame length exceeds cap"));
    }
    if len < 1 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "empty frame body"));
    }
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes)?;
    match bytes[0] {
        KIND_DATA => {
            if len < 9 {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "short data frame"));
            }
            let seq = u64::from_le_bytes(bytes[1..9].try_into().unwrap());
            setupfree_wire::from_bytes::<Envelope>(&bytes[9..])
                .map(|env| Some(Frame::Data { seq, env }))
                .map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("bad envelope frame: {e:?}"))
                })
        }
        KIND_ACK => {
            if len != 9 {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "malformed ack frame"));
            }
            Ok(Some(Frame::Ack { received: u64::from_le_bytes(bytes[1..9].try_into().unwrap()) }))
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown frame kind {other}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setupfree_net::{InstancePath, PathSeg};

    fn sample(nonce: u64) -> Envelope {
        Envelope::seal(InstancePath::of(PathSeg::new(3, 7)), &nonce)
    }

    #[test]
    fn frames_roundtrip_back_to_back() {
        let mut stream = Vec::new();
        for nonce in 0..5u64 {
            stream.extend_from_slice(&encode_data_frame(nonce, &encode_envelope(&sample(nonce))));
        }
        stream.extend_from_slice(&encode_ack_frame(17));
        let mut r = &stream[..];
        for nonce in 0..5u64 {
            let frame = read_frame(&mut r).unwrap().expect("frame present");
            assert_eq!(
                frame,
                Frame::Data { seq: nonce, env: sample(nonce) },
                "frame {nonce} must roundtrip byte-identically with its sequence number"
            );
        }
        assert_eq!(read_frame(&mut r).unwrap(), Some(Frame::Ack { received: 17 }));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF at the boundary");
    }

    #[test]
    fn hello_and_ack_roundtrip_and_reject_bad_magic() {
        let hello = Hello { peer: 21, nonce: 0xfeed_beef, next_expected: 42 };
        let mut buf = Vec::new();
        write_hello(&mut buf, &hello).unwrap();
        assert_eq!(read_hello(&mut &buf[..]).unwrap(), hello);
        buf[0] ^= 0xFF;
        assert!(read_hello(&mut &buf[..]).is_err(), "corrupted magic must be rejected");

        let mut ack = Vec::new();
        write_hello_ack(&mut ack, 0xfeed_beef, 99).unwrap();
        assert_eq!(read_hello_ack(&mut &ack[..]).unwrap(), (0xfeed_beef, 99));
        ack[2] ^= 0xFF;
        assert!(read_hello_ack(&mut &ack[..]).is_err());
    }

    #[test]
    fn truncation_and_oversize_are_errors_not_hangs() {
        let frame = encode_data_frame(9, &encode_envelope(&sample(9)));
        // Die mid-frame: every strict prefix longer than zero errors out.
        for cut in 1..frame.len() {
            let err = read_frame(&mut &frame[..cut]).expect_err("truncated frame must error");
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        // A hostile length prefix is rejected before it sizes an allocation.
        let huge = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        // An unknown kind and a malformed ack are rejected, not misread.
        let unknown = [1u8, 0, 0, 0, 9];
        assert!(read_frame(&mut &unknown[..]).is_err());
        let short_ack = [2u8, 0, 0, 0, KIND_ACK, 5];
        assert!(read_frame(&mut &short_ack[..]).is_err());
    }

    #[test]
    fn holds_frame_sees_exactly_the_whole_frames() {
        let frame = encode_data_frame(9, &encode_envelope(&sample(9)));
        for cut in 0..frame.len() {
            assert!(!holds_frame(&frame[..cut]), "a {cut}-byte prefix is not a frame");
        }
        let mut two = frame.clone();
        two.extend_from_slice(&encode_ack_frame(3)[..2]);
        assert!(holds_frame(&frame) && holds_frame(&two));
    }

    #[test]
    fn frame_payload_matches_the_simulator_codec() {
        // The data-frame payload IS the simulator's wire encoding.
        let env = sample(1234);
        let frame = encode_data_frame(7, &encode_envelope(&env));
        let body = &frame[4 + 9..];
        let direct: Envelope = setupfree_wire::from_bytes(body).unwrap();
        assert_eq!(direct, env);
    }
}
