//! Real sockets under the protocol stack — the transport seam, made of TCP.
//!
//! Everything below the [`Envelope`](setupfree_net::Envelope) is swappable
//! by construction: the state machines are sans-IO, the wire codec is
//! transport-agnostic, and the simulator is just one way of moving sealed
//! envelopes between parties.  This crate is the second way: `n` peers in
//! one process, each with its own driver thread and socket mesh, exchanging
//! the *same bytes* the simulator's schedulers would carry — over loopback
//! TCP with a 4-byte length prefix as the only addition ([`framing`]).
//!
//! The protocol crates are untouched: a [`TcpPeerGroup`] runs the identical
//! `Coin`/`MmrAba`/`RandomBeacon` machines the simulator runs, built by the
//! same kind of factory closure the sharded runtime uses.  What changes is
//! only who calls `on_message`: a reader thread fed by a socket instead of
//! an adversarial scheduler.  (That also means the *delivery order* is now
//! whatever the kernel produces — benign and roughly FIFO per link.  The
//! adversarial schedules stay in the simulator, which remains the place
//! correctness is argued; the transport is where wall-clock is measured.)
//!
//! Since PR 8 the network underneath can be made hostile on purpose: a
//! seed-driven [`chaos::LinkFaultPlan`] drops frames, shapes latency, cuts
//! connections, and schedules partitions, while the [`reconnect`] layer
//! (per-link outboxes, exponential-backoff redials, a resume handshake
//! with sequence-numbered frames and cumulative acks) heals everything the
//! plan breaks — exactly-once, in-order delivery across every cut, and
//! graceful degradation (survivor agreement, `degraded` reporting) when a
//! peer really crashes.
//!
//! See `ARCHITECTURE.md` § "Transport" for the full picture and
//! `examples/socket_beacon.rs` for a runnable demo.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod framing;
pub mod group;
pub mod reconnect;

pub use chaos::LinkFaultPlan;
pub use framing::{
    encode_ack_frame, encode_data_frame, encode_envelope, read_frame, read_hello, read_hello_ack,
    write_hello, write_hello_ack, Frame, Hello, MAGIC, MAX_FRAME_LEN,
};
pub use group::{
    PeerHealth, PeerStats, SocketRunReport, TcpPeerGroup, TransportFailure,
    DEFAULT_INBOX_CAPACITY, DEFAULT_TIMEOUT,
};
pub use reconnect::{LinkStats, LinkStatus};
