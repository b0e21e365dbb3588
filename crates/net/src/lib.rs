//! The asynchronous message-passing model of §3, executable.
//!
//! This crate provides everything needed to *run* the paper's protocols
//! without a physical network:
//!
//! * [`party`] — party identities and hierarchical session identifiers,
//! * [`protocol`] — the deterministic state-machine model every protocol
//!   implements,
//! * [`mux`] — the hierarchical session router: instance paths, the flat
//!   wire envelope with its decode-once [`Payload`], and the
//!   child-instance [`Router`] with its bounded pre-activation buffer,
//! * [`scheduler`] — adversarial delivery schedules (arbitrary delay and
//!   reordering with eventual delivery),
//! * [`sim`] — the simulator: messages travel as values, each charged its
//!   exact wire-codec length (and round-tripped through the codec in debug
//!   builds), causal-depth round counting, and the run's one fault plan
//!   (`silence`, `crash_after`, `crash`, `mark_byzantine`), which decides
//!   who is awaited,
//! * [`metrics`] — the three performance metrics of §3 (communication,
//!   messages, asynchronous rounds),
//! * [`faults`] — generic Byzantine/crash behaviours for fault-injection
//!   testing,
//! * [`tally`] — Bracha's one-vote-per-sender counting and the
//!   `Echo`/`Ready` amplification of one broadcast, shared by RBC, AVSS and
//!   Seeding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod metrics;
pub mod mux;
pub mod party;
pub mod protocol;
pub mod scheduler;
pub mod sim;
pub mod tally;

pub use faults::{DuplicatingParty, SilentParty};
pub use metrics::Metrics;
pub use mux::{
    BufferStats, CapPolicy, Envelope, InstancePath, Leaf, PathSeg, Payload, PreActivationBuffer,
    Router,
};
pub use party::{PartyId, Sid};
pub use protocol::{Dest, Outgoing, ProtocolInstance, Step};
pub use scheduler::{
    FifoScheduler, PartitionScheduler, PendingInfo, RandomScheduler, Scheduler,
    TargetedDelayScheduler,
};
pub use sim::{BoxedParty, RunReport, Simulation, StopReason};
pub use tally::{Amplifier, ReadyDue, VoteTally};
