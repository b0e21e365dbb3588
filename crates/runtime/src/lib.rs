//! Sharded multi-session runtime.
//!
//! The paper's protocols are built to run *many concurrent instances* —
//! per-epoch beacons (§7.3), per-view VBAs (§7.1), `k` parallel BAs (the
//! concurrent-agreement regime of Cohen et al., arXiv:2312.14506).  This
//! crate is the workspace's one way to run such a workload:
//!
//! * [`ShardedHost`] — partitions sessions across `W` worker shards (shard
//!   key = session index mod `W`), one OS thread per shard
//!   ([`ShardedHost::run_parallel`]), with admitted session indices and
//!   reports flowing over bounded [`ShardQueue`]s.  Each session owns its
//!   complete execution state (party machines, adversarial scheduler,
//!   in-flight slab, delivery budget, metrics) and runs start to finish on
//!   one worker, so per-session results are identical for every `W`.
//! * [`SessionMetrics`] / [`SessionReport`] — per-session accounting
//!   (sent/delivered/purged/in-flight/rounds) with the conservation law
//!   checked per session, and [`StopReason::BudgetExhausted`] attributed to
//!   the offending session instead of the whole run.
//! * [`AdmissionPolicy`] ([`Unlimited`] / [`MaxConcurrent`] /
//!   [`TokenBucket`]) — sessions are opened mid-run under a policy instead
//!   of pre-spawned, so pipelined beacon epochs become *admitted* sessions
//!   with a bounded live-session window.
//!
//! Every session is its own `Simulation` with its own scheduler, so the
//! party-level adversaries of `setupfree_net::scheduler` apply per session.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod host;
pub mod queue;

pub use admission::{AdmissionPolicy, MaxConcurrent, TokenBucket, Unlimited};
pub use host::{
    SessionFactory, SessionMetrics, SessionReport, SessionSetup, ShardedHost, ShardedRunReport,
    WorkerFailure,
};
pub use queue::ShardQueue;

// Re-exported so downstream code can name the session stop reason without a
// separate net import.
pub use setupfree_net::StopReason;
