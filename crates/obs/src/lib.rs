//! Zero-cost-when-off structured tracing keyed by the mux's instance paths.
//!
//! The workspace's existing observability is all *totals*: `Metrics` counts
//! what was sent and delivered, `SessionMetrics` splits that per session,
//! `PeerStats` counts socket frames.  None of them can answer *where a
//! beacon epoch's latency goes* (seeding vs AVSS vs WCS vs coin vs ABA
//! rounds), *which message chain gated a decision*, or *whether the ABA
//! round distribution actually looks expected-constant across seeds* — the
//! paper's headline claims.  This crate is the substrate those questions are
//! answered through.
//!
//! # Event model
//!
//! A [`TraceEvent`] is one observation: the executing party, the simulator's
//! **delivery clock** (deliveries so far in this party's session — the
//! asynchronous notion of time), an optional **wall clock** stamp (real
//! transports only), the **causal trigger** (the envelope seq whose delivery
//! produced the event), and a typed [`EventKind`].  Protocol-phase events
//! carry the emitting instance's absolute [`ObsPath`] — the same
//! `(kind, index)` segment chain the mux routes envelopes by — so one flat
//! event stream reconstructs into per-instance span trees without any
//! registration step.
//!
//! # Overhead discipline
//!
//! Instrumentation must cost nothing when nobody is looking: every emit
//! point is gated on [`enabled`], a single thread-local flag read, and no
//! event (or path, or clock stamp) is materialised unless a sink is
//! installed on the current thread.  Sinks are **thread-local** by design —
//! the simulator, each runtime worker shard, and each transport driver
//! thread own their machines exclusively, so the hot path never takes a
//! lock.  Cross-thread collection (the socket transport's per-peer threads)
//! goes through an explicit [`SharedCollector`].
//!
//! # Analysis
//!
//! On top of the raw stream, [`analysis`] derives per-instance span trees,
//! per-phase latency shares with log-bucketed histograms, ABA round-count
//! distributions, byte attribution by path prefix, and backward
//! critical-path extraction from a decide event to the message chain that
//! gated it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis_mod;
mod ctx;
mod event;
mod sink;

/// Derived analysis over recorded event streams.
pub mod analysis {
    pub use crate::analysis_mod::*;
}

pub use ctx::{
    activated, begin_activation, begin_delivery, current_path, decided, emit, enabled, install,
    install_with_wall, installed, phase, set_enabled, set_party, uninstall, PathGuard,
};
pub use event::{EventKind, FaultKind, LinkDownReason, ObsPath, Phase, TraceEvent, NO_PARTY};
pub use sink::{counter, CountingSink, SharedCollector, TraceSink, VecSink};
