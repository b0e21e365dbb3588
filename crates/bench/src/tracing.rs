//! Traced measurement harness: the same simulator workloads as the parent
//! module, run with a [`setupfree_obs`] sink installed so the returned
//! [`Measurement`] comes with the full path-keyed event stream — the input
//! to phase-latency breakdowns, ABA round distributions, and critical-path
//! extraction (`trace_baseline` renders them into `BENCH_pr10.json`).
//!
//! Also home to the two instruments behind the tests that gate tracing and
//! the ABA's rounds: [`aba_overhead_arm`] (what does tracing cost when off /
//! when counting?, bounded by `tests/tracing_overhead.rs`) and
//! [`aba_round_distribution`] (does the round count still look
//! expected-constant across seeds?, banded by `tests/determinism.rs`).

use std::time::{Duration, Instant};

use setupfree_core::coin::CoreSetMode;
use setupfree_net::{Envelope, Simulation, StopReason};
use setupfree_obs::analysis::aba_rounds_to_decide;
use setupfree_obs::{ObsPath, TraceEvent, VecSink};
use setupfree_testkit::Adversary;

use crate::{beacon_workload, coin_workload, setupfree_aba_workload, Ensemble, Measurement};

/// One traced execution: the usual metrics plus the recorded event stream.
pub struct TracedRun {
    /// The paper's metrics for the run.
    pub measurement: Measurement,
    /// Every trace event the run emitted, in emission order.
    pub trace: Vec<TraceEvent>,
}

impl<O: Clone + std::fmt::Debug + 'static> Ensemble<Envelope, O> {
    /// [`Ensemble::run`] with a [`VecSink`] installed and the envelope-path
    /// classifier wired, so sends are attributed to destination instance
    /// paths.
    ///
    /// # Panics
    ///
    /// Panics if the budget runs out before every honest party outputs.
    pub(crate) fn trace(self, adversary: &Adversary) -> TracedRun {
        let (measurement, run) = self.simulate(adversary, |sim| {
            sim.set_trace_path_of(|e: &Envelope| ObsPath::from_bytes(e.path.as_bytes()));
            setupfree_obs::install(Box::new(VecSink::new()));
        });
        let trace = setupfree_obs::uninstall().map(|mut s| s.drain()).unwrap_or_default();
        run.assert_termination();
        TracedRun { measurement, trace }
    }
}

/// Traces one instance of the paper's Coin (weak core-set mode) — the same
/// workload as [`crate::measure_coin`].
pub fn trace_coin(n: usize, seed: u64) -> TracedRun {
    coin_workload(n, seed, CoreSetMode::Weak).trace(&Adversary::Random { seed })
}

/// Traces one full setup-free ABA (real coin per round) — the same workload
/// as [`crate::measure_setupfree_aba`], seed-for-seed.
pub fn trace_setupfree_aba(n: usize, seed: u64) -> TracedRun {
    setupfree_aba_workload(n, seed).trace(&Adversary::Random { seed })
}

/// Traces a multi-epoch beacon run (real Election + Coin per epoch,
/// trusted-coin ABA inside) — the same workload as
/// [`crate::measure_beacon`].
pub fn trace_beacon(n: usize, epochs: u32, seed: u64) -> TracedRun {
    beacon_workload(n, epochs, seed).trace(&Adversary::Random { seed })
}

/// The three tracing configurations the overhead gate compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverheadArm {
    /// No sink installed — the pre-PR 10 baseline.
    Plain,
    /// A sink installed but emission toggled off: measures the cost of the
    /// instrumentation points themselves (one thread-local flag read each).
    DisabledSink,
    /// The cheapest live sink: one counter bump per event, nothing retained.
    CountingSink,
}

/// Runs the standard ABA workload (seed-for-seed with
/// [`crate::measure_setupfree_aba`]) under one tracing arm and returns
/// `(wall, deliveries, events)` — deliveries must be bit-identical across
/// arms (tracing observes, never steers), and the wall-clock ratio between
/// arms is what the overhead test bounds.
pub fn aba_overhead_arm(n: usize, seed: u64, arm: OverheadArm) -> (Duration, u64, u64) {
    let aba = setupfree_aba_workload(n, seed);
    let mut sim = Simulation::new(aba.parties(), Adversary::Random { seed }.scheduler());
    let counted = match arm {
        OverheadArm::Plain => None,
        OverheadArm::DisabledSink => {
            setupfree_obs::install(Box::new(VecSink::new()));
            setupfree_obs::set_enabled(false);
            None
        }
        OverheadArm::CountingSink => {
            let (sink, count) = setupfree_obs::counter();
            setupfree_obs::install(Box::new(sink));
            Some(count)
        }
    };
    let start = Instant::now();
    let report = sim.run(aba.budget);
    let wall = start.elapsed();
    let events = counted.map(|c| c.get()).unwrap_or(0);
    setupfree_obs::uninstall();
    assert_eq!(report.reason, StopReason::AllOutputs, "overhead arm did not terminate");
    (wall, report.deliveries, events)
}

/// Trace-derived rounds-to-decide of the standard ABA workload for each of
/// `seeds` — the distribution whose mean the determinism suite bands and
/// `BENCH_pr10.json` records.
pub fn aba_round_distribution(n: usize, seeds: impl IntoIterator<Item = u64>) -> Vec<u64> {
    seeds
        .into_iter()
        .map(|seed| {
            let run = trace_setupfree_aba(n, seed);
            let rounds = aba_rounds_to_decide(&run.trace);
            assert!(rounds > 0, "a decided ABA has round phases");
            u64::from(rounds)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use setupfree_obs::analysis::{phase_breakdown, FlowCounts};

    #[test]
    fn traced_aba_reproduces_the_untraced_run_exactly() {
        let traced = trace_setupfree_aba(4, 0xF00D);
        let plain = crate::measure_setupfree_aba(4, 0xF00D);
        assert_eq!(traced.measurement.deliveries, plain.deliveries, "tracing must not steer");
        assert_eq!(traced.measurement.honest_bytes, plain.honest_bytes);
        assert!(!traced.trace.is_empty());
        // The stream's flow counters obey the simulator's conservation law.
        let flows = FlowCounts::of(&traced.trace);
        assert_eq!(flows.sent_copies(), flows.delivers + flows.purged() + flows.in_flight());
    }

    #[test]
    fn the_phase_breakdown_covers_the_pipeline() {
        let run = trace_coin(4, 0xC0);
        let shares = phase_breakdown(&run.trace);
        assert!(
            shares.iter().any(|s| s.phase == setupfree_obs::Phase::CoinRevealed),
            "a decided coin must reveal"
        );
    }

    #[test]
    fn overhead_arms_replay_identical_work() {
        let (_, plain, _) = aba_overhead_arm(4, 0xF00D, OverheadArm::Plain);
        let (_, off, zero) = aba_overhead_arm(4, 0xF00D, OverheadArm::DisabledSink);
        let (_, counting, events) = aba_overhead_arm(4, 0xF00D, OverheadArm::CountingSink);
        assert_eq!(plain, off);
        assert_eq!(plain, counting);
        assert_eq!(zero, 0);
        assert!(events > 0, "the counting arm must observe events");
    }
}
