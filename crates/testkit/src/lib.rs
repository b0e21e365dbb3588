//! Deterministic adversarial test harness for the `setupfree` workspace.
//!
//! Every integration test in the workspace answers the same three questions
//! about a protocol ensemble: does it **terminate** under adversarial
//! scheduling, do the honest parties **agree**, and is the common output
//! **valid**?  Asynchronous-BA correctness arguments quantify over *all*
//! message schedules and fault patterns, so a test that runs one FIFO
//! execution checks almost nothing.  This crate makes the quantifier
//! explicit and cheap:
//!
//! * [`Adversary`] — a seeded, reproducible description of one delivery
//!   schedule (FIFO, uniformly random, targeted delay of a victim set, or a
//!   half/half partition), instantiable into a
//!   [`Scheduler`];
//! * [`sweep`] — builds a fresh [`Simulation`] per adversary (the parties
//!   on the adversary's scheduler, plus the simulation's own fault plan:
//!   [`Simulation::silence`], [`Simulation::crash_after`],
//!   [`Simulation::crash`], [`Simulation::mark_byzantine`]), runs each to
//!   completion, checks the message-conservation law on every run, and
//!   returns one [`SweepRun`] per schedule;
//! * [`SweepRun`] — uniform assertions: [`SweepRun::assert_termination`],
//!   [`SweepRun::assert_agreement`], [`SweepRun::assert_validity`].
//!
//! Everything is deterministic: the adversary and the parties' own seeds
//! fully determine the execution, so a failure message names the schedule
//! that produced it and re-running reproduces it exactly.
//!
//! # Example
//!
//! ```
//! use setupfree_net::{BoxedParty, PartyId, ProtocolInstance, Simulation, Step};
//! use setupfree_testkit::{sweep, Adversary};
//!
//! // A toy protocol: multicast once, output after hearing 3 parties.
//! #[derive(Debug)]
//! struct Echo(std::collections::BTreeSet<usize>, Option<usize>);
//! impl ProtocolInstance for Echo {
//!     type Message = u8;
//!     type Output = usize;
//!     fn on_activation(&mut self) -> Step<u8> { Step::multicast(1) }
//!     fn on_message(&mut self, from: PartyId, _m: u8) -> Step<u8> {
//!         self.0.insert(from.index());
//!         if self.0.len() >= 3 { self.1 = Some(3); }
//!         Step::none()
//!     }
//!     fn output(&self) -> Option<usize> { self.1 }
//! }
//!
//! // Four parties, P3 silenced: the other three still hear three senders.
//! let runs = sweep(&Adversary::standard_sweep(4, 3), 10_000, |adv| {
//!     let parties = (0..4)
//!         .map(|_| Box::new(Echo(Default::default(), None)) as BoxedParty<u8, usize>)
//!         .collect();
//!     let mut sim = Simulation::new(parties, adv.scheduler());
//!     sim.silence(PartyId(3));
//!     sim
//! });
//! for run in &runs {
//!     run.assert_termination();
//!     run.assert_agreement();
//!     run.assert_validity(|&v| v == 3);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use setupfree_net::{
    FifoScheduler, Metrics, PartitionScheduler, PartyId, RandomScheduler, RunReport, Scheduler,
    Simulation, StopReason, TargetedDelayScheduler,
};

/// One reproducible adversarial delivery schedule.
///
/// An `Adversary` is *data*, not a live scheduler, so sweeps can print which
/// schedule failed and re-instantiate it exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Adversary {
    /// Deliver messages in the order they were sent.
    Fifo,
    /// Deliver a uniformly random pending message (seeded, reproducible) —
    /// the standard oblivious asynchronous adversary.
    Random {
        /// Scheduler seed.
        seed: u64,
    },
    /// Worst-case reordering against a victim set: every message from or to
    /// a target is delayed as long as any other message is pending.
    TargetedDelay {
        /// The starved parties (by index).
        targets: Vec<usize>,
        /// Scheduler seed for tie-breaking.
        seed: u64,
    },
    /// Deliver all intra-half traffic before any cross-half traffic,
    /// approximating a long (but eventually healing) network partition.
    Partition {
        /// Parties with index `< boundary` form one side.
        boundary: usize,
        /// Scheduler seed for tie-breaking.
        seed: u64,
    },
}

impl Adversary {
    /// Instantiates the described scheduler.
    pub fn scheduler(&self) -> Box<dyn Scheduler> {
        match self {
            Adversary::Fifo => Box::new(FifoScheduler::default()),
            Adversary::Random { seed } => Box::new(RandomScheduler::new(*seed)),
            Adversary::TargetedDelay { targets, seed } => Box::new(TargetedDelayScheduler::new(
                targets.iter().map(|&i| PartyId(i)).collect(),
                *seed,
            )),
            Adversary::Partition { boundary, seed } => {
                Box::new(PartitionScheduler::new(*boundary, *seed))
            }
        }
    }

    /// The standard sweep every protocol should survive: FIFO, `seeds`
    /// distinct random schedules, a targeted delay against party 0, and a
    /// half/half partition of the `n` parties.
    pub fn standard_sweep(n: usize, seeds: u64) -> Vec<Adversary> {
        let mut sweep = vec![Adversary::Fifo];
        sweep.extend((0..seeds).map(|seed| Adversary::Random { seed }));
        sweep.push(Adversary::TargetedDelay { targets: vec![0], seed: 0xadd });
        sweep.push(Adversary::Partition { boundary: n / 2, seed: 0xcafe });
        sweep
    }

    /// `seeds` distinct random-delivery schedules only (the cheapest useful
    /// sweep, for expensive full-stack ensembles).
    pub fn random_sweep(seeds: u64) -> Vec<Adversary> {
        (0..seeds).map(|seed| Adversary::Random { seed }).collect()
    }

    /// The sweep for committee-subsampled protocols: FIFO, `seeds` random
    /// schedules, a targeted-delay starvation of the first committee
    /// **member** (the schedule most likely to break a member-quorum
    /// protocol), a starvation of the first **listener** (must not matter —
    /// listeners send nothing), and a half/half partition of all `n`
    /// parties (which also splits the committee, since members are spread
    /// across the index space).
    pub fn committee_sweep(n: usize, members: &[usize], seeds: u64) -> Vec<Adversary> {
        let mut sweep = vec![Adversary::Fifo];
        sweep.extend((0..seeds).map(|seed| Adversary::Random { seed }));
        if let Some(&member) = members.first() {
            sweep.push(Adversary::TargetedDelay { targets: vec![member], seed: 0xc0 });
        }
        if let Some(listener) = (0..n).find(|i| !members.contains(i)) {
            sweep.push(Adversary::TargetedDelay { targets: vec![listener], seed: 0xc1 });
        }
        sweep.push(Adversary::Partition { boundary: n / 2, seed: 0xc2 });
        sweep
    }
}

impl fmt::Display for Adversary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Adversary::Fifo => write!(f, "fifo"),
            Adversary::Random { seed } => write!(f, "random(seed={seed})"),
            Adversary::TargetedDelay { targets, seed } => {
                write!(f, "targeted-delay(targets={targets:?}, seed={seed})")
            }
            Adversary::Partition { boundary, seed } => {
                write!(f, "partition(boundary={boundary}, seed={seed})")
            }
        }
    }
}

/// The outcome of one simulation under one adversary.
#[derive(Debug, Clone)]
pub struct SweepRun<O> {
    /// The schedule this run executed under.
    pub adversary: Adversary,
    /// Why the simulation stopped and how many deliveries it took.
    pub report: RunReport,
    /// Every party's final output (by party index).
    pub outputs: Vec<Option<O>>,
    /// `honest[i]` is `false` for parties the fault plan removed from the
    /// agreement/validity quantifiers (Byzantine or crashed), as
    /// [`Simulation::is_honest`] reports them.  Parties mounted with
    /// [`Simulation::crash_after`] stay honest: if one outputs before
    /// crashing, that output must agree.
    pub honest: Vec<bool>,
    /// `awaited[i]` is `false` for parties the termination quantifier does
    /// not wait for (Byzantine, crashed, or mounted with
    /// [`Simulation::crash_after`]): the complement of [`Metrics::excluded`].
    pub awaited: Vec<bool>,
    /// The paper's three performance metrics for this run (communication,
    /// messages, asynchronous rounds).
    pub metrics: Metrics,
}

impl<O: Clone + fmt::Debug> SweepRun<O> {
    /// The outputs of the honest parties that produced one.
    pub fn honest_outputs(&self) -> Vec<O> {
        self.outputs
            .iter()
            .zip(&self.honest)
            .filter(|(_, &h)| h)
            .filter_map(|(o, _)| o.clone())
            .collect()
    }

    /// Asserts **termination**: the run stopped because every honest party
    /// produced an output (not by budget exhaustion or quiescence).
    pub fn assert_termination(&self) {
        assert_eq!(
            self.report.reason,
            StopReason::AllOutputs,
            "termination violated under {}: {:?} after {} deliveries",
            self.adversary,
            self.report.reason,
            self.report.deliveries
        );
        let missing: Vec<usize> = self
            .outputs
            .iter()
            .zip(&self.awaited)
            .enumerate()
            .filter(|(_, (o, &awaited))| awaited && o.is_none())
            .map(|(i, _)| i)
            .collect();
        assert!(
            missing.is_empty(),
            "termination violated under {}: honest parties {missing:?} have no output",
            self.adversary
        );
    }

    /// Asserts **agreement**: all honest outputs are pairwise equal.
    pub fn assert_agreement(&self)
    where
        O: PartialEq,
    {
        let outs = self.honest_outputs();
        for (i, pair) in outs.windows(2).enumerate() {
            assert!(
                pair[0] == pair[1],
                "agreement violated under {}: honest output {i} = {:?} but {} = {:?}",
                self.adversary,
                pair[0],
                i + 1,
                pair[1]
            );
        }
    }

    /// Asserts **validity**: every honest output satisfies the predicate.
    pub fn assert_validity(&self, valid: impl Fn(&O) -> bool) {
        for (i, out) in self.honest_outputs().iter().enumerate() {
            assert!(
                valid(out),
                "validity violated under {}: honest output {i} = {out:?}",
                self.adversary
            );
        }
    }

    /// Committee-aware termination + agreement: every awaited party —
    /// member and listener alike — produced an output, all honest outputs
    /// are pairwise equal, **and** at least one honest *member* decided.
    /// The last clause keeps the assertion non-vacuous: listeners only
    /// adopt, so a run where no member decided could not have terminated
    /// for a legitimate reason.
    pub fn assert_committee_agreement(&self, members: &[usize])
    where
        O: PartialEq,
    {
        self.assert_termination();
        self.assert_agreement();
        let member_decided =
            members.iter().any(|&i| self.honest[i] && self.outputs[i].is_some());
        assert!(
            member_decided,
            "no honest committee member decided under {}",
            self.adversary
        );
    }

    /// The first honest output (panics if there is none — call
    /// [`Self::assert_termination`] first).
    pub fn first_output(&self) -> O {
        self.honest_outputs()
            .into_iter()
            .next()
            .unwrap_or_else(|| panic!("no honest output under {}", self.adversary))
    }
}

/// Runs a freshly built simulation under every adversary in the sweep.
///
/// `make` is called once per adversary so each run starts from fresh state
/// machines; it builds the simulation on [`Adversary::scheduler`] and
/// applies the fault plan.  The adversary is passed in so the parties can
/// derive schedule-distinct session identifiers if they want distinct
/// randomness.
///
/// # Panics
///
/// Panics if a run's books do not balance: a delivery-budget unit spent on
/// anything but a delivery, or a sent copy that was neither delivered,
/// purged, nor left in flight.
pub fn sweep<M, O>(
    adversaries: &[Adversary],
    budget: u64,
    mut make: impl FnMut(&Adversary) -> Simulation<M, O>,
) -> Vec<SweepRun<O>>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug + 'static,
{
    adversaries
        .iter()
        .map(|adversary| {
            let mut sim = make(adversary);
            let report = sim.run(budget);
            // Budget reconciliation: the delivery engine purges traffic to
            // crashed parties, so every consumed budget unit must be an
            // actual delivery.  Enforced here so every harness user checks
            // it on every run for free.
            assert_eq!(
                report.deliveries,
                sim.metrics().delivered_messages,
                "budget/delivery mismatch under {adversary}: the engine burned budget on \
                 undeliverable messages"
            );
            // Conservation: every copy sent, by honest and Byzantine parties
            // alike, was delivered, purged (receiver crashed), or is still in
            // flight when the run stopped.
            let m = sim.metrics();
            let sent = m.honest_messages + m.byzantine_messages;
            let settled = m.delivered_messages + m.purged_messages + sim.in_flight() as u64;
            assert_eq!(
                sent, settled,
                "conservation violated under {adversary}: sent {sent} != delivered + purged + \
                 in flight {settled}"
            );
            SweepRun {
                adversary: adversary.clone(),
                report,
                outputs: sim.outputs(),
                honest: (0..sim.n()).map(|i| sim.is_honest(PartyId(i))).collect(),
                awaited: m.excluded.iter().map(|&excluded| !excluded).collect(),
                metrics: m.clone(),
            }
        })
        .collect()
}

/// [`sweep`] + [`SweepRun::assert_termination`] + [`SweepRun::assert_agreement`]
/// in one call — the common case for agreement protocols.  Returns the runs
/// for further protocol-specific checks.
pub fn assert_agreement_sweep<M, O>(
    adversaries: &[Adversary],
    budget: u64,
    make: impl FnMut(&Adversary) -> Simulation<M, O>,
) -> Vec<SweepRun<O>>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug + PartialEq + 'static,
{
    let runs = sweep(adversaries, budget, make);
    for run in &runs {
        run.assert_termination();
        run.assert_agreement();
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use setupfree_net::{BoxedParty, ProtocolInstance, Step};

    /// Toy quorum protocol: output after hearing from `quorum` parties.
    #[derive(Debug)]
    struct Echo {
        quorum: usize,
        heard: std::collections::BTreeSet<usize>,
        output: Option<usize>,
    }

    impl Echo {
        /// `n` parties that each output after hearing `quorum` senders.
        fn sim(n: usize, quorum: usize, adv: &Adversary) -> Simulation<u64, usize> {
            let parties = (0..n)
                .map(|_| {
                    Box::new(Echo { quorum, heard: Default::default(), output: None })
                        as BoxedParty<u64, usize>
                })
                .collect();
            Simulation::new(parties, adv.scheduler())
        }
    }

    impl ProtocolInstance for Echo {
        type Message = u64;
        type Output = usize;

        fn on_activation(&mut self) -> Step<u64> {
            Step::multicast(1)
        }

        fn on_message(&mut self, from: PartyId, _msg: u64) -> Step<u64> {
            self.heard.insert(from.index());
            if self.heard.len() >= self.quorum && self.output.is_none() {
                self.output = Some(self.quorum);
            }
            Step::none()
        }

        fn output(&self) -> Option<usize> {
            self.output
        }
    }

    #[test]
    fn standard_sweep_covers_all_adversary_kinds() {
        let sweep = Adversary::standard_sweep(4, 3);
        assert_eq!(sweep.len(), 6);
        assert_eq!(sweep[0], Adversary::Fifo);
        assert!(matches!(sweep[1], Adversary::Random { seed: 0 }));
        assert!(matches!(sweep[4], Adversary::TargetedDelay { .. }));
        assert!(matches!(sweep[5], Adversary::Partition { boundary: 2, .. }));
    }

    #[test]
    fn committee_sweep_targets_a_member_and_a_listener() {
        let sweep = Adversary::committee_sweep(10, &[2, 5, 9], 2);
        assert_eq!(sweep.len(), 6);
        assert_eq!(sweep[0], Adversary::Fifo);
        // Starves member 2, then listener 0 (first non-member index).
        assert_eq!(sweep[3], Adversary::TargetedDelay { targets: vec![2], seed: 0xc0 });
        assert_eq!(sweep[4], Adversary::TargetedDelay { targets: vec![0], seed: 0xc1 });
        assert!(matches!(sweep[5], Adversary::Partition { boundary: 5, .. }));
    }

    #[test]
    fn honest_ensemble_passes_all_invariants() {
        let sweep = Adversary::standard_sweep(4, 3);
        let runs = assert_agreement_sweep(&sweep, 10_000, |adv| Echo::sim(4, 3, adv));
        for run in &runs {
            run.assert_validity(|&v| v == 3);
            assert_eq!(run.first_output(), 3);
        }
    }

    #[test]
    fn silent_party_is_excluded_from_the_quantifiers() {
        let runs = sweep(&Adversary::standard_sweep(4, 2), 10_000, |adv| {
            let mut sim = Echo::sim(4, 3, adv);
            sim.silence(PartyId(1));
            sim
        });
        for run in &runs {
            run.assert_termination();
            run.assert_agreement();
            assert_eq!(run.honest_outputs().len(), 3);
            assert!(run.outputs[1].is_none());
        }
    }

    #[test]
    fn crash_after_goes_silent_mid_run() {
        // With quorum 3 of 4 and one party crashing after its first two
        // deliveries, the remaining three parties still hear three senders
        // (the crasher's activation multicast was already in flight).
        let runs = sweep(&[Adversary::Fifo, Adversary::Random { seed: 1 }], 10_000, |adv| {
            let mut sim = Echo::sim(4, 3, adv);
            sim.crash_after(PartyId(0), 2);
            sim
        });
        for run in &runs {
            run.assert_termination();
            assert_eq!(run.honest_outputs().len(), 3);
        }
    }

    #[test]
    fn crash_at_start_party_never_speaks() {
        let runs = sweep(&[Adversary::Fifo], 10_000, |adv| {
            let mut sim = Echo::sim(4, 3, adv);
            sim.crash(PartyId(2));
            sim
        });
        runs[0].assert_termination();
        assert!(runs[0].outputs[2].is_none());
        // The three live parties' copies to the crashed party are charged
        // to the senders but purged by the engine, never delivered — and
        // the budget books balance exactly (also asserted inside `sweep`).
        assert_eq!(runs[0].metrics.purged_messages, 3);
        assert_eq!(runs[0].report.deliveries, runs[0].metrics.delivered_messages);
        assert_eq!(runs[0].metrics.honest_messages, 12);
    }

    #[test]
    #[should_panic(expected = "termination violated")]
    fn starved_quorum_fails_termination_with_schedule_in_message() {
        // Quorum of 4 with one silent party can never complete.
        let runs = sweep(&[Adversary::Random { seed: 3 }], 10_000, |adv| {
            let mut sim = Echo::sim(4, 4, adv);
            sim.silence(PartyId(0));
            sim
        });
        runs[0].assert_termination();
    }

    #[test]
    fn runs_are_deterministic_per_adversary() {
        let run_once = || {
            let runs = sweep(&[Adversary::Random { seed: 9 }], 10_000, |adv| Echo::sim(7, 5, adv));
            runs[0].report.deliveries
        };
        assert_eq!(run_once(), run_once());
    }
}
