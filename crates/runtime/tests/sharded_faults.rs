//! Fault-plan composition in the sharded runtime (PR 8 satellite).
//!
//! Each `SessionSetup` holds its session's `Simulation`, and with it the
//! session's fault plan — `sim.crash_after` wraps a party so it goes silent
//! mid-run, `silence` replaces one with a mute Byzantine machine — and both
//! compose with per-session adversarial schedulers.  The test matrix: one
//! session starved by a targeted-delay scheduler, another losing a quorum
//! member mid-run, and a third suffering both at once, all inside one
//! sharded host.  Every healthy quorum still terminates and agrees, the
//! per-session conservation law still balances, and the whole report stays
//! cell-for-cell identical across worker counts.

use setupfree_aba::MmrAba;
use setupfree_core::TrustedCoinFactory;
use setupfree_net::{
    BoxedParty, Envelope, PartyId, RandomScheduler, Scheduler, Sid, StopReason,
    TargetedDelayScheduler,
};
use setupfree_runtime::{SessionSetup, ShardedHost};

const N: usize = 4;
const CRASHED: usize = 3;
const BUDGET: u64 = 1_000_000;

fn aba_parties(session: usize) -> Vec<BoxedParty<Envelope, bool>> {
    (0..N)
        .map(|i| {
            Box::new(MmrAba::new(
                Sid::new("sharded-faults").derive("session", session),
                PartyId(i),
                N,
                (N - 1) / 3,
                (i + session).is_multiple_of(2),
                TrustedCoinFactory,
            )) as BoxedParty<Envelope, bool>
        })
        .collect()
}

/// The four-session fault grid: 0 is clean, 1 is starved (all traffic
/// touching party 0 is maximally delayed), 2 loses party `CRASHED` after
/// five deliveries, 3 is starved *and* loses the same quorum member.
fn faulted_session(s: usize) -> SessionSetup<Envelope, bool> {
    let seed = 0xFA17 ^ (s as u64).wrapping_mul(0x9e37_79b9);
    let scheduler: Box<dyn Scheduler> = if s == 1 || s == 3 {
        Box::new(TargetedDelayScheduler::new(vec![PartyId(0)], seed))
    } else {
        Box::new(RandomScheduler::new(seed))
    };
    let mut setup = SessionSetup::new(aba_parties(s), scheduler, BUDGET);
    if s == 2 || s == 3 {
        setup.sim.crash_after(PartyId(CRASHED), 5);
    }
    setup
}

/// `fingerprints()` of the fault grid, recorded from the single-thread shard
/// merge: `(session, deliveries, rounds, sent, honest_bytes)`.
const FAULT_FINGERPRINTS: [(usize, u64, Option<u64>, u64, u64); 4] = [
    (0, 82, Some(11), 116, 748),
    (1, 1349, Some(262), 1696, 11808),
    (2, 73, Some(9), 92, 596),
    (3, 144, Some(26), 160, 1072),
];

/// The grid's recorded outputs: every party decides `true`, except the
/// member crashed in sessions 2 and 3.
const FAULT_OUTPUTS: [[Option<bool>; N]; 4] = [
    [Some(true), Some(true), Some(true), Some(true)],
    [Some(true), Some(true), Some(true), Some(true)],
    [Some(true), Some(true), Some(true), None],
    [Some(true), Some(true), Some(true), None],
];

fn agreement(outputs: &[Option<bool>]) -> bool {
    let decided: Vec<bool> = outputs.iter().flatten().copied().collect();
    decided.windows(2).all(|w| w[0] == w[1])
}

#[test]
fn starved_and_crash_faulted_sessions_still_terminate_and_agree() {
    let report = ShardedHost::new(2, 4, faulted_session).run_parallel();
    for r in &report.sessions {
        assert_eq!(
            r.reason,
            StopReason::AllOutputs,
            "session {} must close on outputs, not wedge or exhaust",
            r.session
        );
    }
    report.assert_conservation();
    for s in 0..4 {
        let outputs = &report.outputs[s];
        assert!(agreement(outputs), "session {s} agreement: {outputs:?}");
        // The healthy quorum (everyone but a crashed member) always decides.
        for (i, out) in outputs.iter().enumerate() {
            let crashed = (s == 2 || s == 3) && i == CRASHED;
            if !crashed {
                assert!(out.is_some(), "session {s} party {i} must decide");
            }
        }
    }
    // Clean session 0 has a full roster of decisions.
    assert!(report.outputs[0].iter().all(|o| o.is_some()));
}

#[test]
fn fault_plans_do_not_break_worker_invariance() {
    let golden = ShardedHost::new(1, 4, faulted_session).run_parallel();
    assert!(golden.all_terminated());
    assert_eq!(golden.fingerprints(), FAULT_FINGERPRINTS, "the recorded per-session table");
    for (s, outputs) in FAULT_OUTPUTS.iter().enumerate() {
        assert_eq!(golden.outputs[s], outputs, "session {s} recorded outputs");
    }
    for workers in [2, 4] {
        let report = ShardedHost::new(workers, 4, faulted_session).run_parallel();
        assert_eq!(
            report.fingerprints(),
            golden.fingerprints(),
            "fault-plan sessions must stay cell-for-cell identical between W=1 and W={workers}"
        );
        for s in 0..4 {
            assert_eq!(report.outputs[s], golden.outputs[s], "session {s} outputs diverged");
        }
        report.assert_conservation();
    }
}

#[test]
fn a_silenced_party_is_byzantine_not_awaited() {
    // `silence` marks the party Byzantine: the three honest parties of an
    // n = 4, f = 1 ABA still decide around it, and its (zero) traffic is
    // excluded from the honest books.
    let make = |s: usize| {
        let setup = SessionSetup::new(
            aba_parties(s),
            Box::new(RandomScheduler::new(0x51EE + s as u64)),
            BUDGET,
        );
        if s == 1 { setup.silence(0) } else { setup }
    };
    let report = ShardedHost::new(2, 2, make).run_parallel();
    for r in &report.sessions {
        assert_eq!(r.reason, StopReason::AllOutputs, "session {}", r.session);
    }
    report.assert_conservation();
    assert!(report.outputs[1][0].is_none(), "the silenced party never decides");
    for i in 1..N {
        assert!(report.outputs[1][i].is_some(), "honest party {i} decides");
    }
    assert!(agreement(&report.outputs[1]));
}
