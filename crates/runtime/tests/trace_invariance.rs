//! Tracing under the sharded runtime: the per-session event streams are
//! part of the determinism contract, the admission trace records every
//! policy consultation, and a full-stack beacon session's stream
//! reconstructs into the protocol's span tree.
//!
//! The W-invariance pin matters because traces are recorded by
//! thread-local sinks, one installed per session on the worker that runs
//! it, and a worker runs its shard's sessions one after another: if any
//! event leaked into the next session's sink, the streams would differ
//! between worker counts.

use std::sync::Arc;

use setupfree_aba::{MmrAba, MmrAbaFactory};
use setupfree_app::beacon::{BeaconEpoch, RandomBeacon, K_ELECTION, K_SEEDS};
use setupfree_core::{coin, election, TrustedCoinFactory};
use setupfree_crypto::{generate_pki, Keyring, PartySecrets};
use setupfree_net::{BoxedParty, Envelope, PartyId, RandomScheduler, Sid};
use setupfree_obs::analysis::{span_tree, SpanNode};
use setupfree_obs::{EventKind, ObsPath, Phase, NO_PARTY};
use setupfree_runtime::{SessionSetup, ShardedHost, TokenBucket};

fn trusted_aba_session(n: usize, session: usize, base_seed: u64) -> SessionSetup<Envelope, bool> {
    let parties: Vec<BoxedParty<Envelope, bool>> = (0..n)
        .map(|i| {
            Box::new(MmrAba::new(
                Sid::new("traced-sharded").derive("session", session),
                PartyId(i),
                n,
                (n - 1) / 3,
                (i + session).is_multiple_of(2),
                TrustedCoinFactory,
            )) as BoxedParty<Envelope, bool>
        })
        .collect();
    SessionSetup::new(
        parties,
        Box::new(RandomScheduler::new(base_seed ^ (session as u64).wrapping_mul(0x9e37_79b9))),
        1_000_000,
    )
}

/// Each session's trace event count in the grid below (seed `0x7E`),
/// recorded from the single-thread shard merge.
const TRACE_EVENT_COUNTS: [usize; 5] = [260, 449, 232, 337, 498];

#[test]
fn session_traces_are_identical_for_every_worker_count() {
    let n = 4;
    let k = 5;
    let run_with = |workers: usize| {
        ShardedHost::new(workers, k, move |s| trusted_aba_session(n, s, 0x7E))
            .with_tracing()
            .run_parallel()
    };
    let golden = run_with(1);
    assert!(golden.all_terminated());
    for (s, trace) in golden.session_traces.iter().enumerate() {
        assert!(!trace.is_empty(), "session {s} recorded no events");
        // Deterministic installs leave the wall clock off: the stream is a
        // pure function of the session, so it can be a golden at all.
        assert!(trace.iter().all(|e| e.wall_ns == 0), "session streams are wall-free");
    }
    let counts: Vec<usize> = golden.session_traces.iter().map(Vec::len).collect();
    assert_eq!(counts, TRACE_EVENT_COUNTS, "the recorded per-session event counts");
    for workers in [2, 4] {
        let report = run_with(workers);
        assert_eq!(
            report.session_traces, golden.session_traces,
            "W={workers} must replay every session's exact event stream"
        );
    }
}

#[test]
fn untraced_runs_record_nothing() {
    let report = ShardedHost::new(2, 3, move |s| trusted_aba_session(4, s, 0x7E)).run_parallel();
    assert!(report.all_terminated());
    assert!(report.session_traces.iter().all(Vec::is_empty));
    assert!(report.admission_trace.is_empty());
}

#[test]
fn the_admission_trace_records_every_decision() {
    let n = 4;
    let k = 6;
    let report = ShardedHost::new(2, k, move |s| trusted_aba_session(n, s, 0xAD))
        .with_admission(TokenBucket::new(2, 2000))
        .with_tracing()
        .run_parallel();
    assert!(report.all_terminated());

    let decisions: Vec<_> = report
        .admission_trace
        .iter()
        .map(|e| match e.kind {
            EventKind::Admission { session, admitted, forced, tokens, live } => {
                assert_eq!(e.party, NO_PARTY, "admission is a host decision, not a party's");
                (session, admitted, forced, tokens, live)
            }
            ref other => panic!("non-admission event in the admission trace: {other:?}"),
        })
        .collect();

    // Every session was eventually admitted — by the policy's own verdict
    // or the liveness floor's forced override — in session order.
    let admitted: Vec<u32> =
        decisions.iter().filter(|d| d.1 || d.2).map(|d| d.0).collect();
    assert_eq!(admitted, (0..k as u32).collect::<Vec<_>>());
    // A stingy bucket (burst 2, one token per 2000 deliveries) cannot wave
    // everything through up front: the trace shows the policy saying no —
    // or the idle-host liveness floor overriding it.
    assert!(
        decisions.iter().any(|d| !d.1 || d.2),
        "a TokenBucket(2, 2000) over 6 sessions must defer or force at least once"
    );
    // Token-bucket decisions expose their token state.
    assert!(decisions.iter().all(|d| d.3.is_some()), "TokenBucket reports its tokens");
}

#[test]
fn a_full_stack_beacon_session_reconstructs_its_span_tree() {
    let n = 4;
    let epochs = 2u32;
    let (keyring, secrets) = generate_pki(n, 0xBEAC);
    let keyring = Arc::new(keyring);
    let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();
    let make = {
        let keyring: Arc<Keyring> = keyring.clone();
        let secrets = secrets.clone();
        move |s: usize| {
            let parties: Vec<BoxedParty<Envelope, Vec<BeaconEpoch>>> = (0..n)
                .map(|i| {
                    let aba = MmrAbaFactory::new(PartyId(i), n, keyring.f(), TrustedCoinFactory);
                    Box::new(RandomBeacon::new(
                        Sid::new("traced-beacon").derive("session", s),
                        PartyId(i),
                        keyring.clone(),
                        secrets[i].clone(),
                        aba,
                        epochs,
                    )) as BoxedParty<Envelope, Vec<BeaconEpoch>>
                })
                .collect();
            SessionSetup::new(parties, Box::new(RandomScheduler::new(0xB0)), 1 << 30)
        }
    };
    let report = ShardedHost::new(1, 1, make).with_tracing().run_parallel();
    assert!(report.all_terminated());
    let trace = &report.session_traces[0];

    // One party's view of the run is a rooted span tree.
    let party0: Vec<_> = trace.iter().filter(|e| e.party == 0).cloned().collect();
    let tree = span_tree(&party0);
    assert!(tree.path.is_root());
    assert!(tree.decided.is_some(), "the root beacon machine decided");
    assert!(
        tree.children.len() >= epochs as usize,
        "at least one child span per epoch, saw {}",
        tree.children.len()
    );
    // The beacon nests elections, which nest coins, which nest sharing —
    // the tree must be deep, not a flat list of leaves.
    fn depth(node: &setupfree_obs::analysis::SpanNode) -> usize {
        1 + node.children.iter().map(depth).max().unwrap_or(0)
    }
    assert!(depth(&tree) >= 3, "full-stack spans nest, saw depth {}", depth(&tree));
    // Both epoch phases were marked on the root span.
    for epoch in 0..epochs {
        assert!(
            tree.phases.iter().any(|&(phase, info, _, _)| phase == Phase::BeaconEpoch && info == epoch),
            "epoch {epoch} phase mark missing from the root span"
        );
    }
    // Every span the tree synthesised is reachable by its own path.
    fn walk(node: &setupfree_obs::analysis::SpanNode, tree: &setupfree_obs::analysis::SpanNode) {
        assert!(tree.find(&node.path).is_some());
        for c in &node.children {
            assert!(c.path.starts_with(&node.path), "children extend their parent's path");
            walk(c, tree);
        }
    }
    walk(&tree, &tree);

    // Phases land on their own instance's span, also inside the children a
    // parent holds directly rather than in a router (the election's coin,
    // the coin's WCS): each epoch's election has a coin child that reveals
    // the bit, its WCS commits at the coin's WCS path, and every sharing
    // phase sits below that coin.  The seeds are run once per beacon, by
    // the pool at the beacon's root: every seeding mark sits at a leader's
    // Seeding there, `(K_SEEDS, j)` with j < n, and none below a coin.
    let has = |node: &SpanNode, phase: Phase| node.phases.iter().any(|&(p, ..)| p == phase);
    let coins: Vec<ObsPath> = (0..epochs as u16)
        .map(|epoch| ObsPath::from_segments(&[(K_ELECTION, epoch), (election::K_COIN, 0)]))
        .collect();
    let wcs_of = |coin: &ObsPath| {
        let mut wcs = *coin;
        wcs.push_back(coin::K_WCS, 0);
        wcs
    };
    for (epoch, coin) in coins.iter().enumerate() {
        let span = tree.find(coin).unwrap_or_else(|| panic!("epoch {epoch}: no coin span"));
        assert!(has(span, Phase::CoinRevealed), "epoch {epoch}: the coin span reveals no bit");
        let wcs = tree.find(&wcs_of(coin));
        assert!(wcs.is_some_and(|w| has(w, Phase::WcsCommit)), "epoch {epoch}: no WCS commit");
    }
    let pool: Vec<ObsPath> =
        (0..n as u16).map(|leader| ObsPath::from_segments(&[(K_SEEDS, leader)])).collect();
    let mut seeded = 0;
    fn visit(node: &SpanNode, check: &mut impl FnMut(&SpanNode)) {
        check(node);
        node.children.iter().for_each(|c| visit(c, check));
    }
    visit(&tree, &mut |node| {
        for &(phase, ..) in &node.phases {
            let below_a_coin = coins.iter().any(|c| node.path.starts_with(c) && node.path != *c);
            match phase {
                Phase::AvssShare | Phase::AvssCipher => {
                    assert!(below_a_coin, "{} at {:?} is not below a coin", phase.name(), node.path)
                }
                Phase::CoinSeeded => {
                    let at = node.path;
                    assert!(pool.contains(&at), "CoinSeeded at {at:?} is not in the pool");
                    seeded += 1;
                }
                Phase::WcsCommit => assert!(
                    coins.iter().any(|c| node.path == wcs_of(c)),
                    "WcsCommit at {:?} is not a coin's WCS",
                    node.path
                ),
                _ => {}
            }
        }
    });
    // Every coin needs n − f seeds, and each leader's Seeding marks once.
    assert!(
        (keyring.quorum()..=n).contains(&seeded),
        "{seeded} seeding marks at party 0, not one per landed leader"
    );
}
