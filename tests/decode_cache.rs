//! Decode-once coverage across the real protocol message types.
//!
//! Each in-flight copy of a simulator send carries a clone of the sent
//! message (see `setupfree_net::sim`).  For an `Envelope` the clones share
//! one `Payload`, and `Payload::open` memoizes the payload's typed decode,
//! so the first recipient's decode serves the rest (see
//! `setupfree_net::mux`).  In debug builds — which is how `cargo test`
//! compiles this file — the simulator round-trips every send through the
//! codec (its charged length, its decode, and the re-encoding of that
//! decode must all match the wire bytes), and `Payload::open` re-encodes
//! **every memoized decode it hands out** and asserts the bytes equal the
//! payload's ("clone transparency").  Running a protocol here therefore
//! property-checks, for every message its ensemble exchanges (PVSS
//! transcripts, group elements, signatures, votes, …), that a shared decode
//! is indistinguishable from a fresh `from_bytes` decode.
//!
//! Each protocol family with a distinct message type gets a run below, under
//! both a fan-out-friendly schedule (FIFO: all n copies of a multicast
//! delivered while the first decode is alive) and a reordering one.  A
//! committee ABA pins the decodes of a committee fan-out, whose per-member
//! unicasts share one envelope.

use std::sync::Arc;

use setupfree::core::{Committee, CommitteeConfig};
use setupfree::net::mux::payload_decode_count;
use setupfree::prelude::*;

fn keys(n: usize, seed: u64) -> (Arc<Keyring>, Vec<Arc<PartySecrets>>) {
    let (keyring, secrets) = generate_pki(n, seed);
    (Arc::new(keyring), secrets.into_iter().map(Arc::new).collect())
}

fn schedules() -> Vec<Box<dyn setupfree::net::Scheduler>> {
    vec![Box::new(FifoScheduler::default()), Box::new(RandomScheduler::new(0xcac4e))]
}

#[test]
fn coin_messages_survive_cached_decode() {
    let n = 4;
    let (keyring, secrets) = keys(n, 31);
    for scheduler in schedules() {
        let parties: Vec<BoxedParty<Envelope, CoinOutput>> = (0..n)
            .map(|i| {
                Box::new(Coin::new(Sid::new("cache-coin"), PartyId(i), keyring.clone(), secrets[i].clone()))
                    as BoxedParty<Envelope, CoinOutput>
            })
            .collect();
        let mut sim = Simulation::new(parties, scheduler);
        let report = sim.run(1 << 28);
        assert_eq!(report.reason, StopReason::AllOutputs);
    }
}

#[test]
fn avss_messages_survive_cached_decode() {
    let n = 4;
    let (keyring, secrets) = keys(n, 32);
    for scheduler in schedules() {
        let parties: Vec<BoxedParty<AvssMessage, Vec<u8>>> = (0..n)
            .map(|i| {
                let input = (i == 0).then(|| vec![5u8; 48]);
                Box::new(setupfree::avss::harness::AvssEndToEnd::new(Avss::new(
                    Sid::new("cache-avss"),
                    PartyId(i),
                    PartyId(0),
                    keyring.clone(),
                    secrets[i].clone(),
                    input,
                ))) as BoxedParty<AvssMessage, Vec<u8>>
            })
            .collect();
        let mut sim = Simulation::new(parties, scheduler);
        let report = sim.run(1 << 26);
        assert_eq!(report.reason, StopReason::AllOutputs);
    }
}

#[test]
fn seeding_messages_survive_cached_decode() {
    let n = 4;
    let (keyring, secrets) = keys(n, 33);
    for scheduler in schedules() {
        let parties: Vec<BoxedParty<SeedingMessage, setupfree_seeding::Seed>> = (0..n)
            .map(|i| {
                Box::new(Seeding::new(
                    Sid::new("cache-seeding"),
                    PartyId(i),
                    PartyId(0),
                    keyring.clone(),
                    secrets[i].clone(),
                )) as BoxedParty<SeedingMessage, setupfree_seeding::Seed>
            })
            .collect();
        let mut sim = Simulation::new(parties, scheduler);
        let report = sim.run(1 << 26);
        assert_eq!(report.reason, StopReason::AllOutputs);
    }
}

#[test]
fn aba_with_real_coin_messages_survive_cached_decode() {
    let n = 4;
    let (keyring, secrets) = keys(n, 34);
    for scheduler in schedules() {
        let parties: Vec<BoxedParty<Envelope, bool>> = (0..n)
            .map(|i| {
                let factory = CoinProtocolFactory::new(PartyId(i), keyring.clone(), secrets[i].clone());
                Box::new(MmrAba::new(Sid::new("cache-aba"), PartyId(i), n, keyring.f(), i % 2 == 0, factory))
                    as BoxedParty<Envelope, bool>
            })
            .collect();
        let mut sim = Simulation::new(parties, scheduler);
        let report = sim.run(1 << 30);
        assert_eq!(report.reason, StopReason::AllOutputs);
    }
}

#[test]
fn rbc_messages_survive_cached_decode() {
    let n = 4;
    for scheduler in schedules() {
        let parties: Vec<BoxedParty<RbcMessage, Vec<u8>>> = (0..n)
            .map(|i| {
                let input = (i == 0).then(|| b"cache-coverage-payload".to_vec());
                Box::new(Rbc::new(PartyId(i), n, 1, PartyId(0), input))
                    as BoxedParty<RbcMessage, Vec<u8>>
            })
            .collect();
        let mut sim = Simulation::new(parties, scheduler);
        let report = sim.run(1 << 22);
        assert_eq!(report.reason, StopReason::AllOutputs);
    }
}

/// One committee ABA run's traffic and decoding work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CommitteeWork {
    deliveries: u64,
    honest_messages: u64,
    honest_bytes: u64,
    payload_decodes: u64,
}

/// `(seed, work)` per run.  Ceiling: when the simulator re-encoded every
/// send and decoded it again at its first delivery, each per-member unicast
/// of a fan-out was an allocation of its own and was decoded again, and the
/// same runs, over the same deliveries, messages and bytes, took
/// 876 / 867 / 882 payload decodes for seeds 0 / 1 / 2.
const COMMITTEE_GOLDEN: [(u64, CommitteeWork); 3] = [
    (0, CommitteeWork { deliveries: 1_141, honest_messages: 1_360, honest_bytes: 7_920, payload_decodes: 104 }),
    (1, CommitteeWork { deliveries: 1_094, honest_messages: 1_340, honest_bytes: 7_780, payload_decodes: 104 }),
    (2, CommitteeWork { deliveries: 1_142, honest_messages: 1_360, honest_bytes: 7_920, payload_decodes: 105 }),
];

#[test]
fn committee_fan_outs_share_one_decode() {
    // n = 40 with a sampled committee of 10: members reach each other by
    // `Committee::fan_out`, one unicast per member, all clones of one
    // envelope.
    let n = 40;
    let committee =
        Committee::sample(&CommitteeConfig::new(10, "aba"), &0xFEEDu64.to_le_bytes(), n);
    assert!(!committee.is_full(), "a proper committee fans out by unicast");
    for (seed, expected) in COMMITTEE_GOLDEN {
        let parties: Vec<BoxedParty<Envelope, bool>> = (0..n)
            .map(|i| {
                Box::new(MmrAba::with_committee(
                    Sid::new("committee-aba"),
                    PartyId(i),
                    n,
                    13,
                    i % 2 == 0,
                    TrustedCoinFactory,
                    committee.clone(),
                )) as BoxedParty<Envelope, bool>
            })
            .collect();
        let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
        let decodes_before = payload_decode_count();
        let report = sim.run(1 << 22);
        let work = CommitteeWork {
            deliveries: report.deliveries,
            honest_messages: sim.metrics().honest_messages,
            honest_bytes: sim.metrics().honest_bytes,
            payload_decodes: payload_decode_count() - decodes_before,
        };

        assert_eq!(report.reason, StopReason::AllOutputs, "seed {seed}: termination");
        let decided: Vec<bool> =
            sim.outputs().into_iter().map(|o| o.expect("every party decides")).collect();
        assert!(decided.windows(2).all(|w| w[0] == w[1]), "seed {seed}: agreement");
        assert_eq!(work, expected, "seed {seed}: committee decode work");
    }
}
