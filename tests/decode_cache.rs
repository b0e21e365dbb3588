//! Decode-once coverage across the real protocol message types.
//!
//! The simulator decodes each send's envelope once and hands clones to the
//! remaining recipients, so they share one payload (see
//! `setupfree_net::sim`), and `Payload::open` memoizes the payload's typed
//! decode, so the first recipient's decode serves the rest (see
//! `setupfree_net::mux`).  In debug builds — which is how `cargo test`
//! compiles this file — both re-encode **every cloned decode they hand
//! out** and assert the bytes equal the original wire bytes ("clone
//! transparency").  Running a protocol here therefore property-checks, for
//! every message its ensemble exchanges (PVSS transcripts, group elements,
//! signatures, votes, …), that a shared decode is indistinguishable from a
//! fresh `from_bytes` decode.
//!
//! Each protocol family with a distinct message type gets a run below, under
//! both a fan-out-friendly schedule (FIFO: all n copies of a multicast
//! delivered while the first decode is alive) and a reordering one.

use std::sync::Arc;

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
                Box::new(Rbc::new(Sid::new("cache-rbc"), PartyId(i), n, 1, PartyId(0), input))
                    as BoxedParty<RbcMessage, Vec<u8>>
            })
            .collect();
        let mut sim = Simulation::new(parties, scheduler);
        let report = sim.run(1 << 22);
        assert_eq!(report.reason, StopReason::AllOutputs);
    }
}
