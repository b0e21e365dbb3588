//! The beacon runs its seeds once per run, not once per epoch.
//!
//! Every epoch's coin needs one seed per party (§6.1).  `RandomBeacon`
//! hosts one seed pool for all its epochs, at its own root path kind
//! `K_SEEDS`, and every epoch's coin reads it.  So a beacon runs exactly `n`
//! Seedings per party however many epochs it runs, with or without child
//! GC: none per epoch after the first.  When every epoch's coin ran `n`
//! Seedings of its own, this count grew with the epochs.
//!
//! The count is read off a traced n = 4 FIFO run: a Seeding is `Activated`
//! once at every party, and marks `CoinSeeded` once where its seed lands.

use std::sync::Arc;

use setupfree::app::beacon::{K_ELECTION, K_SEEDS};
use setupfree::core::{coin, election};
use setupfree::prelude::*;
use setupfree_obs::{EventKind, ObsPath, Phase, TraceEvent, VecSink};

const N: usize = 4;

/// Per party of a traced FIFO beacon: (Seeding activations at the pool,
/// Seeding activations below an epoch's coin, `CoinSeeded` marks anywhere).
fn seedings_per_party(epochs: u32, gc: bool) -> Vec<(usize, usize, usize)> {
    let (keyring, secrets) = generate_pki(N, 29);
    let keyring = Arc::new(keyring);
    let parties: Vec<BoxedParty<Envelope, Vec<BeaconEpoch>>> = secrets
        .into_iter()
        .enumerate()
        .map(|(i, secrets)| {
            let aba = MmrAbaFactory::new(PartyId(i), N, keyring.f(), TrustedCoinFactory);
            let beacon = RandomBeacon::new(
                Sid::new(&format!("seedings-{epochs}-{gc}")),
                PartyId(i),
                keyring.clone(),
                Arc::new(secrets),
                aba,
                epochs,
            );
            let beacon = if gc { beacon.with_child_gc() } else { beacon };
            Box::new(beacon) as BoxedParty<Envelope, Vec<BeaconEpoch>>
        })
        .collect();
    let mut sim = Simulation::new(parties, Box::new(FifoScheduler::default()));
    setupfree_obs::install(Box::new(VecSink::new()));
    let report = sim.run(1 << 30);
    let trace = setupfree_obs::uninstall().map(|mut sink| sink.drain()).unwrap_or_default();
    assert_eq!(report.reason, StopReason::AllOutputs, "{epochs} epochs, gc {gc}: termination");
    let outputs: Vec<Vec<BeaconEpoch>> = sim.outputs().into_iter().flatten().collect();
    assert!(outputs.windows(2).all(|w| w[0] == w[1]), "{epochs} epochs, gc {gc}: agreement");
    assert_eq!(outputs[0].len(), epochs as usize);

    let in_pool = |path: &ObsPath| {
        matches!(path.segments().collect::<Vec<_>>()[..], [(K_SEEDS, j)] if (j as usize) < N)
    };
    let below_a_coin = |path: &ObsPath| {
        matches!(
            path.segments().collect::<Vec<_>>()[..],
            [(K_ELECTION, _), (election::K_COIN, 0), (coin::K_SEEDING, _)]
        )
    };
    (0..N as u16)
        .map(|p| {
            let mine = || trace.iter().filter(move |e| e.party == p);
            let activated = |at: &dyn Fn(&ObsPath) -> bool| {
                let at = |e: &&TraceEvent| matches!(&e.kind, EventKind::Activated { path } if at(path));
                mine().filter(at).count()
            };
            let marks = mine()
                .filter(|e| matches!(e.kind, EventKind::Phase { phase: Phase::CoinSeeded, .. }))
                .count();
            (activated(&in_pool), activated(&below_a_coin), marks)
        })
        .collect()
}

#[test]
fn a_beacon_runs_n_seedings_per_party_whatever_its_epochs() {
    for epochs in [1, 4] {
        for gc in [false, true] {
            let counts = seedings_per_party(epochs, gc);
            for (p, &(pool, per_epoch, marks)) in counts.iter().enumerate() {
                assert_eq!(
                    (pool, per_epoch, marks),
                    (N, 0, N),
                    "{epochs} epochs, gc {gc}, party {p}: (pool Seedings, per-epoch Seedings, \
                     seeds landed)"
                );
            }
        }
    }
}
