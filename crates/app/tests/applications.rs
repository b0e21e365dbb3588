//! Integration tests for the §7.3 applications: the DKG-free random beacon
//! and the asynchronous DKG, run through the shared adversarial harness
//! across several seeded schedules.
//!
//! To keep the tests fast the plugged ABA uses the idealised trusted coin;
//! the full setup-free stack (real Coin inside the ABA) is exercised by the
//! workspace-level integration tests.

use std::sync::Arc;

use setupfree_aba::MmrAbaFactory;
use setupfree_app::adkg::{Adkg, AdkgOutput};
use setupfree_app::beacon::{BeaconEpoch, RandomBeacon};
use setupfree_core::election::ElectionProtocolFactory;
use setupfree_core::TrustedCoinFactory;
use setupfree_crypto::{generate_pki, Keyring, PartySecrets};
use setupfree_net::{BoxedParty, PartyId, ProtocolInstance, Sid, Simulation};
use setupfree_testkit::{assert_agreement_sweep, sweep, Adversary};

fn setup(n: usize, seed: u64) -> (Arc<Keyring>, Vec<Arc<PartySecrets>>) {
    let (keyring, secrets) = generate_pki(n, seed);
    (Arc::new(keyring), secrets.into_iter().map(Arc::new).collect())
}

#[test]
fn beacon_epochs_agree_across_parties_and_schedules() {
    let n = 4;
    let (keyring, secrets) = setup(n, 11);
    let epochs = 2;
    type B = RandomBeacon<MmrAbaFactory<TrustedCoinFactory>>;
    type BeaconMsg = <B as ProtocolInstance>::Message;
    // Agreement per epoch is whole-output agreement on the Vec<BeaconEpoch>,
    // so the harness's uniform assertion covers it; run the full standard
    // sweep (FIFO, random, targeted-delay, partition schedules).
    let runs = assert_agreement_sweep(&Adversary::standard_sweep(n, 3), 100_000_000, |adv| {
        let sid = Sid::new("beacon");
        let parties = (0..n)
            .map(PartyId)
            .map(|i| {
                let aba = MmrAbaFactory::new(i, n, keyring.f(), TrustedCoinFactory);
                Box::new(RandomBeacon::new(
                    sid.clone(),
                    i,
                    keyring.clone(),
                    secrets[i.index()].clone(),
                    aba,
                    epochs,
                )) as BoxedParty<BeaconMsg, Vec<BeaconEpoch>>
            })
            .collect();
        Simulation::new(parties, adv.scheduler())
    });
    for run in &runs {
        run.assert_validity(|out| out.len() == epochs as usize);
        // Unbiasedness smoke-check: two epochs that both produced values
        // must not produce the same value.
        let values: Vec<_> = run.first_output().iter().filter_map(|e| e.value).collect();
        if values.len() >= 2 {
            assert_ne!(values[0], values[1], "under {}", run.adversary);
        }
    }
}

#[test]
fn adkg_all_parties_agree_on_public_key_and_hold_valid_shares() {
    let n = 4;
    let (keyring, secrets) = setup(n, 13);
    type Aba = MmrAbaFactory<TrustedCoinFactory>;
    type A = Adkg<ElectionProtocolFactory<Aba>, Aba>;
    type AdkgMsg = <A as ProtocolInstance>::Message;
    let runs = sweep(&Adversary::random_sweep(3), 100_000_000, |adv| {
        let sid = Sid::new("adkg");
        let parties = (0..n)
            .map(PartyId)
            .map(|i| {
                let af = MmrAbaFactory::new(i, n, keyring.f(), TrustedCoinFactory);
                let ef = ElectionProtocolFactory::new(
                    i,
                    keyring.clone(),
                    secrets[i.index()].clone(),
                    af.clone(),
                );
                Box::new(Adkg::new(
                    sid.clone(),
                    i,
                    keyring.clone(),
                    secrets[i.index()].clone(),
                    ef,
                    af,
                )) as BoxedParty<AdkgMsg, AdkgOutput>
            })
            .collect();
        Simulation::new(parties, adv.scheduler())
    });
    for run in &runs {
        run.assert_termination();
        let outputs = run.honest_outputs();
        // All parties agree on the distributed public key and the
        // contributor set size; the key aggregates ≥ n − f contributions.
        for w in outputs.windows(2) {
            assert_eq!(w[0].public_commitment, w[1].public_commitment, "under {}", run.adversary);
            assert_eq!(w[0].contributors, w[1].contributors, "under {}", run.adversary);
        }
        run.assert_validity(|out| out.contributors >= keyring.quorum());
        // Shares are distinct per party (each decrypts its own evaluation
        // point).
        assert_ne!(outputs[0].share, outputs[1].share, "under {}", run.adversary);
    }
}
