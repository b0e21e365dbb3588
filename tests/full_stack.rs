//! Cross-crate integration tests: the paper's complete protocol stack
//! (Seeding → AVSS → WCS → Coin → ABA → Election → VBA) exercised end-to-end
//! through the shared adversarial harness (`setupfree-testkit`) — every
//! protocol runs across a sweep of seeded schedulers, with crash faults and
//! maliciously generated keys, and the agreement/validity/termination
//! invariants are asserted uniformly per schedule.

use std::sync::Arc;

use setupfree::prelude::*;
use setupfree_aba::MmrAbaFactory;
use setupfree_core::coin::CoinProtocolFactory;
use setupfree_testkit::{assert_agreement_sweep, sweep, Adversary};

fn keys(n: usize, seed: u64) -> (Arc<Keyring>, Vec<Arc<PartySecrets>>) {
    let (keyring, secrets) = generate_pki(n, seed);
    (Arc::new(keyring), secrets.into_iter().map(Arc::new).collect())
}

type FullElection = Election<MmrAbaFactory<CoinProtocolFactory>>;
type ElectionMsg = <FullElection as ProtocolInstance>::Message;

fn election_sim(
    n: usize,
    adv: &Adversary,
    sid: &str,
    keyring: &Arc<Keyring>,
    secrets: &[Arc<PartySecrets>],
) -> Simulation<ElectionMsg, ElectionOutput> {
    let sid = Sid::new(sid);
    let parties = (0..n)
        .map(PartyId)
        .map(|i| {
            let aba = setup_free_aba_factory(i, keyring.clone(), secrets[i.index()].clone());
            Box::new(Election::new(
                sid.clone(),
                i,
                keyring.clone(),
                secrets[i.index()].clone(),
                aba,
            )) as BoxedParty<ElectionMsg, ElectionOutput>
        })
        .collect();
    Simulation::new(parties, adv.scheduler())
}

/// The acceptance bar for this repo: the full-stack election must reach
/// perfect agreement under FIFO, several distinct random schedules, a
/// targeted-delay adversary and a partition — all through one harness call.
#[test]
fn election_full_stack_agreement_across_schedules() {
    let n = 4;
    let (keyring, secrets) = keys(n, 1);
    let runs = assert_agreement_sweep(&Adversary::standard_sweep(n, 3), 1 << 30, |adv| {
        // A schedule-distinct session id gives every run fresh protocol
        // randomness while staying fully reproducible.
        election_sim(n, adv, &format!("it-election-{adv}"), &keyring, &secrets)
    });
    for run in &runs {
        run.assert_validity(|out| out.leader.index() < n);
    }
}

#[test]
fn election_full_stack_tolerates_a_silent_party() {
    let n = 4;
    let (keyring, secrets) = keys(n, 2);
    let runs = assert_agreement_sweep(&Adversary::random_sweep(3), 1 << 30, |adv| {
        let mut sim = election_sim(n, adv, &format!("it-election-crash-{adv}"), &keyring, &secrets);
        sim.silence(PartyId(1));
        sim
    });
    for run in &runs {
        assert_eq!(run.honest_outputs().len(), 3, "under {}", run.adversary);
    }
}

#[test]
fn coin_with_gather_core_set_also_terminates_and_agrees_often() {
    // The ablation mode (conventional RBC gather instead of WCS) must be a
    // functioning coin too — it is the cost, not the correctness, that
    // differs.  Termination is asserted per schedule by the harness;
    // agreement of a weak coin is only probabilistic, so it is counted.
    let n = 4;
    let (keyring, secrets) = keys(n, 3);
    let trials = 6;
    let runs = sweep(&Adversary::random_sweep(trials), 1 << 28, |adv| {
        let sid = Sid::new(&format!("it-gather-{adv}"));
        let parties = (0..n)
            .map(PartyId)
            .map(|i| {
                Box::new(Coin::with_core_mode(
                    sid.clone(),
                    i,
                    keyring.clone(),
                    secrets[i.index()].clone(),
                    CoreSetMode::RbcGather,
                )) as BoxedParty<Envelope, CoinOutput>
            })
            .collect();
        Simulation::new(parties, adv.scheduler())
    });
    let mut agreements = 0u64;
    for run in &runs {
        run.assert_termination();
        let bits: Vec<bool> = run.honest_outputs().iter().map(|o| o.bit).collect();
        if bits.windows(2).all(|w| w[0] == w[1]) {
            agreements += 1;
        }
    }
    assert!(agreements * 3 >= trials, "agreement rate {agreements}/{trials}");
}

#[test]
fn coin_remains_fair_with_maliciously_generated_keys() {
    // §3: corrupted parties may register adversarially generated key
    // material.  The Seeding-patched VRF prevents them from biasing the coin;
    // here we check the protocol still terminates and honest parties still
    // agree (under benign scheduling) even when f parties registered
    // malicious keys.
    let n = 4;
    let (keyring, secrets) = generate_pki_with_malicious(n, 4, &[3]);
    let keyring = Arc::new(keyring);
    let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();
    let runs = sweep(&[Adversary::Fifo], 1 << 28, |adv| {
        let sid = Sid::new("it-malicious");
        let parties = (0..n)
            .map(PartyId)
            .map(|i| {
                Box::new(Coin::new(sid.clone(), i, keyring.clone(), secrets[i.index()].clone()))
                    as BoxedParty<Envelope, CoinOutput>
            })
            .collect();
        Simulation::new(parties, adv.scheduler())
    });
    for run in &runs {
        run.assert_termination();
        // Only the bit is common knowledge; `max_vrf` is speculative
        // per-party state, so whole-output agreement would be too strong.
        let bits: Vec<bool> = run.honest_outputs().iter().map(|o| o.bit).collect();
        assert!(bits.windows(2).all(|w| w[0] == w[1]), "bit agreement under {}", run.adversary);
    }
}

#[test]
fn aba_full_stack_with_crash_fault() {
    let n = 4;
    let (keyring, secrets) = keys(n, 5);
    let inputs = [true, false, true, true];
    // The full standard sweep (FIFO, 3 random schedules, targeted delay,
    // partition), each with party 3 silenced (Byzantine from the start).
    let runs = assert_agreement_sweep(&Adversary::standard_sweep(n, 3), 1 << 30, |adv| {
        let sid = Sid::new("it-aba");
        let parties = (0..n)
            .map(PartyId)
            .map(|i| {
                let factory =
                    CoinProtocolFactory::new(i, keyring.clone(), secrets[i.index()].clone());
                Box::new(MmrAba::new(sid.clone(), i, n, keyring.f(), inputs[i.index()], factory))
                    as BoxedParty<Envelope, bool>
            })
            .collect();
        let mut sim = Simulation::new(parties, adv.scheduler());
        sim.silence(PartyId(3));
        sim
    });
    for run in &runs {
        let decided = run.honest_outputs();
        assert_eq!(decided.len(), 3, "under {}", run.adversary);
        assert!(inputs.contains(&decided[0]), "validity under {}", run.adversary);
    }
}

#[test]
fn vba_full_stack_external_validity_and_agreement() {
    let n = 4;
    let (keyring, secrets) = keys(n, 6);
    let predicate: Predicate = Arc::new(|v: &[u8]| !v.is_empty() && v[0] == 0x7a);

    type FullAba = MmrAbaFactory<CoinProtocolFactory>;
    type FullVba = Vba<ElectionProtocolFactory<FullAba>, FullAba>;
    type VbaMsg = <FullVba as ProtocolInstance>::Message;
    let inputs: Vec<Vec<u8>> = (0..n).map(|i| vec![0x7a, i as u8]).collect();
    let runs = assert_agreement_sweep(&Adversary::random_sweep(3), 1 << 30, |adv| {
        let sid = Sid::new(&format!("it-vba-{adv}"));
        let parties = (0..n)
            .map(PartyId)
            .map(|i| {
                let af = setup_free_aba_factory(i, keyring.clone(), secrets[i.index()].clone());
                let ef = ElectionProtocolFactory::new(
                    i,
                    keyring.clone(),
                    secrets[i.index()].clone(),
                    af.clone(),
                );
                Box::new(Vba::new(
                    sid.clone(),
                    i,
                    keyring.clone(),
                    secrets[i.index()].clone(),
                    inputs[i.index()].clone(),
                    predicate.clone(),
                    ef,
                    af,
                )) as BoxedParty<VbaMsg, Vec<u8>>
            })
            .collect();
        Simulation::new(parties, adv.scheduler())
    });
    for run in &runs {
        run.assert_validity(|out| predicate(out));
        run.assert_validity(|out| inputs.contains(out));
    }
}

#[test]
fn communication_of_the_coin_is_cubic_not_quartic() {
    // Sanity-check the headline complexity claim end-to-end from the facade:
    // growing n from 4 to 10 must grow the coin's communication by far less
    // than the n⁴ baseline would (10/4)⁴ ≈ 39×.
    let measure = |n: usize| {
        let (keyring, secrets) = keys(n, 7);
        let runs = sweep(&[Adversary::Fifo], 1 << 30, |adv| {
            let sid = Sid::new("it-scale");
            let parties = (0..n)
                .map(PartyId)
                .map(|i| {
                    Box::new(Coin::new(sid.clone(), i, keyring.clone(), secrets[i.index()].clone()))
                        as BoxedParty<Envelope, CoinOutput>
                })
                .collect();
            Simulation::new(parties, adv.scheduler())
        });
        // Termination only: this test measures communication.  Whole-output
        // agreement would be too strong (`max_vrf` is speculative per-party
        // state), and bit agreement is covered by the dedicated coin tests.
        runs[0].assert_termination();
        runs[0].metrics.honest_bytes as f64
    };
    let b4 = measure(4);
    let b10 = measure(10);
    let growth = b10 / b4;
    // (10/4)^3 ≈ 15.6; allow generous slack but stay far from the ≈ 39× of n⁴.
    assert!(growth < 30.0, "growth {growth:.1}× looks super-cubic");
    assert!(growth > 5.0, "growth {growth:.1}× suspiciously small");
}
