//! Cross-crate property and adversarial tests of the substrates, focused on
//! the security properties the paper's proofs rely on (Definitions 1–4).
//! Simulation-backed checks run through the shared adversarial harness
//! (`setupfree-testkit`); algebraic properties run as property tests.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use setupfree::crypto::poly::{shamir_reconstruct, shamir_share};
use setupfree::crypto::pvss::{PvssParams, PvssScript};
use setupfree::crypto::scalar::Scalar;
use setupfree::crypto::SigningKey;
use setupfree::prelude::*;
use setupfree_avss::harness::AvssSharing;
use setupfree_avss::{Avss, AvssShareOutput};
use setupfree_testkit::{sweep, Adversary};
use setupfree_wcs::WcsHarness;

fn keys(n: usize, seed: u64) -> (Arc<Keyring>, Vec<Arc<PartySecrets>>) {
    let (keyring, secrets) = generate_pki(n, seed);
    (Arc::new(keyring), secrets.into_iter().map(Arc::new).collect())
}

// ---------------------------------------------------------------------------
// AVSS: commitment under adversarial scheduling (Definition 1).
// ---------------------------------------------------------------------------

#[test]
fn avss_commitment_holds_under_many_schedules() {
    let n = 4;
    let (keyring, secrets) = keys(n, 51);
    // Eight random schedules plus the structured adversaries; the dealer
    // (party 2) is also targeted for worst-case delay.
    let mut adversaries = Adversary::standard_sweep(n, 8);
    adversaries.push(Adversary::TargetedDelay { targets: vec![2], seed: 77 });
    let runs = sweep(&adversaries, 5_000_000, |adv| {
        let sid = Sid::new("prop-avss");
        let parties = (0..n)
            .map(PartyId)
            .map(|i| {
                let input = if i.index() == 2 { Some(vec![9u8; 40]) } else { None };
                Box::new(AvssSharing::new(Avss::new(
                    sid.clone(),
                    i,
                    PartyId(2),
                    keyring.clone(),
                    secrets[i.index()].clone(),
                    input,
                ))) as BoxedParty<AvssMessage, AvssShareOutput>
            })
            .collect();
        Simulation::new(parties, adv.scheduler())
    });
    for run in &runs {
        run.assert_termination();
        // Commitment: every party ends with the same committed ciphertext
        // (the shares themselves are per-party evaluation points).
        let outs = run.honest_outputs();
        assert!(
            outs.windows(2).all(|w| w[0].cipher == w[1].cipher),
            "commitment violated under {}",
            run.adversary
        );
    }
}

// ---------------------------------------------------------------------------
// Secrecy-style checks: f shares reveal nothing reconstructable.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn shamir_f_shares_do_not_reconstruct(secret in any::<u64>(), seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::SeedableRng;
        let secret = Scalar::from_u64(secret);
        let f = 2usize;
        let (_, shares) = shamir_share(secret, f, 7, &mut rng);
        // Any f shares interpolate to the wrong value with overwhelming
        // probability (information-theoretic hiding).
        let wrong = shamir_reconstruct(&shares[..f]);
        prop_assume!(secret != Scalar::zero());
        prop_assert_ne!(wrong, secret);
        // f + 1 shares always work.
        prop_assert_eq!(shamir_reconstruct(&shares[..f + 1]), secret);
    }

    #[test]
    fn shamir_roundtrips_under_random_thresholds(secret in any::<u64>(), f in 1usize..6, extra in 0usize..4, seed in any::<u64>()) {
        // The satellite property: share/reconstruct is the identity for any
        // threshold f and any quorum of f + 1 (or more) shares out of
        // n = 3f + 1.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::SeedableRng;
        let secret = Scalar::from_u64(secret);
        let n = 3 * f + 1;
        let (poly, shares) = shamir_share(secret, f, n, &mut rng);
        prop_assert_eq!(shares.len(), n);
        prop_assert_eq!(poly.eval_at_index(0), secret);
        let take = (f + 1 + extra).min(n);
        prop_assert_eq!(shamir_reconstruct(&shares[..take]), secret);
        // A disjoint quorum reconstructs the same secret.
        prop_assert_eq!(shamir_reconstruct(&shares[n - (f + 1)..]), secret);
    }

    #[test]
    fn pvss_weights_track_aggregation(a_secret in any::<u64>(), b_secret in any::<u64>(), seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::SeedableRng;
        let n = 5;
        let params = PvssParams::new(n, 2);
        let mut eks = Vec::new();
        let mut sig_keys = Vec::new();
        for _ in 0..n {
            let (_, ek) = setupfree::crypto::pvss::PvssDecryptionKey::generate(&mut rng);
            eks.push(ek);
            sig_keys.push(SigningKey::generate(&mut rng));
        }
        let a = PvssScript::deal(&params, &eks, &sig_keys[0], 0, Scalar::from_u64(a_secret), &mut rng);
        let b = PvssScript::deal(&params, &eks, &sig_keys[3], 3, Scalar::from_u64(b_secret), &mut rng);
        let agg = a.aggregate(&b).unwrap();
        prop_assert_eq!(agg.weights()[0], 1);
        prop_assert_eq!(agg.weights()[3], 1);
        prop_assert_eq!(agg.contributor_count(), 2);
        // Aggregating a script with itself doubles the weight but keeps it
        // verifiable.
        let doubled = a.aggregate(&a).unwrap();
        prop_assert_eq!(doubled.weights()[0], 2);
    }
}

// ---------------------------------------------------------------------------
// WCS: the (f+1)-supporting core-set property (Definition 2), measured.
// ---------------------------------------------------------------------------

#[test]
fn wcs_outputs_contain_a_common_core() {
    let n = 7;
    let f = 2;
    let (keyring, secrets) = keys(n, 52);
    let runs = sweep(&Adversary::standard_sweep(n, 6), 5_000_000, |adv| {
        let sid = Sid::new("prop-wcs");
        let input: BTreeSet<usize> = (0..n).collect();
        let parties = (0..n)
            .map(PartyId)
            .map(|i| {
                Box::new(WcsHarness::new(
                    Wcs::new(sid.clone(), keyring.clone(), secrets[i.index()].clone()),
                    input.clone(),
                )) as BoxedParty<WcsMessage, Vec<usize>>
            })
            .collect();
        Simulation::new(parties, adv.scheduler())
    });
    for run in &runs {
        run.assert_termination();
        let outs = run.honest_outputs();
        // There must exist an (n - f)-sized set contained in at least f + 1
        // outputs.  With full inputs every output is the full set, so check
        // the stronger statement that the intersection of *all* outputs has
        // at least n - f elements.
        let mut intersection: BTreeSet<usize> = (0..n).collect();
        for out in &outs {
            let s: BTreeSet<usize> = out.iter().copied().collect();
            intersection = intersection.intersection(&s).copied().collect();
        }
        assert!(
            intersection.len() >= n - f,
            "core too small under {}: {intersection:?}",
            run.adversary
        );
    }
}

// ---------------------------------------------------------------------------
// Seeding: unpredictability across sessions and leaders (Definition 4).
// ---------------------------------------------------------------------------

#[test]
fn seeding_seeds_differ_across_sessions_and_leaders() {
    let n = 4;
    let (keyring, secrets) = keys(n, 53);
    let run = |sid: &str, leader: usize| {
        let runs = sweep(&[Adversary::Fifo], 5_000_000, |adv| {
            let sid = Sid::new(sid);
            let parties = (0..n)
                .map(PartyId)
                .map(|i| {
                    Box::new(Seeding::new(
                        sid.clone(),
                        i,
                        PartyId(leader),
                        keyring.clone(),
                        secrets[i.index()].clone(),
                    )) as BoxedParty<SeedingMessage, [u8; 32]>
                })
                .collect();
            Simulation::new(parties, adv.scheduler())
        });
        runs[0].assert_termination();
        runs[0].assert_agreement();
        runs[0].first_output()
    };
    let a = run("sess-1", 0);
    let b = run("sess-2", 0);
    let c = run("sess-1", 1);
    assert_ne!(a, b, "different sessions must give different seeds");
    assert_ne!(a, c, "different leaders must give different seeds");
}

// ---------------------------------------------------------------------------
// Coin: output bits vary across sessions (unpredictability smoke test) and
// duplicate message delivery does not break anything.
// ---------------------------------------------------------------------------

#[test]
fn coin_bits_vary_and_duplicated_traffic_is_harmless() {
    let n = 4;
    let (keyring, secrets) = keys(n, 54);
    let mut bits = Vec::new();
    for t in 0..5u64 {
        let runs = sweep(&[Adversary::Fifo], 1 << 28, |adv| {
            let sid = Sid::new(&format!("prop-coin-{t}"));
            let parties = (0..n)
                .map(PartyId)
                .map(|i| {
                    let coin =
                        Coin::new(sid.clone(), i, keyring.clone(), secrets[i.index()].clone());
                    if i.index() == 3 {
                        // One party duplicates every message it sends;
                        // handlers must be idempotent ("first time" rules in
                        // the paper).
                        Box::new(setupfree::net::DuplicatingParty::new(coin))
                            as BoxedParty<Envelope, CoinOutput>
                    } else {
                        Box::new(coin) as BoxedParty<Envelope, CoinOutput>
                    }
                })
                .collect();
            Simulation::new(parties, adv.scheduler())
        });
        runs[0].assert_termination();
        bits.push(runs[0].first_output().bit);
    }
    assert!(
        bits.iter().any(|b| *b) && bits.iter().any(|b| !*b),
        "bits {bits:?} constant across sessions"
    );
}
