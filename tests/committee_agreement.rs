//! Adversarial battery for committee-subsampled agreement (PR 7 tentpole).
//!
//! Committee sampling changes the fault model: safety now rests on the
//! *sampled* committee having at most `f_c = ⌊(m−1)/3⌋` corrupt members, so
//! the worst case is an adversary that corrupts its global budget **inside**
//! the committee.  These tests make that adversary explicit:
//! [`worst_committee_seed`] scans a seed pool for the committee with the
//! largest overlap with the adversary's candidate set, the overlapping
//! members (up to `f_c`) are silenced, and the run must still terminate
//! with member/listener agreement under every schedule of the committee
//! sweep — including a targeted-delay starvation of a committee member.
//!
//! Scale: n ∈ {40, 100}, far past the all-to-all grids of PRs 1–6.  The
//! committee instances plug the trusted (zero-message) coin and election so
//! the battery isolates the committee logic itself; the full setup-free
//! stack at small n is exercised in `tests/full_stack.rs`.

use std::sync::Arc;

use setupfree_aba::MmrAbaFactory;
use setupfree_core::traits::AbaFactory;
use setupfree_core::{
    worst_committee_seed, Committee, CommitteeConfig, TrustedCoinFactory, TrustedElectionFactory,
};
use setupfree_crypto::{generate_pki, PartySecrets};
use setupfree_net::mux::Envelope;
use setupfree_net::{BoxedParty, PartyId, Sid, Simulation};
use setupfree_testkit::{sweep, Adversary};
use setupfree_vba::{accept_all, Vba};

/// The adversary's candidate corruption set: the global fault budget's worth
/// of parties, spread across the index space (not a prefix, so prefix-biased
/// committees would not dodge it by accident).
fn candidate_corruptions(n: usize) -> Vec<usize> {
    let budget = (n - 1) / 3;
    (0..budget).map(|k| (k * 7 + 1) % n).collect()
}

/// Picks the worst committee from a 32-seed pool: the one with the most
/// adversary candidates inside, silenced up to `f_c`.
fn worst_committee(n: usize, size: usize, domain: &str) -> (Committee, Vec<usize>) {
    let pool: Vec<u64> = (0..32).collect();
    let config = CommitteeConfig::new(size, domain);
    let candidates = candidate_corruptions(n);
    let (_seed, committee, corrupt) = worst_committee_seed(&pool, &config, n, &candidates);
    assert!(corrupt.len() <= committee.f());
    (committee, corrupt)
}

fn member_indices(committee: &Committee) -> Vec<usize> {
    committee.members().iter().map(|p| p.index()).collect()
}

fn committee_aba_sim(
    n: usize,
    f: usize,
    committee: &Committee,
    corrupt: &[usize],
    adv: &Adversary,
) -> Simulation<Envelope, bool> {
    let parties = (0..n)
        .map(PartyId)
        .map(|me| {
            let factory =
                MmrAbaFactory::with_committee(me, n, f, TrustedCoinFactory, committee.clone());
            // Mixed inputs across members so the decision is not forced.
            Box::new(factory.create(Sid::new("committee-aba"), me.index() % 2 == 0))
                as BoxedParty<Envelope, bool>
        })
        .collect();
    let mut sim = Simulation::new(parties, adv.scheduler());
    for &c in corrupt {
        sim.silence(PartyId(c));
    }
    sim
}

fn committee_vba_sim(
    n: usize,
    committee: &Committee,
    corrupt: &[usize],
    pki_seed: u64,
    adv: &Adversary,
) -> Simulation<Envelope, Vec<u8>> {
    let (keyring, secrets) = generate_pki(n, pki_seed);
    let keyring = Arc::new(keyring);
    let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();
    let f = keyring.f();
    let parties = (0..n)
        .map(PartyId)
        .map(|me| {
            let aba =
                MmrAbaFactory::with_committee(me, n, f, TrustedCoinFactory, committee.clone());
            Box::new(Vba::with_committee(
                Sid::new("committee-vba"),
                me,
                keyring.clone(),
                secrets[me.index()].clone(),
                format!("proposal-{}", me.index()).into_bytes(),
                accept_all(),
                TrustedElectionFactory::new(n),
                aba,
                committee.clone(),
            )) as BoxedParty<Envelope, Vec<u8>>
        })
        .collect();
    let mut sim = Simulation::new(parties, adv.scheduler());
    for &c in corrupt {
        sim.silence(PartyId(c));
    }
    sim
}

/// Committee ABA at n = 40 with the worst sampled committee: up to `f_c`
/// Byzantine members *inside* the committee, every schedule of the committee
/// sweep (FIFO, random, member starvation, listener starvation, partition).
#[test]
fn committee_aba_n40_worst_committee_full_sweep() {
    let (n, size) = (40, 10);
    let (committee, corrupt) = worst_committee(n, size, "aba-battery");
    assert!(!corrupt.is_empty(), "the pool must yield at least one inside corruption");
    let members = member_indices(&committee);
    let adversaries = Adversary::committee_sweep(n, &members, 3);
    let runs = sweep(&adversaries, 400_000_000, |adv| {
        committee_aba_sim(n, (n - 1) / 3, &committee, &corrupt, adv)
    });
    for run in &runs {
        run.assert_committee_agreement(&members);
        // Validity: some member held each input bit, so any common bit is
        // valid; pin instead that listeners adopted the members' bit.
        let member_bit = members
            .iter()
            .find(|&&m| !corrupt.contains(&m))
            .and_then(|&m| run.outputs[m])
            .expect("an honest member decided");
        run.assert_validity(|&b| b == member_bit);
    }
}

/// Committee ABA at n = 100 (committee of 16, f_c = 5): liveness and
/// agreement survive the worst committee under random + member-starvation
/// schedules.
#[test]
fn committee_aba_n100_worst_committee() {
    let (n, size) = (100, 16);
    let (committee, corrupt) = worst_committee(n, size, "aba-battery-100");
    let members = member_indices(&committee);
    let mut adversaries = Adversary::random_sweep(2);
    adversaries.push(Adversary::TargetedDelay { targets: vec![members[0]], seed: 0xbad });
    let runs = sweep(&adversaries, 1_000_000_000, |adv| {
        committee_aba_sim(n, (n - 1) / 3, &committee, &corrupt, adv)
    });
    for run in &runs {
        run.assert_committee_agreement(&members);
    }
}

/// Committee VBA at n = 40: worst committee, up to `f_c` silent members
/// inside it, full committee sweep.  The decided value must be an honest
/// *member's* proposal (listeners never propose; silent members never
/// finish their consistent broadcast).
#[test]
fn committee_vba_n40_worst_committee_full_sweep() {
    let (n, size) = (40, 10);
    let (committee, corrupt) = worst_committee(n, size, "vba-battery");
    let members = member_indices(&committee);
    let adversaries = Adversary::committee_sweep(n, &members, 2);
    let runs = sweep(&adversaries, 600_000_000, |adv| {
        committee_vba_sim(n, &committee, &corrupt, 0x7b, adv)
    });
    for run in &runs {
        run.assert_committee_agreement(&members);
        run.assert_validity(|v| {
            members.iter().any(|&m| v == &format!("proposal-{m}").into_bytes())
        });
    }
}

/// Committee VBA at n = 100 (committee of 16): agreement and termination
/// under random scheduling plus starvation of a committee member.
#[test]
fn committee_vba_n100_worst_committee() {
    let (n, size) = (100, 16);
    let (committee, corrupt) = worst_committee(n, size, "vba-battery-100");
    let members = member_indices(&committee);
    let mut adversaries = Adversary::random_sweep(1);
    adversaries.push(Adversary::TargetedDelay { targets: vec![members[0]], seed: 0xbee });
    let runs = sweep(&adversaries, 2_000_000_000, |adv| {
        committee_vba_sim(n, &committee, &corrupt, 0x7c, adv)
    });
    for run in &runs {
        run.assert_committee_agreement(&members);
    }
}
