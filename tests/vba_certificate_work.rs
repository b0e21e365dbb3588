//! Certificate work of the VBA at the benchmark's shape, gated by a
//! deterministic counter.
//!
//! A VBA Vote forwards the elected leader's `Confirm` byte for byte, so the
//! proposer travels with its certificate and each honest party verifies
//! each proposer's certificate at most once.  With `f` silent parties, the
//! `n − f` honest parties commit at most the `n − f` honest proposals: at
//! most `(n − f)²` `QuorumCert::verify` calls per decision, whatever the
//! schedule.  The count is exact and machine-independent
//! (`setupfree_crypto::sig::qc_verify_count` counts per thread, and the
//! simulation runs on the test thread).
//!
//! Beside the bound, the gate pins the exact SHA-256 block compressions of
//! each decision (`setupfree_crypto::hash::compression_count`, also per
//! thread), most of them certificate checks at k = n − f = 27 signers.
//! When each aggregation weight hashed its own 96-byte input (two
//! compressions per signer, `setupfree/sig/v2`), a decision took 91 366 /
//! 91 844 / 91 854 compressions for seeds 0 / 1 / 2: the ceiling for the
//! pinned column.  Now the weights come two per compression from one
//! counter-mode stream over the certificate's transcript digest.
//!
//! Shape: n = 40 with 13 `SilentParty`s marked Byzantine, the trusted
//! election and trusted-coin vote-ABAs (so the VBA's own certificate
//! checks are the only ones), 8-byte proposals under a magic-byte
//! predicate.

use std::collections::BTreeSet;
use std::sync::Arc;

use setupfree_aba::MmrAbaFactory;
use setupfree_core::{TrustedCoinFactory, TrustedElectionFactory};
use setupfree_crypto::hash::compression_count;
use setupfree_crypto::sig::qc_verify_count;
use setupfree_crypto::{generate_pki, PartySecrets};
use setupfree_net::mux::Envelope;
use setupfree_net::{
    BoxedParty, PartyId, RandomScheduler, Sid, SilentParty, Simulation, StopReason,
};
use setupfree_vba::{Predicate, Vba};

const N: usize = 40;
const F: usize = 13;
const MAGIC: u8 = 0x42;

/// SHA-256 compressions per decision, by seed.
const COMPRESSIONS: [u64; 3] = [61_882, 62_360, 62_370];

fn predicate() -> Predicate {
    Arc::new(|v: &[u8]| v.len() == 8 && v[0] == MAGIC)
}

fn proposal(seed: u64, party: usize) -> Vec<u8> {
    let mut v = (seed << 32 | party as u64).to_le_bytes();
    v[0] = MAGIC;
    v.to_vec()
}

#[test]
fn vba_verifies_each_proposers_certificate_once_per_party() {
    let (keyring, secrets) = generate_pki(N, 0xCE27);
    let keyring = Arc::new(keyring);
    let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();
    let bound = ((N - F) * (N - F)) as u64;
    for (seed, expected_compressions) in (0..3u64).zip(COMPRESSIONS) {
        // A seed-dependent spread of 13 distinct silent parties.
        let silent: BTreeSet<usize> = (0..F).map(|k| (3 * k + seed as usize) % N).collect();
        assert_eq!(silent.len(), F);
        let inputs: Vec<Vec<u8>> = (0..N).map(|i| proposal(seed, i)).collect();
        let parties: Vec<BoxedParty<Envelope, Vec<u8>>> = (0..N)
            .map(|i| {
                if silent.contains(&i) {
                    return Box::new(SilentParty::new()) as BoxedParty<Envelope, Vec<u8>>;
                }
                Box::new(Vba::new(
                    Sid::new(&format!("vba-cert-work-{seed}")),
                    PartyId(i),
                    keyring.clone(),
                    secrets[i].clone(),
                    inputs[i].clone(),
                    predicate(),
                    TrustedElectionFactory::new(N),
                    MmrAbaFactory::new(PartyId(i), N, F, TrustedCoinFactory),
                ))
            })
            .collect();
        let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
        for &p in &silent {
            sim.mark_byzantine(PartyId(p));
        }
        let (before, hash_before) = (qc_verify_count(), compression_count());
        let report = sim.run(20_000_000);
        let verifications = qc_verify_count() - before;
        let compressions = compression_count() - hash_before;

        assert_eq!(report.reason, StopReason::AllOutputs, "seed {seed}: termination");
        let outputs = sim.outputs();
        let decided: Vec<&Vec<u8>> = (0..N)
            .filter(|i| !silent.contains(i))
            .map(|i| outputs[i].as_ref().expect("every honest party decides"))
            .collect();
        assert!(decided.windows(2).all(|w| w[0] == w[1]), "seed {seed}: agreement");
        let honest_inputs: Vec<&Vec<u8>> =
            (0..N).filter(|i| !silent.contains(i)).map(|i| &inputs[i]).collect();
        assert!(
            predicate()(decided[0]) && honest_inputs.contains(&decided[0]),
            "seed {seed}: validity"
        );
        assert!(
            verifications <= bound,
            "seed {seed}: {verifications} certificate verifications, at most (n − f)² = {bound}"
        );
        assert_eq!(compressions, expected_compressions, "seed {seed}: compressions per decision");
    }
}
