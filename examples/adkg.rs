//! Asynchronous distributed key generation (§7.3): every party contributes an
//! aggregatable PVSS, the VBA agrees on one valid aggregate, and each party
//! obtains its share of a threshold key — with no trusted dealer at any
//! point.
//!
//! Run with: `cargo run --release --example adkg`

use std::sync::Arc;

use setupfree::prelude::*;

fn main() {
    let n = 4;
    let (keyring, secrets) = generate_pki(n, 2718);
    let keyring = Arc::new(keyring);
    let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();

    // The VBA inside the ADKG elects each round's leader with the real Coin;
    // its ABAs use the trusted coin to keep the example fast (swap in
    // `setup_free_aba_factory` for the fully setup-free stack).
    type DemoAba = MmrAbaFactory<TrustedCoinFactory>;
    type DemoAdkg = Adkg<ElectionProtocolFactory<DemoAba>, DemoAba>;
    let parties: Vec<BoxedParty<<DemoAdkg as ProtocolInstance>::Message, AdkgOutput>> = (0..n)
        .map(|i| {
            let af = MmrAbaFactory::new(PartyId(i), n, keyring.f(), TrustedCoinFactory);
            let ef = ElectionProtocolFactory::new(
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                af.clone(),
            );
            Box::new(Adkg::new(
                Sid::new("example-adkg"),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                ef,
                af,
            )) as BoxedParty<<DemoAdkg as ProtocolInstance>::Message, AdkgOutput>
        })
        .collect();

    let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(5)));
    let report = sim.run(1 << 30);
    assert_eq!(report.reason, StopReason::AllOutputs);

    println!("asynchronous DKG result:");
    let outputs: Vec<AdkgOutput> = sim.outputs().into_iter().flatten().collect();
    for (i, out) in outputs.iter().enumerate() {
        println!(
            "  P{i}: public commitment = {:?}, contributors = {}",
            out.public_commitment, out.contributors
        );
    }
    assert!(outputs.windows(2).all(|w| w[0].public_commitment == w[1].public_commitment));
    println!("all parties agree on the distributed public key; each holds its own share.");
    let m = sim.metrics();
    println!(
        "cost: {} messages, {} bits, {} asynchronous rounds",
        m.honest_messages,
        m.honest_bits(),
        m.rounds_to_all_outputs().unwrap()
    );
}
