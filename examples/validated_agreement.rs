//! Validated Byzantine agreement (§7.2): four replicas of a BFT service
//! propose candidate batches; the VBA picks one batch that satisfies the
//! external-validity predicate ("the batch is well-formed and non-empty"),
//! even though one replica is silent (crashed).
//!
//! Run with: `cargo run --release --example validated_agreement`

use std::sync::Arc;

use setupfree::prelude::*;
use setupfree_aba::MmrAbaFactory;
use setupfree_core::coin::CoinProtocolFactory;

fn main() {
    let n = 4;
    let (keyring, secrets) = generate_pki(n, 512);
    let keyring = Arc::new(keyring);
    let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();

    // External validity: a batch must start with the tag byte 0xB1 and carry
    // at least one transaction.
    let predicate: Predicate = Arc::new(|v: &[u8]| v.first() == Some(&0xB1) && v.len() > 1);

    // The full setup-free stack: the VBA's elections and vote-ABAs all run
    // ABAs whose rounds flip the real Coin.
    type FullAba = MmrAbaFactory<CoinProtocolFactory>;
    type FullVba = Vba<ElectionProtocolFactory<FullAba>, FullAba>;
    let parties: Vec<BoxedParty<<FullVba as ProtocolInstance>::Message, Vec<u8>>> = (0..n)
        .map(|i| {
            let batch = {
                let mut b = vec![0xB1u8];
                b.extend_from_slice(format!("txs-from-replica-{i}").as_bytes());
                b
            };
            let af = setup_free_aba_factory(PartyId(i), keyring.clone(), secrets[i].clone());
            let ef = ElectionProtocolFactory::new(
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                af.clone(),
            );
            Box::new(Vba::new(
                Sid::new("example-vba"),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                batch,
                predicate.clone(),
                ef,
                af,
            )) as BoxedParty<<FullVba as ProtocolInstance>::Message, Vec<u8>>
        })
        .collect();

    let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(11)));
    // Replica 3 has crashed before the agreement started.
    sim.silence(PartyId(3));
    let report = sim.run(1 << 30);
    assert_eq!(report.reason, StopReason::AllOutputs);

    println!("validated agreement with one crashed replica:");
    for (i, out) in sim.outputs().into_iter().enumerate().take(3) {
        let out = out.expect("live replicas decide");
        println!("  P{i}: decided batch = {:?}", String::from_utf8_lossy(&out));
        assert!(predicate(&out), "external validity");
    }
    let m = sim.metrics();
    println!(
        "cost: {} messages, {} bits, {} asynchronous rounds",
        m.honest_messages,
        m.honest_bits(),
        m.rounds_to_all_outputs().unwrap()
    );
}
