//! Concurrent sessions on the sharded runtime: pipelined beacon epochs.
//!
//! The beacon runs one leader election per epoch (§7.3); the pipelined
//! variant runs several epochs at once.  Here every epoch is its own
//! [`ShardedHost`] session — its own simulation, scheduler and delivery
//! budget — and a `MaxConcurrent(2)` admission window keeps two epoch
//! elections live side by side.

use std::sync::Arc;

use setupfree::prelude::*;
use setupfree::runtime::ShardedRunReport;

const N: usize = 4;
const EPOCHS: usize = 3;

fn keys(n: usize, seed: u64) -> (Arc<Keyring>, Vec<Arc<PartySecrets>>) {
    let (keyring, secrets) = generate_pki(n, seed);
    (Arc::new(keyring), secrets.into_iter().map(Arc::new).collect())
}

/// Epoch `e`'s session: the real `Election` with a trusted-coin ABA inside,
/// delivered by a `RandomScheduler` seeded per epoch.
fn epoch_session(
    e: usize,
    keyring: &Arc<Keyring>,
    secrets: &[Arc<PartySecrets>],
) -> SessionSetup<Envelope, ElectionOutput> {
    let parties: Vec<BoxedParty<Envelope, ElectionOutput>> = (0..N)
        .map(|i| {
            let aba = MmrAbaFactory::new(PartyId(i), N, keyring.f(), TrustedCoinFactory);
            Box::new(Election::new(
                Sid::new("it-pipe-beacon").derive("epoch", e),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                aba,
            )) as BoxedParty<Envelope, ElectionOutput>
        })
        .collect();
    SessionSetup::new(parties, Box::new(RandomScheduler::new(0xE90C + e as u64)), 1 << 30)
}

/// Each epoch's leader, after asserting that every party output one and
/// all of them agree.  The winning VRF is speculative per-party state, so
/// only leaders are compared.
fn agreed_leaders(report: &ShardedRunReport<ElectionOutput>) -> Vec<PartyId> {
    report
        .outputs
        .iter()
        .enumerate()
        .map(|(e, outs)| {
            let leaders: Vec<PartyId> = outs
                .iter()
                .map(|o| o.as_ref().unwrap_or_else(|| panic!("epoch {e}: a party has no output")))
                .map(|o| o.leader)
                .collect();
            assert!(
                leaders.windows(2).all(|w| w[0] == w[1]),
                "epoch {e} leaders disagree: {leaders:?}"
            );
            leaders[0]
        })
        .collect()
}

#[test]
fn pipelined_beacon_epochs_agree_on_leaders() {
    let (keyring, secrets) = keys(N, 92);
    let run = |parallel: bool| {
        let (keyring, secrets) = (keyring.clone(), secrets.clone());
        let host = ShardedHost::new(2, EPOCHS, move |e| epoch_session(e, &keyring, &secrets))
            .with_admission(MaxConcurrent(2));
        if parallel {
            host.run_parallel()
        } else {
            host.run()
        }
    };

    let merged = run(false);
    assert!(merged.all_terminated());
    merged.assert_conservation();
    assert_eq!(merged.peak_live_sessions, 2, "two epochs run side by side, never more");
    let leaders = agreed_leaders(&merged);
    assert_eq!(leaders.len(), EPOCHS);

    let parallel = run(true);
    assert!(parallel.all_terminated());
    assert_eq!(parallel.fingerprints(), merged.fingerprints());
    assert_eq!(agreed_leaders(&parallel), leaders);
}
