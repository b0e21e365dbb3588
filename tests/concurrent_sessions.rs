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

/// `fingerprints()` of the three epoch sessions below, recorded from the
/// single-thread shard merge: `(session, deliveries, rounds, sent,
/// honest_bytes)`.
const EPOCH_FINGERPRINTS: [(usize, u64, Option<u64>, u64, u64); EPOCHS] =
    [(0, 864, Some(72), 896, 48000), (1, 821, Some(75), 864, 47680), (2, 837, Some(69), 860, 47640)];

/// Each epoch's recorded leader.
const EPOCH_LEADERS: [PartyId; EPOCHS] = [PartyId(1), PartyId(2), PartyId(0)];

#[test]
fn pipelined_beacon_epochs_agree_on_leaders() {
    let (keyring, secrets) = keys(N, 92);
    let report = ShardedHost::new(2, EPOCHS, move |e| epoch_session(e, &keyring, &secrets))
        .with_admission(MaxConcurrent(2))
        .run_parallel();

    assert!(report.all_terminated());
    report.assert_conservation();
    assert_eq!(report.peak_live_sessions, 2, "two epochs run side by side, never more");
    let leaders = agreed_leaders(&report);
    assert_eq!(leaders.len(), EPOCHS);

    assert_eq!(report.fingerprints(), EPOCH_FINGERPRINTS, "the recorded per-epoch table");
    assert_eq!(leaders, EPOCH_LEADERS, "the recorded per-epoch leaders");
}
