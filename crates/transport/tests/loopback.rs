//! End-to-end tests: the unmodified protocol stack over real TCP loopback
//! peers, plus the failure modes (disconnect, wedge) that must terminate
//! with a structured error instead of hanging the process.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use setupfree_aba::{MmrAba, MmrAbaFactory};
use setupfree_app::beacon::{BeaconEpoch, RandomBeacon};
use setupfree_core::coin::{Coin, CoinOutput, CoinProtocolFactory, CoreSetMode};
use setupfree_core::TrustedCoinFactory;
use setupfree_crypto::{generate_pki, Keyring, PartySecrets};
use setupfree_net::{
    BoxedParty, Envelope, InstancePath, PartyId, ProtocolInstance, Sid, Step,
};
use setupfree_transport::{TcpPeerGroup, TransportFailure};

fn keys(n: usize, seed: u64) -> (Arc<Keyring>, Vec<Arc<PartySecrets>>) {
    let (keyring, secrets) = generate_pki(n, seed);
    (Arc::new(keyring), secrets.into_iter().map(Arc::new).collect())
}

/// The smallest all-to-all protocol: multicast your id once, decide on the
/// full roster once you have heard everyone (yourself included).
#[derive(Debug)]
struct Ping {
    me: usize,
    n: usize,
    seen: BTreeSet<usize>,
}

impl ProtocolInstance for Ping {
    type Message = Envelope;
    type Output = Vec<usize>;

    fn on_activation(&mut self) -> Step<Envelope> {
        Step::multicast(Envelope::seal(InstancePath::root(), &(self.me as u64)))
    }

    fn on_message(&mut self, _from: PartyId, msg: Envelope) -> Step<Envelope> {
        if let Some(id) = msg.open::<u64>() {
            self.seen.insert(id as usize);
        }
        Step::none()
    }

    fn output(&self) -> Option<Vec<usize>> {
        (self.seen.len() == self.n).then(|| self.seen.iter().copied().collect())
    }
}

/// A peer that says nothing and never decides — for driving the watchdog.
#[derive(Debug)]
struct Mute;

impl ProtocolInstance for Mute {
    type Message = Envelope;
    type Output = bool;

    fn on_activation(&mut self) -> Step<Envelope> {
        Step::none()
    }

    fn on_message(&mut self, _from: PartyId, _msg: Envelope) -> Step<Envelope> {
        Step::none()
    }

    fn output(&self) -> Option<bool> {
        None
    }
}

/// Peers below `senders` each multicast `count` envelopes of `bytes`
/// payload bytes in their activation; every peer decides once it has heard
/// all of them, its own loopback copies included.
#[derive(Debug)]
struct Burst {
    me: usize,
    senders: usize,
    count: usize,
    bytes: usize,
    heard: usize,
}

impl ProtocolInstance for Burst {
    type Message = Envelope;
    type Output = usize;

    fn on_activation(&mut self) -> Step<Envelope> {
        let mut step = Step::none();
        if self.me < self.senders {
            for k in 0..self.count {
                let mut body = vec![0u8; self.bytes];
                body[..8].copy_from_slice(&(k as u64).to_le_bytes());
                step.push_multicast(Envelope::seal(InstancePath::root(), &body));
            }
        }
        step
    }

    fn on_message(&mut self, _from: PartyId, _msg: Envelope) -> Step<Envelope> {
        self.heard += 1;
        Step::none()
    }

    fn output(&self) -> Option<usize> {
        (self.heard == self.senders * self.count).then_some(self.heard)
    }
}

/// A `Ping` whose machine panics on its first delivery, after its
/// activation has multicast its id.
#[derive(Debug)]
struct Poisoned(Ping);

impl ProtocolInstance for Poisoned {
    type Message = Envelope;
    type Output = Vec<usize>;

    fn on_activation(&mut self) -> Step<Envelope> {
        self.0.on_activation()
    }

    fn on_message(&mut self, _from: PartyId, _msg: Envelope) -> Step<Envelope> {
        panic!("machine poisoned by its first message");
    }

    fn output(&self) -> Option<Vec<usize>> {
        None
    }
}

#[test]
fn every_peer_hears_every_peer() {
    let n = 4;
    let report = TcpPeerGroup::new(n)
        .run(|i| Box::new(Ping { me: i, n, seen: BTreeSet::new() }) as BoxedParty<Envelope, _>)
        .expect("loopback setup");
    assert_eq!(report.total_seq_gaps(), 0, "a link saw a sequence gap");
    assert!(report.all_decided(), "failure: {:?}", report.failure);
    let roster: Vec<usize> = (0..n).collect();
    for (i, out) in report.outputs.iter().enumerate() {
        assert_eq!(out.as_deref(), Some(&roster[..]), "peer {i} roster");
    }
    // Each peer multicasts exactly one envelope to n − 1 sockets and reads
    // n − 1 back; self-copies never touch the wire.
    for (i, p) in report.peers.iter().enumerate() {
        assert_eq!(p.sent_envelopes, (n - 1) as u64, "peer {i} sends");
        assert_eq!(p.received_envelopes, (n - 1) as u64, "peer {i} receives");
        assert_eq!(p.dropped_sends, 0, "peer {i} drops");
        // The inbox was touched (n − 1 deliveries) but can't have held more
        // than the traffic that exists.
        assert!(
            (1..=(n - 1)).contains(&p.inbox_high_water),
            "peer {i} inbox high water {}",
            p.inbox_high_water
        );
    }
    // Ping is silent after deciding, so the run is quiescent at teardown
    // and the conservation law must hold exactly: every frame offered was
    // delivered — nothing dropped, parked, or duplicated on a clean mesh.
    report.assert_conservation();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let link = report.link(i, j);
                assert_eq!(link.offered, 1, "link {i}→{j} offered");
                assert_eq!(link.delivered, 1, "link {i}→{j} delivered");
                assert_eq!(link.duplicates, 0, "link {i}→{j} duplicates");
                assert_eq!(link.redials, 0, "clean run never redials");
                assert_eq!(link.retransmitted, 0, "clean run never retransmits");
            }
        }
    }
    assert!(
        report.health.iter().all(|h| *h == setupfree_transport::PeerHealth::Alive),
        "clean run, all alive: {:?}",
        report.health
    );
    assert!(report.degraded.is_empty());
}

#[test]
fn the_setup_free_coin_flips_over_sockets() {
    let n = 4;
    let (keyring, secrets) = keys(n, 0x50C7);
    let report = TcpPeerGroup::new(n)
        .run(|i| {
            Box::new(Coin::with_core_mode(
                Sid::new("socket-coin"),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                CoreSetMode::Weak,
            )) as BoxedParty<Envelope, CoinOutput>
        })
        .expect("loopback setup");
    assert_eq!(report.total_seq_gaps(), 0, "a link saw a sequence gap");
    assert!(report.all_decided(), "failure: {:?}", report.failure);
    let bits: Vec<bool> = report.outputs.iter().flatten().map(|o| o.bit).collect();
    assert_eq!(bits.len(), n);
    assert!(bits.windows(2).all(|w| w[0] == w[1]), "coin agreement over sockets");
    assert!(report.total_sent_envelopes() > 0 && report.total_sent_bytes() > 0);
}

#[test]
fn the_full_setup_free_aba_decides_over_sockets() {
    let n = 4;
    let (keyring, secrets) = keys(n, 0xABA5);
    let report = TcpPeerGroup::new(n)
        .run(|i| {
            let factory = CoinProtocolFactory::new(PartyId(i), keyring.clone(), secrets[i].clone());
            Box::new(MmrAba::new(
                Sid::new("socket-aba"),
                PartyId(i),
                n,
                keyring.f(),
                i % 2 == 0,
                factory,
            )) as BoxedParty<Envelope, bool>
        })
        .expect("loopback setup");
    assert_eq!(report.total_seq_gaps(), 0, "a link saw a sequence gap");
    assert!(report.all_decided(), "failure: {:?}", report.failure);
    assert!(report.agreed(), "ABA agreement over sockets: {:?}", report.outputs);
}

#[test]
fn the_random_beacon_runs_end_to_end_over_sockets() {
    let n = 4;
    let epochs = 2;
    let (keyring, secrets) = keys(n, 0xBEAC);
    let report = TcpPeerGroup::new(n)
        .run(|i| {
            let aba = MmrAbaFactory::new(PartyId(i), n, keyring.f(), TrustedCoinFactory);
            Box::new(RandomBeacon::new(
                Sid::new("socket-beacon"),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                aba,
                epochs,
            )) as BoxedParty<Envelope, Vec<BeaconEpoch>>
        })
        .expect("loopback setup");
    assert_eq!(report.total_seq_gaps(), 0, "a link saw a sequence gap");
    assert!(report.all_decided(), "failure: {:?}", report.failure);
    assert!(report.agreed(), "beacon agreement over sockets");
    let history = report.outputs[0].as_ref().unwrap();
    assert_eq!(history.len(), epochs as usize, "every epoch closed");
}

#[test]
fn committee_aba_over_sockets_keeps_non_members_nearly_silent() {
    use setupfree_core::{Committee, CommitteeConfig};

    let (n, size) = (22, 10);
    let config = CommitteeConfig::new(size, "socket-committee");
    let committee = Committee::sample(&config, &0x50C1A1u64.to_le_bytes(), n);
    let report = TcpPeerGroup::new(n)
        .timeout(Duration::from_secs(60))
        .run(|i| {
            Box::new(MmrAba::with_committee(
                Sid::new("socket-committee-aba"),
                PartyId(i),
                n,
                (n - 1) / 3,
                i % 2 == 0,
                TrustedCoinFactory,
                committee.clone(),
            )) as BoxedParty<Envelope, bool>
        })
        .expect("loopback setup");
    assert_eq!(report.total_seq_gaps(), 0, "a link saw a sequence gap");
    assert!(report.all_decided(), "failure: {:?}", report.failure);
    assert!(report.agreed(), "committee ABA agreement over sockets: {:?}", report.outputs);

    // The whole point of the committee: non-members listen.  On the real
    // wire a member pushes the BVal/Aux exchange plus the Finish broadcast;
    // a listener sends nothing at all.  Give the assertion slack only in
    // the comparison direction — per peer, a listener's bytes must be under
    // a tenth of the *minimum* member's.
    let member_min_bytes = committee
        .members()
        .iter()
        .map(|p| report.peers[p.index()].sent_bytes)
        .min()
        .expect("non-empty committee");
    for i in 0..n {
        let stats = &report.peers[i];
        if committee.is_member(PartyId(i)) {
            assert!(stats.sent_envelopes > 0, "member {i} must speak");
        } else {
            assert_eq!(stats.sent_envelopes, 0, "listener {i} sent envelopes");
            assert!(
                stats.sent_bytes * 10 < member_min_bytes.max(1),
                "listener {i} sent {} bytes, min member sent {member_min_bytes}",
                stats.sent_bytes
            );
        }
    }
}

#[test]
fn a_disconnecting_peer_surfaces_as_an_error_not_a_hang() {
    let n = 4;
    // Peer 3 vanishes after its very first socket delivery — before it can
    // possibly have heard all n hellos, so it exits undecided.  With a
    // crash budget of 0 the group runs in PR 6's fail-fast mode: the first
    // death is a structured failure, not a degraded success.
    let report = TcpPeerGroup::new(n)
        .timeout(Duration::from_secs(20))
        .crash_budget(0)
        .disconnect_after(3, 1)
        .run(|i| Box::new(Ping { me: i, n, seen: BTreeSet::new() }) as BoxedParty<Envelope, _>)
        .expect("loopback setup");
    assert_eq!(report.total_seq_gaps(), 0, "a link saw a sequence gap");
    assert_eq!(
        report.failure,
        Some(TransportFailure::PeerStopped { peer: 3, message: None }),
        "the disconnect is detected and named"
    );
    assert!(report.outputs[3].is_none(), "the severed peer cannot have decided");
    // Fail-fast: detection comes from the dead driver, not the deadline.
    assert!(report.wall < Duration::from_secs(20), "no timeout wait, took {:?}", report.wall);
}

#[test]
fn a_wedged_run_times_out_with_the_undecided_peers_named() {
    let n = 2;
    let report = TcpPeerGroup::new(n)
        .timeout(Duration::from_millis(300))
        .run(|_| Box::new(Mute) as BoxedParty<Envelope, bool>)
        .expect("loopback setup");
    assert_eq!(report.total_seq_gaps(), 0, "a link saw a sequence gap");
    match report.failure {
        Some(TransportFailure::Timeout { waited_ms, ref undecided }) => {
            assert!(waited_ms >= 300, "the deadline was honoured");
            assert_eq!(undecided, &vec![0, 1], "both mute peers are named");
        }
        ref other => panic!("expected a timeout, got {other:?}"),
    }
    // The teardown returned: nothing is left blocked on a socket or queue
    // (reaching this assertion at all is the proof).
    assert!(!report.all_decided());
}

#[test]
fn a_burst_leaves_in_one_write_per_link() {
    let (n, count) = (4, 64);
    let report = TcpPeerGroup::new(n)
        .run(|i| {
            Box::new(Burst { me: i, senders: 1, count, bytes: 8, heard: 0 })
                as BoxedParty<Envelope, usize>
        })
        .expect("loopback setup");
    assert_eq!(report.total_seq_gaps(), 0, "a link saw a sequence gap");
    assert!(report.all_decided(), "failure: {:?}", report.failure);
    report.assert_conservation();
    for j in 1..n {
        let link = report.link(0, j);
        assert_eq!(link.sent, count as u64, "link 0→{j} sent");
        assert_eq!(link.writes, 1, "link 0→{j}: the activation's frames share one write");
        assert_eq!(report.link(j, 0).writes, 0, "link {j}→0 carried no data");
    }
}

#[test]
fn two_peers_exchanging_bursts_both_decide() {
    // Each activation multicasts 5 000 1-KiB envelopes, more than an inbox
    // holds: each driver's one large write must drain while its own reader
    // keeps accepting the other's.
    let (n, count) = (2, 5_000);
    let report = TcpPeerGroup::new(n)
        .timeout(Duration::from_secs(30))
        .run(|i| {
            Box::new(Burst { me: i, senders: n, count, bytes: 1024, heard: 0 })
                as BoxedParty<Envelope, usize>
        })
        .expect("loopback setup");
    assert!(report.all_decided(), "failure: {:?}", report.failure);
    assert_eq!(report.total_redials(), 0);
    assert_eq!(report.total_retransmitted(), 0);
    assert_eq!(report.total_seq_gaps(), 0, "a link saw a sequence gap");
    report.assert_conservation();
}

#[test]
fn a_panicking_machine_is_reported_with_its_payload_before_the_deadline() {
    let n = 4;
    let timeout = Duration::from_secs(20);
    let report = TcpPeerGroup::new(n)
        .timeout(timeout)
        .crash_budget(0)
        .run(|i| {
            let ping = Ping { me: i, n, seen: BTreeSet::new() };
            if i == 3 {
                Box::new(Poisoned(ping)) as BoxedParty<Envelope, _>
            } else {
                Box::new(ping) as BoxedParty<Envelope, _>
            }
        })
        .expect("loopback setup");
    match &report.failure {
        Some(TransportFailure::PeerStopped { peer: 3, message: Some(m) }) => {
            assert!(m.contains("poisoned by its first message"), "payload: {m}");
        }
        other => panic!("expected peer 3 stopped with its panic payload, got {other:?}"),
    }
    assert!(report.wall < timeout / 2, "the panic was seen at once, not after {:?}", report.wall);
}
