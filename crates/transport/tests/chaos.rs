//! Chaos tests: the socket mesh under deterministic link faults.
//!
//! The four headline claims of the resilience layer, each pinned by a
//! seeded, replayable fault plan:
//!
//! * a **forced link cut** between two honest peers is healed by
//!   redial + retransmit with zero lost and zero duplicated frames — the
//!   sequence numbers prove it, and a paranoid protocol double-checks at
//!   the delivery boundary;
//! * a **crashed peer** within the budget degrades the run instead of
//!   killing it: the 9 survivors of an n = 10 ABA still decide and agree;
//! * a **partition** splitting n = 10 into two deciding-incapable halves
//!   mid-ABA stalls the run, and the heal un-stalls it — every peer
//!   decides, agreement holds;
//! * a **chaos soak** (1 % drop, ≤ 20 ms jitter) leaves coin, ABA, and
//!   beacon live and in agreement at n ∈ {4, 10}; on top of the soak, a
//!   4-peer beacon whose 0 → 1 link is also cut at its 50th frame must
//!   redial that link, replay its outbox, and still decide and agree
//!   within 120 s.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use setupfree_aba::{MmrAba, MmrAbaFactory};
use setupfree_app::beacon::{BeaconEpoch, RandomBeacon};
use setupfree_core::coin::CoinProtocolFactory;
use setupfree_core::TrustedCoinFactory;
use setupfree_crypto::{generate_pki, Keyring, PartySecrets};
use setupfree_net::{
    BoxedParty, Envelope, InstancePath, PartyId, ProtocolInstance, Sid, Step,
};
use setupfree_transport::{LinkFaultPlan, PeerHealth, TcpPeerGroup};

fn keys(n: usize, seed: u64) -> (Arc<Keyring>, Vec<Arc<PartySecrets>>) {
    let (keyring, secrets) = generate_pki(n, seed);
    (Arc::new(keyring), secrets.into_iter().map(Arc::new).collect())
}

/// A maximally chatty, maximally paranoid all-to-all protocol: every peer
/// multicasts `rounds` numbered messages in lockstep (round `r + 1` only
/// once round `r` has arrived from *everyone*), refuses duplicates at the
/// delivery boundary, and decides on the checksum of everything heard.
/// Because deciding requires the complete multiset, a single lost frame
/// wedges the run and a single duplicated frame panics a driver — the
/// sharpest possible probe for "reconnect loses or replays nothing".
#[derive(Debug)]
struct Chatter {
    me: usize,
    n: usize,
    rounds: usize,
    /// `heard[r]` = senders whose round-`r` message has arrived.
    heard: Vec<BTreeSet<usize>>,
    /// Rounds this peer has multicast so far.
    sent: usize,
    /// Every `(round, sender)` ever delivered — duplicates are a panic.
    seen: BTreeSet<u64>,
}

impl Chatter {
    fn new(me: usize, n: usize, rounds: usize) -> Self {
        Chatter { me, n, rounds, heard: vec![BTreeSet::new(); rounds], sent: 0, seen: BTreeSet::new() }
    }

    fn pack(round: usize, sender: usize) -> u64 {
        (round as u64) << 16 | sender as u64
    }

    fn advance(&mut self) -> Step<Envelope> {
        let mut step = Step::none();
        if self.sent == 0 {
            step.push_multicast(Envelope::seal(InstancePath::root(), &Self::pack(0, self.me)));
            self.sent = 1;
        }
        while self.sent < self.rounds && self.heard[self.sent - 1].len() == self.n {
            let msg = Envelope::seal(InstancePath::root(), &Self::pack(self.sent, self.me));
            step.push_multicast(msg);
            self.sent += 1;
        }
        step
    }
}

impl ProtocolInstance for Chatter {
    type Message = Envelope;
    type Output = u64;

    fn on_activation(&mut self) -> Step<Envelope> {
        self.advance()
    }

    fn on_message(&mut self, _from: PartyId, msg: Envelope) -> Step<Envelope> {
        let Some(tag) = msg.open::<u64>() else { return Step::none() };
        assert!(self.seen.insert(tag), "duplicate delivery reached the machine: tag {tag:#x}");
        let (round, sender) = ((tag >> 16) as usize, (tag & 0xFFFF) as usize);
        if round < self.rounds && sender < self.n {
            self.heard[round].insert(sender);
        }
        self.advance()
    }

    fn output(&self) -> Option<u64> {
        self.heard
            .iter()
            .all(|r| r.len() == self.n)
            .then(|| self.seen.iter().copied().sum())
    }
}

#[test]
fn a_forced_link_cut_heals_with_zero_lost_or_duplicated_frames() {
    let (n, rounds) = (4, 20);
    // Cut the 0 → 1 connection exactly when peer 0 offers its 10th frame to
    // peer 1 — mid-conversation, between two honest peers.  The frame dies
    // with the connection; redial + resume must recover it, or peer 1 can
    // never complete round 10 and the whole run wedges.
    let plan = LinkFaultPlan::new(0xC07).cut_link(0, 1, 10);
    let report = TcpPeerGroup::new(n)
        .timeout(Duration::from_secs(120))
        .chaos(plan)
        .run(|i| Box::new(Chatter::new(i, n, rounds)) as BoxedParty<Envelope, u64>)
        .expect("loopback setup");
    assert_eq!(report.total_seq_gaps(), 0, "a link saw a sequence gap");
    assert!(report.all_decided(), "failure: {:?}", report.failure);
    assert!(report.agreed(), "checksum agreement: {:?}", report.outputs);

    let cut = report.link(0, 1);
    assert_eq!(cut.drops_injected, 1, "exactly the scheduled cut fired");
    assert!(cut.redials >= 1, "the cut link was redialed: {cut:?}");
    assert!(cut.retransmitted >= 1, "the lost frame was replayed: {cut:?}");
    assert_eq!(cut.offered, rounds as u64, "every round was offered to the cut link");
    assert_eq!(cut.dropped, 0, "nothing was abandoned");
    // Chatter is silent after deciding, so the run is quiescent and exact
    // conservation must hold on every link — sent = delivered + dropped +
    // parked, duplicates filtered before the machine.
    report.assert_conservation();
}

#[test]
fn a_peer_crash_within_budget_degrades_the_run_instead_of_killing_it() {
    let n = 10; // f = 3
    let victim = 7;
    let (keyring, secrets) = keys(n, 0xDE6D);
    let report = TcpPeerGroup::new(n)
        .timeout(Duration::from_secs(120))
        .disconnect_after(victim, 5) // crash-stop mid-protocol, well before deciding
        .run(|i| {
            let factory = CoinProtocolFactory::new(PartyId(i), keyring.clone(), secrets[i].clone());
            Box::new(MmrAba::new(
                Sid::new("degraded-aba"),
                PartyId(i),
                n,
                keyring.f(),
                i % 2 == 0,
                factory,
            )) as BoxedParty<Envelope, bool>
        })
        .expect("loopback setup");
    assert_eq!(report.total_seq_gaps(), 0, "a link saw a sequence gap");

    // No PeerStopped teardown: one crash is within f = 3.
    assert_eq!(report.failure, None, "failure: {:?}", report.failure);
    assert_eq!(report.degraded, vec![victim], "the crash is reported, not fatal");
    assert!(!report.all_decided(), "the dead peer has no output");
    assert!(report.surviving_decided(), "all 9 survivors decided");
    assert!(report.agreed(), "survivor agreement: {:?}", report.outputs);
    assert_eq!(report.outputs.iter().flatten().count(), n - 1);
    assert_eq!(report.health[victim], PeerHealth::Dead);
    // Survivors kept talking to the corpse until their budgets ran out —
    // those frames are the model's "messages to a crashed party are lost".
    let lost_to_victim: u64 =
        (0..n).filter(|&i| i != victim).map(|i| report.link(i, victim).dropped).sum();
    let parked_for_victim: u64 =
        (0..n).filter(|&i| i != victim).map(|i| report.link(i, victim).parked).sum();
    assert!(
        lost_to_victim + parked_for_victim > 0,
        "the survivors must have had undeliverable traffic for the corpse"
    );
}

#[test]
fn a_partition_heal_mid_aba_still_reaches_agreement() {
    let n = 10; // two halves of 5: neither reaches n - f = 7, so both stall
    let (keyring, secrets) = keys(n, 0x9A27);
    // Split 20 ms in (mid-first-exchanges for an ABA whose clean run takes
    // hundreds of ms at n = 10), heal 4.5 s later — past the midpoint of
    // the 8 s deadline, so the recovery window is the scarce resource.
    let timeout = Duration::from_secs(8);
    let heal = Duration::from_millis(4500);
    let plan = LinkFaultPlan::new(0x9A27).partition_halves(5, Duration::from_millis(20), heal);
    let report = TcpPeerGroup::new(n)
        .timeout(timeout)
        .chaos(plan)
        .run(|i| {
            let factory = CoinProtocolFactory::new(PartyId(i), keyring.clone(), secrets[i].clone());
            Box::new(MmrAba::new(
                Sid::new("partition-aba"),
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
    assert!(report.agreed(), "post-heal agreement: {:?}", report.outputs);
    // The run cannot have finished before the heal: neither half of 5 can
    // assemble the n - f = 7 voices a decision needs.
    assert!(
        report.wall >= Duration::from_millis(20) + heal,
        "decided in {:?}, i.e. *through* the partition",
        report.wall
    );
    // Cross-boundary links carry their scheduled partition time in the
    // stats; same-side links carry none.
    assert!(report.link(0, 9).partitioned_ms >= 4000, "{:?}", report.link(0, 9));
    assert_eq!(report.link(0, 4).partitioned_ms, 0);
    assert_eq!(report.link(5, 9).partitioned_ms, 0);
}

/// The deadline of a plain soak run.
const SOAK_DEADLINE: Duration = Duration::from_secs(240);

/// The seeded soak plan: `drop_probability` 1 %, jitter ≤ 20 ms.
fn drop_and_jitter(seed: u64) -> LinkFaultPlan {
    LinkFaultPlan::new(seed)
        .drop_probability(0.01)
        .delay(Duration::ZERO, Duration::from_millis(20))
}

/// One seeded soak under `plan`: the protocol must decide and agree within
/// `deadline` anyway, with no sequence gap on any link.
fn soak<O, F>(
    n: usize,
    plan: LinkFaultPlan,
    deadline: Duration,
    factory: F,
) -> setupfree_transport::SocketRunReport<O>
where
    O: Clone + std::fmt::Debug + Send + PartialEq,
    F: Fn(usize) -> BoxedParty<Envelope, O> + Sync,
{
    let report = TcpPeerGroup::new(n)
        .timeout(deadline)
        .chaos(plan)
        .run(factory)
        .expect("loopback setup");
    assert_eq!(report.total_seq_gaps(), 0, "a link saw a sequence gap");
    assert!(report.all_decided(), "n={n} failure: {:?}", report.failure);
    assert!(report.agreed(), "n={n} agreement under chaos");
    report
}

#[test]
fn the_coin_survives_the_chaos_soak() {
    for &n in &[4usize, 10] {
        let (keyring, secrets) = keys(n, 0x50C7 + n as u64);
        use setupfree_core::coin::{Coin, CoinOutput, CoreSetMode};
        soak(n, drop_and_jitter(0xC01A + n as u64), SOAK_DEADLINE, |i| {
            Box::new(Coin::with_core_mode(
                Sid::new("chaos-coin"),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                CoreSetMode::Weak,
            )) as BoxedParty<Envelope, CoinOutput>
        });
    }
}

#[test]
fn the_aba_survives_the_chaos_soak() {
    for &n in &[4usize, 10] {
        let (keyring, secrets) = keys(n, 0xABA5 + n as u64);
        let report = soak(n, drop_and_jitter(0xAB0C + n as u64), SOAK_DEADLINE, |i| {
            let factory = CoinProtocolFactory::new(PartyId(i), keyring.clone(), secrets[i].clone());
            Box::new(MmrAba::new(
                Sid::new("chaos-aba"),
                PartyId(i),
                n,
                keyring.f(),
                i % 2 == 0,
                factory,
            )) as BoxedParty<Envelope, bool>
        });
        if n == 10 {
            // An n = 10 ABA pushes a couple hundred frames per link; at 1 %
            // the deterministic plan is certain to have eaten some, and the
            // run only succeeded because reconnect healed every bite.
            assert!(
                report.total_drops_injected() > 0,
                "the soak must actually have injected faults"
            );
            assert!(
                report.total_redials() > 0,
                "healing those faults requires redials: {} drops injected",
                report.total_drops_injected()
            );
        }
    }
}

#[test]
fn the_beacon_survives_the_chaos_soak() {
    let epochs = 2;
    // (n, plan seed, frame of link 0 → 1 to cut at, deadline)
    let cases = [
        (4usize, 0xBEA7 + 4, None, SOAK_DEADLINE),
        (10, 0xBEA7 + 10, None, SOAK_DEADLINE),
        (4, 0x0C8A05, Some(50), Duration::from_secs(120)),
    ];
    for (n, plan_seed, cut_at, deadline) in cases {
        let mut plan = drop_and_jitter(plan_seed);
        if let Some(frame) = cut_at {
            plan = plan.cut_link(0, 1, frame);
        }
        let (keyring, secrets) = keys(n, 0xBEAC + n as u64);
        let report = soak(n, plan, deadline, |i| {
            let aba = MmrAbaFactory::new(PartyId(i), n, keyring.f(), TrustedCoinFactory);
            Box::new(RandomBeacon::new(
                Sid::new("chaos-beacon"),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                aba,
                epochs,
            )) as BoxedParty<Envelope, Vec<BeaconEpoch>>
        });
        let history = report.outputs[0].as_ref().unwrap();
        assert_eq!(history.len(), epochs as usize, "every epoch closed under chaos");
        if cut_at.is_some() {
            let cut = report.link(0, 1);
            assert!(cut.redials >= 1, "the cut link was redialed: {cut:?}");
        }
    }
}
