//! Regression test for the bounded pre-activation buffer (PR 4 satellite).
//!
//! Before the session router, the hand-rolled "buffer until the child
//! exists" queues (`aba_buffer`, `election_buffer`, the ABA's per-round
//! `coin_buffer`, the Coin's `avss_buffers`) grew without bound: a Byzantine
//! sender could flood traffic for a child instance the victim would never
//! (or only much later) create, and every message was retained.  The
//! router's [`PreActivationBuffer`] enforces a per-sender cap and drops
//! byte-identical duplicates.
//!
//! Two layers of coverage:
//!
//! * a **unit-level bound check**: feed one ABA instance far more than `cap`
//!   distinct (and duplicate) coin envelopes for a round whose coin will
//!   never be created, and assert the buffered count stays at the cap;
//! * an **ensemble-level fault plan** through the testkit: a flooding
//!   Byzantine party sprays pre-activation traffic for a far-future round at
//!   every honest party mid-protocol, and the honest parties still reach
//!   agreement under a sweep of adversarial schedules.

use setupfree::prelude::*;
use setupfree_net::mux::{composite_cap, CapPolicy, DEFAULT_PER_SENDER_CAP};
use setupfree_net::Step;
use setupfree_testkit::{sweep, Adversary};

type TrustedAba = MmrAba<TrustedCoinFactory>;

/// An envelope addressed to the (never created) coin of `round`, carrying
/// `nonce` as a distinct payload.
fn coin_flood_envelope(round: usize, nonce: u64) -> Envelope {
    Envelope::seal(InstancePath::of(PathSeg::new(setupfree_aba::K_COIN, round)), &nonce)
}

#[test]
fn per_sender_cap_bounds_the_pre_activation_buffer() {
    let n = 4;
    let mut aba = TrustedAba::new(Sid::new("flood"), PartyId(0), n, 1, true, TrustedCoinFactory);
    let _ = aba.on_activation();

    // One Byzantine sender floods 20 × cap *distinct* messages for round 63
    // (whose coin is never created this early).
    for nonce in 0..(20 * DEFAULT_PER_SENDER_CAP as u64) {
        let env = coin_flood_envelope(63, nonce);
        let step = aba.on_message(PartyId(3), env);
        assert!(step.is_empty(), "flood traffic must not trigger sends");
    }
    assert_eq!(
        aba.buffered_coin_messages(),
        DEFAULT_PER_SENDER_CAP,
        "per-sender cap must bound the buffer"
    );

    // Duplicates from a second sender are stored once.
    let dup = coin_flood_envelope(62, 7);
    for _ in 0..100 {
        let _ = aba.on_message(PartyId(2), dup.clone());
    }
    assert_eq!(
        aba.buffered_coin_messages(),
        DEFAULT_PER_SENDER_CAP + 1,
        "byte-identical duplicates must be dropped"
    );

    // Distinct senders get independent caps — and at n = 4 the second
    // sender reaching cap scale *is* the adaptive witness quorum
    // (f + 1 = 2): two distinct senders filling up for the same child reads
    // as correlated lag, so the cap raises to the ceiling for that child
    // and the second sender's whole burst is accepted.  Total occupancy
    // stays bounded by O(senders · ceiling), never unbounded.
    for nonce in 0..(2 * DEFAULT_PER_SENDER_CAP as u64) {
        let env = coin_flood_envelope(63, nonce);
        let _ = aba.on_message(PartyId(1), env);
    }
    assert_eq!(aba.buffered_coin_messages(), 3 * DEFAULT_PER_SENDER_CAP + 1);
}

/// PR 6 regression: a deep composite at high `n` no longer drops honest
/// multi-round lag (the old static `max(1024, 64n)` cap did), while a lone
/// flooder still hits the floor and even witnessed children stay bounded by
/// the ceiling.
#[test]
fn adaptive_cap_spares_honest_lag_while_a_flooder_still_hits_the_cap() {
    let n = 40;
    let f = (n - 1) / 3;
    let CapPolicy::Adaptive { floor, ceiling, witnesses } = composite_cap(n) else {
        panic!("composite routers must use the adaptive cap");
    };
    assert_eq!(floor, 64 * n, "the old static cap is the adaptive floor");
    assert_eq!(witnesses, f + 1, "a raise needs at least one honest witness");

    let mut aba = TrustedAba::new(Sid::new("lag"), PartyId(0), n, f, true, TrustedCoinFactory);
    let _ = aba.on_activation();

    // Honest multi-round lag: this party is the straggler, and all n − 1
    // peers run ahead together, streaming round-42 coin traffic that
    // reaches 1.5× the old static cap *per sender*.  Interleaved, as lag
    // traffic actually arrives.  Under the static cap a third of every
    // sender's envelopes would be dropped — a liveness bug, since nothing
    // here is retransmitted; under the adaptive cap nothing may be lost.
    let senders = n - 1;
    let per_sender = floor + floor / 2;
    for seq in 0..per_sender {
        for s in 1..n {
            let env = coin_flood_envelope(42, (seq * n + s) as u64);
            let _ = aba.on_message(PartyId(s), env);
        }
    }
    let lag = aba.pre_activation_stats();
    assert_eq!(lag.dropped, 0, "honest multi-round lag must survive the adaptive cap");
    assert_eq!(lag.buffered, (senders * per_sender) as u64);

    // A lone flooder aimed at a *different* child has no witnesses there:
    // its cap is the floor, exactly as under the old static policy.
    for nonce in 0..(2 * floor) as u64 {
        let env = coin_flood_envelope(43, nonce);
        let _ = aba.on_message(PartyId(7), env);
    }
    let flooded = aba.pre_activation_stats();
    assert_eq!(flooded.dropped - lag.dropped, floor as u64, "a lone flooder still hits the cap");
    assert_eq!(flooded.buffered - lag.buffered, floor as u64);

    // Even a flood mounted *during* witnessed lag is bounded: the raised
    // child's cap is the ceiling, not infinity.
    let overshoot = 500;
    let budget = ceiling - per_sender + overshoot;
    for extra in 0..budget {
        let env = coin_flood_envelope(42, (1 << 32) + extra as u64);
        let _ = aba.on_message(PartyId(1), env);
    }
    let capped = aba.pre_activation_stats();
    assert_eq!(capped.dropped - flooded.dropped, overshoot as u64, "the ceiling still bounds");
    assert_eq!(capped.buffered - flooded.buffered, (ceiling - per_sender) as u64);
}

/// PR 7 (committee subsampling): committee-hosted children size their cap to
/// the committee, and non-member traffic never reaches the buffer at all.
///
/// The first property is the cap-scaling fix: a committee ABA's coin router
/// used to inherit `composite_cap(n)`, so at n = 40 a single Byzantine
/// *member* could park `64n = 2560` envelopes per victim child even though
/// only `m = 10` parties may legitimately lag.  `composite_cap(m)` pins the
/// floor to the committee size.  The second property is the listener
/// filter: coin traffic from outside the committee (or arriving at a
/// listener) is dropped before the pre-activation buffer, so an outsider
/// cannot occupy even one slot.
#[test]
fn committee_cap_scales_to_the_committee_and_non_members_never_buffer() {
    use setupfree_core::{Committee, CommitteeConfig};

    let (n, m) = (40, 10);
    let f = (n - 1) / 3;
    let CapPolicy::Adaptive { floor, ceiling, witnesses } = composite_cap(m) else {
        panic!("committee routers must use the adaptive cap");
    };
    assert_eq!(floor, DEFAULT_PER_SENDER_CAP.max(64 * m));
    assert_eq!(ceiling, 8 * floor);
    assert_eq!(witnesses, (m - 1) / 3 + 1, "a raise needs an honest committee witness");
    let CapPolicy::Adaptive { floor: full_floor, .. } = composite_cap(n) else {
        panic!("composite routers must use the adaptive cap");
    };
    assert!(floor < full_floor, "the committee floor must scale with m, not n");

    let committee =
        Committee::sample(&CommitteeConfig::new(m, "flood-unit"), &1u64.to_le_bytes(), n);
    let victim = committee.members()[0];
    let insider = committee.members()[1];
    let outsider = PartyId((0..n).find(|&i| !committee.is_member(PartyId(i))).unwrap());

    let mut aba = TrustedAba::with_committee(
        Sid::new("cflood"),
        victim,
        n,
        f,
        true,
        TrustedCoinFactory,
        committee.clone(),
    );
    let _ = aba.on_activation();

    // An outsider sprays twice the *all-to-all* floor at a member: zero
    // slots occupied — the membership filter runs before the buffer.
    for nonce in 0..(2 * full_floor) as u64 {
        let env = coin_flood_envelope(63, nonce);
        let step = aba.on_message(outsider, env);
        assert!(step.is_empty(), "outsider flood must not trigger sends");
    }
    assert_eq!(aba.buffered_coin_messages(), 0, "non-member flood must never buffer");

    // A Byzantine *member* flooding the same child is pinned at the
    // committee floor — 1024 here, not the 2560 the n-sized cap allowed.
    for nonce in 0..(2 * full_floor) as u64 {
        let env = coin_flood_envelope(63, nonce);
        let _ = aba.on_message(insider, env);
    }
    assert_eq!(aba.buffered_coin_messages(), floor, "member flooder pinned at committee floor");

    // A listener mounts no children and buffers nothing, even for traffic
    // that *claims* to come from a member.
    let mut listener = TrustedAba::with_committee(
        Sid::new("cflood-listener"),
        outsider,
        n,
        f,
        true,
        TrustedCoinFactory,
        committee,
    );
    let _ = listener.on_activation();
    for nonce in 0..floor as u64 {
        let env = coin_flood_envelope(2, nonce);
        let _ = listener.on_message(insider, env);
    }
    assert_eq!(listener.buffered_coin_messages(), 0, "listeners never buffer coin traffic");
}

/// Sweep-level committee flooding regression: a Byzantine **non-member**
/// sprays pre-activation coin traffic at everyone mid-protocol; the
/// committee still agrees and the flood never registers in the buffer
/// telemetry (it is dropped at the membership filter, before the router).
#[test]
fn committee_honest_agree_despite_a_non_member_flooder() {
    use setupfree_core::{Committee, CommitteeConfig};

    let n = 10;
    let committee =
        Committee::sample(&CommitteeConfig::new(6, "flood-sweep"), &3u64.to_le_bytes(), n);
    let flooder = (0..n).find(|&i| !committee.is_member(PartyId(i))).unwrap();
    let adversaries = {
        let mut a = vec![Adversary::Fifo];
        a.extend((0..3).map(|seed| Adversary::Random { seed }));
        a
    };
    let runs = sweep(&adversaries, 5_000_000, |adv| {
        let parties = (0..n)
            .map(PartyId)
            .map(|me| {
                if me.index() == flooder {
                    Box::new(FloodingParty {
                        nonce: 0,
                        burst: 64,
                        total: 2 * DEFAULT_PER_SENDER_CAP as u64,
                    }) as BoxedParty<Envelope, bool>
                } else {
                    Box::new(TrustedAba::with_committee(
                        Sid::new("cflood-sweep"),
                        me,
                        n,
                        (n - 1) / 3,
                        me.index() % 2 == 0,
                        TrustedCoinFactory,
                        committee.clone(),
                    )) as BoxedParty<Envelope, bool>
                }
            })
            .collect();
        let mut sim = Simulation::new(parties, adv.scheduler());
        sim.mark_byzantine(PartyId(flooder));
        sim
    });
    let members: Vec<usize> = committee.members().iter().map(|p| p.index()).collect();
    for run in &runs {
        run.assert_committee_agreement(&members);
        // Contrast with the all-to-all flooding sweep above, where the same
        // flood drives at least `cap` worth of buffer pressure: filtered at
        // the membership check, it must stay invisible to the router.
        assert!(
            run.metrics.pre_activation_buffered + run.metrics.pre_activation_dropped
                < DEFAULT_PER_SENDER_CAP as u64,
            "under {}: a non-member flood must never reach the buffers (buffered {} + dropped {})",
            run.adversary,
            run.metrics.pre_activation_buffered,
            run.metrics.pre_activation_dropped
        );
    }
}

/// A Byzantine machine that behaves like a silent party except that every
/// delivery triggers a burst of distinct pre-activation coin traffic for a
/// far-future ABA round, until a total flood volume well past the
/// per-sender cap has been sprayed at every honest party.
#[derive(Debug)]
struct FloodingParty {
    nonce: u64,
    burst: u64,
    total: u64,
}

impl ProtocolInstance for FloodingParty {
    type Message = Envelope;
    type Output = bool;

    fn on_activation(&mut self) -> Step<Envelope> {
        self.on_message(PartyId(0), Envelope::seal(InstancePath::root(), &0u8))
    }

    fn on_message(&mut self, _from: PartyId, _msg: Envelope) -> Step<Envelope> {
        let mut step = Step::none();
        for _ in 0..self.burst {
            if self.nonce >= self.total {
                break;
            }
            self.nonce += 1;
            step.push_multicast(coin_flood_envelope(60, self.nonce));
        }
        step
    }

    fn output(&self) -> Option<bool> {
        None
    }
}

#[test]
fn honest_parties_agree_despite_a_flooding_byzantine_sender() {
    let n = 4;
    let inputs = [true, false, true, true];
    let adversaries = {
        let mut a = vec![Adversary::Fifo];
        a.extend((0..3).map(|seed| Adversary::Random { seed }));
        a
    };
    let runs = sweep(&adversaries, 5_000_000, |adv| {
        let parties = (0..n)
            .map(|i| {
                if i == 3 {
                    // Sprays twice the per-sender cap at every honest party
                    // (the cap demonstrably engages) without unbounded
                    // message amplification.
                    Box::new(FloodingParty {
                        nonce: 0,
                        burst: 64,
                        total: 2 * DEFAULT_PER_SENDER_CAP as u64,
                    }) as BoxedParty<Envelope, bool>
                } else {
                    Box::new(TrustedAba::new(
                        Sid::new("flood-sweep"),
                        PartyId(i),
                        n,
                        1,
                        inputs[i],
                        TrustedCoinFactory,
                    )) as BoxedParty<Envelope, bool>
                }
            })
            .collect();
        let mut sim = Simulation::new(parties, adv.scheduler());
        sim.mark_byzantine(PartyId(3));
        sim
    });
    for run in &runs {
        run.assert_termination();
        run.assert_agreement();
        let decided = run.honest_outputs();
        assert_eq!(decided.len(), 3, "under {}", run.adversary);
        assert!(inputs.contains(&decided[0]), "validity under {}", run.adversary);
        // Buffer-pressure telemetry (polled from the parties' routers into
        // `Metrics` at the end of the run): the flood pressure is visible —
        // at least one victim's buffer reached cap scale (buffered or
        // dropped) — while occupancy stays bounded at cap × victims plus
        // the honest pre-activation traffic still parked at termination.
        let cap = DEFAULT_PER_SENDER_CAP as u64;
        let pressure = run.metrics.pre_activation_buffered + run.metrics.pre_activation_dropped;
        assert!(
            pressure >= cap,
            "under {}: flood pressure must register in the telemetry (buffered {} + dropped {})",
            run.adversary,
            run.metrics.pre_activation_buffered,
            run.metrics.pre_activation_dropped
        );
        assert!(
            run.metrics.pre_activation_buffered <= 3 * (cap + 64),
            "under {}: occupancy stays bounded by cap × victims (buffered {})",
            run.adversary,
            run.metrics.pre_activation_buffered
        );
    }
}
