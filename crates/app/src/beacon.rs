//! DKG-free asynchronous random beacon (§7.3).
//!
//! The beacon proceeds in epochs; epoch `e` runs one leader-election instance
//! (Alg 5).  Following the paper's adaptation: when the election's internal
//! ABA returns 0 ("no agreed largest VRF"), the epoch produces no value and
//! the parties move on; otherwise the epoch's beacon value is derived from
//! the low half of the winning VRF output.  Unlike prior asynchronous
//! beacons, no distributed key generation is needed to bootstrap, so parties
//! can join or leave between epochs.
//!
//! The per-epoch elections are mounted in a session [`Router`] at path kind
//! [`K_ELECTION`], keyed by epoch; an epoch's election is created lazily
//! when this party reaches the epoch or when a faster peer's traffic for it
//! arrives.  Parties keep participating in earlier epochs after they finish
//! them (asynchronous stragglers still need their messages): without child
//! GC every epoch's election is retained until the whole beacon run
//! completes; with it ([`RandomBeacon::with_child_gc`]) an epoch is retired
//! once `n − f` parties acknowledged it.
//!
//! The seeds are run once per beacon, not once per epoch: the beacon hosts
//! one [`SeedPool`] at path kind [`K_SEEDS`], mounted at activation under
//! its own sid and never retired, and every epoch's election reads it
//! through its coin.  Each epoch's coin keeps its own sid, so each epoch
//! tosses in its own VRF context (ARCHITECTURE.md, "Seeds, run once").
//!
//! For the *pipelined* variant — epochs running concurrently — admit one
//! election per epoch as its own session of the runtime's `ShardedHost`
//! instead; `tests/concurrent_sessions.rs` does exactly that.

use std::sync::Arc;

use setupfree_core::coin::SeedPool;
use setupfree_core::election::{Election, ElectionOutput};
use setupfree_core::traits::AbaFactory;
use setupfree_crypto::{Keyring, PartySecrets};
use setupfree_net::mux::{composite_cap, Envelope, InstancePath};
use setupfree_net::{PartyId, ProtocolInstance, Router, Sid, Step};
use setupfree_wire::codec;

/// Path kind of the per-epoch election instances (keyed by epoch).
pub const K_ELECTION: u8 = 0;
/// Path kind of the beacon's seed pool: the `n` Seeding instances, keyed by
/// leader, whose seeds every epoch's coin reads.
pub const K_SEEDS: u8 = 1;

/// The beacon's *local* (root-path) messages — only sent when child GC is
/// enabled ([`RandomBeacon::with_child_gc`]); the default beacon stays
/// local-message-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BeaconMessage {
    /// The sender has recorded epoch `epoch`'s result — the acknowledgement
    /// the child-GC quorum counts.
    Done {
        /// The acknowledged epoch.
        epoch: u32,
    },
}

codec!(enum BeaconMessage { 0 => Done { epoch } });

/// The outcome of one beacon epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeaconEpoch {
    /// Epoch number.
    pub epoch: u32,
    /// The beacon value, or `None` when the epoch's election fell back to the
    /// default leader (the paper's "unlucky" case).
    pub value: Option<[u8; 16]>,
    /// The leader elected in this epoch.
    pub leader: PartyId,
}

/// One party's beacon state machine, running `epochs` consecutive elections.
pub struct RandomBeacon<F: AbaFactory + Clone> {
    sid: Sid,
    me: PartyId,
    keyring: Arc<Keyring>,
    secrets: Arc<PartySecrets>,
    aba_factory: F,
    epochs: u32,
    current: u32,
    /// The seed pool every epoch's election reads, hosted here.
    pool: SeedPool,
    /// Boxed, so a retired epoch's slot in the router's dense vector costs a
    /// null pointer, not an inline `Option<Election>` of over a kilobyte.
    elections: Router<Box<Election<F>>>,
    results: Vec<BeaconEpoch>,
    output: Option<Vec<BeaconEpoch>>,
    /// Child GC ([`Self::with_child_gc`]): when `true`, finished epochs are
    /// acknowledged with a [`BeaconMessage::Done`] multicast and an epoch's
    /// election is retired once a quorum of `n − f` acknowledgements (our
    /// own included) has arrived — capping the long-run live-instance count
    /// instead of retaining every epoch until the whole run completes.
    gc: bool,
    /// Per sender, one past the largest epoch its counted `Done`s named.
    /// An honest party records epochs in order and acknowledges each as it
    /// records it, so its `Done` for epoch `e` means it finished every
    /// epoch up to `e`.
    acked: Vec<u32>,
    /// First epoch not yet retired (epochs are retired in order).
    gc_frontier: u32,
}

impl<F: AbaFactory + Clone> std::fmt::Debug for RandomBeacon<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RandomBeacon")
            .field("me", &self.me)
            .field("current", &self.current)
            .field("results", &self.results.len())
            .finish_non_exhaustive()
    }
}

impl<F: AbaFactory + Clone> RandomBeacon<F> {
    /// Creates a beacon for party `me` producing `epochs` epochs.
    ///
    /// # Panics
    ///
    /// Panics if `epochs == 0` or `epochs` exceeds the path-segment width.
    pub fn new(
        sid: Sid,
        me: PartyId,
        keyring: Arc<Keyring>,
        secrets: Arc<PartySecrets>,
        aba_factory: F,
        epochs: u32,
    ) -> Self {
        assert!(epochs > 0, "the beacon needs at least one epoch");
        assert!(epochs <= u16::MAX as u32, "epoch count exceeds the path-segment width");
        let n = keyring.n();
        let pool = SeedPool::new(K_SEEDS, me, keyring.clone(), secrets.clone());
        RandomBeacon {
            sid,
            me,
            keyring,
            secrets,
            aba_factory,
            epochs,
            current: 0,
            pool,
            elections: Router::with_cap(K_ELECTION, composite_cap(n)),
            results: Vec::new(),
            output: None,
            gc: false,
            acked: vec![0; n],
            gc_frontier: 0,
        }
    }

    /// Enables child GC: every recorded epoch is acknowledged with a
    /// [`BeaconMessage::Done`] multicast, and an epoch's election is retired
    /// (its state freed, late traffic dropped) once `n − f` parties have
    /// acknowledged it.  Any straggler can then still finish the epoch from
    /// the acknowledging quorum's already-multicast traffic (quorums of
    /// `n − f` and `Finish`-style amplification carry every phase), so
    /// retirement trades the retained-instance count — now bounded by the
    /// spread between the slowest and fastest party instead of the epoch
    /// count — against no liveness.  As with any `n − f` quorum (PBFT
    /// checkpoint retirement included), up to `f` of the counted acks may be
    /// Byzantine, i.e. retirement can fire when only `n − 2f` honest parties
    /// actually finished; the beacon-GC tests pin liveness in exactly that
    /// minimum-slack regime (Byzantine ack spammer + starved straggler).
    pub fn with_child_gc(mut self) -> Self {
        self.gc = true;
        self
    }

    /// Epoch results produced so far (possibly before all epochs finish).
    pub fn results(&self) -> &[BeaconEpoch] {
        &self.results
    }

    /// Number of live (created, not retired) per-epoch elections — the
    /// long-run memory the child GC bounds.
    pub fn live_elections(&self) -> usize {
        self.elections.live_children()
    }

    /// Number of retired per-epoch elections.
    pub fn retired_elections(&self) -> usize {
        self.elections.retired_children()
    }

    fn start_epoch(&mut self, epoch: u32) -> Step<Envelope> {
        setupfree_obs::phase(setupfree_obs::Phase::BeaconEpoch, epoch);
        let election = Election::with_shared_seeds(
            self.sid.derive("beacon-epoch", epoch as usize),
            self.me,
            self.keyring.clone(),
            self.secrets.clone(),
            self.aba_factory.clone(),
            self.pool.seeds(),
        );
        self.elections.insert(epoch as usize, Box::new(election))
    }

    /// Routes one envelope of the seed pool; once it lands a seed, re-checks
    /// every live election, since their coins read the pool.
    fn on_seeds(&mut self, from: PartyId, leader: u16, msg: Envelope) -> Step<Envelope> {
        let published = self.pool.published();
        let mut step = self.pool.route(from, leader, msg);
        if self.pool.published() == published {
            return step;
        }
        let live: Vec<usize> = self.elections.iter().map(|(epoch, _)| epoch).collect();
        for epoch in live {
            let seg = self.elections.seg(epoch);
            // The elections are poked outside their router, so their trace
            // path is pushed here.
            let _trace = setupfree_obs::PathGuard::push(seg.kind, seg.index);
            if let Some(election) = self.elections.get_mut(epoch) {
                step.extend(election.poke().prefix(seg));
            }
        }
        step.extend(self.advance());
        step
    }

    /// Routes one envelope of epoch `epoch`'s election.
    fn on_election(&mut self, from: PartyId, epoch: u16, msg: Envelope) -> Step<Envelope> {
        // Lazily create the epoch's election if a faster peer is already
        // there, and keep finished epochs alive (until quorum-acknowledged
        // retirement, when GC is on) so stragglers still get our responses;
        // traffic for a retired epoch is dropped by the router.
        let mut step = Step::none();
        let index = epoch as usize;
        if !self.elections.contains(index) && !self.elections.is_retired(index) {
            step.extend(self.start_epoch(u32::from(epoch)));
        }
        step.extend(self.elections.route(from, epoch, msg));
        step.extend(self.advance());
        step
    }

    fn advance(&mut self) -> Step<Envelope> {
        let mut step = Step::none();
        while self.output.is_none() {
            let Some(out) =
                self.elections.get(self.current as usize).and_then(ProtocolInstance::output)
            else {
                break;
            };
            let ElectionOutput { leader, winning_vrf, by_default } = out;
            let value = if by_default { None } else { winning_vrf.map(|v| v.beacon_value()) };
            self.results.push(BeaconEpoch { epoch: self.current, value, leader });
            if self.gc {
                // Acknowledge the recorded epoch; our own copy loops back
                // through the multicast and counts towards the quorum.
                step.push_multicast(Envelope::seal(
                    InstancePath::root(),
                    &BeaconMessage::Done { epoch: self.current },
                ));
            }
            self.current += 1;
            if self.current >= self.epochs {
                self.output = Some(self.results.clone());
            } else if !self.elections.contains(self.current as usize) {
                step.extend(self.start_epoch(self.current));
            }
        }
        step
    }

    /// Retires (in order) every epoch whose result a quorum of `n − f`
    /// parties has acknowledged — they multicast everything a straggler
    /// needs to finish the epoch before acknowledging it, so our retained
    /// copy no longer serves any liveness purpose.
    fn try_retire(&mut self) {
        if !self.gc {
            return;
        }
        let quorum = self.keyring.n() - self.keyring.f();
        while self.gc_frontier < self.current {
            let acks = self.acked.iter().filter(|&&acked| acked > self.gc_frontier).count();
            if acks < quorum {
                break;
            }
            self.elections.retire(self.gc_frontier as usize);
            self.gc_frontier += 1;
        }
    }
}

impl<F: AbaFactory + Clone> ProtocolInstance for RandomBeacon<F> {
    type Message = Envelope;
    type Output = Vec<BeaconEpoch>;

    fn on_activation(&mut self) -> Step<Envelope> {
        let mut step = self.pool.activate(&self.sid.derive("seeds", 0));
        step.extend(self.start_epoch(0));
        step.extend(self.advance());
        step
    }

    fn on_message(&mut self, from: PartyId, msg: Envelope) -> Step<Envelope> {
        let Some((seg, path)) = msg.path.split_first() else {
            // The only local message is the child-GC acknowledgement.  Acks
            // matter only while GC is on and the epoch is still ahead of the
            // retirement frontier, and each sender's are one counter, so no
            // sender can grow the state by naming many epochs.
            if let Some(BeaconMessage::Done { epoch }) = msg.open() {
                if let Some(acked) = self.acked.get_mut(from.index()) {
                    if self.gc && epoch >= self.gc_frontier && epoch < self.epochs {
                        *acked = (*acked).max(epoch + 1);
                        self.try_retire();
                    }
                }
            }
            return Step::none();
        };
        let child = Envelope { path, payload: msg.payload };
        match seg.kind {
            K_SEEDS => self.on_seeds(from, seg.index, child),
            K_ELECTION if u32::from(seg.index) < self.epochs => {
                self.on_election(from, seg.index, child)
            }
            _ => Step::none(),
        }
    }

    fn output(&self) -> Option<Vec<BeaconEpoch>> {
        self.output.clone()
    }

    fn pre_activation_stats(&self) -> setupfree_net::BufferStats {
        self.elections.stats().merge(self.pool.stats())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use setupfree_aba::MmrAbaFactory;
    use setupfree_core::{coin, election, TrustedCoinFactory};
    use setupfree_crypto::generate_pki;
    use setupfree_net::mux::PathSeg;
    use setupfree_net::Dest;

    type Beacon = RandomBeacon<MmrAbaFactory<TrustedCoinFactory>>;

    /// The `n` parties of a child-GC beacon of `epochs` epochs.
    fn beacons(n: usize, epochs: u32, label: &str) -> Vec<Beacon> {
        let (keyring, secrets) = generate_pki(n, 12);
        let keyring = Arc::new(keyring);
        secrets
            .into_iter()
            .enumerate()
            .map(|(i, secrets)| {
                let aba = MmrAbaFactory::new(PartyId(i), n, keyring.f(), TrustedCoinFactory);
                let secrets = Arc::new(secrets);
                RandomBeacon::new(Sid::new(label), PartyId(i), keyring.clone(), secrets, aba, epochs)
                    .with_child_gc()
            })
            .collect()
    }

    /// Whether `env` is Seeding traffic: the pool's, or a Seeding below an
    /// epoch's coin.
    fn is_seeding(env: &Envelope) -> bool {
        let segs: Vec<PathSeg> = env.path.segments().collect();
        match segs.as_slice() {
            [first, ..] if first.kind == K_SEEDS => true,
            [_, c, s, ..] => c.kind == election::K_COIN && s.kind == coin::K_SEEDING,
            _ => false,
        }
    }

    #[test]
    fn misrouted_and_malformed_pool_envelopes_are_dropped() {
        let mut parties = beacons(4, 3, "pool-drop");
        let beacon = &mut parties[0];
        let _ = beacon.on_activation();
        let at = |kind, index| InstancePath::of(PathSeg::new(kind, index));
        // A leader outside 0..n names no Seeding of the pool.
        assert!(beacon.on_message(PartyId(1), Envelope::seal(at(K_SEEDS, 4), &1u8)).is_empty());
        assert!(beacon.on_message(PartyId(1), Envelope::seal(at(K_SEEDS, 999), &1u8)).is_empty());
        // An unknown root path kind.
        assert!(beacon.on_message(PartyId(1), Envelope::seal(at(200, 0), &1u8)).is_empty());
        // A junk payload for a live leader's Seeding, and a path below it.
        let junk = Envelope { path: at(K_SEEDS, 2), payload: vec![99u8, 1, 2].into() };
        assert!(beacon.on_message(PartyId(1), junk).is_empty());
        let mut deep = at(K_SEEDS, 2);
        deep.push_front(PathSeg::new(K_SEEDS, 1));
        assert!(beacon.on_message(PartyId(1), Envelope::seal(deep, &1u8)).is_empty());
        assert_eq!(beacon.pre_activation_stats().buffered, 0);
        // Pool traffic mounts no election.
        assert_eq!(beacon.live_elections(), 1);
    }

    type Queue = VecDeque<(usize, usize, Envelope)>;

    /// Queues `from`'s outgoing messages, one copy per recipient.
    fn enqueue(queue: &mut Queue, n: usize, from: usize, step: Step<Envelope>) {
        for out in step.outgoing {
            match out.dest {
                Dest::All => (0..n).for_each(|to| queue.push_back((from, to, out.msg.clone()))),
                Dest::One(to) => queue.push_back((from, to.index(), out.msg)),
            }
        }
    }

    /// Delivers queued traffic in FIFO order until `done` holds.
    fn run_fifo(parties: &mut [Beacon], queue: &mut Queue, done: impl Fn(&[Beacon]) -> bool) {
        while !done(parties) {
            let (from, to, msg) = queue.pop_front().expect("traffic left");
            let step = parties[to].on_message(PartyId(from), msg);
            enqueue(queue, parties.len(), to, step);
        }
    }

    /// What a junk envelope for each of epochs 10..59 makes party 0 send:
    /// (messages, bytes, Seeding messages) summed over the fifty.
    fn junk_epochs(victim: &mut Beacon) -> (usize, usize, usize) {
        let (mut messages, mut bytes, mut seeding) = (0, 0, 0);
        for epoch in 10..60 {
            let path = InstancePath::of(PathSeg::new(K_ELECTION, epoch));
            let junk = Envelope { path, payload: vec![0u8].into() };
            let step = victim.on_message(PartyId(3), junk);
            for out in &step.outgoing {
                messages += 1;
                bytes += setupfree_wire::to_bytes(&out.msg).len();
                seeding += usize::from(is_seeding(&out.msg));
            }
        }
        (messages, bytes, seeding)
    }

    #[test]
    fn a_named_epoch_mounts_no_seedings() {
        // Before any seed lands, and again once epoch 0 is recorded (every
        // seed the pool will hold has landed), party 3 names fifty epochs
        // party 0 has not reached.  Each mounts an election, but none runs
        // a Seeding: the only Seeding traffic is the pool's, sent at
        // activation.
        let n = 4;
        let mut parties = beacons(n, 1_000, "junk-epochs");
        let mut queue = Queue::new();
        for (i, party) in parties.iter_mut().enumerate() {
            let step = party.on_activation();
            assert_eq!(step.outgoing.iter().filter(|o| is_seeding(&o.msg)).count(), n);
            enqueue(&mut queue, n, i, step);
        }
        let mut fresh = beacons(n, 1_000, "junk-epochs").swap_remove(0);
        let _ = fresh.on_activation();
        let (messages, _, seeding) = junk_epochs(&mut fresh);
        assert_eq!((messages, seeding), (0, 0), "before any seed lands, a named epoch sends nothing");
        assert_eq!(fresh.live_elections(), 51);

        run_fifo(&mut parties, &mut queue, |p| !p[0].results().is_empty());
        let (messages, bytes, seeding) = junk_epochs(&mut parties[0]);
        assert_eq!(seeding, 0, "a named epoch mounts no Seeding");
        // What each named epoch still sends once the pool holds all n
        // seeds: its coin deals our own AVSS, n 44-byte `KeyShare`s.
        assert_eq!(parties[0].pool.published(), n);
        assert_eq!((messages, bytes), (50 * n, 50 * n * 44));
    }
}
