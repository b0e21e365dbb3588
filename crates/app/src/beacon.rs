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
//! them (asynchronous stragglers still need their messages), so the
//! per-epoch election instances are retained until the whole beacon run
//! completes.
//!
//! For the *pipelined* variant — epochs running concurrently — admit one
//! election per epoch as its own session of the runtime's `ShardedHost`
//! instead; `tests/concurrent_sessions.rs` does exactly that.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use setupfree_core::election::{Election, ElectionOutput};
use setupfree_core::traits::AbaFactory;
use setupfree_crypto::{Keyring, PartySecrets};
use setupfree_net::mux::{composite_cap, decode_payload, Envelope, InstancePath};
use setupfree_net::{PartyId, ProtocolInstance, Router, Sid, Step};
use setupfree_wire::{Decode, Encode, Reader, WireError, Writer};

/// Path kind of the per-epoch election instances (keyed by epoch).
pub const K_ELECTION: u8 = 0;

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

impl Encode for BeaconMessage {
    fn encode(&self, w: &mut Writer) {
        match self {
            BeaconMessage::Done { epoch } => {
                w.write_u8(0);
                w.write_u32(*epoch);
            }
        }
    }
}

impl Decode for BeaconMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(BeaconMessage::Done { epoch: r.read_u32()? }),
            tag => Err(WireError::InvalidTag { tag: u64::from(tag), ty: "BeaconMessage" }),
        }
    }
}

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
    elections: Router<Election<F>>,
    results: Vec<BeaconEpoch>,
    output: Option<Vec<BeaconEpoch>>,
    /// Child GC ([`Self::with_child_gc`]): when `true`, finished epochs are
    /// acknowledged with a [`BeaconMessage::Done`] multicast and an epoch's
    /// election is retired once a quorum of `n − f` acknowledgements (our
    /// own included) has arrived — capping the long-run live-instance count
    /// instead of retaining every epoch until the whole run completes.
    gc: bool,
    /// `Done` acknowledgement senders per epoch.
    done_from: BTreeMap<u32, BTreeSet<usize>>,
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
        RandomBeacon {
            sid,
            me,
            keyring,
            secrets,
            aba_factory,
            epochs,
            current: 0,
            elections: Router::with_cap(K_ELECTION, composite_cap(n)),
            results: Vec::new(),
            output: None,
            gc: false,
            done_from: BTreeMap::new(),
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
        let election = Election::new(
            self.sid.derive("beacon-epoch", epoch as usize),
            self.me,
            self.keyring.clone(),
            self.secrets.clone(),
            self.aba_factory.clone(),
        );
        self.elections.insert(epoch as usize, election)
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
            let acks = self.done_from.get(&self.gc_frontier).map_or(0, BTreeSet::len);
            if acks < quorum {
                break;
            }
            self.elections.retire(self.gc_frontier as usize);
            self.done_from.remove(&self.gc_frontier);
            self.gc_frontier += 1;
        }
    }
}

impl<F: AbaFactory + Clone> ProtocolInstance for RandomBeacon<F> {
    type Message = Envelope;
    type Output = Vec<BeaconEpoch>;

    fn on_activation(&mut self) -> Step<Envelope> {
        let mut step = self.start_epoch(0);
        step.extend(self.advance());
        step
    }

    fn on_message(&mut self, from: PartyId, msg: Envelope) -> Step<Envelope> {
        let Some((seg, path)) = msg.path.split_first() else {
            // The only local message is the child-GC acknowledgement.  Acks
            // are only state worth holding while GC is on and the epoch is
            // still ahead of the retirement frontier — recording them
            // otherwise (GC off, or a straggler's late ack for an already
            // retired epoch) would accumulate exactly the per-epoch state
            // the GC exists to bound.
            if let Some(BeaconMessage::Done { epoch }) = decode_payload(&msg.payload) {
                if self.gc && epoch >= self.gc_frontier && epoch < self.epochs {
                    self.done_from.entry(epoch).or_default().insert(from.index());
                    self.try_retire();
                }
            }
            return Step::none();
        };
        let epoch = seg.index as u32;
        if seg.kind != K_ELECTION || epoch >= self.epochs {
            return Step::none();
        }
        // Lazily create the epoch's election if a faster peer is already
        // there, and keep finished epochs alive (until quorum-acknowledged
        // retirement, when GC is on) so stragglers still get our responses;
        // traffic for a retired epoch is dropped by the router.
        let mut step = Step::none();
        if !self.elections.contains(epoch as usize) && !self.elections.is_retired(epoch as usize) {
            step.extend(self.start_epoch(epoch));
        }
        step.extend(self.elections.route(from, seg.index, Envelope { path, payload: msg.payload }));
        step.extend(self.advance());
        step
    }

    fn output(&self) -> Option<Vec<BeaconEpoch>> {
        self.output.clone()
    }

    fn pre_activation_stats(&self) -> setupfree_net::BufferStats {
        self.elections.stats()
    }
}
