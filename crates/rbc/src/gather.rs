//! The gather of `n` reliable broadcasts, one per broadcaster: the second
//! level at which the paper uses Bracha's broadcast.  The Election gathers
//! the parties' speculative largest VRFs this way (Alg 5 line 2), and the
//! CR93/AJM+21 core-set selection that the paper's weak core-set selection
//! replaces (§5.2, §6.1) gathers completed sets ([`SetGather`]).

use std::collections::BTreeSet;

use setupfree_net::mux::sealed_step;
use setupfree_net::{BufferStats, Envelope, Leaf, PartyId, ProtocolInstance, Router, Step};

use crate::Rbc;

/// The `n` reliable broadcasts of one gather, mounted in one [`Router`]
/// under a path kind the parent chooses: broadcaster `j`'s at index `j`.
///
/// The parent mounts them with [`Gather::activate`], broadcasts this
/// party's value once with [`Gather::offer`], routes the envelopes it
/// receives under the kind with [`Gather::route`], and takes each delivered
/// value once, in ascending broadcaster order, with [`Gather::delivered`].
#[derive(Debug)]
pub struct Gather {
    me: PartyId,
    n: usize,
    f: usize,
    rbcs: Router<Leaf<Rbc>>,
    offered: bool,
    /// Broadcasters whose delivered value has been handed back.
    taken: Vec<bool>,
}

impl Gather {
    /// Party `me`'s side of a gather among `n` parties tolerating `f`
    /// faults.  Broadcaster `j`'s broadcast runs at path `(kind, j)`.
    pub fn new(kind: u8, me: PartyId, n: usize, f: usize) -> Self {
        Gather {
            me,
            n,
            f,
            rbcs: Router::new(kind),
            offered: false,
            taken: vec![false; n],
        }
    }

    /// Mounts the `n` broadcasts in broadcaster order and returns their
    /// activation steps.
    pub fn activate(&mut self) -> Step<Envelope> {
        let mut step = Step::none();
        for j in 0..self.n {
            let rbc = Rbc::new(self.me, self.n, self.f, PartyId(j), None);
            step.extend(self.rbcs.insert(j, Leaf::new(rbc)));
        }
        step
    }

    /// Whether this party has offered its value.
    pub fn offered(&self) -> bool {
        self.offered
    }

    /// Broadcasts `value` as this party's; later offers send nothing.
    ///
    /// # Panics
    ///
    /// Panics if the gather has not been activated.
    pub fn offer(&mut self, value: Vec<u8>) -> Step<Envelope> {
        if self.offered {
            return Step::none();
        }
        self.offered = true;
        let me = self.me.index();
        let seg = self.rbcs.seg(me);
        let rbc = self.rbcs.get_mut(me).expect("a gather is activated before its offer");
        sealed_step(seg, rbc.inner_mut().provide_input(value))
    }

    /// Routes an envelope the parent received for broadcast `index` (its
    /// own segment already stripped).  Indices outside `0..n` are dropped.
    pub fn route(&mut self, from: PartyId, index: u16, msg: Envelope) -> Step<Envelope> {
        if usize::from(index) >= self.n {
            return Step::none();
        }
        self.rbcs.route(from, index, msg)
    }

    /// The values delivered since the last call, each `(broadcaster, value)`
    /// handed back once, in ascending broadcaster order.
    pub fn delivered(&mut self) -> Vec<(usize, Vec<u8>)> {
        let mut fresh = Vec::new();
        for (j, taken) in self.taken.iter_mut().enumerate() {
            if *taken {
                continue;
            }
            if let Some(value) = self.rbcs.get(j).and_then(ProtocolInstance::output) {
                *taken = true;
                fresh.push((j, value));
            }
        }
        fresh
    }

    /// The broadcasts' pre-activation buffer telemetry.
    pub fn stats(&self) -> BufferStats {
        self.rbcs.stats()
    }
}

/// The CR93/AJM+21 core-set gather over a [`Gather`]:
///
/// * each party offers its own set of completed indices once it holds
///   `n − f` of them;
/// * a delivered set is accepted if it holds at least `n − f` indices,
///   strictly increasing and all in `0..n` (the WCS snapshot rule), so a
///   repeated index cannot stand in for a distinct one;
/// * once `n − f` sets are accepted, the core is their union.
///
/// The gather-mode Coin and the n²-AVSS baseline coin both select their
/// core set this way.
#[derive(Debug)]
pub struct SetGather {
    gather: Gather,
    quorum: usize,
    accepted: usize,
    union: BTreeSet<usize>,
}

impl SetGather {
    /// Party `me`'s side of a set gather among `n` parties tolerating `f`
    /// faults; the broadcasts are laid out as [`Gather::new`] describes.
    pub fn new(kind: u8, me: PartyId, n: usize, f: usize) -> Self {
        SetGather {
            gather: Gather::new(kind, me, n, f),
            quorum: n - f,
            accepted: 0,
            union: BTreeSet::new(),
        }
    }

    /// Mounts the broadcasts (see [`Gather::activate`]).
    pub fn activate(&mut self) -> Step<Envelope> {
        self.gather.activate()
    }

    /// Whether this party has offered its set.
    pub fn offered(&self) -> bool {
        self.gather.offered()
    }

    /// Offers `completed` as this party's set once it holds `n − f`
    /// indices; otherwise, and after the first offer, sends nothing.
    pub fn offer(&mut self, completed: &BTreeSet<usize>) -> Step<Envelope> {
        if self.offered() || completed.len() < self.quorum {
            return Step::none();
        }
        let set: Vec<u32> = completed.iter().map(|&i| i as u32).collect();
        self.gather.offer(setupfree_wire::to_bytes(&set))
    }

    /// Routes an envelope (see [`Gather::route`]).
    pub fn route(&mut self, from: PartyId, index: u16, msg: Envelope) -> Step<Envelope> {
        self.gather.route(from, index, msg)
    }

    /// Accepts the sets delivered since the last call and returns the core
    /// once `n − f` sets are accepted.  The core never changes after that.
    pub fn core(&mut self) -> Option<&BTreeSet<usize>> {
        if self.accepted < self.quorum {
            for (_, bytes) in self.gather.delivered() {
                let Ok(set) = setupfree_wire::from_bytes::<Vec<u32>>(&bytes) else { continue };
                if set.len() >= self.quorum
                    && set.windows(2).all(|pair| pair[0] < pair[1])
                    && set.last().is_some_and(|&i| (i as usize) < self.gather.n)
                {
                    self.union.extend(set.iter().map(|&i| i as usize));
                    self.accepted += 1;
                }
            }
        }
        (self.accepted >= self.quorum).then_some(&self.union)
    }

    /// The broadcasts' pre-activation buffer telemetry.
    pub fn stats(&self) -> BufferStats {
        self.gather.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RbcMessage;
    use setupfree_net::{InstancePath, PathSeg};

    /// Delivers `set` as broadcaster `j`'s value: 2f + 1 = 3 readies.
    fn deliver(gather: &mut SetGather, j: u16, set: &[u32]) {
        let ready = RbcMessage::Ready(setupfree_wire::to_bytes(&set.to_vec()));
        for from in 0..3 {
            let _ = gather.route(PartyId(from), j, Envelope::seal(InstancePath::root(), &ready));
        }
    }

    #[test]
    fn the_core_is_the_union_of_the_first_n_minus_f_acceptable_sets() {
        let (n, f) = (4, 1);
        let mut gather = SetGather::new(7, PartyId(0), n, f);
        let _ = gather.activate();
        // Too small, or naming no party: delivered but not accepted.
        deliver(&mut gather, 1, &[0, 1]);
        deliver(&mut gather, 2, &[0, 1, 9]);
        deliver(&mut gather, 0, &[0, 1, 2]);
        assert_eq!(gather.core(), None);
        deliver(&mut gather, 3, &[1, 2, 3]);
        assert_eq!(gather.core(), None, "two acceptable sets of the three needed");
        // A broadcast outside 0..n is dropped, not buffered.
        deliver(&mut gather, 4, &[0, 1, 2]);
        assert_eq!(gather.stats().buffered, 0);

        let mut gather = SetGather::new(7, PartyId(0), n, f);
        let _ = gather.activate();
        deliver(&mut gather, 2, &[0, 1, 3]);
        deliver(&mut gather, 0, &[0, 1, 2]);
        deliver(&mut gather, 3, &[0, 1, 2]);
        assert_eq!(gather.core(), Some(&BTreeSet::from([0, 1, 2, 3])));

        let mut gather = SetGather::new(7, PartyId(0), n, f);
        let _ = gather.activate();
        for j in [0, 2, 3] {
            deliver(&mut gather, j, &[0, 1, 2]);
        }
        assert_eq!(gather.core(), Some(&BTreeSet::from([0, 1, 2])));
        // The core is fixed once formed.
        deliver(&mut gather, 1, &[1, 2, 3]);
        assert_eq!(gather.core(), Some(&BTreeSet::from([0, 1, 2])));
    }

    #[test]
    fn a_set_with_repeated_or_unordered_indices_is_not_accepted() {
        let (n, f) = (4, 1);
        for bad in [[0, 0, 0], [2, 1, 0]] {
            let mut gather = SetGather::new(7, PartyId(0), n, f);
            let _ = gather.activate();
            deliver(&mut gather, 1, &bad);
            deliver(&mut gather, 0, &[0, 1, 2]);
            deliver(&mut gather, 2, &[0, 1, 2]);
            assert_eq!(gather.core(), None, "{bad:?} does not count as a set");
            deliver(&mut gather, 3, &[0, 1, 3]);
            assert_eq!(gather.core(), Some(&BTreeSet::from([0, 1, 2, 3])));
        }
    }

    #[test]
    fn a_set_is_offered_once_it_holds_n_minus_f_indices_and_only_once() {
        let mut gather = SetGather::new(7, PartyId(2), 4, 1);
        let _ = gather.activate();
        assert!(gather.offer(&BTreeSet::from([0, 1])).is_empty());
        assert!(!gather.offered());
        let step = gather.offer(&BTreeSet::from([0, 1, 3]));
        assert_eq!(step.outgoing.len(), 1, "the own broadcast's Init");
        assert_eq!(step.outgoing[0].msg.path, InstancePath::of(PathSeg::new(7, 2)));
        assert!(gather.offer(&BTreeSet::from([0, 1, 2, 3])).is_empty());
    }
}
