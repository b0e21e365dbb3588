//! Bounded vote state under a flooding peer.
//!
//! One Byzantine sender floods an activated instance with K distinct
//! `Echo` and `Ready` values — and, for AVSS, `KeyRec`s and `Key`s, both
//! before and after reconstruction starts; for a committee VBA, one member
//! floods a listener with `Decide`s.  Bracha's rule (each sender's first
//! vote counts) bounds what an instance keeps to one value per sender and
//! vote kind, so the live heap the flood leaves behind must not grow with
//! K.  The honest parties must still decide afterwards.  An ABA is flooded
//! with `BVal`s and `Aux`es for K distinct rounds: it drops rounds at or
//! past its 64-round cap, and each kept round holds at most n senders per
//! set.  A child-GC beacon
//! is flooded with `Done` acknowledgements for K distinct epochs: it keeps
//! one "acknowledged up to" counter per sender, so its heap must not grow
//! either (its liveness under a Byzantine acknowledger is
//! `crates/app/tests/beacon_gc.rs`'s).
//!
//! The live heap comes from the counting global allocator below.  It counts
//! per thread, and each flood runs on its test's thread, so the tests can
//! run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

use setupfree_aba::{AbaMessage, MmrAba, MmrAbaFactory};
use setupfree_app::beacon::{BeaconMessage, RandomBeacon};
use setupfree_avss::harness::AvssEndToEnd;
use setupfree_avss::{Avss, AvssMessage};
use setupfree_core::{Committee, CommitteeConfig, TrustedCoinFactory, TrustedElectionFactory};
use setupfree_crypto::pairing::G2;
use setupfree_crypto::{generate_pki, Keyring, PartySecrets, PvssSecret, Scalar};
use setupfree_net::{Dest, Envelope, InstancePath, PartyId, ProtocolInstance, Sid, Step};
use setupfree_rbc::{Rbc, RbcMessage};
use setupfree_seeding::{Seeding, SeedingMessage};
use setupfree_vba::{accept_all, Vba, VbaMessage};
use setupfree_wire::Decode;

struct Counting;

std::thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn charge(bytes: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// wrapper only adds byte counts to a thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            charge(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            charge(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        charge(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            charge(new_size as isize - layout.size() as isize);
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes allocated and not yet freed by the calling thread.
fn live() -> isize {
    LIVE.with(Cell::get)
}

const N: usize = 4;
const VICTIM: usize = 1;
const FLOODER: usize = 3;
const FLOODS: [usize; 2] = [1_000, 10_000];
/// Growth allowed between the two flood sizes: far below one stored value
/// per flooded message.
const SLACK: isize = 4096;

fn pki() -> (Arc<Keyring>, Vec<Arc<PartySecrets>>) {
    let (keyring, secrets) = generate_pki(N, 0xF100D);
    (Arc::new(keyring), secrets.into_iter().map(Arc::new).collect())
}

/// The `k`-th distinct 256-byte flood value.
fn junk(k: usize) -> Vec<u8> {
    let mut value = vec![0xAB; 256];
    value[..8].copy_from_slice(&(k as u64).to_le_bytes());
    value
}

/// FIFO delivery among `N` parties; `None` is the silent flooder (its
/// flood goes straight into the victim).
struct Net<P: ProtocolInstance> {
    parties: Vec<Option<P>>,
    queue: VecDeque<(usize, usize, P::Message)>,
}

impl<P: ProtocolInstance> Net<P> {
    fn activate(mut parties: Vec<Option<P>>) -> Self {
        let mut steps = Vec::new();
        for (i, party) in parties.iter_mut().enumerate() {
            if let Some(party) = party {
                steps.push((i, party.on_activation()));
            }
        }
        let mut net = Net { parties, queue: VecDeque::new() };
        for (i, step) in steps {
            net.send(i, step);
        }
        net
    }

    fn send(&mut self, from: usize, step: Step<P::Message>) {
        for out in step.outgoing {
            match out.dest {
                Dest::All => (0..N).for_each(|to| self.queue.push_back((from, to, out.msg.clone()))),
                Dest::One(to) => self.queue.push_back((from, to.index(), out.msg)),
            }
        }
    }

    /// Delivers `msg` from the flooder to the victim; a lone sender never
    /// reaches a threshold, so the victim answers nothing.
    fn flood(&mut self, msg: P::Message) {
        let victim = self.parties[VICTIM].as_mut().expect("the victim is honest");
        assert!(victim.on_message(PartyId(FLOODER), msg).is_empty());
    }

    fn run(&mut self) {
        while let Some((from, to, msg)) = self.queue.pop_front() {
            if let Some(party) = self.parties[to].as_mut() {
                let step = party.on_message(PartyId(from), msg);
                self.send(to, step);
            }
        }
    }

    fn outputs(&self) -> Vec<P::Output> {
        self.parties.iter().flatten().map(|p| p.output().expect("every honest party decides")).collect()
    }
}

/// Live-heap growth across `flood`, run once per flood size.
fn growth_per_flood(mut flood: impl FnMut(usize) -> isize) -> [isize; 2] {
    FLOODS.map(&mut flood)
}

fn assert_bounded(what: &str, growth: [isize; 2]) {
    assert!(
        growth[1] <= growth[0] + SLACK,
        "{what}: live heap grew with the flood: {} B after {} messages, {} B after {}",
        growth[0],
        FLOODS[0],
        growth[1],
        FLOODS[1]
    );
}

#[test]
fn an_rbc_flood_leaves_bounded_state() {
    let value = b"the honest broadcast".to_vec();
    let growth = growth_per_flood(|k| {
        let mut net = Net::activate(
            (0..N)
                .map(|i| {
                    let input = (i == 0).then(|| value.clone());
                    (i != FLOODER).then(|| Rbc::new(PartyId(i), N, 1, PartyId(0), input))
                })
                .collect(),
        );
        let before = live();
        for j in 0..k {
            net.flood(RbcMessage::Echo(junk(j)));
            net.flood(RbcMessage::Ready(junk(j)));
        }
        let grown = live() - before;
        net.run();
        assert!(net.outputs().iter().all(|o| *o == value), "honest parties deliver the sender's value");
        grown
    });
    assert_bounded("rbc", growth);
}

#[test]
fn an_avss_flood_leaves_bounded_state() {
    let (keyring, secrets) = pki();
    let secret = b"the dealer's secret".to_vec();
    let mut after_reconstruction = [0; 2];
    let before_reconstruction = growth_per_flood(|k| {
        let mut net = Net::activate(
            (0..N)
                .map(|i| {
                    let input = (i == 0).then(|| secret.clone());
                    let avss = Avss::new(Sid::new("avss-flood"), PartyId(i), PartyId(0), keyring.clone(), secrets[i].clone(), input);
                    (i != FLOODER).then(|| AvssEndToEnd::new(avss))
                })
                .collect(),
        );
        let before = live();
        for j in 0..k {
            net.flood(AvssMessage::Echo { cipher: junk(j) });
            net.flood(AvssMessage::Ready { cipher: junk(j) });
            let share = Scalar::from_u64(j as u64 + 1);
            net.flood(AvssMessage::KeyRec { share_a: share, share_b: share });
            net.flood(AvssMessage::Key { key: share });
        }
        let grown = live() - before;
        net.run();
        assert!(net.outputs().iter().all(|o| *o == secret), "honest parties reconstruct the secret");
        // Reconstruction has started everywhere: flood the key votes again.
        let before = live();
        for j in 0..k {
            net.flood(AvssMessage::Key { key: Scalar::from_u64(j as u64 + 1_000_000) });
        }
        after_reconstruction[(k != FLOODS[0]) as usize] = live() - before;
        grown
    });
    assert_bounded("avss before reconstruction", before_reconstruction);
    assert_bounded("avss key votes", after_reconstruction);
}

#[test]
fn a_seeding_flood_leaves_bounded_state() {
    let (keyring, secrets) = pki();
    let secret = |j: usize| {
        let element = setupfree_wire::to_bytes(&G2::generator_pow(Scalar::from_u64(j as u64 + 2)));
        PvssSecret::decode(&mut setupfree_wire::Reader::new(&element)).expect("a G2 element")
    };
    let growth = growth_per_flood(|k| {
        let mut net = Net::activate(
            (0..N)
                .map(|i| {
                    (i != FLOODER).then(|| {
                        Seeding::new(Sid::new("seeding-flood"), PartyId(i), PartyId(0), keyring.clone(), secrets[i].clone())
                    })
                })
                .collect(),
        );
        let before = live();
        for j in 0..k {
            net.flood(SeedingMessage::SeedEcho { secret: secret(j) });
            net.flood(SeedingMessage::SeedReady { secret: secret(j) });
        }
        let grown = live() - before;
        net.run();
        let seeds = net.outputs();
        assert!(seeds.windows(2).all(|w| w[0] == w[1]), "honest parties agree on the seed");
        grown
    });
    assert_bounded("seeding", growth);
}

#[test]
fn a_vba_decide_flood_leaves_a_listener_bounded_state() {
    let n = 10;
    let (keyring, secrets) = generate_pki(n, 0xDEC1DE);
    let keyring = Arc::new(keyring);
    let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();
    let config = CommitteeConfig::new(4, "decide-flood");
    let committee = Committee::sample(&config, &7u64.to_le_bytes(), n);
    let listener = (0..n).map(PartyId).find(|p| !committee.is_member(*p)).expect("a listener");
    let (&flooder, honest) = committee.members().split_first().expect("four members");
    let decision = b"the committee's decision".to_vec();
    let decide = |value| Envelope::seal(InstancePath::root(), &VbaMessage::Decide { value });
    let votes =
        MmrAbaFactory::with_committee(listener, n, keyring.f(), TrustedCoinFactory, committee.clone());
    let growth = growth_per_flood(|k| {
        let mut vba = Vba::with_committee(
            Sid::new("decide-flood"),
            listener,
            keyring.clone(),
            secrets[listener.index()].clone(),
            b"a listener proposes nothing".to_vec(),
            accept_all(),
            TrustedElectionFactory::new(n),
            votes.clone(),
            committee.clone(),
        );
        assert!(vba.on_activation().is_empty(), "listeners send nothing");
        let before = live();
        for j in 0..k {
            assert!(vba.on_message(flooder, decide((j as u64).to_le_bytes().to_vec())).is_empty());
        }
        let grown = live() - before;
        // f_c + 1 honest members announce the decision: the listener adopts it.
        for &member in &honest[..committee.adopt_threshold()] {
            let _ = vba.on_message(member, decide(decision.clone()));
        }
        assert_eq!(vba.output(), Some(decision.clone()), "the listener adopts the honest decision");
        grown
    });
    assert_bounded("vba decide", growth);
}

#[test]
fn an_aba_vote_flood_leaves_bounded_state() {
    let vote = |msg: AbaMessage| Envelope::seal(InstancePath::root(), &msg);
    let growth = growth_per_flood(|k| {
        let mut net = Net::activate(
            (0..N)
                .map(|i| {
                    (i != FLOODER).then(|| {
                        let (sid, input) = (Sid::new("aba-flood"), i % 2 == 0);
                        MmrAba::new(sid, PartyId(i), N, 1, input, TrustedCoinFactory)
                    })
                })
                .collect(),
        );
        let before = live();
        for j in 0..k {
            let (round, value) = (j as u32, j % 2 == 1);
            net.flood(vote(AbaMessage::BVal { round, value }));
            net.flood(vote(AbaMessage::Aux { round, value }));
        }
        net.flood(vote(AbaMessage::Finish { value: true }));
        let grown = live() - before;
        net.run();
        let decided = net.outputs();
        assert!(decided.windows(2).all(|w| w[0] == w[1]), "honest parties agree: {decided:?}");
        grown
    });
    assert_bounded("aba votes", growth);
}

#[test]
fn a_beacon_ack_flood_leaves_bounded_state() {
    let (keyring, secrets) = pki();
    let epochs = FLOODS[1] as u32;
    let growth = growth_per_flood(|k| {
        let mut net = Net::activate(
            (0..N)
                .map(|i| {
                    (i != FLOODER).then(|| {
                        let aba =
                            MmrAbaFactory::new(PartyId(i), N, keyring.f(), TrustedCoinFactory);
                        RandomBeacon::new(
                            Sid::new("ack-flood"),
                            PartyId(i),
                            keyring.clone(),
                            secrets[i].clone(),
                            aba,
                            epochs,
                        )
                        .with_child_gc()
                    })
                })
                .collect(),
        );
        let before = live();
        for epoch in 0..k as u32 {
            net.flood(Envelope::seal(InstancePath::root(), &BeaconMessage::Done { epoch }));
        }
        live() - before
    });
    assert_bounded("beacon acks", growth);
}
