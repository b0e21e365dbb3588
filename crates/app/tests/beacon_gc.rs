//! Long-run child GC for the sequential random beacon (PR 5 satellite).
//!
//! Without GC the beacon's per-epoch election router retains every finished
//! epoch until the whole run completes — unbounded live state for a
//! long-running (many-epoch) beacon.  With [`RandomBeacon::with_child_gc`]
//! a finished epoch is acknowledged (`Done` multicast) and retired once
//! `n − f` parties acknowledged it, so the retained-child count tracks the
//! spread between the slowest and fastest party instead of the epoch count.
//!
//! The probe wrapper samples each party's live/retired election counts
//! after every delivery, so the test pins the **peak** retained count — the
//! memory bound — not just the final state.  A retired epoch must also
//! leave only its record behind: the counting allocator below measures the
//! heap the parties hold after a long run against a short one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::rc::Rc;
use std::sync::Arc;

use setupfree_aba::MmrAbaFactory;
use setupfree_app::beacon::{BeaconEpoch, RandomBeacon, K_ELECTION, K_SEEDS};
use setupfree_core::{coin, election, TrustedCoinFactory};
use setupfree_crypto::{generate_pki, Keyring, PartySecrets};
use setupfree_net::{
    BoxedParty, Envelope, FifoScheduler, PartyId, PathSeg, ProtocolInstance, RandomScheduler,
    Scheduler, Sid, Simulation, Step, StopReason, TargetedDelayScheduler,
};
use setupfree_obs::{EventKind, ObsPath, Phase, VecSink};

type Beacon = RandomBeacon<MmrAbaFactory<TrustedCoinFactory>>;

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

/// Wraps a beacon and samples its live/retired election counts after every
/// activation, publishing them through shared cells the test reads post-run.
#[derive(Debug)]
struct GcProbe {
    inner: Beacon,
    live: Rc<Cell<usize>>,
    peak_live: Rc<Cell<usize>>,
    retired: Rc<Cell<usize>>,
}

impl GcProbe {
    fn sample(&self) {
        let live = self.inner.live_elections();
        self.live.set(live);
        self.peak_live.set(self.peak_live.get().max(live));
        self.retired.set(self.inner.retired_elections());
    }
}

impl ProtocolInstance for GcProbe {
    type Message = Envelope;
    type Output = Vec<BeaconEpoch>;

    fn on_activation(&mut self) -> Step<Envelope> {
        let step = self.inner.on_activation();
        self.sample();
        step
    }

    fn on_message(&mut self, from: PartyId, msg: Envelope) -> Step<Envelope> {
        let step = self.inner.on_message(from, msg);
        self.sample();
        step
    }

    fn output(&self) -> Option<Vec<BeaconEpoch>> {
        ProtocolInstance::output(&self.inner)
    }

    fn pre_activation_stats(&self) -> setupfree_net::BufferStats {
        self.inner.pre_activation_stats()
    }
}

struct Probes {
    live: Vec<Rc<Cell<usize>>>,
    peak_live: Vec<Rc<Cell<usize>>>,
    retired: Vec<Rc<Cell<usize>>>,
}

fn run_beacon(
    keyring: &Arc<Keyring>,
    secrets: &[Arc<PartySecrets>],
    epochs: u32,
    gc: bool,
    label: &str,
    scheduler: Box<dyn Scheduler>,
) -> (Vec<Option<Vec<BeaconEpoch>>>, Probes) {
    let n = keyring.n();
    let mut probes = Probes { live: Vec::new(), peak_live: Vec::new(), retired: Vec::new() };
    let parties: Vec<BoxedParty<Envelope, Vec<BeaconEpoch>>> = (0..n)
        .map(|i| {
            let aba = MmrAbaFactory::new(PartyId(i), n, keyring.f(), TrustedCoinFactory);
            let mut beacon = RandomBeacon::new(
                Sid::new(label),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                aba,
                epochs,
            );
            if gc {
                beacon = beacon.with_child_gc();
            }
            let live = Rc::new(Cell::new(0));
            let peak_live = Rc::new(Cell::new(0));
            let retired = Rc::new(Cell::new(0));
            probes.live.push(live.clone());
            probes.peak_live.push(peak_live.clone());
            probes.retired.push(retired.clone());
            Box::new(GcProbe { inner: beacon, live, peak_live, retired })
                as BoxedParty<Envelope, Vec<BeaconEpoch>>
        })
        .collect();
    let mut sim = Simulation::new(parties, scheduler);
    let report = sim.run(1 << 30);
    assert_eq!(report.reason, StopReason::AllOutputs, "beacon must terminate ({label})");
    (sim.outputs(), probes)
}

fn assert_epoch_agreement(outputs: &[Option<Vec<BeaconEpoch>>], epochs: u32) {
    let outs: Vec<&Vec<BeaconEpoch>> = outputs.iter().flatten().collect();
    for pair in outs.windows(2) {
        assert_eq!(pair[0].len(), epochs as usize);
        for (a, b) in pair[0].iter().zip(pair[1].iter()) {
            assert_eq!(a.leader, b.leader, "per-epoch leader agreement");
            assert_eq!(a.value, b.value, "per-epoch value agreement");
        }
    }
}

#[test]
fn child_gc_bounds_retained_elections_over_a_long_run() {
    let n = 4;
    let epochs = 8u32;
    let (keyring, secrets) = generate_pki(n, 77);
    let keyring = Arc::new(keyring);
    let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();

    // Benign schedules: acknowledgements flow promptly, so the peak live
    // count stays far below the epoch count — the long-run memory bound.
    let schedules: Vec<(&str, Box<dyn Scheduler>)> = vec![
        ("fifo", Box::new(FifoScheduler::default())),
        ("random0", Box::new(RandomScheduler::new(0))),
        ("random1", Box::new(RandomScheduler::new(1))),
    ];
    for (name, scheduler) in schedules {
        let (outputs, probes) =
            run_beacon(&keyring, &secrets, epochs, true, &format!("gc-{name}"), scheduler);
        assert_epoch_agreement(&outputs, epochs);
        for i in 0..n {
            let peak = probes.peak_live[i].get();
            assert!(
                peak < epochs as usize / 2,
                "party {i} under {name}: peak live elections {peak} must stay well below the \
                 {epochs}-epoch horizon"
            );
            assert!(
                probes.retired[i].get() >= epochs as usize - peak,
                "party {i} under {name}: finished epochs must actually retire"
            );
        }
    }

    // The control: without GC every epoch is retained until the run ends.
    let (outputs, probes) = run_beacon(
        &keyring,
        &secrets,
        epochs,
        false,
        "no-gc-control",
        Box::new(RandomScheduler::new(0)),
    );
    assert_epoch_agreement(&outputs, epochs);
    for i in 0..n {
        assert_eq!(probes.peak_live[i].get(), epochs as usize, "without GC nothing retires");
        assert_eq!(probes.retired[i].get(), 0);
    }
}

/// A Byzantine party that contributes nothing to any election but
/// immediately acknowledges every epoch — the worst case for the GC quorum,
/// which (like any `n − f` quorum, PBFT checkpoints included) may count up
/// to `f` Byzantine acks: retirement can then fire when only `n − 2f`
/// honest parties have actually finished the epoch.
#[derive(Debug)]
struct DoneSpammer {
    epochs: u32,
}

impl ProtocolInstance for DoneSpammer {
    type Message = Envelope;
    type Output = Vec<BeaconEpoch>;

    fn on_activation(&mut self) -> Step<Envelope> {
        let mut step = Step::none();
        for epoch in 0..self.epochs {
            step.push_multicast(Envelope::seal(
                setupfree_net::InstancePath::root(),
                &setupfree_app::beacon::BeaconMessage::Done { epoch },
            ));
        }
        step
    }

    fn on_message(&mut self, _from: PartyId, _msg: Envelope) -> Step<Envelope> {
        Step::none()
    }

    fn output(&self) -> Option<Vec<BeaconEpoch>> {
        None
    }
}

#[test]
fn child_gc_survives_byzantine_ack_inflation_with_a_starved_straggler() {
    // n=4, f=1: the spammer's fake acks mean an epoch retires once just TWO
    // honest parties (n − 2f) finished it, while the third honest party — a
    // straggler starved by targeted delay — is still inside the epoch.  The
    // straggler must finish from the two finishers' already-multicast
    // traffic alone; this is the minimum-slack regime of the retirement
    // contract, pinned across schedules and seeds.
    let n = 4;
    let epochs = 5u32;
    let (keyring, secrets) = generate_pki(n, 79);
    let keyring = Arc::new(keyring);
    let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();
    let schedules: Vec<Box<dyn Scheduler>> = vec![
        Box::new(FifoScheduler::default()),
        Box::new(RandomScheduler::new(5)),
        Box::new(RandomScheduler::new(6)),
        Box::new(TargetedDelayScheduler::new(vec![PartyId(0)], 7)),
        Box::new(TargetedDelayScheduler::new(vec![PartyId(2)], 8)),
    ];
    for (run, scheduler) in schedules.into_iter().enumerate() {
        let parties: Vec<BoxedParty<Envelope, Vec<BeaconEpoch>>> = (0..n)
            .map(|i| {
                if i == 3 {
                    Box::new(DoneSpammer { epochs }) as BoxedParty<Envelope, Vec<BeaconEpoch>>
                } else {
                    let aba = MmrAbaFactory::new(PartyId(i), n, keyring.f(), TrustedCoinFactory);
                    Box::new(
                        RandomBeacon::new(
                            Sid::new(&format!("gc-byz-{run}")),
                            PartyId(i),
                            keyring.clone(),
                            secrets[i].clone(),
                            aba,
                            epochs,
                        )
                        .with_child_gc(),
                    ) as BoxedParty<Envelope, Vec<BeaconEpoch>>
                }
            })
            .collect();
        let mut sim = Simulation::new(parties, scheduler);
        sim.mark_byzantine(PartyId(3));
        let report = sim.run(1 << 30);
        assert_eq!(
            report.reason,
            StopReason::AllOutputs,
            "run {run}: retirement under Byzantine ack inflation must not cost liveness"
        );
        assert_epoch_agreement(&sim.outputs(), epochs);
    }
}

#[test]
fn child_gc_survives_an_adversarial_schedule() {
    // A targeted-delay schedule starves one party: the quorum races ahead,
    // acknowledges and retires epochs the victim has not finished — the
    // victim must still terminate from the quorum's already-multicast
    // traffic (retirement must never cost liveness), and all parties agree.
    let n = 4;
    let epochs = 6u32;
    let (keyring, secrets) = generate_pki(n, 78);
    let keyring = Arc::new(keyring);
    let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();
    for seed in 0..3u64 {
        let (outputs, _probes) = run_beacon(
            &keyring,
            &secrets,
            epochs,
            true,
            &format!("gc-adv-{seed}"),
            Box::new(TargetedDelayScheduler::new(vec![PartyId(0)], seed)),
        );
        assert_epoch_agreement(&outputs, epochs);
    }
}

/// Runs a child-GC beacon of `epochs` epochs under FIFO delivery and
/// returns the heap its parties hold once every party has output (measured
/// before the simulation is dropped), with the elections they retired.
fn heap_after(
    keyring: &Arc<Keyring>,
    secrets: &[Arc<PartySecrets>],
    epochs: u32,
) -> (isize, usize) {
    let n = keyring.n();
    let before = live();
    let retired: Vec<Rc<Cell<usize>>> = (0..n).map(|_| Rc::new(Cell::new(0))).collect();
    let parties: Vec<BoxedParty<Envelope, Vec<BeaconEpoch>>> = (0..n)
        .map(|i| {
            let aba = MmrAbaFactory::new(PartyId(i), n, keyring.f(), TrustedCoinFactory);
            let beacon = RandomBeacon::new(
                Sid::new("gc-heap"),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                aba,
                epochs,
            )
            .with_child_gc();
            Box::new(GcProbe {
                inner: beacon,
                live: Rc::new(Cell::new(0)),
                peak_live: Rc::new(Cell::new(0)),
                retired: retired[i].clone(),
            }) as BoxedParty<Envelope, Vec<BeaconEpoch>>
        })
        .collect();
    let mut sim = Simulation::new(parties, Box::new(FifoScheduler::default()));
    let report = sim.run(1 << 30);
    assert_eq!(report.reason, StopReason::AllOutputs, "{epochs}-epoch beacon must terminate");
    let held = live() - before;
    drop(sim);
    (held, retired.iter().map(|r| r.get()).sum())
}

#[test]
fn a_retired_epoch_leaves_only_its_record_behind() {
    let n = 4;
    let (keyring, secrets) = generate_pki(n, 80);
    let keyring = Arc::new(keyring);
    let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();
    // A first run fills whatever the process caches once, so both measured
    // runs start from the same heap.
    heap_after(&keyring, &secrets, 4);
    let (short, retired_short) = heap_after(&keyring, &secrets, 16);
    let (long, retired_long) = heap_after(&keyring, &secrets, 48);
    assert!(retired_long >= retired_short + 32 * (n - 1), "the long run retires its epochs");
    let per_epoch = (long - short) / (retired_long - retired_short) as isize;
    // What one party must keep per retired epoch: the epoch's record in
    // `results` and in the output copy, the router slot (a null pointer),
    // and the tombstone flag — twice over, for vectors that grow by
    // doubling.  A slot that held the election inline would cost it the
    // election's size instead of a pointer.
    let bound =
        2 * (2 * size_of::<BeaconEpoch>() + size_of::<Option<Box<u8>>>() + size_of::<bool>());
    assert!(
        per_epoch <= bound as isize,
        "{per_epoch} bytes held per retired epoch per party, above the {bound}-byte bound \
         ({short} bytes held after 16 epochs, {long} after 48)"
    );
}

/// Holds one leader's Seeding traffic of the beacon's seed pool until this
/// party has retired epoch 0, then delivers it in arrival order.  The
/// network may delay any message that long, so this is a legal schedule,
/// and it makes the leader's seed land at each party only after that
/// party retired epoch 0.
struct LateSeed {
    inner: Beacon,
    leader: u16,
    held: Vec<(PartyId, Envelope)>,
}

impl ProtocolInstance for LateSeed {
    type Message = Envelope;
    type Output = Vec<BeaconEpoch>;

    fn on_activation(&mut self) -> Step<Envelope> {
        self.inner.on_activation()
    }

    fn on_message(&mut self, from: PartyId, msg: Envelope) -> Step<Envelope> {
        let late = msg.path.segments().next() == Some(PathSeg::new(K_SEEDS, self.leader.into()));
        if late && self.inner.retired_elections() == 0 {
            self.held.push((from, msg));
            return Step::none();
        }
        let mut step = self.inner.on_message(from, msg);
        if self.inner.retired_elections() > 0 {
            for (from, msg) in std::mem::take(&mut self.held) {
                step.extend(self.inner.on_message(from, msg));
            }
        }
        step
    }

    fn output(&self) -> Option<Vec<BeaconEpoch>> {
        ProtocolInstance::output(&self.inner)
    }
}

#[test]
fn a_seed_that_lands_after_epoch_0_retired_reaches_the_live_epochs() {
    // One leader's Seeding completes only after epoch 0 is retired at every
    // party.  Epochs still finish from the other n − f seeds, and when the
    // late seed lands, the pool's re-check of the live elections spawns the
    // leader's AVSS in a later epoch's coin in that same delivery.
    let n = 4;
    let epochs = 6u32;
    let leader = 3u16;
    let (keyring, secrets) = generate_pki(n, 81);
    let keyring = Arc::new(keyring);
    let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();
    let schedules: Vec<(&str, Box<dyn Scheduler>)> = vec![
        ("fifo", Box::new(FifoScheduler::default())),
        ("random3", Box::new(RandomScheduler::new(3))),
    ];
    for (name, scheduler) in schedules {
        let parties: Vec<BoxedParty<Envelope, Vec<BeaconEpoch>>> = (0..n)
            .map(|i| {
                let aba = MmrAbaFactory::new(PartyId(i), n, keyring.f(), TrustedCoinFactory);
                let inner = RandomBeacon::new(
                    Sid::new(&format!("late-seed-{name}")),
                    PartyId(i),
                    keyring.clone(),
                    secrets[i].clone(),
                    aba,
                    epochs,
                )
                .with_child_gc();
                Box::new(LateSeed { inner, leader, held: Vec::new() })
                    as BoxedParty<Envelope, Vec<BeaconEpoch>>
            })
            .collect();
        let mut sim = Simulation::new(parties, scheduler);
        setupfree_obs::install(Box::new(VecSink::new()));
        let report = sim.run(1 << 30);
        let trace = setupfree_obs::uninstall().map(|mut s| s.drain()).unwrap_or_default();
        assert_eq!(report.reason, StopReason::AllOutputs, "{name}: every epoch finishes");
        assert_epoch_agreement(&sim.outputs(), epochs);

        let pool = ObsPath::from_segments(&[(K_SEEDS, leader)]);
        for p in 0..n as u16 {
            let landed: Vec<u64> = trace
                .iter()
                .filter(|e| e.party == p)
                .filter(|e| match e.kind {
                    EventKind::Phase { path, phase, .. } => phase == Phase::CoinSeeded && path == pool,
                    _ => false,
                })
                .map(|e| e.clock)
                .collect();
            assert_eq!(landed.len(), 1, "{name}: party {p} lands leader {leader}'s seed once");
            let spawned_in: Vec<u16> = trace
                .iter()
                .filter(|e| e.party == p && e.clock == landed[0])
                .filter_map(|e| match e.kind {
                    EventKind::Activated { path } => match path.segments().collect::<Vec<_>>()[..] {
                        [(K_ELECTION, epoch), (election::K_COIN, 0), (coin::K_AVSS, dealer)]
                            if dealer == leader =>
                        {
                            Some(epoch)
                        }
                        _ => None,
                    },
                    _ => None,
                })
                .collect();
            assert!(
                spawned_in.iter().any(|&epoch| epoch >= 1),
                "{name}: party {p}: no later epoch spawned dealer {leader}'s AVSS when its seed \
                 landed (spawned in {spawned_in:?})"
            );
        }
    }
}
