//! Measurement harness shared by the Table 1 / figure reproduction binaries
//! and the Criterion benches.
//!
//! Every workload is an [`Ensemble`]: how to build each party, the
//! simulator's delivery budget, and how the parties' outputs are judged to
//! agree.  An ensemble runs through one of two runners and returns the
//! paper's three metrics (communication bits among honest parties, messages,
//! asynchronous rounds), plus agreement observations:
//!
//! * the simulator, through testkit's [`sweep`] under one [`Adversary`], so
//!   every run also passes sweep's budget and conservation checks
//!   ([`Ensemble::run`]; the traced runs are the same call with a trace
//!   sink installed);
//! * real loopback TCP peers ([`Ensemble::over_sockets`]).
//!
//! The Coin, the setup-free ABA and the beacon, which several runners
//! measure, each have one party builder over a keyring, secrets and sid
//! (e.g. [`coin_parties`]) and one seeded bench workload on top of it
//! ([`coin_workload`], [`setupfree_aba_workload`], [`beacon_workload`]).
//!
//! See `EXPERIMENTS.md` at the workspace root for the experiment index and
//! the recorded paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tracing;

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use setupfree_aba::{setup_free_aba_factory, MmrAba, MmrAbaFactory};
use setupfree_app::beacon::{BeaconEpoch, RandomBeacon};
use setupfree_avss::harness::AvssEndToEnd;
use setupfree_avss::{Avss, AvssMessage};
use setupfree_baselines::{LocalCoinFactory, SquaredAvssCoin};
use setupfree_core::coin::{Coin, CoinOutput, CoinProtocolFactory, CoreSetMode};
use setupfree_core::election::{Election, ElectionOutput, ElectionProtocolFactory};
use setupfree_core::{Committee, CommitteeConfig, TrustedCoinFactory, TrustedElectionFactory};
use setupfree_crypto::{generate_pki, Keyring, PartySecrets};
use setupfree_net::{
    BoxedParty, Envelope, PartyId, ProtocolInstance, RandomScheduler, Sid, Simulation, StopReason,
};
use setupfree_runtime::{MaxConcurrent, SessionSetup, ShardedHost, ShardedRunReport};
use setupfree_rbc::Rbc;
use setupfree_seeding::Seeding;
use setupfree_testkit::{sweep, Adversary, SweepRun};
use setupfree_transport::{LinkFaultPlan, TcpPeerGroup};
use setupfree_vba::{accept_all, Vba};
use setupfree_wcs::{Wcs, WcsHarness};
use setupfree_wire::{Decode, Encode};

/// The metrics of one protocol execution.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Number of parties.
    pub n: usize,
    /// Fault threshold.
    pub f: usize,
    /// Bytes sent by honest parties.
    pub honest_bytes: u64,
    /// Messages sent by honest parties.
    pub honest_messages: u64,
    /// Asynchronous (causal) rounds until every honest party output.
    pub rounds: u64,
    /// Total deliveries performed by the simulator.
    pub deliveries: u64,
    /// Whether all honest outputs were identical (when meaningful).
    pub agreed: bool,
}

/// A bulletin PKI of `n` parties generated from `seed`.
pub fn pki(n: usize, seed: u64) -> (Arc<Keyring>, Vec<Arc<PartySecrets>>) {
    let (keyring, secrets) = generate_pki(n, seed);
    (Arc::new(keyring), secrets.into_iter().map(Arc::new).collect())
}

fn all_equal<T: PartialEq>(outputs: &[Option<T>]) -> bool {
    let vals: Vec<&T> = outputs.iter().flatten().collect();
    vals.windows(2).all(|w| w[0] == w[1])
}

/// Coin agreement is on the bit; the certificate sets may differ.
fn same_bit(outputs: &[Option<CoinOutput>]) -> bool {
    let bits: Vec<bool> = outputs.iter().flatten().map(|o| o.bit).collect();
    bits.windows(2).all(|w| w[0] == w[1])
}

/// Election agreement is on the leader; the winning VRF is speculative
/// per-party state.
fn same_leader(outputs: &[Option<ElectionOutput>]) -> bool {
    let leaders: Vec<PartyId> = outputs.iter().flatten().map(|o| o.leader).collect();
    leaders.windows(2).all(|w| w[0] == w[1])
}

/// Builds party `i` of an ensemble.  `Sync`, because the socket runner
/// builds each peer's machine on that peer's thread.
type PartyBuilder<M, O> = Box<dyn Fn(usize) -> BoxedParty<M, O> + Sync>;

/// One protocol ensemble: how to build each party, the simulator's delivery
/// budget, and how the parties' outputs are judged to agree.
pub struct Ensemble<M, O> {
    n: usize,
    party: PartyBuilder<M, O>,
    budget: u64,
    agreed: fn(&[Option<O>]) -> bool,
}

impl<M, O> Ensemble<M, O>
where
    M: Encode + Decode + Clone + std::fmt::Debug + 'static,
    O: Clone + std::fmt::Debug + 'static,
{
    /// `n` parties, party `i` built by `party(i)`, run within `budget`
    /// deliveries; `agreed` judges every party's output.
    pub(crate) fn new<P>(
        n: usize,
        budget: u64,
        agreed: fn(&[Option<O>]) -> bool,
        party: impl Fn(usize) -> P + Sync + 'static,
    ) -> Self
    where
        P: ProtocolInstance<Message = M, Output = O> + 'static,
    {
        let party: PartyBuilder<M, O> = Box::new(move |i| Box::new(party(i)));
        Ensemble { n, party, budget, agreed }
    }

    /// Builds every party (index `i` is `P_i`).
    pub(crate) fn parties(&self) -> Vec<BoxedParty<M, O>> {
        (0..self.n).map(&self.party).collect()
    }

    /// Runs the ensemble once under `adversary` through testkit's [`sweep`],
    /// which checks the run's budget and conservation books; `mount` sees
    /// the simulation before its first delivery.  Termination is left to
    /// the caller.
    fn simulate(
        self,
        adversary: &Adversary,
        mut mount: impl FnMut(&mut Simulation<M, O>),
    ) -> (Measurement, SweepRun<O>) {
        let mut runs = sweep(std::slice::from_ref(adversary), self.budget, |adv| {
            let mut sim = Simulation::new(self.parties(), adv.scheduler());
            mount(&mut sim);
            sim
        });
        let run = runs.pop().expect("one adversary, one run");
        let measurement = Measurement {
            n: self.n,
            f: (self.n - 1) / 3,
            honest_bytes: run.metrics.honest_bytes,
            honest_messages: run.metrics.honest_messages,
            rounds: run.metrics.rounds_to_all_outputs().unwrap_or(0),
            deliveries: run.report.deliveries,
            agreed: (self.agreed)(&run.outputs),
        };
        (measurement, run)
    }

    /// Runs the ensemble in the simulator under `adversary` until every
    /// honest party outputs, and returns its metrics and every party's
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if the budget runs out first, or if the run's books do not
    /// balance.
    pub fn run(self, adversary: &Adversary) -> (Measurement, Vec<Option<O>>) {
        let (measurement, run) = self.simulate(adversary, |_| {});
        run.assert_termination();
        (measurement, run.outputs)
    }

    /// The metrics of [`Self::run`].
    pub(crate) fn measure(self, adversary: &Adversary) -> Measurement {
        self.run(adversary).0
    }
}

/// The parties of one instance of the paper's Coin (Alg 4) with core-set
/// mode `mode`.
pub fn coin_parties(
    keyring: Arc<Keyring>,
    secrets: Vec<Arc<PartySecrets>>,
    sid: Sid,
    mode: CoreSetMode,
) -> Ensemble<Envelope, CoinOutput> {
    Ensemble::new(keyring.n(), 1 << 28, same_bit, move |i| {
        Coin::with_core_mode(sid.clone(), PartyId(i), keyring.clone(), secrets[i].clone(), mode)
    })
}

/// The parties of the paper's full private-setup-free ABA (every round flips
/// the real Coin); party `i` proposes `input(i)`.
pub(crate) fn setupfree_aba_parties(
    keyring: Arc<Keyring>,
    secrets: Vec<Arc<PartySecrets>>,
    sid: Sid,
    input: impl Fn(usize) -> bool + Sync + 'static,
) -> Ensemble<Envelope, bool> {
    Ensemble::new(keyring.n(), 1 << 30, all_equal, move |i| {
        let coins = CoinProtocolFactory::new(PartyId(i), keyring.clone(), secrets[i].clone());
        MmrAba::new(sid.clone(), PartyId(i), keyring.n(), keyring.f(), input(i), coins)
    })
}

/// The parties of an `epochs`-epoch DKG-free random beacon.  Each epoch's
/// election runs the real Coin; the ABA inside it uses the trusted coin to
/// keep sweeps tractable.  Every party must report the same whole history.
pub(crate) fn beacon_parties(
    keyring: Arc<Keyring>,
    secrets: Vec<Arc<PartySecrets>>,
    sid: Sid,
    epochs: u32,
) -> Ensemble<Envelope, Vec<BeaconEpoch>> {
    Ensemble::new(keyring.n(), 1 << 30, all_equal, move |i| {
        let aba = MmrAbaFactory::new(PartyId(i), keyring.n(), keyring.f(), TrustedCoinFactory);
        RandomBeacon::new(sid.clone(), PartyId(i), keyring.clone(), secrets[i].clone(), aba, epochs)
    })
}

/// The bench's Coin workload: the PKI of `seed`, sid `bench-coin-{seed}`.
/// The measured, traced, determinism and socket rows all run it.
pub fn coin_workload(n: usize, seed: u64, mode: CoreSetMode) -> Ensemble<Envelope, CoinOutput> {
    let (keyring, secrets) = pki(n, seed);
    coin_parties(keyring, secrets, Sid::new(&format!("bench-coin-{seed}")), mode)
}

/// The bench's setup-free ABA workload: the PKI of `seed`, sid
/// `bench-aba-{seed}`, input `i % 2 == 0` at party `i`.
pub fn setupfree_aba_workload(n: usize, seed: u64) -> Ensemble<Envelope, bool> {
    let (keyring, secrets) = pki(n, seed);
    setupfree_aba_parties(keyring, secrets, Sid::new(&format!("bench-aba-{seed}")), |i| {
        i % 2 == 0
    })
}

/// The bench's beacon workload: the PKI of `seed`, sid `bench-beacon-{seed}`.
pub fn beacon_workload(n: usize, epochs: u32, seed: u64) -> Ensemble<Envelope, Vec<BeaconEpoch>> {
    let (keyring, secrets) = pki(n, seed);
    beacon_parties(keyring, secrets, Sid::new(&format!("bench-beacon-{seed}")), epochs)
}

/// The bench's AVSS workload: one sharing and reconstruction of a 48-byte
/// secret dealt by `P_0`, over the PKI of `seed`.
pub(crate) fn avss_workload(n: usize, seed: u64) -> Ensemble<AvssMessage, Vec<u8>> {
    let (keyring, secrets) = pki(n, seed);
    Ensemble::new(n, 1 << 26, all_equal, move |i| {
        let input = (i == 0).then(|| vec![42u8; 48]);
        let (sid, secrets) = (Sid::new("bench-avss"), secrets[i].clone());
        AvssEndToEnd::new(Avss::new(sid, PartyId(i), PartyId(0), keyring.clone(), secrets, input))
    })
}

/// Measures a single Bracha RBC with a payload of `payload` bytes.
pub fn measure_rbc(n: usize, payload: usize, seed: u64) -> Measurement {
    let f = (n - 1) / 3;
    Ensemble::new(n, 1 << 26, all_equal, move |i| {
        let input = (i == 0).then(|| vec![7u8; payload]);
        Rbc::new(PartyId(i), n, f, PartyId(0), input)
    })
    .measure(&Adversary::Random { seed })
}

/// Measures a single AVSS (share + reconstruct) with dealer `P_0`.
pub fn measure_avss(n: usize, seed: u64) -> Measurement {
    avss_workload(n, seed).measure(&Adversary::Random { seed })
}

/// Measures a single WCS instance with full input sets.
pub fn measure_wcs(n: usize, seed: u64) -> Measurement {
    let (keyring, secrets) = pki(n, seed);
    let input: BTreeSet<usize> = (0..n).collect();
    Ensemble::new(n, 1 << 26, |_| true, move |i| {
        let wcs = Wcs::new(Sid::new("bench-wcs"), keyring.clone(), secrets[i].clone());
        WcsHarness::new(wcs, input.clone())
    })
    .measure(&Adversary::Random { seed })
}

/// Measures a single Seeding instance led by `P_0`.
pub fn measure_seeding(n: usize, seed: u64) -> Measurement {
    let (keyring, secrets) = pki(n, seed);
    Ensemble::new(n, 1 << 26, all_equal, move |i| {
        let sid = Sid::new("bench-seeding");
        Seeding::new(sid, PartyId(i), PartyId(0), keyring.clone(), secrets[i].clone())
    })
    .measure(&Adversary::Random { seed })
}

/// Measures one instance of the paper's Coin (Alg 4) with the chosen core-set
/// mode, and whether all honest parties agreed on the bit.
pub fn measure_coin(n: usize, seed: u64, mode: CoreSetMode) -> Measurement {
    coin_workload(n, seed, mode).measure(&Adversary::Random { seed })
}

/// Measures the CKLS02-style `n²`-AVSS baseline coin.
pub fn measure_squared_coin(n: usize, seed: u64) -> Measurement {
    let (keyring, secrets) = pki(n, seed);
    let sid = Sid::new(&format!("bench-sq-{seed}"));
    Ensemble::new(n, 1 << 28, same_bit, move |i| {
        SquaredAvssCoin::new(sid.clone(), PartyId(i), keyring.clone(), secrets[i].clone())
    })
    .measure(&Adversary::Random { seed })
}

/// Measures the paper's full private-setup-free ABA (every round flips the
/// real Coin) with mixed inputs.
pub fn measure_setupfree_aba(n: usize, seed: u64) -> Measurement {
    setupfree_aba_workload(n, seed).measure(&Adversary::Random { seed })
}

/// Measures the ABA with the idealised trusted-setup coin (the
/// Cachin-et-al.-style comparison row: what agreement costs once the coin is
/// free).
pub fn measure_trusted_aba(n: usize, seed: u64) -> Measurement {
    let f = (n - 1) / 3;
    let sid = Sid::new(&format!("bench-taba-{seed}"));
    Ensemble::new(n, 1 << 26, all_equal, move |i| {
        MmrAba::new(sid.clone(), PartyId(i), n, f, i % 2 == 0, TrustedCoinFactory)
    })
    .measure(&Adversary::Random { seed })
}

/// Measures the ABA with purely local coins (the Ben-Or baseline).  Returns
/// `None` if it fails to decide within the delivery budget (expected for
/// larger `n` — that is the point of the comparison).
pub fn measure_local_coin_aba(n: usize, seed: u64, budget: u64) -> Option<Measurement> {
    let f = (n - 1) / 3;
    let sid = Sid::new(&format!("bench-laba-{seed}"));
    let (m, run) = Ensemble::new(n, budget, all_equal, move |i| {
        MmrAba::new(sid.clone(), PartyId(i), n, f, i % 2 == 0, LocalCoinFactory::new(PartyId(i)))
    })
    .simulate(&Adversary::Random { seed }, |_| {});
    (run.report.reason == StopReason::AllOutputs).then_some(m)
}

/// Measures one full setup-free Election (Alg 5) including its internal Coin
/// and ABA (whose rounds also use the real Coin).
pub fn measure_election(n: usize, seed: u64) -> (Measurement, Vec<ElectionOutput>) {
    let (keyring, secrets) = pki(n, seed);
    let sid = Sid::new(&format!("bench-elec-{seed}"));
    let (m, outputs) = Ensemble::new(n, 1 << 30, same_leader, move |i| {
        let aba = setup_free_aba_factory(PartyId(i), keyring.clone(), secrets[i].clone());
        Election::new(sid.clone(), PartyId(i), keyring.clone(), secrets[i].clone(), aba)
    })
    .run(&Adversary::Random { seed });
    (m, outputs.into_iter().flatten().collect())
}

/// Measures one full setup-free VBA (proposals of `payload` bytes).
pub fn measure_vba(n: usize, payload: usize, seed: u64) -> Measurement {
    let (keyring, secrets) = pki(n, seed);
    let sid = Sid::new(&format!("bench-vba-{seed}"));
    Ensemble::new(n, 1 << 30, all_equal, move |i| {
        let (me, secrets) = (PartyId(i), secrets[i].clone());
        let aba = setup_free_aba_factory(me, keyring.clone(), secrets.clone());
        let elections =
            ElectionProtocolFactory::new(me, keyring.clone(), secrets.clone(), aba.clone());
        let input = vec![i as u8; payload];
        Vba::new(sid.clone(), me, keyring.clone(), secrets, input, accept_all(), elections, aba)
    })
    .measure(&Adversary::Random { seed })
}

// ---------------------------------------------------------------------------
// Committee-subsampled workloads (PR 7): an m-member committee runs the
// protocol, the other n − m parties listen and adopt — the standard scaling
// move for pushing agreement to n in the hundreds.  Committee rows plug the
// trusted (zero-message) coin and election, because the setup-free Coin and
// Election are all-n constructions; the directly comparable all-to-all row
// is therefore [`measure_trusted_aba`] / [`measure_trusted_vba`], not the
// full setup-free stack.
// ---------------------------------------------------------------------------

/// Samples the benchmark committee for one `(n, m, seed)` cell (fixed
/// domain, so a cell is reproducible from its arguments alone).
pub fn bench_committee(n: usize, m: usize, seed: u64) -> Committee {
    Committee::sample(&CommitteeConfig::new(m, "bench"), &seed.to_le_bytes(), n)
}

/// Measures one committee-sampled trusted-coin ABA: `m` members run MMR,
/// `n − m` listeners adopt the committee's Finish quorum.  Mixed inputs
/// across members.
pub fn measure_committee_aba(n: usize, m: usize, seed: u64) -> Measurement {
    let committee = bench_committee(n, m, seed);
    let f = (n - 1) / 3;
    let sid = Sid::new(&format!("bench-caba-{seed}"));
    Ensemble::new(n, 1 << 28, all_equal, move |i| {
        let input = i % 2 == 0;
        let committee = committee.clone();
        MmrAba::with_committee(sid.clone(), PartyId(i), n, f, input, TrustedCoinFactory, committee)
    })
    .measure(&Adversary::Random { seed })
}

/// Measures the all-to-all VBA with the trusted (zero-message) election and
/// trusted-coin vote-ABAs — the directly comparable baseline row for
/// [`measure_committee_vba`], isolating what committee sampling saves from
/// what the pluggable election costs.
pub fn measure_trusted_vba(n: usize, payload: usize, seed: u64) -> Measurement {
    let (keyring, secrets) = pki(n, seed);
    let sid = Sid::new(&format!("bench-tvba-{seed}"));
    Ensemble::new(n, 1 << 30, all_equal, move |i| {
        let aba = MmrAbaFactory::new(PartyId(i), n, keyring.f(), TrustedCoinFactory);
        Vba::new(
            sid.clone(),
            PartyId(i),
            keyring.clone(),
            secrets[i].clone(),
            vec![i as u8; payload],
            accept_all(),
            TrustedElectionFactory::new(n),
            aba,
        )
    })
    .measure(&Adversary::Random { seed })
}

/// Measures one committee-sampled VBA (trusted election + committee
/// trusted-coin vote-ABAs over the same committee): members run the
/// consistent-broadcast / election / vote pipeline, listeners adopt the
/// `Decide` announcements.
pub fn measure_committee_vba(n: usize, m: usize, payload: usize, seed: u64) -> Measurement {
    let committee = bench_committee(n, m, seed);
    let (keyring, secrets) = pki(n, seed);
    let sid = Sid::new(&format!("bench-cvba-{seed}"));
    Ensemble::new(n, 1 << 30, all_equal, move |i| {
        let aba = MmrAbaFactory::with_committee(
            PartyId(i),
            n,
            keyring.f(),
            TrustedCoinFactory,
            committee.clone(),
        );
        Vba::with_committee(
            sid.clone(),
            PartyId(i),
            keyring.clone(),
            secrets[i].clone(),
            vec![i as u8; payload],
            accept_all(),
            TrustedElectionFactory::new(n),
            aba,
            committee.clone(),
        )
    })
    .measure(&Adversary::Random { seed })
}

/// Measures a multi-epoch run of the DKG-free random beacon (using the
/// trusted-coin ABA inside the per-epoch elections to keep the sweep
/// tractable; the election itself and its Coin are the real thing).
pub fn measure_beacon(n: usize, epochs: u32, seed: u64) -> (Measurement, Vec<BeaconEpoch>) {
    let (m, outputs) = beacon_workload(n, epochs, seed).run(&Adversary::Random { seed });
    (m, outputs.into_iter().flatten().next().unwrap_or_default())
}

// ---------------------------------------------------------------------------
// Sharded-runtime workloads (PR 5): sessions partitioned across worker
// shards, each owning its scheduler / slab / budget / metrics.
// ---------------------------------------------------------------------------

/// Summarises a [`ShardedRunReport`] into the common [`Measurement`] shape
/// (aggregate = per-session sums; `agreed` = per-session output agreement).
/// Panics unless every session terminated, as [`Ensemble::run`] does for a
/// single simulation.
fn summarize_sharded<O: PartialEq + Clone + std::fmt::Debug>(
    n: usize,
    report: &ShardedRunReport<O>,
) -> Measurement {
    report.assert_conservation();
    assert!(
        report.all_terminated(),
        "a sharded session did not terminate within budget"
    );
    let agg = report.aggregate();
    let agreed = report.outputs.iter().all(|session| all_equal(session));
    Measurement {
        n,
        f: (n - 1) / 3,
        honest_bytes: agg.honest_bytes,
        honest_messages: agg.honest_messages,
        rounds: agg.rounds.unwrap_or(0),
        deliveries: agg.delivered,
        agreed,
    }
}

/// The scheduler of sharded session `s`, seeded by `(seed, s)`.
fn session_scheduler(seed: u64, s: usize) -> Box<RandomScheduler> {
    Box::new(RandomScheduler::new(seed.wrapping_add((s as u64).wrapping_mul(0x9e37_79b9))))
}

/// Measures `k` concurrent full setup-free ABA sessions (every round of
/// every session flips the real Coin) on the **sharded runtime** — the
/// workload studied for concurrent asynchronous BA (Cohen et al.,
/// arXiv:2312.14506): sessions partitioned across `workers` shards, one OS
/// thread per shard, each session with its own scheduler/slab/budget/metrics.
/// Session `s` runs under sid `bench-kaba-{seed}-{s}` with input
/// `(i + s) % 2 == 0` at party `i`, so every session has mixed inputs.
pub fn measure_sharded_abas(n: usize, k: usize, workers: usize, seed: u64) -> Measurement {
    let (keyring, secrets) = pki(n, seed);
    let report = ShardedHost::new(workers, k, move |s: usize| {
        let sid = Sid::new(&format!("bench-kaba-{seed}-{s}"));
        let aba = setupfree_aba_parties(keyring.clone(), secrets.clone(), sid, move |i| {
            (i + s).is_multiple_of(2)
        });
        SessionSetup::new(aba.parties(), session_scheduler(seed, s), aba.budget)
    })
    .run_parallel();
    summarize_sharded(n, &report)
}

/// Measures a pipelined beacon on the sharded runtime with **admission
/// control**: the `epochs` per-epoch elections are queued sessions opened
/// under a `MaxConcurrent(window)` policy — a sliding window over the epoch
/// stream instead of `epochs` pre-spawned elections — so peak live state
/// stays bounded no matter how many epochs are queued.
pub fn measure_sharded_pipelined_beacon(
    n: usize,
    epochs: usize,
    workers: usize,
    window: usize,
    seed: u64,
) -> Measurement {
    let (keyring, secrets) = pki(n, seed);
    let host = ShardedHost::new(workers, epochs, move |e| {
        let parties: Vec<BoxedParty<Envelope, ElectionOutput>> = (0..n)
            .map(|i| {
                let aba = MmrAbaFactory::new(PartyId(i), n, keyring.f(), TrustedCoinFactory);
                Box::new(Election::new(
                    Sid::new(&format!("bench-shard-beacon-{seed}")).derive("epoch", e),
                    PartyId(i),
                    keyring.clone(),
                    secrets[i].clone(),
                    aba,
                )) as BoxedParty<Envelope, ElectionOutput>
            })
            .collect::<Vec<_>>();
        SessionSetup::new(parties, session_scheduler(seed, e), 1 << 30)
    })
    .with_admission(MaxConcurrent(window));
    let report = host.run_parallel();
    // Leaders must agree per epoch; the generic output comparison is too
    // strict here.
    let mut m = summarize_sharded::<ElectionOutput>(n, &report);
    m.agreed = report.outputs.iter().all(|session| same_leader(session));
    m
}

/// The scheduler-determinism scenario grid.
///
/// PR 3 replaced the delivery engine (incremental schedulers, shared
/// multicast payloads, decode-once cache) under the contract that delivery
/// order stays **bit-identical** to the old `Scheduler::select(&[PendingInfo])`
/// engine under the same seeds.  This module pins that contract: it defines a
/// protocol × n × adversary grid whose per-run metrics were recorded from the
/// pre-overhaul engine (see `crates/bench/tests/determinism.rs` for the
/// recorded table and `src/bin/determinism_golden.rs` for the generator).
pub mod determinism {
    use setupfree_core::coin::CoreSetMode;
    use setupfree_testkit::Adversary;

    use super::{
        avss_workload, beacon_workload, coin_workload, setupfree_aba_workload, Measurement,
    };

    /// The metrics a determinism cell pins seed-for-seed: the paper's three
    /// per-run quantities plus the simulator's delivery count.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Fingerprint {
        /// Bytes sent by honest parties.
        pub honest_bytes: u64,
        /// Messages sent by honest parties.
        pub honest_messages: u64,
        /// Asynchronous rounds until every honest party output.
        pub rounds: u64,
        /// Deliveries performed by the simulator.
        pub deliveries: u64,
    }

    impl Fingerprint {
        /// The pinned part of one run's metrics.
        pub fn of(m: &Measurement) -> Self {
            Fingerprint {
                honest_bytes: m.honest_bytes,
                honest_messages: m.honest_messages,
                rounds: m.rounds,
                deliveries: m.deliveries,
            }
        }
    }

    /// Protocols covered by the suite.
    pub const PROTOCOLS: &[&str] = &["coin", "avss", "beacon", "aba"];

    /// Party counts covered by the suite.
    pub const SIZES: &[usize] = &[4, 10];

    /// The scheduler × seed grid every `(protocol, n)` cell runs under: one
    /// of each scheduler family, two random seeds.
    pub fn adversary_grid(n: usize) -> Vec<Adversary> {
        vec![
            Adversary::Fifo,
            Adversary::Random { seed: 0 },
            Adversary::Random { seed: 1 },
            Adversary::TargetedDelay { targets: vec![0], seed: 0xadd },
            Adversary::Partition { boundary: n / 2, seed: 0xcafe },
        ]
    }

    /// Runs one grid cell.  The PKI/session seed is a fixed function of `n`
    /// so the recorded and replayed runs build byte-identical ensembles.
    pub fn run_cell(protocol: &str, n: usize, adversary: &Adversary) -> Measurement {
        let seed = 0xD00 + n as u64;
        match protocol {
            "coin" => coin_workload(n, seed, CoreSetMode::Weak).measure(adversary),
            "avss" => avss_workload(n, seed).measure(adversary),
            "beacon" => beacon_workload(n, 2, seed).measure(adversary),
            "aba" => setupfree_aba_workload(n, seed).measure(adversary),
            other => panic!("unknown determinism protocol {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Socket-transport workloads (PR 6): the identical machines over real TCP
// loopback peers (`setupfree-transport`), measured in wall-clock time.  The
// simulator stays the ground truth for the paper's three metrics (its byte
// and round accounting is exact); the socket rows add the one quantity the
// simulator cannot produce — time on a real network stack.
// ---------------------------------------------------------------------------

/// The observables of one socket-backed run.
#[derive(Debug, Clone)]
pub struct SocketMeasurement {
    /// Number of parties (= peers).
    pub n: usize,
    /// Fault threshold.
    pub f: usize,
    /// Wall-clock milliseconds from activation to the last decision.
    pub wall_ms: f64,
    /// Envelopes written to sockets across all peers.
    pub sent_envelopes: u64,
    /// Frame bytes written to sockets across all peers.
    pub sent_bytes: u64,
    /// Whether all peers decided the same value.
    pub agreed: bool,
    /// `None` on success; the transport failure rendered to text otherwise.
    pub failure: Option<String>,
    /// Frames the chaos plan deliberately dropped or cut (0 on clean runs).
    pub drops_injected: u64,
    /// Frames replayed from per-link outboxes during recovery resumes.
    pub retransmitted: u64,
    /// Successful link re-establishments after a cut or failure.
    pub redials: u64,
}

impl<O: Clone + std::fmt::Debug + Send> Ensemble<Envelope, O> {
    /// Runs the ensemble over `n` loopback TCP peers, under `plan`'s link
    /// faults when one is given, so clean and chaos rows run the same
    /// machines.  A party that never decides is recorded, not a panic.
    pub fn over_sockets(self, plan: Option<&LinkFaultPlan>) -> SocketMeasurement {
        // Generous deadline: these runs finish in well under a minute even at
        // n = 22 on one core; the deadline only exists so a regression
        // terminates with a recorded failure instead of hanging the bench.
        let mut group = TcpPeerGroup::new(self.n).timeout(Duration::from_secs(240));
        if let Some(plan) = plan {
            group = group.chaos(plan.clone());
        }
        let report = group.run(&self.party).expect("loopback socket setup");
        SocketMeasurement {
            n: self.n,
            f: (self.n - 1) / 3,
            wall_ms: report.wall.as_secs_f64() * 1e3,
            sent_envelopes: report.total_sent_envelopes(),
            sent_bytes: report.total_sent_bytes(),
            agreed: report.all_decided() && (self.agreed)(&report.outputs),
            failure: report.failure.as_ref().map(|f| f.to_string()),
            drops_injected: report.total_drops_injected(),
            retransmitted: report.total_retransmitted(),
            redials: report.total_redials(),
        }
    }
}

/// Fits the slope of `log(value)` against `log(n)` — the empirical scaling
/// exponent reported next to the paper's asymptotic bounds.
pub fn fit_exponent(points: &[(usize, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points to fit a slope");
    let logs: Vec<(f64, f64)> =
        points.iter().map(|(n, v)| ((*n as f64).ln(), v.max(1.0).ln())).collect();
    let mean_x = logs.iter().map(|(x, _)| x).sum::<f64>() / logs.len() as f64;
    let mean_y = logs.iter().map(|(_, y)| y).sum::<f64>() / logs.len() as f64;
    let num: f64 = logs.iter().map(|(x, y)| (x - mean_x) * (y - mean_y)).sum();
    let den: f64 = logs.iter().map(|(x, _)| (x - mean_x) * (x - mean_x)).sum();
    num / den
}

/// Formats a byte count with thousands separators (human-readable tables).
pub fn fmt_bytes(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_exponent_recovers_known_slopes() {
        let quad: Vec<(usize, f64)> = [4usize, 8, 16, 32].iter().map(|&n| (n, (n * n) as f64)).collect();
        let cubic: Vec<(usize, f64)> = [4usize, 8, 16].iter().map(|&n| (n, (n * n * n) as f64)).collect();
        assert!((fit_exponent(&quad) - 2.0).abs() < 0.01);
        assert!((fit_exponent(&cubic) - 3.0).abs() < 0.01);
    }

    #[test]
    fn fmt_bytes_groups_digits() {
        assert_eq!(fmt_bytes(1234567), "1_234_567");
        assert_eq!(fmt_bytes(42), "42");
    }

    #[test]
    fn component_measurements_run_at_small_n() {
        let rbc = measure_rbc(4, 32, 1);
        assert!(rbc.honest_bytes > 0 && rbc.agreed);
        let avss = measure_avss(4, 2);
        assert!(avss.honest_bytes > rbc.honest_bytes / 4);
        let wcs = measure_wcs(4, 3);
        // Three protocol phases; stragglers under adversarial scheduling may
        // record a slightly larger causal depth.
        assert!(wcs.rounds >= 3 && wcs.rounds <= 8, "rounds = {}", wcs.rounds);
        let seeding = measure_seeding(4, 4);
        assert!(seeding.agreed);
        let coin = measure_coin(4, 5, CoreSetMode::Weak);
        assert!(coin.honest_bytes > avss.honest_bytes);
    }

    #[test]
    fn trusted_aba_measurement_decides() {
        let m = measure_trusted_aba(4, 9);
        assert!(m.agreed);
        assert!(m.honest_messages > 0);
    }

    #[test]
    fn committee_measurements_agree_and_save_messages() {
        let all = measure_trusted_aba(22, 9);
        let com = measure_committee_aba(22, 10, 9);
        assert!(all.agreed && com.agreed);
        assert!(
            com.honest_messages < all.honest_messages,
            "committee {} vs all-to-all {}",
            com.honest_messages,
            all.honest_messages
        );
        let vba = measure_committee_vba(22, 10, 8, 9);
        assert!(vba.agreed);
        // Committee liveness at scale: 22 members inside n = 100 decide and
        // the 78 listeners adopt the same value.
        let sampled = measure_committee_aba(100, 22, 7_900);
        assert!(sampled.agreed, "committee n=100 m=22 disagreed");
    }
}
