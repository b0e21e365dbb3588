//! Measurement harness shared by the Table 1 / figure reproduction binaries
//! and the Criterion benches.
//!
//! Every function here builds one protocol execution in the simulator,
//! drives it to completion, and returns the paper's three metrics
//! (communication bits among honest parties, messages, asynchronous rounds),
//! plus agreement/fairness observations where relevant.
//!
//! See `EXPERIMENTS.md` at the workspace root for the experiment index and
//! the recorded paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tracing;

use std::collections::BTreeSet;
use std::sync::Arc;

use setupfree_aba::{MmrAba, MmrAbaFactory};
use setupfree_app::beacon::{BeaconEpoch, RandomBeacon};
use setupfree_avss::harness::AvssEndToEnd;
use setupfree_avss::{Avss, AvssMessage};
use setupfree_baselines::{LocalCoinFactory, SquaredAvssCoin};
use setupfree_core::coin::{Coin, CoinOutput, CoinProtocolFactory, CoreSetMode};
use setupfree_core::election::{Election, ElectionOutput};
use setupfree_core::traits::ElectionFactory;
use setupfree_core::{Committee, CommitteeConfig, TrustedCoinFactory, TrustedElectionFactory};
use setupfree_crypto::{generate_pki, Keyring, PartySecrets};
use setupfree_net::{
    BoxedParty, Envelope, PartyId, ProtocolInstance, RandomScheduler, Scheduler, Sid, Simulation,
    StopReason,
};
use setupfree_runtime::{MaxConcurrent, SessionSetup, ShardedHost, ShardedRunReport};
use setupfree_rbc::{Rbc, RbcMessage};
use setupfree_seeding::{Seed, Seeding, SeedingMessage};
use setupfree_vba::{accept_all, Vba};
use setupfree_wcs::{Wcs, WcsHarness, WcsMessage};
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

fn keys(n: usize, seed: u64) -> (Arc<Keyring>, Vec<Arc<PartySecrets>>) {
    let (keyring, secrets) = generate_pki(n, seed);
    (Arc::new(keyring), secrets.into_iter().map(Arc::new).collect())
}

/// The metrics of a simulation that has stopped after `deliveries`.
fn measurement<M, O>(sim: &Simulation<M, O>, deliveries: u64, agreed: bool) -> Measurement
where
    M: Encode + Decode + Clone + std::fmt::Debug + 'static,
    O: Clone + std::fmt::Debug,
{
    let n = sim.n();
    let metrics = sim.metrics();
    Measurement {
        n,
        f: (n - 1) / 3,
        honest_bytes: metrics.honest_bytes,
        honest_messages: metrics.honest_messages,
        rounds: metrics.rounds_to_all_outputs().unwrap_or(0),
        deliveries,
        agreed,
    }
}

/// Runs `sim` until every honest party outputs (panicking if `budget` runs
/// out first) and returns its metrics with every party's output; `agreed`
/// judges the outputs.
fn run_to_outputs<M, O>(
    mut sim: Simulation<M, O>,
    budget: u64,
    agreed: impl Fn(&[Option<O>]) -> bool,
) -> (Measurement, Vec<Option<O>>)
where
    M: Encode + Decode + Clone + std::fmt::Debug + 'static,
    O: Clone + std::fmt::Debug,
{
    let report = sim.run(budget);
    assert_eq!(report.reason, StopReason::AllOutputs, "execution did not terminate within budget");
    let outputs = sim.outputs();
    let m = measurement(&sim, report.deliveries, agreed(&outputs));
    (m, outputs)
}

fn finish<M, O>(
    sim: Simulation<M, O>,
    budget: u64,
    agreed: impl Fn(&[Option<O>]) -> bool,
) -> Measurement
where
    M: Encode + Decode + Clone + std::fmt::Debug + 'static,
    O: Clone + std::fmt::Debug,
{
    run_to_outputs(sim, budget, agreed).0
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

/// Measures a single Bracha RBC with a payload of `payload` bytes.
pub fn measure_rbc(n: usize, payload: usize, seed: u64) -> Measurement {
    let f = (n - 1) / 3;
    let parties: Vec<BoxedParty<RbcMessage, Vec<u8>>> = (0..n)
        .map(|i| {
            let input = if i == 0 { Some(vec![7u8; payload]) } else { None };
            Box::new(Rbc::new(Sid::new("bench-rbc"), PartyId(i), n, f, PartyId(0), input))
                as BoxedParty<RbcMessage, Vec<u8>>
        })
        .collect();
    let sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
    finish(sim, 1 << 26, all_equal)
}

/// Measures a single AVSS (share + reconstruct) with dealer `P_0`.
pub fn measure_avss(n: usize, seed: u64) -> Measurement {
    measure_avss_with(n, seed, Box::new(RandomScheduler::new(seed)))
}

/// [`measure_avss`] under a caller-chosen delivery schedule (`seed` still
/// fixes the PKI and session id, so two calls with equal arguments build
/// byte-identical ensembles).
pub fn measure_avss_with(n: usize, seed: u64, scheduler: Box<dyn Scheduler>) -> Measurement {
    let (keyring, secrets) = keys(n, seed);
    let parties: Vec<BoxedParty<AvssMessage, Vec<u8>>> = (0..n)
        .map(|i| {
            let input = if i == 0 { Some(vec![42u8; 48]) } else { None };
            Box::new(AvssEndToEnd::new(Avss::new(
                Sid::new("bench-avss"),
                PartyId(i),
                PartyId(0),
                keyring.clone(),
                secrets[i].clone(),
                input,
            ))) as BoxedParty<AvssMessage, Vec<u8>>
        })
        .collect();
    let sim = Simulation::new(parties, scheduler);
    finish(sim, 1 << 26, all_equal)
}

/// Measures a single WCS instance with full input sets.
pub fn measure_wcs(n: usize, seed: u64) -> Measurement {
    let (keyring, secrets) = keys(n, seed);
    let input: BTreeSet<usize> = (0..n).collect();
    let parties: Vec<BoxedParty<WcsMessage, Vec<usize>>> = (0..n)
        .map(|i| {
            Box::new(WcsHarness::new(
                Wcs::new(Sid::new("bench-wcs"), PartyId(i), keyring.clone(), secrets[i].clone()),
                input.clone(),
            )) as BoxedParty<WcsMessage, Vec<usize>>
        })
        .collect();
    let sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
    finish(sim, 1 << 26, |_| true)
}

/// Measures a single Seeding instance led by `P_0`.
pub fn measure_seeding(n: usize, seed: u64) -> Measurement {
    let (keyring, secrets) = keys(n, seed);
    let parties: Vec<BoxedParty<SeedingMessage, Seed>> = (0..n)
        .map(|i| {
            Box::new(Seeding::new(
                Sid::new("bench-seeding"),
                PartyId(i),
                PartyId(0),
                keyring.clone(),
                secrets[i].clone(),
            )) as BoxedParty<SeedingMessage, Seed>
        })
        .collect();
    let sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
    finish(sim, 1 << 26, all_equal)
}

/// Measures one instance of the paper's Coin (Alg 4) with the chosen core-set
/// mode, and whether all honest parties agreed on the bit.
pub fn measure_coin(n: usize, seed: u64, mode: CoreSetMode) -> Measurement {
    measure_coin_with(n, seed, mode, Box::new(RandomScheduler::new(seed)))
}

/// [`measure_coin`] under a caller-chosen delivery schedule.
pub fn measure_coin_with(
    n: usize,
    seed: u64,
    mode: CoreSetMode,
    scheduler: Box<dyn Scheduler>,
) -> Measurement {
    let (keyring, secrets) = keys(n, seed);
    let parties: Vec<BoxedParty<Envelope, CoinOutput>> = (0..n)
        .map(|i| {
            Box::new(Coin::with_core_mode(
                Sid::new(&format!("bench-coin-{seed}")),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                mode,
            )) as BoxedParty<Envelope, CoinOutput>
        })
        .collect();
    let sim = Simulation::new(parties, scheduler);
    finish(sim, 1 << 28, same_bit)
}

/// Measures the CKLS02-style `n²`-AVSS baseline coin.
pub fn measure_squared_coin(n: usize, seed: u64) -> Measurement {
    let (keyring, secrets) = keys(n, seed);
    let parties: Vec<BoxedParty<Envelope, CoinOutput>> = (0..n)
        .map(|i| {
            Box::new(SquaredAvssCoin::new(
                Sid::new(&format!("bench-sq-{seed}")),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
            )) as BoxedParty<Envelope, CoinOutput>
        })
        .collect();
    let sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
    finish(sim, 1 << 28, same_bit)
}

/// Measures the paper's full private-setup-free ABA (every round flips the
/// real Coin) with mixed inputs.
pub fn measure_setupfree_aba(n: usize, seed: u64) -> Measurement {
    measure_setupfree_aba_with(n, seed, Box::new(RandomScheduler::new(seed)))
}

/// [`measure_setupfree_aba`] under a caller-chosen delivery schedule.
pub fn measure_setupfree_aba_with(n: usize, seed: u64, scheduler: Box<dyn Scheduler>) -> Measurement {
    let (keyring, secrets) = keys(n, seed);
    let parties: Vec<BoxedParty<Envelope, bool>> = (0..n)
        .map(|i| {
            let factory = CoinProtocolFactory::new(PartyId(i), keyring.clone(), secrets[i].clone());
            Box::new(MmrAba::new(
                Sid::new(&format!("bench-aba-{seed}")),
                PartyId(i),
                n,
                keyring.f(),
                i % 2 == 0,
                factory,
            )) as BoxedParty<Envelope, bool>
        })
        .collect();
    let sim = Simulation::new(parties, scheduler);
    finish(sim, 1 << 30, all_equal)
}

/// Measures the ABA with the idealised trusted-setup coin (the
/// Cachin-et-al.-style comparison row: what agreement costs once the coin is
/// free).
pub fn measure_trusted_aba(n: usize, seed: u64) -> Measurement {
    let f = (n - 1) / 3;
    let parties: Vec<BoxedParty<Envelope, bool>> = (0..n)
        .map(|i| {
            Box::new(MmrAba::new(
                Sid::new(&format!("bench-taba-{seed}")),
                PartyId(i),
                n,
                f,
                i % 2 == 0,
                TrustedCoinFactory,
            )) as BoxedParty<Envelope, bool>
        })
        .collect();
    let sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
    finish(sim, 1 << 26, all_equal)
}

/// Measures the ABA with purely local coins (the Ben-Or baseline).  Returns
/// `None` if it fails to decide within the delivery budget (expected for
/// larger `n` — that is the point of the comparison).
pub fn measure_local_coin_aba(n: usize, seed: u64, budget: u64) -> Option<Measurement> {
    let f = (n - 1) / 3;
    let parties: Vec<BoxedParty<Envelope, bool>> = (0..n)
        .map(|i| {
            Box::new(MmrAba::new(
                Sid::new(&format!("bench-laba-{seed}")),
                PartyId(i),
                n,
                f,
                i % 2 == 0,
                LocalCoinFactory::new(PartyId(i)),
            )) as BoxedParty<Envelope, bool>
        })
        .collect();
    let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
    let report = sim.run(budget);
    (report.reason == StopReason::AllOutputs)
        .then(|| measurement(&sim, report.deliveries, all_equal(&sim.outputs())))
}

/// The full setup-free Election factory used by the VBA and beacon
/// measurements.
#[derive(Clone)]
pub struct FullElectionFactory {
    me: PartyId,
    keyring: Arc<Keyring>,
    secrets: Arc<PartySecrets>,
}

impl FullElectionFactory {
    /// Creates the factory for one party.
    pub fn new(me: PartyId, keyring: Arc<Keyring>, secrets: Arc<PartySecrets>) -> Self {
        FullElectionFactory { me, keyring, secrets }
    }
}

impl ElectionFactory for FullElectionFactory {
    type Instance = Election<MmrAbaFactory<CoinProtocolFactory>>;

    fn create(&self, sid: Sid) -> Self::Instance {
        let aba = MmrAbaFactory::new(
            self.me,
            self.keyring.n(),
            self.keyring.f(),
            CoinProtocolFactory::new(self.me, self.keyring.clone(), self.secrets.clone()),
        );
        Election::new(sid, self.me, self.keyring.clone(), self.secrets.clone(), aba)
    }
}

/// Measures one full setup-free Election (Alg 5) including its internal Coin
/// and ABA (whose rounds also use the real Coin).
pub fn measure_election(n: usize, seed: u64) -> (Measurement, Vec<ElectionOutput>) {
    let (keyring, secrets) = keys(n, seed);
    type E = Election<MmrAbaFactory<CoinProtocolFactory>>;
    let parties: Vec<BoxedParty<<E as ProtocolInstance>::Message, ElectionOutput>> = (0..n)
        .map(|i| {
            let factory = FullElectionFactory::new(PartyId(i), keyring.clone(), secrets[i].clone());
            Box::new(factory.create(Sid::new(&format!("bench-elec-{seed}"))))
                as BoxedParty<<E as ProtocolInstance>::Message, ElectionOutput>
        })
        .collect();
    let sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
    let (m, outputs) = run_to_outputs(sim, 1 << 30, same_leader);
    (m, outputs.into_iter().flatten().collect())
}

/// Measures one full setup-free VBA (proposals of `payload` bytes).
pub fn measure_vba(n: usize, payload: usize, seed: u64) -> Measurement {
    let (keyring, secrets) = keys(n, seed);
    type V = Vba<FullElectionFactory, MmrAbaFactory<CoinProtocolFactory>>;
    let parties: Vec<BoxedParty<<V as ProtocolInstance>::Message, Vec<u8>>> = (0..n)
        .map(|i| {
            let ef = FullElectionFactory::new(PartyId(i), keyring.clone(), secrets[i].clone());
            let af = MmrAbaFactory::new(
                PartyId(i),
                n,
                keyring.f(),
                CoinProtocolFactory::new(PartyId(i), keyring.clone(), secrets[i].clone()),
            );
            Box::new(Vba::new(
                Sid::new(&format!("bench-vba-{seed}")),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                vec![i as u8; payload],
                accept_all(),
                ef,
                af,
            )) as BoxedParty<<V as ProtocolInstance>::Message, Vec<u8>>
        })
        .collect();
    let sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
    finish(sim, 1 << 30, all_equal)
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
    let parties: Vec<BoxedParty<Envelope, bool>> = (0..n)
        .map(|i| {
            Box::new(MmrAba::with_committee(
                Sid::new(&format!("bench-caba-{seed}")),
                PartyId(i),
                n,
                f,
                i % 2 == 0,
                TrustedCoinFactory,
                committee.clone(),
            )) as BoxedParty<Envelope, bool>
        })
        .collect();
    let sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
    finish(sim, 1 << 28, all_equal)
}

/// Measures the all-to-all VBA with the trusted (zero-message) election and
/// trusted-coin vote-ABAs — the directly comparable baseline row for
/// [`measure_committee_vba`], isolating what committee sampling saves from
/// what the pluggable election costs.
pub fn measure_trusted_vba(n: usize, payload: usize, seed: u64) -> Measurement {
    let (keyring, secrets) = keys(n, seed);
    let parties: Vec<BoxedParty<Envelope, Vec<u8>>> = (0..n)
        .map(|i| {
            let af = MmrAbaFactory::new(PartyId(i), n, keyring.f(), TrustedCoinFactory);
            Box::new(Vba::new(
                Sid::new(&format!("bench-tvba-{seed}")),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                vec![i as u8; payload],
                accept_all(),
                TrustedElectionFactory::new(n),
                af,
            )) as BoxedParty<Envelope, Vec<u8>>
        })
        .collect();
    let sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
    finish(sim, 1 << 30, all_equal)
}

/// Measures one committee-sampled VBA (trusted election + committee
/// trusted-coin vote-ABAs over the same committee): members run the
/// consistent-broadcast / election / vote pipeline, listeners adopt the
/// `Decide` announcements.
pub fn measure_committee_vba(n: usize, m: usize, payload: usize, seed: u64) -> Measurement {
    let committee = bench_committee(n, m, seed);
    let (keyring, secrets) = keys(n, seed);
    let parties: Vec<BoxedParty<Envelope, Vec<u8>>> = (0..n)
        .map(|i| {
            let af = MmrAbaFactory::with_committee(
                PartyId(i),
                n,
                keyring.f(),
                TrustedCoinFactory,
                committee.clone(),
            );
            Box::new(Vba::with_committee(
                Sid::new(&format!("bench-cvba-{seed}")),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                vec![i as u8; payload],
                accept_all(),
                TrustedElectionFactory::new(n),
                af,
                committee.clone(),
            )) as BoxedParty<Envelope, Vec<u8>>
        })
        .collect();
    let sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
    finish(sim, 1 << 30, all_equal)
}

/// Measures a multi-epoch run of the DKG-free random beacon (using the
/// trusted-coin ABA inside the per-epoch elections to keep the sweep
/// tractable; the election itself and its Coin are the real thing).
pub fn measure_beacon(n: usize, epochs: u32, seed: u64) -> (Measurement, Vec<BeaconEpoch>) {
    measure_beacon_with(n, epochs, seed, Box::new(RandomScheduler::new(seed)))
}

/// [`measure_beacon`] under a caller-chosen delivery schedule.
pub fn measure_beacon_with(
    n: usize,
    epochs: u32,
    seed: u64,
    scheduler: Box<dyn Scheduler>,
) -> (Measurement, Vec<BeaconEpoch>) {
    let (keyring, secrets) = keys(n, seed);
    type B = RandomBeacon<MmrAbaFactory<TrustedCoinFactory>>;
    let parties: Vec<BoxedParty<<B as ProtocolInstance>::Message, Vec<BeaconEpoch>>> = (0..n)
        .map(|i| {
            let aba = MmrAbaFactory::new(PartyId(i), n, keyring.f(), TrustedCoinFactory);
            Box::new(RandomBeacon::new(
                Sid::new(&format!("bench-beacon-{seed}")),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                aba,
                epochs,
            )) as BoxedParty<<B as ProtocolInstance>::Message, Vec<BeaconEpoch>>
        })
        .collect();
    let sim = Simulation::new(parties, scheduler);
    // Every party must report the same whole history, as over sockets.
    let (m, outputs) = run_to_outputs(sim, 1 << 30, all_equal);
    (m, outputs.into_iter().flatten().next().unwrap_or_default())
}

// ---------------------------------------------------------------------------
// Sharded-runtime workloads (PR 5): sessions partitioned across worker
// shards, each owning its scheduler / slab / budget / metrics.
// ---------------------------------------------------------------------------

/// Summarises a [`ShardedRunReport`] into the common [`Measurement`] shape
/// (aggregate = per-session sums; `agreed` = per-session output agreement).
/// Panics unless every session terminated, as [`finish`] does for a single
/// simulation.
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

/// Builds one full setup-free ABA session for [`measure_sharded_abas`]:
/// session `s` over its own scheduler seeded by `(seed, s)`, with input
/// `(i + s) % 2 == 0` at party `i`, so every session has mixed inputs.
fn sharded_aba_session(
    n: usize,
    s: usize,
    seed: u64,
    keyring: &Arc<Keyring>,
    secrets: &[Arc<PartySecrets>],
) -> SessionSetup<Envelope, bool> {
    let parties: Vec<BoxedParty<Envelope, bool>> = (0..n)
        .map(|i| {
            let factory = CoinProtocolFactory::new(PartyId(i), keyring.clone(), secrets[i].clone());
            Box::new(MmrAba::new(
                Sid::new(&format!("bench-kaba-{seed}-{s}")),
                PartyId(i),
                n,
                keyring.f(),
                (i + s).is_multiple_of(2),
                factory,
            )) as BoxedParty<Envelope, bool>
        })
        .collect();
    SessionSetup::new(
        parties,
        Box::new(RandomScheduler::new(seed.wrapping_add((s as u64).wrapping_mul(0x9e37_79b9)))),
        1 << 30,
    )
}

/// Measures `k` concurrent full setup-free ABA sessions (every round of
/// every session flips the real Coin) on the **sharded runtime** — the
/// workload studied for concurrent asynchronous BA (Cohen et al.,
/// arXiv:2312.14506): sessions partitioned across `workers` shards, each
/// with its own scheduler/slab/budget/metrics.  `parallel` opts into one OS
/// thread per shard; the deterministic merge is the default.
pub fn measure_sharded_abas(
    n: usize,
    k: usize,
    workers: usize,
    seed: u64,
    parallel: bool,
) -> Measurement {
    let (keyring, secrets) = keys(n, seed);
    let host = ShardedHost::new(workers, k, move |s| {
        sharded_aba_session(n, s, seed, &keyring, &secrets)
    });
    let report = if parallel { host.run_parallel() } else { host.run() };
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
    let (keyring, secrets) = keys(n, seed);
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
        SessionSetup::new(
            parties,
            Box::new(RandomScheduler::new(seed.wrapping_add((e as u64).wrapping_mul(0x9e37_79b9)))),
            1 << 30,
        )
    })
    .with_admission(MaxConcurrent(window));
    let report = host.run();
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
        measure_avss_with, measure_beacon_with, measure_coin_with, measure_setupfree_aba_with,
        Measurement,
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
            "coin" => measure_coin_with(n, seed, CoreSetMode::Weak, adversary.scheduler()),
            "avss" => measure_avss_with(n, seed, adversary.scheduler()),
            "beacon" => measure_beacon_with(n, 2, seed, adversary.scheduler()).0,
            "aba" => measure_setupfree_aba_with(n, seed, adversary.scheduler()),
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

fn socket_group(
    n: usize,
    plan: Option<&setupfree_transport::LinkFaultPlan>,
) -> setupfree_transport::TcpPeerGroup {
    // Generous deadline: these runs finish in well under a minute even at
    // n = 22 on one core; the deadline only exists so a regression terminates
    // with a recorded failure instead of hanging the bench.
    let group =
        setupfree_transport::TcpPeerGroup::new(n).timeout(std::time::Duration::from_secs(240));
    match plan {
        Some(plan) => group.chaos(plan.clone()),
        None => group,
    }
}

fn socket_measurement<O: PartialEq>(
    n: usize,
    report: &setupfree_transport::SocketRunReport<O>,
) -> SocketMeasurement {
    SocketMeasurement {
        n,
        f: (n - 1) / 3,
        wall_ms: report.wall.as_secs_f64() * 1e3,
        sent_envelopes: report.total_sent_envelopes(),
        sent_bytes: report.total_sent_bytes(),
        agreed: report.all_decided() && report.agreed(),
        failure: report.failure.as_ref().map(|f| f.to_string()),
        drops_injected: report.total_drops_injected(),
        retransmitted: report.total_retransmitted(),
        redials: report.total_redials(),
    }
}

/// Runs the private-setup-free common coin over `n` socket-backed peers.
pub fn measure_socket_coin(n: usize, seed: u64) -> SocketMeasurement {
    measure_socket_coin_chaos(n, seed, None)
}

/// [`measure_socket_coin`] with an optional
/// [`LinkFaultPlan`](setupfree_transport::LinkFaultPlan) underneath —
/// the clean-vs-chaos comparison rows of `perf_baseline` run the *same*
/// machines through both.
pub fn measure_socket_coin_chaos(
    n: usize,
    seed: u64,
    plan: Option<&setupfree_transport::LinkFaultPlan>,
) -> SocketMeasurement {
    let (keyring, secrets) = keys(n, seed);
    let report = socket_group(n, plan)
        .run(|i| {
            Box::new(Coin::with_core_mode(
                Sid::new(&format!("socket-coin-{seed}")),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                CoreSetMode::Weak,
            )) as BoxedParty<Envelope, CoinOutput>
        })
        .expect("loopback socket setup");
    let mut m = socket_measurement(n, &report);
    m.agreed = report.all_decided() && same_bit(&report.outputs);
    m
}

/// Runs the full setup-free ABA (real coin inside) over `n` socket peers.
pub fn measure_socket_aba(n: usize, seed: u64) -> SocketMeasurement {
    measure_socket_aba_chaos(n, seed, None)
}

/// [`measure_socket_aba`] over an optionally chaos-shaped mesh.
pub fn measure_socket_aba_chaos(
    n: usize,
    seed: u64,
    plan: Option<&setupfree_transport::LinkFaultPlan>,
) -> SocketMeasurement {
    let (keyring, secrets) = keys(n, seed);
    let report = socket_group(n, plan)
        .run(|i| {
            let factory = CoinProtocolFactory::new(PartyId(i), keyring.clone(), secrets[i].clone());
            Box::new(MmrAba::new(
                Sid::new(&format!("socket-aba-{seed}")),
                PartyId(i),
                n,
                keyring.f(),
                i % 2 == 0,
                factory,
            )) as BoxedParty<Envelope, bool>
        })
        .expect("loopback socket setup");
    socket_measurement(n, &report)
}

/// Runs the full randomness beacon (`epochs` sequential elections, real
/// Election + Coin per epoch) over `n` socket peers — the same construction
/// as [`measure_beacon`], so the simulated and socket rows are directly
/// comparable.
pub fn measure_socket_beacon(n: usize, epochs: u32, seed: u64) -> SocketMeasurement {
    measure_socket_beacon_chaos(n, epochs, seed, None)
}

/// [`measure_socket_beacon`] over an optionally chaos-shaped mesh.
pub fn measure_socket_beacon_chaos(
    n: usize,
    epochs: u32,
    seed: u64,
    plan: Option<&setupfree_transport::LinkFaultPlan>,
) -> SocketMeasurement {
    let (keyring, secrets) = keys(n, seed);
    let report = socket_group(n, plan)
        .run(|i| {
            let aba = MmrAbaFactory::new(PartyId(i), n, keyring.f(), TrustedCoinFactory);
            Box::new(RandomBeacon::new(
                Sid::new(&format!("socket-beacon-{seed}")),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                aba,
                epochs,
            )) as BoxedParty<Envelope, Vec<BeaconEpoch>>
        })
        .expect("loopback socket setup");
    socket_measurement(n, &report)
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
