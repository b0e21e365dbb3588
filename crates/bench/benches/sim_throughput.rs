//! Raw delivery-engine throughput (deliveries/sec), isolated from protocol
//! cryptography: a multi-round echo flood at n ∈ {22, 40}.
//!
//! Every party multicasts a round message; on hearing a quorum for its
//! current round it advances and multicasts the next, for `ROUNDS` rounds —
//! so the pending pool stays populated with n·quorum-scale fan-out the whole
//! run, exercising the delivery engine's per-send and per-delivery paths
//! (incremental scheduler picks, exact-length charging, one message clone
//! per in-flight copy) with a near-free `on_message`.  Wall-clock here ≈
//! pure engine overhead per delivery.

use criterion::{criterion_group, criterion_main, Criterion};
use setupfree_net::{
    BoxedParty, PartyId, ProtocolInstance, RandomScheduler, Simulation, Step, StopReason,
};

const ROUNDS: u64 = 12;

/// Echo-flood state machine: advance a round counter on quorum.
#[derive(Debug)]
struct EchoFlood {
    quorum: usize,
    round: u64,
    heard: Vec<u64>, // heard[i] = highest round heard from party i
    output: Option<u64>,
}

impl EchoFlood {
    fn new(n: usize, quorum: usize) -> Self {
        EchoFlood { quorum, round: 0, heard: vec![0; n], output: None }
    }

    fn quorum_for_round(&self, round: u64) -> usize {
        self.heard.iter().filter(|&&r| r >= round).count()
    }
}

impl ProtocolInstance for EchoFlood {
    type Message = u64;
    type Output = u64;

    fn on_activation(&mut self) -> Step<u64> {
        self.round = 1;
        Step::multicast(1)
    }

    fn on_message(&mut self, from: PartyId, msg: u64) -> Step<u64> {
        let slot = &mut self.heard[from.index()];
        *slot = (*slot).max(msg);
        let mut step = Step::none();
        while self.round <= ROUNDS && self.quorum_for_round(self.round) >= self.quorum {
            self.round += 1;
            if self.round <= ROUNDS {
                step.push_multicast(self.round);
            } else {
                self.output = Some(ROUNDS);
            }
        }
        step
    }

    fn output(&self) -> Option<u64> {
        self.output
    }
}

fn echo_flood(n: usize, seed: u64) -> u64 {
    let quorum = n - (n - 1) / 3;
    let parties: Vec<BoxedParty<u64, u64>> =
        (0..n).map(|_| Box::new(EchoFlood::new(n, quorum)) as BoxedParty<u64, u64>).collect();
    let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
    let report = sim.run(1 << 26);
    assert_eq!(report.reason, StopReason::AllOutputs);
    report.deliveries
}

fn bench_sim_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    for &n in &[22usize, 40] {
        // Report the workload size once so `deliveries/sec` can be read off
        // the criterion time: deliveries ≈ n² · ROUNDS per iteration.
        let deliveries = echo_flood(n, 0);
        println!("sim_throughput/echo_n{n}: {deliveries} deliveries per iteration");
        group.bench_function(&format!("echo_n{n}"), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                echo_flood(n, seed)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sim_throughput);
criterion_main!(benches);
