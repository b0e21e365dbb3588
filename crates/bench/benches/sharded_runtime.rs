//! Sharded-runtime throughput: `k` full setup-free ABA sessions partitioned
//! across worker shards, one OS thread per shard (each session owning its
//! scheduler, in-flight slab, budget and metrics) — plus the
//! admission-controlled pipelined beacon.
//!
//! The criterion companion to the `aba-x{k}-shard*` rows of
//! `BENCH_pr5.json` (which measures the full k ∈ {4, 8, 16} ×
//! n ∈ {10, 22, 40} grid single-shot).  CI runs this with `--test` so the
//! sharded execution path — parallel workers and admission — cannot
//! bit-rot.

use criterion::{criterion_group, criterion_main, Criterion};
use setupfree_bench::{measure_sharded_abas, measure_sharded_pipelined_beacon};

fn bench_sharded_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_runtime");
    group.sample_size(10);
    let n = 10;
    let k = 4;
    // Print the per-iteration workload once so deliveries/sec can be read
    // off the criterion time.
    let m = measure_sharded_abas(n, k, 4, 0xC0);
    println!(
        "sharded_runtime/aba_x{k}_n{n}: {} deliveries, {} honest bytes per iteration",
        m.deliveries, m.honest_bytes
    );
    group.bench_function(&format!("aba_x{k}_n{n}_sharded_w4_parallel"), |b| {
        let mut seed = 0xC0;
        b.iter(|| {
            seed += 1;
            measure_sharded_abas(n, k, 4, seed)
        })
    });
    let epochs = 4;
    group.bench_function(&format!("beacon_pipe{epochs}_n{n}_sharded_admit2"), |b| {
        let mut seed = 0xBE;
        b.iter(|| {
            seed += 1;
            measure_sharded_pipelined_beacon(n, epochs, 2, 2, seed)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sharded_runtime);
criterion_main!(benches);
