//! Reproduction of the per-component complexity claims of §5 and §6
//! (the "Complexities of …" paragraphs): measured bits, messages and rounds
//! of each building block against its stated bound.
//!
//! | component | paper bound (bits) | paper bound (msgs) | rounds |
//! |-----------|--------------------|--------------------|--------|
//! | RBC       | O(λn²)             | O(n²)              | 3      |
//! | AVSS      | O(λn²)             | O(n²)              | O(1)   |
//! | WCS       | O(λn³)             | O(n²)              | 3      |
//! | Seeding   | O(λn²)             | O(n²)              | O(1)   |
//! | Coin      | O(λn³)             | O(n³)              | O(1)   |
//!
//! Usage: `cargo run --release -p setupfree-bench --bin fig_component_scaling`

use setupfree_bench::{
    fit_exponent, fmt_bytes, measure_avss, measure_coin, measure_rbc, measure_seeding, measure_wcs,
    Measurement,
};
use setupfree_core::coin::CoreSetMode;

fn report(label: &str, bound: &str, points: &[Measurement]) {
    let bytes: Vec<(usize, f64)> = points.iter().map(|m| (m.n, m.honest_bytes as f64)).collect();
    let msgs: Vec<(usize, f64)> = points.iter().map(|m| (m.n, m.honest_messages as f64)).collect();
    println!("\n{label}   (paper: {bound})");
    for m in points {
        println!(
            "  n={:<3} bits={:<12} msgs={:<8} rounds={}",
            m.n,
            fmt_bytes(m.honest_bytes * 8),
            m.honest_messages,
            m.rounds
        );
    }
    println!(
        "  fitted exponents: bits ~ n^{:.2}, msgs ~ n^{:.2}",
        fit_exponent(&bytes),
        fit_exponent(&msgs)
    );
}

fn main() {
    let sizes = [4usize, 7, 10, 13, 16];
    let coin_sizes = [4usize, 7, 10, 13];

    println!("Component scaling (bits are exact wire bytes × 8 among honest parties)");

    report(
        "Reliable broadcast (Bracha)",
        "O(λn²) bits, O(n²) msgs, 3 rounds",
        &sizes.iter().map(|&n| measure_rbc(n, 64, 10 + n as u64)).collect::<Vec<_>>(),
    );
    report(
        "AVSS share+reconstruct (Alg 1–2)",
        "O(λn²) bits, O(n²) msgs, O(1) rounds",
        &sizes.iter().map(|&n| measure_avss(n, 20 + n as u64)).collect::<Vec<_>>(),
    );
    report(
        "Weak core-set selection (Alg 3)",
        "O(λn³) bits, O(n²) msgs, 3 rounds",
        &sizes.iter().map(|&n| measure_wcs(n, 30 + n as u64)).collect::<Vec<_>>(),
    );
    report(
        "Seeding (Alg 7)",
        "O(λn²) bits, O(n²) msgs, O(1) rounds",
        &sizes.iter().map(|&n| measure_seeding(n, 40 + n as u64)).collect::<Vec<_>>(),
    );
    report(
        "Coin with WCS (Alg 4)",
        "O(λn³) bits, O(n³) msgs, O(1) rounds",
        &coin_sizes.iter().map(|&n| measure_coin(n, 50 + n as u64, CoreSetMode::Weak)).collect::<Vec<_>>(),
    );
    report(
        "Coin with RBC-gather core-set (ablation)",
        "extra gather factor vs WCS",
        &coin_sizes
            .iter()
            .map(|&n| measure_coin(n, 60 + n as u64, CoreSetMode::RbcGather))
            .collect::<Vec<_>>(),
    );
}
