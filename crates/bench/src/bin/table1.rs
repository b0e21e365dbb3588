//! Reproduction of the paper's **Table 1**: communication and round
//! complexity of private-setup-free asynchronous BA protocols.
//!
//! For each protocol family the harness measures, across a sweep of `n`, the
//! exact number of bits exchanged among honest parties and the causal-round
//! latency, then fits the empirical scaling exponent of the communication in
//! `n` so it can be placed next to the paper's asymptotic bound.
//!
//! Usage: `cargo run --release -p setupfree-bench --bin table1`

use setupfree_bench::{
    fit_exponent, fmt_bytes, measure_coin, measure_election, measure_setupfree_aba,
    measure_squared_coin, measure_trusted_aba, measure_vba, Measurement,
};
use setupfree_core::coin::CoreSetMode;

struct Row {
    label: &'static str,
    paper_bound: &'static str,
    points: Vec<Measurement>,
}

fn print_rows(title: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    println!(
        "{:<38} {:>22} {:>14} {:>10} {:>10}",
        "protocol", "bits per n (measured)", "fitted exp.", "rounds", "paper"
    );
    for row in rows {
        let bits: String = row
            .points
            .iter()
            .map(|m| format!("n={}:{}", m.n, fmt_bytes(m.honest_bytes * 8)))
            .collect::<Vec<_>>()
            .join("  ");
        let exponent = if row.points.len() >= 2 {
            format!(
                "n^{:.2}",
                fit_exponent(
                    &row.points.iter().map(|m| (m.n, m.honest_bytes as f64)).collect::<Vec<_>>()
                )
            )
        } else {
            "-".to_string()
        };
        let rounds = row
            .points
            .iter()
            .map(|m| m.rounds.to_string())
            .collect::<Vec<_>>()
            .join("/");
        println!("{:<38} {:>22} {:>14} {:>10} {:>10}", row.label, bits, exponent, rounds, row.paper_bound);
    }
}

fn main() {
    let coin_sizes = [4usize, 7, 10, 13];
    let heavy_sizes = [4usize, 7];
    let sq_sizes = [4usize, 7, 10];

    println!("Table 1 reproduction — private-setup free asynchronous BA");
    println!("(bits = messages among honest parties, serialized through the wire codec;");
    println!(" rounds = causal-depth asynchronous rounds; exponents fitted on log-log scale)");

    // --- Coin / ABA section -------------------------------------------------
    let coin_rows = vec![
        Row {
            label: "Coin, this paper (WCS core-set)",
            paper_bound: "O(λn³)",
            points: coin_sizes.iter().map(|&n| measure_coin(n, 1000 + n as u64, CoreSetMode::Weak)).collect(),
        },
        Row {
            label: "Coin, RBC-gather core-set (AJM+21-style)",
            paper_bound: "O(λn³·log n)",
            points: coin_sizes
                .iter()
                .map(|&n| measure_coin(n, 2000 + n as u64, CoreSetMode::RbcGather))
                .collect(),
        },
        Row {
            label: "Coin, n² AVSS baseline (CKLS02-style)",
            paper_bound: "O(λn⁴)",
            points: sq_sizes.iter().map(|&n| measure_squared_coin(n, 3000 + n as u64)).collect(),
        },
        Row {
            label: "ABA, this paper (coin per round)",
            paper_bound: "O(λn³)",
            points: heavy_sizes.iter().map(|&n| measure_setupfree_aba(n, 4000 + n as u64)).collect(),
        },
        Row {
            label: "ABA, trusted-setup coin (CKS00-style)",
            paper_bound: "O(λn²)",
            points: coin_sizes.iter().map(|&n| measure_trusted_aba(n, 5000 + n as u64)).collect(),
        },
    ];
    print_rows("ABA / Coin", &coin_rows);

    // --- Election / VBA section ---------------------------------------------
    let election_rows = vec![
        Row {
            label: "Election, this paper (Coin + 1 ABA)",
            paper_bound: "O(λn³)",
            points: heavy_sizes
                .iter()
                .map(|&n| measure_election(n, 6000 + n as u64).0)
                .collect(),
        },
        Row {
            label: "VBA, this paper (plugged Election)",
            paper_bound: "O(λn³)",
            points: heavy_sizes.iter().map(|&n| measure_vba(n, 32, 7000 + n as u64)).collect(),
        },
    ];
    print_rows("Election / VBA", &election_rows);

    println!("\nAll executions terminated; agreement held in every run:");
    for row in coin_rows.iter().chain(election_rows.iter()) {
        let ok = row.points.iter().all(|m| m.agreed);
        println!("  {:<38} agreement: {}", row.label, if ok { "yes" } else { "no (expected for the plain coin's unlucky cases)" });
    }
}
