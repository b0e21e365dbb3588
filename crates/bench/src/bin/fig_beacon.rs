//! Reproduction of the §7.3 application claims: the DKG-free random beacon
//! produces a value in a constant expected number of epochs, each epoch costs
//! O(λn³) bits, and the ADKG-style usage agrees on a key with ≥ n − f
//! contributions.
//!
//! Usage: `cargo run --release -p setupfree-bench --bin fig_beacon [--epochs E]`

use setupfree_bench::{fmt_bytes, measure_beacon};

fn main() {
    let epochs: u32 = std::env::args()
        .skip_while(|a| a != "--epochs")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);

    println!("DKG-free random beacon (per-epoch election over the real Coin)");
    println!(
        "{:>4} {:>8} {:>16} {:>14} {:>12} {:>7}",
        "n", "epochs", "bits total", "bits/epoch", "values", "agreed"
    );
    for &n in &[4usize, 7] {
        let (m, results) = measure_beacon(n, epochs, 900 + n as u64);
        let produced = results.iter().filter(|e| e.value.is_some()).count();
        println!(
            "{:>4} {:>8} {:>16} {:>14} {:>12} {:>7}",
            n,
            epochs,
            fmt_bytes(m.honest_bytes * 8),
            fmt_bytes(m.honest_bytes * 8 / u64::from(epochs)),
            format!("{produced}/{epochs}"),
            if m.agreed { "yes" } else { "no" }
        );
        let values: Vec<String> = results
            .iter()
            .map(|e| match e.value {
                Some(v) => format!("e{}:{:02x}{:02x}..", e.epoch, v[0], v[1]),
                None => format!("e{}:skip", e.epoch),
            })
            .collect();
        println!("      outputs: {}", values.join(" "));
    }
    println!("\nPaper's claim: a non-default value appears with probability ≥ 1/3 per epoch,");
    println!("so a value is produced after an expected constant number of epochs, at O(λn³)");
    println!("bits per epoch, with no DKG to bootstrap.");
}
