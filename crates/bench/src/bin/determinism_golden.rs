//! Regenerates the golden table of the scheduler-determinism regression
//! suite (`crates/bench/tests/determinism.rs`).
//!
//! The table in that test was recorded from the **pre-PR-3 delivery engine**
//! (`Scheduler::select(&[PendingInfo])`, per-recipient payload clones,
//! per-delivery decode) and must only be regenerated when a PR deliberately
//! changes delivery order — in which case the diff of this binary's output
//! *is* the behavioural change under review.
//!
//! ```sh
//! cargo run --release -p setupfree-bench --bin determinism_golden
//! ```
//!
//! Output is the Rust source of the `GOLDEN` constant, ready to paste.

use setupfree_bench::determinism::{adversary_grid, run_cell, Fingerprint, PROTOCOLS, SIZES};

fn main() {
    println!("const GOLDEN: &[(&str, usize, usize, Fingerprint)] = &[");
    for &protocol in PROTOCOLS {
        for &n in SIZES {
            for (ai, adversary) in adversary_grid(n).iter().enumerate() {
                let fp = Fingerprint::of(&run_cell(protocol, n, adversary));
                println!(
                    "    (\"{protocol}\", {n}, {ai}, Fingerprint {{ honest_bytes: {}, \
                     honest_messages: {}, rounds: {}, deliveries: {} }}), // {adversary}",
                    fp.honest_bytes, fp.honest_messages, fp.rounds, fp.deliveries
                );
            }
        }
    }
    println!("];");
}
