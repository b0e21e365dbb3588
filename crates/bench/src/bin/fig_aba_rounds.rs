//! Reproduction of the §6.2 claim: with the paper's common coin the ABA
//! terminates in expected O(1) rounds, whereas with purely local coins
//! (Ben-Or style) the expected rounds grow exponentially with `n`.  The
//! closing line reports what the local-coin rows show at the `n` run here.
//!
//! Usage: `cargo run --release -p setupfree-bench --bin fig_aba_rounds [--trials T]`

use setupfree_bench::{measure_local_coin_aba, measure_setupfree_aba, measure_trusted_aba};

fn main() {
    let trials: u64 = std::env::args()
        .skip_while(|a| a != "--trials")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);

    println!("ABA termination: common coin vs local coin (mixed inputs, random scheduling)");
    println!("{:<34} {:>6} {:>14} {:>16}", "configuration", "n", "avg rounds", "decided runs");

    let mut trusted_avg = Vec::new();
    for &n in &[4usize, 7, 10] {
        let mut total_rounds = 0u64;
        for t in 0..trials {
            total_rounds += measure_trusted_aba(n, 100 + t * 17 + n as u64).rounds;
        }
        trusted_avg.push(total_rounds as f64 / trials as f64);
        println!(
            "{:<34} {:>6} {:>14.1} {:>16}",
            "trusted-setup coin",
            n,
            total_rounds as f64 / trials as f64,
            format!("{trials}/{trials}")
        );
    }

    for &n in &[4usize, 7] {
        let mut total_rounds = 0u64;
        for t in 0..trials.min(3) {
            total_rounds += measure_setupfree_aba(n, 200 + t * 13 + n as u64).rounds;
        }
        let runs = trials.min(3);
        println!(
            "{:<34} {:>6} {:>14.1} {:>16}",
            "this paper's coin (setup-free)",
            n,
            total_rounds as f64 / runs as f64,
            format!("{runs}/{runs}")
        );
    }

    let (mut local_runs, mut local_decided, mut worst_excess) = (0u64, 0u64, 0f64);
    for (i, &n) in [4usize, 7, 10].iter().enumerate() {
        let mut decided = 0u64;
        let mut total_rounds = 0u64;
        let budget = 3_000_000u64;
        for t in 0..trials {
            if let Some(m) = measure_local_coin_aba(n, 300 + t * 11 + n as u64, budget) {
                decided += 1;
                total_rounds += m.rounds;
            }
        }
        let avg = if decided > 0 { total_rounds as f64 / decided as f64 } else { f64::NAN };
        local_runs += trials;
        local_decided += decided;
        worst_excess = worst_excess.max(avg / trusted_avg[i] - 1.0);
        println!(
            "{:<34} {:>6} {:>14.1} {:>16}",
            "local coins (Ben-Or baseline)",
            n,
            avg,
            format!("{decided}/{trials} within budget")
        );
    }

    println!("\nPaper's claim: expected O(1) rounds with the (n,f,2f+1,1/3)-coin; local coins need");
    println!("expected exponentially many rounds as n grows.");
    if local_decided == local_runs {
        println!("At these n every local-coin run above decided ({local_decided}/{local_runs}), averaging");
        println!("at most {:.0} % more rounds than the trusted coin.", 100.0 * worst_excess);
    } else {
        println!(
            "At these n {} of {local_runs} local-coin runs did not decide within the budget.",
            local_runs - local_decided
        );
    }
}
