//! Reproduction of the Figure 2 / Lemma 10–12 claims about the Coin and of
//! the §7.1 fairness claims about the Election:
//!
//! * with probability ≥ 1/3 (`Event_good`) all honest parties output a common
//!   unpredictable bit — measured as the empirical agreement frequency and
//!   the bit balance across sessions;
//! * the Election always agrees, and the elected leader is close to uniform
//!   over the parties in the non-default case.
//!
//! Usage: `cargo run --release -p setupfree-bench --bin fig_coin_fairness [--trials T]`

use std::collections::BTreeMap;

use setupfree_bench::{coin_parties, measure_election, pki};
use setupfree_core::coin::CoreSetMode;
use setupfree_net::Sid;
use setupfree_testkit::Adversary;

fn main() {
    let trials: u64 = std::env::args()
        .skip_while(|a| a != "--trials")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(30);
    let n = 4;

    println!("Coin fairness (n = {n}, {trials} sessions, adversarial random scheduling)");
    let (keyring, secrets) = pki(n, 99);
    let mut agree = 0u64;
    let mut ones = 0u64;
    let mut zeros = 0u64;
    for t in 0..trials {
        let sid = Sid::new(&format!("fairness-{t}"));
        let coin = coin_parties(keyring.clone(), secrets.clone(), sid, CoreSetMode::Weak);
        let (m, outputs) = coin.run(&Adversary::Random { seed: t });
        if m.agreed {
            agree += 1;
            if outputs.iter().flatten().all(|o| o.bit) {
                ones += 1;
            } else {
                zeros += 1;
            }
        }
    }
    println!("  agreement frequency : {agree}/{trials} = {:.2} (paper bound: ≥ 1/3)", agree as f64 / trials as f64);
    println!("  agreed-bit balance  : {ones} ones / {zeros} zeros (paper: unbiased in Event_good)");

    println!("\nElection agreement and leader distribution (n = {n}, full setup-free stack)");
    let e_trials = (trials / 3).max(5);
    let mut histogram: BTreeMap<usize, u64> = BTreeMap::new();
    let mut defaults = 0u64;
    let mut agreements = 0u64;
    for t in 0..e_trials {
        let (m, outs) = measure_election(n, 7100 + t);
        if m.agreed {
            agreements += 1;
        }
        let leader = outs[0].leader;
        if outs[0].by_default {
            defaults += 1;
        }
        *histogram.entry(leader.index()).or_default() += 1;
    }
    println!("  agreement           : {agreements}/{e_trials} (paper: always)");
    println!("  default-leader runs : {defaults}/{e_trials} (paper: ≤ 2/3 of runs)");
    println!("  leader histogram    : {histogram:?}");
}
