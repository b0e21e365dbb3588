//! Exact pins for the two gather users that `determinism.rs` does not
//! cover: the paper's coin in its `RbcGather` ablation mode and the
//! CR93/CKLS02-style `SquaredAvssCoin` baseline.  Both select their core set
//! through `n` reliable broadcasts of completed sets (§5.2, §6.1).
//!
//! Each row is one `table1` cell (same n and seed) and pins
//! `(honest_bytes, honest_messages, rounds, deliveries)`.  The simulator is
//! deterministic, so the figures are machine-independent; a change that
//! moves one changed what the gather sends or when.

use setupfree_bench::{measure_coin, measure_squared_coin, Measurement};
use setupfree_core::coin::CoreSetMode;

fn pinned(m: Measurement) -> (u64, u64, u64, u64) {
    (m.honest_bytes, m.honest_messages, m.rounds, m.deliveries)
}

#[test]
fn gather_mode_coin_matches_table1_cells() {
    for (n, expected) in [(4, (36_640, 744, 57, 727)), (7, (182_792, 3_588, 97, 3_544))] {
        let m = measure_coin(n, 2000 + n as u64, CoreSetMode::RbcGather);
        assert_eq!(pinned(m), expected, "RbcGather coin, n = {n}");
    }
}

#[test]
fn squared_avss_coin_matches_table1_cells() {
    for (n, expected) in [(4, (26_736, 1_352, 57, 1_305)), (7, (217_266, 10_976, 116, 10_975))] {
        let m = measure_squared_coin(n, 3000 + n as u64);
        assert_eq!(pinned(m), expected, "SquaredAvssCoin, n = {n}");
    }
}
