//! Tracing stays zero-cost when off.
//!
//! Re-runs the golden ABA n = 22 replay (seed 7 322) under three arms —
//! uninstrumented, a sink installed with emission off, and the cheapest
//! live sink (one counter bump per event) — interleaved over four
//! repetitions.  Each repetition yields one overhead ratio per arm against
//! *that repetition's* uninstrumented run, adjacent in time, so thermal
//! drift and background load mostly cancel.  The test judges the
//! **minimum** ratio per arm: one-sided noise spikes inflate single ratios,
//! but a real regression inflates all of them.  The ceilings are 2 % with
//! the sink off and 10 % with the counting sink.  Every arm must replay the
//! golden 195 801 deliveries exactly: tracing observes, it never steers.
//!
//! This is the file's only test, so no other test shares its process while
//! it measures wall-clock time.  It runs only in release
//! (`cargo test --release -p setupfree-bench`), because unoptimised
//! timings say nothing about the shipped overhead.

use setupfree_bench::tracing::{aba_overhead_arm, OverheadArm};

const OFF_CEILING: f64 = 1.02;
const COUNTING_CEILING: f64 = 1.10;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock ratios are only meaningful under --release"
)]
fn tracing_overhead_stays_under_its_ceilings() {
    const ARMS: [OverheadArm; 3] = [
        OverheadArm::Plain,
        OverheadArm::DisabledSink,
        OverheadArm::CountingSink,
    ];
    let mut ratios = [f64::INFINITY; 3];
    let mut events = 0u64;
    for _rep in 0..4 {
        let mut walls = [0f64; 3];
        for (slot, arm) in ARMS.into_iter().enumerate() {
            let (wall, deliveries, ev) = aba_overhead_arm(22, 7_322, arm);
            assert_eq!(deliveries, 195_801, "the {arm:?} arm steered the replay");
            walls[slot] = wall.as_secs_f64();
            events = events.max(ev);
        }
        for slot in 0..3 {
            ratios[slot] = ratios[slot].min(walls[slot] / walls[0]);
        }
    }
    let [_, off, counting] = ratios;
    println!(
        "tracing overhead, aba n=22: sink-off {:+.1} %, counting {:+.1} %, {events} events",
        (off - 1.0) * 100.0,
        (counting - 1.0) * 100.0
    );
    assert!(events > 0, "the counting sink observed no events");
    assert!(
        off <= OFF_CEILING,
        "disabled-sink overhead ratio {off:.3} exceeds {OFF_CEILING}"
    );
    assert!(
        counting <= COUNTING_CEILING,
        "counting-sink overhead ratio {counting:.3} exceeds {COUNTING_CEILING}"
    );
}
