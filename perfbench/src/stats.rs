//! Seeds, percentiles and the `/proc` readers the benchmark measures with.

use std::time::Duration;

/// SplitMix64 finaliser: a decision's seed is `mix(workload seed, index)`.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of unsorted samples; failed
/// decisions enter as `f64::INFINITY`.  `None` for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Process CPU time in milliseconds, `(user, system)`, summed over every
/// thread the process ever ran (fields 14 and 15 of `/proc/self/stat`, in
/// USER_HZ = 100 ticks).
pub fn process_cpu_ms() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after the last ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field k is fields[k - 3].
    let tick = |k: usize| {
        fields
            .get(k - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(14) * 10.0, tick(15) * 10.0)
}

/// The calling thread's scheduler counters from
/// `/proc/thread-self/schedstat`: `(ns on CPU, ns waiting in the run queue)`.
pub fn thread_schedstat() -> (u64, u64) {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut it = s.split_whitespace().map(|v| v.parse::<u64>().unwrap_or(0));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_failures_are_infinite() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(5.0));
        assert_eq!(percentile(&s, 0.9), Some(9.0));
        let mut with_failure = s.clone();
        with_failure.push(f64::INFINITY);
        assert_eq!(percentile(&with_failure, 1.0), Some(f64::INFINITY));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn seeds_differ_per_decision() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.0);
        // A thread's counters advance when it is switched out: spin, then
        // sleep once.
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(20) {
            std::hint::black_box(0u64);
        }
        std::thread::sleep(Duration::from_millis(1));
        let (run, _) = thread_schedstat();
        assert!(run > 0);
    }
}
