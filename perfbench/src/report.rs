//! What one invocation reports: a human-readable table, then the JSON line.

use crate::Args;

/// One reported metric; `None` marks a layer the workload does not run
/// (printed as `n/a`, and as 0 in the JSON line, which holds numbers only).
pub struct Metric {
    pub name: String,
    pub value: Option<f64>,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: Option<f64>, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The simulator layer's metrics (n/a on `beacon-tcp`).
pub const SIM: &[(&str, &str)] = &[
    ("net.sim.deliveries_per_decision", "count"),
    ("net.sim.self_ns_per_delivery", "ns"),
    ("net.sim.self_share", "ratio"),
    ("net.sim.output_poll_share", "ratio"),
    ("net.scheduler.ns_per_pick", "ns"),
    ("net.scheduler.share", "ratio"),
];

/// The sharded runtime's metrics (`vba-sharded` only).
pub const RUNTIME: &[(&str, &str)] = &[
    ("runtime.worker_busy_frac", "ratio"),
    ("runtime.dispatch_wait_ms_p50", "ms"),
    ("runtime.session_build_ms", "ms"),
    ("runtime.shard_imbalance", "ratio"),
];

/// The socket transport's metrics (`beacon-tcp` only).
pub const TRANSPORT: &[(&str, &str)] = &[
    ("transport.sys_cpu_ms_per_decision", "ms"),
    ("transport.user_cpu_ms_per_decision", "ms"),
    ("transport.handler_cpu_share", "ratio"),
    ("transport.driver_runq_wait_share", "ratio"),
    ("transport.inbox_high_water_max", "count"),
    ("transport.redials", "count"),
    ("transport.retransmitted", "count"),
];

/// Appends a layer the workload does not run, every metric n/a.
pub fn absent(layer: &[(&str, &'static str)], out: &mut Vec<Metric>) {
    out.extend(layer.iter().map(|&(name, unit)| metric(name, None, unit)));
}

/// `bench.trace_overhead`: traced over untraced `decide_ms_p50`, minus one.
pub fn trace_overhead(traced_p50: Option<f64>, untraced_p50: Option<f64>) -> Metric {
    let v = match (traced_p50, untraced_p50) {
        (Some(t), Some(u)) if u > 0.0 => Some(t / u - 1.0),
        _ => None,
    };
    metric("bench.trace_overhead", v, "ratio")
}

/// The outcome of one workload invocation.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Decisions whose replay did not reproduce the recorded counters.
    pub nondeterminism: Vec<String>,
    /// The first few failed checks, for the human-readable report.
    pub violations: Vec<String>,
    /// Configuration and sample counts, printed above the table.
    pub info: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Raw figures for pooling across parts (name, values).
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

/// JSON has no infinity; a failed decision reads as the largest finite
/// number.
fn json_number(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::MAX
    }
}

const MAX_LISTED: usize = 8;

impl Outcome {
    pub fn violation(&mut self, what: String) {
        if self.violations.len() < MAX_LISTED {
            self.violations.push(what);
        }
    }

    pub fn nondeterministic(&mut self, what: String) {
        if self.nondeterminism.len() < MAX_LISTED {
            self.nondeterminism.push(what);
        }
    }

    pub fn push(&mut self, name: impl Into<String>, value: Option<f64>, unit: &'static str) {
        self.metrics.push(metric(name, value, unit));
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.nondeterminism.is_empty()
    }

    pub fn print(&self, args: &Args) {
        let pass = if args.trace {
            "traced (per-layer metrics)"
        } else {
            "untraced (end-to-end metrics)"
        };
        println!(
            "workload {} seed {} seconds {} pass {}",
            args.workload, args.seed, args.seconds, pass
        );
        for line in &self.info {
            println!("  {line}");
        }
        for v in &self.violations {
            println!("  FAILED: {v}");
        }
        for v in &self.nondeterminism {
            println!("  NONDETERMINISM: {v}");
        }
        let failed_frac = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "  {:<40} {} (attempted {}, failed {})",
            "failed_frac", failed_frac, self.attempted, self.failed
        );
        for m in &self.metrics {
            match m.value {
                Some(v) => println!("  {:<40} {:.6} {}", m.name, v, m.unit),
                None => println!("  {:<40} n/a", m.name),
            }
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = json_number(m.value.unwrap_or(0.0));
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(name, values)| {
                let values: Vec<String> =
                    values.iter().map(|v| json_number(*v).to_string()).collect();
                format!("\"{name}\": [{}]", values.join(", "))
            })
            .collect();
        let samples = if samples.is_empty() {
            String::new()
        } else {
            format!(", \"samples\": {{{}}}", samples.join(", "))
        };
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}{samples}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}
