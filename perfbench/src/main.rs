//! Repository benchmark: time-to-decide, throughput and cost per decision of
//! three closed-loop workloads, split by layer from outside the program.
//!
//! One invocation runs one workload:
//!
//! ```text
//! perfbench --workload <aba-sim|vba-sharded|beacon-tcp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the untraced pass and prints the end-to-end metrics.
//! `--trace 1` runs an untraced pass and then a traced pass over the same
//! decisions, and prints the per-layer metrics.  `--setup-only` stops after
//! the first decision and prints only `setup_s` (`run.py` starts several
//! such processes to take a median over cold starts).
//! `--fail-decision <i>` gives decision `i` a delivery budget too small to
//! finish (the self-test of the failure accounting).  `--part <j>` runs part
//! `j` of a window split across processes: its decisions get their own ids.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`, plus, for the simulator
//! workloads' untraced pass, `samples`: the raw figures `run.py` pools
//! across parts.

mod aba_sim;
mod beacon_tcp;
mod crypto_probe;
mod probe;
mod report;
mod stats;
mod vba_sharded;

use std::process::ExitCode;
use std::time::Instant;

/// Decision ids of part `j` start at `j * PART_STRIDE`, so the parts of
/// one run decide on different seeds.
pub const PART_STRIDE: u64 = 1_000_000;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setup_only: bool,
    pub fail_decision: Option<u64>,
    pub part: u64,
    /// Where the traced pass writes its spans (one line per span).
    pub spans_out: Option<String>,
    /// Process start, the origin of `setup_s`.
    pub started: Instant,
}

fn parse_args() -> Result<Args, String> {
    let started = Instant::now();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
        fail_decision: None,
        part: 0,
        spans_out: None,
        started,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--setup-only" => args.setup_only = true,
            "--fail-decision" => {
                args.fail_decision = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--fail-decision: {e}"))?,
                )
            }
            "--part" => args.part = value()?.parse().map_err(|e| format!("--part: {e}"))?,
            "--spans-out" => args.spans_out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "aba-sim" => aba_sim::run(&args),
        "vba-sharded" => vba_sharded::run(&args),
        "beacon-tcp" => beacon_tcp::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (aba-sim, vba-sharded, beacon-tcp)");
            return ExitCode::from(2);
        }
    };
    result.print(&args);
    ExitCode::SUCCESS
}
