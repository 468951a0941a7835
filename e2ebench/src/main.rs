//! The repository benchmark.
//!
//! ```text
//! e2ebench --workload <sim_paper|sim_churn_n4000|live_n1000|all> \
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One workload per process. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` is the separate traced run: spans around every call into a
//! layer, per-layer counts and probes, the unattributed remainder and the
//! telemetry cost. Either way the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`, printed only when
//! every correctness check passed; a failed check exits 1 with no result.
//! `--workload all` runs the three workloads, each in its own process.
//! See `e2ebench/README.md`.

mod live;
mod probes;
mod sim;

use std::process::{Command, ExitCode};

use e2ebench::report::{result_line, Metric};
use e2ebench::stats::LagSummary;
use e2ebench::trace::SpanRecorder;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["sim_paper", "sim_churn_n4000", "live_n1000"];

/// Each workload's default seed, and the held-out seed kept for confirming
/// a claimed gain on inputs it was not tuned on.
const DEFAULT_SEED: u64 = 1;
/// See [`DEFAULT_SEED`].
const HELD_OUT_SEED: u64 = 7;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn usage() -> String {
    format!(
        "usage: e2ebench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]\n\
         default seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED}",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 36, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What one workload run produced.
pub struct Outcome {
    pub workload: &'static str,
    /// Correctness checks as (description, passed).
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics with their sample counts.
    pub e2e: Vec<(Metric, usize)>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    pub lags: Option<LagSummary>,
    pub spans: Option<SpanRecorder>,
}

impl Outcome {
    fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            e2e: Vec::new(),
            layers: Vec::new(),
            lags: None,
            spans: None,
        }
    }

    fn check(&mut self, what: String, passed: bool) {
        self.checks.push((what, passed));
    }

    fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.e2e.push((Metric::new(name, value, unit), samples));
    }

    fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric::new(name, value, unit));
    }

    fn passed(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
    }
}

/// Prints the human-readable report on standard error.
fn print_table(out: &Outcome, args: &Args) {
    eprintln!(
        "e2ebench: {} seed {} ({} s, trace {})",
        out.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (what, ok) in &out.checks {
        eprintln!("  [{}] {what}", if *ok { "ok" } else { "FAIL" });
    }
    for (m, samples) in &out.e2e {
        eprintln!("  {:<22} {:>14.4} {:<6} (n = {samples})", m.name, m.value, m.unit);
    }
    if let Some(l) = &out.lags {
        let highest = match (l.highest_percentile, l.highest_ms) {
            (Some(p), Some(ms)) => format!("p{p} = {ms:.1} ms"),
            _ => "none".into(),
        };
        eprintln!(
            "  operations: {} attempted, {} failed, {} late; lag sample {} pairs, highest supported percentile {highest}",
            out.attempted, out.failed, l.late, l.samples
        );
    }
    for m in &out.layers {
        eprintln!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// Writes the traced run's spans beside the benchmark.
fn write_spans(out: &Outcome, args: &Args) {
    let Some(spans) = &out.spans else { return };
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{}.spans.jsonl", out.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_json_lines()))
    {
        Ok(()) => eprintln!("  spans: {} written to {}", spans.spans().len(), path.display()),
        Err(e) => eprintln!("  spans: could not write {}: {e}", path.display()),
    }
}

/// Runs every workload in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("e2ebench: {w} failed ({s})");
                ok = false;
            }
            Err(e) => {
                eprintln!("e2ebench: could not start {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let out = match args.workload.as_str() {
        "sim_paper" => sim::run(sim::SimKind::Paper, &args),
        "sim_churn_n4000" => sim::run(sim::SimKind::Churn, &args),
        "live_n1000" => live::run(&args),
        _ => unreachable!("parse_args accepts only known workloads"),
    };
    let mut out = out;
    if args.trace {
        // The traced run's end-to-end figures, to read next to an untraced
        // run's: the difference is the tracing overhead.
        for (m, _) in out.e2e.clone() {
            out.layer(&format!("traced.{}", m.name), m.value, m.unit);
        }
        probes::complete_layers(&mut out);
    }
    print_table(&out, &args);
    write_spans(&out, &args);
    let finite = out.e2e.iter().map(|(m, _)| m).chain(&out.layers).all(|m| m.value.is_finite());
    if !out.passed() || !finite {
        eprintln!("e2ebench: correctness check failed; no result reported");
        return ExitCode::FAILURE;
    }
    let metrics: Vec<Metric> = if args.trace {
        out.layers.clone()
    } else {
        out.e2e.iter().map(|(m, _)| m.clone()).collect()
    };
    println!("{}", result_line(true, out.attempted.max(1), out.failed, &metrics));
    ExitCode::SUCCESS
}
