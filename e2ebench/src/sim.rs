//! The simulator workloads: `sim_paper` and `sim_churn_n4000`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration as StdDuration, Instant};

use e2ebench::procfs::{self, CpuTimes};
use e2ebench::stats::{self, LagSummary};
use e2ebench::trace::SpanRecorder;
use gossip_adversity::AdversitySpec;
use gossip_experiments::{MembershipMode, RunResult, Scale, Scenario};
use gossip_membership::CyclonConfig;
use gossip_telemetry::Registry;
use gossip_types::Duration;

use crate::probes;
use crate::{Args, Outcome};

/// Playback lag the sims are judged at: the figures' 20 s (`LAG_20S`).
pub const SIM_LAG: Duration = Duration::from_secs(20);

/// How often the set-up watcher polls the registry for the run's cells.
const WATCH_POLL: StdDuration = StdDuration::from_micros(50);

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// The paper's cell: n = 230, fanout 7, full membership.
    Paper,
    /// n = 4000, fanout 11, Cyclon membership, churn.
    Churn,
}

impl SimKind {
    fn label(self) -> &'static str {
        match self {
            SimKind::Paper => "sim_paper",
            SimKind::Churn => "sim_churn_n4000",
        }
    }
}

/// Stream and drain seconds of `sim_churn_n4000`.
pub const CHURN_STREAM_SECS: u64 = 10;
/// Drain after the churn stream ends.
pub const CHURN_DRAIN_SECS: u64 = 10;

/// The churn of `sim_churn_n4000`, as perfbench's matrix `churn` cells
/// define it: a 30 % catastrophic crash at the stream midpoint, Poisson
/// leave/rejoin underneath, and a 10 % flash crowd at a quarter.
pub fn churn_spec(n: usize, stream_secs: u64) -> AdversitySpec {
    AdversitySpec::none()
        .with_catastrophic(Duration::from_secs(stream_secs / 2), 0.3)
        .with_poisson_churn(
            Duration::ZERO,
            Duration::from_secs(stream_secs),
            1.0,
            Some(Duration::from_secs(5)),
        )
        .with_flash_crowd(Duration::from_secs(stream_secs / 4), n / 10, Duration::from_secs(2))
}

/// The workload's scenario for `seed`.
pub fn scenario(kind: SimKind, seed: u64) -> Scenario {
    match kind {
        SimKind::Paper => {
            // 600 kbps, 1000 B payloads, 101 + 9 windows, 700 kbps caps,
            // PlanetLab latencies: the paper's cell, on perfbench's
            // pinned 60 s + 20 s horizon.
            let mut s = Scenario::at_scale(Scale::Full, 7).with_seed(seed);
            s.stream_duration = Duration::from_secs(60);
            s.drain_duration = Duration::from_secs(20);
            s
        }
        SimKind::Churn => {
            let n = 4000;
            let mut s = Scenario::at_scale(Scale::Full, 11).with_seed(seed);
            s.n = n;
            s.stream_duration = Duration::from_secs(CHURN_STREAM_SECS);
            s.drain_duration = Duration::from_secs(CHURN_DRAIN_SECS);
            s.with_membership(MembershipMode::Cyclon {
                config: CyclonConfig { view_size: 32, shuffle_size: 16 },
                shuffle_period: Duration::from_secs(1),
                bootstrap_degree: 16,
            })
            .with_adversity(churn_spec(n, CHURN_STREAM_SECS))
        }
    }
}

/// One call into the simulator.
pub(crate) struct Rep {
    /// Wall time from the call until the run registered its cells
    /// (`None` for a plain [`Scenario::run`], which registers nothing).
    pub setup_s: Option<f64>,
    /// CPU of the calling thread from set-up to return (the whole call
    /// when plain).
    pub cpu: CpuTimes,
    /// CPU of the calling thread over the whole call, set-up included.
    pub cpu_call: CpuTimes,
    pub started: Instant,
    pub ended: Instant,
    pub result: RunResult,
}

/// `Scenario::run_with_telemetry` on the calling thread, with set-up timed
/// by a watcher that polls the registry until the run's cells appear. The
/// run registers them right after it has built the deployment; the
/// watcher then raises `set_up`.
fn run_telemetered(s: &Scenario, set_up: &AtomicBool) -> Rep {
    let registry = Registry::new();
    let finished = AtomicBool::new(false);
    let stat = procfs::thread_stat_path();
    thread::scope(|scope| {
        let watcher = scope.spawn(|| loop {
            if !registry.snapshot_names().is_empty() {
                let seen = (Instant::now(), procfs::thread_cpu(&stat));
                set_up.store(true, Ordering::Release);
                return Some(seen);
            }
            if finished.load(Ordering::Acquire) {
                return None;
            }
            thread::sleep(WATCH_POLL);
        });
        let cpu_called = procfs::thread_cpu(&stat);
        let started = Instant::now();
        let result = s.run_with_telemetry(&registry);
        let ended = Instant::now();
        let cpu_end = procfs::thread_cpu(&stat);
        finished.store(true, Ordering::Release);
        let (registered, cpu_at_setup) = watcher
            .join()
            .expect("the set-up watcher does not panic")
            .expect("run_with_telemetry registers its cells");
        Rep {
            setup_s: Some(registered.duration_since(started).as_secs_f64()),
            cpu: cpu_end.since(&cpu_at_setup),
            cpu_call: cpu_end.since(&cpu_called),
            started,
            ended,
            result,
        }
    })
}

/// A plain `Scenario::run` on the calling thread, for the telemetry-cost
/// comparison.
fn run_plain(s: &Scenario) -> Rep {
    let stat = procfs::thread_stat_path();
    let cpu0 = procfs::thread_cpu(&stat);
    let started = Instant::now();
    let result = s.run();
    let ended = Instant::now();
    let cpu = procfs::thread_cpu(&stat).since(&cpu0);
    Rep { setup_s: None, cpu, cpu_call: cpu, started, ended, result }
}

/// Everything a repeat of one seed must reproduce exactly.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    events: u64,
    peak_queue: usize,
    lags: Vec<Vec<Option<Duration>>>,
}

fn fingerprint(r: &RunResult) -> Fingerprint {
    Fingerprint {
        events: r.events_processed,
        peak_queue: r.peak_queue,
        lags: r.quality.nodes().iter().map(|q| q.window_lags().to_vec()).collect(),
    }
}

/// Runs one round of calls: one call, or for `sim_churn_n4000` two
/// concurrent calls, one per core. The second call starts once the first
/// has set up, so two deployments are never built at once. The traced run
/// makes one call of each round plain, so the telemetry cost is measured
/// on the same seed in the same process.
fn round(kind: SimKind, s: &Scenario, trace: bool, reps: &mut Vec<Rep>, plain: &mut Vec<Rep>) {
    let concurrent = kind == SimKind::Churn;
    if !concurrent {
        if !trace || plain.len() >= reps.len() {
            reps.push(run_telemetered(s, &AtomicBool::new(false)));
        } else {
            plain.push(run_plain(s));
        }
        return;
    }
    let first_set_up = AtomicBool::new(false);
    let (a, b) = thread::scope(|scope| {
        let a = scope.spawn(|| run_telemetered(s, &first_set_up));
        while !first_set_up.load(Ordering::Acquire) && !a.is_finished() {
            thread::sleep(WATCH_POLL);
        }
        let b = scope.spawn(|| {
            if trace {
                run_plain(s)
            } else {
                run_telemetered(s, &AtomicBool::new(false))
            }
        });
        (a.join().expect("a sim call does not panic"), b.join().expect("a sim call does not panic"))
    });
    reps.push(a);
    if b.setup_s.is_some() {
        reps.push(b);
    } else {
        plain.push(b);
    }
}

/// Runs a simulator workload for `args.seconds`: at least two calls with
/// the workload's seed, more while another round fits in the budget.
pub fn run(kind: SimKind, args: &Args) -> Outcome {
    let mut out = Outcome::new(kind.label());
    let s = scenario(kind, args.seed);
    let mut spans = SpanRecorder::new(format!("{}-seed{}", kind.label(), args.seed), args.trace);
    let budget = args.seconds as f64;
    let started = Instant::now();

    let mut reps: Vec<Rep> = Vec::new();
    let mut plain: Vec<Rep> = Vec::new();
    spans.span(kind.label(), |spans| loop {
        let round_started = Instant::now();
        let before = reps.len() + plain.len();
        round(kind, &s, args.trace, &mut reps, &mut plain);
        let round_s = round_started.elapsed().as_secs_f64();
        for r in reps.iter().chain(plain.iter()).skip(before) {
            let name = if r.setup_s.is_some() {
                "experiments::Scenario::run_with_telemetry"
            } else {
                "experiments::Scenario::run"
            };
            spans.record(name, r.started, r.ended);
        }
        if reps.len() + plain.len() >= 2 && started.elapsed().as_secs_f64() + round_s > budget {
            break;
        }
    });

    // Correctness: every call with one seed reproduces the same run.
    let first = fingerprint(&reps[0].result);
    let all: Vec<&Rep> = reps.iter().chain(plain.iter()).collect();
    let repeats_match = all.iter().all(|r| fingerprint(&r.result) == first);
    out.check(
        format!(
            "{} calls of seed {} reproduce events, peak queue and every window lag",
            all.len(),
            args.seed
        ),
        repeats_match,
    );
    let result = &reps[0].result;
    out.check("the run measured windows".into(), result.windows_measured > 0);
    out.check("the run processed events".into(), result.events_processed > 0);

    let simulated = s.stream_duration + s.drain_duration;
    let setups: Vec<f64> = reps.iter().filter_map(|r| r.setup_s).collect();
    let cpus: Vec<f64> = reps.iter().map(|r| r.cpu.total_s()).collect();
    eprintln!("  calls: set-up {setups:.4?} s, CPU after set-up {cpus:.3?} s");
    let cpu_s = stats::median(&cpus);
    let Some(lags) = LagSummary::from_nodes(result.quality.nodes(), SIM_LAG) else {
        out.check("some (receiver, window) pair decoded".into(), false);
        return out;
    };
    out.check(
        format!("{} lag samples support the 99th percentile", lags.samples),
        lags.supports_p99(),
    );
    // One operation is one (receiver, measured window) pair of the seed's
    // run; it fails when another call of the seed gives the pair another lag.
    let pair_lag = |r: &Rep, node: usize, window: usize| {
        r.result.quality.nodes().get(node).and_then(|q| q.window_lags().get(window)).copied()
    };
    out.attempted = lags.attempted;
    out.failed = result
        .quality
        .nodes()
        .iter()
        .enumerate()
        .map(|(node, q)| {
            (0..q.window_lags().len())
                .filter(|&w| all.iter().any(|r| pair_lag(r, node, w) != pair_lag(all[0], node, w)))
                .count() as u64
        })
        .sum();

    let quality = &result.quality;
    out.e2e("setup_s", stats::median(&setups), "s", setups.len());
    out.e2e("cpu_us_per_node_s", stats::cpu_us_per_node_s(cpu_s, s.n, simulated), "us", cpus.len());
    out.e2e("quality_pct", quality.average_quality_percent(SIM_LAG), "%", lags.attempted as usize);
    out.e2e("viewing_pct", quality.percent_viewing(0.01, SIM_LAG), "%", quality.nodes().len());
    out.e2e("lag_p50_ms", lags.p50_ms, "ms", lags.samples);
    out.e2e("lag_p99_ms", lags.p99_ms, "ms", lags.samples);
    out.e2e("peak_rss_mb", procfs::peak_rss_mb(), "MB", 1);
    out.lags = Some(lags);

    if args.trace {
        // Whole-call CPU on both sides: a plain run has no set-up marker.
        let call_cpu = |rs: &[Rep]| {
            stats::median(&rs.iter().map(|r| r.cpu_call.total_s()).collect::<Vec<_>>())
        };
        let overhead = if plain.is_empty() {
            0.0
        } else {
            (call_cpu(&reps) - call_cpu(&plain)) / call_cpu(&plain) * 100.0
        };
        probes::sim_layers(&s, result, cpu_s, &mut spans, &mut out);
        out.layer("telemetry.overhead_pct", overhead, "%");
        out.spans = Some(spans);
    }
    out
}
