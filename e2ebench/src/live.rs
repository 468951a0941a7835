//! The live workload: `live_n1000`, the reactor on loopback.

use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use e2ebench::procfs::{self, CpuTimes};
use e2ebench::stats::{self, LagSummary};
use e2ebench::trace::SpanRecorder;
use gossip_adversity::AdversitySpec;
use gossip_core::GossipConfig;
use gossip_fec::WindowParams;
use gossip_reactor::{NodeHost, ReactorOptions};
use gossip_stream::StreamConfig;
use gossip_types::Duration;
use gossip_udp::clock::ClusterClock;
use gossip_udp::cluster::{assemble_report, ClusterConfig, ClusterReport, JoinerBootstrap};

use crate::probes;
use crate::{Args, Outcome};

/// Nodes in the live cluster (the source included).
pub const LIVE_N: usize = 1000;

/// The fixed short playback lag the live run is judged at: about 2.5× the
/// 99th-percentile decode lag observed on a 2-core host (370–410 ms).
pub const LIVE_LAG: Duration = Duration::from_secs(1);

/// Drain after the live stream ends.
const DRAIN_SECS: u64 = 3;

/// Seconds of the run spent outside the live window: process start, the
/// binds, report assembly and verification.
const RESERVE_SECS: u64 = 5;

/// `NodeHost::bind` calls per run; set-up is their median.
const BIND_SAMPLES: usize = 31;

/// Stream seconds that fit in a run of `seconds`, shared by `runs` live
/// clusters.
pub fn stream_secs(seconds: u64, runs: u64) -> u64 {
    (seconds.saturating_sub(RESERVE_SECS) / runs).saturating_sub(DRAIN_SECS).max(4)
}

/// The live cluster for `seed`: n = 1000, fanout 4, 150 ms rounds,
/// 150 kbps of 1000 B payloads in 20 + 4 windows, 2 Mbps shaped uploads.
pub fn config(seed: u64, stream_secs: u64, telemetry: bool) -> ClusterConfig {
    ClusterConfig {
        n: LIVE_N,
        gossip: GossipConfig::new(4).with_gossip_period(Duration::from_millis(150)),
        stream: StreamConfig {
            rate_bps: 150_000,
            packet_payload_bytes: 1000,
            window: WindowParams::new(20, 4),
        },
        upload_cap_bps: Some(2_000_000),
        source_uncapped: true,
        max_backlog: Duration::from_secs(5),
        stream_duration: Duration::from_secs(stream_secs),
        drain_duration: Duration::from_secs(DRAIN_SECS),
        seed,
        inject_loss: 0.0,
        crashes: Vec::new(),
        adversity: AdversitySpec::none(),
        joiner_bootstrap: JoinerBootstrap::Tracker,
        telemetry: telemetry.then(gossip_telemetry::TelemetryConfig::default),
    }
}

/// Two shards with one socket each: threads and sockets stay within a
/// 2-core host, and the source runs in-process.
pub fn options() -> ReactorOptions {
    ReactorOptions { shards: Some(2), sockets_per_shard: 1, ..ReactorOptions::default() }
}

/// One live cluster run.
pub(crate) struct LiveRun {
    pub config: ClusterConfig,
    /// Wall seconds of each `NodeHost::bind` call.
    pub bind_s: Vec<f64>,
    /// Process CPU of `NodeHost::run`.
    pub cpu: CpuTimes,
    /// The machine's steal time over the same interval.
    pub steal_s: f64,
    /// Wall seconds of `assemble_report`.
    pub assemble_s: f64,
    pub report: ClusterReport,
}

impl LiveRun {
    /// CPU the run demanded: its process CPU plus the machine's steal
    /// over `NodeHost::run`.
    ///
    /// The shard loop spins whenever the next deadline is under 200 µs, so
    /// on a virtual machine its CPU is whatever the hypervisor leaves it:
    /// steal time comes straight out of its CPU. Adding the steal back
    /// (the benchmark is the only busy process on the machine) gives a
    /// figure that repeats within a few percent where raw CPU moves by
    /// 10–20 %. On bare metal steal is 0 and this is the process CPU.
    pub fn demand_s(&self) -> f64 {
        self.cpu.total_s() + self.steal_s
    }

    /// Seconds of live traffic (stream plus drain).
    pub fn live_secs(&self) -> f64 {
        (self.config.stream_duration + self.config.drain_duration).as_secs_f64()
    }
}

/// Binds [`BIND_SAMPLES`] hosts (keeping the last), runs it, and assembles
/// the report.
pub(crate) fn run_once(config: ClusterConfig, spans: &mut SpanRecorder) -> Result<LiveRun, String> {
    let options = options();
    let mut bind_s = Vec::with_capacity(BIND_SAMPLES);
    let mut host = None;
    for _ in 0..BIND_SAMPLES {
        drop(host.take());
        let t = Instant::now();
        let bound = spans
            .span("reactor::NodeHost::bind", |_| NodeHost::bind(config.clone(), &options, None));
        bind_s.push(t.elapsed().as_secs_f64());
        host = Some(bound.map_err(|e| format!("NodeHost::bind failed: {e}"))?);
    }
    let host = host.expect("at least one bind");
    let addresses: Arc<Vec<SocketAddr>> =
        Arc::new(host.local_addresses().iter().map(|&(_, addr)| addr).collect());
    let run_for = ClusterClock::to_std(config.stream_duration + config.drain_duration);
    let (cpu0, steal0) = (procfs::process_cpu(), procfs::machine_steal_s());
    let outcome = spans
        .span("reactor::NodeHost::run", |_| {
            host.run(addresses, ClusterClock::start(), Arc::new(AtomicBool::new(false)), run_for)
        })
        .map_err(|e| format!("NodeHost::run failed: {e}"))?;
    let cpu = procfs::process_cpu().since(&cpu0);
    let steal_s = procfs::machine_steal_s() - steal0;
    let t = Instant::now();
    let mut report =
        spans.span("udp::cluster::assemble_report", |_| assemble_report(&config, outcome.nodes));
    let assemble_s = t.elapsed().as_secs_f64();
    report.shard_stats = outcome.shard_stats;
    report.aborted_shards = outcome.aborted_shards;
    report.degraded = outcome.degraded;
    report.telemetry = outcome.telemetry;
    Ok(LiveRun { config, bind_s, cpu, steal_s, assemble_s, report })
}

/// The correctness gate of one live run. Returns the run's failed
/// operations: decodable (receiver, window) pairs that did not byte-verify
/// against the source.
fn check_run(out: &mut Outcome, run: &LiveRun, what: &str) -> u64 {
    let r = &run.report;
    let decode_errors: u64 = r.nodes.iter().map(|n| n.decode_errors).sum();
    let frame_errors: u64 = r.shard_stats.iter().map(|s| s.frame_errors).sum();
    out.check(format!("{what}: zero decode_errors (saw {decode_errors})"), decode_errors == 0);
    out.check(format!("{what}: zero frame_errors (saw {frame_errors})"), frame_errors == 0);
    out.check(
        format!("{what}: zero aborted_shards (saw {})", r.aborted_shards),
        r.aborted_shards == 0,
    );
    out.check(format!("{what}: not degraded"), !r.degraded);
    let decodable: u64 = r
        .quality
        .nodes()
        .iter()
        .map(|q| q.window_lags().iter().filter(|l| l.is_some()).count() as u64)
        .sum();
    out.check(
        format!(
            "{what}: windows_verified ({}) equals the decodable measured (receiver, window) pairs ({decodable})",
            r.windows_verified
        ),
        r.windows_verified == decodable,
    );
    out.check(format!("{what}: measured windows"), r.windows_measured > 0);
    decodable.saturating_sub(r.windows_verified)
}

/// Runs `live_n1000`. The traced run makes two clusters of half the
/// length, telemetry unset then set, reports the second and the
/// difference.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new("live_n1000");
    let mut spans = SpanRecorder::new(format!("live_n1000-seed{}", args.seed), args.trace);
    let runs = if args.trace { 2 } else { 1 };
    let secs = stream_secs(args.seconds, runs);
    let mut results = Vec::new();
    let outcome = spans.span("live_n1000", |spans| {
        for telemetry in [false, true].into_iter().take(runs as usize) {
            let telemetry = telemetry && args.trace;
            results.push(run_once(config(args.seed, secs, telemetry), spans)?);
        }
        Ok::<(), String>(())
    });
    if let Err(e) = outcome {
        out.check(e, false);
        return out;
    }
    let mut failed = 0;
    for (i, run) in results.iter().enumerate() {
        failed = check_run(&mut out, run, if i == 0 { "live run" } else { "telemetered live run" });
    }
    // The traced run's end-to-end figures come from its telemetered cluster.
    let measured = results.last().expect("at least one cluster ran");
    let Some(lags) = LagSummary::from_nodes(measured.report.quality.nodes(), LIVE_LAG) else {
        out.check("some (receiver, window) pair decoded".into(), false);
        return out;
    };
    out.check(
        format!("{} lag samples support the 99th percentile", lags.samples),
        lags.supports_p99(),
    );
    out.attempted = lags.attempted;
    out.failed = failed;
    let simulated = measured.config.stream_duration + measured.config.drain_duration;
    let quality = &measured.report.quality;
    out.e2e("setup_s", stats::median(&measured.bind_s), "s", measured.bind_s.len());
    out.e2e(
        "cpu_us_per_node_s",
        stats::cpu_us_per_node_s(measured.demand_s(), LIVE_N, simulated),
        "us",
        1,
    );
    out.e2e("quality_pct", quality.average_quality_percent(LIVE_LAG), "%", lags.attempted as usize);
    out.e2e("viewing_pct", quality.percent_viewing(0.01, LIVE_LAG), "%", quality.nodes().len());
    out.e2e("lag_p50_ms", lags.p50_ms, "ms", lags.samples);
    out.e2e("lag_p99_ms", lags.p99_ms, "ms", lags.samples);
    out.e2e("peak_rss_mb", procfs::peak_rss_mb(), "MB", 1);
    out.lags = Some(lags.clone());

    if args.trace {
        let plain = &results[0];
        let Some(plain_lags) = LagSummary::from_nodes(plain.report.quality.nodes(), LIVE_LAG)
        else {
            out.check("some (receiver, window) pair decoded without telemetry".into(), false);
            return out;
        };
        let plain_cpu = plain.demand_s();
        out.layer(
            "telemetry.overhead_pct",
            (measured.demand_s() - plain_cpu) / plain_cpu * 100.0,
            "%",
        );
        out.layer(
            "telemetry.lag_overhead_pct",
            (lags.p50_ms - plain_lags.p50_ms) / plain_lags.p50_ms * 100.0,
            "%",
        );
        probes::live_layers(measured, &mut spans, &mut out);
        out.spans = Some(spans);
    }
    out
}
