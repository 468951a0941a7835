//! The benchmark's own arithmetic, on hand-built inputs.

use e2ebench::procfs::{parse_proc_stat_steal, parse_stat_cpu, parse_vm_hwm_mb, CpuTimes};
use e2ebench::report::{json_number, result_line, Metric};
use e2ebench::stats::{
    cpu_us_per_node_s, highest_supported_percentile, median, nearest_rank, node_seconds,
    percentile, samples_beyond, LagSummary,
};
use e2ebench::trace::SpanRecorder;
use gossip_stream::NodeQuality;
use gossip_types::Duration;

fn ms(v: u64) -> Option<Duration> {
    Some(Duration::from_millis(v))
}

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.5]), 7.5);
}

#[test]
fn nearest_rank_percentiles() {
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(nearest_rank(100, 50.0), 50);
    assert_eq!(percentile(&sorted, 50.0), 50.0);
    assert_eq!(percentile(&sorted, 99.0), 99.0);
    assert_eq!(percentile(&sorted, 100.0), 100.0);
    assert_eq!(percentile(&[5.0], 99.0), 5.0);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(1000, 99.0), 10);
    assert_eq!(samples_beyond(999, 99.0), 9);
    // 19 samples: the median leaves 9 beyond it, too few.
    assert_eq!(highest_supported_percentile(19), None);
    assert_eq!(highest_supported_percentile(20), Some(50.0));
    assert_eq!(highest_supported_percentile(99), Some(50.0));
    assert_eq!(highest_supported_percentile(100), Some(90.0));
    assert_eq!(highest_supported_percentile(999), Some(90.0));
    assert_eq!(highest_supported_percentile(1000), Some(99.0));
    assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    assert_eq!(highest_supported_percentile(100_000), Some(99.99));
}

#[test]
fn lags_and_late_pairs_come_from_window_lags() {
    // Two receivers, three measured windows each.
    let nodes = vec![
        NodeQuality::from_lags(vec![ms(100), ms(300), None]),
        NodeQuality::from_lags(vec![ms(200), ms(1500), ms(50)]),
    ];
    let s = LagSummary::from_nodes(&nodes, Duration::from_secs(1)).expect("some pairs decoded");
    assert_eq!(s.attempted, 6);
    // One window never decoded, one decoded after the 1 s playback lag.
    assert_eq!(s.late, 2);
    // The percentiles run over the five pairs that decoded.
    assert_eq!(s.samples, 5);
    assert_eq!(s.p50_ms, 200.0);
    assert_eq!(s.p99_ms, 1500.0);
    assert_eq!(s.highest_percentile, None, "five samples support no percentile");
    assert!(!s.supports_p99());
}

#[test]
fn a_lag_at_the_limit_is_not_late() {
    let nodes = vec![NodeQuality::from_lags(vec![ms(1000), ms(1001)])];
    let s = LagSummary::from_nodes(&nodes, Duration::from_secs(1)).expect("decoded");
    assert_eq!((s.attempted, s.late), (2, 1));
}

#[test]
fn no_decoded_pair_gives_no_summary() {
    let nodes = vec![NodeQuality::from_lags(vec![None, None])];
    assert_eq!(LagSummary::from_nodes(&nodes, Duration::MAX), None);
}

#[test]
fn p99_is_supported_from_a_thousand_samples() {
    let lags: Vec<Option<Duration>> = (1..=1000).map(ms).collect();
    let s =
        LagSummary::from_nodes(&[NodeQuality::from_lags(lags)], Duration::MAX).expect("decoded");
    assert!(s.supports_p99());
    assert_eq!(s.p50_ms, 500.0);
    assert_eq!(s.p99_ms, 990.0);
    assert_eq!(s.highest_percentile, Some(99.0));
    assert_eq!(s.highest_ms, Some(990.0));
}

#[test]
fn stat_cpu_fields_are_counted_after_the_command_name() {
    // A command name holding spaces and a parenthesis must not shift the
    // fields: utime = 1234 ticks, stime = 56 ticks.
    let stat = "4242 (e2e (bench) x) R 1 4242 4242 0 -1 4194304 900 0 0 0 1234 56 0 0 20 0 3 0 \
                12345 1000000 2000 18446744073709551615";
    let cpu = parse_stat_cpu(stat).expect("parses");
    assert_eq!(cpu, CpuTimes { user_s: 12.34, sys_s: 0.56 });
    assert!((cpu.total_s() - 12.9).abs() < 1e-9);
    assert_eq!(parse_stat_cpu("4242 (truncated) R 1 2"), None);
}

#[test]
fn steal_is_the_eighth_value_of_the_cpu_line() {
    let stat = "cpu  408667 0 42424 481335 487 0 2253 36580 0 0\n\
                cpu0 151563 0 21155 293672 432 0 1141 18788 0 0\n\
                intr 123 4 5\n";
    assert_eq!(parse_proc_stat_steal(stat), Some(365.8));
    assert_eq!(parse_proc_stat_steal("cpu0 1 2 3 4 5 6 7 8\n"), None, "only the aggregate line");
    assert_eq!(parse_proc_stat_steal("cpu  1 2 3 4\n"), None, "no steal column");
}

#[test]
fn cpu_difference() {
    let a = CpuTimes { user_s: 1.0, sys_s: 0.5 };
    let b = CpuTimes { user_s: 3.5, sys_s: 0.75 };
    assert_eq!(b.since(&a), CpuTimes { user_s: 2.5, sys_s: 0.25 });
}

#[test]
fn vm_hwm_is_read_in_mebibytes() {
    let status = "Name:\te2ebench\nVmPeak:\t  900000 kB\nVmHWM:\t  450560 kB\nVmRSS:\t  1024 kB\n";
    assert_eq!(parse_vm_hwm_mb(status), Some(440.0));
    assert_eq!(parse_vm_hwm_mb("VmRSS:\t1024 kB\n"), None);
    assert_eq!(parse_vm_hwm_mb("VmHWM:\t1024 MB\n"), None, "only kB is understood");
}

#[test]
fn cpu_per_node_second_denominator() {
    // 230 nodes for 60 s of stream plus 20 s of drain.
    let horizon = Duration::from_secs(80);
    assert_eq!(node_seconds(230, horizon), 18_400.0);
    // 6.44 s of CPU over 18 400 node-seconds is 350 µs per node-second.
    assert!((cpu_us_per_node_s(6.44, 230, horizon) - 350.0).abs() < 1e-9);
    assert_eq!(node_seconds(1000, Duration::from_millis(1500)), 1500.0);
}

#[test]
fn result_line_has_the_four_keys() {
    let line = result_line(
        true,
        12,
        1,
        &[Metric::new("lag_p50_ms", 131.5, "ms"), Metric::new("peak_rss_mb", 400.0, "MB")],
    );
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 12, \"failed\": 1, \"metrics\": {\"lag_p50_ms\": \
         {\"value\": 131.5, \"unit\": \"ms\"}, \"peak_rss_mb\": {\"value\": 400.0, \"unit\": \"MB\"}}}"
    );
    assert_eq!(json_number(1e-7), "0.0000001");
    assert_eq!(json_number(0.000013688), "0.000013688");
}

#[test]
fn span_self_time_excludes_children() {
    let mut rec = SpanRecorder::new("run-1", true);
    rec.span("outer", |rec| {
        rec.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(20)));
    });
    let spans = rec.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    let inner = spans[1].end_us - spans[1].start_us;
    let outer = spans[0].end_us - spans[0].start_us;
    assert!(inner >= 20_000);
    assert_eq!(rec.self_us(0), outer - inner);
    assert!(rec.to_json_lines().lines().all(|l| l.contains("\"run\": \"run-1\"")));

    let mut off = SpanRecorder::new("run-2", false);
    assert_eq!(off.span("outer", |_| 7), 7);
    assert!(off.spans().is_empty(), "a disabled recorder records nothing");
}
