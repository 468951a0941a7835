//! Sample statistics and the stream-lag extraction.

use gossip_stream::NodeQuality;
use gossip_types::Duration;

/// The percentiles a timing may be reported at, lowest first.
pub const PERCENTILE_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a reported percentile must have beyond it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "the median of no samples is undefined");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples:
/// `⌈p/100 · n⌉`, at least 1.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// The highest percentile of [`PERCENTILE_LADDER`] that has at least
/// [`MIN_SAMPLES_BEYOND`] of `n` samples beyond it, or `None` when even
/// the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER.iter().rev().copied().find(|&p| samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
}

/// The nearest-rank percentile `p` of an ascending sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "a percentile of no samples is undefined");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Stream lag over every (receiver, measured window) pair of a run.
///
/// A pair is late when its window never became decodable, or became
/// decodable later than the workload's playback lag; the late share is
/// what `quality_pct` reports. The lag percentiles are taken over the
/// pairs that did decode, each lag measured from the window's scheduled
/// publication deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct LagSummary {
    /// (receiver, measured window) pairs.
    pub attempted: u64,
    /// Pairs not decodable within the playback lag.
    pub late: u64,
    /// Pairs that decoded at all: the percentile sample.
    pub samples: usize,
    /// Median decode lag, in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile decode lag, in milliseconds.
    pub p99_ms: f64,
    /// The highest percentile the sample supports (see
    /// [`highest_supported_percentile`]).
    pub highest_percentile: Option<f64>,
    /// The lag at [`LagSummary::highest_percentile`], in milliseconds.
    pub highest_ms: Option<f64>,
}

impl LagSummary {
    /// Extracts lags and late pairs from per-node window lags, judged at
    /// playback lag `limit`. Returns `None` when no pair decoded.
    pub fn from_nodes(nodes: &[NodeQuality], limit: Duration) -> Option<LagSummary> {
        let mut lags_ms = Vec::new();
        let mut attempted = 0u64;
        let mut late = 0u64;
        for node in nodes {
            for lag in node.window_lags() {
                attempted += 1;
                match lag {
                    Some(d) => {
                        if *d > limit {
                            late += 1;
                        }
                        lags_ms.push(d.as_micros() as f64 / 1000.0);
                    }
                    None => late += 1,
                }
            }
        }
        if lags_ms.is_empty() {
            return None;
        }
        lags_ms.sort_by(|a, b| a.partial_cmp(b).expect("lags are finite"));
        let highest_percentile = highest_supported_percentile(lags_ms.len());
        Some(LagSummary {
            attempted,
            late,
            samples: lags_ms.len(),
            p50_ms: percentile(&lags_ms, 50.0),
            p99_ms: percentile(&lags_ms, 99.0),
            highest_percentile,
            highest_ms: highest_percentile.map(|p| percentile(&lags_ms, p)),
        })
    }

    /// Whether the sample supports reporting the 99th percentile.
    pub fn supports_p99(&self) -> bool {
        samples_beyond(self.samples, 99.0) >= MIN_SAMPLES_BEYOND
    }
}

/// Node-seconds of a run: `base_n` nodes over `simulated` time. The
/// denominator of `cpu_us_per_node_s`.
pub fn node_seconds(base_n: usize, simulated: Duration) -> f64 {
    base_n as f64 * simulated.as_micros() as f64 / 1e6
}

/// CPU microseconds per node-second: `cpu_s` spent running `base_n` nodes
/// for `simulated` time.
pub fn cpu_us_per_node_s(cpu_s: f64, base_n: usize, simulated: Duration) -> f64 {
    cpu_s * 1e6 / node_seconds(base_n, simulated)
}
