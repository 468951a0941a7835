//! Spans of the traced run: one per public call the benchmark makes into a
//! layer, kept in memory and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::report::json_string;

/// One recorded span. Times are microseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `experiments::Scenario::run_with_telemetry`.
    pub name: String,
    /// Start, in microseconds since the recorder's origin.
    pub start_us: u64,
    /// End, in microseconds since the recorder's origin.
    pub end_us: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Collects spans for one workload run; every span carries the run's id.
///
/// A disabled recorder runs the wrapped calls and records nothing, so the
/// untraced run carries no tracing cost.
#[derive(Debug)]
pub struct SpanRecorder {
    enabled: bool,
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanRecorder {
    /// A recorder whose spans all carry `run_id`; `enabled: false` makes
    /// it a pass-through.
    pub fn new(run_id: impl Into<String>, enabled: bool) -> SpanRecorder {
        SpanRecorder {
            enabled,
            run_id: run_id.into(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Runs `f` inside a span named `name`, nested under whichever span is
    /// open.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut SpanRecorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_us = self.now_us();
        out
    }

    /// Records a finished call that ran on another thread, nested under
    /// whichever span is open.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_micros() as u64;
        let span = Span {
            name: name.to_string(),
            start_us: us(start),
            end_us: us(end),
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
    }

    /// The spans recorded so far, in the order they were opened or recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the time its direct
    /// children cover.
    pub fn self_us(&self, index: usize) -> u64 {
        let span = &self.spans[index];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.end_us - s.start_us)
            .sum();
        (span.end_us - span.start_us).saturating_sub(children)
    }

    /// The spans as JSON lines (one object per span, with its self time).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        let run = json_string(&self.run_id);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\": {run}, \"id\": {i}, \"parent\": {parent}, \"name\": {}, \"start_us\": {}, \"end_us\": {}, \"self_us\": {}}}",
                json_string(&s.name),
                s.start_us,
                s.end_us,
                self.self_us(i)
            );
        }
        out
    }
}
