//! Spans around the benchmark's calls into each layer.
//!
//! A span is one call into a layer's public API, named `layer.call`.
//! Spans are aggregated per name in memory (calls and busy time) and
//! written out with the run's report. A disabled tracer records
//! nothing; the timings the end-to-end metrics need are taken by the
//! workloads themselves, so an untraced run pays no tracing cost.

use std::collections::BTreeMap;
use std::time::Instant;

/// Calls and busy time of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanStat {
    /// Calls recorded.
    pub calls: u64,
    /// Summed duration in nanoseconds.
    pub busy_ns: u64,
}

impl SpanStat {
    /// Mean duration of one call in nanoseconds (NaN when none).
    pub fn mean_ns(&self) -> f64 {
        self.busy_ns as f64 / self.calls as f64
    }
}

/// One thread's span recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: BTreeMap<&'static str, SpanStat>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: BTreeMap::new(),
        }
    }

    /// Records a span of `ns` nanoseconds the caller already timed.
    pub fn record(&mut self, name: &'static str, ns: u64) {
        if self.on {
            let stat = self.spans.entry(name).or_default();
            stat.calls += 1;
            stat.busy_ns += ns;
        }
    }

    /// Runs `f`, recording it as one span when tracing is on.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed().as_nanos() as u64);
        out
    }

    /// Folds another thread's spans into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (name, stat) in other.spans {
            let mine = self.spans.entry(name).or_default();
            mine.calls += stat.calls;
            mine.busy_ns += stat.busy_ns;
        }
    }

    /// The aggregate of one span name (zero if never recorded).
    pub fn get(&self, name: &str) -> SpanStat {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Every span name with its aggregate.
    pub fn spans(&self) -> &BTreeMap<&'static str, SpanStat> {
        &self.spans
    }
}
