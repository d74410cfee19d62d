//! Latency samples in bounded memory, and the percentile helper every
//! reported timing goes through.

use std::time::{Duration, Instant};

/// Most samples a [`Samples`] keeps before it starts decimating.
const DEFAULT_CAP: usize = 1 << 21;

/// Latency samples in nanoseconds.
///
/// Memory is bounded: once `cap` samples are held, every other kept
/// sample is dropped and only every `stride`-th new one is recorded from
/// then on (the stride doubles each time). The decimation is
/// deterministic and keeps samples spread evenly over the run, so the
/// percentiles stay unbiased while `count` still reports every sample
/// seen.
#[derive(Debug, Clone)]
pub struct Samples {
    kept: Vec<u64>,
    cap: usize,
    stride: u64,
    seen: u64,
}

impl Default for Samples {
    fn default() -> Self {
        Samples::with_cap(DEFAULT_CAP)
    }
}

impl Samples {
    /// An empty sample set holding at most `cap` samples (`cap >= 2`).
    pub fn with_cap(cap: usize) -> Self {
        assert!(cap >= 2, "a sample cap below 2 cannot decimate");
        Samples {
            kept: Vec::new(),
            cap,
            stride: 1,
            seen: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.seen += 1;
        if self.seen % self.stride != 0 {
            return;
        }
        if self.kept.len() == self.cap {
            let mut i = 0;
            self.kept.retain(|_| {
                i += 1;
                i % 2 == 0
            });
            self.stride *= 2;
            if self.seen % self.stride != 0 {
                return;
            }
        }
        self.kept.push(ns);
    }

    /// Every sample seen, kept or not.
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Median, 99th percentile, and the highest percentile that still
    /// has ten kept samples beyond it.
    pub fn summary(&self) -> Summary {
        let mut sorted: Vec<f64> = self.kept.iter().map(|&ns| ns as f64).collect();
        sorted.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(sorted.len());
        Summary {
            count: self.seen,
            kept: sorted.len(),
            p50_ns: quantile(&sorted, 0.5),
            p99_ns: quantile(&sorted, 0.99),
            tail_q,
            tail_ns: tail_q.map(|q| quantile(&sorted, q)),
            p50_windows: 0,
            p99_windows: 0,
        }
    }
}

/// Latency samples of a whole run plus one [`Samples`] per fixed time
/// window.
///
/// Figures are taken per window and then summarised over the windows.
/// Other tenants of a shared machine slow the program for seconds at a
/// time and never speed it up, so a run's overall median lands in
/// whichever phase held more samples and jumps between runs. The lower
/// quartile of the window medians (and the upper quartile of the window
/// rates) follows the program's own speed instead; a regression in the
/// program moves every window and so moves them too.
#[derive(Debug, Clone)]
pub struct Windowed {
    start: Instant,
    window: Duration,
    all: Samples,
    windows: Vec<Samples>,
}

impl Windowed {
    /// Samples windowed by `window` from `start`.
    pub fn new(start: Instant, window: Duration) -> Self {
        Windowed {
            start,
            window,
            all: Samples::default(),
            windows: Vec::new(),
        }
    }

    /// Records a sample taken at `at`.
    pub fn record(&mut self, at: Instant, ns: u64) {
        self.all.record(ns);
        let i =
            (at.saturating_duration_since(self.start).as_nanos() / self.window.as_nanos()) as usize;
        if self.windows.len() <= i {
            self.windows
                .resize_with(i + 1, || Samples::with_cap(1 << 16));
        }
        self.windows[i].record(ns);
    }

    /// Records the time from `since` to now, taken now.
    pub fn record_since(&mut self, since: Instant) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(since).as_nanos() as u64;
        self.record(now, ns);
        ns
    }

    /// Samples per second: the upper quartile of the rates of the
    /// complete windows that ended by `end`, or the whole span's rate
    /// when no window completed.
    pub fn rate(&self, end: Instant) -> f64 {
        let span = end.saturating_duration_since(self.start);
        let complete = (span.as_nanos() / self.window.as_nanos()) as usize;
        let mut rates: Vec<f64> = (0..complete)
            .map(|i| self.windows.get(i).map_or(0, Samples::count) as f64)
            .map(|n| n / self.window.as_secs_f64())
            .collect();
        if rates.is_empty() {
            return self.all.count() as f64 / span.as_secs_f64();
        }
        rates.sort_by(f64::total_cmp);
        quantile(&rates, 0.75)
    }

    /// The whole run's summary, except that `p50_ns` is the lower
    /// quartile of the window medians over the windows that hold at
    /// least 20 samples, and `p99_ns` the median of the window 99th
    /// percentiles over the windows that hold at least 1000 (ten beyond
    /// their p99). Without such windows the whole run's figure stands.
    pub fn summary(&self) -> Summary {
        let mut sum = self.all.summary();
        let windows: Vec<Summary> = self.windows.iter().map(Samples::summary).collect();
        let mut p50s: Vec<f64> = windows
            .iter()
            .filter(|w| w.kept >= 20)
            .map(|w| w.p50_ns)
            .collect();
        if !p50s.is_empty() {
            p50s.sort_by(f64::total_cmp);
            sum.p50_ns = quantile(&p50s, 0.25);
            sum.p50_windows = p50s.len();
        }
        let p99s: Vec<f64> = windows
            .iter()
            .filter(|w| w.kept >= 1000)
            .map(|w| w.p99_ns)
            .collect();
        if !p99s.is_empty() {
            sum.p99_ns = median(&p99s);
            sum.p99_windows = p99s.len();
        }
        sum
    }
}

/// What [`Samples::summary`] reports.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Samples seen.
    pub count: u64,
    /// Samples the percentiles were computed from.
    pub kept: usize,
    /// Median in nanoseconds (NaN when empty).
    pub p50_ns: f64,
    /// 99th percentile in nanoseconds (NaN when empty).
    pub p99_ns: f64,
    /// The highest of 0.999 / 0.99 / 0.9 / 0.5 with at least ten kept
    /// samples beyond it, if any.
    pub tail_q: Option<f64>,
    /// The value at `tail_q`.
    pub tail_ns: Option<f64>,
    /// How many windows `p50_ns` is taken over (0: the whole run).
    pub p50_windows: usize,
    /// How many windows `p99_ns` is the median over (0: the whole run).
    pub p99_windows: usize,
}

impl Summary {
    /// Whether `p99_ns` has at least ten samples beyond it.
    pub fn p99_supported(&self) -> bool {
        self.tail_q.is_some_and(|q| q >= 0.99)
    }
}

/// The `q`-quantile of ascending `sorted`, interpolating linearly
/// between the two nearest ranks (position `q * (n - 1)`). NaN when
/// `sorted` is empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest of the standard percentiles that has at least ten of
/// `n` samples strictly beyond it.
pub fn tail_quantile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| (n as f64) * (1.0 - q) >= 10.0)
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(close(quantile(&sorted, 0.5), 50.5));
        assert!(close(quantile(&sorted, 0.99), 99.01));
        assert!(close(quantile(&sorted, 0.0), 1.0));
        assert!(close(quantile(&sorted, 1.0), 100.0));
        assert!(close(quantile(&[7.0], 0.99), 7.0));
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
        assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
    }

    #[test]
    fn tail_quantile_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(19), None);
    }

    #[test]
    fn summary_reports_counts_and_percentiles() {
        let mut s = Samples::default();
        for ns in 1..=1000 {
            s.record(ns);
        }
        let sum = s.summary();
        assert_eq!(sum.count, 1000);
        assert_eq!(sum.kept, 1000);
        assert!(close(sum.p50_ns, 500.5));
        assert!(close(sum.p99_ns, 990.01));
        assert!(sum.p99_supported());
        assert_eq!(sum.tail_q, Some(0.99));
    }

    #[test]
    fn windowed_figures_summarise_the_windows() {
        let start = Instant::now();
        let mut w = Windowed::new(start, Duration::from_secs(1));
        // Three full windows: 1000, 2000 and 3000 samples with medians
        // of about 500, 1000 and 50_000 and p99s of about 990, 1980 and
        // 99_000. A short last window counts for neither figure.
        for (i, scale) in [1u64, 2, 100].into_iter().enumerate() {
            let at = start + Duration::from_millis(1000 * i as u64 + 500);
            for ns in 1..=1000 * (i as u64 + 1) {
                w.record(at, ns * scale / (i as u64 + 1));
            }
        }
        w.record(start + Duration::from_millis(3500), 1);
        let sum = w.summary();
        assert_eq!(sum.count, 6001);
        assert_eq!((sum.p50_windows, sum.p99_windows), (3, 3));
        // Lower quartile of the medians 500.5, 1000.5 and 50_016.5; median
        // of the p99s 990.01, 1980.01 and about 99_000.
        assert!(close(sum.p50_ns, 750.5), "p50 {}", sum.p50_ns);
        assert!(close(sum.p99_ns, 1980.01), "p99 {}", sum.p99_ns);
        // Upper quartile of 1000, 2000 and 3000 samples per second.
        let rate = w.rate(start + Duration::from_millis(3900));
        assert!(close(rate, 2500.0), "rate {rate}");
    }

    #[test]
    fn decimation_bounds_memory_and_keeps_an_even_spread() {
        let mut s = Samples::with_cap(64);
        for ns in 0..10_000u64 {
            s.record(ns);
        }
        let sum = s.summary();
        assert_eq!(sum.count, 10_000);
        assert!(sum.kept <= 64 && sum.kept >= 32, "kept {}", sum.kept);
        // An even spread over 0..10000 keeps the median near the middle.
        assert!((sum.p50_ns - 5000.0).abs() < 400.0, "p50 {}", sum.p50_ns);
    }
}
