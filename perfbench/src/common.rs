//! What every workload shares: the run context, the outcome it
//! reports, and the correctness checks that follow the stores'
//! documented fidelity contracts.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dh_catalog::{AlgoSpec, ColumnStore, ReadStats, ShardPlan};
use dh_core::{ks_error, BucketSpan, DataDistribution, MemoryBudget, ReadHistogram, UpdateOp};

use crate::inputs::Shape;
use crate::stats::{median, Summary};
use crate::trace::Tracer;

/// Relative tolerance of the mass checks: composed and re-rendered
/// totals are float sums, so they match the exact count only up to
/// rounding (e.g. 14899.999999999998 against 14900).
pub const MASS_TOLERANCE: f64 = 1e-9;

/// Times each workload builds its stores; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Window over which tail percentiles are taken before their median.
pub const WINDOW: Duration = Duration::from_secs(2);

/// The 1 KB budget every column gets.
pub fn budget() -> MemoryBudget {
    MemoryBudget::from_kb(1.0)
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Whether spans are recorded.
    pub trace: bool,
    /// Scratch directory for durable stores, inside the checkout.
    pub work: PathBuf,
}

/// A named value with its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// One correctness check's verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The observed values.
    pub detail: String,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued (commits, estimates, joins, global reads).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Every end-to-end metric the workload measures.
    pub e2e: BTreeMap<&'static str, Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, Metric>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Run facts that are neither metrics nor checks (sample counts,
    /// generator lateness), as JSON values.
    pub facts: BTreeMap<String, String>,
    /// The spans recorded, for the report.
    pub spans: Tracer,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.insert(name, Metric { value, unit });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.insert(name, Metric { value, unit });
    }

    /// Records a check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Records a fact (a JSON value).
    pub fn fact(&mut self, name: impl Into<String>, json: impl Into<String>) {
        self.facts.insert(name.into(), json.into());
    }

    /// Records a latency summary as `<name>_p50_<unit>` /
    /// `<name>_p99_<unit>` end-to-end metrics (values divided by
    /// `per_unit` nanoseconds), plus its sample count and supported tail.
    pub fn latency(
        &mut self,
        p50: &'static str,
        p99: Option<&'static str>,
        s: &Summary,
        per_unit: f64,
        unit: &'static str,
    ) {
        self.e2e(p50, s.p50_ns / per_unit, unit);
        if let Some(p99) = p99 {
            self.e2e(p99, s.p99_ns / per_unit, unit);
        }
        let tail = match (s.tail_q, s.tail_ns) {
            (Some(q), Some(ns)) => format!("{{\"q\": {q}, \"value\": {}}}", ns / per_unit),
            _ => "null".to_string(),
        };
        self.fact(
            format!("{p50}.samples"),
            format!(
                "{{\"count\": {}, \"kept\": {}, \"p50_windows\": {}, \"p99_windows\": {}, \"p99_supported\": {}, \"tail\": {tail}}}",
                s.count,
                s.kept,
                s.p50_windows,
                s.p99_windows,
                s.p99_supported()
            ),
        );
    }
}

/// Builds the workload state `SETUP_REPEATS` times (dropping each
/// earlier one first) and returns the median set-up time with the last
/// state.
pub fn repeated_setup<S>(mut build: impl FnMut(usize) -> S) -> (f64, S) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for i in 0..SETUP_REPEATS {
        drop(state.take());
        let start = Instant::now();
        state = Some(build(i));
        times.push(start.elapsed().as_secs_f64());
    }
    (median(&times), state.expect("at least one set-up"))
}

/// `a` within [`MASS_TOLERANCE`] of `b`, relative to `b`.
pub fn mass_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= MASS_TOLERANCE * b.abs().max(1.0)
}

/// Whether two span lists are bit-for-bit identical.
pub fn spans_identical(a: &[BucketSpan], b: &[BucketSpan]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.lo.to_bits() == y.lo.to_bits()
                && x.hi.to_bits() == y.hi.to_bits()
                && x.count.to_bits() == y.count.to_bits()
        })
}

/// Replays one column's batches, in commit order, into bare histograms
/// built the way the stores build theirs: one histogram for an
/// unsharded column, or one per shard of `plan` (the budget split and
/// seeds as `ShardedCatalog` registers them, each op routed to its
/// shard before timing starts). Returns the spans, shard by shard, and
/// the nanoseconds spent in `apply_slice`.
pub fn bare_replay(
    spec: AlgoSpec,
    seed: u64,
    plan: Option<ShardPlan>,
    batches: &[Vec<UpdateOp>],
) -> (Vec<BucketSpan>, u64) {
    let shards = plan.map_or(1, |p| p.shards());
    let (base, extra) = (budget().bytes() / shards, budget().bytes() % shards);
    let mut hists: Vec<_> = (0..shards)
        .map(|i| {
            let bytes = (base + usize::from(i < extra)).max(1);
            spec.build(MemoryBudget::from_bytes(bytes), seed.wrapping_add(i as u64))
        })
        .collect();
    let mut routed: Vec<Vec<UpdateOp>> = vec![Vec::new(); shards];
    let mut ns = 0u64;
    for batch in batches {
        for ops in &mut routed {
            ops.clear();
        }
        for &op in batch {
            let v = match op {
                UpdateOp::Insert(v) | UpdateOp::Delete(v) => v,
            };
            routed[plan.map_or(0, |p| p.route(v))].push(op);
        }
        let start = Instant::now();
        for (hist, ops) in hists.iter_mut().zip(&routed) {
            hist.apply_slice(ops);
        }
        ns += start.elapsed().as_nanos() as u64;
    }
    (hists.iter().flat_map(|h| h.spans()).collect(), ns)
}

/// Per-column mass and accuracy against the exact live multisets:
/// checks `total_count` against the live count and returns the mean KS
/// distance (the paper's error metric) over the columns.
pub fn score_columns(
    out: &mut Outcome,
    store: &dyn ColumnStore,
    truths: &[(String, DataDistribution)],
) -> f64 {
    let mut ks_sum = 0.0;
    let mut worst: Option<(String, f64, u64)> = None;
    for (column, truth) in truths {
        let snap = store.snapshot(column).expect("column registered");
        let total = snap.total_count();
        if !mass_close(total, truth.total() as f64) && worst.is_none() {
            worst = Some((column.clone(), total, truth.total()));
        }
        ks_sum += ks_error(&snap, truth);
    }
    let detail = match &worst {
        Some((c, got, want)) => format!("{c}: total_count {got} against live count {want}"),
        None => format!("{} columns within {MASS_TOLERANCE:e}", truths.len()),
    };
    out.check("mass matches the live count", worst.is_none(), detail);
    ks_sum / truths.len() as f64
}

/// Once writes have stopped, a cached estimate must be bit-equal to the
/// same estimate recomputed from a snapshot.
pub fn check_cached_estimates(out: &mut Outcome, store: &dyn ColumnStore, shapes: &[Shape]) {
    let mut bad = None;
    for shape in shapes {
        let first = shape.on_store(store);
        let cached = shape.on_store(store);
        let snap = store.snapshot(shape.column()).expect("column registered");
        let fresh = shape.on_snapshot(&snap);
        match (first, cached) {
            (Ok(_), Ok(v)) if v.to_bits() == fresh.to_bits() => {}
            (_, got) => {
                bad.get_or_insert(format!("{shape:?}: cached {got:?}, recomputed {fresh}"));
            }
        }
    }
    let detail = bad
        .clone()
        .unwrap_or_else(|| format!("{} shapes bit-equal", shapes.len()));
    out.check(
        "cached estimate equals recomputed estimate",
        bad.is_none(),
        detail,
    );
}

/// Times `snapshot_set` over `columns`, returning the median in µs.
pub fn snapshot_set_us(store: &dyn ColumnStore, columns: &[String]) -> f64 {
    let names: Vec<&str> = columns.iter().map(String::as_str).collect();
    let times: Vec<f64> = (0..32)
        .map(|_| {
            let start = Instant::now();
            let set = store.snapshot_set(&names).expect("columns registered");
            std::hint::black_box(set);
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&times)
}

/// Read-path counters combined field by field with `f`.
pub fn combine_reads(a: ReadStats, b: ReadStats, f: impl Fn(u64, u64) -> u64) -> ReadStats {
    ReadStats {
        fast_reads: f(a.fast_reads, b.fast_reads),
        slow_renders: f(a.slow_renders, b.slow_renders),
        cache_hits: f(a.cache_hits, b.cache_hits),
        cache_misses: f(a.cache_misses, b.cache_misses),
        cache_invalidations: f(a.cache_invalidations, b.cache_invalidations),
        site_probes: f(a.site_probes, b.site_probes),
        site_failures: f(a.site_failures, b.site_failures),
        degraded_reads: f(a.degraded_reads, b.degraded_reads),
    }
}

/// Read-path counters accumulated from `before` to `after`.
pub fn read_delta(before: ReadStats, after: ReadStats) -> ReadStats {
    combine_reads(after, before, |a, b| a - b)
}

/// The read-path layer metrics of a traced run.
pub fn read_layers(out: &mut Outcome, reads: ReadStats, tracer: &Tracer) {
    let lookups = reads.cache_hits + reads.cache_misses;
    out.layer(
        "read.estimate_ns",
        tracer.get("read.estimate").mean_ns(),
        "ns",
    );
    out.layer(
        "read.cache_hit_ratio",
        reads.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    out.fact("read.cache_lookups", lookups.to_string());
    out.layer(
        "read.cache_invalidations",
        reads.cache_invalidations as f64,
        "count",
    );
    out.layer("read.slow_renders", reads.slow_renders as f64, "count");
}

/// The routing layer metrics of a traced run: the mean over `columns`
/// of max/mean `shard_load`, and the ops clamped into the domain.
pub fn sharded_layers(out: &mut Outcome, store: &dyn ColumnStore, columns: &[String]) {
    let (mut balance, mut clamped) = (0.0, 0u64);
    for name in columns {
        let load = store.shard_load(name).expect("column registered");
        let mean = load.iter().sum::<u64>() as f64 / load.len() as f64;
        balance += *load.iter().max().unwrap_or(&0) as f64 / mean;
        clamped += store.clamped_ops(name).expect("column registered");
    }
    out.layer(
        "sharded.load_balance",
        balance / columns.len() as f64,
        "ratio",
    );
    out.layer("sharded.clamped_ops", clamped as f64, "count");
}

/// The commit-pipeline layer metrics of a traced run: the commit span,
/// and its self time net of the bare core replay of the same batches.
pub fn txn_layers(out: &mut Outcome, commit: crate::trace::SpanStat, core_ns: u64, epochs: u64) {
    out.layer("txn.commit_us", commit.mean_ns() / 1e3, "us");
    out.layer(
        "txn.self_us",
        (commit.busy_ns as f64 - core_ns as f64) / commit.calls as f64 / 1e3,
        "us",
    );
    out.layer("txn.commits", commit.calls as f64, "count");
    out.layer("txn.epochs", epochs as f64, "count");
}
