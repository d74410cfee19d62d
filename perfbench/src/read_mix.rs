//! `read_mix`: a closed-loop reader beside an open-loop writer on a
//! `ShardedCatalog` with locked ingestion.
//!
//! 8 shards, 4 columns (DC, DVO, DADO, DADO at 1 KB), warmed during
//! set-up. The reader loops over a hot set of 256 shapes, which fits the
//! 512-slot front cache; one read in 65536 is an equi-join estimate
//! over two columns. The writer commits 64 ops at a fixed 500 commits/s,
//! round-robin over the columns, and its schedule sets the run length,
//! so the final state depends on the seed and run length only.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dh_catalog::{AlgoSpec, ColumnConfig, ColumnStore, ShardPlan, ShardedCatalog, WriteBatch};
use dh_core::UpdateOp;
use dh_optimizer::estimate_equi_join_at;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    bare_replay, budget, check_cached_estimates, read_delta, read_layers, repeated_setup,
    score_columns, sharded_layers, snapshot_set_us, txn_layers, Ctx, Outcome, WINDOW,
};
use crate::inputs::{mix, ColumnStream, Shape, DOMAIN};
use crate::stats::{Samples, Windowed};
use crate::trace::Tracer;

const SPECS: [AlgoSpec; 4] = [AlgoSpec::Dc, AlgoSpec::Dvo, AlgoSpec::Dado, AlgoSpec::Dado];
const SHARDS: usize = 8;
const OPS_PER_COMMIT: usize = 64;
/// The writer's fixed commit rate.
const COMMITS_PER_S: f64 = 500.0;
const HOT_SHAPES: usize = 256;
/// One read in this many is a join. A join costs about as much as
/// 5000 cached estimates (about 1 ms): at one read in 64 the joins took
/// about 97% of the reader's time, so the read-path metrics measured the
/// join instead. At this rate joins take a few percent.
const JOIN_EVERY: u64 = 1 << 16;
/// Set-up commits per column, of `PRELOAD_OPS` ops each.
const PRELOAD_COMMITS: usize = 16;
const PRELOAD_OPS: usize = 1024;

struct Column {
    name: String,
    spec: AlgoSpec,
    seed: u64,
    stream: ColumnStream,
    batches: Vec<Vec<UpdateOp>>,
}

struct State {
    store: ShardedCatalog,
    columns: Vec<Column>,
    shapes: Vec<Shape>,
    /// The writer's batches, in schedule order: (column index, ops).
    schedule: Vec<(usize, Vec<UpdateOp>)>,
    commits: u64,
}

fn plan() -> ShardPlan {
    ShardPlan::new(DOMAIN.0, DOMAIN.1, SHARDS).expect("valid shard plan")
}

fn setup(seed: u64, seconds: f64) -> State {
    let store = ShardedCatalog::new();
    let mut columns = Vec::new();
    for (c, &spec) in SPECS.iter().enumerate() {
        let name = format!("m{c}");
        let col_seed = mix(seed, 2000 + c as u64);
        let config = ColumnConfig::new(spec, budget())
            .with_seed(col_seed)
            .with_plan(plan());
        store.register(&name, config).expect("register column");
        columns.push(Column {
            name,
            spec,
            seed: col_seed,
            stream: ColumnStream::new(col_seed),
            batches: Vec::new(),
        });
    }
    let mut commits = 0;
    for col in &mut columns {
        for _ in 0..PRELOAD_COMMITS {
            let ops = col.stream.next_ops(PRELOAD_OPS);
            store
                .commit(WriteBatch::for_column(col.name.clone(), ops.clone()))
                .expect("preload commit");
            col.batches.push(ops);
            commits += 1;
        }
    }
    let n = (COMMITS_PER_S * seconds).round() as usize;
    let schedule = (0..n)
        .map(|i| {
            let c = i % columns.len();
            (c, columns[c].stream.next_ops(OPS_PER_COMMIT))
        })
        .collect();
    let names: Vec<String> = columns.iter().map(|c| c.name.clone()).collect();
    let shapes = Shape::set(&names, HOT_SHAPES / columns.len(), mix(seed, 9));
    for shape in &shapes {
        black_box(shape.on_store(&store).expect("warm-up estimate"));
    }
    State {
        store,
        columns,
        shapes,
        schedule,
        commits,
    }
}

/// What the reader thread hands back.
struct ReaderReport {
    estimates: Windowed,
    joins: Windowed,
    attempted: u64,
    failed: u64,
    end: Instant,
    tracer: Tracer,
}

fn reader(st: &State, stop: &AtomicBool, seed: u64, trace: bool) -> ReaderReport {
    let mut rng = StdRng::seed_from_u64(mix(seed, 13));
    let mut tracer = Tracer::new(trace);
    let names: Vec<&str> = st.columns.iter().map(|c| c.name.as_str()).collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let (mut estimates, mut joins) = (Windowed::new(start, WINDOW), Windowed::new(start, WINDOW));
    while !stop.load(Ordering::Relaxed) {
        attempted += 1;
        let t = Instant::now();
        let result = if attempted % JOIN_EVERY == 0 {
            let k = (attempted / JOIN_EVERY) as usize;
            let (r, s) = (names[k % names.len()], names[(k + 1) % names.len()]);
            let result = estimate_equi_join_at(&st.store, r, s);
            tracer.record("optimizer.join", joins.record_since(t));
            result
        } else {
            let shape = &st.shapes[rng.gen_range(0..st.shapes.len())];
            let result = shape.on_store(&st.store);
            tracer.record("read.estimate", estimates.record_since(t));
            result
        };
        match result {
            Ok(v) => {
                black_box(v);
            }
            Err(_) => failed += 1,
        }
    }
    ReaderReport {
        estimates,
        joins,
        attempted,
        failed,
        end: Instant::now(),
        tracer,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, mut st) = repeated_setup(|_| setup(ctx.seed, ctx.seconds));
    out.e2e("setup_s", setup_s, "s");

    let mut tracer = Tracer::new(ctx.trace);
    let (reads_before, epoch_before) = (st.store.read_stats(), st.store.epoch());
    let stop = AtomicBool::new(false);
    let mut lateness = Samples::default();
    let mut max_late_ns = 0u64;
    let (mut ops, mut committed) = (0u64, Vec::new());
    let period = Duration::from_secs_f64(1.0 / COMMITS_PER_S);
    let mut writer_s = 0.0;
    let (report, commit_lat) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| reader(&st, &stop, ctx.seed, ctx.trace));
        let t0 = Instant::now();
        let mut commit_lat = Windowed::new(t0, WINDOW);
        for (i, (c, batch_ops)) in st.schedule.iter().enumerate() {
            let due = t0 + period * i as u32;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let begin = Instant::now();
            let late = begin.saturating_duration_since(due).as_nanos() as u64;
            lateness.record(late);
            max_late_ns = max_late_ns.max(late);
            out.attempted += 1;
            let name = st.columns[*c].name.clone();
            let result = st
                .store
                .commit(WriteBatch::for_column(name, batch_ops.clone()));
            tracer.record("txn.commit", begin.elapsed().as_nanos() as u64);
            commit_lat.record_since(due);
            match result {
                Ok(_) => {
                    ops += batch_ops.len() as u64;
                    committed.push(i);
                }
                Err(_) => out.failed += 1,
            }
        }
        writer_s = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        (handle.join().expect("reader thread panicked"), commit_lat)
    });
    for i in committed {
        let (c, batch_ops) = &st.schedule[i];
        st.columns[*c].batches.push(batch_ops.clone());
        st.commits += 1;
    }
    let reads = read_delta(reads_before, st.store.read_stats());
    out.attempted += report.attempted;
    out.failed += report.failed;

    out.latency(
        "commit_p50_us",
        Some("commit_p99_us"),
        &commit_lat.summary(),
        1e3,
        "us",
    );
    out.e2e("ingest_ops_per_s", ops as f64 / writer_s, "1/s");
    out.latency(
        "estimate_p50_ns",
        Some("estimate_p99_ns"),
        &report.estimates.summary(),
        1.0,
        "ns",
    );
    out.e2e("estimates_per_s", report.estimates.rate(report.end), "1/s");
    out.latency("join_p50_us", None, &report.joins.summary(), 1e3, "us");
    let late = lateness.summary();
    out.fact(
        "writer_lateness_us",
        format!(
            "{{\"max\": {}, \"p99\": {}, \"p50\": {}}}",
            max_late_ns as f64 / 1e3,
            late.p99_ns / 1e3,
            late.p50_ns / 1e3
        ),
    );

    // Correctness.
    let epoch = st.store.epoch();
    out.check(
        "epoch == commits",
        epoch == st.commits,
        format!("epoch {epoch}, commits {}", st.commits),
    );
    let slow = st.store.read_stats().slow_renders;
    out.check(
        "slow_renders == 0",
        slow == 0,
        format!("slow_renders {slow}"),
    );
    let truths: Vec<_> = st
        .columns
        .iter()
        .map(|c| (c.name.clone(), c.stream.truth()))
        .collect();
    let ks = score_columns(&mut out, &st.store, &truths);
    out.e2e("ks_error", ks, "ks");
    check_cached_estimates(&mut out, &st.store, &st.shapes);

    if ctx.trace {
        let (mut core_ns, mut core_ops, mut run_core_ns) = (0u64, 0u64, 0u64);
        for col in &st.columns {
            let preload = &col.batches[..PRELOAD_COMMITS];
            let (_, ns) = bare_replay(col.spec, col.seed, Some(plan()), preload);
            let (_, all_ns) = bare_replay(col.spec, col.seed, Some(plan()), &col.batches);
            core_ns += all_ns;
            run_core_ns += all_ns.saturating_sub(ns);
            core_ops += col.batches.iter().map(|b| b.len() as u64).sum::<u64>();
        }
        out.layer(
            "core.apply_ns_per_op",
            core_ns as f64 / core_ops as f64,
            "ns",
        );
        txn_layers(
            &mut out,
            tracer.get("txn.commit"),
            run_core_ns,
            epoch - epoch_before,
        );
        tracer.merge(report.tracer);
        read_layers(&mut out, reads, &tracer);
        out.layer(
            "optimizer.join_us",
            tracer.get("optimizer.join").mean_ns() / 1e3,
            "us",
        );
        let names: Vec<String> = st.columns.iter().map(|c| c.name.clone()).collect();
        out.layer(
            "read.snapshot_set_us",
            snapshot_set_us(&st.store, &names),
            "us",
        );
        sharded_layers(&mut out, &st.store, &names);
    }
    out.fact("threads", "{\"reader\": 1, \"writer\": 1}".to_string());
    out.fact(
        "flush_policy",
        "\"none (in-memory ShardedCatalog, locked)\"".to_string(),
    );
    out.spans = tracer;
    out
}
