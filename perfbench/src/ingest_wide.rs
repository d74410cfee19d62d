//! `ingest_wide`: one closed-loop client commits to a wide in-memory
//! `Catalog` and reads back estimates between commits.
//!
//! 256 columns cycle DC/DVO/DADO at 1 KB each. Each commit is 64 ops to
//! one uniformly chosen column, followed by 4 estimates drawn from 1024
//! predicate shapes (4 per column) — twice the 512-slot front cache.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dh_catalog::{AlgoSpec, Catalog, ColumnConfig, ColumnStore, WriteBatch};
use dh_core::{ReadHistogram, UpdateOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    bare_replay, budget, check_cached_estimates, read_delta, read_layers, repeated_setup,
    score_columns, snapshot_set_us, spans_identical, txn_layers, Ctx, Outcome, WINDOW,
};
use crate::inputs::{mix, ColumnStream, Shape};
use crate::stats::Windowed;
use crate::trace::Tracer;

const COLUMNS: usize = 256;
const OPS_PER_COMMIT: usize = 64;
const ESTIMATES_PER_COMMIT: usize = 4;
const SHAPES_PER_COLUMN: usize = 4;
/// Ops each column receives, in one commit, during set-up.
const PRELOAD_OPS: usize = 512;
const SPECS: [AlgoSpec; 3] = [AlgoSpec::Dc, AlgoSpec::Dvo, AlgoSpec::Dado];

struct Column {
    name: String,
    spec: AlgoSpec,
    seed: u64,
    stream: ColumnStream,
    /// Every batch committed to the column, in commit order.
    batches: Vec<Vec<UpdateOp>>,
}

struct State {
    store: Catalog,
    columns: Vec<Column>,
    shapes: Vec<Shape>,
    commits: u64,
}

fn setup(seed: u64) -> State {
    let store = Catalog::new();
    let mut columns = Vec::with_capacity(COLUMNS);
    for c in 0..COLUMNS {
        let name = format!("c{c:03}");
        let spec = SPECS[c % SPECS.len()];
        let col_seed = mix(seed, 1000 + c as u64);
        store
            .register(&name, ColumnConfig::new(spec, budget()).with_seed(col_seed))
            .expect("register column");
        columns.push(Column {
            name,
            spec,
            seed: col_seed,
            stream: ColumnStream::new(col_seed),
            batches: Vec::new(),
        });
    }
    for col in &mut columns {
        let ops = col.stream.next_ops(PRELOAD_OPS);
        store
            .commit(WriteBatch::for_column(col.name.clone(), ops.clone()))
            .expect("preload commit");
        col.batches.push(ops);
    }
    let names: Vec<String> = columns.iter().map(|c| c.name.clone()).collect();
    let shapes = Shape::set(&names, SHAPES_PER_COLUMN, mix(seed, 7));
    for shape in &shapes {
        black_box(shape.on_store(&store).expect("warm-up estimate"));
    }
    State {
        store,
        columns,
        shapes,
        commits: COLUMNS as u64,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, mut st) = repeated_setup(|_| setup(ctx.seed));
    out.e2e("setup_s", setup_s, "s");

    let mut tracer = Tracer::new(ctx.trace);
    let mut rng = StdRng::seed_from_u64(mix(ctx.seed, 11));
    let (reads_before, epoch_before) = (st.store.read_stats(), st.store.epoch());
    let mut ops = 0u64;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let (mut commit_lat, mut est_lat) =
        (Windowed::new(start, WINDOW), Windowed::new(start, WINDOW));
    while Instant::now() < deadline {
        let col = &mut st.columns[rng.gen_range(0..COLUMNS)];
        let batch_ops = col.stream.next_ops(OPS_PER_COMMIT);
        let batch = WriteBatch::for_column(col.name.clone(), batch_ops.clone());
        out.attempted += 1;
        let t = Instant::now();
        let result = st.store.commit(batch);
        tracer.record("txn.commit", commit_lat.record_since(t));
        match result {
            Ok(_) => {
                ops += OPS_PER_COMMIT as u64;
                st.commits += 1;
                col.batches.push(batch_ops);
            }
            Err(_) => out.failed += 1,
        }
        for _ in 0..ESTIMATES_PER_COMMIT {
            let shape = &st.shapes[rng.gen_range(0..st.shapes.len())];
            out.attempted += 1;
            let t = Instant::now();
            let result = shape.on_store(&st.store);
            tracer.record("read.estimate", est_lat.record_since(t));
            match result {
                Ok(v) => {
                    black_box(v);
                }
                Err(_) => out.failed += 1,
            }
        }
    }
    let end = Instant::now();
    let reads = read_delta(reads_before, st.store.read_stats());

    out.latency(
        "commit_p50_us",
        Some("commit_p99_us"),
        &commit_lat.summary(),
        1e3,
        "us",
    );
    let commits_per_s = commit_lat.rate(end);
    out.e2e(
        "ingest_ops_per_s",
        commits_per_s * OPS_PER_COMMIT as f64,
        "1/s",
    );
    out.latency(
        "estimate_p50_ns",
        Some("estimate_p99_ns"),
        &est_lat.summary(),
        1.0,
        "ns",
    );
    out.e2e("estimates_per_s", est_lat.rate(end), "1/s");

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
    let mut core_ns = 0u64;
    let mut core_ops = 0u64;
    let mut mismatch = None;
    for col in &st.columns {
        let (spans, ns) = bare_replay(col.spec, col.seed, None, &col.batches);
        core_ns += ns;
        core_ops += col.batches.iter().map(|b| b.len() as u64).sum::<u64>();
        let served = st
            .store
            .snapshot(&col.name)
            .expect("column registered")
            .spans();
        if !spans_identical(&spans, &served) && mismatch.is_none() {
            mismatch = Some(col.name.clone());
        }
    }
    out.check(
        "served spans bit-identical to a bare replay",
        mismatch.is_none(),
        match &mismatch {
            Some(c) => format!("{c} differs"),
            None => format!("{COLUMNS} columns identical"),
        },
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
        // The replay covers preload batches too; charge the run's
        // commits their share of it.
        let run_core_ns = core_ns as f64 * ops as f64 / core_ops as f64;
        out.layer(
            "core.apply_ns_per_op",
            core_ns as f64 / core_ops as f64,
            "ns",
        );
        txn_layers(
            &mut out,
            tracer.get("txn.commit"),
            run_core_ns as u64,
            epoch - epoch_before,
        );
        read_layers(&mut out, reads, &tracer);
        let names: Vec<String> = st.columns.iter().map(|c| c.name.clone()).collect();
        out.layer(
            "read.snapshot_set_us",
            snapshot_set_us(&st.store, &names),
            "us",
        );
    }
    out.fact("threads", "{\"client\": 1}".to_string());
    out.fact("flush_policy", "\"none (in-memory Catalog)\"".to_string());
    out.spans = tracer;
    out
}
