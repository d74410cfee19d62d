//! `wire_replicated`: one closed-loop client writes to a durable leader
//! over the site wire protocol, waits for a follower to serve each
//! write, and composes a global read over three sites every 8th commit.
//!
//! The leader is a `SiteServer` over a `DurableStore` of a 4-shard
//! `ShardedCatalog` (DADO at 1 KB) with `SyncPolicy::PerCommit` and a
//! checkpoint every 256 epochs. Each commit is 16 ops; after it the
//! client polls a `Follower` on the leader's directory until that epoch
//! is served, then reads 4 estimates from the follower. The global read
//! composes {the remote leader, two `LocalSite`s preloaded with 50k
//! inserted points each}. At the end the leader is dropped and reopened.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dh_catalog::{
    AlgoSpec, Catalog, ColumnConfig, ColumnStore, DurableOptions, DurableStore, ReadStats,
    ShardPlan, ShardedCatalog, StoreKind, WriteBatch,
};
use dh_core::{ReadHistogram, UpdateOp};
use dh_distributed::superimpose;
use dh_replica::{Follower, PollStatus};
use dh_site::{GlobalCatalog, LocalSite, RemoteSite, Site, SiteServer};
use dh_wal::segment::checkpoint_epochs;
use dh_wal::{SyncPolicy, TailReader, TailStatus, Wal, WalRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    bare_replay, budget, check_cached_estimates, combine_reads, mass_close, read_delta,
    read_layers, repeated_setup, score_columns, sharded_layers, snapshot_set_us, spans_identical,
    txn_layers, Ctx, Outcome, WINDOW,
};
use crate::inputs::{mix, ColumnStream, Shape, DOMAIN};
use crate::stats::{median, Windowed};
use crate::trace::Tracer;

const COLUMN: &str = "w";
const SHARDS: usize = 4;
const OPS_PER_COMMIT: usize = 16;
const ESTIMATES_PER_COMMIT: usize = 4;
const GLOBAL_READ_EVERY: u64 = 8;
const SHAPES: usize = 64;
/// Points inserted into each local site during set-up.
const LOCAL_POINTS: usize = 50_000;
/// How long a commit may take to become visible before it counts as
/// failed.
const VISIBILITY_TIMEOUT: Duration = Duration::from_secs(5);
/// Batches the traced run replays through in-process stores.
const REPLAY_BATCHES: usize = 512;
/// Repeats of each quiet-system probe in the traced run.
const PROBES: usize = 64;

fn options() -> DurableOptions {
    DurableOptions {
        sync: SyncPolicy::PerCommit,
        ..DurableOptions::default()
    }
}

fn plan() -> ShardPlan {
    ShardPlan::new(DOMAIN.0, DOMAIN.1, SHARDS).expect("valid shard plan")
}

fn config(seed: u64) -> ColumnConfig {
    ColumnConfig::new(AlgoSpec::Dado, budget())
        .with_seed(seed)
        .with_plan(plan())
}

struct State {
    dir: PathBuf,
    store: Arc<DurableStore>,
    server: SiteServer,
    leader: Arc<RemoteSite>,
    locals: Vec<Arc<LocalSite>>,
    global: GlobalCatalog,
    follower: Follower,
    stream: ColumnStream,
    shapes: Vec<Shape>,
    col_seed: u64,
}

fn setup(ctx: &Ctx, i: usize) -> State {
    let dir = ctx.work.join(format!("wire-{i}"));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(
        DurableStore::open(dir.join("leader"), StoreKind::Sharded, options())
            .expect("open leader store"),
    );
    let server = SiteServer::spawn(Arc::clone(&store)).expect("spawn site server");
    let leader = Arc::new(RemoteSite::new("leader", server.addr()));
    let col_seed = mix(ctx.seed, 3000);
    leader
        .register(COLUMN, config(col_seed))
        .expect("register over the wire");
    let locals: Vec<Arc<LocalSite>> = (1..=2u64)
        .map(|s| {
            let local = Catalog::new();
            let seed = mix(ctx.seed, 3000 + s);
            local
                .register(
                    COLUMN,
                    ColumnConfig::new(AlgoSpec::Dado, budget()).with_seed(seed),
                )
                .expect("register local column");
            let mut stream = ColumnStream::new(seed);
            let mut inserted = 0;
            while inserted < LOCAL_POINTS {
                let ops = stream.next_ops(1024);
                inserted += ops
                    .iter()
                    .filter(|op| matches!(op, UpdateOp::Insert(_)))
                    .count();
                local
                    .commit(WriteBatch::for_column(COLUMN, ops))
                    .expect("preload local site");
            }
            Arc::new(LocalSite::new(format!("local{s}"), Box::new(local)))
        })
        .collect();
    let mut members: Vec<Arc<dyn Site>> = vec![leader.clone()];
    members.extend(locals.iter().map(|l| l.clone() as Arc<dyn Site>));
    let global = GlobalCatalog::new(members);
    let follower = Follower::open(dir.join("leader"), StoreKind::Sharded).expect("open follower");
    follower.poll().expect("follower picks up the registration");
    let shapes = Shape::set(&[COLUMN.to_string()], SHAPES, mix(ctx.seed, 17));
    for shape in &shapes {
        black_box(shape.on_store(&follower).expect("warm-up estimate"));
    }
    black_box(global.total_count(COLUMN).expect("warm-up global read"));
    State {
        dir,
        store,
        server,
        leader,
        locals,
        global,
        follower,
        stream: ColumnStream::new(col_seed),
        shapes,
        col_seed,
    }
}

/// Follower read counters summed across serving-state swaps (a
/// checkpoint restore starts a fresh store whose counters restart).
#[derive(Default)]
struct FollowerReads {
    banked: ReadStats,
    last: ReadStats,
}

impl FollowerReads {
    fn observe(&mut self, now: ReadStats) {
        if now.fast_reads < self.last.fast_reads || now.cache_misses < self.last.cache_misses {
            self.banked = sum(self.banked, self.last);
        }
        self.last = now;
    }

    fn total(&self) -> ReadStats {
        sum(self.banked, self.last)
    }
}

fn sum(a: ReadStats, b: ReadStats) -> ReadStats {
    combine_reads(a, b, |x, y| x + y)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, mut st) = repeated_setup(|i| setup(ctx, i));
    out.e2e("setup_s", setup_s, "s");

    let mut tracer = Tracer::new(ctx.trace);
    let mut rng = StdRng::seed_from_u64(mix(ctx.seed, 19));
    let mut reads = FollowerReads::default();
    reads.observe(st.follower.read_stats());
    let reads_before = reads.total();
    let global_before = st.global.read_stats();
    let epoch_before = st.store.epoch();
    let mut batches: Vec<Vec<UpdateOp>> = Vec::new();
    let (mut restores, mut lag_max, mut polls) = (0u64, 0u64, 0u64);
    let mut global_reads = 0u64;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let mut commit_lat = Windowed::new(start, WINDOW);
    let mut visible_lat = Windowed::new(start, WINDOW);
    let mut est_lat = Windowed::new(start, WINDOW);
    let mut global_lat = Windowed::new(start, WINDOW);
    while Instant::now() < deadline {
        let ops = st.stream.next_ops(OPS_PER_COMMIT);
        out.attempted += 1;
        let t = Instant::now();
        let result = st
            .leader
            .commit(WriteBatch::for_column(COLUMN, ops.clone()));
        tracer.record("site.commit", commit_lat.record_since(t));
        let Ok(epoch) = result else {
            out.failed += 1;
            continue;
        };
        batches.push(ops);
        // Let the site server's accept thread run now, as it would on a
        // CPU of its own. Without this, a server thread that shares the
        // client's CPU only notices the closed connection when the client
        // next blocks, finds the next request already queued and skips its
        // idle sleep: a run then locks into a fast or a slow mode
        // depending on where the scheduler placed the two threads.
        std::thread::yield_now();

        // Visibility: poll the follower until it serves `epoch`.
        out.attempted += 1;
        let visible = loop {
            polls += 1;
            let tp = Instant::now();
            let polled = st.follower.poll();
            tracer.record("replica.poll", tp.elapsed().as_nanos() as u64);
            match polled {
                Ok(report) if report.status == PollStatus::Restored => restores += 1,
                Ok(_) => {}
                Err(_) => break false,
            }
            lag_max = lag_max.max(st.follower.lag_epochs());
            if st.follower.epoch() >= epoch {
                break true;
            }
            if t.elapsed() > VISIBILITY_TIMEOUT {
                break false;
            }
        };
        visible_lat.record_since(t);
        if !visible {
            out.failed += 1;
        }

        for _ in 0..ESTIMATES_PER_COMMIT {
            let shape = &st.shapes[rng.gen_range(0..st.shapes.len())];
            out.attempted += 1;
            let t = Instant::now();
            let result = shape.on_store(&st.follower);
            tracer.record("read.estimate", est_lat.record_since(t));
            match result {
                Ok(v) => {
                    black_box(v);
                }
                Err(_) => out.failed += 1,
            }
        }
        reads.observe(st.follower.read_stats());

        if batches.len() as u64 % GLOBAL_READ_EVERY == 0 {
            let a = rng.gen_range(DOMAIN.0..DOMAIN.1);
            let b = rng.gen_range(a..=DOMAIN.1);
            out.attempted += 1;
            let t = Instant::now();
            let result = st.global.estimate_range(COLUMN, a, b);
            tracer.record("site.global_read", global_lat.record_since(t));
            match result {
                Ok(v) => {
                    black_box(v);
                    global_reads += 1;
                }
                Err(_) => out.failed += 1,
            }
        }
    }
    let end = Instant::now();
    let ops = (batches.len() * OPS_PER_COMMIT) as u64;
    let follower_reads = read_delta(reads_before, reads.total());
    let global_reads_stats = read_delta(global_before, st.global.read_stats());

    out.latency(
        "commit_p50_us",
        Some("commit_p99_us"),
        &commit_lat.summary(),
        1e3,
        "us",
    );
    out.e2e(
        "ingest_ops_per_s",
        commit_lat.rate(end) * OPS_PER_COMMIT as f64,
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
    out.latency(
        "visible_p50_us",
        Some("visible_p99_us"),
        &visible_lat.summary(),
        1e3,
        "us",
    );
    out.latency(
        "global_read_p50_us",
        Some("global_read_p99_us"),
        &global_lat.summary(),
        1e3,
        "us",
    );

    // Correctness on the live system.
    let epoch = st.store.epoch();
    out.check(
        "epoch == commits",
        epoch == batches.len() as u64,
        format!("epoch {epoch}, commits {}", batches.len()),
    );
    let slow = reads.total().slow_renders + st.store.read_stats().slow_renders;
    out.check(
        "slow_renders == 0",
        slow == 0,
        format!("slow_renders {slow}"),
    );
    out.check(
        "site_failures == degraded_reads == 0",
        global_reads_stats.site_failures == 0 && global_reads_stats.degraded_reads == 0,
        format!(
            "site_failures {}, degraded_reads {}",
            global_reads_stats.site_failures, global_reads_stats.degraded_reads
        ),
    );
    let truths = vec![(COLUMN.to_string(), st.stream.truth())];
    let ks = score_columns(&mut out, st.store.as_ref(), &truths);
    out.e2e("ks_error", ks, "ks");

    let leader_total = st.store.total_count(COLUMN).expect("leader column");
    let leader_spans = st.store.snapshot(COLUMN).expect("leader column").spans();
    let member_sum = leader_total
        + st.locals
            .iter()
            .map(|l| l.store().total_count(COLUMN).expect("local column"))
            .sum::<f64>();
    let global_total = st.global.total_count(COLUMN).expect("global read");
    out.check(
        "global total == sum of member totals",
        mass_close(global_total, member_sum),
        format!("global {global_total}, members {member_sum}"),
    );
    let follower_total = st.follower.total_count(COLUMN).expect("follower column");
    out.check(
        "follower mass == leader mass",
        st.follower.epoch() == epoch && mass_close(follower_total, leader_total),
        format!(
            "follower {follower_total} at epoch {}, leader {leader_total} at epoch {epoch}",
            st.follower.epoch()
        ),
    );
    if restores == 0 {
        let spans = st
            .follower
            .snapshot(COLUMN)
            .expect("follower column")
            .spans();
        out.check(
            "follower spans bit-identical (no restore)",
            spans_identical(&spans, &leader_spans),
            "pure-log history",
        );
    }
    check_cached_estimates(&mut out, &st.follower, &st.shapes);

    if ctx.trace {
        wire_layers(&mut out, &st, &batches);
        out.layer(
            "replica.poll_us",
            tracer.get("replica.poll").mean_ns() / 1e3,
            "us",
        );
        out.layer(
            "replica.polls_per_commit",
            polls as f64 / batches.len() as f64,
            "ratio",
        );
        out.layer("replica.restores", restores as f64, "count");
        out.layer("replica.lag_epochs_max", lag_max as f64, "epochs");
        out.layer(
            "site.commit_us",
            tracer.get("site.commit").mean_ns() / 1e3,
            "us",
        );
        out.layer(
            "site.requests_per_global_read",
            global_reads_stats.site_probes as f64 / global_reads.max(1) as f64,
            "ratio",
        );
        out.layer(
            "site.failures",
            global_reads_stats.site_failures as f64,
            "count",
        );
        out.layer(
            "durable.checkpoints",
            (epoch / 256 - epoch_before / 256) as f64,
            "count",
        );
        sharded_layers(&mut out, st.store.as_ref(), &[COLUMN.to_string()]);
        read_layers(&mut out, follower_reads, &tracer);
        out.layer(
            "read.snapshot_set_us",
            snapshot_set_us(&st.follower, &[COLUMN.to_string()]),
            "us",
        );
    }

    // Recovery: stop serving, drop the leader, reopen its directory.
    let leader_dir = st.dir.join("leader");
    let State {
        dir,
        store,
        mut server,
        leader,
        locals,
        global,
        follower,
        ..
    } = st;
    drop((global, leader, locals, follower));
    server.stop();
    drop(server);
    drop(store);
    let log_bytes = dir_bytes(&leader_dir);
    out.e2e(
        "log_bytes_per_op",
        log_bytes as f64 / ops.max(1) as f64,
        "B",
    );
    let t = Instant::now();
    let recovered = DurableStore::open(&leader_dir, StoreKind::Sharded, options());
    out.e2e("recovery_s", t.elapsed().as_secs_f64(), "s");
    match recovered {
        Ok(recovered) => {
            let total = recovered.total_count(COLUMN).expect("recovered column");
            out.check(
                "recovered mass == leader mass",
                recovered.epoch() == epoch && mass_close(total, leader_total),
                format!(
                    "recovered {total} at epoch {}, leader {leader_total} at epoch {epoch}",
                    recovered.epoch()
                ),
            );
            let checkpoints = checkpoint_epochs(&leader_dir).map_or(0, |c| c.len());
            if checkpoints == 0 {
                let spans = recovered
                    .snapshot(COLUMN)
                    .expect("recovered column")
                    .spans();
                out.check(
                    "recovered spans bit-identical (no checkpoint)",
                    spans_identical(&spans, &leader_spans),
                    "pure-log history",
                );
            }
        }
        Err(e) => out.check("leader reopens", false, e.to_string()),
    }
    let _ = std::fs::remove_dir_all(dir);

    out.fact("threads", "{\"client\": 1, \"site_server\": 1}".to_string());
    out.fact(
        "flush_policy",
        "\"PerCommit fsync, checkpoint every 256 epochs\"".to_string(),
    );
    out.spans = tracer;
    out
}

/// The traced run's layer probes: quiet-system site and composition
/// timings, an in-process durable/commit-pipeline replay of the run's
/// first batches, and a WAL replay of the leader's surviving log.
fn wire_layers(out: &mut Outcome, st: &State, batches: &[Vec<UpdateOp>]) {
    let time_us = |f: &mut dyn FnMut()| {
        let times: Vec<f64> = (0..PROBES)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        median(&times)
    };
    out.layer(
        "site.rtt_us",
        time_us(&mut || {
            black_box(st.leader.epoch().expect("leader epoch"));
        }),
        "us",
    );
    out.layer(
        "site.spans_us",
        time_us(&mut || {
            black_box(
                st.leader
                    .snapshot_spans(COLUMN, None)
                    .expect("leader spans"),
            );
        }),
        "us",
    );
    let mut pulled = vec![
        st.leader
            .snapshot_spans(COLUMN, None)
            .expect("leader spans")
            .spans,
    ];
    for local in &st.locals {
        pulled.push(
            local
                .snapshot_spans(COLUMN, None)
                .expect("local spans")
                .spans,
        );
    }
    out.layer(
        "distributed.superimpose_us",
        time_us(&mut || {
            black_box(superimpose(&pulled));
        }),
        "us",
    );

    // The same batches through an in-process durable store and through
    // its inner store alone: the difference is the durability layer.
    let replay = &batches[..batches.len().min(REPLAY_BATCHES)];
    let replay_dir = st.dir.join("replay");
    let durable =
        DurableStore::open(&replay_dir, StoreKind::Sharded, options()).expect("open replay store");
    let inner = ShardedCatalog::new();
    durable
        .register(COLUMN, config(st.col_seed))
        .expect("register");
    inner
        .register(COLUMN, config(st.col_seed))
        .expect("register");
    let commit = |store: &dyn ColumnStore, tracer: &mut Tracer, name: &'static str| {
        for ops in replay {
            let batch = WriteBatch::for_column(COLUMN, ops.clone());
            tracer.time(name, || store.commit(batch).expect("replay commit"));
        }
    };
    let mut tracer = Tracer::new(true);
    commit(&durable, &mut tracer, "durable.commit");
    commit(&inner, &mut tracer, "txn.commit");
    let (durable_commit, txn_commit) = (tracer.get("durable.commit"), tracer.get("txn.commit"));
    out.layer("durable.commit_us", durable_commit.mean_ns() / 1e3, "us");
    out.layer(
        "durable.self_us",
        (durable_commit.mean_ns() - txn_commit.mean_ns()) / 1e3,
        "us",
    );
    // A checkpoint needs a new epoch: a second checkpoint at the same
    // epoch fails (its segment rotation finds the segment it would
    // create already there).
    let checkpoint_ms: Vec<f64> = (0..4)
        .map(|i| {
            let mut batch = WriteBatch::new();
            batch.insert(COLUMN, i);
            durable.commit(batch).expect("commit before checkpoint");
            let start = Instant::now();
            durable.checkpoint_now().expect("checkpoint");
            start.elapsed().as_nanos() as f64 / 1e6
        })
        .collect();
    out.layer("durable.checkpoint_ms", median(&checkpoint_ms), "ms");
    let (_, core_ns) = bare_replay(AlgoSpec::Dado, st.col_seed, Some(plan()), replay);
    let core_ops: usize = replay.iter().map(Vec::len).sum();
    out.layer(
        "core.apply_ns_per_op",
        core_ns as f64 / core_ops as f64,
        "ns",
    );
    txn_layers(out, txn_commit, core_ns, inner.epoch());
    drop(durable);

    // The leader's surviving records, re-appended to a fresh log.
    let mut reader = TailReader::new(st.dir.join("leader"), StoreKind::Sharded.tag());
    if let Some(&oldest) = checkpoint_epochs(&st.dir.join("leader"))
        .expect("list checkpoints")
        .first()
    {
        reader.seek(oldest);
    }
    let mut records: Vec<WalRecord> = Vec::new();
    loop {
        let polled = reader.poll().expect("tail the leader log");
        let done = polled.records.is_empty() || polled.status == TailStatus::Lost;
        records.extend(polled.records);
        if done {
            break;
        }
    }
    let wal_dir = st.dir.join("wal-replay");
    let (mut wal, _) =
        Wal::open(&wal_dir, StoreKind::Sharded.tag(), SyncPolicy::Off).expect("open replay log");
    let (mut append_ns, mut sync_ns, mut fsyncs, mut ops) = (0u64, 0u64, 0u64, 0u64);
    for record in &records {
        if let WalRecord::Commit { columns, .. } = record {
            ops += columns.iter().map(|(_, o)| o.len() as u64).sum::<u64>();
        }
        let start = Instant::now();
        wal.append(record).expect("append");
        append_ns += start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        wal.sync().expect("fsync");
        sync_ns += start.elapsed().as_nanos() as u64;
        fsyncs += 1;
    }
    let n = records.len().max(1) as f64;
    out.layer("wal.append_us", append_ns as f64 / n / 1e3, "us");
    out.layer("wal.sync_us", sync_ns as f64 / n / 1e3, "us");
    out.layer("wal.fsyncs", fsyncs as f64, "count");
    out.layer(
        "wal.bytes_per_op",
        dir_bytes(&wal_dir) as f64 / ops.max(1) as f64,
        "B",
    );
}
