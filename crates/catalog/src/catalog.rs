//! The multi-column [`Catalog`]: histograms maintained in place while
//! readers estimate off shared snapshots.
//!
//! One `Catalog` owns a histogram per registered column (any mix of
//! [`AlgoSpec`]s) behind a single cell per column, and serves the whole
//! [`ColumnStore`] API: epoch-stamped
//! [`WriteBatch`] commits (atomic across columns),
//! per-column [`Snapshot`]s and consistent multi-column
//! [`SnapshotSet`]s — immutable, `Arc`-shared views
//! that implement [`ReadHistogram`], so estimation (including
//! cross-column joins through `dh_optimizer`) runs off shared, cached
//! state between batches. A commit renders each column it touched once,
//! before it returns; for dynamic specs that is one span copy, while a
//! static spec pays its rebuild there (the cost static histograms owe
//! *somewhere* — choose a dynamic spec for write-hot columns).

use crate::read::ImageKey;
use crate::spec::AlgoSpec;
use crate::store::{ColumnConfig, ColumnStore, SnapshotSet};
use crate::txn::{
    compose_at, BatchTicket, Cell, ColumnStamp, DirectRestore, Registry, RestoreColumn,
    StoreColumn, WriteBatch,
};
use dh_core::{BucketSpan, HistogramCdf, ReadHistogram, UpdateOp};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Errors surfaced by [`ColumnStore`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// The named column has not been registered.
    UnknownColumn(String),
    /// The column name is already taken.
    DuplicateColumn(String),
    /// A shard plan failed validation (zero shards, inverted domain), or
    /// a sharded store was asked to register a column without one.
    InvalidShardPlan(String),
    /// A past epoch was requested (see
    /// [`ColumnStore::snapshot_set_at`]) that the store no longer
    /// retains — it fell out of the time-travel ring, was dropped by an
    /// explicit GC, or predates a recovery. Carries the requested epoch.
    EpochEvicted(u64),
    /// A durability failure surfaced through a [`ColumnStore`] method —
    /// the `DurableStore` decorator could not append to or sync its
    /// epoch changelog. Carries the underlying `dh_wal` error rendered
    /// to a string (the trait's error type predates the durability
    /// layer; `DurableStore::open` returns the fully-typed error).
    Durability(String),
    /// The store is a read replica (a `dh_replica` `Follower`): it
    /// replays mutations from the leader's changelog and accepts none
    /// of its own. Route the write to the leader.
    ReadOnlyReplica,
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            CatalogError::DuplicateColumn(c) => write!(f, "column '{c}' already registered"),
            CatalogError::InvalidShardPlan(why) => write!(f, "invalid shard plan: {why}"),
            CatalogError::EpochEvicted(epoch) => {
                write!(f, "epoch {epoch} is no longer retained for time travel")
            }
            CatalogError::Durability(why) => write!(f, "durability failure: {why}"),
            CatalogError::ReadOnlyReplica => {
                write!(
                    f,
                    "store is a read-only replica; route mutations to the leader"
                )
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// One registered column: a single [`Cell`] plus its publish-consistent
/// stamp.
struct Column {
    spec: AlgoSpec,
    cell: Cell,
    stamp: Mutex<ColumnStamp>,
}

impl StoreColumn for Column {
    type Staged = ();

    fn stage_ops(&self, ticket: &Arc<BatchTicket>, ops: Vec<UpdateOp>) {
        self.cell.stage(ticket.clone(), ops);
    }

    fn stamp(&self) -> &Mutex<ColumnStamp> {
        &self.stamp
    }

    /// Synchronous store: the committing writer applies its own batch
    /// (readers could drain it themselves, but keeping maintenance on
    /// the write path preserves the single-lock cost model).
    fn settle(&self, _staged: &(), epoch: u64) {
        self.cell.drain_to(epoch);
    }

    fn render_at(&self, epoch: u64) -> Result<(String, Vec<BucketSpan>), u64> {
        Ok((self.spec.label(), compose_at([&self.cell], epoch)?))
    }

    fn restore_content(&self, epoch: u64, ops: Vec<UpdateOp>) {
        self.cell.restore(epoch, &ops);
    }
}

/// A thread-safe, multi-column histogram store serving through the
/// [`ColumnStore`] trait — the single-lock-per-column design.
///
/// Writers commit [`WriteBatch`]es (or single-column
/// [`apply`](ColumnStore::apply) calls) from any thread; readers take
/// epoch-pinned [`Snapshot`]s / [`SnapshotSet`]s at any time. Columns
/// are independent for maintenance — histogram application on one column
/// never blocks estimation on another — while the store-wide epoch clock
/// makes every commit atomic across the columns it touches.
#[derive(Default)]
pub struct Catalog {
    registry: Registry<Column>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// `column` rendered afresh from its histogram state at the current
    /// published epoch, through the pinned-render protocol, bypassing
    /// the read front and its cache — the reference a front snapshot can
    /// be checked against (the two must agree bit for bit at one
    /// epoch). Pays a full render per call, so serve reads through
    /// [`ColumnStore::snapshot`]; not counted in
    /// [`ColumnStore::read_stats`].
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    pub fn render_snapshot(&self, column: &str) -> Result<Snapshot, CatalogError> {
        self.registry.render_snapshot(column)
    }
}

impl ColumnStore for Catalog {
    /// Registers `column` with a fresh histogram built per `config`.
    ///
    /// The whole value domain is served from one histogram; a supplied
    /// [`ShardPlan`](crate::ShardPlan) is accepted and ignored (it
    /// describes physical partitioning, not semantics), so generic
    /// callers can register one config against any store.
    fn register(&self, column: &str, config: ColumnConfig) -> Result<(), CatalogError> {
        self.registry.insert(column, || Column {
            spec: config.spec,
            cell: Cell::new(config.spec.build(config.memory, config.seed)),
            stamp: Mutex::new(ColumnStamp::default()),
        })
    }

    fn columns(&self) -> Vec<String> {
        self.registry.names()
    }

    fn contains(&self, column: &str) -> bool {
        self.registry.contains(column)
    }

    fn spec(&self, column: &str) -> Result<AlgoSpec, CatalogError> {
        Ok(self.registry.get(column)?.spec)
    }

    fn commit(&self, batch: WriteBatch) -> Result<u64, CatalogError> {
        self.registry.commit(batch)
    }

    fn apply(&self, column: &str, batch: &[UpdateOp]) -> Result<u64, CatalogError> {
        self.registry.apply(column, batch)
    }

    /// A no-op barrier: this store applies batches on the write path, so
    /// everything accepted is already applied.
    fn flush(&self, column: &str) -> Result<(), CatalogError> {
        self.registry.get(column)?;
        Ok(())
    }

    fn snapshot(&self, column: &str) -> Result<Snapshot, CatalogError> {
        self.registry.snapshot(column)
    }

    fn snapshot_set(&self, columns: &[&str]) -> Result<SnapshotSet, CatalogError> {
        self.registry.snapshot_set(columns)
    }

    fn checkpoint(&self, column: &str) -> Result<u64, CatalogError> {
        self.registry.checkpoint(column)
    }

    fn epoch(&self) -> u64 {
        self.registry.epoch()
    }

    fn estimate_range(&self, column: &str, a: i64, b: i64) -> Result<f64, CatalogError> {
        self.registry.estimate_range(column, a, b)
    }

    fn estimate_eq(&self, column: &str, v: i64) -> Result<f64, CatalogError> {
        self.registry.estimate_eq(column, v)
    }

    fn total_count(&self, column: &str) -> Result<f64, CatalogError> {
        self.registry.total_count(column)
    }

    fn read_stats(&self) -> crate::read::ReadStats {
        self.registry.read_stats()
    }
}

impl DirectRestore for Catalog {
    fn restore_at(&self, epoch: u64, images: Vec<RestoreColumn>) -> Result<(), CatalogError> {
        self.registry.restore_at(epoch, images)
    }
}

impl fmt::Debug for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Catalog")
            .field("columns", &self.columns())
            .field("epoch", &self.epoch())
            .finish()
    }
}

/// One column's rendered state: everything a [`Snapshot`] serves except
/// the epoch it is pinned to. Immutable once built, and shared by every
/// read generation until a publication touches the column again.
struct ColumnImage {
    column: String,
    label: String,
    checkpoint: u64,
    updates: u64,
    total: f64,
    spans: SpanTable,
}

/// Borders per chunk of a [`SpanTable`]: one cache line of `f64`s.
const CHUNK: usize = 8;

/// Fence count up to which [`SpanTable::rank`] scans the fences instead
/// of bisecting them (512 spans; a 1 KB histogram has ~170).
const SCAN_MAX: usize = 64;

/// A column image's spans, sorted by `lo`, laid out for estimation in
/// one allocation: a fence per chunk of [`CHUNK`] spans (the chunk's
/// first left border), every span's left border, then one
/// `(hi, count, mass below lo)` triple per span.
///
/// Most images in a wide store are cold in the CPU caches — no commit
/// has touched them lately — so an estimate's cost is its chain of
/// dependent memory reads. A bisection over [`HistogramCdf`]'s spans
/// waits on one read per level. Here an operand costs three: the fences
/// (a few contiguous lines, loaded independently), one chunk of borders,
/// one triple. On a hot image it is as fast as the bisection. Every
/// estimate returns the bits [`HistogramCdf`] returns for the same spans.
struct SpanTable {
    len: usize,
    words: Box<[f64]>,
}

impl SpanTable {
    fn new(cdf: &HistogramCdf) -> Self {
        let spans = cdf.spans();
        let len = spans.len();
        let mut words = Vec::with_capacity(len.div_ceil(CHUNK) + 4 * len);
        words.extend(spans.iter().step_by(CHUNK).map(|s| s.lo));
        words.extend(spans.iter().map(|s| s.lo));
        // Accumulated exactly as `HistogramCdf` does.
        let mut below = 0.0;
        for s in spans {
            words.extend([s.hi, s.count, below]);
            below += s.count;
        }
        Self {
            len,
            words: words.into(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn fences(&self) -> &[f64] {
        &self.words[..self.len.div_ceil(CHUNK)]
    }

    fn borders(&self) -> &[f64] {
        &self.words[self.fences().len()..][..self.len]
    }

    /// Span `i`'s `(hi, count, mass below lo)`.
    fn triple(&self, i: usize) -> &[f64] {
        &self.words[self.fences().len() + self.len + 3 * i..][..3]
    }

    fn span(&self, i: usize) -> BucketSpan {
        let t = self.triple(i);
        BucketSpan {
            lo: self.borders()[i],
            hi: t[0],
            count: t[1],
        }
    }

    fn iter(&self) -> impl Iterator<Item = BucketSpan> + '_ {
        (0..self.len).map(|i| self.span(i))
    }

    /// How many spans start below `x`.
    fn rank(&self, x: f64) -> usize {
        let fences = self.fences();
        // Chunks that start below `x`; every border before the last of
        // them does too, and every border after it does not.
        let chunks = if fences.len() > SCAN_MAX {
            fences.partition_point(|&f| f < x)
        } else {
            fences.iter().map(|&f| usize::from(f < x)).sum()
        };
        let Some(last) = chunks.checked_sub(1) else {
            return 0;
        };
        let start = CHUNK * last;
        let chunk = &self.borders()[start..self.len.min(start + CHUNK)];
        start + chunk.iter().map(|&b| usize::from(b < x)).sum::<usize>()
    }

    /// [`HistogramCdf::mass_below`].
    fn mass_below(&self, x: f64) -> f64 {
        let i = self.rank(x);
        if i == 0 {
            return 0.0;
        }
        self.triple(i - 1)[2] + self.span(i - 1).mass_below(x)
    }

    /// [`HistogramCdf::mass_in`].
    fn mass_in(&self, a: f64, b: f64) -> f64 {
        (self.mass_below(b) - self.mass_below(a)).max(0.0)
    }
}

/// A cheap, immutable view of one column's histogram, pinned to a
/// published epoch.
///
/// [`ColumnStore::snapshot`] always pins the epoch current at the call
/// — but that is a property of how the snapshot was *obtained*, not of
/// the type: a snapshot held across later commits keeps serving its
/// epoch, and stores with a retention ring (the `DurableStore`
/// decorator) hand out snapshots of *past* epochs through
/// [`ColumnStore::snapshot_set_at`] until retention evicts them
/// ([`CatalogError::EpochEvicted`]).
///
/// Cloning is one `Arc` bump; the snapshot implements [`ReadHistogram`]
/// (with a precomputed span table, so estimates don't re-render spans)
/// and can be fed anywhere a histogram is expected — including
/// `dh_optimizer`'s join estimators, which is how mixed-algorithm joins
/// run straight off a catalog.
#[derive(Clone)]
pub struct Snapshot {
    image: Arc<ColumnImage>,
    /// Held by value so a column no commit touched joins a newer
    /// generation without copying its image.
    epoch: u64,
    /// The image's front-cache identity, copied out of it so a cache hit
    /// reads no image memory.
    key: ImageKey,
}

impl Snapshot {
    /// Assembles a snapshot from rendered spans (shared by every
    /// [`ColumnStore`] implementation). `key` is the image's front-cache
    /// identity ([`ImageKey::default`] for images no store renders).
    pub(crate) fn from_parts(
        key: ImageKey,
        column: String,
        label: String,
        epoch: u64,
        checkpoint: u64,
        updates: u64,
        spans: Vec<BucketSpan>,
    ) -> Self {
        let total = spans.iter().map(|s| s.count).sum();
        Snapshot {
            image: Arc::new(ColumnImage {
                column,
                label,
                checkpoint,
                updates,
                total,
                spans: SpanTable::new(&HistogramCdf::from_spans(spans)),
            }),
            epoch,
            key,
        }
    }

    /// The same image pinned to `epoch` — how a column that no
    /// publication touched joins a newer read generation.
    pub(crate) fn with_epoch(&self, epoch: u64) -> Snapshot {
        Snapshot {
            image: Arc::clone(&self.image),
            epoch,
            key: self.key,
        }
    }

    /// The image's front-cache identity.
    pub(crate) fn key(&self) -> ImageKey {
        self.key
    }

    /// The column this snapshot was taken from.
    pub fn column(&self) -> &str {
        &self.image.column
    }

    /// The algorithm label of the owning column (paper legend string).
    pub fn label(&self) -> &str {
        &self.image.label
    }

    /// The store epoch this snapshot is pinned to: it contains exactly
    /// the batches published at or before this epoch — whole batches
    /// only. Snapshots of a [`SnapshotSet`] all
    /// share one epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The column's accepted-batch count as of the pinned epoch (stamped
    /// under the publication gate, so it counts exactly the batches this
    /// snapshot contains).
    pub fn checkpoint(&self) -> u64 {
        self.image.checkpoint
    }

    /// The column's accepted-update count as of the pinned epoch.
    pub fn updates(&self) -> u64 {
        self.image.updates
    }

    /// Whether two snapshots share the same underlying image (clones of
    /// one snapshot always do, and so do the snapshots of a column across
    /// generations no publication to it separates).
    #[cfg(test)]
    pub(crate) fn same_rendering(&self, other: &Snapshot) -> bool {
        Arc::ptr_eq(&self.image, &other.image)
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("column", &self.image.column)
            .field("label", &self.image.label)
            .field("epoch", &self.epoch)
            .field("checkpoint", &self.image.checkpoint)
            .field("buckets", &self.image.spans.len())
            .finish()
    }
}

impl ReadHistogram for Snapshot {
    fn spans(&self) -> Vec<BucketSpan> {
        self.image.spans.iter().collect()
    }

    fn for_each_span(&self, f: &mut dyn FnMut(&BucketSpan)) {
        for s in self.image.spans.iter() {
            f(&s);
        }
    }

    fn total_count(&self) -> f64 {
        self.image.total
    }

    fn num_buckets(&self) -> usize {
        self.image.spans.len()
    }

    fn cdf(&self) -> HistogramCdf {
        HistogramCdf::from_spans(self.spans())
    }

    fn estimate_less_than(&self, x: f64) -> f64 {
        self.image.spans.mass_below(x)
    }

    fn estimate_le(&self, v: i64) -> f64 {
        self.image.spans.mass_below(v as f64 + 1.0)
    }

    fn estimate_range(&self, a: i64, b: i64) -> f64 {
        if a > b {
            return 0.0;
        }
        self.image.spans.mass_in(a as f64, b as f64 + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dh_core::MemoryBudget;

    fn inserts(range: std::ops::Range<i64>) -> Vec<UpdateOp> {
        range.map(UpdateOp::Insert).collect()
    }

    fn config() -> ColumnConfig {
        ColumnConfig::new(AlgoSpec::Dado, MemoryBudget::from_kb(1.0)).with_seed(1)
    }

    #[test]
    fn register_apply_snapshot_round_trip() {
        let cat = Catalog::new();
        cat.register("a", config()).unwrap();
        assert_eq!(
            cat.register("a", config()),
            Err(CatalogError::DuplicateColumn("a".into()))
        );
        let cp = cat.apply("a", &inserts(0..5000)).unwrap();
        assert_eq!(cp, 1);
        let snap = cat.snapshot("a").unwrap();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.checkpoint(), 1);
        assert_eq!(snap.updates(), 5000);
        assert_eq!(snap.column(), "a");
        assert_eq!(snap.label(), "DADO");
        assert!((snap.total_count() - 5000.0).abs() < 1e-9);
        assert!((snap.estimate_range(0, 4999) - 5000.0).abs() / 5000.0 < 0.02);
    }

    #[test]
    fn snapshots_are_cached_and_invalidate_on_write() {
        let cat = Catalog::new();
        cat.register(
            "a",
            ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(0.5)).with_seed(1),
        )
        .unwrap();
        cat.apply("a", &inserts(0..1000)).unwrap();
        let s1 = cat.snapshot("a").unwrap();
        let s2 = cat.snapshot("a").unwrap();
        assert!(s1.same_rendering(&s2), "cached between writes");
        cat.apply("a", &inserts(0..10)).unwrap();
        let s3 = cat.snapshot("a").unwrap();
        assert!(!s1.same_rendering(&s3), "invalidated by write");
        assert_eq!(s3.checkpoint(), 2);
        assert_eq!(s3.epoch(), 2);
        // The old snapshot still reads consistently at its epoch.
        assert!((s1.total_count() - 1000.0).abs() < 1e-9);
        assert!((s3.total_count() - 1010.0).abs() < 1e-9);
    }

    #[test]
    fn cross_column_commits_are_atomic_and_epoch_stamped() {
        let cat = Catalog::new();
        cat.register("a", config()).unwrap();
        cat.register("b", config()).unwrap();
        let mut batch = WriteBatch::new();
        batch.extend("a", inserts(0..100));
        batch.extend("b", inserts(0..200));
        let epoch = cat.commit(batch).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(cat.epoch(), 1);
        let set = cat.snapshot_set(&["a", "b"]).unwrap();
        assert_eq!(set.epoch(), 1);
        assert_eq!(set.len(), 2);
        assert_eq!(set.get("a").unwrap().epoch(), 1);
        assert_eq!(set.get("b").unwrap().epoch(), 1);
        assert!((set.get("a").unwrap().total_count() - 100.0).abs() < 1e-9);
        assert!((set.get("b").unwrap().total_count() - 200.0).abs() < 1e-9);
        assert_eq!(set.columns().collect::<Vec<_>>(), ["a", "b"]);
    }

    #[test]
    fn commit_rejects_unknown_columns_without_side_effects() {
        let cat = Catalog::new();
        cat.register("a", config()).unwrap();
        let mut batch = WriteBatch::new();
        batch.extend("a", inserts(0..50));
        batch.insert("ghost", 1);
        assert_eq!(
            cat.commit(batch).unwrap_err(),
            CatalogError::UnknownColumn("ghost".into())
        );
        // Nothing was staged or published.
        assert_eq!(cat.epoch(), 0);
        assert_eq!(cat.checkpoint("a").unwrap(), 0);
        assert_eq!(cat.snapshot("a").unwrap().total_count(), 0.0);
    }

    #[test]
    fn unknown_columns_error() {
        let cat = Catalog::new();
        assert_eq!(
            cat.apply("ghost", &[]).unwrap_err(),
            CatalogError::UnknownColumn("ghost".into())
        );
        assert!(cat.snapshot("ghost").is_err());
        assert!(cat.snapshot_set(&["ghost"]).is_err());
        assert!(cat.estimate_eq("ghost", 1).is_err());
        assert!(cat.flush("ghost").is_err());
        assert!(!cat.contains("ghost"));
        assert!(cat.is_empty());
        let msg = CatalogError::UnknownColumn("ghost".into()).to_string();
        assert!(msg.contains("ghost"));
    }

    #[test]
    fn mixed_specs_per_column() {
        let cat = Catalog::new();
        let memory = MemoryBudget::from_kb(0.5);
        for (name, spec) in [
            ("dc", AlgoSpec::Dc),
            ("svo", AlgoSpec::VOptimal),
            ("ac", AlgoSpec::Ac { disk_factor: 20 }),
        ] {
            cat.register(name, ColumnConfig::new(spec, memory).with_seed(7))
                .unwrap();
            cat.apply(name, &inserts(0..2000)).unwrap();
        }
        assert_eq!(cat.columns(), ["ac", "dc", "svo"]);
        assert_eq!(cat.len(), 3);
        assert_eq!(cat.spec("svo").unwrap(), AlgoSpec::VOptimal);
        for name in ["dc", "svo", "ac"] {
            let est = cat.estimate_range(name, 0, 1999).unwrap();
            assert!((est - 2000.0).abs() / 2000.0 < 0.05, "{name}: {est}");
            assert_eq!(cat.checkpoint(name).unwrap(), 1);
        }
        // Three applies on three columns: three store epochs.
        assert_eq!(cat.epoch(), 3);
    }

    /// Sorted, non-overlapping spans with gaps, unit and zero widths,
    /// fractional borders and empty buckets.
    fn spans(n: usize, mut seed: u64) -> Vec<BucketSpan> {
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut lo = -50.0;
        (0..n)
            .map(|_| {
                lo += (next() % 3) as f64 * 0.5;
                let width = [0.0, 1.0, 2.5, 7.0][(next() % 4) as usize];
                let span = BucketSpan::new(lo, lo + width, (next() % 40) as f64 / 3.0);
                lo += width;
                span
            })
            .collect()
    }

    #[test]
    fn span_table_estimates_match_the_histogram_cdf_bit_for_bit() {
        // Partial and whole chunks, both sides of `SCAN_MAX` fences, and
        // the empty table.
        for n in [
            0,
            1,
            2,
            7,
            8,
            9,
            170,
            CHUNK * SCAN_MAX,
            CHUNK * SCAN_MAX + 1,
            900,
        ] {
            let cdf = HistogramCdf::from_spans(spans(n, 0x9e37_79b9 + n as u64));
            let table = SpanTable::new(&cdf);
            assert_eq!(table.len(), n);
            assert_eq!(table.iter().collect::<Vec<_>>(), cdf.spans());
            let borders: Vec<f64> = cdf.spans().iter().flat_map(|s| [s.lo, s.hi]).collect();
            let mut points: Vec<f64> = vec![f64::NEG_INFINITY, -1e9, 1e9, f64::INFINITY];
            for b in borders {
                points.extend([b - 0.25, b, b + 0.25]);
            }
            for (k, &x) in points.iter().enumerate() {
                assert_eq!(
                    table.mass_below(x).to_bits(),
                    cdf.mass_below(x).to_bits(),
                    "n {n}, x {x}"
                );
                let y = points[(k * 7 + 3) % points.len()];
                assert_eq!(
                    table.mass_in(x, y).to_bits(),
                    cdf.mass_in(x, y).to_bits(),
                    "n {n}, [{x}, {y})"
                );
            }
        }
    }

    #[test]
    fn snapshot_spans_and_cdf_round_trip() {
        // Out of order, but equal borders keep their relative order (a
        // stable sort restores it).
        let mut shuffled = spans(40, 7);
        shuffled.rotate_left(13);
        let snap = Snapshot::from_parts(
            ImageKey::default(),
            "a".into(),
            "DC".into(),
            1,
            1,
            1,
            shuffled.clone(),
        );
        let cdf = HistogramCdf::from_spans(shuffled);
        assert_eq!(snap.num_buckets(), 40);
        assert_eq!(snap.spans(), cdf.spans());
        assert_eq!(snap.cdf(), cdf);
        let mut visited = Vec::new();
        snap.for_each_span(&mut |s| visited.push(*s));
        assert_eq!(visited, cdf.spans());
        assert_eq!(
            snap.estimate_range(-10, 30).to_bits(),
            cdf.mass_in(-10.0, 31.0).to_bits()
        );
    }

    #[test]
    fn empty_batches_advance_checkpoints() {
        let cat = Catalog::new();
        cat.register(
            "a",
            ColumnConfig::new(AlgoSpec::EquiDepth, MemoryBudget::from_kb(0.25)),
        )
        .unwrap();
        assert_eq!(cat.apply("a", &[]).unwrap(), 1);
        assert_eq!(cat.apply("a", &[]).unwrap(), 2);
        assert_eq!(cat.snapshot("a").unwrap().num_buckets(), 0);
        assert_eq!(cat.snapshot("a").unwrap().epoch(), 2);
    }
}
