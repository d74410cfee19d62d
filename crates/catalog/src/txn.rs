//! Transactional, epoch-stamped writes: the machinery that lets every
//! store commit a [`WriteBatch`] atomically across columns and shards.
//!
//! The paper's deployment keeps histograms maintained *while* the
//! optimizer reads them; once a column is split across shards (or an
//! optimizer estimate spans several columns), "maintained in place" needs
//! a consistency story. This module provides it with a two-phase,
//! epoch-stamped commit:
//!
//! 1. **Stage** — the writer appends its per-cell sub-batches to each
//!    touched cell's pending queue under that cell's (tiny) staging
//!    lock. Nothing is visible to readers yet: the entries carry an
//!    *unpublished* ticket.
//! 2. **Publish** — the store's epoch clock assigns the next epoch to
//!    the ticket and advances the published counter, both under one brief
//!    mutex. This is the single atomic step: the instant the epoch is
//!    published, *all* of the batch's staged entries (every shard, every
//!    column) become visible together.
//!
//! Application into the actual histograms happens *after* publication, in
//! strict epoch order, by whoever needs the data first — the committing
//! writer (locked ingestion), a per-shard worker (channel ingestion), or
//! a reader rendering a snapshot. Because any drain applies *all* pending
//! entries up to its target epoch and none beyond, a reader pinning epoch
//! `E` observes exactly the batches published at or before `E` — whole
//! batches only, never a torn one.

use crate::catalog::{CatalogError, Snapshot};
use crate::read::{
    CacheKind, FrontCache, ImageKey, LeftRightCell, ReadCounters, ReadGeneration, ReadStats,
};
use crate::store::SnapshotSet;
use dh_core::{BoxedHistogram, BucketSpan, UpdateOp};
use dh_distributed::superimpose;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A group of [`UpdateOp`]s destined for one or more columns, committed
/// atomically: readers observe either none or all of it, across every
/// column and shard it touches.
///
/// Built incrementally and handed to
/// [`ColumnStore::commit`](crate::ColumnStore::commit):
///
/// ```
/// use dh_catalog::{Catalog, ColumnConfig, ColumnStore, AlgoSpec, WriteBatch};
/// use dh_core::MemoryBudget;
///
/// let store = Catalog::new();
/// let config = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(0.5));
/// store.register("orders.amount", config).unwrap();
/// store.register("orders.qty", config).unwrap();
///
/// let mut batch = WriteBatch::new();
/// batch.insert("orders.amount", 120).insert("orders.qty", 3);
/// batch.delete("orders.amount", 7);
/// let epoch = store.commit(batch).unwrap();
/// assert_eq!(epoch, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    ops: BTreeMap<String, Vec<UpdateOp>>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A batch holding `ops` for a single `column` (the shape
    /// [`ColumnStore::apply`](crate::ColumnStore::apply) commits).
    pub fn for_column(column: impl Into<String>, ops: impl Into<Vec<UpdateOp>>) -> Self {
        let mut batch = Self::new();
        batch.ops.insert(column.into(), ops.into());
        batch
    }

    /// Adds one insertion of `v` on `column`.
    pub fn insert(&mut self, column: &str, v: i64) -> &mut Self {
        self.push(column, UpdateOp::Insert(v))
    }

    /// Adds one deletion of `v` on `column`.
    pub fn delete(&mut self, column: &str, v: i64) -> &mut Self {
        self.push(column, UpdateOp::Delete(v))
    }

    /// Adds one update on `column`.
    pub fn push(&mut self, column: &str, op: UpdateOp) -> &mut Self {
        self.column_ops(column).push(op);
        self
    }

    /// Adds a run of updates on `column`.
    pub fn extend(&mut self, column: &str, ops: impl IntoIterator<Item = UpdateOp>) -> &mut Self {
        self.column_ops(column).extend(ops);
        self
    }

    /// The columns this batch touches, sorted.
    pub fn columns(&self) -> impl Iterator<Item = &str> {
        self.ops.keys().map(String::as_str)
    }

    /// The ops queued for `column`, if any.
    pub fn ops(&self, column: &str) -> Option<&[UpdateOp]> {
        self.ops.get(column).map(Vec::as_slice)
    }

    /// Total number of updates across all columns.
    pub fn len(&self) -> usize {
        self.ops.values().map(Vec::len).sum()
    }

    /// Whether the batch touches no column at all. (A batch with columns
    /// but zero ops is *not* empty: committing it still advances those
    /// columns' checkpoints, marking an explicit sync point.)
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Consumes the batch into its per-column op lists.
    pub(crate) fn into_parts(self) -> BTreeMap<String, Vec<UpdateOp>> {
        self.ops
    }

    fn column_ops(&mut self, column: &str) -> &mut Vec<UpdateOp> {
        if !self.ops.contains_key(column) {
            self.ops.insert(column.to_string(), Vec::new());
        }
        self.ops.get_mut(column).expect("inserted above")
    }
}

/// Epoch value of a staged-but-unpublished batch.
const UNPUBLISHED: u64 = u64::MAX;

/// A commit's identity: staged entries point at the ticket; publication
/// stamps the epoch into it, flipping every entry visible at once.
pub(crate) struct BatchTicket {
    epoch: AtomicU64,
}

impl BatchTicket {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: AtomicU64::new(UNPUBLISHED),
        })
    }

    /// The stamped epoch, or [`UNPUBLISHED`].
    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// A store's epoch authority: one monotone published counter plus the
/// mutex that makes "stamp the ticket, advance the counter" one atomic
/// publication step.
#[derive(Default)]
pub(crate) struct EpochClock {
    published: AtomicU64,
    gate: Mutex<()>,
}

impl EpochClock {
    /// The highest published epoch (0 before any commit).
    pub(crate) fn published(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// Publishes `ticket` as the next epoch and returns it. `on_publish`
    /// runs under the publication mutex (used to bump per-column
    /// accepted-batch counters in the same atomic step).
    ///
    /// Publication *must* happen strictly after every staged entry of the
    /// batch is in its cell's pending queue: readers derive drain targets
    /// from the published counter, so an entry staged late would be
    /// skipped and lost.
    pub(crate) fn publish(&self, ticket: &BatchTicket, on_publish: impl FnOnce(u64)) -> u64 {
        let _gate = lock(&self.gate);
        let epoch = self.published.load(Ordering::Relaxed) + 1;
        ticket.epoch.store(epoch, Ordering::Release);
        on_publish(epoch);
        self.published.store(epoch, Ordering::Release);
        epoch
    }

    /// Runs `f` under the publication gate: whatever it reads is
    /// consistent with *completed* publications only — it can never
    /// observe a multi-column commit halfway through stamping its
    /// columns (the reader side of [`EpochClock::publish`]'s atomicity).
    pub(crate) fn consistent<R>(&self, f: impl FnOnce() -> R) -> R {
        let _gate = lock(&self.gate);
        f()
    }

    /// Seeds the published counter directly — crash recovery restoring a
    /// checkpoint's absolute epoch without replaying one publication per
    /// historical epoch. Only meaningful on a store with no concurrent
    /// writers (recovery owns the store exclusively).
    pub(crate) fn restore(&self, epoch: u64) {
        let _gate = lock(&self.gate);
        self.published.store(epoch, Ordering::Release);
    }
}

/// Publish-consistent per-column counters: the epoch of the column's
/// last publication plus its accepted batch/update totals, updated as
/// one unit under the store's publication gate — so a render pinned at
/// epoch `E` whose column stamp satisfies `epoch <= E` knows the
/// counters are exactly the as-of-`E` values (anything newer would have
/// moved `epoch` past the pin).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ColumnStamp {
    /// Epoch of this column's most recent publication (0 = never).
    pub epoch: u64,
    /// Batches accepted so far; strictly monotone.
    pub accepted: u64,
    /// Individual updates accepted so far.
    pub updates: u64,
}

/// One column of a store, as the shared protocol sees it: somewhere to
/// stage ops, a publish-consistent stamp, a post-publication settle
/// step, and a pinned renderer. Implemented by both stores' column
/// types so the protocol-critical choreography (stage → publish →
/// settle on the write side, gated stamp read → pinned render on the
/// read side) lives here, once, in [`Registry`].
pub(crate) trait StoreColumn {
    /// Staging token carried from [`StoreColumn::stage_ops`] to
    /// [`StoreColumn::settle`] (e.g. which shards a batch touched).
    type Staged;

    /// Phase 1: queue `ops` under `ticket`, invisible until published.
    fn stage_ops(&self, ticket: &Arc<BatchTicket>, ops: Vec<UpdateOp>) -> Self::Staged;

    /// The column's publish-consistent counters.
    fn stamp(&self) -> &Mutex<ColumnStamp>;

    /// Phase 3: apply (or delegate applying) the published entries.
    fn settle(&self, staged: &Self::Staged, epoch: u64);

    /// Renders the column's `(algorithm label, composed spans)` at
    /// exactly `epoch` (retry token on `Err`, see [`compose_at`]).
    fn render_at(&self, epoch: u64) -> Result<(String, Vec<BucketSpan>), u64>;

    /// Restore path: applies `ops` straight into the column's cells with
    /// the content marked as-of `epoch`, bypassing the stage/publish
    /// pipeline. Only for checkpoint recovery on an exclusively-owned
    /// store (see [`Registry::restore_at`]).
    fn restore_content(&self, epoch: u64, ops: Vec<UpdateOp>);
}

/// One column's image inside a checkpoint being restored: its exact
/// historical counters plus the ops synthesized from its checkpointed
/// spans.
pub(crate) struct RestoreColumn {
    pub name: String,
    /// Accepted-batch count as of the checkpoint epoch.
    pub accepted: u64,
    /// Accepted-update count as of the checkpoint epoch (the historical
    /// value — restore preserves it exactly).
    pub updates: u64,
    /// Synthesized insertions reproducing the checkpointed mass.
    pub ops: Vec<UpdateOp>,
}

/// Seam for the `DurableStore` decorator's checkpoint restore: every
/// concrete store exposes [`Registry::restore_at`] through it, so the
/// durable layer can seed a freshly built store without replaying one
/// pad commit per historical epoch.
pub(crate) trait DirectRestore {
    /// See [`Registry::restore_at`].
    fn restore_at(&self, epoch: u64, images: Vec<RestoreColumn>) -> Result<(), CatalogError>;
}

/// The shared store chassis: the named-column map plus the epoch clock,
/// carrying every [`crate::ColumnStore`] behavior that is identical
/// across designs — registration bookkeeping, the two-phase commit
/// choreography, and the gated pinned-read protocol. The concrete
/// stores only supply column construction, per-column
/// staging/settling/rendering (via [`StoreColumn`]).
pub(crate) struct Registry<T> {
    columns: RwLock<BTreeMap<Arc<str>, Registered<T>>>,
    clock: EpochClock,
    /// The wait-free read front: one image per column, re-rendered per
    /// column and swapped (never mutated) by writers. See
    /// `docs/READ_PATH.md` and [`crate::read`].
    front: LeftRightCell<ReadGeneration>,
    /// Columns published since the last front install: appended under
    /// the publication gate by every publication, drained by
    /// [`Registry::refresh_front`] under the front's writer lock.
    dirty: Mutex<Vec<Registered<T>>>,
    /// The predicate memo, shared by every generation for the store's
    /// whole life; keyed by image, so it needs no invalidation.
    cache: Arc<FrontCache>,
    counters: Arc<ReadCounters>,
    next_id: AtomicU64,
    /// Last image serial handed out (see [`ImageKey`]).
    serials: AtomicU64,
}

/// A registered column with its name and its stable front-cache id.
struct Registered<T> {
    id: u64,
    name: Arc<str>,
    column: Arc<T>,
}

impl<T> Clone for Registered<T> {
    fn clone(&self) -> Self {
        Self {
            id: self.id,
            name: Arc::clone(&self.name),
            column: Arc::clone(&self.column),
        }
    }
}

impl<T> Default for Registry<T> {
    fn default() -> Self {
        let counters = Arc::new(ReadCounters::default());
        Self {
            columns: RwLock::new(BTreeMap::new()),
            clock: EpochClock::default(),
            front: LeftRightCell::new(Arc::new(ReadGeneration::default())),
            dirty: Mutex::new(Vec::new()),
            cache: Arc::new(FrontCache::new(counters.clone())),
            counters,
            next_id: AtomicU64::new(0),
            serials: AtomicU64::new(0),
        }
    }
}

impl<T: StoreColumn> Registry<T> {
    /// Registers a column under `name`, building it with `build` only
    /// if the name is free.
    pub(crate) fn insert(&self, name: &str, build: impl FnOnce() -> T) -> Result<(), CatalogError> {
        let entry = {
            let mut columns = write_lock(&self.columns);
            if columns.contains_key(name) {
                return Err(CatalogError::DuplicateColumn(name.into()));
            }
            let entry = Registered {
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                name: name.into(),
                column: Arc::new(build()),
            };
            columns.insert(Arc::clone(&entry.name), entry.clone());
            entry
        };
        // Fold the new (empty) column into the front so its reads are
        // wait-free from the first snapshot on.
        self.refresh_front(vec![entry]);
        Ok(())
    }

    fn entry(&self, name: &str) -> Result<Registered<T>, CatalogError> {
        read_lock(&self.columns)
            .get(name)
            .cloned()
            .ok_or_else(|| CatalogError::UnknownColumn(name.into()))
    }

    /// The column registered under `name`.
    pub(crate) fn get(&self, name: &str) -> Result<Arc<T>, CatalogError> {
        Ok(self.entry(name)?.column)
    }

    /// The registered column names, sorted.
    pub(crate) fn names(&self) -> Vec<String> {
        read_lock(&self.columns)
            .keys()
            .map(|name| name.to_string())
            .collect()
    }

    /// Whether `name` is registered.
    pub(crate) fn contains(&self, name: &str) -> bool {
        read_lock(&self.columns).contains_key(name)
    }

    /// The store's highest published epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.clock.published()
    }

    /// The accepted-batch count of `name`.
    pub(crate) fn checkpoint(&self, name: &str) -> Result<u64, CatalogError> {
        Ok(lock(self.get(name)?.stamp()).accepted)
    }

    /// Commits one multi-column batch: resolve every column first (an
    /// unknown name must not leave the others half-committed), stage
    /// everything, publish once (stamping every touched column and
    /// marking its front image dirty under the gate), settle
    /// everything. Returns the published epoch.
    ///
    /// Publication happens strictly after all staging — the invariant
    /// the whole read side relies on (a published entry is always
    /// already in its pending queue).
    pub(crate) fn commit(&self, batch: WriteBatch) -> Result<u64, CatalogError> {
        let mut resolved = Vec::new();
        for (name, ops) in batch.into_parts() {
            resolved.push((self.entry(&name)?, ops));
        }
        let ticket = BatchTicket::new();
        let mut staged = Vec::with_capacity(resolved.len());
        for (entry, ops) in resolved {
            let n = ops.len() as u64;
            let token = entry.column.stage_ops(&ticket, ops);
            staged.push((entry, token, n));
        }
        let epoch = self.clock.publish(&ticket, |e| {
            let mut dirty = lock(&self.dirty);
            for (entry, _, n) in &staged {
                let mut stamp = lock(entry.column.stamp());
                stamp.epoch = e;
                stamp.accepted += 1;
                stamp.updates += *n;
                dirty.push(entry.clone());
            }
        });
        for (entry, token, _) in &staged {
            entry.column.settle(token, epoch);
        }
        // Release staging tokens (e.g. shard in-flight counts) before the
        // front render, so a concurrent re-shard barrier never waits on a
        // commit that is merely re-rendering.
        drop(staged);
        // Publish the read front *before* returning: the committing
        // thread's own batch is visible to its subsequent hot-path reads
        // (read-your-writes), and readers never render for themselves.
        self.refresh_front(Vec::new());
        Ok(epoch)
    }

    /// Commits one single-column batch and returns the column's new
    /// checkpoint (accepted-batch count) — the
    /// [`crate::ColumnStore::apply`] shape of [`Registry::commit`].
    pub(crate) fn apply(&self, name: &str, ops: &[UpdateOp]) -> Result<u64, CatalogError> {
        let entry = self.entry(name)?;
        let ticket = BatchTicket::new();
        let token = entry.column.stage_ops(&ticket, ops.to_vec());
        let mut checkpoint = 0;
        let epoch = self.clock.publish(&ticket, |e| {
            let mut dirty = lock(&self.dirty);
            let mut stamp = lock(entry.column.stamp());
            stamp.epoch = e;
            stamp.accepted += 1;
            stamp.updates += ops.len() as u64;
            checkpoint = stamp.accepted;
            dirty.push(entry.clone());
        });
        entry.column.settle(&token, epoch);
        drop(token);
        self.refresh_front(Vec::new());
        Ok(checkpoint)
    }

    /// One pinned render attempt: read the column's stamp under the
    /// publication gate — so a multi-column commit can never be
    /// observed halfway through stamping its columns — then render at
    /// exactly `epoch` with those as-of-`epoch` counters, as a fresh
    /// image with its own serial. With `gate_held` the caller already
    /// owns the gate (the starvation fallback of
    /// [`Registry::render_pinned`]; `Mutex` is not reentrant).
    fn attempt(&self, entry: &Registered<T>, epoch: u64, gate_held: bool) -> Result<Snapshot, u64> {
        let column = &entry.column;
        let stamp = if gate_held {
            *lock(column.stamp())
        } else {
            self.clock.consistent(|| *lock(column.stamp()))
        };
        if stamp.epoch > epoch {
            return Err(stamp.epoch);
        }
        let (label, spans) = column.render_at(epoch)?;
        let key = ImageKey {
            id: entry.id,
            serial: self.serials.fetch_add(1, Ordering::Relaxed) + 1,
        };
        Ok(Snapshot::from_parts(
            key,
            entry.name.to_string(),
            label,
            epoch,
            stamp.accepted,
            stamp.updates,
            spans,
        ))
    }

    /// Retries `attempt` at increasing pinned epochs until it sticks.
    ///
    /// `attempt(e, gate_held)` renders at *exactly* epoch `e`; it fails
    /// with the observed ahead epoch when some cell has already been
    /// drained past `e` by a concurrent reader or writer, or a column's
    /// stamp shows a publication newer than `e`. Every optimistic retry
    /// raises the pin to at least that epoch; each failed attempt is
    /// cheap (the ahead checks come first). After a bounded number of
    /// failures — sustained commit traffic outrunning the render — the
    /// fallback holds the publication gate, which freezes the published
    /// epoch: no new commit can overtake the render (drains of
    /// already-published batches only catch cells up to the frozen
    /// epoch, never past it), so readers always make progress.
    fn render_pinned<R>(&self, mut attempt: impl FnMut(u64, bool) -> Result<R, u64>) -> R {
        const OPTIMISTIC_RETRIES: usize = 8;
        let mut epoch = self.clock.published();
        for _ in 0..OPTIMISTIC_RETRIES {
            match attempt(epoch, false) {
                Ok(value) => return value,
                Err(ahead) => epoch = ahead.max(self.clock.published()),
            }
        }
        self.clock.consistent(|| {
            let epoch = self.clock.published();
            attempt(epoch, true).unwrap_or_else(|ahead| {
                unreachable!("publication {ahead} overtook a render under the gate")
            })
        })
    }

    /// `name` rendered afresh from its cells at the current published
    /// epoch, bypassing the read front (not counted in [`ReadStats`]).
    pub(crate) fn render_snapshot(&self, name: &str) -> Result<Snapshot, CatalogError> {
        let entry = self.entry(name)?;
        Ok(self.render_pinned(|epoch, gate_held| self.attempt(&entry, epoch, gate_held)))
    }

    /// An epoch-pinned snapshot of `name`.
    ///
    /// Hot path: served off the front generation — one wait-free load
    /// plus an `Arc` clone. Falls back to the slow pinned render only
    /// when the front does not cover the column (a registration racing
    /// ahead of its first front fold; counted in
    /// [`ReadStats::slow_renders`]).
    pub(crate) fn snapshot(&self, name: &str) -> Result<Snapshot, CatalogError> {
        let front = self.front.load();
        if let Some(snap) = front.snap(name) {
            self.counters.count_fast();
            return Ok(snap.clone());
        }
        let snap = self.render_snapshot(name)?;
        self.counters.count_slow();
        Ok(snap)
    }

    /// A [`SnapshotSet`]: every requested column rendered at one epoch.
    ///
    /// Hot path: a cache-wired subset of the front generation (wait-free,
    /// all columns trivially share the generation's epoch). Slow path as
    /// in [`Registry::snapshot`].
    pub(crate) fn snapshot_set(&self, names: &[&str]) -> Result<SnapshotSet, CatalogError> {
        let front = self.front.load();
        if let Some(snaps) = front.subset(names) {
            self.counters.count_fast();
            return Ok(SnapshotSet::with_cache(
                front.epoch(),
                snaps,
                Arc::clone(&self.cache),
            ));
        }
        let entries: Vec<Registered<T>> = names
            .iter()
            .map(|name| self.entry(name))
            .collect::<Result<_, _>>()?;
        self.counters.count_slow();
        Ok(self.render_pinned(|epoch, gate_held| {
            let mut snaps = BTreeMap::new();
            for entry in &entries {
                snaps.insert(
                    entry.name.to_string(),
                    self.attempt(entry, epoch, gate_held)?,
                );
            }
            Ok(SnapshotSet::new(epoch, snaps))
        }))
    }

    /// Estimated `[a, b]` mass on `name`, answered from the store's
    /// predicate cache off the front image (wait-free; computes and
    /// memoizes on a cache miss). Slow pinned fallback only when the
    /// front does not cover the column.
    pub(crate) fn estimate_range(&self, name: &str, a: i64, b: i64) -> Result<f64, CatalogError> {
        self.estimate(name, CacheKind::Range(a, b))
    }

    /// Estimated frequency of `v` on `name` (see
    /// [`Registry::estimate_range`]).
    pub(crate) fn estimate_eq(&self, name: &str, v: i64) -> Result<f64, CatalogError> {
        self.estimate(name, CacheKind::Eq(v))
    }

    /// Total live mass on `name` (see [`Registry::estimate_range`]).
    pub(crate) fn total_count(&self, name: &str) -> Result<f64, CatalogError> {
        self.estimate(name, CacheKind::Total)
    }

    fn estimate(&self, name: &str, kind: CacheKind) -> Result<f64, CatalogError> {
        let front = self.front.load();
        if let Some(snap) = front.snap(name) {
            self.counters.count_fast();
            return Ok(self.cache.probe(kind, snap));
        }
        let snap = self.render_snapshot(name)?;
        self.counters.count_slow();
        Ok(kind.compute_on(&snap))
    }

    /// The store's read-path telemetry.
    pub(crate) fn read_stats(&self) -> ReadStats {
        self.counters.stats()
    }

    /// Seeds the store to a checkpoint in O(checkpoint size), not
    /// O(historical epochs): every image's counters are written into its
    /// column stamp verbatim, its synthesized ops applied straight into
    /// the cells, the epoch clock jumped to `epoch`, and every column's
    /// front image re-rendered. Caller contract: the store is freshly
    /// built and exclusively owned (recovery), all named columns are
    /// registered, and no commit has been published yet.
    ///
    /// Observable state matches what replaying the history would leave:
    /// a column with accepted batches stamps `epoch` (its last
    /// publication is at or before the checkpoint, and the restored
    /// content is exactly as-of `epoch`); a never-touched column keeps
    /// stamp 0.
    pub(crate) fn restore_at(
        &self,
        epoch: u64,
        images: Vec<RestoreColumn>,
    ) -> Result<(), CatalogError> {
        for image in images {
            let column = self.get(&image.name)?;
            {
                let mut stamp = lock(column.stamp());
                *stamp = ColumnStamp {
                    epoch: if image.accepted > 0 { epoch } else { 0 },
                    accepted: image.accepted,
                    updates: image.updates,
                };
            }
            column.restore_content(epoch, image.ops);
        }
        self.clock.restore(epoch);
        let all = read_lock(&self.columns).values().cloned().collect();
        self.refresh_front(all);
        Ok(())
    }

    /// Re-renders `name`'s front image at the current epoch — for a
    /// rebuild, which replaces a column's cells *without* publishing an
    /// epoch, so no publication marks the column dirty.
    pub(crate) fn refresh_column(&self, name: &str) {
        if let Ok(entry) = self.entry(name) {
            self.refresh_front(vec![entry]);
        }
    }

    /// Installs a new front generation that re-renders only the columns
    /// whose image is out of date — `extra` plus every column published
    /// since the last install — and shares every other column's image
    /// with its predecessor. Called by every commit, registration,
    /// restore and rebuild; never by readers.
    ///
    /// The dirty list is drained under the front's writer lock and only
    /// *after* the render epoch is read, so it holds every publication
    /// at or before that epoch not yet folded in; a drained column
    /// published *past* the epoch fails its stamp check and moves the
    /// whole render to a later epoch (re-draining). Two committers
    /// racing here therefore never lose each other's image: whoever
    /// holds the lock renders both, and the other finds nothing left to
    /// do (its epoch is already covered).
    fn refresh_front(&self, extra: Vec<Registered<T>>) {
        self.front.update(|base| {
            let mut pending = extra;
            let (epoch, images) = self.render_pinned(|epoch, gate_held| {
                pending.append(&mut lock(&self.dirty));
                pending.sort_unstable_by_key(|entry| entry.id);
                pending.dedup_by_key(|entry| entry.id);
                let mut images = Vec::with_capacity(pending.len());
                for entry in &pending {
                    let snap = self.attempt(entry, epoch, gate_held)?;
                    images.push((Arc::clone(&entry.name), snap));
                }
                Ok((epoch, images))
            });
            if images.is_empty() && epoch == base.epoch() {
                return None;
            }
            let (next, replaced) = base.successor(epoch, images);
            self.counters.count_invalidations(replaced);
            Some(Arc::new(next))
        });
    }
}

/// One staged sub-batch: the ops plus the ticket that publishes them.
struct PendingEntry {
    ticket: Arc<BatchTicket>,
    ops: Vec<UpdateOp>,
}

/// A cell's histogram state, behind the cell's `RwLock`.
struct CellState {
    histogram: BoxedHistogram,
    /// Highest epoch whose entries have been applied to the histogram.
    applied: u64,
    /// Cached span rendering, invalidated by every application.
    spans: Option<Vec<BucketSpan>>,
    /// Scratch buffer for span rendering (allocation reuse).
    scratch: Vec<BucketSpan>,
}

/// One unit of histogram state: a whole unsharded column, or one shard of
/// a sharded one. Writers stage into `pending` (brief mutex, never
/// blocked by in-progress histogram maintenance); drains move published
/// entries into the histogram in epoch order under the state lock.
pub(crate) struct Cell {
    pending: Mutex<Vec<PendingEntry>>,
    state: RwLock<CellState>,
}

impl Cell {
    pub(crate) fn new(histogram: BoxedHistogram) -> Self {
        Self::with_applied(histogram, 0)
    }

    /// A cell whose histogram already contains every batch up to
    /// `applied` — what a re-shard installs: the rebuilt per-shard
    /// histograms carry the composed data as of the barrier epoch, so a
    /// reader pinned earlier than the barrier is told to retry
    /// (`spans_at` fails with `applied`) instead of seeing the rebuilt
    /// state under an old pin.
    pub(crate) fn with_applied(histogram: BoxedHistogram, applied: u64) -> Self {
        Self {
            pending: Mutex::new(Vec::new()),
            state: RwLock::new(CellState {
                histogram,
                applied,
                spans: None,
                scratch: Vec::new(),
            }),
        }
    }

    /// Phase 1 of a commit: queue `ops` under `ticket`, invisible to
    /// readers until the ticket is published. Lock order: `pending` only
    /// (never nested inside another cell's locks), so staging is
    /// deadlock-free and never waits on histogram application.
    pub(crate) fn stage(&self, ticket: Arc<BatchTicket>, ops: Vec<UpdateOp>) {
        if ops.is_empty() {
            return;
        }
        lock(&self.pending).push(PendingEntry { ticket, ops });
    }

    /// Whether any pending entry is published at or below `epoch`.
    fn has_ready(&self, epoch: u64) -> bool {
        lock(&self.pending)
            .iter()
            .any(|p| p.ticket.epoch() <= epoch)
    }

    /// Applies every published pending entry up to `epoch` (no-op when a
    /// concurrent drain already went further).
    pub(crate) fn drain_to(&self, epoch: u64) {
        if !self.has_ready(epoch) {
            return;
        }
        let mut state = write_lock(&self.state);
        let _ = self.drain_locked(&mut state, epoch);
    }

    /// Drains under an already-held state lock. Fails with the applied
    /// epoch when the histogram content is already *past* `epoch` (a
    /// pinned render must then retry at a later epoch).
    fn drain_locked(&self, state: &mut CellState, epoch: u64) -> Result<(), u64> {
        if state.applied > epoch {
            return Err(state.applied);
        }
        // Take every ready entry. Entries published ≤ epoch are all
        // staged already (staging strictly precedes publication), so this
        // cannot miss part of a batch.
        let mut ready: Vec<(u64, Vec<UpdateOp>)> = Vec::new();
        {
            let mut pending = lock(&self.pending);
            let mut i = 0;
            while i < pending.len() {
                let e = pending[i].ticket.epoch();
                if e <= epoch {
                    let entry = pending.swap_remove(i);
                    ready.push((e, entry.ops));
                } else {
                    i += 1;
                }
            }
        }
        if ready.is_empty() {
            return Ok(());
        }
        // Epoch order makes replay deterministic: locked and channel
        // ingestion produce bit-identical histograms for the same commit
        // sequence, whichever thread ends up draining.
        ready.sort_by_key(|&(e, _)| e);
        for (e, ops) in ready {
            state.histogram.apply_slice(&ops);
            state.applied = state.applied.max(e);
        }
        state.spans = None;
        Ok(())
    }

    /// Applies `ops` directly, marking the content as-of `epoch` — the
    /// checkpoint-restore fast path ([`Registry::restore_at`]), which
    /// must not pay one publication per historical epoch. The cell must
    /// have no pending entries (fresh store, recovery owns it). An empty
    /// `ops` is a no-op: the histogram stays empty and `applied` stays
    /// put, exactly as if the column's history held only empty batches.
    pub(crate) fn restore(&self, epoch: u64, ops: &[UpdateOp]) {
        if ops.is_empty() {
            return;
        }
        let mut state = write_lock(&self.state);
        state.histogram.apply_slice(ops);
        state.applied = state.applied.max(epoch);
        state.spans = None;
    }

    /// The cell's spans at *exactly* epoch `epoch`: drains published
    /// entries up to it, then renders (cached). Fails with the applied
    /// epoch when the content is already past `epoch`.
    pub(crate) fn spans_at(&self, epoch: u64) -> Result<Vec<BucketSpan>, u64> {
        {
            let state = read_lock(&self.state);
            if state.applied > epoch {
                return Err(state.applied);
            }
            if let Some(spans) = &state.spans {
                // Valid for `epoch` iff nothing published ≤ epoch is
                // still pending (content can only change via entries).
                if !self.has_ready(epoch) {
                    return Ok(spans.clone());
                }
            }
        }
        let mut state = write_lock(&self.state);
        self.drain_locked(&mut state, epoch)?;
        if state.spans.is_none() {
            let CellState {
                histogram, scratch, ..
            } = &mut *state;
            histogram.spans_into(scratch);
            let spans = scratch.clone();
            state.spans = Some(spans);
        }
        Ok(state.spans.clone().expect("rendered just above"))
    }
}

/// Composes one column's cells (superimposed) at *exactly* `epoch`.
/// Fails with the applied epoch when a cell is already past `epoch`
/// (retry via [`Registry::render_pinned`]).
pub(crate) fn compose_at<'a>(
    cells: impl IntoIterator<Item = &'a Cell>,
    epoch: u64,
) -> Result<Vec<BucketSpan>, u64> {
    let mut parts = cells
        .into_iter()
        .map(|cell| cell.spans_at(epoch))
        .collect::<Result<Vec<_>, _>>()?;
    // A single cell's spans pass through unchanged (bit-identical to the
    // unsharded render); several cells superimpose losslessly.
    Ok(if parts.len() == 1 {
        parts.pop().expect("one part")
    } else {
        superimpose(&parts)
    })
}

/// Poison-tolerant mutex lock (shared across the serving layer).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Poison-tolerant read lock (shared across the serving layer).
pub(crate) fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// Poison-tolerant write lock (shared across the serving layer).
pub(crate) fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlgoSpec, Catalog, ColumnConfig, ColumnStore, ShardPlan, ShardedCatalog};
    use dh_core::MemoryBudget;
    use std::collections::BTreeSet;

    const FRONT_COLUMNS: usize = 64;

    fn register_front_columns(store: &dyn ColumnStore) -> Vec<String> {
        let plan = ShardPlan::new(0, 999, 8).unwrap();
        let specs = [AlgoSpec::Dc, AlgoSpec::Dvo, AlgoSpec::Dado];
        (0..FRONT_COLUMNS)
            .map(|c| {
                let name = format!("c{c:02}");
                let config = ColumnConfig::new(specs[c % 3], MemoryBudget::from_kb(1.0))
                    .with_seed(c as u64)
                    .with_plan(plan);
                store.register(&name, config).unwrap();
                store
                    .apply(
                        &name,
                        &(0..200)
                            .map(|i| UpdateOp::Insert((i * 7 + c as i64) % 1000))
                            .collect::<Vec<_>>(),
                    )
                    .unwrap();
                name
            })
            .collect()
    }

    /// One range probe per column, chosen so no two land in the same
    /// cache slot (so none can evict another).
    fn disjoint_probes(store: &dyn ColumnStore, names: &[String]) -> Vec<CacheKind> {
        let mut used = BTreeSet::new();
        names
            .iter()
            .map(|name| {
                let snap = store.snapshot(name).unwrap();
                (0..)
                    .map(|hi| CacheKind::Range(0, hi))
                    .find(|&kind| used.insert(FrontCache::slot_for(kind, &snap)))
                    .unwrap()
            })
            .collect()
    }

    fn probe(store: &dyn ColumnStore, name: &str, kind: CacheKind) {
        let CacheKind::Range(a, b) = kind else {
            unreachable!("disjoint probes are ranges")
        };
        store.estimate_range(name, a, b).unwrap();
    }

    /// The per-column front contract, with exact counts: a commit
    /// re-renders exactly the columns it touched, every other column
    /// keeps its image and its cached estimates, and the invalidation
    /// counter moves by the number of touched columns.
    fn check_commits_rerender_only_touched_columns(store: &dyn ColumnStore) {
        let names = register_front_columns(store);
        let probes = disjoint_probes(store, &names);
        for (name, &kind) in names.iter().zip(&probes) {
            probe(store, name, kind);
        }
        for touched in [vec![17], vec![3, 40, 63]] {
            let before: Vec<Snapshot> = names.iter().map(|n| store.snapshot(n).unwrap()).collect();
            let stats = store.read_stats();
            let mut batch = WriteBatch::new();
            for &c in &touched {
                batch.extend(&names[c], (0..64).map(UpdateOp::Insert));
            }
            let epoch = store.commit(batch).unwrap();
            let after = store.read_stats();
            assert_eq!(
                after.cache_invalidations - stats.cache_invalidations,
                touched.len() as u64,
                "one invalidation per touched column"
            );
            for (c, (name, old)) in names.iter().zip(&before).enumerate() {
                let now = store.snapshot(name).unwrap();
                assert_eq!(
                    now.epoch(),
                    epoch,
                    "{name}: every image joins the new epoch"
                );
                assert_eq!(
                    now.same_rendering(old),
                    !touched.contains(&c),
                    "{name}: re-rendered iff touched"
                );
            }
            let stats = store.read_stats();
            for (c, (name, &kind)) in names.iter().zip(&probes).enumerate() {
                if !touched.contains(&c) {
                    probe(store, name, kind);
                }
            }
            let after = store.read_stats();
            let untouched = (FRONT_COLUMNS - touched.len()) as u64;
            assert_eq!(after.cache_hits - stats.cache_hits, untouched);
            assert_eq!(after.cache_misses, stats.cache_misses);
            // Refill the touched columns' probes against their new images.
            for &c in &touched {
                probe(store, &names[c], probes[c]);
            }
        }
        assert_eq!(store.read_stats().slow_renders, 0);
    }

    #[test]
    fn catalog_commit_rerenders_only_touched_columns() {
        check_commits_rerender_only_touched_columns(&Catalog::new());
    }

    #[test]
    fn sharded_commit_rerenders_only_touched_columns() {
        check_commits_rerender_only_touched_columns(&ShardedCatalog::new());
    }

    #[test]
    fn rebuild_rerenders_only_the_rebuilt_column() {
        let store = ShardedCatalog::new();
        let names = register_front_columns(&store);
        let skew: Vec<UpdateOp> = (0..2000).map(|i| UpdateOp::Insert(i % 50)).collect();
        store.apply(&names[5], &skew).unwrap();
        let before: Vec<Snapshot> = names.iter().map(|n| store.snapshot(n).unwrap()).collect();
        let stats = store.read_stats();
        assert!(store.reshard(&names[5]).unwrap(), "skewed borders moved");
        assert_eq!(
            store.read_stats().cache_invalidations - stats.cache_invalidations,
            1
        );
        for (c, (name, old)) in names.iter().zip(&before).enumerate() {
            let now = store.snapshot(name).unwrap();
            assert_eq!(now.epoch(), old.epoch(), "a rebuild publishes no epoch");
            assert_eq!(now.same_rendering(old), c != 5, "{name}");
        }
    }

    #[test]
    fn write_batch_builder_groups_by_column() {
        let mut batch = WriteBatch::new();
        batch.insert("a", 1).insert("b", 2).delete("a", 3);
        batch.extend("c", (0..3).map(UpdateOp::Insert));
        assert_eq!(batch.columns().collect::<Vec<_>>(), ["a", "b", "c"]);
        assert_eq!(
            batch.ops("a"),
            Some(&[UpdateOp::Insert(1), UpdateOp::Delete(3)][..])
        );
        assert_eq!(batch.len(), 6);
        assert!(!batch.is_empty());
        assert!(WriteBatch::new().is_empty());
        let single = WriteBatch::for_column("x", vec![UpdateOp::Insert(9)]);
        assert_eq!(single.ops("x").unwrap().len(), 1);
        assert_eq!(single.ops("y"), None);
    }

    #[test]
    fn staged_entries_stay_invisible_until_published() {
        let clock = EpochClock::default();
        let cell = Cell::new(AlgoSpec::Dc.build(MemoryBudget::from_kb(0.5), 0));
        let ticket = BatchTicket::new();
        cell.stage(ticket.clone(), (0..100).map(UpdateOp::Insert).collect());

        // Unpublished: a render at the current epoch sees nothing.
        let spans = cell.spans_at(clock.published()).unwrap();
        assert!(spans.is_empty());

        let epoch = clock.publish(&ticket, |_| {});
        assert_eq!(epoch, 1);
        let spans = cell.spans_at(epoch).unwrap();
        let total: f64 = spans.iter().map(|s| s.count).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn pinned_render_refuses_future_and_past_epochs() {
        let clock = EpochClock::default();
        let cell = Cell::new(AlgoSpec::Dc.build(MemoryBudget::from_kb(0.5), 0));
        for round in 1..=3u64 {
            let ticket = BatchTicket::new();
            cell.stage(ticket.clone(), vec![UpdateOp::Insert(round as i64)]);
            clock.publish(&ticket, |_| {});
        }
        cell.drain_to(3);
        // Content is at epoch 3 now; a pin at 1 must fail with the
        // applied epoch so the caller can retry.
        assert_eq!(cell.spans_at(1), Err(3));
        let spans = cell.spans_at(3).unwrap();
        let total: f64 = spans.iter().map(|s| s.count).sum();
        assert!((total - 3.0).abs() < 1e-9);
    }

    #[test]
    fn drain_applies_in_epoch_order_deterministically() {
        // Stage two published batches out of order and one unpublished
        // one; a single drain must apply exactly the published pair, in
        // epoch order, and leave the rest pending.
        let clock = EpochClock::default();
        let cell = Cell::new(AlgoSpec::Dc.build(MemoryBudget::from_kb(0.5), 0));
        let t1 = BatchTicket::new();
        let t2 = BatchTicket::new();
        let t3 = BatchTicket::new();
        cell.stage(t2.clone(), vec![UpdateOp::Insert(2)]);
        cell.stage(t1.clone(), vec![UpdateOp::Insert(1)]);
        cell.stage(t3.clone(), vec![UpdateOp::Insert(3)]);
        clock.publish(&t1, |_| {});
        clock.publish(&t2, |_| {});
        let spans = cell.spans_at(clock.published()).unwrap();
        let total: f64 = spans.iter().map(|s| s.count).sum();
        assert!((total - 2.0).abs() < 1e-9, "unpublished t3 leaked: {total}");
        clock.publish(&t3, |_| {});
        let spans = cell.spans_at(3).unwrap();
        let total: f64 = spans.iter().map(|s| s.count).sum();
        assert!((total - 3.0).abs() < 1e-9);
    }
}
