//! The wait-free read front: one immutable `ReadGeneration` per store,
//! swapped atomically at publication, plus the image-keyed predicate
//! front cache.
//!
//! This module is the hot half of the consistency contract documented in
//! `docs/READ_PATH.md`. A generation holds one shared column image per
//! registered column, all pinned to one published epoch. Every commit
//! (and every re-shard) installs a successor generation behind a
//! `LeftRightCell` that re-renders only the columns published since the
//! last install and shares every other image. Readers on the hot path
//! ([`crate::ColumnStore::snapshot`], `snapshot_set`, `estimate_range`,
//! `estimate_eq`, `total_count`) perform a bounded sequence of atomic
//! operations and one pointer chase: no mutex, no read-write lock, no
//! retry loop. The pinned-render machinery in [`crate::txn`] remains as
//! the slow path for the rare reads the front cannot serve.
//!
//! The swap primitive is a hand-rolled *left-right* cell (Correia &
//! Ramalhete's algorithm) rather than an external `ArcSwap` dependency:
//! two instance slots, a version indicator, and two reader-arrival
//! counters give wait-free readers and a writer that can reclaim (drop)
//! the superseded generation without deferred reclamation machinery.

use crate::catalog::Snapshot;
use crate::txn::lock;
use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Counters behind [`ReadStats`], shared by a store's registry, its
/// front generations and their caches. All relaxed: they are telemetry,
/// not synchronization.
#[derive(Debug, Default)]
pub(crate) struct ReadCounters {
    fast_reads: AtomicU64,
    slow_renders: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl ReadCounters {
    pub(crate) fn count_fast(&self) {
        self.fast_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_slow(&self) {
        self.slow_renders.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_invalidations(&self, images: u64) {
        self.invalidations.fetch_add(images, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> ReadStats {
        ReadStats {
            fast_reads: self.fast_reads.load(Ordering::Relaxed),
            slow_renders: self.slow_renders.load(Ordering::Relaxed),
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            cache_invalidations: self.invalidations.load(Ordering::Relaxed),
            // Single-process stores never probe sites; the multi-site
            // fields are owned by `dh_site`'s GlobalCatalog.
            site_probes: 0,
            site_failures: 0,
            degraded_reads: 0,
        }
    }
}

/// Read-path telemetry of one store, returned by
/// [`ColumnStore::read_stats`](crate::ColumnStore::read_stats).
///
/// `fast_reads` counts hot-path reads served wait-free off the front
/// generation; `slow_renders` counts reads that fell back to the gated
/// pinned-render protocol (see `docs/READ_PATH.md` for exactly when that
/// happens — under steady serving it stays at zero). The `cache_*`
/// fields cover the predicate front cache: `cache_invalidations` counts
/// column images replaced in the front — one per column a commit
/// touched, one per rebuilt column — each retiring that image's memoized
/// estimates (every other column keeps its cached estimates).
///
/// The `site_*` and `degraded_reads` fields are multi-site telemetry:
/// zero for every single-process store, counted by `dh_site`'s
/// `GlobalCatalog` so degraded composition is observable rather than
/// silent (see `docs/GLOBAL.md`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReadStats {
    /// Reads served from the front generation without locking.
    pub fast_reads: u64,
    /// Reads that engaged the slow pinned-render path.
    pub slow_renders: u64,
    /// Predicate estimates answered from the front cache.
    pub cache_hits: u64,
    /// Predicate estimates that had to compute (and then memoize).
    pub cache_misses: u64,
    /// Column images replaced in the front (each retires that column's
    /// memoized estimates).
    pub cache_invalidations: u64,
    /// Member-site pulls attempted by a multi-site read.
    pub site_probes: u64,
    /// Member-site pulls that failed (unreachable or stale site).
    pub site_failures: u64,
    /// Reads that composed fewer sites than configured.
    pub degraded_reads: u64,
}

/// Number of seqlock slots in a store's front cache. Power of two;
/// ~24 KiB per store — sized for an optimizer's working set of repeated
/// selectivity probes, not for caching every query ever seen.
const CACHE_SLOTS: usize = 512;

/// Cache key kinds. Non-zero so a zeroed slot can never alias a real
/// key (`ver == 0` additionally marks never-written slots).
const KIND_RANGE: u64 = 1;
const KIND_EQ: u64 = 2;
const KIND_TOTAL: u64 = 3;

/// A column image's identity in its store's [`FrontCache`]: the
/// column's id (assigned at registration, stable while other columns
/// register) and the image's serial (fresh for every render, including
/// a same-epoch rebuild's). Serial 0 marks an image no store rendered
/// (a composed global snapshot), which never meets a front cache.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ImageKey {
    pub id: u64,
    pub serial: u64,
}

/// One seqlock-guarded cache slot: a version word (odd = write in
/// progress, `0` = never written), the full key, and the value bits.
/// Readers validate the version *and* the full key, so a slot collision
/// or an in-flight write reads as a miss, never as a wrong value.
#[derive(Default)]
struct Slot {
    ver: AtomicU64,
    key: [AtomicU64; 4],
    val: AtomicU64,
}

/// A store's predicate memo: `(column image, kind, operands) -> f64`
/// for range / eq / total estimates.
///
/// Wait-free on both sides: a probe is a bounded number of atomic
/// loads (a concurrent write or a changed slot is reported as a
/// miss — no retry); an insert is one CAS plus plain stores, abandoned
/// if the CAS loses (the cache is best-effort, correctness comes from
/// recomputing on every miss). It lives as long as the store and needs
/// no invalidation protocol: every key names one immutable image, so an
/// entry can only ever be hit by a reader computing on that very image.
/// A re-rendered column gets a new serial; its old entries simply stop
/// matching and age out as their slots are reused.
pub(crate) struct FrontCache {
    slots: Box<[Slot]>,
    counters: Arc<ReadCounters>,
}

impl FrontCache {
    pub(crate) fn new(counters: Arc<ReadCounters>) -> Self {
        Self {
            slots: (0..CACHE_SLOTS).map(|_| Slot::default()).collect(),
            counters,
        }
    }

    fn key_of(kind: CacheKind, snap: &Snapshot) -> [u64; 4] {
        let image = snap.key();
        let (tag, a, b) = kind.key();
        [(image.id << 2) | tag, image.serial, a, b]
    }

    /// The slot a probe of `kind` on `snap` lands in (lets tests pick
    /// probes that cannot evict each other).
    #[cfg(test)]
    pub(crate) fn slot_for(kind: CacheKind, snap: &Snapshot) -> usize {
        Self::slot_of(Self::key_of(kind, snap))
    }

    fn slot_of(key: [u64; 4]) -> usize {
        // FNV-1a over the key words, with a final avalanche so nearby
        // operands spread across slots.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for k in key {
            h ^= k;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= h >> 33;
        (h as usize) & (CACHE_SLOTS - 1)
    }

    /// Looks up a memoized estimate. Counts a hit or a miss.
    ///
    /// The reader half of a seqlock: the `Acquire` load of `ver` pairs
    /// with `put`'s closing `Release` store (seeing `v1` means seeing
    /// that fill's key and value), and the `Acquire` fence pairs with
    /// `put`'s `Release` fence (reading any word of a later fill means
    /// the re-check sees its odd `ver`), so a torn read is a miss.
    fn get(&self, key: [u64; 4]) -> Option<f64> {
        let slot = &self.slots[Self::slot_of(key)];
        let v1 = slot.ver.load(Ordering::Acquire);
        if v1 == 0 || v1 & 1 == 1 {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let stored = [0, 1, 2, 3].map(|i| slot.key[i].load(Ordering::Relaxed));
        let val = slot.val.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        if slot.ver.load(Ordering::Relaxed) != v1 || stored != key {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.counters.hits.fetch_add(1, Ordering::Relaxed);
        Some(f64::from_bits(val))
    }

    /// Best-effort insert: claims the slot's seqlock with one CAS and
    /// gives up silently if another writer holds it. The claim acquires
    /// the previous fill's closing store, so this fill's words follow
    /// that fill's in every word's modification order; the `Release`
    /// fence orders the claim (odd `ver`) before the key and value
    /// words, and the `Release` store of the even `ver` publishes them
    /// (see `get`).
    fn put(&self, key: [u64; 4], value: f64) {
        let slot = &self.slots[Self::slot_of(key)];
        let v1 = slot.ver.load(Ordering::Relaxed);
        if v1 & 1 == 1 {
            return;
        }
        if slot
            .ver
            .compare_exchange(v1, v1 + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        fence(Ordering::Release);
        for (word, k) in slot.key.iter().zip(key) {
            word.store(k, Ordering::Relaxed);
        }
        slot.val.store(value.to_bits(), Ordering::Relaxed);
        slot.ver.store(v1 + 2, Ordering::Release);
    }

    /// `kind` on `snap`, answered from the memo or computed (and
    /// memoized). The key comes from the very image the computation
    /// runs on, so a hit returns exactly the bits that image produced.
    pub(crate) fn probe(&self, kind: CacheKind, snap: &Snapshot) -> f64 {
        let key = Self::key_of(kind, snap);
        if let Some(value) = self.get(key) {
            return value;
        }
        let value = kind.compute_on(snap);
        self.put(key, value);
        value
    }
}

/// The three memoized estimate shapes.
#[derive(Clone, Copy)]
pub(crate) enum CacheKind {
    /// `estimate_range(a, b)`
    Range(i64, i64),
    /// `estimate_eq(v)`
    Eq(i64),
    /// `total_count()`
    Total,
}

impl CacheKind {
    fn key(self) -> (u64, u64, u64) {
        match self {
            CacheKind::Range(a, b) => (KIND_RANGE, a as u64, b as u64),
            CacheKind::Eq(v) => (KIND_EQ, v as u64, 0),
            CacheKind::Total => (KIND_TOTAL, 0, 0),
        }
    }

    /// The uncached computation this kind memoizes.
    pub(crate) fn compute_on(self, snap: &Snapshot) -> f64 {
        use dh_core::ReadHistogram;
        match self {
            CacheKind::Range(a, b) => snap.estimate_range(a, b),
            CacheKind::Eq(v) => snap.estimate_eq(v),
            CacheKind::Total => snap.total_count(),
        }
    }
}

/// One immutable read generation: one snapshot per registered column,
/// sorted by name, all pinned to a single published epoch. Consecutive
/// generations share the image of every column no publication between
/// them touched. Built by the committing writer (or a re-shard, or a
/// registration) and installed behind the registry's [`LeftRightCell`];
/// readers only ever clone out of it.
#[derive(Default)]
pub(crate) struct ReadGeneration {
    epoch: u64,
    columns: Vec<(Arc<str>, Snapshot)>,
    /// Open-addressed name index into `columns`, for stores wider than
    /// [`INDEX_MIN`] columns (empty otherwise): slot `h`, `h + 1`, ...
    /// (mod the power-of-two length) from the name's hash holds the
    /// column's position plus one; `0` ends a probe. Half full at most.
    /// A bisection over the names costs one mispredicted branch and one
    /// string comparison per level; a probe usually costs one of each,
    /// plus a read of the index itself.
    index: Box<[u32]>,
}

/// Column count up to which a generation bisects its names (four
/// levels at most) instead of building a name index.
const INDEX_MIN: usize = 16;

/// FNV-1a over the name's bytes, with a final fold of the high bits.
fn name_hash(name: &str) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 32)) as usize
}

/// The name index of `columns` (see [`ReadGeneration`]).
fn index_of(columns: &[(Arc<str>, Snapshot)]) -> Box<[u32]> {
    if columns.len() <= INDEX_MIN {
        return Box::default();
    }
    let mut index = vec![0u32; (2 * columns.len()).next_power_of_two()];
    let mask = index.len() - 1;
    for (i, (name, _)) in columns.iter().enumerate() {
        let mut h = name_hash(name);
        while index[h & mask] != 0 {
            h = h.wrapping_add(1);
        }
        index[h & mask] = u32::try_from(i + 1).expect("fewer than 2^32 columns");
    }
    index.into()
}

impl ReadGeneration {
    /// The epoch every snapshot in this generation is pinned to.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// This column's snapshot, if covered.
    pub(crate) fn snap(&self, column: &str) -> Option<&Snapshot> {
        if self.index.is_empty() {
            return self
                .columns
                .binary_search_by(|(name, _)| (**name).cmp(column))
                .ok()
                .map(|i| &self.columns[i].1);
        }
        let mask = self.index.len() - 1;
        let mut h = name_hash(column);
        loop {
            let i = (self.index[h & mask] as usize).checked_sub(1)?;
            let (name, snap) = &self.columns[i];
            if **name == *column {
                return Some(snap);
            }
            h = h.wrapping_add(1);
        }
    }

    /// The requested columns' snapshots, or `None` if any is not covered.
    pub(crate) fn subset(&self, columns: &[&str]) -> Option<BTreeMap<String, Snapshot>> {
        columns
            .iter()
            .map(|&column| Some((column.to_string(), self.snap(column)?.clone())))
            .collect()
    }

    /// The successor at `epoch`: every image of this generation re-pinned
    /// to `epoch`, except that `images` (rendered at `epoch`) replace —
    /// or, for a new column, join — their columns. Also returns how many
    /// images were replaced.
    pub(crate) fn successor(&self, epoch: u64, images: Vec<(Arc<str>, Snapshot)>) -> (Self, u64) {
        let mut columns: Vec<(Arc<str>, Snapshot)> = self
            .columns
            .iter()
            .map(|(name, snap)| (Arc::clone(name), snap.with_epoch(epoch)))
            .collect();
        let mut replaced = 0;
        for (name, snap) in images {
            match columns.binary_search_by(|(other, _)| other.cmp(&name)) {
                Ok(i) => {
                    columns[i].1 = snap;
                    replaced += 1;
                }
                Err(i) => columns.insert(i, (name, snap)),
            }
        }
        let index = if columns.len() == self.columns.len() {
            self.index.clone()
        } else {
            index_of(&columns)
        };
        let next = Self {
            epoch,
            columns,
            index,
        };
        (next, replaced)
    }
}

/// A wait-free atomically-swappable `Arc<T>` cell — the left-right
/// algorithm (two instance slots, a version indicator, two reader
/// cohorts), hand-rolled on std atomics.
///
/// **Readers** ([`LeftRightCell::load`]) are wait-free: arrive on the
/// current version cohort, load the front index, clone the `Arc` out of
/// the front slot, depart. A bounded number of atomic operations — no
/// lock, no CAS loop, no retry — regardless of writer activity.
///
/// **Writers** ([`LeftRightCell::update`]) serialize on a mutex, write
/// the *back* slot (which the reader protocol guarantees is unobserved),
/// publish it by storing the front index, then toggle the version
/// indicator and wait for both reader cohorts to drain in turn. After
/// that wait, no reader can still hold a reference obtained from the old
/// front slot, so the *next* write may safely overwrite (drop) it —
/// which is how superseded generations are reclaimed promptly without
/// hazard pointers or epoch GC.
///
/// Memory-ordering argument (spelled out in `docs/READ_PATH.md`): all
/// shared words use `SeqCst`. A reader's cohort arrival precedes its
/// front-index load in the total order, so a writer that has completed
/// both cohort waits has seen the departure of every reader whose
/// front-index load could have returned the old index; the value written
/// into the back slot is published to readers by the `SeqCst` store of
/// `front` (their subsequent `SeqCst` load of `front` orders after it).
pub(crate) struct LeftRightCell<T> {
    instances: [UnsafeCell<Arc<T>>; 2],
    /// Index of the slot readers should use (0 or 1).
    front: AtomicUsize,
    /// Which reader cohort new arrivals join (0 or 1).
    version: AtomicUsize,
    /// In-flight readers per cohort.
    readers: [AtomicUsize; 2],
    writer: Mutex<()>,
}

// SAFETY: the cell hands out `Arc<T>` clones across threads (needs
// `T: Send + Sync`, like `Arc` itself); the `UnsafeCell`s are only
// written under the writer mutex and only read per the left-right
// protocol argued on `load`/`update`.
unsafe impl<T: Send + Sync> Send for LeftRightCell<T> {}
unsafe impl<T: Send + Sync> Sync for LeftRightCell<T> {}

impl<T> LeftRightCell<T> {
    pub(crate) fn new(value: Arc<T>) -> Self {
        Self {
            instances: [UnsafeCell::new(value.clone()), UnsafeCell::new(value)],
            front: AtomicUsize::new(0),
            version: AtomicUsize::new(0),
            readers: [AtomicUsize::new(0), AtomicUsize::new(0)],
            writer: Mutex::new(()),
        }
    }

    /// The current value. Wait-free: a bounded sequence of atomic
    /// operations and one `Arc` clone, never blocked by writers.
    pub(crate) fn load(&self) -> Arc<T> {
        let cohort = self.version.load(Ordering::SeqCst);
        self.readers[cohort].fetch_add(1, Ordering::SeqCst);
        let front = self.front.load(Ordering::SeqCst);
        // SAFETY: `front` was loaded *after* arriving on a cohort, so
        // the writer's cohort waits cannot both have completed between
        // our arrival and this clone — meaning no writer overwrites
        // `instances[front]` while we read it (a writer only writes the
        // slot it just proved unobserved; see `update`).
        let value = unsafe { (*self.instances[front].get()).clone() };
        self.readers[cohort].fetch_sub(1, Ordering::SeqCst);
        value
    }

    /// Atomically replaces the value with `next(current)`, unless that
    /// returns `None`; returns whether the swap happened. Writers
    /// serialize on an internal mutex, held across `next` — so the
    /// successor is derived from a value no other writer can replace
    /// meanwhile. The superseded value (from two stores ago) is dropped
    /// here, after the reader cohorts prove it unobserved.
    pub(crate) fn update(&self, next: impl FnOnce(&T) -> Option<Arc<T>>) -> bool {
        let _writer = lock(&self.writer);
        let front = self.front.load(Ordering::SeqCst);
        let back = 1 - front;
        // SAFETY: under the writer mutex the front index is stable and
        // `instances[front]` is only read (by us and readers), never
        // written.
        let current = unsafe { &*self.instances[front].get() };
        let Some(candidate) = next(current) else {
            return false;
        };
        // SAFETY: the previous `update` completed both cohort waits
        // after unpublishing this slot, so no reader holds or can obtain
        // a reference into it — writing (and dropping the old Arc) is
        // exclusive.
        unsafe {
            *self.instances[back].get() = candidate;
        }
        self.front.store(back, Ordering::SeqCst);
        // Toggle the version and wait out both cohorts: readers that
        // arrived before the toggle may still be using the old front
        // slot; once both cohorts have drained (new arrivals land on the
        // *new* front index), the old slot is provably unobserved.
        let cohort = self.version.load(Ordering::SeqCst);
        let next = 1 - cohort;
        self.wait_empty(next);
        self.version.store(next, Ordering::SeqCst);
        self.wait_empty(cohort);
        true
    }

    fn wait_empty(&self, cohort: usize) {
        let mut spins = 0u32;
        while self.readers[cohort].load(Ordering::SeqCst) != 0 {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn left_right_load_store_round_trip() {
        let cell = LeftRightCell::new(Arc::new(1u64));
        assert_eq!(*cell.load(), 1);
        assert!(cell.update(|cur| Some(Arc::new(cur + 1))));
        assert_eq!(*cell.load(), 2);
        // Declined updates leave the value untouched.
        assert!(!cell.update(|_| None));
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn left_right_readers_race_writers_and_never_regress() {
        let cell = Arc::new(LeftRightCell::new(Arc::new(0u64)));
        let done = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let cell = cell.clone();
            let done = done.clone();
            handles.push(std::thread::spawn(move || {
                let mut last = 0u64;
                while !done.load(Ordering::Acquire) {
                    let v = *cell.load();
                    assert!(v >= last, "value regressed: {last} -> {v}");
                    last = v;
                }
            }));
        }
        for v in 1..=1000u64 {
            assert!(cell.update(|cur| Some(Arc::new((*cur).max(v)))));
        }
        done.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*cell.load(), 1000);
    }

    fn image(name: &str) -> (Arc<str>, Snapshot) {
        let snap = Snapshot::from_parts(
            ImageKey::default(),
            name.to_string(),
            "DC".to_string(),
            0,
            0,
            0,
            Vec::new(),
        );
        (Arc::from(name), snap)
    }

    #[test]
    fn name_index_finds_every_column_and_nothing_else() {
        let empty = ReadGeneration::default();
        assert!(empty.snap("a").is_none());
        assert!(empty.snap("").is_none());
        // Columns join over three successors: a small store that bisects,
        // then two that build the index; a fourth, which only replaces an
        // image, reuses it.
        let names: Vec<String> = (0..300).map(|c| format!("col{c}")).collect();
        let (small, _) = empty.successor(1, names[..INDEX_MIN].iter().map(|n| image(n)).collect());
        assert!(small.index.is_empty());
        let (first, _) =
            small.successor(2, names[INDEX_MIN..200].iter().map(|n| image(n)).collect());
        let (second, _) = first.successor(3, names[200..].iter().map(|n| image(n)).collect());
        let (third, replaced) = second.successor(4, vec![image("col7")]);
        assert_eq!(replaced, 1);
        assert!(!third.index.is_empty());
        for name in &names[..INDEX_MIN] {
            assert_eq!(small.snap(name).expect("registered column").column(), name);
        }
        assert!(small.snap("col100").is_none());
        for generation in [&second, &third] {
            for name in &names {
                let snap = generation.snap(name).expect("registered column");
                assert_eq!(snap.column(), name);
            }
            for missing in ["", "col", "col300", "col-1", "Col1"] {
                assert!(generation.snap(missing).is_none(), "{missing}");
            }
        }
        assert!(first.snap("col250").is_none());
    }

    #[test]
    fn front_cache_memoizes_exact_bits_and_reports_collisions_as_misses() {
        let counters = Arc::new(ReadCounters::default());
        let cache = FrontCache::new(counters.clone());
        cache.put([1, 7, 2, 3], 0.1 + 0.2);
        assert_eq!(cache.get([1, 7, 2, 3]), Some(0.1 + 0.2));
        // Same slot different key would be detected by the full-key
        // compare; an absent key — here, a newer image serial — is a miss.
        assert_eq!(cache.get([1, 8, 2, 3]), None);
        let stats = counters.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
    }
}
