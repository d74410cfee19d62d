//! Site-to-site epoch catch-up: replaying a peer's changelog tail onto
//! a rebuilt member until it is bit-identical with the epochs it
//! missed.
//!
//! This is `dh_replica`'s follower replay, one hop out: instead of
//! tailing a changelog *directory*, [`catch_up`] pulls the records over
//! the [`Site::tail`] surface (a [`TailReader`](dh_wal::tail::TailReader)
//! running inside the source site) and applies them with the same
//! [`Replayer`] recovery and followers drive; an epoch gap stops the
//! replay cleanly. The replay rules are written down once, in
//! `docs/REPLICATION.md` ("Replay rules"); `docs/GLOBAL.md` has the
//! catch-up protocol around them.

use crate::site::{Site, SiteError};
use dh_catalog::{CatalogError, ColumnStore, DurableError, Replayer};

/// What one [`catch_up`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatchUp {
    /// Commits applied to the target (epochs it actually advanced).
    pub applied: u64,
    /// The target's epoch after the replay.
    pub epoch: u64,
    /// `true` if the source reported its changelog fully drained *and*
    /// every pulled record replayed (no gap). `false` means call again:
    /// either more records exist, or pruning outran the pull and the
    /// target needs a fresher base first.
    pub caught_up: bool,
}

/// Replays `source`'s changelog past `from` onto `target`.
///
/// `replay` holds the target's replay state: pass the same
/// [`Replayer`] to every call for one target, starting from
/// [`Replayer::new`] on an empty target. `from` should be the target's
/// current epoch (`target.epoch()`); records at or before it are
/// skipped, so a conservative (lower) value is safe, merely wasteful.
///
/// # Errors
///
/// Transport and protocol failures from [`Site::tail`] pass through.
/// [`SiteError::Store`] reports a record the replay refuses — including
/// a register record that *contradicts* the config `replay` knows for
/// that column, or that names a column the target hosts outside this
/// replay: a real divergence, never skipped silently.
pub fn catch_up(
    target: &dyn ColumnStore,
    source: &dyn Site,
    replay: &mut Replayer,
    from: u64,
) -> Result<CatchUp, SiteError> {
    let tail = source.tail(from)?;
    let (applied, gap) = replay
        .apply_all(target, tail.records)
        .map_err(|e| match e {
            DurableError::Store(e) => SiteError::Store(e),
            other => SiteError::Store(CatalogError::Durability(other.to_string())),
        })?;
    Ok(CatchUp {
        applied,
        epoch: target.epoch(),
        caught_up: tail.caught_up && gap.is_none(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SiteServer;
    use crate::site::LocalSite;
    use crate::RemoteSite;
    use dh_catalog::durable::{DurableOptions, DurableStore, StoreKind};
    use dh_catalog::{AlgoSpec, Catalog, ColumnConfig, WriteBatch};
    use dh_core::{MemoryBudget, ReadHistogram, UpdateOp};
    use dh_wal::tmp::TempDir;
    use dh_wal::SyncPolicy;
    use std::sync::Arc;

    #[test]
    fn a_fresh_store_catches_up_bit_identically_over_the_wire() {
        let dir = TempDir::new("catchup_wire");
        let options = DurableOptions {
            sync: SyncPolicy::Off,
            ..DurableOptions::default()
        };
        let store = Arc::new(DurableStore::open(dir.path(), StoreKind::Single, options).unwrap());
        store
            .register(
                "c",
                ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0)),
            )
            .unwrap();
        for round in 0..5 {
            let mut batch = WriteBatch::new();
            for v in 0..50 {
                batch.insert("c", (round * 7 + v) % 40);
            }
            store.commit(batch).unwrap();
        }
        let server = SiteServer::spawn(Arc::clone(&store)).unwrap();
        let source = RemoteSite::new("src", server.addr());

        let target = Catalog::new();
        let mut replay = Replayer::new();
        let report = catch_up(&target, &source, &mut replay, 0).unwrap();
        assert!(report.caught_up);
        assert_eq!(report.applied, 5);
        assert_eq!(report.epoch, 5);
        let want = store.snapshot("c").unwrap();
        let got = target.snapshot("c").unwrap();
        assert_eq!(
            want.spans()
                .iter()
                .map(|s| (s.lo.to_bits(), s.hi.to_bits(), s.count.to_bits()))
                .collect::<Vec<_>>(),
            got.spans()
                .iter()
                .map(|s| (s.lo.to_bits(), s.hi.to_bits(), s.count.to_bits()))
                .collect::<Vec<_>>(),
        );

        // Idempotent: replaying from 0 again applies nothing new.
        let again = catch_up(&target, &source, &mut replay, 0).unwrap();
        assert!(again.caught_up);
        assert_eq!(again.applied, 0);
        assert_eq!(again.epoch, 5);
    }

    #[test]
    fn same_barrier_rebuild_stack_catches_up_over_the_wire() {
        use dh_catalog::{RebuildPlan, ShardPlan, ShardedCatalog};

        let dir = TempDir::new("catchup_same_barrier");
        let options = DurableOptions {
            sync: SyncPolicy::Off,
            checkpoint_every: None,
            ..DurableOptions::default()
        };
        let store = Arc::new(DurableStore::open(dir.path(), StoreKind::Sharded, options).unwrap());
        store
            .register(
                "c",
                ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0))
                    .with_seed(3)
                    .with_plan(ShardPlan::new(0, 119, 4).unwrap()),
            )
            .unwrap();
        // Skewed commits, then two shape changes with no commit between
        // them: both rebuild records carry the same barrier and only
        // their ordinals keep them apart during replay.
        for round in 0..5i64 {
            let mut batch = WriteBatch::new();
            for v in 0..32 {
                batch.insert("c", (round * 7 + v) % 40);
            }
            store.commit(batch).unwrap();
        }
        assert!(store.reshard("c").unwrap());
        assert!(store
            .rebuild("c", RebuildPlan::new().with_shards(8))
            .unwrap());
        let mut batch = WriteBatch::new();
        batch.insert("c", 60);
        store.commit(batch).unwrap();

        let server = SiteServer::spawn(Arc::clone(&store)).unwrap();
        let source = RemoteSite::new("src", server.addr());
        let target = ShardedCatalog::new();
        let report = catch_up(&target, &source, &mut Replayer::new(), 0).unwrap();
        assert!(report.caught_up);
        assert_eq!(report.epoch, store.epoch());
        assert_eq!(
            target.column_shape("c").unwrap().unwrap().shards,
            8,
            "the second same-barrier rebuild was skipped"
        );
        assert_eq!(
            target.shard_load("c").unwrap(),
            store.shard_load("c").unwrap()
        );
        let want = store.snapshot("c").unwrap();
        let got = target.snapshot("c").unwrap();
        assert_eq!(
            want.spans()
                .iter()
                .map(|s| (s.lo.to_bits(), s.hi.to_bits(), s.count.to_bits()))
                .collect::<Vec<_>>(),
            got.spans()
                .iter()
                .map(|s| (s.lo.to_bits(), s.hi.to_bits(), s.count.to_bits()))
                .collect::<Vec<_>>(),
        );
    }

    /// `column`'s spans as raw bits, for bit-identity checks.
    fn span_bits(store: &dyn ColumnStore, column: &str) -> Vec<(u64, u64, u64)> {
        let snap = store.snapshot(column).unwrap();
        let bits = |s: &dh_core::BucketSpan| (s.lo.to_bits(), s.hi.to_bits(), s.count.to_bits());
        snap.spans().iter().map(bits).collect()
    }

    #[test]
    fn repeated_catch_up_skips_a_trailing_same_barrier_rebuild_stack() {
        use dh_catalog::{RebuildPlan, ShardPlan, ShardedCatalog};

        let dir = TempDir::new("catchup_repeat");
        let options = DurableOptions {
            sync: SyncPolicy::Off,
            checkpoint_every: None,
            ..DurableOptions::default()
        };
        let store = Arc::new(DurableStore::open(dir.path(), StoreKind::Sharded, options).unwrap());
        store
            .register(
                "c",
                ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0))
                    .with_seed(3)
                    .with_plan(ShardPlan::new(0, 119, 4).unwrap()),
            )
            .unwrap();
        for round in 0..20i64 {
            let mut batch = WriteBatch::new();
            for v in 0..32i64 {
                batch.insert("c", ((round * 7 + v) % 40) * (v % 3 + 1));
            }
            store.commit(batch).unwrap();
        }
        // Two shape changes at one barrier, with no commit after them.
        let dado = RebuildPlan::new().with_shards(16).with_spec(AlgoSpec::Dado);
        assert!(store.rebuild("c", dado).unwrap());
        let dc = RebuildPlan::new().with_shards(4).with_spec(AlgoSpec::Dc);
        assert!(store.rebuild("c", dc).unwrap());

        let server = SiteServer::spawn(Arc::clone(&store)).unwrap();
        let source = RemoteSite::new("src", server.addr());
        let target = ShardedCatalog::new();
        let mut replay = Replayer::new();
        assert!(
            catch_up(&target, &source, &mut replay, 0)
                .unwrap()
                .caught_up
        );

        // The next pull re-reads the segment that holds both rebuilds at
        // the target's epoch; the replayer's ordinals must skip them.
        let mut batch = WriteBatch::new();
        batch.insert("c", 60);
        store.commit(batch).unwrap();
        let report = catch_up(&target, &source, &mut replay, target.epoch()).unwrap();
        assert!(report.caught_up);
        assert_eq!(report.applied, 1);
        assert_eq!(report.epoch, store.epoch());
        assert_eq!(
            target.column_shape("c").unwrap(),
            store.column_shape("c").unwrap()
        );
        assert_eq!(
            target.shard_load("c").unwrap(),
            store.shard_load("c").unwrap()
        );
        assert_eq!(span_bits(&target, "c"), span_bits(store.as_ref(), "c"));
    }

    #[test]
    fn a_register_that_contradicts_the_target_is_a_store_error() {
        // A durable source whose log registers `c` as DC with `kb`.
        let source = |name: &str, kb: f64| {
            let dir = TempDir::new(name);
            let options = DurableOptions {
                sync: SyncPolicy::Off,
                ..DurableOptions::default()
            };
            let store =
                Arc::new(DurableStore::open(dir.path(), StoreKind::Single, options).unwrap());
            let config = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(kb));
            store.register("c", config).unwrap();
            store.apply("c", &[UpdateOp::Insert(5)]).unwrap();
            let server = SiteServer::spawn(store).unwrap();
            let site = RemoteSite::new(name, server.addr());
            (dir, server, site)
        };
        let (_dir1, _server1, one_kb) = source("catchup_reg_1kb", 1.0);
        let (_dir4, _server4, four_kb) = source("catchup_reg_4kb", 4.0);

        // The target hosts `c` with another budget than the log's.
        let target = Catalog::new();
        let config = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0));
        target.register("c", config).unwrap();
        let got = catch_up(&target, &four_kb, &mut Replayer::new(), 0);
        assert!(matches!(got, Err(SiteError::Store(_))), "{got:?}");
        assert_eq!(target.epoch(), 0);

        // The replay itself registered `c`; a log that disagrees later
        // is refused too.
        let target = Catalog::new();
        let mut replay = Replayer::new();
        assert!(
            catch_up(&target, &one_kb, &mut replay, 0)
                .unwrap()
                .caught_up
        );
        let got = catch_up(&target, &four_kb, &mut replay, 0);
        assert!(
            matches!(got, Err(SiteError::Store(CatalogError::Durability(ref why))) if why.contains("contradicts")),
            "{got:?}"
        );
    }

    #[test]
    fn tailing_a_local_bare_catalog_is_unsupported() {
        let source = LocalSite::new("a", Box::new(Catalog::new()));
        let target = Catalog::new();
        assert!(matches!(
            catch_up(&target, &source, &mut Replayer::new(), 0),
            Err(SiteError::Unsupported(_))
        ));
    }
}
