//! [`Replayer`]: the one set of rules for applying changelog records to
//! a store, shared by recovery, followers and site catch-up.

use super::{config_from_record, strip_policy, DurableError};
use crate::sharded::{IngestMode, RebuildPlan};
use crate::store::{ColumnConfig, ColumnStore};
use crate::txn::WriteBatch;
use dh_core::MemoryBudget;
use dh_wal::WalRecord;
use std::collections::BTreeMap;
use std::fmt;

/// Applies changelog records to a store, one at a time, by the replay
/// rules every consumer of a log shares: recovery, `dh_replica`
/// followers and `dh_site` catch-up. It owns the per-column state those
/// rules need, so a caller that replays a store in several passes keeps
/// one `Replayer` with it. The rules are specified once, in
/// `docs/REPLICATION.md` ("Replay rules").
#[derive(Debug, Default)]
pub struct Replayer {
    /// Every column's config as registered, policies included.
    pub(super) configs: BTreeMap<String, ColumnConfig>,
    /// Per column, the highest rebuild ordinal
    /// ([`WalRecord::Rebuild::seq`]) the store is known to reflect.
    pub(super) ordinals: BTreeMap<String, u64>,
}

/// What [`Replayer::apply`] did with one record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Replayed {
    /// The store already reflects the record: a re-read after a seek,
    /// or history a restored checkpoint covers. Nothing changed.
    Covered,
    /// A register record added its column.
    Registered,
    /// A commit record published the store's next epoch.
    Committed,
    /// A rebuild record changed this column's shape at the store's
    /// current epoch.
    Rebuilt(String),
    /// The record is stamped past what the store can take next; nothing
    /// was applied.
    Gap(Gap),
}

/// The record that broke the epoch sequence (see [`Replayed::Gap`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gap {
    /// The store's epoch when the record arrived.
    pub at: u64,
    /// Which record it was, e.g. `commit 7`.
    pub record: String,
}

impl fmt::Display for Gap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch gap: store at {}, next record is {}",
            self.at, self.record
        )
    }
}

impl Replayer {
    /// A replayer for a store that holds nothing yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one record to `store`.
    ///
    /// # Errors
    /// [`DurableError::Recovery`] for a register record that contradicts
    /// its column's known config, or a record naming an unknown
    /// algorithm; [`DurableError::Store`] if the store rejects the
    /// record (a register for a column it already hosts outside this
    /// replay included).
    pub fn apply(
        &mut self,
        store: &dyn ColumnStore,
        record: WalRecord,
    ) -> Result<Replayed, DurableError> {
        let at = store.epoch();
        match record {
            WalRecord::Register { column, config } => {
                let config = config_from_record(&config)?;
                match self.configs.get(&column) {
                    Some(known) if *known == config => Ok(Replayed::Covered),
                    Some(known) => Err(DurableError::Recovery(format!(
                        "register record for '{column}' contradicts its known config \
                         ({config:?} vs {known:?})"
                    ))),
                    None => {
                        store.register(&column, strip_policy(&config))?;
                        self.configs.insert(column, config);
                        Ok(Replayed::Registered)
                    }
                }
            }
            WalRecord::Commit { epoch, columns } => {
                if epoch <= at {
                    return Ok(Replayed::Covered);
                }
                if epoch != at + 1 {
                    let record = format!("commit {epoch}");
                    return Ok(Replayed::Gap(Gap { at, record }));
                }
                let mut batch = WriteBatch::new();
                for (column, ops) in columns {
                    batch.extend(&column, ops);
                }
                store.commit(batch)?;
                Ok(Replayed::Committed)
            }
            WalRecord::Rebuild {
                column,
                barrier,
                seq,
                shards,
                spec,
                memory_bytes,
                channel,
            } => {
                let floor = self.ordinals.get(&column).copied().unwrap_or(0);
                if barrier < at || seq <= floor {
                    // A commit past the barrier proves the rebuild is
                    // already in the store; at the barrier only the
                    // ordinal can tell a re-read from a distinct
                    // same-barrier rebuild.
                    self.ordinals.insert(column, floor.max(seq));
                    return Ok(Replayed::Covered);
                }
                if barrier > at {
                    let record = format!("rebuild {seq} of '{column}' at barrier {barrier}");
                    return Ok(Replayed::Gap(Gap { at, record }));
                }
                // The record carries the plan's deltas; resolving them
                // against the store state at the same barrier
                // reproduces the live rebuild bit-identically.
                let plan = plan_from_deltas(shards, spec.as_deref(), memory_bytes, channel)?;
                store.rebuild(&column, plan)?;
                self.ordinals.insert(column.clone(), seq);
                Ok(Replayed::Rebuilt(column))
            }
        }
    }

    /// Applies `records` in order until one breaks the epoch sequence,
    /// returning how many commits were applied and the gap that stopped
    /// the replay, if any.
    ///
    /// # Errors
    /// As [`Replayer::apply`].
    pub fn apply_all(
        &mut self,
        store: &dyn ColumnStore,
        records: impl IntoIterator<Item = WalRecord>,
    ) -> Result<(u64, Option<Gap>), DurableError> {
        let mut committed = 0;
        for record in records {
            match self.apply(store, record)? {
                Replayed::Committed => committed += 1,
                Replayed::Gap(gap) => return Ok((committed, Some(gap))),
                _ => {}
            }
        }
        Ok((committed, None))
    }
}

/// Decodes the shape deltas of a logged [`WalRecord::Rebuild`] back into
/// the [`RebuildPlan`] to replay.
///
/// # Errors
/// [`DurableError::Recovery`] if the record names an unknown algorithm.
fn plan_from_deltas(
    shards: Option<u64>,
    spec: Option<&str>,
    memory_bytes: Option<u64>,
    channel: Option<bool>,
) -> Result<RebuildPlan, DurableError> {
    let mut plan = RebuildPlan::new();
    plan.shards = shards.map(|k| k as usize);
    if let Some(label) = spec {
        plan.spec = Some(label.parse().map_err(|e| {
            DurableError::Recovery(format!("unknown algorithm in rebuild record: {e}"))
        })?);
    }
    plan.memory = memory_bytes.map(|bytes| MemoryBudget::from_bytes(bytes as usize));
    plan.ingest_mode = channel.map(|ch| {
        if ch {
            IngestMode::Channel
        } else {
            IngestMode::Locked
        }
    });
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::super::config_to_record;
    use super::*;
    use crate::catalog::CatalogError;
    use crate::sharded::{ShardPlan, ShardedCatalog};
    use crate::spec::AlgoSpec;
    use crate::Catalog;
    use dh_core::UpdateOp;

    fn register(config: ColumnConfig) -> WalRecord {
        WalRecord::Register {
            column: "c".into(),
            config: config_to_record(&config),
        }
    }

    fn commit(epoch: u64) -> WalRecord {
        WalRecord::Commit {
            epoch,
            columns: vec![("c".into(), vec![UpdateOp::Insert(epoch as i64)])],
        }
    }

    /// A rebuild to `2 + seq` shards, so each ordinal leaves its mark.
    fn rebuild(barrier: u64, seq: u64) -> WalRecord {
        WalRecord::Rebuild {
            column: "c".into(),
            barrier,
            seq,
            shards: Some(2 + seq),
            spec: None,
            memory_bytes: None,
            channel: None,
        }
    }

    #[test]
    fn each_record_is_covered_applied_or_a_gap() {
        let store = ShardedCatalog::new();
        let config = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0))
            .with_plan(ShardPlan::new(0, 99, 2).unwrap());
        let mut replay = Replayer::new();
        let mut step = |record| replay.apply(&store, record).unwrap();
        let rebuilt = || Replayed::Rebuilt("c".into());

        assert_eq!(step(register(config)), Replayed::Registered);
        assert_eq!(step(register(config)), Replayed::Covered);
        assert_eq!(step(commit(1)), Replayed::Committed);
        assert_eq!(step(commit(1)), Replayed::Covered);
        let gap = Gap {
            at: 1,
            record: "commit 3".into(),
        };
        assert_eq!(step(commit(3)), Replayed::Gap(gap));
        // Two rebuilds at one barrier both apply; re-reads of either
        // are covered by the ordinal alone.
        assert_eq!(step(rebuild(1, 1)), rebuilt());
        assert_eq!(step(rebuild(1, 2)), rebuilt());
        assert_eq!(step(rebuild(1, 1)), Replayed::Covered);
        assert_eq!(step(rebuild(1, 2)), Replayed::Covered);
        assert!(matches!(step(rebuild(2, 3)), Replayed::Gap(_)));
        assert_eq!(step(commit(2)), Replayed::Committed);
        // A commit past its barrier proves a rebuild applied, and raises
        // the ordinal floor to it.
        assert_eq!(step(rebuild(1, 3)), Replayed::Covered);
        assert_eq!(step(rebuild(2, 3)), Replayed::Covered);
        assert_eq!(step(rebuild(2, 4)), rebuilt());
        assert_eq!(store.column_shape("c").unwrap().unwrap().shards, 6);
        assert_eq!(store.epoch(), 2);
    }

    #[test]
    fn a_register_must_match_the_known_config() {
        let one_kb = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0));
        let four_kb = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(4.0));
        let store = Catalog::new();
        let mut replay = Replayer::new();
        replay.apply(&store, register(one_kb)).unwrap();
        assert!(matches!(
            replay.apply(&store, register(four_kb)),
            Err(DurableError::Recovery(why)) if why.contains("contradicts")
        ));
        // A column the store hosts outside the replay cannot be checked.
        let store = Catalog::new();
        store.register("c", one_kb).unwrap();
        assert!(matches!(
            Replayer::new().apply(&store, register(one_kb)),
            Err(DurableError::Store(CatalogError::DuplicateColumn(_)))
        ));
    }
}
