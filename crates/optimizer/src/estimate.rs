//! Selection predicates and their estimated cardinalities.

use dh_catalog::{CatalogError, ColumnStore, SnapshotSet};
use dh_core::ReadHistogram;

/// A selection predicate over one integer attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predicate {
    /// `X = v`
    Eq(i64),
    /// `X <= v`
    Le(i64),
    /// `X < v`
    Lt(i64),
    /// `X >= v`
    Ge(i64),
    /// `X > v`
    Gt(i64),
    /// `a <= X <= b`
    Between(i64, i64),
}

impl Predicate {
    /// Estimated number of qualifying tuples under the histogram.
    pub fn cardinality(&self, h: &dyn ReadHistogram) -> f64 {
        match *self {
            Predicate::Eq(v) => h.estimate_eq(v),
            Predicate::Le(v) => h.estimate_le(v),
            Predicate::Lt(v) => h.estimate_le(v - 1),
            Predicate::Ge(v) => (h.total_count() - h.estimate_le(v - 1)).max(0.0),
            Predicate::Gt(v) => (h.total_count() - h.estimate_le(v)).max(0.0),
            Predicate::Between(a, b) => h.estimate_range(a, b),
        }
    }

    /// Estimated selectivity (fraction of the relation qualifying).
    pub fn selectivity(&self, h: &dyn ReadHistogram) -> f64 {
        let total = h.total_count();
        if total <= 0.0 {
            return 0.0;
        }
        (self.cardinality(h) / total).clamp(0.0, 1.0)
    }

    /// Estimated number of qualifying tuples on `column`, read off the
    /// store's wait-free front — the serving-layer face of
    /// [`Predicate::cardinality`], written once against any
    /// [`ColumnStore`] design.
    ///
    /// Pins one epoch via [`ColumnStore::snapshot_set`] and probes
    /// *through the front cache* ([`Predicate::cardinality_in`]): the
    /// optimizer's repeated selectivity probes short-circuit in the
    /// store's predicate memo instead of touching spans.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if `column` is absent.
    pub fn cardinality_at(
        &self,
        store: &dyn ColumnStore,
        column: &str,
    ) -> Result<f64, CatalogError> {
        self.cardinality_in(&store.snapshot_set(&[column])?, column)
    }

    /// Estimated number of qualifying tuples on `column`, read off an
    /// already-pinned [`SnapshotSet`]. All reads go through the set's
    /// cached probes ([`SnapshotSet::estimate_range`] and friends), so a
    /// set served off the wait-free front memoizes every predicate shape
    /// it answers; every comparison predicate decomposes into cached
    /// range / eq / total reads at the set's single epoch.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if `column` is not in the set.
    pub fn cardinality_in(&self, set: &SnapshotSet, column: &str) -> Result<f64, CatalogError> {
        // `X <= v` as a cached range probe: the histogram CDF gives
        // `mass_in(MIN, v+1) = mass_below(v+1) - 0`, identical to
        // `estimate_le(v)`.
        let le = |v: i64| set.estimate_range(column, i64::MIN, v);
        match *self {
            Predicate::Eq(v) => set.estimate_eq(column, v),
            Predicate::Le(v) => le(v),
            Predicate::Lt(v) if v == i64::MIN => set.total_count(column).map(|_| 0.0),
            Predicate::Lt(v) => le(v - 1),
            Predicate::Ge(v) => {
                let lt = if v == i64::MIN { 0.0 } else { le(v - 1)? };
                Ok((set.total_count(column)? - lt).max(0.0))
            }
            Predicate::Gt(v) => Ok((set.total_count(column)? - le(v)?).max(0.0)),
            Predicate::Between(a, b) => set.estimate_range(column, a, b),
        }
    }

    /// Estimated selectivity on `column`, read off the store's wait-free
    /// front (one pinned epoch; cardinality and total can never straddle
    /// a commit).
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if `column` is absent.
    pub fn selectivity_at(
        &self,
        store: &dyn ColumnStore,
        column: &str,
    ) -> Result<f64, CatalogError> {
        self.selectivity_in(&store.snapshot_set(&[column])?, column)
    }

    /// Estimated selectivity on `column` off an already-pinned
    /// [`SnapshotSet`], through the cached probes (see
    /// [`Predicate::cardinality_in`]).
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if `column` is not in the set.
    pub fn selectivity_in(&self, set: &SnapshotSet, column: &str) -> Result<f64, CatalogError> {
        let total = set.total_count(column)?;
        if total <= 0.0 {
            return Ok(0.0);
        }
        Ok((self.cardinality_in(set, column)? / total).clamp(0.0, 1.0))
    }

    /// Exact number of qualifying tuples in a value multiset (ground truth
    /// for experiments).
    pub fn exact(&self, dist: &dh_core::DataDistribution) -> u64 {
        match *self {
            Predicate::Eq(v) => dist.frequency(v),
            Predicate::Le(v) => dist.count_le(v),
            Predicate::Lt(v) => dist.count_le(v - 1),
            Predicate::Ge(v) => dist.total() - dist.count_le(v - 1),
            Predicate::Gt(v) => dist.total() - dist.count_le(v),
            Predicate::Between(a, b) => dist.count_range(a, b),
        }
    }
}

/// A selectivity estimate paired with its ground truth, for error
/// reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Selectivity {
    /// Histogram estimate.
    pub estimated: f64,
    /// Exact count.
    pub exact: f64,
}

impl Selectivity {
    /// Computes both sides for one predicate.
    pub fn of(p: Predicate, h: &dyn ReadHistogram, truth: &dh_core::DataDistribution) -> Self {
        Self {
            estimated: p.cardinality(h),
            exact: p.exact(truth) as f64,
        }
    }

    /// Relative error `|est - exact| / exact` (infinite if exact is 0 but
    /// the estimate is not).
    pub fn relative_error(&self) -> f64 {
        if self.exact == 0.0 {
            if self.estimated.abs() < 1e-9 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.estimated - self.exact).abs() / self.exact
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dh_core::{BucketSpan, DataDistribution, ReadHistogram};

    struct Exact(DataDistribution);
    impl ReadHistogram for Exact {
        fn spans(&self) -> Vec<BucketSpan> {
            self.0
                .iter()
                .map(|(v, c)| BucketSpan::new(v as f64, (v + 1) as f64, c as f64))
                .collect()
        }
    }

    fn setup() -> (Exact, DataDistribution) {
        let d = DataDistribution::from_values(&[1, 2, 2, 3, 3, 3, 10]);
        (Exact(d.clone()), d)
    }

    #[test]
    fn all_predicate_forms_match_exact_on_lossless_histogram() {
        let (h, truth) = setup();
        let cases = [
            Predicate::Eq(3),
            Predicate::Le(2),
            Predicate::Lt(3),
            Predicate::Ge(3),
            Predicate::Gt(3),
            Predicate::Between(2, 3),
        ];
        for p in cases {
            let s = Selectivity::of(p, &h, &truth);
            assert!((s.estimated - s.exact).abs() < 1e-9, "{p:?}: {s:?}");
            assert_eq!(s.relative_error(), 0.0);
        }
    }

    #[test]
    fn selectivity_is_a_fraction() {
        let (h, _) = setup();
        assert!((Predicate::Le(3).selectivity(&h) - 6.0 / 7.0).abs() < 1e-9);
        assert_eq!(Predicate::Lt(0).selectivity(&h), 0.0);
        assert_eq!(Predicate::Ge(0).selectivity(&h), 1.0);
    }

    #[test]
    fn relative_error_handles_zero_truth() {
        let s = Selectivity {
            estimated: 0.0,
            exact: 0.0,
        };
        assert_eq!(s.relative_error(), 0.0);
        let s = Selectivity {
            estimated: 5.0,
            exact: 0.0,
        };
        assert!(s.relative_error().is_infinite());
    }

    #[test]
    fn complements_sum_to_total() {
        let (h, _) = setup();
        let le = Predicate::Le(3).cardinality(&h);
        let gt = Predicate::Gt(3).cardinality(&h);
        assert!((le + gt - 7.0).abs() < 1e-9);
    }
}
