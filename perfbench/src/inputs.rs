//! Seeded inputs: one update stream per column, its exact live
//! multiset, and the predicate shapes the readers issue.

use dh_catalog::{CatalogError, ColumnStore, Snapshot};
use dh_core::{DataDistribution, ReadHistogram, UpdateOp};
use dh_gen::{SyntheticConfig, SyntheticDataset, UpdateStream, WorkloadKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inclusive value domain of every column (the paper's `[0, 5000]`).
pub const DOMAIN: (i64, i64) = (0, 5000);

/// Values drawn per stream chunk.
const CHUNK_VALUES: usize = 4096;

/// Paper §7 workload 1(c): random insertions, each followed by a random
/// deletion of a live value with probability 0.25.
const KIND: WorkloadKind = WorkloadKind::InsertionsWithRandomDeletions {
    delete_probability: 0.25,
};

/// SplitMix64 finalizer: derives independent seeds from one run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One column's own, unbounded update stream.
///
/// The stream is a sequence of `dh_gen` 1(c) chunks over the column's
/// own synthetic distribution. Each chunk only deletes values it
/// inserted itself, so the concatenation never deletes a value the
/// column does not hold, and the live multiset is the sum of the
/// chunks' live multisets.
pub struct ColumnStream {
    data: SyntheticDataset,
    seed: u64,
    chunk_no: u64,
    chunk: UpdateStream,
    pos: usize,
    /// Live multiset of every finished chunk.
    finished: DataDistribution,
}

impl ColumnStream {
    /// The stream of the column with this seed.
    pub fn new(seed: u64) -> Self {
        let data = SyntheticConfig::default()
            .with_total_points(CHUNK_VALUES as u64)
            .generate(seed);
        let chunk = UpdateStream::build(&data.values, KIND, mix(seed, 0));
        ColumnStream {
            data,
            seed,
            chunk_no: 0,
            chunk,
            pos: 0,
            finished: DataDistribution::new(),
        }
    }

    /// The next `n` ops of the stream.
    pub fn next_ops(&mut self, n: usize) -> Vec<UpdateOp> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            if self.pos == self.chunk.len() {
                for v in self.chunk.final_multiset() {
                    self.finished.insert(v);
                }
                self.chunk_no += 1;
                let values = self
                    .data
                    .resample(CHUNK_VALUES, mix(self.seed, 2 * self.chunk_no));
                self.chunk =
                    UpdateStream::build(&values, KIND, mix(self.seed, 2 * self.chunk_no + 1));
                self.pos = 0;
            }
            let take = (n - out.len()).min(self.chunk.len() - self.pos);
            out.extend(
                self.chunk.updates()[self.pos..self.pos + take]
                    .iter()
                    .map(|&u| UpdateOp::from(u)),
            );
            self.pos += take;
        }
        out
    }

    /// The exact live multiset of every op handed out so far.
    pub fn truth(&self) -> DataDistribution {
        let mut live = self.finished.clone();
        for v in self.chunk.live_multiset_after(self.pos) {
            live.insert(v);
        }
        live
    }
}

/// One read a client issues against a column.
#[derive(Debug, Clone)]
pub enum Shape {
    /// `estimate_range(column, a, b)`.
    Range(String, i64, i64),
    /// `estimate_eq(column, v)`.
    Eq(String, i64),
    /// `total_count(column)`.
    Total(String),
}

impl Shape {
    /// `per_column` shapes for each column: one total, a quarter
    /// equalities, the rest ranges of every width.
    pub fn set(columns: &[String], per_column: usize, seed: u64) -> Vec<Shape> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(columns.len() * per_column);
        for column in columns {
            for i in 0..per_column {
                let shape = match i {
                    3 => Shape::Total(column.clone()),
                    _ if i % 4 == 1 => {
                        Shape::Eq(column.clone(), rng.gen_range(DOMAIN.0..=DOMAIN.1))
                    }
                    _ => {
                        let a = rng.gen_range(DOMAIN.0..=DOMAIN.1);
                        let width = rng.gen_range(1..=DOMAIN.1 / 2);
                        Shape::Range(column.clone(), a, (a + width).min(DOMAIN.1))
                    }
                };
                out.push(shape);
            }
        }
        out
    }

    /// The column the shape reads.
    pub fn column(&self) -> &str {
        match self {
            Shape::Range(c, ..) | Shape::Eq(c, _) | Shape::Total(c) => c,
        }
    }

    /// The estimate, through the store's serving path.
    pub fn on_store(&self, store: &dyn ColumnStore) -> Result<f64, CatalogError> {
        match self {
            Shape::Range(c, a, b) => store.estimate_range(c, *a, *b),
            Shape::Eq(c, v) => store.estimate_eq(c, *v),
            Shape::Total(c) => store.total_count(c),
        }
    }

    /// The same estimate recomputed from a snapshot.
    pub fn on_snapshot(&self, snap: &Snapshot) -> f64 {
        match self {
            Shape::Range(_, a, b) => snap.estimate_range(*a, *b),
            Shape::Eq(_, v) => snap.estimate_eq(*v),
            Shape::Total(_) => snap.total_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_truth_matches_a_replay() {
        let mut a = ColumnStream::new(7);
        let mut b = ColumnStream::new(7);
        // Cross several chunk boundaries.
        let ops = a.next_ops(3 * CHUNK_VALUES);
        assert_eq!(ops, b.next_ops(3 * CHUNK_VALUES));
        let mut replay = DataDistribution::new();
        for op in ops {
            match op {
                UpdateOp::Insert(v) => replay.insert(v),
                UpdateOp::Delete(v) => assert!(replay.delete(v), "deleted a value not held"),
            }
        }
        assert_eq!(replay.frequency_table(), a.truth().frequency_table());
    }
}
