//! Query-execution vocabulary types (paper §III-E, Algorithm 4).
//!
//! The execution loop itself lives in [`crate::engine`]; this module keeps
//! the types it speaks — results, strategies, and work counters.
//!
//! The paper's three strategies, composable exactly as the Figure 7
//! ablation studies them, plus this repository's packed scan:
//!
//! * [`SearchStrategy::FullScan`] — the "Heap" baseline: accumulate all
//!   `m` lookup-table entries for every encoded vector.
//! * [`SearchStrategy::EarlyAbandon`] — subspace skipping: stop
//!   accumulating a vector's distance the moment it exceeds the k-th best
//!   so far. Because VAQ orders subspaces by descending variance, the
//!   first few terms already approximate the full distance well, so most
//!   vectors abandon early. EA is *exact* with respect to the ADC
//!   ranking — it returns the same top-k as the full scan.
//! * [`SearchStrategy::TiEa`] — data skipping + subspace skipping: visit
//!   only the closest fraction of TI clusters; inside each sorted cluster,
//!   two binary searches drop every member the triangle inequality can
//!   prune, and the survivors go through the early-abandon loop. Visiting
//!   all clusters keeps the ADC ranking exact; visiting a fraction is the
//!   approximation knob the paper tunes (25% / 10%).
//! * [`SearchStrategy::Quantized`] — the Quick-ADC-style SIMD scan: sum
//!   8-bit-quantized tables over the blocked code layout, prune every
//!   vector whose certified lower bound cannot beat the current k-th
//!   best, and rerank the survivors through the exact `f32` tables.
//!   Exact with respect to the ADC ranking (identical results to
//!   [`SearchStrategy::EarlyAbandon`]); indexes whose subspaces all
//!   exceed 8 bits transparently fall back to the early-abandon loop.

use std::cmp::Ordering;
use std::ops::{Add, AddAssign};

/// One search result: database row and *unsquared* approximate (ADC)
/// distance, as Algorithm 4 reports (`distance = sqrt(distance)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Database row index.
    pub index: u32,
    /// Approximate Euclidean distance to the query.
    pub distance: f32,
}

impl Eq for Neighbor {}
impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        // `total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`: the latter
        // makes NaN compare Equal to *everything*, a non-transitive order
        // that silently corrupts the top-k BinaryHeap. Under total order,
        // NaN sorts above +inf, so a poisoned distance loses every
        // "is it better" comparison instead of scrambling the heap.
        self.distance.total_cmp(&other.distance).then_with(|| self.index.cmp(&other.index))
    }
}

/// Query execution strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchStrategy {
    /// Plain heap scan: all lookups for every vector.
    FullScan,
    /// Early-abandon lookups (subspace skipping) over every vector.
    EarlyAbandon,
    /// Triangle-inequality data skipping over the closest
    /// `visit_frac` of clusters, with early abandoning inside.
    TiEa {
        /// Fraction of TI clusters to visit, in `(0, 1]` (paper: 0.25 and
        /// 0.10).
        visit_frac: f64,
    },
    /// SIMD quantized-table scan with exact rerank (Quick-ADC style).
    /// Same results as [`SearchStrategy::EarlyAbandon`].
    Quantized,
}

/// Counters describing how much work a query did — used by the Figure 7
/// pruning ablation and by tests asserting that pruning actually prunes.
///
/// Stats are additive: summing the per-query stats of a batch (via `+` /
/// `+=`) yields the batch totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Encoded vectors whose distance accumulation started.
    pub vectors_visited: usize,
    /// Encoded vectors skipped outright by the triangle inequality (or by
    /// not visiting their cluster).
    pub vectors_skipped: usize,
    /// Individual table lookups performed.
    pub lookups: usize,
    /// Lookups avoided by early abandoning (subspaces not accumulated).
    pub lookups_skipped: usize,
    /// Vectors dismissed by the quantized scan's lower bound alone,
    /// without touching the exact `f32` tables.
    pub quantized_pruned: usize,
    /// Times the lookup-table arena had to grow while preparing this
    /// query's tables. Zero in the steady state — the batch path asserts
    /// on this to prove per-query table allocation is gone.
    pub table_reallocations: usize,
}

impl AddAssign for SearchStats {
    fn add_assign(&mut self, rhs: SearchStats) {
        self.vectors_visited += rhs.vectors_visited;
        self.vectors_skipped += rhs.vectors_skipped;
        self.lookups += rhs.lookups;
        self.lookups_skipped += rhs.lookups_skipped;
        self.quantized_pruned += rhs.quantized_pruned;
        self.table_reallocations += rhs.table_reallocations;
    }
}

impl Add for SearchStats {
    type Output = SearchStats;
    fn add(mut self, rhs: SearchStats) -> SearchStats {
        self += rhs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_order_by_distance_then_index() {
        let a = Neighbor { index: 3, distance: 1.0 };
        let b = Neighbor { index: 1, distance: 2.0 };
        let c = Neighbor { index: 0, distance: 1.0 };
        let mut v = vec![b, a, c];
        v.sort();
        assert_eq!(v, vec![c, a, b]);
    }

    #[test]
    fn stats_sum_component_wise() {
        let a = SearchStats {
            vectors_visited: 1,
            vectors_skipped: 2,
            lookups: 3,
            lookups_skipped: 4,
            quantized_pruned: 5,
            table_reallocations: 1,
        };
        let b = SearchStats {
            vectors_visited: 10,
            vectors_skipped: 20,
            lookups: 30,
            lookups_skipped: 40,
            quantized_pruned: 50,
            table_reallocations: 0,
        };
        let mut acc = SearchStats::default();
        acc += a;
        let sum = acc + b;
        assert_eq!(
            sum,
            SearchStats {
                vectors_visited: 11,
                vectors_skipped: 22,
                lookups: 33,
                lookups_skipped: 44,
                quantized_pruned: 55,
                table_reallocations: 1,
            }
        );
    }

    #[test]
    fn nan_distance_cannot_corrupt_the_heap() {
        use std::collections::BinaryHeap;
        // Under the old `partial_cmp(..).unwrap_or(Equal)` order, NaN
        // compared Equal to everything; sift-up/down decisions became
        // inconsistent and the heap's max was no longer the max. With
        // `total_cmp`, NaN is the largest value and behaves like +inf.
        let nan = Neighbor { index: 7, distance: f32::NAN };
        let near = Neighbor { index: 1, distance: 0.5 };
        let far = Neighbor { index: 2, distance: 99.0 };
        assert_eq!(nan.cmp(&near), Ordering::Greater);
        assert_eq!(nan.cmp(&far), Ordering::Greater);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);

        let mut heap = BinaryHeap::new();
        for x in [far, nan, near] {
            heap.push(x);
        }
        // The NaN entry is the worst element, so a bounded top-k heap
        // evicts it first and the real neighbors survive.
        assert_eq!(heap.pop().map(|x| x.index), Some(7));
        assert_eq!(heap.pop(), Some(far));
        assert_eq!(heap.pop(), Some(near));
    }
}
