//! Subspace construction and partial importance balancing (paper §III-B
//! and the balancing prologue of Algorithm 2).
//!
//! Dimensions here are *principal components*, already sorted by descending
//! eigenvalue. A [`SubspaceLayout`] records which PCs belong to which
//! subspace (as a permutation plus boundaries) together with each
//! subspace's variance share — the `W` vector the bit allocator maximizes
//! against.

use crate::VaqError;
use vaq_kmeans::kmeans_1d;

/// How to carve PCs into subspaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubspaceMode {
    /// Equal-width contiguous chunks (remainder spread over the first
    /// chunks), like PQ/OPQ.
    Uniform,
    /// Non-uniform subspaces obtained by 1-D k-means over the variance
    /// vector: PCs explaining similar variance shares group together
    /// (paper §III-B "Clustering of Dimensions").
    Clustered,
}

/// The derived subspace structure.
#[derive(Debug, Clone)]
pub struct SubspaceLayout {
    /// Permutation: position in the *encoded* order → original PC index.
    /// Applying it to the eigenvector columns yields the projection basis.
    pub perm: Vec<usize>,
    /// Half-open `(start, end)` ranges into the permuted order, one per
    /// subspace, in descending importance.
    pub ranges: Vec<(usize, usize)>,
    /// Variance share of each subspace (sums to ≤ 1), aligned with
    /// `ranges`.
    pub variance_share: Vec<f64>,
    /// Per-PC normalized variance in the permuted order.
    pub pc_share: Vec<f64>,
}

impl SubspaceLayout {
    /// Builds a layout from per-PC variances (descending), carving `m`
    /// subspaces with the given mode and optionally applying the partial
    /// balancing swaps.
    pub fn build(
        variances: &[f64],
        m: usize,
        mode: SubspaceMode,
        partial_balance: bool,
        seed: u64,
    ) -> Result<SubspaceLayout, VaqError> {
        let d = variances.len();
        if d == 0 {
            return Err(VaqError::EmptyData);
        }
        if m == 0 || m > d {
            return Err(VaqError::BadConfig(format!(
                "{m} subspaces out of range for {d} dimensions"
            )));
        }
        // Normalize to shares (paper Eq. 6 — callers usually pass
        // eigenvalues; normalization makes the layout scale-free).
        let total: f64 = variances.iter().map(|v| v.abs()).sum();
        let share: Vec<f64> = if total > 0.0 {
            variances.iter().map(|v| v.abs() / total).collect()
        } else {
            vec![1.0 / d as f64; d]
        };

        let mut boundaries = match mode {
            SubspaceMode::Uniform => uniform_boundaries(d, m),
            SubspaceMode::Clustered => clustered_boundaries(&share, m, seed)?,
        };
        repair_ordering(&share, &mut boundaries);

        let mut perm: Vec<usize> = (0..d).collect();
        if partial_balance {
            partial_balance_swaps(&mut perm, &share, &boundaries);
        }

        let pc_share: Vec<f64> = perm.iter().map(|&i| share[i]).collect();
        let ranges = boundaries_to_ranges(&boundaries, d);
        let variance_share: Vec<f64> =
            ranges.iter().map(|&(lo, hi)| pc_share[lo..hi].iter().sum()).collect();
        Ok(SubspaceLayout { perm, ranges, variance_share, pc_share })
    }

    /// Number of subspaces.
    pub fn num_subspaces(&self) -> usize {
        self.ranges.len()
    }

    /// Total dimensionality.
    pub fn dim(&self) -> usize {
        self.perm.len()
    }
}

/// Boundaries (exclusive end of each subspace except the implicit last).
fn uniform_boundaries(d: usize, m: usize) -> Vec<usize> {
    let base = d / m;
    let extra = d % m;
    let mut out = Vec::with_capacity(m - 1);
    let mut pos = 0;
    for i in 0..m - 1 {
        pos += base + usize::from(i < extra);
        out.push(pos);
    }
    out
}

/// Clusters the (descending) variance shares with 1-D k-means; since the
/// input is sorted, nearest-centroid assignment yields contiguous segments.
/// Splits the largest segments when k-means produces fewer than `m`.
fn clustered_boundaries(share: &[f64], m: usize, seed: u64) -> Result<Vec<usize>, VaqError> {
    let d = share.len();
    let labels = kmeans_1d(share, m, seed)?;
    // Walk in order; new segment whenever the cluster label changes.
    let mut boundaries = Vec::new();
    for i in 1..d {
        if labels[i] != labels[i - 1] {
            boundaries.push(i);
        }
    }
    // Too many segments (non-contiguous labels — only possible with exact
    // ties): merge the smallest adjacent pair until m segments remain.
    while boundaries.len() + 1 > m {
        // Remove the boundary whose merge loses least structure: the one
        // separating the two smallest segments.
        let ranges = boundaries_to_ranges(&boundaries, d);
        let mut best = 0;
        let mut best_size = usize::MAX;
        for (i, w) in ranges.windows(2).enumerate() {
            let size = (w[0].1 - w[0].0) + (w[1].1 - w[1].0);
            if size < best_size {
                best_size = size;
                best = i;
            }
        }
        boundaries.remove(best);
    }
    // Too few: split the widest segment in half until m segments exist.
    while boundaries.len() + 1 < m {
        let ranges = boundaries_to_ranges(&boundaries, d);
        let Some((widest, &(lo, hi))) =
            ranges.iter().enumerate().max_by_key(|(_, &(lo, hi))| hi - lo)
        else {
            // `boundaries_to_ranges` always yields at least one range.
            return Err(VaqError::BadConfig(format!(
                "cannot form {m} non-empty subspaces from {d} dimensions"
            )));
        };
        if hi - lo < 2 {
            return Err(VaqError::BadConfig(format!(
                "cannot form {m} non-empty subspaces from {d} dimensions"
            )));
        }
        let mid = lo + (hi - lo) / 2;
        boundaries.insert(widest, mid);
    }
    Ok(boundaries)
}

fn boundaries_to_ranges(boundaries: &[usize], d: usize) -> Vec<(usize, usize)> {
    let mut ranges = Vec::with_capacity(boundaries.len() + 1);
    let mut lo = 0;
    for &b in boundaries {
        ranges.push((lo, b));
        lo = b;
    }
    ranges.push((lo, d));
    ranges
}

/// Paper §III-B "Preserving Subspace Importance Ordering": when an earlier
/// subspace explains less total variance than the next one, move the first
/// dimension of the next subspace into it (shift the boundary right) until
/// the ordering holds.
fn repair_ordering(share: &[f64], boundaries: &mut [usize]) {
    let d = share.len();
    let var_of = |lo: usize, hi: usize| -> f64 { share[lo..hi].iter().sum() };
    loop {
        let ranges = boundaries_to_ranges(boundaries, d);
        let mut fixed = true;
        for i in 0..ranges.len() - 1 {
            let (lo0, hi0) = ranges[i];
            let (lo1, hi1) = ranges[i + 1];
            if var_of(lo0, hi0) < var_of(lo1, hi1) && hi1 - lo1 > 1 {
                // Move one dimension from subspace i+1 into subspace i.
                boundaries[i] += 1;
                fixed = false;
                break;
            }
        }
        if fixed {
            break;
        }
    }
}

/// Partial importance balancing (paper §III-C and Algorithm 2 lines 2–9):
/// keep each subspace's best PC in place and swap its 2nd, 3rd, ... best
/// PCs with the worst (last) PCs of the 2nd, 3rd, ... following subspaces —
/// reverting any swap that would break the descending subspace-variance
/// ordering, and stopping that subspace's swaps at the first violation.
fn partial_balance_swaps(perm: &mut [usize], share: &[f64], boundaries: &[usize]) {
    let d = share.len();
    let ranges = boundaries_to_ranges(boundaries, d);
    let m = ranges.len();
    let subspace_var = |perm: &[usize], r: &(usize, usize)| -> f64 {
        perm[r.0..r.1].iter().map(|&i| share[i]).sum()
    };
    let is_sorted = |perm: &[usize]| -> bool {
        let vars: Vec<f64> = ranges.iter().map(|r| subspace_var(perm, r)).collect();
        vars.windows(2).all(|w| w[0] >= w[1] - 1e-15)
    };

    for s in 0..m {
        let (lo, hi) = ranges[s];
        // j-th swap: position lo+j (the (j+1)-th best PC of subspace s)
        // with the last position of subspace s+j.
        for j in 1..hi - lo {
            let target = s + j;
            if target >= m {
                break;
            }
            let (_, thi) = ranges[target];
            let a = lo + j;
            let b = thi - 1;
            if a >= b {
                break;
            }
            perm.swap(a, b);
            if !is_sorted(perm) {
                perm.swap(a, b);
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A steep geometric spectrum.
    fn steep(d: usize) -> Vec<f64> {
        (0..d).map(|i| (0.6f64).powi(i as i32)).collect()
    }

    #[test]
    fn uniform_layout_splits_evenly() {
        let l = SubspaceLayout::build(&steep(12), 4, SubspaceMode::Uniform, false, 0).unwrap();
        assert_eq!(l.ranges, vec![(0, 3), (3, 6), (6, 9), (9, 12)]);
        assert_eq!(l.perm, (0..12).collect::<Vec<_>>());
        assert_eq!(l.num_subspaces(), 4);
        assert_eq!(l.dim(), 12);
    }

    #[test]
    fn uniform_layout_distributes_remainder() {
        let l = SubspaceLayout::build(&steep(10), 4, SubspaceMode::Uniform, false, 0).unwrap();
        let widths: Vec<usize> = l.ranges.iter().map(|&(lo, hi)| hi - lo).collect();
        assert_eq!(widths.iter().sum::<usize>(), 10);
        assert_eq!(widths, vec![3, 3, 2, 2]);
    }

    #[test]
    fn variance_share_descends_and_sums_to_one() {
        for mode in [SubspaceMode::Uniform, SubspaceMode::Clustered] {
            let l = SubspaceLayout::build(&steep(32), 8, mode, false, 1).unwrap();
            let total: f64 = l.variance_share.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "{mode:?}: total {total}");
            for w in l.variance_share.windows(2) {
                assert!(
                    w[0] >= w[1] - 1e-12,
                    "{mode:?}: shares not descending {:?}",
                    l.variance_share
                );
            }
        }
    }

    #[test]
    fn clustered_mode_gives_nonuniform_widths_on_skewed_spectrum() {
        let l = SubspaceLayout::build(&steep(64), 8, SubspaceMode::Clustered, false, 3).unwrap();
        let widths: Vec<usize> = l.ranges.iter().map(|&(lo, hi)| hi - lo).collect();
        assert_eq!(widths.iter().sum::<usize>(), 64);
        assert_eq!(widths.len(), 8);
        let min = widths.iter().min().unwrap();
        let max = widths.iter().max().unwrap();
        assert!(max > min, "clustering a steep spectrum should give unequal widths: {widths:?}");
    }

    #[test]
    fn clustered_mode_exact_subspace_count() {
        for m in [2usize, 3, 5, 8, 16] {
            let l =
                SubspaceLayout::build(&steep(48), m, SubspaceMode::Clustered, false, 7).unwrap();
            assert_eq!(l.num_subspaces(), m);
            // Non-empty, contiguous, covering.
            assert_eq!(l.ranges[0].0, 0);
            assert_eq!(l.ranges.last().unwrap().1, 48);
            for w in l.ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0);
                assert!(w[0].1 > w[0].0);
            }
        }
    }

    #[test]
    fn perm_is_always_a_permutation() {
        for balance in [false, true] {
            for mode in [SubspaceMode::Uniform, SubspaceMode::Clustered] {
                let l = SubspaceLayout::build(&steep(40), 8, mode, balance, 11).unwrap();
                let mut p = l.perm.clone();
                p.sort_unstable();
                assert_eq!(p, (0..40).collect::<Vec<_>>(), "{mode:?}/{balance}");
            }
        }
    }

    #[test]
    fn partial_balance_preserves_global_ordering() {
        let l = SubspaceLayout::build(&steep(32), 8, SubspaceMode::Uniform, true, 0).unwrap();
        for w in l.variance_share.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "ordering broken: {:?}", l.variance_share);
        }
    }

    #[test]
    fn partial_balance_keeps_each_subspaces_top_pc() {
        let l = SubspaceLayout::build(&steep(32), 8, SubspaceMode::Uniform, true, 0).unwrap();
        // First position of every subspace must still hold the PC that led
        // that subspace before balancing (identity perm → index == lo).
        for &(lo, _) in &l.ranges {
            assert_eq!(l.perm[lo], lo, "subspace leader moved");
        }
    }

    #[test]
    fn partial_balance_spreads_importance() {
        // Variance gap between the first and last subspace must shrink (or
        // stay equal) after balancing.
        let gap = |balance: bool| {
            let l =
                SubspaceLayout::build(&steep(32), 8, SubspaceMode::Uniform, balance, 0).unwrap();
            l.variance_share[0] - l.variance_share[7]
        };
        assert!(gap(true) <= gap(false) + 1e-12);
    }

    #[test]
    fn ordering_repair_fixes_inverted_subspaces() {
        // Flat-ish spectrum where a wider later subspace would outweigh an
        // earlier narrow one without repair.
        let mut vars = vec![0.9, 0.5];
        vars.extend(std::iter::repeat_n(0.4, 6));
        let l = SubspaceLayout::build(&vars, 3, SubspaceMode::Clustered, false, 5).unwrap();
        for w in l.variance_share.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "repair failed: {:?}", l.variance_share);
        }
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(SubspaceLayout::build(&[], 1, SubspaceMode::Uniform, false, 0).is_err());
        assert!(SubspaceLayout::build(&steep(4), 0, SubspaceMode::Uniform, false, 0).is_err());
        assert!(SubspaceLayout::build(&steep(4), 5, SubspaceMode::Uniform, false, 0).is_err());
    }

    #[test]
    fn zero_variance_input_degrades_gracefully() {
        let l = SubspaceLayout::build(&[0.0; 8], 4, SubspaceMode::Uniform, true, 0).unwrap();
        let total: f64 = l.variance_share.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn m_equals_d_gives_singleton_subspaces() {
        let l = SubspaceLayout::build(&steep(6), 6, SubspaceMode::Uniform, false, 0).unwrap();
        assert!(l.ranges.iter().all(|&(lo, hi)| hi - lo == 1));
    }

    mod clustered_proptests {
        use super::*;
        use proptest::prelude::*;

        /// A degenerate spectrum of `d` values: all zero, all equal,
        /// one-hot, runs of `run` tied values, or steep enough to
        /// underflow to zero.
        fn spectrum(kind: usize, d: usize, level: f64, run: usize, at: usize) -> Vec<f64> {
            match kind {
                0 => vec![0.0; d],
                1 => vec![level; d],
                2 => (0..d).map(|i| if i == at % d { level } else { 0.0 }).collect(),
                3 => (0..d).map(|i| level * (d / run - i / run) as f64).collect(),
                _ => (0..d).map(|i| level.powi(40 * i as i32)).collect(),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Clustered construction fails only where `Uniform` does
            /// (`m ∉ 1..=d`, no dimensions), so training needs no
            /// fallback from one to the other.
            #[test]
            fn clustered_layout_builds_for_every_m_on_degenerate_spectra(
                kind in 0usize..5,
                d in 1usize..=48,
                level in 0.001f64..0.9,
                run in 2usize..12,
                at in 0usize..48,
                seed in 0u64..1_000,
            ) {
                let v = spectrum(kind, d, level, run, at);
                for m in 1..=d {
                    for balance in [false, true] {
                        let built = SubspaceLayout::build(&v, m, SubspaceMode::Clustered, balance, seed);
                        let Ok(l) = built else {
                            return Err(TestCaseError::Fail(format!("{v:?}, m {m}: {built:?}")));
                        };
                        prop_assert_eq!(l.num_subspaces(), m);
                        prop_assert!(l.ranges.iter().all(|&(lo, hi)| lo < hi), "{:?}", l.ranges);
                    }
                }
            }
        }
    }
}
