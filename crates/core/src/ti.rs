//! Triangle-inequality partitioning of the encoded data (paper §III-D
//! "Enabling Data Skipping" and the second half of Algorithm 3).
//!
//! After encoding, VAQ clusters the encoded vectors around a set of
//! randomly sampled encoded vectors (their *reconstructions* over the first
//! few, most important subspaces serve as centroids), caches each code's
//! distance to its cluster centroid, and keeps each cluster sorted by that
//! distance. At query time the triangle inequality
//! `d(q, x) ≥ |d(q, c) − d(x, c)|` lets whole runs of each sorted cluster
//! be skipped with two binary searches (the paper's Figure 5 example).
//!
//! The centroids belong to the trained model: they are sampled once, at
//! train time, and every sealed segment's partition shares them through
//! one `Arc`. A segment holds only each row's (cluster, distance)
//! assignment — made once, when the row is sealed, and carried unchanged
//! through every merge and purge — so a query ranks the clusters once and
//! every segment visits the same ones.
//!
//! All distances here are *unsquared* Euclidean (the triangle inequality
//! needs a true metric) in the prefix space of the first
//! `prefix_subspaces` subspaces. A prefix of non-negative per-subspace
//! contributions lower-bounds the full ADC distance, so pruning against the
//! prefix is safe with respect to the approximate ranking.
//!
//! # Memory layout
//!
//! Members are stored struct-of-arrays: one flat index array and one flat
//! distance array, both segmented by an `offsets` table (cluster `c` owns
//! elements `offsets[c]..offsets[c + 1]`, sorted ascending by distance,
//! then by row). The two flat arrays sit behind [`U32Storage`] /
//! [`F32Storage`], so an out-of-core index can map them straight from a
//! file extent instead of copying — the binary-search pruning reads the
//! mapped distances in place.

use crate::encoder::Encoder;
use crate::sync::Arc;
use crate::VaqError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vaq_linalg::{euclidean, F32Storage, Matrix, U32Storage};

/// The TI partition of one set of encoded rows.
#[derive(Debug, Clone)]
pub struct TiPartition {
    /// Cluster centroids in prefix space (one row per cluster, as wide as
    /// the prefix); the model's, shared by every segment.
    pub(crate) centroids: Arc<Matrix>,
    /// `num_clusters + 1` boundaries into the flat member arrays.
    pub(crate) offsets: Vec<usize>,
    /// Member row indices, cluster-segmented, sorted by distance within
    /// each cluster.
    pub(crate) member_idx: U32Storage,
    /// Member centroid distances, aligned with `member_idx`.
    pub(crate) member_dist: F32Storage,
    /// Number of subspaces spanned by the prefix.
    pub(crate) prefix_subspaces: usize,
}

impl TiPartition {
    /// Builds a partition with its own centroids: `num_clusters`
    /// (clamped to `1..=n`) prefix reconstructions of rows sampled from
    /// the encoded database itself (paper: "VAQ randomly samples a few of
    /// them that form the cluster centroids"), then every row assigned to
    /// them. `codes` is the row-major `n × m` code array produced by
    /// [`Encoder::encode_all`].
    pub fn build(
        encoder: &Encoder,
        codes: &[u16],
        n: usize,
        num_clusters: usize,
        prefix_subspaces: usize,
        seed: u64,
    ) -> Result<TiPartition, VaqError> {
        if n == 0 {
            return Err(VaqError::EmptyData);
        }
        let m = encoder.num_subspaces();
        if codes.len() != n * m {
            return Err(VaqError::BadConfig(format!(
                "code array length {} does not match {n} × {m}",
                codes.len()
            )));
        }
        let prefix_subspaces = prefix_subspaces.clamp(1, m);
        let c = num_clusters.clamp(1, n);

        // Sample centroid codes *without replacement* (partial
        // Fisher–Yates over the row ids) and reconstruct their prefixes.
        // Sampling with replacement would let duplicate picks produce
        // identical centroids, and since assignment ties break toward the
        // lower cluster id, every duplicate would be a permanently dead
        // cluster.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool: Vec<u32> = (0..n as u32).collect();
        let mut centroids = Matrix::zeros(c, encoder.ranges()[prefix_subspaces - 1].1);
        for ci in 0..c {
            let j = ci + rng.gen_range(0..n - ci);
            pool.swap(ci, j);
            let pick = pool[ci] as usize;
            let rec = encoder.decode_prefix(&codes[pick * m..(pick + 1) * m], prefix_subspaces);
            centroids.row_mut(ci).copy_from_slice(&rec);
        }
        Ok(Self::assign(encoder, codes, Arc::new(centroids), prefix_subspaces))
    }

    /// Assigns every row of the `n × m` `codes` to its nearest centroid
    /// (prefix space, unsquared; ties go to the lower cluster id),
    /// parallel over rows.
    pub(crate) fn assign(
        encoder: &Encoder,
        codes: &[u16],
        centroids: Arc<Matrix>,
        prefix_subspaces: usize,
    ) -> TiPartition {
        let m = encoder.num_subspaces();
        let n = codes.len() / m;
        let mut assigned: Vec<(u32, f32)> = vec![(0, 0.0); n];
        let workers = crate::threads::worker_count(n);
        let chunk = n.div_ceil(workers).max(1);
        crate::sync::thread::scope(|scope| {
            let centroids = &centroids;
            for (w, mine) in assigned.chunks_mut(chunk).enumerate() {
                scope.spawn(move || {
                    for (j, slot) in mine.iter_mut().enumerate() {
                        let i = w * chunk + j;
                        let code = &codes[i * m..(i + 1) * m];
                        *slot = nearest(centroids, &encoder.decode_prefix(code, prefix_subspaces));
                    }
                });
            }
        });
        Self::from_assignments(centroids, &assigned, prefix_subspaces)
    }

    /// The partition in which row `i` is in cluster `assigned[i].0` at
    /// distance `assigned[i].1`: members bucketed by cluster, each cluster
    /// sorted by distance (`total_cmp`), then by row. Seal and train reach
    /// it through [`TiPartition::assign`]; compaction calls it on the
    /// [`TiPartition::assignments`] of the rows it keeps, so no distance
    /// is computed twice.
    pub(crate) fn from_assignments(
        centroids: Arc<Matrix>,
        assigned: &[(u32, f32)],
        prefix_subspaces: usize,
    ) -> TiPartition {
        let mut buckets: Vec<Vec<(f32, u32)>> = vec![Vec::new(); centroids.rows()];
        for (i, &(c, dist)) in assigned.iter().enumerate() {
            buckets[c as usize].push((dist, i as u32));
        }
        let mut offsets = Vec::with_capacity(buckets.len() + 1);
        let mut member_idx = Vec::with_capacity(assigned.len());
        let mut member_dist = Vec::with_capacity(assigned.len());
        offsets.push(0);
        for mut cl in buckets {
            cl.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            member_idx.extend(cl.iter().map(|mem| mem.1));
            member_dist.extend(cl.iter().map(|mem| mem.0));
            offsets.push(member_idx.len());
        }
        let (member_idx, member_dist) = (member_idx.into(), member_dist.into());
        TiPartition { centroids, offsets, member_idx, member_dist, prefix_subspaces }
    }

    /// Every row's `(cluster, distance)`, indexed by row — what
    /// [`TiPartition::from_assignments`] takes back. The partition must
    /// cover its rows exactly (VAQ108, audited wherever one comes in).
    pub(crate) fn assignments(&self) -> Vec<(u32, f32)> {
        let mut out = vec![(0u32, 0.0f32); self.members_total()];
        for c in 0..self.num_clusters() {
            for (&idx, &dist) in self.cluster_idx(c).iter().zip(self.cluster_dist(c)) {
                out[idx as usize] = (c as u32, dist);
            }
        }
        out
    }

    /// Reassembles a partition from persisted parts over the model's
    /// `centroids`. `None` when the boundaries are not a monotone cover of
    /// the member arrays or the arrays disagree in length — *content*
    /// invariants (index range, sorted distances) are the audit's business
    /// (VAQ108), which every load runs at open.
    pub(crate) fn from_parts(
        centroids: Arc<Matrix>,
        offsets: Vec<usize>,
        member_idx: U32Storage,
        member_dist: F32Storage,
        prefix_subspaces: usize,
    ) -> Option<TiPartition> {
        if offsets.len() != centroids.rows() + 1 || offsets.first() != Some(&0) {
            return None;
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        if offsets.last() != Some(&member_idx.len()) || member_idx.len() != member_dist.len() {
            return None;
        }
        Some(TiPartition { centroids, offsets, member_idx, member_dist, prefix_subspaces })
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total member count across all clusters.
    pub fn members_total(&self) -> usize {
        self.member_idx.len()
    }

    /// Subspaces spanned by the prefix metric.
    pub fn prefix_subspaces(&self) -> usize {
        self.prefix_subspaces
    }

    /// Dimensions spanned by the prefix metric.
    pub fn prefix_dim(&self) -> usize {
        self.centroids.cols()
    }

    /// Element range of cluster `c` inside the flat member arrays.
    pub fn cluster_range(&self, c: usize) -> (usize, usize) {
        (self.offsets[c], self.offsets[c + 1])
    }

    /// Member count of cluster `c`.
    pub fn cluster_len(&self, c: usize) -> usize {
        self.offsets[c + 1] - self.offsets[c]
    }

    /// Row indices of cluster `c`, ordered by ascending centroid distance.
    pub fn cluster_idx(&self, c: usize) -> &[u32] {
        &self.member_idx.as_slice()[self.offsets[c]..self.offsets[c + 1]]
    }

    /// Centroid distances of cluster `c`, ascending, aligned with
    /// [`TiPartition::cluster_idx`].
    pub fn cluster_dist(&self, c: usize) -> &[f32] {
        &self.member_dist.as_slice()[self.offsets[c]..self.offsets[c + 1]]
    }

    /// Exact-membership coverage check: `true` iff every row index in
    /// `0..n` appears in exactly one cluster. O(n) time and one bit per
    /// row — unlike the cheap size-sum test, this catches a
    /// double-assigned row masking an omitted one. With exactly `n`
    /// members, none out of range and none repeated is an exact cover;
    /// both are folded into flags, so a member costs no branch.
    pub fn covers_exactly(&self, n: usize) -> bool {
        let members = self.member_idx.as_slice();
        if members.len() != n {
            return false;
        }
        let mut seen = vec![0u64; n.div_ceil(64)];
        let Some(last) = seen.len().checked_sub(1) else { return true };
        let (mut outside, mut repeated) = (false, false);
        for &idx in members {
            let i = idx as usize;
            outside |= i >= n;
            // An out-of-range row lands in the last word: the verdict is
            // `false` already, whatever it sets there.
            let (word, bit) = (&mut seen[(i / 64).min(last)], 1u64 << (i % 64));
            repeated |= *word & bit != 0;
            *word |= bit;
        }
        !(outside | repeated)
    }

    /// Inserts one newly encoded vector: assigns it to its nearest
    /// centroid and places it at the sorted position, preserving the
    /// ascending-distance invariant the binary-search pruning relies on.
    /// On a mapped partition this materializes owned member arrays
    /// (copy-on-write).
    pub fn insert(&mut self, encoder: &Encoder, code: &[u16], idx: u32) {
        let (best, best_d) =
            nearest(&self.centroids, &encoder.decode_prefix(code, self.prefix_subspaces));
        let best = best as usize;
        // Same comparator as the build-time sort: `total_cmp` then index.
        // A `<`/`==` mix here would disagree with that order (and stall at
        // position 0 on NaN), breaking the sorted invariant for every
        // later binary search.
        let (start, end) = (self.offsets[best], self.offsets[best + 1]);
        let dists = &self.member_dist.as_slice()[start..end];
        let idxs = &self.member_idx.as_slice()[start..end];
        let mut lo = 0usize;
        let mut hi = end - start;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let ord = dists[mid].total_cmp(&best_d).then_with(|| idxs[mid].cmp(&idx));
            if ord == std::cmp::Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let pos = start + lo;
        self.member_idx.to_mut().insert(pos, idx);
        self.member_dist.to_mut().insert(pos, best_d);
        for o in self.offsets[best + 1..].iter_mut() {
            *o += 1;
        }
    }

    /// Unsquared distances from a projected query's prefix to every
    /// centroid.
    pub fn query_distances(&self, projected_query: &[f32]) -> Vec<f32> {
        let q = &projected_query[..self.prefix_dim()];
        self.centroids.iter_rows().map(|c| euclidean(c, q)).collect()
    }

    /// Cluster visit order for a query: ascending centroid distance.
    pub fn visit_order(&self, query_dists: &[f32]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.num_clusters() as u32).collect();
        order.sort_by(|&a, &b| query_dists[a as usize].total_cmp(&query_dists[b as usize]));
        order
    }

    /// The sub-range of a sorted cluster that the triangle inequality
    /// *cannot* prune for best-so-far `bsf`: members with
    /// `|d_qc − d_xc| < bsf`, i.e. `d_xc ∈ (d_qc − bsf, d_qc + bsf)`.
    pub fn survivor_window(&self, c: usize, d_qc: f32, bsf: f32) -> (usize, usize) {
        let dists = self.cluster_dist(c);
        if !bsf.is_finite() {
            return (0, dists.len());
        }
        let lo_bound = d_qc - bsf;
        let hi_bound = d_qc + bsf;
        let lo = dists.partition_point(|&d| d <= lo_bound);
        let hi = dists.partition_point(|&d| d < hi_bound);
        (lo, hi)
    }
}

/// The nearest centroid to a prefix reconstruction and its unsquared
/// distance; ties go to the lower cluster id.
fn nearest(centroids: &Matrix, rec: &[f32]) -> (u32, f32) {
    let mut best = (0u32, f32::INFINITY);
    for (ci, crow) in centroids.iter_rows().enumerate() {
        let d = euclidean(crow, rec);
        if d < best.1 {
            best = (ci as u32, d);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subspaces::{SubspaceLayout, SubspaceMode};

    fn setup(n: usize) -> (Matrix, Encoder, Vec<u16>) {
        let d = 8;
        let mut s = 11u64;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(d);
            for j in 0..d {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = ((s >> 40) as f32 / (1u32 << 23) as f32) - 1.0;
                row.push(v / (1.0 + j as f32));
            }
            rows.push(row);
        }
        let data = Matrix::from_rows(&rows);
        let vars: Vec<f64> = (0..d).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let layout = SubspaceLayout::build(&vars, 4, SubspaceMode::Uniform, false, 0).unwrap();
        let enc = Encoder::train(&data, &layout, &[4, 3, 2, 2], 10, 0).unwrap();
        let codes = enc.encode_all(&data);
        (data, enc, codes)
    }

    #[test]
    fn clusters_partition_all_rows() {
        let (_, enc, codes) = setup(500);
        let ti = TiPartition::build(&enc, &codes, 500, 16, 2, 1).unwrap();
        let total: usize = (0..ti.num_clusters()).map(|c| ti.cluster_len(c)).sum();
        assert_eq!(total, 500);
        assert_eq!(ti.members_total(), 500);
        // Every index appears exactly once.
        let mut seen = vec![false; 500];
        for c in 0..ti.num_clusters() {
            for &idx in ti.cluster_idx(c) {
                assert!(!seen[idx as usize], "row {idx} appears twice");
                seen[idx as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn members_sorted_ascending() {
        let (_, enc, codes) = setup(400);
        let ti = TiPartition::build(&enc, &codes, 400, 10, 2, 3).unwrap();
        for c in 0..ti.num_clusters() {
            for w in ti.cluster_dist(c).windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn insert_preserves_sorted_ascending_invariant() {
        // Regression: insert used a `<` / `==` comparator that disagreed
        // with the build-time `total_cmp` sort. Grow a partition one
        // vector at a time and re-check the invariant after every insert,
        // including the total-order tiebreak on equal distances.
        let (_, enc, codes) = setup(300);
        let mut ti = TiPartition::build(&enc, &codes[..200 * 4], 200, 8, 2, 5).unwrap();
        for i in 200..300 {
            let code = &codes[i * 4..(i + 1) * 4];
            ti.insert(&enc, code, i as u32);
            for c in 0..ti.num_clusters() {
                let (dists, idxs) = (ti.cluster_dist(c), ti.cluster_idx(c));
                for w in 0..dists.len().saturating_sub(1) {
                    let ord = dists[w].total_cmp(&dists[w + 1]).then(idxs[w].cmp(&idxs[w + 1]));
                    assert_ne!(
                        ord,
                        std::cmp::Ordering::Greater,
                        "after inserting {i}: cluster {c} out of order"
                    );
                }
            }
        }
        let total: usize = (0..ti.num_clusters()).map(|c| ti.cluster_len(c)).sum();
        assert_eq!(total, 300);
        assert_eq!(ti.members_total(), 300);
    }

    #[test]
    fn cached_distance_matches_recomputation() {
        let (_, enc, codes) = setup(300);
        let ti = TiPartition::build(&enc, &codes, 300, 8, 2, 5).unwrap();
        for c in 0..ti.num_clusters() {
            for (&idx, &dist) in ti.cluster_idx(c).iter().zip(ti.cluster_dist(c)).take(3) {
                let i = idx as usize;
                let code = &codes[i * 4..(i + 1) * 4];
                let rec = enc.decode_prefix(code, 2);
                // Distance to ITS centroid must be the minimum over all
                // centroids (assignment invariant).
                let dmin = ti
                    .centroids
                    .iter_rows()
                    .map(|crow| euclidean(crow, &rec))
                    .fold(f32::INFINITY, f32::min);
                assert!((dist - dmin).abs() < 1e-5, "cached {dist} vs recomputed {dmin}");
            }
        }
    }

    #[test]
    fn survivor_window_is_sound() {
        // Every member outside the window must satisfy |d_qc − d_xc| ≥ bsf.
        let (data, enc, codes) = setup(400);
        let ti = TiPartition::build(&enc, &codes, 400, 8, 2, 7).unwrap();
        let q = data.row(0);
        let qd = ti.query_distances(q);
        let bsf = 0.4f32;
        for c in 0..ti.num_clusters() {
            let (lo, hi) = ti.survivor_window(c, qd[c], bsf);
            for (pos, &dist) in ti.cluster_dist(c).iter().enumerate() {
                let bound = (qd[c] - dist).abs();
                if pos < lo || pos >= hi {
                    assert!(bound >= bsf - 1e-5, "pruned member violates TI: {bound} < {bsf}");
                }
            }
        }
    }

    #[test]
    fn infinite_bsf_keeps_everything() {
        let (data, enc, codes) = setup(200);
        let ti = TiPartition::build(&enc, &codes, 200, 5, 2, 9).unwrap();
        let qd = ti.query_distances(data.row(1));
        for c in 0..ti.num_clusters() {
            let (lo, hi) = ti.survivor_window(c, qd[c], f32::INFINITY);
            assert_eq!((lo, hi), (0, ti.cluster_len(c)));
        }
    }

    #[test]
    fn visit_order_sorts_by_query_distance() {
        let (data, enc, codes) = setup(300);
        let ti = TiPartition::build(&enc, &codes, 300, 12, 2, 11).unwrap();
        let qd = ti.query_distances(data.row(2));
        let order = ti.visit_order(&qd);
        for w in order.windows(2) {
            assert!(qd[w[0] as usize] <= qd[w[1] as usize]);
        }
        assert_eq!(order.len(), 12);
    }

    #[test]
    fn centroid_sampling_is_without_replacement() {
        // Regression: centroids were sampled with replacement, so on
        // small n duplicate picks produced identical centroids (and the
        // duplicates became permanently dead clusters). With c == n every
        // distinct row must appear exactly once as a centroid; a
        // with-replacement sampler passes this for one seed with
        // probability n!/n^n ≈ 5e-5 at n = 12, so six seeds cannot all
        // pass by luck.
        let n = 12;
        let (_, enc, codes) = setup(n);
        for seed in 0..6u64 {
            let ti = TiPartition::build(&enc, &codes, n, n, 2, seed).unwrap();
            let key = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            let mut got: Vec<Vec<u32>> = ti.centroids.iter_rows().map(key).collect();
            let mut want: Vec<Vec<u32>> =
                (0..n).map(|i| key(&enc.decode_prefix(&codes[i * 4..(i + 1) * 4], 2))).collect();
            got.sort();
            want.sort();
            assert_eq!(got, want, "seed {seed}: centroid multiset != row multiset");
        }
    }

    #[test]
    fn covers_exactly_accepts_a_real_partition() {
        let (_, enc, codes) = setup(300);
        let ti = TiPartition::build(&enc, &codes, 300, 10, 2, 3).unwrap();
        assert!(ti.covers_exactly(300));
        assert!(!ti.covers_exactly(299), "over-coverage accepted");
        assert!(!ti.covers_exactly(301), "under-coverage accepted");
    }

    #[test]
    fn covers_exactly_catches_double_assignment_masking_an_omission() {
        // The size-sum check cannot see this corruption: remove one row
        // from a cluster and duplicate another member in its place, so
        // the total count still equals n.
        let (_, enc, codes) = setup(200);
        let mut ti = TiPartition::build(&enc, &codes, 200, 8, 2, 5).unwrap();
        let big = (0..ti.num_clusters()).max_by_key(|&c| ti.cluster_len(c)).unwrap();
        let (start, end) = ti.cluster_range(big);
        assert!(end - start >= 2, "need a cluster with two members to doctor");
        let clean = ti.clone();
        let dup = ti.member_idx.as_slice()[start];
        ti.member_idx.to_mut()[end - 1] = dup;
        let total: usize = (0..ti.num_clusters()).map(|c| ti.cluster_len(c)).sum();
        assert_eq!(total, 200, "doctoring must keep the size sum intact");
        assert!(!ti.covers_exactly(200), "double-assignment + omission went undetected");
        // An out-of-range member in place of a real one: no row repeats,
        // the size sum holds, but one row is omitted for a row past `n`.
        let mut outside = clean;
        outside.member_idx.to_mut()[end - 1] = 200;
        assert!(!outside.covers_exactly(200), "out-of-range member + omission went undetected");
    }

    #[test]
    fn cluster_count_clamped_to_n() {
        let (_, enc, codes) = setup(20);
        let ti = TiPartition::build(&enc, &codes, 20, 1000, 2, 13).unwrap();
        assert!(ti.num_clusters() <= 20);
    }

    #[test]
    fn prefix_clamped_to_subspace_count() {
        let (_, enc, codes) = setup(50);
        let ti = TiPartition::build(&enc, &codes, 50, 4, 99, 15).unwrap();
        assert_eq!(ti.prefix_subspaces(), 4);
        assert_eq!(ti.prefix_dim(), 8);
    }

    #[test]
    fn from_parts_rejects_inconsistent_boundaries() {
        let (_, enc, codes) = setup(60);
        let ti = TiPartition::build(&enc, &codes, 60, 6, 2, 17).unwrap();
        let ok = TiPartition::from_parts(
            ti.centroids.clone(),
            ti.offsets.clone(),
            ti.member_idx.clone(),
            ti.member_dist.clone(),
            ti.prefix_subspaces,
        );
        assert!(ok.is_some());
        let mut bad = ti.offsets.clone();
        bad[1] = bad[2] + 1; // non-monotone
        assert!(TiPartition::from_parts(
            ti.centroids.clone(),
            bad,
            ti.member_idx.clone(),
            ti.member_dist.clone(),
            ti.prefix_subspaces,
        )
        .is_none());
        let mut short = ti.offsets.clone();
        short.pop(); // boundary count != centroids + 1
        assert!(TiPartition::from_parts(
            ti.centroids.clone(),
            short,
            ti.member_idx.clone(),
            ti.member_dist.clone(),
            ti.prefix_subspaces,
        )
        .is_none());
    }

    #[test]
    fn bad_inputs_rejected() {
        let (_, enc, codes) = setup(50);
        assert!(TiPartition::build(&enc, &codes, 0, 4, 2, 0).is_err());
        assert!(TiPartition::build(&enc, &codes[..10], 50, 4, 2, 0).is_err());
    }
}
