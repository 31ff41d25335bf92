//! Variable-sized dictionaries and data encoding (paper §III-D,
//! Algorithm 3).
//!
//! Each subspace `s` gets a k-means dictionary with `2^{bits[s]}` items.
//! Dictionaries larger than `2^10` are trained hierarchically (coarse
//! `k = 2^6` then per-cluster splits), exactly the paper's escape hatch for
//! large dictionaries. Codes are `u16` per subspace (the paper's default
//! bounds are 1..=13 bits).

use crate::subspaces::SubspaceLayout;
use crate::VaqError;
use vaq_kmeans::{nearest_centroid, KMeans, KMeansConfig};
use vaq_linalg::{squared_distances_into, Matrix, TableArena};

/// Dictionary-size threshold beyond which hierarchical k-means is used
/// (paper §III-D: "> 2^10").
pub const HIERARCHICAL_THRESHOLD: usize = 1 << 10;

/// Coarse branching factor for hierarchical training (paper: `k = 2^6`).
pub const HIERARCHICAL_BRANCH: usize = 1 << 6;

/// Per-subspace dictionaries plus the encoded database.
#[derive(Debug, Clone)]
pub struct Encoder {
    /// One dictionary per subspace; dictionary `s` has up to `2^{bits[s]}`
    /// rows, each of that subspace's width.
    pub(crate) codebooks: Vec<Matrix>,
    /// Bits assigned per subspace.
    pub(crate) bits: Vec<usize>,
    /// Subspace `(start, end)` column ranges in the projected space.
    pub(crate) ranges: Vec<(usize, usize)>,
}

impl Encoder {
    /// Trains the variable-sized dictionaries on projected data.
    ///
    /// `projected` must already be in the layout's permuted PC order.
    pub fn train(
        projected: &Matrix,
        layout: &SubspaceLayout,
        bits: &[usize],
        train_iters: usize,
        seed: u64,
    ) -> Result<Encoder, VaqError> {
        if projected.rows() == 0 {
            return Err(VaqError::EmptyData);
        }
        if bits.len() != layout.num_subspaces() {
            return Err(VaqError::BadConfig(format!(
                "{} bit entries for {} subspaces",
                bits.len(),
                layout.num_subspaces()
            )));
        }
        let mut codebooks = Vec::with_capacity(bits.len());
        for (s, (&(lo, hi), &b)) in layout.ranges.iter().zip(bits.iter()).enumerate() {
            let k = 1usize << b;
            let sub = submatrix(projected, lo, hi);
            let cfg = KMeansConfig::new(k)
                .with_seed(seed.wrapping_add(s as u64))
                .with_max_iters(train_iters);
            let model = if k > HIERARCHICAL_THRESHOLD {
                KMeans::fit_hierarchical(&sub, k, HIERARCHICAL_BRANCH, &cfg)
            } else {
                KMeans::fit(&sub, &cfg)
            }?;
            if !model.converged {
                crate::faults::note_degradation("dictionary.train: iteration budget hit");
            }
            codebooks.push(model.centroids);
        }
        let encoder = Encoder { codebooks, bits: bits.to_vec(), ranges: layout.ranges.clone() };
        crate::audit::Audit::debug_audit(&encoder, "dictionary training");
        Ok(encoder)
    }

    /// Number of subspaces.
    pub fn num_subspaces(&self) -> usize {
        self.ranges.len()
    }

    /// Per-subspace bit allocation.
    pub fn bits(&self) -> &[usize] {
        &self.bits
    }

    /// Total bits per encoded vector.
    pub fn code_bits(&self) -> usize {
        self.bits.iter().sum()
    }

    /// Subspace column ranges.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Per-subspace dictionaries.
    pub fn codebooks(&self) -> &[Matrix] {
        &self.codebooks
    }

    /// Encodes one projected vector.
    pub fn encode(&self, projected: &[f32]) -> Vec<u16> {
        self.ranges
            .iter()
            .zip(self.codebooks.iter())
            .map(|(&(lo, hi), cb)| nearest_centroid(cb, &projected[lo..hi]).0 as u16)
            .collect()
    }

    /// Encodes every row, parallelized across rows. Output layout:
    /// row-major `n × m` codes.
    pub fn encode_all(&self, projected: &Matrix) -> Vec<u16> {
        let n = projected.rows();
        let m = self.ranges.len();
        let mut codes = vec![0u16; n * m];
        let workers = crate::threads::worker_count(n);
        let chunk = n.div_ceil(workers);
        crate::sync::thread::scope(|scope| {
            let mut rest: &mut [u16] = &mut codes;
            for w in 0..workers {
                let start = w * chunk;
                if start >= n {
                    break;
                }
                let len = chunk.min(n - start);
                let (mine, tail) = rest.split_at_mut(len * m);
                rest = tail;
                scope.spawn(move || {
                    for j in 0..len {
                        let row = projected.row(start + j);
                        for (s, (&(lo, hi), cb)) in
                            self.ranges.iter().zip(self.codebooks.iter()).enumerate()
                        {
                            mine[j * m + s] = nearest_centroid(cb, &row[lo..hi]).0 as u16;
                        }
                    }
                });
            }
        });
        codes
    }

    /// Reconstructs a projected-space vector from its code.
    pub fn decode(&self, code: &[u16]) -> Vec<f32> {
        let dim = self.ranges.last().map(|r| r.1).unwrap_or(0);
        let mut out = vec![0.0f32; dim];
        for ((&(lo, hi), cb), &c) in self.ranges.iter().zip(self.codebooks.iter()).zip(code) {
            out[lo..hi].copy_from_slice(&cb.row(c as usize)[..hi - lo]);
        }
        out
    }

    /// Reconstructs only the first `prefix_subspaces` subspaces (used by the
    /// triangle-inequality partitioner).
    pub fn decode_prefix(&self, code: &[u16], prefix_subspaces: usize) -> Vec<f32> {
        let p = prefix_subspaces.min(self.ranges.len());
        let dim = if p == 0 { 0 } else { self.ranges[p - 1].1 };
        let mut out = vec![0.0f32; dim];
        for ((&(lo, hi), cb), &c) in self.ranges[..p].iter().zip(self.codebooks.iter()).zip(code) {
            out[lo..hi].copy_from_slice(&cb.row(c as usize)[..hi - lo]);
        }
        out
    }

    /// Per-subspace table sizes (dictionary row counts), i.e. the arena
    /// layout for this encoder's ADC tables.
    pub fn table_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.codebooks.iter().map(|cb| cb.rows())
    }

    /// Fills `arena` with per-subspace ADC lookup tables (squared
    /// distances) for a projected query. The arena is re-shaped to this
    /// encoder's layout first, which is free once it has seen it — the
    /// steady-state batch path allocates nothing here.
    pub fn fill_tables(&self, projected_query: &[f32], arena: &mut TableArena) {
        arena.ensure_layout(self.table_sizes());
        for (s, (&(lo, hi), cb)) in self.ranges.iter().zip(self.codebooks.iter()).enumerate() {
            squared_distances_into(&projected_query[lo..hi], cb, arena.table_mut(s));
        }
    }
}

/// Copies a contiguous column range into its own matrix.
pub(crate) fn submatrix(data: &Matrix, lo: usize, hi: usize) -> Matrix {
    let mut out = Matrix::zeros(data.rows(), hi - lo);
    for i in 0..data.rows() {
        out.row_mut(i).copy_from_slice(&data.row(i)[lo..hi]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subspaces::{SubspaceLayout, SubspaceMode};

    fn toy_projected(n: usize, d: usize, seed: u64) -> Matrix {
        let mut s = seed.max(1);
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(d);
            for j in 0..d {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = ((s >> 40) as f32 / (1u32 << 23) as f32) - 1.0;
                // Decaying magnitude per dimension mimics PC space.
                row.push(v * (1.0 / (1.0 + j as f32)));
            }
            rows.push(row);
        }
        Matrix::from_rows(&rows)
    }

    fn layout(d: usize, m: usize) -> SubspaceLayout {
        let vars: Vec<f64> = (0..d).map(|i| 1.0 / (1.0 + i as f64)).collect();
        SubspaceLayout::build(&vars, m, SubspaceMode::Uniform, false, 0).unwrap()
    }

    #[test]
    fn variable_dictionary_sizes() {
        let data = toy_projected(300, 16, 1);
        let l = layout(16, 4);
        let enc = Encoder::train(&data, &l, &[6, 4, 3, 1], 10, 0).unwrap();
        assert_eq!(enc.codebooks()[0].rows(), 64);
        assert_eq!(enc.codebooks()[1].rows(), 16);
        assert_eq!(enc.codebooks()[2].rows(), 8);
        assert_eq!(enc.codebooks()[3].rows(), 2);
        assert_eq!(enc.code_bits(), 14);
    }

    #[test]
    fn codes_within_dictionary_bounds() {
        let data = toy_projected(200, 12, 3);
        let l = layout(12, 3);
        let enc = Encoder::train(&data, &l, &[5, 3, 2], 10, 0).unwrap();
        let codes = enc.encode_all(&data);
        for i in 0..200 {
            for s in 0..3 {
                let c = codes[i * 3 + s] as usize;
                assert!(c < enc.codebooks()[s].rows());
            }
        }
    }

    #[test]
    fn encode_all_matches_encode() {
        let data = toy_projected(150, 12, 5);
        let l = layout(12, 3);
        let enc = Encoder::train(&data, &l, &[4, 3, 2], 10, 0).unwrap();
        let codes = enc.encode_all(&data);
        for i in (0..150).step_by(13) {
            assert_eq!(&codes[i * 3..(i + 1) * 3], enc.encode(data.row(i)).as_slice());
        }
    }

    #[test]
    fn decode_prefix_matches_decode_head() {
        let data = toy_projected(100, 12, 7);
        let l = layout(12, 4);
        let enc = Encoder::train(&data, &l, &[4, 3, 2, 1], 10, 0).unwrap();
        let code = enc.encode(data.row(0));
        let full = enc.decode(&code);
        let prefix = enc.decode_prefix(&code, 2);
        assert_eq!(prefix.len(), l.ranges[1].1);
        assert_eq!(&full[..prefix.len()], prefix.as_slice());
    }

    #[test]
    fn filled_arena_sizes_match_dictionaries() {
        let data = toy_projected(100, 12, 9);
        let l = layout(12, 3);
        let enc = Encoder::train(&data, &l, &[5, 3, 1], 10, 0).unwrap();
        let mut arena = TableArena::new();
        enc.fill_tables(data.row(0), &mut arena);
        assert_eq!(arena.table(0).len(), 32);
        assert_eq!(arena.table(1).len(), 8);
        assert_eq!(arena.table(2).len(), 2);
    }

    #[test]
    fn adc_identity_distance_to_reconstruction() {
        // Summed table entries for a code == squared distance from query to
        // the decoded vector.
        let data = toy_projected(120, 12, 11);
        let l = layout(12, 3);
        let enc = Encoder::train(&data, &l, &[4, 3, 2], 10, 0).unwrap();
        let q = data.row(3);
        let code = enc.encode(data.row(40));
        let mut arena = TableArena::new();
        enc.fill_tables(q, &mut arena);
        let adc: f32 = code.iter().enumerate().map(|(s, &c)| arena.lookup(s, c as usize)).sum();
        let direct = vaq_linalg::squared_euclidean(q, &enc.decode(&code));
        assert!((adc - direct).abs() < 1e-3 * direct.max(1.0));
    }

    #[test]
    fn arena_entries_match_the_squared_distance_formula() {
        let data = toy_projected(100, 12, 19);
        let l = layout(12, 3);
        let enc = Encoder::train(&data, &l, &[4, 3, 2], 10, 0).unwrap();
        let q = data.row(7);
        let mut arena = TableArena::new();
        enc.fill_tables(q, &mut arena);
        for (s, (&(lo, hi), cb)) in enc.ranges.iter().zip(&enc.codebooks).enumerate() {
            for (c, centroid) in cb.iter_rows().enumerate() {
                let exact = vaq_linalg::squared_euclidean(centroid, &q[lo..hi]);
                assert_eq!(arena.lookup(s, c), exact, "subspace {s} entry {c}");
            }
        }
    }

    #[test]
    fn more_bits_less_distortion() {
        let data = toy_projected(400, 8, 13);
        let l = layout(8, 2);
        let err_of = |bits: &[usize]| -> f64 {
            let enc = Encoder::train(&data, &l, bits, 15, 0).unwrap();
            (0..data.rows())
                .map(|i| {
                    let rec = enc.decode(&enc.encode(data.row(i)));
                    vaq_linalg::squared_euclidean(data.row(i), &rec) as f64
                })
                .sum()
        };
        assert!(err_of(&[6, 5]) < err_of(&[2, 1]));
    }

    #[test]
    fn mismatched_bits_rejected() {
        let data = toy_projected(50, 8, 15);
        let l = layout(8, 2);
        assert!(Encoder::train(&data, &l, &[4], 5, 0).is_err());
        assert!(Encoder::train(&Matrix::zeros(0, 8), &l, &[4, 4], 5, 0).is_err());
    }

    #[test]
    fn hierarchical_path_trains_large_dictionaries() {
        // 11 bits = 2048 items > the 2^10 threshold; n is intentionally
        // larger so the dictionary is meaningful.
        let data = toy_projected(4000, 4, 17);
        let vars = vec![0.5, 0.3, 0.15, 0.05];
        let l = SubspaceLayout::build(&vars, 1, SubspaceMode::Uniform, false, 0).unwrap();
        let enc = Encoder::train(&data, &l, &[11], 5, 0).unwrap();
        assert_eq!(enc.codebooks()[0].rows(), 2048);
        // All codes must be valid indices.
        let codes = enc.encode_all(&data);
        assert!(codes.iter().all(|&c| (c as usize) < 2048));
    }
}
