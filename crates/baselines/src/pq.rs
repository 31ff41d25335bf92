//! Product Quantization (Jégou, Douze, Schmid — TPAMI 2011; paper §II-C).
//!
//! PQ splits the `d` dimensions into `m` contiguous subspaces, learns a
//! `2^bits`-item dictionary per subspace with k-means, and encodes every
//! vector as the concatenation of its nearest dictionary indices. Queries
//! are answered with the **Asymmetric Distance Computation** (ADC): per
//! subspace, a lookup table of squared distances from the query sub-vector
//! to every centroid is built once, and the database scan is `m` table
//! lookups + adds per encoded vector. The **Symmetric Distance Computation**
//! (SDC) — both sides encoded — is also provided for completeness.

use crate::util::{split_uniform, Neighbor};
use crate::{AnnIndex, BaselineError};
use vaq_core::engine::{IndexView, QueryEngine};
use vaq_kmeans::{nearest_centroid, KMeans, KMeansConfig};
use vaq_linalg::{squared_euclidean, Matrix, PackedCodes, TableArena};

/// Converts engine results (core's `Neighbor`) into this crate's type.
pub(crate) fn from_core(neighbors: Vec<vaq_core::Neighbor>) -> Vec<Neighbor> {
    neighbors.into_iter().map(|n| Neighbor { index: n.index, distance: n.distance }).collect()
}

/// Configuration for [`Pq::train`].
#[derive(Debug, Clone)]
pub struct PqConfig {
    /// Number of subspaces `m`.
    pub num_subspaces: usize,
    /// Bits per subspace (dictionary size is `2^bits`, ≤ 16).
    pub bits_per_subspace: usize,
    /// k-means iterations for dictionary learning.
    pub train_iters: usize,
    /// RNG seed for dictionary learning.
    pub seed: u64,
}

impl PqConfig {
    /// The literature-standard configuration: 8 bits per subspace.
    pub fn new(num_subspaces: usize) -> Self {
        PqConfig { num_subspaces, bits_per_subspace: 8, train_iters: 25, seed: 0x5eed }
    }

    /// Overrides bits per subspace.
    pub fn with_bits(mut self, bits: usize) -> Self {
        self.bits_per_subspace = bits;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A trained PQ index over an encoded database.
#[derive(Debug, Clone)]
pub struct Pq {
    /// Subspace boundaries, `(start, end)` per subspace.
    ranges: Vec<(usize, usize)>,
    /// One dictionary (centroid matrix) per subspace.
    codebooks: Vec<Matrix>,
    /// Encoded database, row-major `n × m` codes.
    codes: Vec<u16>,
    /// Number of encoded vectors.
    n: usize,
    /// Total bits per encoded vector.
    bits: usize,
    /// Blocked code layout for the quantized SIMD scan (derived from
    /// `codes`; inactive when a dictionary exceeds 256 entries).
    packed: PackedCodes,
}

impl Pq {
    /// Learns dictionaries on `data` and encodes it.
    pub fn train(data: &Matrix, cfg: &PqConfig) -> Result<Pq, BaselineError> {
        if data.rows() == 0 {
            return Err(BaselineError::EmptyData);
        }
        if cfg.num_subspaces == 0 || cfg.num_subspaces > data.cols() {
            return Err(BaselineError::BadConfig(format!(
                "num_subspaces {} out of range for dim {}",
                cfg.num_subspaces,
                data.cols()
            )));
        }
        if cfg.bits_per_subspace == 0 || cfg.bits_per_subspace > 16 {
            return Err(BaselineError::BadConfig(format!(
                "bits_per_subspace {} out of range 1..=16",
                cfg.bits_per_subspace
            )));
        }
        let ranges = split_uniform(data.cols(), cfg.num_subspaces);
        let k = 1usize << cfg.bits_per_subspace;
        let mut codebooks = Vec::with_capacity(cfg.num_subspaces);
        for (s, &(lo, hi)) in ranges.iter().enumerate() {
            let sub = submatrix(data, lo, hi);
            let km_cfg = KMeansConfig::new(k)
                .with_seed(cfg.seed.wrapping_add(s as u64))
                .with_max_iters(cfg.train_iters);
            let model =
                KMeans::fit(&sub, &km_cfg).map_err(|e| BaselineError::BadConfig(e.to_string()))?;
            codebooks.push(model.centroids);
        }
        let codes = encode_all(data, &ranges, &codebooks);
        let sizes: Vec<usize> = codebooks.iter().map(|cb| cb.rows()).collect();
        let packed = PackedCodes::pack(&codes, &sizes, data.rows());
        Ok(Pq {
            ranges,
            codebooks,
            codes,
            n: data.rows(),
            bits: cfg.num_subspaces * cfg.bits_per_subspace,
            packed,
        })
    }

    /// Number of encoded vectors.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the database is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of subspaces.
    pub fn num_subspaces(&self) -> usize {
        self.ranges.len()
    }

    /// The encoded code word of database row `i`.
    pub fn code(&self, i: usize) -> &[u16] {
        let m = self.ranges.len();
        &self.codes[i * m..(i + 1) * m]
    }

    /// Subspace boundaries.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Per-subspace dictionaries.
    pub fn codebooks(&self) -> &[Matrix] {
        &self.codebooks
    }

    /// Encodes an arbitrary vector with the learned dictionaries.
    pub fn encode(&self, v: &[f32]) -> Vec<u16> {
        self.ranges
            .iter()
            .zip(self.codebooks.iter())
            .map(|(&(lo, hi), cb)| nearest_centroid(cb, &v[lo..hi]).0 as u16)
            .collect()
    }

    /// Reconstructs (decodes) a code word back to a vector.
    pub fn decode(&self, code: &[u16]) -> Vec<f32> {
        let dim = self.ranges.last().map(|r| r.1).unwrap_or(0);
        let mut out = vec![0.0f32; dim];
        for ((&(lo, hi), cb), &c) in self.ranges.iter().zip(self.codebooks.iter()).zip(code) {
            out[lo..hi].copy_from_slice(&cb.row(c as usize)[..hi - lo]);
        }
        out
    }

    /// A borrowed [`IndexView`] of the encoded database, ready for a
    /// [`QueryEngine`]. PQ operates in the raw input space (no
    /// projection), so queries pass through unprojected.
    pub fn view(&self) -> IndexView<'_> {
        IndexView::new(&self.codebooks, &self.ranges, &self.codes, self.n)
            .with_packed(Some(&self.packed))
    }

    /// Fills `arena` with the per-subspace ADC tables for a query.
    pub fn fill_tables(&self, query: &[f32], arena: &mut TableArena) {
        arena.ensure_layout(self.codebooks.iter().map(|cb| cb.rows()));
        for (s, (&(lo, hi), cb)) in self.ranges.iter().zip(self.codebooks.iter()).enumerate() {
            vaq_linalg::squared_distances_into(&query[lo..hi], cb, arena.table_mut(s));
        }
    }

    /// ADC search: scan all codes accumulating table lookups. Distances
    /// are squared Euclidean (the PQ-literature convention).
    pub fn search_adc(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let view = self.view();
        let mut engine = QueryEngine::for_view(&view);
        from_core(engine.search_squared(&view, query, k, vaq_core::SearchStrategy::FullScan).0)
    }

    /// ADC search through the quantized SIMD scan: 8-bit lookup tables
    /// accumulated with `pshufb` give a lower bound per vector, and only
    /// survivors are reranked through the exact f32 tables — results are
    /// identical to [`Pq::search_adc`]. Falls back to the early-abandon
    /// scan when the plan is not packable (a dictionary > 256 entries).
    pub fn search_adc_quantized(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let view = self.view();
        let mut engine = QueryEngine::for_view(&view);
        from_core(engine.search_squared(&view, query, k, vaq_core::SearchStrategy::Quantized).0)
    }

    /// SDC search: the query is itself encoded and distances are taken
    /// between centroids. Less accurate than ADC; provided because the
    /// paper describes both (§II-C).
    pub fn search_sdc(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let qcode = self.encode(query);
        let view = self.view();
        let mut engine = QueryEngine::for_view(&view);
        // Per-subspace centroid-to-centroid tables for the query's code.
        engine.prepare_with(self.codebooks.iter().map(|cb| cb.rows()), |s, table| {
            let cb = &self.codebooks[s];
            let qrow = cb.row(qcode[s] as usize);
            for (c, slot) in table.iter_mut().enumerate() {
                *slot = squared_euclidean(cb.row(c), qrow);
            }
        });
        from_core(engine.scan_ids_prepared(&view, 0..self.n as u32, k).0)
    }

    /// Total quantization error of the encoded database (paper Equation 2,
    /// summed over subspaces).
    pub fn quantization_error(&self, data: &Matrix) -> f64 {
        let mut err = 0.0f64;
        for i in 0..self.n.min(data.rows()) {
            let rec = self.decode(self.code(i));
            err += squared_euclidean(data.row(i), &rec) as f64;
        }
        err
    }
}

impl AnnIndex for Pq {
    fn name(&self) -> &str {
        "PQ"
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_adc(query, k)
    }

    fn code_bits(&self) -> usize {
        self.bits
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

/// Encodes every row of `data` against the per-subspace codebooks.
pub(crate) fn encode_all(
    data: &Matrix,
    ranges: &[(usize, usize)],
    codebooks: &[Matrix],
) -> Vec<u16> {
    let m = ranges.len();
    let n = data.rows();
    let mut codes = vec![0u16; n * m];
    let workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(n.max(1));
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
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
                    let row = data.row(start + j);
                    for (s, (&(lo, hi), cb)) in ranges.iter().zip(codebooks.iter()).enumerate() {
                        mine[j * m + s] = nearest_centroid(cb, &row[lo..hi]).0 as u16;
                    }
                }
            });
        }
    });
    codes
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_dataset::{exact_knn, SyntheticSpec};
    use vaq_metrics::recall_at_k;

    fn small_data() -> Matrix {
        SyntheticSpec::sift_like().generate(600, 0, 3).data
    }

    #[test]
    fn train_rejects_bad_configs() {
        let data = small_data();
        assert!(Pq::train(&data, &PqConfig::new(0)).is_err());
        assert!(Pq::train(&data, &PqConfig::new(4).with_bits(0)).is_err());
        assert!(Pq::train(&data, &PqConfig::new(4).with_bits(17)).is_err());
        assert!(Pq::train(&Matrix::zeros(0, 8), &PqConfig::new(2)).is_err());
        assert!(Pq::train(&data, &PqConfig::new(1000)).is_err());
    }

    #[test]
    fn encode_decode_reduces_error_with_more_bits() {
        let data = small_data();
        let coarse = Pq::train(&data, &PqConfig::new(8).with_bits(2)).unwrap();
        let fine = Pq::train(&data, &PqConfig::new(8).with_bits(6)).unwrap();
        let e_coarse = coarse.quantization_error(&data);
        let e_fine = fine.quantization_error(&data);
        assert!(e_fine < e_coarse, "more bits must quantize better: {e_fine} vs {e_coarse}");
    }

    #[test]
    fn code_bits_accounting() {
        let data = small_data();
        let pq = Pq::train(&data, &PqConfig::new(16).with_bits(4)).unwrap();
        assert_eq!(pq.code_bits(), 64);
        assert_eq!(pq.num_subspaces(), 16);
    }

    #[test]
    fn self_query_returns_reasonable_recall() {
        let data = small_data();
        let pq = Pq::train(&data, &PqConfig::new(16).with_bits(6)).unwrap();
        // Query with database vectors themselves.
        let mut hits = 0;
        for i in (0..data.rows()).step_by(37) {
            let res = pq.search(data.row(i), 10);
            if res.iter().any(|n| n.index == i as u32) {
                hits += 1;
            }
        }
        let total = (0..data.rows()).step_by(37).count();
        assert!(hits * 10 >= total * 8, "self-recall too low: {hits}/{total}");
    }

    #[test]
    fn adc_recall_beats_random_on_synthetic() {
        let ds = SyntheticSpec::sift_like().generate(800, 20, 5);
        let truth = exact_knn(&ds.data, &ds.queries, 10);
        let pq = Pq::train(&ds.data, &PqConfig::new(16).with_bits(6)).unwrap();
        let retrieved: Vec<Vec<u32>> = (0..ds.queries.rows())
            .map(|q| pq.search(ds.queries.row(q), 10).iter().map(|n| n.index).collect())
            .collect();
        let r = recall_at_k(&retrieved, &truth, 10);
        assert!(r > 0.5, "PQ recall@10 too low: {r}");
    }

    #[test]
    fn adc_is_more_accurate_than_sdc() {
        let ds = SyntheticSpec::sift_like().generate(800, 30, 7);
        let truth = exact_knn(&ds.data, &ds.queries, 10);
        let pq = Pq::train(&ds.data, &PqConfig::new(8).with_bits(5)).unwrap();
        let run = |sdc: bool| -> f64 {
            let retrieved: Vec<Vec<u32>> = (0..ds.queries.rows())
                .map(|q| {
                    let r = if sdc {
                        pq.search_sdc(ds.queries.row(q), 10)
                    } else {
                        pq.search_adc(ds.queries.row(q), 10)
                    };
                    r.iter().map(|n| n.index).collect()
                })
                .collect();
            recall_at_k(&retrieved, &truth, 10)
        };
        let adc = run(false);
        let sdc = run(true);
        assert!(adc >= sdc - 0.05, "ADC {adc} should be at least as good as SDC {sdc}");
    }

    #[test]
    fn lookup_table_scan_matches_decode_distance() {
        // The ADC distance must equal the distance to the reconstructed
        // vector (per-subspace orthogonal decomposition).
        let data = small_data();
        let pq = Pq::train(&data, &PqConfig::new(8).with_bits(4)).unwrap();
        let q = data.row(5);
        let mut arena = TableArena::new();
        pq.fill_tables(q, &mut arena);
        let code = pq.code(17);
        let table_dist: f32 =
            code.iter().enumerate().map(|(s, &c)| arena.lookup(s, c as usize)).sum();
        let rec = pq.decode(code);
        let direct = squared_euclidean(q, &rec);
        assert!((table_dist - direct).abs() < 1e-2 * direct.max(1.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = small_data();
        let a = Pq::train(&data, &PqConfig::new(8).with_seed(1)).unwrap();
        let b = Pq::train(&data, &PqConfig::new(8).with_seed(1)).unwrap();
        assert_eq!(a.codes, b.codes);
    }

    #[test]
    fn arena_entries_match_the_squared_distance_formula() {
        let data = small_data();
        let pq = Pq::train(&data, &PqConfig::new(8).with_bits(4)).unwrap();
        let q = data.row(33);
        let mut arena = TableArena::new();
        pq.fill_tables(q, &mut arena);
        assert_eq!(arena.num_tables(), pq.ranges.len());
        for (s, (&(lo, hi), cb)) in pq.ranges.iter().zip(&pq.codebooks).enumerate() {
            for (c, centroid) in cb.iter_rows().enumerate() {
                let exact = vaq_linalg::squared_euclidean(centroid, &q[lo..hi]);
                assert_eq!(arena.lookup(s, c), exact, "subspace {s} entry {c}");
            }
        }
    }

    #[test]
    fn engine_scan_matches_manual_table_scan() {
        let data = small_data();
        let pq = Pq::train(&data, &PqConfig::new(8).with_bits(4)).unwrap();
        let q = data.row(2);
        let got = pq.search_adc(q, 12);
        // Reference: exhaustive accumulation + sort over all rows.
        let mut arena = TableArena::new();
        pq.fill_tables(q, &mut arena);
        let mut all: Vec<Neighbor> = (0..pq.len())
            .map(|i| {
                let dist: f32 =
                    pq.code(i).iter().enumerate().map(|(s, &c)| arena.lookup(s, c as usize)).sum();
                Neighbor { index: i as u32, distance: dist }
            })
            .collect();
        all.sort_by(|a, b| {
            a.distance.partial_cmp(&b.distance).unwrap().then_with(|| a.index.cmp(&b.index))
        });
        all.truncate(12);
        assert_eq!(
            got.iter().map(|n| n.index).collect::<Vec<_>>(),
            all.iter().map(|n| n.index).collect::<Vec<_>>()
        );
    }

    #[test]
    fn quantized_adc_matches_exact_adc() {
        let data = small_data();
        // 6-bit dictionaries (64 rows) sit on the nibble-split SIMD path.
        let pq = Pq::train(&data, &PqConfig::new(8).with_bits(6)).unwrap();
        for qi in [0, 59, 311, 599] {
            let q = data.row(qi);
            for k in [1, 10, 33] {
                assert_eq!(pq.search_adc_quantized(q, k), pq.search_adc(q, k), "qi={qi} k={k}");
            }
        }
    }

    #[test]
    fn quantized_adc_survives_unpackable_plans() {
        let data = small_data();
        // 9-bit dictionaries (512 rows) cannot pack into u8 codes; the
        // quantized entry point must silently fall back, not misrank.
        let pq = Pq::train(&data, &PqConfig::new(4).with_bits(9)).unwrap();
        let q = data.row(7);
        assert_eq!(pq.search_adc_quantized(q, 15), pq.search_adc(q, 15));
    }

    #[test]
    fn search_returns_k_sorted() {
        let data = small_data();
        let pq = Pq::train(&data, &PqConfig::new(4).with_bits(4)).unwrap();
        let res = pq.search(data.row(0), 25);
        assert_eq!(res.len(), 25);
        for w in res.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }
}
