//! An inverted-file index over VAQ primitives — the paper's closing
//! direction made concrete.
//!
//! The paper's §V-E findings are that (a) existing indexes for
//! quantization methods (IMI) trade recall for speed, and (b) "an index
//! that leverages the primitives of VAQ could potentially outperform
//! HNSW". [`VaqIvf`] is that index: a coarse k-means quantizer over the
//! *projected* (PC) space partitions the database into cells; each cell's
//! members keep their ordinary VAQ codes. A query probes only the
//! `nprobe` nearest cells and scans them with the same early-abandoned
//! variable-dictionary ADC as flat VAQ.
//!
//! Versus VAQ's own TI partitioning this differs in two ways: cells are
//! *learned* (Lloyd iterations) instead of sampled from the encoded data,
//! and the probe set is a count (`nprobe`) rather than a fraction —
//! matching how IVF indexes are tuned in practice. Versus IMI, the coarse
//! quantizer is a single k-means in the importance-ordered projected
//! space, so cell geometry aligns with the query distances VAQ computes.

use crate::engine::{IndexView, QueryEngine};
use crate::search::{Neighbor, SearchStats};
use crate::vaq::{Vaq, VaqConfig};
use crate::VaqError;
use vaq_kmeans::{KMeans, KMeansConfig};
use vaq_linalg::Matrix;

/// Configuration for [`VaqIvf::train`].
#[derive(Debug, Clone)]
pub struct VaqIvfConfig {
    /// Inner VAQ configuration (its own TI structure is disabled — the
    /// coarse quantizer replaces it).
    pub vaq: VaqConfig,
    /// Number of coarse cells (≈ √n is the usual IVF heuristic).
    pub coarse_cells: usize,
    /// Default number of cells probed per query.
    pub nprobe: usize,
    /// Coarse k-means iterations.
    pub coarse_iters: usize,
}

impl VaqIvfConfig {
    /// Defaults: the paper-standard inner VAQ plus √n-ish cells.
    pub fn new(budget_bits: usize, num_subspaces: usize, coarse_cells: usize) -> Self {
        VaqIvfConfig {
            vaq: VaqConfig::new(budget_bits, num_subspaces).with_ti_clusters(0),
            coarse_cells,
            nprobe: (coarse_cells / 10).max(1),
            coarse_iters: 15,
        }
    }
}

/// The trained IVF-over-VAQ index.
#[derive(Debug, Clone)]
pub struct VaqIvf {
    vaq: Vaq,
    /// Coarse centroids in the projected space.
    coarse: Matrix,
    /// Inverted lists: database row ids per cell.
    lists: Vec<Vec<u32>>,
    /// Default probe count.
    nprobe: usize,
}

impl VaqIvf {
    /// Trains the inner VAQ, then the coarse quantizer, then fills the
    /// inverted lists.
    pub fn train(data: &Matrix, cfg: &VaqIvfConfig) -> Result<VaqIvf, VaqError> {
        if cfg.coarse_cells == 0 {
            return Err(VaqError::BadConfig("coarse_cells must be positive".into()));
        }
        let mut inner_cfg = cfg.vaq.clone();
        inner_cfg.ti_clusters = 0; // the coarse quantizer replaces TI
        let vaq = Vaq::train(data, &inner_cfg)?;

        // Coarse clustering in the projected space (where ADC distances
        // live), so cell geometry matches query geometry.
        let projected = vaq.model.pca.transform(data)?;
        let km = KMeansConfig::new(cfg.coarse_cells.min(data.rows()))
            .with_seed(inner_cfg.seed ^ 0x1AF)
            .with_max_iters(cfg.coarse_iters);
        let model = KMeans::fit(&projected, &km)?;
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); model.k()];
        for (i, &c) in model.assignments.iter().enumerate() {
            lists[c as usize].push(i as u32);
        }
        Ok(VaqIvf { vaq, coarse: model.centroids, lists, nprobe: cfg.nprobe })
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.vaq.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.vaq.is_empty()
    }

    /// Number of coarse cells.
    pub fn num_cells(&self) -> usize {
        self.lists.len()
    }

    /// The inner flat VAQ index.
    pub fn inner(&self) -> &Vaq {
        &self.vaq
    }

    /// A borrowed [`IndexView`] of the encoded database (the coarse lists
    /// address rows of the same code array flat VAQ scans).
    pub fn view(&self) -> IndexView<'_> {
        self.vaq.view()
    }

    /// A [`QueryEngine`] pre-sized for this index.
    pub fn engine(&self) -> QueryEngine {
        QueryEngine::for_view(&self.view())
    }

    /// Searches with the default probe count. Errors when the query's
    /// dimensionality does not match the index.
    pub fn search(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, VaqError> {
        Ok(self.search_nprobe(query, k, self.nprobe)?.0)
    }

    /// Searches probing the `nprobe` nearest cells; returns work counters.
    ///
    /// Convenience wrapper that builds a fresh engine per call; query
    /// loops should hold a [`VaqIvf::engine`] and use
    /// [`VaqIvf::search_nprobe_in`].
    pub fn search_nprobe(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Result<(Vec<Neighbor>, SearchStats), VaqError> {
        let mut engine = self.engine();
        self.search_nprobe_in(&mut engine, query, k, nprobe)
    }

    /// Searches through a caller-held engine: one table fill, then one
    /// early-abandoned scan over the probed cells' concatenated lists
    /// (the threshold is shared across cells, exactly like the flat scan).
    pub fn search_nprobe_in(
        &self,
        engine: &mut QueryEngine,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Result<(Vec<Neighbor>, SearchStats), VaqError> {
        let projected = self.vaq.project_query(query)?;
        let view = self.view();

        // Order cells by centroid distance.
        let mut order: Vec<(f32, u32)> = self
            .coarse
            .iter_rows()
            .enumerate()
            .map(|(c, row)| (vaq_linalg::squared_euclidean(row, &projected), c as u32))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let probe = nprobe.max(1);
        let ids = order
            .iter()
            .take(probe)
            .flat_map(|&(_, cell)| self.lists[cell as usize].iter().copied());
        let (out, mut stats) = engine.search_ids(&view, &projected, ids, k);
        for &(_, cell) in order.iter().skip(probe) {
            stats.vectors_skipped += self.lists[cell as usize].len();
        }
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchStrategy;
    use vaq_dataset::{exact_knn, SyntheticSpec};
    use vaq_metrics::recall_at_k;

    fn config() -> VaqIvfConfig {
        let mut cfg = VaqIvfConfig::new(64, 8, 32);
        cfg.vaq = cfg.vaq.with_seed(5);
        cfg
    }

    #[test]
    fn lists_partition_database() {
        let ds = SyntheticSpec::sift_like().generate(600, 0, 1);
        let ivf = VaqIvf::train(&ds.data, &config()).unwrap();
        let total: usize = ivf.lists.iter().map(|l| l.len()).sum();
        assert_eq!(total, 600);
        assert_eq!(ivf.len(), 600);
        assert!(ivf.num_cells() <= 32);
    }

    #[test]
    fn probing_all_cells_matches_flat_vaq() {
        let ds = SyntheticSpec::sift_like().generate(500, 10, 2);
        let ivf = VaqIvf::train(&ds.data, &config()).unwrap();
        for q in 0..ds.queries.rows() {
            let (ivf_res, _) = ivf.search_nprobe(ds.queries.row(q), 10, ivf.num_cells()).unwrap();
            let flat =
                ivf.inner().search_with(ds.queries.row(q), 10, SearchStrategy::FullScan).unwrap().0;
            assert_eq!(
                ivf_res.iter().map(|n| n.index).collect::<Vec<_>>(),
                flat.iter().map(|n| n.index).collect::<Vec<_>>(),
                "query {q}"
            );
        }
    }

    #[test]
    fn fewer_probes_skip_work_gracefully() {
        let ds = SyntheticSpec::sift_like().generate(2000, 25, 3);
        let truth = exact_knn(&ds.data, &ds.queries, 10);
        let ivf = VaqIvf::train(&ds.data, &config()).unwrap();
        let run = |nprobe: usize| -> (f64, usize) {
            let mut visited = 0;
            let retrieved: Vec<Vec<u32>> = (0..ds.queries.rows())
                .map(|q| {
                    let (res, stats) = ivf.search_nprobe(ds.queries.row(q), 10, nprobe).unwrap();
                    visited += stats.vectors_visited;
                    res.iter().map(|n| n.index).collect()
                })
                .collect();
            (recall_at_k(&retrieved, &truth, 10), visited)
        };
        let (r_few, v_few) = run(2);
        let (r_many, v_many) = run(16);
        assert!(v_few < v_many, "fewer probes must visit fewer vectors");
        assert!(r_many >= r_few - 0.02, "more probes should not lose recall");
        assert!(r_many > 0.4, "recall collapsed: {r_many}");
    }

    #[test]
    fn rejects_zero_cells() {
        let ds = SyntheticSpec::deep_like().generate(50, 0, 4);
        let mut cfg = config();
        cfg.coarse_cells = 0;
        assert!(VaqIvf::train(&ds.data, &cfg).is_err());
    }

    #[test]
    fn stats_account_for_every_vector() {
        let ds = SyntheticSpec::deep_like().generate(400, 1, 5);
        let ivf = VaqIvf::train(&ds.data, &config()).unwrap();
        let (_, stats) = ivf.search_nprobe(ds.queries.row(0), 5, 4).unwrap();
        assert_eq!(stats.vectors_visited + stats.vectors_skipped, 400);
    }
}
