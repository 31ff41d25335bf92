//! The end-to-end VAQ method (paper Algorithm 5): `VarPCA` →
//! subspace construction → partial balancing → adaptive bit allocation →
//! variable-sized dictionaries → TI partitioning → pruned query execution.
//! Its one artefact, [`Vaq`], is a trained model plus one encoded,
//! TI-partitioned database — the `Model` and `SegmentCore` of
//! [`crate::segment`].

use crate::allocation::{AllocationConstraint, AllocationStrategy};
use crate::encoder::Encoder;
use crate::engine::{IndexView, QueryEngine};
use crate::pipeline::VarPcaStage;
use crate::search::{Neighbor, SearchStats, SearchStrategy};
use crate::segment::{Model, SegmentCore};
use crate::subspaces::{SubspaceLayout, SubspaceMode};
use crate::sync::Arc;
use crate::ti::TiPartition;
use crate::VaqError;
use vaq_linalg::Matrix;

/// What ingress validation does with NaN/Inf values in training or
/// appended data (degenerate but *finite* data — constant dimensions,
/// duplicate rows — is handled by the pipeline's own fallbacks and never
/// rejected).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngressPolicy {
    /// Fail fast with [`VaqError::NonFinite`] naming the offending cell.
    #[default]
    Reject,
    /// Replace every NaN/Inf with `0.0` (recorded in the degradation log)
    /// and continue training.
    Sanitize,
}

/// Configuration for [`Vaq::train`].
#[derive(Debug, Clone)]
pub struct VaqConfig {
    /// Total bit budget per encoded vector (paper: 64–256).
    pub budget_bits: usize,
    /// Number of subspaces `m` (paper: 16–64).
    pub num_subspaces: usize,
    /// Minimum bits per subspace (paper default 1).
    pub min_bits: usize,
    /// Maximum bits per subspace (paper default 13).
    pub max_bits: usize,
    /// Uniform or clustered (non-uniform) subspace construction.
    pub subspace_mode: SubspaceMode,
    /// Whether to apply the partial importance-balancing swaps.
    pub partial_balance: bool,
    /// Adaptive (MILP) or uniform bit allocation.
    pub allocation: AllocationStrategy,
    /// Number of triangle-inequality clusters (paper: 1000), sampled once
    /// from the training rows and shared by every segment of the index.
    /// `0` disables the TI structure (EA-only queries). Clamped to the
    /// training set size.
    pub ti_clusters: usize,
    /// Subspaces spanned by the TI prefix metric (clamped to `m`).
    pub ti_prefix_subspaces: usize,
    /// Default fraction of TI clusters visited per query (paper: 0.25 and
    /// 0.10).
    pub ti_visit_frac: f64,
    /// k-means iterations for dictionary learning.
    pub train_iters: usize,
    /// RNG seed (dictionaries, TI sampling).
    pub seed: u64,
    /// Extra constraints for the bit allocator (service agreements,
    /// supervised weights — see [`AllocationConstraint`]). Only honoured
    /// by the adaptive strategy.
    pub allocation_constraints: Vec<AllocationConstraint>,
    /// How [`Vaq::train`] treats NaN/Inf values in the input.
    pub ingress: IngressPolicy,
}

impl VaqConfig {
    /// The paper's defaults for a given budget and subspace count:
    /// 1..=13 bits per subspace, uniform subspaces with partial balancing,
    /// adaptive allocation, 1000 TI clusters, 25% visits.
    pub fn new(budget_bits: usize, num_subspaces: usize) -> Self {
        VaqConfig {
            budget_bits,
            num_subspaces,
            min_bits: 1,
            max_bits: 13,
            subspace_mode: SubspaceMode::Uniform,
            partial_balance: true,
            allocation: AllocationStrategy::Adaptive,
            ti_clusters: 1000,
            ti_prefix_subspaces: 8,
            ti_visit_frac: 0.25,
            train_iters: 25,
            seed: 0x5eed,
            allocation_constraints: Vec::new(),
            ingress: IngressPolicy::Reject,
        }
    }

    /// Switches to clustered (non-uniform) subspaces.
    pub fn clustered(mut self) -> Self {
        self.subspace_mode = SubspaceMode::Clustered;
        self
    }

    /// Switches to uniform bit allocation (ablation).
    pub fn uniform_allocation(mut self) -> Self {
        self.allocation = AllocationStrategy::Uniform;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the TI cluster count (0 disables data skipping).
    pub fn with_ti_clusters(mut self, c: usize) -> Self {
        self.ti_clusters = c;
        self
    }

    /// Overrides the default visit fraction.
    pub fn with_visit_frac(mut self, f: f64) -> Self {
        self.ti_visit_frac = f;
        self
    }

    /// Adds an allocation constraint (see [`AllocationConstraint`]).
    pub fn with_constraint(mut self, c: AllocationConstraint) -> Self {
        self.allocation_constraints.push(c);
        self
    }

    /// Overrides the NaN/Inf ingress policy (default: reject).
    pub fn with_ingress(mut self, policy: IngressPolicy) -> Self {
        self.ingress = policy;
        self
    }

    /// Checks the configuration's internal consistency, before any data
    /// is touched. [`Vaq::train`] calls this first, so a bad config fails
    /// fast with a descriptive [`VaqError`] instead of being silently
    /// clamped or surfacing mid-pipeline.
    pub fn validate(&self) -> Result<(), VaqError> {
        if self.num_subspaces == 0 {
            return Err(VaqError::BadConfig("num_subspaces must be positive".into()));
        }
        if self.min_bits == 0 || self.min_bits > self.max_bits || self.max_bits > 16 {
            return Err(VaqError::BadConfig(format!(
                "bit bounds {}..={} invalid (need 1 ≤ min ≤ max ≤ 16)",
                self.min_bits, self.max_bits
            )));
        }
        let m = self.num_subspaces;
        if self.budget_bits < m * self.min_bits || self.budget_bits > m * self.max_bits {
            return Err(VaqError::InfeasibleBudget {
                budget: self.budget_bits,
                subspaces: m,
                min_bits: self.min_bits,
                max_bits: self.max_bits,
            });
        }
        // Catches NaN too: a NaN fails both comparisons.
        if !(self.ti_visit_frac > 0.0 && self.ti_visit_frac <= 1.0) {
            return Err(VaqError::BadConfig(format!(
                "ti_visit_frac {} outside (0, 1]",
                self.ti_visit_frac
            )));
        }
        Ok(())
    }
}

/// A trained VAQ index: the model plus one sealed segment holding the
/// encoded database under the ids `0..n` — the two types a
/// [`crate::SegmentedVaq`] is made of, which is why
/// [`crate::SegmentedVaq::from_vaq`] is a move and both write one file
/// shape. What a `Vaq` adds is [`Vaq::add`], which grows its one segment
/// in place.
#[derive(Debug, Clone)]
pub struct Vaq {
    pub(crate) model: Model,
    /// Shared until the next [`Vaq::add`], which copies it out if a
    /// clone (or a segmented index made from one) still holds it.
    pub(crate) core: Arc<SegmentCore>,
}

impl Vaq {
    /// Trains VAQ on the rows of `data` (paper Algorithm 5) by running the
    /// explicit stage chain in [`crate::pipeline`]: ingress validation →
    /// `VarPCA` → subspace plan → bit allocation → dictionaries → TI
    /// partition. Use the stages directly to fork mid-pipeline (e.g. one
    /// eigenbasis, many budgets); stage entry points always *reject*
    /// non-finite data — the `Sanitize` policy is applied here, before the
    /// chain starts.
    pub fn train(data: &Matrix, cfg: &VaqConfig) -> Result<Vaq, VaqError> {
        let sanitized = crate::pipeline::ingress_check(data, cfg)?;
        let data = sanitized.as_ref().unwrap_or(data);
        VarPcaStage::compute(data, cfg)?
            .plan_subspaces(cfg)?
            .allocate_bits(cfg)?
            .train_dictionaries(data, cfg)?
            .build_ti(cfg)
    }

    /// Number of encoded vectors.
    pub fn len(&self) -> usize {
        self.core.n
    }

    /// `true` when the database is empty.
    pub fn is_empty(&self) -> bool {
        self.core.n == 0
    }

    /// Per-subspace bit allocation chosen by the optimizer.
    pub fn bits(&self) -> &[usize] {
        &self.model.bits
    }

    /// Total bits per encoded vector.
    pub fn code_bits(&self) -> usize {
        self.model.bits.iter().sum()
    }

    /// The derived subspace layout.
    pub fn layout(&self) -> &SubspaceLayout {
        &self.model.layout
    }

    /// The TI partition, if built.
    pub fn ti(&self) -> Option<&TiPartition> {
        self.core.ti.as_ref()
    }

    /// Projects a raw query into VAQ's permuted PC space. Errors when the
    /// query's dimensionality does not match the trained projection.
    pub fn project_query(&self, query: &[f32]) -> Result<Vec<f32>, VaqError> {
        Ok(self.model.pca.transform_vec(query)?)
    }

    /// A borrowed [`IndexView`] of the encoded database (codes + TI +
    /// blocked packing), ready for a [`QueryEngine`].
    pub fn view(&self) -> IndexView<'_> {
        self.core.view(&self.model.encoder)
    }

    /// A [`QueryEngine`] pre-sized for this index, defaulting to the
    /// trained strategy (TI + EA). Hold one per thread and reuse it across
    /// queries — after the first, table preparation allocates nothing.
    pub fn engine(&self) -> QueryEngine {
        QueryEngine::for_view(&self.view()).with_strategy(self.model.default_strategy)
    }

    /// Searches with the configured default strategy (TI + EA). Errors
    /// when the query's dimensionality does not match the index.
    pub fn search(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, VaqError> {
        Ok(self.search_with(query, k, self.model.default_strategy)?.0)
    }

    /// Batch search: answers every row of `queries`, sharding across
    /// threads (each query is independent; the index is shared read-only,
    /// each worker reuses one cloned engine for its whole shard). Returns
    /// per-query results plus work counters summed over the batch.
    pub fn search_batch(
        &self,
        queries: &Matrix,
        k: usize,
        strategy: SearchStrategy,
    ) -> Result<(Vec<Vec<Neighbor>>, SearchStats), VaqError> {
        if queries.rows() > 0 && queries.cols() != self.model.pca.dim() {
            return Err(VaqError::BadConfig(format!(
                "{}-dim queries against a {}-dim index",
                queries.cols(),
                self.model.pca.dim()
            )));
        }
        let view = self.view();
        let engine = QueryEngine::for_view(&view);
        // The dimension check above is the only way projection can fail,
        // and every row of a `Matrix` has the same width.
        Ok(engine.search_batch(&view, queries, k, strategy, |q| {
            self.project_query(q).unwrap_or_default()
        }))
    }

    /// Searches with an explicit strategy, returning work counters.
    ///
    /// Convenience wrapper that builds a fresh engine per call; query
    /// loops should hold a [`Vaq::engine`] and use [`Vaq::search_in`].
    pub fn search_with(
        &self,
        query: &[f32],
        k: usize,
        strategy: SearchStrategy,
    ) -> Result<(Vec<Neighbor>, SearchStats), VaqError> {
        let view = self.view();
        let mut engine = QueryEngine::for_view(&view);
        let projected = self.project_query(query)?;
        Ok(engine.search_with(&view, &projected, k, strategy))
    }

    /// Searches through a caller-held engine (zero table allocations in
    /// the steady state), with the engine's current strategy.
    pub fn search_in(
        &self,
        engine: &mut QueryEngine,
        query: &[f32],
        k: usize,
    ) -> Result<(Vec<Neighbor>, SearchStats), VaqError> {
        let view = self.view();
        let projected = self.project_query(query)?;
        let strategy = engine.strategy();
        Ok(engine.search_with(&view, &projected, k, strategy))
    }

    /// Appends new vectors to the encoded database without retraining.
    ///
    /// The dictionaries, subspace layout, and bit allocation stay fixed
    /// (the standard PQ-family regime: dictionaries are trained once on a
    /// sample and applied to the full collection). New codes are assigned
    /// to their nearest existing TI cluster and inserted in sorted
    /// position, so all pruning invariants keep holding.
    ///
    /// Returns the row index the first appended vector received.
    pub fn add(&mut self, data: &Matrix) -> Result<usize, VaqError> {
        let new_codes = self.model.encode(data)?;
        let encoder = &self.model.encoder;
        let core = Arc::make_mut(&mut self.core);
        let first = core.n;
        if let Some(ti) = &mut core.ti {
            let m = encoder.num_subspaces();
            for (j, code) in new_codes.chunks_exact(m).enumerate() {
                ti.insert(encoder, code, (first + j) as u32);
            }
        }
        core.codes.to_mut().extend_from_slice(&new_codes);
        core.n += data.rows();
        // The blocked layout is block-major, so earlier 32-vector blocks
        // never move on append: only the trailing partial block's padded
        // lanes and the new blocks are written — O(rows·m), independent
        // of how large the index already is. (`append` stays
        // byte-identical to a full repack, audit code VAQ110.)
        core.packed.append(&new_codes, &encoder.table_sizes().collect::<Vec<_>>(), data.rows());
        crate::obs::note_truncated_packing(&core.packed, "vaq.add");
        Ok(first)
    }

    /// The encoded code word of database row `i`.
    pub fn code(&self, i: usize) -> &[u16] {
        let m = self.model.encoder.num_subspaces();
        &self.core.codes[i * m..(i + 1) * m]
    }

    /// The encoder (dictionaries / ranges), for inspection.
    pub fn encoder(&self) -> &Encoder {
        &self.model.encoder
    }

    /// Total squared quantization error over the training data (requires
    /// re-projecting, so it takes the original data). Errors when `data`
    /// does not match the trained projection's dimensionality.
    pub fn quantization_error(&self, data: &Matrix) -> Result<f64, VaqError> {
        let projected = self.model.pca.transform(data)?;
        let mut err = 0.0f64;
        for i in 0..self.core.n.min(projected.rows()) {
            let rec = self.model.encoder.decode(self.code(i));
            err += vaq_linalg::squared_euclidean(projected.row(i), &rec) as f64;
        }
        Ok(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_dataset::{exact_knn, SyntheticSpec};
    use vaq_metrics::recall_at_k;

    #[test]
    fn trains_on_paper_configuration() {
        let ds = SyntheticSpec::sald_like().generate(800, 0, 1);
        let cfg = VaqConfig::new(256, 32).with_ti_clusters(64);
        let vaq = Vaq::train(&ds.data, &cfg).unwrap();
        assert_eq!(vaq.code_bits(), 256);
        assert_eq!(vaq.bits().len(), 32);
        assert_eq!(vaq.len(), 800);
        // Variable sizes on a steep spectrum.
        let distinct: std::collections::BTreeSet<usize> = vaq.bits().iter().copied().collect();
        assert!(distinct.len() >= 2, "bits {:?}", vaq.bits());
    }

    #[test]
    fn rejects_bad_inputs() {
        let ds = SyntheticSpec::deep_like().generate(100, 0, 2);
        assert!(Vaq::train(&Matrix::zeros(0, 8), &VaqConfig::new(16, 4)).is_err());
        assert!(Vaq::train(&ds.data, &VaqConfig::new(16, 0)).is_err());
        assert!(Vaq::train(&ds.data, &VaqConfig::new(16, 500)).is_err());
        // Infeasible budget.
        assert!(matches!(
            Vaq::train(&ds.data, &VaqConfig::new(2, 8)),
            Err(VaqError::InfeasibleBudget { .. })
        ));
    }

    #[test]
    fn self_query_finds_itself() {
        let ds = SyntheticSpec::sift_like().generate(500, 0, 3);
        let cfg = VaqConfig::new(64, 8).with_ti_clusters(32);
        let vaq = Vaq::train(&ds.data, &cfg).unwrap();
        let mut hits = 0;
        let probes: Vec<usize> = (0..500).step_by(31).collect();
        for &i in &probes {
            let res = vaq.search_with(ds.data.row(i), 10, SearchStrategy::FullScan).unwrap().0;
            if res.iter().any(|n| n.index == i as u32) {
                hits += 1;
            }
        }
        assert!(hits * 10 >= probes.len() * 8, "{hits}/{}", probes.len());
    }

    #[test]
    fn beats_uniform_allocation_on_skewed_data() {
        // The core claim (Figures 6, 9): adaptive allocation beats uniform
        // on data with skewed spectra, same budget.
        let ds = SyntheticSpec::sald_like().generate(1200, 40, 5);
        let truth = exact_knn(&ds.data, &ds.queries, 10);
        let run = |cfg: VaqConfig| -> f64 {
            let vaq = Vaq::train(&ds.data, &cfg).unwrap();
            let retrieved: Vec<Vec<u32>> = (0..ds.queries.rows())
                .map(|q| {
                    vaq.search_with(ds.queries.row(q), 10, SearchStrategy::FullScan)
                        .unwrap()
                        .0
                        .iter()
                        .map(|n| n.index)
                        .collect()
                })
                .collect();
            recall_at_k(&retrieved, &truth, 10)
        };
        let adaptive = run(VaqConfig::new(64, 16).with_ti_clusters(0));
        let uniform = run(VaqConfig::new(64, 16).with_ti_clusters(0).uniform_allocation());
        assert!(
            adaptive > uniform - 0.02,
            "adaptive {adaptive} should beat uniform {uniform} on SALD-like data"
        );
    }

    #[test]
    fn ti_ea_default_close_to_full_scan_accuracy() {
        let ds = SyntheticSpec::sift_like().generate(1000, 25, 7);
        let truth = exact_knn(&ds.data, &ds.queries, 10);
        let cfg = VaqConfig::new(64, 16).with_ti_clusters(100);
        let vaq = Vaq::train(&ds.data, &cfg).unwrap();
        let run = |strategy: SearchStrategy| -> f64 {
            let retrieved: Vec<Vec<u32>> = (0..ds.queries.rows())
                .map(|q| {
                    vaq.search_with(ds.queries.row(q), 10, strategy)
                        .unwrap()
                        .0
                        .iter()
                        .map(|n| n.index)
                        .collect()
                })
                .collect();
            recall_at_k(&retrieved, &truth, 10)
        };
        let full = run(SearchStrategy::FullScan);
        let tiea = run(SearchStrategy::TiEa { visit_frac: 0.25 });
        assert!(
            tiea > full - 0.1,
            "TI+EA-0.25 recall {tiea} dropped too far below full-scan {full}"
        );
    }

    #[test]
    fn pruning_reduces_work_dramatically() {
        let ds = SyntheticSpec::sift_like().generate(2000, 0, 9);
        let cfg = VaqConfig::new(64, 16).with_ti_clusters(100);
        let vaq = Vaq::train(&ds.data, &cfg).unwrap();
        let q = ds.data.row(42);
        let (_, full) = vaq.search_with(q, 10, SearchStrategy::FullScan).unwrap();
        let (_, ea) = vaq.search_with(q, 10, SearchStrategy::EarlyAbandon).unwrap();
        let (_, tiea) = vaq.search_with(q, 10, SearchStrategy::TiEa { visit_frac: 0.1 }).unwrap();
        assert!(
            ea.lookups < full.lookups / 2,
            "EA lookups {} vs full {}",
            ea.lookups,
            full.lookups
        );
        assert!(
            tiea.vectors_visited < full.vectors_visited / 2,
            "TI visited {} of {}",
            tiea.vectors_visited,
            full.vectors_visited
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = SyntheticSpec::deep_like().generate(300, 0, 11);
        let cfg = VaqConfig::new(32, 8).with_ti_clusters(16).with_seed(9);
        let a = Vaq::train(&ds.data, &cfg).unwrap();
        let b = Vaq::train(&ds.data, &cfg).unwrap();
        assert_eq!(a.core.codes, b.core.codes);
        assert_eq!(a.bits(), b.bits());
        let qa = a.search(ds.data.row(5), 7);
        let qb = b.search(ds.data.row(5), 7);
        assert_eq!(qa, qb);
    }

    #[test]
    fn quantization_error_decreases_with_budget() {
        let ds = SyntheticSpec::sift_like().generate(600, 0, 13);
        let small = Vaq::train(&ds.data, &VaqConfig::new(32, 8).with_ti_clusters(0)).unwrap();
        let large = Vaq::train(&ds.data, &VaqConfig::new(96, 8).with_ti_clusters(0)).unwrap();
        assert!(
            large.quantization_error(&ds.data).unwrap()
                < small.quantization_error(&ds.data).unwrap()
        );
    }

    #[test]
    fn clustered_subspaces_train_and_search() {
        let ds = SyntheticSpec::sald_like().generate(500, 5, 15);
        let cfg = VaqConfig::new(64, 16).clustered().with_ti_clusters(32);
        let vaq = Vaq::train(&ds.data, &cfg).unwrap();
        assert_eq!(vaq.code_bits(), 64);
        let res = vaq.search(ds.queries.row(0), 10).unwrap();
        assert_eq!(res.len(), 10);
        // Non-uniform widths on a steep spectrum.
        let widths: std::collections::BTreeSet<usize> =
            vaq.layout().ranges.iter().map(|&(lo, hi)| hi - lo).collect();
        assert!(widths.len() > 1, "widths {:?}", vaq.layout().ranges);
    }

    #[test]
    fn batch_search_matches_sequential() {
        let ds = SyntheticSpec::sift_like().generate(600, 24, 27);
        let vaq = Vaq::train(&ds.data, &VaqConfig::new(64, 8).with_ti_clusters(24)).unwrap();
        for strategy in [SearchStrategy::FullScan, SearchStrategy::TiEa { visit_frac: 0.5 }] {
            let (batch, _) = vaq.search_batch(&ds.queries, 7, strategy).unwrap();
            assert_eq!(batch.len(), 24);
            for q in 0..ds.queries.rows() {
                assert_eq!(batch[q], vaq.search_with(ds.queries.row(q), 7, strategy).unwrap().0);
            }
        }
    }

    #[test]
    fn batch_stats_are_the_sum_of_per_query_stats() {
        // Pruning counters must survive aggregation across worker threads:
        // the batch stats equal the component-wise sum of sequential runs,
        // and actually show pruning (skips > 0) for TI + EA.
        let ds = SyntheticSpec::sift_like().generate(900, 16, 29);
        let vaq = Vaq::train(&ds.data, &VaqConfig::new(64, 8).with_ti_clusters(32)).unwrap();
        let strategy = SearchStrategy::TiEa { visit_frac: 0.25 };
        let (_, batch) = vaq.search_batch(&ds.queries, 10, strategy).unwrap();
        let mut seq = SearchStats::default();
        for q in 0..ds.queries.rows() {
            seq += vaq.search_with(ds.queries.row(q), 10, strategy).unwrap().1;
        }
        assert_eq!(batch.vectors_visited, seq.vectors_visited);
        assert_eq!(batch.vectors_skipped, seq.vectors_skipped);
        assert_eq!(batch.lookups, seq.lookups);
        assert_eq!(batch.lookups_skipped, seq.lookups_skipped);
        assert!(batch.vectors_skipped > 0, "TI pruned nothing across the batch");
        assert!(batch.lookups_skipped > 0, "EA pruned nothing across the batch");
        // Every query accounts for the whole database.
        assert_eq!(batch.vectors_visited + batch.vectors_skipped, 900 * 16);
        // Workers clone a pre-sized engine: no per-query table allocation.
        assert_eq!(batch.table_reallocations, 0);
    }

    #[test]
    fn small_batches_fall_back_to_sequential_with_stats() {
        let ds = SyntheticSpec::deep_like().generate(200, 2, 33);
        let vaq = Vaq::train(&ds.data, &VaqConfig::new(32, 8).with_ti_clusters(8)).unwrap();
        let (batch, stats) =
            vaq.search_batch(&ds.queries, 5, SearchStrategy::EarlyAbandon).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(stats.vectors_visited + stats.vectors_skipped, 200 * 2);
    }

    #[test]
    fn validate_rejects_bad_visit_fractions() {
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let cfg = VaqConfig::new(64, 8).with_visit_frac(bad);
            assert!(
                matches!(cfg.validate(), Err(VaqError::BadConfig(_))),
                "visit_frac {bad} accepted"
            );
        }
        assert!(VaqConfig::new(64, 8).with_visit_frac(1.0).validate().is_ok());
        assert!(VaqConfig::new(64, 8).with_visit_frac(0.01).validate().is_ok());
    }

    #[test]
    fn validate_rejects_inverted_bit_bounds() {
        let mut cfg = VaqConfig::new(64, 8);
        cfg.min_bits = 9;
        cfg.max_bits = 4;
        assert!(matches!(cfg.validate(), Err(VaqError::BadConfig(_))));
        cfg.min_bits = 0;
        assert!(matches!(cfg.validate(), Err(VaqError::BadConfig(_))));
        cfg.min_bits = 1;
        cfg.max_bits = 17;
        assert!(matches!(cfg.validate(), Err(VaqError::BadConfig(_))));
    }

    #[test]
    fn validate_rejects_infeasible_budgets_before_training() {
        // Too small and too large budgets both fail fast, with the exact
        // bounds in the error.
        for budget in [2usize, 200] {
            let cfg = VaqConfig::new(budget, 8);
            match cfg.validate() {
                Err(VaqError::InfeasibleBudget { budget: b, subspaces, min_bits, max_bits }) => {
                    assert_eq!((b, subspaces, min_bits, max_bits), (budget, 8, 1, 13));
                }
                other => panic!("budget {budget}: expected InfeasibleBudget, got {other:?}"),
            }
        }
        // Training surfaces the same error without touching the data.
        let ds = SyntheticSpec::deep_like().generate(50, 0, 37);
        assert!(matches!(
            Vaq::train(&ds.data, &VaqConfig::new(2, 8)),
            Err(VaqError::InfeasibleBudget { .. })
        ));
    }

    #[test]
    fn engine_reuse_matches_convenience_search() {
        let ds = SyntheticSpec::sift_like().generate(400, 0, 41);
        let vaq = Vaq::train(&ds.data, &VaqConfig::new(64, 8).with_ti_clusters(16)).unwrap();
        let mut engine = vaq.engine();
        let baseline = engine.arena().reallocations();
        for i in (0..400).step_by(57) {
            let (held, _) = vaq.search_in(&mut engine, ds.data.row(i), 5).unwrap();
            let held_default = vaq.search(ds.data.row(i), 5).unwrap();
            assert_eq!(held, held_default, "row {i}");
        }
        assert_eq!(engine.arena().reallocations(), baseline, "pre-sized engine grew");
    }

    #[test]
    fn constrained_training_honours_service_agreements() {
        use crate::allocation::AllocationConstraint;
        let ds = SyntheticSpec::sald_like().generate(400, 0, 31);
        let cfg = VaqConfig::new(64, 8)
            .with_ti_clusters(0)
            .with_constraint(AllocationConstraint::CapSubspace { subspace: 0, bits: 8 })
            .with_constraint(AllocationConstraint::Pin { subspace: 7, bits: 2 });
        let vaq = Vaq::train(&ds.data, &cfg).unwrap();
        assert!(vaq.bits()[0] <= 8, "{:?}", vaq.bits());
        assert_eq!(vaq.bits()[7], 2);
        assert_eq!(vaq.code_bits(), 64);
        // Constraints with the uniform strategy must be rejected.
        let bad = VaqConfig::new(64, 8)
            .uniform_allocation()
            .with_constraint(AllocationConstraint::Pin { subspace: 0, bits: 4 });
        assert!(Vaq::train(&ds.data, &bad).is_err());
    }

    #[test]
    fn incremental_add_is_searchable_and_exact() {
        let ds = SyntheticSpec::sift_like().generate(800, 0, 21);
        let initial = ds.data.select_rows(&(0..600).collect::<Vec<_>>());
        let extra = ds.data.select_rows(&(600..800).collect::<Vec<_>>());
        let mut vaq = Vaq::train(&initial, &VaqConfig::new(64, 8).with_ti_clusters(32)).unwrap();
        let first = vaq.add(&extra).unwrap();
        assert_eq!(first, 600);
        assert_eq!(vaq.len(), 800);
        // Newly added vectors are findable.
        let mut hits = 0;
        for i in (600..800).step_by(17) {
            let res = vaq.search_with(ds.data.row(i), 10, SearchStrategy::FullScan).unwrap().0;
            if res.iter().any(|n| n.index == i as u32) {
                hits += 1;
            }
        }
        let total = (600..800).step_by(17).count();
        assert!(hits * 10 >= total * 7, "{hits}/{total}");
        // Pruning invariants survive the inserts: TI(1.0) == full scan.
        for i in [0usize, 650, 799] {
            let full: Vec<u32> = vaq
                .search_with(ds.data.row(i), 10, SearchStrategy::FullScan)
                .unwrap()
                .0
                .iter()
                .map(|n| n.index)
                .collect();
            let ti: Vec<u32> = vaq
                .search_with(ds.data.row(i), 10, SearchStrategy::TiEa { visit_frac: 1.0 })
                .unwrap()
                .0
                .iter()
                .map(|n| n.index)
                .collect();
            assert_eq!(full, ti, "row {i}");
        }
        // An add that equals train-then-add of everything at once matches
        // encoding-wise (dictionaries shared).
        let joint = {
            let mut v = Vaq::train(&initial, &VaqConfig::new(64, 8).with_ti_clusters(32)).unwrap();
            v.add(&extra).unwrap();
            v
        };
        assert_eq!(vaq.code(700), joint.code(700));
    }

    #[test]
    fn add_rejects_wrong_dimensionality() {
        let ds = SyntheticSpec::deep_like().generate(100, 0, 23);
        let mut vaq = Vaq::train(&ds.data, &VaqConfig::new(32, 8).with_ti_clusters(8)).unwrap();
        assert!(vaq.add(&Matrix::zeros(5, 7)).is_err());
        // No rows is no change, on either holder.
        assert_eq!(vaq.add(&Matrix::zeros(0, ds.data.cols())).unwrap(), 100);
        let seg = crate::SegmentedVaq::from_vaq(vaq, crate::SegmentPolicy::default());
        assert!(seg.add(&Matrix::zeros(0, ds.data.cols())).unwrap().is_empty());
        assert!(seg.add(&Matrix::zeros(0, 7)).is_err());
    }

    #[test]
    fn code_accessor_is_consistent_with_encoder() {
        let ds = SyntheticSpec::deep_like().generate(200, 0, 17);
        let vaq = Vaq::train(&ds.data, &VaqConfig::new(32, 8).with_ti_clusters(0)).unwrap();
        let projected = vaq.project_query(ds.data.row(3)).unwrap();
        assert_eq!(vaq.code(3), vaq.encoder().encode(&projected).as_slice());
    }
}
