//! Staged training pipeline (paper Algorithms 1–3 as explicit stages).
//!
//! [`crate::Vaq::train`] used to be one monolithic function; it is now a
//! chain of five typed stages, each consuming the previous one:
//!
//! 1. [`VarPcaStage::compute`] — `VarPCA` (Algorithm 1): fit the
//!    eigendecomposition whose spectrum measures dimension importance.
//!    Config validation happens here, before any numeric work.
//! 2. [`VarPcaStage::plan_subspaces`] — subspace construction + partial
//!    balancing (Algorithm 2, lines 2–9), permuting the projection to the
//!    layout's PC order.
//! 3. [`SubspacePlan::allocate_bits`] — the MILP bit allocation
//!    (Algorithm 2), honouring any [`crate::AllocationConstraint`]s.
//! 4. [`BitPlan::train_dictionaries`] — variable-sized dictionaries +
//!    database encoding (Algorithm 3, part 1).
//! 5. [`DictionaryStage::build_ti`] — TI partitioning (Algorithm 3,
//!    part 2): the model's centroids and the training rows' assignment to
//!    them, producing the finished [`Vaq`].
//!
//! Each intermediate stage exposes its state publicly, so ablations can
//! fork mid-pipeline — e.g. reuse one `VarPCA` across several bit budgets
//! without re-fitting the eigenbasis, or compare allocations on a fixed
//! subspace plan.

use crate::allocation::{allocate_bits, allocate_bits_constrained, AllocationStrategy};
use crate::audit::Audit;
use crate::encoder::Encoder;
use crate::faults;
use crate::search::SearchStrategy;
use crate::segment::{Model, SegmentCore, SegmentIds};
use crate::subspaces::SubspaceLayout;
use crate::sync::Arc;
use crate::ti::TiPartition;
use crate::vaq::{IngressPolicy, Vaq, VaqConfig};
use crate::VaqError;
use vaq_linalg::{LinalgError, Matrix, Pca};

/// Position of the first NaN/Inf entry, if any.
fn first_non_finite(data: &Matrix) -> Option<(usize, usize)> {
    for i in 0..data.rows() {
        if let Some(j) = data.row(i).iter().position(|v| !v.is_finite()) {
            return Some((i, j));
        }
    }
    None
}

/// Ingress validation for [`Vaq::train`]: scans the input for NaN/Inf
/// *before any numeric work*. Under [`IngressPolicy::Reject`] the first
/// offending cell is named in the error; under [`IngressPolicy::Sanitize`]
/// a cleaned copy (non-finite entries zeroed) is returned and the
/// degradation is recorded. `Ok(None)` means the data was already clean
/// and can be used as-is.
pub fn ingress_check(data: &Matrix, cfg: &VaqConfig) -> Result<Option<Matrix>, VaqError> {
    let Some((row, col)) = first_non_finite(data) else {
        return Ok(None);
    };
    match cfg.ingress {
        IngressPolicy::Reject => Err(VaqError::NonFinite { row, col }),
        IngressPolicy::Sanitize => {
            faults::note_degradation("ingress.validate: non-finite values zeroed");
            let mut clean = data.clone();
            for i in 0..clean.rows() {
                for v in clean.row_mut(i) {
                    if !v.is_finite() {
                        *v = 0.0;
                    }
                }
            }
            Ok(Some(clean))
        }
    }
}

/// The `VarPCA` degradation path: when the eigendecomposition does not
/// converge, fall back to an axis-aligned "projection" — a permutation
/// that ranks the original dimensions by variance. Importance shares stay
/// meaningful (they are exactly the per-dimension variances), only the
/// rotation is lost.
fn axis_aligned_pca(data: &Matrix) -> Pca {
    let d = data.cols();
    let n = data.rows().max(1) as f64;
    let mut mean = vec![0.0f64; d];
    for i in 0..data.rows() {
        for (m, &v) in mean.iter_mut().zip(data.row(i)) {
            *m += v as f64;
        }
    }
    for m in &mut mean {
        *m /= n;
    }
    let mut var = vec![0.0f64; d];
    for i in 0..data.rows() {
        for (j, &v) in data.row(i).iter().enumerate() {
            let c = v as f64 - mean[j];
            var[j] += c * c;
        }
    }
    for v in &mut var {
        *v /= n;
    }
    let mut order: Vec<usize> = (0..d).collect();
    order.sort_by(|&a, &b| var[b].total_cmp(&var[a]));
    let mut components = Matrix::zeros(d, d);
    for (pc, &dim) in order.iter().enumerate() {
        components.set(dim, pc, 1.0);
    }
    let eigenvalues: Vec<f64> = order.iter().map(|&dim| var[dim]).collect();
    Pca::from_parts(mean.into_iter().map(|m| m as f32).collect(), components, eigenvalues)
}

/// Stage 1 output: the fitted `VarPCA` basis (Algorithm 1).
#[derive(Debug, Clone)]
pub struct VarPcaStage {
    /// Eigenbasis in descending-eigenvalue order (not yet permuted to a
    /// subspace layout).
    pub pca: Pca,
}

impl VarPcaStage {
    /// Validates `cfg` against `data` and fits the eigendecomposition.
    pub fn compute(data: &Matrix, cfg: &VaqConfig) -> Result<VarPcaStage, VaqError> {
        let _span = crate::obs::span("train.varpca");
        cfg.validate()?;
        if data.rows() == 0 {
            return Err(VaqError::EmptyData);
        }
        if cfg.num_subspaces > data.cols() {
            return Err(VaqError::BadConfig(format!(
                "num_subspaces {} out of range for dim {}",
                cfg.num_subspaces,
                data.cols()
            )));
        }
        // Stage entry points are strict: `Sanitize` happens in
        // `Vaq::train` before the chain starts.
        if let Some((row, col)) = first_non_finite(data) {
            return Err(VaqError::NonFinite { row, col });
        }
        let fitted = if faults::fired("varpca.fit") {
            Err(LinalgError::NoConvergence { routine: "sym_eigen (injected)", iterations: 0 })
        } else {
            Pca::fit(data)
        };
        let pca = match fitted {
            Ok(pca) => pca,
            Err(LinalgError::NoConvergence { .. }) => {
                faults::note_degradation("varpca.fit: axis-aligned variance fallback");
                axis_aligned_pca(data)
            }
            Err(e) => return Err(e.into()),
        };
        Ok(VarPcaStage { pca })
    }

    /// Stage 2: subspace construction + partial balancing (Algorithm 2,
    /// lines 2–9). Permutes the projection to the layout's PC order.
    pub fn plan_subspaces(mut self, cfg: &VaqConfig) -> Result<SubspacePlan, VaqError> {
        let _span = crate::obs::span("train.subspace_plan");
        let layout = SubspaceLayout::build(
            self.pca.eigenvalues(),
            cfg.num_subspaces,
            cfg.subspace_mode,
            cfg.partial_balance,
            cfg.seed,
        )?;
        // The projection must follow the same PC order as the layout.
        self.pca.permute_components(&layout.perm);
        let plan = SubspacePlan { pca: self.pca, layout };
        plan.debug_audit("stage 2 (subspace plan)");
        Ok(plan)
    }
}

/// Stage 2 output: permuted projection + subspace layout.
#[derive(Debug, Clone)]
pub struct SubspacePlan {
    /// Projection permuted to the layout's PC order.
    pub pca: Pca,
    /// The subspace layout (column ranges, importance shares).
    pub layout: SubspaceLayout,
}

impl SubspacePlan {
    /// Stage 3: MILP bit allocation over the layout's importance shares
    /// (Algorithm 2), honouring `cfg.allocation_constraints`.
    pub fn allocate_bits(self, cfg: &VaqConfig) -> Result<BitPlan, VaqError> {
        let _span = crate::obs::span("train.bit_plan");
        let bits = if cfg.allocation_constraints.is_empty() {
            allocate_bits(
                &self.layout.variance_share,
                cfg.budget_bits,
                cfg.min_bits,
                cfg.max_bits,
                cfg.allocation,
            )?
        } else {
            if cfg.allocation != AllocationStrategy::Adaptive {
                return Err(VaqError::BadConfig(
                    "allocation constraints require the adaptive strategy".into(),
                ));
            }
            allocate_bits_constrained(
                &self.layout.variance_share,
                cfg.budget_bits,
                cfg.min_bits,
                cfg.max_bits,
                &cfg.allocation_constraints,
            )?
        };
        let plan = BitPlan { pca: self.pca, layout: self.layout, bits };
        if cfg!(debug_assertions) {
            let report = plan.audit_constraints(cfg);
            assert!(report.is_ok(), "invariant audit failed after stage 3 (bit plan):\n{report}");
        }
        Ok(plan)
    }
}

/// Stage 3 output: the per-subspace bit allocation.
#[derive(Debug, Clone)]
pub struct BitPlan {
    /// Projection (carried forward).
    pub pca: Pca,
    /// Subspace layout (carried forward).
    pub layout: SubspaceLayout,
    /// Bits per subspace, summing to the budget.
    pub bits: Vec<usize>,
}

impl BitPlan {
    /// Stage 4: project the data, learn variable-sized dictionaries, and
    /// encode the database (Algorithm 3, part 1).
    pub fn train_dictionaries(
        self,
        data: &Matrix,
        cfg: &VaqConfig,
    ) -> Result<DictionaryStage, VaqError> {
        let _span = crate::obs::span("train.dictionaries");
        let projected = self.pca.transform(data)?;
        let encoder =
            Encoder::train(&projected, &self.layout, &self.bits, cfg.train_iters, cfg.seed)?;
        let codes = encoder.encode_all(&projected);
        let stage = DictionaryStage {
            pca: self.pca,
            layout: self.layout,
            bits: self.bits,
            encoder,
            codes,
            n: data.rows(),
        };
        stage.debug_audit("stage 4 (dictionaries)");
        Ok(stage)
    }
}

/// Stage 4 output: trained dictionaries and the encoded database.
#[derive(Debug, Clone)]
pub struct DictionaryStage {
    /// Projection (carried forward).
    pub pca: Pca,
    /// Subspace layout (carried forward).
    pub layout: SubspaceLayout,
    /// Bit allocation (carried forward).
    pub bits: Vec<usize>,
    /// Trained variable-sized dictionaries.
    pub encoder: Encoder,
    /// The `n × m` code array.
    pub codes: Vec<u16>,
    /// Number of encoded vectors.
    pub n: usize,
}

impl DictionaryStage {
    /// Stage 5: TI partitioning (Algorithm 3, part 2) and assembly of the
    /// finished index. The centroids sampled here become the model's: the
    /// training rows are assigned to them now, every later sealed row when
    /// it is sealed. `cfg.ti_clusters == 0` skips the partition (EA-only
    /// queries).
    pub fn build_ti(self, cfg: &VaqConfig) -> Result<Vaq, VaqError> {
        let _span = crate::obs::span("train.ti_build");
        let ti = if cfg.ti_clusters > 0 {
            Some(TiPartition::build(
                &self.encoder,
                &self.codes,
                self.n,
                cfg.ti_clusters,
                cfg.ti_prefix_subspaces,
                cfg.seed ^ 0x71,
            )?)
        } else {
            None
        };
        // Build the blocked code layout for the quantized SIMD scan once,
        // at encode time; subspaces wider than 8 bits are simply left out
        // (the scan folds their table minima into its bound).
        let packed = vaq_linalg::PackedCodes::pack(
            &self.codes,
            &self.encoder.table_sizes().collect::<Vec<_>>(),
            self.n,
        );
        crate::obs::note_truncated_packing(&packed, "pipeline.encode");
        let ti_centroids = ti.as_ref().map(|ti| Arc::clone(&ti.centroids));
        let core = SegmentCore {
            ids: SegmentIds::Dense(0),
            codes: self.codes.into(),
            n: self.n,
            packed,
            ti,
            lazy: None,
        };
        let model = Model {
            pca: self.pca,
            layout: self.layout,
            bits: self.bits,
            default_strategy: SearchStrategy::TiEa { visit_frac: cfg.ti_visit_frac },
            ti_centroids,
            ti_prefix_subspaces: cfg.ti_prefix_subspaces.clamp(1, self.encoder.num_subspaces()),
            encoder: self.encoder,
        };
        let vaq = Vaq { model, core: Arc::new(core) };
        vaq.debug_audit("stage 5 (TI build)");
        Ok(vaq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_dataset::SyntheticSpec;

    #[test]
    fn staged_pipeline_matches_monolithic_train() {
        let ds = SyntheticSpec::sift_like().generate(400, 0, 8);
        let cfg = VaqConfig::new(48, 8).with_ti_clusters(16).with_seed(4);
        let staged = VarPcaStage::compute(&ds.data, &cfg)
            .unwrap()
            .plan_subspaces(&cfg)
            .unwrap()
            .allocate_bits(&cfg)
            .unwrap()
            .train_dictionaries(&ds.data, &cfg)
            .unwrap()
            .build_ti(&cfg)
            .unwrap();
        let monolithic = Vaq::train(&ds.data, &cfg).unwrap();
        assert_eq!(staged.bits(), monolithic.bits());
        assert_eq!(staged.code(7), monolithic.code(7));
        assert_eq!(staged.search(ds.data.row(3), 5), monolithic.search(ds.data.row(3), 5));
    }

    #[test]
    fn one_varpca_serves_many_budgets() {
        // Forking after stage 1 re-uses the eigenbasis across budgets.
        let ds = SyntheticSpec::sald_like().generate(300, 0, 6);
        let base = VaqConfig::new(32, 8).with_ti_clusters(0);
        let stage1 = VarPcaStage::compute(&ds.data, &base).unwrap();
        for budget in [32usize, 64, 96] {
            let cfg = VaqConfig::new(budget, 8).with_ti_clusters(0);
            let vaq = stage1
                .clone()
                .plan_subspaces(&cfg)
                .unwrap()
                .allocate_bits(&cfg)
                .unwrap()
                .train_dictionaries(&ds.data, &cfg)
                .unwrap()
                .build_ti(&cfg)
                .unwrap();
            assert_eq!(vaq.code_bits(), budget);
        }
    }

    #[test]
    fn bit_plan_is_inspectable_before_dictionaries() {
        let ds = SyntheticSpec::sald_like().generate(200, 0, 2);
        let cfg = VaqConfig::new(40, 8).with_ti_clusters(0);
        let plan = VarPcaStage::compute(&ds.data, &cfg)
            .unwrap()
            .plan_subspaces(&cfg)
            .unwrap()
            .allocate_bits(&cfg)
            .unwrap();
        assert_eq!(plan.bits.len(), 8);
        assert_eq!(plan.bits.iter().sum::<usize>(), 40);
        // Importance-ordered subspaces get non-increasing bits on a steep
        // spectrum... not guaranteed in general, but the sum always holds.
    }

    #[test]
    fn validation_fires_before_any_numeric_work() {
        let ds = SyntheticSpec::deep_like().generate(50, 0, 3);
        let mut cfg = VaqConfig::new(64, 8);
        cfg.ti_visit_frac = 0.0;
        assert!(matches!(VarPcaStage::compute(&ds.data, &cfg), Err(VaqError::BadConfig(_))));
    }
}
