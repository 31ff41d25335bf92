//! Robustness suite (ISSUE 3): a degenerate-dataset matrix pushed through
//! the full training pipeline and a save/load round trip, and — when the
//! `faults` feature is on — injected-fault recovery checks for every
//! registered site. (Byte-level fuzzing of the index file lives in
//! `durability.rs`.)
//!
//! The contract under test is uniform: every entry point returns a clean
//! result or a typed [`VaqError`]; nothing panics, and nothing silently
//! returns a wrong answer.

use std::sync::Mutex;
use vaq_core::{
    Audit, IngressPolicy, SearchStrategy, SegmentPolicy, SegmentedVaq, Vaq, VaqConfig, VaqError,
};
use vaq_linalg::Matrix;

/// The degradation log is process-global; tests that drain or assert on it
/// must not interleave.
static DEG_LOCK: Mutex<()> = Mutex::new(());

fn toy_data(n: usize, d: usize, seed: u64) -> Matrix {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let mut row = Vec::with_capacity(d);
        for j in 0..d {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = ((s >> 40) as f32 / (1u32 << 23) as f32) - 1.0;
            row.push(v * 2.0 / (1.0 + j as f32 * 0.3));
        }
        rows.push(row);
    }
    Matrix::from_rows(&rows)
}

/// Pushes one degenerate dataset through training and, when training
/// accepts it, through audit + both search paths. Panics fail the test;
/// typed errors are an accepted outcome.
fn degenerate_case(name: &str, data: &Matrix, cfg: &VaqConfig) {
    match Vaq::train(data, cfg) {
        Ok(vaq) => {
            let report = vaq.audit();
            assert!(report.is_ok(), "{name}: trained index failed audit:\n{report}");
            let q = vec![0.1f32; data.cols()];
            let k = 3.min(data.rows());
            let full = vaq.search_with(&q, k, SearchStrategy::FullScan).unwrap().0;
            let tiea = vaq.search_with(&q, k, SearchStrategy::TiEa { visit_frac: 1.0 }).unwrap().0;
            assert_eq!(full.len(), k, "{name}: short result list");
            assert_eq!(
                full.iter().map(|h| h.index).collect::<Vec<_>>(),
                tiea.iter().map(|h| h.index).collect::<Vec<_>>(),
                "{name}: TiEa disagrees with FullScan"
            );
            // Round-trip the survivor too.
            let back = Vaq::from_bytes(&vaq.to_bytes()).expect(name);
            assert_eq!(
                back.search(&q, k).unwrap(),
                vaq.search(&q, k).unwrap(),
                "{name}: round-trip changed results"
            );
        }
        Err(e) => {
            // Typed rejection is fine; exercise Display and source() so a
            // malformed message would surface here.
            let _ = e.to_string();
            let _ = std::error::Error::source(&e);
        }
    }
}

#[test]
fn degenerate_all_zero_data() {
    let data = Matrix::from_rows(&vec![vec![0.0f32; 8]; 64]);
    degenerate_case("all-zero", &data, &VaqConfig::new(16, 4).with_ti_clusters(8));
}

#[test]
fn degenerate_single_point() {
    let data = toy_data(1, 8, 3);
    degenerate_case("single-point", &data, &VaqConfig::new(16, 4).with_ti_clusters(4));
}

#[test]
fn degenerate_fewer_points_than_dictionary_entries() {
    // Budget 24 over 4 subspaces wants dictionaries far larger than n = 5.
    let data = toy_data(5, 8, 11);
    degenerate_case("n<k", &data, &VaqConfig::new(24, 4).with_ti_clusters(2));
}

#[test]
fn degenerate_duplicate_rows() {
    let row: Vec<f32> = (0..8).map(|j| 0.7 - j as f32 * 0.1).collect();
    let data = Matrix::from_rows(&vec![row; 80]);
    degenerate_case("duplicates", &data, &VaqConfig::new(16, 4).with_ti_clusters(8));
}

#[test]
fn degenerate_fewer_dims_than_subspaces() {
    let data = toy_data(60, 3, 5);
    degenerate_case("d<m", &data, &VaqConfig::new(32, 8).with_ti_clusters(8));
}

#[test]
fn degenerate_empty_matrix() {
    let data = Matrix::from_rows(&Vec::<Vec<f32>>::new());
    assert!(matches!(
        Vaq::train(&data, &VaqConfig::new(16, 4)),
        Err(VaqError::EmptyData) | Err(VaqError::BadConfig(_))
    ));
}

#[test]
fn ingress_reject_reports_exact_cell() {
    let mut rows = vec![vec![0.5f32; 6]; 20];
    rows[7][3] = f32::NAN;
    let data = Matrix::from_rows(&rows);
    match Vaq::train(&data, &VaqConfig::new(12, 3)) {
        Err(VaqError::NonFinite { row, col }) => {
            assert_eq!((row, col), (7, 3));
        }
        other => panic!("expected NonFinite {{ 7, 3 }}, got {other:?}"),
    }
}

#[test]
fn ingress_sanitize_trains_through_non_finite_values() {
    let mut rows: Vec<Vec<f32>> =
        (0..80).map(|i| (0..6).map(|j| ((i * 7 + j) % 13) as f32 * 0.1 - 0.6).collect()).collect();
    rows[2][1] = f32::INFINITY;
    rows[40][5] = f32::NAN;
    let data = Matrix::from_rows(&rows);
    let cfg = VaqConfig::new(12, 3).with_ti_clusters(6).with_ingress(IngressPolicy::Sanitize);
    let _g = DEG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    vaq_core::faults::take_degradations();
    let vaq = Vaq::train(&data, &cfg).expect("sanitize should admit the dataset");
    assert!(vaq.audit().is_ok());
    assert!(
        vaq_core::faults::take_degradations().iter().any(|d| d.starts_with("ingress.validate")),
        "sanitization must be recorded in the degradation log"
    );
}

#[test]
fn error_sources_chain_to_the_failing_crate() {
    // d < subspaces bottoms out in a typed error whose Display is stable,
    // and solver/kmeans/linalg wrappers expose source().
    let e = VaqError::Solve(vaq_milp::SolveError::Infeasible);
    assert!(std::error::Error::source(&e).is_some());
    let e = VaqError::KMeans(vaq_kmeans::KMeansError::EmptyData);
    assert!(std::error::Error::source(&e).is_some());
}

/// Injected-fault recovery: only meaningful with the runtime compiled in.
#[cfg(feature = "faults")]
mod injected {
    use super::*;
    use vaq_core::faults::{arm, disarm_all, take_degradations, Trigger, SITES};

    fn with_armed<T>(site: &'static str, f: impl FnOnce() -> T) -> (T, Vec<&'static str>) {
        let _g = DEG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        take_degradations();
        arm(site, Trigger::Always);
        let out = f();
        disarm_all();
        (out, take_degradations())
    }

    fn data() -> Matrix {
        toy_data(200, 10, 21)
    }

    #[test]
    fn varpca_fault_falls_back_to_axis_aligned_projection() {
        let cfg = VaqConfig::new(20, 4).with_ti_clusters(8);
        let (result, notes) = with_armed("varpca.fit", || Vaq::train(&data(), &cfg));
        let vaq = result.expect("varpca failure must degrade, not abort");
        assert!(vaq.audit().is_ok());
        assert!(notes.iter().any(|n| n.starts_with("varpca.fit")), "{notes:?}");
        // The axis-aligned fallback is a permutation: queries still work.
        assert_eq!(vaq.search(data().row(0), 5).unwrap().len(), 5);
    }

    #[test]
    fn milp_fault_falls_back_to_greedy_allocation() {
        let cfg = VaqConfig::new(20, 4).with_ti_clusters(8);
        let (result, notes) = with_armed("allocation.milp", || Vaq::train(&data(), &cfg));
        let vaq = result.expect("solver failure must degrade, not abort");
        assert!(notes.iter().any(|n| n.contains("greedy")), "{notes:?}");
        // The greedy allocation still satisfies C1–C3.
        assert_eq!(vaq.bits().iter().sum::<usize>(), 20);
        assert!(vaq.bits().iter().all(|&b| (1..=16).contains(&b)));
        assert!(vaq.audit().is_ok());
    }

    #[test]
    fn persist_fault_is_a_typed_error() {
        let cfg = VaqConfig::new(20, 4).with_ti_clusters(8);
        let bytes = Vaq::train(&data(), &cfg).unwrap().to_bytes();
        let (result, _) = with_armed("persist.from_bytes", || Vaq::from_bytes(&bytes));
        assert!(matches!(result, Err(VaqError::Injected { site: "persist.from_bytes" })));
    }

    #[test]
    fn every_registered_site_is_reachable_from_the_pipeline() {
        // Arm each site in turn with a certain trigger; the run must either
        // error (Injected / typed) or log a degradation naming the site —
        // proving the site is actually wired into the stage it guards.
        let cfg = VaqConfig::new(20, 4).with_ti_clusters(8);
        let d = data();
        for &site in SITES {
            let (outcome, notes) = with_armed(site, || {
                let vaq = Vaq::train(&d, &cfg)?;
                let bytes = vaq.to_bytes();
                let back = Vaq::from_bytes(&bytes)?;
                let seg = SegmentedVaq::from_vaq(back, SegmentPolicy::default());
                // The durability layer owns the `persist.wal_append`,
                // `persist.commit`, and `persist.fsync` sites: commit a
                // manifest atomically, then log one add through the WAL.
                let dir = std::env::temp_dir().join(format!("vaq-robust-{}", std::process::id()));
                std::fs::create_dir_all(&dir).expect("create scratch dir");
                seg.make_durable(&dir.join(format!("{site}.vaq")))?;
                seg.add(&Matrix::from_rows(&[d.row(0).to_vec()]))?;
                // The mapped reopen owns `persist.mmap`: an armed site
                // degrades the open to the owned read path with a note.
                let v4 = dir.join(format!("{site}.mapped.vaq"));
                seg.save_mapped(&v4)?;
                SegmentedVaq::open_mapped(&v4)?.search_with(
                    d.row(0),
                    3,
                    SearchStrategy::FullScan,
                )?;
                Ok::<(), VaqError>(())
            });
            let observed = outcome.is_err()
                || notes.iter().any(|n| n.starts_with(site) || n.contains("greedy"));
            assert!(observed, "site {site} armed Always but never observed (notes {notes:?})");
        }
        let scratch = std::env::temp_dir().join(format!("vaq-robust-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(scratch);
    }
}
