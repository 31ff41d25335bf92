//! The figure goldens: `results/quick/*.json` is what the 14 figure and
//! table binaries write at `--quick`. This re-runs all of them and holds
//! every field of every file against its golden exactly, except the two
//! timings (`query_secs`, `train_secs`). A change that moves a quality
//! number fails here; one that means to regenerates the goldens and names
//! the moved fields in CHANGES.md.
//!
//! It takes minutes in a release build, so it is ignored by default:
//!
//! ```text
//! cargo test --release -p vaq-bench --test figures -- --ignored
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;
use vaq_bench::Json;

/// In `run_all.sh` order: `fig10` reads the scores `tab02` writes.
const BINARIES: [&str; 14] = [
    env!("CARGO_BIN_EXE_fig03_variance_profiles"),
    env!("CARGO_BIN_EXE_fig04_subspace_importance"),
    env!("CARGO_BIN_EXE_tab01_specs"),
    env!("CARGO_BIN_EXE_fig01_quantizer_tradeoff"),
    env!("CARGO_BIN_EXE_fig06_hashing_quantization"),
    env!("CARGO_BIN_EXE_fig07_pruning_ablation"),
    env!("CARGO_BIN_EXE_fig08_hw_accelerated"),
    env!("CARGO_BIN_EXE_fig09_adaptive_ablation"),
    env!("CARGO_BIN_EXE_tab02_ucr_sweep"),
    env!("CARGO_BIN_EXE_fig10_critical_difference"),
    env!("CARGO_BIN_EXE_fig11_index_comparison"),
    env!("CARGO_BIN_EXE_fig12_hnsw_comparison"),
    env!("CARGO_BIN_EXE_ablation_design_choices"),
    env!("CARGO_BIN_EXE_extension_vaq_ivf"),
];

/// The fields that measure this machine, not the method.
const TIMINGS: [&str; 2] = ["query_secs", "train_secs"];

fn json_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
}

/// Every place where `got` differs from `want`, timings aside, as
/// `path: want != got` lines.
fn diff(at: &str, want: &Json, got: &Json, out: &mut Vec<String>) {
    match (want, got) {
        (Json::Arr(w), Json::Arr(g)) if w.len() == g.len() => {
            for (i, (w, g)) in w.iter().zip(g).enumerate() {
                diff(&format!("{at}[{i}]"), w, g, out);
            }
        }
        (Json::Obj(w), Json::Obj(g)) if w.iter().map(|(k, _)| k).eq(g.iter().map(|(k, _)| k)) => {
            for ((key, w), (_, g)) in w.iter().zip(g) {
                if !TIMINGS.contains(&key.as_str()) {
                    diff(&format!("{at}.{key}"), w, g, out);
                }
            }
        }
        _ if want == got => {}
        _ => out.push(format!("{at}: {} != {}", want.pretty(), got.pretty())),
    }
}

#[test]
#[ignore = "re-runs the 14 figure binaries (minutes, release); see the module docs"]
fn quick_figures_match_their_goldens() {
    let out = std::env::temp_dir().join(format!("vaq-figures-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).unwrap();
    for bin in BINARIES {
        let run = Command::new(bin).arg("--quick").arg("--out").arg(&out).output().unwrap();
        assert!(run.status.success(), "{bin}: {}", String::from_utf8_lossy(&run.stderr));
    }

    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/quick");
    let name = |p: &PathBuf| p.file_name().unwrap().to_owned();
    let (want, got) = (json_files(&goldens), json_files(&out));
    assert_eq!(want.iter().map(name).collect::<Vec<_>>(), got.iter().map(name).collect::<Vec<_>>());
    let mut moved = Vec::new();
    for (w, g) in want.iter().zip(&got) {
        let parse = |p: &Path| Json::parse(&std::fs::read_to_string(p).unwrap()).unwrap();
        diff(&name(w).to_string_lossy(), &parse(w), &parse(g), &mut moved);
    }
    let _ = std::fs::remove_dir_all(&out);
    assert!(moved.is_empty(), "{} field(s) moved:\n{}", moved.len(), moved.join("\n"));
}
