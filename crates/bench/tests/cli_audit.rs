//! `vaq_cli audit`, `info`, `search` and `eval` must open every file the
//! library writes — a `Vaq::save`, a segmented `save`, a `save_mapped`
//! file and a durable checkpoint — through the owned parser, report what
//! the file holds, and answer queries from it.

use std::path::Path;
use std::process::{Command, Output};
use vaq_core::{SegmentPolicy, SegmentedVaq, Vaq, VaqConfig};
use vaq_dataset::SyntheticSpec;
use vaq_linalg::Matrix;

fn run(args: &[&str], index: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vaq_cli"))
        .args(args)
        .arg("--index")
        .arg(index)
        .output()
        .expect("vaq_cli runs")
}

/// Runs `vaq_cli <cmd> --index <path>`, returning `(success, stdout)`.
fn cli(cmd: &str, path: &Path) -> (bool, String) {
    let out = run(&[cmd], path);
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

fn write_csv(path: &Path, rows: &Matrix) {
    let text: Vec<String> = (0..rows.rows())
        .map(|i| rows.row(i).iter().map(f32::to_string).collect::<Vec<_>>().join(","))
        .collect();
    std::fs::write(path, text.join("\n") + "\n").unwrap();
}

#[test]
fn every_command_opens_every_file_the_library_writes() {
    let dir = std::env::temp_dir().join(format!("vaq-cli-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let data = SyntheticSpec { dim: 12, ..SyntheticSpec::sift_like() }.generate(200, 0, 1).data;
    let rows = |lo: usize, hi: usize| data.select_rows(&(lo..hi).collect::<Vec<_>>());
    let mono = Vaq::train(&rows(0, 120), &VaqConfig::new(24, 4).with_ti_clusters(8)).unwrap();
    let seg =
        SegmentedVaq::from_vaq(mono.clone(), SegmentPolicy::default().with_seal_threshold(32));
    seg.add(&rows(120, 184)).unwrap(); // over the threshold: sealed inline
    seg.add(&rows(184, 190)).unwrap(); // 6 rows stay in the buffer
    assert!(seg.delete(5) && seg.delete(188)); // one sealed, one buffered tombstone

    let mono_path = dir.join("mono.vaq");
    mono.save(&mono_path).unwrap();
    let save_path = dir.join("save.vaq");
    seg.save(&save_path).unwrap();
    let mapped_path = dir.join("mapped.vaq");
    seg.save_mapped(&mapped_path).unwrap();
    let durable_path = dir.join("durable.vaq");
    seg.make_durable(&durable_path).unwrap();

    let (ok, out) = cli("audit", &mono_path);
    assert!(ok && out.contains("audit clean"), "{out}");
    assert!(out.contains("120 live vectors; bits ["), "{out}");
    assert!(
        out.contains("1 sealed segment(s), 0 with stored ids, holding 120 rows (0 tombstoned)"),
        "{out}"
    );
    assert!(out.contains("TI clusters 8 over the first 4 subspaces"), "{out}");

    for path in [&save_path, &mapped_path, &durable_path] {
        let (ok, out) = cli("audit", path);
        assert!(ok && out.contains("audit clean"), "{}: {out}", path.display());
        assert!(out.contains("188 live vectors; bits ["), "{out}");
        assert!(
            out.contains("2 sealed segment(s), 0 with stored ids, holding 184 rows (1 tombstoned)"),
            "{out}"
        );
        assert!(out.contains("TI clusters 8 over the first 4 subspaces"), "{out}");
        assert!(out.contains("6 buffered rows (1 tombstoned)"), "{out}");
        let (ok, out) = cli("info", path);
        assert!(ok && out.contains("2 sealed, 6 buffered rows"), "{}: {out}", path.display());
    }

    // `info` prints the model lines for every file; `search` and `eval`
    // answer from every file, identically for the three that hold the same
    // rows.
    let queries_path = dir.join("queries.csv");
    write_csv(&queries_path, &rows(190, 200));
    let q = queries_path.to_str().unwrap();
    let search = |path: &Path| {
        let out = run(&["search", "--queries", q, "--k", "5", "--visit", "1.0"], path);
        assert!(out.status.success(), "{}: {out:?}", path.display());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    for path in [&mono_path, &save_path, &mapped_path, &durable_path] {
        let (ok, out) = cli("info", path);
        assert!(ok && out.contains("bit allocation:") && out.contains("variance share:"), "{out}");
        assert_eq!(search(path).lines().count(), 10, "{}", path.display());
    }
    // The library's own answers, in the format `search` prints.
    let want = |answer: &dyn Fn(&[f32]) -> Vec<vaq_core::Neighbor>| -> String {
        (0..10)
            .map(|i| {
                let hits: Vec<String> = answer(data.row(190 + i))
                    .iter()
                    .map(|h| format!("{}:{:.4}", h.index, h.distance))
                    .collect();
                format!("query {i}: {}\n", hits.join(" "))
            })
            .collect()
    };
    let tiea = vaq_core::SearchStrategy::TiEa { visit_frac: 1.0 };
    assert_eq!(search(&mono_path), want(&|q| mono.search_with(q, 5, tiea).unwrap().0));
    let from_seg = want(&|q| seg.search_with(q, 5, tiea).unwrap().0);
    for path in [&save_path, &mapped_path, &durable_path] {
        assert_eq!(search(path), from_seg, "{}", path.display());
    }

    // A query file of the wrong width and an out-of-range --visit are
    // errors with a message, not panics (a panic exits with code 101).
    let narrow_path = dir.join("narrow.csv");
    write_csv(&narrow_path, &Matrix::from_rows(&[vec![0.5f32; 7]]));
    let narrow = narrow_path.to_str().unwrap();
    let truth_path = dir.join("truth.ivecs"); // one row: its one neighbour is id 0
    std::fs::write(&truth_path, [1i32.to_le_bytes(), 0i32.to_le_bytes()].concat()).unwrap();
    let truth = truth_path.to_str().unwrap();
    for args in
        [vec!["search", "--queries", narrow], vec!["eval", "--queries", narrow, "--truth", truth]]
    {
        let out = run(&args, &save_path);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.starts_with("error:") && err.contains("shape mismatch"), "{args:?}: {err}");
    }
    for visit in ["0", "1.5", "NaN"] {
        let out = run(&["search", "--queries", q, "--visit", visit], &save_path);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--visit {visit}: {err}");
        assert!(err.contains("outside (0, 1]"), "--visit {visit}: {err}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The library degrades a `VAQ_FORCE_KERNEL` it cannot honour to `scalar`;
/// `vaq_cli kernels` must say so with exit code 1 (a panic would be 101),
/// so a CI matrix job cannot pass on a tier it never ran.
#[test]
fn kernels_fails_when_the_forced_tier_did_not_take() {
    let kernels = |forced: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_vaq_cli"))
            .arg("kernels")
            .env("VAQ_FORCE_KERNEL", forced)
            .output()
            .expect("vaq_cli runs");
        (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let (code, out) = kernels("scalar");
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("active: scalar"), "{out}");
    // The retired tier name is now one more unrecognized value.
    let (code, out) = kernels("avx512");
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("active: scalar") && out.contains("requested: avx512"), "{out}");
}
