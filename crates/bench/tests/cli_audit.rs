//! `vaq_cli audit` and `vaq_cli info` must open every file the library
//! writes — a monolithic save, a segmented `save`, a `save_mapped` file
//! and a durable checkpoint — through the owned parser and report what
//! the file holds.

use std::path::Path;
use std::process::Command;
use vaq_core::{SegmentPolicy, SegmentedVaq, Vaq, VaqConfig};
use vaq_dataset::SyntheticSpec;

/// Runs `vaq_cli <cmd> --index <path>`, returning `(success, stdout)`.
fn cli(cmd: &str, path: &Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_vaq_cli"))
        .args([cmd, "--index"])
        .arg(path)
        .output()
        .expect("vaq_cli runs");
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn audit_and_info_open_one_file_of_each_kind() {
    let dir = std::env::temp_dir().join(format!("vaq-cli-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let data = SyntheticSpec { dim: 12, ..SyntheticSpec::sift_like() }.generate(200, 0, 1).data;
    let rows = |lo: usize, hi: usize| data.select_rows(&(lo..hi).collect::<Vec<_>>());
    let mono = Vaq::train(&rows(0, 120), &VaqConfig::new(24, 4).with_ti_clusters(8)).unwrap();
    let seg = SegmentedVaq::from_vaq(
        mono.clone(),
        SegmentPolicy::default().with_seal_threshold(32).with_ti_clusters(4).sequential(),
    );
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
    assert!(out.contains("120 live vectors; monolithic file"), "{out}");
    assert!(out.contains("1 sealed segment(s) holding 120 rows (0 tombstoned)"), "{out}");
    let (ok, out) = cli("info", &mono_path);
    assert!(ok && out.contains("bit allocation:") && out.contains("TI partition:"), "{out}");

    for path in [&save_path, &mapped_path, &durable_path] {
        let (ok, out) = cli("audit", path);
        assert!(ok && out.contains("audit clean"), "{}: {out}", path.display());
        assert!(out.contains("188 live vectors; segmented file"), "{out}");
        assert!(out.contains("2 sealed segment(s) holding 184 rows (1 tombstoned)"), "{out}");
        assert!(out.contains("6 buffered rows (1 tombstoned)"), "{out}");
        let (ok, out) = cli("info", path);
        assert!(ok && out.contains("2 sealed, 6 buffered rows"), "{}: {out}", path.display());
    }

    let _ = std::fs::remove_dir_all(&dir);
}
