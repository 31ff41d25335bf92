//! End-to-end checks of the `xtask lint` binary: the committed tree plus
//! allowlist must be clean, and a reintroduced violation must fail with a
//! `file:line: VAQxxx` diagnostic.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

fn run_lint(root: &Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root"])
        .arg(root)
        .output()
        .expect("xtask binary runs");
    let text =
        format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    (out.status.success(), text)
}

#[test]
fn committed_tree_is_clean_under_allowlist() {
    let (ok, text) = run_lint(&repo_root());
    assert!(ok, "lint failed on the committed tree:\n{text}");
    assert!(text.contains("xtask lint: OK"), "{text}");
}

#[test]
fn reintroduced_violation_fails_with_location_and_code() {
    // A scratch workspace with one library file holding a fresh VAQ004
    // violation and no allowlist.
    let dir = std::env::temp_dir().join(format!("vaq-lint-test-{}", std::process::id()));
    let src = dir.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("scratch tree");
    std::fs::write(src.join("bad.rs"), "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n")
        .expect("scratch file");

    let (ok, text) = run_lint(&dir);
    std::fs::remove_dir_all(&dir).ok();

    assert!(!ok, "lint must fail on an unallowed violation:\n{text}");
    assert!(
        text.contains("crates/core/src/bad.rs:2: VAQ004"),
        "diagnostic must carry file:line and rule code:\n{text}"
    );
    assert!(text.contains("xtask lint: FAILED"), "{text}");
}

/// One doctored file per concurrency-discipline rule: each must fail at
/// the exact `file:line` with the right code.
#[test]
fn concurrency_discipline_rules_fail_on_doctored_files() {
    let dir = std::env::temp_dir().join(format!("vaq-lint-test-disc-{}", std::process::id()));

    // VAQ008: a direct std::sync import inside vaq-core.
    let core = dir.join("crates/core/src");
    std::fs::create_dir_all(&core).expect("scratch tree");
    std::fs::write(
        core.join("vaq008.rs"),
        "//! doctored\nuse std::sync::Mutex;\npub fn f() -> Mutex<u32> { Mutex::new(0) }\n",
    )
    .expect("scratch file");

    // VAQ009: a Relaxed store with no ORDERING justification (line 4).
    std::fs::write(
        core.join("vaq009.rs"),
        "//! doctored\nuse crate::sync::atomic::{AtomicU64, Ordering};\n\
         pub fn f(v: &AtomicU64) {\n    v.store(1, Ordering::Relaxed);\n}\n",
    )
    .expect("scratch file");

    // VAQ010: an unchecked narrowing cast in persist.rs (line 3).
    std::fs::write(
        core.join("persist.rs"),
        "//! doctored\npub fn f(v: u64) -> usize {\n    v as usize\n}\n",
    )
    .expect("scratch file");

    let (ok, text) = run_lint(&dir);
    std::fs::remove_dir_all(&dir).ok();

    assert!(!ok, "lint must fail on the doctored tree:\n{text}");
    assert!(text.contains("crates/core/src/vaq008.rs:2: VAQ008"), "{text}");
    assert!(text.contains("crates/core/src/vaq009.rs:4: VAQ009"), "{text}");
    assert!(text.contains("crates/core/src/persist.rs:3: VAQ010"), "{text}");
}

/// The lint header names every rule, so a CI log records what was active.
#[test]
fn lint_output_prints_the_rule_table() {
    let (ok, text) = run_lint(&repo_root());
    assert!(ok, "{text}");
    assert!(text.contains("xtask lint rules:"), "{text}");
    for code in
        ["VAQ002", "VAQ003", "VAQ004", "VAQ005", "VAQ006", "VAQ007", "VAQ008", "VAQ009", "VAQ010"]
    {
        assert!(text.contains(code), "rule table must list {code}:\n{text}");
    }
}
