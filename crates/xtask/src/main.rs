//! `xtask` — repo automation for the VAQ workspace.
//!
//! The only subcommand today is the VAQ lint pass:
//!
//! ```sh
//! cargo run -p xtask -- lint                      # check (CI runs this)
//! cargo run -p xtask -- lint --update-allowlist   # rewrite lint.toml
//! ```
//!
//! The linter is a dependency-free, token-level scanner (see `lexer.rs`)
//! enforcing the repo-specific rules VAQ001–VAQ010 (see `rules.rs` and
//! DESIGN.md §8/§13) against every Rust source file in the workspace,
//! modulo the shrink-only allowlist in `lint.toml` (see `config.rs`).

mod config;
mod lexer;
mod rules;

use rules::{FileClass, Violation};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "xtask — VAQ workspace automation

USAGE:
  cargo run -p xtask -- lint [--update-allowlist] [--root DIR]

`lint` scans every workspace .rs file (vendored shims and build output
excluded) for the VAQ002–VAQ011 rules and checks the result against the
shrink-only allowlist in lint.toml. Exit code 1 on any violation not
covered by an exact allowance, or on an allowance wider than reality.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("lint") => match run_lint(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run_lint(args: &[String]) -> Result<ExitCode, String> {
    let mut update = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--update-allowlist" => update = true,
            "--root" => {
                root = Some(PathBuf::from(it.next().ok_or("--root needs a value")?));
            }
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => repo_root()?,
    };

    // The active rule set, up front: a CI log should say what was checked
    // before it says what passed.
    println!("xtask lint rules:");
    for (code, desc) in rules::RULES {
        println!("  {code}  {desc}");
    }

    let files = collect_rust_files(&root)?;
    let mut violations: Vec<Violation> = Vec::new();
    let mut sites_used: Vec<&'static str> = Vec::new();
    for rel in &files {
        let abs = root.join(rel);
        let src = std::fs::read_to_string(&abs).map_err(|e| format!("{}: {e}", abs.display()))?;
        let lexed = lexer::lex(&src);
        violations.extend(rules::check_file(FileClass::new(rel), &lexed));
        // VAQ006's cross-file half: which registered sites does the
        // workspace actually arm or check? (The registry declaration in
        // faults.rs doesn't count as a use.)
        if !rel.ends_with("core/src/faults.rs") {
            for site in rules::used_fault_sites(&lexed) {
                if !sites_used.contains(&site) {
                    sites_used.push(site);
                }
            }
        }
    }
    for &site in rules::FAULT_SITES {
        if !sites_used.contains(&site) {
            violations.push(Violation {
                rule: "VAQ006",
                path: "crates/core/src/faults.rs".to_string(),
                line: 0,
                message: format!(
                    "registered fault site `{site}` is never armed or checked anywhere \
                     in the workspace — wire it into its stage or drop it from `SITES`"
                ),
            });
        }
    }
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    let allowlist_path = root.join("lint.toml");
    if update {
        std::fs::write(&allowlist_path, config::render_allowlist(&violations))
            .map_err(|e| format!("{}: {e}", allowlist_path.display()))?;
        println!(
            "lint.toml rewritten with {} violation(s) across {} file(s) — review the diff; \
             counts may only go down",
            violations.len(),
            files.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let allow = match std::fs::read_to_string(&allowlist_path) {
        Ok(text) => config::parse_lint_toml(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", allowlist_path.display())),
    };

    let outcome = config::apply_allowlist(violations, &allow);
    for v in &outcome.unsuppressed {
        println!("{}:{}: {} {}", v.path, v.line, v.rule, v.message);
    }
    for s in &outcome.stale {
        println!("{s}");
    }
    if outcome.is_clean() {
        println!(
            "xtask lint: OK — {} file(s) scanned, {} allowlisted violation(s) remaining",
            files.len(),
            outcome.suppressed
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "xtask lint: FAILED — {} violation(s), {} stale allowance(s)",
            outcome.unsuppressed.len(),
            outcome.stale.len()
        );
        Ok(ExitCode::FAILURE)
    }
}

/// The workspace root: two levels up from this crate's manifest.
fn repo_root() -> Result<PathBuf, String> {
    let manifest =
        std::env::var("CARGO_MANIFEST_DIR").map_err(|_| "CARGO_MANIFEST_DIR unset".to_string())?;
    Path::new(&manifest)
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .ok_or_else(|| "cannot locate the workspace root".to_string())
}

/// Directory names never descended into: build output, vendored shims
/// (external code kept dependency-free), VCS state, and result artifacts.
const SKIP_DIRS: &[&str] = &["target", "shims", ".git", "results", "related"];

/// Collects every `.rs` file under `root`, as sorted repo-relative paths
/// with forward slashes.
fn collect_rust_files(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| e.to_string())?
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}
