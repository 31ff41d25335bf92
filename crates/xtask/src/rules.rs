//! The VAQ lint rules, evaluated over the token stream of one file.
//!
//! | Code   | Rule |
//! |--------|------|
//! | VAQ002 | no `Vec<Vec<f32>>` lookup-table pattern in `crates/core` / `crates/baselines` |
//! | VAQ003 | no `partial_cmp(..).unwrap()` / `.unwrap_or(..)` and no `partial_cmp` inside sort/min/max comparators — use `total_cmp` |
//! | VAQ004 | no `unwrap()` / `expect()` in library crates outside `#[cfg(test)]` |
//! | VAQ005 | no `unsafe` without a justifying `// SAFETY:` comment (non-trivial text, within the three preceding lines) |
//! | VAQ006 | fault-site string literals (`fired`, `arm`, …) must name a site registered in `faults::SITES`, and that const must mirror the lint registry |
//! | VAQ007 | no bare `println!` / `eprintln!` in library crates — route diagnostics through `obs::event` / structured logs |
//! | VAQ008 | no direct `std::sync` / `std::thread` in `vaq-core` outside the `crate::sync` facade — loom builds must model every primitive |
//! | VAQ009 | every non-`SeqCst` atomic ordering argument needs an `// ORDERING:` justification within the three preceding lines |
//! | VAQ010 | no `as` integer casts in the serialization/kernel boundary files (`persist.rs`, `wal.rs`, `qtables.rs`, dataset `io.rs`/`largescale.rs`) — use `try_from`/`From` with a typed error |
//! | VAQ011 | `unsafe` in kernel files (`qtables.rs`, `crc.rs`) additionally needs a comment naming the CPU feature tier the block relies on (ssse3/sse2/avx2/neon/sse4.2/crc) |
//!
//! Every rule reports a stable code so `lint.toml` allowances and CI logs
//! stay meaningful as the codebase grows. See DESIGN.md §8 and §13.

use crate::lexer::{LexedFile, Token};

/// `code → one-line summary`, printed by `xtask lint` so every CI log
/// shows which rules were active for the run.
pub const RULES: &[(&str, &str)] = &[
    ("VAQ002", "no `Vec<Vec<f32>>` lookup tables in core/baselines — use the flat `TableArena`"),
    ("VAQ003", "no NaN-unsafe `partial_cmp` unwraps or comparators — use `total_cmp`"),
    ("VAQ004", "no `unwrap()`/`expect()` in library crates outside test code"),
    ("VAQ005", "every `unsafe` needs a justifying `// SAFETY:` comment (non-trivial text)"),
    ("VAQ006", "fault-site names must match the `faults::SITES` registry exactly"),
    ("VAQ007", "no bare `println!`/`eprintln!` in library crates — use `obs::event`"),
    ("VAQ008", "no direct `std::sync`/`std::thread` in vaq-core — go through `crate::sync`"),
    ("VAQ009", "non-SeqCst atomic orderings need an `// ORDERING:` justification"),
    (
        "VAQ010",
        "no `as` integer casts in serialization/kernel boundary files — use `try_from`/`From`",
    ),
    ("VAQ011", "kernel-file `unsafe` must name its CPU feature (ssse3/sse2/avx2/neon/sse4.2/crc)"),
];

/// Non-`SeqCst` ordering variants whose use must be justified (VAQ009).
/// `SeqCst` is the safe default; anything weaker is a claim about the
/// protocol that the comment (and the loom suite) must back up. The cmp
/// variants (`Less`, `Equal`, `Greater`) never match, so
/// `std::cmp::Ordering` code is naturally exempt.
const WEAK_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel"];

/// Integer destination types of the `as` casts VAQ010 bans.
const INT_TYPES: &[&str] =
    &["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub message: String,
}

/// Library crates where panicking on `Option`/`Result` is banned (VAQ004).
const LIB_CRATES: &[&str] =
    &["core", "linalg", "kmeans", "milp", "metrics", "dataset", "baselines", "index"];

/// Comparator-taking functions whose argument must be NaN-safe (VAQ003).
const COMPARATOR_FNS: &[&str] =
    &["sort_by", "sort_unstable_by", "max_by", "min_by", "binary_search_by"];

/// The fault-site registry, mirrored from `vaq-core`'s `faults::SITES`
/// (VAQ006 verifies the two stay identical). A typo'd site name compiles
/// fine but never fires — this list is what catches it.
pub const FAULT_SITES: &[&str] = &[
    "varpca.fit",
    "allocation.milp",
    "persist.from_bytes",
    "persist.wal_append",
    "persist.commit",
    "persist.fsync",
    "persist.mmap",
];

/// Functions whose first string-literal argument names a fault site
/// (VAQ006): the runtime triggers, the arming API, and test helpers.
const FAULT_FNS: &[&str] = &["fired", "arm", "with_armed", "fault_point"];

/// What the path tells us about a file. Paths are repo-relative with
/// forward slashes.
#[derive(Debug, Clone, Copy)]
pub struct FileClass<'a> {
    path: &'a str,
}

impl<'a> FileClass<'a> {
    pub fn new(path: &'a str) -> FileClass<'a> {
        FileClass { path }
    }

    /// Test-only source: integration tests and benches directories.
    fn in_test_dir(&self) -> bool {
        self.path.contains("/tests/")
            || self.path.contains("/benches/")
            || self.path.starts_with("tests/")
            || self.path.starts_with("benches/")
    }

    /// Library source of a production crate (no bins, no examples).
    fn is_library_src(&self) -> bool {
        if self.path.contains("/bin/") || self.path.contains("examples/") {
            return false;
        }
        if self.path.starts_with("src/") {
            return true; // the root facade crate
        }
        LIB_CRATES.iter().any(|c| self.path.starts_with(&format!("crates/{c}/src/")))
    }

    /// Inside the crates the `Vec<Vec<f32>>` ban applies to.
    fn in_table_banned_crate(&self) -> bool {
        self.path.starts_with("crates/core/src/") || self.path.starts_with("crates/baselines/src/")
    }

    /// `vaq-core` library source, where every sync/thread primitive must
    /// come through the `crate::sync` facade (VAQ008).
    fn in_core_src(&self) -> bool {
        self.path.starts_with("crates/core/src/")
    }

    /// The one file allowed to name `std::sync` / `std::thread` directly:
    /// the facade that maps them to loom under `cfg(loom)`.
    fn is_sync_facade(&self) -> bool {
        self.path == "crates/core/src/sync.rs"
    }

    /// Serialization/kernel boundary files where `as` integer casts are
    /// banned (VAQ010): every length there is attacker-controlled or
    /// feeds an unsafe kernel, so conversions must be checked. The WAL
    /// and the dataset readers/writers parse the same class of untrusted
    /// on-disk input as the manifest loader.
    fn in_cast_banned_file(&self) -> bool {
        self.path.ends_with("core/src/persist.rs")
            || self.path.ends_with("core/src/segment/wal.rs")
            || self.path.ends_with("linalg/src/qtables.rs")
            || self.path.ends_with("dataset/src/io.rs")
            || self.path.ends_with("dataset/src/largescale.rs")
    }

    /// Kernel files — the SIMD scan and the CRC-32C — where every
    /// `unsafe` must also name the CPU feature tier it relies on
    /// (VAQ011): the SAFETY argument for an intrinsic block is only
    /// checkable against the dispatch layer when it says *which*
    /// runtime-verified feature makes it sound.
    fn in_kernel_file(&self) -> bool {
        self.path.ends_with("linalg/src/qtables.rs") || self.path.ends_with("linalg/src/crc.rs")
    }
}

/// Runs every rule over one lexed file.
pub fn check_file(class: FileClass<'_>, lexed: &LexedFile) -> Vec<Violation> {
    let mut out = Vec::new();
    let toks = &lexed.tokens;

    let push = |out: &mut Vec<Violation>, rule: &'static str, line: u32, message: String| {
        // One diagnostic per (rule, line): composed patterns (e.g. a
        // sort_by whose comparator also calls .unwrap()) fire once.
        if !out.iter().any(|v: &Violation| v.rule == rule && v.line == line) {
            out.push(Violation { rule, path: class.path.to_string(), line, message });
        }
    };

    for (i, t) in toks.iter().enumerate() {
        // ---- VAQ005: unsafe without a SAFETY comment (applies everywhere,
        // including test code).
        if t.text == "unsafe" {
            let documented = lexed.safety_lines.iter().any(|&l| l <= t.line && l + 3 >= t.line);
            if !documented {
                push(
                    &mut out,
                    "VAQ005",
                    t.line,
                    "`unsafe` without a justifying `// SAFETY:` comment on the preceding \
                     lines (an empty marker does not count)"
                        .into(),
                );
            }
            // ---- VAQ011: in kernel files the justification must also name
            // the CPU feature tier (applies everywhere, including test
            // code, same as VAQ005).
            if class.in_kernel_file() {
                let named = lexed.feature_lines.iter().any(|&l| l <= t.line && l + 3 >= t.line);
                if !named {
                    push(
                        &mut out,
                        "VAQ011",
                        t.line,
                        "`unsafe` in a kernel file whose comment names no CPU feature \
                         tier (ssse3/sse2/avx2/neon/sse4.2/crc) — state which \
                         runtime-verified feature makes the block sound"
                            .into(),
                    );
                }
            }
        }

        // ---- VAQ008: direct std sync/thread primitives in vaq-core
        // (applies everywhere, including test code — `#[cfg(test)]`
        // modules compile under `RUSTFLAGS="--cfg loom"` too, and an
        // unmodeled primitive silently escapes the model checker).
        if class.in_core_src()
            && !class.is_sync_facade()
            && t.text == "std"
            && matches(toks, i + 1, &[":", ":"])
            && toks.get(i + 3).is_some_and(|n| n.text == "sync" || n.text == "thread")
        {
            push(
                &mut out,
                "VAQ008",
                t.line,
                format!(
                    "direct `std::{}` in vaq-core; import through `crate::sync` so \
                     loom builds model the primitive",
                    toks[i + 3].text
                ),
            );
        }

        // ---- VAQ006: fault-site name literals must be registered (applies
        // everywhere, including test code — a typo'd site compiles fine but
        // never fires, silently disarming the chaos coverage).
        if FAULT_FNS.contains(&t.text.as_str()) {
            let open =
                if toks.get(i + 1).map(|n| n.text.as_str()) == Some("!") { i + 2 } else { i + 1 };
            if toks.get(open).map(|n| n.text.as_str()) == Some("(") {
                if let Some(site) = toks
                    .get(open + 1)
                    .and_then(|n| n.text.strip_prefix('"'))
                    .and_then(|s| s.strip_suffix('"'))
                {
                    if !FAULT_SITES.contains(&site) {
                        push(
                            &mut out,
                            "VAQ006",
                            t.line,
                            format!("fault site `{site}` is not registered in `faults::SITES`"),
                        );
                    }
                }
            }
        }

        if t.is_test || class.in_test_dir() {
            continue;
        }

        let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());

        // ---- VAQ002: nested-Vec lookup tables in core/baselines.
        if class.in_table_banned_crate()
            && t.text == "Vec"
            && matches(toks, i + 1, &["<", "Vec", "<", "f32"])
        {
            push(
                &mut out,
                "VAQ002",
                t.line,
                "`Vec<Vec<f32>>` lookup tables are banned; use the flat `TableArena`".into(),
            );
        }

        // ---- VAQ003a: partial_cmp(..).unwrap() / .unwrap_or(..).
        if t.text == "partial_cmp" && prev != Some("fn") {
            if let Some(close) = skip_balanced_parens(toks, i + 1) {
                let method = toks.get(close + 2).map(|n| n.text.as_str());
                if toks.get(close + 1).map(|n| n.text.as_str()) == Some(".")
                    && matches!(method, Some("unwrap" | "unwrap_or"))
                {
                    // `.unwrap()` panics on NaN; `.unwrap_or(Equal)` silently
                    // makes NaN compare equal to everything, which breaks the
                    // strict-weak-ordering contract of sorts and heaps.
                    push(
                        &mut out,
                        "VAQ003",
                        t.line,
                        format!(
                            "`partial_cmp(..).{}()` is NaN-unsafe; use `total_cmp`",
                            method.unwrap_or_default()
                        ),
                    );
                }
            }
        }

        // ---- VAQ003b: partial_cmp anywhere inside a comparator closure.
        if COMPARATOR_FNS.contains(&t.text.as_str())
            && toks.get(i + 1).map(|n| n.text.as_str()) == Some("(")
        {
            if let Some(close) = skip_balanced_parens(toks, i + 1) {
                if toks[i + 1..close].iter().any(|x| x.text == "partial_cmp") {
                    push(
                        &mut out,
                        "VAQ003",
                        t.line,
                        format!(
                            "NaN-unsafe comparator: `partial_cmp` inside `{}`; use `total_cmp`",
                            t.text
                        ),
                    );
                }
            }
        }

        // ---- VAQ007: bare stdout/stderr printing in library code. Library
        // crates report through `Result`s, `obs::event`, or the degradation
        // log — never by writing to the process streams, which callers
        // cannot capture, rate-limit, or machine-parse.
        if class.is_library_src()
            && (t.text == "println" || t.text == "eprintln")
            && toks.get(i + 1).map(|n| n.text.as_str()) == Some("!")
        {
            push(
                &mut out,
                "VAQ007",
                t.line,
                format!(
                    "bare `{}!` in library code; emit a structured `obs::event` \
                     (or return the message in a `Result`) instead",
                    t.text
                ),
            );
        }

        // ---- VAQ004: unwrap/expect in library code.
        if class.is_library_src() && (t.text == "unwrap" || t.text == "expect") && prev == Some(".")
        {
            push(
                &mut out,
                "VAQ004",
                t.line,
                format!(
                    "`.{}()` in library code; propagate a `Result` (or budget it in lint.toml)",
                    t.text
                ),
            );
        }

        // ---- VAQ009: weak atomic orderings must be argued. A missing
        // comment usually means the ordering was guessed; the loom suite
        // can prove the protocol, but only the comment says what the
        // protocol *is*.
        if class.is_library_src()
            && t.text == "Ordering"
            && matches(toks, i + 1, &[":", ":"])
            && toks.get(i + 3).is_some_and(|n| WEAK_ORDERINGS.contains(&n.text.as_str()))
        {
            let justified = lexed.ordering_lines.iter().any(|&l| l <= t.line && l + 3 >= t.line);
            if !justified {
                push(
                    &mut out,
                    "VAQ009",
                    t.line,
                    format!(
                        "`Ordering::{}` without an `// ORDERING:` justification on the \
                         preceding lines — name the pairing store/load (or use `SeqCst`)",
                        toks[i + 3].text
                    ),
                );
            }
        }

        // ---- VAQ010: lossy-looking `as` integer casts in the boundary
        // files. `use x as y` aliases never name a primitive integer, so
        // only real casts match.
        if class.in_cast_banned_file()
            && t.text == "as"
            && toks.get(i + 1).is_some_and(|n| INT_TYPES.contains(&n.text.as_str()))
        {
            push(
                &mut out,
                "VAQ010",
                t.line,
                format!(
                    "`as {}` cast in a serialization/kernel boundary file; convert with \
                     `try_from`/`From` and report a typed error",
                    toks[i + 1].text
                ),
            );
        }
    }

    // ---- VAQ006 (registry sync): the `SITES` const in faults.rs must
    // list exactly the sites this lint knows about, so the two registries
    // cannot drift apart.
    if class.path.ends_with("core/src/faults.rs") {
        if let Some(decl) = toks.iter().position(|t| t.text == "SITES") {
            let declared: Vec<&str> = toks[decl..]
                .iter()
                .take_while(|t| t.text != ";")
                .filter_map(|t| t.text.strip_prefix('"').and_then(|s| s.strip_suffix('"')))
                .collect();
            let missing: Vec<&&str> =
                FAULT_SITES.iter().filter(|s| !declared.contains(s)).collect();
            let extra: Vec<&&str> = declared.iter().filter(|s| !FAULT_SITES.contains(s)).collect();
            if !missing.is_empty() || !extra.is_empty() {
                push(
                    &mut out,
                    "VAQ006",
                    toks[decl].line,
                    format!(
                        "faults::SITES disagrees with the lint registry \
                         (missing {missing:?}, unexpected {extra:?}); update \
                         xtask rules::FAULT_SITES together with faults.rs"
                    ),
                );
            }
        }
    }
    out
}

/// Registered fault sites referenced by this file through any of the
/// [`FAULT_FNS`] call forms. `main` aggregates these across the workspace
/// to flag registry entries nothing ever arms or checks.
pub fn used_fault_sites(lexed: &LexedFile) -> Vec<&'static str> {
    let toks = &lexed.tokens;
    let mut used = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !FAULT_FNS.contains(&t.text.as_str()) {
            continue;
        }
        let open =
            if toks.get(i + 1).map(|n| n.text.as_str()) == Some("!") { i + 2 } else { i + 1 };
        if toks.get(open).map(|n| n.text.as_str()) != Some("(") {
            continue;
        }
        if let Some(site) = toks
            .get(open + 1)
            .and_then(|n| n.text.strip_prefix('"'))
            .and_then(|s| s.strip_suffix('"'))
        {
            if let Some(&known) = FAULT_SITES.iter().find(|&&s| s == site) {
                if !used.contains(&known) {
                    used.push(known);
                }
            }
        }
    }
    used
}

/// True when the tokens starting at `start` spell out `pattern`.
fn matches(toks: &[Token], start: usize, pattern: &[&str]) -> bool {
    pattern.iter().enumerate().all(|(k, want)| toks.get(start + k).is_some_and(|t| t.text == *want))
}

/// If `open` indexes a `(`, returns the index of its matching `)`.
fn skip_balanced_parens(toks: &[Token], open: usize) -> Option<usize> {
    if toks.get(open).map(|t| t.text.as_str()) != Some("(") {
        return None;
    }
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(path: &str, src: &str) -> Vec<Violation> {
        check_file(FileClass::new(path), &lex(src))
    }

    fn codes(path: &str, src: &str) -> Vec<&'static str> {
        check(path, src).into_iter().map(|v| v.rule).collect()
    }

    const LIB: &str = "crates/core/src/example.rs";

    #[test]
    fn nested_vec_tables_are_vaq002_in_core_only() {
        let src = "fn f() -> Vec<Vec<f32>> { vec![] }";
        // The definition line also trips no other rule.
        assert_eq!(codes("crates/core/src/x.rs", src), vec!["VAQ002"]);
        assert_eq!(codes("crates/baselines/src/x.rs", src), vec!["VAQ002"]);
        assert!(codes("crates/bench/src/x.rs", src).is_empty());
    }

    /// A path outside the library crates, so `.unwrap()` itself (VAQ004)
    /// stays out of the picture.
    const BIN: &str = "crates/bench/src/bin/example.rs";

    #[test]
    fn partial_cmp_unwrap_is_vaq003() {
        assert_eq!(
            codes(BIN, "fn f(a: f32, b: f32) { let o = a.partial_cmp(&b).unwrap(); let _ = o; }"),
            vec!["VAQ003"]
        );
    }

    #[test]
    fn partial_cmp_sort_is_vaq003_once() {
        // sort_by + partial_cmp + unwrap on one line still reports once.
        let v = check(BIN, "fn f(v: &mut [f32]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "VAQ003");
    }

    #[test]
    fn library_partial_cmp_unwrap_trips_both_rules() {
        let mut c = codes(LIB, "fn f(a: f32, b: f32) { let _ = a.partial_cmp(&b).unwrap(); }");
        c.sort_unstable();
        assert_eq!(c, vec!["VAQ003", "VAQ004"]);
    }

    #[test]
    fn partial_cmp_unwrap_or_in_comparator_is_vaq003() {
        let src = "fn f(v: &mut [f32]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(O::Equal)); }";
        assert_eq!(codes(LIB, src), vec!["VAQ003"]);
    }

    #[test]
    fn partial_cmp_unwrap_or_outside_comparator_is_vaq003() {
        // The `.unwrap_or(Equal)` spelling never panics, but it makes NaN
        // compare equal to everything — same hazard, same rule.
        let src = "fn f(a: f32, b: f32) { let _ = a.partial_cmp(&b).unwrap_or(O::Equal); }";
        assert_eq!(codes(BIN, src), vec!["VAQ003"]);
    }

    #[test]
    fn total_cmp_sort_is_clean() {
        assert!(codes(LIB, "fn f(v: &mut [f32]) { v.sort_by(|a, b| a.total_cmp(b)); }").is_empty());
    }

    #[test]
    fn partial_cmp_in_ord_impl_is_allowed() {
        // `fn partial_cmp` definitions and unwrap_or-based Ord impls pass.
        let src = "impl PartialOrd for N { fn partial_cmp(&self, o: &N) -> Option<Ordering> { \
                   Some(self.cmp(o)) } }";
        assert!(codes(LIB, src).is_empty());
    }

    #[test]
    fn library_unwrap_is_vaq004() {
        assert_eq!(codes(LIB, "fn f(x: Option<u8>) { x.unwrap(); }"), vec!["VAQ004"]);
        assert_eq!(codes(LIB, "fn f(x: Option<u8>) { x.expect(\"set\"); }"), vec!["VAQ004"]);
    }

    #[test]
    fn unwrap_or_is_not_vaq004() {
        assert!(codes(LIB, "fn f(x: Option<u8>) { x.unwrap_or(0); }").is_empty());
    }

    #[test]
    fn bench_and_test_unwrap_are_exempt() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }";
        assert!(codes("crates/bench/src/bin/tool.rs", src).is_empty());
        assert!(codes("crates/core/tests/props.rs", src).is_empty());
        let test_mod = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}";
        assert!(codes(LIB, test_mod).is_empty());
    }

    #[test]
    fn library_println_is_vaq007() {
        assert_eq!(codes(LIB, "fn f() { println!(\"ready\"); }"), vec!["VAQ007"]);
        assert_eq!(codes(LIB, "fn f() { eprintln!(\"warn: {x}\"); }"), vec!["VAQ007"]);
    }

    #[test]
    fn println_outside_library_src_is_exempt() {
        let src = "fn f() { println!(\"progress\"); eprintln!(\"err\"); }";
        // Binaries and examples print by design; tests print for debugging.
        assert!(codes(BIN, src).is_empty());
        assert!(codes("crates/core/tests/props.rs", src).is_empty());
        let test_mod = "#[cfg(test)]\nmod tests {\n fn t() { println!(\"dbg\"); }\n}";
        assert!(codes(LIB, test_mod).is_empty());
    }

    #[test]
    fn println_identifier_without_bang_is_not_vaq007() {
        // A plain identifier (e.g. a local fn named `println`) is not the
        // macro; only the `println !` token pair trips the rule.
        assert!(codes(LIB, "fn f() { let println = 3; let _ = println; }").is_empty());
    }

    #[test]
    fn undocumented_unsafe_is_vaq005() {
        assert_eq!(codes(LIB, "fn f() { unsafe { go() } }"), vec!["VAQ005"]);
    }

    #[test]
    fn documented_unsafe_is_clean() {
        let src = "fn f() {\n    // SAFETY: bounds checked above\n    unsafe { go() }\n}";
        assert!(codes(LIB, src).is_empty());
    }

    #[test]
    fn unsafe_in_string_is_ignored() {
        assert!(codes(LIB, "fn f() { let s = \"unsafe { }\"; }").is_empty());
    }

    #[test]
    fn empty_safety_marker_is_still_vaq005() {
        // The marker alone no longer satisfies the rule; the justification
        // text is what the audit reads.
        let src = "fn f() {\n    // SAFETY:\n    unsafe { go() }\n}";
        assert_eq!(codes(LIB, src), vec!["VAQ005"]);
    }

    #[test]
    fn multiline_safety_justification_is_clean() {
        let src = "fn f() {\n    // SAFETY: the match guard verified the\n    \
                   // CPU feature at runtime\n    unsafe { go() }\n}";
        assert!(codes(LIB, src).is_empty());
    }

    #[test]
    fn direct_std_sync_in_core_is_vaq008() {
        assert_eq!(codes(LIB, "use std::sync::Mutex;"), vec!["VAQ008"]);
        assert_eq!(codes(LIB, "fn f() { std::thread::spawn(|| {}); }"), vec!["VAQ008"]);
        // Test modules are NOT exempt: they compile under --cfg loom too.
        let test_mod = "#[cfg(test)]\nmod tests {\n use std::sync::Arc;\n}";
        assert_eq!(codes(LIB, test_mod), vec!["VAQ008"]);
    }

    #[test]
    fn std_sync_outside_core_or_in_facade_is_exempt() {
        let src = "use std::sync::Mutex;";
        assert!(codes("crates/core/src/sync.rs", src).is_empty());
        assert!(codes("crates/bench/src/bin/tool.rs", src).is_empty());
        assert!(codes("crates/index/src/dstree.rs", src).is_empty());
        // `crate::sync` and other std modules in core stay clean.
        assert!(codes(LIB, "use crate::sync::Mutex; use std::collections::HashMap;").is_empty());
    }

    #[test]
    fn unjustified_weak_ordering_is_vaq009() {
        let src = "fn f(v: &AtomicU64) { v.load(Ordering::Acquire); }";
        let v = check(LIB, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "VAQ009");
        assert_eq!(v[0].line, 1);
        assert_eq!(
            codes(LIB, "fn f(v: &AtomicU64) { v.store(3, Ordering::Relaxed); }"),
            vec!["VAQ009"]
        );
    }

    #[test]
    fn justified_or_seqcst_ordering_is_clean() {
        let src = "fn f(v: &AtomicU64) {\n    // ORDERING: Acquire pairs with the Release\n    \
                   // bump in `install`.\n    v.load(Ordering::Acquire);\n}";
        assert!(codes(LIB, src).is_empty());
        assert!(codes(LIB, "fn f(v: &AtomicU64) { v.load(Ordering::SeqCst); }").is_empty());
        // An empty marker is as good as no marker.
        let bare = "fn f(v: &AtomicU64) {\n    // ORDERING:\n    v.load(Ordering::Acquire);\n}";
        assert_eq!(codes(LIB, bare), vec!["VAQ009"]);
    }

    #[test]
    fn cmp_ordering_and_test_code_are_exempt_from_vaq009() {
        assert!(codes(LIB, "fn f(a: &N, o: &N) -> bool { a.cmp(o) == Ordering::Less }").is_empty());
        let test_mod =
            "#[cfg(test)]\nmod tests {\n fn t(v: &AtomicU64) { v.load(Ordering::Relaxed); }\n}";
        assert!(codes(LIB, test_mod).is_empty());
        assert!(codes(
            "crates/core/tests/model.rs",
            "fn t(v: &AtomicU64) { \
             v.load(Ordering::Relaxed); }"
        )
        .is_empty());
    }

    #[test]
    fn integer_cast_in_boundary_files_is_vaq010() {
        let src = "fn f(v: u64) -> usize { v as usize }";
        let v = check("crates/core/src/persist.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "VAQ010");
        assert_eq!(v[0].line, 1);
        assert_eq!(
            codes("crates/linalg/src/qtables.rs", "fn f(c: u16) -> u8 { c as u8 }"),
            vec!["VAQ010"]
        );
        assert_eq!(
            codes("crates/dataset/src/io.rs", "fn f(n: usize) -> i32 { n as i32 }"),
            vec!["VAQ010"]
        );
        assert_eq!(
            codes("crates/core/src/segment/wal.rs", "fn f(n: u64) -> u32 { n as u32 }"),
            vec!["VAQ010"]
        );
    }

    #[test]
    fn casts_elsewhere_and_checked_conversions_are_exempt_from_vaq010() {
        assert!(codes(LIB, "fn f(v: u64) -> usize { v as usize }").is_empty());
        let p = "crates/core/src/persist.rs";
        assert!(
            codes(p, "use bytes::Buf as B; fn f(v: u16) -> usize { usize::from(v) }").is_empty()
        );
        assert!(codes(p, "fn f(x: usize) -> f32 { x as f32 }").is_empty()); // float, not integer
        let test_mod = "#[cfg(test)]\nmod tests {\n fn t(v: u64) -> usize { v as usize }\n}";
        assert!(codes(p, test_mod).is_empty());
    }

    #[test]
    fn rule_table_covers_every_emitted_code() {
        for (code, _) in RULES {
            assert!(code.starts_with("VAQ"), "{code}");
        }
        assert_eq!(RULES.len(), 10);
    }

    #[test]
    fn kernel_unsafe_without_feature_comment_is_vaq011() {
        let k = "crates/linalg/src/qtables.rs";
        // SAFETY text present but no feature tier named: VAQ005 passes,
        // VAQ011 fires.
        let src = "fn f() {\n    // SAFETY: pointer stays in bounds\n    unsafe { go() }\n}";
        assert_eq!(codes(k, src), vec!["VAQ011"]);
        // Naming the tier in the same run satisfies both rules.
        let good = "fn f() {\n    // SAFETY: lanes stay in bounds; caller verified AVX2\n    \
                    unsafe { go() }\n}";
        assert!(codes(k, good).is_empty());
        // Test code in kernel files is NOT exempt (same as VAQ005).
        let test_mod = "#[cfg(test)]\nmod tests {\n // SAFETY: fine\n unsafe { go() }\n}";
        assert_eq!(codes(k, test_mod), vec!["VAQ011"]);
        // The CRC kernels are held to the same rule.
        assert_eq!(codes("crates/linalg/src/crc.rs", src), vec!["VAQ011"]);
        // Outside kernel files only VAQ005 applies.
        assert!(codes(LIB, src).is_empty());
    }

    #[test]
    fn unregistered_fault_site_is_vaq006() {
        assert_eq!(
            codes(LIB, "fn f() { if faults::fired(\"varpca.fitt\") { return; } }"),
            vec!["VAQ006"]
        );
        assert!(codes(LIB, "fn f() { if faults::fired(\"varpca.fit\") { return; } }").is_empty());
    }

    #[test]
    fn fault_site_rule_applies_inside_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { arm(\"nope.site\", Trigger::Always); }\n}";
        assert_eq!(codes(LIB, src), vec!["VAQ006"]);
    }

    #[test]
    fn macro_form_and_non_literal_fault_args() {
        assert_eq!(codes(LIB, "fn f() { fault_point!(\"bogus.site\"); }"), vec!["VAQ006"]);
        assert!(codes(LIB, "fn f(site: &str) { if faults::fired(site) { return; } }").is_empty());
    }

    #[test]
    fn sites_const_must_match_the_lint_registry() {
        let path = "crates/core/src/faults.rs";
        let good = format!(
            "pub const SITES: &[&str] = &[{}];",
            FAULT_SITES.iter().map(|s| format!("{s:?}")).collect::<Vec<_>>().join(", ")
        );
        assert!(codes(path, &good).is_empty());
        let bad = "pub const SITES: &[&str] = &[\"varpca.fit\", \"made.up\"];";
        assert_eq!(codes(path, bad), vec!["VAQ006"]);
    }

    #[test]
    fn used_fault_sites_are_collected_once_each() {
        let lexed = lex("fn f() { if fired(\"varpca.fit\") { } arm(\"persist.mmap\", T); \
             fired(\"varpca.fit\"); fired(\"bogus.site\"); }");
        assert_eq!(used_fault_sites(&lexed), vec!["varpca.fit", "persist.mmap"]);
    }
}
