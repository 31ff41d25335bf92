//! `lint.toml` — the shrink-only allowlist for pre-existing violations.
//!
//! The file is a flat array of tables, parsed by a tiny hand-written
//! reader (the workspace is offline; no `toml` crate):
//!
//! ```toml
//! [[allow]]
//! rule = "VAQ004"
//! path = "crates/core/src/vaq.rs"
//! max = 12
//! ```
//!
//! `max` is an exact budget, not a ceiling: when a file drops below its
//! allowance the lint *fails* until the entry is tightened, so the
//! allowlist can only shrink over time (DESIGN.md §8).

use crate::rules::Violation;
use std::collections::BTreeMap;

/// One allowance: up to `max` violations of `rule` in `path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub rule: String,
    pub path: String,
    pub max: usize,
}

/// Parses the `lint.toml` subset. Unknown keys and malformed lines are
/// hard errors: a typo must not silently widen the allowlist.
pub fn parse_lint_toml(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries: Vec<BTreeMap<String, String>> = Vec::new();
    let mut in_entry = false;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            entries.push(BTreeMap::new());
            in_entry = true;
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("lint.toml:{}: unknown table `{line}`", lineno + 1));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("lint.toml:{}: expected `key = value`", lineno + 1));
        };
        let key = key.trim();
        let value = value.trim();
        if !in_entry {
            // Top-level scalars (e.g. a format version) are tolerated.
            if key == "version" {
                continue;
            }
            return Err(format!("lint.toml:{}: key `{key}` outside [[allow]]", lineno + 1));
        }
        let entry = entries.last_mut().expect("in_entry implies an open entry");
        let stored = match key {
            "rule" | "path" => {
                let v =
                    value.strip_prefix('"').and_then(|v| v.strip_suffix('"')).ok_or_else(|| {
                        format!("lint.toml:{}: `{key}` must be a quoted string", lineno + 1)
                    })?;
                v.to_string()
            }
            "max" => {
                value.parse::<usize>().map_err(|_| {
                    format!("lint.toml:{}: `max` must be a non-negative integer", lineno + 1)
                })?;
                value.to_string()
            }
            other => {
                return Err(format!("lint.toml:{}: unknown key `{other}`", lineno + 1));
            }
        };
        if entry.insert(key.to_string(), stored).is_some() {
            return Err(format!("lint.toml:{}: duplicate key `{key}`", lineno + 1));
        }
    }

    let mut out = Vec::with_capacity(entries.len());
    for e in entries {
        let get = |k: &str| {
            e.get(k).cloned().ok_or_else(|| format!("lint.toml: [[allow]] entry missing `{k}`"))
        };
        let entry = AllowEntry {
            rule: get("rule")?,
            path: get("path")?,
            max: get("max")?.parse().expect("validated above"),
        };
        if entry.max == 0 {
            return Err(format!(
                "lint.toml: ({}, {}) allows 0 violations — delete the entry instead",
                entry.rule, entry.path
            ));
        }
        out.push(entry);
    }
    for (i, a) in out.iter().enumerate() {
        if out[..i].iter().any(|b| a.rule == b.rule && a.path == b.path) {
            return Err(format!("lint.toml: duplicate entry for ({}, {})", a.rule, a.path));
        }
    }
    Ok(out)
}

/// The outcome of matching violations against the allowlist.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Violations not covered by any allowance — each fails the lint.
    pub unsuppressed: Vec<Violation>,
    /// Shrink-only policy failures: allowances wider than reality.
    pub stale: Vec<String>,
    /// Number of violations silenced by exact allowances.
    pub suppressed: usize,
}

impl LintOutcome {
    pub fn is_clean(&self) -> bool {
        self.unsuppressed.is_empty() && self.stale.is_empty()
    }
}

/// Applies the allowlist: a file/rule pair is silenced only while its
/// violation count *exactly* matches its `max` budget.
pub fn apply_allowlist(violations: Vec<Violation>, allow: &[AllowEntry]) -> LintOutcome {
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for v in &violations {
        *counts.entry((v.rule.to_string(), v.path.clone())).or_insert(0) += 1;
    }

    let mut outcome = LintOutcome::default();
    for entry in allow {
        let actual = counts.get(&(entry.rule.clone(), entry.path.clone())).copied().unwrap_or(0);
        if actual < entry.max {
            outcome.stale.push(format!(
                "lint.toml: ({}, {}) allows {} but only {actual} remain — \
                 tighten the allowance (shrink-only policy)",
                entry.rule, entry.path, entry.max
            ));
        }
    }

    for v in violations {
        let budget =
            allow.iter().find(|e| e.rule == v.rule && e.path == v.path).map(|e| e.max).unwrap_or(0);
        let actual = counts[&(v.rule.to_string(), v.path.clone())];
        if budget >= actual {
            outcome.suppressed += 1;
        } else {
            outcome.unsuppressed.push(v);
        }
    }
    outcome
}

/// Renders an allowlist covering exactly the given violations (used by
/// `xtask lint --update-allowlist`).
pub fn render_allowlist(violations: &[Violation]) -> String {
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for v in violations {
        *counts.entry((v.rule.to_string(), v.path.clone())).or_insert(0) += 1;
    }
    let mut out = String::from(
        "# VAQ lint allowlist — pre-existing violations only. Shrink-only policy:\n\
         # `max` is exact; fixing a violation requires lowering (or deleting) the\n\
         # matching entry, and new violations are never absorbed silently.\n\
         # Regenerate with `cargo run -p xtask -- lint --update-allowlist` (review\n\
         # the diff: counts may only go down). See DESIGN.md §8.\n\
         version = 1\n",
    );
    for ((rule, path), max) in counts {
        out.push_str(&format!("\n[[allow]]\nrule = \"{rule}\"\npath = \"{path}\"\nmax = {max}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn viol(rule: &'static str, path: &str, line: u32) -> Violation {
        Violation { rule, path: path.to_string(), line, message: String::new() }
    }

    #[test]
    fn parses_entries() {
        let toml = "# comment\nversion = 1\n\n[[allow]]\nrule = \"VAQ004\"\n\
                    path = \"crates/core/src/vaq.rs\"\nmax = 3\n";
        let entries = parse_lint_toml(toml).unwrap();
        assert_eq!(
            entries,
            vec![AllowEntry {
                rule: "VAQ004".into(),
                path: "crates/core/src/vaq.rs".into(),
                max: 3
            }]
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_lint_toml("[[allow]]\nrule = VAQ004\n").is_err()); // unquoted
        assert!(parse_lint_toml("[[allow]]\nmax = -1\n").is_err());
        assert!(parse_lint_toml("stray = 1\n").is_err());
        assert!(parse_lint_toml("[[allow]]\nrule = \"R\"\npath = \"p\"\n").is_err()); // no max
        assert!(parse_lint_toml("[[allow]]\nrule = \"R\"\npath = \"p\"\nmax = 0\n").is_err());
    }

    #[test]
    fn rejects_duplicate_entries() {
        let toml = "[[allow]]\nrule = \"R\"\npath = \"p\"\nmax = 1\n\
                    [[allow]]\nrule = \"R\"\npath = \"p\"\nmax = 2\n";
        assert!(parse_lint_toml(toml).is_err());
    }

    #[test]
    fn exact_budget_suppresses() {
        let allow = vec![AllowEntry { rule: "VAQ004".into(), path: "a.rs".into(), max: 2 }];
        let outcome =
            apply_allowlist(vec![viol("VAQ004", "a.rs", 1), viol("VAQ004", "a.rs", 9)], &allow);
        assert!(outcome.is_clean());
        assert_eq!(outcome.suppressed, 2);
    }

    #[test]
    fn over_budget_fails() {
        let allow = vec![AllowEntry { rule: "VAQ004".into(), path: "a.rs".into(), max: 1 }];
        let outcome =
            apply_allowlist(vec![viol("VAQ004", "a.rs", 1), viol("VAQ004", "a.rs", 9)], &allow);
        assert_eq!(outcome.unsuppressed.len(), 2);
    }

    #[test]
    fn stale_budget_fails_shrink_only() {
        let allow = vec![AllowEntry { rule: "VAQ004".into(), path: "a.rs".into(), max: 3 }];
        let outcome = apply_allowlist(vec![viol("VAQ004", "a.rs", 1)], &allow);
        assert!(!outcome.is_clean());
        assert_eq!(outcome.stale.len(), 1);
        // The violation itself is still silenced; only the width fails.
        assert!(outcome.unsuppressed.is_empty());
    }

    #[test]
    fn uncovered_violation_fails() {
        let outcome = apply_allowlist(vec![viol("VAQ003", "b.rs", 7)], &[]);
        assert_eq!(outcome.unsuppressed.len(), 1);
    }

    #[test]
    fn render_round_trips() {
        let violations =
            vec![viol("VAQ004", "a.rs", 1), viol("VAQ004", "a.rs", 2), viol("VAQ002", "b.rs", 3)];
        let rendered = render_allowlist(&violations);
        let parsed = parse_lint_toml(&rendered).unwrap();
        assert_eq!(parsed.len(), 2);
        let outcome = apply_allowlist(violations, &parsed);
        assert!(outcome.is_clean());
    }
}
