//! Runs the `--scale tiny` configuration through the real binary and holds
//! the output to `BENCHMARK.json`: same names, same units, every metric
//! printed once per workload, and everything that must repeat exactly doing
//! so — between two runs of one seed, and between seeds, which order the
//! requests and leave the data alone.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::collections::BTreeMap;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("valid JSON")
}

fn binary(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_vaq-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{args:?} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// One tiny run of all four workloads: per workload (in order), its printed
/// lines and its result object.
fn tiny_run(seed: &str, trace: &str) -> Vec<(Vec<String>, Json)> {
    let stdout = binary(&["run", "--scale", "tiny", "--seed", seed, "--trace", trace]);
    let mut runs = Vec::new();
    let mut lines = Vec::new();
    for line in stdout.lines() {
        if line.starts_with('{') {
            runs.push((
                std::mem::take(&mut lines),
                Json::parse(line).expect("result line is JSON"),
            ));
        } else {
            lines.push(line.to_string());
        }
    }
    runs
}

fn names(list: &Json) -> Vec<&str> {
    list.as_arr()
        .iter()
        .map(|e| e.get("name").and_then(Json::as_str).expect("entry has a name"))
        .collect()
}

fn values(result: &Json) -> BTreeMap<String, u64> {
    result
        .get("metrics")
        .expect("metrics")
        .as_obj()
        .iter()
        .map(|(name, m)| {
            (name.clone(), m.get("value").and_then(Json::as_f64).expect("value").to_bits())
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[test]
fn benchmark_json_matches_the_code_and_the_limits() {
    let doc = benchmark_json();
    let code = Json::parse(&binary(&["schema"])).expect("schema prints JSON");
    let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    for (list, limit) in [("workloads", 2..=8), ("end_to_end", 1..=16), ("per_layer", 1..=128)] {
        let entries = doc.get(list).expect(list);
        assert!(
            limit.contains(&entries.as_arr().len()),
            "{list} has {} entries",
            entries.as_arr().len()
        );
        assert_eq!(
            names(entries),
            names(code.get(list).expect(list)),
            "{list} differs from the code's"
        );
        let mut seen = std::collections::BTreeSet::new();
        for name in names(entries) {
            assert!(well_formed(name), "{name} is not a valid name");
            assert!(seen.insert(name), "{name} is listed twice");
        }
    }
    for list in ["end_to_end", "per_layer"] {
        for (entry, in_code) in
            doc.get(list).unwrap().as_arr().iter().zip(code.get(list).unwrap().as_arr())
        {
            for key in ["unit", "better"] {
                assert_eq!(entry.get(key), in_code.get(key), "{key} of {:?}", entry.get("name"));
            }
            let wanted: &[&str] = if list == "end_to_end" {
                &["name", "unit", "better", "bound"]
            } else {
                &["name", "unit", "better"]
            };
            let keys: Vec<&str> = entry.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, wanted);
        }
    }
    for entry in doc.get("end_to_end").unwrap().as_arr() {
        let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} of {:?}", entry.get("name"));
    }
    for w in doc.get("workloads").unwrap().as_arr() {
        let why = w.get("why").and_then(Json::as_str).expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {:?}", w.get("name"));
    }
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).expect("run_seconds");
    assert_eq!(Some(seconds), code.get("run_seconds").and_then(Json::as_f64));
}

#[test]
fn tiny_runs_print_the_schema_and_repeat_exactly() {
    let doc = benchmark_json();
    let code = Json::parse(&binary(&["schema"])).expect("schema prints JSON");
    let workloads = names(doc.get("workloads").unwrap());
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let first = tiny_run("7", trace);
        let again = tiny_run("7", trace);
        let other = tiny_run("8", trace);
        let schema = doc.get(list).unwrap().as_arr();
        let exact: Vec<&str> = code
            .get(list)
            .unwrap()
            .as_arr()
            .iter()
            .filter(|e| e.get("exact").and_then(Json::as_bool) == Some(true))
            .map(|e| e.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert!(!exact.is_empty());
        for runs in [&first, &again, &other] {
            assert_eq!(runs.len(), workloads.len(), "one result line per workload");
            for ((lines, result), workload) in runs.iter().zip(&workloads) {
                let keys: Vec<&str> = result.as_obj().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
                assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
                assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
                assert!(lines
                    .iter()
                    .any(|l| l.contains("ops_attempted") && l.contains("ops_failed")));
                let metrics = result.get("metrics").unwrap().as_obj();
                assert_eq!(metrics.len(), schema.len(), "{workload}: exactly the {list} metrics");
                for (entry, (name, printed)) in schema.iter().zip(metrics) {
                    assert_eq!(entry.get("name").and_then(Json::as_str), Some(name.as_str()));
                    assert_eq!(entry.get("unit"), printed.get("unit"), "{workload} {name}");
                    assert!(
                        printed.get("value").and_then(Json::as_f64).is_some_and(f64::is_finite),
                        "{workload} {name}"
                    );
                    // Printed once by name, with its unit, for the reader too.
                    let unit = entry.get("unit").and_then(Json::as_str).unwrap();
                    let shown = lines
                        .iter()
                        .filter(|l| {
                            let mut f = l.split_whitespace();
                            f.next() == Some(workload)
                                && f.next() == Some(name)
                                && f.nth(1) == Some(unit)
                        })
                        .count();
                    assert_eq!(shown, 1, "{workload} {name} printed {shown} times");
                }
            }
        }
        for (label, later) in [("two runs of one seed", &again), ("two seeds", &other)] {
            for ((a, b), workload) in first.iter().zip(later).zip(&workloads) {
                let (a, b) = (values(&a.1), values(&b.1));
                for name in &exact {
                    assert_eq!(a[*name], b[*name], "{workload} {name} differs between {label}");
                }
            }
        }
    }
}
