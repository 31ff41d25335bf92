//! A/A calibration: run the unchanged code in two alternating sets, the way
//! the acceptance driver does — a fresh process per run, another seed for
//! each run of a set, the same seeds in both sets — and derive every
//! regression bound from what is seen, not guessed.

use crate::json::Json;
use crate::stats::{median, relative_iqr};
use crate::workloads::{MetricDef, END_TO_END};
use crate::Args;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// No bound is set tighter than this, however quiet the A/A run was.
const FLOOR: f64 = 0.02;
const FLOOR_EXACT: f64 = 0.01;
/// The cap on a bound: the driver refuses a larger one. The issue wants
/// 0.10; a bound above that is flagged.
const CAP: f64 = 0.25;
const WANTED_CAP: f64 = 0.10;

/// One `run` in a fresh process: the metrics of its result line, and the
/// seconds the process took.
fn one_run(workload: &str, seed: u64, scale: &str) -> Result<(BTreeMap<String, f64>, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = std::time::Instant::now();
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0", "--scale", scale])
        .args(["--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    let took_s = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} failed ({}):\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let result = Json::parse(stdout.lines().last().unwrap_or(""))?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed}: the run reports incorrect answers"));
    }
    let metrics = result.get("metrics").ok_or("result line has no metrics")?;
    let values = metrics
        .as_obj()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok((values, took_s))
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if def.better == "lower" {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    }
}

pub fn aa_command(args: &Args) -> Result<bool, String> {
    let sets: usize = args.number("--sets", 2)?;
    let runs: usize = args.number("--runs", 5)?;
    let scale = args.value("--scale").unwrap_or("full");
    let workloads = args.workloads()?;
    if sets < 2 || runs < 2 {
        return Err("aa needs at least 2 sets of 2 runs".into());
    }

    // values[workload][metric][set] = one value per run
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<Vec<f64>>>> = BTreeMap::new();
    let mut took: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for run in 0..runs {
        for set in 0..sets {
            let seed = 1 + run as u64;
            for w in &workloads {
                let (metrics, took_s) = one_run(w.name, seed, scale)?;
                eprintln!("aa: set {set} run {run} {} seed {seed}: {took_s:.1} s", w.name);
                took.entry(w.name).or_default().push(took_s);
                for (name, value) in metrics {
                    let per_set = values
                        .entry(w.name)
                        .or_default()
                        .entry(name)
                        .or_insert_with(|| vec![Vec::new(); sets]);
                    per_set[set].push(value);
                }
            }
        }
    }
    // What must repeat exactly must do so in every run, whatever its seed.
    let mut exact_ok = true;
    for w in &workloads {
        for def in END_TO_END.iter().filter(|d| d.exact) {
            let all: Vec<f64> = values[w.name][def.name].iter().flatten().copied().collect();
            if all.iter().any(|v| v.to_bits() != all[0].to_bits()) {
                eprintln!("NOT EXACT  {} {}: {all:?}", w.name, def.name);
                exact_ok = false;
            }
        }
    }

    // The table goes to standard output and, beside the JSON, to the baseline.
    let mut table = String::new();
    let mut say = |line: String| {
        println!("{line}");
        table.push_str(&line);
        table.push('\n');
    };
    say(format!(
        "{:<13} {:<20} {:>12} {:>12} {:>8} {:>8}",
        "workload", "metric", "median A", "median B", "gap", "spread"
    ));
    let mut rows = Vec::new();
    // Per metric: the bound the rule asks for, and the worst spread or gap seen.
    let mut bounds: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for w in &workloads {
        for def in &END_TO_END {
            let per_set = &values[w.name][def.name];
            let (a, b) = (median(&per_set[0]), median(&per_set[1]));
            // Either set may come second: take the worse direction.
            let gap = worse_by(def, a, b).max(worse_by(def, b, a));
            // The driver takes the spread of each set on its own.
            let spread = per_set.iter().map(|s| relative_iqr(s)).fold(0.0, f64::max);
            say(format!(
                "{:<13} {:<20} {a:>12.4} {b:>12.4} {gap:>8.4} {spread:>8.4}",
                w.name, def.name
            ));
            let floor = if def.exact { FLOOR_EXACT } else { FLOOR };
            // The driver holds the spread of `setup_s` to no bound, only its
            // medians: set-up runs once in a run and cannot be repeated in
            // the time there is.
            let spread_gated = if def.name == "setup_s" { 0.0 } else { spread };
            let entry = bounds.entry(def.name).or_insert((0.0, 0.0));
            entry.0 = entry.0.max(floor).max(2.0 * gap).max(3.0 * spread_gated);
            entry.1 = entry.1.max(gap).max(spread_gated);
            rows.push(Json::obj([
                ("workload", Json::str(w.name)),
                ("metric", Json::str(def.name)),
                ("median_a", Json::Num(a)),
                ("median_b", Json::Num(b)),
                ("gap", Json::Num(gap)),
                ("spread", Json::Num(spread)),
                (
                    "values",
                    Json::Arr(
                        per_set
                            .iter()
                            .map(|s| Json::Arr(s.iter().map(|&v| Json::Num(v)).collect()))
                            .collect(),
                    ),
                ),
            ]));
        }
    }

    say(String::new());
    for w in &workloads {
        let s = &took[w.name];
        say(format!(
            "{:<13} a run took {:.1} s (median), {:.1} s at most",
            w.name,
            median(s),
            s.iter().copied().fold(0.0, f64::max)
        ));
    }
    // The driver accepts a bound only if the spread of a set and the gap
    // between two sets both stay within it; its advice is three times that
    // room for the spread.
    say(format!(
        "\n{:<20} {:>6} {:>10} {:>8}   bound = max over workloads of max(floor, 2 x gap, 3 x spread), rounded up, capped at {CAP}; setup_s: {CAP}, its spread not held to it",
        "metric", "bound", "worst seen", "room"
    ));
    let mut all_within = true;
    let mut chosen = Vec::new();
    for def in &END_TO_END {
        let (want, seen) = bounds[def.name];
        // `setup_s` gets the largest bound there is (the driver's advice).
        let want = if def.name == "setup_s" { want.max(CAP) } else { want };
        let bound = ((want * 100.0).ceil() / 100.0).min(CAP);
        let verdict = if seen > bound {
            all_within = false;
            "OUTSIDE ITS BOUND: lengthen its phase or move it to the per-layer list"
        } else if want > CAP {
            "capped: less than the advised room"
        } else if bound > WANTED_CAP {
            "above the 0.10 the issue wants"
        } else {
            ""
        };
        say(format!(
            "{:<20} {bound:>6.2} {seen:>10.4} {:>7.1}x   {verdict}",
            def.name,
            bound / seen.max(1e-9)
        ));
        chosen.push((def.name, bound));
    }

    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let baseline = manifest.join("baseline").join(format!("aa-{scale}.json"));
    let report = Json::obj([
        ("sets", Json::Num(sets as f64)),
        ("runs_per_set", Json::Num(runs as f64)),
        ("scale", Json::str(scale)),
        ("exact_metrics_identical_in_every_run", Json::Bool(exact_ok)),
        ("bounds", Json::obj(chosen.iter().map(|&(name, b)| (name, Json::Num(b))))),
        ("rows", Json::Arr(rows)),
    ]);
    std::fs::create_dir_all(manifest.join("baseline")).map_err(|e| e.to_string())?;
    std::fs::write(&baseline, report.pretty())
        .map_err(|e| format!("{}: {e}", baseline.display()))?;
    let table_path = baseline.with_extension("txt");
    std::fs::write(&table_path, &table).map_err(|e| format!("{}: {e}", table_path.display()))?;
    println!("\nwrote {} and {}", table_path.display(), baseline.display());

    if args.flag("--write-bounds") {
        let path = manifest.join("..").join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut doc = Json::parse(&text)?;
        if let Some(Json::Arr(entries)) = doc.get_mut("end_to_end") {
            for entry in entries {
                let name = entry.get("name").and_then(Json::as_str).unwrap_or("").to_string();
                if let (Some(&(_, bound)), Some(slot)) =
                    (chosen.iter().find(|(n, _)| *n == name), entry.get_mut("bound"))
                {
                    *slot = Json::Num(bound);
                }
            }
        }
        std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote the bounds into {}", path.display());
    }
    Ok(exact_ok && all_within)
}
