//! `vaq-benchmark`: the repository's one benchmark. See `README.md` beside
//! `Cargo.toml` for what it measures and why.

mod aa;
mod json;
mod layers;
mod probe;
mod run;
mod stats;
mod trace;
mod truth;
mod workloads;

use json::Json;
use run::{Outcome, RunCfg};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{MetricDef, Scale, Workload, END_TO_END, PER_LAYER};

const USAGE: &str = "\
usage: vaq-benchmark run [--workload W] [--seed N] [--seconds N] [--trace [0|1]] [--scale full|tiny]
       vaq-benchmark aa  [--sets N] [--runs N] [--scale full|tiny] [--write-bounds]
       vaq-benchmark schema
workloads: ram_scan ram_tiea mapped_tiea ingest_mixed (default: all four)";

/// `--name value` pairs and bare `--flags` after the subcommand.
pub struct Args(Vec<String>);

impl Args {
    pub fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str).filter(|v| !v.starts_with("--"))
    }

    pub fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot read '{v}'")),
            None => Ok(default),
        }
    }

    pub fn scale(&self) -> Result<Scale, String> {
        match self.value("--scale") {
            None | Some("full") => Ok(Scale::Full),
            Some("tiny") => Ok(Scale::Tiny),
            Some(other) => Err(format!("--scale: '{other}' is neither full nor tiny")),
        }
    }

    /// How long the serving rounds of `w` measure: the driver passes
    /// `--seconds <run_seconds>`; without it the scale's own figure holds.
    /// The workload itself — rows, batches, requests — does not change with it.
    pub fn seconds(&self, w: &Workload) -> Result<f64, String> {
        let seconds = self.number("--seconds", w.seconds)?;
        if seconds > 0.0 && seconds <= 60.0 {
            Ok(seconds)
        } else {
            Err("--seconds must be in (0, 60]".into())
        }
    }

    /// The named workload, or all of them.
    pub fn workloads(&self) -> Result<Vec<Workload>, String> {
        let all = workloads::workloads(self.scale()?);
        match self.value("--workload") {
            None => Ok(all),
            Some(name) => match all.into_iter().find(|w| w.name == name) {
                Some(w) => Ok(vec![w]),
                None => Err(format!("--workload: no workload named '{name}'")),
            },
        }
    }
}

/// The directory a run writes in, removed again when the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn print_outcome(w: &Workload, schema: &[MetricDef], outcome: &Outcome) -> Result<Json, String> {
    for line in &outcome.info {
        println!("{:<13} {line}", w.name);
    }
    let mut metrics = Vec::with_capacity(schema.len());
    for def in schema {
        let mut found = outcome.metrics.iter().filter(|(name, _)| *name == def.name);
        let (Some((_, e)), None) = (found.next(), found.next()) else {
            return Err(format!("{}: metric {} was not measured exactly once", w.name, def.name));
        };
        println!(
            "{:<13} {:<36} {:>16.4} {:<8} iqr {:<12.4} n {}",
            w.name, def.name, e.value, def.unit, e.iqr, e.samples
        );
        metrics.push((
            def.name,
            Json::obj([("value", Json::Num(e.value)), ("unit", Json::str(def.unit))]),
        ));
    }
    println!(
        "{:<13} ops_attempted {} ops_failed {}",
        w.name, outcome.ops.attempted, outcome.ops.failed
    );
    for note in &outcome.ops.notes {
        println!("{:<13} FAILED {note}", w.name);
    }
    Ok(Json::obj([
        ("correct", Json::Bool(outcome.ops.failed == 0)),
        ("attempted", Json::Num(outcome.ops.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.ops.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]))
}

fn run_command(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.number("--seed", 1)?;
    let traced = args.flag("--trace") && args.value("--trace") != Some("0");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    layers::pin_threads(threads);
    println!(
        "vaq-benchmark: seed {seed}, {} run, {threads} threads, kernel {}",
        if traced { "traced" } else { "end-to-end" },
        layers::active_kernel_name()
    );
    let mut all_correct = true;
    for w in args.workloads()? {
        let scratch = Scratch(run::scratch_dir(w.name)?);
        let cfg =
            RunCfg { workload: &w, seed, seconds: args.seconds(&w)?, scratch: &scratch.0, threads };
        let (schema, outcome): (&[MetricDef], _) = if traced {
            (&PER_LAYER, probe::run_traced(&cfg)?)
        } else {
            (&END_TO_END, run::run(&cfg)?)
        };
        let result = print_outcome(&w, schema, &outcome)?;
        all_correct &= outcome.ops.failed == 0;
        // The driver reads the last line of standard output.
        println!("{}", result.compact());
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let args = Args(argv.collect());
    let done = match command.as_str() {
        "run" => run_command(&args),
        "aa" => aa::aa_command(&args),
        "schema" => {
            println!("{}", schema().pretty());
            Ok(true)
        }
        "serve-mapped" => serve_mapped_command(&args).map(|()| true),
        "reopen" => reopen_command(&args).map(|()| true),
        _ => Err(USAGE.to_string()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("vaq-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// The workloads and metrics as the code has them; `tests/smoke.rs` holds
/// `BENCHMARK.json` to this.
fn schema() -> Json {
    let metrics = |defs: &[MetricDef]| {
        Json::Arr(
            defs.iter()
                .map(|d| {
                    Json::obj([
                        ("name", Json::str(d.name)),
                        ("unit", Json::str(d.unit)),
                        ("better", Json::str(d.better)),
                        ("exact", Json::Bool(d.exact)),
                    ])
                })
                .collect(),
        )
    };
    Json::obj([
        ("run_seconds", Json::Num(workloads::RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads::workloads(Scale::Full)
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", metrics(&END_TO_END)),
        ("per_layer", metrics(&PER_LAYER)),
    ])
}

/// The workload a child process was started for. A child reads only its
/// name, kind and strategy, which are the same at every scale.
fn child_workload(args: &Args) -> Result<(Workload, usize), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    layers::pin_threads(threads);
    let name = args.value("--workload").ok_or("--workload is missing")?;
    let w = workloads::workloads(Scale::Full)
        .into_iter()
        .find(|w| w.name == name)
        .ok_or("unknown workload")?;
    Ok((w, threads))
}

/// Internal: one fresh process of `reopen_ms` (see `run::reopen_child`).
fn reopen_command(args: &Args) -> Result<(), String> {
    let (w, _) = child_workload(args)?;
    let path = PathBuf::from(args.value("--path").ok_or("reopen: --path is missing")?);
    let query = PathBuf::from(args.value("--query").ok_or("reopen: --query is missing")?);
    run::reopen_child(&w, &path, &query)
}

/// Internal: the serving child of `mapped_tiea` (see `run::serve_mapped`).
fn serve_mapped_command(args: &Args) -> Result<(), String> {
    let (w, threads) = child_workload(args)?;
    let scratch =
        PathBuf::from(args.value("--scratch").ok_or("serve-mapped: --scratch is missing")?);
    run::serve_mapped(&w, args.number("--seed", 1)?, args.seconds(&w)?, &scratch, threads)
}
