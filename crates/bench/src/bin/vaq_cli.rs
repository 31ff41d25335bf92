//! `vaq_cli` — build, persist, and query VAQ indexes from the command
//! line, over the standard vector-file formats (fvecs/bvecs/CSV). This is
//! the path for running the reproduction on the paper's *real* datasets
//! when you have them (SIFT1B/DEEP1B downloads, UCR archive exports).
//!
//! ```sh
//! # Train a 128-bit index over 16 subspaces on SIFT learn vectors:
//! vaq_cli train --data sift_learn.fvecs --budget 128 --segments 16 --out sift.vaq
//!
//! # Answer queries, 10 neighbors each:
//! vaq_cli search --index sift.vaq --queries sift_query.fvecs --k 10
//!
//! # Score against ground truth (ivecs) and report Recall/MAP + timing:
//! vaq_cli eval --index sift.vaq --queries sift_query.fvecs \
//!              --truth sift_groundtruth.ivecs --k 100
//! ```

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use vaq_core::{Audit, IngressPolicy, SearchStrategy, SegmentPolicy, SegmentedVaq, Vaq, VaqConfig};
use vaq_dataset::io::{read_bvecs, read_csv, read_fvecs, read_ivecs};
use vaq_linalg::Matrix;
use vaq_metrics::{map_at_k, recall_at_k};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `audit` also accepts a bare index path: `vaq_cli audit index.vaq`.
    let mut rest: Vec<String> = args[1..].to_vec();
    if cmd == "audit" && rest.len() == 1 && !rest[0].starts_with("--") {
        rest = vec!["--index".to_string(), rest.remove(0)];
    }
    let opts = match parse_opts(&rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "train" => cmd_train(&opts),
        "search" => cmd_search(&opts),
        "eval" => cmd_eval(&opts),
        "info" => cmd_info(&opts),
        "audit" => cmd_audit(&opts),
        "chaos" => cmd_chaos(&opts),
        "crash" => cmd_crash(&opts),
        "bench" => cmd_bench(&opts),
        "kernels" => cmd_kernels(&opts),
        // Internal: the query-phase child of `bench --out-of-core`.
        "ooc-query" => cmd_ooc_query(&opts),
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "vaq_cli — Variance-Aware Quantization indexes on vector files

USAGE:
  vaq_cli train  --data FILE --out INDEX [--budget 128] [--segments 16]
                 [--limit N] [--ti-clusters 1000] [--seed 7] [--clustered]
  vaq_cli search --index INDEX --queries FILE [--k 10] [--visit 0.25] [--limit N]
  vaq_cli eval   --index INDEX --queries FILE --truth FILE.ivecs [--k 100]
                 [--visit 0.25] [--limit N]
  vaq_cli info   --index INDEX
  vaq_cli audit  INDEX            (or --index INDEX)
  vaq_cli kernels                 (report SIMD tier support, the active scan kernel and CRC path)
  vaq_cli chaos  [--seed-range 0..32] [--p 0.3] [--n 400] [--dim 16]
  vaq_cli crash  [--durability] [--seed 7] [--n 96] [--dim 12] [--k 8]
  vaq_cli bench  [--n 100000] [--dim 64] [--queries 16] [--k 10]
                 [--budget 48] [--segments 8] [--seed 7] [--reps 3]
                 [--train-limit 20000] [--out results] [--profile]
                 [--out-of-core [--block 65536] [--seal 500000] [--visit 0.25]]

Vector FILEs may be .fvecs, .bvecs, or .csv (one vector per line).
Every command that takes an INDEX opens any file the library writes —
`train` output, `save`, `save_mapped` or a durable checkpoint; `audit`
and `info` print its segment, TI, buffer and tombstone counts, `info`
also the bit plan and variance shares.
`audit` re-checks the index's structural invariants (bit budget C1–C4,
importance monotonicity, code ranges, TI partition order, segment and
tombstone accounting) and exits non-zero listing each VAQ1xx diagnostic
on failure.
`chaos` runs the full train → save → load → query pipeline on synthetic
data with every registered fault site armed under a seeded probabilistic
schedule, asserting each run ends in a clean result or a typed error —
never a panic, a failed audit, or a silently wrong answer. The same
schedule then drives a segmented index across seal, tombstone-purge, and
merge boundaries and through a `save_mapped` → `open_mapped` round trip,
checking that no row is lost, no deleted row resurfaces, and no query
answer changes.
`crash` is the deterministic crash-point recovery harness: a counting
pass enumerates every IO point a scripted durable workload touches
(sites `persist.wal_append` / `persist.commit` / `persist.fsync`), then
one run per point kills the workload there with a simulated power loss
(`Trigger::CrashPoint` — all later IO is abandoned), powers back up,
and requires `open_durable` to recover exactly the acknowledged
pre-crash state: same live ids, same query answers, clean audit, and a
working journal afterwards. A typed recovery error is accepted only
when the index never became durable before the cut. Zero panics, zero
divergences, or the command exits non-zero listing every violated
point. `--durability` names the (only) suite explicitly for CI logs.
`bench` times the quantized SIMD ADC scan against the f32 full scan and
early-abandon scan on synthetic data (results must match exactly,
sequentially and batched), over two bit budgets — the default mixed-width
plan and an all-nibble 4-bit plan — plus a per-tier kernel
micro-benchmark, and writes results/BENCH_adc_scan_v2.json. The run
fails if early-abandon is slower than the full scan it prunes. Set
VAQ_FORCE_KERNEL=scalar|ssse3|avx2|neon
to measure the end-to-end engine numbers on a pinned kernel tier.
`bench --out-of-core` is the mapped-extent acceptance run: the dataset
is streamed to an fvecs file block by block, dictionaries fit from a
block-sampled subset, the whole file is ingested blockwise, and the
index is persisted with `save_mapped`. The in-RAM index is
then dropped, the peak-RSS watermark reset, and every query answered
from the memory-mapped reopen — answers must be byte-identical to the
in-RAM index, and the run fails unless the index file is larger than the
query process's TiEa-phase peak RSS (wherever VmHWM can be read).
Writes results/BENCH_out_of_core.json.
`bench --profile` additionally turns on the obs subsystem: per-stage
training spans, query-phase spans, per-query latency histograms, and
kernel timings are printed after the run and exported to
results/OBS_bench.prom (Prometheus text) and results/OBS_bench.json.
Set VAQ_THREADS=N to pin the worker count of every threaded site.";

type Opts = HashMap<String, String>;

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{a}`"));
        };
        // Boolean flags.
        if key == "clustered" || key == "profile" || key == "durability" || key == "out-of-core" {
            opts.insert(key.to_string(), "true".to_string());
            continue;
        }
        let val = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        opts.insert(key.to_string(), val.clone());
    }
    Ok(opts)
}

fn get<'a>(opts: &'a Opts, key: &str) -> Result<&'a str, String> {
    opts.get(key).map(|s| s.as_str()).ok_or_else(|| format!("missing required --{key}"))
}

fn get_or<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse `{v}`")),
    }
}

/// Loads vectors from fvecs/bvecs/csv, dispatching on extension.
fn load_vectors(path: &Path, limit: Option<usize>) -> Result<Matrix, String> {
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let loaded = match ext {
        "fvecs" => read_fvecs(path, limit),
        "bvecs" => read_bvecs(path, limit),
        "csv" | "tsv" | "txt" => read_csv(path, false).map(|(m, _)| match limit {
            Some(l) if l < m.rows() => m.select_rows(&(0..l).collect::<Vec<_>>()),
            _ => m,
        }),
        other => return Err(format!("unsupported vector format `.{other}`")),
    };
    loaded.map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_train(opts: &Opts) -> Result<(), String> {
    let data_path = PathBuf::from(get(opts, "data")?);
    let out = PathBuf::from(get(opts, "out")?);
    let budget: usize = get_or(opts, "budget", 128)?;
    let segments: usize = get_or(opts, "segments", 16)?;
    let limit: usize = get_or(opts, "limit", 0)?;
    let ti_clusters: usize = get_or(opts, "ti-clusters", 1000)?;
    let seed: u64 = get_or(opts, "seed", 7)?;

    let data = load_vectors(&data_path, if limit > 0 { Some(limit) } else { None })?;
    println!("loaded {} vectors × {} dims from {}", data.rows(), data.cols(), data_path.display());

    let mut cfg = VaqConfig::new(budget, segments)
        .with_seed(seed)
        .with_ti_clusters(ti_clusters.min(data.rows()));
    if opts.contains_key("clustered") {
        cfg = cfg.clustered();
    }
    let t0 = std::time::Instant::now();
    let vaq = Vaq::train(&data, &cfg).map_err(|e| e.to_string())?;
    println!("trained in {:.1}s — bit allocation {:?}", t0.elapsed().as_secs_f64(), vaq.bits());
    vaq.save(&out).map_err(|e| e.to_string())?;
    let size = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!("index written to {} ({:.1} MiB)", out.display(), size as f64 / (1 << 20) as f64);
    Ok(())
}

/// Opens any file the library writes (`train` output, `save`,
/// `save_mapped`, a durable checkpoint) for querying.
fn load_index(opts: &Opts) -> Result<SegmentedVaq, String> {
    let path = PathBuf::from(get(opts, "index")?);
    SegmentedVaq::load(&path).map_err(|e| e.to_string())
}

/// The `--visit` fraction as a search strategy; train-time configs are
/// validated to `(0, 1]` and so is this.
fn visit_strategy(opts: &Opts) -> Result<SearchStrategy, String> {
    let visit_frac: f64 = get_or(opts, "visit", 0.25)?;
    if !(visit_frac > 0.0 && visit_frac <= 1.0) {
        return Err(format!("--visit {visit_frac} outside (0, 1]"));
    }
    Ok(SearchStrategy::TiEa { visit_frac })
}

fn cmd_search(opts: &Opts) -> Result<(), String> {
    let mut searcher = load_index(opts)?.searcher();
    let queries_path = PathBuf::from(get(opts, "queries")?);
    let k: usize = get_or(opts, "k", 10)?;
    let strategy = visit_strategy(opts)?;
    let limit: usize = get_or(opts, "limit", 0)?;
    let queries = load_vectors(&queries_path, if limit > 0 { Some(limit) } else { None })?;

    let t0 = std::time::Instant::now();
    for q in 0..queries.rows() {
        // A query file of the wrong width is a typed error, not a panic.
        let hits = searcher.search_with(queries.row(q), k, strategy).map_err(|e| e.to_string())?.0;
        let ids: Vec<String> =
            hits.iter().map(|h| format!("{}:{:.4}", h.index, h.distance)).collect();
        println!("query {q}: {}", ids.join(" "));
    }
    eprintln!("{} queries in {:.1} ms", queries.rows(), t0.elapsed().as_secs_f64() * 1e3);
    Ok(())
}

fn cmd_eval(opts: &Opts) -> Result<(), String> {
    let mut searcher = load_index(opts)?.searcher();
    let queries_path = PathBuf::from(get(opts, "queries")?);
    let truth_path = PathBuf::from(get(opts, "truth")?);
    let k: usize = get_or(opts, "k", 100)?;
    let strategy = visit_strategy(opts)?;
    let limit: usize = get_or(opts, "limit", 0)?;
    let queries = load_vectors(&queries_path, if limit > 0 { Some(limit) } else { None })?;
    let truth = read_ivecs(&truth_path, Some(queries.rows()))
        .map_err(|e| format!("{}: {e}", truth_path.display()))?;
    if truth.len() < queries.rows() {
        return Err(format!(
            "ground truth has {} rows for {} queries",
            truth.len(),
            queries.rows()
        ));
    }

    let t0 = std::time::Instant::now();
    let retrieved: Vec<Vec<u32>> = (0..queries.rows())
        .map(|q| {
            let (hits, _) = searcher.search_with(queries.row(q), k, strategy)?;
            Ok(hits.iter().map(|h| h.index).collect())
        })
        .collect::<Result<_, vaq_core::VaqError>>()
        .map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    println!("recall@{k} = {:.4}", recall_at_k(&retrieved, &truth[..queries.rows()], k));
    println!("MAP@{k}    = {:.4}", map_at_k(&retrieved, &truth[..queries.rows()], k));
    println!(
        "query time = {:.2} ms total, {:.3} ms/query",
        secs * 1e3,
        secs * 1e3 / queries.rows() as f64
    );
    Ok(())
}

/// Loads an index file with `SegmentedVaq::load` (every checksum
/// verified, every array it read audited), returning it with its one-line
/// account of what the file held — bit plan, segment, TI, buffer and
/// tombstone counts (the `persist.load` obs event).
fn load_any(opts: &Opts) -> Result<(PathBuf, SegmentedVaq, String), String> {
    let path = PathBuf::from(get(opts, "index")?);
    vaq_core::obs::set_enabled(true);
    let index = SegmentedVaq::load(&path).map_err(|e| e.to_string())?;
    let held = vaq_core::obs::take_events()
        .into_iter()
        .rev()
        .find(|e| e.kind == "persist.load")
        .map(|e| e.detail)
        .unwrap_or_default();
    Ok((path, index, held))
}

fn cmd_audit(opts: &Opts) -> Result<(), String> {
    let (path, index, held) = load_any(opts)?;
    println!("auditing {} — {} live vectors; {held}", path.display(), index.len());
    let report = index.audit();
    if report.is_ok() {
        println!("audit clean: all structural invariants hold");
        return Ok(());
    }
    for issue in report.issues() {
        eprintln!("{issue}");
    }
    Err(format!("{} invariant violation(s) found", report.issues().len()))
}

fn cmd_info(opts: &Opts) -> Result<(), String> {
    let (_, index, held) = load_any(opts)?;
    let snap = index.snapshot();
    println!("vectors:        {} live", index.len());
    println!("segments:       {} sealed, {} buffered rows", snap.num_segments(), snap.buffer_len());
    println!("file:           {held}");
    let code_bits: usize = index.bits().iter().sum();
    println!("code bits:      {code_bits} ({} bytes/vector)", code_bits.div_ceil(8));
    println!("subspaces:      {}", index.bits().len());
    println!("bit allocation: {:?}", index.bits());
    let shares: Vec<String> =
        index.layout().variance_share.iter().map(|v| format!("{:.3}", v)).collect();
    println!("variance share: [{}]", shares.join(", "));
    Ok(())
}

/// Parses `LO..HI` (half-open) into a range of chaos seeds.
fn parse_seed_range(s: &str) -> Result<std::ops::Range<u64>, String> {
    let (lo, hi) = s.split_once("..").ok_or_else(|| format!("--seed-range `{s}`: want LO..HI"))?;
    let lo: u64 = lo.trim().parse().map_err(|_| format!("--seed-range: bad start `{lo}`"))?;
    let hi: u64 = hi.trim().parse().map_err(|_| format!("--seed-range: bad end `{hi}`"))?;
    if lo >= hi {
        return Err(format!("--seed-range `{s}` is empty"));
    }
    Ok(lo..hi)
}

/// Deterministic synthetic training data with a mildly skewed variance
/// spectrum; seeds 3 mod 4 additionally plant non-finite values so the
/// ingress path is exercised too.
fn chaos_data(n: usize, d: usize, seed: u64) -> Matrix {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let mut row = Vec::with_capacity(d);
        for j in 0..d {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = ((s >> 40) as f32 / (1u32 << 23) as f32) - 1.0;
            row.push(v * 3.0 / (1.0 + j as f32 * 0.4));
        }
        if seed % 4 == 3 && i % 97 == 13 {
            row[i % d] = if i % 2 == 0 { f32::NAN } else { f32::INFINITY };
        }
        rows.push(row);
    }
    Matrix::from_rows(&rows)
}

/// One chaos iteration: train → serialize → deserialize → query, with all
/// fault sites armed. Returns `Ok(true)` when the pipeline produced a
/// queryable index, `Ok(false)` when it ended in a typed error, and `Err`
/// on any contract violation (wrong answer, failed audit).
fn chaos_run(seed: u64, p: f64, n: usize, d: usize) -> Result<bool, String> {
    use vaq_core::faults::{arm, Trigger, SITES};

    for site in SITES {
        arm(site, Trigger::Probability { p, seed });
    }
    let data = chaos_data(n, d, seed);
    let ingress =
        if seed.is_multiple_of(2) { IngressPolicy::Reject } else { IngressPolicy::Sanitize };
    let cfg =
        VaqConfig::new(32, 4).with_seed(seed).with_ti_clusters(16.min(n)).with_ingress(ingress);

    let trained = match Vaq::train(&data, &cfg) {
        Ok(v) => v,
        // A typed error is an accepted outcome; the site that tripped is
        // in the message.
        Err(e) => return Ok(drop_err(e)),
    };
    let report = trained.audit();
    if !report.is_ok() {
        return Err(format!("trained index failed audit: {}", report.issues().len()));
    }

    let bytes = trained.to_bytes();
    let loaded = match Vaq::from_bytes(&bytes) {
        Ok(v) => v,
        Err(e) => return Ok(drop_err(e)),
    };
    let report = loaded.audit();
    if !report.is_ok() {
        return Err(format!("loaded index failed audit: {}", report.issues().len()));
    }

    // Querying may never fail. Full-visit TiEa is exact, so it must agree
    // with the FullScan reference on the same engine state.
    for qi in (0..n).step_by((n / 8).max(1)) {
        let q: Vec<f32> =
            data.row(qi).iter().map(|v| if v.is_finite() { *v } else { 0.0 }).collect();
        let full = loaded.search_with(&q, 5, SearchStrategy::FullScan).expect("search").0;
        let tiea =
            loaded.search_with(&q, 5, SearchStrategy::TiEa { visit_frac: 1.0 }).expect("search").0;
        let f: Vec<u32> = full.iter().map(|h| h.index).collect();
        let t: Vec<u32> = tiea.iter().map(|h| h.index).collect();
        if f != t {
            return Err(format!(
                "seed {seed} query {qi}: TiEa {t:?} disagrees with FullScan {f:?}"
            ));
        }
    }

    // Segmented phase: the same armed schedule stays armed while adds and
    // deletes cross seal, tombstone-purge, and merge boundaries; queries
    // must stay exact and tombstoned rows dead.
    let seg = SegmentedVaq::from_vaq(
        loaded,
        SegmentPolicy::default()
            .with_seal_threshold(24)
            .with_compact_min_segments(2)
            .with_tombstone_purge_frac(0.3),
    );
    // `SegmentedVaq::add` trusts its input like `Vaq::add` does, so feed
    // it the sanitized view of the chaos rows.
    let sanitized = |i: usize| -> Vec<f32> {
        data.row(i).iter().map(|v| if v.is_finite() { *v } else { 0.0 }).collect()
    };
    let mut s2 = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
    let mut deleted: Vec<u32> = Vec::new();
    for round in 0..5usize {
        // Three 13-row batches per round: every round crosses the 24-row
        // seal threshold, so maintenance triggers mid-schedule.
        for b in 0..3usize {
            let rows: Vec<Vec<f32>> =
                (0..13).map(|r| sanitized((round * 39 + b * 13 + r) % n)).collect();
            let ids = match seg.add(&Matrix::from_rows(&rows)) {
                Ok(ids) => ids,
                Err(e) => return Ok(drop_err(e)),
            };
            s2 = s2.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let victim = ids[(s2 >> 33) as usize % ids.len()];
            if seg.delete(victim) {
                deleted.push(victim);
            }
        }
        let q = sanitized((round * 17) % n);
        let full = match seg.search_with(&q, 5, SearchStrategy::FullScan) {
            Ok(r) => r.0,
            Err(e) => return Ok(drop_err(e)),
        };
        let tiea = match seg.search_with(&q, 5, SearchStrategy::TiEa { visit_frac: 1.0 }) {
            Ok(r) => r.0,
            Err(e) => return Ok(drop_err(e)),
        };
        if full.iter().map(|h| h.index).ne(tiea.iter().map(|h| h.index)) {
            return Err(format!(
                "seed {seed} round {round}: segmented TiEa disagrees with FullScan"
            ));
        }
        if full.iter().any(|h| deleted.contains(&h.index)) {
            return Err(format!("seed {seed} round {round}: query surfaced a tombstoned id"));
        }
    }
    // Out-of-core phase: persist with `save_mapped` and reopen it
    // memory-mapped under the same armed schedule. An armed
    // `persist.mmap` degrades the open to the owned read path; either
    // way the answers must match the in-RAM index exactly. A typed
    // error is an accepted outcome, a wrong answer (inner `Err`) is not.
    let file = std::env::temp_dir().join(format!("vaq-chaos-{}-{seed}.vaq", std::process::id()));
    let mapped_phase = || -> Result<Result<(), String>, vaq_core::VaqError> {
        seg.save_mapped(&file)?;
        let mapped = SegmentedVaq::open_mapped(&file)?;
        for round in 0..3usize {
            let q = sanitized((round * 23) % n);
            let want = seg.search_with(&q, 5, SearchStrategy::FullScan)?.0;
            let got = mapped.search_with(&q, 5, SearchStrategy::FullScan)?.0;
            if want != got {
                return Ok(Err(format!(
                    "seed {seed}: mapped reopen disagrees with the in-RAM index"
                )));
            }
            if got.iter().any(|h| deleted.contains(&h.index)) {
                return Ok(Err(format!("seed {seed}: mapped reopen surfaced a tombstoned id")));
            }
        }
        Ok(Ok(()))
    };
    let outcome = mapped_phase();
    let _ = std::fs::remove_file(&file);
    match outcome {
        Err(e) => return Ok(drop_err(e)),
        Ok(verdict) => verdict?,
    }

    // Disarm and drain maintenance before the final audit, so the VAQ111
    // quiescence check sees no pass pending.
    vaq_core::faults::disarm_all();
    seg.flush();
    let report = seg.audit();
    if !report.is_ok() {
        return Err(format!(
            "seed {seed}: segmented index failed audit after quiesce: {}",
            report.issues().len()
        ));
    }
    Ok(true)
}

/// Accepts any typed `VaqError` (returning `false` = "degraded to error");
/// the type system already guarantees it is not a panic.
fn drop_err(_e: vaq_core::VaqError) -> bool {
    false
}

/// Times one search strategy over the query set, returning seconds per
/// query and the summed per-query work counters.
fn time_strategy(
    vaq: &Vaq,
    queries: &Matrix,
    k: usize,
    reps: usize,
    strategy: SearchStrategy,
) -> (f64, vaq_core::SearchStats) {
    // Warm caches (and the lazily quantized tables) outside the clock.
    for qi in 0..queries.rows().min(4) {
        let _ = vaq.search_with(queries.row(qi), k, strategy);
    }
    let mut stats = vaq_core::SearchStats::default();
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        for qi in 0..queries.rows() {
            stats += vaq.search_with(queries.row(qi), k, strategy).expect("search").1;
        }
    }
    (t0.elapsed().as_secs_f64() / (reps * queries.rows()) as f64, stats)
}

/// `kernels`: one line per SIMD tier with its support status on this CPU,
/// plus the kernel the dispatcher actually picked and the CRC-32C path
/// that follows it. The library degrades an unsupported or misspelt
/// `VAQ_FORCE_KERNEL` to `scalar`; here that is an error, so a CI matrix
/// job cannot stay green on a tier it never ran.
fn cmd_kernels(_opts: &Opts) -> Result<(), String> {
    use vaq_linalg::{active_kernel, crc::active_crc, kernel_supported, ScanKernel};
    for kern in ScanKernel::ALL {
        println!(
            "{:>6}: {}",
            kern.name(),
            if kernel_supported(kern) { "supported" } else { "not supported" }
        );
    }
    let active = active_kernel().name();
    println!("active: {active}");
    println!("crc: {}", active_crc());
    if let Some(forced) = std::env::var_os("VAQ_FORCE_KERNEL") {
        let requested = forced.to_string_lossy().trim().to_ascii_lowercase();
        println!("requested: {requested}");
        if requested != active {
            return Err(format!("VAQ_FORCE_KERNEL={requested} did not take: {active} runs"));
        }
    }
    Ok(())
}

/// Trains one bit budget over `ds`, proves parity (full scan == quantized
/// == `search_batch`), times every strategy, gates on the early-abandon
/// perf regression, and micro-benches every SIMD tier this CPU supports
/// over a synthetic packed database shaped like the trained plan.
#[allow(clippy::too_many_arguments)]
fn bench_adc_config(
    label: &str,
    ds: &vaq_dataset::Dataset,
    k: usize,
    budget: usize,
    segments: usize,
    seed: u64,
    reps: usize,
    train_limit: usize,
    uniform: bool,
) -> Result<vaq_bench::Json, String> {
    use vaq_bench::Json;
    use vaq_linalg::{
        accumulate_qsums_with, active_kernel, kernel_supported, PackedCodes, PackedRow,
        QuantizedTables, ScanKernel, TableArena,
    };

    let n = ds.data.rows();
    let nq = ds.queries.rows();
    // Paper-style setup: learn dictionaries on a training sample, then
    // encode the full collection — the bench measures scan speed, not
    // dictionary learning. `uniform` pins the allocation to budget/m bits
    // everywhere (4 each for the nibble config, so every packed row is a
    // two-codes-per-byte pair) instead of the variance-aware split.
    let mut cfg = VaqConfig::new(budget, segments).with_seed(seed).with_ti_clusters(0);
    if uniform {
        cfg = cfg.uniform_allocation();
    }
    let train_rows = train_limit.min(n);
    let t0 = std::time::Instant::now();
    let mut vaq = {
        let sample = ds.data.select_rows(&(0..train_rows).collect::<Vec<_>>());
        Vaq::train(&sample, &cfg).map_err(|e| e.to_string())?
    };
    if train_rows < n {
        let rest = ds.data.select_rows(&(train_rows..n).collect::<Vec<_>>());
        vaq.add(&rest).map_err(|e| e.to_string())?;
    }
    let train_secs = t0.elapsed().as_secs_f64();
    let kernel = active_kernel();
    println!(
        "[{label}] trained in {train_secs:.1}s — bit allocation {:?}, scan kernel {}",
        vaq.bits(),
        kernel.name()
    );

    // The quantized scan is a pruning accelerator, not an approximation:
    // its results must be byte-identical to the exact f32 full scan, and
    // `search_batch` must reproduce the per-query answers exactly.
    let mut sequential = Vec::with_capacity(nq);
    for qi in 0..nq {
        let q = ds.queries.row(qi);
        let full = vaq.search_with(q, k, SearchStrategy::FullScan).expect("search").0;
        let quant = vaq.search_with(q, k, SearchStrategy::Quantized).expect("search").0;
        if full != quant {
            return Err(format!(
                "[{label}] quantized results diverge from the full scan on query {qi}"
            ));
        }
        sequential.push(quant);
    }
    let (batched, _) =
        vaq.search_batch(&ds.queries, k, SearchStrategy::Quantized).map_err(|e| e.to_string())?;
    if batched != sequential {
        return Err(format!("[{label}] search_batch diverges from the per-query answers"));
    }
    println!("[{label}] parity: quantized == full scan == search_batch on all {nq} queries");

    let (full_spq, _) = time_strategy(&vaq, &ds.queries, k, reps, SearchStrategy::FullScan);
    let (ea_spq, _) = time_strategy(&vaq, &ds.queries, k, reps, SearchStrategy::EarlyAbandon);
    let (qz_spq, qz_stats) = time_strategy(&vaq, &ds.queries, k, reps, SearchStrategy::Quantized);
    // Regression gate for the early-abandon perf bug: abandoning work
    // must never cost more than doing all of it (5% timer noise allowed).
    if ea_spq > full_spq * 1.05 {
        return Err(format!(
            "[{label}] early-abandon regression: {:.3} ms/q vs full scan {:.3} ms/q — \
             abandoning work must not be slower than doing it",
            ea_spq * 1e3,
            full_spq * 1e3
        ));
    }
    let prune_rate = qz_stats.quantized_pruned as f64 / qz_stats.vectors_visited.max(1) as f64;
    let mvps = |spq: f64| n as f64 / spq / 1e6;
    println!(
        "[{label}] engine: full {:.3} ms/q ({:.0} Mvec/s), early-abandon {:.3} ms/q \
         ({:.0} Mvec/s), quantized {:.3} ms/q ({:.0} Mvec/s) — {:.0}% pruned",
        full_spq * 1e3,
        mvps(full_spq),
        ea_spq * 1e3,
        mvps(ea_spq),
        qz_spq * 1e3,
        mvps(qz_spq),
        prune_rate * 100.0
    );

    // Kernel micro-benchmark: raw qsum accumulation throughput over a
    // synthetic packed database shaped like the trained plan, once per
    // SIMD tier this CPU can run.
    let sizes: Vec<usize> = vaq.bits().iter().map(|&b| 1usize << b).collect();
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut codes = Vec::with_capacity(n * sizes.len());
    for _ in 0..n {
        for &size in &sizes {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            codes.push(((s >> 33) as usize % size) as u16);
        }
    }
    let packed = PackedCodes::pack(&codes, &sizes, n);
    let mut tiers: Vec<Json> = Vec::new();
    let mut pair_rows = 0usize;
    if packed.is_active() {
        pair_rows =
            packed.packed_rows().iter().filter(|r| matches!(r, PackedRow::Pair { .. })).count();
        let mut arena = TableArena::with_layout(&sizes);
        arena.fill_with(|_, t| {
            for v in t.iter_mut() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *v = (s >> 40) as f32 / (1u32 << 22) as f32;
            }
        });
        let mut qt = QuantizedTables::default();
        qt.quantize(&arena, &packed);
        let mut qsums = Vec::new();
        let mut scalar_ml = 0.0;
        for kern in ScanKernel::ALL {
            if !kernel_supported(kern) {
                continue;
            }
            accumulate_qsums_with(kern, &packed, &qt, &mut qsums); // warmup
            let micro_reps = reps * 10;
            let t0 = std::time::Instant::now();
            for _ in 0..micro_reps {
                accumulate_qsums_with(kern, &packed, &qt, &mut qsums);
            }
            let secs = t0.elapsed().as_secs_f64();
            let mlookups = (n * packed.num_subspaces() * micro_reps) as f64 / secs / 1e6;
            let gvecs = (n * micro_reps) as f64 / secs / 1e9;
            let vs_scalar = if scalar_ml > 0.0 { mlookups / scalar_ml } else { 1.0 };
            if kern == ScanKernel::Scalar {
                scalar_ml = mlookups;
            }
            println!(
                "[{label}] kernel {:>6}: {mlookups:.0} M lookups/s, {gvecs:.2} Gvec/s \
                 ({vs_scalar:.1}× scalar)",
                kern.name()
            );
            tiers.push(Json::obj([
                ("kernel", Json::Str(kern.name().to_string())),
                ("mlookups_per_sec", Json::Num(mlookups)),
                ("gvectors_per_sec", Json::Num(gvecs)),
                ("speedup_vs_scalar", Json::Num(vs_scalar)),
            ]));
        }
    } else {
        println!("[{label}] kernel: plan not packable; micro-bench skipped");
    }

    Ok(Json::obj([
        ("label", Json::Str(label.to_string())),
        ("budget_bits", Json::Num(budget as f64)),
        ("bit_allocation", Json::Arr(vaq.bits().iter().map(|&b| Json::Num(b as f64)).collect())),
        ("train_secs", Json::Num(train_secs)),
        ("packed_subspaces", Json::Num(packed.num_subspaces() as f64)),
        ("packed_rows", Json::Num(packed.num_rows() as f64)),
        ("nibble_pair_rows", Json::Num(pair_rows as f64)),
        (
            "engine",
            Json::obj([
                ("full_scan_ms_per_query", Json::Num(full_spq * 1e3)),
                ("full_scan_mvectors_per_sec", Json::Num(mvps(full_spq))),
                ("early_abandon_ms_per_query", Json::Num(ea_spq * 1e3)),
                ("early_abandon_mvectors_per_sec", Json::Num(mvps(ea_spq))),
                ("quantized_ms_per_query", Json::Num(qz_spq * 1e3)),
                ("quantized_mvectors_per_sec", Json::Num(mvps(qz_spq))),
                ("quantized_speedup_vs_full_scan", Json::Num(full_spq / qz_spq)),
                ("quantized_prune_rate", Json::Num(prune_rate)),
            ]),
        ),
        ("kernel_micro", Json::Arr(tiers)),
    ]))
}

fn cmd_bench(opts: &Opts) -> Result<(), String> {
    if opts.contains_key("out-of-core") {
        return cmd_bench_out_of_core(opts);
    }
    use vaq_bench::Json;
    use vaq_dataset::SyntheticSpec;
    use vaq_linalg::active_kernel;

    let n: usize = get_or(opts, "n", 100_000)?;
    let dim: usize = get_or(opts, "dim", 64)?;
    let nq: usize = get_or(opts, "queries", 16)?;
    let k: usize = get_or(opts, "k", 10)?;
    let budget: usize = get_or(opts, "budget", 48)?;
    let segments: usize = get_or(opts, "segments", 8)?;
    let seed: u64 = get_or(opts, "seed", 7)?;
    let reps: usize = get_or(opts, "reps", 3)?;
    let train_limit: usize = get_or(opts, "train-limit", 20_000)?;
    let out_dir = PathBuf::from(get_or(opts, "out", "results".to_string())?);
    if n == 0 || nq == 0 || reps == 0 || train_limit == 0 {
        return Err("--n, --queries, --reps, and --train-limit must be positive".into());
    }
    let profile = opts.contains_key("profile");
    if profile {
        vaq_core::obs::set_enabled(true);
        vaq_core::obs::install_kernel_timing();
        vaq_core::obs::reset();
    }

    let spec = SyntheticSpec { dim, ..SyntheticSpec::sift_like() };
    let ds = spec.generate(n, nq, seed);
    println!("data: {n} × {dim} synthetic ({}), {nq} queries", spec.name);

    // Two bit budgets, benched identically: the default mixed-width plan
    // (wide subspaces plus a few nibble pairs) and an all-nibble plan
    // (4 bits per subspace, so every packed row carries two codes per
    // byte) — the Quick-ADC shape the in-register shuffle kernels hit
    // their throughput ceiling on.
    let primary =
        bench_adc_config("mixed", &ds, k, budget, segments, seed, reps, train_limit, false)?;
    let nibble =
        bench_adc_config("nibble4", &ds, k, 4 * segments, segments, seed, reps, train_limit, true)?;

    let json = Json::obj([
        ("bench", Json::Str("adc_scan_v2".to_string())),
        ("n", Json::Num(n as f64)),
        ("dim", Json::Num(dim as f64)),
        ("queries", Json::Num(nq as f64)),
        ("k", Json::Num(k as f64)),
        ("reps", Json::Num(reps as f64)),
        ("active_kernel", Json::Str(active_kernel().name().to_string())),
        ("configs", Json::Arr(vec![primary, nibble])),
    ]);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join("BENCH_adc_scan_v2.json");
    std::fs::write(&path, json.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());

    if profile {
        let snap = vaq_core::obs::snapshot();
        print_profile(&snap);
        let prom_path = out_dir.join("OBS_bench.prom");
        std::fs::write(&prom_path, snap.to_prometheus())
            .map_err(|e| format!("{}: {e}", prom_path.display()))?;
        let json_path = out_dir.join("OBS_bench.json");
        std::fs::write(&json_path, snap.to_json())
            .map_err(|e| format!("{}: {e}", json_path.display()))?;
        println!("profile written to {} and {}", prom_path.display(), json_path.display());
    }
    Ok(())
}

/// Peak resident set size (VmHWM) in KiB, from `/proc/self/status`.
/// Returns `None` off Linux — the RSS check then degrades to advisory.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

/// `ooc-query`: the internal child half of `bench --out-of-core`. Opens
/// the mapped index, answers the query set, checks every answer
/// byte-for-byte against the recorded in-RAM reference, and reports its
/// own whole-process peak RSS — a clean measurement of the mapped
/// serving footprint, because this process never built anything.
fn cmd_ooc_query(opts: &Opts) -> Result<(), String> {
    let index_path = PathBuf::from(get(opts, "index")?);
    let queries_path = PathBuf::from(get(opts, "queries")?);
    let want_path = PathBuf::from(get(opts, "want")?);
    let k: usize = get_or(opts, "k", 10)?;
    let visit: f64 = get_or(opts, "visit", 0.25)?;
    let quant_probes: usize = get_or(opts, "quant-probes", 8)?;

    let queries = load_vectors(&queries_path, None)?;
    let want_bytes =
        std::fs::read(&want_path).map_err(|e| format!("{}: {e}", want_path.display()))?;
    let mut cursor = 0usize;
    let mut next_hits = || -> Result<Vec<(u32, u32)>, String> {
        let take_u32 = |cursor: &mut usize| -> Result<u32, String> {
            let b = want_bytes
                .get(*cursor..*cursor + 4)
                .ok_or_else(|| "truncated want file".to_string())?;
            *cursor += 4;
            Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
        };
        let len = take_u32(&mut cursor)? as usize;
        (0..len).map(|_| Ok((take_u32(&mut cursor)?, take_u32(&mut cursor)?))).collect()
    };

    let t0 = std::time::Instant::now();
    let mapped = SegmentedVaq::open_mapped(&index_path).map_err(|e| e.to_string())?;
    let open_secs = t0.elapsed().as_secs_f64();
    let strat = SearchStrategy::TiEa { visit_frac: visit };
    let t0 = std::time::Instant::now();
    for qi in 0..queries.rows() {
        let got = mapped.search_with(queries.row(qi), k, strat).map_err(|e| e.to_string())?.0;
        let got: Vec<(u32, u32)> = got.iter().map(|h| (h.index, h.distance.to_bits())).collect();
        if got != next_hits()? {
            return Err(format!("query {qi}: mapped answers diverge from the in-RAM index"));
        }
    }
    let query_secs = t0.elapsed().as_secs_f64();
    let tiea_kb = peak_rss_kb();
    for qi in 0..quant_probes.min(queries.rows()) {
        let got = mapped
            .search_with(queries.row(qi), k, SearchStrategy::Quantized)
            .map_err(|e| e.to_string())?
            .0;
        let got: Vec<(u32, u32)> = got.iter().map(|h| (h.index, h.distance.to_bits())).collect();
        if got != next_hits()? {
            return Err(format!("query {qi}: mapped Quantized answers diverge"));
        }
    }
    let quant_kb = peak_rss_kb();
    println!("open_secs={open_secs}");
    println!("query_secs={query_secs}");
    if let Some(kb) = tiea_kb {
        println!("peak_rss_kb_tiea={kb}");
    }
    if let Some(kb) = quant_kb {
        println!("peak_rss_kb_quant={kb}");
    }
    Ok(())
}

/// `bench --out-of-core`: the mapped-extent acceptance run. Streams a
/// synthetic dataset to an fvecs file block by block (never materialized
/// in RAM), trains the dictionaries from a block-sampled subset, ingests
/// the whole file blockwise into a segmented index, persists it in the
/// `save_mapped` layout, then drops the in-RAM index, resets the
/// peak-RSS watermark, and answers the query set from the memory-mapped
/// reopen. The mapped answers must be byte-identical to the in-RAM
/// index's, and the index file must be larger than the child's TiEa-phase
/// peak RSS (enforced when the platform reports VmHWM). Writes
/// results/BENCH_out_of_core.json.
fn cmd_bench_out_of_core(opts: &Opts) -> Result<(), String> {
    use vaq_bench::Json;
    use vaq_dataset::io::{fvecs_row_count, read_fvecs_block};
    use vaq_dataset::largescale::{sample_fvecs_blocks, stream_to_fvecs};
    use vaq_dataset::SyntheticSpec;

    let n: usize = get_or(opts, "n", 3_000_000)?;
    let dim: usize = get_or(opts, "dim", 32)?;
    let nq: usize = get_or(opts, "queries", 128)?;
    let k: usize = get_or(opts, "k", 10)?;
    let budget: usize = get_or(opts, "budget", 64)?;
    let segments: usize = get_or(opts, "segments", 16)?;
    let seed: u64 = get_or(opts, "seed", 7)?;
    let block: usize = get_or(opts, "block", 65_536)?;
    let train_limit: usize = get_or(opts, "train-limit", 100_000)?;
    let seal: usize = get_or(opts, "seal", 500_000)?;
    let ti_clusters: usize = get_or(opts, "ti-clusters", 1000)?;
    let visit: f64 = get_or(opts, "visit", 0.25)?;
    let out_dir = PathBuf::from(get_or(opts, "out", "results".to_string())?);
    if n == 0 || nq == 0 || block == 0 || train_limit == 0 {
        return Err("--n, --queries, --block, and --train-limit must be positive".into());
    }

    let work = std::env::temp_dir().join(format!("vaq-ooc-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let data_path = work.join("data.fvecs");
    let index_path = work.join("index.vaq4");
    let cleanup = || {
        let _ = std::fs::remove_dir_all(&work);
    };

    // Phase 1: the dataset lives on disk, one block resident at a time.
    let spec = SyntheticSpec { dim, ..SyntheticSpec::sift_like() };
    let t0 = std::time::Instant::now();
    stream_to_fvecs(&spec, &data_path, n, block, seed)
        .map_err(|e| format!("{}: {e}", data_path.display()))?;
    let stream_secs = t0.elapsed().as_secs_f64();
    let data_mb = std::fs::metadata(&data_path).map(|m| m.len()).unwrap_or(0) / (1 << 20);
    println!("data: {n} × {dim} streamed to {} ({data_mb} MiB, {stream_secs:.1}s)", spec.name);
    let queries = spec.generate_queries(n, nq, seed);

    // Phase 2: dictionaries fit from a block-sampled subset; the full
    // file is then ingested block by block.
    let t0 = std::time::Instant::now();
    let sample = sample_fvecs_blocks(&data_path, dim, train_limit, block, seed)
        .map_err(|e| format!("sample: {e}"))?;
    let cfg = VaqConfig::new(budget, segments).with_seed(seed).with_ti_clusters(ti_clusters);
    let policy = SegmentPolicy::default().with_seal_threshold(seal);
    let seg = SegmentedVaq::train(&sample, &cfg, policy).map_err(|e| e.to_string())?;
    drop(sample);
    let train_secs = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let total = fvecs_row_count(&data_path, dim).map_err(|e| format!("row count: {e}"))?;
    let mut at = 0usize;
    while at < total {
        let rows = block.min(total - at);
        let m = read_fvecs_block(&data_path, dim, at, rows).map_err(|e| format!("ingest: {e}"))?;
        seg.add(&m).map_err(|e| e.to_string())?;
        at += rows;
    }
    seg.flush();
    let ingest_secs = t0.elapsed().as_secs_f64();
    let build_peak_mb = peak_rss_kb().map(|kb| kb / 1024);
    println!(
        "built: {} rows in {} segments (train {train_secs:.1}s, ingest {ingest_secs:.1}s, \
         build peak RSS {} MiB)",
        seg.len(),
        seg.snapshot().num_segments(),
        build_peak_mb.map_or("?".into(), |m| m.to_string()),
    );

    // In-RAM reference answers, captured before the index is dropped.
    // They go to a file so the query child can compare byte-for-byte.
    let strat = SearchStrategy::TiEa { visit_frac: visit };
    let quant_probes = nq.min(8);
    let queries_path = work.join("queries.fvecs");
    let want_path = work.join("want.bin");
    vaq_dataset::io::write_fvecs(&queries_path, &queries)
        .map_err(|e| format!("{}: {e}", queries_path.display()))?;
    {
        let mut want = Vec::new();
        let mut push_hits = |hits: &[vaq_core::Neighbor]| {
            want.extend((u32::try_from(hits.len()).expect("k fits u32")).to_le_bytes());
            for h in hits {
                want.extend(h.index.to_le_bytes());
                want.extend(h.distance.to_bits().to_le_bytes());
            }
        };
        for qi in 0..nq {
            push_hits(&seg.search_with(queries.row(qi), k, strat).map_err(|e| e.to_string())?.0);
        }
        for qi in 0..quant_probes {
            push_hits(
                &seg.search_with(queries.row(qi), k, SearchStrategy::Quantized)
                    .map_err(|e| e.to_string())?
                    .0,
            );
        }
        std::fs::write(&want_path, &want).map_err(|e| format!("{}: {e}", want_path.display()))?;
    }

    let t0 = std::time::Instant::now();
    seg.save_mapped(&index_path).map_err(|e| e.to_string())?;
    let save_secs = t0.elapsed().as_secs_f64();
    let file_bytes = std::fs::metadata(&index_path).map(|m| m.len()).unwrap_or(0);
    println!("saved: {} MiB in {save_secs:.1}s", file_bytes / (1 << 20));
    drop(seg);

    // Phase 3: a fresh child process answers the query set from the
    // mapped reopen, so its whole-process VmHWM *is* the serving
    // footprint — no build-phase allocations in the measurement.
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(&exe)
        .args([
            "ooc-query",
            "--index",
            &index_path.display().to_string(),
            "--queries",
            &queries_path.display().to_string(),
            "--want",
            &want_path.display().to_string(),
            "--k",
            &k.to_string(),
            "--visit",
            &visit.to_string(),
            "--quant-probes",
            &quant_probes.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawn query child: {e}"))?;
    if !out.status.success() {
        cleanup();
        return Err(format!(
            "mapped query child failed: {}{}",
            String::from_utf8_lossy(&out.stderr).trim(),
            String::from_utf8_lossy(&out.stdout).trim(),
        ));
    }
    let report = String::from_utf8_lossy(&out.stdout);
    let field = |key: &str| -> Option<f64> {
        report
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{key}=")))
            .and_then(|v| v.trim().parse().ok())
    };
    let open_secs = field("open_secs").unwrap_or(0.0);
    let query_secs = field("query_secs").unwrap_or(0.0);
    let tiea_peak_mb = field("peak_rss_kb_tiea").map(|kb| kb / 1024.0);
    let quant_peak_mb = field("peak_rss_kb_quant").map(|kb| kb / 1024.0);
    println!(
        "mapped (child process): open {open_secs:.2}s, {nq} queries at {:.2} ms/q — answers \
         identical; peak RSS {} MiB TiEa, {} MiB after Quantized probes (file {} MiB)",
        query_secs / nq as f64 * 1e3,
        tiea_peak_mb.map_or("?".into(), |m| format!("{m:.0}")),
        quant_peak_mb.map_or("?".into(), |m| format!("{m:.0}")),
        file_bytes / (1 << 20),
    );

    // Out-of-core means the file cannot all be resident at once: it must
    // be larger than the TiEa serving peak. The Quantized probes are
    // reported separately — they exist to show the packed extent group
    // staying non-resident until first asked for.
    let file_mb = file_bytes as f64 / f64::from(1u32 << 20);
    let verdict = match tiea_peak_mb {
        Some(peak) if file_mb <= peak => {
            cleanup();
            return Err(format!(
                "not out-of-core: the {file_mb:.1} MiB index file does not exceed the \
                 {peak:.1} MiB query-phase peak RSS"
            ));
        }
        Some(peak) => format!(
            "out-of-core: {file_mb:.1} MiB index file exceeds the {peak:.1} MiB TiEa peak RSS \
             by {:.1} MiB",
            file_mb - peak
        ),
        None => "out-of-core: VmHWM unavailable on this platform — RSS check advisory".to_string(),
    };

    let mb = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    let json = Json::obj([
        ("bench", Json::Str("out_of_core".to_string())),
        ("n", Json::Num(n as f64)),
        ("dim", Json::Num(dim as f64)),
        ("queries", Json::Num(nq as f64)),
        ("k", Json::Num(k as f64)),
        ("budget_bits", Json::Num(budget as f64)),
        ("subspaces", Json::Num(segments as f64)),
        ("block_rows", Json::Num(block as f64)),
        ("train_rows", Json::Num(train_limit as f64)),
        ("seal_threshold", Json::Num(seal as f64)),
        ("visit_frac", Json::Num(visit)),
        ("dataset_mb", Json::Num(data_mb as f64)),
        ("index_file_mb", Json::Num((file_bytes / (1 << 20)) as f64)),
        (
            "build",
            Json::obj([
                ("stream_secs", Json::Num(stream_secs)),
                ("train_secs", Json::Num(train_secs)),
                ("ingest_secs", Json::Num(ingest_secs)),
                ("save_secs", Json::Num(save_secs)),
                ("peak_rss_mb", build_peak_mb.map_or(Json::Null, |m| Json::Num(m as f64))),
            ]),
        ),
        (
            "mapped_query",
            Json::obj([
                ("open_secs", Json::Num(open_secs)),
                ("ms_per_query", Json::Num(query_secs / nq as f64 * 1e3)),
                ("peak_rss_mb_tiea", mb(tiea_peak_mb)),
                ("peak_rss_mb_after_quantized", mb(quant_peak_mb)),
                ("answers_identical", Json::Bool(true)),
            ]),
        ),
    ]);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join("BENCH_out_of_core.json");
    std::fs::write(&path, json.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    println!("{verdict}");
    cleanup();
    Ok(())
}

/// Renders an obs snapshot as the human-readable `--profile` report:
/// span table, non-empty histogram buckets, counters, and event totals.
fn print_profile(snap: &vaq_core::obs::Snapshot) {
    println!("\nprofile: spans");
    println!(
        "  {:<22} {:>8} {:>12} {:>12} {:>12}",
        "span", "count", "total ms", "mean µs", "max µs"
    );
    for s in &snap.spans {
        let mean_us = s.total_ns as f64 / s.count.max(1) as f64 / 1e3;
        println!(
            "  {:<22} {:>8} {:>12.3} {:>12.2} {:>12.2}",
            s.name,
            s.count,
            s.total_ns as f64 / 1e6,
            mean_us,
            s.max_ns as f64 / 1e3
        );
    }
    for h in &snap.histograms {
        println!("profile: histogram {} ({} observations)", h.name, h.count);
        for &(le_ns, c) in h.buckets.iter().filter(|&&(_, c)| c > 0) {
            println!("  ≤ {:>12.1} µs  {c}", le_ns as f64 / 1e3);
        }
        let mean_us = h.sum_ns as f64 / h.count.max(1) as f64 / 1e3;
        println!("  mean {mean_us:.2} µs");
    }
    if !snap.counters.is_empty() {
        println!("profile: counters");
        for &(name, v) in &snap.counters {
            println!("  {name:<28} {v}");
        }
    }
    if !snap.events.is_empty() || snap.events_dropped > 0 {
        println!(
            "profile: {} structured events ({} dropped)",
            snap.events.len(),
            snap.events_dropped
        );
        for e in snap.events.iter().take(10) {
            println!("  [{}] {}: {}", e.seq, e.kind, e.detail);
        }
    }
}

fn cmd_chaos(opts: &Opts) -> Result<(), String> {
    use vaq_core::faults::{disarm_all, take_degradations};

    let range = parse_seed_range(opts.get("seed-range").map(|s| s.as_str()).unwrap_or("0..32"))?;
    let p: f64 = get_or(opts, "p", 0.3)?;
    let n: usize = get_or(opts, "n", 400)?;
    let d: usize = get_or(opts, "dim", 16)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("--p {p} outside [0, 1]"));
    }

    let (mut clean, mut degraded, mut errored) = (0u64, 0u64, 0u64);
    let mut failures: Vec<String> = Vec::new();
    for seed in range.clone() {
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| chaos_run(seed, p, n, d)));
        let notes = take_degradations();
        disarm_all();
        match outcome {
            Err(_) => failures.push(format!("seed {seed}: PANIC")),
            Ok(Err(msg)) => failures.push(format!("seed {seed}: {msg}")),
            Ok(Ok(queryable)) => {
                if !queryable {
                    errored += 1;
                } else if notes.is_empty() {
                    clean += 1;
                } else {
                    degraded += 1;
                }
                if !notes.is_empty() {
                    println!("seed {seed}: degraded — {}", notes.join("; "));
                }
            }
        }
    }

    let total = range.end - range.start;
    println!(
        "chaos: {total} seeds, {clean} clean, {degraded} degraded-but-correct, \
         {errored} typed errors, {} contract violations",
        failures.len()
    );
    if failures.is_empty() {
        Ok(())
    } else {
        for f in &failures {
            eprintln!("{f}");
        }
        Err(format!(
            "{} chaos seed(s) violated the no-panic/no-wrong-answer contract",
            failures.len()
        ))
    }
}

/// The IO fault sites a [`vaq_core::faults::Trigger::CrashPoint`] sweep
/// enumerates (each is registered in `faults::SITES`).
const CRASH_SITES: [&str; 3] = ["persist.wal_append", "persist.commit", "persist.fsync"];

/// One crash-harness run: the live workload instance plus how it ended.
struct CrashRun {
    seg: SegmentedVaq,
    /// `true` once the initial `make_durable` acknowledged — from then on
    /// recovery must succeed and match the acknowledged prefix.
    durable: bool,
    /// The typed error that stopped the workload (the simulated power
    /// cut), `None` when every op acknowledged.
    stopped: Option<vaq_core::VaqError>,
}

/// Replays the scripted durable workload against a fresh manifest path:
/// make-durable, interleaved add/delete batches across seal and compact
/// boundaries, an update, a mid-stream checkpoint, and a final
/// checkpoint. Stops at the first failed op. The returned instance is
/// the oracle: every mutation reaches the write-ahead log before memory,
/// so its in-memory state is exactly the set of acknowledged ops.
fn crash_workload(base: &[u8], data: &Matrix, path: &Path) -> Result<CrashRun, String> {
    let vaq = Vaq::from_bytes(base).map_err(|e| format!("workload setup: {e}"))?;
    let seg = SegmentedVaq::from_vaq(
        vaq,
        SegmentPolicy::default().with_seal_threshold(12).with_compact_min_segments(2),
    );
    let half = data.rows() / 2;
    let mut durable = false;
    let stopped = (|| -> Result<(), vaq_core::VaqError> {
        seg.make_durable(path)?;
        durable = true;
        let mut cursor = half;
        let mut victims: Vec<u32> = Vec::new();
        for round in 0..2usize {
            // Three 7-row batches per round cross the 12-row seal
            // threshold, so seals and compactions land mid-schedule.
            for _batch in 0..3usize {
                let hi = cursor + 7;
                let ids = seg.add(&data.select_rows(&(cursor..hi).collect::<Vec<_>>()))?;
                cursor = hi;
                victims.push(ids[0]);
            }
            for v in victims.drain(..) {
                let _ = seg.try_delete(v)?;
            }
            if round == 0 {
                seg.flush();
                // Replace a trained row with the (otherwise unused) last
                // dataset row: a delete + add pair through one call.
                seg.update(1, data.row(data.rows() - 1))?;
                seg.checkpoint()?;
            }
        }
        seg.flush();
        seg.checkpoint()?;
        Ok(())
    })();
    Ok(CrashRun { seg, durable, stopped: stopped.err() })
}

/// Logical-state fingerprint used to compare the crashed oracle with the
/// recovered index: the live id set plus full-scan answers (sorted by
/// `(distance bits, id)` so segmentation-dependent scan order cannot
/// masquerade as divergence) for the last five dataset rows as queries.
fn crash_fingerprint(
    seg: &SegmentedVaq,
    data: &Matrix,
    k: usize,
) -> Result<(Vec<u32>, Vec<Vec<(u32, u32)>>), String> {
    let mut answers = Vec::new();
    for qi in data.rows().saturating_sub(5)..data.rows() {
        let hits = seg
            .search_with(data.row(qi), k, SearchStrategy::FullScan)
            .map_err(|e| format!("query on live index failed: {e}"))?
            .0;
        let mut a: Vec<(u32, u32)> = hits.iter().map(|h| (h.distance.to_bits(), h.index)).collect();
        a.sort_unstable();
        answers.push(a);
    }
    Ok((seg.live_ids(), answers))
}

/// Recreates `dir` empty.
fn fresh_dir(dir: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

/// How one swept crash point resolved (violations are reported upward).
enum CrashVerdict {
    /// Recovery reproduced the acknowledged prefix exactly.
    Recovered,
    /// The cut landed before the index ever became durable and recovery
    /// failed with a typed error — nothing was promised, nothing is owed.
    Unborn,
}

fn cmd_crash(opts: &Opts) -> Result<(), String> {
    use vaq_core::faults::{arm, crashed, disarm_all, hit_count, Trigger};

    let seed: u64 = get_or(opts, "seed", 7)?;
    let n: usize = get_or(opts, "n", 96)?;
    let d: usize = get_or(opts, "dim", 12)?;
    let k: usize = get_or(opts, "k", 8)?;
    if n < 64 {
        return Err("--n must be at least 64 (the workload script needs the rows)".into());
    }
    // `--durability` names the only suite; accepted for explicit CI logs.

    // Seeds ≡ 0 (mod 4) keep `chaos_data` finite: the durability contract
    // is exercised on clean vectors (ingress chaos is `chaos` business).
    let data = chaos_data(n, d, seed.wrapping_mul(4));
    let half = n / 2;
    let cfg = VaqConfig::new(32, 4).with_seed(seed).with_ti_clusters(8.min(half));
    let base = Vaq::train(&data.select_rows(&(0..half).collect::<Vec<_>>()), &cfg)
        .map_err(|e| format!("baseline training failed: {e}"))?
        .to_bytes();
    let scratch = std::env::temp_dir().join(format!("vaq-crash-{}", std::process::id()));

    // Counting pass: arm the IO sites inert, run the workload fault-free,
    // and read back how many times each site was hit — that enumerates
    // every IO point the sweep must kill at.
    disarm_all();
    for site in CRASH_SITES {
        arm(site, Trigger::Off);
    }
    let dir = fresh_dir(&scratch.join("baseline"))?;
    let baseline_path = dir.join("index.vaq");
    let run = crash_workload(&base, &data, &baseline_path)?;
    if let Some(e) = run.stopped {
        disarm_all();
        return Err(format!("fault-free workload failed: {e}"));
    }
    let io_points: Vec<(&'static str, u64)> =
        CRASH_SITES.iter().map(|&s| (s, hit_count(s))).collect();
    disarm_all();
    let oracle = crash_fingerprint(&run.seg, &data, k)?;
    // Clean-shutdown recovery must already reproduce the final state.
    let rec = SegmentedVaq::open_durable(&baseline_path)
        .map_err(|e| format!("clean recovery failed: {e}"))?;
    if crash_fingerprint(&rec, &data, k)? != oracle {
        return Err("clean recovery diverged from the live index".into());
    }
    let total: u64 = io_points.iter().map(|&(_, h)| h).sum();
    let detail: Vec<String> = io_points.iter().map(|&(s, h)| format!("{s} ×{h}")).collect();
    println!("crash: workload touches {total} IO points ({})", detail.join(", "));

    let mut failures: Vec<String> = Vec::new();
    let (mut recovered, mut unborn) = (0u64, 0u64);
    for &(site, hits) in &io_points {
        for point in 1..=hits {
            let dir = fresh_dir(&scratch.join(format!("{}-{point}", site.replace('.', "_"))))?;
            let path = dir.join("index.vaq");
            disarm_all();
            arm(site, Trigger::CrashPoint(point));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                || -> Result<CrashVerdict, String> {
                    let run = crash_workload(&base, &data, &path)?;
                    if run.stopped.is_none() || !crashed() {
                        return Err(format!(
                            "crash point never cut the workload (stopped: {:?})",
                            run.stopped
                        ));
                    }
                    // The crashed instance is the oracle (see
                    // `crash_workload`); capture it before power-up.
                    let oracle = crash_fingerprint(&run.seg, &data, k)?;
                    disarm_all(); // power back up
                    match SegmentedVaq::open_durable(&path) {
                        Ok(rec) => {
                            if crash_fingerprint(&rec, &data, k)? != oracle {
                                return Err(
                                    "recovered state diverges from the acknowledged prefix".into(),
                                );
                            }
                            // Recovery must hand back a *working* durable
                            // index, not just a readable one.
                            rec.checkpoint()
                                .map_err(|e| format!("post-recovery checkpoint failed: {e}"))?;
                            Ok(CrashVerdict::Recovered)
                        }
                        Err(_) if !run.durable => Ok(CrashVerdict::Unborn),
                        Err(e) => Err(format!("recovery failed on a durable index: {e}")),
                    }
                },
            ));
            disarm_all();
            match outcome {
                Err(_) => failures.push(format!("{site} point {point}: PANIC")),
                Ok(Err(msg)) => failures.push(format!("{site} point {point}: {msg}")),
                Ok(Ok(CrashVerdict::Recovered)) => recovered += 1,
                Ok(Ok(CrashVerdict::Unborn)) => unborn += 1,
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    println!(
        "crash: {total} points swept — {recovered} recovered exactly, {unborn} died before \
         durability (typed), {} violations",
        failures.len()
    );
    if failures.is_empty() {
        Ok(())
    } else {
        for f in &failures {
            eprintln!("{f}");
        }
        Err(format!("{} crash point(s) violated the recovery contract", failures.len()))
    }
}
