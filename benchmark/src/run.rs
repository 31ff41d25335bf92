//! The end-to-end run of one workload: build the index through the public
//! API, check its answers, measure what a user of the index would see.
//!
//! Clocks: one query runs on its client's thread alone, so its latency is
//! read off that thread's CPU-time clock, which the hypervisor's steal and
//! other processes are not on (README, noise findings). Everything that may
//! use the library's worker threads or wait for the disk — set-up, ingest,
//! the batch pass, reopening — is read off the wall clock: CPU seconds
//! summed over threads hide both a lost core and an fsync.

use crate::layers::{self, Answer, Index, Matrix, Neighbor, Res, SearchStats, Strategy};
use crate::stats::{self, CpuTimer, Estimate, Sentinels};
use crate::truth::GroundTruth;
use crate::workloads::{Kind, Workload, CHECK_QUERIES, K, RECALL_QUERIES};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Operations attempted and failed: any `Err`, any answer of the wrong
/// length, any failed correctness check.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Ops {
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(why());
            }
        }
    }

    /// Counts the call, and hands back its value when it succeeded.
    pub fn expect<T>(&mut self, what: &str, result: Res<T>) -> Option<T> {
        match result {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// A query counts as failed on `Err` or on other than `K` neighbours.
    pub fn answer(&mut self, what: &str, result: Res<Answer>) -> Option<Answer> {
        match result {
            Ok(a) if a.0.len() == K => {
                self.attempted += 1;
                Some(a)
            }
            Ok(a) => {
                self.check(false, || format!("{what}: {} neighbours, wanted {K}", a.0.len()));
                None
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Everything one run reports.
pub struct Outcome {
    pub metrics: Vec<(&'static str, Estimate)>,
    pub ops: Ops,
    /// Lines for the human reader: index shape, wall times, sentinels.
    pub info: Vec<String>,
}

pub struct RunCfg<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Where this run may write; removed when the run ends.
    pub scratch: &'a Path,
    pub threads: usize,
}

/// Ground truth for the first `RECALL_QUERIES` queries.
pub fn ground_truth(queries: &Matrix, keep: usize) -> GroundTruth {
    let n = RECALL_QUERIES.min(queries.rows());
    GroundTruth::new(&queries.as_slice()[..n * queries.cols()], queries.cols(), keep)
}

/// recall@k of `strategy` on the ground-truth subset.
pub fn recall(
    index: &Index,
    queries: &Matrix,
    truth: &[Vec<u32>],
    k: usize,
    strategy: Strategy,
    ops: &mut Ops,
) -> f64 {
    let mut searcher = index.searcher();
    let mut hits = 0usize;
    for (qi, want) in truth.iter().enumerate() {
        let got = searcher.search(queries.row(qi), k, strategy);
        let Some((got, _)) = ops.expect("recall query", got) else { continue };
        hits += got.iter().filter(|nb| want.contains(&nb.index)).count();
    }
    hits as f64 / (truth.len() * k).max(1) as f64
}

// ---------------------------------------------------------------------------
// Building
// ---------------------------------------------------------------------------

/// SplitMix64: the request order must not depend on the library's RNG.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

pub struct Inputs {
    pub train: Matrix,
    /// In generation order, which the ground truth and the checks use.
    pub queries: Matrix,
    /// The same queries in the order `--seed` has them served.
    pub served: Matrix,
}

/// The training rows (the head of the base stream) and the query set.
pub fn inputs(w: &Workload, seed: u64) -> Inputs {
    let dim = w.data.dim();
    let mut flat = Vec::with_capacity(w.train_rows * dim);
    for block in w.data.blocks(w.train_rows, w.batch_rows) {
        flat.extend_from_slice(block.as_slice());
    }
    let queries = w.data.queries(w.rows(), w.queries);
    Inputs {
        train: layers::matrix_from(w.train_rows, dim, flat),
        served: in_served_order(&queries, seed),
        queries,
    }
}

/// The queries shuffled by `seed`.
pub fn in_served_order(queries: &Matrix, seed: u64) -> Matrix {
    let mut order: Vec<usize> = (0..queries.rows()).collect();
    SplitMix(seed).shuffle(&mut order);
    let flat = order.iter().flat_map(|&qi| queries.row(qi).iter().copied()).collect();
    layers::matrix_from(queries.rows(), queries.cols(), flat)
}

/// The base rows after the training rows, one `add`-sized block at a time,
/// with the id the block's first row will get.
pub fn ingest_blocks(w: &Workload) -> impl Iterator<Item = (u32, Matrix)> {
    let (train_rows, batch_rows) = (w.train_rows, w.batch_rows);
    assert!(train_rows % batch_rows == 0, "training rows must be whole batches");
    w.data
        .blocks(w.rows(), batch_rows)
        .enumerate()
        .skip(train_rows / batch_rows)
        .map(move |(b, block)| ((b * batch_rows) as u32, block))
}

/// Wall seconds of the library call `train` makes.
pub fn train(w: &Workload, train: &Matrix) -> Res<(Index, f64)> {
    let t = Instant::now();
    let index = match w.kind {
        Kind::Mono => Index::train_mono(train, &w.model),
        _ => Index::train_segmented(train, &w.model, &w.policy),
    }?;
    Ok((index, t.elapsed().as_secs_f64()))
}

/// What an ingest loop measured, on the wall: `add` may use the library's
/// worker threads, and a durable `add` or delete waits for its fsync.
#[derive(Default)]
pub struct Ingest {
    pub rows: usize,
    pub add_ms: Vec<f64>,
    /// Deletes, which the loop's rate pays for as well.
    pub delete_s: f64,
}

impl Ingest {
    pub fn timed_add(&mut self, index: &mut Index, block: &Matrix, ops: &mut Ops) {
        let t = Instant::now();
        let added = index.add(block);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if ops.expect("add", added).is_some() {
            self.rows += block.rows();
            self.add_ms.push(ms);
        }
    }

    /// Seconds of the loop: its adds and deletes, not its queries.
    pub fn seconds(&self) -> f64 {
        self.add_ms.iter().sum::<f64>() / 1e3 + self.delete_s
    }

    /// Rows acknowledged per second of the whole loop. The loop is one pass
    /// over a growing index, so no slice of it stands for the rest.
    pub fn krows_s(&self) -> Estimate {
        Estimate {
            value: self.rows as f64 / 1e3 / self.seconds().max(1e-9),
            iqr: 0.0,
            samples: self.add_ms.len(),
        }
    }

    /// For the reader of an end-to-end run; the traced run reports both as
    /// per-layer metrics.
    pub fn info(&self) -> String {
        format!(
            "{:.1} krows/s, p95 of an add {:.2} ms",
            self.krows_s().value,
            self.batch_p95_ms().value
        )
    }

    /// p95 of per-`add` latency; seal and compaction stalls land here.
    pub fn batch_p95_ms(&self) -> Estimate {
        Estimate { value: stats::quantile(&self.add_ms, 0.95), ..Estimate::median_of(&self.add_ms) }
    }
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

/// What the interleaved serving rounds measured.
#[derive(Default)]
pub struct Served {
    pub rounds: usize,
    /// Per query: its latency in each round, on the client thread's CPU clock.
    pub query_us: Vec<Vec<f64>>,
    /// Per round: the latency pass's median on the CPU clock and on the wall.
    pub round_p50_us: Vec<f64>,
    pub round_wall_p50_us: Vec<f64>,
    /// Per round: the batch pass's queries per second of wall time, and per
    /// second of CPU time per thread.
    pub qps: Vec<f64>,
    pub cpu_qps: Vec<f64>,
    /// Work counters summed over the latency passes.
    pub stats: SearchStats,
}

impl Served {
    /// The `q`-quantile over the queries of each query's best latency among
    /// the rounds. A query costs the same work in every round, and whatever
    /// else runs on the box can only add to it, so the best of its
    /// repetitions is the nearest to its cost; the tail that is left is the
    /// tail of the workload — its hard queries — not of the box.
    pub fn latency_us(&self, q: f64) -> Estimate {
        let best: Vec<f64> = self
            .query_us
            .iter()
            .filter_map(|us| us.iter().copied().min_by(f64::total_cmp))
            .collect();
        Estimate {
            value: stats::quantile(&best, q),
            samples: self.query_us.iter().map(Vec::len).sum(),
            ..Estimate::median_of(&best)
        }
    }

    /// The best round, for the same reason: with as many threads as cores,
    /// whatever else runs takes a core from one of them.
    pub fn batch_qps(&self) -> Estimate {
        Estimate { value: stats::quantile(&self.qps, 1.0), ..Estimate::median_of(&self.qps) }
    }

    pub fn info(&self) -> String {
        let range =
            |v: &[f64]| format!("{:.0}..{:.0}", stats::quantile(v, 0.0), stats::quantile(v, 1.0));
        format!(
            "serving: {} rounds; per-round query p50 on the CPU {} us, on the wall {} us; batch on the wall {} 1/s, per thread-CPU second {} 1/s",
            self.rounds,
            range(&self.round_p50_us),
            range(&self.round_wall_p50_us),
            range(&self.qps),
            range(&self.cpu_qps),
        )
    }
}

/// One client, one query at a time: `(on-CPU us, wall us)` of each query
/// that was answered.
fn latency_pass(
    searcher: &mut layers::Searcher,
    queries: &Matrix,
    strategy: Strategy,
    ops: &mut Ops,
) -> (Vec<Option<(f64, f64)>>, SearchStats) {
    let mut us = Vec::with_capacity(queries.rows());
    let mut stats = SearchStats::default();
    for qi in 0..queries.rows() {
        let t = CpuTimer::thread();
        let answer = searcher.search(queries.row(qi), K, strategy);
        let spent = t.stop();
        us.push(ops.answer("query", answer).map(|(_, s)| {
            stats += s;
            (spent.cpu_s * 1e6, spent.wall_s * 1e6)
        }));
    }
    (us, stats)
}

/// All queries at once with `threads` threads: queries per second of wall
/// time, which a lost core, a lock or an unbalanced shard lowers; and per
/// second of CPU time per thread, for the reader.
fn batch_pass(
    index: &Index,
    queries: &Matrix,
    strategy: Strategy,
    threads: usize,
    ops: &mut Ops,
) -> Option<(f64, f64)> {
    let t = CpuTimer::process();
    let answers = index.search_all(queries, K, strategy, threads);
    let spent = t.stop();
    let answers = ops.expect("batch", answers)?;
    for a in &answers {
        ops.check(a.len() == K, || format!("batch answer has {} neighbours", a.len()));
    }
    let n = queries.rows() as f64;
    Some((n / spent.wall_s.max(1e-9), n * threads as f64 / spent.cpu_s.max(1e-9)))
}

/// `[latency pass over all queries → batch pass over a quarter of them →
/// sentinels]`, round after round until `seconds` have passed, at least
/// three times. A quarter-size warm-up round comes first and is not counted:
/// the first query of a fresh searcher sizes its table arena, and a freshly
/// loaded index has cold pages.
pub fn serve_rounds(
    index: &Index,
    queries: &Matrix,
    strategy: Strategy,
    seconds: f64,
    threads: usize,
    ops: &mut Ops,
    sentinels: &mut Sentinels,
) -> Served {
    // The served order is a shuffle, so a prefix of it is a fair sample.
    let batch = {
        let rows = queries.rows().div_ceil(4);
        let flat = queries.as_slice()[..rows * queries.cols()].to_vec();
        layers::matrix_from(rows, queries.cols(), flat)
    };
    // One client, one searcher, for all rounds.
    let mut searcher = index.searcher();
    latency_pass(&mut searcher, &batch, strategy, ops);
    batch_pass(index, &batch, strategy, threads, ops);

    let mut served = Served { query_us: vec![Vec::new(); queries.rows()], ..Served::default() };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while served.rounds < 3 || Instant::now() < deadline {
        let (us, stats) = latency_pass(&mut searcher, queries, strategy, ops);
        let answered: Vec<(f64, f64)> = us.iter().flatten().copied().collect();
        if answered.is_empty() {
            break; // every query failed; the failure count says so
        }
        for (per_query, us) in served.query_us.iter_mut().zip(&us) {
            per_query.extend(us.map(|u| u.0));
        }
        served.rounds += 1;
        served.round_p50_us.push(stats::median(&answered.iter().map(|u| u.0).collect::<Vec<_>>()));
        served
            .round_wall_p50_us
            .push(stats::median(&answered.iter().map(|u| u.1).collect::<Vec<_>>()));
        served.stats += stats;
        if let Some((qps, cpu_qps)) = batch_pass(index, &batch, strategy, threads, ops) {
            served.qps.push(qps);
            served.cpu_qps.push(cpu_qps);
        }
        sentinels.sample();
    }
    // The first query of the warm-up sized the arena; after it the engine
    // must never allocate tables again.
    ops.check(served.stats.table_reallocations == 0, || {
        format!("{} table reallocations in steady state", served.stats.table_reallocations)
    });
    served
}

fn same(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.index == y.index && x.distance.to_bits() == y.distance.to_bits())
}

/// The check subset's answers under `strategy`.
fn answers_with(
    index: &Index,
    queries: &Matrix,
    strategy: Strategy,
    ops: &mut Ops,
) -> Vec<Vec<Neighbor>> {
    let mut searcher = index.searcher();
    (0..CHECK_QUERIES.min(queries.rows()))
        .map(|qi| {
            let a = searcher.search(queries.row(qi), K, strategy);
            ops.answer("check query", a).map(|a| a.0).unwrap_or_default()
        })
        .collect()
}

/// `FullScan` answers on the check subset; the pruning strategies must
/// return exactly these.
pub fn full_scan_answers(index: &Index, queries: &Matrix, ops: &mut Ops) -> Vec<Vec<Neighbor>> {
    answers_with(index, queries, Strategy::FullScan, ops)
}

/// TI and EA pruning and the quantized scan never change the answer.
pub fn check_exactness(index: &Index, queries: &Matrix, full: &[Vec<Neighbor>], ops: &mut Ops) {
    let mut searcher = index.searcher();
    for (qi, want) in full.iter().enumerate() {
        for strategy in [Strategy::Quantized, Strategy::EarlyAbandon, Strategy::TiEa(1.0)] {
            let got = searcher.search(queries.row(qi), K, strategy);
            let ok = got.as_ref().is_ok_and(|(got, _)| same(got, want));
            ops.check(ok, || format!("query {qi}: {strategy:?} differs from FullScan"));
        }
    }
}

pub fn check_same_answers(
    what: &str,
    got: &[Vec<Neighbor>],
    want: &[Vec<Neighbor>],
    ops: &mut Ops,
) {
    ops.check(got.len() == want.len(), || {
        format!("{what}: {} answers, wanted {}", got.len(), want.len())
    });
    for (qi, (g, w)) in got.iter().zip(want).enumerate() {
        ops.check(same(g, w), || format!("{what}: query {qi} differs"));
    }
}

/// How a workload's saved index is opened again.
pub fn open_saved(kind: Kind, path: &Path) -> Res<Index> {
    match kind {
        Kind::Mono => Index::load_mono(path),
        Kind::Segmented => Index::load_segmented(path),
        Kind::Mapped => Index::open_mapped(path),
        Kind::Mixed => Index::open_durable(path),
    }
}

fn read_f32s(path: &Path) -> Res<Vec<f32>> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
}

/// Time to the first answer after a restart. A restart is a new process,
/// so each of five fresh child processes opens the saved index and answers
/// one query; the figure is the wall time of those two calls inside the
/// child, median of the five.
pub fn reopen_ms(
    w: &Workload,
    path: &Path,
    query: &[f32],
    scratch: &Path,
    ops: &mut Ops,
) -> Estimate {
    let query_file = scratch.join("reopen-query.f32");
    let bytes: Vec<u8> = query.iter().flat_map(|v| v.to_le_bytes()).collect();
    if let Err(e) = std::fs::write(&query_file, bytes) {
        ops.check(false, || format!("{}: {e}", query_file.display()));
    }
    let mut ms = Vec::new();
    for _ in 0..5 {
        let child = std::env::current_exe().map_err(|e| e.to_string()).and_then(|exe| {
            std::process::Command::new(exe)
                .args(["reopen", "--workload", w.name, "--path"])
                .arg(path)
                .arg("--query")
                .arg(&query_file)
                .stdin(std::process::Stdio::null())
                .output()
                .map_err(|e| e.to_string())
        });
        let wall_ms = child.and_then(|out| {
            let text = String::from_utf8_lossy(&out.stdout);
            match text.trim().parse::<f64>() {
                Ok(v) if out.status.success() => Ok(v),
                _ => Err(format!("{}: {text}{}", out.status, String::from_utf8_lossy(&out.stderr))),
            }
        });
        ms.extend(ops.expect("reopen in a fresh process", wall_ms));
    }
    Estimate::median_of(&ms)
}

/// The child half of `reopen_ms`.
pub fn reopen_child(w: &Workload, path: &Path, query_file: &Path) -> Res<()> {
    let query = read_f32s(query_file)?;
    let t = Instant::now();
    let index = open_saved(w.kind, path)?;
    let first = index.searcher().search(&query, K, w.strategy)?;
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    if first.0.len() != K {
        return Err(format!("{} neighbours after reopen, wanted {K}", first.0.len()));
    }
    println!("{wall_ms}");
    Ok(())
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map(|m| m.len() as f64).unwrap_or(0.0)
}

fn sentinel_info(s: &Sentinels) -> String {
    format!(
        "box during the run: on the CPU {:.0} % of the wall, stream read {:.2} GB/s, compute {:.2} ms, fsync {:.0} us (medians of {} samples)",
        100.0 * stats::median(&s.on_cpu_share),
        stats::median(&s.stream_read_gb_s),
        stats::median(&s.compute_ms),
        stats::median(&s.fsync_us),
        s.compute_ms.len()
    )
}

// ---------------------------------------------------------------------------
// The run, per kind of workload
// ---------------------------------------------------------------------------

pub fn run(cfg: &RunCfg) -> Res<Outcome> {
    match cfg.workload.kind {
        Kind::Mono | Kind::Segmented => run_read(cfg),
        Kind::Mapped => run_mapped(cfg),
        Kind::Mixed => run_mixed(cfg),
    }
}

/// What `build` hands the rest of a read run.
struct Built {
    index: Index,
    inputs: Inputs,
    /// Train + ingest + flush on the wall: the library's share of set-up.
    setup_s: f64,
    truth: Vec<Vec<u32>>,
    /// Where the wall time of set-up went, the harness's share included.
    note: String,
}

/// Train, then `add` the rest batch by batch (non-durable), folding every
/// block into the ground truth on the way — outside the clocks.
fn build(cfg: &RunCfg, ops: &mut Ops) -> Res<Built> {
    let w = cfg.workload;
    let t = Instant::now();
    let inputs = inputs(w, cfg.seed);
    let inputs_s = t.elapsed().as_secs_f64();
    let mut truth = ground_truth(&inputs.queries, K);
    let t = Instant::now();
    truth.absorb(inputs.train.as_slice(), 0, cfg.threads);
    let mut truth_s = t.elapsed().as_secs_f64();

    let (mut index, train_s) = train(w, &inputs.train)?;
    let mut ingest = Ingest::default();
    for (first_id, block) in ingest_blocks(w) {
        ingest.timed_add(&mut index, &block, ops);
        let t = Instant::now();
        truth.absorb(block.as_slice(), first_id, cfg.threads);
        truth_s += t.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    index.flush();
    let flush_s = t.elapsed().as_secs_f64();
    let note = format!(
        "set-up: train {train_s:.2} s + ingest {:.2} s ({}) + flush {flush_s:.2} s; harness beside it: queries and training rows {inputs_s:.2} s, ground truth {truth_s:.2} s",
        ingest.seconds(),
        ingest.info()
    );
    Ok(Built {
        index,
        setup_s: train_s + ingest.seconds() + flush_s,
        inputs,
        truth: truth.top(K, &BTreeSet::new()),
        note,
    })
}

fn run_read(cfg: &RunCfg) -> Res<Outcome> {
    let w = cfg.workload;
    let mut ops = Ops::default();
    let mut sentinels = Sentinels::new(&cfg.scratch.join("sentinel")).map_err(|e| e.to_string())?;
    let Built { index, inputs, setup_s, truth, note } = build(cfg, &mut ops)?;
    let shape = index.shape();

    let full = full_scan_answers(&index, &inputs.queries, &mut ops);
    check_exactness(&index, &inputs.queries, &full, &mut ops);
    let recall_at_10 = recall(&index, &inputs.queries, &truth, K, w.strategy, &mut ops);
    let served = serve_rounds(
        &index,
        &inputs.served,
        w.strategy,
        cfg.seconds,
        cfg.threads,
        &mut ops,
        &mut sentinels,
    );
    // Read before the reopen phase, whose loads would count twice.
    let peak_rss = stats::peak_rss_mib();

    let path = cfg.scratch.join("index.vaq");
    ops.expect("save", index.save(&path));
    drop(index);
    let reopen = reopen_ms(w, &path, inputs.queries.row(0), cfg.scratch, &mut ops);
    let reopened = ops.expect("load", open_saved(w.kind, &path));
    if let Some(reopened) = &reopened {
        check_same_answers(
            "after load",
            &full_scan_answers(reopened, &inputs.queries, &mut ops),
            &full,
            &mut ops,
        );
    }

    Ok(Outcome {
        metrics: vec![
            ("setup_s", Estimate::single(setup_s)),
            ("query_p50_us", served.latency_us(0.5)),
            ("query_p99_us", served.latency_us(0.99)),
            ("batch_qps", served.batch_qps()),
            ("recall_at_10", Estimate::single(recall_at_10)),
            ("reopen_ms", reopen),
            ("bytes_per_vector", Estimate::single(file_len(&path) / shape.live_rows.max(1) as f64)),
            ("peak_rss_mb", Estimate::single(peak_rss)),
        ],
        ops,
        info: vec![
            format!("index: {shape:?}, bits {:?}", reopened.and_then(|i| i.bits())),
            note,
            served.info(),
            sentinel_info(&sentinels),
        ],
    })
}

// --- mapped: the parent builds, a fresh child serves -----------------------

/// What the parent hands the serving child: the queries, the ground truth
/// and the owned index's answers on the check subset.
pub struct Handoff {
    pub queries: Matrix,
    pub truth: Vec<Vec<u32>>,
    pub full: Vec<Vec<Neighbor>>,
    pub answers: Vec<Vec<Neighbor>>,
}

fn put_u32s(out: &mut Vec<u8>, values: &[u32]) {
    out.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn take_u32s(data: &mut &[u8]) -> Res<Vec<u32>> {
    let bad = || "handoff file is truncated".to_string();
    let (len, rest) = data.split_first_chunk::<8>().ok_or_else(bad)?;
    let bytes = usize::try_from(u64::from_le_bytes(*len))
        .ok()
        .and_then(|n| n.checked_mul(4))
        .ok_or_else(bad)?;
    if rest.len() < bytes {
        return Err(bad());
    }
    let (body, rest) = rest.split_at(bytes);
    *data = rest;
    Ok(body.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
}

/// Lists of `width`-word items: the lists' lengths, then all items flat.
fn put_lists(out: &mut Vec<u8>, lens: Vec<u32>, flat: Vec<u32>) {
    put_u32s(out, &lens);
    put_u32s(out, &flat);
}

fn take_lists(data: &mut &[u8], width: usize) -> Res<Vec<Vec<u32>>> {
    let lens = take_u32s(data)?;
    let flat = take_u32s(data)?;
    let mut at = 0usize;
    lens.iter()
        .map(|&len| {
            let end = at + len as usize * width;
            let list = flat.get(at..end).ok_or("handoff lists are inconsistent")?.to_vec();
            at = end;
            Ok(list)
        })
        .collect()
}

fn put_answers(out: &mut Vec<u8>, answers: &[Vec<Neighbor>]) {
    put_lists(
        out,
        answers.iter().map(|a| a.len() as u32).collect(),
        answers.iter().flatten().flat_map(|nb| [nb.index, nb.distance.to_bits()]).collect(),
    );
}

fn take_answers(data: &mut &[u8]) -> Res<Vec<Vec<Neighbor>>> {
    Ok(take_lists(data, 2)?
        .into_iter()
        .map(|l| {
            l.chunks_exact(2)
                .map(|p| Neighbor { index: p[0], distance: f32::from_bits(p[1]) })
                .collect()
        })
        .collect())
}

impl Handoff {
    pub fn write(&self, path: &Path) -> Res<()> {
        let mut out = Vec::new();
        put_u32s(&mut out, &[self.queries.rows() as u32, self.queries.cols() as u32]);
        put_u32s(
            &mut out,
            &self.queries.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        put_lists(
            &mut out,
            self.truth.iter().map(|t| t.len() as u32).collect(),
            self.truth.iter().flatten().copied().collect(),
        );
        put_answers(&mut out, &self.full);
        put_answers(&mut out, &self.answers);
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn read(path: &Path) -> Res<Handoff> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut data = bytes.as_slice();
        let shape = take_u32s(&mut data)?;
        let &[rows, cols] = shape.as_slice() else {
            return Err("handoff shape is malformed".into());
        };
        let flat: Vec<f32> = take_u32s(&mut data)?.into_iter().map(f32::from_bits).collect();
        if flat.len() != rows as usize * cols as usize {
            return Err("handoff query matrix is malformed".into());
        }
        Ok(Handoff {
            queries: layers::matrix_from(rows as usize, cols as usize, flat),
            truth: take_lists(&mut data, 1)?,
            full: take_answers(&mut data)?,
            answers: take_answers(&mut data)?,
        })
    }
}

fn run_mapped(cfg: &RunCfg) -> Res<Outcome> {
    let w = cfg.workload;
    let mut ops = Ops::default();
    let Built { index, inputs, setup_s: built_s, truth, note } = build(cfg, &mut ops)?;
    let shape = index.shape();
    let full = full_scan_answers(&index, &inputs.queries, &mut ops);
    check_exactness(&index, &inputs.queries, &full, &mut ops);
    let answers = answers_with(&index, &inputs.queries, w.strategy, &mut ops);

    let path = cfg.scratch.join("index.vaq4");
    let t = Instant::now();
    index.save_mapped(&path)?;
    let saved_s = t.elapsed().as_secs_f64();
    drop(index);
    let handoff = cfg.scratch.join("handoff.bin");
    let first_query = inputs.queries.row(0).to_vec();
    Handoff { queries: inputs.queries, truth, full, answers }.write(&handoff)?;
    drop(inputs.train);

    // The child's whole-process peak is the serving footprint: nothing of
    // the build is in its address space.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = std::process::Command::new(exe)
        .args(["serve-mapped", "--workload", w.name])
        .args(["--seed", &cfg.seed.to_string(), "--seconds", &cfg.seconds.to_string()])
        .arg("--scratch")
        .arg(cfg.scratch)
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("serving child: {e}"))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    eprint!("{}", String::from_utf8_lossy(&child.stderr));
    if !child.status.success() {
        return Err(format!("serving child failed: {}", child.status));
    }

    let mut metrics = vec![
        ("reopen_ms", reopen_ms(w, &path, &first_query, cfg.scratch, &mut ops)),
        ("bytes_per_vector", Estimate::single(file_len(&path) / shape.live_rows.max(1) as f64)),
    ];
    let mut info = vec![format!("index: {shape:?}"), note];
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        match fields.as_slice() {
            ["metric", name, value, iqr, samples] => {
                let def = crate::workloads::END_TO_END.iter().find(|d| d.name == *name);
                let (Some(def), Ok(mut value), Ok(iqr), Ok(samples)) =
                    (def, value.parse::<f64>(), iqr.parse(), samples.parse())
                else {
                    return Err(format!("serving child printed a malformed line: {line}"));
                };
                if def.name == "setup_s" {
                    info.push(format!(
                        "set-up: built {built_s:.2} s + save_mapped {saved_s:.2} s + open_mapped and first query in the child {value:.3} s"
                    ));
                    value += built_s + saved_s;
                }
                metrics.push((def.name, Estimate { value, iqr, samples }));
            }
            ["ops", attempted, failed] => {
                ops.attempted += attempted.parse::<u64>().unwrap_or(0);
                ops.failed += failed.parse::<u64>().unwrap_or(1);
            }
            ["note", note] => ops.notes.push(note.to_string()),
            ["info", text] => info.push(text.to_string()),
            _ => {}
        }
    }
    Ok(Outcome { metrics, ops, info })
}

/// The child half of `mapped_tiea`: open the file the parent saved, check
/// its answers against the owned index's, serve, and print what it saw as
/// tab-separated lines for the parent.
pub fn serve_mapped(
    w: &Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    threads: usize,
) -> Res<()> {
    let mut ops = Ops::default();
    let path = scratch.join("index.vaq4");
    let handoff = Handoff::read(&scratch.join("handoff.bin"))?;
    let mut sentinels = Sentinels::new(&scratch.join("sentinel")).map_err(|e| e.to_string())?;

    let t = Instant::now();
    let index = Index::open_mapped(&path)?;
    let first = index.searcher().search(handoff.queries.row(0), K, w.strategy);
    let opened_s = t.elapsed().as_secs_f64();
    ops.answer("first mapped query", first);

    let full = full_scan_answers(&index, &handoff.queries, &mut ops);
    check_same_answers("mapped FullScan vs owned", &full, &handoff.full, &mut ops);
    let answers = answers_with(&index, &handoff.queries, w.strategy, &mut ops);
    check_same_answers("mapped vs owned", &answers, &handoff.answers, &mut ops);
    let recall_at_10 = recall(&index, &handoff.queries, &handoff.truth, K, w.strategy, &mut ops);
    let rounds = serve_rounds(
        &index,
        &in_served_order(&handoff.queries, seed),
        w.strategy,
        seconds,
        threads,
        &mut ops,
        &mut sentinels,
    );
    let peak_rss = stats::peak_rss_mib();

    for (name, e) in [
        ("setup_s", Estimate::single(opened_s)),
        ("query_p50_us", rounds.latency_us(0.5)),
        ("query_p99_us", rounds.latency_us(0.99)),
        ("batch_qps", rounds.batch_qps()),
        ("recall_at_10", Estimate::single(recall_at_10)),
        ("peak_rss_mb", Estimate::single(peak_rss)),
    ] {
        println!("metric\t{name}\t{}\t{}\t{}", e.value, e.iqr, e.samples);
    }
    println!("ops\t{}\t{}", ops.attempted, ops.failed);
    for note in &ops.notes {
        println!("note\t{}", note.replace(['\t', '\n'], " "));
    }
    println!("info\t{}", rounds.info());
    println!("info\t{}", sentinel_info(&sentinels));
    Ok(())
}

// --- mixed: one durable index, written and read in one loop ----------------

/// The deletes of the mixed loop. Which ids die is part of the workload, as
/// its rows are: they come from a fixed sequence, uniform over the
/// acknowledged ids still live, so the index after every batch — and with it
/// recall, bytes and every count — is the same for every seed. `--seed`
/// gives the order of the deletes within a batch.
pub struct Deletes {
    victims: SplitMix,
    order: SplitMix,
    pub deleted: BTreeSet<u32>,
}

impl Deletes {
    pub fn new(seed: u64) -> Deletes {
        Deletes {
            victims: SplitMix(0xde1e7e),
            order: SplitMix(seed ^ 0xde1e7e),
            deleted: BTreeSet::new(),
        }
    }

    /// The next `n` ids to delete, all below `acknowledged` and live.
    pub fn next_batch(&mut self, n: usize, acknowledged: u32) -> Vec<u32> {
        let mut batch = Vec::with_capacity(n);
        while batch.len() < n {
            let id = (self.victims.next() % u64::from(acknowledged)) as u32;
            if self.deleted.insert(id) {
                batch.push(id);
            }
        }
        self.order.shuffle(&mut batch);
        batch
    }
}

fn run_mixed(cfg: &RunCfg) -> Res<Outcome> {
    let w = cfg.workload;
    let mut ops = Ops::default();
    let mut sentinels = Sentinels::new(&cfg.scratch.join("sentinel")).map_err(|e| e.to_string())?;
    let inputs = inputs(w, cfg.seed);
    // Deleted ids leave the ground truth, so it keeps spare candidates.
    let mut truth = ground_truth(&inputs.queries, K + 54);
    truth.absorb(inputs.train.as_slice(), 0, cfg.threads);

    let path = cfg.scratch.join("index.vaq");
    let (mut index, train_s) = train(w, &inputs.train)?;
    let t = Instant::now();
    index.make_durable(&path)?;
    let durable_s = t.elapsed().as_secs_f64();

    let mut deletes = Deletes::new(cfg.seed);
    let mut acknowledged = w.train_rows as u32;
    let mut ingest = Ingest::default();
    let (mut query_us, mut query_wall_us, mut next_query) = (Vec::new(), Vec::new(), 0usize);
    let mut loop_stats = SearchStats::default();
    // One searcher for the whole loop; its first query sizes the table
    // arena, after which the engine must never allocate tables again.
    let mut searcher = index.detached_searcher()?;
    ops.answer("warm-up query", searcher.search(inputs.queries.row(0), K, w.strategy));
    for (first_id, block) in ingest_blocks(w) {
        ingest.timed_add(&mut index, &block, &mut ops);
        acknowledged = first_id + block.rows() as u32;
        for id in deletes.next_batch(w.deletes_per_batch, acknowledged) {
            let t = Instant::now();
            let killed = index.try_delete(id);
            ingest.delete_s += t.elapsed().as_secs_f64();
            ops.check(killed == Ok(true), || format!("delete of live id {id}: {killed:?}"));
        }
        for _ in 0..w.queries_per_batch {
            let q = inputs.served.row(next_query % inputs.served.rows());
            next_query += 1;
            let t = CpuTimer::thread();
            let answer = searcher.search(q, K, w.strategy);
            let spent = t.stop();
            if let Some((nbs, s)) = ops.answer("query", answer) {
                query_us.push(spent.cpu_s * 1e6);
                query_wall_us.push(spent.wall_s * 1e6);
                loop_stats += s;
                let ghost = nbs.iter().find(|nb| deletes.deleted.contains(&nb.index));
                ops.check(ghost.is_none(), || {
                    format!("deleted id {} was returned", ghost.map_or(0, |g| g.index))
                });
            }
        }
        truth.absorb(block.as_slice(), first_id, cfg.threads);
    }
    drop(searcher);
    ops.check(loop_stats.table_reallocations == 0, || {
        format!("{} table reallocations in the loop", loop_stats.table_reallocations)
    });
    let t = Instant::now();
    index.flush();
    let flush_s = t.elapsed().as_secs_f64();
    let shape = index.shape();
    let deleted = deletes.deleted;

    let full = full_scan_answers(&index, &inputs.queries, &mut ops);
    check_exactness(&index, &inputs.queries, &full, &mut ops);
    let recall_at_10 =
        recall(&index, &inputs.queries, &truth.top(K, &deleted), K, w.strategy, &mut ops);
    // Latency and throughput on the state the loop left. The loop itself is
    // one pass over a growing index: it cannot be repeated within a run, and
    // one slow stretch of the box moves its figures by a fifth (README), so
    // they go to the reader, not into a metric. Half of the read workloads'
    // time, the loop having taken the rest.
    let served = serve_rounds(
        &index,
        &inputs.served,
        w.strategy,
        cfg.seconds / 2.0,
        cfg.threads,
        &mut ops,
        &mut sentinels,
    );
    let peak_rss = stats::peak_rss_mib();

    ops.expect("checkpoint", index.checkpoint());
    let bytes = file_len(&path) + file_len(&layers::wal_path(&path));
    drop(index);
    let reopen = reopen_ms(w, &path, inputs.queries.row(0), cfg.scratch, &mut ops);
    let reopened = ops.expect("open_durable", open_saved(w.kind, &path));
    if let Some(reopened) = &reopened {
        let live: Vec<u32> = (0..acknowledged).filter(|id| !deleted.contains(id)).collect();
        ops.check(reopened.live_ids() == live, || {
            "live ids after open_durable differ from the acknowledged set".into()
        });
        check_same_answers(
            "after open_durable",
            &full_scan_answers(reopened, &inputs.queries, &mut ops),
            &full,
            &mut ops,
        );
    }

    Ok(Outcome {
        metrics: vec![
            // The whole write path: model, log, every add and delete.
            ("setup_s", Estimate::single(train_s + durable_s + ingest.seconds() + flush_s)),
            ("query_p50_us", served.latency_us(0.5)),
            ("query_p99_us", served.latency_us(0.99)),
            ("batch_qps", served.batch_qps()),
            ("recall_at_10", Estimate::single(recall_at_10)),
            ("reopen_ms", reopen),
            ("bytes_per_vector", Estimate::single(bytes / shape.live_rows.max(1) as f64)),
            ("peak_rss_mb", Estimate::single(peak_rss)),
        ],
        ops,
        info: vec![
            format!("index after the loop: {shape:?}, {} deleted", deleted.len()),
            format!(
                "set-up: train {train_s:.2} s + make_durable {durable_s:.2} s + adds {:.2} s + deletes {:.2} s ({}) + flush {flush_s:.2} s",
                ingest.seconds() - ingest.delete_s,
                ingest.delete_s,
                ingest.info()
            ),
            format!(
                "the loop's {} queries, beside the writes: p50 {:.0} us, p99 {:.0} us on the CPU; p50 {:.0} us on the wall",
                query_us.len(),
                stats::median(&query_us),
                stats::quantile(&query_us, 0.99),
                stats::median(&query_wall_us)
            ),
            format!("after the loop, {}", served.info()),
            sentinel_info(&sentinels),
        ],
    })
}

/// A fresh directory under `benchmark/out/` for one run's files.
pub fn scratch_dir(tag: &str) -> Res<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}
