//! The traced run: the same workload once more with a harness-side span
//! around every call into a layer, and each layer's public functions called
//! on their own over a segment the harness encoded itself. Its numbers
//! explain an end-to-end change; they never gate one.

use crate::json::Json;
use crate::layers::{
    self, Index, Matrix, Packed, Probe, Res, SearchStats, Shape, Strategy, Ti, Trained,
};
use crate::run::{self, Deletes, Ops, Outcome, RunCfg};
use crate::stats::{self, median, CpuTimer, Estimate, Sentinels};
use crate::trace::Tracer;
use crate::workloads::{Kind, Workload, K};
use std::path::Path;
use std::time::Instant;

/// Queries the single-layer probes run on.
const PROBE_QUERIES: usize = 128;
/// Queries with ground truth in a traced run (recall@1/10/100).
const QUALITY_QUERIES: usize = 256;
const QUALITY_K: usize = 100;

struct Metrics(Vec<(&'static str, Estimate)>);

impl Metrics {
    fn median_of(&mut self, name: &'static str, samples: &[f64]) {
        // An event that did not occur on this workload reads 0 with n = 0.
        let e = if samples.is_empty() {
            Estimate { value: 0.0, iqr: 0.0, samples: 0 }
        } else {
            Estimate::median_of(samples)
        };
        self.0.push((name, e));
    }

    fn exact(&mut self, name: &'static str, value: f64) {
        self.0.push((name, Estimate::single(value)));
    }
}

/// What one `add` did to the index, seen from outside.
struct AddSeen {
    us: f64,
    rows: usize,
    before: Shape,
    after: Shape,
}

impl AddSeen {
    /// The write buffer did not simply grow by the rows added. (The
    /// monolith has no buffer: its shape never changes.)
    fn sealed(&self) -> bool {
        self.before != self.after && self.after.buffer_rows < self.before.buffer_rows + self.rows
    }

    /// Segments merged away across the call.
    fn merges(&self) -> usize {
        (self.before.segments + usize::from(self.sealed())).saturating_sub(self.after.segments)
    }
}

fn traced_add(
    tracer: &mut Tracer,
    index: &mut Index,
    block: &Matrix,
    ops: &mut Ops,
) -> Option<AddSeen> {
    let before = index.shape();
    let request = tracer.request();
    let span = tracer.begin("segment.add", request, None, false);
    let added = index.add(block);
    let us = tracer.end(span);
    ops.expect("add", added)?;
    Some(AddSeen { us, rows: block.rows(), before, after: index.shape() })
}

/// The rows of the probe segment, encoded by the harness as they stream by.
struct ProbeCodes {
    want_rows: usize,
    codes: Vec<u16>,
    rows: usize,
    encode_krows_s: Vec<f64>,
}

impl ProbeCodes {
    fn absorb(&mut self, tracer: &mut Tracer, trained: &Trained, block: &Matrix) -> Res<()> {
        if self.rows >= self.want_rows {
            return Ok(());
        }
        let request = tracer.request();
        let span = tracer.begin("encoder.encode", request, None, false);
        let codes = trained.parts.encode(block);
        let us = tracer.end(span);
        self.codes.extend_from_slice(&codes?);
        self.rows += block.rows();
        self.encode_krows_s.push(block.rows() as f64 / 1e3 / (us / 1e6));
        Ok(())
    }
}

fn median_latency_us(
    index: &Index,
    queries: &Matrix,
    rows: usize,
    strategy: Strategy,
    ops: &mut Ops,
) -> f64 {
    let mut searcher = index.searcher();
    let mut us = Vec::with_capacity(rows);
    for qi in 0..rows {
        let t = Instant::now();
        let answer = searcher.search(queries.row(qi), K, strategy);
        let dt = t.elapsed().as_secs_f64() * 1e6;
        if ops.answer("query", answer).is_some() {
            us.push(dt);
        }
    }
    median(&us)
}

pub fn run_traced(cfg: &RunCfg) -> Res<Outcome> {
    let w = cfg.workload;
    let mut ops = Ops::default();
    let mut m = Metrics(Vec::new());
    let mut tracer = Tracer::new();
    let mut sentinels = Sentinels::new(&cfg.scratch.join("sentinel")).map_err(|e| e.to_string())?;
    let mut info = Vec::new();
    layers::obs_set_enabled(false);

    // --- train, stage by stage -------------------------------------------
    let inputs = run::inputs(w, cfg.seed);
    let quality_rows = QUALITY_QUERIES.min(inputs.queries.rows());
    let dim = inputs.queries.cols();
    let mut truth = crate::truth::GroundTruth::new(
        &inputs.queries.as_slice()[..quality_rows * dim],
        dim,
        QUALITY_K + 54,
    );
    truth.absorb(inputs.train.as_slice(), 0, cfg.threads);
    let trained = layers::train_staged(&inputs.train, &w.model)?;
    let request = tracer.request();
    // One span per stage, and one metric: the stage's seconds.
    let stage_metrics = [
        "pipeline.varpca_s",
        "pipeline.subspace_plan_s",
        "pipeline.bit_plan_s",
        "pipeline.dictionaries_s",
        "pipeline.ti_build_s",
    ];
    for (&(stage, start, end), metric) in trained.stages.iter().zip(stage_metrics) {
        tracer.record(stage, request, start, end);
        m.exact(metric, end.duration_since(start).as_secs_f64());
    }
    let head = 10_000.min(inputs.train.rows());
    let head_rows = layers::matrix_from(head, dim, inputs.train.as_slice()[..head * dim].to_vec());
    m.exact("quality.quant_mse", trained.quant_mse(&head_rows)?);
    sentinels.sample();

    // --- the workload's own build, an `add` at a time --------------------
    let mono = w.kind == Kind::Mono;
    let mut index = trained.index((!mono).then_some(&w.policy));
    let mut probe_codes = ProbeCodes {
        // The monolith is one segment; elsewhere the probe is one seal's worth.
        want_rows: if mono {
            w.rows()
        } else {
            w.policy.seal_threshold.min(w.rows() - w.train_rows)
        },
        codes: Vec::new(),
        rows: 0,
        encode_krows_s: Vec::new(),
    };
    if mono {
        probe_codes.absorb(&mut tracer, &trained, &inputs.train)?;
    }
    let durable = cfg.scratch.join("index.vaq");
    if w.kind == Kind::Mixed {
        index.make_durable(&durable)?;
    }
    let mut adds = Vec::new();
    let mut deletes = Deletes::new(cfg.seed);
    let mut next_query = 0usize;
    let mut loop_searcher =
        if w.kind == Kind::Mixed { Some(index.detached_searcher()?) } else { None };
    for (first_id, block) in run::ingest_blocks(w) {
        adds.extend(traced_add(&mut tracer, &mut index, &block, &mut ops));
        let acknowledged = first_id + block.rows() as u32;
        for id in deletes.next_batch(w.deletes_per_batch, acknowledged) {
            let request = tracer.request();
            let killed =
                tracer.time("segment.delete", request, None, false, || index.try_delete(id));
            ops.check(killed == Ok(true), || format!("delete of live id {id}: {killed:?}"));
        }
        if let Some(searcher) = loop_searcher.as_mut() {
            for _ in 0..w.queries_per_batch {
                let q = inputs.served.row(next_query % inputs.served.rows());
                next_query += 1;
                let request = tracer.request();
                let answer = tracer.time("query.inloop", request, None, false, || {
                    searcher.search(q, K, w.strategy)
                });
                ops.answer("query", answer);
            }
        }
        probe_codes.absorb(&mut tracer, &trained, &block)?;
        truth.absorb(block.as_slice(), first_id, cfg.threads);
    }
    drop(loop_searcher);
    index.flush();
    let shape = index.shape();
    let deleted = deletes.deleted;
    info.push(format!("index: {shape:?}, {} deleted", deleted.len()));

    let plain: Vec<f64> =
        adds.iter().filter(|a| !a.sealed()).map(|a| a.us / a.rows as f64 * 1e3).collect();
    let seal_only: Vec<f64> =
        adds.iter().filter(|a| a.sealed() && a.merges() == 0).map(|a| a.us / 1e3).collect();
    let merging: Vec<f64> = adds.iter().filter(|a| a.merges() > 0).map(|a| a.us / 1e3).collect();
    // The whole loop, as `setup_s` of the end-to-end run pays for it.
    let ingest = run::Ingest {
        rows: adds.iter().map(|a| a.rows).sum(),
        add_ms: adds.iter().map(|a| a.us / 1e3).collect(),
        delete_s: tracer.durations_us("segment.delete").iter().sum::<f64>() / 1e6,
    };
    m.0.push(("ingest.krows_s", ingest.krows_s()));
    m.0.push(("ingest.batch_p95_ms", ingest.batch_p95_ms()));
    m.median_of("segment.add_us_per_krow", &plain);
    m.median_of("segment.seal_ms", &seal_only);
    m.median_of("segment.compact_ms", &merging);
    m.exact("segment.seals", adds.iter().filter(|a| a.sealed()).count() as f64);
    m.exact("segment.compactions", adds.iter().map(AddSeen::merges).sum::<usize>() as f64);
    m.exact("segment.final_segments", shape.segments as f64);
    m.exact("segment.tombstones", deleted.len() as f64);
    m.median_of("encoder.encode_krows_s", &probe_codes.encode_krows_s);
    sentinels.sample();

    // --- the probe segment: pack, append, TI build ------------------------
    let (codes, n) = (&probe_codes.codes, probe_codes.rows);
    let width = trained.parts.subspaces();
    let request = tracer.request();
    let span = tracer.begin("linalg.qtables.pack", request, None, false);
    let packed = trained.parts.pack(codes, n);
    let pack_us = tracer.end(span);
    m.exact("linalg.qtables.pack_krows_s", n as f64 / 1e3 / (pack_us / 1e6));
    if !packed.is_active() {
        return Err("the probe segment did not pack: no subspace fits in 8 bits".into());
    }
    let half = n / 2;
    let mut grown = trained.parts.pack(&codes[..half * width], half);
    let mut append_krows_s = Vec::new();
    for chunk in codes[half * width..].chunks(w.batch_rows * width) {
        let rows = chunk.len() / width;
        let request = tracer.request();
        let span = tracer.begin("linalg.qtables.append", request, None, false);
        trained.parts.append(&mut grown, chunk, rows);
        append_krows_s.push(rows as f64 / 1e3 / (tracer.end(span) / 1e6));
    }
    drop(grown);
    m.median_of("linalg.qtables.append_krows_s", &append_krows_s);
    let request = tracer.request();
    let span = tracer.begin("ti.build", request, None, false);
    let ti = trained.parts.build_ti(codes, n, w.policy.ti_clusters);
    m.exact("ti.build_s", tracer.end(span) / 1e6);
    let ti = ti?;
    info.push(format!("probe segment: {n} rows, {} TI clusters", w.policy.ti_clusters.min(n)));

    layer_probes(&mut tracer, &mut m, &trained, codes, n, &packed, &ti, &inputs.queries, w);
    sentinels.sample();

    // --- serve: traced pass, untraced pass, facade, obs -------------------
    let mapped_path = cfg.scratch.join("index.vaq4");
    let serving = if w.kind == Kind::Mapped {
        index.save_mapped(&mapped_path)?;
        drop(index);
        Index::open_mapped(&mapped_path)?
    } else {
        index
    };
    let full = run::full_scan_answers(&serving, &inputs.queries, &mut ops);
    run::check_exactness(&serving, &inputs.queries, &full, &mut ops);

    // Traced and untraced in alternating chunks of 64 queries, both over
    // every query: a slow stretch of the box then hits both alike, and the
    // ratio of their medians is the overhead of tracing, not the drift.
    let nq = inputs.queries.rows();
    let mut searcher = serving.searcher();
    ops.answer("warm-up query", searcher.search(inputs.queries.row(0), K, w.strategy));
    let mut stats = SearchStats::default();
    let (mut traced_us, mut untraced_us) = (Vec::with_capacity(nq), Vec::with_capacity(nq));
    let mut untraced_cpu_s = 0.0;
    for chunk in (0..nq).step_by(64).map(|at| at..(at + 64).min(nq)) {
        for qi in chunk.clone() {
            let request = tracer.request();
            let span = tracer.begin("query", request, None, false);
            let answer = searcher.search(inputs.queries.row(qi), K, w.strategy);
            let us = tracer.end(span);
            if let Some((_, s)) = ops.answer("query", answer) {
                traced_us.push(us);
                stats += s;
            }
        }
        let cpu = CpuTimer::process();
        for qi in chunk {
            let t = Instant::now();
            let answer = searcher.search(inputs.queries.row(qi), K, w.strategy);
            let us = t.elapsed().as_secs_f64() * 1e6;
            if ops.answer("query", answer).is_some() {
                untraced_us.push(us);
            }
        }
        untraced_cpu_s += cpu.stop().cpu_s;
    }
    drop(searcher);
    let traced_p50 = median(&traced_us);
    let untraced_p50 = median(&untraced_us);
    m.exact("trace.overhead_ratio", traced_p50 / untraced_p50);
    m.exact("proc.cpu_us_per_query", untraced_cpu_s * 1e6 / untraced_us.len().max(1) as f64);
    let searched = shape.segments + usize::from(shape.buffer_rows > 0);
    m.exact("segment.search_us_per_segment", traced_p50 / searched.max(1) as f64);

    let queries_f = traced_us.len().max(1) as f64;
    let share =
        |part: usize, whole: usize| if whole == 0 { 0.0 } else { part as f64 / whole as f64 };
    m.exact(
        "ti.skip_ratio",
        share(stats.vectors_skipped, stats.vectors_visited + stats.vectors_skipped),
    );
    m.exact("engine.lookups_per_query", stats.lookups as f64 / queries_f);
    m.exact(
        "engine.ea_skip_ratio",
        share(stats.lookups_skipped, stats.lookups + stats.lookups_skipped),
    );
    m.exact("engine.quantized_prune_ratio", share(stats.quantized_pruned, stats.vectors_visited));
    m.exact(
        "engine.rerank_per_query",
        (stats.vectors_visited - stats.quantized_pruned) as f64 / queries_f,
    );
    m.exact("engine.table_reallocations", stats.table_reallocations as f64);
    ops.check(stats.table_reallocations == 0, || {
        format!("{} table reallocations in steady state", stats.table_reallocations)
    });

    // The facade builds a fresh engine and snapshot per call.
    let (mut oneshot_us, mut held_us) = (Vec::new(), Vec::new());
    let mut searcher = serving.searcher();
    for qi in 0..PROBE_QUERIES.min(nq) {
        let q = inputs.queries.row(qi);
        let t = Instant::now();
        let a = serving.search_oneshot(q, K, w.strategy);
        oneshot_us.push(t.elapsed().as_secs_f64() * 1e6);
        ops.answer("one-shot query", a);
        let t = Instant::now();
        let a = searcher.search(q, K, w.strategy);
        held_us.push(t.elapsed().as_secs_f64() * 1e6);
        ops.answer("query", a);
    }
    drop(searcher);
    m.exact("segment.oneshot_extra_us", median(&oneshot_us) - median(&held_us));

    // obs on against obs off, alternating so a slow stretch hits both.
    let obs_rows = nq.min(256);
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        off.push(median_latency_us(&serving, &inputs.queries, obs_rows, w.strategy, &mut ops));
        layers::obs_reset();
        layers::obs_set_enabled(true);
        on.push(median_latency_us(&serving, &inputs.queries, obs_rows, w.strategy, &mut ops));
        layers::obs_set_enabled(false);
    }
    m.exact("obs.on_ratio", median(&on) / median(&off));
    let obs = layers::obs_snapshot();
    layers::obs_reset();
    sentinels.sample();

    // --- quality against exact ground truth -------------------------------
    let truth = truth.top(QUALITY_K, &deleted);
    let mut hits = [0usize; 3];
    let mut searcher = serving.searcher();
    for (qi, want) in truth.iter().enumerate() {
        let got = searcher.search(inputs.queries.row(qi), QUALITY_K, w.strategy);
        let Some((got, _)) = ops.expect("quality query", got) else { continue };
        for (slot, k) in hits.iter_mut().zip([1usize, 10, 100]) {
            *slot += got
                .iter()
                .take(k)
                .filter(|nb| want[..k.min(want.len())].contains(&nb.index))
                .count();
        }
    }
    drop(searcher);
    let recall = |slot: usize, k: usize| hits[slot] as f64 / (truth.len() * k).max(1) as f64;
    m.exact("quality.recall_at_1", recall(0, 1));
    m.exact("quality.recall_at_100", recall(2, 100));
    info.push(format!("recall@10 on the {} quality queries: {:.4}", truth.len(), recall(1, 10)));

    // --- persist, mmap, durability, ceilings ------------------------------
    persist_probes(
        &mut tracer,
        &mut m,
        &serving,
        mono,
        cfg.scratch,
        &inputs.queries,
        w.strategy,
        &mut ops,
    )?;
    drop(serving);
    durability_probes(&mut tracer, &mut m, &trained, &inputs.train, w, cfg.scratch, &mut ops)?;
    m.median_of("segment.delete_us", &tracer.durations_us("segment.delete"));
    let buffer = vec![0x5au8; 16 << 20];
    let crc: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(layers::crc32c(&buffer));
            buffer.len() as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    m.median_of("crc.gb_s", &crc);
    sentinels.sample();
    m.median_of("ceiling.stream_read_gb_s", &sentinels.stream_read_gb_s);
    m.median_of("ceiling.compute_ms", &sentinels.compute_ms);
    m.median_of("ceiling.fsync_us", &sentinels.fsync_us);

    // --- the trace file ----------------------------------------------------
    let own = tracer.self_times_us();
    let own_median = |name: &str| own.get(name).map_or(0.0, |v| median(v));
    let parts = [
        "encoder.fill_tables",
        "linalg.qtables.quantize",
        "linalg.qtables.qsums",
        "engine.quantized",
    ];
    let sum: f64 = parts.iter().map(|p| own_median(p)).sum();
    if w.strategy == Strategy::Quantized && mono {
        info.push(format!(
            "decomposition: fill_tables {:.1} + quantize {:.1} + qsums {:.1} + prune_rerank {:.1} = {sum:.1} us, {:.1} % of the traced query_p50 {traced_p50:.1} us",
            own_median(parts[0]), own_median(parts[1]), own_median(parts[2]), own_median(parts[3]), 100.0 * sum / traced_p50
        ));
    }
    let file =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!("trace-{}.json", w.name));
    let doc = Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("traced_query_p50_us", Json::Num(traced_p50)),
        ("untraced_query_p50_us", Json::Num(untraced_p50)),
        (
            "self_time_us_median",
            Json::obj(own.iter().map(|(name, v)| (*name, Json::Num(median(v))))),
        ),
        ("span_count", Json::obj(own.iter().map(|(name, v)| (*name, Json::Num(v.len() as f64))))),
        ("per_layer", Json::obj(m.0.iter().map(|(name, e)| (*name, Json::Num(e.value))))),
        (
            "obs_counters",
            Json::obj(obs.counters.into_iter().map(|(name, v)| (name, Json::Num(v as f64)))),
        ),
        (
            "obs_spans",
            Json::obj(obs.spans.into_iter().map(|(name, count, total_ns)| {
                (
                    name,
                    Json::obj([
                        ("count", Json::Num(count as f64)),
                        ("total_ns", Json::Num(total_ns as f64)),
                    ]),
                )
            })),
        ),
        ("spans", tracer.spans_json()),
    ]);
    std::fs::write(&file, doc.compact()).map_err(|e| format!("{}: {e}", file.display()))?;
    info.push(format!("trace: {} spans in {}", tracer.spans.len(), file.display()));

    Ok(Outcome { metrics: m.0, ops, info })
}

/// Each layer's public functions on their own, over the probe segment: one
/// request per probe query, its spans sharing the request id.
#[allow(clippy::too_many_arguments)]
fn layer_probes(
    tracer: &mut Tracer,
    m: &mut Metrics,
    trained: &Trained,
    codes: &[u16],
    n: usize,
    packed: &Packed,
    ti: &Ti,
    queries: &Matrix,
    w: &Workload,
) {
    let probe = Probe { parts: &trained.parts, codes, n, packed, ti };
    let mut st = probe.state();
    let tiers = probe.supported_tiers();
    let mut tier_us: Vec<Vec<f64>> = vec![Vec::new(); tiers.len()];
    let visit = match w.strategy {
        Strategy::TiEa(frac) => frac,
        _ => 0.25,
    };
    for qi in 0..PROBE_QUERIES.min(queries.rows()) {
        let request = tracer.request();
        let Ok(projected) = tracer
            .time("pca.project", request, None, false, || trained.parts.project(queries.row(qi)))
        else {
            continue;
        };
        tracer.time("engine.prepare", request, None, false, || probe.prepare(&mut st, &projected));

        // The quantized scan whole, then its parts again on their own: the
        // harness cannot time them in place, and what the whole takes beyond
        // them is the prune and rerank loop.
        let whole = tracer.begin("engine.quantized", request, None, false);
        std::hint::black_box(probe.search(&mut st, &projected, K, Strategy::Quantized));
        tracer.end(whole);
        tracer.time("encoder.fill_tables", request, Some(whole), true, || {
            probe.fill_tables(&mut st, &projected)
        });
        tracer.time("linalg.qtables.quantize", request, Some(whole), true, || {
            probe.quantize(&mut st)
        });
        tracer.time("linalg.qtables.qsums", request, Some(whole), true, || probe.qsums(&mut st));
        tracer.time("linalg.qtables.qsums_multi", request, None, false, || {
            probe.qsums_multi(&mut st)
        });
        if qi % 4 == 0 {
            for (tier, us) in tiers.iter().zip(tier_us.iter_mut()) {
                let t = Instant::now();
                probe.qsums_tier(&mut st, tier);
                us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }

        let whole = tracer.begin("engine.tiea", request, None, false);
        std::hint::black_box(probe.search(&mut st, &projected, K, Strategy::TiEa(visit)));
        tracer.end(whole);
        tracer.time("encoder.fill_tables", request, Some(whole), true, || {
            probe.fill_tables(&mut st, &projected)
        });
        tracer.time("ti.order", request, Some(whole), true, || probe.ti_order(&projected));

        for (name, strategy) in
            [("engine.full", Strategy::FullScan), ("engine.ea", Strategy::EarlyAbandon)]
        {
            tracer.time(name, request, None, false, || {
                std::hint::black_box(probe.search(&mut st, &projected, K, strategy))
            });
        }
    }
    for (metric, span) in [
        ("encoder.fill_tables_us", "encoder.fill_tables"),
        ("linalg.qtables.quantize_us", "linalg.qtables.quantize"),
        ("ti.order_us", "ti.order"),
        ("engine.prepare_us", "engine.prepare"),
        ("engine.full_us", "engine.full"),
        ("engine.ea_us", "engine.ea"),
        ("engine.tiea_us", "engine.tiea"),
        ("engine.quantized_us", "engine.quantized"),
    ] {
        m.median_of(metric, &tracer.durations_us(span));
    }
    let own = tracer.self_times_us();
    m.median_of(
        "engine.prune_rerank_us",
        own.get("engine.quantized").map_or(&[][..], Vec::as_slice),
    );
    let mvec_s = |us: f64, vectors: usize| vectors as f64 / us;
    let qsums: Vec<f64> =
        tracer.durations_us("linalg.qtables.qsums").iter().map(|&us| mvec_s(us, n)).collect();
    m.median_of("linalg.qtables.qsums_mvec_s", &qsums);
    let multi: Vec<f64> = tracer
        .durations_us("linalg.qtables.qsums_multi")
        .iter()
        .map(|&us| mvec_s(us, n * layers::TILE))
        .collect();
    m.median_of("linalg.qtables.qsums_multi_mvec_s", &multi);
    // 1.0 when the dispatcher's pick is the fastest tier this machine has.
    let active = layers::active_kernel_name();
    let tier_median: Vec<f64> = tier_us.iter().map(|us| median(us)).collect();
    let best = tier_median.iter().copied().fold(f64::INFINITY, f64::min);
    let picked = tiers.iter().position(|t| *t == active).map_or(best, |i| tier_median[i]);
    m.exact("linalg.qtables.tier_pick_ratio", best / picked);
}

/// The named `persist` entry points on the index the workload served from,
/// and the page faults of a query pass over its mapped copy.
#[allow(clippy::too_many_arguments)]
fn persist_probes(
    tracer: &mut Tracer,
    m: &mut Metrics,
    serving: &Index,
    mono: bool,
    scratch: &Path,
    queries: &Matrix,
    strategy: Strategy,
    ops: &mut Ops,
) -> Res<()> {
    let owned = scratch.join("probe.vaq");
    let mapped = scratch.join("probe.vaq4");
    let mut first_query_ms = Vec::new();
    let mut faults = (0.0, 0.0);
    for rep in 0..3 {
        let request = tracer.request();
        let saved = tracer.time("persist.save", request, None, false, || serving.save(&owned));
        ops.expect("save", saved);
        let loaded = tracer.time("persist.load", request, None, false, || {
            if mono {
                Index::load_mono(&owned)
            } else {
                Index::load_segmented(&owned)
            }
        });
        drop(ops.expect("load", loaded));
        let saved = tracer
            .time("persist.save_mapped", request, None, false, || serving.save_mapped(&mapped));
        ops.expect("save_mapped", saved);
        let opened = tracer
            .time("persist.open_mapped", request, None, false, || Index::open_mapped(&mapped));
        let Some(opened) = ops.expect("open_mapped", opened) else { continue };
        // Lazy CRC and the first faults land on the first query.
        let mut searcher = opened.searcher();
        let t = Instant::now();
        let first = searcher.search(queries.row(0), K, strategy);
        first_query_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ops.answer("first mapped query", first);
        if rep == 0 {
            let rows = queries.rows().min(256);
            let (minor, major) = stats::page_faults();
            for qi in 0..rows {
                let a = searcher.search(queries.row(qi), K, strategy);
                ops.answer("mapped query", a);
            }
            let (minor_after, major_after) = stats::page_faults();
            faults = ((minor_after - minor) / rows as f64, (major_after - major) / rows as f64);
        }
    }
    for (metric, span) in [
        ("persist.save_ms", "persist.save"),
        ("persist.load_ms", "persist.load"),
        ("persist.save_mapped_ms", "persist.save_mapped"),
        ("persist.open_mapped_ms", "persist.open_mapped"),
    ] {
        let ms: Vec<f64> = tracer.durations_us(span).iter().map(|us| us / 1e3).collect();
        m.median_of(metric, &ms);
    }
    m.median_of("persist.first_query_ms", &first_query_ms);
    m.exact("mmap.minor_faults_per_query", faults.0);
    m.exact("mmap.major_faults_per_query", faults.1);
    Ok(())
}

/// What the write-ahead log costs: the same rows into a durable index and
/// into a non-durable twin of the same model, then a replay and a checkpoint.
fn durability_probes(
    tracer: &mut Tracer,
    m: &mut Metrics,
    trained: &Trained,
    train: &Matrix,
    w: &Workload,
    scratch: &Path,
    ops: &mut Ops,
) -> Res<()> {
    const BATCHES: usize = 24;
    const DELETES_PER_BATCH: u32 = 4;
    let path = scratch.join("wal-probe.vaq");
    let mut durable = trained.index(Some(&w.policy));
    let mut twin = trained.index(Some(&w.policy));
    durable.make_durable(&path)?;
    let dim = train.cols();
    let rows = w.batch_rows.min(train.rows());
    let (mut durable_us, mut twin_us) = (Vec::new(), Vec::new());
    let mut next_id = train.rows() as u32;
    for b in 0..BATCHES {
        // Any rows will do: the log stores codes, whatever they encode.
        let at = (b * rows) % (train.rows() - rows + 1);
        let block =
            layers::matrix_from(rows, dim, train.as_slice()[at * dim..(at + rows) * dim].to_vec());
        let request = tracer.request();
        let span = tracer.begin("wal.durable_add", request, None, false);
        let added = durable.add(&block);
        durable_us.push(tracer.end(span));
        ops.expect("durable add", added);
        let span = tracer.begin("wal.twin_add", request, None, false);
        let added = twin.add(&block);
        twin_us.push(tracer.end(span));
        ops.expect("twin add", added);
        for d in 0..DELETES_PER_BATCH {
            let id = next_id + d;
            let killed =
                tracer.time("segment.delete", request, None, false, || durable.try_delete(id));
            ops.check(killed == Ok(true), || format!("delete of live id {id}: {killed:?}"));
        }
        next_id += rows as u32;
    }
    let wal_bytes = std::fs::metadata(layers::wal_path(&path)).map(|f| f.len()).unwrap_or(0);
    m.exact("wal.add_overhead_us", median(&durable_us) - median(&twin_us));
    m.exact("wal.bytes_per_row", wal_bytes as f64 / (BATCHES * rows) as f64);
    let live = durable.live_ids();
    drop(durable);
    drop(twin);
    let request = tracer.request();
    let reopened = tracer.time("wal.replay", request, None, false, || Index::open_durable(&path));
    let reopened = ops
        .expect("open_durable", reopened)
        .ok_or("the durability probe could not reopen its index")?;
    ops.check(reopened.live_ids() == live, || "live ids changed across open_durable".into());
    let done = tracer.time("wal.checkpoint", request, None, false, || reopened.checkpoint());
    ops.expect("checkpoint", done);
    m.exact("wal.replay_ms", median(&tracer.durations_us("wal.replay")) / 1e3);
    m.exact("wal.checkpoint_ms", median(&tracer.durations_us("wal.checkpoint")) / 1e3);
    Ok(())
}
