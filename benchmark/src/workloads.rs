//! The four workloads and the metric schema. `BENCHMARK.json` repeats the
//! names, units and directions below; `tests/smoke.rs` holds the two equal.

use crate::layers::{Data, ModelCfg, Policy, Strategy};

/// Neighbours asked for by every query.
pub const K: usize = 10;
/// Queries whose recall is checked against exact ground truth.
pub const RECALL_QUERIES: usize = 256;
/// Queries whose answers are compared across strategies and restarts.
pub const CHECK_QUERIES: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's static index: one monolithic `Vaq`.
    Mono,
    /// A `SegmentedVaq` filled once, then read.
    Segmented,
    /// Built and `save_mapped` by the parent, served by a fresh child
    /// process that `open_mapped`s it.
    Mapped,
    /// One durable index written, deleted from and read in one loop.
    Mixed,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub data: Data,
    /// Rows the model is trained on; they are the index's first rows.
    pub train_rows: usize,
    /// Rows per `add`.
    pub batch_rows: usize,
    /// `add` calls after training.
    pub batches: usize,
    pub model: ModelCfg,
    pub policy: Policy,
    pub strategy: Strategy,
    /// Distinct queries per latency pass.
    pub queries: usize,
    /// `Kind::Mixed` only: deletes and queries after every `add`.
    pub deletes_per_batch: usize,
    pub queries_per_batch: usize,
    /// Seconds the serving rounds measure when `--seconds` is absent.
    pub seconds: f64,
}

impl Workload {
    pub fn rows(&self) -> usize {
        self.train_rows + self.batch_rows * self.batches
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the bounds in `BENCHMARK.json` were calibrated on.
    Full,
    /// About a twentieth of the rows, for the determinism and schema tests.
    Tiny,
}

/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 8.0;

const SIFT_MODEL: ModelCfg =
    ModelCfg { budget_bits: 128, subspaces: 32, max_bits: 8, ti_clusters: 256 };
const DEEP_MODEL: ModelCfg =
    ModelCfg { budget_bits: 64, subspaces: 16, max_bits: 8, ti_clusters: 512 };

/// Full-size workloads. Row counts are the training rows plus a whole
/// number of seal thresholds — three on `ram_*` (217 088 rows, 4 segments),
/// four on `mapped_tiea` (544 768 rows, 5 segments) — so every read workload
/// ends with an empty write buffer (`flush` does not seal a partial one).
const FULL: [Workload; 4] = [
    Workload {
        name: "ram_scan",
        why: "static monolith, mixed 2..8-bit plan, Quantized: linalg::qtables and engine prune/rerank do the work, ti and segment none",
        kind: Kind::Mono,
        data: Data::SiftLike,
        train_rows: 20_480,
        batch_rows: 512,
        batches: 384,
        // No TI partition: `Vaq::add` would insert every row into it, and
        // the Quantized scan never reads it.
        model: ModelCfg { ti_clusters: 0, ..SIFT_MODEL },
        policy: Policy { seal_threshold: 65_536, compact_min_segments: 16, ti_clusters: 256 },
        strategy: Strategy::Quantized,
        queries: 1024,
        deletes_per_batch: 0,
        queries_per_batch: 0,
        seconds: RUN_SECONDS,
    },
    Workload {
        name: "ram_tiea",
        why: "same data and model in 4 sealed segments, TiEa 0.25: ti ordering, member gather, scalar EA and segment fan-out do the work, the packed kernel none",
        kind: Kind::Segmented,
        data: Data::SiftLike,
        train_rows: 20_480,
        batch_rows: 512,
        batches: 384,
        model: SIFT_MODEL,
        policy: Policy { seal_threshold: 65_536, compact_min_segments: 16, ti_clusters: 256 },
        strategy: Strategy::TiEa(0.25),
        queries: 1024,
        deletes_per_batch: 0,
        queries_per_batch: 0,
        seconds: RUN_SECONDS,
    },
    Workload {
        name: "mapped_tiea",
        why: "TiEa 0.25 over an mmap-backed file in a fresh process: the ram_tiea algorithm through linalg::mmap and persist, so a RAM gain that costs mapped storage shows",
        kind: Kind::Mapped,
        data: Data::DeepLike,
        train_rows: 20_480,
        batch_rows: 512,
        batches: 1024,
        model: DEEP_MODEL,
        policy: Policy { seal_threshold: 131_072, compact_min_segments: 16, ti_clusters: 512 },
        strategy: Strategy::TiEa(0.25),
        queries: 1024,
        deletes_per_batch: 0,
        queries_per_batch: 0,
        seconds: RUN_SECONDS,
    },
    Workload {
        name: "ingest_mixed",
        why: "durable adds, deletes and Quantized reads interleaved by one client: buffer scan, small segments, tombstones, seal, compaction and WAL, so a read gain bought with ingest cost shows",
        kind: Kind::Mixed,
        data: Data::DeepLike,
        train_rows: 20_480,
        batch_rows: 1024,
        // 480 batches fill 60 write buffers exactly; four more leave the last
        // one half full, so the rounds served after the loop scan a buffer,
        // as the loop's own queries do.
        batches: 484,
        model: ModelCfg { ti_clusters: 64, ..DEEP_MODEL },
        policy: Policy { seal_threshold: 8192, compact_min_segments: 4, ti_clusters: 64 },
        strategy: Strategy::Quantized,
        queries: 1024,
        deletes_per_batch: 32,
        queries_per_batch: 8,
        seconds: RUN_SECONDS,
    },
];

pub fn workloads(scale: Scale) -> Vec<Workload> {
    FULL.iter()
        .map(|w| match scale {
            Scale::Full => *w,
            Scale::Tiny => Workload {
                train_rows: 4096,
                batches: w.batches / 16,
                model: ModelCfg { ti_clusters: w.model.ti_clusters / 8, ..w.model },
                policy: Policy {
                    seal_threshold: w.policy.seal_threshold / 16,
                    ti_clusters: w.policy.ti_clusters / 8,
                    ..w.policy
                },
                queries: 256,
                seconds: 1.0,
                ..*w
            },
        })
        .collect()
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// True when the value must repeat exactly for one seed.
    pub exact: bool,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, exact: bool) -> MetricDef {
    MetricDef { name, unit, better, exact }
}

pub const END_TO_END: [MetricDef; 8] = [
    m("setup_s", "s", "lower", false),
    m("query_p50_us", "us", "lower", false),
    m("query_p99_us", "us", "lower", false),
    m("batch_qps", "1/s", "higher", false),
    m("recall_at_10", "ratio", "higher", true),
    m("reopen_ms", "ms", "lower", false),
    m("bytes_per_vector", "B", "lower", true),
    m("peak_rss_mb", "MiB", "lower", false),
];

pub const PER_LAYER: [MetricDef; 60] = [
    m("pipeline.varpca_s", "s", "lower", false),
    m("pipeline.subspace_plan_s", "s", "lower", false),
    m("pipeline.bit_plan_s", "s", "lower", false),
    m("pipeline.dictionaries_s", "s", "lower", false),
    m("pipeline.ti_build_s", "s", "lower", false),
    m("encoder.encode_krows_s", "krows/s", "higher", false),
    m("encoder.fill_tables_us", "us", "lower", false),
    m("linalg.qtables.quantize_us", "us", "lower", false),
    m("linalg.qtables.qsums_mvec_s", "Mvec/s", "higher", false),
    m("linalg.qtables.qsums_multi_mvec_s", "Mvec/s", "higher", false),
    m("linalg.qtables.tier_pick_ratio", "ratio", "higher", false),
    m("linalg.qtables.pack_krows_s", "krows/s", "higher", false),
    m("linalg.qtables.append_krows_s", "krows/s", "higher", false),
    m("ti.build_s", "s", "lower", false),
    m("ti.order_us", "us", "lower", false),
    m("ti.skip_ratio", "ratio", "higher", true),
    m("engine.prepare_us", "us", "lower", false),
    m("engine.full_us", "us", "lower", false),
    m("engine.ea_us", "us", "lower", false),
    m("engine.tiea_us", "us", "lower", false),
    m("engine.quantized_us", "us", "lower", false),
    m("engine.prune_rerank_us", "us", "lower", false),
    m("engine.lookups_per_query", "count", "lower", true),
    m("engine.ea_skip_ratio", "ratio", "higher", true),
    m("engine.quantized_prune_ratio", "ratio", "higher", true),
    m("engine.rerank_per_query", "count", "lower", true),
    m("engine.table_reallocations", "count", "lower", true),
    // End-to-end in the issue's design. One pass over a growing index cannot
    // be repeated within a run, and ten runs of unchanged code spread them by
    // 4 to 28 % on a quiet box, over what a bound may be; `setup_s` holds
    // the whole loop's time end to end (README).
    m("ingest.krows_s", "krows/s", "higher", false),
    m("ingest.batch_p95_ms", "ms", "lower", false),
    m("segment.add_us_per_krow", "us/krow", "lower", false),
    m("segment.seal_ms", "ms", "lower", false),
    m("segment.compact_ms", "ms", "lower", false),
    m("segment.seals", "count", "lower", true),
    m("segment.compactions", "count", "lower", true),
    m("segment.final_segments", "count", "lower", true),
    m("segment.tombstones", "count", "lower", true),
    m("segment.search_us_per_segment", "us", "lower", false),
    m("segment.oneshot_extra_us", "us", "lower", false),
    m("segment.delete_us", "us", "lower", false),
    m("wal.add_overhead_us", "us", "lower", false),
    m("wal.bytes_per_row", "B", "lower", true),
    m("wal.replay_ms", "ms", "lower", false),
    m("wal.checkpoint_ms", "ms", "lower", false),
    m("persist.save_ms", "ms", "lower", false),
    m("persist.load_ms", "ms", "lower", false),
    m("persist.save_mapped_ms", "ms", "lower", false),
    m("persist.open_mapped_ms", "ms", "lower", false),
    m("persist.first_query_ms", "ms", "lower", false),
    m("crc.gb_s", "GB/s", "higher", false),
    m("mmap.minor_faults_per_query", "count", "lower", false),
    m("mmap.major_faults_per_query", "count", "lower", false),
    m("obs.on_ratio", "ratio", "lower", false),
    m("proc.cpu_us_per_query", "us", "lower", false),
    m("quality.recall_at_1", "ratio", "higher", true),
    m("quality.recall_at_100", "ratio", "higher", true),
    m("quality.quant_mse", "mse", "lower", true),
    m("ceiling.stream_read_gb_s", "GB/s", "higher", false),
    m("ceiling.compute_ms", "ms", "lower", false),
    m("ceiling.fsync_us", "us", "lower", false),
    m("trace.overhead_ratio", "ratio", "lower", false),
];
