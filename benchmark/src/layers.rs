//! The adapter: every call into the repository's crates goes through this
//! file, so a change to the library's API (ROADMAP 3b wants `Vaq` and
//! `SegmentedVaq` collapsed) is a change to this file only. The rest of the
//! benchmark sees plain data (`Matrix`, `Neighbor`, `SearchStats`) and the
//! wrappers below. Errors cross as strings: the harness only counts and
//! prints them.

use std::path::Path;
use std::time::Instant;
use vaq_core::pipeline::VarPcaStage;
use vaq_core::ti::TiPartition;
use vaq_core::{
    IndexView, QueryEngine, SearchStrategy, SegmentPolicy, SegmentSearcher, SegmentedVaq, Vaq,
    VaqConfig,
};
use vaq_dataset::SyntheticSpec;
use vaq_linalg::{
    accumulate_qsums, accumulate_qsums_multi, accumulate_qsums_with, active_kernel,
    kernel_supported, PackedCodes, Pca, QuantizedTables, ScanKernel, TableArena, QUERY_TILE,
};

pub use vaq_core::{Neighbor, SearchStats};
pub use vaq_linalg::Matrix;

pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Fixes the library's thread budget. The library reads `VAQ_THREADS` once,
/// on its first threaded call, so this runs before any other call here.
pub fn pin_threads(threads: usize) {
    std::env::set_var("VAQ_THREADS", threads.to_string());
}

pub fn active_kernel_name() -> &'static str {
    active_kernel().name()
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    SiftLike,
    DeepLike,
}

/// The generator's seed. A workload's data set is fixed, as SIFT1M and DEEP1M
/// are in the paper: the generator draws cluster centres and rotation from
/// its seed, so another seed is another data set with another bit plan, and
/// recall and every time then measure the draw, not the code (over ten seeds
/// recall@10 spread 2 to 12 %). `--seed` drives the order of the requests.
const DATASET_SEED: u64 = 1;

impl Data {
    fn spec(self) -> SyntheticSpec {
        match self {
            Data::SiftLike => SyntheticSpec::sift_like(),
            Data::DeepLike => SyntheticSpec::deep_like(),
        }
    }

    pub fn dim(self) -> usize {
        self.spec().dim
    }

    /// The `n` base rows as a stream of `block_rows`-row blocks; the raw
    /// dataset is never resident.
    pub fn blocks(self, n: usize, block_rows: usize) -> impl Iterator<Item = Matrix> {
        self.spec().generate_blocks(n, block_rows, DATASET_SEED)
    }

    /// The query set that goes with `blocks(n, _)`.
    pub fn queries(self, n: usize, n_queries: usize) -> Matrix {
        self.spec().generate_queries(n, n_queries, DATASET_SEED)
    }
}

pub fn matrix_from(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
    Matrix::from_vec(rows, cols, data)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    FullScan,
    EarlyAbandon,
    TiEa(f64),
    Quantized,
}

impl Strategy {
    fn lib(self) -> SearchStrategy {
        match self {
            Strategy::FullScan => SearchStrategy::FullScan,
            Strategy::EarlyAbandon => SearchStrategy::EarlyAbandon,
            Strategy::TiEa(visit_frac) => SearchStrategy::TiEa { visit_frac },
            Strategy::Quantized => SearchStrategy::Quantized,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct ModelCfg {
    pub budget_bits: usize,
    pub subspaces: usize,
    pub max_bits: usize,
    /// TI clusters over the training rows (the first sealed segment).
    pub ti_clusters: usize,
}

impl ModelCfg {
    /// The library's own seed stays at its default.
    fn lib(&self) -> VaqConfig {
        let mut cfg =
            VaqConfig::new(self.budget_bits, self.subspaces).with_ti_clusters(self.ti_clusters);
        cfg.max_bits = self.max_bits;
        cfg
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Policy {
    pub seal_threshold: usize,
    pub compact_min_segments: usize,
    pub ti_clusters: usize,
}

impl Policy {
    /// Seal and compaction run inline in the writer: no hidden thread, and
    /// the index state after every call repeats exactly.
    fn lib(&self) -> SegmentPolicy {
        SegmentPolicy::default()
            .with_seal_threshold(self.seal_threshold)
            .with_compact_min_segments(self.compact_min_segments)
            .with_ti_clusters(self.ti_clusters)
            .sequential()
    }
}

// ---------------------------------------------------------------------------
// Indexes
// ---------------------------------------------------------------------------

/// The projection and dictionaries of a trained model, kept by the traced
/// run so it can call the encoder, TI and kernel layers on their own.
#[derive(Clone)]
pub struct Parts {
    pca: Pca,
    encoder: vaq_core::encoder::Encoder,
}

pub const PIPELINE_STAGES: [&str; 5] = [
    "pipeline.varpca",
    "pipeline.subspace_plan",
    "pipeline.bit_plan",
    "pipeline.dictionaries",
    "pipeline.ti_build",
];

/// `(stage, start, end)`.
pub type StageTime = (&'static str, Instant, Instant);

/// A model trained stage by stage, with the training rows encoded.
pub struct Trained {
    vaq: Vaq,
    pub parts: Parts,
    pub stages: Vec<StageTime>,
}

/// Trains through the five pipeline stage calls — exactly the chain
/// `Vaq::train` runs — and reports when each started and ended.
pub fn train_staged(data: &Matrix, cfg: &ModelCfg) -> Res<Trained> {
    fn timed<T>(
        stages: &mut Vec<StageTime>,
        call: impl FnOnce() -> Result<T, vaq_core::VaqError>,
    ) -> Res<T> {
        let start = Instant::now();
        let out = call();
        stages.push((PIPELINE_STAGES[stages.len()], start, Instant::now()));
        out.map_err(err)
    }
    let cfg = cfg.lib();
    let mut stages = Vec::with_capacity(PIPELINE_STAGES.len());
    let s1 = timed(&mut stages, || VarPcaStage::compute(data, &cfg))?;
    let s2 = timed(&mut stages, || s1.plan_subspaces(&cfg))?;
    let s3 = timed(&mut stages, || s2.allocate_bits(&cfg))?;
    let s4 = timed(&mut stages, || s3.train_dictionaries(data, &cfg))?;
    let parts = Parts { pca: s4.pca.clone(), encoder: s4.encoder.clone() };
    let vaq = timed(&mut stages, || s4.build_ti(&cfg))?;
    Ok(Trained { vaq, parts, stages })
}

impl Trained {
    /// An index holding the training rows: the monolith itself, or — with a
    /// policy — a segmented index whose sealed segment 0 they are.
    pub fn index(&self, segmented: Option<&Policy>) -> Index {
        match segmented {
            None => Index::Mono(Box::new(self.vaq.clone())),
            Some(policy) => Index::Seg(SegmentedVaq::from_vaq(self.vaq.clone(), policy.lib())),
        }
    }

    /// Mean squared reconstruction error over `rows`, which must be the
    /// first training rows.
    pub fn quant_mse(&self, rows: &Matrix) -> Res<f64> {
        self.vaq.quantization_error(rows).map(|e| e / rows.rows().max(1) as f64).map_err(err)
    }
}

/// Which of the library's two index types a workload serves from.
pub enum Index {
    Mono(Box<Vaq>),
    Seg(SegmentedVaq),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub segments: usize,
    pub buffer_rows: usize,
    pub live_rows: usize,
}

impl Index {
    pub fn train_mono(data: &Matrix, cfg: &ModelCfg) -> Res<Index> {
        Vaq::train(data, &cfg.lib()).map(|v| Index::Mono(Box::new(v))).map_err(err)
    }

    pub fn train_segmented(data: &Matrix, cfg: &ModelCfg, policy: &Policy) -> Res<Index> {
        SegmentedVaq::train(data, &cfg.lib(), policy.lib()).map(Index::Seg).map_err(err)
    }

    pub fn add(&mut self, rows: &Matrix) -> Res<()> {
        match self {
            Index::Mono(v) => v.add(rows).map(|_| ()).map_err(err),
            Index::Seg(s) => s.add(rows).map(|_| ()).map_err(err),
        }
    }

    /// `Ok(true)` when `id` was live and is now tombstoned.
    pub fn try_delete(&self, id: u32) -> Res<bool> {
        match self {
            Index::Mono(_) => Err("the monolithic index has no delete".into()),
            Index::Seg(s) => s.try_delete(id).map_err(err),
        }
    }

    pub fn flush(&self) {
        if let Index::Seg(s) = self {
            s.flush();
        }
    }

    pub fn shape(&self) -> Shape {
        match self {
            Index::Mono(v) => Shape { segments: 1, buffer_rows: 0, live_rows: v.len() },
            Index::Seg(s) => {
                let set = s.snapshot();
                Shape {
                    segments: set.num_segments(),
                    buffer_rows: set.buffer_len(),
                    live_rows: set.live_len(),
                }
            }
        }
    }

    pub fn live_ids(&self) -> Vec<u32> {
        match self {
            Index::Mono(v) => (0..v.len() as u32).collect(),
            Index::Seg(s) => s.live_ids(),
        }
    }

    pub fn bits(&self) -> Option<Vec<usize>> {
        match self {
            Index::Mono(v) => Some(v.bits().to_vec()),
            Index::Seg(_) => None,
        }
    }

    /// A reusable single-client query handle (engine and snapshot cached).
    pub fn searcher(&self) -> Searcher<'_> {
        match self {
            Index::Mono(v) => Searcher::Mono { vaq: v, engine: v.engine() },
            Index::Seg(s) => Searcher::Seg(s.searcher()),
        }
    }

    /// A query handle that does not borrow the index, so one client can
    /// write and read in turn; it re-validates its snapshot on every call.
    pub fn detached_searcher(&self) -> Res<Searcher<'static>> {
        self.seg().map(|s| Searcher::Seg(s.searcher()))
    }

    /// The convenience path: a fresh engine (and snapshot) per call.
    pub fn search_oneshot(&self, query: &[f32], k: usize, strategy: Strategy) -> Res<Answer> {
        match self {
            Index::Mono(v) => v.search_with(query, k, strategy.lib()).map_err(err),
            Index::Seg(s) => s.search_with(query, k, strategy.lib()).map_err(err),
        }
    }

    /// All queries handed over at once with a budget of `threads`: the
    /// library's own batch call on the monolith, one searcher per thread
    /// over static shards on a segmented index.
    pub fn search_all(
        &self,
        queries: &Matrix,
        k: usize,
        strategy: Strategy,
        threads: usize,
    ) -> Res<Vec<Vec<Neighbor>>> {
        match self {
            Index::Mono(v) => {
                v.search_batch(queries, k, strategy.lib()).map(|(r, _)| r).map_err(err)
            }
            Index::Seg(s) => {
                let nq = queries.rows();
                let shard = nq.div_ceil(threads.max(1)).max(1);
                let mut out: Vec<Vec<Neighbor>> = vec![Vec::new(); nq];
                let failures: Vec<String> = std::thread::scope(|scope| {
                    let handles: Vec<_> = out
                        .chunks_mut(shard)
                        .enumerate()
                        .map(|(w, mine)| {
                            scope.spawn(move || -> Res<()> {
                                let mut searcher = s.searcher();
                                for (j, slot) in mine.iter_mut().enumerate() {
                                    let q = queries.row(w * shard + j);
                                    *slot =
                                        searcher.search_with(q, k, strategy.lib()).map_err(err)?.0;
                                }
                                Ok(())
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .filter_map(|h| match h.join() {
                            Ok(Ok(())) => None,
                            Ok(Err(e)) => Some(e),
                            Err(_) => Some("query thread panicked".into()),
                        })
                        .collect()
                });
                match failures.into_iter().next() {
                    Some(e) => Err(e),
                    None => Ok(out),
                }
            }
        }
    }

    pub fn save(&self, path: &Path) -> Res<()> {
        match self {
            Index::Mono(v) => v.save(path).map_err(err),
            Index::Seg(s) => s.save(path).map_err(err),
        }
    }

    pub fn load_mono(path: &Path) -> Res<Index> {
        Vaq::load(path).map(|v| Index::Mono(Box::new(v))).map_err(err)
    }

    pub fn load_segmented(path: &Path) -> Res<Index> {
        SegmentedVaq::load(path).map(Index::Seg).map_err(err)
    }

    /// A monolith is first wrapped as a one-segment index, which is free.
    pub fn save_mapped(&self, path: &Path) -> Res<()> {
        match self {
            Index::Mono(v) => {
                SegmentedVaq::from_vaq((**v).clone(), SegmentPolicy::default().sequential())
                    .save_mapped(path)
                    .map_err(err)
            }
            Index::Seg(s) => s.save_mapped(path).map_err(err),
        }
    }

    pub fn open_mapped(path: &Path) -> Res<Index> {
        SegmentedVaq::open_mapped(path).map(Index::Seg).map_err(err)
    }

    fn seg(&self) -> Res<&SegmentedVaq> {
        match self {
            Index::Seg(s) => Ok(s),
            Index::Mono(_) => Err("durability needs a segmented index".into()),
        }
    }

    /// Manifest at `path`, write-ahead log beside it; every later `add`
    /// and `try_delete` is fsynced before it is acknowledged.
    pub fn make_durable(&self, path: &Path) -> Res<()> {
        self.seg()?.make_durable(path).map_err(err)
    }

    pub fn checkpoint(&self) -> Res<()> {
        self.seg()?.checkpoint().map_err(err)
    }

    pub fn open_durable(path: &Path) -> Res<Index> {
        SegmentedVaq::open_durable(path).map(Index::Seg).map_err(err)
    }
}

/// The log that `make_durable(path)` writes beside the manifest.
pub fn wal_path(manifest: &Path) -> std::path::PathBuf {
    let mut s = manifest.as_os_str().to_owned();
    s.push(".wal");
    s.into()
}

pub type Answer = (Vec<Neighbor>, SearchStats);

pub enum Searcher<'a> {
    Mono { vaq: &'a Vaq, engine: QueryEngine },
    Seg(SegmentSearcher),
}

impl Searcher<'_> {
    pub fn search(&mut self, query: &[f32], k: usize, strategy: Strategy) -> Res<Answer> {
        match self {
            Searcher::Mono { vaq, engine } => {
                engine.set_strategy(strategy.lib());
                vaq.search_in(engine, query, k).map_err(err)
            }
            Searcher::Seg(s) => s.search_with(query, k, strategy.lib()).map_err(err),
        }
    }
}

// ---------------------------------------------------------------------------
// Single layers, for the traced run
// ---------------------------------------------------------------------------

impl Parts {
    pub fn subspaces(&self) -> usize {
        self.encoder.num_subspaces()
    }

    fn table_sizes(&self) -> Vec<usize> {
        self.encoder.table_sizes().collect()
    }

    /// `linalg::pca` projection of one query.
    pub fn project(&self, query: &[f32]) -> Res<Vec<f32>> {
        self.pca.transform_vec(query).map_err(err)
    }

    /// Projection plus `Encoder::encode_all` of a block of rows.
    pub fn encode(&self, rows: &Matrix) -> Res<Vec<u16>> {
        let projected = self.pca.transform(rows).map_err(err)?;
        Ok(self.encoder.encode_all(&projected))
    }

    pub fn pack(&self, codes: &[u16], n: usize) -> Packed {
        Packed(PackedCodes::pack(codes, &self.table_sizes(), n))
    }

    pub fn append(&self, packed: &mut Packed, codes: &[u16], n_new: usize) {
        packed.0.append(codes, &self.table_sizes(), n_new);
    }

    /// `TiPartition::build` with the prefix length the library defaults to.
    pub fn build_ti(&self, codes: &[u16], n: usize, clusters: usize) -> Res<Ti> {
        let prefix = 8.min(self.subspaces());
        TiPartition::build(&self.encoder, codes, n, clusters.min(n), prefix, 0x5eed ^ 0x71)
            .map(Ti)
            .map_err(err)
    }
}

pub struct Packed(PackedCodes);

impl Packed {
    pub fn is_active(&self) -> bool {
        self.0.is_active()
    }
}

pub struct Ti(TiPartition);

/// One encoded segment the harness built itself — codes, packing and TI
/// partition — over which single layers can be called.
pub struct Probe<'a> {
    pub parts: &'a Parts,
    pub codes: &'a [u16],
    pub n: usize,
    pub packed: &'a Packed,
    pub ti: &'a Ti,
}

/// The per-thread state those calls reuse, as the engine does.
pub struct ProbeState {
    engine: QueryEngine,
    arena: TableArena,
    qt: QuantizedTables,
    qsums: Vec<u16>,
    tile_qt: Vec<QuantizedTables>,
    tile_qsums: Vec<Vec<u16>>,
}

pub const TILE: usize = QUERY_TILE;

impl Probe<'_> {
    fn view(&self) -> IndexView<'_> {
        IndexView::from_encoder(&self.parts.encoder, self.codes, self.n)
            .with_ti(Some(&self.ti.0))
            .with_packed(Some(&self.packed.0))
    }

    pub fn state(&self) -> ProbeState {
        ProbeState {
            engine: QueryEngine::for_view(&self.view()),
            arena: TableArena::new(),
            qt: QuantizedTables::new(),
            qsums: Vec::new(),
            tile_qt: vec![QuantizedTables::new(); TILE],
            tile_qsums: vec![Vec::new(); TILE],
        }
    }

    /// `Encoder::fill_tables` into the reused arena.
    pub fn fill_tables(&self, st: &mut ProbeState, projected: &[f32]) {
        self.parts.encoder.fill_tables(projected, &mut st.arena);
    }

    /// `QueryEngine::prepare`.
    pub fn prepare(&self, st: &mut ProbeState, projected: &[f32]) {
        st.engine.prepare(&self.view(), projected);
    }

    /// `QuantizedTables::quantize` of the tables `fill_tables` left.
    pub fn quantize(&self, st: &mut ProbeState) {
        st.qt.quantize(&st.arena, &self.packed.0);
    }

    /// `accumulate_qsums` with the tier the dispatcher picked.
    pub fn qsums(&self, st: &mut ProbeState) {
        accumulate_qsums(&self.packed.0, &st.qt, &mut st.qsums);
        std::hint::black_box(&st.qsums);
    }

    /// `accumulate_qsums_with` for each tier this machine supports.
    pub fn supported_tiers(&self) -> Vec<&'static str> {
        ScanKernel::ALL.iter().filter(|&&k| kernel_supported(k)).map(|k| k.name()).collect()
    }

    pub fn qsums_tier(&self, st: &mut ProbeState, tier: &str) {
        if let Some(&kernel) = ScanKernel::ALL.iter().find(|k| k.name() == tier) {
            accumulate_qsums_with(kernel, &self.packed.0, &st.qt, &mut st.qsums);
            std::hint::black_box(&st.qsums);
        }
    }

    /// `accumulate_qsums_multi` over one tile of `TILE` queries, each
    /// carrying the tables `quantize` left.
    pub fn qsums_multi(&self, st: &mut ProbeState) {
        for qt in st.tile_qt.iter_mut() {
            qt.clone_from(&st.qt);
        }
        let mut tile: Vec<(&QuantizedTables, &mut Vec<u16>)> =
            st.tile_qt.iter().zip(st.tile_qsums.iter_mut()).collect();
        accumulate_qsums_multi(active_kernel(), &self.packed.0, &mut tile);
        std::hint::black_box(&st.tile_qsums);
    }

    /// `TiPartition::query_distances` + `visit_order`.
    pub fn ti_order(&self, projected: &[f32]) {
        let dists = self.ti.0.query_distances(projected);
        std::hint::black_box(self.ti.0.visit_order(&dists));
    }

    /// `QueryEngine::search_with` on this one view.
    pub fn search(&self, st: &mut ProbeState, projected: &[f32], k: usize, s: Strategy) -> Answer {
        st.engine.search_with(&self.view(), projected, k, s.lib())
    }
}

pub fn crc32c(data: &[u8]) -> u32 {
    vaq_core::crc::crc32c(data)
}

// ---------------------------------------------------------------------------
// The library's own counters
// ---------------------------------------------------------------------------

pub fn obs_set_enabled(on: bool) {
    vaq_core::obs::set_enabled(on);
}

pub fn obs_reset() {
    vaq_core::obs::reset();
}

/// `obs::snapshot()`, reduced to what the trace file keeps.
pub struct ObsSnapshot {
    pub counters: Vec<(String, u64)>,
    /// `(name, completions, total ns)`.
    pub spans: Vec<(String, u64, u64)>,
}

pub fn obs_snapshot() -> ObsSnapshot {
    let snap = vaq_core::obs::snapshot();
    ObsSnapshot {
        counters: snap.counters.iter().map(|&(name, v)| (name.to_string(), v)).collect(),
        spans: snap.spans.iter().map(|s| (s.name.to_string(), s.count, s.total_ns)).collect(),
    }
}
