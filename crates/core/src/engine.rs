//! The shared ADC query engine (paper §III-E, Algorithm 4).
//!
//! Every ADC consumer in the workspace — flat VAQ, the IVF index, the PQ
//! family baselines, and the IMI re-ranker — runs the same loop: build one
//! lookup table per subspace, then accumulate per-code table entries under
//! some pruning regime. This module factors that loop into two pieces:
//!
//! * [`IndexView`] — a borrowed, zero-copy description of an encoded
//!   database: per-subspace dictionaries, column ranges, the flat `n × m`
//!   code array, and an optional triangle-inequality partition.
//! * [`QueryEngine`] — the reusable execution state: a flat
//!   [`TableArena`] of lookup tables, the query's TI cluster ranking and
//!   a default [`SearchStrategy`]. One engine answers any number of
//!   queries against any number of views; after the first query of a
//!   given layout, the steady state performs **zero** table allocations
//!   (observable through [`SearchStats::table_reallocations`]). Views
//!   that share dictionaries and TI centroids — the segments of one index
//!   — are scanned against one preparation.
//!
//! Distances: the scan accumulates *squared* Euclidean terms (that is what
//! the tables store). `search*` take the final square root, matching
//! Algorithm 4's `distance = sqrt(distance)`; the `*_squared` variants
//! skip it for callers (PQ, IMI) whose public metric is squared Euclidean.

use crate::encoder::Encoder;
use crate::search::{Neighbor, SearchStats, SearchStrategy};
use crate::ti::TiPartition;
use std::collections::BinaryHeap;
use vaq_linalg::{
    accumulate_qsums, prefetch_read, squared_distances_into, Matrix, PackedCodes, QuantizedTables,
    TableArena,
};

/// A borrowed view of an encoded database, sufficient to execute ADC
/// queries against it. Cheap to copy; owns nothing.
#[derive(Debug, Clone, Copy)]
pub struct IndexView<'a> {
    codebooks: &'a [Matrix],
    ranges: &'a [(usize, usize)],
    codes: &'a [u16],
    n: usize,
    ti: Option<&'a TiPartition>,
    packed: Option<&'a PackedCodes>,
    /// Tombstone bitmap (bit `i` set = row `i` is deleted): dead rows are
    /// excluded from every scan and rerank path, counted as skipped.
    dead: Option<&'a [u64]>,
}

impl<'a> IndexView<'a> {
    /// Views raw parts: one dictionary and one `(start, end)` column range
    /// per subspace, plus the row-major `n × m` code array.
    ///
    /// # Panics
    /// Panics if `codebooks` and `ranges` disagree in length or `codes` is
    /// not exactly `n × m` entries.
    pub fn new(
        codebooks: &'a [Matrix],
        ranges: &'a [(usize, usize)],
        codes: &'a [u16],
        n: usize,
    ) -> IndexView<'a> {
        assert_eq!(codebooks.len(), ranges.len(), "one codebook per subspace");
        assert_eq!(codes.len(), n * ranges.len(), "codes must be n × m");
        IndexView { codebooks, ranges, codes, n, ti: None, packed: None, dead: None }
    }

    /// Views a trained [`Encoder`] and its encoded database.
    pub fn from_encoder(encoder: &'a Encoder, codes: &'a [u16], n: usize) -> IndexView<'a> {
        IndexView::new(encoder.codebooks(), encoder.ranges(), codes, n)
    }

    /// Attaches (or detaches) a TI partition for data skipping.
    pub fn with_ti(mut self, ti: Option<&'a TiPartition>) -> IndexView<'a> {
        self.ti = ti;
        self
    }

    /// Attaches (or detaches) a blocked code packing for the quantized
    /// SIMD scan ([`SearchStrategy::Quantized`]). The packing must come
    /// from the same `codes`/`n` this view was built over.
    pub fn with_packed(mut self, packed: Option<&'a PackedCodes>) -> IndexView<'a> {
        self.packed = packed;
        self
    }

    /// The attached blocked code packing, if any.
    pub fn packed(&self) -> Option<&'a PackedCodes> {
        self.packed
    }

    /// Attaches (or detaches) a tombstone bitmap: bit `i` of
    /// `words[i / 64]` marks row `i` as deleted. Dead rows are consulted
    /// at every scan *and* rerank site — they can never enter the top-k —
    /// and are counted in [`SearchStats::vectors_skipped`].
    pub fn with_dead(mut self, dead: Option<&'a [u64]>) -> IndexView<'a> {
        self.dead = dead;
        self
    }

    /// `true` when row `i` is tombstoned. Rows past the bitmap are live.
    #[inline]
    pub fn is_dead(&self, i: usize) -> bool {
        match self.dead {
            Some(words) => words.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1),
            None => false,
        }
    }

    /// Number of subspaces `m`.
    pub fn num_subspaces(&self) -> usize {
        self.ranges.len()
    }

    /// Number of encoded vectors.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the database is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The code word of database row `i`.
    #[inline]
    pub fn code(&self, i: usize) -> &'a [u16] {
        let m = self.ranges.len();
        &self.codes[i * m..(i + 1) * m]
    }

    /// Advisory prefetch of row `i`'s code word into cache. Scan orders
    /// that visit rows non-sequentially (TI cluster order) issue this a
    /// few rows ahead, where the hardware prefetcher cannot follow.
    /// No-op off x86_64 and under Miri; never affects results.
    #[inline]
    pub fn prefetch_code(&self, i: usize) {
        prefetch_read(self.codes, i * self.ranges.len());
    }

    /// The attached TI partition, if any.
    pub fn ti(&self) -> Option<&'a TiPartition> {
        self.ti
    }

    /// Per-subspace dictionaries.
    pub fn codebooks(&self) -> &'a [Matrix] {
        self.codebooks
    }

    /// Per-subspace column ranges.
    pub fn ranges(&self) -> &'a [(usize, usize)] {
        self.ranges
    }

    /// The arena layout of this view's lookup tables.
    pub fn table_sizes(&self) -> impl Iterator<Item = usize> + 'a {
        self.codebooks.iter().map(|cb| cb.rows())
    }

    /// Fills `arena` with this view's ADC tables for a projected query.
    fn fill_tables(&self, projected_query: &[f32], arena: &mut TableArena) {
        arena.ensure_layout(self.table_sizes());
        for (s, (&(lo, hi), cb)) in self.ranges.iter().zip(self.codebooks.iter()).enumerate() {
            squared_distances_into(&projected_query[lo..hi], cb, arena.table_mut(s));
        }
    }
}

/// Reusable ADC execution state: the lookup-table arena, the prepared
/// query's TI ranking, plus a default strategy. Create one per thread and
/// reuse it across queries — the arena re-fills in place, so only the
/// first query of a layout touches the heap.
#[derive(Debug, Clone)]
pub struct QueryEngine {
    arena: TableArena,
    /// The prepared query's distance to every TI centroid and the
    /// clusters in visit order (`None` for a view without TI).
    ranking: Option<(Vec<f32>, Vec<u32>)>,
    strategy: SearchStrategy,
    /// Per-query `u8` quantization of the arena (Quantized scans only);
    /// reused across queries without reallocating.
    qtables: QuantizedTables,
    /// Scratch accumulator buffer for the quantized scan, one `u16` per
    /// (padded) database row.
    qsums: Vec<u16>,
}

impl Default for QueryEngine {
    fn default() -> Self {
        QueryEngine::new()
    }
}

impl QueryEngine {
    /// An empty engine defaulting to [`SearchStrategy::EarlyAbandon`]
    /// (exact w.r.t. the ADC ranking, needs no TI partition).
    pub fn new() -> QueryEngine {
        QueryEngine {
            arena: TableArena::new(),
            ranking: None,
            strategy: SearchStrategy::EarlyAbandon,
            qtables: QuantizedTables::new(),
            qsums: Vec::new(),
        }
    }

    /// An engine whose arena is pre-sized for `view`, so even the first
    /// query allocates nothing.
    pub fn for_view(view: &IndexView<'_>) -> QueryEngine {
        let mut engine = QueryEngine::new();
        engine.arena.ensure_layout(view.table_sizes());
        engine
    }

    /// Overrides the default strategy ([`crate::Vaq::search_in`] reads it).
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> QueryEngine {
        self.strategy = strategy;
        self
    }

    /// The default strategy.
    pub fn strategy(&self) -> SearchStrategy {
        self.strategy
    }

    /// Changes the default strategy in place.
    pub fn set_strategy(&mut self, strategy: SearchStrategy) {
        self.strategy = strategy;
    }

    /// The engine's table arena (tests and benches read its reallocation
    /// counter; scans read prepared tables through it).
    pub fn arena(&self) -> &TableArena {
        &self.arena
    }

    /// Fills the arena with `view`'s ADC tables for a projected query and,
    /// when the view carries a TI partition, ranks its clusters for it.
    /// Exposed for callers that consume the tables directly (quantized
    /// scanners, prefix ablations) rather than through a full search.
    pub fn prepare(&mut self, view: &IndexView<'_>, projected_query: &[f32]) {
        let refill = crate::obs::span("query.table_refill");
        view.fill_tables(projected_query, &mut self.arena);
        if cfg!(debug_assertions) {
            use crate::audit::Audit;
            let report = self.arena.audit();
            assert!(report.is_ok(), "table arena audit failed after prepare:\n{report}");
            assert_eq!(
                self.arena.num_tables(),
                view.num_subspaces(),
                "arena table count disagrees with the view"
            );
        }
        drop(refill);
        self.ranking = view.ti().map(|ti| {
            let _prune = crate::obs::span("query.ti_prune");
            let dists = ti.query_distances(projected_query);
            let order = ti.visit_order(&dists);
            (dists, order)
        });
    }

    /// Fills the arena with caller-defined tables (e.g. SDC
    /// centroid-to-centroid distances): `fill(s, table_s)` per subspace.
    pub fn prepare_with(
        &mut self,
        sizes: impl IntoIterator<Item = usize>,
        fill: impl FnMut(usize, &mut [f32]),
    ) {
        self.arena.ensure_layout(sizes);
        self.arena.fill_with(fill);
    }

    /// Searches with an explicit strategy; unsquared (metric) distances.
    pub fn search_with(
        &mut self,
        view: &IndexView<'_>,
        projected_query: &[f32],
        k: usize,
        strategy: SearchStrategy,
    ) -> (Vec<Neighbor>, SearchStats) {
        let (mut out, stats) = self.search_squared(view, projected_query, k, strategy);
        sqrt_distances(&mut out);
        (out, stats)
    }

    /// Searches with an explicit strategy, keeping *squared* distances —
    /// the PQ-family metric.
    pub fn search_squared(
        &mut self,
        view: &IndexView<'_>,
        projected_query: &[f32],
        k: usize,
        strategy: SearchStrategy,
    ) -> (Vec<Neighbor>, SearchStats) {
        let t0 = crate::obs::enabled().then(std::time::Instant::now);
        let before = self.arena.reallocations();
        self.prepare(view, projected_query);
        let (out, mut stats) = self.search_prepared(view, k, strategy);
        stats.table_reallocations = self.arena.reallocations() - before;
        observe_query(t0, &stats);
        (out, stats)
    }

    /// Scans `view` against the last [`QueryEngine::prepare`], which must
    /// have been for this query over the view's dictionaries and TI
    /// centroids (the segments of one index share the model's), keeping
    /// squared distances.
    pub(crate) fn search_prepared(
        &mut self,
        view: &IndexView<'_>,
        k: usize,
        strategy: SearchStrategy,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut stats = SearchStats::default();
        let n = view.len();
        let k = k.min(n);
        let mut heap: BinaryHeap<Neighbor> = BinaryHeap::with_capacity(k + 1);

        // Resolve the *effective* strategy first: a pruning strategy whose
        // index structure is missing or unsound runs as the exact
        // early-abandon scan, the one fallback loop below.
        let (ti, packed) = match strategy {
            SearchStrategy::TiEa { .. } => {
                (usable_partition(view).zip(self.ranking.as_ref()), None)
            }
            SearchStrategy::Quantized => (None, usable_packing(view)),
            _ => (None, None),
        };
        match (strategy, ti, packed) {
            (SearchStrategy::FullScan, ..) => {
                let _scan = crate::obs::span("query.scan");
                let m = view.num_subspaces();
                let flat = self.arena.as_slice();
                let offsets = self.arena.offsets();
                for i in 0..n {
                    if view.is_dead(i) {
                        stats.vectors_skipped += 1;
                        continue;
                    }
                    let code = view.code(i);
                    let mut dist = 0.0f32;
                    for (s, &c) in code.iter().enumerate() {
                        dist += flat[offsets[s] + c as usize];
                    }
                    stats.vectors_visited += 1;
                    stats.lookups += m;
                    push_k(&mut heap, k, i as u32, dist);
                }
            }
            (SearchStrategy::TiEa { visit_frac }, Some((ti, (qd, order))), _) => {
                let _scan = crate::obs::span("query.scan");
                let visit =
                    ((visit_frac.clamp(0.0, 1.0) * order.len() as f64).ceil() as usize).max(1);
                for &ci in order.iter().take(visit) {
                    let ci = ci as usize;
                    let members = ti.cluster_idx(ci);
                    // Current best-so-far in metric (unsquared) space.
                    let bsf = current_threshold(&heap, k).sqrt();
                    let (lo, hi) = ti.survivor_window(ci, qd[ci], bsf);
                    stats.vectors_skipped += lo + (members.len() - hi);
                    let survivors = &members[lo..hi];
                    for (wi, &row) in survivors.iter().enumerate() {
                        if let Some(&ahead) = survivors.get(wi + 8) {
                            view.prefetch_code(ahead as usize);
                        }
                        scan_one(view, &self.arena, row as usize, &mut heap, k, &mut stats);
                    }
                }
                for &ci in order.iter().skip(visit) {
                    stats.vectors_skipped += ti.cluster_len(ci as usize);
                }
            }
            (SearchStrategy::Quantized, _, Some(packed)) => {
                let qscan = crate::obs::span("query.qscan");
                self.qtables.quantize(&self.arena, packed);
                accumulate_qsums(packed, &self.qtables, &mut self.qsums);
                drop(qscan);
                self.prune_and_rerank(view, k, &mut heap, &mut stats);
            }
            // `EarlyAbandon`, or a pruning strategy degraded to it.
            _ => {
                let _scan = crate::obs::span("query.scan");
                for i in 0..n {
                    scan_one(view, &self.arena, i, &mut heap, k, &mut stats);
                }
            }
        }
        (collect_sorted(heap), stats)
    }

    /// The prune + exact-rerank tail of the quantized scan, run over the
    /// `qtables`/`qsums` the packed kernel just filled.
    fn prune_and_rerank(
        &self,
        view: &IndexView<'_>,
        k: usize,
        heap: &mut BinaryHeap<Neighbor>,
        stats: &mut SearchStats,
    ) {
        let n = view.len();
        let _rerank = crate::obs::span("query.rerank");
        let m = view.num_subspaces();
        // Prune on the certified lower bound alone; survivors
        // rerank through the exact f32 tables. A pruned vector
        // has exact distance >= lb >= threshold, so EA would
        // have abandoned it without pushing — the heap evolves
        // identically and the top-k is byte-identical to EA's.
        // The threshold is folded into the integer domain
        // (`prune_cutoff` is exactly equivalent to comparing
        // `lower_bound(qsum)` against it) so the hot loop is one
        // u16 compare per vector; the cutoff only moves when a
        // survivor improves the heap, so it is refreshed exactly
        // when `scan_one` reports a push and never otherwise.
        let mut cutoff = self.qtables.prune_cutoff(current_threshold(heap, k));
        let mut pruned = 0usize;
        // At steady state nearly every vector prunes, so the loop is
        // dominated by the compare-and-skip path. Taking an unsigned min
        // over a chunk first (which vectorizes to a packed-min reduction)
        // skips PRUNE_CHUNK vectors per iteration on that path: chunk
        // min >= cutoff means every element fails the bound, so skipping
        // them together visits exactly the vectors the scalar loop would
        // and the heap, cutoff, and stats evolve identically.
        let mut base = 0usize;
        for chunk in self.qsums[..n].chunks(PRUNE_CHUNK) {
            let chunk_min = chunk.iter().copied().min().unwrap_or(u16::MAX);
            if u32::from(chunk_min) >= cutoff {
                pruned += chunk.len();
                base += chunk.len();
                continue;
            }
            for (off, &qsum) in chunk.iter().enumerate() {
                if u32::from(qsum) >= cutoff {
                    pruned += 1;
                    continue;
                }
                if scan_one(view, &self.arena, base + off, heap, k, stats) {
                    cutoff = self.qtables.prune_cutoff(current_threshold(heap, k));
                }
            }
            base += chunk.len();
        }
        stats.vectors_visited += pruned;
        stats.lookups_skipped += pruned * m;
        stats.quantized_pruned += pruned;
    }

    /// Early-abandoned scan over an explicit id list (inverted lists,
    /// candidate pools) with a threshold shared across the whole list;
    /// unsquared distances.
    pub fn search_ids(
        &mut self,
        view: &IndexView<'_>,
        projected_query: &[f32],
        ids: impl IntoIterator<Item = u32>,
        k: usize,
    ) -> (Vec<Neighbor>, SearchStats) {
        let (mut out, stats) = self.search_ids_squared(view, projected_query, ids, k);
        sqrt_distances(&mut out);
        (out, stats)
    }

    /// Like [`QueryEngine::search_ids`] but keeping squared distances.
    pub fn search_ids_squared(
        &mut self,
        view: &IndexView<'_>,
        projected_query: &[f32],
        ids: impl IntoIterator<Item = u32>,
        k: usize,
    ) -> (Vec<Neighbor>, SearchStats) {
        let before = self.arena.reallocations();
        self.prepare(view, projected_query);
        let (out, mut stats) = self.scan_ids_prepared(view, ids, k);
        (out, {
            stats.table_reallocations = self.arena.reallocations() - before;
            stats
        })
    }

    /// Early-abandoned scan over `ids` using whatever tables are currently
    /// in the arena ([`QueryEngine::prepare`] / `prepare_with` must have
    /// run). Squared distances; EA is exact w.r.t. the table ranking.
    pub fn scan_ids_prepared(
        &self,
        view: &IndexView<'_>,
        ids: impl IntoIterator<Item = u32>,
        k: usize,
    ) -> (Vec<Neighbor>, SearchStats) {
        let k = k.min(view.len());
        let mut stats = SearchStats::default();
        let mut heap: BinaryHeap<Neighbor> = BinaryHeap::with_capacity(k + 1);
        for id in ids {
            scan_one(view, &self.arena, id as usize, &mut heap, k, &mut stats);
        }
        (collect_sorted(heap), stats)
    }

    /// Answers every row of `queries`, sharding across threads. Each
    /// worker clones this engine once (it is only a prototype — `&self`)
    /// and reuses the clone for its whole shard, so the steady state does
    /// no per-query table allocation. `project` maps a raw query row into
    /// the view's (projected) space. The worker count honors the
    /// `VAQ_THREADS` override (see [`crate::threads`]).
    ///
    /// Returns per-query neighbor lists plus the work counters summed over
    /// the batch.
    pub fn search_batch<F>(
        &self,
        view: &IndexView<'_>,
        queries: &Matrix,
        k: usize,
        strategy: SearchStrategy,
        project: F,
    ) -> (Vec<Vec<Neighbor>>, SearchStats)
    where
        F: Fn(&[f32]) -> Vec<f32> + Sync,
    {
        let nq = queries.rows();
        let workers = crate::threads::worker_count(nq);
        let mut out: Vec<Vec<Neighbor>> = vec![Vec::new(); nq];
        let shard = |start: usize, mine: &mut [Vec<Neighbor>]| {
            let mut engine = self.clone();
            let mut stats = SearchStats::default();
            for (j, slot) in mine.iter_mut().enumerate() {
                let projected = project(queries.row(start + j));
                let (res, s) = engine.search_with(view, &projected, k, strategy);
                stats += s;
                *slot = res;
            }
            stats
        };
        if workers <= 1 || nq < 4 {
            let stats = shard(0, &mut out);
            return (out, stats);
        }
        let mut worker_stats: Vec<SearchStats> = vec![SearchStats::default(); workers];
        let chunk = nq.div_ceil(workers);
        crate::sync::thread::scope(|scope| {
            let shard = &shard;
            for ((w, mine), my_stats) in out.chunks_mut(chunk).enumerate().zip(&mut worker_stats) {
                scope.spawn(move || *my_stats = shard(w * chunk, mine));
            }
        });
        let stats = worker_stats.into_iter().fold(SearchStats::default(), |a, b| a + b);
        (out, stats)
    }
}

/// Records one answered query — its latency from `t0` and its work
/// counters — when obs is on (`t0` is `None` when it is off).
pub(crate) fn observe_query(t0: Option<std::time::Instant>, stats: &SearchStats) {
    if let Some(t0) = t0 {
        crate::obs::observe_ns("query_latency", t0.elapsed().as_nanos() as u64);
        crate::obs::record_search_stats(stats);
    }
}

/// The view's TI partition when [`SearchStrategy::TiEa`] may use it; `None`
/// (the exact early-abandon scan answers instead) when there is none or it
/// does not cover the view's rows exactly once, which would silently drop
/// or duplicate candidates ([`IndexView::with_ti`] takes any partition).
/// Release builds check the member count; debug builds walk
/// [`TiPartition::covers_exactly`], which also sees a double-assigned row
/// masking an omitted one.
fn usable_partition<'a>(view: &IndexView<'a>) -> Option<&'a TiPartition> {
    let (ti, n) = (view.ti()?, view.len());
    let covers =
        if cfg!(debug_assertions) { ti.covers_exactly(n) } else { ti.members_total() == n };
    if !covers {
        crate::faults::note_degradation("engine.search: TI failed audit, EA scan");
        return None;
    }
    Some(ti)
}

/// The view's packed codes when [`SearchStrategy::Quantized`] may use
/// them; `None` (the exact early-abandon scan answers instead) when
/// there is no active packing (e.g. every subspace wider than 8 bits) or
/// when the packing disagrees with the view — [`IndexView::with_packed`]
/// accepts one built over other rows.
fn usable_packing<'a>(view: &IndexView<'a>) -> Option<&'a PackedCodes> {
    match view.packed().filter(|p| p.is_active()) {
        Some(p) if p.len() != view.len() || p.num_total_subspaces() != view.num_subspaces() => {
            // A packing that disagrees with the view (stale
            // after appends, or borrowed from another index)
            // could prune with a wrong bound — refuse it.
            crate::faults::note_degradation("engine.qscan: packed mismatch, EA scan");
            None
        }
        other => other,
    }
}

/// Abandon-check granularity of [`scan_one`]: partial sums are compared
/// against the threshold once per this many subspaces instead of after
/// every table add. The adds themselves stay strictly sequential, so the
/// f32 accumulation — and therefore every distance that reaches the heap
/// — is bit-identical to a per-lookup check; only where inside a doomed
/// row the abandon triggers changes (visible in `SearchStats::lookups`
/// at chunk granularity, never in results). Checking 4× less often
/// removes the branch + two stats counters from the dependency chain of
/// every add, which is what made EA slower than FullScan at n=100k.
const EA_CHUNK: usize = 4;

/// Vectors per chunk of the quantized prune loop. One cache line of
/// `u16` qsums — wide enough that the packed-min fast path amortizes the
/// loop overhead, small enough that a chunk with one survivor re-scans
/// only 31 extra compares.
const PRUNE_CHUNK: usize = 32;

/// Early-abandoned accumulation of one encoded vector against the arena.
/// Returns `true` iff the row entered the top-k heap (callers that cache
/// a pruning cutoff only need to refresh it then).
#[inline]
fn scan_one(
    view: &IndexView<'_>,
    arena: &TableArena,
    i: usize,
    heap: &mut BinaryHeap<Neighbor>,
    k: usize,
    stats: &mut SearchStats,
) -> bool {
    if view.is_dead(i) {
        // Tombstoned rows never reach the heap — checked here so every
        // scan path (EA, TI survivors, quantized rerank, id lists) is
        // covered by the same gate.
        stats.vectors_skipped += 1;
        return false;
    }
    let code = view.code(i);
    let m = code.len();
    let flat = arena.as_slice();
    let offsets = arena.offsets();
    let threshold = current_threshold(heap, k);
    stats.vectors_visited += 1;
    let mut dist = 0.0f32;
    let mut s = 0usize;
    // Table entries are squared Euclidean terms (>= 0), so the partial
    // sum is non-decreasing: a row is abandoned iff its full sum would
    // fail `dist < threshold`, no matter how often we check. The four
    // adds below must stay separate statements — reassociating them
    // would change the f32 rounding and break the byte-identical
    // contract with the per-lookup formulation.
    while s + EA_CHUNK <= m {
        dist += flat[offsets[s] + code[s] as usize];
        dist += flat[offsets[s + 1] + code[s + 1] as usize];
        dist += flat[offsets[s + 2] + code[s + 2] as usize];
        dist += flat[offsets[s + 3] + code[s + 3] as usize];
        s += EA_CHUNK;
        if dist >= threshold {
            stats.lookups += s;
            stats.lookups_skipped += m - s;
            return false; // abandoned — cannot enter the top-k
        }
    }
    while s < m {
        dist += flat[offsets[s] + code[s] as usize];
        s += 1;
    }
    stats.lookups += m;
    if dist >= threshold {
        return false;
    }
    push_k(heap, k, i as u32, dist)
}

/// Current pruning threshold: the k-th best squared distance so far, or
/// `INFINITY` while the heap is still warming up (Algorithm 4 computes the
/// first `K` candidates fully).
#[inline]
fn current_threshold(heap: &BinaryHeap<Neighbor>, k: usize) -> f32 {
    if heap.len() < k {
        f32::INFINITY
    } else {
        heap.peek().map(|n| n.distance).unwrap_or(f32::INFINITY)
    }
}

/// Offers a candidate to the bounded heap; `true` iff it was admitted
/// (i.e. the top-k — and thus the pruning threshold — changed).
#[inline]
fn push_k(heap: &mut BinaryHeap<Neighbor>, k: usize, index: u32, dist: f32) -> bool {
    if heap.len() < k {
        heap.push(Neighbor { index, distance: dist });
        true
    } else if let Some(top) = heap.peek() {
        if dist < top.distance {
            heap.pop();
            heap.push(Neighbor { index, distance: dist });
            true
        } else {
            false
        }
    } else {
        false
    }
}

/// Drains the heap into a best-first sorted list (distances left as-is).
fn collect_sorted(heap: BinaryHeap<Neighbor>) -> Vec<Neighbor> {
    let mut out = heap.into_vec();
    out.sort();
    out
}

/// Algorithm 4's final `distance = sqrt(distance)` (monotone; preserves
/// the order `collect_sorted` established).
fn sqrt_distances(out: &mut [Neighbor]) {
    for n in out.iter_mut() {
        n.distance = n.distance.max(0.0).sqrt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subspaces::{SubspaceLayout, SubspaceMode};

    fn setup(n: usize) -> (Matrix, Encoder, Vec<u16>, TiPartition) {
        let d = 8;
        let mut s = 21u64;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(d);
            for j in 0..d {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = ((s >> 40) as f32 / (1u32 << 23) as f32) - 1.0;
                row.push(v * 3.0 / (1.0 + j as f32));
            }
            rows.push(row);
        }
        let data = Matrix::from_rows(&rows);
        let vars: Vec<f64> = (0..d).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let layout = SubspaceLayout::build(&vars, 4, SubspaceMode::Uniform, false, 0).unwrap();
        let enc = Encoder::train(&data, &layout, &[5, 4, 3, 2], 15, 0).unwrap();
        let codes = enc.encode_all(&data);
        let ti = TiPartition::build(&enc, &codes, n, 16, 2, 1).unwrap();
        (data, enc, codes, ti)
    }

    #[test]
    fn ea_returns_identical_results_to_full_scan() {
        let (data, enc, codes, _) = setup(600);
        let view = IndexView::from_encoder(&enc, &codes, 600);
        let mut engine = QueryEngine::for_view(&view);
        for qi in [0usize, 100, 399] {
            let q = data.row(qi);
            let (full, _) = engine.search_with(&view, q, 10, SearchStrategy::FullScan);
            let (ea, _) = engine.search_with(&view, q, 10, SearchStrategy::EarlyAbandon);
            assert_eq!(
                full.iter().map(|n| n.index).collect::<Vec<_>>(),
                ea.iter().map(|n| n.index).collect::<Vec<_>>(),
                "query {qi}"
            );
            for (a, b) in full.iter().zip(ea.iter()) {
                assert!((a.distance - b.distance).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn ti_with_full_visit_matches_full_scan() {
        // Visiting 100% of clusters keeps TI pruning exact.
        let (data, enc, codes, ti) = setup(500);
        let view = IndexView::from_encoder(&enc, &codes, 500).with_ti(Some(&ti));
        let mut engine = QueryEngine::for_view(&view);
        for qi in [3usize, 250] {
            let q = data.row(qi);
            let (full, _) = engine.search_with(&view, q, 10, SearchStrategy::FullScan);
            let (tiea, _) =
                engine.search_with(&view, q, 10, SearchStrategy::TiEa { visit_frac: 1.0 });
            assert_eq!(
                full.iter().map(|n| n.index).collect::<Vec<_>>(),
                tiea.iter().map(|n| n.index).collect::<Vec<_>>(),
                "query {qi}"
            );
        }
    }

    /// Like [`setup`] but with eight subspaces, so the chunked abandon
    /// check (`EA_CHUNK` = 4) has an interior boundary to abandon at.
    fn setup_wide(n: usize) -> (Matrix, Encoder, Vec<u16>) {
        let d = 16;
        let mut s = 47u64;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(d);
            for j in 0..d {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = ((s >> 40) as f32 / (1u32 << 23) as f32) - 1.0;
                row.push(v * 3.0 / (1.0 + j as f32));
            }
            rows.push(row);
        }
        let data = Matrix::from_rows(&rows);
        let vars: Vec<f64> = (0..d).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let layout = SubspaceLayout::build(&vars, 8, SubspaceMode::Uniform, false, 0).unwrap();
        let enc = Encoder::train(&data, &layout, &[5, 4, 4, 3, 3, 2, 2, 2], 15, 0).unwrap();
        let codes = enc.encode_all(&data);
        (data, enc, codes)
    }

    #[test]
    fn ea_skips_lookups() {
        let (data, enc, codes) = setup_wide(800);
        let view = IndexView::from_encoder(&enc, &codes, 800);
        let mut engine = QueryEngine::for_view(&view);
        let q = data.row(1);
        let (_, full_stats) = engine.search_with(&view, q, 5, SearchStrategy::FullScan);
        let (_, ea_stats) = engine.search_with(&view, q, 5, SearchStrategy::EarlyAbandon);
        assert_eq!(full_stats.lookups, 800 * 8);
        assert!(ea_stats.lookups < full_stats.lookups, "EA did not skip any lookups");
        assert_eq!(ea_stats.lookups + ea_stats.lookups_skipped, 800 * 8);
    }

    #[test]
    fn ea_matches_full_scan_on_wide_plans() {
        // The chunk loop plus tail must accumulate in exactly the same
        // order as a per-lookup loop; m = 8 exercises two full chunks,
        // and k = 3 keeps the abandon threshold active.
        let (data, enc, codes) = setup_wide(600);
        let view = IndexView::from_encoder(&enc, &codes, 600);
        let mut engine = QueryEngine::for_view(&view);
        for qi in [0usize, 77, 421] {
            let q = data.row(qi);
            let (full, _) = engine.search_with(&view, q, 3, SearchStrategy::FullScan);
            let (ea, _) = engine.search_with(&view, q, 3, SearchStrategy::EarlyAbandon);
            assert_eq!(full, ea, "query {qi}");
        }
    }

    #[test]
    fn ti_skips_vectors() {
        let (data, enc, codes, ti) = setup(800);
        let view = IndexView::from_encoder(&enc, &codes, 800).with_ti(Some(&ti));
        let mut engine = QueryEngine::for_view(&view);
        let (_, stats) =
            engine.search_with(&view, data.row(2), 5, SearchStrategy::TiEa { visit_frac: 0.25 });
        assert!(stats.vectors_skipped > 0, "TI skipped nothing");
        assert_eq!(stats.vectors_visited + stats.vectors_skipped, 800);
    }

    #[test]
    fn partial_visit_recall_degrades_gracefully() {
        // Visiting 25% of clusters must still recover most of the exact
        // ADC top-10 (clusters are visited nearest-first).
        let (data, enc, codes, ti) = setup(1000);
        let view = IndexView::from_encoder(&enc, &codes, 1000).with_ti(Some(&ti));
        let mut engine = QueryEngine::for_view(&view);
        let mut overlap_sum = 0.0;
        let queries = [0usize, 123, 456, 789];
        for &qi in &queries {
            let q = data.row(qi);
            let (full, _) = engine.search_with(&view, q, 10, SearchStrategy::FullScan);
            let (tiea, _) =
                engine.search_with(&view, q, 10, SearchStrategy::TiEa { visit_frac: 0.25 });
            let full_set: std::collections::HashSet<u32> = full.iter().map(|n| n.index).collect();
            let overlap = tiea.iter().filter(|n| full_set.contains(&n.index)).count() as f64 / 10.0;
            overlap_sum += overlap;
        }
        let mean = overlap_sum / queries.len() as f64;
        assert!(mean > 0.5, "25% visit overlap too low: {mean}");
    }

    #[test]
    fn missing_partition_degrades_to_ea() {
        let (data, enc, codes, _) = setup(300);
        let view = IndexView::from_encoder(&enc, &codes, 300);
        let mut engine = QueryEngine::for_view(&view);
        let q = data.row(0);
        let (a, _) = engine.search_with(&view, q, 10, SearchStrategy::TiEa { visit_frac: 0.25 });
        let (b, _) = engine.search_with(&view, q, 10, SearchStrategy::EarlyAbandon);
        assert_eq!(
            a.iter().map(|n| n.index).collect::<Vec<_>>(),
            b.iter().map(|n| n.index).collect::<Vec<_>>()
        );
    }

    #[test]
    fn distances_are_sqrt_and_sorted() {
        let (data, enc, codes, _) = setup(200);
        let view = IndexView::from_encoder(&enc, &codes, 200);
        let mut engine = QueryEngine::for_view(&view);
        let (res, _) = engine.search_with(&view, data.row(9), 15, SearchStrategy::FullScan);
        assert_eq!(res.len(), 15);
        for w in res.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
        // A vector queried against itself has near-zero reconstructed
        // distance — certainly below the raw squared scale.
        assert!(res[0].distance < 3.0);
    }

    #[test]
    fn k_larger_than_n_returns_n() {
        let (data, enc, codes, _) = setup(50);
        let view = IndexView::from_encoder(&enc, &codes, 50);
        let mut engine = QueryEngine::for_view(&view);
        let (res, _) = engine.search_with(&view, data.row(0), 500, SearchStrategy::FullScan);
        assert_eq!(res.len(), 50);
    }

    #[test]
    fn squared_variant_is_square_of_metric_variant() {
        let (data, enc, codes, _) = setup(150);
        let view = IndexView::from_encoder(&enc, &codes, 150);
        let mut engine = QueryEngine::for_view(&view);
        let q = data.row(4);
        let (metric, _) = engine.search_with(&view, q, 8, SearchStrategy::FullScan);
        let (squared, _) = engine.search_squared(&view, q, 8, SearchStrategy::FullScan);
        for (a, b) in metric.iter().zip(squared.iter()) {
            assert_eq!(a.index, b.index);
            assert!((a.distance * a.distance - b.distance).abs() < 1e-3 * b.distance.max(1.0));
        }
    }

    #[test]
    fn id_scan_matches_restricted_full_scan() {
        let (data, enc, codes, _) = setup(400);
        let view = IndexView::from_encoder(&enc, &codes, 400);
        let mut engine = QueryEngine::for_view(&view);
        let q = data.row(11);
        let ids: Vec<u32> = (0..400u32).filter(|i| i % 3 == 0).collect();
        let (got, stats) = engine.search_ids_squared(&view, q, ids.iter().copied(), 10);
        // Reference: exhaustive table accumulation over the same ids.
        engine.prepare(&view, q);
        let mut want: Vec<Neighbor> = ids
            .iter()
            .map(|&i| {
                let dist: f32 = view
                    .code(i as usize)
                    .iter()
                    .enumerate()
                    .map(|(s, &c)| engine.arena().lookup(s, c as usize))
                    .sum();
                Neighbor { index: i, distance: dist }
            })
            .collect();
        want.sort();
        want.truncate(10);
        assert_eq!(
            got.iter().map(|n| n.index).collect::<Vec<_>>(),
            want.iter().map(|n| n.index).collect::<Vec<_>>()
        );
        assert_eq!(stats.vectors_visited, ids.len());
    }

    #[test]
    fn steady_state_reallocates_nothing() {
        let (data, enc, codes, ti) = setup(300);
        let view = IndexView::from_encoder(&enc, &codes, 300).with_ti(Some(&ti));
        let mut engine = QueryEngine::for_view(&view);
        let baseline = engine.arena().reallocations();
        let mut realloc_reports = 0usize;
        for qi in 0..50 {
            for strategy in [
                SearchStrategy::FullScan,
                SearchStrategy::EarlyAbandon,
                SearchStrategy::TiEa { visit_frac: 0.5 },
            ] {
                let (_, stats) = engine.search_with(&view, data.row(qi % 300), 5, strategy);
                realloc_reports += stats.table_reallocations;
            }
        }
        assert_eq!(engine.arena().reallocations(), baseline, "arena grew in steady state");
        assert_eq!(realloc_reports, 0, "stats reported phantom reallocations");
    }

    #[test]
    fn one_engine_serves_views_with_different_layouts() {
        let (data, enc, codes, _) = setup(200);
        let view = IndexView::from_encoder(&enc, &codes, 200);
        // A second encoder with a different dictionary layout.
        let vars: Vec<f64> = (0..8).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let layout = SubspaceLayout::build(&vars, 2, SubspaceMode::Uniform, false, 0).unwrap();
        let enc2 = Encoder::train(&data, &layout, &[6, 3], 10, 0).unwrap();
        let codes2 = enc2.encode_all(&data);
        let view2 = IndexView::from_encoder(&enc2, &codes2, 200);
        let mut engine = QueryEngine::new();
        let q = data.row(0);
        let (a, _) = engine.search_with(&view, q, 5, SearchStrategy::EarlyAbandon);
        let (b, _) = engine.search_with(&view2, q, 5, SearchStrategy::EarlyAbandon);
        let (a2, _) = engine.search_with(&view, q, 5, SearchStrategy::EarlyAbandon);
        assert_eq!(a, a2, "alternating layouts corrupted results");
        assert_eq!(a.len(), 5);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn batch_matches_sequential_and_sums_stats() {
        let (data, enc, codes, ti) = setup(500);
        let view = IndexView::from_encoder(&enc, &codes, 500).with_ti(Some(&ti));
        let queries =
            Matrix::from_rows(&(0..20).map(|i| data.row(i * 7).to_vec()).collect::<Vec<_>>());
        let strategy = SearchStrategy::TiEa { visit_frac: 0.5 };
        let mut engine = QueryEngine::for_view(&view);
        let (batch, batch_stats) =
            engine.search_batch(&view, &queries, 6, strategy, |q| q.to_vec());
        let mut seq_stats = SearchStats::default();
        for qi in 0..queries.rows() {
            let (res, s) = engine.search_with(&view, queries.row(qi), 6, strategy);
            seq_stats += s;
            assert_eq!(batch[qi], res, "query {qi}");
        }
        assert_eq!(batch_stats.vectors_visited, seq_stats.vectors_visited);
        assert_eq!(batch_stats.vectors_skipped, seq_stats.vectors_skipped);
        assert_eq!(batch_stats.lookups, seq_stats.lookups);
        assert_eq!(batch_stats.lookups_skipped, seq_stats.lookups_skipped);
        // Workers clone a pre-sized arena: the batch allocates no tables.
        assert_eq!(batch_stats.table_reallocations, 0);
    }

    #[test]
    fn quantized_batch_matches_sequential_exactly() {
        // A Quantized batch must reproduce per-query answers AND
        // per-query work counters bit for bit; 13 queries shard unevenly
        // across workers.
        let (data, enc, codes) = setup_wide(500);
        let packed = pack_view(&enc, &codes, 500);
        assert!(packed.is_active(), "wide plan must pack");
        let view = IndexView::from_encoder(&enc, &codes, 500).with_packed(Some(&packed));
        let queries =
            Matrix::from_rows(&(0..13).map(|i| data.row(i * 29).to_vec()).collect::<Vec<_>>());
        let engine = QueryEngine::for_view(&view);
        let (batch, batch_stats) =
            engine.search_batch(&view, &queries, 6, SearchStrategy::Quantized, |q| q.to_vec());
        let mut seq = QueryEngine::for_view(&view);
        let mut seq_stats = SearchStats::default();
        for qi in 0..queries.rows() {
            let (res, s) = seq.search_with(&view, queries.row(qi), 6, SearchStrategy::Quantized);
            seq_stats += s;
            assert_eq!(batch[qi], res, "query {qi}");
        }
        assert_eq!(batch_stats, seq_stats, "batched stats diverged from sequential");
        assert_eq!(batch_stats.table_reallocations, 0);
    }

    #[test]
    fn quantized_batch_without_packing_degrades_like_sequential() {
        // No packing attached: every query of the batch must fall back
        // to the exact EA scan, exactly as a lone Quantized query does.
        let (data, enc, codes, _) = setup(300);
        let view = IndexView::from_encoder(&enc, &codes, 300);
        let queries =
            Matrix::from_rows(&(0..7).map(|i| data.row(i * 41).to_vec()).collect::<Vec<_>>());
        let engine = QueryEngine::for_view(&view);
        let (batch, batch_stats) =
            engine.search_batch(&view, &queries, 5, SearchStrategy::Quantized, |q| q.to_vec());
        let mut seq = QueryEngine::for_view(&view);
        let mut seq_stats = SearchStats::default();
        for qi in 0..queries.rows() {
            let (res, s) = seq.search_with(&view, queries.row(qi), 5, SearchStrategy::Quantized);
            seq_stats += s;
            assert_eq!(batch[qi], res, "query {qi}");
        }
        assert_eq!(batch_stats, seq_stats);
        assert_eq!(batch_stats.quantized_pruned, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn doctored_partition_with_intact_size_sum_degrades_to_ea() {
        // Regression: `ti_covers` only summed cluster sizes, so a row
        // assigned twice while another was omitted passed the check and
        // the omitted row could never be returned. The debug-build exact
        // membership check must reject the doctored partition and fall
        // back to the EA scan, which still finds the omitted row.
        let n = 400;
        let (data, enc, codes, mut ti) = setup(n);
        let big = (0..ti.num_clusters()).max_by_key(|&c| ti.cluster_len(c)).unwrap();
        let (start, end) = ti.cluster_range(big);
        assert!(end - start >= 2);
        // Replace the farthest member (an omission) with a duplicate of
        // the nearest (a double assignment); the size sum stays n. The
        // cached distance column is untouched so the sorted invariant
        // holds.
        let dup = ti.member_idx.as_slice()[start];
        let omitted = ti.member_idx.as_slice()[end - 1];
        ti.member_idx.to_mut()[end - 1] = dup;
        assert_eq!(ti.members_total(), n, "doctoring must preserve the size sum");
        assert!(!ti.covers_exactly(n));

        let view = IndexView::from_encoder(&enc, &codes, n).with_ti(Some(&ti));
        let mut engine = QueryEngine::for_view(&view);
        let q = data.row(omitted as usize);
        let (tiea, _) = engine.search_with(&view, q, 1, SearchStrategy::TiEa { visit_frac: 1.0 });
        let (ea, _) = engine.search_with(&view, q, 1, SearchStrategy::EarlyAbandon);
        assert_eq!(tiea, ea, "doctored partition was not rejected");
    }

    #[test]
    fn partition_over_other_rows_degrades_to_ea() {
        // `with_ti` takes any partition: one built over the first 300 rows
        // fails the release-build size-sum check on a 400-row view.
        let n = 400;
        let (data, enc, codes, _) = setup(n);
        let short = TiPartition::build(&enc, &codes[..300 * 4], 300, 16, 2, 1).unwrap();
        let view = IndexView::from_encoder(&enc, &codes, n).with_ti(Some(&short));
        let mut engine = QueryEngine::for_view(&view);
        let q = data.row(350);
        let strategy = SearchStrategy::TiEa { visit_frac: 1.0 };
        let ((tiea, _), _) = crate::obs::ring_after("degradation", "TI failed audit", || {
            engine.clone().search_with(&view, q, 10, strategy)
        });
        let (ea, _) = engine.search_with(&view, q, 10, SearchStrategy::EarlyAbandon);
        assert!(ea.iter().any(|nb| nb.index >= 300), "the answer needs an uncovered row");
        assert_eq!(tiea, ea);
    }

    fn pack_view(enc: &Encoder, codes: &[u16], n: usize) -> PackedCodes {
        let sizes: Vec<usize> = enc.codebooks().iter().map(|cb| cb.rows()).collect();
        PackedCodes::pack(codes, &sizes, n)
    }

    #[test]
    fn quantized_matches_early_abandon_byte_for_byte() {
        let (data, enc, codes, _) = setup(600);
        let packed = pack_view(&enc, &codes, 600);
        assert!(packed.is_active(), "5/4/3/2-bit plan must pack fully");
        let view = IndexView::from_encoder(&enc, &codes, 600).with_packed(Some(&packed));
        let mut engine = QueryEngine::for_view(&view);
        for qi in [0usize, 100, 399, 598] {
            for k in [1usize, 5, 17] {
                let q = data.row(qi);
                let (ea, _) = engine.search_with(&view, q, k, SearchStrategy::EarlyAbandon);
                let (qz, stats) = engine.search_with(&view, q, k, SearchStrategy::Quantized);
                assert_eq!(ea, qz, "query {qi} k {k}");
                assert_eq!(stats.vectors_visited + stats.vectors_skipped, 600);
            }
        }
    }

    #[test]
    fn quantized_scan_actually_prunes() {
        let (data, enc, codes, _) = setup(900);
        let packed = pack_view(&enc, &codes, 900);
        let view = IndexView::from_encoder(&enc, &codes, 900).with_packed(Some(&packed));
        let mut engine = QueryEngine::for_view(&view);
        let q = data.row(3);
        let (_, ea) = engine.search_with(&view, q, 5, SearchStrategy::EarlyAbandon);
        let (_, qz) = engine.search_with(&view, q, 5, SearchStrategy::Quantized);
        assert!(qz.quantized_pruned > 0, "lower bound never pruned anything");
        assert!(
            qz.lookups < ea.lookups,
            "quantized scan did not reduce exact lookups: {} vs {}",
            qz.lookups,
            ea.lookups
        );
    }

    #[test]
    fn quantized_without_packing_degrades_to_ea() {
        let (data, enc, codes, _) = setup(300);
        let view = IndexView::from_encoder(&enc, &codes, 300);
        let mut engine = QueryEngine::for_view(&view);
        let q = data.row(7);
        let (ea, _) = engine.search_with(&view, q, 10, SearchStrategy::EarlyAbandon);
        let (qz, stats) = engine.search_with(&view, q, 10, SearchStrategy::Quantized);
        assert_eq!(ea, qz);
        assert_eq!(stats.quantized_pruned, 0);
    }

    #[test]
    fn quantized_refuses_mismatched_packing() {
        // A packing built over a shorter prefix of the database must not
        // drive pruning decisions for the full view.
        let (data, enc, codes, _) = setup(400);
        let stale = pack_view(&enc, &codes[..200 * 4], 200);
        let view = IndexView::from_encoder(&enc, &codes, 400).with_packed(Some(&stale));
        let mut engine = QueryEngine::for_view(&view);
        let q = data.row(11);
        let (ea, _) = engine.search_with(&view, q, 10, SearchStrategy::EarlyAbandon);
        let (qz, stats) = engine.search_with(&view, q, 10, SearchStrategy::Quantized);
        assert_eq!(ea, qz);
        assert_eq!(stats.quantized_pruned, 0, "mismatched packing was used for pruning");
    }

    mod quantized_parity_proptests {
        use super::*;
        use proptest::prelude::*;

        /// Trains an encoder for an arbitrary bit plan over the shared
        /// deterministic dataset and returns everything a parity check
        /// needs. Bits span 2..=9, so plans mix packable (≤8-bit) and
        /// unpackable (9-bit, 512-row) subspaces.
        fn trained(bits: &[usize], n: usize) -> (Matrix, Encoder, Vec<u16>) {
            let (data, _, _, _) = setup(n);
            let vars: Vec<f64> = (0..8).map(|i| 1.0 / (1.0 + i as f64)).collect();
            let layout =
                SubspaceLayout::build(&vars, bits.len(), SubspaceMode::Uniform, false, 0).unwrap();
            let enc = Encoder::train(&data, &layout, bits, 8, 0).unwrap();
            let codes = enc.encode_all(&data);
            (data, enc, codes)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(6))]
            #[test]
            fn quantized_is_byte_identical_to_ea_on_random_bit_plans(
                bits in proptest::collection::vec(2usize..=9, 4),
                k in 1usize..16,
                qi in 0usize..300,
            ) {
                let n = 300;
                let (data, enc, codes) = trained(&bits, n);
                let packed = pack_view(&enc, &codes, n);
                let view =
                    IndexView::from_encoder(&enc, &codes, n).with_packed(Some(&packed));
                let mut engine = QueryEngine::for_view(&view);
                let q = data.row(qi);
                let (ea, _) = engine.search_with(&view, q, k, SearchStrategy::EarlyAbandon);
                let (qz, _) = engine.search_with(&view, q, k, SearchStrategy::Quantized);
                // Byte-identical: same indices AND bit-equal distances.
                prop_assert_eq!(ea, qz);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[test]
            fn batched_quantized_equals_sequential_on_random_bit_plans(
                bits in proptest::collection::vec(2usize..=9, 4),
                nq in 1usize..11,
                k in 1usize..12,
            ) {
                // A Quantized batch must be indistinguishable from
                // per-query searches — results and SearchStats — for any
                // mix of nibble / byte / unpackable subspaces and any
                // batch size.
                let n = 240;
                let (data, enc, codes) = trained(&bits, n);
                let packed = pack_view(&enc, &codes, n);
                let view =
                    IndexView::from_encoder(&enc, &codes, n).with_packed(Some(&packed));
                let queries = Matrix::from_rows(
                    &(0..nq).map(|i| data.row((i * 37) % n).to_vec()).collect::<Vec<_>>(),
                );
                let engine = QueryEngine::for_view(&view);
                let (batch, batch_stats) = engine.search_batch(
                    &view,
                    &queries,
                    k,
                    SearchStrategy::Quantized,
                    |q| q.to_vec(),
                );
                let mut seq = QueryEngine::for_view(&view);
                let mut seq_stats = SearchStats::default();
                for qi in 0..nq {
                    let (res, s) =
                        seq.search_with(&view, queries.row(qi), k, SearchStrategy::Quantized);
                    seq_stats += s;
                    prop_assert_eq!(&batch[qi], &res, "query {}", qi);
                }
                prop_assert_eq!(batch_stats, seq_stats);
            }
        }
    }

    #[test]
    fn dead_rows_are_excluded_from_every_strategy() {
        let n = 500;
        let (data, enc, codes, ti) = setup(n);
        let packed = pack_view(&enc, &codes, n);
        let mut words = vec![0u64; n.div_ceil(64)];
        for i in (0..n).step_by(3) {
            words[i / 64] |= 1 << (i % 64);
        }
        let view = IndexView::from_encoder(&enc, &codes, n)
            .with_ti(Some(&ti))
            .with_packed(Some(&packed))
            .with_dead(Some(&words));
        let mut engine = QueryEngine::for_view(&view);
        let q = data.row(33); // row 33 is dead: its own best match is gone
        let (full, fs) = engine.search_with(&view, q, 12, SearchStrategy::FullScan);
        assert_eq!(full.len(), 12);
        assert!(full.iter().all(|nb| nb.index % 3 != 0), "a tombstoned row was returned");
        assert_eq!(fs.vectors_visited + fs.vectors_skipped, n, "skip accounting broke");
        assert!(fs.vectors_skipped >= n / 3);
        // Every exact strategy must agree with the filtered full scan —
        // the filter is consulted at scan (EA / TI survivors) and at
        // rerank (quantized survivors) alike.
        for strategy in [
            SearchStrategy::EarlyAbandon,
            SearchStrategy::TiEa { visit_frac: 1.0 },
            SearchStrategy::Quantized,
        ] {
            let (got, st) = engine.search_with(&view, q, 12, strategy);
            assert_eq!(
                got.iter().map(|nb| nb.index).collect::<Vec<_>>(),
                full.iter().map(|nb| nb.index).collect::<Vec<_>>(),
                "{strategy:?} disagrees with the filtered full scan"
            );
            assert_eq!(st.vectors_visited + st.vectors_skipped, n, "{strategy:?} accounting");
        }
        // A detached bitmap restores the unfiltered results.
        let unfiltered = view.with_dead(None);
        let (all, _) = engine.search_with(&unfiltered, q, 1, SearchStrategy::FullScan);
        assert_eq!(all[0].index, 33, "row 33 must reappear once the bitmap is detached");
    }

    #[test]
    fn prepared_custom_tables_drive_id_scans() {
        // SDC-style: caller fills the arena itself, then scans.
        let (data, enc, codes, _) = setup(100);
        let view = IndexView::from_encoder(&enc, &codes, 100);
        let mut engine = QueryEngine::new();
        let q = data.row(8);
        engine.prepare(&view, q);
        let (via_prepare, _) = engine.scan_ids_prepared(&view, 0..100u32, 10);
        let sizes: Vec<usize> = view.table_sizes().collect();
        engine.prepare_with(sizes, |s, table| {
            let (lo, hi) = view.ranges()[s];
            squared_distances_into(&q[lo..hi], &view.codebooks()[s], table);
        });
        let (via_custom, _) = engine.scan_ids_prepared(&view, 0..100u32, 10);
        assert_eq!(via_prepare, via_custom);
    }
}
