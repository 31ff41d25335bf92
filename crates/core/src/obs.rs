//! Structured observability: span timers, log-bucketed latency
//! histograms, monotonic counters, and structured events — dependency-free
//! and process-global, with Prometheus-text and JSON export.
//!
//! Recording is **runtime-gated**: it stays off until
//! [`set_enabled`]`(true)`. A disabled instrumentation point costs one
//! relaxed atomic load and never reads the clock, so steady-state query
//! paths are unaffected unless a profiler opts in (the benchmark's
//! `obs.on_ratio` reads 0.97–1.02 with recording *on*).
//!
//! Instrumented surfaces across the workspace:
//!
//! * the training stages (`train.varpca` → `train.subspace_plan` →
//!   `train.bit_plan` → `train.dictionaries` → `train.ti_build`) via
//!   [`span`] guards in [`crate::pipeline`],
//! * the query engine's phases (`query.table_refill`, `query.ti_prune`,
//!   `query.scan`, `query.qscan`, `query.rerank`),
//! * per-query wall time in the power-of-two-bucketed `query_latency`
//!   histogram,
//! * [`SearchStats`] folded into monotonic `search.*` counters after
//!   every query,
//! * structured [`EventRecord`]s, absorbing the always-on degradation
//!   log: [`crate::faults::note_degradation`] forwards every entry here
//!   as a `degradation` event (the drainable log itself keeps working),
//! * optionally, the SIMD accumulation kernels as `kernel.*` spans once
//!   [`install_kernel_timing`] has run.
//!
//! [`snapshot`] freezes everything into a [`Snapshot`] value that renders
//! as Prometheus text exposition ([`Snapshot::to_prometheus`]) or JSON
//! ([`Snapshot::to_json`]); `vaq_cli bench --profile` writes both.

use crate::search::SearchStats;
use std::time::Instant;

/// First histogram bucket upper bound: `2^8` = 256 ns.
const HIST_MIN_SHIFT: u32 = 8;
/// Number of finite histogram buckets; the last finite upper bound is
/// `2^(8 + 27)` ns ≈ 34 s, and anything beyond it lands in that bucket.
const HIST_BUCKETS: usize = 28;

/// The bucket an observation of `ns` nanoseconds falls into: the first
/// power of two ≥ `ns`, shifted so bucket 0 covers `(0, 256]` ns.
fn bucket_index(ns: u64) -> usize {
    let ceil_log2 = 64 - ns.max(1).saturating_sub(1).leading_zeros();
    (ceil_log2.saturating_sub(HIST_MIN_SHIFT) as usize).min(HIST_BUCKETS - 1)
}

/// Inclusive upper bound (in ns) of histogram bucket `i`.
fn bucket_le_ns(i: usize) -> u64 {
    1u64 << (HIST_MIN_SHIFT + i as u32)
}

/// True when recording is switched on via [`set_enabled`].
/// Instrumentation points check this before touching the clock or any
/// registry.
#[inline(always)]
pub fn enabled() -> bool {
    // Under `cfg(loom)` the gate is pinned off: instrumentation is not
    // protocol state, and modeling one atomic load per instrumentation
    // point would multiply the schedule space of every loom scenario.
    #[cfg(not(loom))]
    {
        // ORDERING: Relaxed is enough for an on/off gate read in
        // isolation: no data is published *through* the flag — every
        // registry the instrumentation points touch afterwards is behind
        // its own Mutex, which provides the ordering. The only cost of
        // staleness is recording (or skipping) a few events around the
        // toggle, which `set_enabled`'s SeqCst store only bounds, never
        // eliminates.
        state::ENABLED.load(crate::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(loom)]
    {
        false
    }
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    state::ENABLED.store(on, crate::sync::atomic::Ordering::SeqCst);
}

/// RAII span timer: created by [`span`], records its elapsed wall time
/// into the named span aggregate when dropped.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(t0) = self.start.take() {
            record_span_ns(self.name, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Starts a span timer over `name` (e.g. `"train.varpca"`). When
/// recording is disabled the guard is inert and the clock is never read.
pub fn span(name: &'static str) -> Span {
    Span { name, start: if enabled() { Some(Instant::now()) } else { None } }
}

/// Records one completed span of `ns` nanoseconds under `name` without
/// going through a [`Span`] guard (used by the kernel timing hook).
pub fn record_span_ns(name: &'static str, ns: u64) {
    if !enabled() {
        return;
    }
    state::record_span(name, ns);
}

/// Adds `delta` to the monotonic counter `name`.
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    state::counter_add(name, delta);
}

/// Records one observation of `ns` nanoseconds into the log-bucketed
/// histogram `name`.
pub fn observe_ns(name: &'static str, ns: u64) {
    if !enabled() {
        return;
    }
    state::observe(name, ns);
}

/// Folds one query's [`SearchStats`] into the monotonic `search.*`
/// counters (plus `search.queries`), unifying the per-query counters with
/// the process-wide ones. The engine calls this after every search.
pub fn record_search_stats(stats: &SearchStats) {
    if !enabled() {
        return;
    }
    counter_add("search.queries", 1);
    counter_add("search.vectors_visited", stats.vectors_visited as u64);
    counter_add("search.vectors_skipped", stats.vectors_skipped as u64);
    counter_add("search.lookups", stats.lookups as u64);
    counter_add("search.lookups_skipped", stats.lookups_skipped as u64);
    counter_add("search.quantized_pruned", stats.quantized_pruned as u64);
    counter_add("search.table_reallocations", stats.table_reallocations as u64);
}

/// Records a structured event of `kind` (e.g. `"degradation"`) with a
/// free-form detail string. Events carry a process-wide monotonic
/// sequence number, so relative order is preserved across threads.
pub fn event(kind: &'static str, detail: &str) {
    if !enabled() {
        return;
    }
    state::event(kind, detail);
}

/// Emits a `"degradation"` event when a blocked packing had to leave
/// packable subspaces on the exact path (a plan with more than
/// `MAX_PACKED_SUBSPACES` of them). The scan stays correct — the excess
/// subspaces' table minima fold into the pruning bound — but prunes less
/// sharply, which operators will want to see.
pub fn note_truncated_packing(packed: &vaq_linalg::PackedCodes, site: &str) {
    let t = packed.truncated_packable();
    if t > 0 {
        event(
            "degradation",
            &format!("{site}: packing truncated, {t} packable subspaces left on the exact path"),
        );
    }
}

/// Drains and returns the buffered events (aggregates are untouched).
pub fn take_events() -> Vec<EventRecord> {
    state::take_events()
}

/// Clears every span, counter, histogram, and buffered event. The event
/// sequence counter keeps running, so ordering stays comparable across
/// resets. The enabled flag is untouched.
pub fn reset() {
    state::reset();
}

/// Freezes the current aggregates into a [`Snapshot`] (events are copied,
/// not drained).
pub fn snapshot() -> Snapshot {
    state::snapshot()
}

/// Installs the [`vaq_linalg`] kernel timing hook so quantized
/// accumulation time shows up as `kernel.*` spans. Idempotent; the hook
/// checks [`enabled`] itself, so installing it does not turn recording on
/// (but it does add one clock read per accumulation call, which is why
/// only profiling entry points install it).
pub fn install_kernel_timing() {
    vaq_linalg::install_kernel_timing_hook(kernel_hook);
}

fn kernel_hook(kernel: &'static str, ns: u64) {
    record_span_ns(kernel_span(kernel), ns);
}

/// The span a [`vaq_linalg::ScanKernel`] tier's accumulation time is
/// recorded under: `kernel.` + the tier's `name()`.
fn kernel_span(kernel: &str) -> &'static str {
    match kernel {
        "scalar" => "kernel.scalar",
        "ssse3" => "kernel.ssse3",
        "avx2" => "kernel.avx2",
        "neon" => "kernel.neon",
        _ => "kernel.other",
    }
}

// ---------------------------------------------------------------------------
// Snapshot value types + export (always compiled; they carry data only).
// ---------------------------------------------------------------------------

/// Aggregate of one named span: completions, cumulative and maximum
/// nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Span name (`stage.operation`).
    pub name: &'static str,
    /// Number of completed spans.
    pub count: u64,
    /// Total nanoseconds across all completions.
    pub total_ns: u64,
    /// Longest single completion in nanoseconds.
    pub max_ns: u64,
}

/// One log-bucketed histogram: `(upper_bound_ns, count)` per bucket
/// (non-cumulative), plus totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Histogram name (e.g. `query_latency`).
    pub name: &'static str,
    /// Per-bucket `(inclusive upper bound in ns, observations)`.
    pub buckets: Vec<(u64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed nanoseconds.
    pub sum_ns: u64,
}

/// One structured event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Process-wide monotonic sequence number (records relative order).
    pub seq: u64,
    /// Event kind, e.g. `"degradation"`.
    pub kind: &'static str,
    /// Free-form detail.
    pub detail: String,
}

/// A frozen copy of every observability aggregate, ready for export.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Span aggregates, sorted by name.
    pub spans: Vec<SpanStat>,
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Buffered events in sequence order.
    pub events: Vec<EventRecord>,
    /// Events discarded because the buffer was full (oldest first).
    pub events_dropped: u64,
}

fn fmt_seconds(ns: u64) -> String {
    format!("{}", ns as f64 / 1e9)
}

/// Prometheus metric-name characters: `[a-zA-Z0-9_]`, everything else
/// (the `.` in span names) becomes `_`.
fn prom_sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect()
}

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl Snapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (spans as paired `_count`/`_seconds` counters plus a `_max` gauge,
    /// counters as `vaq_counter_total`, histograms as native Prometheus
    /// histograms in seconds, events aggregated per kind).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("# HELP vaq_span_count_total Completions per instrumented span.\n");
            out.push_str("# TYPE vaq_span_count_total counter\n");
            for s in &self.spans {
                out.push_str(&format!("vaq_span_count_total{{span=\"{}\"}} {}\n", s.name, s.count));
            }
            out.push_str("# HELP vaq_span_seconds_total Cumulative wall time per span.\n");
            out.push_str("# TYPE vaq_span_seconds_total counter\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "vaq_span_seconds_total{{span=\"{}\"}} {}\n",
                    s.name,
                    fmt_seconds(s.total_ns)
                ));
            }
            out.push_str("# HELP vaq_span_seconds_max Longest single completion per span.\n");
            out.push_str("# TYPE vaq_span_seconds_max gauge\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "vaq_span_seconds_max{{span=\"{}\"}} {}\n",
                    s.name,
                    fmt_seconds(s.max_ns)
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("# HELP vaq_counter_total Monotonic workspace counters.\n");
            out.push_str("# TYPE vaq_counter_total counter\n");
            for &(name, v) in &self.counters {
                out.push_str(&format!("vaq_counter_total{{name=\"{name}\"}} {v}\n"));
            }
        }
        for h in &self.histograms {
            let metric = format!("vaq_{}_seconds", prom_sanitize(h.name));
            out.push_str(&format!("# HELP {metric} Log-bucketed latency histogram.\n"));
            out.push_str(&format!("# TYPE {metric} histogram\n"));
            let mut cum = 0u64;
            for &(le_ns, c) in &h.buckets {
                cum += c;
                out.push_str(&format!("{metric}_bucket{{le=\"{}\"}} {cum}\n", fmt_seconds(le_ns)));
            }
            out.push_str(&format!("{metric}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{metric}_sum {}\n", fmt_seconds(h.sum_ns)));
            out.push_str(&format!("{metric}_count {}\n", h.count));
        }
        if !self.events.is_empty() || self.events_dropped > 0 {
            out.push_str("# HELP vaq_events_total Structured events by kind.\n");
            out.push_str("# TYPE vaq_events_total counter\n");
            let mut kinds: Vec<&'static str> = self.events.iter().map(|e| e.kind).collect();
            kinds.sort_unstable();
            kinds.dedup();
            for kind in kinds {
                let c = self.events.iter().filter(|e| e.kind == kind).count();
                out.push_str(&format!("vaq_events_total{{kind=\"{kind}\"}} {c}\n"));
            }
            out.push_str(&format!("vaq_events_dropped_total {}\n", self.events_dropped));
        }
        out
    }

    /// Renders the snapshot as a JSON document (raw nanosecond integers;
    /// arrays of objects so names never need key escaping).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
                s.name, s.count, s.total_ns, s.max_ns
            ));
        }
        out.push_str("\n  ],\n  \"counters\": [");
        for (i, &(name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {{\"name\": \"{name}\", \"value\": {v}}}"));
        }
        out.push_str("\n  ],\n  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"count\": {}, \"sum_ns\": {}, \"buckets\": [",
                h.name, h.count, h.sum_ns
            ));
            for (j, &(le_ns, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{{\"le_ns\": {le_ns}, \"count\": {c}}}"));
            }
            out.push_str("]}");
        }
        out.push_str("\n  ],\n  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"seq\": {}, \"kind\": \"{}\", \"detail\": \"",
                e.seq, e.kind
            ));
            json_escape(&e.detail, &mut out);
            out.push_str("\"}");
        }
        out.push_str(&format!("\n  ],\n  \"events_dropped\": {}\n}}\n", self.events_dropped));
        out
    }
}

// ---------------------------------------------------------------------------
// Recording state
// ---------------------------------------------------------------------------

mod state {
    use super::{
        bucket_index, bucket_le_ns, EventRecord, HistogramSnapshot, Snapshot, SpanStat,
        HIST_BUCKETS,
    };
    use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use crate::sync::{Mutex, MutexGuard};
    use std::collections::{BTreeMap, VecDeque};

    pub(super) static ENABLED: AtomicBool = AtomicBool::new(false);
    static EVENT_SEQ: AtomicU64 = AtomicU64::new(0);

    /// Buffered-event cap; overflow drops the oldest entry and counts it.
    const EVENT_CAP: usize = 256;

    #[derive(Default, Clone, Copy)]
    struct SpanAgg {
        count: u64,
        total_ns: u64,
        max_ns: u64,
    }

    struct Hist {
        buckets: [u64; HIST_BUCKETS],
        count: u64,
        sum_ns: u64,
    }

    static SPANS: Mutex<BTreeMap<&'static str, SpanAgg>> = Mutex::new(BTreeMap::new());
    static COUNTERS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());
    static HISTS: Mutex<BTreeMap<&'static str, Hist>> = Mutex::new(BTreeMap::new());
    /// `(ring, dropped)` — events in arrival order plus the overflow
    /// count. A `VecDeque` makes the overflow eviction O(1): the old
    /// `Vec::remove(0)` shifted all [`EVENT_CAP`] survivors on every
    /// event once the buffer was full.
    static EVENTS: Mutex<(VecDeque<EventRecord>, u64)> = Mutex::new((VecDeque::new(), 0));

    /// Recording must survive a panicked holder: recover the data instead
    /// of propagating the poison.
    fn lock<T>(m: &'static Mutex<T>) -> MutexGuard<'static, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(super) fn record_span(name: &'static str, ns: u64) {
        let mut spans = lock(&SPANS);
        let agg = spans.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += ns;
        agg.max_ns = agg.max_ns.max(ns);
    }

    pub(super) fn counter_add(name: &'static str, delta: u64) {
        *lock(&COUNTERS).entry(name).or_insert(0) += delta;
    }

    pub(super) fn observe(name: &'static str, ns: u64) {
        let mut hists = lock(&HISTS);
        let h = hists.entry(name).or_insert_with(|| Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum_ns: 0,
        });
        h.buckets[bucket_index(ns)] += 1;
        h.count += 1;
        h.sum_ns += ns;
    }

    pub(super) fn event(kind: &'static str, detail: &str) {
        // ORDERING: Relaxed suffices for a pure sequence-number ticket:
        // the RMW is atomic regardless of ordering, so tickets are
        // unique, and the record is published under the EVENTS mutex
        // below, which supplies all the cross-thread visibility readers
        // need. Nothing is ordered *against* the counter itself.
        let seq = EVENT_SEQ.fetch_add(1, Ordering::Relaxed);
        let mut events = lock(&EVENTS);
        while events.0.len() >= EVENT_CAP {
            events.0.pop_front();
            events.1 += 1;
        }
        events.0.push_back(EventRecord { seq, kind, detail: detail.to_string() });
    }

    pub(super) fn take_events() -> Vec<EventRecord> {
        std::mem::take(&mut lock(&EVENTS).0).into_iter().collect()
    }

    pub(super) fn reset() {
        lock(&SPANS).clear();
        lock(&COUNTERS).clear();
        lock(&HISTS).clear();
        let mut events = lock(&EVENTS);
        events.0.clear();
        events.1 = 0;
    }

    pub(super) fn snapshot() -> Snapshot {
        let spans = lock(&SPANS)
            .iter()
            .map(|(&name, agg)| SpanStat {
                name,
                count: agg.count,
                total_ns: agg.total_ns,
                max_ns: agg.max_ns,
            })
            .collect();
        let counters = lock(&COUNTERS).iter().map(|(&name, &v)| (name, v)).collect();
        let histograms = lock(&HISTS)
            .iter()
            .map(|(&name, h)| HistogramSnapshot {
                name,
                buckets: h.buckets.iter().enumerate().map(|(i, &c)| (bucket_le_ns(i), c)).collect(),
                count: h.count,
                sum_ns: h.sum_ns,
            })
            .collect();
        let events = lock(&EVENTS);
        Snapshot {
            spans,
            counters,
            histograms,
            events: events.0.iter().cloned().collect(),
            events_dropped: events.1,
        }
    }
}

/// Test helper: runs `act` with recording on and returns its result with
/// the first `kind` event containing `marker` it left in the event ring.
/// The ring is process-wide and parallel tests pause and drain it, so an
/// attempt that lost its events is repeated.
#[cfg(test)]
pub(crate) fn ring_after<T>(kind: &str, marker: &str, act: impl Fn() -> T) -> (T, String) {
    for _ in 0..64 {
        set_enabled(true);
        let from = snapshot().events.last().map_or(0, |e| e.seq + 1);
        let out = act();
        let events = snapshot().events;
        let mut new = events.iter().filter(|e| e.seq >= from && e.kind == kind);
        if let Some(e) = new.find(|e| e.detail.contains(marker)) {
            return (out, e.detail.clone());
        }
    }
    panic!("no `{kind}` event containing `{marker}` reached the ring");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{Mutex, MutexGuard};

    /// The registries are process-global; serialize tests that touch them
    /// (other test modules never *drain* them, so filtering by our own
    /// names below stays race-free).
    static LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> MutexGuard<'static, ()> {
        let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        g
    }

    fn finish(g: MutexGuard<'static, ()>) {
        set_enabled(false);
        reset();
        drop(g);
    }

    #[test]
    fn bucket_index_matches_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(256), 0);
        assert_eq!(bucket_index(257), 1);
        assert_eq!(bucket_index(512), 1);
        assert_eq!(bucket_index(513), 2);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        for i in 0..HIST_BUCKETS {
            assert_eq!(bucket_index(bucket_le_ns(i)), i.min(HIST_BUCKETS - 1));
        }
    }

    #[test]
    fn every_kernel_tier_has_its_own_span() {
        for kernel in vaq_linalg::ScanKernel::ALL {
            assert_eq!(kernel_span(kernel.name()), format!("kernel.{}", kernel.name()));
        }
    }

    #[test]
    fn truncated_packing_emits_a_degradation_event() {
        let g = guard();
        // 260 two-entry subspaces: 257 pack, 3 degrade to the exact path.
        let m = 260;
        let codes = vec![0u16; m];
        let sizes = vec![2usize; m];
        let packed = vaq_linalg::PackedCodes::pack(&codes, &sizes, 1);
        assert!(packed.truncated_packable() > 0);
        note_truncated_packing(&packed, "obs-test.site");
        // A fully packed plan stays silent.
        let full = vaq_linalg::PackedCodes::pack(&codes[..4], &sizes[..4], 1);
        note_truncated_packing(&full, "obs-test.site");
        let events = take_events();
        let mine: Vec<_> =
            events.iter().filter(|e| e.detail.starts_with("obs-test.site")).collect();
        assert_eq!(mine.len(), 1, "{events:?}");
        assert_eq!(mine[0].kind, "degradation");
        assert!(mine[0].detail.contains("3 packable subspaces"), "{}", mine[0].detail);
        finish(g);
    }

    #[test]
    fn disabled_recording_is_inert() {
        let g = guard();
        set_enabled(false);
        record_span_ns("obs-test.inert", 100);
        counter_add("obs-test.inert", 1);
        observe_ns("obs-test.inert", 100);
        event("obs-test", "inert");
        let snap = snapshot();
        assert!(snap.spans.iter().all(|s| s.name != "obs-test.inert"));
        assert!(snap.counters.iter().all(|&(n, _)| n != "obs-test.inert"));
        assert!(snap.events.iter().all(|e| e.kind != "obs-test"));
        finish(g);
    }

    #[test]
    fn spans_counters_and_histograms_aggregate() {
        let g = guard();
        record_span_ns("obs-test.stage", 100);
        record_span_ns("obs-test.stage", 300);
        counter_add("obs-test.counter", 2);
        counter_add("obs-test.counter", 3);
        observe_ns("obs-test.hist", 200);
        observe_ns("obs-test.hist", 300);
        observe_ns("obs-test.hist", 5_000);
        let snap = snapshot();
        let s = snap.spans.iter().find(|s| s.name == "obs-test.stage").unwrap();
        assert_eq!((s.count, s.total_ns, s.max_ns), (2, 400, 300));
        let &(_, v) = snap.counters.iter().find(|&&(n, _)| n == "obs-test.counter").unwrap();
        assert_eq!(v, 5);
        let h = snap.histograms.iter().find(|h| h.name == "obs-test.hist").unwrap();
        assert_eq!((h.count, h.sum_ns), (3, 5_500));
        assert_eq!(h.buckets[bucket_index(200)].1, 1);
        assert_eq!(h.buckets[bucket_index(300)].1, 1);
        assert_eq!(h.buckets[bucket_index(5_000)].1, 1);
        assert_eq!(h.buckets.iter().map(|&(_, c)| c).sum::<u64>(), 3);
        finish(g);
    }

    #[test]
    fn span_guard_records_on_drop_only_when_enabled() {
        let g = guard();
        {
            let _s = span("obs-test.guard");
        }
        assert!(snapshot().spans.iter().any(|s| s.name == "obs-test.guard" && s.count == 1));
        set_enabled(false);
        {
            let _s = span("obs-test.guard");
        }
        set_enabled(true);
        let s = snapshot().spans.into_iter().find(|s| s.name == "obs-test.guard").unwrap();
        assert_eq!(s.count, 1, "disabled guard must not record");
        finish(g);
    }

    #[test]
    fn search_stats_fold_into_counters() {
        let g = guard();
        let stats = SearchStats {
            vectors_visited: 10,
            vectors_skipped: 20,
            lookups: 30,
            lookups_skipped: 40,
            quantized_pruned: 50,
            table_reallocations: 1,
        };
        record_search_stats(&stats);
        record_search_stats(&stats);
        let snap = snapshot();
        let get = |name: &str| {
            snap.counters.iter().find(|&&(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
        };
        assert_eq!(get("search.queries"), 2);
        assert_eq!(get("search.vectors_visited"), 20);
        assert_eq!(get("search.quantized_pruned"), 100);
        assert_eq!(get("search.table_reallocations"), 2);
        finish(g);
    }

    #[test]
    fn degradations_surface_as_ordered_events() {
        // Satellite check: the always-on degradation log is absorbed into
        // structured events, preserving relative order, while the legacy
        // drainable log keeps working.
        let g = guard();
        crate::faults::note_degradation("obs-test: first fallback");
        crate::faults::note_degradation("obs-test: second fallback");
        let events = take_events();
        let mine: Vec<&EventRecord> =
            events.iter().filter(|e| e.detail.starts_with("obs-test:")).collect();
        assert_eq!(mine.len(), 2, "events: {events:?}");
        assert_eq!(mine[0].kind, "degradation");
        assert_eq!(mine[0].detail, "obs-test: first fallback");
        assert_eq!(mine[1].detail, "obs-test: second fallback");
        assert!(mine[0].seq < mine[1].seq, "sequence numbers out of order");
        let log = crate::faults::take_degradations();
        assert!(log.contains(&"obs-test: first fallback"));
        finish(g);
    }

    #[test]
    fn event_buffer_caps_and_counts_drops() {
        let g = guard();
        for i in 0..300 {
            event("obs-test", &format!("e{i}"));
        }
        let snap = snapshot();
        let mine = snap.events.iter().filter(|e| e.kind == "obs-test").count();
        assert!(mine <= 256);
        assert!(snap.events_dropped >= 44, "dropped {}", snap.events_dropped);
        // The newest events survive.
        assert!(snap.events.iter().any(|e| e.detail == "e299"));
        finish(g);
    }

    #[test]
    fn event_ring_wraparound_keeps_order_and_sequence() {
        // Push several capacities' worth so the ring wraps repeatedly;
        // the survivors must be exactly the newest window, in arrival
        // order, with strictly increasing sequence numbers and a drop
        // counter accounting for every evicted event.
        let g = guard();
        let total = 256 * 3 + 17;
        for i in 0..total {
            event("obs-test", &format!("w{i}"));
        }
        let snap = snapshot();
        // Concurrent (non-obs) tests may interleave events of their own,
        // so assert only on the events this test emitted: the survivors
        // are a *contiguous suffix* of what was pushed, in arrival order.
        let mine: Vec<&EventRecord> = snap.events.iter().filter(|e| e.kind == "obs-test").collect();
        assert!(!mine.is_empty() && mine.len() <= 256, "kept {}", mine.len());
        assert_eq!(mine.last().unwrap().detail, format!("w{}", total - 1), "newest survivor");
        let first: usize = mine[0].detail.strip_prefix('w').unwrap().parse().unwrap();
        for (off, e) in mine.iter().enumerate() {
            assert_eq!(e.detail, format!("w{}", first + off), "gap after wraparound");
        }
        for pair in mine.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "sequence numbers must stay monotonic");
        }
        assert!(
            snap.events_dropped as usize >= total - 256,
            "evictions undercounted: {}",
            snap.events_dropped
        );
        // Draining after wraparound returns the same ordered window.
        let drained: Vec<EventRecord> =
            take_events().into_iter().filter(|e| e.kind == "obs-test").collect();
        assert_eq!(drained.len(), mine.len());
        assert_eq!(drained[0].detail, format!("w{first}"));
        finish(g);
    }

    #[test]
    fn prometheus_export_contains_expected_families() {
        let g = guard();
        record_span_ns("obs-test.stage", 1_000_000);
        counter_add("search.lookups", 7);
        observe_ns("query_latency", 2_000);
        event("degradation", "obs-test: x");
        let text = snapshot().to_prometheus();
        assert!(text.contains("vaq_span_seconds_total{span=\"obs-test.stage\"} 0.001"));
        assert!(text.contains("vaq_counter_total{name=\"search.lookups\"} 7"));
        assert!(text.contains("vaq_query_latency_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("vaq_query_latency_seconds_count 1"));
        assert!(text.contains("vaq_events_total{kind=\"degradation\"} 1"));
        // Cumulative buckets never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("vaq_query_latency_seconds_bucket")) {
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v as u64 >= last, "bucket counts decreased: {line}");
            last = v as u64;
        }
        finish(g);
    }

    #[test]
    fn json_export_escapes_details() {
        let g = guard();
        event("obs-test", "quote \" backslash \\ newline \n done");
        let json = snapshot().to_json();
        assert!(json.contains("quote \\\" backslash \\\\ newline \\n done"));
        finish(g);
    }

    #[test]
    fn reset_clears_aggregates_but_keeps_sequence_monotonic() {
        let g = guard();
        event("obs-test", "before");
        let seq_before = take_events().last().unwrap().seq;
        reset();
        // Concurrent (non-obs) tests may record while obs is enabled here,
        // so only assert on state this test owns: its own events are gone.
        assert!(snapshot().events.iter().all(|e| e.kind != "obs-test"));
        event("obs-test", "after");
        let seq_after = take_events().last().unwrap().seq;
        assert!(seq_after > seq_before);
        finish(g);
    }
}
