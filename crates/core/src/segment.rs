//! Segmented concurrent index: sealed segments, a mutable write buffer,
//! tombstoned deletes, and compaction (ROADMAP open item 1 — the
//! serving-scale regime).
//!
//! A [`SegmentedVaq`] shares **one trained model** (PCA basis, subspace
//! plan, bit plan, dictionaries — everything [`Vaq::train`] learns) across
//! an LSM-like collection of data holders:
//!
//! * a bounded mutable **write buffer** of plain codes, scanned exactly
//!   (early-abandon, no TI, no packing) so freshly ingested vectors are
//!   searchable immediately;
//! * a list of immutable **sealed segments** (`SegmentCore`), each
//!   owning its codes, [`PackedCodes`] blocked layout and [`TiPartition`]
//!   (each row's cluster and distance under the model's TI centroids) and
//!   storing its global ids only once a compaction has dropped rows from
//!   it (`SegmentIds`). A [`Vaq`] is the model plus exactly one
//!   such segment, so there is one rows type, one set of pruned scan
//!   paths and one file shape for both.
//!
//! # Snapshot semantics — no locks on the query path
//!
//! All index state lives in a fully immutable [`SegmentSet`] behind an
//! `Arc`. Writers (add / delete / seal / compact) build a *new* set and
//! swap the `Arc` while holding a writer mutex; readers either clone the
//! current `Arc` (one brief `RwLock` read) or — via [`SegmentSearcher`] —
//! cache the clone and re-validate it with a single atomic version load
//! per query, so the steady-state query path takes **no lock at all**.
//! Every operation observes one coherent snapshot; a query never sees a
//! half-applied write.
//!
//! # Lifecycle
//!
//! ```text
//!   add ──▶ write buffer ──(≥ seal_threshold, inline in the writer)──▶ seal
//!                                                                      │
//!            sealed segment ◀── pack codes + assign rows to model TI ◀─┘
//!                 │
//!                 ├─ delete ──▶ tombstone bit (consulted at scan & rerank)
//!                 │
//!                 └─(small segments / dead_frac ≥ purge threshold)──▶
//!                        compaction: merge neighbours, drop tombstones,
//!                        carry every kept row's TI assignment
//! ```
//!
//! Sealing and compaction run inline, on the writer whose `add`,
//! `delete` or `flush` triggered them; a flag under the writer lock lets
//! one pass run at a time while other writers and every reader go on.
//! All three maintenance actions emit structured events
//! (`segment.seal` / `segment.compact` / `segment.tombstone_purge`) into
//! the [`crate::obs`] event ring under span coverage.
//!
//! ```
//! use vaq_core::{SegmentPolicy, SegmentedVaq, VaqConfig};
//! use vaq_linalg::Matrix;
//!
//! let rows: Vec<Vec<f32>> = (0..96)
//!     .map(|i| (0..6).map(|j| ((i * 5 + j) % 17) as f32 * 0.1).collect())
//!     .collect();
//! let data = Matrix::from_rows(&rows);
//! let cfg = VaqConfig::new(12, 3).with_ti_clusters(8);
//! let policy = SegmentPolicy::default().with_seal_threshold(32);
//! let index = SegmentedVaq::train(&data, &cfg, policy).unwrap();
//! let ids = index.add(&Matrix::from_rows(&rows[..4])).unwrap();
//! assert!(index.delete(ids[0]));
//! let hits = index.search(&rows[1], 5).unwrap();
//! assert_eq!(hits.len(), 5);
//! ```

use crate::encoder::Encoder;
use crate::engine::{IndexView, QueryEngine};
use crate::search::{Neighbor, SearchStats, SearchStrategy};
use crate::subspaces::SubspaceLayout;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{thread, Arc, Mutex, MutexGuard, RwLock};
use crate::ti::TiPartition;
use crate::vaq::{Vaq, VaqConfig};
use crate::VaqError;
use std::path::Path;
use vaq_linalg::{Matrix, PackedCodes, Pca, U16Storage, U32Storage, U64Storage};

pub(crate) mod wal;

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// Tuning knobs for segment maintenance, which runs inline on the writer
/// that triggers it. All thresholds are clamped to sane minima by the
/// builders.
#[derive(Debug, Clone)]
pub struct SegmentPolicy {
    /// Buffer size (rows) that triggers sealing into a new segment.
    pub seal_threshold: usize,
    /// Sealed-segment count that triggers merging the smallest adjacent
    /// pair. Minimum 2.
    pub compact_min_segments: usize,
    /// Dead fraction of a sealed segment that triggers a tombstone purge
    /// rewrite, in `(0, 1]`.
    pub tombstone_purge_frac: f64,
    /// Ignored: the TI centroids belong to the trained model, so
    /// [`VaqConfig::ti_clusters`] alone sets the cluster count of every
    /// segment.
    pub ti_clusters: usize,
}

impl Default for SegmentPolicy {
    fn default() -> Self {
        SegmentPolicy {
            seal_threshold: 1024,
            compact_min_segments: 4,
            tombstone_purge_frac: 0.25,
            ti_clusters: 64,
        }
    }
}

impl SegmentPolicy {
    /// Overrides the buffer-size seal trigger (min 1).
    pub fn with_seal_threshold(mut self, rows: usize) -> Self {
        self.seal_threshold = rows.max(1);
        self
    }

    /// Overrides the segment-count compaction trigger (min 2).
    pub fn with_compact_min_segments(mut self, count: usize) -> Self {
        self.compact_min_segments = count.max(2);
        self
    }

    /// Overrides the tombstone-purge dead fraction (clamped to `(0, 1]`).
    pub fn with_tombstone_purge_frac(mut self, frac: f64) -> Self {
        self.tombstone_purge_frac =
            if frac.is_finite() { frac.clamp(f64::EPSILON, 1.0) } else { 1.0 };
        self
    }

    /// Sets the ignored [`SegmentPolicy::ti_clusters`].
    pub fn with_ti_clusters(mut self, clusters: usize) -> Self {
        self.ti_clusters = clusters;
        self
    }

    /// The identity: maintenance always runs inline on the writer.
    pub fn sequential(self) -> Self {
        self
    }
}

// ---------------------------------------------------------------------------
// Immutable building blocks
// ---------------------------------------------------------------------------

/// The trained model every segment shares: projection, layout, bit plan,
/// dictionaries, TI centroids and query defaults. Never mutated after
/// construction.
#[derive(Debug, Clone)]
pub(crate) struct Model {
    pub(crate) pca: Pca,
    pub(crate) layout: SubspaceLayout,
    pub(crate) bits: Vec<usize>,
    pub(crate) encoder: Encoder,
    pub(crate) default_strategy: SearchStrategy,
    /// The TI centroids, sampled once from the encoded training rows, in
    /// the prefix space of the first `ti_prefix_subspaces` subspaces;
    /// every sealed segment's partition shares them. `None` when the model
    /// was trained without TI (`VaqConfig::ti_clusters == 0`).
    pub(crate) ti_centroids: Option<Arc<Matrix>>,
    pub(crate) ti_prefix_subspaces: usize,
}

impl Model {
    /// Projects and encodes rows to append, rejecting a wrong width. The
    /// model is immutable, so this needs no lock.
    pub(crate) fn encode(&self, data: &Matrix) -> Result<Vec<u16>, VaqError> {
        if data.cols() != self.pca.dim() {
            return Err(VaqError::BadConfig(format!(
                "appended vectors have {} dims, index expects {}",
                data.cols(),
                self.pca.dim()
            )));
        }
        if data.rows() == 0 {
            return Ok(Vec::new());
        }
        Ok(self.encoder.encode_all(&self.pca.transform(data)?))
    }
}

/// Tombstone bitmap over a segment's local rows plus a live-count cache.
/// Cloned (O(n/64) words, or an `Arc` bump while mapped) whenever a
/// delete produces a new snapshot. A mapped index borrows the words from
/// the file; the first `kill` materializes an owned copy (copy-on-write).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Tombstones {
    words: U64Storage,
    dead: usize,
}

impl Tombstones {
    pub(crate) fn with_len(n: usize) -> Tombstones {
        Tombstones { words: vec![0u64; n.div_ceil(64)].into(), dead: 0 }
    }

    pub(crate) fn is_dead(&self, i: usize) -> bool {
        self.words.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    /// Marks row `i` dead; `true` when the bit was newly set.
    pub(crate) fn kill(&mut self, i: usize) -> bool {
        if self.words.get(i / 64).is_none_or(|w| (w >> (i % 64)) & 1 != 0) {
            return false;
        }
        self.words.to_mut()[i / 64] |= 1u64 << (i % 64);
        self.dead += 1;
        true
    }

    pub(crate) fn dead(&self) -> usize {
        self.dead
    }

    /// Rebuilds a bitmap from persisted parts, owned or a window of a
    /// mapped file. The audit checks sizing, popcount and tail bits at
    /// open — even when mapped: deletes mutate the bitmap, so it cannot
    /// be lazy.
    pub(crate) fn from_storage(words: U64Storage, dead: usize) -> Tombstones {
        Tombstones { words, dead }
    }

    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The bitmap's mapped span, for the VAQ113 bounds/alignment audit
    /// (`None` once a delete has copied it out, or when owned all along).
    pub(crate) fn mapped_span(&self) -> Option<vaq_linalg::MappedSpan> {
        self.words.mapped_span()
    }

    /// The bitmap for [`IndexView::with_dead`]; `None` while nothing is
    /// dead so fully live segments skip the per-row check entirely.
    fn filter(&self) -> Option<&[u64]> {
        (self.dead > 0).then_some(self.words.as_slice())
    }
}

/// The global ids of a sealed segment's rows, strictly ascending. Only
/// the k survivors of a scan are ever translated through them, so the
/// representation is chosen for size: nothing but the ids themselves
/// selects between the two.
#[derive(Debug, Clone)]
pub(crate) enum SegmentIds {
    /// Row `r` holds id `first + r`. Ids are allocated and buffered under
    /// the one writer lock, so every segment sealed from the buffer — and
    /// every merge that drops no row between two such neighbours — is a
    /// contiguous range and stores no id at all.
    Dense(u32),
    /// One stored id per row: what a purge or a row-dropping merge leaves.
    /// Borrowed from the index file when mapped.
    Column(U32Storage),
}

/// First and last id of the dense range `first..first + rows` (`None`
/// when empty), which loaders have bounded by the id space.
fn dense_span(first: u32, rows: usize) -> Option<(u32, u32)> {
    Some((first, first + rows.checked_sub(1)? as u32))
}

/// Row of `id` in the dense range `first..first + rows`.
fn dense_row(first: u32, rows: usize, id: u32) -> Option<usize> {
    id.checked_sub(first).map(|row| row as usize).filter(|&row| row < rows)
}

impl SegmentIds {
    /// The representation of strictly ascending `ids`: a dense range when
    /// they are contiguous, the column otherwise.
    fn from_ascending(ids: Vec<u32>) -> SegmentIds {
        match (ids.first(), ids.last()) {
            (Some(&first), Some(&last)) if (last - first) as usize == ids.len() - 1 => {
                SegmentIds::Dense(first)
            }
            _ => SegmentIds::Column(ids.into()),
        }
    }

    /// The stored ids — empty for a dense range, and exactly what the
    /// segment's ids extent holds on disk.
    pub(crate) fn column(&self) -> &[u32] {
        match self {
            SegmentIds::Dense(_) => &[],
            SegmentIds::Column(ids) => ids,
        }
    }
}

/// The immutable payload of a sealed segment: codes, global ids, the
/// blocked packing, and the rows' TI partition. Shared by `Arc`
/// across snapshots; only the tombstone bitmap beside it ever changes.
/// A [`Vaq`] is the trained [`Model`] plus exactly one of these. The
/// arrays are [`U32Storage`]/[`U16Storage`] so an out-of-core index can
/// borrow them from a mapped index file instead of copying.
#[derive(Debug, Clone)]
pub(crate) struct SegmentCore {
    pub(crate) ids: SegmentIds,
    /// Row-major `n × m` codes.
    pub(crate) codes: U16Storage,
    pub(crate) n: usize,
    /// Blocked/transposed codes of the ≤8-bit subspaces for the SIMD
    /// quantized scan — a pure function of `codes` (audit code VAQ110);
    /// inactive when no subspace fits in 8 bits.
    pub(crate) packed: PackedCodes,
    pub(crate) ti: Option<TiPartition>,
    /// Deferred CRC + content verification for a mapped segment's packed
    /// extent. `None` for owned segments, whose arrays are all verified
    /// at parse time.
    pub(crate) lazy: Option<Arc<crate::persist::LazyExtents>>,
}

impl SegmentCore {
    /// Verifies a mapped segment's packing (its checksum, then VAQ110)
    /// exactly once, before a quantized search or a `save_mapped` first
    /// reads it; leaving it unverified until then keeps those pages
    /// non-resident. Every other array was verified at open, and owned
    /// segments return `Ok` immediately.
    pub(crate) fn ensure_verified(&self, enc: &Encoder) -> Result<(), VaqError> {
        match &self.lazy {
            None => Ok(()),
            Some(lazy) => lazy.verify_once(self, enc),
        }
    }

    /// The [`IndexView`] every pruned scan path runs over: codes, TI
    /// partition and blocked packing, owned or mapped alike.
    pub(crate) fn view<'a>(&'a self, encoder: &'a Encoder) -> IndexView<'a> {
        IndexView::from_encoder(encoder, &self.codes, self.n)
            .with_ti(self.ti.as_ref())
            .with_packed(Some(&self.packed))
    }

    /// Global id of local row `row`.
    pub(crate) fn id_of(&self, row: usize) -> u32 {
        match &self.ids {
            SegmentIds::Dense(first) => first + row as u32,
            SegmentIds::Column(ids) => ids[row],
        }
    }

    /// Local row of a global id, if this segment holds it.
    fn local_of(&self, id: u32) -> Option<usize> {
        match &self.ids {
            SegmentIds::Dense(first) => dense_row(*first, self.n, id),
            SegmentIds::Column(ids) => ids.binary_search(&id).ok(),
        }
    }

    /// First and last global id; `None` for a segment without rows.
    pub(crate) fn id_span(&self) -> Option<(u32, u32)> {
        match &self.ids {
            SegmentIds::Dense(first) => dense_span(*first, self.n),
            SegmentIds::Column(ids) => Some((*ids.first()?, *ids.last()?)),
        }
    }
}

/// One sealed segment inside a snapshot: the shared immutable core plus
/// this snapshot's tombstone bitmap.
#[derive(Debug, Clone)]
pub(crate) struct Segment {
    pub(crate) core: Arc<SegmentCore>,
    pub(crate) tombstones: Tombstones,
}

impl Segment {
    fn live(&self) -> usize {
        self.core.n - self.tombstones.dead()
    }

    fn dead_frac(&self) -> f64 {
        if self.core.n == 0 {
            0.0
        } else {
            self.tombstones.dead() as f64 / self.core.n as f64
        }
    }
}

/// The mutable-by-replacement write buffer: plain codes scanned exactly.
/// Its rows hold the ids `first_id..first_id + rows` — appends take fresh
/// ids under the writer lock and a seal removes a prefix.
#[derive(Debug, Clone, Default)]
pub(crate) struct Buffer {
    pub(crate) first_id: u32,
    pub(crate) rows: usize,
    /// Row-major `rows × m` codes.
    pub(crate) codes: Vec<u16>,
    pub(crate) tombstones: Tombstones,
}

impl Buffer {
    fn live(&self) -> usize {
        self.rows - self.tombstones.dead()
    }

    /// Local row of a global id, if it is buffered.
    fn local_of(&self, id: u32) -> Option<usize> {
        dense_row(self.first_id, self.rows, id)
    }

    /// First and last buffered id; `None` while the buffer is empty.
    pub(crate) fn id_span(&self) -> Option<(u32, u32)> {
        dense_span(self.first_id, self.rows)
    }
}

/// One immutable snapshot of the whole index: sealed segments (sorted by
/// first id, id ranges pairwise disjoint) plus the write buffer. Readers
/// hold an `Arc<SegmentSet>`; writers install a new one atomically.
#[derive(Debug, Clone)]
pub struct SegmentSet {
    pub(crate) segments: Vec<Segment>,
    pub(crate) buffer: Arc<Buffer>,
}

impl SegmentSet {
    /// Live (non-tombstoned) rows across segments and buffer.
    pub fn live_len(&self) -> usize {
        self.segments.iter().map(Segment::live).sum::<usize>() + self.buffer.live()
    }

    /// Sealed segment count.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Rows currently in the write buffer (including tombstoned ones).
    pub fn buffer_len(&self) -> usize {
        self.buffer.rows
    }
}

// ---------------------------------------------------------------------------
// Shared state + the public handle
// ---------------------------------------------------------------------------

/// Serialized writer state. Every mutation (add/delete/install) happens
/// under this mutex; the query path never touches it.
#[derive(Debug, Default)]
pub(crate) struct WriterState {
    pub(crate) next_id: u32,
    /// A seal/compaction pass is running, inline on the writer that
    /// claimed this flag; at most one at a time.
    maintenance: bool,
}

#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) model: Arc<Model>,
    pub(crate) policy: SegmentPolicy,
    /// Bumped (release) after every snapshot install; searchers
    /// re-validate their cached snapshot against it with one atomic load.
    version: AtomicU64,
    current: RwLock<Arc<SegmentSet>>,
    pub(crate) writer: Mutex<WriterState>,
    /// The write-ahead log, when the index is durable (attached by
    /// [`SegmentedVaq::make_durable`] / [`SegmentedVaq::open_durable`]).
    /// Lock order: `writer` before `journal`, always — appends happen
    /// under the writer lock so WAL order equals apply order.
    journal: Mutex<Option<wal::Journal>>,
}

/// Poison-tolerant lock helpers: index state must stay reachable even if
/// a panicking holder poisoned a lock (the data is a plain snapshot).
fn wlock(shared: &Shared) -> MutexGuard<'_, WriterState> {
    shared.writer.lock().unwrap_or_else(|e| e.into_inner())
}

fn read_current(shared: &Shared) -> Arc<SegmentSet> {
    shared.current.read().unwrap_or_else(|e| e.into_inner()).clone()
}

fn jlock(shared: &Shared) -> MutexGuard<'_, Option<wal::Journal>> {
    shared.journal.lock().unwrap_or_else(|e| e.into_inner())
}

/// Appends one record to the journal, when one is attached — `op` is
/// only built then, so a non-durable index never copies a batch for a
/// log that is not there. The caller must hold the writer lock (lock
/// order: writer → journal) and must NOT have applied the mutation yet —
/// write-ahead means an append failure leaves both the log and the
/// in-memory state at the committed prefix.
fn journal_append(shared: &Shared, op: impl FnOnce() -> wal::WalOp) -> Result<(), VaqError> {
    let mut j = jlock(shared);
    if let Some(j) = j.as_mut() {
        j.append(&op())?;
    }
    Ok(())
}

/// Installs a new snapshot. Callers mutating index *state* must hold the
/// writer mutex around decide→install so snapshots are totally ordered.
fn install(shared: &Shared, set: SegmentSet) {
    let mut cur = shared.current.write().unwrap_or_else(|e| e.into_inner());
    *cur = Arc::new(set);
    drop(cur);
    // ORDERING: Release pairs with the Acquire loads in `searcher` and
    // `SegmentSearcher::refresh`: a reader that observes the bumped
    // version must also observe the RwLock write above that installed
    // the snapshot it is about to re-read. (The swap itself is already
    // ordered by the RwLock; the version is the cheap change signal.)
    shared.version.fetch_add(1, Ordering::Release);
}

/// Installs a snapshot whose write buffer has `codes` appended under the
/// ids `first..first + rows`, and returns the buffered row count. The
/// caller holds the writer lock and took `first` from the id counter, so
/// the range continues the buffer's.
fn append_to_buffer(shared: &Shared, first: u32, rows: usize, codes: &[u16]) -> usize {
    let cur = read_current(shared);
    let mut buffer = (*cur.buffer).clone();
    if buffer.rows == 0 {
        buffer.first_id = first;
    }
    buffer.rows += rows;
    buffer.codes.extend_from_slice(codes);
    // The new rows are live.
    buffer.tombstones.words.to_mut().resize(buffer.rows.div_ceil(64), 0);
    let buffered = buffer.rows;
    install(shared, SegmentSet { segments: cur.segments.clone(), buffer: Arc::new(buffer) });
    buffered
}

/// An LSM-like VAQ index supporting concurrent ingest, deletes, and
/// lock-free snapshot queries. Cheap to clone — clones share all state.
///
/// See the [module docs](self) for the architecture.
#[derive(Debug, Clone)]
pub struct SegmentedVaq {
    shared: Arc<Shared>,
}

impl SegmentedVaq {
    /// Trains a model on `data` (exactly [`Vaq::train`]) and starts the
    /// segmented index with the training set as its first sealed segment.
    pub fn train(
        data: &Matrix,
        cfg: &VaqConfig,
        policy: SegmentPolicy,
    ) -> Result<SegmentedVaq, VaqError> {
        Ok(SegmentedVaq::from_vaq(Vaq::train(data, cfg)?, policy))
    }

    /// Wraps an already-trained [`Vaq`] as a segmented index: its model
    /// becomes the shared model and its one segment (ids `0..n`) sealed
    /// segment 0 — a move, so searches return exactly what the [`Vaq`]
    /// returned.
    pub fn from_vaq(vaq: Vaq, policy: SegmentPolicy) -> SegmentedVaq {
        let (n, tombstones) = (vaq.core.n, Tombstones::with_len(vaq.core.n));
        let segments = vec![Segment { core: vaq.core, tombstones }];
        SegmentedVaq::from_parts(vaq.model, policy, segments, Buffer::default(), n as u32)
    }

    /// Assembles an index from its parts (see `crate::persist`).
    pub(crate) fn from_parts(
        model: Model,
        policy: SegmentPolicy,
        segments: Vec<Segment>,
        buffer: Buffer,
        next_id: u32,
    ) -> SegmentedVaq {
        let set = SegmentSet { segments, buffer: Arc::new(buffer) };
        SegmentedVaq {
            shared: Arc::new(Shared {
                model: Arc::new(model),
                policy,
                version: AtomicU64::new(0),
                current: RwLock::new(Arc::new(set)),
                writer: Mutex::new(WriterState { next_id, ..WriterState::default() }),
                journal: Mutex::new(None),
            }),
        }
    }

    /// The maintenance policy.
    pub fn policy(&self) -> &SegmentPolicy {
        &self.shared.policy
    }

    /// Per-subspace bit allocation of the shared model.
    pub fn bits(&self) -> &[usize] {
        &self.shared.model.bits
    }

    /// The shared model's subspace layout.
    pub fn layout(&self) -> &SubspaceLayout {
        &self.shared.model.layout
    }

    /// The current snapshot (cheap: one `RwLock` read + `Arc` clone).
    pub fn snapshot(&self) -> Arc<SegmentSet> {
        read_current(&self.shared)
    }

    pub(crate) fn shared_model(&self) -> &Model {
        &self.shared.model
    }

    /// `(snapshot, next_id, maintenance pass in flight)`, read under one
    /// writer-lock acquisition, so no add, seal or flag change slips
    /// between them: what the audit checks and what a save writes.
    pub(crate) fn writer_cut(&self) -> (Arc<SegmentSet>, u32, bool) {
        let st = wlock(&self.shared);
        (read_current(&self.shared), st.next_id, st.maintenance)
    }

    /// Admits an index assembled from untrusted bytes: the audit must pass
    /// (`arrays` as in [`crate::audit::audit_index`]), then the VAQ111
    /// quiescence invariant is restored — an index serialized mid-ingest
    /// can carry a buffer at or above the seal threshold, which a live
    /// index only exhibits while a maintenance pass is in flight. The
    /// pass is claimed first and run last, so no seal decodes a buffered
    /// code through the dictionaries before VAQ106 has vouched for it.
    pub(crate) fn admit_loaded(
        &self,
        after: &str,
        arrays: impl Fn(&SegmentCore) -> crate::audit::ArrayParts,
    ) -> Result<(), VaqError> {
        let claimed = {
            let mut st = wlock(&self.shared);
            let pending = !st.maintenance
                && read_current(&self.shared).buffer.rows >= self.shared.policy.seal_threshold;
            st.maintenance |= pending;
            pending
        };
        crate::persist::audited(crate::audit::audit_index(self, arrays), after)?;
        if claimed {
            maintenance_task(&self.shared);
        }
        Ok(())
    }

    /// Live (non-deleted) vector count.
    pub fn len(&self) -> usize {
        self.snapshot().live_len()
    }

    /// `true` when no live vectors remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Global ids of every live vector, ascending.
    pub fn live_ids(&self) -> Vec<u32> {
        let set = self.snapshot();
        let mut out = Vec::with_capacity(set.live_len());
        for seg in &set.segments {
            out.extend(
                (0..seg.core.n).filter(|&i| !seg.tombstones.is_dead(i)).map(|i| seg.core.id_of(i)),
            );
        }
        let buf = &set.buffer;
        out.extend(
            (0..buf.rows).filter(|&i| !buf.tombstones.is_dead(i)).map(|i| buf.first_id + i as u32),
        );
        out
    }

    /// `true` when `id` exists and is not tombstoned.
    pub fn contains(&self, id: u32) -> bool {
        let set = self.snapshot();
        for seg in &set.segments {
            if let Some(local) = seg.core.local_of(id) {
                return !seg.tombstones.is_dead(local);
            }
        }
        set.buffer.local_of(id).is_some_and(|local| !set.buffer.tombstones.is_dead(local))
    }

    /// Encodes and appends the rows of `data` into the write buffer,
    /// returning their assigned global ids. The rows are searchable as
    /// soon as this returns. When they bring the buffer to the seal
    /// threshold and no pass is running, this call runs the seal (and
    /// any compaction it makes eligible) before returning; a pass already
    /// running on another writer picks the rows up instead.
    pub fn add(&self, data: &Matrix) -> Result<Vec<u32>, VaqError> {
        let new_codes = self.shared.model.encode(data)?;
        if data.rows() == 0 {
            return Ok(Vec::new());
        }

        let claimed;
        let ids: Vec<u32>;
        {
            let mut st = wlock(&self.shared);
            let rows = data.rows() as u64;
            if u64::from(st.next_id) + rows > u64::from(u32::MAX) {
                return Err(VaqError::BadConfig("id space exhausted (u32 ids)".into()));
            }
            let first = st.next_id;
            // Write-ahead: the record must be durable before the state
            // changes; on append failure nothing was applied and the
            // caller sees the error.
            journal_append(&self.shared, || wal::WalOp::Add {
                first_id: first,
                rows: data.rows(),
                codes: new_codes.clone(),
            })?;
            st.next_id += data.rows() as u32;
            ids = (first..st.next_id).collect();
            let buffered = append_to_buffer(&self.shared, first, data.rows(), &new_codes);
            claimed = buffered >= self.shared.policy.seal_threshold && !st.maintenance;
            st.maintenance |= claimed;
        }
        if claimed {
            maintenance_task(&self.shared);
        }
        Ok(ids)
    }

    /// Tombstones `id`. Returns `true` when the id existed and was live.
    /// The row stops appearing in queries with the next snapshot; its
    /// storage is reclaimed by compaction. On a durable index a failed
    /// WAL append surfaces as `false` (nothing was deleted); use
    /// [`SegmentedVaq::try_delete`] to distinguish "not found" from an IO
    /// failure.
    pub fn delete(&self, id: u32) -> bool {
        self.try_delete(id).unwrap_or(false)
    }

    /// [`SegmentedVaq::delete`] with the IO error surfaced: on a durable
    /// index the tombstone record must reach the write-ahead log before
    /// the in-memory state changes, and that append can fail.
    pub fn try_delete(&self, id: u32) -> Result<bool, VaqError> {
        let claimed;
        let killed;
        {
            let mut st = wlock(&self.shared);
            let cur = read_current(&self.shared);
            let mut purge_eligible = false;
            let mut next: Option<SegmentSet> = None;
            let sealed = cur
                .segments
                .iter()
                .enumerate()
                .find_map(|(pos, seg)| Some((pos, seg.core.local_of(id)?)));
            if let Some((pos, local)) = sealed {
                let mut segments = cur.segments.clone();
                if segments[pos].tombstones.kill(local) {
                    purge_eligible =
                        segments[pos].dead_frac() >= self.shared.policy.tombstone_purge_frac;
                    next = Some(SegmentSet { segments, buffer: Arc::clone(&cur.buffer) });
                }
            } else if let Some(local) = cur.buffer.local_of(id) {
                let mut buffer = (*cur.buffer).clone();
                if buffer.tombstones.kill(local) {
                    next = Some(SegmentSet {
                        segments: cur.segments.clone(),
                        buffer: Arc::new(buffer),
                    });
                }
            }
            killed = next.is_some();
            if let Some(set) = next {
                // Write-ahead: the tombstone record goes to the log
                // before the snapshot flips; a failed append applies
                // nothing.
                journal_append(&self.shared, || wal::WalOp::Delete { id })?;
                install(&self.shared, set);
            }
            claimed = purge_eligible && !st.maintenance;
            st.maintenance |= claimed;
        }
        if claimed {
            maintenance_task(&self.shared);
        }
        Ok(killed)
    }

    /// Replaces `id` with a re-encoded `vector`: tombstones the old row
    /// and appends the new one under a fresh id (returned). `Ok(None)`
    /// when `id` was not live. The two steps are individually atomic but
    /// a concurrent reader may observe the gap between them.
    pub fn update(&self, id: u32, vector: &[f32]) -> Result<Option<u32>, VaqError> {
        if !self.try_delete(id)? {
            return Ok(None);
        }
        let ids = self.add(&Matrix::from_rows(&[vector.to_vec()]))?;
        Ok(ids.first().copied())
    }

    /// Searches with the model's default strategy. Convenience wrapper —
    /// query loops should hold a [`SegmentedVaq::searcher`] instead.
    pub fn search(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, VaqError> {
        Ok(self.search_with(query, k, self.shared.model.default_strategy)?.0)
    }

    /// Searches with an explicit strategy, returning work counters summed
    /// over all segments plus the buffer.
    pub fn search_with(
        &self,
        query: &[f32],
        k: usize,
        strategy: SearchStrategy,
    ) -> Result<(Vec<Neighbor>, SearchStats), VaqError> {
        let set = self.snapshot();
        let mut engine = QueryEngine::new();
        search_set(&self.shared.model, &set, &mut engine, query, k, strategy)
    }

    /// A reusable per-thread query handle: caches the snapshot and the
    /// table arena, so the steady-state query path performs one relaxed
    /// atomic load and zero locks/allocations.
    pub fn searcher(&self) -> SegmentSearcher {
        // ORDERING: Acquire pairs with the Release bump in `install`.
        // The version MUST be read before the snapshot (seqlock order):
        // the cached version is then never newer than the cached set, so
        // an install racing between the two reads only costs `refresh` a
        // spurious re-clone. Reading set-then-version could pair a new
        // version with a stale set and pin the searcher to it forever —
        // the loom suite (`snapshots_never_regress`) catches exactly
        // that inversion.
        let version = self.shared.version.load(Ordering::Acquire);
        let set = self.snapshot();
        SegmentSearcher {
            shared: Arc::clone(&self.shared),
            version,
            set,
            engine: QueryEngine::new(),
        }
    }

    /// Drains pending maintenance synchronously: waits out a pass running
    /// on another writer, then seals and compacts inline until the buffer
    /// is below the seal threshold and no compaction is eligible. Queries
    /// keep running.
    pub fn flush(&self) {
        loop {
            let claimed = {
                let mut st = wlock(&self.shared);
                // A pass running on another writer: wait and re-check.
                let claim = !st.maintenance;
                if claim {
                    let cur = read_current(&self.shared);
                    if cur.buffer.rows < self.shared.policy.seal_threshold
                        && pick_compaction(&cur, &self.shared.policy).is_none()
                    {
                        return;
                    }
                    st.maintenance = true;
                }
                claim
            };
            if claimed {
                maintenance_task(&self.shared);
            } else {
                thread::yield_now();
            }
        }
    }

    /// Makes the index durable at `path`: atomically commits a
    /// checksummed manifest snapshot (see [`SegmentedVaq::save`])
    /// and attaches a fresh write-ahead log at `<path>.wal`. From this
    /// point every `add`/`delete`/`update` is logged *before* it is
    /// applied, so after a crash [`SegmentedVaq::open_durable`] recovers
    /// the exact pre-crash logical state. Calling this again on an
    /// already-durable index is a **checkpoint**: the manifest absorbs
    /// the logged suffix and the log restarts empty.
    ///
    /// Writers are quiesced for the duration (manifest bytes, WAL state,
    /// and id counter must form one consistent cut); queries keep
    /// running.
    pub fn make_durable(&self, path: &Path) -> Result<(), VaqError> {
        let _span = crate::obs::span("segment.checkpoint");
        let st = wlock(&self.shared);
        let mut jl = jlock(&self.shared);
        let last_seq = jl.as_ref().map(|j| j.wal.last_seq()).unwrap_or(0);
        let set = read_current(&self.shared);
        crate::persist::commit_set(
            path,
            &self.shared.model,
            &self.shared.policy,
            &set,
            st.next_id,
            last_seq,
            false,
        )?;
        // Manifest committed: restart the log. A crash between the two
        // leaves the old WAL in place, whose records all sit at or below
        // the manifest's watermark and are skipped on replay.
        let w = wal::Wal::create(&wal::wal_path(path), last_seq)?;
        *jl = Some(wal::Journal {
            wal: w,
            manifest_path: path.to_path_buf(),
            base_next_id: st.next_id,
            add_ranges: Vec::new(),
        });
        crate::obs::event(
            "segment.checkpoint",
            &format!("manifest committed at wal_seq {last_seq}"),
        );
        Ok(())
    }

    /// Checkpoints a durable index to the manifest path registered by
    /// [`SegmentedVaq::make_durable`] / [`SegmentedVaq::open_durable`];
    /// errors when the index is not durable.
    pub fn checkpoint(&self) -> Result<(), VaqError> {
        let path = {
            let jl = jlock(&self.shared);
            match jl.as_ref() {
                Some(j) => j.manifest_path.clone(),
                None => {
                    return Err(VaqError::BadConfig(
                        "index is not durable: call make_durable(path) first".into(),
                    ))
                }
            }
        };
        self.make_durable(&path)
    }

    /// Opens a durable index: loads the manifest at `path`,
    /// replays the write-ahead-log suffix past the manifest's watermark
    /// (truncating a torn tail record instead of erroring — the op it
    /// logged never returned success), re-audits, and re-attaches the
    /// journal so the index continues durably. Recovery reaches the
    /// exact logical state of every acknowledged mutation before the
    /// crash.
    pub fn open_durable(path: &Path) -> Result<SegmentedVaq, VaqError> {
        let _span = crate::obs::span("segment.recover");
        let (index, manifest_seq) = SegmentedVaq::load_with_seq(path)?;
        let (loaded, base_next_id, _) = index.writer_cut();
        // A stale staging file from an interrupted commit is dead weight;
        // the rename never happened, so it holds a torn manifest.
        if std::fs::remove_file(crate::persist::tmp_path(path)).is_ok() {
            crate::obs::event("segment.recover", "removed stale staging file");
        }
        let wal_file = wal::wal_path(path);
        let scan = wal::scan(&wal_file)?;
        if scan.torn {
            crate::obs::counter_add("wal.torn_tail_truncated", 1);
            crate::obs::event("segment.recover", "truncated torn wal tail");
        }
        let mut last_seq = manifest_seq;
        let mut replayed = 0u64;
        let mut add_ranges: Vec<(u32, u32)> = Vec::new();
        for rec in &scan.records {
            if rec.seq <= manifest_seq {
                // Already baked into the manifest (a checkpoint crashed
                // between the manifest rename and the WAL restart).
                continue;
            }
            if rec.seq != last_seq + 1 {
                return Err(wal::corrupt("sequence gap after the manifest watermark"));
            }
            index.apply_wal(&rec.op)?;
            if let wal::WalOp::Add { first_id, rows, .. } = rec.op {
                let end = first_id.saturating_add(u32::try_from(rows).unwrap_or(u32::MAX));
                match add_ranges.last_mut() {
                    Some(last) if last.1 == first_id => last.1 = end,
                    _ => add_ranges.push((first_id, end)),
                }
            }
            last_seq = rec.seq;
            replayed += 1;
        }
        // Replayed records are as untrusted as the manifest: re-run the
        // audit on the recovered state, walking the scan arrays only of
        // the segments built since the load above walked the others'
        // (`build_core` derived their packings from those very codes).
        index.admit_loaded("recovery", |core| crate::audit::ArrayParts {
            scan: !loaded.segments.iter().any(|seg| std::ptr::eq(&*seg.core, core)),
            packed: false,
        })?;
        crate::obs::counter_add("wal.replayed", replayed);
        crate::obs::event(
            "segment.recover",
            &format!("replayed {replayed} wal record(s) past watermark {manifest_seq}"),
        );
        let w = wal::Wal::open_append(&wal_file, scan.clean_len, last_seq)?;
        {
            let _st = wlock(&index.shared);
            let mut jl = jlock(&index.shared);
            *jl = Some(wal::Journal {
                wal: w,
                manifest_path: path.to_path_buf(),
                base_next_id,
                add_ranges,
            });
        }
        Ok(index)
    }

    /// Applies one replayed WAL record. Maintenance is not logged: it is
    /// re-derived from policy, and the logical state replay must
    /// reproduce does not depend on segmentation.
    fn apply_wal(&self, op: &wal::WalOp) -> Result<(), VaqError> {
        match op {
            wal::WalOp::Add { first_id, rows, codes } => {
                self.apply_wal_add(*first_id, *rows, codes)
            }
            wal::WalOp::Delete { id } => {
                // Idempotent: the id may already be gone (e.g. logged
                // twice around a checkpoint race). No journal is attached
                // during replay, so nothing is re-logged.
                let _ = self.try_delete(*id)?;
                Ok(())
            }
        }
    }

    /// Replays one logged add: appends the already-encoded codes to the
    /// write buffer under the ids the original add assigned. The codes
    /// are untrusted (they came from disk) and are range-checked against
    /// the dictionaries exactly like manifest codes.
    fn apply_wal_add(&self, first_id: u32, rows: usize, codes: &[u16]) -> Result<(), VaqError> {
        let model = &self.shared.model;
        let m = model.encoder.num_subspaces();
        let expect = rows.checked_mul(m).ok_or_else(|| wal::corrupt("add size overflow"))?;
        if rows == 0 || codes.len() != expect {
            return Err(wal::corrupt("add record shape mismatch"));
        }
        let mut report = crate::audit::AuditReport::new();
        crate::audit::audit_codes(&mut report, codes, rows, &model.encoder);
        if let Some(issue) = report.issues().first() {
            return Err(wal::corrupt(&issue.to_string()));
        }
        let rows_u32 =
            u32::try_from(rows).map_err(|_| wal::corrupt("add row count does not fit u32"))?;
        let mut st = wlock(&self.shared);
        let end = u64::from(first_id) + u64::from(rows_u32);
        if end > u64::from(u32::MAX) {
            return Err(wal::corrupt("add range exhausts the id space"));
        }
        if first_id < st.next_id {
            if end <= u64::from(st.next_id) {
                // Entire range already in the snapshot: idempotent skip.
                crate::obs::counter_add("wal.replay_skipped", 1);
                return Ok(());
            }
            return Err(wal::corrupt("add range overlaps the snapshot"));
        }
        if first_id > st.next_id {
            return Err(wal::corrupt("add range leaves an id gap"));
        }
        st.next_id = first_id + rows_u32;
        append_to_buffer(&self.shared, first_id, rows, codes);
        Ok(())
    }

    /// A point-in-time journal summary for the audit (VAQ112), or `None`
    /// when the index is not durable. Captured under the writer lock so
    /// `next_id` and the logged ranges form one consistent cut.
    pub(crate) fn wal_summary(&self) -> Option<wal::WalSummary> {
        let st = wlock(&self.shared);
        let jl = jlock(&self.shared);
        jl.as_ref().map(|j| wal::WalSummary {
            base_next_id: j.base_next_id,
            add_ranges: j.add_ranges.clone(),
            last_seq: j.wal.last_seq(),
            next_id: st.next_id,
        })
    }
}

// ---------------------------------------------------------------------------
// Query fan-out
// ---------------------------------------------------------------------------

/// A snapshot-caching query handle. `search` re-validates the cached
/// snapshot with one atomic version load; only when a writer installed a
/// new snapshot does it take the brief `RwLock` read to re-clone. Hold
/// one per query thread.
#[derive(Debug)]
pub struct SegmentSearcher {
    shared: Arc<Shared>,
    version: u64,
    set: Arc<SegmentSet>,
    engine: QueryEngine,
}

impl SegmentSearcher {
    /// Re-validates the cached snapshot (one atomic load; re-clones only
    /// after a write). Called automatically by the search methods.
    pub fn refresh(&mut self) {
        // ORDERING: Acquire pairs with the Release bump in `install`: if
        // this load observes the new version, the RwLock read below is
        // guaranteed to observe (at least) the snapshot that bump
        // published, so the searcher can never cache a version number
        // newer than the snapshot it holds.
        let v = self.shared.version.load(Ordering::Acquire);
        if v != self.version {
            self.set = read_current(&self.shared);
            self.version = v;
        }
    }

    /// The snapshot this searcher currently queries.
    pub fn snapshot(&self) -> &SegmentSet {
        &self.set
    }

    /// Searches with the model's default strategy.
    pub fn search(&mut self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, VaqError> {
        let strategy = self.shared.model.default_strategy;
        Ok(self.search_with(query, k, strategy)?.0)
    }

    /// Searches with an explicit strategy.
    pub fn search_with(
        &mut self,
        query: &[f32],
        k: usize,
        strategy: SearchStrategy,
    ) -> Result<(Vec<Neighbor>, SearchStats), VaqError> {
        self.refresh();
        search_set(&self.shared.model, &self.set, &mut self.engine, query, k, strategy)
    }
}

/// Fans one query out over every segment plus the buffer and k-way-merges
/// the partial top-k (sort by `(distance, global id)`, truncate). Every
/// view shares the model's dictionaries and TI centroids, so the tables
/// are filled and the clusters ranked once per query, and every segment
/// visits the same clusters. Stats are summed; distances come back in
/// metric (unsquared) space.
fn search_set(
    model: &Model,
    set: &SegmentSet,
    engine: &mut QueryEngine,
    query: &[f32],
    k: usize,
    strategy: SearchStrategy,
) -> Result<(Vec<Neighbor>, SearchStats), VaqError> {
    let projected = model.pca.transform_vec(query)?;
    let t0 = crate::obs::enabled().then(std::time::Instant::now);
    let before = engine.arena().reallocations();
    let ti = set.segments.iter().find_map(|seg| seg.core.ti.as_ref());
    // One ranking serves every segment because they share the centroids.
    let shared = |t: &TiPartition| ti.is_some_and(|ti| Arc::ptr_eq(&t.centroids, &ti.centroids));
    debug_assert!(set.segments.iter().all(|seg| seg.core.ti.as_ref().is_none_or(shared)));
    engine.prepare(&IndexView::from_encoder(&model.encoder, &[], 0).with_ti(ti), &projected);
    let realloc = engine.arena().reallocations() - before;
    let mut stats = SearchStats { table_reallocations: realloc, ..SearchStats::default() };
    let mut merged: Vec<Neighbor> = Vec::new();
    for seg in &set.segments {
        if seg.live() == 0 {
            continue;
        }
        // A mapped segment's packing is verified before the first scan
        // that reads it; a failure is a typed corruption error, never a
        // wrong answer or a panic.
        if matches!(strategy, SearchStrategy::Quantized) {
            seg.core.ensure_verified(&model.encoder)?;
        }
        let view = seg.core.view(&model.encoder).with_dead(seg.tombstones.filter());
        let (part, s) = engine.search_prepared(&view, k, strategy);
        stats += s;
        merged.extend(
            part.into_iter().map(|nb| Neighbor { index: seg.core.id_of(nb.index as usize), ..nb }),
        );
    }
    if set.buffer.live() > 0 {
        // The buffer view has no TI partition and no packing, so the
        // engine scans it *exactly* with early abandoning under either
        // pruning strategy.
        let view = IndexView::from_encoder(&model.encoder, &set.buffer.codes, set.buffer.rows)
            .with_dead(set.buffer.tombstones.filter());
        let (part, s) = engine.search_prepared(&view, k, strategy);
        stats += s;
        merged.extend(
            part.into_iter().map(|nb| Neighbor { index: set.buffer.first_id + nb.index, ..nb }),
        );
    }
    merged.sort();
    merged.truncate(k);
    for nb in merged.iter_mut() {
        nb.distance = nb.distance.max(0.0).sqrt();
    }
    crate::engine::observe_query(t0, &stats);
    Ok((merged, stats))
}

// ---------------------------------------------------------------------------
// Maintenance: seal + compaction
// ---------------------------------------------------------------------------

/// One maintenance pass, run inline by the writer that claimed the
/// `maintenance` flag: seal the frozen buffer, compact until quiescent,
/// and repeat while other writers refilled the buffer past the threshold
/// in the meantime. The flag is held for the whole pass and cleared at
/// the end — the final re-check happens under the writer lock, so
/// whenever the flag is down the buffer is below the seal threshold
/// (audit code VAQ111).
fn maintenance_task(shared: &Shared) {
    loop {
        seal_step(shared);
        compact_step(shared);
        let mut st = wlock(shared);
        if read_current(shared).buffer.rows < shared.policy.seal_threshold.max(1) {
            st.maintenance = false;
            return;
        }
    }
}

/// Packs the current buffer prefix into a new sealed segment. The
/// expensive work (packing + assigning the rows to the model's TI
/// centroids) runs without any lock
/// against a frozen prefix — adds only append past it and deletes only
/// set bits, which are re-read at install time.
fn seal_step(shared: &Shared) {
    let frozen = read_current(shared);
    let rows = frozen.buffer.rows;
    if rows == 0 {
        return;
    }
    let _span = crate::obs::span("segment.seal");
    let ids = SegmentIds::Dense(frozen.buffer.first_id);
    let core = build_core(&shared.model, ids, frozen.buffer.codes.clone(), None);

    let _st = wlock(shared);
    let cur = read_current(shared);
    // The frozen prefix is still the buffer's prefix (appends only grow
    // it); carry over any tombstones set while the build ran.
    let mut tombstones = Tombstones::with_len(rows);
    for i in 0..rows {
        if cur.buffer.tombstones.is_dead(i) {
            tombstones.kill(i);
        }
    }
    let m = shared.model.encoder.num_subspaces();
    let mut rest = Buffer {
        first_id: cur.buffer.first_id + rows as u32,
        rows: cur.buffer.rows - rows,
        codes: cur.buffer.codes[rows * m..].to_vec(),
        tombstones: Tombstones::with_len(cur.buffer.rows - rows),
    };
    for i in rows..cur.buffer.rows {
        if cur.buffer.tombstones.is_dead(i) {
            rest.tombstones.kill(i - rows);
        }
    }
    let mut segments = cur.segments.clone();
    segments.push(Segment { core: Arc::new(core), tombstones });
    let total = segments.len();
    install(shared, SegmentSet { segments, buffer: Arc::new(rest) });
    crate::obs::event("segment.seal", &format!("sealed {rows} rows; {total} segments"));
}

/// What the compaction loop should do next, against one snapshot.
enum CompactionJob {
    /// Rewrite segment `i` dropping its tombstoned rows.
    Purge(usize),
    /// Merge adjacent segments `i` and `i + 1`.
    Merge(usize),
}

fn pick_compaction(set: &SegmentSet, policy: &SegmentPolicy) -> Option<CompactionJob> {
    // Purges first: they shrink data and can unblock better merges.
    for (i, seg) in set.segments.iter().enumerate() {
        if seg.tombstones.dead() > 0 && seg.dead_frac() >= policy.tombstone_purge_frac {
            return Some(CompactionJob::Purge(i));
        }
    }
    if set.segments.len() >= policy.compact_min_segments {
        // Merge the adjacent pair with the fewest combined live rows —
        // adjacency keeps per-segment id ranges disjoint and ascending.
        let best = set
            .segments
            .windows(2)
            .enumerate()
            .min_by_key(|(_, w)| w[0].live() + w[1].live())
            .map(|(i, _)| i);
        if let Some(i) = best {
            return Some(CompactionJob::Merge(i));
        }
    }
    None
}

/// Merges small adjacent segments and purges tombstones until no job is
/// eligible. Each rebuild runs without locks against a frozen snapshot;
/// deletes that land during the rebuild are re-applied at install.
fn compact_step(shared: &Shared) {
    loop {
        let frozen = read_current(shared);
        let Some(job) = pick_compaction(&frozen, &shared.policy) else { return };
        let _span = crate::obs::span("segment.compact");
        let (pos, len, kind) = match job {
            CompactionJob::Purge(i) => (i, 1usize, "segment.tombstone_purge"),
            CompactionJob::Merge(i) => (i, 2usize, "segment.compact"),
        };
        let srcs = &frozen.segments[pos..pos + len];
        // Gather live rows (at freeze time) in id order, remembering the
        // (segment, local) source of every merged row so deletes that
        // raced the rebuild can be re-applied at install.
        let m = shared.model.encoder.num_subspaces();
        let mut ids = Vec::new();
        let mut codes = Vec::new();
        let mut origins: Vec<(usize, usize)> = Vec::new();
        for (s, seg) in srcs.iter().enumerate() {
            for local in 0..seg.core.n {
                if seg.tombstones.is_dead(local) {
                    continue;
                }
                ids.push(seg.core.id_of(local));
                codes.extend_from_slice(&seg.core.codes[local * m..(local + 1) * m]);
                origins.push((pos + s, local));
            }
        }
        // Every kept row carries its TI assignment: a merge computes no
        // distance.
        let assigned: Option<Vec<Vec<(u32, f32)>>> =
            srcs.iter().map(|seg| seg.core.ti.as_ref().map(TiPartition::assignments)).collect();
        let carried =
            assigned.map(|a| origins.iter().map(|&(s, local)| a[s - pos][local]).collect());
        let dropped: usize = srcs.iter().map(|s| s.tombstones.dead()).sum();
        let merged = (!ids.is_empty())
            .then(|| build_core(&shared.model, SegmentIds::from_ascending(ids), codes, carried));

        let _st = wlock(shared);
        let cur = read_current(shared);
        // Only one maintenance pass runs at a time and nothing else
        // restructures `segments` (deletes swap tombstones, not cores), so
        // the frozen positions still hold the same cores.
        debug_assert!(
            cur.segments.len() == frozen.segments.len()
                && (pos..pos + len)
                    .all(|i| Arc::ptr_eq(&cur.segments[i].core, &frozen.segments[i].core)),
            "segments restructured under a running compaction"
        );
        let mut segments: Vec<Segment> = Vec::with_capacity(cur.segments.len());
        segments.extend_from_slice(&cur.segments[..pos]);
        if let Some(core) = merged {
            let mut tombstones = Tombstones::with_len(core.n);
            for (row, &(s, local)) in origins.iter().enumerate() {
                if cur.segments[s].tombstones.is_dead(local) {
                    tombstones.kill(row);
                }
            }
            segments.push(Segment { core: Arc::new(core), tombstones });
        }
        segments.extend_from_slice(&cur.segments[pos + len..]);
        let total = segments.len();
        install(shared, SegmentSet { segments, buffer: Arc::clone(&cur.buffer) });
        crate::obs::event(
            kind,
            &format!("compacted {len} segment(s), purged {dropped} rows; {total} segments"),
        );
    }
}

/// Builds a sealed segment's immutable payload: the blocked packing plus,
/// when the model has TI centroids, the rows' partition over them — from
/// each row's `carried` (cluster, distance) when a merge knows it, by
/// assigning every row otherwise.
fn build_core(
    model: &Model,
    ids: SegmentIds,
    codes: Vec<u16>,
    carried: Option<Vec<(u32, f32)>>,
) -> SegmentCore {
    let n = codes.len() / model.encoder.num_subspaces();
    let sizes: Vec<usize> = model.encoder.table_sizes().collect();
    let packed = PackedCodes::pack(&codes, &sizes, n);
    crate::obs::note_truncated_packing(&packed, "segment.seal");
    let prefix = model.ti_prefix_subspaces;
    let ti = model.ti_centroids.as_ref().map(|c| match carried {
        Some(assigned) => TiPartition::from_assignments(Arc::clone(c), &assigned, prefix),
        None => TiPartition::assign(&model.encoder, &codes, Arc::clone(c), prefix),
    });
    SegmentCore { ids, codes: codes.into(), n, packed, ti, lazy: None }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_data(n: usize, d: usize, seed: u64) -> Matrix {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(d);
            for j in 0..d {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = ((s >> 40) as f32 / (1u32 << 23) as f32) - 1.0;
                row.push(v * 2.0 / (1.0 + j as f32 * 0.25));
            }
            rows.push(row);
        }
        Matrix::from_rows(&rows)
    }

    fn cfg() -> VaqConfig {
        VaqConfig::new(20, 4).with_ti_clusters(16)
    }

    fn policy() -> SegmentPolicy {
        SegmentPolicy::default().with_seal_threshold(48).with_compact_min_segments(3)
    }

    fn ids_of(hits: &[Neighbor]) -> Vec<u32> {
        hits.iter().map(|h| h.index).collect()
    }

    #[test]
    fn single_segment_matches_the_monolithic_index() {
        let data = toy_data(300, 10, 3);
        let vaq = Vaq::train(&data, &cfg()).unwrap();
        let seg = SegmentedVaq::from_vaq(vaq.clone(), policy());
        for qi in [0usize, 77, 250] {
            let q = data.row(qi);
            for strategy in [
                SearchStrategy::FullScan,
                SearchStrategy::EarlyAbandon,
                SearchStrategy::TiEa { visit_frac: 1.0 },
                SearchStrategy::Quantized,
            ] {
                let mono = vaq.search_with(q, 10, strategy).unwrap().0;
                let segd = seg.search_with(q, 10, strategy).unwrap().0;
                assert_eq!(mono, segd, "query {qi} {strategy:?}");
            }
            // The default-strategy entry point agrees too.
            assert_eq!(vaq.search(q, 5).unwrap(), seg.search(q, 5).unwrap(), "query {qi} default");
        }
    }

    #[test]
    fn adds_cross_seal_boundaries_and_stay_exact() {
        let data = toy_data(400, 8, 9);
        let (train, rest) = (toy_data(120, 8, 9), toy_data(280, 8, 77));
        let _ = data;
        let seg = SegmentedVaq::train(&train, &cfg(), policy()).unwrap();
        // A monolithic oracle over the same rows (FullScan is exact).
        let mut oracle = Vaq::train(&train, &cfg()).unwrap();
        for chunk in 0..7 {
            let rows: Vec<Vec<f32>> = (0..40).map(|i| rest.row(chunk * 40 + i).to_vec()).collect();
            let batch = Matrix::from_rows(&rows);
            let ids = seg.add(&batch).unwrap();
            assert_eq!(ids.len(), 40);
            oracle.add(&batch).unwrap();
        }
        let snap = seg.snapshot();
        assert!(snap.num_segments() > 1, "sealing never triggered");
        assert!(snap.buffer_len() < seg.policy().seal_threshold);
        assert_eq!(seg.len(), 400);
        for qi in [0usize, 50, 150] {
            let q = rest.row(qi);
            let mono = oracle.search_with(q, 12, SearchStrategy::FullScan).unwrap().0;
            let segd = seg.search_with(q, 12, SearchStrategy::FullScan).unwrap().0;
            assert_eq!(mono, segd, "query {qi}");
            // The pruned strategies agree with the exact scan.
            let tiea = seg.search_with(q, 12, SearchStrategy::TiEa { visit_frac: 1.0 }).unwrap().0;
            let qz = seg.search_with(q, 12, SearchStrategy::Quantized).unwrap().0;
            assert_eq!(ids_of(&segd), ids_of(&tiea), "query {qi} TiEa");
            assert_eq!(ids_of(&segd), ids_of(&qz), "query {qi} Quantized");
        }
    }

    #[test]
    fn deletes_hide_rows_in_buffer_and_sealed_segments() {
        let train = toy_data(100, 8, 5);
        let seg = SegmentedVaq::train(&train, &cfg(), policy()).unwrap();
        let extra = toy_data(10, 8, 6);
        let new_ids = seg.add(&extra).unwrap();

        // Sealed-segment delete: row 7's nearest neighbor is itself.
        let q = train.row(7).to_vec();
        assert_eq!(seg.search(&q, 1).unwrap()[0].index, 7);
        assert!(seg.delete(7));
        assert!(!seg.delete(7), "double delete must report false");
        assert!(!seg.contains(7));
        assert_ne!(seg.search(&q, 1).unwrap()[0].index, 7);

        // Buffer delete.
        let qb = extra.row(0).to_vec();
        assert_eq!(seg.search(&qb, 1).unwrap()[0].index, new_ids[0]);
        assert!(seg.delete(new_ids[0]));
        assert_ne!(seg.search(&qb, 1).unwrap()[0].index, new_ids[0]);

        assert_eq!(seg.len(), 108);
        assert!(!seg.delete(9_999), "unknown id");
    }

    #[test]
    fn update_moves_a_row_to_a_fresh_id() {
        let train = toy_data(80, 6, 11);
        let seg = SegmentedVaq::train(&train, &cfg(), policy()).unwrap();
        let moved = vec![9.0f32; 6];
        let new_id = seg.update(3, &moved).unwrap().unwrap();
        assert!(new_id >= 80);
        assert!(!seg.contains(3));
        assert_eq!(seg.search(&moved, 1).unwrap()[0].index, new_id);
        assert_eq!(seg.update(3, &moved).unwrap(), None, "stale id");
        assert_eq!(seg.len(), 80);
    }

    #[test]
    fn compaction_merges_small_segments_and_purges_tombstones() {
        let train = toy_data(60, 8, 21);
        let pol = SegmentPolicy::default()
            .with_seal_threshold(30)
            .with_compact_min_segments(3)
            .with_tombstone_purge_frac(0.3);
        let seg = SegmentedVaq::train(&train, &cfg(), pol).unwrap();
        let more = toy_data(120, 8, 22);
        seg.add(&more).unwrap();
        seg.flush();
        let snap = seg.snapshot();
        assert!(
            snap.num_segments() < 3,
            "compaction should keep the segment count below the trigger, got {}",
            snap.num_segments()
        );
        assert_eq!(seg.len(), 180);

        // Deleting >30% of one segment triggers a purge that physically
        // drops the rows.
        let victim_ids: Vec<u32> = seg.live_ids().into_iter().take(70).collect();
        for id in &victim_ids {
            seg.delete(*id);
        }
        seg.flush();
        let snap = seg.snapshot();
        let total_rows: usize = snap.segments.iter().map(|s| s.core.n).sum::<usize>();
        let total_dead: usize = snap.segments.iter().map(|s| s.tombstones.dead()).sum::<usize>();
        assert_eq!(seg.len(), 110);
        assert_eq!(total_rows - total_dead + snap.buffer.live(), 110);
        assert!(
            total_dead < victim_ids.len(),
            "purge never reclaimed tombstoned rows (dead = {total_dead})"
        );
        // Results stay exact after compaction.
        let q = more.row(119);
        let full = seg.search_with(q, 8, SearchStrategy::FullScan).unwrap().0;
        let tiea = seg.search_with(q, 8, SearchStrategy::TiEa { visit_frac: 1.0 }).unwrap().0;
        assert_eq!(ids_of(&full), ids_of(&tiea));
        for h in &full {
            assert!(seg.contains(h.index), "returned a purged/tombstoned id {}", h.index);
        }
    }

    #[test]
    fn compaction_carries_each_rows_assignment() {
        // Merges and a purge carry every kept row's (cluster, distance):
        // each segment's partition is exactly a fresh assignment of its
        // rows to the model's centroids, in the same order.
        let pol = SegmentPolicy::default()
            .with_seal_threshold(30)
            .with_compact_min_segments(3)
            .with_tombstone_purge_frac(0.3);
        let seg = SegmentedVaq::train(&toy_data(60, 8, 21), &cfg(), pol).unwrap();
        let fresh_everywhere = |seg: &SegmentedVaq| {
            let model = seg.shared_model();
            let centroids = model.ti_centroids.as_ref().unwrap();
            for s in &seg.snapshot().segments {
                let ti = s.core.ti.as_ref().unwrap();
                assert!(Arc::ptr_eq(&ti.centroids, centroids), "segment has its own centroids");
                let prefix = model.ti_prefix_subspaces;
                let fresh = TiPartition::assign(
                    &model.encoder,
                    &s.core.codes,
                    Arc::clone(centroids),
                    prefix,
                );
                let dists = |t: &TiPartition| -> Vec<u32> {
                    t.member_dist.iter().map(|d| d.to_bits()).collect()
                };
                assert_eq!(ti.offsets, fresh.offsets);
                assert_eq!(ti.member_idx.as_slice(), fresh.member_idx.as_slice());
                assert_eq!(dists(ti), dists(&fresh));
            }
        };
        for c in 0..4 {
            seg.add(&toy_data(30, 8, 22 + c)).unwrap();
        }
        seg.flush();
        assert!(seg.snapshot().segments.iter().any(|s| s.core.n > 60), "nothing merged");
        fresh_everywhere(&seg);
        let victims: Vec<u32> = seg.live_ids().into_iter().step_by(2).take(40).collect();
        for id in victims {
            assert!(seg.delete(id));
        }
        seg.flush();
        let snap = seg.snapshot();
        assert!(snap.segments.iter().any(|s| !s.core.ids.column().is_empty()), "nothing purged");
        fresh_everywhere(&seg);
    }

    #[test]
    fn a_segment_stores_ids_only_after_dropping_rows() {
        // 1024-row segments, so every ids extent is a whole number of pages.
        let pol = SegmentPolicy::default()
            .with_seal_threshold(1024)
            .with_compact_min_segments(3)
            .with_tombstone_purge_frac(0.5);
        let vaq = Vaq::train(&toy_data(1024, 6, 91), &cfg()).unwrap();
        assert!(matches!(vaq.core.ids, SegmentIds::Dense(0)));
        let seg = SegmentedVaq::from_vaq(vaq, pol.clone());
        let shape = |seg: &SegmentedVaq| -> Vec<(Option<u32>, usize)> {
            let dense = |ids: &SegmentIds| match ids {
                SegmentIds::Dense(first) => Some(*first),
                SegmentIds::Column(_) => None,
            };
            seg.snapshot().segments.iter().map(|s| (dense(&s.core.ids), s.core.n)).collect()
        };

        // `from_vaq`'s segment and one sealed from the buffer: both ranges.
        seg.add(&toy_data(1024, 6, 92)).unwrap();
        assert_eq!(shape(&seg), [(Some(0), 1024), (Some(1024), 1024)]);
        // A merge of two such neighbours that drops no row is a range again.
        seg.add(&toy_data(1024, 6, 93)).unwrap();
        assert_eq!(shape(&seg), [(Some(0), 2048), (Some(2048), 1024)]);

        // The same index with every id written out is 4 B/row larger.
        let (set, next_id, _) = seg.writer_cut();
        let stored = set.segments.iter().map(|s| {
            let ids: Vec<u32> = (0..s.core.n).map(|row| s.core.id_of(row)).collect();
            let core = SegmentCore { ids: SegmentIds::Column(ids.into()), ..(*s.core).clone() };
            Segment { core: Arc::new(core), tombstones: s.tombstones.clone() }
        });
        let model = (*seg.shared.model).clone();
        let stored =
            SegmentedVaq::from_parts(model, pol, stored.collect(), Buffer::default(), next_id);
        assert_eq!(stored.to_bytes().len(), seg.to_bytes().len() + 4 * 3072);
        let q = toy_data(1, 6, 94);
        assert_eq!(stored.search(q.row(0), 9).unwrap(), seg.search(q.row(0), 9).unwrap());

        // A purge leaves ids that only a column can hold; its never-
        // rewritten neighbour keeps its range.
        for id in (2048..3072).step_by(2) {
            assert!(seg.delete(id));
        }
        assert_eq!(shape(&seg), [(Some(0), 2048), (None, 512)]);
        let odd: Vec<u32> = (2049..3072).step_by(2).collect();
        assert_eq!(seg.snapshot().segments[1].core.ids.column(), odd);
        assert_eq!(seg.live_ids(), (0..2048).chain(odd).collect::<Vec<u32>>());
    }

    #[test]
    fn searcher_sees_new_snapshots_after_refresh() {
        let train = toy_data(64, 6, 31);
        let seg = SegmentedVaq::train(&train, &cfg(), policy()).unwrap();
        let mut searcher = seg.searcher();
        let probe = vec![0.2f32; 6];
        let before = searcher.search(&probe, 3).unwrap();
        let spike = Matrix::from_rows(&[vec![0.2f32; 6]]);
        let id = seg.add(&spike).unwrap()[0];
        let after = searcher.search(&probe, 3).unwrap();
        assert_ne!(before, after, "searcher never observed the add");
        assert_eq!(after[0].index, id);
        seg.delete(id);
        let gone = searcher.search(&probe, 3).unwrap();
        assert!(gone.iter().all(|h| h.index != id), "searcher saw a tombstoned row");
    }

    #[test]
    fn default_policy_seal_keeps_queries_exact() {
        let train = toy_data(100, 8, 41);
        let pol = SegmentPolicy::default().with_seal_threshold(32).with_compact_min_segments(4);
        let seg = SegmentedVaq::train(&train, &cfg(), pol).unwrap();
        let more = toy_data(200, 8, 42);
        let mut oracle = Vaq::train(&train, &cfg()).unwrap();
        oracle.add(&more).unwrap();
        for c in 0..10 {
            let rows: Vec<Vec<f32>> = (0..20).map(|i| more.row(c * 20 + i).to_vec()).collect();
            seg.add(&Matrix::from_rows(&rows)).unwrap();
        }
        seg.flush();
        assert_eq!(seg.len(), 300);
        for qi in [0usize, 99, 199] {
            let q = more.row(qi);
            assert_eq!(
                oracle.search_with(q, 10, SearchStrategy::FullScan).unwrap().0,
                seg.search_with(q, 10, SearchStrategy::FullScan).unwrap().0,
                "query {qi}"
            );
        }
    }

    #[test]
    fn add_under_the_default_policy_returns_sealed() {
        let pol = SegmentPolicy::default().with_seal_threshold(32);
        let seg = SegmentedVaq::train(&toy_data(100, 8, 43), &cfg(), pol).unwrap();
        let before = seg.snapshot().num_segments();
        seg.add(&toy_data(40, 8, 44)).unwrap();
        // No flush: the add that crossed the threshold ran the seal.
        let snap = seg.snapshot();
        assert!(snap.buffer_len() < 32, "buffer {}", snap.buffer_len());
        assert_eq!(snap.num_segments(), before + 1);
        assert_eq!(seg.len(), 140);
    }

    #[test]
    fn maintenance_events_reach_the_obs_ring() {
        let train = toy_data(40, 6, 51);
        let pol = SegmentPolicy::default().with_seal_threshold(16).with_compact_min_segments(2);
        crate::obs::set_enabled(true);
        let seg = SegmentedVaq::train(&train, &cfg(), pol).unwrap();
        seg.add(&toy_data(40, 6, 52)).unwrap();
        seg.flush();
        crate::obs::set_enabled(false);
        let events = crate::obs::take_events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"segment.seal"), "no seal event in {kinds:?}");
        assert!(kinds.contains(&"segment.compact"), "no compact event in {kinds:?}");
    }

    #[test]
    fn id_space_exhaustion_is_a_typed_error() {
        let train = toy_data(10, 6, 81);
        let seg = SegmentedVaq::train(&train, &cfg(), policy()).unwrap();
        wlock(&seg.shared).next_id = u32::MAX - 1;
        let err = seg.add(&toy_data(5, 6, 82)).unwrap_err();
        assert!(matches!(err, VaqError::BadConfig(_)));
    }
}
