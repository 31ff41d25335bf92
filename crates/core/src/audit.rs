//! Structural invariant auditing for trained indexes and pipeline stages.
//!
//! Training can succeed numerically while silently violating the paper's
//! structural contract — a bit allocation off-budget, an importance order
//! broken after the repair pass, a code outside its dictionary, a TI
//! cluster that is no longer sorted. The [`Audit`] trait re-checks those
//! contracts after the fact. Each violated invariant is reported with a
//! stable diagnostic code (`VAQ101`–`VAQ113`, documented in DESIGN.md §8)
//! so tests, CI, and the `vaq_cli audit` subcommand can match on them.
//!
//! The pipeline stages call [`Audit::debug_audit`] at the end of each
//! stage: in debug builds a violated invariant aborts with the full
//! report; release builds skip the check entirely. Loaders are the other
//! caller, in every build: this module is the one statement of what a
//! valid model, sealed segment, buffer and tombstone bitmap are, and
//! `crate::persist` (which states the file format) admits no index from
//! bytes without it (DESIGN.md §8.2 has which part runs when).

use crate::encoder::Encoder;
use crate::pipeline::{BitPlan, DictionaryStage, SubspacePlan};
use crate::segment::{Model, SegmentCore, SegmentIds};
use crate::subspaces::SubspaceLayout;
use crate::sync::Arc;
use crate::ti::TiPartition;
use crate::vaq::{Vaq, VaqConfig};
use std::fmt;
use vaq_linalg::{MappedSpan, TableArena};

/// Hard ceiling on per-subspace bits: codes are stored as `u16`.
pub const MAX_CODE_BITS: usize = 16;

/// One violated invariant: a stable diagnostic code plus detail text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditIssue {
    /// Stable diagnostic code (`VAQ101`…); see DESIGN.md §8.
    pub code: &'static str,
    /// Human-readable description of the violation.
    pub detail: String,
}

impl fmt::Display for AuditIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

/// The outcome of an audit: empty means every checked invariant holds.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    issues: Vec<AuditIssue>,
}

impl AuditReport {
    pub fn new() -> AuditReport {
        AuditReport::default()
    }

    /// Records a violation.
    pub fn push(&mut self, code: &'static str, detail: String) {
        self.issues.push(AuditIssue { code, detail });
    }

    /// Records a violation when `ok` is false; `detail` is only built on
    /// failure.
    pub fn check(&mut self, ok: bool, code: &'static str, detail: impl FnOnce() -> String) {
        if !ok {
            self.push(code, detail());
        }
    }

    /// Absorbs another report's issues.
    pub fn merge(&mut self, other: AuditReport) {
        self.issues.extend(other.issues);
    }

    pub fn is_ok(&self) -> bool {
        self.issues.is_empty()
    }

    pub fn issues(&self) -> &[AuditIssue] {
        &self.issues
    }

    /// `true` when some issue carries the given diagnostic code.
    pub fn has_code(&self, code: &str) -> bool {
        self.issues.iter().any(|i| i.code == code)
    }

    /// `Ok(())` when clean, otherwise the report itself as the error.
    pub fn into_result(self) -> Result<(), AuditReport> {
        if self.is_ok() {
            Ok(())
        } else {
            Err(self)
        }
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.issues.is_empty() {
            return write!(f, "audit clean");
        }
        for (i, issue) in self.issues.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{issue}")?;
        }
        Ok(())
    }
}

/// Re-checks the structural invariants of a trained artifact.
pub trait Audit {
    /// Runs every applicable invariant check, collecting violations.
    fn audit(&self) -> AuditReport;

    /// Debug-build assertion: panics with the full report when an
    /// invariant is violated. Compiles to nothing in release builds.
    fn debug_audit(&self, stage: &str) {
        if cfg!(debug_assertions) {
            let report = self.audit();
            assert!(report.is_ok(), "invariant audit failed after {stage}:\n{report}");
        }
    }
}

impl Audit for SubspaceLayout {
    fn audit(&self) -> AuditReport {
        let mut r = AuditReport::new();
        let d = self.perm.len();
        let m = self.ranges.len();

        // VAQ105 — permutation validity.
        let mut seen = vec![false; d];
        for &p in &self.perm {
            if p >= d || seen[p] {
                r.push("VAQ105", format!("perm is not a permutation of 0..{d} (entry {p})"));
                break;
            }
            seen[p] = true;
        }

        // VAQ105 — ranges contiguous, non-empty, covering [0, d).
        r.check(m > 0, "VAQ105", || "layout has no subspaces".into());
        let mut cursor = 0usize;
        for (s, &(lo, hi)) in self.ranges.iter().enumerate() {
            r.check(lo == cursor, "VAQ105", || {
                format!("subspace {s} starts at {lo}, expected {cursor} (ranges not contiguous)")
            });
            r.check(hi > lo, "VAQ105", || format!("subspace {s} is empty ({lo}..{hi})"));
            cursor = hi;
        }
        r.check(cursor == d, "VAQ105", || {
            format!("ranges cover 0..{cursor} but the layout spans {d} dimensions")
        });

        // VAQ105 — share vectors aligned with the structure.
        r.check(self.variance_share.len() == m, "VAQ105", || {
            format!("{} variance shares for {m} subspaces", self.variance_share.len())
        });
        r.check(self.pc_share.len() == d, "VAQ105", || {
            format!("{} pc shares for {d} dimensions", self.pc_share.len())
        });
        for (s, &w) in self.variance_share.iter().enumerate() {
            r.check(w.is_finite() && w >= 0.0, "VAQ105", || {
                format!("subspace {s} variance share {w} is not a finite non-negative value")
            });
        }

        // VAQ104 — importance monotonicity after the repair pass: subspaces
        // are ordered by non-increasing variance share.
        for s in 1..self.variance_share.len() {
            let (prev, cur) = (self.variance_share[s - 1], self.variance_share[s]);
            r.check(cur <= prev + 1e-9, "VAQ104", || {
                format!("variance share increases at subspace {s}: {prev} -> {cur}")
            });
        }
        r
    }
}

impl Audit for SubspacePlan {
    fn audit(&self) -> AuditReport {
        let mut r = self.layout.audit();
        r.check(self.pca.eigenvalues().len() == self.layout.perm.len(), "VAQ105", || {
            format!(
                "projection has {} components but the layout permutes {}",
                self.pca.eigenvalues().len(),
                self.layout.perm.len()
            )
        });
        r
    }
}

/// Intrinsic bit-vector checks shared by [`BitPlan`] and the trained model.
fn audit_bits(r: &mut AuditReport, bits: &[usize], num_subspaces: usize) {
    r.check(bits.len() == num_subspaces, "VAQ105", || {
        format!("{} bit entries for {num_subspaces} subspaces", bits.len())
    });
    for (s, &b) in bits.iter().enumerate() {
        // C1 coverage: every subspace keeps at least one bit.
        r.check(b >= 1, "VAQ101", || format!("subspace {s} allocated 0 bits (C1 coverage)"));
        // C2 bounds: codes are u16, so 16 bits is the hard ceiling.
        r.check(b <= MAX_CODE_BITS, "VAQ102", || {
            format!("subspace {s} allocated {b} bits, above the {MAX_CODE_BITS}-bit u16 ceiling")
        });
    }
}

impl Audit for BitPlan {
    fn audit(&self) -> AuditReport {
        let mut r = self.layout.audit();
        audit_bits(&mut r, &self.bits, self.layout.ranges.len());
        r
    }
}

impl BitPlan {
    /// Audits the allocation against the *configured* C1–C4 envelope:
    /// C1/C2 per-subspace bounds and the exact C3 budget. (C4
    /// proportionality is a property of the optimizer's objective, not of
    /// a single allocation, so it is asserted by the solver's own
    /// re-check; see `vaq_milp::Model::check_solution`.)
    pub fn audit_constraints(&self, cfg: &VaqConfig) -> AuditReport {
        let mut r = self.audit();
        for (s, &b) in self.bits.iter().enumerate() {
            r.check(b >= cfg.min_bits, "VAQ101", || {
                format!("subspace {s} allocated {b} bits < MinBits {} (C1)", cfg.min_bits)
            });
            r.check(b <= cfg.max_bits, "VAQ102", || {
                format!("subspace {s} allocated {b} bits > MaxBits {} (C2)", cfg.max_bits)
            });
        }
        let total: usize = self.bits.iter().sum();
        r.check(total == cfg.budget_bits, "VAQ103", || {
            format!("allocation sums to {total} bits, budget is {} (C3)", cfg.budget_bits)
        });
        r
    }
}

impl Audit for Encoder {
    fn audit(&self) -> AuditReport {
        let mut r = AuditReport::new();
        let m = self.ranges.len();
        r.check(self.codebooks.len() == m, "VAQ109", || {
            format!("{} codebooks for {m} subspaces", self.codebooks.len())
        });
        r.check(self.bits.len() == m, "VAQ109", || {
            format!("{} bit entries for {m} subspaces", self.bits.len())
        });
        let mut cursor = 0usize;
        for (s, &(lo, hi)) in self.ranges.iter().enumerate() {
            r.check(lo == cursor && hi > lo, "VAQ109", || {
                format!("encoder range {s} is {lo}..{hi}, expected to start at {cursor}")
            });
            cursor = hi;
        }
        for (s, cb) in self.codebooks.iter().enumerate() {
            let (lo, hi) = self.ranges.get(s).copied().unwrap_or((0, 0));
            r.check(cb.cols() == hi - lo, "VAQ109", || {
                format!("codebook {s} is {} wide for subspace width {}", cb.cols(), hi - lo)
            });
            r.check(cb.rows() >= 1, "VAQ109", || format!("codebook {s} is empty"));
            if let Some(&b) = self.bits.get(s) {
                r.check(b <= MAX_CODE_BITS, "VAQ102", || {
                    format!("encoder subspace {s} uses {b} bits, above the u16 ceiling")
                });
                r.check(b > MAX_CODE_BITS || cb.rows() <= (1usize << b), "VAQ109", || {
                    format!("codebook {s} holds {} centroids for {b} bits", cb.rows())
                });
            }
        }
        r
    }
}

impl Encoder {
    /// Audits a filled [`TableArena`] against this encoder's layout:
    /// VAQ107 covers both the arena's own offset contiguity and its
    /// agreement with the dictionary sizes (a truncated or stale arena
    /// fails here before it can misprice a distance).
    pub fn audit_tables(&self, arena: &TableArena) -> AuditReport {
        let mut r = arena.audit();
        let m = self.ranges.len();
        r.check(arena.num_tables() == m, "VAQ107", || {
            format!("arena holds {} tables for {m} subspaces", arena.num_tables())
        });
        for (s, size) in self.table_sizes().enumerate() {
            if s >= arena.num_tables() {
                break;
            }
            let got = arena.table(s).len();
            r.check(got == size, "VAQ107", || {
                format!("arena table {s} has {got} entries, dictionary has {size}")
            });
        }
        r
    }
}

impl Audit for TableArena {
    fn audit(&self) -> AuditReport {
        let mut r = AuditReport::new();
        let offsets = self.offsets();
        if offsets.is_empty() {
            // A never-shaped arena is fine (no tables yet).
            return r;
        }
        r.check(offsets[0] == 0, "VAQ107", || {
            format!("arena offsets start at {}, expected 0", offsets[0])
        });
        for w in offsets.windows(2) {
            r.check(w[0] <= w[1], "VAQ107", || {
                format!("arena offsets decrease: {} -> {}", w[0], w[1])
            });
        }
        r
    }
}

/// VAQ108 on the member distances: finite, non-negative and ascending
/// within each cluster (the binary-searched pruning window requires it).
/// The first violation is enough signal — a hostile file must not buy one
/// message per row.
fn audit_ti_members(r: &mut AuditReport, ti: &TiPartition) {
    // One pass per cluster with no branch per member: `0 <= d < inf`
    // (false for NaN) and each distance no greater than the next,
    // AND-folded. Only a failure walks again to name the first offender.
    let in_order = (0..ti.num_clusters()).all(|c| {
        let dists = ti.cluster_dist(c);
        let finite = dists.iter().fold(true, |ok, d| ok & (0.0..f32::INFINITY).contains(d));
        finite & dists.windows(2).fold(true, |ok, w| ok & (w[0] <= w[1]))
    });
    if in_order {
        return;
    }
    for c in 0..ti.num_clusters() {
        let (idxs, dists) = (ti.cluster_idx(c), ti.cluster_dist(c));
        if let Some(w) = dists.iter().position(|d| !(d.is_finite() && *d >= 0.0)) {
            r.push("VAQ108", format!("cluster {c} member {} has distance {}", idxs[w], dists[w]));
            return;
        }
        if let Some(w) = (1..dists.len()).find(|&w| dists[w - 1] > dists[w]) {
            r.push(
                "VAQ108",
                format!(
                    "cluster {c} is not sorted: {} (idx {}) before {} (idx {})",
                    dists[w - 1],
                    idxs[w - 1],
                    dists[w],
                    idxs[w]
                ),
            );
            return;
        }
    }
}

/// VAQ106, stated once for every holder of stored codes — sealed
/// segments, the write buffer and replayed WAL adds: an `n × m` code array
/// in which every code indexes an existing dictionary entry (and therefore
/// lies in `[0, 2^y_i)`).
pub(crate) fn audit_codes(r: &mut AuditReport, codes: &[u16], n: usize, encoder: &Encoder) {
    let m = encoder.num_subspaces();
    r.check(codes.len() == n * m, "VAQ106", || {
        format!("{} codes for {n} vectors x {m} subspaces", codes.len())
    });
    if codes_in_range(codes, encoder) {
        return;
    }
    // Something is out of range: name the first offender.
    for (row, code) in codes.chunks_exact(m).enumerate() {
        for (s, &c) in code.iter().enumerate() {
            let rows = encoder.codebooks[s].rows();
            if c as usize >= rows {
                r.push(
                    "VAQ106",
                    format!("vector {row} subspace {s}: code {c} out of range [0, {rows})"),
                );
                // One out-of-range code is enough signal.
                return;
            }
        }
    }
}

/// Whether every code of every whole row lies below its subspace's
/// dictionary size: the one pass [`audit_codes`] makes over the array at
/// every open, with no branch per code. Each code is held against its
/// subspace's largest valid code by a saturating subtraction, OR-folded,
/// over a run of whole rows long enough for the compiler to vectorize.
fn codes_in_range(codes: &[u16], encoder: &Encoder) -> bool {
    /// Codes per folded run, rounded down to whole rows.
    const RUN: usize = 512;
    let m = encoder.num_subspaces();
    // A zero-row dictionary admits no code, and a dictionary count off the
    // row width is no layout to fold against: the loop that names the
    // offender decides.
    let Some(max) = encoder
        .codebooks
        .iter()
        .map(|book| book.rows().checked_sub(1).map(|top| u16::try_from(top).unwrap_or(u16::MAX)))
        .collect::<Option<Vec<u16>>>()
        .filter(|max| m > 0 && max.len() == m)
    else {
        return false;
    };
    let rows_per_run = (RUN / m).max(1);
    let max: Vec<u16> = max.iter().copied().cycle().take(rows_per_run * m).collect();
    let whole = &codes[..codes.len() - codes.len() % m];
    let mut runs = whole.chunks_exact(max.len());
    let fold = |run: &[u16]| {
        run.iter().zip(&max).fold(0u16, |over, (&c, &top)| over | c.saturating_sub(top))
    };
    let over = runs.by_ref().fold(0u16, |over, run| over | fold(run));
    over | fold(runs.remainder()) == 0
}

impl Audit for DictionaryStage {
    fn audit(&self) -> AuditReport {
        let mut r = self.layout.audit();
        audit_bits(&mut r, &self.bits, self.layout.ranges.len());
        r.merge(self.encoder.audit());
        audit_codes(&mut r, &self.codes, self.n, &self.encoder);
        r
    }
}

/// The invariants of the trained model every index shares, its TI
/// centroids included (VAQ108): at least one, each as wide as the prefix,
/// which ends on a subspace boundary of the encoder.
fn audit_model(model: &Model) -> AuditReport {
    let mut r = model.layout.audit();
    audit_bits(&mut r, &model.bits, model.layout.ranges.len());
    r.merge(model.encoder.audit());
    r.check(model.encoder.bits() == model.bits.as_slice(), "VAQ109", || {
        "encoder bit widths disagree with the trained allocation".into()
    });
    let (prefix, m) = (model.ti_prefix_subspaces, model.encoder.num_subspaces());
    match model.encoder.ranges().get(prefix.wrapping_sub(1)) {
        None => r.push("VAQ108", format!("TI prefix spans {prefix} of {m} subspaces")),
        Some(&(_, end)) => {
            if let Some(c) = &model.ti_centroids {
                r.check(c.rows() >= 1 && c.cols() == end, "VAQ108", || {
                    format!(
                        "{} TI centroids of {} dims for a prefix of {end} dims",
                        c.rows(),
                        c.cols()
                    )
                });
            }
        }
    }
    r
}

/// The invariants of sealed segment `s` on its own, split by what they
/// read so a reader can run each part when its bytes are trusted:
/// [`audit_core_shape`] at open, [`audit_core_scan`] and
/// [`audit_core_packed`] after the CRC of the extents they walk.
fn audit_core(r: &mut AuditReport, core: &SegmentCore, s: usize, model: &Model) {
    audit_core_shape(r, core, s, model);
    r.merge(audit_core_scan(core, s, &model.encoder));
    r.merge(audit_core_packed(core, &model.encoder));
}

/// The part that reads only meta-sized state: row and id counts (VAQ111),
/// a TI partition exactly when the model has centroids, over those very
/// centroids (VAQ108) and, when mapped, extent placement (VAQ113). No
/// array element is touched.
fn audit_core_shape(r: &mut AuditReport, core: &SegmentCore, s: usize, model: &Model) {
    r.check(core.n > 0, "VAQ111", || format!("segment {s} is empty"));
    if let SegmentIds::Column(ids) = &core.ids {
        r.check(ids.len() == core.n, "VAQ111", || {
            format!("segment {s} holds {} ids for {} rows", ids.len(), core.n)
        });
        audit_mapped_span(r, s, "ids", ids.mapped_span());
    }
    let over_model = match (&core.ti, &model.ti_centroids) {
        (Some(ti), Some(c)) => {
            Arc::ptr_eq(&ti.centroids, c) && ti.prefix_subspaces == model.ti_prefix_subspaces
        }
        (ti, c) => ti.is_none() && c.is_none(),
    };
    r.check(over_model, "VAQ108", || {
        format!("segment {s}: TI partition is not over the model's centroids")
    });
    if let Some(ti) = &core.ti {
        audit_mapped_span(r, s, "TI member ids", ti.member_idx.mapped_span());
        audit_mapped_span(r, s, "TI member dists", ti.member_dist.mapped_span());
    }
    audit_mapped_span(r, s, "codes", core.codes.mapped_span());
    audit_mapped_span(r, s, "packed", core.packed.storage().mapped_span());
}

/// The arrays every strategy reads: stored ids strictly ascending
/// (VAQ111), codes inside their dictionaries (VAQ106), TI distances
/// finite and sorted and the member ids an exact cover of the rows
/// (VAQ108).
pub(crate) fn audit_core_scan(core: &SegmentCore, s: usize, encoder: &Encoder) -> AuditReport {
    let mut r = AuditReport::new();
    r.check(core.ids.column().windows(2).all(|w| w[0] < w[1]), "VAQ111", || {
        format!("segment {s} ids are not strictly ascending")
    });
    audit_codes(&mut r, &core.codes, core.n, encoder);
    if let Some(ti) = &core.ti {
        audit_ti_members(&mut r, ti);
        // The partition must cover every row exactly once — the
        // exact-membership bitset check, not just a size sum (a
        // double-assigned row plus an omitted one passes the sum).
        r.check(ti.covers_exactly(core.n), "VAQ108", || {
            format!(
                "segment {s}: TI partition does not cover every row in 0..{} exactly once \
                 (duplicate, out-of-range, or omitted assignment)",
                core.n
            )
        });
    }
    r
}

/// VAQ110 — the blocked packing must be exactly what the packer derives
/// from `codes`: the quantized scan prunes with bounds computed from the
/// packed bytes, so a stale packing would silently produce wrong-answer
/// pruning. The statement lives beside the layout it describes.
pub(crate) fn audit_core_packed(core: &SegmentCore, encoder: &Encoder) -> AuditReport {
    let mut r = AuditReport::new();
    let sizes: Vec<usize> = encoder.table_sizes().collect();
    if let Err(detail) = core.packed.verify(&core.codes, &sizes, core.n) {
        r.push("VAQ110", detail);
    }
    r
}

/// A [`Vaq`] is the model plus one sealed segment.
impl Audit for Vaq {
    fn audit(&self) -> AuditReport {
        let mut r = audit_model(&self.model);
        audit_core(&mut r, &self.core, 0, &self.model);
        r
    }
}

/// The full audit of a segmented index: every array of every segment.
impl Audit for crate::segment::SegmentedVaq {
    fn audit(&self) -> AuditReport {
        audit_index(self, |_| ArrayParts { scan: true, packed: true })
    }
}

/// Which of a sealed segment's arrays to walk: the ones every strategy
/// reads ([`audit_core_scan`]) and the packing ([`audit_core_packed`]),
/// which only a quantized scan reads and a mapped open leaves to its
/// first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArrayParts {
    pub(crate) scan: bool,
    pub(crate) packed: bool,
}

/// The model's invariants, each sealed segment's own, and VAQ111 across
/// them — tombstone accounting, pairwise disjoint ascending id ranges
/// below the id counter, buffer ids above every sealed id, and (when no
/// maintenance pass is in flight) a buffer below the seal threshold —
/// plus VAQ112 on a durable index. `arrays` picks per segment the array
/// parts walked too: both for a full audit, neither for a file being
/// opened (the reader holds each part against its extent's CRC first,
/// see `persist`), the scan part of the newly sealed ones after a WAL
/// replay.
pub(crate) fn audit_index(
    index: &crate::segment::SegmentedVaq,
    arrays: impl Fn(&SegmentCore) -> ArrayParts,
) -> AuditReport {
    let model = index.shared_model();
    // Snapshot and flag under one lock: read apart, they can pair the
    // buffer a seal was about to take with the flag it cleared after.
    let (set, next_id, maintenance) = index.writer_cut();
    let policy = index.policy();

    let mut r = audit_model(model);
    let mut prev_last: Option<u32> = None;
    for (s, seg) in set.segments.iter().enumerate() {
        audit_core_shape(&mut r, &seg.core, s, model);
        let parts = arrays(&seg.core);
        if parts.scan {
            r.merge(audit_core_scan(&seg.core, s, &model.encoder));
        }
        if parts.packed {
            r.merge(audit_core_packed(&seg.core, &model.encoder));
        }
        if let Some((first, last)) = seg.core.id_span() {
            r.check(prev_last.is_none_or(|pl| first > pl), "VAQ111", || {
                format!("segment {s} starts at id {first}, below the end of segment {}", s - 1)
            });
            r.check(last < next_id, "VAQ111", || {
                format!("segment {s} holds id {last} >= next_id {next_id}")
            });
            prev_last = Some(last);
        }
        audit_tombstones(&mut r, seg.tombstones.words(), seg.tombstones.dead(), seg.core.n, s);
        audit_mapped_span(&mut r, s, "tombstone", seg.tombstones.mapped_span());
    }

    let buf = &set.buffer;
    if let Some((first, last)) = buf.id_span() {
        r.check(prev_last.is_none_or(|pl| first > pl), "VAQ111", || {
            format!("buffer starts at id {first}, below the last sealed id")
        });
        r.check(last < next_id, "VAQ111", || {
            format!("buffer holds id {last} >= next_id {next_id}")
        });
    }
    audit_codes(&mut r, &buf.codes, buf.rows, &model.encoder);
    audit_tombstones(&mut r, buf.tombstones.words(), buf.tombstones.dead(), buf.rows, usize::MAX);
    r.check(maintenance || buf.rows < policy.seal_threshold.max(1), "VAQ111", || {
        format!(
            "buffer holds {} rows, at or above the seal threshold {} with no \
             maintenance pass in flight",
            buf.rows, policy.seal_threshold
        )
    });

    // VAQ112 — write-ahead-log discipline (durable indexes only):
    // logged add ranges must be strictly ascending and contiguous
    // from the checkpointed id watermark — i.e. disjoint from every
    // id the checkpointed manifest already holds — and must never
    // outrun the live id counter. A violation means replay would
    // collide ids with the snapshot or leave a gap.
    if let Some(ws) = index.wal_summary() {
        let mut cursor = ws.base_next_id;
        for (i, &(start, end)) in ws.add_ranges.iter().enumerate() {
            r.check(start >= cursor && start < end, "VAQ112", || {
                format!(
                    "wal add range {i} [{start}, {end}) regresses below the \
                     watermark {cursor} or is empty"
                )
            });
            cursor = cursor.max(end);
        }
        r.check(cursor <= ws.next_id, "VAQ112", || {
            format!(
                "wal add ranges reach id {cursor}, past next_id {} (last_seq {})",
                ws.next_id, ws.last_seq
            )
        });
    }
    r
}

/// VAQ113: a mapped extent must sit entirely inside the file it was
/// mapped from and start on a page boundary (the persist writer aligns
/// every extent; a span that drifted would read a neighbour's bytes).
/// Owned storages (`span == None`) have nothing to check.
fn audit_mapped_span(r: &mut AuditReport, s: usize, what: &str, span: Option<MappedSpan>) {
    let Some(span) = span else { return };
    r.check(
        span.offset.checked_add(span.byte_len).is_some_and(|end| end <= span.region_len),
        "VAQ113",
        || {
            format!(
                "segment {s}: mapped {what} extent {}..+{} escapes the {}-byte file",
                span.offset, span.byte_len, span.region_len
            )
        },
    );
    r.check(span.aligned, "VAQ113", || {
        format!("segment {s}: mapped {what} extent at {} is not page aligned", span.offset)
    });
}

/// VAQ111: tombstone-bitmap sizing and accounting for one segment (or the
/// buffer, flagged as `seg == usize::MAX`).
fn audit_tombstones(r: &mut AuditReport, words: &[u64], dead: usize, n: usize, seg: usize) {
    let who = move || {
        if seg == usize::MAX {
            "buffer".to_string()
        } else {
            format!("segment {seg}")
        }
    };
    r.check(words.len() == n.div_ceil(64), "VAQ111", || {
        format!("{}: {} tombstone words for {n} rows", who(), words.len())
    });
    if !n.is_multiple_of(64) {
        if let Some(&lastw) = words.last() {
            r.check(lastw >> (n % 64) == 0, "VAQ111", || {
                format!("{}: tombstone bits set past row {n}", who())
            });
        }
    }
    let popcount: usize = words.iter().map(|w| w.count_ones() as usize).sum();
    r.check(popcount == dead && dead <= n, "VAQ111", || {
        format!("{}: {popcount} tombstone bits set, dead counter says {dead} of {n}", who())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_dataset::SyntheticSpec;

    fn trained() -> Vaq {
        let ds = SyntheticSpec::sift_like().generate(300, 0, 11);
        let cfg = VaqConfig::new(40, 8).with_ti_clusters(12).with_seed(5);
        Vaq::train(&ds.data, &cfg).unwrap()
    }

    /// The index's one segment, for corrupting in place.
    fn core_mut(vaq: &mut Vaq) -> &mut SegmentCore {
        crate::sync::Arc::make_mut(&mut vaq.core)
    }

    #[test]
    fn trained_index_is_clean() {
        let vaq = trained();
        let report = vaq.audit();
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn corrupted_code_is_vaq106() {
        let mut vaq = trained();
        // Force a code past its dictionary: subspace 0's codebook has at
        // most 2^13 rows, u16::MAX is always out of range.
        core_mut(&mut vaq).codes.to_mut()[0] = u16::MAX;
        let report = vaq.audit();
        assert!(report.has_code("VAQ106"), "{report}");
    }

    #[test]
    fn truncated_codes_are_vaq106() {
        let mut vaq = trained();
        core_mut(&mut vaq).codes.to_mut().pop();
        let report = vaq.audit();
        assert!(report.has_code("VAQ106"), "{report}");
    }

    #[test]
    fn stale_packing_content_is_vaq110() {
        let mut vaq = trained();
        assert!(vaq.core.packed.is_active(), "40-bit/8-subspace plan must pack");
        // Mutate one code *within* its dictionary range without
        // re-packing: VAQ106 stays clean, but the packed bytes now lie.
        let rows = vaq.encoder().codebooks()[0].rows() as u16;
        let codes = core_mut(&mut vaq).codes.to_mut();
        codes[0] = (codes[0] + 1) % rows;
        let report = vaq.audit();
        assert!(report.has_code("VAQ110"), "{report}");
        assert!(!report.has_code("VAQ106"), "{report}");
    }

    #[test]
    fn short_packing_is_vaq110() {
        let mut vaq = trained();
        let m = vaq.encoder().num_subspaces();
        let sizes: Vec<usize> = vaq.encoder().table_sizes().collect();
        // A packing built over a truncated database.
        let core = core_mut(&mut vaq);
        core.packed =
            vaq_linalg::PackedCodes::pack(&core.codes[..(core.n - 1) * m], &sizes, core.n - 1);
        let report = vaq.audit();
        assert!(report.has_code("VAQ110"), "{report}");
    }

    #[test]
    fn missing_packing_is_vaq110() {
        let mut vaq = trained();
        core_mut(&mut vaq).packed = vaq_linalg::PackedCodes::default();
        let report = vaq.audit();
        assert!(report.has_code("VAQ110"), "{report}");
    }

    #[test]
    fn unsorted_ti_cluster_is_vaq108() {
        let mut vaq = trained();
        let ti = core_mut(&mut vaq).ti.as_mut().unwrap();
        let c = (0..ti.num_clusters())
            .find(|&c| ti.cluster_len(c) >= 2)
            .expect("some cluster has two members");
        let (start, end) = ti.cluster_range(c);
        ti.member_dist.to_mut()[start..end].reverse();
        ti.member_idx.to_mut()[start..end].reverse();
        let dists = ti.cluster_dist(c);
        let all_equal = dists.windows(2).all(|w| w[0] == w[1]);
        if !all_equal {
            let report = vaq.audit();
            assert!(report.has_code("VAQ108"), "{report}");
        }
    }

    #[test]
    fn duplicated_ti_member_is_vaq108() {
        let mut vaq = trained();
        let ti = core_mut(&mut vaq).ti.as_mut().unwrap();
        let first = ti.member_idx.as_slice()[0];
        for c in 0..ti.num_clusters() {
            if !ti.cluster_idx(c).contains(&first) {
                let end = ti.cluster_range(c).1;
                ti.member_idx.to_mut().insert(end, first);
                ti.member_dist.to_mut().insert(end, f32::MAX);
                for o in ti.offsets[c + 1..].iter_mut() {
                    *o += 1;
                }
                break;
            }
        }
        let report = vaq.audit();
        assert!(report.has_code("VAQ108"), "{report}");
    }

    #[test]
    fn off_budget_bits_are_vaq103() {
        let ds = SyntheticSpec::sald_like().generate(200, 0, 3);
        let cfg = VaqConfig::new(32, 8).with_ti_clusters(0);
        let mut plan = crate::pipeline::VarPcaStage::compute(&ds.data, &cfg)
            .unwrap()
            .plan_subspaces(&cfg)
            .unwrap()
            .allocate_bits(&cfg)
            .unwrap();
        assert!(plan.audit_constraints(&cfg).is_ok());
        plan.bits[0] += 1;
        let report = plan.audit_constraints(&cfg);
        assert!(report.has_code("VAQ103"), "{report}");
    }

    #[test]
    fn zero_bit_subspace_is_vaq101() {
        let ds = SyntheticSpec::sald_like().generate(200, 0, 3);
        let cfg = VaqConfig::new(32, 8).with_ti_clusters(0);
        let mut plan = crate::pipeline::VarPcaStage::compute(&ds.data, &cfg)
            .unwrap()
            .plan_subspaces(&cfg)
            .unwrap()
            .allocate_bits(&cfg)
            .unwrap();
        plan.bits[3] = 0;
        let report = plan.audit();
        assert!(report.has_code("VAQ101"), "{report}");
    }

    #[test]
    fn broken_importance_order_is_vaq104() {
        let vaq = trained();
        let mut layout = vaq.layout().clone();
        layout.variance_share.reverse();
        let report = layout.audit();
        assert!(report.has_code("VAQ104"), "{report}");
    }

    #[test]
    fn truncated_arena_is_vaq107() {
        let vaq = trained();
        // An arena shaped for one table too few (and the wrong sizes).
        let sizes: Vec<usize> = vaq.encoder().table_sizes().collect();
        let arena = TableArena::with_layout(&sizes[..sizes.len() - 1]);
        let report = vaq.encoder().audit_tables(&arena);
        assert!(report.has_code("VAQ107"), "{report}");
    }

    #[test]
    fn segmented_index_is_clean_and_vaq111_catches_structure_breaks() {
        use crate::segment::{SegmentPolicy, SegmentedVaq};
        let ds = SyntheticSpec::sift_like().generate(200, 0, 19);
        let policy = SegmentPolicy::default().with_seal_threshold(40);
        let cfg = VaqConfig::new(40, 8).with_ti_clusters(12).with_seed(5);
        let seg = SegmentedVaq::train(&ds.data, &cfg, policy).unwrap();
        let extra = SyntheticSpec::sift_like().generate(90, 0, 20);
        seg.add(&extra.data).unwrap();
        seg.delete(3);
        seg.flush();
        let report = seg.audit();
        assert!(report.is_ok(), "{report}");
        assert!(seg.snapshot().num_segments() >= 2, "want sealed segments to audit");
    }

    #[test]
    fn tombstone_accounting_breaks_are_vaq111() {
        let mut r = AuditReport::new();
        // 70 rows → two words; dead counter disagrees with the popcount.
        super::audit_tombstones(&mut r, &[0b1011, 0], 2, 70, 0);
        assert!(r.has_code("VAQ111"), "{r}");

        // Bits set past the row count (row 70 lives in word 1, bit 6).
        let mut r = AuditReport::new();
        super::audit_tombstones(&mut r, &[0, 1u64 << 40], 1, 70, 0);
        assert!(r.has_code("VAQ111"), "{r}");

        // Wrong word count for the row count.
        let mut r = AuditReport::new();
        super::audit_tombstones(&mut r, &[0], 0, 70, usize::MAX);
        assert!(r.has_code("VAQ111"), "{r}");

        // Clean bitmap passes.
        let mut r = AuditReport::new();
        super::audit_tombstones(&mut r, &[0b101, 0], 2, 70, 0);
        assert!(r.is_ok(), "{r}");
    }

    #[test]
    fn display_lists_every_issue() {
        let mut r = AuditReport::new();
        r.push("VAQ101", "first".into());
        r.push("VAQ108", "second".into());
        let text = r.to_string();
        assert!(text.contains("VAQ101: first") && text.contains("VAQ108: second"));
    }

    mod properties {
        use super::*;
        use crate::sync::OnceLock;
        use proptest::prelude::*;

        /// One clean index shared across cases (training is deterministic;
        /// each case clones before corrupting).
        fn shared() -> &'static Vaq {
            static CELL: OnceLock<Vaq> = OnceLock::new();
            CELL.get_or_init(trained)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Any single corrupted code cell is caught as VAQ106,
            /// regardless of where it lands.
            #[test]
            fn any_corrupted_code_is_vaq106(pos_seed in 0usize..10_000) {
                let mut vaq = shared().clone();
                let codes = core_mut(&mut vaq).codes.to_mut();
                let pos = pos_seed % codes.len();
                codes[pos] = u16::MAX;
                let report = vaq.audit();
                prop_assert!(report.has_code("VAQ106"), "{report}");
            }

            /// Any truncation of the codes buffer is caught as VAQ106.
            #[test]
            fn any_truncated_codes_are_vaq106(cut_seed in 1usize..10_000) {
                let mut vaq = shared().clone();
                let codes = core_mut(&mut vaq).codes.to_mut();
                let cut = 1 + cut_seed % (codes.len() - 1);
                codes.truncate(codes.len() - cut);
                let report = vaq.audit();
                prop_assert!(report.has_code("VAQ106"), "{report}");
            }

            /// Any arena truncated below the encoder's table layout is
            /// caught as VAQ107.
            #[test]
            fn any_truncated_arena_is_vaq107(drop_seed in 1usize..10_000) {
                let vaq = shared();
                let sizes: Vec<usize> = vaq.encoder().table_sizes().collect();
                let keep = sizes.len() - 1 - (drop_seed % (sizes.len() - 1));
                let arena = TableArena::with_layout(&sizes[..keep]);
                let report = vaq.encoder().audit_tables(&arena);
                prop_assert!(report.has_code("VAQ107"), "{report}");
            }
        }
    }
}
