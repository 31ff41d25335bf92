//! Quantized ADC scan: `u8` lookup tables, a blocked/transposed code
//! layout with 4-bit nibble packing, and in-register `pshufb`
//! accumulation kernels.
//!
//! The exact ADC loop pays one `u16` code load plus one random `f32`
//! table read per subspace per vector. Quick ADC and Quicker ADC (André
//! et al.) remove that bottleneck with 8-bit-quantized tables small
//! enough to live in SIMD registers, looked up 16–32 lanes at a time
//! with `pshufb` — and, for subspaces whose dictionaries have at most 16
//! rows, by packing two 4-bit codes into one byte so a single code load
//! feeds two table lookups. This module provides the pieces the query
//! engine composes:
//!
//! 1. [`PackedCodes`] — the codes of every ≤8-bit subspace, transposed
//!    into blocks of [`BLOCK`] vectors laid out row-major, where a *row*
//!    is either a **nibble pair** (two ≤16-row subspaces sharing one
//!    byte per vector) or a **single** byte-wide subspace. Built once at
//!    encode time; the row structure is a pure function of the table
//!    sizes (see [`PackedRow`]).
//! 2. [`QuantizedTables`] — a per-query `u8` quantization of the exact
//!    `f32` tables using a per-table minimum plus one shared step
//!    (`delta`), constructed so the de-quantized sum is a certified
//!    *lower bound* on the exact distance.
//! 3. [`accumulate_qsums`] — the scan kernel summing quantized entries
//!    for every vector: one single-query kernel per tier, dispatched at
//!    runtime between a portable scalar loop and SSSE3/AVX2 `pshufb`
//!    kernels on x86_64 (NEON `tbl` on aarch64).
//!
//! # The lower-bound contract
//!
//! For entry value `t` of packed table `s`, the stored byte is
//! `q = floor((t - min_s) / delta)` clamped to `0..=254` and then
//! *verified* in `f64` so `min_s + delta*q <= t` holds. Summing `q` over
//! packed subspaces and adding every table's minimum — including tables
//! too wide to pack — reconstructs `base + delta * qsum`, which cannot
//! exceed the exact distance in real arithmetic; a small multiplicative
//! slack ([`QuantizedTables::bound_scale`]) absorbs the `f32` rounding
//! of both the reconstruction and the exact path's own accumulation.
//! Subspaces wider than 8 bits therefore stay on the `f32` path without
//! breaking the bound: their minima are folded into `base`. The same
//! argument covers subspaces that are packable but *truncated* out of
//! the packing when a plan exceeds [`MAX_PACKED_SUBSPACES`].
//!
//! # Why `0..=254` and at most 257 subspaces
//!
//! The kernels accumulate into `u16` lanes. With entries capped at 254,
//! up to 257 packed subspaces sum to at most `254 * 257 = 65 278`, which
//! fits `u16::MAX`; [`PackedCodes::pack`] packs the first 257 packable
//! subspaces and degrades the excess to the unpacked `f32` path (their
//! minima still fold into `base`, so the bound stays certified), with
//! [`PackedCodes::truncated_packable`] reporting how many were dropped.

use crate::mmap::CodesStorage;
use crate::tables::TableArena;
use std::sync::OnceLock;

/// Number of vectors per packed block. One AVX2 register holds the codes
/// of a whole block; SSSE3/NEON process it as two 16-lane halves.
pub const BLOCK: usize = 32;

/// Largest number of ≤8-bit subspaces the `u16` accumulators can take
/// without overflow (entries are capped at 254; `254 * 257 <= u16::MAX`).
pub const MAX_PACKED_SUBSPACES: usize = 257;

/// Largest dictionary size whose codes fit a 4-bit nibble. Subspaces at
/// or below this bound are paired two-per-byte in the packed layout.
pub const NIBBLE_MAX_ROWS: usize = 16;

/// One byte row of the packed layout. The packing's rows are derived
/// purely from the plan's table sizes: nibble-eligible subspaces
/// (≤ [`NIBBLE_MAX_ROWS`] rows) pair up two-per-byte in ascending order,
/// an odd leftover nibble subspace and every wider (17..=256 row)
/// subspace occupy one byte each. Indices are positions into
/// [`PackedCodes::subspaces`] (packed order), not original plan indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PackedRow {
    /// Two nibble subspaces share each byte: `lo`'s code in bits `0..4`,
    /// `hi`'s code in bits `4..8`. One 32-byte load serves 64 lookups.
    Pair { lo: usize, hi: usize },
    /// One subspace per byte (17..=256 dictionary rows, or the odd
    /// nibble subspace left without a partner).
    Single(usize),
}

/// The packing layout derived from a plan's table sizes: which subspaces
/// pack, their sizes, the byte-row structure, and how many packable
/// subspaces were truncated to keep the `u16` accumulators sound.
struct PackPlan {
    subspaces: Vec<usize>,
    sizes: Vec<usize>,
    rows: Vec<PackedRow>,
    truncated: usize,
}

/// Derives the packing layout from `table_sizes` alone — [`PackedCodes`]
/// serialization stores only the blocked bytes, so loaders must be able
/// to reconstruct the exact same selection and row structure.
fn pack_plan(table_sizes: &[usize]) -> PackPlan {
    let mut subspaces = Vec::new();
    let mut sizes = Vec::new();
    let mut truncated = 0usize;
    for (s, &sz) in table_sizes.iter().enumerate() {
        if (1..=256).contains(&sz) {
            if subspaces.len() < MAX_PACKED_SUBSPACES {
                subspaces.push(s);
                sizes.push(sz);
            } else {
                // Beyond the u16 accumulator budget: this subspace stays
                // on the exact f32 path (its minimum folds into `base`).
                truncated += 1;
            }
        }
    }
    let mp = subspaces.len();
    let nib: Vec<usize> = (0..mp).filter(|&j| sizes[j] <= NIBBLE_MAX_ROWS).collect();
    let mut rows: Vec<PackedRow> =
        nib.chunks_exact(2).map(|p| PackedRow::Pair { lo: p[0], hi: p[1] }).collect();
    let mut singles: Vec<usize> = (0..mp).filter(|&j| sizes[j] > NIBBLE_MAX_ROWS).collect();
    if nib.len() % 2 == 1 {
        singles.push(nib[nib.len() - 1]);
        singles.sort_unstable();
    }
    rows.extend(singles.into_iter().map(PackedRow::Single));
    PackPlan { subspaces, sizes, rows, truncated }
}

/// Codes of the ≤8-bit subspaces, transposed into a blocked layout:
/// block-major, then row-major (see [`PackedRow`]), then the [`BLOCK`]
/// lanes of the block. The byte for vector `i`, packed row `r` lives at
/// `data[((i / BLOCK) * num_rows + r) * BLOCK + (i % BLOCK)]`. The tail
/// block is zero-padded so kernels never branch on `n`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackedCodes {
    data: CodesStorage,
    /// Original subspace indices of the packed subspaces, ascending.
    subspaces: Vec<usize>,
    /// Table size (codebook rows) per packed subspace.
    sizes: Vec<usize>,
    /// Byte-row structure (nibble pairs first, then singles).
    rows: Vec<PackedRow>,
    /// Packable subspaces dropped to respect [`MAX_PACKED_SUBSPACES`].
    truncated: usize,
    /// Total subspace count of the source plan (packed + unpacked).
    m_total: usize,
    n: usize,
    blocks: usize,
}

impl PackedCodes {
    /// Transposes `codes` (row-major `n × table_sizes.len()`) into the
    /// blocked layout, keeping only subspaces with `1..=256` codebook
    /// rows. A plan with more than [`MAX_PACKED_SUBSPACES`] packable
    /// subspaces packs the first 257 and leaves the rest on the exact
    /// path ([`PackedCodes::truncated_packable`] reports the count).
    /// Returns a packing with *no* subspaces — the caller's signal to
    /// stay on the exact `f32` path — when nothing is packable or when
    /// any code is out of range for its table (a wrong byte here would
    /// break the lower bound).
    pub fn pack(codes: &[u16], table_sizes: &[usize], n: usize) -> Self {
        let m = table_sizes.len();
        let fallback = |m_total: usize, n: usize| Self { m_total, n, ..Self::default() };
        if codes.len() != n * m {
            return fallback(m, n);
        }
        let plan = pack_plan(table_sizes);
        if plan.subspaces.is_empty() {
            return fallback(m, n);
        }
        for row in codes.chunks_exact(m) {
            for (j, &s) in plan.subspaces.iter().enumerate() {
                if usize::from(row[s]) >= plan.sizes[j] {
                    return fallback(m, n);
                }
            }
        }
        let nr = plan.rows.len();
        let blocks = n.div_ceil(BLOCK).max(1);
        let mut data = vec![0u8; blocks * nr * BLOCK];
        for (i, row) in codes.chunks_exact(m).enumerate() {
            let (b, lane) = (i / BLOCK, i % BLOCK);
            for (r, &pr) in plan.rows.iter().enumerate() {
                data[(b * nr + r) * BLOCK + lane] = encode_row_byte(pr, row, &plan.subspaces);
            }
        }
        Self {
            data: data.into(),
            subspaces: plan.subspaces,
            sizes: plan.sizes,
            rows: plan.rows,
            truncated: plan.truncated,
            m_total: m,
            n,
            blocks,
        }
    }

    /// Rebuilds a packing from serialized parts: the blocked bytes
    /// (owned or mapped) plus the plan that produced them. Recomputes
    /// the packable-subspace selection and row structure from
    /// `table_sizes` (a pure function of the plan) and validates the
    /// byte length; `None` on any mismatch. Byte *content* is
    /// [`PackedCodes::verify`]'s business, which every loader calls
    /// before a kernel reads the bytes.
    pub fn from_parts(data: CodesStorage, table_sizes: &[usize], n: usize) -> Option<Self> {
        let m = table_sizes.len();
        let plan = pack_plan(table_sizes);
        if plan.subspaces.is_empty() {
            // The plan itself is unpackable: only the byte-free inactive
            // fallback (exactly what `pack` would produce) round-trips.
            return data.is_empty().then(|| Self::inactive(m, n));
        }
        let blocks = n.div_ceil(BLOCK).max(1);
        if data.len() != blocks * plan.rows.len() * BLOCK {
            return None;
        }
        Some(Self {
            data,
            subspaces: plan.subspaces,
            sizes: plan.sizes,
            rows: plan.rows,
            truncated: plan.truncated,
            m_total: m,
            n,
            blocks,
        })
    }

    /// The inactive fallback packing: no packed subspaces, the engine
    /// stays on the exact `f32` path. Matches what [`PackedCodes::pack`]
    /// returns when it degrades.
    pub fn inactive(m_total: usize, n: usize) -> Self {
        Self { m_total, n, ..Self::default() }
    }

    /// Appends `n_new` freshly encoded rows without re-transposing the
    /// existing blocks: only the trailing partial [`BLOCK`] (whose lanes
    /// were zero padding) and the newly added blocks are written. The
    /// result is byte-identical to a full [`PackedCodes::pack`] over the
    /// concatenated codes — including the fallback semantics: an
    /// out-of-range new code, a row-length mismatch, or a `table_sizes`
    /// plan that differs from the one this packing was built with all
    /// degrade to the inactive fallback, exactly as the full repack
    /// would.
    pub fn append(&mut self, new_codes: &[u16], table_sizes: &[usize], n_new: usize) {
        let m = table_sizes.len();
        let n_total = self.n + n_new;
        // An inactive packing stays inactive under any suffix: the full
        // repack would see the same unpackable plan or the same bad
        // prefix row. Only the bookkeeping advances.
        if !self.is_active() {
            self.m_total = m;
            self.n = n_total;
            return;
        }
        let degrade = |this: &mut Self| {
            *this = Self { m_total: m, n: n_total, ..Self::default() };
        };
        if m != self.m_total || new_codes.len() != n_new * m {
            return degrade(self);
        }
        // The packable-subspace selection and row structure are a pure
        // function of the plan; a caller switching plans mid-stream gets
        // the fallback rather than a silently inconsistent transpose.
        let plan = pack_plan(table_sizes);
        if plan.subspaces != self.subspaces || plan.truncated != self.truncated {
            return degrade(self);
        }
        for row in new_codes.chunks_exact(m) {
            for (j, &s) in self.subspaces.iter().enumerate() {
                if usize::from(row[s]) >= self.sizes[j] {
                    return degrade(self);
                }
            }
        }
        let nr = self.rows.len();
        let blocks = n_total.div_ceil(BLOCK).max(1);
        // Earlier blocks never move in the block-major layout; growing
        // the buffer only zero-fills the new tail blocks. A mapped
        // packing materializes an owned copy first (copy-on-write).
        let data = self.data.to_mut();
        data.resize(blocks * nr * BLOCK, 0u8);
        for (i, row) in new_codes.chunks_exact(m).enumerate() {
            let g = self.n + i;
            let (b, lane) = (g / BLOCK, g % BLOCK);
            for (r, &pr) in self.rows.iter().enumerate() {
                data[(b * nr + r) * BLOCK + lane] = encode_row_byte(pr, row, &self.subspaces);
            }
        }
        self.n = n_total;
        self.blocks = blocks;
    }

    /// `Ok` exactly when this packing is what [`PackedCodes::pack`] derives
    /// from `codes` (audit code VAQ110), checked in place with no second
    /// packing allocated: every real lane holds its row's encoded byte and
    /// every pad lane of the tail block the zero the packer writes — the
    /// kernels index the query tables by pad lanes too, so a stray pad
    /// byte is an out-of-bounds table read, not dead weight. `Err` carries
    /// the first divergence.
    pub fn verify(&self, codes: &[u16], table_sizes: &[usize], n: usize) -> Result<(), String> {
        let m = table_sizes.len();
        if (self.n, self.m_total) != (n, m) {
            return Err(format!(
                "packed codes cover {} vectors x {} subspaces, codes say {n} x {m}",
                self.n, self.m_total
            ));
        }
        let plan = pack_plan(table_sizes);
        let in_range = |row: &[u16]| {
            plan.subspaces.iter().zip(&plan.sizes).all(|(&s, &sz)| usize::from(row[s]) < sz)
        };
        let packable = codes.len() == n * m && !plan.subspaces.is_empty();
        if !self.is_active() {
            if packable && codes.chunks_exact(m).all(in_range) {
                return Err("packed codes missing although the plan has packable subspaces".into());
            }
            return Ok(());
        }
        let (nr, blocks) = (plan.rows.len(), n.div_ceil(BLOCK).max(1));
        let data = self.data();
        let same_plan = (&self.subspaces, &self.sizes, &self.rows, self.truncated)
            == (&plan.subspaces, &plan.sizes, &plan.rows, plan.truncated);
        if !packable || !same_plan || data.len() != blocks * nr * BLOCK {
            return Err("packed codes were built for another plan or code array".into());
        }
        for (i, row) in codes.chunks_exact(m).enumerate() {
            let at = i / BLOCK * nr * BLOCK + i % BLOCK;
            let mirrored = |(r, &pr): (usize, &PackedRow)| {
                data[at + r * BLOCK] == encode_row_byte(pr, row, &plan.subspaces)
            };
            if !(in_range(row) && plan.rows.iter().enumerate().all(mirrored)) {
                return Err(format!("packed bytes of vector {i} disagree with its codes"));
            }
        }
        let (tail, pad_from) = (&data[(blocks - 1) * nr * BLOCK..], n - (blocks - 1) * BLOCK);
        if tail.chunks_exact(BLOCK).any(|lanes| lanes[pad_from..].iter().any(|&b| b != 0)) {
            return Err("packed pad lanes are not the zeros the packer writes".into());
        }
        Ok(())
    }

    /// `true` when at least one subspace was packed and the quantized
    /// scan can run.
    pub fn is_active(&self) -> bool {
        !self.subspaces.is_empty()
    }

    /// Number of packed subspaces.
    pub fn num_subspaces(&self) -> usize {
        self.subspaces.len()
    }

    /// Original subspace indices of the packed subspaces, ascending.
    pub fn subspaces(&self) -> &[usize] {
        &self.subspaces
    }

    /// Table sizes (codebook rows) per packed subspace.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Byte-row structure of each block: nibble pairs, then singles.
    pub fn packed_rows(&self) -> &[PackedRow] {
        &self.rows
    }

    /// Number of byte rows per block (`<= num_subspaces()`; smaller
    /// exactly when nibble pairs exist).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Packable subspaces that were *not* packed because the plan
    /// exceeded [`MAX_PACKED_SUBSPACES`]. They scan on the exact `f32`
    /// path; higher layers surface this as a degradation event.
    pub fn truncated_packable(&self) -> usize {
        self.truncated
    }

    /// Total subspace count of the source plan, packed or not.
    pub fn num_total_subspaces(&self) -> usize {
        self.m_total
    }

    /// Number of encoded vectors (excluding tail padding).
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when no vectors are encoded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of [`BLOCK`]-sized blocks, including the padded tail.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Capacity the accumulator buffer must have: `blocks() * BLOCK`.
    pub fn padded_len(&self) -> usize {
        self.blocks * BLOCK
    }

    /// Raw blocked bytes (see the struct docs for the layout).
    pub fn data(&self) -> &[u8] {
        self.data.as_slice()
    }

    /// The storage behind the blocked bytes (owned vs mapped), for the
    /// persist layer and the VAQ113 audit.
    pub fn storage(&self) -> &CodesStorage {
        &self.data
    }
}

/// Encodes one byte of the packed layout from a plan-order code row.
/// Codes were validated `< sizes[j] <= 256` (and `<= 16` for nibble
/// subspaces), so the conversions cannot truncate.
#[inline]
fn encode_row_byte(row: PackedRow, codes: &[u16], subspaces: &[usize]) -> u8 {
    match row {
        PackedRow::Pair { lo, hi } => {
            let c0 = u8::try_from(codes[subspaces[lo]]).unwrap_or(u8::MAX) & 0x0f;
            let c1 = u8::try_from(codes[subspaces[hi]]).unwrap_or(u8::MAX) & 0x0f;
            c0 | (c1 << 4)
        }
        PackedRow::Single(j) => u8::try_from(codes[subspaces[j]]).unwrap_or(u8::MAX),
    }
}

/// Per-query `u8` quantization of the exact `f32` lookup tables held by
/// a [`TableArena`], reusable across queries without reallocating.
///
/// Rows are padded with zeros to a multiple of 16 bytes so the SIMD
/// kernels can load whole chunks; pad bytes are never selected because
/// every code is `< sizes[j]`.
#[derive(Clone, Debug, Default)]
pub struct QuantizedTables {
    entries: Vec<u8>,
    /// `num_subspaces + 1` row boundaries into `entries`.
    offsets: Vec<usize>,
    /// Scratch: per-packed-table minima.
    mins: Vec<f32>,
    delta: f32,
    base: f32,
    bound_scale: f32,
}

impl QuantizedTables {
    pub fn new() -> Self {
        Self::default()
    }

    /// Quantizes the arena's tables against `packed`'s subspace
    /// selection. The arena must hold one table per subspace of the plan
    /// that produced `packed` (checked in debug builds).
    pub fn quantize(&mut self, arena: &TableArena, packed: &PackedCodes) {
        debug_assert_eq!(arena.num_tables(), packed.num_total_subspaces());
        let mp = packed.num_subspaces();

        // One pass over every table: `base` folds in all minima (packed
        // or not) so the reconstruction bounds the full-m distance, while
        // the shared step spans only the packed tables' widest range.
        self.mins.clear();
        let mut base = 0.0f32;
        let mut max_range = 0.0f32;
        let mut next = 0usize;
        for (s, t) in arena.tables().enumerate() {
            let (mut mn, mut mx) = (f32::INFINITY, f32::NEG_INFINITY);
            for &v in t {
                mn = mn.min(v);
                mx = mx.max(v);
            }
            if mn.is_finite() {
                base += mn;
            }
            if next < mp && packed.subspaces()[next] == s {
                self.mins.push(if mn.is_finite() { mn } else { 0.0 });
                if (mx - mn).is_finite() {
                    max_range = max_range.max(mx - mn);
                }
                next += 1;
            }
        }
        let delta = if max_range > 0.0 { max_range / 254.0 } else { 0.0 };

        self.entries.clear();
        self.offsets.clear();
        self.offsets.push(0);
        for (j, &s) in packed.subspaces().iter().enumerate() {
            let t = arena.table(s);
            let mn = self.mins[j];
            for &v in t {
                self.entries.push(quantize_entry(v, mn, delta));
            }
            // Zero-pad the row to whole 16-byte chunks for the kernels.
            let padded = self.offsets[j] + t.len().max(1).div_ceil(16) * 16;
            self.entries.resize(padded, 0);
            self.offsets.push(self.entries.len());
        }

        self.delta = delta;
        self.base = base;
        // Slack absorbing `f32` rounding on both sides of the pruning
        // comparison: the (m+2)-term reconstruction here and the exact
        // path's own m-term accumulation. 8(m+4) ulps is far beyond
        // either error's worst case.
        self.bound_scale = 1.0 - 8.0 * (arena.num_tables() + 4) as f32 * f32::EPSILON;
    }

    /// Number of quantized rows (packed subspaces).
    pub fn num_rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Quantized row `j`, zero-padded to a multiple of 16 bytes.
    pub fn row(&self, j: usize) -> &[u8] {
        &self.entries[self.offsets[j]..self.offsets[j + 1]]
    }

    /// The shared quantization step. `0` means every packed table was
    /// constant and all stored bytes are zero.
    pub fn delta(&self) -> f32 {
        self.delta
    }

    /// Sum of every table's minimum entry (packed and unpacked).
    pub fn base(&self) -> f32 {
        self.base
    }

    /// Multiplicative slack applied to positive bounds; see `quantize`.
    pub fn bound_scale(&self) -> f32 {
        self.bound_scale
    }

    /// Certified lower bound on the exact full-m ADC distance of a
    /// vector whose packed entries sum to `qsum`. Safe to prune with:
    /// `lower_bound(qsum) >= threshold` implies the exact `f32` distance
    /// is `>= threshold` too.
    #[inline]
    pub fn lower_bound(&self, qsum: u16) -> f32 {
        let lb = self.base + self.delta * f32::from(qsum);
        if lb > 0.0 {
            lb * self.bound_scale
        } else {
            lb
        }
    }

    /// Worst-case gap between the bound and the exact distance coming
    /// from quantization alone (one sub-`delta` truncation per packed
    /// row). Reported by the bench for context.
    pub fn max_underestimate(&self) -> f32 {
        self.delta * self.num_rows() as f32
    }

    /// Smallest quantized sum whose [`Self::lower_bound`] reaches
    /// `threshold`, or `u32::MAX` when no representable sum does. Testing
    /// `u32::from(qsum) >= prune_cutoff(t)` is *exactly* equivalent to
    /// testing `lower_bound(qsum) >= t` — `lower_bound` is monotone
    /// nondecreasing in the sum (`delta >= 0`, and the positive branch's
    /// `* bound_scale` preserves order across the sign boundary) — but
    /// moves all float work out of the per-vector scan loop.
    pub fn prune_cutoff(&self, threshold: f32) -> u32 {
        let reachable = self.lower_bound(u16::MAX) >= threshold;
        if !reachable {
            return u32::MAX; // also catches threshold = INFINITY / NaN
        }
        // Binary search the boundary; invariant: lower_bound(hi) >= threshold.
        let (mut lo, mut hi) = (0u32, u32::from(u16::MAX));
        while lo < hi {
            let mid = (lo + hi) / 2;
            // Cannot fail: lo <= mid <= hi <= u16::MAX by the invariant.
            if self.lower_bound(u16::try_from(mid).unwrap_or(u16::MAX)) >= threshold {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        hi
    }
}

/// Floor-quantizes one table entry, then walks the byte down until
/// `min + delta*q <= t` certifies in `f64` (the `f32` division and floor
/// can land one step high near representability boundaries).
fn quantize_entry(t: f32, min: f32, delta: f32) -> u8 {
    if delta <= 0.0 || !t.is_finite() {
        return 0;
    }
    // The only `as` cast in this file (allowlisted under VAQ010): Rust
    // float->int `as` saturates, and the clamp bounds q to [0, 254].
    let mut q = (((t - min) / delta).floor() as i64).clamp(0, 254);
    let (tf, mf, df) = (f64::from(t), f64::from(min), f64::from(delta));
    while q > 0 && mf + df * q as f64 > tf {
        q -= 1;
    }
    // Cannot fail: q stays within [0, 254].
    u8::try_from(q).unwrap_or(0)
}

/// Which accumulation kernel a scan uses. All variants exist on every
/// architecture; dispatch verifies CPU support (cached, see
/// [`kernel_supported`]) before any `unsafe` call and silently degrades
/// to `Scalar` when the feature is missing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanKernel {
    /// Portable loop; auto-vectorizes reasonably on most targets.
    Scalar,
    /// `pshufb` over two 16-lane halves per block (x86_64).
    Ssse3,
    /// `vpshufb` over the whole 32-lane block (x86_64).
    Avx2,
    /// `tbl`-based lookups over two 16-lane halves (aarch64).
    Neon,
}

impl ScanKernel {
    /// Human-readable name for logs and bench output.
    pub fn name(self) -> &'static str {
        match self {
            ScanKernel::Scalar => "scalar",
            ScanKernel::Ssse3 => "ssse3",
            ScanKernel::Avx2 => "avx2",
            ScanKernel::Neon => "neon",
        }
    }

    /// All kernel tiers, narrowest first — the bench and the parity
    /// tests iterate this instead of hand-listing variants.
    pub const ALL: [ScanKernel; 4] =
        [ScanKernel::Scalar, ScanKernel::Ssse3, ScanKernel::Avx2, ScanKernel::Neon];
}

/// CPU feature support, probed once per process. The dispatch match
/// guards read this instead of re-running `is_x86_feature_detected!`
/// (which walks CPUID caches) on every kernel call.
#[derive(Clone, Copy, Debug, Default)]
struct KernelSupport {
    ssse3: bool,
    avx2: bool,
    neon: bool,
}

fn support() -> KernelSupport {
    static SUPPORT: OnceLock<KernelSupport> = OnceLock::new();
    *SUPPORT.get_or_init(probe_support)
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
fn probe_support() -> KernelSupport {
    KernelSupport {
        ssse3: std::arch::is_x86_feature_detected!("ssse3"),
        avx2: std::arch::is_x86_feature_detected!("avx2"),
        neon: false,
    }
}

#[cfg(all(target_arch = "aarch64", not(miri)))]
fn probe_support() -> KernelSupport {
    // NEON is baseline on aarch64.
    KernelSupport { ssse3: false, avx2: false, neon: true }
}

#[cfg(any(miri, not(any(target_arch = "x86_64", target_arch = "aarch64"))))]
fn probe_support() -> KernelSupport {
    // Miri interprets no SIMD shuffle intrinsics; other targets have no
    // kernels. Everything degrades to the scalar loop.
    KernelSupport::default()
}

/// Whether `kernel` can run on this machine (cached probe). `Scalar` is
/// always supported; unsupported requests degrade to it at dispatch.
pub fn kernel_supported(kernel: ScanKernel) -> bool {
    match kernel {
        ScanKernel::Scalar => true,
        ScanKernel::Ssse3 => support().ssse3,
        ScanKernel::Avx2 => support().avx2,
        ScanKernel::Neon => support().neon,
    }
}

/// The kernel the current process uses, picked once: the widest
/// supported tier, unless overridden. `VAQ_FORCE_KERNEL` pins a specific
/// tier (`scalar`/`ssse3`/`avx2`/`neon`; anything unsupported or
/// unrecognized falls back to `scalar` rather than crashing — `vaq_cli
/// kernels` exits non-zero when the request did not take, so CI matrices
/// fail loudly).
pub fn active_kernel() -> ScanKernel {
    static KERNEL: OnceLock<ScanKernel> = OnceLock::new();
    *KERNEL.get_or_init(detect_kernel)
}

fn detect_kernel() -> ScanKernel {
    // Miri interprets no SIMD shuffle intrinsics; the scalar kernel
    // visits lanes in the same order, so interpreted runs lose no
    // coverage.
    if cfg!(miri) {
        return ScanKernel::Scalar;
    }
    if let Some(forced) = std::env::var_os("VAQ_FORCE_KERNEL") {
        let forced = forced.to_string_lossy().to_ascii_lowercase();
        let kernel = match forced.trim() {
            "ssse3" => ScanKernel::Ssse3,
            "avx2" => ScanKernel::Avx2,
            "neon" => ScanKernel::Neon,
            _ => ScanKernel::Scalar,
        };
        return if kernel_supported(kernel) { kernel } else { ScanKernel::Scalar };
    }
    let s = support();
    if s.avx2 {
        ScanKernel::Avx2
    } else if s.ssse3 {
        ScanKernel::Ssse3
    } else if s.neon {
        ScanKernel::Neon
    } else {
        ScanKernel::Scalar
    }
}

/// Signature of a kernel timing observer: `(kernel name, elapsed ns)`
/// per [`accumulate_qsums`] call.
pub type KernelTimingHook = fn(&'static str, u64);

static TIMING_HOOK: OnceLock<KernelTimingHook> = OnceLock::new();

/// Installs a process-wide observer that is called with the kernel name
/// and elapsed nanoseconds after every [`accumulate_qsums`] dispatch.
/// First installation wins; later calls are ignored. The crate stays
/// dependency-free — higher layers (the obs subsystem) plug in here, and
/// no clock is read until a hook is installed.
pub fn install_kernel_timing_hook(hook: KernelTimingHook) {
    let _ = TIMING_HOOK.set(hook);
}

/// Sums the quantized table entry of every packed subspace for every
/// vector, writing one `u16` per lane into `out` (resized to
/// [`PackedCodes::padded_len`]; tail lanes hold the code-0 sum and must
/// be ignored). Uses [`active_kernel`].
pub fn accumulate_qsums(packed: &PackedCodes, qt: &QuantizedTables, out: &mut Vec<u16>) {
    accumulate_qsums_with(active_kernel(), packed, qt, out);
}

/// Same as [`accumulate_qsums`] with an explicit kernel — the hook the
/// parity tests use to compare SIMD against scalar on identical inputs.
/// SIMD requests re-verify CPU support (cached) and fall back to scalar
/// if the feature is unavailable.
pub fn accumulate_qsums_with(
    kernel: ScanKernel,
    packed: &PackedCodes,
    qt: &QuantizedTables,
    out: &mut Vec<u16>,
) {
    debug_assert_eq!(qt.num_rows(), packed.num_subspaces());
    let t0 = TIMING_HOOK.get().map(|hook| (hook, std::time::Instant::now()));
    out.clear();
    out.resize(packed.padded_len(), 0);
    match kernel {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        ScanKernel::Ssse3 if support().ssse3 => {
            // SAFETY: SSSE3 support verified by the (cached) match guard.
            unsafe { x86::accumulate_ssse3(packed, qt, out) }
        }
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        ScanKernel::Avx2 if support().avx2 => {
            // SAFETY: AVX2 support verified by the (cached) match guard.
            unsafe { x86::accumulate_avx2(packed, qt, out) }
        }
        #[cfg(all(target_arch = "aarch64", not(miri)))]
        ScanKernel::Neon if support().neon => {
            // SAFETY: NEON support verified by the (cached) match guard.
            unsafe { neon::accumulate_neon(packed, qt, out) }
        }
        _ => accumulate_scalar(packed, qt, out),
    }
    if let Some((hook, t0)) = t0 {
        hook(kernel.name(), u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
}

/// The number of queries `benchmark/src/layers.rs` passes to one
/// [`accumulate_qsums_multi`] call. Nothing in the library reads it: it
/// stays `pub` only because that adapter is frozen.
pub const QUERY_TILE: usize = 4;

/// [`accumulate_qsums_with`] for each query in turn: one kernel call (and
/// one timing-hook call) per query. Kept only because the frozen
/// `benchmark/src/layers.rs` calls it; the engine does not.
pub fn accumulate_qsums_multi(
    kernel: ScanKernel,
    packed: &PackedCodes,
    queries: &mut [(&QuantizedTables, &mut Vec<u16>)],
) {
    for (qt, out) in queries.iter_mut() {
        accumulate_qsums_with(kernel, packed, qt, out);
    }
}

/// Issues a best-effort read prefetch for `data[index]` (no-op when the
/// index is out of bounds or the target has no prefetch hint). Scan
/// loops call this a few blocks ahead of the bytes they are about to
/// touch — a pure latency hint with no architectural effect.
#[inline]
pub fn prefetch_read<T>(data: &[T], index: usize) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if index < data.len() {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `index` is bounds-checked above, so the address lies
        // inside the slice; prefetch is a hint with no memory effects
        // and is available on every x86_64 (sse2 baseline).
        unsafe { _mm_prefetch::<_MM_HINT_T0>(data.as_ptr().add(index).cast()) };
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        let _ = (data, index);
    }
}

/// Portable accumulation: same visitation order as the SIMD kernels, so
/// the `u16` results are bit-identical (integer adds commute exactly).
fn accumulate_scalar(packed: &PackedCodes, qt: &QuantizedTables, out: &mut [u16]) {
    let nr = packed.num_rows();
    let data = packed.data();
    for (b, out_b) in out.chunks_exact_mut(BLOCK).enumerate() {
        prefetch_read(data, (b + 1) * nr * BLOCK);
        for (r, &pr) in packed.packed_rows().iter().enumerate() {
            let bytes = &data[(b * nr + r) * BLOCK..][..BLOCK];
            match pr {
                PackedRow::Pair { lo, hi } => {
                    let (tlo, thi) = (qt.row(lo), qt.row(hi));
                    for (acc, &c) in out_b.iter_mut().zip(bytes) {
                        *acc += u16::from(tlo[usize::from(c & 0x0f)])
                            + u16::from(thi[usize::from(c >> 4)]);
                    }
                }
                PackedRow::Single(j) => {
                    let row = qt.row(j);
                    for (acc, &c) in out_b.iter_mut().zip(bytes) {
                        *acc += u16::from(row[usize::from(c)]);
                    }
                }
            }
        }
    }
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[deny(unsafe_op_in_unsafe_fn)]
mod x86 {
    //! `pshufb`-based kernels. Nibble-pair rows resolve two subspaces
    //! per code byte (one shuffle each on the masked low/high nibbles);
    //! single rows with ≤16 entries resolve in one shuffle; wider tables
    //! (up to 256 entries) split the code into nibbles and select the
    //! right 16-entry chunk with a `cmpeq` mask — the Quicker-ADC
    //! chunked lookup. `u8` results widen to the `u16` accumulators in
    //! linear lane order.

    use super::{PackedCodes, PackedRow, QuantizedTables, BLOCK};
    use std::arch::x86_64::*;

    /// SSSE3 kernel: each block is two 16-lane halves, four 8×`u16`
    /// accumulators.
    ///
    /// SAFETY: the caller must verify SSSE3 support at runtime before
    /// calling (`is_x86_feature_detected!("ssse3")`).
    #[target_feature(enable = "ssse3")]
    pub unsafe fn accumulate_ssse3(packed: &PackedCodes, qt: &QuantizedTables, out: &mut [u16]) {
        let nr = packed.num_rows();
        let data = packed.data();
        let low_mask = _mm_set1_epi8(0x0f);
        let zero = _mm_setzero_si128();
        for (b, out_b) in out.chunks_exact_mut(BLOCK).enumerate() {
            super::prefetch_read(data, (b + 1) * nr * BLOCK);
            let mut acc = [zero; 4];
            for (r, &pr) in packed.packed_rows().iter().enumerate() {
                let bytes = &data[(b * nr + r) * BLOCK..][..BLOCK];
                for half in 0..2 {
                    // SAFETY: `bytes` has BLOCK = 32 bytes, so this ssse3
                    // 16-byte load at `half * 16 + 16 <= 32` is in bounds.
                    let cv = unsafe { _mm_loadu_si128(bytes.as_ptr().add(half * 16).cast()) };
                    match pr {
                        PackedRow::Pair { lo, hi } => {
                            let lo_idx = _mm_and_si128(cv, low_mask);
                            let hi_idx = _mm_and_si128(_mm_srli_epi16::<4>(cv), low_mask);
                            let vlo = table_lookup_sse(lo_idx, qt.row(lo), low_mask, zero);
                            let vhi = table_lookup_sse(hi_idx, qt.row(hi), low_mask, zero);
                            // Two separate u8→u16 widenings: the u8 sum
                            // of two 254-max entries would overflow.
                            let q = half * 2;
                            acc[q] = _mm_add_epi16(acc[q], _mm_unpacklo_epi8(vlo, zero));
                            acc[q] = _mm_add_epi16(acc[q], _mm_unpacklo_epi8(vhi, zero));
                            acc[q + 1] = _mm_add_epi16(acc[q + 1], _mm_unpackhi_epi8(vlo, zero));
                            acc[q + 1] = _mm_add_epi16(acc[q + 1], _mm_unpackhi_epi8(vhi, zero));
                        }
                        PackedRow::Single(j) => {
                            let vals = table_lookup_sse(cv, qt.row(j), low_mask, zero);
                            // Interleaving with zero widens u8→u16 in lane order.
                            let q = half * 2;
                            acc[q] = _mm_add_epi16(acc[q], _mm_unpacklo_epi8(vals, zero));
                            acc[q + 1] = _mm_add_epi16(acc[q + 1], _mm_unpackhi_epi8(vals, zero));
                        }
                    }
                }
            }
            for (q, a) in acc.iter().enumerate() {
                // SAFETY: `out_b` has BLOCK = 32 u16 lanes; this ssse3
                // 8-lane store at `q * 8 + 8 <= 32` is in bounds.
                unsafe { _mm_storeu_si128(out_b.as_mut_ptr().add(q * 8).cast(), *a) };
            }
        }
    }

    /// One 16-lane table lookup (SSSE3 tier). `row` must be padded to
    /// whole 16-byte chunks. Single-chunk rows assume `cv` lanes are
    /// already valid indices (< 16); multi-chunk rows split each code
    /// byte into nibbles and chunk-select with `cmpeq`.
    #[target_feature(enable = "ssse3")]
    fn table_lookup_sse(cv: __m128i, row: &[u8], low_mask: __m128i, zero: __m128i) -> __m128i {
        let chunks = row.len() / 16;
        if chunks == 1 {
            // SAFETY: `row` is padded to at least 16 bytes, covering
            // this ssse3 table load.
            let tbl = unsafe { _mm_loadu_si128(row.as_ptr().cast()) };
            return _mm_shuffle_epi8(tbl, cv);
        }
        let lo = _mm_and_si128(cv, low_mask);
        let hi = _mm_and_si128(_mm_srli_epi16::<4>(cv), low_mask);
        let mut v = zero;
        for (k, kb) in (0..chunks).zip(0i8..) {
            // SAFETY: `row` is padded to `chunks * 16` bytes, covering
            // this ssse3 table-chunk load at offset `k * 16`.
            let tbl = unsafe { _mm_loadu_si128(row.as_ptr().add(k * 16).cast()) };
            let sel = _mm_cmpeq_epi8(hi, _mm_set1_epi8(kb));
            v = _mm_or_si128(v, _mm_and_si128(sel, _mm_shuffle_epi8(tbl, lo)));
        }
        v
    }

    /// One 32-lane table lookup (AVX2 tier). The 16-byte table chunk is
    /// broadcast to both 128-bit lanes because `vpshufb` shuffles within
    /// each lane independently. Same index contract as
    /// [`table_lookup_sse`].
    #[target_feature(enable = "avx2")]
    fn table_lookup_avx2(cv: __m256i, row: &[u8], low_mask: __m256i, zero: __m256i) -> __m256i {
        let chunks = row.len() / 16;
        if chunks == 1 {
            // SAFETY: `row` is padded to at least 16 bytes, covering
            // this avx2 table load.
            let tbl = unsafe { _mm_loadu_si128(row.as_ptr().cast()) };
            return _mm256_shuffle_epi8(_mm256_broadcastsi128_si256(tbl), cv);
        }
        let lo = _mm256_and_si256(cv, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(cv), low_mask);
        let mut v = zero;
        for (k, kb) in (0..chunks).zip(0i8..) {
            // SAFETY: `row` is padded to `chunks * 16` bytes, covering
            // this avx2 table-chunk load at offset `k * 16`.
            let tbl = unsafe { _mm_loadu_si128(row.as_ptr().add(k * 16).cast()) };
            let t2 = _mm256_broadcastsi128_si256(tbl);
            let sel = _mm256_cmpeq_epi8(hi, _mm256_set1_epi8(kb));
            v = _mm256_or_si256(v, _mm256_and_si256(sel, _mm256_shuffle_epi8(t2, lo)));
        }
        v
    }

    /// AVX2 kernel: a whole 32-lane block per iteration, two 16×`u16`
    /// `ymm` accumulators.
    ///
    /// SAFETY: the caller must verify AVX2 support at runtime before
    /// calling (`is_x86_feature_detected!("avx2")`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn accumulate_avx2(packed: &PackedCodes, qt: &QuantizedTables, out: &mut [u16]) {
        let nr = packed.num_rows();
        let data = packed.data();
        let low_mask = _mm256_set1_epi8(0x0f);
        let zero = _mm256_setzero_si256();
        for (b, out_b) in out.chunks_exact_mut(BLOCK).enumerate() {
            super::prefetch_read(data, (b + 1) * nr * BLOCK);
            let mut acc_lo = zero;
            let mut acc_hi = zero;
            for (r, &pr) in packed.packed_rows().iter().enumerate() {
                let bytes = &data[(b * nr + r) * BLOCK..][..BLOCK];
                // SAFETY: `bytes` has exactly BLOCK = 32 bytes for this
                // avx2 full-block load.
                let cv = unsafe { _mm256_loadu_si256(bytes.as_ptr().cast()) };
                match pr {
                    PackedRow::Pair { lo, hi } => {
                        let lo_idx = _mm256_and_si256(cv, low_mask);
                        let hi_idx = _mm256_and_si256(_mm256_srli_epi16::<4>(cv), low_mask);
                        let vlo = table_lookup_avx2(lo_idx, qt.row(lo), low_mask, zero);
                        let vhi = table_lookup_avx2(hi_idx, qt.row(hi), low_mask, zero);
                        // Widen with cvtepu8 to keep u16 lane order linear
                        // (unpack would interleave across 128-bit lanes);
                        // the two nibble results widen separately because
                        // their u8 sum can overflow.
                        acc_lo = _mm256_add_epi16(
                            acc_lo,
                            _mm256_cvtepu8_epi16(_mm256_castsi256_si128(vlo)),
                        );
                        acc_lo = _mm256_add_epi16(
                            acc_lo,
                            _mm256_cvtepu8_epi16(_mm256_castsi256_si128(vhi)),
                        );
                        acc_hi = _mm256_add_epi16(
                            acc_hi,
                            _mm256_cvtepu8_epi16(_mm256_extracti128_si256::<1>(vlo)),
                        );
                        acc_hi = _mm256_add_epi16(
                            acc_hi,
                            _mm256_cvtepu8_epi16(_mm256_extracti128_si256::<1>(vhi)),
                        );
                    }
                    PackedRow::Single(j) => {
                        let vals = table_lookup_avx2(cv, qt.row(j), low_mask, zero);
                        acc_lo = _mm256_add_epi16(
                            acc_lo,
                            _mm256_cvtepu8_epi16(_mm256_castsi256_si128(vals)),
                        );
                        acc_hi = _mm256_add_epi16(
                            acc_hi,
                            _mm256_cvtepu8_epi16(_mm256_extracti128_si256::<1>(vals)),
                        );
                    }
                }
            }
            // SAFETY: `out_b` has BLOCK = 32 u16 lanes = two avx2 stores.
            unsafe { _mm256_storeu_si256(out_b.as_mut_ptr().cast(), acc_lo) };
            // SAFETY: offset 16 leaves exactly 16 u16 lanes for this
            // avx2 store.
            unsafe { _mm256_storeu_si256(out_b.as_mut_ptr().add(16).cast(), acc_hi) };
        }
    }
}

#[cfg(all(target_arch = "aarch64", not(miri)))]
#[deny(unsafe_op_in_unsafe_fn)]
mod neon {
    //! `tbl`-based kernels for aarch64. `vqtbl1q_u8` is the 16-lane
    //! table lookup analogous to `pshufb` (out-of-range indices return
    //! zero, so no pre-masking is needed for valid codes); the chunked
    //! path for 17..=256-entry tables mirrors the x86 `cmpeq` selection.

    use super::{PackedCodes, PackedRow, QuantizedTables, BLOCK};
    use std::arch::aarch64::*;

    /// NEON kernel: each block is two 16-lane halves, four 8×`u16`
    /// accumulators, widened with `vaddw`.
    ///
    /// SAFETY: the caller must verify NEON support before calling
    /// (baseline on aarch64; the dispatch guard checks the cached
    /// neon probe).
    #[target_feature(enable = "neon")]
    pub unsafe fn accumulate_neon(packed: &PackedCodes, qt: &QuantizedTables, out: &mut [u16]) {
        let nr = packed.num_rows();
        let data = packed.data();
        let low_mask = vdupq_n_u8(0x0f);
        for (b, out_b) in out.chunks_exact_mut(BLOCK).enumerate() {
            super::prefetch_read(data, (b + 1) * nr * BLOCK);
            let mut acc = [vdupq_n_u16(0); 4];
            for (r, &pr) in packed.packed_rows().iter().enumerate() {
                let bytes = &data[(b * nr + r) * BLOCK..][..BLOCK];
                for half in 0..2 {
                    // SAFETY: `bytes` has BLOCK = 32 bytes, so this neon
                    // 16-byte load at `half * 16 + 16 <= 32` is in bounds.
                    let cv = unsafe { vld1q_u8(bytes.as_ptr().add(half * 16)) };
                    match pr {
                        PackedRow::Pair { lo, hi } => {
                            let lo_idx = vandq_u8(cv, low_mask);
                            let hi_idx = vshrq_n_u8::<4>(cv);
                            let vlo = table_lookup_neon(lo_idx, qt.row(lo), low_mask);
                            let vhi = table_lookup_neon(hi_idx, qt.row(hi), low_mask);
                            // Two separate u8→u16 widenings: the u8 sum
                            // of two 254-max entries would overflow.
                            let q = half * 2;
                            acc[q] = vaddw_u8(acc[q], vget_low_u8(vlo));
                            acc[q] = vaddw_u8(acc[q], vget_low_u8(vhi));
                            acc[q + 1] = vaddw_high_u8(acc[q + 1], vlo);
                            acc[q + 1] = vaddw_high_u8(acc[q + 1], vhi);
                        }
                        PackedRow::Single(j) => {
                            let vals = table_lookup_neon(cv, qt.row(j), low_mask);
                            let q = half * 2;
                            acc[q] = vaddw_u8(acc[q], vget_low_u8(vals));
                            acc[q + 1] = vaddw_high_u8(acc[q + 1], vals);
                        }
                    }
                }
            }
            for (q, &a) in acc.iter().enumerate() {
                // SAFETY: `out_b` has BLOCK = 32 u16 lanes; this neon
                // 8-lane store at `q * 8 + 8 <= 32` is in bounds.
                unsafe { vst1q_u16(out_b.as_mut_ptr().add(q * 8), a) };
            }
        }
    }

    /// One 16-lane table lookup (NEON tier). Same contract as the x86
    /// helpers: `row` is padded to whole 16-byte chunks; single-chunk
    /// rows take `cv` as direct indices, wider rows nibble-split and
    /// chunk-select with `vceqq`.
    #[target_feature(enable = "neon")]
    fn table_lookup_neon(cv: uint8x16_t, row: &[u8], low_mask: uint8x16_t) -> uint8x16_t {
        let chunks = row.len() / 16;
        if chunks == 1 {
            // SAFETY: `row` is padded to at least 16 bytes, covering
            // this neon table load.
            let tbl = unsafe { vld1q_u8(row.as_ptr()) };
            return vqtbl1q_u8(tbl, cv);
        }
        let lo = vandq_u8(cv, low_mask);
        let hi = vshrq_n_u8::<4>(cv);
        let mut v = vdupq_n_u8(0);
        for (k, kb) in (0..chunks).zip(0u8..) {
            // SAFETY: `row` is padded to `chunks * 16` bytes, covering
            // this neon table-chunk load at offset `k * 16`.
            let tbl = unsafe { vld1q_u8(row.as_ptr().add(k * 16)) };
            let sel = vceqq_u8(hi, vdupq_n_u8(kb));
            v = vorrq_u8(v, vandq_u8(sel, vqtbl1q_u8(tbl, lo)));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic LCG in [0, 1).
    fn rng(seed: &mut u64) -> f32 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*seed >> 40) as f32) / (1u32 << 24) as f32
    }

    /// Builds an arena with the given table sizes filled with random
    /// non-negative values, plus random in-range codes for `n` vectors.
    fn setup(sizes: &[usize], n: usize, seed: u64) -> (TableArena, Vec<u16>) {
        let mut s = seed.wrapping_add(1);
        let mut arena = TableArena::with_layout(sizes);
        for t in 0..sizes.len() {
            for v in arena.table_mut(t) {
                *v = rng(&mut s) * 10.0;
            }
        }
        let mut codes = Vec::with_capacity(n * sizes.len());
        for _ in 0..n {
            for &sz in sizes {
                codes.push((rng(&mut s) * sz as f32) as u16 % sz as u16);
            }
        }
        (arena, codes)
    }

    const MIXED_SIZES: &[usize] = &[4, 16, 32, 256, 1024, 7];

    /// The byte of (vector `i`, packed row `r`), read straight from the
    /// blocked layout.
    fn byte_at(p: &PackedCodes, i: usize, r: usize) -> u8 {
        let (b, lane) = (i / BLOCK, i % BLOCK);
        p.data()[(b * p.num_rows() + r) * BLOCK + lane]
    }

    #[test]
    fn pack_transposes_into_blocked_layout() {
        // One nibble subspace without a partner plus one byte subspace:
        // no pairs form, so every packed subspace gets its own row.
        let sizes = [16usize, 256, 512];
        let (_, codes) = setup(&sizes, 70, 3);
        let packed = PackedCodes::pack(&codes, &sizes, 70);
        assert_eq!(packed.subspaces(), &[0, 1]);
        assert_eq!(packed.packed_rows(), &[PackedRow::Single(0), PackedRow::Single(1)]);
        assert_eq!(packed.blocks(), 3);
        assert_eq!(packed.data().len(), 3 * 2 * BLOCK);
        for i in 0..70 {
            for (j, &s) in packed.subspaces().iter().enumerate() {
                assert_eq!(
                    byte_at(&packed, i, j),
                    codes[i * sizes.len() + s] as u8,
                    "vector {i} subspace {s}"
                );
            }
        }
        // Tail lanes of the last block are zero-padded.
        let nr = packed.num_rows();
        for lane in 70 % BLOCK..BLOCK {
            for r in 0..nr {
                assert_eq!(packed.data()[(2 * nr + r) * BLOCK + lane], 0);
            }
        }
    }

    #[test]
    fn nibble_subspaces_pair_two_per_byte() {
        let sizes = [16usize, 8, 256];
        let (_, codes) = setup(&sizes, 50, 11);
        let packed = PackedCodes::pack(&codes, &sizes, 50);
        assert_eq!(packed.subspaces(), &[0, 1, 2]);
        assert_eq!(packed.packed_rows(), &[PackedRow::Pair { lo: 0, hi: 1 }, PackedRow::Single(2)]);
        assert_eq!(packed.num_rows(), 2);
        assert_eq!(packed.data().len(), packed.blocks() * 2 * BLOCK);
        for i in 0..50 {
            let pair = byte_at(&packed, i, 0);
            assert_eq!(u16::from(pair & 0x0f), codes[i * 3], "vector {i} low nibble");
            assert_eq!(u16::from(pair >> 4), codes[i * 3 + 1], "vector {i} high nibble");
            assert_eq!(u16::from(byte_at(&packed, i, 1)), codes[i * 3 + 2], "vector {i} byte row");
        }
    }

    #[test]
    fn mixed_plan_splits_into_pair_and_single_rows() {
        // MIXED_SIZES packs subspaces [0,1,2,3,5] with sizes
        // [4,16,32,256,7]; the nibble-eligible ones (packed indices 0, 1,
        // 4) form one pair plus a leftover single, byte subspaces keep
        // their own rows, and singles stay in ascending packed order.
        let (_, codes) = setup(MIXED_SIZES, 40, 5);
        let packed = PackedCodes::pack(&codes, MIXED_SIZES, 40);
        assert_eq!(packed.subspaces(), &[0, 1, 2, 3, 5]);
        assert_eq!(
            packed.packed_rows(),
            &[
                PackedRow::Pair { lo: 0, hi: 1 },
                PackedRow::Single(2),
                PackedRow::Single(3),
                PackedRow::Single(4),
            ]
        );
        assert_eq!(packed.truncated_packable(), 0);
        let m = MIXED_SIZES.len();
        for i in 0..40 {
            let pair = byte_at(&packed, i, 0);
            assert_eq!(u16::from(pair & 0x0f), codes[i * m], "low nibble");
            assert_eq!(u16::from(pair >> 4), codes[i * m + 1], "high nibble");
            assert_eq!(u16::from(byte_at(&packed, i, 1)), codes[i * m + 2]);
            assert_eq!(u16::from(byte_at(&packed, i, 2)), codes[i * m + 3]);
            assert_eq!(u16::from(byte_at(&packed, i, 3)), codes[i * m + 5]);
        }
    }

    #[test]
    fn append_is_byte_identical_to_full_repack() {
        // Cross every interesting boundary: appends that stay inside the
        // trailing partial block, land exactly on a block edge, and span
        // multiple new blocks — the derived `Eq` compares the raw blocked
        // bytes including tail padding, so equality here is byte-level.
        let sizes = MIXED_SIZES;
        let m = sizes.len();
        for (n0, extra) in [(0, 1), (5, 3), (30, 2), (32, 32), (33, 70), (64, 1), (70, 100)] {
            let (_, all) = setup(sizes, n0 + extra, 7 + n0 as u64);
            let mut incremental = PackedCodes::pack(&all[..n0 * m], sizes, n0);
            incremental.append(&all[n0 * m..], sizes, extra);
            let full = PackedCodes::pack(&all, sizes, n0 + extra);
            assert_eq!(incremental, full, "n0={n0} extra={extra}");
        }
        // Chained appends equal one shot too.
        let (_, all) = setup(sizes, 100, 42);
        let mut inc = PackedCodes::pack(&all[..10 * m], sizes, 10);
        let mut at = 10;
        for step in [1usize, 21, 32, 36] {
            inc.append(&all[at * m..(at + step) * m], sizes, step);
            at += step;
        }
        assert_eq!(inc, PackedCodes::pack(&all, sizes, 100));
    }

    #[test]
    fn append_degrades_exactly_like_full_repack() {
        // An out-of-range appended code must yield the same inactive
        // fallback the full repack produces.
        let sizes = [4usize, 8];
        let (_, mut all) = setup(&sizes, 40, 5);
        let mut inc = PackedCodes::pack(&all[..20 * 2], &sizes, 20);
        assert!(inc.is_active());
        all[25 * 2] = 4; // >= sizes[0]
        inc.append(&all[20 * 2..], &sizes, 20);
        assert_eq!(inc, PackedCodes::pack(&all, &sizes, 40));
        assert!(!inc.is_active());
        assert_eq!(inc.len(), 40);
        // Once inactive, further appends only advance the bookkeeping —
        // matching a full repack that still sees the poisoned prefix.
        let (_, more) = setup(&sizes, 8, 6);
        inc.append(&more, &sizes, 8);
        let mut combined = all.clone();
        combined.extend_from_slice(&more);
        assert_eq!(inc, PackedCodes::pack(&combined, &sizes, 48));
        // A plan switch mid-stream is refused rather than transposed
        // inconsistently.
        let mut inc = PackedCodes::pack(&all[..20 * 2], &sizes, 20);
        inc.append(&all[20 * 2..], &[4, 512], 20);
        assert!(!inc.is_active());
        assert_eq!(inc.len(), 40);
    }

    #[test]
    fn pack_refuses_unpackable_plans() {
        // Nothing ≤ 256 rows.
        let p = PackedCodes::pack(&[0, 0], &[512, 1024], 1);
        assert!(!p.is_active());
        // An out-of-range code would corrupt the bound: refuse.
        let p = PackedCodes::pack(&[3, 1], &[4, 4], 1);
        assert!(p.is_active());
        let p = PackedCodes::pack(&[4, 1], &[4, 4], 1);
        assert!(!p.is_active());
    }

    #[test]
    fn overflowing_plans_truncate_the_excess_instead_of_refusing() {
        // 260 packable subspaces: the first MAX_PACKED_SUBSPACES pack,
        // the rest degrade to the exact path and are reported.
        let sizes = vec![2usize; MAX_PACKED_SUBSPACES + 3];
        let (arena, codes) = setup(&sizes, 37, 13);
        let packed = PackedCodes::pack(&codes, &sizes, 37);
        assert!(packed.is_active());
        assert_eq!(packed.num_subspaces(), MAX_PACKED_SUBSPACES);
        assert_eq!(packed.truncated_packable(), 3);
        let expect: Vec<usize> = (0..MAX_PACKED_SUBSPACES).collect();
        assert_eq!(packed.subspaces(), &expect[..]);
        // The saturated worst case still fits the u16 accumulators, and
        // the bound (which folds the truncated minima into base) holds.
        let mut qt = QuantizedTables::new();
        qt.quantize(&arena, &packed);
        let mut qsums = Vec::new();
        accumulate_qsums_with(ScanKernel::Scalar, &packed, &qt, &mut qsums);
        let m = sizes.len();
        for i in 0..37 {
            let exact: f32 = (0..m).map(|s| arena.lookup(s, codes[i * m + s] as usize)).sum();
            assert!(qt.lower_bound(qsums[i]) <= exact, "vector {i}");
        }
        // Appends must preserve the truncation decision.
        let (_, more) = setup(&sizes, 5, 14);
        let mut inc = packed.clone();
        inc.append(&more, &sizes, 5);
        let mut combined = codes.clone();
        combined.extend_from_slice(&more);
        assert_eq!(inc, PackedCodes::pack(&combined, &sizes, 42));
    }

    #[test]
    fn from_parts_roundtrips_exact_lengths_only() {
        let (_, codes) = setup(MIXED_SIZES, 45, 21);
        let packed = PackedCodes::pack(&codes, MIXED_SIZES, 45);
        // Current-layout bytes round-trip untouched.
        let rebuilt =
            PackedCodes::from_parts(packed.data().to_vec().into(), MIXED_SIZES, 45).unwrap();
        assert_eq!(rebuilt, packed);
        // `verify` accepts exactly the packer's bytes: one changed byte is
        // refused in a real lane (block 0, lane 0) and in a pad lane (45
        // rows leave lane 31 of the tail block unused) alike.
        assert_eq!(rebuilt.verify(&codes, MIXED_SIZES, 45), Ok(()));
        for at in [0, packed.data().len() - 1] {
            let mut bytes = packed.data().to_vec();
            bytes[at] ^= 0x80;
            let doctored = PackedCodes::from_parts(bytes.into(), MIXED_SIZES, 45).unwrap();
            assert!(doctored.verify(&codes, MIXED_SIZES, 45).is_err(), "byte {at}");
        }
        // Any other byte length is rejected — one byte per packed
        // subspace (no nibble pairs) included.
        let truncated = packed.data()[..packed.data().len() - 1].to_vec();
        assert!(PackedCodes::from_parts(truncated.into(), MIXED_SIZES, 45).is_none());
        let unpaired = vec![0u8; packed.blocks() * packed.num_subspaces() * BLOCK];
        assert!(PackedCodes::from_parts(unpaired.into(), MIXED_SIZES, 45).is_none());
        assert!(PackedCodes::from_parts(CodesStorage::default(), MIXED_SIZES, 45).is_none());
        // Unpackable plans only round-trip the empty inactive form.
        let p = PackedCodes::from_parts(CodesStorage::default(), &[512], 9).unwrap();
        assert!(!p.is_active());
        assert_eq!(p.len(), 9);
        assert!(PackedCodes::from_parts(vec![0u8; 32].into(), &[512], 9).is_none());
    }

    #[test]
    fn quantized_sum_lower_bounds_exact_distance() {
        for seed in 0..20 {
            let n = 57;
            let (arena, codes) = setup(MIXED_SIZES, n, seed);
            let packed = PackedCodes::pack(&codes, MIXED_SIZES, n);
            assert_eq!(packed.num_subspaces(), 5);
            let mut qt = QuantizedTables::new();
            qt.quantize(&arena, &packed);
            let mut qsums = Vec::new();
            accumulate_qsums_with(ScanKernel::Scalar, &packed, &qt, &mut qsums);
            let m = MIXED_SIZES.len();
            for i in 0..n {
                let exact: f32 = (0..m).map(|s| arena.lookup(s, codes[i * m + s] as usize)).sum();
                let lb = qt.lower_bound(qsums[i]);
                assert!(lb <= exact, "seed {seed} vector {i}: bound {lb} exceeds exact {exact}");
                // And the bound is not vacuous: for the packed part it is
                // within m*delta of the exact entries (unpacked subspaces
                // only contribute their minimum, which the floor reflects).
                let floor: f32 = packed
                    .subspaces()
                    .iter()
                    .map(|&s| arena.lookup(s, codes[i * m + s] as usize))
                    .sum::<f32>()
                    + (0..m)
                        .filter(|s| !packed.subspaces().contains(s))
                        .map(|s| arena.table(s).iter().copied().fold(f32::INFINITY, f32::min))
                        .sum::<f32>();
                assert!(lb >= floor - qt.max_underestimate() - 1e-3);
            }
        }
    }

    #[test]
    fn prune_cutoff_is_equivalent_to_lower_bound_test() {
        let (arena, codes) = setup(MIXED_SIZES, 40, 9);
        let packed = PackedCodes::pack(&codes, MIXED_SIZES, 40);
        let mut qt = QuantizedTables::new();
        qt.quantize(&arena, &packed);
        let thresholds = [
            f32::NEG_INFINITY,
            -1.0,
            0.0,
            qt.base(),
            qt.lower_bound(1),
            qt.lower_bound(700),
            qt.lower_bound(700) + 1e-6,
            qt.lower_bound(u16::MAX),
            f32::INFINITY,
            f32::NAN,
        ];
        for t in thresholds {
            let cutoff = qt.prune_cutoff(t);
            for q in (0..=u32::from(u16::MAX)).step_by(7).chain([cutoff.saturating_sub(1), cutoff])
            {
                let Ok(q16) = u16::try_from(q) else { continue };
                assert_eq!(
                    q >= cutoff,
                    qt.lower_bound(q16) >= t,
                    "threshold {t} qsum {q} cutoff {cutoff}"
                );
            }
        }
    }

    #[test]
    fn simd_kernels_match_scalar_exactly() {
        for &n in &[1usize, 31, 32, 33, 400] {
            let (arena, codes) = setup(MIXED_SIZES, n, n as u64);
            let packed = PackedCodes::pack(&codes, MIXED_SIZES, n);
            let mut qt = QuantizedTables::new();
            qt.quantize(&arena, &packed);
            let mut reference = Vec::new();
            accumulate_qsums_with(ScanKernel::Scalar, &packed, &qt, &mut reference);
            for kernel in ScanKernel::ALL.into_iter().chain([active_kernel()]) {
                let mut out = Vec::new();
                accumulate_qsums_with(kernel, &packed, &qt, &mut out);
                assert_eq!(out, reference, "kernel {} n {n}", kernel.name());
            }
        }
    }

    #[test]
    fn batched_kernels_match_sequential_exactly() {
        // 7 distinct queries against one packing: every tier's
        // `accumulate_qsums_multi` output must equal its own
        // single-query output query by query.
        let n = 203;
        let (_, codes) = setup(MIXED_SIZES, n, 77);
        let packed = PackedCodes::pack(&codes, MIXED_SIZES, n);
        let qts: Vec<QuantizedTables> = (0..7)
            .map(|q| {
                let (arena, _) = setup(MIXED_SIZES, 1, 100 + q);
                let mut qt = QuantizedTables::new();
                qt.quantize(&arena, &packed);
                qt
            })
            .collect();
        for kernel in ScanKernel::ALL {
            let sequential: Vec<Vec<u16>> = qts
                .iter()
                .map(|qt| {
                    let mut out = Vec::new();
                    accumulate_qsums_with(kernel, &packed, qt, &mut out);
                    out
                })
                .collect();
            let mut outs: Vec<Vec<u16>> = vec![Vec::new(); qts.len()];
            let mut queries: Vec<(&QuantizedTables, &mut Vec<u16>)> =
                qts.iter().zip(outs.iter_mut()).collect();
            accumulate_qsums_multi(kernel, &packed, &mut queries);
            for (q, (got, want)) in outs.iter().zip(&sequential).enumerate() {
                assert_eq!(got, want, "kernel {} query {q}", kernel.name());
            }
        }
    }

    #[test]
    fn constant_tables_quantize_to_zero() {
        let sizes = [8usize, 8];
        let mut arena = TableArena::with_layout(&sizes);
        arena.fill_with(|_, t| t.fill(2.5));
        let codes: Vec<u16> = (0..16).map(|i| i % 8).collect();
        let packed = PackedCodes::pack(&codes, &sizes, 8);
        let mut qt = QuantizedTables::new();
        qt.quantize(&arena, &packed);
        assert_eq!(qt.delta(), 0.0);
        let mut qsums = Vec::new();
        accumulate_qsums(&packed, &qt, &mut qsums);
        assert!(qsums.iter().all(|&q| q == 0));
        // base alone reconstructs the (constant) distance, within slack.
        let lb = qt.lower_bound(0);
        assert!(lb <= 5.0 && lb > 4.99);
    }

    #[test]
    fn prefetch_is_a_safe_no_op_at_any_index() {
        let data = vec![0u8; 64];
        prefetch_read(&data, 0);
        prefetch_read(&data, 63);
        prefetch_read(&data, 64);
        prefetch_read(&data, usize::MAX);
        prefetch_read::<u8>(&[], 0);
    }

    /// A random mixed-width plan: nibble, byte, and >8-bit (unpackable)
    /// table sizes in arbitrary order.
    fn plan_strategy() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(
            (0usize..3, 0usize..1000).prop_map(|(bucket, r)| match bucket {
                0 => 1 + r % 16,    // nibble-packable
                1 => 17 + r % 240,  // byte-packable (chunked lookup)
                _ => 257 + r % 844, // unpackable: exact f32 fallback
            }),
            1..7,
        )
    }

    proptest! {
        /// Byte-identical qsums across every kernel tier, every packed
        /// row shape (pairs, singles, chunked wide tables), and the
        /// several-queries entry point, on random mixed-width plans.
        #[test]
        fn kernel_parity_on_random_plans(
            sizes in plan_strategy(),
            n in 0usize..130,
            seed in 0u64..1000,
        ) {
            let (arena, codes) = setup(&sizes, n, seed);
            let packed = PackedCodes::pack(&codes, &sizes, n);
            let mut qt = QuantizedTables::new();
            qt.quantize(&arena, &packed);
            let mut reference = Vec::new();
            accumulate_qsums_with(ScanKernel::Scalar, &packed, &qt, &mut reference);
            for kernel in ScanKernel::ALL {
                let mut out = Vec::new();
                accumulate_qsums_with(kernel, &packed, &qt, &mut out);
                prop_assert_eq!(&out, &reference, "kernel {}", kernel.name());
                let mut b0 = Vec::new();
                let mut b1 = Vec::new();
                let mut queries: Vec<(&QuantizedTables, &mut Vec<u16>)> =
                    vec![(&qt, &mut b0), (&qt, &mut b1)];
                accumulate_qsums_multi(kernel, &packed, &mut queries);
                prop_assert_eq!(&b0, &reference, "multi[0] {}", kernel.name());
                prop_assert_eq!(&b1, &reference, "multi[1] {}", kernel.name());
            }
            // The bound survives arbitrary plans too.
            if packed.is_active() {
                let m = sizes.len();
                for i in 0..n {
                    let exact: f32 =
                        (0..m).map(|s| arena.lookup(s, codes[i * m + s] as usize)).sum();
                    prop_assert!(qt.lower_bound(reference[i]) <= exact);
                }
            }
        }

        /// `from_parts` over the serialized bytes reproduces the packing
        /// and scans identically on random plans.
        #[test]
        fn from_parts_preserves_scan_results(
            sizes in plan_strategy(),
            n in 0usize..90,
            seed in 0u64..1000,
        ) {
            let (arena, codes) = setup(&sizes, n, seed);
            let packed = PackedCodes::pack(&codes, &sizes, n);
            let rebuilt =
                PackedCodes::from_parts(packed.data().to_vec().into(), &sizes, n);
            if !packed.is_active() {
                // Inactive packings serialize no bytes; the empty form
                // round-trips.
                let p = PackedCodes::from_parts(CodesStorage::default(), &sizes, n);
                prop_assert!(p.is_some_and(|p| !p.is_active()));
                return Ok(());
            }
            let rebuilt = rebuilt.expect("length matches");
            prop_assert_eq!(&rebuilt, &packed);
            let mut qt = QuantizedTables::new();
            qt.quantize(&arena, &packed);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            accumulate_qsums(&packed, &qt, &mut a);
            accumulate_qsums(&rebuilt, &qt, &mut b);
            prop_assert_eq!(a, b);
        }
    }

    #[cfg(all(
        not(miri),
        any(target_os = "linux", target_os = "macos"),
        target_pointer_width = "64",
        target_endian = "little"
    ))]
    mod mapped {
        use super::*;
        use crate::mmap::MappedRegion;
        use std::io::Write;
        use std::sync::Arc;

        fn tmp_storage(bytes: &[u8], tag: &str) -> (std::path::PathBuf, CodesStorage) {
            let path = std::env::temp_dir().join(format!(
                "vaq-qtables-{tag}-{}-{}",
                std::process::id(),
                bytes.len()
            ));
            let mut f = std::fs::File::create(&path).unwrap();
            f.write_all(bytes).unwrap();
            f.sync_all().unwrap();
            let f = std::fs::File::open(&path).unwrap();
            let region = MappedRegion::map_file(&f).expect("mmap supported here");
            let storage = CodesStorage::mapped(Arc::clone(&region), 0, bytes.len()).unwrap();
            (path, storage)
        }

        /// Every kernel tier scans mapped (borrowed) bytes identically
        /// to the owned packing — the mapped-scan compatibility contract.
        #[test]
        fn mapped_storage_scans_identical_to_owned() {
            for (tag, sizes) in [("nib", vec![16usize, 4, 8, 2]), ("mix", MIXED_SIZES.to_vec())] {
                let n = 150;
                let (arena, codes) = setup(&sizes, n, 31);
                let packed = PackedCodes::pack(&codes, &sizes, n);
                assert!(packed.is_active());
                let (path, storage) = tmp_storage(packed.data(), tag);
                let mapped = PackedCodes::from_parts(storage, &sizes, n).unwrap();
                assert!(mapped.storage().is_mapped());
                assert_eq!(mapped, packed);
                let mut qt = QuantizedTables::new();
                qt.quantize(&arena, &packed);
                let mut reference = Vec::new();
                accumulate_qsums_with(ScanKernel::Scalar, &packed, &qt, &mut reference);
                for kernel in ScanKernel::ALL {
                    let mut out = Vec::new();
                    accumulate_qsums_with(kernel, &mapped, &qt, &mut out);
                    assert_eq!(out, reference, "kernel {} ({tag})", kernel.name());
                }
                std::fs::remove_file(path).unwrap();
            }
        }
    }
}
