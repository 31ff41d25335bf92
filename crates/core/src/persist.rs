//! Binary persistence for trained [`Vaq`] and [`SegmentedVaq`] indexes:
//! one checksummed, page-aligned extent container holding one index
//! shape, atomic commits, and typed IO errors.
//!
//! A trained index is expensive (dictionary learning dominates, as the
//! paper's encoding-time measurements show), so a downstream system wants
//! to train once and serve many times. Every save — [`Vaq::save`],
//! [`SegmentedVaq::save`], [`SegmentedVaq::save_mapped`], durable
//! checkpoints, and both `to_bytes` — writes the same little-endian
//! layout:
//!
//! ```text
//! header: magic "VAQ4" | version u32 | wal_seq u64 | extent count u64 |
//!         header crc32c u32
//! table:  [offset u64 | len u64 | crc32c u32] × count | table crc32c u32
//! payloads at their absolute offsets, each aligned to 4096 bytes,
//! zero padding in between
//!
//! extent 0:        model — pca | layout | bits | codebooks | strategy |
//!                  TI prefix subspaces u64 | TI centroids (a matrix,
//!                  0 × 0 without TI) | policy (seal threshold u64 |
//!                  compaction minimum u64 | purge fraction f64) |
//!                  next_id u32
//! 7 per segment:   meta (rows u64 | dead u64 | first id u32 | TI cluster
//!                  boundaries, when the model has centroids) | ids [u32] |
//!                  codes [u16] | packed [u8] | tombstone words [u64] |
//!                  TI member ids [u32] | TI member distances [f32]
//! last extent:     buffer — rows u64 | first id u32 | codes [u16] |
//!                  dead u64 | word count u64 | words [u64]
//! ```
//!
//! There is one shape: a trained model, sealed segments, a write buffer.
//! A [`Vaq`] is the case of one segment with ids `0..n`, no tombstone and
//! an empty buffer, and [`Vaq::load`] accepts exactly the files of that
//! shape, whoever wrote them. The array extents are the raw arrays, so a
//! 64-bit little-endian host can map them and read typed slices in place
//! with no parsing; the meta extent holds everything needed to build
//! those typed views without touching the arrays. Three extents may be
//! empty:
//!
//! * the **packed** extent — the blocked packing is a pure function of
//!   the codes, so only [`SegmentedVaq::save_mapped`] materialises it
//!   (+29 % file size on a 128-bit plan); every other writer leaves it at
//!   length 0 and the reader re-derives it with [`PackedCodes::pack`];
//! * the **ids** extent — an empty one means the dense range starting at
//!   the meta's first id, which is what every segment holds until a
//!   compaction drops rows from it (4 B/row saved; the buffer's ids are
//!   always such a range);
//! * both **TI** extents when the model has no centroids: the centroids
//!   are stored once, in the model extent, and a segment stores only each
//!   row's cluster (by position) and distance.
//!
//! This module states the **format** and nothing else: magic, version,
//! checksums, zero padding, extent geometry and alignment, bytes taken
//! before anything is allocated for them, length and id-space arithmetic,
//! and the shape guards a type needs to be constructed without panicking.
//! What a **valid** model, segment, buffer or tombstone bitmap is
//! (VAQ101–VAQ113) is stated once, in [`crate::audit`], and every way in
//! calls it on the assembled index before returning it.
//!
//! The header, the table and **every extent** carry a CRC32C
//! ([`crate::crc`], in-tree), and **one reader** (`read_index`) assembles
//! the index from a file's bytes for every way in; two decisions are all
//! that differs. [`Vaq::load`], [`SegmentedVaq::load`],
//! [`SegmentedVaq::open_durable`] and both `from_bytes` get *copies* of
//! the sealed segments' arrays, verified *at open*, and require the
//! inter-extent padding to be zero, so *every* single-byte mutation of a
//! file is reported as corruption instead of being interpreted.
//! [`SegmentedVaq::open_mapped`] gets *views* of them in the mapping,
//! verified at open too, except the packing: only a quantized scan reads
//! it, so it is verified on first use (see `LazyExtents`); the padding
//! stays unread. Verified means one thing at either time — the extents'
//! CRCs, then the part of the audit that walks those arrays — and header,
//! table, the small extents' CRCs, field guards and the audit of
//! everything else are one code path, so both accept exactly the same
//! files. The packing is held against the codes (VAQ110) where it was
//! *read* from a packed extent; one the reader derived from those codes
//! a line earlier has nothing to disagree with. The `wal_seq` header
//! field records the last write-ahead-log sequence number baked into the
//! snapshot (see `crate::segment::wal`); plain saves write 0.
//!
//! Saves are **atomic**: the bytes are streamed to `<path>.tmp`, the file
//! and its parent directory are fsynced, and the tmp is renamed over the
//! target — a crash at any point (exercised by the `persist.commit` /
//! `persist.fsync` fault sites and `vaq_cli crash`) leaves either the old
//! complete file or the new complete file, never a torn mix.
//!
//! A truncated or corrupted file returns [`VaqError::BadConfig`] and a
//! failed filesystem operation returns [`VaqError::Io`] with its
//! `source()` chain intact — never a panic.

use crate::audit::{audit_core_packed, audit_core_scan, ArrayParts, AuditReport};
use crate::encoder::Encoder;
use crate::search::SearchStrategy;
use crate::segment::{
    Buffer, Model, Segment, SegmentCore, SegmentIds, SegmentPolicy, SegmentSet, SegmentedVaq,
    Tombstones,
};
use crate::subspaces::SubspaceLayout;
use crate::sync::atomic::{AtomicU8, Ordering};
use crate::sync::Arc;
use crate::ti::TiPartition;
use crate::vaq::Vaq;
use crate::VaqError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::path::{Path, PathBuf};
use vaq_linalg::{
    CodesStorage, ExtentSpan, F32Storage, MappedRegion, Matrix, PackedCodes, Pca, U16Storage,
    U32Storage, U64Storage, PAGE_ALIGN,
};

const MAGIC: &[u8; 4] = b"VAQ4";
/// 2 since the TI centroids moved from every segment's meta into the
/// model extent; a version-1 file is refused.
const VERSION: u32 = 2;
/// Bytes of the header covered by the header CRC (everything before the
/// CRC field itself), and the whole header.
const HEADER_CRC_SPAN: usize = 4 + 4 + 8 + 8;
const HEADER_LEN: usize = HEADER_CRC_SPAN + 4;
/// Bytes per extent-table entry: offset `u64` + length `u64` + CRC32C
/// `u32`.
const TABLE_ENTRY: usize = 8 + 8 + 4;
/// Extents per sealed segment, and each one's slot after the meta extent.
const SEG_EXTENTS: usize = 7;
const IDS: usize = 1;
const CODES: usize = 2;
const PACKED: usize = 3;
const WORDS: usize = 4;
const TI_IDX: usize = 5;
const TI_DIST: usize = 6;

// ---------------------------------------------------------------------------
// Atomic commit: tmp → fsync → rename → fsync(dir)
// ---------------------------------------------------------------------------

/// `<path>.tmp` — the staging file of an atomic commit. Loaders ignore
/// it; a stale one (from an interrupted save) is silently replaced by the
/// next commit.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Wraps a real filesystem failure at `path`.
pub(crate) fn io_at(path: &Path, e: std::io::Error) -> VaqError {
    VaqError::io(path, e)
}

/// The typed error for an IO operation abandoned by a simulated power
/// loss (or a probabilistically injected transient failure) at `site`.
pub(crate) fn abandoned(path: &Path, site: &'static str) -> VaqError {
    VaqError::io(path, std::io::Error::other(format!("injected io failure at `{site}`")))
}

/// Fsyncs an open file, gated by the `persist.fsync` fault site. Under
/// Miri the sync itself is skipped (no fsync shim); the fault gate and
/// error paths still run.
pub(crate) fn fsync_file(f: &std::fs::File, path: &Path) -> Result<(), VaqError> {
    if crate::faults::fired("persist.fsync") {
        return Err(abandoned(path, "persist.fsync"));
    }
    #[cfg(not(miri))]
    f.sync_all().map_err(|e| io_at(path, e))?;
    #[cfg(miri)]
    let _ = f;
    Ok(())
}

/// Fsyncs a directory so a just-committed rename survives power loss.
/// Directory handles are only syncable on unix; elsewhere the rename is
/// as durable as the platform makes it.
fn fsync_dir(dir: &Path) -> Result<(), VaqError> {
    if crate::faults::fired("persist.fsync") {
        return Err(abandoned(dir, "persist.fsync"));
    }
    #[cfg(all(unix, not(miri)))]
    {
        let d = std::fs::File::open(dir).map_err(|e| io_at(dir, e))?;
        d.sync_all().map_err(|e| io_at(dir, e))?;
    }
    #[cfg(not(all(unix, not(miri))))]
    let _ = dir;
    Ok(())
}

/// Atomically replaces `path` with the container holding `extents`:
/// stream it to `<path>.tmp`, fsync it, rename it over `path`, fsync the
/// parent directory. A crash — real, or injected through the
/// `persist.commit` (tmp write, rename) and `persist.fsync` (both syncs)
/// fault sites — leaves either the old complete file or the new complete
/// file, never a torn mix; an injected crash during the tmp write leaves
/// a torn prefix *of the tmp only*, so recovery tests see realistic
/// debris. The payloads are streamed (no whole-file buffer is
/// materialized), so saving adds O(extent-table) memory, not O(file).
fn commit(path: &Path, wal_seq: u64, extents: &[ExtPayload<'_>]) -> Result<(), VaqError> {
    let tmp = tmp_path(path);
    let torn = crate::faults::fired("persist.commit");
    let f = std::fs::File::create(&tmp).map_err(|e| io_at(&tmp, e))?;
    let mut w = std::io::BufWriter::new(f);
    let len = write_container(&mut w, wal_seq, extents).map_err(|e| io_at(&tmp, e))?;
    let f = w.into_inner().map_err(|e| io_at(&tmp, e.into_error()))?;
    if torn {
        // Simulated power loss mid-write: only a prefix of the staging
        // file reached disk; the destination is untouched.
        let _ = f.set_len(len / 2);
        return Err(abandoned(&tmp, "persist.commit"));
    }
    fsync_file(&f, &tmp)?;
    drop(f);
    if crate::faults::fired("persist.commit") {
        return Err(abandoned(path, "persist.commit"));
    }
    std::fs::rename(&tmp, path).map_err(|e| io_at(path, e))?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fsync_dir(parent)?;
    }
    crate::obs::counter_add("persist.commits", 1);
    Ok(())
}

/// Reads an index file with the container header validated *first*: the
/// 28-byte header is pulled in alone and checked — magic, checksum, and
/// the claimed extent count against the real file length — before the
/// body is read, so a corrupt or hostile header is rejected without a
/// file-sized read behind it.
fn read_index_file(path: &Path) -> Result<Vec<u8>, VaqError> {
    use std::io::Read;
    let mut f = std::fs::File::open(path).map_err(|e| io_at(path, e))?;
    let flen = narrow(f.metadata().map_err(|e| io_at(path, e))?.len(), "file length")?;
    let mut data = Vec::new();
    f.by_ref().take(wide(HEADER_LEN)).read_to_end(&mut data).map_err(|e| io_at(path, e))?;
    get_header(&data, flen)?;
    data.reserve(flen.saturating_sub(data.len()));
    f.read_to_end(&mut data).map_err(|e| io_at(path, e))?;
    Ok(data)
}

// ---------------------------------------------------------------------------
// Writing: extent payloads → one streamed container
// ---------------------------------------------------------------------------

/// One extent's bytes on the write side: either an owned blob (model /
/// meta / buffer) or a borrowed typed array streamed as little-endian.
enum ExtPayload<'a> {
    Own(Vec<u8>),
    U8s(&'a [u8]),
    U16s(&'a [u16]),
    U32s(&'a [u32]),
    U64s(&'a [u64]),
    F32s(&'a [f32]),
}

impl ExtPayload<'_> {
    /// Streams the payload into `out`, returning its byte length and
    /// CRC32C. Typed slices are converted through a bounded scratch
    /// buffer, so writing a multi-gigabyte extent never doubles it in RAM.
    fn write_into<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<(usize, u32)> {
        let mut w = CrcWriter { out, len: 0, state: !0u32 };
        match self {
            ExtPayload::Own(v) => w.put(v)?,
            ExtPayload::U8s(s) => w.put(s)?,
            ExtPayload::U16s(s) => w.put_scalars(s.iter().map(|v| v.to_le_bytes()))?,
            ExtPayload::U32s(s) => w.put_scalars(s.iter().map(|v| v.to_le_bytes()))?,
            ExtPayload::U64s(s) => w.put_scalars(s.iter().map(|v| v.to_le_bytes()))?,
            ExtPayload::F32s(s) => w.put_scalars(s.iter().map(|v| v.to_le_bytes()))?,
        }
        Ok((w.len, w.state ^ !0u32))
    }
}

/// A writer that counts everything it forwards and folds it into a
/// running CRC32C.
struct CrcWriter<'a, W: std::io::Write> {
    out: &'a mut W,
    len: usize,
    state: u32,
}

impl<W: std::io::Write> CrcWriter<'_, W> {
    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.len += bytes.len();
        self.state = crate::crc::update(self.state, bytes);
        self.out.write_all(bytes)
    }

    fn put_scalars<const N: usize>(
        &mut self,
        items: impl Iterator<Item = [u8; N]>,
    ) -> std::io::Result<()> {
        const CHUNK: usize = 1 << 16;
        let mut scratch: Vec<u8> = Vec::with_capacity(CHUNK);
        for le in items {
            scratch.extend_from_slice(&le);
            if scratch.len() + N > CHUNK {
                self.put(&scratch)?;
                scratch.clear();
            }
        }
        if scratch.is_empty() {
            Ok(())
        } else {
            self.put(&scratch)
        }
    }
}

/// Streams the whole container into `w` and returns its length: header,
/// a table placeholder, every payload at its page-aligned offset, then
/// the extent table back-patched once the payload CRCs are known.
fn write_container<W: std::io::Write + std::io::Seek>(
    w: &mut W,
    wal_seq: u64,
    extents: &[ExtPayload<'_>],
) -> std::io::Result<u64> {
    let mut header = BytesMut::with_capacity(HEADER_LEN);
    header.put_slice(MAGIC);
    header.put_u32_le(VERSION);
    header.put_u64_le(wal_seq);
    header.put_u64_le(wide(extents.len()));
    let header_crc = crate::crc::crc32c(&header);
    header.put_u32_le(header_crc);
    let table_len = extents.len() * TABLE_ENTRY + 4;

    w.write_all(&header)?;
    w.write_all(&vec![0u8; table_len])?;
    let mut cursor = HEADER_LEN + table_len;
    let mut table = BytesMut::with_capacity(table_len);
    for e in extents {
        let aligned = cursor.next_multiple_of(PAGE_ALIGN);
        w.write_all(&[0u8; PAGE_ALIGN][..aligned - cursor])?;
        let (len, crc) = e.write_into(w)?;
        table.put_u64_le(wide(aligned));
        table.put_u64_le(wide(len));
        table.put_u32_le(crc);
        cursor = aligned + len;
    }
    let table_crc = crate::crc::crc32c(&table);
    table.put_u32_le(table_crc);
    w.seek(std::io::SeekFrom::Start(wide(HEADER_LEN)))?;
    w.write_all(&table)?;
    w.flush()?;
    Ok(wide(cursor))
}

/// Frames a snapshot as its extent list: the model extent, seven extents
/// per sealed segment, the buffer extent. `with_packed` materialises the
/// blocked packing (the mapped layout); without it the packed extents
/// stay empty and loaders re-derive them.
fn set_extents<'a>(
    model: &Model,
    policy: &SegmentPolicy,
    set: &'a SegmentSet,
    next_id: u32,
    with_packed: bool,
) -> Vec<ExtPayload<'a>> {
    let mut mp = BytesMut::with_capacity(4096);
    put_model(&mut mp, model, policy, next_id);
    let mut extents = vec![ExtPayload::Own(mp.to_vec())];
    for Segment { core, tombstones } in &set.segments {
        let mut meta = BytesMut::with_capacity(256);
        meta.put_u64_le(wide(core.n));
        meta.put_u64_le(wide(tombstones.dead()));
        meta.put_u32_le(core.id_span().map_or(0, |(first, _)| first));
        let (idx, dist): (&[u32], &[f32]) = match &core.ti {
            None => (&[], &[]),
            Some(ti) => {
                put_usize_slice(&mut meta, &ti.offsets);
                (ti.member_idx.as_slice(), ti.member_dist.as_slice())
            }
        };
        extents.extend([
            ExtPayload::Own(meta.to_vec()),
            ExtPayload::U32s(core.ids.column()),
            ExtPayload::U16s(core.codes.as_slice()),
            ExtPayload::U8s(if with_packed { core.packed.data() } else { &[] }),
            ExtPayload::U64s(tombstones.words()),
            ExtPayload::U32s(idx),
            ExtPayload::F32s(dist),
        ]);
    }
    let mut be = BytesMut::with_capacity(64 + set.buffer.codes.len() * 2);
    put_buffer(&mut be, &set.buffer);
    extents.push(ExtPayload::Own(be.to_vec()));
    extents
}

/// Commits an explicit `(set, next_id)` pair — what every save and
/// durable checkpoint writes. `with_packed` writes the packings, so a
/// mapped segment's is verified before its bytes get fresh checksums
/// (every other array was verified at open); a failure commits nothing.
pub(crate) fn commit_set(
    path: &Path,
    model: &Model,
    policy: &SegmentPolicy,
    set: &SegmentSet,
    next_id: u32,
    wal_seq: u64,
    with_packed: bool,
) -> Result<(), VaqError> {
    if with_packed {
        set.segments.iter().try_for_each(|seg| seg.core.ensure_verified(&model.encoder))?;
    }
    commit(path, wal_seq, &set_extents(model, policy, set, next_id, with_packed))
}

impl Vaq {
    /// This index as the one-segment [`SegmentedVaq`] sharing its rows —
    /// what every save frames.
    fn segmented(&self) -> SegmentedVaq {
        SegmentedVaq::from_vaq(self.clone(), SegmentPolicy::default())
    }

    /// Serializes the trained index to bytes — exactly what
    /// [`Vaq::save`] writes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.segmented().to_bytes()
    }

    /// Deserializes an index previously produced by [`Vaq::to_bytes`] or
    /// [`Vaq::save`] — or by any other writer whose index has the shape
    /// of a `Vaq`: one sealed segment with the implicit ids `0..n`, no
    /// tombstone, no buffered row (so `SegmentedVaq::from_vaq(v, _).save()`
    /// loads back). Every checksum is verified and the full structural
    /// audit must pass.
    pub fn from_bytes(data: &[u8]) -> Result<Vaq, VaqError> {
        let index = SegmentedVaq::from_bytes(data)?;
        let (set, next_id, _) = index.writer_cut();
        match set.segments.as_slice() {
            [Segment { core, tombstones }]
                if matches!(core.ids, SegmentIds::Dense(0))
                    && wide(core.n) == u64::from(next_id)
                    && tombstones.dead() == 0
                    && set.buffer.rows == 0 =>
            {
                Ok(Vaq { model: index.shared_model().clone(), core: Arc::clone(core) })
            }
            _ => Err(bad("file holds a segmented index: several segments, stored or offset ids, \
                 tombstones or buffered rows")),
        }
    }

    /// Atomically writes the index to a file (tmp + fsync + rename; see
    /// the module docs). An interrupted save leaves any previous file
    /// intact.
    pub fn save(&self, path: &Path) -> Result<(), VaqError> {
        self.segmented().save(path)
    }

    /// Loads an index from a file. The container header is validated
    /// before the body is read, so a corrupt header fails fast.
    pub fn load(path: &Path) -> Result<Vaq, VaqError> {
        Vaq::from_bytes(&read_index_file(path)?)
    }
}

impl SegmentedVaq {
    /// Serializes the segmented index to bytes — exactly what
    /// [`SegmentedVaq::save`] writes: the shared model once, then seven
    /// extents per sealed segment and the write buffer. The snapshot and
    /// id counter are captured atomically, so serializing during
    /// concurrent ingest yields *some* consistent state; pending
    /// buffered rows are persisted as-is and re-sealed on load.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (set, next_id, _) = self.writer_cut();
        let extents = set_extents(self.shared_model(), self.policy(), &set, next_id, false);
        let mut out = std::io::Cursor::new(Vec::new());
        // A `Vec` sink cannot fail, so there is no error to surface.
        let _ = write_container(&mut out, 0, &extents);
        out.into_inner()
    }

    /// Deserializes an index file, restoring segments, buffer,
    /// tombstones, and policy exactly — a saved [`Vaq`] is one sealed
    /// segment with ids `0..n` under a default [`SegmentPolicy`] and
    /// returns byte-identical search results to the original. Every
    /// checksum is verified, the audit must pass (see `read_index`), and
    /// the quiescence invariant is restored (an over-threshold buffer is
    /// sealed) before the index is returned.
    pub fn from_bytes(data: &[u8]) -> Result<SegmentedVaq, VaqError> {
        Ok(read_index(data, None)?.0)
    }

    /// Atomically writes the segmented index to a file (tmp + fsync +
    /// rename; see the module docs). An interrupted save leaves any
    /// previous file intact. For a crash-recoverable index with a
    /// write-ahead log, see [`SegmentedVaq::make_durable`].
    ///
    /// [`SegmentedVaq::make_durable`]: crate::segment::SegmentedVaq::make_durable
    pub fn save(&self, path: &Path) -> Result<(), VaqError> {
        let (set, next_id, _) = self.writer_cut();
        commit_set(path, self.shared_model(), self.policy(), &set, next_id, 0, false)
    }

    /// Loads a segmented index from a file (see
    /// [`SegmentedVaq::from_bytes`]). Does **not** replay a write-ahead
    /// log — use [`SegmentedVaq::open_durable`] for that.
    ///
    /// [`SegmentedVaq::open_durable`]: crate::segment::SegmentedVaq::open_durable
    pub fn load(path: &Path) -> Result<SegmentedVaq, VaqError> {
        Ok(Self::load_with_seq(path)?.0)
    }

    /// [`SegmentedVaq::load`] plus the file's recorded WAL sequence
    /// number — the replay cursor durable recovery resumes from.
    pub(crate) fn load_with_seq(path: &Path) -> Result<(SegmentedVaq, u64), VaqError> {
        read_index(&read_index_file(path)?, None)
    }

    /// Atomically writes the index with the packed extents materialised,
    /// so every big array (ids, codes, packed bytes, tombstone bitmaps,
    /// TI member tables) can be memory-mapped and scanned in place by
    /// [`SegmentedVaq::open_mapped`].
    pub fn save_mapped(&self, path: &Path) -> Result<(), VaqError> {
        let (set, next_id, _) = self.writer_cut();
        commit_set(path, self.shared_model(), self.policy(), &set, next_id, 0, true)
    }

    /// Opens a file written by [`SegmentedVaq::save_mapped`] out-of-core:
    /// the file is memory-mapped and the sealed segments borrow their
    /// arrays from the mapping instead of copying. Every extent is
    /// checksum-verified and audited at open, as [`SegmentedVaq::load`]
    /// verifies it, except the packed extents, which only a `Quantized`
    /// search reads: each is verified before the first such search of its
    /// segment or a `save_mapped` (see `LazyExtents`), so other
    /// strategies never fault it in. Answers are byte-identical to
    /// [`SegmentedVaq::load`].
    ///
    /// Degrades to a fully-owned index, recorded at the `persist.mmap`
    /// fault site: through [`SegmentedVaq::load`] when the platform cannot
    /// map files or the mapping fails, and by reading the mapped bytes
    /// the way `load` reads a file when they leave the packed extents out
    /// (every writer but `save_mapped` does): nothing to scan in place.
    pub fn open_mapped(path: &Path) -> Result<SegmentedVaq, VaqError> {
        let _span = crate::obs::span("persist.open_mapped");
        if crate::faults::fired("persist.mmap") {
            crate::faults::note_degradation(
                "persist.mmap: injected mapping failure, loading an owned copy",
            );
            return SegmentedVaq::load(path);
        }
        let f = std::fs::File::open(path).map_err(|e| io_at(path, e))?;
        let Some(region) = MappedRegion::map_file(&f) else {
            crate::faults::note_degradation(
                "persist.mmap: mapping unavailable, loading an owned copy",
            );
            return SegmentedVaq::load(path);
        };
        // The mapping outlives the descriptor; the region owns the pages.
        drop(f);
        Ok(read_index(region.as_bytes(), Some(&region))?.0)
    }
}

// ---------------------------------------------------------------------------
// Reading: header, extent table, per-segment layout, array verification,
// then the one reader
// ---------------------------------------------------------------------------

/// Parses and verifies the header against the real file length `flen`:
/// magic, version, checksum, and that the claimed extent count's table at
/// least fits — so a fabricated count dies here instead of driving a
/// table-sized allocation. Returns `(wal_seq, extent count)`.
fn get_header(head: &[u8], flen: usize) -> Result<(u64, usize), VaqError> {
    let truncated = || VaqError::BadConfig("corrupt index file: truncated".into());
    if head.get(..4).ok_or_else(truncated)? != MAGIC {
        return Err(bad("unrecognized index file magic"));
    }
    let mut buf = Bytes::copy_from_slice(head.get(4..HEADER_LEN).ok_or_else(truncated)?);
    let version = buf.get_u32_le();
    let wal_seq = buf.get_u64_le();
    let nextents = buf.get_u64_le();
    if crate::crc::crc32c(&head[..HEADER_CRC_SPAN]) != buf.get_u32_le() {
        return Err(bad("header checksum mismatch"));
    }
    if version != VERSION {
        return Err(bad(&format!("unsupported version {version}")));
    }
    nextents
        .checked_mul(wide(TABLE_ENTRY))
        .and_then(|t| t.checked_add(wide(HEADER_LEN + 4)))
        .filter(|&table_end| table_end <= wide(flen))
        .ok_or_else(|| bad("extent count larger than the file can hold"))?;
    Ok((wal_seq, narrow(nextents, "extent count")?))
}

/// The verified extent table: spans (absolute offset + byte length) and
/// stored CRCs, parallel by extent index.
struct Table {
    wal_seq: u64,
    extents: Vec<ExtentSpan>,
    crcs: Vec<u32>,
}

impl Table {
    /// First byte after the table — where the first extent's padding
    /// starts.
    fn end(&self) -> usize {
        HEADER_LEN + self.extents.len() * TABLE_ENTRY + 4
    }

    /// The bytes of extent `i` (bounds proven by [`get_table`]).
    fn ext<'d>(&self, data: &'d [u8], i: usize) -> &'d [u8] {
        let s = self.extents[i];
        &data[s.offset..s.offset + s.len]
    }

    /// Extent `i`'s span and stored CRC.
    fn entry(&self, i: usize) -> (ExtentSpan, u32) {
        (self.extents[i], self.crcs[i])
    }

    /// Array extent `i`, its length checked by the caller, as a segment's
    /// typed storage: a copy, or a view in the mapping that `data` is.
    fn array<T, S: From<Vec<T>>, const N: usize>(
        &self,
        data: &[u8],
        mapped: Option<&Arc<MappedRegion>>,
        i: usize,
        decode: fn([u8; N]) -> T,
        view: fn(Arc<MappedRegion>, usize, usize) -> Option<S>,
    ) -> Result<S, VaqError> {
        match mapped {
            None => Ok(le_vec(self.ext(data, i), decode).into()),
            Some(region) => {
                view(Arc::clone(region), self.extents[i].offset, self.extents[i].len / N)
                    .ok_or_else(|| bad("mapped extent misaligned for its element type"))
            }
        }
    }

    /// Where sealed segment `s` keeps its arrays.
    fn arrays(&self, s: usize) -> ArrayExtents {
        let base = 1 + s * SEG_EXTENTS;
        ArrayExtents {
            seg: s,
            scan: [IDS, CODES, TI_IDX, TI_DIST].map(|slot| self.entry(base + slot)),
            packed: self.entry(base + PACKED),
        }
    }

    /// Extent count → sealed segment count.
    fn num_segments(&self) -> Result<usize, VaqError> {
        let body = self
            .extents
            .len()
            .checked_sub(2)
            .ok_or_else(|| bad("file needs model and buffer extents"))?;
        if !body.is_multiple_of(SEG_EXTENTS) {
            return Err(bad("extent count is not 2 + 7 per segment"));
        }
        Ok(body / SEG_EXTENTS)
    }
}

/// Parses and verifies the header and extent table against the real file
/// length: a span escaping the file dies here, before any per-extent
/// work. Also enforces the layout invariants viewing arrays in place relies
/// on — page-aligned, non-overlapping, ascending extents that end
/// exactly at the end of the file (VAQ113).
fn get_table(data: &[u8]) -> Result<Table, VaqError> {
    let (wal_seq, nextents) = get_header(&data[..data.len().min(HEADER_LEN)], data.len())?;
    let mut t = Table {
        wal_seq,
        extents: Vec::with_capacity(nextents),
        crcs: Vec::with_capacity(nextents),
    };
    let (entries, stored) =
        data[HEADER_LEN..HEADER_LEN + nextents * TABLE_ENTRY + 4].split_at(nextents * TABLE_ENTRY);
    if crate::crc::crc32c(entries) != Bytes::copy_from_slice(stored).get_u32_le() {
        return Err(bad("extent table checksum mismatch"));
    }
    let mut tb = Bytes::copy_from_slice(entries);
    let mut prev_end = HEADER_LEN + entries.len() + 4;
    for i in 0..nextents {
        let offset = narrow(tb.get_u64_le(), "extent offset")?;
        let len = narrow(tb.get_u64_le(), "extent length")?;
        t.crcs.push(tb.get_u32_le());
        if !offset.is_multiple_of(PAGE_ALIGN) {
            return Err(bad(&format!("extent {i} is not page aligned")));
        }
        if offset < prev_end {
            return Err(bad(&format!("extent {i} overlaps its predecessor")));
        }
        prev_end = offset
            .checked_add(len)
            .filter(|&e| e <= data.len())
            .ok_or_else(|| bad(&format!("extent {i} escapes the file bounds")))?;
        t.extents.push(ExtentSpan { offset, len });
    }
    if prev_end != data.len() {
        return Err(bad("trailing bytes after the last extent"));
    }
    Ok(t)
}

/// The parsed segment meta extent.
struct SegMeta {
    n: usize,
    dead: usize,
    /// Id of row 0: where the dense range starts when the ids extent is
    /// empty, and what a stored column must start with.
    first_id: u32,
    /// TI cluster boundaries, when the model has centroids.
    ti_offsets: Option<Vec<usize>>,
}

/// Parses the meta extent of the segment whose extents start at `base`
/// and checks every array extent's length against it, before any array
/// is copied or viewed. The packed extent is sized by
/// [`PackedCodes::from_parts`].
fn get_seg_layout(data: &[u8], t: &Table, base: usize, model: &Model) -> Result<SegMeta, VaqError> {
    let buf = &mut Bytes::copy_from_slice(t.ext(data, base));
    let n = take_len(buf, "row count")?;
    if n == 0 {
        return Err(bad("segment is empty"));
    }
    let dead = take_len(buf, "tombstone dead count")?;
    if dead > n {
        return Err(bad("tombstone dead count exceeds the row count"));
    }
    let first_id = take(buf, 4)?.get_u32_le();
    let ti_offsets = model.ti_centroids.is_some().then(|| get_usize_slice(buf)).transpose()?;
    expect_drained(buf, "segment meta extent")?;
    let meta = SegMeta { n, dead, first_id, ti_offsets };
    let rows_by = |elem: usize| checked_size(n, elem);
    let expect = |slot: usize, len: usize, what: &str| {
        if t.extents[base + slot].len == len {
            Ok(())
        } else {
            Err(bad(&format!("{what} extent sized wrong")))
        }
    };
    if t.extents[base + IDS].len != 0 {
        expect(IDS, rows_by(4)?, "segment ids")?;
    }
    expect(CODES, checked_size(rows_by(model.encoder.num_subspaces())?, 2)?, "segment codes")?;
    expect(WORDS, checked_size(n.div_ceil(64), 8)?, "segment tombstone words")?;
    let ti_len = if meta.ti_offsets.is_some() { rows_by(4)? } else { 0 };
    expect(TI_IDX, ti_len, "TI member ids")?;
    expect(TI_DIST, ti_len, "TI member distances")?;
    Ok(meta)
}

/// Decodes a little-endian scalar array whose byte length the caller has
/// checked.
fn le_vec<T, const N: usize>(bytes: &[u8], decode: fn([u8; N]) -> T) -> Vec<T> {
    bytes
        .chunks_exact(N)
        .map(|chunk| {
            let mut le = [0u8; N];
            le.copy_from_slice(chunk);
            decode(le)
        })
        .collect()
}

/// The ids of a segment whose ids extent holds `column`: an empty extent
/// is the dense range from the meta's first id (which must stay inside
/// the id space), a stored column must start there.
fn seg_ids(meta: &SegMeta, column: U32Storage) -> Result<SegmentIds, VaqError> {
    match column.first() {
        None => check_id_range(meta.first_id, meta.n).map(|()| SegmentIds::Dense(meta.first_id)),
        Some(&first) if first == meta.first_id => Ok(SegmentIds::Column(column)),
        Some(_) => Err(bad("segment meta disagrees with its first stored id")),
    }
}

/// Rejects an implicit id range `first..first + rows` that leaves the
/// `u32` id space, before anything computes an id from it.
fn check_id_range(first: u32, rows: usize) -> Result<(), VaqError> {
    match u32::try_from(rows).ok().and_then(|rows| first.checked_add(rows)) {
        Some(_) => Ok(()),
        None => Err(bad("id range exceeds the id space")),
    }
}

/// Turns an audit verdict into the loader's typed error. Files and
/// replayed records are untrusted input: a payload can parse field by
/// field yet still violate the index's invariants, and `crate::audit` is
/// the one place that states them — so every way in routes its part of
/// the audit through here, in every build profile, and the error names
/// the first violated diagnostic code.
pub(crate) fn audited(report: AuditReport, after: &str) -> Result<(), VaqError> {
    match report.issues() {
        [] => Ok(()),
        [first, rest @ ..] => Err(bad(&format!(
            "audit found {} invariant violation(s) after {after}: {first}",
            1 + rest.len()
        ))),
    }
}

/// Holds the bytes of one extent against its stored CRC32C.
fn check_crc(
    data: &[u8],
    (span, crc): (ExtentSpan, u32),
    what: &str,
    times: &mut OpenTimes,
) -> Result<(), VaqError> {
    let bytes = data.get(span.offset..span.offset.saturating_add(span.len));
    if times.timed(0, || bytes.map(crate::crc::crc32c)) != Some(crc) {
        return Err(bad(&format!("{what} extent checksum mismatch")));
    }
    Ok(())
}

/// One open's time on the extent CRCs (`[0]`) and on the audit's walks
/// over the segments' arrays (`[1]`), summed and recorded once as the
/// `persist.verify` and `persist.audit` spans. `None` — obs off, or a
/// verification outside an open — never reads the clock.
#[derive(Debug, Default)]
struct OpenTimes(Option<[u64; 2]>);

impl OpenTimes {
    fn timed<T>(&mut self, part: usize, f: impl FnOnce() -> T) -> T {
        let Some(ns) = &mut self.0 else { return f() };
        let t0 = std::time::Instant::now();
        let out = f();
        ns[part] += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        out
    }

    fn record(self) {
        if let Some([verify, audit]) = self.0 {
            crate::obs::record_span_ns("persist.verify", verify);
            crate::obs::record_span_ns("persist.audit", audit);
        }
    }
}

/// Where one sealed segment's array extents sit and what they must hash
/// to: all it takes to verify them, at open or later.
#[derive(Debug)]
struct ArrayExtents {
    /// The segment's position in the file, for the audit's messages.
    seg: usize,
    /// ids, codes and both TI member tables: what every strategy reads.
    scan: [(ExtentSpan, u32); 4],
    /// The blocked packing, which only a quantized scan reads.
    packed: (ExtentSpan, u32),
}

impl ArrayExtents {
    /// The parts that hold bytes from outside this process: the scan
    /// arrays always, the packing when its extent stores one. A packing
    /// the reader derived from the codes cannot disagree with them, so
    /// VAQ110 has nothing to say about it; the full audit still asks.
    fn read_parts(&self) -> ArrayParts {
        ArrayParts { scan: true, packed: self.packed.0.len != 0 }
    }

    /// The one statement that a segment's arrays can be trusted, made at
    /// open for every part but a mapped packing, which is made on first
    /// use: per part, the CRC of its extents in `data`, then the audit
    /// that walks them (the packing after the codes it is held against).
    fn verify(
        &self,
        data: &[u8],
        core: &SegmentCore,
        encoder: &Encoder,
        parts: ArrayParts,
        times: &mut OpenTimes,
    ) -> Result<(), VaqError> {
        if parts.scan {
            for &entry in &self.scan {
                check_crc(data, entry, "segment scan array", times)?;
            }
            let report = times.timed(1, || audit_core_scan(core, self.seg, encoder));
            audited(report, "reading a segment's scan arrays")?;
        }
        if parts.packed {
            check_crc(data, self.packed, "packed codes", times)?;
            let report = times.timed(1, || audit_core_packed(core, encoder));
            audited(report, "reading a segment's packed codes")?;
        }
        Ok(())
    }
}

/// Deferred verification of one mapped segment's packed extent, the one
/// array only a quantized scan reads: not at open, so other strategies
/// never fault its pages in, but before the segment's first `Quantized`
/// search or a `save_mapped` that copies it. The verdict is cached; a
/// failed one makes every later quantized search report a typed
/// corruption error. Verification never mutates, so two racing first
/// uses at worst duplicate it.
#[derive(Debug)]
pub(crate) struct LazyExtents {
    /// 0 unverified, 1 ok, 2 bad.
    state: AtomicU8,
    region: Arc<MappedRegion>,
    arrays: ArrayExtents,
}

impl LazyExtents {
    /// Verifies the packed extent exactly once; later calls return the
    /// cached verdict.
    pub(crate) fn verify_once(
        &self,
        core: &SegmentCore,
        encoder: &Encoder,
    ) -> Result<(), VaqError> {
        match self.state.load(Ordering::SeqCst) {
            1 => return Ok(()),
            2 => return Err(bad("mapped packed codes previously failed verification")),
            _ => {}
        }
        let parts = ArrayParts { scan: false, packed: true };
        let data = self.region.as_bytes();
        let res = self.arrays.verify(data, core, encoder, parts, &mut OpenTimes::default());
        let (verdict, counter) = match res {
            Ok(()) => (1, "persist.lazy_extents_verified"),
            Err(_) => (2, "persist.lazy_extents_failed"),
        };
        self.state.store(verdict, Ordering::SeqCst);
        crate::obs::counter_add(counter, 1);
        res
    }
}

/// The one reader (see the module docs): assembles the index held in
/// `data` and returns it with the file's `wal_seq`. `mapped` — the
/// mapping that `data` is, when it is one — makes both decisions: the
/// sealed segments' arrays are typed views of it instead of copies, and
/// a packing read from the file is verified on first use (`LazyExtents`)
/// instead of here. Here either way: the CRC of every other extent —
/// model, segment meta, tombstone words (deletes mutate them), buffer —
/// before a field of it is parsed; [`ArrayExtents::verify`] on each
/// segment's arrays — copies as each segment is assembled, views once
/// all are (of a stored ids extent the assembly reads the first element
/// before that); then the audit of everything else.
fn read_index(
    data: &[u8],
    mapped: Option<&Arc<MappedRegion>>,
) -> Result<(SegmentedVaq, u64), VaqError> {
    if mapped.is_none() && crate::faults::fired("persist.from_bytes") {
        return Err(VaqError::Injected { site: "persist.from_bytes" });
    }
    let _span = mapped.is_none().then(|| crate::obs::span("persist.load"));
    let mut times = OpenTimes(crate::obs::enabled().then_some([0; 2]));
    let t = get_table(data)?;
    let nsegs = t.num_segments()?;
    let last = t.extents.len() - 1;
    let mut prev_end = t.end();
    for (i, span) in t.extents.iter().enumerate() {
        if mapped.is_none() && data[prev_end..span.offset].iter().any(|&b| b != 0) {
            return Err(bad(&format!("non-zero padding before extent {i}")));
        }
        prev_end = span.offset + span.len;
        // An array extent that holds bytes is `ArrayExtents::verify`'s.
        let array = (1..last).contains(&i) && !matches!((i - 1) % SEG_EXTENTS, 0 | WORDS);
        if !(array && span.len != 0) {
            check_crc(data, t.entry(i), "index", &mut times)?;
        }
    }
    let mut mp = Bytes::copy_from_slice(t.ext(data, 0));
    let (model, policy, next_id) = get_model_policy(&mut mp)?;
    expect_drained(&mp, "model extent")?;
    let sizes: Vec<usize> = model.encoder.table_sizes().collect();
    let mut segments = Vec::with_capacity(nsegs);
    for s in 0..nsegs {
        let base = 1 + s * SEG_EXTENTS;
        let meta = get_seg_layout(data, &t, base, &model)?;
        let n = meta.n;
        let ids = t.array(data, mapped, base + IDS, u32::from_le_bytes, U32Storage::mapped)?;
        let ids = seg_ids(&meta, ids)?;
        let codes = t.array(data, mapped, base + CODES, u16::from_le_bytes, U16Storage::mapped)?;
        let words = t.array(data, mapped, base + WORDS, u64::from_le_bytes, U64Storage::mapped)?;
        let ti = match (meta.ti_offsets, &model.ti_centroids) {
            (Some(offsets), Some(centroids)) => {
                let idx =
                    t.array(data, mapped, base + TI_IDX, u32::from_le_bytes, U32Storage::mapped)?;
                let dist =
                    t.array(data, mapped, base + TI_DIST, f32::from_le_bytes, F32Storage::mapped)?;
                let prefix = model.ti_prefix_subspaces;
                let ti = TiPartition::from_parts(Arc::clone(centroids), offsets, idx, dist, prefix);
                Some(ti.ok_or_else(|| bad("TI boundaries are inconsistent"))?)
            }
            _ => None,
        };
        let raw = t.array(data, mapped, base + PACKED, u8::from_le_bytes, CodesStorage::mapped)?;
        let packed = match PackedCodes::from_parts(raw, &sizes, n) {
            Some(packed) => packed,
            None if t.extents[base + PACKED].len != 0 => {
                return Err(bad(&format!("segment {s} packed extent sized wrong")));
            }
            // No stored packing to scan in place: read the bytes as `load` would.
            None if mapped.is_some() => {
                crate::faults::note_degradation(
                    "persist.mmap: file has no packed extents, loading an owned copy",
                );
                return read_index(data, None);
            }
            None => PackedCodes::pack(&codes, &sizes, n),
        };
        crate::obs::note_truncated_packing(&packed, "persist.load");
        let arrays = t.arrays(s);
        let mut core = SegmentCore { ids, codes, n, packed, ti, lazy: None };
        match mapped {
            // While the copies are still in cache.
            None => arrays.verify(data, &core, &model.encoder, arrays.read_parts(), &mut times)?,
            Some(region) => {
                let (state, region) = (AtomicU8::new(0), Arc::clone(region));
                core.lazy = Some(Arc::new(LazyExtents { state, region, arrays }));
            }
        }
        let tombstones = Tombstones::from_storage(words, meta.dead);
        segments.push(Segment { core: Arc::new(core), tombstones });
    }
    let buffer = {
        let mut be = Bytes::copy_from_slice(t.ext(data, last));
        let buffer = get_buffer(&mut be, sizes.len())?;
        expect_drained(&be, "buffer extent")?;
        buffer
    };
    // Views' scan arrays, once the buffer extent's copy is gone, so that
    // it never sits beside the pages this faults in. A mapped packing
    // waits for its first reader (`LazyExtents`).
    if mapped.is_some() {
        for (s, seg) in segments.iter().enumerate() {
            let scan = ArrayParts { scan: true, packed: false };
            t.arrays(s).verify(data, &seg.core, &model.encoder, scan, &mut times)?;
        }
    }
    if crate::obs::enabled() {
        // What the file held, in the line `vaq_cli audit` / `info` print.
        let rows: usize = segments.iter().map(|s| s.core.n).sum();
        let dead: usize = segments.iter().map(|s| s.tombstones.dead()).sum();
        let stored = segments.iter().filter(|s| !s.core.ids.column().is_empty()).count();
        let ti = model.ti_centroids.as_ref().map_or(0, |c| c.rows());
        let held = format!(
            "bits {:?}: {} sealed segment(s), {stored} with stored ids, holding {rows} rows \
             ({dead} tombstoned), \
             TI clusters {ti} over the first {} subspaces, \
             {} buffered rows ({} tombstoned), next id {next_id}, wal_seq {}",
            model.bits,
            segments.len(),
            model.ti_prefix_subspaces,
            buffer.rows,
            buffer.tombstones.dead(),
            t.wal_seq,
        );
        crate::obs::event("persist.load", &held);
    }
    times.record();
    let index = SegmentedVaq::from_parts(model, policy, segments, buffer, next_id);
    index.admit_loaded("load", |_| ArrayParts { scan: false, packed: false })?;
    if mapped.is_some() {
        crate::obs::counter_add("persist.mapped_opens", 1);
    }
    Ok((index, t.wal_seq))
}

// ---------------------------------------------------------------------------
// Field vocabulary
// ---------------------------------------------------------------------------

/// Writes the model extent: the trained model (projection, layout, bit
/// plan, codebooks, default strategy, TI prefix and centroids), the
/// maintenance policy, and the id counter.
fn put_model(buf: &mut BytesMut, model: &Model, policy: &SegmentPolicy, next_id: u32) {
    put_pca(buf, &model.pca);
    put_layout(buf, &model.layout);
    put_usize_slice(buf, model.encoder.bits());
    buf.put_u64_le(wide(model.encoder.codebooks.len()));
    for cb in &model.encoder.codebooks {
        put_matrix(buf, cb);
    }
    put_strategy(buf, model.default_strategy);
    buf.put_u64_le(wide(model.ti_prefix_subspaces));
    put_matrix(buf, model.ti_centroids.as_deref().unwrap_or(&Matrix::zeros(0, 0)));

    buf.put_u64_le(wide(policy.seal_threshold));
    buf.put_u64_le(wide(policy.compact_min_segments));
    buf.put_f64_le(policy.tombstone_purge_frac);

    buf.put_u32_le(next_id);
}

/// Reads and validates what [`put_model`] wrote.
fn get_model_policy(buf: &mut Bytes) -> Result<(Model, SegmentPolicy, u32), VaqError> {
    let pca = get_pca(buf)?;
    let layout = get_layout(buf)?;
    let bits = get_usize_slice(buf)?;
    if bits.len() != layout.ranges.len() {
        return Err(bad("bits/subspace count mismatch"));
    }
    let codebooks = get_codebooks(buf, bits.len())?;
    let encoder = Encoder { codebooks, bits: bits.clone(), ranges: layout.ranges.clone() };
    let m = encoder.num_subspaces();
    let default_strategy = get_strategy(buf)?;
    let ti_prefix_subspaces = take_len(buf, "TI prefix")?;
    if !(1..=m).contains(&ti_prefix_subspaces) {
        return Err(bad("TI prefix outside the subspace plan"));
    }
    let centroids = get_matrix(buf)?;
    if centroids.rows() == 0 && centroids.cols() != 0 {
        return Err(bad("TI centroids without rows"));
    }
    let ti_centroids = (centroids.rows() > 0).then(|| Arc::new(centroids));
    let model =
        Model { pca, layout, bits, encoder, default_strategy, ti_centroids, ti_prefix_subspaces };

    // Policy (re-clamped through the builders: persisted knobs are as
    // untrusted as everything else).
    let seal_threshold = take_len(buf, "seal threshold")?;
    let compact_min_segments = take_len(buf, "compaction minimum")?;
    let tombstone_purge_frac = take(buf, 8)?.get_f64_le();
    let policy = SegmentPolicy::default()
        .with_seal_threshold(seal_threshold)
        .with_compact_min_segments(compact_min_segments)
        .with_tombstone_purge_frac(tombstone_purge_frac);

    let next_id = take(buf, 4)?.get_u32_le();
    Ok((model, policy, next_id))
}

/// Writes the unsealed write buffer.
fn put_buffer(buf: &mut BytesMut, buffer: &Buffer) {
    buf.put_u64_le(wide(buffer.rows));
    buf.put_u32_le(buffer.first_id);
    for &c in &buffer.codes {
        buf.put_u16_le(c);
    }
    buf.put_u64_le(wide(buffer.tombstones.dead()));
    buf.put_u64_le(wide(buffer.tombstones.words().len()));
    for &w in buffer.tombstones.words() {
        buf.put_u64_le(w);
    }
}

/// Reads the write buffer of an `m`-subspace index. Each array's bytes
/// are taken *before* it is allocated: the counts are untrusted, and a
/// fabricated one must fail the length check, not reserve memory.
fn get_buffer(buf: &mut Bytes, m: usize) -> Result<Buffer, VaqError> {
    let rows = take_len(buf, "buffer row count")?;
    let first_id = take(buf, 4)?.get_u32_le();
    check_id_range(first_id, rows)?;
    let code_bytes = checked_size(checked_size(rows, m)?, 2)?;
    let codes: Vec<u16> = le_vec(&take(buf, code_bytes)?, u16::from_le_bytes);
    let dead = take_len(buf, "tombstone dead count")?;
    let nwords = take_len(buf, "tombstone word count")?;
    let words: Vec<u64> = le_vec(&take(buf, checked_size(nwords, 8)?)?, u64::from_le_bytes);
    let tombstones = Tombstones::from_storage(words.into(), dead);
    Ok(Buffer { first_id, rows, codes, tombstones })
}

/// Rejects unconsumed bytes at the end of an extent: a well-formed writer
/// never leaves slack, so trailing bytes mean corruption that happened to
/// keep the checksum intact (i.e. a hostile file).
fn expect_drained(buf: &Bytes, what: &str) -> Result<(), VaqError> {
    if buf.remaining() != 0 {
        return Err(bad(&format!("{what} has trailing bytes")));
    }
    Ok(())
}

fn take(buf: &mut Bytes, n: usize) -> Result<Bytes, VaqError> {
    if buf.remaining() < n {
        return Err(VaqError::BadConfig("corrupt index file: truncated".into()));
    }
    Ok(buf.split_to(n))
}

/// The uniform corruption error: every loader rejection routes through
/// here so callers can match one variant.
fn bad(msg: &str) -> VaqError {
    VaqError::BadConfig(format!("corrupt index file: {msg}"))
}

/// `count * elem_size` with overflow reported as corruption — every length
/// in the file is attacker-controlled, so no size math may wrap.
fn checked_size(count: usize, elem_size: usize) -> Result<usize, VaqError> {
    count
        .checked_mul(elem_size)
        .ok_or_else(|| VaqError::BadConfig("corrupt index file: length overflow".into()))
}

/// Widens a host-side length to the on-disk `u64`. `usize` is at most 64
/// bits on every supported target, so the conversion cannot fail; the
/// saturating fallback keeps the writer total rather than panicking if
/// that ever changes. The write path's only integer conversion funnels
/// through here (rule VAQ010).
pub(crate) fn wide(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Narrows an on-disk `u64` to a host `usize`, rejecting values this
/// address space cannot represent — the check an `as usize` cast would
/// silently truncate away on 32-bit targets (rule VAQ010).
pub(crate) fn narrow(v: u64, what: &str) -> Result<usize, VaqError> {
    usize::try_from(v).map_err(|_| bad(&format!("{what} {v} does not fit in usize")))
}

/// Reads one little-endian `u64` length/count field and narrows it.
fn take_len(buf: &mut Bytes, what: &str) -> Result<usize, VaqError> {
    narrow(take(buf, 8)?.get_u64_le(), what)
}

fn put_pca(buf: &mut BytesMut, pca: &Pca) {
    put_f32_slice(buf, pca.mean());
    put_matrix(buf, pca.components());
    put_f64_slice(buf, pca.eigenvalues());
}

fn get_pca(buf: &mut Bytes) -> Result<Pca, VaqError> {
    let mean = get_f32_slice(buf)?;
    let components = get_matrix(buf)?;
    let eigenvalues = get_f64_slice(buf)?;
    if mean.len() != components.rows() || eigenvalues.len() != components.cols() {
        return Err(bad("pca shape mismatch"));
    }
    Ok(Pca::from_parts(mean, components, eigenvalues))
}

fn put_layout(buf: &mut BytesMut, layout: &SubspaceLayout) {
    put_usize_slice(buf, &layout.perm);
    buf.put_u64_le(wide(layout.ranges.len()));
    for &(lo, hi) in &layout.ranges {
        buf.put_u64_le(wide(lo));
        buf.put_u64_le(wide(hi));
    }
    put_f64_slice(buf, &layout.variance_share);
    put_f64_slice(buf, &layout.pc_share);
}

fn get_layout(buf: &mut Bytes) -> Result<SubspaceLayout, VaqError> {
    let perm = get_usize_slice(buf)?;
    let nranges = take_len(buf, "subspace range count")?;
    if nranges > perm.len().max(1) {
        return Err(bad("too many subspace ranges"));
    }
    let mut ranges = Vec::with_capacity(nranges);
    for _ in 0..nranges {
        let lo = take_len(buf, "range lo")?;
        let hi = take_len(buf, "range hi")?;
        if lo > hi || hi > perm.len() {
            return Err(bad("invalid subspace range"));
        }
        ranges.push((lo, hi));
    }
    let variance_share = get_f64_slice(buf)?;
    let pc_share = get_f64_slice(buf)?;
    if variance_share.len() != nranges || pc_share.len() != perm.len() {
        return Err(bad("layout share lengths"));
    }
    Ok(SubspaceLayout { perm, ranges, variance_share, pc_share })
}

/// Reads the codebooks, one per subspace.
fn get_codebooks(buf: &mut Bytes, m: usize) -> Result<Vec<Matrix>, VaqError> {
    if take_len(buf, "codebook count")? != m {
        return Err(bad("codebook count mismatch"));
    }
    (0..m).map(|_| get_matrix(buf)).collect()
}

fn put_strategy(buf: &mut BytesMut, strategy: SearchStrategy) {
    match strategy {
        SearchStrategy::FullScan => buf.put_u8(0),
        SearchStrategy::EarlyAbandon => buf.put_u8(1),
        SearchStrategy::TiEa { visit_frac } => {
            buf.put_u8(2);
            buf.put_f64_le(visit_frac);
        }
        SearchStrategy::Quantized => buf.put_u8(3),
    }
}

fn get_strategy(buf: &mut Bytes) -> Result<SearchStrategy, VaqError> {
    match take(buf, 1)?.get_u8() {
        0 => Ok(SearchStrategy::FullScan),
        1 => Ok(SearchStrategy::EarlyAbandon),
        2 => Ok(SearchStrategy::TiEa { visit_frac: take(buf, 8)?.get_f64_le() }),
        3 => Ok(SearchStrategy::Quantized),
        _ => Err(bad("bad strategy tag")),
    }
}

fn put_matrix(buf: &mut BytesMut, m: &Matrix) {
    buf.put_u64_le(wide(m.rows()));
    buf.put_u64_le(wide(m.cols()));
    for &v in m.as_slice() {
        buf.put_f32_le(v);
    }
}

fn get_matrix(buf: &mut Bytes) -> Result<Matrix, VaqError> {
    let rows = take_len(buf, "matrix rows")?;
    let cols = take_len(buf, "matrix cols")?;
    let total = rows
        .checked_mul(cols)
        .filter(|&t| t <= 1 << 32)
        .ok_or_else(|| VaqError::BadConfig("corrupt index file: matrix too large".into()))?;
    // Bytes first, allocation second: the dimensions are untrusted.
    let mut bytes = take(buf, checked_size(total, 4)?)?;
    let mut data = Vec::with_capacity(total);
    for _ in 0..total {
        data.push(bytes.get_f32_le());
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

fn put_f32_slice(buf: &mut BytesMut, s: &[f32]) {
    buf.put_u64_le(wide(s.len()));
    for &v in s {
        buf.put_f32_le(v);
    }
}

fn get_f32_slice(buf: &mut Bytes) -> Result<Vec<f32>, VaqError> {
    let len = take_len(buf, "length")?;
    let mut bytes = take(buf, checked_size(len, 4)?)?;
    Ok((0..len).map(|_| bytes.get_f32_le()).collect())
}

fn put_f64_slice(buf: &mut BytesMut, s: &[f64]) {
    buf.put_u64_le(wide(s.len()));
    for &v in s {
        buf.put_f64_le(v);
    }
}

fn get_f64_slice(buf: &mut Bytes) -> Result<Vec<f64>, VaqError> {
    let len = take_len(buf, "length")?;
    let mut bytes = take(buf, checked_size(len, 8)?)?;
    Ok((0..len).map(|_| bytes.get_f64_le()).collect())
}

fn put_usize_slice(buf: &mut BytesMut, s: &[usize]) {
    buf.put_u64_le(wide(s.len()));
    for &v in s {
        buf.put_u64_le(wide(v));
    }
}

fn get_usize_slice(buf: &mut Bytes) -> Result<Vec<usize>, VaqError> {
    let len = take_len(buf, "length")?;
    let mut bytes = take(buf, checked_size(len, 8)?)?;
    (0..len).map(|_| narrow(bytes.get_u64_le(), "usize element")).collect()
}

#[cfg(test)]
mod tests {
    use super::{get_table, HEADER_LEN, SEG_EXTENTS, TABLE_ENTRY};
    use crate::obs::ring_after;
    use crate::segment::{SegmentPolicy, SegmentedVaq};
    use crate::sync::Arc;
    use crate::{SearchStrategy, Vaq, VaqConfig, VaqError};
    use vaq_linalg::Matrix;

    fn toy_data(n: usize) -> Matrix {
        let mut s = 77u64;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(16);
            for j in 0..16 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = ((s >> 40) as f32 / (1u32 << 23) as f32) - 1.0;
                row.push(v * 2.0 / (1.0 + j as f32 * 0.3));
            }
            rows.push(row);
        }
        Matrix::from_rows(&rows)
    }

    fn policy() -> SegmentPolicy {
        SegmentPolicy::default().with_seal_threshold(40).with_compact_min_segments(3)
    }

    /// A segmented index with several sealed segments, tombstones in
    /// both a segment and the buffer, and a non-empty buffer.
    fn populated() -> (SegmentedVaq, Matrix) {
        let data = toy_data(300);
        let train = data.select_rows(&(0..150).collect::<Vec<_>>());
        let rest = data.select_rows(&(150..300).collect::<Vec<_>>());
        let seg =
            SegmentedVaq::train(&train, &VaqConfig::new(24, 4).with_ti_clusters(16), policy())
                .unwrap();
        // Chunks of 15 against a threshold of 40: two seals fire and
        // the last 15 rows stay in the write buffer.
        for chunk in rest.as_slice().chunks(15 * rest.cols()) {
            let m = Matrix::from_vec(chunk.len() / rest.cols(), rest.cols(), chunk.to_vec());
            seg.add(&m).unwrap();
        }
        seg.delete(7); // sealed row
        seg.delete(295); // buffered row
        (seg, data)
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("vaq-persist-tests").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Recomputes every extent CRC and the table CRC of a patched file,
    /// so a test can reach the field validation *behind* the checksums
    /// (what a hostile writer, not a bit flip, would exercise).
    fn reseal(bytes: &mut [u8]) {
        let word = |b: &[u8], at: usize| {
            usize::try_from(u64::from_le_bytes(b[at..at + 8].try_into().unwrap())).unwrap()
        };
        let nextents = word(bytes, 16);
        let table_end = HEADER_LEN + nextents * TABLE_ENTRY;
        for entry in (HEADER_LEN..table_end).step_by(TABLE_ENTRY) {
            let (off, len) = (word(bytes, entry), word(bytes, entry + 8));
            let crc = crate::crc::crc32c(&bytes[off..off + len]);
            bytes[entry + 16..entry + 20].copy_from_slice(&crc.to_le_bytes());
        }
        let table_crc = crate::crc::crc32c(&bytes[HEADER_LEN..table_end]);
        bytes[table_end..table_end + 4].copy_from_slice(&table_crc.to_le_bytes());
    }

    fn err_text<T>(r: Result<T, VaqError>) -> String {
        match r {
            Err(VaqError::BadConfig(msg)) => msg,
            Err(other) => panic!("expected BadConfig, got {other:?}"),
            Ok(_) => panic!("corrupt file accepted"),
        }
    }

    #[test]
    fn round_trip_preserves_search_results() {
        let data = toy_data(400);
        // With a TI partition and without one (empty TI extents).
        for ti_clusters in [16, 0] {
            let cfg = VaqConfig::new(24, 4).with_ti_clusters(ti_clusters);
            let vaq = Vaq::train(&data, &cfg).unwrap();
            let bytes = vaq.to_bytes();
            let back = Vaq::from_bytes(&bytes).unwrap();
            assert_eq!(back.bits(), vaq.bits());
            assert_eq!(back.len(), vaq.len());
            assert_eq!(back.ti().is_some(), ti_clusters > 0);
            assert_eq!(back.to_bytes(), bytes, "re-serialization is not byte-stable");
            for i in (0..400).step_by(37) {
                assert_eq!(vaq.search(data.row(i), 7), back.search(data.row(i), 7), "row {i}");
                for strat in [
                    SearchStrategy::FullScan,
                    SearchStrategy::EarlyAbandon,
                    SearchStrategy::TiEa { visit_frac: 0.5 },
                ] {
                    assert_eq!(
                        vaq.search_with(data.row(i), 5, strat).unwrap().0,
                        back.search_with(data.row(i), 5, strat).unwrap().0
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_corrupted_files() {
        let data = toy_data(100);
        let vaq = Vaq::train(&data, &VaqConfig::new(16, 4).with_ti_clusters(8)).unwrap();
        for mut bytes in [vaq.to_bytes(), populated().0.to_bytes()] {
            let load =
                |b: &[u8]| (Vaq::from_bytes(b).is_err(), SegmentedVaq::from_bytes(b).is_err());

            // Bad magic.
            let mut bad = bytes.clone();
            bad[3] = b'9';
            assert_eq!(load(&bad), (true, true));

            // A version-1 file (TI centroids in every segment's meta) is
            // refused by its header, behind a valid header checksum.
            let mut old = bytes.clone();
            old[4..8].copy_from_slice(&1u32.to_le_bytes());
            let crc = crate::crc::crc32c(&old[..super::HEADER_CRC_SPAN]);
            old[super::HEADER_CRC_SPAN..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
            assert!(err_text(SegmentedVaq::from_bytes(&old)).contains("unsupported version 1"));
            assert!(err_text(Vaq::from_bytes(&old)).contains("unsupported version 1"));

            // Truncation at every 89th byte must error, never panic.
            for at in (5..bytes.len()).step_by(89) {
                assert_eq!(load(&bytes[..at]), (true, true), "truncated at {at}");
            }

            // Wholesale byte shift cannot parse cleanly.
            for b in bytes.iter_mut() {
                *b = b.wrapping_add(13);
            }
            assert_eq!(load(&bytes), (true, true));
        }
    }

    #[test]
    fn rejects_byte_patched_oversized_code() {
        let data = toy_data(100);
        let mut vaq = Vaq::train(&data, &VaqConfig::new(16, 4).with_ti_clusters(8)).unwrap();
        let mut clean = vaq.to_bytes();

        // Locate `codes[0]` in the file without hard-coding the layout:
        // re-serialize with that code nudged to a different in-range value
        // and diff. The first differing byte past the extent table (whose
        // CRC entries differ too) is the low byte of its LE u16.
        let rows = vaq.encoder().codebooks()[0].rows() as u16;
        let codes = Arc::make_mut(&mut vaq.core).codes.to_mut();
        codes[0] = (codes[0] + 1) % rows;
        let nudged = vaq.to_bytes();
        let body = get_table(&clean).unwrap().end();
        let off =
            body + clean[body..].iter().zip(&nudged[body..]).position(|(a, b)| a != b).unwrap();

        // Patch the clean file so the code points past every dictionary,
        // with checksums a bit flip could never produce.
        clean[off] = 0xff;
        clean[off + 1] = 0xff;
        assert!(err_text(Vaq::from_bytes(&clean)).contains("checksum mismatch"));
        reseal(&mut clean);
        assert!(err_text(Vaq::from_bytes(&clean)).contains("VAQ106"));
    }

    #[test]
    fn quantized_default_strategy_round_trips() {
        let data = toy_data(200);
        let mut vaq = Vaq::train(&data, &VaqConfig::new(24, 4).with_ti_clusters(8)).unwrap();
        vaq.model.default_strategy = SearchStrategy::Quantized;
        let back = Vaq::from_bytes(&vaq.to_bytes()).unwrap();
        assert_eq!(back.model.default_strategy, SearchStrategy::Quantized);
        assert!(back.core.packed.is_active(), "packing must be rebuilt on load");
        for i in (0..200).step_by(41) {
            assert_eq!(vaq.search(data.row(i), 5), back.search(data.row(i), 5), "row {i}");
        }
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(Vaq::load(std::path::Path::new("/nonexistent/vaq.idx")).is_err());
    }

    #[test]
    fn segmented_round_trip_preserves_state_and_results() {
        let (seg, data) = populated();
        let bytes = seg.to_bytes();
        let back = SegmentedVaq::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes, "re-serialization is not byte-stable");
        assert_eq!(back.len(), seg.len());
        assert_eq!(back.snapshot().num_segments(), seg.snapshot().num_segments());
        assert_eq!(back.snapshot().buffer_len(), seg.snapshot().buffer_len());
        assert_eq!(back.policy().seal_threshold, 40);
        assert_eq!(back.policy().compact_min_segments, 3);
        assert!(!back.contains(7) && !back.contains(295));
        for i in (0..300).step_by(41) {
            for strat in [
                SearchStrategy::FullScan,
                SearchStrategy::TiEa { visit_frac: 1.0 },
                SearchStrategy::Quantized,
            ] {
                assert_eq!(
                    seg.search_with(data.row(i), 7, strat).unwrap().0,
                    back.search_with(data.row(i), 7, strat).unwrap().0,
                    "row {i} {strat:?}"
                );
            }
        }
        // Appends keep working on the loaded index (next_id restored).
        let pre = back.len();
        let ids = back.add(&toy_data(3)).unwrap();
        assert!(ids.iter().all(|&id| id >= 300), "{ids:?}");
        assert_eq!(back.len(), pre + 3);
        // Several segments, tombstones and buffered rows: not a `Vaq`.
        assert!(err_text(Vaq::from_bytes(&bytes)).contains("segmented index"));
    }

    #[test]
    fn monolithic_file_loads_as_one_sealed_segment() {
        let data = toy_data(250);
        let vaq = Vaq::train(&data, &VaqConfig::new(24, 4).with_ti_clusters(16)).unwrap();
        let back = SegmentedVaq::from_bytes(&vaq.to_bytes()).unwrap();
        assert_eq!(back.len(), 250);
        assert_eq!(back.snapshot().num_segments(), 1);
        assert_eq!(back.snapshot().buffer_len(), 0);
        assert_eq!(back.live_ids(), (0..250).collect::<Vec<u32>>());
        for i in (0..250).step_by(23) {
            for strat in [
                SearchStrategy::FullScan,
                SearchStrategy::EarlyAbandon,
                SearchStrategy::TiEa { visit_frac: 0.5 },
                SearchStrategy::Quantized,
            ] {
                assert_eq!(
                    vaq.search_with(data.row(i), 9, strat).unwrap().0,
                    back.search_with(data.row(i), 9, strat).unwrap().0,
                    "row {i} {strat:?}"
                );
            }
        }
    }

    #[test]
    fn over_threshold_buffer_is_sealed_on_load() {
        // A file can carry a buffer at or above the seal threshold
        // (serialized mid-ingest, or with a policy edit). Use a marker
        // threshold value, locate its unique encoding in the file, and
        // shrink it below the buffered row count.
        let marker = 0x00DE_AD17usize;
        let data = toy_data(120);
        let seg = SegmentedVaq::train(
            &data,
            &VaqConfig::new(24, 4).with_ti_clusters(8),
            SegmentPolicy::default().with_seal_threshold(marker),
        )
        .unwrap();
        seg.add(&toy_data(50)).unwrap();
        assert_eq!(seg.snapshot().buffer_len(), 50);
        let mut bytes = seg.to_bytes();
        let needle = super::wide(marker).to_le_bytes();
        let hits: Vec<usize> =
            bytes.windows(8).enumerate().filter(|(_, w)| *w == needle).map(|(i, _)| i).collect();
        assert_eq!(hits.len(), 1, "marker threshold must appear exactly once");
        bytes[hits[0]..hits[0] + 8].copy_from_slice(&8u64.to_le_bytes());
        reseal(&mut bytes);

        let back = SegmentedVaq::from_bytes(&bytes).unwrap();
        assert_eq!(back.policy().seal_threshold, 8);
        assert!(back.snapshot().buffer_len() < 8, "loader must re-seal the buffer");
        assert_eq!(back.len(), seg.len());
        assert_eq!(seg.search(data.row(5), 6).unwrap(), back.search(data.row(5), 6).unwrap());
    }

    #[test]
    fn hostile_id_ranges_are_rejected() {
        // A purged segment (stored ids), one sealed from the buffer (an
        // implicit range) and ten buffered rows.
        let data = toy_data(205);
        let rows = |lo: usize, hi: usize| data.select_rows(&(lo..hi).collect::<Vec<_>>());
        let cfg = VaqConfig::new(24, 4).with_ti_clusters(16);
        let seg = SegmentedVaq::train(&rows(0, 150), &cfg, policy()).unwrap();
        seg.add(&rows(150, 195)).unwrap();
        for id in (0..150).step_by(3) {
            seg.delete(id);
        }
        seg.add(&rows(195, 205)).unwrap();
        let clean = seg.to_bytes();
        let t = get_table(&clean).unwrap();
        let ids_len = |s: usize| t.extents[1 + s * SEG_EXTENTS + super::IDS].len;
        assert_eq!((t.num_segments().unwrap(), ids_len(0) > 0, ids_len(1)), (2, true, 0));
        // Both first-id fields sit behind a row count and a dead count /
        // a row count; patch them behind valid checksums.
        let first_id_of_segment = |s: usize| t.extents[1 + s * SEG_EXTENTS].offset + 16;
        let first_id_of_buffer = t.extents[t.extents.len() - 1].offset + 8;
        let load = |at: usize, first_id: u32| {
            let mut bytes = clean.clone();
            bytes[at..at + 4].copy_from_slice(&first_id.to_le_bytes());
            reseal(&mut bytes);
            err_text(SegmentedVaq::from_bytes(&bytes))
        };
        assert!(load(first_id_of_segment(0), 0).contains("first stored id"));
        assert!(load(first_id_of_segment(1), u32::MAX - 3).contains("id space"));
        assert!(load(first_id_of_buffer, u32::MAX - 3).contains("id space"));
        // Ranges that run into a neighbour or past the id counter parse
        // field by field; the structural audit (VAQ111) refuses them.
        assert!(load(first_id_of_segment(1), 100).contains("audit"));
        assert!(load(first_id_of_segment(1), 1 << 20).contains("audit"));
        assert!(load(first_id_of_buffer, 200).contains("audit"));

        // The mapped open runs the same audit (where files cannot be
        // mapped it loads owned).
        let path = tmp_dir("hostile-ids").join("index.vaq");
        seg.save_mapped(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let t = get_table(&clean).unwrap();
        let at = t.extents[1 + SEG_EXTENTS].offset + 16;
        for (first_id, why) in
            [(100u32, "overlap"), (1 << 20, "id counter"), (u32::MAX, "id space")]
        {
            let mut bytes = clean.clone();
            bytes[at..at + 4].copy_from_slice(&first_id.to_le_bytes());
            reseal(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            let msg = err_text(SegmentedVaq::open_mapped(&path));
            assert!(msg.contains(why) || msg.contains("audit"), "{first_id}: {msg}");
        }
    }

    #[test]
    fn tombstone_accounting_corruption_is_rejected() {
        let (seg, _) = populated();
        // The very end of the file holds the buffer's bitmap: setting a
        // bit there breaks the popcount/dead agreement — behind a valid
        // checksum, so the field check itself must catch it.
        let mut bytes = seg.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        reseal(&mut bytes);
        assert!(err_text(SegmentedVaq::from_bytes(&bytes)).contains("tombstone"));
    }

    /// CRC-valid hostile files — what a writer that is not this program
    /// could hand us — are refused alike by the three combinations the
    /// reader serves: arrays copied (`from_bytes`), viewed (`open_mapped`),
    /// and the same edit written without packed extents and opened with
    /// `open_mapped` (copied after all). The same diagnostic code from
    /// each, at open — except for a mapped packing, which the first
    /// `save_mapped` or `Quantized` search that reads it refuses, after
    /// which every quantized search does.
    #[test]
    fn crc_valid_hostile_edits_are_refused_alike_owned_and_mapped() {
        use crate::segment::{Buffer, Model, Segment, SegmentIds, Tombstones};
        use vaq_linalg::PackedCodes;

        struct Parts {
            model: Model,
            segments: Vec<Segment>,
            buffer: Buffer,
            next_id: u32,
        }
        #[derive(PartialEq)]
        enum Caught {
            AtOpen,
            ByQuantizedScan,
        }
        fn core(p: &mut Parts) -> &mut crate::segment::SegmentCore {
            Arc::make_mut(&mut p.segments[0].core)
        }
        fn repacked(p: &mut Parts, edit: impl FnOnce(&mut Vec<u8>)) {
            let sizes: Vec<usize> = p.model.encoder.table_sizes().collect();
            let core = core(p);
            let mut bytes = core.packed.data().to_vec();
            edit(&mut bytes);
            core.packed = PackedCodes::from_parts(bytes.into(), &sizes, core.n).unwrap();
        }
        fn tombstones(p: &mut Parts, extra_bit: Option<usize>) {
            let seg = &mut p.segments[0];
            let mut words = seg.tombstones.words().to_vec();
            if let Some(bit) = extra_bit {
                words[bit / 64] |= 1 << (bit % 64);
            }
            seg.tombstones = Tombstones::from_storage(words.into(), seg.tombstones.dead() + 1);
        }
        let edits: Vec<(&str, &str, Caught, fn(&mut Parts))> = vec![
            ("pad-lane packed byte", "VAQ110", Caught::ByQuantizedScan, |p| {
                // 150 rows: the last block's lanes 22.. are padding.
                repacked(p, |bytes| *bytes.last_mut().unwrap() = 0xff)
            }),
            ("real-lane packed byte", "VAQ110", Caught::ByQuantizedScan, |p| {
                repacked(p, |bytes| bytes[0] ^= 1)
            }),
            ("out-of-range code", "VAQ106", Caught::AtOpen, |p| {
                core(p).codes.to_mut()[0] = u16::MAX
            }),
            ("unsorted TI distances", "VAQ108", Caught::AtOpen, |p| {
                let ti = core(p).ti.as_mut().unwrap();
                let (start, end) = (0..ti.num_clusters())
                    .map(|c| ti.cluster_range(c))
                    .find(|&(s, e)| ti.member_dist[s] < ti.member_dist[e - 1])
                    .unwrap();
                ti.member_dist.to_mut()[start..end].reverse();
            }),
            ("non-finite TI distance", "VAQ108", Caught::AtOpen, |p| {
                core(p).ti.as_mut().unwrap().member_dist.to_mut()[0] = f32::NAN
            }),
            ("double-assigned TI member", "VAQ108", Caught::AtOpen, |p| {
                let idx = core(p).ti.as_mut().unwrap().member_idx.to_mut();
                idx[0] = idx[1];
            }),
            ("tombstone bit past n", "VAQ111", Caught::AtOpen, |p| tombstones(p, Some(191))),
            ("popcount != dead", "VAQ111", Caught::AtOpen, |p| tombstones(p, None)),
            ("overlapping id range", "VAQ111", Caught::AtOpen, |p| {
                Arc::make_mut(&mut p.segments[1].core).ids = SegmentIds::Dense(100)
            }),
            ("id counter behind the ids", "VAQ111", Caught::AtOpen, |p| p.next_id = 10),
            ("duplicate perm entry", "VAQ105", Caught::AtOpen, |p| {
                p.model.layout.perm[1] = p.model.layout.perm[0]
            }),
            ("zero-bit subspace", "VAQ101", Caught::AtOpen, |p| {
                p.model.bits[0] = 0;
                p.model.encoder.bits[0] = 0;
            }),
        ];

        let (clean, data) = populated();
        let (set, next_id, _) = clean.writer_cut();
        assert_eq!((set.segments[0].core.n, set.segments.len() > 1), (150, true));
        let path = tmp_dir("hostile-table").join("index.vaq");
        let strategies = [
            SearchStrategy::FullScan,
            SearchStrategy::TiEa { visit_frac: 1.0 },
            SearchStrategy::Quantized,
        ];
        for (what, code, caught, edit) in edits {
            let mut parts = Parts {
                model: clean.shared_model().clone(),
                segments: set.segments.clone(),
                buffer: (*set.buffer).clone(),
                next_id,
            };
            edit(&mut parts);
            let Parts { model, segments, buffer, next_id } = parts;
            let hostile = SegmentedVaq::from_parts(model, policy(), segments, buffer, next_id);

            // A plain `save` leaves the packing out, and with it the two
            // packed-byte edits: that file is a clean one.
            hostile.save(&path).unwrap();
            match SegmentedVaq::open_mapped(&path) {
                Ok(_) => assert!(caught == Caught::ByQuantizedScan, "{what}: accepted unpacked"),
                Err(e) => {
                    let msg = err_text::<()>(Err(e));
                    assert!(msg.contains(code), "{what}, unpacked: {msg}");
                }
            }

            hostile.save_mapped(&path).unwrap();
            let owned = err_text(SegmentedVaq::from_bytes(&std::fs::read(&path).unwrap()));
            assert!(owned.contains(code), "{what}, owned: {owned}");
            let mapped = match SegmentedVaq::open_mapped(&path) {
                Ok(mapped) => mapped,
                // Also where files cannot be mapped and the open loads owned.
                Err(e) => {
                    let msg = err_text::<()>(Err(e));
                    assert!(msg.contains(code), "{what}, mapped open: {msg}");
                    continue;
                }
            };
            assert!(caught == Caught::ByQuantizedScan, "{what}: the mapped open accepted it");
            // A `save_mapped` before the first query reads the packing it copies.
            let resaved = path.with_file_name("resaved.vaq");
            let _ = std::fs::remove_file(&resaved);
            let msg = err_text(mapped.save_mapped(&resaved));
            assert!(msg.contains(code), "{what}, save before first query: {msg}");
            assert!(!resaved.exists(), "{what}: the refused save committed a file");
            for strategy in strategies {
                for retry in [false, true] {
                    let answer = mapped.search_with(data.row(3), 5, strategy);
                    if strategy != SearchStrategy::Quantized {
                        assert_eq!(answer.unwrap().0.len(), 5, "{what} {strategy:?}");
                        continue;
                    }
                    let msg = err_text(answer);
                    let want = "previously failed verification";
                    assert!(msg.contains(want), "{what} retry {retry}: {msg}");
                }
            }
        }
    }

    /// A `save_mapped` file of [`populated`] with bit 0 of row 1's first
    /// code flipped in segment 0 and its CRC left stale.
    fn stale_crc_flip(name: &str) -> std::path::PathBuf {
        let (seg, _) = populated();
        let path = tmp_dir(name).join("index.vaq");
        seg.save_mapped(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let m = seg.shared_model().encoder.num_subspaces();
        let codes = get_table(&bytes).unwrap().extents[1 + super::CODES].offset;
        bytes[codes + 2 * m] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        path
    }

    /// The stale-CRC flip is refused by the mapped open itself, as by
    /// every other way in, so no delete-and-flush pass can purge or merge
    /// the segment before it is verified: the file is left as it was.
    #[test]
    fn purge_before_the_first_query_keeps_a_corrupt_mapped_segment() {
        let path = stale_crc_flip("purge-unverified");
        let on_disk = std::fs::read(&path).unwrap();
        let msg = err_text(SegmentedVaq::open_mapped(&path));
        assert!(msg.contains("checksum mismatch"), "{msg}");
        assert_eq!(std::fs::read(&path).unwrap(), on_disk, "the refused open changed the file");
    }

    /// The stale-CRC flip is refused by the mapped open itself, so no copy
    /// (`to_bytes`, a save) or id probe (`delete`, `contains`, `live_ids`)
    /// can read it first; the owned loader refuses the same bytes.
    #[test]
    fn save_before_the_first_query_refuses_a_corrupt_mapped_segment() {
        let path = stale_crc_flip("save-unverified");
        let mapped = err_text(SegmentedVaq::open_mapped(&path));
        assert!(mapped.contains("checksum mismatch"), "mapped: {mapped}");
        let owned = err_text(SegmentedVaq::from_bytes(&std::fs::read(&path).unwrap()));
        assert!(owned.contains("checksum mismatch"), "owned: {owned}");
    }

    /// VAQ110 at open is for packings that were read: a segment whose
    /// packed extent is empty gets the scan part only — its packing is
    /// derived from the codes in that very call — while the full audit
    /// of the loaded index still holds it against them.
    #[test]
    fn derived_packings_are_left_to_the_full_audit() {
        use crate::audit::{ArrayParts, Audit};
        use vaq_linalg::PackedCodes;
        let (seg, _) = populated();
        let path = tmp_dir("parts").join("index.vaq");
        seg.save_mapped(&path).unwrap();
        let (plain, packed) = (seg.to_bytes(), std::fs::read(&path).unwrap());
        let parts = |bytes: &[u8]| get_table(bytes).unwrap().arrays(0).read_parts();
        assert_eq!(parts(&plain), ArrayParts { scan: true, packed: false });
        assert_eq!(parts(&packed), ArrayParts { scan: true, packed: true });

        let back = SegmentedVaq::from_bytes(&plain).unwrap();
        assert!(back.audit().is_ok());
        let (set, next_id, _) = back.writer_cut();
        let mut segments = set.segments.clone();
        let core = Arc::make_mut(&mut segments[0].core);
        let sizes: Vec<usize> = back.shared_model().encoder.table_sizes().collect();
        let mut bytes = core.packed.data().to_vec();
        bytes[0] ^= 1;
        core.packed = PackedCodes::from_parts(bytes.into(), &sizes, core.n).unwrap();
        let stale = SegmentedVaq::from_parts(
            back.shared_model().clone(),
            policy(),
            segments,
            (*set.buffer).clone(),
            next_id,
        );
        assert!(stale.audit().to_string().contains("VAQ110"), "{}", stale.audit());
    }

    /// A code one past its dictionary, CRC-valid, at the first cell of
    /// segment 0 and at its last row's last subspace: both ends of the
    /// VAQ106 pass, refused by every way in with the message that names
    /// the cell.
    #[test]
    fn out_of_range_code_at_either_end_is_named_at_open() {
        let (seg, _) = populated();
        let path = tmp_dir("vaq106-ends").join("index.vaq");
        seg.save_mapped(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let encoder = &seg.shared_model().encoder;
        let m = encoder.num_subspaces();
        let n = seg.writer_cut().0.segments[0].core.n;
        let codes = get_table(&clean).unwrap().extents[1 + super::CODES].offset;
        for (row, s, code) in [(0, 0, u16::MAX), (n - 1, m - 1, 0)] {
            let rows = encoder.codebooks[s].rows();
            let code = code.max(u16::try_from(rows).unwrap());
            let mut bytes = clean.clone();
            let at = codes + 2 * (row * m + s);
            bytes[at..at + 2].copy_from_slice(&code.to_le_bytes());
            reseal(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            let want = format!(
                "corrupt index file: audit found 1 invariant violation(s) after reading a \
                 segment's scan arrays: \
                 VAQ106: vector {row} subspace {s}: code {code} out of range [0, {rows})"
            );
            assert_eq!(err_text(SegmentedVaq::from_bytes(&bytes)), want);
            assert_eq!(err_text(SegmentedVaq::load(&path)), want);
            assert_eq!(err_text(SegmentedVaq::open_mapped(&path)), want);
        }
    }

    /// One open records each span of its account once: the open itself,
    /// the extent CRCs and the array walks. Other tests share the
    /// process-wide registry, so an attempt another test's open overlapped
    /// is repeated.
    #[test]
    fn one_open_records_each_span_once() {
        let (seg, _) = populated();
        let path = tmp_dir("open-spans").join("index.vaq");
        seg.save_mapped(&path).unwrap();
        let count = |name: &str| {
            crate::obs::snapshot().spans.iter().find(|s| s.name == name).map_or(0, |s| s.count)
        };
        let spans = ["persist.open_mapped", "persist.load", "persist.verify", "persist.audit"];
        let once = |open: &dyn Fn(), want: [u64; 4]| {
            (0..64).any(|_| {
                crate::obs::set_enabled(true);
                let before = spans.map(count);
                open();
                let after = spans.map(count);
                (0..4).all(|i| after[i] == before[i] + want[i])
            })
        };
        let mapped = || drop(SegmentedVaq::open_mapped(&path).unwrap());
        assert!(once(&mapped, [1, 0, 1, 1]), "open_mapped");
        let owned = || drop(SegmentedVaq::load(&path).unwrap());
        assert!(once(&owned, [0, 1, 1, 1]), "load");
    }

    #[test]
    fn huge_claimed_extent_count_is_rejected_before_the_body_read() {
        use bytes::BufMut;
        // A tiny file whose correctly-checksummed header claims an
        // absurd extent count: the loaders must reject it from the
        // header-vs-length check, before any body-sized work.
        let dir = tmp_dir("hostile");
        let mut head = bytes::BytesMut::new();
        head.put_slice(super::MAGIC);
        head.put_u32_le(super::VERSION);
        head.put_u64_le(0); // wal_seq
        head.put_u64_le(u64::MAX / 32); // claimed extents
        let crc = crate::crc::crc32c(&head);
        head.put_u32_le(crc);
        let path = dir.join("huge.vaq");
        std::fs::write(&path, &head).unwrap();
        assert!(err_text(SegmentedVaq::load(&path)).contains("extent count"));
        assert!(err_text(SegmentedVaq::open_mapped(&path)).contains("extent count"));
        assert!(SegmentedVaq::open_durable(&path).is_err());
        assert!(Vaq::load(&path).is_err());
        // Garbage magic is rejected without reading the body either.
        let path = dir.join("junk.idx");
        std::fs::write(&path, b"ZZZZ here is not an index").unwrap();
        assert!(err_text(SegmentedVaq::load(&path)).contains("magic"));
    }

    #[test]
    fn mapped_index_audits_clean_and_stays_writable() {
        use crate::audit::Audit;
        let (seg, data) = populated();
        // A tombstone count no other test's file has, to tell this one's
        // `persist.load` lines from theirs.
        (20..31).for_each(|id| assert!(seg.delete(id)));
        let path = tmp_dir("mutate").join("index.vaq");
        seg.save_mapped(&path).unwrap();
        let marker = "(12 tombstoned), TI";
        let (_, loaded) = ring_after("persist.load", marker, || SegmentedVaq::load(&path).unwrap());
        let (mapped, opened) =
            ring_after("persist.load", marker, || SegmentedVaq::open_mapped(&path).unwrap());
        assert_eq!(opened, loaded, "one reader, one account of what the file held");
        let report = mapped.audit();
        assert!(report.is_ok(), "{report}");
        // Deletes copy the mapped bitmap out (copy-on-write) and
        // appends land in the owned buffer; neither touches the file.
        assert!(mapped.delete(11));
        assert!(!mapped.contains(11));
        let ids = mapped.add(&toy_data(3)).unwrap();
        assert!(ids.iter().all(|&id| id >= 300), "{ids:?}");
        let before = std::fs::read(&path).unwrap();
        assert_eq!(seg.search(data.row(3), 5).unwrap().len(), 5);
        assert_eq!(std::fs::read(&path).unwrap(), before, "file mutated");
    }

    #[test]
    fn open_mapped_without_derived_extents_degrades_to_owned() {
        let dir = tmp_dir("derived");
        let (seg, data) = populated();
        let want = seg.search(data.row(9), 5).unwrap();
        // A plain `save` leaves the packed extents out.
        let path = dir.join("seg.vaq");
        seg.save(&path).unwrap();
        let (back, note) =
            ring_after("degradation", "persist.mmap", || SegmentedVaq::open_mapped(&path).unwrap());
        // (Where files cannot be mapped at all, that is what it says.)
        let expected = ["file has no packed extents", "mapping unavailable", "injected"];
        assert!(expected.iter().any(|why| note.contains(why)), "{note}");
        assert_eq!(back.search(data.row(9), 5).unwrap(), want);
        // So does a `Vaq::save`.
        let vaq = Vaq::train(&data, &VaqConfig::new(24, 4).with_ti_clusters(16)).unwrap();
        let path = dir.join("mono.vaq");
        vaq.save(&path).unwrap();
        let back = SegmentedVaq::open_mapped(&path).unwrap();
        assert_eq!(back.search(data.row(9), 5).unwrap(), vaq.search(data.row(9), 5).unwrap());
    }
}
