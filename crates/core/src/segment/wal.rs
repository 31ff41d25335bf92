//! Per-index write-ahead log: the redo journal behind
//! [`SegmentedVaq::open_durable`].
//!
//! Every logical mutation (`add`, `delete`, and therefore `update`, which
//! is a delete + add) appends one checksummed, length-prefixed record
//! *before* the in-memory state changes; seals and compactions log
//! nothing, since replay re-derives them from policy. After a crash,
//! recovery loads the last committed manifest and replays the WAL suffix
//! whose sequence numbers exceed the manifest's `wal_seq` watermark,
//! reaching the exact pre-crash logical state.
//!
//! ## On-disk format
//!
//! A WAL file is a plain concatenation of frames (no header):
//!
//! ```text
//! frame:   len u32 | crc32c u32 | payload[len]
//! payload: seq u64 | op u8 | body
//! body:    Add (op 1)    → first_id u32 | rows u64 | ncodes u64 | codes [u16]
//!          Delete (op 2) → id u32
//! ```
//!
//! `Add` stores the already-encoded codes, not raw vectors: replay is a
//! deterministic buffer append, never a re-encode. Any other op tag is
//! typed corruption.
//!
//! ## Torn tails vs. corruption
//!
//! A power cut can tear the last frame. [`scan`] truncates a bad record
//! **only when it is physically last** (its bytes run to end-of-file):
//! that is indistinguishable from a torn write, and dropping it restores
//! a prefix-consistent state — the op it logged never returned success,
//! so nothing is lost. A checksum mismatch with more bytes *after* it
//! cannot be a torn write and is reported as a typed corruption error.
//!
//! ## Crash simulation fidelity
//!
//! [`Wal::append`] is gated by the `persist.wal_append` and
//! `persist.fsync` fault sites. An injected crash leaves realistic
//! debris: a torn prefix of the frame for `wal_append` (the write was cut
//! mid-flight), and nothing at all for `fsync` (un-synced page-cache
//! bytes never reach disk — the file is rewound so a later recovery
//! cannot replay an op the caller saw fail). Each append therefore either
//! returns success with the record durable, or fails with the log's
//! committed prefix intact.
//!
//! [`SegmentedVaq::open_durable`]: super::SegmentedVaq::open_durable

use crate::persist::{abandoned, io_at, narrow, wide};
use crate::VaqError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const OP_ADD: u8 = 1;
const OP_DELETE: u8 = 2;

/// Bytes of a frame header (`len u32 | crc u32`).
const FRAME_HEADER: usize = 8;

/// One logged mutation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalOp {
    /// `rows` vectors appended with contiguous ids `first_id..first_id+rows`,
    /// stored as their encoded codes (`rows × m` of them).
    Add { first_id: u32, rows: usize, codes: Vec<u16> },
    /// One id tombstoned.
    Delete { id: u32 },
}

/// A decoded record: its sequence number plus the op.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WalRecord {
    pub(crate) seq: u64,
    pub(crate) op: WalOp,
}

/// `<manifest>.wal` — the log that pairs with a durable manifest.
pub(crate) fn wal_path(manifest: &Path) -> PathBuf {
    let mut os = manifest.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

/// The uniform WAL corruption error.
pub(crate) fn corrupt(msg: &str) -> VaqError {
    VaqError::BadConfig(format!("corrupt write-ahead log: {msg}"))
}

fn encode_frame(seq: u64, op: &WalOp) -> Result<Vec<u8>, VaqError> {
    let mut payload = BytesMut::with_capacity(64);
    payload.put_u64_le(seq);
    match op {
        WalOp::Add { first_id, rows, codes } => {
            payload.put_u8(OP_ADD);
            payload.put_u32_le(*first_id);
            payload.put_u64_le(wide(*rows));
            payload.put_u64_le(wide(codes.len()));
            for &c in codes {
                payload.put_u16_le(c);
            }
        }
        WalOp::Delete { id } => {
            payload.put_u8(OP_DELETE);
            payload.put_u32_le(*id);
        }
    }
    let len = u32::try_from(payload.len())
        .map_err(|_| VaqError::BadConfig("wal record too large".into()))?;
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&crate::crc::crc32c(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Decodes a checksum-verified payload. A malformed payload under a valid
/// CRC cannot be a torn write, so every failure here is typed corruption.
fn decode_payload(mut p: Bytes) -> Result<WalRecord, VaqError> {
    if p.remaining() < 9 {
        return Err(corrupt("record too short"));
    }
    let seq = p.get_u64_le();
    let op = match p.get_u8() {
        OP_ADD => {
            if p.remaining() < 20 {
                return Err(corrupt("add record too short"));
            }
            let first_id = p.get_u32_le();
            let rows = narrow(p.get_u64_le(), "wal add row count")?;
            let ncodes = narrow(p.get_u64_le(), "wal add code count")?;
            let nbytes =
                ncodes.checked_mul(2).ok_or_else(|| corrupt("add record code count overflow"))?;
            if p.remaining() != nbytes {
                return Err(corrupt("add record length mismatch"));
            }
            let codes: Vec<u16> = (0..ncodes).map(|_| p.get_u16_le()).collect();
            WalOp::Add { first_id, rows, codes }
        }
        OP_DELETE => {
            if p.remaining() != 4 {
                return Err(corrupt("delete record length mismatch"));
            }
            WalOp::Delete { id: p.get_u32_le() }
        }
        tag => return Err(corrupt(&format!("unknown op tag {tag}"))),
    };
    Ok(WalRecord { seq, op })
}

/// The result of scanning a WAL file: every decodable record in order,
/// the length of the clean prefix, and whether a torn tail was dropped.
#[derive(Debug)]
pub(crate) struct WalScan {
    pub(crate) records: Vec<WalRecord>,
    /// Byte length of the valid prefix; anything past it is torn-write
    /// debris the next append may overwrite.
    pub(crate) clean_len: u64,
    /// `true` when a torn tail record was truncated away.
    pub(crate) torn: bool,
}

/// Reads and validates a WAL file. A missing file is an empty log (a
/// manifest written by plain `save` has no WAL yet). See the module docs
/// for the torn-tail / mid-log-corruption distinction.
pub(crate) fn scan(path: &Path) -> Result<WalScan, VaqError> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalScan { records: Vec::new(), clean_len: 0, torn: false });
        }
        Err(e) => return Err(io_at(path, e)),
    };
    let mut records = Vec::new();
    let mut off = 0usize;
    loop {
        let rem = data.len() - off;
        if rem == 0 {
            return Ok(WalScan { records, clean_len: wide(off), torn: false });
        }
        if rem < FRAME_HEADER {
            // Not even a full frame header: torn tail.
            return Ok(WalScan { records, clean_len: wide(off), torn: true });
        }
        let mut header = Bytes::copy_from_slice(&data[off..off + FRAME_HEADER]);
        let len = narrow(u64::from(header.get_u32_le()), "wal frame length")?;
        let stored = header.get_u32_le();
        if rem - FRAME_HEADER < len {
            // The frame claims more bytes than exist: torn tail. (A
            // corrupted length field in the last frame lands here too —
            // equally safe to drop, the record was never acknowledged.)
            return Ok(WalScan { records, clean_len: wide(off), torn: true });
        }
        let payload = &data[off + FRAME_HEADER..off + FRAME_HEADER + len];
        if crate::crc::crc32c(payload) != stored {
            if off + FRAME_HEADER + len == data.len() {
                // Physically-last record: indistinguishable from a torn
                // write, so truncate to the committed prefix.
                return Ok(WalScan { records, clean_len: wide(off), torn: true });
            }
            return Err(corrupt("mid-log checksum mismatch"));
        }
        let rec = decode_payload(Bytes::copy_from_slice(payload))?;
        if let Some(prev) = records.last() {
            let prev: &WalRecord = prev;
            if rec.seq != prev.seq + 1 {
                return Err(corrupt("sequence numbers not consecutive"));
            }
        }
        records.push(rec);
        off += FRAME_HEADER + len;
    }
}

/// An open, appendable WAL file. Tracks the clean (synced) length so a
/// failed append can restore the committed prefix before the next write.
#[derive(Debug)]
pub(crate) struct Wal {
    file: std::fs::File,
    path: PathBuf,
    /// Length of the durable prefix; everything past it is unacknowledged.
    len: u64,
    next_seq: u64,
}

impl Wal {
    /// Creates (or truncates) the log at `path`; the first record will
    /// carry sequence number `last_seq + 1`.
    pub(crate) fn create(path: &Path, last_seq: u64) -> Result<Wal, VaqError> {
        if crate::faults::fired("persist.wal_append") {
            return Err(abandoned(path, "persist.wal_append"));
        }
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_at(path, e))?;
        Ok(Wal { file, path: path.to_path_buf(), len: 0, next_seq: last_seq + 1 })
    }

    /// Opens an existing log for appending after a [`scan`]: the file is
    /// truncated to the scan's `clean_len` (physically dropping any torn
    /// tail) and the next record carries `last_seq + 1`.
    pub(crate) fn open_append(path: &Path, clean_len: u64, last_seq: u64) -> Result<Wal, VaqError> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_at(path, e))?;
        file.set_len(clean_len).map_err(|e| io_at(path, e))?;
        Ok(Wal { file, path: path.to_path_buf(), len: clean_len, next_seq: last_seq + 1 })
    }

    /// Sequence number of the last durable record (0 when none).
    pub(crate) fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Appends and fsyncs one record, returning its sequence number. On
    /// any failure the log's durable prefix is untouched — see the module
    /// docs for the injected-crash debris model.
    pub(crate) fn append(&mut self, op: &WalOp) -> Result<u64, VaqError> {
        let seq = self.next_seq;
        let frame = encode_frame(seq, op)?;
        // Restore the clean prefix first: debris from a previously failed
        // append was never synced, so it "never reached disk".
        self.file.set_len(self.len).map_err(|e| io_at(&self.path, e))?;
        self.file.seek(SeekFrom::Start(self.len)).map_err(|e| io_at(&self.path, e))?;
        if crate::faults::fired("persist.wal_append") {
            // Simulated power loss mid-append: a torn prefix of the frame
            // may reach disk.
            let _ = self.file.write_all(&frame[..frame.len() / 2]);
            return Err(abandoned(&self.path, "persist.wal_append"));
        }
        self.file.write_all(&frame).map_err(|e| io_at(&self.path, e))?;
        if crate::faults::fired("persist.fsync") {
            // The un-synced frame never reached disk.
            let _ = self.file.set_len(self.len);
            return Err(abandoned(&self.path, "persist.fsync"));
        }
        #[cfg(not(miri))]
        if let Err(e) = self.file.sync_data() {
            let _ = self.file.set_len(self.len);
            return Err(io_at(&self.path, e));
        }
        self.len += wide(frame.len());
        self.next_seq = seq + 1;
        crate::obs::counter_add("wal.appends", 1);
        Ok(seq)
    }
}

/// A [`Wal`] attached to a live index: remembers which manifest it pairs
/// with and summarizes the id ranges its un-checkpointed `Add` records
/// cover, for the VAQ112 audit rule.
#[derive(Debug)]
pub(crate) struct Journal {
    pub(crate) wal: Wal,
    pub(crate) manifest_path: PathBuf,
    /// `next_id` at the moment the paired manifest was committed: every
    /// logged add must start at or above this watermark.
    pub(crate) base_next_id: u32,
    /// Id ranges `[start, end)` of logged adds since the checkpoint,
    /// in append order (coalesced when contiguous).
    pub(crate) add_ranges: Vec<(u32, u32)>,
}

impl Journal {
    pub(crate) fn append(&mut self, op: &WalOp) -> Result<u64, VaqError> {
        let seq = self.wal.append(op)?;
        if let WalOp::Add { first_id, rows, .. } = op {
            // The caller's id-space check guarantees first_id + rows fits.
            let end = first_id.saturating_add(u32::try_from(*rows).unwrap_or(u32::MAX));
            match self.add_ranges.last_mut() {
                Some(last) if last.1 == *first_id => last.1 = end,
                _ => self.add_ranges.push((*first_id, end)),
            }
        }
        Ok(seq)
    }
}

/// A point-in-time view of the journal for the audit (VAQ112), captured
/// together with `next_id` under the writer lock.
#[derive(Debug, Clone)]
pub(crate) struct WalSummary {
    pub(crate) base_next_id: u32,
    pub(crate) add_ranges: Vec<(u32, u32)>,
    pub(crate) last_seq: u64,
    pub(crate) next_id: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vaq-wal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Add { first_id: 10, rows: 2, codes: vec![1, 2, 3, 4] },
            WalOp::Delete { id: 11 },
        ]
    }

    #[test]
    fn round_trips_every_op() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("log.wal");
        let mut wal = Wal::create(&path, 7).unwrap();
        for op in &sample_ops() {
            wal.append(op).unwrap();
        }
        assert_eq!(wal.last_seq(), 9);
        let scan = scan(&path).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].seq, 8);
        let ops: Vec<WalOp> = scan.records.into_iter().map(|r| r.op).collect();
        assert_eq!(ops, sample_ops());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let s = scan(Path::new("/nonexistent/vaq-test.wal")).unwrap();
        assert!(s.records.is_empty() && !s.torn && s.clean_len == 0);
    }

    #[test]
    fn torn_tail_is_truncated_mid_log_corruption_is_typed() {
        let dir = tmp_dir("torn");
        let path = dir.join("log.wal");
        let mut wal = Wal::create(&path, 0).unwrap();
        for op in &sample_ops() {
            wal.append(op).unwrap();
        }
        let clean = std::fs::read(&path).unwrap();

        // Truncating at every byte boundary recovers a record prefix.
        for cut in 0..clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            let s = scan(&path).unwrap();
            assert!(s.records.len() <= 2, "cut at {cut}");
            assert!(wide(cut) >= s.clean_len, "cut at {cut}");
        }

        // A flipped bit in the *last* record's payload is truncated like
        // a torn tail; the earlier records survive.
        let mut flipped = clean.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let s = scan(&path).unwrap();
        assert!(s.torn);
        assert_eq!(s.records.len(), 1);

        // The same flip mid-log (bytes follow) is typed corruption.
        let mut mid = clean.clone();
        mid[FRAME_HEADER + 2] ^= 0x40; // inside record 1's payload
        std::fs::write(&path, &mid).unwrap();
        let err = scan(&path).unwrap_err();
        assert!(matches!(err, VaqError::BadConfig(ref m) if m.contains("write-ahead log")));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Tags 3 and 4 were seal and compaction markers, which no build
    /// writes now: a well-framed record carrying one is corruption, even
    /// as the last record, not a marker to skip.
    #[test]
    fn retired_marker_tags_are_typed_corruption() {
        let dir = tmp_dir("retired");
        let path = dir.join("log.wal");
        for tag in [3u8, 4] {
            let mut payload = BytesMut::new();
            payload.put_u64_le(1);
            payload.put_u8(tag);
            payload.put_u64_le(2);
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&crate::crc::crc32c(&payload).to_le_bytes());
            frame.extend_from_slice(&payload);
            std::fs::write(&path, &frame).unwrap();
            let err = scan(&path).unwrap_err();
            assert!(
                matches!(err, VaqError::BadConfig(ref m) if m.contains(&format!("unknown op tag {tag}"))),
                "{err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[cfg(feature = "faults")]
    fn failed_append_leaves_committed_prefix() {
        let dir = tmp_dir("prefix");
        let path = dir.join("log.wal");
        let mut wal = Wal::create(&path, 0).unwrap();
        wal.append(&WalOp::Delete { id: 1 }).unwrap();
        let committed = std::fs::read(&path).unwrap();

        crate::faults::arm("persist.wal_append", crate::faults::Trigger::Always);
        let err = wal.append(&WalOp::Delete { id: 2 }).unwrap_err();
        assert!(matches!(err, VaqError::Io { .. }));
        crate::faults::disarm_all();

        // The torn half is on disk, but a scan truncates it away...
        let s = scan(&path).unwrap();
        assert!(s.torn);
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.clean_len, wide(committed.len()));
        // ...and the next successful append overwrites the debris.
        wal.append(&WalOp::Delete { id: 3 }).unwrap();
        let s = scan(&path).unwrap();
        assert!(!s.torn);
        assert_eq!(s.records.len(), 2);
        assert_eq!(s.records[1].op, WalOp::Delete { id: 3 });
        std::fs::remove_dir_all(&dir).ok();
    }
}
