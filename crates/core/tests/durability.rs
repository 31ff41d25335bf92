//! Durability suite: corruption-injection over the index container (a
//! `Vaq::save` file, a `save` file and a `save_mapped` file) and the
//! write-ahead log, plus commit-protocol checks.
//!
//! The contract under test:
//!
//! * any single-byte mutation or truncation of an index file is
//!   *detected* by the owned parse — the CRC32C framing turns silent
//!   corruption into a typed error (a CRC detects every burst up to its
//!   width, so no 8-bit flip can slip through) and the padding between
//!   extents must be zero; a mapped open rejects the same bytes at open
//!   (a packed extent's at the first `Quantized` search), except padding,
//!   which it never reads;
//! * mapped and owned storage answer every query identically;
//! * a damaged WAL recovers to a **prefix-consistent** state: the live-id
//!   set after recovery equals the state after some acknowledged prefix
//!   of the logged ops — never a partial op, never an unacknowledged one;
//! * an interrupted atomic commit leaves the previous manifest fully
//!   readable (old-or-new, never torn);
//! * nothing in any of the above panics.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};
use vaq_core::{SearchStrategy, SegmentPolicy, SegmentedVaq, Vaq, VaqConfig};
use vaq_linalg::Matrix;

/// Serializes every test in this binary: with the `faults` feature on,
/// the injection registry is process-global, and an armed `persist.*`
/// site would fail the *other* tests' real saves and recoveries.
static IO_LOCK: Mutex<()> = Mutex::new(());

fn io_guard() -> MutexGuard<'static, ()> {
    IO_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn toy_data(n: usize, d: usize, seed: u64) -> Matrix {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let mut row = Vec::with_capacity(d);
        for j in 0..d {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = ((s >> 40) as f32 / (1u32 << 23) as f32) - 1.0;
            row.push(v * 2.0 / (1.0 + j as f32 * 0.3));
        }
        rows.push(row);
    }
    Matrix::from_rows(&rows)
}

fn slice(data: &Matrix, lo: usize, hi: usize) -> Matrix {
    Matrix::from_rows(&(lo..hi).map(|i| data.row(i).to_vec()).collect::<Vec<_>>())
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vaq-durability-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `<manifest>.wal`, mirroring the library's pairing convention.
fn wal_path(manifest: &Path) -> PathBuf {
    let mut os = manifest.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

/// A durable index checkpointed once and then mutated through the WAL,
/// captured as raw on-disk bytes plus every acknowledged live-id state.
struct DurableFixture {
    manifest: Vec<u8>,
    wal: Vec<u8>,
    /// Live-id set after the checkpoint and after each subsequent
    /// acknowledged op, in log order. A recovery from any damaged-WAL
    /// prefix must land on exactly one of these.
    states: Vec<Vec<u32>>,
}

fn durable_fixture() -> &'static DurableFixture {
    static FX: OnceLock<DurableFixture> = OnceLock::new();
    FX.get_or_init(|| {
        let dir = fresh_dir("fixture");
        let path = dir.join("index.vaq");
        let data = toy_data(120, 10, 11);
        let seg = SegmentedVaq::train(
            &slice(&data, 0, 60),
            &VaqConfig::new(24, 4).with_ti_clusters(8),
            SegmentPolicy::default().with_seal_threshold(16),
        )
        .unwrap();
        seg.make_durable(&path).unwrap();
        let mut states = vec![seg.live_ids()];
        let mut cursor = 60;
        for _batch in 0..3 {
            // One `Add` record per batch (prefixes cannot split it), one
            // `Delete` record per victim; state recorded at each boundary.
            let ids = seg.add(&slice(&data, cursor, cursor + 6)).unwrap();
            cursor += 6;
            states.push(seg.live_ids());
            assert!(seg.try_delete(ids[1]).unwrap());
            states.push(seg.live_ids());
        }
        // Let maintenance settle, so the last op lands after a seal.
        seg.flush();
        assert!(seg.try_delete(2).unwrap());
        states.push(seg.live_ids());
        let fx = DurableFixture {
            manifest: std::fs::read(&path).unwrap(),
            wal: std::fs::read(wal_path(&path)).unwrap(),
            states,
        };
        let _ = std::fs::remove_dir_all(&dir);
        fx
    })
}

/// Writes the (possibly damaged) manifest + WAL pair and recovers.
fn recover(name: &str, manifest: &[u8], wal: &[u8]) -> Result<SegmentedVaq, vaq_core::VaqError> {
    let dir = fresh_dir(name);
    let path = dir.join("index.vaq");
    std::fs::write(&path, manifest).unwrap();
    std::fs::write(wal_path(&path), wal).unwrap();
    let out = SegmentedVaq::open_durable(&path);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Writes a (possibly damaged) `save_mapped` file and opens it mapped.
fn open_mapped(name: &str, file: &[u8]) -> Result<SegmentedVaq, vaq_core::VaqError> {
    let dir = fresh_dir(name);
    let path = dir.join("index.vaq");
    std::fs::write(&path, file).unwrap();
    let out = SegmentedVaq::open_mapped(&path);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn fuzz_cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Any single-byte mutation of an index file — `Vaq::save`, `save`,
    /// `save_mapped`, or a durable manifest — is rejected by the owned
    /// parse with a typed error: the header, the table and every extent
    /// carry a CRC32C (a CRC detects all bursts up to its width, so an
    /// 8-bit flip cannot pass) and the padding in between must be zero.
    #[test]
    fn byte_mutations_are_always_detected(pos_seed in 0usize..1_000_000, delta in 1u8..=255) {
        let _g = io_guard();
        let mutated = |file: &[u8]| {
            let mut bytes = file.to_vec();
            let pos = pos_seed % bytes.len();
            bytes[pos] = bytes[pos].wrapping_add(delta);
            bytes
        };
        let fx = container_fixture();
        for (name, file) in fx.files() {
            let bytes = mutated(file);
            prop_assert!(SegmentedVaq::from_bytes(&bytes).is_err(), "{} at {}", name, pos_seed);
            prop_assert!(Vaq::from_bytes(&bytes).is_err(), "{} at {}", name, pos_seed);
        }
        let fx = durable_fixture();
        let bytes = mutated(&fx.manifest);
        prop_assert!(SegmentedVaq::from_bytes(&bytes).is_err(), "manifest at {}", pos_seed);
        prop_assert!(recover("manifest-mut", &bytes, &fx.wal).is_err());
    }

    /// Every strict prefix of an index file is rejected with a typed
    /// error — the extent table requires the last extent to end exactly
    /// at the file end, so no truncation can look complete.
    #[test]
    fn truncations_always_error(cut_seed in 0usize..1_000_000) {
        let _g = io_guard();
        let fx = container_fixture();
        for (name, file) in fx.files() {
            let cut = cut_seed % file.len();
            prop_assert!(SegmentedVaq::from_bytes(&file[..cut]).is_err(), "{} at {}", name, cut);
            prop_assert!(Vaq::from_bytes(&file[..cut]).is_err(), "{} at {}", name, cut);
        }
        let cut = cut_seed % fx.mapped_file.len();
        prop_assert!(open_mapped("mapped-cut", &fx.mapped_file[..cut]).is_err(), "mapped at {}", cut);
    }

    /// Splicing two random windows of a file (a torn write) never panics.
    #[test]
    fn spliced_windows_never_panic(a in 0usize..1_000_000, b in 0usize..1_000_000) {
        let _g = io_guard();
        for (_, file) in container_fixture().files() {
            let (a, b) = (a % file.len(), b % file.len());
            let mut spliced = file[..a.min(b)].to_vec();
            spliced.extend_from_slice(&file[a.max(b)..]);
            // Ok or Err both fine; panics are not.
            let _ = SegmentedVaq::from_bytes(&spliced);
            let _ = Vaq::from_bytes(&spliced);
        }
    }

    /// Truncating the WAL at *any* byte boundary recovers to a
    /// prefix-consistent state: the final torn record is dropped (the op
    /// it logged never acknowledged) and the live-id set equals the state
    /// after some acknowledged prefix of the ops.
    #[test]
    fn wal_truncation_recovers_an_acknowledged_prefix(cut_seed in 0usize..1_000_000) {
        let _g = io_guard();
        let fx = durable_fixture();
        let cut = cut_seed % (fx.wal.len() + 1);
        let rec = recover("wal-cut", &fx.manifest, &fx.wal[..cut]).expect("prefix must recover");
        let ids = rec.live_ids();
        prop_assert!(
            fx.states.contains(&ids),
            "cut at {cut} recovered a live set matching no acknowledged state: {ids:?}"
        );
    }

    /// A single flipped bit anywhere in the WAL either truncates a torn
    /// tail (prefix-consistent recovery, as above) or is reported as typed
    /// corruption — never a panic, never an unacknowledged state.
    #[test]
    fn wal_bit_flips_recover_or_error(pos_seed in 0usize..1_000_000, bit in 0u8..8) {
        let _g = io_guard();
        let fx = durable_fixture();
        let mut wal = fx.wal.clone();
        let pos = pos_seed % wal.len();
        wal[pos] ^= 1 << bit;
        // Typed corruption is one allowed outcome; the other is a clean
        // recovery, which must land on an acknowledged state.
        if let Ok(rec) = recover("wal-flip", &fx.manifest, &wal) {
            let ids = rec.live_ids();
            prop_assert!(
                fx.states.contains(&ids),
                "flip at {pos} recovered a live set matching no acknowledged state: {ids:?}"
            );
        }
    }
}

/// The WAL round trip without any damage: an index that is mutated after
/// its last checkpoint and then abandoned (no clean shutdown exists in
/// this design — the manifest is stale by construction) recovers to the
/// exact live state by replaying the log suffix.
#[test]
fn open_durable_replays_to_the_live_state() {
    let _g = io_guard();
    let dir = fresh_dir("replay");
    let path = dir.join("index.vaq");
    let data = toy_data(100, 10, 21);
    let seg = SegmentedVaq::train(
        &slice(&data, 0, 50),
        &VaqConfig::new(24, 4).with_ti_clusters(8),
        SegmentPolicy::default().with_seal_threshold(16),
    )
    .unwrap();
    seg.make_durable(&path).unwrap();
    let ids = seg.add(&slice(&data, 50, 80)).unwrap();
    assert!(seg.try_delete(ids[3]).unwrap());
    seg.update(ids[5], data.row(99)).unwrap();
    seg.flush();

    let rec = SegmentedVaq::open_durable(&path).unwrap();
    assert_eq!(rec.live_ids(), seg.live_ids());
    for qi in 90..100 {
        let a = seg.search_with(data.row(qi), 7, SearchStrategy::FullScan).unwrap().0;
        let b = rec.search_with(data.row(qi), 7, SearchStrategy::FullScan).unwrap().0;
        let mut a: Vec<(u32, u32)> = a.iter().map(|h| (h.distance.to_bits(), h.index)).collect();
        let mut b: Vec<(u32, u32)> = b.iter().map(|h| (h.distance.to_bits(), h.index)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "query {qi} diverges after replay");
    }
    // The recovered index is durable in its own right: checkpointing it
    // absorbs the replayed suffix and restarts the log.
    rec.checkpoint().unwrap();
    let again = SegmentedVaq::open_durable(&path).unwrap();
    assert_eq!(again.live_ids(), seg.live_ids());
    let _ = std::fs::remove_dir_all(&dir);
}

/// One index through every writer: the training set as a `Vaq::save`
/// file, the grown index (a never-compacted segment with implicit ids, a
/// purged one with stored ids, tombstones in both and in the non-empty
/// buffer) as a `save` file and as a `save_mapped` file, the latter
/// opened both ways. The directory is
/// kept alive for the whole process — the mapped instance borrows its
/// bytes from the file.
struct ContainerFixture {
    data: Matrix,
    mono_file: Vec<u8>,
    save_file: Vec<u8>,
    mapped_file: Vec<u8>,
    live: SegmentedVaq,
    mapped: SegmentedVaq,
    owned: SegmentedVaq,
}

impl ContainerFixture {
    fn files(&self) -> [(&'static str, &[u8]); 3] {
        [("mono", &self.mono_file), ("save", &self.save_file), ("save_mapped", &self.mapped_file)]
    }
}

fn container_fixture() -> &'static ContainerFixture {
    static FX: OnceLock<ContainerFixture> = OnceLock::new();
    FX.get_or_init(|| {
        let dir = fresh_dir("container-fixture");
        let path = dir.join("index.vaq");
        let data = toy_data(220, 10, 41);
        let cfg = VaqConfig::new(24, 4).with_ti_clusters(8);
        let mono = Vaq::train(&slice(&data, 0, 120), &cfg).unwrap();
        let seg =
            SegmentedVaq::from_vaq(mono.clone(), SegmentPolicy::default().with_seal_threshold(32));
        seg.add(&slice(&data, 120, 200)).unwrap(); // sealed inline
        for id in (120..200).step_by(4) {
            seg.delete(id); // a quarter of the segment: purged, ids now stored
        }
        seg.add(&slice(&data, 200, 210)).unwrap(); // stays buffered
                                                   // Non-empty tombstone extents in both segments and the buffer.
        assert!(seg.delete(5) && seg.delete(190) && seg.delete(205));
        assert_eq!(seg.len(), 120 + 60 + 10 - 3);
        seg.save_mapped(&path).unwrap();
        ContainerFixture {
            data,
            mono_file: mono.to_bytes(),
            save_file: seg.to_bytes(),
            mapped_file: std::fs::read(&path).unwrap(),
            mapped: SegmentedVaq::open_mapped(&path).unwrap(),
            owned: SegmentedVaq::load(&path).unwrap(),
            live: seg,
        }
    })
}

fn strategy_from(pick: u8) -> SearchStrategy {
    match pick % 5 {
        0 => SearchStrategy::FullScan,
        1 => SearchStrategy::EarlyAbandon,
        2 => SearchStrategy::TiEa { visit_frac: 1.0 },
        3 => SearchStrategy::TiEa { visit_frac: 0.35 },
        _ => SearchStrategy::Quantized,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// `Mapped` and `Owned` storage are interchangeable: for any query,
    /// `k`, and strategy, the neighbor lists *and* the work counters come
    /// out identical — the mapped scan paths read the same bytes the
    /// owned paths copied out — and both match the index that was saved.
    #[test]
    fn mapped_and_owned_answers_are_identical(
        qi in 0usize..220,
        k in 1usize..=12,
        pick in 0u8..10,
    ) {
        let _g = io_guard();
        let fx = container_fixture();
        let strat = strategy_from(pick);
        let q = fx.data.row(qi);
        let (mn, ms) = fx.mapped.search_with(q, k, strat).unwrap();
        let (on, os) = fx.owned.search_with(q, k, strat).unwrap();
        prop_assert_eq!(&mn, &on, "query {} k {} {:?}: neighbors diverge", qi, k, strat);
        prop_assert_eq!(ms, os, "query {} k {} {:?}: stats diverge", qi, k, strat);
        let live = fx.live.search_with(q, k, strat).unwrap().0;
        prop_assert_eq!(&mn, &live, "query {} k {} {:?}: reload changed answers", qi, k, strat);
    }

    /// A mapped open of a mutated `save_mapped` file rejects the byte
    /// with a typed error at open — a packed extent's byte, which only a
    /// quantized scan reads, at the first `Quantized` search — unless it
    /// sits in the inter-extent padding, which a mapped open never reads:
    /// then no answer changes. Never a panic, never a silently wrong
    /// result.
    #[test]
    fn mapped_open_mutations_reject_or_leave_answers_unchanged(
        pos_seed in 0usize..1_000_000,
        delta in 1u8..=255,
    ) {
        let _g = io_guard();
        let fx = container_fixture();
        let mut bytes = fx.mapped_file.clone();
        let pos = pos_seed % bytes.len();
        bytes[pos] = bytes[pos].wrapping_add(delta);
        let q = fx.data.row(3);
        let in_padding = match SegmentedVaq::from_bytes(&bytes) {
            Err(e) => e.to_string().contains("non-zero padding"),
            Ok(_) => false,
        };
        let in_packed = packed_extents(&fx.mapped_file).iter().any(|r| r.contains(&pos));
        match open_mapped("mapped-mut", &bytes) {
            Err(_) => prop_assert!(!in_padding, "mapped open read the padding at {}", pos),
            Ok(mapped) => {
                prop_assert!(in_padding || in_packed, "mapped open accepted a flip at {}", pos);
                match mapped.search_with(q, 7, SearchStrategy::Quantized) {
                    Ok((got, _)) => {
                        prop_assert!(in_padding, "a quantized search read the flip at {}", pos);
                        let clean = fx.owned.search_with(q, 7, SearchStrategy::Quantized);
                        prop_assert_eq!(got, clean.unwrap().0, "mapped open at {} mis-answers", pos);
                    }
                    Err(_) => prop_assert!(!in_padding, "mapped open read the padding at {}", pos),
                }
            }
        }
    }
}

/// Byte ranges of a container's packed extents. The extent table follows
/// the 28-byte header (whose bytes 16..24 hold the extent count) with one
/// `offset u64 | len u64 | crc u32` entry per extent: the model extent,
/// seven per segment — the packed one fourth — and the buffer extent.
fn packed_extents(file: &[u8]) -> Vec<std::ops::Range<usize>> {
    let word = |at: usize| {
        usize::try_from(u64::from_le_bytes(file[at..at + 8].try_into().unwrap())).unwrap()
    };
    (0..(word(16) - 2) / 7)
        .map(|s| {
            let entry = 28 + (1 + s * 7 + 3) * 20;
            word(entry)..word(entry) + word(entry + 8)
        })
        .collect()
}

/// An aborted atomic commit must leave the previously committed manifest
/// byte-for-byte intact: the staging file may hold torn debris, but the
/// rename never happened.
#[cfg(feature = "faults")]
#[test]
fn interrupted_save_preserves_the_old_index() {
    use vaq_core::faults::{arm, disarm_all, Trigger};

    let _g = io_guard();
    let dir = fresh_dir("aborted-commit");
    let path = dir.join("index.vaq");
    let data = toy_data(80, 10, 31);
    let old = Vaq::train(&data, &VaqConfig::new(24, 4).with_ti_clusters(8)).unwrap();
    old.save(&path).unwrap();
    let committed = std::fs::read(&path).unwrap();

    let newer = Vaq::train(&slice(&data, 0, 60), &VaqConfig::new(24, 4)).unwrap();
    // Kill the commit at each protocol step in turn: mid staging write,
    // at the staging fsync, and at the rename.
    let mut tmp = path.clone().into_os_string();
    tmp.push(".tmp");
    for (site, trigger) in [
        ("persist.commit", Trigger::NthHit(1)),
        ("persist.fsync", Trigger::NthHit(1)),
        ("persist.commit", Trigger::NthHit(2)),
    ] {
        disarm_all();
        arm(site, trigger);
        let err = newer.save(&path).unwrap_err();
        assert!(matches!(err, vaq_core::VaqError::Io { .. }), "{site}: {err}");
        disarm_all();
        if trigger == Trigger::NthHit(1) && site == "persist.commit" {
            // Power loss mid-write leaves a torn prefix in the staging
            // file: realistic debris, not a loadable index.
            let debris = std::fs::read(&tmp).unwrap();
            let whole = newer.to_bytes();
            assert_eq!(debris, whole[..whole.len() / 2], "staging debris is not a torn prefix");
            assert!(Vaq::from_bytes(&debris).is_err());
        }
        assert_eq!(
            std::fs::read(&path).unwrap(),
            committed,
            "{site}: aborted commit disturbed the committed manifest"
        );
        let back = Vaq::load(&path).unwrap();
        assert_eq!(back.to_bytes(), old.to_bytes(), "{site}: old index no longer loads");
    }
    // With injection gone the same save lands, old-to-new atomically.
    newer.save(&path).unwrap();
    assert_eq!(Vaq::load(&path).unwrap().to_bytes(), newer.to_bytes());
    let _ = std::fs::remove_dir_all(&dir);
}
