//! Exhaustive model checking of the `SegmentedVaq` snapshot protocol.
//!
//! Build the workspace with `RUSTFLAGS="--cfg loom"` and this file's
//! `#[cfg(loom)]` tests drive the scenarios under the vendored `loom`
//! checker: every thread interleaving (preemption-bounded) and, for the
//! version counter, every store an atomic load may legally observe. The
//! `vaq_core::sync` facade (lint rule VAQ008) is what guarantees the
//! primitives these scenarios exercise are the same ones production
//! code uses.
//!
//!     RUSTFLAGS="--cfg loom" cargo test -p vaq-core --test loom_model --release
//!
//! Without `--cfg loom` only the plain-thread smoke test runs, keeping a
//! writer-vs-reader seal race in the default `cargo test -q` tier.

use std::sync::OnceLock;
use vaq_core::{SegmentPolicy, SegmentedVaq, Vaq, VaqConfig};
use vaq_linalg::Matrix;

const DIM: usize = 4;
const BASE_ROWS: usize = 16;

/// Deterministic toy vectors (splitmix64-driven, no RNG dependency).
fn toy_rows(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut x = seed;
    let mut next = move || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 40) as f32 / (1u64 << 24) as f32
    };
    (0..n).map(|_| (0..DIM).map(|_| next()).collect()).collect()
}

/// One trained model per process: training is deterministic and pure
/// computation, so it stays *outside* the model closure — each loom
/// iteration clones the trained [`Vaq`] instead of re-training.
fn trained() -> &'static Vaq {
    static CELL: OnceLock<Vaq> = OnceLock::new();
    CELL.get_or_init(|| {
        let data = Matrix::from_rows(&toy_rows(BASE_ROWS, 7));
        let mut cfg = VaqConfig::new(8, 2);
        cfg.ti_clusters = 0; // exact scan: smallest model, fewest sync ops
        Vaq::train(&data, &cfg).expect("toy training")
    })
}

fn fresh(policy: SegmentPolicy) -> SegmentedVaq {
    SegmentedVaq::from_vaq(trained().clone(), policy)
}

fn assert_distinct(ids: &[u32]) {
    let mut seen = ids.to_vec();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), ids.len(), "duplicate ids in one result set");
}

// ---------------------------------------------------------------------------
// Default-tier smoke test: the same seal race, on real OS threads.
// ---------------------------------------------------------------------------

/// 1 writer + 1 reader racing a buffer seal. On the default (std) build
/// this is a plain concurrency smoke test; under `--cfg loom` the
/// exhaustive variants below take over the heavy lifting and this runs
/// inside the checker's passthrough mode.
#[test]
fn smoke_seal_race_writer_vs_reader() {
    let index = fresh(SegmentPolicy::default().with_seal_threshold(2));
    let writer = {
        let index = index.clone();
        std::thread::spawn(move || {
            for chunk in 0..4 {
                let rows = toy_rows(2, 100 + chunk);
                index.add(&Matrix::from_rows(&rows)).expect("add");
            }
        })
    };
    let mut searcher = index.searcher();
    let query = toy_rows(1, 3)[0].clone();
    for _ in 0..16 {
        let hits = searcher.search(&query, 8).expect("search");
        assert_eq!(hits.len(), 8);
        assert_distinct(&hits.iter().map(|h| h.index).collect::<Vec<_>>());
    }
    writer.join().expect("writer");
    index.flush();
    let hits = index.search(&query, BASE_ROWS + 8).expect("final search");
    assert_eq!(hits.len(), BASE_ROWS + 8, "all rows searchable after seal");
}

// ---------------------------------------------------------------------------
// Exhaustive scenarios (model-checked builds only).
// ---------------------------------------------------------------------------

#[cfg(loom)]
mod exhaustive {
    use super::*;
    use vaq_core::Audit;

    /// Seal-while-search: a writer appends past the seal threshold
    /// (inline seal) while a reader keeps searching through a cached
    /// searcher. Under every interleaving the reader sees a coherent
    /// snapshot: full result sets, no duplicate ids, no panics; after
    /// the writer is joined the new rows are visible.
    #[test]
    fn seal_while_search() {
        let query = toy_rows(1, 3)[0].clone();
        loom::model(move || {
            let index = fresh(SegmentPolicy::default().with_seal_threshold(2));
            let writer = {
                let index = index.clone();
                let rows = toy_rows(2, 11);
                vaq_core::sync::thread::spawn(move || {
                    index.add(&Matrix::from_rows(&rows)).expect("add");
                })
            };
            let mut searcher = index.searcher();
            let hits = searcher.search(&query, 4).expect("racing search");
            assert_eq!(hits.len(), 4);
            assert_distinct(&hits.iter().map(|h| h.index).collect::<Vec<_>>());
            writer.join().expect("writer");
            let hits = index.search(&query, BASE_ROWS + 2).expect("post-join search");
            assert_eq!(hits.len(), BASE_ROWS + 2, "sealed rows must be visible after join");
        });
    }

    /// A cached searcher may lag behind the newest snapshot but must
    /// never regress to an older one: the live count it observes is
    /// non-decreasing while only appends run.
    #[test]
    fn snapshots_never_regress() {
        loom::model(|| {
            let index = fresh(SegmentPolicy::default().with_seal_threshold(64));
            let writer = {
                let index = index.clone();
                let rows = toy_rows(1, 21);
                vaq_core::sync::thread::spawn(move || {
                    index.add(&Matrix::from_rows(&rows)).expect("first add");
                    let rows = toy_rows(1, 22);
                    index.add(&Matrix::from_rows(&rows)).expect("second add");
                })
            };
            let mut searcher = index.searcher();
            searcher.refresh();
            let a = searcher.snapshot().live_len();
            searcher.refresh();
            let b = searcher.snapshot().live_len();
            assert!(b >= a, "snapshot regressed: {a} -> {b}");
            writer.join().expect("writer");
            searcher.refresh();
            let c = searcher.snapshot().live_len();
            assert_eq!(c, BASE_ROWS + 2, "join edge must publish both adds");
        });
    }

    /// Tombstone visibility: while a delete races a search, the reader
    /// sees either the pre- or post-delete snapshot (never a torn one);
    /// once the deleter is joined, the id is gone on every schedule.
    #[test]
    fn tombstone_visibility() {
        let query = toy_rows(1, 3)[0].clone();
        loom::model(move || {
            let index = fresh(SegmentPolicy::default());
            let deleter = {
                let index = index.clone();
                vaq_core::sync::thread::spawn(move || {
                    assert!(index.delete(0), "id 0 starts live");
                })
            };
            let hits = index.search(&query, BASE_ROWS).expect("racing search");
            assert!(
                hits.len() == BASE_ROWS || hits.len() == BASE_ROWS - 1,
                "torn snapshot: {} of {BASE_ROWS} rows",
                hits.len()
            );
            deleter.join().expect("deleter");
            assert!(!index.contains(0), "delete must be visible after join");
            let hits = index.search(&query, BASE_ROWS).expect("post-join search");
            assert_eq!(hits.len(), BASE_ROWS - 1);
            assert!(hits.iter().all(|h| h.index != 0), "tombstoned id resurfaced");
        });
    }

    /// Compaction-vs-delete: compaction gathers live rows, builds the
    /// merged segment *outside* the writer lock, then re-applies
    /// tombstones from the current snapshot at install. A delete racing into the segments being
    /// merged (id 16 lives in the 1-row segment the compaction picks
    /// up) must survive on every schedule — the classic lost-update
    /// this re-application exists to prevent.
    #[test]
    fn compact_preserves_racing_delete() {
        loom::model(|| {
            let index =
                fresh(SegmentPolicy::default().with_seal_threshold(1).with_compact_min_segments(2));
            // Deterministic setup (single thread, no branching): two
            // 1-row adds each seal, leaving 3 segments — compactable.
            index.add(&Matrix::from_rows(&toy_rows(1, 31))).expect("setup add");
            index.add(&Matrix::from_rows(&toy_rows(1, 32))).expect("setup add");
            let compactor = {
                let index = index.clone();
                vaq_core::sync::thread::spawn(move || index.flush())
            };
            let deleted = index.delete(16);
            assert!(deleted, "id 16 starts live");
            compactor.join().expect("compactor");
            index.flush();
            assert!(!index.contains(16), "compaction resurrected a racing delete");
            assert_eq!(index.len(), BASE_ROWS + 2 - 1);
        });
    }

    /// Compact-vs-compact: two flushes racing for the same eligible
    /// compaction. The maintenance flag under the writer mutex must let
    /// exactly one run the pass while the other waits (yield-spin) —
    /// never two concurrent rebuilds, never a deadlock, no lost rows.
    #[test]
    fn concurrent_flushes_are_exclusive() {
        loom::model(|| {
            let index =
                fresh(SegmentPolicy::default().with_seal_threshold(1).with_compact_min_segments(2));
            index.add(&Matrix::from_rows(&toy_rows(1, 51))).expect("setup add");
            index.add(&Matrix::from_rows(&toy_rows(1, 52))).expect("setup add");
            let other = {
                let index = index.clone();
                vaq_core::sync::thread::spawn(move || index.flush())
            };
            index.flush();
            other.join().expect("flusher");
            assert_eq!(index.len(), BASE_ROWS + 2, "flush race lost rows");
            let segments = index.snapshot().num_segments();
            assert!(segments <= 2, "compaction did not run: {segments} segments");
        });
    }

    /// Audit-during-inline-seal: a writer adds 2 rows under seal
    /// threshold 2 — its add runs the seal — while the main thread
    /// audits. The audit reads snapshot, id counter and maintenance flag
    /// in one cut, so no schedule pairs the over-threshold buffer with
    /// the flag the finished seal cleared (a false VAQ111).
    #[test]
    fn audit_during_inline_seal_is_clean() {
        loom::model(|| {
            let index = fresh(SegmentPolicy::default().with_seal_threshold(2));
            let writer = {
                let index = index.clone();
                let rows = toy_rows(2, 61);
                vaq_core::sync::thread::spawn(move || {
                    index.add(&Matrix::from_rows(&rows)).expect("add");
                })
            };
            let report = index.audit();
            assert!(report.is_ok(), "{report}");
            writer.join().expect("writer");
            assert_eq!(index.snapshot().buffer_len(), 0, "the add ran its seal");
        });
    }

    /// Seeded regression: the install/refresh idiom with its publish
    /// deliberately weakened to `Relaxed`. The checker must find the
    /// schedule where a reader observes the bumped version but stale
    /// data — proof that the suite would catch the real `install()`
    /// losing its `Release`. The correctly-ordered twin must pass.
    #[test]
    fn weakened_relaxed_publish_is_caught() {
        use loom::sync::atomic::{AtomicU64, Ordering};
        use loom::sync::Arc;

        fn publish_protocol(publish_order: Ordering) {
            let data = Arc::new(AtomicU64::new(0));
            let version = Arc::new(AtomicU64::new(0));
            let (d2, v2) = (Arc::clone(&data), Arc::clone(&version));
            let writer = loom::thread::spawn(move || {
                d2.store(42, Ordering::Relaxed); // the snapshot install
                v2.fetch_add(1, publish_order); // the version bump
            });
            // The searcher-refresh side: version observed => data visible.
            if version.load(Ordering::Acquire) > 0 {
                assert_eq!(data.load(Ordering::Relaxed), 42, "stale snapshot");
            }
            writer.join().unwrap();
        }

        let weakened = std::panic::catch_unwind(|| {
            loom::model(|| publish_protocol(Ordering::Relaxed));
        });
        assert!(weakened.is_err(), "checker failed to catch the weakened Relaxed publish");
        loom::model(|| publish_protocol(Ordering::Release));
    }
}
