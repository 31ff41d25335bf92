//! Tier-1 slice of the strategy × segmentation matrix: the same rows,
//! however they are held, answer every strategy and every `k` alike, and
//! a segment's switch from implicit to stored ids changes nothing a caller
//! can see — in RAM, on disk, mapped, or recovered from a log.

use std::path::PathBuf;
use vaq::core::{Neighbor, SearchStrategy, SegmentPolicy, SegmentedVaq, Vaq, VaqConfig};
use vaq::dataset::SyntheticSpec;
use vaq::linalg::Matrix;

const N: usize = 600;
const TRAINED: usize = 300;
const STRATEGIES: [SearchStrategy; 4] = [
    SearchStrategy::FullScan,
    SearchStrategy::EarlyAbandon,
    SearchStrategy::TiEa { visit_frac: 1.0 },
    SearchStrategy::Quantized,
];

fn data() -> (Matrix, Matrix) {
    let ds = SyntheticSpec { dim: 16, ..SyntheticSpec::sift_like() }.generate(N, 12, 9);
    (ds.data, ds.queries)
}

fn cfg() -> VaqConfig {
    VaqConfig::new(24, 4).with_ti_clusters(12)
}

fn policy() -> SegmentPolicy {
    SegmentPolicy::default()
        .with_seal_threshold(70)
        .with_compact_min_segments(6)
        .with_tombstone_purge_frac(0.25)
}

fn rows(data: &Matrix, lo: usize, hi: usize) -> Matrix {
    data.select_rows(&(lo..hi).collect::<Vec<_>>())
}

/// The rows past the training set, in the batches every holder ingests
/// them in: three seals at 80 rows each, the last 60 rows stay buffered.
fn batches(data: &Matrix) -> impl Iterator<Item = Matrix> + '_ {
    (TRAINED..N).step_by(40).map(move |lo| rows(data, lo, N.min(lo + 40)))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vaq-index-parity-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every query under every strategy.
fn answers(queries: &Matrix, k: usize, index: &SegmentedVaq) -> Vec<Vec<Neighbor>> {
    (0..queries.rows())
        .flat_map(|q| STRATEGIES.map(|s| index.search_with(queries.row(q), k, s).unwrap().0))
        .collect()
}

#[test]
fn four_holders_of_the_same_rows_answer_alike() {
    let (data, queries) = data();
    let dir = tmp_dir("holders");

    let mut grown = Vaq::train(&rows(&data, 0, TRAINED), &cfg()).unwrap();
    let untouched = grown.clone();
    let sealed = SegmentedVaq::train(&rows(&data, 0, TRAINED), &cfg(), policy()).unwrap();
    for batch in batches(&data) {
        grown.add(&batch).unwrap();
        sealed.add(&batch).unwrap();
    }
    assert_eq!((grown.len(), untouched.len()), (N, TRAINED), "add reached a clone");
    assert_eq!((sealed.snapshot().num_segments(), sealed.snapshot().buffer_len()), (4, 60));

    let moved = SegmentedVaq::from_vaq(grown.clone(), policy());
    let path = dir.join("grown.vaq");
    grown.save(&path).unwrap();
    let reloaded = SegmentedVaq::load(&path).unwrap();
    let holders = [("from_vaq", &moved), ("Vaq::save file", &reloaded), ("sealed", &sealed)];

    for k in [0, 1, 10, N + 5] {
        for q in 0..queries.rows() {
            let query = queries.row(q);
            let want = grown.search_with(query, k, SearchStrategy::FullScan).unwrap().0;
            assert_eq!(want.len(), k.min(N), "k = {k}");
            for strategy in STRATEGIES {
                let what = format!("query {q}, k = {k}, {strategy:?}");
                assert_eq!(grown.search_with(query, k, strategy).unwrap().0, want, "Vaq, {what}");
                for (name, index) in holders {
                    let got = index.search_with(query, k, strategy).unwrap().0;
                    assert_eq!(got, want, "{name}, {what}");
                }
            }
        }
        // The batched entry point shards the same per-query search.
        for strategy in STRATEGIES {
            let (batch, _) = grown.search_batch(&queries, k, strategy).unwrap();
            for (q, got) in batch.iter().enumerate() {
                let want =
                    grown.search_with(queries.row(q), k, SearchStrategy::FullScan).unwrap().0;
                assert_eq!(got, &want, "batch query {q}, k = {k}, {strategy:?}");
            }
        }
    }

    // A file is a `Vaq` by its shape, not by who wrote it.
    let path = dir.join("moved.vaq");
    moved.save(&path).unwrap();
    let back = Vaq::load(&path).unwrap();
    assert_eq!(back.search(queries.row(0), 10), grown.search(queries.row(0), 10));
    assert!(moved.delete(7));
    moved.save(&path).unwrap();
    assert!(Vaq::load(&path).is_err(), "a tombstone is not a Vaq");
    sealed.save(&path).unwrap();
    assert!(Vaq::load(&path).is_err(), "several segments and buffered rows are not a Vaq");
    let buffered = SegmentedVaq::from_vaq(untouched, policy());
    buffered.add(&rows(&data, TRAINED, TRAINED + 1)).unwrap();
    buffered.save(&path).unwrap();
    assert!(Vaq::load(&path).is_err(), "a buffered row is not a Vaq");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_purge_changes_nothing_a_caller_can_see() {
    let (data, queries) = data();
    let dir = tmp_dir("purge");
    let index = SegmentedVaq::train(&rows(&data, 0, TRAINED), &cfg(), policy()).unwrap();
    for batch in batches(&data) {
        index.add(&batch).unwrap();
    }
    // What must come back once a third of the trained segment is gone: the
    // full ranking of every query, minus the deleted ids, cut to ten.
    let dead = |id: u32| id.is_multiple_of(3) && id < TRAINED as u32;
    let live: Vec<u32> = (0..N as u32).filter(|&id| !dead(id)).collect();
    let want: Vec<Vec<Neighbor>> = answers(&queries, N, &index)
        .into_iter()
        .map(|full| full.into_iter().filter(|nb| !dead(nb.index)).take(10).collect())
        .collect();

    // Deleting past `tombstone_purge_frac` rewrites the segment without
    // the dead rows: its ids stop being a range and become a stored column.
    vaq::core::obs::set_enabled(true);
    for id in (0..N as u32).filter(|&id| dead(id)) {
        assert!(index.delete(id));
    }
    index.flush();
    let purges = vaq::core::obs::take_events()
        .iter()
        .filter(|e| e.kind == "segment.tombstone_purge")
        .count();
    vaq::core::obs::set_enabled(false);
    assert!(purges > 0, "no purge ran");

    assert_eq!(index.live_ids(), live);
    for id in 0..N as u32 + 3 {
        assert_eq!(index.contains(id), live.binary_search(&id).is_ok(), "id {id}");
    }
    assert_eq!(answers(&queries, 10, &index), want, "after the purge");

    // Never-compacted and purged segments side by side, through every
    // way of writing the index down and reading it back.
    let path = dir.join("save.vaq");
    index.save(&path).unwrap();
    let back = SegmentedVaq::load(&path).unwrap();
    assert_eq!((back.live_ids(), answers(&queries, 10, &back)), (live.clone(), want.clone()));

    let path = dir.join("mapped.vaq");
    index.save_mapped(&path).unwrap();
    let back = SegmentedVaq::open_mapped(&path).unwrap();
    assert_eq!((back.live_ids(), answers(&queries, 10, &back)), (live.clone(), want.clone()));

    let path = dir.join("durable.vaq");
    index.make_durable(&path).unwrap();
    let back = SegmentedVaq::open_durable(&path).unwrap();
    assert_eq!((back.live_ids(), answers(&queries, 10, &back)), (live, want));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A TiEa query ranks the model's clusters once and every segment visits
/// the same ones, so its answer, at any visit fraction, depends on the
/// rows alone: the same rows in 1, 2 or 5 sealed segments, in RAM, mapped
/// from a file or recovered from a log whose replay seals them.
#[test]
fn tiea_answers_do_not_depend_on_how_the_rows_are_segmented() {
    let (data, queries) = data();
    let dir = tmp_dir("segmentation");
    let trained = Vaq::train(&rows(&data, 0, TRAINED), &cfg()).unwrap();
    let rest = N - TRAINED;
    let answers = |index: &SegmentedVaq| -> Vec<Vec<Neighbor>> {
        let visits = [0.1, 0.25, 1.0].map(|visit_frac| SearchStrategy::TiEa { visit_frac });
        (0..queries.rows())
            .flat_map(|q| visits.map(|s| index.search_with(queries.row(q), 10, s).unwrap().0))
            .collect()
    };
    let mut want: Option<Vec<Vec<Neighbor>>> = None;
    // (sealed segments, seal threshold, compaction minimum): the one seal
    // merged into the trained segment, kept beside it, or cut in four.
    for (segments, seal, compact) in [(1, rest, 2), (2, rest, 16), (5, rest / 4, 16)] {
        let policy =
            SegmentPolicy::default().with_seal_threshold(seal).with_compact_min_segments(compact);
        let owned = SegmentedVaq::from_vaq(trained.clone(), policy.clone());
        let logged = SegmentedVaq::from_vaq(trained.clone(), policy);
        let durable = dir.join(format!("{segments}-durable.vaq"));
        logged.make_durable(&durable).unwrap();
        for lo in (TRAINED..N).step_by(seal) {
            owned.add(&rows(&data, lo, lo + seal)).unwrap();
            logged.add(&rows(&data, lo, lo + seal)).unwrap();
        }
        drop(logged);
        assert_eq!(owned.snapshot().num_segments(), segments);
        assert_eq!(owned.len(), N);
        let mapped = dir.join(format!("{segments}-mapped.vaq"));
        owned.save_mapped(&mapped).unwrap();
        let recovered = SegmentedVaq::open_durable(&durable).unwrap();
        assert_eq!(recovered.len(), N);
        let got = answers(&owned);
        assert_eq!(answers(&SegmentedVaq::open_mapped(&mapped).unwrap()), got, "{segments} mapped");
        assert_eq!(answers(&recovered), got, "{segments} recovered");
        assert_eq!(want.get_or_insert_with(|| got.clone()), &got, "{segments} segments");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
