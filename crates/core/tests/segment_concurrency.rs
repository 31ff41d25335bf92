//! Concurrency and linearizability suite for the segmented index
//! (ISSUE 6, satellite 4).
//!
//! Three angles on the same contract — a [`SegmentedVaq`] behaves like a
//! single flat index no matter how its data is physically arranged or how
//! many threads touch it:
//!
//! 1. **Sequential linearizability (property-based):** random interleaved
//!    add/delete/search logs applied to a segmented index (tiny seal
//!    threshold, aggressive compaction) and to an *unsealed oracle* (same
//!    trained model, seal threshold it can never reach, so every row stays
//!    in the exactly-scanned write buffer). Every search must return
//!    bitwise-identical results: sealing, tombstones, and compaction are
//!    pure re-arrangements.
//! 2. **Snapshot atomicity under real concurrency:** one writer and three
//!    readers (≥ 4 threads). Every concurrent query answer must equal the
//!    answer after *some* prefix of the writer's op log — readers can see
//!    stale snapshots but never torn ones.
//! 3. **Multi-writer convergence:** four writers add and delete
//!    concurrently; the final state must account for exactly the surviving
//!    rows, pass the full structural audit, and serve consistent queries.

use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use vaq_core::{Audit, Neighbor, SearchStrategy, SegmentPolicy, SegmentedVaq, Vaq, VaqConfig};
use vaq_linalg::Matrix;

const DIM: usize = 10;
const BASE_ROWS: usize = 120;

/// Deterministic splitmix-style generator so op logs replay exactly.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() >> 33) as usize % n.max(1)
    }

    fn row(&mut self) -> Vec<f32> {
        (0..DIM).map(|_| ((self.next() >> 40) as f32 / (1u32 << 23) as f32) - 1.0).collect()
    }

    fn batch(&mut self, rows: usize) -> Matrix {
        Matrix::from_rows(&(0..rows).map(|_| self.row()).collect::<Vec<_>>())
    }
}

/// One model trained once and cloned into every test — training dominates,
/// and sharing it makes subject and oracle encode rows identically.
fn base_vaq() -> &'static Vaq {
    static V: OnceLock<Vaq> = OnceLock::new();
    V.get_or_init(|| {
        let mut rng = Lcg::new(42);
        let data = rng.batch(BASE_ROWS);
        Vaq::train(&data, &VaqConfig::new(20, 4).with_ti_clusters(12)).unwrap()
    })
}

/// The subject: seals every few rows and compacts aggressively, so short
/// op logs cross many seal/merge/purge boundaries.
fn churny_subject() -> SegmentedVaq {
    let policy = SegmentPolicy::default()
        .with_seal_threshold(12)
        .with_compact_min_segments(3)
        .with_tombstone_purge_frac(0.3);
    SegmentedVaq::from_vaq(base_vaq().clone(), policy)
}

/// The oracle: a seal threshold no test can reach, so every added row
/// stays in the write buffer and is scanned exactly. Same trained model,
/// so ADC sums are bitwise identical to the subject's.
fn unsealed_oracle() -> SegmentedVaq {
    SegmentedVaq::from_vaq(
        base_vaq().clone(),
        SegmentPolicy::default().with_seal_threshold(1 << 20),
    )
}

/// Canonical form for set-membership checks on query answers (f32 compared
/// by bit pattern; distances on both sides come from the same arithmetic).
fn canon(hits: &[Neighbor]) -> Vec<(u32, u32)> {
    hits.iter().map(|h| (h.index, h.distance.to_bits())).collect()
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Random op logs: the segmented subject and the unsealed oracle agree
    /// on id assignment, delete outcomes, every intermediate search, and
    /// the final live set — across seal, merge, and purge boundaries.
    #[test]
    fn random_op_logs_match_the_unsealed_oracle(seed in 0u64..1_000_000) {
        let subject = churny_subject();
        let oracle = unsealed_oracle();
        let mut rng = Lcg::new(seed);
        let mut live: Vec<u32> = subject.live_ids();

        for _ in 0..24 {
            match rng.below(4) {
                // Adds are twice as likely as the other ops so logs grow.
                0 | 1 => {
                    let rows = 1 + rng.below(4);
                    let m = rng.batch(rows);
                    let a = subject.add(&m).unwrap();
                    let b = oracle.add(&m).unwrap();
                    prop_assert_eq!(&a, &b, "id assignment diverged");
                    live.extend(a);
                }
                2 => {
                    if !live.is_empty() {
                        let id = live.swap_remove(rng.below(live.len()));
                        prop_assert!(subject.delete(id));
                        prop_assert!(oracle.delete(id));
                        // Double delete is a no-op on both sides.
                        prop_assert_eq!(subject.delete(id), oracle.delete(id));
                    }
                }
                _ => {
                    let q = rng.row();
                    let k = 1 + rng.below(8);
                    let a = subject.search_with(&q, k, SearchStrategy::FullScan).unwrap().0;
                    let b = oracle.search_with(&q, k, SearchStrategy::FullScan).unwrap().0;
                    prop_assert_eq!(a, b, "mid-log search diverged");
                }
            }
        }

        subject.flush();
        prop_assert!(subject.audit().is_ok());
        prop_assert!(oracle.audit().is_ok());
        prop_assert_eq!(subject.len(), oracle.len());
        prop_assert_eq!(subject.live_ids(), oracle.live_ids());

        let q = rng.row();
        let exact = subject.search_with(&q, 10, SearchStrategy::FullScan).unwrap().0;
        let oracle_exact = oracle.search_with(&q, 10, SearchStrategy::FullScan).unwrap().0;
        prop_assert_eq!(&exact, &oracle_exact, "final search diverged");
        // The pruned path visits everything at visit_frac 1.0, so it must
        // rank the same ids as the exact scan.
        let pruned = subject
            .search_with(&q, 10, SearchStrategy::TiEa { visit_frac: 1.0 })
            .unwrap()
            .0;
        prop_assert_eq!(
            pruned.iter().map(|h| h.index).collect::<Vec<_>>(),
            exact.iter().map(|h| h.index).collect::<Vec<_>>()
        );
    }
}

/// Sets a flag on drop so reader loops terminate even if the writer
/// thread panics mid-log.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// One writer, three readers (four threads): every concurrently observed
/// query answer equals the answer after some prefix of the writer's op
/// log. Readers may lag behind the writer, but a torn snapshot — a
/// half-applied batch, a half-sealed buffer, a half-merged segment pair —
/// would produce an answer outside the prefix set and fail here.
#[test]
fn concurrent_reads_match_some_write_prefix() {
    const OPS: usize = 60;
    let query: Vec<f32> = Lcg::new(9001).row();
    let k = 8;

    // Deterministic op log, with ids precomputed: a single writer assigns
    // ids sequentially, so the oracle replay below sees the same ones.
    enum Op {
        Add(Matrix),
        Delete(u32),
    }
    let mut rng = Lcg::new(7);
    let mut ops = Vec::with_capacity(OPS);
    let mut next_id = BASE_ROWS as u32;
    let mut live: Vec<u32> = (0..BASE_ROWS as u32).collect();
    for _ in 0..OPS {
        if rng.below(3) < 2 || live.is_empty() {
            let rows = 2 + rng.below(4);
            ops.push(Op::Add(rng.batch(rows)));
            live.extend(next_id..next_id + rows as u32);
            next_id += rows as u32;
        } else {
            let id = live.swap_remove(rng.below(live.len()));
            ops.push(Op::Delete(id));
        }
    }

    // Replay the log on the unsealed oracle, recording the exact answer
    // after every prefix (including the empty one).
    let oracle = unsealed_oracle();
    let mut allowed: HashSet<Vec<(u32, u32)>> = HashSet::new();
    allowed.insert(canon(&oracle.search_with(&query, k, SearchStrategy::FullScan).unwrap().0));
    for op in &ops {
        match op {
            Op::Add(m) => {
                oracle.add(m).unwrap();
            }
            Op::Delete(id) => {
                assert!(oracle.delete(*id));
            }
        }
        allowed.insert(canon(&oracle.search_with(&query, k, SearchStrategy::FullScan).unwrap().0));
    }
    let final_answer = canon(&oracle.search_with(&query, k, SearchStrategy::FullScan).unwrap().0);

    // Run the same log against the churny subject, its seals and
    // compactions inline in the writer, while three readers hammer the
    // query path.
    let subject = churny_subject();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for reader in 0..3 {
            let subject = &subject;
            let done = &done;
            let query = &query;
            let allowed = &allowed;
            scope.spawn(move || {
                // Two readers exercise the cached-searcher revalidation
                // path, one takes a fresh snapshot per query.
                let mut searcher = subject.searcher();
                let mut seen = 0usize;
                loop {
                    let hits = if reader == 0 {
                        subject.search_with(query, k, SearchStrategy::FullScan).unwrap().0
                    } else {
                        searcher.search_with(query, k, SearchStrategy::FullScan).unwrap().0
                    };
                    let got = canon(&hits);
                    assert!(
                        allowed.contains(&got),
                        "reader {reader} saw an answer matching no write prefix: {got:?}"
                    );
                    seen += 1;
                    if done.load(Ordering::Acquire) && seen >= 3 {
                        return;
                    }
                }
            });
        }
        let _flag = SetOnDrop(&done);
        for op in &ops {
            match op {
                Op::Add(m) => {
                    subject.add(m).unwrap();
                }
                Op::Delete(id) => {
                    assert!(subject.delete(*id));
                }
            }
        }
        subject.flush();
    });

    subject.flush();
    assert!(subject.audit().is_ok(), "{}", subject.audit());
    assert_eq!(
        canon(&subject.search_with(&query, k, SearchStrategy::FullScan).unwrap().0),
        final_answer,
        "final state diverged from the sequential replay"
    );
    assert_eq!(subject.len(), oracle.len());
    assert_eq!(subject.live_ids(), oracle.live_ids());
}

/// Four concurrent writers: ids never collide, every surviving row is
/// findable, every deleted row is gone, and the merged final state passes
/// the full structural audit.
#[test]
fn parallel_writers_converge_to_a_consistent_state() {
    const WRITERS: usize = 4;
    let subject = churny_subject();

    let results: Vec<(Vec<u32>, Vec<u32>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let subject = &subject;
                scope.spawn(move || {
                    let mut rng = Lcg::new(0xC0FFEE + w as u64);
                    let mut mine = Vec::new();
                    for _ in 0..12 {
                        let rows = 1 + rng.below(3);
                        let ids = subject.add(&rng.batch(rows)).unwrap();
                        mine.extend(ids);
                    }
                    // Drop every third of this writer's own rows.
                    let mut kept = Vec::new();
                    let mut deleted = Vec::new();
                    for (i, id) in mine.into_iter().enumerate() {
                        if i % 3 == 2 {
                            assert!(subject.delete(id), "delete of own id {id} failed");
                            deleted.push(id);
                        } else {
                            kept.push(id);
                        }
                    }
                    (kept, deleted)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    subject.flush();
    assert!(subject.audit().is_ok(), "{}", subject.audit());

    // Ids are globally unique across writers.
    let mut all_ids: Vec<u32> =
        results.iter().flat_map(|(k, d)| k.iter().chain(d).copied()).collect();
    let total = all_ids.len();
    all_ids.sort_unstable();
    all_ids.dedup();
    assert_eq!(all_ids.len(), total, "writers received overlapping ids");

    let kept: Vec<u32> = results.iter().flat_map(|(k, _)| k.iter().copied()).collect();
    let deleted: Vec<u32> = results.iter().flat_map(|(_, d)| d.iter().copied()).collect();
    assert_eq!(subject.len(), BASE_ROWS + kept.len());
    for &id in &kept {
        assert!(subject.contains(id), "surviving id {id} is missing");
    }
    for &id in &deleted {
        assert!(!subject.contains(id), "deleted id {id} is still live");
    }
    let mut expected: Vec<u32> = (0..BASE_ROWS as u32).chain(kept.iter().copied()).collect();
    expected.sort_unstable();
    assert_eq!(subject.live_ids(), expected);

    // The final state serves queries over exactly the live set.
    let q = Lcg::new(31337).row();
    let hits = subject.search_with(&q, 10, SearchStrategy::FullScan).unwrap().0;
    assert_eq!(hits.len(), 10);
    let live: HashSet<u32> = expected.into_iter().collect();
    let unique: HashSet<u32> = hits.iter().map(|h| h.index).collect();
    assert_eq!(unique.len(), 10, "duplicate ids in a query answer");
    assert!(hits.iter().all(|h| live.contains(&h.index)), "query surfaced a dead or unknown id");
}
