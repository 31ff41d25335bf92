//! Tier-1 slice of the persistence matrix: every way of writing an index
//! file and reading it back answers exactly like the index that was
//! saved, a saved file is byte for byte what `to_bytes` renders, and the
//! owned load turns any damaged file into a typed error.

use std::path::PathBuf;
use std::sync::OnceLock;
use vaq::core::{
    Neighbor, SearchStats, SearchStrategy, SegmentPolicy, SegmentedVaq, Vaq, VaqConfig, VaqError,
};
use vaq::dataset::SyntheticSpec;
use vaq::linalg::Matrix;

struct Fixture {
    dir: PathBuf,
    data: Matrix,
    mono: Vaq,
    /// `mono` grown past two seals, with a tombstone in a sealed segment
    /// and one in the non-empty buffer.
    seg: SegmentedVaq,
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let dir =
            std::env::temp_dir().join(format!("vaq-persist-container-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data = SyntheticSpec { dim: 16, ..SyntheticSpec::sift_like() }.generate(300, 1, 5).data;
        let rows = |lo: usize, hi: usize| data.select_rows(&(lo..hi).collect::<Vec<_>>());
        let mono = Vaq::train(&rows(0, 200), &VaqConfig::new(32, 4).with_ti_clusters(12)).unwrap();
        let seg =
            SegmentedVaq::from_vaq(mono.clone(), SegmentPolicy::default().with_seal_threshold(40));
        seg.add(&rows(200, 245)).unwrap(); // sealed inline
        seg.add(&rows(245, 290)).unwrap(); // sealed inline
        seg.add(&rows(290, 300)).unwrap(); // stays buffered
        assert!(seg.delete(17) && seg.delete(230) && seg.delete(295));
        assert_eq!((seg.snapshot().num_segments(), seg.snapshot().buffer_len()), (3, 10));
        Fixture { dir, data, mono, seg }
    })
}

/// Neighbours and work counters of `search` under every strategy, for a
/// spread of queries.
fn answers(
    fx: &Fixture,
    search: impl Fn(&[f32], SearchStrategy) -> (Vec<Neighbor>, SearchStats),
) -> Vec<(Vec<Neighbor>, SearchStats)> {
    (0..300)
        .step_by(23)
        .flat_map(|q| {
            [
                SearchStrategy::FullScan,
                SearchStrategy::EarlyAbandon,
                SearchStrategy::TiEa { visit_frac: 0.25 },
                SearchStrategy::TiEa { visit_frac: 1.0 },
                SearchStrategy::Quantized,
            ]
            .map(|s| search(fx.data.row(q), s))
        })
        .collect()
}

fn seg_answers(fx: &Fixture, index: &SegmentedVaq) -> Vec<(Vec<Neighbor>, SearchStats)> {
    answers(fx, |q, s| index.search_with(q, 7, s).unwrap())
}

#[test]
fn every_round_trip_answers_like_the_saved_index() {
    let fx = fixture();

    let path = fx.dir.join("mono.vaq");
    fx.mono.save(&path).unwrap();
    let want = answers(fx, |q, s| fx.mono.search_with(q, 7, s).unwrap());
    let back = Vaq::load(&path).unwrap();
    assert_eq!(answers(fx, |q, s| back.search_with(q, 7, s).unwrap()), want, "monolith");
    let as_seg = SegmentedVaq::load(&path).unwrap();
    // The two entry points size their one-shot table arenas differently
    // (`table_reallocations`), so across them only the neighbours compare.
    let hits =
        |a: Vec<(Vec<Neighbor>, SearchStats)>| a.into_iter().map(|x| x.0).collect::<Vec<_>>();
    assert_eq!(hits(seg_answers(fx, &as_seg)), hits(want), "monolith loaded as one segment");
    assert_eq!(as_seg.live_ids(), (0..200).collect::<Vec<u32>>());

    let want = seg_answers(fx, &fx.seg);
    let path = fx.dir.join("seg.vaq");
    fx.seg.save(&path).unwrap();
    let back = SegmentedVaq::load(&path).unwrap();
    assert_eq!(seg_answers(fx, &back), want, "segmented");
    assert_eq!(back.live_ids(), fx.seg.live_ids());
    assert_eq!((back.snapshot().num_segments(), back.snapshot().buffer_len()), (3, 10));

    let path = fx.dir.join("mapped.vaq");
    fx.seg.save_mapped(&path).unwrap();
    let back = SegmentedVaq::open_mapped(&path).unwrap();
    assert_eq!(seg_answers(fx, &back), want, "mapped");
    assert_eq!(back.live_ids(), fx.seg.live_ids());

    // Durable: a checkpoint, then logged mutations the reopen must replay.
    let path = fx.dir.join("durable.vaq");
    let live = SegmentedVaq::from_bytes(&fx.seg.to_bytes()).unwrap();
    live.make_durable(&path).unwrap();
    live.add(&fx.data.select_rows(&[3, 4, 5])).unwrap();
    assert!(live.try_delete(100).unwrap());
    let back = SegmentedVaq::open_durable(&path).unwrap();
    assert_eq!(seg_answers(fx, &back), seg_answers(fx, &live), "durable");
    assert_eq!(back.live_ids(), live.live_ids());
}

#[test]
fn a_saved_file_is_what_to_bytes_renders() {
    let fx = fixture();
    let path = fx.dir.join("bytes-mono.vaq");
    fx.mono.save(&path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), fx.mono.to_bytes());
    let path = fx.dir.join("bytes-seg.vaq");
    fx.seg.save(&path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), fx.seg.to_bytes());
}

#[test]
fn flips_and_truncations_are_typed_errors() {
    let fx = fixture();
    let corrupt = |r: Result<SegmentedVaq, VaqError>, what: &str| match r {
        Err(VaqError::BadConfig(msg)) => msg,
        Err(other) => panic!("{what}: expected a corruption error, got {other:?}"),
        Ok(_) => panic!("{what}: damaged file accepted"),
    };
    for (name, clean) in [("mono", fx.mono.to_bytes()), ("seg", fx.seg.to_bytes())] {
        for at in (0..clean.len()).step_by(211) {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x10;
            corrupt(SegmentedVaq::from_bytes(&bytes), &format!("{name} flip at {at}"));
            assert!(Vaq::from_bytes(&bytes).is_err(), "{name} flip at {at}");
        }
        for cut in (0..clean.len()).step_by(173) {
            corrupt(SegmentedVaq::from_bytes(&clean[..cut]), &format!("{name} cut at {cut}"));
            assert!(Vaq::from_bytes(&clean[..cut]).is_err(), "{name} cut at {cut}");
        }
        // The byte before the last extent's page is alignment padding: no
        // checksum covers it, so the parser must insist that it is zero.
        let mut bytes = clean.clone();
        let last_page = (bytes.len() - 1) / 4096 * 4096;
        bytes[last_page - 1] ^= 0x10;
        let msg = corrupt(SegmentedVaq::from_bytes(&bytes), &format!("{name} padding flip"));
        assert!(msg.contains("padding"), "{name}: {msg}");
    }
}
