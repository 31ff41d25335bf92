//! Tier-1 slice of the kernel tier × storage backing matrix: every scan
//! kernel this CPU supports sums the same `u16`s as the scalar reference,
//! over owned and over memory-mapped packed codes, and `Quantized` — on
//! whichever tier the dispatcher picked — answers exactly like
//! `EarlyAbandon` through every entry point that reaches the kernel.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use vaq::core::{SearchStrategy, SegmentPolicy, SegmentedVaq, Vaq, VaqConfig};
use vaq::dataset::rng::uniform_index;
use vaq::dataset::SyntheticSpec;
use vaq::linalg::{
    accumulate_qsums_multi, accumulate_qsums_with, active_kernel, kernel_supported, CodesStorage,
    MappedRegion, PackedCodes, PackedRow, QuantizedTables, ScanKernel, TableArena,
};

/// One nibble pair (16 + 4 rows), an odd nibble (8), single byte rows of
/// 5 to 8 bits, and a 9-bit subspace that stays on the exact path.
const SIZES: [usize; 8] = [16, 4, 8, 32, 64, 128, 256, 512];

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vaq-kernel-parity-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn random_tables(rng: &mut StdRng, packed: &PackedCodes) -> QuantizedTables {
    let mut arena = TableArena::with_layout(&SIZES);
    arena.fill_with(|_, table| {
        table.iter_mut().for_each(|v| *v = uniform_index(rng, 10_000) as f32 / 7.0)
    });
    let mut qt = QuantizedTables::new();
    qt.quantize(&arena, packed);
    qt
}

fn supported() -> impl Iterator<Item = ScanKernel> {
    ScanKernel::ALL.into_iter().filter(|&k| kernel_supported(k))
}

#[test]
fn every_supported_tier_matches_scalar_over_owned_and_mapped_codes() {
    assert!(ScanKernel::ALL.contains(&active_kernel()) && kernel_supported(active_kernel()));
    let dir = tmp_dir("codes");
    let mut rng = StdRng::seed_from_u64(18);
    for n in [1usize, 31, 32, 33, 1000] {
        let codes: Vec<u16> = (0..n * SIZES.len())
            .map(|i| uniform_index(&mut rng, SIZES[i % SIZES.len()]) as u16)
            .collect();
        let owned = PackedCodes::pack(&codes, &SIZES, n);
        assert_eq!(owned.num_subspaces(), 7, "the 9-bit subspace must not pack");
        assert_eq!(
            owned.packed_rows()[..2],
            [PackedRow::Pair { lo: 0, hi: 1 }, PackedRow::Single(2)]
        );

        // The same bytes behind a mapping, where this platform has one.
        let path = dir.join(format!("packed-{n}"));
        std::fs::write(&path, owned.data()).unwrap();
        let mapped = MappedRegion::map_file(&std::fs::File::open(&path).unwrap()).map(|region| {
            let bytes = CodesStorage::mapped(Arc::clone(&region), 0, region.len()).unwrap();
            PackedCodes::from_parts(bytes, &SIZES, n).unwrap()
        });
        assert!(mapped.as_ref().is_none_or(|m| m.storage().is_mapped() && *m == owned));

        let qt = random_tables(&mut rng, &owned);
        let mut reference = Vec::new();
        accumulate_qsums_with(ScanKernel::Scalar, &owned, &qt, &mut reference);
        assert_eq!(reference.len(), owned.padded_len());
        for kernel in supported() {
            for (backing, packed) in [("owned", Some(&owned)), ("mapped", mapped.as_ref())] {
                let Some(packed) = packed else { continue };
                let mut out = Vec::new();
                accumulate_qsums_with(kernel, packed, &qt, &mut out);
                assert_eq!(out, reference, "{} over {backing} codes, n = {n}", kernel.name());
            }
        }

        // Several queries at once are the same single-query calls.
        let tables: Vec<QuantizedTables> =
            (0..7).map(|_| random_tables(&mut rng, &owned)).collect();
        for kernel in supported() {
            let mut outs = vec![Vec::new(); tables.len()];
            let mut queries: Vec<_> = tables.iter().zip(outs.iter_mut()).collect();
            accumulate_qsums_multi(kernel, &owned, &mut queries);
            for (q, (qt, got)) in tables.iter().zip(&outs).enumerate() {
                let mut want = Vec::new();
                accumulate_qsums_with(kernel, &owned, qt, &mut want);
                assert_eq!(got, &want, "{} query {q} of 7, n = {n}", kernel.name());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quantized_answers_like_early_abandon_through_every_entry_point() {
    let ds = SyntheticSpec { dim: 16, ..SyntheticSpec::sift_like() }.generate(700, 13, 4);
    let vaq = Vaq::train(&ds.data, &VaqConfig::new(27, 6).with_ti_clusters(0)).unwrap();
    // A mixed plan: byte rows, a nibble pair and an odd nibble.
    let nibbles = vaq.bits().iter().filter(|&&b| b <= 4).count();
    assert!(nibbles >= 3 && nibbles % 2 == 1 && nibbles < 6, "plan {:?}", vaq.bits());

    let dir = tmp_dir("index");
    let path = dir.join("index.vaq");
    SegmentedVaq::from_vaq(vaq.clone(), SegmentPolicy::default()).save_mapped(&path).unwrap();
    let mapped = SegmentedVaq::open_mapped(&path).unwrap();

    let (batch, _) = vaq.search_batch(&ds.queries, 10, SearchStrategy::Quantized).unwrap();
    assert_eq!(batch.len(), 13);
    for (q, from_batch) in batch.iter().enumerate() {
        let query = ds.queries.row(q);
        let (want, _) = vaq.search_with(query, 10, SearchStrategy::EarlyAbandon).unwrap();
        let (got, stats) = vaq.search_with(query, 10, SearchStrategy::Quantized).unwrap();
        assert!(stats.quantized_pruned > 0, "query {q} never reached the packed kernel");
        assert_eq!(got, want, "search_with, query {q}");
        assert_eq!(from_batch, &want, "search_batch, query {q}");
        let (got, _) = mapped.search_with(query, 10, SearchStrategy::Quantized).unwrap();
        assert_eq!(got, want, "open_mapped, query {q}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
