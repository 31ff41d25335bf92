//! Criterion micro-benchmarks for the hot paths of the reproduction:
//! the eigensolver behind VarPCA, dictionary learning, the MILP bit
//! allocator, and — most importantly — the per-query scan kernels whose
//! relative costs drive every runtime figure in the paper (full ADC scan
//! vs early abandoning vs TI+EA vs Bolt's integer scan).
//!
//! Run: `cargo bench -p vaq-bench`

use criterion::{BatchSize, Criterion};
use std::time::Duration;
use vaq_baselines::bolt::{Bolt, BoltConfig};
use vaq_baselines::pq::{Pq, PqConfig};
use vaq_baselines::AnnIndex;
use vaq_bench::{write_json, Json};
use vaq_core::{SearchStrategy, Vaq, VaqConfig};
use vaq_dataset::SyntheticSpec;
use vaq_linalg::{covariance_centered, sym_eigen, TableArena};
use vaq_milp::{solve_lp, Cmp, Model, Objective};

fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("vaq");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));
    g
}

fn bench_eigen(c: &mut Criterion) {
    let ds = SyntheticSpec::sift_like().generate(2000, 0, 1);
    let cov = covariance_centered(&ds.data).unwrap();
    let mut g = quick(c);
    g.bench_function("sym_eigen_128x128", |b| {
        b.iter(|| sym_eigen(std::hint::black_box(&cov)).unwrap())
    });
    g.finish();
}

fn bench_kmeans(c: &mut Criterion) {
    let ds = SyntheticSpec::deep_like().generate(4000, 0, 2);
    let mut g = quick(c);
    g.bench_function("kmeans_k64_n4000_d96", |b| {
        b.iter(|| {
            vaq_kmeans::KMeans::fit(
                std::hint::black_box(&ds.data),
                &vaq_kmeans::KMeansConfig::new(64).with_max_iters(5),
            )
            .unwrap()
        })
    });
    g.finish();
}

fn bench_milp(c: &mut Criterion) {
    let shares: Vec<f64> = (0..32).map(|i| (0.8f64).powi(i)).collect();
    let mut g = quick(c);
    g.bench_function("milp_bit_allocation_256b_32seg", |b| {
        b.iter(|| {
            vaq_core::allocate_bits(
                std::hint::black_box(&shares),
                256,
                1,
                13,
                vaq_core::AllocationStrategy::Adaptive,
            )
            .unwrap()
        })
    });
    g.bench_function("simplex_20x10", |b| {
        b.iter_batched(
            || {
                let mut m = Model::new(Objective::Maximize);
                let vars: Vec<usize> =
                    (0..10).map(|i| m.add_var(0.0, 10.0, 1.0 + i as f64 * 0.1)).collect();
                for r in 0..20 {
                    let coeffs: Vec<(usize, f64)> = vars
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| (v, 1.0 + ((i + r) % 3) as f64))
                        .collect();
                    m.add_constraint(coeffs, Cmp::Le, 50.0 + r as f64);
                }
                m
            },
            |m| solve_lp(std::hint::black_box(&m)).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_scan_kernels(c: &mut Criterion) {
    // The paper's runtime story in microcosm: one query against 20k codes.
    let n = 20_000;
    let ds = SyntheticSpec::sift_like().generate(n, 1, 3);
    let q = ds.queries.row(0);
    let k = 100;

    let pq = Pq::train(&ds.data, &PqConfig::new(16).with_bits(8)).unwrap();
    let bolt = Bolt::train(&ds.data, &BoltConfig::new(16)).unwrap();
    let vaq =
        Vaq::train(&ds.data, &VaqConfig::new(128, 16).with_seed(3).with_ti_clusters(200)).unwrap();

    let mut g = quick(c);
    g.bench_function("scan_pq_adc_20k", |b| b.iter(|| pq.search_adc(std::hint::black_box(q), k)));
    g.bench_function("scan_bolt_u8_20k", |b| b.iter(|| bolt.search(std::hint::black_box(q), k)));
    g.bench_function("scan_vaq_full_20k", |b| {
        b.iter(|| vaq.search_with(std::hint::black_box(q), k, SearchStrategy::FullScan))
    });
    g.bench_function("scan_vaq_ea_20k", |b| {
        b.iter(|| vaq.search_with(std::hint::black_box(q), k, SearchStrategy::EarlyAbandon))
    });
    g.bench_function("scan_vaq_tiea25_20k", |b| {
        b.iter(|| {
            vaq.search_with(std::hint::black_box(q), k, SearchStrategy::TiEa { visit_frac: 0.25 })
        })
    });
    g.bench_function("scan_vaq_tiea10_20k", |b| {
        b.iter(|| {
            vaq.search_with(std::hint::black_box(q), k, SearchStrategy::TiEa { visit_frac: 0.10 })
        })
    });
    g.finish();
}

fn bench_encode(c: &mut Criterion) {
    let ds = SyntheticSpec::sift_like().generate(2000, 16, 4);
    let pq = Pq::train(&ds.data, &PqConfig::new(16).with_bits(8)).unwrap();
    let vaq = Vaq::train(&ds.data, &VaqConfig::new(128, 16).with_ti_clusters(0)).unwrap();
    let mut g = quick(c);
    g.bench_function("encode_one_pq_128d", |b| {
        b.iter(|| pq.encode(std::hint::black_box(ds.queries.row(0))))
    });
    g.bench_function("project_and_encode_one_vaq_128d", |b| {
        b.iter(|| {
            let p = vaq.project_query(std::hint::black_box(ds.queries.row(0))).unwrap();
            vaq.encoder().encode(&p)
        })
    });
    g.finish();
}

fn bench_table_refill(c: &mut Criterion) {
    // Refilling one flat `TableArena` in place, single-query and batched
    // (64 queries through the same staging buffer).
    let ds = SyntheticSpec::sift_like().generate(2000, 64, 5);
    let vaq = Vaq::train(&ds.data, &VaqConfig::new(128, 16).with_ti_clusters(0)).unwrap();
    let enc = vaq.encoder();
    let projected: Vec<Vec<f32>> =
        (0..ds.queries.rows()).map(|qi| vaq.project_query(ds.queries.row(qi)).unwrap()).collect();
    let q0 = projected[0].as_slice();

    let mut g = quick(c);
    let mut arena = TableArena::new();
    enc.fill_tables(q0, &mut arena); // pre-size: measure the steady state
    g.bench_function("tables_arena_refill_single", |b| {
        b.iter(|| enc.fill_tables(std::hint::black_box(q0), &mut arena))
    });
    g.bench_function("tables_arena_refill_batch64", |b| {
        b.iter(|| {
            for q in &projected {
                enc.fill_tables(std::hint::black_box(q), &mut arena);
            }
            arena.num_tables()
        })
    });
    g.finish();
}

fn main() {
    let mut criterion = Criterion::default();
    bench_eigen(&mut criterion);
    bench_kmeans(&mut criterion);
    bench_milp(&mut criterion);
    bench_scan_kernels(&mut criterion);
    bench_encode(&mut criterion);
    bench_table_refill(&mut criterion);

    // Persist every summary so regressions are diffable.
    let rows: Vec<Json> = criterion
        .summaries()
        .iter()
        .map(|s| {
            Json::obj([
                ("id", Json::Str(s.id.clone())),
                ("mean_ns", Json::Num(s.mean_ns)),
                ("best_ns", Json::Num(s.best_ns)),
                ("samples", Json::Num(s.samples as f64)),
            ])
        })
        .collect();
    write_json(std::path::Path::new("results"), "microbench.json", &rows).expect("write results");
}
