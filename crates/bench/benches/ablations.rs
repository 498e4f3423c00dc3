//! Ablation benchmarks for the design choices (ablation 1, pack-and-add,
//! lives in `packing.rs`):
//!
//! 2. multi-destination epilogue (ABC) vs materializing `M_r` (AB) on a
//!    rank-k shape;
//! 3. hybrid vs homogeneous two-level partitions at `k = 1200`-type depth;
//! 4. model-guided top-2 selection cost vs a single measurement;
//! 5. recursive-block vs row-major flat indexing of operand blocks.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fmm_core::indexing::BlockGrid;
use fmm_core::{fmm_execute, registry, FmmContext, FmmPlan, Variant};
use fmm_dense::fill;
use fmm_gemm::BlockingParams;
use std::time::Duration;

fn ablate_epilogue(c: &mut Criterion) {
    // Rank-k shape: m = n >> k. The paper's claim: ABC wins because AB's
    // M_r buffer round-trips cost 3·nnz(W) extra C-traffic.
    let (m, k, n) = (960usize, 128usize, 960usize);
    let a = fill::bench_workload(m, k, 1);
    let b = fill::bench_workload(k, n, 2);
    let mut cm = fmm_dense::Matrix::zeros(m, n);
    let params = BlockingParams::default();
    let plan = FmmPlan::new(vec![registry::strassen()]);

    let mut g = c.benchmark_group("ablate_epilogue_rank_k");
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    g.throughput(Throughput::Elements((2 * m * k * n) as u64));
    for variant in Variant::ALL {
        let mut ctx = FmmContext::new(params);
        g.bench_function(variant.name(), |bench| {
            bench.iter(|| {
                fmm_execute(cm.as_mut(), a.as_ref(), b.as_ref(), &plan, variant, &mut ctx);
            })
        });
    }
    g.finish();
}

fn ablate_hybrid(c: &mut Criterion) {
    let reg = registry::Registry::shared();
    let a222 = reg.get((2, 2, 2)).unwrap();
    let a232 = reg.get((2, 3, 2)).unwrap();
    let (m, k, n) = (720usize, 1200usize, 720usize);
    let a = fill::bench_workload(m, k, 1);
    let b = fill::bench_workload(k, n, 2);
    let mut cm = fmm_dense::Matrix::zeros(m, n);
    let params = BlockingParams::default();

    let mut g = c.benchmark_group("ablate_hybrid_k1200");
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    g.throughput(Throughput::Elements((2 * m * k * n) as u64));
    let plans = [
        ("homogeneous_222x222", FmmPlan::from_arcs(vec![a222.clone(), a222.clone()])),
        ("hybrid_222x232", FmmPlan::from_arcs(vec![a222.clone(), a232.clone()])),
    ];
    for (label, plan) in &plans {
        let mut ctx = FmmContext::new(params);
        g.bench_function(*label, |bench| {
            bench.iter(|| {
                fmm_execute(cm.as_mut(), a.as_ref(), b.as_ref(), plan, Variant::Abc, &mut ctx);
            })
        });
    }
    g.finish();
}

fn ablate_selection(c: &mut Criterion) {
    // Cost of ranking candidates with the model — must be negligible next
    // to a single matrix multiplication.
    use fmm_model::{rank_candidates, ArchParams, Impl};
    use std::sync::Arc;
    let reg = registry::Registry::shared();
    let plans: Vec<Arc<FmmPlan>> = reg
        .paper_rows()
        .into_iter()
        .flat_map(|(_, a)| {
            [
                Arc::new(FmmPlan::from_arcs(vec![a.clone()])),
                Arc::new(FmmPlan::from_arcs(vec![a.clone(), a.clone()])),
            ]
        })
        .collect();
    let arch = ArchParams::paper_machine();
    let mut g = c.benchmark_group("ablate_selection");
    g.measurement_time(Duration::from_millis(800));
    g.sample_size(20);
    g.bench_function("rank_all_candidates", |bench| {
        bench.iter(|| rank_candidates(1440, 480, 1440, &plans, &Impl::FMM_VARIANTS, &arch, true))
    });
    g.finish();
}

fn ablate_indexing(c: &mut Criterion) {
    // Recursive-block coordinate math vs plain row-major flat indexing.
    let grid = BlockGrid::new(vec![(2, 2), (3, 2), (2, 3)]);
    let len = grid.len();
    let mut g = c.benchmark_group("ablate_indexing");
    g.measurement_time(Duration::from_millis(500));
    g.sample_size(30);
    g.throughput(Throughput::Elements(len as u64));
    g.bench_function("morton_coords", |bench| {
        bench.iter(|| {
            let mut acc = 0usize;
            for flat in 0..len {
                let (r, cc) = grid.coords(flat);
                acc += r + cc;
            }
            criterion::black_box(acc)
        })
    });
    let cols = grid.cols();
    g.bench_function("row_major_coords", |bench| {
        bench.iter(|| {
            let mut acc = 0usize;
            for flat in 0..len {
                acc += flat / cols + flat % cols;
            }
            criterion::black_box(acc)
        })
    });
    g.finish();
}

criterion_group!(benches, ablate_epilogue, ablate_hybrid, ablate_selection, ablate_indexing);
criterion_main!(benches);
