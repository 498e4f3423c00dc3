//! Packing benchmarks, including the paper's key primitive: packing a
//! *linear combination* of submatrices at (nearly) the cost of a plain
//! pack. This is ablation 1 (the others are in `ablations.rs`) — pack-and-add
//! vs packing and adding separately.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fmm_dense::{fill, Matrix};
use fmm_gemm::pack;
use std::time::Duration;

fn bench_pack_sums(c: &mut Criterion) {
    let mut g = c.benchmark_group("pack_a");
    g.measurement_time(Duration::from_millis(800));
    g.sample_size(20);
    let (mb, kb) = (96usize, 256usize);
    let mats: Vec<Matrix> = (0..4).map(|i| fill::bench_workload(mb, kb, i as u64)).collect();
    let mut dst = vec![0.0; mb * kb];
    g.throughput(Throughput::Elements((mb * kb) as u64));
    for terms in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("pack_sum_terms", terms), &terms, |bench, &t| {
            let list: Vec<(f64, fmm_dense::MatRef<'_>)> =
                mats.iter().take(t).map(|m| (1.0, m.as_ref())).collect();
            bench.iter(|| pack::pack_a_sum(&mut dst, &list, 8))
        });
    }
    // The alternative the paper replaces: materialize the sum, then pack.
    g.bench_function("add_then_pack_2_terms", |bench| {
        let mut tmp = Matrix::zeros(mb, kb);
        bench.iter(|| {
            fmm_dense::ops::linear_combination(
                tmp.as_mut(),
                &[(1.0, mats[0].as_ref()), (1.0, mats[1].as_ref())],
            )
            .unwrap();
            pack::pack_a_sum(&mut dst, &[(1.0, tmp.as_ref())], 8);
        })
    });
    g.finish();
}

fn bench_pack_b(c: &mut Criterion) {
    let mut g = c.benchmark_group("pack_b");
    g.measurement_time(Duration::from_millis(800));
    g.sample_size(20);
    let (kb, nb) = (256usize, 1024usize);
    let m0 = fill::bench_workload(kb, nb, 7);
    let m1 = fill::bench_workload(kb, nb, 8);
    let mut dst = vec![0.0; kb * nb];
    g.throughput(Throughput::Elements((kb * nb) as u64));
    g.bench_function("single", |bench| {
        bench.iter(|| pack::pack_b_sum(&mut dst, &[(1.0, m0.as_ref())], 4))
    });
    g.bench_function("sum_2", |bench| {
        bench.iter(|| pack::pack_b_sum(&mut dst, &[(1.0, m0.as_ref()), (-1.0, m1.as_ref())], 4))
    });
    g.finish();
}

criterion_group!(benches, bench_pack_sums, bench_pack_b);
criterion_main!(benches);
