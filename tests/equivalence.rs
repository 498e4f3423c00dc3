//! Equivalence tests across execution strategies: the same mathematical
//! operation through different code paths must agree — in several cases
//! bit for bit, because the packing order, kernel, and summation order are
//! identical.

use fmm_core::compose;
use fmm_core::prelude::*;
use fmm_dense::{fill, norms, Matrix};
use fmm_gemm::BlockingParams;

/// A two-level plan [X, Y] and the one-level plan [nest(X, Y)] execute the
/// same products in the same order with the same coefficients — results
/// are bitwise identical.
#[test]
fn multilevel_plan_equals_nested_one_level() {
    let reg = fmm_core::registry::Registry::shared();
    let x = reg.get((2, 2, 2)).unwrap();
    let y = reg.get((2, 3, 2)).unwrap();

    let two_level = FmmPlan::from_arcs(vec![x.clone(), y.clone()]);
    let nested = FmmPlan::new(vec![compose::nest(&x, &y)]);
    assert_eq!(two_level.partition_dims(), nested.partition_dims());
    assert_eq!(two_level.rank(), nested.rank());

    let (mt, kt, nt) = two_level.partition_dims();
    let (m, k, n) = (mt * 5, kt * 4, nt * 3);
    let a = fill::bench_workload(m, k, 1);
    let b = fill::bench_workload(k, n, 2);

    for variant in Variant::ALL {
        let mut c1 = Matrix::zeros(m, n);
        let mut ctx = FmmContext::new(BlockingParams::tiny());
        fmm_execute(c1.as_mut(), a.as_ref(), b.as_ref(), &two_level, variant, &mut ctx);

        let mut c2 = Matrix::zeros(m, n);
        let mut ctx2 = FmmContext::new(BlockingParams::tiny());
        fmm_execute(c2.as_mut(), a.as_ref(), b.as_ref(), &nested, variant, &mut ctx2);

        assert_eq!(c1, c2, "variant {}", variant.name());
    }
}

/// Parallel and sequential executors produce bitwise-identical results
/// (same per-element summation order).
#[test]
fn parallel_equals_sequential_bitwise() {
    let plan = FmmPlan::new(vec![fmm_core::registry::strassen()]);
    for (m, k, n) in [(64, 48, 56), (130, 34, 66)] {
        let a = fill::bench_workload(m, k, 3);
        let b = fill::bench_workload(k, n, 4);
        for variant in Variant::ALL {
            let mut c_seq = Matrix::zeros(m, n);
            let mut ctx = FmmContext::new(BlockingParams::tiny());
            fmm_execute(c_seq.as_mut(), a.as_ref(), b.as_ref(), &plan, variant, &mut ctx);

            let mut c_par = Matrix::zeros(m, n);
            let mut ctx_p = FmmContext::new(BlockingParams::tiny());
            fmm_execute_parallel(
                c_par.as_mut(),
                a.as_ref(),
                b.as_ref(),
                &plan,
                variant,
                &mut ctx_p,
                0,
            );

            assert_eq!(c_seq, c_par, "variant {} m={m}", variant.name());
        }
    }
}

/// The three variants agree with each other to rounding error (they sum in
/// different orders, so not bitwise).
#[test]
fn variants_agree_to_rounding() {
    let plan = FmmPlan::uniform(fmm_core::registry::strassen(), 2);
    let (m, k, n) = (52, 44, 60);
    let a = fill::bench_workload(m, k, 5);
    let b = fill::bench_workload(k, n, 6);
    let mut results = Vec::new();
    for variant in Variant::ALL {
        let mut c = Matrix::zeros(m, n);
        let mut ctx = FmmContext::new(BlockingParams::tiny());
        fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, variant, &mut ctx);
        results.push(c);
    }
    for pair in results.windows(2) {
        let err = norms::max_abs_diff(pair[0].as_ref(), pair[1].as_ref());
        assert!(err < 1e-11, "variants disagree: {err}");
    }
}

/// Different blocking parameters change performance, never results
/// (beyond rounding).
#[test]
fn blocking_parameters_do_not_change_results() {
    let plan = FmmPlan::new(vec![fmm_core::registry::strassen()]);
    let (m, k, n) = (70, 50, 90);
    let a = fill::bench_workload(m, k, 7);
    let b = fill::bench_workload(k, n, 8);
    let mut base = Matrix::zeros(m, n);
    let mut ctx = FmmContext::new(BlockingParams::tiny());
    fmm_execute(base.as_mut(), a.as_ref(), b.as_ref(), &plan, Variant::Abc, &mut ctx);
    for params in [
        BlockingParams::default(),
        BlockingParams { mr: 8, nr: 4, kc: 32, mc: 24, nc: 40 },
        BlockingParams { mr: 8, nr: 4, kc: 512, mc: 8, nc: 4 },
    ] {
        let mut c = Matrix::zeros(m, n);
        let mut ctx = FmmContext::new(params);
        fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, Variant::Abc, &mut ctx);
        let err = norms::max_abs_diff(base.as_ref(), c.as_ref());
        assert!(err < 1e-11, "params {params:?}: err {err}");
    }
}

/// `gemm` (the public one-call API) equals the generalized driver's
/// single-term case.
#[test]
fn public_gemm_equals_driver() {
    let (m, k, n) = (100, 60, 80);
    let a = fill::bench_workload(m, k, 9);
    let b = fill::bench_workload(k, n, 10);
    let mut c1 = Matrix::zeros(m, n);
    fmm_gemm::gemm(c1.as_mut(), a.as_ref(), b.as_ref());
    let mut c2 = Matrix::zeros(m, n);
    let params = BlockingParams::default();
    let mut ws = fmm_gemm::GemmWorkspace::for_params(&params);
    fmm_gemm::driver::gemm_sums(
        &mut [fmm_gemm::DestTile::new(c2.as_mut(), 1.0)],
        &[(1.0, a.as_ref())],
        &[(1.0, b.as_ref())],
        &params,
        &mut ws,
    );
    assert_eq!(c1, c2);
}

/// Transposed-view operands (row-major matrices seen through stride swap)
/// multiply correctly.
#[test]
fn strided_and_transposed_operands() {
    let (m, k, n) = (24, 20, 28);
    let at = fill::bench_workload(k, m, 11); // Aᵀ stored, viewed transposed
    let b = fill::bench_workload(k, n, 12);
    let plan = FmmPlan::new(vec![fmm_core::registry::strassen()]);
    let mut ctx = FmmContext::new(BlockingParams::tiny());
    let mut c = Matrix::zeros(m, n);
    fmm_execute(c.as_mut(), at.as_ref().t(), b.as_ref(), &plan, Variant::Abc, &mut ctx);
    let c_ref = fmm_gemm::reference::matmul(at.as_ref().t(), b.as_ref());
    assert!(norms::max_abs_diff(c.as_ref(), c_ref.as_ref()) < 1e-11);
}
