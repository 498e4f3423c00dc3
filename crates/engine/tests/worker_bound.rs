//! Every route runs on the workers it was ranked for: DFS block products
//! and the engine's GEMM route give the driver's `ic` loop at most
//! `workers` threads, and one worker never leaves the calling thread, even
//! on a wider pool.
//!
//! The threads are told apart by the trace ring each span lands in (a
//! ring changes hands only when its thread exits, so threads that run at
//! the same time never share one). In its own test binary because the
//! trace switch and the pool width are process-global.

use fmm_core::{registry, FmmPlan, Strategy, Variant};
use fmm_dense::{fill, norms, Matrix};
use fmm_engine::{ArchSource, EngineConfig, FmmEngine, Routing};
use fmm_gemm::BlockingParams;
use fmm_model::ArchParams;
use fmm_obs::trace::{self, SpanKind};
use fmm_sched::SchedContext;
use std::collections::BTreeSet;

/// `mc = 16` splits a 64-row block product into four `ic` blocks, enough
/// for four workers; `kc`/`nc` are large so each product records few
/// spans and nothing overflows a trace ring.
fn params() -> BlockingParams {
    BlockingParams { mc: 16, kc: 64, nc: 64, ..BlockingParams::tiny() }
}

/// Run `f` with tracing on; return the ring of the calling thread and the
/// set of rings the `Pack` and `Kernel` spans landed in.
fn span_rings(f: impl FnOnce()) -> (u32, BTreeSet<u32>) {
    const MARK: u64 = 0xCA11E4;
    trace::clear();
    trace::mark(SpanKind::RequestRecv, MARK);
    f();
    let events = trace::recent(0);
    let caller = events
        .iter()
        .find(|e| e.kind == SpanKind::RequestRecv && e.request_id == MARK)
        .expect("the caller's mark survives")
        .thread;
    let rings: BTreeSet<u32> = events
        .iter()
        .filter(|e| matches!(e.kind, SpanKind::Pack | SpanKind::Kernel))
        .map(|e| e.thread)
        .collect();
    assert!(!rings.is_empty(), "the driver recorded pack and kernel spans");
    (caller, rings)
}

fn check_product(c: &Matrix<f64>, a: &Matrix<f64>, b: &Matrix<f64>) {
    let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
    assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-10);
}

#[test]
fn routes_run_on_the_workers_they_were_ranked_for() {
    rayon::ThreadPoolBuilder::new().num_threads(4).build_global().unwrap();
    trace::set_enabled(true);

    // DFS through the scheduler: 1-level Strassen on 128³ gives 64-row
    // block products.
    let plan = FmmPlan::new(vec![registry::strassen()]);
    let a = fill::bench_workload(128, 128, 1);
    let b = fill::bench_workload(128, 128, 2);
    for workers in [1, 2] {
        let mut ctx = SchedContext::new(params());
        let mut c = Matrix::zeros(128, 128);
        let (caller, rings) = span_rings(|| {
            fmm_sched::execute(
                c.as_mut(),
                a.as_ref(),
                b.as_ref(),
                &plan,
                Variant::Abc,
                Strategy::Dfs,
                &mut ctx,
                workers,
            );
        });
        if workers == 1 {
            assert_eq!(rings, BTreeSet::from([caller]), "one-worker DFS stays on the caller");
        } else {
            assert!(rings.len() <= workers, "DFS on {workers} workers used rings {rings:?}");
        }
        check_product(&c, &a, &b);
    }

    // The engine's GEMM route: a pinned algorithm that does not exist for
    // these dims falls back to GEMM.
    let (m, k, n) = (128, 40, 56);
    let a = fill::bench_workload(m, k, 3);
    let b = fill::bench_workload(k, n, 4);
    for workers in [1, 2] {
        let engine = FmmEngine::<f64>::new(EngineConfig {
            parallel: true,
            workers,
            params: params(),
            arch: ArchSource::Fixed(ArchParams::paper_machine()),
            routing: Routing::Pinned { dims: (9, 9, 9), levels: 1, variant: Variant::Abc },
            ..EngineConfig::default()
        });
        assert_eq!(engine.decision_label(m, k, n), "GEMM");
        let mut c = Matrix::zeros(m, n);
        let (caller, rings) = span_rings(|| engine.multiply(c.as_mut(), a.as_ref(), b.as_ref()));
        if workers == 1 {
            assert_eq!(rings, BTreeSet::from([caller]), "one-worker GEMM stays on the caller");
        } else {
            assert!(rings.len() <= workers, "GEMM on {workers} workers used rings {rings:?}");
        }
        check_product(&c, &a, &b);
    }

    trace::set_enabled(false);
}
