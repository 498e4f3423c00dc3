//! Traced parallel GEMM does not leave a trace ring behind per worker
//! thread: the driver spawns its helper workers per call, and each exited
//! helper's ring passes to the next one.
//!
//! In its own test binary because the trace switch and the pool width are
//! process-global.

use fmm_dense::{fill, norms, Matrix};
use fmm_obs::trace;

#[test]
fn traced_parallel_calls_reuse_the_rings_of_exited_workers() {
    rayon::ThreadPoolBuilder::new().num_threads(2).build_global().unwrap();
    // Two `mc = 96` row blocks, so every call runs two workers.
    let (m, k, n) = (192, 64, 48);
    let a = fill::bench_workload(m, k, 1);
    let b = fill::bench_workload(k, n, 2);
    let mut c = Matrix::zeros(m, n);

    trace::set_enabled(true);
    let rings_before = trace::ring_allocations();
    let events_before = trace::events_recorded();
    for _ in 0..100 {
        fmm_gemm::gemm_parallel(c.as_mut(), a.as_ref(), b.as_ref());
    }
    let rings = trace::ring_allocations() - rings_before;
    let events = trace::events_recorded() - events_before;
    trace::set_enabled(false);

    assert!(events >= 100 * 3, "every call records pack and kernel spans, got {events}");
    assert!(rings <= 8, "100 traced 2-worker calls allocated {rings} trace rings");

    let mut c_ref = Matrix::zeros(m, n);
    fmm_gemm::reference::matmul_into(c_ref.as_mut(), a.as_ref(), b.as_ref());
    for j in 0..n {
        for i in 0..m {
            c_ref.set(i, j, 100.0 * c_ref.get(i, j));
        }
    }
    assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-11);
}
