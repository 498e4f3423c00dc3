//! BLIS / GotoBLAS-style blocked matrix multiplication substrate.
//!
//! This crate reimplements the GEMM structure of Figure 1 (left) of the
//! reproduced paper — the five loops around a register-blocked micro-kernel,
//! with `A` packed into `mC x kC` blocks of `mR`-row micro-panels and `B`
//! packed into `kC x nC` row panels of `nR`-column micro-panels — plus the
//! two generalizations of Figure 1 (right) that make Strassen-like fast
//! matrix multiplication practical:
//!
//! * **packing with linear combinations** ([`pack::pack_a_sum`],
//!   [`pack::pack_b_sum`]): the packed buffer receives `sum_i gamma_i * X_i`
//!   of several same-shape submatrices, at no extra memory traffic;
//! * **multi-destination micro-kernel epilogue** ([`driver::gemm_sums`]):
//!   the register tile is scattered with per-destination coefficients into
//!   several submatrices of `C`, avoiding temporaries for the intermediate
//!   products `M_r`.
//!
//! Plain GEMM ([`gemm`], [`gemm_parallel`]) is the special case with one term
//! per operand and one destination; the FMM executors in `fmm-core` invoke
//! the general driver ([`driver::gemm_sums_workers`]) directly. There is
//! one driver, whatever the worker count.
//!
//! The whole substrate is generic over the packed element type through
//! [`kernel::GemmScalar`] (`f64` default, `f32` supported): the trait owns
//! the register tile (`8x4` doubles, `16x4` singles — same eight 256-bit
//! accumulators, double the lanes), the runtime-selected micro-kernel, and
//! a per-dtype global packing pool. Callers pass one `BlockingParams`; the
//! driver swaps in the kernel's register tile via
//! [`BlockingParams::with_register_tile`] while keeping the cache-level
//! blocking as configured.
//!
//! Parallelism mirrors the paper's OpenMP scheme: the third loop around the
//! micro-kernel (the `ic` loop) is data-parallel over a bounded number of
//! workers. The fan-out it runs on, [`fan_out`], is the one every parallel
//! path in the workspace uses (the scheduler's tasks and the engine's
//! batches too); a worker count of `0` means the pool width
//! (`rayon::current_num_threads`), and explicit counts are clamped to it
//! ([`resolve_workers`]).
//!
//! # Example
//!
//! ```
//! use fmm_dense::{fill, Matrix, norms};
//!
//! let a = fill::bench_workload(64, 48, 1);
//! let b = fill::bench_workload(48, 80, 2);
//! let mut c = Matrix::zeros(64, 80);
//! fmm_gemm::gemm(c.as_mut(), a.as_ref(), b.as_ref());
//!
//! let mut c_ref = Matrix::zeros(64, 80);
//! fmm_gemm::reference::matmul_into(c_ref.as_mut(), a.as_ref(), b.as_ref());
//! assert!(fmm_dense::norms::max_abs_diff(c.as_ref(), c_ref.as_ref()) < 1e-12);
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]

pub mod driver;
pub mod kernel;
mod obs_hooks;
pub mod pack;
pub mod parallel;
pub mod params;
pub mod reference;
pub mod workspace;

pub use driver::{gemm_sums, DestTile};
pub use kernel::{GemmScalar, MicroKernelFn};
pub use parallel::{fan_out, resolve_workers};
pub use params::BlockingParams;
pub use workspace::{GemmWorkspace, PooledWorkspace, WorkspacePool};

use fmm_dense::{MatMut, MatRef};

/// `C += A * B`, sequential, with default blocking parameters, generic
/// over the [`GemmScalar`] element (`f64` or `f32`). Packing buffers come
/// from the dtype's global [`WorkspacePool`], so repeated calls do not
/// allocate.
pub fn gemm<T: GemmScalar>(c: MatMut<'_, T>, a: MatRef<'_, T>, b: MatRef<'_, T>) {
    gemm_with_params(c, a, b, &BlockingParams::default())
}

/// As [`gemm`], with explicit blocking parameters — e.g.
/// [`BlockingParams::for_workers`]-shrunk panels when several sequential
/// GEMMs run co-resident on one shared cache.
pub fn gemm_with_params<T: GemmScalar>(
    c: MatMut<'_, T>,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    params: &BlockingParams,
) {
    gemm_on_workers(c, a, b, params, 1)
}

/// `C += A * B`, parallel over the `ic` loop on the whole pool.
pub fn gemm_parallel<T: GemmScalar>(c: MatMut<'_, T>, a: MatRef<'_, T>, b: MatRef<'_, T>) {
    gemm_on_workers(c, a, b, &BlockingParams::default(), 0)
}

/// `C += A * B` with the `ic` loop on `workers` workers (`0` = the pool
/// width). The shared `B̃` (and, for one worker, `Ã`) comes from the
/// dtype's global [`WorkspacePool`].
pub fn gemm_on_workers<T: GemmScalar>(
    c: MatMut<'_, T>,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    params: &BlockingParams,
    workers: usize,
) {
    driver::gemm_sums_workers(
        &mut [DestTile::new(c, T::ONE)],
        &[(T::ONE, a)],
        &[(T::ONE, b)],
        params,
        &mut T::global_pool().acquire(params),
        workers,
        false,
    );
}
