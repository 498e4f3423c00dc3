//! FMM executors: the Naive, AB, and ABC implementations (paper §4.1).
//!
//! All three variants iterate the `R_L` products of the composed plan
//! (paper eq. (5)); they differ in *where* the linear combinations happen:
//!
//! | variant | `ΣuᵢAᵢ`, `ΣvⱼBⱼ`        | `C_p += w·M_r`                   |
//! |---------|--------------------------|----------------------------------|
//! | Naive   | explicit temporaries     | explicit `M_r` buffer, then axpy |
//! | AB      | folded into packing      | explicit `M_r` buffer, then axpy |
//! | ABC     | folded into packing      | multi-destination micro-kernel   |
//!
//! Problem sizes that are not multiples of the aggregate partition dims are
//! handled by dynamic peeling ([`crate::peeling`]): an FMM core plus rim
//! GEMM calls.

mod ab;
mod abc;
mod arena;
mod common;
mod naive;

pub use arena::{ArenaLayout, ArenaViews, TaskSlots, WorkspaceArena};
pub use common::{gather_terms, DestBlocks, OperandBlocks};

use crate::peeling;
use crate::plan::FmmPlan;
use fmm_dense::{MatMut, MatRef};
use fmm_gemm::{BlockingParams, DestTile, GemmScalar, GemmWorkspace};

/// Which FMM implementation strategy to run (paper §4.1 "Further
/// variations").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Temporaries for operand sums and for `M_r`.
    Naive,
    /// Operand sums folded into packing; `M_r` still materialized.
    Ab,
    /// Operand sums in packing and `M_r` scattered straight into `C`.
    Abc,
}

impl Variant {
    /// All variants, in the paper's order.
    pub const ALL: [Variant; 3] = [Variant::Naive, Variant::Ab, Variant::Abc];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Naive => "Naive",
            Variant::Ab => "AB",
            Variant::Abc => "ABC",
        }
    }

    /// Extra workspace (in `f64` elements, beyond the GEMM packing buffers
    /// that plain GEMM needs too) this variant requires for an `(m, k, n)`
    /// core problem under `plan` — the paper's headline resource claim:
    ///
    /// * ABC: **zero** (linear combinations live in packing and the
    ///   micro-kernel epilogue);
    /// * AB: one `M_r` block (`m/M̃ · n/Ñ`);
    /// * Naive: `M_r` plus the two operand-sum blocks.
    pub fn workspace_elements(
        self,
        plan: &crate::plan::FmmPlan,
        m: usize,
        k: usize,
        n: usize,
    ) -> usize {
        let (mt, kt, nt) = plan.partition_dims();
        let (bm, bk, bn) = (m / mt, k / kt, n / nt);
        match self {
            Variant::Abc => 0,
            Variant::Ab => bm * bn,
            Variant::Naive => bm * bn + bm * bk + bk * bn,
        }
    }
}

/// Reusable state across FMM invocations: blocking parameters, packing
/// workspace, and the preplanned arena holding the temporaries the
/// Naive/AB variants need.
///
/// The arena is sized up-front (explicitly via [`FmmContext::preplan`], or
/// implicitly on the first execution of a shape) and only ever grows, so a
/// long-lived context performs no heap allocation for FMM temporaries once
/// warm — the property the engine's warm-path tests assert through
/// [`FmmContext::arena_grow_count`].
pub struct FmmContext<T = f64> {
    /// Blocking parameters passed to the underlying GEMM driver.
    pub params: BlockingParams,
    pub(crate) ws: GemmWorkspace<T>,
    pub(crate) arena: WorkspaceArena<T>,
    /// Layout of the most recent core execution (`None` before the first,
    /// or when the problem had an empty core).
    last_layout: Option<ArenaLayout>,
    /// Workers each block product's `ic` loop runs on (`0` = the pool
    /// width).
    pub(crate) workers: usize,
}

impl<T: GemmScalar> FmmContext<T> {
    /// Context with the default (paper §5.1) blocking parameters.
    pub fn with_defaults() -> Self {
        Self::new(BlockingParams::default())
    }

    /// Context with explicit blocking parameters. The packing workspace
    /// starts empty and the driver sizes it on first use: it holds the
    /// shared `B̃` panel at any worker count, and `Ã` when one worker runs
    /// (more workers pack `Ã` into buffers from the global pool). Call
    /// [`FmmContext::preplan`] to allocate everything up-front.
    pub fn new(params: BlockingParams) -> Self {
        Self {
            params,
            ws: GemmWorkspace::empty(),
            arena: WorkspaceArena::new(),
            last_layout: None,
            workers: 1,
        }
    }

    /// Size the arena and packing workspace for `(plan, variant)` on an
    /// `(m, k, n)` problem before executing it, so the execution itself
    /// allocates nothing. Idempotent; never shrinks.
    pub fn preplan(&mut self, plan: &FmmPlan, variant: Variant, m: usize, k: usize, n: usize) {
        let (mc, kc, nc) = peeling::peel(m, k, n, plan.partition_dims()).core;
        if mc > 0 && kc > 0 && nc > 0 {
            self.arena.preplan(&ArenaLayout::for_core(variant, plan, mc, kc, nc));
        }
        self.ws.ensure(&self.params.with_register_tile(T::MR, T::NR));
    }

    /// Arena elements occupied by the most recent core execution. Equals
    /// [`Variant::workspace_elements`] for that execution's parameters.
    pub fn fmm_workspace_elements(&self) -> usize {
        self.last_layout.as_ref().map_or(0, ArenaLayout::total_elements)
    }

    /// Layout of the most recent core execution, if any.
    pub fn last_layout(&self) -> Option<&ArenaLayout> {
        self.last_layout.as_ref()
    }

    /// How many times the arena has (re)allocated; flat once warm.
    pub fn arena_grow_count(&self) -> u64 {
        self.arena.grow_count()
    }
}

/// The GEMM half of a context, split out so executors can hold arena views
/// and dispatch block products simultaneously (disjoint borrows of
/// [`FmmContext`]).
pub(crate) struct GemmDispatch<'a, T = f64> {
    params: &'a BlockingParams,
    ws: &'a mut GemmWorkspace<T>,
    workers: usize,
}

impl<T: GemmScalar> GemmDispatch<'_, T> {
    /// Run one block product through the driver on the context's workers.
    pub(crate) fn block_product(
        &mut self,
        dests: &mut [DestTile<'_, T>],
        a_terms: &[(T, MatRef<'_, T>)],
        b_terms: &[(T, MatRef<'_, T>)],
        overwrite: bool,
    ) {
        fmm_gemm::driver::gemm_sums_workers(
            dests,
            a_terms,
            b_terms,
            self.params,
            self.ws,
            self.workers,
            overwrite,
        );
    }
}

/// Execute `C += A · B` with the given plan and variant, sequentially.
///
/// Dimensions are arbitrary; fringes are handled by dynamic peeling.
pub fn fmm_execute<T: GemmScalar>(
    c: MatMut<'_, T>,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    plan: &FmmPlan,
    variant: Variant,
    ctx: &mut FmmContext<T>,
) {
    fmm_execute_parallel(c, a, b, plan, variant, ctx, 1)
}

/// As [`fmm_execute`], but each block product (and each peeled rim) runs
/// the GEMM driver's `ic` loop on `workers` workers (`0` = the pool
/// width; the paper's loop-3 data parallelism); the `R_L` products remain
/// sequential, exactly as in the paper's implementation.
pub fn fmm_execute_parallel<T: GemmScalar>(
    c: MatMut<'_, T>,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    plan: &FmmPlan,
    variant: Variant,
    ctx: &mut FmmContext<T>,
    workers: usize,
) {
    ctx.workers = workers;
    execute_impl(c, a, b, plan, variant, ctx)
}

fn execute_impl<T: GemmScalar>(
    mut c: MatMut<'_, T>,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    plan: &FmmPlan,
    variant: Variant,
    ctx: &mut FmmContext<T>,
) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k, "A/B inner dimension mismatch");
    assert_eq!((c.rows(), c.cols()), (m, n), "C shape mismatch");

    let peel_plan = peeling::peel(m, k, n, plan.partition_dims());
    let (mc, kc, nc) = peel_plan.core;

    // Reset before (maybe) running the core, so a reused context never
    // reports a previous execution's layout when this problem's core is
    // empty (everything handled by rim GEMMs).
    ctx.last_layout = None;
    if mc > 0 && kc > 0 && nc > 0 {
        let a_core = a.submatrix(0, 0, mc, kc);
        let b_core = b.submatrix(0, 0, kc, nc);
        let c_core = c.reborrow().submatrix(0, 0, mc, nc);
        run_core(c_core, a_core, b_core, plan, variant, ctx);
    }

    let FmmContext { params, ws, workers, .. } = ctx;
    let mut gemm = GemmDispatch { params, ws, workers: *workers };
    for rim in &peel_plan.rims {
        let a_rim = a.submatrix(rim.rows.start, rim.inner.start, rim.rows.len(), rim.inner.len());
        let b_rim = b.submatrix(rim.inner.start, rim.cols.start, rim.inner.len(), rim.cols.len());
        let c_rim =
            c.reborrow().submatrix(rim.rows.start, rim.cols.start, rim.rows.len(), rim.cols.len());
        gemm.block_product(
            &mut [DestTile::new(c_rim, T::ONE)],
            &[(T::ONE, a_rim)],
            &[(T::ONE, b_rim)],
            false,
        );
    }
}

fn run_core<T: GemmScalar>(
    c: MatMut<'_, T>,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    plan: &FmmPlan,
    variant: Variant,
    ctx: &mut FmmContext<T>,
) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    let a_blocks = OperandBlocks::new(a, plan.a_grid());
    let b_blocks = OperandBlocks::new(b, plan.b_grid());
    let c_blocks = DestBlocks::new(c, plan.c_grid());
    let layout = ArenaLayout::for_core(variant, plan, m, k, n);
    ctx.last_layout = Some(layout);
    // Split the context into its disjoint halves: arena views for the
    // executor, params + packing workspace for the GEMM dispatch.
    let FmmContext { params, ws, arena, workers, .. } = ctx;
    let views = arena.views(&layout);
    let mut gemm = GemmDispatch { params, ws, workers: *workers };
    match variant {
        Variant::Naive => naive::run(plan, &a_blocks, &b_blocks, &c_blocks, views, &mut gemm),
        Variant::Ab => ab::run(plan, &a_blocks, &b_blocks, &c_blocks, views, &mut gemm),
        Variant::Abc => abc::run(plan, &a_blocks, &b_blocks, &c_blocks, &mut gemm),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::strassen;
    use fmm_dense::{fill, norms, Matrix};

    fn check(m: usize, k: usize, n: usize, plan: &FmmPlan, variant: Variant, workers: usize) {
        let a = fill::bench_workload(m, k, 1);
        let b = fill::bench_workload(k, n, 2);
        let mut c = fill::bench_workload(m, n, 3);
        let c_orig = c.clone();
        let mut ctx = FmmContext::new(BlockingParams::tiny());
        fmm_execute_parallel(c.as_mut(), a.as_ref(), b.as_ref(), plan, variant, &mut ctx, workers);
        let mut c_ref = c_orig;
        fmm_gemm::reference::matmul_into(c_ref.as_mut(), a.as_ref(), b.as_ref());
        let err = norms::max_abs_diff(c.as_ref(), c_ref.as_ref());
        let tol = norms::fmm_tolerance(k, plan.num_levels());
        assert!(
            err < tol,
            "{} {} m={m} k={k} n={n} workers={workers}: err={err} tol={tol}",
            plan.describe(),
            variant.name()
        );
    }

    #[test]
    fn one_level_strassen_all_variants_divisible() {
        let plan = FmmPlan::new(vec![strassen()]);
        for v in Variant::ALL {
            check(16, 16, 16, &plan, v, 1);
        }
    }

    #[test]
    fn one_level_strassen_with_fringes() {
        let plan = FmmPlan::new(vec![strassen()]);
        for v in Variant::ALL {
            check(17, 19, 21, &plan, v, 1);
        }
    }

    #[test]
    fn two_level_strassen_all_variants() {
        let plan = FmmPlan::uniform(strassen(), 2);
        for v in Variant::ALL {
            check(36, 36, 36, &plan, v, 1);
            check(37, 35, 33, &plan, v, 1);
        }
    }

    #[test]
    fn problem_smaller_than_partition_falls_back_to_gemm() {
        let plan = FmmPlan::uniform(strassen(), 2); // needs multiples of 4
        for v in Variant::ALL {
            check(3, 3, 3, &plan, v, 1);
        }
    }

    #[test]
    fn parallel_execution_matches() {
        let plan = FmmPlan::new(vec![strassen()]);
        for v in Variant::ALL {
            for workers in [0, 2] {
                check(32, 24, 40, &plan, v, workers);
            }
        }
    }

    #[test]
    fn rank_k_update_shape() {
        // The paper's motivating shape: large m=n, small k.
        let plan = FmmPlan::new(vec![strassen()]);
        check(48, 8, 48, &plan, Variant::Abc, 1);
    }

    #[test]
    fn variant_names() {
        assert_eq!(Variant::Naive.name(), "Naive");
        assert_eq!(Variant::Ab.name(), "AB");
        assert_eq!(Variant::Abc.name(), "ABC");
    }

    #[test]
    fn workspace_requirements_match_allocations() {
        // The declared workspace sizes must equal what execution actually
        // occupies in the arena (ABC: nothing; AB: M_r; Naive: M_r + T_A +
        // T_B).
        let plan = FmmPlan::new(vec![strassen()]);
        let (m, k, n) = (16, 12, 20);
        assert_eq!(Variant::Abc.workspace_elements(&plan, m, k, n), 0);
        assert_eq!(Variant::Ab.workspace_elements(&plan, m, k, n), 8 * 10);
        assert_eq!(Variant::Naive.workspace_elements(&plan, m, k, n), 8 * 10 + 8 * 6 + 6 * 10);
        for variant in Variant::ALL {
            let a = fill::bench_workload(m, k, 1);
            let b = fill::bench_workload(k, n, 2);
            let mut c = fill::bench_workload(m, n, 3);
            let mut ctx = FmmContext::new(BlockingParams::tiny());
            fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, variant, &mut ctx);
            assert_eq!(
                ctx.fmm_workspace_elements(),
                variant.workspace_elements(&plan, m, k, n),
                "variant {}",
                variant.name()
            );
        }
    }

    #[test]
    fn empty_core_execution_clears_stale_layout() {
        // A reused context must not report the previous execution's
        // workspace when the next problem's core is empty (m < partition
        // dim: everything goes through rim GEMMs).
        let plan = FmmPlan::new(vec![strassen()]);
        let mut ctx = FmmContext::new(BlockingParams::tiny());
        let a = fill::bench_workload(12, 16, 1);
        let b = fill::bench_workload(16, 20, 2);
        let mut c = Matrix::zeros(12, 20);
        fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, Variant::Naive, &mut ctx);
        assert!(ctx.fmm_workspace_elements() > 0);

        let a = fill::bench_workload(1, 8, 3);
        let b = fill::bench_workload(8, 8, 4);
        let mut c = Matrix::zeros(1, 8);
        fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, Variant::Naive, &mut ctx);
        assert!(ctx.last_layout().is_none(), "empty core leaves no layout");
        assert_eq!(ctx.fmm_workspace_elements(), 0);
        let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
        assert!(norms::max_abs_diff(c.as_ref(), c_ref.as_ref()) < 1e-11);
    }

    #[test]
    fn preplanned_context_never_reallocates() {
        // Preplanning sizes the arena up-front; the execution itself (and
        // any repeat of the same or a smaller shape) must not grow it.
        let plan = FmmPlan::new(vec![strassen()]);
        let (m, k, n) = (33, 29, 41);
        let mut ctx = FmmContext::new(BlockingParams::tiny());
        ctx.preplan(&plan, Variant::Naive, m, k, n);
        let grows = ctx.arena_grow_count();
        assert_eq!(grows, 1, "preplan allocates exactly once");
        let a = fill::bench_workload(m, k, 1);
        let b = fill::bench_workload(k, n, 2);
        for _ in 0..3 {
            let mut c = fill::bench_workload(m, n, 3);
            fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, Variant::Naive, &mut ctx);
            fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, Variant::Ab, &mut ctx);
            fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, Variant::Abc, &mut ctx);
        }
        assert_eq!(ctx.arena_grow_count(), grows, "warm executions allocate nothing");
    }
}
