//! Reusable packing workspace and the process-wide workspace pool.
//!
//! [`GemmWorkspace`] is the pair of packing buffers one GEMM invocation
//! needs; it is `Send`, so a workspace can be created on one thread and
//! used on another. [`WorkspacePool`] recycles workspaces across calls and
//! threads: `acquire` pops a pooled workspace (or allocates on first use),
//! the returned guard hands it back on drop. After warmup — one workspace
//! per concurrently-active caller — acquisition is allocation-free, which
//! [`WorkspacePool::allocation_count`] makes testable.

use crate::kernel::GemmScalar;
use crate::params::BlockingParams;
use fmm_dense::{AlignedBuf, Scalar};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// The pair of packing buffers (`Ã`, `B̃`) a GEMM invocation needs,
/// generic over the packed element type (default `f64`).
///
/// Allocated once and reused across calls (and across the `R_L` products of
/// an FMM execution) so that buffer allocation never appears in the timed
/// region — mirroring BLIS, where the packing buffers are long-lived.
pub struct GemmWorkspace<T = f64> {
    /// Packed `mc x kc` block of (a linear combination of) `A`.
    pub abuf: AlignedBuf<T>,
    /// Packed `kc x nc` panel of (a linear combination of) `B`.
    pub bbuf: AlignedBuf<T>,
}

impl<T: Scalar> GemmWorkspace<T> {
    /// Allocate buffers sized for `params`.
    pub fn for_params(params: &BlockingParams) -> Self {
        Self {
            abuf: AlignedBuf::zeroed(params.packed_a_len()),
            bbuf: AlignedBuf::zeroed(params.packed_b_len()),
        }
    }

    /// Zero-capacity workspace; the driver's [`GemmWorkspace::ensure`] call
    /// sizes it on first use. Lets holders that may never pack defer the
    /// multi-megabyte buffers.
    pub fn empty() -> Self {
        Self { abuf: AlignedBuf::zeroed(0), bbuf: AlignedBuf::zeroed(0) }
    }

    /// Grow the buffers if `params` needs more space (never shrinks).
    pub fn ensure(&mut self, params: &BlockingParams) {
        self.abuf.ensure_capacity(params.packed_a_len());
        self.bbuf.ensure_capacity(params.packed_b_len());
    }
}

impl<T: Scalar> std::fmt::Debug for GemmWorkspace<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GemmWorkspace(a={}, b={})", self.abuf.len(), self.bbuf.len())
    }
}

// One engine serves concurrent callers by moving workspaces between
// threads; this must hold for the pool to be sound (and it does: the
// buffers are exclusively-owned heap allocations, like `Vec<f64>`).
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<GemmWorkspace<f64>>();
    assert_send::<GemmWorkspace<f32>>();
};

/// Upper bound on idle pooled workspaces; returns beyond it are dropped.
/// Bounds idle memory at roughly `PARKED_MAX x` one workspace (~9 MB each
/// with default blocking parameters) without limiting concurrency.
const PARKED_MAX: usize = 64;

/// A recycling pool of [`GemmWorkspace`]s shared by every caller that does
/// not manage its own workspace explicitly. One pool per scalar type: the
/// process-wide instances live behind [`crate::kernel::GemmScalar::global_pool`].
pub struct WorkspacePool<T = f64> {
    parked: Mutex<Vec<GemmWorkspace<T>>>,
    allocations: AtomicU64,
}

impl<T: Scalar> WorkspacePool<T> {
    /// An empty pool.
    pub const fn new() -> Self {
        Self { parked: Mutex::new(Vec::new()), allocations: AtomicU64::new(0) }
    }

    /// Number of fresh workspace allocations (never decreases; flat once
    /// the pool holds one workspace per concurrently-active caller).
    pub fn allocation_count(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }

    /// Number of idle workspaces currently parked.
    pub fn parked_count(&self) -> usize {
        self.parked.lock().len()
    }

    fn release(&self, ws: GemmWorkspace<T>) {
        let mut parked = self.parked.lock();
        if parked.len() < PARKED_MAX {
            parked.push(ws);
        }
    }
}

impl<T: GemmScalar> WorkspacePool<T> {
    /// Check out a workspace sized for `params` *at this dtype's register
    /// tile* — the same [`BlockingParams::with_register_tile`] adjustment
    /// the driver applies, so a buffer reserved here never has to grow
    /// inside the GEMM call (e.g. inside a prewarmed parallel task). Pops
    /// a pooled workspace or allocates on first use; the guard returns it
    /// to the pool when dropped.
    pub fn acquire(&self, params: &BlockingParams) -> PooledWorkspace<'_, T> {
        let params = params.with_register_tile(T::MR, T::NR);
        let ws = match self.parked.lock().pop() {
            Some(mut ws) => {
                ws.ensure(&params);
                ws
            }
            None => {
                self.allocations.fetch_add(1, Ordering::Relaxed);
                GemmWorkspace::for_params(&params)
            }
        };
        PooledWorkspace { ws: Some(ws), pool: self }
    }
}

impl WorkspacePool<f64> {
    /// The process-wide `f64` pool used by [`crate::gemm`] and the parallel
    /// driver's per-worker packing buffers. Generic code should reach the
    /// per-dtype pool through [`crate::kernel::GemmScalar::global_pool`].
    pub fn global() -> &'static WorkspacePool<f64> {
        <f64 as crate::kernel::GemmScalar>::global_pool()
    }
}

impl<T: Scalar> Default for WorkspacePool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> std::fmt::Debug for WorkspacePool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WorkspacePool(parked={}, allocations={})",
            self.parked_count(),
            self.allocation_count()
        )
    }
}

/// An acquired workspace; derefs to [`GemmWorkspace`] and returns itself to
/// the pool on drop.
pub struct PooledWorkspace<'a, T: Scalar = f64> {
    ws: Option<GemmWorkspace<T>>,
    pool: &'a WorkspacePool<T>,
}

impl<T: Scalar> std::ops::Deref for PooledWorkspace<'_, T> {
    type Target = GemmWorkspace<T>;
    fn deref(&self) -> &GemmWorkspace<T> {
        self.ws.as_ref().expect("present until drop")
    }
}

impl<T: Scalar> std::ops::DerefMut for PooledWorkspace<'_, T> {
    fn deref_mut(&mut self) -> &mut GemmWorkspace<T> {
        self.ws.as_mut().expect("present until drop")
    }
}

impl<T: Scalar> Drop for PooledWorkspace<'_, T> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            self.pool.release(ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_from_params() {
        let p = BlockingParams::tiny();
        let ws = GemmWorkspace::<f64>::for_params(&p);
        assert_eq!(ws.abuf.len(), p.packed_a_len());
        assert_eq!(ws.bbuf.len(), p.packed_b_len());
    }

    #[test]
    fn ensure_grows_for_larger_params() {
        let mut ws = GemmWorkspace::<f64>::for_params(&BlockingParams::tiny());
        let big = BlockingParams::default();
        ws.ensure(&big);
        assert!(ws.abuf.len() >= big.packed_a_len());
        assert!(ws.bbuf.len() >= big.packed_b_len());
    }

    #[test]
    fn pool_recycles_instead_of_allocating() {
        let pool = WorkspacePool::<f64>::new();
        let p = BlockingParams::tiny();
        {
            let _a = pool.acquire(&p);
            let _b = pool.acquire(&p);
            assert_eq!(pool.allocation_count(), 2, "two concurrent users");
        }
        assert_eq!(pool.parked_count(), 2);
        for _ in 0..10 {
            let _ws = pool.acquire(&p);
        }
        assert_eq!(pool.allocation_count(), 2, "serial reuse allocates nothing");
    }

    #[test]
    fn pool_grows_pooled_workspace_for_larger_params() {
        let pool = WorkspacePool::<f64>::new();
        drop(pool.acquire(&BlockingParams::tiny()));
        let big = BlockingParams::default();
        let ws = pool.acquire(&big);
        assert!(ws.abuf.len() >= big.packed_a_len());
        assert!(ws.bbuf.len() >= big.packed_b_len());
    }

    #[test]
    fn pool_is_safe_under_contention() {
        let pool = WorkspacePool::<f64>::new();
        let p = BlockingParams::tiny();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let mut ws = pool.acquire(&p);
                        ws.abuf[0] = 1.0;
                    }
                });
            }
        });
        assert!(pool.allocation_count() <= 8, "at most one allocation per thread");
        assert!(pool.parked_count() <= 8);
    }
}
