//! Small helpers shared by the workloads: a seeded generator, order
//! statistics, the counting allocator, process probes and the result
//! check.

use fmm_dense::{Matrix, Scalar};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// SplitMix64: every shape, order and operand seed of a run is drawn from
/// one of these, seeded from `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Mean of the middle half of `values` (all of them when fewer than
/// four); 0 when empty. Unlike the median it moves smoothly as the share
/// of two clusters of values changes, and unlike the mean it ignores the
/// slowest and fastest quarter.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let middle = &v[v.len() / 4..v.len() - v.len() / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Nearest-rank percentile `p` in `[0, 1]` of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

/// `2mkn`, the flop count the paper's effective GFLOP/s is defined over.
pub fn flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

/// The benchmark's global allocator: the system allocator, counting the
/// heap bytes live in the process and their high-water mark. Unlike the
/// resident set, the count does not depend on what the C allocator keeps
/// mapped after a free or on which pages were touched yet, so the same
/// allocations always read the same.
pub struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn allocated(size: usize) {
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the caller's; the counters are
// plain atomics and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            allocated(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            allocated(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under the caller's contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded under the caller's contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            allocated(new_size);
        }
        new
    }
}

/// Peak heap memory of the program under test, in MiB: the high-water
/// mark of live heap bytes less what was live at a baseline taken before
/// the program's engines or daemon existed, and less the benchmark's own
/// matrices allocated since.
///
/// Around each measured stretch, [`Footprint::begin`] resets the
/// high-water mark to what is live (so allocations the benchmark made and
/// freed beforehand, such as the reference products' packing buffers, do
/// not count) and [`Footprint::end`] reads it. The result is the largest
/// over stretches.
pub struct Footprint {
    base: usize,
    peak: usize,
}

impl Footprint {
    pub fn new() -> Self {
        Footprint { base: LIVE_BYTES.load(Ordering::Relaxed), peak: 0 }
    }

    pub fn begin(&self) {
        PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Close a stretch during which `data_bytes` of benchmark matrices
    /// allocated after the baseline were live.
    pub fn end(&mut self, data_bytes: usize) {
        let peak = PEAK_BYTES.load(Ordering::Relaxed);
        self.peak = self.peak.max(peak.saturating_sub(self.base + data_bytes));
    }

    pub fn peak_mb(&self) -> f64 {
        self.peak as f64 / (1 << 20) as f64
    }
}

/// Pin glibc's malloc thresholds where its dynamic policy ends up in a
/// long-running process: blocks up to 32 MiB come from the heap, and the
/// heap keeps up to 512 MiB of freed memory instead of returning it to the
/// kernel. Left dynamic, the thresholds start at 128 KiB and rise as large
/// blocks are freed, so the same set-up paid a varying number of page
/// faults from one repetition to the next: 65–160 ms on a shared 2-vCPU
/// KVM guest, against 70–85 ms once pinned (first two repetitions aside).
pub fn pin_malloc_thresholds() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` takes two integers and only changes the C
    // allocator's tuning; it is called before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 512 << 20);
    }
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`: time the
/// hypervisor gave the guest's vCPUs to someone else.
pub fn cpu_steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn gettid() -> i32;
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

/// Give the calling thread nice −10, so it preempts ordinary threads when
/// it wakes. Best effort: without the privilege the thread keeps its
/// priority.
pub fn raise_thread_priority() {
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: both calls take and return plain integers; on Linux
    // `PRIO_PROCESS` with a thread id changes only that thread.
    unsafe {
        let tid = gettid();
        setpriority(PRIO_PROCESS, tid as u32, -10);
    }
}

/// Block until one of `fds` (at most eight) is readable or `timeout` has
/// passed; a mask with bit `i` set when `fds[i]` is readable. Unlike a
/// socket read timeout, which the kernel rounds to scheduler ticks,
/// `ppoll` sleeps on a high-resolution timer, so an open-loop sender
/// waiting for replies still wakes on schedule.
pub fn wait_readable(fds: &[std::os::fd::RawFd], timeout: std::time::Duration) -> u64 {
    const POLLIN: i16 = 1;
    let mut pfds = [PollFd { fd: -1, events: POLLIN, revents: 0 }; 8];
    let pfds = &mut pfds[..fds.len()];
    for (p, &fd) in pfds.iter_mut().zip(fds) {
        p.fd = fd;
    }
    let ts = Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: timeout.subsec_nanos() as i64 };
    // SAFETY: `pfds` holds `pfds.len()` valid, writable `struct pollfd`s;
    // `ts` is a valid `struct timespec`; a null signal mask leaves the
    // thread's mask unchanged.
    let rc = unsafe { ppoll(pfds.as_mut_ptr(), pfds.len() as u64, &ts, std::ptr::null()) };
    if rc <= 0 {
        return 0;
    }
    pfds.iter().enumerate().filter(|(_, p)| p.revents != 0).fold(0, |mask, (i, _)| mask | 1 << i)
}

/// CPU time consumed by the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on x86-64 and aarch64 Linux) and the clock id is a constant
    // every Linux kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Whether `c` matches the reference product `c_ref` of an inner
/// dimension `k` within the accuracy bound every engine route is held to
/// (two FMM levels). Returns the relative error either way, measured as
/// `fmm_dense::norms::rel_error` does (`‖c − c_ref‖_max / max(1,
/// ‖c_ref‖_max)`) but in one pass over both matrices, where that takes
/// three; a result with a NaN or an infinity fails outright (the library's
/// error norm skips NaNs).
pub fn check<T: Scalar>(c: &Matrix<T>, c_ref: &Matrix<T>, k: usize) -> Result<f64, f64> {
    if (c.rows(), c.cols()) != (c_ref.rows(), c_ref.cols()) {
        return Err(f64::INFINITY);
    }
    fn column<T: Scalar>(m: &Matrix<T>, j: usize) -> &[T] {
        &m.raw()[j * m.leading_dim()..][..m.rows()]
    }
    let (mut diff, mut scale, mut finite) = (0.0_f64, 0.0_f64, true);
    for j in 0..c.cols() {
        for (&v, &r) in column(c, j).iter().zip(column(c_ref, j)) {
            let (v, r) = (v.to_f64(), r.to_f64());
            finite &= v.is_finite();
            diff = diff.max((v - r).abs());
            scale = scale.max(r.abs());
        }
    }
    if !finite {
        return Err(f64::INFINITY);
    }
    let err = diff / scale.max(1.0);
    if err <= T::accuracy_bound(k, 2) {
        Ok(err)
    } else {
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_dense::{fill, norms};

    #[test]
    fn check_catches_a_corrupted_result() {
        let a = fill::bench_workload(40, 30, 1);
        let b = fill::bench_workload(30, 20, 2);
        let mut c_ref = Matrix::zeros(40, 20);
        fmm_gemm::gemm(c_ref.as_mut(), a.as_ref(), b.as_ref());
        let mut c = Matrix::zeros(40, 20);
        fmm_gemm::gemm(c.as_mut(), a.as_ref(), b.as_ref());
        assert!(check(&c, &c_ref, 30).is_ok());

        c.set(7, 3, c.get(7, 3) + 1e-3);
        let err = norms::rel_error(c.as_ref(), c_ref.as_ref());
        assert_eq!(check(&c, &c_ref, 30), Err(err), "the library's error measure");
        c.set(7, 3, f64::NAN);
        assert!(check(&c, &c_ref, 30).is_err());
        c.set(7, 3, f64::INFINITY);
        assert!(check(&c, &c_ref, 30).is_err());
        let short = Matrix::<f64>::zeros(40, 19);
        assert!(check(&short, &c_ref, 30).is_err());
    }

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(interquartile_mean(&[9.0, 1.0, 2.0, 3.0, 100.0, 4.0, 0.0, 5.0]), 3.5);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
