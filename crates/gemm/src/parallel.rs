//! The one fan-out every parallel path runs on: the GEMM driver's `ic`
//! loop (the paper's loop-3 data parallelism, §5.1), the scheduler's BFS
//! and hybrid tasks, and the engine's batches.
//!
//! [`fan_out`] runs on `std::thread::scope`: the caller is one worker and
//! the rest are scoped threads spawned per call. Workers claim indices
//! from a shared atomic counter, so load imbalance between tasks (FMM
//! products with different numbers of operand terms, a ragged last `ic`
//! block) spreads evenly, unlike static chunking.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Gauge counting workers currently inside a [`fan_out`]: the live
/// busy-worker view exported through the process-global obs registry.
fn busy_gauge() -> &'static Arc<fmm_obs::Gauge> {
    static G: OnceLock<Arc<fmm_obs::Gauge>> = OnceLock::new();
    G.get_or_init(|| fmm_obs::global().gauge("fmm_sched_workers_busy"))
}

/// Holds one unit of the busy gauge; released on drop, on the unwind
/// path too.
struct Busy(&'static fmm_obs::Gauge);

impl Busy {
    fn enter() -> Self {
        let gauge = busy_gauge();
        gauge.add(1);
        Busy(gauge)
    }
}

impl Drop for Busy {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// The worker count a parallel call really runs on. `0` means the pool
/// width (`rayon::current_num_threads`); explicit counts are clamped to
/// it, since that is all the parallelism the fan-out may use. A count of
/// one never reads the pool width.
pub fn resolve_workers(workers: usize) -> usize {
    if workers == 1 {
        return 1;
    }
    let pool = rayon::current_num_threads();
    if workers == 0 {
        pool
    } else {
        workers.min(pool)
    }
}

/// Run `body` for every index in `0..tasks` on at most
/// [`resolve_workers`]`(workers)` workers, each with a private `init()`
/// state. One worker runs inline on the caller; more run the caller plus
/// scoped threads, joined before the call returns (which also hands
/// their trace rings on, see `fmm_obs::trace`). A panic in any task
/// reaches the caller once every worker has stopped.
pub fn fan_out<S, I, F>(tasks: usize, workers: usize, init: I, body: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    if tasks == 0 {
        return;
    }
    let workers = resolve_workers(workers).min(tasks);
    let next = AtomicUsize::new(0);
    let work = || {
        let _busy = Busy::enter();
        let mut state = init();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            body(&mut state, i);
        }
    };
    if workers == 1 {
        work();
        return;
    }
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        work();
        for helper in helpers {
            if let Err(payload) = helper.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn fan_out_runs_every_index_exactly_once() {
        for workers in [0, 1, 3, 8] {
            let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
            // Relaxed everywhere: `fan_out` joins its workers before
            // returning, so the loads below are ordered by the join.
            fan_out(
                100,
                workers,
                || (),
                |(), i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                },
            );
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "workers={workers}");
        }
    }

    #[test]
    fn fan_out_gives_each_worker_its_own_state() {
        let inits = AtomicU64::new(0);
        let total = AtomicU64::new(0);
        fan_out(
            64,
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            },
            |seen: &mut Vec<usize>, i| {
                // A shared state would let one worker see another's index.
                assert!(seen.iter().all(|&j| j < i), "indices are claimed in order");
                seen.push(i);
                total.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(total.load(Ordering::Relaxed), 64);
        let inits = inits.load(Ordering::Relaxed);
        assert!((1..=4).contains(&inits), "one init per worker, got {inits}");
    }

    #[test]
    fn fan_out_of_zero_tasks_is_a_noop() {
        fan_out(0, 4, || panic!("no tasks, no workers"), |(), _| panic!("no tasks, no calls"));
    }

    #[test]
    fn fan_out_task_panic_reaches_the_caller() {
        let ran = AtomicU64::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fan_out(
                16,
                4,
                || (),
                |(), i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 5 {
                        panic!("task failure");
                    }
                },
            );
        }));
        let payload = result.expect_err("the task panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task failure"));
        assert!(ran.load(Ordering::Relaxed) >= 6);
    }

    #[test]
    fn one_worker_never_leaves_the_calling_thread() {
        let caller = std::thread::current().id();
        fan_out(10, 1, || (), |(), _| assert_eq!(std::thread::current().id(), caller));
    }
}
