//! Empirical exploration: time the model's top candidates for real and
//! remember the measured winner.
//!
//! The model's job is to prune, not to decide: fringe effects, cache
//! conflicts, and scheduler overheads are deliberately outside it (paper
//! §4.4 measures the top-2 predictions for exactly this reason). The
//! [`Tuner`] generalizes that protocol — take the top-K `(plan, variant[,
//! strategy])` candidates plus plain GEMM from the ranking, execute each
//! through a pooled [`SchedContext`] under a warmup/rep/outlier
//! [`TunePolicy`], and record the fastest *measured* candidate in the
//! [`TuneStore`] under the problem's [`ShapeClass`].

use crate::store::{kernel_fingerprint, ShapeClass, TuneStore, TunedChoice, TunedDecision};
use fmm_core::registry::Registry;
use fmm_core::{FmmPlan, Strategy, Variant};
use fmm_dense::{fill, norms, Matrix};
use fmm_gemm::{BlockingParams, GemmScalar};
use fmm_model::{rank_candidates, rank_scheduled, ArchParams, Impl};
use fmm_sched::SchedContext;
use std::sync::Arc;
use std::time::Instant;

/// Measurement discipline for one candidate timing.
#[derive(Clone, Copy, Debug)]
pub struct TunePolicy {
    /// Candidates taken from the top of the model ranking (GEMM included).
    pub top_k: usize,
    /// Untimed executions before sampling (page in buffers, size arenas).
    pub warmup: usize,
    /// Timed samples per candidate.
    pub reps: usize,
    /// Fraction of the *slowest* samples discarded as outliers before the
    /// estimate (preemption only ever adds time); the estimate is the
    /// mean of the kept samples.
    pub trim: f64,
    /// Check the winner's result against an exact blocked GEMM at the
    /// dtype's accuracy bound before storing it — a mistimed candidate
    /// must never be remembered, a wrong one must never exist.
    pub verify: bool,
}

impl Default for TunePolicy {
    fn default() -> Self {
        Self { top_k: 4, warmup: 1, reps: 3, trim: 0.5, verify: true }
    }
}

/// One timed candidate in an [`ExploreOutcome`].
#[derive(Clone, Debug)]
pub struct CandidateTiming {
    /// Display label, e.g. `"<2,2,2>+<2,2,2> ABC"` or `"GEMM"`.
    pub label: String,
    /// Robust per-call seconds under the policy.
    pub secs: f64,
    /// Effective GFLOP/s at the explored shape.
    pub gflops: f64,
    /// The model's predicted seconds (what ranked it into the top-K).
    pub predicted_secs: f64,
}

/// What one [`Tuner::explore`] call measured and stored.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// Explored problem shape.
    pub shape: (usize, usize, usize),
    /// The shape class the decision was stored under.
    pub class: ShapeClass,
    /// Execution dtype name.
    pub dtype: &'static str,
    /// Worker count the decision applies to.
    pub workers: usize,
    /// Label of the measured winner.
    pub winner: String,
    /// Winner's effective GFLOP/s.
    pub winner_gflops: f64,
    /// Label of the model's own first pick (the empirical winner may
    /// differ — that difference is the whole point of tuning).
    pub model_pick: String,
    /// Every timed candidate, fastest first.
    pub candidates: Vec<CandidateTiming>,
    /// Winner-vs-reference relative error when the policy verified.
    pub verified_error: Option<f64>,
}

/// A reusable empirical autotuner over one registry and blocking-parameter
/// set. See the module docs.
pub struct Tuner {
    /// Measurement discipline.
    pub policy: TunePolicy,
    params: BlockingParams,
    registry: Arc<Registry>,
    /// Worker count candidates are ranked and executed for (`0` = the
    /// pool width). `1` explores the sequential engine's world.
    workers: usize,
    max_levels: usize,
}

/// A ranked candidate, unified across the sequential and scheduled forms.
struct RankedCandidate {
    plan: Option<Arc<FmmPlan>>,
    variant: Option<Variant>,
    strategy: Strategy,
    predicted_secs: f64,
    label: String,
}

impl Tuner {
    /// Tuner over the standard registry and default blocking parameters.
    pub fn new(policy: TunePolicy, workers: usize, max_levels: usize) -> Self {
        Self::with_registry(
            policy,
            BlockingParams::default(),
            Registry::shared(),
            workers,
            max_levels,
        )
    }

    /// Tuner over an explicit registry and parameter set.
    pub fn with_registry(
        policy: TunePolicy,
        params: BlockingParams,
        registry: Arc<Registry>,
        workers: usize,
        max_levels: usize,
    ) -> Self {
        assert!(max_levels >= 1, "max_levels must be at least 1");
        Self { policy, params, registry, workers, max_levels }
    }

    /// Tuner for sequential (one-worker) execution — what the default
    /// process-global engines serve.
    pub fn sequential() -> Self {
        Self::new(TunePolicy::default(), 1, 2)
    }

    /// Worker count decisions are keyed under: the configured count, with
    /// `0` resolved to (and explicit counts clamped to) the pool width,
    /// exactly as the engine and scheduler resolve it.
    pub fn effective_workers(&self) -> usize {
        fmm_gemm::resolve_workers(self.workers)
    }

    /// Time the top-K model candidates for `(m, k, n)` and record the
    /// measured winner in `store` under the shape's class. `arch` should
    /// be host-calibrated ([`crate::host_arch`]); its memory terms are
    /// charged at `T`'s element width before ranking.
    pub fn explore<T: GemmScalar>(
        &self,
        store: &mut TuneStore,
        arch: &ArchParams,
        m: usize,
        k: usize,
        n: usize,
    ) -> ExploreOutcome {
        assert!(m > 0 && k > 0 && n > 0, "explore requires a non-degenerate shape");
        let workers = self.effective_workers();
        let arch = arch.with_elem_bytes(std::mem::size_of::<T>());
        let ranked = self.ranked_candidates(m, k, n, &arch, workers);
        let model_pick = ranked[0].label.clone();
        let top: Vec<&RankedCandidate> = ranked.iter().take(self.policy.top_k.max(1)).collect();

        let a = fill::bench_workload_t::<T>(m, k, 1);
        let b = fill::bench_workload_t::<T>(k, n, 2);
        let mut c = Matrix::<T>::zeros(m, n);
        // One pooled context serves every candidate and rep: arenas and
        // packing buffers grow to the high-water mark once, so the timed
        // region is the same warm path the engine serves.
        let mut ctx = SchedContext::<T>::new(self.params);

        let mut timings: Vec<(usize, CandidateTiming)> = Vec::new();
        for (i, cand) in top.iter().enumerate() {
            let secs = self.time_candidate(cand, &mut c, &a, &b, &mut ctx, workers);
            timings.push((
                i,
                CandidateTiming {
                    label: cand.label.clone(),
                    secs,
                    gflops: fmm_core::counts::effective_gflops(m, k, n, secs),
                    predicted_secs: cand.predicted_secs,
                },
            ));
        }
        timings.sort_by(|x, y| x.1.secs.partial_cmp(&y.1.secs).expect("finite timings"));
        let (winner_idx, winner_timing) = (timings[0].0, timings[0].1.clone());
        let winner = top[winner_idx];

        let verified_error = self.policy.verify.then(|| {
            let err = self.verify_candidate::<T>(winner, m, k, n, workers);
            let levels = winner.plan.as_ref().map_or(1, |p| p.num_levels());
            let bound = T::accuracy_bound(k, levels);
            assert!(
                err < bound,
                "tuned winner {} fails verification: rel error {err:.3e} >= bound {bound:.3e}",
                winner.label
            );
            err
        });

        let class = ShapeClass::of(m, k, n);
        let choice = match (&winner.plan, winner.variant) {
            (Some(plan), Some(variant)) => TunedChoice::Fmm {
                dims: plan.first_level().dims(),
                levels: plan.num_levels(),
                variant,
                strategy: winner.strategy,
            },
            _ => TunedChoice::Gemm,
        };
        store.set_decision(
            class,
            T::NAME,
            workers,
            &kernel_fingerprint::<T>(),
            TunedDecision { choice, gflops: winner_timing.gflops },
        );

        ExploreOutcome {
            shape: (m, k, n),
            class,
            dtype: T::NAME,
            workers,
            winner: winner_timing.label.clone(),
            winner_gflops: winner_timing.gflops,
            model_pick,
            candidates: timings.into_iter().map(|(_, t)| t).collect(),
            verified_error,
        }
    }

    /// The model ranking this tuner prunes with: every registry algorithm
    /// at 1..=`max_levels`, plus plain GEMM, sequential or scheduled form
    /// by worker count.
    fn ranked_candidates(
        &self,
        m: usize,
        k: usize,
        n: usize,
        arch: &ArchParams,
        workers: usize,
    ) -> Vec<RankedCandidate> {
        let mut plans = Vec::new();
        for (_, algo) in self.registry.paper_rows() {
            for levels in 1..=self.max_levels {
                plans.push(Arc::new(FmmPlan::from_arcs(vec![algo.clone(); levels])));
            }
        }
        if workers > 1 {
            rank_scheduled(m, k, n, &plans, &Impl::FMM_VARIANTS, arch, workers, true)
                .into_iter()
                .map(|c| RankedCandidate {
                    label: c.describe(),
                    plan: c.plan.clone(),
                    variant: c.impl_.to_variant(),
                    strategy: c.strategy,
                    predicted_secs: c.prediction.total,
                })
                .collect()
        } else {
            rank_candidates(m, k, n, &plans, &Impl::FMM_VARIANTS, arch, true)
                .into_iter()
                .map(|c| RankedCandidate {
                    label: c.describe(),
                    plan: c.plan.clone(),
                    variant: c.impl_.to_variant(),
                    strategy: Strategy::Dfs,
                    predicted_secs: c.prediction.total,
                })
                .collect()
        }
    }

    /// Execute one candidate once: the single dispatch point shared by
    /// timing and verification, so the tuner can never time one code path
    /// and verify a different one.
    fn run_candidate<T: GemmScalar>(
        &self,
        cand: &RankedCandidate,
        c: &mut Matrix<T>,
        a: &Matrix<T>,
        b: &Matrix<T>,
        ctx: &mut SchedContext<T>,
        workers: usize,
    ) {
        match (&cand.plan, cand.variant) {
            (Some(plan), Some(variant)) => {
                fmm_sched::execute(
                    c.as_mut(),
                    a.as_ref(),
                    b.as_ref(),
                    plan,
                    variant,
                    cand.strategy,
                    ctx,
                    workers,
                );
            }
            _ => {
                fmm_gemm::gemm_on_workers(c.as_mut(), a.as_ref(), b.as_ref(), &self.params, workers)
            }
        }
    }

    /// Warmup + sampled timing of one candidate on the pooled context.
    fn time_candidate<T: GemmScalar>(
        &self,
        cand: &RankedCandidate,
        c: &mut Matrix<T>,
        a: &Matrix<T>,
        b: &Matrix<T>,
        ctx: &mut SchedContext<T>,
        workers: usize,
    ) -> f64 {
        for _ in 0..self.policy.warmup.max(1) {
            self.run_candidate(cand, c, a, b, ctx, workers);
        }
        let mut samples = Vec::with_capacity(self.policy.reps.max(1));
        for _ in 0..self.policy.reps.max(1) {
            let t0 = Instant::now();
            self.run_candidate(cand, c, a, b, ctx, workers);
            samples.push(t0.elapsed().as_secs_f64());
        }
        robust_secs(&mut samples, self.policy.trim)
    }

    /// Execute `cand` once from a zeroed destination and compare against
    /// an exact blocked GEMM; returns the relative error.
    fn verify_candidate<T: GemmScalar>(
        &self,
        cand: &RankedCandidate,
        m: usize,
        k: usize,
        n: usize,
        workers: usize,
    ) -> f64 {
        let a = fill::bench_workload_t::<T>(m, k, 1);
        let b = fill::bench_workload_t::<T>(k, n, 2);
        let mut c_ref = Matrix::<T>::zeros(m, n);
        fmm_gemm::gemm_with_params(c_ref.as_mut(), a.as_ref(), b.as_ref(), &self.params);
        let mut c = Matrix::<T>::zeros(m, n);
        let mut ctx = SchedContext::<T>::new(self.params);
        self.run_candidate(cand, &mut c, &a, &b, &mut ctx, workers);
        norms::rel_error(c.as_ref(), c_ref.as_ref())
    }
}

/// Sort samples, drop the slowest `trim` fraction as outliers, and
/// average what survives. With the default `trim = 0.5` and 3 reps this
/// averages the two fastest samples — close to the conventional min
/// estimator (noise only ever adds time) but less quantized, so two
/// near-equal candidates compare stably across runs.
fn robust_secs(samples: &mut [f64], trim: f64) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let trim = trim.clamp(0.0, 0.9);
    let keep = ((samples.len() as f64) * (1.0 - trim)).ceil().max(1.0) as usize;
    let kept = &samples[..keep.min(samples.len())];
    kept.iter().sum::<f64>() / kept.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robust_secs_ignores_slow_outliers() {
        let mut samples = [1.0, 1.1, 0.9, 50.0];
        let est = robust_secs(&mut samples, 0.5);
        assert!(est <= 1.1, "outlier must not dominate, got {est}");
    }

    #[test]
    fn robust_secs_handles_single_sample() {
        assert_eq!(robust_secs(&mut [2.5], 0.5), 2.5);
    }
}
