//! Per-layer metrics of a traced run. Each comes from the benchmark
//! calling one layer's public functions directly (the probes below), or
//! from what the workload itself recorded (call times, routing labels,
//! `EngineStats` deltas, the daemon's metrics snapshot).
//!
//! Metrics that belong to another workload's layers read 0 here: the
//! `serve.*`, `openloop.*` and `loadgen.lag_ms_p99` values exist only on
//! `serve-open`.

use crate::compute::Engines;
use crate::util::{flops, median};
use crate::{trace, Metric};
use fmm_core::json::Value;
use fmm_core::registry::Registry;
use fmm_core::FmmPlan;
use fmm_dense::{fill, Matrix};
use fmm_engine::{BatchItem, FmmEngine};
use fmm_gemm::pack::{pack_a_sum, pack_b_sum};
use fmm_gemm::{BlockingParams, GemmScalar};
use fmm_model::{rank_candidates, rank_scheduled, Impl};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dtype {
    F64,
    F32,
}

impl Dtype {
    pub fn name(self) -> &'static str {
        match self {
            Dtype::F64 => "f64",
            Dtype::F32 => "f32",
        }
    }
}

/// One distinct shape a workload ran: its routing label and the median
/// time of its warm calls.
#[derive(Clone, Debug)]
pub struct ShapeRecord {
    pub dtype: Dtype,
    pub shape: (usize, usize, usize),
    pub label: String,
    pub warm_secs: f64,
}

/// `{"f64 1024x1024x1024": {"label": "<2,2,2>+<2,2,2> ABC", "warm_ms": ..}}`.
pub fn decisions_json(shapes: &[ShapeRecord]) -> Value {
    let mut rows = BTreeMap::new();
    for s in shapes {
        let (m, k, n) = s.shape;
        let mut row = BTreeMap::new();
        row.insert("label".to_string(), Value::String(s.label.clone()));
        row.insert("warm_ms".to_string(), Value::Number(s.warm_secs * 1e3));
        rows.insert(format!("{} {m}x{k}x{n}", s.dtype.name()), Value::Object(row));
    }
    Value::Object(rows)
}

/// What a workload hands over for its per-layer metrics.
pub struct Probe {
    /// Whether the workload's engines are parallel.
    pub parallel: bool,
    /// Whether plain GEMM is timed as `gemm_parallel` rather than `gemm`.
    pub parallel_gemm: bool,
    pub shapes: Vec<ShapeRecord>,
    /// `EngineStats` deltas over the timed region: decision misses,
    /// rankings, plan compositions, arena grows, context allocations.
    pub engine_deltas: [u64; 5],
    pub trace_overhead: f64,
    pub loadgen_cpu_s: f64,
    pub loadgen_lag_ms_p99: f64,
    /// Measured by the workload itself when it has cold calls.
    pub cold_extra_ms: Option<f64>,
    /// Queue-wait p50/p99, service p50/p99, outside p50 (µs), mean batch
    /// occupancy and Busy refusals, from the daemon's metrics.
    pub serve: [f64; 7],
    /// Open-loop p50 and windowed p99 at the nominal rate (ms), and the
    /// ladder capacity (req/s).
    pub open_loop: [f64; 3],
}

impl Probe {
    pub fn new(parallel: bool, shapes: Vec<ShapeRecord>, engine_deltas: [u64; 5]) -> Self {
        Probe {
            parallel,
            parallel_gemm: parallel,
            shapes,
            engine_deltas,
            trace_overhead: 0.0,
            loadgen_cpu_s: 0.0,
            loadgen_lag_ms_p99: 0.0,
            cold_extra_ms: None,
            serve: [0.0; 7],
            open_loop: [0.0; 3],
        }
    }

    /// Run every probe; `engines` are the workload's warm engines.
    pub fn run(&self, engines: &Engines) -> Vec<Metric> {
        let mut out = Vec::new();
        let mut m = |name: &'static str, value: f64, unit: &'static str| {
            out.push(Metric::new(name, value, unit));
        };

        let peak64 = kernel_peak::<f64>();
        let peak32 = kernel_peak::<f32>();
        let gemm_times = self.gemm_times();
        let gemm_rate = |dtype: Dtype| {
            let (f, s) = self
                .shapes
                .iter()
                .zip(&gemm_times)
                .filter(|(r, _)| r.dtype == dtype)
                .fold((0.0, 0.0), |(f, s), (r, t)| {
                    (f + flops(r.shape.0, r.shape.1, r.shape.2), s + t)
                });
            if s > 0.0 {
                f / s / 1e9
            } else {
                0.0
            }
        };
        let (g64, g32) = (gemm_rate(Dtype::F64), gemm_rate(Dtype::F32));
        m("gemm.kernel_gflops_f64", peak64, "GFLOP/s");
        m("gemm.kernel_gflops_f32", peak32, "GFLOP/s");
        m("gemm.gflops_f64", g64, "GFLOP/s");
        m("gemm.gflops_f32", g32, "GFLOP/s");
        // The peak is one core's; parallel GEMM is held to all workers' cores.
        let cores = if self.parallel_gemm { rayon::current_num_threads() as f64 } else { 1.0 };
        m("gemm.peak_frac_f64", g64 / (peak64 * cores), "ratio");
        m("gemm.peak_frac_f32", g32 / (peak32 * cores), "ratio");
        let params = BlockingParams::default();
        m("gemm.pack_a_gbs_t1", pack_gbs(true, 1, &params), "GB/s");
        m("gemm.pack_a_gbs_t2", pack_gbs(true, 2, &params), "GB/s");
        m("gemm.pack_b_gbs_t1", pack_gbs(false, 1, &params), "GB/s");
        m("gemm.pack_b_gbs_t2", pack_gbs(false, 2, &params), "GB/s");

        let speedup = |dtype: Dtype| {
            let ratios: Vec<f64> = self
                .shapes
                .iter()
                .zip(&gemm_times)
                .filter(|(r, _)| r.dtype == dtype)
                .map(|(r, t)| t / r.warm_secs)
                .collect();
            median(&ratios)
        };
        m("core.speedup_vs_gemm_f64", speedup(Dtype::F64), "ratio");
        m("core.speedup_vs_gemm_f32", speedup(Dtype::F32), "ratio");
        m("core.compose_ms", compose_ms(), "ms");

        let (rank_ms, error_log2) = self.rank(engines);
        m("model.rank_ms", rank_ms, "ms");
        m("model.error_log2", error_log2, "log2");
        let fmm = self.shapes.iter().filter(|s| s.label != "GEMM").count();
        m("model.fmm_share", fmm as f64 / self.shapes.len().max(1) as f64, "ratio");

        let strategy = |suffix: Option<&str>| {
            let hit = |label: &str| match suffix {
                Some(s) => label.ends_with(s),
                None => !label.ends_with(" BFS") && !label.ends_with(" Hybrid"),
            };
            self.shapes.iter().filter(|s| s.label != "GEMM" && hit(&s.label)).count() as f64
        };
        m("sched.dfs", strategy(None), "count");
        m("sched.bfs", strategy(Some(" BFS")), "count");
        m("sched.hybrid", strategy(Some(" Hybrid")), "count");
        m("sched.speedup_2w", speedup_2w(), "ratio");

        let names = [
            "engine.decision_misses",
            "engine.rankings",
            "engine.plan_compositions",
            "engine.arena_grows",
            "engine.context_allocations",
        ];
        for (name, v) in names.into_iter().zip(self.engine_deltas) {
            m(name, v as f64, "count");
        }
        m("engine.prepare_ms", self.prepare_ms(), "ms");
        let cold_extra = self.cold_extra_ms.unwrap_or_else(|| self.cold_extra_probe());
        m("engine.cold_extra_ms", cold_extra, "ms");
        m("engine.overhead_us", overhead_us(), "us");
        m("engine.batch_speedup", batch_speedup(), "ratio");

        let serve = [
            ("serve.queue_wait_us_p50", "us"),
            ("serve.queue_wait_us_p99", "us"),
            ("serve.service_us_p50", "us"),
            ("serve.service_us_p99", "us"),
            ("serve.outside_us_p50", "us"),
            ("serve.occupancy_mean", "count"),
            ("serve.rejects_busy", "count"),
        ];
        for ((name, unit), v) in serve.into_iter().zip(self.serve) {
            m(name, v, unit);
        }
        m("openloop.latency_ms_p50", self.open_loop[0], "ms");
        m("openloop.latency_ms_p99", self.open_loop[1], "ms");
        m("openloop.rate_max_rps", self.open_loop[2], "req/s");
        m("loadgen.lag_ms_p99", self.loadgen_lag_ms_p99, "ms");
        m("loadgen.cpu_s", self.loadgen_cpu_s, "s");
        m("trace.overhead_frac", self.trace_overhead, "ratio");
        out
    }

    /// Plain GEMM time per recorded shape.
    fn gemm_times(&self) -> Vec<f64> {
        self.shapes
            .iter()
            .map(|r| match r.dtype {
                Dtype::F64 => gemm_time::<f64>(r.shape, self.parallel_gemm),
                Dtype::F32 => gemm_time::<f32>(r.shape, self.parallel_gemm),
            })
            .collect()
    }

    /// Median ranking time per shape (ms), and the median over shapes of
    /// |log2(predicted / measured)| for the chosen candidate.
    fn rank(&self, engines: &Engines) -> (f64, f64) {
        let plans = engines.f64.candidate_plans();
        let workers = rayon::current_num_threads();
        let mut times = Vec::new();
        let mut errors = Vec::new();
        for r in &self.shapes {
            let arch = match r.dtype {
                Dtype::F64 => *engines.f64.arch(),
                Dtype::F32 => *engines.f32.arch(),
            };
            let (m, k, n) = r.shape;
            let span = trace::open("model.rank", 0, 0);
            let t = Instant::now();
            let predicted_nanos = if self.parallel {
                rank_scheduled(m, k, n, &plans, &Impl::FMM_VARIANTS, &arch, workers, true)[0]
                    .prediction
                    .total_nanos()
            } else {
                rank_candidates(m, k, n, &plans, &Impl::FMM_VARIANTS, &arch, true)[0]
                    .prediction
                    .total_nanos()
            };
            times.push(t.elapsed().as_secs_f64() * 1e3);
            span.end();
            errors.push((predicted_nanos as f64 * 1e-9 / r.warm_secs).log2().abs());
        }
        (median(&times), median(&errors))
    }

    /// Median `prepare` time (ms) of the recorded shapes on fresh engines
    /// of the workload's kind.
    fn prepare_ms(&self) -> f64 {
        let engines = Engines::new(self.parallel);
        let times: Vec<f64> = self
            .shapes
            .iter()
            .map(|r| {
                let (m, k, n) = r.shape;
                let _span = trace::open("engine.prepare", 0, 0);
                let t = Instant::now();
                match r.dtype {
                    Dtype::F64 => engines.f64.prepare(m, k, n),
                    Dtype::F32 => engines.f32.prepare(m, k, n),
                }
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&times)
    }

    /// First call minus the median of two warm calls on a fresh engine,
    /// over up to three recorded f64 shapes, median in ms.
    fn cold_extra_probe(&self) -> f64 {
        let engines = Engines::new(self.parallel);
        let extras: Vec<f64> = self
            .shapes
            .iter()
            .filter(|r| r.dtype == Dtype::F64)
            .take(3)
            .map(|r| {
                let (m, k, n) = r.shape;
                let a = fill::bench_workload(m, k, 11);
                let b = fill::bench_workload(k, n, 12);
                let mut c = Matrix::zeros(m, n);
                // Touch C's pages, so the first call's extra time is the
                // engine's and not the first write to fresh memory.
                c.clear();
                let mut times: Vec<f64> = (0..3)
                    .map(|_| {
                        let _span = trace::open("engine.multiply", 0, 0);
                        let t = Instant::now();
                        engines.f64.multiply(c.as_mut(), a.as_ref(), b.as_ref());
                        t.elapsed().as_secs_f64()
                    })
                    .collect();
                let first = times.remove(0);
                (first - median(&times)) * 1e3
            })
            .collect();
        median(&extras)
    }
}

/// GFLOP/s of `fmm_gemm::gemm` on an L2-resident block (three 256²
/// operands, 1.5 MiB in f64), median of seven timed batches.
fn kernel_peak<T: GemmScalar>() -> f64 {
    let (m, k, n) = (256, 256, 256);
    let a = fill::bench_workload_t::<T>(m, k, 1);
    let b = fill::bench_workload_t::<T>(k, n, 2);
    let mut c = Matrix::<T>::zeros(m, n);
    let mut rates = Vec::new();
    for _ in 0..7 {
        let _span = trace::open("gemm.gemm", 0, 0);
        let (reps, secs) = timed_batch(Duration::from_millis(30), || {
            fmm_gemm::gemm(c.as_mut(), a.as_ref(), b.as_ref());
        });
        rates.push(reps as f64 * flops(m, k, n) / secs / 1e9);
    }
    median(&rates)
}

/// Run `f` until `budget` has passed: `(repetitions, seconds)`.
fn timed_batch(budget: Duration, mut f: impl FnMut()) -> (u64, f64) {
    let t = Instant::now();
    let mut reps = 0;
    while reps == 0 || t.elapsed() < budget {
        f();
        reps += 1;
    }
    (reps, t.elapsed().as_secs_f64())
}

/// Seconds per plain GEMM call on fresh operands whose pages are already
/// touched, averaged over repeats filling at least 10 ms.
fn gemm_time<T: GemmScalar>((m, k, n): (usize, usize, usize), parallel: bool) -> f64 {
    let a = fill::bench_workload_t::<T>(m, k, 3);
    let b = fill::bench_workload_t::<T>(k, n, 4);
    let mut c = Matrix::<T>::zeros(m, n);
    c.clear();
    let _span = trace::open("gemm.gemm", 0, 0);
    let (reps, secs) = timed_batch(Duration::from_millis(10), || {
        if parallel {
            fmm_gemm::gemm_parallel(c.as_mut(), a.as_ref(), b.as_ref());
        } else {
            fmm_gemm::gemm(c.as_mut(), a.as_ref(), b.as_ref());
        }
    });
    secs / reps as f64
}

/// Computed GB/s of `pack_a_sum` on an mc×kc panel (`a`) or `pack_b_sum`
/// on a kc×nc panel, f64, summing `terms` operands: each element reads
/// `terms` values and writes one.
fn pack_gbs(a: bool, terms: usize, p: &BlockingParams) -> f64 {
    let (rows, cols) = if a { (p.mc, p.kc) } else { (p.kc, p.nc) };
    let srcs: Vec<Matrix> =
        (0..terms).map(|t| fill::bench_workload(rows, cols, 20 + t as u64)).collect();
    let sum: Vec<(f64, fmm_dense::MatRef<'_, f64>)> = srcs
        .iter()
        .enumerate()
        .map(|(t, s)| (if t == 0 { 1.0 } else { -1.0 }, s.as_ref()))
        .collect();
    let mut dst = vec![0.0f64; (rows + p.mr) * (cols + p.nr)];
    let bytes = ((terms + 1) * rows * cols * 8) as f64;
    let mut rates = Vec::new();
    for _ in 0..5 {
        let _span = trace::open(if a { "gemm.pack_a_sum" } else { "gemm.pack_b_sum" }, 0, 0);
        let (reps, secs) = timed_batch(Duration::from_millis(20), || {
            if a {
                pack_a_sum(&mut dst, &sum, p.mr);
            } else {
                pack_b_sum(&mut dst, &sum, p.nr);
            }
            std::hint::black_box(&mut dst);
        });
        rates.push(reps as f64 * bytes / secs / 1e9);
    }
    median(&rates)
}

/// Composing every paper-table algorithm at one and two levels (the
/// engine's candidate set), median of three, in ms.
fn compose_ms() -> f64 {
    let registry = Registry::shared();
    let rows = registry.paper_rows();
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let _span = trace::open("core.compose", 0, 0);
            let t = Instant::now();
            for (_, algo) in &rows {
                for levels in 1..=2 {
                    std::hint::black_box(FmmPlan::from_arcs(vec![Arc::clone(algo); levels]));
                }
            }
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// The fixed shapes `sched.speedup_2w` is measured on.
const SPEEDUP_SHAPES: [(usize, usize, usize); 3] =
    [(1024, 1024, 1024), (2048, 256, 2048), (1536, 512, 1536)];

/// A one-worker parallel engine's time over a two-worker one's, summed
/// over [`SPEEDUP_SHAPES`] (each the median of three warm calls).
fn speedup_2w() -> f64 {
    let time = |workers: usize| -> f64 {
        let engine =
            FmmEngine::<f64>::new(fmm_engine::EngineConfig { workers, ..Engines::config(true) });
        SPEEDUP_SHAPES
            .iter()
            .map(|&(m, k, n)| {
                let a = fill::bench_workload(m, k, 5);
                let b = fill::bench_workload(k, n, 6);
                let mut c = Matrix::zeros(m, n);
                engine.prepare(m, k, n);
                engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
                let times: Vec<f64> = (0..3)
                    .map(|_| {
                        let _span = trace::open("engine.multiply", 0, 0);
                        let t = Instant::now();
                        engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
                        t.elapsed().as_secs_f64()
                    })
                    .collect();
                median(&times)
            })
            .sum()
    };
    time(1) / time(2)
}

/// Routed `multiply` minus direct `gemm` (µs) on 32³ and 64³, which the
/// paper arch routes to GEMM; median per call over interleaved repeats,
/// averaged over the two shapes.
fn overhead_us() -> f64 {
    let engine = FmmEngine::<f64>::new(Engines::config(false));
    let diffs: Vec<f64> = [32usize, 64]
        .iter()
        .map(|&s| {
            let a = fill::bench_workload(s, s, 7);
            let b = fill::bench_workload(s, s, 8);
            let mut c = Matrix::zeros(s, s);
            let (mut routed, mut direct) = (Vec::new(), Vec::new());
            for _ in 0..400 {
                let t = Instant::now();
                engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
                routed.push(t.elapsed().as_secs_f64());
                let t = Instant::now();
                fmm_gemm::gemm(c.as_mut(), a.as_ref(), b.as_ref());
                direct.push(t.elapsed().as_secs_f64());
            }
            (median(&routed) - median(&direct)) * 1e6
        })
        .collect();
    diffs.iter().sum::<f64>() / diffs.len() as f64
}

/// Sixteen 64³ `multiply` calls over one `multiply_batch` of the same
/// sixteen, on a parallel engine; median of interleaved repeats.
fn batch_speedup() -> f64 {
    let engine = FmmEngine::<f64>::new(Engines::config(true));
    let s = 64;
    let a: Vec<Matrix> = (0..16).map(|i| fill::bench_workload(s, s, 30 + i)).collect();
    let b: Vec<Matrix> = (0..16).map(|i| fill::bench_workload(s, s, 60 + i)).collect();
    let mut c: Vec<Matrix> = (0..16).map(|_| Matrix::zeros(s, s)).collect();
    engine.prepare(s, s, s);
    let mut ratios = Vec::new();
    for _ in 0..60 {
        let t = Instant::now();
        for i in 0..16 {
            engine.multiply(c[i].as_mut(), a[i].as_ref(), b[i].as_ref());
        }
        let single = t.elapsed().as_secs_f64();
        let mut items: Vec<BatchItem<'_, f64>> = c
            .iter_mut()
            .zip(a.iter().zip(&b))
            .map(|(c, (a, b))| BatchItem::new(c.as_mut(), a.as_ref(), b.as_ref()))
            .collect();
        let _span = trace::open("engine.multiply_batch", 0, 0);
        let t = Instant::now();
        engine.multiply_batch(&mut items);
        ratios.push(single / t.elapsed().as_secs_f64());
    }
    median(&ratios)
}
