//! The two in-process compute workloads.
//!
//! * `square-warm`: one sequential engine per dtype; f64 and f32 squares
//!   of 1024, 1536 and 2048, every shape prepared in set-up, then whole
//!   passes over all six problems in a seeded order until the time is up.
//! * `shapes-cold`: one parallel engine per dtype, constructed in set-up,
//!   where each prepares only a shape no round draws. Rounds of twelve
//!   fresh shapes, one from each stratum in [`STRATA`], visited in a
//!   seeded order and called three times each, until the time is up.
//!   Stratifying keeps the shape mix, and so every aggregate, the same
//!   from seed to seed.
//!
//! Every timed call is checked against an `fmm_gemm` reference computed
//! outside the timed region (`gemm_parallel` on `shapes-cold`, whose
//! references are computed between rounds, within the run's time).

use crate::layers::{self, Dtype, ShapeRecord};
use crate::util::{self, check, flops, Footprint, Rng};
use crate::{trace, Metric, Outcome};
use fmm_core::json::Value;
use fmm_core::registry::Registry;
use fmm_dense::{fill, Matrix};
use fmm_engine::{ArchSource, EngineConfig, EngineStats, FmmEngine, Routing};
use fmm_gemm::GemmScalar;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Calls per shape on `shapes-cold`: the first pays the decision miss.
const CALLS_PER_SHAPE: usize = 3;

/// How one `shapes-cold` stratum draws `(m, k, n)`.
#[derive(Clone, Copy)]
enum Draw {
    /// m = n in `n`, k in `k`.
    RankK { n: (usize, usize), k: (usize, usize) },
    /// Independent ranges per dimension, each rounded to an odd value.
    Odd { m: (usize, usize), k: (usize, usize), n: (usize, usize) },
    /// Every dimension a prime in the range.
    Prime { lo: usize, hi: usize },
}

/// The `shapes-cold` strata: rank-k updates with m = n in 1024–4096 and
/// k in 64–1024, skinny products at a fixed k = 256, odd and prime
/// dimensions that force peeling, and one shape per round whose f64 C
/// (at least 4032² · 8 B = 124 MiB) exceeds a 105 MiB LLC. Each stratum
/// is narrow (a few percent per dimension), so that a round costs about
/// the same and peaks at about the same memory whatever the seed. A round
/// times about 2.3 s of calls on a 2-vCPU host, so that a run's figures
/// are taken over eight or more rounds; three f32 strata give the f32
/// figure about a quarter of a round's time.
const STRATA: [(Dtype, Draw); 12] = [
    (Dtype::F64, Draw::RankK { n: (1120, 1184), k: (92, 100) }),
    (Dtype::F64, Draw::RankK { n: (1024, 1088), k: (512, 544) }),
    (Dtype::F64, Draw::RankK { n: (2000, 2096), k: (186, 198) }),
    (Dtype::F64, Draw::RankK { n: (3024, 3120), k: (92, 100) }),
    (Dtype::F64, Draw::Odd { m: (2993, 3151), k: (256, 256), n: (45, 51) }),
    (Dtype::F64, Draw::Odd { m: (45, 51), k: (256, 256), n: (2993, 3151) }),
    (Dtype::F64, Draw::Prime { lo: 775, hi: 825 }),
    (Dtype::F64, Draw::Odd { m: (971, 1031), k: (311, 331), n: (971, 1031) }),
    (Dtype::F64, Draw::RankK { n: (4032, 4160), k: (78, 82) }),
    (Dtype::F32, Draw::RankK { n: (2000, 2096), k: (312, 328) }),
    (Dtype::F32, Draw::RankK { n: (2000, 2096), k: (92, 100) }),
    (Dtype::F32, Draw::Odd { m: (875, 927), k: (875, 927), n: (875, 927) }),
];

const SQUARE_SIZES: [usize; 3] = [1024, 1536, 2048];

/// What `shapes-cold`'s set-up prepares on its fresh engines: one shape per
/// dtype that no stratum draws, so the first ranking (which composes every
/// candidate plan) lands in `setup_s` and every timed shape still pays its
/// own decision miss. A set-up of the registry and engines alone drifted
/// 1.3× between sets of runs minutes apart on a shared host.
const COLD_WARMUP: [(Dtype, Shape); 2] =
    [(Dtype::F64, (512, 512, 512)), (Dtype::F32, (512, 512, 512))];

/// `(m, k, n)`.
type Shape = (usize, usize, usize);

fn is_prime(v: usize) -> bool {
    v >= 2 && (2..).take_while(|d| d * d <= v).all(|d| !v.is_multiple_of(d))
}

impl Draw {
    fn shape(self, rng: &mut Rng) -> Shape {
        let odd = |rng: &mut Rng, (lo, hi): (usize, usize)| {
            let v = rng.range(lo, hi);
            if lo == hi || v % 2 == 1 {
                v
            } else {
                v + 1
            }
        };
        match self {
            Draw::RankK { n, k } => {
                let n = rng.range(n.0, n.1);
                (n, rng.range(k.0, k.1), n)
            }
            Draw::Odd { m, k, n } => (odd(rng, m), odd(rng, k), odd(rng, n)),
            Draw::Prime { lo, hi } => {
                let mut prime = || loop {
                    let v = rng.range(lo, hi);
                    if is_prime(v) {
                        break v;
                    }
                };
                (prime(), prime(), prime())
            }
        }
    }
}

/// One multiply of fixed operands and its reference product.
struct Problem<T> {
    m: usize,
    k: usize,
    n: usize,
    a: Matrix<T>,
    b: Matrix<T>,
    c: Matrix<T>,
    c_ref: Matrix<T>,
}

impl<T: GemmScalar> Problem<T> {
    fn new((m, k, n): Shape, seed: u64, parallel: bool) -> Self {
        let a = fill::bench_workload_t::<T>(m, k, seed);
        let b = fill::bench_workload_t::<T>(k, n, seed ^ 0x5bd1_e995);
        let mut c_ref = Matrix::zeros(m, n);
        if parallel {
            fmm_gemm::gemm_parallel(c_ref.as_mut(), a.as_ref(), b.as_ref());
        } else {
            fmm_gemm::gemm(c_ref.as_mut(), a.as_ref(), b.as_ref());
        }
        Problem { m, k, n, a, b, c: Matrix::zeros(m, n), c_ref }
    }

    /// Bytes of A, B, C and the reference.
    fn bytes(&self) -> usize {
        (self.m * self.k + self.k * self.n + 2 * self.m * self.n) * std::mem::size_of::<T>()
    }

    /// One timed, checked `C = A·B` through `engine`.
    fn call(&mut self, engine: &FmmEngine<T>, req: u64) -> Timed {
        let cpu0 = util::thread_cpu_s();
        self.c.clear();
        let cpu_clear = util::thread_cpu_s() - cpu0;
        let span = trace::open("engine.multiply", 0, req);
        let t = Instant::now();
        engine.multiply(self.c.as_mut(), self.a.as_ref(), self.b.as_ref());
        let secs = t.elapsed().as_secs_f64();
        span.end();
        let _check = trace::open("bench.check", 0, req);
        let cpu1 = util::thread_cpu_s();
        let ok = check(&self.c, &self.c_ref, self.k).is_ok();
        Timed { secs, ok, bench_cpu_s: cpu_clear + util::thread_cpu_s() - cpu1 }
    }
}

/// One timed call's result: its time, whether it passed the check, and
/// the benchmark's own CPU time around it (clearing C and checking).
struct Timed {
    secs: f64,
    ok: bool,
    bench_cpu_s: f64,
}

enum AnyProblem {
    F64(Problem<f64>),
    F32(Problem<f32>),
}

impl AnyProblem {
    fn new(dtype: Dtype, shape: Shape, seed: u64, parallel: bool) -> Self {
        match dtype {
            Dtype::F64 => AnyProblem::F64(Problem::new(shape, seed, parallel)),
            Dtype::F32 => AnyProblem::F32(Problem::new(shape, seed, parallel)),
        }
    }

    fn key(&self) -> (Dtype, Shape) {
        match self {
            AnyProblem::F64(p) => (Dtype::F64, (p.m, p.k, p.n)),
            AnyProblem::F32(p) => (Dtype::F32, (p.m, p.k, p.n)),
        }
    }

    fn call(&mut self, engines: &Engines, req: u64) -> Timed {
        match self {
            AnyProblem::F64(p) => p.call(&engines.f64, req),
            AnyProblem::F32(p) => p.call(&engines.f32, req),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            AnyProblem::F64(p) => p.bytes(),
            AnyProblem::F32(p) => p.bytes(),
        }
    }
}

/// The engine pair a compute workload drives, both routing with the model
/// over the fixed paper arch.
pub struct Engines {
    pub f64: FmmEngine<f64>,
    pub f32: FmmEngine<f32>,
}

impl Engines {
    pub fn config(parallel: bool) -> EngineConfig {
        EngineConfig {
            arch: ArchSource::Fixed(crate::env::arch()),
            parallel,
            routing: Routing::Model,
            ..EngineConfig::default()
        }
    }

    /// Both engines over a freshly built algorithm registry, so that every
    /// set-up pays what the first engine of a process pays.
    pub fn new(parallel: bool) -> Self {
        let registry = Arc::new(Registry::standard());
        Engines {
            f64: FmmEngine::with_registry(Self::config(parallel), registry.clone()),
            f32: FmmEngine::with_registry(Self::config(parallel), registry),
        }
    }

    pub fn label(&self, dtype: Dtype, (m, k, n): Shape) -> String {
        match dtype {
            Dtype::F64 => self.f64.decision_label(m, k, n),
            Dtype::F32 => self.f32.decision_label(m, k, n),
        }
    }

    fn stats(&self) -> [EngineStats; 2] {
        [self.f64.stats(), self.f32.stats()]
    }
}

/// One timed call.
struct Call {
    /// The problem (`square-warm`) or stratum (`shapes-cold`) it belongs to.
    stratum: usize,
    dtype: Dtype,
    shape: Shape,
    secs: f64,
    ok: bool,
}

/// Build fresh engines [`SETUP_REPS`] times, preparing `shapes` on each;
/// the last engines and every set-up's duration.
fn set_up(parallel: bool, shapes: &[(Dtype, Shape)]) -> (Engines, Vec<f64>) {
    let mut setups = Vec::new();
    let mut engines = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up's engines go first, so that two never
        // coexist in the memory footprint.
        drop(engines.take());
        let span = trace::open("bench.setup", 0, 0);
        let t = Instant::now();
        let e = Engines::new(parallel);
        for &(dtype, (m, k, n)) in shapes {
            let _prep = trace::open("engine.prepare", span.id(), 0);
            match dtype {
                Dtype::F64 => e.f64.prepare(m, k, n),
                Dtype::F32 => e.f32.prepare(m, k, n),
            }
        }
        setups.push(t.elapsed().as_secs_f64());
        engines = Some(e);
    }
    (engines.expect("at least one set-up"), setups)
}

/// What a compute workload's set-up and timed region produced.
struct Run {
    engines: Engines,
    setups: Vec<f64>,
    before: [EngineStats; 2],
    /// Every timed call with the pass (or round) it belongs to. A traced
    /// run traces odd passes only, so the two halves see the same shapes
    /// and their difference is the tracing cost.
    calls: Vec<(u64, Call)>,
    bench_cpu_s: f64,
    cold_extra_ms: Option<f64>,
    memory: Footprint,
}

impl Run {
    fn new((engines, setups): (Engines, Vec<f64>), memory: Footprint) -> Self {
        let before = engines.stats();
        let calls = Vec::new();
        Run { engines, setups, before, calls, bench_cpu_s: 0.0, cold_extra_ms: None, memory }
    }

    /// Time and check one call of `problem`, of `stratum`, in `pass`; its
    /// time in seconds.
    fn call(&mut self, problem: &mut AnyProblem, stratum: usize, pass: u64) -> f64 {
        let req = self.calls.len() as u64 + 1;
        let Timed { secs, ok, bench_cpu_s } = problem.call(&self.engines, req);
        self.bench_cpu_s += bench_cpu_s;
        let (dtype, shape) = problem.key();
        self.calls.push((pass, Call { stratum, dtype, shape, secs, ok }));
        secs
    }

    fn finish(self, parallel: bool, traced: bool) -> Outcome {
        trace::set_enabled(traced);
        let after = self.engines.stats();
        let peak_heap = self.memory.peak_mb();
        let all: Vec<&Call> = self.calls.iter().map(|(_, c)| c).collect();
        let mut out = Outcome::from_calls(&self.calls, util::median(&self.setups), peak_heap);
        let setups = self.setups.iter().copied().map(Value::Number).collect();
        out.report.insert("setup_s_all".into(), Value::Array(setups));
        let shapes = shape_records(&self.engines, &all);
        out.report.insert("decisions".into(), layers::decisions_json(&shapes));
        if traced {
            let mut probe = layers::Probe::new(parallel, shapes, stats_delta(self.before, after));
            probe.trace_overhead = overhead(&self.calls);
            probe.loadgen_cpu_s = self.bench_cpu_s;
            probe.cold_extra_ms = self.cold_extra_ms;
            out.per_layer = probe.run(&self.engines);
        }
        out
    }
}

pub fn square_warm(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut rng = Rng::new(seed);
    let mut problems = Vec::new();
    for dtype in [Dtype::F64, Dtype::F32] {
        for &s in &SQUARE_SIZES {
            problems.push(AnyProblem::new(dtype, (s, s, s), rng.next_u64(), false));
        }
    }
    let keys: Vec<_> = problems.iter().map(AnyProblem::key).collect();
    // The problems are in the baseline.
    let memory = Footprint::new();
    memory.begin();
    let mut run = Run::new(set_up(false, &keys), memory);
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs() < seconds {
        trace::set_enabled(traced && pass % 2 == 1);
        let mut order: Vec<usize> = (0..problems.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            run.call(&mut problems[i], i, pass);
        }
        pass += 1;
    }
    run.memory.end(0);
    run.finish(false, traced)
}

pub fn shapes_cold(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut rng = Rng::new(seed);
    // No problem exists yet; each one's matrices are subtracted below.
    let memory = Footprint::new();
    let mut run = Run::new(set_up(true, &COLD_WARMUP), memory);
    let mut seen = HashSet::new();
    let mut cold_extra = Vec::new();
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs() < seconds {
        trace::set_enabled(traced && round % 2 == 1);
        let mut order: Vec<usize> = (0..STRATA.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let (dtype, draw) = STRATA[i];
            let shape = loop {
                let s = draw.shape(&mut rng);
                if seen.insert((dtype, s)) {
                    break s;
                }
            };
            let mut problem = AnyProblem::new(dtype, shape, rng.next_u64(), true);
            run.memory.begin();
            let times: Vec<f64> =
                (0..CALLS_PER_SHAPE).map(|_| run.call(&mut problem, i, round)).collect();
            run.memory.end(problem.bytes());
            cold_extra.push(times[0] - util::median(&times[1..]));
        }
        round += 1;
    }
    run.cold_extra_ms = Some(util::median(&cold_extra) * 1e3);
    run.finish(true, traced)
}

/// Distinct shapes of a run with their routing label and the median of
/// their warm (non-first) call times.
fn shape_records(engines: &Engines, calls: &[&Call]) -> Vec<ShapeRecord> {
    let mut by_shape: BTreeMap<(Dtype, Shape), Vec<f64>> = BTreeMap::new();
    for c in calls {
        by_shape.entry((c.dtype, c.shape)).or_default().push(c.secs);
    }
    by_shape
        .into_iter()
        .map(|((dtype, shape), times)| ShapeRecord {
            dtype,
            shape,
            label: engines.label(dtype, shape),
            warm_secs: util::median(if times.len() > 1 { &times[1..] } else { &times }),
        })
        .collect()
}

/// `EngineStats` deltas of an f64 and an f32 engine, summed: decision
/// misses, rankings, plan compositions, arena grows, context allocations.
pub fn stats_delta(before: [EngineStats; 2], after: [EngineStats; 2]) -> [u64; 5] {
    let d = |f: fn(&EngineStats) -> u64| (0..2).map(|i| f(&after[i]) - f(&before[i])).sum::<u64>();
    [
        d(|s| s.decision_misses),
        d(|s| s.rankings),
        d(|s| s.plan_compositions),
        d(|s| s.arena_grows),
        d(|s| s.context_allocations),
    ]
}

/// Traced seconds per flop over untraced seconds per flop, minus one.
/// Odd passes (rounds) are the traced ones; the first pass, which also
/// touches every buffer for the first time, is left out.
fn overhead(calls: &[(u64, Call)]) -> f64 {
    let rate = |traced: bool| {
        let (f, s) = calls
            .iter()
            .filter(|(pass, _)| *pass > 0 && (pass % 2 == 1) == traced)
            .fold((0.0, 0.0), |(f, s), (_, c)| {
                (f + flops(c.shape.0, c.shape.1, c.shape.2), s + c.secs)
            });
        s / f
    };
    rate(true) / rate(false) - 1.0
}

impl Outcome {
    /// The end-to-end metrics of a compute workload from its timed calls,
    /// each tagged with its pass. Rates are the interquartile mean over
    /// passes of the pass's rate: a slow spell of the host that covers less
    /// than a quarter of the passes does not move them, and averaging the
    /// middle half follows the host's steadier drift with less scatter than
    /// the median alone. The latency p50 is the median over
    /// problems (strata) of each one's interquartile mean call time. A
    /// percentile pooled over all calls jumps between strata of very
    /// different call times as the seed's shape draw reorders them, and a
    /// stratum's median jumps between its routes (the prime stratum's
    /// shapes run `<4,2,2> AB BFS` or `<5,2,2> ABC`, 45 or 75 ms).
    fn from_calls(calls: &[(u64, Call)], setup_s: f64, peak_heap_mb: f64) -> Outcome {
        let passes = calls.last().map_or(0, |(pass, _)| pass + 1);
        let per_pass = |rate: &dyn Fn(&mut dyn Iterator<Item = &Call>) -> f64| -> Vec<f64> {
            (0..passes)
                .map(|p| rate(&mut calls.iter().filter(|(q, _)| *q == p).map(|(_, c)| c)))
                .collect()
        };
        let gflops = |dtype: Dtype| {
            per_pass(&|pass| {
                let (f, s) = pass.filter(|c| c.dtype == dtype).fold((0.0, 0.0), |(f, s), c| {
                    (f + flops(c.shape.0, c.shape.1, c.shape.2), s + c.secs)
                });
                f / s / 1e9
            })
        };
        let calls_per_s = per_pass(&|pass| {
            let (n, s) = pass.fold((0.0, 0.0), |(n, s), c| (n + 1.0, s + c.secs));
            n / s
        });
        let mut by_stratum: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (_, c) in calls {
            by_stratum.entry(c.stratum).or_default().push(c.secs * 1e3);
        }
        let typical: Vec<f64> =
            by_stratum.values().map(|ms| util::interquartile_mean(ms)).collect();
        let wrong = calls.iter().filter(|(_, c)| !c.ok).count() as u64;
        let attempted = calls.len() as u64;
        let (gflops_f64, gflops_f32) = (gflops(Dtype::F64), gflops(Dtype::F32));
        let mut report = BTreeMap::new();
        report.insert("latency_samples".into(), Value::Int(calls.len() as i64));
        report.insert("passes".into(), Value::Int(passes as i64));
        for (name, rates) in [("pass_gflops_f64", &gflops_f64), ("pass_gflops_f32", &gflops_f32)] {
            report.insert(
                name.into(),
                Value::Array(rates.iter().copied().map(Value::Number).collect()),
            );
        }
        Outcome {
            attempted,
            failed: wrong,
            wrong,
            end_to_end: vec![
                Metric::new("setup_s", setup_s, "s"),
                Metric::new("gflops_f64", util::interquartile_mean(&gflops_f64), "GFLOP/s"),
                Metric::new("gflops_f32", util::interquartile_mean(&gflops_f32), "GFLOP/s"),
                Metric::new("latency_ms_p50", util::median(&typical), "ms"),
                Metric::new("rate_max_rps", util::interquartile_mean(&calls_per_s), "req/s"),
                Metric::new("ok_frac", 1.0 - wrong as f64 / attempted as f64, "ratio"),
                Metric::new("peak_heap_mb", peak_heap_mb, "MiB"),
            ],
            per_layer: Vec::new(),
            report,
        }
    }
}
