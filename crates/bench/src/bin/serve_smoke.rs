//! Serving smoke benchmark: the `fmm-serve` daemon under concurrent
//! client load, micro-batched versus one-request-at-a-time, emitted as
//! `BENCH_serve.json`.
//!
//! ```sh
//! cargo run --release -p fmm-bench --bin serve_smoke \
//!     [-- --threads 8 --requests 60 --size 64 --window-us 0 \
//!         --gap-us 200 --max-batch 16 --pipeline 8 --out BENCH_serve.json]
//! ```
//!
//! Three daemons run in-process on loopback ports, sharing one warm
//! engine pair so the comparison isolates the *dispatch policy*: first
//! `max_batch = 1` with blocking clients (every request is its own
//! `multiply_batch` call — what a naive thread-per-request server would
//! do), then the window/size micro-batching policy under the same
//! blocking clients, then the same policy under protocol-v2 *pipelined*
//! clients each keeping `--pipeline` requests in flight per connection.
//! Each mode serves N client threads × M requests over real TCP
//! connections. The report carries aggregate throughput, client-observed
//! latency percentiles, and the server-side occupancy metrics that prove
//! requests actually coalesced; the first response of every thread is
//! verified against the blocked-GEMM reference so a serving bug cannot
//! masquerade as a speedup.

use fmm_bench::report::{int, latency_fields, num, object, text, Report};
use fmm_core::json::Value;
use fmm_dense::{fill, norms, Matrix};
use fmm_engine::{ArchSource, EngineConfig, FmmEngine};
use fmm_serve::{BatchPolicy, Client, MetricsSnapshot, PipelinedClient, ServeConfig, Server};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    threads: usize,
    requests: usize,
    size: usize,
    window_us: u64,
    gap_us: u64,
    max_batch: usize,
    pipeline: usize,
    out: String,
}

fn parse_args() -> Args {
    // Defaults sized for the overhead-dominated regime where dispatch
    // policy is visible on a single core: at 32^3 the per-request frame +
    // wakeup cost rivals the compute, so coalescing and pipelining show
    // up as throughput rather than disappearing under the GEMM.
    let mut args = Args {
        threads: 8,
        requests: 120,
        size: 32,
        window_us: 0,
        gap_us: 200,
        max_batch: 16,
        pipeline: 16,
        out: "BENCH_serve.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--threads" => {
                args.threads = argv[i + 1].parse().expect("--threads takes an integer");
                i += 2;
            }
            "--requests" => {
                args.requests = argv[i + 1].parse().expect("--requests takes an integer");
                i += 2;
            }
            "--size" => {
                args.size = argv[i + 1].parse().expect("--size takes an integer");
                i += 2;
            }
            "--window-us" => {
                args.window_us = argv[i + 1].parse().expect("--window-us takes an integer");
                i += 2;
            }
            "--gap-us" => {
                args.gap_us = argv[i + 1].parse().expect("--gap-us takes an integer");
                i += 2;
            }
            "--max-batch" => {
                args.max_batch = argv[i + 1].parse().expect("--max-batch takes an integer");
                i += 2;
            }
            "--pipeline" => {
                args.pipeline = argv[i + 1].parse().expect("--pipeline takes an integer");
                i += 2;
            }
            "--out" => {
                args.out = argv[i + 1].clone();
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

struct ModeResult {
    rps: f64,
    gflops: f64,
    samples_secs: Vec<f64>,
    metrics: MetricsSnapshot,
    registry: Value,
}

fn verify_first(a: &Matrix<f64>, b: &Matrix<f64>, c: &Matrix<f64>) {
    let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
    let err = norms::rel_error(c.as_ref(), c_ref.as_ref());
    assert!(err < 1e-9, "served result diverged: {err}");
}

/// One blocking client's share of the load: `requests` round-trips on one
/// v1 connection, first response verified.
fn drive_blocking(addr: SocketAddr, n: usize, requests: usize, seed: u64) -> Vec<f64> {
    let mut client = Client::connect(addr).expect("connect");
    let a = fill::bench_workload(n, n, 2 * seed + 1);
    let b = fill::bench_workload(n, n, 2 * seed + 2);
    let mut samples = Vec::with_capacity(requests);
    for i in 0..requests {
        let t0 = Instant::now();
        let c = client.multiply(&a, &b).expect("served");
        samples.push(t0.elapsed().as_secs_f64());
        if i == 0 {
            verify_first(&a, &b, &c);
        }
    }
    samples
}

/// One pipelined client's share: a single protocol-v2 connection keeping
/// up to `depth` requests in flight, responses matched by request id.
/// Latency is send → matched response; `Busy` refusals re-send without
/// resetting the clock.
fn drive_pipelined(
    addr: SocketAddr,
    n: usize,
    requests: usize,
    seed: u64,
    depth: usize,
) -> Vec<f64> {
    let mut client = PipelinedClient::connect(addr).expect("connect");
    let a = fill::bench_workload(n, n, 2 * seed + 1);
    let b = fill::bench_workload(n, n, 2 * seed + 2);
    let mut samples = Vec::with_capacity(requests);
    let mut window: VecDeque<(u64, Instant)> = VecDeque::with_capacity(depth);
    let mut sent = 0usize;
    let mut verified = false;
    while samples.len() < requests {
        while sent < requests && window.len() < depth {
            let t0 = Instant::now();
            window.push_back((client.send(&a, &b).expect("send"), t0));
            sent += 1;
        }
        let (id, t0) = window.pop_front().expect("in-flight window empty");
        match client.recv::<f64>(id) {
            Ok(c) => {
                samples.push(t0.elapsed().as_secs_f64());
                if !verified {
                    verified = true;
                    verify_first(&a, &b, &c);
                }
            }
            Err(e) if e.is_busy() => {
                std::thread::sleep(Duration::from_micros(200));
                window.push_back((client.send(&a, &b).expect("re-send"), t0));
            }
            Err(e) => panic!("pipelined request failed: {e}"),
        }
    }
    samples
}

/// Serve one mode: spawn a daemon with `policy` over the shared engines,
/// drive it with `threads × requests` clients (blocking when `depth` is
/// 0, pipelined `depth`-deep otherwise), shut it down, and return
/// throughput + latency + the server's own metrics.
fn run_mode(
    policy: BatchPolicy,
    args: &Args,
    engines: &(Arc<FmmEngine<f64>>, Arc<FmmEngine<f32>>),
    depth: usize,
) -> ModeResult {
    let handle = Server::spawn_with_engines(
        ServeConfig { batch: policy, ..ServeConfig::default() },
        engines.0.clone(),
        engines.1.clone(),
    )
    .expect("bind loopback");
    let addr = handle.addr();
    let n = args.size;

    // Warmup outside the timed region: decisions, plans, arenas, and the
    // TCP stacks.
    {
        let mut client = Client::connect(addr).expect("connect");
        let a = fill::bench_workload(n, n, 1);
        let b = fill::bench_workload(n, n, 2);
        client.multiply(&a, &b).expect("warmup");
    }
    let warmup = handle.metrics().snapshot();

    let t0 = Instant::now();
    let per_thread: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.threads)
            .map(|t| {
                s.spawn(move || {
                    if depth == 0 {
                        drive_blocking(addr, n, args.requests, t as u64)
                    } else {
                        drive_pipelined(addr, n, args.requests, t as u64, depth)
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall = t0.elapsed().as_secs_f64();

    let metrics = handle.metrics().snapshot();
    // Full registry snapshot (counters, gauges, per-phase histograms) —
    // the same body `fmm_serve stats --json` serves over the wire.
    let registry = handle.stats_json();
    handle.shutdown();

    let samples_secs: Vec<f64> = per_thread.into_iter().flatten().collect();
    let total = samples_secs.len();
    let flops = 2.0 * (n as f64).powi(3) * total as f64;
    let mut metrics = metrics;
    // Only count timed-region batches for occupancy reporting.
    metrics.batches -= warmup.batches;
    metrics.batched_items -= warmup.batched_items;
    metrics.mean_occupancy = if metrics.batches > 0 {
        metrics.batched_items as f64 / metrics.batches as f64
    } else {
        0.0
    };
    ModeResult {
        rps: total as f64 / wall,
        gflops: flops / wall / 1e9,
        samples_secs,
        metrics,
        registry,
    }
}

fn main() {
    let args = parse_args();

    // One warm engine pair shared by both modes, so the measured delta is
    // dispatch policy, not cache state. Calibrated arch (the serving
    // default), model routing: the tune store is not part of this story.
    let config =
        EngineConfig { parallel: true, arch: ArchSource::Calibrated, ..EngineConfig::default() };
    let engines =
        (Arc::new(FmmEngine::<f64>::new(config.clone())), Arc::new(FmmEngine::<f32>::new(config)));

    println!(
        "serve_smoke: {} threads x {} requests, {}^3 f64, window {} us (gap {} us), \
         max batch {}, pipeline {}",
        args.threads,
        args.requests,
        args.size,
        args.window_us,
        args.gap_us,
        args.max_batch,
        args.pipeline
    );

    // Mode 1: one-request-at-a-time dispatch (the baseline a serving
    // layer must beat to justify existing).
    let unbatched = run_mode(
        BatchPolicy { window: Duration::ZERO, max_batch: 1, straggler_gap: Duration::ZERO },
        &args,
        &engines,
        0,
    );
    println!(
        "unbatched: {:7.1} req/s  {:6.2} GFLOP/s  (occupancy mean {:.2})",
        unbatched.rps, unbatched.gflops, unbatched.metrics.mean_occupancy
    );

    // Mode 2: cross-request micro-batching under blocking clients.
    let policy = BatchPolicy {
        window: Duration::from_micros(args.window_us),
        max_batch: args.max_batch.max(1),
        straggler_gap: Duration::from_micros(args.gap_us),
    };
    let batched = run_mode(policy, &args, &engines, 0);
    println!(
        "batched:   {:7.1} req/s  {:6.2} GFLOP/s  (occupancy mean {:.2}, max {}, {} batches)",
        batched.rps,
        batched.gflops,
        batched.metrics.mean_occupancy,
        batched.metrics.max_occupancy,
        batched.metrics.batches
    );

    // Mode 3: the same micro-batching policy under pipelined v2 clients —
    // each connection keeps `--pipeline` requests in flight, so the batch
    // window fills without needing one blocked OS thread per in-flight
    // request.
    let pipelined = run_mode(policy, &args, &engines, args.pipeline.max(1));
    println!(
        "pipelined: {:7.1} req/s  {:6.2} GFLOP/s  (occupancy mean {:.2}, max {}, {} batches)",
        pipelined.rps,
        pipelined.gflops,
        pipelined.metrics.mean_occupancy,
        pipelined.metrics.max_occupancy,
        pipelined.metrics.batches
    );
    let speedup = batched.rps / unbatched.rps;
    let pipelined_speedup = pipelined.rps / unbatched.rps;
    println!("batched/unbatched throughput:   {speedup:.2}x");
    println!("pipelined/unbatched throughput: {pipelined_speedup:.2}x");
    assert!(
        batched.metrics.max_occupancy > 1,
        "micro-batching never coalesced — policy or load misconfigured"
    );
    assert!(
        pipelined.metrics.max_occupancy > 1,
        "pipelined clients never coalesced — policy or load misconfigured"
    );

    let mut report = Report::new("serve_smoke");
    report
        .field("threads", int(args.threads as i64))
        .field("requests_per_thread", int(args.requests as i64))
        .field("window_us", int(args.window_us as i64))
        .field("gap_us", int(args.gap_us as i64))
        .field("max_batch", int(args.max_batch as i64))
        .field("pipeline_depth", int(args.pipeline as i64))
        .field("batched_speedup", num(speedup))
        .field("pipelined_speedup", num(pipelined_speedup));
    for (mode, result) in
        [("unbatched", &unbatched), ("batched", &batched), ("pipelined", &pipelined)]
    {
        let mut entries = vec![
            ("size", int(args.size as i64)),
            ("gflops", num(result.gflops)),
            ("mode", text(mode)),
            ("requests_per_sec", num(result.rps)),
            ("batches", int(result.metrics.batches as i64)),
            ("occupancy_mean", num(result.metrics.mean_occupancy)),
            ("occupancy_max", int(result.metrics.max_occupancy as i64)),
            ("rejects_busy", int(result.metrics.rejects_busy as i64)),
        ];
        entries.extend(latency_fields(&result.samples_secs));
        report.row(&entries);
    }
    let (s64, _s32) = (engines.0.stats(), engines.1.stats());
    report.field(
        "engine_f64",
        object(&[
            ("executions", int(s64.executions as i64)),
            ("batches", int(s64.batches as i64)),
            ("batch_items", int(s64.batch_items as i64)),
            ("rankings", int(s64.rankings as i64)),
        ]),
    );
    // The pipelined mode's full registry snapshot rides along in the
    // report, so trajectory tooling sees the per-phase histograms
    // (queue-wait, service, pack, kernel) without a live daemon.
    report.field("registry", pipelined.registry);
    report.write(&args.out);
}
