//! `serve-open`: an in-process daemon on loopback driven by a generator in
//! the same process.
//!
//! The generator is one thread driving up to two v2 connections (no more
//! than `nproc`): request `i` goes out on connection `i mod connections`.
//! Between sends it reads replies, matches them by request id and checks
//! them against precomputed references.
//!
//! A run has two timed phases after set-up, half of the run each:
//! * the nominal open-loop rate: request `i` is due `i / rate` seconds in
//!   and is sent then whatever the replies are doing; latency runs from
//!   the due time. `latency_ms_p50` comes from here;
//! * a closed-loop phase on the first connection, which keeps
//!   [`CLOSED_DEPTH`] requests outstanding; latency runs from the send. `rate_max_rps` and the
//!   served `gflops_*` come from here, so those three are one throughput.
//!
//! A traced run then climbs the rest of the open-loop ladder for the
//! per-layer `openloop.rate_max_rps`. Latency quantiles are taken per
//! window of consecutive requests ([`WINDOW`] for the p99, so that each
//! window's p99 has ten samples beyond it; [`MEDIAN_WINDOW`] for the p50)
//! and reported as the median over windows, so a slow spell of the host
//! that covers less than half of a phase does not move them.

use crate::compute::{stats_delta, Engines};
use crate::layers::{self, Dtype, Probe, ShapeRecord};
use crate::util::{self, check, flops, median, percentile, Footprint, Rng};
use crate::{trace, Metric, Outcome};
use fmm_core::json::Value;
use fmm_dense::{fill, Matrix};
use fmm_engine::ArchSource;
use fmm_gemm::GemmScalar;
use fmm_serve::protocol::{self, FrameKind, HEADER_LEN, HEADER_LEN_V2, VERSION_V2};
use fmm_serve::{ErrorCode, ServeConfig, Server, ServerHandle, WireScalar};
use std::collections::BTreeMap;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

/// The request mix: dtype, cube edge, share.
const MIX: [(Dtype, usize, f64); 5] = [
    (Dtype::F64, 32, 0.5),
    (Dtype::F64, 64, 0.2),
    (Dtype::F64, 128, 0.1),
    (Dtype::F32, 32, 0.1),
    (Dtype::F32, 64, 0.1),
];

/// The open-loop ladder besides the nominal rate, in req/s, ascending.
const LADDER: [f64; 4] = [2000.0, 3000.0, 4000.0, 6000.0];

/// The rate the latency is gated at: the ladder's lowest rung, about a
/// fifth of the closed-loop throughput. On a 2-vCPU KVM guest at 12–30%
/// hypervisor steal, 2000 req/s (two fifths) drew `Busy` refusals in two
/// of three runs and a p50 of 1.7–6.8 ms against 0.94 ms at 2% steal;
/// 1000 req/s drew none, and a p50 of 0.95–1.43 ms against 0.74–0.83 ms.
const NOMINAL_RPS: f64 = 1000.0;

/// Shares of the run: the nominal rate and the closed-loop phase; a traced
/// run adds each other ladder rung.
const NOMINAL_SHARE: f64 = 0.5;
const CLOSED_SHARE: f64 = 0.5;
const RUNG_SHARE: f64 = 0.1;

/// The generator's connections at most (and never more than `nproc`).
/// Its one thread leaves the other cores to the daemon's event loops and
/// dispatchers. The open-loop phases spread requests over two connections
/// because the daemon admits at most 64 in flight per connection: at
/// 2000 req/s, the ladder's second rung, a 32 ms stall fills one
/// connection. On a 2-vCPU KVM guest at that rate a single connection drew
/// 18 `Busy` refusals in a run whose worst window p99 was 41 ms (1%
/// steal), while two had none up to a 64 ms window p99.
const MAX_CONNS: usize = 2;

/// Requests the connection keeps outstanding in the closed-loop phase: the
/// deepest power of two whose windowed p99 stayed near [`P99_LIMIT_MS`],
/// so the phase's throughput stands for the highest rate that meets the
/// limit. Measured over four 4 s closed-loop runs per depth on one
/// connection, on
/// a 2-vCPU KVM guest (Xeon, 105 MiB LLC): p99 5.3–10.8 ms at 16 and
/// 9.1–15.2 ms at 32. At the nominal rate a connection has only 2–4 requests
/// outstanding (Little's law on a 1.1–2.0 ms mean latency), and the
/// daemon's per-connection admission bound is 64.
const CLOSED_DEPTH: usize = 16;

/// Upper bound on the closed-loop rate, used to size the request list.
const CLOSED_MAX_RPS: f64 = 20_000.0;

/// A rung passes when its windowed p99, failed requests counting as
/// missing it, is within this limit and the backlog did not grow.
const P99_LIMIT_MS: f64 = 10.0;

/// Open-loop traffic at the nominal rate after the last set-up, outside
/// `setup_s`, so buffer pools and pooled contexts reach their steady
/// sizes before the timed phases.
const WARMUP: Duration = Duration::from_millis(500);

/// Consecutive requests per statistics window of a tail quantile.
const WINDOW: usize = 1000;

/// Consecutive requests per statistics window of the median: a quarter of
/// a second at the nominal rate, so that slow spells of the host shorter
/// than that fall in few windows.
const MEDIAN_WINDOW: usize = 250;

/// Distinct operand pairs per mix class.
const POOL: usize = 8;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Longest the generator waits for stragglers after its last send.
const DRAIN: Duration = Duration::from_secs(3);

/// Largest reply payload accepted (a 128³ f64 reply is 128 KiB).
const MAX_PAYLOAD: usize = 1 << 20;

/// One request's operands, encoded payload and reference product.
struct Operands {
    dtype: Dtype,
    edge: usize,
    payload: Vec<u8>,
    reference: Reference,
}

enum Reference {
    F64(Matrix<f64>),
    F32(Matrix<f32>),
}

fn operands<T: WireScalar>(
    edge: usize,
    seed: u64,
    wrap: fn(Matrix<T>) -> Reference,
) -> (Vec<u8>, Reference) {
    let a = fill::bench_workload_t::<T>(edge, edge, seed);
    let b = fill::bench_workload_t::<T>(edge, edge, seed ^ 0x5bd1_e995);
    let mut c = Matrix::zeros(edge, edge);
    fmm_gemm::gemm(c.as_mut(), a.as_ref(), b.as_ref());
    (protocol::encode_request(&a, &b), wrap(c))
}

impl Operands {
    fn new(dtype: Dtype, edge: usize, seed: u64) -> Self {
        let (payload, reference) = match dtype {
            Dtype::F64 => operands::<f64>(edge, seed, Reference::F64),
            Dtype::F32 => operands::<f32>(edge, seed, Reference::F32),
        };
        Operands { dtype, edge, payload, reference }
    }

    /// Whether a response payload decodes to the reference product.
    fn verify(&self, payload: &[u8]) -> bool {
        fn ok<T: WireScalar>(payload: &[u8], reference: &Matrix<T>, k: usize) -> bool {
            protocol::decode_response::<T>(payload).is_ok_and(|c| check(&c, reference, k).is_ok())
        }
        match &self.reference {
            Reference::F64(r) => ok(payload, r, self.edge),
            Reference::F32(r) => ok(payload, r, self.edge),
        }
    }
}

/// How one request ended.
#[derive(Clone, Copy, Default)]
struct Reply {
    /// Due time (open loop) or send (closed loop) to verified reply, in
    /// ms; `None` when the request failed or never got a reply.
    latency_ms: Option<f64>,
    /// When the reply arrived, in seconds since the phase began.
    done_s: f64,
    busy: bool,
    wrong: bool,
}

/// What one phase (a ladder rung, or the closed-loop phase) measured.
struct Rung {
    rate: f64,
    /// Operand index of every request, in due order.
    requests: Vec<usize>,
    replies: Vec<Reply>,
    lag_ms: Vec<f64>,
    cpu_s: f64,
}

impl Rung {
    fn latencies(replies: &[Reply]) -> Vec<f64> {
        replies.iter().filter_map(|r| r.latency_ms).collect()
    }

    fn failed(&self) -> usize {
        self.replies.iter().filter(|r| r.latency_ms.is_none()).count()
    }

    fn wrong(&self) -> usize {
        self.replies.iter().filter(|r| r.wrong).count()
    }

    /// Index ranges of the statistics windows: whole windows of `size`
    /// requests, the last one absorbing the remainder.
    fn windows(&self, size: usize) -> Vec<std::ops::Range<usize>> {
        let len = self.replies.len();
        let count = (len / size).max(1);
        (0..count).map(|w| w * size..if w + 1 == count { len } else { (w + 1) * size }).collect()
    }

    /// Median over [`MEDIAN_WINDOW`] windows of the window's median latency
    /// of completed requests.
    fn p50_ms(&self) -> f64 {
        self.windowed(0.5, MEDIAN_WINDOW, |r| r.latency_ms)
    }

    /// Median over [`WINDOW`] windows of the window's p99 latency of
    /// completed requests.
    fn p99_ms(&self) -> f64 {
        self.windowed(0.99, WINDOW, |r| r.latency_ms)
    }

    /// [`Rung::p99_ms`] with every failed or refused request counted as
    /// missing the limit (an infinite latency), the tail the ladder is
    /// judged on.
    fn tail_ms(&self) -> f64 {
        self.windowed(0.99, WINDOW, |r| Some(r.latency_ms.unwrap_or(f64::INFINITY)))
    }

    fn windowed(&self, p: f64, size: usize, latency: impl Fn(&Reply) -> Option<f64>) -> f64 {
        let quantiles: Vec<f64> = self
            .windows(size)
            .into_iter()
            .map(|w| {
                let lat: Vec<f64> = self.replies[w].iter().filter_map(&latency).collect();
                percentile(&lat, p)
            })
            .collect();
        median(&quantiles)
    }

    /// The backlog grew when the last window's median latency exceeds the
    /// first window's by more than the p99 limit.
    fn backlog_grew(&self) -> bool {
        let windows = self.windows(WINDOW);
        let p50 = |w: &std::ops::Range<usize>| median(&Self::latencies(&self.replies[w.clone()]));
        p50(&windows[windows.len() - 1]) - p50(&windows[0]) > P99_LIMIT_MS
    }

    fn passes(&self) -> bool {
        self.tail_ms() <= P99_LIMIT_MS && !self.backlog_grew()
    }
}

/// How a phase offers load.
#[derive(Clone, Copy)]
enum Load {
    /// Open loop: request `i` is due `i / rate` seconds into the phase.
    Rate(f64),
    /// Closed loop: every connection keeps this many requests outstanding.
    Closed(usize),
}

/// The schedule one phase offers.
struct Schedule<'a> {
    pool: &'a [Operands],
    requests: &'a [usize],
    closed: Option<usize>,
    t0: Instant,
    gap: Duration,
    /// No request is sent after this.
    stop: Instant,
    first_id: u64,
    /// Traced runs trace requests due in odd windows of this length.
    trace_window: Option<Duration>,
}

impl Schedule<'_> {
    fn due(&self, i: usize) -> Instant {
        self.t0 + self.gap * i as u32
    }

    fn traced(&self, i: usize) -> bool {
        self.trace_window.is_some_and(|w| (self.gap * i as u32).as_nanos() / w.as_nanos() % 2 == 1)
    }
}

/// What the generator sent and received in one phase.
struct Driven {
    sent: Vec<usize>,
    replies: Vec<(usize, Reply)>,
    /// Send time minus due time, open loop only.
    lag_ms: Vec<f64>,
    cpu_s: f64,
}

/// Drive the requests of `s` from the calling thread, request `i` over
/// `conns[i % conns.len()]`. Open-loop latency runs from the due time,
/// closed-loop latency from the send.
fn drive(conns: &[TcpStream], s: &Schedule<'_>) -> Driven {
    // A remote client would not wait for the daemon's threads to yield a
    // core; at a higher priority the in-process one mostly does not either.
    util::raise_thread_priority();
    let cpu0 = util::thread_cpu_s();
    let (len, lanes) = (s.requests.len(), conns.len());
    let mut sent_at = vec![None; len];
    let mut out = Driven { sent: Vec::new(), replies: Vec::new(), lag_ms: Vec::new(), cpu_s: 0.0 };
    let (mut next, mut pending) = (0, vec![0; lanes]);
    let mut frames = vec![Vec::new(); lanes];
    let mut inbufs: Vec<Vec<u8>> = vec![Vec::new(); lanes];
    let mut chunk = vec![0u8; 1 << 18];
    let fds: Vec<RawFd> = conns.iter().map(AsRawFd::as_raw_fd).collect();
    let deadline = s.stop + DRAIN;
    'run: loop {
        let now = Instant::now();
        while next < len
            && match s.closed {
                Some(depth) => pending[next % lanes] < depth && now < s.stop,
                None => s.due(next) <= now,
            }
        {
            let (i, lane) = (next, next % lanes);
            let id = s.first_id + i as u64;
            let payload = &s.pool[s.requests[i]].payload;
            protocol::write_frame_v(&mut frames[lane], VERSION_V2, id, FrameKind::Request, payload)
                .expect("encode a request frame");
            if s.closed.is_none() {
                out.lag_ms.push(now.saturating_duration_since(s.due(i)).as_secs_f64() * 1e3);
            }
            sent_at[i] = Some(now);
            out.sent.push(i);
            next += 1;
            pending[lane] += 1;
        }
        for (mut conn, batch) in conns.iter().zip(&mut frames) {
            if !batch.is_empty() {
                conn.write_all(batch).expect("send request frames");
                batch.clear();
            }
        }
        let now = Instant::now();
        let done_sending = next == len || (s.closed.is_some() && now >= s.stop);
        if pending.iter().all(|&p| p == 0) && done_sending || now >= deadline {
            break;
        }
        let until = match s.closed {
            _ if done_sending => deadline,
            Some(_) => s.stop,
            None => s.due(next),
        };
        let ready = util::wait_readable(&fds, until.saturating_duration_since(now));
        for (lane, mut conn) in conns.iter().enumerate().filter(|&(l, _)| ready & 1 << l != 0) {
            match conn.read(&mut chunk) {
                Ok(0) => break 'run,
                Ok(n) => inbufs[lane].extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("reading replies: {e}"),
            }
            let done = Instant::now();
            let inbuf = &mut inbufs[lane];
            let mut start = 0;
            while let Some((id, kind, payload)) = next_frame(&inbuf[start..]) {
                start += HEADER_LEN_V2 + payload.len();
                let index = id.checked_sub(s.first_id).map(|i| i as usize);
                let Some(i) = index.filter(|&i| sent_at.get(i).is_some_and(Option::is_some)) else {
                    continue;
                };
                pending[lane] -= 1;
                let origin = if s.closed.is_some() { sent_at[i].unwrap_or(done) } else { s.due(i) };
                let ops = &s.pool[s.requests[i]];
                let done_s = done.saturating_duration_since(s.t0).as_secs_f64();
                let reply = match kind {
                    FrameKind::Response if ops.verify(payload) => {
                        let verified = Instant::now();
                        if s.traced(i) {
                            let root = trace::record("serve.request", 0, id, origin, verified);
                            let sent = sent_at[i].unwrap_or(origin);
                            trace::record("loadgen.send", root, id, origin, sent);
                            trace::record("bench.check", root, id, done, verified);
                        }
                        let latency = done.saturating_duration_since(origin);
                        let latency_ms = Some(latency.as_secs_f64() * 1e3);
                        Reply { latency_ms, done_s, ..Reply::default() }
                    }
                    FrameKind::Response => Reply { wrong: true, done_s, ..Reply::default() },
                    _ => {
                        let (code, _) = protocol::decode_error(payload);
                        Reply { busy: code == ErrorCode::Busy, done_s, ..Reply::default() }
                    }
                };
                out.replies.push((i, reply));
            }
            inbuf.drain(..start);
        }
    }
    out.cpu_s = util::thread_cpu_s() - cpu0;
    out
}

/// The first complete v2 frame in `buf`: `(request id, kind, payload)`.
///
/// # Panics
/// On a malformed header: the daemon only ever sends valid frames.
fn next_frame(buf: &[u8]) -> Option<(u64, FrameKind, &[u8])> {
    let header: &[u8; HEADER_LEN_V2] = buf.get(..HEADER_LEN_V2)?.try_into().ok()?;
    let prefix: &[u8; HEADER_LEN] = header[..HEADER_LEN].try_into().ok()?;
    let info = protocol::parse_header_prefix(prefix, MAX_PAYLOAD).expect("a valid reply header");
    assert_eq!(info.version, VERSION_V2, "replies on a v2 connection are v2 frames");
    let id = u64::from_le_bytes(header[HEADER_LEN..].try_into().ok()?);
    let payload = buf.get(HEADER_LEN_V2..HEADER_LEN_V2 + info.payload_len)?;
    Some((id, info.kind, payload))
}

/// Offer `load` for `duration` over `conns`, request ids starting at
/// `first_id`. A closed-loop phase's `rate` is the completed requests per
/// second.
fn run_rung(
    conns: &[TcpStream],
    pool: &[Operands],
    rng: &mut Rng,
    (load, duration): (Load, Duration),
    first_id: u64,
    trace_window: Option<Duration>,
) -> Rung {
    let (rate, closed) = match load {
        Load::Rate(rate) => (rate, None),
        Load::Closed(depth) => (CLOSED_MAX_RPS, Some(depth)),
    };
    let count = ((rate * duration.as_secs_f64()) as usize).max(1);
    let requests: Vec<usize> = (0..count).map(|_| pick(rng)).collect();
    let t0 = Instant::now() + Duration::from_millis(2);
    let gap = Duration::from_secs_f64(1.0 / rate);
    let schedule = Schedule {
        pool,
        requests: &requests,
        closed,
        t0,
        gap,
        stop: if closed.is_some() { t0 + duration } else { t0 + gap * (count - 1) as u32 },
        first_id,
        trace_window,
    };
    let driven = std::thread::scope(|scope| {
        scope.spawn(|| drive(conns, &schedule)).join().expect("the load generator")
    });
    let mut outcome = vec![None; count];
    for &i in &driven.sent {
        outcome[i] = Some(Reply::default());
    }
    for &(i, reply) in &driven.replies {
        outcome[i] = Some(reply);
    }
    let Driven { lag_ms, cpu_s, .. } = driven;
    let (requests, replies): (Vec<usize>, Vec<Reply>) =
        requests.into_iter().zip(outcome).filter_map(|(q, r)| r.map(|r| (q, r))).unzip();
    let rate = match load {
        Load::Rate(rate) => rate,
        Load::Closed(_) => {
            replies.iter().filter(|r| r.latency_ms.is_some()).count() as f64
                / duration.as_secs_f64()
        }
    };
    Rung { rate, requests, replies, lag_ms, cpu_s }
}

/// A mix class index drawn by share, then one of its `POOL` operand pairs.
fn pick(rng: &mut Rng) -> usize {
    let mut u = rng.unit();
    let mut class = MIX.len() - 1;
    for (i, &(_, _, share)) in MIX.iter().enumerate() {
        if u < share {
            class = i;
            break;
        }
        u -= share;
    }
    class * POOL + rng.range(0, POOL - 1)
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        tuned: false,
        arch: ArchSource::Fixed(crate::env::arch()),
        trace: false,
        ..ServeConfig::default()
    }
}

/// Spawn the daemon, open the generator's connections and send one
/// request of every class on each synchronously, so the first rankings
/// and plan compositions happen here and not in front of timed traffic.
fn set_up(pool: &[Operands]) -> (ServerHandle, Vec<TcpStream>) {
    let handle = Server::spawn(serve_config()).expect("spawn the daemon");
    let conns: Vec<TcpStream> = (0..crate::env::nproc().min(MAX_CONNS))
        .map(|_| {
            let conn = TcpStream::connect(handle.addr()).expect("connect to the daemon");
            conn.set_nodelay(true).expect("set TCP_NODELAY");
            conn
        })
        .collect();
    for (lane, conn) in conns.iter().enumerate() {
        let mut reader = BufReader::new(conn);
        let mut writer = conn;
        for (i, ops) in pool.iter().enumerate().step_by(POOL) {
            let id = (lane * pool.len() + i) as u64 + 1;
            protocol::write_frame_v(&mut writer, VERSION_V2, id, FrameKind::Request, &ops.payload)
                .expect("send a warm-up request");
            let frame =
                protocol::read_frame_any(&mut reader, MAX_PAYLOAD).expect("read a warm-up reply");
            assert!(
                frame.request_id == id
                    && frame.kind == FrameKind::Response
                    && ops.verify(&frame.payload),
                "warm-up reply for a {}³ {} request is wrong",
                ops.edge,
                ops.dtype.name()
            );
        }
    }
    (handle, conns)
}

pub fn serve_open(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut rng = Rng::new(seed);
    let pool: Vec<Operands> = MIX
        .iter()
        .flat_map(|&(dtype, edge, _)| (0..POOL).map(move |_| (dtype, edge)))
        .map(|(dtype, edge)| Operands::new(dtype, edge, rng.next_u64()))
        .collect();

    let mut memory = Footprint::new();
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        if let Some((handle, conns)) = live.take() {
            drop(conns);
            ServerHandle::shutdown(handle);
        }
        // A daemon that shut down leaves about 155 MiB of heap allocated,
        // so the baseline is retaken before each set-up and the last
        // daemon's footprint is the one reported. The operand pool is in
        // the baseline.
        memory = Footprint::new();
        memory.begin();
        let _span = trace::open("bench.setup", 0, 0);
        let t = Instant::now();
        live = Some(set_up(&pool));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (handle, conns) = live.expect("at least one set-up");
    let conns_used = conns.len();
    let warm = run_rung(&conns, &pool, &mut rng, (Load::Rate(NOMINAL_RPS), WARMUP), 1 << 20, None);
    let stats_before = handle.engine_stats();

    // Phases, in order: the nominal open-loop rate (the daemon's lifetime
    // metrics are read right after it, so they describe it), the
    // closed-loop phase, then, traced only, the rest of the ladder,
    // climbing, so the overloaded top rungs leave nothing behind. A traced
    // run traces the nominal phase in alternating one-second windows; the
    // difference between them is the tracing cost.
    let total = Duration::from_secs(seconds);
    let window = traced.then(|| Duration::from_secs(1));
    let mut first_id = 1 << 24;
    let mut phase = |conns: &[TcpStream], load: Load, share: f64, window: Option<Duration>| {
        let rung = run_rung(conns, &pool, &mut rng, (load, total.mul_f64(share)), first_id, window);
        first_id += 1 << 24;
        rung
    };
    let nominal = phase(&conns, Load::Rate(NOMINAL_RPS), NOMINAL_SHARE, window);
    let snapshot = handle.metrics().snapshot();
    let stats_after = handle.engine_stats();
    // The daemon's footprint through set-up, warm traffic and the nominal
    // rate; it counts the generator's lists for the nominal phase (about
    // 100 bytes a request), not the closed loop's.
    memory.end(0);
    let closed = phase(&conns[..1], Load::Closed(CLOSED_DEPTH), CLOSED_SHARE, None);
    let ladder: Vec<Rung> = if traced {
        LADDER.iter().map(|&rate| phase(&conns, Load::Rate(rate), RUNG_SHARE, None)).collect()
    } else {
        Vec::new()
    };
    drop(conns);
    handle.shutdown();

    let nominal_latencies = Rung::latencies(&nominal.replies);
    // Errors, `Busy` refusals and wrong results of both timed phases.
    let attempted = (nominal.replies.len() + closed.replies.len()) as u64;
    let failed = (nominal.failed() + closed.failed()) as u64;
    let wrong =
        [&warm, &nominal, &closed].into_iter().chain(&ladder).map(Rung::wrong).sum::<usize>();
    let [gflops_f64, gflops_f32, rate] =
        closed_figures(&closed, &pool, total.mul_f64(CLOSED_SHARE));

    let mut report = BTreeMap::new();
    report.insert("latency_samples".into(), Value::Int(nominal_latencies.len() as i64));
    report.insert("connections".into(), Value::Int(conns_used as i64));
    report.insert("closed_depth".into(), Value::Int(CLOSED_DEPTH as i64));
    let setup_values = setups.iter().copied().map(Value::Number).collect();
    report.insert("setup_s_all".into(), Value::Array(setup_values));
    report.insert("nominal".into(), rung_json(&nominal));
    report.insert("closed".into(), rung_json(&closed));
    let mut capacity_rps = 0.0;
    if traced {
        let mut climb: Vec<&Rung> = ladder.iter().collect();
        climb.insert(ladder.partition_point(|r| r.rate < NOMINAL_RPS), &nominal);
        capacity_rps = capacity(&climb);
        report.insert("ladder".into(), Value::Array(climb.iter().map(|r| rung_json(r)).collect()));
        report.insert("open_loop_capacity_rps".into(), Value::Number(capacity_rps));
    }

    let engines = Engines::new(true);
    let shapes = shape_records(&engines, &pool);
    report.insert("decisions".into(), layers::decisions_json(&shapes));

    let mut out = Outcome {
        attempted,
        failed,
        wrong: wrong as u64,
        end_to_end: vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("gflops_f64", gflops_f64, "GFLOP/s"),
            Metric::new("gflops_f32", gflops_f32, "GFLOP/s"),
            Metric::new("latency_ms_p50", nominal.p50_ms(), "ms"),
            Metric::new("rate_max_rps", rate, "req/s"),
            Metric::new("ok_frac", 1.0 - failed as f64 / attempted as f64, "ratio"),
            Metric::new("peak_heap_mb", memory.peak_mb(), "MiB"),
        ],
        per_layer: Vec::new(),
        report,
    };
    if traced {
        let deltas = stats_delta(stats_before.into(), stats_after.into());
        let mut probe = Probe::new(true, shapes, deltas);
        probe.parallel_gemm = false;
        let client_p50_us = percentile(&nominal_latencies, 0.5) * 1e3;
        probe.serve = [
            snapshot.queue_wait.p50_ms * 1e3,
            snapshot.queue_wait.p99_ms * 1e3,
            snapshot.service.p50_ms * 1e3,
            snapshot.service.p99_ms * 1e3,
            client_p50_us - snapshot.latency.p50_ms * 1e3,
            snapshot.mean_occupancy,
            snapshot.rejects_busy as f64,
        ];
        probe.open_loop = [percentile(&nominal_latencies, 0.5), nominal.p99_ms(), capacity_rps];
        probe.loadgen_lag_ms_p99 = percentile(&nominal.lag_ms, 0.99);
        probe.loadgen_cpu_s = nominal.cpu_s;
        probe.trace_overhead = trace_overhead(&nominal);
        out.per_layer = probe.run(&engines);
    }
    out
}

/// The closed-loop figures, each the median over one-second slices of the
/// phase (by completion time): served GFLOP/s of f64 and of f32, and
/// completed requests per second. A slow spell of the host that covers
/// less than half of the phase does not move them.
fn closed_figures(rung: &Rung, pool: &[Operands], duration: Duration) -> [f64; 3] {
    let secs = duration.as_secs_f64();
    let count = (secs.round() as usize).max(1);
    let slice_s = secs / count as f64;
    /// Flops served per dtype (f64, f32) and requests completed in one
    /// slice.
    #[derive(Clone, Copy, Default)]
    struct Slice {
        flops: [f64; 2],
        completed: f64,
    }
    let mut slices = vec![Slice::default(); count];
    for (&q, reply) in rung.requests.iter().zip(&rung.replies) {
        let Some(slice) = slices.get_mut((reply.done_s / slice_s) as usize) else { continue };
        if reply.latency_ms.is_none() {
            continue;
        }
        let ops = &pool[q];
        slice.flops[(ops.dtype == Dtype::F32) as usize] += flops(ops.edge, ops.edge, ops.edge);
        slice.completed += 1.0;
    }
    let med = |f: &dyn Fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    [
        med(&|s| s.flops[0] / slice_s / 1e9),
        med(&|s| s.flops[1] / slice_s / 1e9),
        med(&|s| s.completed / slice_s),
    ]
}

/// The highest rate that meets the limit: the highest passing rung, moved
/// towards the next rung by linear interpolation of the windowed tail to
/// where it crosses [`P99_LIMIT_MS`]. Interpolating keeps a rung that sits
/// right at the limit from flipping the result between two ladder rates.
fn capacity(rungs: &[&Rung]) -> f64 {
    let Some(k) = rungs.iter().rposition(|r| r.passes()) else {
        // Nothing passes: scale the lowest rate down by how far it misses.
        return rungs[0].rate * (P99_LIMIT_MS / rungs[0].tail_ms()).min(1.0);
    };
    let Some(next) = rungs.get(k + 1) else { return rungs[k].rate };
    let (low, high) = (rungs[k].tail_ms(), next.tail_ms());
    let share = if high > P99_LIMIT_MS { (P99_LIMIT_MS - low) / (high - low) } else { 0.0 };
    rungs[k].rate + (next.rate - rungs[k].rate) * share.clamp(0.0, 1.0)
}

/// Median latency of traced windows over that of untraced ones, minus one.
fn trace_overhead(rung: &Rung) -> f64 {
    let gap = 1.0 / rung.rate;
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for (i, r) in rung.replies.iter().enumerate() {
        if let Some(ms) = r.latency_ms {
            if (i as f64 * gap) as u64 % 2 == 1 {
                on.push(ms);
            } else {
                off.push(ms);
            }
        }
    }
    median(&on) / median(&off) - 1.0
}

fn rung_json(r: &Rung) -> Value {
    let num = Value::Number;
    let lat = Rung::latencies(&r.replies);
    let busy = r.replies.iter().filter(|x| x.busy).count();
    let mut m = BTreeMap::new();
    m.insert("rate_rps".to_string(), num(r.rate));
    m.insert("attempted".to_string(), Value::Int(r.replies.len() as i64));
    m.insert("failed".to_string(), Value::Int(r.failed() as i64));
    m.insert("busy".to_string(), Value::Int(busy as i64));
    m.insert("windows".to_string(), Value::Int(r.windows(WINDOW).len() as i64));
    m.insert("latency_ms_p50_pooled".to_string(), num(percentile(&lat, 0.5)));
    m.insert("latency_ms_p50_windowed".to_string(), num(r.p50_ms()));
    m.insert("latency_ms_p90_pooled".to_string(), num(percentile(&lat, 0.90)));
    m.insert("latency_ms_p99_pooled".to_string(), num(percentile(&lat, 0.99)));
    m.insert("latency_ms_p99_windowed".to_string(), num(r.p99_ms()));
    let tail = r.tail_ms();
    m.insert(
        "tail_ms".to_string(),
        if tail.is_finite() { num(tail) } else { Value::String("inf".into()) },
    );
    m.insert("lag_ms_p99".to_string(), num(percentile(&r.lag_ms, 0.99)));
    m.insert("loadgen_cpu_s".to_string(), num(r.cpu_s));
    m.insert("backlog_grew".to_string(), Value::Int(r.backlog_grew() as i64));
    m.insert("passes".to_string(), Value::Int(r.passes() as i64));
    let per_window = |size: usize, p: f64| {
        let windows = r.windows(size).into_iter();
        Value::Array(windows.map(|w| num(percentile(&Rung::latencies(&r.replies[w]), p))).collect())
    };
    m.insert("window_p99_ms".to_string(), per_window(WINDOW, 0.99));
    m.insert("window_p50_ms".to_string(), per_window(MEDIAN_WINDOW, 0.5));
    Value::Object(m)
}

/// The routing label of every mix shape on an engine configured like the
/// daemon's, and its median warm call time there.
fn shape_records(engines: &Engines, pool: &[Operands]) -> Vec<ShapeRecord> {
    fn warm<T: GemmScalar>(engine: &fmm_engine::FmmEngine<T>, s: usize) -> f64 {
        let a = fill::bench_workload_t::<T>(s, s, 1);
        let b = fill::bench_workload_t::<T>(s, s, 2);
        let mut c = Matrix::zeros(s, s);
        engine.prepare(s, s, s);
        engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
        let times: Vec<f64> = (0..20)
            .map(|_| {
                let t = Instant::now();
                engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&times)
    }
    pool.iter()
        .step_by(POOL)
        .map(|ops| {
            let s = ops.edge;
            let warm_secs = match ops.dtype {
                Dtype::F64 => warm(&engines.f64, s),
                Dtype::F32 => warm(&engines.f32, s),
            };
            let label = engines.label(ops.dtype, (s, s, s));
            ShapeRecord { dtype: ops.dtype, shape: (s, s, s), label, warm_secs }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_catches_a_corrupted_reply() {
        fn corrupted<T: WireScalar>(c: &Matrix<T>) -> [Vec<u8>; 3] {
            // Negate the entry of largest magnitude, and poison another.
            let (mut worst, mut at) = (0.0, (0, 0));
            for j in 0..c.cols() {
                for i in 0..c.rows() {
                    if c.get(i, j).to_f64().abs() > worst {
                        (worst, at) = (c.get(i, j).to_f64().abs(), (i, j));
                    }
                }
            }
            let mut negated = c.clone();
            negated.set(at.0, at.1, T::from_f64(-c.get(at.0, at.1).to_f64()));
            let mut poisoned = c.clone();
            poisoned.set(0, 0, T::from_f64(f64::NAN));
            let good = protocol::encode_response(c);
            let truncated = good[..good.len() - 4].to_vec();
            [protocol::encode_response(&negated), protocol::encode_response(&poisoned), truncated]
        }
        for (dtype, edge) in [(Dtype::F64, 32), (Dtype::F32, 64)] {
            let ops = Operands::new(dtype, edge, 9);
            let (good, bad) = match &ops.reference {
                Reference::F64(c) => (protocol::encode_response(c), corrupted(c)),
                Reference::F32(c) => (protocol::encode_response(c), corrupted(c)),
            };
            assert!(ops.verify(&good));
            for reply in bad {
                assert!(!ops.verify(&reply), "a corrupted {} reply passed", dtype.name());
            }
        }
    }
}
