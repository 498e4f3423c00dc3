//! Runtime-toggleable tracing spans.
//!
//! Each thread that records gets its own bounded ring of
//! [`SpanEvent`]s (preallocated at first use, overwritten in place —
//! the warm path never allocates, which [`ring_allocations`] lets
//! tests prove). Rings register themselves in a process-global list so
//! [`recent`] can merge a cross-thread timeline for export. When a
//! thread exits its ring passes to the next thread that records, with
//! its events still readable, so short-lived worker threads do not each
//! leave a ring behind.
//!
//! The off switch is a single `AtomicBool`: when disabled, [`enabled`]
//! is one relaxed load and a branch, and every instrumentation site in
//! the stack is written as
//!
//! ```ignore
//! let t0 = trace::start();                    // 0 when disabled
//! ...work...
//! trace::finish(SpanKind::Kernel, req_id, t0); // early-returns on 0
//! ```
//!
//! so the disabled cost is two inlined load+branch pairs and no clock
//! reads, no locks, no writes — [`events_recorded`] stays flat, which
//! the disabled-path test pins down.
//!
//! Timestamps are monotonic nanoseconds since a process-wide epoch
//! (first use), so events from different threads order correctly.
//!
//! The recording entry points (`start`/`finish`/`mark`/`record`) carry
//! `fmm-check`'s `contract(warm-alloc-free)` (see README § Static
//! analysis); the one-time per-thread ring creation inside [`record`] is
//! the allowed exception, justified inline. Export paths (`recent`,
//! `chrome_trace`) are cold and may allocate.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Capacity of each per-thread event ring.
pub const RING_CAPACITY: usize = 4096;

/// The phases of a request's journey through the stack, top to bottom.
#[repr(u8)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// Frame fully decoded off the socket (event-loop thread).
    RequestRecv = 0,
    /// Admission control passed; job queued for dispatch.
    Admission = 1,
    /// Time spent queued before a dispatcher picked the job up.
    QueueWait = 2,
    /// Straggler-gap batch formation window.
    BatchForm = 3,
    /// Engine routing decision (model ranking / decision-cache miss).
    EngineDecision = 4,
    /// Execution-plan composition for a cache-missed shape.
    PlanCompose = 5,
    /// One scheduler task (submultiplication product).
    TaskExec = 6,
    /// GEMM operand packing (`pack_a_sum` / `pack_b_sum`).
    Pack = 7,
    /// GEMM macro-kernel execution.
    Kernel = 8,
    /// BFS merge phase (C-block accumulation).
    Merge = 9,
    /// Response frame handed to the connection write queue.
    ReplyFlush = 10,
}

impl SpanKind {
    pub const ALL: [SpanKind; 11] = [
        SpanKind::RequestRecv,
        SpanKind::Admission,
        SpanKind::QueueWait,
        SpanKind::BatchForm,
        SpanKind::EngineDecision,
        SpanKind::PlanCompose,
        SpanKind::TaskExec,
        SpanKind::Pack,
        SpanKind::Kernel,
        SpanKind::Merge,
        SpanKind::ReplyFlush,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SpanKind::RequestRecv => "RequestRecv",
            SpanKind::Admission => "Admission",
            SpanKind::QueueWait => "QueueWait",
            SpanKind::BatchForm => "BatchForm",
            SpanKind::EngineDecision => "EngineDecision",
            SpanKind::PlanCompose => "PlanCompose",
            SpanKind::TaskExec => "TaskExec",
            SpanKind::Pack => "Pack",
            SpanKind::Kernel => "Kernel",
            SpanKind::Merge => "Merge",
            SpanKind::ReplyFlush => "ReplyFlush",
        }
    }

    pub fn from_name(s: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One recorded span. `start_nanos == end_nanos` marks a point event.
#[derive(Clone, Copy, Debug)]
pub struct SpanEvent {
    pub kind: SpanKind,
    pub request_id: u64,
    pub start_nanos: u64,
    pub end_nanos: u64,
    /// Ordinal of the ring the event was written to (ring creation
    /// order), for timelines. A ring changes hands only when its thread
    /// lets go of it, so threads that run at the same time never share
    /// an ordinal.
    pub thread: u32,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EVENTS_RECORDED: AtomicU64 = AtomicU64::new(0);
static RING_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD_ORDINAL: AtomicU32 = AtomicU32::new(0);

/// Flip the global tracing switch.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is tracing on? One relaxed load; inlined at every call site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Monotonic nanoseconds since the process-wide trace epoch.
#[inline]
pub fn now_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Open a span: the current timestamp when tracing is on, 0 when off.
// fmm-check: contract(warm-alloc-free)
#[inline(always)]
pub fn start() -> u64 {
    if enabled() {
        now_nanos().max(1)
    } else {
        0
    }
}

/// Close a span opened by [`start`]. A no-op for `start_nanos == 0`
/// (tracing was off at open time) or if tracing has since been turned
/// off, so toggling mid-span never records a torn event.
// fmm-check: contract(warm-alloc-free)
#[inline]
pub fn finish(kind: SpanKind, request_id: u64, start_nanos: u64) {
    if start_nanos != 0 && enabled() {
        record(SpanEvent { kind, request_id, start_nanos, end_nanos: now_nanos(), thread: 0 });
    }
}

/// Record an instantaneous point event (e.g. `ReplyFlush`).
// fmm-check: contract(warm-alloc-free)
#[inline]
pub fn mark(kind: SpanKind, request_id: u64) {
    if enabled() {
        let t = now_nanos();
        record(SpanEvent { kind, request_id, start_nanos: t, end_nanos: t, thread: 0 });
    }
}

struct RingBuf {
    buf: Vec<SpanEvent>,
    next: usize,
}

struct Ring {
    ordinal: u32,
    inner: Mutex<RingBuf>,
}

impl Ring {
    /// Events oldest-to-newest.
    fn drain_ordered(&self) -> Vec<SpanEvent> {
        let inner = self.inner.lock().unwrap();
        if inner.buf.len() < RING_CAPACITY {
            inner.buf.clone()
        } else {
            let mut out = Vec::with_capacity(RING_CAPACITY);
            out.extend_from_slice(&inner.buf[inner.next..]);
            out.extend_from_slice(&inner.buf[..inner.next]);
            out
        }
    }
}

fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Rings whose threads let go of them, waiting for the next thread that
/// records.
fn free_rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static FREE: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    FREE.get_or_init(|| Mutex::new(Vec::new()))
}

/// This thread's ring, handed to [`free_rings`] when the thread exits
/// (before a join on it returns).
struct LocalRing(RefCell<Option<Arc<Ring>>>);

impl Drop for LocalRing {
    fn drop(&mut self) {
        // Never panic here (a thread-exit destructor): a poisoned list
        // keeps the ring out of reuse, nothing more.
        if let (Some(ring), Ok(mut free)) = (self.0.get_mut().take(), free_rings().lock()) {
            free.push(ring);
        }
    }
}

thread_local! {
    static LOCAL_RING: LocalRing = const { LocalRing(RefCell::new(None)) };
    static CURRENT_REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// Tag this thread with the request id it is currently working for;
/// lower layers (gemm, sched) stamp their spans with it. Returns the
/// previous tag so callers can restore it.
#[inline]
pub fn set_current_request(id: u64) -> u64 {
    CURRENT_REQUEST.with(|c| c.replace(id))
}

/// The request id this thread is currently working for (0 = none).
#[inline]
pub fn current_request() -> u64 {
    CURRENT_REQUEST.with(|c| c.get())
}

/// A ring for a thread's first event: a released one if any, else a new
/// ring registered in the global list.
fn adopt_ring() -> Arc<Ring> {
    if let Some(ring) = free_rings().lock().unwrap().pop() {
        return ring;
    }
    // fmm-check: allow(deny-alloc, reason = "one-time ring creation when no released ring is free; warm calls reuse it")
    let ring = Arc::new(Ring {
        ordinal: NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed),
        // fmm-check: allow(deny-alloc, reason = "one-time ring preallocation; warm writes overwrite in place")
        inner: Mutex::new(RingBuf { buf: Vec::with_capacity(RING_CAPACITY), next: 0 }),
    });
    RING_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    rings().lock().unwrap().push(Arc::clone(&ring));
    ring
}

/// Append an event to this thread's ring, adopting a ring on first use.
/// After the first call on a thread, this path performs zero heap
/// allocations: the ring `Vec` is preallocated to full capacity and old
/// events are overwritten in place. An event recorded while the thread's
/// locals are being torn down is dropped.
// fmm-check: contract(warm-alloc-free)
pub fn record(mut event: SpanEvent) {
    let _ = LOCAL_RING.try_with(|local| {
        let mut slot = local.0.borrow_mut();
        let ring = slot.get_or_insert_with(adopt_ring);
        event.thread = ring.ordinal;
        let mut inner = ring.inner.lock().unwrap();
        if inner.buf.len() < RING_CAPACITY {
            inner.buf.push(event); // within preallocated capacity
        } else {
            let at = inner.next;
            inner.buf[at] = event;
        }
        inner.next = (inner.next + 1) % RING_CAPACITY;
        EVENTS_RECORDED.fetch_add(1, Ordering::Relaxed);
    });
}

/// Total events ever written to any ring. Flat while tracing is
/// disabled — the "no recorder writes" proof used by tests.
pub fn events_recorded() -> u64 {
    EVENTS_RECORDED.load(Ordering::Relaxed)
}

/// Number of rings ever allocated. Flat across a warm serving run — the
/// "warm path is allocation-free" proof — and across threads that start
/// after others have exited.
pub fn ring_allocations() -> u64 {
    RING_ALLOCATIONS.load(Ordering::Relaxed)
}

/// Merge all per-thread rings into one timeline ordered by end time.
/// `limit == 0` means everything retained; otherwise the most recent
/// `limit` events.
pub fn recent(limit: usize) -> Vec<SpanEvent> {
    let rings = rings().lock().unwrap();
    let mut all: Vec<SpanEvent> = rings.iter().flat_map(|r| r.drain_ordered()).collect();
    drop(rings);
    all.sort_by_key(|e| (e.end_nanos, e.start_nanos));
    if limit > 0 && all.len() > limit {
        all.drain(..all.len() - limit);
    }
    all
}

/// Clear every ring's contents (capacity is retained). Test helper and
/// `trace --clear` backend.
pub fn clear() {
    for ring in rings().lock().unwrap().iter() {
        let mut inner = ring.inner.lock().unwrap();
        inner.buf.clear();
        inner.next = 0;
    }
}

/// Render events in the chrome://tracing "trace event" JSON format
/// (array form, complete `"X"` events, microsecond timestamps). Each
/// request id becomes a chrome thread so timelines group per request.
pub fn chrome_trace(events: &[SpanEvent]) -> String {
    use std::fmt::Write;
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let dur_us = (e.end_nanos - e.start_nanos) as f64 / 1e3;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"fmm\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"request_id\":{},\"thread\":{}}}}}",
            e.kind.name(),
            e.start_nanos as f64 / 1e3,
            dur_us,
            e.request_id,
            e.request_id,
            e.thread
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder state (switch, rings, counters) is process-global,
    // so every assertion about it lives in this one serialized test —
    // cargo runs #[test] fns in parallel threads and separate tests
    // would race on the shared switch.
    #[test]
    fn recorder_end_to_end() {
        // Disabled: no writes, no clock reads, start() hands out 0.
        set_enabled(false);
        let before = events_recorded();
        let t0 = start();
        assert_eq!(t0, 0);
        finish(SpanKind::Kernel, 1, t0);
        mark(SpanKind::ReplyFlush, 1);
        assert_eq!(events_recorded(), before, "disabled tracing must not write");

        // Enabled: events land in this thread's ring, stamped in order.
        set_enabled(true);
        clear();
        let t0 = start();
        assert!(t0 > 0);
        finish(SpanKind::QueueWait, 7, t0);
        mark(SpanKind::ReplyFlush, 7);
        let events = recent(0);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, SpanKind::QueueWait);
        assert_eq!(events[0].request_id, 7);
        assert!(events[0].start_nanos <= events[0].end_nanos);
        assert_eq!(events[1].kind, SpanKind::ReplyFlush);
        assert_eq!(events[1].start_nanos, events[1].end_nanos, "mark is a point event");
        assert!(events[0].end_nanos <= events[1].end_nanos, "timeline ordered by end");

        // Toggling off mid-span drops the event instead of tearing it.
        let t0 = start();
        set_enabled(false);
        let mid = events_recorded();
        finish(SpanKind::Kernel, 7, t0);
        assert_eq!(events_recorded(), mid);
        set_enabled(true);

        // Warm path never allocates a new ring and stays bounded.
        clear();
        let rings_before = ring_allocations();
        for i in 0..(2 * RING_CAPACITY as u64) {
            mark(SpanKind::TaskExec, i);
        }
        assert_eq!(ring_allocations(), rings_before, "warm recording must not allocate rings");
        let events = recent(0);
        assert_eq!(events.len(), RING_CAPACITY, "ring is bounded");
        // Oldest events were overwritten; the newest survive in order.
        assert_eq!(events.last().unwrap().request_id, 2 * RING_CAPACITY as u64 - 1);
        assert_eq!(events[0].request_id, RING_CAPACITY as u64);
        let limited = recent(16);
        assert_eq!(limited.len(), 16);
        assert_eq!(limited.last().unwrap().request_id, 2 * RING_CAPACITY as u64 - 1);

        // Cross-thread merge: another thread's ring shows up in recent().
        clear();
        mark(SpanKind::RequestRecv, 101);
        std::thread::spawn(|| mark(SpanKind::TaskExec, 202)).join().unwrap();
        let events = recent(0);
        let ids: Vec<u64> = events.iter().map(|e| e.request_id).collect();
        assert!(ids.contains(&101) && ids.contains(&202), "ids={ids:?}");
        let threads: Vec<u32> = events.iter().map(|e| e.thread).collect();
        assert!(threads[0] != threads[1] || events.len() != 2);

        // An exited thread's ring passes to the next new thread, and the
        // old thread's events stay readable.
        let rings_before = ring_allocations();
        for id in 301..311 {
            std::thread::spawn(move || mark(SpanKind::TaskExec, id)).join().unwrap();
        }
        assert_eq!(ring_allocations(), rings_before, "joined threads' rings are reused");
        let events = recent(0);
        assert!((202..=202).chain(301..311).all(|id| events.iter().any(|e| e.request_id == id)));

        // Request tagging is per-thread and restores.
        let prev = set_current_request(55);
        assert_eq!(current_request(), 55);
        set_current_request(prev);
        assert_eq!(current_request(), prev);

        // Chrome export is well-formed for the simple shapes we emit.
        clear();
        let t0 = start();
        finish(SpanKind::Pack, 3, t0);
        let json = chrome_trace(&recent(0));
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"Pack\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"request_id\":3"));

        set_enabled(false);
    }

    #[test]
    fn span_kind_names_roundtrip() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SpanKind::from_name("NoSuchPhase"), None);
    }
}
