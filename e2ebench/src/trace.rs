//! The benchmark's own span recorder. Spans are taken around the calls the
//! benchmark makes into each layer (never inside the program), kept in
//! memory, and written out when the run ends. Recording is off unless the
//! run was started with `--trace 1`; when off, opening a span costs one
//! atomic load.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval: `name` is `<layer>.<operation>`, times are
/// nanoseconds since the run's epoch, `parent` is 0 for a root span, and
/// `req` ties the spans of one request (or one timed call) together.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it is recorded when dropped or passed to [`Guard::end`].
pub struct Guard {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl Guard {
    /// This span's id, for children to name as their parent (0 when
    /// recording is off).
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn end(self) {}
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            push(self.id, self.parent, self.req, self.name, start, Instant::now());
        }
    }
}

/// Open a span named `name` under `parent` for request `req`.
pub fn open(name: &'static str, parent: u64, req: u64) -> Guard {
    if !enabled() {
        return Guard { id: 0, parent, req, name, start: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    Guard { id, parent, req, name, start: Some(Instant::now()) }
}

/// Record a span whose bounds were measured elsewhere (e.g. a request
/// timed from its scheduled send time). Returns its id.
pub fn record(name: &'static str, parent: u64, req: u64, start: Instant, end: Instant) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    push(id, parent, req, name, start, end);
    id
}

fn push(id: u64, parent: u64, req: u64, name: &'static str, start: Instant, end: Instant) {
    let span = Span {
        id,
        parent,
        req,
        name,
        start_ns: ns_since_epoch(start),
        end_ns: ns_since_epoch(end),
    };
    SPANS.lock().expect("span buffer poisoned").push(span);
}

/// Every span recorded so far, removed from the buffer.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Per span name: `(count, total ms, self ms)`, where a span's self time
/// is its duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children.get_mut(&s.id).map_or(0, |kids| covered_ns(kids, s));
        let row = out.entry(s.name).or_default();
        row.0 += 1;
        row.1 += dur as f64 * 1e-6;
        row.2 += dur.saturating_sub(covered) as f64 * 1e-6;
    }
    out
}

/// Length of the union of `kids` clipped to `parent`'s interval.
fn covered_ns(kids: &mut [(u64, u64)], parent: &Span) -> u64 {
    kids.sort_unstable();
    let mut covered = 0;
    let mut cursor = parent.start_ns;
    for &(start, end) in kids.iter() {
        let start = start.max(cursor);
        let end = end.min(parent.end_ns);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, req: 1, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "kid", 10, 40),
            span(3, 1, "kid", 30, 50),
            span(4, 1, "kid", 90, 120),
        ];
        let t = self_times(&spans);
        // Children cover [10, 50) and [90, 100): 50 of the root's 100 ns.
        assert_eq!(t["root"].0, 1);
        assert!((t["root"].2 - 50e-6).abs() < 1e-12);
        assert_eq!(t["kid"].0, 3);
        assert!((t["kid"].1 - 80e-6).abs() < 1e-12);
    }
}
