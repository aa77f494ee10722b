//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, parent and request id. Spans are
//! recorded only while tracing is on, kept in memory, and written out
//! once when the run ends. A layer's *self time* is its span's duration
//! minus the part of that interval its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans of this thread, innermost last: the parent of a new span.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; closing happens on drop.
pub struct Guard {
    open: Option<(u64, Option<u64>, &'static str, u64, u64)>,
}

/// Opens a span named `name` for `request` under the thread's
/// innermost open span. A no-op while tracing is off.
pub fn span(name: &'static str, request: u64) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Guard {
        open: Some((id, parent, name, request, now_ns())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, request, start_ns)) = self.open.take() {
            let end_ns = now_ns();
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|&x| x == id) {
                    s.truncate(pos);
                }
            });
            if let Ok(mut spans) = SPANS.lock() {
                spans.push(Span {
                    id,
                    parent,
                    name,
                    request,
                    start_ns,
                    end_ns,
                });
            }
        }
    }
}

/// Takes every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span store poisoned by a panicking thread"),
    )
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.request,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// Per span name: (count, total duration, total self time), in ns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name, with self time = duration minus the union
/// of the children's intervals clipped to the parent.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered.min(dur);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            request: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            sp(1, None, "check", 0, 100),
            sp(2, Some(1), "load", 10, 40),
            sp(3, Some(1), "eval", 50, 90),
        ];
        let t = totals(&spans);
        assert_eq!(t["check"].total_ns, 100);
        assert_eq!(t["check"].self_ns, 30);
        assert_eq!(t["load"].self_ns, 30);
        assert_eq!(t["eval"].self_ns, 40);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two children on other threads overlap each other and spill
        // past the parent's end: only [20, 100) of the parent is covered.
        let spans = [
            sp(1, None, "session", 0, 100),
            sp(2, Some(1), "emit", 20, 70),
            sp(3, Some(1), "emit", 50, 120),
        ];
        let t = totals(&spans);
        assert_eq!(t["session"].self_ns, 20);
        assert_eq!(t["emit"].count, 2);
        assert_eq!(t["emit"].total_ns, 120);
    }

    #[test]
    fn grandchildren_do_not_reduce_grandparent_twice() {
        let spans = [
            sp(1, None, "a", 0, 100),
            sp(2, Some(1), "b", 0, 50),
            sp(3, Some(2), "c", 0, 50),
        ];
        let t = totals(&spans);
        assert_eq!(t["a"].self_ns, 50);
        assert_eq!(t["b"].self_ns, 0);
        assert_eq!(t["c"].self_ns, 50);
    }

    #[test]
    fn recorder_nests_and_stays_off_by_default() {
        assert!(!enabled());
        drop(span("ignored", 0));
        set_enabled(true);
        {
            let _outer = span("outer", 7);
            let _inner = span("inner", 7);
        }
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
