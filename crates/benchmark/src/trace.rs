//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent)` on one monotonic clock. Spans
//! are recorded around the benchmark's own calls into the system, kept
//! in memory and written out as JSON when the run ends. A layer's self
//! time is its span's duration minus the time its child spans cover.
//! With tracing off every method is a no-op apart from running the
//! wrapped closure.

use serde::Serialize;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// What was called (`<layer>.<operation>`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Per-name aggregate of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

/// The recorder. Single-threaded: spans nest through a stack.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut inner = self.inner.borrow_mut();
            let parent = inner.stack.last().copied();
            let idx = inner.spans.len();
            inner.spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            inner.stack.push(idx);
            idx
        };
        let out = f();
        let end = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.spans[idx].end_ns = end;
        inner.stack.pop();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let inner = self.inner.borrow();
        let mut child_ns = vec![0u64; inner.spans.len()];
        for s in &inner.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in inner.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let total = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += total;
            t.self_ns += total.saturating_sub(child);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tr = Tracer::new(true);
        tr.span("outer", || {
            tr.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            tr.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let totals = tr.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(inner.count, 2);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("x", || 7), 7);
        assert!(tr.spans().is_empty());
        assert!(tr.totals().is_empty());
    }
}
