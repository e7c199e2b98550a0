//! Spans around the benchmark's calls into each crate's public
//! functions: recorded in memory, written out as Chrome `trace_event`
//! JSON when the run ends, summarised per name with self time (span
//! minus the part its children cover). Spans inside the program are a
//! later change; these sit in the benchmark's own files.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The operation this span belongs to: spans of one op share it.
    pub op: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameSummary {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
    /// Every duration, for medians.
    pub durs_us: Vec<f64>,
}

/// Span recorder for the single client thread. Off, [`Tracer::span`]
/// is one branch around the call — the untraced run, which is the only
/// source of end-to-end numbers, records nothing.
pub struct Tracer {
    on: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: Cell::new(false),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Start a new operation: later spans carry the next op id.
    pub fn next_op(&self) {
        self.op.set(self.op.get() + 1);
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            spans.push(Span {
                name,
                start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
                end_us: 0.0,
                parent: open.last().copied(),
                op: self.op.get(),
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        };
        let out = f();
        self.spans.borrow_mut()[idx].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.open.borrow_mut().pop();
        out
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Per-name count, total, self time and durations.
    pub fn summary(&self) -> BTreeMap<&'static str, NameSummary> {
        summarise(&self.spans.borrow())
    }

    /// Median duration of the spans called `name`, in ms (0 when none
    /// was recorded).
    pub fn median_ms(&self, name: &str) -> f64 {
        let durs: Vec<f64> = self
            .spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect();
        if durs.is_empty() {
            0.0
        } else {
            crate::stats::median(&durs) / 1e3
        }
    }

    /// The first `max_spans` recorded spans as a Chrome `trace_event`
    /// document (open it at `chrome://tracing` or in Perfetto; both
    /// struggle past a few tens of thousands of events, and the
    /// summaries are computed from every span regardless).
    pub fn chrome_json(&self, max_spans: usize) -> String {
        let spans = self.spans.borrow();
        let spans = &spans[..spans.len().min(max_spans)];
        let mut out = String::with_capacity(spans.len() * 128 + 64);
        out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"parent\": {parent}, \"op\": {}}}}}",
                s.name,
                s.start_us,
                s.dur_us(),
                s.op
            )
            .unwrap();
            out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }
}

/// Fold spans into per-name summaries; a span's self time is its
/// duration minus its direct children's.
pub fn summarise(spans: &[Span]) -> BTreeMap<&'static str, NameSummary> {
    let mut child_us = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.dur_us();
        }
    }
    let mut by_name: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = by_name.entry(s.name).or_default();
        e.count += 1;
        e.total_us += s.dur_us();
        e.self_us += s.dur_us() - child_us[i];
        e.durs_us.push(s.dur_us());
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let span = |name, start_us, end_us, parent| Span {
            name,
            start_us,
            end_us,
            parent,
            op: 1,
        };
        let spans = vec![
            span("op", 0.0, 100.0, None),
            span("build", 10.0, 30.0, Some(0)),
            span("run", 30.0, 90.0, Some(0)),
            span("inner", 40.0, 50.0, Some(2)),
        ];
        let s = summarise(&spans);
        assert_eq!(s["op"].self_us, 20.0);
        assert_eq!(s["run"].self_us, 50.0);
        assert_eq!(s["run"].total_us, 60.0);
        assert_eq!(s["inner"].self_us, 10.0);
    }

    #[test]
    fn tracer_nests_tags_ops_and_stays_silent_when_off() {
        let t = Tracer::new();
        assert_eq!(t.span("off", || 7), 7);
        assert_eq!(t.len(), 0, "an untraced run records nothing");
        t.set_on(true);
        t.next_op();
        let v = t.span("outer", || t.span("inner", || 3) + 1);
        assert_eq!(v, 4);
        let spans = t.spans.borrow();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.op == 1));
        assert!(spans[0].dur_us() >= spans[1].dur_us());
        drop(spans);
        let doc = crate::json::parse(&t.chrome_json(usize::MAX)).expect("trace is valid JSON");
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
    }
}
