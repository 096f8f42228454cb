//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSONL when the run ends.
//!
//! The spans live here, not inside the program under test: the benchmark
//! drives an epoch itself through the public API and brackets every call.

use std::cell::RefCell;
use std::time::Instant;

use serde_json::{json, Map, Value};

/// One closed interval of work attributed to a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// `<crate>.<what>`, e.g. `graph.reg_build`.
    pub name: &'static str,
    /// Epoch ordinal shared by every span of one epoch.
    pub epoch: usize,
    /// Seconds since the trace began.
    pub start_s: f64,
    /// Seconds since the trace began; `start_s` until the span closes.
    pub end_s: f64,
    /// Counts taken at the same boundary (edges sampled, REG non-zeros…).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    /// Wall seconds between start and end.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// A finished trace: spans in start order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Builds a trace from already-closed spans.
    #[cfg(test)]
    pub fn from_spans(spans: Vec<Span>) -> Self {
        Self { spans }
    }

    /// All spans in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_time_s(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_s)
            .sum();
        self.spans[id].duration_s() - children
    }

    /// Share of a span's duration that no child accounts for.
    pub fn unaccounted_share(&self, id: usize) -> f64 {
        let dur = self.spans[id].duration_s();
        if dur <= 0.0 {
            0.0
        } else {
            self.self_time_s(id) / dur
        }
    }

    /// Total duration of the spans called `name` within `epoch`.
    pub fn epoch_total_s(&self, epoch: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.epoch == epoch && s.name == name)
            .map(Span::duration_s)
            .sum()
    }

    /// How many spans called `name` the epoch holds.
    pub fn epoch_count(&self, epoch: usize, name: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.epoch == epoch && s.name == name)
            .count()
    }

    /// The epoch's only span called `name` (e.g. its `epoch` root).
    pub fn find(&self, epoch: usize, name: &str) -> Option<&Span> {
        self.spans
            .iter()
            .find(|s| s.epoch == epoch && s.name == name)
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let counts: Map<String, Value> = s
                .counts
                .iter()
                .map(|&(k, v)| (k.to_owned(), Value::Number(v)))
                .collect();
            let line = json!({
                "type": "span",
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "epoch": s.epoch,
                "start_s": s.start_s,
                "end_s": s.end_s,
                "self_s": self.self_time_s(s.id),
                "counts": Value::Object(counts),
            });
            out.push_str(&serde_json::to_string(&line).expect("span serializes"));
            out.push('\n');
        }
        out
    }
}

#[derive(Debug)]
struct TracerState {
    trace: Trace,
    open: Vec<usize>,
    epoch: usize,
}

/// Records nested spans against one clock. Interior mutability lets the
/// benchmark's partitioner wrapper, which the planner calls through
/// `&self`, record into the same trace as the epoch loop.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: RefCell<TracerState>,
}

impl Tracer {
    /// Starts the trace clock.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            state: RefCell::new(TracerState {
                trace: Trace::default(),
                open: Vec::new(),
                epoch: 0,
            }),
        }
    }

    /// Sets the epoch id stamped on spans opened from now on.
    pub fn set_epoch(&self, epoch: usize) {
        self.state.borrow_mut().epoch = epoch;
    }

    /// Runs `f` inside a span called `name`, nested under whichever span
    /// is open. The closure may return counts to attach to the span.
    pub fn span<T>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> (T, Vec<(&'static str, f64)>),
    ) -> T {
        let id = {
            let mut st = self.state.borrow_mut();
            let id = st.trace.spans.len();
            let now = self.origin.elapsed().as_secs_f64();
            let (parent, epoch) = (st.open.last().copied(), st.epoch);
            st.trace.spans.push(Span {
                id,
                parent,
                name,
                epoch,
                start_s: now,
                end_s: now,
                counts: Vec::new(),
            });
            st.open.push(id);
            id
        };
        // The borrow is released while `f` runs: it may open child spans.
        let (value, counts) = f();
        let mut st = self.state.borrow_mut();
        let popped = st.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        let span = &mut st.trace.spans[id];
        span.end_s = self.origin.elapsed().as_secs_f64();
        span.counts = counts;
        value
    }

    /// Ends recording and hands the spans over.
    pub fn finish(self) -> Trace {
        self.state.into_inner().trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        parent: Option<usize>,
        name: &'static str,
        start_s: f64,
        end_s: f64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            epoch: 0,
            start_s,
            end_s,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let trace = Trace::from_spans(vec![
            span(0, None, "epoch", 0.0, 10.0),
            span(1, Some(0), "core.plan", 1.0, 5.0),
            span(2, Some(1), "graph.reg_build", 1.0, 3.0),
            span(3, Some(1), "partition.cut", 3.0, 4.5),
            span(4, Some(0), "core.train", 5.0, 9.5),
        ]);
        assert!((trace.self_time_s(0) - 1.5).abs() < 1e-12); // 10 − (4 + 4.5)
        assert!((trace.self_time_s(1) - 0.5).abs() < 1e-12); // 4 − (2 + 1.5)
        assert!((trace.self_time_s(2) - 2.0).abs() < 1e-12);
        assert!((trace.unaccounted_share(0) - 0.15).abs() < 1e-12);
        assert!((trace.unaccounted_share(1) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn epoch_totals_sum_repeated_spans() {
        let mut spans = vec![
            span(0, None, "epoch", 0.0, 4.0),
            span(1, Some(0), "graph.reg_build", 0.0, 1.0),
            span(2, Some(0), "graph.reg_build", 2.0, 3.5),
        ];
        spans.push(Span {
            epoch: 1,
            ..span(3, None, "graph.reg_build", 5.0, 9.0)
        });
        let trace = Trace::from_spans(spans);
        assert!((trace.epoch_total_s(0, "graph.reg_build") - 2.5).abs() < 1e-12);
        assert_eq!(trace.epoch_count(0, "graph.reg_build"), 2);
        assert!((trace.epoch_total_s(1, "graph.reg_build") - 4.0).abs() < 1e-12);
        assert_eq!(trace.unaccounted_share(0), 1.5 / 4.0);
    }

    #[test]
    fn tracer_nests_spans_and_keeps_counts() {
        let tracer = Tracer::new();
        tracer.set_epoch(3);
        let out = tracer.span("epoch", || {
            let inner = tracer.span("graph.sample", || (7usize, vec![("edges", 42.0)]));
            (inner + 1, Vec::new())
        });
        assert_eq!(out, 8);
        let trace = tracer.finish();
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].epoch, 3);
        assert_eq!(spans[1].counts, vec![("edges", 42.0)]);
        assert!(spans[0].start_s <= spans[1].start_s && spans[1].end_s <= spans[0].end_s);
        assert!(trace.self_time_s(0) >= 0.0);
        let jsonl = trace.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"name\":\"graph.sample\""));
    }
}
