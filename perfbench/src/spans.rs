//! Spans around the benchmark's calls into each layer.
//!
//! The benchmark instruments nothing inside the program: it wraps each
//! call it makes into a layer (graph generation, a kernel, a `submit`,
//! a simulator run) in one span recorded on `crono-trace`'s
//! [`ThreadTracer`], keyed by the layer's module name as the span
//! category. A layer's self time is its spans' duration minus the part
//! covered by child spans.

use crono_trace::{EventKind, ThreadTrace, ThreadTracer, Trace, TraceMeta};
use std::collections::BTreeMap;
use std::time::Instant;

/// The benchmark harness itself: passes, setup, probes.
pub const BENCH: &str = "bench";
/// Graph generation and transpose.
pub const GRAPH: &str = "crono-graph";
/// Kernel calls.
pub const ALGOS: &str = "crono-algos";
/// Runtime primitives (barrier, deque, sliding queue, native context).
pub const RUNTIME: &str = "crono-runtime";
/// `ServeEngine::submit` / `run_batch`.
pub const ENGINE: &str = "crono-suite.engine";
/// Simulator runs.
pub const SIM: &str = "crono-sim";

/// Every span category, in report order.
pub const LAYERS: [&str; 6] = [BENCH, GRAPH, ALGOS, RUNTIME, ENGINE, SIM];

/// Enough events for the longest traced run (one span per served query
/// and batch dominates).
const CAPACITY: usize = 1 << 22;

/// Records spans while recording is on; costs one branch otherwise.
pub struct Recorder {
    origin: Instant,
    tracer: Option<ThreadTracer>,
    on: bool,
}

impl Recorder {
    /// A recorder; `traced` selects whether spans are kept at all.
    pub fn new(traced: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            tracer: traced.then(|| ThreadTracer::new(CAPACITY)),
            on: traced,
        }
    }

    /// Pauses or resumes recording, so a traced run can interleave
    /// untraced passes and measure the tracing overhead. A recorder
    /// built untraced never records.
    pub fn set_on(&mut self, on: bool) {
        self.on = on && self.tracer.is_some();
    }

    #[inline]
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; pair it with [`Recorder::end`] in stack order.
    #[inline]
    pub fn begin(&mut self, layer: &'static str, name: &'static str) {
        if self.on {
            let ts = self.now();
            self.tracer
                .as_mut()
                .expect("on implies a tracer")
                .begin(layer, name, ts);
        }
    }

    /// Closes the span opened by the matching [`Recorder::begin`].
    #[inline]
    pub fn end(&mut self, layer: &'static str, name: &'static str) {
        if self.on {
            let ts = self.now();
            self.tracer
                .as_mut()
                .expect("on implies a tracer")
                .end(layer, name, ts);
        }
    }

    /// Runs `f` inside a span named `name` on layer `layer`.
    #[inline]
    pub fn span<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(layer, name);
        let out = f();
        self.end(layer, name);
        out
    }

    /// Freezes the recorded spans (`None` when tracing was off).
    pub fn finish(self) -> Option<ThreadTrace> {
        self.tracer.map(ThreadTracer::finish)
    }
}

/// Self time per layer, in seconds: each span's duration minus the
/// time its direct children cover.
///
/// # Panics
///
/// Panics if the spans are not properly nested.
pub fn self_seconds(trace: &ThreadTrace) -> BTreeMap<&'static str, f64> {
    let mut totals = BTreeMap::new();
    // Open spans: (category, begin ts, ns covered by children).
    let mut stack: Vec<(&'static str, u64, u64)> = Vec::new();
    for ev in &trace.events {
        match ev.kind {
            EventKind::Begin => stack.push((ev.cat, ev.ts, 0)),
            EventKind::End => {
                let (cat, begin, children) = stack.pop().expect("span end without a begin");
                assert_eq!(cat, ev.cat, "spans must nest");
                let dur = ev.ts - begin;
                *totals.entry(cat).or_insert(0.0) += (dur - children.min(dur)) as f64 * 1e-9;
                if let Some(parent) = stack.last_mut() {
                    parent.2 += dur;
                }
            }
            EventKind::Instant | EventKind::Complete => {}
        }
    }
    assert!(stack.is_empty(), "unclosed spans at the end of the trace");
    totals
}

/// Chrome trace-event JSON of the benchmark's spans.
pub fn chrome_json(trace: ThreadTrace, workload: &str) -> String {
    Trace {
        meta: TraceMeta::new(workload, "perfbench", workload, 1, "ns"),
        threads: vec![trace],
    }
    .to_chrome_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = ThreadTracer::new(64);
        t.begin(BENCH, "pass", 0);
        t.begin(ALGOS, "bfs", 100);
        t.end(ALGOS, "bfs", 400);
        t.begin(ENGINE, "run_batch", 500);
        t.begin(ALGOS, "inner", 600);
        t.end(ALGOS, "inner", 700);
        t.end(ENGINE, "run_batch", 900);
        t.end(BENCH, "pass", 1_000);
        let s = self_seconds(&t.finish());
        let ns = |layer| (s[layer] * 1e9).round() as u64;
        assert_eq!(ns(BENCH), 1_000 - 300 - 400);
        assert_eq!(ns(ENGINE), 400 - 100);
        assert_eq!(ns(ALGOS), 300 + 100);
    }

    #[test]
    fn untraced_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        r.set_on(true);
        assert_eq!(r.span(GRAPH, "gen", || 7), 7);
        assert!(r.finish().is_none());
    }

    #[test]
    fn paused_recorder_skips_spans() {
        let mut r = Recorder::new(true);
        r.begin(BENCH, "pass");
        r.span(ALGOS, "bfs", || ());
        r.end(BENCH, "pass");
        r.set_on(false);
        r.span(ALGOS, "bfs", || ());
        let trace = r.finish().expect("traced");
        assert_eq!(trace.events.len(), 4);
        let s = self_seconds(&trace);
        assert!(s.contains_key(BENCH) && s.contains_key(ALGOS));
        let json = chrome_json(trace, "kernels-rmat");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("kernels-rmat"));
    }
}
