//! Traced benchmark runs: executes one benchmark with event tracing
//! enabled and assembles the per-thread streams into a
//! [`crono_trace::Trace`] ready for Chrome/Perfetto export.
//!
//! Two backends can produce traces:
//!
//! * [`TraceBackend::Sim`] — the Graphite-style simulator. Timestamps are
//!   simulated cycles and the run is serialized deterministically, so the
//!   same invocation always yields a byte-identical JSON file.
//! * [`TraceBackend::Native`] — the real machine. Timestamps are native
//!   nanoseconds; useful for spotting real lock convoys, not for
//!   reproducible artifacts.
//!
//! # Examples
//!
//! ```
//! use crono_suite::trace::{run_traced, TraceBackend};
//! use crono_suite::Scale;
//! use crono_algos::Benchmark;
//! use crono_sim::SimConfig;
//! use crono_trace::TraceConfig;
//!
//! let trace = run_traced(
//!     Benchmark::Bfs,
//!     &Scale::test(),
//!     4,
//!     TraceBackend::Sim,
//!     &SimConfig::tiny(16),
//!     &TraceConfig::default(),
//!     None,
//! );
//! assert_eq!(trace.threads.len(), 4);
//! assert!(trace.span_count(0) > 0, "every thread records bfs:level spans");
//! ```

use crate::runner::run_parallel;
use crate::scale::Scale;
use crate::workload::Workload;
use crono_algos::{Ablation, Benchmark};
use crono_runtime::{NativeMachine, RunReport};
use crono_sim::{SimConfig, SimMachine};
use crono_trace::{Trace, TraceConfig, TraceMeta};

/// Which backend executes a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceBackend {
    /// Graphite-style simulator: deterministic, timestamps in cycles.
    Sim,
    /// Real machine: timestamps in nanoseconds, not reproducible.
    Native,
}

impl TraceBackend {
    /// The name recorded in [`TraceMeta::backend`].
    pub fn name(self) -> &'static str {
        match self {
            TraceBackend::Sim => "sim",
            TraceBackend::Native => "native",
        }
    }

    /// The clock domain of every timestamp this backend emits.
    pub fn clock_unit(self) -> &'static str {
        match self {
            TraceBackend::Sim => "cycles",
            TraceBackend::Native => "ns",
        }
    }

    /// Parses a CLI backend name (`sim` / `native`), case-insensitively.
    pub fn by_name(name: &str) -> Option<TraceBackend> {
        match name.to_ascii_lowercase().as_str() {
            "sim" => Some(TraceBackend::Sim),
            "native" => Some(TraceBackend::Native),
            _ => None,
        }
    }
}

/// Runs `bench` at `threads` threads with tracing enabled and assembles
/// the result. With an `ablation` that applies to `bench`, its optimized
/// kernel variant runs in place of the default (the
/// `crono trace --ablation` path).
///
/// `sim_config` is only consulted by [`TraceBackend::Sim`].
///
/// # Panics
///
/// Panics if `backend` is [`TraceBackend::Sim`] and `threads` exceeds
/// `sim_config.num_cores`.
pub fn run_traced(
    bench: Benchmark,
    scale: &Scale,
    threads: usize,
    backend: TraceBackend,
    sim_config: &SimConfig,
    trace_config: &TraceConfig,
    ablation: Option<Ablation>,
) -> Trace {
    let w = Workload::synthetic(scale);
    let report = match backend {
        TraceBackend::Sim => {
            assert!(
                threads <= sim_config.num_cores,
                "{threads} threads exceed the simulated machine's {} cores",
                sim_config.num_cores
            );
            let machine = SimMachine::with_tracing(sim_config.clone(), threads, *trace_config);
            run_parallel(bench, &machine, &w, ablation)
        }
        TraceBackend::Native => {
            let machine = NativeMachine::with_tracing(threads, *trace_config);
            run_parallel(bench, &machine, &w, ablation)
        }
    };
    assemble(bench, scale.name, backend, report)
}

/// Assembles a traced [`RunReport`] into a [`Trace`].
///
/// Threads that recorded nothing (or a report from an untraced run)
/// contribute empty streams rather than being skipped, so thread ids in
/// the JSON always match backend thread ids.
pub fn assemble(
    bench: Benchmark,
    scale_name: &str,
    backend: TraceBackend,
    report: RunReport,
) -> Trace {
    let threads = report.threads.len();
    Trace {
        meta: TraceMeta::new(
            bench.label(),
            backend.name(),
            scale_name,
            threads,
            backend.clock_unit(),
        ),
        threads: report
            .threads
            .into_iter()
            .map(|t| t.trace.unwrap_or_default())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crono_trace::EventKind;

    #[test]
    fn backend_names_round_trip() {
        for b in [TraceBackend::Sim, TraceBackend::Native] {
            assert_eq!(TraceBackend::by_name(b.name()), Some(b));
        }
        assert_eq!(TraceBackend::by_name("SIM"), Some(TraceBackend::Sim));
        assert_eq!(TraceBackend::by_name("gpu"), None);
    }

    #[test]
    fn sim_trace_covers_every_thread_and_source() {
        let trace = run_traced(
            Benchmark::Bfs,
            &Scale::test(),
            4,
            TraceBackend::Sim,
            &SimConfig::tiny(16),
            &TraceConfig::default(),
            None,
        );
        assert_eq!(trace.meta.benchmark, "BFS");
        assert_eq!(trace.meta.clock_unit, "cycles");
        assert_eq!(trace.threads.len(), 4);
        for tid in 0..4 {
            assert!(trace.span_count(tid) > 0, "thread {tid} has no spans");
        }
        let counters = trace.counters();
        assert!(counters.contains_key("bfs:level"), "{counters:?}");
        assert!(counters.contains_key("barrier_wait"), "{counters:?}");
        assert!(counters.contains_key("l1_miss_cold"), "{counters:?}");
        assert_eq!(trace.total_dropped(), 0);
    }

    #[test]
    fn native_trace_uses_nanoseconds() {
        let trace = run_traced(
            Benchmark::ConnComp,
            &Scale::test(),
            2,
            TraceBackend::Native,
            &SimConfig::tiny(16),
            &TraceConfig::default(),
            None,
        );
        assert_eq!(trace.meta.clock_unit, "ns");
        assert!(trace
            .threads
            .iter()
            .all(|t| t.events.iter().any(|e| e.kind == EventKind::Begin)));
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn sim_rejects_more_threads_than_cores() {
        run_traced(
            Benchmark::Bfs,
            &Scale::test(),
            32,
            TraceBackend::Sim,
            &SimConfig::tiny(16),
            &TraceConfig::default(),
            None,
        );
    }
}
