use crate::{
    run_workers, Addr, LockSet, Machine, RunError, RunGate, RunOptions, RunOutcome, RunReport,
    ThreadCtx, ThreadReport,
};
use crono_trace::{ThreadTracer, TraceConfig};
use std::sync::Arc;
use std::time::Instant;

/// The real-machine backend (paper §IV-C / §VI): benchmarks run on host
/// OS threads at full speed; memory hooks compile to an instruction
/// counter increment and nothing else.
///
/// With [`NativeMachine::with_tracing`] each thread additionally records
/// algorithm-phase spans, barrier waits, and lock-wait spans into a
/// `crono-trace` ring buffer (nanosecond timestamps). Without it, the
/// trace hooks monomorphize to a branch on an always-`None` option for
/// the low-frequency sync hooks and to *nothing* for the memory hooks,
/// so the measured kernel is unchanged.
///
/// Worker panics are contained by [`run_workers`] (see
/// [`Machine::try_run_with`]): a panicking thread cancels the run via
/// the shared [`RunGate`], the surviving threads drain out of their
/// barriers, and the caller gets a typed [`RunError`] instead of a
/// process abort.
///
/// # Examples
///
/// ```
/// use crono_runtime::{Machine, NativeMachine, ThreadCtx};
///
/// let machine = NativeMachine::new(8);
/// let outcome = machine.run(|ctx| ctx.thread_id());
/// assert_eq!(outcome.per_thread, (0..8).collect::<Vec<_>>());
/// assert!(outcome.report.wall.as_nanos() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct NativeMachine {
    threads: usize,
    trace: Option<TraceConfig>,
}

impl NativeMachine {
    /// Creates a backend that runs parallel regions on `threads` host
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        NativeMachine {
            threads,
            trace: None,
        }
    }

    /// As [`NativeMachine::new`], with per-thread event tracing enabled.
    /// Each [`ThreadReport`](crate::ThreadReport) of a run then carries a
    /// `trace` (timestamps in nanoseconds since thread start).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_tracing(threads: usize, trace: TraceConfig) -> Self {
        assert!(threads > 0, "need at least one thread");
        NativeMachine {
            threads,
            trace: Some(trace),
        }
    }
}

impl Machine for NativeMachine {
    type Ctx = NativeCtx;

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn backend_name(&self) -> &'static str {
        "native"
    }

    fn try_run_with<F, R>(&self, opts: &RunOptions, body: F) -> Result<RunOutcome<R>, RunError>
    where
        F: Fn(&mut Self::Ctx) -> R + Sync,
        R: Send,
    {
        let gate = Arc::new(RunGate::new(self.threads));
        let mut workers = run_workers(
            self.threads,
            opts,
            &gate,
            || {},
            |tid| NativeCtx {
                tid,
                nthreads: self.threads,
                instructions: 0,
                gate: Arc::clone(&gate),
                start: Instant::now(),
                active_samples: Vec::new(),
                tracer: self.trace.map(|c| ThreadTracer::from_config(&c)),
            },
            body,
            |ctx| ThreadReport {
                instructions: ctx.instructions,
                finish_time: nanos_since(ctx.start),
                breakdown: Default::default(),
                active_samples: ctx.active_samples,
                trace: ctx.tracer.map(ThreadTracer::finish),
            },
        );
        let report = RunReport {
            backend: self.backend_name(),
            wall: workers.wall,
            completion: workers.wall.as_nanos() as u64,
            threads: std::mem::take(&mut workers.finished),
            misses: Default::default(),
            energy: Default::default(),
            faults: Default::default(),
        };
        workers.outcome(report)
    }
}

/// Per-thread context of the [`NativeMachine`] backend.
#[derive(Debug)]
pub struct NativeCtx {
    tid: usize,
    nthreads: usize,
    instructions: u64,
    gate: Arc<RunGate>,
    start: Instant,
    active_samples: Vec<(u64, u64)>,
    tracer: Option<ThreadTracer>,
}

/// Nanoseconds since `start`: the trace and sample clock.
#[inline]
fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

impl ThreadCtx for NativeCtx {
    #[inline(always)]
    fn thread_id(&self) -> usize {
        self.tid
    }

    #[inline(always)]
    fn num_threads(&self) -> usize {
        self.nthreads
    }

    #[inline(always)]
    fn load(&mut self, _addr: Addr) {
        self.instructions += 1;
    }

    #[inline(always)]
    fn store(&mut self, _addr: Addr) {
        self.instructions += 1;
    }

    #[inline(always)]
    fn rmw(&mut self, _addr: Addr) {
        self.instructions += 1;
    }

    #[inline(always)]
    fn compute(&mut self, cycles: u32) {
        self.instructions += cycles as u64;
    }

    #[inline]
    fn lock(&mut self, set: &LockSet, idx: usize) {
        self.instructions += 1;
        if let Some(tr) = self.tracer.as_mut() {
            let t0 = nanos_since(self.start);
            set.acquire_or_drain(idx, &self.gate);
            let dur = nanos_since(self.start).saturating_sub(t0);
            tr.complete("sync", "lock_wait", t0, dur);
        } else {
            set.acquire_or_drain(idx, &self.gate);
        }
    }

    #[inline]
    fn unlock(&mut self, set: &LockSet, idx: usize) {
        self.instructions += 1;
        set.release_raw(idx);
    }

    fn barrier(&mut self) {
        self.instructions += 1;
        if let Some(tr) = self.tracer.as_mut() {
            let t0 = nanos_since(self.start);
            self.gate.barrier_wait();
            let dur = nanos_since(self.start).saturating_sub(t0);
            tr.complete("sync", "barrier_wait", t0, dur);
        } else {
            self.gate.barrier_wait();
        }
    }

    fn record_active(&mut self, active: u64) {
        self.active_samples.push((nanos_since(self.start), active));
    }

    #[inline(always)]
    fn instructions(&self) -> u64 {
        self.instructions
    }

    #[inline]
    fn span_begin(&mut self, name: &'static str) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.begin("algo", name, nanos_since(self.start));
        }
    }

    #[inline]
    fn span_end(&mut self, name: &'static str) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.end("algo", name, nanos_since(self.start));
        }
    }

    #[inline]
    fn trace_instant(&mut self, name: &'static str, value: u64) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.instant("algo", name, nanos_since(self.start), value);
        }
    }

    #[inline(always)]
    fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    #[inline(always)]
    fn cancelled(&self) -> bool {
        self.gate.is_cancelled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedU64s;

    #[test]
    fn all_threads_run_once() {
        let m = NativeMachine::new(6);
        let outcome = m.run(|ctx| ctx.thread_id() * 2);
        assert_eq!(outcome.per_thread, vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(outcome.report.threads.len(), 6);
        assert_eq!(outcome.report.backend, "native");
    }

    #[test]
    fn barrier_synchronizes_phases() {
        let m = NativeMachine::new(4);
        let flags = SharedU64s::new(4);
        let ok = m.run(|ctx| {
            flags.set(ctx, ctx.thread_id(), 1);
            ctx.barrier();
            // After the barrier every thread must observe all flags.
            (0..4).all(|i| flags.get(ctx, i) == 1)
        });
        assert!(ok.per_thread.iter().all(|&b| b));
    }

    #[test]
    fn instruction_counts_reflect_work() {
        let m = NativeMachine::new(2);
        let outcome = m.run(|ctx| {
            if ctx.thread_id() == 0 {
                ctx.compute(100);
            } else {
                ctx.compute(10);
            }
        });
        assert!(outcome.report.variability() > 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        NativeMachine::new(0);
    }

    #[test]
    fn untraced_runs_carry_no_trace() {
        let m = NativeMachine::new(2);
        let outcome = m.run(|ctx| {
            ctx.span_begin("phase");
            ctx.compute(10);
            ctx.span_end("phase");
            ctx.tracing()
        });
        assert_eq!(outcome.per_thread, vec![false, false]);
        assert!(outcome.report.threads.iter().all(|t| t.trace.is_none()));
    }

    #[test]
    fn traced_runs_record_spans_and_sync() {
        let m = NativeMachine::with_tracing(3, TraceConfig::default());
        let locks = LockSet::new(1);
        let outcome = m.run(|ctx| {
            ctx.span_begin("phase");
            ctx.lock(&locks, 0);
            ctx.compute(5);
            ctx.unlock(&locks, 0);
            ctx.barrier();
            ctx.trace_instant("sample", 42);
            ctx.span_end("phase");
            ctx.tracing()
        });
        assert_eq!(outcome.per_thread, vec![true, true, true]);
        for t in &outcome.report.threads {
            let trace = t.trace.as_ref().expect("tracing enabled");
            let names: Vec<_> = trace.events.iter().map(|e| e.name).collect();
            for needle in ["phase", "lock_wait", "barrier_wait", "sample"] {
                assert!(names.contains(&needle), "missing {needle}: {names:?}");
            }
            assert_eq!(trace.dropped, 0);
        }
    }
}
