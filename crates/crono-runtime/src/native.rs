use crate::cancel::{panic_payload, CancelCause, RunGate};
use crate::{
    Addr, AddressSpace, LockSet, Machine, RunError, RunOptions, RunOutcome, RunReport, ThreadCtx,
    ThreadReport,
};
use crono_trace::{ThreadTracer, TraceConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
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
/// Worker panics are contained (see [`Machine::try_run_with`]): a
/// panicking thread cancels the run via the shared [`RunGate`], the
/// surviving threads drain out of their barriers, and the caller gets a
/// typed [`RunError`] instead of a process abort.
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
        NativeMachine { threads, trace: None }
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
        NativeMachine { threads, trace: Some(trace) }
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
        let space = AddressSpace::current();
        let start = Instant::now();
        let mut results: Vec<Option<(Result<R, String>, ThreadReport)>> = Vec::new();
        results.resize_with(self.threads, || None);
        std::thread::scope(|scope| {
            if let Some(timeout) = opts.timeout {
                let gate = Arc::clone(&gate);
                scope.spawn(move || gate.watchdog(timeout));
            }
            let mut handles = Vec::with_capacity(self.threads);
            for tid in 0..self.threads {
                let body = &body;
                let gate = Arc::clone(&gate);
                let trace = self.trace;
                let space = space.clone();
                handles.push(scope.spawn(move || {
                    space.enter();
                    let mut ctx = NativeCtx {
                        tid,
                        nthreads: self.threads,
                        instructions: 0,
                        gate: Arc::clone(&gate),
                        start: Instant::now(),
                        active_samples: Vec::new(),
                        tracer: trace.map(|c| ThreadTracer::from_config(&c)),
                    };
                    // Contain panics: cancel the run so survivors drain
                    // out of their barriers instead of deadlocking, and
                    // hand the payload back as a typed error. The context
                    // is only borrowed by the closure, so the thread's
                    // partial report survives its panic.
                    let r = match catch_unwind(AssertUnwindSafe(|| body(&mut ctx))) {
                        Ok(v) => Ok(v),
                        Err(p) => {
                            gate.cancel(CancelCause::WorkerPanic);
                            Err(panic_payload(p))
                        }
                    };
                    let report = ThreadReport {
                        instructions: ctx.instructions,
                        finish_time: nanos_since(ctx.start),
                        breakdown: Default::default(),
                        active_samples: ctx.active_samples,
                        trace: ctx.tracer.map(ThreadTracer::finish),
                    };
                    (r, report)
                }));
            }
            for (tid, h) in handles.into_iter().enumerate() {
                // The worker caught its own panic; join only fails if the
                // panic payload itself panicked while being dropped.
                results[tid] = Some(h.join().expect("worker thread vanished"));
            }
            gate.finish();
        });
        let wall = start.elapsed();
        let mut per_thread = Vec::with_capacity(self.threads);
        let mut threads = Vec::with_capacity(self.threads);
        let mut first_panic: Option<(usize, String)> = None;
        for (tid, slot) in results.into_iter().enumerate() {
            let (r, t) = slot.expect("every thread joined");
            threads.push(t);
            match r {
                Ok(v) => per_thread.push(v),
                Err(payload) if first_panic.is_none() => first_panic = Some((tid, payload)),
                Err(_) => {}
            }
        }
        let report = RunReport {
            backend: self.backend_name(),
            wall,
            completion: wall.as_nanos() as u64,
            threads,
            misses: Default::default(),
            energy: Default::default(),
            faults: Default::default(),
        };
        if let Some((tid, payload)) = first_panic {
            return Err(RunError::WorkerPanicked {
                tid,
                payload,
                report: Box::new(report),
            });
        }
        if gate.cause() == Some(CancelCause::Timeout) {
            return Err(RunError::TimedOut {
                timeout: opts.timeout.unwrap_or_default(),
                report: Box::new(report),
            });
        }
        Ok(RunOutcome { per_thread, report })
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

/// Spin-acquire with a cancellation check: a cancelled run may never
/// release the lock (its holder panicked), so waiters bail out and
/// drain. Results of a cancelled run are discarded, so returning
/// without the lock is safe.
fn acquire_or_drain(gate: &RunGate, set: &LockSet, idx: usize) {
    let mut spins = 0u32;
    loop {
        if set.try_acquire_raw(idx) {
            return;
        }
        if gate.is_cancelled() {
            return;
        }
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(64) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
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
            acquire_or_drain(&self.gate, set, idx);
            let dur = nanos_since(self.start).saturating_sub(t0);
            tr.complete("sync", "lock_wait", t0, dur);
        } else {
            acquire_or_drain(&self.gate, set, idx);
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
    use std::time::Duration;

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

    /// The panic-containment regression test: one worker panics while the
    /// others wait at barriers — without containment this deadlocks (the
    /// survivors wait for an arrival that never comes) or aborts the
    /// process. It must instead return a typed error carrying every
    /// thread's report, and leave the machine usable.
    #[test]
    fn worker_panic_returns_typed_error_without_deadlock() {
        let m = NativeMachine::new(4);
        let err = m
            .try_run(|ctx| {
                if ctx.thread_id() == 2 {
                    panic!("boom on tid 2");
                }
                for _ in 0..10 {
                    ctx.compute(5);
                    ctx.barrier();
                }
                ctx.thread_id()
            })
            .expect_err("a panicking worker must fail the run");
        match &err {
            RunError::WorkerPanicked { tid, payload, report } => {
                assert_eq!(*tid, 2);
                assert!(payload.contains("boom on tid 2"), "{payload:?}");
                // Survivors' reports are intact (4 threads, all joined).
                assert_eq!(report.threads.len(), 4);
                assert!(report.threads[0].instructions > 0);
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert!(err.to_string().contains("worker thread 2 panicked"));
        // The machine is recoverable: the next run succeeds.
        let outcome = m.run(|ctx| ctx.thread_id());
        assert_eq!(outcome.per_thread, vec![0, 1, 2, 3]);
    }

    #[test]
    fn panic_while_holding_a_lock_does_not_hang_waiters() {
        let m = NativeMachine::new(3);
        let locks = LockSet::new(1);
        let err = m
            .try_run(|ctx| {
                ctx.lock(&locks, 0);
                if ctx.thread_id() == 0 {
                    panic!("died holding the lock");
                }
                ctx.unlock(&locks, 0);
            })
            .expect_err("panicked run");
        assert!(matches!(err, RunError::WorkerPanicked { tid: 0, .. }));
    }

    /// The watchdog cancels a kernel that never terminates on its own;
    /// workers observe `cancelled()` and drain.
    #[test]
    fn timeout_watchdog_cancels_hung_kernel() {
        let m = NativeMachine::new(2);
        let opts = RunOptions {
            timeout: Some(Duration::from_millis(20)),
        };
        let err = m
            .try_run_with(&opts, |ctx| {
                while !ctx.cancelled() {
                    ctx.compute(1);
                }
                ctx.thread_id()
            })
            .expect_err("hung kernel must time out");
        match err {
            RunError::TimedOut { timeout, report } => {
                assert_eq!(timeout, Duration::from_millis(20));
                assert_eq!(report.threads.len(), 2);
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }

    #[test]
    fn workers_allocate_from_the_callers_space() {
        let before = crate::alloc_region(64).base();
        let inside = NativeMachine::new(4)
            .run(|_| crate::alloc_region(64).base())
            .per_thread;
        let after = crate::alloc_region(64).base();
        let mut bases = inside.clone();
        bases.sort();
        bases.dedup();
        assert_eq!(bases.len(), 4, "distinct regions: {inside:?}");
        assert!(
            bases.iter().all(|&b| before < b && b < after),
            "{before:?} < {inside:?} < {after:?}"
        );
    }

    #[test]
    fn fast_runs_beat_the_watchdog() {
        let m = NativeMachine::new(2);
        let opts = RunOptions {
            timeout: Some(Duration::from_secs(60)),
        };
        let outcome = m
            .try_run_with(&opts, |ctx| ctx.thread_id())
            .expect("fast run completes before the watchdog");
        assert_eq!(outcome.per_thread, vec![0, 1]);
    }
}
