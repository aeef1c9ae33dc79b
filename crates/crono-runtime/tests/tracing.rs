//! Zero-overhead guarantees of the trace hooks.
//!
//! The tracer must be free when it is off: (1) the `ThreadCtx` trace
//! hooks default to no-ops, so backends that never override them compile
//! kernels identical to a build without the tracer, and (2) the native
//! backend with tracing disabled reports exactly the same instruction
//! counts as the same kernel under a tracing-enabled machine — recording
//! never perturbs the measured workload.

use crono_runtime::{
    Addr, LockSet, Machine, NativeMachine, SharedU64s, ThreadCtx,
};
use crono_trace::TraceConfig;

/// A minimal context that relies entirely on the trait's default trace
/// hooks — the "build without the tracer" reference.
struct BareCtx {
    instructions: u64,
}

impl ThreadCtx for BareCtx {
    fn thread_id(&self) -> usize {
        0
    }
    fn num_threads(&self) -> usize {
        1
    }
    fn load(&mut self, _addr: Addr) {
        self.instructions += 1;
    }
    fn store(&mut self, _addr: Addr) {
        self.instructions += 1;
    }
    fn rmw(&mut self, _addr: Addr) {
        self.instructions += 1;
    }
    fn compute(&mut self, cycles: u32) {
        self.instructions += cycles as u64;
    }
    fn lock(&mut self, set: &LockSet, idx: usize) {
        self.instructions += 1;
        assert!(set.try_acquire_raw(idx), "one thread never contends");
    }
    fn unlock(&mut self, set: &LockSet, idx: usize) {
        self.instructions += 1;
        set.release_raw(idx);
    }
    fn barrier(&mut self) {
        self.instructions += 1;
    }
    fn record_active(&mut self, _active: u64) {}
    fn instructions(&self) -> u64 {
        self.instructions
    }
}

/// The workload both machines run: every hook class, deterministic
/// instruction count.
fn kernel<C: ThreadCtx>(ctx: &mut C, locks: &LockSet, cells: &SharedU64s) {
    ctx.span_begin("phase");
    for i in 0..64 {
        cells.fetch_add(ctx, i % 4, 1);
        ctx.compute(3);
        ctx.trace_instant("i", i as u64);
    }
    ctx.lock(locks, 0);
    ctx.compute(10);
    ctx.unlock(locks, 0);
    ctx.barrier();
    ctx.span_end("phase");
}

#[test]
fn default_trace_hooks_are_noops() {
    let mut ctx = BareCtx { instructions: 0 };
    let before = ctx.instructions();
    ctx.span_begin("anything");
    ctx.trace_instant("anything", 123);
    ctx.span_end("anything");
    assert!(!ctx.tracing(), "default tracing() is off");
    assert_eq!(
        ctx.instructions(),
        before,
        "default hooks must not touch any state"
    );
}

#[test]
fn native_tracing_off_matches_traced_instruction_counts() {
    let run = |machine: &NativeMachine| {
        let locks = LockSet::new(4);
        let cells = SharedU64s::new(4);
        let outcome = machine.run(|ctx| kernel(ctx, &locks, &cells));
        outcome
            .report
            .threads
            .iter()
            .map(|t| t.instructions)
            .collect::<Vec<u64>>()
    };
    let plain = run(&NativeMachine::new(4));
    let plain_again = run(&NativeMachine::new(4));
    let traced = run(&NativeMachine::with_tracing(4, TraceConfig::default()));
    assert_eq!(plain, plain_again, "kernel instruction counts deterministic");
    assert_eq!(
        plain, traced,
        "tracing must never perturb the instruction stream"
    );
}

#[test]
fn traced_machine_reports_traces_untraced_reports_none() {
    let locks = LockSet::new(4);
    let cells = SharedU64s::new(4);
    let plain = NativeMachine::new(2).run(|ctx| kernel(ctx, &locks, &cells));
    assert!(plain.report.threads.iter().all(|t| t.trace.is_none()));

    let cells2 = SharedU64s::new(4);
    let traced = NativeMachine::with_tracing(2, TraceConfig::default())
        .run(|ctx| kernel(ctx, &locks, &cells2));
    for t in &traced.report.threads {
        let trace = t.trace.as_ref().expect("trace attached");
        assert!(trace.events.iter().any(|e| e.name == "phase"));
        assert_eq!(trace.dropped, 0);
    }
}
