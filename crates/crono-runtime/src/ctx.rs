use crate::{Addr, LockSet};

/// Per-thread execution context through which benchmarks report every
/// shared-memory access, every unit of compute, and every synchronization
/// event.
///
/// Implementations:
///
/// * [`crate::NativeCtx`] — the real-machine backend: memory hooks are
///   inlined no-ops (plus an instruction counter), locks are real
///   spinlocks, barriers are real barriers. Benchmarks run at native
///   speed.
/// * `crono_sim::SimCtx` — the Graphite-style backend: every hook drives
///   the timing model (private L1, directory, NoC, DRAM, per-thread
///   clock).
///
/// Because benchmark kernels are generic over `ThreadCtx`, each backend
/// gets its own monomorphized copy — the native build pays nothing for
/// the instrumentation the simulator needs.
pub trait ThreadCtx {
    /// This thread's id in `0..num_threads()`.
    fn thread_id(&self) -> usize;

    /// Number of threads in this run.
    fn num_threads(&self) -> usize;

    /// Models a read of the word at `addr`.
    fn load(&mut self, addr: Addr);

    /// Models a write of the word at `addr`.
    fn store(&mut self, addr: Addr);

    /// Models an atomic read-modify-write of the word at `addr`
    /// (exclusive-ownership write in the coherence model).
    fn rmw(&mut self, addr: Addr);

    /// Models `cycles` single-issue ALU cycles of work.
    fn compute(&mut self, cycles: u32);

    /// Acquires lock `idx` of `set`: real mutual exclusion on every
    /// backend, plus modeled waiting time on the simulated backend.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for `set`.
    fn lock(&mut self, set: &LockSet, idx: usize);

    /// Releases lock `idx` of `set`.
    ///
    /// Calling this without holding the lock is a logic error that leaves
    /// the lock set in an inconsistent state.
    fn unlock(&mut self, set: &LockSet, idx: usize);

    /// Waits until all threads of the run reach the barrier.
    fn barrier(&mut self);

    /// Records an active-vertex sample (the Fig. 2 instrumentation): the
    /// benchmark currently has `active` vertices in flight.
    fn record_active(&mut self, active: u64);

    /// Instructions this thread has executed so far (loads, stores, RMWs,
    /// lock operations, and `compute` cycles all count — CRONO's
    /// load-imbalance metric is instruction-based, §IV-E).
    fn instructions(&self) -> u64;

    /// This thread's position on the backend's *time* axis. The
    /// simulator returns its per-thread cycle clock, so a delta around a
    /// kernel includes memory latency, NoC contention, and fault-induced
    /// detours or re-homed DRAM queueing — work that retires no extra
    /// instructions but costs real time. The native backend has no cycle
    /// clock; there the default ([`ThreadCtx::instructions`]) stands in,
    /// which is what the serving engine's modeled latencies were always
    /// built on.
    #[inline(always)]
    fn cycles(&self) -> u64 {
        self.instructions()
    }

    /// Opens a named trace span (an algorithm phase such as a BFS level
    /// or a PageRank iteration). Must be closed by a matching
    /// [`ThreadCtx::span_end`] on the same thread, in stack order.
    ///
    /// The default is a no-op: backends without a tracer attached compile
    /// this to nothing, so the monomorphized native kernels pay zero
    /// cost when tracing is off (guarded by a test).
    #[inline(always)]
    fn span_begin(&mut self, _name: &'static str) {}

    /// Closes the innermost open span named `name`. Default no-op.
    #[inline(always)]
    fn span_end(&mut self, _name: &'static str) {}

    /// Records a point event with a payload value (e.g. a per-phase
    /// counter sample). Default no-op.
    #[inline(always)]
    fn trace_instant(&mut self, _name: &'static str, _value: u64) {}

    /// Whether a tracer is attached — lets kernels skip computing
    /// expensive event payloads when tracing is off. Default `false`.
    #[inline(always)]
    fn tracing(&self) -> bool {
        false
    }

    /// Whether this run has been cancelled (a worker panicked or the
    /// watchdog timed out). Kernels poll this at iteration boundaries and
    /// drain out early when it turns `true`; after cancellation the
    /// backend barriers no longer block, so threads may break at
    /// different iterations without deadlocking. Default `false` (a
    /// backend without cancellation support never cancels).
    #[inline(always)]
    fn cancelled(&self) -> bool {
        false
    }

    /// Whether this thread's core has permanently died (a disabled-core
    /// fault). Unlike [`ThreadCtx::cancelled`] — which drains the whole
    /// run — a departed thread stops taking work while the survivors
    /// keep computing: the task pool returns `None` from its take loops
    /// at the next task boundary, and the surviving threads steal the
    /// departed core's queued tasks. Default `false` (a backend without
    /// permanent faults never departs).
    #[inline(always)]
    fn departed(&self) -> bool {
        false
    }

    /// Convenience: lock striping. Maps an arbitrary index (e.g. a vertex
    /// id) onto a lock of `set`.
    #[inline]
    fn lock_for(&mut self, set: &LockSet, key: usize) {
        self.lock(set, key % set.len());
    }

    /// Convenience: releases the stripe lock taken by
    /// [`ThreadCtx::lock_for`].
    #[inline]
    fn unlock_for(&mut self, set: &LockSet, key: usize) {
        self.unlock(set, key % set.len());
    }
}
