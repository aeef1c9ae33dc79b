//! Execution abstraction for the CRONO benchmarks.
//!
//! CRONO characterizes the same ten pthreads benchmarks on two targets: a
//! real multicore machine (§IV-C / §VI) and the Graphite many-core
//! simulator (§IV-B / §V). This crate provides the abstraction that makes
//! one Rust implementation of each benchmark serve both targets:
//!
//! * [`ThreadCtx`] — the per-thread execution context. Benchmarks report
//!   every shared-memory access ([`ThreadCtx::load`] / [`store`] /
//!   [`rmw`]), ALU work ([`compute`]), and synchronization
//!   ([`lock`] / [`barrier`]) through it. Contexts are generic
//!   (monomorphized), so the native backend compiles the memory hooks to
//!   nothing and runs at full host speed.
//! * [`Machine`] — a backend that spawns one [`ThreadCtx`] per thread and
//!   collects a [`RunReport`]. [`NativeMachine`] is the real-machine
//!   backend; the `crono-sim` crate provides the Graphite-style simulated
//!   backend. Both run their workers through [`run_workers`], the one
//!   owner of the run protocol: worker spawn, panic containment, the
//!   watchdog and core departure, with [`RunGate`] as the run's barrier.
//! * [`Addr`]/[`Region`] — symbolic, cache-line-aligned addresses that let
//!   the simulator model the true data-dependent access stream without the
//!   benchmarks ever touching raw pointers, allocated from the calling
//!   thread's [`AddressSpace`].
//! * [`SharedU32s`] and friends — shared atomic arrays pairing each *real*
//!   atomic operation with its symbolic address, and [`LockSet`] — real
//!   mutual exclusion paired with modeled timing.
//!
//! [`store`]: ThreadCtx::store
//! [`rmw`]: ThreadCtx::rmw
//! [`compute`]: ThreadCtx::compute
//! [`lock`]: ThreadCtx::lock
//! [`barrier`]: ThreadCtx::barrier
//!
//! # Examples
//!
//! ```
//! use crono_runtime::{Machine, NativeMachine, SharedU64s, ThreadCtx};
//!
//! let machine = NativeMachine::new(4);
//! let sums = SharedU64s::new(1);
//! let outcome = machine.run(|ctx| {
//!     sums.fetch_add(ctx, 0, ctx.thread_id() as u64);
//! });
//! assert_eq!(sums.get_plain(0), 0 + 1 + 2 + 3);
//! assert_eq!(outcome.per_thread.len(), 4);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod budget;
mod cancel;
mod ctx;
mod deque;
mod locks;
mod machine;
mod native;
mod report;
mod shared;
mod sync;

pub use addr::{alloc_region, Addr, AddressSpace, Region, LINE_SIZE};
pub use budget::BudgetCtx;
pub use cancel::{run_workers, RunGate, Workers};
pub use ctx::ThreadCtx;
pub use deque::{Steal, TaskPool, WorkDeque, IDLE_BACKOFF_MAX, IDLE_BACKOFF_MIN};
pub use locks::{LockSet, LOCK_EPOCH_CYCLES};
pub use machine::{Machine, RunError, RunOptions, RunOutcome};
pub use native::{NativeCtx, NativeMachine};
pub use report::{Breakdown, EnergyCounters, FaultCounters, MissStats, RunReport, ThreadReport};
pub use shared::{
    ReadArray, SharedBitmap, SharedF64s, SharedFlags, SharedU32s, SharedU64s, SlidingQueue,
    TrackedVec,
};
pub use sync::{CachePadded, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
