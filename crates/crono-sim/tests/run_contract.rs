//! The run contract every backend keeps, one generic check per property,
//! each run on the native machine, the lax simulator and the sequenced
//! (traced) simulator.
//!
//! Both backends run their workers through `crono_runtime::run_workers`,
//! so these properties are the protocol's: a worker panic comes back as a
//! typed error without a hang, the watchdog cancels a hung run, and
//! workers allocate from the caller's address space.

use crono_runtime::{
    alloc_region, LockSet, Machine, NativeMachine, RunError, RunOptions, SharedU64s, ThreadCtx,
};
use crono_sim::{SimConfig, SimMachine};
use crono_trace::TraceConfig;
use std::time::Duration;

const THREADS: usize = 4;

/// One worker panics while the others sit in barriers. Without
/// containment the survivors wait forever for an arrival that never
/// comes, or the process aborts. The run must instead fail with the
/// panicking worker's id and message and every worker's report (and
/// trace, when traced), and leave the machine usable.
fn panic_at_a_barrier<M: Machine>(m: &M, traced: bool) {
    let counter = SharedU64s::new(1);
    let err = m
        .try_run(|ctx| {
            for round in 0..6 {
                counter.fetch_add(ctx, 0, 1);
                if round == 2 && ctx.thread_id() == 1 {
                    panic!("worker died mid-round");
                }
                ctx.barrier();
            }
            ctx.thread_id()
        })
        .expect_err("a panicking worker must fail the run");
    match &err {
        RunError::WorkerPanicked {
            tid,
            payload,
            report,
        } => {
            assert_eq!(*tid, 1);
            assert!(payload.contains("worker died mid-round"), "{payload:?}");
            // Every worker reports, the panicked one up to its panic.
            assert_eq!(report.threads.len(), THREADS);
            assert!(report.threads.iter().all(|t| t.instructions > 0));
            assert!(report.threads.iter().all(|t| t.trace.is_some() == traced));
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert!(
        err.to_string().contains("worker thread 1 panicked"),
        "{err}"
    );
    let outcome = m.run(|ctx| ctx.thread_id());
    assert_eq!(outcome.per_thread, (0..THREADS).collect::<Vec<_>>());
}

/// Worker 0 panics holding the lock the others spin or park on: they
/// must drain out instead of waiting for a release that never comes.
fn panic_holding_a_lock<M: Machine>(m: &M) {
    let locks = LockSet::new(1);
    let err = m
        .try_run(|ctx| {
            ctx.lock(&locks, 0);
            if ctx.thread_id() == 0 {
                panic!("died holding the lock");
            }
            ctx.compute(10);
            ctx.unlock(&locks, 0);
        })
        .expect_err("a panicking worker must fail the run");
    assert!(
        matches!(err, RunError::WorkerPanicked { tid: 0, .. }),
        "{err}"
    );
}

/// Every worker takes its own lock, then waits for its neighbour's: a
/// lock cycle that never ends on its own. The watchdog must cancel the
/// run and release every waiter, whether it spins (native, lax) or is
/// parked by the sequencer.
fn watchdog_cancels_a_hung_run<M: Machine>(m: &M) {
    let locks = LockSet::new(THREADS);
    let opts = RunOptions {
        timeout: Some(Duration::from_millis(20)),
    };
    let err = m
        .try_run_with(&opts, |ctx| {
            let tid = ctx.thread_id();
            ctx.lock(&locks, tid);
            ctx.barrier();
            ctx.lock(&locks, (tid + 1) % THREADS);
            assert!(ctx.cancelled(), "a held lock was granted to worker {tid}");
        })
        .expect_err("a hung run must time out");
    match err {
        RunError::TimedOut { timeout, report } => {
            assert_eq!(timeout, Duration::from_millis(20));
            assert_eq!(report.threads.len(), THREADS);
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
}

/// A run that finishes first is not cancelled, and its armed watchdog
/// exits with it instead of holding the run open.
fn fast_run_beats_the_watchdog<M: Machine>(m: &M) {
    let opts = RunOptions {
        timeout: Some(Duration::from_secs(60)),
    };
    let outcome = m
        .try_run_with(&opts, |ctx| {
            ctx.barrier();
            ctx.thread_id()
        })
        .expect("a fast run completes before the watchdog");
    assert_eq!(outcome.per_thread, (0..THREADS).collect::<Vec<_>>());
    assert!(
        outcome.report.wall < Duration::from_secs(30),
        "{:?}",
        outcome.report.wall
    );
}

/// Regions allocated inside a run continue the calling thread's address
/// space: distinct, and between regions allocated before and after.
fn workers_allocate_from_the_callers_space<M: Machine>(m: &M) {
    let before = alloc_region(64).base();
    let inside = m.run(|_| alloc_region(64).base()).per_thread;
    let after = alloc_region(64).base();
    let mut bases = inside.clone();
    bases.sort();
    bases.dedup();
    assert_eq!(bases.len(), THREADS, "distinct regions: {inside:?}");
    assert!(
        bases.iter().all(|&b| before < b && b < after),
        "{before:?} < {inside:?} < {after:?}"
    );
}

/// One test per property for the machine `$machine`.
macro_rules! contract {
    ($backend:ident, $machine:expr, traced: $traced:expr) => {
        mod $backend {
            use super::*;

            #[test]
            fn panic_at_a_barrier() {
                super::panic_at_a_barrier(&$machine, $traced);
            }

            #[test]
            fn panic_holding_a_lock() {
                super::panic_holding_a_lock(&$machine);
            }

            #[test]
            fn watchdog_cancels_a_hung_run() {
                super::watchdog_cancels_a_hung_run(&$machine);
            }

            #[test]
            fn fast_run_beats_the_watchdog() {
                super::fast_run_beats_the_watchdog(&$machine);
            }

            #[test]
            fn workers_allocate_from_the_callers_space() {
                super::workers_allocate_from_the_callers_space(&$machine);
            }
        }
    };
}

contract!(native, NativeMachine::new(THREADS), traced: false);
contract!(lax_sim, SimMachine::new(SimConfig::tiny(16), THREADS), traced: false);
contract!(
    sequenced_sim,
    SimMachine::with_tracing(SimConfig::tiny(16), THREADS, TraceConfig::default()),
    traced: true
);
