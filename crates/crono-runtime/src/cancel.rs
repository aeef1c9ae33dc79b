//! The run protocol both backends share: worker spawn, panic
//! containment, the wall-clock watchdog and core departure.
//!
//! [`run_workers`] is the protocol's one owner. It spawns one worker per
//! thread in the caller's [`AddressSpace`], runs the body under
//! `catch_unwind`, arms the watchdog and maps the outcome. A backend
//! supplies only what is its own: how to build worker `tid`'s context,
//! how to turn a finished context into its report, and what else to
//! abort when the run is cancelled.
//!
//! Workers rendezvous at kernel barriers. A plain [`std::sync::Barrier`]
//! deadlocks the moment one worker dies — the survivors wait for an
//! arrival that never comes. [`RunGate`] replaces it: one
//! generation-counting barrier whose waiters are *also* released when
//! the run is cancelled (by a contained worker panic or by the watchdog
//! timeout), so surviving workers drain out at their next barrier or
//! iteration boundary instead of hanging. Each arrival passes a clock,
//! and every waiter of a generation leaves with the largest one, which
//! is how the simulator aligns its threads' cycle clocks. After
//! cancellation every `barrier_wait` returns `None` at once; results of
//! a cancelled run are discarded by the caller, so the
//! post-cancellation execution only needs to terminate, not to stay
//! meaningful.

use crate::{AddressSpace, RunError, RunOptions, RunOutcome, RunReport};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why a run was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CancelCause {
    /// A worker thread panicked; its panic was contained.
    WorkerPanic,
    /// The wall-clock watchdog ([`RunOptions::timeout`]) expired.
    Timeout,
}

#[derive(Debug)]
struct GateState {
    cause: Option<CancelCause>,
    arrived: usize,
    generation: u64,
    /// Largest clock an arrival of the open generation passed.
    max_clock: u64,
    /// Largest arrival clock of the last released generation, which its
    /// waiters return. The next generation cannot be released before
    /// they read it: it needs their arrivals too.
    released_clock: u64,
    /// Workers the barrier currently waits for. Starts at the run's
    /// thread count; a permanently departed worker ([`RunGate::depart`])
    /// shrinks it, re-sizing every subsequent barrier to the survivors.
    expected: usize,
    /// Set after all workers joined; releases the watchdog.
    done: bool,
}

/// Cancellation token + cancellable sense barrier + watchdog, shared by
/// every worker of one run.
#[derive(Debug)]
pub struct RunGate {
    /// Fast-path mirror of `cause.is_some()` for per-iteration polling.
    flag: AtomicBool,
    state: Mutex<GateState>,
    cv: Condvar,
}

/// The unwind payload of [`RunGate::depart`].
struct Departed;

impl RunGate {
    /// A gate for a run of `threads` workers.
    pub fn new(threads: usize) -> Self {
        RunGate {
            flag: AtomicBool::new(false),
            state: Mutex::new(GateState {
                cause: None,
                arrived: 0,
                generation: 0,
                max_clock: 0,
                released_clock: 0,
                expected: threads,
                done: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Poison-transparent lock: a panicking worker must not mask its own
    /// panic by aborting every other thread on a poisoned mutex.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether the run has been cancelled (cheap enough to poll from
    /// kernel inner loops).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The first cancellation cause, if any.
    fn cause(&self) -> Option<CancelCause> {
        self.lock().cause
    }

    /// Cancels the run, releasing every barrier waiter. The first cause
    /// wins; returns whether this call was the one that cancelled.
    fn cancel(&self, cause: CancelCause) -> bool {
        let mut s = self.lock();
        if s.cause.is_some() {
            return false;
        }
        s.cause = Some(cause);
        self.flag.store(true, Ordering::Release);
        self.cv.notify_all();
        true
    }

    /// Waits until all currently-expected workers arrive and returns the
    /// largest `clock` that any arrival of this generation passed, or
    /// returns `None` when the run is cancelled (immediately once
    /// cancelled). A departed worker no longer counts toward the
    /// barrier. The simulator passes each thread's cycle clock; the
    /// native backend, which has none, passes 0.
    pub fn barrier_wait(&self, clock: u64) -> Option<u64> {
        let mut s = self.lock();
        if s.cause.is_some() {
            return None;
        }
        s.arrived += 1;
        s.max_clock = s.max_clock.max(clock);
        if s.arrived >= s.expected {
            self.release(&mut s);
            return Some(s.released_clock);
        }
        let gen = s.generation;
        while s.generation == gen && s.cause.is_none() {
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        s.cause.is_none().then_some(s.released_clock)
    }

    /// Releases the open generation's waiters with its largest clock.
    fn release(&self, s: &mut GateState) {
        s.released_clock = std::mem::take(&mut s.max_clock);
        s.arrived = 0;
        s.generation += 1;
        self.cv.notify_all();
    }

    /// Permanently removes the calling worker from the barrier
    /// population (a disabled core) and unwinds it out of the run.
    /// Every subsequent barrier waits only for the survivors, and a
    /// generation whose last missing arrival was this worker is released
    /// immediately, with the survivors' largest clock. Unlike a panic,
    /// departing cancels nothing: [`run_workers`] records the worker as
    /// departed and the survivors keep computing. The unwind skips the
    /// panic hook, so nothing is printed.
    pub fn depart(&self) -> ! {
        let mut s = self.lock();
        s.expected = s.expected.saturating_sub(1);
        if s.expected > 0 && s.arrived >= s.expected {
            self.release(&mut s);
        }
        drop(s);
        resume_unwind(Box::new(Departed))
    }

    /// Marks the run finished (all workers joined); releases the
    /// watchdog. Must be called inside the thread scope so the watchdog
    /// thread exits before the scope does.
    fn finish(&self) {
        let mut s = self.lock();
        s.done = true;
        self.cv.notify_all();
    }

    /// Blocks until the run finishes or `timeout` elapses; on expiry
    /// cancels the run with [`CancelCause::Timeout`]. Runs on a dedicated
    /// watchdog thread.
    fn watchdog(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut s = self.lock();
        loop {
            if s.done || s.cause.is_some() {
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                s.cause = Some(CancelCause::Timeout);
                self.flag.store(true, Ordering::Release);
                self.cv.notify_all();
                return;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(s, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            s = guard;
        }
    }
}

/// Renders a caught panic payload for [`RunError::WorkerPanicked`].
fn panic_payload(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How one worker's body ended.
#[derive(Debug)]
enum Exit<R> {
    /// `body` returned this value.
    Returned(R),
    /// The worker left through [`RunGate::depart`]; the survivors
    /// completed without it.
    Departed,
    /// The worker panicked with this message.
    Panicked(String),
}

/// A finished [`run_workers`] call: every worker's finished context,
/// the run's wall time, and how each worker's body ended.
#[derive(Debug)]
pub struct Workers<R, T> {
    /// `finish`'s output for every worker in thread-id order, a
    /// panicked or departed one's included.
    pub finished: Vec<T>,
    /// Wall-clock time from spawning the workers to the last join.
    pub wall: Duration,
    exits: Vec<Exit<R>>,
    /// The configured timeout, when the watchdog cancelled the run.
    timed_out: Option<Duration>,
}

impl<R, T> Workers<R, T> {
    /// The run's result, with `report` as its report: the returned
    /// values of every worker that did not depart, in thread-id order.
    ///
    /// # Errors
    ///
    /// [`RunError::WorkerPanicked`] for the lowest-numbered worker that
    /// panicked; otherwise [`RunError::TimedOut`] when the watchdog
    /// cancelled the run.
    pub fn outcome(self, report: RunReport) -> Result<RunOutcome<R>, RunError> {
        let mut per_thread = Vec::with_capacity(self.exits.len());
        let mut first_panic = None;
        for (tid, exit) in self.exits.into_iter().enumerate() {
            match exit {
                Exit::Returned(v) => per_thread.push(v),
                Exit::Departed => {}
                Exit::Panicked(payload) => {
                    first_panic.get_or_insert((tid, payload));
                }
            }
        }
        if let Some((tid, payload)) = first_panic {
            return Err(RunError::WorkerPanicked {
                tid,
                payload,
                report: Box::new(report),
            });
        }
        if let Some(timeout) = self.timed_out {
            return Err(RunError::TimedOut {
                timeout,
                report: Box::new(report),
            });
        }
        Ok(RunOutcome { per_thread, report })
    }
}

/// Runs `body` once on each of `threads` workers and returns after all
/// have joined: the run protocol behind every
/// [`Machine::try_run_with`](crate::Machine::try_run_with).
///
/// Each worker enters the caller's [`AddressSpace`], builds its context
/// with `start(tid)`, runs `body` under `catch_unwind`, and hands the
/// context to `finish` however `body` ended, so a panicked worker's
/// partial report survives. The first panic cancels `gate`, which
/// releases every barrier waiter, and then calls `abort`; the
/// [`RunOptions::timeout`] watchdog does the same when it fires. A
/// worker that leaves through [`RunGate::depart`] cancels nothing.
pub fn run_workers<C, R, T>(
    threads: usize,
    opts: &RunOptions,
    gate: &RunGate,
    abort: impl Fn() + Sync,
    start: impl Fn(usize) -> C + Sync,
    body: impl Fn(&mut C) -> R + Sync,
    finish: impl Fn(C) -> T + Sync,
) -> Workers<R, T>
where
    R: Send,
    T: Send,
{
    let space = AddressSpace::current();
    let t0 = Instant::now();
    let (exits, finished): (Vec<_>, Vec<_>) = std::thread::scope(|scope| {
        let (abort, start, body, finish) = (&abort, &start, &body, &finish);
        if let Some(timeout) = opts.timeout {
            scope.spawn(move || {
                gate.watchdog(timeout);
                if gate.is_cancelled() {
                    abort();
                }
            });
        }
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let space = space.clone();
                scope.spawn(move || {
                    space.enter();
                    let mut ctx = start(tid);
                    let exit = match catch_unwind(AssertUnwindSafe(|| body(&mut ctx))) {
                        Ok(v) => Exit::Returned(v),
                        Err(p) if p.is::<Departed>() => Exit::Departed,
                        Err(p) => {
                            gate.cancel(CancelCause::WorkerPanic);
                            abort();
                            Exit::Panicked(panic_payload(p))
                        }
                    };
                    (exit, finish(ctx))
                })
            })
            .collect();
        // The workers catch their own panics; join only fails if a panic
        // payload itself panicked while being dropped.
        let joined = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread vanished"))
            .unzip();
        gate.finish();
        joined
    });
    Workers {
        finished,
        wall: t0.elapsed(),
        exits,
        timed_out: opts
            .timeout
            .filter(|_| gate.cause() == Some(CancelCause::Timeout)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Departs outside a run: catches the unwind [`run_workers`] would.
    fn depart_quietly(gate: &RunGate) {
        let unwound = catch_unwind(AssertUnwindSafe(|| gate.depart()));
        assert!(unwound.is_err_and(|p| p.is::<Departed>()));
    }

    #[test]
    fn barrier_synchronizes_all_threads() {
        let gate = Arc::new(RunGate::new(4));
        let passed: Vec<[Option<u64>; 2]> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|tid| {
                    let gate = Arc::clone(&gate);
                    // Distinct clocks; the second generation's are all
                    // smaller than the first's, and another thread's is
                    // the largest.
                    scope.spawn(move || {
                        [
                            gate.barrier_wait(100 + 7 * tid),
                            gate.barrier_wait(10 - tid),
                        ]
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            passed,
            vec![[Some(121), Some(10)]; 4],
            "every arrival leaves with its own generation's largest clock"
        );
    }

    #[test]
    fn cancel_releases_parked_waiters() {
        let gate = Arc::new(RunGate::new(3));
        let results: Vec<Option<u64>> = std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let gate = Arc::clone(&gate);
                    scope.spawn(move || gate.barrier_wait(5))
                })
                .collect();
            // The third thread never arrives — it "panicked".
            std::thread::sleep(Duration::from_millis(10));
            gate.cancel(CancelCause::WorkerPanic);
            waiters.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(results, vec![None, None]);
        // Subsequent waits return immediately.
        assert_eq!(gate.barrier_wait(5), None);
        assert_eq!(gate.cause(), Some(CancelCause::WorkerPanic));
    }

    #[test]
    fn depart_resizes_the_barrier_to_survivors() {
        let gate = Arc::new(RunGate::new(3));
        let results: Vec<Option<u64>> = std::thread::scope(|scope| {
            let waiters: Vec<_> = [5, 9]
                .map(|clock| {
                    let gate = Arc::clone(&gate);
                    scope.spawn(move || gate.barrier_wait(clock))
                })
                .into_iter()
                .collect();
            // The third worker dies permanently instead of arriving: the
            // two parked survivors must be released with their largest
            // clock.
            std::thread::sleep(Duration::from_millis(10));
            depart_quietly(&gate);
            waiters.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            results,
            vec![Some(9), Some(9)],
            "survivors pass, not cancel"
        );
        assert_eq!(gate.lock().expected, 2);
        // Subsequent barriers need only the two survivors.
        let passed: Vec<Option<u64>> = std::thread::scope(|scope| {
            (0..2)
                .map(|_| {
                    let gate = Arc::clone(&gate);
                    scope.spawn(move || gate.barrier_wait(1))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(passed, vec![Some(1), Some(1)]);
    }

    #[test]
    fn depart_before_any_arrival_only_shrinks() {
        let gate = RunGate::new(2);
        depart_quietly(&gate);
        assert_eq!(gate.lock().expected, 1);
        // The lone survivor sails through every barrier.
        assert_eq!(gate.barrier_wait(4), Some(4));
        assert_eq!(gate.barrier_wait(2), Some(2));
    }

    #[test]
    fn first_cancel_cause_wins() {
        let gate = RunGate::new(1);
        assert!(gate.cancel(CancelCause::Timeout));
        assert!(!gate.cancel(CancelCause::WorkerPanic));
        assert_eq!(gate.cause(), Some(CancelCause::Timeout));
    }

    #[test]
    fn watchdog_cancels_after_timeout() {
        let gate = Arc::new(RunGate::new(1));
        std::thread::scope(|scope| {
            let g = Arc::clone(&gate);
            scope.spawn(move || g.watchdog(Duration::from_millis(5)));
        });
        assert_eq!(gate.cause(), Some(CancelCause::Timeout));
        assert!(gate.is_cancelled());
    }

    #[test]
    fn watchdog_exits_quietly_when_run_finishes() {
        let gate = Arc::new(RunGate::new(1));
        std::thread::scope(|scope| {
            let g = Arc::clone(&gate);
            scope.spawn(move || g.watchdog(Duration::from_secs(60)));
            gate.finish();
        });
        assert_eq!(gate.cause(), None);
    }
}
