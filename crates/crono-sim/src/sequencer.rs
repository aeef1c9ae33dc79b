//! Deterministic hook-level scheduling for traced simulation runs.
//!
//! The simulator normally runs Graphite-style *lax*: thread clocks drift
//! freely and shared timing state (link epochs, home queues, lock
//! bookings, coherence inboxes) is touched in whatever order the host OS
//! schedules the threads. That is the right trade for speed, but it makes
//! the event stream — and therefore a trace — nondeterministic.
//!
//! The [`Sequencer`] restores determinism without changing the
//! programming model. It maintains a single **run token**: the thread
//! holding it is the only one allowed to execute between two hook
//! points, so every access to shared simulator state is serialized. At
//! each *shared-state* hook (memory ops, locks, barriers) the running
//! thread publishes its local clock, releases the token, and the token
//! is handed to the runnable thread with the minimum `(local clock,
//! thread id)` — a total order derived purely from simulated time, never
//! from host scheduling. The same run therefore always produces the same
//! interleaving, the same timings, and a byte-identical trace. Purely
//! thread-local hooks (`compute`, `record_active`) never touch the
//! token; their clock advances are published at the thread's next shared
//! hook.
//!
//! Blocking operations cooperate instead of spinning:
//!
//! * a thread entering the run barrier calls
//!   [`Sequencer::barrier_wait`], which releases the token and parks
//!   until the *last* participant arrives and flips every parked thread
//!   runnable at once — a collective rejoin, so no thread can race ahead
//!   while others are still waking (each then re-publishes its
//!   post-barrier clock with [`Sequencer::turn`], and the stale arrival
//!   clocks of threads that have not yet republished gate the token
//!   until every participant has);
//! * a thread that loses a lock race parks with [`Sequencer::block_on`]
//!   keyed by the lock word; the holder's unlock [`Sequencer::wake`]s the
//!   waiters, which re-enter the runnable set and re-contend in
//!   deterministic token order.

use std::sync::{Condvar, Mutex, MutexGuard};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    /// Parked at the run barrier, waiting for the collective rejoin.
    AtBarrier,
    /// Parked waiting for the lock word with this symbolic address.
    BlockedOn(u64),
    Done,
}

#[derive(Debug)]
struct SeqState {
    clocks: Vec<u64>,
    status: Vec<Status>,
    /// The thread currently holding the run token, if any.
    current: Option<usize>,
    /// Set when the run is cancelled (a worker panicked or timed out):
    /// every scheduling point returns immediately so the surviving
    /// threads can drain without waiting for a token that will never
    /// circulate again.
    aborted: bool,
}

impl SeqState {
    /// Whether `tid` is the unique minimum `(clock, tid)` among runnable
    /// threads — the next token holder.
    fn is_next(&self, tid: usize) -> bool {
        let me = (self.clocks[tid], tid);
        self.status
            .iter()
            .enumerate()
            .all(|(j, st)| j == tid || *st != Status::Runnable || (self.clocks[j], j) > me)
    }

    /// The runnable thread with the minimum `(clock, tid)` — the next
    /// token holder, if any thread is still runnable.
    fn next_runnable(&self) -> Option<usize> {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, st)| **st == Status::Runnable)
            .min_by_key(|&(j, _)| (self.clocks[j], j))
            .map(|(j, _)| j)
    }

    fn release_if_held(&mut self, tid: usize) {
        if self.current == Some(tid) {
            self.current = None;
        }
    }
}

/// The scheduling monitor. One per traced [`crate::SimMachine`] run.
///
/// Wakeups are *targeted*: each thread parks on its own condvar and a
/// scheduling point notifies only the computed next token holder, so a
/// token handoff costs O(threads) scan inside the monitor but exactly
/// one thread wakeup. (The first implementation broadcast to a single
/// shared condvar; with 256 simulated cores that woke 255 losers per
/// hook — a context-switch storm that made sequenced runs orders of
/// magnitude slower than lax ones on small hosts.) A notify aimed at a
/// thread that is not parked (it is executing toward its next hook) is
/// intentionally droppable: that thread re-evaluates the schedule at its
/// next scheduling point, and the token stays free until then.
#[derive(Debug)]
pub(crate) struct Sequencer {
    state: Mutex<SeqState>,
    /// One condvar per thread; thread `tid` only ever waits on `cvs[tid]`.
    cvs: Vec<Condvar>,
}

impl Sequencer {
    pub(crate) fn new(threads: usize) -> Self {
        Sequencer {
            state: Mutex::new(SeqState {
                clocks: vec![0; threads],
                status: vec![Status::Runnable; threads],
                current: None,
                aborted: false,
            }),
            cvs: (0..threads).map(|_| Condvar::new()).collect(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SeqState> {
        // Poison-transparent, like the workspace sync primitives: a
        // panicking sim thread must not mask its own panic message with a
        // poisoned-mutex abort in every other thread.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Notifies the next token holder, unless that is `self_tid` (the
    /// caller re-checks its own eligibility without a wakeup).
    fn notify_next(&self, s: &SeqState, self_tid: usize) {
        if let Some(next) = s.next_runnable() {
            if next != self_tid {
                self.cvs[next].notify_one();
            }
        }
    }

    /// Waits until the token is free and `tid` is the next holder, then
    /// takes it. Caller must already be `Runnable` with its clock
    /// published.
    fn acquire(&self, mut s: MutexGuard<'_, SeqState>, tid: usize) {
        loop {
            if s.aborted {
                return;
            }
            if s.current.is_none() && s.is_next(tid) {
                s.current = Some(tid);
                return;
            }
            s = self.cvs[tid].wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Publishes `clock`, releases the run token, and re-acquires it once
    /// this thread holds the minimum `(clock, tid)` among runnable
    /// threads. Hooks that touch shared simulator state call this on
    /// entry.
    pub(crate) fn turn(&self, tid: usize, clock: u64) {
        let mut s = self.lock();
        if s.aborted {
            return;
        }
        s.clocks[tid] = clock;
        s.release_if_held(tid);
        self.notify_next(&s, tid);
        self.acquire(s, tid);
    }

    /// Releases the token and parks at the run barrier. When the last
    /// live thread arrives, every parked thread is flipped runnable *in
    /// one step* — a collective rejoin, so which thread resumes first is
    /// decided by `(clock, tid)` order, never by wakeup timing. Callers
    /// must re-publish their post-barrier clock with [`Sequencer::turn`]
    /// before touching shared state again.
    pub(crate) fn barrier_wait(&self, tid: usize) {
        let mut s = self.lock();
        s.status[tid] = Status::AtBarrier;
        s.release_if_held(tid);
        let all_arrived = s
            .status
            .iter()
            .all(|st| matches!(st, Status::AtBarrier | Status::Done));
        if all_arrived {
            // Collective rejoin: every participant wakes (once per
            // barrier, not per hook) and runs thread-local post-barrier
            // code freely until its next shared hook republishes.
            for (j, st) in s.status.iter_mut().enumerate() {
                if *st == Status::AtBarrier {
                    *st = Status::Runnable;
                    if j != tid {
                        self.cvs[j].notify_one();
                    }
                }
            }
        } else {
            // Still threads running toward the barrier: hand the free
            // token to whichever of them is next.
            self.notify_next(&s, tid);
        }
        while s.status[tid] != Status::Runnable && !s.aborted {
            s = self.cvs[tid].wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Releases the token and parks until [`Sequencer::wake`] is called
    /// with `key` *and* the token comes around again. Used when a
    /// `try_acquire` on the lock word at symbolic address `key` fails.
    pub(crate) fn block_on(&self, tid: usize, key: u64) {
        let mut s = self.lock();
        if s.aborted {
            return;
        }
        s.status[tid] = Status::BlockedOn(key);
        s.release_if_held(tid);
        self.notify_next(&s, tid);
        loop {
            if s.aborted {
                return;
            }
            if s.status[tid] == Status::Runnable && s.current.is_none() && s.is_next(tid) {
                s.current = Some(tid);
                return;
            }
            s = self.cvs[tid].wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Makes every thread parked on `key` runnable again. The woken
    /// threads only resume once the token frees up and comes around to
    /// them — in deterministic `(clock, tid)` order. The unlocking caller
    /// normally still holds the token (its next scheduling point does the
    /// handoff); the notify below covers the defensive case where it does
    /// not.
    pub(crate) fn wake(&self, key: u64) {
        let mut s = self.lock();
        for st in s.status.iter_mut() {
            if *st == Status::BlockedOn(key) {
                *st = Status::Runnable;
            }
        }
        if s.current.is_none() {
            if let Some(next) = s.next_runnable() {
                self.cvs[next].notify_one();
            }
        }
    }

    /// Releases the token and removes a finished thread from the
    /// rotation forever.
    ///
    /// Departing may complete a pending collective rejoin: if every
    /// other thread is already parked at the barrier (or done), this
    /// thread leaving the rotation is the arrival the barrier was
    /// waiting for — e.g. a permanently dead core departing the run
    /// while the survivors sit at a kernel barrier. Without this check
    /// those waiters would park forever.
    pub(crate) fn done(&self, tid: usize) {
        let mut s = self.lock();
        s.status[tid] = Status::Done;
        s.release_if_held(tid);
        let all_arrived = s
            .status
            .iter()
            .all(|st| matches!(st, Status::AtBarrier | Status::Done));
        let any_at_barrier = s.status.contains(&Status::AtBarrier);
        if all_arrived && any_at_barrier {
            for (j, st) in s.status.iter_mut().enumerate() {
                if *st == Status::AtBarrier {
                    *st = Status::Runnable;
                    self.cvs[j].notify_one();
                }
            }
        } else {
            self.notify_next(&s, tid);
        }
    }

    /// Cancels the schedule: drops the run token and releases every
    /// parked thread. All further scheduling points return immediately,
    /// so surviving threads drain without ever waiting on a dead peer.
    pub(crate) fn abort(&self) {
        let mut s = self.lock();
        s.aborted = true;
        s.current = None;
        for cv in &self.cvs {
            cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn turns_serialize_in_clock_order() {
        // Three threads each log (clock, tid) at every turn; the merged
        // log must be sorted by (clock, tid).
        let seq = Arc::new(Sequencer::new(3));
        let log = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for tid in 0..3usize {
                let seq = Arc::clone(&seq);
                let log = Arc::clone(&log);
                scope.spawn(move || {
                    let mut clock = 0u64;
                    for step in 0..50u64 {
                        seq.turn(tid, clock);
                        log.lock().unwrap().push((clock, tid));
                        clock += 1 + (tid as u64 + step) % 3;
                    }
                    seq.done(tid);
                });
            }
        });
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 150);
        for w in log.windows(2) {
            assert!(w[0] <= w[1], "out of order: {:?} then {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn token_holder_excludes_other_threads() {
        // A counter only the token holder increments: no two threads may
        // ever observe each other between turn points.
        let seq = Arc::new(Sequencer::new(4));
        let inside = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for tid in 0..4usize {
                let seq = Arc::clone(&seq);
                let inside = Arc::clone(&inside);
                scope.spawn(move || {
                    for step in 0..100u64 {
                        seq.turn(tid, step * 3 + tid as u64);
                        assert_eq!(inside.fetch_add(1, Ordering::SeqCst), 0);
                        inside.fetch_sub(1, Ordering::SeqCst);
                    }
                    seq.done(tid);
                });
            }
        });
    }

    #[test]
    fn done_completes_a_pending_collective_rejoin() {
        // Thread 1 parks at the barrier first; thread 0 then departs via
        // done() without ever reaching the barrier. The rejoin check
        // inside done() must release thread 1, not leave it parked
        // forever.
        let seq = Arc::new(Sequencer::new(2));
        let released = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            {
                let seq = Arc::clone(&seq);
                let released = Arc::clone(&released);
                scope.spawn(move || {
                    seq.barrier_wait(1);
                    released.store(1, Ordering::SeqCst);
                    seq.done(1);
                });
            }
            let seq0 = Arc::clone(&seq);
            scope.spawn(move || {
                // Give thread 1 time to park AtBarrier before departing.
                std::thread::sleep(std::time::Duration::from_millis(20));
                seq0.done(0);
            });
        });
        assert_eq!(released.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn wake_reactivates_only_matching_key() {
        let seq = Arc::new(Sequencer::new(2));
        let progressed = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            {
                let seq = Arc::clone(&seq);
                let progressed = Arc::clone(&progressed);
                scope.spawn(move || {
                    seq.turn(0, 0);
                    seq.block_on(0, 0xA);
                    progressed.store(1, Ordering::SeqCst);
                    seq.done(0);
                });
            }
            let seq1 = Arc::clone(&seq);
            let progressed1 = Arc::clone(&progressed);
            scope.spawn(move || {
                seq1.turn(1, 5);
                seq1.wake(0xB); // wrong key: thread 0 stays parked
                assert_eq!(progressed1.load(Ordering::SeqCst), 0);
                seq1.wake(0xA);
                seq1.done(1);
            });
        });
        assert_eq!(progressed.load(Ordering::SeqCst), 1);
    }
}
