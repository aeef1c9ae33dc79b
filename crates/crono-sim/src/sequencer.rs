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
//! Blocking operations give the token up and wait for a state change
//! that concerns them:
//!
//! * a thread entering the run barrier calls
//!   [`Sequencer::barrier_wait`], which releases the token and waits
//!   until the *last* participant arrives and flips every waiting thread
//!   runnable at once — a collective rejoin, so no thread can race ahead
//!   while others are still waking (each then re-publishes its
//!   post-barrier clock with [`Sequencer::turn`], and the stale arrival
//!   clocks of threads that have not yet republished gate the token
//!   until every participant has);
//! * a thread that loses a lock race waits with [`Sequencer::block_on`]
//!   keyed by the lock word; the holder's unlock [`Sequencer::wake`]s the
//!   waiters, which re-enter the runnable set and re-contend in
//!   deterministic token order.
//!
//! How a thread waits is host-side only. When the run has no more
//! threads than the host has cores, a waiter first spins for up to
//! [`SPIN`], watching a handoff counter that is bumped whenever some
//! waiter may proceed, and re-checks its turn under the monitor mutex
//! whenever the counter moves; after that it parks on its own condvar.
//! An oversubscribed run parks at once, so a waiter never burns a core
//! its token holder needs: on two cores, spinning made BFS at 4 and 16
//! threads take 1.4–2.9 times as long. Either way the token goes to the
//! same thread: who runs next is decided under the mutex from
//! `(clock, tid)` alone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long a waiter spins before it parks. A handoff to a parked
/// thread costs a futex wake and a context switch; a spinning one sees
/// the counter move as soon as the cache line does. The bound caps what
/// a long wait, such as a barrier behind a slow thread, burns.
const SPIN: Duration = Duration::from_micros(50);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    /// Waiting at the run barrier for the collective rejoin.
    AtBarrier,
    /// Waiting for the lock word with this symbolic address.
    BlockedOn(u64),
    Done,
}

#[derive(Debug)]
struct SeqState {
    clocks: Vec<u64>,
    status: Vec<Status>,
    /// Whether each thread is parked on its condvar (a spinning or
    /// running thread needs no notify).
    parked: Vec<bool>,
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

    /// Whether every thread is at the barrier or done.
    fn all_arrived(&self) -> bool {
        self.status
            .iter()
            .all(|st| matches!(st, Status::AtBarrier | Status::Done))
    }
}

/// The scheduling monitor. One per traced [`crate::SimMachine`] run.
///
/// Wakeups are *targeted*: each thread parks on its own condvar and a
/// scheduling point signals only the computed next token holder, so a
/// token handoff costs O(threads) scan inside the monitor but at most
/// one thread wakeup. (The first implementation broadcast to a single
/// shared condvar; with 256 simulated cores that woke 255 losers per
/// hook — a context-switch storm that made sequenced runs orders of
/// magnitude slower than lax ones on small hosts.) A signal to a thread
/// that is not parked bumps the handoff counter only: a spinning waiter
/// sees it move, and a thread executing toward its next hook
/// re-evaluates the schedule there, the token staying free until then.
#[derive(Debug)]
pub(crate) struct Sequencer {
    state: Mutex<SeqState>,
    /// One condvar per thread; thread `tid` only ever waits on `cvs[tid]`.
    cvs: Vec<Condvar>,
    /// Bumped under the mutex each time a waiter may have become able to
    /// proceed; spinning waiters watch it instead of the mutex.
    handoffs: AtomicU64,
    /// Whether waiters spin for up to [`SPIN`] before they park.
    spin: bool,
}

impl Sequencer {
    /// A monitor for `threads` threads that spins only when the host has
    /// a core for each of them.
    pub(crate) fn new(threads: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_spin(threads, threads <= cores)
    }

    /// A monitor for `threads` threads whose waiters spin before they
    /// park (`spin`) or park at once.
    pub(crate) fn with_spin(threads: usize, spin: bool) -> Self {
        Sequencer {
            state: Mutex::new(SeqState {
                clocks: vec![0; threads],
                status: vec![Status::Runnable; threads],
                parked: vec![false; threads],
                current: None,
                aborted: false,
            }),
            cvs: (0..threads).map(|_| Condvar::new()).collect(),
            handoffs: AtomicU64::new(0),
            spin,
        }
    }

    fn lock(&self) -> MutexGuard<'_, SeqState> {
        // Poison-transparent, like the workspace sync primitives: a
        // panicking sim thread must not mask its own panic message with a
        // poisoned-mutex abort in every other thread.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Tells `tid` that the state changed in its favour: bumps the
    /// handoff counter a spinning `tid` watches, and notifies `tid` if it
    /// is parked.
    fn signal(&self, s: &SeqState, tid: usize) {
        if self.spin {
            // Relaxed: the counter only says when to look again; what the
            // waiter then reads, it reads under the mutex.
            self.handoffs.fetch_add(1, Ordering::Relaxed);
        }
        if s.parked[tid] {
            self.cvs[tid].notify_one();
        }
    }

    /// Signals the next token holder, unless that is `self_tid` (the
    /// caller re-checks its own eligibility without a wakeup).
    fn signal_next(&self, s: &SeqState, self_tid: usize) {
        if let Some(next) = s.next_runnable() {
            if next != self_tid {
                self.signal(s, next);
            }
        }
    }

    /// Makes every thread waiting at the barrier runnable in one step
    /// and signals each of them except `self_tid`.
    fn rejoin(&self, s: &mut SeqState, self_tid: usize) {
        for j in 0..s.status.len() {
            if s.status[j] == Status::AtBarrier {
                s.status[j] = Status::Runnable;
                if j != self_tid {
                    self.signal(s, j);
                }
            }
        }
    }

    /// Waits until `ready` holds or the run is aborted. Each check runs
    /// under the mutex. A spinning monitor first watches the handoff
    /// counter for up to [`SPIN`] and re-checks whenever it moves; then,
    /// like a non-spinning one, the waiter parks on `cvs[tid]`.
    fn wait_until<'a>(
        &'a self,
        mut s: MutexGuard<'a, SeqState>,
        tid: usize,
        ready: impl Fn(&SeqState) -> bool,
    ) -> MutexGuard<'a, SeqState> {
        let mut deadline = None;
        while !s.aborted && !ready(&s) {
            if self.spin {
                let spin_until = *deadline.get_or_insert_with(|| Instant::now() + SPIN);
                if Instant::now() < spin_until {
                    let seen = self.handoffs.load(Ordering::Relaxed);
                    drop(s);
                    self.spin_while_unchanged(seen, spin_until);
                    s = self.lock();
                    continue;
                }
            }
            s.parked[tid] = true;
            s = self.cvs[tid].wait(s).unwrap_or_else(|e| e.into_inner());
            s.parked[tid] = false;
        }
        s
    }

    /// Spins until the handoff counter moves off `seen` or `deadline`
    /// passes.
    fn spin_while_unchanged(&self, seen: u64, deadline: Instant) {
        loop {
            for _ in 0..64 {
                if self.handoffs.load(Ordering::Relaxed) != seen {
                    return;
                }
                std::hint::spin_loop();
            }
            if Instant::now() >= deadline {
                return;
            }
        }
    }

    /// Waits until `tid` is runnable, the token is free and `tid` is the
    /// next holder, then takes it.
    fn acquire(&self, s: MutexGuard<'_, SeqState>, tid: usize) {
        let mut s = self.wait_until(s, tid, |s| {
            s.status[tid] == Status::Runnable && s.current.is_none() && s.is_next(tid)
        });
        if !s.aborted {
            s.current = Some(tid);
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
        self.signal_next(&s, tid);
        self.acquire(s, tid);
    }

    /// Releases the token and waits at the run barrier. When the last
    /// live thread arrives, every waiting thread is flipped runnable *in
    /// one step* — a collective rejoin, so which thread resumes first is
    /// decided by `(clock, tid)` order, never by wakeup timing. Callers
    /// must re-publish their post-barrier clock with [`Sequencer::turn`]
    /// before touching shared state again.
    pub(crate) fn barrier_wait(&self, tid: usize) {
        let mut s = self.lock();
        s.status[tid] = Status::AtBarrier;
        s.release_if_held(tid);
        if s.all_arrived() {
            // Collective rejoin: every participant wakes (once per
            // barrier, not per hook) and runs thread-local post-barrier
            // code freely until its next shared hook republishes.
            self.rejoin(&mut s, tid);
        } else {
            // Still threads running toward the barrier: hand the free
            // token to whichever of them is next.
            self.signal_next(&s, tid);
        }
        drop(self.wait_until(s, tid, |s| s.status[tid] == Status::Runnable));
    }

    /// Releases the token and waits until [`Sequencer::wake`] is called
    /// with `key` *and* the token comes around again. Used when a
    /// `try_acquire` on the lock word at symbolic address `key` fails.
    pub(crate) fn block_on(&self, tid: usize, key: u64) {
        let mut s = self.lock();
        if s.aborted {
            return;
        }
        s.status[tid] = Status::BlockedOn(key);
        s.release_if_held(tid);
        self.signal_next(&s, tid);
        self.acquire(s, tid);
    }

    /// Makes every thread waiting on `key` runnable again. The woken
    /// threads only resume once the token frees up and comes around to
    /// them — in deterministic `(clock, tid)` order. The unlocking caller
    /// normally still holds the token (its next scheduling point does the
    /// handoff); the signal below covers the defensive case where it does
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
                self.signal(&s, next);
            }
        }
    }

    /// Releases the token and removes a finished thread from the
    /// rotation forever.
    ///
    /// Departing may complete a pending collective rejoin: if every
    /// other thread is already waiting at the barrier (or done), this
    /// thread leaving the rotation is the arrival the barrier was
    /// waiting for — e.g. a permanently dead core departing the run
    /// while the survivors sit at a kernel barrier. Without this check
    /// those waiters would wait forever.
    pub(crate) fn done(&self, tid: usize) {
        let mut s = self.lock();
        s.status[tid] = Status::Done;
        s.release_if_held(tid);
        if s.all_arrived() && s.status.contains(&Status::AtBarrier) {
            self.rejoin(&mut s, tid);
        } else {
            self.signal_next(&s, tid);
        }
    }

    /// Cancels the schedule: drops the run token and releases every
    /// waiting thread. All further scheduling points return immediately,
    /// so surviving threads drain without ever waiting on a dead peer.
    pub(crate) fn abort(&self) {
        let mut s = self.lock();
        s.aborted = true;
        s.current = None;
        for tid in 0..self.cvs.len() {
            self.signal(&s, tid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Both wait paths: park at once, and spin then park.
    const MODES: [bool; 2] = [false, true];

    /// Runs `body(tid, seq, log)` on `threads` scoped threads, once per
    /// wait path, and checks that the bodies pushed `len` `(clock, tid)`
    /// pairs to `log` and that they came out sorted.
    fn each_mode(
        threads: usize,
        len: usize,
        body: impl Fn(usize, &Sequencer, &Mutex<Vec<(u64, usize)>>) + Sync,
    ) {
        for spin in MODES {
            let seq = Sequencer::with_spin(threads, spin);
            let log = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for tid in 0..threads {
                    let (seq, log, body) = (&seq, &log, &body);
                    scope.spawn(move || body(tid, seq, log));
                }
            });
            let log = log.into_inner().unwrap();
            assert_eq!(log.len(), len, "spin={spin}");
            for w in log.windows(2) {
                assert!(w[0] <= w[1], "spin={spin}: {:?} then {:?}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn turns_serialize_in_clock_order() {
        // Three threads each log (clock, tid) at every turn; the merged
        // log must be sorted by (clock, tid).
        each_mode(3, 150, |tid, seq, log| {
            let mut clock = 0u64;
            for step in 0..50u64 {
                seq.turn(tid, clock);
                log.lock().unwrap().push((clock, tid));
                clock += 1 + (tid as u64 + step) % 3;
            }
            seq.done(tid);
        });
    }

    #[test]
    fn two_threads_alternate_through_many_turns_in_clock_order() {
        // 20 000 turns each, interleaved clocks: every turn hands the
        // token to the other thread, so this drives the handoff itself.
        each_mode(2, 40_000, |tid, seq, log| {
            for step in 0..20_000u64 {
                let clock = 2 * step + tid as u64;
                seq.turn(tid, clock);
                log.lock().unwrap().push((clock, tid));
            }
            seq.done(tid);
        });
    }

    #[test]
    fn token_holder_excludes_other_threads() {
        // A counter only the token holder increments: no two threads may
        // ever observe each other between turn points.
        let inside = AtomicUsize::new(0);
        each_mode(4, 400, |tid, seq, log| {
            for step in 0..100u64 {
                let clock = step * 3 + tid as u64;
                seq.turn(tid, clock);
                assert_eq!(inside.fetch_add(1, Ordering::SeqCst), 0);
                log.lock().unwrap().push((clock, tid));
                inside.fetch_sub(1, Ordering::SeqCst);
            }
            seq.done(tid);
        });
    }

    #[test]
    fn barrier_rejoin_resumes_in_clock_order() {
        // Threads reach each barrier at different clocks, leave it with
        // clocks in reverse tid order, and log their first turn after
        // it: the rejoin must not let an early waker run first.
        each_mode(3, 60, |tid, seq, log| {
            for round in 0..20u64 {
                seq.turn(tid, 100 * round + tid as u64);
                seq.barrier_wait(tid);
                let clock = 100 * round + 50 - tid as u64;
                seq.turn(tid, clock);
                log.lock().unwrap().push((clock, tid));
            }
            seq.done(tid);
        });
    }

    #[test]
    fn done_completes_a_pending_collective_rejoin() {
        // Thread 1 waits at the barrier first; thread 0 then departs via
        // done() without ever reaching the barrier. The rejoin check
        // inside done() must release thread 1, not leave it waiting
        // forever.
        for spin in MODES {
            let seq = Sequencer::with_spin(2, spin);
            let released = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    seq.barrier_wait(1);
                    released.store(1, Ordering::SeqCst);
                    seq.done(1);
                });
                scope.spawn(|| {
                    // Give thread 1 time to reach the barrier (and, when
                    // spinning, to spin out and park) before departing.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    seq.done(0);
                });
            });
            assert_eq!(released.load(Ordering::SeqCst), 1, "spin={spin}");
        }
    }

    #[test]
    fn wake_reactivates_only_matching_key() {
        for spin in MODES {
            let seq = Sequencer::with_spin(2, spin);
            let progressed = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    seq.turn(0, 0);
                    seq.block_on(0, 0xA);
                    progressed.store(1, Ordering::SeqCst);
                    seq.done(0);
                });
                scope.spawn(|| {
                    seq.turn(1, 5);
                    seq.wake(0xB); // wrong key: thread 0 stays blocked
                    assert_eq!(progressed.load(Ordering::SeqCst), 0);
                    seq.wake(0xA);
                    seq.done(1);
                });
            });
            assert_eq!(progressed.load(Ordering::SeqCst), 1, "spin={spin}");
        }
    }

    #[test]
    fn spinning_follows_the_host_core_count() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(Sequencer::new(cores).spin);
        assert!(!Sequencer::new(cores + 1).spin);
    }
}
