use crate::{alloc_region, Addr, AtomicEpochTally, Region, RunGate, LINE_SIZE};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A test-and-set lock word. [`LockSet::acquire_or_drain`] spins on it;
/// CRONO's benchmarks guard fine-grain updates with "atomic locks", and
/// short critical sections make spinning the right discipline on both
/// backends.
#[derive(Debug, Default)]
pub(crate) struct SpinLock {
    held: AtomicBool,
}

impl SpinLock {
    /// Acquires the lock only if it is free right now; never spins.
    #[inline]
    pub(crate) fn try_acquire(&self) -> bool {
        !self.held.swap(true, Ordering::Acquire)
    }

    #[inline]
    pub(crate) fn release(&self) {
        self.held.store(false, Ordering::Release);
    }
}

/// An indexed set of locks with symbolic addresses and per-lock release
/// clocks.
///
/// One `LockSet` serves both backends: the spinlocks provide *real*
/// mutual exclusion everywhere, while the release clocks let the
/// simulated backend compute how long a thread's simulated clock must
/// wait behind the previous holder (Graphite-style lax synchronization).
///
/// Each lock word sits on its own cache line in the symbolic address
/// space, mirroring CRONO's cache-line-aligned data structures.
///
/// # Examples
///
/// ```
/// use crono_runtime::{LockSet, Machine, NativeMachine, ThreadCtx};
///
/// let locks = LockSet::new(8);
/// let machine = NativeMachine::new(2);
/// machine.run(|ctx| {
///     ctx.lock(&locks, 3);
///     // critical section
///     ctx.unlock(&locks, 3);
/// });
/// ```
#[derive(Debug)]
pub struct LockSet {
    locks: Vec<SpinLock>,
    release_clocks: Vec<AtomicU64>,
    /// Simulated hold time booked on each lock, per accounting epoch.
    holds: Vec<AtomicEpochTally>,
    region: Region,
}

impl LockSet {
    /// Creates `n` locks, cache-line padded in the symbolic address space.
    pub fn new(n: usize) -> Self {
        LockSet {
            locks: (0..n).map(|_| SpinLock::default()).collect(),
            release_clocks: (0..n).map(|_| AtomicU64::new(0)).collect(),
            holds: (0..n).map(|_| AtomicEpochTally::default()).collect(),
            region: alloc_region((n as u64 * LINE_SIZE).max(1)),
        }
    }

    /// Number of locks in the set.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    /// Symbolic address of lock `idx`'s lock word.
    pub fn addr(&self, idx: usize) -> Addr {
        self.region.addr_padded(idx)
    }

    /// Acquires lock `idx` (real mutual exclusion) unless `gate`'s run
    /// is cancelled first, returning whether the acquisition contended
    /// (the first try failed). Spins on [`LockSet::try_acquire_raw`] and
    /// yields the host thread every 64 tries. A cancelled run may never
    /// release the lock (its holder panicked), so waiters bail out and
    /// drain; results of a cancelled run are discarded, so returning
    /// without the lock is safe. Backends call this; benchmark code
    /// should go through [`crate::ThreadCtx::lock`] so timing is modeled
    /// too.
    #[inline]
    pub fn acquire_or_drain(&self, idx: usize, gate: &RunGate) -> bool {
        if self.try_acquire_raw(idx) {
            return false;
        }
        self.spin_or_drain(idx, gate);
        true
    }

    /// The contended half of [`LockSet::acquire_or_drain`], kept out of
    /// line so the uncontended try stays small enough to inline into
    /// per-edge loops.
    #[cold]
    #[inline(never)]
    fn spin_or_drain(&self, idx: usize, gate: &RunGate) {
        let mut spins = 0u32;
        while !gate.is_cancelled() {
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
            if self.try_acquire_raw(idx) {
                break;
            }
        }
    }

    /// Acquires the underlying spinlock only if it is free right now
    /// (never blocks), returning whether the acquisition succeeded.
    /// Deterministic backends use this to yield their scheduling turn
    /// instead of spinning while a parked thread holds the lock.
    #[inline]
    pub fn try_acquire_raw(&self, idx: usize) -> bool {
        self.locks[idx].try_acquire()
    }

    /// Releases the underlying spinlock. Calling without holding the lock
    /// is a logic error.
    #[inline]
    pub fn release_raw(&self, idx: usize) {
        self.locks[idx].release();
    }

    /// The simulated clock at which lock `idx` was last released.
    pub fn release_clock(&self, idx: usize) -> u64 {
        self.release_clocks[idx].load(Ordering::Acquire)
    }

    /// Records the simulated clock at which lock `idx` is released.
    pub fn set_release_clock(&self, idx: usize, clock: u64) {
        self.release_clocks[idx].store(clock, Ordering::Release);
    }

    /// Simulated hold time already booked on lock `idx` within `epoch`
    /// (0 once another epoch has claimed the lock's tally). A simulated
    /// backend charges an acquirer this much queueing delay: with lax
    /// per-thread clocks, contention must be accounted in epochs of
    /// *simulated* time, not through the host-level race for the
    /// spinlock. The backend picks the epoch length.
    pub fn booked_hold(&self, idx: usize, epoch: u64) -> u64 {
        self.holds[idx].booked(epoch)
    }

    /// Books `cycles` of simulated hold time on lock `idx` in `epoch`,
    /// dropping what another epoch had booked (see [`AtomicEpochTally`]).
    pub fn book_hold(&self, idx: usize, epoch: u64, cycles: u64) {
        self.holds[idx].book(epoch, cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn spinlock_provides_mutual_exclusion() {
        let set = LockSet::new(1);
        let gate = RunGate::new(4);
        let counter = AtomicU32::new(0);
        let inside = AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        set.acquire_or_drain(0, &gate);
                        assert_eq!(inside.fetch_add(1, Ordering::SeqCst), 0);
                        counter.fetch_add(1, Ordering::Relaxed);
                        inside.fetch_sub(1, Ordering::SeqCst);
                        set.release_raw(0);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn padded_locks_have_distinct_lines() {
        let set = LockSet::new(4);
        let lines: std::collections::HashSet<_> = (0..4).map(|i| set.addr(i).line()).collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn release_clock_round_trip() {
        let set = LockSet::new(2);
        assert_eq!(set.release_clock(1), 0);
        set.set_release_clock(1, 42);
        assert_eq!(set.release_clock(1), 42);
        assert_eq!(set.release_clock(0), 0);
    }
}
