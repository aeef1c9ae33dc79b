//! Work-stealing task layer: a Chase–Lev per-thread deque plus a
//! [`TaskPool`] facade that distributes tasks across threads.
//!
//! CRONO distributes the task-parallel benchmarks (APSP, BETW_CENT by
//! vertex capture; TSP, DFS by branch-and-bound over a lock-guarded
//! stack) through *one shared point of serialization* — an atomic
//! counter or an atomic lock (Table I). At high core counts that single
//! line becomes the hot spot the traces flag (`lock_hold`,
//! `dir_broadcast`). The task layer here is the classic alternative:
//! each thread owns a bounded Chase–Lev deque ("Dynamic circular
//! work-stealing deque", SPAA'05), pushes and pops work at the *bottom*
//! without contention, and idle threads steal from the *top* of a
//! victim's deque, spreading the coherence traffic over one line per
//! owner instead of one line total.
//!
//! Everything is charged through [`ThreadCtx`]: the deque owns a
//! symbolic [`Region`] whose `top`/`bottom` words and task slots are
//! modeled like any other shared memory, so the simulator's timing model
//! sees the new traffic pattern (owner-local pushes mostly hit the
//! private L1; steals ping the owner's `bottom`/slot lines).
//!
//! This crate is `#![forbid(unsafe_code)]`, so unlike textbook Chase–Lev
//! the ring is a fixed-capacity `Vec<AtomicU64>` and `push` *refuses*
//! (returns `false`) when the ring is full instead of growing it —
//! callers keep an overflow list (natural for DFS, whose kernel already
//! keeps a private stack). Refusing at capacity also removes the
//! classic ABA window: a slot is never reused until its element was
//! popped or stolen.
//!
//! Victim selection is seeded and deterministic ([`TaskPool::steal_order`]
//! is a splitmix64 permutation of the other threads), so under the
//! simulator's deterministic sequencer the whole schedule — and
//! therefore every simulated counter — is reproducible run to run.
//!
//! # Examples
//!
//! ```
//! use crono_runtime::{Machine, NativeMachine, SharedU64s, TaskPool, ThreadCtx};
//!
//! let machine = NativeMachine::new(4);
//! let pool = TaskPool::new(4, 256, 42);
//! // Pre-seed tasks 0..100 round-robin before the timed region.
//! for t in 0..100u64 {
//!     pool.push_plain(t as usize % 4, t);
//! }
//! let done = SharedU64s::new(1);
//! machine.run(|ctx| {
//!     while let Some(task) = pool.take(ctx) {
//!         done.fetch_add(ctx, 0, task);
//!     }
//! });
//! assert_eq!(done.get_plain(0), (0..100).sum::<u64>());
//! ```

use crate::addr::{alloc_region, Addr, Region};
use crate::ctx::ThreadCtx;
use std::sync::atomic::{AtomicU64, Ordering};

/// Ring slots reserved ahead of the task area for the `top` and `bottom`
/// words (each on its own cache line, to keep owner pops and thief CASes
/// from false-sharing).
const HEADER_LINES: usize = 2;

/// A bounded, single-owner, multi-thief Chase–Lev deque of `u64` tasks.
///
/// * The **owner** pushes and pops at the *bottom* — no CAS except for
///   the last-element race against thieves.
/// * **Thieves** steal at the *top* with a compare-exchange.
/// * Capacity is fixed (power of two); [`WorkDeque::push`] returns
///   `false` when full and the caller keeps the task elsewhere.
///
/// Every operation reports its memory accesses through the caller's
/// [`ThreadCtx`] against the deque's symbolic [`Region`].
#[derive(Debug)]
pub struct WorkDeque {
    top: AtomicU64,
    bottom: AtomicU64,
    slots: Vec<AtomicU64>,
    mask: u64,
    region: Region,
}

impl WorkDeque {
    /// A deque holding at most `capacity` tasks (rounded up to a power
    /// of two).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "deque needs capacity > 0");
        let cap = capacity.next_power_of_two();
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, || AtomicU64::new(0));
        let region = alloc_region((HEADER_LINES * 64 + cap * 8) as u64);
        WorkDeque {
            top: AtomicU64::new(0),
            bottom: AtomicU64::new(0),
            slots,
            mask: (cap - 1) as u64,
            region,
        }
    }

    /// Slot capacity (a power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Symbolic address of the `top` word (its own cache line).
    fn top_addr(&self) -> Addr {
        self.region.addr_padded(0)
    }

    /// Symbolic address of the `bottom` word (its own cache line).
    fn bottom_addr(&self) -> Addr {
        self.region.addr_padded(1)
    }

    /// Symbolic address of ring slot `i`.
    fn slot_addr(&self, i: u64) -> Addr {
        self.region
            .addr(HEADER_LINES * 8 + (i & self.mask) as usize, 8)
    }

    /// Owner-side push at the bottom. Returns `false` (task not
    /// enqueued) when the ring is full.
    pub fn push<C: ThreadCtx>(&self, ctx: &mut C, task: u64) -> bool {
        let b = self.bottom.load(Ordering::SeqCst);
        let t = self.top.load(Ordering::SeqCst);
        ctx.load(self.top_addr());
        if b.wrapping_sub(t) >= self.slots.len() as u64 {
            return false;
        }
        self.slots[(b & self.mask) as usize].store(task, Ordering::SeqCst);
        ctx.store(self.slot_addr(b));
        self.bottom.store(b.wrapping_add(1), Ordering::SeqCst);
        ctx.store(self.bottom_addr());
        true
    }

    /// Owner-side push performed *outside* the timed region (workload
    /// seeding), charging no context. Returns `false` when full.
    pub fn push_plain(&self, task: u64) -> bool {
        let b = self.bottom.load(Ordering::SeqCst);
        let t = self.top.load(Ordering::SeqCst);
        if b.wrapping_sub(t) >= self.slots.len() as u64 {
            return false;
        }
        self.slots[(b & self.mask) as usize].store(task, Ordering::SeqCst);
        self.bottom.store(b.wrapping_add(1), Ordering::SeqCst);
        true
    }

    /// Owner-side pop at the bottom (LIFO). `None` when empty.
    pub fn pop<C: ThreadCtx>(&self, ctx: &mut C) -> Option<u64> {
        let b = self.bottom.load(Ordering::SeqCst);
        let t = self.top.load(Ordering::SeqCst);
        if t >= b {
            return None;
        }
        let nb = b.wrapping_sub(1);
        // Reserve the bottom slot before reading it: publishing the
        // decremented bottom is what blocks thieves past it.
        self.bottom.store(nb, Ordering::SeqCst);
        ctx.rmw(self.bottom_addr());
        let t = self.top.load(Ordering::SeqCst);
        ctx.load(self.top_addr());
        if t > nb {
            // A thief took the last element first; restore bottom.
            self.bottom.store(b, Ordering::SeqCst);
            return None;
        }
        let task = self.slots[(nb & self.mask) as usize].load(Ordering::SeqCst);
        ctx.load(self.slot_addr(nb));
        if t == nb {
            // Last element: race the thieves for it via top.
            let won = self
                .top
                .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
            ctx.rmw(self.top_addr());
            self.bottom.store(b, Ordering::SeqCst);
            return won.then_some(task);
        }
        Some(task)
    }

    /// Owner-only pop for deques that are provably never stolen from
    /// (see [`TaskPool::take_fixed`]'s depth-one fast path). Without
    /// thieves the Chase–Lev protocol degenerates to a private stack:
    /// no bottom publication, no store-load fence, no last-element CAS —
    /// just the slot read (the index lives in a register). The caller is
    /// responsible for the no-thief guarantee.
    fn pop_private<C: ThreadCtx>(&self, ctx: &mut C) -> Option<u64> {
        let b = self.bottom.load(Ordering::SeqCst);
        let t = self.top.load(Ordering::SeqCst);
        if t >= b {
            return None;
        }
        let nb = b.wrapping_sub(1);
        self.bottom.store(nb, Ordering::SeqCst);
        let task = self.slots[(nb & self.mask) as usize].load(Ordering::SeqCst);
        ctx.load(self.slot_addr(nb));
        Some(task)
    }

    /// Thief-side steal at the top (FIFO). `Steal::Empty` when nothing
    /// is visible, `Steal::Retry` when a race was lost and the thief
    /// should try again (possibly elsewhere).
    pub fn steal<C: ThreadCtx>(&self, ctx: &mut C) -> Steal {
        let t = self.top.load(Ordering::SeqCst);
        ctx.load(self.top_addr());
        let b = self.bottom.load(Ordering::SeqCst);
        ctx.load(self.bottom_addr());
        if t >= b {
            return Steal::Empty;
        }
        let task = self.slots[(t & self.mask) as usize].load(Ordering::SeqCst);
        ctx.load(self.slot_addr(t));
        let won = self
            .top
            .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        ctx.rmw(self.top_addr());
        if won {
            Steal::Taken(task)
        } else {
            Steal::Retry
        }
    }

    /// Bulk steal for deep victims: takes up to *half* of the tasks
    /// visible at entry, returning the first in `Steal::Taken` and
    /// pushing the remainder into `dest` — the **thief's own** deque
    /// (owner-side pushes, so only the thief may pass its deque here,
    /// and `dest` must not alias `self`).
    ///
    /// Each element is still claimed with its own top CAS — the price of
    /// staying inside the proven single-steal protocol without `unsafe`
    /// (a single CAS over a *range* of slots races owner pops of the
    /// interior elements). The win is trip amortization: one probe round
    /// repatriates a backlog the thief then drains from its private
    /// bottom, instead of re-probing (and re-pinging the victim's
    /// `top`/`bottom` lines) once per task.
    ///
    /// Stops early — keeping what it already took — when a CAS race is
    /// lost, the victim drains, or `dest` refuses (full ring).
    pub fn steal_half<C: ThreadCtx>(&self, ctx: &mut C, dest: &WorkDeque) -> Steal {
        let t = self.top.load(Ordering::SeqCst);
        ctx.load(self.top_addr());
        let b = self.bottom.load(Ordering::SeqCst);
        ctx.load(self.bottom_addr());
        if t >= b {
            return Steal::Empty;
        }
        let want = b.wrapping_sub(t).div_ceil(2);
        let mut first = None;
        for _ in 0..want {
            // Check room *before* stealing an extra: only the thief
            // pushes into `dest`, so room cannot shrink underneath us,
            // and we never hold a task we have nowhere to put.
            if first.is_some() && dest.len() >= dest.capacity() {
                break;
            }
            match self.steal(ctx) {
                Steal::Taken(task) => match first {
                    None => first = Some(task),
                    Some(_) => {
                        let pushed = dest.push(ctx, task);
                        debug_assert!(pushed, "room was checked above");
                        if !pushed {
                            return Steal::Taken(task);
                        }
                    }
                },
                // Someone else is stealing here too; the backlog is
                // being balanced regardless, so stop competing.
                Steal::Retry if first.is_none() => return Steal::Retry,
                Steal::Empty | Steal::Retry => break,
            }
        }
        match first {
            Some(task) => Steal::Taken(task),
            None => Steal::Empty,
        }
    }

    /// Tasks currently visible (racy; exact only when quiescent).
    pub fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::SeqCst);
        let t = self.top.load(Ordering::SeqCst);
        b.wrapping_sub(t).min(self.slots.len() as u64) as usize
    }

    /// Whether the deque is (racily) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Result of a [`WorkDeque::steal`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal {
    /// A task was stolen.
    Taken(u64),
    /// The deque was observed empty.
    Empty,
    /// A CAS race was lost; the victim was not empty at the time.
    Retry,
}

/// Victims probed per [`TaskPool::try_take`] attempt. Bounding the probe
/// (instead of scanning every other deque) keeps an idle thread's cost
/// per retry O(1) in the thread count; a rotating per-thief cursor
/// guarantees every victim is still reached within `(threads - 1) /
/// PROBE_VICTIMS` attempts.
const PROBE_VICTIMS: usize = 4;

/// Victims probed by a [`TaskPool::take_fixed`] exit round. Fixed task
/// sets drain mostly through their owners (the own-deque pop comes
/// first), so the probe round exists only for late-stage balancing and
/// is kept narrower than [`PROBE_VICTIMS`]: the probe loads land on the
/// exit path of *every* thread at once, right when a uniform kernel's
/// workers all finish together.
const PROBE_VICTIMS_FIXED: usize = 2;

/// Idle backoff bounds for [`TaskPool::take`] and for kernels that
/// drive [`TaskPool::try_take`] themselves, in modeled compute cycles.
/// An empty-handed retry charges the current backoff and doubles it up
/// to [`IDLE_BACKOFF_MAX`], so threads that ran out of work stop
/// hammering the deque lines (and, under the deterministic sequencer,
/// stop consuming scheduling turns) while stragglers finish.
pub const IDLE_BACKOFF_MIN: u32 = 32;
/// The cap of the idle backoff (see [`IDLE_BACKOFF_MIN`]).
pub const IDLE_BACKOFF_MAX: u32 = 4096;

/// Victim backlog at which a probe upgrades from a single steal to
/// [`WorkDeque::steal_half`]. Below this the victim's owner drains its
/// own deque faster than bulk repatriation pays for itself; above it the
/// thief takes half the backlog home in one trip instead of re-probing
/// per task.
const STEAL_HALF_DEPTH: usize = 4;

/// One work-stealing deque per thread plus seeded victim selection and
/// exact termination detection.
///
/// Tasks are plain `u64`s (kernels encode vertex / branch ids). The pool
/// tracks *outstanding* work with a single cache-padded counter:
/// incremented when a task enters a deque, decremented by whichever
/// thread finishes processing it ([`TaskPool::complete`]).
/// [`TaskPool::take`] returns `None` only once that counter reads zero —
/// so spawning kernels (DFS pushes children while draining) never
/// terminate while work is still in flight.
#[derive(Debug)]
pub struct TaskPool {
    deques: Vec<WorkDeque>,
    /// Tasks entered minus completed, across all deques.
    outstanding: AtomicU64,
    outstanding_region: Region,
    /// Per-thief rotation into its steal order (single-writer host-side
    /// bookkeeping, the moral equivalent of a register — not charged).
    cursors: Vec<AtomicU64>,
    /// Which deques were ever seeded ([`TaskPool::push_plain`]) or
    /// pushed to. Fixed-set sweeps skip the rest: scheduling metadata
    /// known before the run (each worker could carry it in a register),
    /// so the skip is not charged.
    seeded: Vec<AtomicU64>,
    /// Deepest any deque has ever been (tasks pushed, ignoring drains).
    /// For fixed sets this is the initial deal depth — pre-run
    /// scheduling metadata, so consulting it is not charged. When it is
    /// `<= 1` no deque can ever hold a backlog, and
    /// [`TaskPool::take_fixed`] skips its probe round entirely: stealing
    /// a victim's *only* task cannot shorten completion (its owner pops
    /// it immediately anyway), so the probes would be pure exit-path
    /// coherence traffic.
    max_depth: AtomicU64,
    seed: u64,
}

impl TaskPool {
    /// A pool of `threads` deques, each with `capacity` slots, with
    /// seeded-deterministic victim order derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `capacity == 0`.
    pub fn new(threads: usize, capacity: usize, seed: u64) -> Self {
        assert!(threads > 0, "pool needs at least one deque");
        let mut deques = Vec::with_capacity(threads);
        deques.resize_with(threads, || WorkDeque::new(capacity));
        let mut cursors = Vec::with_capacity(threads);
        cursors.resize_with(threads, || AtomicU64::new(0));
        let mut seeded = Vec::with_capacity(threads);
        seeded.resize_with(threads, || AtomicU64::new(0));
        TaskPool {
            deques,
            outstanding: AtomicU64::new(0),
            outstanding_region: alloc_region(64),
            cursors,
            seeded,
            max_depth: AtomicU64::new(0),
            seed,
        }
    }

    /// Direct access to thread `tid`'s deque.
    pub fn deque(&self, tid: usize) -> &WorkDeque {
        &self.deques[tid]
    }

    /// Symbolic address of the outstanding-task counter (its own line).
    fn outstanding_addr(&self) -> Addr {
        self.outstanding_region.addr_padded(0)
    }

    /// Seeds `task` into owner `tid`'s deque *outside* the timed region
    /// (no context charges). Returns `false` when that deque is full.
    pub fn push_plain(&self, tid: usize, task: u64) -> bool {
        if self.deques[tid].push_plain(task) {
            self.outstanding.fetch_add(1, Ordering::SeqCst);
            self.seeded[tid].store(1, Ordering::SeqCst);
            self.note_depth(self.deques[tid].len() as u64);
            true
        } else {
            false
        }
    }

    /// Pushes `task` into the calling thread's own deque. Returns
    /// `false` (caller keeps the task) when the ring is full.
    pub fn push<C: ThreadCtx>(&self, ctx: &mut C, task: u64) -> bool {
        let tid = ctx.thread_id();
        if self.deques[tid].push(ctx, task) {
            self.outstanding.fetch_add(1, Ordering::SeqCst);
            ctx.rmw(self.outstanding_addr());
            self.seeded[tid].store(1, Ordering::SeqCst);
            self.note_depth(self.deques[tid].len() as u64);
            true
        } else {
            false
        }
    }

    /// Raise the high-water deque depth (host-side bookkeeping).
    fn note_depth(&self, depth: u64) {
        self.max_depth.fetch_max(depth, Ordering::SeqCst);
    }

    /// The seeded victim permutation for thief `tid`: every other thread
    /// exactly once, in an order derived from `(seed, tid)` by
    /// splitmix64 — deterministic, but de-correlated across thieves so
    /// they do not convoy on one victim.
    pub fn steal_order(&self, tid: usize) -> Vec<usize> {
        let n = self.deques.len();
        let mut order: Vec<usize> = (0..n).filter(|&v| v != tid).collect();
        let mut state = self.seed ^ (tid as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for i in (1..order.len()).rev() {
            state = splitmix64(&mut state);
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        order
    }

    /// Takes one task: own deque first (LIFO), then steals (FIFO) from
    /// up to `PROBE_VICTIMS` (4) victims of this thread's seeded order,
    /// starting at a rotating cursor so successive attempts cover
    /// everyone.
    ///
    /// Returns `None` for this *attempt* when nothing was found — which
    /// does **not** mean the pool is drained; the caller decides whether
    /// to retry ([`TaskPool::pending_total`]) or terminate.
    /// [`TaskPool::take`] wraps this into the full
    /// terminate-only-when-done loop.
    pub fn try_take<C: ThreadCtx>(&self, ctx: &mut C) -> Option<u64> {
        let tid = ctx.thread_id();
        if let Some(task) = self.deques[tid].pop(ctx) {
            return Some(task);
        }
        self.probe_round(ctx, PROBE_VICTIMS)
    }

    /// One seeded probe round: steal attempts against up to `probes`
    /// victims of this thread's order, starting at its rotating cursor.
    fn probe_round<C: ThreadCtx>(&self, ctx: &mut C, probes: usize) -> Option<u64> {
        let tid = ctx.thread_id();
        let order = self.steal_order(tid);
        if order.is_empty() {
            return None;
        }
        let start = self.cursors[tid].load(Ordering::Relaxed) as usize;
        for k in 0..probes.min(order.len()) {
            let victim = order[(start + k) % order.len()];
            if self.seeded[victim].load(Ordering::SeqCst) == 0 {
                continue;
            }
            loop {
                // Deep victims are worth a bulk steal: move half of the
                // backlog into our own deque in one trip, then drain it
                // from the private bottom. `len()` here is scheduling
                // metadata (the upgrade decision), not program data; the
                // steal itself charges every access it performs.
                let deep = self.deques[victim].len() >= STEAL_HALF_DEPTH;
                let stolen = if deep {
                    let got = self.deques[victim].steal_half(ctx, &self.deques[tid]);
                    if matches!(got, Steal::Taken(_)) {
                        // The repatriated backlog makes us a victim too.
                        self.seeded[tid].store(1, Ordering::SeqCst);
                        self.note_depth(self.deques[tid].len() as u64);
                    }
                    got
                } else {
                    self.deques[victim].steal(ctx)
                };
                match stolen {
                    Steal::Taken(task) => {
                        // Resume at the productive victim next time.
                        self.cursors[tid]
                            .store(((start + k) % order.len()) as u64, Ordering::Relaxed);
                        return Some(task);
                    }
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        self.cursors[tid].store(((start + probes) % order.len()) as u64, Ordering::Relaxed);
        None
    }

    /// Take for *fixed* task sets — every task was seeded before the
    /// run ([`TaskPool::push_plain`]) and nothing is pushed while it
    /// drains. Own deque first (LIFO), then one bounded probe round
    /// (`PROBE_VICTIMS_FIXED` (2) seeded victims); `None` is terminal.
    ///
    /// No completion accounting, no shared counter, no idle spinning,
    /// and crucially no full exit sweep: a thread whose own deque and
    /// probe round are both empty just leaves. That is safe for fixed
    /// sets because an owner never exits while its own deque holds work
    /// (the own-deque pop comes first), so every seeded task is drained
    /// by its owner or stolen before then — an early exit forfeits only
    /// late-stage balancing, never work. The exit path is therefore a
    /// handful of loads spread across per-owner lines, versus the
    /// capture counter's contended read-modify-write burst when all
    /// threads finish together.
    ///
    /// Do **not** use this when tasks spawn tasks; pair
    /// [`TaskPool::take`] (or [`TaskPool::try_take`]) with
    /// [`TaskPool::complete`] instead.
    pub fn take_fixed<C: ThreadCtx>(&self, ctx: &mut C) -> Option<u64> {
        let tid = ctx.thread_id();
        // A permanently dead core stops taking work at the task
        // boundary; whatever is left in its deque is stolen by the
        // survivors' probe rounds (they exit only when every deque they
        // probe is empty).
        if ctx.departed() {
            return None;
        }
        // A deal of at most one task per deque has no backlogs to
        // balance (see `max_depth`): nothing is ever stolen, so pops
        // use the private fast path, and emptiness is terminal without
        // a probe round. This gate is consistent only because *every*
        // consumer of a fixed-set pool goes through `take_fixed` — do
        // not mix with `take`/`try_take` on the same pool.
        if self.max_depth.load(Ordering::SeqCst) <= 1 {
            return self.deques[tid].pop_private(ctx);
        }
        if let Some(task) = self.deques[tid].pop(ctx) {
            return Some(task);
        }
        self.probe_round(ctx, PROBE_VICTIMS_FIXED)
    }

    /// Marks one taken task as processed. Call after the task's work —
    /// including any child [`TaskPool::push`]es — is done, so the
    /// outstanding count never dips to zero while work remains.
    pub fn complete<C: ThreadCtx>(&self, ctx: &mut C) {
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
        ctx.rmw(self.outstanding_addr());
    }

    /// Tasks enqueued but not yet [`TaskPool::complete`]d.
    pub fn pending_total<C: ThreadCtx>(&self, ctx: &mut C) -> u64 {
        ctx.load(self.outstanding_addr());
        self.outstanding.load(Ordering::SeqCst)
    }

    /// Blocking take: loops [`TaskPool::try_take`] until a task arrives
    /// or the pool is *globally* done (outstanding count zero). The
    /// caller must pair each returned task with a [`TaskPool::complete`]
    /// once processed. Empty-handed retries back off exponentially
    /// ([`IDLE_BACKOFF_MIN`]..[`IDLE_BACKOFF_MAX`] modeled cycles).
    pub fn take<C: ThreadCtx>(&self, ctx: &mut C) -> Option<u64> {
        let mut backoff = IDLE_BACKOFF_MIN;
        loop {
            // A permanently dead core departs at the task boundary; the
            // survivors' take loops keep running until the outstanding
            // count — including the dead core's queued tasks, which they
            // steal — reaches zero, so every task still runs exactly
            // once.
            if ctx.departed() {
                return None;
            }
            if let Some(task) = self.try_take(ctx) {
                // Account completion eagerly for the non-spawning use
                // (fixed task sets): callers that spawn children use
                // `try_take`/`complete` directly instead.
                self.complete(ctx);
                return Some(task);
            }
            if ctx.cancelled() {
                return None;
            }
            if self.pending_total(ctx) == 0 {
                return None;
            }
            // Work is in flight elsewhere; model the retry's cost and
            // back off so stragglers keep the machine to themselves.
            ctx.compute(backoff);
            backoff = (backoff * 2).min(IDLE_BACKOFF_MAX);
        }
    }
}

/// The splitmix64 step (same constants as `crono-graph`'s seeding).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::native::NativeMachine;

    /// A context-free handle for single-threaded unit tests.
    fn with_ctx<R>(f: impl Fn(&mut crate::native::NativeCtx) -> R + Sync) -> R
    where
        R: Send,
    {
        let m = NativeMachine::new(1);
        m.run(f).per_thread.pop().expect("one thread")
    }

    #[test]
    fn push_pop_is_lifo() {
        with_ctx(|ctx| {
            let d = WorkDeque::new(8);
            for v in 0..5 {
                assert!(d.push(ctx, v));
            }
            for v in (0..5).rev() {
                assert_eq!(d.pop(ctx), Some(v));
            }
            assert_eq!(d.pop(ctx), None);
        });
    }

    #[test]
    fn steal_is_fifo_and_capacity_refuses() {
        with_ctx(|ctx| {
            let d = WorkDeque::new(4);
            for v in 0..4 {
                assert!(d.push(ctx, v));
            }
            assert!(!d.push(ctx, 99), "full ring refuses");
            assert_eq!(d.steal(ctx), Steal::Taken(0), "steals take the oldest");
            assert_eq!(d.steal(ctx), Steal::Taken(1));
            assert_eq!(d.pop(ctx), Some(3), "owner still pops the newest");
            assert!(d.push(ctx, 99), "freed slots accept again");
        });
    }

    #[test]
    fn steal_half_moves_half_into_dest() {
        with_ctx(|ctx| {
            let victim = WorkDeque::new(16);
            let thief = WorkDeque::new(16);
            for v in 0..8 {
                assert!(victim.push(ctx, v));
            }
            // Half of 8 = 4: the oldest task comes back, the next three
            // land in the thief's deque (oldest first).
            assert_eq!(victim.steal_half(ctx, &thief), Steal::Taken(0));
            assert_eq!(victim.len(), 4, "half the backlog remains");
            assert_eq!(thief.len(), 3);
            for v in (1..4).rev() {
                assert_eq!(thief.pop(ctx), Some(v), "repatriated LIFO drain");
            }
            // An empty victim reports Empty and moves nothing.
            let empty = WorkDeque::new(4);
            assert_eq!(empty.steal_half(ctx, &thief), Steal::Empty);
            assert_eq!(thief.len(), 0);
            // A full thief still gets the first task, just no surplus.
            let tiny = WorkDeque::new(2);
            assert!(tiny.push(ctx, 77));
            assert!(tiny.push(ctx, 78));
            assert_eq!(victim.steal_half(ctx, &tiny), Steal::Taken(4));
            assert_eq!(tiny.len(), 2, "no surplus forced into a full ring");
        });
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(WorkDeque::new(5).capacity(), 8);
        assert_eq!(WorkDeque::new(64).capacity(), 64);
    }

    #[test]
    fn steal_order_is_a_seeded_permutation() {
        let pool = TaskPool::new(8, 16, 7);
        for tid in 0..8 {
            let mut order = pool.steal_order(tid);
            assert_eq!(order.len(), 7);
            assert!(!order.contains(&tid));
            assert_eq!(order, pool.steal_order(tid), "deterministic");
            order.sort_unstable();
            let expect: Vec<usize> = (0..8).filter(|&v| v != tid).collect();
            assert_eq!(order, expect, "a permutation of the others");
        }
        let other = TaskPool::new(8, 16, 8);
        assert_ne!(
            (0..8).map(|t| pool.steal_order(t)).collect::<Vec<_>>(),
            (0..8).map(|t| other.steal_order(t)).collect::<Vec<_>>(),
            "different seeds give different schedules"
        );
    }

    #[test]
    fn take_fixed_drains_everything_without_accounting() {
        use crate::shared::SharedU64s;
        let threads = 4;
        let tasks = 1000u64;
        let machine = NativeMachine::new(threads);
        let pool = TaskPool::new(threads, 2048, 9);
        for t in 0..tasks {
            assert!(pool.push_plain((t % threads as u64) as usize, t));
        }
        let seen = SharedU64s::new(tasks as usize);
        machine.run(|ctx| {
            while let Some(task) = pool.take_fixed(ctx) {
                seen.fetch_add(ctx, task as usize, 1);
            }
        });
        let counts = seen.to_vec();
        assert!(
            counts.iter().all(|&c| c == 1),
            "every task exactly once: {counts:?}"
        );
    }

    #[test]
    fn pool_drains_fixed_task_set_exactly_once() {
        use crate::shared::SharedU64s;
        let threads = 4;
        let tasks = 1000u64;
        let machine = NativeMachine::new(threads);
        let pool = TaskPool::new(threads, 2048, 3);
        for t in 0..tasks {
            assert!(pool.push_plain((t % threads as u64) as usize, t));
        }
        let seen = SharedU64s::new(tasks as usize);
        machine.run(|ctx| {
            while let Some(task) = pool.take(ctx) {
                seen.fetch_add(ctx, task as usize, 1);
            }
        });
        let counts = seen.to_vec();
        assert!(
            counts.iter().all(|&c| c == 1),
            "every task exactly once: {counts:?}"
        );
    }
}
