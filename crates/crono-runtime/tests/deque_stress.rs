//! Seeded stress/property tests for the work-stealing task layer.
//!
//! The Chase–Lev deque and the `TaskPool` termination protocol carry the
//! PR-5 ablation kernels, so these tests hammer them with real threads
//! on the native backend: single-owner push/pop against concurrent
//! stealers, spawning workloads that grow the task set while it drains,
//! and the `fetch_min` bound primitive the lock-free TSP publishes
//! through. Every run is seeded; failures reproduce.

use crono_runtime::{
    Addr, LockSet, Machine, NativeMachine, SharedU64s, Steal, TaskPool, ThreadCtx, WorkDeque,
};

/// splitmix64, for seeded per-test task values.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One owner pushes and pops; every other thread steals relentlessly.
/// Every pushed task must be seen exactly once, whether popped by the
/// owner or stolen.
#[test]
fn owner_vs_stealers_loses_and_duplicates_nothing() {
    for &threads in &[2usize, 4, 8, 16] {
        let tasks: u64 = 10_000;
        let machine = NativeMachine::new(threads);
        let deque = WorkDeque::new(1024);
        let seen = SharedU64s::new(tasks as usize);
        let done = SharedU64s::new(1);
        machine.run(|ctx| {
            if ctx.thread_id() == 0 {
                // Owner: interleave pushes with occasional pops.
                let mut state = 41 + threads as u64;
                let mut next = 0u64;
                while next < tasks {
                    if deque.push(ctx, next) {
                        next += 1;
                    }
                    if mix(&mut state).is_multiple_of(4) {
                        if let Some(task) = deque.pop(ctx) {
                            seen.fetch_add(ctx, task as usize, 1);
                        }
                    }
                }
                while let Some(task) = deque.pop(ctx) {
                    seen.fetch_add(ctx, task as usize, 1);
                }
                done.set(ctx, 0, 1);
            } else {
                loop {
                    match deque.steal(ctx) {
                        Steal::Taken(task) => {
                            seen.fetch_add(ctx, task as usize, 1);
                        }
                        Steal::Retry => {}
                        Steal::Empty => {
                            if done.get(ctx, 0) == 1 && deque.is_empty() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        let counts = seen.to_vec();
        let bad: Vec<_> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 1)
            .take(8)
            .collect();
        assert!(
            bad.is_empty(),
            "threads={threads}: tasks seen != once (task, count): {bad:?}"
        );
    }
}

/// A spawning workload: each task may push children into the pool while
/// it drains. The pending-counter termination must not let any thread
/// exit while work is in flight, and no task may run twice.
#[test]
fn pool_spawning_workload_terminates_exactly() {
    for &threads in &[2usize, 4, 8, 16] {
        let roots: u64 = 640;
        // Each root r spawns children 2r+1 and 2r+2 while id < total.
        let total: u64 = 10_000;
        let machine = NativeMachine::new(threads);
        let pool = TaskPool::new(threads, 4096, 1234 + threads as u64);
        for r in 0..roots {
            assert!(pool.push_plain((r % threads as u64) as usize, r));
        }
        let seen = SharedU64s::new(total as usize);
        machine.run(|ctx| {
            loop {
                let Some(task) = pool.try_take(ctx) else {
                    if pool.pending_total(ctx) == 0 {
                        break;
                    }
                    continue;
                };
                seen.fetch_add(ctx, task as usize, 1);
                for child in [2 * task + roots, 2 * task + roots + 1] {
                    if child < total {
                        // Overflow would lose the child silently; the
                        // ring is sized so it cannot happen here.
                        assert!(pool.push(ctx, child), "deque overflow");
                    }
                }
                pool.complete(ctx);
            }
        });
        let counts = seen.to_vec();
        let missed = counts.iter().filter(|&&c| c == 0).count();
        let duped = counts.iter().filter(|&&c| c > 1).count();
        // Reachable ids: roots plus every spawned child below `total`.
        let mut reachable = vec![false; total as usize];
        for r in 0..roots {
            reachable[r as usize] = true;
        }
        for id in 0..total {
            if reachable[id as usize] {
                for child in [2 * id + roots, 2 * id + roots + 1] {
                    if child < total {
                        reachable[child as usize] = true;
                    }
                }
            }
        }
        for (id, (&c, &r)) in counts.iter().zip(reachable.iter()).enumerate() {
            assert_eq!(
                c, r as u64,
                "threads={threads}: task {id} ran {c} times (reachable={r})"
            );
        }
        assert_eq!(
            (missed, duped),
            (counts.iter().filter(|&&c| c == 0).count(), 0)
        );
    }
}

/// Bulk stealing under contention: one owner keeps a deep deque while
/// every other thread drains it through `steal_half`, repatriating the
/// surplus into its own deque and popping that locally. No task may be
/// lost or seen twice, whatever the interleaving of top CASes, owner
/// pops, and concurrent bulk thieves.
#[test]
fn steal_half_under_contention_loses_and_duplicates_nothing() {
    for &threads in &[2usize, 4, 8, 16] {
        let tasks: u64 = 10_000;
        let machine = NativeMachine::new(threads);
        let victim = WorkDeque::new(2048);
        let locals: Vec<WorkDeque> = (0..threads).map(|_| WorkDeque::new(2048)).collect();
        let seen = SharedU64s::new(tasks as usize);
        let done = SharedU64s::new(1);
        machine.run(|ctx| {
            let tid = ctx.thread_id();
            if tid == 0 {
                // Owner: keep the deque deep (push bursts), pop some.
                let mut state = 77 + threads as u64;
                let mut next = 0u64;
                while next < tasks {
                    for _ in 0..64 {
                        if next < tasks && victim.push(ctx, next) {
                            next += 1;
                        }
                    }
                    if mix(&mut state).is_multiple_of(4) {
                        if let Some(task) = victim.pop(ctx) {
                            seen.fetch_add(ctx, task as usize, 1);
                        }
                    }
                }
                while let Some(task) = victim.pop(ctx) {
                    seen.fetch_add(ctx, task as usize, 1);
                }
                done.set(ctx, 0, 1);
            } else {
                let mine = &locals[tid];
                loop {
                    match victim.steal_half(ctx, mine) {
                        Steal::Taken(task) => {
                            seen.fetch_add(ctx, task as usize, 1);
                            while let Some(t) = mine.pop(ctx) {
                                seen.fetch_add(ctx, t as usize, 1);
                            }
                        }
                        Steal::Retry => {}
                        Steal::Empty => {
                            if done.get(ctx, 0) == 1 && victim.is_empty() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        let counts = seen.to_vec();
        let bad: Vec<_> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 1)
            .take(8)
            .collect();
        assert!(
            bad.is_empty(),
            "threads={threads}: tasks seen != once (task, count): {bad:?}"
        );
    }
}

/// A delegating context that permanently departs on command — the
/// runtime-level contract of [`ThreadCtx::departed`] without needing a
/// simulated machine: once `dead` flips, the pool must return `None` to
/// this thread at the next task boundary while the survivors keep
/// draining.
struct DyingCtx<'a, C: ThreadCtx> {
    inner: &'a mut C,
    dead: bool,
}

impl<C: ThreadCtx> ThreadCtx for DyingCtx<'_, C> {
    fn thread_id(&self) -> usize {
        self.inner.thread_id()
    }
    fn num_threads(&self) -> usize {
        self.inner.num_threads()
    }
    fn load(&mut self, addr: Addr) {
        self.inner.load(addr)
    }
    fn store(&mut self, addr: Addr) {
        self.inner.store(addr)
    }
    fn rmw(&mut self, addr: Addr) {
        self.inner.rmw(addr)
    }
    fn compute(&mut self, cycles: u32) {
        self.inner.compute(cycles)
    }
    fn lock(&mut self, set: &LockSet, idx: usize) {
        self.inner.lock(set, idx)
    }
    fn unlock(&mut self, set: &LockSet, idx: usize) {
        self.inner.unlock(set, idx)
    }
    fn barrier(&mut self) {
        self.inner.barrier()
    }
    fn record_active(&mut self, active: u64) {
        self.inner.record_active(active)
    }
    fn instructions(&self) -> u64 {
        self.inner.instructions()
    }
    fn departed(&self) -> bool {
        self.dead
    }
}

/// A mid-run core death: one thread departs after a few takes, leaving
/// most of its seeded deque behind. The survivors' take loops — driven
/// by the outstanding counter — must steal and run the dead core's
/// queued tasks exactly once, and the dead thread must get `None` at
/// its next task boundary (never a task, never a hang).
#[test]
fn departed_core_backlog_drains_exactly_once_on_survivors() {
    for &threads in &[2usize, 4, 8] {
        let tasks: u64 = 4_000;
        let machine = NativeMachine::new(threads);
        let pool = TaskPool::new(threads, 8192, 21 + threads as u64);
        for t in 0..tasks {
            assert!(pool.push_plain((t % threads as u64) as usize, t));
        }
        let seen = SharedU64s::new(tasks as usize);
        let outcome = machine.run(|ctx| {
            let dies = ctx.thread_id() == 1;
            let mut ctx = DyingCtx {
                inner: ctx,
                dead: false,
            };
            let mut taken = 0u64;
            while let Some(task) = pool.take(&mut ctx) {
                seen.fetch_add(&mut ctx, task as usize, 1);
                taken += 1;
                if dies && taken == 3 {
                    // The task just taken still finishes (it already
                    // ran above); departure lands at the next boundary.
                    ctx.dead = true;
                }
            }
            taken
        });
        // At most 3: the dead thread stops at its 3rd take (it may take
        // fewer when the survivors drain everything first — native
        // threads race the pool for real).
        assert!(
            outcome.per_thread[1] <= 3,
            "threads={threads}: the dead thread took {} tasks past its death",
            outcome.per_thread[1]
        );
        assert_eq!(outcome.per_thread.iter().sum::<u64>(), tasks);
        let counts = seen.to_vec();
        let bad: Vec<_> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 1)
            .take(8)
            .collect();
        assert!(
            bad.is_empty(),
            "threads={threads}: tasks seen != once (task, count): {bad:?}"
        );
    }
}

/// `SharedU64s::fetch_min` must behave like an atomic min: under
/// concurrent publication of seeded candidate bounds, the final value is
/// the global minimum, and each thread's *returned previous value* never
/// increases (the bound is monotone non-increasing).
#[test]
fn fetch_min_linearizes_to_global_minimum() {
    for &threads in &[2usize, 4, 8, 16] {
        let per_thread = 2500u64;
        let machine = NativeMachine::new(threads);
        let best = SharedU64s::filled(1, u64::MAX);
        let outcome = machine.run(|ctx| {
            let mut state = 0xc0ffee ^ (ctx.thread_id() as u64) << 17;
            let mut local_min = u64::MAX;
            let mut last_prev = u64::MAX;
            for _ in 0..per_thread {
                let candidate = mix(&mut state) % 1_000_000;
                local_min = local_min.min(candidate);
                let prev = best.fetch_min(ctx, 0, candidate);
                assert!(
                    prev <= last_prev,
                    "observed bound increased: {prev} after {last_prev}"
                );
                last_prev = prev.min(candidate);
                // Once published, the bound can never exceed our min.
                assert!(best.get(ctx, 0) <= local_min);
            }
            local_min
        });
        let expect = outcome.per_thread.iter().copied().min().expect("threads");
        assert_eq!(
            best.get_plain(0),
            expect,
            "threads={threads}: final bound is the global minimum"
        );
    }
}
