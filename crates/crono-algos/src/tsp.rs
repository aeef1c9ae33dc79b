//! `TSP` — traveling salesman (§III-6).
//!
//! Exact branch-and-bound, parallelized exactly as the paper describes:
//! "branches are designated at static time, while the global bound is
//! maintained dynamically via an atomic lock". Tour prefixes of depth 2–3
//! form the static branches, assigned round-robin to threads at static
//! time; each thread searches its branches depth-first, prunes against
//! the shared global bound, and publishes improvements under the bound
//! lock.

use crate::{costs, AlgoOutcome};
use crono_graph::gen::TspInstance;
use crono_runtime::{LockSet, Machine, ReadArray, SharedU64s, ThreadCtx};
use crono_runtime::Mutex;

/// Result of a TSP run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TspOutput {
    /// Length of the optimal closed tour.
    pub best_len: u64,
    /// One optimal tour (city visit order, starting at city 0).
    pub tour: Vec<usize>,
}

/// Admissible lower bound: cost so far + each unvisited city's (and the
/// current city's) cheapest outgoing edge.
fn lower_bound<C: ThreadCtx>(
    ctx: &mut C,
    min_out: &[u64],
    n: usize,
    cost: u64,
    visited_mask: u64,
    current: usize,
) -> u64 {
    let mut bound = cost + min_out[current];
    for (city, &out) in min_out[..n].iter().enumerate() {
        ctx.compute(1);
        if visited_mask & (1 << city) == 0 {
            bound += out;
        }
    }
    bound
}

struct SearchState<'a, 'b> {
    dist: &'a ReadArray<'b, u32>,
    n: usize,
    min_out: Vec<u64>,
    best: &'a SharedU64s,
    best_tour: &'a Mutex<Vec<usize>>,
    bound_lock: &'a LockSet,
}

impl SearchState<'_, '_> {
    fn search<C: ThreadCtx>(
        &self,
        ctx: &mut C,
        path: &mut Vec<usize>,
        visited_mask: u64,
        cost: u64,
    ) {
        let current = *path.last().expect("path never empty");
        if path.len() == self.n {
            let total = cost + self.dist.get(ctx, current * self.n) as u64;
            // Publish under the global-bound lock (paper: atomic lock).
            // The host mutex guard spans the whole modeled
            // lock..unlock window, so the simulated `lock_hold` span
            // and the real mutual exclusion cover the same region.
            ctx.lock(self.bound_lock, 0);
            {
                let mut tour = self.best_tour.lock();
                if total < self.best.get(ctx, 0) {
                    self.best.set(ctx, 0, total);
                    *tour = path.clone();
                }
            }
            ctx.unlock(self.bound_lock, 0);
            return;
        }
        // Prune against the shared global bound.
        let bound = lower_bound(ctx, &self.min_out, self.n, cost, visited_mask, current);
        if bound >= self.best.get(ctx, 0) {
            return;
        }
        ctx.record_active((self.n - path.len()) as u64);
        for next in 1..self.n {
            if visited_mask & (1 << next) != 0 {
                continue;
            }
            ctx.compute(costs::TOUR_STEP);
            let step = self.dist.get(ctx, current * self.n + next) as u64;
            let ncost = cost + step;
            if ncost >= self.best.get(ctx, 0) {
                continue;
            }
            path.push(next);
            self.search(ctx, path, visited_mask | (1 << next), ncost);
            path.pop();
        }
    }
}

fn min_out(instance: &TspInstance) -> Vec<u64> {
    let n = instance.num_cities();
    (0..n)
        .map(|a| {
            (0..n)
                .filter(|&b| b != a)
                .map(|b| instance.distance(a, b) as u64)
                .min()
                .unwrap_or(0)
        })
        .collect()
}

/// Static branch prefixes: depth-3 tours `0 → a → b` when enough cities
/// exist, else depth-2.
fn branch_prefixes(n: usize) -> Vec<Vec<usize>> {
    let mut prefixes = Vec::new();
    if n > 4 {
        for a in 1..n {
            for b in 1..n {
                if b != a {
                    prefixes.push(vec![0, a, b]);
                }
            }
        }
    } else {
        for a in 1..n {
            prefixes.push(vec![0, a]);
        }
    }
    prefixes
}

/// Greedy nearest-neighbor tour — used to seed the global bound so every
/// branch starts with meaningful pruning ("thresholds are defined by
/// heuristics", §IV-A), and useful on its own as a fast approximation.
///
/// # Panics
///
/// Panics if the instance has fewer than 2 cities.
pub fn greedy_tour(instance: &TspInstance) -> (Vec<usize>, u64) {
    let n = instance.num_cities();
    assert!(n >= 2, "need at least 2 cities");
    let mut tour = vec![0usize];
    let mut visited = vec![false; n];
    visited[0] = true;
    while tour.len() < n {
        let here = *tour.last().expect("tour non-empty");
        let next = (0..n)
            .filter(|&c| !visited[c])
            .min_by_key(|&c| instance.distance(here, c))
            .expect("unvisited city exists");
        visited[next] = true;
        tour.push(next);
    }
    let len = instance.tour_length(&tour);
    (tour, len)
}

/// Parallel branch-and-bound TSP (Table I).
///
/// # Panics
///
/// Panics if the instance has fewer than 3 or more than 63 cities.
pub fn parallel<M: Machine>(machine: &M, instance: &TspInstance) -> AlgoOutcome<TspOutput> {
    let n = instance.num_cities();
    assert!((3..=63).contains(&n), "tsp supports 3..=63 cities");
    let dist = ReadArray::new(instance.distance_matrix());
    let best = SharedU64s::new(1);
    // Seed the bound with the greedy tour (heuristic threshold, §IV-A).
    let (seed_tour, seed_len) = greedy_tour(instance);
    best.set_plain(0, seed_len);
    let best_tour = Mutex::new(seed_tour);
    let bound_lock = LockSet::new(1);
    let prefixes = branch_prefixes(n);
    let min_out = min_out(instance);

    let outcome = machine.run(|ctx| {
        let state = SearchState {
            dist: &dist,
            n,
            min_out: min_out.clone(),
            best: &best,
            best_tour: &best_tour,
            bound_lock: &bound_lock,
        };
        // Branches designated at static time: round-robin over threads.
        let mut b = ctx.thread_id();
        while b < prefixes.len() {
            if ctx.cancelled() {
                break;
            }
            let mut path = prefixes[b].clone();
            let mut mask = 0u64;
            let mut cost = 0u64;
            for w in path.windows(2) {
                cost += dist.get(ctx, w[0] * n + w[1]) as u64;
            }
            for &c in &path {
                mask |= 1 << c;
            }
            ctx.record_active((prefixes.len() - b) as u64);
            if cost < best.get(ctx, 0) {
                state.search(ctx, &mut path, mask, cost);
            }
            b += ctx.num_threads();
        }
    });
    AlgoOutcome {
        output: TspOutput {
            best_len: best.get_plain(0),
            tour: best_tour.into_inner(),
        },
        report: outcome.report,
    }
}

/// Lock-free search state: the bound is published with `fetch_min` and
/// the tour under a seqlock-style version word — no [`LockSet`] at all,
/// so traces of this variant contain zero `lock_hold` spans.
struct LockfreeState<'a, 'b> {
    dist: &'a ReadArray<'b, u32>,
    n: usize,
    min_out: Vec<u64>,
    /// `best[0]` is the global bound, monotonically lowered via CAS.
    best: &'a SharedU64s,
    /// Seqlock version word: even = stable, odd = writer active.
    tour_version: &'a SharedU64s,
    /// The tour matching the last published bound (`n` slots).
    tour_slots: &'a SharedU64s,
}

impl LockfreeState<'_, '_> {
    /// Publishes `path` (length `total`) under the seqlock, unless a
    /// strictly better bound landed in the meantime.
    fn publish_tour<C: ThreadCtx>(&self, ctx: &mut C, path: &[usize], total: u64) {
        loop {
            let v = self.tour_version.get(ctx, 0);
            if v % 2 == 1 {
                // A writer is mid-publication; model the retry spin.
                ctx.compute(1);
                continue;
            }
            if self.tour_version.compare_exchange(ctx, 0, v, v + 1).is_err() {
                continue;
            }
            // We own the seqlock. Only write if our bound is still THE
            // bound — a concurrent thread may have beaten `total`
            // between our fetch_min and now, and its tour must win.
            if self.best.get(ctx, 0) == total {
                for (i, &city) in path.iter().enumerate() {
                    self.tour_slots.set(ctx, i, city as u64);
                }
            }
            self.tour_version.set(ctx, 0, v + 2);
            return;
        }
    }

    fn search<C: ThreadCtx>(
        &self,
        ctx: &mut C,
        path: &mut Vec<usize>,
        visited_mask: u64,
        cost: u64,
    ) {
        let current = *path.last().expect("path never empty");
        if path.len() == self.n {
            let total = cost + self.dist.get(ctx, current * self.n) as u64;
            // Lock-free publication: a plain load screens out tours that
            // cannot improve the bound (most leaves), so only genuine
            // improvements pay the atomic min on the bound line. The
            // screen is safe: if `total >= bound` the `fetch_min` would
            // have been a no-op anyway, and a concurrent improvement
            // between screen and CAS just makes `fetch_min` return
            // `old <= total`, suppressing the publish exactly as it
            // should. Only a strict improvement wins the right to
            // publish the tour (ties keep the incumbent), so at most
            // one thread per bound value enters the seqlock.
            if total < self.best.get(ctx, 0) {
                let old = self.best.fetch_min(ctx, 0, total);
                if total < old {
                    self.publish_tour(ctx, path, total);
                }
            }
            return;
        }
        // Prune against a plain load of the bound — stale reads only
        // delay pruning, never break correctness (the bound is
        // monotone non-increasing).
        let bound = lower_bound(ctx, &self.min_out, self.n, cost, visited_mask, current);
        if bound >= self.best.get(ctx, 0) {
            return;
        }
        ctx.record_active((self.n - path.len()) as u64);
        for next in 1..self.n {
            if visited_mask & (1 << next) != 0 {
                continue;
            }
            ctx.compute(costs::TOUR_STEP);
            let step = self.dist.get(ctx, current * self.n + next) as u64;
            let ncost = cost + step;
            if ncost >= self.best.get(ctx, 0) {
                continue;
            }
            path.push(next);
            self.search(ctx, path, visited_mask | (1 << next), ncost);
            path.pop();
        }
    }
}

/// Parallel branch-and-bound TSP with lock-free bound publication
/// ([`Ablation::LockfreeBound`](crate::Ablation::LockfreeBound)).
///
/// Same static round-robin branches as [`parallel`], but the global
/// bound is maintained without the paper's atomic lock: threads prune
/// against plain loads of the bound word, publish improvements with a
/// single `fetch_min`, and store the winning tour under a seqlock-style
/// version check. Traces of this variant contain **zero** `lock_hold`
/// spans. Branch-and-bound prunes depend on bound arrival order, so
/// simulated *timing* varies with schedule — but the optimal length and
/// a matching tour are schedule-independent.
///
/// # Panics
///
/// Panics if the instance has fewer than 3 or more than 63 cities.
pub fn parallel_lockfree<M: Machine>(
    machine: &M,
    instance: &TspInstance,
) -> AlgoOutcome<TspOutput> {
    let n = instance.num_cities();
    assert!((3..=63).contains(&n), "tsp supports 3..=63 cities");
    let dist = ReadArray::new(instance.distance_matrix());
    let best = SharedU64s::new(1);
    let tour_version = SharedU64s::new(1);
    let tour_slots = SharedU64s::new(n);
    // Seed bound and tour with the greedy heuristic (§IV-A), so the
    // slots are valid even if no branch improves on it.
    let (seed_tour, seed_len) = greedy_tour(instance);
    best.set_plain(0, seed_len);
    for (i, &city) in seed_tour.iter().enumerate() {
        tour_slots.set_plain(i, city as u64);
    }
    let prefixes = branch_prefixes(n);
    let min_out = min_out(instance);

    let outcome = machine.run(|ctx| {
        let state = LockfreeState {
            dist: &dist,
            n,
            min_out: min_out.clone(),
            best: &best,
            tour_version: &tour_version,
            tour_slots: &tour_slots,
        };
        let mut b = ctx.thread_id();
        while b < prefixes.len() {
            if ctx.cancelled() {
                break;
            }
            let mut path = prefixes[b].clone();
            let mut mask = 0u64;
            let mut cost = 0u64;
            for w in path.windows(2) {
                cost += dist.get(ctx, w[0] * n + w[1]) as u64;
            }
            for &c in &path {
                mask |= 1 << c;
            }
            ctx.record_active((prefixes.len() - b) as u64);
            if cost < best.get(ctx, 0) {
                state.search(ctx, &mut path, mask, cost);
            }
            b += ctx.num_threads();
        }
    });
    AlgoOutcome {
        output: TspOutput {
            best_len: best.get_plain(0),
            // Workers have joined, so the seqlock is even and stable;
            // the slots hold the tour of the final bound.
            tour: (0..n).map(|i| tour_slots.get_plain(i) as usize).collect(),
        },
        report: outcome.report,
    }
}

/// Sequential reference.
///
/// # Panics
///
/// Panics if `machine.num_threads() != 1`.
pub fn sequential<M: Machine>(machine: &M, instance: &TspInstance) -> AlgoOutcome<TspOutput> {
    assert_eq!(machine.num_threads(), 1, "sequential reference needs 1 thread");
    parallel(machine, instance)
}

/// Brute-force permutation oracle (untracked; factorial time — keep
/// `n ≤ 9`).
pub fn reference(instance: &TspInstance) -> u64 {
    let n = instance.num_cities();
    let mut cities: Vec<usize> = (1..n).collect();
    let mut best = u64::MAX;
    permute(&mut cities, 0, &mut |perm| {
        let mut order = vec![0];
        order.extend_from_slice(perm);
        best = best.min(instance.tour_length(&order));
    });
    best
}

fn permute(items: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crono_graph::gen::tsp_cities;
    use crono_runtime::NativeMachine;

    #[test]
    fn matches_brute_force() {
        for seed in 0..3 {
            let inst = tsp_cities(8, seed);
            let out = parallel(&NativeMachine::new(4), &inst);
            assert_eq!(out.output.best_len, reference(&inst), "seed {seed}");
        }
    }

    #[test]
    fn tour_is_valid_permutation_of_matching_length() {
        let inst = tsp_cities(9, 5);
        let out = parallel(&NativeMachine::new(4), &inst);
        let tour = &out.output.tour;
        assert_eq!(tour.len(), 9);
        let mut sorted = tour.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
        assert_eq!(inst.tour_length(tour), out.output.best_len);
    }

    #[test]
    fn greedy_tour_is_valid_and_no_better_than_optimal() {
        let inst = tsp_cities(9, 3);
        let (tour, len) = greedy_tour(&inst);
        let mut sorted = tour.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
        assert_eq!(inst.tour_length(&tour), len);
        assert!(len >= reference(&inst));
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let inst = tsp_cities(10, 7);
        let seq = sequential(&NativeMachine::new(1), &inst);
        let par = parallel(&NativeMachine::new(8), &inst);
        assert_eq!(seq.output.best_len, par.output.best_len);
    }

    #[test]
    fn lockfree_variant_matches_brute_force() {
        for seed in 0..3 {
            let inst = tsp_cities(8, seed);
            for threads in [1, 4, 8] {
                let out = parallel_lockfree(&NativeMachine::new(threads), &inst);
                assert_eq!(
                    out.output.best_len,
                    reference(&inst),
                    "seed {seed} threads {threads}"
                );
                let mut sorted = out.output.tour.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "tour is a permutation");
                assert_eq!(
                    inst.tour_length(&out.output.tour),
                    out.output.best_len,
                    "published tour matches the published bound"
                );
            }
        }
    }

    #[test]
    fn lockfree_handles_unimprovable_greedy_seed() {
        // 3 cities: every tour has the same length, so no branch ever
        // beats the greedy seed and the seeded slots must survive.
        let inst = tsp_cities(3, 2);
        let out = parallel_lockfree(&NativeMachine::new(2), &inst);
        assert_eq!(out.output.best_len, inst.tour_length(&[0, 1, 2]));
        assert_eq!(inst.tour_length(&out.output.tour), out.output.best_len);
    }

    #[test]
    fn triangle_instance_is_trivial() {
        let inst = tsp_cities(3, 1);
        let out = parallel(&NativeMachine::new(2), &inst);
        assert_eq!(
            out.output.best_len,
            inst.tour_length(&[0, 1, 2]),
            "all 3-city tours have equal length"
        );
    }

    #[test]
    #[should_panic(expected = "3..=63")]
    fn oversized_instance_rejected() {
        let inst = tsp_cities(64, 0);
        parallel(&NativeMachine::new(1), &inst);
    }
}
