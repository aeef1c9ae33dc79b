//! `DFS` — depth-first search (§III-5).
//!
//! CRONO parallelizes DFS at *branch* level: "branches are connected
//! components of a graph that extend outward like branches in a tree from
//! a source vertex ... these branches can be searched in parallel". Each
//! thread takes a branch root from a shared work stack (guarded by an
//! atomic lock), explores it depth-first claiming vertices with atomic
//! test-and-set, and donates its sibling branches back to the shared
//! stack when other threads are starving. Only branch-level parallelism
//! exists, so DFS scales worst of the suite (3.57× in Table IV).

use crate::graph_view::SharedGraph;
use crate::{costs, AlgoOutcome};
use crono_graph::{CsrGraph, VertexId};
use crono_runtime::Mutex;
use crono_runtime::{
    LockSet, Machine, SharedFlags, SharedU64s, TaskPool, ThreadCtx, IDLE_BACKOFF_MAX,
    IDLE_BACKOFF_MIN,
};

/// Per-thread deque capacity for the stealing variant; deeper branches
/// overflow into the owner's private stack, bounding shared memory at
/// `threads × 8 KiB` regardless of graph size.
const STEAL_DEQUE_CAP: usize = 1024;

/// Result of a DFS run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfsOutput {
    /// Whether the target vertex was reached.
    pub found: bool,
    /// Number of vertices visited (= reachable set when the target is
    /// absent or equals the full search).
    pub visited: usize,
}

/// Sequential stack DFS, reported through `ctx`.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn run_seq<C: ThreadCtx>(
    ctx: &mut C,
    graph: &SharedGraph<'_>,
    source: VertexId,
    target: Option<VertexId>,
) -> DfsOutput {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source vertex out of range");
    let mut visited = vec![false; n];
    let mut stack = vec![source];
    let mut count = 0usize;
    while let Some(v) = stack.pop() {
        if visited[v as usize] {
            continue;
        }
        visited[v as usize] = true;
        ctx.compute(costs::VISIT);
        count += 1;
        if target == Some(v) {
            return DfsOutput {
                found: true,
                visited: count,
            };
        }
        ctx.record_active(stack.len() as u64 + 1);
        for e in graph.edge_range(ctx, v) {
            let u = graph.neighbor(ctx, e);
            if !visited[u as usize] {
                stack.push(u);
            }
        }
    }
    DfsOutput {
        found: target.is_some_and(|t| visited[t as usize]),
        visited: count,
    }
}

/// Runs the sequential reference on a one-thread machine.
///
/// # Panics
///
/// Panics if `machine.num_threads() != 1` or `source` is out of range.
pub fn sequential<M: Machine>(
    machine: &M,
    graph: &CsrGraph,
    source: VertexId,
    target: Option<VertexId>,
) -> AlgoOutcome<DfsOutput> {
    assert_eq!(
        machine.num_threads(),
        1,
        "sequential reference needs 1 thread"
    );
    let shared = SharedGraph::new(graph);
    let mut outcome = machine.run(|ctx| run_seq(ctx, &shared, source, target));
    AlgoOutcome {
        output: outcome.per_thread.pop().expect("one thread ran"),
        report: outcome.report,
    }
}

/// Parallel DFS: branch capture from a shared work stack (Table I).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn parallel<M: Machine>(
    machine: &M,
    graph: &CsrGraph,
    source: VertexId,
    target: Option<VertexId>,
) -> AlgoOutcome<DfsOutput> {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source vertex out of range");
    let shared = SharedGraph::new(graph);
    let claimed = SharedFlags::new(n);
    let found = SharedFlags::new(1);
    let visit_count = SharedU64s::new(1);
    // The shared branch stack. The lock set models the "atomic lock"
    // guarding it; the mutex provides the actual exclusion for the Vec.
    let branch_stack: Mutex<Vec<VertexId>> = Mutex::new(vec![source]);
    let stack_lock = LockSet::new(1);
    let stack_len = SharedU64s::new(1);
    stack_len.set_plain(0, 1);

    let outcome = machine.run(|ctx| {
        let mut local: Vec<VertexId> = Vec::new();
        let mut visited = 0u64;
        'search: loop {
            // Take a branch from the shared stack (branch capture).
            let v = match local.pop() {
                Some(v) => v,
                None => {
                    if found.get(ctx, 0) {
                        break;
                    }
                    ctx.lock(&stack_lock, 0);
                    let taken = branch_stack.lock().pop();
                    if taken.is_some() {
                        stack_len.fetch_add(ctx, 0, u64::MAX); // wrapping -1
                    }
                    ctx.unlock(&stack_lock, 0);
                    match taken {
                        Some(v) => v,
                        None => {
                            // No shared work: finished when every thread
                            // is idle; approximation: if nothing is
                            // claimed-in-flight the search is done. Spin a
                            // few times to let producers publish.
                            if stack_len.get(ctx, 0) == 0 {
                                break;
                            }
                            continue;
                        }
                    }
                }
            };
            if claimed.test_and_set(ctx, v as usize) {
                continue;
            }
            visited += 1;
            ctx.compute(costs::VISIT);
            if target == Some(v) {
                found.set(ctx, 0, true);
                break;
            }
            ctx.record_active(local.len() as u64 + 1);
            // Explore: keep the first unclaimed child for depth-first
            // descent, donate alternate branches when the shared stack
            // has run dry.
            let mut donated = 0u64;
            for e in shared.edge_range(ctx, v) {
                let u = shared.neighbor(ctx, e);
                if claimed.get(ctx, u as usize) {
                    continue;
                }
                if donated < 2 && stack_len.get(ctx, 0) < ctx.num_threads() as u64 {
                    ctx.lock(&stack_lock, 0);
                    branch_stack.lock().push(u);
                    stack_len.fetch_add(ctx, 0, 1);
                    ctx.unlock(&stack_lock, 0);
                    donated += 1;
                } else {
                    local.push(u);
                }
            }
            if found.get(ctx, 0) {
                break 'search;
            }
        }
        if visited > 0 {
            visit_count.fetch_add(ctx, 0, visited);
        }
    });
    AlgoOutcome {
        output: DfsOutput {
            found: found.get_plain(0) || target.is_some_and(|t| claimed.get_plain(t as usize)),
            visited: visit_count.get_plain(0) as usize,
        },
        report: outcome.report,
    }
}

/// Parallel DFS with branches in per-thread work-stealing deques
/// ([`Ablation::TaskSteal`](crate::Ablation::TaskSteal)).
///
/// The paper-faithful [`parallel`] funnels every branch donation and
/// capture through one lock-guarded shared stack. Here each thread
/// pushes discovered branches into its own Chase–Lev deque: the owner
/// pops the newest branch (depth-first descent, usually hitting its
/// private L1), while starving threads steal the *oldest* — the branch
/// closest to the source and therefore likely the largest — from a
/// seeded-order victim. Branches beyond the deque's capacity overflow
/// into the owner's private stack, which is always drained first.
/// Vertex claims stay atomic test-and-set, so every vertex is visited
/// exactly once and `visited`/`found` match [`parallel`].
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn parallel_steal<M: Machine>(
    machine: &M,
    graph: &CsrGraph,
    source: VertexId,
    target: Option<VertexId>,
) -> AlgoOutcome<DfsOutput> {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source vertex out of range");
    let threads = machine.num_threads();
    let shared = SharedGraph::new(graph);
    let claimed = SharedFlags::new(n);
    let found = SharedFlags::new(1);
    let visit_count = SharedU64s::new(1);
    let pool = TaskPool::new(threads, STEAL_DEQUE_CAP, crate::apsp::STEAL_SEED ^ 2);
    pool.push_plain(0, source as u64);

    let outcome = machine.run(|ctx| {
        let mut overflow: Vec<VertexId> = Vec::new();
        let mut visited = 0u64;
        // Empty-handed retries back off exponentially (modeled cycles)
        // so starved threads stop hammering the deque lines while the
        // frontier is narrow.
        let mut backoff = IDLE_BACKOFF_MIN;
        loop {
            if ctx.cancelled() || found.get(ctx, 0) {
                break;
            }
            // Private overflow first (deepest work), then own deque /
            // steals. Pool-taken branches owe a `complete`.
            let (v, pooled) = match overflow.pop() {
                Some(v) => (v, false),
                None => match pool.try_take(ctx) {
                    Some(task) => (task as VertexId, true),
                    None => {
                        if pool.pending_total(ctx) == 0 {
                            break;
                        }
                        // Work is in flight elsewhere; retry.
                        ctx.compute(backoff);
                        backoff = (backoff * 2).min(IDLE_BACKOFF_MAX);
                        continue;
                    }
                },
            };
            backoff = IDLE_BACKOFF_MIN;
            if !claimed.test_and_set(ctx, v as usize) {
                visited += 1;
                ctx.compute(costs::VISIT);
                if target == Some(v) {
                    found.set(ctx, 0, true);
                    if pooled {
                        pool.complete(ctx);
                    }
                    break;
                }
                ctx.record_active(overflow.len() as u64 + 1);
                for e in shared.edge_range(ctx, v) {
                    let u = shared.neighbor(ctx, e);
                    if claimed.get(ctx, u as usize) {
                        continue;
                    }
                    if !pool.push(ctx, u as u64) {
                        overflow.push(u);
                    }
                }
            }
            if pooled {
                pool.complete(ctx);
            }
        }
        if visited > 0 {
            visit_count.fetch_add(ctx, 0, visited);
        }
    });
    AlgoOutcome {
        output: DfsOutput {
            found: found.get_plain(0) || target.is_some_and(|t| claimed.get_plain(t as usize)),
            visited: visit_count.get_plain(0) as usize,
        },
        report: outcome.report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crono_graph::gen::{road_network, uniform_random};
    use crono_runtime::NativeMachine;

    #[test]
    fn sequential_visits_reachable_set() {
        let g = uniform_random(128, 400, 4, 2);
        let out = sequential(&NativeMachine::new(1), &g, 0, None);
        assert_eq!(out.output.visited, 128, "generator is connected");
        assert!(!out.output.found, "no target requested");
    }

    #[test]
    fn sequential_finds_target() {
        let g = uniform_random(64, 200, 4, 3);
        let out = sequential(&NativeMachine::new(1), &g, 0, Some(63));
        assert!(out.output.found);
    }

    #[test]
    fn parallel_visits_whole_component_without_target() {
        let g = uniform_random(256, 800, 4, 4);
        for threads in [1, 2, 4, 8] {
            let out = parallel(&NativeMachine::new(threads), &g, 0, None);
            assert_eq!(out.output.visited, 256, "threads={threads}");
        }
    }

    #[test]
    fn parallel_finds_target_on_road_network() {
        let g = road_network(16, 16, 4, 0.2, 0.0, 6);
        let out = parallel(&NativeMachine::new(4), &g, 0, Some(255));
        assert!(out.output.found);
    }

    #[test]
    fn unreachable_target_not_found() {
        let g = CsrGraph::from_edges(4, vec![(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1)]);
        let out = parallel(&NativeMachine::new(2), &g, 0, Some(3));
        assert!(!out.output.found);
        assert_eq!(out.output.visited, 2);
    }

    #[test]
    fn steal_variant_visits_whole_component() {
        let g = uniform_random(256, 800, 4, 4);
        for threads in [1, 2, 4, 8] {
            let out = parallel_steal(&NativeMachine::new(threads), &g, 0, None);
            assert_eq!(out.output.visited, 256, "threads={threads}");
        }
    }

    #[test]
    fn steal_variant_finds_target_and_handles_unreachable() {
        let g = road_network(16, 16, 4, 0.2, 0.0, 6);
        let out = parallel_steal(&NativeMachine::new(4), &g, 0, Some(255));
        assert!(out.output.found);
        let g2 = CsrGraph::from_edges(4, vec![(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1)]);
        let out = parallel_steal(&NativeMachine::new(2), &g2, 0, Some(3));
        assert!(!out.output.found);
        assert_eq!(out.output.visited, 2);
    }

    #[test]
    fn steal_variant_overflow_path_still_exact() {
        // A star graph fans out n-1 children from the source at once —
        // far past STEAL_DEQUE_CAP would need a huge n, so instead use
        // a tiny pool capacity via a dense graph and many threads to
        // exercise steals; exactness is what matters.
        let g = uniform_random(512, 4000, 8, 11);
        let out = parallel_steal(&NativeMachine::new(8), &g, 3, None);
        assert_eq!(out.output.visited, 512, "claims are exclusive");
    }

    #[test]
    fn each_vertex_claimed_once() {
        let g = uniform_random(128, 512, 4, 9);
        let out = parallel(&NativeMachine::new(8), &g, 5, None);
        assert_eq!(out.output.visited, 128, "claims are exclusive");
    }
}
