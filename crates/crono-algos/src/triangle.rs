//! `TRI_CNT` — triangle counting (§III-8).
//!
//! CRONO's structure: "a global data structure is maintained for each
//! vertex, which stores the connections between vertices. The loop then
//! runs over all vertices inside each thread, and updates to the global
//! data structure are done via atomic locks. Then a barrier is applied,
//! after which another loop runs ... that computes the number of
//! triangles for each vertex." Phase 1 registers every edge into the
//! shared connection structure under striped per-vertex locks; phase 2
//! uses the exact *forward* (degree-ordered) algorithm of Satish et al.:
//! each triangle is counted once at its lowest-rank vertex, where rank
//! orders vertices by degree (ties by id). Degree ordering bounds the
//! per-edge intersection work at O(E^1.5) even on power-law graphs whose
//! hubs would make naive neighbor intersection quadratic.

use crate::graph_view::{chunk, SharedGraph};
use crate::{costs, AlgoOutcome};
use crono_graph::{CsrGraph, VertexId};
use crono_runtime::{LockSet, Machine, SharedU64s, ThreadCtx};

/// Result of a triangle-counting run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriangleOutput {
    /// Total triangles in the graph (each counted once).
    pub total: u64,
    /// `per_vertex[v]` = triangles counted at `v` (their lowest-rank
    /// vertex under degree-then-id ordering).
    pub per_vertex: Vec<u64>,
}

/// The forward structure: vertices relabeled in rank order (degree, then
/// id), with edges kept only from lower to higher rank. Intersecting two
/// forward lists is then a sorted two-pointer scan, and total phase-2
/// work is O(E^1.5) even on power-law graphs.
fn forward_graph(graph: &CsrGraph) -> (CsrGraph, Vec<VertexId>) {
    let n = graph.num_vertices();
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.sort_unstable_by_key(|&v| (graph.degree(v), v));
    let mut rank = vec![0u32; n];
    for (r, &v) in order.iter().enumerate() {
        rank[v as usize] = r as u32;
    }
    let mut edges = Vec::with_capacity(graph.num_directed_edges() / 2);
    for v in 0..n as VertexId {
        for (u, _) in graph.neighbors(v) {
            if rank[v as usize] < rank[u as usize] {
                edges.push((rank[v as usize], rank[u as usize], 1));
            }
        }
    }
    (CsrGraph::from_edges(n, edges), order)
}

/// Parallel triangle counting: graph division + atomic per-vertex counts
/// (Table I).
pub fn parallel<M: Machine>(machine: &M, graph: &CsrGraph) -> AlgoOutcome<TriangleOutput> {
    let n = graph.num_vertices();
    let shared = SharedGraph::new(graph);
    let per_vertex = SharedU64s::new(n);
    let total = SharedU64s::new(1);
    // The "global data structure ... storing connections between
    // vertices": per-vertex degree tallies registered under atomic locks
    // in phase 1, exactly as the C suite populates its structure.
    let connections = SharedU64s::new(n);
    let locks = LockSet::new(n.min(4096));
    let (forward, order) = forward_graph(graph);
    let fwd_shared = SharedGraph::new(&forward);

    let outcome = machine.run(|ctx| {
        let tid = ctx.thread_id();
        let nthreads = ctx.num_threads();
        // Phase 1: register every edge of the owned section.
        for v in chunk(n, tid, nthreads) {
            for e in shared.edge_range(ctx, v as VertexId) {
                let u = shared.neighbor(ctx, e) as usize;
                ctx.compute(costs::INTERSECT);
                ctx.lock_for(&locks, u);
                let c = connections.get(ctx, u);
                connections.set(ctx, u, c + 1);
                ctx.unlock_for(&locks, u);
            }
        }
        ctx.barrier();
        let mut local_total = 0u64;
        // Phase 2 walks the forward structure: `rv` iterates rank-space.
        for rv in chunk(n, tid, nthreads) {
            ctx.record_active(1);
            let mut v_count = 0u64;
            let rv = rv as VertexId;
            let range_v = fwd_shared.edge_range(ctx, rv);
            for e in range_v.clone() {
                let ru = fwd_shared.neighbor(ctx, e);
                // Two-pointer intersection of the sorted forward lists.
                let mut i = range_v.start;
                let mut j = fwd_shared.edge_range(ctx, ru).start;
                let v_end = range_v.end;
                let u_end = fwd_shared.edge_range(ctx, ru).end;
                while i < v_end && j < u_end {
                    ctx.compute(costs::INTERSECT);
                    let a = fwd_shared.neighbor(ctx, i);
                    let b = fwd_shared.neighbor(ctx, j);
                    match a.cmp(&b) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            v_count += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
            if v_count > 0 {
                // "updates to the global data structure via atomic locks"
                per_vertex.fetch_add(ctx, order[rv as usize] as usize, v_count);
                local_total += v_count;
            }
        }
        ctx.barrier();
        // Second phase: aggregate the global count.
        if local_total > 0 {
            total.fetch_add(ctx, 0, local_total);
        }
    });
    AlgoOutcome {
        output: TriangleOutput {
            total: total.get_plain(0),
            per_vertex: per_vertex.to_vec(),
        },
        report: outcome.report,
    }
}

/// Sequential reference.
///
/// # Panics
///
/// Panics if `machine.num_threads() != 1`.
pub fn sequential<M: Machine>(machine: &M, graph: &CsrGraph) -> AlgoOutcome<TriangleOutput> {
    assert_eq!(
        machine.num_threads(),
        1,
        "sequential reference needs 1 thread"
    );
    parallel(machine, graph)
}

/// O(n³) brute-force oracle for the tests (undirected graphs).
pub fn reference(graph: &CsrGraph) -> u64 {
    let n = graph.num_vertices() as VertexId;
    let has = |a: VertexId, b: VertexId| graph.neighbors(a).any(|(x, _)| x == b);
    let mut count = 0u64;
    for a in 0..n {
        for (b, _) in graph.neighbors(a) {
            if b <= a {
                continue;
            }
            for (c, _) in graph.neighbors(a) {
                if c <= b {
                    continue;
                }
                if has(b, c) {
                    count += 1;
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crono_graph::gen::{rmat, uniform_random, RmatParams};
    use crono_graph::EdgeList;
    use crono_runtime::NativeMachine;

    #[test]
    fn single_triangle() {
        let mut el = EdgeList::new(3);
        el.push_undirected(0, 1, 1).unwrap();
        el.push_undirected(1, 2, 1).unwrap();
        el.push_undirected(0, 2, 1).unwrap();
        let g = el.into_csr();
        let out = parallel(&NativeMachine::new(2), &g);
        assert_eq!(out.output.total, 1);
        assert_eq!(out.output.per_vertex, vec![1, 0, 0]);
    }

    #[test]
    fn complete_graph_k5_has_ten() {
        let mut el = EdgeList::new(5);
        for a in 0..5u32 {
            for b in a + 1..5 {
                el.push_undirected(a, b, 1).unwrap();
            }
        }
        let out = parallel(&NativeMachine::new(3), &el.into_csr());
        assert_eq!(out.output.total, 10);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..4 {
            let g = uniform_random(40, 150, 3, seed);
            let out = parallel(&NativeMachine::new(4), &g);
            assert_eq!(out.output.total, reference(&g), "seed {seed}");
        }
    }

    #[test]
    fn social_graphs_have_many_triangles() {
        let g = rmat(9, 4096, 3, RmatParams::default(), 3);
        let out = parallel(&NativeMachine::new(4), &g);
        assert_eq!(out.output.total, reference(&g));
        assert!(out.output.total > 0, "hubs close triangles");
    }

    #[test]
    fn per_vertex_sums_to_total() {
        let g = uniform_random(64, 300, 3, 9);
        let out = parallel(&NativeMachine::new(4), &g);
        let sum: u64 = out.output.per_vertex.iter().sum();
        assert_eq!(sum, out.output.total);
    }

    #[test]
    fn thread_count_invariant() {
        let g = uniform_random(64, 256, 3, 1);
        let a = parallel(&NativeMachine::new(1), &g);
        let b = parallel(&NativeMachine::new(8), &g);
        assert_eq!(a.output.total, b.output.total);
        assert_eq!(a.output.per_vertex, b.output.per_vertex);
    }
}
