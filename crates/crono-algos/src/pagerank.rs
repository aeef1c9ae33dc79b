//! `PageRank` — (§III-9, Eq. 1).
//!
//! Per-iteration implementation "based on [Satish et al.], with no
//! approximations": the graph is statically divided amongst threads;
//! every vertex pushes `PR(v)/degree(v)` to its neighbors' accumulators
//! under striped per-vertex locks ("updates for page ranks done via
//! atomic locks, as threads may converge on common neighbors"); a barrier
//! separates the push phase from the apply phase that computes
//! `PR' = r + (1 − r) · Σ`.

use crate::graph_view::{chunk, SharedGraph};
use crate::{costs, AlgoOutcome};
use crono_graph::{CsrGraph, VertexId};
use crono_runtime::{LockSet, Machine, ReadArray, RunError, RunOptions, SharedF64s, ThreadCtx};

/// The paper's `r`: probability of a random page visit.
pub const DAMPING_R: f64 = 0.15;

/// Result of a PageRank run.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankOutput {
    /// Final per-vertex ranks.
    pub ranks: Vec<f64>,
    /// Iterations performed.
    pub iterations: u32,
}

/// Parallel PageRank: graph division with atomic rank updates (Table I).
///
/// Runs exactly `iterations` rounds of Eq. 1.
///
/// # Panics
///
/// Panics if `iterations == 0`.
pub fn parallel<M: Machine>(
    machine: &M,
    graph: &CsrGraph,
    iterations: u32,
) -> AlgoOutcome<PageRankOutput> {
    assert!(iterations > 0, "need at least one iteration");
    let n = graph.num_vertices();
    let shared = SharedGraph::new(graph);
    let ranks = SharedF64s::filled(n, 1.0 / n as f64);
    let sums = SharedF64s::filled(n, 0.0);
    let locks = LockSet::new(n.min(4096));

    let outcome = machine.run(|ctx| {
        let tid = ctx.thread_id();
        let nthreads = ctx.num_threads();
        for _ in 0..iterations {
            if ctx.cancelled() {
                break;
            }
            ctx.span_begin("pagerank:iter");
            // Push phase: scatter contributions to neighbors.
            let mut active = 0u64;
            for v in chunk(n, tid, nthreads) {
                let r = shared.edge_range(ctx, v as VertexId);
                let degree = r.len();
                if degree == 0 {
                    continue;
                }
                active += 1;
                ctx.compute(costs::RANK_UPDATE);
                let contribution = ranks.get(ctx, v) / degree as f64;
                for e in r {
                    let u = shared.neighbor(ctx, e) as usize;
                    ctx.compute(costs::RANK_UPDATE);
                    // "updates for page ranks done via atomic locks"
                    ctx.lock_for(&locks, u);
                    let s = sums.get(ctx, u);
                    sums.set(ctx, u, s + contribution);
                    ctx.unlock_for(&locks, u);
                }
            }
            if active > 0 {
                ctx.record_active(active);
            }
            ctx.barrier();
            // Apply phase: Eq. 1, then reset the accumulators.
            for v in chunk(n, tid, nthreads) {
                ctx.compute(costs::RANK_UPDATE);
                let s = sums.get(ctx, v);
                ranks.set(ctx, v, DAMPING_R + (1.0 - DAMPING_R) * s);
                sums.set(ctx, v, 0.0);
            }
            ctx.barrier();
            ctx.span_end("pagerank:iter");
        }
    });
    AlgoOutcome {
        output: PageRankOutput {
            ranks: ranks.to_vec(),
            iterations,
        },
        report: outcome.report,
    }
}

/// Parallel PageRank with lock-free CAS accumulation — the
/// `pagerank_update` ablation (PR 3).
///
/// Identical to [`parallel`] except the striped-lock critical section
/// around each neighbor accumulator is replaced by a single
/// [`SharedF64s::fetch_add`] CAS loop (the GARDENIA-style atomic
/// update). Floating-point addition order may differ from the locked
/// version, so ranks match the reference to tolerance, not bitwise.
///
/// # Panics
///
/// Panics if `iterations == 0`.
pub fn parallel_cas<M: Machine>(
    machine: &M,
    graph: &CsrGraph,
    iterations: u32,
) -> AlgoOutcome<PageRankOutput> {
    assert!(iterations > 0, "need at least one iteration");
    let n = graph.num_vertices();
    let shared = SharedGraph::new(graph);
    let ranks = SharedF64s::filled(n, 1.0 / n as f64);
    let sums = SharedF64s::filled(n, 0.0);

    let outcome = machine.run(|ctx| {
        let tid = ctx.thread_id();
        let nthreads = ctx.num_threads();
        for _ in 0..iterations {
            if ctx.cancelled() {
                break;
            }
            ctx.span_begin("pagerank:iter");
            let mut active = 0u64;
            for v in chunk(n, tid, nthreads) {
                let r = shared.edge_range(ctx, v as VertexId);
                let degree = r.len();
                if degree == 0 {
                    continue;
                }
                active += 1;
                ctx.compute(costs::RANK_UPDATE);
                let contribution = ranks.get(ctx, v) / degree as f64;
                for e in r {
                    let u = shared.neighbor(ctx, e) as usize;
                    ctx.compute(costs::RANK_UPDATE);
                    // One CAS-loop RMW instead of lock / load / store /
                    // unlock: no convoy on shared high-degree neighbors.
                    sums.fetch_add(ctx, u, contribution);
                }
            }
            if active > 0 {
                ctx.record_active(active);
            }
            ctx.barrier();
            for v in chunk(n, tid, nthreads) {
                ctx.compute(costs::RANK_UPDATE);
                let s = sums.get(ctx, v);
                ranks.set(ctx, v, DAMPING_R + (1.0 - DAMPING_R) * s);
                sums.set(ctx, v, 0.0);
            }
            ctx.barrier();
            ctx.span_end("pagerank:iter");
        }
    });
    AlgoOutcome {
        output: PageRankOutput {
            ranks: ranks.to_vec(),
            iterations,
        },
        report: outcome.report,
    }
}

/// Parallel PageRank in *pull* mode over the in-edge graph — the serving
/// engine's snapshot builder.
///
/// Each thread owns a static chunk of vertices and gathers
/// `PR(v)/degree(v)` from its in-neighbors into a private accumulator:
/// no locks, no CAS, and — because every in-list of
/// [`CsrGraph::in_edges`] is ascending by source — the floating-point
/// additions for a vertex happen in ascending in-neighbor order, which is
/// exactly the order the push-mode [`reference`] applies them in. Both
/// branches give that order: [`CsrGraph::transpose`] sorts each in-list
/// by source, then weight, and a graph certified symmetric equals its
/// transpose array for array, so its borrowed out-lists are already in
/// that order. The ranks are therefore **bitwise identical** to
/// `reference(graph, iterations)` at every thread count, so a cache
/// keyed on the snapshot stays byte-stable no matter which machine built
/// it. The in-edge graph and the out-degree table are data preparation
/// built outside the timed region, like the light/heavy split in
/// [`crate::sssp::parallel_delta`].
///
/// # Panics
///
/// Panics if `iterations == 0`.
pub fn parallel_pull<M: Machine>(
    machine: &M,
    graph: &CsrGraph,
    iterations: u32,
) -> AlgoOutcome<PageRankOutput> {
    match try_parallel_pull(machine, &RunOptions::default(), graph, iterations) {
        Ok(outcome) => outcome,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`parallel_pull`]: the serving engine builds snapshots
/// through this so a faulted or hung machine surfaces as a
/// [`RunError`] (cancelling the consuming queries) instead of
/// unwinding the whole batch.
///
/// # Errors
///
/// Whatever [`Machine::try_run_with`] reports: a worker panic, the
/// watchdog timeout, or an unroutable mesh.
///
/// # Panics
///
/// Panics if `iterations == 0`.
pub fn try_parallel_pull<M: Machine>(
    machine: &M,
    opts: &RunOptions,
    graph: &CsrGraph,
    iterations: u32,
) -> Result<AlgoOutcome<PageRankOutput>, RunError> {
    assert!(iterations > 0, "need at least one iteration");
    let n = graph.num_vertices();
    let in_edges = graph.in_edges();
    let shared_t = SharedGraph::new(&in_edges);
    let degrees: Vec<u32> = (0..n as VertexId).map(|v| graph.degree(v) as u32).collect();
    let degrees = ReadArray::new(&degrees);
    let ranks = SharedF64s::filled(n, 1.0 / n as f64);
    let sums = SharedF64s::filled(n, 0.0);

    let outcome = machine.try_run_with(opts, |ctx| {
        let tid = ctx.thread_id();
        let nthreads = ctx.num_threads();
        for _ in 0..iterations {
            if ctx.cancelled() {
                break;
            }
            ctx.span_begin("pagerank:iter");
            // Pull phase: gather in ascending in-neighbor order.
            let mut active = 0u64;
            for u in chunk(n, tid, nthreads) {
                let r = shared_t.edge_range(ctx, u as VertexId);
                if r.is_empty() {
                    continue;
                }
                active += 1;
                let mut sum = 0.0f64;
                for e in r {
                    let v = shared_t.neighbor(ctx, e) as usize;
                    ctx.compute(costs::RANK_UPDATE);
                    sum += ranks.get(ctx, v) / degrees.get(ctx, v) as f64;
                }
                sums.set(ctx, u, sum);
            }
            if active > 0 {
                ctx.record_active(active);
            }
            ctx.barrier();
            for v in chunk(n, tid, nthreads) {
                ctx.compute(costs::RANK_UPDATE);
                let s = sums.get(ctx, v);
                ranks.set(ctx, v, DAMPING_R + (1.0 - DAMPING_R) * s);
                sums.set(ctx, v, 0.0);
            }
            ctx.barrier();
            ctx.span_end("pagerank:iter");
        }
    })?;
    Ok(AlgoOutcome {
        output: PageRankOutput {
            ranks: ranks.to_vec(),
            iterations,
        },
        report: outcome.report,
    })
}

/// Sequential reference.
///
/// # Panics
///
/// Panics if `machine.num_threads() != 1` or `iterations == 0`.
pub fn sequential<M: Machine>(
    machine: &M,
    graph: &CsrGraph,
    iterations: u32,
) -> AlgoOutcome<PageRankOutput> {
    assert_eq!(machine.num_threads(), 1, "sequential reference needs 1 thread");
    parallel(machine, graph, iterations)
}

/// Untracked oracle implementing Eq. 1 directly.
pub fn reference(graph: &CsrGraph, iterations: u32) -> Vec<f64> {
    let n = graph.num_vertices();
    let mut ranks = vec![1.0 / n as f64; n];
    for _ in 0..iterations {
        let mut sums = vec![0.0f64; n];
        for v in 0..n as VertexId {
            let degree = graph.degree(v);
            if degree == 0 {
                continue;
            }
            let contribution = ranks[v as usize] / degree as f64;
            for (u, _) in graph.neighbors(v) {
                sums[u as usize] += contribution;
            }
        }
        for v in 0..n {
            ranks[v] = DAMPING_R + (1.0 - DAMPING_R) * sums[v];
        }
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crono_graph::gen::{rmat, uniform_random, RmatParams};
    use crono_runtime::NativeMachine;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9, "rank {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_reference() {
        let g = uniform_random(128, 512, 4, 3);
        let out = parallel(&NativeMachine::new(4), &g, 10);
        assert_close(&out.output.ranks, &reference(&g, 10));
    }

    #[test]
    fn cas_variant_matches_reference() {
        let g = uniform_random(128, 512, 4, 3);
        let oracle = reference(&g, 10);
        for threads in [1, 2, 4, 8] {
            let out = parallel_cas(&NativeMachine::new(threads), &g, 10);
            assert_close(&out.output.ranks, &oracle);
        }
    }

    #[test]
    fn thread_count_does_not_change_ranks() {
        let g = uniform_random(64, 256, 4, 8);
        let a = parallel(&NativeMachine::new(1), &g, 5);
        let b = parallel(&NativeMachine::new(8), &g, 5);
        assert_close(&a.output.ranks, &b.output.ranks);
    }

    #[test]
    fn hubs_rank_higher() {
        let g = rmat(9, 4096, 4, RmatParams::default(), 5);
        let out = parallel(&NativeMachine::new(4), &g, 20);
        let max_deg_v = (0..g.num_vertices() as u32)
            .max_by_key(|&v| g.degree(v))
            .unwrap() as usize;
        let avg: f64 = out.output.ranks.iter().sum::<f64>() / g.num_vertices() as f64;
        assert!(
            out.output.ranks[max_deg_v] > 2.0 * avg,
            "hub rank {} vs avg {avg}",
            out.output.ranks[max_deg_v]
        );
    }

    #[test]
    fn ranks_are_positive_and_bounded() {
        let g = uniform_random(64, 200, 4, 1);
        let out = parallel(&NativeMachine::new(2), &g, 15);
        assert!(out.output.ranks.iter().all(|&r| r > 0.0 && r.is_finite()));
    }

    #[test]
    fn isolated_vertex_settles_at_r() {
        let g = CsrGraph::from_edges(3, vec![(0, 1, 1), (1, 0, 1)]);
        let out = parallel(&NativeMachine::new(2), &g, 10);
        assert!((out.output.ranks[2] - DAMPING_R).abs() < 1e-12);
    }

    #[test]
    fn pull_variant_is_bitwise_equal_to_reference() {
        // The serving engine's on-pool snapshot builder relies on this:
        // the pull kernel gathers in ascending in-neighbor order, the
        // same FP addition order the push reference uses, so the ranks
        // are identical down to the last bit at every thread count.
        for (g, iters) in [
            (uniform_random(128, 512, 4, 3), 10u32),
            (rmat(8, 1024, 4, RmatParams::default(), 5), 20u32),
        ] {
            let oracle = reference(&g, iters);
            for threads in [1, 2, 4, 8] {
                let out = parallel_pull(&NativeMachine::new(threads), &g, iters);
                let got: Vec<u64> = out.output.ranks.iter().map(|r| r.to_bits()).collect();
                let want: Vec<u64> = oracle.iter().map(|r| r.to_bits()).collect();
                assert_eq!(got, want, "threads={threads}");
            }
        }
    }

    #[test]
    fn pull_variant_handles_dangling_and_isolated_vertices() {
        // Vertex 2 has no out-edges (dangling), vertex 3 no edges at all.
        let g = CsrGraph::from_edges(4, vec![(0, 1, 1), (1, 0, 1), (0, 2, 1)]);
        let out = parallel_pull(&NativeMachine::new(2), &g, 10);
        let oracle = reference(&g, 10);
        assert_eq!(
            out.output.ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            oracle.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
        );
        assert!((out.output.ranks[3] - DAMPING_R).abs() < 1e-12);
    }
}
