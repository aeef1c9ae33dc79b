//! `BETW_CENT` — betweenness centrality (§III-3).
//!
//! CRONO's formulation: first compute all-pairs shortest paths (the same
//! vertex-capture matrix-Dijkstra phase as [`crate::apsp`]), "then a
//! barrier is applied, and finally a loop executes to compute the
//! centralities of each vertex. The final loop is statically divided
//! amongst threads, with each thread reading shortest path values and
//! updating the centralities via atomic locks."
//!
//! The centrality of `v` here is the number of ordered pairs `(s, t)`
//! (`s ≠ v ≠ t`) that have *some* shortest path through `v`, detected by
//! the distance identity `dist(s,v) + dist(v,t) == dist(s,t)` — the
//! direct parallelization of the paper's description. (Brandes'
//! fractional definition differs; the test-suite checks this one against
//! a brute-force oracle.)
//!
//! The `task_steal` ablation ([`parallel_steal`]) changes only how the
//! sources and vertices are dealt out, so both variants count the pairs
//! through a vertex with one function.

use crate::apsp::{capture_sources, dijkstra_row, STEAL_SEED, UNREACHABLE};
use crate::graph_view::chunk;
use crate::{costs, AlgoOutcome};
use crono_graph::AdjacencyMatrix;
use crono_runtime::{
    Machine, ReadArray, RunError, RunOptions, SharedU32s, SharedU64s, TaskPool, ThreadCtx,
};

/// Result of a betweenness-centrality run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BetweennessOutput {
    /// `centrality[v]` = ordered `(s, t)` pairs with a shortest path
    /// through `v`.
    pub centrality: Vec<u64>,
    /// The APSP distance matrix computed in phase 1 (row-major).
    pub dist: Vec<u32>,
}

/// Parallel betweenness centrality: vertex capture (phase 1) + statically
/// divided outer loop (phase 2), separated by a barrier (Table I).
///
/// # Panics
///
/// Panics if the matrix has more than 16,384 vertices.
pub fn parallel<M: Machine>(
    machine: &M,
    matrix: &AdjacencyMatrix,
) -> AlgoOutcome<BetweennessOutput> {
    match try_parallel(machine, &RunOptions::default(), matrix) {
        Ok(outcome) => outcome,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`parallel`]: the serving engine's asymmetric-snapshot
/// fallback, where a faulted machine must surface as a [`RunError`]
/// rather than unwind the batch.
///
/// # Errors
///
/// Whatever [`Machine::try_run_with`] reports: a worker panic, the
/// watchdog timeout, or an unroutable mesh.
///
/// # Panics
///
/// Panics if the matrix has more than 16,384 vertices.
pub fn try_parallel<M: Machine>(
    machine: &M,
    opts: &RunOptions,
    matrix: &AdjacencyMatrix,
) -> Result<AlgoOutcome<BetweennessOutput>, RunError> {
    let n = matrix.num_vertices();
    assert!(n <= 16_384, "BETW_CENT matrix capped at 16K vertices");
    let shared = ReadArray::new(matrix.as_slice());
    let dist = SharedU32s::filled(n * n, UNREACHABLE);
    let counter = SharedU64s::new(1);
    let centrality = SharedU64s::new(n);

    let outcome = machine.try_run_with(opts, |ctx| {
        // Phase 1: APSP by vertex capture.
        capture_sources(ctx, &shared, n, &counter, &dist);
        ctx.barrier();
        // Phase 2: centrality loop, statically divided. This is the
        // terminal activity spike visible in Fig. 2.
        let tid = ctx.thread_id();
        let nthreads = ctx.num_threads();
        for v in chunk(n, tid, nthreads) {
            if ctx.cancelled() {
                break;
            }
            ctx.record_active(1);
            credit_pairs_through(ctx, &dist, &centrality, n, v);
        }
    })?;
    Ok(AlgoOutcome {
        output: BetweennessOutput {
            centrality: centrality.to_vec(),
            dist: dist.to_vec(),
        },
        report: outcome.report,
    })
}

/// Parallel betweenness centrality with both phases as stealable tasks
/// ([`Ablation::TaskSteal`](crate::Ablation::TaskSteal)).
///
/// Phase 1 replaces the shared capture counter with per-thread deques of
/// source vertices (as in [`crate::apsp::parallel_steal`]); phase 2
/// replaces the static `chunk` split with stealable per-vertex
/// centrality tasks, so a thread whose chunk would have held the
/// expensive high-degree vertices no longer straggles while the rest
/// idle at the barrier. Both phases write disjoint locations per task
/// (row `s` of `dist`; `centrality[v]` is added exactly once), so the
/// output is schedule-independent and identical to [`parallel`].
///
/// # Panics
///
/// Panics if the matrix has more than 16,384 vertices.
pub fn parallel_steal<M: Machine>(
    machine: &M,
    matrix: &AdjacencyMatrix,
) -> AlgoOutcome<BetweennessOutput> {
    let n = matrix.num_vertices();
    assert!(n <= 16_384, "BETW_CENT matrix capped at 16K vertices");
    let threads = machine.num_threads();
    let shared = ReadArray::new(matrix.as_slice());
    let dist = SharedU32s::filled(n * n, UNREACHABLE);
    let centrality = SharedU64s::new(n);
    let sources = TaskPool::new(threads, n / threads + 1, STEAL_SEED);
    let vertices = TaskPool::new(threads, n / threads + 1, STEAL_SEED ^ 1);
    for v in 0..n {
        let pushed =
            sources.push_plain(v % threads, v as u64) && vertices.push_plain(v % threads, v as u64);
        debug_assert!(pushed, "deques are sized for all vertices");
    }

    let outcome = machine.run(|ctx| {
        // Phase 1: APSP rows as stealable tasks.
        while !ctx.cancelled() {
            let Some(s) = sources.take_fixed(ctx) else {
                break;
            };
            ctx.record_active(1);
            dijkstra_row(ctx, &shared, n, s as usize, &dist);
        }
        ctx.barrier();
        // Phase 2: per-vertex centrality tasks (dynamic, not chunked).
        while !ctx.cancelled() {
            let Some(v) = vertices.take_fixed(ctx) else {
                break;
            };
            ctx.record_active(1);
            credit_pairs_through(ctx, &dist, &centrality, n, v as usize);
        }
    });
    AlgoOutcome {
        output: BetweennessOutput {
            centrality: centrality.to_vec(),
            dist: dist.to_vec(),
        },
        report: outcome.report,
    }
}

/// Phase 2's task for vertex `v`, shared by [`try_parallel`] and
/// [`parallel_steal`]: counts the ordered pairs `(s, t)` with a shortest
/// path through `v` and adds them to `centrality[v]`.
fn credit_pairs_through<C: ThreadCtx>(
    ctx: &mut C,
    dist: &SharedU32s,
    centrality: &SharedU64s,
    n: usize,
    v: usize,
) {
    let mut count = 0u64;
    for s in 0..n {
        if s == v {
            continue;
        }
        let sv = dist.get(ctx, s * n + v);
        if sv == UNREACHABLE {
            continue;
        }
        for t in 0..n {
            ctx.compute(costs::MIN_SCAN);
            if t == v || t == s {
                continue;
            }
            let vt = dist.get(ctx, v * n + t);
            if vt == UNREACHABLE {
                continue;
            }
            if sv + vt == dist.get(ctx, s * n + t) {
                count += 1;
            }
        }
    }
    if count > 0 {
        // "updating the centralities via atomic locks"
        centrality.fetch_add(ctx, v, count);
    }
}

/// Result of a [`parallel_pipelined`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelinedBetweenness {
    /// `centrality[v]` = ordered `(s, t)` pairs with a shortest path
    /// through `v` (identical to [`BetweennessOutput::centrality`]).
    pub centrality: Vec<u64>,
    /// The APSP distance matrix (row-major).
    pub dist: Vec<u32>,
    /// Deterministic instruction total of the useful work (APSP rows,
    /// pair votes, and pair scans), independent of how the deques
    /// interleaved it. The serving engine charges this as the snapshot
    /// build cost; raw per-thread reports also include
    /// schedule-dependent steal probes, so they are not byte-stable.
    pub work: u64,
}

/// Betweenness centrality with the backward (dependency-accumulation)
/// phase *pipelined* against the forward APSP phase through the deques —
/// no barrier between them (closes the PR-5 item).
///
/// Restricted to **symmetric** matrices, where vertex `v` is interior to
/// the pair `{s, t}` iff `d(s,v) + d(t,v) == d(s,t)` — an identity that
/// needs only rows `s` and `t`. Each pool task computes one APSP row and
/// then votes on every pair it belongs to with a per-pair arrival
/// counter: `fetch_add` returning 1 means the other endpoint's row is
/// already done (the RMW's release sequence publishes it), so the
/// *second* arrival accumulates the pair inline — exactly once, while
/// other rows are still being computed. Each unordered hit contributes 2
/// (both orders), so the centralities equal [`parallel`]'s.
///
/// # Panics
///
/// Panics if the matrix has more than 16,384 vertices or is not
/// symmetric.
pub fn parallel_pipelined<M: Machine>(
    machine: &M,
    matrix: &AdjacencyMatrix,
) -> AlgoOutcome<PipelinedBetweenness> {
    match try_parallel_pipelined(machine, &RunOptions::default(), matrix) {
        Ok(outcome) => outcome,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`parallel_pipelined`]: the serving engine builds the
/// centrality snapshot through this so a faulted or hung machine
/// surfaces as a [`RunError`] (cancelling the consuming queries)
/// instead of unwinding the whole batch.
///
/// # Errors
///
/// Whatever [`Machine::try_run_with`] reports: a worker panic, the
/// watchdog timeout, or an unroutable mesh.
///
/// # Panics
///
/// Panics if the matrix has more than 16,384 vertices or is not
/// symmetric.
pub fn try_parallel_pipelined<M: Machine>(
    machine: &M,
    opts: &RunOptions,
    matrix: &AdjacencyMatrix,
) -> Result<AlgoOutcome<PipelinedBetweenness>, RunError> {
    let n = matrix.num_vertices();
    assert!(n <= 16_384, "BETW_CENT matrix capped at 16K vertices");
    for s in 0..n as u32 {
        for t in 0..s {
            assert!(
                matrix.get(s, t) == matrix.get(t, s),
                "pipelined betweenness needs a symmetric matrix"
            );
        }
    }
    let threads = machine.num_threads();
    let shared = ReadArray::new(matrix.as_slice());
    let dist = SharedU32s::filled(n * n, UNREACHABLE);
    let centrality = SharedU64s::new(n);
    // One arrival counter per unordered pair {lo, hi}, triangular-packed.
    let pair_votes = SharedU32s::new(n * n.saturating_sub(1) / 2);
    let rows = TaskPool::new(threads, n / threads + 1, STEAL_SEED);
    for s in 0..n {
        let pushed = rows.push_plain(s % threads, s as u64);
        debug_assert!(pushed, "deques are sized for all rows");
    }

    let outcome = machine.try_run_with(opts, |ctx| {
        let mut work = 0u64;
        while !ctx.cancelled() {
            let Some(s) = rows.take_fixed(ctx) else { break };
            let s = s as usize;
            ctx.record_active(1);
            let t0 = ctx.instructions();
            dijkstra_row(ctx, &shared, n, s, &dist);
            // Vote on every pair this row completes. The second arrival
            // owns the pair: its `fetch_add` observes the first, so both
            // rows are published and the scan can run immediately —
            // pipelined against the rows still in the deques.
            for y in 0..n {
                if y == s {
                    continue;
                }
                let (lo, hi) = (s.min(y), s.max(y));
                if pair_votes.fetch_add(ctx, hi * (hi - 1) / 2 + lo, 1) != 1 {
                    continue;
                }
                let c = dist.get(ctx, s * n + y);
                if c == UNREACHABLE {
                    continue;
                }
                for v in 0..n {
                    ctx.compute(costs::MIN_SCAN);
                    if v == s || v == y {
                        continue;
                    }
                    let a = dist.get(ctx, s * n + v);
                    if a == UNREACHABLE {
                        continue;
                    }
                    let b = dist.get(ctx, y * n + v);
                    if b == UNREACHABLE {
                        continue;
                    }
                    if a + b == c {
                        // Interior to both (s,y) and (y,s).
                        centrality.fetch_add(ctx, v, 2);
                    }
                }
            }
            work += ctx.instructions() - t0;
        }
        work
    })?;
    Ok(AlgoOutcome {
        output: PipelinedBetweenness {
            centrality: centrality.to_vec(),
            dist: dist.to_vec(),
            work: outcome.per_thread.iter().sum(),
        },
        report: outcome.report,
    })
}

/// Sequential reference (one thread).
///
/// # Panics
///
/// Panics if `machine.num_threads() != 1`.
pub fn sequential<M: Machine>(
    machine: &M,
    matrix: &AdjacencyMatrix,
) -> AlgoOutcome<BetweennessOutput> {
    assert_eq!(
        machine.num_threads(),
        1,
        "sequential reference needs 1 thread"
    );
    parallel(machine, matrix)
}

/// Brute-force oracle from a Floyd–Warshall matrix (not tracked).
pub fn reference(matrix: &AdjacencyMatrix) -> Vec<u64> {
    let n = matrix.num_vertices();
    let d = crate::apsp::floyd_warshall(matrix);
    let mut centrality = vec![0u64; n];
    for (v, c) in centrality.iter_mut().enumerate() {
        for s in 0..n {
            for t in 0..n {
                if s == v || t == v || s == t {
                    continue;
                }
                if d[s * n + v] != UNREACHABLE
                    && d[v * n + t] != UNREACHABLE
                    && d[s * n + v] + d[v * n + t] == d[s * n + t]
                {
                    *c += 1;
                }
            }
        }
    }
    centrality
}

#[cfg(test)]
mod tests {
    use super::*;
    use crono_graph::gen::uniform_random;
    use crono_runtime::NativeMachine;

    #[test]
    fn matches_brute_force() {
        let m = AdjacencyMatrix::from_csr(&uniform_random(32, 90, 7, 4));
        let out = parallel(&NativeMachine::new(4), &m);
        assert_eq!(out.output.centrality, reference(&m));
    }

    #[test]
    fn path_graph_center_has_max_centrality() {
        // 0 - 1 - 2 - 3 - 4: vertex 2 lies on the most pairs.
        let mut m = AdjacencyMatrix::new(5);
        for v in 0..4u32 {
            m.set(v, v + 1, 1);
            m.set(v + 1, v, 1);
        }
        let out = parallel(&NativeMachine::new(2), &m);
        let c = &out.output.centrality;
        assert_eq!(c[2], *c.iter().max().unwrap());
        assert_eq!(c[0], 0, "endpoints are never interior");
        // 1 is interior to (0,2), (0,3), (0,4) and reverses: 6 pairs.
        assert_eq!(c[1], 6);
    }

    #[test]
    fn star_graph_hub_dominates() {
        let mut m = AdjacencyMatrix::new(6);
        for leaf in 1..6u32 {
            m.set(0, leaf, 1);
            m.set(leaf, 0, 1);
        }
        let out = parallel(&NativeMachine::new(3), &m);
        // Hub is interior to all 5*4 = 20 ordered leaf pairs.
        assert_eq!(out.output.centrality[0], 20);
        assert!(out.output.centrality[1..].iter().all(|&c| c == 0));
    }

    #[test]
    fn steal_variant_matches_default_at_every_thread_count() {
        let m = AdjacencyMatrix::from_csr(&uniform_random(32, 90, 7, 6));
        let expect = reference(&m);
        for threads in [1, 2, 4, 8] {
            let out = parallel_steal(&NativeMachine::new(threads), &m);
            assert_eq!(out.output.centrality, expect, "threads={threads}");
        }
    }

    #[test]
    fn thread_count_invariant() {
        let m = AdjacencyMatrix::from_csr(&uniform_random(24, 60, 5, 9));
        let a = parallel(&NativeMachine::new(1), &m);
        let b = parallel(&NativeMachine::new(8), &m);
        assert_eq!(a.output.centrality, b.output.centrality);
        assert_eq!(a.output.dist, b.output.dist);
    }

    #[test]
    fn pipelined_matches_reference_at_every_thread_count() {
        // uniform_random graphs are stored symmetrically, so the
        // pairwise decomposition applies.
        let m = AdjacencyMatrix::from_csr(&uniform_random(32, 90, 7, 4));
        let expect = reference(&m);
        for threads in [1, 2, 4, 8] {
            let out = parallel_pipelined(&NativeMachine::new(threads), &m);
            assert_eq!(out.output.centrality, expect, "threads={threads}");
        }
    }

    #[test]
    fn pipelined_on_path_and_star_fixtures() {
        let mut path = AdjacencyMatrix::new(5);
        for v in 0..4u32 {
            path.set(v, v + 1, 1);
            path.set(v + 1, v, 1);
        }
        let out = parallel_pipelined(&NativeMachine::new(2), &path);
        assert_eq!(out.output.centrality, reference(&path));
        assert_eq!(out.output.centrality[1], 6);

        let mut star = AdjacencyMatrix::new(6);
        for leaf in 1..6u32 {
            star.set(0, leaf, 1);
            star.set(leaf, 0, 1);
        }
        let out = parallel_pipelined(&NativeMachine::new(3), &star);
        assert_eq!(out.output.centrality[0], 20);
        assert!(out.output.centrality[1..].iter().all(|&c| c == 0));
    }

    #[test]
    fn pipelined_work_is_schedule_independent() {
        // The useful-work total must not depend on which worker won
        // which pair, or on the machine width — it is the deterministic
        // cost the serving engine charges for a centrality snapshot.
        let m = AdjacencyMatrix::from_csr(&uniform_random(28, 80, 6, 13));
        let base = parallel_pipelined(&NativeMachine::new(1), &m).output.work;
        assert!(base > 0);
        for threads in [1, 2, 4, 8] {
            for _ in 0..2 {
                let out = parallel_pipelined(&NativeMachine::new(threads), &m);
                assert_eq!(out.output.work, base, "threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn pipelined_rejects_directed_matrices() {
        let mut m = AdjacencyMatrix::new(3);
        m.set(0, 1, 1); // no reverse edge
        parallel_pipelined(&NativeMachine::new(2), &m);
    }
}
