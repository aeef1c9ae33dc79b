//! `APSP` — all-pairs shortest paths (§III-2).
//!
//! As in CRONO, the input is an adjacency *matrix* (§IV-F) and
//! parallelization is by **vertex capture**: each thread atomically
//! captures a source vertex, computes that vertex's shortest paths with
//! its own private distance array, then captures another. The per-source
//! kernel is the O(n²) matrix Dijkstra (linear min-scans, no heap) the C
//! suite uses — each source scans the full n×n matrix, which is exactly
//! what thrashes the private L1s and produces APSP's high capacity miss
//! rate (Fig. 3). A Floyd–Warshall reference validates the results in the
//! test-suite.
//!
//! Work per source is fully independent, so APSP scales near-linearly
//! (204× at 256 threads in the paper).

use crate::{costs, AlgoOutcome};
use crono_graph::{AdjacencyMatrix, VertexId};
use crono_runtime::{Machine, ReadArray, SharedU32s, SharedU64s, TaskPool, ThreadCtx, TrackedVec};

/// Seed for the work-stealing variant's victim selection (fixed so two
/// runs of the same input are schedule-identical).
pub(crate) const STEAL_SEED: u64 = 0xC0_90_05;

/// Distance assigned to unreachable pairs (same sentinel as
/// [`AdjacencyMatrix::INFINITY`]).
pub const UNREACHABLE: u32 = AdjacencyMatrix::INFINITY;

/// Result of an APSP run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApspOutput {
    /// Row-major `n × n` distance matrix.
    pub dist: Vec<u32>,
    /// Number of vertices.
    pub n: usize,
}

impl ApspOutput {
    /// Distance from `s` to `t`.
    pub fn distance(&self, s: VertexId, t: VertexId) -> u32 {
        self.dist[s as usize * self.n + t as usize]
    }
}

/// One source's matrix Dijkstra: O(n²) with linear min-scans, writing the
/// finished row into the shared result matrix.
pub(crate) fn dijkstra_row<C: ThreadCtx>(
    ctx: &mut C,
    matrix: &ReadArray<'_, u32>,
    n: usize,
    source: usize,
    result: &SharedU32s,
) {
    let mut dist = TrackedVec::filled(n, UNREACHABLE);
    let mut done = TrackedVec::filled(n, false);
    dist.set(ctx, source, 0);
    for _ in 0..n {
        // Linear scan for the nearest unfinished vertex.
        let mut best = UNREACHABLE;
        let mut v = usize::MAX;
        for cand in 0..n {
            ctx.compute(costs::MIN_SCAN);
            if !done.get(ctx, cand) {
                let d = dist.get(ctx, cand);
                if d < best {
                    best = d;
                    v = cand;
                }
            }
        }
        if v == usize::MAX {
            break;
        }
        done.set(ctx, v, true);
        // Relax the full matrix row of v.
        for u in 0..n {
            ctx.compute(costs::RELAX);
            let w = matrix.get(ctx, v * n + u);
            if w != UNREACHABLE {
                let nd = best + w;
                if nd < dist.get(ctx, u) {
                    dist.set(ctx, u, nd);
                }
            }
        }
    }
    for u in 0..n {
        let d = dist.get(ctx, u);
        result.set(ctx, source * n + u, d);
    }
}

/// The shared vertex-capture loop both APSP and betweenness phase 1 use.
pub(crate) fn capture_sources<C: ThreadCtx>(
    ctx: &mut C,
    matrix: &ReadArray<'_, u32>,
    n: usize,
    counter: &SharedU64s,
    result: &SharedU32s,
) {
    loop {
        if ctx.cancelled() {
            break;
        }
        // Vertex capture: threads compete for source vertices.
        let s = counter.fetch_add(ctx, 0, 1) as usize;
        if s >= n {
            break;
        }
        ctx.record_active((n - s) as u64);
        dijkstra_row(ctx, matrix, n, s, result);
    }
}

/// Parallel APSP by vertex capture (Table I).
///
/// # Panics
///
/// Panics if the matrix has more than 16,384 vertices (the result matrix
/// would exceed 1 GiB — the paper's own APSP ceiling, Table III).
pub fn parallel<M: Machine>(machine: &M, matrix: &AdjacencyMatrix) -> AlgoOutcome<ApspOutput> {
    let n = matrix.num_vertices();
    assert!(n <= 16_384, "APSP result matrix capped at 16K vertices");
    let shared = ReadArray::new(matrix.as_slice());
    let result = SharedU32s::filled(n * n, UNREACHABLE);
    let counter = SharedU64s::new(1);
    let outcome = machine.run(|ctx| capture_sources(ctx, &shared, n, &counter, &result));
    AlgoOutcome {
        output: ApspOutput {
            dist: result.to_vec(),
            n,
        },
        report: outcome.report,
    }
}

/// Parallel APSP with sources as stealable tasks
/// ([`Ablation::TaskSteal`](crate::Ablation::TaskSteal)).
///
/// The paper-faithful [`parallel`] makes every thread hammer one shared
/// capture counter — a single cache line whose directory entry serializes
/// all 256 cores. Here the sources are dealt round-robin into per-thread
/// Chase–Lev deques before the timed region; threads drain their own
/// deque and steal (seeded victim order) only when empty, so the common
/// case touches a thread-private line and contention is spread across
/// one line per owner. Results are schedule-independent (each source's
/// row is written exactly once), so the output is identical to
/// [`parallel`].
///
/// # Panics
///
/// Same conditions as [`parallel`].
pub fn parallel_steal<M: Machine>(
    machine: &M,
    matrix: &AdjacencyMatrix,
) -> AlgoOutcome<ApspOutput> {
    let n = matrix.num_vertices();
    assert!(n <= 16_384, "APSP result matrix capped at 16K vertices");
    let threads = machine.num_threads();
    let shared = ReadArray::new(matrix.as_slice());
    let result = SharedU32s::filled(n * n, UNREACHABLE);
    let pool = TaskPool::new(threads, n / threads + 1, STEAL_SEED);
    for s in 0..n {
        let pushed = pool.push_plain(s % threads, s as u64);
        debug_assert!(pushed, "deques are sized for all sources");
    }
    let outcome = machine.run(|ctx| {
        while !ctx.cancelled() {
            let Some(s) = pool.take_fixed(ctx) else { break };
            ctx.record_active(1);
            dijkstra_row(ctx, &shared, n, s as usize, &result);
        }
    });
    AlgoOutcome {
        output: ApspOutput {
            dist: result.to_vec(),
            n,
        },
        report: outcome.report,
    }
}

/// Sequential reference (one thread captures every vertex).
///
/// # Panics
///
/// Panics if `machine.num_threads() != 1`.
pub fn sequential<M: Machine>(machine: &M, matrix: &AdjacencyMatrix) -> AlgoOutcome<ApspOutput> {
    assert_eq!(
        machine.num_threads(),
        1,
        "sequential reference needs 1 thread"
    );
    parallel(machine, matrix)
}

/// Floyd–Warshall oracle used by the tests (not context-tracked).
pub fn floyd_warshall(matrix: &AdjacencyMatrix) -> Vec<u32> {
    let n = matrix.num_vertices();
    let mut d = matrix.as_slice().to_vec();
    for k in 0..n {
        for i in 0..n {
            let dik = d[i * n + k];
            if dik == UNREACHABLE {
                continue;
            }
            for j in 0..n {
                let cand = dik + d[k * n + j];
                if cand < d[i * n + j] {
                    d[i * n + j] = cand;
                }
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crono_graph::gen::uniform_random;
    use crono_runtime::NativeMachine;

    fn small_matrix(seed: u64) -> AdjacencyMatrix {
        AdjacencyMatrix::from_csr(&uniform_random(48, 140, 9, seed))
    }

    #[test]
    fn matches_floyd_warshall() {
        let m = small_matrix(3);
        let out = parallel(&NativeMachine::new(4), &m);
        assert_eq!(out.output.dist, floyd_warshall(&m));
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let m = small_matrix(8);
        let one = parallel(&NativeMachine::new(1), &m);
        let eight = parallel(&NativeMachine::new(8), &m);
        assert_eq!(one.output.dist, eight.output.dist);
    }

    #[test]
    fn diagonal_is_zero() {
        let m = small_matrix(5);
        let out = parallel(&NativeMachine::new(2), &m);
        for v in 0..48 {
            assert_eq!(out.output.distance(v, v), 0);
        }
    }

    #[test]
    fn symmetric_input_gives_symmetric_distances() {
        let m = small_matrix(7);
        let out = parallel(&NativeMachine::new(4), &m);
        for s in 0..48 {
            for t in 0..48 {
                assert_eq!(out.output.distance(s, t), out.output.distance(t, s));
            }
        }
    }

    #[test]
    fn steal_variant_matches_default_at_every_thread_count() {
        let m = small_matrix(11);
        let expect = floyd_warshall(&m);
        for threads in [1, 2, 4, 8] {
            let out = parallel_steal(&NativeMachine::new(threads), &m);
            assert_eq!(out.output.dist, expect, "threads={threads}");
        }
    }

    #[test]
    fn directed_asymmetric_graph() {
        let mut m = AdjacencyMatrix::new(3);
        m.set(0, 1, 5);
        m.set(1, 2, 5);
        let out = parallel(&NativeMachine::new(2), &m);
        assert_eq!(out.output.distance(0, 2), 10);
        assert_eq!(out.output.distance(2, 0), UNREACHABLE);
    }
}
