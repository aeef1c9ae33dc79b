//! Scale-track kernels: shard-aware parallel drivers on the
//! work-stealing [`TaskPool`].
//!
//! Everything here is written against [`AdjacencyView`], so the same
//! code runs on the flat [`crono_graph::CsrGraph`] and the varint
//! [`crono_graph::CompressedCsr`]. The tests check every driver against
//! the suite's own sequential reference ([`crate::bfs::run_seq`],
//! [`crate::sssp::run_seq`], [`crate::pagerank::reference`]) through
//! both. The sharded drivers execute one
//! [`crono_graph::shard::ShardedGraph`] with an owner-computes update
//! discipline:
//!
//! * **Scan phase** — one task per edge shard walks its slice of the
//!   frontier's adjacency and deposits candidate updates into
//!   per-`(shard, destination-block)` *inbox lanes*. Each lane has
//!   exactly one writer (its shard's task), so lane contents are
//!   deterministic regardless of which thread stole the task.
//! * **Claim phase** — one task per vertex block owns all state writes
//!   for its vertices, draining its lanes in fixed shard order.
//!
//! BFS claims are order-independent, SSSP claims are a commutative
//! `min`, and PageRank pulls partial sums in ascending shard order —
//! so results are bit-identical across shard counts (for PageRank,
//! under [`Placement::Block`], which preserves the global neighbor
//! order; see [`sharded_pagerank`]). BFS and SSSP share one scan/claim
//! body; a private `Relax` trait holds what differs between them.
//!
//! Per-shard cost is attributed by deltas of
//! [`ThreadCtx::instructions`] around each task body: the body charges
//! the same modeled operations wherever it runs, so per-shard cycle
//! counts — and the MTEPS derived from them at the suite's 1 GHz
//! convention — are deterministic on the *native* backend too, unlike
//! wall-clock. Work-stealing retry backoff is deliberately excluded
//! from the attribution (it is scheduling-dependent).
//!
//! [`Placement::Block`]: crono_graph::shard::Placement::Block

use crate::{bfs, costs, sssp};
use crono_graph::shard::ShardedGraph;
use crono_graph::{AdjacencyView, VertexId, Weight};
use crono_runtime::{
    Machine, Mutex, ReadArray, RunReport, SharedF64s, SharedU32s, SharedU64s, TaskPool, ThreadCtx,
};

/// PageRank damping, matching [`crate::pagerank`]: `0.15 + 0.85 * sum`.
const DAMPING: f64 = 0.15;

/// Steal-order seed for the scale drivers' pools.
const STEAL_SEED: u64 = 0x5CA1_E000;

/// Deterministic modeled cost of one shard across a sharded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard id (for PageRank: the source-block id).
    pub shard: usize,
    /// Edges this shard's scan tasks traversed.
    pub edges: u64,
    /// Modeled cycles attributed to this shard's task bodies.
    pub cycles: u64,
}

impl ShardStats {
    /// Millions of traversed edges per second at the suite's 1 GHz
    /// modeled clock (`edges * 1e3 / cycles`).
    pub fn mteps(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.edges as f64 * 1e3 / self.cycles as f64
        }
    }
}

/// Result of a sharded driver run.
#[derive(Debug)]
pub struct ScaleOutcome<T> {
    /// The kernel output (levels, distances, or ranks).
    pub output: T,
    /// Per-shard scan-side cost, indexed by shard (PageRank: by block).
    pub shards: Vec<ShardStats>,
    /// Modeled cycles spent in claim/apply task bodies (owner-side
    /// work not attributable to a single scanning shard).
    pub claim_cycles: u64,
    /// The backend's run report.
    pub report: RunReport,
}

impl<T> ScaleOutcome<T> {
    /// Total edges traversed across all shards.
    pub fn total_edges(&self) -> u64 {
        self.shards.iter().map(|s| s.edges).sum()
    }

    /// Total modeled cycles across scan and claim task bodies.
    pub fn total_cycles(&self) -> u64 {
        self.shards.iter().map(|s| s.cycles).sum::<u64>() + self.claim_cycles
    }

    /// Aggregate modeled MTEPS assuming the task cycles spread
    /// perfectly over `threads` cores at 1 GHz — the deterministic
    /// throughput figure `results/scale.tsv` reports.
    pub fn total_mteps(&self, threads: usize) -> f64 {
        let cycles = self.total_cycles();
        if cycles == 0 {
            0.0
        } else {
            self.total_edges() as f64 * 1e3 * threads as f64 / cycles as f64
        }
    }

    /// Assembles an outcome from per-shard edge and cycle counters.
    fn collect(
        output: T,
        edges: &SharedU64s,
        cycles: &SharedU64s,
        claim_cycles: u64,
        report: RunReport,
    ) -> Self {
        ScaleOutcome {
            output,
            shards: (0..edges.len())
                .map(|s| ShardStats {
                    shard: s,
                    edges: edges.get_plain(s),
                    cycles: cycles.get_plain(s),
                })
                .collect(),
            claim_cycles,
            report,
        }
    }
}

/// Pushes task ids `tid, tid + T, ...` below `count` to the caller's
/// own deque.
fn push_own_tasks<C: ThreadCtx>(ctx: &mut C, pool: &TaskPool, count: usize) {
    let mut k = ctx.thread_id();
    while k < count {
        let pushed = pool.push(ctx, k as u64);
        debug_assert!(pushed, "scale pools are sized to hold every task");
        k += ctx.num_threads();
    }
}

/// Drains a pool with stealing, exponential backoff while starved.
fn drain_pool<C: ThreadCtx>(ctx: &mut C, pool: &TaskPool, mut body: impl FnMut(&mut C, usize)) {
    let mut backoff = 32u32;
    loop {
        match pool.try_take(ctx) {
            Some(task) => {
                backoff = 32;
                body(ctx, task as usize);
                pool.complete(ctx);
            }
            None => {
                if pool.pending_total(ctx) == 0 {
                    break;
                }
                // Scheduling-dependent; never counted in shard stats.
                ctx.compute(backoff);
                backoff = (backoff * 2).min(4096);
            }
        }
    }
}

/// Per-deque capacity so every task of a phase fits without overflow.
fn pool_capacity(tasks: usize, threads: usize) -> usize {
    tasks.div_ceil(threads.max(1)).max(4)
}

/// Level-synchronous sharded BFS from `source`.
///
/// Works on 1-D and 2-D partitions and either placement; output is
/// bit-identical to [`bfs::run_seq`] on the unsharded graph for every
/// combination (level claims are order-independent).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn sharded_bfs<M: Machine, G: AdjacencyView + Sync>(
    machine: &M,
    graph: &ShardedGraph<G>,
    source: VertexId,
) -> ScaleOutcome<Vec<u32>> {
    scan_claim::<Levels, M, G>(machine, graph, source)
}

/// Round-based sharded SSSP (level-synchronous Bellman–Ford) from
/// `source`. Claims are a commutative `min`, so distances are
/// bit-identical to [`sssp::run_seq`] across shard counts, partitions,
/// and placements; unreached vertices read [`sssp::UNREACHABLE`].
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn sharded_sssp<M: Machine, G: AdjacencyView + Sync>(
    machine: &M,
    graph: &ShardedGraph<G>,
    source: VertexId,
) -> ScaleOutcome<Vec<u32>> {
    scan_claim::<Distances, M, G>(machine, graph, source)
}

/// What separates sharded BFS from sharded SSSP in [`scan_claim`]. Each
/// hook charges exactly the accesses of the driver copy it replaced.
trait Relax {
    /// One candidate update in a scan-to-claim lane.
    type Update: Copy + Send;
    /// Label of a vertex no round has reached.
    const UNREACHED: u32;
    /// Steal-order seeds of the scan and claim pools.
    const SEEDS: [u64; 2];
    /// Modeled charge per lane entry claimed.
    const CLAIM_COST: u32;
    /// Whether a block sorts and dedups its claims: a vertex can
    /// improve more than once in an SSSP round, never in a BFS level.
    const DEDUP: bool;
    /// Label of frontier vertex `v` in round `round`.
    fn origin<C: ThreadCtx>(ctx: &mut C, dist: &SharedU32s, v: VertexId, round: u32) -> u32;
    /// Candidate label through an edge of weight `w` from label `dv`.
    fn through(dv: u32, w: Weight) -> u32;
    /// The lane entry for candidate label `nd` of vertex `u`.
    fn deposit(u: VertexId, nd: u32) -> Self::Update;
    /// The vertex and candidate label of a lane entry in round `round`.
    fn target(update: Self::Update, round: u32) -> (VertexId, u32);
}

/// BFS levels: lanes hold bare vertex ids (one `u32` per candidate),
/// and every candidate of round `r` is level `r + 1`.
struct Levels;

impl Relax for Levels {
    type Update = VertexId;
    const UNREACHED: u32 = bfs::UNVISITED;
    const SEEDS: [u64; 2] = [STEAL_SEED, STEAL_SEED ^ 1];
    const CLAIM_COST: u32 = costs::VISIT;
    const DEDUP: bool = false;

    /// No load: a frontier vertex of round `round` sits at that level.
    fn origin<C: ThreadCtx>(_: &mut C, _: &SharedU32s, _: VertexId, round: u32) -> u32 {
        round
    }

    fn through(dv: u32, _: Weight) -> u32 {
        dv + 1
    }

    fn deposit(u: VertexId, _: u32) -> VertexId {
        u
    }

    fn target(u: VertexId, round: u32) -> (VertexId, u32) {
        (u, round + 1)
    }
}

/// SSSP distances: lanes hold `(vertex, candidate distance)` pairs.
struct Distances;

impl Relax for Distances {
    type Update = (VertexId, u32);
    const UNREACHED: u32 = sssp::UNREACHABLE;
    const SEEDS: [u64; 2] = [STEAL_SEED ^ 2, STEAL_SEED ^ 3];
    const CLAIM_COST: u32 = costs::RELAX;
    const DEDUP: bool = true;

    /// One load of the frontier vertex's distance.
    fn origin<C: ThreadCtx>(ctx: &mut C, dist: &SharedU32s, v: VertexId, _: u32) -> u32 {
        dist.get(ctx, v as usize)
    }

    fn through(dv: u32, w: Weight) -> u32 {
        dv.saturating_add(w)
    }

    fn deposit(u: VertexId, nd: u32) -> (VertexId, u32) {
        (u, nd)
    }

    fn target(update: (VertexId, u32), _: u32) -> (VertexId, u32) {
        update
    }
}

/// The scan/claim rounds shared by [`sharded_bfs`] and [`sharded_sssp`].
/// A candidate survives the scan, and a claim lands, only when it beats
/// the target's current label. For BFS that means "unvisited": every
/// visited vertex holds a level of at most `round + 1`, the candidate's.
fn scan_claim<R: Relax, M: Machine, G: AdjacencyView + Sync>(
    machine: &M,
    graph: &ShardedGraph<G>,
    source: VertexId,
) -> ScaleOutcome<Vec<u32>> {
    let p = *graph.partition();
    let n = p.num_vertices();
    assert!((source as usize) < n, "source vertex out of range");
    let s_count = p.num_shards();
    let b_count = p.blocks();
    let threads = machine.num_threads();

    let dist = SharedU32s::filled(n, R::UNREACHED);
    dist.set_plain(source as usize, 0);
    let frontiers: Vec<Mutex<Vec<VertexId>>> = (0..b_count)
        .map(|b| {
            Mutex::new(if b == p.block_of(source) {
                vec![source]
            } else {
                Vec::new()
            })
        })
        .collect();
    let lanes: Vec<Vec<Mutex<Vec<R::Update>>>> = (0..s_count)
        .map(|_| (0..b_count).map(|_| Mutex::new(Vec::new())).collect())
        .collect();
    let scan_cycles = SharedU64s::new(s_count);
    let scan_edges = SharedU64s::new(s_count);
    let claim_cycles = SharedU64s::new(b_count);
    let next_total = SharedU64s::new(1);
    let scan_pool = TaskPool::new(threads, pool_capacity(s_count, threads), R::SEEDS[0]);
    let claim_pool = TaskPool::new(threads, pool_capacity(b_count, threads), R::SEEDS[1]);

    let outcome = machine.run(|ctx| {
        let mut round = 0u32;
        loop {
            push_own_tasks(ctx, &scan_pool, s_count);
            ctx.barrier();
            drain_pool(ctx, &scan_pool, |ctx, s| {
                let t0 = ctx.instructions();
                let frontier = frontiers[p.shard_src_block(s)].lock();
                if frontier.is_empty() {
                    return;
                }
                let shard = graph.shard(s);
                let mut local: Vec<Vec<R::Update>> = vec![Vec::new(); b_count];
                let mut edges = 0u64;
                for &v in frontier.iter() {
                    ctx.compute(costs::VISIT);
                    let dv = R::origin(ctx, &dist, v, round);
                    for (u, w) in shard.neighbors_of(v) {
                        edges += 1;
                        ctx.compute(costs::RELAX);
                        let nd = R::through(dv, w);
                        if nd < dist.get(ctx, u as usize) {
                            local[p.block_of(u)].push(R::deposit(u, nd));
                        }
                    }
                }
                drop(frontier);
                for (b, candidates) in local.into_iter().enumerate() {
                    if !candidates.is_empty() {
                        lanes[s][b].lock().extend(candidates);
                    }
                }
                let dt = ctx.instructions() - t0;
                scan_cycles.fetch_add(ctx, s, dt);
                scan_edges.fetch_add(ctx, s, edges);
            });
            ctx.barrier();

            push_own_tasks(ctx, &claim_pool, b_count);
            ctx.barrier();
            drain_pool(ctx, &claim_pool, |ctx, b| {
                let t0 = ctx.instructions();
                let mut claimed = Vec::new();
                for shard_lanes in lanes.iter() {
                    let mut lane = shard_lanes[b].lock();
                    for &update in lane.iter() {
                        ctx.compute(R::CLAIM_COST);
                        let (u, nd) = R::target(update, round);
                        if nd < dist.get(ctx, u as usize) {
                            dist.set(ctx, u as usize, nd);
                            claimed.push(u);
                        }
                    }
                    lane.clear();
                }
                if R::DEDUP {
                    // Keeps the next frontier canonical.
                    claimed.sort_unstable();
                    claimed.dedup();
                }
                if !claimed.is_empty() {
                    next_total.fetch_add(ctx, 0, claimed.len() as u64);
                }
                *frontiers[b].lock() = claimed;
                let dt = ctx.instructions() - t0;
                claim_cycles.fetch_add(ctx, b, dt);
            });
            ctx.barrier();

            // Read the frontier size, then barrier BEFORE thread 0
            // resets the counter: a reset racing with slower readers
            // would let some threads observe 0 and exit early.
            let total = next_total.get(ctx, 0);
            ctx.barrier();
            if total == 0 {
                break;
            }
            if ctx.thread_id() == 0 {
                next_total.set(ctx, 0, 0);
            }
            round += 1;
            ctx.barrier();
        }
    });

    ScaleOutcome::collect(
        (0..n).map(|v| dist.get_plain(v)).collect(),
        &scan_edges,
        &scan_cycles,
        (0..b_count).map(|b| claim_cycles.get_plain(b)).sum(),
        outcome.report,
    )
}

/// Pull-model sharded PageRank, `iterations` fixed sweeps.
///
/// **The graph must be symmetric.** Each vertex pulls over its own
/// adjacency list, its out-neighbors; that is PageRank's in-neighbor
/// sum only when every edge is mirrored. On a directed graph the ranks
/// are not PageRank. `crono scale` builds a directed graph unless
/// `--mirror` is given, so there its rows measure the sweep's cost only.
///
/// Each source block is one task that pulls its row's shards in
/// ascending shard order; under [`Placement::Block`] that sums every
/// vertex's neighbors in the same global ascending order as
/// [`crate::pagerank::reference`] on a symmetric graph, so ranks are
/// bit-identical to it across shard counts and partitions. Under
/// [`Placement::Hashed`] the summation order
/// changes and ranks agree only to floating-point reassociation — the
/// hashed variant exists for the sim locality comparison, not for
/// golden-gated output.
///
/// `ShardStats.shard` is the *source block* id here (for 1-D, block id
/// and shard id coincide).
///
/// [`Placement::Block`]: crono_graph::shard::Placement::Block
/// [`Placement::Hashed`]: crono_graph::shard::Placement::Hashed
pub fn sharded_pagerank<M: Machine, G: AdjacencyView + Sync>(
    machine: &M,
    graph: &ShardedGraph<G>,
    iterations: usize,
) -> ScaleOutcome<Vec<f64>> {
    let p = *graph.partition();
    let n = p.num_vertices();
    let b_count = p.blocks();
    let threads = machine.num_threads();

    // Global degrees: each vertex's full adjacency lives in its source
    // block's row of shards.
    let mut degrees = vec![0u32; n];
    let members: Vec<Vec<VertexId>> = (0..b_count).map(|b| p.block_members(b)).collect();
    let row_shards: Vec<Vec<usize>> = (0..b_count)
        .map(|b| {
            if p.is_two_d() {
                (0..b_count).map(|j| b * b_count + j).collect()
            } else {
                vec![b]
            }
        })
        .collect();
    for b in 0..b_count {
        for &s in &row_shards[b] {
            let shard = graph.shard(s);
            for &v in &members[b] {
                degrees[v as usize] += shard.degree(v) as u32;
            }
        }
    }
    let degree_arr = ReadArray::new(&degrees);

    let ranks = SharedF64s::filled(n, 1.0 / n.max(1) as f64);
    let contrib = SharedF64s::filled(n, 0.0);
    let block_cycles = SharedU64s::new(b_count);
    let block_edges = SharedU64s::new(b_count);
    let contrib_pool = TaskPool::new(threads, pool_capacity(b_count, threads), STEAL_SEED ^ 4);
    let pull_pool = TaskPool::new(threads, pool_capacity(b_count, threads), STEAL_SEED ^ 5);

    let outcome = machine.run(|ctx| {
        for _ in 0..iterations {
            push_own_tasks(ctx, &contrib_pool, b_count);
            ctx.barrier();
            drain_pool(ctx, &contrib_pool, |ctx, b| {
                let t0 = ctx.instructions();
                for &v in &members[b] {
                    ctx.compute(costs::RANK_UPDATE);
                    let deg = degree_arr.get(ctx, v as usize);
                    let c = if deg > 0 {
                        ranks.get(ctx, v as usize) / deg as f64
                    } else {
                        0.0
                    };
                    contrib.set(ctx, v as usize, c);
                }
                let dt = ctx.instructions() - t0;
                block_cycles.fetch_add(ctx, b, dt);
            });
            ctx.barrier();

            push_own_tasks(ctx, &pull_pool, b_count);
            ctx.barrier();
            drain_pool(ctx, &pull_pool, |ctx, b| {
                let t0 = ctx.instructions();
                let mut edges = 0u64;
                for &v in &members[b] {
                    let mut sum = 0.0f64;
                    for &s in &row_shards[b] {
                        for (u, _) in graph.shard(s).neighbors_of(v) {
                            edges += 1;
                            ctx.compute(costs::RANK_UPDATE);
                            sum += contrib.get(ctx, u as usize);
                        }
                    }
                    ranks.set(ctx, v as usize, DAMPING + (1.0 - DAMPING) * sum);
                }
                let dt = ctx.instructions() - t0;
                block_cycles.fetch_add(ctx, b, dt);
                block_edges.fetch_add(ctx, b, edges);
            });
            ctx.barrier();
        }
    });

    ScaleOutcome::collect(
        (0..n).map(|v| ranks.get_plain(v)).collect(),
        &block_edges,
        &block_cycles,
        0,
        outcome.report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank;
    use crono_graph::gen::{rmat, RmatParams};
    use crono_graph::shard::Partition;
    use crono_graph::CsrGraph;
    use crono_runtime::NativeMachine;

    fn graph() -> CsrGraph {
        rmat(7, 256, 8, RmatParams::default(), 42)
    }

    #[test]
    fn sharded_bfs_matches_reference() {
        let g = graph();
        let n = g.num_vertices();
        let reference = bfs::sequential(&NativeMachine::new(1), &g, 0).output.level;
        let machine = NativeMachine::new(4);
        for blocks in [1, 2, 4, 7] {
            let sharded =
                ShardedGraph::<CsrGraph>::from_csr(&g, Partition::one_d(n, blocks)).unwrap();
            let out = sharded_bfs(&machine, &sharded, 0);
            assert_eq!(out.output, reference, "1-D blocks={blocks}");
            assert!(out.total_edges() > 0);
        }
        let sharded = ShardedGraph::<CsrGraph>::from_csr(&g, Partition::two_d(n, 3)).unwrap();
        assert_eq!(sharded_bfs(&machine, &sharded, 0).output, reference, "2-D");
    }

    #[test]
    fn sharded_sssp_matches_dijkstra() {
        let g = graph();
        let n = g.num_vertices();
        let reference = sssp::sequential(&NativeMachine::new(1), &g, 0).output.dist;
        let machine = NativeMachine::new(4);
        for blocks in [1, 4] {
            let sharded =
                ShardedGraph::<CsrGraph>::from_csr(&g, Partition::one_d(n, blocks)).unwrap();
            assert_eq!(sharded_sssp(&machine, &sharded, 0).output, reference);
        }
    }

    #[test]
    fn sharded_pagerank_is_bit_identical_to_pull_reference() {
        let g = graph();
        let n = g.num_vertices();
        let reference = pagerank::reference(&g, 5);
        let machine = NativeMachine::new(4);
        for partition in [
            Partition::one_d(n, 1),
            Partition::one_d(n, 4),
            Partition::two_d(n, 2),
        ] {
            let sharded = ShardedGraph::<CsrGraph>::from_csr(&g, partition).unwrap();
            let out = sharded_pagerank(&machine, &sharded, 5);
            // Bitwise equality, not tolerance: same f64 operation order.
            assert!(out
                .output
                .iter()
                .zip(&reference)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
