//! `BFS` — breadth-first search (§III-4).
//!
//! Level-synchronous traversal with CRONO's *graph division* strategy:
//! each level's frontier is statically divided amongst threads, vertices
//! claim their neighbors with an atomic test-and-set (the paper's "vertex
//! capture ... via atomic locks"), and "a barrier is required ... to hop
//! to the next vertex in each iteration".

use crate::frontier::Frontier;
use crate::graph_view::{chunk, SharedGraph};
use crate::{costs, AlgoOutcome};
use crono_graph::{CsrGraph, VertexId};
use crono_runtime::{
    LockSet, Machine, SharedBitmap, SharedFlags, SharedU32s, SharedU64s, SlidingQueue, ThreadCtx,
    TrackedVec,
};
use std::collections::VecDeque;

/// Level assigned to vertices the search never reaches.
pub const UNVISITED: u32 = u32::MAX;

/// Result of a BFS run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsOutput {
    /// `level[v]` = hop distance from the source ([`UNVISITED`] if
    /// unreached).
    pub level: Vec<u32>,
    /// Number of vertices reached (including the source).
    pub reachable: usize,
    /// Number of levels traversed (graph eccentricity of the source + 1).
    pub levels: u32,
}

/// Sequential queue BFS, reported through `ctx`.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn run_seq<C: ThreadCtx>(ctx: &mut C, graph: &SharedGraph<'_>, source: VertexId) -> Vec<u32> {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source vertex out of range");
    let mut level = TrackedVec::filled(n, UNVISITED);
    level.set(ctx, source as usize, 0);
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        // Uncharged poll: lets a cancelled (or over-budget, see
        // `crono_runtime::BudgetCtx`) query drain out early without
        // changing what a completed run charges.
        if ctx.cancelled() {
            break;
        }
        ctx.compute(costs::VISIT);
        ctx.record_active(queue.len() as u64 + 1);
        let lv = level.get(ctx, v as usize);
        for e in graph.edge_range(ctx, v) {
            let u = graph.neighbor(ctx, e);
            if level.get(ctx, u as usize) == UNVISITED {
                level.set(ctx, u as usize, lv + 1);
                queue.push_back(u);
            }
        }
    }
    level.into_vec()
}

/// Width of one multi-source batch: sources share the bit lanes of a
/// `u64` mask, so one shared graph sweep serves up to 64 searches.
pub const MULTI_WIDTH: usize = 64;

/// Multi-source BFS: runs up to [`MULTI_WIDTH`] searches in **one**
/// shared level-synchronous sweep (the MS-BFS idea: per-vertex `u64`
/// masks carry one bit lane per source, so a frontier vertex expands
/// once for every search that reaches it at the same depth).
///
/// Returns one level array per source, each **identical** to what
/// [`run_seq`] returns for that source alone — BFS hop distances are
/// schedule-independent, so batching is purely a cost optimization: the
/// offset/neighbor arrays are touched once per level instead of once per
/// level *per source*. The serving engine amortizes the sweep's modeled
/// cost evenly across the batched queries.
///
/// # Panics
///
/// Panics if `sources` is empty, longer than [`MULTI_WIDTH`], or
/// contains an out-of-range vertex.
pub fn run_multi<C: ThreadCtx>(
    ctx: &mut C,
    graph: &SharedGraph<'_>,
    sources: &[VertexId],
) -> Vec<Vec<u32>> {
    let n = graph.num_vertices();
    let k = sources.len();
    assert!(k > 0, "multi-source BFS needs at least one source");
    assert!(k <= MULTI_WIDTH, "at most {MULTI_WIDTH} sources per batch");
    for &s in sources {
        assert!((s as usize) < n, "source vertex out of range");
    }
    // `seen`/`cur`/`next` are the per-vertex lane masks; every touch is
    // charged so the sweep's modeled cost reflects the real amortization
    // (one mask word read per vertex replaces k frontier-byte reads).
    let mut seen = TrackedVec::filled(n, 0u64);
    let mut fronts = [TrackedVec::filled(n, 0u64), TrackedVec::filled(n, 0u64)];
    let mut level = vec![vec![UNVISITED; n]; k];
    for (lane, &s) in sources.iter().enumerate() {
        let bit = 1u64 << lane;
        let prev = seen.get(ctx, s as usize);
        seen.set(ctx, s as usize, prev | bit);
        let cur0 = fronts[0].get(ctx, s as usize);
        fronts[0].set(ctx, s as usize, cur0 | bit);
        level[lane][s as usize] = 0;
    }
    let mut depth = 0u32;
    loop {
        if ctx.cancelled() {
            break;
        }
        ctx.span_begin("bfs:multi_level");
        let (cur, next) = {
            let (a, b) = fronts.split_at_mut(1);
            if depth.is_multiple_of(2) {
                (&mut a[0], &mut b[0])
            } else {
                (&mut b[0], &mut a[0])
            }
        };
        let mut activated = false;
        let mut processed = 0u64;
        for v in 0..n {
            let mask = cur.get(ctx, v);
            if mask == 0 {
                continue;
            }
            cur.set(ctx, v, 0);
            processed += 1;
            ctx.compute(costs::VISIT);
            for e in graph.edge_range(ctx, v as VertexId) {
                let u = graph.neighbor(ctx, e) as usize;
                let seen_u = seen.get(ctx, u);
                let fresh = mask & !seen_u;
                if fresh != 0 {
                    seen.set(ctx, u, seen_u | fresh);
                    let next_u = next.get(ctx, u);
                    next.set(ctx, u, next_u | fresh);
                    activated = true;
                    let mut lanes = fresh;
                    while lanes != 0 {
                        let lane = lanes.trailing_zeros() as usize;
                        level[lane][u] = depth + 1;
                        lanes &= lanes - 1;
                    }
                }
            }
        }
        if processed > 0 {
            ctx.record_active(processed);
        }
        ctx.span_end("bfs:multi_level");
        if !activated {
            break;
        }
        depth += 1;
    }
    level
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
) -> AlgoOutcome<BfsOutput> {
    assert_eq!(machine.num_threads(), 1, "sequential reference needs 1 thread");
    let shared = SharedGraph::new(graph);
    let mut outcome = machine.run(|ctx| run_seq(ctx, &shared, source));
    let level = outcome.per_thread.pop().expect("one thread ran");
    AlgoOutcome {
        output: summarize(level),
        report: outcome.report,
    }
}

/// Parallel level-synchronous BFS: graph division (Table I).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn parallel<M: Machine>(
    machine: &M,
    graph: &CsrGraph,
    source: VertexId,
) -> AlgoOutcome<BfsOutput> {
    level_sync::<SharedFlags, M>(machine, graph, source)
}

/// Parallel BFS with a word-packed frontier — the `frontier_repr`
/// ablation (GAP-style bitmap).
///
/// Identical algorithm to [`parallel`] except the two frontier arrays
/// are [`SharedBitmap`]s scanned with `find_set_from`, so an empty
/// stretch of 64 vertices costs one simulated load instead of 64. The
/// byte-array scan stays the paper-faithful default; this variant
/// quantifies how much of CRONO's reported BFS synchronization/miss
/// profile is an artifact of the frontier representation.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn parallel_bitmap<M: Machine>(
    machine: &M,
    graph: &CsrGraph,
    source: VertexId,
) -> AlgoOutcome<BfsOutput> {
    level_sync::<SharedBitmap, M>(machine, graph, source)
}

/// The body of [`parallel`] and [`parallel_bitmap`], over frontier
/// representation `F`.
fn level_sync<F: Frontier, M: Machine>(
    machine: &M,
    graph: &CsrGraph,
    source: VertexId,
) -> AlgoOutcome<BfsOutput> {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source vertex out of range");
    let shared = SharedGraph::new(graph);
    let level = SharedU32s::filled(n, UNVISITED);
    level.set_plain(source as usize, 0);
    let visited = SharedFlags::new(n);
    visited.set_plain(source as usize, true);
    let fronts = [F::with_len(n), F::with_len(n)];
    fronts[0].insert_plain(source as usize);
    let activations = SharedU64s::new(3);
    let locks = LockSet::new(n.min(4096));

    let outcome = machine.run(|ctx| {
        let tid = ctx.thread_id();
        let nthreads = ctx.num_threads();
        let mut depth = 0u32;
        loop {
            if ctx.cancelled() {
                break;
            }
            ctx.span_begin("bfs:level");
            let cur = &fronts[(depth as usize) % 2];
            let next = &fronts[(depth as usize + 1) % 2];
            activations.set(ctx, (depth as usize + 2) % 3, 0);
            let mut processed = 0u64;
            let mut activated = 0u64;
            // As in the C suite, every thread scans the whole frontier
            // and claims the vertices it owns (striped graph division);
            // with byte flags the shared scan bounds BFS scaling exactly
            // as the paper measures.
            let mut pos = 0;
            while let Some(v) = cur.next_from(ctx, pos) {
                pos = v + 1;
                if v % nthreads != tid {
                    continue;
                }
                cur.remove(ctx, v);
                processed += 1;
                ctx.compute(costs::VISIT);
                for e in shared.edge_range(ctx, v as VertexId) {
                    let u = shared.neighbor(ctx, e) as usize;
                    // Vertex capture "done via atomic locks": exactly one
                    // thread claims u.
                    if !visited.get(ctx, u) {
                        ctx.lock_for(&locks, u);
                        if !visited.get(ctx, u) {
                            visited.set(ctx, u, true);
                            level.set(ctx, u, depth + 1);
                            next.insert(ctx, u);
                            activated += 1;
                        }
                        ctx.unlock_for(&locks, u);
                    }
                }
            }
            if processed > 0 {
                ctx.record_active(processed);
            }
            if activated > 0 {
                activations.fetch_add(ctx, (depth as usize + 1) % 3, activated);
            }
            ctx.barrier();
            let frontier_empty = activations.get(ctx, (depth as usize + 1) % 3) == 0;
            ctx.span_end("bfs:level");
            if frontier_empty {
                break;
            }
            depth += 1;
        }
        depth + 1
    });
    AlgoOutcome {
        output: summarize(level.to_vec()),
        report: outcome.report,
    }
}

/// Push→pull switch threshold: leave top-down when the frontier's
/// outgoing edges exceed `edges_remaining / DIROP_ALPHA` (Beamer's
/// direction-optimizing heuristic, GAP's `alpha`).
pub const DIROP_ALPHA: u64 = 15;

/// Pull→push switch threshold: return to top-down once the frontier
/// shrinks below `n / DIROP_BETA` vertices (GAP's `beta`).
pub const DIROP_BETA: u64 = 18;

/// Per-thread buffered discoveries flushed into the [`SlidingQueue`]
/// with one chunked claim.
const DIROP_CHUNK: usize = 64;

/// The traversal direction a direction-optimizing BFS level ran in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Top-down: expand the frontier's out-edges (sparse frontiers).
    Push,
    /// Bottom-up: unvisited vertices probe their in-edges for a frontier
    /// parent (dense frontiers).
    Pull,
}

/// Direction-optimizing BFS (Beamer's push/pull hybrid, the GAP
/// reference implementation) — the `dirop_bfs` ablation.
///
/// Top-down levels drain a [`SlidingQueue`] frontier: each thread takes
/// a static share of the level's window, claims neighbors with one
/// `test_and_set` on a shared `visited` [`SharedBitmap`] (no locks), and
/// publishes its discoveries with chunked queue claims. When the
/// frontier's outgoing edge count exceeds `edges_remaining /`
/// [`DIROP_ALPHA`], the level flips to bottom-up: the frontier converts
/// to a bitmap and every *unvisited* vertex scans its in-edges for an
/// already-visited parent, early-exiting on the first hit — writes
/// become owner-local (each vertex is claimed by the thread that owns
/// its chunk), which is what collapses the sharing-miss and NoC-flit
/// counters on low-diameter R-MAT graphs. Once the frontier shrinks
/// below `n /` [`DIROP_BETA`], it converts back to the queue.
///
/// Levels are hop distances — schedule-independent — so the output is
/// bit-identical to [`sequential`] regardless of direction decisions or
/// thread count. The decisions themselves depend only on aggregate
/// frontier counts, so they are a deterministic function of
/// `(graph, source)`; [`parallel_dirop_traced`] exposes them for tests.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn parallel_dirop<M: Machine>(
    machine: &M,
    graph: &CsrGraph,
    source: VertexId,
) -> AlgoOutcome<BfsOutput> {
    parallel_dirop_traced(machine, graph, source).0
}

/// [`parallel_dirop`], additionally returning the per-level direction
/// decisions (index = BFS depth of the frontier processed).
pub fn parallel_dirop_traced<M: Machine>(
    machine: &M,
    graph: &CsrGraph,
    source: VertexId,
) -> (AlgoOutcome<BfsOutput>, Vec<Direction>) {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source vertex out of range");
    let m = graph.num_directed_edges() as u64;
    let shared = SharedGraph::new(graph);
    // The in-edge graph serves the bottom-up probes. A graph certified
    // symmetric (every generator's) is its own and is borrowed; a directed
    // input is transposed, outside the timed region like all input prep.
    // Either way it gets its own symbolic regions, so the modeled counters
    // do not depend on which.
    let in_edges = graph.in_edges();
    let tshared = SharedGraph::new(&in_edges);
    let level = SharedU32s::filled(n, UNVISITED);
    level.set_plain(source as usize, 0);
    let visited = SharedBitmap::new(n);
    visited.set_plain(source as usize);
    // Every vertex enters the queue at most once (test_and_set claims
    // dedupe), so capacity n never overflows and no reset is needed:
    // the window slides monotonically, GAP-style.
    let queue = SlidingQueue::new(n);
    queue.push_plain(source);
    let pull_fronts = [SharedBitmap::new(n), SharedBitmap::new(n)];
    let activations = SharedU64s::new(3);
    let scouts = SharedU64s::new(3);
    let source_degree = graph.neighbors(source).count() as u64;

    let outcome = machine.run(|ctx| {
        let tid = ctx.thread_id();
        let nthreads = ctx.num_threads();
        let mut depth = 0u32;
        let mut mode = Direction::Push;
        let mut modes = Vec::new();
        // All of these mirror *published aggregate* counters, so every
        // thread holds identical values and makes identical decisions.
        let mut taken = 0usize;
        let mut frontier_count = 1u64;
        let mut scout_prev = source_degree;
        let mut edges_remaining = m;
        loop {
            if ctx.cancelled() {
                break;
            }
            modes.push(mode);
            let mut activated = 0u64;
            let mut scout = 0u64;
            match mode {
                Direction::Push => {
                    ctx.span_begin("bfs:push");
                    edges_remaining = edges_remaining.saturating_sub(scout_prev);
                    activations.set(ctx, (depth as usize + 2) % 3, 0);
                    scouts.set(ctx, (depth as usize + 2) % 3, 0);
                    // Every activation pushed exactly one queue entry, so
                    // the window end is `taken + frontier_count` — known
                    // from the published counter without racing threads
                    // that already push the *next* level's entries.
                    let end = taken + frontier_count as usize;
                    let mut buf: Vec<u32> = Vec::with_capacity(DIROP_CHUNK);
                    let mut processed = 0u64;
                    for k in chunk(end - taken, tid, nthreads) {
                        let v = queue.get(ctx, taken + k);
                        processed += 1;
                        ctx.compute(costs::VISIT);
                        for e in shared.edge_range(ctx, v) {
                            let u = shared.neighbor(ctx, e) as usize;
                            // Read-then-claim: the RMW only fires on
                            // plausibly-unvisited vertices.
                            if !visited.get(ctx, u) && !visited.test_and_set(ctx, u) {
                                level.set(ctx, u, depth + 1);
                                activated += 1;
                                scout += shared.degree(ctx, u as VertexId) as u64;
                                buf.push(u as u32);
                                if buf.len() == DIROP_CHUNK {
                                    queue.push_chunk(ctx, &buf);
                                    buf.clear();
                                }
                            }
                        }
                    }
                    queue.push_chunk(ctx, &buf);
                    taken = end;
                    if processed > 0 {
                        ctx.record_active(processed);
                    }
                }
                Direction::Pull => {
                    ctx.span_begin("bfs:pull");
                    activations.set(ctx, (depth as usize + 2) % 3, 0);
                    scouts.set(ctx, (depth as usize + 2) % 3, 0);
                    let cur = &pull_fronts[depth as usize % 2];
                    let next = &pull_fronts[(depth as usize + 1) % 2];
                    // Wipe the stale ping-pong bitmap (word-chunked)
                    // before anyone writes activations into it.
                    next.clear_words(ctx, chunk(next.num_words(), tid, nthreads));
                    ctx.barrier();
                    for v in chunk(n, tid, nthreads) {
                        if visited.get(ctx, v) {
                            continue;
                        }
                        ctx.compute(costs::VISIT);
                        for e in tshared.edge_range(ctx, v as VertexId) {
                            let u = tshared.neighbor(ctx, e) as usize;
                            if cur.get(ctx, u) {
                                // Owner-writes: v lives in this thread's
                                // chunk, so no other thread touches its
                                // level entry or frontier bit.
                                visited.set(ctx, v);
                                level.set(ctx, v, depth + 1);
                                next.set(ctx, v);
                                activated += 1;
                                scout += shared.degree(ctx, v as VertexId) as u64;
                                break;
                            }
                        }
                    }
                    if activated > 0 {
                        ctx.record_active(activated);
                    }
                }
            }
            if activated > 0 {
                activations.fetch_add(ctx, (depth as usize + 1) % 3, activated);
                scouts.fetch_add(ctx, (depth as usize + 1) % 3, scout);
            }
            ctx.barrier();
            frontier_count = activations.get(ctx, (depth as usize + 1) % 3);
            scout_prev = scouts.get(ctx, (depth as usize + 1) % 3);
            ctx.span_end(match mode {
                Direction::Push => "bfs:push",
                Direction::Pull => "bfs:pull",
            });
            if frontier_count == 0 {
                break;
            }
            let next_mode = match mode {
                // Beamer: go bottom-up when the frontier's out-edges
                // dominate the unexplored edges.
                Direction::Push if scout_prev > edges_remaining / DIROP_ALPHA => Direction::Pull,
                // ... and back once the frontier is sparse again.
                Direction::Pull if frontier_count < n as u64 / DIROP_BETA => Direction::Push,
                other => other,
            };
            match (mode, next_mode) {
                (Direction::Push, Direction::Pull) => {
                    // Queue window -> bitmap: wipe both ping-pong maps,
                    // then mirror the frontier into the level's `cur`.
                    let end = taken + frontier_count as usize;
                    pull_fronts[0].clear_words(
                        ctx,
                        chunk(pull_fronts[0].num_words(), tid, nthreads),
                    );
                    pull_fronts[1].clear_words(
                        ctx,
                        chunk(pull_fronts[1].num_words(), tid, nthreads),
                    );
                    ctx.barrier();
                    let cur = &pull_fronts[(depth as usize + 1) % 2];
                    for k in chunk(end - taken, tid, nthreads) {
                        let v = queue.get(ctx, taken + k);
                        cur.set(ctx, v as usize);
                    }
                    taken = end;
                    // The pull prologue's barrier orders these writes
                    // before any cross-chunk read.
                }
                (Direction::Pull, Direction::Push) => {
                    // Bitmap -> queue: collect this thread's words of the
                    // fresh frontier and publish them with chunked claims.
                    let cur = &pull_fronts[(depth as usize + 1) % 2];
                    let words = chunk(cur.num_words(), tid, nthreads);
                    let mut buf: Vec<u32> = Vec::with_capacity(DIROP_CHUNK);
                    let mut pos = words.start * 64;
                    let limit = (words.end * 64).min(n);
                    while let Some(v) = cur.find_set_from(ctx, pos) {
                        if v >= limit {
                            break;
                        }
                        pos = v + 1;
                        buf.push(v as u32);
                        if buf.len() == DIROP_CHUNK {
                            queue.push_chunk(ctx, &buf);
                            buf.clear();
                        }
                    }
                    queue.push_chunk(ctx, &buf);
                    // The next push level reads the queue tail, so every
                    // conversion push must land first.
                    ctx.barrier();
                }
                _ => {}
            }
            mode = next_mode;
            depth += 1;
        }
        modes
    });
    let modes = outcome
        .per_thread
        .first()
        .cloned()
        .unwrap_or_default();
    (
        AlgoOutcome {
            output: summarize(level.to_vec()),
            report: outcome.report,
        },
        modes,
    )
}

fn summarize(level: Vec<u32>) -> BfsOutput {
    let reachable = level.iter().filter(|&&l| l != UNVISITED).count();
    let levels = level
        .iter()
        .filter(|&&l| l != UNVISITED)
        .max()
        .map_or(0, |&m| m + 1);
    BfsOutput {
        level,
        reachable,
        levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crono_graph::gen::{road_network, uniform_random};
    use crono_runtime::NativeMachine;

    #[test]
    fn sequential_levels_are_hop_distances() {
        // Path 0-1-2-3.
        let g = CsrGraph::from_edges(
            4,
            vec![(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1), (2, 3, 1), (3, 2, 1)],
        );
        let out = sequential(&NativeMachine::new(1), &g, 0);
        assert_eq!(out.output.level, vec![0, 1, 2, 3]);
        assert_eq!(out.output.levels, 4);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = uniform_random(256, 1024, 4, 2);
        let seq = sequential(&NativeMachine::new(1), &g, 3);
        for threads in [1, 2, 4, 8] {
            let par = parallel(&NativeMachine::new(threads), &g, 3);
            assert_eq!(par.output.level, seq.output.level, "threads={threads}");
        }
    }

    #[test]
    fn road_network_full_coverage() {
        let g = road_network(16, 16, 4, 0.2, 0.0, 5);
        let out = parallel(&NativeMachine::new(4), &g, 0);
        assert_eq!(out.output.reachable, 256, "road generator is connected");
        assert!(out.output.levels > 10, "grids have high eccentricity");
    }

    #[test]
    fn unreachable_vertices_marked() {
        let g = CsrGraph::from_edges(4, vec![(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1)]);
        let out = parallel(&NativeMachine::new(2), &g, 0);
        assert_eq!(out.output.level[2], UNVISITED);
        assert_eq!(out.output.reachable, 2);
    }

    #[test]
    fn bitmap_variant_matches_sequential() {
        let g = uniform_random(256, 1024, 4, 2);
        let seq = sequential(&NativeMachine::new(1), &g, 3);
        for threads in [1, 2, 4, 8] {
            let par = parallel_bitmap(&NativeMachine::new(threads), &g, 3);
            assert_eq!(par.output.level, seq.output.level, "threads={threads}");
        }
    }

    #[test]
    fn multi_source_matches_independent_runs() {
        let g = uniform_random(256, 1024, 4, 9);
        let sources: Vec<VertexId> = vec![0, 3, 17, 42, 100, 255, 3];
        let (multi, singles) = NativeMachine::new(1)
            .run(|ctx| {
                let view = SharedGraph::new(&g);
                let multi = run_multi(ctx, &view, &sources);
                let singles: Vec<Vec<u32>> = sources
                    .iter()
                    .map(|&s| run_seq(ctx, &view, s))
                    .collect();
                (multi, singles)
            })
            .per_thread
            .pop()
            .expect("one thread");
        assert_eq!(multi, singles);
    }

    #[test]
    fn multi_source_full_width_batch() {
        let g = road_network(16, 16, 4, 0.2, 0.0, 5);
        let sources: Vec<VertexId> = (0..MULTI_WIDTH as u32 * 4).step_by(4).collect();
        assert_eq!(sources.len(), MULTI_WIDTH);
        NativeMachine::new(1).run(|ctx| {
            let view = SharedGraph::new(&g);
            let multi = run_multi(ctx, &view, &sources);
            for (lane, &s) in sources.iter().enumerate() {
                let single = run_seq(ctx, &view, s);
                assert_eq!(multi[lane], single, "lane {lane} (source {s})");
            }
        });
    }

    #[test]
    fn multi_source_amortizes_sweep_cost() {
        // The whole point of batching: k searches in one sweep must charge
        // far fewer modeled instructions than k independent sweeps.
        let g = uniform_random(512, 4096, 4, 21);
        let sources: Vec<VertexId> = (0..32).map(|i| i * 16).collect();
        NativeMachine::new(1).run(|ctx| {
            let view = SharedGraph::new(&g);
            let before = ctx.instructions();
            let _ = run_multi(ctx, &view, &sources);
            let batched = ctx.instructions() - before;
            let before = ctx.instructions();
            for &s in &sources {
                let _ = run_seq(ctx, &view, s);
            }
            let independent = ctx.instructions() - before;
            assert!(
                batched * 2 < independent,
                "batched={batched} independent={independent}"
            );
        });
    }

    #[test]
    fn dirop_matches_sequential() {
        let g = uniform_random(256, 1024, 4, 2);
        let seq = sequential(&NativeMachine::new(1), &g, 3);
        for threads in [1, 2, 4, 8] {
            let par = parallel_dirop(&NativeMachine::new(threads), &g, 3);
            assert_eq!(par.output.level, seq.output.level, "threads={threads}");
        }
    }

    #[test]
    fn dirop_direction_schedule_is_thread_count_invariant() {
        let g = uniform_random(256, 1024, 4, 2);
        let (_, base) = parallel_dirop_traced(&NativeMachine::new(1), &g, 3);
        for threads in [2, 4, 8] {
            let (_, modes) = parallel_dirop_traced(&NativeMachine::new(threads), &g, 3);
            assert_eq!(modes, base, "threads={threads}");
        }
    }

    #[test]
    fn bfs_levels_consistent_with_edges() {
        let g = uniform_random(128, 512, 4, 7);
        let out = parallel(&NativeMachine::new(4), &g, 0);
        for v in 0..128u32 {
            let lv = out.output.level[v as usize];
            if lv == UNVISITED {
                continue;
            }
            for (u, _) in g.neighbors(v) {
                let lu = out.output.level[u as usize];
                assert!(lu != UNVISITED && lu <= lv + 1 && lv <= lu + 1);
            }
        }
    }
}
