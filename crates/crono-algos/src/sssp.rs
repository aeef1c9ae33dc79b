//! `SSSP_DIJK` — single-source shortest paths (§III-1).
//!
//! The sequential reference is Dijkstra's algorithm with a binary heap.
//! The parallel version uses CRONO's *graph division* strategy over
//! dynamically opened **pareto fronts**: each round, the current frontier
//! is statically divided amongst threads; relaxations update the shared
//! distance array under per-vertex (striped) atomic locks, activating the
//! next front; a barrier ends the round. Road-network-style graphs with
//! few neighbors per vertex make this outer-loop parallelization
//! effective (§III-1), but the lock traffic and barriers bound its
//! scaling — the paper measures only 4.45× at 256 threads.

use crate::frontier::Frontier;
use crate::graph_view::{chunk, SharedGraph};
use crate::{costs, AlgoOutcome};
use crono_graph::{CsrGraph, VertexId};
use crono_runtime::{
    LockSet, Machine, SharedBitmap, SharedFlags, SharedU32s, SharedU64s, SlidingQueue, ThreadCtx,
    TrackedVec,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Distance assigned to unreachable vertices. Chosen so one edge-weight
/// addition cannot overflow `u32`.
pub const UNREACHABLE: u32 = u32::MAX / 4;

/// Result of an SSSP run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsspOutput {
    /// `dist[v]` = weight of the shortest path from the source to `v`
    /// ([`UNREACHABLE`] if none).
    pub dist: Vec<u32>,
    /// Rounds (pareto fronts) the parallel algorithm processed; 1 for the
    /// sequential reference.
    pub rounds: u32,
}

/// Sequential Dijkstra with a binary heap, reported through `ctx`.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn run_seq<C: ThreadCtx>(ctx: &mut C, graph: &SharedGraph<'_>, source: VertexId) -> Vec<u32> {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source vertex out of range");
    let mut dist = TrackedVec::filled(n, UNREACHABLE);
    let mut done = TrackedVec::filled(n, false);
    dist.set(ctx, source as usize, 0);
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0u32, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        // Uncharged poll: lets a cancelled (or over-budget, see
        // `crono_runtime::BudgetCtx`) query drain out early without
        // changing what a completed run charges.
        if ctx.cancelled() {
            break;
        }
        ctx.compute(costs::HEAP_OP);
        if done.get(ctx, v as usize) {
            continue;
        }
        done.set(ctx, v as usize, true);
        ctx.record_active(heap.len() as u64 + 1);
        for e in graph.edge_range(ctx, v) {
            let (u, w) = graph.edge(ctx, e);
            ctx.compute(costs::RELAX);
            let nd = d + w;
            if nd < dist.get(ctx, u as usize) {
                dist.set(ctx, u as usize, nd);
                ctx.compute(costs::HEAP_OP);
                heap.push(Reverse((nd, u)));
            }
        }
    }
    dist.into_vec()
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
) -> AlgoOutcome<SsspOutput> {
    assert_eq!(
        machine.num_threads(),
        1,
        "sequential reference needs a one-thread machine"
    );
    let shared = SharedGraph::new(graph);
    let mut outcome = machine.run(|ctx| run_seq(ctx, &shared, source));
    AlgoOutcome {
        output: SsspOutput {
            dist: outcome.per_thread.pop().expect("one thread ran"),
            rounds: 1,
        },
        report: outcome.report,
    }
}

/// Parallel SSSP: graph division over pareto fronts (Table I).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn parallel<M: Machine>(
    machine: &M,
    graph: &CsrGraph,
    source: VertexId,
) -> AlgoOutcome<SsspOutput> {
    pareto_fronts::<SharedFlags, M>(machine, graph, source)
}

/// Parallel SSSP with a word-packed frontier — the `frontier_repr`
/// ablation (GAP-style bitmap).
///
/// Identical relaxation algorithm to [`parallel`], but both pareto-front
/// arrays are [`SharedBitmap`]s: the per-round scan skips 64 inactive
/// vertices per simulated load, and next-front activation uses the
/// word-level `test_and_set` instead of a byte check-then-store (still
/// under the distance lock, so the activation count is unchanged).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn parallel_bitmap<M: Machine>(
    machine: &M,
    graph: &CsrGraph,
    source: VertexId,
) -> AlgoOutcome<SsspOutput> {
    pareto_fronts::<SharedBitmap, M>(machine, graph, source)
}

/// The body of [`parallel`] and [`parallel_bitmap`], over frontier
/// representation `F`.
fn pareto_fronts<F: Frontier, M: Machine>(
    machine: &M,
    graph: &CsrGraph,
    source: VertexId,
) -> AlgoOutcome<SsspOutput> {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source vertex out of range");
    let shared = SharedGraph::new(graph);
    let dist = SharedU32s::filled(n, UNREACHABLE);
    dist.set_plain(source as usize, 0);
    // Ping-pong frontiers plus rotating round-activation counters.
    let fronts = [F::with_len(n), F::with_len(n)];
    fronts[0].insert_plain(source as usize);
    let activations = SharedU64s::new(3);
    let locks = LockSet::new(n.min(8192));

    let rounds_done = machine.run(|ctx| {
        let tid = ctx.thread_id();
        let nthreads = ctx.num_threads();
        let mut round = 0usize;
        loop {
            if ctx.cancelled() {
                break;
            }
            ctx.span_begin("sssp:round");
            let cur = &fronts[round % 2];
            let next = &fronts[(round + 1) % 2];
            // Prepare the counter two rounds ahead (rotation keeps the
            // slot being read this round untouched).
            activations.set(ctx, (round + 2) % 3, 0);
            let mut processed = 0u64;
            let mut activated = 0u64;
            // As in the C suite, every thread scans the whole frontier
            // and processes the vertices it owns (graph division by
            // striping) — with byte flags the shared scan is the
            // non-parallelizable component that bounds SSSP's scaling.
            let mut pos = 0;
            while let Some(v) = cur.next_from(ctx, pos) {
                pos = v + 1;
                if v % nthreads != tid {
                    continue;
                }
                cur.remove(ctx, v);
                processed += 1;
                ctx.compute(costs::VISIT);
                let dv = dist.get(ctx, v);
                for e in shared.edge_range(ctx, v as VertexId) {
                    let (u, w) = shared.edge(ctx, e);
                    ctx.compute(costs::RELAX);
                    let nd = dv + w;
                    // Test, then lock-guarded test-and-set: CRONO updates
                    // "vertex path costs using atomic locks".
                    if nd < dist.get(ctx, u as usize) {
                        ctx.lock_for(&locks, u as usize);
                        if nd < dist.get(ctx, u as usize) {
                            dist.set(ctx, u as usize, nd);
                            if next.activate(ctx, u as usize) {
                                activated += 1;
                            }
                        }
                        ctx.unlock_for(&locks, u as usize);
                    }
                }
            }
            if processed > 0 {
                ctx.record_active(processed);
            }
            if activated > 0 {
                activations.fetch_add(ctx, (round + 1) % 3, activated);
            }
            ctx.barrier();
            let frontier_empty = activations.get(ctx, (round + 1) % 3) == 0;
            ctx.span_end("sssp:round");
            if frontier_empty {
                break;
            }
            round += 1;
        }
        round as u32 + 1
    });
    AlgoOutcome {
        output: SsspOutput {
            dist: dist.to_vec(),
            rounds: rounds_done.per_thread[0],
        },
        report: rounds_done.report,
    }
}

/// Picks the delta-stepping bucket width: the mean edge weight, clamped
/// to at least 1. A width near the average weight keeps light buckets
/// busy without serializing into one-vertex Dijkstra steps. Computed
/// outside the timed region (the serving engine caches it per epoch).
pub fn pick_delta(graph: &CsrGraph) -> u32 {
    let mut total = 0u64;
    let mut count = 0u64;
    for v in 0..graph.num_vertices() as VertexId {
        for (_, w) in graph.neighbors(v) {
            total += w as u64;
            count += 1;
        }
    }
    total
        .checked_div(count)
        .map_or(1, |mean| (mean as u32).max(1))
}

/// Parallel SSSP by *delta-stepping* (Meyer & Sanders; the GAP-style
/// `delta_sssp` ablation) over [`SlidingQueue`] bucket frontiers.
///
/// Tentative distances are grouped into buckets of width `delta` (the
/// mean edge weight). Each bucket is drained by barrier-synchronous
/// *light* iterations that relax only edges with `w <= delta` — an
/// improved vertex whose new distance stays inside the bucket re-enters
/// the current frontier window, one outside it is parked in a pending
/// queue (deduplicated by a membership bitmap; a vertex is parked at
/// most once, redistribution always re-reads its fresh distance). Once
/// the bucket stops changing, every vertex it settled relaxes its
/// *heavy* edges exactly once — those can only land in later buckets —
/// and the pending entries are redistributed in two statically-divided
/// passes: a `fetch_min` vote picks the next non-empty bucket, then
/// entries move either into the new frontier or into the ping-pong
/// pending queue. Distance updates reuse the striped-lock relaxation of
/// [`parallel`], so the result is bit-identical to the sequential
/// Dijkstra reference; `rounds` reports the number of buckets drained.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn parallel_delta<M: Machine>(
    machine: &M,
    graph: &CsrGraph,
    source: VertexId,
) -> AlgoOutcome<SsspOutput> {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source vertex out of range");
    let m = graph.num_directed_edges();
    let delta = pick_delta(graph);
    // Built outside the timed region, like the in-edge graph the pull
    // kernels precompute.
    let (light, heavy) = graph.split_by_weight(delta);
    let light = SharedGraph::new(&light);
    let heavy = SharedGraph::new(&heavy);
    let dist = SharedU32s::filled(n, UNREACHABLE);
    dist.set_plain(source as usize, 0);
    // Current-bucket frontier (reset once per bucket), ping-pong pending
    // queues (at most one live entry per vertex, so capacity n), and the
    // once-per-vertex settled log the heavy phase drains.
    let cur = SlidingQueue::new(2 * m + n + 64);
    cur.push_plain(source);
    let pend = [SlidingQueue::new(n + 64), SlidingQueue::new(n + 64)];
    let pending_mark = SharedBitmap::new(n);
    let settled = SlidingQueue::new(n + 64);
    let settled_mark = SharedBitmap::new(n);
    let next_min = SharedU64s::filled(1, u64::MAX);
    let locks = LockSet::new(n.min(8192));

    let rounds_done = machine.run(|ctx| {
        let tid = ctx.thread_id();
        let nthreads = ctx.num_threads();
        let mut k = 0u64;
        let mut a = 0usize;
        let mut buckets = 0u32;
        loop {
            if ctx.cancelled() {
                break;
            }
            ctx.span_begin("sssp:bucket");
            buckets += 1;
            // All finite distances stay below UNREACHABLE, so capping the
            // bucket boundary there is harmless and overflow-free.
            let bucket_end = ((k + 1) * delta as u64).min(UNREACHABLE as u64) as u32;
            // Light iterations: drain successive frontier windows until
            // one comes up empty. Every push lands beyond the window
            // being drained, so a slide between barriers opens exactly
            // the entries the previous iteration produced.
            loop {
                if tid == 0 {
                    cur.slide(ctx);
                }
                ctx.barrier();
                let w = cur.window(ctx);
                if w.is_empty() {
                    break;
                }
                let len = w.end - w.start;
                let mut processed = 0u64;
                for i in chunk(len, tid, nthreads) {
                    let v = cur.get(ctx, w.start + i) as usize;
                    ctx.compute(costs::VISIT);
                    let dv = dist.get(ctx, v);
                    if dv >= bucket_end {
                        continue;
                    }
                    processed += 1;
                    if !settled_mark.get(ctx, v) && !settled_mark.test_and_set(ctx, v) {
                        settled.push(ctx, v as u32);
                    }
                    for e in light.edge_range(ctx, v as VertexId) {
                        let (u, wt) = light.edge(ctx, e);
                        ctx.compute(costs::RELAX);
                        let nd = dv + wt;
                        if nd < dist.get(ctx, u as usize) {
                            ctx.lock_for(&locks, u as usize);
                            if nd < dist.get(ctx, u as usize) {
                                dist.set(ctx, u as usize, nd);
                                if nd < bucket_end {
                                    cur.push(ctx, u);
                                } else if !pending_mark.get(ctx, u as usize)
                                    && !pending_mark.test_and_set(ctx, u as usize)
                                {
                                    pend[a].push(ctx, u);
                                }
                            }
                            ctx.unlock_for(&locks, u as usize);
                        }
                    }
                }
                if processed > 0 {
                    ctx.record_active(processed);
                }
                ctx.barrier();
            }
            // Heavy phase: everything this bucket settled relaxes its
            // heavy edges exactly once (`w > delta` forces the target
            // past the bucket boundary, so successes park in `pend`).
            // The frontier is fully drained, so tid 0 reclaims it.
            if tid == 0 {
                settled.slide(ctx);
                cur.reset(ctx);
            }
            ctx.barrier();
            let sw = settled.window(ctx);
            let slen = sw.end - sw.start;
            let mut hprocessed = 0u64;
            for i in chunk(slen, tid, nthreads) {
                let v = settled.get(ctx, sw.start + i) as usize;
                ctx.compute(costs::VISIT);
                let dv = dist.get(ctx, v);
                hprocessed += 1;
                for e in heavy.edge_range(ctx, v as VertexId) {
                    let (u, wt) = heavy.edge(ctx, e);
                    ctx.compute(costs::RELAX);
                    let nd = dv + wt;
                    if nd < dist.get(ctx, u as usize) {
                        ctx.lock_for(&locks, u as usize);
                        if nd < dist.get(ctx, u as usize) {
                            dist.set(ctx, u as usize, nd);
                            if !pending_mark.get(ctx, u as usize)
                                && !pending_mark.test_and_set(ctx, u as usize)
                            {
                                pend[a].push(ctx, u);
                            }
                        }
                        ctx.unlock_for(&locks, u as usize);
                    }
                }
            }
            if hprocessed > 0 {
                ctx.record_active(hprocessed);
            }
            ctx.barrier();
            // Redistribution: vote on the next non-empty bucket, then
            // move live pending entries to the frontier or the other
            // pending queue. Settled entries are stale and dropped.
            if tid == 0 {
                pend[a].slide(ctx);
                next_min.set(ctx, 0, u64::MAX);
            }
            ctx.barrier();
            let pw = pend[a].window(ctx);
            let plen = pw.end - pw.start;
            if plen == 0 {
                ctx.span_end("sssp:bucket");
                break;
            }
            for i in chunk(plen, tid, nthreads) {
                let v = pend[a].get(ctx, pw.start + i) as usize;
                ctx.compute(costs::VISIT);
                if settled_mark.get(ctx, v) {
                    continue;
                }
                let dv = dist.get(ctx, v);
                next_min.fetch_min(ctx, 0, dv as u64 / delta as u64);
            }
            ctx.barrier();
            let k2 = next_min.get(ctx, 0);
            if k2 == u64::MAX {
                ctx.span_end("sssp:bucket");
                break;
            }
            for i in chunk(plen, tid, nthreads) {
                let v = pend[a].get(ctx, pw.start + i) as usize;
                if settled_mark.get(ctx, v) {
                    continue;
                }
                let dv = dist.get(ctx, v);
                if dv as u64 / delta as u64 == k2 {
                    cur.push(ctx, v as u32);
                } else {
                    pend[1 - a].push(ctx, v as u32);
                }
            }
            ctx.barrier();
            if tid == 0 {
                pend[a].reset(ctx);
            }
            ctx.span_end("sssp:bucket");
            k = k2;
            a = 1 - a;
        }
        buckets
    });
    AlgoOutcome {
        output: SsspOutput {
            dist: dist.to_vec(),
            rounds: rounds_done.per_thread[0],
        },
        report: rounds_done.report,
    }
}

/// Maximum number of sources one [`run_multi_delta`] sweep can share —
/// one lane per bit of the `u64` frontier masks, mirroring
/// [`crate::bfs::MULTI_WIDTH`].
pub const MULTI_WIDTH: usize = 64;

/// Multi-source delta-stepping: one bucket walk shared by up to
/// [`MULTI_WIDTH`] sources.
///
/// The serving engine batches up to 64 deadline-free SSSP misses into a
/// single sweep, the way MS-BFS shares levels ([`crate::bfs::run_multi`]).
/// Each vertex carries a lane-major distance row (`dist[v * k + lane]`)
/// plus three `u64` lane masks: the current-bucket frontier, the parked
/// (pending, later-bucket) lanes, and the settled lanes. The light/heavy
/// bucket walk of [`parallel_delta`] runs *once*: a vertex in the
/// [`SlidingQueue`] frontier loads its adjacency list one time and
/// relaxes every active lane against it, so the edge traffic — the
/// dominant cost of running the sweep per source — is amortized across
/// the batch. Light improvements that stay inside the bucket re-enter
/// the frontier (vertex-deduplicated by mask transition), ones that leave
/// it park in the pending ping-pong queues; after the light fixpoint the
/// lanes the bucket settled relax their heavy edges exactly once, and a
/// min-bucket vote over the live parked lanes picks the next bucket.
///
/// The kernel is sequential over one `ctx` (a single pool worker runs
/// the whole batch, like `bfs::run_multi`), so the per-lane results and
/// the charged cost are independent of machine thread count. Distances
/// equal a per-source [`run_seq`] exactly.
///
/// # Panics
///
/// Panics if `sources` is empty, holds more than [`MULTI_WIDTH`]
/// entries, or contains an out-of-range vertex.
pub fn run_multi_delta<C: ThreadCtx>(
    ctx: &mut C,
    graph: &SharedGraph<'_>,
    sources: &[VertexId],
    delta: u32,
) -> Vec<Vec<u32>> {
    let n = graph.num_vertices();
    let k = sources.len();
    assert!(k >= 1, "source batch is empty");
    assert!(k <= MULTI_WIDTH, "source batch exceeds MULTI_WIDTH");
    for &s in sources {
        assert!((s as usize) < n, "source vertex out of range");
    }
    let delta = delta.max(1);
    let m = graph.num_directed_edges();
    // Lane-major distances plus per-vertex lane masks. `bucket_lanes`
    // logs which lanes the current bucket settled (the heavy phase
    // drains and clears it each bucket).
    let mut dist = TrackedVec::filled(n * k, UNREACHABLE);
    let mut cur_mask = TrackedVec::filled(n, 0u64);
    let mut pend_mask = TrackedVec::filled(n, 0u64);
    let mut settled_mask = TrackedVec::filled(n, 0u64);
    let mut bucket_lanes = TrackedVec::filled(n, 0u64);
    // Frontier sizing mirrors `parallel_delta`; the pending queues hold
    // at most one live entry per vertex (`pend_mask != 0` exactly when
    // the vertex has an entry in one of them), and the settled log is
    // reset once its bucket's heavy phase has drained it.
    let cur = SlidingQueue::new(2 * m + n + 64);
    let pend = [SlidingQueue::new(n + 64), SlidingQueue::new(n + 64)];
    let settled = SlidingQueue::new(n + 64);
    for (lane, &s) in sources.iter().enumerate() {
        dist.set(ctx, s as usize * k + lane, 0);
        let mask = cur_mask.get(ctx, s as usize);
        if mask == 0 {
            cur.push(ctx, s);
        }
        cur_mask.set(ctx, s as usize, mask | 1 << lane);
    }
    let mut dvs = [0u32; MULTI_WIDTH];
    let mut bucket = 0u64;
    let mut a = 0usize;
    'buckets: loop {
        if ctx.cancelled() {
            break;
        }
        ctx.span_begin("sssp:multi_bucket");
        let bucket_end = ((bucket + 1) * delta as u64).min(UNREACHABLE as u64) as u32;
        // Light fixpoint: drain successive frontier windows. Every push
        // lands beyond the window being drained, so each slide opens
        // exactly the entries the previous iteration produced.
        loop {
            if ctx.cancelled() {
                ctx.span_end("sssp:multi_bucket");
                break 'buckets;
            }
            cur.slide(ctx);
            let w = cur.window(ctx);
            if w.is_empty() {
                break;
            }
            for i in w.clone() {
                let v = cur.get(ctx, i) as usize;
                ctx.compute(costs::VISIT);
                let mask = cur_mask.get(ctx, v);
                cur_mask.set(ctx, v, 0);
                // Lanes only enter the frontier with an in-bucket
                // distance, and distances never grow, so every masked
                // lane is active; cache its distance for the edge scan.
                let mut l = mask;
                while l != 0 {
                    let lane = l.trailing_zeros() as usize;
                    l &= l - 1;
                    dvs[lane] = dist.get(ctx, v * k + lane);
                }
                let already = settled_mask.get(ctx, v);
                let newly = mask & !already;
                if newly != 0 {
                    settled_mask.set(ctx, v, already | newly);
                    let bl = bucket_lanes.get(ctx, v);
                    if bl == 0 {
                        settled.push(ctx, v as u32);
                    }
                    bucket_lanes.set(ctx, v, bl | newly);
                }
                for e in graph.edge_range(ctx, v as VertexId) {
                    let (u, wt) = graph.edge(ctx, e);
                    if wt > delta {
                        continue; // heavy edges wait for the bucket to settle
                    }
                    let u = u as usize;
                    let mut l = mask;
                    while l != 0 {
                        let lane = l.trailing_zeros() as usize;
                        l &= l - 1;
                        ctx.compute(costs::RELAX);
                        let nd = dvs[lane] + wt;
                        if nd < dist.get(ctx, u * k + lane) {
                            dist.set(ctx, u * k + lane, nd);
                            if nd < bucket_end {
                                let cm = cur_mask.get(ctx, u);
                                if cm == 0 {
                                    cur.push(ctx, u as u32);
                                }
                                cur_mask.set(ctx, u, cm | 1 << lane);
                            } else {
                                let pm = pend_mask.get(ctx, u);
                                if pm & (1 << lane) == 0 {
                                    if pm == 0 {
                                        pend[a].push(ctx, u as u32);
                                    }
                                    pend_mask.set(ctx, u, pm | 1 << lane);
                                }
                            }
                        }
                    }
                }
            }
        }
        // The frontier is fully drained; reclaim it for the next bucket.
        cur.reset(ctx);
        // Heavy phase: every (vertex, lane) this bucket settled relaxes
        // its heavy edges exactly once. `w > delta` pushes the target
        // past the bucket boundary, so successes always park.
        settled.slide(ctx);
        let sw = settled.window(ctx);
        for i in sw.clone() {
            let v = settled.get(ctx, i) as usize;
            ctx.compute(costs::VISIT);
            let lanes = bucket_lanes.get(ctx, v);
            bucket_lanes.set(ctx, v, 0);
            let mut l = lanes;
            while l != 0 {
                let lane = l.trailing_zeros() as usize;
                l &= l - 1;
                dvs[lane] = dist.get(ctx, v * k + lane);
            }
            for e in graph.edge_range(ctx, v as VertexId) {
                let (u, wt) = graph.edge(ctx, e);
                if wt <= delta {
                    continue;
                }
                let u = u as usize;
                let mut l = lanes;
                while l != 0 {
                    let lane = l.trailing_zeros() as usize;
                    l &= l - 1;
                    ctx.compute(costs::RELAX);
                    let nd = dvs[lane] + wt;
                    if nd < dist.get(ctx, u * k + lane) {
                        dist.set(ctx, u * k + lane, nd);
                        let pm = pend_mask.get(ctx, u);
                        if pm & (1 << lane) == 0 {
                            if pm == 0 {
                                pend[a].push(ctx, u as u32);
                            }
                            pend_mask.set(ctx, u, pm | 1 << lane);
                        }
                    }
                }
            }
        }
        settled.reset(ctx);
        // Redistribution: vote on the next non-empty bucket over the
        // live parked lanes (parked bits whose lane has since settled
        // are stale and filtered), then move matching lanes into the
        // frontier and re-park the rest in the other pending queue.
        pend[a].slide(ctx);
        let pw = pend[a].window(ctx);
        if pw.is_empty() {
            ctx.span_end("sssp:multi_bucket");
            break;
        }
        let mut kmin = u64::MAX;
        for i in pw.clone() {
            let v = pend[a].get(ctx, i) as usize;
            ctx.compute(costs::VISIT);
            let live = pend_mask.get(ctx, v) & !settled_mask.get(ctx, v);
            let mut l = live;
            while l != 0 {
                let lane = l.trailing_zeros() as usize;
                l &= l - 1;
                let dv = dist.get(ctx, v * k + lane);
                kmin = kmin.min(dv as u64 / delta as u64);
            }
        }
        if kmin == u64::MAX {
            ctx.span_end("sssp:multi_bucket");
            break;
        }
        for i in pw.clone() {
            let v = pend[a].get(ctx, i) as usize;
            let live = pend_mask.get(ctx, v) & !settled_mask.get(ctx, v);
            let mut moved = 0u64;
            let mut stay = 0u64;
            let mut l = live;
            while l != 0 {
                let lane = l.trailing_zeros() as usize;
                l &= l - 1;
                let dv = dist.get(ctx, v * k + lane);
                if dv as u64 / delta as u64 == kmin {
                    moved |= 1 << lane;
                } else {
                    stay |= 1 << lane;
                }
            }
            if moved != 0 {
                let cm = cur_mask.get(ctx, v);
                if cm == 0 {
                    cur.push(ctx, v as u32);
                }
                cur_mask.set(ctx, v, cm | moved);
            }
            pend_mask.set(ctx, v, stay);
            if stay != 0 {
                pend[1 - a].push(ctx, v as u32);
            }
        }
        pend[a].reset(ctx);
        ctx.span_end("sssp:multi_bucket");
        bucket = kmin;
        a = 1 - a;
    }
    let flat = dist.into_vec();
    (0..k)
        .map(|lane| (0..n).map(|v| flat[v * k + lane]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crono_graph::gen::catalog::Dataset;
    use crono_graph::gen::{road_network, uniform_random};
    use crono_runtime::NativeMachine;

    /// Bellman-Ford oracle.
    fn reference(graph: &CsrGraph, source: VertexId) -> Vec<u32> {
        let n = graph.num_vertices();
        let mut dist = vec![UNREACHABLE; n];
        dist[source as usize] = 0;
        for _ in 0..n {
            let mut changed = false;
            for v in 0..n as VertexId {
                if dist[v as usize] == UNREACHABLE {
                    continue;
                }
                for (u, w) in graph.neighbors(v) {
                    let nd = dist[v as usize] + w;
                    if nd < dist[u as usize] {
                        dist[u as usize] = nd;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        dist
    }

    #[test]
    fn sequential_matches_bellman_ford() {
        let g = uniform_random(128, 512, 16, 3);
        let out = sequential(&NativeMachine::new(1), &g, 0);
        assert_eq!(out.output.dist, reference(&g, 0));
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = uniform_random(256, 1024, 32, 5);
        let seq = sequential(&NativeMachine::new(1), &g, 7);
        for threads in [1, 2, 4, 8] {
            let par = parallel(&NativeMachine::new(threads), &g, 7);
            assert_eq!(par.output.dist, seq.output.dist, "threads={threads}");
            assert!(par.output.rounds >= 1);
        }
    }

    #[test]
    fn road_network_distances_correct() {
        let g = road_network(12, 12, 8, 0.2, 0.05, 9);
        let par = parallel(&NativeMachine::new(4), &g, 0);
        assert_eq!(par.output.dist, reference(&g, 0));
    }

    #[test]
    fn disconnected_vertices_stay_unreachable() {
        let g = CsrGraph::from_edges(3, vec![(0, 1, 4), (1, 0, 4)]);
        let out = parallel(&NativeMachine::new(2), &g, 0);
        assert_eq!(out.output.dist, vec![0, 4, UNREACHABLE]);
    }

    #[test]
    fn source_distance_is_zero_and_triangle_inequality() {
        let g = uniform_random(64, 256, 8, 11);
        let out = parallel(&NativeMachine::new(3), &g, 5);
        assert_eq!(out.output.dist[5], 0);
        for v in 0..64u32 {
            for (u, w) in g.neighbors(v) {
                assert!(
                    out.output.dist[u as usize] <= out.output.dist[v as usize].saturating_add(w),
                    "edge ({v},{u}) violates triangle inequality"
                );
            }
        }
    }

    #[test]
    fn bitmap_variant_matches_bellman_ford() {
        let g = uniform_random(256, 1024, 32, 5);
        let oracle = reference(&g, 7);
        for threads in [1, 2, 4, 8] {
            let par = parallel_bitmap(&NativeMachine::new(threads), &g, 7);
            assert_eq!(par.output.dist, oracle, "threads={threads}");
            assert!(par.output.rounds >= 1);
        }
    }

    #[test]
    fn delta_stepping_matches_sequential() {
        let g = uniform_random(256, 1024, 32, 5);
        let seq = sequential(&NativeMachine::new(1), &g, 7);
        for threads in [1, 2, 4, 8] {
            let par = parallel_delta(&NativeMachine::new(threads), &g, 7);
            assert_eq!(par.output.dist, seq.output.dist, "threads={threads}");
            assert!(par.output.rounds >= 1);
        }
    }

    #[test]
    fn delta_stepping_on_road_network() {
        let g = road_network(12, 12, 8, 0.2, 0.05, 9);
        let oracle = reference(&g, 0);
        for threads in [1, 4] {
            let par = parallel_delta(&NativeMachine::new(threads), &g, 0);
            assert_eq!(par.output.dist, oracle, "threads={threads}");
        }
    }

    #[test]
    fn delta_stepping_disconnected_and_uniform_weights() {
        // Disconnected vertices stay unreachable.
        let g = CsrGraph::from_edges(3, vec![(0, 1, 4), (1, 0, 4)]);
        let out = parallel_delta(&NativeMachine::new(2), &g, 0);
        assert_eq!(out.output.dist, vec![0, 4, UNREACHABLE]);
        // All-equal weights: every edge is light, the heavy phase is a
        // no-op, and the kernel degenerates to bucketed Bellman-Ford.
        let g = uniform_random(128, 512, 1, 6);
        let oracle = reference(&g, 2);
        let out = parallel_delta(&NativeMachine::new(4), &g, 2);
        assert_eq!(out.output.dist, oracle);
    }

    #[test]
    fn delta_stepping_uses_multiple_buckets() {
        // Wide weight spread forces several non-empty buckets.
        let g = uniform_random(256, 1024, 64, 8);
        let out = parallel_delta(&NativeMachine::new(4), &g, 0);
        assert_eq!(out.output.dist, reference(&g, 0));
        assert!(out.output.rounds >= 2, "got {} buckets", out.output.rounds);
    }

    #[test]
    fn weight_split_matches_filtered_from_edges() {
        // Directed, with parallel edges on both sides of the mean weight,
        // a duplicate, a self-loop and an isolated vertex (4).
        let edges = vec![
            (0, 1, 9),
            (0, 1, 2),
            (0, 2, 5),
            (1, 0, 5),
            (1, 3, 7),
            (2, 2, 1),
            (3, 1, 3),
            (3, 1, 3),
            (3, 0, 12),
        ];
        let g = CsrGraph::from_edges(5, edges.clone());
        let filtered = |keep: &dyn Fn(u32) -> bool| {
            let kept = edges.iter().copied().filter(|&(_, _, w)| keep(w));
            CsrGraph::from_edges(5, kept.collect())
        };
        for delta in [0, pick_delta(&g), u32::MAX] {
            let (light, heavy) = g.split_by_weight(delta);
            assert_eq!(light, filtered(&|w| w <= delta), "delta={delta}");
            assert_eq!(heavy, filtered(&|w| w > delta), "delta={delta}");
        }
        assert_eq!(g.split_by_weight(0).1, g, "delta 0: all heavy");
        assert_eq!(g.split_by_weight(u32::MAX).0, g, "u32::MAX: all light");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn delta_bad_source_rejected() {
        let g = uniform_random(8, 12, 4, 0);
        parallel_delta(&NativeMachine::new(2), &g, 100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_rejected() {
        let g = uniform_random(8, 12, 4, 0);
        parallel(&NativeMachine::new(2), &g, 100);
    }

    /// Runs the multi-source sweep on thread 0 of a `threads`-wide
    /// machine (the engine executes it the same way: one pool worker
    /// owns the whole batch).
    fn multi_on(threads: usize, g: &CsrGraph, sources: &[VertexId]) -> Vec<Vec<u32>> {
        let shared = SharedGraph::new(g);
        let delta = pick_delta(g);
        let outcome = NativeMachine::new(threads).run(|ctx| {
            if ctx.thread_id() == 0 {
                Some(run_multi_delta(ctx, &shared, sources, delta))
            } else {
                None
            }
        });
        outcome.per_thread.into_iter().flatten().next().unwrap()
    }

    fn seq_on(g: &CsrGraph, source: VertexId) -> Vec<u32> {
        let shared = SharedGraph::new(g);
        let mut outcome = NativeMachine::new(1).run(|ctx| run_seq(ctx, &shared, source));
        outcome.per_thread.pop().unwrap()
    }

    #[test]
    fn multi_delta_matches_run_seq_across_catalog() {
        // The five Table III generators, shrunk to test scale, at 1, 4,
        // and 16 machine threads (the kernel is single-ctx, so thread
        // count must not change a single distance).
        for (di, dataset) in Dataset::ALL.iter().enumerate() {
            let g = dataset.generate(14, 0xC0DE + di as u64);
            let n = g.num_vertices() as VertexId;
            let sources: Vec<VertexId> = (0..8).map(|i| (i * 7 + 3) % n).collect();
            let expect: Vec<Vec<u32>> = sources.iter().map(|&s| seq_on(&g, s)).collect();
            for threads in [1usize, 4, 16] {
                let got = multi_on(threads, &g, &sources);
                assert_eq!(got, expect, "dataset {} threads {threads}", dataset.label());
            }
        }
    }

    #[test]
    fn multi_delta_full_width_batch() {
        let g = uniform_random(256, 1024, 32, 5);
        let sources: Vec<VertexId> = (0..MULTI_WIDTH as VertexId).map(|i| i * 3).collect();
        let got = multi_on(4, &g, &sources);
        for (lane, &s) in sources.iter().enumerate() {
            assert_eq!(got[lane], seq_on(&g, s), "lane {lane} source {s}");
        }
    }

    #[test]
    fn multi_delta_sources_in_distinct_components() {
        // Two components (0..3 and 3..6) plus an isolated vertex 6;
        // lanes must not leak reachability across components.
        let g = CsrGraph::from_edges(
            7,
            vec![
                (0, 1, 2),
                (1, 0, 2),
                (1, 2, 5),
                (2, 1, 5),
                (3, 4, 1),
                (4, 3, 1),
                (4, 5, 9),
                (5, 4, 9),
            ],
        );
        let sources = [0, 3, 6];
        let got = multi_on(2, &g, &sources);
        for (lane, &s) in sources.iter().enumerate() {
            assert_eq!(got[lane], seq_on(&g, s), "lane {lane}");
        }
        assert_eq!(got[0][3], UNREACHABLE);
        assert_eq!(got[1][0], UNREACHABLE);
        assert_eq!(
            got[2],
            vec![
                UNREACHABLE,
                UNREACHABLE,
                UNREACHABLE,
                UNREACHABLE,
                UNREACHABLE,
                UNREACHABLE,
                0
            ]
        );
    }

    #[test]
    fn multi_delta_charges_are_deterministic() {
        let g = uniform_random(128, 512, 48, 11);
        let shared = SharedGraph::new(&g);
        let delta = pick_delta(&g);
        let sources: Vec<VertexId> = vec![0, 17, 33, 64, 90];
        let run = || {
            let outcome = NativeMachine::new(1).run(|ctx| {
                let start = ctx.instructions();
                let dists = run_multi_delta(ctx, &shared, &sources, delta);
                (dists, ctx.instructions() - start)
            });
            outcome.per_thread.into_iter().next().unwrap()
        };
        let (d1, c1) = run();
        let (d2, c2) = run();
        assert_eq!(d1, d2);
        assert_eq!(c1, c2, "charged cost must be repeatable");
        assert!(c1 > 0);
    }

    #[test]
    fn multi_delta_shares_work_across_lanes() {
        // The whole point: k lanes in one sweep must charge well under
        // k independent sequential runs.
        let g = uniform_random(256, 2048, 32, 7);
        let shared = SharedGraph::new(&g);
        let delta = pick_delta(&g);
        let sources: Vec<VertexId> = (0..16).map(|i| i * 11).collect();
        let multi_cost = NativeMachine::new(1)
            .run(|ctx| {
                let start = ctx.instructions();
                run_multi_delta(ctx, &shared, &sources, delta);
                ctx.instructions() - start
            })
            .per_thread[0];
        let seq_cost: u64 = sources
            .iter()
            .map(|&s| {
                NativeMachine::new(1)
                    .run(|ctx| {
                        let start = ctx.instructions();
                        run_seq(ctx, &shared, s);
                        ctx.instructions() - start
                    })
                    .per_thread[0]
            })
            .sum();
        assert!(
            multi_cost < seq_cost * 4 / 5,
            "multi {multi_cost} vs {} sequential {seq_cost}",
            sources.len()
        );
    }

    #[test]
    #[should_panic(expected = "source batch is empty")]
    fn multi_delta_rejects_empty_batch() {
        let g = uniform_random(8, 12, 4, 0);
        let shared = SharedGraph::new(&g);
        NativeMachine::new(1).run(|ctx| run_multi_delta(ctx, &shared, &[], 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn multi_delta_rejects_bad_source() {
        let g = uniform_random(8, 12, 4, 0);
        let shared = SharedGraph::new(&g);
        NativeMachine::new(1).run(|ctx| run_multi_delta(ctx, &shared, &[0, 100], 1));
    }
}
