//! `COMM` — community detection (§III-10).
//!
//! A parallel one-level Louvain pass after Lu et al., with CRONO's
//! *bounded heuristic*: modularity-maximizing vertex moves proceed for a
//! bounded number of rounds, "propagating a loss of modularity accuracy
//! with the increase in parallelism" — concurrent moves read slightly
//! stale community totals, exactly the relaxation the paper describes.
//! The graph is statically divided amongst threads; community totals are
//! maintained with atomic adds; rounds are separated by barriers.

use crate::graph_view::{chunk, SharedGraph};
use crate::{costs, AlgoOutcome};
use crono_graph::{CsrGraph, VertexId};
use crono_runtime::{LockSet, Machine, SharedF64s, SharedU32s, SharedU64s, ThreadCtx};
use std::collections::BTreeMap;

/// Result of a community-detection run.
#[derive(Debug, Clone, PartialEq)]
pub struct CommunityOutput {
    /// `community[v]` = community id of `v` (a vertex id).
    pub community: Vec<u32>,
    /// Modularity of the final partition.
    pub modularity: f64,
    /// Number of distinct communities.
    pub num_communities: usize,
    /// Move rounds executed.
    pub rounds: u32,
}

/// Parallel Louvain move phase: graph division with bounded rounds
/// (Table I).
///
/// # Panics
///
/// Panics if `max_rounds == 0` or the graph has no edges.
pub fn parallel<M: Machine>(
    machine: &M,
    graph: &CsrGraph,
    max_rounds: u32,
) -> AlgoOutcome<CommunityOutput> {
    assert!(max_rounds > 0, "need at least one round");
    let n = graph.num_vertices();
    let m2 = graph.total_weight();
    assert!(m2 > 0, "community detection needs a weighted edge");
    let shared = SharedGraph::new(graph);
    let community = SharedU32s::from_values(0..n as u32);
    // Weighted degree of each community (starts as each vertex alone).
    let totals = SharedU64s::from_values(
        (0..n as VertexId).map(|v| graph.neighbors(v).map(|(_, w)| w as u64).sum()),
    );
    let moves_made = SharedU64s::new(3);
    let locks = LockSet::new(n.min(4096));
    // The running global modularity delta — the algorithm "terminates
    // when the modularity can not be increased any further", so every
    // accepted move contributes its gain to one shared accumulator.
    let global_gain = SharedF64s::filled(1, 0.0);

    let outcome = machine.run(|ctx| {
        let tid = ctx.thread_id();
        let nthreads = ctx.num_threads();
        let mut round = 0usize;
        // Neighbour-community weights of the current vertex, in the order
        // the communities were first seen, and each one's place in it.
        let mut weights: Vec<(u32, u64)> = Vec::new();
        let mut place: BTreeMap<u32, usize> = BTreeMap::new();
        loop {
            if ctx.cancelled() {
                break;
            }
            moves_made.set(ctx, (round + 2) % 3, 0);
            let mut local_moves = 0u64;
            for v in chunk(n, tid, nthreads) {
                let vd: u64 = {
                    let r = shared.edge_range(ctx, v as VertexId);
                    let mut sum = 0u64;
                    for e in r {
                        let (_, w) = shared.edge(ctx, e);
                        sum += w as u64;
                    }
                    sum
                };
                if vd == 0 {
                    continue;
                }
                let cur = community.get(ctx, v);
                // Tally edge weight from v into each neighbor community.
                weights.clear();
                place.clear();
                for e in shared.edge_range(ctx, v as VertexId) {
                    let (u, w) = shared.edge(ctx, e);
                    let cu = community.get(ctx, u as usize);
                    let i = *place.entry(cu).or_insert_with(|| {
                        weights.push((cu, 0));
                        weights.len() - 1
                    });
                    weights[i].1 += w as u64;
                }
                // Gain of joining community c (Louvain one-level):
                //   w(v, c) / m  −  deg(v) · tot(c) / (2 m²)
                // evaluated with tot excluding v when c == cur.
                let gain = |ctx: &mut <M as Machine>::Ctx,
                            c: u32,
                            w_vc: u64,
                            totals: &SharedU64s|
                 -> f64 {
                    ctx.compute(costs::MODULARITY_EVAL);
                    let mut tot = totals.get(ctx, c as usize) as f64;
                    if c == cur {
                        tot -= vd as f64;
                    }
                    w_vc as f64 / m2 as f64 - (vd as f64) * tot / (m2 as f64 * m2 as f64)
                };
                let w_cur = place.get(&cur).map_or(0, |&i| weights[i].1);
                let stay = gain(ctx, cur, w_cur, &totals);
                let mut best_c = cur;
                let mut best_gain = stay;
                // First-seen order breaks ties between equal gains.
                for &(c, w_vc) in &weights {
                    if c == cur {
                        continue;
                    }
                    let g = gain(ctx, c, w_vc, &totals);
                    if g > best_gain + 1e-12 {
                        best_gain = g;
                        best_c = c;
                    }
                }
                if best_c != cur {
                    // Lock both communities' totals (stripe-ordered to
                    // avoid deadlock), as the parallel Louvain of Lu et
                    // al. does for its fine-grain updates.
                    let sa = cur as usize % locks.len();
                    let sb = best_c as usize % locks.len();
                    ctx.lock(&locks, sa.min(sb));
                    if sa != sb {
                        ctx.lock(&locks, sa.max(sb));
                    }
                    community.set(ctx, v, best_c);
                    totals.fetch_add(ctx, cur as usize, (vd).wrapping_neg());
                    totals.fetch_add(ctx, best_c as usize, vd);
                    if sa != sb {
                        ctx.unlock(&locks, sa.max(sb));
                    }
                    ctx.unlock(&locks, sa.min(sb));
                    global_gain.fetch_add(ctx, 0, best_gain - stay);
                    local_moves += 1;
                }
            }
            if local_moves > 0 {
                ctx.record_active(local_moves);
                moves_made.fetch_add(ctx, (round + 1) % 3, local_moves);
            }
            ctx.barrier();
            let total_moves = moves_made.get(ctx, (round + 1) % 3);
            round += 1;
            if total_moves == 0 || round as u32 >= max_rounds {
                break;
            }
        }
        round as u32
    });
    let community_vec = community.to_vec();
    let mut uniq = community_vec.clone();
    uniq.sort_unstable();
    uniq.dedup();
    AlgoOutcome {
        output: CommunityOutput {
            modularity: modularity(graph, &community_vec),
            num_communities: uniq.len(),
            rounds: outcome.per_thread[0],
            community: community_vec,
        },
        report: outcome.report,
    }
}

/// Sequential reference.
///
/// # Panics
///
/// Panics if `machine.num_threads() != 1`.
pub fn sequential<M: Machine>(
    machine: &M,
    graph: &CsrGraph,
    max_rounds: u32,
) -> AlgoOutcome<CommunityOutput> {
    assert_eq!(
        machine.num_threads(),
        1,
        "sequential reference needs 1 thread"
    );
    parallel(machine, graph, max_rounds)
}

/// Newman modularity of a partition (untracked oracle):
/// `Q = Σ_c [ w_in(c)/2m − (tot(c)/2m)² ]`, where `w_in` sums the
/// directed intra-community edge weights and `tot` the community's
/// weighted degree. The sum runs in ascending community id, so the
/// result does not depend on the process.
pub fn modularity(graph: &CsrGraph, community: &[u32]) -> f64 {
    let m2 = graph.total_weight() as f64;
    if m2 == 0.0 {
        return 0.0;
    }
    let n = graph.num_vertices();
    // `(tot, w_in)` per community id (a vertex id); a community with no
    // edge adds 0.
    let mut sums = vec![(0.0f64, 0.0f64); n];
    for v in 0..n as VertexId {
        let c = community[v as usize];
        let (tot, w_in) = &mut sums[c as usize];
        for (u, w) in graph.neighbors(v) {
            *tot += w as f64;
            if c == community[u as usize] {
                *w_in += w as f64;
            }
        }
    }
    sums.iter()
        .map(|&(t, win)| win / m2 - (t / m2) * (t / m2))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crono_graph::gen::uniform_random;
    use crono_graph::EdgeList;
    use crono_runtime::NativeMachine;

    /// Two K5 cliques joined by a single bridge edge.
    fn two_cliques() -> CsrGraph {
        let mut el = EdgeList::new(10);
        for base in [0u32, 5] {
            for a in 0..5 {
                for b in a + 1..5 {
                    el.push_undirected(base + a, base + b, 10).unwrap();
                }
            }
        }
        el.push_undirected(4, 5, 1).unwrap();
        el.into_csr()
    }

    #[test]
    fn finds_the_two_cliques() {
        let g = two_cliques();
        let out = sequential(&NativeMachine::new(1), &g, 16);
        let c = &out.output.community;
        for v in 1..5 {
            assert_eq!(c[v], c[0], "first clique together");
        }
        for v in 6..10 {
            assert_eq!(c[v], c[5], "second clique together");
        }
        assert!(out.output.modularity > 0.3, "Q = {}", out.output.modularity);
    }

    #[test]
    fn modularity_improves_over_singletons() {
        let g = two_cliques();
        let singleton: Vec<u32> = (0..10).collect();
        let q0 = modularity(&g, &singleton);
        let out = parallel(&NativeMachine::new(4), &g, 16);
        assert!(
            out.output.modularity > q0,
            "{} should beat singleton {q0}",
            out.output.modularity
        );
    }

    #[test]
    fn modularity_is_bounded() {
        let g = uniform_random(100, 300, 8, 3);
        let out = parallel(&NativeMachine::new(4), &g, 8);
        assert!(out.output.modularity >= -0.5 && out.output.modularity <= 1.0);
        assert!(out.output.num_communities >= 1);
        assert!(out.output.rounds <= 8);
    }

    #[test]
    fn all_in_one_community_has_zero_modularity() {
        let g = two_cliques();
        let all_zero = vec![0u32; 10];
        assert!(modularity(&g, &all_zero).abs() < 1e-12);
    }

    #[test]
    fn bounded_rounds_respected() {
        let g = uniform_random(64, 200, 4, 5);
        let out = parallel(&NativeMachine::new(2), &g, 1);
        assert_eq!(out.output.rounds, 1);
    }
}
