//! Property-based tests on benchmark invariants.
//!
//! Formerly driven by `proptest`; now a seeded loop over the in-tree
//! `crono_graph::rng` PRNG so the suite is deterministic and builds
//! offline. Case counts match the old `ProptestConfig::with_cases(24)`.

use crono_algos::*;
use crono_graph::gen::{tsp_cities, uniform_random};
use crono_graph::rng::SmallRng;
use crono_graph::{AdjacencyMatrix, CsrGraph};
use crono_runtime::NativeMachine;

const CASES: u64 = 24;

/// A connected uniform random graph plus a thread count in `1..6`, the
/// shape every invariant below is checked against.
fn arb_graph(rng: &mut SmallRng) -> (CsrGraph, usize) {
    let n = rng.random_range(8..80usize);
    let extra = rng.random_range(0..120usize);
    let seed = rng.random_range(1..50u64);
    let max_extra = n * (n - 1) / 2 - (n - 1);
    let g = uniform_random(n, n - 1 + extra.min(max_extra), 16, seed);
    let threads = rng.random_range(1..6usize);
    (g, threads)
}

#[test]
fn sssp_satisfies_shortest_path_conditions() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD100 + case);
        let (g, threads) = arb_graph(&mut rng);
        let out = sssp::parallel(&NativeMachine::new(threads), &g, 0).output;
        assert_eq!(out.dist[0], 0);
        // Relaxed: no edge improves any distance (Bellman optimality).
        for v in 0..g.num_vertices() as u32 {
            if out.dist[v as usize] == sssp::UNREACHABLE {
                continue;
            }
            for (u, w) in g.neighbors(v) {
                assert!(out.dist[u as usize] <= out.dist[v as usize] + w);
            }
        }
        // Every non-source reachable vertex has a witness predecessor.
        for v in 1..g.num_vertices() as u32 {
            let dv = out.dist[v as usize];
            if dv == sssp::UNREACHABLE {
                continue;
            }
            let witness = g.neighbors(v).any(|(u, w)| {
                out.dist[u as usize] != sssp::UNREACHABLE && out.dist[u as usize] + w == dv
            });
            assert!(witness, "vertex {v} has no tight incoming edge");
        }
    }
}

#[test]
fn bfs_levels_differ_by_at_most_one_across_edges() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD200 + case);
        let (g, threads) = arb_graph(&mut rng);
        let out = bfs::parallel(&NativeMachine::new(threads), &g, 0).output;
        for v in 0..g.num_vertices() as u32 {
            let lv = out.level[v as usize];
            if lv == bfs::UNVISITED {
                continue;
            }
            for (u, _) in g.neighbors(v) {
                let lu = out.level[u as usize];
                assert!(lu != bfs::UNVISITED);
                assert!(lu.abs_diff(lv) <= 1);
            }
        }
    }
}

#[test]
fn connected_labels_are_componentwise_minima() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD300 + case);
        let (g, threads) = arb_graph(&mut rng);
        let out = connected::parallel(&NativeMachine::new(threads), &g).output;
        // Endpoint labels agree across every edge.
        for v in 0..g.num_vertices() as u32 {
            for (u, _) in g.neighbors(v) {
                assert_eq!(out.labels[v as usize], out.labels[u as usize]);
            }
        }
        // A label names the smallest vertex that carries it.
        for (v, &l) in out.labels.iter().enumerate() {
            assert!(l as usize <= v);
            assert_eq!(out.labels[l as usize], l);
        }
    }
}

#[test]
fn pagerank_total_mass_is_stable() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD400 + case);
        let (g, threads) = arb_graph(&mut rng);
        // With symmetric graphs and no dangling vertices, Eq. 1 preserves
        // r·n + (1-r)·Σ ranks; after enough iterations Σ ranks ≈ n·E[PR].
        let out = pagerank::parallel(&NativeMachine::new(threads), &g, 8).output;
        let expected = pagerank::reference(&g, 8);
        for (a, b) in out.ranks.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}

#[test]
fn triangle_counts_match_reference() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD500 + case);
        let (g, threads) = arb_graph(&mut rng);
        let out = triangle::parallel(&NativeMachine::new(threads), &g).output;
        assert_eq!(out.total, triangle::reference(&g));
        assert_eq!(out.per_vertex.iter().sum::<u64>(), out.total);
    }
}

#[test]
fn apsp_agrees_with_floyd_warshall() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD600 + case);
        let n = rng.random_range(6..28usize);
        let seed = rng.random_range(0..30u64);
        let threads = rng.random_range(1..6usize);
        let max_extra = n * (n - 1) / 2 - (n - 1);
        let g = uniform_random(n, (n - 1) + (2 * n).min(max_extra), 9, seed);
        let m = AdjacencyMatrix::from_csr(&g);
        let out = apsp::parallel(&NativeMachine::new(threads), &m).output;
        assert_eq!(out.dist, apsp::floyd_warshall(&m));
    }
}

#[test]
fn tsp_is_optimal_and_symmetric_under_threads() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD700 + case);
        let n = rng.random_range(4..8usize);
        let seed = rng.random_range(0..20u64);
        let inst = tsp_cities(n, seed);
        let one = tsp::parallel(&NativeMachine::new(1), &inst).output.best_len;
        let four = tsp::parallel(&NativeMachine::new(4), &inst).output.best_len;
        assert_eq!(one, four);
        assert_eq!(one, tsp::reference(&inst));
    }
}

#[test]
fn dfs_claims_exactly_the_reachable_set() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD800 + case);
        let (g, threads) = arb_graph(&mut rng);
        let out = dfs::parallel(&NativeMachine::new(threads), &g, 0, None).output;
        assert_eq!(
            out.visited,
            g.num_vertices(),
            "generator graphs are connected"
        );
    }
}

#[test]
fn community_modularity_bounded_and_stable() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD900 + case);
        let (g, threads) = arb_graph(&mut rng);
        let out = community::parallel(&NativeMachine::new(threads), &g, 6).output;
        assert!(out.modularity >= -0.5 && out.modularity <= 1.0);
        assert_eq!(out.num_communities, {
            let mut u = out.community.clone();
            u.sort_unstable();
            u.dedup();
            u.len()
        });
    }
}

#[test]
fn betweenness_endpoints_never_counted() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xDA00 + case);
        let n = rng.random_range(5..20usize);
        let seed = rng.random_range(0..20u64);
        let max_extra = n * (n - 1) / 2 - (n - 1);
        let g = uniform_random(n, (n - 1) + n.min(max_extra), 5, seed);
        let m = AdjacencyMatrix::from_csr(&g);
        let out = betweenness::parallel(&NativeMachine::new(4), &m).output;
        // Total centrality bounded by ordered pairs × interior vertices.
        let bound = (n as u64) * (n as u64 - 1) * (n as u64 - 2);
        assert!(out.centrality.iter().sum::<u64>() <= bound);
        assert_eq!(out.centrality, betweenness::reference(&m));
    }
}
