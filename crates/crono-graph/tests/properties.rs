//! Property-based tests for the graph substrate.
//!
//! Formerly driven by `proptest`; now a seeded loop over the in-tree
//! [`crono_graph::rng`] PRNG so the suite is deterministic and builds
//! offline. Every case derives from a fixed seed — a failure reproduces
//! exactly by rerunning the test.

use crono_graph::dsu::Dsu;
use crono_graph::gen::{rmat, road_network, tsp_cities, uniform_random, RmatParams};
use crono_graph::io::{read_dimacs, read_edge_list, write_dimacs, write_edge_list};
use crono_graph::rng::SmallRng;
use crono_graph::{CsrGraph, CsrPacker, EdgeList};

const CASES: u64 = 48;

/// Random vertex count in `2..max_n` plus up to `max_m` random weighted
/// edges (duplicates and self-loops allowed, like proptest's arbitrary
/// edge vectors).
fn arb_edges(rng: &mut SmallRng, max_n: usize, max_m: usize) -> (usize, Vec<(u32, u32, u32)>) {
    let n = rng.random_range(2..max_n);
    let m = rng.random_range(0..max_m);
    let edges = (0..m)
        .map(|_| {
            (
                rng.random_range(0..n as u32),
                rng.random_range(0..n as u32),
                rng.random_range(1..100u32),
            )
        })
        .collect();
    (n, edges)
}

/// `from_edges`' oracle: sort the triples, then pack them in that order.
/// (The transpose's oracle, [`reversed`], itself calls `from_edges`.)
fn sorted_packed(n: usize, mut edges: Vec<(u32, u32, u32)>) -> CsrGraph {
    edges.sort_unstable();
    let mut packer = CsrPacker::new(n);
    for (s, d, w) in edges {
        packer.push_edge(s, d, w).unwrap();
    }
    packer.finish().unwrap()
}

#[test]
fn csr_preserves_every_edge() {
    let check = |n: usize, edges: Vec<(u32, u32, u32)>| {
        let g = CsrGraph::from_edges(n, edges.clone());
        assert_eq!(g, sorted_packed(n, edges.clone()));
        assert_eq!(g.num_directed_edges(), edges.len());
        for (s, d, w) in edges {
            assert!(g.neighbors(s).any(|(x, wx)| x == d && wx == w));
        }
    };
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x11AA + case);
        let (n, mut edges) = arb_edges(&mut rng, 64, 256);
        // Self-loops, and pairs repeated under new weights so the weight
        // orders parallel edges.
        for i in 0..edges.len() / 4 {
            let (s, d, _) = edges[i];
            edges.push((s, d, rng.random_range(1..100u32)));
            edges.push((d, d, rng.random_range(1..100u32)));
        }
        check(n, edges);
    }
    // Down to one vertex, where only self-loops fit; few weights, so
    // whole triples repeat too.
    for n in 1..=3u32 {
        let mut rng = SmallRng::seed_from_u64(0x11AB + n as u64);
        let edges = (0..24)
            .map(|_| {
                (
                    rng.random_range(0..n),
                    rng.random_range(0..n),
                    rng.random_range(1..4u32),
                )
            })
            .collect();
        check(n as usize, edges);
    }
}

#[test]
fn csr_degrees_sum_to_edge_count() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x22BB + case);
        let (n, edges) = arb_edges(&mut rng, 64, 256);
        let g = CsrGraph::from_edges(n, edges);
        let total: usize = (0..n as u32).map(|v| g.degree(v)).sum();
        assert_eq!(total, g.num_directed_edges());
    }
}

/// The transpose's oracle: `from_edges` over `edges` reversed.
fn reversed(n: usize, edges: impl IntoIterator<Item = (u32, u32, u32)>) -> CsrGraph {
    CsrGraph::from_edges(n, edges.into_iter().map(|(s, d, w)| (d, s, w)).collect())
}

#[test]
fn transpose_is_involutive() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x33CC + case);
        let (n, edges) = arb_edges(&mut rng, 32, 128);
        let g = CsrGraph::from_edges(n, edges.clone());
        assert_eq!(g.transpose(), reversed(n, edges));
        assert_eq!(g.transpose().transpose(), g);
    }
    for g in [
        rmat(10, 8 << 10, 255, RmatParams::default(), 3),
        road_network(12, 9, 8, 0.2, 0.05, 5),
    ] {
        let n = g.num_vertices();
        let edges = (0..n as u32).flat_map(|v| g.neighbors(v).map(move |(u, w)| (v, u, w)));
        assert_eq!(g.transpose(), reversed(n, edges));
        assert_eq!(g.transpose().transpose(), g);
    }
}

/// Both halves of the split equal `from_edges` over the kept triples,
/// whatever the share of light edges — none, all, or in between, with
/// parallel edges straddling `delta`.
#[test]
fn weight_split_matches_filtered_from_edges() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x3D3D + case);
        let (n, edges) = arb_edges(&mut rng, 32, 256);
        let g = CsrGraph::from_edges(n, edges.clone());
        let filtered = |keep: &dyn Fn(u32) -> bool| {
            let kept = edges.iter().copied().filter(|&(_, _, w)| keep(w));
            CsrGraph::from_edges(n, kept.collect())
        };
        for delta in [0, rng.random_range(1..100u32), u32::MAX] {
            let (light, heavy) = g.split_by_weight(delta);
            assert_eq!(
                light,
                filtered(&|w| w <= delta),
                "case {case} delta {delta}"
            );
            assert_eq!(heavy, filtered(&|w| w > delta), "case {case} delta {delta}");
        }
    }
}

#[test]
fn edge_list_io_round_trips() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x44DD + case);
        let (n, edges) = arb_edges(&mut rng, 32, 128);
        let g = CsrGraph::from_edges(n, edges);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice(), false).unwrap();
        // Round-trip can lose trailing isolated vertices (edge lists have
        // no vertex-count header); edges must survive exactly.
        assert_eq!(g2.num_directed_edges(), g.num_directed_edges());
        for v in 0..g2.num_vertices() as u32 {
            let a: Vec<_> = g.neighbors(v).collect();
            let b: Vec<_> = g2.neighbors(v).collect();
            assert_eq!(a, b);
        }
    }
}

#[test]
fn dimacs_io_round_trips() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x55EE + case);
        let (n, edges) = arb_edges(&mut rng, 32, 128);
        let g = CsrGraph::from_edges(n, edges);
        let mut buf = Vec::new();
        write_dimacs(&g, &mut buf).unwrap();
        assert_eq!(read_dimacs(buf.as_slice()).unwrap(), g);
    }
}

#[test]
fn uniform_generator_is_connected() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x66FF + case);
        let n = rng.random_range(8..128usize);
        let extra = rng.random_range(0..64usize).min(n * (n - 1) / 2 - (n - 1));
        let seed = rng.random_range(0..100u64);
        let g = uniform_random(n, n - 1 + extra, 16, seed);
        let mut dsu = Dsu::new(n);
        for v in 0..n as u32 {
            for (u, _) in g.neighbors(v) {
                dsu.union(v, u);
            }
        }
        assert_eq!(dsu.num_components(), 1);
    }
}

#[test]
fn road_generator_is_connected() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x7711 + case);
        let rows = rng.random_range(2..20usize);
        let cols = rng.random_range(2..20usize);
        let drop = rng.random_range(0.0..0.6f64);
        let seed = rng.random_range(0..50u64);
        let g = road_network(rows, cols, 8, drop, 0.05, seed);
        let n = g.num_vertices();
        let mut dsu = Dsu::new(n);
        for v in 0..n as u32 {
            for (u, _) in g.neighbors(v) {
                dsu.union(v, u);
            }
        }
        assert_eq!(dsu.num_components(), 1);
    }
}

#[test]
fn rmat_edges_within_range() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x8822 + case);
        let scale = rng.random_range(3..10u32);
        let m = rng.random_range(1..512usize);
        let seed = rng.random_range(0..50u64);
        let g = rmat(scale, m, 8, RmatParams::default(), seed);
        assert_eq!(g.num_vertices(), 1usize << scale);
        assert!(g.num_directed_edges() <= 2 * m);
        // Symmetry
        for v in 0..g.num_vertices() as u32 {
            for (u, w) in g.neighbors(v) {
                assert!(g.neighbors(u).any(|(x, wx)| x == v && wx == w));
            }
        }
    }
}

#[test]
fn tsp_tour_length_invariant_under_rotation() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x9933 + case);
        let n = rng.random_range(3..9usize);
        let seed = rng.random_range(0..50u64);
        let inst = tsp_cities(n, seed);
        let order: Vec<usize> = (0..n).collect();
        let mut rotated = order.clone();
        rotated.rotate_left(1);
        assert_eq!(inst.tour_length(&order), inst.tour_length(&rotated));
    }
}

#[test]
fn dedup_removes_all_duplicates() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xAA44 + case);
        let (n, edges) = arb_edges(&mut rng, 24, 200);
        let mut el = EdgeList::new(n);
        for (s, d, w) in edges {
            el.push(s, d, w).unwrap();
        }
        el.dedup();
        let pairs: Vec<_> = el.iter().map(|(s, d, _)| (s, d)).collect();
        let mut uniq = pairs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(pairs.len(), uniq.len());
        assert!(el.iter().all(|(s, d, _)| s != d));
    }
}
