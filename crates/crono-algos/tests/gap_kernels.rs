//! Equivalence gates for the GAP-class kernels (direction-optimizing
//! BFS, delta-stepping SSSP, Afforest connected components): every
//! optimized kernel must produce output bit-identical to its sequential
//! reference on every generator family, at 1, 4, and 16 threads — plus
//! pinning tests for the BFS push↔pull schedule, which depends only on
//! deterministic frontier statistics and must therefore never drift
//! without an intentional heuristic change.
//!
//! The kernels that read in-edges (direction-optimizing BFS, Afforest,
//! pull PageRank) borrow a graph certified symmetric as its own in-edge
//! graph and transpose any other. Two more gates cover both branches: a
//! certified graph and its uncertified copy must run alike, and a truly
//! directed graph must still match the references.

use crono_algos::{bfs, connected, pagerank, sssp};
use crono_graph::dsu::Dsu;
use crono_graph::gen::catalog::Dataset;
use crono_graph::gen::{preferential_attachment, rmat, road_network, uniform_random, RmatParams};
use crono_graph::{CsrGraph, VertexId};
use crono_runtime::{NativeMachine, RunReport};
use crono_sim::{SimConfig, SimMachine};
use std::fmt::Write as _;

const THREADS: [usize; 3] = [1, 4, 16];

/// One seeded graph per generator family (all five sources the suite
/// ships: uniform, R-MAT, road grid, preferential attachment, and the
/// Table-III catalog stand-ins).
fn generator_zoo() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("uniform_random", uniform_random(300, 1200, 16, 21)),
        ("rmat", rmat(9, 4096, 8, RmatParams::default(), 5)),
        ("road_network", road_network(18, 18, 16, 0.1, 0.02, 7)),
        (
            "preferential_attachment",
            preferential_attachment(400, 4, 16, 9),
        ),
        ("catalog", Dataset::SparseSynthetic.generate(12, 33)),
    ]
}

#[test]
fn dirop_bfs_matches_sequential_on_every_generator() {
    for (name, g) in generator_zoo() {
        let seq = bfs::sequential(&NativeMachine::new(1), &g, 0);
        for threads in THREADS {
            let par = bfs::parallel_dirop(&NativeMachine::new(threads), &g, 0);
            assert_eq!(
                par.output.level, seq.output.level,
                "{name} threads={threads}"
            );
            assert_eq!(par.output.reachable, seq.output.reachable, "{name}");
            assert_eq!(par.output.levels, seq.output.levels, "{name}");
        }
    }
}

#[test]
fn delta_sssp_matches_sequential_on_every_generator() {
    for (name, g) in generator_zoo() {
        let seq = sssp::sequential(&NativeMachine::new(1), &g, 0);
        for threads in THREADS {
            let par = sssp::parallel_delta(&NativeMachine::new(threads), &g, 0);
            assert_eq!(par.output.dist, seq.output.dist, "{name} threads={threads}");
        }
    }
}

#[test]
fn afforest_cc_matches_sequential_on_every_generator() {
    for (name, g) in generator_zoo() {
        let seq = connected::sequential(&NativeMachine::new(1), &g);
        for threads in THREADS {
            let par = connected::parallel_afforest(&NativeMachine::new(threads), &g);
            assert_eq!(
                par.output.labels, seq.output.labels,
                "{name} threads={threads}"
            );
            assert_eq!(par.output.components, seq.output.components, "{name}");
        }
    }
}

/// Pins the push↔pull schedule on a known low-diameter R-MAT: the GAP
/// heuristic must go bottom-up once the frontier's scouted edges
/// dominate the unexplored remainder, and come back down for the tail.
/// The decision uses only aggregate frontier statistics, so the
/// schedule is identical at every thread count.
#[test]
fn dirop_switches_to_pull_on_rmat() {
    let g = rmat(9, 8192, 4, RmatParams::default(), 5);
    let mut schedules = Vec::new();
    for threads in THREADS {
        let (_, modes) = bfs::parallel_dirop_traced(&NativeMachine::new(threads), &g, 0);
        schedules.push(modes);
    }
    assert_eq!(schedules[0], schedules[1]);
    assert_eq!(schedules[1], schedules[2]);
    let modes = &schedules[0];
    assert_eq!(
        modes[0],
        bfs::Direction::Push,
        "level 0 is a single-vertex push"
    );
    assert!(
        modes.contains(&bfs::Direction::Pull),
        "dense R-MAT never triggered bottom-up: {modes:?}"
    );
}

/// Pins the schedule on a known road grid. A high-diameter planar
/// wavefront stays top-down for the whole first half of the traversal
/// (it never scouts enough edges while plenty remain unexplored), and
/// only once the unexplored remainder is nearly exhausted does the
/// alpha test start firing — at which point the small frontier flips
/// straight back, giving a short push/pull oscillation before the
/// all-push tail. The exact level indices are pinned so any change to
/// the heuristic or its bookkeeping is a conscious one.
#[test]
fn dirop_road_grid_schedule_is_pinned() {
    let g = road_network(24, 24, 16, 0.05, 0.0, 11);
    let mut schedules = Vec::new();
    for threads in THREADS {
        let (out, modes) = bfs::parallel_dirop_traced(&NativeMachine::new(threads), &g, 0);
        assert!(
            out.output.levels >= 10,
            "grid should be deep, got {}",
            out.output.levels
        );
        schedules.push(modes);
    }
    assert_eq!(schedules[0], schedules[1]);
    assert_eq!(schedules[1], schedules[2]);
    let pulls: Vec<usize> = schedules[0]
        .iter()
        .enumerate()
        .filter(|&(_, &m)| m == bfs::Direction::Pull)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(schedules[0].len(), 47);
    assert_eq!(pulls, vec![21, 23, 25, 27, 29], "pull levels moved");
}

/// `g`'s `(src, dst, weight)` triples, in CSR order.
fn triples(g: &CsrGraph) -> Vec<(VertexId, VertexId, u32)> {
    (0..g.num_vertices() as VertexId)
        .flat_map(|v| g.neighbors(v).map(move |(u, w)| (v, u, w)))
        .collect()
}

fn instructions(report: &RunReport) -> Vec<u64> {
    report.threads.iter().map(|t| t.instructions).collect()
}

/// Outputs and per-thread instruction counts of the three in-edge
/// kernels on an R-MAT graph and a road grid — certified symmetric by
/// their generators, or, without `certified`, rebuilt by `from_edges`
/// into equal but uncertified copies — at 1 and 4 threads.
///
/// The deterministic simulator keeps the racy claims of BFS and Afforest
/// from varying the counts at 4 threads, but only from the same point of
/// an address space: its timing, and so the order of the races, depends
/// on the symbolic addresses. Both variants allocate the same regions in
/// the same order.
fn in_edge_fingerprint(certified: bool) -> String {
    let graphs = [
        ("rmat", rmat(9, 4096, 8, RmatParams::default(), 5)),
        ("road_network", road_network(18, 18, 16, 0.1, 0.02, 7)),
    ];
    let mut out = String::new();
    for (name, g) in graphs {
        let g = if certified {
            g
        } else {
            CsrGraph::from_edges(g.num_vertices(), triples(&g))
        };
        assert_eq!(g.is_symmetric(), certified, "{name}");
        for threads in [1, 4] {
            let sim = || SimMachine::new(SimConfig::tiny(16), threads).deterministic();
            let bfs = bfs::parallel_dirop(&sim(), &g, 0);
            let cc = connected::parallel_afforest(&sim(), &g);
            let pr = pagerank::parallel_pull(&sim(), &g, 5);
            let ranks: Vec<u64> = pr.output.ranks.iter().map(|r| r.to_bits()).collect();
            let _ = writeln!(out, "{name} threads={threads}");
            let (bfs_instr, cc_instr) = (instructions(&bfs.report), instructions(&cc.report));
            let _ = writeln!(out, "  dirop {bfs_instr:?} {:?}", bfs.output.level);
            let _ = writeln!(out, "  afforest {cc_instr:?} {:?}", cc.output.labels);
            let _ = writeln!(out, "  pull {:?} {ranks:?}", instructions(&pr.report));
        }
    }
    out
}

/// A certified graph is borrowed as its own in-edge graph; its copy is
/// transposed. Both must give the kernels the same in-lists, hence the
/// same outputs and the same work on every thread. Each variant runs on
/// its own fresh thread (see [`in_edge_fingerprint`]).
#[test]
fn certified_and_transposed_in_edges_run_alike() {
    let run = |certified: bool| {
        std::thread::spawn(move || in_edge_fingerprint(certified))
            .join()
            .expect("fingerprint thread")
    };
    let certified = run(true);
    assert_eq!(certified.lines().count(), 2 * 2 * 4, "{certified}");
    assert_eq!(certified, run(false));
}

/// Keeps every edge `v -> u` with `v < u`, and the reverse ones only
/// when `v + u` is a multiple of 3: a graph with one-way edges.
fn one_way(g: &CsrGraph) -> CsrGraph {
    let kept = triples(g)
        .into_iter()
        .filter(|&(v, u, _)| v < u || (v + u) % 3 == 0)
        .collect();
    CsrGraph::from_edges(g.num_vertices(), kept)
}

/// On a directed graph the in-edges are the transpose, not the graph:
/// the kernels must still match BFS over out-edges, union-find over all
/// edges (weak components), and the push-mode PageRank reference bit
/// for bit.
#[test]
fn in_edge_kernels_match_references_on_directed_graphs() {
    for (name, g) in [
        ("rmat", rmat(9, 8192, 4, RmatParams::default(), 5)),
        ("road_network", road_network(18, 18, 16, 0.1, 0.02, 7)),
    ] {
        let g = one_way(&g);
        assert!(!g.is_symmetric(), "{name}");
        assert_ne!(g.transpose(), g, "{name} has one-way edges");
        let level = bfs::sequential(&NativeMachine::new(1), &g, 0).output.level;
        let mut dsu = Dsu::new(g.num_vertices());
        for (v, u, _) in triples(&g) {
            dsu.union(v, u);
        }
        let labels = dsu.canonical_labels();
        let ranks = pagerank::reference(&g, 8);
        for threads in THREADS {
            let m = NativeMachine::new(threads);
            let (bfs, modes) = bfs::parallel_dirop_traced(&m, &g, 0);
            assert_eq!(bfs.output.level, level, "{name} threads={threads}");
            if name == "rmat" {
                assert!(
                    modes.contains(&bfs::Direction::Pull),
                    "bottom-up never ran, so in-edges went unread: {modes:?}"
                );
            }
            let cc = connected::parallel_afforest(&m, &g).output;
            assert_eq!(cc.labels, labels, "{name} threads={threads}");
            assert_eq!(cc.components, dsu.num_components(), "{name}");
            let pr = pagerank::parallel_pull(&m, &g, 8).output;
            assert_eq!(pr.ranks, ranks, "{name} threads={threads}");
        }
    }
}
