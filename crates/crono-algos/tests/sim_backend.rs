//! Every benchmark must produce the same algorithmic output on the
//! simulated backend as on the native backend — the two backends differ
//! only in what they *observe*, never in what the benchmark computes.

use crono_algos::*;
use crono_graph::gen::{tsp_cities, uniform_random};
use crono_graph::AdjacencyMatrix;
use crono_runtime::NativeMachine;
use crono_sim::{SimConfig, SimMachine};

fn sim(threads: usize) -> SimMachine {
    SimMachine::new(SimConfig::tiny(16), threads)
}

#[test]
fn sssp_same_on_both_backends() {
    let g = uniform_random(128, 512, 16, 21);
    let native = sssp::parallel(&NativeMachine::new(4), &g, 0);
    let simmed = sssp::parallel(&sim(4), &g, 0);
    assert_eq!(native.output.dist, simmed.output.dist);
    assert!(simmed.report.completion > 0);
    assert!(simmed.report.misses.l1d_accesses > 0);
}

#[test]
fn bfs_same_on_both_backends() {
    let g = uniform_random(128, 512, 4, 22);
    let native = bfs::parallel(&NativeMachine::new(4), &g, 0);
    let simmed = bfs::parallel(&sim(4), &g, 0);
    assert_eq!(native.output.level, simmed.output.level);
}

#[test]
fn apsp_same_on_both_backends() {
    let m = AdjacencyMatrix::from_csr(&uniform_random(32, 100, 8, 23));
    let native = apsp::parallel(&NativeMachine::new(4), &m);
    let simmed = apsp::parallel(&sim(4), &m);
    assert_eq!(native.output.dist, simmed.output.dist);
}

#[test]
fn betweenness_same_on_both_backends() {
    let m = AdjacencyMatrix::from_csr(&uniform_random(24, 70, 8, 24));
    let native = betweenness::parallel(&NativeMachine::new(2), &m);
    let simmed = betweenness::parallel(&sim(2), &m);
    assert_eq!(native.output.centrality, simmed.output.centrality);
}

#[test]
fn dfs_visits_component_on_sim() {
    let g = uniform_random(96, 300, 4, 25);
    let simmed = dfs::parallel(&sim(4), &g, 0, None);
    assert_eq!(simmed.output.visited, 96);
}

#[test]
fn tsp_optimal_on_sim() {
    let inst = tsp_cities(8, 26);
    let native = tsp::parallel(&NativeMachine::new(4), &inst);
    let simmed = tsp::parallel(&sim(4), &inst);
    assert_eq!(native.output.best_len, simmed.output.best_len);
}

#[test]
fn connected_components_same_on_both_backends() {
    let g = uniform_random(128, 300, 4, 27);
    let native = connected::parallel(&NativeMachine::new(4), &g);
    let simmed = connected::parallel(&sim(4), &g);
    assert_eq!(native.output.labels, simmed.output.labels);
}

#[test]
fn triangles_same_on_both_backends() {
    let g = uniform_random(64, 250, 4, 28);
    let native = triangle::parallel(&NativeMachine::new(4), &g);
    let simmed = triangle::parallel(&sim(4), &g);
    assert_eq!(native.output.total, simmed.output.total);
    assert_eq!(native.output.per_vertex, simmed.output.per_vertex);
}

#[test]
fn pagerank_same_on_both_backends() {
    let g = uniform_random(64, 250, 4, 29);
    let native = pagerank::parallel(&NativeMachine::new(4), &g, 5);
    let simmed = pagerank::parallel(&sim(4), &g, 5);
    for (a, b) in native.output.ranks.iter().zip(&simmed.output.ranks) {
        assert!((a - b).abs() < 1e-9);
    }
}

#[test]
fn community_valid_on_sim() {
    let g = uniform_random(64, 250, 8, 30);
    let simmed = community::parallel(&sim(4), &g, 8);
    assert!(simmed.output.modularity >= -0.5 && simmed.output.modularity <= 1.0);
    assert!(simmed.output.num_communities >= 1);
}

#[test]
fn sim_breakdown_components_sum_to_thread_time() {
    let g = uniform_random(96, 400, 8, 31);
    let outcome = sssp::parallel(&sim(4), &g, 0);
    for (tid, t) in outcome.report.threads.iter().enumerate() {
        assert_eq!(
            t.breakdown.total(),
            t.finish_time,
            "thread {tid}: breakdown must account for every cycle"
        );
    }
}

#[test]
fn sim_completion_is_max_thread_time() {
    let g = uniform_random(96, 400, 8, 32);
    let outcome = bfs::parallel(&sim(4), &g, 0);
    let max = outcome
        .report
        .threads
        .iter()
        .map(|t| t.finish_time)
        .max()
        .unwrap();
    assert_eq!(outcome.report.completion, max);
}

#[test]
fn every_benchmark_records_active_vertices() {
    use crono_graph::AdjacencyMatrix;
    let g = uniform_random(96, 380, 8, 40);
    let m = AdjacencyMatrix::from_csr(&uniform_random(24, 70, 8, 41));
    let inst = tsp_cities(7, 42);
    let machine = sim(4);
    let traces = vec![
        ("sssp", sssp::parallel(&machine, &g, 0).report),
        ("apsp", apsp::parallel(&machine, &m).report),
        ("betw", betweenness::parallel(&machine, &m).report),
        ("bfs", bfs::parallel(&machine, &g, 0).report),
        ("dfs", dfs::parallel(&machine, &g, 0, None).report),
        ("tsp", tsp::parallel(&machine, &inst).report),
        ("conn", connected::parallel(&machine, &g).report),
        ("tri", triangle::parallel(&machine, &g).report),
        ("pagerank", pagerank::parallel(&machine, &g, 3).report),
        ("comm", community::parallel(&machine, &g, 4).report),
    ];
    for (name, report) in traces {
        let trace = report.active_vertex_trace();
        assert!(!trace.is_empty(), "{name} recorded no active-vertex samples");
        assert!(
            trace.iter().all(|&(t, _)| t <= report.completion),
            "{name} has samples beyond completion"
        );
    }
}

#[test]
fn miss_classes_sum_to_misses() {
    let g = uniform_random(96, 400, 8, 33);
    let outcome = pagerank::parallel(&sim(4), &g, 3);
    let m = &outcome.report.misses;
    assert_eq!(
        m.l1d_misses(),
        m.cold_misses + m.capacity_misses + m.sharing_misses
    );
    assert!(m.l1d_misses() <= m.l1d_accesses);
    assert!(m.l2_misses <= m.l2_accesses);
}
