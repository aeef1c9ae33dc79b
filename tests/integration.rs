//! Cross-crate integration tests: the full stack from graph generation
//! through simulation to energy modeling.

use crono::algos::{self, Benchmark};
use crono::energy::EnergyModel;
use crono::graph::gen::{road_network, uniform_random};
use crono::runtime::NativeMachine;
use crono::sim::{CoreModel, MeshConfig, SimConfig, SimMachine};

fn small_sim(threads: usize) -> SimMachine {
    SimMachine::new(SimConfig::tiny(16), threads)
}

#[test]
fn backends_agree_on_every_deterministic_benchmark() {
    let graph = uniform_random(192, 768, 16, 77);
    let native = NativeMachine::new(4);
    let sim = small_sim(4);

    assert_eq!(
        algos::sssp::parallel(&native, &graph, 0).output.dist,
        algos::sssp::parallel(&sim, &graph, 0).output.dist
    );
    assert_eq!(
        algos::bfs::parallel(&native, &graph, 0).output.level,
        algos::bfs::parallel(&sim, &graph, 0).output.level
    );
    assert_eq!(
        algos::connected::parallel(&native, &graph).output.labels,
        algos::connected::parallel(&sim, &graph).output.labels
    );
    assert_eq!(
        algos::triangle::parallel(&native, &graph).output.total,
        algos::triangle::parallel(&sim, &graph).output.total
    );
}

#[test]
fn simulated_breakdown_accounts_for_every_cycle() {
    let graph = road_network(12, 12, 8, 0.2, 0.05, 5);
    let outcome = algos::bfs::parallel(&small_sim(4), &graph, 0);
    for t in &outcome.report.threads {
        assert_eq!(t.breakdown.total(), t.finish_time);
    }
}

#[test]
fn energy_model_consumes_simulator_counters() {
    let graph = uniform_random(128, 512, 8, 3);
    let outcome = algos::pagerank::parallel(&small_sim(4), &graph, 3);
    let breakdown = EnergyModel::default().evaluate(&outcome.report.energy);
    assert!(breakdown.total() > 0.0);
    let shares = breakdown.normalized();
    let sum: f64 = shares.components().iter().map(|(_, v)| v).sum();
    assert!((sum - 1.0).abs() < 1e-9);
    // Graph workloads stress the network (the paper's Fig. 6 finding).
    assert!(
        shares.network_share() > 0.1,
        "network share {:.3}",
        shares.network_share()
    );
}

#[test]
fn ooo_cores_beat_in_order_on_memory_bound_work() {
    let graph = uniform_random(512, 2048, 8, 9);
    let inorder = algos::triangle::parallel(&SimMachine::new(SimConfig::tiny(16), 1), &graph);
    let ooo = algos::triangle::parallel(
        &SimMachine::new(
            SimConfig {
                core: CoreModel::paper_ooo(),
                ..SimConfig::tiny(16)
            },
            1,
        ),
        &graph,
    );
    assert_eq!(inorder.output.total, ooo.output.total);
    assert!(
        ooo.report.completion < inorder.report.completion,
        "ooo {} must beat in-order {}",
        ooo.report.completion,
        inorder.report.completion
    );
}

#[test]
fn link_contention_costs_cycles_under_load() {
    // Saturate one link from many host threads at the same simulated
    // instant: with contention modeled, the tail message queues; with the
    // ideal network it does not. (Benchmark-level comparisons are
    // nondeterministic; the mesh itself is the right level to assert.)
    use crono::sim::Mesh;
    let burst = |contention: bool| {
        let mesh = Mesh::new(
            16,
            MeshConfig {
                hop_latency: 2,
                flit_bits: 64,
                link_contention: contention,
                routing: Default::default(),
            },
        );
        let worst = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..32 {
                        let t = mesh.traverse(0, 3, 0, 9);
                        worst.fetch_max(t.arrival, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        worst.into_inner()
    };
    let contended = burst(true);
    let ideal = burst(false);
    assert!(
        contended > ideal,
        "128 × 9 flits through one epoch must queue: {contended} vs {ideal}"
    );
}

#[test]
fn more_threads_do_not_change_algorithmic_results() {
    let graph = uniform_random(256, 1024, 16, 12);
    let base = algos::sssp::parallel(&NativeMachine::new(1), &graph, 0)
        .output
        .dist;
    for threads in [2, 4, 8, 16] {
        let dist = algos::sssp::parallel(&small_sim(threads.min(16)), &graph, 0)
            .output
            .dist;
        assert_eq!(dist, base, "threads={threads}");
    }
}

#[test]
fn load_imbalance_visible_through_variability() {
    // One benchmark with static division on a skewed workload: thread 0
    // owns the heavy hub vertices of an R-MAT graph.
    let graph = crono::graph::gen::rmat(9, 2048, 8, Default::default(), 5);
    let outcome = algos::triangle::parallel(&small_sim(8), &graph);
    assert!(outcome.report.variability() > 0.0);
}

#[test]
fn all_ten_benchmarks_run_on_the_simulator() {
    use crono::suite::{runner::run_parallel, Scale, Workload};
    let w = Workload::synthetic(&Scale::test());
    for bench in Benchmark::ALL {
        let report = run_parallel(bench, &small_sim(4), &w, None);
        assert!(report.completion > 0, "{bench} produced no cycles");
        assert_eq!(report.threads.len(), 4, "{bench}");
        assert!(report.misses.l1d_accesses > 0, "{bench} touched no memory");
    }
}
