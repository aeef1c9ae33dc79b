//! Fig. 5: vertex-scalability study — best speedups across input sizes
//! (sparse graphs 16 K – 4 M vertices; APSP/BETW_CENT matrices
//! 1 K – 32 K; TSP 4 – 32 cities at paper scale).

use crate::report::{f2, Table};
use crate::runner::{run_parallel, run_sequential};
use crate::scale::Scale;
use crate::workload::Workload;
use crono_algos::Benchmark;
use crono_graph::gen::tsp_cities;
use crono_sim::{SimConfig, SimMachine};

/// The CSR benchmarks swept over sparse-graph sizes.
const CSR_BENCHMARKS: [Benchmark; 7] = [
    Benchmark::SsspDijk,
    Benchmark::Bfs,
    Benchmark::Dfs,
    Benchmark::ConnComp,
    Benchmark::TriCnt,
    Benchmark::PageRank,
    Benchmark::Comm,
];

/// `bench`'s best speedup on `w` over its sequential reference, across
/// `scale`'s probe thread counts that fit on `config` (Fig. 5, Table IV).
/// A run that completes in zero cycles scores 0, as in
/// [`crate::runner::Sweep::speedup`].
pub(crate) fn best_speedup(
    bench: Benchmark,
    w: &Workload,
    scale: &Scale,
    config: &SimConfig,
) -> f64 {
    let seq = run_sequential(bench, &SimMachine::new(config.clone(), 1), w);
    scale
        .probe_thread_counts()
        .iter()
        .filter(|&&t| t <= config.num_cores)
        .map(|&t| {
            let report = run_parallel(bench, &SimMachine::new(config.clone(), t), w, None);
            if report.completion == 0 {
                0.0
            } else {
                seq.completion as f64 / report.completion as f64
            }
        })
        .max_by(f64::total_cmp)
        .expect("at least one thread count")
}

/// The three panels of Fig. 5 as three tables.
pub fn generate(scale: &Scale, config: &SimConfig, progress: bool) -> Vec<Table> {
    let mut csr = Table::new("Fig. 5a: Best speedups vs sparse-graph vertex count", {
        let mut h = vec!["Benchmark".to_string()];
        h.extend(scale.vertex_scale_points.iter().map(|v| format!("{v}v")));
        h
    });
    for bench in CSR_BENCHMARKS {
        let mut row = vec![bench.label().to_string()];
        for &v in &scale.vertex_scale_points {
            if progress {
                eprintln!("[fig5] {bench} @ {v} vertices");
            }
            let w = Workload::with_sparse_size(scale, v);
            row.push(f2(best_speedup(bench, &w, scale, config)));
        }
        csr.push_row(row);
    }

    let mut matrix = Table::new("Fig. 5b: Best speedups vs APSP/BETW_CENT vertex count", {
        let mut h = vec!["Benchmark".to_string()];
        h.extend(scale.matrix_scale_points.iter().map(|v| format!("{v}v")));
        h
    });
    for bench in [Benchmark::Apsp, Benchmark::BetwCent] {
        let mut row = vec![bench.label().to_string()];
        for &v in &scale.matrix_scale_points {
            if progress {
                eprintln!("[fig5] {bench} @ {v} vertices");
            }
            let mut w = Workload::synthetic(scale);
            w.matrix = Workload::matrix_input(v, scale.seed);
            row.push(f2(best_speedup(bench, &w, scale, config)));
        }
        matrix.push_row(row);
    }

    let mut tsp = Table::new("Fig. 5c: Best speedups vs TSP city count", {
        let mut h = vec!["Benchmark".to_string()];
        h.extend(scale.tsp_scale_points.iter().map(|c| format!("{c}c")));
        h
    });
    let mut row = vec![Benchmark::Tsp.label().to_string()];
    for &c in &scale.tsp_scale_points {
        if progress {
            eprintln!("[fig5] TSP @ {c} cities");
        }
        let mut w = Workload::synthetic(scale);
        w.tsp = tsp_cities(c, scale.seed);
        row.push(f2(best_speedup(Benchmark::Tsp, &w, scale, config)));
    }
    tsp.push_row(row);

    vec![csr, matrix, tsp]
}
