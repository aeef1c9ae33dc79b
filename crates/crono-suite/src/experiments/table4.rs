//! Table IV: best speedups across graph types (synthetic sparse, the
//! three road networks, and the social network). APSP, BETW_CENT, and
//! TSP take fixed inputs and are reported as `-`, as in the paper.

use super::fig5::best_speedup;
use crate::report::{f2, Table};
use crate::scale::Scale;
use crate::workload::Workload;
use crono_algos::Benchmark;
use crono_graph::gen::catalog::Dataset;
use crono_sim::SimConfig;

/// Benchmarks that consume the CSR dataset inputs.
const GRAPH_BENCHMARKS: [Benchmark; 7] = [
    Benchmark::SsspDijk,
    Benchmark::Bfs,
    Benchmark::Dfs,
    Benchmark::ConnComp,
    Benchmark::TriCnt,
    Benchmark::PageRank,
    Benchmark::Comm,
];

/// Generates Table IV.
pub fn generate(scale: &Scale, config: &SimConfig, progress: bool) -> Table {
    let mut headers = vec!["Algorithm".to_string()];
    headers.extend(Dataset::ALL.iter().map(|d| d.label().to_string()));
    let mut t = Table::new("Table IV: Best speedups across graph types", headers);

    // Pre-generate the dataset workloads once.
    let workloads: Vec<(Dataset, Workload)> = Dataset::ALL
        .iter()
        .map(|&d| {
            (
                d,
                match d {
                    Dataset::SparseSynthetic => Workload::synthetic(scale),
                    _ => Workload::from_dataset(scale, d),
                },
            )
        })
        .collect();

    for bench in Benchmark::ALL {
        let mut row = vec![bench.label().to_string()];
        if GRAPH_BENCHMARKS.contains(&bench) {
            for (dataset, w) in &workloads {
                if progress {
                    eprintln!("[table4] {bench} on {dataset}");
                }
                row.push(f2(best_speedup(bench, w, scale, config)));
            }
        } else {
            // APSP / BETW_CENT / TSP: only the synthetic column, as in
            // the paper's Table IV.
            if progress {
                eprintln!("[table4] {bench} on Sparse");
            }
            row.push(f2(best_speedup(bench, &workloads[0].1, scale, config)));
            for _ in 1..Dataset::ALL.len() {
                row.push("-".to_string());
            }
        }
        t.push_row(row);
    }
    t
}
