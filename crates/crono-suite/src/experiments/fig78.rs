//! Fig. 7 (normalized completion-time breakdown on out-of-order cores at
//! the best thread count) and Fig. 8 (speedups over the sequential OOO
//! core). Run these on a sweep built with `SimConfig::paper_ooo()`.

use super::fig1::{best_speedup_table, breakdown_cells, BREAKDOWN_HEADERS};
use crate::report::Table;
use crate::runner::Sweep;

/// Fig. 7: stacked normalized completion-time components at the best
/// thread count, OOO cores.
pub fn fig7(sweep: &Sweep) -> Table {
    let mut headers = vec!["Benchmark", "Threads"];
    headers.extend(BREAKDOWN_HEADERS);
    let mut t = Table::new(
        "Fig. 7: OOO normalized completion time at best thread count",
        headers,
    );
    for bench in sweep.benchmarks() {
        let Some((threads, _)) = sweep.best(bench) else {
            continue;
        };
        let Some(report) = sweep.parallel.get(&(bench, threads)) else {
            continue;
        };
        let mut row = vec![bench.label().to_string(), threads.to_string()];
        row.extend(breakdown_cells(report));
        t.push_row(row);
    }
    t
}

/// Fig. 8: speedups at the best thread count over a sequential OOO core.
pub fn fig8(sweep: &Sweep) -> Table {
    best_speedup_table("Fig. 8: Speedups over sequential OOO core", sweep)
}
