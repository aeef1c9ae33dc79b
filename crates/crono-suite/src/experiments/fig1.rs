//! Fig. 1: normalized completion-time breakdowns vs thread count, with
//! the load-imbalance (variability) secondary axis and the best-thread-
//! count speedup annotation.

use crate::report::{f2, pct, Table};
use crate::runner::Sweep;
use crono_runtime::RunReport;

/// The six completion-time components of Figs. 1 and 7.
pub(crate) const BREAKDOWN_HEADERS: [&str; 6] = [
    "Compute%",
    "L1Cache-L2Home%",
    "L2Home-Waiting%",
    "L2Home-Sharers%",
    "L2Home-OffChip%",
    "Synchronization%",
];

/// `report`'s [`BREAKDOWN_HEADERS`] cells, each a share of its total.
pub(crate) fn breakdown_cells(report: &RunReport) -> [String; 6] {
    let b = report.breakdown();
    let total = b.total().max(1) as f64;
    [
        b.compute,
        b.l1_to_l2home,
        b.l2home_waiting,
        b.l2home_sharers,
        b.l2home_offchip,
        b.synchronization,
    ]
    .map(|cycles| pct(cycles as f64 / total))
}

/// One table covering every benchmark: one row per
/// `(benchmark, thread count)` with the six normalized components,
/// variability, and speedup over the sequential reference.
pub fn generate(sweep: &Sweep) -> Table {
    let mut headers = vec!["Benchmark", "Threads"];
    headers.extend(BREAKDOWN_HEADERS);
    headers.extend(["Variability", "Speedup"]);
    let mut t = Table::new("Fig. 1: Normalized completion time breakdowns", headers);
    for bench in sweep.benchmarks() {
        for threads in sweep.thread_counts() {
            let Some(report) = sweep.parallel.get(&(bench, threads)) else {
                continue;
            };
            let mut row = vec![bench.label().to_string(), threads.to_string()];
            row.extend(breakdown_cells(report));
            row.push(f2(report.variability()));
            row.push(f2(sweep.speedup(bench, threads).unwrap_or(0.0)));
            t.push_row(row);
        }
    }
    t
}

/// The per-benchmark best-speedup summary printed above each Fig. 1
/// panel.
pub fn best_speedups(sweep: &Sweep) -> Table {
    best_speedup_table("Fig. 1 (annotations): best speedups", sweep)
}

/// Each benchmark's best thread count and its speedup there, under
/// `title` (Fig. 1's annotations, Fig. 8).
pub(crate) fn best_speedup_table(title: &str, sweep: &Sweep) -> Table {
    let mut t = Table::new(title, vec!["Benchmark", "Best threads", "Speedup"]);
    for bench in sweep.benchmarks() {
        let Some((threads, speedup)) = sweep.best(bench) else {
            continue;
        };
        t.push_row(vec![
            bench.label().to_string(),
            threads.to_string(),
            f2(speedup),
        ]);
    }
    t
}
