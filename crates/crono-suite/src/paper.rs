//! The paper's published numbers, embedded for paper-vs-measured
//! comparison (`crono compare` and `EXPERIMENTS.md`).
//!
//! All values are read off the IISWC 2015 paper: Table IV's best
//! speedups on the synthetic sparse graph and the §V prose/figure
//! annotations.

use crate::report::{f2, Table};
use crate::runner::Sweep;
use crono_algos::Benchmark;

/// Best speedups from Table IV, synthetic sparse column.
pub fn table4_sparse(bench: Benchmark) -> f64 {
    match bench {
        Benchmark::SsspDijk => 4.45,
        Benchmark::Apsp => 204.0,
        Benchmark::BetwCent => 180.0,
        Benchmark::Bfs => 8.26,
        Benchmark::Dfs => 3.57,
        Benchmark::Tsp => 10.7,
        Benchmark::ConnComp => 78.5,
        Benchmark::TriCnt => 8.93,
        Benchmark::PageRank => 5.37,
        Benchmark::Comm => 24.0,
    }
}

/// Qualitative claims of §V the reproduction should preserve, as
/// machine-checkable predicates over a sweep. Returns `(claim, holds)`.
pub fn check_claims(sweep: &Sweep) -> Vec<(&'static str, bool)> {
    // Benchmarks a filtered sweep excluded score 0 / have no breakdown:
    // the claims referencing them read "NO" instead of panicking.
    let best = |b: Benchmark| sweep.best(b).map_or(0.0, |(_, s)| s);
    let breakdown_at_best = |b: Benchmark| sweep.best_report(b).map(|r| r.breakdown());
    let mut claims = Vec::new();

    claims.push((
        "APSP and BETW_CENT scale best (near-linear, vertex capture)",
        best(Benchmark::Apsp) > best(Benchmark::Bfs)
            && best(Benchmark::BetwCent) > best(Benchmark::Bfs)
            && best(Benchmark::Apsp) > 0.4 * sweep.scale.thread_counts.last().copied().unwrap_or(256) as f64,
    ));
    claims.push((
        "DFS scales worst among the search benchmarks",
        best(Benchmark::Dfs) <= best(Benchmark::Bfs),
    ));
    claims.push((
        "SSSP_DIJK and PageRank scale less than BFS (data-dependent accesses)",
        best(Benchmark::SsspDijk) <= best(Benchmark::Bfs) * 1.5
            && best(Benchmark::PageRank) <= best(Benchmark::ConnComp),
    ));
    claims.push((
        "CONN_COMP scales well but below APSP/BETW_CENT",
        best(Benchmark::ConnComp) < best(Benchmark::Apsp)
            && best(Benchmark::ConnComp) < best(Benchmark::BetwCent)
            && best(Benchmark::ConnComp) > best(Benchmark::TriCnt),
    ));
    claims.push((
        "synchronization/coherence dominate the weak scalers at best threads",
        breakdown_at_best(Benchmark::SsspDijk).is_some_and(|b| {
            let comm_share = (b.synchronization + b.l2home_waiting + b.l2home_sharers) as f64
                / b.total().max(1) as f64;
            comm_share > 0.3
        }),
    ));
    claims.push((
        "compute and L1Cache-L2Home dominate APSP at best threads",
        breakdown_at_best(Benchmark::Apsp)
            .is_some_and(|b| (b.compute + b.l1_to_l2home) as f64 / b.total().max(1) as f64 > 0.5),
    ));
    claims.push((
        "off-chip bandwidth is not the scalability limiter at best threads",
        Benchmark::ALL.iter().all(|&b| {
            if !sweep.sequential.contains_key(&b) {
                return true;
            }
            breakdown_at_best(b).is_none_or(|br| br.l2home_offchip * 2 < br.total().max(1))
        }),
    ));
    claims
}

/// `crono compare`: paper-vs-measured table for the synthetic-sparse
/// best speedups, plus the qualitative §V claims.
pub fn compare(sweep: &Sweep) -> Vec<Table> {
    let mut t = Table::new(
        "Paper vs measured: best speedups (synthetic sparse)",
        vec!["Benchmark", "Paper", "Measured", "Best threads", "Ratio"],
    );
    for bench in sweep.benchmarks() {
        let Some((threads, measured)) = sweep.best(bench) else {
            continue;
        };
        let paper = table4_sparse(bench);
        t.push_row(vec![
            bench.label().to_string(),
            f2(paper),
            f2(measured),
            threads.to_string(),
            f2(measured / paper),
        ]);
    }
    let mut claims = Table::new(
        "Qualitative claims of §V",
        vec!["Claim", "Holds"],
    );
    for (claim, holds) in check_claims(sweep) {
        claims.push_row(vec![claim.to_string(), if holds { "yes" } else { "NO" }.to_string()]);
    }
    vec![t, claims]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_reference_covers_all_benchmarks() {
        for b in Benchmark::ALL {
            assert!(table4_sparse(b) > 0.0);
        }
    }
}
