//! Dispatches benchmarks onto machines and caches sweep results that
//! several figures share.

use crate::scale::Scale;
use crate::workload::Workload;
use crono_algos::{
    apsp, betweenness, bfs, community, connected, dfs, pagerank, sssp, triangle, tsp, Ablation,
    Benchmark,
};
use crono_runtime::{Machine, NativeMachine, RunReport};
use crono_sim::{SimConfig, SimMachine};
use crono_trace::TraceConfig;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Runs `bench`'s *parallel* version on `machine`, discarding the
/// algorithmic output.
pub fn run_parallel<M: Machine>(bench: Benchmark, machine: &M, w: &Workload) -> RunReport {
    match bench {
        Benchmark::SsspDijk => sssp::parallel(machine, &w.graph, w.source).report,
        Benchmark::Apsp => apsp::parallel(machine, &w.matrix).report,
        Benchmark::BetwCent => betweenness::parallel(machine, &w.matrix).report,
        Benchmark::Bfs => bfs::parallel(machine, &w.graph, w.source).report,
        Benchmark::Dfs => dfs::parallel(machine, &w.graph, w.source, None).report,
        Benchmark::Tsp => tsp::parallel(machine, &w.tsp).report,
        Benchmark::ConnComp => connected::parallel(machine, &w.graph).report,
        Benchmark::TriCnt => triangle::parallel(machine, &w.graph).report,
        Benchmark::PageRank => pagerank::parallel(machine, &w.graph, w.pagerank_iters).report,
        Benchmark::Comm => community::parallel(machine, &w.graph, w.comm_rounds).report,
    }
}

/// As [`run_parallel`], but substituting the optimized kernel variant
/// when `ablation` applies to `bench`; every other benchmark runs its
/// paper-faithful default, so ablated sweeps stay comparable.
pub fn run_parallel_ablated<M: Machine>(
    bench: Benchmark,
    machine: &M,
    w: &Workload,
    ablation: Option<Ablation>,
) -> RunReport {
    match (ablation, bench) {
        (Some(Ablation::FrontierRepr), Benchmark::Bfs) => {
            bfs::parallel_bitmap(machine, &w.graph, w.source).report
        }
        (Some(Ablation::FrontierRepr), Benchmark::SsspDijk) => {
            sssp::parallel_bitmap(machine, &w.graph, w.source).report
        }
        (Some(Ablation::PagerankUpdate), Benchmark::PageRank) => {
            pagerank::parallel_cas(machine, &w.graph, w.pagerank_iters).report
        }
        (Some(Ablation::TaskSteal), Benchmark::Apsp) => {
            apsp::parallel_steal(machine, &w.matrix).report
        }
        (Some(Ablation::TaskSteal), Benchmark::BetwCent) => {
            betweenness::parallel_steal(machine, &w.matrix).report
        }
        (Some(Ablation::TaskSteal), Benchmark::Dfs) => {
            dfs::parallel_steal(machine, &w.graph, w.source, None).report
        }
        (Some(Ablation::LockfreeBound), Benchmark::Tsp) => {
            tsp::parallel_lockfree(machine, &w.tsp).report
        }
        (Some(Ablation::DiropBfs), Benchmark::Bfs) => {
            bfs::parallel_dirop(machine, &w.graph, w.source).report
        }
        (Some(Ablation::DeltaSssp), Benchmark::SsspDijk) => {
            sssp::parallel_delta(machine, &w.graph, w.source).report
        }
        (Some(Ablation::AfforestCc), Benchmark::ConnComp) => {
            connected::parallel_afforest(machine, &w.graph).report
        }
        _ => run_parallel(bench, machine, w),
    }
}

/// Runs `bench`'s *sequential reference* on a one-thread machine.
///
/// # Panics
///
/// Panics if `machine.num_threads() != 1`.
pub fn run_sequential<M: Machine>(bench: Benchmark, machine: &M, w: &Workload) -> RunReport {
    match bench {
        Benchmark::SsspDijk => sssp::sequential(machine, &w.graph, w.source).report,
        Benchmark::Apsp => apsp::sequential(machine, &w.matrix).report,
        Benchmark::BetwCent => betweenness::sequential(machine, &w.matrix).report,
        Benchmark::Bfs => bfs::sequential(machine, &w.graph, w.source).report,
        Benchmark::Dfs => dfs::sequential(machine, &w.graph, w.source, None).report,
        Benchmark::Tsp => tsp::sequential(machine, &w.tsp).report,
        Benchmark::ConnComp => connected::sequential(machine, &w.graph).report,
        Benchmark::TriCnt => triangle::sequential(machine, &w.graph).report,
        Benchmark::PageRank => pagerank::sequential(machine, &w.graph, w.pagerank_iters).report,
        Benchmark::Comm => community::sequential(machine, &w.graph, w.comm_rounds).report,
    }
}

/// One full simulator sweep over thread counts, shared by Figs. 1–4
/// and 6 (and, with the OOO config, Figs. 7–8).
#[derive(Debug)]
pub struct Sweep {
    /// The scale that generated the workload.
    pub scale: Scale,
    /// The simulator configuration used.
    pub config: SimConfig,
    /// Sequential-reference report per benchmark (one simulated thread).
    pub sequential: HashMap<Benchmark, RunReport>,
    /// Parallel report per `(benchmark, thread_count)`.
    pub parallel: HashMap<(Benchmark, usize), RunReport>,
}

impl Sweep {
    /// Runs every benchmark at every thread count of `scale` on the
    /// simulator. `progress` lines go to stderr.
    pub fn run(scale: &Scale, config: &SimConfig, progress: bool) -> Sweep {
        Self::run_filtered(scale, config, progress, &Benchmark::ALL)
    }

    /// As [`Sweep::run`], restricted to `benchmarks`.
    pub fn run_filtered(
        scale: &Scale,
        config: &SimConfig,
        progress: bool,
        benchmarks: &[Benchmark],
    ) -> Sweep {
        let w = Workload::synthetic(scale);
        let mut sequential = HashMap::new();
        let mut parallel = HashMap::new();
        for &bench in benchmarks {
            if progress {
                eprintln!("[sweep] {bench}: sequential reference");
            }
            let seq_machine = SimMachine::new(config.clone(), 1);
            sequential.insert(bench, run_sequential(bench, &seq_machine, &w));
            for &threads in &scale.thread_counts {
                if threads > config.num_cores {
                    continue;
                }
                if progress {
                    eprintln!("[sweep] {bench}: {threads} threads");
                }
                let machine = SimMachine::new(config.clone(), threads);
                parallel.insert((bench, threads), run_parallel(bench, &machine, &w));
            }
        }
        Sweep {
            scale: scale.clone(),
            config: config.clone(),
            sequential,
            parallel,
        }
    }

    /// The benchmarks this sweep covers, in suite order.
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        Benchmark::ALL
            .iter()
            .copied()
            .filter(|b| self.sequential.contains_key(b))
            .collect()
    }

    /// Thread counts actually swept, ascending.
    pub fn thread_counts(&self) -> Vec<usize> {
        let mut t: Vec<usize> = self
            .parallel
            .keys()
            .filter(|(b, _)| Some(b) == self.benchmarks().first())
            .map(|&(_, t)| t)
            .collect();
        t.sort_unstable();
        t
    }

    /// Speedup of `bench` at `threads` over its sequential reference, or
    /// `None` when the sweep did not cover that `(bench, threads)` point
    /// (filtered sweeps legitimately exclude benchmarks and thread
    /// counts — indexing would panic).
    pub fn speedup(&self, bench: Benchmark, threads: usize) -> Option<f64> {
        let seq = self.sequential.get(&bench)?.completion as f64;
        let par = self.parallel.get(&(bench, threads))?.completion as f64;
        Some(if par == 0.0 { 0.0 } else { seq / par })
    }

    /// `(threads, speedup)` of the best-performing thread count (the
    /// paper reports most per-benchmark statistics "at the best thread
    /// count"), or `None` when the sweep excluded `bench`.
    pub fn best(&self, bench: Benchmark) -> Option<(usize, f64)> {
        self.parallel
            .keys()
            .filter(|(b, _)| *b == bench)
            .filter_map(|&(_, t)| Some((t, self.speedup(bench, t)?)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// The report at `bench`'s best thread count, or `None` when the
    /// sweep excluded `bench`.
    pub fn best_report(&self, bench: Benchmark) -> Option<&RunReport> {
        let (t, _) = self.best(bench)?;
        self.parallel.get(&(bench, t))
    }

    /// Re-runs every swept benchmark at its best thread count with event
    /// tracing enabled and writes one Chrome trace JSON per benchmark
    /// into `dir` (created if missing). Returns the written paths.
    ///
    /// The traced runs are separate simulations — the sweep itself stays
    /// untraced so its timings are the zero-overhead ones the figures
    /// report.
    pub fn write_traces(
        &self,
        dir: &Path,
        trace_config: &TraceConfig,
        progress: bool,
    ) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for bench in self.benchmarks() {
            let Some((threads, _)) = self.best(bench) else {
                continue;
            };
            if progress {
                eprintln!("[trace] {bench}: {threads} threads");
            }
            let trace = crate::trace::run_traced(
                bench,
                &self.scale,
                threads,
                crate::trace::TraceBackend::Sim,
                &self.config,
                trace_config,
            );
            let path = dir.join(format!("{}_{threads}t.json", bench.label()));
            std::fs::write(&path, trace.to_chrome_json())?;
            written.push(path);
        }
        Ok(written)
    }
}

/// Native-machine sweep used by Fig. 9.
#[derive(Debug)]
pub struct NativeSweep {
    /// Sequential wall-time report per benchmark.
    pub sequential: HashMap<Benchmark, RunReport>,
    /// Parallel wall-time report per `(benchmark, thread_count)`.
    pub parallel: HashMap<(Benchmark, usize), RunReport>,
    /// Thread counts swept.
    pub thread_counts: Vec<usize>,
}

impl NativeSweep {
    /// Runs every benchmark natively over the scale's native thread
    /// counts, repeating each measurement `repeats` times and keeping the
    /// fastest (wall-clock noise suppression).
    pub fn run(scale: &Scale, repeats: usize, progress: bool) -> NativeSweep {
        let w = Workload::synthetic(scale);
        let mut sequential = HashMap::new();
        let mut parallel = HashMap::new();
        for bench in Benchmark::ALL {
            if progress {
                eprintln!("[native] {bench}");
            }
            let machine = NativeMachine::new(1);
            let best = (0..repeats.max(1))
                .map(|_| run_sequential(bench, &machine, &w))
                .min_by_key(|r| r.completion)
                .expect("at least one repeat");
            sequential.insert(bench, best);
            for &threads in &scale.native_thread_counts {
                let machine = NativeMachine::new(threads);
                let best = (0..repeats.max(1))
                    .map(|_| run_parallel(bench, &machine, &w))
                    .min_by_key(|r| r.completion)
                    .expect("at least one repeat");
                parallel.insert((bench, threads), best);
            }
        }
        NativeSweep {
            sequential,
            parallel,
            thread_counts: scale.native_thread_counts.clone(),
        }
    }

    /// Wall-clock speedup of `bench` at `threads`, or `None` when the
    /// sweep did not cover that point.
    pub fn speedup(&self, bench: Benchmark, threads: usize) -> Option<f64> {
        let seq = self.sequential.get(&bench)?.completion as f64;
        let par = self.parallel.get(&(bench, threads))?.completion as f64;
        Some(if par == 0.0 { 0.0 } else { seq / par })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_dispatches_on_native() {
        let w = Workload::synthetic(&Scale::test());
        let machine = NativeMachine::new(2);
        for bench in Benchmark::ALL {
            let report = run_parallel(bench, &machine, &w);
            assert_eq!(report.threads.len(), 2, "{bench}");
        }
    }

    #[test]
    fn sequential_dispatch_requires_one_thread() {
        let w = Workload::synthetic(&Scale::test());
        let machine = NativeMachine::new(1);
        for bench in Benchmark::ALL {
            let report = run_sequential(bench, &machine, &w);
            assert_eq!(report.threads.len(), 1, "{bench}");
        }
    }

    #[test]
    fn sweep_indexes_are_complete() {
        let scale = Scale::test();
        let config = SimConfig::tiny(16);
        let sweep = Sweep::run_filtered(
            &scale,
            &config,
            false,
            &[Benchmark::Bfs, Benchmark::TriCnt],
        );
        assert_eq!(sweep.benchmarks(), vec![Benchmark::Bfs, Benchmark::TriCnt]);
        assert_eq!(sweep.thread_counts(), vec![1, 4, 16]);
        let (t, s) = sweep.best(Benchmark::Bfs).expect("BFS was swept");
        assert!(scale.thread_counts.contains(&t));
        assert!(s > 0.0);
        assert!(sweep.best_report(Benchmark::Bfs).expect("BFS was swept").completion > 0);
    }

    /// Regression: the accessors used to index the maps directly and
    /// panicked when asked about a benchmark a filtered sweep excluded.
    #[test]
    fn filtered_sweep_accessors_return_none_instead_of_panicking() {
        let scale = Scale::test();
        let config = SimConfig::tiny(16);
        let sweep = Sweep::run_filtered(&scale, &config, false, &[Benchmark::Bfs]);
        // Excluded benchmark: every accessor answers None, no panic.
        assert_eq!(sweep.speedup(Benchmark::Tsp, 4), None);
        assert_eq!(sweep.best(Benchmark::Tsp), None);
        assert!(sweep.best_report(Benchmark::Tsp).is_none());
        // Covered benchmark at an unswept thread count: also None.
        assert_eq!(sweep.speedup(Benchmark::Bfs, 999), None);
        // Covered points still answer.
        assert!(sweep.speedup(Benchmark::Bfs, 4).expect("swept point") > 0.0);
    }

    /// Regression (native flavor of the same bug): `NativeSweep::speedup`
    /// indexed both maps directly.
    #[test]
    fn native_sweep_speedup_is_none_off_the_swept_grid() {
        let sweep = NativeSweep {
            sequential: HashMap::new(),
            parallel: HashMap::new(),
            thread_counts: vec![1, 2],
        };
        assert_eq!(sweep.speedup(Benchmark::Bfs, 2), None);
    }

    #[test]
    fn sweep_write_traces_emits_one_file_per_benchmark() {
        let scale = Scale::test();
        let config = SimConfig::tiny(16);
        let sweep = Sweep::run_filtered(&scale, &config, false, &[Benchmark::Bfs]);
        let dir = std::env::temp_dir().join(format!("crono-sweep-trace-{}", std::process::id()));
        let paths = sweep
            .write_traces(&dir, &TraceConfig::default(), false)
            .expect("traces written");
        assert_eq!(paths.len(), 1);
        let json = std::fs::read_to_string(&paths[0]).expect("file exists");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"benchmark\": \"BFS\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
