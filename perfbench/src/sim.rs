//! `sim-small`: kernels on the simulated Table II machine.

use crate::metrics::{Metrics, SIM_KERNELS};
use crate::spans::{Recorder, ALGOS, GRAPH, SIM};
use crate::stats::median;
use crate::THREADS;
use crono_algos::{bfs, pagerank, sssp, AlgoOutcome};
use crono_runtime::RunReport;
use crono_sim::{SimConfig, SimMachine};
use crono_suite::{Scale, Workload};
use std::time::Instant;

/// The workload's inputs and the native references.
pub struct Setup {
    /// `Workload::synthetic(&Scale::small())` at the benchmark seed.
    pub workload: Workload,
    level: Vec<u32>,
    dist: Vec<u32>,
    ranks: Vec<f64>,
}

/// Generates the workload and the sequential references.
pub fn setup(seed: u64, rec: &mut Recorder) -> (Setup, f64) {
    let start = Instant::now();
    let workload = rec.span(GRAPH, "generate", || {
        Workload::synthetic(&Scale {
            seed,
            ..Scale::small()
        })
    });
    let gen_s = start.elapsed().as_secs_f64();
    let (g, src, iters) = (&workload.graph, workload.source, workload.pagerank_iters);
    let one = crono_runtime::NativeMachine::new(1);
    let level = rec.span(ALGOS, "ref:bfs", || {
        bfs::sequential(&one, g, src).output.level
    });
    let dist = rec.span(ALGOS, "ref:sssp", || {
        sssp::sequential(&one, g, src).output.dist
    });
    let ranks = rec.span(ALGOS, "ref:pagerank", || pagerank::reference(g, iters));
    (
        Setup {
            workload,
            level,
            dist,
            ranks,
        },
        gen_s,
    )
}

/// One simulator run, timed from outside.
#[derive(Debug, Clone)]
pub struct Run {
    /// Wall time of the call, machine construction included.
    pub call_s: f64,
    /// Host wall time of the simulated region.
    pub region_s: f64,
    /// Modeled instructions, all threads.
    pub instructions: u64,
    /// Simulated completion cycles.
    pub completion: u64,
    /// Whether the output matched the reference.
    pub correct: bool,
}

fn run<T>(
    rec: &mut Recorder,
    name: &'static str,
    machine: impl FnOnce() -> SimMachine,
    kernel: impl FnOnce(&SimMachine) -> AlgoOutcome<T>,
    check: impl FnOnce(&T) -> bool,
) -> Run {
    let start = Instant::now();
    let out = rec.span(SIM, name, || kernel(&machine()));
    let call_s = start.elapsed().as_secs_f64();
    let report: &RunReport = &out.report;
    Run {
        call_s,
        region_s: report.wall.as_secs_f64(),
        instructions: report.threads.iter().map(|t| t.instructions).sum(),
        completion: report.completion,
        correct: check(&out.output),
    }
}

fn lax() -> SimMachine {
    SimMachine::new(SimConfig::default(), THREADS)
}

/// One pass: BFS, SSSP_DIJK and PageRank in the sweeps' lax mode, then
/// BFS on the deterministic sequencer. Returns the four runs in order.
pub fn pass(s: &Setup, rec: &mut Recorder) -> [Run; 4] {
    let (g, src, iters) = (
        &s.workload.graph,
        s.workload.source,
        s.workload.pagerank_iters,
    );
    [
        run(
            rec,
            "bfs",
            lax,
            |m| bfs::parallel(m, g, src),
            |o| o.level == s.level,
        ),
        run(
            rec,
            "sssp",
            lax,
            |m| sssp::parallel(m, g, src),
            |o| o.dist == s.dist,
        ),
        run(
            rec,
            "pagerank",
            lax,
            |m| pagerank::parallel(m, g, iters),
            |o| {
                o.ranks.len() == s.ranks.len()
                    && o.ranks
                        .iter()
                        .zip(&s.ranks)
                        .all(|(a, b)| (a - b).abs() <= 1e-9 * b.abs())
            },
        ),
        run(
            rec,
            "bfs_det",
            || lax().deterministic(),
            |m| bfs::parallel(m, g, src),
            |o| o.level == s.level,
        ),
    ]
}

/// Lax-pass instructions and host seconds (the simulator's host speed).
pub fn lax_totals(runs: &[Run; 4]) -> (u64, f64) {
    (
        runs[..3].iter().map(|r| r.instructions).sum(),
        runs[..3].iter().map(|r| r.region_s).sum(),
    )
}

/// Simulator layer metrics: medians over `passes`. The deterministic
/// completion is the first pass's: symbolic addresses are allocated
/// process-wide, so only a fresh process repeats it exactly.
pub fn layer_metrics(passes: &[[Run; 4]], out: &mut Metrics) {
    let col =
        |i: usize, f: fn(&Run) -> f64| median(&passes.iter().map(|p| f(&p[i])).collect::<Vec<_>>());
    for (i, k) in SIM_KERNELS.iter().enumerate() {
        let lax_s = col(i, |r| r.region_s);
        let minstr = col(i, |r| r.instructions as f64 / 1e6);
        out.put(format!("crono-sim.{k}.lax_s"), lax_s);
        out.put(format!("crono-sim.{k}.minstr"), minstr);
        out.put(format!("crono-sim.{k}.minstr_per_s"), minstr / lax_s);
    }
    let det_s = col(3, |r| r.region_s);
    out.put("crono-sim.bfs.det_s", det_s);
    out.put("crono-sim.det_slowdown", det_s / col(0, |r| r.region_s));
    out.put(
        "crono-sim.bfs.det_completion_cycles",
        passes[0][3].completion as f64,
    );
}
