//! Golden counter-invariance gates.
//!
//! Host-side work (allocation- and refcount-free `SimCtx::mem_op` /
//! `drain_coherence`, relaxed inbox notification, kernel refactors) must
//! leave every *simulated* number bit-identical: completion time, the
//! miss classification, coherence/NoC/DRAM energy counters, and the
//! traced event summaries. Two gates pin them against golden
//! fingerprints:
//!
//! - `tests/golden_counters.txt`: BFS and PageRank, then SSSP_DIJK, the
//!   `frontier_repr` variants of BFS and SSSP_DIJK, the three kernels
//!   that read in-edges (`dirop_bfs`, `afforest_cc`, `delta_sssp`), the
//!   `pagerank_update` variant of PageRank, and pull PageRank (the
//!   serving engine's snapshot kernel, which no ablation reaches), all
//!   at 1, 4 and 16 threads; then BFS, PageRank and SSSP_DIJK at 2
//!   threads, the only pinned runs that fit a 2-core host, where the
//!   sequencer spins for the run token instead of parking; then COMM,
//!   TRI_CNT and the default CONN_COMP at 1, 4 and 16 threads;
//! - `tests/golden_counters_taskpar.txt`: the task-parallel defaults
//!   (APSP, BETW_CENT, TSP, DFS), which the opt-in work-stealing
//!   variants must leave bit-identical, then those variants themselves
//!   (`task_steal` for APSP, BETW_CENT and DFS, `lockfree_bound` for
//!   TSP).
//!
//! Symbolic addresses come from the calling thread's address space
//! (`crono_runtime::AddressSpace`), so a fingerprint is reproducible on
//! any thread that allocated nothing before it. libtest runs each test
//! on a fresh thread, so each gate computes its fingerprint on its own
//! test thread and compares it to the checked-in golden file. New runs
//! are appended to a gate's list, so earlier runs keep their addresses.
//!
//! To regenerate after an *intentional* timing-model change:
//!
//! ```text
//! CRONO_GOLDEN_UPDATE=1 cargo test -p crono-suite --test counter_invariance
//! ```

use crono_algos::{pagerank, Ablation, Benchmark};
use crono_sim::{FaultPlan, SimConfig, SimMachine};
use crono_suite::runner::run_parallel;
use crono_suite::trace::{assemble, TraceBackend};
use crono_suite::{Scale, Workload};
use crono_trace::TraceConfig;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden_counters.txt");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_counters.txt");
const TASKPAR_GOLDEN: &str = include_str!("golden_counters_taskpar.txt");
const TASKPAR_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden_counters_taskpar.txt"
);

/// A kernel the gates run.
#[derive(Clone, Copy)]
enum Run {
    /// A benchmark, and the ablated kernel variant to run in its place.
    Suite(Benchmark, Option<Ablation>),
    /// `pagerank::parallel_pull`, the serving engine's snapshot kernel.
    PageRankPull,
}
use Run::{PageRankPull, Suite};

/// The exact configuration the golden files were captured under.
const THREAD_COUNTS: [usize; 3] = [1, 4, 16];
/// Runs pinned at two threads, after every `RUNS` block.
const TWO_THREAD_RUNS: [Run; 3] = [
    Suite(Benchmark::Bfs, None),
    Suite(Benchmark::PageRank, None),
    Suite(Benchmark::SsspDijk, None),
];
/// Runs pinned after the two-thread block, at `THREAD_COUNTS`.
const LATER_RUNS: [Run; 3] = [
    Suite(Benchmark::Comm, None),
    Suite(Benchmark::TriCnt, None),
    Suite(Benchmark::ConnComp, None),
];
const RUNS: [Run; 10] = [
    Suite(Benchmark::Bfs, None),
    Suite(Benchmark::PageRank, None),
    Suite(Benchmark::SsspDijk, None),
    Suite(Benchmark::Bfs, Some(Ablation::FrontierRepr)),
    Suite(Benchmark::SsspDijk, Some(Ablation::FrontierRepr)),
    Suite(Benchmark::Bfs, Some(Ablation::DiropBfs)),
    Suite(Benchmark::ConnComp, Some(Ablation::AfforestCc)),
    Suite(Benchmark::SsspDijk, Some(Ablation::DeltaSssp)),
    Suite(Benchmark::PageRank, Some(Ablation::PagerankUpdate)),
    PageRankPull,
];
const TASKPAR_RUNS: [Run; 8] = [
    Suite(Benchmark::Apsp, None),
    Suite(Benchmark::BetwCent, None),
    Suite(Benchmark::Tsp, None),
    Suite(Benchmark::Dfs, None),
    Suite(Benchmark::Apsp, Some(Ablation::TaskSteal)),
    Suite(Benchmark::BetwCent, Some(Ablation::TaskSteal)),
    Suite(Benchmark::Dfs, Some(Ablation::TaskSteal)),
    Suite(Benchmark::Tsp, Some(Ablation::LockfreeBound)),
];

/// The line that opens `run`'s fingerprint at `threads` threads.
fn header(run: Run, threads: usize) -> String {
    match run {
        Suite(bench, Some(abl)) => format!("run {}+{abl} threads={threads}", bench.label()),
        Suite(bench, None) => format!("run {} threads={threads}", bench.label()),
        PageRankPull => format!("run PageRank/pull threads={threads}"),
    }
}

/// Runs each of `runs` at each of `thread_counts` traced threads on the
/// fixed seeded `test`-scale inputs and renders every simulated counter
/// as text.
/// Deterministic only on a thread that has allocated no region before.
///
/// With `faults`, the same runs execute with that [`FaultPlan`]
/// attached — an all-zero-rate plan must leave every counter
/// bit-identical (the zero-fault path is required to be timing-free).
fn fingerprint(runs: &[Run], thread_counts: &[usize], faults: Option<FaultPlan>) -> String {
    let scale = Scale::test();
    let w = Workload::synthetic(&scale);
    let mut out = String::new();
    for &run in runs {
        for &threads in thread_counts {
            let mut machine =
                SimMachine::with_tracing(SimConfig::tiny(16), threads, TraceConfig::default());
            if let Some(plan) = faults {
                machine = machine.fault_plan(plan);
            }
            let (bench, report) = match run {
                Suite(bench, ablation) => (bench, run_parallel(bench, &machine, &w, ablation)),
                PageRankPull => (
                    Benchmark::PageRank,
                    pagerank::parallel_pull(&machine, &w.graph, w.pagerank_iters).report,
                ),
            };
            let (c, m, e) = (report.completion, report.misses, report.energy);
            let _ = writeln!(out, "{}", header(run, threads));
            let _ = writeln!(out, "  completion {c}");
            let _ = writeln!(
                out,
                "  misses l1d={} cold={} capacity={} sharing={} l2a={} l2m={}",
                m.l1d_accesses,
                m.cold_misses,
                m.capacity_misses,
                m.sharing_misses,
                m.l2_accesses,
                m.l2_misses
            );
            let _ = writeln!(
                out,
                "  energy l1i={} l1d={} l2={} dir={} router={} link={} dram={}",
                e.l1i_accesses,
                e.l1d_accesses,
                e.l2_accesses,
                e.directory_accesses,
                e.router_flit_hops,
                e.link_flit_hops,
                e.dram_accesses
            );
            let trace = assemble(bench, scale.name, TraceBackend::Sim, report);
            let _ = writeln!(out, "  dropped {}", trace.total_dropped());
            for (name, stat) in trace.counters() {
                let _ = writeln!(
                    out,
                    "  ctr {name} count={} arg_sum={}",
                    stat.count, stat.arg_sum
                );
            }
        }
    }
    out
}

/// The `golden_counters.txt` fingerprint: `RUNS` at 1/4/16 threads,
/// then `TWO_THREAD_RUNS` at 2, then `LATER_RUNS` at 1/4/16.
fn golden_fingerprint(faults: Option<FaultPlan>) -> String {
    fingerprint(&RUNS, &THREAD_COUNTS, faults)
        + &fingerprint(&TWO_THREAD_RUNS, &[2], faults)
        + &fingerprint(&LATER_RUNS, &THREAD_COUNTS, faults)
}

/// Compares `got` to `golden`, or rewrites `path` when
/// `CRONO_GOLDEN_UPDATE` is set.
fn check_or_update(got: &str, golden: &str, path: &str, what: &str) {
    if std::env::var_os("CRONO_GOLDEN_UPDATE").is_some() {
        std::fs::write(path, got).expect("write golden file");
        eprintln!("golden file updated at {path}");
        return;
    }
    assert_eq!(
        got, golden,
        "simulated counters of {what} drifted from the golden fingerprint; \
         if the timing model changed intentionally, regenerate with \
         CRONO_GOLDEN_UPDATE=1"
    );
}

#[test]
fn golden_counters_are_invariant() {
    check_or_update(
        &golden_fingerprint(None),
        GOLDEN,
        GOLDEN_PATH,
        "BFS/PageRank/SSSP_DIJK/CONN_COMP/COMM/TRI_CNT",
    );
}

/// The task-parallel gate: the work-stealing variants are opt-in, so
/// the default APSP/BETW_CENT/TSP/DFS kernels stay bit-identical; the
/// variants themselves are pinned after them.
#[test]
fn task_parallel_defaults_are_invariant() {
    check_or_update(
        &fingerprint(&TASKPAR_RUNS, &THREAD_COUNTS, None),
        TASKPAR_GOLDEN,
        TASKPAR_GOLDEN_PATH,
        "the APSP/BETW_CENT/TSP/DFS kernels and their variants",
    );
}

/// The zero-fault gate: attaching a [`FaultPlan`] whose rates are all
/// zero must be invisible — byte-for-byte the same golden fingerprint,
/// proving the fault hooks cost nothing (in simulated time) until a
/// rate is actually set.
#[test]
fn zero_fault_plan_reproduces_golden() {
    assert_eq!(
        golden_fingerprint(Some(FaultPlan::zero(42))),
        GOLDEN,
        "a zero-rate FaultPlan perturbed the simulated counters; the \
         zero-fault path must be timing-invariant"
    );
}

/// The permanent-fault arming gate: a plan that *declares* a dead link,
/// a dead core, and a dead DRAM controller — but arms them all at
/// `u64::MAX`, a cycle no run reaches — must also be invisible. The
/// permanent-fault checks sit on the routing, barrier, and DRAM paths
/// of every simulated access, so this pins them as pure reads until the
/// armed cycle actually arrives.
#[test]
fn zero_permanent_fault_plan_reproduces_golden() {
    use crono_sim::LinkDir;
    let armed_never = FaultPlan::zero(42)
        .with_dead_link(5, LinkDir::East, u64::MAX)
        .with_dead_core(4, u64::MAX)
        .with_dead_dram_ctrl(3, u64::MAX);
    assert_eq!(
        golden_fingerprint(Some(armed_never)),
        GOLDEN,
        "an armed-but-never-active permanent fault perturbed the \
         simulated counters; permanent faults must be timing-invisible \
         until their armed cycle"
    );
}
