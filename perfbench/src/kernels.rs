//! `kernels-rmat`: eight native kernel calls per pass on an R-MAT graph.

use crate::metrics::{Metrics, KERNELS};
use crate::spans::{Recorder, ALGOS, GRAPH};
use crate::stats::median;
use crate::THREADS;
use crono_algos::{bfs, connected, pagerank, sssp, AlgoOutcome};
use crono_graph::gen::{rmat, RmatParams};
use crono_graph::CsrGraph;
use crono_runtime::NativeMachine;
use std::time::Instant;

/// log2 of the vertex count.
pub const SCALE: u32 = 18;
/// Edge draws per vertex.
pub const EDGE_FACTOR: usize = 16;
/// Largest edge weight.
pub const MAX_WEIGHT: u32 = 255;
/// PageRank iterations per call.
pub const PAGERANK_ITERS: u32 = 10;

/// Generates the workload's graph from the benchmark seed.
pub fn generate(seed: u64) -> CsrGraph {
    rmat(
        SCALE,
        EDGE_FACTOR << SCALE,
        MAX_WEIGHT,
        RmatParams::default(),
        seed,
    )
}

/// Sequential references every kernel output is checked against.
pub struct References {
    level: Vec<u32>,
    dist: Vec<u32>,
    labels: Vec<u32>,
    ranks: Vec<f64>,
}

impl References {
    /// Builds the references from the sequential kernels.
    pub fn build(graph: &CsrGraph, rec: &mut Recorder) -> References {
        let one = NativeMachine::new(1);
        References {
            level: rec.span(ALGOS, "ref:bfs", || {
                bfs::sequential(&one, graph, 0).output.level
            }),
            dist: rec.span(ALGOS, "ref:sssp", || {
                sssp::sequential(&one, graph, 0).output.dist
            }),
            labels: rec.span(ALGOS, "ref:cc", || {
                connected::sequential(&one, graph).output.labels
            }),
            ranks: rec.span(ALGOS, "ref:pagerank", || {
                pagerank::reference(graph, PAGERANK_ITERS)
            }),
        }
    }
}

/// Everything a pass needs, built during setup.
pub struct Setup {
    /// The R-MAT input.
    pub graph: CsrGraph,
    refs: References,
    machine: NativeMachine,
}

/// Generates the graph and its references.
pub fn setup(seed: u64, rec: &mut Recorder) -> (Setup, f64) {
    let start = Instant::now();
    let graph = rec.span(GRAPH, "generate", || generate(seed));
    let gen_s = start.elapsed().as_secs_f64();
    let refs = References::build(&graph, rec);
    (
        Setup {
            graph,
            refs,
            machine: NativeMachine::new(THREADS),
        },
        gen_s,
    )
}

/// One kernel call, timed from outside.
#[derive(Debug, Clone)]
pub struct Call {
    /// Wall time of the whole call.
    pub call_s: f64,
    /// The timed region the suite reports (`RunReport::wall`).
    pub region_s: f64,
    /// Instructions counted by the native context, all threads.
    pub instructions: u64,
    /// §IV-E Eq. 2 load imbalance.
    pub variability: f64,
    /// Whether the output matched the sequential reference.
    pub correct: bool,
}

fn call<T>(
    rec: &mut Recorder,
    name: &'static str,
    run: impl FnOnce() -> AlgoOutcome<T>,
    check: impl FnOnce(&T) -> bool,
) -> Call {
    let start = Instant::now();
    let out = rec.span(ALGOS, name, run);
    let call_s = start.elapsed().as_secs_f64();
    Call {
        call_s,
        region_s: out.report.wall.as_secs_f64(),
        instructions: out.report.threads.iter().map(|t| t.instructions).sum(),
        variability: out.report.variability(),
        correct: check(&out.output),
    }
}

fn ranks_close(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= 1e-9 * w.abs().max(1e-12))
}

/// One pass: the eight kernels in [`KERNELS`] order, each checked.
pub fn pass(s: &Setup, rec: &mut Recorder) -> Vec<Call> {
    let (m, g, r) = (&s.machine, &s.graph, &s.refs);
    vec![
        call(
            rec,
            "bfs",
            || bfs::parallel(m, g, 0),
            |o| o.level == r.level,
        ),
        call(
            rec,
            "bfs_dirop",
            || bfs::parallel_dirop(m, g, 0),
            |o| o.level == r.level,
        ),
        call(
            rec,
            "sssp",
            || sssp::parallel(m, g, 0),
            |o| o.dist == r.dist,
        ),
        call(
            rec,
            "sssp_delta",
            || sssp::parallel_delta(m, g, 0),
            |o| o.dist == r.dist,
        ),
        call(
            rec,
            "cc",
            || connected::parallel(m, g),
            |o| o.labels == r.labels,
        ),
        call(
            rec,
            "cc_afforest",
            || connected::parallel_afforest(m, g),
            |o| o.labels == r.labels,
        ),
        call(
            rec,
            "pagerank",
            || pagerank::parallel(m, g, PAGERANK_ITERS),
            |o| ranks_close(&o.ranks, &r.ranks),
        ),
        // The pull kernel is documented bitwise equal to the reference.
        call(
            rec,
            "pagerank_pull",
            || pagerank::parallel_pull(m, g, PAGERANK_ITERS),
            |o| o.ranks == r.ranks,
        ),
    ]
}

/// Summary of one pass for the end-to-end metrics.
pub fn pass_totals(calls: &[Call]) -> (f64, f64, u64) {
    (
        calls.iter().map(|c| c.call_s).sum(),
        calls.iter().map(|c| c.region_s).sum(),
        calls.iter().map(|c| c.instructions).sum(),
    )
}

/// Per-kernel layer metrics: medians over `passes`.
pub fn layer_metrics(graph: &CsrGraph, passes: &[Vec<Call>], out: &mut Metrics) {
    let edges = graph.num_directed_edges() as f64;
    for (i, k) in KERNELS.iter().enumerate() {
        let col =
            |f: fn(&Call) -> f64| median(&passes.iter().map(|p| f(&p[i])).collect::<Vec<_>>());
        let call_s = col(|c| c.call_s);
        let region_s = col(|c| c.region_s);
        // PageRank touches every edge once per iteration.
        let traversed = if k.starts_with("pagerank") {
            edges * PAGERANK_ITERS as f64
        } else {
            edges
        };
        out.put(format!("crono-algos.{k}.call_s"), call_s);
        out.put(format!("crono-algos.{k}.region_s"), region_s);
        out.put(
            format!("crono-algos.{k}.prep_s"),
            col(|c| c.call_s - c.region_s),
        );
        out.put(
            format!("crono-algos.{k}.region_mteps"),
            traversed / region_s / 1e6,
        );
        out.put(
            format!("crono-algos.{k}.variability"),
            col(|c| c.variability),
        );
    }
}
