//! Scale track (`crono scale`): out-of-core sharded build followed by
//! the shard-aware kernels, reporting per-shard modeled throughput.
//!
//! The flow is **sim placement rows → build → native kernel rows**, and
//! the simulator rows run first: they depend on the calling thread's
//! symbolic address space (`crono_runtime::AddressSpace`), so they run
//! before any other task pool or shared array is allocated on that
//! thread, which keeps `scale.tsv`'s numbers. Each row group runs
//! through [`checkpoint::cell`](cell), which also replays the address
//! range a checkpointed group allocated, so a resumed run writes the
//! same table as an uninterrupted one.
//!
//! Everything in the table is modeled (instruction-count cycles at the
//! suite's 1 GHz convention) or structural (vertex/edge/byte counts):
//! no wall-clock, no RSS, no schedule-dependent totals. Peak RSS and
//! spill statistics go to stderr as progress only.

use std::path::PathBuf;

use crate::checkpoint::{cell, CellValue, Checkpoint};
use crate::report::{f2, Table};
use crate::trace::{assemble, TraceBackend};
use crono_algos::scale::{sharded_bfs, sharded_pagerank, sharded_sssp, ScaleOutcome};
use crono_algos::Benchmark;
use crono_graph::gen::{road_network, RmatParams};
use crono_graph::shard::{Partition, Placement, ShardedGraph};
use crono_graph::stream::{
    build_sharded, mirror, peak_rss_bytes, BuildStats, RmatStream, StreamConfig, UniformStream,
};
use crono_graph::{CompressedCsr, CsrGraph, Packable, VertexId, Weight};
use crono_runtime::NativeMachine;
use crono_sim::{SimConfig, SimMachine};
use crono_trace::TraceConfig;

/// Which synthetic stream feeds the out-of-core build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// R-MAT power-law stream (the paper's synthetic sparse input).
    Rmat,
    /// Uniform-random stream.
    Uniform,
}

impl GraphKind {
    /// Parses a CLI graph name (`rmat` / `uniform`).
    pub fn by_name(name: &str) -> Option<GraphKind> {
        match name.to_ascii_lowercase().as_str() {
            "rmat" => Some(GraphKind::Rmat),
            "uniform" => Some(GraphKind::Uniform),
            _ => None,
        }
    }

    /// The name shown in config labels.
    pub fn name(self) -> &'static str {
        match self {
            GraphKind::Rmat => "rmat",
            GraphKind::Uniform => "uniform",
        }
    }
}

/// Knobs of the scale track.
#[derive(Debug, Clone)]
pub struct ScaleTrackConfig {
    /// Stream generator.
    pub graph: GraphKind,
    /// log2 of the vertex count (R-MAT "scale").
    pub graph_scale: u32,
    /// Directed edge draws per vertex (edge factor).
    pub degree: u64,
    /// Vertex blocks of the partition.
    pub blocks: usize,
    /// 2-D checkerboard partition (`blocks * blocks` shards) instead of
    /// 1-D owner-by-source.
    pub two_d: bool,
    /// Pack shards as varint-compressed CSR instead of flat CSR.
    pub compressed: bool,
    /// Mirror each drawn edge (undirected storage); off by default —
    /// the scale track counts directed edges like the paper.
    pub mirrored: bool,
    /// Native worker threads.
    pub threads: usize,
    /// Stream seed.
    pub seed: u64,
    /// External-sort buffer, in edges across all shards.
    pub sort_buffer_edges: usize,
    /// Directory for external-sort spill files.
    pub spill_dir: PathBuf,
    /// PageRank sweeps.
    pub pagerank_iters: usize,
}

impl Default for ScaleTrackConfig {
    fn default() -> Self {
        ScaleTrackConfig {
            graph: GraphKind::Rmat,
            graph_scale: 14,
            degree: 16,
            blocks: 4,
            two_d: false,
            compressed: true,
            mirrored: false,
            threads: 4,
            seed: 42,
            sort_buffer_edges: 16 << 20,
            spill_dir: PathBuf::from("."),
            pagerank_iters: 5,
        }
    }
}

impl ScaleTrackConfig {
    /// The config label shown in every row and used in checkpoint keys.
    pub fn label(&self) -> String {
        format!(
            "{}-s{}-d{}-b{}-{}-{}{}-t{}-seed{}",
            self.graph.name(),
            self.graph_scale,
            self.degree,
            self.blocks,
            if self.two_d { "2d" } else { "1d" },
            if self.compressed {
                "compressed"
            } else {
                "plain"
            },
            if self.mirrored { "-mirrored" } else { "" },
            self.threads,
            self.seed
        )
    }

    fn partition(&self) -> Partition {
        let n = 1usize << self.graph_scale;
        if self.two_d {
            Partition::two_d(n, self.blocks)
        } else {
            Partition::one_d(n, self.blocks)
        }
    }

    /// Feeds the configured edge stream (generator, mirrored or not) to
    /// `consume`. `crono scale` builds from it and `crono gen` writes it.
    ///
    /// # Errors
    ///
    /// Returns a message when the generator rejects its parameters.
    pub fn with_edges<R>(
        &self,
        consume: impl FnOnce(&mut dyn Iterator<Item = (VertexId, VertexId, Weight)>) -> R,
    ) -> Result<R, String> {
        let n = 1usize << self.graph_scale;
        let draws = n as u64 * self.degree;
        let (rmat, uniform);
        let mut drawn: Box<dyn Iterator<Item = (VertexId, VertexId, Weight)>> = match self.graph {
            GraphKind::Rmat => {
                rmat =
                    RmatStream::new(self.graph_scale, draws, 8, RmatParams::default(), self.seed)
                        .map_err(|e| format!("invalid R-MAT stream: {e}"))?;
                Box::new(rmat.edges())
            }
            GraphKind::Uniform => {
                uniform = UniformStream::new(n, draws, 8, self.seed)
                    .map_err(|e| format!("invalid uniform stream: {e}"))?;
                Box::new(uniform.edges())
            }
        };
        Ok(if self.mirrored {
            consume(&mut mirror(drawn))
        } else {
            consume(&mut drawn)
        })
    }
}

const MISSING: &str = "-";

fn headers() -> Vec<String> {
    [
        "Row",
        "Config",
        "Shard",
        "Vertices",
        "Edges",
        "BytesPerEdge",
        "Mcycles",
        "MTEPS",
        "DirBroadcast",
        "NocFlits",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// A finished row group as one checkpoint value: cells join with `|`
/// and rows with `;`, and every row must have the table's width.
impl CellValue for Vec<Vec<String>> {
    fn encode(&self) -> String {
        self.iter()
            .map(|r| r.join("|"))
            .collect::<Vec<_>>()
            .join(";")
    }

    fn decode(s: &str) -> Option<Self> {
        let rows: Vec<Vec<String>> = s
            .split(';')
            .map(|r| r.split('|').map(str::to_string).collect())
            .collect();
        let width = headers().len();
        rows.iter().all(|r| r.len() == width).then_some(rows)
    }
}

/// Per-shard + total rows for one kernel run.
fn kernel_rows<T>(
    row: &str,
    label: &str,
    out: &ScaleOutcome<T>,
    threads: usize,
) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for s in &out.shards {
        rows.push(vec![
            row.to_string(),
            label.to_string(),
            s.shard.to_string(),
            MISSING.to_string(),
            s.edges.to_string(),
            MISSING.to_string(),
            f2(s.cycles as f64 / 1e6),
            f2(s.mteps()),
            MISSING.to_string(),
            MISSING.to_string(),
        ]);
    }
    rows.push(vec![
        row.to_string(),
        label.to_string(),
        "total".to_string(),
        MISSING.to_string(),
        out.total_edges().to_string(),
        MISSING.to_string(),
        f2(out.total_cycles() as f64 / 1e6),
        f2(out.total_mteps(threads)),
        MISSING.to_string(),
        MISSING.to_string(),
    ]);
    rows
}

/// The two simulator placement rows: the same small sharded BFS under
/// locality-aware block placement and locality-hostile hashed placement,
/// with the coherence-broadcast and NoC-flit counters from the traced
/// simulator run. Runs both placements back to back.
fn sim_placement_rows() -> Vec<Vec<String>> {
    let g = road_network(16, 16, 8, 0.2, 0.05, 42);
    let n = g.num_vertices();
    let mut rows = Vec::new();
    for (tag, placement) in [("block", Placement::Block), ("hashed", Placement::Hashed)] {
        let partition = Partition::one_d(n, 4).with_placement(placement);
        let sharded = ShardedGraph::<CsrGraph>::from_csr(&g, partition)
            .expect("road network fits its own partition");
        let machine = SimMachine::with_tracing(SimConfig::tiny(16), 8, TraceConfig::default());
        let out = sharded_bfs(&machine, &sharded, 0);
        let trace = assemble(Benchmark::Bfs, "scale", TraceBackend::Sim, out.report);
        let counters = trace.counters();
        let broadcasts = counters.get("dir_broadcast").map_or(0, |c| c.count);
        let flits = counters.get("noc_flits").map_or(0, |c| c.arg_sum);
        rows.push(vec![
            "sim-bfs".to_string(),
            tag.to_string(),
            MISSING.to_string(),
            n.to_string(),
            sharded.num_directed_edges().to_string(),
            MISSING.to_string(),
            MISSING.to_string(),
            MISSING.to_string(),
            broadcasts.to_string(),
            flits.to_string(),
        ]);
    }
    rows
}

/// Streams the configured generator into a sharded build packed as `G`.
fn build_graph<G: Packable>(
    cfg: &ScaleTrackConfig,
) -> Result<(ShardedGraph<G>, BuildStats), String> {
    let stream_cfg =
        StreamConfig::new(&cfg.spill_dir).with_sort_buffer_edges(cfg.sort_buffer_edges);
    cfg.with_edges(|edges| build_sharded(cfg.partition(), edges, &stream_cfg))?
        .map_err(|e| format!("streaming build failed: {e}"))
}

/// Runs the scale track and returns the `scale.tsv` table.
///
/// With a [`Checkpoint`], each finished row group (sim, build, bfs,
/// sssp, pagerank) is persisted and a `--resume` run replays it without
/// re-executing — including the graph build itself when every kernel
/// group is already cached.
///
/// # Errors
///
/// Returns a message on stream/build failures (bad parameters, spill
/// I/O).
pub fn generate(
    cfg: &ScaleTrackConfig,
    progress: bool,
    ckpt: Option<&mut Checkpoint>,
) -> Result<Table, String> {
    if cfg.compressed {
        generate_as::<CompressedCsr>(cfg, progress, ckpt)
    } else {
        generate_as::<CsrGraph>(cfg, progress, ckpt)
    }
}

/// [`generate`] with the shards packed as `G`.
fn generate_as<G: Packable + Sync>(
    cfg: &ScaleTrackConfig,
    progress: bool,
    mut ckpt: Option<&mut Checkpoint>,
) -> Result<Table, String> {
    let label = cfg.label();
    let mut table = Table::new(
        "Scale: out-of-core sharded build and shard-aware kernels",
        headers(),
    );
    let mut group =
        |name: &str, says: &str, run: &mut dyn FnMut() -> Result<Vec<Vec<String>>, String>| {
            cell(
                ckpt.as_deref_mut(),
                &format!("{label}|{name}"),
                progress.then_some(says),
                run,
            )
        };

    // 1. Simulator placement rows — always first (address-space cursor).
    let sim_rows = group(
        "sim",
        "[scale] sim bfs: block and hashed placement, 8 threads",
        &mut || Ok(sim_placement_rows()),
    )?;

    // 2. Build + native kernels. The graph is built lazily so a fully
    // checkpointed resume never pays for the stream.
    let mut graph: Option<ShardedGraph<G>> = None;
    let partition = cfg.partition();
    let n = partition.num_vertices();
    let ensure_graph = |graph: &mut Option<ShardedGraph<G>>| -> Result<(), String> {
        if graph.is_some() {
            return Ok(());
        }
        if progress {
            eprintln!(
                "[scale] building {label}: {n} vertices, {} directed draws, {} shards",
                n as u64 * cfg.degree * if cfg.mirrored { 2 } else { 1 },
                partition.num_shards()
            );
        }
        let (g, stats) = build_graph(cfg)?;
        if progress {
            eprintln!(
                "[scale] build done: {} edges packed, {} run(s) spilled ({} bytes){}",
                stats.edges_packed,
                stats.runs_spilled,
                stats.spill_bytes,
                match stats.peak_rss_bytes {
                    Some(b) => format!(", peak RSS {} MiB", b >> 20),
                    None => String::new(),
                }
            );
        }
        *graph = Some(g);
        Ok(())
    };

    let build_rows = group("build", "[scale] build", &mut || {
        ensure_graph(&mut graph)?;
        let g = graph.as_ref().expect("just built");
        let m = g.num_directed_edges();
        let flat_bpe = if m == 0 {
            0.0
        } else {
            (4.0 * (n as f64 + 1.0) + 8.0 * m as f64) / m as f64
        };
        Ok(vec![
            vec![
                "build".to_string(),
                label.clone(),
                MISSING.to_string(),
                n.to_string(),
                m.to_string(),
                f2(g.bytes_per_edge()),
                MISSING.to_string(),
                MISSING.to_string(),
                MISSING.to_string(),
                MISSING.to_string(),
            ],
            vec![
                "build".to_string(),
                "flat-csr-reference".to_string(),
                MISSING.to_string(),
                n.to_string(),
                m.to_string(),
                f2(flat_bpe),
                MISSING.to_string(),
                MISSING.to_string(),
                MISSING.to_string(),
                MISSING.to_string(),
            ],
        ])
    })?;

    let machine = NativeMachine::new(cfg.threads);
    let threads = format!("{} threads", cfg.threads);
    let bfs_rows = group("bfs", &format!("[scale] bfs: {threads}"), &mut || {
        ensure_graph(&mut graph)?;
        let out = sharded_bfs(&machine, graph.as_ref().expect("built"), 0);
        Ok(kernel_rows("bfs", &label, &out, cfg.threads))
    })?;
    let sssp_rows = group("sssp", &format!("[scale] sssp: {threads}"), &mut || {
        ensure_graph(&mut graph)?;
        let out = sharded_sssp(&machine, graph.as_ref().expect("built"), 0);
        Ok(kernel_rows("sssp", &label, &out, cfg.threads))
    })?;
    let iters = cfg.pagerank_iters;
    let says = format!("[scale] pagerank: {iters} iterations, {threads}");
    let pagerank_rows = group("pagerank", &says, &mut || {
        ensure_graph(&mut graph)?;
        let out = sharded_pagerank(&machine, graph.as_ref().expect("built"), iters);
        Ok(kernel_rows("pagerank", &label, &out, cfg.threads))
    })?;

    if progress {
        if let Some(rss) = peak_rss_bytes() {
            eprintln!("[scale] process peak RSS: {} MiB", rss >> 20);
        }
    }

    for rows in [sim_rows, build_rows, bfs_rows, sssp_rows, pagerank_rows] {
        for row in rows {
            table.push_row(row);
        }
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(dir: &std::path::Path) -> ScaleTrackConfig {
        ScaleTrackConfig {
            graph_scale: 8,
            degree: 8,
            blocks: 2,
            threads: 2,
            sort_buffer_edges: 1 << 14,
            spill_dir: dir.to_path_buf(),
            pagerank_iters: 2,
            ..ScaleTrackConfig::default()
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("crono-scaletrack-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn table_is_deterministic_across_runs() {
        let dir = temp_dir("det");
        let cfg = tiny_config(&dir);
        let a = generate(&cfg, false, None).unwrap();
        let b = generate(&cfg, false, None).unwrap();
        // Native rows must be identical in-process; sim rows shift with
        // this thread's address space and are compared only across fresh
        // processes (scripts/ci.sh does that with cmp), so strip them.
        let native = |t: &Table| {
            t.to_tsv()
                .lines()
                .filter(|l| !l.starts_with("sim-"))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(native(&a), native(&b));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_replays_rows_without_rebuilding() {
        let dir = temp_dir("resume");
        let cfg = tiny_config(&dir);
        let ckpt_path = dir.join("scale.resume.tsv");
        let mut ck = Checkpoint::open(&ckpt_path).unwrap();
        let fresh = generate(&cfg, false, Some(&mut ck)).unwrap();
        assert_eq!(ck.len(), 5, "five row groups checkpointed");
        // Re-open to simulate a new process resuming.
        let mut ck2 = Checkpoint::open(&ckpt_path).unwrap();
        let resumed = generate(&cfg, false, Some(&mut ck2)).unwrap();
        assert_eq!(fresh.to_tsv(), resumed.to_tsv());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compressed_beats_flat_reference_in_build_rows() {
        let dir = temp_dir("bpe");
        let cfg = tiny_config(&dir);
        let table = generate(&cfg, false, None).unwrap();
        let tsv = table.to_tsv();
        let bpe: Vec<f64> = tsv
            .lines()
            .filter(|l| l.starts_with("build\t"))
            .map(|l| l.split('\t').nth(5).unwrap().parse().unwrap())
            .collect();
        assert_eq!(bpe.len(), 2);
        assert!(
            bpe[0] <= 0.7 * bpe[1],
            "compressed {:.2} vs flat {:.2}: less than 30% saved",
            bpe[0],
            bpe[1]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sim_rows_show_block_placement_is_cheaper() {
        let rows = sim_placement_rows();
        assert_eq!(rows.len(), 2);
        let flits: Vec<u64> = rows.iter().map(|r| r[9].parse().unwrap()).collect();
        assert!(
            flits[0] < flits[1],
            "block placement ({}) should move fewer flits than hashed ({})",
            flits[0],
            flits[1]
        );
    }
}
