//! Out-of-core streaming graph construction.
//!
//! The in-memory generators in [`crate::gen`] materialize the full edge
//! list before packing CSR — at Graph500 scale 24 (~268 M directed
//! edges) that is ~3.2 GB of triples before the graph even exists. This
//! module builds the same shard-decomposed representations in bounded
//! resident memory:
//!
//! 1. **Seeded, independently-reproducible edge chunks** — each edge of
//!    [`RmatStream`] / [`UniformStream`] is a pure function of
//!    `(seed, edge_index)`: the R-MAT quad-tree descent draws from a
//!    per-edge RNG keyed by a splitmix64 hash of the pair, so any chunk
//!    of the stream regenerates independently (and a build can be
//!    sliced across processes or resumed mid-stream).
//! 2. **Partition + external sort** — [`build_sharded`] routes each
//!    edge to its shard ([`Partition::shard_of_edge`]), buffering at
//!    most `sort_buffer_edges` triples in RAM; full buffers are sorted
//!    and spilled as 12-byte little-endian `(src, dst, weight)` records.
//! 3. **Shard-by-shard packing** — each shard's sorted runs are k-way
//!    merged straight into an [`AdjacencyPacker`], so peak memory is
//!    the sort buffer plus the packed output (for
//!    [`CompressedCsr`](crate::CompressedCsr), ~3 bytes/edge), never the
//!    flat edge list.
//!
//! The stream generators are deliberately *not* the same distribution
//! as their in-memory namesakes: `gen::rmat` draws from one sequential
//! RNG and deduplicates globally, which cannot be chunked. The stream
//! variants skip self-loops but keep parallel edges (the Graph500
//! reference generator's convention), so fingerprints differ from
//! `gen::rmat` by design while each stream remains bit-reproducible
//! from `(seed, index)` alone.

use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::rng::{splitmix64, SmallRng};
use crate::shard::{Partition, ShardedGraph};
use crate::view::{AdjacencyPacker, Packable};
use crate::{gen::RmatParams, GraphError, VertexId, Weight};

/// Bytes per spilled edge record: three little-endian `u32`s.
const RECORD_BYTES: usize = 12;

/// Read-buffer bytes per sorted run during the k-way merge (a whole
/// number of records, so refills never split one).
const MERGE_BUF_BYTES: usize = (64 * 1024 / RECORD_BYTES) * RECORD_BYTES;

/// Golden-ratio increment decorrelating edge indices before hashing.
const INDEX_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Per-edge RNG keyed by `(seed, index)`: the whole point of the stream
/// generators — edge `i` draws from its own splitmix64-derived RNG, so
/// chunks regenerate independently in any order.
fn edge_rng(seed: u64, index: u64) -> SmallRng {
    let mut state = seed ^ index.wrapping_mul(INDEX_STRIDE);
    SmallRng::seed_from_u64(splitmix64(&mut state))
}

/// Streaming R-MAT generator: `2^scale` vertices, `num_edges` draws,
/// weights in `1..=max_weight`.
///
/// Self-loop draws yield `None` (skipped, not redrawn); parallel edges
/// are kept. See the module docs for why this is a different generator
/// from [`crate::gen::rmat`].
#[derive(Debug, Clone, Copy)]
pub struct RmatStream {
    scale: u32,
    num_edges: u64,
    max_weight: Weight,
    params: RmatParams,
    seed: u64,
}

impl RmatStream {
    /// Creates a stream; `scale` must be in `1..=31` and the parameters
    /// valid probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] for a bad scale, weight
    /// bound, or parameter set.
    pub fn new(
        scale: u32,
        num_edges: u64,
        max_weight: Weight,
        params: RmatParams,
        seed: u64,
    ) -> Result<RmatStream, GraphError> {
        if scale == 0 || scale > 31 {
            return Err(GraphError::InvalidSize(format!(
                "r-mat scale must be in 1..=31, got {scale}"
            )));
        }
        if max_weight == 0 {
            return Err(GraphError::InvalidSize(
                "max_weight must be positive".into(),
            ));
        }
        if !(params.a > 0.0
            && params.b > 0.0
            && params.c >= 0.0
            && params.a + params.b + params.c <= 1.0
            && (0.0..1.0).contains(&params.noise))
        {
            return Err(GraphError::InvalidSize(
                "r-mat parameters are not valid probabilities".into(),
            ));
        }
        Ok(RmatStream {
            scale,
            num_edges,
            max_weight,
            params,
            seed,
        })
    }

    /// Number of vertices (`2^scale`).
    pub fn num_vertices(&self) -> usize {
        1usize << self.scale
    }

    /// Edge `index` of the stream, or `None` if that draw was a
    /// self-loop. Pure in `(self, index)`.
    pub fn edge(&self, index: u64) -> Option<(VertexId, VertexId, Weight)> {
        let mut rng = edge_rng(self.seed, index);
        let (src, dst) = self.params.descend(self.scale, &mut rng);
        if src == dst {
            return None;
        }
        Some((src, dst, rng.random_range(1..=self.max_weight)))
    }

    /// Iterates the realized edges of index range `start..end`
    /// (clamped to the stream length).
    pub fn chunk(
        &self,
        start: u64,
        end: u64,
    ) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        (start..end.min(self.num_edges)).filter_map(move |i| self.edge(i))
    }

    /// Iterates every realized edge of the stream.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        self.chunk(0, self.num_edges)
    }
}

/// Streaming uniform-random generator over `num_vertices` vertices:
/// endpoints i.i.d. uniform, weights in `1..=max_weight`, self-loops
/// skipped. Pure in `(seed, index)` like [`RmatStream`].
#[derive(Debug, Clone, Copy)]
pub struct UniformStream {
    num_vertices: usize,
    num_edges: u64,
    max_weight: Weight,
    seed: u64,
}

impl UniformStream {
    /// Creates a stream over at least two vertices.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] for fewer than two vertices
    /// or a zero weight bound.
    pub fn new(
        num_vertices: usize,
        num_edges: u64,
        max_weight: Weight,
        seed: u64,
    ) -> Result<UniformStream, GraphError> {
        if num_vertices < 2 {
            return Err(GraphError::InvalidSize(format!(
                "uniform stream needs >= 2 vertices, got {num_vertices}"
            )));
        }
        if u32::try_from(num_vertices).is_err() {
            return Err(GraphError::InvalidSize(format!(
                "vertex count {num_vertices} exceeds u32 ids"
            )));
        }
        if max_weight == 0 {
            return Err(GraphError::InvalidSize(
                "max_weight must be positive".into(),
            ));
        }
        Ok(UniformStream {
            num_vertices,
            num_edges,
            max_weight,
            seed,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Edge `index`, or `None` if that draw was a self-loop.
    pub fn edge(&self, index: u64) -> Option<(VertexId, VertexId, Weight)> {
        let mut rng = edge_rng(self.seed, index);
        let n = self.num_vertices as u32;
        let src = rng.random_range(0..n as u64) as VertexId;
        let dst = rng.random_range(0..n as u64) as VertexId;
        if src == dst {
            return None;
        }
        Some((src, dst, rng.random_range(1..=self.max_weight)))
    }

    /// Iterates the realized edges of index range `start..end`.
    pub fn chunk(
        &self,
        start: u64,
        end: u64,
    ) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        (start..end.min(self.num_edges)).filter_map(move |i| self.edge(i))
    }

    /// Iterates every realized edge of the stream.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        self.chunk(0, self.num_edges)
    }
}

/// Mirrors a directed edge stream into its symmetric (undirected)
/// closure: each `(s, d, w)` yields `(s, d, w)` and `(d, s, w)`.
pub fn mirror<I>(edges: I) -> impl Iterator<Item = (VertexId, VertexId, Weight)>
where
    I: IntoIterator<Item = (VertexId, VertexId, Weight)>,
{
    edges
        .into_iter()
        .flat_map(|(s, d, w)| [(s, d, w), (d, s, w)])
}

/// Tuning for [`build_sharded`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Total `(src, dst, weight)` triples buffered in RAM across all
    /// shards before spilling (12 bytes each).
    pub sort_buffer_edges: usize,
    /// Directory for spill files; created if missing, spill files are
    /// removed on success.
    pub spill_dir: PathBuf,
}

impl StreamConfig {
    /// A config spilling under `dir` with the default 16 M-edge
    /// (~192 MB) sort buffer.
    pub fn new(dir: impl Into<PathBuf>) -> StreamConfig {
        StreamConfig {
            sort_buffer_edges: 16 << 20,
            spill_dir: dir.into(),
        }
    }

    /// Replaces the sort-buffer budget (clamped to at least 1).
    pub fn with_sort_buffer_edges(mut self, edges: usize) -> StreamConfig {
        self.sort_buffer_edges = edges.max(1);
        self
    }
}

/// What the out-of-core build did, for reporting.
#[derive(Debug, Clone, Default)]
pub struct BuildStats {
    /// Directed edges packed into shards.
    pub edges_packed: u64,
    /// Sorted runs spilled to disk (0 when everything fit in RAM).
    pub runs_spilled: usize,
    /// Total bytes written to spill files.
    pub spill_bytes: u64,
    /// Peak resident set size observed after packing, if the platform
    /// exposes it (Linux `VmHWM`). Diagnostic only — never put this in
    /// a deterministic artifact.
    pub peak_rss_bytes: Option<u64>,
}

/// One shard's spill state: an in-RAM buffer plus sorted runs on disk.
struct ShardSpill {
    buf: Vec<(VertexId, VertexId, Weight)>,
    cap: usize,
    path: PathBuf,
    writer: Option<BufWriter<File>>,
    /// Record count of each sorted run, in file order.
    runs: Vec<u64>,
}

impl ShardSpill {
    fn new(path: PathBuf, cap: usize) -> ShardSpill {
        ShardSpill {
            buf: Vec::new(),
            cap: cap.max(1),
            path,
            writer: None,
            runs: Vec::new(),
        }
    }

    fn push(&mut self, edge: (VertexId, VertexId, Weight)) -> Result<(), GraphError> {
        self.buf.push(edge);
        if self.buf.len() >= self.cap {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> Result<(), GraphError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.buf.sort_unstable();
        let writer = match self.writer.as_mut() {
            Some(w) => w,
            None => {
                let file = File::create(&self.path)?;
                self.writer.insert(BufWriter::new(file))
            }
        };
        for &(s, d, w) in &self.buf {
            writer.write_all(&s.to_le_bytes())?;
            writer.write_all(&d.to_le_bytes())?;
            writer.write_all(&w.to_le_bytes())?;
        }
        self.runs.push(self.buf.len() as u64);
        self.buf.clear();
        Ok(())
    }
}

/// Buffered reader over one sorted run inside a spill file.
struct RunCursor {
    file: File,
    remaining: u64,
    buf: Vec<u8>,
    pos: usize,
    filled: usize,
}

impl RunCursor {
    fn open(path: &Path, start_record: u64, records: u64) -> Result<RunCursor, GraphError> {
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(start_record * RECORD_BYTES as u64))?;
        Ok(RunCursor {
            file,
            remaining: records,
            buf: vec![0; MERGE_BUF_BYTES],
            pos: 0,
            filled: 0,
        })
    }

    fn next(&mut self) -> Result<Option<(VertexId, VertexId, Weight)>, GraphError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        if self.pos == self.filled {
            let want = (self.remaining as usize)
                .saturating_mul(RECORD_BYTES)
                .min(self.buf.len());
            self.file.read_exact(&mut self.buf[..want])?;
            self.pos = 0;
            self.filled = want;
        }
        let rec = &self.buf[self.pos..self.pos + RECORD_BYTES];
        let s = u32::from_le_bytes(rec[0..4].try_into().expect("4-byte slice"));
        let d = u32::from_le_bytes(rec[4..8].try_into().expect("4-byte slice"));
        let w = u32::from_le_bytes(rec[8..12].try_into().expect("4-byte slice"));
        self.pos += RECORD_BYTES;
        self.remaining -= 1;
        Ok(Some((s, d, w)))
    }
}

/// Builds a [`ShardedGraph`] from an arbitrary directed edge stream in
/// bounded resident memory (see the module docs for the pipeline).
///
/// The result is identical to routing the fully materialized edge list
/// through the same packers: external sorting changes where the sort
/// happens, not its outcome (ties beyond `(src, dst, weight)` don't
/// exist — the triple *is* the sort key).
///
/// Pass [`mirror`] around a generator stream to store an undirected
/// graph symmetrically.
///
/// # Errors
///
/// Returns [`GraphError`] on out-of-range endpoints, packer capacity
/// overflow, or spill-file I/O failure.
pub fn build_sharded<G, I>(
    partition: Partition,
    edges: I,
    cfg: &StreamConfig,
) -> Result<(ShardedGraph<G>, BuildStats), GraphError>
where
    G: Packable,
    I: IntoIterator<Item = (VertexId, VertexId, Weight)>,
{
    let num_shards = partition.num_shards();
    let n = partition.num_vertices();
    std::fs::create_dir_all(&cfg.spill_dir)?;
    let per_shard = (cfg.sort_buffer_edges / num_shards).max(1);
    let mut spills: Vec<ShardSpill> = (0..num_shards)
        .map(|k| {
            ShardSpill::new(
                cfg.spill_dir.join(format!("crono-shard-{k}.spill")),
                per_shard,
            )
        })
        .collect();

    let mut stats = BuildStats::default();
    for (s, d, w) in edges {
        let far = s.max(d);
        if far as usize >= n {
            return Err(GraphError::VertexOutOfRange {
                vertex: far as u64,
                num_vertices: n,
            });
        }
        spills[partition.shard_of_edge(s, d)].push((s, d, w))?;
        stats.edges_packed += 1;
    }

    let mut shards = Vec::with_capacity(num_shards);
    for spill in &mut spills {
        let mut packer = G::Packer::new(n);
        if spill.runs.is_empty() {
            // Everything fit in RAM: sort and pack directly.
            spill.buf.sort_unstable();
            for &(s, d, w) in &spill.buf {
                packer.push_edge(s, d, w)?;
            }
            spill.buf.clear();
        } else {
            // Flush the partial tail run, then k-way merge all runs.
            spill.spill()?;
            if let Some(mut w) = spill.writer.take() {
                w.flush()?;
            }
            stats.runs_spilled += spill.runs.len();
            stats.spill_bytes += spill.runs.iter().sum::<u64>() * RECORD_BYTES as u64;
            let mut cursors = Vec::with_capacity(spill.runs.len());
            let mut start = 0u64;
            for &len in &spill.runs {
                cursors.push(RunCursor::open(&spill.path, start, len)?);
                start += len;
            }
            // Min-heap keyed by the edge triple; run index breaks exact
            // ties so the pop order is fully defined.
            let mut heap = BinaryHeap::new();
            for (idx, cursor) in cursors.iter_mut().enumerate() {
                if let Some(e) = cursor.next()? {
                    heap.push(std::cmp::Reverse((e, idx)));
                }
            }
            while let Some(std::cmp::Reverse(((s, d, w), idx))) = heap.pop() {
                packer.push_edge(s, d, w)?;
                if let Some(e) = cursors[idx].next()? {
                    heap.push(std::cmp::Reverse((e, idx)));
                }
            }
            std::fs::remove_file(&spill.path)?;
        }
        shards.push(packer.finish()?);
    }
    stats.peak_rss_bytes = peak_rss_bytes();
    Ok((ShardedGraph::from_parts(partition, shards), stats))
}

/// Peak resident set size of this process in bytes, from Linux's
/// `VmHWM` line in `/proc/self/status`; `None` where unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::Placement;
    use crate::{CompressedCsr, CsrGraph};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("crono-stream-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn rmat_edges_are_pure_functions_of_index() {
        let s = RmatStream::new(7, 512, 8, RmatParams::default(), 42).unwrap();
        let all: Vec<_> = s.edges().collect();
        // Regenerating any chunk out of order reproduces the same edges.
        let tail: Vec<_> = s.chunk(256, 512).collect();
        let head: Vec<_> = s.chunk(0, 256).collect();
        let mut stitched = head;
        stitched.extend(tail);
        assert_eq!(stitched, all);
        assert_eq!(s.edge(17), s.edge(17));
    }

    #[test]
    fn uniform_stream_respects_bounds() {
        let s = UniformStream::new(50, 400, 9, 7).unwrap();
        let mut count = 0;
        for (src, dst, w) in s.edges() {
            assert!(src < 50 && dst < 50 && src != dst);
            assert!((1..=9).contains(&w));
            count += 1;
        }
        assert!(count > 300, "self-loop skips should be rare: {count}");
    }

    #[test]
    fn rmat_stream_is_skewed() {
        let s = RmatStream::new(9, 8_192, 8, RmatParams::default(), 5).unwrap();
        let p = Partition::one_d(s.num_vertices(), 1);
        let dir = temp_dir("skew");
        let (g, _) =
            build_sharded::<CsrGraph, _>(p, mirror(s.edges()), &StreamConfig::new(&dir)).unwrap();
        let avg = (g.shard(0).num_directed_edges() / g.num_vertices()).max(1);
        assert!(
            g.shard(0).max_degree() > 8 * avg,
            "expected hubs: max={} avg={avg}",
            g.shard(0).max_degree()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilled_build_equals_in_memory_build() {
        let s = UniformStream::new(64, 2_000, 8, 42).unwrap();
        let p = Partition::one_d(64, 4);
        let dir = temp_dir("equal");
        // Tiny buffer forces many spilled runs.
        let spilled = StreamConfig::new(&dir).with_sort_buffer_edges(64);
        let (a, stats) = build_sharded::<CsrGraph, _>(p, mirror(s.edges()), &spilled).unwrap();
        assert!(stats.runs_spilled > 4, "runs: {}", stats.runs_spilled);
        assert!(stats.spill_bytes > 0);
        // Huge buffer: pure in-memory path.
        let resident = StreamConfig::new(&dir).with_sort_buffer_edges(1 << 20);
        let (b, stats_b) = build_sharded::<CsrGraph, _>(p, mirror(s.edges()), &resident).unwrap();
        assert_eq!(stats_b.runs_spilled, 0);
        for (x, y) in a.shards().iter().zip(b.shards()) {
            assert_eq!(x, y);
        }
        // Buffer size must not change the result, only where sorting ran.
        let mid = StreamConfig::new(&dir).with_sort_buffer_edges(333);
        let (c, _) = build_sharded::<CsrGraph, _>(p, mirror(s.edges()), &mid).unwrap();
        for (x, y) in a.shards().iter().zip(c.shards()) {
            assert_eq!(x, y);
        }
        assert!(
            !dir.read_dir().is_ok_and(|mut d| d.any(|_| true)),
            "spill files must be cleaned up"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compressed_build_matches_plain_build() {
        let s = RmatStream::new(8, 3_000, 8, RmatParams::default(), 11).unwrap();
        let p = Partition::two_d(s.num_vertices(), 2).with_placement(Placement::Hashed);
        let dir = temp_dir("repr");
        let cfg = StreamConfig::new(&dir).with_sort_buffer_edges(128);
        let (plain, _) = build_sharded::<CsrGraph, _>(p, mirror(s.edges()), &cfg).unwrap();
        let (packed, _) = build_sharded::<CompressedCsr, _>(p, mirror(s.edges()), &cfg).unwrap();
        for (a, b) in plain.shards().iter().zip(packed.shards()) {
            assert_eq!(&b.to_csr(), a);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_range_stream_edge_is_a_typed_error() {
        let p = Partition::one_d(4, 2);
        let dir = temp_dir("range");
        let err = build_sharded::<CsrGraph, _>(p, vec![(0, 9, 1)], &StreamConfig::new(&dir))
            .expect_err("out-of-range endpoint must fail");
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange { vertex: 9, .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peak_rss_reports_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap() > 0);
        }
    }
}
