use crate::{GraphError, VertexId, Weight};
use std::borrow::Cow;

/// A weighted directed graph in compressed-sparse-row form.
///
/// This is the representation CRONO converts every input graph into: one
/// offsets array, one flat neighbor array, and one parallel weight array
/// ("a data structure for vertex connections and another structure for
/// edge weights", §IV-F). All three arrays are exposed so the execution
/// backends can assign them symbolic cache-line addresses.
///
/// Undirected graphs are stored symmetrically (each edge appears in both
/// adjacency lists), matching the C suite.
///
/// A graph also carries a *symmetric* certificate ([`Self::is_symmetric`]):
/// set only by constructors that know the graph equals its own transpose
/// — an [`crate::EdgeList`] filled by `push_undirected` alone (every
/// generator), [`crate::io::read_edge_list`] with `undirected`, and a
/// Matrix Market `symmetric` file. Checking symmetry after the fact costs
/// as much as a transpose, so nothing else sets it, and there is no public
/// setter. The certificate is not part of the graph's identity: equality
/// compares the three arrays only. [`Self::in_edges`] reads it.
///
/// # Examples
///
/// ```
/// use crono_graph::CsrGraph;
///
/// let g = CsrGraph::from_edges(4, vec![(0, 1, 5), (0, 2, 3), (2, 3, 1)]);
/// assert_eq!(g.degree(0), 2);
/// let ns: Vec<_> = g.neighbors(0).collect();
/// assert_eq!(ns, vec![(1, 5), (2, 3)]);
/// ```
#[derive(Debug, Clone, Eq)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    neighbors: Vec<VertexId>,
    weights: Vec<Weight>,
    /// Known to equal [`Self::transpose`].
    symmetric: bool,
}

impl PartialEq for CsrGraph {
    fn eq(&self, other: &CsrGraph) -> bool {
        self.offsets == other.offsets
            && self.neighbors == other.neighbors
            && self.weights == other.weights
    }
}

impl CsrGraph {
    /// Builds a CSR graph from `(src, dst, weight)` triples.
    ///
    /// Edges are sorted by `(src, dst, weight)`; duplicates are kept as
    /// parallel edges (use [`crate::EdgeList::dedup`] first if undesired).
    /// The sort is a counting sort by source, then a sort of each
    /// out-list: O(n + m + m log d) for maximum out-degree d, with 8 bytes
    /// of scratch an edge allocated while the input is still alive.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_vertices` or if the number of
    /// edges overflows `u32`. Production paths (readers, generators, the
    /// CLI) go through [`Self::try_from_edges`]; this constructor exists
    /// for tests and literal fixtures where a panic is the right report.
    pub fn from_edges(
        num_vertices: usize,
        edges: Vec<(VertexId, VertexId, Weight)>,
    ) -> CsrGraph {
        match CsrGraph::try_from_edges(num_vertices, edges) {
            Ok(g) => g,
            Err(GraphError::VertexOutOfRange { .. }) => panic!("edge endpoint out of range"),
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Self::from_edges`]: returns
    /// [`GraphError::TooManyEdges`] when the directed edge count overflows
    /// the `u32` offsets and [`GraphError::VertexOutOfRange`] on a bad
    /// endpoint, instead of panicking.
    pub fn try_from_edges(
        num_vertices: usize,
        edges: Vec<(VertexId, VertexId, Weight)>,
    ) -> Result<CsrGraph, GraphError> {
        if u32::try_from(edges.len()).is_err() {
            return Err(GraphError::TooManyEdges {
                edges: edges.len() as u64,
            });
        }
        // Out-degrees, counted two slots right of their source so that
        // after the prefix sum `offsets[s + 1]` is where `s`'s list starts.
        let mut offsets = vec![0u32; num_vertices + 2];
        let mut bad = None;
        for &e in &edges {
            if e.0.max(e.1) as usize >= num_vertices {
                // The smallest bad triple is the one a full sort meets first.
                bad = Some(bad.map_or(e, |b| e.min(b)));
            } else {
                offsets[e.0 as usize + 2] += 1;
            }
        }
        if let Some((s, d, _)) = bad {
            return Err(GraphError::VertexOutOfRange {
                vertex: s.max(d) as u64,
                num_vertices,
            });
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        // Scatter `dst << 32 | weight` words, advancing each start to its
        // list's end, which is the next list's start: the final offsets.
        let mut words = vec![0u64; edges.len()];
        for (s, d, w) in edges {
            let next = &mut offsets[s as usize + 1];
            words[*next as usize] = (d as u64) << 32 | w as u64;
            *next += 1;
        }
        offsets.pop();
        // Weight participates in the order so parallel edges have a
        // canonical order (transpose round-trips exactly).
        for list in offsets.windows(2) {
            words[list[0] as usize..list[1] as usize].sort_unstable();
        }
        Ok(CsrGraph {
            offsets,
            neighbors: words.iter().map(|&x| (x >> 32) as VertexId).collect(),
            weights: words.iter().map(|&x| x as Weight).collect(),
            symmetric: false,
        })
    }

    /// Assembles a CSR graph directly from its three arrays. Used by the
    /// out-of-core packers, which produce the arrays incrementally from an
    /// already-sorted edge stream.
    pub(crate) fn from_raw_parts(
        offsets: Vec<u32>,
        neighbors: Vec<VertexId>,
        weights: Vec<Weight>,
    ) -> CsrGraph {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, neighbors.len());
        debug_assert_eq!(neighbors.len(), weights.len());
        CsrGraph {
            offsets,
            neighbors,
            weights,
            symmetric: false,
        }
    }

    /// Certifies, when `known`, that the graph equals its transpose. Only
    /// for builders that add every edge together with its reverse of
    /// equal weight.
    pub(crate) fn certified_symmetric(mut self, known: bool) -> CsrGraph {
        self.symmetric = known;
        self
    }

    /// Whether the graph is certified equal to its transpose (see the
    /// type docs for who certifies it). `false` means only "not known":
    /// a symmetric graph built by [`Self::from_edges`] is not flagged.
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of *directed* edges stored (an undirected graph stores each
    /// edge twice).
    pub fn num_directed_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// The half-open index range of `v`'s adjacency list within
    /// [`Self::neighbor_slice`] / [`Self::weight_slice`].
    pub fn edge_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// Iterates over `(neighbor, weight)` pairs of `v`.
    pub fn neighbors(&self, v: VertexId) -> Neighbors<'_> {
        let range = self.edge_range(v);
        Neighbors {
            neighbors: &self.neighbors[range.clone()],
            weights: &self.weights[range],
            idx: 0,
        }
    }

    /// The raw offsets array (`num_vertices + 1` entries).
    pub fn offset_slice(&self) -> &[u32] {
        &self.offsets
    }

    /// The flat neighbor array.
    pub fn neighbor_slice(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// The flat weight array, parallel to [`Self::neighbor_slice`].
    pub fn weight_slice(&self) -> &[Weight] {
        &self.weights
    }

    /// Returns the transpose (all edges reversed). For symmetric
    /// (undirected) graphs this is structurally equal to the input.
    ///
    /// Ordering contract: every in-list is ascending by source, then by
    /// weight. A counting sort on destination scatters sources in
    /// ascending order, and parallel edges keep their out-list order,
    /// which [`Self::from_edges`] (behind every reader and generator) and
    /// the sorted-stream packers put in ascending weight. The result then
    /// equals `from_edges` over the reversed triples, and transposing
    /// twice restores the input. O(n + m). The result is never flagged
    /// symmetric.
    pub fn transpose(&self) -> CsrGraph {
        let n = self.num_vertices();
        let mut offsets = vec![0u32; n + 1];
        for &d in &self.neighbors {
            offsets[d as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets[..n].to_vec();
        let mut neighbors = vec![0; self.neighbors.len()];
        let mut weights = vec![0; self.weights.len()];
        for src in 0..n as VertexId {
            for (dst, w) in self.neighbors(src) {
                let slot = &mut next[dst as usize];
                neighbors[*slot as usize] = src;
                weights[*slot as usize] = w;
                *slot += 1;
            }
        }
        CsrGraph::from_raw_parts(offsets, neighbors, weights)
    }

    /// The in-edge graph: row `v` lists the sources of `v`'s in-edges,
    /// ascending by source, then weight. A graph certified symmetric
    /// ([`Self::is_symmetric`]) is its own in-edge graph and is borrowed;
    /// any other graph is transposed. Debug builds check the certificate
    /// against the transpose.
    pub fn in_edges(&self) -> Cow<'_, CsrGraph> {
        if self.symmetric {
            debug_assert!(
                *self == self.transpose(),
                "graph certified symmetric differs from its transpose"
            );
            Cow::Borrowed(self)
        } else {
            Cow::Owned(self.transpose())
        }
    }

    /// Splits the edges into a *light* graph (`w <= delta`) and a *heavy*
    /// graph (`w > delta`) over the same vertices, as delta-stepping
    /// relaxes them. Each adjacency list keeps its order, so both halves
    /// equal [`Self::from_edges`] over the filtered triples. O(n + m):
    /// one pass counts the light edges to size both halves, a second
    /// writes every edge to both and advances the light cursor by
    /// `w <= delta` — the heavy cursor is the edge index minus it — so
    /// the loop has no data-dependent branch. Neither half is flagged
    /// symmetric.
    pub fn split_by_weight(&self, delta: Weight) -> (CsrGraph, CsrGraph) {
        let n = self.num_vertices();
        let light_m = self.weights.iter().filter(|&&w| w <= delta).count();
        let heavy_m = self.weights.len() - light_m;
        // One spare slot a half: each edge is also written to the half it
        // does not belong to, at that half's next free slot, which is one
        // past the end once the half is full.
        let mut light_neighbors = vec![0; light_m + 1];
        let mut light_weights = vec![0; light_m + 1];
        let mut heavy_neighbors = vec![0; heavy_m + 1];
        let mut heavy_weights = vec![0; heavy_m + 1];
        let mut light_offsets = Vec::with_capacity(n + 1);
        let mut heavy_offsets = Vec::with_capacity(n + 1);
        light_offsets.push(0);
        heavy_offsets.push(0);
        let mut light = 0usize;
        for v in 0..n {
            let end = self.offsets[v + 1] as usize;
            for e in self.offsets[v] as usize..end {
                let (d, w) = (self.neighbors[e], self.weights[e]);
                light_neighbors[light] = d;
                light_weights[light] = w;
                heavy_neighbors[e - light] = d;
                heavy_weights[e - light] = w;
                light += (w <= delta) as usize;
            }
            light_offsets.push(light as u32);
            heavy_offsets.push((end - light) as u32);
        }
        light_neighbors.truncate(light_m);
        light_weights.truncate(light_m);
        heavy_neighbors.truncate(heavy_m);
        heavy_weights.truncate(heavy_m);
        (
            CsrGraph::from_raw_parts(light_offsets, light_neighbors, light_weights),
            CsrGraph::from_raw_parts(heavy_offsets, heavy_neighbors, heavy_weights),
        )
    }

    /// Total weight of all directed edges, as `u64` to avoid overflow.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().map(|&w| w as u64).sum()
    }

    /// Maximum out-degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }
}

/// Incremental builder producing a flat [`CsrGraph`] from a
/// `(src, dst, weight)` stream sorted by `(src, dst)` — the plain-CSR
/// counterpart of [`crate::CompressedPacker`], used by the out-of-core
/// shard pipeline in [`crate::stream`].
#[derive(Debug)]
pub struct CsrPacker {
    num_vertices: usize,
    offsets: Vec<u32>,
    neighbors: Vec<VertexId>,
    weights: Vec<Weight>,
    cur_src: VertexId,
    last_dst: Option<VertexId>,
}

impl CsrPacker {
    /// Creates a packer for a graph over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> CsrPacker {
        CsrPacker {
            num_vertices,
            offsets: vec![0],
            neighbors: Vec::new(),
            weights: Vec::new(),
            cur_src: 0,
            last_dst: None,
        }
    }

    /// Appends one edge. Sources must be non-decreasing and, within a
    /// source, destinations non-decreasing.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] for a bad endpoint,
    /// [`GraphError::InvalidSize`] for a sort-order violation, and
    /// [`GraphError::TooManyEdges`] when the edge count overflows the
    /// `u32` offsets.
    pub fn push_edge(&mut self, src: VertexId, dst: VertexId, w: Weight) -> Result<(), GraphError> {
        let far = src.max(dst);
        if far as usize >= self.num_vertices {
            return Err(GraphError::VertexOutOfRange {
                vertex: far as u64,
                num_vertices: self.num_vertices,
            });
        }
        if src < self.cur_src {
            return Err(GraphError::InvalidSize(format!(
                "edge stream not sorted: source {src} after {}",
                self.cur_src
            )));
        }
        if self.neighbors.len() >= u32::MAX as usize {
            return Err(GraphError::TooManyEdges {
                edges: self.neighbors.len() as u64 + 1,
            });
        }
        if src > self.cur_src {
            for _ in self.cur_src..src {
                self.offsets.push(self.neighbors.len() as u32);
            }
            self.cur_src = src;
            self.last_dst = None;
        } else if let Some(prev) = self.last_dst {
            if dst < prev {
                return Err(GraphError::InvalidSize(format!(
                    "edge stream not sorted: destination {dst} after {prev} at source {src}"
                )));
            }
        }
        self.last_dst = Some(dst);
        self.neighbors.push(dst);
        self.weights.push(w);
        Ok(())
    }

    /// Finalizes the CSR arrays.
    ///
    /// # Errors
    ///
    /// Currently infallible (capacity is checked on push); returns
    /// `Result` to share the [`crate::AdjacencyPacker`] signature.
    pub fn finish(mut self) -> Result<CsrGraph, GraphError> {
        while self.offsets.len() < self.num_vertices + 1 {
            self.offsets.push(self.neighbors.len() as u32);
        }
        Ok(CsrGraph::from_raw_parts(
            self.offsets,
            self.neighbors,
            self.weights,
        ))
    }
}

/// Iterator over `(neighbor, weight)` pairs produced by
/// [`CsrGraph::neighbors`].
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    neighbors: &'a [VertexId],
    weights: &'a [Weight],
    idx: usize,
}

impl Iterator for Neighbors<'_> {
    type Item = (VertexId, Weight);

    fn next(&mut self) -> Option<Self::Item> {
        if self.idx < self.neighbors.len() {
            let item = (self.neighbors[self.idx], self.weights[self.idx]);
            self.idx += 1;
            Some(item)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.neighbors.len() - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(4, vec![(0, 1, 1), (0, 2, 2), (1, 3, 3), (2, 3, 4)])
    }

    #[test]
    fn from_edges_builds_offsets() {
        let g = diamond();
        assert_eq!(g.offset_slice(), &[0, 2, 3, 4, 4]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_directed_edges(), 4);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn neighbors_sorted_by_destination() {
        let g = CsrGraph::from_edges(3, vec![(0, 2, 9), (0, 1, 8)]);
        let ns: Vec<_> = g.neighbors(0).collect();
        assert_eq!(ns, vec![(1, 8), (2, 9)]);
    }

    #[test]
    fn neighbors_is_exact_size() {
        let g = diamond();
        let it = g.neighbors(0);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond();
        let t = g.transpose();
        let ns: Vec<_> = t.neighbors(3).collect();
        assert_eq!(ns, vec![(1, 3), (2, 4)]);
        // Transposing twice restores the original.
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = CsrGraph::from_edges(0, vec![]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.total_weight(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        CsrGraph::from_edges(2, vec![(0, 5, 1)]);
    }

    #[test]
    fn total_weight_sums_all_edges() {
        assert_eq!(diamond().total_weight(), 10);
    }

    #[test]
    fn packer_matches_from_edges() {
        let edges = vec![(0, 1, 1), (0, 2, 2), (1, 3, 3), (2, 3, 4)];
        let mut p = CsrPacker::new(4);
        for &(s, d, w) in &edges {
            p.push_edge(s, d, w).unwrap();
        }
        assert_eq!(p.finish().unwrap(), CsrGraph::from_edges(4, edges));
    }

    #[test]
    fn packer_fills_trailing_isolated_vertices() {
        let mut p = CsrPacker::new(6);
        p.push_edge(1, 2, 7).unwrap();
        let g = p.finish().unwrap();
        assert_eq!(g.offset_slice(), &[0, 0, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn packer_rejects_unsorted_stream() {
        let mut p = CsrPacker::new(4);
        p.push_edge(2, 0, 1).unwrap();
        assert!(p.push_edge(1, 0, 1).is_err());
        assert!(p.push_edge(2, 3, 1).is_ok());
        let mut q = CsrPacker::new(4);
        q.push_edge(0, 3, 1).unwrap();
        assert!(q.push_edge(0, 1, 1).is_err());
    }

    #[test]
    fn try_from_edges_reports_bad_endpoint() {
        let err = CsrGraph::try_from_edges(2, vec![(0, 5, 1)]).unwrap_err();
        match err {
            crate::GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => {
                assert_eq!(vertex, 5);
                assert_eq!(num_vertices, 2);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn try_from_edges_reports_the_smallest_bad_triple() {
        // Input order meets vertex 9 first; sorted order meets 5 first.
        let err = CsrGraph::try_from_edges(2, vec![(1, 0, 1), (0, 9, 1), (0, 5, 1)]).unwrap_err();
        assert!(
            matches!(
                err,
                crate::GraphError::VertexOutOfRange {
                    vertex: 5,
                    num_vertices: 2
                }
            ),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn try_from_edges_matches_panicking_constructor() {
        let edges = vec![(0, 1, 1), (0, 2, 2), (1, 3, 3), (2, 3, 4)];
        let g = CsrGraph::try_from_edges(4, edges.clone()).unwrap();
        assert_eq!(g, CsrGraph::from_edges(4, edges));
    }
}
