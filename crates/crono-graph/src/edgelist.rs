use crate::{GraphError, VertexId, Weight};

/// A mutable list of weighted directed edges, the intermediate form every
/// generator and parser produces before conversion to [`crate::CsrGraph`].
///
/// A list from [`Self::new`] or [`Self::with_capacity`] whose every edge
/// came from [`Self::push_undirected`] is symmetric, and the graph it
/// converts into is certified so ([`crate::CsrGraph::is_symmetric`]).
/// One [`Self::push`] drops the certificate for good; [`Self::dedup`]
/// keeps it.
///
/// # Examples
///
/// ```
/// use crono_graph::EdgeList;
///
/// let mut el = EdgeList::new(3);
/// el.push(0, 1, 5).unwrap();
/// el.push_undirected(1, 2, 7).unwrap();
/// assert_eq!(el.len(), 3);
/// let g = el.into_csr();
/// assert_eq!(g.degree(0), 1);
/// assert_eq!(g.degree(2), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EdgeList {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId, Weight)>,
    /// When set, certifies that every edge came from
    /// [`Self::push_undirected`].
    symmetric: bool,
}

impl EdgeList {
    /// Creates an empty edge list over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        EdgeList::with_capacity(num_vertices, 0)
    }

    /// Creates an empty edge list with capacity for `cap` edges.
    pub fn with_capacity(num_vertices: usize, cap: usize) -> Self {
        EdgeList {
            num_vertices,
            edges: Vec::with_capacity(cap),
            symmetric: true,
        }
    }

    /// Number of vertices this edge list ranges over.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges currently stored.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Adds one directed edge `src -> dst` with weight `w`, dropping the
    /// list's symmetric certificate.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if either endpoint is not a
    /// valid vertex id.
    pub fn push(&mut self, src: VertexId, dst: VertexId, w: Weight) -> Result<(), GraphError> {
        self.check(src)?;
        self.check(dst)?;
        self.edges.push((src, dst, w));
        self.symmetric = false;
        Ok(())
    }

    /// Adds `src <-> dst` as a pair of directed edges of equal weight; a
    /// self-loop is stored once.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if either endpoint is not a
    /// valid vertex id.
    pub fn push_undirected(
        &mut self,
        src: VertexId,
        dst: VertexId,
        w: Weight,
    ) -> Result<(), GraphError> {
        self.check(src)?;
        self.check(dst)?;
        self.edges.push((src, dst, w));
        if src != dst {
            self.edges.push((dst, src, w));
        }
        Ok(())
    }

    /// Iterates over the stored `(src, dst, weight)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        self.edges.iter().copied()
    }

    /// Removes duplicate edges (same `src`/`dst`, keeping the smallest
    /// weight) and self-loops. Generators use this so requested edge counts
    /// are honored without parallel edges. A symmetric list stays
    /// symmetric: `src -> dst` and `dst -> src` carry the same weights, so
    /// both keep the same smallest one.
    pub fn dedup(&mut self) {
        self.edges.retain(|&(s, d, _)| s != d);
        self.edges.sort_unstable();
        self.edges.dedup_by_key(|&mut (s, d, _)| (s, d));
    }

    /// Converts into a CSR graph, sorting edges by source then destination.
    /// The graph is certified symmetric if the list is.
    ///
    /// # Panics
    ///
    /// Panics if the directed edge count overflows the CSR's `u32`
    /// offsets.
    pub fn into_csr(self) -> crate::CsrGraph {
        match self.try_into_csr() {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible conversion into a CSR graph; the production path for
    /// parser- and CLI-sourced edge lists. The graph is certified
    /// symmetric if the list is.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooManyEdges`] when the directed edge count
    /// overflows the CSR's `u32` offsets. (Endpoints were validated on
    /// `push`, so `VertexOutOfRange` cannot occur here.)
    pub fn try_into_csr(self) -> Result<crate::CsrGraph, GraphError> {
        let g = crate::CsrGraph::try_from_edges(self.num_vertices, self.edges)?;
        Ok(g.certified_symmetric(self.symmetric))
    }

    fn check(&self, v: VertexId) -> Result<(), GraphError> {
        if (v as usize) < self.num_vertices {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange {
                vertex: v as u64,
                num_vertices: self.num_vertices,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_rejects_out_of_range() {
        let mut el = EdgeList::new(2);
        assert!(el.push(0, 1, 1).is_ok());
        assert!(matches!(
            el.push(0, 2, 1),
            Err(GraphError::VertexOutOfRange { vertex: 2, .. })
        ));
    }

    #[test]
    fn undirected_push_adds_both_directions() {
        let mut el = EdgeList::new(4);
        el.push_undirected(1, 3, 9).unwrap();
        let edges: Vec<_> = el.iter().collect();
        assert_eq!(edges, vec![(1, 3, 9), (3, 1, 9)]);
    }

    #[test]
    fn undirected_self_loop_added_once() {
        let mut el = EdgeList::new(4);
        el.push_undirected(2, 2, 1).unwrap();
        assert_eq!(el.len(), 1);
        el.dedup();
        assert_eq!(el.len(), 0, "dedup removes self loops");
    }

    #[test]
    fn dedup_keeps_smallest_weight() {
        let mut el = EdgeList::new(3);
        el.push(0, 1, 8).unwrap();
        el.push(0, 1, 3).unwrap();
        el.push(0, 2, 5).unwrap();
        el.dedup();
        let edges: Vec<_> = el.iter().collect();
        assert_eq!(edges, vec![(0, 1, 3), (0, 2, 5)]);
    }
}
