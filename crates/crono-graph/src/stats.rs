//! Topology statistics used by the characterization harness and the tests
//! that check synthetic stand-ins match their Table III originals.

use crate::dsu::Dsu;
use crate::{CsrGraph, VertexId};

/// Summary statistics of a graph's topology.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Vertex count.
    pub vertices: usize,
    /// Directed edge count.
    pub directed_edges: usize,
    /// Average out-degree.
    pub avg_degree: f64,
    /// Maximum out-degree.
    pub max_degree: usize,
    /// Number of connected components (treating edges as undirected).
    pub components: usize,
    /// BFS eccentricity of vertex 0 (a diameter lower bound).
    pub bfs_depth_from_zero: u32,
}

/// Computes [`GraphStats`] for `graph`.
///
/// # Examples
///
/// ```
/// use crono_graph::{stats::graph_stats, gen::uniform_random};
///
/// let s = graph_stats(&uniform_random(128, 512, 8, 3));
/// assert_eq!(s.vertices, 128);
/// assert_eq!(s.components, 1);
/// ```
pub fn graph_stats(graph: &CsrGraph) -> GraphStats {
    let n = graph.num_vertices();
    let mut dsu = Dsu::new(n);
    for v in 0..n as VertexId {
        for (u, _) in graph.neighbors(v) {
            dsu.union(v, u);
        }
    }
    GraphStats {
        vertices: n,
        directed_edges: graph.num_directed_edges(),
        avg_degree: if n == 0 {
            0.0
        } else {
            graph.num_directed_edges() as f64 / n as f64
        },
        max_degree: graph.max_degree(),
        components: dsu.num_components(),
        bfs_depth_from_zero: if n == 0 { 0 } else { bfs_depth(graph, 0) },
    }
}

/// Maximum BFS level reached from `source` (unweighted eccentricity within
/// its component).
pub fn bfs_depth(graph: &CsrGraph, source: VertexId) -> u32 {
    let n = graph.num_vertices();
    let mut depth = vec![u32::MAX; n];
    depth[source as usize] = 0;
    let mut queue = std::collections::VecDeque::from([source]);
    let mut max_depth = 0;
    while let Some(v) = queue.pop_front() {
        for (u, _) in graph.neighbors(v) {
            if depth[u as usize] == u32::MAX {
                depth[u as usize] = depth[v as usize] + 1;
                max_depth = max_depth.max(depth[u as usize]);
                queue.push_back(u);
            }
        }
    }
    max_depth
}

/// Global clustering coefficient: `3 × triangles / open-wedge count`
/// (0 when the graph has no wedge). Social networks cluster strongly;
/// road networks barely — the property that separates the Table III
/// input classes.
pub fn clustering_coefficient(graph: &CsrGraph) -> f64 {
    let n = graph.num_vertices() as VertexId;
    let mut triangles = 0u64;
    let mut wedges = 0u64;
    for v in 0..n {
        let d = graph.degree(v) as u64;
        wedges += d.saturating_sub(1) * d / 2;
        // Count triangles at their smallest vertex via sorted
        // intersection.
        let nv: Vec<VertexId> = graph.neighbors(v).map(|(u, _)| u).collect();
        for &u in nv.iter().filter(|&&u| u > v) {
            let nu: Vec<VertexId> = graph.neighbors(u).map(|(w, _)| w).collect();
            let (mut i, mut j) = (0, 0);
            while i < nv.len() && j < nu.len() {
                if nv[i] <= u || nv[i] < nu[j] {
                    i += 1;
                } else if nu[j] <= u || nu[j] < nv[i] {
                    j += 1;
                } else {
                    triangles += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    if wedges == 0 {
        0.0
    } else {
        3.0 * triangles as f64 / wedges as f64
    }
}

/// Degree histogram in power-of-two buckets: `result[k]` counts vertices
/// with out-degree in `[2^k, 2^(k+1))`; `result[0]` also counts degree-0
/// and degree-1 vertices.
pub fn degree_histogram(graph: &CsrGraph) -> Vec<usize> {
    let mut hist = Vec::new();
    for v in 0..graph.num_vertices() as VertexId {
        let d = graph.degree(v);
        let bucket = if d <= 1 {
            0
        } else {
            (usize::BITS - 1 - d.leading_zeros()) as usize
        };
        if bucket >= hist.len() {
            hist.resize(bucket + 1, 0);
        }
        hist[bucket] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{rmat, road_network, uniform_random, RmatParams};

    #[test]
    fn stats_of_path_graph() {
        let g = CsrGraph::from_edges(4, vec![(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)]);
        let s = graph_stats(&g);
        assert_eq!(s.components, 2, "vertex 3 is isolated");
        assert_eq!(s.bfs_depth_from_zero, 2);
        assert_eq!(s.max_degree, 2);
    }

    #[test]
    fn road_has_higher_diameter_than_uniform() {
        let road = road_network(40, 40, 8, 0.1, 0.0, 4);
        let uni = uniform_random(1600, 6400, 8, 4);
        assert!(
            graph_stats(&road).bfs_depth_from_zero > 4 * graph_stats(&uni).bfs_depth_from_zero,
            "road diameter should dwarf uniform random diameter"
        );
    }

    #[test]
    fn degree_histogram_buckets() {
        // degrees: 0 -> bucket 0, 3 -> bucket 1, 8 -> bucket 3
        let mut edges = Vec::new();
        for d in 0..3 {
            edges.push((1u32, 2 + d, 1u32));
        }
        for d in 0..8 {
            edges.push((0u32, 2 + d, 1u32));
        }
        let g = CsrGraph::from_edges(10, edges);
        let h = degree_histogram(&g);
        assert_eq!(h[3], 1, "one vertex of degree 8");
        assert_eq!(h[1], 1, "one vertex of degree 3");
    }

    #[test]
    fn clustering_of_triangle_is_one() {
        let g = CsrGraph::from_edges(
            3,
            vec![
                (0, 1, 1),
                (1, 0, 1),
                (1, 2, 1),
                (2, 1, 1),
                (0, 2, 1),
                (2, 0, 1),
            ],
        );
        assert!((clustering_coefficient(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_of_star_is_zero() {
        let mut edges = Vec::new();
        for leaf in 1..6u32 {
            edges.push((0, leaf, 1));
            edges.push((leaf, 0, 1));
        }
        let g = CsrGraph::from_edges(6, edges);
        assert_eq!(clustering_coefficient(&g), 0.0);
    }

    #[test]
    fn road_clusters_less_than_social() {
        let road = road_network(24, 24, 4, 0.1, 0.0, 3);
        let social = crate::gen::preferential_attachment(576, 4, 4, 3);
        assert!(
            clustering_coefficient(&social) > clustering_coefficient(&road),
            "social {} vs road {}",
            clustering_coefficient(&social),
            clustering_coefficient(&road)
        );
    }

    #[test]
    fn rmat_histogram_has_long_tail() {
        let g = rmat(11, 16_384, 4, RmatParams::default(), 6);
        let h = degree_histogram(&g);
        assert!(
            h.len() >= 6,
            "expected degrees spanning many octaves: {h:?}"
        );
    }
}
