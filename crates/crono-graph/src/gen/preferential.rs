use crate::rng::SmallRng;
use crate::{CsrGraph, EdgeList, VertexId, Weight};

/// Barabási–Albert preferential-attachment graph.
///
/// The SNAP directory CRONO draws from "contains several graph types such
/// as road networks, citation networks, and social networks" (§IV-F);
/// citation networks grow by preferential attachment — each new vertex
/// cites `edges_per_vertex` existing vertices with probability
/// proportional to their current degree, producing the power-law
/// in-degree distribution real citation graphs show.
///
/// Stored symmetrically (undirected), like the rest of the suite's
/// inputs.
///
/// # Panics
///
/// Panics if `n <= edges_per_vertex`, `edges_per_vertex == 0`, or
/// `max_weight == 0`.
///
/// # Examples
///
/// ```
/// use crono_graph::gen::preferential_attachment;
///
/// let g = preferential_attachment(1_000, 4, 16, 9);
/// assert_eq!(g.num_vertices(), 1_000);
/// // Early vertices accumulate citations: a heavy tail exists.
/// assert!(g.max_degree() > 3 * g.num_directed_edges() / g.num_vertices());
/// ```
pub fn preferential_attachment(
    n: usize,
    edges_per_vertex: usize,
    max_weight: Weight,
    seed: u64,
) -> CsrGraph {
    assert!(edges_per_vertex > 0, "each vertex must add an edge");
    assert!(
        n > edges_per_vertex,
        "need more vertices than edges per vertex"
    );
    assert!(max_weight > 0, "max_weight must be positive");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut el = EdgeList::with_capacity(n, 2 * n * edges_per_vertex);
    // Repeated-endpoint list: sampling a uniform element is sampling
    // proportional to degree.
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * n * edges_per_vertex);

    // Seed clique over the first `edges_per_vertex + 1` vertices.
    let seed_n = edges_per_vertex + 1;
    for a in 0..seed_n as VertexId {
        for b in (a + 1)..seed_n as VertexId {
            el.push_undirected(a, b, rng.random_range(1..=max_weight))
                .expect("seed clique in range");
            endpoints.push(a);
            endpoints.push(b);
        }
    }

    let mut chosen: Vec<VertexId> = Vec::with_capacity(edges_per_vertex);
    for v in seed_n as VertexId..n as VertexId {
        chosen.clear();
        while chosen.len() < edges_per_vertex {
            let t = endpoints[rng.random_range(0..endpoints.len())];
            if t != v && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        // Attach in ascending target order, not draw order.
        chosen.sort_unstable();
        for &t in &chosen {
            el.push_undirected(v, t, rng.random_range(1..=max_weight))
                .expect("attachment in range");
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    el.into_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsu::Dsu;

    #[test]
    fn connected_by_construction() {
        let g = preferential_attachment(500, 3, 8, 4);
        let mut dsu = Dsu::new(500);
        for v in 0..500u32 {
            for (u, _) in g.neighbors(v) {
                dsu.union(v, u);
            }
        }
        assert_eq!(dsu.num_components(), 1);
    }

    #[test]
    fn edge_count_is_exact() {
        let m = 3;
        let n = 200;
        let g = preferential_attachment(n, m, 8, 7);
        let seed_edges = (m + 1) * m / 2;
        let grown = (n - m - 1) * m;
        assert_eq!(g.num_directed_edges(), 2 * (seed_edges + grown));
    }

    #[test]
    fn heavy_tail_exists() {
        let g = preferential_attachment(2_000, 4, 8, 11);
        let avg = g.num_directed_edges() / g.num_vertices();
        assert!(
            g.max_degree() > 5 * avg,
            "hub degree {} vs avg {avg}",
            g.max_degree()
        );
    }

    #[test]
    fn deterministic_for_seed() {
        assert_eq!(
            preferential_attachment(100, 2, 4, 5),
            preferential_attachment(100, 2, 4, 5)
        );
    }

    #[test]
    #[should_panic(expected = "more vertices")]
    fn degenerate_size_rejected() {
        preferential_attachment(3, 3, 4, 0);
    }
}
