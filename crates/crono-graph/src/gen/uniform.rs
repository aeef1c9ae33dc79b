use crate::pair_set::PairSet;
use crate::rng::SmallRng;
use crate::{CsrGraph, EdgeList, VertexId, Weight};

/// GTgraph-style uniform sparse random graph.
///
/// Reproduces the paper's default *synthetic sparse* input (Table III:
/// 1,048,576 vertices / 16,777,216 directed edges, i.e. 16 edges per
/// vertex): `num_edges` undirected edges drawn uniformly at random with
/// weights in `1..=max_weight`, stored symmetrically. Self-loops and
/// duplicates are redrawn so the requested edge count is met exactly when
/// possible.
///
/// To guarantee the frontier-based benchmarks have work from any source
/// vertex, the generator first threads a random Hamiltonian backbone
/// through all vertices (a common GTgraph configuration), then fills the
/// remaining edge budget with uniform picks. Duplicates are caught by a
/// flat pair set sized for `num_edges` pairs (8 bytes a slot, at most half
/// full), which is freed before the edge list is packed into CSR.
///
/// # Panics
///
/// Panics if `n < 2`, `max_weight == 0`, `num_edges < n - 1`, or
/// `num_edges > n(n-1)/2`, before allocating anything.
///
/// # Examples
///
/// ```
/// use crono_graph::gen::uniform_random;
///
/// let g = uniform_random(256, 1_024, 64, 1);
/// assert_eq!(g.num_vertices(), 256);
/// assert_eq!(g.num_directed_edges(), 2 * 1_024);
/// ```
pub fn uniform_random(n: usize, num_edges: usize, max_weight: Weight, seed: u64) -> CsrGraph {
    assert!(n >= 2, "uniform_random requires at least 2 vertices");
    assert!(max_weight > 0, "max_weight must be positive");
    assert!(
        num_edges >= n - 1,
        "need at least n-1 edges for the connecting backbone"
    );
    let max_possible = n * (n - 1) / 2;
    assert!(
        num_edges <= max_possible,
        "requested {num_edges} edges but a simple graph on {n} vertices holds at most {max_possible}"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut el = EdgeList::with_capacity(n, 2 * num_edges);
    let mut seen = PairSet::with_capacity(num_edges);

    // Backbone: a random permutation path keeps the graph connected.
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    for w in perm.windows(2) {
        seen.insert(w[0], w[1]);
        el.push_undirected(w[0], w[1], rng.random_range(1..=max_weight))
            .expect("backbone endpoints in range");
    }

    let mut remaining = num_edges - (n - 1);
    while remaining > 0 {
        let a = rng.random_range(0..n as VertexId);
        let b = rng.random_range(0..n as VertexId);
        if a == b || !seen.insert(a, b) {
            continue;
        }
        el.push_undirected(a, b, rng.random_range(1..=max_weight))
            .expect("endpoints in range");
        remaining -= 1;
    }
    drop(seen);
    el.into_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_edge_count() {
        let g = uniform_random(100, 400, 10, 3);
        assert_eq!(g.num_directed_edges(), 800);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = uniform_random(64, 256, 8, 9);
        let b = uniform_random(64, 256, 8, 9);
        assert_eq!(a, b);
        let c = uniform_random(64, 256, 8, 10);
        assert_ne!(a, c, "different seed gives different graph");
    }

    #[test]
    fn connected_by_backbone() {
        let g = uniform_random(200, 199, 5, 11);
        let mut dsu = crate::dsu::Dsu::new(200);
        for v in 0..200u32 {
            for (u, _) in g.neighbors(v) {
                dsu.union(v, u);
            }
        }
        assert_eq!(dsu.num_components(), 1);
    }

    #[test]
    fn weights_in_range() {
        let g = uniform_random(50, 100, 3, 2);
        assert!(g.weight_slice().iter().all(|&w| (1..=3).contains(&w)));
    }

    #[test]
    fn symmetric_storage() {
        let g = uniform_random(40, 80, 9, 5);
        for v in 0..40u32 {
            for (u, w) in g.neighbors(v) {
                assert!(
                    g.neighbors(u).any(|(x, wx)| x == v && wx == w),
                    "missing reverse edge {u}->{v}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 vertices")]
    fn rejects_tiny_graphs() {
        uniform_random(1, 0, 1, 0);
    }

    #[test]
    #[should_panic(expected = "holds at most")]
    fn rejects_an_edge_budget_before_allocating_it() {
        // 2^40 edges would need a 24 TiB edge list; the check comes first.
        uniform_random(4, 1 << 40, 8, 1);
    }
}
