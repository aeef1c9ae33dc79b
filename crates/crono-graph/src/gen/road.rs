use crate::rng::SmallRng;
use crate::{CsrGraph, EdgeList, VertexId, Weight};

/// Synthetic road network standing in for CRONO's SNAP roadNet inputs.
///
/// Real road networks (roadNet-TX/PA/CA, Table III) are near-planar,
/// low-degree (average ≈ 2.8 directed edges per vertex), high-diameter
/// graphs. This generator reproduces those properties with a `rows × cols`
/// grid in which:
///
/// * each vertex connects to its right and down neighbors with
///   distance-like weights (`1..=max_weight`),
/// * a fraction `drop` of grid edges is removed (dead ends, rivers,
///   irregular street plans); a union-find stitching pass then restores
///   just enough dropped grid edges to keep the network connected,
/// * a fraction `shortcut` of vertices gains one longer-range "highway"
///   edge to a vertex a few blocks away.
///
/// The result matches the paper's road inputs in scale, sparsity, and the
/// high graph diameter that drives their BFS/SSSP behavior.
///
/// # Panics
///
/// Panics if `rows * cols < 4`, `max_weight == 0`, or `drop`/`shortcut`
/// are outside `[0, 1)`.
///
/// # Examples
///
/// ```
/// use crono_graph::gen::road_network;
///
/// let g = road_network(32, 32, 64, 0.1, 0.05, 42);
/// assert_eq!(g.num_vertices(), 1024);
/// let avg = g.num_directed_edges() as f64 / g.num_vertices() as f64;
/// assert!(avg < 5.0, "road networks are low-degree, got {avg}");
/// ```
pub fn road_network(
    rows: usize,
    cols: usize,
    max_weight: Weight,
    drop: f64,
    shortcut: f64,
    seed: u64,
) -> CsrGraph {
    let n = rows * cols;
    assert!(n >= 4, "road network needs at least a 2x2 grid");
    assert!(max_weight > 0, "max_weight must be positive");
    assert!((0.0..1.0).contains(&drop), "drop must be in [0, 1)");
    assert!((0.0..1.0).contains(&shortcut), "shortcut must be in [0, 1)");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut el = EdgeList::with_capacity(n, 2 * n + n / 4);
    let mut dsu = crate::dsu::Dsu::new(n);
    let vid = |r: usize, c: usize| (r * cols + c) as VertexId;

    for r in 0..rows {
        for c in 0..cols {
            let v = vid(r, c);
            if c + 1 < cols && rng.random::<f64>() >= drop {
                let u = vid(r, c + 1);
                dsu.union(v, u);
                el.push_undirected(v, u, rng.random_range(1..=max_weight))
                    .expect("grid endpoints in range");
            }
            if r + 1 < rows && rng.random::<f64>() >= drop {
                let u = vid(r + 1, c);
                dsu.union(v, u);
                el.push_undirected(v, u, rng.random_range(1..=max_weight))
                    .expect("grid endpoints in range");
            }
            if rng.random::<f64>() < shortcut {
                // A short highway hop: up to 4 blocks away in each axis.
                let dr = rng.random_range(0..=4usize);
                let dc = rng.random_range(0..=4usize);
                let tr = (r + dr).min(rows - 1);
                let tc = (c + dc).min(cols - 1);
                let u = vid(tr, tc);
                if u != v {
                    let dist = (dr + dc) as Weight;
                    let w = dist.max(1) * rng.random_range(1..=max_weight).max(1);
                    dsu.union(v, u);
                    el.push_undirected(v, u, w).expect("shortcut in range");
                }
            }
        }
    }
    // Stitching pass: restore dropped grid edges whose endpoints ended up in
    // different components, keeping the network connected (real road
    // networks are one giant component).
    for r in 0..rows {
        for c in 0..cols {
            let v = vid(r, c);
            if c + 1 < cols && dsu.union(v, vid(r, c + 1)) {
                el.push_undirected(v, vid(r, c + 1), rng.random_range(1..=max_weight))
                    .expect("grid endpoints in range");
            }
            if r + 1 < rows && dsu.union(v, vid(r + 1, c)) {
                el.push_undirected(v, vid(r + 1, c), rng.random_range(1..=max_weight))
                    .expect("grid endpoints in range");
            }
        }
    }
    el.dedup();
    el.into_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsu::Dsu;

    fn components(g: &CsrGraph) -> usize {
        let mut dsu = Dsu::new(g.num_vertices());
        for v in 0..g.num_vertices() as VertexId {
            for (u, _) in g.neighbors(v) {
                dsu.union(v, u);
            }
        }
        dsu.num_components()
    }

    #[test]
    fn connected_despite_heavy_dropping() {
        let g = road_network(20, 20, 16, 0.6, 0.0, 3);
        assert_eq!(components(&g), 1);
    }

    #[test]
    fn low_average_degree() {
        let g = road_network(64, 64, 64, 0.15, 0.05, 7);
        let avg = g.num_directed_edges() as f64 / g.num_vertices() as f64;
        assert!((1.5..5.0).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn deterministic_for_seed() {
        assert_eq!(
            road_network(10, 12, 8, 0.2, 0.1, 5),
            road_network(10, 12, 8, 0.2, 0.1, 5)
        );
    }

    #[test]
    fn high_diameter_vs_random_graph() {
        // BFS depth from corner vertex: a 30x30 road grid should need far
        // more levels than log2(n).
        let g = road_network(30, 30, 4, 0.1, 0.0, 9);
        let n = g.num_vertices();
        let mut depth = vec![u32::MAX; n];
        depth[0] = 0;
        let mut queue = std::collections::VecDeque::from([0u32]);
        let mut max_depth = 0;
        while let Some(v) = queue.pop_front() {
            for (u, _) in g.neighbors(v) {
                if depth[u as usize] == u32::MAX {
                    depth[u as usize] = depth[v as usize] + 1;
                    max_depth = max_depth.max(depth[u as usize]);
                    queue.push_back(u);
                }
            }
        }
        assert!(max_depth > 30, "grid diameter should exceed 30 hops");
    }

    #[test]
    #[should_panic(expected = "2x2 grid")]
    fn rejects_degenerate_grid() {
        road_network(1, 2, 4, 0.0, 0.0, 0);
    }
}
