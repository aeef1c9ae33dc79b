//! The input-graph catalog of Table III, with synthetic stand-ins.
//!
//! Each [`Dataset`] records the paper's vertex/edge counts and knows how to
//! generate a topologically equivalent graph, optionally scaled down by a
//! power-of-two `shrink` factor so the full characterization harness runs
//! on laptop-class machines (`shrink = 0` reproduces paper scale).

use crate::gen::{rmat, road_network, uniform_random, RmatParams};
use crate::CsrGraph;

/// Default maximum edge weight used by the catalog generators.
pub const DEFAULT_MAX_WEIGHT: u32 = 64;

/// One row of the paper's Table III ("Input graphs for evaluation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Dataset {
    /// Synthetic sparse graph: 1,048,576 vertices / 16,777,216 edges.
    SparseSynthetic,
    /// roadNet-TX: 1,379,917 vertices / 1,921,660 edges.
    RoadTx,
    /// roadNet-PA: 1,088,092 vertices / 1,541,898 edges.
    RoadPa,
    /// roadNet-CA: 1,965,206 vertices / 2,766,607 edges.
    RoadCa,
    /// Facebook social network: 2,937,612 vertices / 41,919,708 edges.
    FacebookSocial,
}

impl Dataset {
    /// All datasets in Table III order.
    pub const ALL: [Dataset; 5] = [
        Dataset::SparseSynthetic,
        Dataset::RoadTx,
        Dataset::RoadPa,
        Dataset::RoadCa,
        Dataset::FacebookSocial,
    ];

    /// Short identifier used in reports (matches Table IV column headers).
    pub fn label(self) -> &'static str {
        match self {
            Dataset::SparseSynthetic => "Sparse",
            Dataset::RoadTx => "TX",
            Dataset::RoadPa => "PN",
            Dataset::RoadCa => "CA",
            Dataset::FacebookSocial => "FB",
        }
    }

    /// Vertex count reported in Table III.
    pub fn paper_vertices(self) -> usize {
        match self {
            Dataset::SparseSynthetic => 1_048_576,
            Dataset::RoadTx => 1_379_917,
            Dataset::RoadPa => 1_088_092,
            Dataset::RoadCa => 1_965_206,
            Dataset::FacebookSocial => 2_937_612,
        }
    }

    /// Edge count reported in Table III.
    pub fn paper_edges(self) -> usize {
        match self {
            Dataset::SparseSynthetic => 16_777_216,
            Dataset::RoadTx => 1_921_660,
            Dataset::RoadPa => 1_541_898,
            Dataset::RoadCa => 2_766_607,
            Dataset::FacebookSocial => 41_919_708,
        }
    }

    /// Generates the stand-in graph, with vertex and edge counts divided by
    /// `2^shrink` (`shrink = 0` is paper scale).
    ///
    /// # Panics
    ///
    /// Panics if `shrink` reduces the graph below a handful of vertices.
    pub fn generate(self, shrink: u32, seed: u64) -> CsrGraph {
        let v = (self.paper_vertices() >> shrink).max(16);
        let e = (self.paper_edges() >> shrink).max(32);
        match self {
            Dataset::SparseSynthetic => uniform_random(v, e, DEFAULT_MAX_WEIGHT, seed),
            Dataset::RoadTx | Dataset::RoadPa | Dataset::RoadCa => {
                // Pick grid dimensions whose product approximates the target
                // vertex count, then tune the drop rate to hit the target
                // average degree (~2.8 directed edges per vertex).
                let side = (v as f64).sqrt().round() as usize;
                let rows = side.max(2);
                let cols = (v / rows).max(2);
                let target_avg = 2.0 * e as f64 / v as f64; // directed
                                                            // A full grid has ~4 directed edges per vertex.
                let drop = (1.0 - target_avg / 4.0).clamp(0.05, 0.6);
                road_network(rows, cols, DEFAULT_MAX_WEIGHT, drop, 0.02, seed)
            }
            Dataset::FacebookSocial => {
                let scale = (usize::BITS - 1 - v.leading_zeros()).max(4);
                rmat(scale, e, DEFAULT_MAX_WEIGHT, RmatParams::default(), seed)
            }
        }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_table_iv() {
        let labels: Vec<_> = Dataset::ALL.iter().map(|d| d.label()).collect();
        assert_eq!(labels, vec!["Sparse", "TX", "PN", "CA", "FB"]);
    }

    #[test]
    fn scaled_generation_roughly_matches_targets() {
        for d in Dataset::ALL {
            let g = d.generate(8, 42);
            let target_v = (d.paper_vertices() >> 8).max(16);
            let ratio = g.num_vertices() as f64 / target_v as f64;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{d}: got {} vertices, target {target_v}",
                g.num_vertices()
            );
        }
    }

    #[test]
    fn road_standins_are_sparse() {
        let g = Dataset::RoadCa.generate(8, 1);
        let avg = g.num_directed_edges() as f64 / g.num_vertices() as f64;
        assert!(avg < 4.5, "road avg degree {avg}");
    }

    #[test]
    fn social_standin_is_skewed() {
        let g = Dataset::FacebookSocial.generate(8, 1);
        let avg = (g.num_directed_edges() / g.num_vertices()).max(1);
        assert!(g.max_degree() > 4 * avg);
    }
}
