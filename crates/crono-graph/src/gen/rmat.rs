use crate::pair_set::PairSet;
use crate::rng::SmallRng;
use crate::{CsrGraph, EdgeList, VertexId, Weight};

/// Quadrant probabilities for the recursive-matrix (R-MAT) generator.
///
/// The defaults are the Graph500 parameters (a=0.57, b=0.19, c=0.19,
/// d=0.05), which produce the heavy-tailed degree distribution
/// characteristic of social networks — our stand-in for CRONO's SNAP
/// Facebook input (Table III: 2,937,612 vertices / 41,919,708 edges).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Probability of recursing into the top-left quadrant.
    pub a: f64,
    /// Probability of recursing into the top-right quadrant.
    pub b: f64,
    /// Probability of recursing into the bottom-left quadrant.
    pub c: f64,
    /// Noise applied to the quadrant probabilities at each level, which
    /// smooths the otherwise self-similar degree distribution.
    pub noise: f64,
}

impl Default for RmatParams {
    fn default() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            noise: 0.1,
        }
    }
}

impl RmatParams {
    /// Probability of the bottom-right quadrant (`1 - a - b - c`).
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    fn validate(&self) {
        assert!(
            self.a > 0.0,
            "r-mat probability `a` must be strictly positive (got {})",
            self.a
        );
        assert!(
            self.b > 0.0,
            "r-mat probability `b` must be strictly positive (got {}): \
             b = 0 degenerates the matrix to a block diagonal",
            self.b
        );
        assert!(
            self.c >= 0.0,
            "r-mat probability `c` must be non-negative (got {})",
            self.c
        );
        assert!(
            self.a + self.b + self.c <= 1.0,
            "r-mat probabilities must sum to at most 1: a + b + c = {} > 1 \
             leaves no probability mass for quadrant d",
            self.a + self.b + self.c
        );
        assert!((0.0..1.0).contains(&self.noise), "noise must be in [0, 1)");
    }

    /// Draws one cell `(row, col)` of the `2^scale`-square adjacency
    /// matrix, one quadrant per level from the top bit down. Each level
    /// takes five `f64` draws: the noise on `a`, `b`, `c` and `d`, then the
    /// pick. [`rmat`] and [`crate::stream::RmatStream`] both descend here.
    pub(crate) fn descend(&self, scale: u32, rng: &mut SmallRng) -> (VertexId, VertexId) {
        let d = self.d();
        // Per-level multiplicative noise, re-normalized.
        let jitter = |p: f64, rng: &mut SmallRng| {
            p * (1.0 - self.noise + 2.0 * self.noise * rng.random::<f64>())
        };
        let (mut row, mut col) = (0, 0);
        for level in (0..scale).rev() {
            let a = jitter(self.a, rng);
            let b = jitter(self.b, rng);
            let c = jitter(self.c, rng);
            let d = jitter(d, rng);
            let total = a + b + c + d;
            let x = rng.random::<f64>() * total;
            // Quadrant q = 0..=3 (a, b, c, d) sets row bit `q >> 1` and
            // column bit `q & 1`. The thresholds ascend, so counting the
            // ones `x` has passed picks the quadrant an if-chain would,
            // with no branch to mispredict.
            let q = (x >= a) as VertexId + (x >= a + b) as VertexId + (x >= a + b + c) as VertexId;
            row |= (q >> 1) << level;
            col |= (q & 1) << level;
        }
        (row, col)
    }
}

/// R-MAT power-law random graph with `2^scale` vertices and `num_edges`
/// undirected edges (stored symmetrically), weights in `1..=max_weight`.
///
/// Duplicate edges and self-loops are dropped rather than redrawn — the
/// standard R-MAT/Graph500 convention — so the realized edge count is
/// slightly below `num_edges` for dense corners of the matrix. Duplicates
/// are caught by a flat pair set sized for `min(num_edges, n(n-1)/2)`
/// pairs (8 bytes a slot, at most half full), which is freed before the
/// edge list is packed into CSR.
///
/// # Panics
///
/// Panics if `scale == 0`, `scale > 31`, `max_weight == 0`, or the
/// parameters are not valid probabilities.
///
/// # Examples
///
/// ```
/// use crono_graph::gen::{rmat, RmatParams};
///
/// let g = rmat(10, 8_192, 64, RmatParams::default(), 7);
/// assert_eq!(g.num_vertices(), 1_024);
/// // Power-law: the max degree dwarfs the average degree.
/// assert!(g.max_degree() > 4 * g.num_directed_edges() / g.num_vertices());
/// ```
pub fn rmat(
    scale: u32,
    num_edges: usize,
    max_weight: Weight,
    params: RmatParams,
    seed: u64,
) -> CsrGraph {
    assert!(scale > 0 && scale <= 31, "scale must be in 1..=31");
    assert!(max_weight > 0, "max_weight must be positive");
    params.validate();
    let n = 1usize << scale;
    let mut rng = SmallRng::seed_from_u64(seed);
    let max_pairs = num_edges.min(n * (n - 1) / 2);
    let mut el = EdgeList::with_capacity(n, 2 * max_pairs);
    let mut seen = PairSet::with_capacity(max_pairs);
    for _ in 0..num_edges {
        let (src, dst) = params.descend(scale, &mut rng);
        if src != dst && seen.insert(src, dst) {
            el.push_undirected(src, dst, rng.random_range(1..=max_weight))
                .expect("r-mat endpoints in range");
        }
    }
    drop(seen);
    el.into_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_count_is_power_of_two() {
        let g = rmat(8, 1024, 16, RmatParams::default(), 1);
        assert_eq!(g.num_vertices(), 256);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = rmat(8, 512, 8, RmatParams::default(), 3);
        let b = rmat(8, 512, 8, RmatParams::default(), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn skewed_degree_distribution() {
        let g = rmat(12, 32_768, 8, RmatParams::default(), 5);
        let avg = g.num_directed_edges() / g.num_vertices();
        assert!(
            g.max_degree() > 8 * avg.max(1),
            "expected hub vertices: max={} avg={}",
            g.max_degree(),
            avg
        );
    }

    #[test]
    fn uniform_params_are_not_skewed() {
        let params = RmatParams {
            a: 0.25,
            b: 0.25,
            c: 0.25,
            noise: 0.0,
        };
        let g = rmat(12, 32_768, 8, params, 5);
        let avg = (g.num_directed_edges() / g.num_vertices()).max(1);
        assert!(
            g.max_degree() < 8 * avg,
            "uniform quadrants should not produce hubs: max={} avg={}",
            g.max_degree(),
            avg
        );
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn rejects_zero_scale() {
        rmat(0, 10, 1, RmatParams::default(), 0);
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn rejects_bad_probabilities() {
        rmat(
            4,
            10,
            1,
            RmatParams {
                a: 0.9,
                b: 0.2,
                c: 0.2,
                noise: 0.0,
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn rejects_probability_sum_above_one() {
        rmat(
            4,
            10,
            1,
            RmatParams {
                a: 0.5,
                b: 0.4,
                c: 0.3,
                noise: 0.0,
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "`a` must be strictly positive")]
    fn rejects_zero_a() {
        rmat(
            4,
            10,
            1,
            RmatParams {
                a: 0.0,
                b: 0.5,
                c: 0.25,
                noise: 0.0,
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "`b` must be strictly positive")]
    fn rejects_degenerate_zero_b_skew() {
        // The a>0, b=c=0, d=1-a corner used to pass validation silently.
        rmat(
            4,
            10,
            1,
            RmatParams {
                a: 0.6,
                b: 0.0,
                c: 0.0,
                noise: 0.0,
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "`c` must be non-negative")]
    fn rejects_negative_c() {
        rmat(
            4,
            10,
            1,
            RmatParams {
                a: 0.5,
                b: 0.5,
                c: -0.1,
                noise: 0.0,
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "noise must be in [0, 1)")]
    fn rejects_out_of_range_noise() {
        rmat(
            4,
            10,
            1,
            RmatParams {
                a: 0.57,
                b: 0.19,
                c: 0.19,
                noise: 1.0,
            },
            0,
        );
    }
}
