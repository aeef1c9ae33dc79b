use crate::rng::SmallRng;
use crate::Weight;

/// A Euclidean traveling-salesman instance.
///
/// CRONO's TSP benchmark takes "a user defined number of cities as an
/// input" (§IV-F) and the paper evaluates 4–32 cities (Fig. 5). The
/// instance stores city coordinates and the full symmetric distance
/// matrix used by the branch-and-bound search.
#[derive(Debug, Clone, PartialEq)]
pub struct TspInstance {
    coords: Vec<(f64, f64)>,
    dist: Vec<Weight>,
}

impl TspInstance {
    /// Number of cities.
    pub fn num_cities(&self) -> usize {
        self.coords.len()
    }

    /// Rounded Euclidean distance between cities `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn distance(&self, a: usize, b: usize) -> Weight {
        self.dist[a * self.coords.len() + b]
    }

    /// City coordinates (unit square scaled by 1000).
    pub fn coords(&self) -> &[(f64, f64)] {
        &self.coords
    }

    /// Flat row-major distance matrix (for symbolic addressing).
    pub fn distance_matrix(&self) -> &[Weight] {
        &self.dist
    }

    /// Total length of the closed tour visiting `order` in sequence.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation prefix of the city ids.
    pub fn tour_length(&self, order: &[usize]) -> u64 {
        assert!(!order.is_empty(), "tour must visit at least one city");
        let mut total = 0u64;
        for w in order.windows(2) {
            total += self.distance(w[0], w[1]) as u64;
        }
        total + self.distance(*order.last().expect("non-empty"), order[0]) as u64
    }
}

/// Generates `n` random cities in a 1000×1000 square with rounded
/// Euclidean distances.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Examples
///
/// ```
/// use crono_graph::gen::tsp_cities;
///
/// let inst = tsp_cities(8, 42);
/// assert_eq!(inst.num_cities(), 8);
/// assert_eq!(inst.distance(3, 3), 0);
/// assert_eq!(inst.distance(1, 5), inst.distance(5, 1));
/// ```
pub fn tsp_cities(n: usize, seed: u64) -> TspInstance {
    assert!(n >= 2, "tsp needs at least 2 cities");
    let mut rng = SmallRng::seed_from_u64(seed);
    let coords: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random::<f64>() * 1000.0, rng.random::<f64>() * 1000.0))
        .collect();
    let mut dist = vec![0 as Weight; n * n];
    for a in 0..n {
        for b in 0..n {
            let dx = coords[a].0 - coords[b].0;
            let dy = coords[a].1 - coords[b].1;
            dist[a * n + b] = (dx * dx + dy * dy).sqrt().round() as Weight;
        }
    }
    TspInstance { coords, dist }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_with_zero_diagonal() {
        let t = tsp_cities(10, 3);
        for a in 0..10 {
            assert_eq!(t.distance(a, a), 0);
            for b in 0..10 {
                assert_eq!(t.distance(a, b), t.distance(b, a));
            }
        }
    }

    #[test]
    fn triangle_inequality_roughly_holds() {
        // Rounding can violate it by at most 1 per hop.
        let t = tsp_cities(12, 8);
        for a in 0..12 {
            for b in 0..12 {
                for c in 0..12 {
                    assert!(t.distance(a, c) <= t.distance(a, b) + t.distance(b, c) + 2);
                }
            }
        }
    }

    #[test]
    fn tour_length_closes_the_loop() {
        let t = tsp_cities(4, 1);
        let len = t.tour_length(&[0, 1, 2, 3]);
        let manual =
            (t.distance(0, 1) + t.distance(1, 2) + t.distance(2, 3) + t.distance(3, 0)) as u64;
        assert_eq!(len, manual);
    }

    #[test]
    fn deterministic_for_seed() {
        assert_eq!(tsp_cities(6, 5), tsp_cities(6, 5));
    }
}
