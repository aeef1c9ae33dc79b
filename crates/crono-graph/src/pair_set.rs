//! A fixed-capacity set of unordered vertex pairs: the generators'
//! duplicate-edge check.
//!
//! `{a, b}` is one `u64` key, `lo << 32 | hi`, in a flat open-addressing
//! table with linear probing. Since `lo < hi`, no key is 0, so 0 marks an
//! empty slot. The caller bounds the inserts up front and the table is
//! sized to stay at most half full, so it never grows.
//!
//! The hash is SplitMix64's unkeyed finalizer. Keyed hashing would only
//! guard against adversarial keys, and these come from a seeded RNG, never
//! from outside input. The set answers membership and nothing else, so no
//! iteration order can reach a graph.

use crate::rng::splitmix64;
use crate::VertexId;

/// Unordered vertex pairs, at most `max_pairs` of them.
pub(crate) struct PairSet {
    slots: Vec<u64>,
    len: usize,
    max_pairs: usize,
}

impl PairSet {
    /// An empty set sized for up to `max_pairs` distinct pairs.
    pub(crate) fn with_capacity(max_pairs: usize) -> PairSet {
        PairSet {
            slots: vec![0; (2 * max_pairs).next_power_of_two()],
            len: 0,
            max_pairs,
        }
    }

    /// Adds `{a, b}`, a pair of distinct vertices; returns whether it was
    /// absent.
    ///
    /// # Panics
    ///
    /// Panics on a new pair beyond `max_pairs`.
    pub(crate) fn insert(&mut self, a: VertexId, b: VertexId) -> bool {
        debug_assert_ne!(a, b, "a self-loop has no key");
        let key = (a.min(b) as u64) << 32 | a.max(b) as u64;
        let mask = self.slots.len() - 1;
        let mut state = key;
        let mut i = splitmix64(&mut state) as usize & mask;
        loop {
            match self.slots[i] {
                0 => break,
                k if k == key => return false,
                _ => i = (i + 1) & mask,
            }
        }
        assert!(
            self.len < self.max_pairs,
            "pair set is full ({} pairs)",
            self.max_pairs
        );
        self.slots[i] = key;
        self.len += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;
    use std::collections::HashSet;

    #[test]
    fn a_pair_is_one_key_in_either_order() {
        let mut set = PairSet::with_capacity(2);
        assert!(set.insert(3, 7));
        assert!(!set.insert(7, 3));
        assert!(!set.insert(3, 7));
        assert!(set.insert(0, 7));
    }

    #[test]
    fn agrees_with_hash_set() {
        let mut rng = SmallRng::seed_from_u64(15);
        // 300 vertices hold 44 850 pairs, so 100 K draws repeat many.
        let max_pairs = 300 * 299 / 2;
        let mut set = PairSet::with_capacity(max_pairs);
        let mut oracle = HashSet::new();
        for _ in 0..100_000 {
            let a = rng.random_range(0..300u32);
            let b = rng.random_range(0..300u32);
            if a != b {
                assert_eq!(set.insert(a, b), oracle.insert((a.min(b), a.max(b))));
            }
        }
        assert_eq!(set.len, oracle.len());
    }

    #[test]
    #[should_panic(expected = "pair set is full")]
    fn a_pair_past_the_bound_panics() {
        let mut set = PairSet::with_capacity(1);
        set.insert(0, 1);
        set.insert(0, 2);
    }
}
