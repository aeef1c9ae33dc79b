//! A seedless hasher for the simulator's per-access maps.
//!
//! The L1 miss classifier's line sets and a thread's lock-word maps are
//! consulted on every L1 miss and every simulated lock operation. Their
//! keys are line numbers and lock-word addresses, which no adversary
//! picks, so they need neither SipHash nor a per-process seed: one
//! multiply spreads them well enough. Nothing iterates these maps, so
//! the hash order never reaches a modeled number.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative (Fibonacci) hashing of `u64` keys.
///
/// The product's good bits are the high ones, and `hashbrown` takes the
/// bucket from the low bits: `finish` rotates the high bits down, so
/// 64-byte-aligned lock-word addresses do not share a bucket.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MulHasher(u64);

const K: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for MulHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed by line numbers or addresses, hashed by [`MulHasher`].
pub(crate) type U64Map<V> = HashMap<u64, V, BuildHasherDefault<MulHasher>>;

/// A `HashSet` of line numbers or addresses, hashed by [`MulHasher`].
pub(crate) type U64Set = HashSet<u64, BuildHasherDefault<MulHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hashing_is_seedless() {
        let a = BuildHasherDefault::<MulHasher>::default();
        let b = BuildHasherDefault::<MulHasher>::default();
        for key in [0u64, 1, 64, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
    }

    #[test]
    fn aligned_addresses_spread_over_the_low_bits() {
        // 64-byte-aligned lock words must not all land in one bucket of
        // a 1024-bucket table.
        let build = BuildHasherDefault::<MulHasher>::default();
        let buckets: U64Set = (0..1024u64)
            .map(|i| build.hash_one(0x4000_0000 + 64 * i) & 1023)
            .collect();
        assert!(buckets.len() > 512, "{} distinct buckets", buckets.len());
    }
}
