//! The private L1 data cache, including CRONO's three-way miss
//! classification (§IV-D): cold, capacity, and sharing misses.

use crate::cache::SetAssocCache;
use crate::config::{CacheConfig, SimConfig};
use crate::fast_hash::U64Set;

/// MESI states an L1 line can be in (Invalid = not resident).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum L1State {
    /// Clean, possibly also cached elsewhere.
    Shared,
    /// Clean, sole copy; writable without a directory round trip.
    Exclusive,
    /// Dirty, sole copy.
    Modified,
}

/// CRONO's L1 miss classification (§IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// First access ever to this line by this core.
    Cold,
    /// Line was brought in previously but evicted for capacity/conflict.
    Capacity,
    /// Line was invalidated or downgraded by another core's request.
    Sharing,
}

/// Result of an L1 lookup for a given access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Lookup {
    /// The access completes in the L1.
    Hit,
    /// Write to a Shared line: data is present but exclusivity is not.
    UpgradeMiss,
    /// Line not resident.
    Miss,
}

/// A private L1 data cache with miss-classification bookkeeping.
#[derive(Debug)]
pub struct L1Cache {
    cache: SetAssocCache<L1State>,
    ever_seen: U64Set,
    coherence_lost: U64Set,
}

impl L1Cache {
    /// Builds the L1-D described by `config`.
    pub fn new(config: &SimConfig) -> Self {
        Self::with_geometry(&config.l1d)
    }

    /// Builds an L1 with explicit geometry (used by tests).
    pub fn with_geometry(cache: &CacheConfig) -> Self {
        L1Cache {
            cache: SetAssocCache::new(cache.num_sets(), cache.associativity),
            ever_seen: U64Set::default(),
            coherence_lost: U64Set::default(),
        }
    }

    /// Attempts to satisfy an access from the L1.
    pub fn access(&mut self, line: u64, write: bool) -> L1Lookup {
        match self.cache.lookup(line) {
            Some(state) => {
                if write {
                    match *state {
                        L1State::Modified => L1Lookup::Hit,
                        L1State::Exclusive => {
                            // Silent E -> M upgrade, no directory traffic.
                            *state = L1State::Modified;
                            L1Lookup::Hit
                        }
                        L1State::Shared => L1Lookup::UpgradeMiss,
                    }
                } else {
                    L1Lookup::Hit
                }
            }
            None => L1Lookup::Miss,
        }
    }

    /// Classifies a miss to `line` (call once per miss, *before*
    /// [`L1Cache::fill`]). Upgrade misses are sharing misses: exclusivity
    /// was lost to (or never granted because of) another core.
    pub fn classify_miss(&mut self, line: u64, upgrade: bool) -> MissClass {
        if upgrade {
            self.coherence_lost.remove(&line);
            return MissClass::Sharing;
        }
        if !self.ever_seen.contains(&line) {
            MissClass::Cold
        } else if self.coherence_lost.remove(&line) {
            MissClass::Sharing
        } else {
            MissClass::Capacity
        }
    }

    /// Records a first touch served remotely (locality-aware protocol):
    /// the line is not allocated, but the next access counts as reuse and
    /// will allocate.
    pub fn note_touch(&mut self, line: u64) {
        self.ever_seen.insert(line);
    }

    /// Installs `line` with `state`, returning the evicted victim
    /// `(line, state)` if the set was full. The caller must write back
    /// Modified victims.
    pub fn fill(&mut self, line: u64, state: L1State) -> Option<(u64, L1State)> {
        self.ever_seen.insert(line);
        self.cache.insert(line, state)
    }

    /// Promotes a resident line to Modified after an upgrade completes.
    pub fn promote(&mut self, line: u64) {
        if let Some(state) = self.cache.lookup(line) {
            *state = L1State::Modified;
        }
    }

    /// Processes a coherence invalidation: removes the line and remembers
    /// the loss for miss classification. Returns the state the line was
    /// in, if resident.
    pub fn coherence_invalidate(&mut self, line: u64) -> Option<L1State> {
        let state = self.cache.remove(line);
        if state.is_some() {
            self.coherence_lost.insert(line);
        }
        state
    }

    /// Processes a coherence downgrade (another core reads a line we own):
    /// M/E becomes S. Returns `true` if the line was Modified (dirty data
    /// must be written back).
    pub fn coherence_downgrade(&mut self, line: u64) -> bool {
        match self.cache.lookup(line) {
            Some(state) => {
                let was_dirty = *state == L1State::Modified;
                *state = L1State::Shared;
                // Exclusivity lost to sharing: a future write re-misses.
                self.coherence_lost.insert(line);
                was_dirty
            }
            None => false,
        }
    }

    /// Current state of `line`, if resident (does not disturb LRU).
    pub fn state(&self, line: u64) -> Option<L1State> {
        self.cache.peek(line).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> L1Cache {
        L1Cache::with_geometry(&CacheConfig {
            size_bytes: 256, // 4 lines
            associativity: 2,
            latency: 1,
        })
    }

    #[test]
    fn first_access_is_cold_miss() {
        let mut l1 = tiny();
        assert_eq!(l1.access(7, false), L1Lookup::Miss);
        assert_eq!(l1.classify_miss(7, false), MissClass::Cold);
        l1.fill(7, L1State::Shared);
        assert_eq!(l1.access(7, false), L1Lookup::Hit);
    }

    #[test]
    fn eviction_then_refetch_is_capacity_miss() {
        let mut l1 = tiny();
        // Lines 0, 2, 4 map to set 0 (2 sets, assoc 2).
        for line in [0u64, 2, 4] {
            assert_eq!(l1.access(line, false), L1Lookup::Miss);
            l1.classify_miss(line, false);
            l1.fill(line, L1State::Shared);
        }
        assert_eq!(l1.access(0, false), L1Lookup::Miss, "line 0 was evicted");
        assert_eq!(l1.classify_miss(0, false), MissClass::Capacity);
    }

    #[test]
    fn invalidation_then_refetch_is_sharing_miss() {
        let mut l1 = tiny();
        l1.access(3, false);
        l1.classify_miss(3, false);
        l1.fill(3, L1State::Shared);
        assert_eq!(l1.coherence_invalidate(3), Some(L1State::Shared));
        assert_eq!(l1.access(3, false), L1Lookup::Miss);
        assert_eq!(l1.classify_miss(3, false), MissClass::Sharing);
    }

    #[test]
    fn write_to_shared_is_upgrade_and_sharing() {
        let mut l1 = tiny();
        l1.fill(5, L1State::Shared);
        assert_eq!(l1.access(5, true), L1Lookup::UpgradeMiss);
        assert_eq!(l1.classify_miss(5, true), MissClass::Sharing);
        l1.promote(5);
        assert_eq!(l1.access(5, true), L1Lookup::Hit);
        assert_eq!(l1.state(5), Some(L1State::Modified));
    }

    #[test]
    fn exclusive_write_hit_is_silent() {
        let mut l1 = tiny();
        l1.fill(9, L1State::Exclusive);
        assert_eq!(l1.access(9, true), L1Lookup::Hit);
        assert_eq!(l1.state(9), Some(L1State::Modified));
    }

    #[test]
    fn downgrade_reports_dirtiness_and_marks_loss() {
        let mut l1 = tiny();
        l1.fill(11, L1State::Modified);
        assert!(l1.coherence_downgrade(11));
        assert_eq!(l1.state(11), Some(L1State::Shared));
        // A later write re-misses as a sharing (upgrade) miss.
        assert_eq!(l1.access(11, true), L1Lookup::UpgradeMiss);
        assert_eq!(l1.classify_miss(11, true), MissClass::Sharing);
    }

    #[test]
    fn invalidate_nonresident_is_noop() {
        let mut l1 = tiny();
        assert_eq!(l1.coherence_invalidate(42), None);
        assert!(!l1.coherence_downgrade(42));
        // A later miss on that line is still cold.
        l1.access(42, false);
        assert_eq!(l1.classify_miss(42, false), MissClass::Cold);
    }

    #[test]
    fn dirty_victim_returned_on_fill() {
        let mut l1 = tiny();
        l1.fill(0, L1State::Modified);
        l1.fill(2, L1State::Shared);
        let evicted = l1.fill(4, L1State::Shared);
        assert_eq!(evicted, Some((0, L1State::Modified)));
    }
}
