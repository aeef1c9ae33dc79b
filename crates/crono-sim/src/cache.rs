//! A generic set-associative cache array with true-LRU replacement, used
//! for both the private L1s and the L2 slices.

/// A set's place in the pools: where its ways start, how many it has,
/// and how many of them hold a line.
#[derive(Debug, Clone, Copy, Default)]
struct SetWays {
    /// The set's first way in the pools (meaningless while `ways` is 0).
    first: u32,
    /// Resident lines, packed at the front of the set's ways.
    len: u16,
    /// Ways the set owns: 0 until its first fill, 1 until its second,
    /// then the associativity.
    ways: u16,
}

/// Set-associative cache with LRU replacement.
///
/// The set index is the line number modulo the number of sets. A set
/// owns no storage until its first fill, which appends one way to three
/// flat pools — lines, LRU ticks and payloads; its second fill moves its
/// line to `associativity` fresh consecutive ways, which the set keeps
/// from then on (emptied or not). Resident lines stay packed at the
/// front of the set's ways, so a lookup scans one short run of tags.
///
/// The cache thus holds storage for the lines a run brings in rather
/// than for its whole geometry. The one-way step is there because most
/// touched sets of an L2 slice hold a single line: `home_of` hashes the
/// lines that share a set index over distinct slices. A set that grows
/// leaves its one-way block behind, at most one way per
/// `associativity + 1`.
#[derive(Debug, Clone)]
pub struct SetAssocCache<T> {
    /// Each set's ways, indexed by set.
    sets: Vec<SetWays>,
    /// The line in each slot.
    tags: Vec<u64>,
    /// The tick of each slot's last use. Every use draws a fresh tick, so
    /// a full set has exactly one least recently used line.
    lru: Vec<u64>,
    /// Each slot's payload: `Some` exactly in the resident slots.
    payloads: Vec<Option<T>>,
    associativity: usize,
    tick: u64,
}

impl<T> SetAssocCache<T> {
    /// Creates a cache with `num_sets` sets of `associativity` ways. No
    /// set has storage yet.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, if `associativity` exceeds
    /// `u16::MAX`, or if the pools could outgrow a `u32` index.
    pub fn new(num_sets: usize, associativity: usize) -> Self {
        assert!(num_sets > 0 && associativity > 0, "degenerate cache");
        assert!(
            associativity <= u16::MAX as usize,
            "associativity above u16::MAX"
        );
        assert!(
            num_sets
                .checked_mul(associativity + 1)
                .is_some_and(|ways| ways <= u32::MAX as usize),
            "cache has more ways than a u32 indexes"
        );
        // Room for one way per set, what a run whose sets each hold one
        // line fills: such a run never regrows the pools, and capacity it
        // does not fill is never written.
        SetAssocCache {
            sets: vec![SetWays::default(); num_sets],
            tags: Vec::with_capacity(num_sets),
            lru: Vec::with_capacity(num_sets),
            payloads: Vec::with_capacity(num_sets),
            associativity,
            tick: 0,
        }
    }

    /// The number of sets that have storage: those filled at least once.
    pub fn sets_with_storage(&self) -> usize {
        self.sets.iter().filter(|s| s.ways > 0).count()
    }

    /// The set `line` maps to, and the slot holding `line` if resident.
    fn find(&self, line: u64) -> (usize, Option<usize>) {
        let set = (line % self.sets.len() as u64) as usize;
        let SetWays { first, len, .. } = self.sets[set];
        let base = first as usize;
        let slot = self.tags[base..base + len as usize]
            .iter()
            .position(|&l| l == line)
            .map(|i| base + i);
        (set, slot)
    }

    /// Marks a resident slot most recently used and returns its payload.
    fn touch(&mut self, slot: usize) -> &mut T {
        self.tick += 1;
        self.lru[slot] = self.tick;
        self.payloads[slot].as_mut().expect("resident slot")
    }

    /// Exchanges two slots' lines, ticks and payloads.
    fn swap(&mut self, a: usize, b: usize) {
        self.tags.swap(a, b);
        self.lru.swap(a, b);
        self.payloads.swap(a, b);
    }

    /// Gives `set`, whose ways are all resident, fresh ways at the end of
    /// the pools — one on its first fill, `associativity` after that —
    /// and moves its lines there in order.
    fn grow(&mut self, set: usize) {
        let SetWays { first, len, ways } = self.sets[set];
        let ways = if ways == 0 { 1 } else { self.associativity };
        let (from, to) = (first as usize, self.tags.len());
        let end = to + ways;
        self.tags.resize(end, 0);
        self.lru.resize(end, 0);
        self.payloads.resize_with(end, || None);
        for i in 0..len as usize {
            self.tags[to + i] = self.tags[from + i];
            self.lru[to + i] = self.lru[from + i];
            self.payloads[to + i] = self.payloads[from + i].take();
        }
        self.sets[set] = SetWays {
            first: to as u32,
            len,
            ways: ways as u16,
        };
    }

    /// Installs `line`, which is not resident, in `set`, evicting the
    /// set's LRU line if the set is full. Returns the slot `line` went to
    /// and the evicted `(line, payload)`.
    fn fill(&mut self, set: usize, line: u64, payload: T) -> (usize, Option<(u64, T)>) {
        self.tick += 1;
        let SetWays { len, ways, .. } = self.sets[set];
        if len == ways && (ways as usize) < self.associativity {
            self.grow(set);
        }
        let base = self.sets[set].first as usize;
        let len = len as usize;
        let (slot, evicted) = if len == self.associativity {
            let ticks = &self.lru[base..base + len];
            let victim = (0..len)
                .min_by_key(|&i| ticks[i])
                .expect("full set has a victim");
            // The set's last line moves into the victim's slot and the
            // new line goes last, so resident lines stay packed.
            let last = base + len - 1;
            self.swap(base + victim, last);
            let evicted = self.payloads[last].take().map(|p| (self.tags[last], p));
            (last, evicted)
        } else {
            self.sets[set].len += 1;
            (base + len, None)
        };
        self.tags[slot] = line;
        self.lru[slot] = self.tick;
        self.payloads[slot] = Some(payload);
        (slot, evicted)
    }

    /// Looks up `line`, updating LRU on hit.
    pub fn lookup(&mut self, line: u64) -> Option<&mut T> {
        match self.find(line) {
            (_, Some(slot)) => Some(self.touch(slot)),
            (_, None) => {
                // A miss draws a tick too.
                self.tick += 1;
                None
            }
        }
    }

    /// Looks up `line` without touching LRU (directory peeks).
    pub fn peek(&self, line: u64) -> Option<&T> {
        self.find(line)
            .1
            .map(|slot| self.payloads[slot].as_ref().expect("resident slot"))
    }

    /// Inserts `line` (which must not be resident), evicting the LRU line
    /// of its set if full. Returns the evicted `(line, payload)`.
    ///
    /// # Panics
    ///
    /// Debug-panics if `line` is already resident.
    pub fn insert(&mut self, line: u64, payload: T) -> Option<(u64, T)> {
        let (set, slot) = self.find(line);
        debug_assert!(slot.is_none(), "line {line} already resident");
        self.fill(set, line, payload).1
    }

    /// Looks up `line`, first inserting `make()` if it is not resident:
    /// one scan of the set for what [`SetAssocCache::peek`], then
    /// [`SetAssocCache::insert`] on a miss, then
    /// [`SetAssocCache::lookup`] would do, with the same LRU ticks.
    /// Returns the payload, whether `line` was missing, and the
    /// `(line, payload)` evicted to make room.
    pub fn lookup_or_insert(
        &mut self,
        line: u64,
        make: impl FnOnce() -> T,
    ) -> (&mut T, bool, Option<(u64, T)>) {
        match self.find(line) {
            (_, Some(slot)) => (self.touch(slot), false, None),
            (set, None) => {
                let (slot, evicted) = self.fill(set, line, make());
                (self.touch(slot), true, evicted)
            }
        }
    }

    /// Removes `line` if resident, returning its payload.
    pub fn remove(&mut self, line: u64) -> Option<T> {
        let (set, slot) = self.find(line);
        let slot = slot?;
        // The set's last line fills the gap; the set keeps its ways.
        let SetWays { first, len, .. } = self.sets[set];
        let last = first as usize + len as usize - 1;
        self.swap(slot, last);
        self.sets[set].len -= 1;
        self.payloads[last].take()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(|s| s.len as usize).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over resident `(line, payload)` pairs, set by set in set
    /// order, each set's lines in their resident order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.sets
            .iter()
            .flat_map(|s| s.first as usize..s.first as usize + s.len as usize)
            .map(|slot| {
                let payload = self.payloads[slot].as_ref().expect("resident slot");
                (self.tags[slot], payload)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = SetAssocCache::new(4, 2);
        c.insert(10, "a");
        assert_eq!(c.lookup(10), Some(&mut "a"));
        assert_eq!(c.lookup(11), None);
    }

    #[test]
    fn evicts_lru_within_set() {
        let mut c = SetAssocCache::new(2, 2);
        // Lines 0, 2, 4 all map to set 0.
        c.insert(0, "l0");
        c.insert(2, "l2");
        c.lookup(0); // touch 0 so 2 becomes LRU
        let evicted = c.insert(4, "l4");
        assert_eq!(evicted, Some((2, "l2")));
        assert!(c.peek(0).is_some());
        assert!(c.peek(4).is_some());
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = SetAssocCache::new(2, 1);
        c.insert(0, ());
        assert_eq!(c.insert(1, ()), None, "odd line goes to set 1");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn remove_returns_payload() {
        let mut c = SetAssocCache::new(2, 2);
        c.insert(5, 42);
        assert_eq!(c.remove(5), Some(42));
        assert_eq!(c.remove(5), None);
        assert!(c.is_empty());
    }

    #[test]
    fn peek_does_not_disturb_lru() {
        let mut c = SetAssocCache::new(1, 2);
        c.insert(0, ());
        c.insert(1, ());
        c.peek(0); // must NOT refresh line 0
        let evicted = c.insert(2, ());
        assert_eq!(evicted, Some((0, ())), "peek left line 0 as LRU");
    }

    #[test]
    fn sets_get_storage_on_first_fill_only() {
        // Table II's L2 slice geometry.
        let mut c = SetAssocCache::new(512, 8);
        assert_eq!(c.sets_with_storage(), 0);
        assert_eq!(c.lookup(3), None);
        assert_eq!(c.peek(3), None);
        assert_eq!(c.remove(3), None);
        assert_eq!(c.sets_with_storage(), 0, "misses allocate nothing");
        // Two lines in each of k = 5 distinct sets.
        let sets = [0u64, 7, 100, 256, 511];
        for (k, &set) in sets.iter().enumerate() {
            c.insert(set, ());
            c.insert(set + 512, ());
            assert_eq!(c.sets_with_storage(), k + 1);
        }
        assert_eq!(c.len(), 10);
        // Each set took one way for its first line, then eight for its
        // second, leaving the one-way block behind.
        assert_eq!(c.tags.len(), sets.len() * (1 + 8));
        // An emptied set keeps its ways, so refilling it takes none.
        assert_eq!(c.remove(7), Some(()));
        assert_eq!(c.remove(7 + 512), Some(()));
        c.insert(7 + 1024, ());
        assert_eq!(c.sets_with_storage(), sets.len());
        assert_eq!(c.tags.len(), sets.len() * (1 + 8));
        assert_eq!(c.len(), 9);
        // A set's first line takes one way.
        c.insert(42, ());
        assert_eq!(c.sets_with_storage(), sets.len() + 1);
        assert_eq!(c.tags.len(), sets.len() * (1 + 8) + 1);
    }

    #[test]
    fn iter_visits_everything() {
        let mut c = SetAssocCache::new(4, 2);
        for l in 0..5 {
            c.insert(l, l * 10);
        }
        let mut seen: Vec<_> = c.iter().map(|(l, &p)| (l, p)).collect();
        seen.sort_unstable();
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[4], (4, 40));
    }
}
