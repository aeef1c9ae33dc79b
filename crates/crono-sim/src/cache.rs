//! A generic set-associative cache array with true-LRU replacement, used
//! for both the private L1s and the L2 slices.

/// Set-associative cache with LRU replacement.
///
/// The set index is the line number modulo the number of sets. Each set
/// owns `associativity` consecutive slots of three flat arrays — lines,
/// LRU ticks and payloads — and keeps its resident lines packed at the
/// front of its slots, so a lookup scans one short run of tags.
#[derive(Debug, Clone)]
pub struct SetAssocCache<T> {
    /// The line in each slot.
    tags: Vec<u64>,
    /// The tick of each slot's last use. Every use draws a fresh tick, so
    /// a full set has exactly one least recently used line.
    lru: Vec<u64>,
    /// Each slot's payload: `Some` exactly in the resident slots.
    payloads: Vec<Option<T>>,
    /// The number of resident lines in each set.
    set_len: Vec<usize>,
    associativity: usize,
    tick: u64,
}

impl<T> SetAssocCache<T> {
    /// Creates a cache with `num_sets` sets of `associativity` ways.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(num_sets: usize, associativity: usize) -> Self {
        assert!(num_sets > 0 && associativity > 0, "degenerate cache");
        let slots = num_sets * associativity;
        SetAssocCache {
            tags: vec![0; slots],
            lru: vec![0; slots],
            payloads: (0..slots).map(|_| None).collect(),
            set_len: vec![0; num_sets],
            associativity,
            tick: 0,
        }
    }

    /// The set `line` maps to, and the slot holding `line` if resident.
    fn find(&self, line: u64) -> (usize, Option<usize>) {
        let set = (line % self.set_len.len() as u64) as usize;
        let base = set * self.associativity;
        let slot = self.tags[base..base + self.set_len[set]]
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

    /// Installs `line`, which is not resident, in `set`, evicting the
    /// set's LRU line if the set is full. Returns the slot `line` went to
    /// and the evicted `(line, payload)`.
    fn fill(&mut self, set: usize, line: u64, payload: T) -> (usize, Option<(u64, T)>) {
        self.tick += 1;
        let base = set * self.associativity;
        let len = self.set_len[set];
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
            self.set_len[set] += 1;
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
        // The set's last line fills the gap.
        let last = set * self.associativity + self.set_len[set] - 1;
        self.swap(slot, last);
        self.set_len[set] -= 1;
        self.payloads[last].take()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.set_len.iter().sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over resident `(line, payload)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.tags
            .iter()
            .zip(&self.payloads)
            .filter_map(|(&line, p)| p.as_ref().map(|p| (line, p)))
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
