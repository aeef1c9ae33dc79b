//! A generic set-associative cache array with true-LRU replacement, used
//! for both the private L1s and the L2 slices.

/// One resident line plus its replacement state and a caller-defined
/// payload (coherence state for L1, directory entry for L2).
#[derive(Debug, Clone)]
struct Entry<T> {
    line: u64,
    lru: u64,
    payload: T,
}

/// Set-associative cache with LRU replacement.
///
/// The set index is the low bits of the line number, as in real caches.
#[derive(Debug, Clone)]
pub struct SetAssocCache<T> {
    sets: Vec<Vec<Entry<T>>>,
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
        SetAssocCache {
            sets: (0..num_sets)
                .map(|_| Vec::with_capacity(associativity))
                .collect(),
            associativity,
            tick: 0,
        }
    }

    fn set_index(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    /// Looks up `line`, updating LRU on hit.
    pub fn lookup(&mut self, line: u64) -> Option<&mut T> {
        self.tick += 1;
        let tick = self.tick;
        let idx = self.set_index(line);
        self.sets[idx].iter_mut().find(|e| e.line == line).map(|e| {
            e.lru = tick;
            &mut e.payload
        })
    }

    /// Looks up `line` without touching LRU (directory peeks).
    pub fn peek(&self, line: u64) -> Option<&T> {
        let idx = self.set_index(line);
        self.sets[idx]
            .iter()
            .find(|e| e.line == line)
            .map(|e| &e.payload)
    }

    /// Inserts `line` (which must not be resident), evicting the LRU line
    /// of its set if full. Returns the evicted `(line, payload)`.
    ///
    /// # Panics
    ///
    /// Debug-panics if `line` is already resident.
    pub fn insert(&mut self, line: u64, payload: T) -> Option<(u64, T)> {
        self.tick += 1;
        let tick = self.tick;
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        debug_assert!(
            set.iter().all(|e| e.line != line),
            "line {line} already resident"
        );
        let evicted = if set.len() == self.associativity {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
                .expect("full set has a victim");
            let e = set.swap_remove(victim);
            Some((e.line, e.payload))
        } else {
            None
        };
        set.push(Entry {
            line,
            lru: tick,
            payload,
        });
        evicted
    }

    /// Removes `line` if resident, returning its payload.
    pub fn remove(&mut self, line: u64) -> Option<T> {
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        set.iter()
            .position(|e| e.line == line)
            .map(|i| set.swap_remove(i).payload)
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over resident `(line, payload)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.sets
            .iter()
            .flat_map(|s| s.iter().map(|e| (e.line, &e.payload)))
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
