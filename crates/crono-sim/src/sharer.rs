//! ACKWise limited-pointer sharer tracking (Table II: "Invalidation-based
//! MESI, ACKWise-4 directory").
//!
//! The directory entry tracks up to `K` sharers precisely; once a line has
//! more, it degrades to a broadcast entry that only counts sharers, and an
//! invalidation must be broadcast to every core.

/// The most precise pointers a [`SharerSet`] holds: ACKWise-4, the
/// Table II directory. They sit inline in the set, so a directory entry
/// allocates nothing.
pub const MAX_ACKWISE_POINTERS: usize = 4;

/// Sharer set with `K` precise pointers and a broadcast fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharerSet {
    /// The precise sharers in `precise[..len]`, in the order they were
    /// added, except that a removal moves the last one into the gap.
    /// Slots past `len` hold 0.
    precise: [u16; MAX_ACKWISE_POINTERS],
    len: u8,
    max_pointers: u8,
    broadcast: bool,
    count: u32,
}

impl SharerSet {
    /// Creates an empty set with `max_pointers` precise slots.
    ///
    /// # Panics
    ///
    /// Panics if `max_pointers` is 0 or above [`MAX_ACKWISE_POINTERS`].
    pub fn new(max_pointers: usize) -> Self {
        assert!(max_pointers > 0, "ackwise needs at least one pointer");
        assert!(
            max_pointers <= MAX_ACKWISE_POINTERS,
            "ackwise holds at most {MAX_ACKWISE_POINTERS} pointers, not {max_pointers}"
        );
        SharerSet {
            precise: [0; MAX_ACKWISE_POINTERS],
            len: 0,
            max_pointers: max_pointers as u8,
            broadcast: false,
            count: 0,
        }
    }

    /// The precisely tracked sharers.
    fn pointers(&self) -> &[u16] {
        &self.precise[..self.len as usize]
    }

    /// Number of sharers currently tracked.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Whether the set has degraded to broadcast (counting) mode.
    pub fn is_broadcast(&self) -> bool {
        self.broadcast
    }

    /// Whether no core shares the line.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds `core` as a sharer. Idempotent in precise mode; in broadcast
    /// mode the count grows only if the directory does not already count
    /// this core — since broadcast mode cannot know, callers must add a
    /// core at most once per fill (which the cache protocol guarantees:
    /// a core that already holds the line never re-requests it).
    pub fn add(&mut self, core: u16) {
        if self.broadcast {
            self.count += 1;
            return;
        }
        if self.pointers().contains(&core) {
            return;
        }
        if self.len < self.max_pointers {
            self.precise[self.len as usize] = core;
            self.len += 1;
            self.count += 1;
        } else {
            // Pointer overflow: degrade to broadcast.
            self.broadcast = true;
            self.clear_pointers();
            self.count += 1;
        }
    }

    /// Removes `core` from the set (e.g. after an L1 eviction notice).
    /// In broadcast mode only the count decreases.
    pub fn remove(&mut self, core: u16) {
        if self.broadcast {
            self.count = self.count.saturating_sub(1);
            if self.count <= 1 {
                // Few enough sharers to track precisely again — but their
                // identities are unknown, so stay conservative until the
                // set empties.
                if self.count == 0 {
                    self.broadcast = false;
                }
            }
        } else if let Some(pos) = self.pointers().iter().position(|&c| c == core) {
            // The last pointer fills the gap.
            let last = self.len as usize - 1;
            self.precise[pos] = self.precise[last];
            self.precise[last] = 0;
            self.len -= 1;
            self.count -= 1;
        }
    }

    /// Empties the set (after a full invalidation round).
    pub fn clear(&mut self) {
        self.clear_pointers();
        self.broadcast = false;
        self.count = 0;
    }

    /// Drops every precise pointer.
    fn clear_pointers(&mut self) {
        self.precise = [0; MAX_ACKWISE_POINTERS];
        self.len = 0;
    }

    /// The cores an invalidation must be sent to: `Some(list)` of precise
    /// sharers, or `None` meaning "broadcast to every core".
    pub fn invalidation_targets(&self) -> Option<&[u16]> {
        if self.broadcast {
            None
        } else {
            Some(self.pointers())
        }
    }

    /// Whether `core` may hold the line (exact in precise mode,
    /// conservatively `true` in broadcast mode).
    pub fn may_contain(&self, core: u16) -> bool {
        if self.broadcast {
            self.count > 0
        } else {
            self.pointers().contains(&core)
        }
    }

    /// The single sharer, if exactly one is precisely tracked.
    pub fn sole_sharer(&self) -> Option<u16> {
        if !self.broadcast && self.len == 1 {
            Some(self.precise[0])
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precise_until_overflow() {
        let mut s = SharerSet::new(4);
        for core in 0..4 {
            s.add(core);
        }
        assert!(!s.is_broadcast());
        assert_eq!(s.count(), 4);
        assert_eq!(s.invalidation_targets().unwrap().len(), 4);

        s.add(4);
        assert!(s.is_broadcast());
        assert_eq!(s.count(), 5);
        assert!(s.invalidation_targets().is_none());
    }

    #[test]
    fn add_is_idempotent_in_precise_mode() {
        let mut s = SharerSet::new(4);
        s.add(7);
        s.add(7);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn remove_in_precise_mode() {
        let mut s = SharerSet::new(2);
        s.add(1);
        s.add(2);
        s.remove(1);
        assert_eq!(s.count(), 1);
        assert!(s.may_contain(2));
        assert!(!s.may_contain(1));
        assert_eq!(s.sole_sharer(), Some(2));
    }

    #[test]
    fn broadcast_recovers_only_when_empty() {
        let mut s = SharerSet::new(1);
        s.add(0);
        s.add(1); // overflow
        assert!(s.is_broadcast());
        s.remove(0);
        assert!(s.is_broadcast(), "identities unknown, stay broadcast");
        s.remove(1);
        assert!(!s.is_broadcast(), "empty set recovers precise mode");
        assert!(s.is_empty());
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = SharerSet::new(1);
        s.add(0);
        s.add(1);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.is_broadcast());
        assert_eq!(s.sole_sharer(), None);
    }
}
