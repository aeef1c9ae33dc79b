//! The shared NUCA L2: one inclusive slice per core, with the integrated
//! MESI/ACKWise directory (Table II). A line's *home* slice is a hash of
//! its line number, so the directory for any line lives in exactly one
//! place.

use crate::cache::SetAssocCache;
use crate::config::SimConfig;
use crate::sharer::SharerSet;

/// Directory entry stored with each L2 line.
#[derive(Debug, Clone)]
pub struct DirEntry {
    /// Cores holding the line in Shared state (ACKWise tracking).
    pub sharers: SharerSet,
    /// Core holding the line Modified/Exclusive, if any.
    pub owner: Option<u16>,
    /// Whether the L2 copy is newer than DRAM.
    pub dirty: bool,
    /// Service-queue accounting epoch (requester cycles /
    /// [`HOME_EPOCH_CYCLES`]). Requests to one line serialize at the
    /// home ("L2Home-Waiting"); with lax thread clocks this must be
    /// tracked per epoch, like NoC link contention.
    pub queue_epoch: u64,
    /// Home-side service cycles already queued on this line within
    /// `queue_epoch`.
    pub queue_busy: u64,
}

/// Simulated cycles per home-serialization accounting epoch.
pub const HOME_EPOCH_CYCLES: u64 = 512;

impl DirEntry {
    fn new(max_pointers: usize) -> Self {
        DirEntry {
            sharers: SharerSet::new(max_pointers),
            owner: None,
            dirty: false,
            queue_epoch: 0,
            queue_busy: 0,
        }
    }
}

/// One L2 slice plus its slice-local statistics. Wrapped in a mutex by
/// the machine; each slice is an independent lock domain.
#[derive(Debug)]
pub struct L2Slice {
    cache: SetAssocCache<DirEntry>,
    max_pointers: usize,
    /// Accesses served by this slice.
    pub accesses: u64,
    /// Misses that went off-chip.
    pub misses: u64,
    /// Writebacks and fills exchanged with DRAM (traffic accounting).
    pub dram_writebacks: u64,
}

/// An L2 line evicted to make room (inclusive hierarchy: its L1 copies
/// must go too).
#[derive(Debug)]
pub struct VictimInfo {
    /// The evicted line.
    pub line: u64,
    /// L1 copies to invalidate: `Some(cores)` precise, `None` broadcast,
    /// absent if no core held it.
    pub invalidate: Option<Option<Vec<u16>>>,
    /// Whether the victim was dirty and must be written back to DRAM.
    pub writeback: bool,
}

/// Outcome of preparing a line at the home slice.
#[derive(Debug)]
pub struct HomeLine<'a> {
    /// The directory entry, resident after this call.
    pub entry: &'a mut DirEntry,
    /// Whether the line had to be fetched from DRAM (L2 miss).
    pub was_miss: bool,
    /// The L2 victim evicted by the fill, if any.
    pub victim: Option<VictimInfo>,
}

impl L2Slice {
    /// Builds the slice described by `config`.
    pub fn new(config: &SimConfig) -> Self {
        L2Slice {
            cache: SetAssocCache::new(
                config.l2.num_sets(config.line_size),
                config.l2.associativity,
            ),
            max_pointers: config.ackwise_pointers,
            accesses: 0,
            misses: 0,
            dram_writebacks: 0,
        }
    }

    /// Ensures `line` is resident and returns its directory entry plus
    /// what happened (miss, evictions). The caller handles all timing.
    pub fn prepare(&mut self, line: u64) -> HomeLine<'_> {
        self.accesses += 1;
        let mut was_miss = false;
        let mut victim = None;
        if self.cache.peek(line).is_none() {
            was_miss = true;
            self.misses += 1;
            let evicted = self.cache.insert(line, DirEntry::new(self.max_pointers));
            if let Some((vline, ventry)) = evicted {
                // Inclusive hierarchy: evicting an L2 line evicts every L1
                // copy. Collect targets for the machine to notify.
                let has_copies = ventry.owner.is_some() || !ventry.sharers.is_empty();
                let invalidate = if has_copies {
                    Some(match ventry.sharers.invalidation_targets() {
                        Some(list) => {
                            let mut t: Vec<u16> = list.to_vec();
                            if let Some(o) = ventry.owner {
                                if !t.contains(&o) {
                                    t.push(o);
                                }
                            }
                            Some(t)
                        }
                        None => None, // broadcast
                    })
                } else {
                    None
                };
                // Dirty in L2, or dirty in some owner's L1 (conservatively
                // written back on the invalidate): one DRAM writeback.
                let writeback = ventry.dirty || ventry.owner.is_some();
                if writeback {
                    self.dram_writebacks += 1;
                }
                victim = Some(VictimInfo {
                    line: vline,
                    invalidate,
                    writeback,
                });
            }
        }
        let entry = self.cache.lookup(line).expect("line resident after insert");
        HomeLine {
            entry,
            was_miss,
            victim,
        }
    }

    /// Directory entry of `line`, if resident (no LRU update, no stats).
    pub fn peek(&self, line: u64) -> Option<&DirEntry> {
        self.cache.peek(line)
    }

    /// Mutable directory entry without miss handling (writebacks from L1
    /// evictions land on lines that are normally still resident).
    pub fn lookup_resident(&mut self, line: u64) -> Option<&mut DirEntry> {
        self.cache.lookup(line)
    }

    /// Number of resident lines.
    pub fn resident(&self) -> usize {
        self.cache.len()
    }
}

/// Home slice of `line` among `num_cores` slices (multiplicative hash so
/// strided arrays spread over the chip, as NUCA interleaving does).
pub fn home_of(line: u64, num_cores: usize) -> usize {
    ((line.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 33) as usize % num_cores
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice() -> L2Slice {
        L2Slice::new(&SimConfig::tiny(4))
    }

    #[test]
    fn first_touch_is_miss_then_hit() {
        let mut s = slice();
        let h = s.prepare(100);
        assert!(h.was_miss);
        let h = s.prepare(100);
        assert!(!h.was_miss);
        assert_eq!(s.accesses, 2);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn directory_state_persists() {
        let mut s = slice();
        {
            let h = s.prepare(7);
            h.entry.sharers.add(3);
            h.entry.queue_busy = 99;
        }
        let e = s.peek(7).unwrap();
        assert_eq!(e.sharers.count(), 1);
        assert_eq!(e.queue_busy, 99);
    }

    #[test]
    fn eviction_reports_l1_invalidations() {
        // tiny(4): L2 = 4096 B, assoc 4, 64 sets... compute: 4096/64=64
        // lines, 64/4=16 sets. Lines k, k+16, ... collide.
        let mut s = slice();
        {
            let h = s.prepare(0);
            h.entry.sharers.add(1);
            h.entry.sharers.add(2);
        }
        for i in 1..4 {
            s.prepare(i * 16);
        }
        // Fifth line in set 0 evicts line 0 (LRU).
        let h = s.prepare(4 * 16);
        let v = h.victim.expect("a victim was evicted");
        assert_eq!(v.line, 0);
        let mut t = v
            .invalidate
            .expect("victim had sharers")
            .expect("precise sharers");
        t.sort_unstable();
        assert_eq!(t, vec![1, 2]);
    }

    #[test]
    fn dirty_victim_triggers_writeback() {
        let mut s = slice();
        s.prepare(0).entry.dirty = true;
        for i in 1..4 {
            s.prepare(i * 16);
        }
        let h = s.prepare(4 * 16);
        assert!(h.victim.expect("victim evicted").writeback);
        assert_eq!(s.dram_writebacks, 1);
    }

    #[test]
    fn owner_included_in_victim_targets() {
        let mut s = slice();
        s.prepare(0).entry.owner = Some(9);
        for i in 1..4 {
            s.prepare(i * 16);
        }
        let h = s.prepare(4 * 16);
        let v = h.victim.unwrap();
        assert_eq!(v.invalidate.unwrap().unwrap(), vec![9]);
        assert!(v.writeback, "owner may hold dirty data");
    }

    #[test]
    fn home_hash_is_balanced() {
        let mut counts = vec![0usize; 16];
        for line in 0..16_000u64 {
            counts[home_of(line, 16)] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 500),
            "roughly balanced: {counts:?}"
        );
    }
}
