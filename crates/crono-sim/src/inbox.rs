//! Asynchronous coherence-message delivery between cores.
//!
//! The home directory updates its own state synchronously, but the
//! *holder's* private L1 belongs to another simulated thread. Messages are
//! therefore queued and drained lazily by the owning thread at its next
//! memory access — the same lax synchronization Graphite uses for cross-
//! core state.
//!
//! Precise invalidations go to per-core inboxes; ACKWise broadcast
//! invalidations go to a shared append-only log every core scans from its
//! own cursor (pushing 255 messages per broadcast would dominate run
//! time). Every push arms a per-core notify flag, the one probe a core
//! reads per memory op; a core drains its queue and the log only when
//! its flag was armed. A writer appends its own broadcast under the same
//! log lock that applies the entries it has not seen, so another core's
//! broadcast can never hide behind the writer's cursor.

use crono_runtime::{CachePadded, Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// One coherence message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoherenceMsg {
    /// The affected cache line.
    pub line: u64,
    /// `true` = downgrade (M/E → S), `false` = invalidate.
    pub downgrade: bool,
}

/// Per-core inboxes plus the broadcast log.
#[derive(Debug)]
pub struct Inboxes {
    queues: Vec<Mutex<Vec<CoherenceMsg>>>,
    /// Per-core "something may be waiting" flags, armed by senders on
    /// every push (including broadcasts) and cleared by the owning core
    /// in [`Inboxes::take_notified`]. The per-memory-op probe then reads
    /// one core-private padded flag with `Relaxed` ordering instead of
    /// hammering the globally shared `broadcast_len` line — see
    /// `take_notified` for why `Relaxed` is sound here.
    notify: Vec<CachePadded<AtomicBool>>,
    broadcast_log: RwLock<Vec<u64>>,
    /// The log's length, so a notified drain with nothing new to read
    /// stays off the log's lock.
    broadcast_len: AtomicU64,
}

impl Inboxes {
    /// Creates inboxes for `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        Inboxes {
            queues: (0..num_cores).map(|_| Mutex::new(Vec::new())).collect(),
            notify: (0..num_cores)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
            broadcast_log: RwLock::new(Vec::new()),
            broadcast_len: AtomicU64::new(0),
        }
    }

    /// Queues `msg` for `core`.
    pub fn push(&self, core: usize, msg: CoherenceMsg) {
        self.queues[core].lock().push(msg);
        self.notify[core].store(true, Ordering::Relaxed);
    }

    /// Records a broadcast invalidation of `line` (every core must drop
    /// it).
    pub fn push_broadcast(&self, line: u64) {
        self.append_broadcast(&mut self.broadcast_log.write(), line);
    }

    /// A writer's own broadcast invalidation of `line`, which the writer
    /// must not apply to itself: under one write lock of the log, calls
    /// `f` for every line recorded after `broadcast_cursor`, appends
    /// `line`, and returns the cursor past it. Appending and skipping in
    /// one step keeps a line another core recorded after the writer's
    /// last drain from being skipped in place of the writer's own.
    pub fn push_own_broadcast(
        &self,
        line: u64,
        broadcast_cursor: u64,
        mut f: impl FnMut(u64),
    ) -> u64 {
        let mut log = self.broadcast_log.write();
        for &missed in &log[broadcast_cursor as usize..] {
            f(missed);
        }
        self.append_broadcast(&mut log, line);
        log.len() as u64
    }

    fn append_broadcast(&self, log: &mut Vec<u64>, line: u64) {
        log.push(line);
        self.broadcast_len
            .store(log.len() as u64, Ordering::Release);
        for flag in &self.notify {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Checks and clears `core`'s notification flag: the once-per-memory-
    /// op probe. Only the owning core may call this.
    ///
    /// `Relaxed` is sound because the flag is advisory: a false positive
    /// costs one empty drain, and a racy clear can only *defer* a
    /// message to the next arm — acceptable under lax synchronization,
    /// where cross-core delivery timing is already best-effort (the
    /// messages carry timing state, never data). In traced mode the
    /// sequencer fully serializes threads, so arm/clear/drain never
    /// overlap and delivery points are exact and deterministic.
    #[inline]
    pub fn take_notified(&self, core: usize) -> bool {
        if self.notify[core].load(Ordering::Relaxed) {
            self.notify[core].store(false, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Takes all queued precise messages for `core`.
    pub fn drain(&self, core: usize) -> Vec<CoherenceMsg> {
        std::mem::take(&mut *self.queues[core].lock())
    }

    /// Calls `f` for every broadcast line recorded after
    /// `broadcast_cursor`; returns the new cursor.
    pub fn drain_broadcasts(&self, broadcast_cursor: u64, mut f: impl FnMut(u64)) -> u64 {
        let len = self.broadcast_len.load(Ordering::Acquire);
        if len <= broadcast_cursor {
            return broadcast_cursor;
        }
        let log = self.broadcast_log.read();
        for &line in &log[broadcast_cursor as usize..len as usize] {
            f(line);
        }
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_drain() {
        let ib = Inboxes::new(2);
        assert!(ib.drain(0).is_empty());
        ib.push(
            0,
            CoherenceMsg {
                line: 7,
                downgrade: false,
            },
        );
        assert!(ib.take_notified(0));
        assert!(!ib.take_notified(1));
        assert!(ib.drain(1).is_empty(), "the message went to core 0 only");
        let msgs = ib.drain(0);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].line, 7);
        assert!(ib.drain(0).is_empty());
    }

    #[test]
    fn broadcasts_visible_to_all_cursors() {
        let ib = Inboxes::new(4);
        ib.push_broadcast(10);
        ib.push_broadcast(11);
        let mut seen = Vec::new();
        let cur = ib.drain_broadcasts(0, |l| seen.push(l));
        assert_eq!(seen, vec![10, 11]);
        assert_eq!(cur, 2);
        // Second drain from the new cursor sees nothing.
        let cur2 = ib.drain_broadcasts(cur, |_| panic!("nothing new"));
        assert_eq!(cur2, 2);
        // A fresh core (cursor 0) is notified and still sees both.
        assert!(ib.take_notified(3));
        let mut seen2 = Vec::new();
        ib.drain_broadcasts(0, |l| seen2.push(l));
        assert_eq!(seen2, vec![10, 11]);
    }

    #[test]
    fn own_broadcast_applies_what_landed_before_it() {
        let ib = Inboxes::new(2);
        // The writer (core 0) has drained the log up to cursor 0; core
        // 1's broadcast lands before the writer appends its own.
        ib.push_broadcast(5);
        let mut applied = Vec::new();
        let cur = ib.push_own_broadcast(9, 0, |l| applied.push(l));
        assert_eq!(applied, vec![5], "the other core's line is applied");
        assert_eq!(cur, 2, "the cursor skips only the writer's own line");
        assert_eq!(ib.drain_broadcasts(cur, |_| panic!("nothing new")), 2);
        let mut seen = Vec::new();
        ib.drain_broadcasts(0, |l| seen.push(l));
        assert_eq!(seen, vec![5, 9], "a fresh cursor sees both");
        assert!(ib.take_notified(1), "the own broadcast arms the others");
    }

    #[test]
    fn notify_flag_arms_on_push_and_broadcast() {
        let ib = Inboxes::new(3);
        assert!(!ib.take_notified(0));
        ib.push(
            1,
            CoherenceMsg {
                line: 3,
                downgrade: true,
            },
        );
        assert!(!ib.take_notified(0), "precise push targets one core");
        assert!(ib.take_notified(1));
        assert!(!ib.take_notified(1), "cleared by the take");
        ib.push_broadcast(9);
        for core in 0..3 {
            assert!(ib.take_notified(core), "broadcast arms every core");
        }
    }

    #[test]
    fn concurrent_pushes_are_not_lost() {
        let ib = Inboxes::new(1);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..100 {
                        ib.push(
                            0,
                            CoherenceMsg {
                                line: i,
                                downgrade: false,
                            },
                        );
                    }
                });
            }
        });
        assert_eq!(ib.drain(0).len(), 400);
    }
}
