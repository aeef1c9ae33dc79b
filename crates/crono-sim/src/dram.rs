//! Off-chip memory: 8 controllers with finite per-controller bandwidth
//! (Table II: 5 GBps each, 100 ns latency). As with the NoC, queueing is
//! modeled with skew-tolerant epoch utilization counters rather than
//! absolute reservations (see `noc` module docs): a line access pays
//! queueing delay when its controller's epoch already holds more line
//! transfers than the bandwidth allows.

use crate::config::SimConfig;
use crate::fault::DeadDramCtrl;
use std::sync::atomic::{AtomicU64, Ordering};

/// Simulated cycles per DRAM accounting epoch.
pub const DRAM_EPOCH_CYCLES: u64 = 512;
/// Ring slots per controller.
pub const DRAM_EPOCH_SLOTS: usize = 32;
/// Queueing delay cap (bounds pathological overload).
const MAX_QUEUE_DELAY: u64 = 4 * DRAM_EPOCH_CYCLES;
/// Cycles after a controller death during which re-homed accesses pay
/// the one-time migration surcharge (the survivor must pull the line
/// image off the dead controller's array while serving the request).
pub const MIGRATION_WINDOW: u64 = 8 * DRAM_EPOCH_CYCLES;

/// Outcome of one DRAM line access.
#[derive(Debug, Clone, Copy)]
pub struct DramAccess {
    /// Cycle the data is available at the controller.
    pub ready: u64,
    /// Bandwidth-queueing delay paid (0 when the epoch had headroom).
    pub queued: u64,
}

/// The DRAM subsystem.
#[derive(Debug)]
pub struct Dram {
    /// Core index each controller is attached to (spread over the mesh).
    ctrl_cores: Vec<usize>,
    /// `slots[ctrl * DRAM_EPOCH_SLOTS + epoch % SLOTS]` packs
    /// `(epoch_tag << 32) | line_count`.
    slots: Vec<AtomicU64>,
    latency: u64,
    service: u64,
    /// Lines one controller can stream per epoch.
    lines_per_epoch: u64,
    accesses: AtomicU64,
    /// Permanently failed controller, if armed (active once an access's
    /// cycle reaches its `at_cycle`).
    dead_ctrl: Option<DeadDramCtrl>,
}

impl Dram {
    /// Builds the DRAM subsystem for `config`.
    pub fn new(config: &SimConfig) -> Self {
        let n = config.dram.controllers.min(config.num_cores);
        let stride = config.num_cores / n;
        let service = config.dram_service_cycles();
        Dram {
            ctrl_cores: (0..n).map(|i| i * stride).collect(),
            slots: (0..n * DRAM_EPOCH_SLOTS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            latency: config.dram_latency_cycles(),
            service,
            lines_per_epoch: (DRAM_EPOCH_CYCLES / service).max(1),
            accesses: AtomicU64::new(0),
            dead_ctrl: None,
        }
    }

    /// Arms (or clears) the permanent dead-controller fault. Call before
    /// the subsystem is shared between threads.
    ///
    /// # Panics
    ///
    /// Panics if the controller index is out of range or it is the only
    /// controller (nothing to re-home onto).
    pub fn set_dead_ctrl(&mut self, dead: Option<DeadDramCtrl>) {
        if let Some(dc) = dead {
            assert!(
                dc.ctrl < self.ctrl_cores.len(),
                "dead DRAM controller {} out of range (machine has {})",
                dc.ctrl,
                self.ctrl_cores.len()
            );
            assert!(
                self.ctrl_cores.len() > 1,
                "cannot kill the only DRAM controller"
            );
        }
        self.dead_ctrl = dead;
    }

    /// Number of controllers.
    pub fn controllers(&self) -> usize {
        self.ctrl_cores.len()
    }

    /// Which controller serves `line`, and the core it is attached to
    /// (the healthy address map, ignoring any dead controller).
    pub fn controller_for(&self, line: u64) -> (usize, usize) {
        let idx = (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.ctrl_cores.len();
        (idx, self.ctrl_cores[idx])
    }

    /// Which controller serves `line` for an access at cycle `cycle`:
    /// the natural hash owner, or — when that owner is dead by `cycle` —
    /// a survivor chosen by a second pure hash of the line (so the dead
    /// controller's ranges spread evenly over the survivors). Returns
    /// `(ctrl, core, rehomed)`.
    pub fn controller_for_at(&self, line: u64, cycle: u64) -> (usize, usize, bool) {
        let (idx, core) = self.controller_for(line);
        match self.dead_ctrl {
            Some(dc) if cycle >= dc.at_cycle && idx == dc.ctrl => {
                let n = self.ctrl_cores.len() - 1;
                let h = (line.wrapping_mul(0xD1B5_4A32_D192_ED03) >> 32) as usize % n;
                let survivor = if h >= dc.ctrl { h + 1 } else { h };
                (survivor, self.ctrl_cores[survivor], true)
            }
            _ => (idx, core, false),
        }
    }

    /// Migration surcharge in cycles for an access at cycle `cycle`:
    /// re-homed accesses inside `MIGRATION_WINDOW` (8 DRAM epochs) after
    /// the controller death pay one extra DRAM latency (the survivor pulls
    /// the migrating line image first); afterwards the line lives on the
    /// survivor and only the permanent queueing pressure remains.
    pub fn migration_surcharge(&self, rehomed: bool, cycle: u64) -> u64 {
        match self.dead_ctrl {
            Some(dc) if rehomed && cycle < dc.at_cycle.saturating_add(MIGRATION_WINDOW) => {
                self.latency
            }
            _ => 0,
        }
    }

    /// Services one line access arriving at the controller at cycle
    /// `arrive`; returns the cycle data is available at the controller.
    /// Epoch overload models the 5 GBps bandwidth limit.
    pub fn access(&self, ctrl: usize, arrive: u64) -> u64 {
        self.access_timed(ctrl, arrive).ready
    }

    /// As [`Dram::access`], additionally reporting the queueing delay the
    /// access paid (for tracing).
    pub fn access_timed(&self, ctrl: usize, arrive: u64) -> DramAccess {
        self.accesses.fetch_add(1, Ordering::Relaxed);
        let epoch = arrive / DRAM_EPOCH_CYCLES;
        let cell = &self.slots[ctrl * DRAM_EPOCH_SLOTS + (epoch as usize % DRAM_EPOCH_SLOTS)];
        let this_tag = epoch & 0xFFFF_FFFF;
        let mut cur = cell.load(Ordering::Relaxed);
        let occupied = loop {
            let (tag, count) = (cur >> 32, cur & 0xFFFF_FFFF);
            let (new, occupied) = if tag == this_tag {
                ((this_tag << 32) | (count + 1), count)
            } else {
                ((this_tag << 32) | 1, 0)
            };
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break occupied,
                Err(actual) => cur = actual,
            }
        };
        let over_lines = (occupied + 1).saturating_sub(self.lines_per_epoch);
        let delay = (over_lines * self.service).min(MAX_QUEUE_DELAY);
        DramAccess {
            ready: arrive + delay + self.latency,
            queued: delay,
        }
    }

    /// Total line transfers so far.
    pub fn total_accesses(&self) -> u64 {
        self.accesses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(&SimConfig::default())
    }

    #[test]
    fn latency_without_queueing() {
        let d = dram();
        assert_eq!(d.access(0, 1000), 1100);
    }

    #[test]
    fn epoch_capacity_matches_bandwidth() {
        let d = dram();
        // 512 cycles / 13 cycles-per-line = 39 lines per epoch.
        assert_eq!(d.lines_per_epoch, 39);
    }

    #[test]
    fn overload_queues_with_service_granularity() {
        let d = dram();
        let mut last = 0;
        for _ in 0..45 {
            last = d.access(0, 0);
        }
        // 45 lines into a 39-line epoch: 6 lines of overload.
        assert_eq!(last, 6 * 13 + 100);
        assert_eq!(d.total_accesses(), 45);
    }

    #[test]
    fn controllers_are_independent() {
        let d = dram();
        for _ in 0..100 {
            d.access(0, 0);
        }
        assert_eq!(d.access(1, 0), 100, "other controller unqueued");
    }

    #[test]
    fn skewed_clocks_do_not_poison_controllers() {
        let d = dram();
        for _ in 0..100 {
            d.access(0, 1_000_000);
        }
        assert_eq!(d.access(0, 0), 100, "earlier epoch unaffected");
    }

    #[test]
    fn queue_delay_is_capped() {
        let d = dram();
        for _ in 0..100_000 {
            d.access(0, 0);
        }
        assert!(d.access(0, 0) <= 4 * DRAM_EPOCH_CYCLES + 100);
    }

    #[test]
    fn controller_hash_covers_all_controllers() {
        let d = dram();
        let mut seen = std::collections::HashSet::new();
        for line in 0..10_000u64 {
            seen.insert(d.controller_for(line).0);
        }
        assert_eq!(seen.len(), 8, "all 8 controllers used");
    }

    #[test]
    fn dead_controller_rehomes_to_survivors() {
        let mut d = dram();
        d.set_dead_ctrl(Some(DeadDramCtrl {
            ctrl: 3,
            at_cycle: 10_000,
        }));
        let mut rehomed_seen = std::collections::HashSet::new();
        let mut rehomed_count = 0u64;
        for line in 0..10_000u64 {
            let (natural, _) = d.controller_for(line);
            let (before, _, r_before) = d.controller_for_at(line, 0);
            assert_eq!(before, natural, "before death the map is unchanged");
            assert!(!r_before);
            let (after, _, r_after) = d.controller_for_at(line, 10_000);
            assert_ne!(after, 3, "no access lands on the dead controller");
            if natural == 3 {
                assert!(r_after);
                rehomed_seen.insert(after);
                rehomed_count += 1;
            } else {
                assert_eq!(after, natural, "survivor-owned lines stay put");
                assert!(!r_after);
            }
        }
        assert!(rehomed_count > 500, "controller 3 owned ~1/8 of lines");
        assert!(
            rehomed_seen.len() == 7,
            "re-homed lines spread over all 7 survivors: {rehomed_seen:?}"
        );
    }

    #[test]
    fn rehoming_is_deterministic() {
        let mk = || {
            let mut d = dram();
            d.set_dead_ctrl(Some(DeadDramCtrl {
                ctrl: 0,
                at_cycle: 5,
            }));
            d
        };
        let (a, b) = (mk(), mk());
        for line in 0..2_000u64 {
            assert_eq!(a.controller_for_at(line, 99), b.controller_for_at(line, 99));
        }
    }

    #[test]
    fn migration_surcharge_is_bounded_to_the_window() {
        let mut d = dram();
        d.set_dead_ctrl(Some(DeadDramCtrl {
            ctrl: 1,
            at_cycle: 1_000,
        }));
        assert_eq!(d.migration_surcharge(true, 1_000), 100);
        assert_eq!(
            d.migration_surcharge(true, 1_000 + MIGRATION_WINDOW - 1),
            100
        );
        assert_eq!(d.migration_surcharge(true, 1_000 + MIGRATION_WINDOW), 0);
        assert_eq!(
            d.migration_surcharge(false, 1_000),
            0,
            "natural accesses free"
        );
        let healthy = dram();
        assert_eq!(healthy.migration_surcharge(true, 0), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dead_controller_index_is_validated() {
        dram().set_dead_ctrl(Some(DeadDramCtrl {
            ctrl: 8,
            at_cycle: 0,
        }));
    }
}
