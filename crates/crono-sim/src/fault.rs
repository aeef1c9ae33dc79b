//! Deterministic fault injection for the simulated machine.
//!
//! A [`FaultPlan`] decides, for every fault site the timing model
//! reaches, whether a fault fires there — as a *pure function* of the
//! plan's seed and the site's coordinates (source/destination router and
//! departure cycle for NoC faults; controller and arrival cycle for DRAM
//! faults; core id and time window for stall faults). No mutable RNG
//! state exists, so decisions do not depend on the order in which
//! threads reach their sites: under the deterministic scheduler the
//! whole faulty run is byte-for-byte reproducible, and two fault sites
//! never perturb each other's outcomes.
//!
//! Three fault classes are modeled:
//!
//! * **Transient NoC link faults** — a flit is corrupted in flight and
//!   the traversal is retransmitted, doubling that message's network
//!   latency and hop-flit traffic (`noc_retransmits`).
//! * **DRAM bit errors with an ECC model** — most errors are corrected
//!   in-line for free (`dram_ecc_corrected`); a configurable fraction is
//!   detected-but-uncorrectable and costs a full re-read of the line
//!   (`dram_ecc_detected`, plus one extra DRAM access of queueing,
//!   service time, and energy).
//! * **Core stall faults** — a core goes unresponsive for a fixed cycle
//!   window (a thermal throttle or micro-reset), modeled as a lump of
//!   added compute latency at the window boundary (`core_stalls`,
//!   `core_stall_cycles`).
//!
//! All rates may be zero ([`FaultPlan::zero`]): the decision functions
//! early-return before hashing anything, so a zero-rate plan is
//! *timing-invariant* — it reproduces the fault-free golden counters
//! exactly (guarded by a test in `crono-suite`).
//!
//! Beyond the transient classes, a plan may carry *permanent* faults —
//! components that die at a seeded cycle and stay dead for the rest of
//! the run ([`DeadLink`], [`DeadCore`], [`DeadDramCtrl`]). Activation is
//! a pure comparison of the observing thread's simulated clock against
//! the fault's `at_cycle`, so permanent faults inherit the same
//! determinism guarantees: no RNG state, no cross-site interference, and
//! a fault armed at `u64::MAX` (or absent) is timing-invisible.

/// Compass direction of a router's outgoing mesh link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDir {
    /// Toward higher column (`col + 1`).
    East,
    /// Toward lower column (`col - 1`).
    West,
    /// Toward higher row (`row + 1`).
    South,
    /// Toward lower row (`row - 1`).
    North,
}

impl LinkDir {
    /// Short lowercase name for reports and CLI messages.
    pub fn name(self) -> &'static str {
        match self {
            LinkDir::East => "east",
            LinkDir::West => "west",
            LinkDir::South => "south",
            LinkDir::North => "north",
        }
    }
}

/// A mesh link that fails permanently at a seeded cycle: the outgoing
/// link of `router` in direction `dir` drops every flit from `at_cycle`
/// on. Adaptive routing detours around it; XY dimension-ordered routing
/// cannot and reports a typed error instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadLink {
    /// Core/router id owning the outgoing link.
    pub router: usize,
    /// Direction of the failed outgoing link.
    pub dir: LinkDir,
    /// First simulated cycle at which the link is dead.
    pub at_cycle: u64,
}

/// A core that is disabled permanently at a seeded cycle. The runtime
/// treats it as *departed*, not hung: its task deque is drained by the
/// surviving threads and barriers re-size to the survivor set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadCore {
    /// Core id that dies.
    pub core: usize,
    /// First simulated cycle at which the core is dead (it departs at
    /// its next task or barrier boundary at or after this cycle).
    pub at_cycle: u64,
}

/// A DRAM controller that fails permanently at a seeded cycle. Its
/// address ranges are re-homed onto the survivors: accesses pay a
/// one-time migration surcharge inside a bounded window after death and
/// permanently higher queueing pressure afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadDramCtrl {
    /// Controller index that dies.
    pub ctrl: usize,
    /// First simulated cycle at which the controller is dead.
    pub at_cycle: u64,
}

/// A [`FaultPlan`] parameter rejected by [`FaultPlan::validate`], with
/// the offending field named in the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError {
    /// Name of the rejected field.
    pub field: &'static str,
    /// One-line human-readable description.
    pub message: String,
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for FaultPlanError {}

/// Outcome of the ECC check on one DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccOutcome {
    /// No bit error.
    Clean,
    /// Single-bit error corrected in-line; no timing cost.
    Corrected,
    /// Multi-bit error detected but not correctable; the line is
    /// re-read from the array (one extra DRAM access).
    Detected,
}

/// A seeded, deterministic fault-injection plan (see the module docs).
///
/// `Copy` on purpose: every simulated thread context carries its own
/// copy, and decisions are pure functions, so there is no shared state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every decision hash.
    pub seed: u64,
    /// Per-traversal probability of a transient NoC link fault.
    pub noc_rate: f64,
    /// Per-access probability of a DRAM bit error.
    pub dram_rate: f64,
    /// Fraction of DRAM bit errors that are detected-but-uncorrectable
    /// (the rest are corrected for free).
    pub dram_detected_fraction: f64,
    /// Per-(core, window) probability of a core stall fault.
    pub stall_rate: f64,
    /// Cycles a stalled core loses.
    pub stall_cycles: u64,
    /// Width in cycles of the stall-decision windows.
    pub stall_window: u64,
    /// Permanently failed mesh link, if any.
    pub dead_link: Option<DeadLink>,
    /// Permanently disabled core, if any.
    pub dead_core: Option<DeadCore>,
    /// Permanently failed DRAM controller, if any.
    pub dead_dram_ctrl: Option<DeadDramCtrl>,
}

/// splitmix64 finalizer — a well-mixed 64-bit hash step.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps `rate` in `[0, 1]` onto a u64 threshold for `hash < threshold`.
#[inline]
fn threshold(rate: f64) -> u64 {
    if rate >= 1.0 {
        u64::MAX
    } else {
        (rate * u64::MAX as f64) as u64
    }
}

// Domain-separation constants so the three fault classes draw from
// independent hash streams even at identical site coordinates.
const DOMAIN_NOC: u64 = 0x4e4f_435f_4641_554c; // "NOC_FAUL"
const DOMAIN_DRAM: u64 = 0x4452_414d_5f45_4343; // "DRAM_ECC"
const DOMAIN_STALL: u64 = 0x5354_414c_4c5f_4342; // "STALL_CB"

impl FaultPlan {
    /// A plan with every rate zero: injects nothing and — because the
    /// decision functions early-return before hashing — is exactly
    /// timing-invariant with running without a plan at all.
    pub fn zero(seed: u64) -> Self {
        FaultPlan {
            seed,
            noc_rate: 0.0,
            dram_rate: 0.0,
            dram_detected_fraction: 0.25,
            stall_rate: 0.0,
            stall_cycles: 2_000,
            stall_window: 50_000,
            dead_link: None,
            dead_core: None,
            dead_dram_ctrl: None,
        }
    }

    /// Arms a permanent dead-link fault (builder style).
    pub fn with_dead_link(mut self, router: usize, dir: LinkDir, at_cycle: u64) -> Self {
        self.dead_link = Some(DeadLink {
            router,
            dir,
            at_cycle,
        });
        self
    }

    /// Arms a permanent dead-core fault (builder style).
    pub fn with_dead_core(mut self, core: usize, at_cycle: u64) -> Self {
        self.dead_core = Some(DeadCore { core, at_cycle });
        self
    }

    /// Arms a permanent dead-DRAM-controller fault (builder style).
    pub fn with_dead_dram_ctrl(mut self, ctrl: usize, at_cycle: u64) -> Self {
        self.dead_dram_ctrl = Some(DeadDramCtrl { ctrl, at_cycle });
        self
    }

    /// Whether the plan carries any permanent fault (armed, even if its
    /// activation cycle is never reached).
    pub fn has_permanent(&self) -> bool {
        self.dead_link.is_some() || self.dead_core.is_some() || self.dead_dram_ctrl.is_some()
    }

    /// The single-knob plan used by the `crono faults` sweep: NoC and
    /// DRAM fault rates equal `rate`; core stalls are much rarer events,
    /// so their per-window probability is scaled up (`rate * 32`,
    /// clamped) to stay observable at the sweep's low rates.
    pub fn scaled(seed: u64, rate: f64) -> Self {
        FaultPlan {
            noc_rate: rate,
            dram_rate: rate,
            stall_rate: (rate * 32.0).min(1.0),
            ..FaultPlan::zero(seed)
        }
    }

    /// Validates the plan's parameters: every rate must be a finite
    /// probability in `[0, 1]` (NaN, negative, and `> 1.0` are all
    /// rejected) and the stall window must be positive.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultPlanError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for (name, rate) in [
            ("noc_rate", self.noc_rate),
            ("dram_rate", self.dram_rate),
            ("dram_detected_fraction", self.dram_detected_fraction),
            ("stall_rate", self.stall_rate),
        ] {
            if !(rate.is_finite() && (0.0..=1.0).contains(&rate)) {
                return Err(FaultPlanError {
                    field: name,
                    message: format!("{name} must be a probability in [0, 1], got {rate}"),
                });
            }
        }
        if self.stall_window == 0 {
            return Err(FaultPlanError {
                field: "stall_window",
                message: "stall_window must be positive".to_string(),
            });
        }
        Ok(())
    }

    /// Whether the plan can ever inject anything (transient rates all
    /// zero and no permanent fault armed).
    pub fn is_zero(&self) -> bool {
        self.noc_rate <= 0.0
            && self.dram_rate <= 0.0
            && self.stall_rate <= 0.0
            && !self.has_permanent()
    }

    #[inline]
    fn draw(&self, domain: u64, a: u64, b: u64, c: u64) -> u64 {
        let mut h = splitmix64(self.seed ^ domain);
        h = splitmix64(h ^ a);
        h = splitmix64(h ^ b);
        splitmix64(h ^ c)
    }

    /// Does the traversal departing router `from` for router `to` at
    /// cycle `depart` suffer a transient link fault?
    #[inline]
    pub fn noc_fault(&self, from: usize, to: usize, depart: u64) -> bool {
        if self.noc_rate <= 0.0 {
            return false;
        }
        self.draw(DOMAIN_NOC, from as u64, to as u64, depart) < threshold(self.noc_rate)
    }

    /// ECC outcome of the DRAM access at controller `ctrl` arriving at
    /// cycle `arrive`.
    #[inline]
    pub fn dram_fault(&self, ctrl: usize, arrive: u64) -> EccOutcome {
        if self.dram_rate <= 0.0 {
            return EccOutcome::Clean;
        }
        let h = self.draw(DOMAIN_DRAM, ctrl as u64, arrive, 0);
        if h >= threshold(self.dram_rate) {
            return EccOutcome::Clean;
        }
        // A second, independent draw decides correctable vs. detected.
        if splitmix64(h) < threshold(self.dram_detected_fraction) {
            EccOutcome::Detected
        } else {
            EccOutcome::Corrected
        }
    }

    /// Does core `core` stall during decision window `window`
    /// (`window = clock / stall_window`)?
    #[inline]
    pub fn core_stall(&self, core: usize, window: u64) -> bool {
        if self.stall_rate <= 0.0 {
            return false;
        }
        self.draw(DOMAIN_STALL, core as u64, window, 0) < threshold(self.stall_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::scaled(7, 0.01);
        let b = FaultPlan::scaled(7, 0.01);
        for site in 0..1000u64 {
            assert_eq!(a.noc_fault(3, 9, site), b.noc_fault(3, 9, site));
            assert_eq!(a.dram_fault(1, site), b.dram_fault(1, site));
            assert_eq!(a.core_stall(5, site), b.core_stall(5, site));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::scaled(1, 0.5);
        let b = FaultPlan::scaled(2, 0.5);
        let diverges = (0..200u64).any(|s| a.noc_fault(0, 1, s) != b.noc_fault(0, 1, s));
        assert!(diverges, "two seeds should not produce identical streams");
    }

    #[test]
    fn zero_plan_never_fires() {
        let p = FaultPlan::zero(42);
        assert!(p.is_zero());
        for site in 0..10_000u64 {
            assert!(!p.noc_fault(0, 255, site));
            assert_eq!(p.dram_fault(3, site), EccOutcome::Clean);
            assert!(!p.core_stall(17, site));
        }
    }

    #[test]
    fn higher_rates_fire_more_often() {
        let count = |rate: f64| {
            let p = FaultPlan::scaled(11, rate);
            (0..20_000u64).filter(|&s| p.noc_fault(2, 7, s)).count()
        };
        let low = count(0.001);
        let high = count(0.1);
        assert!(
            high > low,
            "rate 0.1 ({high}) should out-fire 0.001 ({low})"
        );
        // Sanity: 0.1 over 20k sites lands in a generous window.
        assert!((1000..3500).contains(&high), "got {high}");
    }

    #[test]
    fn ecc_splits_between_corrected_and_detected() {
        let p = FaultPlan::scaled(13, 1.0); // every access faults
        let mut corrected = 0;
        let mut detected = 0;
        for site in 0..4_000u64 {
            match p.dram_fault(0, site) {
                EccOutcome::Corrected => corrected += 1,
                EccOutcome::Detected => detected += 1,
                EccOutcome::Clean => panic!("rate 1.0 must always fault"),
            }
        }
        // detected_fraction is 0.25: expect roughly 1000 of 4000.
        assert!(corrected > detected, "{corrected} vs {detected}");
        assert!((500..1600).contains(&detected), "got {detected}");
    }

    #[test]
    fn validate_rejects_out_of_range_rates() {
        for bad in [1.5, -0.1, f64::NAN, f64::INFINITY] {
            let err = FaultPlan {
                noc_rate: bad,
                ..FaultPlan::zero(0)
            }
            .validate()
            .expect_err("out-of-range noc_rate must be rejected");
            assert_eq!(err.field, "noc_rate");
            assert!(
                err.message.contains("noc_rate") && err.message.contains("probability"),
                "message must name the field: {}",
                err.message
            );
        }
        let err = FaultPlan {
            dram_detected_fraction: -2.0,
            ..FaultPlan::zero(0)
        }
        .validate()
        .expect_err("negative fraction must be rejected");
        assert_eq!(err.field, "dram_detected_fraction");
    }

    #[test]
    fn validate_rejects_zero_window() {
        let err = FaultPlan {
            stall_window: 0,
            ..FaultPlan::zero(0)
        }
        .validate()
        .expect_err("zero stall_window must be rejected");
        assert_eq!(err.field, "stall_window");
        assert!(err.message.contains("stall_window"));
    }

    #[test]
    fn validate_accepts_sound_plans() {
        assert!(FaultPlan::zero(7).validate().is_ok());
        assert!(FaultPlan::scaled(7, 0.5).validate().is_ok());
        assert!(FaultPlan::zero(7)
            .with_dead_link(5, LinkDir::East, 1_000)
            .with_dead_core(3, 2_000)
            .with_dead_dram_ctrl(1, 3_000)
            .validate()
            .is_ok());
    }

    #[test]
    fn permanent_faults_flip_is_zero_but_armed_plans_stay_valid() {
        let p = FaultPlan::zero(9);
        assert!(p.is_zero());
        assert!(!p.has_permanent());
        let armed = p.with_dead_core(0, u64::MAX);
        assert!(armed.has_permanent());
        assert!(!armed.is_zero(), "armed plan is not the zero plan");
        assert_eq!(
            armed.dead_core,
            Some(DeadCore {
                core: 0,
                at_cycle: u64::MAX
            })
        );
    }
}
