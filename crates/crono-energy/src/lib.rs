//! Dynamic energy model for the CRONO multicore simulator.
//!
//! The paper evaluates dynamic energy of the memory system at the 11 nm
//! node, using DSENT for the on-chip network routers/links and McPAT for
//! the L1-I, L1-D, and L2 (with integrated directory) caches (§IV-D).
//! For a *fixed* configuration both tools reduce to a per-event energy:
//! every cache access, router/link flit traversal, and DRAM transfer
//! costs a constant number of picojoules. This crate supplies those
//! constants and multiplies them by the event counts the simulator
//! collects ([`crono_runtime::EnergyCounters`]).
//!
//! The constants in [`EnergyParams::node_11nm`] are scaled from published
//! 22/32 nm McPAT and DSENT characterizations (SRAM access energy scales
//! roughly with capacity and feature size; router/link energy per flit-hop
//! at 11 nm is a few pJ; DRAM ~20 pJ/bit). Figure 6 of the paper is
//! *normalized*, so only the relative magnitudes matter for reproducing
//! its shape — the absolute values are documented best-effort estimates.
//!
//! # Examples
//!
//! ```
//! use crono_energy::{EnergyModel, EnergyParams};
//! use crono_runtime::EnergyCounters;
//!
//! let model = EnergyModel::new(EnergyParams::node_11nm());
//! let counters = EnergyCounters {
//!     l1d_accesses: 1_000,
//!     router_flit_hops: 5_000,
//!     link_flit_hops: 5_000,
//!     ..EnergyCounters::default()
//! };
//! let breakdown = model.evaluate(&counters);
//! let shares = breakdown.normalized();
//! assert!(shares.network_router + shares.network_link > 0.5,
//!         "network dominates for traffic-heavy counters");
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use crono_runtime::EnergyCounters;

/// Per-event dynamic energies in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// One L1-I access (32 KB, 4-way SRAM read).
    pub l1i_access_pj: f64,
    /// One L1-D access.
    pub l1d_access_pj: f64,
    /// One L2 slice access (256 KB, 8-way).
    pub l2_access_pj: f64,
    /// One directory lookup/update (integrated with L2; tag-sized).
    pub directory_access_pj: f64,
    /// One flit through one router (buffer write + crossbar + arbitration).
    pub router_flit_pj: f64,
    /// One flit over one link.
    pub link_flit_pj: f64,
    /// One 64-byte DRAM line transfer.
    pub dram_access_pj: f64,
}

impl EnergyParams {
    /// 11 nm estimates (see crate docs for derivation).
    pub fn node_11nm() -> EnergyParams {
        EnergyParams {
            l1i_access_pj: 2.5,
            l1d_access_pj: 3.0,
            l2_access_pj: 12.0,
            directory_access_pj: 1.5,
            router_flit_pj: 4.0,
            link_flit_pj: 2.5,
            dram_access_pj: 10_000.0, // ~20 pJ/bit × 512 bits
        }
    }

    fn validate(&self) {
        for (name, v) in [
            ("l1i", self.l1i_access_pj),
            ("l1d", self.l1d_access_pj),
            ("l2", self.l2_access_pj),
            ("directory", self.directory_access_pj),
            ("router", self.router_flit_pj),
            ("link", self.link_flit_pj),
            ("dram", self.dram_access_pj),
        ] {
            assert!(
                v >= 0.0 && v.is_finite(),
                "{name} energy must be finite and non-negative"
            );
        }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams::node_11nm()
    }
}

/// Dynamic energy by component, in picojoules — the seven stacks of the
/// paper's Figure 6.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// L1 instruction caches.
    pub l1i: f64,
    /// L1 data caches.
    pub l1d: f64,
    /// L2 cache slices.
    pub l2: f64,
    /// Directory (integrated with L2).
    pub directory: f64,
    /// Mesh routers.
    pub network_router: f64,
    /// Mesh links.
    pub network_link: f64,
    /// Off-chip DRAM.
    pub dram: f64,
}

impl EnergyBreakdown {
    /// Total dynamic energy in picojoules.
    pub fn total(&self) -> f64 {
        self.l1i
            + self.l1d
            + self.l2
            + self.directory
            + self.network_router
            + self.network_link
            + self.dram
    }

    /// Normalized shares summing to 1 (all zeros if the total is zero) —
    /// Figure 6 plots these.
    pub fn normalized(&self) -> EnergyBreakdown {
        let total = self.total();
        if total == 0.0 {
            return EnergyBreakdown::default();
        }
        EnergyBreakdown {
            l1i: self.l1i / total,
            l1d: self.l1d / total,
            l2: self.l2 / total,
            directory: self.directory / total,
            network_router: self.network_router / total,
            network_link: self.network_link / total,
            dram: self.dram / total,
        }
    }

    /// The components as `(label, value)` pairs in the paper's legend
    /// order.
    pub fn components(&self) -> [(&'static str, f64); 7] {
        [
            ("L1-I Cache", self.l1i),
            ("L1-D Cache", self.l1d),
            ("L2 Cache", self.l2),
            ("Directory", self.directory),
            ("Network Router", self.network_router),
            ("Network Link", self.network_link),
            ("DRAM", self.dram),
        ]
    }

    /// Fraction of total energy spent in the network (router + link) —
    /// the paper reports an average of 75% across benchmarks.
    pub fn network_share(&self) -> f64 {
        let total = self.total();
        if total == 0.0 {
            0.0
        } else {
            (self.network_router + self.network_link) / total
        }
    }
}

/// The energy model: parameters plus evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    params: EnergyParams,
}

impl EnergyModel {
    /// Creates a model with the given per-event energies.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is negative or non-finite.
    pub fn new(params: EnergyParams) -> Self {
        params.validate();
        EnergyModel { params }
    }

    /// The parameters in force.
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// Multiplies the simulator's event counts by the per-event energies.
    pub fn evaluate(&self, counters: &EnergyCounters) -> EnergyBreakdown {
        let p = &self.params;
        EnergyBreakdown {
            l1i: counters.l1i_accesses as f64 * p.l1i_access_pj,
            l1d: counters.l1d_accesses as f64 * p.l1d_access_pj,
            l2: counters.l2_accesses as f64 * p.l2_access_pj,
            directory: counters.directory_accesses as f64 * p.directory_access_pj,
            network_router: counters.router_flit_hops as f64 * p.router_flit_pj,
            network_link: counters.link_flit_hops as f64 * p.link_flit_pj,
            dram: counters.dram_accesses as f64 * p.dram_access_pj,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::new(EnergyParams::node_11nm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> EnergyCounters {
        EnergyCounters {
            l1i_accesses: 100,
            l1d_accesses: 50,
            l2_accesses: 10,
            directory_accesses: 10,
            router_flit_hops: 200,
            link_flit_hops: 200,
            dram_accesses: 2,
        }
    }

    #[test]
    fn evaluate_is_linear_in_counts() {
        let model = EnergyModel::default();
        let once = model.evaluate(&counters());
        let mut doubled = counters();
        doubled.merge(&counters());
        let twice = model.evaluate(&doubled);
        assert!((twice.total() - 2.0 * once.total()).abs() < 1e-9);
    }

    #[test]
    fn normalized_sums_to_one() {
        let b = EnergyModel::default().evaluate(&counters()).normalized();
        let sum: f64 = b.components().iter().map(|(_, v)| v).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_counters_normalize_to_zero() {
        let b = EnergyModel::default()
            .evaluate(&EnergyCounters::default())
            .normalized();
        assert_eq!(b.total(), 0.0);
        assert_eq!(b.network_share(), 0.0);
    }

    #[test]
    fn component_labels_match_figure_6_legend() {
        let labels: Vec<_> = EnergyBreakdown::default()
            .components()
            .iter()
            .map(|(l, _)| *l)
            .collect();
        assert_eq!(
            labels,
            vec![
                "L1-I Cache",
                "L1-D Cache",
                "L2 Cache",
                "Directory",
                "Network Router",
                "Network Link",
                "DRAM"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_params_rejected() {
        EnergyModel::new(EnergyParams {
            l1d_access_pj: -1.0,
            ..EnergyParams::node_11nm()
        });
    }

    #[test]
    fn network_share_computed() {
        let b = EnergyBreakdown {
            network_router: 3.0,
            network_link: 1.0,
            dram: 4.0,
            ..EnergyBreakdown::default()
        };
        assert!((b.network_share() - 0.5).abs() < 1e-12);
    }
}
