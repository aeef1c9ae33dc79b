//! The on-chip interconnect: an electrical 2-D mesh with XY dimension-
//! ordered routing, per Table II. Hop latency covers one router plus one
//! link; contention is modeled on links only ("infinite input buffers").
//!
//! Because simulated thread clocks advance independently (Graphite's lax
//! synchronization), contention cannot be modeled with absolute
//! reservations — a thread simulated far ahead would poison every link
//! for threads behind it. Instead each link books flits in fixed-size
//! *epochs* of simulated time, one [`AtomicEpochTally`] per (link, epoch)
//! slot: a message pays queueing delay only when its own epoch's
//! utilization exceeds the link's capacity (1 flit/cycle), which is
//! skew-tolerant and converges to the same utilization-driven delays.

use crate::config::{MeshConfig, RoutingPolicy};
use crate::fault::{DeadLink, LinkDir};
use crono_runtime::AtomicEpochTally;
use std::sync::atomic::{AtomicU64, Ordering};

/// Simulated cycles per contention-accounting epoch.
pub const EPOCH_CYCLES: u64 = 128;
/// Ring slots per link (tolerates `EPOCH_CYCLES × EPOCH_SLOTS` cycles of
/// clock skew between threads).
pub const EPOCH_SLOTS: usize = 64;
/// Queueing delay cap per hop (bounds pathological overload).
const MAX_HOP_DELAY: u64 = 8 * EPOCH_CYCLES;

/// Timing and traffic for one message traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traversal {
    /// Cycle at which the tail flit arrives at the destination.
    pub arrival: u64,
    /// Flit-hops consumed (flits × hops), for router/link energy.
    pub flit_hops: u64,
    /// Hops beyond the Manhattan distance, paid to route around a dead
    /// link (0 on a healthy mesh or when the alternate dimension order
    /// sufficed).
    pub detour_hops: u64,
    /// Whether this message had to deviate from its preferred route to
    /// avoid a dead link (dimension-order flip or sidestep).
    pub detoured: bool,
}

/// A message that cannot be delivered: the active routing policy has no
/// path from `from` to `to` that avoids the dead link. Only XY
/// dimension-ordered routing (which cannot adapt) or degenerate meshes
/// (a single row/column with its only link dead) produce this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteError {
    /// Source core of the undeliverable message.
    pub from: usize,
    /// Destination core.
    pub to: usize,
    /// The dead link the path cannot avoid.
    pub dead: DeadLink,
    /// The routing policy that failed to find a path.
    pub policy: RoutingPolicy,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let policy = match self.policy {
            RoutingPolicy::XyDimensionOrder => "xy dimension-ordered routing cannot avoid",
            RoutingPolicy::O1Turn => "o1turn routing found no detour around",
        };
        write!(
            f,
            "unroutable message core {} -> core {}: {} the dead {} link at router {}",
            self.from,
            self.to,
            policy,
            self.dead.dir.name(),
            self.dead.router
        )
    }
}

impl std::error::Error for RouteError {}

/// The mesh interconnect. Link utilization counters are atomics, so any
/// simulated core can route messages concurrently.
#[derive(Debug)]
pub struct Mesh {
    cols: usize,
    rows: usize,
    config: MeshConfig,
    /// `slots[(dir * cores + core) * EPOCH_SLOTS + (epoch % EPOCH_SLOTS)]`
    /// tallies the flits booked in `epoch` on the outgoing link of `core`
    /// in direction `dir`. Directions: 0=east, 1=west, 2=south, 3=north.
    slots: Vec<AtomicEpochTally>,
    /// Per-core totals over all destinations, for analytic broadcast
    /// timing/traffic: `(sum of hops, max hops)`.
    hop_totals: Vec<(u64, u64)>,
    /// Message sequence counter (entropy for O1TURN route selection).
    msg_seq: AtomicU64,
    /// Permanently failed link, if armed (active once the message's
    /// departure cycle reaches its `at_cycle`).
    dead_link: Option<DeadLink>,
}

const EAST: usize = 0;
const WEST: usize = 1;
const SOUTH: usize = 2;
const NORTH: usize = 3;

fn dir_index(dir: LinkDir) -> usize {
    match dir {
        LinkDir::East => EAST,
        LinkDir::West => WEST,
        LinkDir::South => SOUTH,
        LinkDir::North => NORTH,
    }
}

impl Mesh {
    /// Builds a mesh for `num_cores` cores, as square as possible.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores == 0`.
    pub fn new(num_cores: usize, config: MeshConfig) -> Self {
        assert!(num_cores > 0, "mesh needs at least one core");
        let cols = (num_cores as f64).sqrt().ceil() as usize;
        let rows = num_cores.div_ceil(cols);
        let slots = (0..4 * cols * rows * EPOCH_SLOTS)
            .map(|_| AtomicEpochTally::default())
            .collect();
        let mut mesh = Mesh {
            cols,
            rows,
            config,
            slots,
            hop_totals: Vec::new(),
            msg_seq: AtomicU64::new(0),
            dead_link: None,
        };
        mesh.hop_totals = (0..num_cores)
            .map(|from| {
                let mut sum = 0;
                let mut max = 0;
                for to in 0..num_cores {
                    let h = mesh.hops(from, to);
                    sum += h;
                    max = max.max(h);
                }
                (sum, max)
            })
            .collect();
        mesh
    }

    /// Mesh coordinates of `core`.
    pub fn position(&self, core: usize) -> (usize, usize) {
        (core / self.cols, core % self.cols)
    }

    /// Manhattan hop count between two cores.
    pub fn hops(&self, from: usize, to: usize) -> u64 {
        let (fr, fc) = self.position(from);
        let (tr, tc) = self.position(to);
        (fr.abs_diff(tr) + fc.abs_diff(tc)) as u64
    }

    /// Mesh dimensions `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `(sum, max)` of hop distances from `core` to every core — the
    /// analytic cost of an ACKWise broadcast originating there.
    pub fn broadcast_hops(&self, core: usize) -> (u64, u64) {
        self.hop_totals[core]
    }

    /// Arms (or clears) the permanent dead-link fault. Call before the
    /// mesh is shared between threads.
    pub fn set_dead_link(&mut self, dead: Option<DeadLink>) {
        self.dead_link = dead;
    }

    /// Walks the dimension-ordered path from `from` to `to` (column hops
    /// first unless `y_first`), invoking `f(router, dir)` per hop. The
    /// single route walker: charging, dead-link checking, and detour
    /// evaluation all see exactly the same hop sequence.
    fn for_each_hop(&self, from: usize, to: usize, y_first: bool, mut f: impl FnMut(usize, usize)) {
        let (fr, fc) = self.position(from);
        let (tr, tc) = self.position(to);
        let (mut r, mut c) = (fr, fc);
        let cols_leg = |r: usize, c: &mut usize, f: &mut dyn FnMut(usize, usize)| {
            while *c != tc {
                let dir = if *c < tc { EAST } else { WEST };
                f(r * self.cols + *c, dir);
                *c = if *c < tc { *c + 1 } else { *c - 1 };
            }
        };
        let rows_leg = |r: &mut usize, c: usize, f: &mut dyn FnMut(usize, usize)| {
            while *r != tr {
                let dir = if *r < tr { SOUTH } else { NORTH };
                f(*r * self.cols + c, dir);
                *r = if *r < tr { *r + 1 } else { *r - 1 };
            }
        };
        if y_first {
            rows_leg(&mut r, c, &mut f);
            cols_leg(r, &mut c, &mut f);
        } else {
            cols_leg(r, &mut c, &mut f);
            rows_leg(&mut r, c, &mut f);
        }
    }

    /// Charges every hop of the dimension-ordered walk starting at cycle
    /// `t0`; returns `(tail_arrival_at_router, hops)`.
    fn charge_walk(
        &self,
        from: usize,
        to: usize,
        t0: u64,
        flits: u64,
        y_first: bool,
    ) -> (u64, u64) {
        let mut t = t0;
        let mut hops = 0u64;
        self.for_each_hop(from, to, y_first, |router, dir| {
            t = self.hop(router, dir, t, flits);
            hops += 1;
        });
        (t, hops)
    }

    /// Whether the dimension-ordered path crosses the (router, dir) link.
    fn path_crosses(
        &self,
        from: usize,
        to: usize,
        y_first: bool,
        router: usize,
        dir: usize,
    ) -> bool {
        let mut crosses = false;
        self.for_each_hop(from, to, y_first, |r, d| {
            if r == router && d == dir {
                crosses = true;
            }
        });
        crosses
    }

    fn charge_path(
        &self,
        from: usize,
        to: usize,
        depart: u64,
        flits: u64,
        y_first: bool,
    ) -> Traversal {
        let (t, hops) = self.charge_walk(from, to, depart, flits, y_first);
        Traversal {
            arrival: t + (flits - 1),
            flit_hops: hops * flits,
            detour_hops: 0,
            detoured: false,
        }
    }

    /// Routes a `flits`-flit message from `from` to `to`, departing at
    /// cycle `depart`. XY routing: all column (east/west) hops first, then
    /// row (south/north) hops; O1TURN alternates X-first/Y-first per
    /// message. Each hop charges the link's epoch utilization; the tail
    /// adds `flits − 1` serialization cycles at the destination.
    ///
    /// With a dead link armed and active, O1TURN re-routes around it
    /// (dimension-order flip, or a 2-hop sidestep for straight-line
    /// paths); XY cannot adapt and the message is undeliverable. Whether
    /// the link is dead is judged at the departure cycle — a pure
    /// function of the message's coordinates, like every fault decision.
    ///
    /// # Errors
    ///
    /// [`RouteError`] when no policy-legal path avoids the active dead
    /// link.
    pub fn try_traverse(
        &self,
        from: usize,
        to: usize,
        depart: u64,
        flits: u64,
    ) -> Result<Traversal, RouteError> {
        if from == to {
            return Ok(Traversal {
                arrival: depart,
                flit_hops: 0,
                detour_hops: 0,
                detoured: false,
            });
        }
        // O1TURN: route half the messages Y-first (per-message sequence
        // number as entropy, so back-to-back messages alternate paths).
        let y_first = match self.config.routing {
            RoutingPolicy::XyDimensionOrder => false,
            RoutingPolicy::O1Turn => self.msg_seq.fetch_add(1, Ordering::Relaxed) & 1 != 0,
        };
        let dead = match self.dead_link {
            Some(dl) if depart >= dl.at_cycle => Some(dl),
            _ => None,
        };
        let Some(dl) = dead else {
            return Ok(self.charge_path(from, to, depart, flits, y_first));
        };
        let (dr, dd) = (dl.router, dir_index(dl.dir));
        let route_error = || RouteError {
            from,
            to,
            dead: dl,
            policy: self.config.routing,
        };
        if !self.path_crosses(from, to, y_first, dr, dd) {
            // Preferred dimension order already avoids the dead link.
            return Ok(self.charge_path(from, to, depart, flits, y_first));
        }
        if self.config.routing == RoutingPolicy::XyDimensionOrder {
            // XY is deterministic dimension order: no legal alternate
            // path exists within the policy.
            return Err(route_error());
        }
        if !self.path_crosses(from, to, !y_first, dr, dd) {
            // The other turn order avoids it: same Manhattan distance,
            // different links.
            let mut t = self.charge_path(from, to, depart, flits, !y_first);
            t.detoured = true;
            return Ok(t);
        }
        // Both dimension orders are blocked — the path is a straight
        // line through the dead link. Sidestep: one hop to an adjacent
        // router, then dimension-ordered from there (+2 hops total).
        let (fr, fc) = self.position(from);
        let side_candidates = [
            (fr.wrapping_add(1), fc, SOUTH),
            (fr.wrapping_sub(1), fc, NORTH),
            (fr, fc.wrapping_add(1), EAST),
            (fr, fc.wrapping_sub(1), WEST),
        ];
        for (vr, vc, out_dir) in side_candidates {
            if vr >= self.rows || vc >= self.cols {
                continue;
            }
            if from == dr && out_dir == dd {
                continue; // the sidestep hop itself is the dead link
            }
            let via = vr * self.cols + vc;
            for leg_y_first in [y_first, !y_first] {
                if self.path_crosses(via, to, leg_y_first, dr, dd) {
                    continue;
                }
                let t1 = self.hop(from, out_dir, depart, flits);
                let (t2, leg_hops) = self.charge_walk(via, to, t1, flits, leg_y_first);
                let hops = 1 + leg_hops;
                return Ok(Traversal {
                    arrival: t2 + (flits - 1),
                    flit_hops: hops * flits,
                    detour_hops: hops - self.hops(from, to),
                    detoured: true,
                });
            }
        }
        Err(route_error())
    }

    /// Uncontended latency for a `flits`-flit message over `hops` hops.
    pub fn ideal_latency(&self, hops: u64, flits: u64) -> u64 {
        if hops == 0 {
            0
        } else {
            hops * self.config.hop_latency + (flits - 1)
        }
    }

    fn hop(&self, core: usize, dir: usize, t: u64, flits: u64) -> u64 {
        let delay = if self.config.link_contention {
            let epoch = t / EPOCH_CYCLES;
            let base = (dir * self.cols * self.rows + core) * EPOCH_SLOTS;
            let occupied = self.slots[base + (epoch as usize % EPOCH_SLOTS)].book(epoch, flits);
            // Link capacity is 1 flit/cycle: overload in this epoch queues.
            (occupied + flits)
                .saturating_sub(EPOCH_CYCLES)
                .min(MAX_HOP_DELAY)
        } else {
            0
        };
        t + self.config.hop_latency + delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(n: usize, contention: bool) -> Mesh {
        Mesh::new(
            n,
            MeshConfig {
                hop_latency: 2,
                flit_bits: 64,
                link_contention: contention,
                routing: RoutingPolicy::XyDimensionOrder,
            },
        )
    }

    #[test]
    fn square_dimensions() {
        assert_eq!(mesh(256, true).dims(), (16, 16));
        assert_eq!(mesh(16, true).dims(), (4, 4));
        assert_eq!(mesh(5, true).dims(), (2, 3));
    }

    #[test]
    fn local_delivery_is_free() {
        let m = mesh(16, true);
        let t = m.try_traverse(3, 3, 100, 9).unwrap();
        assert_eq!(t.arrival, 100);
        assert_eq!(t.flit_hops, 0);
    }

    #[test]
    fn uncontended_latency_matches_ideal() {
        let m = mesh(16, true);
        // core 0 = (0,0), core 15 = (3,3): 6 hops.
        let t = m.try_traverse(0, 15, 0, 1).unwrap();
        assert_eq!(m.hops(0, 15), 6);
        assert_eq!(t.arrival, m.ideal_latency(6, 1));
        assert_eq!(t.flit_hops, 6);

        // 9-flit data message: serialization adds flits-1.
        let t = m.try_traverse(0, 15, 0, 9).unwrap();
        assert_eq!(t.arrival, 6 * 2 + 8);
    }

    #[test]
    fn light_load_sees_no_contention() {
        let m = mesh(16, true);
        let a = m.try_traverse(0, 1, 0, 9).unwrap();
        let b = m.try_traverse(0, 1, 0, 9).unwrap();
        assert_eq!(a.arrival, b.arrival, "two messages fit one epoch");
    }

    #[test]
    fn saturating_an_epoch_queues_messages() {
        let m = mesh(16, true);
        let ideal = m.try_traverse(4, 5, 100_000, 9).unwrap().arrival; // warm a far epoch
        let mut last = 0;
        for _ in 0..40 {
            last = m.try_traverse(0, 1, 0, 9).unwrap().arrival;
        }
        // 40 × 9 = 360 flits into a 128-cycle epoch: the tail queues.
        assert!(
            last > ideal - 100_000 + 100,
            "saturated link must delay: last={last}"
        );
    }

    #[test]
    fn contention_is_per_epoch() {
        let m = mesh(16, true);
        for _ in 0..40 {
            m.try_traverse(0, 1, 0, 9).unwrap();
        }
        // A message in a different epoch is unaffected.
        let far = m.try_traverse(0, 1, 10 * EPOCH_CYCLES, 9).unwrap();
        assert_eq!(far.arrival, 10 * EPOCH_CYCLES + 2 + 8);
    }

    #[test]
    fn skewed_clocks_do_not_poison_links() {
        let m = mesh(16, true);
        // A thread far ahead in simulated time hammers the link...
        for _ in 0..100 {
            m.try_traverse(0, 1, 1_000_000, 9).unwrap();
        }
        // ...but a thread at an earlier simulated time is unaffected.
        let early = m.try_traverse(0, 1, 0, 9).unwrap();
        assert_eq!(early.arrival, 2 + 8);
    }

    #[test]
    fn no_contention_mode_ignores_load() {
        let m = mesh(16, false);
        for _ in 0..100 {
            m.try_traverse(0, 1, 0, 9).unwrap();
        }
        assert_eq!(m.try_traverse(0, 1, 0, 9).unwrap().arrival, 2 + 8);
    }

    #[test]
    fn xy_routing_is_deterministic_distance() {
        let m = mesh(64, false);
        for from in [0usize, 9, 17, 63] {
            for to in [0usize, 7, 56, 63] {
                let t = m.try_traverse(from, to, 0, 1).unwrap();
                assert_eq!(t.flit_hops, m.hops(from, to));
            }
        }
    }

    #[test]
    fn delay_is_capped() {
        let m = mesh(16, true);
        for _ in 0..10_000 {
            m.try_traverse(0, 1, 0, 9).unwrap();
        }
        let worst = m.try_traverse(0, 1, 0, 9).unwrap();
        assert!(worst.arrival <= 2 + 8 + MAX_HOP_DELAY);
    }

    fn mesh_with_dead(n: usize, routing: RoutingPolicy, dead: DeadLink) -> Mesh {
        let mut m = Mesh::new(
            n,
            MeshConfig {
                hop_latency: 2,
                flit_bits: 64,
                link_contention: false,
                routing,
            },
        );
        m.set_dead_link(Some(dead));
        m
    }

    #[test]
    fn xy_on_dead_link_is_a_typed_error() {
        // 4x4 mesh; the east link of router 5 (row 1, col 1) dies at 0.
        let dead = DeadLink {
            router: 5,
            dir: LinkDir::East,
            at_cycle: 0,
        };
        let m = mesh_with_dead(16, RoutingPolicy::XyDimensionOrder, dead);
        // Core 4 -> core 7 is a same-row path through the dead link.
        let err = m.try_traverse(4, 7, 0, 1).expect_err("xy cannot avoid");
        assert_eq!(err.from, 4);
        assert_eq!(err.to, 7);
        assert_eq!(err.dead, dead);
        assert!(err.to_string().contains("east link at router 5"), "{err}");
        // A path that never touches the link still routes.
        assert!(m.try_traverse(0, 12, 0, 1).is_ok());
    }

    #[test]
    fn xy_dead_link_before_activation_routes_normally() {
        let dead = DeadLink {
            router: 5,
            dir: LinkDir::East,
            at_cycle: 1_000,
        };
        let m = mesh_with_dead(16, RoutingPolicy::XyDimensionOrder, dead);
        let before = m.try_traverse(4, 7, 0, 1).expect("link alive at cycle 0");
        assert_eq!(before.flit_hops, 3);
        assert!(!before.detoured);
        assert!(m.try_traverse(4, 7, 1_000, 1).is_err(), "dead from 1000 on");
    }

    #[test]
    fn o1turn_flips_dimension_order_around_dead_link() {
        // Core 4 (1,0) -> core 6 (1,2): same-row... pick an L-shaped pair
        // instead: 4 (1,0) -> 10 (2,2). X-first crosses (1,1)-east; the
        // Y-first order goes south first and avoids it.
        let dead = DeadLink {
            router: 5,
            dir: LinkDir::East,
            at_cycle: 0,
        };
        let m = mesh_with_dead(16, RoutingPolicy::O1Turn, dead);
        for _ in 0..8 {
            let t = m.try_traverse(4, 10, 0, 1).expect("o1turn must detour");
            assert_eq!(t.flit_hops, 3, "order flip keeps Manhattan distance");
            assert_eq!(t.detour_hops, 0);
        }
    }

    #[test]
    fn o1turn_sidesteps_straight_line_through_dead_link() {
        let dead = DeadLink {
            router: 5,
            dir: LinkDir::East,
            at_cycle: 0,
        };
        let m = mesh_with_dead(16, RoutingPolicy::O1Turn, dead);
        // Core 4 -> core 7: row 1 straight line; both dimension orders
        // cross (1,1)-east, so the message sidesteps (+2 hops).
        let t = m.try_traverse(4, 7, 0, 1).expect("o1turn must sidestep");
        assert_eq!(m.hops(4, 7), 3);
        assert_eq!(t.flit_hops, 5, "sidestep pays 2 extra hops");
        assert_eq!(t.detour_hops, 2);
        assert!(t.detoured);
    }

    #[test]
    fn o1turn_single_row_mesh_with_dead_link_is_unroutable() {
        // 2 cores -> 1x2 or 2x1 mesh; its only link dead = unroutable.
        let m2 = Mesh::new(
            2,
            MeshConfig {
                hop_latency: 2,
                flit_bits: 64,
                link_contention: false,
                routing: RoutingPolicy::O1Turn,
            },
        );
        let (rows, cols) = m2.dims();
        assert_eq!(rows * cols, 2);
        let dir = if cols == 2 {
            LinkDir::East
        } else {
            LinkDir::South
        };
        let mut m2 = m2;
        m2.set_dead_link(Some(DeadLink {
            router: 0,
            dir,
            at_cycle: 0,
        }));
        assert!(m2.try_traverse(0, 1, 0, 1).is_err());
    }

    #[test]
    fn armed_but_inactive_dead_link_is_timing_invisible() {
        let healthy = mesh(16, true);
        let armed = {
            let mut m = Mesh::new(
                16,
                MeshConfig {
                    hop_latency: 2,
                    flit_bits: 64,
                    link_contention: true,
                    routing: RoutingPolicy::XyDimensionOrder,
                },
            );
            m.set_dead_link(Some(DeadLink {
                router: 5,
                dir: LinkDir::East,
                at_cycle: u64::MAX,
            }));
            m
        };
        for (from, to) in [(0usize, 15usize), (4, 7), (15, 0), (3, 12)] {
            for _ in 0..20 {
                let a = healthy.try_traverse(from, to, 64, 9).unwrap();
                let b = armed.try_traverse(from, to, 64, 9).unwrap();
                assert_eq!(a, b);
            }
        }
    }
}
