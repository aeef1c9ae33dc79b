//! A Graphite-style many-core timing simulator for the CRONO benchmarks.
//!
//! CRONO (IISWC 2015) characterizes its benchmarks on the Graphite
//! simulator configured as a futuristic 256-core NoC-based multicore
//! (Table II). This crate reimplements that machine model from scratch:
//!
//! * **Direct execution with lax synchronization** — simulated threads run
//!   on host threads with independent cycle clocks, exactly Graphite's
//!   methodology ("Graphite relaxes cycle accuracy and uses multithreading
//!   for increased performance", §IV-B). Benchmarks execute for real; the
//!   simulator observes their access stream through the
//!   [`crono_runtime::ThreadCtx`] hooks.
//! * **Memory hierarchy** — per-core private L1-I/L1-D, a shared NUCA L2
//!   (one inclusive slice per core, line home = hash of address), an
//!   invalidation-based MESI directory with ACKWise-4 limited pointers,
//!   and 8 bandwidth-limited DRAM controllers.
//! * **Interconnect** — an electrical 2-D mesh with XY routing, 2-cycle
//!   hops, 64-bit flits, and link-only contention.
//! * **Cores** — single-issue in-order (default) and out-of-order
//!   (ROB 168 / LQ 64 / SQ 48) models; the OOO core hides miss latency in
//!   a bounded outstanding-miss window but cannot hide atomic RMWs.
//! * **Statistics** — completion time split into the paper's six §IV-D
//!   components, L1 misses classified cold/capacity/sharing, and the raw
//!   event counts the `crono-energy` model consumes.
//!
//! # Examples
//!
//! ```
//! use crono_sim::{SimConfig, SimMachine};
//! use crono_runtime::{Machine, SharedU32s, ThreadCtx};
//!
//! // Four threads hammer one shared counter: the line ping-pongs.
//! let machine = SimMachine::new(SimConfig::tiny(16), 4);
//! let counter = SharedU32s::new(1);
//! let outcome = machine.run(|ctx| {
//!     for _ in 0..8 {
//!         counter.fetch_add(ctx, 0, 1);
//!         ctx.barrier();
//!     }
//! });
//! assert_eq!(counter.get_plain(0), 32);
//! assert!(outcome.report.misses.sharing_misses > 0);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod dram;
mod fault;
mod inbox;
mod l1;
mod l2;
mod machine;
mod noc;
mod sequencer;
mod sharer;

pub use cache::SetAssocCache;
pub use config::{CacheConfig, CoreModel, DramConfig, MeshConfig, RoutingPolicy, SimConfig};
pub use dram::{Dram, DramAccess};
pub use fault::{DeadCore, DeadDramCtrl, DeadLink, EccOutcome, FaultPlan, FaultPlanError, LinkDir};
pub use l1::{L1Cache, L1Lookup, L1State, MissClass};
pub use l2::{home_of, DirEntry, HomeLine, L2Slice, VictimInfo, HOME_EPOCH_CYCLES};
pub use machine::{SimCtx, SimMachine};
pub use noc::{Mesh, RouteError, Traversal};
pub use sharer::SharerSet;
