//! Deterministic synthetic graph generators.
//!
//! CRONO bundles its graph generators with the benchmarks (§IV-F: "CRONO's
//! graph generators are included within the programs ... generated graphs
//! are converted to an adjacency list representation"). The paper's real
//! SNAP inputs are not redistributable with this crate, so each input class
//! of Table III has a generator that reproduces its topology at the same
//! scale; the loaders in [`crate::io`] accept real SNAP files unchanged.
//!
//! All generators are pure functions of their parameters and a `u64` seed.

mod cities;
mod preferential;
mod rmat;
mod road;
mod uniform;

pub mod catalog;

pub use cities::{tsp_cities, TspInstance};
pub use preferential::preferential_attachment;
pub use rmat::{rmat, RmatParams};
pub use road::road_network;
pub use uniform::uniform_random;
