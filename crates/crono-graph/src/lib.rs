//! Graph substrate for the CRONO benchmark suite.
//!
//! CRONO (IISWC 2015) evaluates ten multithreaded graph benchmarks on both
//! synthetic and real-world graphs (Table III of the paper). This crate
//! provides everything those benchmarks need from a graph library:
//!
//! * [`CsrGraph`] — a compressed-sparse-row adjacency-list graph with edge
//!   weights, the representation used by all benchmarks except APSP and
//!   betweenness centrality (the paper: "generated graphs are converted to
//!   an adjacency list representation").
//! * [`AdjacencyMatrix`] — the dense representation the paper uses for
//!   APSP and BETW_CENT on small (≤ 32 K vertex) graphs.
//! * [`gen`] — deterministic synthetic generators reproducing each input
//!   class of Table III: GTgraph-style uniform sparse graphs, R-MAT
//!   power-law graphs standing in for the SNAP Facebook social network,
//!   grid-based road networks standing in for roadNet-TX/PA/CA, and
//!   Euclidean city instances for TSP.
//! * [`io`] — plain edge-list and DIMACS `.gr` readers/writers so real
//!   SNAP datasets can be dropped in unchanged when available.
//! * [`dsu`], [`stats`] — union-find and topology statistics used by the
//!   test-suite oracles and by the characterization harness.
//!
//! # Examples
//!
//! ```
//! use crono_graph::gen::uniform_random;
//!
//! let g = uniform_random(1_000, 8_000, 64, 7);
//! assert_eq!(g.num_vertices(), 1_000);
//! // Undirected: every generated edge appears in both directions.
//! assert_eq!(g.num_directed_edges() % 2, 0);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compressed;
mod csr;
mod edgelist;
mod error;
mod matrix;
mod pair_set;
mod view;

pub mod dsu;
pub mod gen;
pub mod io;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod stream;

pub use compressed::{CompressedCsr, CompressedPacker};
pub use csr::{CsrGraph, CsrPacker, Neighbors};
pub use edgelist::EdgeList;
pub use error::GraphError;
pub use matrix::AdjacencyMatrix;
pub use view::{view_fingerprint, AdjacencyPacker, AdjacencyView, Packable};

/// Vertex identifier. CRONO's largest evaluated graph has 4 M vertices, so
/// `u32` is ample and keeps the CSR arrays (and the simulated cache
/// footprint) compact, matching the C suite's use of `int`.
pub type VertexId = u32;

/// Non-negative edge weight, as required by Dijkstra-based benchmarks.
pub type Weight = u32;
