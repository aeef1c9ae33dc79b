//! The ten CRONO benchmarks (§III of the paper), each implemented twice:
//! a sequential reference and a parallel version using the exact
//! parallelization strategy of Table I. All kernels are generic over
//! [`crono_runtime::ThreadCtx`], so one implementation runs on the real
//! machine (native backend) *and* on the Graphite-style simulator.
//!
//! | Module | Identifier | Parallelization (Table I) |
//! |---|---|---|
//! | [`sssp`] | `SSSP_DIJK` | Graph division over pareto fronts |
//! | [`apsp`] | `APSP` | Vertex capture |
//! | [`betweenness`] | `BETW_CENT` | Vertex capture & outer loop |
//! | [`bfs`] | `BFS` | Graph division (level-synchronous) |
//! | [`dfs`] | `DFS` | Branch and bound (branch capture) |
//! | [`tsp`] | `TSP` | Branch and bound |
//! | [`connected`] | `CONN_COMP` | Graph division |
//! | [`triangle`] | `TRI_CNT` | Vertex capture & graph division |
//! | [`pagerank`] | `PageRank` | Vertex capture & graph division |
//! | [`community`] | `COMM` | Vertex capture & graph division |
//!
//! # Examples
//!
//! ```
//! use crono_algos::{bfs, sssp};
//! use crono_graph::gen::uniform_random;
//! use crono_runtime::NativeMachine;
//!
//! let graph = uniform_random(512, 2_048, 32, 7);
//! let machine = NativeMachine::new(4);
//!
//! let b = bfs::parallel(&machine, &graph, 0);
//! assert_eq!(b.output.reachable, 512);
//!
//! let s = sssp::parallel(&machine, &graph, 0);
//! assert_eq!(s.output.dist[0], 0);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frontier;
mod graph_view;

pub mod apsp;
pub mod betweenness;
pub mod bfs;
pub mod community;
pub mod connected;
pub mod costs;
pub mod dfs;
pub mod pagerank;
pub mod scale;
pub mod sssp;
pub mod triangle;
pub mod tsp;

pub use graph_view::SharedGraph;

use crono_runtime::RunReport;

/// A benchmark's algorithmic output plus the backend's run report.
#[derive(Debug, Clone)]
pub struct AlgoOutcome<T> {
    /// The algorithm's result (distances, labels, counts, …).
    pub output: T,
    /// Timing/characterization report from the backend.
    pub report: RunReport,
}

/// The ten CRONO benchmarks, with the paper's identifiers and Table I
/// parallelization strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Single-source shortest path, Dijkstra.
    SsspDijk,
    /// All-pairs shortest path.
    Apsp,
    /// Betweenness centrality.
    BetwCent,
    /// Breadth-first search.
    Bfs,
    /// Depth-first search.
    Dfs,
    /// Traveling salesman problem.
    Tsp,
    /// Connected components.
    ConnComp,
    /// Triangle counting.
    TriCnt,
    /// PageRank.
    PageRank,
    /// Community detection (Louvain).
    Comm,
}

impl Benchmark {
    /// All benchmarks in the paper's Table I order.
    pub const ALL: [Benchmark; 10] = [
        Benchmark::SsspDijk,
        Benchmark::Apsp,
        Benchmark::BetwCent,
        Benchmark::Bfs,
        Benchmark::Dfs,
        Benchmark::Tsp,
        Benchmark::ConnComp,
        Benchmark::TriCnt,
        Benchmark::PageRank,
        Benchmark::Comm,
    ];

    /// The identifier used throughout the paper's tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            Benchmark::SsspDijk => "SSSP_DIJK",
            Benchmark::Apsp => "APSP",
            Benchmark::BetwCent => "BETW_CENT",
            Benchmark::Bfs => "BFS",
            Benchmark::Dfs => "DFS",
            Benchmark::Tsp => "TSP",
            Benchmark::ConnComp => "CONN_COMP",
            Benchmark::TriCnt => "TRI_CNT",
            Benchmark::PageRank => "PageRank",
            Benchmark::Comm => "COMM",
        }
    }

    /// Looks a benchmark up by its [`Benchmark::label`],
    /// case-insensitively (so CLI users can write `bfs` or `BFS`).
    ///
    /// # Examples
    ///
    /// ```
    /// use crono_algos::Benchmark;
    ///
    /// assert_eq!(Benchmark::by_label("bfs"), Some(Benchmark::Bfs));
    /// assert_eq!(Benchmark::by_label("PageRank"), Some(Benchmark::PageRank));
    /// assert_eq!(Benchmark::by_label("nope"), None);
    /// ```
    pub fn by_label(label: &str) -> Option<Benchmark> {
        Benchmark::ALL
            .into_iter()
            .find(|b| b.label().eq_ignore_ascii_case(label))
    }

    /// The parallelization strategy from Table I.
    pub fn strategy(self) -> &'static str {
        match self {
            Benchmark::SsspDijk => "Graph Division",
            Benchmark::Apsp => "Vertex Capture",
            Benchmark::BetwCent => "Vertex Capture & Outer Loop",
            Benchmark::Bfs => "Graph Division",
            Benchmark::Dfs => "Branch and Bound",
            Benchmark::Tsp => "Branch and Bound",
            Benchmark::ConnComp => "Graph Division",
            Benchmark::TriCnt => "Vertex Capture & Graph Division",
            Benchmark::PageRank => "Vertex Capture & Graph Division",
            Benchmark::Comm => "Vertex Capture & Graph Division",
        }
    }

    /// The paper category (§III): path planning, search, or graph
    /// processing.
    pub fn category(self) -> &'static str {
        match self {
            Benchmark::SsspDijk | Benchmark::Apsp | Benchmark::BetwCent => "Path Planning",
            Benchmark::Bfs | Benchmark::Dfs | Benchmark::Tsp => "Search",
            _ => "Graph Processing",
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Opt-in optimized kernel variants (PR 3's `--ablation` flag).
///
/// The paper-faithful kernels stay the default everywhere; an ablation
/// selects a faster variant of the same algorithm so the suite can
/// characterize the optimization the way the paper characterizes
/// everything else. Benchmarks an ablation does not apply to run their
/// default kernel unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ablation {
    /// Word-packed `SharedBitmap` frontiers (GAP-style) for the BFS and
    /// SSSP frontier scans instead of byte arrays.
    FrontierRepr,
    /// Lock-free CAS-loop rank accumulation for PageRank instead of
    /// striped per-vertex locks.
    PagerankUpdate,
    /// Work-stealing task distribution (Chase–Lev per-thread deques,
    /// seeded victim order) for the task-parallel kernels instead of a
    /// shared capture counter (APSP, BETW_CENT) or a lock-guarded
    /// global branch stack (DFS).
    TaskSteal,
    /// Lock-free branch-and-bound publication for TSP: `fetch_min` on
    /// the global bound plus a seqlock-guarded tour, eliminating the
    /// paper's atomic bound lock entirely.
    LockfreeBound,
    /// Direction-optimizing BFS (Beamer et al.): sliding-queue push
    /// levels that switch to bitmap pull levels on the GAP heuristic
    /// once the frontier's scouted edges dominate the unexplored rest.
    DiropBfs,
    /// Delta-stepping SSSP (Meyer & Sanders): bucketed sliding-queue
    /// frontiers with a precomputed light/heavy edge split instead of
    /// full-array pareto-front scans.
    DeltaSssp,
    /// Afforest connected components (Sutton et al.): lock-free
    /// min-hooking union-find with neighbor-round sampling that skips
    /// the most frequent component, instead of iterative label
    /// propagation.
    AfforestCc,
}

impl Ablation {
    /// Every ablation, in CLI-listing order.
    pub const ALL: [Ablation; 7] = [
        Ablation::FrontierRepr,
        Ablation::PagerankUpdate,
        Ablation::TaskSteal,
        Ablation::LockfreeBound,
        Ablation::DiropBfs,
        Ablation::DeltaSssp,
        Ablation::AfforestCc,
    ];

    /// The CLI / TSV key of this ablation.
    pub fn name(self) -> &'static str {
        match self {
            Ablation::FrontierRepr => "frontier_repr",
            Ablation::PagerankUpdate => "pagerank_update",
            Ablation::TaskSteal => "task_steal",
            Ablation::LockfreeBound => "lockfree_bound",
            Ablation::DiropBfs => "dirop_bfs",
            Ablation::DeltaSssp => "delta_sssp",
            Ablation::AfforestCc => "afforest_cc",
        }
    }

    /// Looks an ablation up by [`Ablation::name`], case-insensitively.
    ///
    /// # Examples
    ///
    /// ```
    /// use crono_algos::Ablation;
    ///
    /// assert_eq!(Ablation::by_name("frontier_repr"), Some(Ablation::FrontierRepr));
    /// assert_eq!(Ablation::by_name("nope"), None);
    /// ```
    pub fn by_name(name: &str) -> Option<Ablation> {
        Ablation::ALL
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(name))
    }

    /// The benchmarks whose kernel this ablation replaces.
    pub fn benchmarks(self) -> &'static [Benchmark] {
        match self {
            Ablation::FrontierRepr => &[Benchmark::Bfs, Benchmark::SsspDijk],
            Ablation::PagerankUpdate => &[Benchmark::PageRank],
            Ablation::TaskSteal => {
                &[Benchmark::Apsp, Benchmark::BetwCent, Benchmark::Dfs]
            }
            Ablation::LockfreeBound => &[Benchmark::Tsp],
            Ablation::DiropBfs => &[Benchmark::Bfs],
            Ablation::DeltaSssp => &[Benchmark::SsspDijk],
            Ablation::AfforestCc => &[Benchmark::ConnComp],
        }
    }

    /// Whether this ablation changes `bench`'s kernel.
    pub fn applies_to(self, bench: Benchmark) -> bool {
        self.benchmarks().contains(&bench)
    }
}

impl std::fmt::Display for Ablation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_identifiers() {
        let labels: Vec<_> = Benchmark::ALL.iter().map(|b| b.label()).collect();
        assert_eq!(
            labels,
            vec![
                "SSSP_DIJK",
                "APSP",
                "BETW_CENT",
                "BFS",
                "DFS",
                "TSP",
                "CONN_COMP",
                "TRI_CNT",
                "PageRank",
                "COMM"
            ]
        );
    }

    #[test]
    fn categories_partition_the_suite() {
        let path: Vec<_> = Benchmark::ALL
            .iter()
            .filter(|b| b.category() == "Path Planning")
            .collect();
        let search: Vec<_> = Benchmark::ALL
            .iter()
            .filter(|b| b.category() == "Search")
            .collect();
        assert_eq!(path.len(), 3);
        assert_eq!(search.len(), 3);
    }
}
