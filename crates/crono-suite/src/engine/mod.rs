//! The long-lived graph-query serving engine behind `crono serve` and
//! `crono bombard`.
//!
//! CRONO's sweeps answer *throughput* questions: run one kernel over the
//! whole graph, once, as fast as possible. A serving system asks the
//! complementary *latency* question: with an immutable graph resident in
//! memory, how fast can a pool of worker threads answer a stream of
//! point queries — "BFS from vertex `v`", "PageRank of `v`", "how
//! central is `v`"? [`ServeEngine`] is that system, built entirely from
//! pieces this repository already has:
//!
//! * **Reentrant kernels.** `crono_algos::bfs::run_seq` /
//!   `sssp::run_seq` are plain library calls taking any
//!   [`ThreadCtx`] — many queries run
//!   concurrently on one machine, each charging its own context.
//! * **Work-stealing dispatch.** Each batch becomes a fixed task set on
//!   a seeded [`TaskPool`] drained with [`TaskPool::take`], so a long
//!   BFS on one thread does not leave the other threads idle, and the
//!   survivors of a dead core (a permanent fault on the simulated
//!   backend) steal its queued plans instead of cancelling them.
//! * **Multi-source batching.** Deadline-free BFS queries that miss the
//!   cache are grouped up to [`bfs::MULTI_WIDTH`] per sweep and answered
//!   by `bfs::run_multi`, which shares one frontier walk across the
//!   group (the MS-BFS trick: one bit lane per source). Deadline-free
//!   SSSP misses batch into `sssp::run_multi_delta`: delta-stepping
//!   bucket walks with a distance lane per source, sharing the adjacency
//!   traffic the way the BFS sweep shares its frontier. A batch's SSSP
//!   misses are cut into sweeps of at least 8 lanes, so a batch of 16 or
//!   more keeps two cores busy, and every sweep walks the light and
//!   heavy halves of the graph split once per installed graph.
//! * **On-pool snapshots.** The PageRank and centrality snapshots the
//!   point-reads consume are built by parallel kernels on the engine's
//!   machine (`pagerank::parallel_pull`, `betweenness::parallel_pipelined`)
//!   the first time the installed graph needs them, and their
//!   deterministic build cost is amortized over the batch's queries of
//!   that kind — snapshot construction shows up in modeled p50/p99
//!   instead of being free host work.
//! * **Result cache.** Answers are memoized by `(kind, vertex)` with
//!   LRU eviction (a hit re-stamps the entry). The cache only ever holds
//!   answers on the installed graph: installing a new one clears it.
//! * **Admission control.** The submit queue is bounded; a full queue
//!   rejects with [`AdmitError::QueueFull`] instead of growing without
//!   bound, so a closed-loop client observes backpressure.
//! * **Deadlines.** A query's deadline is a *modeled-instruction*
//!   budget, enforced by wrapping the worker's context in
//!   [`BudgetCtx`]: an over-budget kernel
//!   observes cancellation at its next loop head and drains out, and
//!   the query reports [`QueryError::DeadlineExceeded`] while every
//!   other query in the batch completes normally. A whole-batch
//!   wall-clock timeout rides on the same machinery via
//!   [`RunOptions::timeout`].
//!
//! Latency is reported in **modeled time** (the executing context's
//! [`cycles`](crono_runtime::ThreadCtx::cycles) delta around the
//! kernel), not wall-clock time. On the native backend that is the
//! modeled-instruction count — a pure function of the work done,
//! independent of thread placement and steal timing, which is what
//! makes `crono bombard` byte-identical across runs and hosts. On the
//! simulated backend it is the per-thread cycle clock, which also
//! charges memory latency, NoC contention, and fault-induced detours —
//! the signal the degraded-mode sweep (`crono faults --degraded`)
//! exists to measure.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::time::Duration;

use crono_algos::{betweenness, bfs, costs, pagerank, sssp, SharedGraph};
use crono_graph::rng::splitmix64;
use crono_graph::{AdjacencyMatrix, CsrGraph, VertexId};
use crono_runtime::{BudgetCtx, Machine, RunOptions, TaskPool, ThreadCtx};

/// Modeled cost charged to a query answered straight from the result
/// cache (a couple of hash probes and a clone — no graph work).
pub const CACHE_HIT_COST: u64 = 64;

/// The kinds of point query the engine serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Hop distances from a source vertex (`bfs::run_seq`).
    Bfs,
    /// Weighted shortest-path distances from a source (`sssp::run_seq`).
    Sssp,
    /// One vertex's rank from a shared PageRank snapshot.
    PageRank,
    /// One vertex's betweenness from a shared centrality snapshot.
    Centrality,
}

impl QueryKind {
    /// Every kind, in workload-file order.
    pub const ALL: [QueryKind; 4] = [
        QueryKind::Bfs,
        QueryKind::Sssp,
        QueryKind::PageRank,
        QueryKind::Centrality,
    ];

    /// The workload-file keyword for this kind.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Bfs => "bfs",
            QueryKind::Sssp => "sssp",
            QueryKind::PageRank => "pagerank",
            QueryKind::Centrality => "centrality",
        }
    }

    /// Parses a workload-file keyword (the inverse of
    /// [`QueryKind::name`]).
    pub fn by_name(name: &str) -> Option<QueryKind> {
        QueryKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

impl fmt::Display for QueryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One point query: a kind, a subject vertex, and an optional deadline
/// in modeled instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// What to compute.
    pub kind: QueryKind,
    /// The source (BFS/SSSP) or subject (PageRank/centrality) vertex.
    pub vertex: VertexId,
    /// When set, the most modeled instructions the query may charge;
    /// beyond it the kernel is cancelled and the query reports
    /// [`QueryError::DeadlineExceeded`].
    pub deadline: Option<u64>,
}

impl Query {
    /// A deadline-free query.
    pub fn new(kind: QueryKind, vertex: VertexId) -> Self {
        Query {
            kind,
            vertex,
            deadline: None,
        }
    }
}

/// A successful query's payload. Traversal answers are summarized
/// (counts, extremes, and an order-independent checksum of the full
/// distance vector) so responses stay small while still pinning down
/// the exact result for equivalence tests.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// BFS from the query vertex.
    Bfs {
        /// Vertices reachable from the source (including it).
        reachable: usize,
        /// Number of distinct BFS levels (graph eccentricity + 1).
        levels: u32,
        /// [`checksum`] of the full hop-distance vector.
        checksum: u64,
    },
    /// SSSP (Dijkstra) from the query vertex.
    Sssp {
        /// Vertices with a finite shortest-path distance.
        reached: usize,
        /// Largest finite distance.
        max_dist: u32,
        /// [`checksum`] of the full distance vector.
        checksum: u64,
    },
    /// PageRank snapshot read.
    PageRank {
        /// The query vertex's rank.
        rank: f64,
        /// Iterations the snapshot was run for.
        iterations: u32,
    },
    /// Betweenness-centrality snapshot read.
    Centrality {
        /// Number of shortest paths the query vertex is interior to.
        centrality: u64,
    },
}

/// A served query: the answer plus how it was produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The payload.
    pub answer: Answer,
    /// Modeled instructions this query cost ([`CACHE_HIT_COST`] for
    /// cache hits; an even share of the sweep for batched BFS).
    pub cost: u64,
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// How many queries shared the graph sweep that produced this
    /// answer (1 unless multi-source batching kicked in).
    pub batched: usize,
}

/// Why a single query failed. Query errors are per-query: the rest of
/// the batch still completes, and the engine stays serviceable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The subject vertex does not exist in the current graph.
    SourceOutOfRange {
        /// The offending vertex.
        vertex: VertexId,
        /// Vertices in the installed graph.
        num_vertices: usize,
    },
    /// The query charged more than its deadline allowed and was
    /// cancelled mid-kernel.
    DeadlineExceeded {
        /// The configured budget (modeled instructions).
        budget: u64,
        /// What the query had charged when it drained out.
        cost: u64,
    },
    /// The query kind is not servable against the current graph (e.g.
    /// centrality beyond [`EngineOptions::centrality_max_vertices`]).
    Unsupported(String),
    /// The whole batch was cancelled (watchdog timeout or a worker
    /// panic) before this query produced an answer.
    Cancelled(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::SourceOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range (graph has {num_vertices} vertices)"
            ),
            QueryError::DeadlineExceeded { budget, cost } => write!(
                f,
                "deadline exceeded: charged {cost} of a {budget}-instruction budget"
            ),
            QueryError::Unsupported(why) => write!(f, "unsupported query: {why}"),
            QueryError::Cancelled(why) => write!(f, "batch cancelled: {why}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Why a query was refused at the door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The bounded submit queue is full — the client must back off (or
    /// drain a batch) before submitting more.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::QueueFull { capacity } => {
                write!(f, "submit queue full (capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for AdmitError {}

/// Tunables for a [`ServeEngine`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Most queries drained per [`ServeEngine::run_batch`] call.
    pub batch_max: usize,
    /// Bounded submit-queue capacity (admission control).
    pub queue_capacity: usize,
    /// Result-cache entries kept (LRU eviction); 0 disables caching.
    pub cache_capacity: usize,
    /// Most sources per multi-source SSSP sweep (clamped to
    /// [`sssp::MULTI_WIDTH`]); 1 disables batching and answers every
    /// SSSP miss with an independent sequential Dijkstra. A batch's
    /// deadline-free SSSP misses are cut into near-equal sweeps, as few
    /// as this width allows but none narrower than 8 lanes unless the
    /// batch itself is.
    pub ms_sssp_width: usize,
    /// Iterations for the shared PageRank snapshot.
    pub pagerank_iters: u32,
    /// Largest graph the O(n³) centrality snapshot will be built for;
    /// beyond it centrality queries report [`QueryError::Unsupported`].
    pub centrality_max_vertices: usize,
    /// Wall-clock watchdog for one batch; a fired watchdog fails the
    /// remaining queries with [`QueryError::Cancelled`] and leaves the
    /// engine serviceable.
    pub batch_timeout: Option<Duration>,
    /// Seed for the task pool's steal order (mixed with a per-batch
    /// counter so successive batches de-correlate).
    pub seed: u64,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            batch_max: 64,
            queue_capacity: 256,
            cache_capacity: 1024,
            ms_sssp_width: sssp::MULTI_WIDTH,
            pagerank_iters: 20,
            // Raised from 600 now that the snapshot is built by the
            // pipelined parallel kernel instead of host-side
            // Floyd–Warshall.
            centrality_max_vertices: 1024,
            batch_timeout: None,
            seed: 0xC0DE,
        }
    }
}

/// Cumulative serving counters (monotone over the engine's life).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries accepted by [`ServeEngine::submit`].
    pub admitted: u64,
    /// Queries refused with [`AdmitError::QueueFull`].
    pub rejected: u64,
    /// Queries answered successfully.
    pub served: u64,
    /// Served queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries that failed with a [`QueryError`].
    pub errors: u64,
    /// Batches executed.
    pub batches: u64,
}

/// One drained batch: per-query outcomes in admission order, plus the
/// batch-level failure (if the run itself was cancelled).
#[derive(Debug)]
pub struct BatchReport {
    /// Every drained query with its outcome.
    pub outcomes: Vec<(Query, Result<Response, QueryError>)>,
    /// Set when the parallel region itself failed (timeout or worker
    /// panic); the unanswered queries carry [`QueryError::Cancelled`].
    pub error: Option<String>,
}

/// Order-independent-of-schedule digest of a distance vector (it is a
/// pure function of the vector, which is itself deterministic).
pub fn checksum(values: &[u32]) -> u64 {
    let mut state = 0x5EED_0BAD_CAFE_F00Du64;
    let mut h = 0u64;
    for &v in values {
        state ^= v as u64;
        h ^= splitmix64(&mut state);
    }
    h
}

type CacheKey = (QueryKind, VertexId);

/// What one task-pool plan computes: either a single query, or one
/// multi-source sweep (BFS or delta-stepping SSSP) shared by several.
enum Plan {
    Single(usize),
    MultiBfs(Vec<usize>),
    /// One `sssp::run_multi_delta` sweep over the installed graph's
    /// light/heavy split: a contiguous run of the batch's deadline-free
    /// SSSP misses, cut by `sssp_sweeps`.
    MultiSssp(Vec<usize>),
}

/// Fewest lanes `sssp_sweeps` cuts a batch's SSSP misses down to. An
/// 8-lane sweep over the light/heavy split charges per query about what
/// a 14-lane sweep over the whole graph did (EXPERIMENTS.md "Serving
/// throughput", width table), so a batch of 16 or more misses gives
/// each core a sweep at little modeled cost.
const MIN_SWEEP_LANES: usize = 8;

/// Cuts the batch's deadline-free SSSP misses, in admission order, into
/// `max(⌈k / width⌉, ⌊k / MIN_SWEEP_LANES⌋)` contiguous sweeps whose
/// sizes differ by at most one, larger first. The cut depends only on
/// the batch, never on the thread count, so modeled costs stay
/// deterministic.
fn sssp_sweeps(misses: &[usize], width: usize) -> Vec<&[usize]> {
    let k = misses.len();
    let count = k.div_ceil(width).max(k / MIN_SWEEP_LANES);
    let mut rest = misses;
    (0..count)
        .map(|i| {
            let (sweep, tail) = rest.split_at(k / count + usize::from(i < k % count));
            rest = tail;
            sweep
        })
        .collect()
}

/// One deduplicated unit of work and the batch slots awaiting it.
struct Miss {
    kind: QueryKind,
    vertex: VertexId,
    deadline: Option<u64>,
    members: Vec<usize>,
}

type MissOut = Result<(Answer, u64, usize), QueryError>;

/// Outcome of one snapshot build attempt in `ensure_snapshots`:
/// `None` when the snapshot already existed (or nothing asked for it),
/// `Some(Ok(cost))` when it was built this batch, `Some(Err(detail))`
/// when the build failed and the consuming queries must be cancelled.
type SnapshotBuild = Option<Result<u64, String>>;

/// The serving engine: an immutable graph, a machine, snapshots, a
/// result cache, and a bounded admission queue.
///
/// # Examples
///
/// ```
/// use crono_runtime::NativeMachine;
/// use crono_graph::gen::uniform_random;
/// use crono_suite::engine::{EngineOptions, Query, QueryKind, ServeEngine};
///
/// let graph = uniform_random(256, 1024, 8, 42);
/// let mut engine =
///     ServeEngine::new(NativeMachine::new(2), graph, EngineOptions::default());
/// engine.submit(Query::new(QueryKind::Bfs, 7)).unwrap();
/// let batch = engine.run_batch();
/// assert!(batch.outcomes[0].1.is_ok());
/// ```
pub struct ServeEngine<M: Machine> {
    machine: M,
    graph: CsrGraph,
    queue: VecDeque<Query>,
    /// Answers stamped with their last-use tick; `cache_order` holds
    /// `(key, stamp)` pairs, oldest first, and eviction skips entries
    /// whose stamp no longer matches (the key was promoted since).
    cache: HashMap<CacheKey, (Answer, u64)>,
    cache_order: VecDeque<(CacheKey, u64)>,
    cache_stamp: u64,
    ranks: Option<Vec<f64>>,
    centrality: Option<Vec<u64>>,
    /// The installed graph's delta-stepping set-up (bucket width and
    /// light/heavy halves), built on the first SSSP sweep (it is a pure
    /// function of the installed graph).
    split: Option<sssp::DeltaSplit>,
    opts: EngineOptions,
    stats: EngineStats,
    batch_counter: u64,
}

impl<M: Machine> ServeEngine<M> {
    /// Builds an engine serving `graph` on `machine`.
    pub fn new(machine: M, graph: CsrGraph, opts: EngineOptions) -> Self {
        ServeEngine {
            machine,
            graph,
            queue: VecDeque::new(),
            cache: HashMap::new(),
            cache_order: VecDeque::new(),
            cache_stamp: 0,
            ranks: None,
            centrality: None,
            split: None,
            opts,
            stats: EngineStats::default(),
            batch_counter: 0,
        }
    }

    /// The currently installed graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Worker threads answering queries.
    pub fn num_threads(&self) -> usize {
        self.machine.num_threads()
    }

    /// Queries admitted but not yet drained into a batch.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Cumulative serving counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Replaces the served graph and drops every cached answer, snapshot
    /// and delta-stepping split, all of which were computed on the old
    /// graph.
    pub fn install_graph(&mut self, graph: CsrGraph) {
        self.graph = graph;
        self.cache.clear();
        self.cache_order.clear();
        self.ranks = None;
        self.centrality = None;
        self.split = None;
    }

    /// Admits one query, subject to the bounded-queue admission control.
    ///
    /// # Errors
    ///
    /// [`AdmitError::QueueFull`] when the submit queue is at capacity —
    /// the query is *not* enqueued; the caller should drain a batch
    /// ([`ServeEngine::run_batch`]) or back off.
    pub fn submit(&mut self, query: Query) -> Result<(), AdmitError> {
        if self.queue.len() >= self.opts.queue_capacity {
            self.stats.rejected += 1;
            return Err(AdmitError::QueueFull {
                capacity: self.opts.queue_capacity,
            });
        }
        self.queue.push_back(query);
        self.stats.admitted += 1;
        Ok(())
    }

    /// Cache lookup with LRU promotion: a hit re-stamps the entry and
    /// appends a fresh `(key, stamp)` order record, so eviction (which
    /// pops from the front, skipping stale records) sees it as the
    /// youngest entry.
    fn cache_get(&mut self, kind: QueryKind, vertex: VertexId) -> Option<Answer> {
        let key = (kind, vertex);
        let (answer, stamp) = self.cache.get_mut(&key)?;
        self.cache_stamp += 1;
        *stamp = self.cache_stamp;
        let answer = answer.clone();
        self.cache_order.push_back((key, self.cache_stamp));
        self.compact_cache_order();
        Some(answer)
    }

    fn cache_put(&mut self, kind: QueryKind, vertex: VertexId, answer: Answer) {
        if self.opts.cache_capacity == 0 {
            return;
        }
        let key = (kind, vertex);
        self.cache_stamp += 1;
        self.cache.insert(key, (answer, self.cache_stamp));
        self.cache_order.push_back((key, self.cache_stamp));
        while self.cache.len() > self.opts.cache_capacity {
            let Some((old, stamp)) = self.cache_order.pop_front() else {
                break;
            };
            // Only evict if this record is the key's *current* stamp;
            // otherwise the key was promoted (or re-inserted) since and
            // this record is stale.
            if self.cache.get(&old).is_some_and(|(_, s)| *s == stamp) {
                self.cache.remove(&old);
            }
        }
        self.compact_cache_order();
    }

    /// Bounds the lazily-maintained order deque: stale records (from
    /// promotions and re-insertions) are dropped wholesale once they
    /// outnumber live entries a few times over.
    fn compact_cache_order(&mut self) {
        if self.cache_order.len() > 4 * self.cache.len().max(16) {
            let cache = &self.cache;
            self.cache_order
                .retain(|(k, s)| cache.get(k).is_some_and(|(_, cs)| cs == s));
        }
    }

    /// Builds (or reuses) the snapshots the drained batch needs, **on
    /// the engine's machine**: PageRank via the pull kernel (bitwise
    /// equal to the push reference at any thread count) and centrality
    /// via the pipelined betweenness kernel (falling back to the
    /// barrier version for asymmetric graphs). Returns each snapshot's
    /// modeled build cost when it was built *by this call*, so
    /// `run_batch` can charge it to the queries that triggered it —
    /// snapshot construction is part of the serving latency, not free
    /// host work. The adjacency-matrix/transpose layouts are still
    /// host-side data preparation, like the sweeps' untimed setup.
    ///
    /// A build that fails (worker panic, watchdog, unroutable mesh)
    /// reports `Some(Err(detail))`: the caller cancels the consuming
    /// queries, the snapshot slot stays empty, and the next batch
    /// retries — the engine stays serviceable.
    fn ensure_snapshots(&mut self, misses: &[Miss]) -> (SnapshotBuild, SnapshotBuild) {
        let opts = RunOptions {
            timeout: self.opts.batch_timeout,
        };
        let mut pr_cost = None;
        let mut cent_cost = None;
        if self.ranks.is_none() && misses.iter().any(|m| m.kind == QueryKind::PageRank) {
            if self.opts.pagerank_iters == 0 {
                // Degenerate configuration: zero iterations means the
                // initial uniform ranks; nothing to run on the pool.
                self.ranks = Some(pagerank::reference(&self.graph, 0));
                pr_cost = Some(Ok(0));
            } else {
                match pagerank::try_parallel_pull(
                    &self.machine,
                    &opts,
                    &self.graph,
                    self.opts.pagerank_iters,
                ) {
                    Ok(out) => {
                        pr_cost = Some(Ok(out
                            .report
                            .threads
                            .iter()
                            .map(|t| t.instructions)
                            .sum::<u64>()));
                        self.ranks = Some(out.output.ranks);
                    }
                    Err(e) => pr_cost = Some(Err(e.to_string())),
                }
            }
        }
        if self.centrality.is_none() && misses.iter().any(|m| m.kind == QueryKind::Centrality) {
            let matrix = AdjacencyMatrix::from_csr(&self.graph);
            let nv = matrix.num_vertices() as u32;
            let symmetric = (0..nv).all(|s| (0..s).all(|t| matrix.get(s, t) == matrix.get(t, s)));
            let built = if symmetric {
                betweenness::try_parallel_pipelined(&self.machine, &opts, &matrix).map(|out| {
                    self.centrality = Some(out.output.centrality);
                    out.output.work
                })
            } else {
                betweenness::try_parallel(&self.machine, &opts, &matrix).map(|out| {
                    self.centrality = Some(out.output.centrality);
                    out.report.threads.iter().map(|t| t.instructions).sum()
                })
            };
            cent_cost = Some(built.map_err(|e| e.to_string()));
        }
        (pr_cost, cent_cost)
    }

    /// Drains up to [`EngineOptions::batch_max`] queued queries,
    /// schedules the cache misses onto the work-stealing pool, and
    /// returns every outcome in admission order.
    ///
    /// Batch-level failures (watchdog timeout, worker panic) fail only
    /// the unanswered queries — with [`QueryError::Cancelled`] — and
    /// leave the engine fully serviceable for the next batch.
    pub fn run_batch(&mut self) -> BatchReport {
        let take = self.queue.len().min(self.opts.batch_max);
        let queries: Vec<Query> = self.queue.drain(..take).collect();
        if queries.is_empty() {
            return BatchReport {
                outcomes: Vec::new(),
                error: None,
            };
        }
        self.stats.batches += 1;
        let n = self.graph.num_vertices();

        // Admission-order outcome slots; filled in three waves:
        // validation errors and cache hits now, kernel results after the
        // parallel region, cancellations for whatever is left.
        let mut outcomes: Vec<Option<Result<Response, QueryError>>> = vec![None; queries.len()];
        let mut misses: Vec<Miss> = Vec::new();
        let mut miss_index: HashMap<(QueryKind, VertexId), usize> = HashMap::new();
        for (slot, q) in queries.iter().enumerate() {
            if (q.vertex as usize) >= n {
                outcomes[slot] = Some(Err(QueryError::SourceOutOfRange {
                    vertex: q.vertex,
                    num_vertices: n,
                }));
                continue;
            }
            if q.kind == QueryKind::Centrality && n > self.opts.centrality_max_vertices {
                outcomes[slot] = Some(Err(QueryError::Unsupported(format!(
                    "centrality snapshot capped at {} vertices (graph has {n})",
                    self.opts.centrality_max_vertices
                ))));
                continue;
            }
            if let Some(answer) = self.cache_get(q.kind, q.vertex) {
                self.stats.cache_hits += 1;
                outcomes[slot] = Some(Ok(Response {
                    answer,
                    cost: CACHE_HIT_COST,
                    cached: true,
                    batched: 1,
                }));
                continue;
            }
            // Identical in-flight queries (kind, vertex) share one unit
            // of work; the shared run honors the *tightest* deadline
            // among its members (and shares its fate — a deadline-cut
            // kernel cannot hand looser members a partial answer).
            match miss_index.entry((q.kind, q.vertex)) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let miss = &mut misses[*e.get()];
                    miss.members.push(slot);
                    miss.deadline = match (miss.deadline, q.deadline) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (Some(a), None) => Some(a),
                        (None, d) => d,
                    };
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(misses.len());
                    misses.push(Miss {
                        kind: q.kind,
                        vertex: q.vertex,
                        deadline: q.deadline,
                        members: vec![slot],
                    });
                }
            }
        }

        let (pr_build, cent_build) = self.ensure_snapshots(&misses);

        // A failed snapshot build cancels the queries that needed it
        // (they never reach the pool); the rest of the batch still runs
        // and the next batch retries the build.
        let mut grouped = vec![false; misses.len()];
        for (kind, build) in [
            (QueryKind::PageRank, &pr_build),
            (QueryKind::Centrality, &cent_build),
        ] {
            let Some(Err(detail)) = build else { continue };
            for (i, miss) in misses.iter().enumerate() {
                if miss.kind != kind {
                    continue;
                }
                grouped[i] = true;
                for &slot in &miss.members {
                    outcomes[slot] = Some(Err(QueryError::Cancelled(detail.clone())));
                }
            }
        }

        // Plan the pool's task set: deadline-free BFS and SSSP misses
        // are grouped into shared multi-source sweeps; everything else
        // runs alone.
        let sssp_width = self.opts.ms_sssp_width.clamp(1, sssp::MULTI_WIDTH);
        let mut plans: Vec<Plan> = Vec::new();
        let bfs_batchable: Vec<usize> = (0..misses.len())
            .filter(|&i| misses[i].kind == QueryKind::Bfs && misses[i].deadline.is_none())
            .collect();
        for chunk in bfs_batchable.chunks(bfs::MULTI_WIDTH) {
            chunk.iter().for_each(|&i| grouped[i] = true);
            if chunk.len() == 1 {
                plans.push(Plan::Single(chunk[0]));
            } else {
                plans.push(Plan::MultiBfs(chunk.to_vec()));
            }
        }
        let sssp_batchable: Vec<usize> = (0..misses.len())
            .filter(|&i| misses[i].kind == QueryKind::Sssp && misses[i].deadline.is_none())
            .collect();
        for sweep in sssp_sweeps(&sssp_batchable, sssp_width) {
            sweep.iter().for_each(|&i| grouped[i] = true);
            if sweep.len() == 1 {
                plans.push(Plan::Single(sweep[0]));
            } else {
                plans.push(Plan::MultiSssp(sweep.to_vec()));
            }
        }
        for (i, &done) in grouped.iter().enumerate() {
            if !done {
                plans.push(Plan::Single(i));
            }
        }
        // The sweeps' light/heavy split is a pure function of the
        // installed graph; build it once, on first use.
        let sweeps = plans.iter().any(|p| matches!(p, Plan::MultiSssp(_)));
        if sweeps && self.split.is_none() {
            self.split = Some(sssp::DeltaSplit::new(&self.graph));
        }

        let mut error = None;
        if !plans.is_empty() {
            let threads = self.machine.num_threads();
            let mut seed_state = self.opts.seed ^ self.batch_counter;
            let pool = TaskPool::new(threads, plans.len().max(16), splitmix64(&mut seed_state));
            for (i, _) in plans.iter().enumerate() {
                assert!(
                    pool.push_plain(i % threads, i as u64),
                    "plan deque sized to the plan count"
                );
            }
            self.batch_counter += 1;
            let view = SharedGraph::new(&self.graph);
            // Built here, on the calling thread, so the sim backend
            // allocates their regions in a fixed order.
            let split = self.split.as_ref().filter(|_| sweeps).map(|s| SplitViews {
                light: SharedGraph::new(s.light()),
                heavy: SharedGraph::new(s.heavy()),
                delta: s.delta(),
            });
            let ranks = self.ranks.as_deref();
            let centrality = self.centrality.as_deref();
            let pr_iters = self.opts.pagerank_iters;
            let plans_ref = &plans;
            let misses_ref = &misses;
            let run = self.machine.try_run_with(
                &RunOptions {
                    timeout: self.opts.batch_timeout,
                },
                |ctx| {
                    let mut done: Vec<(usize, MissOut)> = Vec::new();
                    // `take` is counter-terminated, so survivors keep
                    // draining a departed core's deque.
                    while let Some(t) = pool.take(ctx) {
                        exec_plan(
                            ctx,
                            &plans_ref[t as usize],
                            misses_ref,
                            &view,
                            split.as_ref(),
                            ranks,
                            centrality,
                            pr_iters,
                            &mut done,
                        );
                    }
                    done
                },
            );
            match run {
                Ok(outcome) => {
                    for (miss_idx, out) in outcome.per_thread.into_iter().flatten() {
                        let miss = &misses[miss_idx];
                        match out {
                            Ok((answer, cost, batched)) => {
                                self.cache_put(miss.kind, miss.vertex, answer.clone());
                                for &slot in &miss.members {
                                    outcomes[slot] = Some(Ok(Response {
                                        answer: answer.clone(),
                                        cost,
                                        cached: false,
                                        batched,
                                    }));
                                }
                            }
                            Err(e) => {
                                for &slot in &miss.members {
                                    outcomes[slot] = Some(Err(e.clone()));
                                }
                            }
                        }
                    }
                }
                Err(e) => error = Some(e.to_string()),
            }
        }

        // Charge snapshots built this batch to the queries that needed
        // them: an even share of the parallel build's deterministic cost
        // per consuming query. (A snapshot can only be built in the same
        // batch as its first consumers — later batches reuse it free.)
        for (kind, build) in [
            (QueryKind::PageRank, pr_build),
            (QueryKind::Centrality, cent_build),
        ] {
            let Some(Ok(build)) = build else { continue };
            let slots: Vec<usize> = misses
                .iter()
                .filter(|m| m.kind == kind)
                .flat_map(|m| m.members.iter().copied())
                .collect();
            if slots.is_empty() {
                continue;
            }
            let share = build / slots.len() as u64;
            for slot in slots {
                if let Some(Ok(r)) = outcomes[slot].as_mut() {
                    r.cost += share;
                }
            }
        }

        let cancelled = error
            .clone()
            .unwrap_or_else(|| "batch ended before the query ran".to_string());
        let outcomes: Vec<(Query, Result<Response, QueryError>)> = queries
            .into_iter()
            .zip(outcomes)
            .map(|(q, o)| {
                let o = o.unwrap_or_else(|| Err(QueryError::Cancelled(cancelled.clone())));
                match &o {
                    Ok(_) => self.stats.served += 1,
                    Err(_) => self.stats.errors += 1,
                }
                (q, o)
            })
            .collect();
        BatchReport { outcomes, error }
    }
}

/// Tracked views of the installed graph's [`sssp::DeltaSplit`] for one
/// batch.
struct SplitViews<'a> {
    light: SharedGraph<'a>,
    heavy: SharedGraph<'a>,
    delta: u32,
}

/// Executes one plan on the worker's context, appending `(miss index,
/// outcome)` pairs to `done`. Costs are the context's instruction delta
/// around the kernel — deterministic for a fixed query and graph, no
/// matter which thread runs it or when.
#[allow(clippy::too_many_arguments)]
fn exec_plan<C: ThreadCtx>(
    ctx: &mut C,
    plan: &Plan,
    misses: &[Miss],
    view: &SharedGraph<'_>,
    split: Option<&SplitViews<'_>>,
    ranks: Option<&[f64]>,
    centrality: Option<&[u64]>,
    pr_iters: u32,
    done: &mut Vec<(usize, MissOut)>,
) {
    match plan {
        Plan::MultiBfs(group) => {
            let sources: Vec<VertexId> = group.iter().map(|&i| misses[i].vertex).collect();
            let start = ctx.cycles();
            let levels = bfs::run_multi(ctx, view, &sources);
            let total = ctx.cycles() - start;
            // The sweep is shared: charge each query an even share.
            let share = total / sources.len() as u64;
            for (lane, &miss_idx) in group.iter().enumerate() {
                done.push((
                    miss_idx,
                    Ok((summarize_bfs(&levels[lane]), share, sources.len())),
                ));
            }
        }
        Plan::MultiSssp(group) => {
            let sources: Vec<VertexId> = group.iter().map(|&i| misses[i].vertex).collect();
            let s = split.expect("split views are built for every SSSP sweep");
            let start = ctx.cycles();
            let dists = sssp::run_multi_delta(ctx, &s.light, &s.heavy, &sources, s.delta);
            let total = ctx.cycles() - start;
            let share = total / sources.len() as u64;
            for (lane, &miss_idx) in group.iter().enumerate() {
                done.push((
                    miss_idx,
                    Ok((summarize_sssp(&dists[lane]), share, sources.len())),
                ));
            }
        }
        Plan::Single(miss_idx) => {
            let miss = &misses[*miss_idx];
            // Latency is a cycle-clock delta (instructions on the native
            // backend, where the two clocks coincide); the deadline is an
            // *instruction* budget, so its post-check stays in that unit.
            let start = ctx.cycles();
            let istart = ctx.instructions();
            let result = match miss.kind {
                QueryKind::Bfs => {
                    let levels = match miss.deadline {
                        Some(budget) => {
                            let mut b = BudgetCtx::new(ctx, budget);
                            bfs::run_seq(&mut b, view, miss.vertex)
                        }
                        None => bfs::run_seq(ctx, view, miss.vertex),
                    };
                    Ok(summarize_bfs(&levels))
                }
                QueryKind::Sssp => {
                    let dist = match miss.deadline {
                        Some(budget) => {
                            let mut b = BudgetCtx::new(ctx, budget);
                            sssp::run_seq(&mut b, view, miss.vertex)
                        }
                        None => sssp::run_seq(ctx, view, miss.vertex),
                    };
                    Ok(summarize_sssp(&dist))
                }
                QueryKind::PageRank => {
                    ctx.compute(costs::RANK_UPDATE);
                    match ranks {
                        Some(r) => Ok(Answer::PageRank {
                            rank: r[miss.vertex as usize],
                            iterations: pr_iters,
                        }),
                        None => Err(QueryError::Unsupported(
                            "pagerank snapshot unavailable".to_string(),
                        )),
                    }
                }
                QueryKind::Centrality => {
                    ctx.compute(costs::MIN_SCAN);
                    match centrality {
                        Some(c) => Ok(Answer::Centrality {
                            centrality: c[miss.vertex as usize],
                        }),
                        None => Err(QueryError::Unsupported(
                            "centrality snapshot unavailable".to_string(),
                        )),
                    }
                }
            };
            let cost = ctx.cycles() - start;
            let icost = ctx.instructions() - istart;
            let out = match result {
                Ok(answer) => match miss.deadline {
                    Some(budget) if icost > budget => Err(QueryError::DeadlineExceeded {
                        budget,
                        cost: icost,
                    }),
                    _ => Ok((answer, cost, 1)),
                },
                Err(e) => Err(e),
            };
            done.push((*miss_idx, out));
        }
    }
}

fn summarize_bfs(levels: &[u32]) -> Answer {
    let reachable = levels.iter().filter(|&&l| l != bfs::UNVISITED).count();
    let depth = levels
        .iter()
        .filter(|&&l| l != bfs::UNVISITED)
        .max()
        .copied()
        .unwrap_or(0);
    Answer::Bfs {
        reachable,
        levels: depth + 1,
        checksum: checksum(levels),
    }
}

fn summarize_sssp(dist: &[u32]) -> Answer {
    let reached = dist.iter().filter(|&&d| d != sssp::UNREACHABLE).count();
    let max_dist = dist
        .iter()
        .filter(|&&d| d != sssp::UNREACHABLE)
        .max()
        .copied()
        .unwrap_or(0);
    Answer::Sssp {
        reached,
        max_dist,
        checksum: checksum(dist),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crono_graph::gen::uniform_random;
    use crono_runtime::NativeMachine;
    use crono_sim::{SimConfig, SimMachine};

    fn test_engine(threads: usize) -> ServeEngine<NativeMachine> {
        let graph = uniform_random(256, 1024, 8, 42);
        ServeEngine::new(NativeMachine::new(threads), graph, EngineOptions::default())
    }

    #[test]
    fn serves_every_kind() {
        let mut engine = test_engine(4);
        for kind in QueryKind::ALL {
            engine.submit(Query::new(kind, 5)).unwrap();
        }
        let batch = engine.run_batch();
        assert_eq!(batch.outcomes.len(), 4);
        assert!(batch.error.is_none());
        for (q, out) in &batch.outcomes {
            let r = out.as_ref().unwrap_or_else(|e| panic!("{}: {e}", q.kind));
            assert!(!r.cached);
            assert!(r.cost > 0);
        }
    }

    #[test]
    fn cache_hits_on_repeat_and_misses_after_install_graph() {
        let mut engine = test_engine(2);
        engine.submit(Query::new(QueryKind::Bfs, 9)).unwrap();
        let first = engine.run_batch();
        let (_, Ok(first)) = &first.outcomes[0] else {
            panic!("first query failed");
        };
        assert!(!first.cached);

        engine.submit(Query::new(QueryKind::Bfs, 9)).unwrap();
        let second = engine.run_batch();
        let (_, Ok(second_r)) = &second.outcomes[0] else {
            panic!("second query failed");
        };
        assert!(second_r.cached, "same (kind, vertex) must hit");
        assert_eq!(second_r.cost, CACHE_HIT_COST);
        assert_eq!(second_r.answer, first.answer);
        assert_eq!(engine.stats().cache_hits, 1);

        // Installing a graph clears the cache: the same key misses.
        engine.install_graph(uniform_random(256, 1024, 8, 43));
        engine.submit(Query::new(QueryKind::Bfs, 9)).unwrap();
        let third = engine.run_batch();
        let (_, Ok(third)) = &third.outcomes[0] else {
            panic!("third query failed");
        };
        assert!(!third.cached, "a new graph must invalidate");
        assert_ne!(
            third.answer, first.answer,
            "different graph, different answer (checksums differ)"
        );
    }

    #[test]
    fn duplicate_in_flight_queries_share_one_unit_of_work() {
        let mut engine = test_engine(2);
        for _ in 0..3 {
            engine.submit(Query::new(QueryKind::Sssp, 31)).unwrap();
        }
        let batch = engine.run_batch();
        let responses: Vec<&Response> = batch
            .outcomes
            .iter()
            .map(|(_, o)| o.as_ref().expect("all three succeed"))
            .collect();
        assert_eq!(responses[0], responses[1]);
        assert_eq!(responses[0], responses[2]);
        assert!(!responses[0].cached, "first flight is a miss, not a hit");
    }

    /// Serves `sources` as `kind` queries in one batch. The cache is off
    /// so nothing short-circuits; the default width groups them all.
    fn one_batch<M: Machine>(
        machine: M,
        graph: &CsrGraph,
        kind: QueryKind,
        sources: &[VertexId],
    ) -> BatchReport {
        let opts = EngineOptions {
            cache_capacity: 0,
            ..EngineOptions::default()
        };
        let mut engine = ServeEngine::new(machine, graph.clone(), opts);
        for &s in sources {
            engine.submit(Query::new(kind, s)).unwrap();
        }
        engine.run_batch()
    }

    /// Batched answers on both backends equal independent per-query runs,
    /// and every query rides a sweep `width` lanes wide.
    fn assert_batched_matches_independent(kind: QueryKind, sources: &[VertexId], width: usize) {
        let graph = uniform_random(256, 1024, 8, 42);
        let native = one_batch(NativeMachine::new(4), &graph, kind, sources);
        let sim_machine = SimMachine::new(SimConfig::tiny(16), 4).deterministic();
        let sim = one_batch(sim_machine, &graph, kind, sources);

        // Reference engine: width 1 and one query per batch, so every
        // run is a plain sequential kernel.
        let mut single = ServeEngine::new(
            NativeMachine::new(1),
            graph,
            EngineOptions {
                cache_capacity: 0,
                batch_max: 1,
                ms_sssp_width: 1,
                ..EngineOptions::default()
            },
        );
        for (i, &s) in sources.iter().enumerate() {
            single.submit(Query::new(kind, s)).unwrap();
            let reference = single.run_batch();
            let (_, Ok(ref_r)) = &reference.outcomes[0] else {
                panic!("reference {kind} failed");
            };
            assert_eq!(ref_r.batched, 1);
            for (backend, batch) in [("native", &native), ("sim", &sim)] {
                let (_, Ok(bat_r)) = &batch.outcomes[i] else {
                    panic!("{backend} batched {kind} failed");
                };
                assert_eq!(bat_r.answer, ref_r.answer, "{backend}, source {s}");
                assert_eq!(bat_r.batched, width, "{backend}");
                // Simulated costs are cycles, and there batching can
                // cost more than it saves.
                if backend == "native" {
                    assert!(
                        bat_r.cost < ref_r.cost,
                        "shared sweep must be cheaper per query: {} vs {}",
                        bat_r.cost,
                        ref_r.cost
                    );
                }
            }
        }
    }

    #[test]
    fn batched_multi_source_bfs_matches_independent_queries() {
        let sources = [0, 7, 19, 42, 99, 150, 200, 255];
        assert_batched_matches_independent(QueryKind::Bfs, &sources, sources.len());
    }

    #[test]
    fn deadline_exceeded_is_typed_and_engine_stays_serviceable() {
        let mut engine = test_engine(2);
        engine
            .submit(Query {
                kind: QueryKind::Bfs,
                vertex: 0,
                deadline: Some(10),
            })
            .unwrap();
        let batch = engine.run_batch();
        match &batch.outcomes[0].1 {
            Err(QueryError::DeadlineExceeded { budget, cost }) => {
                assert_eq!(*budget, 10);
                assert!(*cost > 10);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // Same query without the deadline still works — the engine (and
        // its machine) survived the cancelled kernel.
        engine.submit(Query::new(QueryKind::Bfs, 0)).unwrap();
        assert!(engine.run_batch().outcomes[0].1.is_ok());
    }

    #[test]
    fn generous_deadline_passes() {
        let mut engine = test_engine(2);
        engine
            .submit(Query {
                kind: QueryKind::Bfs,
                vertex: 0,
                deadline: Some(u64::MAX),
            })
            .unwrap();
        assert!(engine.run_batch().outcomes[0].1.is_ok());
    }

    #[test]
    fn queue_full_applies_backpressure() {
        let graph = uniform_random(64, 256, 8, 1);
        let mut engine = ServeEngine::new(
            NativeMachine::new(1),
            graph,
            EngineOptions {
                queue_capacity: 2,
                ..EngineOptions::default()
            },
        );
        engine.submit(Query::new(QueryKind::Bfs, 0)).unwrap();
        engine.submit(Query::new(QueryKind::Bfs, 1)).unwrap();
        assert_eq!(
            engine.submit(Query::new(QueryKind::Bfs, 2)),
            Err(AdmitError::QueueFull { capacity: 2 })
        );
        assert_eq!(engine.stats().rejected, 1);
        // Draining makes room again.
        engine.run_batch();
        engine.submit(Query::new(QueryKind::Bfs, 2)).unwrap();
    }

    #[test]
    fn out_of_range_and_unsupported_are_per_query_errors() {
        let graph = uniform_random(64, 256, 8, 1);
        let mut engine = ServeEngine::new(
            NativeMachine::new(2),
            graph,
            EngineOptions {
                centrality_max_vertices: 8, // force Unsupported
                ..EngineOptions::default()
            },
        );
        engine.submit(Query::new(QueryKind::Bfs, 1_000)).unwrap();
        engine.submit(Query::new(QueryKind::Centrality, 3)).unwrap();
        engine.submit(Query::new(QueryKind::Bfs, 3)).unwrap();
        let batch = engine.run_batch();
        assert!(matches!(
            batch.outcomes[0].1,
            Err(QueryError::SourceOutOfRange { vertex: 1_000, .. })
        ));
        assert!(matches!(
            batch.outcomes[1].1,
            Err(QueryError::Unsupported(_))
        ));
        assert!(batch.outcomes[2].1.is_ok(), "good query unaffected");
    }

    #[test]
    fn cache_eviction_is_lru_not_fifo() {
        let graph = uniform_random(64, 256, 8, 1);
        let mut engine = ServeEngine::new(
            NativeMachine::new(1),
            graph,
            EngineOptions {
                cache_capacity: 2,
                ..EngineOptions::default()
            },
        );
        let mut ask = |v: u32| -> bool {
            engine.submit(Query::new(QueryKind::Bfs, v)).unwrap();
            let batch = engine.run_batch();
            let (_, Ok(r)) = &batch.outcomes[0] else {
                panic!("query failed");
            };
            r.cached
        };
        assert!(!ask(1)); // cache: {1}
        assert!(!ask(2)); // cache: {1, 2}
        assert!(ask(1)); // hit promotes 1 over 2
        assert!(!ask(3)); // evicts 2 (LRU); FIFO would evict 1
        assert!(ask(1), "promoted entry must survive the eviction");
        assert!(!ask(2), "least-recently-used entry must be gone");
    }

    #[test]
    fn repeated_hits_never_evict_the_hot_entry() {
        // The lazy order deque accumulates stale records on every hit;
        // compaction must drop those, not live entries.
        let graph = uniform_random(64, 256, 8, 1);
        let mut engine = ServeEngine::new(
            NativeMachine::new(1),
            graph,
            EngineOptions {
                cache_capacity: 2,
                ..EngineOptions::default()
            },
        );
        engine.submit(Query::new(QueryKind::Bfs, 7)).unwrap();
        engine.run_batch();
        for _ in 0..200 {
            engine.submit(Query::new(QueryKind::Bfs, 7)).unwrap();
            let batch = engine.run_batch();
            let (_, Ok(r)) = &batch.outcomes[0] else {
                panic!("query failed");
            };
            assert!(r.cached);
        }
    }

    #[test]
    fn duplicates_with_different_deadlines_merge_and_honor_the_tightest() {
        // Generous + none: one unit of work, both succeed identically.
        let mut engine = test_engine(2);
        engine.submit(Query::new(QueryKind::Sssp, 31)).unwrap();
        engine
            .submit(Query {
                kind: QueryKind::Sssp,
                vertex: 31,
                deadline: Some(u64::MAX),
            })
            .unwrap();
        let batch = engine.run_batch();
        let a = batch.outcomes[0].1.as_ref().expect("deadline-free ok");
        let b = batch.outcomes[1].1.as_ref().expect("generous ok");
        assert_eq!(a, b, "merged duplicates share one response");

        // Tight + none: the shared run is cut at the tightest budget and
        // every member shares its fate (no partial answers).
        let mut engine = test_engine(2);
        engine.submit(Query::new(QueryKind::Sssp, 31)).unwrap();
        engine
            .submit(Query {
                kind: QueryKind::Sssp,
                vertex: 31,
                deadline: Some(10),
            })
            .unwrap();
        let batch = engine.run_batch();
        for (_, out) in &batch.outcomes {
            assert!(
                matches!(out, Err(QueryError::DeadlineExceeded { budget: 10, .. })),
                "got {out:?}"
            );
        }
    }

    #[test]
    fn batched_multi_source_sssp_matches_independent_queries() {
        // Twenty misses ride two 10-lane sweeps.
        let sources: Vec<VertexId> = (0..20).map(|i| i * 13).collect();
        assert_batched_matches_independent(QueryKind::Sssp, &sources, 10);
    }

    #[test]
    fn sssp_misses_split_into_near_equal_sweeps_of_at_least_eight_lanes() {
        let graph = uniform_random(256, 1024, 8, 42);
        let cases: [(u32, &[usize]); 5] = [
            (7, &[7]),
            (15, &[15]),
            (16, &[8, 8]),
            (19, &[10, 9]),
            (33, &[9, 8, 8, 8]),
        ];
        for (k, sweeps) in cases {
            let sources: Vec<VertexId> = (0..k).map(|i| i * 7).collect();
            let batch = one_batch(NativeMachine::new(2), &graph, QueryKind::Sssp, &sources);
            let widths: Vec<usize> = batch
                .outcomes
                .iter()
                .map(|(_, o)| o.as_ref().expect("ok").batched)
                .collect();
            let expect: Vec<usize> = sweeps.iter().flat_map(|&w| vec![w; w]).collect();
            assert_eq!(widths, expect, "{k} misses");
        }
    }

    #[test]
    fn snapshot_build_cost_lands_in_the_first_batch_latency() {
        let mut engine = test_engine(2);
        engine.submit(Query::new(QueryKind::PageRank, 1)).unwrap();
        engine.submit(Query::new(QueryKind::PageRank, 2)).unwrap();
        let first = engine.run_batch();
        let (_, Ok(r1)) = &first.outcomes[0] else {
            panic!("pagerank failed");
        };
        let (_, Ok(r2)) = &first.outcomes[1] else {
            panic!("pagerank failed");
        };

        // A later miss reuses the snapshot and pays only the point read.
        engine.submit(Query::new(QueryKind::PageRank, 3)).unwrap();
        let later = engine.run_batch();
        let (_, Ok(r3)) = &later.outcomes[0] else {
            panic!("pagerank failed");
        };
        assert!(
            r1.cost > 100 * r3.cost,
            "snapshot build must dominate the first batch: {} vs {}",
            r1.cost,
            r3.cost
        );
        // The build is shared evenly across the batch's consumers.
        assert_eq!(r1.cost, r2.cost);

        // Same shape for the centrality snapshot.
        let mut engine = test_engine(2);
        engine.submit(Query::new(QueryKind::Centrality, 1)).unwrap();
        let first = engine.run_batch();
        let (_, Ok(c1)) = &first.outcomes[0] else {
            panic!("centrality failed");
        };
        engine.submit(Query::new(QueryKind::Centrality, 2)).unwrap();
        let later = engine.run_batch();
        let (_, Ok(c2)) = &later.outcomes[0] else {
            panic!("centrality failed");
        };
        assert!(c1.cost > 100 * c2.cost, "{} vs {}", c1.cost, c2.cost);
    }

    #[test]
    fn snapshot_answers_match_the_reference_kernels() {
        // The on-pool builders must not change what gets served: pull
        // PageRank is bitwise-equal to the push reference, and pipelined
        // betweenness equals the brute-force oracle.
        let graph = uniform_random(128, 512, 8, 21);
        let ranks = pagerank::reference(&graph, EngineOptions::default().pagerank_iters);
        let matrix = AdjacencyMatrix::from_csr(&graph);
        let centrality = betweenness::reference(&matrix);
        let mut engine = ServeEngine::new(NativeMachine::new(4), graph, EngineOptions::default());
        engine.submit(Query::new(QueryKind::PageRank, 9)).unwrap();
        engine.submit(Query::new(QueryKind::Centrality, 9)).unwrap();
        let batch = engine.run_batch();
        match &batch.outcomes[0].1 {
            Ok(Response {
                answer: Answer::PageRank { rank, .. },
                ..
            }) => assert_eq!(rank.to_bits(), ranks[9].to_bits()),
            other => panic!("unexpected: {other:?}"),
        }
        match &batch.outcomes[1].1 {
            Ok(Response {
                answer: Answer::Centrality { centrality: c },
                ..
            }) => assert_eq!(*c, centrality[9]),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn costs_are_deterministic_across_engines_and_thread_counts() {
        // Twenty misses: two sweeps, which one core or two may run.
        let run = |threads: usize| -> Vec<u64> {
            let graph = uniform_random(256, 1024, 8, 42);
            let mut engine =
                ServeEngine::new(NativeMachine::new(threads), graph, EngineOptions::default());
            for v in 0..20 {
                engine
                    .submit(Query::new(QueryKind::Sssp, v * 12 + 3))
                    .unwrap();
            }
            engine
                .run_batch()
                .outcomes
                .iter()
                .map(|(_, o)| o.as_ref().expect("ok").cost)
                .collect()
        };
        let one = run(1);
        assert_eq!(one, run(2), "modeled costs are schedule-independent");
        assert_eq!(one, run(4));
        assert_eq!(one, run(8));
    }
}
