//! Workload parsing, load generation, and reporting for the serving
//! engine (`crono serve` / `crono bombard`).
//!
//! Two front-ends feed one [`ServeEngine`]:
//!
//! * [`parse_workload`] reads a query script — one query per line,
//!   `<kind> <vertex> [deadline=N]` — for replaying a fixed workload
//!   (`crono serve`).
//! * [`bombard`] is a seeded closed-loop load generator: a fixed number
//!   of simulated clients keep one query in flight each, drawn from a
//!   mixed BFS/SSSP/PageRank distribution with a small hot set (so the
//!   result cache sees real reuse). Everything it does derives from the
//!   seed, the graph, and the engine options.
//!
//! Both report through [`summarize`], which renders the same kind of
//! table `crono ablation` writes for MTEPS: per-kind query counts,
//! cache hits, batching, p50/p99 latency, and throughput. Latency is
//! **modeled** — a query's cost in modeled instructions, read as cycles
//! of the paper's 1 GHz cores (so 1 cost unit = 1 ns) — and throughput
//! is the idealized rate of `threads` workers retiring those costs
//! back-to-back. Neither depends on wall-clock time, host speed, or
//! steal timing: repeated runs of the same seeded workload produce
//! byte-identical tables, which `scripts/ci.sh` enforces with `cmp`.

use crate::engine::{Query, QueryError, QueryKind, Response, ServeEngine};
use crate::report::{f2, Table};
use crono_graph::rng::SmallRng;
use crono_graph::VertexId;
use crono_runtime::Machine;

/// A replayed or generated workload's complete outcome stream, in
/// submission order.
pub type Outcomes = Vec<(Query, Result<Response, QueryError>)>;

/// Parses a workload script: one query per line, `#`-comments and blank
/// lines ignored.
///
/// ```text
/// # kind vertex [deadline=N]
/// bfs 17
/// sssp 4096 deadline=200000
/// pagerank 12
/// centrality 3
/// ```
///
/// # Errors
///
/// A one-line message naming the offending line number.
pub fn parse_workload(text: &str) -> Result<Vec<Query>, String> {
    let mut queries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let n = idx + 1;
        let mut parts = line.split_whitespace();
        let kind_word = parts.next().expect("non-empty line has a first token");
        let kind = QueryKind::by_name(kind_word)
            .ok_or_else(|| format!("line {n}: unknown query kind '{kind_word}'"))?;
        let vertex_word = parts
            .next()
            .ok_or_else(|| format!("line {n}: missing vertex after '{kind_word}'"))?;
        let vertex: VertexId = vertex_word
            .parse()
            .map_err(|_| format!("line {n}: bad vertex '{vertex_word}'"))?;
        let mut deadline = None;
        for extra in parts {
            match extra.strip_prefix("deadline=") {
                Some(v) => {
                    deadline = Some(
                        v.parse::<u64>()
                            .map_err(|_| format!("line {n}: bad deadline '{v}'"))?,
                    );
                }
                None => return Err(format!("line {n}: unexpected token '{extra}'")),
            }
        }
        queries.push(Query {
            kind,
            vertex,
            deadline,
        });
    }
    Ok(queries)
}

/// Replays `queries` through `engine` in order, draining a batch
/// whenever admission control pushes back, and returns every outcome in
/// submission order.
pub fn run_workload<M: Machine>(engine: &mut ServeEngine<M>, queries: &[Query]) -> Outcomes {
    let mut outcomes = Outcomes::new();
    for q in queries {
        while engine.submit(q.clone()).is_err() {
            outcomes.extend(engine.run_batch().outcomes);
        }
    }
    while engine.queued() > 0 {
        outcomes.extend(engine.run_batch().outcomes);
    }
    outcomes
}

/// Query-kind distribution of a [`bombard`] stream.
///
/// The draw sequence is identical for every mix — one kind draw, one
/// hot/cold draw, one vertex draw per query — so changing the mix
/// reshapes *what* is asked without perturbing *which* vertices the
/// stream visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 40% BFS / 30% SSSP / 30% PageRank — the original stream
    /// (byte-compatible with the pre-PR-10 generator).
    Default,
    /// 20% BFS / 60% SSSP / 20% PageRank — stresses the multi-source
    /// SSSP batcher (`--mix sssp-heavy`).
    SsspHeavy,
}

impl Mix {
    /// Parses a CLI mix name.
    pub fn by_name(name: &str) -> Option<Mix> {
        match name {
            "default" => Some(Mix::Default),
            "sssp-heavy" => Some(Mix::SsspHeavy),
            _ => None,
        }
    }

    /// The mix's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Mix::Default => "default",
            Mix::SsspHeavy => "sssp-heavy",
        }
    }

    /// Maps one decile draw to a query kind.
    fn kind(self, decile: u32) -> QueryKind {
        match self {
            Mix::Default => match decile {
                0..=3 => QueryKind::Bfs,
                4..=6 => QueryKind::Sssp,
                _ => QueryKind::PageRank,
            },
            Mix::SsspHeavy => match decile {
                0..=1 => QueryKind::Bfs,
                2..=7 => QueryKind::Sssp,
                _ => QueryKind::PageRank,
            },
        }
    }
}

/// Knobs for the [`bombard`] load generator.
#[derive(Debug, Clone)]
pub struct BombardOptions {
    /// Total queries to issue.
    pub queries: usize,
    /// Simulated closed-loop clients (each keeps one query in flight;
    /// a batch is drained whenever all of them are waiting).
    pub clients: usize,
    /// Seed for the query stream.
    pub seed: u64,
    /// Query-kind distribution.
    pub mix: Mix,
}

impl Default for BombardOptions {
    fn default() -> Self {
        BombardOptions {
            queries: 512,
            clients: 32,
            seed: 7,
            mix: Mix::Default,
        }
    }
}

/// Vertices in the generator's hot set — a small popular subset that a
/// quarter of queries target, so the result cache sees realistic reuse.
const HOT_SET: usize = 8;

/// Seeded closed-loop load generator: issues
/// [`BombardOptions::queries`] queries drawn from the configured
/// [`Mix`] (25% of them aimed at an 8-vertex hot set), keeping at most
/// [`BombardOptions::clients`] in flight, draining batches when the
/// clients are all waiting or admission control pushes back.
///
/// Deterministic end to end: the stream is a pure function of the seed,
/// the mix, and the graph's vertex count, and every reported latency is
/// modeled.
pub fn bombard<M: Machine>(engine: &mut ServeEngine<M>, opts: &BombardOptions) -> Outcomes {
    let n = engine.graph().num_vertices() as u32;
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let hot: Vec<VertexId> = (0..HOT_SET).map(|_| rng.random_range(0..n)).collect();
    let mut outcomes = Outcomes::new();
    let mut in_flight = 0usize;
    for _ in 0..opts.queries {
        let kind = opts.mix.kind(rng.random_range(0..10u32));
        let vertex = if rng.random_range(0..4u32) == 0 {
            hot[rng.random_range(0..HOT_SET as u32) as usize]
        } else {
            rng.random_range(0..n)
        };
        let q = Query::new(kind, vertex);
        loop {
            if in_flight < opts.clients && engine.submit(q.clone()).is_ok() {
                in_flight += 1;
                break;
            }
            // All clients waiting (or the queue pushed back): serve.
            let drained = engine.run_batch().outcomes;
            in_flight -= drained.len().min(in_flight);
            outcomes.extend(drained);
        }
    }
    while engine.queued() > 0 {
        outcomes.extend(engine.run_batch().outcomes);
    }
    outcomes
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0–100).
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

/// The serving tally of a stream of query outcomes: counts, and the
/// answered queries' modeled costs in ascending order. [`summarize`]
/// renders one per query kind, and `crono faults --degraded` one per
/// phase.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) queries: u64,
    pub(crate) ok: u64,
    pub(crate) cache_hits: u64,
    batched: u64,
    pub(crate) errors: u64,
    costs: Vec<u64>,
}

impl Tally {
    /// Tallies `outcomes`.
    pub(crate) fn of<'a>(
        outcomes: impl IntoIterator<Item = &'a Result<Response, QueryError>>,
    ) -> Tally {
        let mut t = Tally::default();
        for outcome in outcomes {
            t.queries += 1;
            match outcome {
                Ok(r) => {
                    t.ok += 1;
                    t.cache_hits += u64::from(r.cached);
                    t.batched += u64::from(r.batched > 1);
                    t.costs.push(r.cost);
                }
                Err(_) => t.errors += 1,
            }
        }
        t.costs.sort_unstable();
        t
    }

    /// Nearest-rank percentile `p` of the answered queries' costs in
    /// modeled microseconds (1 GHz: 1 instruction = 1 cycle = 1 ns), or
    /// `None` when no query was answered.
    pub(crate) fn p_us(&self, p: usize) -> Option<f64> {
        (!self.costs.is_empty()).then(|| percentile(&self.costs, p) as f64 / 1_000.0)
    }

    /// Idealized QPS: `workers` workers retiring the observed costs
    /// back-to-back, 1e9 cycles per second. `None` when they cost
    /// nothing.
    pub(crate) fn qps(&self, workers: usize) -> Option<f64> {
        let total: u64 = self.costs.iter().sum();
        (total > 0).then(|| self.ok as f64 * workers as f64 * 1e9 / total as f64)
    }

    fn row(&self, label: &str, threads: usize) -> Vec<String> {
        vec![
            label.to_string(),
            self.queries.to_string(),
            self.ok.to_string(),
            self.cache_hits.to_string(),
            self.batched.to_string(),
            self.errors.to_string(),
            f2(self.p_us(50).unwrap_or(0.0)),
            f2(self.p_us(99).unwrap_or(0.0)),
            self.qps(threads).map_or_else(|| "-".to_string(), f2),
        ]
    }
}

/// Renders the serving report: one row per query kind plus a TOTAL row.
/// Latencies are modeled microseconds at 1 GHz (p50/p99 nearest-rank
/// over per-query costs); QPS is the idealized rate of `threads`
/// workers retiring those costs back-to-back.
pub fn summarize(outcomes: &Outcomes, threads: usize) -> Table {
    let mut table = Table::new(
        "Serve: point-query latency and throughput (modeled, 1 GHz)",
        vec![
            "Kind",
            "Queries",
            "OK",
            "CacheHits",
            "Batched",
            "Errors",
            "p50_us",
            "p99_us",
            "QPS",
        ],
    );
    for kind in QueryKind::ALL {
        let stats = Tally::of(
            outcomes
                .iter()
                .filter(|(q, _)| q.kind == kind)
                .map(|(_, o)| o),
        );
        if stats.queries > 0 {
            table.push_row(stats.row(kind.name(), threads));
        }
    }
    table.push_row(Tally::of(outcomes.iter().map(|(_, o)| o)).row("TOTAL", threads));
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crono_graph::gen::uniform_random;
    use crono_runtime::NativeMachine;

    #[test]
    fn parses_kinds_comments_and_deadlines() {
        let text = "\
# a comment
bfs 17

sssp 4096 deadline=200000  # trailing comment
pagerank 12
centrality 3
";
        let qs = parse_workload(text).expect("valid workload");
        assert_eq!(qs.len(), 4);
        assert_eq!(qs[0], Query::new(QueryKind::Bfs, 17));
        assert_eq!(
            qs[1],
            Query {
                kind: QueryKind::Sssp,
                vertex: 4096,
                deadline: Some(200_000),
            }
        );
        assert_eq!(qs[3], Query::new(QueryKind::Centrality, 3));
    }

    #[test]
    fn parse_errors_name_the_line() {
        assert_eq!(
            parse_workload("bfs 1\nfrobnicate 2").unwrap_err(),
            "line 2: unknown query kind 'frobnicate'"
        );
        assert!(parse_workload("bfs").unwrap_err().starts_with("line 1"));
        assert!(parse_workload("bfs x").unwrap_err().contains("bad vertex"));
        assert!(parse_workload("bfs 1 deadline=soon")
            .unwrap_err()
            .contains("bad deadline"));
        assert!(parse_workload("bfs 1 asap").unwrap_err().contains("asap"));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50), 50);
        assert_eq!(percentile(&sorted, 99), 99);
        assert_eq!(percentile(&sorted, 0), 1);
        assert_eq!(percentile(&sorted, 100), 100);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 99), 7);
    }

    fn small_engine(threads: usize) -> ServeEngine<NativeMachine> {
        ServeEngine::new(
            NativeMachine::new(threads),
            uniform_random(256, 1024, 8, 42),
            EngineOptions::default(),
        )
    }

    #[test]
    fn bombard_is_deterministic_in_process() {
        let opts = BombardOptions {
            queries: 128,
            clients: 16,
            seed: 99,
            mix: Mix::Default,
        };
        let a = bombard(&mut small_engine(4), &opts);
        let b = bombard(&mut small_engine(4), &opts);
        assert_eq!(a, b, "same seed, same graph → identical outcome stream");
        let ta = summarize(&a, 4).to_tsv();
        let tb = summarize(&b, 4).to_tsv();
        assert_eq!(ta, tb);
    }

    #[test]
    fn sssp_heavy_mix_batches_multi_source_sweeps() {
        let opts = BombardOptions {
            queries: 128,
            clients: 16,
            seed: 9,
            mix: Mix::SsspHeavy,
        };
        let outcomes = bombard(&mut small_engine(4), &opts);
        assert!(outcomes.iter().all(|(_, o)| o.is_ok()));
        let batched = outcomes
            .iter()
            .filter(|(q, o)| {
                q.kind == QueryKind::Sssp && matches!(o, Ok(r) if r.batched > 1 && !r.cached)
            })
            .count();
        assert!(
            batched > 0,
            "sssp-heavy stream must trigger multi-source SSSP batching"
        );
        let again = bombard(&mut small_engine(4), &opts);
        assert_eq!(outcomes, again, "sssp-heavy stream is deterministic");
    }

    #[test]
    fn bombard_exercises_cache_and_serves_everything() {
        let mut engine = small_engine(4);
        let opts = BombardOptions {
            queries: 256,
            clients: 16,
            seed: 5,
            mix: Mix::Default,
        };
        let outcomes = bombard(&mut engine, &opts);
        assert_eq!(outcomes.len(), 256, "every issued query gets an outcome");
        assert!(outcomes.iter().all(|(_, o)| o.is_ok()));
        assert!(
            engine.stats().cache_hits > 0,
            "hot set must produce cache reuse"
        );
    }

    #[test]
    fn workload_replay_preserves_order_under_backpressure() {
        let mut engine = ServeEngine::new(
            NativeMachine::new(2),
            uniform_random(64, 256, 8, 1),
            EngineOptions {
                queue_capacity: 4,
                batch_max: 4,
                ..EngineOptions::default()
            },
        );
        let queries: Vec<Query> = (0..20).map(|v| Query::new(QueryKind::Bfs, v)).collect();
        let outcomes = run_workload(&mut engine, &queries);
        let replayed: Vec<Query> = outcomes.iter().map(|(q, _)| q.clone()).collect();
        assert_eq!(replayed, queries);
    }

    #[test]
    fn summary_table_shape() {
        let mut engine = small_engine(2);
        let outcomes = run_workload(
            &mut engine,
            &[
                Query::new(QueryKind::Bfs, 1),
                Query::new(QueryKind::Bfs, 1),
                Query::new(QueryKind::Sssp, 2),
                Query::new(QueryKind::Bfs, 9_999), // errors, still counted
            ],
        );
        let table = summarize(&outcomes, 2);
        assert_eq!(table.file_stem(), "serve");
        let tsv = table.to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert!(lines[0].contains("p50_us"));
        // bfs + sssp + TOTAL (pagerank/centrality rows elided: no queries).
        assert_eq!(lines.len(), 4);
        let total = lines[3].split('\t').collect::<Vec<_>>();
        assert_eq!(total[0], "TOTAL");
        assert_eq!(total[1], "4");
        assert_eq!(total[2], "3");
        assert_eq!(total[5], "1");
    }
}
