//! `serve-sssp-heavy`: a closed loop of clients against `ServeEngine`.

use crate::metrics::Metrics;
use crate::spans::{Recorder, ALGOS, ENGINE, GRAPH};
use crate::stats::{median, tail_percentile};
use crate::THREADS;
use crono_algos::{bfs, pagerank, sssp};
use crono_graph::rng::SmallRng;
use crono_graph::{CsrGraph, VertexId};
use crono_runtime::{NativeMachine, RunOptions};
use crono_suite::engine::{checksum, Answer, EngineOptions, Query, QueryKind, ServeEngine};
use crono_suite::serve::{summarize, Outcomes};
use crono_suite::{Scale, Workload};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Closed-loop clients, each with one query in flight.
pub const CLIENTS: usize = 32;
/// Queries per pass; each pass serves them on a fresh engine.
pub const PASS_QUERIES: usize = 1024;
/// Fewest passes per run: 4096 queries, enough for a p99 with ten
/// samples beyond it and 128 batches for the batch p90.
pub const MIN_PASSES: usize = 4;
/// Hot-set size: a quarter of queries target these vertices.
const HOT_SET: usize = 8;
/// One answer in this many is checked against a sequential reference.
const CHECK_EVERY: u32 = 16;

/// The `crono bombard --mix sssp-heavy` query stream: per query one
/// kind draw (20% BFS / 60% SSSP / 20% PageRank), one hot/cold draw and
/// one vertex draw, from a seeded generator.
pub struct LoadGen {
    rng: SmallRng,
    hot: Vec<VertexId>,
    n: u32,
}

impl LoadGen {
    /// A stream over `n` vertices.
    pub fn new(seed: u64, n: usize) -> LoadGen {
        let n = n as u32;
        let mut rng = SmallRng::seed_from_u64(seed);
        let hot = (0..HOT_SET).map(|_| rng.random_range(0..n)).collect();
        LoadGen { rng, hot, n }
    }

    /// The next query of the stream.
    pub fn next_query(&mut self) -> Query {
        let kind = match self.rng.random_range(0..10u32) {
            0..=1 => QueryKind::Bfs,
            2..=7 => QueryKind::Sssp,
            _ => QueryKind::PageRank,
        };
        let vertex = if self.rng.random_range(0..4u32) == 0 {
            self.hot[self.rng.random_range(0..HOT_SET as u32) as usize]
        } else {
            self.rng.random_range(0..self.n)
        };
        Query::new(kind, vertex)
    }
}

/// Wall-clock view of one closed-loop session.
#[derive(Debug, Default)]
pub struct Session {
    /// Every outcome, in admission order.
    pub outcomes: Outcomes,
    /// Per query: submit → end of the `run_batch` that answered it.
    pub latency_s: Vec<f64>,
    /// Per query: submit → start of the `run_batch` that drained it.
    pub queue_wait_s: Vec<f64>,
    /// Per batch: duration of `run_batch`.
    pub batch_s: Vec<f64>,
    /// Submits the engine refused.
    pub refused: u64,
}

/// Serves `queries` queries from `gen` with `clients` closed-loop
/// clients, calling only `submit`, `run_batch` and `queued`. A batch is
/// drained when every client is waiting or the engine refuses a submit,
/// exactly as `serve::bombard` does.
pub fn closed_loop(
    engine: &mut ServeEngine<NativeMachine>,
    gen: &mut LoadGen,
    queries: usize,
    clients: usize,
    rec: &mut Recorder,
) -> Session {
    let mut s = Session::default();
    let mut submitted: VecDeque<Instant> = VecDeque::new();
    let mut in_flight = 0usize;
    for _ in 0..queries {
        let q = gen.next_query();
        loop {
            if in_flight < clients {
                let at = Instant::now();
                if rec
                    .span(ENGINE, "submit", || engine.submit(q.clone()))
                    .is_ok()
                {
                    submitted.push_back(at);
                    in_flight += 1;
                    break;
                }
                s.refused += 1;
            }
            let drained = serve_batch(engine, &mut s, &mut submitted, rec);
            in_flight -= drained.min(in_flight);
        }
    }
    while engine.queued() > 0 {
        serve_batch(engine, &mut s, &mut submitted, rec);
    }
    s
}

/// Drains one batch, timing it and each answered query; returns how
/// many queries it answered.
fn serve_batch(
    engine: &mut ServeEngine<NativeMachine>,
    s: &mut Session,
    submitted: &mut VecDeque<Instant>,
    rec: &mut Recorder,
) -> usize {
    let start = Instant::now();
    let batch = rec.span(ENGINE, "run_batch", || engine.run_batch());
    let end = Instant::now();
    s.batch_s.push((end - start).as_secs_f64());
    for _ in &batch.outcomes {
        let at = submitted.pop_front().expect("every answer was submitted");
        s.queue_wait_s.push((start - at).as_secs_f64());
        s.latency_s.push((end - at).as_secs_f64());
    }
    let drained = batch.outcomes.len();
    s.outcomes.extend(batch.outcomes);
    drained
}

/// The served graph plus memoized sequential answers for spot checks.
pub struct Setup {
    /// The served graph.
    pub graph: CsrGraph,
    ranks: Vec<f64>,
    seed: u64,
}

/// The graph of `Workload::synthetic(&Scale::small())` at `seed`.
pub fn generate(seed: u64) -> CsrGraph {
    Workload::synthetic(&Scale {
        seed,
        ..Scale::small()
    })
    .graph
}

/// Generates the graph and the PageRank reference.
pub fn setup(seed: u64, rec: &mut Recorder) -> (Setup, f64) {
    let start = Instant::now();
    let graph = rec.span(GRAPH, "generate", || generate(seed));
    let gen_s = start.elapsed().as_secs_f64();
    let iters = EngineOptions::default().pagerank_iters;
    let ranks = rec.span(ALGOS, "ref:pagerank", || pagerank::reference(&graph, iters));
    (Setup { graph, ranks, seed }, gen_s)
}

/// A fresh engine on the setup's graph.
pub fn engine(s: &Setup) -> ServeEngine<NativeMachine> {
    ServeEngine::new(
        NativeMachine::new(THREADS),
        s.graph.clone(),
        EngineOptions::default(),
    )
}

/// Checks a seeded sample of answers against `engine::checksum` of the
/// sequential BFS/SSSP vectors and the PageRank reference; returns how
/// many were wrong or failed.
pub fn check(s: &Setup, session: &Session, memo: &mut HashMap<(QueryKind, VertexId), u64>) -> u64 {
    let one = NativeMachine::new(1);
    let mut pick = SmallRng::seed_from_u64(s.seed ^ 0xC4EC);
    let mut failed = session.refused;
    for (q, outcome) in &session.outcomes {
        let sampled = pick.random_range(0..CHECK_EVERY) == 0;
        let Ok(resp) = outcome else {
            failed += 1;
            continue;
        };
        if !sampled {
            continue;
        }
        let mut want = |kind| {
            *memo.entry((kind, q.vertex)).or_insert_with(|| match kind {
                QueryKind::Bfs => checksum(&bfs::sequential(&one, &s.graph, q.vertex).output.level),
                _ => checksum(&sssp::sequential(&one, &s.graph, q.vertex).output.dist),
            })
        };
        let ok = match &resp.answer {
            Answer::Bfs { checksum: c, .. } => {
                q.kind == QueryKind::Bfs && *c == want(QueryKind::Bfs)
            }
            Answer::Sssp { checksum: c, .. } => {
                q.kind == QueryKind::Sssp && *c == want(QueryKind::Sssp)
            }
            Answer::PageRank { rank, .. } => *rank == s.ranks[q.vertex as usize],
            Answer::Centrality { .. } => false,
        };
        failed += u64::from(!ok);
    }
    failed
}

/// The modeled TOTAL row of `serve::summarize`: (qps, p99 µs).
pub fn modeled_total(outcomes: &Outcomes) -> (f64, f64) {
    let tsv = summarize(outcomes, THREADS).to_tsv();
    let total = tsv
        .lines()
        .find(|l| l.starts_with("TOTAL"))
        .expect("summary has a TOTAL row");
    let cols: Vec<&str> = total.split('\t').collect();
    let num = |i: usize| cols[i].parse::<f64>().expect("numeric summary column");
    (num(8), num(7))
}

/// Process CPU seconds (user + system) from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks of 1/100 s.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Aggregates of a run's serve passes.
#[derive(Debug, Default)]
pub struct Totals {
    /// Every pass's wall time.
    pub pass_s: Vec<f64>,
    /// Every pass's summed `run_batch` time.
    pub region_s: Vec<f64>,
    /// Every pass's summed modeled cost, in instructions.
    pub modeled_instr: Vec<u64>,
    latency_s: Vec<f64>,
    queue_wait_s: Vec<f64>,
    batch_s: Vec<f64>,
    batches_per_pass: u64,
    answered: u64,
    cache_hits: u64,
    batched: u64,
    modeled: (f64, f64),
    cpu_s: f64,
    /// Answered plus failed queries.
    pub attempted: u64,
    /// Refused submits, query errors and wrong sampled answers.
    pub failed: u64,
}

/// Runs one pass on a fresh engine and folds it into `t`.
pub fn pass(
    s: &Setup,
    t: &mut Totals,
    memo: &mut HashMap<(QueryKind, VertexId), u64>,
    rec: &mut Recorder,
) {
    let mut engine = engine(s);
    let mut gen = LoadGen::new(s.seed, s.graph.num_vertices());
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let session = closed_loop(&mut engine, &mut gen, PASS_QUERIES, CLIENTS, rec);
    t.pass_s.push(start.elapsed().as_secs_f64());
    t.cpu_s += cpu_seconds() - cpu0;
    t.region_s.push(session.batch_s.iter().sum());
    let ok = session.outcomes.iter().filter_map(|(_, o)| o.as_ref().ok());
    t.modeled_instr.push(ok.map(|r| r.cost).sum());
    let stats = engine.stats();
    t.batches_per_pass = stats.batches;
    t.answered += stats.served;
    t.cache_hits += stats.cache_hits;
    t.batched += session
        .outcomes
        .iter()
        .filter(|(_, o)| matches!(o, Ok(r) if r.batched > 1 && !r.cached))
        .count() as u64;
    t.modeled = modeled_total(&session.outcomes);
    t.attempted += session.outcomes.len() as u64 + session.refused;
    t.failed += check(s, &session, memo);
    t.latency_s.extend(&session.latency_s);
    t.queue_wait_s.extend(&session.queue_wait_s);
    t.batch_s.extend(&session.batch_s);
}

/// Engine layer metrics from a run's passes.
pub fn layer_metrics(s: &Setup, t: &Totals, out: &mut Metrics) {
    let pct = |v: &[f64], p: f64| {
        1e3 * tail_percentile(v, p)
            .unwrap_or_else(|| panic!("too few samples ({}) for a p{p}", v.len()))
    };
    let wall_s: f64 = t.pass_s.iter().sum();
    let e = |name: &str| format!("crono-suite.engine.{name}");
    out.put(e("wall_qps"), t.latency_s.len() as f64 / wall_s);
    out.put(e("wall_p50_ms"), pct(&t.latency_s, 50.0));
    out.put(e("wall_p99_ms"), pct(&t.latency_s, 99.0));
    out.put(e("batch_ms_p50"), pct(&t.batch_s, 50.0));
    out.put(e("batch_ms_p90"), pct(&t.batch_s, 90.0));
    out.put(e("queue_wait_ms_p50"), pct(&t.queue_wait_s, 50.0));
    out.put(e("queue_wait_ms_p99"), pct(&t.queue_wait_s, 99.0));
    out.put(e("batches_per_pass"), t.batches_per_pass as f64);
    out.put(e("answered"), t.answered as f64);
    out.put(e("cache_hits"), t.cache_hits as f64);
    out.put(
        e("cache_hit_ratio"),
        t.cache_hits as f64 / t.answered as f64,
    );
    out.put(e("batched"), t.batched as f64);
    out.put(e("batched_ratio"), t.batched as f64 / t.answered as f64);
    out.put(e("cpu_s"), t.cpu_s);
    out.put(e("wall_s"), wall_s);
    out.put(e("cpu_util"), t.cpu_s / wall_s);
    out.put(e("modeled_qps"), t.modeled.0);
    out.put(e("modeled_p99_us"), t.modeled.1);
    let machine = NativeMachine::new(THREADS);
    let iters = EngineOptions::default().pagerank_iters;
    let snapshot: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            pagerank::try_parallel_pull(&machine, &RunOptions::default(), &s.graph, iters)
                .expect("snapshot kernel runs");
            start.elapsed().as_secs_f64()
        })
        .collect();
    out.put(e("pagerank_snapshot_s"), median(&snapshot));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crono_graph::gen::uniform_random;
    use crono_suite::serve::{bombard, BombardOptions, Mix};

    fn small_engine() -> ServeEngine<NativeMachine> {
        ServeEngine::new(
            NativeMachine::new(THREADS),
            uniform_random(512, 4096, 16, 3),
            EngineOptions::default(),
        )
    }

    #[test]
    fn load_generator_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut g = LoadGen::new(seed, 1000);
            (0..256).map(|_| g.next_query()).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let kinds = draw(5);
        let sssp = kinds.iter().filter(|q| q.kind == QueryKind::Sssp).count();
        assert!((100..200).contains(&sssp), "about 60% SSSP, got {sssp}/256");
    }

    #[test]
    fn closed_loop_reproduces_bombard_total_row() {
        let opts = BombardOptions {
            queries: 512,
            clients: CLIENTS,
            seed: 7,
            mix: Mix::SsspHeavy,
        };
        let theirs = bombard(&mut small_engine(), &opts);
        let mut engine = small_engine();
        let mut gen = LoadGen::new(7, engine.graph().num_vertices());
        let mut rec = Recorder::new(false);
        let ours = closed_loop(&mut engine, &mut gen, 512, CLIENTS, &mut rec);
        assert_eq!(ours.outcomes, theirs);
        assert_eq!(modeled_total(&ours.outcomes), modeled_total(&theirs));
        let total = |o: &Outcomes| {
            summarize(o, THREADS)
                .to_tsv()
                .lines()
                .last()
                .map(String::from)
        };
        assert_eq!(total(&ours.outcomes), total(&theirs));
        assert_eq!(ours.latency_s.len(), 512);
        assert_eq!(ours.queue_wait_s.len(), 512);
        assert_eq!(ours.refused, 0);
    }

    #[test]
    fn sampled_answers_pass_the_reference_check() {
        let graph = uniform_random(512, 4096, 16, 3);
        let iters = EngineOptions::default().pagerank_iters;
        let s = Setup {
            ranks: pagerank::reference(&graph, iters),
            graph,
            seed: 11,
        };
        let mut engine = engine(&s);
        let mut gen = LoadGen::new(11, 512);
        let session = closed_loop(
            &mut engine,
            &mut gen,
            256,
            CLIENTS,
            &mut Recorder::new(false),
        );
        assert_eq!(check(&s, &session, &mut HashMap::new()), 0);
        // A corrupted answer is caught when sampled.
        let mut bad = session;
        for (_, o) in &mut bad.outcomes {
            if let Ok(r) = o {
                r.answer = Answer::Centrality { centrality: 0 };
            }
        }
        assert!(check(&s, &bad, &mut HashMap::new()) > 0);
    }
}
