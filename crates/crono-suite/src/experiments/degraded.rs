//! Degraded-mode serving sweep: the bombard load generator drives the
//! [`ServeEngine`] on the *simulated* machine while permanent faults
//! take components away (`crono faults --degraded`).
//!
//! Four phases run the identical seeded query stream against a fresh
//! engine each, accumulating faults:
//!
//! 1. **healthy** — no faults, the baseline.
//! 2. **link-down** — one mesh link is dead from cycle 0. O1TURN
//!    routing detours around it (extra hops, visible latency); XY
//!    dimension-ordered routing cannot, and the sweep aborts with the
//!    backend's typed unroutable error instead of hanging.
//! 3. **link+core-down** — additionally, one of the serving cores dies
//!    mid-batch ([`DEAD_CORE_CYCLE`]). The engine drains each batch with
//!    the counter-terminated `TaskPool::take`, so the dead core's queued
//!    queries migrate to the survivors instead of cancelling — the phase
//!    must serve *every* query.
//! 4. **link+core+dram-down** — additionally, one DRAM controller is
//!    dead from cycle 0; its lines re-home to the survivors with
//!    permanently higher queueing.
//!
//! Latency here is the serving engine's cycle-clock delta (see
//! [`ThreadCtx::cycles`](crono_runtime::ThreadCtx::cycles)): detour
//! hops, re-homed DRAM queueing, and survivor contention all land in
//! the p50/p99 columns even though they retire no extra instructions.
//! Throughput is the idealized rate of the *surviving* workers retiring
//! the observed costs back-to-back, so losing a core shows up even when
//! per-query costs barely move. Each phase's p99 is checked against the
//! sweep's SLO; the TSV is byte-identical across fresh processes (the
//! sequenced simulator plus a pure seeded query stream).

use crate::engine::{EngineOptions, QueryError, ServeEngine};
use crate::report::{f2, Table};
use crate::scale::Scale;
use crate::serve::{bombard, BombardOptions, Mix, Outcomes};
use crate::workload::Workload;
use crono_sim::{FaultPlan, LinkDir, RoutingPolicy, SimConfig, SimMachine};

/// Simulated cycle at which the serving core dies in the core-down
/// phases. Batches on the test-scale graph run much longer than this,
/// so the core dies *mid-batch*, with queries queued on its deque.
pub const DEAD_CORE_CYCLE: u64 = 25_000;

/// Router whose east link dies in the link-down phases (row 1, col 1 of
/// the tiny 4x4 mesh — a high-traffic interior link).
pub const DEAD_LINK_ROUTER: usize = 5;

/// The core that dies: with the sweep's 4 threads on the tiny(16)
/// mesh's stride-4 placement, core 4 runs serving thread 1.
pub const DEAD_CORE: usize = 4;

/// The DRAM controller that dies (tiny(16) has 8, on the even cores;
/// controller 3 sits at core 6).
pub const DEAD_DRAM_CTRL: usize = 3;

/// Knobs of the degraded-mode serving sweep.
#[derive(Debug, Clone)]
pub struct DegradedConfig {
    /// Seed of the bombard query stream (each phase replays it).
    pub seed: u64,
    /// Serving threads on the simulated machine.
    pub threads: usize,
    /// Queries issued per phase.
    pub queries: usize,
    /// Closed-loop bombard clients.
    pub clients: usize,
    /// The serving SLO: every phase's p99 latency (modeled
    /// microseconds at 1 GHz) must stay at or under this.
    pub slo_p99_us: f64,
    /// Mesh routing policy. O1TURN survives the dead link by detouring;
    /// XY cannot and the sweep reports the typed unroutable error.
    pub routing: RoutingPolicy,
}

impl Default for DegradedConfig {
    fn default() -> Self {
        DegradedConfig {
            seed: 42,
            threads: 4,
            queries: 192,
            clients: 16,
            // Calibrated at ~2x the default sweep's worst observed
            // phase p99 (~770 us, dominated by the first batch paying
            // for its on-pool PageRank snapshot build — serving latency
            // since PR 10, not free host work): degradation is visible
            // in the table but a healthy run never flirts with the
            // limit.
            slo_p99_us: 1500.0,
            routing: RoutingPolicy::O1Turn,
        }
    }
}

/// One phase of the sweep: a label and the faults armed for it.
struct Phase {
    label: &'static str,
    plan: Option<FaultPlan>,
    /// Workers still alive in this phase (QPS is survivor-based).
    workers: usize,
}

fn phases(dc: &DegradedConfig) -> Vec<Phase> {
    let base = FaultPlan::zero(dc.seed);
    let link = base.with_dead_link(DEAD_LINK_ROUTER, LinkDir::East, 0);
    let core = link.with_dead_core(DEAD_CORE, DEAD_CORE_CYCLE);
    let dram = core.with_dead_dram_ctrl(DEAD_DRAM_CTRL, 0);
    vec![
        Phase {
            label: "healthy",
            plan: None,
            workers: dc.threads,
        },
        Phase {
            label: "link-down",
            plan: Some(link),
            workers: dc.threads,
        },
        Phase {
            label: "link+core-down",
            plan: Some(core),
            workers: dc.threads.saturating_sub(1).max(1),
        },
        Phase {
            label: "link+core+dram-down",
            plan: Some(dram),
            workers: dc.threads.saturating_sub(1).max(1),
        },
    ]
}

/// Per-phase tallies over the bombard outcome stream.
struct PhaseStats {
    queries: u64,
    ok: u64,
    cache_hits: u64,
    errors: u64,
    costs: Vec<u64>,
}

impl PhaseStats {
    /// Tallies the stream. A cancellation naming a dead link is the
    /// routing policy failing the whole sweep, not a per-query error:
    /// the caller aborts with it (the `--routing xy` typed-error path).
    fn collect(outcomes: &Outcomes) -> Result<PhaseStats, String> {
        let mut s = PhaseStats {
            queries: 0,
            ok: 0,
            cache_hits: 0,
            errors: 0,
            costs: Vec::new(),
        };
        for (_, o) in outcomes {
            s.queries += 1;
            match o {
                Ok(r) => {
                    s.ok += 1;
                    if r.cached {
                        s.cache_hits += 1;
                    }
                    s.costs.push(r.cost);
                }
                Err(QueryError::Cancelled(msg)) if msg.contains("dead") && msg.contains("link") => {
                    return Err(msg.clone());
                }
                Err(_) => s.errors += 1,
            }
        }
        s.costs.sort_unstable();
        Ok(s)
    }

    /// Nearest-rank percentile in modeled microseconds (1 GHz).
    fn p_us(&self, p: usize) -> f64 {
        if self.costs.is_empty() {
            return f64::INFINITY;
        }
        self.costs[(self.costs.len() - 1) * p / 100] as f64 / 1_000.0
    }

    /// Idealized QPS of `workers` survivors retiring the observed costs
    /// back-to-back at 1 GHz.
    fn qps(&self, workers: usize) -> f64 {
        let total: u64 = self.costs.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.ok as f64 * workers as f64 * 1e9 / total as f64
    }
}

/// The routing policy's CLI/TSV name.
fn routing_name(r: RoutingPolicy) -> &'static str {
    match r {
        RoutingPolicy::XyDimensionOrder => "xy",
        RoutingPolicy::O1Turn => "o1turn",
    }
}

/// Runs the four-phase degraded serving sweep and tabulates per-phase
/// latency, throughput, and the SLO verdict.
///
/// # Errors
///
/// When the routing policy cannot survive the dead link (XY dimension
/// order), the error carries the backend's typed unroutable detail; the
/// CLI exits nonzero with it. I/O-free otherwise.
pub fn generate(dc: &DegradedConfig, progress: bool) -> Result<Table, String> {
    let scale = Scale::test();
    let mut config = SimConfig::tiny(16);
    config.mesh.routing = dc.routing;
    let threads = dc.threads.min(config.num_cores).max(1);
    let w = Workload::synthetic(&scale);
    let mut table = Table::new(
        format!(
            "Faults degraded: serving under permanent faults \
             (modeled 1 GHz, SLO p99 <= {} us)",
            f2(dc.slo_p99_us)
        ),
        vec![
            "Phase".to_string(),
            "Routing".to_string(),
            "Workers".to_string(),
            "Queries".to_string(),
            "OK".to_string(),
            "Errors".to_string(),
            "CacheHits".to_string(),
            "p50_us".to_string(),
            "p99_us".to_string(),
            "QPS".to_string(),
            "SLO".to_string(),
        ],
    );
    for phase in phases(dc) {
        if progress {
            eprintln!(
                "[degraded] {}: {} queries on {threads} threads ({})",
                phase.label,
                dc.queries,
                routing_name(dc.routing)
            );
        }
        // Attaching a fault plan already forces the deterministic
        // sequencer; the healthy baseline must opt in, or task-steal
        // races make its per-query costs wobble across processes.
        let machine = match phase.plan {
            Some(plan) => SimMachine::new(config.clone(), threads).fault_plan(plan),
            None => SimMachine::new(config.clone(), threads).deterministic(),
        };
        let mut engine = ServeEngine::new(
            machine,
            w.graph.clone(),
            EngineOptions {
                pagerank_iters: w.pagerank_iters,
                ..EngineOptions::default()
            },
        );
        let outcomes = bombard(
            &mut engine,
            &BombardOptions {
                queries: dc.queries,
                clients: dc.clients,
                seed: dc.seed,
                mix: Mix::Default,
            },
        );
        let stats = PhaseStats::collect(&outcomes).map_err(|detail| {
            format!(
                "phase {}: routing policy {:?} cannot serve around the dead link: {detail}",
                phase.label,
                routing_name(dc.routing)
            )
        })?;
        let p99 = stats.p_us(99);
        let slo = if p99 <= dc.slo_p99_us { "pass" } else { "FAIL" };
        table.push_row(vec![
            phase.label.to_string(),
            routing_name(dc.routing).to_string(),
            phase.workers.to_string(),
            stats.queries.to_string(),
            stats.ok.to_string(),
            stats.errors.to_string(),
            stats.cache_hits.to_string(),
            f2(stats.p_us(50)),
            f2(p99),
            f2(stats.qps(phase.workers)),
            slo.to_string(),
        ]);
    }
    Ok(table)
}

/// Renders the heatmap-diff artifact: one traced BFS run on the healthy
/// mesh and one with the dead link (same routing, same seed), each
/// aggregated into the per-router traffic TSV `crono heatmap` would
/// print. Diffing the two shows the detours: traffic drains off the
/// dead link's row and piles onto the sidestep routes.
///
/// # Errors
///
/// Propagates the heatmap aggregator's parse error (a trace without
/// router geometry), which cannot happen for the traces built here.
pub fn heatmap_pair(dc: &DegradedConfig) -> Result<(String, String), String> {
    use crate::runner::run_parallel;
    use crate::trace::{assemble, TraceBackend};
    use crono_algos::Benchmark;
    use crono_trace::{Heatmap, TraceConfig};

    let scale = Scale::test();
    let mut config = SimConfig::tiny(16);
    config.mesh.routing = dc.routing;
    let threads = dc.threads.min(config.num_cores).max(1);
    let w = Workload::synthetic(&scale);
    let trace_cfg = TraceConfig::default().noc_geometry(true);
    let run = |plan: Option<FaultPlan>| -> Result<String, String> {
        let mut machine = SimMachine::with_tracing(config.clone(), threads, trace_cfg);
        if let Some(p) = plan {
            machine = machine.fault_plan(p);
        }
        let report = run_parallel(Benchmark::Bfs, &machine, &w);
        let trace = assemble(Benchmark::Bfs, scale.name, TraceBackend::Sim, report);
        Heatmap::from_chrome_json(&trace.to_chrome_json())
            .map(|h| h.to_tsv())
            .map_err(|e| format!("heatmap aggregation: {e}"))
    };
    let healthy = run(None)?;
    let degraded = run(Some(
        FaultPlan::zero(dc.seed).with_dead_link(DEAD_LINK_ROUTER, LinkDir::East, 0),
    ))?;
    Ok((healthy, degraded))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> DegradedConfig {
        DegradedConfig {
            queries: 64,
            clients: 8,
            ..DegradedConfig::default()
        }
    }

    #[test]
    fn sweep_survives_every_phase_and_meets_the_slo() {
        let t = generate(&quick(), false).expect("o1turn survives the dead link");
        assert_eq!(t.file_stem(), "faults_degraded");
        assert_eq!(t.rows.len(), 4, "healthy + three degraded phases");
        for row in &t.rows {
            // Every phase answers every query: the fault-tolerant drain
            // migrates the dead core's backlog instead of cancelling it.
            assert_eq!(row[4], row[3], "phase {} dropped queries: {row:?}", row[0]);
            assert_eq!(row[5], "0", "phase {} had errors: {row:?}", row[0]);
            assert_eq!(row[10], "pass", "phase {} broke the SLO: {row:?}", row[0]);
        }
        // Losing a worker must show up in throughput: the core-down
        // phase reports strictly lower QPS than the link-down phase.
        let qps = |i: usize| t.rows[i][9].parse::<f64>().unwrap();
        assert!(
            qps(2) < qps(1),
            "dead core did not dent QPS: {} vs {}",
            qps(2),
            qps(1)
        );
    }

    #[test]
    fn xy_routing_reports_the_typed_unroutable_error() {
        let dc = DegradedConfig {
            routing: RoutingPolicy::XyDimensionOrder,
            ..quick()
        };
        let err = generate(&dc, false).expect_err("xy cannot route around the dead link");
        assert!(
            err.contains("dead east link") && err.contains("router 5"),
            "error must carry the typed route detail: {err}"
        );
    }

    #[test]
    fn heatmap_pair_shows_traffic_moving_off_the_dead_link() {
        let (healthy, degraded) = heatmap_pair(&quick()).expect("traced runs aggregate");
        assert_ne!(healthy, degraded, "the dead link must reshape traffic");
        // Both are rectangular TSVs with the same shape.
        let shape = |tsv: &str| {
            let lines: Vec<&str> = tsv.lines().collect();
            let cols = lines[0].split('\t').count();
            assert!(lines.iter().all(|l| l.split('\t').count() == cols));
            (lines.len(), cols)
        };
        assert_eq!(shape(&healthy), shape(&degraded));
    }
}
