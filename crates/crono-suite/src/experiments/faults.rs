//! Fault-injection sweep: completion-time degradation under rising
//! fault rates (`crono faults`).
//!
//! For each benchmark the sweep runs the simulator with a
//! [`FaultPlan`] at every rate in the sweep (rate 0 first — the
//! fault-free baseline) and tabulates the simulated completion time,
//! the slowdown relative to the baseline, and the injected-event
//! counters (NoC retransmits, DRAM ECC corrections/detections, core
//! stalls). All runs execute under the deterministic sequencer, so a
//! fixed seed gives byte-identical TSVs across invocations (each starts
//! on a fresh thread's address space; later runs on one thread see
//! shifted symbolic addresses).
//!
//! With a [`Checkpoint`] attached, every point runs through
//! [`checkpoint::cell`](cell): a finished point is persisted atomically,
//! and a re-run (`--resume`) replays the points already done and writes
//! the same table as an uninterrupted run.

use std::convert::Infallible;

use crate::checkpoint::{cell, CellValue, Checkpoint};
use crate::report::{f2, Table};
use crate::runner::run_parallel;
use crate::scale::Scale;
use crate::workload::Workload;
use crono_algos::Benchmark;
use crono_runtime::FaultCounters;
use crono_sim::{FaultPlan, SimConfig, SimMachine};

/// The full rate sweep: fault-free baseline, then per-event fault
/// probabilities rising by decades into clearly-degraded territory.
pub const RATES: [f64; 5] = [0.0, 1e-5, 1e-4, 1e-3, 1e-2];

/// The `--quick` sweep for CI smoke runs: the baseline plus one rate
/// high enough to guarantee visible fault counts on a tiny workload.
pub const QUICK_RATES: [f64; 2] = [0.0, 0.05];

/// Knobs of the faults sweep.
#[derive(Debug, Clone)]
pub struct FaultsConfig {
    /// Seed of every [`FaultPlan`] in the sweep.
    pub seed: u64,
    /// Simulated thread count (clamped to the config's core count).
    pub threads: usize,
    /// Use [`QUICK_RATES`] and only BFS (CI smoke mode).
    pub quick: bool,
}

impl Default for FaultsConfig {
    fn default() -> Self {
        FaultsConfig {
            seed: 42,
            threads: 16,
            quick: false,
        }
    }
}

/// One completed sweep point, as cached in the checkpoint.
#[derive(Debug, Clone, Copy)]
struct Point {
    completion: u64,
    faults: FaultCounters,
}

impl CellValue for Point {
    fn encode(&self) -> String {
        format!(
            "{} {} {} {} {} {}",
            self.completion,
            self.faults.noc_retransmits,
            self.faults.dram_ecc_corrected,
            self.faults.dram_ecc_detected,
            self.faults.core_stalls,
            self.faults.core_stall_cycles
        )
    }

    fn decode(s: &str) -> Option<Point> {
        let mut it = s.split_ascii_whitespace().map(str::parse::<u64>);
        let mut next = || it.next()?.ok();
        Some(Point {
            completion: next()?,
            faults: FaultCounters {
                noc_retransmits: next()?,
                dram_ecc_corrected: next()?,
                dram_ecc_detected: next()?,
                core_stalls: next()?,
                core_stall_cycles: next()?,
                // The transient sweep never arms permanent faults, so
                // the permanent counters are not checkpointed.
                ..FaultCounters::default()
            },
        })
    }
}

/// One table: per (benchmark, fault rate), completion cycles, slowdown
/// over the fault-free baseline, and the injected-event counters.
/// Finished points are recorded in `ckpt` (when given) and replayed on
/// a later resumed run.
pub fn generate(
    scale: &Scale,
    config: &SimConfig,
    fc: &FaultsConfig,
    progress: bool,
    mut ckpt: Option<&mut Checkpoint>,
) -> Table {
    let rates: &[f64] = if fc.quick { &QUICK_RATES } else { &RATES };
    let benches: &[Benchmark] = if fc.quick {
        &[Benchmark::Bfs]
    } else {
        &[Benchmark::Bfs, Benchmark::SsspDijk, Benchmark::PageRank]
    };
    let threads = fc.threads.min(config.num_cores).max(1);
    let mut table = Table::new(
        "Faults: completion-time degradation under injected fault rates",
        vec![
            "Benchmark".to_string(),
            "Rate".to_string(),
            "Completion".to_string(),
            "Slowdown".to_string(),
            "NocRetx".to_string(),
            "EccCorrected".to_string(),
            "EccDetected".to_string(),
            "CoreStalls".to_string(),
            "StallCycles".to_string(),
        ],
    );
    let w = Workload::synthetic(scale);
    for &bench in benches {
        let mut baseline: Option<u64> = None;
        for &rate in rates {
            let key = format!(
                "{}|v{}|c{}|s{}|t{}|r{rate}",
                bench.label(),
                scale.sparse_vertices,
                config.num_cores,
                fc.seed,
                threads
            );
            let label =
                progress.then(|| format!("[faults] {bench} rate={rate}: {threads} threads"));
            let Ok(point) = cell(ckpt.as_deref_mut(), &key, label.as_deref(), || {
                let plan = FaultPlan::scaled(fc.seed, rate);
                let machine = SimMachine::new(config.clone(), threads).fault_plan(plan);
                let report = run_parallel(bench, &machine, &w, None);
                Ok::<_, Infallible>(Point {
                    completion: report.completion,
                    faults: report.faults,
                })
            });
            let base = *baseline.get_or_insert(point.completion);
            let slowdown = if base == 0 {
                f2(0.0)
            } else {
                f2(point.completion as f64 / base as f64)
            };
            table.push_row(vec![
                bench.label().to_string(),
                format!("{rate}"),
                point.completion.to_string(),
                slowdown,
                point.faults.noc_retransmits.to_string(),
                point.faults.dram_ecc_corrected.to_string(),
                point.faults.dram_ecc_detected.to_string(),
                point.faults.core_stalls.to_string(),
                point.faults.core_stall_cycles.to_string(),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn quick_config() -> FaultsConfig {
        FaultsConfig {
            seed: 42,
            threads: 8,
            quick: true,
        }
    }

    #[test]
    fn quick_sweep_shows_baseline_and_degradation() {
        let t = generate(
            &Scale::test(),
            &SimConfig::tiny(16),
            &quick_config(),
            false,
            None,
        );
        assert_eq!(t.file_stem(), "faults");
        // 1 quick benchmark x 2 rates.
        assert_eq!(t.rows.len(), 2);
        let base = &t.rows[0];
        let faulty = &t.rows[1];
        assert_eq!(base[1], "0");
        assert_eq!(base[3], "1.00", "rate 0 is its own baseline");
        // The fault-free baseline injects nothing.
        assert!(base[4..].iter().all(|c| c == "0"), "{base:?}");
        // Rate 0.05 on even a tiny workload must hit some traversals.
        let retx: u64 = faulty[4].parse().unwrap();
        assert!(retx > 0, "{faulty:?}");
        // Faults only ever add simulated latency, but consecutive
        // runs on one thread shift the symbolic address base (a few % of
        // timing), so only gross inversions would be a real bug here.
        // The strict ordering guarantee is pinned in crono-sim's
        // fault_injection_slows_the_run_and_counts_events, which shares
        // one address layout across the clean and faulty runs.
        let slowdown: f64 = faulty[3].parse().unwrap();
        assert!(slowdown > 0.9, "faulty run implausibly fast: {faulty:?}");
    }

    #[test]
    fn checkpointed_points_are_reused_on_resume() {
        let path =
            std::env::temp_dir().join(format!("crono-faults-resume-{}.tsv", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let scale = Scale::test();
        let config = SimConfig::tiny(16);
        let fc = quick_config();
        let mut ck = Checkpoint::open(&path).unwrap();
        let first = generate(&scale, &config, &fc, false, Some(&mut ck));
        assert_eq!(ck.len(), 2, "every point checkpointed");
        // Tamper with one cached point: a resumed run must trust the
        // checkpoint (proving it skipped the simulation), so the planted
        // value shows up verbatim in the regenerated table.
        let keys: Vec<String> = (0..2)
            .map(|i| {
                format!(
                    "BFS|v{}|c{}|s{}|t{}|r{}",
                    scale.sparse_vertices,
                    config.num_cores,
                    fc.seed,
                    fc.threads.min(config.num_cores),
                    QUICK_RATES[i]
                )
            })
            .collect();
        let mut ck = Checkpoint::open(&path).unwrap();
        assert!(ck.get(&keys[0]).is_some(), "key format matches generate()");
        ck.record(&keys[1], "@1048576 999999 7 0 0 0 0").unwrap();
        let resumed = generate(&scale, &config, &fc, false, Some(&mut ck));
        assert_eq!(resumed.rows[1][2], "999999");
        assert_eq!(resumed.rows[1][4], "7");
        // Untouched rows are identical to the first run.
        assert_eq!(resumed.rows[0], first.rows[0]);
        std::fs::remove_file(&path).unwrap();
    }

    /// Interrupted after its first point, the `--quick` sweep resumes to
    /// the table an uninterrupted sweep writes. Each half runs on a fresh
    /// thread, as each `crono faults` run starts in a fresh process.
    #[test]
    fn resumed_sweep_writes_the_uninterrupted_table() {
        let path = std::env::temp_dir().join(format!(
            "crono-faults-interrupted-{}.tsv",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let sweep = |path: PathBuf| {
            std::thread::spawn(move || {
                let mut ck = Checkpoint::open(path).unwrap();
                let (scale, config) = (Scale::test(), SimConfig::tiny(16));
                generate(&scale, &config, &quick_config(), false, Some(&mut ck)).to_tsv()
            })
            .join()
            .expect("sweep thread")
        };
        let uninterrupted = sweep(path.clone());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{}\n", text.lines().next().unwrap())).unwrap();
        assert_eq!(sweep(path.clone()), uninterrupted);
        std::fs::remove_file(&path).unwrap();
    }
}
