//! Ablation study: optimized kernel variants vs. paper-faithful
//! defaults (PR 3, extended by PR 5 with the task-parallel kernels).
//!
//! For every [`Ablation`] and each benchmark it applies to, this runs
//! the default and the optimized kernel at every swept thread count and
//! tabulates simulated completion times plus the optimized/default
//! speedup — characterizing the optimization exactly the way the paper
//! characterizes everything else (the figures themselves always use the
//! defaults). [`generate_native`] produces the same comparison on the
//! real-machine backend (wall-clock + MTEPS, fig9-style).
//!
//! Every `(ablation, benchmark, threads)` cell runs through
//! [`checkpoint::cell`](cell), so `crono ablation --resume` replays the
//! finished cells and writes the same table as an uninterrupted run.

use std::convert::Infallible;

use crate::checkpoint::{cell, Checkpoint};
use crate::report::{f2, Table};
use crate::runner::run_parallel;
use crate::scale::Scale;
use crate::workload::Workload;
use crono_algos::{Ablation, Benchmark};
use crono_graph::gen::{rmat, RmatParams};
use crono_runtime::NativeMachine;
use crono_sim::{SimConfig, SimMachine};

/// The canonical core sweep for the ablation comparison: spanning 1 to
/// 256 simulated cores (the paper's largest machine) regardless of the
/// scale preset, because the optimized kernels matter most at high core
/// counts where frontier scans and rank-lock contention dominate.
pub const CORE_SWEEP: [usize; 5] = [1, 4, 16, 64, 256];

/// Whether `ablation`'s table cells run under the deterministic
/// sequencer. The PR-5 task-parallel groups do — their kernels'
/// *timing* is schedule-sensitive (stealing order, bound arrival), so
/// determinism is what makes two `crono ablation` invocations
/// byte-identical, per-cell repeats redundant, and the CI `cmp` gate
/// possible. The GAP-class kernels (direction-optimizing BFS,
/// delta-stepping, Afforest) are likewise schedule-sensitive — frontier
/// claim order, bucket membership, and CAS hook races all move work
/// between threads — so they run deterministic too. The PR-3 groups
/// keep the cheaper lax mode + median-of-3.
fn deterministic_group(ablation: Ablation) -> bool {
    matches!(
        ablation,
        Ablation::TaskSteal
            | Ablation::LockfreeBound
            | Ablation::DiropBfs
            | Ablation::DeltaSssp
            | Ablation::AfforestCc
    )
}

/// `default / optimized`, the speedup or reduction cell (`0.00` when the
/// optimized count is zero).
fn ratio(default: u64, optimized: u64) -> String {
    if optimized == 0 {
        f2(0.0)
    } else {
        f2(default as f64 / optimized as f64)
    }
}

/// Pushes the default, optimized and speedup rows of one (ablation,
/// benchmark) comparison, one `[default, optimized]` cell per swept
/// thread count. With `mteps`, each row gains the native table's last
/// column: MTEPS of the top thread count's cell, or its speedup.
fn push_comparison(
    table: &mut Table,
    ablation: Ablation,
    bench_label: &str,
    cells: &[[u64; 2]],
    mteps: Option<&dyn Fn(u64) -> String>,
) {
    let label = |kernel: &str| {
        vec![
            ablation.name().to_string(),
            bench_label.to_string(),
            kernel.to_string(),
        ]
    };
    let mut default = label("default");
    default.extend(cells.iter().map(|c| c[0].to_string()));
    let mut optimized = label("optimized");
    optimized.extend(cells.iter().map(|c| c[1].to_string()));
    let mut speedup = label("speedup");
    speedup.extend(cells.iter().map(|&[d, o]| ratio(d, o)));
    if let Some(mteps) = mteps {
        let [d, o] = *cells.last().expect("swept");
        default.push(mteps(d));
        optimized.push(mteps(o));
        speedup.push(ratio(d, o));
    }
    for row in [default, optimized, speedup] {
        table.push_row(row);
    }
}

/// One table: per (ablation, benchmark), completion cycles of the
/// default and optimized kernels at each swept core count, plus the
/// speedup row (`default / optimized`, so > 1 means the optimization
/// wins on simulated time). `filter` restricts it to one ablation group
/// (`crono ablation --ablation NAME`), and each finished `(ablation,
/// benchmark, threads)` cell is recorded in `ckpt` so an interrupted
/// sweep can resume (`crono ablation --resume`).
pub fn generate(
    scale: &Scale,
    config: &SimConfig,
    filter: Option<Ablation>,
    progress: bool,
    mut ckpt: Option<&mut Checkpoint>,
) -> Table {
    let threads: Vec<usize> = CORE_SWEEP
        .iter()
        .copied()
        .filter(|&t| t <= config.num_cores)
        .collect();
    let mut table = Table::new(
        "Ablation kernels: simulated completion, default vs optimized",
        {
            let mut h = vec![
                "Ablation".to_string(),
                "Benchmark".to_string(),
                "Kernel".to_string(),
            ];
            h.extend(threads.iter().map(|t| format!("{t}t")));
            h
        },
    );
    let w = Workload::synthetic(scale);
    // Untraced (lax-mode) runs are nondeterministic, so each lax cell is
    // the median of three runs; deterministic groups are byte-identical
    // across repeats, so one run IS the median of any odd count.
    const REPS: usize = 3;
    let median = |mut xs: Vec<u64>| {
        xs.sort_unstable();
        xs[xs.len() / 2]
    };
    let mut emit = |ablation: Ablation, bench: Benchmark, bench_label: String, w: &Workload| {
        let deterministic = deterministic_group(ablation);
        let reps = if deterministic { 1 } else { REPS };
        let machine = |t: usize| {
            let m = SimMachine::new(config.clone(), t);
            if deterministic {
                m.deterministic()
            } else {
                m
            }
        };
        let mut cells = Vec::new();
        for &t in &threads {
            // Keyed on the *built* graph's vertex count, not the scale's
            // nominal one — the R-MAT input rounds up to a power of two.
            let key = format!(
                "ablation|{}|{bench_label}|v{}|c{}|t{t}",
                ablation.name(),
                w.graph.num_vertices(),
                config.num_cores
            );
            let label =
                progress.then(|| format!("[ablation] {ablation}/{bench_label}: {t} threads"));
            let Ok(c) = cell(ckpt.as_deref_mut(), &key, label.as_deref(), || {
                let base = median(
                    (0..reps)
                        .map(|_| run_parallel(bench, &machine(t), w, None).completion)
                        .collect(),
                );
                let opt = median(
                    (0..reps)
                        .map(|_| run_parallel(bench, &machine(t), w, Some(ablation)).completion)
                        .collect(),
                );
                Ok::<_, Infallible>([base, opt])
            });
            cells.push(c);
        }
        push_comparison(&mut table, ablation, &bench_label, &cells, None);
    };
    for ablation in Ablation::ALL {
        if filter.is_some_and(|f| f != ablation) {
            continue;
        }
        for &bench in ablation.benchmarks() {
            emit(ablation, bench, bench.label().to_string(), &w);
        }
    }
    // Direction-optimizing BFS targets low-diameter skewed graphs, where
    // pull levels stop hammering shared frontier lines — the synthetic
    // uniform workload above undersells it, so it is additionally
    // compared on an R-MAT graph, with the two counters the optimization
    // is *about* (L1 sharing misses and total NoC flit-hops) tabulated
    // alongside the completion rows.
    if filter.is_none() || filter == Some(Ablation::DiropBfs) {
        let rmat_w = {
            let lg = scale.sparse_vertices.next_power_of_two().trailing_zeros();
            let mut rw = Workload::synthetic(scale);
            rw.graph = rmat(lg, scale.sparse_edges, 4, RmatParams::default(), 13);
            rw
        };
        let bench_label = format!("{}/rmat", Benchmark::Bfs.label());
        emit(
            Ablation::DiropBfs,
            Benchmark::Bfs,
            bench_label.clone(),
            &rmat_w,
        );
        // Counter comparison: one deterministic run per cell (the same
        // run would already be byte-identical under the sequencer, so
        // repeats are redundant here too).
        let mut cells: Vec<[u64; 4]> = Vec::new();
        for &t in &threads {
            let key = format!(
                "ablation|dirop_bfs|{bench_label}:ctr|v{}|c{}|t{t}",
                rmat_w.graph.num_vertices(),
                config.num_cores
            );
            let label = progress
                .then(|| format!("[ablation] dirop_bfs/{bench_label} counters: {t} threads"));
            let Ok(c) = cell(ckpt.as_deref_mut(), &key, label.as_deref(), || {
                let machine = || SimMachine::new(config.clone(), t).deterministic();
                let base = run_parallel(Benchmark::Bfs, &machine(), &rmat_w, None);
                let opt = run_parallel(
                    Benchmark::Bfs,
                    &machine(),
                    &rmat_w,
                    Some(Ablation::DiropBfs),
                );
                Ok::<_, Infallible>([
                    base.misses.sharing_misses,
                    opt.misses.sharing_misses,
                    base.energy.router_flit_hops,
                    opt.energy.router_flit_hops,
                ])
            });
            cells.push(c);
        }
        let mut counter_row = |kernel: &str, pick: &dyn Fn(&[u64; 4]) -> String| {
            let mut row = vec![
                Ablation::DiropBfs.name().to_string(),
                bench_label.clone(),
                kernel.to_string(),
            ];
            row.extend(cells.iter().map(pick));
            table.push_row(row);
        };
        counter_row("default:l1_sharing", &|c| c[0].to_string());
        counter_row("optimized:l1_sharing", &|c| c[1].to_string());
        counter_row("reduction:l1_sharing", &|c| ratio(c[0], c[1]));
        counter_row("default:noc_flits", &|c| c[2].to_string());
        counter_row("optimized:noc_flits", &|c| c[3].to_string());
        counter_row("reduction:noc_flits", &|c| ratio(c[2], c[3]));
    }
    table
}

/// Elements "traversed" by one parallel run of `bench`, for MTEPS
/// (millions of traversed elements per second). Matrix kernels process
/// every matrix entry once per source (n³ relaxations); DFS traverses
/// the graph's directed edges. Branch-and-bound TSP has no stable
/// element count (pruning decides the work), so it reports none.
fn native_elements(bench: Benchmark, w: &Workload) -> Option<u64> {
    let n = w.matrix.num_vertices() as u64;
    match bench {
        Benchmark::Apsp | Benchmark::BetwCent => Some(n * n * n),
        Benchmark::Dfs => Some(w.graph.num_directed_edges() as u64),
        _ => None,
    }
}

/// The ablation comparison on the real-machine backend
/// (`crono ablation --backend native`): per (ablation, benchmark),
/// wall-clock nanoseconds of the default and optimized kernels at each
/// native thread count, the speedup row, and MTEPS at the highest
/// thread count — fig9-style validation that the simulator's ablation
/// trends hold on hardware. `filter` and `ckpt` work as in
/// [`generate`]; the cells share `ablation.resume.tsv` with the
/// simulated sweep under `ablation_native|`-prefixed keys.
pub fn generate_native(
    scale: &Scale,
    filter: Option<Ablation>,
    progress: bool,
    mut ckpt: Option<&mut Checkpoint>,
) -> Table {
    let threads = scale.native_thread_counts.clone();
    let top = *threads.last().expect("scales declare native threads");
    let mut table = Table::new(
        "Ablation native: wall-clock, default vs optimized kernels",
        {
            let mut h = vec![
                "Ablation".to_string(),
                "Benchmark".to_string(),
                "Kernel".to_string(),
            ];
            h.extend(threads.iter().map(|t| format!("{t}t ns")));
            h.push(format!("MTEPS@{top}t"));
            h
        },
    );
    let w = Workload::synthetic(scale);
    // Wall-clock noise suppression: keep the fastest of three runs per
    // cell (the `NativeSweep` idiom — min, not median, because external
    // interference only ever slows a native run down).
    const REPS: usize = 3;
    let fastest = |xs: Vec<u64>| xs.into_iter().min().expect("at least one repeat");
    for ablation in Ablation::ALL {
        if filter.is_some_and(|f| f != ablation) {
            continue;
        }
        for &bench in ablation.benchmarks() {
            let mut cells = Vec::new();
            for &t in &threads {
                let key = format!(
                    "ablation_native|{}|{}|v{}|t{t}",
                    ablation.name(),
                    bench.label(),
                    scale.sparse_vertices
                );
                let label =
                    progress.then(|| format!("[ablation] native {ablation}/{bench}: {t} threads"));
                let Ok(c) = cell(ckpt.as_deref_mut(), &key, label.as_deref(), || {
                    let machine = NativeMachine::new(t);
                    let base = fastest(
                        (0..REPS)
                            .map(|_| run_parallel(bench, &machine, &w, None).completion)
                            .collect(),
                    );
                    let opt = fastest(
                        (0..REPS)
                            .map(|_| run_parallel(bench, &machine, &w, Some(ablation)).completion)
                            .collect(),
                    );
                    Ok::<_, Infallible>([base, opt])
                });
                cells.push(c);
            }
            // Native `completion` is wall-clock nanoseconds.
            let mteps = |wall_ns: u64| {
                native_elements(bench, &w)
                    .map(|e| f2(e as f64 * 1e3 / wall_ns.max(1) as f64))
                    .unwrap_or_else(|| "-".to_string())
            };
            push_comparison(&mut table, ablation, bench.label(), &cells, Some(&mteps));
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn covers_every_ablated_benchmark_at_every_thread_count() {
        let scale = Scale::test();
        let config = SimConfig::tiny(16);
        let t = generate(&scale, &config, None, false, None);
        // 10 ablated benchmarks + the R-MAT BFS comparison, 3 rows each
        // (default / optimized / speedup), plus 6 counter rows for the
        // direction-optimizing BFS group.
        assert_eq!(t.rows.len(), 39);
        // tiny(16) caps the canonical sweep at [1, 4, 16].
        let swept = CORE_SWEEP.iter().filter(|&&t| t <= 16).count();
        for row in &t.rows {
            assert_eq!(row.len(), 3 + swept);
        }
        let stem = t.file_stem();
        assert_eq!(stem, "ablation_kernels");
    }

    #[test]
    fn filter_restricts_to_one_group() {
        let scale = Scale::test();
        let config = SimConfig::tiny(16);
        // default/optimized/speedup per benchmark the group applies to.
        for (ablation, benches) in [
            (Ablation::LockfreeBound, &["TSP"][..]),
            (Ablation::FrontierRepr, &["BFS", "SSSP_DIJK"][..]),
        ] {
            let t = generate(&scale, &config, Some(ablation), false, None);
            assert_eq!(t.rows.len(), 3 * benches.len(), "{ablation}");
            let labels: Vec<[&str; 2]> = t
                .rows
                .iter()
                .map(|r| [r[0].as_str(), r[1].as_str()])
                .collect();
            let want: Vec<[&str; 2]> = benches
                .iter()
                .flat_map(|&b| [[ablation.name(), b]; 3])
                .collect();
            assert_eq!(labels, want);
        }
    }

    /// The direction-optimizing BFS group carries the R-MAT comparison
    /// and its counter rows: completion on the uniform workload (3) +
    /// completion on R-MAT (3) + sharing-miss and flit-hop rows (6).
    #[test]
    fn dirop_group_tabulates_rmat_counters() {
        let scale = Scale::test();
        let config = SimConfig::tiny(16);
        let t = generate(&scale, &config, Some(Ablation::DiropBfs), false, None);
        assert_eq!(t.rows.len(), 12);
        assert!(t.rows.iter().all(|r| r[0] == "dirop_bfs"));
        let kernels: Vec<&str> = t
            .rows
            .iter()
            .filter(|r| r[1] == "BFS/rmat")
            .map(|r| r[2].as_str())
            .collect();
        assert_eq!(
            kernels,
            vec![
                "default",
                "optimized",
                "speedup",
                "default:l1_sharing",
                "optimized:l1_sharing",
                "reduction:l1_sharing",
                "default:noc_flits",
                "optimized:noc_flits",
                "reduction:noc_flits",
            ]
        );
    }

    /// Two runs that start from the same address space (here a fresh
    /// thread each, as `crono ablation` starts a fresh process) write
    /// byte-identical tables. A second run on one thread sees shifted
    /// lines and legitimately different home slices.
    #[test]
    fn deterministic_groups_are_byte_identical_across_threads() {
        let tsv = || {
            std::thread::spawn(|| {
                let (scale, config) = (Scale::test(), SimConfig::tiny(16));
                generate(&scale, &config, Some(Ablation::LockfreeBound), false, None).to_tsv()
            })
            .join()
            .expect("ablation thread")
        };
        let first = tsv();
        assert!(first.lines().count() > 1, "no table rows: {first}");
        assert_eq!(first, tsv(), "lockfree_bound cells byte-identical");
    }

    /// Interrupted after one cell, the `dirop_bfs` group (both kinds of
    /// simulated cell) resumes to the table an uninterrupted sweep
    /// writes. Each half runs on a fresh thread, as each `crono
    /// ablation` run starts in a fresh process.
    #[test]
    fn resumed_sweep_writes_the_uninterrupted_table() {
        let path = std::env::temp_dir().join(format!(
            "crono-ablation-interrupted-{}.tsv",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let sweep = |path: PathBuf| {
            std::thread::spawn(move || {
                let mut ck = Checkpoint::open(path).unwrap();
                let (scale, config) = (Scale::test(), SimConfig::tiny(16));
                generate(
                    &scale,
                    &config,
                    Some(Ablation::DiropBfs),
                    false,
                    Some(&mut ck),
                )
                .to_tsv()
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

    #[test]
    fn native_table_has_wall_clock_and_mteps() {
        let scale = Scale::test();
        let t = generate_native(&scale, Some(Ablation::TaskSteal), false, None);
        assert_eq!(t.rows.len(), 9, "APSP, BETW_CENT, DFS × 3 rows");
        // Columns: 3 labels + native thread counts + MTEPS.
        let cols = 3 + scale.native_thread_counts.len() + 1;
        for row in &t.rows {
            assert_eq!(row.len(), cols);
        }
        let apsp_default = &t.rows[0];
        assert_eq!(&apsp_default[..3], &["task_steal", "APSP", "default"]);
        assert_ne!(
            *apsp_default.last().expect("mteps"),
            "-",
            "APSP reports MTEPS"
        );
        assert_eq!(t.file_stem(), "ablation_native");
    }
}
