//! The `crono` CLI: regenerates the paper's tables and figures.

use crono_algos::{Ablation, Benchmark};
use crono_energy::EnergyModel;
use crono_sim::{RoutingPolicy, SimConfig};
use crono_suite::checkpoint::Checkpoint;
use crono_suite::experiments::degraded::DegradedConfig;
use crono_suite::experiments::faults::FaultsConfig;
use crono_suite::experiments::scale_track::{self, GraphKind, ScaleTrackConfig};
use crono_suite::experiments::{
    ablation, degraded, faults, fig1, fig2, fig34, fig5, fig6, fig78, fig9, table4, tables,
};
use crono_suite::runner::Sweep;
use crono_suite::serve::Mix;
use crono_suite::trace::{run_traced_ablated, TraceBackend};
use crono_suite::{Scale, Table};
use crono_trace::{CounterSummary, TraceConfig, TraceDiff};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

/// Every flag the CLI accepts, with its value placeholder: empty for a
/// switch, the valid names for a choice (`a|b`).
const FLAGS: &[(&str, &str)] = &[
    ("--scale", "test|small|paper"),
    ("--out", "PATH"),
    ("--trace", "DIR"),
    ("--resume", ""),
    ("--quiet", ""),
    ("--backend", "sim|native"),
    ("--ablation", "NAME"),
    ("--bench", "NAME"),
    ("--threads", "N"),
    ("--capacity", "N"),
    ("--tolerance", "F"),
    ("--quick", ""),
    ("--degraded", ""),
    ("--routing", "xy|o1turn"),
    ("--slo-p99-us", "F"),
    ("--seed", "N"),
    ("--queries", "N"),
    ("--clients", "N"),
    ("--workload", "FILE"),
    ("--mix", "default|sssp-heavy"),
    ("--ms-sssp-width", "N"),
    ("--timeout-ms", "N"),
    ("--graph", "rmat|uniform"),
    ("--graph-scale", "N"),
    ("--degree", "N"),
    ("--shards", "N"),
    ("--partition", "1d|2d"),
    ("--repr", "compressed|plain"),
    ("--mirror", ""),
    ("--sort-buffer", "EDGES"),
    ("--spill", "DIR"),
    ("--iters", "N"),
    ("--chunk", "N"),
];

/// One synopsis line: its commands, their positional arguments (empty
/// when they take none) and exactly the flags they read, all
/// space-separated.
struct Signature {
    commands: &'static str,
    args: &'static str,
    flags: &'static str,
}

const SIGNATURES: &[Signature] = &[
    Signature {
        commands: "table1 table2 table3 table4 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 \
                   compare all",
        args: "",
        flags: "--scale --out --trace --quiet",
    },
    Signature {
        commands: "ablation",
        args: "",
        flags: "--backend --ablation --scale --out --trace --resume --quiet",
    },
    Signature {
        commands: "trace",
        args: "",
        flags: "--bench --threads --scale --backend --ablation --out --capacity --quiet",
    },
    Signature {
        commands: "trace-diff",
        args: "<A.json> <B.json>",
        flags: "--tolerance --quiet",
    },
    Signature {
        commands: "heatmap",
        args: "<TRACE.json>",
        flags: "--out --quiet",
    },
    Signature {
        commands: "faults",
        args: "",
        flags: "--quick --degraded --routing --slo-p99-us --queries --clients --scale --seed \
                --threads --out --resume --quiet",
    },
    Signature {
        commands: "serve",
        args: "",
        flags: "--workload --scale --threads --ms-sssp-width --timeout-ms --out --quiet",
    },
    Signature {
        commands: "bombard",
        args: "",
        flags: "--queries --clients --seed --mix --ms-sssp-width --scale --threads --timeout-ms \
                --out --quiet",
    },
    Signature {
        commands: "scale",
        args: "",
        flags: "--graph --graph-scale --degree --shards --partition --repr --mirror --threads \
                --seed --sort-buffer --spill --iters --out --resume --quiet",
    },
    Signature {
        commands: "gen",
        args: "",
        flags: "--graph --graph-scale --degree --seed --mirror --chunk --out --quiet",
    },
];

const COMMANDS: &str = "
COMMANDS:
  table1   Benchmarks and parallelizations
  table2   Graphite architectural parameters
  table3   Input graphs
  table4   Best speedups across graph types
  fig1     Completion-time breakdowns vs thread count (+ variability)
  fig2     Active vertices over normalized time
  fig3     L1 miss-rate breakdown (cold/capacity/sharing)
  fig4     Cache-hierarchy miss rates
  fig5     Vertex-scalability study
  fig6     Normalized dynamic energy breakdowns
  fig7     OOO completion-time breakdowns
  fig8     OOO speedups
  fig9     Real-machine speedups (native threads)
  ablation Optimized kernel variants vs defaults (frontier_repr,
           pagerank_update, task_steal, lockfree_bound, dirop_bfs,
           delta_sssp, afforest_cc) across thread counts; --ablation
           NAME restricts to one group, --backend native compares
           wall-clock + MTEPS on the real machine
  compare  Paper-vs-measured best speedups + qualitative claims
  all      Everything above (shares simulator sweeps)
  trace    One traced run of --bench NAME -> Chrome trace JSON
           (Perfetto-loadable)
  trace-diff  Compare two traces' counter summaries; exits nonzero if
           the second regressed (count/arg_sum grew beyond --tolerance,
           a relative fraction, default 0)
  heatmap  Aggregate a simulator trace's per-router NoC traffic
           (noc_route instants) into a mesh heatmap TSV
  faults   Deterministic fault-injection sweep: completion-time
           degradation + injected-event counters per fault rate
           (--quick: CI smoke sweep, BFS only at test scale);
           --degraded instead serves a seeded bombard stream on the
           simulated machine while permanent faults land (dead link,
           then a core dying mid-batch, then a DRAM controller) and
           reports per-phase p50/p99/QPS against --slo-p99-us, plus a
           healthy-vs-degraded routing heatmap pair with --out; with
           --routing xy the dead link is unroutable and the command
           exits nonzero with the typed route error
  serve    Long-lived query engine: replay a --workload file (one query
           per line: `<bfs|sssp|pagerank|centrality> <vertex>
           [deadline=N]`) against the scale's graph and report per-kind
           p50/p99 modeled latency + QPS (serve.tsv with --out)
  scale    Scale track: seeded streaming graph build into shards with
           an external sort (bounded RAM, spills to --spill), then
           shard-aware BFS/SSSP/PageRank with per-shard modeled MTEPS
           and simulator placement rows (block vs hashed) -> scale.tsv
  gen      Stream a seeded synthetic edge list to --out in chunks (the
           same text format crono's readers and the scale build accept)
  bombard  Seeded closed-loop load generator against the same engine:
           mixed BFS/SSSP/PageRank stream with a hot set (--mix
           sssp-heavy stresses the multi-source SSSP batcher;
           --ms-sssp-width 1 is the per-query baseline); repeated runs
           with one seed are byte-identical (latency is modeled, not
           wall-clock)

`--out` names a directory, except for trace, heatmap and gen, which
write the one file it names.
`--trace DIR` re-runs each swept benchmark at its best thread count with
tracing enabled and writes one trace JSON per benchmark into DIR
(sweep-based commands only: fig1-fig4, fig6, compare, all).
`--ablation NAME` traces an optimized kernel variant instead of the
paper-faithful default (sim or native backend).
`--resume` (ablation, faults and scale; needs --out) reloads the sweep's
checkpoint from DIR and skips the points that already completed; the
checkpoint is removed once the sweep finishes.
";

/// The usage text: one synopsis line per signature, rendered from
/// `SIGNATURES` and `FLAGS`, then the command descriptions.
fn usage() -> String {
    let mut text = String::from("crono — regenerate the CRONO (IISWC 2015) tables and figures\n\n");
    for (i, sig) in SIGNATURES.iter().enumerate() {
        let name = if sig.commands.contains(' ') {
            "<COMMAND>"
        } else {
            sig.commands
        };
        let mut line = format!("{}crono {name}", if i == 0 { "USAGE: " } else { "       " });
        let flags = sig.flags.split_whitespace().map(|f| match placeholder(f) {
            "" => format!("[{f}]"),
            p => format!("[{f} {p}]"),
        });
        for word in sig.args.split_whitespace().map(String::from).chain(flags) {
            if line.len() + 1 + word.len() > 72 {
                text.push_str(&line);
                text.push('\n');
                line = " ".repeat(12);
            }
            line.push(' ');
            line.push_str(&word);
        }
        text.push_str(&line);
        text.push('\n');
    }
    text.push_str(COMMANDS);
    text
}

fn placeholder(flag: &str) -> &'static str {
    FLAGS
        .iter()
        .find(|(f, _)| *f == flag)
        .map(|(_, p)| *p)
        .expect("signatures and getters name only flags in FLAGS")
}

fn signature(command: &str) -> Option<&'static Signature> {
    SIGNATURES
        .iter()
        .find(|s| s.commands.split_whitespace().any(|c| c == command))
}

/// One command line, checked against its command's signature.
struct Args {
    /// Flag to value (empty for a switch); a repeated flag keeps its
    /// last value.
    values: BTreeMap<&'static str, String>,
    positional: Vec<PathBuf>,
}

impl Args {
    fn parse(command: &str, mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let sig = signature(command)
            .ok_or_else(|| format!("unknown command {command:?}\n\n{}", usage()))?;
        let mut args = Args {
            values: BTreeMap::new(),
            positional: Vec::new(),
        };
        while let Some(arg) = raw.next() {
            if !arg.starts_with("--") {
                if sig.args.is_empty() {
                    return Err(format!("unexpected argument {arg:?} for `crono {command}`"));
                }
                args.positional.push(PathBuf::from(arg));
                continue;
            }
            let Some(flag) = sig.flags.split_whitespace().find(|&f| f == arg) else {
                return Err(format!(
                    "unknown flag {arg:?} for `crono {command}` (accepts {})",
                    sig.flags.replace(' ', ", ")
                ));
            };
            let value = match placeholder(flag) {
                "" => String::new(),
                _ => raw.next().ok_or_else(|| format!("{flag} needs a value"))?,
            };
            args.values.insert(flag, value);
        }
        Ok(args)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    fn switch(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    fn path(&self, flag: &str) -> Option<PathBuf> {
        self.get(flag).map(PathBuf::from)
    }

    /// `flag`'s value through `parse`, which returns the error for a bad
    /// one.
    fn value<T>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.get(flag).map(parse).transpose()
    }

    /// A number that must satisfy `ok`; `what` names it in the error.
    fn num<T: FromStr>(
        &self,
        flag: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, String> {
        self.value(flag, |v| {
            v.parse()
                .ok()
                .filter(ok)
                .ok_or_else(|| format!("invalid {what} {v:?}"))
        })
    }

    /// A choice looked up `by_name`; the error repeats the valid names
    /// from the flag's placeholder.
    fn pick<T>(
        &self,
        flag: &str,
        what: &str,
        by_name: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.value(flag, |v| {
            by_name(v).ok_or_else(|| format!("unknown {what} {v:?} ({})", placeholder(flag)))
        })
    }
}

fn positive<T: PartialOrd + Default>(n: &T) -> bool {
    *n > T::default()
}

fn ablation_by_name(name: &str) -> Result<Ablation, String> {
    Ablation::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = Ablation::ALL.iter().map(|a| a.name()).collect();
        format!("unknown ablation {name:?} ({})", names.join("|"))
    })
}

/// Opens `<out>/<name>.resume.tsv` when `--out` is given. A fresh
/// (non-resumed) sweep must not trust stale points, but still records
/// its own so a crash can be resumed.
fn open_checkpoint(a: &Args, name: &str, unit: &str) -> Result<Option<Checkpoint>, String> {
    let resume = a.switch("--resume");
    let Some(dir) = a.path("--out") else {
        if resume {
            return Err(
                "--resume needs --out DIR (the checkpoint lives in the output directory)".into(),
            );
        }
        return Ok(None);
    };
    std::fs::create_dir_all(&dir)
        .map_err(|e| format!("create output directory {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}.resume.tsv"));
    let mut ck =
        Checkpoint::open(&path).map_err(|e| format!("open checkpoint {}: {e}", path.display()))?;
    if !resume {
        ck.clear()
            .map_err(|e| format!("reset checkpoint {}: {e}", path.display()))?;
    } else if !a.switch("--quiet") && !ck.is_empty() {
        eprintln!("[{name}] resuming: {} {unit} already done", ck.len());
    }
    Ok(Some(ck))
}

/// Removes a finished sweep's checkpoint.
fn close_checkpoint(ckpt: Option<Checkpoint>) {
    if let Some(mut ck) = ckpt {
        if let Err(e) = ck.clear() {
            eprintln!(
                "warning: could not remove finished checkpoint {}: {e}",
                ck.path().display()
            );
        }
    }
}

/// The table, figure and `ablation` commands.
fn paper_command(command: &str, a: &Args) -> Result<ExitCode, String> {
    const SWEEPS: [&str; 7] = ["fig1", "fig2", "fig3", "fig4", "fig6", "compare", "all"];
    let trace_dir = a.path("--trace");
    if trace_dir.is_some() && !SWEEPS.contains(&command) {
        return Err(
            "--trace only applies to sweep-based commands (fig1-fig4, fig6, compare, all)".into(),
        );
    }
    let scale = a
        .pick("--scale", "scale", Scale::by_name)?
        .unwrap_or_else(Scale::small);
    let out = a.path("--out");
    let progress = !a.switch("--quiet");
    // `ablation` matches backend names exactly; `trace` folds case.
    let backend = a
        .pick("--backend", "backend", |v| match v {
            "sim" => Some(TraceBackend::Sim),
            "native" => Some(TraceBackend::Native),
            _ => None,
        })?
        .unwrap_or(TraceBackend::Sim);
    let filter = a.value("--ablation", ablation_by_name)?;
    let mut ckpt = match command {
        "ablation" => open_checkpoint(a, "ablation", "cell(s)")?,
        _ => None,
    };
    let config = SimConfig::default();
    let energy = EnergyModel::default();
    let sweep = SWEEPS
        .contains(&command)
        .then(|| Sweep::run(&scale, &config, progress));
    let ooo_sweep = ["fig7", "fig8", "all"]
        .contains(&command)
        .then(|| Sweep::run(&scale, &SimConfig::paper_ooo(), progress));
    let s = || sweep.as_ref().expect("sweep ran");
    let ooo = || ooo_sweep.as_ref().expect("ooo sweep ran");
    let names = match command {
        "all" => &[
            "table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4", "fig5", "table4", "fig6",
            "fig7", "fig8", "fig9", "ablation", "compare",
        ][..],
        _ => std::slice::from_ref(&command),
    };
    for &name in names {
        let tables = match name {
            "table1" => vec![tables::table1()],
            "table2" => vec![tables::table2(&config)],
            "table3" => vec![tables::table3()],
            "table4" => vec![table4::generate(&scale, &config, progress)],
            "fig1" => vec![fig1::generate(s()), fig1::best_speedups(s())],
            "fig2" => vec![fig2::generate(s())],
            "fig3" => vec![fig34::fig3(s())],
            "fig4" => vec![fig34::fig4(s())],
            "fig5" => fig5::generate(&scale, &config, progress),
            "fig6" => vec![fig6::generate(s(), &energy)],
            "fig7" => vec![fig78::fig7(ooo())],
            "fig8" => vec![fig78::fig8(ooo())],
            "fig9" => vec![fig9::generate(&scale, 3, progress)],
            "ablation" => vec![match backend {
                TraceBackend::Native => {
                    ablation::generate_native_resumable(&scale, filter, progress, ckpt.as_mut())
                }
                TraceBackend::Sim => {
                    ablation::generate_resumable(&scale, &config, filter, progress, ckpt.as_mut())
                }
            }],
            "compare" => crono_suite::paper::compare(s()),
            other => unreachable!("{other} is not a paper command"),
        };
        // Emit per command so partial results of `all` survive
        // interruption.
        emit(&tables, &out)?;
    }
    close_checkpoint(ckpt);
    if let (Some(dir), Some(s)) = (&trace_dir, &sweep) {
        let paths = s
            .write_traces(dir, &TraceConfig::default(), progress)
            .map_err(|e| format!("could not write traces to {}: {e}", dir.display()))?;
        for p in paths {
            eprintln!("[trace] wrote {}", p.display());
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn faults_command(a: &Args) -> Result<ExitCode, String> {
    let degraded = a.switch("--degraded");
    let (misplaced, rule) = if degraded {
        (&["--quick", "--scale", "--resume"][..], "does not apply to")
    } else {
        (
            &["--routing", "--slo-p99-us", "--queries", "--clients"][..],
            "only applies to",
        )
    };
    if let Some(flag) = misplaced.iter().find(|f| a.switch(f)) {
        return Err(format!("{flag} {rule} `crono faults --degraded`"));
    }
    if degraded {
        return degraded_command(a);
    }
    let quick = a.switch("--quick");
    let scale = a
        .pick("--scale", "scale", Scale::by_name)?
        .unwrap_or_else(Scale::small);
    let fc = FaultsConfig {
        seed: a.num("--seed", "seed", |_| true)?.unwrap_or(42),
        threads: a
            .num("--threads", "thread count", positive)?
            .unwrap_or(if quick { 8 } else { 16 }),
        quick,
    };
    let progress = !a.switch("--quiet");
    let mut ckpt = open_checkpoint(a, "faults", "point(s)")?;
    // --quick is the CI smoke configuration: tiny machine, test-scale
    // inputs, BFS only (see experiments::faults::QUICK_RATES).
    let (scale, config) = if quick {
        (Scale::test(), SimConfig::tiny(16))
    } else {
        (scale, SimConfig::default())
    };
    let table = faults::generate(&scale, &config, &fc, progress, ckpt.as_mut());
    emit(&[table], &a.path("--out"))?;
    close_checkpoint(ckpt);
    Ok(ExitCode::SUCCESS)
}

/// `crono faults --degraded`: the permanent-fault serving sweep plus
/// the healthy-vs-degraded routing heatmap pair.
fn degraded_command(a: &Args) -> Result<ExitCode, String> {
    let d = DegradedConfig::default();
    let dc = DegradedConfig {
        seed: a.num("--seed", "seed", |_| true)?.unwrap_or(d.seed),
        threads: a
            .num("--threads", "thread count", positive)?
            .unwrap_or(d.threads),
        queries: a
            .num("--queries", "query count", positive)?
            .unwrap_or(d.queries),
        clients: a
            .num("--clients", "client count", positive)?
            .unwrap_or(d.clients),
        slo_p99_us: a
            .num("--slo-p99-us", "SLO", |s: &f64| s.is_finite() && *s > 0.0)?
            .unwrap_or(d.slo_p99_us),
        routing: a
            .pick("--routing", "routing policy", |v| match v {
                "xy" => Some(RoutingPolicy::XyDimensionOrder),
                "o1turn" => Some(RoutingPolicy::O1Turn),
                _ => None,
            })?
            .unwrap_or(d.routing),
    };
    let out = a.path("--out");
    let table = degraded::generate(&dc, !a.switch("--quiet"))?;
    emit(&[table], &out)?;
    if let Some(dir) = &out {
        let (healthy, degraded_map) = degraded::heatmap_pair(&dc)?;
        for (name, tsv) in [
            ("heatmap_healthy", healthy),
            ("heatmap_degraded", degraded_map),
        ] {
            let path = dir.join(format!("{name}.tsv"));
            std::fs::write(&path, tsv).map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("[out] wrote {}", path.display());
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn trace_command(a: &Args) -> Result<ExitCode, String> {
    let bench = a
        .value("--bench", |name| {
            Benchmark::by_label(name)
                .ok_or_else(|| format!("unknown benchmark {name:?} (e.g. bfs, pagerank)"))
        })?
        .ok_or("trace needs --bench <NAME>")?;
    let threads = a.num("--threads", "thread count", positive)?.unwrap_or(16);
    let scale = a
        .pick("--scale", "scale", Scale::by_name)?
        .unwrap_or_else(Scale::test);
    let backend = a
        .pick("--backend", "backend", TraceBackend::by_name)?
        .unwrap_or(TraceBackend::Sim);
    let ablation = a.value("--ablation", ablation_by_name)?;
    let out = a
        .path("--out")
        .unwrap_or_else(|| PathBuf::from("trace.json"));
    let capacity = a
        .num("--capacity", "capacity", positive)?
        .unwrap_or(TraceConfig::default().capacity);
    let sim_config = SimConfig::default();
    if backend == TraceBackend::Sim && threads > sim_config.num_cores {
        return Err(format!(
            "{threads} threads exceed the simulated machine's {} cores",
            sim_config.num_cores
        ));
    }
    if let Some(abl) = ablation {
        if !abl.applies_to(bench) {
            return Err(format!(
                "ablation {abl} does not change {bench}; it applies to: {}",
                abl.benchmarks()
                    .iter()
                    .map(|b| b.label())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
    }
    if !a.switch("--quiet") {
        let variant = ablation
            .map(|abl| format!(", ablation {abl}"))
            .unwrap_or_default();
        eprintln!(
            "[trace] {bench} on {} ({threads} threads, scale {}{variant})",
            backend.name(),
            scale.name
        );
    }
    let trace = run_traced_ablated(
        bench,
        &scale,
        threads,
        backend,
        &sim_config,
        // Explicit single-benchmark traces carry router geometry so
        // `crono heatmap` can aggregate them; sweep traces keep the
        // leaner default stream.
        &TraceConfig::with_capacity(capacity).noc_geometry(true),
        ablation,
    );
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, trace.to_chrome_json())
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    print!("{}", trace.summary());
    println!("wrote {}", out.display());
    Ok(ExitCode::SUCCESS)
}

/// `crono trace-diff a.json b.json`: fails when the second trace
/// regressed beyond the tolerance.
fn trace_diff_command(a: &Args) -> Result<ExitCode, String> {
    let [a_path, b_path] = a.positional.as_slice() else {
        return Err("trace-diff needs exactly two trace files".into());
    };
    let tolerance = a
        .num("--tolerance", "tolerance", |t: &f64| {
            t.is_finite() && *t >= 0.0
        })
        .map_err(|e| e + " (need a fraction >= 0)")?
        .unwrap_or(0.0);
    let progress = !a.switch("--quiet");
    let read =
        |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()));
    let before =
        CounterSummary::parse(&read(a_path)?).map_err(|e| format!("{}: {e}", a_path.display()))?;
    let after =
        CounterSummary::parse(&read(b_path)?).map_err(|e| format!("{}: {e}", b_path.display()))?;
    let diff = TraceDiff::between(&before, &after);
    if progress || !diff.is_zero() {
        print!("{}", diff.render());
    }
    let regressions = diff.regressions(tolerance);
    if regressions.is_empty() {
        if progress {
            println!("no regressions (tolerance {tolerance})");
        }
        Ok(ExitCode::SUCCESS)
    } else {
        let names: Vec<&str> = regressions.iter().map(|r| r.name.as_str()).collect();
        println!(
            "REGRESSION: {} event(s) grew beyond tolerance {tolerance}: {}",
            regressions.len(),
            names.join(", ")
        );
        Ok(ExitCode::FAILURE)
    }
}

/// `crono heatmap trace.json`: aggregates a Chrome-JSON simulator
/// trace's `noc_route` instants (emitted by `crono trace`, which
/// records router geometry) into a per-router mesh-traffic TSV.
fn heatmap_command(a: &Args) -> Result<ExitCode, String> {
    let [trace_path] = a.positional.as_slice() else {
        return Err("heatmap needs exactly one trace file".into());
    };
    let json = std::fs::read_to_string(trace_path)
        .map_err(|e| format!("read {}: {e}", trace_path.display()))?;
    let heat = crono_trace::Heatmap::from_chrome_json(&json)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    if !a.switch("--quiet") {
        eprintln!(
            "[heatmap] {}x{} mesh, {} flit-hops over {} route event(s)",
            heat.rows(),
            heat.cols(),
            heat.total_flits(),
            heat.total_events()
        );
    }
    match a.path("--out") {
        Some(path) => {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("create {}: {e}", dir.display()))?;
            }
            std::fs::write(&path, heat.to_tsv())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("wrote {}", path.display());
        }
        None => print!("{}", heat.to_tsv()),
    }
    Ok(ExitCode::SUCCESS)
}

/// The graph options `crono scale` and `crono gen` share. `gen`'s
/// signature rejects the build-only flags, so they keep their defaults
/// there.
fn track_config(a: &Args) -> Result<ScaleTrackConfig, String> {
    let d = ScaleTrackConfig::default();
    Ok(ScaleTrackConfig {
        graph: a
            .pick("--graph", "graph", GraphKind::by_name)?
            .unwrap_or(d.graph),
        graph_scale: a
            .num("--graph-scale", "graph scale", |s| (1..=31).contains(s))
            .map_err(|e| e + " (1..=31)")?
            .unwrap_or(d.graph_scale),
        degree: a.num("--degree", "degree", positive)?.unwrap_or(d.degree),
        blocks: a
            .num("--shards", "shard count", positive)?
            .unwrap_or(d.blocks),
        two_d: a
            .pick("--partition", "partition", |v| match v {
                "1d" => Some(false),
                "2d" => Some(true),
                _ => None,
            })?
            .unwrap_or(d.two_d),
        compressed: a
            .pick("--repr", "representation", |v| match v {
                "compressed" => Some(true),
                "plain" => Some(false),
                _ => None,
            })?
            .unwrap_or(d.compressed),
        mirrored: d.mirrored || a.switch("--mirror"),
        threads: a
            .num("--threads", "thread count", positive)?
            .unwrap_or(d.threads),
        seed: a.num("--seed", "seed", |_| true)?.unwrap_or(d.seed),
        sort_buffer_edges: a
            .num("--sort-buffer", "sort buffer", positive)
            .map_err(|e| e + " (edges)")?
            .unwrap_or(d.sort_buffer_edges),
        // Spill next to the output when no explicit directory was given,
        // so a crashed run's leftovers are easy to find and remove.
        spill_dir: a
            .path("--spill")
            .or_else(|| a.path("--out"))
            .unwrap_or_else(std::env::temp_dir),
        pagerank_iters: a
            .num("--iters", "iteration count", positive)?
            .unwrap_or(d.pagerank_iters),
    })
}

fn scale_command(a: &Args) -> Result<ExitCode, String> {
    let config = track_config(a)?;
    let mut ckpt = open_checkpoint(a, "scale", "row group(s)")?;
    let table = scale_track::generate(&config, !a.switch("--quiet"), ckpt.as_mut())?;
    emit(&[table], &a.path("--out"))?;
    close_checkpoint(ckpt);
    Ok(ExitCode::SUCCESS)
}

fn gen_command(a: &Args) -> Result<ExitCode, String> {
    use crono_graph::io::write_edge_stream;

    let cfg = track_config(a)?;
    let chunk = a.num("--chunk", "chunk size", positive)?.unwrap_or(1 << 16);
    let out = a.path("--out");
    let lines = cfg.with_edges(|edges| match &out {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("create {}: {e}", path.display()))?;
            write_edge_stream(edges, file, chunk)
                .map_err(|e| format!("write {}: {e}", path.display()))
        }
        None => write_edge_stream(edges, std::io::stdout().lock(), chunk)
            .map_err(|e| format!("write stdout: {e}")),
    })??;
    if !a.switch("--quiet") {
        match &out {
            Some(path) => eprintln!("[gen] wrote {lines} edge line(s) to {}", path.display()),
            None => eprintln!("[gen] wrote {lines} edge line(s)"),
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `crono serve` (replay = true requires --workload) and
/// `crono bombard` (generated stream).
fn serve_command(a: &Args, replay: bool) -> Result<ExitCode, String> {
    use crono_suite::engine::{EngineOptions, ServeEngine};
    use crono_suite::serve::{bombard, parse_workload, run_workload, summarize, BombardOptions};

    let scale = a
        .pick("--scale", "scale", Scale::by_name)?
        .unwrap_or_else(Scale::small);
    let threads = a.num("--threads", "thread count", positive)?.unwrap_or(8);
    let d = BombardOptions::default();
    let stream = BombardOptions {
        queries: a
            .num("--queries", "query count", positive)?
            .unwrap_or(d.queries),
        clients: a
            .num("--clients", "client count", positive)?
            .unwrap_or(d.clients),
        seed: a.num("--seed", "seed", |_| true)?.unwrap_or(d.seed),
        mix: a.pick("--mix", "mix", Mix::by_name)?.unwrap_or(d.mix),
    };
    let ms_sssp_width = a.num("--ms-sssp-width", "batch width", positive)?;
    let timeout_ms = a.num("--timeout-ms", "timeout", positive)?;
    let progress = !a.switch("--quiet");
    let queries = match a.path("--workload") {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            Some(parse_workload(&text).map_err(|e| format!("{}: {e}", path.display()))?)
        }
        None if replay => return Err("serve needs --workload FILE".into()),
        None => None,
    };
    if progress {
        eprintln!(
            "[serve] building scale '{}' graph ({} vertices)",
            scale.name, scale.sparse_vertices
        );
    }
    let w = crono_suite::Workload::synthetic(&scale);
    let defaults = EngineOptions::default();
    let engine_opts = EngineOptions {
        pagerank_iters: w.pagerank_iters,
        batch_timeout: timeout_ms.map(std::time::Duration::from_millis),
        // --ms-sssp-width 1 is the per-query baseline (independent
        // sequential Dijkstra per SSSP miss).
        ms_sssp_width: ms_sssp_width.unwrap_or(defaults.ms_sssp_width),
        ..defaults
    };
    let mut engine = ServeEngine::new(
        crono_runtime::NativeMachine::new(threads),
        w.graph,
        engine_opts,
    );
    let wall = std::time::Instant::now();
    let outcomes = match queries {
        Some(qs) => run_workload(&mut engine, &qs),
        None => bombard(&mut engine, &stream),
    };
    let wall = wall.elapsed();
    if progress {
        // Wall-clock numbers go to stderr only: serve.tsv reports
        // modeled latency/throughput and must stay byte-identical
        // across runs and hosts.
        let stats = engine.stats();
        eprintln!(
            "[serve] {} queries in {:.2?} wall ({:.0} wall-QPS): {} served, \
             {} cache hit(s), {} error(s), {} rejection(s), {} batch(es)",
            outcomes.len(),
            wall,
            outcomes.len() as f64 / wall.as_secs_f64().max(1e-9),
            stats.served,
            stats.cache_hits,
            stats.errors,
            stats.rejected,
            stats.batches,
        );
    }
    emit(&[summarize(&outcomes, threads)], &a.path("--out"))?;
    Ok(ExitCode::SUCCESS)
}

fn emit(tables: &[Table], out: &Option<PathBuf>) -> Result<(), String> {
    for t in tables {
        println!("{}", t.render());
        if let Some(dir) = out {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("create output directory {}: {e}", dir.display()))?;
            let path = dir.join(format!("{}.tsv", t.file_stem()));
            std::fs::write(&path, t.to_tsv())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("[out] wrote {}", path.display());
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1);
    let Some(command) = raw.next() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = Args::parse(&command, raw).and_then(|a| match command.as_str() {
        "trace" => trace_command(&a),
        "trace-diff" => trace_diff_command(&a),
        "heatmap" => heatmap_command(&a),
        "faults" => faults_command(&a),
        "serve" => serve_command(&a, true),
        "bombard" => serve_command(&a, false),
        "scale" => scale_command(&a),
        "gen" => gen_command(&a),
        paper => paper_command(paper, &a),
    });
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        // Exit 1 from trace-diff means "regressed", so its usage errors
        // exit 2, as an unknown command does.
        let usage_error = command == "trace-diff" || signature(&command).is_none();
        ExitCode::from(if usage_error { 2 } else { 1 })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signatures_and_flags_name_the_same_flags() {
        for sig in SIGNATURES {
            for flag in sig.flags.split_whitespace() {
                assert!(
                    FLAGS.iter().any(|(f, _)| *f == flag),
                    "{flag} of {:?} is not in FLAGS",
                    sig.commands
                );
            }
        }
        for (flag, _) in FLAGS {
            assert!(
                SIGNATURES
                    .iter()
                    .any(|s| s.flags.split_whitespace().any(|f| f == *flag)),
                "no signature lists {flag}"
            );
        }
    }
}
