//! Layered wall-clock benchmark of the CRONO workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload kernels-rmat|serve-sssp-heavy|sim-small|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload sets up its inputs from the seed (several times, so
//! set-up time has a median), then runs passes for `--seconds` seconds,
//! checking every output against a sequential reference. An untraced
//! run (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) records one span around each call into a layer,
//! probes the layers the workload itself does not reach, writes the
//! spans as Chrome JSON under `perfbench/out/`, and reports the
//! per-layer metrics. The last stdout line is the JSON result; a wrong
//! output makes the exit code 1.

mod kernels;
mod layers;
mod metrics;
mod serve;
mod sim;
mod spans;
mod stats;

use crono_graph::CsrGraph;
use metrics::Metrics;
use spans::{Recorder, BENCH};
use stats::median;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Worker threads of every workload (the reference host has 2 cores).
pub const THREADS: usize = 2;
/// The workloads, in `--workload all` order.
const WORKLOADS: [&str; 3] = ["kernels-rmat", "serve-sssp-heavy", "sim-small"];
/// Fewest set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Cheap set-ups repeat until this much time has gone by (at most
/// `SETUP_REPS_MAX` times), so a set-up of a few milliseconds still
/// gets a steady median.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const SETUP_REPS_MAX: usize = 25;

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number '{v}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => trace = Some(num(&value)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = match workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w => vec![*WORKLOADS
            .iter()
            .find(|&&k| k == w)
            .ok_or(format!("unknown workload {w}"))?],
    };
    Ok(Args {
        workloads,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// Tallies of checked operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Sets up repeatedly, keeping the last set-up; returns it with the
/// median set-up and generation times.
fn setup_reps<S>(
    rec: &mut Recorder,
    mut setup: impl FnMut(&mut Recorder) -> (S, f64),
) -> (S, f64, f64) {
    let (mut times, mut gens, mut kept) = (Vec::new(), Vec::new(), None);
    let first = Instant::now();
    while times.len() < SETUP_REPS
        || (first.elapsed() < SETUP_BUDGET && times.len() < SETUP_REPS_MAX)
    {
        drop(kept.take()); // free the previous set-up first: peak RSS stays one set-up
        let start = Instant::now();
        rec.begin(BENCH, "setup");
        let (s, gen_s) = setup(rec);
        rec.end(BENCH, "setup");
        times.push(start.elapsed().as_secs_f64());
        gens.push(gen_s);
        kept = Some(s);
    }
    (
        kept.expect("at least one set-up"),
        median(&times),
        median(&gens),
    )
}

/// Runs passes until `seconds` have gone by and at least `min` passes
/// ran. A traced run alternates untraced and traced passes; the second
/// value holds each pass's wall time with its tracing flag.
fn passes<T>(
    rec: &mut Recorder,
    seconds: u64,
    min: usize,
    traced: bool,
    mut pass: impl FnMut(&mut Recorder) -> T,
) -> (Vec<T>, Vec<(f64, bool)>) {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let (mut out, mut walls) = (Vec::new(), Vec::new());
    while out.len() < min || start.elapsed() < budget {
        let on = traced && out.len() % 2 == 1;
        rec.set_on(on);
        let t = Instant::now();
        rec.begin(BENCH, "pass");
        out.push(pass(rec));
        rec.end(BENCH, "pass");
        walls.push((t.elapsed().as_secs_f64(), on));
    }
    rec.set_on(traced);
    (out, walls)
}

/// End-to-end figures of one workload's passes.
#[derive(Default)]
struct EndToEnd {
    setup_s: f64,
    pass_s: Vec<f64>,
    region_s: Vec<f64>,
    minstr_per_s: Vec<f64>,
}

impl EndToEnd {
    fn put(&self, out: &mut Metrics) {
        out.put("setup_s", self.setup_s);
        out.put("pass_s", median(&self.pass_s));
        out.put("bench.region_s", median(&self.region_s));
        out.put("bench.minstr_per_s", median(&self.minstr_per_s));
        let rss = crono_graph::stream::peak_rss_bytes().expect("peak RSS readable on Linux");
        out.put("peak_rss_mb", rss as f64 / (1 << 20) as f64);
    }
}

/// Realized graph size for the stamp: vertices and directed edges.
fn sizes(g: &CsrGraph) -> (usize, usize) {
    (g.num_vertices(), g.num_directed_edges())
}

/// Runs the primary workload; in a traced run also puts its per-layer
/// metrics and the layer probes' into `layer`.
fn primary(
    name: &str,
    args: &Args,
    rec: &mut Recorder,
    tally: &mut Tally,
    layer: &mut Metrics,
) -> (EndToEnd, Vec<(f64, bool)>, (usize, usize)) {
    let seed = args.seed;
    match name {
        "kernels-rmat" => {
            let (s, setup_s, gen_s) = setup_reps(rec, |rec| kernels::setup(seed, rec));
            let (runs, walls) = passes(rec, args.seconds, 3, args.trace, |rec| {
                kernels::pass(&s, rec)
            });
            let mut e2e = EndToEnd {
                setup_s,
                ..EndToEnd::default()
            };
            for calls in &runs {
                calls.iter().for_each(|c| tally.check(c.correct));
                let (pass_s, region_s, instr) = kernels::pass_totals(calls);
                e2e.pass_s.push(pass_s);
                e2e.region_s.push(region_s);
                e2e.minstr_per_s.push(instr as f64 / 1e6 / pass_s);
            }
            if args.trace {
                layer.put("crono-graph.gen_s", gen_s);
                kernels::layer_metrics(&s.graph, &runs, layer);
                tally.check(layers::graph_and_tax(&s.graph, rec, layer));
            }
            (e2e, walls, sizes(&s.graph))
        }
        "serve-sssp-heavy" => {
            let (s, setup_s, gen_s) = setup_reps(rec, |rec| serve::setup(seed, rec));
            let mut totals = serve::Totals::default();
            let mut memo = HashMap::new();
            let (_, walls) = passes(rec, args.seconds, serve::MIN_PASSES, args.trace, |rec| {
                serve::pass(&s, &mut totals, &mut memo, rec)
            });
            tally.attempted += totals.attempted;
            tally.failed += totals.failed;
            let e2e = EndToEnd {
                setup_s,
                minstr_per_s: (totals.modeled_instr.iter().zip(&totals.pass_s))
                    .map(|(&i, &p)| i as f64 / 1e6 / p)
                    .collect(),
                pass_s: totals.pass_s.clone(),
                region_s: totals.region_s.clone(),
            };
            if args.trace {
                layer.put("crono-graph.gen_s", gen_s);
                serve::layer_metrics(&s, &totals, layer);
                tally.check(layers::graph_and_tax(&s.graph, rec, layer));
            }
            (e2e, walls, sizes(&s.graph))
        }
        "sim-small" => {
            let (s, setup_s, gen_s) = setup_reps(rec, |rec| sim::setup(seed, rec));
            let (runs, walls) = passes(rec, args.seconds, 2, args.trace, |rec| sim::pass(&s, rec));
            let mut e2e = EndToEnd {
                setup_s,
                ..EndToEnd::default()
            };
            for pass in &runs {
                pass.iter().for_each(|r| tally.check(r.correct));
                e2e.pass_s.push(pass.iter().map(|r| r.call_s).sum());
                e2e.region_s.push(pass.iter().map(|r| r.region_s).sum());
                let (instr, lax_s) = sim::lax_totals(pass);
                e2e.minstr_per_s.push(instr as f64 / 1e6 / lax_s);
            }
            if args.trace {
                layer.put("crono-graph.gen_s", gen_s);
                sim::layer_metrics(&runs, layer);
                tally.check(layers::graph_and_tax(&s.workload.graph, rec, layer));
            }
            (e2e, walls, sizes(&s.workload.graph))
        }
        _ => unreachable!("workload names are checked while parsing"),
    }
}

/// In a traced run, measures the layers the primary workload does not
/// reach with one short probe each, so every run reports every layer.
fn probe_other_layers(
    primary: &str,
    seed: u64,
    rec: &mut Recorder,
    tally: &mut Tally,
    layer: &mut Metrics,
) {
    rec.begin(BENCH, "probes");
    layers::runtime(rec, layer);
    if primary != "kernels-rmat" {
        let (s, _) = kernels::setup(seed, rec);
        let calls = kernels::pass(&s, rec);
        calls.iter().for_each(|c| tally.check(c.correct));
        kernels::layer_metrics(&s.graph, &[calls], layer);
    }
    if primary != "serve-sssp-heavy" {
        let (s, _) = serve::setup(seed, rec);
        let mut totals = serve::Totals::default();
        let mut memo = HashMap::new();
        for _ in 0..serve::MIN_PASSES {
            serve::pass(&s, &mut totals, &mut memo, rec);
        }
        tally.attempted += totals.attempted;
        tally.failed += totals.failed;
        serve::layer_metrics(&s, &totals, layer);
    }
    if primary != "sim-small" {
        let (s, _) = sim::setup(seed, rec);
        let runs = sim::pass(&s, rec);
        runs.iter().for_each(|r| tally.check(r.correct));
        sim::layer_metrics(&[runs], layer);
    }
    rec.end(BENCH, "probes");
}

fn git_sha() -> String {
    // Only the checkout's own repository: a checkout without `.git`
    // reports "unknown" rather than an enclosing repository's commit.
    std::process::Command::new("git")
        .args(["--git-dir", concat!(env!("CARGO_MANIFEST_DIR"), "/../.git")])
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one workload and prints its result; returns whether every
/// checked output was correct.
fn run(name: &str, args: &Args) -> bool {
    let mut rec = Recorder::new(args.trace);
    let mut tally = Tally::default();
    let mut layer = Metrics::default();
    let (e2e, walls, (vertices, edges)) = primary(name, args, &mut rec, &mut tally, &mut layer);
    e2e.put(&mut layer);
    let specs = if args.trace {
        probe_other_layers(name, args.seed, &mut rec, &mut tally, &mut layer);
        let trace = rec.finish().expect("a traced run keeps its spans");
        assert_eq!(trace.dropped, 0, "span ring sized for the run");
        for (l, secs) in spans::self_seconds(&trace) {
            layer.put(format!("{l}.self_s"), secs);
        }
        let wall_of = |on: bool| {
            median(
                &walls
                    .iter()
                    .filter(|w| w.1 == on)
                    .map(|w| w.0)
                    .collect::<Vec<_>>(),
            )
        };
        layer.put("trace.overhead_s", wall_of(true) - wall_of(false));
        layer.put("trace.spans", trace.events.len() as f64 / 2.0);
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{name}-seed{}.json", args.seed);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans::chrome_json(trace, name)))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("spans written to {path}");
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let values = layer.known(&specs);
    assert_eq!(
        values.len(),
        specs.len(),
        "{name} measured every metric of its mode"
    );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"stamp\": {{\"workload\": \"{name}\", \"git_sha\": \"{}\", \"nproc\": {nproc}, \
         \"threads\": {THREADS}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"vertices\": {}, \
         \"directed_edges\": {}, \"passes\": {}}}}}",
        git_sha(),
        args.seed,
        args.seconds,
        args.trace,
        vertices,
        edges,
        walls.len(),
    );
    // Everything measured goes to stderr; the result line carries the
    // mode's metric set.
    for (s, v) in layer.known(&metrics::all()) {
        eprintln!("{name:>16}  {:<42} {v:>16.6} {}", s.name, s.unit);
    }
    let correct = tally.failed == 0;
    if !correct {
        eprintln!(
            "{name}: {} of {} checked operations failed",
            tally.failed, tally.attempted
        );
    }
    println!(
        "{}",
        metrics::result_line(correct, tally.attempted, tally.failed, &values)
    );
    correct
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {}|all --seed N [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut ok = true;
    for name in &args.workloads {
        ok &= run(name, &args);
    }
    std::process::exit(if ok { 0 } else { 1 });
}
