//! Metric names, units and the result line.
//!
//! Every workload reports the same metric set: the end-to-end set on an
//! untraced run, the per-layer set on a traced run. `BENCHMARK.json` at
//! the repository root lists the same names; a test keeps the two in
//! step.

use std::fmt::Write as _;

/// One reported metric's name, unit and which direction is better.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Metric name (`[A-Za-z0-9_.-]`, starting with a letter or digit).
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
}

fn spec(name: impl Into<String>, unit: &'static str, higher_is_better: bool) -> Spec {
    Spec {
        name: name.into(),
        unit,
        higher_is_better,
    }
}

/// The kernels of one `kernels-rmat` pass, in call order.
pub const KERNELS: [&str; 8] = [
    "bfs",
    "bfs_dirop",
    "sssp",
    "sssp_delta",
    "cc",
    "cc_afforest",
    "pagerank",
    "pagerank_pull",
];

/// Simulated kernels of one `sim-small` lax pass, in call order.
pub const SIM_KERNELS: [&str; 3] = ["bfs", "sssp", "pagerank"];

/// End-to-end metrics, reported by every workload on untraced runs.
pub fn end_to_end() -> Vec<Spec> {
    vec![
        spec("setup_s", "s", false),
        spec("pass_s", "s", false),
        spec("peak_rss_mb", "MB", false),
    ]
}

/// Per-layer metrics, reported by every workload on traced runs.
pub fn per_layer() -> Vec<Spec> {
    let mut v = vec![
        spec("bench.region_s", "s", false),
        spec("bench.minstr_per_s", "Minstr/s", true),
        spec("crono-graph.gen_s", "s", false),
        spec("crono-graph.transpose_s", "s", false),
        spec("crono-runtime.native_bfs_ms", "ms", false),
        spec("crono-runtime.plain_bfs_ms", "ms", false),
        spec("crono-runtime.native_tax", "x", false),
        spec("crono-runtime.barrier_ns", "ns", false),
        spec("crono-runtime.deque_push_pop_ns", "ns", false),
        spec("crono-runtime.deque_steal_ns", "ns", false),
        spec("crono-runtime.sliding_queue_claim_ns", "ns", false),
    ];
    for k in KERNELS {
        v.push(spec(format!("crono-algos.{k}.call_s"), "s", false));
        v.push(spec(format!("crono-algos.{k}.region_s"), "s", false));
        v.push(spec(format!("crono-algos.{k}.prep_s"), "s", false));
        v.push(spec(format!("crono-algos.{k}.region_mteps"), "MTEPS", true));
        v.push(spec(format!("crono-algos.{k}.variability"), "ratio", false));
    }
    for (name, unit, higher) in [
        ("wall_qps", "1/s", true),
        ("wall_p50_ms", "ms", false),
        ("wall_p99_ms", "ms", false),
        ("batch_ms_p50", "ms", false),
        ("batch_ms_p90", "ms", false),
        ("queue_wait_ms_p50", "ms", false),
        ("queue_wait_ms_p99", "ms", false),
        ("batches_per_pass", "count", false),
        ("answered", "count", true),
        ("cache_hits", "count", true),
        ("cache_hit_ratio", "ratio", true),
        ("batched", "count", true),
        ("batched_ratio", "ratio", true),
        ("cpu_s", "s", false),
        ("wall_s", "s", false),
        ("cpu_util", "ratio", true),
        ("modeled_qps", "1/s", true),
        ("modeled_p99_us", "us", false),
        ("pagerank_snapshot_s", "s", false),
    ] {
        v.push(spec(format!("crono-suite.engine.{name}"), unit, higher));
    }
    for k in SIM_KERNELS {
        v.push(spec(format!("crono-sim.{k}.lax_s"), "s", false));
        v.push(spec(format!("crono-sim.{k}.minstr"), "Minstr", false));
        v.push(spec(
            format!("crono-sim.{k}.minstr_per_s"),
            "Minstr/s",
            true,
        ));
    }
    v.push(spec("crono-sim.bfs.det_s", "s", false));
    v.push(spec("crono-sim.det_slowdown", "x", false));
    v.push(spec("crono-sim.bfs.det_completion_cycles", "cycles", false));
    for layer in crate::spans::LAYERS {
        v.push(spec(format!("{layer}.self_s"), "s", false));
    }
    v.push(spec("trace.overhead_s", "s", false));
    v.push(spec("trace.spans", "count", false));
    v
}

/// Both sets, end-to-end first.
pub fn all() -> Vec<Spec> {
    let mut v = end_to_end();
    v.extend(per_layer());
    v
}

/// Whether `name` is a legal metric name.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values, in report order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics on an illegal name, a non-finite value or a repeated
    /// name: all are bugs in the benchmark.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(valid_name(&name), "illegal metric name {name}");
        assert!(value.is_finite(), "{name} = {value} is not a number");
        assert!(self.get(&name).is_none(), "{name} reported twice");
        self.0.push((name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The measured values among `specs`, in their order.
    pub fn known(&self, specs: &[Spec]) -> Vec<(Spec, f64)> {
        specs
            .iter()
            .filter_map(|s| Some((s.clone(), self.get(&s.name)?)))
            .collect()
    }
}

/// The one-line JSON result the benchmark ends with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &[(Spec, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (s, v)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            s.name, s.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_legal_and_unique() {
        let specs = all();
        for s in &specs {
            assert!(valid_name(&s.name), "illegal metric name {}", s.name);
            assert!(s.unit.len() <= 16, "unit too long: {}", s.unit);
        }
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate metric names");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        assert!(valid_name("crono-algos.bfs.call_s"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("p99/ms"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    /// `BENCHMARK.json` lists exactly the metrics this program reports,
    /// with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &entry[at + f.len() + 2..];
                        let open = rest.find('"').expect("string value") + 1;
                        let close = open + rest[open..].find('"').expect("string ends");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        for (key, specs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed = section(key);
            let expected: Vec<(String, String, String)> = specs
                .iter()
                .map(|s| {
                    let better = if s.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    };
                    (s.name.clone(), s.unit.to_string(), better.to_string())
                })
                .collect();
            assert_eq!(listed, expected, "{key} in BENCHMARK.json");
        }
    }

    #[test]
    fn result_line_shape() {
        let values = [
            (spec("pass_s", "s", false), 1.25),
            (spec("minstr_per_s", "Minstr/s", true), 40.5),
        ];
        let line = result_line(true, 3, 0, &values);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"pass_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"minstr_per_s\": {\"value\": 40.5, \"unit\": \"Minstr/s\"}}}"
        );
    }
}
