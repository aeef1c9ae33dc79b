//! Tables I–III: static configuration tables, regenerated from the code
//! that actually implements them (so drift is impossible).

use crate::report::Table;
use crono_algos::Benchmark;
use crono_graph::gen::catalog::Dataset;
use crono_runtime::LINE_SIZE;
use crono_sim::{CoreModel, SimConfig};

/// Table I: benchmarks and parallelizations used for evaluation.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table I: Benchmarks and parallelizations",
        vec!["Benchmark", "Category", "Parallelization"],
    );
    for b in Benchmark::ALL {
        t.push_row(vec![
            b.label().to_string(),
            b.category().to_string(),
            b.strategy().to_string(),
        ]);
    }
    t
}

/// Table II's L1-I row. The simulator has no instruction cache (each
/// instruction counts one L1-I access, for the energy model only), so
/// no configuration field sets it.
const L1I_ROW: &str = "32 KB, 4-way, 1 cycle";

/// Table II: architectural parameters, read back from the live
/// [`SimConfig`].
pub fn table2(config: &SimConfig) -> Table {
    let mut t = Table::new(
        "Table II: Graphite architectural parameters",
        vec!["Parameter", "Value"],
    );
    let mut kv = |k: &str, v: String| t.push_row(vec![k.to_string(), v]);
    kv(
        "Number of Cores",
        format!("{} @ {} GHz", config.num_cores, config.freq_ghz),
    );
    kv(
        "Compute Pipeline per core",
        match config.core {
            CoreModel::InOrder => "Single-Issue, In-Order".to_string(),
            CoreModel::OutOfOrder {
                rob,
                load_queue,
                store_queue,
            } => {
                format!("Single-Issue, Out-of-Order (ROB {rob}, LQ {load_queue}, SQ {store_queue})")
            }
        },
    );
    kv("L1-I Cache per core", L1I_ROW.to_string());
    kv(
        "L1-D Cache per core",
        format!(
            "{} KB, {}-way, {} cycle",
            config.l1d.size_bytes / 1024,
            config.l1d.associativity,
            config.l1d.latency
        ),
    );
    kv(
        "L2 Cache per core",
        format!(
            "{} KB, {}-way, {} cycle, Inclusive, NUCA",
            config.l2.size_bytes / 1024,
            config.l2.associativity,
            config.l2.latency
        ),
    );
    kv("Cache Line Size", format!("{LINE_SIZE} bytes"));
    kv(
        "Directory Protocol",
        format!(
            "Invalidation-based MESI, ACKWise{} directory",
            config.ackwise_pointers
        ),
    );
    kv(
        "Num. of Memory Controllers",
        config.dram.controllers.to_string(),
    );
    kv(
        "DRAM Bandwidth",
        format!("{} GBps per controller", config.dram.bandwidth_gbps),
    );
    kv("DRAM Latency", format!("{} ns", config.dram.latency_ns));
    kv(
        "Network",
        format!(
            "Electrical 2-D Mesh, XY routing, {}-cycle hop, {}-bit flits, link contention {}",
            config.mesh.hop_latency,
            config.mesh.flit_bits,
            if config.mesh.link_contention {
                "on"
            } else {
                "off"
            }
        ),
    );
    t
}

/// Table III: input graphs for evaluation (paper sizes and the stand-in
/// generators).
pub fn table3() -> Table {
    let mut t = Table::new(
        "Table III: Input graphs",
        vec!["Dataset", "Vertices", "Edges", "Stand-in generator"],
    );
    for d in Dataset::ALL {
        let generator = match d {
            Dataset::SparseSynthetic => "uniform_random (GTgraph-style)",
            Dataset::FacebookSocial => "r-mat (Graph500 a,b,c,d)",
            _ => "road_network (grid + drops + shortcuts)",
        };
        t.push_row(vec![
            d.label().to_string(),
            d.paper_vertices().to_string(),
            d.paper_edges().to_string(),
            generator.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_ten() {
        assert_eq!(table1().rows.len(), 10);
    }

    #[test]
    fn table2_reflects_config() {
        let t = table2(&SimConfig::default());
        let rendered = t.render();
        assert!(rendered.contains("256 @ 1 GHz"));
        assert!(rendered.contains("ACKWise4"));
        assert!(rendered.contains("100 ns"));
    }

    #[test]
    fn table3_matches_catalog() {
        let t = table3();
        assert_eq!(t.rows.len(), 5);
        assert!(t.to_tsv().contains("1048576"));
    }
}
