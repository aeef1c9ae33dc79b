//! Architectural design-space exploration — the paper's actual use case:
//! run one benchmark on the simulated futuristic multicore across
//! configurations and compare the completion-time breakdowns.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use crono::algos::pagerank;
use crono::graph::gen::uniform_random;
use crono::runtime::Machine;
use crono::sim::{CoreModel, SimConfig, SimMachine};

fn run(label: &str, config: SimConfig, threads: usize) {
    let graph = uniform_random(4_096, 32_768, 64, 42);
    let machine = SimMachine::new(config, threads);
    let outcome = pagerank::parallel(&machine, &graph, 3);
    let report = &outcome.report;
    let b = report.breakdown();
    let total = b.total().max(1) as f64;
    println!(
        "{label:<28} threads={threads:<3} cycles={:<12} \
         compute={:>4.1}% l1-l2={:>4.1}% wait={:>4.1}% sharers={:>4.1}% \
         offchip={:>4.1}% sync={:>4.1}%  L1 miss={:.2}%",
        report.completion,
        100.0 * b.compute as f64 / total,
        100.0 * b.l1_to_l2home as f64 / total,
        100.0 * b.l2home_waiting as f64 / total,
        100.0 * b.l2home_sharers as f64 / total,
        100.0 * b.l2home_offchip as f64 / total,
        100.0 * b.synchronization as f64 / total,
        report.misses.l1d_miss_rate(),
    );
    let _ = machine.num_threads();
}

fn main() {
    println!("PageRank on the Table II multicore, across design points:\n");
    for threads in [1, 16, 64] {
        run("in-order (Table II)", SimConfig::default(), threads);
    }
    run("out-of-order cores", SimConfig::paper_ooo(), 16);
    run(
        "no link contention",
        SimConfig {
            mesh: crono::sim::MeshConfig {
                link_contention: false,
                ..SimConfig::default().mesh
            },
            ..SimConfig::default()
        },
        16,
    );
    run(
        "ACKWise-1 directory",
        SimConfig {
            ackwise_pointers: 1,
            ..SimConfig::default()
        },
        16,
    );
    run(
        "small OOO core",
        SimConfig {
            core: CoreModel::OutOfOrder {
                rob: 64,
                load_queue: 32,
                store_queue: 24,
            },
            ..SimConfig::default()
        },
        16,
    );
    println!("\nEach row is one simulated design point — the breakdowns show where");
    println!("the cycles go, which is exactly the methodology of the paper's Figs. 1 & 7.");
}
