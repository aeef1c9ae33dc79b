//! Ablation benches for the design choices DESIGN.md calls out:
//! ACKWise-4 vs full-map directory, link contention on/off, padded vs
//! packed lock layout (false sharing), plus the paper's §VII proposals:
//! locality-aware coherence and O1TURN oblivious routing.

use crono_bench::{criterion_group, criterion_main, Criterion};
use crono_bench::workload;
use crono_sim::{MeshConfig, RoutingPolicy, SimConfig, SimMachine};
use crono_suite::runner::{run_parallel, run_parallel_ablated};
use crono_runtime::{LockSet, Machine, ThreadCtx};
use crono_algos::{Ablation, Benchmark};

fn directory(c: &mut Criterion) {
    let w = workload();
    let mut g = c.benchmark_group("ablation_directory");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    for (name, pointers) in [("ackwise4", 4usize), ("fullmap", 256)] {
        let config = SimConfig {
            ackwise_pointers: pointers,
            ..SimConfig::default()
        };
        g.bench_function(name, |b| {
            b.iter(|| {
                run_parallel(Benchmark::PageRank, &SimMachine::new(config.clone(), 16), &w)
                    .completion
            })
        });
    }
    g.finish();
}

fn noc_contention(c: &mut Criterion) {
    let w = workload();
    let mut g = c.benchmark_group("ablation_noc_contention");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    for (name, contention) in [("contended", true), ("ideal", false)] {
        let config = SimConfig {
            mesh: MeshConfig {
                link_contention: contention,
                ..SimConfig::default().mesh
            },
            ..SimConfig::default()
        };
        g.bench_function(name, |b| {
            b.iter(|| {
                run_parallel(Benchmark::Bfs, &SimMachine::new(config.clone(), 16), &w).completion
            })
        });
    }
    g.finish();
}

fn lock_alignment(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_alignment");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    for (name, packed) in [("padded", false), ("packed", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let locks = if packed {
                    LockSet::new_packed(64)
                } else {
                    LockSet::new(64)
                };
                let m = SimMachine::new(SimConfig::tiny(16), 4);
                m.run(|ctx| {
                    for i in 0..64 {
                        ctx.lock(&locks, (i + ctx.thread_id()) % 64);
                        ctx.compute(5);
                        ctx.unlock(&locks, (i + ctx.thread_id()) % 64);
                    }
                })
                .report
                .completion
            })
        });
    }
    g.finish();
}

fn coherence_protocol(c: &mut Criterion) {
    let w = workload();
    let mut g = c.benchmark_group("ablation_coherence_protocol");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    for (name, e_state) in [("mesi", true), ("msi", false)] {
        let config = SimConfig {
            enable_e_state: e_state,
            ..SimConfig::default()
        };
        g.bench_function(name, |b| {
            b.iter(|| {
                run_parallel(Benchmark::SsspDijk, &SimMachine::new(config.clone(), 16), &w)
                    .completion
            })
        });
    }
    g.finish();
}

fn frontier_repr(c: &mut Criterion) {
    let w = workload();
    let mut g = c.benchmark_group("ablation_frontier_repr");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    for &bench in Ablation::FrontierRepr.benchmarks() {
        for (kernel, ablation) in [("default", None), ("bitmap", Some(Ablation::FrontierRepr))] {
            g.bench_function(format!("{}/{kernel}", bench.label()), |b| {
                b.iter(|| {
                    run_parallel_ablated(
                        bench,
                        &SimMachine::new(SimConfig::default(), 16),
                        &w,
                        ablation,
                    )
                    .completion
                })
            });
        }
    }
    g.finish();
}

fn pagerank_update(c: &mut Criterion) {
    let w = workload();
    let mut g = c.benchmark_group("ablation_pagerank_update");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    for (kernel, ablation) in [("locked", None), ("cas", Some(Ablation::PagerankUpdate))] {
        g.bench_function(kernel, |b| {
            b.iter(|| {
                run_parallel_ablated(
                    Benchmark::PageRank,
                    &SimMachine::new(SimConfig::default(), 16),
                    &w,
                    ablation,
                )
                .completion
            })
        });
    }
    g.finish();
}

fn task_steal(c: &mut Criterion) {
    let w = workload();
    let mut g = c.benchmark_group("ablation_task_steal");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    for &bench in Ablation::TaskSteal.benchmarks() {
        for (kernel, ablation) in [("default", None), ("steal", Some(Ablation::TaskSteal))] {
            g.bench_function(format!("{}/{kernel}", bench.label()), |b| {
                b.iter(|| {
                    run_parallel_ablated(
                        bench,
                        &SimMachine::new(SimConfig::default(), 16),
                        &w,
                        ablation,
                    )
                    .completion
                })
            });
        }
    }
    g.finish();
}

fn lockfree_bound(c: &mut Criterion) {
    let w = workload();
    let mut g = c.benchmark_group("ablation_lockfree_bound");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    for (kernel, ablation) in [("locked", None), ("lockfree", Some(Ablation::LockfreeBound))] {
        g.bench_function(kernel, |b| {
            b.iter(|| {
                run_parallel_ablated(
                    Benchmark::Tsp,
                    &SimMachine::new(SimConfig::default(), 16),
                    &w,
                    ablation,
                )
                .completion
            })
        });
    }
    g.finish();
}

fn dirop_bfs(c: &mut Criterion) {
    let w = workload();
    let mut g = c.benchmark_group("ablation_dirop_bfs");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    for (kernel, ablation) in [("default", None), ("dirop", Some(Ablation::DiropBfs))] {
        g.bench_function(kernel, |b| {
            b.iter(|| {
                run_parallel_ablated(
                    Benchmark::Bfs,
                    &SimMachine::new(SimConfig::default(), 16),
                    &w,
                    ablation,
                )
                .completion
            })
        });
    }
    g.finish();
}

fn delta_sssp(c: &mut Criterion) {
    let w = workload();
    let mut g = c.benchmark_group("ablation_delta_sssp");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    for (kernel, ablation) in [("default", None), ("delta", Some(Ablation::DeltaSssp))] {
        g.bench_function(kernel, |b| {
            b.iter(|| {
                run_parallel_ablated(
                    Benchmark::SsspDijk,
                    &SimMachine::new(SimConfig::default(), 16),
                    &w,
                    ablation,
                )
                .completion
            })
        });
    }
    g.finish();
}

fn afforest_cc(c: &mut Criterion) {
    let w = workload();
    let mut g = c.benchmark_group("ablation_afforest_cc");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    for (kernel, ablation) in [("default", None), ("afforest", Some(Ablation::AfforestCc))] {
        g.bench_function(kernel, |b| {
            b.iter(|| {
                run_parallel_ablated(
                    Benchmark::ConnComp,
                    &SimMachine::new(SimConfig::default(), 16),
                    &w,
                    ablation,
                )
                .completion
            })
        });
    }
    g.finish();
}

fn locality_aware(c: &mut Criterion) {
    let w = workload();
    let mut g = c.benchmark_group("ablation_locality_aware");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    for (name, on) in [("baseline", false), ("locality_aware", true)] {
        let config = SimConfig {
            locality_aware: on,
            ..SimConfig::default()
        };
        g.bench_function(name, |b| {
            b.iter(|| {
                run_parallel(Benchmark::ConnComp, &SimMachine::new(config.clone(), 16), &w)
                    .completion
            })
        });
    }
    g.finish();
}

fn routing(c: &mut Criterion) {
    let w = workload();
    let mut g = c.benchmark_group("ablation_routing");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    for (name, policy) in [
        ("xy", RoutingPolicy::XyDimensionOrder),
        ("o1turn", RoutingPolicy::O1Turn),
    ] {
        let config = SimConfig {
            mesh: MeshConfig {
                routing: policy,
                ..SimConfig::default().mesh
            },
            ..SimConfig::default()
        };
        g.bench_function(name, |b| {
            b.iter(|| {
                run_parallel(Benchmark::Bfs, &SimMachine::new(config.clone(), 16), &w).completion
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    directory,
    coherence_protocol,
    noc_contention,
    lock_alignment,
    frontier_repr,
    pagerank_update,
    task_steal,
    lockfree_bound,
    dirop_bfs,
    delta_sssp,
    afforest_cc,
    locality_aware,
    routing
);
criterion_main!(benches);
