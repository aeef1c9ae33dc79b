//! Probes of the layers under the kernels: graph transpose, the
//! native context's counting tax, and runtime primitives at 2 threads.

use crate::metrics::Metrics;
use crate::spans::{Recorder, GRAPH, RUNTIME};
use crate::stats::median;
use crate::THREADS;
use crono_algos::bfs;
use crono_graph::CsrGraph;
use crono_runtime::{Machine, NativeCtx, NativeMachine, SlidingQueue, Steal, ThreadCtx, WorkDeque};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of every probe; the median is reported.
const REPS: usize = 5;
/// Operations per microcost repetition.
const OPS: usize = 20_000;
/// Barriers per repetition (each is a futex handoff, so fewer).
const BARRIERS: usize = 2_000;

fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..REPS).map(|_| f()).collect::<Vec<_>>())
}

fn seconds(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// BFS levels over `CsrGraph::neighbors` with no execution context.
pub fn plain_bfs(graph: &CsrGraph, source: u32) -> Vec<u32> {
    let mut level = vec![bfs::UNVISITED; graph.num_vertices()];
    level[source as usize] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        let next = level[v as usize] + 1;
        for (u, _) in graph.neighbors(v) {
            if level[u as usize] == bfs::UNVISITED {
                level[u as usize] = next;
                queue.push_back(u);
            }
        }
    }
    level
}

/// Transpose time and the native counting tax on `graph`. Returns
/// whether the plain BFS agreed with `bfs::sequential`.
pub fn graph_and_tax(graph: &CsrGraph, rec: &mut Recorder, out: &mut Metrics) -> bool {
    out.put(
        "crono-graph.transpose_s",
        median_of(|| {
            seconds(|| {
                drop(black_box(
                    rec.span(GRAPH, "transpose", || graph.transpose()),
                ))
            })
        }),
    );
    let one = NativeMachine::new(1);
    let native = median_of(|| {
        seconds(|| {
            drop(black_box(rec.span(RUNTIME, "bfs_native", || {
                bfs::sequential(&one, graph, 0)
            })))
        })
    });
    let plain = median_of(|| {
        seconds(|| {
            drop(black_box(
                rec.span(RUNTIME, "bfs_plain", || plain_bfs(graph, 0)),
            ))
        })
    });
    out.put("crono-runtime.native_bfs_ms", native * 1e3);
    out.put("crono-runtime.plain_bfs_ms", plain * 1e3);
    out.put("crono-runtime.native_tax", native / plain);
    plain_bfs(graph, 0) == bfs::sequential(&one, graph, 0).output.level
}

/// Nanoseconds per operation of the slowest thread, median over reps;
/// `fresh` builds the structure each rep works on.
fn per_op_ns<S: Sync>(
    ops: usize,
    mut fresh: impl FnMut() -> S,
    body: impl Fn(&S, &mut NativeCtx) -> f64 + Sync,
) -> f64 {
    let machine = NativeMachine::new(THREADS);
    median_of(|| {
        let state = fresh();
        let secs = machine.run(|ctx| body(&state, ctx)).per_thread;
        secs.into_iter().fold(0.0, f64::max) * 1e9 / ops as f64
    })
}

/// Times `ops` iterations of `op` on the calling thread.
fn timed(ops: usize, mut op: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..ops as u64 {
        op(i);
    }
    start.elapsed().as_secs_f64()
}

/// `ThreadCtx::barrier`, `WorkDeque` push/pop and steal, and
/// `SlidingQueue` claims, each at 2 threads.
pub fn runtime(rec: &mut Recorder, out: &mut Metrics) {
    rec.begin(RUNTIME, "microcosts");
    let barrier = per_op_ns(
        BARRIERS,
        || (),
        |(), ctx| {
            ctx.barrier();
            timed(BARRIERS, |_| ctx.barrier())
        },
    );
    out.put("crono-runtime.barrier_ns", barrier);
    // The owner pushes and pops; the other thread stays out of the way.
    let push_pop = per_op_ns(
        OPS,
        || WorkDeque::new(OPS),
        |deque, ctx| {
            if ctx.thread_id() != 0 {
                return 0.0;
            }
            timed(OPS, |i| {
                assert!(deque.push(ctx, i), "deque sized for the probe");
                black_box(deque.pop(ctx));
            })
        },
    );
    out.put("crono-runtime.deque_push_pop_ns", push_pop);
    // A thief drains a full deque the owner never touches.
    let full = || {
        let victim = WorkDeque::new(OPS);
        for i in 0..OPS as u64 {
            assert!(victim.push_plain(i), "deque sized for the probe");
        }
        victim
    };
    let steal = per_op_ns(OPS, full, |victim, ctx| {
        if ctx.thread_id() != 1 {
            return 0.0;
        }
        timed(OPS, |_| loop {
            match victim.steal(ctx) {
                Steal::Taken(t) => {
                    black_box(t);
                    break;
                }
                Steal::Retry => {}
                Steal::Empty => panic!("deque drained early"),
            }
        })
    });
    out.put("crono-runtime.deque_steal_ns", steal);
    // Both threads claim single slots on one shared tail.
    let claim = per_op_ns(
        OPS,
        || SlidingQueue::new(THREADS * OPS),
        |queue, ctx| {
            ctx.barrier();
            timed(OPS, |i| queue.push(ctx, i as u32))
        },
    );
    out.put("crono-runtime.sliding_queue_claim_ns", claim);
    rec.end(RUNTIME, "microcosts");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crono_graph::gen::uniform_random;

    #[test]
    fn plain_bfs_matches_the_suite_reference() {
        let g = uniform_random(300, 1200, 8, 9);
        let want = bfs::sequential(&NativeMachine::new(1), &g, 0).output.level;
        assert_eq!(plain_bfs(&g, 0), want);
    }
}
