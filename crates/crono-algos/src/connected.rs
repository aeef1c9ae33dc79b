//! `CONN_COMP` — connected components (§III-7).
//!
//! Iterative label propagation, CRONO's formulation: "a global data
//! structure ... contains labels for each vertex", a loop "runs over all
//! the vertices ... maintaining and updating labels iteratively", the
//! loop "is statically divided amongst threads", and "barriers separate
//! functions that set and update these labels". Labels converge to the
//! minimum vertex id of each component. The three barrier-separated
//! phases per iteration (propagate / count / check) give the sinusoidal
//! active-vertex pattern of Fig. 2.

use crate::graph_view::{chunk, SharedGraph};
use crate::{costs, AlgoOutcome};
use crono_graph::{CsrGraph, VertexId};
use crono_runtime::{Machine, RunOutcome, SharedU32s, SharedU64s, ThreadCtx};

/// Result of a connected-components run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnCompOutput {
    /// `labels[v]` = smallest vertex id in `v`'s component.
    pub labels: Vec<u32>,
    /// Number of connected components.
    pub components: usize,
    /// Label-propagation iterations until convergence.
    pub iterations: u32,
}

/// Parallel connected components: graph division with barrier-separated
/// phases (Table I).
pub fn parallel<M: Machine>(machine: &M, graph: &CsrGraph) -> AlgoOutcome<ConnCompOutput> {
    let n = graph.num_vertices();
    let shared = SharedGraph::new(graph);
    let labels = SharedU32s::from_values(0..n as u32);
    let changes = SharedU64s::new(3);

    let outcome = machine.run(|ctx| {
        let tid = ctx.thread_id();
        let nthreads = ctx.num_threads();
        let mut iter = 0usize;
        loop {
            if ctx.cancelled() {
                break;
            }
            ctx.span_begin("conncomp:iter");
            changes.set(ctx, (iter + 2) % 3, 0);
            let mut local_changes = 0u64;
            let mut active = 0u64;
            // Phase 1: propagate the minimum label across every edge.
            for v in chunk(n, tid, nthreads) {
                ctx.compute(costs::LABEL_OP);
                let lv = labels.get(ctx, v);
                let mut best = lv;
                for e in shared.edge_range(ctx, v as VertexId) {
                    let u = shared.neighbor(ctx, e) as usize;
                    ctx.compute(costs::LABEL_OP);
                    let lu = labels.get(ctx, u);
                    if lu < best {
                        best = lu;
                    }
                }
                if best < lv {
                    labels.fetch_min(ctx, v, best);
                    local_changes += 1;
                    active += 1;
                }
            }
            if active > 0 {
                ctx.record_active(active);
            }
            ctx.barrier();
            // Phase 2: publish this iteration's change count.
            if local_changes > 0 {
                changes.fetch_add(ctx, (iter + 1) % 3, local_changes);
            }
            ctx.barrier();
            // Phase 3: convergence check.
            let converged = changes.get(ctx, (iter + 1) % 3) == 0;
            ctx.span_end("conncomp:iter");
            if converged {
                break;
            }
            iter += 1;
        }
        iter as u32 + 1
    });
    summarize(labels.to_vec(), outcome)
}

fn summarize(labels: Vec<u32>, outcome: RunOutcome<u32>) -> AlgoOutcome<ConnCompOutput> {
    let mut uniq: Vec<u32> = labels.clone();
    uniq.sort_unstable();
    uniq.dedup();
    AlgoOutcome {
        output: ConnCompOutput {
            components: uniq.len(),
            iterations: outcome.per_thread[0],
            labels,
        },
        report: outcome.report,
    }
}

/// Out-edges each vertex links before Afforest samples component sizes.
const AFFOREST_ROUNDS: usize = 2;

/// Vertices (strided, deterministic) sampled to find the most frequent
/// component.
const AFFOREST_SAMPLES: usize = 1024;

/// Lock-free min-hooking union: joins `u`'s and `v`'s trees by CAS-ing
/// the *higher* root under the lower one, so the smallest vertex id of a
/// component is never hooked and survives as the root. Returns whether
/// this call performed the hook (for activity accounting).
fn afforest_link<C: ThreadCtx>(ctx: &mut C, comp: &SharedU32s, u: u32, v: u32) -> bool {
    let mut p1 = comp.get(ctx, u as usize);
    let mut p2 = comp.get(ctx, v as usize);
    while p1 != p2 {
        ctx.compute(costs::LABEL_OP);
        let (high, low) = if p1 > p2 { (p1, p2) } else { (p2, p1) };
        let p_high = comp.get(ctx, high as usize);
        if p_high == low {
            break;
        }
        if p_high == high && comp.compare_exchange(ctx, high as usize, high, low).is_ok() {
            return true;
        }
        // Lost the race or `high` is no longer a root: chase one
        // grandparent step and retry against the (monotone) lower label.
        let ph = comp.get(ctx, high as usize);
        p1 = comp.get(ctx, ph as usize);
        p2 = low;
    }
    false
}

/// Flattens every vertex in `range` onto its current root (pointer
/// chasing with full shortening; concurrent calls only ever write labels
/// closer to a root, so races are benign).
fn afforest_compress<C: ThreadCtx>(ctx: &mut C, comp: &SharedU32s, range: std::ops::Range<usize>) {
    for v in range {
        ctx.compute(costs::LABEL_OP);
        let mut c = comp.get(ctx, v);
        let mut cc = comp.get(ctx, c as usize);
        while c != cc {
            comp.set(ctx, v, cc);
            c = cc;
            cc = comp.get(ctx, c as usize);
        }
    }
}

/// Parallel connected components by *Afforest* (Sutton, Ben-Nun &
/// Barak; the GAP-style `afforest_cc` ablation) — subgraph sampling
/// with lock-free min-hooking union-find instead of iterative label
/// propagation.
///
/// Two *neighbor rounds* link only each vertex's first
/// `AFFOREST_ROUNDS` (2) out-edges, which is enough to coalesce the giant
/// component of skewed graphs. After a compress, a deterministic strided
/// sample of `AFFOREST_SAMPLES` (1024) labels identifies the most frequent
/// component, and the final pass skips every vertex already inside it —
/// the bulk of the graph — linking only the remaining out-edges and the
/// in-edges, so directed inputs are covered. The in-edges come from
/// [`CsrGraph::in_edges`]: the graph itself when it is certified
/// symmetric, otherwise its transpose, built outside the timed region.
/// Min-hooking makes the smallest vertex id of each component
/// its root, so after the final compress the labels are bit-identical
/// to [`parallel`]'s; `iterations` reports the link phases executed
/// (always `AFFOREST_ROUNDS` + 1).
pub fn parallel_afforest<M: Machine>(machine: &M, graph: &CsrGraph) -> AlgoOutcome<ConnCompOutput> {
    let n = graph.num_vertices();
    let shared = SharedGraph::new(graph);
    let in_edges = graph.in_edges();
    let tshared = SharedGraph::new(&in_edges);
    let comp = SharedU32s::from_values(0..n as u32);
    let majority = SharedU64s::new(1);

    let outcome = machine.run(|ctx| {
        let tid = ctx.thread_id();
        let nthreads = ctx.num_threads();
        let range = chunk(n, tid, nthreads);
        // Phase 1: neighbor rounds — link the r-th out-edge of every
        // vertex, one round at a time, then flatten.
        ctx.span_begin("conncomp:link");
        let mut hooks = 0u64;
        for r in 0..AFFOREST_ROUNDS {
            if !ctx.cancelled() {
                for v in range.clone() {
                    let er = shared.edge_range(ctx, v as VertexId);
                    if er.len() > r {
                        let u = shared.neighbor(ctx, er.start + r);
                        if afforest_link(ctx, &comp, v as u32, u) {
                            hooks += 1;
                        }
                    }
                }
            }
            ctx.barrier();
        }
        afforest_compress(ctx, &comp, range.clone());
        if hooks > 0 {
            ctx.record_active(hooks);
        }
        ctx.barrier();
        ctx.span_end("conncomp:link");
        // Phase 2: one thread samples every `stride`-th label and
        // publishes the most frequent one (sorted longest run — no
        // hashing, so the pick is deterministic).
        ctx.span_begin("conncomp:sample");
        if tid == 0 && n > 0 && !ctx.cancelled() {
            let stride = n.div_ceil(AFFOREST_SAMPLES).max(1);
            let mut samples: Vec<u32> = Vec::new();
            let mut v = 0;
            while v < n {
                ctx.compute(costs::LABEL_OP);
                samples.push(comp.get(ctx, v));
                v += stride;
            }
            samples.sort_unstable();
            let mut best = samples[0];
            let mut best_len = 0usize;
            let mut i = 0;
            while i < samples.len() {
                ctx.compute(costs::LABEL_OP);
                let mut j = i;
                while j < samples.len() && samples[j] == samples[i] {
                    j += 1;
                }
                if j - i > best_len {
                    best_len = j - i;
                    best = samples[i];
                }
                i = j;
            }
            majority.set(ctx, 0, best as u64);
        }
        ctx.barrier();
        let big = majority.get(ctx, 0) as u32;
        ctx.span_end("conncomp:sample");
        // Phase 3: vertices outside the majority component finish their
        // remaining out-edges plus their in-edges, then a final flatten
        // leaves min-id labels.
        ctx.span_begin("conncomp:final");
        let mut final_hooks = 0u64;
        if !ctx.cancelled() {
            for v in range.clone() {
                ctx.compute(costs::LABEL_OP);
                if comp.get(ctx, v) == big {
                    continue;
                }
                for e in shared.edge_range(ctx, v as VertexId).skip(AFFOREST_ROUNDS) {
                    let u = shared.neighbor(ctx, e);
                    if afforest_link(ctx, &comp, v as u32, u) {
                        final_hooks += 1;
                    }
                }
                for e in tshared.edge_range(ctx, v as VertexId) {
                    let u = tshared.neighbor(ctx, e);
                    if afforest_link(ctx, &comp, v as u32, u) {
                        final_hooks += 1;
                    }
                }
            }
        }
        if final_hooks > 0 {
            ctx.record_active(final_hooks);
        }
        ctx.barrier();
        afforest_compress(ctx, &comp, range);
        ctx.barrier();
        ctx.span_end("conncomp:final");
        AFFOREST_ROUNDS as u32 + 1
    });
    summarize(comp.to_vec(), outcome)
}

/// Sequential reference (label propagation on one thread).
///
/// # Panics
///
/// Panics if `machine.num_threads() != 1`.
pub fn sequential<M: Machine>(machine: &M, graph: &CsrGraph) -> AlgoOutcome<ConnCompOutput> {
    assert_eq!(
        machine.num_threads(),
        1,
        "sequential reference needs 1 thread"
    );
    parallel(machine, graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crono_graph::dsu::Dsu;
    use crono_graph::gen::{rmat, uniform_random, RmatParams};
    use crono_runtime::NativeMachine;

    fn dsu_labels(graph: &CsrGraph) -> Vec<u32> {
        let mut dsu = Dsu::new(graph.num_vertices());
        for v in 0..graph.num_vertices() as u32 {
            for (u, _) in graph.neighbors(v) {
                dsu.union(v, u);
            }
        }
        dsu.canonical_labels()
    }

    #[test]
    fn matches_union_find_on_connected_graph() {
        let g = uniform_random(200, 600, 4, 2);
        let out = parallel(&NativeMachine::new(4), &g);
        assert_eq!(out.output.labels, dsu_labels(&g));
        assert_eq!(out.output.components, 1);
    }

    #[test]
    fn matches_union_find_on_fragmented_graph() {
        // R-MAT with few edges leaves many isolated vertices.
        let g = rmat(8, 100, 4, RmatParams::default(), 7);
        let out = parallel(&NativeMachine::new(4), &g);
        let expected = dsu_labels(&g);
        assert_eq!(out.output.labels, expected);
        let mut uniq = expected;
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(out.output.components, uniq.len());
    }

    #[test]
    fn isolated_vertices_keep_own_label() {
        let g = CsrGraph::from_edges(4, vec![(1, 2, 1), (2, 1, 1)]);
        let out = parallel(&NativeMachine::new(2), &g);
        assert_eq!(out.output.labels, vec![0, 1, 1, 3]);
        assert_eq!(out.output.components, 3);
    }

    #[test]
    fn thread_count_invariant() {
        let g = uniform_random(128, 400, 4, 5);
        let a = parallel(&NativeMachine::new(1), &g);
        let b = parallel(&NativeMachine::new(8), &g);
        assert_eq!(a.output.labels, b.output.labels);
    }

    #[test]
    fn afforest_matches_union_find() {
        let g = uniform_random(200, 600, 4, 2);
        let expected = dsu_labels(&g);
        for threads in [1, 2, 4, 8] {
            let out = parallel_afforest(&NativeMachine::new(threads), &g);
            assert_eq!(out.output.labels, expected, "threads={threads}");
            assert_eq!(out.output.components, 1);
            assert_eq!(out.output.iterations, AFFOREST_ROUNDS as u32 + 1);
        }
    }

    #[test]
    fn afforest_on_fragmented_graph() {
        // R-MAT with few edges: many isolated vertices and tiny
        // components, so the majority-component skip covers little and
        // the final phase does the work.
        let g = rmat(8, 100, 4, RmatParams::default(), 7);
        let expected = dsu_labels(&g);
        for threads in [1, 4] {
            let out = parallel_afforest(&NativeMachine::new(threads), &g);
            assert_eq!(out.output.labels, expected, "threads={threads}");
        }
    }

    #[test]
    fn afforest_isolated_vertices_keep_own_label() {
        let g = CsrGraph::from_edges(4, vec![(1, 2, 1), (2, 1, 1)]);
        let out = parallel_afforest(&NativeMachine::new(2), &g);
        assert_eq!(out.output.labels, vec![0, 1, 1, 3]);
        assert_eq!(out.output.components, 3);
    }

    #[test]
    fn afforest_links_high_degree_tail_edges() {
        // A star whose spokes sit *after* the first AFFOREST_ROUNDS
        // out-edges of the hub: the neighbor rounds alone cannot finish
        // the component, so this exercises the final phase's `skip`.
        let mut edges = Vec::new();
        for s in 1..32u32 {
            edges.push((0, s, 1));
            edges.push((s, 0, 1));
        }
        let g = CsrGraph::from_edges(33, edges);
        let out = parallel_afforest(&NativeMachine::new(4), &g);
        assert_eq!(out.output.labels, dsu_labels(&g));
        assert_eq!(out.output.components, 2); // star + isolated vertex 32
    }

    #[test]
    fn path_graph_needs_multiple_iterations() {
        // Min-label propagation sweeps each thread's chunk in one pass
        // (ascending scan order), so a path needs roughly one iteration
        // per chunk boundary plus the convergence check.
        let mut edges = Vec::new();
        for v in 0..63u32 {
            edges.push((v, v + 1, 1));
            edges.push((v + 1, v, 1));
        }
        let g = CsrGraph::from_edges(64, edges);
        let out = parallel(&NativeMachine::new(4), &g);
        assert_eq!(out.output.components, 1);
        assert_eq!(out.output.labels, vec![0; 64]);
        assert!(out.output.iterations >= 2, "got {}", out.output.iterations);
    }
}
