//! Determinism and golden-snapshot tests for the five synthetic
//! generators.
//!
//! The suite's reproducibility promise is that a (generator, parameters,
//! seed) triple is a *permanent* name for a graph: same seed ⇒
//! byte-identical edge list, in the same process, across processes, and
//! regardless of how many threads the host machine runs. The golden
//! snapshots below pin vertex counts, edge counts, degree histograms, and
//! an FNV-1a fingerprint of the full weighted edge list, so any change to
//! the PRNG or the generators' draw order fails loudly instead of
//! silently invalidating every recorded benchmark result.

use crono_graph::gen::{
    preferential_attachment, rmat, road_network, tsp_cities, uniform_random, RmatParams,
    TspInstance,
};
use crono_graph::stream::RmatStream;
use crono_graph::CsrGraph;

/// FNV-1a over a stream of `u64` values, each as little-endian bytes.
fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in values {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// [`fnv1a`] over a directed edge stream, mixing `src`, `dst` and
/// `weight` of each edge in order.
fn edge_fingerprint(edges: impl IntoIterator<Item = (u32, u32, u32)>) -> u64 {
    fnv1a(
        edges
            .into_iter()
            .flat_map(|(s, d, w)| [s as u64, d as u64, w as u64]),
    )
}

/// [`edge_fingerprint`] over the CSR's edges in storage order.
fn fingerprint(g: &CsrGraph) -> u64 {
    edge_fingerprint(
        (0..g.num_vertices() as u32).flat_map(|v| g.neighbors(v).map(move |(u, w)| (v, u, w))),
    )
}

/// [`fnv1a`] over a TSP instance's (integral) distance matrix.
fn cities_fingerprint(inst: &TspInstance) -> u64 {
    fnv1a(inst.distance_matrix().iter().map(|&d| d as u64))
}

/// Vertex count per degree, indexed by degree (len = max degree + 1).
fn degree_histogram(g: &CsrGraph) -> Vec<usize> {
    let mut hist = vec![0usize; g.max_degree() + 1];
    for v in 0..g.num_vertices() as u32 {
        hist[g.degree(v)] += 1;
    }
    hist
}

/// Asserts that `make` yields the same graph twice in-process and once
/// per thread across 4 concurrently spawned threads.
fn assert_deterministic(make: impl Fn() -> CsrGraph + Sync) {
    let once = make();
    assert_eq!(once, make(), "same seed must reproduce in-process");
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4).map(|_| s.spawn(&make)).collect();
        for h in handles {
            assert_eq!(
                once,
                h.join().expect("generator thread panicked"),
                "same seed must reproduce across threads"
            );
        }
    });
}

#[test]
fn uniform_is_deterministic_across_calls_and_threads() {
    assert_deterministic(|| uniform_random(64, 256, 8, 42));
}

#[test]
fn road_is_deterministic_across_calls_and_threads() {
    assert_deterministic(|| road_network(12, 12, 8, 0.2, 0.05, 42));
}

#[test]
fn rmat_is_deterministic_across_calls_and_threads() {
    assert_deterministic(|| rmat(7, 256, 8, RmatParams::default(), 42));
}

#[test]
fn preferential_is_deterministic_across_calls_and_threads() {
    assert_deterministic(|| preferential_attachment(100, 3, 8, 42));
}

#[test]
fn cities_is_deterministic_across_calls_and_threads() {
    let once = tsp_cities(12, 42);
    assert_eq!(once, tsp_cities(12, 42));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4).map(|_| s.spawn(|| tsp_cities(12, 42))).collect();
        for h in handles {
            assert_eq!(once, h.join().expect("generator thread panicked"));
        }
    });
}

#[test]
fn golden_uniform_snapshot() {
    let g = uniform_random(64, 256, 8, 42);
    assert_eq!(g.num_vertices(), 64);
    assert_eq!(g.num_directed_edges(), 512);
    assert_eq!(degree_histogram(&g), GOLDEN_UNIFORM_HIST);
    assert_eq!(fingerprint(&g), GOLDEN_UNIFORM_FP);
}

#[test]
fn golden_road_snapshot() {
    let g = road_network(12, 12, 8, 0.2, 0.05, 42);
    assert_eq!(g.num_vertices(), 144);
    assert_eq!(g.num_directed_edges(), GOLDEN_ROAD_EDGES);
    assert_eq!(degree_histogram(&g), GOLDEN_ROAD_HIST);
    assert_eq!(fingerprint(&g), GOLDEN_ROAD_FP);
}

#[test]
fn golden_rmat_snapshot() {
    let g = rmat(7, 256, 8, RmatParams::default(), 42);
    assert_eq!(g.num_vertices(), 128);
    assert_eq!(g.num_directed_edges(), GOLDEN_RMAT_EDGES);
    assert_eq!(degree_histogram(&g), GOLDEN_RMAT_HIST);
    assert_eq!(fingerprint(&g), GOLDEN_RMAT_FP);
}

/// R-MAT at scale 14, edge factor 16: hubs and many duplicate draws,
/// which the scale-7 snapshot above is too small to exercise.
#[test]
fn golden_rmat_scale_14_snapshot() {
    let g = rmat(14, 16 << 14, 255, RmatParams::default(), 3);
    assert_eq!(g.num_vertices(), 1 << 14);
    assert_eq!(g.num_directed_edges(), 426_960);
    assert_eq!(g.max_degree(), 3_637);
    assert_eq!(fingerprint(&g), 0x57E3_334C_0D9F_BA89);
}

/// The `--scale small` uniform graph, which the serving benchmarks use.
#[test]
fn golden_uniform_small_scale_snapshot() {
    let g = uniform_random(16_384, 131_072, 64, 42);
    assert_eq!(g.num_directed_edges(), 262_144);
    assert_eq!(g.max_degree(), 35);
    assert_eq!(fingerprint(&g), 0x5E2C_02EF_709D_59D1);
}

/// The `kernels-rmat` benchmark input (R-MAT scale 18, seed 3). The
/// benchmark checks kernel outputs against references built from the same
/// generated graph, so only this pin notices a generator that changes its
/// output. Slow in a debug build; run it with `cargo test --release -p
/// crono-graph --test determinism -- --ignored`.
#[test]
#[ignore = "R-MAT scale 18: run in release with --ignored"]
fn golden_rmat_benchmark_input() {
    let g = rmat(18, 16 << 18, 255, RmatParams::default(), 3);
    assert_eq!(g.num_vertices(), 1 << 18);
    assert_eq!(g.num_directed_edges(), 7_615_588);
    assert_eq!(g.max_degree(), 25_331);
    assert_eq!(fingerprint(&g), 0x6E7D_F59F_1A5E_4B5D);
}

/// Pins [`RmatStream`] edge by edge, in stream order.
#[test]
fn golden_rmat_stream_snapshot() {
    for (scale, draws, seed, edges, fp) in [
        (12, 65_536, 3, 65_328, 0x9F39_4353_77F1_6F85),
        (7, 512, 42, 486, 0x66B9_5DDC_BB8A_5DD0),
    ] {
        let s = RmatStream::new(scale, draws, 8, RmatParams::default(), seed).unwrap();
        assert_eq!(s.edges().count(), edges, "scale {scale}");
        assert_eq!(edge_fingerprint(s.edges()), fp, "scale {scale}");
    }
}

#[test]
fn golden_preferential_snapshot() {
    let g = preferential_attachment(100, 3, 8, 42);
    assert_eq!(g.num_vertices(), 100);
    assert_eq!(g.num_directed_edges(), 2 * (6 + 96 * 3));
    assert_eq!(degree_histogram(&g), GOLDEN_PREF_HIST);
    assert_eq!(fingerprint(&g), GOLDEN_PREF_FP);
}

#[test]
fn golden_cities_snapshot() {
    let inst = tsp_cities(12, 42);
    assert_eq!(inst.num_cities(), 12);
    assert_eq!(cities_fingerprint(&inst), GOLDEN_CITIES_FP);
}

#[test]
fn print_golden_values_for_refresh() {
    // `cargo test -p crono-graph --test determinism -- --nocapture
    // print_golden` regenerates the constants below after an intentional
    // generator change.
    let u = uniform_random(64, 256, 8, 42);
    let r = road_network(12, 12, 8, 0.2, 0.05, 42);
    let m = rmat(7, 256, 8, RmatParams::default(), 42);
    let p = preferential_attachment(100, 3, 8, 42);
    let c = tsp_cities(12, 42);
    println!(
        "UNIFORM fp={:#018X} hist={:?}",
        fingerprint(&u),
        degree_histogram(&u)
    );
    println!(
        "ROAD edges={} fp={:#018X} hist={:?}",
        r.num_directed_edges(),
        fingerprint(&r),
        degree_histogram(&r)
    );
    println!(
        "RMAT edges={} fp={:#018X} hist={:?}",
        m.num_directed_edges(),
        fingerprint(&m),
        degree_histogram(&m)
    );
    println!(
        "PREF fp={:#018X} hist={:?}",
        fingerprint(&p),
        degree_histogram(&p)
    );
    println!("CITIES fp={:#018X}", cities_fingerprint(&c));
}

// ---- Golden values (regenerate with `print_golden_values_for_refresh`) ----

const GOLDEN_UNIFORM_FP: u64 = 0xB370_811C_EA9B_3825;
const GOLDEN_UNIFORM_HIST: &[usize] = &[0, 0, 0, 1, 5, 6, 6, 9, 10, 9, 9, 3, 4, 0, 2];
const GOLDEN_ROAD_EDGES: usize = 454;
const GOLDEN_ROAD_FP: u64 = 0x7F61_562C_D763_BB65;
const GOLDEN_ROAD_HIST: &[usize] = &[0, 1, 27, 69, 43, 4];
const GOLDEN_RMAT_EDGES: usize = 422;
const GOLDEN_RMAT_FP: u64 = 0xF2F0_5565_330D_DBE5;
const GOLDEN_RMAT_HIST: &[usize] = &[
    34, 30, 15, 13, 8, 6, 6, 2, 2, 1, 3, 0, 0, 0, 1, 1, 1, 1, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
];
const GOLDEN_PREF_FP: u64 = 0x417F_B3FF_DF83_1245;
const GOLDEN_PREF_HIST: &[usize] = &[
    0, 0, 0, 35, 22, 13, 7, 6, 2, 1, 2, 0, 0, 4, 1, 1, 2, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    1,
];
const GOLDEN_CITIES_FP: u64 = 0x2862_1765_54F6_60D9;
