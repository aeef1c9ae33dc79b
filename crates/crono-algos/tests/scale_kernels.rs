//! Cross-representation equivalence for the scale-track kernels.
//!
//! The sharded drivers must produce bit-identical output regardless of
//! adjacency representation (flat CSR vs varint-compressed), shard
//! count, and partition shape, and must equal the suite's sequential
//! references. `golden_distance` is the gate `scripts/ci.sh` invokes by
//! name: it pins a BFS-distance fingerprint computed through the
//! compressed representation to the value computed through the plain
//! one.

use crono_algos::scale::{sharded_bfs, sharded_pagerank, sharded_sssp, ScaleOutcome};
use crono_algos::{bfs, pagerank, sssp};
use crono_graph::gen::{rmat, road_network, RmatParams};
use crono_graph::shard::{Partition, Placement, ShardedGraph};
use crono_graph::{AdjacencyView, CompressedCsr, CsrGraph};
use crono_runtime::NativeMachine;

fn rmat_graph() -> CsrGraph {
    rmat(8, 512, 8, RmatParams::default(), 7)
}

/// BFS levels from vertex 0 by `bfs::run_seq`.
fn bfs_reference(g: &CsrGraph) -> Vec<u32> {
    bfs::sequential(&NativeMachine::new(1), g, 0).output.level
}

/// SSSP distances from vertex 0 by `sssp::run_seq`.
fn sssp_reference(g: &CsrGraph) -> Vec<u32> {
    sssp::sequential(&NativeMachine::new(1), g, 0).output.dist
}

fn partitions(n: usize) -> Vec<Partition> {
    vec![
        Partition::one_d(n, 1),
        Partition::one_d(n, 2),
        Partition::one_d(n, 4),
        Partition::one_d(n, 7),
        Partition::two_d(n, 2),
        Partition::two_d(n, 3),
    ]
}

/// FNV-1a over little-endian `u64` values, matching the graph-side
/// fingerprint convention in `crono-graph/tests/determinism.rs`.
fn fingerprint(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for value in values {
        for byte in value.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

#[test]
fn sharded_bfs_is_bit_identical_across_representations_and_shards() {
    let g = rmat_graph();
    let n = g.num_vertices();
    let reference = bfs_reference(&g);
    let machine = NativeMachine::new(4);
    for partition in partitions(n) {
        let plain = ShardedGraph::<CsrGraph>::from_csr(&g, partition).unwrap();
        let packed = ShardedGraph::<CompressedCsr>::from_csr(&g, partition).unwrap();
        let via_plain = sharded_bfs(&machine, &plain, 0);
        let via_packed = sharded_bfs(&machine, &packed, 0);
        assert_eq!(via_plain.output, reference, "plain {partition:?}");
        assert_eq!(via_packed.output, reference, "compressed {partition:?}");
        // Modeled per-shard cost must not depend on the byte encoding.
        assert_eq!(via_plain.shards, via_packed.shards, "{partition:?}");
    }
}

#[test]
fn sharded_sssp_is_bit_identical_across_representations_and_shards() {
    let machine = NativeMachine::new(4);
    for g in [road_network(16, 16, 8, 0.2, 0.05, 42), rmat_graph()] {
        let n = g.num_vertices();
        let reference = sssp_reference(&g);
        for partition in partitions(n) {
            let plain = ShardedGraph::<CsrGraph>::from_csr(&g, partition).unwrap();
            let packed = ShardedGraph::<CompressedCsr>::from_csr(&g, partition).unwrap();
            assert_eq!(
                sharded_sssp(&machine, &plain, 0).output,
                reference,
                "plain {n} vertices {partition:?}"
            );
            assert_eq!(
                sharded_sssp(&machine, &packed, 0).output,
                reference,
                "compressed {n} vertices {partition:?}"
            );
        }
    }
}

#[test]
fn sharded_pagerank_is_bit_identical_under_block_placement() {
    let g = rmat_graph();
    let n = g.num_vertices();
    let reference = pagerank::reference(&g, 8);
    let machine = NativeMachine::new(4);
    for partition in partitions(n) {
        let plain = ShardedGraph::<CsrGraph>::from_csr(&g, partition).unwrap();
        let packed = ShardedGraph::<CompressedCsr>::from_csr(&g, partition).unwrap();
        for (tag, out) in [
            ("plain", sharded_pagerank(&machine, &plain, 8)),
            ("compressed", sharded_pagerank(&machine, &packed, 8)),
        ] {
            let bitwise = out
                .output
                .iter()
                .zip(&reference)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(bitwise, "{tag} {partition:?}: ranks not bit-identical");
        }
    }
}

#[test]
fn hashed_placement_still_matches_reference_for_bfs_and_sssp() {
    // Hashed placement scatters vertices across blocks; BFS levels and
    // SSSP distances are placement-invariant (unlike PageRank's f64
    // summation order).
    let g = rmat_graph();
    let n = g.num_vertices();
    let bfs_ref = bfs_reference(&g);
    let sssp_ref = sssp_reference(&g);
    let machine = NativeMachine::new(4);
    let partition = Partition::one_d(n, 4).with_placement(Placement::Hashed);
    let sharded = ShardedGraph::<CsrGraph>::from_csr(&g, partition).unwrap();
    assert_eq!(sharded_bfs(&machine, &sharded, 0).output, bfs_ref);
    assert_eq!(sharded_sssp(&machine, &sharded, 0).output, sssp_ref);
}

/// CI gate: the BFS distance fingerprint through the compressed
/// representation equals the fingerprint through the flat CSR. Run by
/// name from `scripts/ci.sh`.
#[test]
fn golden_distance() {
    let g = rmat_graph();
    let n = g.num_vertices();
    let machine = NativeMachine::new(4);
    let plain = ShardedGraph::<CsrGraph>::from_csr(&g, Partition::one_d(n, 4)).unwrap();
    let packed = ShardedGraph::<CompressedCsr>::from_csr(&g, Partition::one_d(n, 4)).unwrap();
    let fp_plain = fingerprint(
        sharded_bfs(&machine, &plain, 0)
            .output
            .iter()
            .map(|&l| l as u64),
    );
    let fp_packed = fingerprint(
        sharded_bfs(&machine, &packed, 0)
            .output
            .iter()
            .map(|&l| l as u64),
    );
    assert_eq!(
        fp_plain, fp_packed,
        "compressed and plain CSR disagree on BFS distances"
    );
    // And both must equal the sequential oracle's fingerprint.
    let fp_seq = fingerprint(bfs_reference(&g).iter().map(|&l| l as u64));
    assert_eq!(
        fp_plain, fp_seq,
        "sharded BFS diverged from sequential oracle"
    );
}

/// Fingerprint of one run's modeled cost: each shard's id, edges and
/// cycles, then the claim cycles. The output stays out; the reference
/// tests above check it.
fn cost_fingerprint<T>(out: &ScaleOutcome<T>) -> u64 {
    let shards = out
        .shards
        .iter()
        .flat_map(|s| [s.shard as u64, s.edges, s.cycles]);
    fingerprint(shards.chain([out.claim_cycles]))
}

/// BFS, SSSP and PageRank cost fingerprints of one sharded graph.
fn driver_costs<G: AdjacencyView + Sync>(
    machine: &NativeMachine,
    graph: &ShardedGraph<G>,
) -> [u64; 3] {
    [
        cost_fingerprint(&sharded_bfs(machine, graph, 0)),
        cost_fingerprint(&sharded_sssp(machine, graph, 0)),
        cost_fingerprint(&sharded_pagerank(machine, graph, 5)),
    ]
}

/// Pins the drivers' modeled per-shard cost, which depends on neither
/// the thread count nor the byte encoding.
#[test]
fn modeled_costs_are_pinned() {
    let g = rmat_graph();
    let n = g.num_vertices();
    // [bfs, sssp, pagerank] per partition.
    let pinned: [(Partition, [u64; 3]); 3] = [
        (
            Partition::one_d(n, 4),
            [
                9995251492252804816,
                9600938259450092940,
                6071747952085444617,
            ],
        ),
        (
            Partition::two_d(n, 3),
            [
                18398433510380928661,
                6289692551376883590,
                1052558702481122296,
            ],
        ),
        (
            Partition::one_d(n, 4).with_placement(Placement::Hashed),
            [
                4995958159603720448,
                7017332638759276534,
                2767294106326529253,
            ],
        ),
    ];
    for threads in [1, 4] {
        let machine = NativeMachine::new(threads);
        for (partition, expected) in pinned {
            let plain = ShardedGraph::<CsrGraph>::from_csr(&g, partition).unwrap();
            let packed = ShardedGraph::<CompressedCsr>::from_csr(&g, partition).unwrap();
            for (repr, got) in [
                ("plain", driver_costs(&machine, &plain)),
                ("compressed", driver_costs(&machine, &packed)),
            ] {
                assert_eq!(
                    got, expected,
                    "{repr} {partition:?} at {threads} thread(s): [bfs, sssp, pagerank]"
                );
            }
        }
    }
}
