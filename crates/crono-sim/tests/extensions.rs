//! Tests for the §VII future-work extensions: locality-aware coherence
//! and O1TURN oblivious routing.

use crono_runtime::{alloc_region, Machine, SharedU32s, ThreadCtx};
use crono_sim::{Mesh, MeshConfig, RoutingPolicy, SimConfig, SimMachine};

fn mesh_cfg(routing: RoutingPolicy) -> MeshConfig {
    MeshConfig {
        hop_latency: 2,
        flit_bits: 64,
        link_contention: true,
        routing,
    }
}

#[test]
fn o1turn_spreads_load_over_both_route_families() {
    // Saturate one source-destination pair: XY pushes everything through
    // the same links, O1TURN splits between the XY and YX paths, so the
    // worst arrival improves.
    let worst = |routing| {
        let mesh = Mesh::new(64, mesh_cfg(routing));
        (0..64)
            .map(|_| mesh.try_traverse(0, 63, 0, 9).unwrap().arrival)
            .max()
            .unwrap()
    };
    let xy = worst(RoutingPolicy::XyDimensionOrder);
    let o1 = worst(RoutingPolicy::O1Turn);
    assert!(o1 < xy, "o1turn {o1} must beat xy {xy} under saturation");
}

#[test]
fn o1turn_preserves_hop_counts() {
    let mesh = Mesh::new(64, mesh_cfg(RoutingPolicy::O1Turn));
    for (from, to) in [(0usize, 63usize), (7, 56), (12, 34)] {
        let t = mesh.try_traverse(from, to, 1_000_000, 1).unwrap();
        assert_eq!(t.flit_hops, mesh.hops(from, to), "minimal routes only");
    }
}

#[test]
fn locality_aware_first_touch_is_not_cached() {
    // A streaming scan touches every line exactly once: with the
    // locality-aware protocol nothing should be allocated, so a second
    // pass (reuse) allocates and hits thereafter.
    let config = SimConfig {
        locality_aware: true,
        ..SimConfig::tiny(16)
    };
    let region = alloc_region(64 * 64);
    let machine = SimMachine::new(config, 1);
    let outcome = machine.run(|ctx| {
        for pass in 0..3 {
            for i in 0..32 {
                ctx.load(region.addr(i * 16, 4));
            }
            let _ = pass;
        }
    });
    let m = &outcome.report.misses;
    // Pass 1: 32 remote (cold) accesses; pass 2: 32 allocating misses;
    // pass 3: hits (tiny(16) L1 holds 16 lines, so some capacity misses
    // remain — but far fewer than 32).
    assert_eq!(m.cold_misses, 32);
    assert!(m.l1d_misses() >= 64, "two passes of misses: {m:?}");
}

#[test]
fn locality_aware_reduces_invalidation_traffic_for_migratory_data() {
    // Each thread's first (and only) touch of the shared counter line is
    // served remotely, so no L1 copies exist and no invalidations fly.
    let run = |locality_aware: bool| {
        let config = SimConfig {
            locality_aware,
            ..SimConfig::tiny(16)
        };
        let counter = SharedU32s::new(1);
        let machine = SimMachine::new(config, 8);
        let outcome = machine.run(|ctx| {
            counter.fetch_add(ctx, 0, 1);
            ctx.barrier();
        });
        assert_eq!(counter.get_plain(0), 8);
        outcome.report.breakdown().l2home_sharers
    };
    let baseline = run(false);
    let locality = run(true);
    assert!(
        locality <= baseline,
        "remote single-touch updates need no owner fetches: {locality} vs {baseline}"
    );
}

#[test]
fn msi_mode_pays_upgrade_where_mesi_writes_silently() {
    // Read-then-write of a private line: MESI grants E on the read, so
    // the write is a silent E->M hit. Under MSI the read would get S and
    // the write would pay an upgrade, classified as a sharing miss.
    let region = alloc_region(64);
    let machine = SimMachine::new(SimConfig::tiny(16), 1);
    let report = machine
        .run(|ctx| {
            ctx.load(region.addr(0, 4));
            ctx.store(region.addr(0, 4));
        })
        .report;
    assert_eq!(report.misses.sharing_misses, 0);
}

#[test]
fn locality_aware_results_stay_correct() {
    let config = SimConfig {
        locality_aware: true,
        ..SimConfig::tiny(16)
    };
    let arr = SharedU32s::new(64);
    let machine = SimMachine::new(config, 4);
    machine.run(|ctx| {
        for i in 0..64 {
            arr.fetch_add(ctx, i, 1);
        }
    });
    assert!(arr.to_vec().iter().all(|&v| v == 4));
}
