//! Property-based tests on the simulator's building blocks.
//!
//! Formerly driven by `proptest`; now a seeded loop over the in-tree
//! `crono_graph::rng` PRNG so the suite is deterministic and builds
//! offline.

use crono_graph::rng::SmallRng;
use crono_sim::{
    home_of, CacheConfig, L1Cache, L1Lookup, L1State, Mesh, MeshConfig, RoutingPolicy,
    SetAssocCache, SharerSet,
};
use std::collections::HashSet;

const CASES: u64 = 48;

fn mesh_cfg(contention: bool, routing: RoutingPolicy) -> MeshConfig {
    MeshConfig {
        hop_latency: 2,
        flit_bits: 64,
        link_contention: contention,
        routing,
    }
}

#[test]
fn cache_never_exceeds_capacity() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC100 + case);
        let sets = rng.random_range(1..8usize);
        let assoc = rng.random_range(1..4usize);
        let count = rng.random_range(1..200usize);
        let mut cache = SetAssocCache::new(sets, assoc);
        let mut resident: HashSet<u64> = HashSet::new();
        for _ in 0..count {
            let line = rng.random_range(0..1000u64);
            if cache.peek(line).is_none() {
                if let Some((evicted, ())) = cache.insert(line, ()) {
                    assert!(resident.remove(&evicted));
                }
                resident.insert(line);
            }
            assert!(cache.len() <= sets * assoc);
            assert_eq!(cache.len(), resident.len());
        }
    }
}

#[test]
fn cache_lookup_after_insert_hits_until_eviction() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC200 + case);
        let count = rng.random_range(1..100usize);
        let mut cache = SetAssocCache::new(4, 2);
        for _ in 0..count {
            let line = rng.random_range(0..64u64);
            if cache.lookup(line).is_none() {
                cache.insert(line, line * 10);
            }
            assert_eq!(cache.peek(line), Some(&(line * 10)));
        }
    }
}

#[test]
fn sharer_count_is_consistent() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC300 + case);
        let count = rng.random_range(1..100usize);
        let mut s = SharerSet::new(4);
        let mut reference: HashSet<u16> = HashSet::new();
        let mut overflowed = false;
        for _ in 0..count {
            let core = rng.random_range(0..32u32) as u16;
            let add: bool = rng.random();
            if add {
                // The protocol never re-adds a core that holds the line.
                if !reference.contains(&core) {
                    s.add(core);
                    reference.insert(core);
                }
            } else if reference.remove(&core) {
                s.remove(core);
            }
            if s.is_broadcast() {
                overflowed = true;
            }
            if !overflowed {
                assert_eq!(s.count(), reference.len() as u32);
            }
            // Precise mode never under-reports a real sharer.
            if !s.is_broadcast() {
                for &c in &reference {
                    assert!(s.may_contain(c));
                }
            }
        }
    }
}

#[test]
fn mesh_traversal_is_minimal_and_monotonic() {
    let mesh = Mesh::new(64, mesh_cfg(false, RoutingPolicy::XyDimensionOrder));
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC400 + case);
        let from = rng.random_range(0..64usize);
        let to = rng.random_range(0..64usize);
        let depart = rng.random_range(0..10_000u64);
        let flits = rng.random_range(1..10u64);
        let t = mesh.traverse(from, to, depart, flits);
        assert_eq!(t.flit_hops, mesh.hops(from, to) * flits);
        assert!(t.arrival >= depart);
        assert_eq!(
            t.arrival,
            depart + mesh.ideal_latency(mesh.hops(from, to), flits)
        );
    }
}

#[test]
fn o1turn_routes_are_also_minimal() {
    let mesh = Mesh::new(64, mesh_cfg(false, RoutingPolicy::O1Turn));
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC500 + case);
        let from = rng.random_range(0..64usize);
        let to = rng.random_range(0..64usize);
        let depart = rng.random_range(0..10_000u64);
        let t = mesh.traverse(from, to, depart, 1);
        assert_eq!(t.flit_hops, mesh.hops(from, to));
    }
}

#[test]
fn contention_only_adds_delay() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC600 + case);
        let contended = Mesh::new(16, mesh_cfg(true, RoutingPolicy::XyDimensionOrder));
        let ideal = Mesh::new(16, mesh_cfg(false, RoutingPolicy::XyDimensionOrder));
        let count = rng.random_range(1..50usize);
        for _ in 0..count {
            let from = rng.random_range(0..16usize);
            let to = rng.random_range(0..16usize);
            let depart = rng.random_range(0..2_000u64);
            let a = contended.traverse(from, to, depart, 9);
            let b = ideal.traverse(from, to, depart, 9);
            assert!(a.arrival >= b.arrival);
            assert_eq!(a.flit_hops, b.flit_hops);
        }
    }
}

#[test]
fn home_mapping_is_stable_and_in_range() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC700 + case);
        let line = rng.random_range(0..1_000_000u64);
        let cores = rng.random_range(1..512usize);
        let h = home_of(line, cores);
        assert!(h < cores);
        assert_eq!(h, home_of(line, cores));
    }
}

#[test]
fn l1_miss_classification_is_total() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC800 + case);
        let count = rng.random_range(1..200usize);
        let mut l1 = L1Cache::with_geometry(
            &CacheConfig {
                size_bytes: 512,
                associativity: 2,
                latency: 1,
            },
            64,
        );
        let mut seen: HashSet<u64> = HashSet::new();
        for _ in 0..count {
            let line = rng.random_range(0..32u64);
            let write: bool = rng.random();
            match l1.access(line, write) {
                L1Lookup::Hit => {}
                lookup => {
                    let upgrade = lookup == L1Lookup::UpgradeMiss;
                    let class = l1.classify_miss(line, upgrade);
                    if !seen.contains(&line) {
                        assert_eq!(class, crono_sim::MissClass::Cold);
                    }
                    if upgrade {
                        l1.promote(line);
                    } else {
                        let state = if write {
                            L1State::Modified
                        } else {
                            L1State::Shared
                        };
                        l1.fill(line, state);
                    }
                    seen.insert(line);
                }
            }
        }
    }
}
