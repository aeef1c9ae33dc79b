//! Property-based tests on the simulator's building blocks.
//!
//! Formerly driven by `proptest`; now a seeded loop over the in-tree
//! `crono_graph::rng` PRNG so the suite is deterministic and builds
//! offline.

use crono_graph::rng::SmallRng;
use crono_sim::{
    home_of, CacheConfig, L1Cache, L1Lookup, L1State, Mesh, MeshConfig, RoutingPolicy,
    SetAssocCache, SharerSet, MAX_ACKWISE_POINTERS,
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

/// The set-associative cache as it was first written, one `Vec` per set:
/// the oracle the flat-array `SetAssocCache` must match call for call.
struct VecOfSetsCache<T> {
    sets: Vec<Vec<(u64, u64, T)>>,
    associativity: usize,
    tick: u64,
}

impl<T> VecOfSetsCache<T> {
    fn new(num_sets: usize, associativity: usize) -> Self {
        VecOfSetsCache {
            sets: (0..num_sets)
                .map(|_| Vec::with_capacity(associativity))
                .collect(),
            associativity,
            tick: 0,
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<(u64, u64, T)> {
        let idx = (line % self.sets.len() as u64) as usize;
        &mut self.sets[idx]
    }

    fn lookup(&mut self, line: u64) -> Option<&mut T> {
        self.tick += 1;
        let tick = self.tick;
        self.set(line).iter_mut().find(|e| e.0 == line).map(|e| {
            e.1 = tick;
            &mut e.2
        })
    }

    fn peek(&self, line: u64) -> Option<&T> {
        let set = &self.sets[(line % self.sets.len() as u64) as usize];
        set.iter().find(|e| e.0 == line).map(|e| &e.2)
    }

    fn insert(&mut self, line: u64, payload: T) -> Option<(u64, T)> {
        self.tick += 1;
        let (tick, ways) = (self.tick, self.associativity);
        let set = self.set(line);
        let evicted = if set.len() == ways {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .map(|(i, _)| i)
                .unwrap();
            let e = set.swap_remove(victim);
            Some((e.0, e.2))
        } else {
            None
        };
        set.push((line, tick, payload));
        evicted
    }

    fn remove(&mut self, line: u64) -> Option<T> {
        let set = self.set(line);
        set.iter()
            .position(|e| e.0 == line)
            .map(|i| set.swap_remove(i).2)
    }

    fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.sets.iter().flat_map(|s| s.iter().map(|e| (e.0, &e.2)))
    }
}

/// Makes the same call on `cache` and `oracle` and asserts equal
/// results, then equal resident lines in equal order. `op` 0–4 is one
/// of lookup, peek, insert, remove and `lookup_or_insert`; 5 empties
/// `line`'s set one removal at a time.
fn same_call(
    cache: &mut SetAssocCache<u64>,
    oracle: &mut VecOfSetsCache<u64>,
    op: u32,
    line: u64,
    payload: u64,
    at: &str,
) {
    match op {
        0 => {
            let got = cache.lookup(line).map(|p| {
                *p += 1;
                *p
            });
            let want = oracle.lookup(line).map(|p| {
                *p += 1;
                *p
            });
            assert_eq!(got, want, "lookup, {at}");
        }
        1 => assert_eq!(cache.peek(line), oracle.peek(line), "peek, {at}"),
        2 => {
            // `insert` requires a line that is not resident.
            if oracle.peek(line).is_none() {
                let got = cache.insert(line, payload);
                assert_eq!(got, oracle.insert(line, payload), "insert, {at}");
            }
        }
        3 => assert_eq!(cache.remove(line), oracle.remove(line), "remove, {at}"),
        4 => {
            // The one-scan path against peek, insert, lookup.
            let (got, missed, evicted) = cache.lookup_or_insert(line, || payload);
            let got = *got;
            let want_missed = oracle.peek(line).is_none();
            let want_evicted = if want_missed {
                oracle.insert(line, payload)
            } else {
                None
            };
            let want = *oracle.lookup(line).unwrap();
            assert_eq!(
                (got, missed, evicted),
                (want, want_missed, want_evicted),
                "lookup_or_insert, {at}"
            );
        }
        _ => {
            let sets = oracle.sets.len() as u64;
            let resident: Vec<u64> = oracle
                .iter()
                .map(|(l, _)| l)
                .filter(|l| l % sets == line % sets)
                .collect();
            for l in resident {
                assert_eq!(cache.remove(l), oracle.remove(l), "emptying, {at}");
            }
        }
    }
    assert_eq!(cache.len(), oracle.iter().count(), "len, {at}");
    assert!(
        cache.iter().eq(oracle.iter()),
        "resident lines or their order, {at}"
    );
}

#[test]
fn cache_matches_the_vec_of_sets_oracle() {
    for sets in 1..=7usize {
        for ways in 1..=8usize {
            let mut rng = SmallRng::seed_from_u64(0xC500 + (sets * 8 + ways) as u64);
            let mut cache = SetAssocCache::new(sets, ways);
            let mut oracle = VecOfSetsCache::new(sets, ways);
            // Three lines per slot: hits, conflicts and evictions mix.
            let lines = 3 * (sets * ways) as u64;
            for step in 0..600u64 {
                let line = rng.random_range(0..lines);
                let payload = step * 1000 + line;
                let op = rng.random_range(0..5u32);
                let at = format!("{sets}x{ways} step {step} op {op} line {line}");
                same_call(&mut cache, &mut oracle, op, line, payload, &at);
            }
        }
    }
}

/// The oracle at Table II's L2 slice geometry, on lines drawn from a few
/// scattered sets, as a run's footprint leaves most sets untouched: sets
/// get storage on their first fill only, and sets emptied by removals
/// refill in place.
#[test]
fn cache_matches_the_oracle_at_table_ii_geometry_with_sparse_sets() {
    const SETS: usize = 512;
    const WAYS: usize = 8;
    for case in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(0xC600 + case);
        let mut cache = SetAssocCache::new(SETS, WAYS);
        let mut oracle = VecOfSetsCache::new(SETS, WAYS);
        let hot: Vec<u64> = (0..12).map(|_| rng.random_range(0..SETS as u64)).collect();
        let mut filled = HashSet::new();
        for step in 0..3000u64 {
            // Three lines per way of a hot set: its evictions mix with
            // hits, and an emptied set sees refills.
            let set = hot[rng.random_range(0..hot.len())];
            let line = set + SETS as u64 * rng.random_range(0..3 * WAYS as u64);
            let payload = step * 1000 + line;
            let op = rng.random_range(0..6u32);
            let at = format!("case {case} step {step} op {op} line {line}");
            same_call(&mut cache, &mut oracle, op, line, payload, &at);
            if oracle.peek(line).is_some() {
                filled.insert(set);
            }
            assert_eq!(cache.sets_with_storage(), filled.len(), "storage, {at}");
        }
        assert!(filled.len() <= hot.len() && filled.len() < SETS / 8);
    }
}

/// `SharerSet` as it was first written, its pointers in a `Vec`: the
/// oracle the inline pointers must match call for call.
struct VecSharerSet {
    precise: Vec<u16>,
    max_pointers: usize,
    broadcast: bool,
    count: u32,
}

impl VecSharerSet {
    fn new(max_pointers: usize) -> Self {
        VecSharerSet {
            precise: Vec::with_capacity(max_pointers),
            max_pointers,
            broadcast: false,
            count: 0,
        }
    }

    fn add(&mut self, core: u16) {
        if self.broadcast {
            self.count += 1;
            return;
        }
        if self.precise.contains(&core) {
            return;
        }
        if self.precise.len() < self.max_pointers {
            self.precise.push(core);
        } else {
            self.broadcast = true;
            self.precise.clear();
        }
        self.count += 1;
    }

    fn remove(&mut self, core: u16) {
        if self.broadcast {
            self.count = self.count.saturating_sub(1);
            if self.count == 0 {
                self.broadcast = false;
            }
        } else if let Some(pos) = self.precise.iter().position(|&c| c == core) {
            self.precise.swap_remove(pos);
            self.count -= 1;
        }
    }

    fn clear(&mut self) {
        self.precise.clear();
        self.broadcast = false;
        self.count = 0;
    }
}

#[test]
fn sharer_set_matches_the_vec_oracle() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC700 + case);
        let max_pointers = rng.random_range(1..MAX_ACKWISE_POINTERS + 1);
        let mut set = SharerSet::new(max_pointers);
        let mut oracle = VecSharerSet::new(max_pointers);
        for step in 0..400 {
            // Few enough cores that sets overflow, empty and refill.
            let core = rng.random_range(0..8u32) as u16;
            let op = rng.random_range(0..20u32);
            match op {
                0 => {
                    set.clear();
                    oracle.clear();
                }
                1..=10 => {
                    set.add(core);
                    oracle.add(core);
                }
                _ => {
                    set.remove(core);
                    oracle.remove(core);
                }
            }
            let at = format!("case {case} (max {max_pointers}) step {step} op {op} core {core}");
            let want = (!oracle.broadcast).then_some(&oracle.precise[..]);
            assert_eq!(set.invalidation_targets(), want, "targets, {at}");
            assert_eq!(set.count(), oracle.count, "count, {at}");
            assert_eq!(set.is_broadcast(), oracle.broadcast, "broadcast, {at}");
            assert_eq!(set.is_empty(), oracle.count == 0, "empty, {at}");
            let sole = (!oracle.broadcast && oracle.precise.len() == 1).then(|| oracle.precise[0]);
            assert_eq!(set.sole_sharer(), sole, "sole sharer, {at}");
            for c in 0..8u16 {
                let may = if oracle.broadcast {
                    oracle.count > 0
                } else {
                    oracle.precise.contains(&c)
                };
                assert_eq!(set.may_contain(c), may, "may_contain({c}), {at}");
            }
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
        let t = mesh.try_traverse(from, to, depart, flits).unwrap();
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
        let t = mesh.try_traverse(from, to, depart, 1).unwrap();
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
            let a = contended.try_traverse(from, to, depart, 9).unwrap();
            let b = ideal.try_traverse(from, to, depart, 9).unwrap();
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
        let mut l1 = L1Cache::with_geometry(&CacheConfig {
            size_bytes: 512,
            associativity: 2,
            latency: 1,
        });
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
