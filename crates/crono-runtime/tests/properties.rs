//! Property-based tests for the execution-abstraction crate.
//!
//! Formerly driven by `proptest`; now a seeded loop over the in-tree
//! `crono_graph::rng` PRNG so the suite is deterministic and builds
//! offline.

use crono_graph::rng::SmallRng;
use crono_runtime::{
    alloc_region, LockSet, Machine, NativeMachine, SharedF64s, SharedU32s, SharedU64s, ThreadCtx,
    TrackedVec, LINE_SIZE,
};

const CASES: u64 = 32;

#[test]
fn regions_never_overlap() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB100 + case);
        let count = rng.random_range(1..50usize);
        let sizes: Vec<u64> = (0..count).map(|_| rng.random_range(1..10_000u64)).collect();
        let regions: Vec<_> = sizes.iter().map(|&s| alloc_region(s)).collect();
        for (i, a) in regions.iter().enumerate() {
            assert_eq!(a.base().raw() % LINE_SIZE, 0);
            for b in regions.iter().skip(i + 1) {
                let a_end = a.base().raw() + a.bytes();
                let b_end = b.base().raw() + b.bytes();
                assert!(a_end <= b.base().raw() || b_end <= a.base().raw());
            }
        }
    }
}

#[test]
fn element_addresses_are_within_region() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB200 + case);
        let len = rng.random_range(1..500usize);
        let elem = rng.random_range(1..16u64);
        let r = alloc_region(len as u64 * elem);
        for i in 0..len {
            let a = r.addr(i, elem);
            assert!(a.raw() >= r.base().raw());
            assert!(a.raw() + elem <= r.base().raw() + r.bytes());
        }
    }
}

#[test]
fn shared_u32_concurrent_adds_sum_exactly() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB300 + case);
        let threads = rng.random_range(1..6usize);
        let per_thread = rng.random_range(1..200usize);
        let arr = SharedU32s::new(1);
        NativeMachine::new(threads).run(|ctx| {
            for _ in 0..per_thread {
                arr.fetch_add(ctx, 0, 1);
            }
        });
        assert_eq!(arr.get_plain(0) as usize, threads * per_thread);
    }
}

#[test]
fn shared_f64_adds_commute() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB400 + case);
        let count = rng.random_range(1..32usize);
        let values: Vec<f64> = (0..count)
            .map(|_| rng.random_range(-100.0..100.0f64))
            .collect();
        let arr = SharedF64s::filled(1, 0.0);
        let expected: f64 = values.iter().sum();
        NativeMachine::new(4).run(|ctx| {
            for (i, v) in values.iter().enumerate() {
                if i % 4 == ctx.thread_id() {
                    arr.fetch_add(ctx, 0, *v);
                }
            }
        });
        assert!((arr.get_plain(0) - expected).abs() < 1e-6);
    }
}

#[test]
fn fetch_min_finds_global_minimum() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB500 + case);
        let count = rng.random_range(1..64usize);
        let values: Vec<u32> = (0..count).map(|_| rng.random_range(0..10_000u32)).collect();
        let arr = SharedU32s::filled(1, u32::MAX);
        let min = *values.iter().min().unwrap();
        NativeMachine::new(4).run(|ctx| {
            for (i, v) in values.iter().enumerate() {
                if i % 4 == ctx.thread_id() {
                    arr.fetch_min(ctx, 0, *v);
                }
            }
        });
        assert_eq!(arr.get_plain(0), min);
    }
}

#[test]
fn lock_protected_counter_is_exact() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB600 + case);
        let threads = rng.random_range(1..5usize);
        let rounds = rng.random_range(1..100usize);
        let locks = LockSet::new(1);
        let counter = SharedU64s::new(1);
        NativeMachine::new(threads).run(|ctx| {
            for _ in 0..rounds {
                ctx.lock(&locks, 0);
                let v = counter.get(ctx, 0);
                counter.set(ctx, 0, v + 1);
                ctx.unlock(&locks, 0);
            }
        });
        assert_eq!(counter.get_plain(0) as usize, threads * rounds);
    }
}

#[test]
fn tracked_vec_behaves_like_vec() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB700 + case);
        let count = rng.random_range(0..100usize);
        let writes: Vec<(usize, u64)> = (0..count)
            .map(|_| (rng.random_range(0..32usize), rng.random_range(0..1000u64)))
            .collect();
        NativeMachine::new(1).run(|ctx| {
            let mut tracked = TrackedVec::filled(32, 0u64);
            let mut reference = vec![0u64; 32];
            for &(i, v) in &writes {
                tracked.set(ctx, i, v);
                reference[i] = v;
            }
            assert_eq!(tracked.as_slice(), &reference[..]);
        });
    }
}

#[test]
fn instruction_counts_are_deterministic_per_thread() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB800 + case);
        let ops = rng.random_range(1..500u32);
        let outcome = NativeMachine::new(3).run(|ctx| {
            ctx.compute(ops);
            ctx.instructions()
        });
        for &count in &outcome.per_thread {
            assert_eq!(count, ops as u64);
        }
        assert_eq!(outcome.report.variability(), 0.0);
    }
}
