//! The frontier representation of the level-synchronous BFS and SSSP
//! kernels, decided in one place: CRONO's one-byte-per-vertex flags
//! (the paper-faithful default) or GAP's word-packed bitmap (the
//! `frontier_repr` ablation). Each method must charge exactly the
//! simulated accesses its documentation names; the golden counter gate
//! pins both instances of both kernels.

use crono_runtime::{SharedBitmap, SharedFlags, ThreadCtx};

/// A shared set of active vertices, scanned in ascending order.
pub(crate) trait Frontier: Sync {
    /// An empty frontier over `n` vertices.
    fn with_len(n: usize) -> Self;
    /// Adds `v` outside the timed region.
    fn insert_plain(&self, v: usize);
    /// The first active vertex at or after `pos`.
    fn next_from<C: ThreadCtx>(&self, ctx: &mut C, pos: usize) -> Option<usize>;
    /// Adds `v` with one write (a store, or an RMW on the word).
    fn insert<C: ThreadCtx>(&self, ctx: &mut C, v: usize);
    /// Removes `v` with one write (a store, or an RMW on the word).
    fn remove<C: ThreadCtx>(&self, ctx: &mut C, v: usize);
    /// Adds `v`, returning whether it was absent.
    fn activate<C: ThreadCtx>(&self, ctx: &mut C, v: usize) -> bool;
}

impl Frontier for SharedFlags {
    fn with_len(n: usize) -> Self {
        SharedFlags::new(n)
    }

    fn insert_plain(&self, v: usize) {
        self.set_plain(v, true);
    }

    /// One byte load per vertex scanned: the paper's full-array scan.
    fn next_from<C: ThreadCtx>(&self, ctx: &mut C, pos: usize) -> Option<usize> {
        (pos..self.len()).find(|&v| self.get(ctx, v))
    }

    fn insert<C: ThreadCtx>(&self, ctx: &mut C, v: usize) {
        self.set(ctx, v, true);
    }

    fn remove<C: ThreadCtx>(&self, ctx: &mut C, v: usize) {
        self.set(ctx, v, false);
    }

    /// A load, then a store only when `v` was absent. Callers hold `v`'s
    /// lock, so this need not be atomic; a test-and-set would charge an
    /// RMW instead and move the default kernel's counters.
    fn activate<C: ThreadCtx>(&self, ctx: &mut C, v: usize) -> bool {
        let absent = !self.get(ctx, v);
        if absent {
            self.set(ctx, v, true);
        }
        absent
    }
}

impl Frontier for SharedBitmap {
    fn with_len(n: usize) -> Self {
        SharedBitmap::new(n)
    }

    fn insert_plain(&self, v: usize) {
        self.set_plain(v);
    }

    /// One word load per 64 vertices skipped.
    fn next_from<C: ThreadCtx>(&self, ctx: &mut C, pos: usize) -> Option<usize> {
        self.find_set_from(ctx, pos)
    }

    fn insert<C: ThreadCtx>(&self, ctx: &mut C, v: usize) {
        self.set(ctx, v);
    }

    fn remove<C: ThreadCtx>(&self, ctx: &mut C, v: usize) {
        self.clear(ctx, v);
    }

    fn activate<C: ThreadCtx>(&self, ctx: &mut C, v: usize) -> bool {
        !self.test_and_set(ctx, v)
    }
}
