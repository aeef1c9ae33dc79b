use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cache-line size in bytes (Table II: 64-byte lines).
pub const LINE_SIZE: u64 = 64;

/// A symbolic byte address in the benchmarks' shared address space.
///
/// Benchmarks never dereference these — real data lives in ordinary Rust
/// collections. Addresses exist so the simulated backend can model the
/// cache and coherence behavior of the *actual* data-dependent access
/// stream, exactly as Graphite's direct execution does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(u64);

impl Addr {
    /// The raw byte address.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The cache-line number this address falls in.
    pub fn line(self) -> u64 {
        self.0 / LINE_SIZE
    }

    /// Byte offset within the cache line.
    pub fn line_offset(self) -> u64 {
        self.0 % LINE_SIZE
    }
}

/// A contiguous, cache-line-aligned allocation in one
/// [`AddressSpace`], typically backing one array of a benchmark's data.
///
/// CRONO aligns all data structures to cache lines "to ensure optimal
/// performance" (§IV-F); [`alloc_region`] does the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    base: u64,
    bytes: u64,
}

impl Region {
    /// Base address of the region.
    pub fn base(&self) -> Addr {
        Addr(self.base)
    }

    /// Size in bytes (rounded up to a whole number of lines).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Address of element `index` in an array of `elem_size`-byte elements
    /// starting at the region base.
    ///
    /// # Panics
    ///
    /// Debug-panics if the element lies outside the region.
    pub fn addr(&self, index: usize, elem_size: u64) -> Addr {
        let off = index as u64 * elem_size;
        debug_assert!(
            off + elem_size <= self.bytes,
            "element {index} (size {elem_size}) outside region of {} bytes",
            self.bytes
        );
        Addr(self.base + off)
    }

    /// Address of element `index` when elements are padded out to one per
    /// cache line (used for contention-free per-thread slots).
    pub fn addr_padded(&self, index: usize) -> Addr {
        self.addr(index, LINE_SIZE)
    }
}

/// Base of every address space; the first megabyte is a "null" zone.
const BASE: u64 = 1 << 20;

/// A symbolic address space: the bump cursor [`alloc_region`] draws
/// regions from.
///
/// Every thread has a current space, and a fresh thread's space starts
/// at the same base, so the addresses a thread is given depend only on
/// what was allocated from its space before, never on other spaces.
/// [`run_workers`](crate::run_workers) makes each worker
/// [`enter`](AddressSpace::enter) the space of the thread that started
/// the run, so regions allocated inside a run continue the caller's
/// sequence.
///
/// The one rule: regions from two threads' spaces can share addresses,
/// so build a run's shared structures on the thread that starts the run.
#[derive(Debug, Clone)]
pub struct AddressSpace(Arc<AtomicU64>);

thread_local! {
    static CURRENT: RefCell<AddressSpace> =
        RefCell::new(AddressSpace(Arc::new(AtomicU64::new(BASE))));
}

impl AddressSpace {
    /// The calling thread's current space.
    pub fn current() -> Self {
        CURRENT.with(|s| s.borrow().clone())
    }

    /// Makes this the calling thread's current space: the thread's later
    /// [`alloc_region`] calls advance this space's cursor.
    pub fn enter(self) {
        CURRENT.with(|s| *s.borrow_mut() = self);
    }

    /// The address this space hands out next: always a whole number of
    /// lines, and it only ever grows.
    pub fn cursor(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Allocates a fresh cache-line-aligned [`Region`] of at least `bytes`
/// bytes from the calling thread's [`AddressSpace`]. Regions from one
/// space never overlap.
///
/// # Examples
///
/// ```
/// use crono_runtime::{alloc_region, LINE_SIZE};
///
/// let a = alloc_region(100);
/// let b = alloc_region(1);
/// assert_eq!(a.base().raw() % LINE_SIZE, 0);
/// assert!(b.base().raw() >= a.base().raw() + 128, "regions never overlap");
/// ```
pub fn alloc_region(bytes: u64) -> Region {
    let rounded = bytes.max(1).div_ceil(LINE_SIZE) * LINE_SIZE;
    let base = CURRENT.with(|s| s.borrow().0.fetch_add(rounded, Ordering::Relaxed));
    Region {
        base,
        bytes: rounded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_line_aligned_and_disjoint() {
        let a = alloc_region(10);
        let b = alloc_region(10);
        assert_eq!(a.base().raw() % LINE_SIZE, 0);
        assert_eq!(b.base().raw() % LINE_SIZE, 0);
        assert!(b.base().raw() >= a.base().raw() + LINE_SIZE);
    }

    #[test]
    fn fresh_threads_start_at_the_same_base() {
        alloc_region(4096);
        let first = || {
            std::thread::spawn(|| alloc_region(64).base())
                .join()
                .expect("allocating thread")
        };
        assert_eq!(first(), first());
    }

    #[test]
    fn element_addressing() {
        let r = alloc_region(64 * 4);
        assert_eq!(r.addr(0, 4).raw(), r.base().raw());
        assert_eq!(r.addr(16, 4).line(), r.base().line() + 1);
        assert_eq!(r.addr_padded(3).line(), r.base().line() + 3);
    }

    #[test]
    fn line_math() {
        let a = Addr(130);
        assert_eq!(a.line(), 2);
        assert_eq!(a.line_offset(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside region")]
    fn out_of_region_element_panics() {
        let r = alloc_region(8);
        let _ = r.addr(64, 4);
    }
}
