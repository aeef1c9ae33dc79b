//! Std-only synchronization primitives with the `parking_lot` /
//! `crossbeam` API surface.
//!
//! The suite must build with zero registry dependencies, so the handful of
//! conveniences it used from `parking_lot` ([`Mutex`]/[`RwLock`] whose
//! guards come back without a `Result`) and `crossbeam`
//! ([`CachePadded`]) live here as thin wrappers over `std::sync`.
//!
//! Poisoning is deliberately transparent: a benchmark thread that panics
//! already aborts the whole run, so recovering the inner value (exactly
//! what `parking_lot` does by not poisoning at all) is the behavior every
//! call site was written against.

use std::fmt;
use std::sync::PoisonError;

/// Re-exported guard type: [`Mutex::lock`] returns std's guard directly.
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;
/// Re-exported guard type returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Re-exported guard type returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

/// A mutual-exclusion lock whose `lock()` never returns a `Result`
/// (poison-transparent), matching the `parking_lot::Mutex` API.
///
/// # Examples
///
/// ```
/// use crono_runtime::Mutex;
///
/// let best = Mutex::new(vec![1u32, 2, 3]);
/// best.lock().push(4);
/// assert_eq!(best.lock().len(), 4);
/// ```
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available. A poisoned
    /// mutex (another holder panicked) is treated as unlocked.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// A reader-writer lock whose `read()`/`write()` never return a `Result`
/// (poison-transparent), matching the `parking_lot::RwLock` API.
///
/// # Examples
///
/// ```
/// use crono_runtime::RwLock;
///
/// let log = RwLock::new(Vec::new());
/// log.write().push(7u64);
/// assert_eq!(*log.read(), vec![7]);
/// ```
#[derive(Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock protecting `value`.
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires exclusive write access, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Pads and aligns `T` to 128 bytes so neighboring values never share a
/// cache line (or a pair of prefetched lines), preventing false sharing —
/// the same guarantee `crossbeam_utils::CachePadded` gives on x86-64.
///
/// # Examples
///
/// ```
/// use crono_runtime::CachePadded;
/// use std::sync::atomic::AtomicUsize;
///
/// let slots: Vec<CachePadded<AtomicUsize>> =
///     (0..4).map(|_| CachePadded::new(AtomicUsize::new(0))).collect();
/// assert_eq!(std::mem::align_of_val(&slots[0]), 128);
/// slots[2].store(9, std::sync::atomic::Ordering::Relaxed);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own aligned cache-line block.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwraps the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn mutex_guards_exclude_each_other() {
        let m = Mutex::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 4000);
    }

    #[test]
    fn mutex_survives_a_panicked_holder() {
        let m = Mutex::new(41u32);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock();
            panic!("holder dies");
        }));
        assert!(caught.is_err());
        // Poison is transparent: the next holder still gets the value.
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn try_lock_reports_contention() {
        let m = Mutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_allows_concurrent_readers() {
        let l = RwLock::new(5u32);
        let r1 = l.read();
        let r2 = l.read();
        assert_eq!(*r1 + *r2, 10);
        drop((r1, r2));
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn cache_padded_separates_lines() {
        let v: Vec<CachePadded<AtomicUsize>> = (0..2)
            .map(|_| CachePadded::new(AtomicUsize::new(0)))
            .collect();
        let a = &*v[0] as *const AtomicUsize as usize;
        let b = &*v[1] as *const AtomicUsize as usize;
        assert!(
            b - a >= 128,
            "adjacent elements {a:#x}/{b:#x} share padding"
        );
        v[1].fetch_add(3, Ordering::Relaxed);
        assert_eq!(v[1].load(Ordering::Relaxed), 3);
        assert_eq!(v[0].load(Ordering::Relaxed), 0);
    }
}
