//! Epoch-windowed accounting of a contended resource (DESIGN §8). With
//! lax per-thread clocks a simulated backend cannot book a mesh link, a
//! DRAM controller, an L2 home line or a lock with absolute reservations,
//! so it books each per epoch of simulated time, in slots that hold one
//! epoch's tally.

use std::sync::atomic::{AtomicU64, Ordering};

const LOW: u64 = 0xFFFF_FFFF;

/// One accounting slot: a 32-bit epoch tag and the 32-bit amount booked
/// in that epoch, packed in one `u64`. Both halves wrap at 32 bits:
/// epochs 2^32 apart share a tag, and an amount that reaches 2^32 in one
/// epoch starts again from 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochTally(u64);

impl EpochTally {
    /// The amount booked in `epoch`, or 0 when the slot holds another
    /// epoch. Never claims the slot.
    #[inline]
    pub fn booked(&self, epoch: u64) -> u64 {
        if self.0 >> 32 == epoch & LOW {
            self.0 & LOW
        } else {
            0
        }
    }

    /// Claims the slot for `epoch`, dropping another epoch's amount, and
    /// adds `amount`. Returns the amount booked in `epoch` before.
    #[inline]
    pub fn book(&mut self, epoch: u64, amount: u64) -> u64 {
        let before = self.booked(epoch);
        self.0 = ((epoch & LOW) << 32) | (before.wrapping_add(amount) & LOW);
        before
    }
}

/// An [`EpochTally`] any thread can book. Every access is `Relaxed`: a
/// tally publishes no other data, and the compare-and-swap alone makes
/// concurrent bookings of one slot add up.
#[derive(Debug, Default)]
pub struct AtomicEpochTally(AtomicU64);

impl AtomicEpochTally {
    /// [`EpochTally::booked`] of the slot's current value.
    #[inline]
    pub fn booked(&self, epoch: u64) -> u64 {
        EpochTally(self.0.load(Ordering::Relaxed)).booked(epoch)
    }

    /// [`EpochTally::book`] as one atomic step, in one compare-and-swap
    /// loop.
    #[inline]
    pub fn book(&self, epoch: u64, amount: u64) -> u64 {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let mut next = EpochTally(cur);
            let before = next.book(epoch, amount);
            match self
                .0
                .compare_exchange_weak(cur, next.0, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return before,
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tally_books_from_zero() {
        let mut t = EpochTally::default();
        assert_eq!(t.booked(0), 0);
        assert_eq!(t.book(9, 4), 0);
        assert_eq!(t.booked(9), 4);
        assert_eq!(AtomicEpochTally::default().book(9, 4), 0);
    }

    #[test]
    fn same_epoch_accumulates_and_returns_the_prior_amount() {
        let mut t = EpochTally::default();
        assert_eq!(t.book(2, 7), 0);
        assert_eq!(t.book(2, 0), 7);
        assert_eq!(t.book(2, 3), 7);
        assert_eq!(t.booked(2), 10);
        let a = AtomicEpochTally::default();
        a.book(2, 7);
        assert_eq!(a.book(2, 3), 7);
        assert_eq!(a.booked(2), 10);
    }

    #[test]
    fn booked_of_another_epoch_is_zero_and_claims_nothing() {
        let mut t = EpochTally::default();
        t.book(5, 11);
        assert_eq!(t.booked(6), 0);
        assert_eq!(t.booked(4), 0);
        assert_eq!(t.booked(5), 11, "reading epoch 6 left epoch 5 booked");
        let a = AtomicEpochTally::default();
        a.book(5, 11);
        assert_eq!(a.booked(6), 0);
        assert_eq!(a.booked(5), 11);
    }

    #[test]
    fn booking_a_new_epoch_drops_the_old_amount() {
        let mut t = EpochTally::default();
        t.book(5, 11);
        assert_eq!(t.book(6, 2), 0);
        assert_eq!(t.booked(6), 2);
        assert_eq!(t.booked(5), 0, "epoch 5's booking is gone");
        // Claiming with a zero amount still drops the old booking.
        assert_eq!(t.book(5, 0), 0);
        assert_eq!(t.booked(6), 0);
        let a = AtomicEpochTally::default();
        a.book(5, 11);
        assert_eq!(a.book(6, 2), 0);
        assert_eq!(a.booked(5), 0);
    }

    #[test]
    fn tag_and_amount_wrap_at_32_bits() {
        let mut t = EpochTally::default();
        t.book(7, 3);
        assert_eq!(t.booked(7 + (1 << 32)), 3, "epochs 2^32 apart share a tag");
        assert_eq!(t.book(7 + (1 << 32), 1), 3);
        let mut t = EpochTally::default();
        assert_eq!(t.book(1, LOW), 0);
        assert_eq!(t.book(1, 2), LOW);
        assert_eq!(t.booked(1), 1, "the amount wraps, the tag stays");
        let a = AtomicEpochTally::default();
        a.book(1, LOW);
        assert_eq!(a.book(1, 2), LOW);
        assert_eq!(a.booked(1), 1);
    }

    #[test]
    fn concurrent_bookings_each_see_a_distinct_prior_amount() {
        const THREADS: usize = 4;
        const BOOKINGS: u64 = 10_000;
        let tally = AtomicEpochTally::default();
        let start = std::sync::Barrier::new(THREADS);
        let mut befores: Vec<u64> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..BOOKINGS).map(|_| tally.book(3, 1)).collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("booking thread panicked"))
                .collect()
        });
        let total = THREADS as u64 * BOOKINGS;
        assert_eq!(tally.booked(3), total);
        befores.sort_unstable();
        assert!(befores.into_iter().eq(0..total));
    }
}
