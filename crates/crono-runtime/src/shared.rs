use crate::{alloc_region, Addr, Region, ThreadCtx};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

const LOAD: Ordering = Ordering::Acquire;
const STORE: Ordering = Ordering::Release;
const RMW: Ordering = Ordering::AcqRel;

macro_rules! shared_uint_array {
    ($(#[$meta:meta])* $name:ident, $atomic:ty, $elem:ty, $size:expr) => {
        $(#[$meta])*
        #[derive(Debug)]
        pub struct $name {
            region: Region,
            data: Vec<$atomic>,
        }

        impl $name {
            /// Creates `n` zero-initialized elements.
            pub fn new(n: usize) -> Self {
                Self::filled(n, 0)
            }

            /// Creates `n` elements, all set to `value`.
            pub fn filled(n: usize, value: $elem) -> Self {
                $name {
                    region: alloc_region(n as u64 * $size),
                    data: (0..n).map(|_| <$atomic>::new(value)).collect(),
                }
            }

            /// Creates the array from existing values.
            pub fn from_values(values: impl IntoIterator<Item = $elem>) -> Self {
                let data: Vec<$atomic> =
                    values.into_iter().map(<$atomic>::new).collect();
                $name {
                    region: alloc_region(data.len() as u64 * $size),
                    data,
                }
            }

            /// Number of elements.
            pub fn len(&self) -> usize {
                self.data.len()
            }

            /// Whether the array is empty.
            pub fn is_empty(&self) -> bool {
                self.data.is_empty()
            }

            /// Symbolic address of element `i`.
            pub fn addr(&self, i: usize) -> Addr {
                self.region.addr(i, $size)
            }

            /// Reads element `i` through the context.
            #[inline]
            pub fn get<C: ThreadCtx>(&self, ctx: &mut C, i: usize) -> $elem {
                ctx.load(self.addr(i));
                self.data[i].load(LOAD)
            }

            /// Writes element `i` through the context.
            #[inline]
            pub fn set<C: ThreadCtx>(&self, ctx: &mut C, i: usize, v: $elem) {
                ctx.store(self.addr(i));
                self.data[i].store(v, STORE)
            }

            /// Atomically adds `v` to element `i`, returning the previous
            /// value.
            #[inline]
            pub fn fetch_add<C: ThreadCtx>(&self, ctx: &mut C, i: usize, v: $elem) -> $elem {
                ctx.rmw(self.addr(i));
                self.data[i].fetch_add(v, RMW)
            }

            /// Atomically lowers element `i` to `min(current, v)`,
            /// returning the previous value.
            #[inline]
            pub fn fetch_min<C: ThreadCtx>(&self, ctx: &mut C, i: usize, v: $elem) -> $elem {
                ctx.rmw(self.addr(i));
                self.data[i].fetch_min(v, RMW)
            }

            /// Atomically raises element `i` to `max(current, v)`,
            /// returning the previous value.
            #[inline]
            pub fn fetch_max<C: ThreadCtx>(&self, ctx: &mut C, i: usize, v: $elem) -> $elem {
                ctx.rmw(self.addr(i));
                self.data[i].fetch_max(v, RMW)
            }

            /// Atomic compare-exchange on element `i`; returns `Ok(old)` on
            /// success or `Err(actual)`.
            #[inline]
            pub fn compare_exchange<C: ThreadCtx>(
                &self,
                ctx: &mut C,
                i: usize,
                current: $elem,
                new: $elem,
            ) -> Result<$elem, $elem> {
                ctx.rmw(self.addr(i));
                self.data[i].compare_exchange(current, new, RMW, LOAD)
            }

            /// Reads element `i` without touching any context — for result
            /// extraction *outside* the timed parallel region only.
            pub fn get_plain(&self, i: usize) -> $elem {
                self.data[i].load(LOAD)
            }

            /// Writes element `i` without touching any context — for
            /// initialization *outside* the timed parallel region only.
            pub fn set_plain(&self, i: usize, v: $elem) {
                self.data[i].store(v, STORE)
            }

            /// Snapshot of all values (outside the timed region).
            pub fn to_vec(&self) -> Vec<$elem> {
                self.data.iter().map(|a| a.load(LOAD)).collect()
            }
        }
    };
}

shared_uint_array!(
    /// A shared array of `u32` with context-integrated atomic accessors.
    ///
    /// Every accessor performs the *real* atomic operation on host memory
    /// and reports the access (with its symbolic [`Addr`]) to the
    /// [`ThreadCtx`], so the simulated backend sees the benchmark's true
    /// data-dependent access stream.
    ///
    /// # Examples
    ///
    /// ```
    /// use crono_runtime::{Machine, NativeMachine, SharedU32s};
    ///
    /// let dist = SharedU32s::filled(4, u32::MAX);
    /// NativeMachine::new(2).run(|ctx| {
    ///     dist.fetch_min(ctx, 0, 10);
    /// });
    /// assert_eq!(dist.get_plain(0), 10);
    /// ```
    SharedU32s,
    AtomicU32,
    u32,
    4
);

shared_uint_array!(
    /// A shared array of `u64` with context-integrated atomic accessors.
    /// See [`SharedU32s`] for the access discipline.
    SharedU64s,
    AtomicU64,
    u64,
    8
);

/// A shared array of `f64` (bit-cast into `AtomicU64`) with
/// context-integrated accessors; `fetch_add` is a compare-exchange loop,
/// as in the pthreads original's locked floating-point updates.
///
/// # Examples
///
/// ```
/// use crono_runtime::{Machine, NativeMachine, SharedF64s};
///
/// let ranks = SharedF64s::filled(4, 0.25);
/// NativeMachine::new(4).run(|ctx| {
///     ranks.fetch_add(ctx, 0, 0.25);
/// });
/// assert!((ranks.get_plain(0) - 1.25).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct SharedF64s {
    region: Region,
    data: Vec<AtomicU64>,
}

impl SharedF64s {
    /// Creates `n` elements all set to `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        SharedF64s {
            region: alloc_region(n as u64 * 8),
            data: (0..n).map(|_| AtomicU64::new(value.to_bits())).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Symbolic address of element `i`.
    pub fn addr(&self, i: usize) -> Addr {
        self.region.addr(i, 8)
    }

    /// Reads element `i` through the context.
    #[inline]
    pub fn get<C: ThreadCtx>(&self, ctx: &mut C, i: usize) -> f64 {
        ctx.load(self.addr(i));
        f64::from_bits(self.data[i].load(LOAD))
    }

    /// Writes element `i` through the context.
    #[inline]
    pub fn set<C: ThreadCtx>(&self, ctx: &mut C, i: usize, v: f64) {
        ctx.store(self.addr(i));
        self.data[i].store(v.to_bits(), STORE)
    }

    /// Atomically adds `v` to element `i` (CAS loop), returning the
    /// previous value.
    #[inline]
    pub fn fetch_add<C: ThreadCtx>(&self, ctx: &mut C, i: usize, v: f64) -> f64 {
        ctx.rmw(self.addr(i));
        let mut cur = self.data[i].load(LOAD);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match self.data[i].compare_exchange_weak(cur, new, RMW, LOAD) {
                Ok(_) => return f64::from_bits(cur),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Reads element `i` without a context (outside the timed region).
    pub fn get_plain(&self, i: usize) -> f64 {
        f64::from_bits(self.data[i].load(LOAD))
    }

    /// Writes element `i` without a context (outside the timed region).
    pub fn set_plain(&self, i: usize, v: f64) {
        self.data[i].store(v.to_bits(), STORE)
    }

    /// Snapshot of all values (outside the timed region).
    pub fn to_vec(&self) -> Vec<f64> {
        self.data
            .iter()
            .map(|a| f64::from_bits(a.load(LOAD)))
            .collect()
    }
}

/// A shared array of boolean flags (one byte each) with
/// context-integrated accessors — CRONO's "which vertices are already
/// checked" structures.
#[derive(Debug)]
pub struct SharedFlags {
    region: Region,
    data: Vec<AtomicU8>,
}

impl SharedFlags {
    /// Creates `n` flags, all `false`.
    pub fn new(n: usize) -> Self {
        SharedFlags {
            region: alloc_region(n as u64),
            data: (0..n).map(|_| AtomicU8::new(0)).collect(),
        }
    }

    /// Number of flags.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Symbolic address of flag `i`.
    pub fn addr(&self, i: usize) -> Addr {
        self.region.addr(i, 1)
    }

    /// Reads flag `i` through the context.
    #[inline]
    pub fn get<C: ThreadCtx>(&self, ctx: &mut C, i: usize) -> bool {
        ctx.load(self.addr(i));
        self.data[i].load(LOAD) != 0
    }

    /// Writes flag `i` through the context.
    #[inline]
    pub fn set<C: ThreadCtx>(&self, ctx: &mut C, i: usize, v: bool) {
        ctx.store(self.addr(i));
        self.data[i].store(v as u8, STORE)
    }

    /// Atomically sets flag `i`, returning whether it was previously set
    /// (test-and-set claim, CRONO's "vertex capture" primitive).
    #[inline]
    pub fn test_and_set<C: ThreadCtx>(&self, ctx: &mut C, i: usize) -> bool {
        ctx.rmw(self.addr(i));
        self.data[i].swap(1, RMW) != 0
    }

    /// Reads flag `i` without a context (outside the timed region).
    pub fn get_plain(&self, i: usize) -> bool {
        self.data[i].load(LOAD) != 0
    }

    /// Writes flag `i` without a context (outside the timed region).
    pub fn set_plain(&self, i: usize, v: bool) {
        self.data[i].store(v as u8, STORE)
    }

    /// Clears all flags (outside the timed region).
    pub fn clear_all(&self) {
        for f in &self.data {
            f.store(0, STORE);
        }
    }
}

/// A word-packed shared bitmap: 64 bits per `AtomicU64` word, so a full
/// scan costs one simulated access per 64 vertices instead of one per
/// vertex (the GAP-style frontier representation).
///
/// Bit mutation uses atomic OR/AND on the containing word, charged to
/// the context as an RMW — concurrent writers to *different bits of the
/// same word* contend, which is exactly the sharing behavior a packed
/// frontier exhibits on real hardware and what the simulator should see.
///
/// # Examples
///
/// ```
/// use crono_runtime::{Machine, NativeMachine, SharedBitmap};
///
/// let frontier = SharedBitmap::new(130);
/// NativeMachine::new(1).run(|ctx| {
///     frontier.set(ctx, 7);
///     frontier.set(ctx, 129);
///     assert_eq!(frontier.find_set_from(ctx, 0), Some(7));
///     assert_eq!(frontier.find_set_from(ctx, 8), Some(129));
///     assert_eq!(frontier.find_set_from(ctx, 130), None);
/// });
/// ```
#[derive(Debug)]
pub struct SharedBitmap {
    region: Region,
    words: Vec<AtomicU64>,
    bits: usize,
}

impl SharedBitmap {
    /// Creates a bitmap of `n` bits, all clear.
    pub fn new(n: usize) -> Self {
        let nwords = n.div_ceil(64);
        SharedBitmap {
            region: alloc_region(nwords as u64 * 8),
            words: (0..nwords).map(|_| AtomicU64::new(0)).collect(),
            bits: n,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.bits
    }

    /// Whether the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Symbolic address of the word holding bit `i`.
    pub fn addr(&self, i: usize) -> Addr {
        self.region.addr(i / 64, 8)
    }

    /// Reads bit `i` through the context (one word load).
    #[inline]
    pub fn get<C: ThreadCtx>(&self, ctx: &mut C, i: usize) -> bool {
        ctx.load(self.addr(i));
        self.words[i / 64].load(LOAD) >> (i % 64) & 1 != 0
    }

    /// Sets bit `i` through the context (atomic OR on the word).
    #[inline]
    pub fn set<C: ThreadCtx>(&self, ctx: &mut C, i: usize) {
        ctx.rmw(self.addr(i));
        self.words[i / 64].fetch_or(1 << (i % 64), RMW);
    }

    /// Clears bit `i` through the context (atomic AND on the word).
    #[inline]
    pub fn clear<C: ThreadCtx>(&self, ctx: &mut C, i: usize) {
        ctx.rmw(self.addr(i));
        self.words[i / 64].fetch_and(!(1 << (i % 64)), RMW);
    }

    /// Atomically sets bit `i`, returning whether it was previously set
    /// (the bitmap form of [`SharedFlags::test_and_set`]).
    #[inline]
    pub fn test_and_set<C: ThreadCtx>(&self, ctx: &mut C, i: usize) -> bool {
        ctx.rmw(self.addr(i));
        self.words[i / 64].fetch_or(1 << (i % 64), RMW) >> (i % 64) & 1 != 0
    }

    /// Finds the first set bit at position `>= from`, skipping clear
    /// words with one simulated load each.
    #[inline]
    pub fn find_set_from<C: ThreadCtx>(&self, ctx: &mut C, from: usize) -> Option<usize> {
        if from >= self.bits {
            return None;
        }
        let mut w = from / 64;
        ctx.load(self.region.addr(w, 8));
        // Mask off bits below `from` in the first word.
        let mut word = self.words[w].load(LOAD) & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                // Trailing bits past `bits` are never set (no setter
                // accepts them), so no range check is needed here.
                return Some(i);
            }
            w += 1;
            if w >= self.words.len() {
                return None;
            }
            ctx.load(self.region.addr(w, 8));
            word = self.words[w].load(LOAD);
        }
    }

    /// Number of 64-bit words backing the bitmap.
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Zeroes whole words `range` through the context — one simulated
    /// store per word, so wiping the bitmap costs 1/64th of clearing
    /// each bit individually. Callers must ensure no concurrent setter
    /// targets these words (e.g. behind a barrier).
    pub fn clear_words<C: ThreadCtx>(&self, ctx: &mut C, range: std::ops::Range<usize>) {
        for w in range {
            ctx.store(self.region.addr(w, 8));
            self.words[w].store(0, STORE);
        }
    }

    /// Reads bit `i` without a context (outside the timed region).
    pub fn get_plain(&self, i: usize) -> bool {
        self.words[i / 64].load(LOAD) >> (i % 64) & 1 != 0
    }

    /// Sets bit `i` without a context (outside the timed region).
    pub fn set_plain(&self, i: usize) {
        self.words[i / 64].fetch_or(1 << (i % 64), RMW);
    }

    /// Number of set bits (outside the timed region).
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(LOAD).count_ones() as usize)
            .sum()
    }

    /// Clears all bits (outside the timed region).
    pub fn clear_all(&self) {
        for w in &self.words {
            w.store(0, STORE);
        }
    }
}

/// A lock-free sliding-window frontier queue (GAP's `SlidingQueue`):
/// producers append with chunked atomic claims, and consumers drain a
/// frozen *window* of the backing array between barriers.
///
/// The structure replaces bitmap word-rescans on sparse frontiers: a
/// level-synchronous kernel pushes next-level vertices during epoch `k`,
/// calls [`SlidingQueue::slide`] behind a barrier (one thread), and then
/// every thread reads its static share of the new window `[start, end)`
/// during epoch `k + 1`. Pushes never contend with window reads because
/// the window only covers entries published before the barrier.
///
/// Two simulator-facing properties drive the design:
///
/// * **Chunked claims.** [`SlidingQueue::push_chunk`] reserves one run of
///   slots with a single `fetch_add` on the shared tail, so a thread
///   buffering its local discoveries pays one contended RMW per chunk
///   instead of one per vertex.
/// * **Deterministic drains.** Consumers partition the window statically
///   (by thread id) rather than racing a claim cursor, so a seeded run
///   reads the same slots on the same threads every time.
///
/// Capacity is fixed at construction; overflow panics (kernels size the
/// queue from the graph: a BFS frontier never exceeds `n` total pushes
/// when `test_and_set` deduplicates insertions).
///
/// # Examples
///
/// ```
/// use crono_runtime::{Machine, NativeMachine, SlidingQueue};
///
/// let q = SlidingQueue::new(8);
/// NativeMachine::new(1).run(|ctx| {
///     q.push_chunk(ctx, &[3, 5]);
///     q.slide(ctx);
///     let w = q.window(ctx);
///     assert_eq!((w.start, w.end), (0, 2));
///     assert_eq!(q.get(ctx, w.start), 3);
///     q.push(ctx, 7); // lands in the *next* window
///     q.slide(ctx);
///     assert_eq!(q.window(ctx), 2..3);
/// });
/// ```
#[derive(Debug)]
pub struct SlidingQueue {
    /// Header: three cache-line-padded words (tail, start, end), so the
    /// contended tail never false-shares with the window bounds.
    header: Region,
    region: Region,
    slots: Vec<AtomicU32>,
    tail: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
}

impl SlidingQueue {
    /// Creates a queue with room for `capacity` total pushes between
    /// [`SlidingQueue::reset`]s.
    pub fn new(capacity: usize) -> Self {
        SlidingQueue {
            header: alloc_region(3 * crate::LINE_SIZE),
            region: alloc_region(capacity as u64 * 4),
            slots: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
            tail: AtomicU64::new(0),
            start: AtomicU64::new(0),
            end: AtomicU64::new(0),
        }
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Symbolic address of slot `i`.
    pub fn addr(&self, i: usize) -> Addr {
        self.region.addr(i, 4)
    }

    fn tail_addr(&self) -> Addr {
        self.header.addr_padded(0)
    }

    fn start_addr(&self) -> Addr {
        self.header.addr_padded(1)
    }

    fn end_addr(&self) -> Addr {
        self.header.addr_padded(2)
    }

    /// Claims `items.len()` contiguous slots with one shared RMW and
    /// fills them. The entries become visible to consumers only after
    /// the next [`SlidingQueue::slide`].
    ///
    /// # Panics
    ///
    /// Panics if the queue's fixed capacity would be exceeded.
    pub fn push_chunk<C: ThreadCtx>(&self, ctx: &mut C, items: &[u32]) {
        if items.is_empty() {
            return;
        }
        ctx.rmw(self.tail_addr());
        let base = self.tail.fetch_add(items.len() as u64, RMW) as usize;
        assert!(
            base + items.len() <= self.slots.len(),
            "SlidingQueue overflow: {} + {} > capacity {}",
            base,
            items.len(),
            self.slots.len()
        );
        for (k, &v) in items.iter().enumerate() {
            ctx.store(self.addr(base + k));
            self.slots[base + k].store(v, STORE);
        }
    }

    /// Pushes a single entry (a one-element chunk).
    pub fn push<C: ThreadCtx>(&self, ctx: &mut C, v: u32) {
        self.push_chunk(ctx, &[v]);
    }

    /// Advances the window to cover everything pushed since the previous
    /// slide: `start ← end`, `end ← tail`. Call from **one** thread
    /// between barriers.
    pub fn slide<C: ThreadCtx>(&self, ctx: &mut C) {
        ctx.load(self.end_addr());
        let old_end = self.end.load(LOAD);
        ctx.store(self.start_addr());
        self.start.store(old_end, STORE);
        ctx.load(self.tail_addr());
        let tail = self.tail.load(LOAD);
        ctx.store(self.end_addr());
        self.end.store(tail, STORE);
    }

    /// Reads the push cursor. Between a barrier and the next push the
    /// value is stable, so level-synchronous kernels can read it once
    /// per epoch and derive the drain window `[previous_tail, tail)`
    /// thread-locally instead of broadcasting it through
    /// [`SlidingQueue::slide`].
    pub fn tail<C: ThreadCtx>(&self, ctx: &mut C) -> usize {
        ctx.load(self.tail_addr());
        self.tail.load(LOAD) as usize
    }

    /// The current drain window (slot indices). Entries in the window
    /// were all published before the preceding [`SlidingQueue::slide`],
    /// so reading them never races an in-flight push.
    pub fn window<C: ThreadCtx>(&self, ctx: &mut C) -> std::ops::Range<usize> {
        ctx.load(self.start_addr());
        let start = self.start.load(LOAD) as usize;
        ctx.load(self.end_addr());
        let end = self.end.load(LOAD) as usize;
        start..end
    }

    /// Reads slot `i` (must lie inside the current window).
    #[inline]
    pub fn get<C: ThreadCtx>(&self, ctx: &mut C, i: usize) -> u32 {
        ctx.load(self.addr(i));
        self.slots[i].load(LOAD)
    }

    /// Empties the queue (`tail = start = end = 0`), reclaiming all
    /// capacity. Call from **one** thread between barriers.
    pub fn reset<C: ThreadCtx>(&self, ctx: &mut C) {
        ctx.store(self.tail_addr());
        self.tail.store(0, STORE);
        ctx.store(self.start_addr());
        self.start.store(0, STORE);
        ctx.store(self.end_addr());
        self.end.store(0, STORE);
    }

    /// The window without a context (outside the timed region).
    pub fn window_plain(&self) -> std::ops::Range<usize> {
        self.start.load(LOAD) as usize..self.end.load(LOAD) as usize
    }

    /// Reads slot `i` without a context (outside the timed region).
    pub fn get_plain(&self, i: usize) -> u32 {
        self.slots[i].load(LOAD)
    }

    /// Seeds an entry without a context (initialization outside the
    /// timed region), e.g. the BFS source vertex.
    pub fn push_plain(&self, v: u32) {
        let base = self.tail.fetch_add(1, RMW) as usize;
        assert!(base < self.slots.len(), "SlidingQueue overflow");
        self.slots[base].store(v, STORE);
    }
}

/// A read-only view of host data with symbolic addresses — used for the
/// graph arrays, which every thread reads but none writes.
///
/// # Examples
///
/// ```
/// use crono_runtime::{Machine, NativeMachine, ReadArray};
///
/// let weights = vec![3u32, 1, 4, 1, 5];
/// let shared = ReadArray::new(&weights);
/// NativeMachine::new(2).run(|ctx| {
///     assert_eq!(shared.get(ctx, 2), 4);
/// });
/// ```
#[derive(Debug)]
pub struct ReadArray<'a, T> {
    region: Region,
    data: &'a [T],
    elem_size: u64,
}

impl<'a, T: Copy> ReadArray<'a, T> {
    /// Wraps `data`, allocating a symbolic region sized to it.
    pub fn new(data: &'a [T]) -> Self {
        let elem_size = std::mem::size_of::<T>() as u64;
        ReadArray {
            region: alloc_region(data.len() as u64 * elem_size),
            data,
            elem_size,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Symbolic address of element `i`.
    pub fn addr(&self, i: usize) -> Addr {
        self.region.addr(i, self.elem_size)
    }

    /// Reads element `i` through the context.
    #[inline]
    pub fn get<C: ThreadCtx>(&self, ctx: &mut C, i: usize) -> T {
        ctx.load(self.addr(i));
        self.data[i]
    }

    /// The underlying slice (no context; for use outside the timed
    /// region).
    pub fn as_slice(&self) -> &'a [T] {
        self.data
    }
}

/// A thread-*private* array with symbolic addresses — per-thread scratch
/// data (Dijkstra distance arrays, local frontiers) that the simulator
/// should still see cache traffic for, without any atomic overhead.
///
/// # Examples
///
/// ```
/// use crono_runtime::{Machine, NativeMachine, TrackedVec};
///
/// NativeMachine::new(1).run(|ctx| {
///     let mut dist = TrackedVec::filled(8, u32::MAX);
///     dist.set(ctx, 3, 7);
///     assert_eq!(dist.get(ctx, 3), 7);
/// });
/// ```
#[derive(Debug)]
pub struct TrackedVec<T> {
    region: Region,
    data: Vec<T>,
}

impl<T: Copy> TrackedVec<T> {
    /// Creates `n` elements all set to `value`.
    pub fn filled(n: usize, value: T) -> Self {
        TrackedVec {
            region: alloc_region(n as u64 * std::mem::size_of::<T>() as u64),
            data: vec![value; n],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Symbolic address of element `i`.
    pub fn addr(&self, i: usize) -> Addr {
        self.region.addr(i, std::mem::size_of::<T>() as u64)
    }

    /// Reads element `i` through the context.
    #[inline]
    pub fn get<C: ThreadCtx>(&self, ctx: &mut C, i: usize) -> T {
        ctx.load(self.addr(i));
        self.data[i]
    }

    /// Writes element `i` through the context.
    #[inline]
    pub fn set<C: ThreadCtx>(&mut self, ctx: &mut C, i: usize, v: T) {
        ctx.store(self.addr(i));
        self.data[i] = v;
    }

    /// The underlying slice (no context).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Consumes the array, returning the values.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, NativeMachine};

    #[test]
    fn tracked_vec_round_trips() {
        NativeMachine::new(1).run(|ctx| {
            let mut v = TrackedVec::filled(4, 0u64);
            v.set(ctx, 2, 9);
            assert_eq!(v.get(ctx, 2), 9);
            assert_eq!(v.as_slice(), &[0, 0, 9, 0]);
        });
    }

    #[test]
    fn u32_fetch_min_converges() {
        let arr = SharedU32s::filled(1, 1000);
        NativeMachine::new(8).run(|ctx| {
            arr.fetch_min(ctx, 0, 10 + ctx.thread_id() as u32);
        });
        assert_eq!(arr.get_plain(0), 10);
    }

    #[test]
    fn u64_fetch_add_is_atomic() {
        let arr = SharedU64s::new(1);
        NativeMachine::new(8).run(|ctx| {
            for _ in 0..1000 {
                arr.fetch_add(ctx, 0, 1);
            }
        });
        assert_eq!(arr.get_plain(0), 8000);
    }

    #[test]
    fn f64_fetch_add_is_atomic() {
        let arr = SharedF64s::filled(1, 0.0);
        NativeMachine::new(4).run(|ctx| {
            for _ in 0..100 {
                arr.fetch_add(ctx, 0, 0.5);
            }
        });
        assert!((arr.get_plain(0) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn flags_test_and_set_claims_once() {
        let flags = SharedFlags::new(1);
        let claims = SharedU64s::new(1);
        NativeMachine::new(8).run(|ctx| {
            if !flags.test_and_set(ctx, 0) {
                claims.fetch_add(ctx, 0, 1);
            }
        });
        assert_eq!(claims.get_plain(0), 1, "exactly one thread claims");
    }

    #[test]
    fn compare_exchange_success_and_failure() {
        let arr = SharedU32s::filled(1, 5);
        NativeMachine::new(1).run(|ctx| {
            assert_eq!(arr.compare_exchange(ctx, 0, 5, 7), Ok(5));
            assert_eq!(arr.compare_exchange(ctx, 0, 5, 9), Err(7));
        });
    }

    #[test]
    fn addresses_are_contiguous() {
        let arr = SharedU32s::new(32);
        assert_eq!(arr.addr(1).raw() - arr.addr(0).raw(), 4);
        assert_eq!(arr.addr(16).line() - arr.addr(0).line(), 1);
    }

    #[test]
    fn read_array_round_trips() {
        let data = vec![1u64, 2, 3];
        let arr = ReadArray::new(&data);
        assert_eq!(arr.len(), 3);
        assert_eq!(arr.as_slice(), &[1, 2, 3]);
        NativeMachine::new(1).run(|ctx| {
            assert_eq!(arr.get(ctx, 1), 2);
        });
    }

    #[test]
    fn to_vec_snapshots() {
        let arr = SharedU32s::from_values([9, 8, 7]);
        assert_eq!(arr.to_vec(), vec![9, 8, 7]);
        arr.set_plain(1, 0);
        assert_eq!(arr.to_vec(), vec![9, 0, 7]);
    }

    #[test]
    fn bitmap_matches_flags_on_random_pattern() {
        // A fixed pseudo-random pattern mirrored into both
        // representations must agree bit-for-bit under get and scan.
        let n = 200;
        let flags = SharedFlags::new(n);
        let bitmap = SharedBitmap::new(n);
        let mut state = 0x9e3779b97f4a7c15u64;
        let pattern: Vec<bool> = (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state >> 60 & 1 != 0
            })
            .collect();
        NativeMachine::new(1).run(|ctx| {
            for i in (0..n).filter(|&i| pattern[i]) {
                flags.set(ctx, i, true);
                bitmap.set(ctx, i);
            }
            let mut from = 0;
            while let Some(i) = bitmap.find_set_from(ctx, from) {
                assert!(flags.get(ctx, i), "bit {i} set in bitmap but not flags");
                from = i + 1;
            }
            for i in 0..n {
                assert_eq!(flags.get(ctx, i), bitmap.get(ctx, i), "bit {i}");
            }
            assert_eq!(
                bitmap.count_ones(),
                (0..n).filter(|&i| flags.get_plain(i)).count()
            );
        });
    }

    #[test]
    fn bitmap_word_boundaries() {
        let bitmap = SharedBitmap::new(256);
        NativeMachine::new(1).run(|ctx| {
            for i in [0, 63, 64, 127, 128, 255] {
                assert!(!bitmap.test_and_set(ctx, i), "bit {i} initially clear");
                assert!(bitmap.test_and_set(ctx, i), "bit {i} now set");
                assert!(bitmap.get(ctx, i));
            }
            assert_eq!(bitmap.find_set_from(ctx, 0), Some(0));
            assert_eq!(bitmap.find_set_from(ctx, 1), Some(63));
            assert_eq!(bitmap.find_set_from(ctx, 64), Some(64));
            assert_eq!(bitmap.find_set_from(ctx, 129), Some(255));
            bitmap.clear(ctx, 63);
            assert_eq!(bitmap.find_set_from(ctx, 1), Some(64));
        });
        // Adjacent bits in one word share a line; words 0 and 8*8=64
        // bytes apart land on different lines.
        assert_eq!(bitmap.addr(0).line(), bitmap.addr(63).line());
        assert_ne!(bitmap.addr(0).raw(), bitmap.addr(64).raw());
    }

    #[test]
    fn bitmap_trailing_bits() {
        // 70 bits: the last word holds only 6 valid bits.
        let bitmap = SharedBitmap::new(70);
        assert_eq!(bitmap.len(), 70);
        NativeMachine::new(1).run(|ctx| {
            assert_eq!(bitmap.find_set_from(ctx, 0), None);
            bitmap.set(ctx, 69);
            assert_eq!(bitmap.find_set_from(ctx, 0), Some(69));
            assert_eq!(bitmap.find_set_from(ctx, 69), Some(69));
            assert_eq!(bitmap.find_set_from(ctx, 70), None, "from == len");
            assert_eq!(bitmap.find_set_from(ctx, 1000), None, "from past len");
        });
        bitmap.clear_all();
        assert_eq!(bitmap.count_ones(), 0);
        assert!(!bitmap.get_plain(69));
        bitmap.set_plain(69);
        assert!(bitmap.get_plain(69));
    }

    #[test]
    fn sliding_queue_windows_partition_pushes() {
        // Epoch 1 pushes {10,11}, epoch 2 pushes {20,21,22}; each slide
        // exposes exactly the entries of the finished epoch.
        let q = SlidingQueue::new(8);
        NativeMachine::new(1).run(|ctx| {
            q.push_chunk(ctx, &[10, 11]);
            q.slide(ctx);
            let w = q.window(ctx);
            assert_eq!(w.clone().count(), 2);
            assert_eq!((q.get(ctx, w.start), q.get(ctx, w.start + 1)), (10, 11));
            q.push(ctx, 20);
            q.push_chunk(ctx, &[21, 22]);
            q.slide(ctx);
            let w = q.window(ctx);
            assert_eq!(w, 2..5);
            assert_eq!(q.get(ctx, 4), 22);
            q.slide(ctx);
            assert!(q.window(ctx).is_empty(), "no pushes -> empty window");
            q.reset(ctx);
            assert!(q.window(ctx).is_empty());
            q.push(ctx, 7);
            q.slide(ctx);
            assert_eq!(q.window(ctx), 0..1, "reset reclaims capacity");
        });
    }

    #[test]
    fn sliding_queue_concurrent_chunked_pushes_lose_nothing() {
        // 8 threads each chunk-push a disjoint value range; after one
        // slide the window must hold every value exactly once.
        let threads = 8;
        let per_thread = 100;
        let q = SlidingQueue::new(threads * per_thread);
        NativeMachine::new(threads).run(|ctx| {
            let tid = ctx.thread_id();
            let vals: Vec<u32> =
                (0..per_thread).map(|k| (tid * per_thread + k) as u32).collect();
            // Two chunks per thread, to exercise interleaved claims.
            q.push_chunk(ctx, &vals[..per_thread / 2]);
            q.push_chunk(ctx, &vals[per_thread / 2..]);
            ctx.barrier();
            if tid == 0 {
                q.slide(ctx);
            }
        });
        let w = q.window_plain();
        assert_eq!(w.clone().count(), threads * per_thread);
        let mut seen = vec![false; threads * per_thread];
        for i in w {
            let v = q.get_plain(i) as usize;
            assert!(!seen[v], "value {v} appears twice");
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "every value drained");
    }

    #[test]
    #[should_panic(expected = "SlidingQueue overflow")]
    fn sliding_queue_overflow_panics() {
        let q = SlidingQueue::new(2);
        NativeMachine::new(1).run(|ctx| {
            q.push_chunk(ctx, &[1, 2, 3]);
        });
    }

    #[test]
    fn bitmap_test_and_set_claims_once() {
        let bitmap = SharedBitmap::new(64);
        let claims = SharedU64s::new(1);
        NativeMachine::new(8).run(|ctx| {
            if !bitmap.test_and_set(ctx, 17) {
                claims.fetch_add(ctx, 0, 1);
            }
        });
        assert_eq!(claims.get_plain(0), 1, "exactly one thread claims");
    }
}
