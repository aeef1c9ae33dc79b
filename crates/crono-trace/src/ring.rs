//! The per-thread event ring buffer.

/// How an [`Event`] renders in the Chrome trace-event format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Span open (`ph: "B"`); must be closed by a matching [`EventKind::End`]
    /// on the same thread, in stack order.
    Begin,
    /// Span close (`ph: "E"`).
    End,
    /// A point event (`ph: "i"`, thread scope); `arg` is the payload value.
    Instant,
    /// A self-contained span (`ph: "X"`); `arg` is the duration in ticks.
    /// Complete spans need no nesting discipline, so backends use them for
    /// waits whose begin/end straddle other events (locks, barriers).
    Complete,
}

/// One trace event. 40 bytes, `Copy` — recording is a bounds check and a
/// `Vec` push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Timestamp in backend ticks (simulated cycles or native nanoseconds).
    pub ts: u64,
    /// Payload: the value for [`EventKind::Instant`], the duration for
    /// [`EventKind::Complete`], unused (0) for `Begin`/`End`.
    pub arg: u64,
    /// Event name (e.g. `"l1_miss_cold"`, `"bfs:level"`). Static so the
    /// ring never allocates per event.
    pub name: &'static str,
    /// Category track (`"algo"`, `"mem"`, `"coherence"`, `"noc"`,
    /// `"dram"`, `"sync"`).
    pub cat: &'static str,
    /// How the event renders.
    pub kind: EventKind,
}

/// Tracer configuration shared by every backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity in events **per thread**. Once a thread's ring is
    /// full, further events are dropped and counted exactly — memory
    /// stays bounded and the loss is always reported, never silent.
    pub capacity: usize,
    /// Emit per-router NoC geometry instants (`noc_route`): each home
    /// transaction additionally records its home slice's mesh
    /// coordinates and flit count, packed into the instant's `arg` (see
    /// [`Heatmap`](crate::Heatmap)). Off by default — the extra event per
    /// transaction changes counter fingerprints, so geometry is strictly
    /// opt-in (the `crono trace`/`crono heatmap` path turns it on).
    pub noc_geometry: bool,
}

impl TraceConfig {
    /// A config with the given per-thread event capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring needs capacity > 0");
        TraceConfig {
            capacity,
            ..Self::default()
        }
    }

    /// Returns the config with NoC geometry instants switched on/off.
    pub fn noc_geometry(mut self, on: bool) -> Self {
        self.noc_geometry = on;
        self
    }
}

impl Default for TraceConfig {
    /// 64 Ki events per thread (~2.5 MB/thread at 40 B/event), no NoC
    /// geometry instants.
    fn default() -> Self {
        TraceConfig {
            capacity: 64 * 1024,
            noc_geometry: false,
        }
    }
}

/// A per-thread event recorder with a fixed-capacity ring.
///
/// Exactly one thread owns each tracer (`&mut self` recording), so there
/// is no synchronization: the cost of a recorded event is one branch and
/// one push into pre-growable storage; the cost of a dropped event is one
/// branch and one increment.
#[derive(Debug)]
pub struct ThreadTracer {
    events: Vec<Event>,
    capacity: usize,
    dropped: u64,
}

impl ThreadTracer {
    /// A tracer holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring needs capacity > 0");
        ThreadTracer {
            // Start small: most threads of a short run never fill the ring.
            events: Vec::with_capacity(capacity.min(1024)),
            capacity,
            dropped: 0,
        }
    }

    /// A tracer configured by `config`.
    pub fn from_config(config: &TraceConfig) -> Self {
        Self::new(config.capacity)
    }

    /// Records `ev`, or counts it as dropped if the ring is full.
    #[inline]
    pub fn record(&mut self, ev: Event) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Records a span open.
    #[inline]
    pub fn begin(&mut self, cat: &'static str, name: &'static str, ts: u64) {
        self.record(Event {
            ts,
            arg: 0,
            name,
            cat,
            kind: EventKind::Begin,
        });
    }

    /// Records a span close.
    #[inline]
    pub fn end(&mut self, cat: &'static str, name: &'static str, ts: u64) {
        self.record(Event {
            ts,
            arg: 0,
            name,
            cat,
            kind: EventKind::End,
        });
    }

    /// Records an instant with payload `value`.
    #[inline]
    pub fn instant(&mut self, cat: &'static str, name: &'static str, ts: u64, value: u64) {
        self.record(Event {
            ts,
            arg: value,
            name,
            cat,
            kind: EventKind::Instant,
        });
    }

    /// Records a self-contained span `[ts, ts + dur]`.
    #[inline]
    pub fn complete(&mut self, cat: &'static str, name: &'static str, ts: u64, dur: u64) {
        self.record(Event {
            ts,
            arg: dur,
            name,
            cat,
            kind: EventKind::Complete,
        });
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded (dropped events count as
    /// recorded attempts, not emptiness).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped at capacity so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Freezes the tracer into its final [`ThreadTrace`].
    pub fn finish(self) -> ThreadTrace {
        ThreadTrace {
            events: self.events,
            dropped: self.dropped,
        }
    }
}

/// The frozen event stream of one thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadTrace {
    /// Recorded events in record order (timestamps are per-thread
    /// monotone for same-kind sources).
    pub events: Vec<Event>,
    /// Events lost because the ring was full — exact, never estimated.
    pub dropped: u64,
}

/// Aggregate statistics for one event name (see [`crate::Trace::counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterStat {
    /// Occurrences across all threads.
    pub count: u64,
    /// Sum of `arg` payloads (instant values / complete durations).
    pub arg_sum: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut t = ThreadTracer::new(16);
        t.begin("algo", "phase", 1);
        t.instant("mem", "miss", 2, 99);
        t.end("algo", "phase", 3);
        let tr = t.finish();
        assert_eq!(tr.events.len(), 3);
        assert_eq!(tr.events[0].kind, EventKind::Begin);
        assert_eq!(tr.events[1].arg, 99);
        assert_eq!(tr.events[2].ts, 3);
        assert_eq!(tr.dropped, 0);
    }

    #[test]
    fn overflow_drops_exactly_and_never_panics() {
        let mut t = ThreadTracer::new(4);
        for i in 0..10 {
            t.instant("mem", "miss", i, i);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let tr = t.finish();
        assert_eq!(tr.events.len(), 4);
        assert_eq!(tr.dropped, 6);
        // The survivors are the oldest four, untouched.
        assert_eq!(tr.events[3].ts, 3);
    }

    #[test]
    #[should_panic(expected = "capacity > 0")]
    fn zero_capacity_rejected() {
        ThreadTracer::new(0);
    }

    #[test]
    fn default_config_capacity() {
        assert_eq!(TraceConfig::default().capacity, 65536);
        assert_eq!(
            ThreadTracer::from_config(&TraceConfig::with_capacity(8)).capacity,
            8
        );
    }
}
