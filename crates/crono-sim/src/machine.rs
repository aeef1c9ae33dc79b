//! The simulated backend: Graphite-style direct execution.
//!
//! Each simulated thread runs on its own host thread, owns its private L1
//! model and a local cycle clock, and interacts with shared state (L2
//! slices with the directory, the mesh, DRAM, locks, barriers) through
//! fine-grain locks and atomics. Thread clocks advance independently and
//! meet at synchronization points — the same *lax synchronization* the
//! Graphite paper describes, which is what lets a 256-core simulation run
//! on a laptop.
//!
//! With [`SimMachine::with_tracing`] the run additionally records a
//! `crono-trace` event stream (algorithm phases, lock and barrier waits,
//! L1 miss classes, directory invalidations, NoC flit traffic, DRAM
//! queueing) timestamped in simulated cycles — and switches the lax
//! scheduling for the deterministic [`crate::sequencer::Sequencer`], so
//! the same seed and configuration always produce a byte-identical trace.

use crate::config::SimConfig;
use crate::dram::Dram;
use crate::fault::{EccOutcome, FaultPlan};
use crate::inbox::{CoherenceMsg, Inboxes};
use crate::l1::{L1Cache, L1Lookup, L1State, MissClass};
use crate::l2::{home_of, L2Slice};
use crate::noc::{Mesh, Traversal};
use crate::sequencer::Sequencer;
use crono_runtime::Mutex;
use crono_runtime::{
    run_workers, Addr, Breakdown, EnergyCounters, FaultCounters, LockSet, Machine, MissStats,
    RunError, RunGate, RunOptions, RunOutcome, RunReport, ThreadCtx, ThreadReport,
};
use crono_trace::{ThreadTracer, TraceConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The Graphite-style simulated multicore backend (paper §IV-B).
///
/// # Examples
///
/// ```
/// use crono_sim::{SimConfig, SimMachine};
/// use crono_runtime::{Machine, SharedU64s};
///
/// let machine = SimMachine::new(SimConfig::tiny(16), 4);
/// let counters = SharedU64s::new(1);
/// let outcome = machine.run(|ctx| {
///     counters.fetch_add(ctx, 0, 1);
/// });
/// assert_eq!(counters.get_plain(0), 4);
/// assert!(outcome.report.completion > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SimMachine {
    config: SimConfig,
    threads: usize,
    trace: Option<TraceConfig>,
    faults: Option<FaultPlan>,
    /// Run under the deterministic sequencer even without a tracer
    /// attached (fault-injection experiments need reproducible runs but
    /// not necessarily traces).
    deterministic: bool,
}

impl SimMachine {
    /// Creates a simulated machine running `threads` threads on
    /// `config.num_cores` cores (threads are spread evenly over the mesh).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, `threads > config.num_cores`, or the
    /// configuration is invalid.
    pub fn new(config: SimConfig, threads: usize) -> Self {
        config.validate();
        assert!(threads > 0, "need at least one thread");
        assert!(
            threads <= config.num_cores,
            "cannot run {threads} threads on {} cores",
            config.num_cores
        );
        SimMachine {
            config,
            threads,
            trace: None,
            faults: None,
            deterministic: false,
        }
    }

    /// As [`SimMachine::new`], with per-thread event tracing enabled.
    /// Each [`ThreadReport`](crono_runtime::ThreadReport) then carries a
    /// trace timestamped in simulated cycles, and the run executes under
    /// the deterministic sequencer: shared simulator state is touched in
    /// `(clock, thread id)` order, so identical inputs yield identical
    /// traces — at the cost of serializing the host threads.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SimMachine::new`].
    pub fn with_tracing(config: SimConfig, threads: usize, trace: TraceConfig) -> Self {
        let mut m = Self::new(config, threads);
        m.trace = Some(trace);
        m
    }

    /// Attaches a deterministic fault plan to this machine (composable
    /// with [`SimMachine::with_tracing`]): `plan` decides every NoC,
    /// DRAM-ECC, and core-stall fault, and every permanent dead link,
    /// core, or DRAM controller. It also forces deterministic sequenced
    /// execution, so identical inputs, allocated from the same point of
    /// an [`AddressSpace`](crono_runtime::AddressSpace), give
    /// byte-identical counters. Injected fault counts land in
    /// [`RunReport::faults`](crono_runtime::RunReport::faults).
    ///
    /// # Panics
    ///
    /// Panics if `plan` is invalid (see [`FaultPlan::validate`]) or names
    /// a router or core outside the mesh.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        if let Some(dl) = plan.dead_link {
            assert!(
                dl.router < self.config.num_cores,
                "dead link router {} out of range for {} cores",
                dl.router,
                self.config.num_cores
            );
        }
        if let Some(dc) = plan.dead_core {
            assert!(
                dc.core < self.config.num_cores,
                "dead core {} out of range for {} cores",
                dc.core,
                self.config.num_cores
            );
        }
        self.faults = Some(plan);
        self.deterministic = true;
        self
    }

    /// Forces deterministic sequenced execution even without a tracer
    /// or fault plan: shared simulator state is touched in
    /// `(clock, thread id)` order, so identical inputs give
    /// byte-identical counters — at the cost of serializing the host
    /// threads. The ablation sweeps use this for the schedule-sensitive
    /// work-stealing variants, so `crono ablation` output is
    /// reproducible across invocations.
    pub fn deterministic(mut self) -> Self {
        self.deterministic = true;
        self
    }

    /// The architectural configuration in force.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }
}

impl Machine for SimMachine {
    type Ctx = SimCtx;

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn backend_name(&self) -> &'static str {
        "sim"
    }

    fn try_run_with<F, R>(&self, opts: &RunOptions, body: F) -> Result<RunOutcome<R>, RunError>
    where
        F: Fn(&mut Self::Ctx) -> R + Sync,
        R: Send,
    {
        let shared = Arc::new(SimShared::new(
            &self.config,
            self.threads,
            self.trace.is_some() || self.deterministic,
            self.faults.as_ref(),
        ));
        let mut workers = run_workers(
            self.threads,
            opts,
            &shared.gate,
            // A cancelled deterministic run must also tear down the
            // sequencer, or parked turn-takers never wake.
            || {
                if let Some(seq) = &shared.seq {
                    seq.abort();
                }
            },
            |tid| SimCtx::new(Arc::clone(&shared), tid, self.trace, self.faults),
            body,
            SimCtx::finish,
        );
        let mut threads = Vec::with_capacity(self.threads);
        let mut misses = MissStats::default();
        let mut energy = EnergyCounters::default();
        let mut faults = FaultCounters::default();
        for (t, m, e, fc) in std::mem::take(&mut workers.finished) {
            threads.push(t);
            misses.merge(&m);
            energy.merge(&e);
            faults.merge(&fc);
        }
        let completion = threads.iter().map(|t| t.finish_time).max().unwrap_or(0);
        let report = RunReport {
            backend: self.backend_name(),
            wall: workers.wall,
            completion,
            threads,
            misses,
            energy,
            faults,
        };
        // An unroutable message also unwinds its worker, so check the
        // typed route error before the generic panic mapping.
        if let Some((tid, detail)) = shared.unroutable.lock().take() {
            return Err(RunError::Unroutable {
                tid,
                detail,
                report: Box::new(report),
            });
        }
        workers.outcome(report)
    }
}

/// State shared by all simulated threads of one run.
#[derive(Debug)]
struct SimShared {
    config: SimConfig,
    mesh: Mesh,
    dram: Dram,
    shards: Vec<Mutex<L2Slice>>,
    inboxes: Inboxes,
    /// Run barrier + cancellation token + watchdog hook: releases its
    /// waiters when a worker panics or the run times out.
    gate: RunGate,
    /// Sense-rotating barrier clock slots (see `SimCtx::barrier`).
    barrier_slots: [AtomicU64; 4],
    /// Core index each thread is pinned to.
    core_map: Vec<usize>,
    /// Deterministic turn-taking for traced/fault runs (`None` ⇒ lax
    /// mode).
    seq: Option<Sequencer>,
    /// First unroutable message of the run — `(tid, route error)` — set
    /// by the worker that hit a dead link its routing policy cannot
    /// avoid, and mapped to [`RunError::Unroutable`] after the join.
    unroutable: Mutex<Option<(usize, String)>>,
}

impl SimShared {
    fn new(
        config: &SimConfig,
        threads: usize,
        sequenced: bool,
        faults: Option<&FaultPlan>,
    ) -> Self {
        let stride = config.num_cores / threads;
        let mut mesh = Mesh::new(config.num_cores, config.mesh);
        let mut dram = Dram::new(config);
        if let Some(plan) = faults {
            mesh.set_dead_link(plan.dead_link);
            if let Some(dc) = plan.dead_dram_ctrl {
                dram.set_dead_ctrl(Some(dc));
            }
        }
        SimShared {
            config: config.clone(),
            mesh,
            dram,
            shards: (0..config.num_cores)
                .map(|_| Mutex::new(L2Slice::new(config)))
                .collect(),
            inboxes: Inboxes::new(config.num_cores),
            gate: RunGate::new(threads),
            barrier_slots: Default::default(),
            core_map: (0..threads).map(|t| t * stride).collect(),
            seq: sequenced.then(|| Sequencer::new(threads)),
            unroutable: Mutex::new(None),
        }
    }
}

/// Cap on the per-request serialization wait charged at an L2 home
/// (bounds queueing behind a hot line at several epochs of backlog).
const HOME_WAIT_CAP: u64 = 4096;

/// One outstanding miss in the out-of-order window.
#[derive(Debug, Clone, Copy)]
struct PendingMiss {
    completion: u64,
    comps: Breakdown,
}

/// Timing of one directory transaction.
#[derive(Debug, Clone, Copy)]
struct MissTiming {
    completion: u64,
    comps: Breakdown,
    /// Whether the line was granted in Exclusive state.
    exclusive: bool,
}

/// Per-thread context of the [`SimMachine`] backend.
#[derive(Debug)]
pub struct SimCtx {
    shared: Arc<SimShared>,
    tid: usize,
    core: usize,
    clock: u64,
    l1: L1Cache,
    breakdown: Breakdown,
    misses: MissStats,
    energy: EnergyCounters,
    instructions: u64,
    window: Vec<PendingMiss>,
    mlp: usize,
    store_buffer: bool,
    generation: u64,
    broadcast_cursor: u64,
    /// Reusable buffer for draining broadcast invalidations (hoisted out
    /// of `drain_coherence`, which runs once per simulated memory op).
    bcast_scratch: Vec<u64>,
    /// Acquire clocks of currently-held locks, keyed by lock-word
    /// address (for booking hold times at unlock).
    held_since: std::collections::HashMap<u64, u64>,
    /// This thread's own `(epoch, cycles)` bookings per lock word, so it
    /// never queues behind itself.
    my_bookings: std::collections::HashMap<u64, (u64, u64)>,
    active_samples: Vec<(u64, u64)>,
    tracer: Option<ThreadTracer>,
    /// Emit per-router `noc_route` geometry instants (from
    /// [`TraceConfig::noc_geometry`]; meaningless without a tracer).
    noc_geometry: bool,
    /// Deterministic fault-injection plan (`None` ⇒ no faults; decisions
    /// are pure functions, so each thread carries its own copy).
    faults: Option<FaultPlan>,
    fault_counters: FaultCounters,
    /// Last core-stall decision window evaluated, so each window is
    /// decided at most once per thread.
    last_stall_window: Option<u64>,
    /// Set once this thread's core passes its permanent-death cycle
    /// (`FaultPlan::dead_core`): `departed()` turns `true`, the task
    /// layer stops handing it work, and the next barrier unwinds it out
    /// of the run.
    dying: bool,
}

impl SimCtx {
    fn new(
        shared: Arc<SimShared>,
        tid: usize,
        trace: Option<TraceConfig>,
        faults: Option<FaultPlan>,
    ) -> Self {
        let core = shared.core_map[tid];
        let l1 = L1Cache::new(&shared.config);
        let mlp = shared.config.core.max_outstanding_misses();
        let store_buffer = shared.config.core.has_store_buffer();
        SimCtx {
            shared,
            tid,
            core,
            clock: 0,
            l1,
            breakdown: Breakdown::default(),
            misses: MissStats::default(),
            energy: EnergyCounters::default(),
            instructions: 0,
            window: Vec::new(),
            mlp,
            store_buffer,
            generation: 0,
            broadcast_cursor: 0,
            bcast_scratch: Vec::new(),
            held_since: std::collections::HashMap::new(),
            my_bookings: std::collections::HashMap::new(),
            active_samples: Vec::new(),
            tracer: trace.map(|c| ThreadTracer::from_config(&c)),
            noc_geometry: trace.is_some_and(|c| c.noc_geometry),
            faults,
            fault_counters: FaultCounters::default(),
            last_stall_window: None,
            dying: false,
        }
    }

    /// Waits for this thread's deterministic turn before a hook touches
    /// shared simulator state. A no-op in lax (untraced) mode.
    #[inline]
    fn sync_turn(&self) {
        if let Some(seq) = &self.shared.seq {
            seq.turn(self.tid, self.clock);
        }
    }

    /// The simulated cycle clock of this thread.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The mesh core this thread is pinned to.
    pub fn core(&self) -> usize {
        self.core
    }

    fn finish(mut self) -> (ThreadReport, MissStats, EnergyCounters, FaultCounters) {
        self.drain_window();
        // Leave the deterministic rotation first: threads finishing at
        // different simulated times must not stall the still-running ones.
        if let Some(seq) = &self.shared.seq {
            seq.done(self.tid);
        }
        self.energy.l1i_accesses = self.instructions;
        self.energy.l1d_accesses = self.misses.l1d_accesses;
        let report = ThreadReport {
            instructions: self.instructions,
            finish_time: self.clock,
            breakdown: self.breakdown,
            active_samples: self.active_samples,
            trace: self.tracer.map(ThreadTracer::finish),
        };
        (report, self.misses, self.energy, self.fault_counters)
    }

    // ------------------------------------------------------------------
    // Coherence message handling (lax, Graphite-style).

    /// Runs once per simulated memory op, so the fast path must stay
    /// allocation- and refcount-free: one `Relaxed` load of a core-
    /// private flag, no `Arc` traffic, and a reusable broadcast buffer
    /// instead of a fresh `Vec` (all purely host-side — delivery points
    /// are unchanged, as the golden counter-invariance test enforces).
    fn drain_coherence(&mut self) {
        if !self.shared.inboxes.take_notified(self.core) {
            return;
        }
        // `drain` returns the queue by value, so the `self.shared`
        // borrow ends before `apply_msg` needs `&mut self`.
        for msg in self.shared.inboxes.drain(self.core) {
            self.apply_msg(msg);
        }
        let mut lines = std::mem::take(&mut self.bcast_scratch);
        self.broadcast_cursor = self
            .shared
            .inboxes
            .drain_broadcasts(self.broadcast_cursor, |l| lines.push(l));
        for line in lines.drain(..) {
            self.apply_msg(CoherenceMsg {
                line,
                downgrade: false,
            });
        }
        self.bcast_scratch = lines;
    }

    fn apply_msg(&mut self, msg: CoherenceMsg) {
        if msg.downgrade {
            self.l1.coherence_downgrade(msg.line);
        } else {
            self.l1.coherence_invalidate(msg.line);
        }
    }

    // ------------------------------------------------------------------
    // The memory-access state machine.

    fn mem_op(&mut self, addr: Addr, write: bool, serialize: bool) {
        // Stall faults land before the clock is published to the
        // sequencer, so the stalled clock orders the turn-taking.
        self.apply_core_stall();
        self.note_core_death();
        // Inboxes, home slices, the mesh, and DRAM are shared: traced
        // runs serialize here in deterministic `(clock, tid)` order.
        self.sync_turn();
        self.instructions += 1;
        self.misses.l1d_accesses += 1;
        self.drain_coherence();
        let l1_lat = self.shared.config.l1d.latency;
        self.clock += l1_lat;
        self.breakdown.compute += l1_lat;
        let line = addr.line();
        let lookup = self.l1.access(line, write);
        if lookup == L1Lookup::Hit {
            if serialize {
                self.drain_window();
            }
            return;
        }
        let upgrade = lookup == L1Lookup::UpgradeMiss;
        let class = self.l1.classify_miss(line, upgrade);
        match class {
            MissClass::Cold => self.misses.cold_misses += 1,
            MissClass::Capacity => self.misses.capacity_misses += 1,
            MissClass::Sharing => self.misses.sharing_misses += 1,
        }
        if let Some(tr) = self.tracer.as_mut() {
            let name = match class {
                MissClass::Cold => "l1_miss_cold",
                MissClass::Capacity => "l1_miss_capacity",
                MissClass::Sharing => "l1_miss_sharing",
            };
            tr.instant("mem", name, self.clock, line);
        }
        if serialize {
            // Atomic RMWs order the pipeline: everything older retires
            // first, and the RMW itself stalls to completion.
            self.drain_window();
        }
        // Locality-aware coherence (§VII-A extension): a first touch is
        // served remotely at the home — word-granularity reply, no L1
        // allocation — so low-locality lines never thrash the L1 or join
        // the sharer set. Reuse (any later touch) allocates normally.
        let remote = self.shared.config.locality_aware && !upgrade && class == MissClass::Cold;
        let timing = self.transaction(line, write, upgrade, !remote);
        if upgrade {
            self.l1.promote(line);
        } else if remote {
            self.l1.note_touch(line);
        } else {
            let state = if write {
                L1State::Modified
            } else if timing.exclusive {
                L1State::Exclusive
            } else {
                L1State::Shared
            };
            if let Some((vline, vstate)) = self.l1.fill(line, state) {
                if vstate == L1State::Modified {
                    self.writeback_victim(vline);
                }
            }
        }
        let hide = !serialize && self.mlp > 1 && (self.store_buffer || !write);
        if hide {
            self.window.push(PendingMiss {
                completion: timing.completion,
                comps: timing.comps,
            });
            if self.window.len() >= self.mlp {
                self.retire_one();
            }
        } else {
            self.stall_until(timing.completion, &timing.comps);
        }
    }

    fn stall_until(&mut self, completion: u64, comps: &Breakdown) {
        if completion <= self.clock {
            return;
        }
        let visible = completion - self.clock;
        let total = comps.total();
        self.add_scaled(comps, visible, total.max(1));
        self.clock = completion;
    }

    fn retire_one(&mut self) {
        let idx = self
            .window
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| p.completion)
            .map(|(i, _)| i)
            .expect("retire_one on non-empty window");
        let p = self.window.swap_remove(idx);
        self.stall_until(p.completion, &p.comps);
    }

    fn drain_window(&mut self) {
        while !self.window.is_empty() {
            self.retire_one();
        }
    }

    fn add_scaled(&mut self, comps: &Breakdown, num: u64, den: u64) {
        let scale = |x: u64| ((x as u128 * num as u128) / den as u128) as u64;
        self.breakdown.l1_to_l2home += scale(comps.l1_to_l2home);
        self.breakdown.l2home_waiting += scale(comps.l2home_waiting);
        self.breakdown.l2home_sharers += scale(comps.l2home_sharers);
        self.breakdown.l2home_offchip += scale(comps.l2home_offchip);
    }

    fn note_traffic(&mut self, flit_hops: u64) {
        self.energy.router_flit_hops += flit_hops;
        self.energy.link_flit_hops += flit_hops;
    }

    /// A critical-path mesh traversal with fault injection: when the
    /// fault plan declares a transient link fault on this traversal, the
    /// message is retransmitted — the retry departs when the corrupted
    /// copy would have arrived, doubling latency and flit traffic.
    fn route(&mut self, mesh: &Mesh, from: usize, to: usize, depart: u64, flits: u64) -> Traversal {
        let t = self.routed(mesh, from, to, depart, flits);
        if let Some(plan) = self.faults {
            if plan.noc_fault(from, to, depart) {
                // The retry departs after the corrupted copy arrived —
                // and must dodge a dead link just like the original.
                let retry = self.routed(mesh, from, to, t.arrival, flits);
                self.fault_counters.noc_retransmits += 1;
                if let Some(tr) = self.tracer.as_mut() {
                    tr.instant("fault", "noc_retransmit", depart, 1);
                }
                return Traversal {
                    arrival: retry.arrival,
                    flit_hops: t.flit_hops + retry.flit_hops,
                    detour_hops: t.detour_hops + retry.detour_hops,
                    detoured: t.detoured || retry.detoured,
                };
            }
        }
        t
    }

    /// One mesh traversal with permanent dead-link handling: a detour
    /// (O1TURN dodging the dead link) is counted, and an unroutable
    /// message — XY dimension-ordered routing whose fixed path crosses
    /// the dead link — records the typed route error for
    /// `try_run_with` and unwinds this worker (the run fails with
    /// [`RunError::Unroutable`], never a hang).
    fn routed(
        &mut self,
        mesh: &Mesh,
        from: usize,
        to: usize,
        depart: u64,
        flits: u64,
    ) -> Traversal {
        let t = match mesh.try_traverse(from, to, depart, flits) {
            Ok(t) => t,
            Err(e) => {
                let mut slot = self.shared.unroutable.lock();
                if slot.is_none() {
                    *slot = Some((self.tid, e.to_string()));
                }
                drop(slot);
                // `resume_unwind` skips the panic hook: the run reports
                // this as a typed error, so nothing goes to stderr.
                std::panic::resume_unwind(Box::new(e.to_string()));
            }
        };
        self.note_traffic(t.flit_hops);
        if t.detoured {
            self.fault_counters.noc_detours += 1;
            self.fault_counters.noc_detour_hops += t.detour_hops;
            if let Some(tr) = self.tracer.as_mut() {
                tr.instant("fault", "noc_detour", depart, t.detour_hops);
            }
        }
        t
    }

    /// Permanent core-death faults: past the plan's activation cycle
    /// this core is disabled. The decision is a pure clock comparison —
    /// a plan armed at `u64::MAX` never fires and stays
    /// timing-invisible.
    fn note_core_death(&mut self) {
        if self.dying {
            return;
        }
        let Some(plan) = self.faults else { return };
        let Some(dead) = plan.dead_core else { return };
        if dead.core == self.core && self.clock >= dead.at_cycle {
            self.dying = true;
            self.fault_counters.cores_lost += 1;
            if let Some(tr) = self.tracer.as_mut() {
                tr.instant("fault", "core_dead", self.clock, 1);
            }
        }
    }

    /// Core stall faults: at most once per `stall_window`-cycle window,
    /// the plan may declare this core unresponsive — modeled as a lump
    /// of lost cycles before the next memory operation issues.
    fn apply_core_stall(&mut self) {
        let Some(plan) = self.faults else { return };
        if plan.stall_rate <= 0.0 {
            return;
        }
        let window = self.clock / plan.stall_window;
        if self.last_stall_window.is_some_and(|w| w >= window) {
            return;
        }
        self.last_stall_window = Some(window);
        if plan.core_stall(self.core, window) {
            self.clock += plan.stall_cycles;
            self.breakdown.compute += plan.stall_cycles;
            self.fault_counters.core_stalls += 1;
            self.fault_counters.core_stall_cycles += plan.stall_cycles;
            if let Some(tr) = self.tracer.as_mut() {
                tr.instant("fault", "core_stall", self.clock, plan.stall_cycles);
            }
        }
    }

    /// One full directory transaction at the line's home, returning its
    /// completion time and component split. Home-side directory state is
    /// updated synchronously; remote L1 state via inbox messages (lax).
    /// With `allocate == false` the access is served remotely (word
    /// reply, requester not registered in the directory).
    fn transaction(&mut self, line: u64, write: bool, upgrade: bool, allocate: bool) -> MissTiming {
        let shared = Arc::clone(&self.shared);
        let cfg = &shared.config;
        let me = self.core as u16;
        let issue = self.clock;
        let home = home_of(line, cfg.num_cores);
        let ctrl = cfg.control_flits();
        let data = cfg.data_flits();

        // Trace bookkeeping for this transaction (dead weight in lax mode).
        let flits_before = self.energy.router_flit_hops;
        let mut invalidations = 0u64;
        let mut downgrades = 0u64;
        let mut broadcast = false;
        let mut dram_queued: Option<u64> = None;

        let req = self.route(&shared.mesh, self.core, home, issue, ctrl);

        let waiting;
        let mut offchip = 0;
        let mut sharers_time = 0;
        let reply_depart;
        let mut exclusive = false;
        {
            let mut slice = shared.shards[home].lock();
            let crate::l2::HomeLine {
                entry,
                was_miss,
                victim,
            } = slice.prepare(line);
            // Requests to one line serialize at the home: a request
            // queues behind the service time already booked on the line
            // within its own accounting epoch (skew-tolerant — see the
            // `noc` module docs for why absolute timestamps cannot work
            // under lax thread clocks).
            let epoch = req.arrival / crate::l2::HOME_EPOCH_CYCLES;
            if entry.queue_epoch != epoch {
                entry.queue_epoch = epoch;
                entry.queue_busy = 0;
            }
            waiting = entry.queue_busy.min(HOME_WAIT_CAP);
            let serve = req.arrival + waiting;
            let mut t = serve + cfg.l2.latency;
            // Clean shared-read hits pipeline at the home; only fills and
            // ownership changes serialize later requests.
            let mut serializes = was_miss || write;
            self.misses.l2_accesses += 1;
            self.energy.l2_accesses += 1;
            self.energy.directory_accesses += 1;

            // Inclusive-hierarchy victim handling (off the critical path:
            // traffic and directory state only).
            if let Some(v) = victim {
                if let Some(targets) = v.invalidate {
                    match targets {
                        Some(list) => {
                            for tgt in list {
                                self.energy.router_flit_hops +=
                                    shared.mesh.hops(home, tgt as usize) * ctrl;
                                self.energy.link_flit_hops +=
                                    shared.mesh.hops(home, tgt as usize) * ctrl;
                                shared.inboxes.push(
                                    tgt as usize,
                                    CoherenceMsg {
                                        line: v.line,
                                        downgrade: false,
                                    },
                                );
                            }
                        }
                        None => {
                            let (sum, _) = shared.mesh.broadcast_hops(home);
                            self.note_traffic(sum * ctrl);
                            shared.inboxes.push_broadcast(v.line);
                        }
                    }
                }
                if v.writeback {
                    let (c, ccore, rehomed) = shared.dram.controller_for_at(v.line, t);
                    if rehomed {
                        self.fault_counters.dram_rehomed += 1;
                    }
                    shared.dram.access(c, t);
                    self.energy.dram_accesses += 1;
                    self.note_traffic(shared.mesh.hops(home, ccore) * data);
                }
            }

            if was_miss {
                let (c, ccore, rehomed) = shared.dram.controller_for_at(line, t);
                let go = self.route(&shared.mesh, home, ccore, t, ctrl);
                // A line re-homed off a failed controller pays a one-time
                // migration surcharge while the window is open, then
                // settles into (permanently) sharing the survivors.
                let surcharge = shared.dram.migration_surcharge(rehomed, go.arrival);
                if rehomed {
                    self.fault_counters.dram_rehomed += 1;
                    if let Some(tr) = self.tracer.as_mut() {
                        tr.instant("fault", "dram_rehomed", go.arrival, 1 + surcharge);
                    }
                }
                let acc = shared.dram.access_timed(c, go.arrival + surcharge);
                dram_queued = Some(acc.queued);
                let mut ready = acc.ready;
                self.energy.dram_accesses += 1;
                // ECC model: corrected errors are free; a detected
                // (uncorrectable) error re-reads the line from the array.
                if let Some(plan) = self.faults {
                    match plan.dram_fault(c, go.arrival) {
                        EccOutcome::Clean => {}
                        EccOutcome::Corrected => {
                            self.fault_counters.dram_ecc_corrected += 1;
                            if let Some(tr) = self.tracer.as_mut() {
                                tr.instant("fault", "dram_ecc_corrected", go.arrival, 1);
                            }
                        }
                        EccOutcome::Detected => {
                            let retry = shared.dram.access_timed(c, ready);
                            ready = retry.ready;
                            self.energy.dram_accesses += 1;
                            self.fault_counters.dram_ecc_detected += 1;
                            if let Some(tr) = self.tracer.as_mut() {
                                tr.instant("fault", "dram_ecc_detected", go.arrival, 1);
                            }
                        }
                    }
                }
                let back = self.route(&shared.mesh, ccore, home, ready, data);
                offchip = back.arrival - t;
                t = back.arrival;
                self.misses.l2_misses += 1;
                entry.dirty = false;
            }

            if write {
                // Fetch dirty data from a foreign owner, then invalidate
                // every other copy; requester becomes the owner.
                if let Some(o) = entry.owner {
                    if o != me {
                        let go = self.route(&shared.mesh, home, o as usize, t, ctrl);
                        let back = self.route(&shared.mesh, o as usize, home, go.arrival, data);
                        sharers_time += back.arrival - t;
                        t = back.arrival;
                        shared.inboxes.push(
                            o as usize,
                            CoherenceMsg {
                                line,
                                downgrade: false,
                            },
                        );
                        invalidations += 1;
                        entry.dirty = true;
                    }
                }
                entry.owner = None;
                match entry.sharers.invalidation_targets() {
                    Some(list) => {
                        let targets: Vec<u16> = list.iter().copied().filter(|&c| c != me).collect();
                        if !targets.is_empty() {
                            let mut done = t;
                            for tgt in targets {
                                let go = self.route(&shared.mesh, home, tgt as usize, t, ctrl);
                                let ack =
                                    self.route(&shared.mesh, tgt as usize, home, go.arrival, ctrl);
                                done = done.max(ack.arrival);
                                shared.inboxes.push(
                                    tgt as usize,
                                    CoherenceMsg {
                                        line,
                                        downgrade: false,
                                    },
                                );
                                invalidations += 1;
                            }
                            sharers_time += done - t;
                            t = done;
                        }
                    }
                    None => {
                        // ACKWise pointer overflow: broadcast invalidation.
                        let (sum, max_hops) = shared.mesh.broadcast_hops(home);
                        let rt = 2 * max_hops * cfg.mesh.hop_latency;
                        self.note_traffic(2 * sum * ctrl);
                        // Drain our own pending traffic first so the
                        // broadcast (which includes us) cannot kill the
                        // line we are about to install.
                        self.drain_coherence();
                        shared.inboxes.push_broadcast(line);
                        broadcast = true;
                        self.broadcast_cursor += 1;
                        sharers_time += rt;
                        t += rt;
                    }
                }
                entry.sharers.clear();
                entry.owner = if allocate { Some(me) } else { None };
                entry.dirty = true;
            } else {
                // Read: downgrade a foreign owner, else grant E when sole.
                if let Some(o) = entry.owner {
                    if o != me {
                        let go = self.route(&shared.mesh, home, o as usize, t, ctrl);
                        let back = self.route(&shared.mesh, o as usize, home, go.arrival, data);
                        sharers_time += back.arrival - t;
                        t = back.arrival;
                        shared.inboxes.push(
                            o as usize,
                            CoherenceMsg {
                                line,
                                downgrade: true,
                            },
                        );
                        downgrades += 1;
                        entry.sharers.add(o);
                        entry.dirty = true;
                        serializes = true;
                    }
                    entry.owner = None;
                }
                if allocate {
                    if entry.sharers.is_empty() {
                        entry.owner = Some(me);
                        exclusive = true;
                    } else {
                        entry.sharers.add(me);
                    }
                }
            }
            if serializes {
                entry.queue_busy += t - serve;
            }
            reply_depart = t;
        }

        // Upgrades and remote (word-granularity) accesses reply without
        // the full line.
        let reply_flits = if upgrade || !allocate { ctrl } else { data };
        let reply = self.route(&shared.mesh, home, self.core, reply_depart, reply_flits);

        if let Some(tr) = self.tracer.as_mut() {
            let flits = self.energy.router_flit_hops - flits_before;
            tr.instant("noc", "noc_flits", issue, flits);
            if self.noc_geometry && flits > 0 {
                // Attribute the transaction's flits to the home router
                // so `crono heatmap` can draw per-router traffic.
                let (row, col) = shared.mesh.position(home);
                tr.instant(
                    "noc",
                    "noc_route",
                    issue,
                    crono_trace::pack_route(row, col, flits),
                );
            }
            if waiting > 0 {
                tr.instant("mem", "home_queue", issue, waiting);
            }
            if let Some(queued) = dram_queued {
                tr.instant("dram", "dram_access", issue, queued);
            }
            if invalidations > 0 {
                tr.instant("coherence", "dir_invalidate", issue, invalidations);
            }
            if downgrades > 0 {
                tr.instant("coherence", "dir_downgrade", issue, downgrades);
            }
            if broadcast {
                tr.instant("coherence", "dir_broadcast", issue, 1);
            }
        }

        let l2_lat = cfg.l2.latency;
        MissTiming {
            completion: reply.arrival,
            comps: Breakdown {
                compute: 0,
                l1_to_l2home: (req.arrival - issue) + l2_lat + (reply.arrival - reply_depart),
                l2home_waiting: waiting,
                l2home_sharers: sharers_time,
                l2home_offchip: offchip,
                synchronization: 0,
            },
            exclusive,
        }
    }

    /// Write back a dirty L1 victim to its home (off the critical path:
    /// traffic, DRAM pressure, and directory state; no requester stall).
    fn writeback_victim(&mut self, vline: u64) {
        let shared = Arc::clone(&self.shared);
        let home = home_of(vline, shared.config.num_cores);
        let data = shared.config.data_flits();
        self.note_traffic(shared.mesh.hops(self.core, home) * data);
        let me = self.core as u16;
        let mut slice = shared.shards[home].lock();
        self.energy.l2_accesses += 1;
        if let Some(entry) = slice.lookup_resident(vline) {
            entry.dirty = true;
            if entry.owner == Some(me) {
                entry.owner = None;
            } else {
                entry.sharers.remove(me);
            }
        }
    }
}

impl ThreadCtx for SimCtx {
    fn thread_id(&self) -> usize {
        self.tid
    }

    fn num_threads(&self) -> usize {
        self.shared.core_map.len()
    }

    fn load(&mut self, addr: Addr) {
        self.mem_op(addr, false, false);
    }

    fn store(&mut self, addr: Addr) {
        self.mem_op(addr, true, false);
    }

    fn rmw(&mut self, addr: Addr) {
        self.mem_op(addr, true, true);
    }

    fn compute(&mut self, cycles: u32) {
        self.instructions += cycles as u64;
        self.clock += cycles as u64;
        self.breakdown.compute += cycles as u64;
    }

    fn lock(&mut self, set: &LockSet, idx: usize) {
        self.drain_window();
        // The lock word itself ping-pongs between contenders — model the
        // coherence traffic of the atomic acquire.
        self.mem_op(set.addr(idx), true, true);
        let contended = if let Some(seq) = &self.shared.seq {
            // Deterministic mode: spinning would deadlock (the holder
            // cannot take a turn while we hold ours), so yield the turn
            // and park on the lock word until the holder's unlock wakes
            // us; waiters then re-contend in `(clock, tid)` order. A
            // cancelled run bails without the lock: its holder may have
            // panicked, and cancelled results are discarded anyway.
            let mut contended = false;
            while !set.try_acquire_raw(idx) {
                contended = true;
                if self.shared.gate.is_cancelled() {
                    break;
                }
                seq.block_on(self.tid, set.addr(idx).raw());
            }
            contended
        } else {
            // Lax mode: spin, but keep observing cancellation so a
            // panicked holder cannot hang the waiters forever.
            set.acquire_or_drain(idx, &self.shared.gate)
        };
        let mut wait = 0;
        // Align to the previous holder's release only when the
        // acquisition truly contended (the holder ran concurrently);
        // otherwise a wall-serialized predecessor's clock would leak in.
        if contended {
            let released_at = set.release_clock(idx);
            if released_at > self.clock {
                wait += released_at - self.clock;
            }
        }
        // Plus the hold time *other* threads booked on this lock in our
        // accounting epoch (skew-tolerant contention; see `noc` docs).
        let epoch = self.clock / crono_runtime::LOCK_EPOCH_CYCLES;
        let mine = match self.my_bookings.get(&set.addr(idx).raw()) {
            Some(&(e, cycles)) if e == epoch => cycles,
            _ => 0,
        };
        wait += set
            .booked_hold(idx, epoch)
            .saturating_sub(mine)
            .min(HOME_WAIT_CAP);
        let overhead = self.shared.config.lock_overhead;
        self.breakdown.synchronization += wait + overhead;
        self.clock += wait + overhead;
        if let Some(tr) = self.tracer.as_mut() {
            tr.instant("sync", "lock_acquire", self.clock, wait);
        }
        self.held_since.insert(set.addr(idx).raw(), self.clock);
    }

    fn unlock(&mut self, set: &LockSet, idx: usize) {
        self.drain_window();
        self.mem_op(set.addr(idx), true, true);
        if let Some(acquired_at) = self.held_since.remove(&set.addr(idx).raw()) {
            let hold = self.clock.saturating_sub(acquired_at) + self.shared.config.lock_overhead;
            let epoch = acquired_at / crono_runtime::LOCK_EPOCH_CYCLES;
            set.book_hold(idx, epoch, hold);
            let mine = self
                .my_bookings
                .entry(set.addr(idx).raw())
                .or_insert((epoch, 0));
            if mine.0 == epoch {
                mine.1 += hold;
            } else {
                *mine = (epoch, hold);
            }
            if let Some(tr) = self.tracer.as_mut() {
                tr.complete("sync", "lock_hold", acquired_at, self.clock - acquired_at);
            }
        }
        set.set_release_clock(idx, self.clock);
        set.release_raw(idx);
        if let Some(seq) = &self.shared.seq {
            seq.wake(set.addr(idx).raw());
        }
    }

    fn barrier(&mut self) {
        self.drain_window();
        self.note_core_death();
        if self.dying {
            // A dead core cannot rendezvous again: leave the gate's
            // population permanently — survivors' barriers re-size to
            // the survivor count — and unwind out of the kernel.
            // `finish()` runs on the way out and completes any pending
            // sequencer rejoin, so nobody is left parked.
            self.shared.gate.depart();
        }
        self.sync_turn();
        self.instructions += 1;
        let arrive = self.clock;
        let g = self.generation as usize;
        // Rotating slots: zeroing (g+2)%4 is safe — its last readers
        // finished before anyone could reach barrier g, and its next
        // writers cannot arrive until barrier g+1 has fully passed.
        self.shared.barrier_slots[(g + 2) % 4].store(0, Ordering::Release);
        self.shared.barrier_slots[g % 4].fetch_max(arrive, Ordering::AcqRel);
        // Deterministic mode: release the run token across the
        // rendezvous (the threads still heading here need it to arrive),
        // and rejoin collectively so no thread races ahead of the rest.
        if let Some(seq) = &self.shared.seq {
            seq.barrier_wait(self.tid);
        }
        let synced = self.shared.gate.barrier_wait();
        if !synced {
            // Cancelled run: the rendezvous never completed, so the slot
            // holds a meaningless partial max. Keep draining.
            self.generation += 1;
            return;
        }
        let max_clock = self.shared.barrier_slots[g % 4].load(Ordering::Acquire);
        self.generation += 1;
        let overhead = self.shared.config.barrier_overhead;
        debug_assert!(max_clock >= arrive);
        self.breakdown.synchronization += (max_clock - arrive) + overhead;
        self.clock = max_clock + overhead;
        if let Some(seq) = &self.shared.seq {
            seq.turn(self.tid, self.clock);
        }
        if let Some(tr) = self.tracer.as_mut() {
            tr.complete("sync", "barrier_wait", arrive, self.clock - arrive);
        }
    }

    fn record_active(&mut self, active: u64) {
        self.active_samples.push((self.clock, active));
    }

    fn instructions(&self) -> u64 {
        self.instructions
    }

    fn cycles(&self) -> u64 {
        self.clock
    }

    fn span_begin(&mut self, name: &'static str) {
        let ts = self.clock;
        if let Some(tr) = self.tracer.as_mut() {
            tr.begin("algo", name, ts);
        }
    }

    fn span_end(&mut self, name: &'static str) {
        let ts = self.clock;
        if let Some(tr) = self.tracer.as_mut() {
            tr.end("algo", name, ts);
        }
    }

    fn trace_instant(&mut self, name: &'static str, value: u64) {
        let ts = self.clock;
        if let Some(tr) = self.tracer.as_mut() {
            tr.instant("algo", name, ts, value);
        }
    }

    fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    #[inline]
    fn cancelled(&self) -> bool {
        self.shared.gate.is_cancelled()
    }

    #[inline]
    fn departed(&self) -> bool {
        self.dying
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crono_runtime::{alloc_region, SharedU32s, SharedU64s};

    fn machine(threads: usize) -> SimMachine {
        SimMachine::new(SimConfig::tiny(16), threads)
    }

    #[test]
    fn single_thread_compute_only() {
        let m = machine(1);
        let outcome = m.run(|ctx| {
            ctx.compute(100);
        });
        let b = outcome.report.breakdown();
        assert_eq!(b.compute, 100);
        assert_eq!(outcome.report.completion, 100);
        assert_eq!(b.l1_to_l2home, 0);
    }

    #[test]
    fn cold_miss_goes_off_chip() {
        let m = machine(1);
        let region = alloc_region(64);
        let outcome = m.run(|ctx| {
            ctx.load(region.addr(0, 4));
        });
        let r = &outcome.report;
        assert_eq!(r.misses.cold_misses, 1);
        assert_eq!(r.misses.l2_misses, 1);
        let b = r.breakdown();
        assert!(b.l2home_offchip >= 100, "DRAM latency visible: {b:?}");
        assert!(b.l1_to_l2home > 0);
        assert_eq!(r.energy.dram_accesses, 1);
    }

    #[test]
    fn second_access_hits_l1() {
        let m = machine(1);
        let region = alloc_region(64);
        let outcome = m.run(|ctx| {
            ctx.load(region.addr(0, 4));
            let after_miss = ctx.clock();
            ctx.load(region.addr(1, 4)); // same line
            (after_miss, ctx.clock())
        });
        let (t1, t2) = outcome.per_thread[0];
        assert_eq!(t2 - t1, 1, "L1 hit costs exactly the L1 latency");
        assert_eq!(outcome.report.misses.l1d_misses(), 1);
        assert_eq!(outcome.report.misses.l1d_accesses, 2);
    }

    #[test]
    fn write_sharing_produces_sharing_misses_and_invalidations() {
        let m = machine(4);
        let arr = SharedU32s::new(1);
        // Barriers force the host threads to interleave physically, so the
        // lazily-delivered invalidations are observed (a long-running
        // benchmark interleaves naturally).
        let outcome = m.run(|ctx| {
            for _ in 0..8 {
                arr.fetch_add(ctx, 0, 1);
                ctx.barrier();
            }
        });
        assert_eq!(arr.get_plain(0), 32);
        let r = &outcome.report;
        assert!(
            r.misses.sharing_misses > 0,
            "ping-ponging line must show sharing misses: {:?}",
            r.misses
        );
        let b = r.breakdown();
        assert!(b.l2home_sharers > 0 || b.l2home_waiting > 0);
    }

    #[test]
    fn read_only_sharing_has_no_invalidations() {
        let m = machine(4);
        let arr = SharedU32s::new(16);
        let outcome = m.run(|ctx| {
            let mut sum = 0u32;
            for i in 0..16 {
                sum = sum.wrapping_add(arr.get(ctx, i));
            }
            sum
        });
        let r = &outcome.report;
        assert_eq!(
            r.misses.sharing_misses, 0,
            "pure readers never invalidate each other: {:?}",
            r.misses
        );
    }

    #[test]
    fn locks_serialize_simulated_time() {
        let m = machine(4);
        let locks = LockSet::new(1);
        let shared = SharedU64s::new(1);
        let outcome = m.run(|ctx| {
            ctx.lock(&locks, 0);
            let v = shared.get(ctx, 0);
            ctx.compute(50);
            shared.set(ctx, 0, v + 1);
            ctx.unlock(&locks, 0);
        });
        assert_eq!(shared.get_plain(0), 4);
        // Four critical sections of >= 50 cycles must serialize.
        assert!(
            outcome.report.completion >= 200,
            "completion {} must cover 4 serialized critical sections",
            outcome.report.completion
        );
        let b = outcome.report.breakdown();
        assert!(b.synchronization > 0, "waiters accumulate sync time");
    }

    #[test]
    fn barrier_aligns_clocks() {
        let m = machine(4);
        let outcome = m.run(|ctx| {
            ctx.compute(10 * (1 + ctx.thread_id() as u32));
            ctx.barrier();
            ctx.clock()
        });
        let clocks = outcome.per_thread;
        let first = clocks[0];
        assert!(
            clocks.iter().all(|&c| c == first),
            "clocks equal: {clocks:?}"
        );
        assert!(first >= 40, "slowest thread dictates: {first}");
        let sync: u64 = outcome
            .report
            .threads
            .iter()
            .map(|t| t.breakdown.synchronization)
            .sum();
        assert!(sync > 0);
    }

    #[test]
    fn repeated_barriers_are_consistent() {
        let m = machine(3);
        let outcome = m.run(|ctx| {
            let mut clocks = Vec::new();
            for round in 0..10 {
                ctx.compute(((ctx.thread_id() + round) % 3) as u32 * 7 + 1);
                ctx.barrier();
                clocks.push(ctx.clock());
            }
            clocks
        });
        for round in 0..10 {
            let c0 = outcome.per_thread[0][round];
            assert!(
                outcome.per_thread.iter().all(|c| c[round] == c0),
                "round {round}: clocks diverged"
            );
        }
    }

    #[test]
    fn ooo_hides_load_latency() {
        let region = alloc_region(64 * 64);
        let run = |config: SimConfig| {
            let m = SimMachine::new(config, 1);
            m.run(|ctx| {
                for i in 0..32 {
                    ctx.load(region.addr(i * 16, 4)); // distinct lines
                }
            })
            .report
            .completion
        };
        let inorder = run(SimConfig::tiny(16));
        let ooo = run(SimConfig {
            core: crate::config::CoreModel::paper_ooo(),
            ..SimConfig::tiny(16)
        });
        assert!(
            ooo < inorder / 2,
            "OOO must overlap independent misses: ooo={ooo} inorder={inorder}"
        );
    }

    #[test]
    fn rmw_serializes_even_on_ooo() {
        let region = alloc_region(64 * 64);
        let m = SimMachine::new(
            SimConfig {
                core: crate::config::CoreModel::paper_ooo(),
                ..SimConfig::tiny(16)
            },
            1,
        );
        let arr = SharedU32s::new(16 * 16);
        let outcome = m.run(|ctx| {
            for i in 0..16 {
                arr.fetch_add(ctx, i * 16, 1);
            }
            ctx.load(region.addr(0, 4));
        });
        // Each RMW pays its full off-chip latency: >= 16 * 100 cycles.
        assert!(
            outcome.report.completion >= 1600,
            "got {}",
            outcome.report.completion
        );
    }

    #[test]
    fn energy_counters_accumulate() {
        let m = machine(2);
        let arr = SharedU32s::new(64);
        let outcome = m.run(|ctx| {
            for i in 0..64 {
                arr.set(ctx, i, 1);
            }
        });
        let e = &outcome.report.energy;
        assert!(e.l1d_accesses >= 128);
        assert!(e.l2_accesses > 0);
        assert!(e.router_flit_hops > 0);
        assert!(e.dram_accesses > 0);
        assert!(e.l1i_accesses >= e.l1d_accesses);
    }

    #[test]
    fn capacity_misses_on_thrashing_working_set() {
        // tiny L1 = 1 KB (16 lines); stream over 64 lines twice.
        let m = machine(1);
        let region = alloc_region(64 * 64);
        let outcome = m.run(|ctx| {
            for _ in 0..2 {
                for i in 0..64 {
                    ctx.load(region.addr(i * 16, 4));
                }
            }
        });
        let mi = &outcome.report.misses;
        assert_eq!(mi.cold_misses, 64);
        assert!(mi.capacity_misses >= 48, "thrash: {mi:?}");
        assert_eq!(mi.sharing_misses, 0);
    }

    #[test]
    #[should_panic(expected = "cannot run")]
    fn too_many_threads_rejected() {
        SimMachine::new(SimConfig::tiny(4), 8);
    }

    #[test]
    fn threads_spread_over_mesh() {
        let m = SimMachine::new(SimConfig::tiny(16), 4);
        let outcome = m.run(|ctx| ctx.core());
        assert_eq!(outcome.per_thread, vec![0, 4, 8, 12]);
    }

    /// A small kernel touching every event source: shared-counter
    /// contention, locks, barriers, and phases.
    fn traced_kernel(ctx: &mut SimCtx, locks: &LockSet, counter: &SharedU64s) {
        ctx.span_begin("phase");
        for _ in 0..4 {
            ctx.lock(locks, 0);
            let v = counter.get(ctx, 0);
            ctx.compute(7 * (1 + ctx.thread_id() as u32));
            counter.set(ctx, 0, v + 1);
            ctx.unlock(locks, 0);
            ctx.barrier();
        }
        ctx.span_end("phase");
    }

    fn run_traced() -> Vec<crono_trace::ThreadTrace> {
        let m =
            SimMachine::with_tracing(SimConfig::tiny(16), 4, crono_trace::TraceConfig::default());
        let locks = LockSet::new(1);
        let counter = SharedU64s::new(1);
        let outcome = m.run(|ctx| traced_kernel(ctx, &locks, &counter));
        assert_eq!(counter.get_plain(0), 16, "sequencer preserves correctness");
        outcome
            .report
            .threads
            .iter()
            .map(|t| t.trace.clone().expect("traced"))
            .collect()
    }

    #[test]
    fn traced_run_records_all_event_sources() {
        for trace in &run_traced() {
            let names: Vec<_> = trace.events.iter().map(|e| e.name).collect();
            for needle in [
                "phase",
                "lock_hold",
                "barrier_wait",
                "l1_miss_cold",
                "noc_flits",
            ] {
                assert!(names.contains(&needle), "missing {needle}: {names:?}");
            }
            assert_eq!(trace.dropped, 0);
        }
    }

    /// Runs `f` on a fresh thread, whose address space starts at the
    /// same base as every other fresh thread's.
    fn on_fresh_thread<T: Send + 'static>(f: fn() -> T) -> T {
        std::thread::spawn(f).join().expect("run thread")
    }

    /// Two traced runs that start from the same address space (here a
    /// fresh thread each, as `crono trace` starts a fresh process)
    /// record identical event streams. A second run on one thread sees
    /// shifted lines and legitimately different home slices.
    #[test]
    fn traced_run_is_deterministic_across_threads() {
        let first = on_fresh_thread(run_traced);
        assert!(first.iter().all(|t| !t.events.is_empty()), "no events");
        assert_eq!(
            first,
            on_fresh_thread(run_traced),
            "event streams identical"
        );
    }

    #[test]
    fn untraced_sim_reports_no_trace() {
        let m = machine(2);
        let outcome = m.run(|ctx| ctx.compute(10));
        assert!(outcome.report.threads.iter().all(|t| t.trace.is_none()));
    }

    /// A fault-free plan and an aggressive plan over the *same* shared
    /// data (same symbolic addresses, so the runs are comparable): the
    /// faulty run must report injected events and take at least as long.
    #[test]
    fn fault_injection_slows_the_run_and_counts_events() {
        // One u32 per cache line: 64 distinct lines, so the run makes
        // enough independent DRAM draws that a 0.1 fault rate hits some
        // regardless of where the symbolic allocator placed the region.
        let arr = SharedU32s::new(1024);
        let run = |plan: FaultPlan| {
            let m = SimMachine::new(SimConfig::tiny(16), 4).fault_plan(plan);
            m.run(|ctx| {
                for round in 0..4 {
                    for i in 0..64 {
                        if i % ctx.num_threads() == ctx.thread_id() {
                            arr.set(ctx, i * 16, round as u32);
                        }
                    }
                    ctx.barrier();
                }
            })
            .report
        };
        let clean = run(FaultPlan::zero(33));
        let faulty = run(FaultPlan::scaled(33, 0.1));
        assert_eq!(clean.faults.total_events(), 0, "{:?}", clean.faults);
        assert!(
            faulty.faults.noc_retransmits > 0,
            "rate 0.1 must hit some traversal: {:?}",
            faulty.faults
        );
        assert!(
            faulty.faults.dram_ecc_corrected + faulty.faults.dram_ecc_detected > 0,
            "rate 0.1 must hit some DRAM access: {:?}",
            faulty.faults
        );
        assert!(
            faulty.completion > clean.completion,
            "faults only add latency: faulty={} clean={}",
            faulty.completion,
            clean.completion
        );
    }

    /// The counters of a faulty run of [`traced_kernel`].
    fn faulty_fingerprint() -> (u64, FaultCounters, MissStats, EnergyCounters) {
        let counter = SharedU64s::new(1);
        let locks = LockSet::new(1);
        let m = SimMachine::new(SimConfig::tiny(16), 4).fault_plan(FaultPlan::scaled(33, 0.02));
        let r = m.run(|ctx| traced_kernel(ctx, &locks, &counter)).report;
        (r.completion, r.faults, r.misses, r.energy)
    }

    /// Fault decisions are pure site hashes, so injected runs are as
    /// deterministic as traced ones (see
    /// `traced_run_is_deterministic_across_threads`).
    #[test]
    fn faulty_run_is_deterministic_across_threads() {
        assert_eq!(
            on_fresh_thread(faulty_fingerprint),
            on_fresh_thread(faulty_fingerprint),
            "fault fingerprints identical"
        );
    }

    // ------------------------------------------------------------------
    // Permanent faults: dead links, disabled cores, failed controllers.

    use crate::config::RoutingPolicy;
    use crate::fault::LinkDir;

    /// A small barrier kernel over shared lines — every thread's work
    /// crosses the mesh, so a central dead link is guaranteed traffic.
    fn permanent_kernel(ctx: &mut SimCtx, arr: &SharedU32s) {
        for round in 0..4u32 {
            for i in 0..64 {
                if i % ctx.num_threads() == ctx.thread_id() {
                    arr.set(ctx, i, round);
                }
            }
            ctx.barrier();
        }
    }

    #[test]
    fn dead_link_under_xy_routing_is_a_typed_error_not_a_hang() {
        let arr = SharedU32s::new(64);
        // Router 5's east link in the 4×4 mesh: central enough that the
        // 4-thread all-to-home traffic must cross it.
        let m = SimMachine::new(SimConfig::tiny(16), 4)
            .fault_plan(FaultPlan::zero(33).with_dead_link(5, LinkDir::East, 0));
        let err = m
            .try_run(|ctx| permanent_kernel(ctx, &arr))
            .expect_err("XY routing cannot avoid a dead link on its fixed path");
        match err {
            RunError::Unroutable { detail, .. } => {
                assert!(
                    detail.contains("dead east link at router 5"),
                    "typed detail names the dead link: {detail}"
                );
            }
            other => panic!("expected Unroutable, got: {other}"),
        }
    }

    #[test]
    fn dead_link_under_o1turn_completes_with_detours() {
        let arr = SharedU32s::new(64);
        let mut config = SimConfig::tiny(16);
        config.mesh.routing = RoutingPolicy::O1Turn;
        let run = |plan: FaultPlan| {
            let m = SimMachine::new(config.clone(), 4).fault_plan(plan);
            m.run(|ctx| permanent_kernel(ctx, &arr)).report
        };
        let healthy = run(FaultPlan::zero(33));
        let degraded = run(FaultPlan::zero(33).with_dead_link(5, LinkDir::East, 0));
        assert_eq!(healthy.faults.noc_detours, 0, "{:?}", healthy.faults);
        // Whether a detour is a free dimension-order flip or a +2-hop
        // sidestep depends on the traffic mix (the sidestep cost is
        // pinned down deterministically in the `noc` unit tests); at
        // machine level the guarantee is that the run *completes*, with
        // every crossing of the dead link re-routed and counted.
        assert!(
            degraded.faults.noc_detours > 0,
            "O1TURN must re-route around the dead link: {:?}",
            degraded.faults
        );
        assert!(degraded.completion > 0);
    }

    #[test]
    fn dead_dram_ctrl_rehomes_lines_and_slows_the_run() {
        let arr = SharedU32s::new(256);
        let run = |plan: FaultPlan| {
            let m = SimMachine::new(SimConfig::tiny(16), 4).fault_plan(plan);
            m.run(|ctx| permanent_kernel_wide(ctx, &arr)).report
        };
        let healthy = run(FaultPlan::zero(33));
        let degraded = run(FaultPlan::zero(33).with_dead_dram_ctrl(0, 0));
        assert_eq!(healthy.faults.dram_rehomed, 0, "{:?}", healthy.faults);
        assert!(
            degraded.faults.dram_rehomed > 0,
            "controller 0's lines must re-home: {:?}",
            degraded.faults
        );
        // Re-homing changes controller distances as well as queueing, so
        // the end-to-end sign depends on the address mix; the surcharge
        // itself is pinned down in the `dram` unit tests. Here the
        // guarantee is that the re-homed timing is *visible*.
        assert_ne!(
            degraded.completion, healthy.completion,
            "re-homed accesses change the run's timing"
        );
    }

    /// Wider footprint so many distinct lines touch DRAM.
    fn permanent_kernel_wide(ctx: &mut SimCtx, arr: &SharedU32s) {
        for round in 0..2u32 {
            for i in 0..256 {
                if i % ctx.num_threads() == ctx.thread_id() {
                    arr.set(ctx, i, round);
                }
            }
            ctx.barrier();
        }
    }

    #[test]
    fn dead_core_departs_and_survivors_finish_barrier_kernel() {
        let arr = SharedU32s::new(64);
        // Core 4 is thread 1's pinned core (stride 16/4); die almost
        // immediately so the departure happens at the first barrier.
        let m = SimMachine::new(SimConfig::tiny(16), 4)
            .fault_plan(FaultPlan::zero(33).with_dead_core(4, 1));
        let outcome = m
            .try_run(|ctx| {
                permanent_kernel(ctx, &arr);
                ctx.thread_id()
            })
            .expect("survivors complete the run");
        assert_eq!(
            outcome.per_thread,
            vec![0, 2, 3],
            "the dead core contributes no return value"
        );
        assert_eq!(
            outcome.report.faults.cores_lost, 1,
            "{:?}",
            outcome.report.faults
        );
        // Every round after the death still runs on the survivors.
        for i in 0..64 {
            if i % 4 != 1 {
                assert_eq!(arr.get_plain(i), 3, "slot {i} finished all rounds");
            }
        }
    }

    #[test]
    fn dead_core_tasks_drain_exactly_once_on_survivors() {
        use crono_runtime::TaskPool;
        let threads = 4;
        let tasks = 256u64;
        // Thread 1 (core 4) dies mid-drain.
        let m = SimMachine::new(SimConfig::tiny(16), threads)
            .fault_plan(FaultPlan::zero(33).with_dead_core(4, 3_000));
        let pool = TaskPool::new(threads, 512, 9);
        for t in 0..tasks {
            assert!(pool.push_plain((t % threads as u64) as usize, t));
        }
        let seen = SharedU64s::new(tasks as usize);
        let outcome = m
            .try_run(|ctx| {
                let mut mine = 0u64;
                while let Some(task) = pool.take(ctx) {
                    seen.fetch_add(ctx, task as usize, 1);
                    mine += 1;
                }
                mine
            })
            .expect("take-loop kernels have no barrier; the dead core exits early");
        assert_eq!(
            outcome.report.faults.cores_lost, 1,
            "{:?}",
            outcome.report.faults
        );
        let counts = seen.to_vec();
        assert!(
            counts.iter().all(|&c| c == 1),
            "every task exactly once, dead deque included: {counts:?}"
        );
        assert_eq!(outcome.per_thread.iter().sum::<u64>(), tasks);
    }

    /// Permanent fault sites armed at `u64::MAX` never activate — the
    /// run must be cycle-identical to a fault-free one (the same
    /// invariance the zero-rate transient plans guarantee).
    #[test]
    fn armed_but_inactive_permanent_faults_are_timing_invisible() {
        // One shared array: both runs touch the same symbolic addresses,
        // so their timings are directly comparable.
        let arr = SharedU32s::new(64);
        let run = |plan: FaultPlan| {
            let m = SimMachine::new(SimConfig::tiny(16), 4).fault_plan(plan);
            let r = m.run(|ctx| permanent_kernel(ctx, &arr)).report;
            (
                r.completion,
                r.energy.router_flit_hops,
                r.faults.total_events(),
            )
        };
        let clean = run(FaultPlan::zero(33));
        let armed = run(FaultPlan::zero(33)
            .with_dead_link(5, LinkDir::East, u64::MAX)
            .with_dead_core(4, u64::MAX)
            .with_dead_dram_ctrl(0, u64::MAX));
        assert_eq!(clean, armed, "armed-never-fired faults change nothing");
        assert_eq!(armed.2, 0, "no events were injected");
    }
}
