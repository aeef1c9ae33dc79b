use crate::{RunReport, ThreadCtx};
use std::time::Duration;

/// The result of one parallel region: each thread's return value plus the
/// backend's [`RunReport`].
#[derive(Debug, Clone)]
pub struct RunOutcome<R> {
    /// `body`'s return value per thread, in thread-id order. Indexing
    /// by thread id is valid except under a permanent disabled-core
    /// fault: a worker that departed mid-run contributes no entry, so
    /// the vector is then shorter than the thread count.
    pub per_thread: Vec<R>,
    /// Timing/characterization report from the backend.
    pub report: RunReport,
}

/// Knobs for a fallible run ([`Machine::try_run_with`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Wall-clock watchdog: when set, a run exceeding this duration is
    /// cancelled — workers observe the cancellation at barrier and
    /// iteration boundaries and drain out — and the run returns
    /// [`RunError::TimedOut`].
    pub timeout: Option<Duration>,
}

/// Why a fallible run failed. Both variants carry the (partial)
/// [`RunReport`]: every worker — including a panicked one, up to its
/// panic point — still contributes its thread report, so the caller can
/// inspect what the surviving threads did.
#[derive(Debug)]
pub enum RunError {
    /// A worker panicked. The panic was contained: the process did not
    /// abort, the other workers drained out of their barriers, and the
    /// machine stays usable for further runs.
    WorkerPanicked {
        /// Thread id of the first panicking worker (by id order).
        tid: usize,
        /// The panic message, when it was a string payload.
        payload: String,
        /// Partial report covering every worker.
        report: Box<RunReport>,
    },
    /// The [`RunOptions::timeout`] watchdog cancelled the run.
    TimedOut {
        /// The configured timeout that expired.
        timeout: Duration,
        /// Partial report covering every worker.
        report: Box<RunReport>,
    },
    /// The backend's interconnect had no legal route for a message — a
    /// permanent dead-link fault the active routing policy cannot avoid
    /// (XY dimension-ordered routing cannot detour). The run was
    /// cancelled cleanly: survivors drained out, no hang.
    Unroutable {
        /// Thread id of the worker whose message was undeliverable.
        tid: usize,
        /// The backend's route-error description.
        detail: String,
        /// Partial report covering every worker.
        report: Box<RunReport>,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::WorkerPanicked { tid, payload, .. } => {
                write!(f, "worker thread {tid} panicked: {payload}")
            }
            RunError::TimedOut { timeout, .. } => {
                write!(f, "run cancelled after exceeding the {timeout:?} timeout")
            }
            RunError::Unroutable { tid, detail, .. } => {
                write!(f, "worker thread {tid}: {detail}")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl RunError {
    /// The partial [`RunReport`] of the failed run.
    pub fn report(&self) -> &RunReport {
        match self {
            RunError::WorkerPanicked { report, .. }
            | RunError::TimedOut { report, .. }
            | RunError::Unroutable { report, .. } => report,
        }
    }
}

/// An execution backend: spawns one [`ThreadCtx`] per thread, runs the
/// parallel region, and reports what happened.
///
/// Two backends exist: [`crate::NativeMachine`] (the paper's real-machine
/// setup, §IV-C) and `crono_sim::SimMachine` (the Graphite-style
/// simulator, §IV-B).
pub trait Machine {
    /// The context type handed to each thread.
    type Ctx: ThreadCtx;

    /// Number of threads a [`Machine::run`] call will spawn.
    fn num_threads(&self) -> usize;

    /// Human-readable backend name for reports.
    fn backend_name(&self) -> &'static str;

    /// Runs `body` once per thread (each with its own context) and
    /// collects the outcome. Blocks until every thread finishes or the
    /// run fails.
    ///
    /// Worker panics are contained — never a process abort or a barrier
    /// deadlock: the panicking worker cancels the run, survivors drain
    /// out at their next barrier/iteration boundary, and the call
    /// returns [`RunError::WorkerPanicked`]. With
    /// [`RunOptions::timeout`] set, a hung kernel is cancelled the same
    /// way and the call returns [`RunError::TimedOut`].
    ///
    /// # Errors
    ///
    /// [`RunError::WorkerPanicked`] when any worker panicked,
    /// [`RunError::TimedOut`] when the watchdog fired first.
    fn try_run_with<F, R>(&self, opts: &RunOptions, body: F) -> Result<RunOutcome<R>, RunError>
    where
        F: Fn(&mut Self::Ctx) -> R + Sync,
        R: Send;

    /// [`Machine::try_run_with`] with default options (no timeout).
    ///
    /// # Errors
    ///
    /// [`RunError::WorkerPanicked`] when any worker panicked.
    fn try_run<F, R>(&self, body: F) -> Result<RunOutcome<R>, RunError>
    where
        F: Fn(&mut Self::Ctx) -> R + Sync,
        R: Send,
    {
        self.try_run_with(&RunOptions::default(), body)
    }

    /// Infallible convenience over [`Machine::try_run`]: the benchmark
    /// kernels call this.
    ///
    /// # Panics
    ///
    /// Panics (with a one-line message, after every worker has been
    /// joined — no deadlock, no abort) if a worker panicked.
    fn run<F, R>(&self, body: F) -> RunOutcome<R>
    where
        F: Fn(&mut Self::Ctx) -> R + Sync,
        R: Send,
    {
        match self.try_run(body) {
            Ok(outcome) => outcome,
            Err(e) => panic!("{e}"),
        }
    }
}
