//! Multi-tenant GEMM service on the shared [`WorkerPool`](crate::WorkerPool).
//!
//! Every other entry point in this crate is *launch-centric*: one
//! caller, one decomposition, one `pool.run(..)` that owns every
//! worker until the grid drains. A serving system sees the opposite
//! shape — streams of small, heterogeneous GEMMs (attention heads,
//! MLP blocks) that must share the worker pool without queueing
//! behind each other's launch barriers. [`GemmService`] is the
//! work-centric answer, the paper's decomposition discipline applied
//! *across* requests:
//!
//! - **Submission** is a bounded queue of [`LaunchRequest`]s. A full
//!   queue rejects with a typed [`AdmissionError`] immediately —
//!   backpressure, never unbounded growth, never a caller blocked in
//!   `submit`.
//! - **Admission** drains the queue into a bounded *active window*
//!   under weighted round-robin over [`Priority`] classes (4:2:1),
//!   so small latency-sensitive requests are not starved behind bulk
//!   work.
//! - **Claiming** sweeps *all* active requests: each carries its own
//!   [`GridCursor`], and an idle thread takes the next CTA from the
//!   first running request that still has unclaimed work.
//! - **Execution** is a direct launch's: the service is one more work
//!   source of the engine's one worker loop (`engine::work`), which
//!   resumes parked consolidations, claims, runs each CTA through the
//!   Algorithm 5 cycle on its request's per-launch state, and blocks —
//!   under the watchdog, owner-side recovery
//!   ([`streamk_core::peer_contribution`]) recomputing lost or poisoned
//!   partials bit-exactly — only once nothing is claimable *anywhere*.
//!   (An owner that blocked with work outstanding would deadlock here:
//!   two workers blocked as owners of *different* requests can each
//!   hold the worker the other's peer needs.)
//! - **Waiting is working.** A caller inside
//!   [`CompletionHandle::wait`] is a free core, so it runs the same
//!   loop as a *guest* until its own request has resolved: the same
//!   claims (admission order — never "my request first"), the same
//!   isolated execution, and it sleeps only when nothing is claimable.
//!   At most as many callers as the pool has workers compute at once;
//!   the rest sleep until their request resolves.
//! - **Isolation**: every CTA executes under `catch_unwind`. A panic
//!   (or an unmaskable protocol failure) fails *that request's*
//!   [`CompletionHandle`] and nothing else — the pool stays up, the
//!   sweep moves on, and subsequent requests run bit-exactly.
//! - **Deadlines** are enforced at CTA-claim granularity: a request
//!   past its deadline stops being claimed and its handle reports
//!   [`ServeError::Timeout`] — never a silent drop. Work already
//!   claimed is left to finish (a fully-claimed request completes
//!   normally even if the deadline passes during its last tiles).
//!
//! Bit-exactness across tenancy is the load-bearing property: a
//! request's result is byte-identical whether it ran alone through
//! [`CpuExecutor::gemm`] or interleaved with arbitrary other
//! requests, faults, and cancellations — peers fold in ascending
//! order per tile, recovery recomputes exact contributions, and the
//! epilogue runs once per tile. The proptest suite in
//! `tests/serve.rs` pins this.
//!
//! The service occupies the pool with one long-running job for its
//! whole lifetime, launched from a coordinator thread — which, being
//! the launching thread, *is* service worker 0: a service on `W`
//! workers is the coordinator plus the pool's `W − 1` helpers, and
//! every helper joins because the launch stays open until the
//! coordinator's own sweep sees the service drained. Waiting callers
//! are not pool workers: they come and go with their `wait`, under
//! worker ids `W..2W`, and the residency check a submission must pass
//! counts the pool's `W` alone. Legacy single-launch calls on the same
//! executor block until [`GemmService::shutdown`] — by design: the
//! pool's launch lock is the tenancy boundary.

use crate::engine::{
    self, splits_a_tile, Deferred, Grid, Instance, Launch, Orientation, Output, Progress, WorkSource, Worker,
};
use crate::executor::{check_residency, check_single, CpuExecutor};
use crate::fault::{FaultPlan, ServeFaultKind};
use crate::output::OwnedTileWriter;
use crate::pool::ScratchStore;
use crate::sched::GridCursor;
use crate::telemetry::{
    IncidentReport, RequestTrace, ServeTrace, ServiceCounter, ServiceEventKind, TelemetryRegistry,
};
use crate::trace::{Recorder, SpanKind, SpareRings, WorkerRings};
use crate::workspace::Workspace;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use streamk_core::{Decomposition, ExecutorError};
use streamk_matrix::{Matrix, Promote, Scalar};

/// Request priority class. Admission is weighted round-robin over
/// classes — High:Normal:Bulk = 4:2:1 — so latency-sensitive requests
/// overtake queued bulk work without ever starving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive (weight 4).
    High,
    /// The default class (weight 2).
    #[default]
    Normal,
    /// Throughput work that tolerates queueing (weight 1).
    Bulk,
}

/// Admission lanes indexed by [`Priority::lane`].
const LANES: usize = 3;

/// The weighted round-robin admission pattern: 4×High, 2×Normal,
/// 1×Bulk per cycle, spread so no class waits a whole burst.
const ADMIT_PATTERN: [usize; 7] = [0, 1, 0, 2, 0, 1, 0];

impl Priority {
    /// All classes, High first.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Bulk];

    /// This class's admission-lane index — the position its depth
    /// gauge and latency histogram render under in the telemetry
    /// registry's `LANE_NAMES`.
    #[must_use]
    pub fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Bulk => 2,
        }
    }

    /// Short stable name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Bulk => "bulk",
        }
    }
}

/// Service tuning: queue and window bounds.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Maximum *queued* (admitted-but-not-started) requests across
    /// all priority classes; submissions beyond this are rejected
    /// with [`AdmissionError::QueueFull`].
    pub capacity: usize,
    /// Maximum concurrently *active* (claiming) requests. A small
    /// window keeps per-request cache locality; a large one smooths
    /// tail latency under mixed sizes.
    pub window: usize,
    /// Record a per-request span timeline for every request (queue
    /// wait, CTA, MAC, private packing, fixup, recovery), harvested on
    /// completion via [`GemmService::take_trace`]. Off by default: when
    /// off, no span ring is allocated and every recording site is a
    /// `None` check.
    pub trace: bool,
    /// Span-ring capacity (spans) of each worker that records for a
    /// request when [`trace`](Self::trace) is on — a request keeps one
    /// ring per worker id, drawn from the service's spare rings (or
    /// allocated) when that worker first records for it; full rings
    /// drop their oldest span, exactly like a launch's.
    pub trace_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { capacity: 64, window: 4, trace: false, trace_capacity: 2048 }
    }
}

impl ServeConfig {
    /// Sets the pending-queue capacity.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the active-window size.
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Enables or disables per-request span tracing.
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the per-request span-ring capacity.
    #[must_use]
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }
}

/// One GEMM submission: operands, decomposition, and service options.
#[derive(Clone)]
pub struct LaunchRequest<In> {
    a: Matrix<In>,
    b: Matrix<In>,
    decomp: Decomposition,
    priority: Priority,
    deadline: Option<Duration>,
    cta_faults: FaultPlan,
    serve_fault: Option<ServeFaultKind>,
}

impl<In> LaunchRequest<In> {
    /// A request computing `C = A · B` under `decomp`, at
    /// [`Priority::Normal`] with no deadline. Every request runs the
    /// kernel of the executor the service was started on.
    #[must_use]
    pub fn new(a: Matrix<In>, b: Matrix<In>, decomp: Decomposition) -> Self {
        Self {
            a,
            b,
            decomp,
            priority: Priority::Normal,
            deadline: None,
            cta_faults: FaultPlan::none(),
            serve_fault: None,
        }
    }

    /// Sets the priority class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets a deadline relative to submission. Past the deadline the
    /// request stops being claimed and its handle reports
    /// [`ServeError::Timeout`].
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Injects per-CTA consolidation faults into this request (the
    /// single-launch [`FaultPlan`] model). Recovery masks them; the
    /// request must still complete bit-exactly.
    #[must_use]
    pub fn with_cta_faults(mut self, plan: FaultPlan) -> Self {
        self.cta_faults = plan;
        self
    }

    /// Injects a service-level fault into this request.
    #[must_use]
    pub fn with_serve_fault(mut self, kind: ServeFaultKind) -> Self {
        self.serve_fault = Some(kind);
        self
    }
}

/// Why a submission was refused. Admission errors are synchronous:
/// the request never entered the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The pending queue is at capacity — backpressure. Retry later
    /// or shed load; the service never buffers unboundedly.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
    /// The request failed structural validation (shape mismatch,
    /// invalid decomposition, or a fixup structure needing more
    /// co-resident CTAs than the pool has workers).
    Rejected(
        /// The underlying validation error.
        ExecutorError,
    ),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "submission queue full ({capacity} pending)")
            }
            AdmissionError::ShuttingDown => write!(f, "service is shutting down"),
            AdmissionError::Rejected(e) => write!(f, "request rejected: {e}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Why an *admitted* request failed. Every admitted request resolves
/// its handle exactly once — with a result or with one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The deadline passed before the request's grid was fully
    /// claimed; remaining work was cancelled at claim granularity.
    Timeout {
        /// The deadline the request was submitted with.
        deadline: Duration,
    },
    /// The request was cancelled via [`CompletionHandle::cancel`] (or
    /// an injected [`ServeFaultKind::Cancel`]).
    Cancelled,
    /// A worker panicked while executing one of this request's CTAs.
    /// Only this request fails; the pool and all other requests are
    /// unaffected.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The fixup protocol failed in a way recovery could not mask.
    Failed(
        /// The underlying executor error.
        ExecutorError,
    ),
    /// The service's coordinator died (a bug-level backstop — worker
    /// panics are caught per CTA and never reach this).
    ServiceDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Timeout { deadline } => {
                write!(f, "deadline of {deadline:?} expired before completion")
            }
            ServeError::Cancelled => write!(f, "request cancelled"),
            ServeError::Panicked { message } => write!(f, "worker panic: {message}"),
            ServeError::Failed(e) => write!(f, "execution failed: {e}"),
            ServeError::ServiceDown => write!(f, "service coordinator died"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Per-request execution statistics, reported on the request's own
/// [`CompletionHandle`] — never aggregated into (or clobbering) the
/// shared executor's [`ExecStats`](crate::ExecStats), which remains
/// the single-launch view.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestStats {
    /// CTAs of this request claimed and executed (a CTA that failed
    /// or panicked mid-body still counts — it ran).
    pub ctas: usize,
    /// Owner consolidations parked cooperatively.
    pub deferrals: usize,
    /// Peer contributions recomputed by owner-side recovery.
    pub recoveries: usize,
    /// Total time this request's owners spent blocked in fixup waits.
    pub wait_stall: Duration,
    /// Submission → first CTA claim.
    pub queued: Duration,
    /// First CTA claim → completion.
    pub service: Duration,
    /// Submission → completion (queued + service).
    pub latency: Duration,
    /// Global start order (first-claim sequence number) — `u64::MAX`
    /// if the request never started.
    pub start_seq: u64,
}

/// Service-level counters, snapshot via [`GemmService::stats`] (also
/// returned by [`GemmService::shutdown`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub submitted: usize,
    /// Submissions refused (queue full, shutdown, or invalid).
    pub rejected: usize,
    /// Requests completed with a result.
    pub completed: usize,
    /// Requests that missed their deadline.
    pub timed_out: usize,
    /// Requests cancelled.
    pub cancelled: usize,
    /// Requests failed by a worker panic (isolated to the request).
    pub panicked: usize,
    /// Requests failed by an unmaskable protocol error.
    pub failed: usize,
    /// Pool-level poisonings: the coordinator's backstop caught a
    /// panic that escaped per-CTA isolation. Always 0 unless there is
    /// a bug in the serve loop itself — CI asserts on it.
    pub pool_poisonings: usize,
    /// CTAs claimed and executed across all requests (live: counted
    /// at claim time).
    pub ctas: usize,
    /// Of [`ctas`](Self::ctas), those executed by a caller inside
    /// [`CompletionHandle::wait`] rather than by a pool worker.
    pub guest_ctas: usize,
    /// Cross-request claims — a worker took work from a request other
    /// than the sweep head, the serve analogue of single-launch range
    /// stealing (live: counted at claim time).
    pub steals: usize,
    /// Owner consolidations parked cooperatively, summed over every
    /// resolved request.
    pub deferrals: usize,
    /// Peer contributions recomputed by recovery, summed over every
    /// resolved request.
    pub recoveries: usize,
    /// Total owner fixup-wait stall, summed over every resolved
    /// request.
    pub wait_stall: Duration,
}

// ---------------------------------------------------------------------------
// Request lifecycle
// ---------------------------------------------------------------------------

/// Request states. Transitions go through compare-and-swap, so
/// exactly one thread wins the move into a terminal state and
/// resolves the handle.
const QUEUED: u8 = 0;
const RUNNING: u8 = 1;
const DONE: u8 = 2;
const CANCELLED: u8 = 3;
const TIMED_OUT: u8 = 4;
const PANICKED: u8 = 5;
const FAILED: u8 = 6;

type Outcome<Acc> = Result<(Matrix<Acc>, RequestStats), ServeError>;

struct RequestCell<In, Acc> {
    id: u64,
    priority: Priority,
    a: Matrix<In>,
    b: Matrix<In>,
    decomp: Decomposition,
    /// The engine's per-launch state for the request's whole life,
    /// built as a direct launch's is (span rings only under
    /// `ServeConfig::trace`). The transition into any terminal state
    /// kills it, so workers stop spending cycles on the request.
    launch: Launch<In, Acc>,
    out: OwnedTileWriter<Acc>,
    /// Which way round the request runs; `out` is tiled accordingly.
    orientation: Orientation,
    cursor: GridCursor,
    tiles_done: AtomicUsize,
    total_tiles: usize,
    tile_len: usize,
    state: AtomicU8,
    submitted_at: Instant,
    /// Earliest admission time (submission-time straggler injection).
    admit_at: Instant,
    deadline: Option<(Instant, Duration)>,
    /// Injected mid-flight cancellation: cancel when this claim index
    /// comes up.
    cancel_at_claim: Option<usize>,
    /// Injected panic: the worker executing this CTA panics.
    panic_at_cta: Option<usize>,
    started: Mutex<Option<(Instant, u64)>>,
    ctas_run: AtomicUsize,
    outcome: Mutex<Option<Outcome<Acc>>>,
    done_cv: Condvar,
}

impl<In, Acc: Scalar> RequestCell<In, Acc> {
    fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    fn transition(&self, from: u8, to: u8) -> bool {
        let won = self.state.compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire).is_ok();
        if won && to >= DONE {
            self.launch.kill();
        }
        won
    }

    /// Records the first-claim instant; `true` only for the call that
    /// actually started the request (queue wait ends here).
    fn mark_started(&self, now: Instant, seq: &AtomicU64) -> bool {
        let mut slot = self.started.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some((now, seq.fetch_add(1, Ordering::Relaxed)));
            return true;
        }
        false
    }

    /// What the request's span rings hold, drained, as its track of
    /// the service trace; `None` for an untraced request.
    fn drain_trace(&self) -> Option<RequestTrace> {
        let (id, lane) = (self.id, self.priority.lane());
        let trace = self.launch.spans()?.drain();
        Some(RequestTrace { id, lane, spans: trace.spans, dropped: trace.dropped })
    }

    fn stats_snapshot(&self, now: Instant) -> RequestStats {
        let started = *self.started.lock().unwrap_or_else(PoisonError::into_inner);
        let (queued, service, start_seq) = match started {
            Some((t, seq)) => {
                (t.saturating_duration_since(self.submitted_at), now.saturating_duration_since(t), seq)
            }
            None => (now.saturating_duration_since(self.submitted_at), Duration::ZERO, u64::MAX),
        };
        RequestStats {
            ctas: self.ctas_run.load(Ordering::Relaxed),
            deferrals: self.launch.deferrals(),
            recoveries: self.launch.recoveries(),
            wait_stall: self.launch.wait_stall(),
            queued,
            service,
            latency: now.saturating_duration_since(self.submitted_at),
            start_seq,
        }
    }

    /// Resolves the handle exactly once (later calls are no-ops; the
    /// state CAS discipline means they don't happen in practice).
    fn complete(&self, result: Result<Matrix<Acc>, ServeError>) {
        let stats = self.stats_snapshot(Instant::now());
        let outcome = result.map(|c| (c, stats));
        let mut slot = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(outcome);
            self.done_cv.notify_all();
        }
    }

    /// `true` once the handle holds its outcome: later than the
    /// terminal CAS, which kills the launch first; the outcome comes
    /// when the winner has booked it.
    fn is_resolved(&self) -> bool {
        self.launch.is_dead() && self.outcome.lock().unwrap_or_else(PoisonError::into_inner).is_some()
    }

    /// Sleeps until the handle is resolved and returns its slot.
    /// `complete` is reached with the queue lock held (deadlines and
    /// injected cancellations fire inside the sweep), so the lock order
    /// is queue → outcome: never claim while holding this guard.
    fn resolved_slot(&self) -> MutexGuard<'_, Option<Outcome<Acc>>> {
        let mut slot = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        while slot.is_none() {
            slot = self.done_cv.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
        slot
    }
}

impl<In: Promote<Acc>, Acc: Scalar> RequestCell<In, Acc> {
    /// Runs `f` on worker `wid`'s view of the request as the engine
    /// sees it, recording into `rec`: a grid of one instance, stored
    /// unscaled into the request's own buffer.
    fn with_worker<R>(&self, wid: usize, rec: &Recorder<'_>, f: impl FnOnce(Worker<'_, In, Acc>) -> R) -> R {
        let window = Output::Window(self.out.writer());
        let instance = [Instance::new(self.orientation, self.a.view(), self.b.view(), window, 0)];
        let grid = Grid { ctas: self.decomp.ctas(), instances: &instance, alpha: Acc::ONE, beta: Acc::ZERO };
        f(Worker { launch: &self.launch, grid: &grid, wid, rec })
    }
}

/// The caller's end of one submission: await, inspect, or cancel.
///
/// Dropping the handle does *not* cancel the request — it runs to a
/// terminal state regardless (results are simply discarded).
pub struct CompletionHandle<In, Acc> {
    cell: Arc<RequestCell<In, Acc>>,
    shared: Arc<ServeShared<In, Acc>>,
}

impl<In, Acc: Scalar> fmt::Debug for CompletionHandle<In, Acc> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompletionHandle")
            .field("id", &self.cell.id)
            .field("priority", &self.cell.priority)
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl<In, Acc: Scalar> CompletionHandle<In, Acc> {
    /// The service-assigned request id (submission order).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.cell.id
    }

    /// The request's priority class.
    #[must_use]
    pub fn priority(&self) -> Priority {
        self.cell.priority
    }

    /// `true` once the request reached a terminal state.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.cell.launch.is_dead()
    }

    /// A racy snapshot of the request's execution statistics (final
    /// once [`is_finished`](Self::is_finished)).
    #[must_use]
    pub fn stats(&self) -> RequestStats {
        self.cell.stats_snapshot(Instant::now())
    }

    /// Cancels the request. Queued requests never start; running
    /// requests stop being claimed (work already claimed finishes and
    /// is discarded). Returns `true` if this call performed the
    /// cancellation, `false` if the request already reached a
    /// terminal state.
    pub fn cancel(&self) -> bool {
        let won =
            self.cell.transition(QUEUED, CANCELLED) || self.cell.transition(RUNNING, CANCELLED);
        if won {
            self.shared.resolve(&self.cell, CANCELLED, Err(ServeError::Cancelled));
        }
        won
    }
}

impl<In: Promote<Acc>, Acc: Scalar> CompletionHandle<In, Acc> {
    /// Waits until the request resolves, returning the output matrix
    /// and its per-request statistics, or the typed failure.
    ///
    /// The wait **computes**: a blocked caller is a free core, so until
    /// its request resolves the calling thread runs the engine's worker
    /// loop as a guest of the service — the same sweep (admission order,
    /// not "my request first"), the same isolated CTA execution — and
    /// sleeps only when nothing is claimable. At most
    /// [`workers`](GemmService::workers) callers compute at a time; one
    /// more simply sleeps until its request resolves.
    ///
    /// Two consequences. `wait` may return up to one CTA *after* the
    /// request resolved — or later still if the caller has parked a
    /// split tile's consolidation, which it sees through before it
    /// leaves; [`RequestStats::latency`] is taken at resolution and
    /// does not include that. And a panic in a CTA the caller happens
    /// to run, of any request, is caught there like on a pool worker:
    /// it fails *that* request's handle, and this call still returns
    /// its own request's outcome — it never unwinds.
    pub fn wait(self) -> Outcome<Acc> {
        let (cell, shared) = (&self.cell, &self.shared);
        let lock = || shared.guests.lock().unwrap_or_else(PoisonError::into_inner);
        if !cell.is_resolved() {
            let workers = shared.executor.threads();
            let slot = lock().take(workers);
            if let Some((slot, mut scratch)) = slot {
                let guest = Sweep { shared, wid: workers + slot, guest: Some(cell) };
                // A request's errors are settled on its handle.
                let _ = engine::work(&guest, &mut scratch);
                lock().free.push((slot, scratch));
            }
        }
        cell.resolved_slot().take().expect("resolved_slot returns a resolved handle")
    }
}

// ---------------------------------------------------------------------------
// Shared service state
// ---------------------------------------------------------------------------

/// Derives the programmatic stats snapshot from the telemetry
/// registry — the single source of truth, so a Prometheus scrape
/// ([`TelemetryRegistry::render`]) and [`GemmService::stats`] can
/// never disagree.
fn stats_from_registry(t: &TelemetryRegistry) -> ServiceStats {
    let g = |c: ServiceCounter| t.get(c) as usize;
    ServiceStats {
        submitted: g(ServiceCounter::Submitted),
        rejected: g(ServiceCounter::Rejected),
        completed: g(ServiceCounter::Completed),
        timed_out: g(ServiceCounter::TimedOut),
        cancelled: g(ServiceCounter::Cancelled),
        panicked: g(ServiceCounter::Panicked),
        failed: g(ServiceCounter::Failed),
        pool_poisonings: g(ServiceCounter::PoolPoisonings),
        ctas: g(ServiceCounter::Ctas),
        guest_ctas: g(ServiceCounter::GuestCtas),
        steals: g(ServiceCounter::Steals),
        deferrals: g(ServiceCounter::Deferrals),
        recoveries: g(ServiceCounter::Recoveries),
        wait_stall: Duration::from_nanos(t.get(ServiceCounter::WaitStallNs)),
    }
}

struct QueueState<In, Acc> {
    accepting: bool,
    pending: [VecDeque<Arc<RequestCell<In, Acc>>>; LANES],
    pending_len: usize,
    /// Admitted requests, in admission order. Claiming sweeps this
    /// front-to-back, so admission order is claim priority.
    active: Vec<Arc<RequestCell<In, Acc>>>,
    /// Position in [`ADMIT_PATTERN`] for weighted round-robin.
    admit_clock: usize,
}

struct ServeShared<In, Acc> {
    capacity: usize,
    window: usize,
    /// A clone of the executor the service was started on: its pool,
    /// its worker count, and what every request's launch is built
    /// with.
    executor: CpuExecutor,
    /// Per-request span tracing on/off + ring sizing.
    trace: bool,
    trace_capacity: usize,
    /// Span rings of finished traced requests, for the next ones.
    spare_rings: SpareRings,
    queue: Mutex<QueueState<In, Acc>>,
    /// Workers park here when nothing is claimable; submission,
    /// completion, and cancellation notify it.
    work_cv: Condvar,
    guests: Mutex<GuestSlots>,
    start_seq: AtomicU64,
    next_id: AtomicU64,
    telemetry: Arc<TelemetryRegistry>,
}

/// What callers compute with while they wait on a handle: one
/// [`ScratchStore`] per guest of the serve loop, like a pool worker's.
/// A slot is created the first time a caller needs one no free slot
/// covers — never more slots than the pool has workers, so at most
/// `2 × workers` threads ever compute — and is handed back, warm, when
/// its caller leaves. Slot `s` runs under worker id `workers + s`;
/// anything indexed by worker id takes it modulo its own size.
#[derive(Default)]
struct GuestSlots {
    free: Vec<(usize, ScratchStore)>,
    created: usize,
}

impl GuestSlots {
    /// A free slot, or a new one while fewer than `limit` exist.
    fn take(&mut self, limit: usize) -> Option<(usize, ScratchStore)> {
        self.free.pop().or_else(|| {
            let slot = self.created;
            (slot < limit).then(|| {
                self.created += 1;
                (slot, ScratchStore::new())
            })
        })
    }
}

/// How long an idle worker parks between queue polls. Bounds the
/// latency of time-driven transitions (admission delays expiring,
/// deadlines firing) when no submission wakes the pool sooner.
const IDLE_PARK: Duration = Duration::from_millis(1);

impl<In, Acc: Scalar> ServeShared<In, Acc> {
    /// Post-CAS bookkeeping for a request reaching terminal state
    /// `to` — the single funnel every terminal transition goes
    /// through. Counts the outcome, folds the request's deferral/
    /// recovery/wait-stall counters into the service aggregates,
    /// records the per-lane latency, emits the flight-recorder event,
    /// fires an incident dump on anomalies (timeout, panic,
    /// unmaskable failure), harvests the request's span timeline, and
    /// resolves the handle. The caller must have *won* the CAS into
    /// `to`, and the queue must no longer hold the request: the sweep
    /// removes the entry it is standing on, every other site goes
    /// through [`resolve`](Self::resolve).
    fn finish(
        &self,
        cell: &Arc<RequestCell<In, Acc>>,
        to: u8,
        result: Result<Matrix<Acc>, ServeError>,
    ) {
        let lane = cell.priority.lane();
        let t = &self.telemetry;
        let (counter, event, anomaly) = match to {
            DONE => (ServiceCounter::Completed, ServiceEventKind::Completed, None),
            CANCELLED => (ServiceCounter::Cancelled, ServiceEventKind::Cancelled, None),
            TIMED_OUT => (ServiceCounter::TimedOut, ServiceEventKind::TimedOut, Some("timeout")),
            PANICKED => (ServiceCounter::Panicked, ServiceEventKind::Panicked, Some("panic")),
            _ => (ServiceCounter::Failed, ServiceEventKind::Failed, Some("failure")),
        };
        t.inc(counter);
        // Per-request counters fold in exactly once, at resolution —
        // increments racing past this point (a straggling claimed CTA
        // of a timed-out request) are deliberately not chased.
        t.add(ServiceCounter::Deferrals, cell.launch.deferrals() as u64);
        t.add(ServiceCounter::Recoveries, cell.launch.recoveries() as u64);
        t.add(ServiceCounter::WaitStallNs, cell.launch.wait_stall().as_nanos() as u64);
        t.record_latency(lane, cell.submitted_at.elapsed().as_nanos() as u64);
        t.flight().record(event, cell.id, lane, 0);
        let trace = cell.drain_trace();
        if let Some(reason) = anomaly {
            t.incident(reason, cell.id, lane, trace.as_ref().map_or_else(Vec::new, |t| t.spans.clone()));
        }
        if let Some(trace) = trace {
            t.harvest_trace(trace);
        }
        cell.complete(result);
        self.work_cv.notify_all();
    }

    /// A terminal transition made without the queue lock — a settled
    /// CTA, [`CompletionHandle::cancel`]: retire at resolution. The
    /// request leaves the queue, and the slot it frees is admitted,
    /// *before* its handle resolves, so by the time a caller can see an
    /// outcome the service holds no reference to that request's
    /// operands, and a freed window slot never waits for the next
    /// sweep.
    fn resolve(
        &self,
        cell: &Arc<RequestCell<In, Acc>>,
        to: u8,
        result: Result<Matrix<Acc>, ServeError>,
    ) {
        {
            let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            let same = |c: &Arc<RequestCell<In, Acc>>| Arc::ptr_eq(c, cell);
            let lane = cell.priority.lane();
            if let Some(i) = q.active.iter().position(same) {
                q.active.remove(i);
            } else if let Some(i) = q.pending[lane].iter().position(same) {
                // Cancelled while still queued.
                q.pending[lane].remove(i);
                q.pending_len -= 1;
            }
            self.admit(&mut q, Instant::now());
        }
        self.finish(cell, to, result);
    }

    /// Books what one engine call, run under `catch_unwind`, did for
    /// `cell`: tiles stored count toward completion — the `AcqRel`
    /// counter gives the finalizer happens-before with every store,
    /// the state CAS elects exactly one finalizer, and the owned
    /// buffer becomes the caller's output matrix without a copy — a
    /// protocol failure recovery could not mask fails the request, and
    /// so does a panic: this request's handle, nothing else.
    fn settle(&self, cell: &Arc<RequestCell<In, Acc>>, outcome: std::thread::Result<Result<usize, ExecutorError>>) {
        match outcome {
            Ok(Ok(0)) => {}
            Ok(Ok(stored)) => {
                let done = cell.tiles_done.fetch_add(stored, Ordering::AcqRel) + stored;
                if done == cell.total_tiles && cell.transition(RUNNING, DONE) {
                    self.resolve(cell, DONE, Ok(cell.orientation.restore(cell.out.take())));
                }
            }
            Ok(Err(e)) => {
                if cell.transition(RUNNING, FAILED) {
                    self.resolve(cell, FAILED, Err(ServeError::Failed(e)));
                }
            }
            Err(payload) => {
                if cell.transition(RUNNING, PANICKED) {
                    let message = panic_message(payload.as_ref());
                    self.resolve(cell, PANICKED, Err(ServeError::Panicked { message }));
                }
            }
        }
        // A straggling CTA or resumption of a dead request returns its
        // ring after the resolution drained the request's rings: the
        // leftovers become a same-id fragment, which
        // `TelemetryRegistry::take_trace` merges back into its track.
        let remnant = if cell.launch.is_dead() { cell.drain_trace() } else { None };
        if let Some(trace) = remnant.filter(|t| !t.spans.is_empty() || t.dropped > 0) {
            self.telemetry.harvest_trace(trace);
        }
    }

    /// Publishes the queue-depth gauges from the current queue state.
    fn publish_depths(&self, q: &QueueState<In, Acc>) {
        for lane in 0..LANES {
            self.telemetry.set_lane_depth(lane, q.pending[lane].len());
        }
        self.telemetry.set_active_depth(q.active.len());
    }

    /// Admits pending requests into the active window: weighted
    /// round-robin over priority lanes, FIFO within a lane, skipping
    /// lanes whose head is not yet admissible (injected admission
    /// delay) and resolving queued requests that died in the queue.
    fn admit(&self, q: &mut QueueState<In, Acc>, now: Instant) {
        while q.active.len() < self.window && q.pending_len > 0 {
            let mut chosen = None;
            for step in 0..ADMIT_PATTERN.len() {
                let lane = ADMIT_PATTERN[(q.admit_clock + step) % ADMIT_PATTERN.len()];
                // Resolve dead or expired heads first: cancelled
                // while queued (handle already resolved) or past
                // deadline before ever starting.
                while let Some(head) = q.pending[lane].front() {
                    if head.state() != QUEUED {
                        q.pending[lane].pop_front();
                        q.pending_len -= 1;
                        continue;
                    }
                    if let Some((at, budget)) = head.deadline {
                        if now >= at {
                            if head.transition(QUEUED, TIMED_OUT) {
                                self.finish(head, TIMED_OUT, Err(ServeError::Timeout { deadline: budget }));
                            }
                            q.pending[lane].pop_front();
                            q.pending_len -= 1;
                            continue;
                        }
                    }
                    break;
                }
                let Some(head) = q.pending[lane].front() else { continue };
                if head.admit_at > now {
                    // The lane's head straggles; FIFO within the lane
                    // means the whole lane waits, other lanes don't.
                    continue;
                }
                chosen = Some((lane, step));
                break;
            }
            let Some((lane, step)) = chosen else { break };
            q.admit_clock = (q.admit_clock + step + 1) % ADMIT_PATTERN.len();
            let cell = q.pending[lane].pop_front().expect("chosen lane has a head");
            q.pending_len -= 1;
            if cell.transition(QUEUED, RUNNING) {
                self.telemetry.count_admission(lane);
                self.telemetry.flight().record(ServiceEventKind::Admitted, cell.id, lane, 0);
                q.active.push(cell);
            }
        }
        self.publish_depths(q);
    }

    /// One claim attempt: admit, sweep the active list in admission
    /// order, fire deadlines, and hand out the next CTA.
    fn claim_next(&self) -> Option<SweepUnit<In, Acc>> {
        let now = Instant::now();
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        self.admit(&mut q, now);
        let mut i = 0;
        while i < q.active.len() {
            let cell = &q.active[i];
            if cell.state() != RUNNING {
                // Won its terminal CAS a moment ago and is on its way
                // to `resolve`, which wants this lock: drop it from
                // the window here, freeing an admission slot.
                q.active.remove(i);
                self.admit(&mut q, now);
                continue;
            }
            // Deadline enforcement at claim granularity: only while
            // unclaimed work remains — a fully-claimed request is
            // left to finish.
            let expired = cell.deadline.is_some_and(|(at, _)| now >= at);
            if expired && !cell.cursor.exhausted() {
                let budget = cell.deadline.expect("expired implies a deadline").1;
                if cell.transition(RUNNING, TIMED_OUT) {
                    self.finish(cell, TIMED_OUT, Err(ServeError::Timeout { deadline: budget }));
                }
                q.active.remove(i);
                self.admit(&mut q, now);
                continue;
            }
            if let Some(id) = cell.cursor.claim() {
                if cell.cancel_at_claim == Some(id) {
                    // Injected mid-flight cancellation, at exactly the
                    // claim granularity real cancellation uses.
                    if cell.transition(RUNNING, CANCELLED) {
                        self.finish(cell, CANCELLED, Err(ServeError::Cancelled));
                    }
                    q.active.remove(i);
                    self.admit(&mut q, now);
                    continue;
                }
                let started = cell.mark_started(now, &self.start_seq);
                if started {
                    self.telemetry.flight().record(ServiceEventKind::Started, cell.id, cell.priority.lane(), id as u64);
                }
                if i > 0 {
                    // The sweep passed i exhausted-or-dead requests to
                    // find this one: a cross-request claim, the serve
                    // layer's work-conservation steal.
                    self.telemetry.inc(ServiceCounter::Steals);
                }
                return Some((Arc::clone(cell), id, started.then_some(now)));
            }
            // Fully claimed but tiles still in flight elsewhere: keep
            // it in the window until it resolves.
            i += 1;
        }
        None
    }

    /// Fails every queued and active request — the coordinator's
    /// backstop when a panic escapes per-CTA isolation.
    fn fail_all(&self) {
        let mut guard = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        guard.accepting = false;
        let q = &mut *guard;
        let drained: Vec<Arc<RequestCell<In, Acc>>> =
            q.pending.iter_mut().flat_map(std::mem::take).chain(q.active.drain(..)).collect();
        q.pending_len = 0;
        self.publish_depths(q);
        drop(guard);
        for cell in drained {
            if cell.transition(QUEUED, FAILED) || cell.transition(RUNNING, FAILED) {
                self.finish(&cell, FAILED, Err(ServeError::ServiceDown));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The admission window as a work source
// ---------------------------------------------------------------------------

/// A claimed CTA of a running request, and when it was claimed if that
/// claim started the request (its queue wait ends there).
type SweepUnit<In, Acc> = (Arc<RequestCell<In, Acc>>, usize, Option<Instant>);

/// The admission window as thread `wid`'s work source: a pool
/// worker's, or — `guest` set — a caller's inside
/// [`CompletionHandle::wait`] on that request. Each claimed CTA and
/// each resumption runs under `catch_unwind` and is then settled
/// ([`ServeShared::settle`]): a panic or an unmaskable protocol failure
/// fails *that* request's handle and the thread goes on. A pool worker
/// leaves once the service is drained; a guest once its request has
/// resolved and it holds nothing parked, so it never walks away with a
/// tile only it can finish. An idle worker sleeps on `work_cv` (bounded
/// by [`IDLE_PARK`], which fires time-driven transitions), a guest on
/// its request's `done_cv`: by then the request is in the hands of
/// threads that are awake, or queued for the pool's workers.
struct Sweep<'a, In, Acc> {
    shared: &'a ServeShared<In, Acc>,
    wid: usize,
    guest: Option<&'a RequestCell<In, Acc>>,
}

impl<In: Promote<Acc>, Acc: Scalar> WorkSource<In, Acc> for Sweep<'_, In, Acc> {
    type Handle = Arc<RequestCell<In, Acc>>;
    type Unit = SweepUnit<In, Acc>;

    fn claim(&self) -> Option<Self::Unit> {
        self.shared.claim_next()
    }

    fn run(
        &self,
        (cell, id, started): Self::Unit,
        ws: &mut Workspace<In, Acc>,
        parked: &mut Vec<(Self::Handle, Deferred<Acc>)>,
    ) -> Result<(), ExecutorError> {
        // Sized per claim: requests differ in tile shape.
        ws.ensure_tile_len(cell.tile_len);
        // Counted before the body runs: every peer's claim happens-before
        // the signals the owner consumes, and the request completes only
        // after the owner's body, so counting at claim time is the only
        // order under which the completion-time stats snapshot cannot
        // miss a straggling increment.
        cell.ctas_run.fetch_add(1, Ordering::Relaxed);
        self.shared.telemetry.inc(ServiceCounter::Ctas);
        if self.guest.is_some() {
            self.shared.telemetry.inc(ServiceCounter::GuestCtas);
        }
        let rec = cell.launch.recorder(self.wid);
        if let Some(started) = started {
            // Queue wait is a first-class phase: submission → first
            // claim, one span per request.
            rec.record(SpanKind::QueueWait, cell.submitted_at, started, cell.priority.lane() as u32, cell.id as u32);
        }
        let t0 = rec.start();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if cell.panic_at_cta == Some(id) {
                panic!("injected serve fault: panic in CTA {id} of request {}", cell.id);
            }
            let unit = &cell.decomp.ctas()[id];
            cell.with_worker(self.wid, &rec, |worker| worker.run_unit(unit, ws, |d| parked.push((Arc::clone(&cell), d))))
        }));
        rec.finish(SpanKind::Cta, t0, id as u32, self.wid as u32);
        // The ring goes back before settling, so a drain at resolution
        // holds this CTA's spans.
        drop(rec);
        self.shared.settle(&cell, outcome);
        Ok(())
    }

    /// Settles the request once the consolidation is no longer parked.
    fn resume(
        &self,
        cell: &Self::Handle,
        d: &mut Deferred<Acc>,
        ws: &mut Workspace<In, Acc>,
        block: bool,
    ) -> Result<Progress, ExecutorError> {
        ws.ensure_tile_len(cell.tile_len);
        let rec = cell.launch.recorder(self.wid);
        let outcome = catch_unwind(AssertUnwindSafe(|| cell.with_worker(self.wid, &rec, |w| w.resume(d, ws, block))));
        drop(rec);
        if matches!(outcome, Ok(Ok(Progress::Parked))) {
            return Ok(Progress::Parked);
        }
        self.shared.settle(cell, outcome.map(|r| r.map(|progress| usize::from(progress == Progress::Done))));
        Ok(Progress::Done)
    }

    fn done(&self) -> bool {
        self.guest.is_some_and(RequestCell::is_resolved)
    }

    fn idle(&self) -> bool {
        let Some(cell) = self.guest else {
            let q = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            // Drained: told to shut down, and every request resolved.
            // Requests retire at resolution, so this can be observed
            // while a straggling CTA of a dead request still runs on
            // another thread; that thread holds its own `Arc`s, the pool
            // joins it regardless, and nothing it does is claimable.
            if !q.accepting && q.pending_len == 0 && q.active.is_empty() {
                return false;
            }
            drop(self.shared.work_cv.wait_timeout(q, IDLE_PARK).unwrap_or_else(PoisonError::into_inner));
            return true;
        };
        // Not resolved a moment ago, and nothing to do for anyone: sleep
        // until it is. (Even once drained: its finisher has retired it
        // and is about to resolve it.)
        drop(cell.resolved_slot());
        true
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// A multi-tenant GEMM service over a [`CpuExecutor`]'s worker pool.
///
/// See the module docs for the architecture. The service holds the
/// pool's launch slot from [`start`](Self::start) until
/// [`shutdown`](Self::shutdown) (or drop); the executor handed in
/// stays usable afterwards with its pool and warm per-worker arenas
/// intact — a panic inside a request never rebuilds the pool.
pub struct GemmService<In, Acc> {
    shared: Arc<ServeShared<In, Acc>>,
    coordinator: Option<JoinHandle<()>>,
}

impl<In, Acc> GemmService<In, Acc>
where
    In: Promote<Acc>,
    Acc: Scalar,
{
    /// Starts the service on `executor`'s pool (spawning the pool if
    /// this executor never launched). Kernel choice and watchdog come
    /// from the executor's configuration.
    #[must_use]
    pub fn start(executor: &CpuExecutor, config: ServeConfig) -> Self {
        let shared = Arc::new(ServeShared {
            capacity: config.capacity.max(1),
            window: config.window.max(1),
            executor: executor.clone(),
            trace: config.trace,
            trace_capacity: config.trace_capacity.max(16),
            spare_rings: SpareRings::default(),
            queue: Mutex::new(QueueState {
                accepting: true,
                pending: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                pending_len: 0,
                active: Vec::new(),
                admit_clock: 0,
            }),
            work_cv: Condvar::new(),
            guests: Mutex::default(),
            start_seq: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            telemetry: Arc::new(TelemetryRegistry::new()),
        });
        let shared_for_pool = Arc::clone(&shared);
        let coordinator = std::thread::spawn(move || {
            let job = |wid: usize, scratch: &mut ScratchStore| {
                let _ = engine::work(&Sweep { shared: &shared_for_pool, wid, guest: None }, scratch);
            };
            // This thread launches, so it serves as worker 0 until the
            // service drains. Per-CTA catch_unwind means no panic
            // should reach the pool; this catch is the backstop that
            // keeps the coordinator from dying silently if one does.
            let pool = shared_for_pool.executor.worker_pool();
            if catch_unwind(AssertUnwindSafe(|| pool.run(&job))).is_err() {
                let t = &shared_for_pool.telemetry;
                t.inc(ServiceCounter::PoolPoisonings);
                t.flight().record(ServiceEventKind::Poisoned, u64::MAX, 0, 0);
                t.incident("pool_poisoning", u64::MAX, 0, Vec::new());
                shared_for_pool.fail_all();
            }
        });
        Self { shared, coordinator: Some(coordinator) }
    }

    /// Submits a request. Returns immediately: either a
    /// [`CompletionHandle`] (the request is queued) or a typed
    /// [`AdmissionError`] (it is not — the caller must shed or
    /// retry). Never blocks on queue pressure.
    pub fn submit(
        &self,
        request: LaunchRequest<In>,
    ) -> Result<CompletionHandle<In, Acc>, AdmissionError> {
        let lane = request.priority.lane();
        let t = Arc::clone(&self.shared.telemetry);
        let cell = match self.build_cell(request) {
            Ok(cell) => cell,
            Err(e) => {
                t.inc(ServiceCounter::Rejected);
                t.flight().record(ServiceEventKind::Rejected, u64::MAX, lane, 0);
                return Err(e);
            }
        };
        let mut q = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if !q.accepting {
            t.inc(ServiceCounter::Rejected);
            t.flight().record(ServiceEventKind::Rejected, cell.id, lane, 1);
            return Err(AdmissionError::ShuttingDown);
        }
        if q.pending_len >= self.shared.capacity {
            t.inc(ServiceCounter::Rejected);
            t.flight().record(ServiceEventKind::Rejected, cell.id, lane, 2);
            return Err(AdmissionError::QueueFull { capacity: self.shared.capacity });
        }
        let cell = Arc::new(cell);
        q.pending[lane].push_back(Arc::clone(&cell));
        q.pending_len += 1;
        t.inc(ServiceCounter::Submitted);
        t.flight().record(ServiceEventKind::Submitted, cell.id, lane, 0);
        self.shared.publish_depths(&q);
        drop(q);
        self.shared.work_cv.notify_all();
        Ok(CompletionHandle { cell, shared: Arc::clone(&self.shared) })
    }

    /// Worker threads backing the service's pool — the residency
    /// budget a submitted decomposition's fixup structure must fit.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.executor.threads()
    }

    /// Validates a request and builds its cell — every structural
    /// error the single-launch path reports is rejected here, at
    /// submission, before the request can occupy queue space.
    fn build_cell(
        &self,
        request: LaunchRequest<In>,
    ) -> Result<RequestCell<In, Acc>, AdmissionError> {
        let LaunchRequest { a, b, decomp, priority, deadline, mut cta_faults, serve_fault } = request;
        check_single(&a.view(), &b.view(), &decomp).map_err(AdmissionError::Rejected)?;
        let fixups = decomp.fixups();
        let executor = &self.shared.executor;
        check_residency(&fixups, executor.threads()).map_err(AdmissionError::Rejected)?;

        let now = Instant::now();
        let grid = decomp.grid_size();
        let mut admit_at = now;
        let mut cancel_at_claim = None;
        let mut panic_at_cta = None;
        match serve_fault {
            Some(ServeFaultKind::AdmitDelay(delay)) => admit_at = now + delay,
            Some(ServeFaultKind::Cancel) => cancel_at_claim = Some(grid / 2),
            Some(ServeFaultKind::PanicCta) => panic_at_cta = Some(grid / 2),
            Some(ServeFaultKind::Protocol(kind)) => {
                // Deterministic victim: the first contributor. A
                // decomposition with no split seams has nothing to
                // fault — the injection degrades to a no-op, exactly
                // like FaultPlan::seeded on data-parallel grids.
                if let Some(&victim) = FaultPlan::contributors(&decomp).first() {
                    cta_faults = cta_faults.with_fault(victim, kind);
                }
            }
            None => {}
        }

        let splits = splits_a_tile(&fixups);
        let (orientation, layout, space) =
            Orientation::choose(executor.kernel(), &a.view(), &b.view(), a.layout(), decomp.space(), splits);
        let tile = space.tile();
        // Span timestamps are relative to the service epoch, so all
        // request tracks share one timeline. One ring per worker id,
        // guests included, so the request's workers never share one.
        let spans = self.shared.trace.then(|| {
            let shared = &self.shared;
            WorkerRings::new(
                shared.telemetry.epoch(),
                shared.trace_capacity,
                2 * executor.threads(),
                &shared.spare_rings,
            )
        });
        // No pack cache: a request's operands are read in place or
        // packed privately.
        let launch = executor.launch(grid, &fixups, cta_faults, None, spans);
        Ok(RequestCell {
            id: self.shared.next_id.fetch_add(1, Ordering::Relaxed),
            priority,
            launch,
            out: OwnedTileWriter::new(layout, &space),
            orientation,
            cursor: GridCursor::new(grid),
            tiles_done: AtomicUsize::new(0),
            total_tiles: space.tiles(),
            tile_len: tile.blk_m * tile.blk_n,
            state: AtomicU8::new(QUEUED),
            submitted_at: now,
            admit_at,
            deadline: deadline.map(|d| (now + d, d)),
            cancel_at_claim,
            panic_at_cta,
            started: Mutex::new(None),
            ctas_run: AtomicUsize::new(0),
            outcome: Mutex::new(None),
            done_cv: Condvar::new(),
            a,
            b,
            decomp,
        })
    }

    /// A racy snapshot of the service counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        stats_from_registry(&self.shared.telemetry)
    }

    /// The service's telemetry registry — counters, lane gauges and
    /// latency histograms, the flight recorder, and incident reports.
    /// Cloneable and alive past [`shutdown`](Self::shutdown); pass it
    /// to an exporter.
    #[must_use]
    pub fn telemetry(&self) -> Arc<TelemetryRegistry> {
        Arc::clone(&self.shared.telemetry)
    }

    /// Drains the per-request span traces harvested so far (empty
    /// unless the service was started with
    /// [`ServeConfig::with_trace`]). Each drained [`ServeTrace`]
    /// renders as one Chrome-trace process with one track per request.
    #[must_use]
    pub fn take_trace(&self) -> ServeTrace {
        self.shared.telemetry.take_trace()
    }

    /// Incident reports dumped so far (anomalies: timeout, panic,
    /// pool poisoning, failure). Bounded; oldest dropped first.
    #[must_use]
    pub fn incidents(&self) -> Vec<IncidentReport> {
        self.shared.telemetry.incidents()
    }

    /// Current queue depth: `(pending, active)`.
    #[must_use]
    pub fn queue_depth(&self) -> (usize, usize) {
        let q = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        (q.pending_len, q.active.len())
    }

    /// Stops admission, drains every queued and active request to a
    /// terminal state, releases the pool, and returns the final
    /// counters. The executor the service was started on is usable
    /// again the moment this returns.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_inner();
        stats_from_registry(&self.shared.telemetry)
    }
}

impl<In, Acc> GemmService<In, Acc> {
    /// Stops admission and joins the coordinator once the pool has
    /// drained every request; a no-op once the coordinator is joined.
    fn shutdown_inner(&mut self) {
        let Some(coordinator) = self.coordinator.take() else { return };
        self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner).accepting = false;
        self.shared.work_cv.notify_all();
        let _ = coordinator.join();
    }
}

impl<In, Acc> Drop for GemmService<In, Acc> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_matrix::reference::gemm_naive;
    use streamk_types::{GemmShape, Layout, TileShape};

    fn operands(shape: GemmShape, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
        (
            Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, seed),
            Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, seed + 100),
        )
    }

    #[test]
    fn single_request_round_trips_bit_exactly() {
        let shape = GemmShape::new(96, 80, 64);
        let decomp = Decomposition::stream_k(shape, TileShape::new(32, 32, 16), 7);
        let (a, b) = operands(shape, 1);
        let exec = CpuExecutor::with_threads(8);
        let sequential: Matrix<f64> = exec.gemm(&a, &b, &decomp);

        let service = GemmService::<f64, f64>::start(&exec, ServeConfig::default());
        let handle = service.submit(LaunchRequest::new(a.clone(), b.clone(), decomp)).unwrap();
        let (c, stats) = handle.wait().expect("request should complete");
        assert_eq!(c.max_abs_diff(&sequential), 0.0, "serve vs sequential must be bit-exact");
        assert_eq!(stats.ctas, 7);
        let final_stats = service.shutdown();
        assert_eq!(final_stats.completed, 1);
        assert_eq!(final_stats.pool_poisonings, 0);

        // The executor (and its warm pool) is usable again.
        let again: Matrix<f64> = exec.gemm(&a, &b, &Decomposition::stream_k(shape, TileShape::new(32, 32, 16), 7));
        assert_eq!(again.max_abs_diff(&sequential), 0.0);
        let reference = gemm_naive::<f64, f64>(&a, &b);
        sequential.assert_close(&reference, 1e-11);
    }

    #[test]
    fn invalid_requests_are_rejected_at_submission() {
        let shape = GemmShape::new(64, 64, 32);
        let tile = TileShape::new(32, 32, 16);
        let (a, b) = operands(shape, 2);
        let exec = CpuExecutor::with_threads(2);
        let service = GemmService::<f64, f64>::start(&exec, ServeConfig::default());

        // Shape mismatch.
        let wrong = Matrix::<f64>::zeros(8, 8, Layout::RowMajor);
        let err = service
            .submit(LaunchRequest::new(wrong, b.clone(), Decomposition::stream_k(shape, tile, 4)))
            .unwrap_err();
        assert!(matches!(err, AdmissionError::Rejected(ExecutorError::ShapeMismatch { .. })));

        // Residency beyond the pool.
        let wide = Decomposition::stream_k(GemmShape::new(32, 32, 512), tile, 8);
        let err = service.submit(LaunchRequest::new(
            Matrix::<f64>::zeros(32, 512, Layout::RowMajor),
            Matrix::<f64>::zeros(512, 32, Layout::RowMajor),
            wide,
        ));
        assert!(matches!(
            err,
            Err(AdmissionError::Rejected(ExecutorError::InsufficientResidency { .. }))
        ));

        // Valid work still flows afterwards.
        let decomp = Decomposition::data_parallel(shape, tile);
        let handle = service.submit(LaunchRequest::new(a.clone(), b.clone(), decomp)).unwrap();
        let (c, _) = handle.wait().unwrap();
        c.assert_close(&gemm_naive::<f64, f64>(&a, &b), 1e-12);
        let stats = service.shutdown();
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let shape = GemmShape::new(64, 48, 40);
        let tile = TileShape::new(16, 16, 8);
        let (a, b) = operands(shape, 3);
        let exec = CpuExecutor::with_threads(4);
        let reference = gemm_naive::<f64, f64>(&a, &b);
        let service = GemmService::<f64, f64>::start(&exec, ServeConfig::default().with_window(2));
        let handles: Vec<_> = (0..6)
            .map(|g| {
                let decomp = Decomposition::stream_k(shape, tile, 3 + (g % 2));
                service.submit(LaunchRequest::new(a.clone(), b.clone(), decomp)).unwrap()
            })
            .collect();
        let stats = service.shutdown();
        assert_eq!(stats.completed, 6, "shutdown must drain, not drop: {stats:?}");
        for handle in handles {
            let (c, _) = handle.wait().unwrap();
            c.assert_close(&reference, 1e-11);
        }

        // Dropping a service without `shutdown` drains the same way,
        // even with every request still held in the queue.
        let service = GemmService::<f64, f64>::start(&exec, ServeConfig::default().with_window(2));
        let handles: Vec<_> = (0..6)
            .map(|g| {
                let decomp = Decomposition::stream_k(shape, tile, 3 + (g % 2));
                let request = LaunchRequest::new(a.clone(), b.clone(), decomp)
                    .with_serve_fault(ServeFaultKind::AdmitDelay(Duration::from_millis(200)));
                service.submit(request).unwrap()
            })
            .collect();
        assert!(service.queue_depth().0 > 0, "requests must still be queued at the drop");
        drop(service);
        for handle in handles {
            let (c, _) = handle.wait().unwrap();
            c.assert_close(&reference, 1e-11);
        }
        // The drop released the pool: the executor launches again.
        let c: Matrix<f64> = exec.gemm(&a, &b, &Decomposition::stream_k(shape, tile, 3));
        c.assert_close(&reference, 1e-11);
    }

    /// A request whose B is too wide to read in place (a 4 KiB row,
    /// over the 2 KiB in-place k-stride) packs B privately per tile, and
    /// its timeline shows that pack phase, each pack inside the `Mac`
    /// span whose segment needed it. A request that reads both operands
    /// in place records no pack span at all.
    #[test]
    fn a_request_timeline_shows_its_private_packs() {
        use crate::trace::Span;
        let tile = TileShape::new(32, 32, 16);
        let exec = CpuExecutor::with_threads(2);
        let service = GemmService::<f32, f32>::start(&exec, ServeConfig::default().with_trace(true));
        let submit = |n: usize| {
            let shape = GemmShape::new(64, n, 64);
            let a = Matrix::<f32>::random::<f32>(shape.m, shape.k, Layout::RowMajor, 5);
            let b = Matrix::<f32>::random::<f32>(shape.k, shape.n, Layout::RowMajor, 6);
            let request = LaunchRequest::new(a, b, Decomposition::stream_k(shape, tile, 2));
            let handle = service.submit(request).expect("admitted");
            let id = handle.id();
            handle.wait().expect("request should complete");
            id
        };
        let (wide, narrow) = (submit(1024), submit(128));
        let telemetry = service.telemetry();
        service.shutdown();
        let trace = telemetry.take_trace();
        let track = |id: u64| &trace.requests.iter().find(|r| r.id == id).expect("a harvested track").spans;
        let of = |spans: &[Span], kind: SpanKind| -> Vec<Span> {
            spans.iter().filter(|s| s.kind == kind).copied().collect()
        };

        let (packs, macs) = (of(track(wide), SpanKind::PackPrivate), of(track(wide), SpanKind::Mac));
        assert!(!packs.is_empty(), "a wide B must show its private packs");
        for pack in &packs {
            assert!(
                macs.iter().any(|mac| mac.start_ns <= pack.start_ns && pack.end_ns <= mac.end_ns),
                "{pack:?} lies inside no MAC span of its request"
            );
        }
        assert!(!of(track(narrow), SpanKind::Mac).is_empty());
        assert!(of(track(narrow), SpanKind::PackPrivate).is_empty(), "operands read in place pack nothing");
    }
}
