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
//! - **Claiming** runs one worker sweep over *all* active requests:
//!   each request carries its own [`GridCursor`], and an idle worker
//!   takes the next CTA from the first running request that still
//!   has unclaimed work — exactly the single-launch claim loop with
//!   the request list as an outer dimension.
//! - **Waiting is working.** A caller inside
//!   [`CompletionHandle::wait`] is a free core, so it runs the same
//!   sweep as a *guest* until its own request has resolved: same
//!   claiming policy (admission order — never "my request first"),
//!   same isolated execution, and it sleeps only when the sweep finds
//!   nothing claimable. At most as many callers as the pool has
//!   workers compute at once; the rest sleep until their request
//!   resolves.
//! - **Execution** is the single-launch executor's: every claimed CTA
//!   runs through the one Algorithm 5 cycle in `engine.rs`, each
//!   request carrying the cycle's per-launch state. Owners never block
//!   while claimable work exists *anywhere*, parked consolidations are
//!   resumed opportunistically, and blocking waits are bounded by the
//!   watchdog with owner-side recovery
//!   ([`streamk_core::peer_contribution`]) recomputing lost or
//!   poisoned partials bit-exactly. (An owner that blocked with work
//!   outstanding would deadlock here: two workers blocked as owners of
//!   *different* requests can each hold the worker the other's peer
//!   needs.)
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

use crate::engine::{Deferred, Grid, Instance, Launch, Orientation, Output, Progress, Worker};
use crate::executor::{check_residency, check_single, CpuExecutor};
use crate::fault::{FaultPlan, ServeFaultKind};
use crate::fixup::WaitPolicy;
use crate::microkernel::KernelKind;
use crate::output::OwnedTileWriter;
use crate::pool::ScratchStore;
use crate::sched::GridCursor;
use crate::telemetry::{
    IncidentReport, RequestTrace, ServeTrace, ServiceCounter, ServiceEventKind, TelemetryRegistry,
};
use crate::trace::{SpanKind, SpareRings, WorkerRings};
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
    /// wait, CTA, MAC, fixup, recovery), harvested on completion via
    /// [`GemmService::take_trace`]. Off by default: when off, no span
    /// ring is allocated and every recording site is a `None` check.
    pub trace: bool,
    /// Span-ring capacity (spans) of each worker that records for a
    /// request when [`trace`](Self::trace) is on — a request keeps one
    /// ring per worker id, allocated at that worker's first span; full
    /// rings drop their oldest span, exactly like the single-launch
    /// tracer.
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

/// Why a [`GroupHandle::wait_all`] did not produce every member's
/// result. The first member failure wins; every sibling still in
/// flight is cancelled (cancellation propagates through the group)
/// and drained to a terminal state before this is returned.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupError {
    /// Index of the failing member within the submitted group.
    pub member: usize,
    /// Service-assigned id of the failing request.
    pub id: u64,
    /// Why that member failed.
    pub error: ServeError,
    /// Siblings this wait cancelled when the failure surfaced (they
    /// had not yet reached a terminal state on their own).
    pub cancelled_siblings: usize,
}

impl fmt::Display for GroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "group member {} (request {}) failed: {} ({} sibling(s) cancelled)",
            self.member, self.id, self.error, self.cancelled_siblings
        )
    }
}

impl std::error::Error for GroupError {}

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
    /// Group id when submitted via `submit_group`.
    group: Option<u64>,
    a: Matrix<In>,
    b: Matrix<In>,
    decomp: Decomposition,
    /// The engine's per-launch state, for this request's whole life:
    /// peers, fixup board, fault plan, kernel, the deferral / wait /
    /// recovery counters, the request-scoped span ring (only when the
    /// service was started with `ServeConfig::trace`), and the
    /// liveness flag — set by the transition into any terminal state,
    /// so workers stop spending cycles on the request.
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

    /// `true` once the request is in a terminal state — workers must
    /// stop spending cycles on it.
    fn is_dead(&self) -> bool {
        self.launch.is_dead()
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

    /// What the request's span ring holds, drained, as its track of
    /// the service trace; `None` for an untraced request.
    fn drain_trace(&self) -> Option<RequestTrace> {
        let (id, lane, group) = (self.id, self.priority.lane(), self.group);
        let trace = self.launch.drain_spans()?;
        Some(RequestTrace { id, lane, group, spans: trace.spans, dropped: trace.dropped })
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

    /// `true` once the handle holds its outcome. Later than
    /// [`is_dead`](Self::is_dead): the terminal CAS comes first, the
    /// outcome when the winner has booked it.
    fn is_resolved(&self) -> bool {
        self.is_dead() && self.outcome.lock().unwrap_or_else(PoisonError::into_inner).is_some()
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
    /// sees it: a grid of one instance, stored unscaled into the
    /// request's own buffer.
    fn with_worker<R>(&self, wid: usize, f: impl FnOnce(Worker<'_, In, Acc>) -> R) -> R {
        let window = Output::Window(self.out.writer());
        let instance = [Instance::new(self.orientation, self.a.view(), self.b.view(), window, 0)];
        let grid = Grid { ctas: self.decomp.ctas(), instances: &instance, alpha: Acc::ONE, beta: Acc::ZERO };
        f(Worker { launch: &self.launch, grid: &grid, wid })
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
        self.cell.is_dead()
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
    /// its request resolves the calling thread runs the service's own
    /// claim loop as a guest — the same sweep (admission order, not
    /// "my request first"), the same isolated CTA execution — and
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
            let slot = lock().take(shared.workers);
            if let Some((slot, mut scratch)) = slot {
                serve_loop(shared.workers + slot, shared, &mut scratch, Some(cell));
                lock().free.push((slot, scratch));
            }
        }
        cell.resolved_slot().take().expect("resolved_slot returns a resolved handle")
    }
}

/// The caller's end of a [`GemmService::submit_group`] burst: a set
/// of related requests that completes (or fails) as a unit.
///
/// The group is an atomically-admitted batch — either every member
/// was queued or none were — and the members run under the service's
/// normal admission/claiming discipline (they interleave with
/// unrelated traffic; the group is a *completion* unit, not a
/// scheduling gang). Cancellation propagates:
/// [`cancel_all`](Self::cancel_all) cancels every member, and
/// [`wait_all`](Self::wait_all) cancels the survivors the moment one
/// member fails. Dropping the handle cancels nothing — members run
/// to their own terminal states.
pub struct GroupHandle<In, Acc> {
    members: Vec<CompletionHandle<In, Acc>>,
}

impl<In, Acc: Scalar> fmt::Debug for GroupHandle<In, Acc> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupHandle")
            .field("members", &self.members.len())
            .field("finished", &self.members.iter().filter(|m| m.is_finished()).count())
            .finish()
    }
}

impl<In, Acc: Scalar> GroupHandle<In, Acc> {
    /// Number of members in the group.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` for a zero-member group (submitting an empty burst is
    /// allowed and resolves trivially).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members' service-assigned ids, in submission order.
    #[must_use]
    pub fn ids(&self) -> Vec<u64> {
        self.members.iter().map(CompletionHandle::id).collect()
    }

    /// The per-member handles, for inspection (`is_finished`, racy
    /// `stats`) without consuming the group.
    #[must_use]
    pub fn members(&self) -> &[CompletionHandle<In, Acc>] {
        &self.members
    }

    /// Cancels every member that has not yet reached a terminal
    /// state. Returns how many cancellations this call performed.
    pub fn cancel_all(&self) -> usize {
        self.members.iter().filter(|m| m.cancel()).count()
    }
}

impl<In: Promote<Acc>, Acc: Scalar> GroupHandle<In, Acc> {
    /// Waits until every member resolves, returning the outputs and
    /// per-member statistics in submission order. Each member is
    /// awaited with [`CompletionHandle::wait`], so the calling thread
    /// computes CTAs — the group's and anyone else's, in admission
    /// order — while members are outstanding, and never unwinds on a
    /// member's panic.
    ///
    /// On the first member failure the remaining members are
    /// cancelled (deadline expiry, cancellation, and panics thereby
    /// propagate through the whole group), drained to their terminal
    /// states, and the failure is reported as a [`GroupError`].
    ///
    /// # Errors
    ///
    /// Returns the first failing member's index, id, and
    /// [`ServeError`], plus how many siblings the failure cancelled.
    pub fn wait_all(self) -> Result<Vec<(Matrix<Acc>, RequestStats)>, GroupError> {
        let mut results = Vec::with_capacity(self.members.len());
        let mut members = self.members.into_iter().enumerate();
        for (index, handle) in members.by_ref() {
            let id = handle.id();
            match handle.wait() {
                Ok(out) => results.push(out),
                Err(error) => {
                    let mut cancelled = 0usize;
                    let rest: Vec<_> = members.map(|(_, h)| h).collect();
                    for sibling in &rest {
                        if sibling.cancel() {
                            cancelled += 1;
                        }
                    }
                    for sibling in rest {
                        let _ = sibling.wait();
                    }
                    return Err(GroupError { member: index, id, error, cancelled_siblings: cancelled });
                }
            }
        }
        Ok(results)
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
    workers: usize,
    watchdog: Duration,
    kernel: KernelKind,
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
    next_group: AtomicU64,
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

enum Claimed<In, Acc> {
    /// A CTA of a running request.
    Cta(Arc<RequestCell<In, Acc>>, usize),
    /// Nothing claimable right now.
    Idle,
    /// Shutting down and fully drained: the worker may exit.
    Drained,
}

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

    /// Harvests spans recorded *after* [`finish`](Self::finish)
    /// drained the request's ring — the claim that completes a
    /// request closes its own CTA span on the way out, strictly after
    /// the resolution harvest. The leftovers become a same-id
    /// fragment that `TelemetryRegistry::take_trace` merges back into
    /// the request's track, so timelines stay complete.
    fn harvest_remnant(&self, cell: &Arc<RequestCell<In, Acc>>) {
        if !cell.is_dead() {
            return;
        }
        if let Some(trace) = cell.drain_trace().filter(|t| !t.spans.is_empty() || t.dropped > 0) {
            self.telemetry.harvest_trace(trace);
        }
    }

    /// Books what one engine call, run under `catch_unwind`, did for
    /// `cell`: tiles stored count toward completion — the `AcqRel`
    /// counter gives the finalizer happens-before with every store,
    /// the state CAS elects exactly one finalizer, and the owned
    /// buffer becomes the caller's output matrix without a copy — a
    /// protocol failure recovery could not mask fails the request, and
    /// so does a panic: this request's handle, nothing else.
    fn settle(
        &self,
        cell: &Arc<RequestCell<In, Acc>>,
        outcome: std::thread::Result<Result<usize, ExecutorError>>,
    ) {
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
        self.harvest_remnant(cell);
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

    /// One claim attempt by worker `wid`: admit, sweep the active
    /// list in admission order, fire deadlines, and hand out the next
    /// CTA.
    fn claim_next(&self, wid: usize) -> Claimed<In, Acc> {
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
                if cell.mark_started(now, &self.start_seq) {
                    let lane = cell.priority.lane();
                    self.telemetry.flight().record(
                        ServiceEventKind::Started,
                        cell.id,
                        lane,
                        id as u64,
                    );
                    // Queue wait is a first-class phase: submission →
                    // first claim, one span per request.
                    cell.launch.record(
                        wid,
                        SpanKind::QueueWait,
                        cell.submitted_at,
                        now,
                        lane as u32,
                        cell.id as u32,
                    );
                }
                if i > 0 {
                    // The sweep passed i exhausted-or-dead requests to
                    // find this one: a cross-request claim, the serve
                    // layer's work-conservation steal.
                    self.telemetry.inc(ServiceCounter::Steals);
                }
                return Claimed::Cta(Arc::clone(cell), id);
            }
            // Fully claimed but tiles still in flight elsewhere: keep
            // it in the window until it resolves.
            i += 1;
        }
        // Requests retire at resolution, so `Drained` can be observed
        // while a straggling CTA of a dead request is still running on
        // another thread. That thread holds its own `Arc`s, a pool
        // worker among them is joined by the pool regardless, and
        // nothing it does from here on is claimable.
        if !q.accepting && q.pending_len == 0 && q.active.is_empty() {
            return Claimed::Drained;
        }
        Claimed::Idle
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
// Worker loop
// ---------------------------------------------------------------------------

/// A consolidation this worker parked, with the request it belongs
/// to: one worker's list spans every request it has owned a tile of.
type Parked<In, Acc> = (Arc<RequestCell<In, Acc>>, Deferred<Acc>);

/// The serve loop, written once over *when may this thread leave*:
/// resume parked consolidations, claim, execute, and — when the sweep
/// finds nothing — finish what is parked blocking, or sleep.
///
/// A pool worker (`guest` is `None`) leaves when the service has been
/// told to shut down *and* every request has resolved. A caller inside
/// [`CompletionHandle::wait`] runs it as a guest of `guest`'s request
/// and leaves once that request has resolved **and** it holds no
/// parked consolidation — a guest never walks away with a tile only it
/// can finish. Nothing else differs: one claiming policy, one
/// execution path.
///
/// Both kinds sleep only when the sweep is idle and they hold nothing
/// parked, so a sleeping thread never stands between a request and its
/// completion: a worker on `work_cv` (bounded by [`IDLE_PARK`], which
/// is what fires time-driven transitions), a guest on its request's
/// `done_cv` until it resolves — by then the request is in the hands
/// of threads that are awake, or queued for the pool's workers.
fn serve_loop<In, Acc>(
    wid: usize,
    shared: &Arc<ServeShared<In, Acc>>,
    scratch: &mut ScratchStore,
    guest: Option<&Arc<RequestCell<In, Acc>>>,
) where
    In: Promote<Acc>,
    Acc: Scalar,
{
    let mut deferred: Vec<Parked<In, Acc>> = Vec::new();
    loop {
        // Opportunistic pass: resume any parked consolidation whose
        // peers have signaled since, without blocking.
        advance_deferred(shared, &mut deferred, wid, scratch, false);
        if deferred.is_empty() && guest.is_some_and(|cell| cell.is_resolved()) {
            return;
        }
        let drained = match shared.claim_next(wid) {
            Claimed::Cta(cell, id) => {
                execute_claim(shared, &cell, id, wid, scratch, &mut deferred);
                continue;
            }
            Claimed::Idle => false,
            Claimed::Drained => true,
        };
        if !deferred.is_empty() {
            // No claimable work anywhere: every CTA of the parked
            // requests is claimed and being executed — or, past
            // `Drained`, the requests are dead — so a bounded blocking
            // drain cannot deadlock, and the watchdog + recovery bound
            // it even if a peer's thread died.
            advance_deferred(shared, &mut deferred, wid, scratch, true);
            continue;
        }
        match guest {
            // Not resolved a moment ago, and nothing to do for anyone:
            // sleep until it is. (Past `Drained` too — its finisher
            // has retired it and is about to resolve it.)
            Some(cell) => drop(cell.resolved_slot()),
            None if drained => return,
            None => {
                let q = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
                drop(
                    shared
                        .work_cv
                        .wait_timeout(q, IDLE_PARK)
                        .unwrap_or_else(PoisonError::into_inner),
                );
            }
        }
    }
}

/// Executes one claimed CTA — the engine's body — under panic
/// isolation: a panic (injected or real) fails only this request's
/// handle, and the worker — or the waiting caller: ids from
/// `shared.workers` up are guests — returns to the sweep.
fn execute_claim<In, Acc>(
    shared: &Arc<ServeShared<In, Acc>>,
    cell: &Arc<RequestCell<In, Acc>>,
    id: usize,
    wid: usize,
    scratch: &mut ScratchStore,
    deferred: &mut Vec<Parked<In, Acc>>,
) where
    In: Promote<Acc>,
    Acc: Scalar,
{
    let ws = scratch.get_or_insert_with(|| Workspace::<In, Acc>::new(cell.tile_len));
    ws.ensure_tile_len(cell.tile_len);
    // Counted before the body runs: every peer's claim happens-before
    // the signals the owner consumes, and the request completes only
    // after the owner's body, so counting at claim time is the only
    // order under which the completion-time stats snapshot cannot miss
    // a straggling increment.
    cell.ctas_run.fetch_add(1, Ordering::Relaxed);
    shared.telemetry.inc(ServiceCounter::Ctas);
    if wid >= shared.workers {
        shared.telemetry.inc(ServiceCounter::GuestCtas);
    }
    let t0 = cell.launch.start();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if cell.panic_at_cta == Some(id) {
            panic!("injected serve fault: panic in CTA {id} of request {}", cell.id);
        }
        cell.with_worker(wid, |worker| worker.run_cta(id, ws, |d| deferred.push((Arc::clone(cell), d))))
    }));
    cell.launch.finish(wid, SpanKind::Cta, t0, id as u32, wid as u32);
    shared.settle(cell, outcome);
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

/// Advances every parked consolidation this worker holds, each under
/// the same isolation as a claimed CTA; entries that finished, failed
/// or belong to a dead request leave the list.
fn advance_deferred<In, Acc>(
    shared: &Arc<ServeShared<In, Acc>>,
    deferred: &mut Vec<Parked<In, Acc>>,
    wid: usize,
    scratch: &mut ScratchStore,
    block: bool,
) where
    In: Promote<Acc>,
    Acc: Scalar,
{
    let mut i = 0;
    while i < deferred.len() {
        let (cell, d) = &mut deferred[i];
        let ws = scratch.get_or_insert_with(|| Workspace::<In, Acc>::new(cell.tile_len));
        ws.ensure_tile_len(cell.tile_len);
        let outcome =
            catch_unwind(AssertUnwindSafe(|| cell.with_worker(wid, |worker| worker.resume(d, &mut *ws, block))));
        if matches!(outcome, Ok(Ok(Progress::Parked))) {
            i += 1;
            continue;
        }
        let (cell, d) = deferred.swap_remove(i);
        ws.recycle_partial(d.accum);
        shared.settle(&cell, outcome.map(|r| r.map(|progress| usize::from(progress == Progress::Done))));
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
            workers: executor.threads(),
            watchdog: executor.watchdog(),
            kernel: executor.kernel(),
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
            next_group: AtomicU64::new(0),
            telemetry: Arc::new(TelemetryRegistry::new()),
        });
        let executor = executor.clone();
        let shared_for_pool = Arc::clone(&shared);
        let coordinator = std::thread::spawn(move || {
            let job = |wid: usize, scratch: &mut ScratchStore| {
                serve_loop::<In, Acc>(wid, &shared_for_pool, scratch, None);
            };
            // This thread launches, so it serves as worker 0 until the
            // service drains. Per-CTA catch_unwind means no panic
            // should reach the pool; this catch is the backstop that
            // keeps the coordinator from dying silently if one does.
            if catch_unwind(AssertUnwindSafe(|| executor.worker_pool().run(&job))).is_err() {
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
        let cell = match self.build_cell(request, None) {
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

    /// Submits a burst of related requests as one atomically-admitted
    /// group (a layer's batched projections, …). Either **every**
    /// request is queued — and a [`GroupHandle`] tracks them as a
    /// completion unit — or **none** are: the first structural
    /// rejection, a full queue (the whole burst must fit), or shutdown
    /// refuses the entire group, so a caller never ends up with half a
    /// burst in flight.
    ///
    /// Members are queued back-to-back in submission order and then
    /// scheduled under the service's normal admission and claiming
    /// discipline — the group completes as a unit but does not gang-
    /// schedule.
    ///
    /// # Errors
    ///
    /// The first member's [`AdmissionError`], with no member queued.
    pub fn submit_group(
        &self,
        requests: Vec<LaunchRequest<In>>,
    ) -> Result<GroupHandle<In, Acc>, AdmissionError> {
        let count = requests.len();
        let t = Arc::clone(&self.shared.telemetry);
        let group = self.shared.next_group.fetch_add(1, Ordering::Relaxed);
        let mut cells = Vec::with_capacity(count);
        for request in requests {
            match self.build_cell(request, Some(group)) {
                Ok(cell) => cells.push(Arc::new(cell)),
                Err(e) => {
                    t.add(ServiceCounter::Rejected, count as u64);
                    t.flight().record(ServiceEventKind::Rejected, u64::MAX, 0, count as u64);
                    return Err(e);
                }
            }
        }
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            if !q.accepting {
                t.add(ServiceCounter::Rejected, count as u64);
                t.flight().record(ServiceEventKind::Rejected, u64::MAX, 0, count as u64);
                return Err(AdmissionError::ShuttingDown);
            }
            if q.pending_len + cells.len() > self.shared.capacity {
                t.add(ServiceCounter::Rejected, count as u64);
                t.flight().record(ServiceEventKind::Rejected, u64::MAX, 0, count as u64);
                return Err(AdmissionError::QueueFull { capacity: self.shared.capacity });
            }
            for cell in &cells {
                let lane = cell.priority.lane();
                q.pending[lane].push_back(Arc::clone(cell));
                q.pending_len += 1;
                t.inc(ServiceCounter::Submitted);
                t.flight().record(ServiceEventKind::Submitted, cell.id, lane, group);
            }
            self.shared.publish_depths(&q);
        }
        self.shared.work_cv.notify_all();
        let members = cells
            .into_iter()
            .map(|cell| CompletionHandle { cell, shared: Arc::clone(&self.shared) })
            .collect();
        Ok(GroupHandle { members })
    }

    /// Submits a group with one shared deadline applied to every
    /// member — the whole burst must finish within `deadline`, and a
    /// single member's expiry fails the group on
    /// [`GroupHandle::wait_all`] (which then cancels the rest).
    ///
    /// # Errors
    ///
    /// As [`submit_group`](Self::submit_group).
    pub fn submit_group_with_deadline(
        &self,
        requests: Vec<LaunchRequest<In>>,
        deadline: Duration,
    ) -> Result<GroupHandle<In, Acc>, AdmissionError> {
        self.submit_group(requests.into_iter().map(|r| r.with_deadline(deadline)).collect())
    }

    /// Worker threads backing the service's pool — the residency
    /// budget a submitted decomposition's fixup structure must fit.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Validates a request and builds its cell — every structural
    /// error the single-launch path reports is rejected here, at
    /// submission, before the request can occupy queue space.
    fn build_cell(
        &self,
        request: LaunchRequest<In>,
        group: Option<u64>,
    ) -> Result<RequestCell<In, Acc>, AdmissionError> {
        let LaunchRequest { a, b, decomp, priority, deadline, mut cta_faults, serve_fault } = request;
        check_single(&a.view(), &b.view(), &decomp).map_err(AdmissionError::Rejected)?;
        let fixups = decomp.fixups();
        check_residency(&fixups, self.shared.workers).map_err(AdmissionError::Rejected)?;

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

        let kernel = self.shared.kernel;
        let (orientation, layout, space) =
            Orientation::choose(kernel, &a.view(), &b.view(), a.layout(), decomp.space());
        let tile = space.tile();
        // Span timestamps are relative to the service epoch, so all
        // request tracks share one timeline. One ring per worker id,
        // guests included, so the request's workers never share one.
        let spans = self.shared.trace.then(|| {
            let shared = &self.shared;
            WorkerRings::new(shared.telemetry.epoch(), shared.trace_capacity, 2 * shared.workers, &shared.spare_rings)
        });
        // No pack cache (a request's operands are packed privately),
        // and recovery always on: a lost peer must never wedge a
        // multi-tenant pool.
        let launch = Launch::new(
            grid,
            &fixups,
            cta_faults,
            WaitPolicy::with_watchdog(self.shared.watchdog),
            kernel,
            None,
            true,
            spans,
        );
        Ok(RequestCell {
            id: self.shared.next_id.fetch_add(1, Ordering::Relaxed),
            priority,
            group,
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
    /// to exporters or an [`AdaptiveSelector`] feedback loop.
    ///
    /// [`AdaptiveSelector`]: https://docs.rs/streamk-select
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

    fn shutdown_inner(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            q.accepting = false;
        }
        self.shared.work_cv.notify_all();
        if let Some(coordinator) = self.coordinator.take() {
            let _ = coordinator.join();
        }
    }
}

impl<In, Acc> Drop for GemmService<In, Acc> {
    fn drop(&mut self) {
        if self.coordinator.is_some() {
            {
                let mut q = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
                q.accepting = false;
            }
            self.shared.work_cv.notify_all();
            if let Some(coordinator) = self.coordinator.take() {
                let _ = coordinator.join();
            }
        }
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
    }

    #[test]
    fn group_completes_as_a_unit_in_submission_order() {
        use crate::fault::{FaultKind, FaultPlan};
        // Six tiles over four CTAs: the grid has split seams, so a
        // member can lose a partial.
        let shape = GemmShape::new(96, 64, 48);
        let tile = TileShape::new(32, 32, 16);
        let decomp = Decomposition::stream_k(shape, tile, 4);
        let exec = CpuExecutor::with_threads(4).with_watchdog(Duration::from_millis(200));
        let pairs: Vec<_> = (0..5).map(|g| operands(shape, 10 + g)).collect();
        let sequentials: Vec<Matrix<f64>> =
            pairs.iter().map(|(a, b)| exec.gemm(a, b, &decomp)).collect();

        let service = GemmService::<f64, f64>::start(&exec, ServeConfig::default());
        // One member loses a partial mid-burst: owner-side recovery
        // masks it and the group still resolves bit-exactly.
        let lost = FaultPlan::single(FaultPlan::contributors(&decomp)[0], FaultKind::Lose);
        let requests = pairs
            .iter()
            .enumerate()
            .map(|(g, (a, b))| {
                let request = LaunchRequest::new(a.clone(), b.clone(), decomp.clone());
                if g == 3 { request.with_cta_faults(lost.clone()) } else { request }
            })
            .collect();
        let group = service.submit_group(requests).unwrap();
        assert_eq!(group.len(), 5);
        assert!(!group.is_empty());
        let ids = group.ids();
        assert_eq!(ids.len(), 5);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids issued in submission order");

        let results = group.wait_all().expect("burst completes as a unit");
        assert_eq!(results.len(), 5);
        for ((c, stats), sequential) in results.iter().zip(&sequentials) {
            // Each member resolves to its *own* product (no cross-talk)
            // and carries its own execution statistics.
            assert_eq!(c.max_abs_diff(sequential), 0.0);
            assert_eq!(stats.ctas, 4);
        }
        assert!(results[3].1.recoveries >= 1, "the lost partial must be recovered");

        // The empty burst is legal and resolves trivially.
        let empty = service.submit_group(Vec::new()).unwrap();
        assert!(empty.is_empty());
        assert!(empty.wait_all().unwrap().is_empty());

        let final_stats = service.shutdown();
        assert_eq!(final_stats.completed, 5);
        assert_eq!(final_stats.rejected, 0);
    }

    #[test]
    fn group_admission_is_all_or_nothing() {
        let shape = GemmShape::new(48, 48, 32);
        let tile = TileShape::new(16, 16, 8);
        let (a, b) = operands(shape, 7);
        let exec = CpuExecutor::with_threads(2);
        let service =
            GemmService::<f64, f64>::start(&exec, ServeConfig::default().with_capacity(3));

        // A burst wider than the whole queue can never fit — the group
        // is refused atomically, with no member enqueued.
        let make = || LaunchRequest::new(a.clone(), b.clone(), Decomposition::stream_k(shape, tile, 2));
        let err = service.submit_group((0..4).map(|_| make()).collect()).unwrap_err();
        assert!(matches!(err, AdmissionError::QueueFull { capacity: 3 }));

        // A structurally-invalid member anywhere in the burst rejects
        // the whole burst before queue space is consumed.
        let wrong = Matrix::<f64>::zeros(8, 8, Layout::RowMajor);
        let bad = LaunchRequest::new(wrong, b.clone(), Decomposition::stream_k(shape, tile, 2));
        let err = service.submit_group(vec![make(), make(), bad]).unwrap_err();
        assert!(matches!(err, AdmissionError::Rejected(ExecutorError::ShapeMismatch { .. })));

        // A burst that fits still flows.
        let group = service.submit_group(vec![make(), make()]).unwrap();
        assert_eq!(group.wait_all().unwrap().len(), 2);

        let stats = service.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.rejected, 4 + 3, "both refused bursts count every member");
    }

    #[test]
    fn group_failure_cancels_the_surviving_siblings() {
        let shape = GemmShape::new(48, 48, 32);
        let tile = TileShape::new(16, 16, 8);
        let (a, b) = operands(shape, 11);
        let exec = CpuExecutor::with_threads(2);
        let service = GemmService::<f64, f64>::start(&exec, ServeConfig::default());

        // Member 0 panics mid-grid; the siblings are held in admission
        // delay so they are demonstrably still alive when the failure
        // surfaces — wait_all must cancel them, not leave them queued.
        let make = |fault: ServeFaultKind| {
            LaunchRequest::new(a.clone(), b.clone(), Decomposition::stream_k(shape, tile, 2))
                .with_serve_fault(fault)
        };
        let group = service
            .submit_group(vec![
                make(ServeFaultKind::PanicCta),
                make(ServeFaultKind::AdmitDelay(Duration::from_secs(2))),
                make(ServeFaultKind::AdmitDelay(Duration::from_secs(2))),
            ])
            .unwrap();
        let err = group.wait_all().unwrap_err();
        assert_eq!(err.member, 0);
        assert!(matches!(err.error, ServeError::Panicked { .. }), "{err}");
        assert_eq!(err.cancelled_siblings, 2, "both delayed siblings must be cancelled");

        // The pool recovered from the panic and the service still works.
        let handle = service
            .submit(LaunchRequest::new(a.clone(), b.clone(), Decomposition::stream_k(shape, tile, 2)))
            .unwrap();
        let (c, _) = handle.wait().unwrap();
        c.assert_close(&gemm_naive::<f64, f64>(&a, &b), 1e-12);
        service.shutdown();
    }

    #[test]
    fn group_deadline_applies_to_every_member() {
        let shape = GemmShape::new(48, 48, 32);
        let tile = TileShape::new(16, 16, 8);
        let (a, b) = operands(shape, 13);
        let exec = CpuExecutor::with_threads(2);
        let service = GemmService::<f64, f64>::start(&exec, ServeConfig::default());

        // A generous shared deadline: the burst completes normally.
        let make = || LaunchRequest::new(a.clone(), b.clone(), Decomposition::stream_k(shape, tile, 2));
        let group = service
            .submit_group_with_deadline((0..3).map(|_| make()).collect(), Duration::from_secs(30))
            .unwrap();
        assert_eq!(group.wait_all().unwrap().len(), 3);

        // An unmeetable one: members held past the deadline by an
        // admission delay expire, and the expiry propagates through
        // wait_all as the group failure.
        let held = |_: usize| {
            make().with_serve_fault(ServeFaultKind::AdmitDelay(Duration::from_millis(200)))
        };
        let group = service
            .submit_group_with_deadline((0..2).map(held).collect(), Duration::from_millis(20))
            .unwrap();
        let err = group.wait_all().unwrap_err();
        assert!(matches!(err.error, ServeError::Timeout { .. }), "{err}");
        service.shutdown();
    }

    #[test]
    fn cancel_all_reaches_every_unfinished_member() {
        let shape = GemmShape::new(48, 48, 32);
        let tile = TileShape::new(16, 16, 8);
        let (a, b) = operands(shape, 17);
        let exec = CpuExecutor::with_threads(2);
        let service = GemmService::<f64, f64>::start(&exec, ServeConfig::default());

        let make = || {
            LaunchRequest::new(a.clone(), b.clone(), Decomposition::stream_k(shape, tile, 2))
                .with_serve_fault(ServeFaultKind::AdmitDelay(Duration::from_secs(2)))
        };
        let group = service.submit_group((0..3).map(|_| make()).collect()).unwrap();
        assert_eq!(group.cancel_all(), 3);
        assert_eq!(group.cancel_all(), 0, "second sweep finds nothing left to cancel");
        let err = group.wait_all().unwrap_err();
        assert_eq!(err.error, ServeError::Cancelled);
        let stats = service.shutdown();
        assert_eq!(stats.cancelled, 3);
    }
}
