//! Service-wide telemetry: a unified metrics registry, a bounded
//! flight recorder, and structured incident reports.
//!
//! The serve layer (`serve.rs`) was observability-dark: terminal
//! counters said *how many* requests timed out or panicked, never
//! *why* or *when*. This module gives [`GemmService`] three
//! instruments, all designed to the trace module's overhead
//! discipline (bounded, allocation-free on the hot path, and off the
//! MAC loop):
//!
//! - [`TelemetryRegistry`] — every service counter (admissions,
//!   rejections, timeouts, poisonings, aggregated steal/defer/
//!   recovery/wait-stall work), per-lane queue-depth gauges, per-lane
//!   latency histograms (reusing the trace module's log-decade
//!   [`Histogram`]), exported in Prometheus text exposition format by
//!   [`render`](TelemetryRegistry::render). `ServiceStats` is derived
//!   *from* this registry, so a scrape and a stats snapshot can never
//!   disagree.
//! - [`FlightRecorder`] — an always-on, bounded, drop-oldest ring of
//!   recent [`ServiceEvent`]s (submissions, admissions, starts,
//!   terminal transitions) behind one leaf mutex: a reader copies
//!   whole events, never a half-written one.
//! - [`IncidentReport`] — on a timeout, panic, unmaskable failure, or
//!   pool poisoning the service snapshots the recorder, the registry,
//!   and the failing request's spans into a structured JSON document
//!   (written to [`set_incident_dir`](TelemetryRegistry::set_incident_dir)
//!   when configured, and kept in a bounded in-memory log either
//!   way), turning chaos-campaign failures into diagnosable artifacts
//!   instead of counter increments.
//!
//! [`GemmService`]: crate::GemmService

use crate::trace::{write_span, Histogram, Span};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;
use streamk_core::tev::{escape_json, TraceWriter};
use streamk_core::SpanKind;

/// Admission lanes the serve layer exposes (High / Normal / Bulk).
pub const LANES: usize = 3;

/// Stable lane names, indexed by `Priority::lane()`.
pub const LANE_NAMES: [&str; LANES] = ["high", "normal", "bulk"];

/// Default flight-recorder capacity (events). Small enough to scan in
/// microseconds, large enough to hold the lifecycle of every request
/// a realistic window can have in flight when an anomaly fires.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// Incident reports kept in memory (oldest dropped beyond this).
const MAX_INCIDENTS: usize = 64;

/// Finished request traces kept before harvesting drops the oldest.
const MAX_REQUEST_TRACES: usize = 1024;

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Every monotonic service counter the registry tracks. The order is
/// the dense index into the registry's counter array and the order
/// counters render in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceCounter {
    /// Requests accepted into the queue.
    Submitted,
    /// Submissions refused (queue full, shutdown, or invalid).
    Rejected,
    /// Requests completed with a result.
    Completed,
    /// Requests that missed their deadline.
    TimedOut,
    /// Requests cancelled.
    Cancelled,
    /// Requests failed by a worker panic.
    Panicked,
    /// Requests failed by an unmaskable protocol error.
    Failed,
    /// Panics that escaped per-CTA isolation to the pool backstop.
    PoolPoisonings,
    /// CTAs claimed and executed across all requests.
    Ctas,
    /// CTAs executed by a caller inside `CompletionHandle::wait` — a
    /// guest of the serve loop, worker id `≥ workers()` — rather than
    /// by a pool worker. A subset of [`Ctas`](Self::Ctas).
    GuestCtas,
    /// Cross-request claims: a worker took work from a request other
    /// than the sweep head — the serve layer's work-conservation
    /// analogue of single-launch range stealing.
    Steals,
    /// Owner consolidations parked cooperatively.
    Deferrals,
    /// Peer contributions recomputed by owner-side recovery.
    Recoveries,
    /// Nanoseconds owners spent blocked in fixup waits.
    WaitStallNs,
    /// Incident reports produced by the anomaly path.
    Incidents,
}

impl ServiceCounter {
    /// Every counter, in dense-index (and render) order.
    pub const ALL: [Self; 15] = [
        Self::Submitted,
        Self::Rejected,
        Self::Completed,
        Self::TimedOut,
        Self::Cancelled,
        Self::Panicked,
        Self::Failed,
        Self::PoolPoisonings,
        Self::Ctas,
        Self::GuestCtas,
        Self::Steals,
        Self::Deferrals,
        Self::Recoveries,
        Self::WaitStallNs,
        Self::Incidents,
    ];

    /// Position of `self` in [`ServiceCounter::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|c| *c == self).expect("every counter is in ALL")
    }

    /// The Prometheus metric name this counter exports under.
    #[must_use]
    pub fn metric_name(self) -> &'static str {
        match self {
            Self::Submitted => "streamk_serve_submitted_total",
            Self::Rejected => "streamk_serve_rejected_total",
            Self::Completed => "streamk_serve_completed_total",
            Self::TimedOut => "streamk_serve_timed_out_total",
            Self::Cancelled => "streamk_serve_cancelled_total",
            Self::Panicked => "streamk_serve_panicked_total",
            Self::Failed => "streamk_serve_failed_total",
            Self::PoolPoisonings => "streamk_serve_pool_poisonings_total",
            Self::Ctas => "streamk_serve_ctas_total",
            Self::GuestCtas => "streamk_serve_guest_ctas_total",
            Self::Steals => "streamk_serve_steals_total",
            Self::Deferrals => "streamk_serve_deferrals_total",
            Self::Recoveries => "streamk_serve_recoveries_total",
            Self::WaitStallNs => "streamk_serve_wait_stall_ns_total",
            Self::Incidents => "streamk_serve_incidents_total",
        }
    }

    /// One-line HELP text for the exposition format.
    #[must_use]
    pub fn help(self) -> &'static str {
        match self {
            Self::Submitted => "Requests accepted into the queue",
            Self::Rejected => "Submissions refused (queue full, shutdown, or invalid)",
            Self::Completed => "Requests completed with a result",
            Self::TimedOut => "Requests that missed their deadline",
            Self::Cancelled => "Requests cancelled",
            Self::Panicked => "Requests failed by a worker panic",
            Self::Failed => "Requests failed by an unmaskable protocol error",
            Self::PoolPoisonings => "Panics that escaped per-CTA isolation",
            Self::Ctas => "CTAs claimed and executed across all requests",
            Self::GuestCtas => "CTAs executed by callers waiting on a handle (subset of ctas)",
            Self::Steals => "Cross-request claims (work conservation across tenants)",
            Self::Deferrals => "Owner consolidations parked cooperatively",
            Self::Recoveries => "Peer contributions recomputed by recovery",
            Self::WaitStallNs => "Nanoseconds owners spent blocked in fixup waits",
            Self::Incidents => "Incident reports produced by the anomaly path",
        }
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// What happened to a request at one lifecycle edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceEventKind {
    /// Accepted into a pending lane.
    Submitted,
    /// Refused at submission.
    Rejected,
    /// Moved from a pending lane into the active window.
    Admitted,
    /// First CTA claimed (queue wait ends here).
    Started,
    /// Resolved with a result.
    Completed,
    /// Resolved by deadline expiry.
    TimedOut,
    /// Resolved by cancellation.
    Cancelled,
    /// Resolved by a worker panic.
    Panicked,
    /// Resolved by an unmaskable protocol error.
    Failed,
    /// The pool backstop caught an escaped panic.
    Poisoned,
}

impl ServiceEventKind {
    /// Every kind, in dense-index order.
    pub const ALL: [Self; 10] = [
        Self::Submitted,
        Self::Rejected,
        Self::Admitted,
        Self::Started,
        Self::Completed,
        Self::TimedOut,
        Self::Cancelled,
        Self::Panicked,
        Self::Failed,
        Self::Poisoned,
    ];

    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Submitted => "submitted",
            Self::Rejected => "rejected",
            Self::Admitted => "admitted",
            Self::Started => "started",
            Self::Completed => "completed",
            Self::TimedOut => "timed_out",
            Self::Cancelled => "cancelled",
            Self::Panicked => "panicked",
            Self::Failed => "failed",
            Self::Poisoned => "poisoned",
        }
    }

    /// Position of `self` in [`ServiceEventKind::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|k| *k == self).expect("every kind is in ALL")
    }
}

/// One stable flight-recorder entry, read back via
/// [`FlightRecorder::recent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceEvent {
    /// Global recording order (monotonic across the recorder's life).
    pub seq: u64,
    /// What happened.
    pub kind: ServiceEventKind,
    /// The request's service-assigned id (`u64::MAX` when the event
    /// predates an id, e.g. a structural rejection).
    pub request: u64,
    /// The request's admission lane (index into [`LANE_NAMES`]).
    pub lane: usize,
    /// Nanoseconds since the registry epoch.
    pub at_ns: u64,
    /// Kind-specific detail (claim index for `Started`, 0 otherwise).
    pub detail: u64,
}

/// An always-on, bounded ring of recent service events behind one
/// mutex: recording holds the lock for a `VecDeque` push, never
/// allocates after construction, and drops the oldest entry when full
/// (drop-oldest, like [`SpanRing`](crate::trace::SpanRing)). A request
/// records about four events, most of them while the service already
/// holds its queue lock; the recorder's lock is a leaf, taken last and
/// never held across another.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<EventRing>,
    capacity: usize,
    epoch: Instant,
}

/// The recorder's state: the surviving events, oldest first, and how
/// many were ever recorded (the next event's `seq`).
#[derive(Debug)]
struct EventRing {
    events: VecDeque<ServiceEvent>,
    recorded: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events, with event
    /// timestamps relative to `epoch`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, epoch: Instant) -> Self {
        assert!(capacity > 0, "flight recorder needs capacity");
        let ring = EventRing { events: VecDeque::with_capacity(capacity), recorded: 0 };
        Self { ring: Mutex::new(ring), capacity, epoch }
    }

    /// Maximum events held before drop-oldest kicks in.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events recorded since construction (including ones the
    /// ring has since dropped).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.lock().recorded
    }

    /// Records one event, dropping the oldest when the ring is full.
    /// `seq` and the timestamp are taken under the lock, so they
    /// order alike.
    pub fn record(&self, kind: ServiceEventKind, request: u64, lane: usize, detail: u64) {
        let mut ring = self.lock();
        let event = ServiceEvent {
            seq: ring.recorded,
            kind,
            request,
            lane: lane.min(LANES - 1),
            at_ns: self.epoch.elapsed().as_nanos() as u64,
            detail,
        };
        ring.recorded += 1;
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
        }
        ring.events.push_back(event);
    }

    /// The surviving events, oldest-first.
    #[must_use]
    pub fn recent(&self) -> Vec<ServiceEvent> {
        self.lock().events.iter().copied().collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, EventRing> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

// ---------------------------------------------------------------------------
// Incident reports
// ---------------------------------------------------------------------------

/// A structured anomaly dump: what failed, the recent event history,
/// a counter snapshot, and the failing request's spans. Serialized by
/// [`to_json`](Self::to_json); the schema is documented in
/// DESIGN.md §16.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentReport {
    /// Incident sequence number (per registry, from 0).
    pub seq: u64,
    /// Why the dump fired: `timeout`, `panic`, `failure`,
    /// `deadline_breach`, or `pool_poisoning`.
    pub reason: String,
    /// The failing request's id (`u64::MAX` for service-wide
    /// incidents like a pool poisoning).
    pub request: u64,
    /// The failing request's lane (index into [`LANE_NAMES`]).
    pub lane: usize,
    /// Nanoseconds since the registry epoch when the dump fired.
    pub at_ns: u64,
    /// The flight recorder's surviving events, oldest-first.
    pub events: Vec<ServiceEvent>,
    /// Counter values at dump time, in [`ServiceCounter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// The failing request's recorded spans (empty when per-request
    /// tracing was off).
    pub spans: Vec<Span>,
}

impl IncidentReport {
    /// Serializes the report as a self-contained JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str(&format!("  \"seq\": {},\n", self.seq));
        s.push_str(&format!("  \"reason\": \"{}\",\n", escape_json(&self.reason)));
        if self.request == u64::MAX {
            s.push_str("  \"request\": null,\n");
        } else {
            s.push_str(&format!("  \"request\": {},\n", self.request));
        }
        s.push_str(&format!("  \"lane\": \"{}\",\n", LANE_NAMES[self.lane.min(LANES - 1)]));
        s.push_str(&format!("  \"at_ns\": {},\n", self.at_ns));
        s.push_str("  \"events\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            let req = if e.request == u64::MAX { "null".to_string() } else { e.request.to_string() };
            s.push_str(&format!(
                "    {{\"seq\": {}, \"kind\": \"{}\", \"request\": {}, \"lane\": \"{}\", \"at_ns\": {}, \"detail\": {}}}{}\n",
                e.seq,
                e.kind.name(),
                req,
                LANE_NAMES[e.lane.min(LANES - 1)],
                e.at_ns,
                e.detail,
                if i + 1 < self.events.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"counters\": {\n");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            s.push_str(&format!(
                "    \"{}\": {}{}\n",
                name,
                value,
                if i + 1 < self.counters.len() { "," } else { "" },
            ));
        }
        s.push_str("  },\n");
        s.push_str("  \"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"kind\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"arg\": {}, \"arg2\": {}}}{}\n",
                sp.kind.name(),
                sp.start_ns,
                sp.end_ns,
                sp.arg,
                sp.arg2,
                if i + 1 < self.spans.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

// ---------------------------------------------------------------------------
// Per-request traces
// ---------------------------------------------------------------------------

/// The harvested span timeline of one finished request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// Service-assigned request id.
    pub id: u64,
    /// Admission lane (index into [`LANE_NAMES`]).
    pub lane: usize,
    /// The request's spans, in end-time order. Timestamps are
    /// relative to the service (registry) epoch, so tracks from
    /// different requests align on one timeline. A `Cta` span's `arg2`
    /// is the id of the thread that executed it: below
    /// `GemmService::workers()` a pool worker, from there up a caller
    /// computing inside `CompletionHandle::wait`.
    pub spans: Vec<Span>,
    /// Spans lost to per-request ring overflow.
    pub dropped: usize,
}

/// All harvested request timelines from one service run — the serve
/// analogue of `ExecTrace`, with one track *per request* instead of
/// per worker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeTrace {
    /// Finished requests' timelines, in completion order.
    pub requests: Vec<RequestTrace>,
    /// Whole request traces dropped because the harvest buffer
    /// filled (oldest first).
    pub dropped_requests: usize,
}

impl ServeTrace {
    /// Total spans across all harvested requests.
    #[must_use]
    pub fn total_spans(&self) -> usize {
        self.requests.iter().map(|r| r.spans.len()).sum()
    }

    /// Writes the trace into `w` as process `pid`: one thread per
    /// request (named `req<id> (<lane>)`), one complete event per
    /// span with kind-specific args, as in `ExecTrace` — queue wait
    /// renders as a first-class phase at the start of each track.
    pub fn write_chrome_trace(&self, w: &mut TraceWriter, pid: usize, process_name: &str) {
        w.process_name(pid, process_name);
        for r in &self.requests {
            let tid = r.id as usize;
            w.thread_name(pid, tid, &format!("req{} ({})", r.id, LANE_NAMES[r.lane]));
            for span in &r.spans {
                write_span(w, pid, tid, span);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// The unified service telemetry registry. One instance lives for a
/// `GemmService`'s whole lifetime (shared via `Arc`); the service's
/// `ServiceStats` snapshots are *derived from it*, so the Prometheus
/// export and the programmatic stats cannot drift apart.
#[derive(Debug)]
pub struct TelemetryRegistry {
    counters: [AtomicU64; ServiceCounter::ALL.len()],
    lane_depth: [AtomicUsize; LANES],
    active_depth: AtomicUsize,
    lane_admitted: [AtomicU64; LANES],
    lane_latency: Mutex<[Histogram; LANES]>,
    flight: FlightRecorder,
    incidents: Mutex<Vec<IncidentReport>>,
    incident_seq: AtomicU64,
    incident_dir: Mutex<Option<PathBuf>>,
    traces: Mutex<ServeTrace>,
    epoch: Instant,
}

impl Default for TelemetryRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryRegistry {
    /// A fresh registry whose flight recorder holds
    /// [`DEFAULT_FLIGHT_CAPACITY`] events.
    #[must_use]
    pub fn new() -> Self {
        let epoch = Instant::now();
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            lane_depth: std::array::from_fn(|_| AtomicUsize::new(0)),
            active_depth: AtomicUsize::new(0),
            lane_admitted: std::array::from_fn(|_| AtomicU64::new(0)),
            lane_latency: Mutex::new([Histogram::default(); LANES]),
            flight: FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY, epoch),
            incidents: Mutex::new(Vec::new()),
            incident_seq: AtomicU64::new(0),
            incident_dir: Mutex::new(None),
            traces: Mutex::new(ServeTrace::default()),
            epoch,
        }
    }

    /// The instant all registry (and serve-span) timestamps are
    /// relative to.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Increments `counter` by `n`.
    pub fn add(&self, counter: ServiceCounter, n: u64) {
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Increments `counter` by one.
    pub fn inc(&self, counter: ServiceCounter) {
        self.add(counter, 1);
    }

    /// Current value of `counter`.
    #[must_use]
    pub fn get(&self, counter: ServiceCounter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Publishes a lane's pending-queue depth gauge.
    pub fn set_lane_depth(&self, lane: usize, depth: usize) {
        self.lane_depth[lane.min(LANES - 1)].store(depth, Ordering::Relaxed);
    }

    /// Publishes the active-window occupancy gauge.
    pub fn set_active_depth(&self, depth: usize) {
        self.active_depth.store(depth, Ordering::Relaxed);
    }

    /// Counts one admission into the active window on `lane`.
    pub fn count_admission(&self, lane: usize) {
        self.lane_admitted[lane.min(LANES - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one finished request's submission→resolution latency
    /// into its lane's histogram.
    pub fn record_latency(&self, lane: usize, latency_ns: u64) {
        let mut lat = self.lane_latency.lock().unwrap_or_else(PoisonError::into_inner);
        lat[lane.min(LANES - 1)].record(latency_ns);
    }

    /// The always-on flight recorder.
    #[must_use]
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Directs incident dumps to files under `dir` (created on first
    /// dump) in addition to the in-memory log.
    pub fn set_incident_dir(&self, dir: impl Into<PathBuf>) {
        *self.incident_dir.lock().unwrap_or_else(PoisonError::into_inner) = Some(dir.into());
    }

    /// Counter snapshot in [`ServiceCounter::ALL`] order.
    fn counter_snapshot(&self) -> Vec<(&'static str, u64)> {
        ServiceCounter::ALL.iter().map(|c| (c.metric_name(), self.get(*c))).collect()
    }

    /// Fires an incident: snapshots the flight recorder and counters,
    /// attaches the failing request's `spans`, stores the report in
    /// the bounded in-memory log, and writes
    /// `incident-<seq>-<reason>.json` when an incident directory is
    /// configured. Returns the report's sequence number.
    pub fn incident(&self, reason: &str, request: u64, lane: usize, spans: Vec<Span>) -> u64 {
        let seq = self.incident_seq.fetch_add(1, Ordering::Relaxed);
        self.inc(ServiceCounter::Incidents);
        let report = IncidentReport {
            seq,
            reason: reason.to_string(),
            request,
            lane,
            at_ns: self.epoch.elapsed().as_nanos() as u64,
            events: self.flight.recent(),
            counters: self.counter_snapshot(),
            spans,
        };
        if let Some(dir) =
            self.incident_dir.lock().unwrap_or_else(PoisonError::into_inner).clone()
        {
            let _ = std::fs::create_dir_all(&dir);
            let path = dir.join(format!("incident-{seq:04}-{reason}.json"));
            let _ = std::fs::write(path, report.to_json());
        }
        let mut log = self.incidents.lock().unwrap_or_else(PoisonError::into_inner);
        if log.len() >= MAX_INCIDENTS {
            log.remove(0);
        }
        log.push(report);
        seq
    }

    /// The in-memory incident log, oldest-first (bounded).
    #[must_use]
    pub fn incidents(&self) -> Vec<IncidentReport> {
        self.incidents.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Harvests one finished request's span timeline into the trace
    /// buffer (drop-oldest beyond the bound).
    pub fn harvest_trace(&self, trace: RequestTrace) {
        let mut sink = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
        if sink.requests.len() >= MAX_REQUEST_TRACES {
            sink.requests.remove(0);
            sink.dropped_requests += 1;
        }
        sink.requests.push(trace);
    }

    /// Takes (and clears) every harvested request timeline.
    ///
    /// Same-id fragments merge into one track, sorted by end time like
    /// every track a harvest drains from the worker rings. The
    /// claim that completes a request returns its ring before the
    /// resolution harvest drains it, so a second fragment comes only
    /// from a straggler of a dead request: a CTA or resumption still
    /// running on another thread returns its ring after the harvest,
    /// and the serve loop re-harvests the leftovers under the same id.
    #[must_use]
    pub fn take_trace(&self) -> ServeTrace {
        let mut raw =
            std::mem::take(&mut *self.traces.lock().unwrap_or_else(PoisonError::into_inner));
        let mut requests: Vec<RequestTrace> = Vec::with_capacity(raw.requests.len());
        for fragment in raw.requests.drain(..) {
            if let Some(track) = requests.iter_mut().find(|r| r.id == fragment.id) {
                track.spans.extend(fragment.spans);
                track.spans.sort_by_key(|span| span.end_ns);
                track.dropped += fragment.dropped;
            } else {
                requests.push(fragment);
            }
        }
        ServeTrace { requests, dropped_requests: raw.dropped_requests }
    }

    /// Renders the whole registry in Prometheus text exposition
    /// format: every [`ServiceCounter`], the lane gauges, and per-lane
    /// latency histograms with p50/p99 estimate gauges.
    #[must_use]
    pub fn render(&self) -> String {
        use crate::trace::BUCKET_LIMITS_NS;
        let mut s = String::with_capacity(8192);
        for c in ServiceCounter::ALL {
            s.push_str(&format!("# HELP {} {}\n", c.metric_name(), c.help()));
            s.push_str(&format!("# TYPE {} counter\n", c.metric_name()));
            s.push_str(&format!("{} {}\n", c.metric_name(), self.get(c)));
        }
        s.push_str("# HELP streamk_serve_queue_depth Pending requests per admission lane\n");
        s.push_str("# TYPE streamk_serve_queue_depth gauge\n");
        for (lane, name) in LANE_NAMES.iter().enumerate() {
            s.push_str(&format!(
                "streamk_serve_queue_depth{{lane=\"{name}\"}} {}\n",
                self.lane_depth[lane].load(Ordering::Relaxed)
            ));
        }
        s.push_str("# HELP streamk_serve_active_requests Requests in the active window\n");
        s.push_str("# TYPE streamk_serve_active_requests gauge\n");
        s.push_str(&format!(
            "streamk_serve_active_requests {}\n",
            self.active_depth.load(Ordering::Relaxed)
        ));
        s.push_str("# HELP streamk_serve_admitted_total Admissions into the active window\n");
        s.push_str("# TYPE streamk_serve_admitted_total counter\n");
        for (lane, name) in LANE_NAMES.iter().enumerate() {
            s.push_str(&format!(
                "streamk_serve_admitted_total{{lane=\"{name}\"}} {}\n",
                self.lane_admitted[lane].load(Ordering::Relaxed)
            ));
        }
        let lat = *self.lane_latency.lock().unwrap_or_else(PoisonError::into_inner);
        s.push_str(
            "# HELP streamk_serve_latency_ns Submission-to-resolution latency per lane\n",
        );
        s.push_str("# TYPE streamk_serve_latency_ns histogram\n");
        for (lane, name) in LANE_NAMES.iter().enumerate() {
            let h = &lat[lane];
            let mut cum = 0u64;
            for (idx, limit) in BUCKET_LIMITS_NS.iter().enumerate() {
                cum += h.bucket(idx);
                let le = if *limit == u64::MAX { "+Inf".to_string() } else { limit.to_string() };
                s.push_str(&format!(
                    "streamk_serve_latency_ns_bucket{{lane=\"{name}\",le=\"{le}\"}} {cum}\n"
                ));
            }
            s.push_str(&format!(
                "streamk_serve_latency_ns_sum{{lane=\"{name}\"}} {}\n",
                h.sum_ns()
            ));
            s.push_str(&format!(
                "streamk_serve_latency_ns_count{{lane=\"{name}\"}} {}\n",
                h.count()
            ));
        }
        s.push_str("# HELP streamk_serve_latency_p50_ns Estimated per-lane median latency\n");
        s.push_str("# TYPE streamk_serve_latency_p50_ns gauge\n");
        for (lane, name) in LANE_NAMES.iter().enumerate() {
            s.push_str(&format!(
                "streamk_serve_latency_p50_ns{{lane=\"{name}\"}} {}\n",
                lat[lane].quantile_ns(0.50)
            ));
        }
        s.push_str("# HELP streamk_serve_latency_p99_ns Estimated per-lane p99 latency\n");
        s.push_str("# TYPE streamk_serve_latency_p99_ns gauge\n");
        for (lane, name) in LANE_NAMES.iter().enumerate() {
            s.push_str(&format!(
                "streamk_serve_latency_p99_ns{{lane=\"{name}\"}} {}\n",
                lat[lane].quantile_ns(0.99)
            ));
        }
        s
    }
}

/// The span kinds a per-request serve timeline records — exported so
/// tests can assert the vocabulary stays laminar (every recorded span
/// is one of these; no single-launch-only kind leaks in). A request
/// packs privately, never through a pack cache, and has no launch
/// handshake.
pub const SERVE_SPAN_KINDS: [SpanKind; 10] = [
    SpanKind::QueueWait,
    SpanKind::Cta,
    SpanKind::Mac,
    SpanKind::PackPrivate,
    SpanKind::Signal,
    SpanKind::Wait,
    SpanKind::LoadPartials,
    SpanKind::DeferPark,
    SpanKind::DeferResume,
    SpanKind::Recovery,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_have_distinct_names_and_dense_indices() {
        let mut names: Vec<&str> =
            ServiceCounter::ALL.iter().map(|c| c.metric_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ServiceCounter::ALL.len());
        for (i, c) in ServiceCounter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, k) in ServiceEventKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn flight_recorder_drops_oldest_deterministically() {
        let rec = FlightRecorder::new(4, Instant::now());
        for i in 0..10u64 {
            rec.record(ServiceEventKind::Submitted, i, (i % 3) as usize, i * 10);
        }
        assert_eq!(rec.recorded(), 10);
        let events = rec.recent();
        assert_eq!(events.len(), 4, "capacity bounds survivors");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "exactly the newest survive, oldest-first");
        assert_eq!(events[0].request, 6);
        assert_eq!(events[0].detail, 60);
    }

    #[test]
    fn flight_recorder_survives_concurrent_writers() {
        let rec = std::sync::Arc::new(FlightRecorder::new(32, Instant::now()));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let rec = std::sync::Arc::clone(&rec);
                scope.spawn(move || {
                    for i in 0..100u64 {
                        rec.record(ServiceEventKind::Started, t * 1000 + i, 0, 0);
                    }
                });
            }
        });
        assert_eq!(rec.recorded(), 400);
        let events = rec.recent();
        assert!(events.len() <= 32);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq), "strictly ordered");
    }

    #[test]
    fn incident_reports_serialize_and_stay_bounded() {
        let reg = TelemetryRegistry::new();
        reg.inc(ServiceCounter::Submitted);
        reg.flight().record(ServiceEventKind::Submitted, 0, 1, 0);
        reg.flight().record(ServiceEventKind::TimedOut, 0, 1, 0);
        let seq = reg.incident(
            "timeout",
            0,
            1,
            vec![Span { kind: SpanKind::QueueWait, start_ns: 0, end_ns: 5, arg: 1, arg2: 0 }],
        );
        assert_eq!(seq, 0);
        let incidents = reg.incidents();
        assert_eq!(incidents.len(), 1);
        let json = incidents[0].to_json();
        assert!(json.contains("\"reason\": \"timeout\""));
        assert!(json.contains("\"kind\": \"timed_out\""));
        assert!(json.contains("\"queue_wait\""));
        assert!(json.contains("\"streamk_serve_submitted_total\": 1"));
        assert_eq!(reg.get(ServiceCounter::Incidents), 1);
    }

    #[test]
    fn render_reports_every_declared_counter() {
        let reg = TelemetryRegistry::new();
        reg.add(ServiceCounter::Completed, 3);
        reg.record_latency(0, 5_000);
        let text = reg.render();
        for c in ServiceCounter::ALL {
            assert!(text.contains(c.metric_name()), "missing {}", c.metric_name());
        }
        assert!(text.contains("streamk_serve_completed_total 3"));
        assert!(text.contains("streamk_serve_latency_ns_count{lane=\"high\"} 1"));
    }

    /// The converse of `render_reports_every_declared_counter`: every
    /// family the export emits is a [`ServiceCounter`] or one of the
    /// lane and latency families, each typed once.
    #[test]
    fn render_emits_only_declared_families() {
        const LANE_AND_LATENCY: [&str; 6] = [
            "streamk_serve_queue_depth",
            "streamk_serve_active_requests",
            "streamk_serve_admitted_total",
            "streamk_serve_latency_ns",
            "streamk_serve_latency_p50_ns",
            "streamk_serve_latency_p99_ns",
        ];
        let mut declared: Vec<&str> =
            ServiceCounter::ALL.iter().map(|c| c.metric_name()).chain(LANE_AND_LATENCY).collect();
        let reg = TelemetryRegistry::new();
        reg.record_latency(0, 5_000);
        let text = reg.render();
        let mut typed = Vec::new();
        for line in text.lines() {
            let family = if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().unwrap_or_default();
                typed.push(name);
                name
            } else if let Some(rest) = line.strip_prefix("# HELP ") {
                rest.split(' ').next().unwrap_or_default()
            } else {
                let sample = line.split(['{', ' ']).next().unwrap_or_default();
                ["_bucket", "_sum", "_count"]
                    .iter()
                    .find_map(|suffix| sample.strip_suffix(suffix))
                    .unwrap_or(sample)
            };
            assert!(declared.contains(&family), "undeclared family {family:?} in {line:?}");
        }
        typed.sort_unstable();
        declared.sort_unstable();
        assert_eq!(typed, declared, "every declared family is typed once");
    }

    /// A straggler's fragment harvested after its request's track
    /// merges into that track, and the merged track is in end-time
    /// order like every other.
    #[test]
    fn take_trace_merges_same_id_fragments_in_end_order() {
        let span = |end_ns| Span { kind: SpanKind::Cta, start_ns: end_ns - 10, end_ns, arg: 0, arg2: 0 };
        let track = |id, ends: &[u64], dropped| RequestTrace { id, lane: 1, spans: ends.iter().map(|&e| span(e)).collect(), dropped };
        let reg = TelemetryRegistry::new();
        reg.harvest_trace(track(7, &[20, 40, 60], 1));
        reg.harvest_trace(track(8, &[50], 0));
        reg.harvest_trace(track(7, &[30, 50, 70], 2));
        let trace = reg.take_trace();
        assert_eq!(trace.requests.len(), 2);
        let merged = &trace.requests[0];
        assert_eq!((merged.id, merged.dropped), (7, 3));
        let ends: Vec<u64> = merged.spans.iter().map(|s| s.end_ns).collect();
        assert_eq!(ends, [20, 30, 40, 50, 60, 70]);
        assert!(reg.take_trace().requests.is_empty(), "take_trace clears the buffer");
    }

    #[test]
    fn serve_trace_renders_one_thread_per_request() {
        use streamk_core::tev::validate_json;
        let trace = ServeTrace {
            requests: vec![
                RequestTrace {
                    id: 0,
                    lane: 0,
                    spans: vec![Span {
                        kind: SpanKind::QueueWait,
                        start_ns: 0,
                        end_ns: 1_000,
                        arg: 0,
                        arg2: 0,
                    }],
                    dropped: 0,
                },
                RequestTrace {
                    id: 1,
                    lane: 2,
                    spans: vec![Span {
                        kind: SpanKind::Cta,
                        start_ns: 500,
                        end_ns: 2_000,
                        arg: 3,
                        arg2: 1,
                    }],
                    dropped: 0,
                },
            ],
            dropped_requests: 0,
        };
        let mut w = TraceWriter::new();
        trace.write_chrome_trace(&mut w, 3, "streamk-serve");
        let json = w.finish();
        validate_json(&json).unwrap();
        assert!(json.contains("req0 (high)"));
        assert!(json.contains("req1 (bulk)"));
        assert!(json.contains(r#""name": "queue_wait""#));
        // Spans carry their kind's arg names: the worker that ran a CTA
        // is on the request's track.
        assert!(json.contains(r#""args": {"lane": 0, "request": 0}"#), "{json}");
        assert!(json.contains(r#""args": {"cta": 3, "worker": 1}"#), "{json}");
    }
}
