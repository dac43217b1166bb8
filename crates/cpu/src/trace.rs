//! Measured-timeline tracing for the CPU executor.
//!
//! The simulator *predicts* where time goes; this module lets the
//! executor *measure* it. When
//! [`ExecutorConfig::trace`](crate::ExecutorConfig) is on, every pool
//! worker records
//! typed [`Span`]s — CTA claims and steals, panel packing, MAC-loop
//! runs, the fixup protocol (signal / wait / load-partials), deferral
//! parking, and fault recovery — into a worker-private, fixed-capacity
//! [`SpanRing`].
//!
//! **Overhead discipline.** The recording path is lock-free and
//! allocation-free: for the length of a launch each worker has its
//! ring [`install`]ed in a thread-local (so no sharing, no atomics, no
//! locks), timestamps are taken once per event boundary with
//! [`Instant::now`], and a full ring *drops the oldest span* and
//! counts it — it never blocks and never grows. When tracing is off,
//! [`start`] is a thread-local flag check returning `None`, and
//! [`finish`] on `None` is a no-op; nothing is allocated
//! ([`ring_allocations`] lets tests and CI pin that to exactly zero).
//! Tracing never changes results: spans observe the computation,
//! bit-exactness is pinned by tests.
//!
//! **Where rings live.** Between launches the rings belong to worker
//! *ids*, not to threads: the executor keeps one [`WorkerTracer`] per
//! worker in the pool's launch-level store and hands each to whichever
//! thread runs that id, for that launch only. Worker 0 is the calling
//! thread — any thread — so a ring left behind in a thread-local
//! would cost one allocation per launcher thread; this way a warm
//! executor allocates exactly `workers` rings however many threads
//! launch on it.
//!
//! After a traced launch the executor drains each worker's ring into
//! an [`ExecTrace`] (see
//! [`CpuExecutor::last_trace`](crate::CpuExecutor::last_trace)), which
//! aggregates into [`Metrics`] (per-kind counters plus fixed-bucket
//! duration histograms) and exports through the shared
//! [`TraceWriter`] so measured worker timelines open in Perfetto next
//! to the simulator's predicted timeline — the `streamk profile`
//! subcommand emits exactly that merge.

use crate::pad::CachePadded;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use streamk_core::tev::{ArgValue, TraceWriter};
pub use streamk_core::{Phase, SpanKind};

/// Default per-worker span-ring capacity (spans). At 32 bytes per
/// span this is 512 KiB per worker — roomy enough that realistic
/// launches drop nothing, small enough to stay cache-friendly.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 14;

/// Ring buffers allocated process-wide since start. Tracing-off
/// launches must not move this counter — the profile CLI and CI assert
/// a delta of zero around an untraced run.
static RING_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Span rings allocated process-wide since program start.
#[must_use]
pub fn ring_allocations() -> usize {
    RING_ALLOCS.load(Ordering::Relaxed)
}

/// One recorded worker event: a kind, a half-open `[start, end)`
/// nanosecond interval relative to the launch epoch, and two
/// kind-specific arguments (see [`SpanKind`] for what each records).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the worker was doing.
    pub kind: SpanKind,
    /// Start, nanoseconds since the launch epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the launch epoch.
    pub end_ns: u64,
    /// First kind-specific argument (CTA id, tile index, peer id...).
    pub arg: u32,
    /// Second kind-specific argument (iterations, backoff rounds...).
    pub arg2: u32,
}

impl Span {
    /// Span duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Fixed-capacity span buffer: full means drop-oldest, never block,
/// never reallocate.
#[derive(Debug)]
pub struct SpanRing {
    buf: Vec<Span>,
    /// Overwrite cursor once the buffer is full (index of the oldest).
    next: usize,
    dropped: usize,
}

impl SpanRing {
    /// A ring holding at most `capacity` spans; its single allocation
    /// happens here (and is counted by [`ring_allocations`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "span ring needs capacity");
        RING_ALLOCS.fetch_add(1, Ordering::Relaxed);
        Self { buf: Vec::with_capacity(capacity), next: 0, dropped: 0 }
    }

    /// Appends `span`, overwriting (and counting) the oldest recorded
    /// span when full. Never allocates: the buffer was sized at
    /// construction.
    pub fn push(&mut self, span: Span) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(span);
        } else {
            self.buf[self.next] = span;
            self.next = (self.next + 1) % self.buf.capacity();
            self.dropped += 1;
        }
    }

    /// Spans currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no spans are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum spans held before drop-oldest kicks in.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Spans dropped to overwrites so far.
    #[must_use]
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Consumes the ring, returning surviving spans oldest-first.
    #[must_use]
    pub fn into_spans(mut self) -> Vec<Span> {
        self.buf.rotate_left(self.next);
        self.buf
    }

    /// Copies the surviving spans out (oldest-first) and empties the
    /// ring, keeping its allocation for the next launch. The returned
    /// vector is sized to the span count, not the ring capacity.
    #[must_use]
    pub fn drain_spans(&mut self) -> Vec<Span> {
        self.buf.rotate_left(self.next);
        let spans = self.buf.clone();
        self.clear();
        spans
    }

    /// Empties the ring without touching its allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
        self.dropped = 0;
    }
}

/// A worker's tracer for one launch: the launch epoch plus its ring.
#[derive(Debug)]
pub struct WorkerTracer {
    epoch: Instant,
    ring: SpanRing,
}

impl WorkerTracer {
    /// A tracer whose span timestamps are relative to `epoch` (the
    /// launch start, shared by every worker so timelines align).
    #[must_use]
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Self { epoch, ring: SpanRing::new(capacity) }
    }

    /// Records one span directly (no thread-local involved): how the
    /// launcher adds the [`SpanKind::Launch`] spans it alone can time.
    pub fn record(&mut self, kind: SpanKind, start: Instant, end: Instant, arg: u32, arg2: u32) {
        let rel = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.ring.push(Span { kind, start_ns: rel(start), end_ns: rel(end), arg, arg2 });
    }

    /// Consumes the tracer into its recorded spans.
    #[must_use]
    pub fn into_trace(self) -> WorkerTrace {
        let dropped = self.ring.dropped();
        WorkerTrace { spans: self.ring.into_spans(), dropped }
    }

    /// Copies the recorded spans out and empties the ring, keeping its
    /// allocation for the next launch.
    #[must_use]
    pub fn drain(&mut self) -> WorkerTrace {
        let dropped = self.ring.dropped();
        WorkerTrace { spans: self.ring.drain_spans(), dropped }
    }

    /// Rebases the tracer on a new launch epoch, discarding any spans
    /// left from the previous launch but keeping the ring allocation.
    pub fn reset(&mut self, epoch: Instant) {
        self.epoch = epoch;
        self.ring.clear();
    }

    /// The ring's capacity in spans.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Whether nothing has been recorded since the last
    /// [`reset`](Self::reset) or [`drain`](Self::drain).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// Span rings between recordings of one capacity: a ring drained from
/// one recording's [`WorkerRings`] rests here until a worker of another
/// one records, so a traced service allocates rings for its peak
/// concurrency, not per request — a fresh ring per request and worker
/// cost as much as the shared lock it replaced.
pub(crate) type SpareRings = Arc<Mutex<Vec<SpanRing>>>;

/// One span ring per worker id for a recording that several workers
/// feed at once — a traced service request. Worker `wid` records into
/// ring `wid % rings`, each on its own cache line behind its own lock,
/// so two workers on one request never bounce a shared lock between
/// their cores. A slot takes a ring from the shared spares the first
/// time its worker records; [`drain`](Self::drain) merges the slots
/// back into one track and returns their rings to the spares.
#[derive(Debug)]
pub(crate) struct WorkerRings {
    epoch: Instant,
    capacity: usize,
    rings: Box<[CachePadded<Mutex<Option<SpanRing>>>]>,
    spare: SpareRings,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl WorkerRings {
    /// `rings` slots (at least one) of `capacity` spans each, their
    /// timestamps relative to `epoch`, drawing rings from `spare`, which
    /// holds rings of that capacity only.
    pub(crate) fn new(epoch: Instant, capacity: usize, rings: usize, spare: &SpareRings) -> Self {
        let rings = (0..rings).map(|_| CachePadded::new(Mutex::new(None))).collect();
        Self { epoch, capacity, rings, spare: Arc::clone(spare) }
    }

    fn slot(&self, wid: usize) -> MutexGuard<'_, Option<SpanRing>> {
        lock(&self.rings[wid % self.rings.len()].0)
    }

    /// Records `[start, end)` into worker `wid`'s ring.
    pub(crate) fn record(&self, wid: usize, kind: SpanKind, start: Instant, end: Instant, arg: u32, arg2: u32) {
        let rel = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span { kind, start_ns: rel(start), end_ns: rel(end), arg, arg2 };
        let mut slot = self.slot(wid);
        let ring = slot.get_or_insert_with(|| lock(&self.spare).pop().unwrap_or_else(|| SpanRing::new(self.capacity)));
        ring.push(span);
    }

    /// Empties every ring into one track in finish order — the order
    /// one shared ring would have kept — with their drops summed.
    pub(crate) fn drain(&self) -> WorkerTrace {
        let (mut spans, mut dropped) = (Vec::new(), 0);
        for wid in 0..self.rings.len() {
            let Some(mut ring) = self.slot(wid).take() else { continue };
            dropped += ring.dropped();
            spans.append(&mut ring.drain_spans());
            lock(&self.spare).push(ring);
        }
        spans.sort_by_key(|s| s.end_ns);
        WorkerTrace { spans, dropped }
    }
}

thread_local! {
    /// Fast-path flag: `true` only between [`install`] and [`take`].
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<WorkerTracer>> = const { RefCell::new(None) };
}

/// Installs `tracer` on the current thread; subsequent [`start`] /
/// [`finish`] calls record into it until [`take`].
pub fn install(tracer: WorkerTracer) {
    TRACER.with(|t| *t.borrow_mut() = Some(tracer));
    ACTIVE.with(|a| a.set(true));
}

/// Removes and returns the current thread's tracer, disabling
/// recording. `None` when none was installed.
pub fn take() -> Option<WorkerTracer> {
    ACTIVE.with(|a| a.set(false));
    TRACER.with(|t| t.borrow_mut().take())
}

/// Whether a tracer is installed on the current thread.
#[must_use]
pub fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Opens a span: one timestamp when tracing, `None` (no syscall, no
/// allocation — a thread-local flag read) when not.
#[inline]
#[must_use]
pub fn start() -> Option<Instant> {
    if active() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Closes a span opened by [`start`]; a no-op when `t0` is `None`.
#[inline]
pub fn finish(kind: SpanKind, t0: Option<Instant>, arg: u32, arg2: u32) {
    if let Some(t0) = t0 {
        finish_at(kind, t0, arg, arg2);
    }
}

/// Closes a span that began at `t0` (for sites that need the
/// timestamp regardless of tracing, e.g. wait-stall accounting);
/// records only when tracing is on.
#[inline]
pub fn finish_at(kind: SpanKind, t0: Instant, arg: u32, arg2: u32) {
    if active() {
        record(kind, t0, Instant::now(), arg, arg2);
    }
}

/// Records a zero-duration marker span at "now".
#[inline]
pub fn instant(kind: SpanKind, arg: u32, arg2: u32) {
    if active() {
        let now = Instant::now();
        record(kind, now, now, arg, arg2);
    }
}

/// Records the span `[t0, t1)` into the current thread's tracer; a
/// no-op when none is installed.
#[inline]
pub(crate) fn record(kind: SpanKind, t0: Instant, t1: Instant, arg: u32, arg2: u32) {
    if !active() {
        return;
    }
    TRACER.with(|t| {
        if let Some(tracer) = t.borrow_mut().as_mut() {
            tracer.record(kind, t0, t1, arg, arg2);
        }
    });
}

/// One worker's spans from one launch, oldest-first, plus how many
/// were dropped to ring overflow.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerTrace {
    /// Surviving spans in recording (end-time) order.
    pub spans: Vec<Span>,
    /// Spans overwritten because the ring filled.
    pub dropped: usize,
}

/// The measured timeline of one traced launch: every worker's spans
/// plus the launch wall time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecTrace {
    /// Per-worker traces, indexed by pool worker id.
    pub workers: Vec<WorkerTrace>,
    /// Wall-clock duration of the launch, nanoseconds.
    pub wall_ns: u64,
}

impl ExecTrace {
    /// Total surviving spans across workers.
    #[must_use]
    pub fn total_spans(&self) -> usize {
        self.workers.iter().map(|w| w.spans.len()).sum()
    }

    /// Total spans dropped to ring overflow across workers.
    #[must_use]
    pub fn dropped_spans(&self) -> usize {
        self.workers.iter().map(|w| w.dropped).sum()
    }

    /// Iterates every surviving span with its worker id.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Span)> {
        self.workers.iter().enumerate().flat_map(|(wid, w)| w.spans.iter().map(move |s| (wid, s)))
    }

    /// Aggregates the trace into counters and histograms.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics { dropped_spans: self.dropped_spans() as u64, ..Metrics::default() };
        for worker in &self.workers {
            for (at, span) in worker.spans.iter().enumerate() {
                let i = span.kind.index();
                m.kind_count[i] += 1;
                m.kind_ns[i] += span.dur_ns();
                match span.kind {
                    SpanKind::Cta => m.cta_duration.record(span.dur_ns()),
                    SpanKind::Wait => m.wait_stall.record(span.dur_ns()),
                    SpanKind::PackPrivate | SpanKind::PackCached => {
                        m.pack_time.record(span.dur_ns());
                    }
                    SpanKind::Signal | SpanKind::LoadPartials => {
                        m.fixup_latency.record(span.dur_ns());
                    }
                    // One `Mac` (or `Recovery`) span encloses the pack
                    // spans of every chunk its segment walked. A ring
                    // keeps finish order, so they sit directly before
                    // it: everything back to the first span that
                    // started earlier than this one did.
                    SpanKind::Mac | SpanKind::Recovery => {
                        m.kind_nested_pack_ns[i] += worker.spans[..at]
                            .iter()
                            .rev()
                            .take_while(|s| s.start_ns >= span.start_ns)
                            .filter(|s| s.kind.phase() == Phase::Pack)
                            .map(Span::dur_ns)
                            .sum::<u64>();
                    }
                    _ => {}
                }
            }
        }
        m
    }

    /// Writes this trace into `w` as trace process `pid`: one thread
    /// per worker, one complete event per span, kind-specific args.
    pub fn write_chrome_trace(&self, w: &mut TraceWriter, pid: usize, process_name: &str) {
        w.process_name(pid, process_name);
        for wid in 0..self.workers.len() {
            w.thread_name(pid, wid, &format!("worker{wid}"));
        }
        for (wid, span) in self.iter() {
            let ts = span.start_ns as f64 / 1e3;
            let dur = span.dur_ns() as f64 / 1e3;
            let (k1, k2) = arg_names(span.kind);
            let mut args: Vec<(&str, ArgValue)> = Vec::with_capacity(2);
            if let Some(k1) = k1 {
                args.push((k1, ArgValue::U64(u64::from(span.arg))));
            }
            if let Some(k2) = k2 {
                args.push((k2, ArgValue::U64(u64::from(span.arg2))));
            }
            w.complete(pid, wid, span.kind.name(), ts, dur, &args);
        }
    }
}

/// What `arg`/`arg2` mean for each span kind in trace exports.
fn arg_names(kind: SpanKind) -> (Option<&'static str>, Option<&'static str>) {
    match kind {
        SpanKind::Claim | SpanKind::Steal | SpanKind::Cta | SpanKind::Signal => {
            (Some("cta"), None)
        }
        SpanKind::Mac => (Some("tile"), Some("iters")),
        SpanKind::PackPrivate => (Some("tile"), Some("kc")),
        SpanKind::PackCached => (Some("slot"), Some("operand")),
        SpanKind::Wait => (Some("peer"), Some("rounds")),
        SpanKind::LoadPartials => (Some("peer"), None),
        SpanKind::DeferPark => (Some("tile"), Some("peer")),
        SpanKind::DeferResume => (Some("tile"), None),
        SpanKind::Recovery => (Some("peer"), Some("iters")),
        SpanKind::QueueWait => (Some("lane"), Some("request")),
        SpanKind::Launch => (Some("stage"), None),
    }
}

/// `arg` of a [`SpanKind::Launch`] span — epoch to the worker's entry
/// into the job.
pub const LAUNCH_WAKE: u32 = 0;
/// `arg` of a [`SpanKind::Launch`] span — end of worker 0's share to
/// the launch returning (waiting for helpers still inside).
pub const LAUNCH_JOIN: u32 = 1;
/// `arg` of a [`SpanKind::Launch`] span — a whole launch on a helper
/// that arrived after the close and never entered.
pub const LAUNCH_SKIPPED: u32 = 2;

/// Upper bucket bounds (exclusive, nanoseconds) of [`Histogram`]:
/// decades from 1 µs to 10 s, plus a catch-all.
pub const BUCKET_LIMITS_NS: [u64; 9] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    u64::MAX,
];

/// Human-readable labels matching [`BUCKET_LIMITS_NS`].
pub const BUCKET_LABELS: [&str; 9] =
    ["<1us", "<10us", "<100us", "<1ms", "<10ms", "<100ms", "<1s", "<10s", ">=10s"];

/// A fixed-bucket (log-decade) duration histogram. No allocation, no
/// configuration: every histogram in the registry shares
/// [`BUCKET_LIMITS_NS`], so they aggregate across workers and runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKET_LIMITS_NS.len()],
    sum_ns: u64,
    max_ns: u64,
}

impl Histogram {
    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        let idx = BUCKET_LIMITS_NS
            .iter()
            .position(|limit| ns < *limit)
            .expect("last bucket is unbounded");
        self.counts[idx] += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Count in bucket `idx` (see [`BUCKET_LIMITS_NS`]).
    #[must_use]
    pub fn bucket(&self, idx: usize) -> u64 {
        self.counts[idx]
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all recorded durations, nanoseconds.
    #[must_use]
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Mean recorded duration, nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count()).unwrap_or(0)
    }

    /// Longest recorded duration, nanoseconds.
    #[must_use]
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) from the log-decade
    /// buckets by linear interpolation inside the bucket holding the
    /// target rank. The top of the last (unbounded) bucket is clamped
    /// to the observed maximum, so the estimate never exceeds
    /// [`max_ns`](Self::max_ns). Returns 0 when empty.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        let mut lower = 0u64;
        for (idx, &limit) in BUCKET_LIMITS_NS.iter().enumerate() {
            let here = self.counts[idx];
            let upper = if limit == u64::MAX { self.max_ns.max(lower) } else { limit };
            if seen + here >= target {
                let into = (target - seen) as f64 / here.max(1) as f64;
                let est = lower as f64 + into * (upper - lower) as f64;
                return (est as u64).min(self.max_ns);
            }
            seen += here;
            lower = upper;
        }
        self.max_ns
    }
}

/// The metrics registry distilled from one [`ExecTrace`]: per-kind
/// counters and busy time, plus the four headline histograms the
/// issue's observability story needs (CTA duration, wait stall, pack
/// time, fixup latency).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    kind_count: [u64; SpanKind::ALL.len()],
    kind_ns: [u64; SpanKind::ALL.len()],
    /// Per kind, the part of `kind_ns` covered by pack spans nested
    /// inside spans of that kind (nonzero for `Mac` and `Recovery`).
    kind_nested_pack_ns: [u64; SpanKind::ALL.len()],
    /// Durations of [`SpanKind::Cta`] spans: one per claimed unit — a
    /// tile segment of a CTA in a launch, a whole CTA in a service
    /// request.
    pub cta_duration: Histogram,
    /// Owner wait stalls.
    pub wait_stall: Histogram,
    /// Panel packing (private + cached).
    pub pack_time: Histogram,
    /// Fixup signal/fold latencies.
    pub fixup_latency: Histogram,
    /// Spans lost to ring overflow (they are *not* in the counters).
    pub dropped_spans: u64,
}

impl Metrics {
    /// Spans of `kind` recorded.
    #[must_use]
    pub fn count(&self, kind: SpanKind) -> u64 {
        self.kind_count[kind.index()]
    }

    /// Total busy nanoseconds in spans of `kind`, start to end —
    /// for [`SpanKind::Mac`] that includes the packing its segment
    /// did on the way.
    #[must_use]
    pub fn total_ns(&self, kind: SpanKind) -> u64 {
        self.kind_ns[kind.index()]
    }

    /// *Self* time of `phase`: nanoseconds in its leaf spans, less
    /// what pack spans nested inside them cover — so
    /// [`Phase::Compute`] is MAC time alone and packing is counted
    /// once, under [`Phase::Pack`]. Container kinds
    /// ([`SpanKind::Cta`], [`SpanKind::DeferResume`]) are excluded
    /// for the same reason: phases never double-count nested time.
    #[must_use]
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        SpanKind::ALL
            .iter()
            .filter(|k| !k.is_container() && k.phase() == phase)
            .map(|k| self.total_ns(*k).saturating_sub(self.kind_nested_pack_ns[k.index()]))
            .sum()
    }

    /// Total self time across all leaf spans: at most the worker-time
    /// of the launch (`workers × wall_ns`).
    #[must_use]
    pub fn leaf_total_ns(&self) -> u64 {
        Phase::ALL.iter().map(|p| self.phase_ns(*p)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_core::tev::validate_json;

    fn span(kind: SpanKind, start_ns: u64, end_ns: u64) -> Span {
        Span { kind, start_ns, end_ns, arg: 0, arg2: 0 }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut ring = SpanRing::new(3);
        for i in 0..5u64 {
            ring.push(span(SpanKind::Mac, i, i + 1));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let starts: Vec<u64> = ring.into_spans().iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![2, 3, 4], "oldest dropped, order preserved");
    }

    #[test]
    fn ring_never_reallocates() {
        let mut ring = SpanRing::new(4);
        let cap = ring.capacity();
        let ptr = ring.buf.as_ptr();
        for i in 0..100u64 {
            ring.push(span(SpanKind::Wait, i, i));
        }
        assert_eq!(ring.capacity(), cap);
        assert_eq!(ring.buf.as_ptr(), ptr, "buffer must never move");
    }

    #[test]
    fn ring_allocation_counter_counts_constructions() {
        // The counter is process-global and other tests allocate rings
        // concurrently, so only monotonic claims are safe here; "push
        // never allocates" is pinned by `ring_never_reallocates`.
        let before = ring_allocations();
        let _ring = SpanRing::new(8);
        assert!(ring_allocations() > before);
    }

    #[test]
    fn start_is_none_and_finish_is_noop_without_tracer() {
        assert!(!active());
        assert!(start().is_none());
        finish(SpanKind::Mac, None, 0, 0); // must not panic
        instant(SpanKind::DeferPark, 0, 0);
        assert!(take().is_none());
    }

    #[test]
    fn install_record_take_roundtrip() {
        let epoch = Instant::now();
        install(WorkerTracer::new(epoch, 16));
        assert!(active());
        let t0 = start();
        assert!(t0.is_some());
        finish(SpanKind::Mac, t0, 7, 3);
        instant(SpanKind::DeferPark, 1, 2);
        let trace = take().expect("tracer installed").into_trace();
        assert!(!active());
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].kind, SpanKind::Mac);
        assert_eq!((trace.spans[0].arg, trace.spans[0].arg2), (7, 3));
        assert_eq!(trace.spans[1].dur_ns(), 0);
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn histogram_buckets_by_decade() {
        let mut h = Histogram::default();
        h.record(500); // <1us
        h.record(5_000); // <10us
        h.record(2_000_000); // <1ms? no: 2ms -> <10ms bucket
        h.record(u64::MAX - 1); // catch-all
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(4), 1);
        assert_eq!(h.bucket(8), 1);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max_ns(), u64::MAX - 1);
    }

    #[test]
    fn quantile_estimates_interpolate_and_clamp() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile_ns(0.99), 0, "empty histogram");
        for _ in 0..99 {
            h.record(500); // <1us bucket
        }
        h.record(5_000_000); // one <10ms outlier
        let p50 = h.quantile_ns(0.50);
        assert!(p50 < 1_000, "median stays in the first bucket, got {p50}");
        let p99 = h.quantile_ns(0.99);
        assert!(p99 <= 1_000, "rank 99 of 100 is within the first bucket's bounds");
        let p100 = h.quantile_ns(1.0);
        assert!(p100 <= h.max_ns(), "quantile never exceeds the observed max");
        assert!(p100 >= 1_000_000, "top quantile reaches the outlier bucket");
    }

    #[test]
    fn metrics_aggregate_and_phase_sums_exclude_containers() {
        let trace = ExecTrace {
            workers: vec![WorkerTrace {
                spans: vec![
                    span(SpanKind::Cta, 0, 100),
                    span(SpanKind::Mac, 0, 60),
                    span(SpanKind::Wait, 60, 90),
                    span(SpanKind::LoadPartials, 90, 95),
                ],
                dropped: 1,
            }],
            wall_ns: 100,
        };
        let m = trace.metrics();
        assert_eq!(m.count(SpanKind::Cta), 1);
        assert_eq!(m.total_ns(SpanKind::Mac), 60);
        assert_eq!(m.phase_ns(Phase::Compute), 60, "container Cta must not count");
        assert_eq!(m.phase_ns(Phase::Stall), 30);
        assert_eq!(m.phase_ns(Phase::Fixup), 5);
        assert_eq!(m.leaf_total_ns(), 95);
        assert_eq!(m.dropped_spans, 1);
        assert_eq!(m.cta_duration.count(), 1);
        assert_eq!(m.wait_stall.mean_ns(), 30);
    }

    /// `Mac` spans enclose their segment's pack spans; the phase fold
    /// must charge that time to `Pack` once, not to both.
    #[test]
    fn compute_phase_is_self_time_net_of_nested_packing() {
        let trace = ExecTrace {
            workers: vec![WorkerTrace {
                // Finish order, as a ring records it: two segments,
                // the first walking two chunks.
                spans: vec![
                    span(SpanKind::PackCached, 0, 10),
                    span(SpanKind::PackCached, 10, 15),
                    span(SpanKind::PackPrivate, 40, 50),
                    span(SpanKind::Mac, 0, 100),
                    span(SpanKind::Signal, 100, 105),
                    span(SpanKind::PackCached, 110, 130),
                    span(SpanKind::Mac, 105, 200),
                    span(SpanKind::Cta, 0, 200),
                ],
                dropped: 0,
            }],
            wall_ns: 200,
        };
        let m = trace.metrics();
        assert_eq!(m.total_ns(SpanKind::Mac), 195, "span durations stay as recorded");
        assert_eq!(m.phase_ns(Phase::Pack), 45);
        assert_eq!(m.phase_ns(Phase::Compute), 195 - 45);
        assert_eq!(m.leaf_total_ns(), 200, "every nanosecond attributed once");
    }

    #[test]
    fn chrome_export_is_valid_json_with_worker_threads() {
        let trace = ExecTrace {
            workers: vec![
                WorkerTrace { spans: vec![span(SpanKind::Mac, 0, 1_000)], dropped: 0 },
                WorkerTrace { spans: vec![span(SpanKind::Wait, 0, 2_000)], dropped: 0 },
            ],
            wall_ns: 2_000,
        };
        let mut w = TraceWriter::new();
        trace.write_chrome_trace(&mut w, 1, "streamk-cpu (2 workers)");
        let json = w.finish();
        validate_json(&json).unwrap();
        assert_eq!(json.matches("thread_name").count(), 2);
        assert!(json.contains(r#""name": "mac""#));
        assert!(json.contains(r#""name": "wait""#));
        assert!(json.contains("worker1"));
    }
}
