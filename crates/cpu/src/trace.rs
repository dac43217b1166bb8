//! Measured-timeline tracing for the CPU executor.
//!
//! The simulator *predicts* where time goes; this module lets the
//! executor *measure* it. When
//! [`ExecutorConfig::trace`](crate::ExecutorConfig) (or
//! [`ServeConfig::trace`](crate::serve::ServeConfig) for a service) is
//! on, every worker records typed [`Span`]s — CTA claims and steals,
//! panel packing, MAC-loop runs, the fixup protocol (signal / wait /
//! load-partials), deferral parking, fault recovery, and the launch
//! handshake or a request's queue wait — into a fixed-capacity
//! [`SpanRing`] of its own.
//!
//! **One recorder.** Every span of every entry — a direct, batched or
//! grouped launch, or a service request — goes the same way: a
//! recording keeps one ring per worker id (`WorkerRings`), a worker
//! checks its ring out for the stretch of work it does there (a
//! launch's whole share; one claimed CTA or one resumed consolidation
//! of a request) and records into the checked-out `Recorder`, which
//! every recording site takes — the engine, the pack sites, the
//! launcher and the service.
//!
//! **Overhead discipline.** Recording a span takes no lock and
//! allocates nothing: the ring is the worker's alone while it is
//! checked out, timestamps are taken once per event boundary with
//! [`Instant::now`], and a full ring *drops the oldest span* and counts
//! it — it never blocks and never grows. Checking a ring out and in
//! locks its worker's slot, which nobody else touches meanwhile. When
//! tracing is off every site holds a recorder that is off, whose
//! `start` is a field check returning `None`; nothing is allocated
//! ([`ring_allocations`] lets tests and CI pin that to exactly zero).
//! Tracing never changes results: spans observe the computation,
//! bit-exactness is pinned by tests.
//!
//! **Where rings rest.** Rings belong to worker *ids*, not to threads.
//! Between traced launches an executor keeps its rings in the pool's
//! launch-level store, each in its worker id's slot, and rebases them
//! on the next launch's epoch. Worker 0 is the calling thread — any
//! thread — so a ring left with a thread would cost one allocation
//! per launcher thread; this way a warm executor allocates exactly
//! `workers` rings however many threads launch on it. A service
//! request draws its rings from the service's spares and returns them
//! there when its track is harvested, so a traced service allocates
//! rings for its concurrency, not per request.
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
use std::cell::RefCell;
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

/// Span rings between recordings of one capacity: a ring drained from
/// one recording's [`WorkerRings`] rests here until a worker of another
/// one records, so a traced service allocates rings for its peak
/// concurrency, not per request — a fresh ring per request and worker
/// cost as much as the shared lock it replaced.
pub(crate) type SpareRings = Arc<Mutex<Vec<SpanRing>>>;

/// One span ring per worker id for one recording: a traced launch, or
/// a traced service request. Worker `wid` owns slot `wid % rings`, on
/// its own cache line. It [checks the ring out](Self::check_out) for a
/// stretch of work, records into the [`Recorder`] without a lock, and
/// the ring goes back to its slot when the recorder drops. A slot
/// takes a ring from the shared spares the first time its worker
/// checks out. [`drain`](Self::drain) merges the slots back into one
/// track and returns their rings to the spares;
/// [`drain_each`](Self::drain_each) empties each ring where it rests.
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

    /// Whether these are `rings` slots of `capacity`-span rings.
    pub(crate) fn fits(&self, capacity: usize, rings: usize) -> bool {
        (self.capacity, self.rings.len()) == (capacity, rings)
    }

    /// Times the next recording from `epoch`, every ring staying where
    /// it rests — emptied by the last recording's
    /// [`drain_each`](Self::drain_each).
    pub(crate) fn rebase(&mut self, epoch: Instant) {
        self.epoch = epoch;
    }

    /// Worker `wid`'s ring, out of its slot until the recorder drops.
    /// One thread at a time runs a worker id, so the slot is its own.
    pub(crate) fn check_out(&self, wid: usize) -> Recorder<'_> {
        let slot = wid % self.rings.len();
        let ring = lock(&self.rings[slot].0)
            .take()
            .unwrap_or_else(|| lock(&self.spare).pop().unwrap_or_else(|| SpanRing::new(self.capacity)));
        Recorder { out: Some((self, slot, RefCell::new(ring))) }
    }

    /// Empties every ring resting in its slot into one track in finish
    /// order, with their drops summed, and returns the rings to the
    /// spares.
    pub(crate) fn drain(&self) -> WorkerTrace {
        let (mut spans, mut dropped) = (Vec::new(), 0);
        for slot in &self.rings {
            let Some(mut ring) = lock(&slot.0).take() else { continue };
            dropped += ring.dropped();
            spans.append(&mut ring.drain_spans());
            lock(&self.spare).push(ring);
        }
        spans.sort_by_key(|s| s.end_ns);
        WorkerTrace { spans, dropped }
    }

    /// Empties each slot's ring in place: one track per worker id.
    pub(crate) fn drain_each(&mut self) -> Vec<WorkerTrace> {
        self.rings
            .iter_mut()
            .map(|slot| match slot.0.get_mut().unwrap_or_else(PoisonError::into_inner) {
                Some(ring) => WorkerTrace { dropped: ring.dropped(), spans: ring.drain_spans() },
                None => WorkerTrace::default(),
            })
            .collect()
    }
}

/// A worker's ring, checked out of its [`WorkerRings`] slot for a
/// stretch of work: recording a span is a clock read and a push, with
/// no lock and no atomic. The ring goes back to its slot when the
/// recorder drops, on unwinding too. [`Recorder::off`] records nothing,
/// and its [`start`](Self::start) reads no clock.
pub(crate) struct Recorder<'r> {
    out: Option<(&'r WorkerRings, usize, RefCell<SpanRing>)>,
}

impl Recorder<'_> {
    /// A recorder that records nothing.
    pub(crate) const fn off() -> Self {
        Self { out: None }
    }

    /// Opens a span: a timestamp when recording, `None` when not.
    #[inline]
    pub(crate) fn start(&self) -> Option<Instant> {
        self.out.as_ref().map(|_| Instant::now())
    }

    /// Closes a span opened by [`start`](Self::start) now; a no-op
    /// when `t0` is `None`.
    #[inline]
    pub(crate) fn finish(&self, kind: SpanKind, t0: Option<Instant>, arg: u32, arg2: u32) {
        if let Some(t0) = t0 {
            self.record(kind, t0, Instant::now(), arg, arg2);
        }
    }

    /// Records the span `[t0, t1)`.
    #[inline]
    pub(crate) fn record(&self, kind: SpanKind, t0: Instant, t1: Instant, arg: u32, arg2: u32) {
        if let Some((rings, _, ring)) = &self.out {
            let rel = |t: Instant| t.saturating_duration_since(rings.epoch).as_nanos() as u64;
            ring.borrow_mut().push(Span { kind, start_ns: rel(t0), end_ns: rel(t1), arg, arg2 });
        }
    }

    /// Whether the ring holds no span of this recording.
    pub(crate) fn is_empty(&self) -> bool {
        self.out.as_ref().is_none_or(|(_, _, ring)| ring.borrow().is_empty())
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        if let Some((rings, slot, ring)) = self.out.take() {
            *lock(&rings.rings[slot].0) = Some(ring.into_inner());
        }
    }
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
            write_span(w, pid, wid, span);
        }
    }
}

/// Writes `span` into `w` as one complete event on thread `tid` of
/// process `pid`, its args named per kind.
pub(crate) fn write_span(w: &mut TraceWriter, pid: usize, tid: usize, span: &Span) {
    let (k1, k2) = arg_names(span.kind);
    let mut args: Vec<(&str, ArgValue)> = Vec::with_capacity(2);
    if let Some(k1) = k1 {
        args.push((k1, ArgValue::U64(u64::from(span.arg))));
    }
    if let Some(k2) = k2 {
        args.push((k2, ArgValue::U64(u64::from(span.arg2))));
    }
    w.complete(pid, tid, span.kind.name(), span.start_ns as f64 / 1e3, span.dur_ns() as f64 / 1e3, &args);
}

/// What `arg`/`arg2` mean for each span kind in trace exports.
fn arg_names(kind: SpanKind) -> (Option<&'static str>, Option<&'static str>) {
    match kind {
        SpanKind::Claim | SpanKind::Steal | SpanKind::Signal => (Some("cta"), None),
        SpanKind::Cta => (Some("cta"), Some("worker")),
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
/// counters and busy time, plus the two headline histograms
/// `streamk profile` prints (CTA duration, fixup latency).
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
    fn recorders_check_rings_out_and_back_in() {
        assert!(Recorder::off().start().is_none());
        Recorder::off().record(SpanKind::Mac, Instant::now(), Instant::now(), 0, 0); // must not panic

        let epoch = Instant::now();
        let mut rings = WorkerRings::new(epoch, 16, 2, &SpareRings::default());
        {
            let rec = rings.check_out(1);
            assert!(rec.is_empty());
            let t0 = rec.start();
            assert!(t0.is_some());
            rec.finish(SpanKind::Mac, t0, 7, 3);
            rec.record(SpanKind::DeferPark, epoch, epoch, 1, 2);
            assert!(!rec.is_empty());
        }
        // Worker 3 is slot 1's too: the ring came back with its spans.
        assert!(!rings.check_out(3).is_empty());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let rec = rings.check_out(0);
            rec.record(SpanKind::Wait, epoch, epoch, 0, 0);
            panic!("a worker dies holding its ring");
        }));
        assert!(unwound.is_err());

        let traces = rings.drain_each();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].spans.len(), 1, "the ring went back on unwinding");
        let kinds: Vec<SpanKind> = traces[1].spans.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [SpanKind::Mac, SpanKind::DeferPark]);
        assert_eq!((traces[1].spans[0].arg, traces[1].spans[0].arg2), (7, 3));
        assert_eq!(traces[1].spans[1].dur_ns(), 0);

        // Drained in place and rebased: every ring empty again.
        rings.rebase(Instant::now());
        assert!(rings.check_out(0).is_empty() && rings.check_out(1).is_empty());
        assert!(rings.fits(16, 2) && !rings.fits(32, 2));
    }

    #[test]
    fn drain_merges_slots_in_finish_order_and_spares_the_rings() {
        let spare = SpareRings::default();
        let epoch = Instant::now();
        let rings = WorkerRings::new(epoch, 8, 2, &spare);
        let at = |ns| epoch + std::time::Duration::from_nanos(ns);
        rings.check_out(0).record(SpanKind::Mac, at(0), at(30), 0, 0);
        rings.check_out(1).record(SpanKind::Mac, at(0), at(20), 1, 0);
        let trace = rings.drain();
        let ends: Vec<u64> = trace.spans.iter().map(|s| s.end_ns).collect();
        assert_eq!(ends, [20, 30]);
        assert_eq!(lock(&spare).len(), 2, "both rings rest in the spares");
        let next = WorkerRings::new(epoch, 8, 2, &spare);
        drop(next.check_out(0));
        assert_eq!(lock(&spare).len(), 1, "the next recording draws from them");
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
