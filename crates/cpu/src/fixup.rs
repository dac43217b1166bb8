//! The cross-CTA partial-sum consolidation board.
//!
//! Implements `StorePartials` / `Signal` / `Wait` / `LoadPartials` of
//! Algorithms 4-5. Each CTA owns one slot (it contributes partials to
//! at most one tile — its first, if it didn't start it), so temporary
//! storage scales with the grid size `g`, not the problem size: the
//! O(p) splitting-seam property the paper highlights in §7.
//!
//! **Fault tolerance.** The flag is a three-state protocol —
//! *pending* → *signaled* (the happy path) or *pending* → *poisoned*
//! (the peer's record was lost or corrupted). Both transitions are
//! sticky: a double signal or a signal landing on a poisoned slot is
//! a typed [`FixupError`], never a panic mid-pool. Waiting is bounded:
//! the owner descends a spin → yield → park backoff ladder under a
//! configurable watchdog deadline ([`WaitPolicy`]) while it probes the
//! slot with [`FixupBoard::try_take`], so a lost peer ends in a timeout
//! the executor can recover from instead of an unbounded spin.
//!
//! Synchronization: writers (store/poison) mutate the flag only while
//! holding the slot's mutex, writing the partial record *before* the
//! flag's release-store; the owner's acquire-load on the flag
//! establishes the happens-before edge that makes reading the
//! partials safe. By protocol the lock is never contended on the hot
//! path (single writer, then single reader strictly after the flag).

use crate::pad::CachePadded;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use streamk_core::FixupError;

const PENDING: u32 = 0;
const SIGNALED: u32 = 1;
const POISONED: u32 = 2;

/// The observable state of one CTA's fixup slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagState {
    /// Nothing published yet.
    Pending,
    /// A valid partial record is available.
    Signaled,
    /// The record was lost or corrupted; a taker must recompute.
    Poisoned,
}

/// Bounded-wait configuration: the backoff ladder plus the watchdog
/// deadline.
///
/// The ladder mirrors what a production spin lock does under
/// oversubscription: a short pure-spin phase (the peer usually
/// signals within nanoseconds on the happy path), a yielding phase
/// (let a descheduled peer run), then parking in short sleeps whose
/// interval doubles up to [`WaitPolicy::max_park`] (don't burn a core
/// on a peer that is seconds away — or gone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitPolicy {
    /// Iterations of pure `spin_loop` before yielding.
    pub spin_iters: u32,
    /// Iterations of `yield_now` before parking.
    pub yield_iters: u32,
    /// Initial park interval; doubles each park up to `max_park`.
    pub initial_park: Duration,
    /// Ceiling on the park interval.
    pub max_park: Duration,
    /// Total deadline: a wait that outlasts it returns the elapsed
    /// time as `Err` (see [`wait_until`](Self::wait_until)).
    pub watchdog: Duration,
}

impl WaitPolicy {
    /// The default watchdog: generous enough that a healthy peer on a
    /// grotesquely oversubscribed test machine still makes it,
    /// bounded enough that a lost peer cannot hang a job forever.
    pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(30);

    /// A policy with the given watchdog and default backoff ladder.
    #[must_use]
    pub fn with_watchdog(watchdog: Duration) -> Self {
        Self { watchdog, ..Self::default() }
    }

    /// Runs the spin → yield → park backoff ladder until `probe`
    /// returns `Some`, or the watchdog deadline expires.
    ///
    /// This is the one ladder implementation in the crate: the fixup
    /// board's owner-side `Wait` and the pack cache's
    /// publish-flag wait both descend it, and the worker pool's launch
    /// handshake descends its non-sleeping rungs
    /// ([`poll`](Self::poll)) before parking on a condvar, so backoff
    /// behaviour under oversubscription is identical everywhere.
    ///
    /// # Errors
    ///
    /// Returns the elapsed wait as `Err` when the watchdog expires
    /// with `probe` still yielding `None`.
    pub fn wait_until<T>(&self, probe: impl FnMut() -> Option<T>) -> Result<T, Duration> {
        self.wait_until_counted(probe).0
    }

    /// [`wait_until`](Self::wait_until), additionally reporting how
    /// many backoff rounds (spin + yield + park iterations) ran before
    /// the probe hit or the watchdog fired — the tracer attaches this
    /// to `Wait` spans so a trace distinguishes a near-miss (a few
    /// spins) from a genuine stall (hundreds of parks).
    pub fn wait_until_counted<T>(
        &self,
        mut probe: impl FnMut() -> Option<T>,
    ) -> (Result<T, Duration>, u32) {
        let start = Instant::now();
        let mut iter = 0u32;
        let mut park = self.initial_park;
        loop {
            if let Some(hit) = probe() {
                return (Ok(hit), iter);
            }
            if !self.relax(iter) {
                // From here each probe costs a park interval, so the
                // deadline check is effectively free.
                if start.elapsed() >= self.watchdog {
                    return (Err(start.elapsed()), iter);
                }
                std::thread::sleep(park);
                park = (park * 2).min(self.max_park);
            }
            iter = iter.saturating_add(1);
        }
    }

    /// Descends only the ladder's non-sleeping rungs: probes, spins,
    /// then yields, and returns `None` once both rungs are spent with
    /// `probe` still yielding `None`. For waiters that have a better
    /// way to sleep than the ladder's timed park — the worker pool
    /// parks on a condvar its counterpart notifies — and no deadline.
    /// Costs the caller's core at most `spin_iters` spin hints plus
    /// `yield_iters` yields.
    pub fn poll<T>(&self, mut probe: impl FnMut() -> Option<T>) -> Option<T> {
        let mut iter = 0u32;
        loop {
            if let Some(hit) = probe() {
                return Some(hit);
            }
            if !self.relax(iter) {
                return None;
            }
            iter += 1;
        }
    }

    /// The non-sleeping rung for backoff round `iter`: a spin hint
    /// for the first `spin_iters` rounds, a yield for the next
    /// `yield_iters`. `false` (and nothing done) once both are spent.
    fn relax(&self, iter: u32) -> bool {
        if iter < self.spin_iters {
            std::hint::spin_loop();
        } else if iter < self.spin_iters + self.yield_iters {
            std::thread::yield_now();
        } else {
            return false;
        }
        true
    }
}

impl Default for WaitPolicy {
    fn default() -> Self {
        Self {
            spin_iters: 512,
            yield_iters: 64,
            initial_park: Duration::from_micros(50),
            max_park: Duration::from_millis(2),
            watchdog: Self::DEFAULT_WATCHDOG,
        }
    }
}

/// What a non-blocking probe of a peer's slot produced.
#[derive(Debug, PartialEq, Eq)]
pub enum TryTake<Acc> {
    /// The peer has signaled; here is its partial record.
    Ready(
        /// The peer's partial accumulator.
        Vec<Acc>,
    ),
    /// The peer's record was poisoned — recompute its contribution.
    Poisoned,
    /// Nothing published yet — the caller should defer and do other
    /// work rather than spin.
    Pending,
}

/// One CTA's consolidation slot: the three-state flag and the partial
/// record it guards, padded to a private cacheline block so a
/// contributor's release-store never invalidates the line a *different*
/// owner is polling.
struct Slot<Acc> {
    flag: AtomicU32,
    partial: Mutex<Vec<Acc>>,
}

/// Shared consolidation state for one kernel launch: one partials slot
/// and one three-state flag per CTA, each slot on its own cacheline.
pub struct FixupBoard<Acc> {
    slots: Vec<CachePadded<Slot<Acc>>>,
}

impl<Acc: Send> FixupBoard<Acc> {
    /// Creates a board for `grid` CTAs.
    #[must_use]
    pub fn new(grid: usize) -> Self {
        Self {
            slots: (0..grid)
                .map(|_| {
                    CachePadded::new(Slot {
                        flag: AtomicU32::new(PENDING),
                        partial: Mutex::new(Vec::new()),
                    })
                })
                .collect(),
        }
    }

    /// `StorePartials(partials[cta], accum); Signal(flags[cta])` —
    /// publishes `accum` as CTA `cta`'s partial record.
    ///
    /// # Errors
    ///
    /// [`FixupError::DoubleSignal`] if the CTA already signaled,
    /// [`FixupError::SignalAfterPoison`] if the slot was poisoned
    /// (the poison is sticky — the late signal loses), and
    /// [`FixupError::SlotOutOfRange`] for a bad index.
    pub fn store_and_signal(&self, cta: usize, accum: Vec<Acc>) -> Result<(), FixupError> {
        let slot = self.slot(cta)?;
        let mut guard = slot.partial.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // Flag transitions happen only under the slot lock, so a
        // plain load-check-store is race-free among writers.
        match slot.flag.load(Ordering::Relaxed) {
            PENDING => {
                *guard = accum;
                slot.flag.store(SIGNALED, Ordering::Release);
                Ok(())
            }
            SIGNALED => Err(FixupError::DoubleSignal { cta }),
            _ => Err(FixupError::SignalAfterPoison { cta }),
        }
    }

    /// Marks `cta`'s record as lost/corrupted. Idempotent; poisoning
    /// an already-signaled slot retracts the record (the taker will
    /// recompute instead).
    ///
    /// # Errors
    ///
    /// [`FixupError::SlotOutOfRange`] for a bad index.
    pub fn poison(&self, cta: usize) -> Result<(), FixupError> {
        let slot = self.slot(cta)?;
        let mut guard = slot.partial.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.clear();
        slot.flag.store(POISONED, Ordering::Release);
        Ok(())
    }

    /// Non-blocking probe of `peer`'s slot: takes the record if
    /// signaled, reports poison, or says *pending* without waiting.
    ///
    /// This is the only way to read a peer's slot: a cooperative owner
    /// that sees [`TryTake::Pending`] parks the consolidation and claims
    /// other work, a blocking one repeats the probe under
    /// [`WaitPolicy::wait_until_counted`].
    #[must_use]
    pub fn try_take(&self, peer: usize) -> TryTake<Acc> {
        let slot = &self.slots[peer];
        match slot.flag.load(Ordering::Acquire) {
            SIGNALED => {
                let mut guard =
                    slot.partial.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                TryTake::Ready(std::mem::take(&mut *guard))
            }
            POISONED => TryTake::Poisoned,
            _ => TryTake::Pending,
        }
    }

    /// The current state of `cta`'s flag (non-blocking).
    ///
    /// # Panics
    ///
    /// Panics if `cta` is out of range.
    #[must_use]
    pub fn state(&self, cta: usize) -> FlagState {
        match self.slots[cta].flag.load(Ordering::Acquire) {
            PENDING => FlagState::Pending,
            SIGNALED => FlagState::Signaled,
            _ => FlagState::Poisoned,
        }
    }

    /// The grid size this board was built for.
    #[must_use]
    pub fn grid(&self) -> usize {
        self.slots.len()
    }

    fn slot(&self, cta: usize) -> Result<&Slot<Acc>, FixupError> {
        self.slots
            .get(cta)
            .map(|s| &s.0)
            .ok_or(FixupError::SlotOutOfRange { cta, grid: self.slots.len() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Probes `peer`'s slot under `policy` until it is no longer
    /// pending: the probe and the backoff rounds it took, or the
    /// elapsed wait once the watchdog fired.
    fn wait(board: &FixupBoard<f64>, peer: usize, policy: &WaitPolicy) -> (Result<TryTake<f64>, Duration>, u32) {
        policy.wait_until_counted(|| match board.try_take(peer) {
            TryTake::Pending => None,
            probed => Some(probed),
        })
    }

    /// Waits for `peer`'s record under the default policy.
    fn take(board: &FixupBoard<f64>, peer: usize) -> Vec<f64> {
        match wait(board, peer, &WaitPolicy::default()).0 {
            Ok(TryTake::Ready(partial)) => partial,
            other => panic!("CTA {peer} did not signal: {other:?}"),
        }
    }

    #[test]
    fn single_thread_round_trip() {
        let board = FixupBoard::<f64>::new(4);
        assert_eq!(board.state(2), FlagState::Pending);
        board.store_and_signal(2, vec![1.0, 2.0]).unwrap();
        assert_eq!(board.state(2), FlagState::Signaled);
        assert_eq!(take(&board, 2), vec![1.0, 2.0]);
    }

    #[test]
    fn double_signal_is_a_typed_error() {
        let board = FixupBoard::<f64>::new(1);
        board.store_and_signal(0, vec![1.0]).unwrap();
        assert_eq!(board.store_and_signal(0, vec![2.0]), Err(FixupError::DoubleSignal { cta: 0 }));
        // The first record survives the failed second signal.
        assert_eq!(take(&board, 0), vec![1.0]);
    }

    #[test]
    fn out_of_range_is_a_typed_error() {
        let board = FixupBoard::<f64>::new(2);
        assert_eq!(
            board.store_and_signal(5, vec![1.0]),
            Err(FixupError::SlotOutOfRange { cta: 5, grid: 2 })
        );
        assert_eq!(board.poison(2), Err(FixupError::SlotOutOfRange { cta: 2, grid: 2 }));
    }

    #[test]
    fn poison_is_sticky_and_observable() {
        let board = FixupBoard::<f64>::new(2);
        board.poison(1).unwrap();
        assert_eq!(board.state(1), FlagState::Poisoned);
        // A late signal loses to the poison, with a typed error.
        assert_eq!(
            board.store_and_signal(1, vec![3.0]),
            Err(FixupError::SignalAfterPoison { cta: 1 })
        );
        assert_eq!(wait(&board, 1, &WaitPolicy::default()).0, Ok(TryTake::Poisoned));
    }

    #[test]
    fn poison_retracts_a_signaled_record() {
        let board = FixupBoard::<f64>::new(1);
        board.store_and_signal(0, vec![1.0]).unwrap();
        board.poison(0).unwrap();
        assert_eq!(wait(&board, 0, &WaitPolicy::default()).0, Ok(TryTake::Poisoned));
    }

    #[test]
    fn watchdog_bounds_the_wait() {
        let board = FixupBoard::<f64>::new(1);
        let policy = WaitPolicy::with_watchdog(Duration::from_millis(20));
        let start = Instant::now();
        match wait(&board, 0, &policy).0 {
            Err(waited) => assert!(waited >= Duration::from_millis(20)),
            Ok(other) => panic!("expected timeout, got {other:?}"),
        }
        // Bounded: nowhere near the old unbounded spin. Generous
        // ceiling for loaded CI machines.
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn wait_rounds_distinguish_hits_from_stalls() {
        let board = FixupBoard::<f64>::new(1);
        board.store_and_signal(0, vec![1.0]).unwrap();
        let (outcome, rounds) = wait(&board, 0, &WaitPolicy::default());
        assert_eq!(outcome, Ok(TryTake::Ready(vec![1.0])));
        assert_eq!(rounds, 0, "an already-signaled slot costs zero backoff rounds");

        let board = FixupBoard::<f64>::new(1);
        let policy = WaitPolicy::with_watchdog(Duration::from_millis(10));
        let (outcome, rounds) = wait(&board, 0, &policy);
        assert!(outcome.is_err(), "{outcome:?}");
        assert!(
            rounds > policy.spin_iters + policy.yield_iters,
            "a timed-out wait descended past the spin and yield phases ({rounds} rounds)"
        );
    }

    /// `poll` is the ladder without its sleeping rung: it gives up
    /// after exactly the spin and yield rounds instead of parking.
    #[test]
    fn poll_descends_only_the_non_sleeping_rungs() {
        let policy = WaitPolicy::default();
        assert_eq!(policy.poll(|| Some(7)), Some(7), "a ready probe costs no backoff");
        let mut probes = 0u32;
        let hit = policy.poll(|| {
            probes += 1;
            (probes == 100).then_some(probes)
        });
        assert_eq!(hit, Some(100), "a probe that turns ready mid-ladder is returned");
        let mut probes = 0u32;
        let start = Instant::now();
        let missed: Option<()> = policy.poll(|| {
            probes += 1;
            None
        });
        assert_eq!(missed, None);
        assert_eq!(probes, policy.spin_iters + policy.yield_iters + 1);
        assert!(start.elapsed() < policy.watchdog, "no sleeping rung, no deadline");
    }

    /// The owner observes exactly the values the contributor wrote —
    /// the release/acquire edge at work across real threads.
    #[test]
    fn cross_thread_handoff() {
        let board = Arc::new(FixupBoard::<f64>::new(2));
        let payload: Vec<f64> = (0..1024).map(f64::from).collect();
        let expected = payload.clone();
        let producer = {
            let board = Arc::clone(&board);
            std::thread::spawn(move || {
                // Give the consumer a head start so it genuinely spins.
                std::thread::sleep(Duration::from_millis(10));
                board.store_and_signal(1, payload).unwrap();
            })
        };
        let got = take(&board, 1);
        producer.join().unwrap();
        assert_eq!(got, expected);
    }

    /// A straggling producer that beats the watchdog is observed as a
    /// clean signal; one that misses it is a timeout — and the late
    /// record stays available afterwards.
    #[test]
    fn straggler_vs_watchdog() {
        let board = Arc::new(FixupBoard::<f64>::new(1));
        let producer = {
            let board = Arc::clone(&board);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                board.store_and_signal(0, vec![7.0]).unwrap();
            })
        };
        // First wait times out before the straggler signals.
        let fast = WaitPolicy::with_watchdog(Duration::from_millis(5));
        assert!(wait(&board, 0, &fast).0.is_err());
        // A patient retry sees the late signal.
        let patient = WaitPolicy::with_watchdog(Duration::from_secs(10));
        assert_eq!(wait(&board, 0, &patient).0, Ok(TryTake::Ready(vec![7.0])));
        producer.join().unwrap();
    }

    /// Many contributors, one accumulator — the fixed-split fixup
    /// shape, hammered to catch ordering bugs.
    #[test]
    fn many_contributors_stress() {
        for _ in 0..20 {
            let peers = 8;
            let board = Arc::new(FixupBoard::<f64>::new(peers + 1));
            let handles: Vec<_> = (1..=peers)
                .map(|p| {
                    let board = Arc::clone(&board);
                    std::thread::spawn(move || {
                        board.store_and_signal(p, vec![p as f64; 16]).unwrap();
                    })
                })
                .collect();
            let mut sum = [0.0f64; 16];
            for p in 1..=peers {
                for (s, v) in sum.iter_mut().zip(take(&board, p)) {
                    *s += v;
                }
            }
            for h in handles {
                h.join().unwrap();
            }
            let expected = (1..=peers).map(|p| p as f64).sum::<f64>();
            assert!(sum.iter().all(|&s| s == expected));
        }
    }
}
