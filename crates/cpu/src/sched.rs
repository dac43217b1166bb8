//! Locality-aware CTA scheduling: static contiguous ranges plus
//! range-stealing.
//!
//! The executor used to hand out CTAs from one global `AtomicUsize`
//! every worker hammered — a single contended cache line serializing
//! the whole grid's dispatch, and a round-robin order that interleaves
//! workers across the tile space, wrecking the LLC panel reuse the
//! [`TileOrder`](streamk_core::TileOrder) swizzle arranges.
//!
//! [`CtaScheduler`] replaces it with the paper's own discipline
//! applied one level up: each worker receives a *static contiguous
//! range* of the CTA dispatch sequence
//! ([`streamk_core::contiguous_ranges`] — Algorithm 4's "even share,
//! within one" rule), so in the common case a worker claims from its
//! own cacheline-padded queue and touches nobody else's state. When a
//! worker drains its range it *steals half the richest victim's
//! remainder* — a contiguous block from the victim's tail, so the
//! stolen work is still a swizzle-contiguous run of tiles and the
//! victim keeps the half adjacent to what it is already executing.
//!
//! Each queue is one atomic `u64` packing `(version, head, tail)`;
//! owner pops, steals, and refills are all CAS transitions on that
//! word. The version field (bumped on every refill) makes the CAS
//! immune to ABA when a range migrates between queues and back.

use crate::pad::CachePadded;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use streamk_core::contiguous_range;

const FIELD_BITS: u32 = 24;
const FIELD_MASK: u64 = (1 << FIELD_BITS) - 1;
const VERSION_MASK: u64 = (1 << (64 - 2 * FIELD_BITS)) - 1;

/// One worker's claimable range: `(version, head, tail)` in one word.
#[derive(Debug)]
struct RangeQueue {
    word: AtomicU64,
}

fn pack(version: u64, head: usize, tail: usize) -> u64 {
    debug_assert!(head as u64 <= FIELD_MASK && tail as u64 <= FIELD_MASK);
    (version << (2 * FIELD_BITS)) | ((head as u64) << FIELD_BITS) | tail as u64
}

fn unpack(word: u64) -> (u64, usize, usize) {
    (
        word >> (2 * FIELD_BITS),
        ((word >> FIELD_BITS) & FIELD_MASK) as usize,
        (word & FIELD_MASK) as usize,
    )
}

impl RangeQueue {
    fn new(begin: usize, end: usize) -> Self {
        Self { word: AtomicU64::new(pack(0, begin, end)) }
    }

    /// Claims the next id from the front of the range (owner side).
    fn pop_front(&self) -> Option<usize> {
        let mut cur = self.word.load(Ordering::Acquire);
        loop {
            let (v, h, t) = unpack(cur);
            if h >= t {
                return None;
            }
            match self.word.compare_exchange_weak(
                cur,
                pack(v, h + 1, t),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(h),
                Err(now) => cur = now,
            }
        }
    }

    /// Steals the back half (rounded up) of the remaining range.
    fn steal_back(&self) -> Option<(usize, usize)> {
        let mut cur = self.word.load(Ordering::Acquire);
        loop {
            let (v, h, t) = unpack(cur);
            if h >= t {
                return None;
            }
            let take = (t - h).div_ceil(2);
            match self.word.compare_exchange_weak(
                cur,
                pack(v, h, t - take),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((t - take, t)),
                Err(now) => cur = now,
            }
        }
    }

    /// Installs a fresh range. Only the owning worker refills, and only
    /// when its queue is empty; the version bump defeats ABA against
    /// in-flight steal CASes holding a stale word.
    fn refill(&self, begin: usize, end: usize) {
        let mut cur = self.word.load(Ordering::Acquire);
        loop {
            let (v, h, t) = unpack(cur);
            debug_assert!(h >= t, "refill requires an empty queue");
            match self.word.compare_exchange_weak(
                cur,
                pack((v + 1) & VERSION_MASK, begin, end),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    fn remaining(&self) -> usize {
        let (_, h, t) = unpack(self.word.load(Ordering::Acquire));
        t.saturating_sub(h)
    }
}

/// The round-robin CTA cursor: one shared counter, one `fetch_add`
/// per claim.
///
/// This is the claim discipline [`CtaScheduler`] replaced for launches
/// — single, batched and grouped alike, whose owners park instead of
/// blocking and so need no interleave to stay live. The serve layer
/// still wants it: each in-flight request carries its own cursor as
/// its work source, where a worker takes whatever CTA comes next and
/// fairness across claimants matters more than locality.
#[derive(Debug)]
pub struct GridCursor {
    next: AtomicUsize,
    total: usize,
}

impl GridCursor {
    /// A cursor dispatching ids `0..total` in order.
    #[must_use]
    pub fn new(total: usize) -> Self {
        Self { next: AtomicUsize::new(0), total }
    }

    /// Claims the next id, or `None` when the grid is exhausted.
    /// Every id in `0..total` is returned exactly once across all
    /// claimants.
    #[must_use]
    pub fn claim(&self) -> Option<usize> {
        // Relaxed is enough: the counter orders nothing but itself,
        // and each claimed CTA's data dependencies are published
        // through the fixup board's Release/Acquire protocol.
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        (id < self.total).then_some(id)
    }

    /// `true` once every id has been claimed (racy snapshot: a `false`
    /// may be stale, a `true` is final).
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.total
    }

    /// Total ids this cursor dispatches.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }
}

/// One claimed CTA and how it was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Claim {
    /// The claimed CTA id.
    pub id: usize,
    /// Whether the claim came from stealing another worker's range.
    pub stolen: bool,
}

/// The per-launch CTA dispatcher: static contiguous per-worker ranges
/// with steal-from-the-richest rebalancing (see module docs).
#[derive(Debug)]
pub struct CtaScheduler {
    queues: Vec<CachePadded<RangeQueue>>,
    steals: CachePadded<AtomicUsize>,
}

impl CtaScheduler {
    /// A scheduler dispatching CTAs `0..total` to `workers` workers.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or `total` exceeds the 24-bit
    /// per-queue field (16.7M CTAs — far beyond any real grid).
    #[must_use]
    pub fn new(total: usize, workers: usize) -> Self {
        assert!(total as u64 <= FIELD_MASK, "grid too large for the packed queue word");
        assert!(workers > 0, "need at least one worker");
        let queues = (0..workers)
            .map(|w| contiguous_range(total, workers, w))
            .map(|r| CachePadded::new(RangeQueue::new(r.start, r.end)))
            .collect();
        Self { queues, steals: CachePadded::new(AtomicUsize::new(0)) }
    }

    /// Claims the next CTA for worker `me`: own range first, then a
    /// contiguous block stolen from the richest victim. `None` when
    /// every queue is drained.
    #[must_use]
    pub fn next(&self, me: usize) -> Option<usize> {
        self.next_claim(me).map(|c| c.id)
    }

    /// [`next`](Self::next), additionally reporting whether the claim
    /// came from a steal — the tracer labels stolen claims separately
    /// so a timeline shows where rebalancing happened.
    #[must_use]
    pub fn next_claim(&self, me: usize) -> Option<Claim> {
        if let Some(id) = self.queues[me].pop_front() {
            return Some(Claim { id, stolen: false });
        }
        loop {
            let victim = self
                .queues
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != me)
                .map(|(i, q)| (q.remaining(), i))
                .max()?;
            let (len, idx) = victim;
            if len == 0 {
                return None;
            }
            if let Some((begin, end)) = self.queues[idx].steal_back() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                // Run the first stolen id now; park the rest in our
                // own (empty) queue for subsequent claims.
                if end - begin > 1 {
                    self.queues[me].refill(begin + 1, end);
                }
                return Some(Claim { id: begin, stolen: true });
            }
            // The victim drained (or was robbed) between the scan and
            // the steal — rescan.
        }
    }

    /// Total successful steals so far this launch.
    #[must_use]
    pub fn steals(&self) -> usize {
        self.steals.load(Ordering::Relaxed)
    }

    /// CTAs not yet claimed by anyone (racy snapshot; diagnostics).
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.queues.iter().map(|q| q.remaining()).sum()
    }

    /// Worker count this scheduler was built for.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.queues.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn single_worker_claims_in_dispatch_order() {
        let sched = CtaScheduler::new(5, 1);
        let got: Vec<usize> = std::iter::from_fn(|| sched.next(0)).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(sched.steals(), 0);
    }

    #[test]
    fn static_ranges_are_contiguous_per_worker() {
        let sched = CtaScheduler::new(10, 3);
        // Worker 1's own share under the "even within one" rule is
        // [4, 7); with no contention it claims exactly that, in order.
        assert_eq!(sched.next(1), Some(4));
        assert_eq!(sched.next(1), Some(5));
        assert_eq!(sched.next(1), Some(6));
        // Its range is now dry: the next claim must steal.
        let stolen = sched.next(1).unwrap();
        assert!(sched.steals() >= 1);
        assert!(!(4..7).contains(&stolen));
    }

    #[test]
    fn drained_worker_steals_from_the_richest() {
        let sched = CtaScheduler::new(12, 3);
        // Worker 2 drains its range [8, 12).
        for expect in 8..12 {
            assert_eq!(sched.next(2), Some(expect));
        }
        // Worker 0 claims one id, leaving [1, 4): worker 1 (full
        // [4, 8), 4 remaining) is now the richest victim.
        assert_eq!(sched.next(0), Some(0));
        let stolen = sched.next(2).unwrap();
        assert!((4..8).contains(&stolen), "expected a steal from worker 1, got {stolen}");
    }

    #[test]
    fn steal_takes_the_tail_keeping_the_victim_head() {
        let sched = CtaScheduler::new(8, 2);
        // Worker 1 drains [4, 8), then steals the back half of
        // worker 0's untouched [0, 4) → [2, 4).
        for _ in 0..4 {
            let _ = sched.next(1).unwrap();
        }
        assert_eq!(sched.next(1), Some(2));
        // Victim keeps its head: worker 0 still claims 0, 1.
        assert_eq!(sched.next(0), Some(0));
        assert_eq!(sched.next(0), Some(1));
        // The parked remainder of the stolen block comes next for 1.
        assert_eq!(sched.next(1), Some(3));
    }

    #[test]
    fn every_cta_claimed_exactly_once_under_contention() {
        for (total, workers) in [(97, 4), (256, 8), (31, 7), (8, 8), (3, 5)] {
            let sched = CtaScheduler::new(total, workers);
            let claimed = Mutex::new(vec![0usize; total]);
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let sched = &sched;
                    let claimed = &claimed;
                    scope.spawn(move || {
                        while let Some(id) = sched.next(w) {
                            claimed.lock().unwrap()[id] += 1;
                        }
                    });
                }
            });
            let claimed = claimed.into_inner().unwrap();
            assert!(
                claimed.iter().all(|&c| c == 1),
                "{total}x{workers}: every CTA exactly once, got {claimed:?}"
            );
            assert_eq!(sched.remaining(), 0);
        }
    }

    #[test]
    fn claims_report_their_provenance() {
        let sched = CtaScheduler::new(8, 2);
        assert_eq!(sched.next_claim(0), Some(Claim { id: 0, stolen: false }));
        // Worker 1 drains its own range [4, 8)...
        for id in 4..8 {
            assert_eq!(sched.next_claim(1), Some(Claim { id, stolen: false }));
        }
        // ...then its next claim must be marked stolen.
        let claim = sched.next_claim(1).unwrap();
        assert!(claim.stolen);
        assert_eq!(sched.steals(), 1);
    }

    #[test]
    fn cursor_claims_every_id_exactly_once() {
        let cursor = GridCursor::new(97);
        let claimed = Mutex::new(vec![0usize; 97]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cursor = &cursor;
                let claimed = &claimed;
                scope.spawn(move || {
                    while let Some(id) = cursor.claim() {
                        claimed.lock().unwrap()[id] += 1;
                    }
                });
            }
        });
        assert!(claimed.into_inner().unwrap().iter().all(|&c| c == 1));
        assert!(cursor.exhausted());
        assert_eq!(cursor.total(), 97);
    }

    #[test]
    fn empty_cursor_is_born_exhausted() {
        let cursor = GridCursor::new(0);
        assert_eq!(cursor.claim(), None);
        assert!(cursor.exhausted());
    }

    #[test]
    fn excess_workers_and_empty_grids_are_fine() {
        let sched = CtaScheduler::new(2, 6);
        assert!(sched.next(5).is_some(), "an empty-range worker steals immediately");
        let sched = CtaScheduler::new(0, 3);
        for w in 0..3 {
            assert_eq!(sched.next(w), None);
        }
    }
}
