//! Per-worker scratch arena for the executor hot path.
//!
//! Every CTA segment used to build fresh heap allocations: an
//! accumulator tile per CTA, a new partial-sum vector after each
//! `store_and_signal` (which takes its buffer by value), and a
//! recomputation tile per recovery. [`Workspace`] owns all of that
//! per worker thread and recycles it, so once each buffer reaches its
//! high-water mark the steady-state hot path performs **zero heap
//! allocation** for accumulator tiles, fixup partials and the private
//! pack staging. (The shared panel chunks a cached launch packs are
//! not here: they live in the executor's pack arena, `arena.rs`,
//! which is what makes *them* allocation-free in steady state.)
//!
//! Lifecycle per worker:
//!
//! 1. [`Workspace::new`] once, sized to the decomposition's tile;
//!    [`begin_launch`](Workspace::begin_launch) at the start of every
//!    launch after that.
//! 2. Per segment: the engine's kernels write into a pooled tile from
//!    [`take_partial`](Workspace::take_partial) — a buffer that can be
//!    parked with a deferred consolidation or handed to another worker
//!    without leaving the workspace short of one — and packing goes
//!    through [`pack`](Workspace::pack).
//! 3. A contributor CTA hands its tile to the fixup board (ownership
//!    transfers to the waiting owner).
//! 4. An owner CTA receives peers' partial vectors from the board,
//!    folds them in, and returns them — and, once the tile is stored,
//!    its own — to its pool via
//!    [`recycle_partial`](Workspace::recycle_partial): the pool
//!    refills from traffic, so cross-thread transfer still converges
//!    to allocation-free steady state.
//!
//! The pool is **bounded**: partials flow one way, contributor to
//! owner, so a worker that keeps ending up owner is handed a
//! tile-sized buffer per split tile per launch and would otherwise
//! hoard them all. It keeps no more than it has ever had taken out at
//! once *within one launch* (takes minus returns, at its high-water
//! mark) — the most its own [`take_partial`](Workspace::take_partial)
//! calls can draw before traffic refills the pool — and drops the
//! rest. The count restarts with each launch because a contributor's
//! hand-offs never come back: carried over, they would raise the
//! bound by one per launch and the worker would hoard that many
//! partials the next time it is an owner.
//!
//! [`fresh_allocs`](Workspace::fresh_allocs) counts pool misses so
//! tests can pin the "allocation-free after warm-up" property.

use streamk_matrix::Scalar;

use crate::microkernel::PackBuffers;

/// Reusable per-worker buffers: pack panels, recovery scratch, and a
/// pool of fixup partial buffers (the accumulator tiles).
#[derive(Debug)]
pub struct Workspace<In, Acc> {
    /// Operand pack staging shared by every packed-kernel call. When
    /// the launch carries a shared [`PackCache`](crate::PackCache)
    /// these buffers serve only the *fallback* path (register-block
    /// mismatch, or a watchdog-expired panel wait) — the steady state reads the cache's shared panels and
    /// never touches this staging at all.
    pub pack: PackBuffers<In>,
    /// Recovery scratch for recomputing a lost peer's contribution.
    pub scratch: Vec<Acc>,
    pool: Vec<Vec<Acc>>,
    /// Buffers taken this launch and not (yet) given back: takes minus
    /// recycles, floored at zero. A contributor's hand-offs never come
    /// back, so within a launch this only grows for it.
    taken: usize,
    /// High-water mark of `taken`: the pool's capacity.
    peak_taken: usize,
    tile_len: usize,
    fresh_allocs: usize,
}

impl<In, Acc: Scalar> Workspace<In, Acc> {
    /// A workspace for tiles of `tile_len = BLK_M · BLK_N` elements.
    /// `scratch` is allocated eagerly; the partial pool starts empty
    /// and grows on demand.
    #[must_use]
    pub fn new(tile_len: usize) -> Self {
        Self {
            pack: PackBuffers::new(),
            scratch: vec![Acc::ZERO; tile_len],
            pool: Vec::new(),
            taken: 0,
            peak_taken: 0,
            tile_len,
            fresh_allocs: 1,
        }
    }

    /// Tile length this workspace was sized for.
    #[must_use]
    pub fn tile_len(&self) -> usize {
        self.tile_len
    }

    /// Re-sizes the workspace for tiles of `tile_len` elements.
    ///
    /// A persistent pool worker keeps one workspace across launches
    /// whose decompositions may use different tile shapes. When the
    /// length matches, this is a no-op and every warm buffer survives;
    /// otherwise `scratch` is resized and the partial pool is
    /// cleared (its buffers are the wrong length for the new launch)
    /// along with the demand history that sized it. Pack staging is
    /// kept either way — [`PackBuffers`] grows to the
    /// high-water mark on its own.
    pub fn ensure_tile_len(&mut self, tile_len: usize) {
        if self.tile_len == tile_len {
            return;
        }
        self.tile_len = tile_len;
        self.scratch.clear();
        self.scratch.resize(tile_len, Acc::ZERO);
        self.pool.clear();
        self.taken = 0;
        self.peak_taken = 0;
        self.fresh_allocs += 1;
    }

    /// Starts a launch with tiles of `tile_len` elements:
    /// [`ensure_tile_len`](Self::ensure_tile_len), and the count of
    /// outstanding partials starts over (the pool's capacity, its
    /// high-water mark, is kept).
    pub fn begin_launch(&mut self, tile_len: usize) {
        self.ensure_tile_len(tile_len);
        self.taken = 0;
    }

    /// Zeroes the recovery scratch tile.
    pub fn reset_scratch(&mut self) {
        self.scratch.fill(Acc::ZERO);
    }

    /// A zeroed tile-sized buffer, drawn from the pool when possible.
    /// The caller keeps ownership (typically handing it to the fixup
    /// board); return buffers with [`recycle_partial`].
    #[must_use]
    pub fn take_partial(&mut self) -> Vec<Acc> {
        self.taken += 1;
        self.peak_taken = self.peak_taken.max(self.taken);
        match self.pool.pop() {
            Some(mut buf) => {
                buf.fill(Acc::ZERO);
                buf
            }
            None => {
                self.fresh_allocs += 1;
                vec![Acc::ZERO; self.tile_len]
            }
        }
    }

    /// Returns a tile-sized buffer (ours or one received from a peer
    /// through the fixup board) to the pool. Buffers of any other
    /// length are dropped — they belong to a different decomposition —
    /// and so is one the pool has no use for: it holds at most as many
    /// as this worker has ever had taken out at once.
    pub fn recycle_partial(&mut self, buf: Vec<Acc>) {
        if buf.len() != self.tile_len {
            return;
        }
        self.taken = self.taken.saturating_sub(1);
        if self.pool.len() < self.peak_taken {
            self.pool.push(buf);
        }
    }

    /// Number of heap allocations performed since construction
    /// (including the eager `scratch`). A warmed-up workspace stops
    /// incrementing this.
    #[must_use]
    pub fn fresh_allocs(&self) -> usize {
        self.fresh_allocs
    }

    /// Buffers currently parked in the partial pool.
    #[must_use]
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Ws = Workspace<f32, f64>;

    #[test]
    fn take_recycle_reaches_allocation_free_steady_state() {
        let mut ws = Ws::new(16);
        // Warm-up: two buffers in flight at once.
        let a = ws.take_partial();
        let b = ws.take_partial();
        ws.recycle_partial(a);
        ws.recycle_partial(b);
        let after_warmup = ws.fresh_allocs();
        for _ in 0..100 {
            let x = ws.take_partial();
            let y = ws.take_partial();
            assert!(x.iter().all(|v| *v == 0.0) && y.iter().all(|v| *v == 0.0));
            ws.recycle_partial(x);
            ws.recycle_partial(y);
        }
        assert_eq!(ws.fresh_allocs(), after_warmup, "steady state must not allocate");
        assert_eq!(ws.pooled(), 2);
    }

    #[test]
    fn recycled_buffers_are_zeroed_on_reuse() {
        let mut ws = Ws::new(4);
        let mut buf = ws.take_partial();
        buf.fill(3.5);
        ws.recycle_partial(buf);
        assert_eq!(ws.take_partial(), vec![0.0; 4]);
    }

    /// The benchmark's finding: a worker that is owner launch after
    /// launch is handed a peer's buffer per split tile and used to keep
    /// every one. The pool now stops at the worker's own demand, and
    /// that demand is still served without allocating.
    #[test]
    fn owner_only_recycling_leaves_the_pool_bounded() {
        let mut ws = Ws::new(16);
        // Warm-up at this worker's real demand: one parked
        // consolidation at a time.
        let parked = ws.take_partial();
        ws.recycle_partial(vec![0.0; 16]); // a peer's partial, folded
        ws.recycle_partial(parked);
        assert_eq!(ws.pooled(), 1);
        let after_warmup = ws.fresh_allocs();
        for launch in 0..1_000 {
            // Every tenth launch parks again; every launch folds a
            // peer's buffer this worker never took.
            let parked = (launch % 10 == 0).then(|| ws.take_partial());
            ws.recycle_partial(vec![0.0; 16]);
            if let Some(buf) = parked {
                ws.recycle_partial(buf);
            }
            assert!(ws.pooled() <= 1, "launch {launch}: pool grew to {}", ws.pooled());
        }
        assert_eq!(ws.fresh_allocs(), after_warmup, "bounded pool must still serve every take");

        // A worker that never takes has no use for a pool at all.
        let mut idle = Ws::new(16);
        for _ in 0..1_000 {
            idle.recycle_partial(vec![0.0; 16]);
        }
        assert_eq!(idle.pooled(), 0);
    }

    /// A worker's role alternates from launch to launch — with who
    /// shows up and what it steals in a direct launch, with the
    /// requests it happens to sweep in the service. What it handed off
    /// as a contributor is gone for good and must not count against
    /// later launches: carried over, the bound rose by one per round
    /// and the final owner launch here kept all eight of its peers'
    /// buffers.
    #[test]
    fn alternating_roles_keep_the_bound_at_one_launchs_high_water() {
        let mut ws = Ws::new(16);
        for round in 0..100 {
            // Contributor only: two seams, both partials handed to
            // the board.
            ws.begin_launch(16);
            let _handed_off = (ws.take_partial(), ws.take_partial());
            // Owner only: folds one peer's partial it never took.
            ws.begin_launch(16);
            ws.recycle_partial(vec![0.0; 16]);
            assert!(ws.pooled() <= 2, "round {round}: pool grew to {}", ws.pooled());
        }
        ws.begin_launch(16);
        for _ in 0..8 {
            ws.recycle_partial(vec![0.0; 16]);
        }
        assert_eq!(ws.pooled(), 2, "two out at once is the most any launch had");
    }

    #[test]
    fn foreign_sized_buffers_are_dropped_not_pooled() {
        let mut ws = Ws::new(4);
        let _handed_off = ws.take_partial();
        ws.recycle_partial(vec![0.0; 8]);
        assert_eq!(ws.pooled(), 0);
        ws.recycle_partial(vec![0.0; 4]);
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn ensure_tile_len_is_a_noop_when_unchanged_and_resizes_otherwise() {
        let mut ws = Ws::new(4);
        let warm = ws.take_partial();
        ws.recycle_partial(warm);
        let allocs = ws.fresh_allocs();
        ws.ensure_tile_len(4);
        assert_eq!(ws.fresh_allocs(), allocs, "same length must keep everything warm");
        assert_eq!(ws.pooled(), 1);
        ws.ensure_tile_len(9);
        assert_eq!(ws.tile_len(), 9);
        assert_eq!(ws.scratch.len(), 9);
        assert_eq!(ws.pooled(), 0, "stale-length pool buffers must be dropped");
        assert_eq!(ws.take_partial().len(), 9);
    }

    #[test]
    fn reset_helpers_zero_in_place() {
        let mut ws = Ws::new(4);
        ws.scratch.fill(2.0);
        let sp = ws.scratch.as_ptr();
        ws.reset_scratch();
        assert_eq!(ws.scratch, vec![0.0; 4]);
        assert_eq!(ws.scratch.as_ptr(), sp);
        assert_eq!(ws.tile_len(), 4);
    }
}
