//! The pack arena: the only storage packed panel chunks ever live in.
//!
//! A launch packs tens to hundreds of operand chunks. Giving each its
//! own `Vec` meant a fresh allocation per chunk at first pack and a
//! free per chunk at launch end; glibc hands freed memory of that size
//! back to the kernel, so every launch re-faulted its whole pack
//! footprint (DESIGN.md §9 has the counts). A [`PackArena`] outlives
//! launches instead: the executor keeps one per input type in its
//! pool's launch-level scratch store, lends it to each launch's
//! [`PackCache`](crate::PackCache), and takes it back afterwards.
//!
//! **Storage.** One slab per cache shard, bump-allocated under the
//! shard's mutex when a CTA wins a chunk's claim. Reuse is therefore
//! shard-local: with one shard per worker (the default) a worker
//! writes this launch the bytes it wrote last launch. A shard that
//! consumes more than last time — its worker stole a CTA range —
//! continues in the unused tail of a neighbour's slab, which is where
//! the room is: the victim is not packing those chunks. Only when no
//! slab has room (the first launch always: an arena starts empty) does
//! a chunk get an allocation of its own, exact-size, so a cold launch
//! allocates what the per-chunk `Vec`s did and no more. When the
//! launch ends those are freed and the shard's slab grows by as much.
//!
//! **Retention bound.** Between launches the slabs *together* hold no
//! more than the most any one of the last [`WINDOW`] launches
//! *consumed* plus one of that launch's chunks per slab (so that tails
//! too short to use do not turn into allocations), and nothing at all
//! below [`RETAIN_MIN_BYTES`] — a high-water mark like the one
//! [`Workspace`](crate::Workspace)'s partial pool keeps, over a window.
//! Nothing is sized from what a launch could have packed, so the
//! pack-what-you-consume footprint survives. The mark is the arena's,
//! not each slab's: when the first worker to wake runs a short launch
//! alone, and a different worker does next time, a mark per slab adds
//! up to one launch's consumption *per shard*. And it is a window, so
//! an executor that ran one deep problem and then many shallow ones
//! does not carry the deep one's panels for life (an all-time mark
//! did: +11 % live heap on the benchmark's deep-k set-up, which meets
//! its largest shape first).
//!
//! **Lines.** Every range starts on a cache line: slabs and overflow
//! allocations are [`AlignedVec`]s, and a range takes a whole number
//! of lines out of its slab, so the next one starts on a line too. A
//! packed k-step of a 16-wide f64 or 32-wide f32 panel is then two
//! whole lines rather than three part-lines (DESIGN.md §8). Ranges are
//! counted in lines everywhere — consumption, retention, the longest
//! range — so a slab sized from one launch fits the same launch again
//! whatever order its ranges are claimed in.
//!
//! **Dirty storage.** Starting a launch rewinds the bump pointers; it
//! does not clear. A recycled range holds an earlier launch's panels,
//! so the packers write every lane they are handed, pad lanes included
//! ([`pack_a_slice`](streamk_matrix::pack_a_slice)).
//!
//! **The `unsafe` site.** [`SlotTable`] hands disjoint ranges of the
//! slabs to concurrent packers and shares published ranges with
//! concurrent readers, which Rust cannot express through references
//! into a `Vec` — the same situation as [`TileWriter`]'s disjoint
//! output tiles (`output.rs`). The table owns the arena, the slots and
//! the claim/publish flags together, so every condition the two
//! `unsafe` blocks rely on is established in this file; `packcache.rs`
//! on top of it is safe code.
//!
//! [`TileWriter`]: crate::output

use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use streamk_matrix::{AlignedVec, LINE};

use crate::pad::CachePadded;

/// What an executor's pack arena holds and has done; see
/// [`CpuExecutor::pack_arena_stats`](crate::CpuExecutor::pack_arena_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Allocations of pack storage since the arena was created: slab
    /// growths plus overflow ranges. A warmed-up arena stops
    /// incrementing this.
    pub fresh: usize,
    /// Bytes of pack storage currently held.
    pub retained_bytes: usize,
    /// Bytes the most recent launch packed into.
    pub consumed_bytes: usize,
}

/// Launches the arena looks back over when it decides how much to
/// keep: longer than the cycles of shapes a caller interleaves on one
/// executor (the benchmark's are 2, 4 and 5 launches long), short
/// enough that an executor which has moved on to smaller problems
/// gives the difference back.
const WINDOW: usize = 8;

/// An arena whose bound is under this keeps nothing. Twice
/// glibc's default trim and mmap thresholds: freed memory below them
/// stays mapped and is handed out again without a page fault, so
/// keeping it here saves nothing, while every caller would see it as
/// live heap between launches (+8–11 % on the benchmark's smallest
/// workload, whose whole pack footprint is 110–140 KB).
const RETAIN_MIN_BYTES: usize = 256 << 10;

/// `len` elements rounded up to whole cache lines: what a range of
/// `len` takes out of a slab, so that the next one starts on a line
/// too (every slab and overflow range does).
fn lined<In>(len: usize) -> usize {
    len.next_multiple_of((LINE / size_of::<In>()).max(1))
}

/// One shard's storage.
#[derive(Debug)]
struct Slab<In> {
    /// The retained slab, starting on a line. Resized only by
    /// [`Slab::settle`].
    main: AlignedVec<In>,
    /// Ranges handed out this launch when no slab had room, one
    /// exact-size allocation each, each on a line.
    overflow: Vec<AlignedVec<In>>,
    /// Elements of `main` handed out this launch: whole lines.
    bump: usize,
    /// The longest range handed out this launch, in whole lines.
    largest: usize,
    fresh: usize,
}

// Not derived: that would ask for `In: Default`, which an empty slab
// does not need.
impl<In> Default for Slab<In> {
    fn default() -> Self {
        Self { main: AlignedVec::new(), overflow: Vec::new(), bump: 0, largest: 0, fresh: 0 }
    }
}

impl<In: Copy + Default> Slab<In> {
    /// Elements this launch has needed of the slab so far, in whole
    /// lines per range: what it handed out of `main`, to its own shard
    /// or a neighbour, plus the overflow.
    fn in_use(&self) -> usize {
        self.bump + self.overflow.iter().map(|range| lined::<In>(range.len())).sum::<usize>()
    }

    /// Ends a launch: frees the overflow, resizes `main` to `keep`
    /// elements and rewinds it.
    fn settle(&mut self, keep: usize) {
        self.overflow.clear();
        self.bump = 0;
        self.largest = 0;
        if keep > self.main.len() {
            self.fresh += 1;
            // The contents are dead, so free before allocating: a
            // `resize` may hold both buffers while it copies one.
            self.main = AlignedVec::new();
            self.main = AlignedVec::zeroed(keep);
        } else if keep < self.main.len() {
            self.main.shrink_to(keep);
        }
    }

    /// The next `len` elements of `main`, starting on a line, if it
    /// has that many left; the range takes whole lines of it.
    fn bump(&mut self, len: usize) -> Option<*mut In> {
        let lines = lined::<In>(len);
        (lines <= self.main.len() - self.bump).then(|| {
            let at = self.bump;
            self.bump += lines;
            self.largest = self.largest.max(lines);
            // Neither `as_mut_ptr` nor `len` materialises a reference
            // to the buffer, so ranges handed out earlier stay valid.
            self.main.as_mut_ptr().wrapping_add(at)
        })
    }

    /// `len` freshly allocated elements, starting on a line.
    fn spill(&mut self, len: usize) -> *mut In {
        self.fresh += 1;
        self.largest = self.largest.max(lined::<In>(len));
        self.overflow.push(AlignedVec::zeroed(len));
        self.overflow.last_mut().expect("just pushed").as_mut_ptr()
    }
}

/// Pack storage that outlives launches; see the module docs.
#[derive(Debug)]
pub(crate) struct PackArena<In> {
    shards: Vec<CachePadded<Mutex<Slab<In>>>>,
    /// What each of the last [`WINDOW`] launches may keep: the
    /// elements it consumed, all slabs together, plus its longest
    /// chunk per slab.
    keep: [usize; WINDOW],
    /// Launches settled so far; indexes `keep` modulo [`WINDOW`].
    launches: usize,
    /// Elements the last launch consumed.
    consumed: usize,
}

impl<In> Default for PackArena<In> {
    fn default() -> Self {
        Self { shards: Vec::new(), keep: [0; WINDOW], launches: 0, consumed: 0 }
    }
}

impl<In: Copy + Default> PackArena<In> {
    /// Makes room for a launch that addresses `shards` shards. Shards
    /// a narrower launch does not address keep their slabs (and lend
    /// them, see [`alloc`](Self::alloc)).
    fn widen(&mut self, shards: usize) {
        if self.shards.len() < shards {
            self.shards.resize_with(shards, Default::default);
        }
    }

    /// Ends a launch. Every slab is resized to what the launch needed
    /// of it — up by what it had to overflow — plus as much of its
    /// unused tail as the retention bound leaves room for, first slab
    /// first, and rewound.
    fn settle(&mut self) {
        fn slabs<In>(
            shards: &mut [CachePadded<Mutex<Slab<In>>>],
        ) -> impl Iterator<Item = &mut Slab<In>> {
            shards.iter_mut().map(|shard| shard.get_mut().unwrap_or_else(PoisonError::into_inner))
        }
        let (consumed, slack) = slabs(&mut self.shards)
            .fold((0, 0), |(consumed, slack), slab| (consumed + slab.in_use(), slack + slab.largest));
        self.consumed = consumed;
        self.keep[self.launches % WINDOW] = consumed + slack;
        self.launches += 1;
        let bound = self.keep.iter().copied().max().unwrap_or(0);
        let retain = bound * size_of::<In>() >= RETAIN_MIN_BYTES;
        let mut spare = bound - consumed;
        for slab in slabs(&mut self.shards) {
            let needed = slab.in_use();
            let tail = slab.main.len().saturating_sub(needed).min(spare);
            spare -= tail;
            slab.settle(if retain { needed + tail } else { 0 });
        }
    }

    fn slab(&self, shard: usize) -> MutexGuard<'_, Slab<In>> {
        // Every update of a slab leaves it valid, so a poisoned lock
        // is still usable.
        self.shards[shard].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `len` initialised elements that no other call this launch has
    /// been given and that stay allocated until the launch is
    /// settled: from `shard`'s slab while it lasts, then from the
    /// unused tail of a neighbour's, and only when no slab has room
    /// from a fresh allocation. One lock is held at a time.
    fn alloc(&self, shard: usize, len: usize) -> *mut In {
        let shards = self.shards.len();
        (0..shards)
            .find_map(|step| self.slab((shard + step) % shards).bump(len))
            .unwrap_or_else(|| self.slab(shard).spill(len))
    }

    pub(crate) fn stats(&self) -> ArenaStats {
        let mut stats =
            ArenaStats { consumed_bytes: self.consumed * size_of::<In>(), ..Default::default() };
        for shard in 0..self.shards.len() {
            let slab = self.slab(shard);
            stats.fresh += slab.fresh;
            let overflow = slab.overflow.iter().map(AlignedVec::len).sum::<usize>();
            stats.retained_bytes += (slab.main.len() + overflow) * size_of::<In>();
        }
        stats
    }
}

const EMPTY: u32 = 0;
const PACKING: u32 = 1;
const READY: u32 = 2;

/// One lazily-packed chunk: the claim/publish flag and, once `READY`,
/// where in the arena the chunk is. The address stands in for a
/// (slab, offset) pair: which slab a range came from — the shard's
/// retained one or an overflow allocation made mid-launch — is only
/// known under the shard's lock, and readers take no lock.
#[derive(Debug)]
struct Slot<In> {
    state: AtomicU32,
    ptr: AtomicPtr<In>,
    len: AtomicUsize,
}

/// A launch's chunk slots together with the arena they point into.
#[derive(Debug)]
pub(crate) struct SlotTable<In> {
    arena: PackArena<In>,
    slots: Vec<CachePadded<Slot<In>>>,
}

// `In: Send + Sync` is load-bearing: `get` gives every thread a `&[In]`
// into storage another thread wrote, and the `AtomicPtr` the address
// travels in is `Send + Sync` whatever it points to, so the compiler
// would not ask.
impl<In: Copy + Default + Send + Sync> SlotTable<In> {
    /// `slots` empty slots over `arena`, for a launch that addresses
    /// `shards` shards.
    pub(crate) fn new(mut arena: PackArena<In>, shards: usize, slots: usize) -> Self {
        arena.widen(shards);
        let slots = (0..slots)
            .map(|_| {
                CachePadded::new(Slot {
                    state: AtomicU32::new(EMPTY),
                    ptr: AtomicPtr::new(std::ptr::null_mut()),
                    len: AtomicUsize::new(0),
                })
            })
            .collect();
        Self { arena, slots }
    }

    /// Ends the launch: the slots go, the storage stays, settled to
    /// its retention bound.
    pub(crate) fn into_arena(mut self) -> PackArena<In> {
        self.arena.settle();
        self.arena
    }

    #[cfg(test)]
    pub(crate) fn arena(&self) -> &PackArena<In> {
        &self.arena
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The chunk published in `slot`, if one has been.
    pub(crate) fn get(&self, slot: usize) -> Option<&[In]> {
        let slot = &self.slots[slot];
        // Pairs with the packer's release-store in `claim_and_pack`:
        // the address, the length and the packed data are visible.
        if slot.state.load(Ordering::Acquire) != READY {
            return None;
        }
        let (ptr, len) = (slot.ptr.load(Ordering::Relaxed), slot.len.load(Ordering::Relaxed));
        // SAFETY: `ptr..ptr + len` is a range `Slab::alloc` handed to
        // this slot's one packer.
        // - It is allocated for as long as the returned borrow: slabs
        //   are resized and overflow freed only by `PackArena::settle`,
        //   which `into_arena` runs after taking the table by value, or
        //   by dropping the arena; `self` owns the arena, so neither
        //   can happen while `&self` is held. Moving the table moves
        //   `Vec` headers, not the heap buffers the address points
        //   into.
        // - Every element is an initialised `In`: slabs are built from
        //   `In::default()` and only ever written through `&mut [In]`.
        // - Nothing writes it any more. A slot is claimed once (the
        //   EMPTY→PACKING exchange succeeds once and no state leads
        //   back to EMPTY), its packer's `&mut` ended before it stored
        //   READY, and ranges handed out within a launch are pairwise
        //   disjoint, so no other slot's packer writes here.
        Some(unsafe { std::slice::from_raw_parts(ptr, len) })
    }

    /// Claims `slot` if it is empty and, as the one winner, takes
    /// `len` elements of `shard`'s storage, has `pack` fill them and
    /// publishes them. `None` when another caller holds or held the
    /// claim — [`get`](Self::get) then says whether it has published.
    /// `pack` must write every element: the storage is dirty.
    pub(crate) fn claim_and_pack(
        &self,
        slot: usize,
        shard: usize,
        len: usize,
        pack: impl FnOnce(&mut [In]),
    ) -> Option<&[In]> {
        let cell = &self.slots[slot];
        cell.state.compare_exchange(EMPTY, PACKING, Ordering::AcqRel, Ordering::Acquire).ok()?;
        let ptr = self.arena.alloc(shard, len);
        {
            // SAFETY: allocated, initialised and disjoint from every
            // other range as in `get`. This is the only reference to
            // it: `alloc` hands a range out once, and readers only
            // learn the address from the stores below.
            let out = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
            pack(out);
        }
        cell.ptr.store(ptr, Ordering::Relaxed);
        cell.len.store(len, Ordering::Relaxed);
        // Publishes the two stores above and the packed data to every
        // acquire-load of READY in `get`.
        cell.state.store(READY, Ordering::Release);
        self.get(slot)
    }

    /// Leaves `slot` claimed and never published, as a packer that
    /// died mid-pack would.
    #[cfg(test)]
    pub(crate) fn stick(&self, slot: usize) {
        self.slots[slot].state.store(PACKING, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// Elements of the smallest slab that is kept.
    const MIN: usize = RETAIN_MIN_BYTES / size_of::<f64>();

    fn fill(v: f64) -> impl FnOnce(&mut [f64]) {
        move |out| out.fill(v)
    }

    fn all(chunk: &[f64], v: f64) -> bool {
        chunk.iter().all(|&x| x == v)
    }

    #[test]
    fn cold_launch_overflows_exactly_and_settles_into_one_slab_per_shard() {
        let table = SlotTable::<f64>::new(PackArena::default(), 2, 4);
        assert_eq!(table.get(0), None);
        assert!(all(table.claim_and_pack(0, 0, 2 * MIN, fill(1.0)).unwrap(), 1.0));
        assert!(all(table.claim_and_pack(1, 0, MIN, fill(2.0)).unwrap(), 2.0));
        assert!(all(table.claim_and_pack(2, 1, MIN, fill(3.0)).unwrap(), 3.0));
        assert!(table.claim_and_pack(0, 0, 2 * MIN, fill(9.0)).is_none(), "claimed once");
        assert!(all(table.get(0).unwrap(), 1.0));
        let cold = table.arena().stats();
        assert_eq!((cold.fresh, cold.retained_bytes), (3, 4 * RETAIN_MIN_BYTES), "exact-size overflow");

        // Settled: one slab per shard, exactly what was consumed.
        let table = SlotTable::new(table.into_arena(), 2, 4);
        let settled = ArenaStats {
            fresh: 5,
            retained_bytes: 4 * RETAIN_MIN_BYTES,
            consumed_bytes: 4 * RETAIN_MIN_BYTES,
        };
        assert_eq!(table.arena().stats(), settled);
        let first = table.claim_and_pack(3, 0, 2 * MIN, fill(4.0)).unwrap().as_ptr();
        let second = table.claim_and_pack(1, 0, MIN, fill(5.0)).unwrap().as_ptr();
        assert_eq!(second, first.wrapping_add(2 * MIN), "bump-allocated out of one slab");
        // Shard 0 is full; its next chunk goes where shard 1 has room.
        let lent = table.claim_and_pack(0, 0, MIN / 2, fill(6.0)).unwrap().as_ptr();
        let own = table.claim_and_pack(2, 1, MIN / 4, fill(7.0)).unwrap().as_ptr();
        assert_eq!(own, lent.wrapping_add(MIN / 2), "shard 1 carries on behind the range it lent");
        assert!(all(table.get(3).unwrap(), 4.0) && all(table.get(0).unwrap(), 6.0));
        assert_eq!(table.arena().stats(), settled, "a warm launch allocates no pack storage");
    }

    /// Every range starts on a line, whether it is an overflow
    /// allocation, a range of its own shard's slab or of a neighbour's,
    /// and whatever its length: none here is a whole number of lines.
    #[test]
    fn every_range_starts_on_a_line() {
        fn on_line(chunk: &[f64]) -> bool {
            (chunk.as_ptr() as usize).is_multiple_of(LINE)
        }
        let lens = [MIN + 1, 3, MIN / 2 + 5, 7001];
        let cold = SlotTable::<f64>::new(PackArena::default(), 2, lens.len());
        for (slot, &len) in lens.iter().enumerate() {
            assert!(on_line(cold.claim_and_pack(slot, slot % 2, len, fill(1.0)).unwrap()), "overflow {slot}");
        }
        // Settled: shard 0 keeps ranges 0 and 2, shard 1 ranges 1 and 3.
        let warm = SlotTable::new(cold.into_arena(), 2, lens.len() + 1);
        let (fresh, next_door) = (warm.arena().stats().fresh, warm.arena().slab(1).main.as_ptr());
        for slot in [0, 2, 1, 3] {
            let range = warm.claim_and_pack(slot, 0, lens[slot], fill(2.0)).unwrap();
            assert!(on_line(range), "shard 0's range {slot}");
            if slot == 1 {
                assert_eq!(range.as_ptr(), next_door, "shard 0 continues in shard 1's slab");
            }
        }
        assert_eq!(warm.arena().stats().fresh, fresh, "all four came out of the slabs");
        assert!(on_line(warm.claim_and_pack(lens.len(), 0, MIN, fill(3.0)).unwrap()), "a mid-launch spill");
        assert_eq!(warm.arena().stats().fresh, fresh + 1);
    }

    /// One launch in which `shard` packs `chunks` chunks of `len`
    /// elements; returns what the arena held while it ran.
    fn launch(
        arena: PackArena<f64>,
        shards: usize,
        shard: usize,
        chunks: usize,
        len: usize,
    ) -> (PackArena<f64>, usize) {
        let table = SlotTable::new(arena, shards, chunks);
        for slot in 0..chunks {
            table.claim_and_pack(slot, shard, len, fill(1.0)).unwrap();
        }
        let held = table.arena().stats().retained_bytes;
        (table.into_arena(), held)
    }

    #[test]
    fn a_large_launch_sets_the_retention_until_a_window_of_small_ones_has_passed() {
        let (mut arena, _) = launch(PackArena::default(), 1, 0, 8, MIN);
        assert_eq!(arena.stats().retained_bytes, 8 * RETAIN_MIN_BYTES, "what the launch consumed");
        for small in 0..WINDOW - 1 {
            // A wider launch in between keeps the slab too.
            let (next, held) = launch(arena, 1 + small % 3, 0, 2, MIN + small);
            assert_eq!(held, 8 * RETAIN_MIN_BYTES, "small launch {small}: no more than the large one");
            arena = next;
        }
        assert_eq!(arena.stats().fresh, 9, "eight cold overflows and one consolidation");
        let (arena, _) = launch(arena, 1, 0, 2, MIN);
        let stats = arena.stats();
        assert_eq!(
            stats.retained_bytes,
            3 * lined::<f64>(MIN + WINDOW - 2) * 8,
            "the most the last {WINDOW} consumed, and one chunk, in whole lines"
        );
        assert_eq!(stats.fresh, 9, "shrinking allocates nothing");

        // Under the floor nothing is kept: the launch's chunks are
        // its own allocations, freed when it ends. (One line short of
        // half the floor: a chunk and the slack for one more, both in
        // whole lines, stay under it.)
        let short = MIN / 2 - LINE / 8;
        let (arena, held) = launch(PackArena::default(), 1, 0, 1, short);
        assert_eq!((held, arena.stats().retained_bytes), (short * 8, 0));
    }

    /// The first worker to wake can run a short launch alone, and a
    /// different one the next time. The bound is the arena's, so the
    /// idle shard's slab goes and the busy one lends its own: a bound
    /// per slab kept one launch's consumption in each.
    #[test]
    fn work_moving_between_shards_does_not_add_up_to_a_slab_each() {
        let mut arena = PackArena::default();
        for round in 0..2 * WINDOW {
            let (next, held) = launch(arena, 2, round % 2, 4, MIN);
            assert_eq!(held, 4 * RETAIN_MIN_BYTES, "round {round}");
            arena = next;
        }
        assert_eq!(arena.stats().fresh, 5, "four cold overflows and one consolidation");
    }

    /// Recycled storage is handed out dirty and read back as packed.
    #[test]
    fn recycled_ranges_are_dirty_until_packed() {
        // Cold (the chunk is its own allocation), then into the slab.
        let table = SlotTable::<f64>::new(PackArena::default(), 1, 1);
        table.claim_and_pack(0, 0, MIN, fill(7.0)).unwrap();
        let table = SlotTable::new(table.into_arena(), 1, 1);
        table.claim_and_pack(0, 0, MIN, fill(7.0)).unwrap();
        let table = SlotTable::new(table.into_arena(), 1, 1);
        let seen = table
            .claim_and_pack(0, 0, MIN, |out| {
                assert!(all(out, 7.0), "last launch's panels are still there");
                out.fill(8.0);
            })
            .unwrap();
        assert!(all(seen, 8.0));
    }

    /// Sixteen peers race for every slot of a single-shard table whose
    /// arena is empty the first round and too small the next two: each
    /// slot is packed by exactly one of them, every peer reads the
    /// winner's bytes, and growth under contention hands out disjoint
    /// ranges (a shared range would show another slot's fill value).
    #[test]
    fn contended_claims_on_a_cold_arena_pack_each_slot_once() {
        const PEERS: usize = 16;
        const SLOTS: usize = 24;
        let mut arena = PackArena::<f64>::default();
        for round in 0..3 {
            let table = SlotTable::new(arena, 1, SLOTS);
            let packs = AtomicUsize::new(0);
            let barrier = Barrier::new(PEERS);
            std::thread::scope(|s| {
                for peer in 0..PEERS {
                    let (table, packs, barrier) = (&table, &packs, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        for i in 0..SLOTS {
                            let slot = (i + peer) % SLOTS;
                            let len = MIN / 8 + 8 * slot + 32 * round;
                            let won = table.claim_and_pack(slot, 0, len, |out| {
                                packs.fetch_add(1, Ordering::Relaxed);
                                out.fill(slot as f64);
                            });
                            let chunk = won.or_else(|| loop {
                                if let Some(chunk) = table.get(slot) {
                                    break Some(chunk);
                                }
                                std::thread::yield_now();
                            });
                            let chunk = chunk.unwrap();
                            assert!(chunk.len() == len && all(chunk, slot as f64));
                        }
                    });
                }
            });
            assert_eq!(packs.load(Ordering::Relaxed), SLOTS, "round {round}");
            for slot in 0..SLOTS {
                assert!(all(table.get(slot).unwrap(), slot as f64));
            }
            let spilled = table.arena().stats().fresh;
            arena = table.into_arena();
            assert!(arena.stats().retained_bytes >= 3 * RETAIN_MIN_BYTES, "round {round} is kept");
            assert!(round == 0 || spilled > 0, "round {round} outgrew what round {} left", round - 1);
        }
    }
}
