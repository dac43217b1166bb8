//! Grid-shared operand panel cache: pack each k-chunk of a panel once
//! per GEMM, and only the chunks somebody consumes.
//!
//! Stream-K deliberately makes many CTAs traverse the same output
//! tile's k-iterations (that is the whole fixup story of Algorithms
//! 4-5), and every CTA in a tile *row* reads the same A row-panel
//! while every CTA in a tile *column* reads the same B column-panel.
//! The per-worker [`PackBuffers`] pipeline therefore re-packs each
//! panel once per CTA segment. [`PackCache`] hoists that work to the
//! launch level: lazily-packed panels per tile row of A and per tile
//! column of B, shared by every worker.
//!
//! **K-chunk slots.** A panel is not one slot but
//! `⌈k / chunk_k⌉` of them, keyed `(shard, panel, chunk)`. A chunk is
//! `CHUNK_K` k-steps rounded to whole MAC iterations
//! ([`PackCache::chunk_k`]), so chunk seams always fall *between*
//! iterations. [`mac_loop_kernel_cached`] walks a segment chunk by
//! chunk — fetch (or pack) the A and B chunk, run the microkernel on
//! just that k-window, move on — which buys two things:
//!
//! - pack cost is proportional to the iterations a worker *owns*, the
//!   `c · iters` of the paper's App. A.1 model: a CTA that covers half
//!   of a split tile packs half of its panels, not all of them;
//! - a chunk (`blk · chunk_k` elements per operand) is still
//!   cache-resident when the microkernel reads it back, instead of a
//!   full-k panel being written out to memory first.
//!
//! Every output element still sees the same ascending-k fused
//! multiply-add sequence — the accumulator tile is stored and
//! reloaded exactly at each seam — so results are bit-identical to
//! the unchunked walk.
//!
//! **Claim/publish protocol.** Each chunk slot carries a three-state
//! atomic flag, a sibling of the fixup board's:
//!
//! - *empty* → *packing*: the first CTA to touch the chunk wins a CAS,
//!   takes a range of its shard's arena storage and packs into it;
//! - *packing* → *ready*: the packer publishes with a release-store;
//!   later CTAs acquire-load the flag and read the shared chunk —
//!   the same happens-before edge the fixup `Signal`/`Wait` uses. The
//!   flag is the only lock a chunk has.
//! - A CTA that loses the claim race descends the *same*
//!   spin → yield → park backoff ladder as the fixup wait
//!   ([`WaitPolicy::wait_until`]). If the packer stalls past the
//!   watchdog (it shares the executor's deadline), the waiter falls
//!   back to private packing of *that chunk only* — its neighbours
//!   stay cached — so the cache is a pure optimization and can never
//!   deadlock a launch or change results.
//!
//! **Storage.** Chunks live in a pack arena (`arena.rs`) that the
//! executor owns and lends to each launch's cache, so a steady-state
//! launch allocates no pack storage and touches no fresh pages; the
//! constructors here build a private arena for callers without an
//! executor. A batched or grouped launch is *one* cache whose slot
//! table spans its instances, not one cache per instance.
//!
//! [`PackCache::packs`] counts chunk packs actually executed and
//! [`PackCache::panels`] the chunk slots that exist, so tests can pin
//! the pack-exactly-once property and `packs ÷ (panels ÷ shards)`
//! reads as k-steps packed over k-steps that exist.
//!
//! **Sharding.** A single grid-shared table makes every worker read
//! panels another core packed, so each panel line ping-pongs between
//! caches for the whole launch. [`PackCache::sharded`] keeps one slot
//! table *per worker group*: workers pass their shard (their pool
//! `wid`) to [`mac_loop_kernel_cached`] and pack private copies that
//! stay resident in their own cache hierarchy. The scheduler hands
//! each worker a contiguous CTA range, so a shard re-packs only the
//! chunks its own segments touch — duplicated pack work is bounded by
//! the range seams — and stolen CTAs use the *thief's* shard, keeping
//! reads local even under imbalance.
//!
//! **Operand sources.** The cache is the *second* place
//! [`mac_loop_kernel_cached`] looks. Per operand, per chunk, it takes
//! the first source that can serve it — in place → this cache → a
//! private pack:
//!
//! - *In place.* The register block addresses operands by strides
//!   ([`crate::simd::Strided`]), so a strided view is read where it
//!   lies — no slot, no copy, no wait — when the kernel can address
//!   it (A: any strided view; B: unit column stride, its `NR` lanes
//!   being one vector load) and its k-stride in bytes is at most
//!   `IN_PLACE_K_STRIDE`: a row-major A always, a row-major f32 B up
//!   to 512 columns wide. Packing pays for itself only by reuse, and a
//!   packed element of a 32-wide tile is read back a few dozen times
//!   at most; past the limit the copy buys back the locality a long
//!   k-stride loses (DESIGN.md §9 has the sweep). This is a predicate
//!   of the view, not an option: every path through the dispatcher
//!   reads the same view the same way, and an executor's launch cache
//!   is built without slots for an operand that never packs — or not
//!   built at all (`CpuExecutor::launch_pack_cache`).
//!
//! **Orientation.** The two operands are not read alike — A in place
//! with any lane stride, B only with adjacent lanes — so which one is
//! A is worth choosing. Every entry asks `transpose_pays` once per
//! problem whether `Cᵀ = op(B)ᵀ·op(A)ᵀ` packs fewer operand bytes by
//! this same rule than `C = op(A)·op(B)`, after pricing the
//! column-major store that costs (or saves) in the epilogue, and if so
//! hands the engine the transposed problem (DESIGN.md §9,
//! "Orientation"). Nothing here knows: the cache sees an ordinary
//! instance whose A is `op(B)ᵀ` and whose B is `op(A)ᵀ`.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use streamk_core::IterSpace;
use streamk_matrix::{
    pack_a_slice, pack_b_slice, packed_a_len, packed_b_len, AlignedVec, MatrixView, Promote,
    Scalar,
};
use streamk_types::Layout;

use crate::arena::{PackArena, SlotTable};
use crate::fixup::WaitPolicy;
use crate::macloop::mac_loop_view;
use crate::microkernel::{at_block, mac_loop_cached, stage, KernelKind, PackBuffers, PanelSpan};
use crate::output::AccWindow;
use crate::simd::SimdLevel;
use crate::trace::{Recorder, SpanKind};

/// Target k-steps per cache chunk, fixed by the sweep in DESIGN.md
/// §9. Every chunk seam costs a fetch per operand and a store and
/// reload of each register block, so short chunks show on
/// compute-bound shapes (+6–8 % at 128); a chunk pair much longer
/// than this stops fitting in L2 beside the output tile
/// (`(blk_m + blk_n) · CHUNK_K` elements: 512 KiB for f32 64×64
/// tiles). The effective length is this rounded down to whole MAC
/// iterations ([`chunk_iters`]).
const CHUNK_K: usize = 1024;

/// MAC iterations per chunk for `space`: [`CHUNK_K`] in units of
/// `blk_k`, at least one. The one place chunk geometry comes from —
/// the cache's slot tables and the segment walk both derive theirs
/// here, so a chunk seam is always an iteration boundary.
fn chunk_iters(space: &IterSpace) -> usize {
    (CHUNK_K / space.tile().blk_k).max(1)
}

/// The k-range that chunk `chunk` of any panel of `space` covers (the
/// last chunk clamped to the problem's k).
fn chunk_ks(space: &IterSpace, chunk: usize) -> Range<usize> {
    let chunk_k = chunk_iters(space) * space.tile().blk_k;
    chunk * chunk_k..space.shape().k.min((chunk + 1) * chunk_k)
}

/// A published panel chunk: a view into the launch's pack storage,
/// valid as long as the cache it came from.
#[derive(Debug)]
pub struct PanelGuard<'c, In>(&'c [In]);

impl<In> std::ops::Deref for PanelGuard<'_, In> {
    type Target = [In];

    fn deref(&self) -> &[In] {
        self.0
    }
}

/// One problem instance's corner of the slot table.
#[derive(Debug)]
struct Instance {
    space: IterSpace,
    /// Chunks per panel.
    chunks: usize,
    /// First A slot; slots are indexed `[shard][tile row][chunk]`.
    /// `None` when the launch never packs this instance's A (it is
    /// read in place) and so keeps no slots.
    /// (`u32`, so that the option costs an instance no extra bytes.)
    a_base: Option<u32>,
    /// First B slot; slots are indexed `[shard][tile column][chunk]`.
    b_base: Option<u32>,
}

/// Per-launch shared table of packed operand panels, cut into
/// k-chunks: `⌈k / chunk_k⌉` slots per A row-panel (one per tile row)
/// and per B column-panel (one per tile column) *per shard*, each
/// packed at most once per shard by whichever CTA claims it first and
/// never packed at all if no CTA of that shard consumes it. A batched
/// or grouped launch has one such set of slots per instance, all in
/// one table.
#[derive(Debug)]
pub struct PackCache<In> {
    instances: Vec<Instance>,
    mr: usize,
    nr: usize,
    shards: usize,
    table: SlotTable<In>,
    policy: WaitPolicy,
    packs: AtomicUsize,
    fallbacks: AtomicUsize,
}

impl<In: Copy + Default + Send + Sync> PackCache<In> {
    /// A single-shard (grid-shared) cache for `space` with register
    /// block `(mr, nr)`; waiters on an in-flight pack follow
    /// `policy`'s backoff ladder and give up (falling back to private
    /// packing) at its watchdog.
    ///
    /// # Panics
    ///
    /// Panics if `mr` or `nr` is zero.
    #[must_use]
    pub fn new(space: &IterSpace, mr: usize, nr: usize, policy: WaitPolicy) -> Self {
        Self::sharded(space, mr, nr, policy, 1)
    }

    /// A cache with `shards` independent slot tables. Workers address
    /// their own shard (normally their pool `wid`), so published
    /// chunks stay resident in the packer's cache hierarchy instead of
    /// ping-ponging between cores.
    ///
    /// # Panics
    ///
    /// Panics if `mr`, `nr`, or `shards` is zero.
    #[must_use]
    pub fn sharded(
        space: &IterSpace,
        mr: usize,
        nr: usize,
        policy: WaitPolicy,
        shards: usize,
    ) -> Self {
        Self::in_arena(PackArena::default(), [(space, true, true)], (mr, nr), policy, shards)
    }

    /// A single-shard cache serving `kind`'s register block over `In`
    /// ([`KernelKind::panel_geometry`]), or `None` for
    /// [`KernelKind::Scalar`], which consumes no packed panels.
    #[must_use]
    pub fn for_kernel(space: &IterSpace, kind: KernelKind, policy: WaitPolicy) -> Option<Self> {
        Self::for_kernel_sharded(space, kind, policy, 1)
    }

    /// A `shards`-way cache serving `kind`'s register block; as
    /// [`for_kernel`](Self::for_kernel).
    #[must_use]
    pub fn for_kernel_sharded(
        space: &IterSpace,
        kind: KernelKind,
        policy: WaitPolicy,
        shards: usize,
    ) -> Option<Self> {
        kind.panel_geometry::<In>().map(|(mr, nr)| Self::sharded(space, mr, nr, policy, shards))
    }

    /// The constructor behind all the others: one slot table spanning
    /// `instances` — per problem instance of the launch its space and
    /// whether its A and its B pack at all ([`operands_pack`]); an
    /// operand that does not gets no slots — its chunks stored in
    /// `arena`. The executors pass the arena they keep between
    /// launches and take it back with [`into_arena`](Self::into_arena).
    pub(crate) fn in_arena<'s>(
        arena: PackArena<In>,
        instances: impl IntoIterator<Item = (&'s IterSpace, bool, bool)>,
        (mr, nr): (usize, usize),
        policy: WaitPolicy,
        shards: usize,
    ) -> Self {
        assert!(mr > 0 && nr > 0, "register block must be positive");
        assert!(shards > 0, "cache needs at least one shard");
        let mut slots = 0;
        let instances = instances
            .into_iter()
            .map(|(space, a_packs, b_packs)| {
                let chunks = space.iters_per_tile().div_ceil(chunk_iters(space));
                let mut take = |packs: bool, tiles: usize| {
                    packs.then(|| {
                        let base = u32::try_from(slots).expect("a launch has fewer than 2^32 chunk slots");
                        slots += shards * tiles * chunks;
                        base
                    })
                };
                let a_base = take(a_packs, space.tiles_m());
                let b_base = take(b_packs, space.tiles_n());
                Instance { space: space.clone(), chunks, a_base, b_base }
            })
            .collect();
        Self {
            instances,
            mr,
            nr,
            shards,
            table: SlotTable::new(arena, shards, slots),
            policy,
            packs: AtomicUsize::new(0),
            fallbacks: AtomicUsize::new(0),
        }
    }

    /// Ends the launch, keeping the storage for the next one.
    pub(crate) fn into_arena(self) -> PackArena<In> {
        self.table.into_arena()
    }

    /// Number of independent slot tables.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The register block this cache packs for.
    #[must_use]
    pub fn register_block(&self) -> (usize, usize) {
        (self.mr, self.nr)
    }

    /// K-steps per chunk slot: the chunk-length constant rounded to
    /// whole MAC iterations of this cache's tile (never less than one
    /// iteration). A panel's last chunk holds the remainder.
    #[must_use]
    pub fn chunk_k(&self) -> usize {
        let space = &self.instances[0].space;
        chunk_iters(space) * space.tile().blk_k
    }

    /// Number of chunks actually packed so far (A and B combined,
    /// across all shards). A single-shard launch that consumed every
    /// k-step through the cache packs exactly [`panels`](Self::panels);
    /// a sharded launch packs each chunk at most once *per shard that
    /// touched it*, so `packs ÷ (panels ÷ shards)` is k-steps packed
    /// over k-steps that exist.
    #[must_use]
    pub fn packs(&self) -> usize {
        self.packs.load(Ordering::Relaxed)
    }

    /// Number of watchdog-expired waits that fell back to private
    /// packing (expected to be zero outside fault scenarios).
    #[must_use]
    pub fn fallbacks(&self) -> usize {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Total chunk slots this cache manages:
    /// `shards · (tiles_m + tiles_n) · ⌈k / chunk_k⌉`, summed over
    /// its instances (an executor's launch cache leaves out operands
    /// it never packs).
    #[must_use]
    pub fn panels(&self) -> usize {
        self.table.len()
    }

    /// Chunk 0 of the A row-panel for tile row `tm` — the whole panel
    /// when `k ≤` [`chunk_k`](Self::chunk_k); see
    /// [`a_chunk`](Self::a_chunk).
    pub fn a_panel<'c>(
        &'c self,
        a: &MatrixView<'_, In>,
        tm: usize,
        shard: usize,
    ) -> Option<PanelGuard<'c, In>> {
        self.a_chunk(a, tm, 0, shard)
    }

    /// Chunk `chunk` of the A row-panel for tile row `tm` in `shard`'s
    /// table (`MR`-row sub-panels over that chunk's k-range), packing
    /// it first if this caller wins the claim. `shard` wraps modulo
    /// [`shards`](Self::shards) so callers can pass a raw worker id.
    /// `None` when a competing packer stalled past the watchdog — the
    /// caller must pack this chunk privately.
    ///
    /// # Panics
    ///
    /// Panics if `tm` or `chunk` is out of range.
    pub fn a_chunk<'c>(
        &'c self,
        a: &MatrixView<'_, In>,
        tm: usize,
        chunk: usize,
        shard: usize,
    ) -> Option<PanelGuard<'c, In>> {
        self.a_chunk_of(&Recorder::off(), 0, a, tm, chunk, shard)
    }

    /// Chunk `chunk` of the B column-panel for tile column `tn` in
    /// `shard`'s table; as [`a_chunk`](Self::a_chunk).
    pub fn b_chunk<'c>(
        &'c self,
        b: &MatrixView<'_, In>,
        tn: usize,
        chunk: usize,
        shard: usize,
    ) -> Option<PanelGuard<'c, In>> {
        self.b_chunk_of(&Recorder::off(), 0, b, tn, chunk, shard)
    }

    /// [`a_chunk`](Self::a_chunk) for instance `instance` of a
    /// batched or grouped launch, `a` being that instance's operand; a
    /// pack it wins is a span of `rec`.
    fn a_chunk_of<'c>(
        &'c self,
        rec: &Recorder<'_>,
        instance: usize,
        a: &MatrixView<'_, In>,
        tm: usize,
        chunk: usize,
        shard: usize,
    ) -> Option<PanelGuard<'c, In>> {
        let inst = &self.instances[instance];
        assert!(tm < inst.space.tiles_m() && chunk < inst.chunks, "A chunk ({tm}, {chunk}) out of range");
        let blk_m = inst.space.tile().blk_m;
        let rows = tm * blk_m..inst.space.shape().m.min((tm + 1) * blk_m);
        let (ks, mr, shard) = (chunk_ks(&inst.space, chunk), self.mr, shard % self.shards);
        let slot = inst.a_base? as usize + (shard * inst.space.tiles_m() + tm) * inst.chunks + chunk;
        let len = packed_a_len(rows.len(), ks.len(), mr);
        self.fetch(rec, slot, shard, len, tm as u32, 0, |out| pack_a_slice(a, rows, ks, mr, out))
    }

    /// [`b_chunk`](Self::b_chunk) for instance `instance`; as
    /// [`a_chunk_of`](Self::a_chunk_of).
    fn b_chunk_of<'c>(
        &'c self,
        rec: &Recorder<'_>,
        instance: usize,
        b: &MatrixView<'_, In>,
        tn: usize,
        chunk: usize,
        shard: usize,
    ) -> Option<PanelGuard<'c, In>> {
        let inst = &self.instances[instance];
        assert!(tn < inst.space.tiles_n() && chunk < inst.chunks, "B chunk ({tn}, {chunk}) out of range");
        let blk_n = inst.space.tile().blk_n;
        let cols = tn * blk_n..inst.space.shape().n.min((tn + 1) * blk_n);
        let (ks, nr, shard) = (chunk_ks(&inst.space, chunk), self.nr, shard % self.shards);
        let slot = inst.b_base? as usize + (shard * inst.space.tiles_n() + tn) * inst.chunks + chunk;
        let len = packed_b_len(ks.len(), cols.len(), nr);
        self.fetch(rec, slot, shard, len, tn as u32, 1, |out| pack_b_slice(b, ks, cols, nr, out))
    }

    /// The claim/publish core shared by both operand tables. `tag` and
    /// `operand` (0 = A, 1 = B) label the pack span `rec` records.
    #[allow(clippy::too_many_arguments)]
    fn fetch<'c>(
        &'c self,
        rec: &Recorder<'_>,
        slot: usize,
        shard: usize,
        len: usize,
        tag: u32,
        operand: u32,
        pack: impl FnOnce(&mut [In]),
    ) -> Option<PanelGuard<'c, In>> {
        // Fast path: already published.
        if let Some(chunk) = self.table.get(slot) {
            return Some(PanelGuard(chunk));
        }
        let packed = self.table.claim_and_pack(slot, shard, len, |out| {
            // This CTA won the claim: pack, then publish.
            let t0 = rec.start();
            pack(out);
            self.packs.fetch_add(1, Ordering::Relaxed);
            rec.finish(SpanKind::PackCached, t0, tag, operand);
        });
        if let Some(chunk) = packed {
            return Some(PanelGuard(chunk));
        }
        // Lost the race: another CTA is packing (or just published).
        // Descend the fixup board's backoff ladder on the flag.
        match self.policy.wait_until(|| self.table.get(slot)) {
            Ok(chunk) => Some(PanelGuard(chunk)),
            Err(_) => {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }
}

/// Largest k-stride, in bytes, at which a register block reads an
/// operand where it lies, fixed by the sweep in DESIGN.md §9 (and
/// kept by its re-run on the fused kernel). Every
/// k-step of a block touches the operand one k-stride further on. Up
/// to here that costs less than the copy it saves; at a page (a
/// row-major f32 B 1024 columns wide) every k-step opens a new page
/// and lands in the same L1 set as the one before, the B sub-panel no
/// longer survives the column of register blocks that reuses it, and
/// packing wins again (the 1024³ shape ran 2.3× slower read in place).
const IN_PLACE_K_STRIDE: usize = 2048;

/// How a launch reads one operand, decided by the view alone — in
/// place when it can be, packed otherwise. Never an option: the same
/// view is always read the same way, by every path that funnels
/// through [`mac_loop_kernel_cached`].
enum Source {
    /// Strided storage the register block addresses directly.
    InPlace { lane_stride: usize, k_stride: usize },
    /// Anything else is copied into panels: the launch cache when
    /// there is one, a private pack otherwise.
    Packed,
}

impl Source {
    /// The source for `v` — A itself, or `Bᵀ`, so that in both cases
    /// rows are the operand's lanes and columns its k-steps. **In
    /// place** needs strides the kernel can address — any for A;
    /// adjacent lanes for B (`unit_lanes`), whose `NR` lanes are one
    /// vector load — and a k-stride of at most [`IN_PLACE_K_STRIDE`]
    /// bytes.
    fn of<In: Copy>(v: &MatrixView<'_, In>, unit_lanes: bool) -> Self {
        let (lane_stride, k_stride) = (v.row_stride(), v.col_stride());
        if k_stride * std::mem::size_of::<In>() <= IN_PLACE_K_STRIDE && (lane_stride == 1 || !unit_lanes) {
            Source::InPlace { lane_stride, k_stride }
        } else {
            Source::Packed
        }
    }
}

/// Whether a launch of `a · b` copies A, and B, into panels at all —
/// what the executors size their launch cache by.
pub(crate) fn operands_pack<In: Copy>(a: &MatrixView<'_, In>, b: &MatrixView<'_, In>) -> (bool, bool) {
    (matches!(Source::of(a, false), Source::Packed), matches!(Source::of(&b.t(), true), Source::Packed))
}

/// What storing one element of **C** through a column-major run costs
/// over storing it through a row-major one, in bytes of operand packing
/// that take as long: the epilogue's price in [`transpose_pays`].
/// Fixed by the probe in EXPERIMENTS.md ("Orientation").
const COLUMN_STORE_BYTES: usize = 2;

/// Whether a launch of `C = a·b` into a `c`-ordered **C** should run
/// as `Cᵀ = bᵀ·aᵀ` instead, storing `Cᵀ` over C's own storage read as
/// `c.flipped()`: the one orientation rule (DESIGN.md §9,
/// "Orientation").
///
/// Each orientation is priced at the operand bytes it packs — what
/// [`operands_pack`] says — plus [`COLUMN_STORE_BYTES`] per element it
/// stores column-major: a row-major C becomes a column-major `Cᵀ`,
/// which costs more to store, a column-major C a row-major `Cᵀ`, which
/// costs less. The transpose wins only when it is strictly cheaper; a
/// tie and a kernel that reads no panels (`block` is `None`) keep the
/// caller's orientation.
pub(crate) fn transpose_pays<In: Copy>(
    block: Option<(usize, usize)>,
    a: &MatrixView<'_, In>,
    b: &MatrixView<'_, In>,
    c: Layout,
) -> bool {
    if block.is_none() {
        return false;
    }
    let cost = |a: &MatrixView<'_, In>, b: &MatrixView<'_, In>, c: Layout| {
        let (a_packs, b_packs) = operands_pack(a, b);
        let packed = usize::from(a_packs) * a.rows() * a.cols() + usize::from(b_packs) * b.rows() * b.cols();
        let column_stores = if c == Layout::ColMajor { a.rows() * b.cols() } else { 0 };
        packed * std::mem::size_of::<In>() + column_stores * COLUMN_STORE_BYTES
    };
    cost(&b.t(), &a.t(), c.flipped()) < cost(a, b, c)
}

/// Packs `v[lanes, ks]` into the staging buffer `buf` and returns the
/// panels; the pack is a span of `rec`.
fn pack_private<'b, In: Copy + Default>(
    rec: &Recorder<'_>,
    v: &MatrixView<'_, In>,
    lanes: Range<usize>,
    ks: Range<usize>,
    width: usize,
    buf: &'b mut AlignedVec<In>,
    tile_idx: u32,
) -> &'b [In] {
    let t0 = rec.start();
    let out = stage(buf, packed_a_len(lanes.len(), ks.len(), width));
    let kc = ks.len() as u32;
    pack_a_slice(v, lanes, ks, width, out);
    rec.finish(SpanKind::PackPrivate, t0, tile_idx, kc);
    out
}

/// One operand of one tile over one chunk: the [`PanelSpan`] its
/// [`Source`] yields. `v` is A or `Bᵀ`; `lanes` the tile's rows of it; `ks`
/// the k-range the segment covers inside the chunk, which is what a
/// private pack or an in-place window spans; `cached` fetches the
/// launch cache's copy of the whole chunk `chunk_ks`, if there is a
/// cache and the chunk's packer did not stall. Private packs are spans
/// of `rec`.
#[allow(clippy::too_many_arguments)]
fn operand_span<'x, In: Copy + Default>(
    rec: &Recorder<'_>,
    source: &Source,
    v: &MatrixView<'x, In>,
    width: usize,
    lanes: Range<usize>,
    ks: Range<usize>,
    chunk_ks: Range<usize>,
    cached: impl FnOnce() -> Option<&'x [In]>,
    buf: &'x mut AlignedVec<In>,
    tile_idx: u32,
) -> PanelSpan<'x, In> {
    match *source {
        Source::InPlace { lane_stride, k_stride } => {
            let span = v.strided_span();
            let origin = lanes.start * lane_stride + ks.start * k_stride;
            // The view has no padding to read: the ragged last panel,
            // and only that, keeps the zero-padded packed path.
            let ragged = lanes.len() % width;
            let edge = (ragged != 0)
                .then(|| pack_private(rec, v, lanes.end - ragged..lanes.end, ks.clone(), width, buf, tile_idx));
            PanelSpan::in_place(&span[origin..], width, lane_stride, k_stride, ks, edge)
        }
        Source::Packed => match cached() {
            Some(chunk) => PanelSpan::packed(chunk, width, chunk_ks),
            None => PanelSpan::packed(pack_private(rec, v, lanes, ks.clone(), width, buf, tile_idx), width, ks),
        },
    }
}

/// [`crate::microkernel::mac_loop_kernel`] with each operand read from the cheapest place
/// that holds it. The one dispatch point behind the executors, the
/// batched and grouped launches and the service.
/// The segment is walked one k-chunk at a time (see the module docs),
/// and per chunk each operand comes from the first source that can
/// serve it:
///
/// - **in place**: a strided view the register block can address —
///   any A; a B with unit column stride — whose k-stride is at most
///   one private constant is read where it lies (a row-major A
///   always; a row-major B up to 512 f32 columns wide). Nothing is
///   copied, no cache slot is touched and no pack span is recorded;
///   only a ragged last panel (an `m` extent that is not a multiple of
///   `MR`, an `n` extent not a multiple of `NR`) is still packed,
///   privately and zero-padded, because the view has no padding to
///   read;
/// - operands it cannot serve come from `cache`'s `shard` table
///   (each chunk packed once per shard that consumes it);
/// - an operand with neither — no cache, or a
///   watchdog-expired wait on one chunk — is packed privately for just
///   the part of that chunk the segment covers.
///
/// Whether an operand is read in place is a property of the view, not
/// an option. Panels are cut, and the register block run, at
/// [`KernelKind::panel_geometry`] for `In`; a `cache` built for any
/// other block is ignored. [`KernelKind::Scalar`] consumes no panels
/// and runs [`mac_loop_view`].
///
/// Every source feeds the register block the same ascending-k operand
/// sequence, so the result is bit-exact with the uncached pipeline.
///
/// # Panics
///
/// As [`crate::microkernel::mac_loop_kernel`].
#[allow(clippy::too_many_arguments)]
pub fn mac_loop_kernel_cached<In, Acc>(
    kind: KernelKind,
    cache: Option<&PackCache<In>>,
    shard: usize,
    a: &MatrixView<'_, In>,
    b: &MatrixView<'_, In>,
    space: &IterSpace,
    tile_idx: usize,
    local_begin: usize,
    local_end: usize,
    accum: &mut [Acc],
    bufs: &mut PackBuffers<In>,
) where
    In: Promote<Acc>,
    Acc: Scalar,
{
    let Some(block) = kind.panel_geometry::<In>() else {
        return mac_loop_view(a, b, space, tile_idx, local_begin, local_end, accum);
    };
    let tile = space.tile();
    assert_eq!(accum.len(), tile.blk_m * tile.blk_n, "accumulator must be BLK_M x BLK_N");
    let (rows, cols) = space.tile_extents(tile_idx);
    let mut c = AccWindow::new(accum, rows.len(), cols.len(), tile.blk_n);
    let off = Recorder::off();
    mac_loop_window(block, cache, 0, shard, &off, a, b, space, tile_idx, local_begin, local_end, &mut c, None, bufs);
}

/// [`mac_loop_kernel_cached`] for instance `instance` of a launch into
/// `accum`, a `blk_m × blk_n` workspace tile whose contents it ignores:
/// the sums start at zero. `a`, `b` and `space` are the instance's,
/// `cache` is the launch's one table spanning every instance, and every
/// pack the segment does is a span of `rec`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mac_loop_instance_cached<In, Acc>(
    kind: KernelKind,
    cache: Option<&PackCache<In>>,
    instance: usize,
    shard: usize,
    rec: &Recorder<'_>,
    a: &MatrixView<'_, In>,
    b: &MatrixView<'_, In>,
    space: &IterSpace,
    tile_idx: usize,
    local_begin: usize,
    local_end: usize,
    accum: &mut [Acc],
    bufs: &mut PackBuffers<In>,
) where
    In: Promote<Acc>,
    Acc: Scalar,
{
    let Some(block) = kind.panel_geometry::<In>() else {
        accum.fill(Acc::ZERO);
        return mac_loop_view(a, b, space, tile_idx, local_begin, local_end, accum);
    };
    let (rows, cols) = space.tile_extents(tile_idx);
    let mut c = AccWindow::blank(accum, rows.len(), cols.len(), space.tile().blk_n);
    mac_loop_window(
        block,
        cache,
        instance,
        shard,
        rec,
        a,
        b,
        space,
        tile_idx,
        local_begin,
        local_end,
        &mut c,
        None,
        bufs,
    );
}

/// The register block `block` over a segment of instance `instance`,
/// into the window `c` over the tile's sums, with `α` applied as the
/// last k-chunk is stored when `alpha` is given: the one entry to the
/// chunk walk. A blank `c` starts at zero on the first chunk.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mac_loop_window<In, Acc>(
    block: (usize, usize),
    cache: Option<&PackCache<In>>,
    instance: usize,
    shard: usize,
    rec: &Recorder<'_>,
    a: &MatrixView<'_, In>,
    b: &MatrixView<'_, In>,
    space: &IterSpace,
    tile_idx: usize,
    local_begin: usize,
    local_end: usize,
    c: &mut AccWindow<'_, Acc>,
    alpha: Option<Acc>,
    bufs: &mut PackBuffers<In>,
) where
    In: Promote<Acc>,
    Acc: Scalar,
{
    let level = Some(SimdLevel::detect());
    macro_rules! run {
        ($mr:literal, $nr:literal) => {
            walk_chunks::<In, Acc, $mr, $nr>(
                level,
                cache,
                instance,
                shard,
                rec,
                a,
                b,
                space,
                tile_idx,
                local_begin,
                local_end,
                c,
                alpha,
                bufs,
            )
        };
    }
    at_block!(block, run)
}

/// The chunk walk behind [`mac_loop_window`] at register block
/// `MR × NR`, vectorized when `level` names a kernel for that shape.
/// The sums stay in `c` across chunk seams; `alpha` goes to the last
/// chunk only.
#[allow(clippy::too_many_arguments)]
fn walk_chunks<In, Acc, const MR_: usize, const NR_: usize>(
    level: Option<SimdLevel>,
    cache: Option<&PackCache<In>>,
    instance: usize,
    shard: usize,
    rec: &Recorder<'_>,
    a: &MatrixView<'_, In>,
    b: &MatrixView<'_, In>,
    space: &IterSpace,
    tile_idx: usize,
    local_begin: usize,
    local_end: usize,
    c: &mut AccWindow<'_, Acc>,
    alpha: Option<Acc>,
    bufs: &mut PackBuffers<In>,
) where
    In: Promote<Acc>,
    Acc: Scalar,
{
    if local_begin >= local_end {
        return;
    }
    let (tm, tn) = space.tile_coords(tile_idx);
    let (rows, cols) = space.tile_extents(tile_idx);
    // B's column panels are row panels of Bᵀ: one routine serves both.
    let bt = b.t();
    let a_source = Source::of(a, false);
    let b_source = Source::of(&bt, true);
    let cache = cache.filter(|c| c.register_block() == (MR_, NR_));

    let per_chunk = chunk_iters(space);
    let chunks = local_begin / per_chunk..local_end.div_ceil(per_chunk);
    let last = chunks.end - 1;
    for chunk in chunks {
        // The part of this chunk the segment covers, in iterations
        // and in k-steps. A cached chunk always spans the whole chunk.
        let lb = local_begin.max(chunk * per_chunk);
        let le = local_end.min((chunk + 1) * per_chunk);
        let ks = space.k_extents(lb).start..space.k_extents(le - 1).end;
        let whole = chunk_ks(space, chunk);

        let a_span = operand_span(
            rec,
            &a_source,
            a,
            MR_,
            rows.clone(),
            ks.clone(),
            whole.clone(),
            || cache.and_then(|c| c.a_chunk_of(rec, instance, a, tm, chunk, shard)).map(|g| g.0),
            &mut bufs.a,
            tile_idx as u32,
        );
        let b_span = operand_span(
            rec,
            &b_source,
            &bt,
            NR_,
            cols.clone(),
            ks,
            whole,
            || cache.and_then(|c| c.b_chunk_of(rec, instance, b, tn, chunk, shard)).map(|g| g.0),
            &mut bufs.b,
            tile_idx as u32,
        );

        let scale = if chunk == last { alpha } else { None };
        mac_loop_cached::<In, Acc, MR_, NR_>(level, a_span, b_span, space, tile_idx, lb, le, c, scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microkernel::mac_loop_kernel;
    use streamk_matrix::{pack_a_into, pack_b_into, Matrix};
    use streamk_types::{GemmShape, Layout, TileShape};

    /// Narrow row-major operands: both are read in place.
    fn fixture(shape: GemmShape, tile: TileShape) -> (IterSpace, Matrix<f64>, Matrix<f64>) {
        let space = IterSpace::new(shape, tile);
        let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, 3);
        let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, 4);
        (space, a, b)
    }

    /// Operands the source rule still packs: A a column-major window
    /// of a matrix tall enough that its k-stride is past
    /// [`IN_PLACE_K_STRIDE`], B column-major (no unit column stride).
    struct Packing {
        space: IterSpace,
        a_tall: Matrix<f64>,
        b: Matrix<f64>,
    }

    impl Packing {
        fn new(shape: GemmShape, tile: TileShape) -> Self {
            let tall = IN_PLACE_K_STRIDE / std::mem::size_of::<f64>() + 8;
            assert!(shape.m <= tall);
            // Only the window is filled: the rows below it are never
            // read, and Miri runs some of these tests.
            let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::ColMajor, 3);
            let mut a_tall = Matrix::<f64>::zeros(tall, shape.k, Layout::ColMajor);
            for (window, column) in a_tall.as_mut_slice().chunks_mut(tall).zip(a.as_slice().chunks(shape.m)) {
                window[..shape.m].copy_from_slice(column);
            }
            let this = Self {
                space: IterSpace::new(shape, tile),
                a_tall,
                b: Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::ColMajor, 4),
            };
            assert_eq!(operands_pack(&this.a(), &this.b()), (true, true));
            this
        }

        fn a(&self) -> MatrixView<'_, f64> {
            let shape = self.space.shape();
            self.a_tall.view().submatrix(0..shape.m, 0..shape.k)
        }

        fn b(&self) -> MatrixView<'_, f64> {
            self.b.view()
        }
    }

    /// A k that needs three chunks at `blk_k = 8`, the last one ragged
    /// in both senses: not a whole chunk and not a whole iteration.
    const DEEP_K: usize = 2 * CHUNK_K + 53;

    #[test]
    fn chunks_pack_once_and_match_private_packing() {
        let (space, a, b) = fixture(GemmShape::new(40, 36, DEEP_K), TileShape::new(16, 16, 8));
        let cache = PackCache::new(&space, 8, 4, WaitPolicy::default());
        assert_eq!(cache.chunk_k(), CHUNK_K);
        assert_eq!(cache.panels(), 3 * (space.tiles_m() + space.tiles_n()));

        let mut private = Vec::new();
        for chunk in 0..3 {
            let ks = chunk * CHUNK_K..DEEP_K.min((chunk + 1) * CHUNK_K);
            for tm in 0..space.tiles_m() {
                let panel = cache.a_chunk(&a.view(), tm, chunk, 0).expect("no contention");
                let rows = tm * 16..space.shape().m.min((tm + 1) * 16);
                pack_a_into(&a.view(), rows, ks.clone(), 8, &mut private);
                assert_eq!(&*panel, &private[..], "A panel {tm} chunk {chunk}");
            }
            for tn in 0..space.tiles_n() {
                let panel = cache.b_chunk(&b.view(), tn, chunk, 0).expect("no contention");
                let cols = tn * 16..space.shape().n.min((tn + 1) * 16);
                pack_b_into(&b.view(), ks.clone(), cols, 4, &mut private);
                assert_eq!(&*panel, &private[..], "B panel {tn} chunk {chunk}");
            }
        }
        // Re-fetching packs nothing new; `a_panel` is chunk 0.
        for tm in 0..space.tiles_m() {
            let whole = cache.a_panel(&a.view(), tm, 0).unwrap();
            assert_eq!(&*whole, &*cache.a_chunk(&a.view(), tm, 0, 0).unwrap());
        }
        assert_eq!(cache.packs(), cache.panels(), "each chunk packed exactly once");
        assert_eq!(cache.fallbacks(), 0);
    }

    /// Every published chunk starts on a cache line: out of a private
    /// arena, cold (each chunk an allocation of its own) and warm (bump
    /// ranges of the slabs), and out of an executor's arena, with the
    /// k = 1000 chunk ragged against its whole-iteration length and
    /// every panel ragged against the register block.
    #[test]
    fn every_chunk_starts_on_a_line() {
        fn on_line(chunk: &[f64]) -> bool {
            (chunk.as_ptr() as usize).is_multiple_of(streamk_matrix::LINE)
        }
        fn check(cache: &PackCache<f64>, p: &Packing, what: &str) {
            let space = &p.space;
            let chunks = space.iters_per_tile().div_ceil(chunk_iters(space));
            for chunk in 0..chunks {
                for tm in 0..space.tiles_m() {
                    assert!(on_line(&cache.a_chunk(&p.a(), tm, chunk, 0).unwrap()), "{what}: A {tm} chunk {chunk}");
                }
                for tn in 0..space.tiles_n() {
                    assert!(on_line(&cache.b_chunk(&p.b(), tn, chunk, 0).unwrap()), "{what}: B {tn} chunk {chunk}");
                }
            }
        }
        let tile = TileShape::new(16, 16, 8);
        for k in [1000, DEEP_K] {
            let p = Packing::new(GemmShape::new(21, 19, k), tile);
            let cold = PackCache::new(&p.space, 8, 4, WaitPolicy::default());
            check(&cold, &p, "cold private arena");
            let warm = PackCache::in_arena(cold.into_arena(), [(&p.space, true, true)], (8, 4), WaitPolicy::default(), 1);
            check(&warm, &p, "warm private arena");

            // Warmed by a launch, then lent to a cache as a launch would.
            let exec = crate::CpuExecutor::with_threads(2);
            let shape = p.space.shape();
            let mut c = Matrix::<f64>::zeros(shape.m, shape.n, Layout::RowMajor);
            exec.gemm_ex(1.0, &p.a(), &p.b(), 0.0, &mut c, &streamk_core::Decomposition::data_parallel(shape, tile));
            assert!(exec.pack_arena_stats::<f64>().retained_bytes > 0, "k = {k}: the launch left its chunks");
            let cache = exec.launch_pack_cache([(&p.space, p.a(), p.b())], 2).expect("both operands pack");
            assert_eq!(exec.pack_arena_stats::<f64>(), crate::arena::ArenaStats::default(), "the cache holds the arena");
            check(&cache, &p, "executor arena");
            exec.retire_pack_cache(Some(cache));
        }
    }

    /// `PackCache::for_kernel` packs at the block's geometry for the
    /// element type: 8 × 16 over f64, whose 8 × 32 would need every
    /// vector register for accumulators, and 8 × 32 over f32; the
    /// scalar kernel gets no cache.
    #[test]
    fn caches_pack_at_the_element_types_panel_width() {
        let space = IterSpace::new(GemmShape::new(64, 64, 64), TileShape::new(64, 64, 16));
        let policy = WaitPolicy::default();
        let block = KernelKind::Block;
        assert_eq!(PackCache::<f64>::for_kernel(&space, block, policy).map(|c| c.register_block()), Some((8, 16)));
        assert_eq!(PackCache::<f32>::for_kernel(&space, block, policy).map(|c| c.register_block()), Some((8, 32)));
        assert!(PackCache::<f64>::for_kernel(&space, KernelKind::Scalar, policy).is_none());
        assert!(PackCache::<f32>::for_kernel(&space, KernelKind::Scalar, policy).is_none());
    }

    /// A tile deeper than one iteration per chunk (`blk_k > CHUNK_K`)
    /// still gets whole-iteration chunks.
    #[test]
    fn chunk_never_splits_an_iteration() {
        let (space, _, _) =
            fixture(GemmShape::new(8, 8, 3 * CHUNK_K), TileShape::new(8, 8, CHUNK_K + 8));
        let cache = PackCache::<f64>::new(&space, 8, 4, WaitPolicy::default());
        assert_eq!(cache.chunk_k(), CHUNK_K + 8);
        assert_eq!(cache.panels(), 2 * space.iters_per_tile());
    }

    /// Whichever source serves the operands — in place (narrow
    /// row-major, ragged edges included) or the cache (operands that
    /// pack) — the dispatch agrees with the always-pack pipeline.
    #[test]
    fn cached_dispatch_is_bit_exact_for_every_panel_kernel() {
        let shape = GemmShape::new(21, 19, DEEP_K);
        let tile = TileShape::new(16, 16, 8);
        let (space, a, b) = fixture(shape, tile);
        let packing = Packing::new(shape, tile);
        for (a, b, packs) in [(a.view(), b.view(), false), (packing.a(), packing.b(), true)] {
            every_panel_kernel_is_bit_exact(&space, &a, &b, packs);
        }
    }

    fn every_panel_kernel_is_bit_exact(
        space: &IterSpace,
        a: &MatrixView<'_, f64>,
        b: &MatrixView<'_, f64>,
        packs: bool,
    ) {
        let tile = space.tile();
        let len = tile.blk_m * tile.blk_n;
        let ipt = space.iters_per_tile();
        let per_chunk = chunk_iters(space);
        let mut bufs = PackBuffers::new();
        for kind in KernelKind::ALL {
            let cache = PackCache::for_kernel(space, kind, WaitPolicy::default());
            for tile_idx in 0..space.tiles() {
                // Whole tile; mid-chunk start; one iteration; a segment
                // that begins and ends mid-chunk across a seam; exactly
                // the middle chunk; the ragged tail alone.
                for (lb, le) in [
                    (0, ipt),
                    (1, ipt),
                    (0, 1),
                    (per_chunk - 3, per_chunk + 5),
                    (per_chunk, 2 * per_chunk),
                    (ipt - 1, ipt),
                ] {
                    let mut expect = vec![0.0f64; len];
                    mac_loop_kernel(kind, a, b, space, tile_idx, lb, le, &mut expect, &mut bufs);
                    let mut got = vec![0.0f64; len];
                    mac_loop_kernel_cached(
                        kind,
                        cache.as_ref(),
                        0,
                        a,
                        b,
                        space,
                        tile_idx,
                        lb,
                        le,
                        &mut got,
                        &mut bufs,
                    );
                    assert_eq!(got, expect, "{kind} tile {tile_idx} [{lb},{le})");
                }
            }
            if let Some(cache) = cache {
                assert_eq!(cache.packs() > 0, packs, "{kind}: only operands that pack reach the cache");
            }
        }
    }

    /// The source rule, pinned: a row-major A is always read in place,
    /// a row-major B up to [`IN_PLACE_K_STRIDE`] bytes a row; a
    /// transposed B never; a transposed or column-major A follows the
    /// same k-stride rule.
    #[test]
    fn the_in_place_predicate_is_the_k_stride_rule() {
        let narrow = IN_PLACE_K_STRIDE / std::mem::size_of::<f32>();
        let row = |r, c| Matrix::<f32>::zeros(r, c, Layout::RowMajor);
        let (a, b_narrow, b_wide) = (row(16, 4096), row(64, narrow), row(64, narrow + 1));
        assert_eq!(operands_pack(&a.view(), &b_narrow.view()), (false, false));
        assert_eq!(operands_pack(&a.view(), &b_wide.view()), (false, true));
        // The rule is in bytes: f64 rows reach the limit at half the width.
        let b64 = Matrix::<f64>::zeros(8, narrow / 2 + 1, Layout::RowMajor);
        let a64 = Matrix::<f64>::zeros(8, 8, Layout::RowMajor);
        assert_eq!(operands_pack(&a64.view(), &b64.view()), (false, true));
        // A window keeps its parent's stride.
        let window = b_wide.view().submatrix(0..64, 3..35);
        assert_eq!(operands_pack(&a.view(), &window), (false, true));
        // Transposed: Aᵀ's k-stride is the stored row length; Bᵀ has
        // no unit column stride whatever its size.
        let (at_short, at_long) = (row(64, narrow), row(64, narrow + 1));
        let bt = row(16, 64);
        assert_eq!(operands_pack(&at_short.t(), &bt.t()), (false, true));
        assert_eq!(operands_pack(&at_long.t(), &b_narrow.view()), (true, false));
    }

    /// The orientation rule, pinned on the benchmark's shapes at the
    /// default kernel's geometry. Row-major operands never gain by the
    /// transpose — the right operand's lanes would be the row-major A's
    /// rows, which are not adjacent — so every row-major workload keeps
    /// the caller's orientation; `direct-f64-tt`'s two `.t()` views
    /// swap, trading a packed B for a column-major store of C.
    #[test]
    fn the_orientation_rule_on_the_benchmark_shapes() {
        let kernel = KernelKind::default();
        fn swaps<In: Copy + Default>(kernel: KernelKind, a: &Matrix<In>, b: &Matrix<In>) -> bool {
            transpose_pays(kernel.panel_geometry::<In>(), &a.view(), &b.view(), Layout::RowMajor)
        }
        let row = |m, k| Matrix::<f32>::zeros(m, k, Layout::RowMajor);
        let (m, n, k) = (1024, 1024, 1024);
        assert!(!swaps(kernel, &row(m, k), &row(k, n)), "direct-square");
        for (m, n, k) in [(64, 64, 32768), (64, 192, 8192), (64, 320, 4096), (64, 448, 4096), (192, 192, 4096)] {
            assert!(!swaps(kernel, &row(m, k), &row(k, n)), "direct-deepk {m}x{n}x{k}");
        }
        for (m, n, k) in [(256, 256, 64), (384, 1152, 384), (384, 384, 384), (384, 1536, 384), (384, 384, 1536), (200, 120, 520), (72, 648, 264)] {
            assert!(!swaps(kernel, &row(m, k), &row(k, n)), "grouped-batched {m}x{n}x{k}");
        }
        for (m, n, k) in [(64, 64, 64), (96, 96, 96), (128, 128, 128), (160, 128, 96)] {
            assert!(!swaps(kernel, &row(m, k), &row(k, n)), "direct-small {m}x{n}x{k}");
        }
        for (m, n, k) in [(96, 96, 96), (128, 128, 128), (64, 192, 256), (256, 256, 192)] {
            assert!(!swaps(kernel, &row(m, k), &row(k, n)), "serve-closed {m}x{n}x{k}");
        }
        // direct-f64-tt: A and B stored transposed, read as `.t()`.
        let stored = Matrix::<f64>::zeros(768, 768, Layout::RowMajor);
        let block = kernel.panel_geometry::<f64>();
        assert_eq!(operands_pack(&stored.t(), &stored.t()), (true, true));
        assert!(transpose_pays(block, &stored.t(), &stored.t(), Layout::RowMajor), "direct-f64-tt");
        // Into a column-major C the same launch swaps too — and the
        // epilogue gets cheaper.
        assert!(transpose_pays(block, &stored.t(), &stored.t(), Layout::ColMajor));
        // A kernel that reads no panels packs nothing either way.
        assert!(!transpose_pays(KernelKind::Scalar.panel_geometry::<f64>(), &stored.t(), &stored.t(), Layout::RowMajor));
    }

    /// The transpose has to win outright: a tie — both operands packing
    /// either way round, or neither — keeps the caller's orientation,
    /// and so does a small-k, wide-output launch where the swap would
    /// pack a smaller operand but store a large C column-major.
    #[test]
    fn ties_and_dear_epilogues_keep_the_callers_orientation() {
        let block = KernelKind::default().panel_geometry::<f32>();
        let (tall, wide) = (Matrix::<f32>::zeros(600, 64, Layout::ColMajor), Matrix::<f32>::zeros(64, 600, Layout::RowMajor));
        assert_eq!(operands_pack(&tall.view(), &wide.view()), (true, true));
        assert_eq!(operands_pack(&wide.t(), &tall.t()), (true, true));
        assert!(!transpose_pays(block, &tall.view(), &wide.view(), Layout::RowMajor), "both pack both ways");
        // The same packing into a column-major C is no tie: the
        // transpose stores it row-major, which is cheaper.
        assert!(transpose_pays(block, &tall.view(), &wide.view(), Layout::ColMajor));
        let (a, b) = (Matrix::<f32>::zeros(64, 64, Layout::RowMajor), Matrix::<f32>::zeros(64, 64, Layout::RowMajor));
        assert!(!transpose_pays(block, &a.view(), &b.view(), Layout::RowMajor), "neither packs either way");
        // k = 8: the caller's way packs the column-major B (8 × 1024),
        // the transpose the row-major A (512 × 8) — half the bytes, but
        // its C is 512 × 1024 column-major.
        let (a, b) = (Matrix::<f32>::zeros(512, 8, Layout::RowMajor), Matrix::<f32>::zeros(8, 1024, Layout::ColMajor));
        assert_eq!(operands_pack(&a.view(), &b.view()), (false, true));
        assert_eq!(operands_pack(&b.t(), &a.t()), (false, true));
        assert!(!transpose_pays(block, &a.view(), &b.view(), Layout::RowMajor), "small k, wide output");
        // The same saving with k deep enough to pay for the store swaps.
        let (a, b) = (Matrix::<f32>::zeros(512, 4096, Layout::RowMajor), Matrix::<f32>::zeros(4096, 1024, Layout::ColMajor));
        assert!(transpose_pays(block, &a.view(), &b.view(), Layout::RowMajor), "deep k");
    }

    /// An in-place operand's ragged last panel — and nothing else — is
    /// still packed, privately: the cache is never touched, and a view
    /// that ends at its allocation's last element is never over-read
    /// (its span stops there, so an over-read would fail to slice).
    #[test]
    fn ragged_edges_of_in_place_operands_pack_privately() {
        let shape = GemmShape::new(21, 19, 37);
        let tile = TileShape::new(16, 16, 8);
        let (space, a, b) = fixture(shape, tile);
        let len = tile.blk_m * tile.blk_n;
        let mut bufs = PackBuffers::new();
        let kind = KernelKind::Block;
        let cache = PackCache::for_kernel(&space, kind, WaitPolicy::default()).unwrap();
        for tile_idx in 0..space.tiles() {
            let mut expect = vec![0.0f64; len];
            mac_loop_view(&a.view(), &b.view(), &space, tile_idx, 0, space.iters_per_tile(), &mut expect);
            let mut got = vec![0.0f64; len];
            mac_loop_kernel_cached(
                kind, Some(&cache), 0, &a.view(), &b.view(), &space, tile_idx, 0,
                space.iters_per_tile(), &mut got, &mut bufs,
            );
            assert_eq!(got, expect, "tile {tile_idx}");
        }
        assert_eq!(cache.packs(), 0, "in-place operands never reach the cache");
    }

    #[test]
    fn mismatched_register_block_falls_back() {
        let p = Packing::new(GemmShape::new(16, 16, 16), TileShape::new(16, 16, 8));
        let space = &p.space;
        // Cache built for 8x8 but the block runs 8x16 over f64: must
        // fall back to private packing rather than mis-slice panels.
        let cache = PackCache::new(space, 8, 8, WaitPolicy::default());
        let mut bufs = PackBuffers::new();
        let mut expect = vec![0.0f64; 256];
        mac_loop_view(&p.a(), &p.b(), space, 0, 0, 2, &mut expect);
        let mut got = vec![0.0f64; 256];
        mac_loop_kernel_cached(
            KernelKind::Block,
            Some(&cache),
            0,
            &p.a(),
            &p.b(),
            space,
            0,
            0,
            2,
            &mut got,
            &mut bufs,
        );
        assert_eq!(got, expect);
        assert_eq!(cache.packs(), 0, "mismatched cache must stay untouched");
    }

    /// One stuck chunk falls back to private packing alone: its
    /// neighbours are still served from the cache, and the walk over
    /// the whole tile stays bit-exact.
    #[test]
    fn stalled_packer_times_out_to_private_packing() {
        use std::time::Duration;
        let p = Packing::new(GemmShape::new(16, 16, DEEP_K), TileShape::new(16, 16, 8));
        let (space, a, b) = (&p.space, p.a(), p.b());
        let kind = KernelKind::Block;
        let cache =
            PackCache::<f64>::new(space, 8, 16, WaitPolicy::with_watchdog(Duration::from_millis(20)));
        // Simulate a packer that claimed the middle chunk of A's only
        // panel and died: the flag sticks at PACKING forever.
        cache.table.stick(1);
        assert!(cache.a_chunk(&a, 0, 1, 0).is_none(), "watchdog must give up");
        assert_eq!(cache.fallbacks(), 1);
        assert!(cache.a_chunk(&a, 0, 0, 0).is_some(), "neighbouring chunks unaffected");

        let mut bufs = PackBuffers::new();
        let ipt = space.iters_per_tile();
        let mut expect = vec![0.0f64; 256];
        mac_loop_view(&a, &b, space, 0, 0, ipt, &mut expect);
        let mut got = vec![0.0f64; 256];
        mac_loop_kernel_cached(kind, Some(&cache), 0, &a, &b, space, 0, 0, ipt, &mut got, &mut bufs);
        assert_eq!(got, expect);
        assert_eq!(cache.fallbacks(), 2, "only the stuck chunk fell back again");
        assert_eq!(cache.packs(), 2 + 3, "A chunks 0 and 2, every B chunk");
    }

    /// Shards are independent slot tables: the same panel fetched
    /// through two shards is packed twice, identically, and a stalled
    /// packer in one shard does not poison the other.
    #[test]
    fn shards_pack_independently() {
        use std::time::Duration;
        let (space, a, _) = fixture(GemmShape::new(40, 16, DEEP_K), TileShape::new(16, 16, 8));
        let cache = PackCache::sharded(
            &space,
            8,
            4,
            WaitPolicy::with_watchdog(Duration::from_millis(20)),
            3,
        );
        assert_eq!(cache.shards(), 3);
        assert_eq!(cache.panels(), 3 * 3 * (space.tiles_m() + space.tiles_n()));
        let p0 = cache.a_chunk(&a.view(), 1, 2, 0).unwrap().to_vec();
        let p2 = cache.a_chunk(&a.view(), 1, 2, 2).unwrap().to_vec();
        assert_eq!(p0, p2, "shards must publish identical chunks");
        assert_eq!(cache.packs(), 2, "one pack per shard touched");
        // Shard ids wrap, so a raw worker id past the shard count
        // lands on an existing (already-packed) table.
        let _ = cache.a_chunk(&a.view(), 1, 2, 3).unwrap();
        assert_eq!(cache.packs(), 2, "shard 3 wraps onto shard 0's slot");
        // Poison shard 1's slot for (panel 1, chunk 2): the same chunk
        // in shard 0 and the other chunks of shard 1 stay usable.
        cache.table.stick((space.tiles_m() + 1) * 3 + 2);
        assert!(cache.a_chunk(&a.view(), 1, 2, 1).is_none(), "stuck shard gives up");
        assert!(cache.a_chunk(&a.view(), 1, 2, 0).is_some(), "other shards unaffected");
        assert!(cache.a_chunk(&a.view(), 1, 1, 1).is_some(), "other chunks unaffected");
    }

    /// Pack cost follows the iterations a worker owns: two workers
    /// splitting a one-tile deep-k shape under `stream_k(2)` pack
    /// every k-step of A and of B exactly once across their shards
    /// when the seam falls on a chunk boundary, and at most one extra
    /// chunk per operand when it does not.
    #[test]
    fn split_tile_packs_each_k_step_once_across_shards() {
        use streamk_core::Decomposition;
        let tile = TileShape::new(16, 16, 8);
        let kind = KernelKind::Block;
        // (k, seam on a chunk boundary?)
        for (k, aligned) in [(4 * CHUNK_K, true), (4 * CHUNK_K + 16, false)] {
            let shape = GemmShape::new(16, 16, k);
            let p = Packing::new(shape, tile);
            let (space, a, b) = (&p.space, p.a(), p.b());
            let decomp = Decomposition::stream_k(shape, tile, 2);
            assert_eq!((decomp.grid_size(), decomp.split_tiles()), (2, 1));
            let cache =
                PackCache::for_kernel_sharded(space, kind, WaitPolicy::default(), 2).unwrap();
            std::thread::scope(|s| {
                for (w, cta) in decomp.ctas().iter().enumerate() {
                    let (cache, a, b) = (&cache, &a, &b);
                    s.spawn(move || {
                        let mut bufs = PackBuffers::new();
                        let mut accum = vec![0.0f64; 256];
                        for seg in cta.segments(space) {
                            mac_loop_kernel_cached(
                                kind, Some(cache), w, a, b, space, seg.tile_idx,
                                seg.local_begin, seg.local_end, &mut accum, &mut bufs,
                            );
                        }
                    });
                }
            });
            let distinct = cache.panels() / cache.shards();
            if aligned {
                assert_eq!(cache.packs(), distinct, "k={k}: every chunk packed by exactly one shard");
            } else {
                assert_eq!(cache.packs(), distinct + 2, "k={k}: only the seam chunk is packed twice");
            }
            assert_eq!(cache.fallbacks(), 0);
        }
    }
}
