//! Register-blocked inner kernels.
//!
//! The paper's `MacLoop` implementations "fully unroll the per-thread
//! MAC-loop iteration \[and\] implement additional blocking at the warp
//! and/or thread levels" (§3.2). This module is the CPU analogue: one
//! register block per element type. Operands are read as BLIS-style
//! `MR`/`NR` panels ([`streamk_matrix::pack`]) and a const-generic
//! `MR × NR` block walks both; ragged edges are zero-padded at pack
//! time, so there is no scalar edge path — padded lanes are computed
//! and discarded. The block is dispatched to a runtime-detected
//! AVX-512F/AVX2 kernel ([`crate::simd`]) where one exists and runs
//! the portable scalar block otherwise (f16 inputs, non-x86 hosts,
//! Miri); one fused multiply-add per lane per k-step — the same
//! [`Scalar::mac`] the scalar oracle performs — keeps the two
//! bit-exact.
//!
//! Which block runs is a function of the element type alone:
//! [`KernelKind::panel_geometry`] is the one place a panel width is
//! chosen, and [`KernelKind`] names only the block and the scalar
//! oracle ([`mac_loop_view`]) the tests compare it against.
//!
//! **One register block, addressed by strides.** The block — vector
//! or scalar — reads A as `a[i·rs + k·ks]` and B as `b[k·ks + j]`
//! ([`Strided`]) and accumulates into `MR` rows of `c` a row stride
//! apart. A packed panel is the case `(rs, ks) = (1, MR)` / `ks = NR`;
//! an operand whose own strides the block can address is read *where
//! it lies* and never copied, the way the paper's `MacLoop` streams
//! fragments straight from the operands. [`PanelSpan`] describes
//! either source for a whole tile, and [`mac_loop_cached`] walks a
//! tile's register blocks over two of them at any `MR × NR` into an
//! [`AccWindow`] — a workspace tile, or the tile's own elements of C:
//! full blocks accumulate directly in the window, ragged corners
//! through a zero-padded stack tile; over a blank window they start at
//! zero, and on a tile's last chunk they may store `α·acc`. Which
//! source serves an operand — in place, the grid-shared
//! [`crate::packcache::PackCache`], a private pack — is decided in
//! [`crate::packcache::mac_loop_kernel_cached`], per operand per
//! k-chunk.
//!
//! Every path accumulates each output element in ascending-k order
//! with the one fused MAC ([`Scalar::mac`], DESIGN.md §9), so the
//! block — at every geometry the tests drive it at — and the scalar
//! [`mac_loop_view`] produce
//! bit-identical results whatever the operands' source; property tests
//! pin that. [`mac_loop_kernel`] is the always-pack dispatch point
//! (the reference the source rule is tested against).

use std::fmt;
use std::ops::Range;

use streamk_core::IterSpace;
use streamk_matrix::{
    pack_a_slice, pack_b_slice, packed_a_len, packed_b_len, AlignedVec, MatrixView, Promote, Scalar,
};

use crate::macloop::mac_loop_view;
use crate::output::AccWindow;
use crate::simd::{assert_block_bounds, vector_block, AccBlock, SimdLevel, Strided};

/// The most packed operand one k-step of a register block may span:
/// two 512-bit vectors. Past it the block's `MR · NR` accumulators no
/// longer fit the register file beside its operands — f64 at 8 × 32
/// needs all 32 vector registers for accumulators and spilled every
/// k-step — so [`KernelKind::panel_geometry`] narrows `NR` to fit.
const PANEL_BYTES: usize = 128;

/// Reusable staging buffers for packed operands — one pair per
/// worker, grown once and reused for every segment thereafter. Both
/// start on a cache line, like every pack range of the arena.
#[derive(Debug, Default)]
pub struct PackBuffers<In> {
    /// A packed into `MR`-row panels.
    pub a: AlignedVec<In>,
    /// B packed into `NR`-column panels.
    pub b: AlignedVec<In>,
}

impl<In> PackBuffers<In> {
    /// Empty buffers; they grow to the high-water mark on first use.
    #[must_use]
    pub fn new() -> Self {
        Self { a: AlignedVec::new(), b: AlignedVec::new() }
    }
}

/// The first `len` elements of the staging buffer `buf`, grown on
/// demand — at least doubling, like a `Vec` — and never shrunk, so
/// segments of alternating sizes re-fill nothing. The contents are
/// whatever the last pack left: the slice packers write every lane,
/// so growing allocates a new line-aligned buffer instead of copying.
pub(crate) fn stage<In: Copy + Default>(buf: &mut AlignedVec<In>, len: usize) -> &mut [In] {
    if buf.len() < len {
        let grown = len.max(2 * buf.len());
        // Free before allocating: nothing in the old buffer is kept.
        *buf = AlignedVec::new();
        *buf = AlignedVec::zeroed(grown);
    }
    &mut buf[..len]
}

/// Expands `$run!(MR, NR)` at the register block `$block`: the one
/// list of `(MR, NR)` shapes the panel pipeline is compiled for, shared
/// by the always-pack and the source-rule dispatch — the two
/// [`KernelKind::panel_geometry`] gives.
macro_rules! at_block {
    ($block:expr, $run:ident) => {
        match $block {
            (8, 16) => $run!(8, 16),
            (8, 32) => $run!(8, 32),
            (mr, nr) => unreachable!("no register block is {mr}x{nr}"),
        }
    };
}
pub(crate) use at_block;

/// The inner kernels the executors can run: the register block, and
/// the scalar oracle it is tested against.
///
/// Both are bit-exact against each other (identical ascending-k
/// accumulation per output element); they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// The scalar `MacLoop` ([`mac_loop_view`]); works on any strides
    /// and packs nothing. The reference every other path is compared
    /// with.
    Scalar,
    /// The register block, at the shape
    /// [`panel_geometry`](Self::panel_geometry) gives for the element
    /// type: `8 × 32` over 4-byte and 2-byte elements (sixteen
    /// AVX-512 accumulator vectors: sixteen independent `vfmadd`
    /// chains cover the FMA latency of both FP ports — 4 cycles × 2
    /// ports needs eight — with room for the loads between them),
    /// `8 × 16` over f64, again sixteen accumulator vectors. The
    /// vector kernel runs where [`SimdLevel::detect`] finds one, the
    /// portable block at the same shape otherwise.
    #[default]
    Block,
}

impl KernelKind {
    /// Every kernel.
    pub const ALL: [KernelKind; 2] = [KernelKind::Scalar, KernelKind::Block];

    /// Stable lowercase name (the `Display` form, used in test and
    /// panic messages).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Block => "block",
        }
    }

    /// The register block `(MR, NR)` this kind runs, and the panel
    /// widths it packs, over input elements of type `In`: `8 × 32` with
    /// `NR` capped at `PANEL_BYTES` (128 bytes, two 512-bit vectors) of
    /// packed operand, so f64 runs `8 × 16`. Every path that sizes a
    /// panel (the pack caches, the executors' launch cache, both
    /// dispatchers) asks here. `None` for [`Scalar`](Self::Scalar),
    /// which consumes no panels.
    #[must_use]
    pub fn panel_geometry<In>(self) -> Option<(usize, usize)> {
        match self {
            KernelKind::Block => Some((8, 32usize.min(PANEL_BYTES / size_of::<In>()))),
            KernelKind::Scalar => None,
        }
    }

    /// The nominal register block: [`panel_geometry`](Self::panel_geometry)
    /// over 4-byte elements, where the cap does not bind.
    #[must_use]
    pub fn register_block(self) -> Option<(usize, usize)> {
        self.panel_geometry::<f32>()
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Executes local MAC-loop iterations `[local_begin, local_end)` of
/// `tile_idx` with `kind`'s kernel, adding into `accum` (row-major
/// `BLK_M × BLK_N`): the always-pack path. [`KernelKind::Block`] packs
/// both operands of the segment into `bufs` whatever their strides
/// and runs at [`KernelKind::panel_geometry`] for `In`;
/// [`KernelKind::Scalar`] leaves `bufs` untouched. No launch calls it
/// (launches read each operand from the cheapest source, through
/// [`mac_loop_kernel_cached`](crate::mac_loop_kernel_cached)), and it
/// records no span.
///
/// # Panics
///
/// Panics if `accum` has the wrong size or the local range is out of
/// bounds.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn mac_loop_kernel<In, Acc>(
    kind: KernelKind,
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
    let level = Some(SimdLevel::detect());
    macro_rules! run {
        ($mr:literal, $nr:literal) => {
            mac_loop_panels::<In, Acc, $mr, $nr>(level, a, b, space, tile_idx, local_begin, local_end, accum, bufs)
        };
    }
    at_block!(block, run)
}

/// The always-pack pipeline behind [`mac_loop_kernel`]'s register
/// block, at the `MR × NR` block [`KernelKind::panel_geometry`]
/// picked: packs the segment's whole operand block (zero-padded) into
/// `bufs`, then hands the two packed tables to [`mac_loop_cached`] —
/// vectorized when `level` is `Some` and a SIMD kernel matches, scalar
/// otherwise. Works on any operand strides; accumulation per output
/// element is ascending-k with only genuine operand values, so the
/// result is bit-identical to [`mac_loop_view`].
#[allow(clippy::too_many_arguments)]
fn mac_loop_panels<In, Acc, const MR_: usize, const NR_: usize>(
    level: Option<SimdLevel>,
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
    let tile = space.tile();
    assert_eq!(accum.len(), tile.blk_m * tile.blk_n, "accumulator must be BLK_M x BLK_N");
    assert!(local_end <= space.iters_per_tile(), "local range out of bounds");
    if local_begin >= local_end {
        return;
    }
    let (rows, cols) = space.tile_extents(tile_idx);
    // Local iterations are contiguous k-chunks, so their union is one
    // contiguous k-range (the last chunk clamped to the problem's k).
    let ks = space.k_extents(local_begin).start..space.k_extents(local_end - 1).end;

    let (m_extent, n_extent) = (rows.len(), cols.len());
    let a_out = stage(&mut bufs.a, packed_a_len(m_extent, ks.len(), MR_));
    pack_a_slice(a, rows, ks.clone(), MR_, a_out);
    let b_out = stage(&mut bufs.b, packed_b_len(ks.len(), n_extent, NR_));
    pack_b_slice(b, ks.clone(), cols, NR_, b_out);

    mac_loop_cached::<In, Acc, MR_, NR_>(
        level,
        PanelSpan::packed(a_out, MR_, ks.clone()),
        PanelSpan::packed(b_out, NR_, ks),
        space,
        tile_idx,
        local_begin,
        local_end,
        &mut AccWindow::new(accum, m_extent, n_extent, tile.blk_n),
        None,
    );
}

/// Where the register blocks of one tile read one operand from, over
/// the k-window `ks`: the one operand-source descriptor behind every
/// panel-consuming path. The operand is cut into panels of `MR` lanes
/// (A's rows) or `NR` lanes (B's columns); lane `i` of panel `p` at
/// problem-k `k` is
/// `data[p · panel_stride + i · lane_stride + (k − ks.start) · k_stride]`.
///
/// - A **packed table** ([`packed`](Self::packed)) — a cache chunk or
///   a private pack — is k-major with adjacent lanes: strides
///   `(ks.len() · width, 1, width)`, its ragged last panel zero-padded
///   in the table itself.
/// - An operand read **in place** ([`in_place`](Self::in_place))
///   carries its view's strides. The view has no padding, so when the
///   tile's extent is not a whole number of panels the ragged last one
///   comes from `edge` — that panel alone, packed and zero-padded over
///   the same k-window — and nothing outside the view's window is ever
///   addressed.
#[derive(Debug, Clone)]
pub struct PanelSpan<'a, In> {
    data: &'a [In],
    ks: Range<usize>,
    panel_stride: usize,
    lane_stride: usize,
    k_stride: usize,
    edge: Option<&'a [In]>,
}

impl<'a, In> PanelSpan<'a, In> {
    /// A table of packed `width`-lane panels, each covering `ks`.
    #[must_use]
    pub fn packed(table: &'a [In], width: usize, ks: Range<usize>) -> Self {
        let panel_stride = ks.len() * width;
        Self { data: table, ks, panel_stride, lane_stride: 1, k_stride: width, edge: None }
    }

    /// An operand's own storage: `data` starts at lane 0 of panel 0 at
    /// k-step `ks.start`, lanes `lane_stride` apart, k-steps
    /// `k_stride` apart, `width` lanes to a panel. `edge` is the
    /// packed ragged last panel, required exactly when the tile has
    /// one.
    #[must_use]
    pub fn in_place(
        data: &'a [In],
        width: usize,
        lane_stride: usize,
        k_stride: usize,
        ks: Range<usize>,
        edge: Option<&'a [In]>,
    ) -> Self {
        Self { data, ks, panel_stride: width * lane_stride, lane_stride, k_stride, edge }
    }

    /// Panel `p`'s `width` lanes over `kc` k-steps from problem-k
    /// `k_begin`, cut to exactly the elements a register block reads;
    /// a `ragged` panel is served from the packed edge when there is
    /// one.
    fn block(&self, p: usize, ragged: bool, width: usize, k_begin: usize, kc: usize) -> Strided<'a, In> {
        let k_off = k_begin - self.ks.start;
        if let (true, Some(edge)) = (ragged, self.edge) {
            return Strided::packed(&edge[k_off * width..(k_off + kc) * width], width);
        }
        let first = p * self.panel_stride + k_off * self.k_stride;
        let last = first + (width - 1) * self.lane_stride + (kc - 1) * self.k_stride;
        Strided { data: &self.data[first..=last], lane_stride: self.lane_stride, k_stride: self.k_stride }
    }
}

/// Runs local MAC-loop iterations `[local_begin, local_end)` of
/// `tile_idx` against the operand sources `a` and `b` — packed tables
/// from the [`crate::packcache::PackCache`] or a private pack, or the
/// operands' own storage ([`PanelSpan`]) — into `c`, the window over
/// the tile's sums (a workspace tile, or the tile's elements of **C**
/// at C's row stride). The segment's k-sub-range must lie inside both
/// spans' k-windows. No packing happens here — that is the point.
///
/// Over a full window every register block adds into what it holds;
/// over a blank one (the first k-chunk of a segment) it starts at +0.0
/// and reads nothing, and the walk fills the window. With `alpha` each
/// block stores `α·acc` (the last k-chunk of a tile stored from the
/// register block). Each register block accumulates its output
/// elements in ascending-k order whatever the source, so the choice of
/// source never changes results.
///
/// # Panics
///
/// Panics if `c` is not the tile's extent, the local range is out of
/// bounds, the segment's k-range leaves a span, or a span is too short
/// for the tile.
#[allow(clippy::too_many_arguments)]
pub fn mac_loop_cached<In, Acc, const MR_: usize, const NR_: usize>(
    level: Option<SimdLevel>,
    a: PanelSpan<'_, In>,
    b: PanelSpan<'_, In>,
    space: &IterSpace,
    tile_idx: usize,
    local_begin: usize,
    local_end: usize,
    c: &mut AccWindow<'_, Acc>,
    alpha: Option<Acc>,
) where
    In: Promote<Acc>,
    Acc: Scalar,
{
    assert!(local_end <= space.iters_per_tile(), "local range out of bounds");
    if local_begin >= local_end {
        return;
    }
    let (rows, cols) = space.tile_extents(tile_idx);
    let (m_extent, n_extent) = (rows.len(), cols.len());
    assert_eq!((c.rows(), c.cols()), (m_extent, n_extent), "the window must be the tile's extent");
    let k_begin = space.k_extents(local_begin).start;
    let k_end = space.k_extents(local_end - 1).end;
    let kc = k_end - k_begin;
    for (name, span) in [("A", &a), ("B", &b)] {
        assert!(
            span.ks.start <= k_begin && k_end <= span.ks.end,
            "segment k-range [{k_begin},{k_end}) outside {name} panel span"
        );
    }

    // q-outer / p-inner: the column of register blocks re-reads one B
    // sub-panel (the operand every k-step loads a fresh row from)
    // while only the narrower A sub-panels stream. At `CHUNK_K = 1024`
    // that sub-panel is 128 KiB of f32 against a 48 KiB L1d, so it is
    // re-read from L2, not L1 (DESIGN.md §9); the vector block
    // prefetches each of its rows `PF` k-steps ahead of the k-step
    // that loads it. Block order does not affect results — each output
    // element's k-accumulation happens inside a single block call —
    // and it is the order a blank window's first pass fills it in.
    for q in 0..n_extent.div_ceil(NR_) {
        let jw = NR_.min(n_extent - q * NR_);
        let bq = b.block(q, jw < NR_, NR_, k_begin, kc);
        for p in 0..m_extent.div_ceil(MR_) {
            let ih = MR_.min(m_extent - p * MR_);
            let ap = a.block(p, ih < MR_, MR_, k_begin, kc);
            let block = c.block(p * MR_, q * NR_, ih, jw, alpha);
            if ih == MR_ && jw == NR_ {
                // A full block accumulates where the tile keeps it.
                register_block::<In, Acc, MR_, NR_>(level, ap, bq, kc, block);
            } else {
                edge_block::<In, Acc, MR_, NR_>(level, ap, bq, kc, block);
            }
        }
    }
}

/// A ragged `ih × jw` corner of the tile: it goes through a full
/// `MR × NR` stack tile, because the operands' padded lanes compute
/// into lanes `c` has no room for. Padded lanes start at zero and are
/// never stored; `c`'s own start and scale apply on the way in and out.
#[inline]
fn edge_block<In, Acc, const MR_: usize, const NR_: usize>(
    level: Option<SimdLevel>,
    a: Strided<'_, In>,
    b: Strided<'_, In>,
    kc: usize,
    c: AccBlock<'_, Acc>,
) where
    In: Promote<Acc>,
    Acc: Scalar,
{
    let mut tile: [[Acc; NR_]; MR_] = c.start();
    register_block::<In, Acc, MR_, NR_>(level, a, b, kc, AccBlock::over(tile.as_flattened_mut(), MR_, NR_, NR_));
    c.finish(&tile);
}

/// One `MR × NR` block over `kc` k-steps into `c`: the host's vector
/// kernel when `level` names one for this shape and element type, the
/// portable scalar block otherwise.
#[inline]
fn register_block<In, Acc, const MR_: usize, const NR_: usize>(
    level: Option<SimdLevel>,
    a: Strided<'_, In>,
    b: Strided<'_, In>,
    kc: usize,
    c: AccBlock<'_, Acc>,
) where
    In: Promote<Acc>,
    Acc: Scalar,
{
    let c = match level {
        Some(level) => vector_block::<In, Acc, MR_, NR_>(level, a, b, kc, c),
        None => Err(c),
    };
    if let Err(c) = c {
        packed_block::<In, Acc, MR_, NR_>(a, b, kc, c);
    }
}

/// The portable register block: the strided walk of
/// [`crate::simd`]'s kernels in safe scalar code, with the same bounds
/// asserted before the k-loop, started and stored as `c` says. The
/// block's `MR × NR` accumulators live in a stack tile across the loop
/// so the `NR`-wide update vectorizes.
#[inline]
pub(crate) fn packed_block<In, Acc, const MR_: usize, const NR_: usize>(
    a: Strided<'_, In>,
    b: Strided<'_, In>,
    kc: usize,
    c: AccBlock<'_, Acc>,
) where
    In: Promote<Acc>,
    Acc: Scalar,
{
    assert_block_bounds(&a, &b, kc, MR_, NR_, &c);
    // Loaded a row at a time, as they are stored below: element-wise
    // loads leave LLVM with accumulators it vectorizes only in part
    // once the update is an `fma` call (half of an 8 × 8 block's MACs
    // stayed scalar, 2× slower).
    let mut acc: [[Acc; NR_]; MR_] = c.start();
    // The k-loop over `$steps`, which yields each k-step's A lanes
    // (promoted) and B row. Safe indexing checks every access against
    // its slice, and in this loop a check per element doubles the
    // instruction count, so the two walks that matter first cut
    // slices whose lengths say what the loop needs.
    macro_rules! walk {
        ($steps:expr) => {
            for (av, brow) in $steps {
                let av: [Acc; MR_] = av;
                let bv: [Acc; NR_] = std::array::from_fn(|j| brow[j].promote());
                for (crow, &ai) in acc.iter_mut().zip(&av) {
                    for (cv, &bj) in crow.iter_mut().zip(&bv) {
                        *cv = cv.mac(ai, bj);
                    }
                }
            }
        };
    }
    let b_row = |k: usize| &b.data[k * b.k_stride..][..NR_];
    match (a.lane_stride, a.k_stride) {
        _ if kc == 0 => {}
        // Packed panels: chunks_exact tells LLVM each k-step's operand
        // slices are exactly MR/NR long, and no check survives.
        (1, ks) if ks == MR_ && b.k_stride == NR_ => walk!(a
            .data
            .chunks_exact(MR_)
            .zip(b.data.chunks_exact(NR_))
            .take(kc)
            .map(|(acol, brow)| (std::array::from_fn(|i| acol[i].promote()), brow))),
        // A row-major A read in place: each lane is one run of k.
        (ls, 1) => {
            let lanes: [&[In]; MR_] = std::array::from_fn(|i| &a.data[i * ls..][..kc]);
            walk!((0..kc).map(|k| (std::array::from_fn(|i| lanes[i][k].promote()), b_row(k))));
        }
        (ls, ks) => walk!(
            (0..kc).map(|k| (std::array::from_fn(|i| a.data[i * ls + k * ks].promote()), b_row(k)))
        ),
    }
    c.finish(&acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::macloop::mac_loop_view;
    use streamk_matrix::Matrix;
    use streamk_types::{GemmShape, Layout, TileShape};

    fn compare(shape: GemmShape, tile: TileShape, seed: u64) {
        let space = IterSpace::new(shape, tile);
        let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, seed);
        let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, seed + 1);
        let mut bufs = PackBuffers::new();
        for tile_idx in 0..space.tiles() {
            let mut scalar = vec![0.0f64; tile.blk_m * tile.blk_n];
            mac_loop_view(&a.view(), &b.view(), &space, tile_idx, 0, space.iters_per_tile(), &mut scalar);
            for kind in KernelKind::ALL {
                let mut got = vec![0.0f64; tile.blk_m * tile.blk_n];
                mac_loop_kernel(kind, &a.view(), &b.view(), &space, tile_idx, 0, space.iters_per_tile(), &mut got, &mut bufs);
                assert_eq!(got, scalar, "{kind} tile {tile_idx} of {shape} at {tile}");
            }
        }
    }

    #[test]
    fn every_kernel_matches_scalar_on_aligned_tiles() {
        compare(GemmShape::new(32, 32, 24), TileShape::new(16, 16, 8), 1);
    }

    #[test]
    fn every_kernel_matches_scalar_on_ragged_tiles() {
        // Edge tiles exercise the block's zero-padded panels.
        compare(GemmShape::new(30, 27, 19), TileShape::new(16, 16, 8), 2);
        compare(GemmShape::new(7, 5, 11), TileShape::new(8, 8, 4), 3);
        compare(GemmShape::new(13, 14, 15), TileShape::new(13, 14, 5), 4);
    }

    #[test]
    fn every_kernel_matches_scalar_on_partial_iter_ranges() {
        let shape = GemmShape::new(16, 16, 64);
        let tile = TileShape::new(16, 16, 8);
        let space = IterSpace::new(shape, tile);
        let a = Matrix::<f64>::random::<f64>(16, 64, Layout::RowMajor, 5);
        let b = Matrix::<f64>::random::<f64>(64, 16, Layout::RowMajor, 6);
        let mut bufs = PackBuffers::new();
        for (lb, le) in [(0usize, 3usize), (3, 8), (2, 5), (7, 8), (4, 4)] {
            let mut scalar = vec![0.0f64; 256];
            mac_loop_view(&a.view(), &b.view(), &space, 0, lb, le, &mut scalar);
            for kind in KernelKind::ALL {
                let mut got = vec![0.0f64; 256];
                mac_loop_kernel(kind, &a.view(), &b.view(), &space, 0, lb, le, &mut got, &mut bufs);
                assert_eq!(got, scalar, "{kind} range [{lb},{le})");
            }
        }
    }

    #[test]
    fn packed_handles_strided_operands() {
        // The packed pipeline normalizes layout at pack time — no
        // scalar fallback for col-major or transposed views.
        let shape = GemmShape::new(20, 18, 26);
        let tile = TileShape::new(16, 16, 8);
        let space = IterSpace::new(shape, tile);
        let a = Matrix::<f64>::random::<f64>(20, 26, Layout::ColMajor, 7);
        let b = Matrix::<f64>::random::<f64>(26, 18, Layout::ColMajor, 8);
        let mut bufs = PackBuffers::new();
        for tile_idx in 0..space.tiles() {
            let mut scalar = vec![0.0f64; tile.blk_m * tile.blk_n];
            mac_loop_view(&a.view(), &b.view(), &space, tile_idx, 0, space.iters_per_tile(), &mut scalar);
            let mut got = vec![0.0f64; tile.blk_m * tile.blk_n];
            mac_loop_kernel(KernelKind::Block, &a.view(), &b.view(), &space, tile_idx, 0, space.iters_per_tile(), &mut got, &mut bufs);
            assert_eq!(got, scalar, "tile {tile_idx}");
        }
    }

    #[test]
    fn packed_accumulates_into_existing_values() {
        let shape = GemmShape::new(8, 8, 16);
        let tile = TileShape::new(8, 8, 8);
        let space = IterSpace::new(shape, tile);
        let a = Matrix::<f64>::random::<f64>(8, 16, Layout::RowMajor, 7);
        let b = Matrix::<f64>::random::<f64>(16, 8, Layout::RowMajor, 8);
        let mut bufs = PackBuffers::new();
        // Split accumulation [0,1) then [1,2) must equal [0,2).
        let mut whole = vec![0.0f64; 64];
        let kind = KernelKind::Block;
        mac_loop_kernel(kind, &a.view(), &b.view(), &space, 0, 0, 2, &mut whole, &mut bufs);
        let mut parts = vec![0.0f64; 64];
        mac_loop_kernel(kind, &a.view(), &b.view(), &space, 0, 0, 1, &mut parts, &mut bufs);
        mac_loop_kernel(kind, &a.view(), &b.view(), &space, 0, 1, 2, &mut parts, &mut bufs);
        assert_eq!(whole, parts);
    }

    /// Two kinds, one block: the default is the register block, and
    /// `NR` is capped at 128 bytes of packed operand, so it runs
    /// 8 × 16 over f64 and 8 × 32 over everything narrower (f16 and
    /// bf16 promoted to f32 included).
    #[test]
    fn panel_geometry_caps_nr_at_two_512_bit_vectors() {
        use streamk_matrix::{bf16, f16};
        assert_eq!(KernelKind::ALL.len(), 2);
        assert_eq!(KernelKind::default(), KernelKind::Block);
        let block = KernelKind::Block;
        assert_eq!(block.panel_geometry::<f32>(), Some((8, 32)));
        assert_eq!(block.panel_geometry::<f16>(), Some((8, 32)));
        assert_eq!(block.panel_geometry::<bf16>(), Some((8, 32)));
        assert_eq!(block.panel_geometry::<f64>(), Some((8, 16)));
        assert_eq!(block.register_block(), Some((8, 32)));
        assert_eq!(KernelKind::Scalar.panel_geometry::<f64>(), None);
        assert_eq!(KernelKind::Scalar.register_block(), None);
    }

    /// Staging grows and shrinks its use from segment to segment; every
    /// slice it hands out starts on a cache line.
    #[test]
    fn staging_starts_on_a_line() {
        let (mut a, mut b) = (AlignedVec::<f64>::new(), AlignedVec::<f32>::new());
        for len in [1, 7, 100, 3, 4096, 5000, 17, 12_001] {
            assert_eq!(stage(&mut a, len).as_ptr() as usize % streamk_matrix::LINE, 0, "f64 {len}");
            assert_eq!(stage(&mut b, len).as_ptr() as usize % streamk_matrix::LINE, 0, "f32 {len}");
            assert_eq!(stage(&mut a, len).len(), len);
        }
    }
}
