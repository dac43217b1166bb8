//! Concurrent output-tile stores: the one tile epilogue.
//!
//! `StoreTile` writes each finished output tile directly into the
//! shared **C** buffer from whichever worker thread owns the tile —
//! the same concurrent store pattern a GPU kernel uses. Tiles are
//! disjoint 2-D regions of **C**, and the decomposition invariant
//! "every tile has exactly one owner" (checked by
//! `Decomposition::validate` before execution) guarantees no two
//! threads ever write the same element.
//!
//! A whole tile of a row-major output at `β = 0` is stored from the
//! register block: `TileWriter::claim` hands the MAC loop a raw
//! [`AccWindow`] over the tile's own elements of C, the register blocks
//! keep their sums there — starting at zero, so C is never read before
//! it is written — and apply `α` as they store the last k-chunk, and
//! `ClaimedTile::store` marks the tile stored once the window is full.
//! Every other tile — split, column-major, `β ≠ 0` — is computed into a
//! workspace tile and stored through one routine,
//! `TileWriter::store_runs`. It cuts the tile's
//! destination into the contiguous *runs* the layout has — a row of
//! the tile for `RowMajor`, a column for `ColMajor` — asks
//! `Layout::index` for each run's first offset only,
//! proves the run's first and last offset inside the storage with
//! checked arithmetic, and then applies `α·acc (+ β·c)` over the run
//! as one slice loop, reading **C** only when `β ≠ 0`. A column of the
//! row-major accumulator is strided, so a column-major run first
//! gathers its sources into a small stack array and reads that.
//!
//! A launch that runs transposed (DESIGN.md §9, "Orientation") stores
//! `Cᵀ` through a writer over C's own storage in the flipped layout —
//! `ColMajor` `n × m` over a row-major C, `RowMajor` over a
//! column-major one — tiled by the transposed iteration space, and a
//! born `Cᵀ` is handed back as the caller's C by reading its storage
//! the other way round. Nothing here is special to it.
//!
//! Rust cannot prove the tiles' disjointness through types, so this
//! module holds the raw-pointer windows into **C** and their `unsafe`
//! (the crate's other exemptions from `deny(unsafe_code)` — `arena`,
//! `pool`, `simd` — are listed in `lib.rs`; none of them touches an
//! output). The one-writer-per-tile invariant is asserted at run time
//! in every build: a per-tile flag is swapped on entry, and a second
//! store to the same tile panics before it writes. A claimed window
//! never becomes a slice of **C** — a slice from a tile's first element
//! to its last would span other workers' tiles — but hands out one
//! register block at a time, each proved inside the tile, and its
//! `Fill` lets a block read only after the first pass wrote the whole
//! tile.
//!
//! A `β = 0` output needs no prior contents, so `OwnedTileWriter`
//! does not fill the buffer it allocates: the tiles partition the
//! storage, every element is written exactly once
//! by the worker that computed it, and the buffer only becomes a
//! `Matrix` in `OwnedTileWriter::take`, which refuses unless every
//! tile's flag says *stored*. A writer keeps the launch's [`IterSpace`]
//! and takes a tile's extents from it, never from the caller, so a set
//! flag means the whole tile was written. A launch that fails, is
//! cancelled or times out drops the buffer without ever reading it.
//! The buffer is reserved with a cache line of
//! slack and the matrix starts on the line inside it, like every
//! allocating `Matrix` constructor; `take` writes the few slack
//! elements in front and hands the window over without a copy.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use streamk_core::IterSpace;
use streamk_matrix::aligned::{line_offset, slack};
use streamk_matrix::{AlignedVec, Matrix, Scalar};
use streamk_types::Layout;

use crate::simd::AccBlock;

/// Tile flag states. `CLAIMED` is swapped in (relaxed: it publishes
/// nothing, it only elects the tile's one writer) before the first
/// element is written; `STORED` is release-stored after the last, so
/// an acquire load that reads it has every element of the tile.
const UNTOUCHED: u8 = 0;
const CLAIMED: u8 = 1;
const STORED: u8 = 2;

/// Rows of an accumulator column a `ColMajor` run gathers into a stack
/// array on its way out ([`TileWriter::store_runs`]).
const STAGE: usize = 16;

/// A write window over an output matrix's backing storage, shareable
/// across worker threads.
pub(crate) struct TileWriter<'a, Acc> {
    ptr: *mut Acc,
    /// Elements `ptr` is valid for: `m · n`.
    len: usize,
    /// The launch's tiling of the `m × n` output: where each tile's
    /// extents come from.
    space: IterSpace,
    layout: Layout,
    /// Whether the storage already holds values (a caller's **C**).
    /// `β ≠ 0` reads the destination and is refused when it does not.
    filled: bool,
    /// One flag per tile of `space`: the one-writer check, and for an
    /// owned buffer the proof that every tile was stored.
    written: Vec<AtomicU8>,
    /// The exclusive borrow of the storage behind `ptr`.
    _marker: PhantomData<&'a mut ()>,
}

// SAFETY: `TileWriter` only accesses memory through `ptr`, and the
// execution protocol guarantees each element is accessed by exactly
// one thread (disjoint tile ownership, one store per tile checked by
// `written`). The borrow of the underlying slice is held for `'a` (an
// owned buffer lives in the `OwnedTileWriter` around this writer),
// preventing any other access to the buffer while the writer exists.
// `Acc: Send` because values cross threads; `space`/`layout`/`filled`
// are immutable data and `written` is atomics.
unsafe impl<Acc: Send> Send for TileWriter<'_, Acc> {}
unsafe impl<Acc: Send> Sync for TileWriter<'_, Acc> {}

impl<'a, Acc: Scalar> TileWriter<'a, Acc> {
    /// Wraps a caller's output buffer: `data` must be the backing
    /// storage, in `layout` order, of the `m × n` matrix `space` tiles.
    pub(crate) fn new(data: &'a mut [Acc], layout: Layout, space: &IterSpace) -> Self {
        let shape = space.shape();
        assert_eq!(data.len(), shape.m * shape.n, "backing storage size mismatch");
        Self::over(data.as_mut_ptr(), data.len(), layout, space, true)
    }

    fn over(ptr: *mut Acc, len: usize, layout: Layout, space: &IterSpace, filled: bool) -> Self {
        let written = (0..space.tiles()).map(|_| AtomicU8::new(UNTOUCHED)).collect();
        Self { ptr, len, space: space.clone(), layout, filled, written, _marker: PhantomData }
    }

    /// The tiling of the output this writer stores by.
    pub(crate) fn space(&self) -> &IterSpace {
        &self.space
    }

    /// The order the output is stored in.
    pub(crate) fn layout(&self) -> Layout {
        self.layout
    }

    /// Claims tile `tile_idx` for a store from the register block: the
    /// raw window over the tile's own elements of a row-major output,
    /// blank until the MAC loop's first pass writes it. The tile is
    /// stored once [`ClaimedTile::store`] finds the window full; a
    /// claim dropped before that (a panic mid-tile) leaves the tile
    /// claimed and never stored, so an owned output is withheld.
    ///
    /// # Panics
    ///
    /// Panics — before anything is written — if the output is not
    /// row-major, `tile_idx` is not a tile of the space, or the tile is
    /// claimed or stored twice.
    pub(crate) fn claim(&self, tile_idx: usize) -> ClaimedTile<'_, Acc> {
        assert_eq!(self.layout, Layout::RowMajor, "only a row-major output is stored from the register block");
        let (row_range, col_range) = self.space.tile_extents(tile_idx);
        let shape = self.space.shape();
        let (rows, cols) = (row_range.len(), col_range.len());
        let first = self.layout.index(row_range.start, col_range.start, shape.m, shape.n);
        // The tile's last element, (rows − 1, cols − 1) from `first`:
        // with it inside the storage so is every row of the window.
        let last = (rows - 1).checked_mul(shape.n).and_then(|o| o.checked_add(first)?.checked_add(cols - 1));
        assert!(last.is_some_and(|last| last < self.len), "tile {tile_idx} leaves the output storage");
        let prev = self.written[tile_idx].swap(CLAIMED, Ordering::Relaxed);
        assert_eq!(prev, UNTOUCHED, "tile {tile_idx} stored twice");
        // SAFETY: `ptr` is valid for `len` elements while `self` lives,
        // and the tile's last element lies inside them (asserted
        // above), so each of its `rows` rows — `cols ≤ n` elements
        // from `first + i·n` — does too; they are row `row_range.start
        // + i` of C at columns `col_range`, this tile's elements only,
        // and rows `n` apart do not overlap. This thread swapped the
        // tile's flag from `UNTOUCHED`, and tiles are disjoint, so
        // nothing else accesses them while the claim lives. The window
        // is blank: nothing is read before its first pass writes it.
        let window = unsafe { AccWindow::raw(self.ptr.add(first), rows, cols, shape.n) };
        ClaimedTile { flag: &self.written[tile_idx], tile_idx, window }
    }

    /// Stores a finished tile unscaled: `C_tile = accum`. `accum` is a
    /// row-major scratch tile of row stride `blk_n`; the region written
    /// is `space.tile_extents(tile_idx)`, clamped at the matrix edges.
    ///
    /// # Panics
    ///
    /// As [`store_tile_ex`](Self::store_tile_ex).
    #[cfg(test)]
    pub(crate) fn store_tile(&self, tile_idx: usize, blk_n: usize, accum: &[Acc]) {
        self.store_tile_ex(tile_idx, blk_n, accum, Acc::ONE, Acc::ZERO);
    }

    /// Epilogue store: `C_tile = α·accum + β·C_tile`. Reading the old
    /// tile value is safe for the same reason writing is: this thread
    /// is the tile's sole owner and no other access to the buffer
    /// exists while the writer holds its exclusive borrow. With
    /// `β = 0` the old value is never read (BLAS convention — an
    /// uninitialized or NaN-filled C is fine).
    ///
    /// # Panics
    ///
    /// Panics — before anything is written — if `tile_idx` is not a
    /// tile of the space or is stored twice (protocol violation), the
    /// tile is wider than `blk_n`, `accum` is shorter than the region
    /// read from it, or `β ≠ 0` on a buffer that holds no values yet.
    pub(crate) fn store_tile_ex(&self, tile_idx: usize, blk_n: usize, accum: &[Acc], alpha: Acc, beta: Acc) {
        // Never empty: a space has no tile outside its matrix.
        let (row_range, col_range) = self.space.tile_extents(tile_idx);
        assert!(col_range.len() <= blk_n, "tile is {} columns wide but blk_n is {blk_n}", col_range.len());
        // The last element read is (rows − 1, cols − 1) of the tile;
        // with it in reach no run's source ends before its destination.
        let needed = (row_range.len() - 1) * blk_n + col_range.len();
        assert!(accum.len() >= needed, "accumulator holds {} elements, the tile reads {needed}", accum.len());
        assert!(beta == Acc::ZERO || self.filled, "β ≠ 0 reads an output that holds no values yet");
        let prev = self.written[tile_idx].swap(CLAIMED, Ordering::Relaxed);
        assert_eq!(prev, UNTOUCHED, "tile {tile_idx} stored twice");

        self.store_runs(row_range, col_range, blk_n, accum, alpha, beta);
        self.written[tile_idx].store(STORED, Ordering::Release);
    }

    /// The tile epilogue: cuts the (non-empty) `row_range × col_range`
    /// into the contiguous runs this layout stores it as and hands
    /// each, with the accumulator elements that feed it, to
    /// [`store_run`](Self::store_run). Rows of the tile are unit-stride
    /// in `accum`; columns step by `blk_n`. A
    /// `ColMajor` column is gathered [`STAGE`] rows at a time into a
    /// stack array and each such run stored from that contiguous slice,
    /// a quarter to a third faster than a strided read (EXPERIMENTS.md,
    /// "Orientation"); only its ragged rest is read strided.
    fn store_runs(
        &self,
        row_range: Range<usize>,
        col_range: Range<usize>,
        blk_n: usize,
        accum: &[Acc],
        alpha: Acc,
        beta: Acc,
    ) {
        let (r0, c0) = (row_range.start, col_range.start);
        let (nrows, ncols) = (row_range.len(), col_range.len());
        match self.layout {
            Layout::RowMajor => {
                for (ti, r) in row_range.enumerate() {
                    let src = &accum[ti * blk_n..][..ncols];
                    self.store_run(r, c0, ncols, src.iter().copied(), alpha, beta);
                }
            }
            Layout::ColMajor => {
                for (tj, c) in col_range.enumerate() {
                    for ti in (0..nrows).step_by(STAGE) {
                        let column = &accum[ti * blk_n + tj..];
                        let n = STAGE.min(nrows - ti);
                        if n == STAGE {
                            let column = &column[..(STAGE - 1) * blk_n + 1];
                            let stage: [Acc; STAGE] = std::array::from_fn(|i| column[i * blk_n]);
                            self.store_run(r0 + ti, c, STAGE, stage.iter().copied(), alpha, beta);
                        } else {
                            self.store_run(r0 + ti, c, n, column.iter().step_by(blk_n).copied(), alpha, beta);
                        }
                    }
                }
            }
        }
    }

    /// Stores one run: `n ≥ 1` destination elements starting at
    /// `(r, c)` that this layout keeps contiguous, `dst = α·src` or
    /// `dst = α·src + β·dst`.
    #[inline(always)]
    fn store_run(&self, r: usize, c: usize, n: usize, src: impl Iterator<Item = Acc>, alpha: Acc, beta: Acc) {
        let shape = self.space.shape();
        let first = self.layout.index(r, c, shape.m, shape.n);
        let in_bounds = first.checked_add(n - 1).is_some_and(|last| last < self.len);
        assert!(in_bounds, "run of {n} at ({r},{c}) leaves the output storage");
        // SAFETY: `ptr` is valid for `len` elements for as long as
        // `self` lives (a borrow held for `'a`, or the buffer of the
        // `OwnedTileWriter` around `self`), and `first ..= first + n −
        // 1` lies inside it by the checked assertion above. The run is
        // `n` consecutive elements of one row (`RowMajor`) or one
        // column (`ColMajor`) of this tile's `row_range × col_range`,
        // which the layout stores
        // contiguously, so it covers this tile's elements only; this
        // thread is their only accessor (it swapped the tile's flag
        // from `UNTOUCHED`, and tiles are disjoint). `MaybeUninit`
        // because an owned buffer holds no values until its tiles are
        // stored.
        let dst = unsafe { std::slice::from_raw_parts_mut(self.ptr.add(first).cast::<MaybeUninit<Acc>>(), n) };
        if beta == Acc::ZERO {
            for (d, s) in dst.iter_mut().zip(src) {
                d.write(alpha * s);
            }
        } else {
            for (d, s) in dst.iter_mut().zip(src) {
                // SAFETY: `β ≠ 0` is only admitted on a `filled`
                // writer — a caller's `&mut [Acc]`, initialised
                // throughout.
                let old = unsafe { d.assume_init_read() };
                d.write(alpha * s + beta * old);
            }
        }
    }
}

/// A tile of an output claimed for a store from the register block
/// ([`TileWriter::claim`]): the MAC loop writes its accumulators
/// straight into [`window`](Self::window) and applies `α` as it stores
/// the last k-chunk.
pub(crate) struct ClaimedTile<'w, Acc> {
    flag: &'w AtomicU8,
    tile_idx: usize,
    window: AccWindow<'w, Acc>,
}

impl<'w, Acc> ClaimedTile<'w, Acc> {
    /// The window over the tile's elements of C.
    pub(crate) fn window(&mut self) -> &mut AccWindow<'w, Acc> {
        &mut self.window
    }

    /// Marks the tile stored: what [`OwnedTileWriter::take`] waits for.
    ///
    /// # Panics
    ///
    /// Panics if the window is not full — some element of the tile was
    /// never written — leaving the tile claimed, not stored.
    pub(crate) fn store(self) {
        assert!(self.window.is_full(), "tile {} claimed but not every element written", self.tile_idx);
        self.flag.store(STORED, Ordering::Release);
    }
}

/// How far the first pass over a blank [`AccWindow`] has got. The pass
/// writes the window block by block down column bands, left to right —
/// the order `mac_loop_cached` walks a tile in — and a blank block is
/// handed out only where the pass stands, one at a time; it counts as
/// written when its holder [`stored`](Self::stored) it. So once the
/// last band reaches the right edge, finished blocks have covered
/// every element, and only then is anything read.
#[derive(Debug)]
pub(crate) struct Fill {
    rows: usize,
    cols: usize,
    /// The first row of the band the pass stands in not yet written.
    row: usize,
    /// The band's first column and width (0 until its first block).
    col: usize,
    width: usize,
    /// The block handed out and not yet stored.
    pending: (usize, usize),
    full: bool,
}

impl Fill {
    fn blank(rows: usize, cols: usize) -> Self {
        Self { rows, cols, row: 0, col: 0, width: 0, pending: (0, 0), full: false }
    }

    fn full(rows: usize, cols: usize) -> Self {
        Self { full: true, ..Self::blank(rows, cols) }
    }

    /// Admits the `h × w` block at `(r0, c0)` as the pass's next one.
    ///
    /// # Panics
    ///
    /// Panics unless it starts where the pass stands and, inside a
    /// band, is as wide as the band.
    fn admit(&mut self, r0: usize, c0: usize, h: usize, w: usize) {
        let next = r0 == self.row && c0 == self.col && (self.row == 0 || w == self.width);
        assert!(next, "block {h}x{w} at ({r0},{c0}) is not the next of a first pass at ({},{})", self.row, self.col);
        self.pending = (h, w);
    }

    /// Records that the block last admitted has had every element
    /// written. Only the block itself reaches a window's `Fill`, and
    /// calls this from `AccBlock::stored` — an `unsafe fn` whose caller
    /// vouches for those writes — or after writing the block in safe
    /// code (`AccBlock::finish`).
    pub(crate) fn stored(&mut self) {
        let (h, w) = self.pending;
        self.row += h;
        self.width = w;
        if self.row == self.rows {
            (self.row, self.col, self.width) = (0, self.col + w, 0);
            self.full = self.col == self.cols;
        }
    }
}

/// A `rows × cols` window of accumulators, rows `stride` elements
/// apart: a tile's sums where the MAC loop keeps them between k-chunks
/// — a `blk_m × blk_n` workspace tile, or the tile's own elements of C
/// (`TileWriter::claim`).
///
/// A window is *full* (every element holds a value) or *blank* (its
/// contents are not values the sums start from, or not values at all:
/// an unfilled output). The register blocks of a blank window start at
/// +0.0 and read nothing; the first pass over it fills it (`Fill`),
/// and only a full window's blocks load what they add to.
pub struct AccWindow<'a, T> {
    ptr: *mut T,
    rows: usize,
    cols: usize,
    stride: usize,
    fill: Fill,
    _marker: PhantomData<&'a mut [MaybeUninit<T>]>,
}

impl<'a, T> AccWindow<'a, T> {
    /// A full window over `accum`: the MAC loop adds into what it
    /// holds.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty, wider than `stride`, or its last
    /// row ends past `accum`.
    pub fn new(accum: &'a mut [T], rows: usize, cols: usize, stride: usize) -> Self {
        Self { fill: Fill::full(rows, cols), ..Self::blank(accum, rows, cols, stride) }
    }

    /// A blank window over `accum`: the MAC loop overwrites it, its
    /// sums starting at zero whatever `accum` held.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub fn blank(accum: &'a mut [T], rows: usize, cols: usize, stride: usize) -> Self {
        let end = rows.checked_sub(1).and_then(|r| r.checked_mul(stride)?.checked_add(cols));
        assert!(
            rows > 0 && cols > 0 && cols <= stride && end.is_some_and(|end| end <= accum.len()),
            "a {rows}x{cols} window at stride {stride} does not fit {} elements",
            accum.len()
        );
        // SAFETY: every row of the window lies inside `accum` (asserted
        // above), which `'a` borrows exclusively and holds values.
        unsafe { Self::raw(accum.as_mut_ptr(), rows, cols, stride) }
    }

    /// A blank window over raw storage.
    ///
    /// # Safety
    ///
    /// `rows, cols ≥ 1`, `cols ≤ stride`, and for every row `i < rows`
    /// the `cols` elements from `ptr + i·stride` must be valid for
    /// writes and accessed through nothing else for `'a`. They need not
    /// be initialised.
    pub(crate) unsafe fn raw(ptr: *mut T, rows: usize, cols: usize, stride: usize) -> Self {
        Self { ptr, rows, cols, stride, fill: Fill::blank(rows, cols), _marker: PhantomData }
    }

    /// Rows of the window.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the window.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether every element holds a value.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.fill.full
    }

    /// The `h × w` block at `(r0, c0)`, stored as `scale · acc` when
    /// `scale` is given: loaded when the window is full, blank and the
    /// next block of the first pass otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the block is empty or leaves the window, or — on a
    /// blank window — is not the pass's next block.
    pub(crate) fn block(&mut self, r0: usize, c0: usize, h: usize, w: usize, scale: Option<T>) -> AccBlock<'_, T> {
        let inside = |at: usize, len: usize, extent: usize| len > 0 && at.checked_add(len).is_some_and(|e| e <= extent);
        assert!(
            inside(r0, h, self.rows) && inside(c0, w, self.cols),
            "block {h}x{w} at ({r0},{c0}) leaves a {}x{} window",
            self.rows,
            self.cols
        );
        let fill = if self.fill.full {
            None
        } else {
            self.fill.admit(r0, c0, h, w);
            Some(&mut self.fill)
        };
        // SAFETY: rows `r0..r0 + h` and columns `c0..c0 + w` lie inside
        // the window (asserted above), whose rows are valid for writes
        // and exclusively ours by its constructor's contract, so the
        // block's rows are too, reachable only through the block while
        // it borrows the window. They hold values when the window is
        // full; a blank window hands out `fill`, which makes the block
        // write before it reads.
        unsafe { AccBlock::from_raw(self.ptr.add(r0 * self.stride + c0), h, w, self.stride, fill, scale) }
    }
}

/// A tile writer that *owns* its output buffer: where every `β = 0`
/// entry (`gemm`, `gemm_batched`, `gemm_grouped`, a service request)
/// gets its **C** from.
///
/// The buffer is reserved, not filled: each element's first write is
/// the store of the tile it belongs to, by the worker that computed
/// it, and nothing reads the buffer until [`take`](Self::take) turns
/// it into a `Matrix`.
///
/// # Safety protocol
///
/// Stores rely on the "every tile has exactly one owner" decomposition
/// invariant, exactly as on a borrowed [`TileWriter`]. `take` exposes
/// the buffer only after it has read *stored* from every tile's flag
/// with an acquire load — each pairs with the release store that ends
/// that tile's [`TileWriter::store_tile_ex`], so every element write
/// happens-before the buffer is handed out (the engines synchronise
/// more strongly anyway: the pool's join, or the service's `AcqRel`
/// tiles-done counter followed by the state CAS that elects one
/// finalizer). A store writes the whole of
/// `IterSpace::tile_extents(tile_idx)` — the writer computes it, the
/// caller cannot narrow it — those extents partition the matrix
/// (`streamk-core`'s `tile_extents_partition_the_output` test), and
/// both layouts store the matrix in exactly `m · n` elements, so
/// "every tile stored" is "every element initialised".
/// The `taken` flag makes a second `take` panic instead of exposing an
/// empty vector as full.
pub(crate) struct OwnedTileWriter<Acc> {
    /// The storage, kept at length 0 (its contents live in the spare
    /// capacity) until `take` sets the length. Reserved with a line's
    /// slack: the matrix starts `offset` elements in, on a line.
    buf: UnsafeCell<Vec<Acc>>,
    offset: usize,
    /// The window over `buf`'s capacity from `offset` on — stable
    /// because the buffer is never grown, only written in place and
    /// finally moved out.
    writer: TileWriter<'static, Acc>,
    taken: AtomicBool,
}

// SAFETY: `buf` is only touched in `take`, by the one thread that
// wins the `taken` swap, after every store is complete (see the
// type-level protocol); `writer` is `Send + Sync` by its own
// argument. `Acc: Send` is required because buffers move across
// threads.
unsafe impl<Acc: Send> Send for OwnedTileWriter<Acc> {}
unsafe impl<Acc: Send> Sync for OwnedTileWriter<Acc> {}

impl<Acc: Scalar> OwnedTileWriter<Acc> {
    /// An output buffer in `layout` order for the `m × n` matrix
    /// `space` tiles, starting on a cache line.
    pub(crate) fn new(layout: Layout, space: &IterSpace) -> Self {
        let len = space.shape().m * space.shape().n;
        let mut buf = Vec::<Acc>::with_capacity(len + slack::<Acc>());
        let offset = line_offset(buf.as_ptr()).unwrap_or(0);
        let writer = TileWriter::over(buf.as_mut_ptr().wrapping_add(offset), len, layout, space, false);
        Self { buf: UnsafeCell::new(buf), offset, writer, taken: AtomicBool::new(false) }
    }

    /// The window the launch's workers store through. It accepts
    /// `β = 0` stores only: the buffer holds nothing to blend with. A
    /// store after [`take`](Self::take) finds its tile's flag set and
    /// panics before it writes.
    pub(crate) fn writer(&self) -> &TileWriter<'_, Acc> {
        &self.writer
    }

    /// Releases the finished output. Callable exactly once, and only
    /// once every tile is stored.
    ///
    /// # Panics
    ///
    /// Panics on a second take, or if any tile has not been stored
    /// (the buffer is then dropped unread with the writer).
    pub(crate) fn take(&self) -> Matrix<Acc> {
        let prev = self.taken.swap(true, Ordering::AcqRel);
        assert!(!prev, "output buffer taken twice");
        for (tile_idx, flag) in self.writer.written.iter().enumerate() {
            assert_eq!(flag.load(Ordering::Acquire), STORED, "tile {tile_idx} not stored: output withheld");
        }
        let (w, offset) = (&self.writer, self.offset);
        // SAFETY: the swap above admits exactly one thread, and no
        // store is running or can start (every tile's flag is
        // `STORED`), so nothing else touches the cell. The slack in
        // front of the window, `offset ≤ slack` elements, is written
        // here. `set_len`: `offset + len` is at most the capacity
        // requested in `new`, and every element below it is
        // initialised — the slack just now; the window by the tile
        // stores, which the acquire loads above synchronised with and
        // which cover the storage exactly (see the type-level
        // protocol).
        let data = unsafe {
            let mut data = std::mem::take(&mut *self.buf.get());
            for i in 0..offset {
                data.as_mut_ptr().add(i).write(Acc::default());
            }
            data.set_len(offset + w.len);
            data
        };
        let storage = AlignedVec::from_parts(data, offset);
        Matrix::from_storage(w.space.shape().m, w.space.shape().n, w.layout, storage)
    }
}

/// Runs the tile epilogue over every output tile of `space`, each fed
/// from the same row-major `blk_m × blk_n` accumulator tile `accum`:
/// `C_tile = α·accum + β·C_tile`, clamped at the ragged edges. This is
/// the store every executor performs once per finished tile, callable
/// on its own so that tests can compare it with the per-element index
/// math and benches can time it without a MAC loop in front.
/// Scaffolding for `tests/output.rs` and the criterion `epilogue`
/// group, not part of the crate's API.
///
/// # Panics
///
/// Panics if `c` is not `space`'s `m × n` or `accum` is shorter than
/// `blk_m · blk_n`.
#[doc(hidden)]
pub fn store_every_tile<Acc: Scalar>(c: &mut Matrix<Acc>, space: &IterSpace, accum: &[Acc], alpha: Acc, beta: Acc) {
    let (shape, tile) = (space.shape(), space.tile());
    assert_eq!((c.rows(), c.cols()), (shape.m, shape.n), "C must be m x n");
    assert!(accum.len() >= tile.blk_m * tile.blk_n, "accumulator shorter than a tile");
    let layout = c.layout();
    let writer = TileWriter::new(c.as_mut_slice(), layout, space);
    for tile_idx in 0..space.tiles() {
        writer.store_tile_ex(tile_idx, tile.blk_n, accum, alpha, beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_types::{GemmShape, TileShape};

    const ALL_LAYOUTS: [Layout; 2] = [Layout::RowMajor, Layout::ColMajor];

    /// An `m × n` output in `blk_m × blk_n` tiles.
    fn space(m: usize, n: usize, blk_m: usize, blk_n: usize) -> IterSpace {
        IterSpace::new(GemmShape::new(m, n, 1), TileShape::new(blk_m, blk_n, 1))
    }

    #[test]
    fn writes_land_in_layout_order() {
        let mut buf = vec![0.0f64; 6];
        {
            // One 2 × 3 tile out of an accumulator four elements a row.
            let w = TileWriter::new(&mut buf, Layout::RowMajor, &space(2, 3, 2, 3));
            w.store_tile(0, 4, &[1.0, 2.0, 3.0, 0.0, 4.0, 5.0, 6.0, 0.0]);
        }
        assert_eq!(buf, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn ragged_corner_tile_leaves_rest_untouched() {
        let mut buf = vec![9.0f64; 9];
        {
            // 3 × 3 in 2 × 2 tiles: tile 3 is the single element (2, 2).
            let w = TileWriter::new(&mut buf, Layout::RowMajor, &space(3, 3, 2, 2));
            w.store_tile(3, 2, &[7.0, 0.0, 0.0, 0.0]);
        }
        assert_eq!(buf[8], 7.0);
        assert!(buf[..8].iter().all(|&v| v == 9.0));
    }

    /// Every layout's runs against the per-element index math, over
    /// ragged tiles.
    #[test]
    fn runs_match_the_element_index_in_every_layout() {
        let (rows, cols, blk_m, blk_n) = (13, 11, 5, 3);
        let space = space(rows, cols, blk_m, blk_n);
        // Nine elements a row: wider than the tile.
        let stride = 9;
        let accum: Vec<f64> = (0..blk_m * stride).map(|i| i as f64 + 0.5).collect();
        for layout in ALL_LAYOUTS {
            let mut got = Matrix::from_vec(rows, cols, layout, vec![-1.0f64; rows * cols]);
            let mut want = got.clone();
            let w = TileWriter::new(got.as_mut_slice(), layout, &space);
            for t in 0..space.tiles() {
                w.store_tile_ex(t, stride, &accum, -0.5, 2.0);
                let (row_range, col_range) = space.tile_extents(t);
                for (ti, r) in row_range.enumerate() {
                    for (tj, c) in col_range.clone().enumerate() {
                        want.set(r, c, -0.5 * accum[ti * stride + tj] + 2.0 * want.get(r, c));
                    }
                }
            }
            drop(w);
            assert_eq!(got, want, "{layout}");
        }
    }

    /// A transposed launch stores `Cᵀ` through the transposed space in
    /// the flipped layout, over the caller's own storage: each C
    /// element gets the bits the caller's orientation stores, through
    /// staged and strided column runs, blending or not — and a born
    /// output is the same storage.
    #[test]
    fn a_transposed_store_writes_the_callers_bits() {
        // Tiles of 16 × 20, ragged on both edges of a 21 × 37 C: the
        // column runs of C (16 rows, then 5) and of Cᵀ (20 and 17 rows)
        // take a staged run of 16 rows, a strided rest, or both.
        let (rows, cols, blk_m, blk_n) = (21, 37, 16, 20);
        let space = space(rows, cols, blk_m, blk_n);
        let flipped = space.transposed();
        let accum: Vec<f64> = (0..blk_m * blk_n).map(|i| i as f64 * 0.75 - 40.0).collect();
        // The same tile seen from the other side: blk_n rows of blk_m.
        let accum_t: Vec<f64> = (0..blk_n * blk_m).map(|i| accum[(i % blk_m) * blk_n + i / blk_m]).collect();
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            for (alpha, beta) in [(1.0, 0.0), (-0.5, 2.0)] {
                let start = Matrix::from_fn(rows, cols, layout, |r, c| (r * 31 + c) as f64);
                let (mut want, mut got) = (start.clone(), start);
                let w = TileWriter::new(want.as_mut_slice(), layout, &space);
                let t = TileWriter::new(got.as_mut_slice(), layout.flipped(), &flipped);
                for s in 0..space.tiles() {
                    w.store_tile_ex(s, blk_n, &accum, alpha, beta);
                    t.store_tile_ex(s, blk_m, &accum_t, alpha, beta);
                }
                drop((w, t));
                assert_eq!(got, want, "{layout} α = {alpha} β = {beta}");
            }
            let born = OwnedTileWriter::<f64>::new(layout.flipped(), &flipped);
            for s in 0..space.tiles() {
                born.writer().store_tile(s, blk_m, &accum_t);
            }
            let ct = born.take();
            assert_eq!((ct.rows(), ct.cols(), ct.layout()), (cols, rows, layout.flipped()));
            let c = Matrix::from_storage(rows, cols, layout, ct.into_storage());
            let mut want = Matrix::from_fn(rows, cols, layout, |_, _| 0.0);
            let w = TileWriter::new(want.as_mut_slice(), layout, &space);
            for s in 0..space.tiles() {
                w.store_tile(s, blk_n, &accum);
            }
            drop(w);
            assert_eq!(c, want, "born {layout}");
        }
    }

    #[test]
    #[should_panic(expected = "stored twice")]
    fn double_store_panics() {
        let mut buf = vec![0.0f64; 4];
        let w = TileWriter::new(&mut buf, Layout::RowMajor, &space(2, 2, 2, 2));
        w.store_tile(0, 2, &[1.0; 4]);
        w.store_tile(0, 2, &[2.0; 4]);
    }

    #[test]
    #[should_panic(expected = "columns wide but blk_n is 2")]
    fn tile_wider_than_its_accumulator_row_is_refused() {
        let mut buf = vec![0.0f64; 9];
        let w = TileWriter::new(&mut buf, Layout::RowMajor, &space(3, 3, 3, 3));
        // Column 2 of row 0 would silently read row 1's first element.
        w.store_tile(0, 2, &[1.0; 9]);
    }

    #[test]
    #[should_panic(expected = "accumulator holds 5 elements, the tile reads 6")]
    fn short_accumulator_is_refused() {
        let mut buf = vec![0.0f64; 9];
        let w = TileWriter::new(&mut buf, Layout::RowMajor, &space(3, 3, 2, 2));
        w.store_tile(0, 4, &[1.0; 5]);
    }

    #[test]
    #[should_panic(expected = "holds no values yet")]
    fn blending_into_an_unfilled_buffer_is_refused() {
        let w = OwnedTileWriter::<f64>::new(Layout::RowMajor, &space(2, 2, 2, 2));
        w.writer().store_tile_ex(0, 2, &[1.0; 4], 1.0, 1.0);
    }

    /// The one place uninitialised capacity becomes a `Vec`: an
    /// unfilled buffer written tile by tile through raw pointers, then
    /// read back whole.
    #[test]
    fn fresh_buffer_is_born_from_its_tiles() {
        // 5 × 7 in 2 × 4 tiles: a 3 × 2 grid, ragged on both edges.
        let (rows, cols, blk_n) = (5, 7, 4);
        let space = space(rows, cols, 2, blk_n);
        for layout in ALL_LAYOUTS {
            let w = OwnedTileWriter::<f64>::new(layout, &space);
            for t in 0..space.tiles() {
                let (row_range, col_range) = space.tile_extents(t);
                let accum: Vec<f64> = (0..2 * blk_n)
                    .map(|i| ((row_range.start + i / blk_n) * 100 + col_range.start + i % blk_n) as f64)
                    .collect();
                w.writer().store_tile(t, blk_n, &accum);
            }
            let c = w.take();
            assert_eq!(c, Matrix::from_fn(rows, cols, layout, |r, c| (r * 100 + c) as f64), "{layout}");
        }
    }

    #[test]
    #[should_panic(expected = "tile 2 not stored")]
    fn take_is_refused_while_a_tile_is_missing() {
        let w = OwnedTileWriter::<f64>::new(Layout::RowMajor, &space(4, 4, 2, 2));
        for t in [0, 1, 3] {
            w.writer().store_tile(t, 2, &[t as f64; 4]);
        }
        let _ = w.take();
    }

    #[test]
    fn owned_writer_round_trips_concurrent_stores() {
        let w = OwnedTileWriter::<f64>::new(Layout::RowMajor, &space(4, 4, 2, 2));
        std::thread::scope(|scope| {
            for half in 0..2 {
                let w = &w;
                scope.spawn(move || {
                    for t in [half, half + 2] {
                        w.writer().store_tile(t, 2, &[t as f64; 4]);
                    }
                });
            }
        });
        let c = w.take();
        assert_eq!(c, Matrix::from_fn(4, 4, Layout::RowMajor, |r, c| (r / 2 * 2 + c / 2) as f64));
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn owned_writer_double_take_panics() {
        let w = OwnedTileWriter::<f64>::new(Layout::RowMajor, &space(2, 2, 2, 2));
        w.writer().store_tile(0, 2, &[1.0; 4]);
        let _ = w.take();
        let _ = w.take();
    }

    #[test]
    #[should_panic(expected = "stored twice")]
    fn store_after_take_panics() {
        let w = OwnedTileWriter::<f64>::new(Layout::RowMajor, &space(2, 2, 2, 2));
        w.writer().store_tile(0, 2, &[1.0; 4]);
        let _ = w.take();
        w.writer().store_tile(0, 2, &[2.0; 4]);
    }

    /// The register-block store: two threads compute disjoint tiles of
    /// one unfilled buffer straight into claimed windows over it —
    /// ragged edge tiles among them — each in two k-passes (the first
    /// writes the blank window, the second loads it and stores
    /// `α·acc`), and the buffer is then read back whole. Under Miri a
    /// kernel that read an element before its first write, or wrote
    /// outside its tile, is an error here.
    #[test]
    fn claimed_windows_compute_disjoint_tiles_of_an_unfilled_buffer() {
        use crate::macloop::mac_loop_view;
        use crate::microkernel::{mac_loop_cached, PanelSpan};
        use streamk_matrix::{pack_a_into, pack_b_into};
        // A 6 × 7 output in 4 × 4 tiles, ragged below and to the right;
        // three iterations of two k-steps.
        let space = IterSpace::new(GemmShape::new(6, 7, 6), TileShape::new(4, 4, 2));
        let a = Matrix::<f64>::random::<f64>(6, 6, Layout::RowMajor, 1);
        let b = Matrix::<f64>::random::<f64>(6, 7, Layout::RowMajor, 2);
        let (alpha, ks, ipt) = (1.5, 0..6, space.iters_per_tile());
        let out = OwnedTileWriter::<f64>::new(Layout::RowMajor, &space);
        std::thread::scope(|scope| {
            for first in 0..2 {
                let (out, space, a, b, ks) = (&out, &space, &a, &b, ks.clone());
                scope.spawn(move || {
                    for t in [first, first + 2] {
                        let (rows, cols) = space.tile_extents(t);
                        let (mut ap, mut bp) = (Vec::new(), Vec::new());
                        pack_a_into(&a.view(), rows, ks.clone(), 4, &mut ap);
                        pack_b_into(&b.view(), ks.clone(), cols, 4, &mut bp);
                        let mut tile = out.writer().claim(t);
                        for (lo, hi, scale) in [(0, 1, None), (1, ipt, Some(alpha))] {
                            let (a, b) = (PanelSpan::packed(&ap, 4, ks.clone()), PanelSpan::packed(&bp, 4, ks.clone()));
                            mac_loop_cached::<f64, f64, 4, 4>(None, a, b, space, t, lo, hi, tile.window(), scale);
                        }
                        tile.store();
                    }
                });
            }
        });
        let c = out.take();
        let mut want = Matrix::from_fn(6, 7, Layout::RowMajor, |_, _| 0.0);
        for t in 0..space.tiles() {
            let mut acc = vec![0.0; 16];
            mac_loop_view(&a.view(), &b.view(), &space, t, 0, ipt, &mut acc);
            let (rows, cols) = space.tile_extents(t);
            for (i, r) in rows.enumerate() {
                for (j, col) in cols.clone().enumerate() {
                    want.set(r, col, alpha * acc[i * 4 + j]);
                }
            }
        }
        assert_eq!(c, want);
    }

    /// A blank window hands out its blocks only in the order of its
    /// first pass, down column bands left to right, one band width at a
    /// time: anything else could leave an element unwritten when it
    /// says full.
    #[test]
    fn a_blank_window_admits_only_the_next_block_of_its_pass() {
        // Whether the window is full after `blocks`; `None` if one is refused.
        let pass = |blocks: &[(usize, usize, usize, usize)]| {
            let blocks = blocks.to_vec();
            std::panic::catch_unwind(move || {
                let mut buf = vec![0.0f64; 5 * 7];
                let mut w = AccWindow::blank(&mut buf, 5, 6, 7);
                for (r0, c0, h, w_) in blocks {
                    w.block(r0, c0, h, w_, None).finish(&[[1.0; 4]; 4]);
                }
                w.is_full()
            })
            .ok()
        };
        // Two bands of 4 then 2 columns, each 4 rows then 1.
        assert_eq!(pass(&[(0, 0, 4, 4), (4, 0, 1, 4), (0, 4, 4, 2), (4, 4, 1, 2)]), Some(true));
        assert_eq!(pass(&[(0, 0, 4, 4), (4, 0, 1, 4), (0, 4, 4, 2)]), Some(false), "a band short");
        assert_eq!(pass(&[(0, 0, 4, 4), (0, 4, 4, 2)]), None, "a band left before its last row");
        assert_eq!(pass(&[(0, 0, 4, 4), (4, 0, 1, 2)]), None, "a band narrowed midway");
        assert_eq!(pass(&[(4, 0, 1, 4)]), None, "a pass that does not start at the corner");
        assert_eq!(pass(&[(0, 0, 4, 4), (4, 0, 2, 4)]), None, "a block leaving the window");
    }

    #[test]
    #[should_panic(expected = "tile 0 claimed but not every element written")]
    fn a_claim_is_not_stored_before_its_window_is_full() {
        let w = OwnedTileWriter::<f64>::new(Layout::RowMajor, &space(2, 2, 2, 2));
        w.writer().claim(0).store();
    }

    #[test]
    #[should_panic(expected = "only a row-major output")]
    fn a_column_major_output_is_not_claimed() {
        let w = OwnedTileWriter::<f64>::new(Layout::ColMajor, &space(2, 2, 2, 2));
        let _ = w.writer().claim(0);
    }

    #[test]
    fn concurrent_disjoint_tiles() {
        let mut buf = vec![0.0f64; 16];
        {
            let w = TileWriter::new(&mut buf, Layout::RowMajor, &space(4, 4, 2, 2));
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let w = &w;
                    scope.spawn(move || w.store_tile(t, 2, &[t as f64; 4]));
                }
            });
        }
        assert_eq!(buf[0], 0.0);
        assert_eq!(buf[2], 1.0);
        assert_eq!(buf[8], 2.0);
        assert_eq!(buf[10], 3.0);
    }
}
