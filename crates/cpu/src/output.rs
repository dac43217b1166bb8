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
//! Every engine (single launch, batched, grouped, service) stores
//! through one routine, `TileWriter::store_runs`. It cuts the tile's
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
//! module holds the raw-pointer window into **C** and its `unsafe`
//! (the crate's other exemptions from `deny(unsafe_code)` — `arena`,
//! `pool`, `simd` — are listed in `lib.rs`; none of them touches an
//! output). The one-writer-per-tile invariant is asserted at run time
//! in every build: a per-tile flag is swapped on entry, and a second
//! store to the same tile panics before it writes.
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
