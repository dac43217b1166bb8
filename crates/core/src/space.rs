//! The linearized MAC-iteration space.
//!
//! Stream-K's unit of workload quantization is one MAC-loop iteration.
//! The aggregate iteration space has extent
//! `total = ⌈m/BLK_M⌉ · ⌈n/BLK_N⌉ · ⌈k/BLK_K⌉` and is ordered
//! m → n → k: output tiles in row-major order (the m-tile index
//! outermost), with a tile's `⌈k/BLK_K⌉` accumulation iterations
//! contiguous and innermost (paper §4).
//!
//! Note: Algorithm 3 of the paper computes tile coordinates as
//! `mm = BLK_M · (tile_idx / ⌈m/BLK_M⌉)` and
//! `nn = BLK_N · (tile_idx mod ⌈m/BLK_M⌉)`, dividing by the *m*-tile
//! count in both places — a typo (it would leave most tiles unaddressed
//! whenever the tile grid is not square). We use the standard
//! row-major mapping over the `tiles_m × tiles_n` grid.

use crate::order::{shared_permutation, TileOrder};
use std::sync::Arc;
use streamk_types::{GemmShape, TileShape};

/// The linearized iteration space of one (shape, tile) pair, with the
/// index arithmetic every decomposition and executor relies on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterSpace {
    shape: GemmShape,
    tile: TileShape,
    tiles_m: usize,
    tiles_n: usize,
    iters_per_tile: usize,
    order: TileOrder,
    /// The caller chose `order` ([`with_order`](Self::with_order));
    /// otherwise a launch may pick one ([`launch_order`](Self::launch_order)).
    pinned: bool,
    /// Schedule-tile → output-tile coordinates, present for the one
    /// order without closed-form coordinates, Morton (shared so clones
    /// stay cheap).
    perm: Option<Arc<[(usize, usize)]>>,
    /// This is the transpose of the space `order` and `perm` were
    /// built for: schedule tile `s` lands on the swap of that space's
    /// tile `s` ([`transposed`](Self::transposed)).
    transposed: bool,
}

impl IterSpace {
    /// Builds the iteration space for `shape` blocked by `tile`, in
    /// the default row-major tile order, which a launch may relabel
    /// ([`launch_order`](Self::launch_order)).
    #[must_use]
    pub fn new(shape: GemmShape, tile: TileShape) -> Self {
        Self { pinned: false, ..Self::with_order(shape, tile, TileOrder::RowMajor) }
    }

    /// Builds the iteration space with a cache-aware tile traversal
    /// order (§7 future work): schedule tile `s` maps to the `s`-th
    /// coordinate of the order's permutation. Iteration ranges,
    /// ownership and fixup structure are all unaffected — only the
    /// output coordinates a schedule tile lands on change. The order is
    /// pinned: a launch walks it as given, row-major included.
    ///
    /// # Panics
    ///
    /// Panics on a zero group width.
    #[must_use]
    pub fn with_order(shape: GemmShape, tile: TileShape, order: TileOrder) -> Self {
        assert!(order != TileOrder::ColumnGrouped(0), "group width must be at least 1");
        let tiles_m = tile.tiles_m(shape);
        let tiles_n = tile.tiles_n(shape);
        let perm = (order == TileOrder::Morton).then(|| shared_permutation(order, tiles_m, tiles_n));
        Self {
            shape,
            tile,
            tiles_m,
            tiles_n,
            iters_per_tile: tile.iters_per_tile(shape),
            order,
            pinned: true,
            perm,
            transposed: false,
        }
    }

    /// The space a launch of this one walks. A pinned order is kept, and
    /// so is the order of a grid that splits a tile (`splits_a_tile`):
    /// relabelling its tiles would move its seams. Otherwise the same
    /// tiles in [`TileOrder::band`]`(rows_pack, columns_pack)`, where
    /// `rows_pack` and `columns_pack` say whether the operand whose
    /// panels run along C's tile rows, and the one whose panels run
    /// along its columns, is packed — C being the grid the order walks,
    /// so a launch asks before it [transposes](Self::transposed). Each
    /// tile keeps its k-ranges and its one CTA, so the output keeps its
    /// bits. Allocates nothing: the band orders have closed-form
    /// coordinates.
    #[must_use]
    pub fn launch_order(&self, rows_pack: bool, columns_pack: bool, splits_a_tile: bool) -> Self {
        let order = TileOrder::band(rows_pack, columns_pack);
        if self.pinned || splits_a_tile || order == self.order {
            return self.clone();
        }
        Self { order, perm: None, ..self.clone() }
    }

    /// The space of the transposed product `Cᵀ = Bᵀ·Aᵀ`: shape
    /// `(n, m, k)`, tile `(blk_n, blk_m, blk_k)`, and schedule tile `s`
    /// on the transpose of this space's tile `s`, in every traversal
    /// order. Iteration ranges, tile numbering and so every CTA range,
    /// fixup and seam of a decomposition over this space carry over
    /// unchanged; only which operand a tile reads as its left one
    /// does. Allocates nothing (the permutation is shared), and
    /// transposing twice gives this space back.
    #[must_use]
    pub fn transposed(&self) -> Self {
        let (shape, tile) = (self.shape, self.tile);
        Self {
            shape: GemmShape::new(shape.n, shape.m, shape.k),
            tile: TileShape::new(tile.blk_n, tile.blk_m, tile.blk_k),
            tiles_m: self.tiles_n,
            tiles_n: self.tiles_m,
            iters_per_tile: self.iters_per_tile,
            order: self.order,
            pinned: self.pinned,
            perm: self.perm.clone(),
            transposed: !self.transposed,
        }
    }

    /// The tile traversal order in effect.
    #[must_use]
    pub fn order(&self) -> TileOrder {
        self.order
    }

    /// The GEMM problem shape.
    #[must_use]
    pub fn shape(&self) -> GemmShape {
        self.shape
    }

    /// The blocking factors.
    #[must_use]
    pub fn tile(&self) -> TileShape {
        self.tile
    }

    /// Output tiles along m.
    #[must_use]
    pub fn tiles_m(&self) -> usize {
        self.tiles_m
    }

    /// Output tiles along n.
    #[must_use]
    pub fn tiles_n(&self) -> usize {
        self.tiles_n
    }

    /// Total output tiles `t`.
    #[must_use]
    pub fn tiles(&self) -> usize {
        self.tiles_m * self.tiles_n
    }

    /// MAC-loop iterations per output tile `⌈k/BLK_K⌉`.
    #[must_use]
    pub fn iters_per_tile(&self) -> usize {
        self.iters_per_tile
    }

    /// Total MAC-loop iterations `t · iters_per_tile`.
    #[must_use]
    pub fn total_iters(&self) -> usize {
        self.tiles() * self.iters_per_tile
    }

    /// The output tile containing linear iteration `iter`.
    ///
    /// # Panics
    ///
    /// Panics if `iter` is out of range.
    #[inline]
    #[must_use]
    pub fn tile_of(&self, iter: usize) -> usize {
        assert!(iter < self.total_iters(), "iteration {iter} out of range");
        iter / self.iters_per_tile
    }

    /// The first linear iteration of `tile_idx`.
    #[inline]
    #[must_use]
    pub fn tile_first_iter(&self, tile_idx: usize) -> usize {
        tile_idx * self.iters_per_tile
    }

    /// Output-tile coordinates `(tile_m, tile_n)` of schedule tile
    /// `tile_idx`, through the traversal order in effect (row-major
    /// by default).
    ///
    /// # Panics
    ///
    /// Panics if `tile_idx` is out of range.
    #[inline]
    #[must_use]
    pub fn tile_coords(&self, tile_idx: usize) -> (usize, usize) {
        assert!(tile_idx < self.tiles(), "tile {tile_idx} out of range");
        // The order walks the untransposed grid.
        let (down, across) = if self.transposed { (self.tiles_n, self.tiles_m) } else { (self.tiles_m, self.tiles_n) };
        let (tm, tn) = match &self.perm {
            None => self.order.coords(tile_idx, down, across).expect("an order without a table is closed-form"),
            Some(perm) => perm[tile_idx],
        };
        if self.transposed { (tn, tm) } else { (tm, tn) }
    }

    /// Inverse of [`tile_coords`](Self::tile_coords) for the default
    /// row-major order (of this space, or of the one it transposes).
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is out of range, or if a
    /// non-row-major order is in effect (the inverse is not needed on
    /// that path and keeping it row-major-only avoids a reverse map).
    #[inline]
    #[must_use]
    pub fn tile_index(&self, tile_m: usize, tile_n: usize) -> usize {
        assert!(self.order == TileOrder::RowMajor, "tile_index requires the row-major order");
        assert!(tile_m < self.tiles_m && tile_n < self.tiles_n, "tile coords ({tile_m},{tile_n}) out of range");
        if self.transposed { tile_n * self.tiles_m + tile_m } else { tile_m * self.tiles_n + tile_n }
    }

    /// The element extents covered by `tile_idx` in the output matrix:
    /// `(row_begin..row_end, col_begin..col_end)`. Edge tiles are
    /// clamped to the problem extents.
    #[must_use]
    pub fn tile_extents(&self, tile_idx: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let (tm, tn) = self.tile_coords(tile_idx);
        let r0 = tm * self.tile.blk_m;
        let c0 = tn * self.tile.blk_n;
        (r0..(r0 + self.tile.blk_m).min(self.shape.m), c0..(c0 + self.tile.blk_n).min(self.shape.n))
    }

    /// The k-axis extents of local MAC-loop iteration `local_iter`
    /// within any tile: `k_begin..k_end`, clamped to `k`.
    ///
    /// # Panics
    ///
    /// Panics if `local_iter ≥ iters_per_tile`.
    #[must_use]
    pub fn k_extents(&self, local_iter: usize) -> std::ops::Range<usize> {
        assert!(local_iter < self.iters_per_tile, "local iteration {local_iter} out of range");
        let k0 = local_iter * self.tile.blk_k;
        k0..(k0 + self.tile.blk_k).min(self.shape.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> IterSpace {
        // 384x384x128 with 128x128x4 blocking: 3x3 tiles, 32 iters each
        // (the paper's Figure 2b example).
        IterSpace::new(GemmShape::new(384, 384, 128), TileShape::new(128, 128, 4))
    }

    #[test]
    fn figure2b_extents() {
        let s = space();
        assert_eq!(s.tiles_m(), 3);
        assert_eq!(s.tiles_n(), 3);
        assert_eq!(s.tiles(), 9);
        assert_eq!(s.iters_per_tile(), 32);
        assert_eq!(s.total_iters(), 288);
    }

    #[test]
    fn tile_of_boundaries() {
        let s = space();
        assert_eq!(s.tile_of(0), 0);
        assert_eq!(s.tile_of(31), 0);
        assert_eq!(s.tile_of(32), 1);
        assert_eq!(s.tile_of(287), 8);
    }

    #[test]
    fn coords_round_trip() {
        let s = space();
        for t in 0..s.tiles() {
            let (tm, tn) = s.tile_coords(t);
            assert_eq!(s.tile_index(tm, tn), t);
        }
    }

    #[test]
    fn row_major_tile_order() {
        let s = space();
        // Tile 1 is the same tile-row, next tile-column.
        assert_eq!(s.tile_coords(1), (0, 1));
        assert_eq!(s.tile_coords(3), (1, 0));
    }

    #[test]
    fn tile_extents_interior_and_edge() {
        let s = IterSpace::new(GemmShape::new(300, 200, 50), TileShape::new(128, 128, 16));
        // 3x2 tile grid.
        assert_eq!(s.tiles_m(), 3);
        assert_eq!(s.tiles_n(), 2);
        let (rows, cols) = s.tile_extents(0);
        assert_eq!((rows, cols), (0..128, 0..128));
        // Bottom-right tile is clamped.
        let (rows, cols) = s.tile_extents(5);
        assert_eq!((rows, cols), (256..300, 128..200));
    }

    /// The executors' unfilled outputs rest on this: the tiles'
    /// extents cover every element of the output exactly once, in
    /// every traversal order, ragged edges included — and over the
    /// transposed space a swapped launch stores by.
    #[test]
    fn tile_extents_partition_the_output() {
        for (m, n, tile) in [(300, 200, TileShape::new(128, 128, 16)), (13, 11, TileShape::new(5, 3, 1)), (7, 64, TileShape::new(8, 16, 4))] {
            for order in [TileOrder::RowMajor, TileOrder::ColumnGrouped(2), TileOrder::Morton] {
                let space = IterSpace::with_order(GemmShape::new(m, n, 32), tile, order);
                for s in [space.clone(), space.transposed()] {
                    let (rows_of, cols_of) = (s.shape().m, s.shape().n);
                    let mut covered = vec![0u8; rows_of * cols_of];
                    for t in 0..s.tiles() {
                        let (rows, cols) = s.tile_extents(t);
                        assert!(!rows.is_empty() && !cols.is_empty(), "{order:?}: tile {t} is empty");
                        for r in rows {
                            for c in cols.clone() {
                                covered[r * cols_of + c] += 1;
                            }
                        }
                    }
                    assert!(covered.iter().all(|&hits| hits == 1), "{order:?} {rows_of}x{cols_of} {:?}", s.tile());
                }
            }
        }
    }

    /// Every order of the transposition proptest below, plus the
    /// ragged grids and non-square tiles it draws from.
    fn orders() -> impl Iterator<Item = TileOrder> {
        [TileOrder::RowMajor, TileOrder::Morton].into_iter().chain((1..6).map(TileOrder::ColumnGrouped))
    }

    /// A swapped launch runs the caller's decomposition over
    /// `transposed()`: schedule tile `s` must be the caller's tile `s`
    /// seen from the other side, in every order, ragged or not.
    #[test]
    fn transposed_tiles_are_the_swap_of_the_callers() {
        for (m, n, tile) in [
            (300, 200, TileShape::new(128, 64, 16)),
            (13, 11, TileShape::new(5, 3, 2)),
            (7, 64, TileShape::new(8, 16, 4)),
            (64, 7, TileShape::new(16, 8, 4)),
            (40, 40, TileShape::new(8, 8, 8)),
        ] {
            for order in orders() {
                let s = IterSpace::with_order(GemmShape::new(m, n, 37), tile, order);
                let t = s.transposed();
                assert_eq!(t.shape(), GemmShape::new(n, m, 37));
                assert_eq!(t.tile(), TileShape::new(tile.blk_n, tile.blk_m, tile.blk_k));
                assert_eq!((t.tiles_m(), t.tiles_n()), (s.tiles_n(), s.tiles_m()));
                assert_eq!((t.tiles(), t.iters_per_tile(), t.total_iters()), (s.tiles(), s.iters_per_tile(), s.total_iters()));
                assert_eq!(t.order(), order);
                for idx in 0..s.tiles() {
                    let ((rows, cols), (t_rows, t_cols)) = (s.tile_extents(idx), t.tile_extents(idx));
                    assert_eq!((t_rows, t_cols), (cols, rows), "{order:?} {m}x{n} tile {idx}");
                    let (tm, tn) = s.tile_coords(idx);
                    assert_eq!(t.tile_coords(idx), (tn, tm));
                }
                for local in 0..s.iters_per_tile() {
                    assert_eq!(t.k_extents(local), s.k_extents(local));
                }
                assert_eq!(t.transposed(), s, "{order:?}: transposing twice");
            }
        }
    }

    /// `transposed()` shares Morton's permutation instead of building
    /// one, and the closed-form orders have none to share: no
    /// allocation either way.
    #[test]
    fn transposing_shares_the_permutation() {
        for order in orders().filter(|&o| o != TileOrder::RowMajor) {
            let s = IterSpace::with_order(GemmShape::new(40, 72, 8), TileShape::new(8, 16, 4), order);
            let t = s.transposed();
            match (&s.perm, &t.perm) {
                (Some(a), Some(b)) => assert!(order == TileOrder::Morton && Arc::ptr_eq(a, b), "{order:?}"),
                (None, None) => assert!(order != TileOrder::Morton),
                _ => panic!("{order:?}: transposing changed the table"),
            }
        }
        assert!(space().transposed().perm.is_none());
    }

    /// The launch's relabelling: column groups only for an open order
    /// over an unsplit grid whose column panels alone pack, built
    /// without a table; every other case keeps the space as it is.
    #[test]
    fn a_launch_bands_only_an_open_unsplit_grid() {
        let (shape, tile) = (GemmShape::new(1024, 1024, 1024), TileShape::new(64, 64, 16));
        let open = IterSpace::new(shape, tile);
        let banded = open.launch_order(false, true, false);
        assert_eq!(banded.order(), TileOrder::ColumnGrouped(crate::order::BAND_GROUP));
        assert!(banded.perm.is_none());
        assert_eq!((banded.tiles(), banded.iters_per_tile()), (open.tiles(), open.iters_per_tile()));
        assert_eq!(open.launch_order(false, true, true), open, "a split grid");
        assert_eq!(open.launch_order(true, true, false), open, "both operands pack");
        for order in orders() {
            let pinned = IterSpace::with_order(shape, tile, order);
            assert_eq!(pinned.launch_order(false, true, false), pinned, "{order:?} is pinned");
        }
        assert_eq!(open.transposed().launch_order(false, true, false).order(), banded.order());
    }

    #[test]
    fn transposed_row_major_coords_round_trip() {
        let t = IterSpace::new(GemmShape::new(300, 200, 50), TileShape::new(128, 64, 16)).transposed();
        for idx in 0..t.tiles() {
            let (tm, tn) = t.tile_coords(idx);
            assert_eq!(t.tile_index(tm, tn), idx);
        }
    }

    #[test]
    fn k_extents_clamped() {
        let s = IterSpace::new(GemmShape::new(300, 200, 50), TileShape::new(128, 128, 16));
        assert_eq!(s.iters_per_tile(), 4);
        assert_eq!(s.k_extents(0), 0..16);
        assert_eq!(s.k_extents(3), 48..50);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tile_of_out_of_range_panics() {
        let s = space();
        let _ = s.tile_of(288);
    }
}
