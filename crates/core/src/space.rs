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
    /// Schedule-tile → output-tile coordinates, present for non
    /// row-major orders (shared so clones stay cheap).
    perm: Option<Arc<[(usize, usize)]>>,
}

impl IterSpace {
    /// Builds the iteration space for `shape` blocked by `tile`, in
    /// the default row-major tile order.
    #[must_use]
    pub fn new(shape: GemmShape, tile: TileShape) -> Self {
        Self::with_order(shape, tile, TileOrder::RowMajor)
    }

    /// Builds the iteration space with a cache-aware tile traversal
    /// order (§7 future work): schedule tile `s` maps to the `s`-th
    /// coordinate of the order's permutation. Iteration ranges,
    /// ownership and fixup structure are all unaffected — only the
    /// output coordinates a schedule tile lands on change.
    #[must_use]
    pub fn with_order(shape: GemmShape, tile: TileShape, order: TileOrder) -> Self {
        let tiles_m = tile.tiles_m(shape);
        let tiles_n = tile.tiles_n(shape);
        let perm = match order {
            TileOrder::RowMajor => None,
            other => Some(shared_permutation(other, tiles_m, tiles_n)),
        };
        Self {
            shape,
            tile,
            tiles_m,
            tiles_n,
            iters_per_tile: tile.iters_per_tile(shape),
            order,
            perm,
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
        match &self.perm {
            None => (tile_idx / self.tiles_n, tile_idx % self.tiles_n),
            Some(perm) => perm[tile_idx],
        }
    }

    /// Inverse of [`tile_coords`](Self::tile_coords) for the default
    /// row-major order.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is out of range, or if a
    /// non-row-major order is in effect (the inverse is not needed on
    /// that path and keeping it row-major-only avoids a reverse map).
    #[inline]
    #[must_use]
    pub fn tile_index(&self, tile_m: usize, tile_n: usize) -> usize {
        assert!(self.perm.is_none(), "tile_index requires the row-major order");
        assert!(tile_m < self.tiles_m && tile_n < self.tiles_n, "tile coords ({tile_m},{tile_n}) out of range");
        tile_m * self.tiles_n + tile_n
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
    /// every traversal order, ragged edges included.
    #[test]
    fn tile_extents_partition_the_output() {
        for (m, n, tile) in [(300, 200, TileShape::new(128, 128, 16)), (13, 11, TileShape::new(5, 3, 1)), (7, 64, TileShape::new(8, 16, 4))] {
            for order in [TileOrder::RowMajor, TileOrder::ColumnGrouped(2), TileOrder::Morton] {
                let s = IterSpace::with_order(GemmShape::new(m, n, 32), tile, order);
                let mut covered = vec![0u8; m * n];
                for t in 0..s.tiles() {
                    let (rows, cols) = s.tile_extents(t);
                    assert!(!rows.is_empty() && !cols.is_empty(), "{order:?}: tile {t} is empty");
                    for r in rows {
                        for c in cols.clone() {
                            covered[r * n + c] += 1;
                        }
                    }
                }
                assert!(covered.iter().all(|&hits| hits == 1), "{order:?} {m}x{n} {tile:?}");
            }
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
