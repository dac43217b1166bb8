//! Matrix memory layouts.
//!
//! Besides the classic row/column-major orders this module defines the
//! *native block-major* storage family used by the CPU executor's
//! zero-pack fast path: the matrix is tiled into `FRAG × FRAG`
//! fragments (one 256-byte f32 / 512-byte f64 block, a small whole
//! number of cache lines), each fragment stores its elements
//! column-major, and fragments are laid out row-panel-major
//! ([`Layout::BlockMajor`]) or along a dense z-order curve
//! ([`Layout::BlockMajorZ`]).
//!
//! The row-panel variant is chosen so that each `FRAG`-row panel of an
//! `m × k` matrix is **bit-identical to a BLIS packed-A panel** with
//! `MR = FRAG` over the padded k-extent: within panel `p` the element
//! `(row, col)` sits at `col · FRAG + row % FRAG`, i.e. exactly
//! `pack_a_into`'s `panel[k · MR + i]`. Kernels with `MR == FRAG` can
//! therefore stream block-major operands directly with zero per-launch
//! packing.

use std::fmt;

/// Fragment edge length of the block-major layouts: fragments are
/// `FRAG × FRAG` elements with a column-major interior. 8 matches the
/// register block's `MR` in `streamk-cpu`, which is what makes the
/// zero-pack bypass possible.
pub const FRAG: usize = 8;

/// The storage order of a dense matrix.
///
/// The paper's kernels support transposed/non-transposed operand
/// combinations (e.g. `hgemm_tt`); in this reproduction layout is a
/// property of the matrix container, and the GEMM implementations are
/// layout-generic through the index math below.
///
/// The block-major variants pad both dimensions up to a multiple of
/// [`FRAG`]; use [`Layout::storage_len`] (not `rows * cols`) to size
/// backing storage. Padding elements hold zeros and are never read by
/// the index math.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// Row-major ("C order"): element `(r, c)` lives at `r · cols + c`.
    #[default]
    RowMajor,
    /// Column-major ("Fortran order"): element `(r, c)` lives at
    /// `c · rows + r`.
    ColMajor,
    /// Native block-major: `FRAG × FRAG` fragments with column-major
    /// interiors, fragments stored row-panel-major (panel `p = r/FRAG`
    /// outer, `q = c/FRAG` inner). Each row panel is bit-identical to a
    /// BLIS packed-A panel with `MR = FRAG`.
    BlockMajor,
    /// Block-major with the fragment *slots* permuted along a dense
    /// z-order (Morton) curve when the fragment grid is a power of two
    /// in both dimensions; otherwise it degrades to the linear
    /// row-panel order (compact Morton on ragged grids has no O(1)
    /// rank, see `streamk-core::order`).
    BlockMajorZ,
}

/// Dense z-order (Morton) rank of fragment `(row, col)` on a
/// `rows_p2 × cols_p2` grid where both extents are powers of two.
///
/// The low `min(log2 rows_p2, log2 cols_p2)` bits of each coordinate
/// are bit-interleaved (row bits in even positions, matching the
/// `morton_code(tile_m, tile_n)` convention of
/// `streamk-core::order::tile_permutation`), and the remaining high
/// bits of the longer dimension are appended above — so the rank is
/// *dense* in `0 .. rows_p2 · cols_p2` for any pow2 aspect ratio.
#[inline]
#[must_use]
pub fn zorder_rank(row: usize, col: usize, rows_p2: usize, cols_p2: usize) -> usize {
    debug_assert!(rows_p2.is_power_of_two() && cols_p2.is_power_of_two());
    debug_assert!(row < rows_p2 && col < cols_p2);
    let rb = rows_p2.trailing_zeros();
    let cb = cols_p2.trailing_zeros();
    let shared = rb.min(cb);
    let mut rank = 0usize;
    for bit in 0..shared {
        rank |= ((row >> bit) & 1) << (2 * bit);
        rank |= ((col >> bit) & 1) << (2 * bit + 1);
    }
    let high = if rb > cb { row >> shared } else { col >> shared };
    rank | (high << (2 * shared))
}

/// Inverse of [`zorder_rank`]: the fragment coordinates at `rank`.
#[inline]
#[must_use]
pub fn zorder_unrank(rank: usize, rows_p2: usize, cols_p2: usize) -> (usize, usize) {
    debug_assert!(rows_p2.is_power_of_two() && cols_p2.is_power_of_two());
    let rb = rows_p2.trailing_zeros();
    let cb = cols_p2.trailing_zeros();
    let shared = rb.min(cb);
    let (mut row, mut col) = (0usize, 0usize);
    for bit in 0..shared {
        row |= ((rank >> (2 * bit)) & 1) << bit;
        col |= ((rank >> (2 * bit + 1)) & 1) << bit;
    }
    let high = rank >> (2 * shared);
    if rb > cb {
        row |= high << shared;
    } else {
        col |= high << shared;
    }
    (row, col)
}

impl Layout {
    /// Linear offset of element `(row, col)` in a `rows × cols` matrix
    /// stored in this layout.
    ///
    /// Bounds are *not* checked here; the matrix container checks them.
    #[inline]
    #[must_use]
    pub fn index(self, row: usize, col: usize, rows: usize, cols: usize) -> usize {
        match self {
            Layout::RowMajor => row * cols + col,
            Layout::ColMajor => col * rows + row,
            Layout::BlockMajor | Layout::BlockMajorZ => {
                let frags_n = cols.div_ceil(FRAG);
                let (p, q) = (row / FRAG, col / FRAG);
                let slot = if self == Layout::BlockMajorZ {
                    let frags_m = rows.div_ceil(FRAG);
                    if frags_m.is_power_of_two() && frags_n.is_power_of_two() {
                        zorder_rank(p, q, frags_m, frags_n)
                    } else {
                        p * frags_n + q
                    }
                } else {
                    p * frags_n + q
                };
                slot * FRAG * FRAG + (col % FRAG) * FRAG + (row % FRAG)
            }
        }
    }

    /// Number of elements of backing storage a `rows × cols` matrix in
    /// this layout occupies. Equals `rows * cols` for the strided
    /// layouts; the block-major layouts pad both extents to a multiple
    /// of [`FRAG`].
    #[inline]
    #[must_use]
    pub fn storage_len(self, rows: usize, cols: usize) -> usize {
        match self {
            Layout::RowMajor | Layout::ColMajor => rows * cols,
            Layout::BlockMajor | Layout::BlockMajorZ => {
                rows.div_ceil(FRAG) * cols.div_ceil(FRAG) * FRAG * FRAG
            }
        }
    }

    /// Whether this is one of the block-major (fragmented) layouts.
    #[inline]
    #[must_use]
    pub fn is_blocked(self) -> bool {
        matches!(self, Layout::BlockMajor | Layout::BlockMajorZ)
    }

    /// The leading dimension (stride between consecutive rows for
    /// row-major, columns for column-major) of a dense `rows × cols`
    /// matrix. For the block-major layouts this is the padded k-stride
    /// of one row panel (`cols` rounded up to [`FRAG`]); there is no
    /// single element stride.
    #[inline]
    #[must_use]
    pub fn leading_dim(self, rows: usize, cols: usize) -> usize {
        match self {
            Layout::RowMajor => cols,
            Layout::ColMajor => rows,
            Layout::BlockMajor | Layout::BlockMajorZ => cols.div_ceil(FRAG) * FRAG,
        }
    }

    /// The opposite layout. A *strided* matrix reinterpreted in the
    /// opposite layout is its transpose; the block-major layouts have
    /// no such reinterpretation (fragment interiors would also need
    /// transposing) and return themselves — transpose block-major
    /// matrices through views or explicit conversion instead.
    #[must_use]
    pub fn flipped(self) -> Self {
        match self {
            Layout::RowMajor => Layout::ColMajor,
            Layout::ColMajor => Layout::RowMajor,
            blocked => blocked,
        }
    }

    /// Parses the CLI spelling of a layout: `row`, `col`, `block`, or
    /// `blockz` (aliases: full display names).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "row" | "row-major" => Some(Layout::RowMajor),
            "col" | "col-major" | "column" => Some(Layout::ColMajor),
            "block" | "block-major" => Some(Layout::BlockMajor),
            "blockz" | "block-major-z" | "morton" => Some(Layout::BlockMajorZ),
            _ => None,
        }
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Layout::RowMajor => write!(f, "row-major"),
            Layout::ColMajor => write!(f, "col-major"),
            Layout::BlockMajor => write!(f, "block-major"),
            Layout::BlockMajorZ => write!(f, "block-major-z"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Layout; 4] =
        [Layout::RowMajor, Layout::ColMajor, Layout::BlockMajor, Layout::BlockMajorZ];

    #[test]
    fn row_major_indexing() {
        // 2x3 matrix: offsets 0..6 in reading order.
        let l = Layout::RowMajor;
        assert_eq!(l.index(0, 0, 2, 3), 0);
        assert_eq!(l.index(0, 2, 2, 3), 2);
        assert_eq!(l.index(1, 0, 2, 3), 3);
        assert_eq!(l.index(1, 2, 2, 3), 5);
    }

    #[test]
    fn col_major_indexing() {
        let l = Layout::ColMajor;
        assert_eq!(l.index(0, 0, 2, 3), 0);
        assert_eq!(l.index(1, 0, 2, 3), 1);
        assert_eq!(l.index(0, 1, 2, 3), 2);
        assert_eq!(l.index(1, 2, 2, 3), 5);
    }

    #[test]
    fn block_major_panel_is_packed_a_format() {
        // Within row panel p, element (r, c) must sit at the BLIS
        // packed-A position c·FRAG + r%FRAG relative to the panel base,
        // with panels strided by storage_len of one panel.
        let l = Layout::BlockMajor;
        let (rows, cols) = (24usize, 19usize);
        let k_pad = cols.div_ceil(FRAG) * FRAG;
        for r in 0..rows {
            for c in 0..cols {
                let p = r / FRAG;
                let expect = p * k_pad * FRAG + c * FRAG + r % FRAG;
                assert_eq!(l.index(r, c, rows, cols), expect, "({r},{c})");
            }
        }
    }

    #[test]
    fn layouts_cover_all_offsets_bijectively() {
        // Strided layouts are dense over rows*cols; block-major layouts
        // are injective into the padded storage.
        for layout in ALL {
            for (rows, cols) in [(4, 7), (8, 8), (16, 32), (5, 1), (1, 9), (17, 23)] {
                let len = layout.storage_len(rows, cols);
                let mut seen = vec![false; len];
                for r in 0..rows {
                    for c in 0..cols {
                        let i = layout.index(r, c, rows, cols);
                        assert!(i < len, "{layout} offset {i} out of {len}");
                        assert!(!seen[i], "{layout} duplicates offset {i}");
                        seen[i] = true;
                    }
                }
                if !layout.is_blocked() {
                    assert!(seen.iter().all(|&s| s));
                }
            }
        }
    }

    #[test]
    fn blocked_storage_is_dense_on_aligned_shapes() {
        // With both extents multiples of FRAG there is no padding and
        // the blocked layouts are full bijections.
        for layout in [Layout::BlockMajor, Layout::BlockMajorZ] {
            for (rows, cols) in [(8, 8), (16, 40), (24, 8), (32, 32)] {
                let len = layout.storage_len(rows, cols);
                assert_eq!(len, rows * cols);
                let mut seen = vec![false; len];
                for r in 0..rows {
                    for c in 0..cols {
                        seen[layout.index(r, c, rows, cols)] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "{layout} {rows}x{cols} not dense");
            }
        }
    }

    #[test]
    fn zorder_rank_roundtrips_on_pow2_grids() {
        for (h, w) in [(1, 1), (2, 2), (4, 4), (2, 8), (8, 2), (1, 16), (16, 1), (4, 32)] {
            let mut seen = vec![false; h * w];
            for r in 0..h {
                for c in 0..w {
                    let rank = zorder_rank(r, c, h, w);
                    assert!(rank < h * w, "rank {rank} out of range for {h}x{w}");
                    assert!(!seen[rank], "duplicate rank {rank} in {h}x{w}");
                    seen[rank] = true;
                    assert_eq!(zorder_unrank(rank, h, w), (r, c));
                }
            }
        }
    }

    #[test]
    fn zorder_square_matches_z_curve() {
        // 2x2 Z, row in the even bits (tile_permutation convention):
        // (0,0) (1,0) (0,1) (1,1).
        assert_eq!(zorder_rank(0, 0, 2, 2), 0);
        assert_eq!(zorder_rank(1, 0, 2, 2), 1);
        assert_eq!(zorder_rank(0, 1, 2, 2), 2);
        assert_eq!(zorder_rank(1, 1, 2, 2), 3);
    }

    #[test]
    fn blockz_falls_back_to_linear_on_ragged_grids() {
        // 17x23 → 3x3 fragment grid (non-pow2): BlockMajorZ must agree
        // with BlockMajor everywhere.
        let (rows, cols) = (17, 23);
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(
                    Layout::BlockMajorZ.index(r, c, rows, cols),
                    Layout::BlockMajor.index(r, c, rows, cols)
                );
            }
        }
    }

    #[test]
    fn storage_lens() {
        assert_eq!(Layout::RowMajor.storage_len(5, 7), 35);
        assert_eq!(Layout::BlockMajor.storage_len(5, 7), 64);
        assert_eq!(Layout::BlockMajor.storage_len(16, 16), 256);
        assert_eq!(Layout::BlockMajorZ.storage_len(9, 17), 2 * 3 * 64);
    }

    #[test]
    fn flip_is_involution() {
        assert_eq!(Layout::RowMajor.flipped().flipped(), Layout::RowMajor);
        assert_eq!(Layout::RowMajor.flipped(), Layout::ColMajor);
        assert_eq!(Layout::BlockMajor.flipped(), Layout::BlockMajor);
    }

    #[test]
    fn leading_dims() {
        assert_eq!(Layout::RowMajor.leading_dim(2, 3), 3);
        assert_eq!(Layout::ColMajor.leading_dim(2, 3), 2);
        assert_eq!(Layout::BlockMajor.leading_dim(16, 19), 24);
    }

    #[test]
    fn parse_round_trips_display() {
        for l in ALL {
            assert_eq!(Layout::parse(&l.to_string()), Some(l));
        }
        assert_eq!(Layout::parse("block"), Some(Layout::BlockMajor));
        assert_eq!(Layout::parse("blockz"), Some(Layout::BlockMajorZ));
        assert_eq!(Layout::parse("diag"), None);
    }
}
