//! Matrix memory layouts.
//!
//! A dense matrix is stored row-major or column-major. These are the
//! only two storage orders: every other operand form the paper's
//! kernels take (the `_nt`/`_tn`/`_tt` variants of `hgemm_tt()`, a
//! sub-block of a larger matrix) is a strided view over one of them,
//! built without copying by `streamk_matrix::MatrixView`.

use std::fmt;

/// The storage order of a dense matrix.
///
/// The paper's kernels support transposed/non-transposed operand
/// combinations (e.g. `hgemm_tt`); in this reproduction layout is a
/// property of the matrix container, and the GEMM implementations are
/// layout-generic through the index math below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// Row-major ("C order"): element `(r, c)` lives at `r · cols + c`.
    #[default]
    RowMajor,
    /// Column-major ("Fortran order"): element `(r, c)` lives at
    /// `c · rows + r`.
    ColMajor,
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
        }
    }

    /// The opposite layout: a matrix reinterpreted in it is its
    /// transpose.
    #[must_use]
    pub fn flipped(self) -> Self {
        match self {
            Layout::RowMajor => Layout::ColMajor,
            Layout::ColMajor => Layout::RowMajor,
        }
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Layout::RowMajor => write!(f, "row-major"),
            Layout::ColMajor => write!(f, "col-major"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn layouts_cover_all_offsets_bijectively() {
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            for (rows, cols) in [(4, 7), (8, 8), (16, 32), (5, 1), (1, 9), (17, 23)] {
                let len = rows * cols;
                let mut seen = vec![false; len];
                for r in 0..rows {
                    for c in 0..cols {
                        let i = layout.index(r, c, rows, cols);
                        assert!(i < len, "{layout} offset {i} out of {len}");
                        assert!(!seen[i], "{layout} duplicates offset {i}");
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s));
            }
        }
    }

    #[test]
    fn flip_is_involution() {
        assert_eq!(Layout::RowMajor.flipped().flipped(), Layout::RowMajor);
        assert_eq!(Layout::RowMajor.flipped(), Layout::ColMajor);
        assert_eq!(Layout::ColMajor.flipped(), Layout::RowMajor);
    }
}
