//! Borrowed, strided matrix views.
//!
//! A [`MatrixView`] is the BLAS-style window the GEMM entry points
//! consume: it can present a [`Matrix`] as-is, transposed (the `_tn`,
//! `_nt`, `_tt` operand variants the paper mentions via
//! `hgemm_tt()`), or restricted to a rectangular sub-block — all
//! without copying, through row/column strides.

use crate::matrix::Matrix;
use std::ops::Range;
use streamk_types::Layout;

/// Whether an operand enters the product as itself or transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatOp {
    /// Use the matrix as stored.
    #[default]
    None,
    /// Use the transpose of the matrix.
    Transpose,
}

impl MatOp {
    /// BLAS-style one-letter tag (`n` / `t`).
    #[must_use]
    pub fn tag(self) -> char {
        match self {
            MatOp::None => 'n',
            MatOp::Transpose => 't',
        }
    }
}

/// A borrowed, possibly strided, possibly transposed window over a
/// matrix's storage.
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'a, T> {
    data: &'a [T],
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

impl<'a, T: Copy> MatrixView<'a, T> {
    /// Builds a view from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if the view's furthest element would fall outside
    /// `data`.
    #[must_use]
    pub fn from_parts(data: &'a [T], rows: usize, cols: usize, row_stride: usize, col_stride: usize) -> Self {
        assert!(rows > 0 && cols > 0, "view dimensions must be non-zero");
        let last = (rows - 1) * row_stride + (cols - 1) * col_stride;
        assert!(last < data.len(), "view extends past the backing storage: last offset {last}, len {}", data.len());
        Self { data, rows, cols, row_stride, col_stride }
    }

    /// Rows of the view.
    #[inline]
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the view.
    #[inline]
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices (debug-friendly; the GEMM inner
    /// loops use [`get_unchecked_logical`](Self::row_slice) patterns
    /// only through checked slices).
    #[inline]
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> T {
        assert!(row < self.rows && col < self.cols, "view index ({row},{col}) out of bounds for {}x{}", self.rows, self.cols);
        self.data[row * self.row_stride + col * self.col_stride]
    }

    /// The transposed view (no data movement).
    #[must_use]
    pub fn t(&self) -> MatrixView<'a, T> {
        MatrixView {
            data: self.data,
            rows: self.cols,
            cols: self.rows,
            row_stride: self.col_stride,
            col_stride: self.row_stride,
        }
    }

    /// Applies `op` (identity or transpose).
    #[must_use]
    pub fn with_op(&self, op: MatOp) -> MatrixView<'a, T> {
        match op {
            MatOp::None => *self,
            MatOp::Transpose => self.t(),
        }
    }

    /// A rectangular sub-view.
    ///
    /// # Panics
    ///
    /// Panics if the ranges exceed the view or are empty.
    #[must_use]
    pub fn submatrix(&self, rows: Range<usize>, cols: Range<usize>) -> MatrixView<'a, T> {
        assert!(rows.end <= self.rows && cols.end <= self.cols, "submatrix out of bounds");
        assert!(!rows.is_empty() && !cols.is_empty(), "submatrix must be non-empty");
        MatrixView {
            data: &self.data[rows.start * self.row_stride + cols.start * self.col_stride..],
            rows: rows.len(),
            cols: cols.len(),
            row_stride: self.row_stride,
            col_stride: self.col_stride,
        }
    }

    /// `true` when rows are contiguous (`col_stride == 1`) — the fast
    /// path condition for the executor's microkernel.
    #[inline]
    #[must_use]
    pub fn rows_contiguous(&self) -> bool {
        self.col_stride == 1
    }

    /// Elements between vertically adjacent entries — `(r, c)` and
    /// `(r + 1, c)` — of the view.
    #[inline]
    #[must_use]
    pub fn row_stride(&self) -> usize {
        self.row_stride
    }

    /// Elements between horizontally adjacent entries of the view.
    #[inline]
    #[must_use]
    pub fn col_stride(&self) -> usize {
        self.col_stride
    }

    /// The storage the view spans, from its `(0, 0)` entry to its last
    /// one inclusive: entry `(r, c)` is
    /// `strided_span()[r · row_stride + c · col_stride]`. Anything the
    /// backing allocation holds past the view's last entry is cut off,
    /// so safe indexing into the span can never reach it.
    #[inline]
    #[must_use]
    pub fn strided_span(&self) -> &'a [T] {
        let last = (self.rows - 1) * self.row_stride + (self.cols - 1) * self.col_stride;
        &self.data[..=last]
    }

    /// The contiguous slice of row `row`, when
    /// [`rows_contiguous`](Self::rows_contiguous) holds.
    ///
    /// # Panics
    ///
    /// Panics if the view is not row-contiguous or `row` is out of
    /// bounds.
    #[inline]
    #[must_use]
    pub fn row_slice(&self, row: usize) -> &'a [T] {
        assert!(self.rows_contiguous(), "row_slice on a strided view");
        assert!(row < self.rows, "row {row} out of bounds");
        &self.data[row * self.row_stride..row * self.row_stride + self.cols]
    }

    /// Materializes the view into an owned row-major [`Matrix`].
    #[must_use]
    pub fn to_matrix(&self) -> Matrix<T>
    where
        T: Default,
    {
        Matrix::from_fn(self.rows, self.cols, streamk_types::Layout::RowMajor, |r, c| self.get(r, c))
    }
}

impl<T: Copy + Default> Matrix<T> {
    /// A full view of this matrix.
    #[must_use]
    pub fn view(&self) -> MatrixView<'_, T> {
        let (rs, cs) = match self.layout() {
            Layout::RowMajor => (self.cols(), 1),
            Layout::ColMajor => (1, self.rows()),
        };
        MatrixView::from_parts(self.as_slice(), self.rows(), self.cols(), rs, cs)
    }

    /// A transposed view of this matrix (no data movement).
    #[must_use]
    pub fn t(&self) -> MatrixView<'_, T> {
        self.view().t()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_types::Layout;

    fn counting(rows: usize, cols: usize, layout: Layout) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, layout, |r, c| (r * 100 + c) as f64)
    }

    #[test]
    fn full_view_matches_matrix() {
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            let m = counting(3, 5, layout);
            let v = m.view();
            for r in 0..3 {
                for c in 0..5 {
                    assert_eq!(v.get(r, c), m.get(r, c), "{layout} ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn transpose_view_swaps() {
        let m = counting(3, 5, Layout::RowMajor);
        let t = m.t();
        assert_eq!((t.rows(), t.cols()), (5, 3));
        assert_eq!(t.get(4, 2), m.get(2, 4));
        // Double transpose is the identity.
        let tt = t.t();
        assert_eq!(tt.get(2, 4), m.get(2, 4));
    }

    #[test]
    fn with_op() {
        let m = counting(2, 4, Layout::RowMajor);
        assert_eq!(m.view().with_op(MatOp::None).get(1, 3), m.get(1, 3));
        assert_eq!(m.view().with_op(MatOp::Transpose).get(3, 1), m.get(1, 3));
        assert_eq!(MatOp::None.tag(), 'n');
        assert_eq!(MatOp::Transpose.tag(), 't');
    }

    #[test]
    fn submatrix_offsets() {
        let m = counting(6, 8, Layout::RowMajor);
        let s = m.view().submatrix(2..5, 3..7);
        assert_eq!((s.rows(), s.cols()), (3, 4));
        assert_eq!(s.get(0, 0), m.get(2, 3));
        assert_eq!(s.get(2, 3), m.get(4, 6));
        // Sub-view of a transposed view.
        let st = m.t().submatrix(1..4, 2..6);
        assert_eq!(st.get(0, 0), m.get(2, 1));
    }

    #[test]
    fn contiguity_detection() {
        let m = counting(3, 4, Layout::RowMajor);
        assert!(m.view().rows_contiguous());
        assert!(!m.t().rows_contiguous());
        let c = counting(3, 4, Layout::ColMajor);
        assert!(!c.view().rows_contiguous());
        assert!(c.t().rows_contiguous());
        assert_eq!(m.view().row_slice(1), &[100.0, 101.0, 102.0, 103.0]);
    }

    #[test]
    fn strides_and_span_describe_the_window() {
        let m = counting(6, 8, Layout::RowMajor);
        let v = m.view();
        assert_eq!((v.row_stride(), v.col_stride()), (8, 1));
        assert_eq!((m.t().row_stride(), m.t().col_stride()), (1, 8));
        assert_eq!(v.strided_span().len(), 48);
        // A window that stops short of the allocation: the span ends
        // at the window's last entry, not the allocation's.
        let s = v.submatrix(1..4, 2..5);
        assert_eq!((s.row_stride(), s.col_stride()), (8, 1));
        let span = s.strided_span();
        assert_eq!(span.len(), 2 * 8 + 2 + 1);
        assert_eq!((span[0], span[span.len() - 1]), (m.get(1, 2), m.get(3, 4)));
        let st = m.t().submatrix(2..5, 1..4);
        let span = st.strided_span();
        assert_eq!(span[2 + 2 * 8], st.get(2, 2));
        assert_eq!(span.len(), 2 + 2 * 8 + 1);
    }

    #[test]
    fn to_matrix_round_trip() {
        let m = counting(4, 3, Layout::ColMajor);
        let owned = m.t().to_matrix();
        assert_eq!(owned.rows(), 3);
        assert_eq!(owned.get(2, 3), m.get(3, 2));
    }

    #[test]
    #[should_panic(expected = "past the backing")]
    fn oversized_view_panics() {
        let data = vec![0.0f64; 10];
        let _ = MatrixView::from_parts(&data, 3, 4, 4, 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn submatrix_oob_panics() {
        let m = counting(3, 3, Layout::RowMajor);
        let _ = m.view().submatrix(0..4, 0..2);
    }
}
