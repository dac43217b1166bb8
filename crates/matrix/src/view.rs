//! Borrowed, strided matrix views.
//!
//! A [`MatrixView`] is the BLAS-style window the GEMM entry points
//! consume: it can present a [`Matrix`] as-is, transposed (the `_tn`,
//! `_nt`, `_tt` operand variants the paper mentions via
//! `hgemm_tt()`), or restricted to a rectangular sub-block — all
//! without copying, through row/column strides.

use crate::matrix::Matrix;
use std::ops::Range;
use streamk_types::{Layout, FRAG};

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

/// Indexing metadata for a view over block-major storage, which two
/// strides cannot express. The view keeps the *whole* fragment-padded
/// storage slice and maps logical coordinates through
/// `Layout::index` — transposition and sub-windows are coordinate
/// remappings, not pointer offsets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockInfo {
    /// `Layout::BlockMajor` or `Layout::BlockMajorZ`.
    pub(crate) layout: Layout,
    /// Storage-logical dimensions (before any transpose).
    pub(crate) base_rows: usize,
    pub(crate) base_cols: usize,
    /// View `(r, c)` reads storage `(c, r)` when set.
    pub(crate) transposed: bool,
    /// Sub-window origin in storage coordinates.
    pub(crate) origin_row: usize,
    pub(crate) origin_col: usize,
}

/// A borrowed, possibly strided, possibly transposed window over a
/// matrix's storage.
///
/// Views over the block-major layouts carry a [`BlockInfo`] instead of
/// meaningful strides; all element access routes through
/// [`get`](Self::get), and [`rows_contiguous`](Self::rows_contiguous)
/// reports `false` so strided fast paths never engage.
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'a, T> {
    data: &'a [T],
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
    block: Option<BlockInfo>,
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
        Self { data, rows, cols, row_stride, col_stride, block: None }
    }

    /// Builds a view over block-major storage.
    ///
    /// # Panics
    ///
    /// Panics if `layout` is not block-major or `data` is not exactly
    /// the fragment-padded storage of a `rows × cols` matrix.
    #[must_use]
    pub fn from_blocked(data: &'a [T], rows: usize, cols: usize, layout: Layout) -> Self {
        assert!(rows > 0 && cols > 0, "view dimensions must be non-zero");
        assert!(layout.is_blocked(), "from_blocked requires a block-major layout, got {layout}");
        assert_eq!(data.len(), layout.storage_len(rows, cols), "blocked storage length mismatch");
        Self {
            data,
            rows,
            cols,
            row_stride: 0,
            col_stride: 0,
            block: Some(BlockInfo {
                layout,
                base_rows: rows,
                base_cols: cols,
                transposed: false,
                origin_row: 0,
                origin_col: 0,
            }),
        }
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
        match self.block {
            None => self.data[row * self.row_stride + col * self.col_stride],
            Some(b) => {
                let (sr, sc) = if b.transposed {
                    (b.origin_row + col, b.origin_col + row)
                } else {
                    (b.origin_row + row, b.origin_col + col)
                };
                self.data[b.layout.index(sr, sc, b.base_rows, b.base_cols)]
            }
        }
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
            block: self.block.map(|b| BlockInfo { transposed: !b.transposed, ..b }),
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
        match self.block {
            None => MatrixView {
                data: &self.data[rows.start * self.row_stride + cols.start * self.col_stride..],
                rows: rows.len(),
                cols: cols.len(),
                row_stride: self.row_stride,
                col_stride: self.col_stride,
                block: None,
            },
            Some(b) => {
                // Blocked storage has no pointer-offset sub-windows;
                // shift the coordinate origin instead.
                let (dr, dc) =
                    if b.transposed { (cols.start, rows.start) } else { (rows.start, cols.start) };
                MatrixView {
                    data: self.data,
                    rows: rows.len(),
                    cols: cols.len(),
                    row_stride: 0,
                    col_stride: 0,
                    block: Some(BlockInfo {
                        origin_row: b.origin_row + dr,
                        origin_col: b.origin_col + dc,
                        ..b
                    }),
                }
            }
        }
    }

    /// `true` when rows are contiguous (`col_stride == 1`) — the fast
    /// path condition for the executor's microkernel. Always `false`
    /// for views over block-major storage.
    #[inline]
    #[must_use]
    pub fn rows_contiguous(&self) -> bool {
        self.block.is_none() && self.col_stride == 1
    }

    /// Elements between vertically adjacent entries — `(r, c)` and
    /// `(r + 1, c)` — of a strided view; `None` over block-major
    /// storage, which two strides cannot describe.
    #[inline]
    #[must_use]
    pub fn row_stride(&self) -> Option<usize> {
        self.block.is_none().then_some(self.row_stride)
    }

    /// Elements between horizontally adjacent entries of a strided
    /// view; `None` over block-major storage.
    #[inline]
    #[must_use]
    pub fn col_stride(&self) -> Option<usize> {
        self.block.is_none().then_some(self.col_stride)
    }

    /// The storage a strided view spans, from its `(0, 0)` entry to
    /// its last one inclusive: entry `(r, c)` is
    /// `strided_span()[r · row_stride + c · col_stride]`. Anything the
    /// backing allocation holds past the view's last entry is cut off,
    /// so safe indexing into the span can never reach it. `None` over
    /// block-major storage.
    #[inline]
    #[must_use]
    pub fn strided_span(&self) -> Option<&'a [T]> {
        let last = (self.rows - 1) * self.row_stride + (self.cols - 1) * self.col_stride;
        self.block.is_none().then(|| &self.data[..=last])
    }

    /// The storage layout behind this view when it is block-major.
    #[inline]
    #[must_use]
    pub fn block_layout(&self) -> Option<Layout> {
        self.block.map(|b| b.layout)
    }

    /// The backing slice and block metadata for views over blocked
    /// storage — the packers iterate fragments directly instead of
    /// paying a full swizzle-index computation per element.
    #[inline]
    pub(crate) fn blocked_parts(&self) -> Option<(&'a [T], BlockInfo)> {
        self.block.map(|b| (self.data, b))
    }

    /// The zero-pack bypass probe for an **A** operand: when this view
    /// is a full, untransposed window over `BlockMajor` (linear
    /// fragment order) storage, returns the raw panel table — the
    /// backing slice, whose `FRAG`-row panels are bit-identical BLIS
    /// packed-A panels — together with the padded k-stride
    /// (`cols` rounded up to `FRAG`). Sub-windows, transposes, and the
    /// Morton variant return `None` (their panels are not contiguous).
    ///
    /// A **B** operand is probed through its transpose: when the
    /// caller stored Bᵀ block-major and views it back as `k × n`,
    /// `b.t().block_panels()` is the packed-B table with `NR = FRAG`.
    #[inline]
    #[must_use]
    pub fn block_panels(&self) -> Option<(&'a [T], usize)> {
        match self.block {
            Some(b)
                if b.layout == Layout::BlockMajor
                    && !b.transposed
                    && b.origin_row == 0
                    && b.origin_col == 0
                    && self.rows == b.base_rows
                    && self.cols == b.base_cols =>
            {
                Some((self.data, self.cols.div_ceil(FRAG) * FRAG))
            }
            _ => None,
        }
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
            blocked => {
                return MatrixView::from_blocked(self.as_slice(), self.rows(), self.cols(), blocked)
            }
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
        assert_eq!((v.row_stride(), v.col_stride()), (Some(8), Some(1)));
        assert_eq!((m.t().row_stride(), m.t().col_stride()), (Some(1), Some(8)));
        assert_eq!(v.strided_span().unwrap().len(), 48);
        // A window that stops short of the allocation: the span ends
        // at the window's last entry, not the allocation's.
        let s = v.submatrix(1..4, 2..5);
        assert_eq!((s.row_stride(), s.col_stride()), (Some(8), Some(1)));
        let span = s.strided_span().unwrap();
        assert_eq!(span.len(), 2 * 8 + 2 + 1);
        assert_eq!((span[0], span[span.len() - 1]), (m.get(1, 2), m.get(3, 4)));
        let st = m.t().submatrix(2..5, 1..4);
        let span = st.strided_span().unwrap();
        assert_eq!(span[2 + 2 * 8], st.get(2, 2));
        assert_eq!(span.len(), 2 + 2 * 8 + 1);
        let blocked = m.to_layout(Layout::BlockMajor);
        let b = blocked.view();
        assert!(b.row_stride().is_none() && b.col_stride().is_none() && b.strided_span().is_none());
    }

    #[test]
    fn to_matrix_round_trip() {
        let m = counting(4, 3, Layout::ColMajor);
        let owned = m.t().to_matrix();
        assert_eq!(owned.rows(), 3);
        assert_eq!(owned.get(2, 3), m.get(3, 2));
    }

    #[test]
    fn blocked_views_read_like_strided_views() {
        for layout in [Layout::BlockMajor, Layout::BlockMajorZ] {
            let row = counting(13, 21, Layout::RowMajor);
            let blocked = row.to_layout(layout);
            let v = blocked.view();
            assert!(!v.rows_contiguous());
            assert_eq!(v.block_layout(), Some(layout));
            for r in 0..13 {
                for c in 0..21 {
                    assert_eq!(v.get(r, c), row.get(r, c), "{layout} ({r},{c})");
                }
            }
            // Transpose and sub-window are coordinate remappings.
            let t = v.t();
            assert_eq!(t.get(20, 12), row.get(12, 20));
            let s = v.submatrix(2..9, 5..18);
            assert_eq!(s.get(0, 0), row.get(2, 5));
            assert_eq!(s.get(6, 12), row.get(8, 17));
            let st = t.submatrix(1..4, 2..6);
            assert_eq!(st.get(0, 0), row.get(2, 1));
        }
    }

    #[test]
    fn block_panel_probes_gate_correctly() {
        let m = counting(16, 24, Layout::RowMajor).to_layout(Layout::BlockMajor);
        let v = m.view();
        let (panels, k_pad) = v.block_panels().expect("full linear blocked view bypasses");
        assert_eq!(k_pad, 24);
        assert_eq!(panels.len(), m.as_slice().len());
        // A transposed full view is a B operand: it probes through
        // its own transpose.
        assert!(v.t().block_panels().is_none());
        let (tp, tk) = v.t().t().block_panels().expect("transposed blocked view is a B panel table");
        assert_eq!((tp.len(), tk), (panels.len(), 24));
        // Sub-windows and Morton order do not bypass.
        assert!(v.submatrix(0..8, 0..24).block_panels().is_none());
        assert!(counting(16, 24, Layout::RowMajor)
            .to_layout(Layout::BlockMajorZ)
            .view()
            .block_panels()
            .is_none());
        // Ragged k pads the stride up to the fragment edge.
        let ragged = counting(16, 21, Layout::RowMajor).to_layout(Layout::BlockMajor);
        assert_eq!(ragged.view().block_panels().unwrap().1, 24);
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
