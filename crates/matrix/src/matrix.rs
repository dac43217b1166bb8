//! Owned dense matrix container.
//!
//! Storage starts on a cache line. Every constructor that allocates —
//! [`Matrix::zeros`], [`Matrix::from_fn`], [`Matrix::random`], `clone`,
//! [`Matrix::to_layout`], [`Matrix::transposed`] — puts the first
//! element at a 64-byte boundary ([`AlignedVec`]), so a row-major row of
//! a multiple of 64 bytes is whole lines and a register block's vector
//! load of it never splits across two. The allocator alone gives 16
//! bytes, and on a calm host split loads made a B operand read in
//! place up to 15 % slower than the same B on lines (DESIGN.md §8).
//! [`Matrix::from_vec`] keeps
//! the caller's buffer where it is; equality and `Debug` see the
//! elements only, never where they start.

use crate::aligned::AlignedVec;
use crate::scalar::{Promote, Scalar};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;
use streamk_types::Layout;

/// An owned dense `rows × cols` matrix with explicit storage layout.
///
/// This is the container every GEMM implementation in the workspace
/// consumes and produces. It deliberately stays simple: contiguous
/// storage, bounds-checked accessors, and fill/compare utilities for
/// tests and experiments. Kernels access the raw slice plus layout
/// index math for speed; the slice starts on a cache line unless the
/// caller supplied the buffer ([`from_vec`](Self::from_vec)).
///
/// ```
/// use streamk_matrix::Matrix;
/// use streamk_types::Layout;
///
/// let a = Matrix::<f64>::from_fn(2, 3, Layout::RowMajor, |r, c| (r * 3 + c) as f64);
/// assert_eq!(a.get(1, 2), 5.0);
/// assert_eq!(a.t().get(2, 1), 5.0); // transposed view, no copy
///
/// // Deterministic random fills for reproducible experiments.
/// let x = Matrix::<f64>::random::<f64>(4, 4, Layout::RowMajor, 42);
/// let y = Matrix::<f64>::random::<f64>(4, 4, Layout::RowMajor, 42);
/// assert_eq!(x, y);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    layout: Layout,
    data: AlignedVec<T>,
}

impl<T: Copy + Default> Matrix<T> {
    /// Creates a `rows × cols` matrix of `T::default()` (zeros for all
    /// scalar types) in the given layout.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize, layout: Layout) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero: {rows}x{cols}");
        Self { rows, cols, layout, data: AlignedVec::zeroed(layout.storage_len(rows, cols)) }
    }

    /// Creates a matrix whose `(r, c)` element is `f(r, c)`, calling
    /// `f` in row-major order whatever the layout.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, layout: Layout, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Self::zeros(rows, cols, layout);
        // The window is borrowed once for the whole fill: through
        // `set`, every element re-derived it around an opaque `f` (the
        // generator, in `random`), and a benchmark set-up that is
        // mostly `random` took 40 % longer (DESIGN.md §8).
        let data = m.as_mut_slice();
        for r in 0..rows {
            for c in 0..cols {
                data[layout.index(r, c, rows, cols)] = f(r, c);
            }
        }
        m
    }

    /// Element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> T {
        assert!(row < self.rows && col < self.cols, "index ({row},{col}) out of bounds for {}x{}", self.rows, self.cols);
        self.data[self.layout.index(row, col, self.rows, self.cols)]
    }

    /// Sets element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: T) {
        assert!(row < self.rows && col < self.cols, "index ({row},{col}) out of bounds for {}x{}", self.rows, self.cols);
        let i = self.layout.index(row, col, self.rows, self.cols);
        self.data[i] = value;
    }

    /// The backing storage in layout order.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable backing storage in layout order.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Linear offset of `(row, col)` in the backing storage.
    #[inline]
    #[must_use]
    pub fn offset(&self, row: usize, col: usize) -> usize {
        self.layout.index(row, col, self.rows, self.cols)
    }

    /// A copy of this matrix converted to `layout` (same logical
    /// contents, possibly different storage order).
    #[must_use]
    pub fn to_layout(&self, layout: Layout) -> Self {
        if layout == self.layout {
            return self.clone();
        }
        Self::from_fn(self.rows, self.cols, layout, |r, c| self.get(r, c))
    }

    /// The transpose of this matrix (in the same storage layout).
    #[must_use]
    pub fn transposed(&self) -> Self {
        Self::from_fn(self.cols, self.rows, self.layout, |r, c| self.get(c, r))
    }
}

impl<T> Matrix<T> {
    /// Number of rows.
    #[inline]
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Storage layout.
    #[inline]
    #[must_use]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Consumes the matrix, returning its elements in layout order
    /// (moved down over the line slack in front of them, if any; see
    /// [`AlignedVec::into_vec`]).
    #[must_use]
    pub fn into_vec(self) -> Vec<T> {
        self.data.into_vec()
    }

    /// Consumes the matrix, returning its storage as it is — on its
    /// line, without moving an element.
    #[must_use]
    pub fn into_storage(self) -> AlignedVec<T> {
        self.data
    }

    /// Builds a matrix around existing backing storage in `layout`
    /// order — the inverse of [`into_vec`](Self::into_vec). The buffer
    /// keeps its address, aligned or not.
    ///
    /// # Panics
    ///
    /// As [`from_storage`](Self::from_storage).
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, layout: Layout, data: Vec<T>) -> Self {
        Self::from_storage(rows, cols, layout, data.into())
    }

    /// Builds a matrix around storage in `layout` order — the inverse
    /// of [`into_storage`](Self::into_storage). Lets an executor
    /// assemble its output in a buffer it owns, on a line, and hand it
    /// over without a copy.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `data.len()` is not
    /// `layout.storage_len(rows, cols)` (`rows * cols` for the strided
    /// layouts; fragment-padded for the block-major ones).
    #[must_use]
    pub fn from_storage(rows: usize, cols: usize, layout: Layout, data: AlignedVec<T>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero: {rows}x{cols}");
        assert_eq!(
            data.len(),
            layout.storage_len(rows, cols),
            "backing storage must be layout.storage_len(rows, cols)"
        );
        Self { rows, cols, layout, data }
    }
}

/// The generator's next uniform draw from `[-1, 1)`.
///
/// Out of line and not generic on purpose: the generator is compiled
/// once, in this crate, whoever instantiates [`Matrix::random`].
/// Inlined into a caller's fill loop, its four state words are at the
/// mercy of that caller's optimisation context — seen SLP-vectorised
/// into XMM ↔ GPR round trips every draw, a fifth on top of a
/// benchmark set-up that is mostly `random` (EXPERIMENTS.md, "Tile
/// epilogue").
#[inline(never)]
fn draw_uniform(rng: &mut StdRng) -> f64 {
    rng.random_range(-1.0..1.0)
}

impl<T: Copy + Default> Matrix<T> {
    /// Fills with uniform random values in `[-1, 1)` from a seeded
    /// generator, demoted to the element's storage precision. The
    /// `[-1, 1)` range keeps long accumulations from overflowing f16
    /// storage and keeps cancellation realistic.
    #[must_use]
    pub fn random<Acc>(rows: usize, cols: usize, layout: Layout, seed: u64) -> Self
    where
        Acc: Scalar,
        T: Promote<Acc>,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::from_fn(rows, cols, layout, |_, _| T::demote_from_f64(draw_uniform(&mut rng)))
    }

    /// Fills with the deterministic pattern
    /// `((r·31 + c·17) mod 13 − 6) / 4`, exactly representable in f16,
    /// useful for bit-exact cross-implementation checks.
    #[must_use]
    pub fn patterned<Acc>(rows: usize, cols: usize, layout: Layout) -> Self
    where
        Acc: Scalar,
        T: Promote<Acc>,
    {
        Self::from_fn(rows, cols, layout, |r, c| {
            let v = ((r * 31 + c * 17) % 13) as f64 - 6.0;
            T::demote_from_f64(v / 4.0)
        })
    }
}

impl<T: Scalar> Matrix<T> {
    /// The largest absolute elementwise difference `max |aᵢⱼ − bᵢⱼ|`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        let mut worst = 0.0f64;
        for r in 0..self.rows {
            for c in 0..self.cols {
                let d = (self.get(r, c).to_f64() - other.get(r, c).to_f64()).abs();
                worst = worst.max(d);
            }
        }
        worst
    }

    /// The largest relative elementwise difference, with the usual
    /// `max(1, |a|, |b|)` denominator guard.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn max_rel_diff(&self, other: &Self) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        let mut worst = 0.0f64;
        for r in 0..self.rows {
            for c in 0..self.cols {
                let a = self.get(r, c).to_f64();
                let b = other.get(r, c).to_f64();
                let denom = 1.0f64.max(a.abs()).max(b.abs());
                worst = worst.max((a - b).abs() / denom);
            }
        }
        worst
    }

    /// Asserts elementwise closeness within `tol` (relative, guarded).
    ///
    /// # Panics
    ///
    /// Panics with the offending element if any difference exceeds
    /// `tol`.
    pub fn assert_close(&self, other: &Self, tol: f64) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        for r in 0..self.rows {
            for c in 0..self.cols {
                let a = self.get(r, c).to_f64();
                let b = other.get(r, c).to_f64();
                let denom = 1.0f64.max(a.abs()).max(b.abs());
                let d = (a - b).abs() / denom;
                assert!(
                    d <= tol,
                    "matrices differ at ({r},{c}): {a} vs {b} (rel diff {d:.3e} > tol {tol:.3e})"
                );
            }
        }
    }

    /// The Frobenius norm `√(Σ aᵢⱼ²)` as f64.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        let mut sum = 0.0f64;
        for &v in self.as_slice() {
            let x = v.to_f64();
            sum += x * x;
        }
        sum.sqrt()
    }
}

impl<T: Copy + Default + fmt::Debug> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} ({}):", self.rows, self.cols, self.layout)?;
        let show_rows = self.rows.min(8);
        let show_cols = self.cols.min(8);
        for r in 0..show_rows {
            write!(f, "  [")?;
            for c in 0..show_cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:?}", self.get(r, c))?;
            }
            if show_cols < self.cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if show_rows < self.rows {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lined<T: Copy + Default>(m: &Matrix<T>) -> bool {
        (m.as_slice().as_ptr() as usize).is_multiple_of(crate::LINE)
    }

    /// Every constructor that allocates starts the storage on a line,
    /// whatever the element size and shape; an empty window of the
    /// same storage type does too.
    fn constructors_start_on_a_line<T: Promote<Acc>, Acc: Scalar>() {
        let ty = std::any::type_name::<T>();
        assert_eq!(crate::AlignedVec::<T>::zeroed(0).as_ptr() as usize % crate::LINE, 0, "{ty} empty");
        for (rows, cols) in [(1, 1), (3, 5), (17, 9)] {
            for layout in [Layout::RowMajor, Layout::ColMajor, Layout::BlockMajor] {
                let what = format!("{ty} {rows}x{cols} {layout}");
                let m = Matrix::<T>::random::<Acc>(rows, cols, layout, 5);
                assert!(lined(&Matrix::<T>::zeros(rows, cols, layout)), "zeros {what}");
                assert!(lined(&Matrix::<T>::from_fn(rows, cols, layout, |r, _| m.get(r, 0))), "from_fn {what}");
                assert!(lined(&m), "random {what}");
                assert!(lined(&m.clone()), "clone {what}");
                assert!(lined(&m.to_layout(layout)) && lined(&m.to_layout(Layout::RowMajor)), "to_layout {what}");
                assert!(lined(&m.transposed()), "transposed {what}");
            }
        }
    }

    #[test]
    fn allocating_constructors_start_on_a_line() {
        constructors_start_on_a_line::<crate::f16, f32>();
        constructors_start_on_a_line::<f32, f32>();
        constructors_start_on_a_line::<f64, f64>();
    }

    /// Where the storage starts is not part of the value: the same
    /// elements on a line and off it compare equal and print the same,
    /// and `from_vec` keeps the caller's buffer.
    #[test]
    fn slack_is_invisible() {
        let on_line = Matrix::<f32>::random::<f32>(3, 5, Layout::RowMajor, 9);
        let copy = on_line.as_slice().to_vec();
        let ptr = copy.as_ptr();
        let plain = Matrix::from_vec(3, 5, Layout::RowMajor, copy);
        assert_eq!(plain.as_slice().as_ptr(), ptr, "from_vec keeps the buffer");
        assert_eq!(plain, on_line);
        // Three elements of slack in front of the same values: 12
        // bytes, off the line on any 16-byte aligned allocator.
        let mut buf = vec![7.0f32; 3];
        buf.extend_from_slice(on_line.as_slice());
        let off = Matrix::from_storage(3, 5, Layout::RowMajor, crate::AlignedVec::from_parts(buf, 3));
        assert!(lined(&on_line));
        assert_eq!(off, on_line);
        assert_eq!(format!("{off:?}"), format!("{on_line:?}"));
        assert_eq!(off.clone().into_vec(), on_line.clone().into_vec());
        assert_eq!(off.into_storage(), on_line.into_storage());
    }

    #[test]
    fn zeros_and_set_get() {
        let mut m = Matrix::<f64>::zeros(3, 4, Layout::RowMajor);
        assert_eq!(m.get(2, 3), 0.0);
        m.set(2, 3, 7.5);
        assert_eq!(m.get(2, 3), 7.5);
        assert_eq!(m.as_slice()[2 * 4 + 3], 7.5);
    }

    #[test]
    fn col_major_storage_order() {
        let m = Matrix::<f32>::from_fn(2, 3, Layout::ColMajor, |r, c| (r * 10 + c) as f32);
        // Column-major: columns contiguous.
        assert_eq!(m.as_slice(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
    }

    #[test]
    fn to_layout_preserves_contents() {
        let m = Matrix::<f64>::from_fn(3, 5, Layout::RowMajor, |r, c| (r * 100 + c) as f64);
        let t = m.to_layout(Layout::ColMajor);
        for r in 0..3 {
            for c in 0..5 {
                assert_eq!(m.get(r, c), t.get(r, c));
            }
        }
        assert_ne!(m.as_slice(), t.as_slice());
    }

    #[test]
    fn block_major_round_trips_through_every_layout() {
        let m = Matrix::<f64>::from_fn(13, 21, Layout::RowMajor, |r, c| (r * 100 + c) as f64);
        for layout in [Layout::BlockMajor, Layout::BlockMajorZ] {
            let b = m.to_layout(layout);
            assert_eq!(b.as_slice().len(), layout.storage_len(13, 21));
            for r in 0..13 {
                for c in 0..21 {
                    assert_eq!(b.get(r, c), m.get(r, c), "{layout} ({r},{c})");
                }
            }
            let back = b.to_layout(Layout::RowMajor);
            assert_eq!(back, m);
        }
    }

    #[test]
    fn block_major_padding_stays_zero() {
        // from_fn only writes logical elements; the fragment padding
        // must remain T::default() so packed-equivalence (and norms)
        // hold.
        let b = Matrix::<f64>::from_fn(5, 5, Layout::BlockMajor, |_, _| 1.0);
        assert_eq!(b.as_slice().len(), 64);
        let written: f64 = b.as_slice().iter().sum();
        assert_eq!(written, 25.0);
        assert!((b.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn from_vec_blocked_requires_padded_len() {
        let b = Matrix::<f32>::zeros(5, 7, Layout::BlockMajor);
        let data = b.clone().into_vec();
        assert_eq!(data.len(), 64);
        let rebuilt = Matrix::<f32>::from_vec(5, 7, Layout::BlockMajor, data);
        assert_eq!(rebuilt, b);
    }

    #[test]
    fn transpose_swaps_indices() {
        let m = Matrix::<f64>::from_fn(2, 3, Layout::RowMajor, |r, c| (r * 10 + c) as f64);
        let t = m.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), m.get(1, 2));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = Matrix::<f64>::random::<f64>(4, 4, Layout::RowMajor, 42);
        let b = Matrix::<f64>::random::<f64>(4, 4, Layout::RowMajor, 42);
        let c = Matrix::<f64>::random::<f64>(4, 4, Layout::RowMajor, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_values_in_range() {
        let m = Matrix::<f64>::random::<f64>(16, 16, Layout::RowMajor, 7);
        for &v in m.as_slice() {
            assert!((-1.0..1.0).contains(&v));
        }
    }

    #[test]
    fn patterned_is_f16_exact() {
        use crate::half::f16;
        let a = Matrix::<f16>::patterned::<f32>(8, 8, Layout::RowMajor);
        let b = Matrix::<f64>::patterned::<f64>(8, 8, Layout::RowMajor);
        for r in 0..8 {
            for c in 0..8 {
                assert_eq!(a.get(r, c).to_f64(), b.get(r, c));
            }
        }
    }

    #[test]
    fn diff_metrics() {
        let a = Matrix::<f64>::from_fn(2, 2, Layout::RowMajor, |r, c| (r + c) as f64);
        let mut b = a.clone();
        b.set(1, 1, 2.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert!((a.max_rel_diff(&b) - 0.5 / 2.5).abs() < 1e-12);
        a.assert_close(&b, 0.3);
    }

    #[test]
    #[should_panic(expected = "differ at (1,1)")]
    fn assert_close_panics_on_large_diff() {
        let a = Matrix::<f64>::zeros(2, 2, Layout::RowMajor);
        let mut b = a.clone();
        b.set(1, 1, 1.0);
        a.assert_close(&b, 1e-6);
    }

    #[test]
    fn frobenius_norm_of_unit() {
        let m = Matrix::<f64>::from_fn(3, 3, Layout::RowMajor, |r, c| if r == c { 1.0 } else { 0.0 });
        assert!((m.frobenius_norm() - 3.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = Matrix::<f64>::zeros(2, 2, Layout::RowMajor);
        let _ = m.get(2, 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = Matrix::<f64>::zeros(0, 3, Layout::RowMajor);
    }
}
