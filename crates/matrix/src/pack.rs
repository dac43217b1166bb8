//! BLIS-style operand packing.
//!
//! The packed-panel microkernel pipeline copies each operand block
//! into a cache-friendly panel layout before the MAC loop touches it:
//!
//! - **A** is packed into *row panels* of `MR` rows. Within a panel
//!   the storage is k-major: for each k the `MR` elements of the
//!   panel's rows sit contiguously (`panel[k·MR + i] = A[r0+p·MR+i, k]`),
//!   so the microkernel loads one unit-stride `MR`-column of A per
//!   k-step.
//! - **B** is packed into *column panels* of `NR` columns, also
//!   k-major (`panel[k·NR + j] = B[k, c0+q·NR+j]`): one unit-stride
//!   `NR`-row of B per k-step.
//!
//! Ragged edges are **zero-padded** to the full `MR`/`NR` width, so
//! the microkernel needs no scalar edge path — padded lanes compute
//! garbage-free zeros that the caller simply never stores. Because
//! the pad only ever fills *lanes that are discarded*, the stored
//! lanes see exactly the same ascending-k operand sequence as the
//! unpacked kernels: results stay bit-identical.
//!
//! Packing reads through [`MatrixView`], so transposed and strided
//! operands are normalized to the same panel layout — after packing,
//! the microkernel no longer cares how the operand was stored.

use crate::view::MatrixView;
use std::ops::Range;

/// Length in elements of A packed over `rows × ks` with panel height
/// `mr`: `⌈rows/mr⌉` panels of `ks · mr` elements each.
#[inline]
#[must_use]
pub fn packed_a_len(rows: usize, ks: usize, mr: usize) -> usize {
    rows.div_ceil(mr) * ks * mr
}

/// Length in elements of B packed over `ks × cols` with panel width
/// `nr`: `⌈cols/nr⌉` panels of `ks · nr` elements each.
#[inline]
#[must_use]
pub fn packed_b_len(ks: usize, cols: usize, nr: usize) -> usize {
    cols.div_ceil(nr) * ks * nr
}

/// Packs `a[rows, ks]` into `MR`-row panels, k-major within each
/// panel, zero-padding the final panel's missing rows. `out` is
/// resized to [`packed_a_len`] and reused — steady-state callers pay
/// no allocation once the buffer has grown to its high-water mark.
///
/// # Panics
///
/// Panics if `rows`/`ks` exceed the view or `mr == 0`.
pub fn pack_a_into<T: Copy + Default>(
    a: &MatrixView<'_, T>,
    rows: Range<usize>,
    ks: Range<usize>,
    mr: usize,
    out: &mut Vec<T>,
) {
    assert!(mr > 0, "panel height must be positive");
    out.resize(packed_a_len(rows.len(), ks.len(), mr), T::default());
    pack_a_slice(a, rows, ks, mr, out);
}

/// [`pack_a_into`] into caller-provided storage of exactly
/// [`packed_a_len`] elements. Every element of `out` is written, pad
/// lanes included, so the storage may be dirty (the executor's pack
/// arena recycles it from launch to launch).
///
/// # Panics
///
/// As [`pack_a_into`], or if `out` has the wrong length.
pub fn pack_a_slice<T: Copy + Default>(
    a: &MatrixView<'_, T>,
    rows: Range<usize>,
    ks: Range<usize>,
    mr: usize,
    out: &mut [T],
) {
    assert!(mr > 0, "panel height must be positive");
    assert!(rows.end <= a.rows() && ks.end <= a.cols(), "pack_a range out of bounds");
    pack_panels(a, rows, ks, mr, out);
}

/// Packs `b[ks, cols]` into `NR`-column panels, k-major within each
/// panel, zero-padding the final panel's missing columns. `out` is
/// resized and reused like [`pack_a_into`].
///
/// # Panics
///
/// Panics if `ks`/`cols` exceed the view or `nr == 0`.
pub fn pack_b_into<T: Copy + Default>(
    b: &MatrixView<'_, T>,
    ks: Range<usize>,
    cols: Range<usize>,
    nr: usize,
    out: &mut Vec<T>,
) {
    assert!(nr > 0, "panel width must be positive");
    out.resize(packed_b_len(ks.len(), cols.len(), nr), T::default());
    pack_b_slice(b, ks, cols, nr, out);
}

/// [`pack_b_into`] into caller-provided storage of exactly
/// [`packed_b_len`] elements; as [`pack_a_slice`].
///
/// # Panics
///
/// As [`pack_b_into`], or if `out` has the wrong length.
pub fn pack_b_slice<T: Copy + Default>(
    b: &MatrixView<'_, T>,
    ks: Range<usize>,
    cols: Range<usize>,
    nr: usize,
    out: &mut [T],
) {
    assert!(nr > 0, "panel width must be positive");
    assert!(ks.end <= b.rows() && cols.end <= b.cols(), "pack_b range out of bounds");
    // A B column-panel is an A row-panel of Bᵀ: same k-major layout,
    // panel axis along the view's rows.
    pack_panels(&b.t(), cols, ks, nr, out);
}

/// The one packer behind both operands: `pw`-row panels of
/// `v[ps, ks]`, `panel[k·pw + i] = v[ps.start + p·pw + i, k]`, every
/// lane of `out` written. The source orientation picks the routine:
///
/// - k runs along storage (`v` row-contiguous: a row-major A, or a B
///   given as the transpose of a row-major matrix) — [`pack_rows`]
///   reads the panel's `pw` source rows side by side, for the register
///   widths the kernels use;
/// - the panel axis runs along storage (`vᵀ` row-contiguous: a
///   row-major B, a column-major or transposed A) — each k-step's
///   `pw` elements are one contiguous run, copied as such;
/// - anything else (two real strides) reads element by element.
fn pack_panels<T: Copy + Default>(
    v: &MatrixView<'_, T>,
    ps: Range<usize>,
    ks: Range<usize>,
    pw: usize,
    out: &mut [T],
) {
    let kc = ks.len();
    assert_eq!(out.len(), ps.len().div_ceil(pw) * kc * pw, "packed storage has the wrong length");
    if out.is_empty() {
        return;
    }
    if v.rows_contiguous() {
        match pw {
            4 => return pack_rows::<T, 4>(v, ps, ks, out),
            8 => return pack_rows::<T, 8>(v, ps, ks, out),
            16 => return pack_rows::<T, 16>(v, ps, ks, out),
            32 => return pack_rows::<T, 32>(v, ps, ks, out),
            _ => {}
        }
    }
    let zero = T::default();
    let vt = v.t();
    let runs = vt.rows_contiguous();
    for (p0, panel) in ps.clone().step_by(pw).zip(out.chunks_exact_mut(kc * pw)) {
        let height = pw.min(ps.end - p0);
        for (k, lanes) in ks.clone().zip(panel.chunks_exact_mut(pw)) {
            if runs {
                lanes[..height].copy_from_slice(&vt.row_slice(k)[p0..p0 + height]);
            } else {
                for (i, lane) in lanes[..height].iter_mut().enumerate() {
                    *lane = v.get(p0 + i, k);
                }
            }
            lanes[height..].fill(zero);
        }
    }
}

/// [`pack_panels`]' k-contiguous path: one pass over k that reads the
/// panel's `PW` source rows side by side and writes all `PW` elements
/// of a k-step together, so every destination byte is written exactly
/// once and in order. Only the ragged last panel pays for padding.
#[allow(clippy::needless_range_loop)] // `k` indexes the slices inside `src`, not `src`
fn pack_rows<T: Copy + Default, const PW: usize>(
    v: &MatrixView<'_, T>,
    ps: Range<usize>,
    ks: Range<usize>,
    out: &mut [T],
) {
    let zero = T::default();
    let kc = ks.len();
    for (p0, panel) in ps.clone().step_by(PW).zip(out.chunks_exact_mut(kc * PW)) {
        let height = PW.min(ps.end - p0);
        // Lanes past the ragged edge alias the last real row so the
        // array stays full; they are replaced by zeros below.
        let src: [&[T]; PW] =
            std::array::from_fn(|i| &v.row_slice(p0 + i.min(height - 1))[ks.clone()]);
        let steps = panel.chunks_exact_mut(PW);
        if height == PW {
            for (k, lanes) in steps.enumerate() {
                lanes.copy_from_slice(&std::array::from_fn::<T, PW, _>(|i| src[i][k]));
            }
        } else {
            for (k, lanes) in steps.enumerate() {
                lanes.copy_from_slice(&std::array::from_fn::<T, PW, _>(|i| {
                    if i < height { src[i][k] } else { zero }
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use streamk_types::Layout;

    fn counting(rows: usize, cols: usize, layout: Layout) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, layout, |r, c| (r * 100 + c) as f64)
    }

    #[test]
    fn a_panels_are_k_major() {
        let a = counting(6, 4, Layout::RowMajor);
        let mut out = Vec::new();
        pack_a_into(&a.view(), 0..6, 0..4, 4, &mut out);
        assert_eq!(out.len(), packed_a_len(6, 4, 4));
        // Panel 0, k = 0: rows 0..4 of column 0.
        assert_eq!(&out[0..4], &[0.0, 100.0, 200.0, 300.0]);
        // Panel 0, k = 3: rows 0..4 of column 3.
        assert_eq!(&out[12..16], &[3.0, 103.0, 203.0, 303.0]);
        // Panel 1 (rows 4..6, zero-padded to 4), k = 0.
        assert_eq!(&out[16..20], &[400.0, 500.0, 0.0, 0.0]);
    }

    #[test]
    fn b_panels_are_k_major() {
        let b = counting(3, 6, Layout::RowMajor);
        let mut out = Vec::new();
        pack_b_into(&b.view(), 0..3, 0..6, 4, &mut out);
        assert_eq!(out.len(), packed_b_len(3, 6, 4));
        // Panel 0, k = 0: cols 0..4 of row 0.
        assert_eq!(&out[0..4], &[0.0, 1.0, 2.0, 3.0]);
        // Panel 0, k = 2.
        assert_eq!(&out[8..12], &[200.0, 201.0, 202.0, 203.0]);
        // Panel 1 (cols 4..6, zero-padded), k = 1.
        assert_eq!(&out[16..20], &[104.0, 105.0, 0.0, 0.0]);
    }

    #[test]
    fn sub_ranges_offset_correctly() {
        let a = counting(8, 8, Layout::RowMajor);
        let mut out = Vec::new();
        pack_a_into(&a.view(), 2..5, 3..6, 2, &mut out);
        // Panel 0 rows 2..4, k = 3..6; first entry is A[2,3].
        assert_eq!(out[0], 203.0);
        assert_eq!(out[1], 303.0);
        // Panel 1 row 4 (padded), k = 3.
        assert_eq!(&out[6..8], &[403.0, 0.0]);
    }

    #[test]
    fn strided_views_normalize_to_the_same_panels() {
        let row = counting(7, 5, Layout::RowMajor);
        let col = row.to_layout(Layout::ColMajor);
        let (mut pr, mut pc) = (Vec::new(), Vec::new());
        pack_a_into(&row.view(), 0..7, 0..5, 4, &mut pr);
        pack_a_into(&col.view(), 0..7, 0..5, 4, &mut pc);
        assert_eq!(pr, pc);
        pack_b_into(&row.view(), 0..7, 0..5, 4, &mut pr);
        pack_b_into(&col.view(), 0..7, 0..5, 4, &mut pc);
        assert_eq!(pr, pc);
        // A transposed view packs the logical (not stored) element.
        let mut pt = Vec::new();
        pack_a_into(&row.t(), 0..5, 0..7, 4, &mut pt);
        assert_eq!(pt[0], row.get(0, 0));
        assert_eq!(pt[1], row.get(0, 1)); // logical row 1 of Aᵀ
    }

    /// Every fast path against the element-wise `get()` path (reached
    /// through a view with two real strides): identical bytes for both
    /// operands, both source orientations — k along storage
    /// ([`pack_rows`]) and the panel axis along storage (the run copy)
    /// — every register width the kernels use plus one they do not,
    /// every ragged panel edge and k sub-range, with a dirty `out` (an
    /// oversized one for A) so a pad lane that is skipped rather than
    /// written would show.
    #[test]
    fn single_pass_a_path_matches_the_generic_path() {
        // Every second row and column of a larger matrix: neither
        // orientation is contiguous.
        let big = counting(42, 74, Layout::RowMajor);
        let strided = MatrixView::from_parts(big.as_slice(), 21, 37, 2 * 74, 2);
        let row = strided.to_matrix();
        let col = row.to_layout(Layout::ColMajor);
        assert!(!strided.rows_contiguous() && !strided.t().rows_contiguous());
        assert!(row.view().rows_contiguous() && col.t().rows_contiguous());
        // The source each operand's packer sees: A as given, B as Bᵀ.
        let a_sources = [("rows", row.view()), ("runs", col.view())];
        let b_sources = [("rows", row.t()), ("runs", col.t())];
        for (path, a) in a_sources {
            assert_eq!(a.rows_contiguous(), path == "rows");
        }
        for (path, b) in b_sources {
            assert_eq!(b.t().rows_contiguous(), path == "rows");
        }
        for pw in [4, 8, 16, 32, 3] {
            for ps in [0..21, 0..8, 3..4, 5..18, 16..21, 7..7] {
                for ks in [0..37, 0..1, 5..29, 36..37, 11..11] {
                    let what = format!("pw {pw} panels {ps:?} ks {ks:?}");
                    let mut generic = Vec::new();
                    pack_a_into(&strided, ps.clone(), ks.clone(), pw, &mut generic);
                    assert_eq!(generic.len(), packed_a_len(ps.len(), ks.len(), pw));
                    for (path, a) in a_sources {
                        let mut fast = vec![-1.0; 8192];
                        pack_a_into(&a, ps.clone(), ks.clone(), pw, &mut fast);
                        assert_eq!(fast, generic, "A {path} {what}");
                    }
                    pack_b_into(&strided.t(), ks.clone(), ps.clone(), pw, &mut generic);
                    assert_eq!(generic.len(), packed_b_len(ks.len(), ps.len(), pw));
                    for (path, b) in b_sources {
                        let mut fast = vec![-1.0; generic.len()];
                        pack_b_slice(&b, ks.clone(), ps.clone(), pw, &mut fast);
                        assert_eq!(fast, generic, "B {path} {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn buffers_are_reused_without_reallocation() {
        let a = counting(16, 16, Layout::RowMajor);
        let mut out = Vec::new();
        pack_a_into(&a.view(), 0..16, 0..16, 8, &mut out);
        let cap = out.capacity();
        let ptr = out.as_ptr();
        for _ in 0..10 {
            pack_a_into(&a.view(), 0..16, 0..16, 8, &mut out);
        }
        assert_eq!(out.capacity(), cap);
        assert_eq!(out.as_ptr(), ptr);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oversized_pack_range_panics() {
        let a = counting(4, 4, Layout::RowMajor);
        let mut out = Vec::new();
        pack_a_into(&a.view(), 0..5, 0..4, 4, &mut out);
    }
}
