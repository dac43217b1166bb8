//! Runtime-dispatched SIMD register blocks, addressed by strides.
//!
//! The scalar register block (`microkernel::packed_block`) leaves
//! vectorization to LLVM; this module writes the vector code by hand
//! with `std::arch::x86_64` intrinsics and picks the widest
//! instruction set the host supports at run time
//! ([`SimdLevel::detect`], backed by `is_x86_feature_detected!`).
//! Non-x86 targets (and hosts without AVX2) still build and run: the
//! dispatcher simply reports no match and the caller falls through to
//! the portable scalar block.
//!
//! **Bit-exactness.** The repo's invariant is that every kernel
//! accumulates each output element in ascending-k order with one
//! *fused* multiply-add per MAC (DESIGN.md §9). These kernels keep
//! both properties:
//!
//! - vectorization is across the `NR` output *columns* — each lane
//!   owns one output element and still sees its k-terms in ascending
//!   order, one per k-step;
//! - each k-step issues one `vfmadd` per accumulator, so every lane
//!   performs exactly the single IEEE-754 rounding the scalar
//!   [`Scalar::mac`] (`mul_add`) performs, and f64 results are
//!   bit-identical to the scalar MAC loop — the property tests pin
//!   this. There is no vector multiply feeding a vector add anywhere
//!   in this module, and no level without FMA: [`SimdLevel::detect`]
//!   reports `Avx2` only where `fma` is present too.
//!
//! Dispatch is two-level: a `TypeId` check narrows the generic
//! `In`/`Acc` pair to a concrete element type (f32×f32 or f64×f64 —
//! mixed-precision f16 inputs fall back to scalar), then a match on
//! `(level, MR, NR)` selects a monomorphized kernel whose accumulator
//! tile `[[vector; NVEC]; MR]` stays in registers across the whole
//! k-loop. Only the shapes `KernelKind::panel_geometry` gives have an
//! arm — `8 × 32` over f32, `8 × 16` over f64; any other shape reports
//! no match and runs the portable block.
//!
//! **One walk for packed and in-place operands.** A kernel reads A as
//! `a[i·rs + k·ks]` and B as `b[k·ks + j]` ([`Strided`]): a packed
//! panel is the strides `(1, MR)` / `NR`, an operand read where it
//! lies carries its view's strides, and there is no second kernel for
//! either. The k-order and the fused multiply-add do not depend on the
//! strides, so neither does a single result bit.
//!
//! **Accumulators.** A kernel's `MR × NR` accumulators come from and
//! go back to an `AccBlock`: `MR` rows of `NR` elements a row stride
//! apart, in a workspace tile, a stack tile or **C** itself. A blank
//! block (the first k-chunk of a segment) starts them at +0.0 without
//! reading anything, a full one loads them; a scaled block stores
//! `α·acc` — one multiply per element, the epilogue's own rounding.
//!
//! **Bounds.** All pointer arithmetic on operands is in the
//! macro-generated kernels, each of which first runs
//! `assert_block_bounds`: `(MR−1)·rs + (kc−1)·ks < a.len()`,
//! `(kc−1)·ks + NR ≤ b.len()`, in checked arithmetic, and `c` is an
//! `MR × NR` block — whose rows its constructor proved valid
//! (`AccBlock::over` against a slice, `output::AccWindow::block`
//! against a window proved against C). The operand slices themselves
//! are cut in safe code (`MatrixView::strided_span`, `PanelSpan`) to
//! exactly the elements a block may touch, so a kernel that would read
//! a lane outside a view's window fails the assert instead of reading
//! it.

use std::any::TypeId;
use std::marker::PhantomData;
use std::mem::MaybeUninit;

#[cfg(target_arch = "x86_64")]
use streamk_matrix::LINE;
use streamk_matrix::{Promote, Scalar};

use crate::output::Fill;

/// The widest SIMD instruction set the dispatcher may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// No usable vector extension: always fall back to scalar code.
    None,
    /// 256-bit AVX2 with FMA3 (8 × f32 or 4 × f64 lanes).
    Avx2,
    /// 512-bit AVX-512F (16 × f32 or 8 × f64 lanes).
    Avx512,
}

impl SimdLevel {
    /// Detects the widest level this host supports. The underlying
    /// `is_x86_feature_detected!` result is cached by `std`, so this
    /// is cheap enough to call per MAC-loop invocation. Every level
    /// above `None` has a fused multiply-add: AVX-512F carries its own,
    /// and an AVX2 host without FMA3 reports `None` (the portable
    /// block computes the same bits through `mul_add`).
    #[must_use]
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return SimdLevel::Avx512;
            }
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::None
    }

    /// Stable lowercase name (the `Display` form).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::None => "none",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// `true` when `T` and `U` are the same concrete type.
fn same<T: 'static, U: 'static>() -> bool {
    TypeId::of::<T>() == TypeId::of::<U>()
}

/// Reinterprets a slice of `T` as a slice of `U`.
///
/// # Safety
///
/// `T` and `U` must be the same type (checked by the callers with
/// [`same`] immediately before the cast, which makes this a no-op
/// rename rather than a transmute between distinct layouts).
#[cfg(target_arch = "x86_64")]
unsafe fn cast_slice<T, U>(s: &[T]) -> &[U] {
    std::slice::from_raw_parts(s.as_ptr().cast::<U>(), s.len())
}

/// One operand of a register block, addressed by strides: lane `i` at
/// k-step `k` is `data[i · lane_stride + k · k_stride]`. A is read as
/// `MR` lanes (its rows), B as `NR` lanes of unit stride (its
/// columns). A packed panel is the case `(lane_stride, k_stride) =
/// (1, MR)` for A and `k_stride = NR` for B; an operand read where it
/// lies carries its view's strides.
#[derive(Debug, Clone, Copy)]
pub struct Strided<'a, T> {
    /// Storage from lane 0 of the block's first k-step on.
    pub data: &'a [T],
    /// Elements between adjacent lanes (ignored for B: always 1).
    pub lane_stride: usize,
    /// Elements between consecutive k-steps.
    pub k_stride: usize,
}

impl<'a, T> Strided<'a, T> {
    /// A packed `width`-lane panel: k-major, lanes adjacent.
    #[must_use]
    pub fn packed(data: &'a [T], width: usize) -> Self {
        Self { data, lane_stride: 1, k_stride: width }
    }

    /// The same operand with its element type renamed.
    ///
    /// # Safety
    ///
    /// As [`cast_slice`]: `T` and `U` must be the same type.
    #[cfg(target_arch = "x86_64")]
    unsafe fn cast<U>(self) -> Strided<'a, U> {
        Strided { data: cast_slice(self.data), lane_stride: self.lane_stride, k_stride: self.k_stride }
    }
}

/// The accumulators of one register block where they live between
/// k-chunks: `rows` rows of `cols` elements, `stride` apart, from `ptr`
/// — a block of an [`AccWindow`] over a workspace tile or over **C**
/// itself, or a stack tile. How they start and end goes with them:
///
/// - `fill` is `Some` while the window is blank: the block's
///   accumulators start at +0.0 and nothing is read, and storing every
///   element advances the window's first pass ([`Fill::stored`]). Once
///   the window is full (`None`) the block loads what it adds to.
/// - `scale` is `Some(α)` on the last k-chunk of a tile stored from the
///   register block: the block stores `α·acc`, the epilogue, in
///   registers. `None` stores the sums as they are.
///
/// [`AccWindow`]: crate::output::AccWindow
/// [`Fill::stored`]: crate::output::Fill::stored
pub(crate) struct AccBlock<'a, T> {
    ptr: *mut T,
    rows: usize,
    cols: usize,
    stride: usize,
    fill: Option<&'a mut Fill>,
    scale: Option<T>,
    _marker: PhantomData<&'a mut [MaybeUninit<T>]>,
}

impl<'a, T> AccBlock<'a, T> {
    /// A block over raw storage.
    ///
    /// # Safety
    ///
    /// For every row `i < rows`, the `cols` elements from `ptr +
    /// i·stride` must be valid for writes, accessed through nothing
    /// else for `'a`, and — when `fill` is `None` — initialised; rows
    /// must not overlap (`cols ≤ stride` when `rows > 1`).
    pub(crate) unsafe fn from_raw(
        ptr: *mut T,
        rows: usize,
        cols: usize,
        stride: usize,
        fill: Option<&'a mut Fill>,
        scale: Option<T>,
    ) -> Self {
        Self { ptr, rows, cols, stride, fill, scale, _marker: PhantomData }
    }

    /// A full `rows × cols` block over `c`, rows `stride` apart, stored
    /// as accumulated: a register block adds into what `c` holds.
    ///
    /// # Panics
    ///
    /// Panics if the block is empty, its rows overlap, or its last row
    /// ends past `c`.
    pub(crate) fn over(c: &'a mut [T], rows: usize, cols: usize, stride: usize) -> Self {
        let end = rows.checked_sub(1).and_then(|r| r.checked_mul(stride)?.checked_add(cols));
        assert!(
            cols > 0 && (rows == 1 || cols <= stride) && end.is_some_and(|end| end <= c.len()),
            "c is shorter than {rows} rows of {cols} at stride {stride}"
        );
        // SAFETY: every row lies inside `c` (asserted above), which `'a`
        // borrows exclusively and which holds values.
        unsafe { Self::from_raw(c.as_mut_ptr(), rows, cols, stride, None, None) }
    }

    /// The same block with its element type renamed.
    ///
    /// # Safety
    ///
    /// As [`cast_slice`]: `T` and `U` must be the same type.
    #[cfg(target_arch = "x86_64")]
    unsafe fn cast<U>(self) -> AccBlock<'a, U> {
        let scale = self.scale.map(|s| std::mem::transmute_copy::<T, U>(&s));
        AccBlock::from_raw(self.ptr.cast::<U>(), self.rows, self.cols, self.stride, self.fill, scale)
    }

    /// Records that every element of the block has been written: the
    /// next block of a first pass may be handed out.
    ///
    /// # Safety
    ///
    /// Every element of the block must have been written.
    unsafe fn stored(self) {
        if let Some(fill) = self.fill {
            fill.stored();
        }
    }
}

impl<T: Scalar> AccBlock<'_, T> {
    /// The block's accumulators in an `R × C` stack tile (`R ≥ rows`,
    /// `C ≥ cols`): zero throughout on a blank block, its values loaded
    /// with the padding zero otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit the stack tile.
    pub(crate) fn start<const R: usize, const C: usize>(&self) -> [[T; C]; R] {
        assert!(self.rows <= R && self.cols <= C, "a {}x{} block in a {R}x{C} tile", self.rows, self.cols);
        let mut acc = [[T::ZERO; C]; R];
        if self.fill.is_none() {
            for (i, row) in acc.iter_mut().enumerate().take(self.rows) {
                // SAFETY: row `i < rows` of the block: `cols` elements
                // valid for reads, initialised (the block is full), and
                // written by nothing else while `self` lives.
                let src = unsafe { std::slice::from_raw_parts(self.ptr.add(i * self.stride), self.cols) };
                row[..self.cols].copy_from_slice(src);
            }
        }
        acc
    }

    /// Stores the block's part of `acc` — scaled when the block says so —
    /// and marks it written.
    ///
    /// # Panics
    ///
    /// As [`start`](Self::start).
    pub(crate) fn finish<const R: usize, const C: usize>(self, acc: &[[T; C]; R]) {
        assert!(self.rows <= R && self.cols <= C, "a {}x{} block in a {R}x{C} tile", self.rows, self.cols);
        for (i, row) in acc.iter().enumerate().take(self.rows) {
            // SAFETY: row `i < rows` of the block: `cols` elements valid
            // for writes and accessed only through `self`. As
            // `MaybeUninit`, because a blank block over an unfilled
            // output holds no values yet.
            let dst = unsafe {
                std::slice::from_raw_parts_mut(self.ptr.add(i * self.stride).cast::<MaybeUninit<T>>(), self.cols)
            };
            for (d, &s) in dst.iter_mut().zip(row) {
                d.write(self.scale.map_or(s, |alpha| alpha * s));
            }
        }
        // SAFETY: the loop above wrote all `rows × cols` elements.
        unsafe { self.stored() }
    }
}

/// The bounds every register block — vector or scalar — asserts before
/// its k-loop, so that no k-step can read or write outside what it was
/// handed: the last A element `(MR−1)·rs + (kc−1)·ks` lies inside `a`,
/// the last B vector ends at `(kc−1)·ks + NR ≤ b.len()`, and `c` is an
/// `MR × NR` block (whose rows its constructor proved in bounds).
/// Offsets are computed with checked arithmetic: a stride large enough
/// to wrap is out of bounds, not in.
///
/// # Panics
///
/// Panics if any of the three does not hold. With `kc == 0` no operand
/// element is read and only `c` is checked.
pub(crate) fn assert_block_bounds<T, U>(
    a: &Strided<'_, T>,
    b: &Strided<'_, T>,
    kc: usize,
    mr: usize,
    nr: usize,
    c: &AccBlock<'_, U>,
) {
    let offset = |lanes: usize, ls: usize, steps: usize, ks: usize| {
        lanes.checked_mul(ls)?.checked_add(steps.checked_mul(ks)?)
    };
    assert!((c.rows, c.cols) == (mr, nr), "c is a {}x{} block, not {mr}x{nr}", c.rows, c.cols);
    let Some(steps) = kc.checked_sub(1) else { return };
    let a_last = offset(mr - 1, a.lane_stride, steps, a.k_stride);
    assert!(
        a_last.is_some_and(|last| last < a.data.len()),
        "A block reads past its slice: {mr} lanes at stride {}, {kc} k-steps at stride {}, len {}",
        a.lane_stride,
        a.k_stride,
        a.data.len()
    );
    let b_end = offset(steps, b.k_stride, 1, nr);
    assert!(
        b_end.is_some_and(|end| end <= b.data.len()),
        "B block reads past its slice: {nr} lanes, {kc} k-steps at stride {}, len {}",
        b.k_stride,
        b.data.len()
    );
}

/// Attempts one `MR × NR` register block over `kc` k-steps with the
/// host's vector unit, adding into the `MR` rows of `c` that start
/// `c_stride` elements apart. Returns `false` when no specialized
/// kernel exists for this `(level, element type, MR, NR)` combination
/// — the caller must then run the portable scalar block on the
/// *unmodified* `c` (the dispatcher never partially updates it).
///
/// # Panics
///
/// Panics if a k-step would leave `a`, `b` or `c`: the bounds in the
/// module docs are asserted before the k-loop.
pub fn simd_block<In, Acc, const MR_: usize, const NR_: usize>(
    level: SimdLevel,
    a: Strided<'_, In>,
    b: Strided<'_, In>,
    kc: usize,
    c: &mut [Acc],
    c_stride: usize,
) -> bool
where
    In: Promote<Acc>,
    Acc: Scalar,
{
    vector_block::<In, Acc, MR_, NR_>(level, a, b, kc, AccBlock::over(c, MR_, NR_, c_stride)).is_ok()
}

/// One `MR × NR` register block over `kc` k-steps into `c` — started
/// and stored as `c` says ([`AccBlock`]) — on the host's vector unit.
/// Hands `c` back untouched when no kernel exists for this `(level,
/// element type, MR, NR)`, for the portable block to run.
///
/// # Panics
///
/// As [`simd_block`].
pub(crate) fn vector_block<'c, In, Acc, const MR_: usize, const NR_: usize>(
    level: SimdLevel,
    a: Strided<'_, In>,
    b: Strided<'_, In>,
    kc: usize,
    c: AccBlock<'c, Acc>,
) -> Result<(), AccBlock<'c, Acc>>
where
    In: Promote<Acc>,
    Acc: Scalar,
{
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (both arms): the TypeId check names the one element
        // type `In` and `Acc` both are, so the casts only rename it;
        // each kernel runs only at the level `detect` confirmed the
        // host supports, NVEC · lanes equals NR, and the kernels
        // assert every bound themselves.
        if same::<In, f32>() && same::<Acc, f32>() {
            unsafe {
                match (level, MR_, NR_) {
                    (SimdLevel::Avx512, 8, 32) => avx512_f32::<8, 2>(a.cast(), b.cast(), kc, c.cast()),
                    (SimdLevel::Avx2, 8, 32) => avx2_f32::<8, 4>(a.cast(), b.cast(), kc, c.cast()),
                    _ => return Err(c),
                }
            }
            return Ok(());
        }
        if same::<In, f64>() && same::<Acc, f64>() {
            unsafe {
                match (level, MR_, NR_) {
                    (SimdLevel::Avx512, 8, 16) => avx512_f64::<8, 2>(a.cast(), b.cast(), kc, c.cast()),
                    (SimdLevel::Avx2, 8, 16) => avx2_f64::<8, 4>(a.cast(), b.cast(), kc, c.cast()),
                    _ => return Err(c),
                }
            }
            return Ok(());
        }
    }
    let _ = (level, a, b, kc);
    Err(c)
}

/// How far ahead, in k-steps, a vector block prefetches B's row
/// (DESIGN.md §9, "Prefetching the streamed operand"). A B read in
/// place starts every k-step a row of its view further on — up to
/// 2 KiB, where a packed panel moves 128 B — and the hardware
/// prefetcher does not stay ahead of that. 16 k-steps is 2 KiB ahead on
/// a packed panel and 28 KiB at a 1,792 B stride. Fixed by a sweep over
/// 8–32 (EXPERIMENTS.md); not a setting.
#[cfg(target_arch = "x86_64")]
const PF: usize = 16;

/// Expands to one `#[target_feature]` block kernel: `MR` rows by
/// `NVEC` vector registers of output, accumulators held in registers
/// across the whole k-loop — started at zero or loaded from `c`, and
/// stored to `c`, scaled by `α` when `c` asks, only at the block
/// boundaries. Each k-step broadcasts one A element per row and issues
/// one fused multiply-add per accumulator — the single rounding the
/// scalar `mac` performs — and `α` is one multiply per element, the
/// single rounding of the epilogue's `α·acc`. Operands are addressed by
/// their strides; the walk over a packed panel is this walk with
/// strides `(1, MR)` / `NR`. Each k-step also prefetches the lines of
/// B's row `PF` k-steps on — a hint, never a read, so the arithmetic
/// and every result bit are what they were without it.
#[cfg(target_arch = "x86_64")]
macro_rules! simd_block_kernel {
    ($name:ident, $feature:literal, $elem:ty, $lanes:expr,
     $setzero:ident, $loadu:ident, $storeu:ident, $set1:ident, $fmadd:ident, $mul:ident) => {
        /// # Safety
        ///
        /// The host must support the enabled target feature.
        #[target_feature(enable = $feature)]
        unsafe fn $name<const MR_: usize, const NVEC: usize>(
            a: Strided<'_, $elem>,
            b: Strided<'_, $elem>,
            kc: usize,
            c: AccBlock<'_, $elem>,
        ) {
            use std::arch::x86_64::*;
            let nr = NVEC * $lanes;
            assert_block_bounds(&a, &b, kc, MR_, nr, &c);
            let (ap, a_ls, a_ks) = (a.data.as_ptr(), a.lane_stride, a.k_stride);
            let (bp, b_ks) = (b.data.as_ptr(), b.k_stride);
            let (cp, cs) = (c.ptr, c.stride);
            // SAFETY (every pointer access below): `assert_block_bounds`
            // just proved that `c` is `MR_` rows of `nr`, each valid for
            // writes from `i · cs` (and for reads when the block is
            // full, which is when it is loaded), and that for every
            // `k < kc` the A element `i · a_ls + k · a_ks` and the `nr`
            // B elements from `k · b_ks` lie inside their slices
            // (offsets grow with `i` and `k`, so the checked last one
            // bounds them all).
            let mut acc = [[$setzero(); NVEC]; MR_];
            if c.fill.is_none() {
                for (i, row) in acc.iter_mut().enumerate() {
                    for (v, reg) in row.iter_mut().enumerate() {
                        *reg = $loadu(cp.add(i * cs + v * $lanes));
                    }
                }
            }
            // The one k-loop, expanded twice: over packed panels the
            // three strides are the constants `(1, MR, NR)`, which the
            // narrow blocks need folded into their addressing (4×16
            // ran a tenth slower on runtime strides); anything else
            // walks the strides it was given. Both prefetch B's row
            // `PF` k-steps ahead, one hint per line of it.
            //
            // SAFETY (the prefetch): in the block's last `PF` k-steps
            // that address lies past `b`, which the bounds above do not
            // cover. It is formed with `wrapping_add`, because an `add`
            // past the allocation is undefined, and only prefetched: a
            // prefetch never faults and loads nothing into a register.
            let b_lines = (nr * std::mem::size_of::<$elem>()).div_ceil(LINE);
            macro_rules! walk {
                ($a_ls:expr, $a_ks:expr, $b_ks:expr) => {
                    for k in 0..kc {
                        let acol = ap.add(k * $a_ks);
                        let brow = bp.add(k * $b_ks);
                        let ahead = brow.wrapping_add(PF.wrapping_mul($b_ks)).cast::<i8>();
                        for line in 0..b_lines {
                            _mm_prefetch::<_MM_HINT_T0>(ahead.wrapping_add(line * LINE));
                        }
                        let mut bv = [$setzero(); NVEC];
                        for (v, reg) in bv.iter_mut().enumerate() {
                            *reg = $loadu(brow.add(v * $lanes));
                        }
                        for (i, row) in acc.iter_mut().enumerate() {
                            let ai = $set1(*acol.add(i * $a_ls));
                            for (reg, &b) in row.iter_mut().zip(&bv) {
                                // One rounding per lane per k-step:
                                // bit-identical to the scalar mac.
                                *reg = $fmadd(ai, b, *reg);
                            }
                        }
                    }
                };
            }
            if (a_ls, a_ks, b_ks) == (1, MR_, nr) {
                walk!(1, MR_, nr);
            } else {
                walk!(a_ls, a_ks, b_ks);
            }
            if let Some(alpha) = c.scale {
                let alpha = $set1(alpha);
                for row in acc.iter_mut() {
                    for reg in row.iter_mut() {
                        *reg = $mul(alpha, *reg);
                    }
                }
            }
            for (i, row) in acc.iter().enumerate() {
                for (v, &reg) in row.iter().enumerate() {
                    $storeu(cp.add(i * cs + v * $lanes), reg);
                }
            }
            // SAFETY: the loop above wrote all `MR_ × nr` elements.
            c.stored();
        }
    };
}

#[cfg(target_arch = "x86_64")]
simd_block_kernel!(
    avx2_f32,
    "avx2,fma",
    f32,
    8,
    _mm256_setzero_ps,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_fmadd_ps,
    _mm256_mul_ps
);
#[cfg(target_arch = "x86_64")]
simd_block_kernel!(
    avx2_f64,
    "avx2,fma",
    f64,
    4,
    _mm256_setzero_pd,
    _mm256_loadu_pd,
    _mm256_storeu_pd,
    _mm256_set1_pd,
    _mm256_fmadd_pd,
    _mm256_mul_pd
);
#[cfg(target_arch = "x86_64")]
simd_block_kernel!(
    avx512_f32,
    "avx512f",
    f32,
    16,
    _mm512_setzero_ps,
    _mm512_loadu_ps,
    _mm512_storeu_ps,
    _mm512_set1_ps,
    _mm512_fmadd_ps,
    _mm512_mul_ps
);
#[cfg(target_arch = "x86_64")]
simd_block_kernel!(
    avx512_f64,
    "avx512f",
    f64,
    8,
    _mm512_setzero_pd,
    _mm512_loadu_pd,
    _mm512_storeu_pd,
    _mm512_set1_pd,
    _mm512_fmadd_pd,
    _mm512_mul_pd
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microkernel::packed_block;
    use crate::output::AccWindow;

    fn values(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    /// The operand layouts a block meets: `(A lane stride, A k-stride,
    /// B k-stride)` as functions of the block shape — packed panels, a
    /// row-major A beside a row-major B wider than the block, a
    /// transposed A, and two real strides.
    fn layouts(mr: usize, nr: usize, kc: usize) -> [(usize, usize, usize); 4] {
        [(1, mr, nr), (kc + 3, 1, nr + 5), (1, mr + 2, nr), (kc * 2 + 1, 2, 2 * nr)]
    }

    /// Exactly the elements a block with these strides may touch.
    fn operand(lanes: usize, ls: usize, kc: usize, ks: usize, seed: u64) -> Vec<f64> {
        values(if kc == 0 { 0 } else { (lanes - 1) * ls + (kc - 1) * ks + 1 }, seed)
    }

    /// The contract from outside [`Scalar::mac`]: one block's update
    /// written with the element type's own `mul_add` (`fused`) or as
    /// `c + a * b`, ascending k per output element.
    trait Chain: Copy {
        fn step(self, a: Self, b: Self, fused: bool) -> Self;
    }
    impl Chain for f64 {
        fn step(self, a: f64, b: f64, fused: bool) -> f64 {
            if fused { f64::mul_add(a, b, self) } else { self + a * b }
        }
    }
    impl Chain for f32 {
        fn step(self, a: f32, b: f32, fused: bool) -> f32 {
            if fused { f32::mul_add(a, b, self) } else { self + a * b }
        }
    }

    fn oracle_block<T: Chain>(
        a: Strided<'_, T>,
        b: Strided<'_, T>,
        kc: usize,
        (mr, nr): (usize, usize),
        c: &mut [T],
        c_stride: usize,
        fused: bool,
    ) {
        for i in 0..mr {
            for j in 0..nr {
                let cv = &mut c[i * c_stride + j];
                for k in 0..kc {
                    *cv = cv.step(a.data[i * a.lane_stride + k * a.k_stride], b.data[k * b.k_stride + j], fused);
                }
            }
        }
    }

    /// One element type through the `mul_add` oracle, the portable
    /// block and `level`'s vector block. Returns whether the `c + a * b`
    /// chain gave different bits on this data.
    fn check_block<T, const MR_: usize, const NR_: usize>(
        level: SimdLevel,
        a: Strided<'_, T>,
        b: Strided<'_, T>,
        kc: usize,
        c0: &[T],
        c_stride: usize,
        what: &str,
    ) -> bool
    where
        T: Chain + Promote<T> + Scalar,
    {
        let mut oracle = c0.to_vec();
        oracle_block(a, b, kc, (MR_, NR_), &mut oracle, c_stride, true);
        let mut portable = c0.to_vec();
        packed_block::<T, T, MR_, NR_>(a, b, kc, AccBlock::over(&mut portable, MR_, NR_, c_stride));
        assert_eq!(portable, oracle, "portable block is not the mul_add chain: {what}");
        let mut got = c0.to_vec();
        if simd_block::<T, T, MR_, NR_>(level, a, b, kc, &mut got, c_stride) {
            assert_eq!(got, oracle, "vector block is not the mul_add chain: {what}");
        } else {
            assert_eq!(got, c0, "failed dispatch must leave c untouched");
        }

        // A blank block — a segment's first k-chunk — starts at zero
        // whatever `c` holds and reads none of it; a scaled one stores
        // `α·acc`, one rounding after the chain. Only the block's own
        // elements are written.
        let (stale, alpha) = (T::from_f64(7.0), T::from_f64(1.5));
        let mut want = vec![stale; c0.len()];
        let block = |i: usize| i * c_stride..i * c_stride + NR_;
        (0..MR_).for_each(|i| want[block(i)].fill(T::ZERO));
        oracle_block(a, b, kc, (MR_, NR_), &mut want, c_stride, true);
        (0..MR_).for_each(|i| want[block(i)].iter_mut().for_each(|v| *v = alpha * *v));
        for portable in [true, false] {
            let mut got = vec![stale; c0.len()];
            let mut window = AccWindow::blank(&mut got, MR_, NR_, c_stride);
            let c = window.block(0, 0, MR_, NR_, Some(alpha));
            if portable {
                packed_block::<T, T, MR_, NR_>(a, b, kc, c);
            } else if vector_block::<T, T, MR_, NR_>(level, a, b, kc, c).is_err() {
                continue;
            }
            assert!(window.is_full(), "a stored block fills its window: {what}");
            assert_eq!(got, want, "blank scaled block (portable: {portable}): {what}");
        }
        let mut unfused = c0.to_vec();
        oracle_block(a, b, kc, (MR_, NR_), &mut unfused, c_stride, false);
        unfused != oracle
    }

    fn check_level<const MR_: usize, const NR_: usize>(level: SimdLevel) {
        let mut told_apart = [false; 2];
        for kc in [0usize, 1, 3, 17, 64] {
            for (a_ls, a_ks, b_ks) in layouts(MR_, NR_, kc) {
                for c_stride in [NR_, NR_ + 7] {
                    let a64 = operand(MR_, a_ls, kc, a_ks, (kc + MR_ * NR_) as u64);
                    // B's lanes are adjacent: its last k-step ends NR in.
                    let b64 = operand(NR_, 1, kc, b_ks, (kc + a_ls) as u64);
                    let c64 = values((MR_ - 1) * c_stride + NR_, 99);
                    let what = format!("{level} {MR_}x{NR_} kc={kc} a=({a_ls},{a_ks}) b={b_ks} c={c_stride}");
                    fn strided<'a, T>(
                        (a, a_ls, a_ks): (&'a [T], usize, usize),
                        (b, b_ks): (&'a [T], usize),
                    ) -> (Strided<'a, T>, Strided<'a, T>) {
                        (
                            Strided { data: a, lane_stride: a_ls, k_stride: a_ks },
                            Strided { data: b, lane_stride: 1, k_stride: b_ks },
                        )
                    }

                    let (a, b) = strided((&a64, a_ls, a_ks), (&b64, b_ks));
                    told_apart[0] |= check_block::<f64, MR_, NR_>(level, a, b, kc, &c64, c_stride, &what);

                    let a32: Vec<f32> = a64.iter().map(|&v| v as f32).collect();
                    let b32: Vec<f32> = b64.iter().map(|&v| v as f32).collect();
                    let c32: Vec<f32> = c64.iter().map(|&v| v as f32).collect();
                    let (a, b) = strided((&a32, a_ls, a_ks), (&b32, b_ks));
                    told_apart[1] |= check_block::<f32, MR_, NR_>(level, a, b, kc, &c32, c_stride, &what);
                }
            }
        }
        assert_eq!(told_apart, [true; 2], "this data cannot tell a fused MAC from an unfused one (f64, f32)");
    }

    /// Every level the host supports: an AVX-512 host can and should
    /// also run the AVX2 kernels (AVX-512F implies FMA3).
    fn host_levels() -> Vec<SimdLevel> {
        let host = SimdLevel::detect();
        let mut levels = vec![SimdLevel::None];
        if matches!(host, SimdLevel::Avx2 | SimdLevel::Avx512) {
            levels.push(SimdLevel::Avx2);
        }
        if host == SimdLevel::Avx512 {
            levels.push(SimdLevel::Avx512);
        }
        levels
    }

    #[test]
    fn every_block_shape_matches_scalar_at_every_level_and_stride() {
        // Every operand slice ends at the last element the block may
        // read, so a kernel that reads one lane further fails its own
        // bounds assert. The expected bits come from `oracle_block`,
        // which never calls `Scalar::mac`: the portable block (all
        // Miri runs) and every vector block must *be* the `mul_add`
        // chain, on data where the `c + a * b` chain is not.
        for level in host_levels() {
            check_level::<4, 4>(level);
            check_level::<8, 4>(level);
            check_level::<4, 8>(level);
            check_level::<8, 8>(level);
            check_level::<8, 16>(level);
            check_level::<8, 32>(level);
        }
    }

    /// One element short on any of the three slices is refused before
    /// the k-loop, by the vector kernels and the scalar block alike.
    #[test]
    fn a_block_that_would_leave_its_slices_is_refused() {
        const MR_: usize = 8;
        const NR_: usize = 32;
        let (kc, a_ls, a_ks, b_ks, c_stride) = (5, 9, 1, 40, 48);
        let a = vec![1.0f32; (MR_ - 1) * a_ls + (kc - 1) * a_ks + 1];
        let b = vec![1.0f32; (kc - 1) * b_ks + NR_];
        let c = vec![0.0f32; (MR_ - 1) * c_stride + NR_];
        let run = |a: &[f32], b: &[f32], c: &[f32], scalar: bool| {
            let (a, b) = (
                Strided { data: a, lane_stride: a_ls, k_stride: a_ks },
                Strided { data: b, lane_stride: 1, k_stride: b_ks },
            );
            let mut c = c.to_vec();
            std::panic::catch_unwind(move || {
                if scalar || !simd_block::<f32, f32, MR_, NR_>(SimdLevel::detect(), a, b, kc, &mut c, c_stride) {
                    packed_block::<f32, f32, MR_, NR_>(a, b, kc, AccBlock::over(&mut c, MR_, NR_, c_stride));
                }
            })
            .is_ok()
        };
        for scalar in [false, true] {
            assert!(run(&a, &b, &c, scalar), "exact slices are in bounds");
            assert!(!run(&a[..a.len() - 1], &b, &c, scalar), "short A");
            assert!(!run(&a, &b[..b.len() - 1], &c, scalar), "short B");
            assert!(!run(&a, &b, &c[..c.len() - 1], scalar), "short C");
        }
        // A stride that wraps the offset arithmetic is out of bounds.
        let huge = Strided { data: &a[..], lane_stride: usize::MAX / 2, k_stride: 1 };
        let b = Strided { data: &b[..], lane_stride: 1, k_stride: b_ks };
        let mut c = c;
        let c = AccBlock::over(&mut c, MR_, NR_, c_stride);
        let refused = std::panic::catch_unwind(|| assert_block_bounds(&huge, &b, kc, MR_, NR_, &c));
        assert!(refused.is_err(), "wrapping offsets must not pass");
    }

    /// The vector blocks prefetch B's row `PF` k-steps ahead, so the
    /// last `PF` k-steps of every block name rows past the end of B's
    /// slice. A prefetch is a hint, not a load: on slices cut to the
    /// last element the block reads, blocks shorter than, as long as
    /// and longer than `PF` pass their bounds assert and equal the
    /// `mul_add` chain at every level — over a packed B and a B read in
    /// place at 256 B, 1 KiB and 2 KiB k-strides (from `direct-deepk`'s
    /// narrowest B to `IN_PLACE_K_STRIDE`), beside a packed and an
    /// in-place row-major A.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn a_prefetch_past_the_end_of_b_stays_in_bounds() {
        fn at<T, const MR_: usize, const NR_: usize>(level: SimdLevel, kc: usize, b_bytes: usize, a_rows: bool)
        where
            T: Chain + Promote<T> + Scalar,
        {
            let b_ks = if b_bytes == 0 { NR_ } else { b_bytes / std::mem::size_of::<T>() };
            let (a_ls, a_ks) = if a_rows { (kc + 3, 1) } else { (1, MR_) };
            let a: Vec<T> = operand(MR_, a_ls, kc, a_ks, kc as u64).into_iter().map(T::from_f64).collect();
            let b: Vec<T> = operand(NR_, 1, kc, b_ks, b_bytes as u64).into_iter().map(T::from_f64).collect();
            let c: Vec<T> = values(MR_ * NR_, 5).into_iter().map(T::from_f64).collect();
            let what = format!("{level} {MR_}x{NR_} kc={kc} a=({a_ls},{a_ks}) b={b_ks}");
            let (a, b) = (
                Strided { data: &a[..], lane_stride: a_ls, k_stride: a_ks },
                Strided { data: &b[..], lane_stride: 1, k_stride: b_ks },
            );
            check_block::<T, MR_, NR_>(level, a, b, kc, &c, NR_, &what);
        }
        for level in host_levels() {
            for kc in [1, PF - 1, PF, PF + 1, 3 * PF + 5] {
                for b_bytes in [0, 256, 1024, 2048] {
                    for a_rows in [false, true] {
                        at::<f32, 8, 32>(level, kc, b_bytes, a_rows);
                        at::<f64, 8, 16>(level, kc, b_bytes, a_rows);
                    }
                }
            }
        }
    }

    /// Only the register block's own shapes have a vector kernel:
    /// every other `(MR, NR)` — 4 × 16, f32 at the f64 shape and the
    /// converse, and a shape no block has — reports no match and leaves
    /// `c` alone.
    #[test]
    fn unsupported_shapes_report_false() {
        fn refused<T: Promote<T> + Scalar, const MR_: usize, const NR_: usize>() {
            let a = vec![T::ONE; 2 * MR_];
            let b = vec![T::ONE; 2 * NR_];
            let mut c = vec![T::ZERO; MR_ * NR_];
            let level = SimdLevel::detect();
            let ran = simd_block::<T, T, MR_, NR_>(level, Strided::packed(&a, MR_), Strided::packed(&b, NR_), 2, &mut c, NR_);
            assert!(!ran, "{level} has no {MR_}x{NR_} kernel");
            assert!(c.iter().all(|&v| v == T::ZERO), "failed dispatch must not touch c");
        }
        refused::<f64, 2, 4>();
        refused::<f32, 4, 16>();
        refused::<f32, 8, 16>();
        refused::<f64, 4, 16>();
        refused::<f64, 8, 32>();
    }

    #[test]
    fn detect_reports_a_stable_name() {
        let level = SimdLevel::detect();
        assert!(["none", "avx2", "avx512"].contains(&level.name()));
        assert_eq!(level, SimdLevel::detect(), "detection must be stable");
    }

    #[test]
    fn mixed_precision_inputs_fall_back() {
        use streamk_matrix::f16;
        let a = [f16::from_f32(1.0); 8];
        let b = [f16::from_f32(2.0); 32];
        let mut c = [0.0f32; 256];
        // f16 inputs have no vector kernel: must report false so the
        // caller runs the scalar promote path.
        assert!(!simd_block::<f16, f32, 8, 32>(
            SimdLevel::detect(),
            Strided::packed(&a, 8),
            Strided::packed(&b, 32),
            1,
            &mut c,
            32
        ));
    }
}
