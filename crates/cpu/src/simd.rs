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
//! **Bounds.** All pointer arithmetic is in the macro-generated
//! kernels, each of which first runs `assert_block_bounds`:
//! `(MR−1)·rs + (kc−1)·ks < a.len()`, `(kc−1)·ks + NR ≤ b.len()` and
//! `(MR−1)·c_stride + NR ≤ c.len()`, in checked arithmetic. The slices
//! themselves are cut in safe code (`MatrixView::strided_span`,
//! `PanelSpan`) to exactly the elements a block may touch, so a kernel
//! that would read a lane outside a view's window fails the assert
//! instead of reading it.

use std::any::TypeId;

use streamk_matrix::{Promote, Scalar};

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

/// [`cast_slice`] for an exclusive borrow.
///
/// # Safety
///
/// As [`cast_slice`].
#[cfg(target_arch = "x86_64")]
unsafe fn cast_slice_mut<T, U>(s: &mut [T]) -> &mut [U] {
    std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<U>(), s.len())
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

/// The bounds every register block — vector or scalar — asserts before
/// its k-loop, so that no k-step can read or write outside the slices
/// it was handed: the last A element `(MR−1)·rs + (kc−1)·ks` lies
/// inside `a`, the last B vector ends at `(kc−1)·ks + NR ≤ b.len()`,
/// and the last C row ends inside `c`. Offsets are computed with
/// checked arithmetic: a stride large enough to wrap is out of bounds,
/// not in.
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
    c: &[U],
    c_stride: usize,
) {
    let offset = |lanes: usize, ls: usize, steps: usize, ks: usize| {
        lanes.checked_mul(ls)?.checked_add(steps.checked_mul(ks)?)
    };
    let c_end = offset(mr - 1, c_stride, 1, nr);
    assert!(c_end.is_some_and(|end| end <= c.len()), "c is shorter than MR rows of NR at stride {c_stride}");
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
/// host's vector unit, accumulating into the `MR` rows of `c` that
/// start `c_stride` elements apart. Returns `false` when no
/// specialized kernel exists for this `(level, element type, MR, NR)`
/// combination — the caller must then run the portable scalar block on
/// the *unmodified* `c` (the dispatcher never partially updates it).
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
    if level == SimdLevel::None {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if same::<In, f32>() && same::<Acc, f32>() {
            // SAFETY: In = f32 and Acc = f32 (TypeId equality just
            // checked), so these casts only rename the element type.
            let (a, b, c) = unsafe {
                (
                    a.cast::<f32>(),
                    b.cast::<f32>(),
                    cast_slice_mut::<Acc, f32>(c),
                )
            };
            return dispatch_f32::<MR_, NR_>(level, a, b, kc, c, c_stride);
        }
        if same::<In, f64>() && same::<Acc, f64>() {
            // SAFETY: as above with In = Acc = f64.
            let (a, b, c) = unsafe {
                (
                    a.cast::<f64>(),
                    b.cast::<f64>(),
                    cast_slice_mut::<Acc, f64>(c),
                )
            };
            return dispatch_f64::<MR_, NR_>(level, a, b, kc, c, c_stride);
        }
        false
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (a, b, kc, c, c_stride);
        false
    }
}

/// Expands to one `#[target_feature]` block kernel: `MR` rows by
/// `NVEC` vector registers of output, accumulators held in registers
/// across the whole k-loop, loads/stores of `c` only at the block
/// boundaries. Each k-step broadcasts one A element per row and
/// issues one fused multiply-add per accumulator — the single
/// rounding the scalar `mac` performs. Operands
/// are addressed by their strides; the walk over a packed panel is
/// this walk with strides `(1, MR)` / `NR`.
#[cfg(target_arch = "x86_64")]
macro_rules! simd_block_kernel {
    ($name:ident, $feature:literal, $elem:ty, $lanes:expr,
     $setzero:ident, $loadu:ident, $storeu:ident, $set1:ident, $fmadd:ident) => {
        /// # Safety
        ///
        /// The host must support the enabled target feature.
        #[target_feature(enable = $feature)]
        unsafe fn $name<const MR_: usize, const NVEC: usize>(
            a: Strided<'_, $elem>,
            b: Strided<'_, $elem>,
            kc: usize,
            c: &mut [$elem],
            c_stride: usize,
        ) {
            use std::arch::x86_64::*;
            let nr = NVEC * $lanes;
            assert_block_bounds(&a, &b, kc, MR_, nr, c, c_stride);
            let (ap, a_ls, a_ks) = (a.data.as_ptr(), a.lane_stride, a.k_stride);
            let (bp, b_ks) = (b.data.as_ptr(), b.k_stride);
            // SAFETY (every pointer access below): `assert_block_bounds`
            // just proved that row `i < MR_` of `c` holds `nr` elements
            // from `i · c_stride`, and that for every `k < kc` the A
            // element `i · a_ls + k · a_ks` and the `nr` B elements from
            // `k · b_ks` lie inside their slices (offsets grow with `i`
            // and `k`, so the checked last one bounds them all).
            let mut acc = [[$setzero(); NVEC]; MR_];
            for (i, row) in acc.iter_mut().enumerate() {
                for (v, reg) in row.iter_mut().enumerate() {
                    *reg = $loadu(c.as_ptr().add(i * c_stride + v * $lanes));
                }
            }
            // The one k-loop, expanded twice: over packed panels the
            // three strides are the constants `(1, MR, NR)`, which the
            // narrow blocks need folded into their addressing (4×16
            // ran a tenth slower on runtime strides); anything else
            // walks the strides it was given.
            macro_rules! walk {
                ($a_ls:expr, $a_ks:expr, $b_ks:expr) => {
                    for k in 0..kc {
                        let acol = ap.add(k * $a_ks);
                        let brow = bp.add(k * $b_ks);
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
            for (i, row) in acc.iter().enumerate() {
                for (v, &reg) in row.iter().enumerate() {
                    $storeu(c.as_mut_ptr().add(i * c_stride + v * $lanes), reg);
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
simd_block_kernel!(avx2_f32, "avx2,fma", f32, 8, _mm256_setzero_ps, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_set1_ps, _mm256_fmadd_ps);
#[cfg(target_arch = "x86_64")]
simd_block_kernel!(avx2_f64, "avx2,fma", f64, 4, _mm256_setzero_pd, _mm256_loadu_pd, _mm256_storeu_pd, _mm256_set1_pd, _mm256_fmadd_pd);
#[cfg(target_arch = "x86_64")]
simd_block_kernel!(avx512_f32, "avx512f", f32, 16, _mm512_setzero_ps, _mm512_loadu_ps, _mm512_storeu_ps, _mm512_set1_ps, _mm512_fmadd_ps);
#[cfg(target_arch = "x86_64")]
simd_block_kernel!(avx512_f64, "avx512f", f64, 8, _mm512_setzero_pd, _mm512_loadu_pd, _mm512_storeu_pd, _mm512_set1_pd, _mm512_fmadd_pd);

#[cfg(target_arch = "x86_64")]
fn dispatch_f32<const MR_: usize, const NR_: usize>(
    level: SimdLevel,
    a: Strided<'_, f32>,
    b: Strided<'_, f32>,
    kc: usize,
    c: &mut [f32],
    cs: usize,
) -> bool {
    // SAFETY: each arm runs only at the level `detect` confirmed the
    // host supports; NVEC · lanes always equals NR, and the kernels
    // assert every slice bound themselves.
    unsafe {
        match (level, MR_, NR_) {
            (SimdLevel::Avx512, 8, 32) => avx512_f32::<8, 2>(a, b, kc, c, cs),
            (SimdLevel::Avx2, 8, 32) => avx2_f32::<8, 4>(a, b, kc, c, cs),
            _ => return false,
        }
    }
    true
}

#[cfg(target_arch = "x86_64")]
fn dispatch_f64<const MR_: usize, const NR_: usize>(
    level: SimdLevel,
    a: Strided<'_, f64>,
    b: Strided<'_, f64>,
    kc: usize,
    c: &mut [f64],
    cs: usize,
) -> bool {
    // SAFETY: see dispatch_f32.
    unsafe {
        match (level, MR_, NR_) {
            (SimdLevel::Avx512, 8, 16) => avx512_f64::<8, 2>(a, b, kc, c, cs),
            (SimdLevel::Avx2, 8, 16) => avx2_f64::<8, 4>(a, b, kc, c, cs),
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microkernel::packed_block;

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
        packed_block::<T, T, MR_, NR_>(a, b, kc, &mut portable, c_stride);
        assert_eq!(portable, oracle, "portable block is not the mul_add chain: {what}");
        let mut got = c0.to_vec();
        if simd_block::<T, T, MR_, NR_>(level, a, b, kc, &mut got, c_stride) {
            assert_eq!(got, oracle, "vector block is not the mul_add chain: {what}");
        } else {
            assert_eq!(got, c0, "failed dispatch must leave c untouched");
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

    #[test]
    fn every_block_shape_matches_scalar_at_every_level_and_stride() {
        // Exercise every level the host supports (an AVX-512 host can
        // and should also run the AVX2 kernels: AVX-512F implies FMA3).
        // Every operand slice ends at the last element the block may
        // read, so a kernel that reads one lane further fails its own
        // bounds assert. The expected bits come from `oracle_block`,
        // which never calls `Scalar::mac`: the portable block (all
        // Miri runs) and every vector block must *be* the `mul_add`
        // chain, on data where the `c + a * b` chain is not.
        let host = SimdLevel::detect();
        let mut levels = vec![SimdLevel::None];
        if matches!(host, SimdLevel::Avx2 | SimdLevel::Avx512) {
            levels.push(SimdLevel::Avx2);
        }
        if host == SimdLevel::Avx512 {
            levels.push(SimdLevel::Avx512);
        }
        for level in levels {
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
                    packed_block::<f32, f32, MR_, NR_>(a, b, kc, &mut c, c_stride);
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
        let refused = std::panic::catch_unwind(|| assert_block_bounds(&huge, &b, kc, MR_, NR_, &c, c_stride));
        assert!(refused.is_err(), "wrapping offsets must not pass");
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
