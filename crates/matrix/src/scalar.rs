//! Numeric abstractions for generic GEMM kernels.
//!
//! The paper evaluates two precisions: FP64 (f64 in, f64 accumulate)
//! and FP16→32 (f16 in, f32 accumulate). A GEMM kernel in this
//! workspace is therefore generic over *two* types: the input element
//! and the accumulator element, bridged by [`Promote`].

use crate::half::f16;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// An arithmetic element type usable as a GEMM accumulator (and, for
/// f32/f64, as an input).
///
/// The bound set is the minimum needed by the kernels: closed
/// addition/multiplication, a zero, and lossless-enough conversion to
/// `f64` for verification.
pub trait Scalar:
    Copy
    + Debug
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + Add<Output = Self>
    + AddAssign
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + 'static
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;

    /// Converts from `f64`, rounding as the type requires.
    fn from_f64(value: f64) -> Self;

    /// Converts to `f64` (exact for f32/f64).
    fn to_f64(self) -> f64;

    /// The workspace's one multiply-accumulate: the IEEE-754 fused
    /// multiply-add `a * b + self`, rounded once — what the paper's
    /// `mma` / DFMA pipelines compute per MAC. Every path that
    /// accumulates a dot product (the references, the scalar oracle,
    /// the portable block, the vector blocks' `vfmadd`) performs this
    /// operation in ascending-k order, which is why any of them can
    /// recompute any other's segment bit-exactly. There is no default
    /// body: an implementor cannot inherit an unfused `self + a * b`.
    fn mac(self, a: Self, b: Self) -> Self;
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline]
    fn from_f64(value: f64) -> Self {
        value as f32
    }

    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }

    #[inline]
    fn mac(self, a: Self, b: Self) -> Self {
        a.mul_add(b, self)
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline]
    fn from_f64(value: f64) -> Self {
        value
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline]
    fn mac(self, a: Self, b: Self) -> Self {
        a.mul_add(b, self)
    }
}

/// An input element type that promotes to an accumulator type `Acc`
/// before arithmetic — the f16 → f32 promotion of mixed-precision
/// GEMM, and the identity promotion for f32/f64.
pub trait Promote<Acc: Scalar>: Copy + Debug + Default + Send + Sync + 'static {
    /// Widens this input element to the accumulator type.
    fn promote(self) -> Acc;

    /// Narrows an `f64` into this input type (used by fill routines;
    /// models the storage rounding an f16 input matrix suffers).
    fn demote_from_f64(value: f64) -> Self;

    /// This element as `f64`, via promotion.
    fn to_f64(self) -> f64 {
        self.promote().to_f64()
    }
}

impl Promote<f32> for f32 {
    #[inline]
    fn promote(self) -> f32 {
        self
    }

    #[inline]
    fn demote_from_f64(value: f64) -> Self {
        value as f32
    }
}

impl Promote<f64> for f64 {
    #[inline]
    fn promote(self) -> f64 {
        self
    }

    #[inline]
    fn demote_from_f64(value: f64) -> Self {
        value
    }
}

impl Promote<f32> for f16 {
    #[inline]
    fn promote(self) -> f32 {
        self.to_f32()
    }

    #[inline]
    fn demote_from_f64(value: f64) -> Self {
        f16::from_f64(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_identities() {
        assert_eq!(f32::ZERO + f32::ONE, 1.0f32);
        assert_eq!(f64::ZERO + f64::ONE, 1.0f64);
    }

    #[test]
    fn mac_computes_fma_shape() {
        assert_eq!(2.0f64.mac(3.0, 4.0), 14.0);
        assert_eq!(1.5f32.mac(0.5, 2.0), 2.5);
    }

    /// `(1 + e)(1 − e) = 1 − e²` needs more bits than the type has: a
    /// multiply rounds it to 1 before the add sees it, a fused MAC
    /// keeps the `−e²`. These triples tell the two contracts apart.
    #[test]
    fn mac_rounds_once() {
        let e = 2.0f64.powi(-27);
        assert_eq!((1.0 + e) * (1.0 - e), 1.0, "the product alone rounds to 1");
        assert_eq!((-1.0f64).mac(1.0 + e, 1.0 - e), -(2.0f64.powi(-54)));
        let e = 2.0f32.powi(-13);
        assert_eq!((1.0 + e) * (1.0 - e), 1.0, "the product alone rounds to 1");
        assert_eq!((-1.0f32).mac(1.0 + e, 1.0 - e), -(2.0f32.powi(-26)));
    }

    #[test]
    fn f16_promotes_through_f32() {
        let h = f16::from_f32(1.5);
        let promoted: f32 = h.promote();
        assert_eq!(promoted, 1.5);
        assert_eq!(Promote::<f32>::to_f64(h), 1.5);
    }

    #[test]
    fn demote_rounds_to_storage_precision() {
        // 1/3 is inexact in every binary format; f16 keeps ~3 decimal
        // digits.
        let h = <f16 as Promote<f32>>::demote_from_f64(1.0 / 3.0);
        assert!((h.to_f32() - 1.0 / 3.0).abs() < 2e-4);
        let s = <f32 as Promote<f32>>::demote_from_f64(1.0 / 3.0);
        assert!((f64::from(s) - 1.0 / 3.0).abs() < 1e-7);
    }

    #[test]
    fn round_trip_f64_scalar() {
        let x = <f64 as Scalar>::from_f64(0.123_456_789);
        assert_eq!(Scalar::to_f64(x), 0.123_456_789);
    }
}
