//! Dense matrices and reference GEMM implementations.
//!
//! This crate provides the numerical substrate of the Stream-K
//! reproduction:
//!
//! - [`f16`](struct@f16) — a software IEEE 754 binary16 type, because the paper's
//!   FP16→32 GEMM consumes half-precision inputs and this workspace
//!   has no hardware half support (see DESIGN.md §1) — and [`bf16`],
//!   the brain-float sibling CUTLASS ships Stream-K kernels for.
//! - [`Scalar`] / [`Promote`] — the numeric abstraction that lets one
//!   generic GEMM cover f64 (FP64), f32, and f16-in/f32-accumulate
//!   (FP16→32).
//! - [`Matrix`] — an owned dense matrix with row- or column-major
//!   layout, its elements in an [`AlignedVec`] that starts on a cache
//!   line.
//! - [`reference::gemm_naive`] — the ground-truth triple loop.
//! - [`blocked::gemm_blocked`] — the sequential cache-blocked GEMM of
//!   the paper's Algorithm 1.
//! - [`pack`] — BLIS-style operand packing into `MR`/`NR` panels, the
//!   cache-blocked layout the packed microkernel pipeline walks with
//!   unit stride.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod aligned;
mod bhalf;
pub mod blocked;
pub mod gemm_ex;
mod half;
pub mod matrix;
pub mod pack;
pub mod reference;
pub mod scalar;
pub mod view;

pub use aligned::{AlignedVec, LINE};
pub use bhalf::bf16;
pub use half::f16;
pub use pack::{pack_a_into, pack_a_slice, pack_b_into, pack_b_slice, packed_a_len, packed_b_len};
pub use matrix::Matrix;
pub use scalar::{Promote, Scalar};
pub use view::{MatOp, MatrixView};
pub use gemm_ex::gemm_ex_reference;
