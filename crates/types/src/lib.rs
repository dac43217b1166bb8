//! Foundational types for the Stream-K reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: GEMM problem shapes ([`GemmShape`]), CTA blocking factors
//! ([`TileShape`]), floating-point precisions ([`Precision`]), matrix
//! memory layouts ([`Layout`]), and the grid/wave arithmetic
//! ([`grid`]) that underlies quantization-efficiency reasoning in the
//! paper (§1, Figure 1).
//!
//! Everything here is plain data with pure functions — no allocation
//! beyond what the caller asks for, no I/O, no concurrency — so that the
//! decomposition logic in `streamk-core`, the simulator in `streamk-sim`,
//! and the CPU executor in `streamk-cpu` all agree on the same numbers.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod grid;
pub mod layout;
pub mod precision;
pub mod shape;
pub mod tile;

pub use grid::{ceil_div, quantization_efficiency, waves};
pub use layout::Layout;
pub use precision::Precision;
pub use shape::GemmShape;
pub use tile::TileShape;
