//! # Stream-K in Rust
//!
//! A full-system reproduction of *"Stream-K: Work-centric Parallel
//! Decomposition for Dense Matrix-Matrix Multiplication on the GPU"*
//! (Osama, Merrill, Cecka, Garland, Owens — PPoPP 2023).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! - [`types`] — GEMM shapes, tile shapes, precisions, layouts.
//! - [`matrix`] — dense matrices, software `f16`, reference GEMMs.
//! - [`core`] — the paper's contribution: data-parallel, fixed-split,
//!   basic Stream-K and hybrid Stream-K work decompositions, plus the
//!   Appendix A.1 analytical grid-size model.
//! - [`sim`] — an event-driven GPU execution simulator (the stand-in
//!   for the paper's A100 testbed).
//! - [`cpu`] — a multithreaded CPU executor that runs the
//!   decompositions (including the cross-CTA partial-sum fixup
//!   protocol) on real threads.
//! - [`ensemble`] — tile-configuration ensembles, the oracle selector,
//!   and a cuBLAS-like heuristic selector.
//! - [`corpus`] — the paper's 32,824-shape evaluation corpus and the
//!   statistics used by its tables.
//!
//! ## Quickstart
//!
//! ```
//! use streamk::prelude::*;
//!
//! // A GEMM problem and the paper's FP64 blocking factor.
//! let shape = GemmShape::new(384, 384, 128);
//! let tile = TileShape::streamk_default(Precision::Fp64);
//!
//! // Decompose it with Stream-K across 4 CTAs and simulate it on the
//! // paper's hypothetical 4-SM GPU.
//! let gpu = GpuSpec::hypothetical_4sm();
//! let decomp = Decomposition::stream_k(shape, tile, 4);
//! let report = simulate(&decomp, &gpu, Precision::Fp64);
//! assert!(report.utilization() > 0.9);
//! ```

pub use streamk_core as core;
pub use streamk_corpus as corpus;
pub use streamk_cpu as cpu;
pub use streamk_ensemble as ensemble;
pub use streamk_matrix as matrix;
pub use streamk_sim as sim;
pub use streamk_tune as tune;
pub use streamk_types as types;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use streamk_core::{CtaWork, Decomposition, GridSizeModel, Strategy};
    pub use streamk_corpus::{Corpus, CorpusConfig};
    pub use streamk_cpu::{CpuExecutor, ExecutorConfig};
    pub use streamk_ensemble::{HeuristicSelector, Oracle, TileEnsemble};
    pub use streamk_matrix::{f16, Matrix};
    pub use streamk_sim::{simulate, GpuSpec, SimReport};
    pub use streamk_types::{GemmShape, Layout, Precision, TileShape};
}
