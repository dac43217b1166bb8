//! Online adaptive schedule selection — the Stream-K++ direction.
//!
//! The paper's App. A.1 heuristic picks a decomposition *statically*
//! from a grid-size model; the corpus results show no single
//! strategy × tile wins everywhere, and the static rules
//! mis-select on a long tail of shapes. Stream-K++ (arXiv:2408.11417)
//! replaces the static decision with an *online* selector that caches
//! measured per-shape winners. This crate rebuilds that loop for the
//! CPU executor:
//!
//! - [`class::ShapeClass`] — quantized m/n/k buckets + precision +
//!   layout + worker count, so measurements generalize across nearby
//!   shapes instead of memoizing every exact triple;
//! - [`candidates`] — the per-class candidate slate, top-K of the
//!   `streamk-tune` tile space crossed with decomposition strategies,
//!   always seeded with the App. A.1 pick;
//! - [`cache::SelectionCache`] — the persistent measurement table:
//!   versioned, checksummed, corruption degrades to a silent cold
//!   start, written via temp-file + atomic rename so concurrent
//!   writers never clobber each other;
//! - [`selector::AdaptiveSelector`] — cold classes fall back to the
//!   App. A.1 heuristic, warm classes run epsilon-greedy over the
//!   slate fed by measured launch times and [`streamk_cpu::ExecStats`],
//!   and a converged table distills through
//!   [`streamk_tune::DecisionTree`] into zero-lookup dispatch.
//!
//! The selector is a library, not an executor: the caller selects,
//! launches the chosen [`Candidate`]'s decomposition on whatever entry
//! it uses, and hands the measurement back through
//! [`AdaptiveSelector::feedback`] (or
//! [`feedback_raw`](AdaptiveSelector::feedback_raw) when it times the
//! launch itself).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod candidates;
pub mod class;
pub mod selector;

pub use cache::{CandidateStats, ClassEntry, SelectionCache};
pub use candidates::{candidates_for, Candidate};
pub use class::ShapeClass;
pub use selector::{AdaptiveSelector, Selection, SelectionSource, SelectorConfig};
