//! An event-driven GPU execution simulator.
//!
//! This crate is the reproduction's stand-in for the paper's NVIDIA
//! A100 testbed (DESIGN.md §1). It executes a
//! [`Decomposition`](streamk_core::Decomposition) the way a GPU's work
//! distributor would:
//!
//! - CTAs dispatch in id order onto the earliest-available SM, one
//!   resident CTA per SM (the paper's occupancy model — a Stream-K
//!   launch of `g = p` CTAs exactly fills the processor);
//! - each CTA's runtime follows the Appendix A.1 cost structure
//!   `a + b·[stores partials] + c·iters + d·(fixup peers)`, with the
//!   constants derived from the simulated GPU's physical parameters
//!   ([`cost`]);
//! - `Signal`/`Wait` consolidation dependencies are honored: a
//!   tile-owning CTA cannot accumulate a peer's partial sums before
//!   that peer has signaled, so fixup latency (and Stream-K's
//!   temporal-skew latency *hiding*) emerges from the schedule;
//! - the final makespan is floored by a memory roofline
//!   `traffic / bandwidth`, which yields the bandwidth-bound regime of
//!   the paper's Figures 5-7.
//!
//! One event queue, [`engine`]'s, produces every report: single
//! GEMMs, groups — a uniform batch simulates as the group of its equal
//! shapes, [`simulate_grouped`]`(batch.group(), ..)` — and the
//! straggler and preemption schedules of [`fault`], which has no queue
//! of its own.
//!
//! What this deliberately does **not** model: warp scheduling,
//! instruction issue, shared-memory bank conflicts — effects that are
//! identical across the compared decompositions and therefore cancel
//! in every relative measurement the paper reports.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod analytic;
pub mod cost;
pub mod engine;
pub mod fault;
pub mod gpu;
pub mod grouped;
pub mod report;
pub mod svg;
pub mod timeline;
pub mod trace;

pub use cost::CtaCosts;
pub use engine::{data_parallel_makespan, simulate, simulate_with_efficiency};
pub use fault::{simulate_with_faults, FaultSimReport, Preemption, SimFaultPlan};
pub use gpu::GpuSpec;
pub use grouped::simulate_grouped;
pub use report::{CtaSpan, SimReport};
pub use svg::{render_svg, SvgOptions};
pub use trace::{render_chrome_trace, write_chrome_trace};
pub use timeline::render_gantt;
