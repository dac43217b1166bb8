//! A multithreaded CPU executor for Stream-K decompositions.
//!
//! Where `streamk-sim` *times* a decomposition, this crate *runs* it:
//! a persistent pool of workers ([`pool`]: the launching thread as
//! worker 0 plus helper threads) plays the role of the SM array —
//! built once per executor, warm per-worker arenas between launches,
//! and a launch handshake that costs no more than the work it
//! launches. Each worker claims CTAs from its own
//! static contiguous range of the dispatch order, stealing from the
//! richest neighbour when it drains ([`sched`]), executes the
//! CTA-wide `MacLoop` of Algorithm 3 over real matrices, and carries
//! out the cross-CTA consolidation protocol of Algorithms 4-5 with
//! genuine concurrency:
//!
//! - a CTA whose first segment does not start its tile stores its
//!   partial accumulator and `Signal`s an atomic flag
//!   (release-store);
//! - the tile-owning CTA `Wait`s on each peer's flag (acquire-load)
//!   before accumulating the peer's partials and writing the final
//!   output tile.
//!
//! This proves the decomposition + synchronization protocol correct —
//! every strategy, every grid size, every thread count must produce
//! the reference result (bit-exact in f64 for unsplit tiles;
//! reassociation-tolerance at split seams).
//!
//! The memory-ordering discipline follows "Rust Atomics and Locks"
//! ch. 3: the partial-buffer write *happens-before* the flag
//! release-store, which *synchronizes-with* the owner's acquire-load.

#![deny(missing_docs)]
#![deny(unsafe_code)]

// Hands disjoint ranges of long-lived slabs to concurrent packers and
// shares published ranges with readers; the safety argument sits with
// the two `unsafe` blocks, and everything they rely on is private to
// the module.
#[allow(unsafe_code)]
mod arena;
pub mod batched;
pub mod calibrate;
mod engine;
pub mod executor;
pub mod fault;
pub mod fixup;
pub mod grouped;
pub mod macloop;
pub mod microkernel;
// The raw-pointer window into an output matrix that workers store
// disjoint tiles through, and the unfilled buffer a β = 0 output is
// born in; the safety argument (one writer per tile, no read before
// every tile is stored) sits with the `unsafe` blocks. Public only
// for `store_every_tile`, which the epilogue's oracle test and bench
// drive; neither is API.
#[allow(unsafe_code)]
#[doc(hidden)]
pub mod output;
pub mod packcache;
pub mod pad;
// The worker pool erases the launch closure's lifetime to hand it to
// persistent threads; the one `transmute` carries its safety argument
// (no helper enters a launch after its launcher closed it, and the
// launch returns only after every helper that entered has left)
// inline.
#[allow(unsafe_code)]
pub mod pool;
pub mod sched;
pub mod serve;
pub mod strassen;
// The one module allowed to hold unsafe code: the `std::arch` SIMD
// kernels plus the TypeId-guarded slice casts that feed them. Every
// unsafe block carries its safety argument inline.
#[allow(unsafe_code)]
pub mod simd;
pub mod telemetry;
pub mod trace;
pub mod workspace;

pub use arena::ArenaStats;
pub use executor::{
    CpuExecutor, ExecStats, ExecutorConfig, RecoveryCause, RecoveryEvent, RecoveryReport,
};
pub use fault::{Fault, FaultKind, FaultPlan, ServeFault, ServeFaultKind, ServeFaultPlan};
pub use fixup::{FixupBoard, FlagState, TryTake, WaitOutcome, WaitPolicy};
pub use macloop::mac_loop;
pub use pad::CachePadded;
pub use pool::{ScratchStore, WorkerPool};
pub use sched::{Claim, CtaScheduler, GridCursor};
pub use serve::{
    AdmissionError, CompletionHandle, GemmService, GroupError, GroupHandle, LaunchRequest,
    Priority, RequestStats, ServeConfig, ServeError, ServiceStats,
};
pub use microkernel::{mac_loop_cached, mac_loop_kernel, KernelKind, PackBuffers, PanelSpan};
pub use packcache::{mac_loop_kernel_cached, PackCache, PanelGuard};
pub use simd::SimdLevel;
pub use strassen::{
    leaf_decomposition, machine_epsilon, max_abs, recombine_quadrants, split_quadrants,
    strassen_error_bound, StrassenArena, StrassenConfig, StrassenReport, StrassenServeError,
};
pub use telemetry::{
    FlightRecorder, IncidentReport, RequestTrace, SelectEvent, SelectOutcome, ServeTrace,
    ServiceCounter, ServiceEvent, ServiceEventKind, TelemetryRegistry,
};
pub use trace::{ExecTrace, Histogram, Metrics, Span, SpanRing, WorkerTrace};
pub use workspace::Workspace;
