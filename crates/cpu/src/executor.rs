//! The grid executor.
//!
//! Three entry tiers share one grid loop — which the batched and
//! grouped entries (`batched.rs`, `grouped.rs`) launch through as
//! well — and every worker of it runs the one CTA cycle in
//! `engine.rs`:
//!
//! - [`CpuExecutor::gemm`] / [`CpuExecutor::gemm_ex`] — the legacy
//!   panicking surface (validation bugs are programmer errors);
//! - [`CpuExecutor::try_gemm`] / [`CpuExecutor::try_gemm_ex`] — the
//!   same execution with typed [`ExecutorError`]s instead of panics;
//! - [`CpuExecutor::gemm_with_faults`] — the same launch with a
//!   [`FaultPlan`] run against the fixup protocol, and a
//!   [`RecoveryReport`] of what recovery did.
//!
//! Every entry *recovers*: when a peer's signal times out under the
//! watchdog or its record is poisoned, the tile owner recomputes the
//! peer's exact contribution from its static [`CtaWork`] descriptor
//! ([`streamk_core::peer_contribution`]) and carries on. The
//! recomputation runs the same MAC kernel over the same local range and
//! is accumulated at the same point in peer order, so the recovered
//! output is bit-identical to the fault-free run; `try_gemm` is
//! `gemm_with_faults` at [`FaultPlan::none`] without the report, and
//! [`ExecStats::recoveries`] says what recovery did in the last launch.

use crate::arena::{ArenaStats, PackArena};
use crate::engine::{self, lock, Grid, GridUnits, Instance, Launch, Orientation, Output, Worker};
use crate::fault::FaultPlan;
use crate::fixup::WaitPolicy;
use crate::microkernel::KernelKind;
use crate::output::{OwnedTileWriter, TileWriter};
use crate::packcache::{operands_pack, PackCache};
use crate::pool::WorkerPool;
use crate::sched::CtaScheduler;
use crate::trace::{self, ExecTrace, SpanKind, SpareRings, WorkerRings};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};
use streamk_core::{CtaWork, Decomposition, ExecutorError, IterSpace, TileFixup};
use streamk_matrix::{Matrix, MatrixView, Promote, Scalar};

/// The process-wide default worker count, resolved exactly once:
/// `available_parallelism` can cost a syscall (and never changes), yet
/// `ExecutorConfig::default()` sits on hot construction paths — every
/// `with_threads`, every bench-loop executor.
fn default_threads() -> usize {
    static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();
    *DEFAULT_THREADS.get_or_init(|| {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    })
}

/// Executor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Workers — the executor's "SM count" — *counting the calling
    /// thread*: whoever launches is worker 0, so the pool spawns
    /// `threads - 1` helper threads. Each worker holds
    /// one CTA at a time and claims from its own static contiguous
    /// range of the dispatch order (stealing from the richest
    /// neighbour when it drains), mirroring the GPU's per-SM work
    /// assignment rather than a single global queue.
    pub threads: usize,
    /// Watchdog deadline for each owner-side `Wait`: a peer that has
    /// not signaled within this budget is treated as lost.
    pub watchdog: Duration,
    /// Inner MAC-loop kernel every worker runs: the register block
    /// (the default) or the scalar oracle. The two are bit-exact
    /// against each other; the scalar kernel is the reference tests
    /// compare launches with.
    pub kernel: KernelKind,
    /// Shard count for the pack cache of a single-instance launch
    /// (`gemm*`): `0` (the default) means one shard per worker, so each
    /// worker packs into — and reads from — its own slot table and
    /// published panels never migrate between cores; `1` restores the
    /// single grid-shared table. Batched and grouped launches always
    /// use one shard, whatever this says. An operand read in place
    /// (DESIGN.md §8) gets no slots, whatever the sharding.
    pub pack_shards: usize,
    /// Record per-worker event spans during each launch (see
    /// [`crate::trace`]); collect them with
    /// [`CpuExecutor::last_trace`]. Off by default. Tracing never
    /// changes results — traced runs are bit-exact against untraced
    /// ones — and when off the executor records nothing and allocates
    /// nothing for tracing.
    pub trace: bool,
    /// Per-worker span-ring capacity when tracing; a full ring drops
    /// its oldest span (counted) rather than blocking or growing.
    pub trace_capacity: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            threads: default_threads(),
            watchdog: WaitPolicy::DEFAULT_WATCHDOG,
            kernel: KernelKind::default(),
            pack_shards: 0,
            trace: false,
            trace_capacity: trace::DEFAULT_RING_CAPACITY,
        }
    }
}

/// Scheduling counters from an executor's most recent grid launch.
///
/// **Reset semantics.** Every field except `launches` is *per-launch*:
/// it is overwritten at the end of each launch and describes only the
/// most recent one (a launch with no steals reports `steals == 0`
/// even if the previous launch stole). `launches` alone is
/// *cumulative* across the executor's (and its clones') lifetime.
///
/// **Service launches are invisible here.** A
/// [`GemmService`](crate::serve::GemmService) session occupies the
/// pool with one long-running job and *never* writes these counters:
/// requests served concurrently have no meaningful "most recent
/// launch", so per-request counters live on each request's own
/// [`CompletionHandle`](crate::serve::CompletionHandle) (see
/// [`RequestStats`](crate::serve::RequestStats)) and service totals
/// in [`ServiceStats`](crate::serve::ServiceStats). This legacy
/// aggregate view keeps describing exactly what it always did: the
/// most recent *single-launch* entry point (`gemm*`, batched,
/// grouped) — a serve session in between neither clobbers nor
/// contributes to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Unit blocks stolen between workers during the most recent
    /// launch — contiguous runs of tile segments, possibly the
    /// unstarted tail of a CTA another worker is running
    /// (locality-aware scheduler rebalancing; zero when the static
    /// ranges were already even). Per-launch.
    pub steals: usize,
    /// Owner consolidations parked cooperatively during the most
    /// recent launch because a peer had not signaled yet (the worker
    /// claimed other work instead of blocking) — in a batched or
    /// grouped launch exactly as in a single GEMM. Per-launch.
    pub deferrals: usize,
    /// Total wall time workers of the most recent launch spent
    /// blocked in fixup `Wait` on unfinished peers, summed across
    /// workers (so it can exceed the launch's wall time). Cooperative
    /// deferrals do not count — only genuine blocking waits, and no
    /// entry's owners wait before the grid is fully claimed.
    /// Per-launch.
    pub wait_stall: Duration,
    /// Peer contributions recomputed by fault recovery during the
    /// most recent launch. Per-launch.
    pub recoveries: usize,
    /// Grid launches completed by this executor (clones included) so
    /// far. Cumulative — never reset.
    pub launches: usize,
}

/// The record the most recent launch leaves behind, shared by an
/// executor and its clones under one lock: its counters, and the trace
/// of the most recent *traced* launch.
#[derive(Debug, Default)]
struct LastLaunch {
    stats: ExecStats,
    trace: Option<ExecTrace>,
}

/// Why a tile owner recomputed a peer's contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryCause {
    /// The peer never signaled within the watchdog budget.
    Timeout(
        /// How long the owner waited before giving up.
        Duration,
    ),
    /// The peer's record was poisoned (lost or corrupted in flight).
    Poisoned,
}

/// One recovery action: an owner recomputing one peer's contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// The peer whose record was missing.
    pub peer: usize,
    /// The tile being consolidated.
    pub tile_idx: usize,
    /// Why the record was missing.
    pub cause: RecoveryCause,
    /// MAC-loop iterations re-executed to reconstruct it.
    pub recomputed_iters: usize,
}

/// What fault recovery did during one execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Every recovery action, in the order recovery performed them.
    /// `tile_idx` counts tiles launch-wide: in a batched or grouped
    /// launch, across the instances in order.
    pub events: Vec<RecoveryEvent>,
}

impl RecoveryReport {
    /// Total recovery actions.
    #[must_use]
    pub fn recoveries(&self) -> usize {
        self.events.len()
    }

    /// Recoveries triggered by a watchdog timeout (lost/straggling
    /// peer that missed the deadline).
    #[must_use]
    pub fn timeouts(&self) -> usize {
        self.events.iter().filter(|e| matches!(e.cause, RecoveryCause::Timeout(_))).count()
    }

    /// Recoveries triggered by a poisoned record.
    #[must_use]
    pub fn poisonings(&self) -> usize {
        self.events.iter().filter(|e| e.cause == RecoveryCause::Poisoned).count()
    }

    /// Total MAC-loop iterations re-executed by recovery.
    #[must_use]
    pub fn recomputed_iters(&self) -> usize {
        self.events.iter().map(|e| e.recomputed_iters).sum()
    }

    /// `true` when execution never needed recovery.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.events.is_empty()
    }
}

/// Runs decompositions over real matrices on a pool of worker
/// threads.
///
/// ```
/// use streamk_core::Decomposition;
/// use streamk_cpu::CpuExecutor;
/// use streamk_matrix::Matrix;
/// use streamk_types::{GemmShape, Layout, TileShape};
///
/// let shape = GemmShape::new(64, 64, 64);
/// let tile = TileShape::new(16, 16, 8);
/// let a = Matrix::<f64>::random::<f64>(64, 64, Layout::RowMajor, 1);
/// let b = Matrix::<f64>::random::<f64>(64, 64, Layout::RowMajor, 2);
///
/// let exec = CpuExecutor::with_threads(4);
/// let c = exec.gemm::<f64, f64>(&a, &b, &Decomposition::stream_k(shape, tile, 4));
/// let reference = streamk_matrix::reference::gemm_naive::<f64, f64>(&a, &b);
/// c.assert_close(&reference, 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CpuExecutor {
    config: ExecutorConfig,
    /// The persistent worker pool, spawned lazily on the first launch
    /// and reused for every one after (clones share it): the "SM
    /// array" exists once, not once per GEMM.
    pool: Arc<OnceLock<WorkerPool>>,
    /// What the most recent launch left behind (clones share it).
    last: Arc<Mutex<LastLaunch>>,
}

/// Runs `f` on the pack arena for input type `In` that `pool` keeps
/// in its launch-level scratch store (empty until a launch has put
/// one back).
fn with_pack_arena<In: Send + 'static, R>(
    pool: &WorkerPool,
    f: impl FnOnce(&mut PackArena<In>) -> R,
) -> R {
    f(pool.launch_scratch().get_or_insert_with(PackArena::<In>::default))
}

impl CpuExecutor {
    /// Creates an executor with `config`.
    #[must_use]
    pub fn new(config: ExecutorConfig) -> Self {
        assert!(config.threads > 0, "executor needs at least one thread");
        assert!(config.trace_capacity > 0, "trace ring needs capacity");
        Self { config, pool: Arc::default(), last: Arc::default() }
    }

    /// Creates an executor with exactly `threads` workers.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self::new(ExecutorConfig { threads, ..ExecutorConfig::default() })
    }

    /// Returns this executor with the owner-side watchdog set to
    /// `watchdog`.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: Duration) -> Self {
        self.config.watchdog = watchdog;
        self
    }

    /// Returns this executor with the inner kernel set to `kernel`.
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.config.kernel = kernel;
        self
    }

    /// Returns this executor with the pack-cache shard count of its
    /// single-instance launches set to `shards`; `0` (the default)
    /// shards one table per worker, and batched and grouped launches
    /// keep one shard. See [`ExecutorConfig::pack_shards`].
    #[must_use]
    pub fn with_pack_shards(mut self, shards: usize) -> Self {
        self.config.pack_shards = shards;
        self
    }

    /// Returns this executor with span tracing enabled or disabled
    /// (disabled by default); see [`ExecutorConfig::trace`].
    #[must_use]
    pub fn with_trace(mut self, enabled: bool) -> Self {
        self.config.trace = enabled;
        self
    }

    /// Returns this executor with the per-worker span-ring capacity
    /// set to `capacity` spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring needs capacity");
        self.config.trace_capacity = capacity;
        self
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.config.threads
    }

    /// The configured inner kernel.
    #[must_use]
    pub fn kernel(&self) -> KernelKind {
        self.config.kernel
    }

    /// The configured watchdog deadline.
    #[must_use]
    pub fn watchdog(&self) -> Duration {
        self.config.watchdog
    }

    /// The pack-cache shard count a single-instance launch (`gemm*`)
    /// will use: the configured value, with `0` resolving to one shard
    /// per worker. Batched and grouped launches use one shard.
    #[must_use]
    pub fn pack_shards(&self) -> usize {
        if self.config.pack_shards == 0 { self.config.threads.max(1) } else { self.config.pack_shards }
    }

    /// Whether span tracing is enabled.
    #[must_use]
    pub fn trace(&self) -> bool {
        self.config.trace
    }

    /// The executor's persistent [`WorkerPool`], spawning it on first
    /// use. One pool serves every launch of this executor (and its
    /// clones) for its whole lifetime; the launching thread is its
    /// worker 0, helpers spin briefly then park between launches, and
    /// every worker keeps its workspace arenas warm.
    #[must_use]
    pub fn worker_pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| WorkerPool::new(self.config.threads))
    }

    /// Scheduling counters from the most recent launch (any entry
    /// point) on this executor or its clones.
    ///
    /// Every field except `launches` describes *only the most recent
    /// launch* — the counters are overwritten (not accumulated) at
    /// the end of each launch. `launches` is cumulative across the
    /// executor's lifetime. See [`ExecStats`].
    #[must_use]
    pub fn last_stats(&self) -> ExecStats {
        lock(&self.last).stats
    }

    /// The span trace of the most recent *traced* launch on this
    /// executor or its clones; `None` until a launch runs with
    /// tracing on. Untraced launches leave the previous trace in
    /// place (and record nothing themselves).
    #[must_use]
    pub fn last_trace(&self) -> Option<ExecTrace> {
        lock(&self.last).trace.clone()
    }

    /// What this executor's pack arena for input type `In` holds: the
    /// storage every launch's [`PackCache`] packs into, kept in the
    /// pool's launch-level scratch store from one launch to the next
    /// and freed with the pool. All zero before the first cached
    /// launch of that type (and while one is in flight: the launch has
    /// the arena).
    #[must_use]
    pub fn pack_arena_stats<In: Copy + Default + Send + Sync + 'static>(&self) -> ArenaStats {
        self.pool
            .get()
            .map_or_else(ArenaStats::default, |pool| with_pack_arena::<In, _>(pool, |a| a.stats()))
    }

    /// The launch's pack cache: one slot table over `instances` (per
    /// problem instance its space and operand views) with `shards`
    /// shards, storing its chunks in the executor's arena and sized
    /// for the operands that pack. `None` — nothing built, the arena
    /// left where it is — when no tile of the launch reads a packed
    /// operand (every view is read in place) or the kernel does not
    /// consume panels. Hand the cache
    /// back with [`retire_pack_cache`] so the next launch reuses the
    /// storage.
    ///
    /// [`retire_pack_cache`]: Self::retire_pack_cache
    pub(crate) fn launch_pack_cache<'s, In, I>(&self, instances: I, shards: usize) -> Option<PackCache<In>>
    where
        In: Copy + Default + Send + Sync + 'static,
        I: IntoIterator<Item = (&'s IterSpace, MatrixView<'s, In>, MatrixView<'s, In>)>,
        I::IntoIter: Clone,
    {
        let block = self.config.kernel.panel_geometry::<In>()?;
        let instances = instances.into_iter().map(|(space, a, b)| {
            let (a_packs, b_packs) = operands_pack(&a, &b);
            (space, a_packs, b_packs)
        });
        if !instances.clone().any(|(_, a_packs, b_packs)| a_packs || b_packs) {
            return None;
        }
        // Taken out, not borrowed: a launch on a clone that overlaps
        // this one finds an empty arena and allocates, nothing worse.
        let arena = with_pack_arena(self.worker_pool(), std::mem::take);
        let policy = WaitPolicy::with_watchdog(self.config.watchdog);
        Some(PackCache::in_arena(arena, instances, block, policy, shards))
    }

    /// Ends a launch's use of its pack cache, returning the storage
    /// to the executor.
    pub(crate) fn retire_pack_cache<In: Copy + Default + Send + Sync + 'static>(
        &self,
        cache: Option<PackCache<In>>,
    ) {
        if let Some(cache) = cache {
            with_pack_arena(self.worker_pool(), |slot| *slot = cache.into_arena());
        }
    }

    /// The protocol state of a launch of `grid_size` CTAs consolidated
    /// as `fixups` say, under `plan`'s faults — a direct launch's and a
    /// service request's alike — with the configured kernel and
    /// watchdog, its pack cache (`None`: every operand is read in place
    /// or packed privately) and its span rings (`None`: untraced).
    pub(crate) fn launch<In, Acc: Scalar>(
        &self,
        grid_size: usize,
        fixups: &[TileFixup],
        plan: FaultPlan,
        cache: Option<PackCache<In>>,
        spans: Option<WorkerRings>,
    ) -> Launch<In, Acc> {
        let policy = WaitPolicy::with_watchdog(self.config.watchdog);
        Launch::new(grid_size, fixups, plan, policy, self.config.kernel, cache, spans)
    }

    /// The span rings of a traced launch starting at `epoch`, one per
    /// worker id: the ones the previous traced launch left in the
    /// pool's launch-level store, rebased — rings belong to worker ids,
    /// never to threads, so worker 0 costs one ring however many
    /// threads launch — or new ones, which allocate a ring per slot at
    /// its first check-out (on the first traced launch, and for a clone
    /// tracing at another capacity). As with the pack arena, a launch
    /// on a clone that overlaps this one finds the store empty and
    /// allocates, nothing worse.
    fn launch_rings(&self, epoch: Instant) -> WorkerRings {
        let (capacity, workers) = (self.config.trace_capacity, self.config.threads);
        let rested = self.worker_pool().launch_scratch().get_or_insert_with(|| None::<WorkerRings>).take();
        match rested.filter(|rings| rings.fits(capacity, workers)) {
            Some(mut rings) => {
                rings.rebase(epoch);
                rings
            }
            None => WorkerRings::new(epoch, capacity, workers, &SpareRings::default()),
        }
    }

    /// Ends a traced launch: completes each worker's timeline with the
    /// [`SpanKind::Launch`] spans only the launcher can time — worker
    /// 0's join (`share_end` to `end`), and the whole launch for a
    /// helper that recorded nothing because it arrived after the close
    /// — drains the rings into the launch's [`ExecTrace`], and rests
    /// them in the pool for the next traced launch.
    fn retire_rings(
        &self,
        mut rings: WorkerRings,
        epoch: Instant,
        share_end: Option<Instant>,
        end: Instant,
    ) -> ExecTrace {
        if let Some(share_end) = share_end {
            rings.check_out(0).record(SpanKind::Launch, share_end, end, trace::LAUNCH_JOIN, 0);
        }
        for wid in 1..self.config.threads {
            let rec = rings.check_out(wid);
            if rec.is_empty() {
                rec.record(SpanKind::Launch, epoch, end, trace::LAUNCH_SKIPPED, 0);
            }
        }
        let workers = rings.drain_each();
        *self.worker_pool().launch_scratch().get_or_insert_with(|| None::<WorkerRings>) = Some(rings);
        ExecTrace { workers, wall_ns: end.duration_since(epoch).as_nanos() as u64 }
    }

    /// Computes `C = A · B` by executing `decomp`'s grid.
    ///
    /// The result is produced in `a`'s storage layout. Accumulation
    /// within a tile is in ascending-k order; at split seams partial
    /// sums combine in peer order, so f64 results at seams may differ
    /// from the sequential reference by reassociation only.
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes don't match `decomp`'s problem
    /// shape, if the decomposition is invalid, or if the grid's fixup
    /// structure needs more co-resident CTAs than there are workers
    /// (an owner and all its peers must be resident simultaneously —
    /// the same residency guarantee the GPU kernels rely on).
    #[must_use]
    pub fn gemm<In, Acc>(&self, a: &Matrix<In>, b: &Matrix<In>, decomp: &Decomposition) -> Matrix<Acc>
    where
        In: Promote<Acc>,
        Acc: Scalar,
    {
        self.try_gemm(a, b, decomp).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The general BLAS-style entry: `C = α·op(A)·op(B) + β·C`, where
    /// transposition/striding is expressed through the operand views
    /// (pass `a.t()` for `op(A) = Aᵀ`, etc.).
    ///
    /// With `β = 0` the prior contents of `C` are never read, per
    /// BLAS convention.
    ///
    /// Like every entry, the launch may run as `Cᵀ = op(B)ᵀ·op(A)ᵀ`,
    /// storing `Cᵀ` over `c`'s own storage, when that packs fewer
    /// operand bytes (DESIGN.md §9, "Orientation"); it runs `decomp`
    /// either way, and the result is the same bit for bit.
    ///
    /// # Panics
    ///
    /// As [`gemm`](Self::gemm), plus a shape check on `c`.
    pub fn gemm_ex<In, Acc>(
        &self,
        alpha: Acc,
        a: &MatrixView<'_, In>,
        b: &MatrixView<'_, In>,
        beta: Acc,
        c: &mut Matrix<Acc>,
        decomp: &Decomposition,
    ) where
        In: Promote<Acc>,
        Acc: Scalar,
    {
        self.try_gemm_ex(alpha, a, b, beta, c, decomp).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`gemm`](Self::gemm): every validation failure and
    /// protocol breakdown is a typed [`ExecutorError`].
    ///
    /// # Errors
    ///
    /// [`ExecutorError::ShapeMismatch`] for operand dimension errors,
    /// [`ExecutorError::InvalidDecomposition`] if `decomp` fails
    /// structural validation, [`ExecutorError::InsufficientResidency`]
    /// if the widest owner+peers group cannot be co-resident, and
    /// [`ExecutorError::Fixup`] if the fixup protocol is violated at
    /// run time (a CTA signaling twice). A lost or poisoned peer is no
    /// error: its owner recomputes it, as on every entry.
    pub fn try_gemm<In, Acc>(
        &self,
        a: &Matrix<In>,
        b: &Matrix<In>,
        decomp: &Decomposition,
    ) -> Result<Matrix<Acc>, ExecutorError>
    where
        In: Promote<Acc>,
        Acc: Scalar,
    {
        self.gemm_with_faults(a, b, decomp, &FaultPlan::none()).map(|(c, _)| c)
    }

    /// Fallible [`gemm_ex`](Self::gemm_ex).
    ///
    /// # Errors
    ///
    /// As [`try_gemm`](Self::try_gemm), plus a shape check on `c`.
    pub fn try_gemm_ex<In, Acc>(
        &self,
        alpha: Acc,
        a: &MatrixView<'_, In>,
        b: &MatrixView<'_, In>,
        beta: Acc,
        c: &mut Matrix<Acc>,
        decomp: &Decomposition,
    ) -> Result<(), ExecutorError>
    where
        In: Promote<Acc>,
        Acc: Scalar,
    {
        let space = decomp.space();
        check_shape("C", (space.shape().m, space.shape().n), (c.rows(), c.cols()))?;
        check_single(a, b, decomp)?;
        let fixups = decomp.fixups();
        let (orientation, layout, space) =
            Orientation::choose(self.config.kernel, a, b, c.layout(), space, engine::splits_a_tile(&fixups));
        let writer = TileWriter::new(c.as_mut_slice(), layout, &space);
        let instance = [Instance::new(orientation, *a, *b, Output::Window(&writer), 0)];
        self.run_single(alpha, beta, &instance, decomp, &fixups, &FaultPlan::none()).map(|_| ())
    }

    /// Computes `C = A · B` while injecting `plan`'s faults into the
    /// fixup protocol, recovering from each: a straggling signal is
    /// absorbed by the bounded wait; a lost or poisoned record is
    /// reconstructed by the tile owner recomputing the peer's k-range.
    ///
    /// The returned [`RecoveryReport`] says what recovery had to do.
    /// The output matrix is bit-identical to the fault-free
    /// [`gemm`](Self::gemm) result for every plan. It is born from its
    /// tiles: the buffer is reserved unfilled, each worker's tile store
    /// is the first write its elements see, and it becomes a matrix
    /// only once the launch succeeded and every tile is stored. A
    /// launch that returns `Err` drops it unread.
    ///
    /// # Errors
    ///
    /// As [`try_gemm`](Self::try_gemm).
    pub fn gemm_with_faults<In, Acc>(
        &self,
        a: &Matrix<In>,
        b: &Matrix<In>,
        decomp: &Decomposition,
        plan: &FaultPlan,
    ) -> Result<(Matrix<Acc>, RecoveryReport), ExecutorError>
    where
        In: Promote<Acc>,
        Acc: Scalar,
    {
        let (av, bv) = (a.view(), b.view());
        check_single(&av, &bv, decomp)?;
        let fixups = decomp.fixups();
        let splits = engine::splits_a_tile(&fixups);
        let (orientation, layout, space) =
            Orientation::choose(self.config.kernel, &av, &bv, a.layout(), decomp.space(), splits);
        let out = Output::Owned(OwnedTileWriter::new(layout, &space));
        let instance = [Instance::new(orientation, av, bv, out, 0)];
        let report = self.run_single(Acc::ONE, Acc::ZERO, &instance, decomp, &fixups, plan)?;
        Ok((instance[0].take(), report))
    }

    /// A single-GEMM launch: a group of one, whose operands the caller
    /// checked against `decomp`, consolidated as `fixups` (`decomp`'s).
    fn run_single<In, Acc>(
        &self,
        alpha: Acc,
        beta: Acc,
        instance: &[Instance<'_, In, Acc>; 1],
        decomp: &Decomposition,
        fixups: &[TileFixup],
        plan: &FaultPlan,
    ) -> Result<RecoveryReport, ExecutorError>
    where
        In: Promote<Acc>,
        Acc: Scalar,
    {
        let grid = Grid { ctas: decomp.ctas(), instances: instance, alpha, beta };
        // One pack-cache shard per worker by default: every CTA
        // touching a tile row/column reuses its own shard's packing
        // work, and published panels stay cache-resident on the core
        // that packed them.
        self.run_grid(&grid, fixups, plan, self.pack_shards())
    }

    /// The one grid loop behind every launch entry — `gemm*` and
    /// `gemm_grouped` (which `gemm_batched` runs): residency check, the
    /// launch's pack cache (`shards` tables), span rings and protocol
    /// state, locality-aware dispatch, the engine's worker loop
    /// ([`engine::work`] over [`GridUnits`]) on every pool worker, and
    /// the launch's record. `grid`'s CTAs are validated by
    /// the caller, whose decomposition type knows how; `fixups` is
    /// their consolidation structure.
    pub(crate) fn run_grid<In, Acc>(
        &self,
        grid: &Grid<'_, In, Acc>,
        fixups: &[TileFixup],
        plan: &FaultPlan,
        shards: usize,
    ) -> Result<RecoveryReport, ExecutorError>
    where
        In: Promote<Acc>,
        Acc: Scalar,
    {
        let workers = self.config.threads;
        check_residency(fixups, workers)?;

        let cache = self.launch_pack_cache(grid.instances.iter().map(|i| (i.space(), i.a, i.b)), shards);
        // Locality-aware dispatch: static contiguous per-worker ranges
        // of the (swizzled) CTA order, rebalanced by stealing ranges of
        // tile segments. The unit table's storage outlives the launch
        // in the pool's launch-level store.
        let units = std::mem::take(self.worker_pool().launch_scratch().get_or_insert_with(Vec::<CtaWork>::new));
        let sched = CtaScheduler::over_units(grid.units(units), grid.ctas.len(), workers);
        // One shared epoch so every worker's span timestamps (and the
        // wall clock below) share a zero; each worker id checks its
        // ring out of its own uncontended slot for its whole share.
        let epoch = Instant::now();
        let rings = self.config.trace.then(|| self.launch_rings(epoch));
        let launch = self.launch(grid.ctas.len(), fixups, plan.clone(), cache, rings);
        let error = Mutex::new(None);
        // When worker 0 (this thread) finished its share: the start of
        // the launch's join, which only the launcher can time.
        let share_end = OnceLock::new();
        self.worker_pool().run(&|wid, scratch| {
            let rec = launch.recorder(wid);
            if let Some(now) = rec.start() {
                rec.record(SpanKind::Launch, epoch, now, trace::LAUNCH_WAKE, 0);
            }
            let worker = Worker { launch: &launch, grid, wid, rec: &rec };
            if let Err(e) = engine::work(&GridUnits { worker, sched: &sched }, scratch) {
                // The launch has failed: the other workers stop at
                // their next segment or fold step instead of finishing
                // (or waiting a watchdog out for) a result nobody gets.
                launch.kill();
                lock(&error).get_or_insert(e);
            }
            if wid == 0 {
                if let Some(now) = rec.start() {
                    let _ = share_end.set(now);
                }
            }
        });
        let end = Instant::now();

        let stats = ExecStats {
            steals: sched.steals(),
            deferrals: launch.deferrals(),
            wait_stall: launch.wait_stall(),
            recoveries: launch.recoveries(),
            launches: 0,
        };
        *self.worker_pool().launch_scratch().get_or_insert_with(Vec::new) = sched.into_units();
        let (cache, rings, events) = launch.into_parts();
        self.retire_pack_cache(cache);
        let trace = rings.map(|rings| self.retire_rings(rings, epoch, share_end.get().copied(), end));
        // The launch's record: the per-launch fields are overwritten,
        // `launches` accumulates, and an untraced launch leaves the
        // last trace in place.
        {
            let mut last = lock(&self.last);
            last.stats = ExecStats { launches: last.stats.launches + 1, ..stats };
            if trace.is_some() {
                last.trace = trace;
            }
        }
        match error.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(e) => Err(e),
            None => Ok(RecoveryReport { events }),
        }
    }
}

fn check_shape(
    operand: &'static str,
    expected: (usize, usize),
    got: (usize, usize),
) -> Result<(), ExecutorError> {
    if expected == got {
        Ok(())
    } else {
        Err(ExecutorError::ShapeMismatch { operand, expected, got })
    }
}

/// What a launch and a service submission check of a single GEMM
/// alike: the operands have `decomp`'s shape, and `decomp` is
/// structurally valid.
pub(crate) fn check_single<In: Copy>(
    a: &MatrixView<'_, In>,
    b: &MatrixView<'_, In>,
    decomp: &Decomposition,
) -> Result<(), ExecutorError> {
    let shape = decomp.space().shape();
    check_shape("op(A)", (shape.m, shape.k), (a.rows(), a.cols()))?;
    check_shape("op(B)", (shape.k, shape.n), (b.rows(), b.cols()))?;
    decomp.validate().map_err(ExecutorError::InvalidDecomposition)
}

/// The residency requirement, kept for GPU fidelity: on the device a
/// waiting owner occupies an SM, so the largest owner+peers group must
/// be co-resident. Cooperative deferral would tolerate narrower pools
/// — no entry's owners block while work remains — but refusing keeps
/// the contract of every entry (launches and service admission)
/// identical to the simulator's.
pub(crate) fn check_residency(fixups: &[TileFixup], workers: usize) -> Result<(), ExecutorError> {
    let needed = fixups.iter().map(TileFixup::covering_ctas).max().unwrap_or(1);
    if needed > workers {
        return Err(ExecutorError::InsufficientResidency { needed, threads: workers });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use streamk_core::Strategy;
    use streamk_matrix::f16;
    use streamk_matrix::reference::gemm_naive;
    use streamk_types::{GemmShape, Layout, TileShape};

    fn run_f64(shape: GemmShape, tile: TileShape, strategy: Strategy, threads: usize) {
        let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, 11);
        let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, 12);
        let decomp = Decomposition::from_strategy(shape, tile, strategy);
        let c = CpuExecutor::with_threads(threads).gemm::<f64, f64>(&a, &b, &decomp);
        let reference = gemm_naive::<f64, f64>(&a, &b);
        c.assert_close(&reference, 1e-12);
    }

    #[test]
    fn data_parallel_matches_reference() {
        run_f64(GemmShape::new(96, 80, 64), TileShape::new(32, 32, 16), Strategy::DataParallel, 4);
    }

    #[test]
    fn fixed_split_matches_reference() {
        run_f64(GemmShape::new(96, 80, 64), TileShape::new(32, 32, 16), Strategy::FixedSplit { split: 3 }, 4);
    }

    #[test]
    fn stream_k_matches_reference() {
        for g in [1, 2, 3, 4, 7, 8] {
            run_f64(GemmShape::new(96, 80, 64), TileShape::new(32, 32, 16), Strategy::StreamK { grid: g }, 8);
        }
    }

    #[test]
    fn hybrids_match_reference() {
        let shape = GemmShape::new(224, 96, 64); // 7x3 tiles of 32x32
        let tile = TileShape::new(32, 32, 16);
        run_f64(shape, tile, Strategy::DpOneTileStreamK { sms: 4 }, 4);
        run_f64(shape, tile, Strategy::TwoTileStreamKDp { sms: 4 }, 4);
    }

    #[test]
    fn ragged_shapes_match_reference() {
        // Primes everywhere: every tile is an edge case.
        run_f64(GemmShape::new(67, 43, 29), TileShape::new(16, 16, 8), Strategy::StreamK { grid: 5 }, 6);
        run_f64(GemmShape::new(13, 17, 97), TileShape::new(32, 32, 16), Strategy::StreamK { grid: 4 }, 4);
    }

    #[test]
    fn single_thread_executes_everything() {
        // One worker, no waits possible — every strategy with no
        // cross-CTA groups wider than 1 must still work.
        run_f64(GemmShape::new(64, 64, 32), TileShape::new(32, 32, 16), Strategy::DataParallel, 1);
    }

    #[test]
    fn unsplit_tiles_are_bit_exact() {
        // A data-parallel run accumulates in exactly the reference
        // order: results must be identical, not merely close.
        let shape = GemmShape::new(64, 48, 40);
        let tile = TileShape::new(16, 16, 8);
        let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, 21);
        let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, 22);
        let decomp = Decomposition::data_parallel(shape, tile);
        let c = CpuExecutor::with_threads(4).gemm::<f64, f64>(&a, &b, &decomp);
        let reference = gemm_naive::<f64, f64>(&a, &b);
        assert_eq!(c.max_abs_diff(&reference), 0.0);
    }

    #[test]
    fn mixed_precision_stream_k() {
        let shape = GemmShape::new(64, 64, 96);
        let tile = TileShape::new(32, 32, 16);
        let a = Matrix::<f16>::random::<f32>(shape.m, shape.k, Layout::RowMajor, 31);
        let b = Matrix::<f16>::random::<f32>(shape.k, shape.n, Layout::RowMajor, 32);
        let decomp = Decomposition::stream_k(shape, tile, 6);
        let c = CpuExecutor::with_threads(6).gemm::<f16, f32>(&a, &b, &decomp);
        let reference = gemm_naive::<f16, f32>(&a, &b);
        // f32 accumulation reassociates at seams; tolerance scaled to
        // the k-extent.
        c.assert_close(&reference, 1e-4);
    }

    #[test]
    fn col_major_operands() {
        let shape = GemmShape::new(48, 56, 40);
        let tile = TileShape::new(16, 16, 8);
        let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::ColMajor, 41);
        let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::ColMajor, 42);
        let decomp = Decomposition::stream_k(shape, tile, 4);
        let c = CpuExecutor::with_threads(4).gemm::<f64, f64>(&a, &b, &decomp);
        assert_eq!(c.layout(), Layout::ColMajor);
        c.assert_close(&gemm_naive::<f64, f64>(&a, &b), 1e-12);
    }

    /// Mixed layouts: column-major A against row-major B and the
    /// converse, with a row-major C target via `gemm_ex`.
    #[test]
    fn mixed_layout_operands_are_bit_exact() {
        let shape = GemmShape::new(48, 56, 40);
        let tile = TileShape::new(16, 16, 8);
        let decomp = Decomposition::stream_k(shape, tile, 4);
        let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, 45);
        let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, 46);
        let reference = CpuExecutor::with_threads(4).gemm::<f64, f64>(&a, &b, &decomp);
        let ac = a.to_layout(Layout::ColMajor);
        let bc = b.to_layout(Layout::ColMajor);
        for (av, bv) in [(ac.view(), b.view()), (a.view(), bc.view())] {
            let mut c = Matrix::<f64>::zeros(shape.m, shape.n, Layout::RowMajor);
            CpuExecutor::with_threads(4).gemm_ex(1.0, &av, &bv, 0.0, &mut c, &decomp);
            assert_eq!(c.max_abs_diff(&reference), 0.0, "mixed layouts diverged");
        }
    }

    #[test]
    fn deep_split_single_tile() {
        // One tile split 8 ways — the strong-scaling shape of
        // Figure 9, with the owner accumulating seven peers.
        let shape = GemmShape::new(16, 16, 1024);
        let tile = TileShape::new(16, 16, 8);
        let decomp = Decomposition::stream_k(shape, tile, 8);
        let a = Matrix::<f64>::random::<f64>(16, 1024, Layout::RowMajor, 51);
        let b = Matrix::<f64>::random::<f64>(1024, 16, Layout::RowMajor, 52);
        let c = CpuExecutor::with_threads(8).gemm::<f64, f64>(&a, &b, &decomp);
        c.assert_close(&gemm_naive::<f64, f64>(&a, &b), 1e-10);
    }

    #[test]
    #[should_panic(expected = "co-resident")]
    fn insufficient_residency_is_rejected() {
        // 8-way split of one tile needs 8 co-resident CTAs; 2 threads
        // would deadlock, so the executor must refuse.
        let shape = GemmShape::new(16, 16, 1024);
        let tile = TileShape::new(16, 16, 8);
        let decomp = Decomposition::stream_k(shape, tile, 8);
        let a = Matrix::<f64>::zeros(16, 1024, Layout::RowMajor);
        let b = Matrix::<f64>::zeros(1024, 16, Layout::RowMajor);
        let _ = CpuExecutor::with_threads(2).gemm::<f64, f64>(&a, &b, &decomp);
    }

    #[test]
    #[should_panic(expected = "op(A) must be")]
    fn shape_mismatch_is_rejected() {
        let decomp = Decomposition::data_parallel(GemmShape::new(32, 32, 32), TileShape::new(16, 16, 16));
        let a = Matrix::<f64>::zeros(16, 32, Layout::RowMajor);
        let b = Matrix::<f64>::zeros(32, 32, Layout::RowMajor);
        let _ = CpuExecutor::default().gemm::<f64, f64>(&a, &b, &decomp);
    }

    #[test]
    fn try_gemm_returns_typed_errors() {
        let decomp = Decomposition::stream_k(GemmShape::new(16, 16, 1024), TileShape::new(16, 16, 8), 8);
        let a = Matrix::<f64>::zeros(16, 1024, Layout::RowMajor);
        let b = Matrix::<f64>::zeros(1024, 16, Layout::RowMajor);
        match CpuExecutor::with_threads(2).try_gemm::<f64, f64>(&a, &b, &decomp) {
            Err(ExecutorError::InsufficientResidency { needed: 8, threads: 2 }) => {}
            other => panic!("expected residency error, got {other:?}"),
        }

        let dp = Decomposition::data_parallel(GemmShape::new(32, 32, 32), TileShape::new(16, 16, 16));
        let bad_a = Matrix::<f64>::zeros(16, 32, Layout::RowMajor);
        let ok_b = Matrix::<f64>::zeros(32, 32, Layout::RowMajor);
        match CpuExecutor::default().try_gemm::<f64, f64>(&bad_a, &ok_b, &dp) {
            Err(ExecutorError::ShapeMismatch { operand: "op(A)", expected: (32, 32), got: (16, 32) }) => {}
            other => panic!("expected shape error, got {other:?}"),
        }
    }

    #[test]
    fn gemm_ex_alpha_beta_epilogue() {
        use streamk_matrix::gemm_ex_reference;
        let shape = GemmShape::new(48, 40, 56);
        let tile = TileShape::new(16, 16, 8);
        let decomp = Decomposition::stream_k(shape, tile, 5);
        let a = Matrix::<f64>::random::<f64>(48, 56, Layout::RowMajor, 61);
        let b = Matrix::<f64>::random::<f64>(56, 40, Layout::RowMajor, 62);
        let c0 = Matrix::<f64>::random::<f64>(48, 40, Layout::RowMajor, 63);

        let mut c = c0.clone();
        CpuExecutor::with_threads(5).gemm_ex(1.75, &a.view(), &b.view(), -0.25, &mut c, &decomp);

        let mut expected = c0.clone();
        gemm_ex_reference(1.75, &a.view(), &b.view(), -0.25, &mut expected);
        c.assert_close(&expected, 1e-11);
    }

    #[test]
    fn gemm_ex_beta_zero_ignores_nan_c() {
        let shape = GemmShape::new(32, 32, 64);
        let tile = TileShape::new(16, 16, 8);
        let decomp = Decomposition::two_tile_stream_k_dp(shape, tile, 4);
        let a = Matrix::<f64>::random::<f64>(32, 64, Layout::RowMajor, 71);
        let b = Matrix::<f64>::random::<f64>(64, 32, Layout::RowMajor, 72);
        let mut c = Matrix::<f64>::from_fn(32, 32, Layout::RowMajor, |_, _| f64::NAN);
        CpuExecutor::with_threads(4).gemm_ex(1.0, &a.view(), &b.view(), 0.0, &mut c, &decomp);
        assert!(c.as_slice().iter().all(|v| v.is_finite()));
        c.assert_close(&gemm_naive::<f64, f64>(&a, &b), 1e-12);
    }

    #[test]
    fn gemm_ex_transposed_operands() {
        use streamk_matrix::gemm_ex_reference;
        // A stored k x m, B stored n x k: the "tt" variant.
        let shape = GemmShape::new(40, 48, 32);
        let tile = TileShape::new(16, 16, 8);
        let decomp = Decomposition::stream_k(shape, tile, 6);
        let a_store = Matrix::<f64>::random::<f64>(32, 40, Layout::RowMajor, 81);
        let b_store = Matrix::<f64>::random::<f64>(48, 32, Layout::RowMajor, 82);
        let mut c = Matrix::<f64>::zeros(40, 48, Layout::RowMajor);
        CpuExecutor::with_threads(6).gemm_ex(1.0, &a_store.t(), &b_store.t(), 0.0, &mut c, &decomp);

        let mut expected = Matrix::<f64>::zeros(40, 48, Layout::RowMajor);
        gemm_ex_reference(1.0, &a_store.t(), &b_store.t(), 0.0, &mut expected);
        c.assert_close(&expected, 1e-11);
    }

    #[test]
    fn gemm_ex_epilogue_applied_once_per_split_tile() {
        // alpha != 1 with a deeply split single tile: if the scaling
        // were applied per-partial instead of once at the store, the
        // error would be gross.
        let shape = GemmShape::new(16, 16, 512);
        let tile = TileShape::new(16, 16, 8);
        let decomp = Decomposition::stream_k(shape, tile, 8);
        let a = Matrix::<f64>::random::<f64>(16, 512, Layout::RowMajor, 91);
        let b = Matrix::<f64>::random::<f64>(512, 16, Layout::RowMajor, 92);
        let mut c = Matrix::<f64>::zeros(16, 16, Layout::RowMajor);
        CpuExecutor::with_threads(8).gemm_ex(3.0, &a.view(), &b.view(), 0.0, &mut c, &decomp);
        let naive = gemm_naive::<f64, f64>(&a, &b);
        let expected = Matrix::<f64>::from_fn(16, 16, Layout::RowMajor, |r, cc| 3.0 * naive.get(r, cc));
        c.assert_close(&expected, 1e-10);
    }

    // ---- fault injection + recovery ------------------------------------

    /// The standard chaos fixture: a Stream-K launch with several
    /// split seams and a short watchdog so lost-peer tests are quick.
    fn chaos_fixture() -> (Matrix<f64>, Matrix<f64>, Decomposition, CpuExecutor) {
        let shape = GemmShape::new(96, 80, 64);
        let tile = TileShape::new(32, 32, 16);
        let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, 101);
        let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, 102);
        let decomp = Decomposition::stream_k(shape, tile, 7);
        let exec = CpuExecutor::with_threads(8).with_watchdog(Duration::from_millis(200));
        (a, b, decomp, exec)
    }

    #[test]
    fn fault_free_plan_is_clean_and_bit_exact() {
        let (a, b, decomp, exec) = chaos_fixture();
        let baseline = exec.gemm::<f64, f64>(&a, &b, &decomp);
        let (c, report) = exec.gemm_with_faults::<f64, f64>(&a, &b, &decomp, &FaultPlan::none()).unwrap();
        assert!(report.is_clean());
        assert_eq!(c.max_abs_diff(&baseline), 0.0);
    }

    #[test]
    fn lost_peer_is_recovered_bit_exact() {
        let (a, b, decomp, exec) = chaos_fixture();
        let baseline = exec.gemm::<f64, f64>(&a, &b, &decomp);
        let victim = FaultPlan::contributors(&decomp)[0];
        let plan = FaultPlan::single(victim, FaultKind::Lose);
        let (c, report) = exec.gemm_with_faults::<f64, f64>(&a, &b, &decomp, &plan).unwrap();
        assert_eq!(report.timeouts(), 1, "{report:?}");
        assert_eq!(report.events[0].peer, victim);
        assert!(report.recomputed_iters() > 0);
        assert_eq!(c.max_abs_diff(&baseline), 0.0);
    }

    #[test]
    fn poisoned_peer_is_recovered_bit_exact() {
        let (a, b, decomp, exec) = chaos_fixture();
        let baseline = exec.gemm::<f64, f64>(&a, &b, &decomp);
        let victim = *FaultPlan::contributors(&decomp).last().unwrap();
        let plan = FaultPlan::single(victim, FaultKind::Poison);
        let (c, report) = exec.gemm_with_faults::<f64, f64>(&a, &b, &decomp, &plan).unwrap();
        assert_eq!(report.poisonings(), 1, "{report:?}");
        assert_eq!(c.max_abs_diff(&baseline), 0.0);
    }

    #[test]
    fn straggler_within_watchdog_needs_no_recovery() {
        let (a, b, decomp, exec) = chaos_fixture();
        let baseline = exec.gemm::<f64, f64>(&a, &b, &decomp);
        let victim = FaultPlan::contributors(&decomp)[0];
        let plan = FaultPlan::single(victim, FaultKind::Straggle(Duration::from_millis(30)));
        let (c, report) = exec.gemm_with_faults::<f64, f64>(&a, &b, &decomp, &plan).unwrap();
        assert!(report.is_clean(), "a straggler inside the watchdog is absorbed: {report:?}");
        assert_eq!(c.max_abs_diff(&baseline), 0.0);
    }

    #[test]
    fn multi_fault_plan_recovers_every_victim() {
        let (a, b, decomp, exec) = chaos_fixture();
        let baseline = exec.gemm::<f64, f64>(&a, &b, &decomp);
        let contributors = FaultPlan::contributors(&decomp);
        let mut plan = FaultPlan::none();
        for (i, &cta) in contributors.iter().enumerate() {
            plan = plan.with_fault(
                cta,
                if i % 2 == 0 { FaultKind::Lose } else { FaultKind::Poison },
            );
        }
        let (c, report) = exec.gemm_with_faults::<f64, f64>(&a, &b, &decomp, &plan).unwrap();
        assert_eq!(report.recoveries(), contributors.len(), "{report:?}");
        assert_eq!(c.max_abs_diff(&baseline), 0.0);
    }

    #[test]
    fn worker_panic_in_a_launch_leaves_the_pool_reusable() {
        use crate::pool::WorkerPool;
        let (a, b, decomp, exec) = chaos_fixture();
        let baseline = exec.gemm::<f64, f64>(&a, &b, &decomp);
        let launches_before = exec.last_stats().launches;
        let pool_before: *const WorkerPool = exec.worker_pool();

        // Detonate a worker mid-launch, directly on the executor's own
        // pool (the serve path catches per-CTA panics before they get
        // this far; this pins the *pool-level* guarantee they rest on).
        // Worker 0 is the launching thread, the one id sure to run.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.worker_pool().run(&|wid, _| {
                assert!(wid != 0, "worker 0 detonates mid-launch");
            });
        }));
        assert!(caught.is_err(), "the panic must re-raise on the launcher");

        // Same pool object, not a respawn, and the next launch is
        // bit-exact: the panic poisoned nothing that outlives it.
        assert!(std::ptr::eq(exec.worker_pool(), pool_before), "pool must not be rebuilt");
        let again = exec.gemm::<f64, f64>(&a, &b, &decomp);
        assert_eq!(again.max_abs_diff(&baseline), 0.0);
        assert_eq!(exec.last_stats().launches, launches_before + 1);
    }
}
