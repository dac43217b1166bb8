//! The Algorithm 5 CTA engine: the crate's one copy of the per-CTA
//! cycle, which every entry — `gemm*`, `gemm_batched`, `gemm_grouped`,
//! a [`GemmService`](crate::serve::GemmService) request — executes its
//! CTAs through.
//!
//! [`Worker::run_cta`] walks a CTA's iteration range one tile segment
//! at a time and runs the MAC loop over each. A segment that did not
//! start its tile **contributes**: it publishes its partial sums for
//! the tile's owner (`StorePartials` / `Signal`) — or, under a
//! [`FaultPlan`], signals late, never, or poisons its slot. A segment
//! that did start its tile **owns** it: it folds every peer's partials
//! in ascending peer order (`Wait` / `LoadPartials`) and stores the
//! tile, the epilogue applied exactly once.
//!
//! An owner never blocks while there may be other work: a pending peer
//! *parks* the consolidation as a [`Deferred`] record and the worker
//! moves on; [`Worker::resume`] continues it, without blocking while
//! work remains and under the [`WaitPolicy`] watchdog once none does.
//! A peer whose record is lost (watchdog expiry) or poisoned is
//! *recovered*: the owner recomputes the peer's exact contribution
//! from its static work descriptor ([`peer_contribution`]) with the
//! same kernel over the same k-range and folds it at the same point in
//! peer order, so the output is bit-identical to the fault-free run.
//!
//! The cycle is written over a list of problem [`Instance`]s whose
//! iteration spaces are concatenated — the form grouped GEMM needs; a
//! batch is a uniform group, a single GEMM a group of one — and over
//! one per-launch state struct, [`Launch`], which a direct launch
//! builds on its stack and a service request embeds. What differs
//! between callers stays with them: where CTAs come from
//! ([`Worker::run`]'s [`CtaScheduler`], or the service's request
//! sweep), panic isolation, and what completing a tile means.
//!
//! An instance runs the caller's product `C = op(A)·op(B)` or its
//! transpose `Cᵀ = op(B)ᵀ·op(A)ᵀ` into C's own storage, whichever
//! packs less ([`Orientation`]). The cycle cannot tell: it walks the
//! caller's CTAs over the instance's iteration space, which for a
//! transposed instance is [`IterSpace::transposed`] — schedule tile
//! `s` on the transpose of the caller's tile `s` — so fixups, seams,
//! fault plans and recovery events are the caller's.

use crate::executor::{RecoveryCause, RecoveryEvent};
use crate::fault::{FaultKind, FaultPlan};
use crate::fixup::{FixupBoard, TryTake, WaitPolicy};
use crate::microkernel::{KernelKind, PackBuffers};
use crate::output::{OwnedTileWriter, TileWriter};
use crate::packcache::{mac_loop_instance_cached, transpose_pays, PackCache};
use crate::sched::CtaScheduler;
use crate::trace::{self, SpanKind, WorkerTrace, WorkerTracer};
use crate::workspace::Workspace;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use streamk_core::{
    peer_contribution, CtaWork, ExecutorError, FixupError, IterSpace, PeerTable, TileFixup,
    TileSegment,
};
use streamk_matrix::{Matrix, MatrixView, Promote, Scalar};
use streamk_types::Layout;

/// Where an instance's finished tiles go. An instance holds its output,
/// so the instance list of a batch or group is its output list too:
/// one vector per launch, not two.
pub(crate) enum Output<'a, Acc> {
    /// A window over storage someone else holds: a caller's **C**
    /// (`gemm_ex`), or the buffer a service request owns.
    Window(&'a TileWriter<'a, Acc>),
    /// A `β = 0` output born from its tiles, released by
    /// [`Instance::take`] once the launch succeeded.
    Owned(OwnedTileWriter<Acc>),
}

/// Which way round a problem runs the caller's `C = op(A)·op(B)`: as
/// called, or as `Cᵀ = op(B)ᵀ·op(A)ᵀ` stored over C's own storage
/// (DESIGN.md §9, "Orientation"). Decided once per problem by
/// [`transpose_pays`]; the engine runs the same code either way, over
/// the caller's decomposition, its schedule tile `s` on the transpose
/// of the caller's tile `s` ([`IterSpace::transposed`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Orientation {
    transposed: bool,
}

impl Orientation {
    /// The orientation for `a · b` into a `c`-ordered output tiled by
    /// `space` under `kernel`, with the layout and the tiling the
    /// output is then stored by: C's own, or `Cᵀ`'s — `c.flipped()`
    /// over the same storage, tiled by `space.transposed()`.
    pub(crate) fn choose<In: Copy>(
        kernel: KernelKind,
        a: &MatrixView<'_, In>,
        b: &MatrixView<'_, In>,
        c: Layout,
        space: &IterSpace,
    ) -> (Self, Layout, IterSpace) {
        if transpose_pays(kernel.panel_geometry::<In>(), a, b, c, space.tile()) {
            (Self { transposed: true }, c.flipped(), space.transposed())
        } else {
            (Self::default(), c, space.clone())
        }
    }

    /// The caller's `C` from the matrix its output was born as: `Cᵀ`'s
    /// storage read the other way round, without a copy.
    pub(crate) fn restore<Acc>(self, c: Matrix<Acc>) -> Matrix<Acc> {
        if !self.transposed {
            return c;
        }
        let (rows, cols, layout) = (c.cols(), c.rows(), c.layout().flipped());
        Matrix::from_storage(rows, cols, layout, c.into_storage())
    }
}

/// One problem of a launch: its operands, its output, and where its
/// iterations sit in the launch's concatenated iteration space.
pub(crate) struct Instance<'a, In, Acc> {
    /// The left and right operand of the product the engine runs:
    /// `op(A)` and `op(B)`, or `op(B)ᵀ` and `op(A)ᵀ`.
    pub(crate) a: MatrixView<'a, In>,
    pub(crate) b: MatrixView<'a, In>,
    out: Output<'a, Acc>,
    orientation: Orientation,
    /// The launch-wide number of this instance's first iteration.
    first_iter: usize,
}

impl<'a, In: Copy, Acc: Scalar> Instance<'a, In, Acc> {
    /// The caller's `op(A) · op(B)` in `orientation`, stored through
    /// `out` — built on the layout and tiling
    /// [`Orientation::choose`] returned.
    pub(crate) fn new(
        orientation: Orientation,
        a: MatrixView<'a, In>,
        b: MatrixView<'a, In>,
        out: Output<'a, Acc>,
        first_iter: usize,
    ) -> Self {
        let (a, b) = if orientation.transposed { (b.t(), a.t()) } else { (a, b) };
        Self { a, b, out, orientation, first_iter }
    }
}

impl<In, Acc: Scalar> Instance<'_, In, Acc> {
    fn writer(&self) -> &TileWriter<'_, Acc> {
        match &self.out {
            Output::Window(writer) => writer,
            Output::Owned(out) => out.writer(),
        }
    }

    /// The instance's own iteration space: the one its writer tiles
    /// the output by.
    pub(crate) fn space(&self) -> &IterSpace {
        self.writer().space()
    }

    /// Releases an [`Output::Owned`] output as the caller's `C`.
    ///
    /// # Panics
    ///
    /// As [`OwnedTileWriter::take`]; and on an [`Output::Window`],
    /// which has nothing to release.
    pub(crate) fn take(&self) -> Matrix<Acc> {
        match &self.out {
            Output::Owned(out) => self.orientation.restore(out.take()),
            Output::Window(_) => panic!("a borrowed output has no matrix to release"),
        }
    }

    /// The part of `cta`'s range inside this instance, in the
    /// instance's own iteration numbering (empty when they do not
    /// overlap): what [`CtaWork::segments`] and [`peer_contribution`]
    /// take.
    fn local(&self, cta: &CtaWork) -> CtaWork {
        let end = self.first_iter + self.space().total_iters();
        let rebase = |iter: usize| iter.clamp(self.first_iter, end) - self.first_iter;
        CtaWork { cta_id: cta.cta_id, iter_begin: rebase(cta.iter_begin), iter_end: rebase(cta.iter_end) }
    }
}

/// What a launch executes: CTAs over the concatenated iteration spaces
/// of `instances` (ascending `first_iter`, one shared blocking
/// factor), every tile stored as `C = α·acc + β·C`.
pub(crate) struct Grid<'a, In, Acc> {
    pub(crate) ctas: &'a [CtaWork],
    pub(crate) instances: &'a [Instance<'a, In, Acc>],
    pub(crate) alpha: Acc,
    pub(crate) beta: Acc,
}

impl<In, Acc: Scalar> Grid<'_, In, Acc> {
    /// Elements of one accumulator tile.
    pub(crate) fn tile_len(&self) -> usize {
        let tile = self.instances[0].space().tile();
        tile.blk_m * tile.blk_n
    }

    /// The instances `cta` runs through, in order, each with the part
    /// of its range that lies inside ([`Instance::local`]).
    fn parts<'s>(&'s self, cta: &'s CtaWork) -> impl Iterator<Item = (usize, CtaWork)> + 's {
        let first = self
            .instances
            .partition_point(|inst| inst.first_iter + inst.space().total_iters() <= cta.iter_begin);
        self.instances[first..]
            .iter()
            .take_while(|inst| inst.first_iter < cta.iter_end)
            .enumerate()
            .map(move |(i, inst)| (first + i, inst.local(cta)))
    }

    /// `tile` of instance `instance` in the launch-wide tile numbering
    /// fixups use.
    fn global_tile(&self, instance: usize, tile: usize) -> usize {
        self.instances[..instance].iter().map(|inst| inst.space().tiles()).sum::<usize>() + tile
    }

    fn store(&self, instance: usize, tile: usize, accum: &[Acc]) {
        let inst = &self.instances[instance];
        inst.writer().store_tile_ex(tile, inst.space().tile().blk_n, accum, self.alpha, self.beta);
    }
}

/// The protocol state of one launch: everything the cycle reads or
/// counts besides the work itself. It owns what it holds, so a service
/// request can keep one for its whole life.
pub(crate) struct Launch<In, Acc> {
    peers: PeerTable,
    board: FixupBoard<Acc>,
    plan: FaultPlan,
    policy: WaitPolicy,
    kernel: KernelKind,
    cache: Option<PackCache<In>>,
    /// Recompute a lost or poisoned peer (`true`), or fail the launch
    /// with the typed fixup error (`false`).
    recover: bool,
    /// Set once nobody wants the result any more (a failed launch, a
    /// cancelled or expired request): workers stop spending cycles on
    /// it at the next segment, fold step or backoff round.
    dead: AtomicBool,
    deferrals: AtomicUsize,
    /// Nanoseconds spent in blocking waits, summed across workers.
    /// Always measured, traced or not.
    wait_ns: AtomicU64,
    /// Every recovery, in the order they were performed.
    events: Mutex<Vec<RecoveryEvent>>,
    /// The launch's own span ring — a traced service request's. With
    /// `None`, spans go to whatever tracer the executing thread has
    /// installed (a traced direct launch's per-worker ring), if any.
    spans: Option<Mutex<WorkerTracer>>,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<In, Acc: Scalar> Launch<In, Acc> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        grid_size: usize,
        fixups: &[TileFixup],
        plan: FaultPlan,
        policy: WaitPolicy,
        kernel: KernelKind,
        cache: Option<PackCache<In>>,
        recover: bool,
        spans: Option<WorkerTracer>,
    ) -> Self {
        Self {
            peers: PeerTable::new(grid_size, fixups),
            board: FixupBoard::new(grid_size),
            plan,
            policy,
            kernel,
            cache,
            recover,
            dead: AtomicBool::new(false),
            deferrals: AtomicUsize::new(0),
            wait_ns: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
            spans: spans.map(Mutex::new),
        }
    }

    /// Declares the launch dead; see the `dead` field.
    pub(crate) fn kill(&self) {
        self.dead.store(true, Ordering::Release);
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Owner consolidations parked so far.
    pub(crate) fn deferrals(&self) -> usize {
        self.deferrals.load(Ordering::Relaxed)
    }

    /// Time spent in blocking fixup waits so far, summed across workers.
    pub(crate) fn wait_stall(&self) -> Duration {
        Duration::from_nanos(self.wait_ns.load(Ordering::Relaxed))
    }

    /// Peer contributions recomputed so far.
    pub(crate) fn recoveries(&self) -> usize {
        lock(&self.events).len()
    }

    /// Ends the launch: its pack cache (for the executor to retire)
    /// and everything recovery did.
    pub(crate) fn into_parts(self) -> (Option<PackCache<In>>, Vec<RecoveryEvent>) {
        (self.cache, self.events.into_inner().unwrap_or_else(PoisonError::into_inner))
    }

    /// The launch's own span ring, drained; `None` without one.
    pub(crate) fn drain_spans(&self) -> Option<WorkerTrace> {
        self.spans.as_ref().map(|ring| lock(ring).drain())
    }

    /// Opens a span: a timestamp when somebody records, `None` when
    /// not (a field check and a thread-local flag read).
    pub(crate) fn start(&self) -> Option<Instant> {
        if self.spans.is_some() {
            Some(Instant::now())
        } else {
            trace::start()
        }
    }

    /// Closes a span opened by [`start`](Self::start) now.
    pub(crate) fn finish(&self, kind: SpanKind, t0: Option<Instant>, arg: u32, arg2: u32) {
        if let Some(t0) = t0 {
            self.record(kind, t0, Instant::now(), arg, arg2);
        }
    }

    /// Records the span `[t0, t1)` into the launch's own ring, or the
    /// executing thread's tracer when it has none.
    pub(crate) fn record(&self, kind: SpanKind, t0: Instant, t1: Instant, arg: u32, arg2: u32) {
        match &self.spans {
            Some(ring) => lock(ring).record(kind, t0, t1, arg, arg2),
            None => trace::record(kind, t0, t1, arg, arg2),
        }
    }

    /// The contributor side: publishes `partial` as CTA `cta`'s record
    /// for its tile's owner — or whatever the fault plan makes of it.
    /// Partials travel *unscaled*; the epilogue is the owner's.
    fn contribute(&self, cta: usize, partial: Vec<Acc>, ws: &mut Workspace<In, Acc>) -> Result<(), FixupError> {
        match self.plan.fault_for(cta) {
            // The record vanishes: no signal, ever. The owner's
            // watchdog must fire.
            Some(FaultKind::Lose) => ws.recycle_partial(partial),
            // The record arrives detectably corrupted.
            Some(FaultKind::Poison) => {
                ws.recycle_partial(partial);
                self.board.poison(cta)?;
            }
            fault => {
                if let Some(FaultKind::Straggle(delay)) = fault {
                    std::thread::sleep(delay);
                }
                let t0 = self.start();
                // The buffer's ownership passes through the board to
                // the owner, whose pool it then feeds.
                self.board.store_and_signal(cta, partial)?;
                self.finish(SpanKind::Signal, t0, cta as u32, 0);
            }
        }
        Ok(())
    }

    /// Probes `peer`'s slot once (`block` false), or under the
    /// watchdog's backoff ladder until it resolves, the launch dies or
    /// the deadline expires.
    fn take(&self, peer: usize, block: bool) -> Taken<Acc> {
        let probe = || {
            if self.is_dead() {
                return Some(Taken::Dead);
            }
            match self.board.try_take(peer) {
                TryTake::Ready(partial) => Some(Taken::Ready(partial)),
                TryTake::Poisoned => Some(Taken::Lost(RecoveryCause::Poisoned)),
                TryTake::Pending => None,
            }
        };
        if !block {
            return probe().unwrap_or(Taken::Pending);
        }
        let t0 = Instant::now();
        let (probed, rounds) = self.policy.wait_until_counted(probe);
        let t1 = Instant::now();
        self.wait_ns.fetch_add(t1.duration_since(t0).as_nanos() as u64, Ordering::Relaxed);
        self.record(SpanKind::Wait, t0, t1, peer as u32, rounds);
        probed.unwrap_or_else(|waited| Taken::Lost(RecoveryCause::Timeout(waited)))
    }
}

/// What probing one peer's slot produced.
enum Taken<Acc> {
    Ready(Vec<Acc>),
    Pending,
    Dead,
    Lost(RecoveryCause),
}

/// A parked owner consolidation: the owner's accumulated tile and the
/// index of the first peer not yet folded. Folding continues in strict
/// ascending peer order from `next_peer`, so a consolidation that was
/// parked combines partials in exactly the order an uninterrupted one
/// does — bit-identical output.
pub(crate) struct Deferred<Acc> {
    owner: usize,
    instance: usize,
    /// The tile, in its instance's numbering.
    tile: usize,
    pub(crate) accum: Vec<Acc>,
    next_peer: usize,
}

/// How far a consolidation got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Progress {
    /// Every peer folded (and, from [`Worker::resume`], the tile
    /// stored).
    Done,
    /// A peer is still pending: park, and resume later.
    Parked,
    /// The launch died: drop the consolidation.
    Abandoned,
}

/// The partial fold: `accum += partial`, element by element.
fn accumulate<Acc: Scalar>(accum: &mut [Acc], partial: &[Acc]) {
    for (acc, p) in accum.iter_mut().zip(partial) {
        *acc += *p;
    }
}

/// One worker's view of a launch: what it executes CTAs of. `wid` also
/// selects the worker's pack-cache shard.
pub(crate) struct Worker<'a, In, Acc> {
    pub(crate) launch: &'a Launch<In, Acc>,
    pub(crate) grid: &'a Grid<'a, In, Acc>,
    pub(crate) wid: usize,
}

impl<In: Promote<Acc>, Acc: Scalar> Worker<'_, In, Acc> {
    /// The MAC loop over `seg` of instance `instance`, added into
    /// `accum`.
    fn mac(&self, instance: usize, seg: &TileSegment, accum: &mut [Acc], bufs: &mut PackBuffers<In>) {
        let inst = &self.grid.instances[instance];
        mac_loop_instance_cached(
            self.launch.kernel,
            self.launch.cache.as_ref(),
            instance,
            self.wid,
            &inst.a,
            &inst.b,
            inst.space(),
            seg.tile_idx,
            seg.local_begin,
            seg.local_end,
            accum,
            bufs,
        );
    }

    /// The owner side: folds `d`'s peers into its accumulator in
    /// ascending order from `d.next_peer`, recovering the ones whose
    /// record is lost or poisoned (or, with recovery off, failing with
    /// the typed error). Without `block` the first pending peer parks
    /// the consolidation.
    fn fold(
        &self,
        d: &mut Deferred<Acc>,
        ws: &mut Workspace<In, Acc>,
        block: bool,
    ) -> Result<Progress, ExecutorError> {
        let (launch, grid) = (self.launch, self.grid);
        let peers = launch.peers.peers(d.owner);
        while let Some(&peer) = peers.get(d.next_peer) {
            let cause = match launch.take(peer, block) {
                Taken::Ready(partial) => {
                    let t0 = launch.start();
                    accumulate(&mut d.accum, &partial);
                    ws.recycle_partial(partial);
                    launch.finish(SpanKind::LoadPartials, t0, peer as u32, 0);
                    d.next_peer += 1;
                    continue;
                }
                Taken::Pending => return Ok(Progress::Parked),
                Taken::Dead => return Ok(Progress::Abandoned),
                Taken::Lost(cause) => cause,
            };
            if !launch.recover {
                return Err(match cause {
                    RecoveryCause::Timeout(waited) => FixupError::WatchdogTimeout { peer, waited },
                    RecoveryCause::Poisoned => FixupError::PoisonedPartials { cta: peer },
                }
                .into());
            }
            let t0 = launch.start();
            let inst = &grid.instances[d.instance];
            let tile_idx = grid.global_tile(d.instance, d.tile);
            let lost = peer_contribution(&inst.local(&grid.ctas[peer]), inst.space(), d.tile).ok_or_else(|| {
                ExecutorError::InvalidDecomposition(format!(
                    "fixup lists CTA {peer} as a peer of tile {tile_idx} but it contributes nothing",
                ))
            })?;
            ws.reset_scratch();
            self.mac(d.instance, &lost, &mut ws.scratch, &mut ws.pack);
            accumulate(&mut d.accum, &ws.scratch);
            launch.finish(SpanKind::Recovery, t0, peer as u32, lost.len() as u32);
            lock(&launch.events).push(RecoveryEvent { peer, tile_idx, cause, recomputed_iters: lost.len() });
            d.next_peer += 1;
        }
        Ok(Progress::Done)
    }

    /// Executes CTA `id`: Algorithm 5's iteration-processing outer
    /// loop. Returns how many tiles it stored; consolidations it had to
    /// park are handed to `park` instead, for [`resume`](Self::resume).
    ///
    /// Every tile-sized buffer — contributor partials and owner
    /// accumulators alike — is drawn from `ws`'s pool and goes back to
    /// a pool, so the steady state allocates nothing and a panic
    /// part-way leaves the workspace whole.
    ///
    /// # Errors
    ///
    /// A fixup protocol violation, or — with recovery off — the first
    /// lost or poisoned peer.
    pub(crate) fn run_cta(
        &self,
        id: usize,
        ws: &mut Workspace<In, Acc>,
        mut park: impl FnMut(Deferred<Acc>),
    ) -> Result<usize, ExecutorError> {
        let (launch, grid) = (self.launch, self.grid);
        let cta = &grid.ctas[id];
        let mut stored = 0;
        for (instance, part) in grid.parts(cta) {
            for seg in part.segments(grid.instances[instance].space()) {
                if launch.is_dead() {
                    return Ok(stored);
                }
                let mut accum = ws.take_partial();
                let t0 = launch.start();
                self.mac(instance, &seg, &mut accum, &mut ws.pack);
                launch.finish(SpanKind::Mac, t0, seg.tile_idx as u32, seg.len() as u32);
                if !seg.starts_tile {
                    // Joined the tile mid-stream: its owner consolidates.
                    launch.contribute(cta.cta_id, accum, ws)?;
                    continue;
                }
                if !seg.ends_tile {
                    // Owner of a split tile: fold the peers that have
                    // signaled; park on the first that has not. With
                    // static per-worker ranges an owner can sit *ahead
                    // of its own peers* in the dispatch order, so
                    // waiting here could deadlock the launch, not just
                    // idle a core.
                    let mut d = Deferred { owner: id, instance, tile: seg.tile_idx, accum, next_peer: 0 };
                    match self.fold(&mut d, ws, false)? {
                        Progress::Done => accum = d.accum,
                        Progress::Parked => {
                            launch.deferrals.fetch_add(1, Ordering::Relaxed);
                            if let Some(now) = launch.start() {
                                launch.record(SpanKind::DeferPark, now, now, d.tile as u32, d.next_peer as u32);
                            }
                            park(d);
                            continue;
                        }
                        Progress::Abandoned => {
                            ws.recycle_partial(d.accum);
                            return Ok(stored);
                        }
                    }
                }
                grid.store(instance, seg.tile_idx, &accum);
                ws.recycle_partial(accum);
                stored += 1;
            }
        }
        Ok(stored)
    }

    /// Advances a parked consolidation as far as its peers allow, and
    /// stores its tile once they are all folded ([`Progress::Done`]).
    /// With `block` it waits for each pending peer under the watchdog
    /// — safe only once no claimable work is left, when every pending
    /// peer is held by a worker that signals before it can wait. On
    /// anything but [`Progress::Parked`] the caller drops `d` (its
    /// accumulator back to a pool).
    ///
    /// # Errors
    ///
    /// As [`run_cta`](Self::run_cta).
    pub(crate) fn resume(
        &self,
        d: &mut Deferred<Acc>,
        ws: &mut Workspace<In, Acc>,
        block: bool,
    ) -> Result<Progress, ExecutorError> {
        let t0 = self.launch.start();
        let progress = self.fold(d, ws, block)?;
        if progress == Progress::Done {
            self.grid.store(d.instance, d.tile, &d.accum);
            // Only a resumption that completes is a span: fruitless
            // polls (the peer still pending) would flood the ring.
            self.launch.finish(SpanKind::DeferResume, t0, d.tile as u32, 0);
        }
        Ok(progress)
    }

    /// The worker's share of a direct launch: resume whatever it has
    /// parked, claim the next CTA from `sched` (own range first, then
    /// steal), and — when nothing is left to claim — finish the parked
    /// consolidations blocking.
    ///
    /// The final drain cannot deadlock: `sched` is drained, so every
    /// CTA is claimed; a claimed contributor runs to its signal
    /// without ever waiting (owners park instead), so every pending
    /// peer signals in bounded time or trips the watchdog.
    ///
    /// # Errors
    ///
    /// As [`run_cta`](Self::run_cta); the worker stops at its first
    /// error.
    pub(crate) fn run(&self, sched: &CtaScheduler, ws: &mut Workspace<In, Acc>) -> Result<(), ExecutorError> {
        let launch = self.launch;
        let mut deferred = Vec::new();
        loop {
            self.drain(&mut deferred, ws, false)?;
            let t0 = launch.start();
            let Some(claim) = sched.next_claim(self.wid) else { break };
            let kind = if claim.stolen { SpanKind::Steal } else { SpanKind::Claim };
            launch.finish(kind, t0, claim.id as u32, 0);
            let t0 = launch.start();
            self.run_cta(claim.id, ws, |d| deferred.push(d))?;
            launch.finish(SpanKind::Cta, t0, claim.id as u32, self.wid as u32);
        }
        self.drain(&mut deferred, ws, true)
    }

    /// Resumes every consolidation in `deferred`, dropping the ones
    /// that finished (or died with the launch).
    fn drain(
        &self,
        deferred: &mut Vec<Deferred<Acc>>,
        ws: &mut Workspace<In, Acc>,
        block: bool,
    ) -> Result<(), ExecutorError> {
        let mut i = 0;
        while i < deferred.len() {
            match self.resume(&mut deferred[i], ws, block)? {
                Progress::Parked => i += 1,
                Progress::Done | Progress::Abandoned => ws.recycle_partial(deferred.swap_remove(i).accum),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_core::{GroupedDecomposition, GroupedSpace};
    use streamk_matrix::reference::gemm_naive;
    use streamk_types::{GemmShape, Layout, TileShape};

    const TILE: TileShape = TileShape { blk_m: 16, blk_n: 16, blk_k: 8 };
    /// One tile of five iterations, then two tiles of three: eleven
    /// iterations, so three or four CTAs split every tile and one of
    /// them crosses from the first instance into the second.
    const SHAPES: [GemmShape; 2] =
        [GemmShape { m: 16, n: 16, k: 40 }, GemmShape { m: 16, n: 32, k: 24 }];

    fn operands() -> (Vec<Matrix<f64>>, Vec<Matrix<f64>>) {
        let fill = |rows, cols, seed| Matrix::<f64>::random::<f64>(rows, cols, Layout::RowMajor, seed);
        SHAPES.iter().zip(0..).map(|(s, i)| (fill(s.m, s.k, 7 + i), fill(s.k, s.n, 17 + i))).unzip()
    }

    /// The group under `ctas` Stream-K CTAs on `workers` plain threads
    /// (no pool: `Worker::run` is the whole of a worker), the register
    /// block (portable under Miri), recovery on: the outputs and what
    /// recovery did.
    fn run(workers: usize, ctas: usize, plan: FaultPlan) -> (Vec<Matrix<f64>>, Vec<RecoveryEvent>) {
        run_oriented(workers, ctas, plan, [false; 2])
    }

    /// [`run`] with instance `i` computing its transpose where
    /// `transposed[i]`, into a column-major `Cᵀ` over its row-major C.
    fn run_oriented(
        workers: usize,
        ctas: usize,
        plan: FaultPlan,
        transposed: [bool; 2],
    ) -> (Vec<Matrix<f64>>, Vec<RecoveryEvent>) {
        let decomp = GroupedDecomposition::stream_k(GroupedSpace::new(&SHAPES, TILE), ctas);
        decomp.validate().expect("a valid grid");
        let (a, b) = operands();
        let mut first_iter = 0;
        let instances: Vec<Instance<'_, f64, f64>> = decomp
            .space()
            .instances()
            .iter()
            .enumerate()
            .map(|(i, space)| {
                let orientation = Orientation { transposed: transposed[i] };
                let out = if transposed[i] {
                    OwnedTileWriter::new(Layout::ColMajor, &space.transposed())
                } else {
                    OwnedTileWriter::new(Layout::RowMajor, space)
                };
                let instance = Instance::new(orientation, a[i].view(), b[i].view(), Output::Owned(out), first_iter);
                first_iter += space.total_iters();
                instance
            })
            .collect();
        let grid = Grid { ctas: decomp.ctas(), instances: &instances, alpha: 1.0, beta: 0.0 };
        let policy = WaitPolicy::with_watchdog(Duration::from_millis(50));
        let launch =
            Launch::new(ctas, &decomp.fixups(), plan, policy, KernelKind::Block, None, true, None);
        let sched = CtaScheduler::new(ctas, workers);
        std::thread::scope(|scope| {
            for wid in 0..workers {
                let (launch, grid, sched) = (&launch, &grid, &sched);
                scope.spawn(move || {
                    let mut ws = Workspace::new(grid.tile_len());
                    Worker { launch, grid, wid }.run(sched, &mut ws).expect("recovery masks every fault");
                });
            }
        });
        let (_, events) = launch.into_parts();
        (instances.iter().map(Instance::take).collect(), events)
    }

    #[test]
    fn a_group_of_two_is_bit_exact_whoever_runs_it() {
        let (a, b) = operands();
        for ctas in [3, 4] {
            let (alone, events) = run(1, ctas, FaultPlan::none());
            assert!(events.is_empty());
            for (c, (a, b)) in alone.iter().zip(a.iter().zip(&b)) {
                c.assert_close(&gemm_naive::<f64, f64>(a, b), 1e-12);
            }
            for workers in [2, 3] {
                let (c, events) = run(workers, ctas, FaultPlan::none());
                assert!(events.is_empty(), "{workers} workers x {ctas} CTAs: {events:?}");
                assert!(c == alone, "{workers} workers x {ctas} CTAs diverged from one worker");
            }
        }
    }

    /// Four CTAs of 3, 3, 3 and 2 iterations: CTA 1 finishes the first
    /// instance's tile (iterations 3..5) before it crosses into the
    /// second instance. Lost, its two iterations are recomputed by the
    /// owner after one watchdog.
    #[test]
    fn a_lost_peer_is_recomputed_from_its_own_instance() {
        let (calm, _) = run(2, 4, FaultPlan::none());
        for workers in [2, 3] {
            let (c, events) = run(workers, 4, FaultPlan::single(1, FaultKind::Lose));
            assert!(c == calm, "{workers} workers: recovery changed the output");
            let [event] = events[..] else { panic!("one recovery, got {events:?}") };
            assert_eq!((event.peer, event.tile_idx, event.recomputed_iters), (1, 0, 2));
            assert!(matches!(event.cause, RecoveryCause::Timeout(_)), "{event:?}");
        }
    }

    /// CTA 3 finishes the second instance's second tile — tile 2 of the
    /// launch — with iterations 1..3. Poisoned, its record is refused
    /// and recomputed without waiting for any deadline.
    #[test]
    fn a_poisoned_peer_is_recomputed_without_a_wait() {
        let (calm, _) = run(2, 4, FaultPlan::none());
        for workers in [2, 3] {
            let (c, events) = run(workers, 4, FaultPlan::single(3, FaultKind::Poison));
            assert!(c == calm, "{workers} workers: recovery changed the output");
            let [event] = events[..] else { panic!("one recovery, got {events:?}") };
            assert_eq!(
                (event.peer, event.tile_idx, event.cause, event.recomputed_iters),
                (3, 2, RecoveryCause::Poisoned, 2)
            );
        }
    }

    /// Either instance, or both, run as `Cᵀ = Bᵀ·Aᵀ` over the caller's
    /// CTAs: the same C bits, and recovery recomputes the same peer,
    /// tile and iterations, because schedule tile `s` is still the
    /// caller's tile `s`.
    #[test]
    fn a_transposed_instance_runs_the_callers_schedule_bit_for_bit() {
        for plan in [FaultPlan::none(), FaultPlan::single(1, FaultKind::Lose), FaultPlan::single(3, FaultKind::Poison)] {
            let (calm, calm_events) = run(2, 4, plan.clone());
            let key = |events: &[RecoveryEvent]| -> Vec<_> {
                events.iter().map(|e| (e.peer, e.tile_idx, e.recomputed_iters)).collect()
            };
            for transposed in [[true, false], [false, true], [true, true]] {
                let (c, events) = run_oriented(2, 4, plan.clone(), transposed);
                for (got, want) in c.iter().zip(&calm) {
                    assert_eq!((got.rows(), got.cols(), got.layout()), (want.rows(), want.cols(), Layout::RowMajor));
                    assert!(got == want, "{transposed:?} under {plan:?}: the transpose changed C");
                }
                assert_eq!(key(&events), key(&calm_events), "{transposed:?} under {plan:?}");
            }
        }
    }
}
