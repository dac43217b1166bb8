//! Scheduling suite: persistent pool, locality-aware claiming, and
//! cooperative (deferred) fixup.
//!
//! The scaling rework changes *how* work is claimed (static
//! contiguous ranges + range-stealing instead of a global counter)
//! and *how* owners wait (cooperative deferral instead of blocking),
//! but must change nothing observable about the arithmetic:
//!
//! 1. **Bit-exactness across thread counts**: f64 output is identical
//!    for every worker count, because accumulation order is fixed by
//!    the decomposition (ascending k within a CTA, ascending peer
//!    order at seams) — never by the schedule.
//! 2. **Recovery composes with deferral**: lost/poisoned peers are
//!    recomputed at the same fold point whether the consolidation ran
//!    inline, deferred, or in the final blocking drain.
//! 3. **The pool is built once** per executor and reused by every
//!    launch, keeping per-worker arenas warm.
//! 4. **Who shows up never matters**: the launching thread is worker
//!    0 and a helper that arrives after the launcher's share is done
//!    skips the launch, so any subset of workers may execute a grid.
//!    With the helpers held back (the launcher drains the grid alone)
//!    and with the launcher held back (the helpers drain it), `gemm`,
//!    `gemm_batched` and `gemm_grouped` are bit-identical to the
//!    undisturbed run.
//! 5. **Every launch counts**: a batched or grouped launch reports its
//!    real steals, deferrals, recoveries and wait stall in
//!    `ExecStats`, like a single GEMM.
//! 6. **Steals split CTAs, not seams**: a launch dispatches one tile
//!    segment of one CTA at a time, so a drained worker can take the
//!    unstarted tail of a CTA that is already running. Every segment
//!    still runs exactly once, under its own CTA, and the output is
//!    the one-worker run's.

use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;
use streamk_core::{
    BatchedDecomposition, BatchedSpace, CtaWork, Decomposition, GroupedDecomposition, GroupedSpace, SpanKind,
    Strategy, TileFixup,
};
use streamk_cpu::{CpuExecutor, ExecTrace, FaultKind, FaultPlan, WorkerPool};
use streamk_matrix::reference::gemm_naive;
use streamk_matrix::Matrix;
use streamk_types::{GemmShape, Layout, TileShape};

const TILE: TileShape = TileShape { blk_m: 16, blk_n: 16, blk_k: 8 };

fn operands(shape: GemmShape, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, seed);
    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, seed + 1);
    (a, b)
}

/// The widest owner+peers group — the executor's residency floor.
fn residency_floor(decomp: &Decomposition) -> usize {
    decomp.fixups().iter().map(|f| f.covering_ctas()).max().unwrap_or(1)
}

/// The CTAs that contribute partials under `fixups`.
fn contributors(fixups: &[TileFixup]) -> Vec<usize> {
    fixups.iter().flat_map(|f| f.peers.iter().copied()).collect()
}

fn shapes() -> impl proptest::strategy::Strategy<Value = GemmShape> {
    (16usize..81, 16usize..81, 32usize..129).prop_map(|(m, n, k)| GemmShape::new(m, n, k))
}

fn strategies() -> impl proptest::strategy::Strategy<Value = Strategy> {
    prop_oneof![
        Just(Strategy::DataParallel),
        (2usize..5).prop_map(|split| Strategy::FixedSplit { split }),
        (2usize..9).prop_map(|grid| Strategy::StreamK { grid }),
        (2usize..7).prop_map(|sms| Strategy::DpOneTileStreamK { sms }),
        (2usize..7).prop_map(|sms| Strategy::TwoTileStreamKDp { sms }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any strategy, any shape, every admissible worker count: the
    /// f64 output is bit-identical no matter how CTAs were claimed,
    /// stolen, or deferred.
    #[test]
    fn output_is_bit_exact_across_thread_counts(
        shape in shapes(),
        strategy in strategies(),
    ) {
        let decomp = Decomposition::from_strategy(shape, TILE, strategy);
        let floor = residency_floor(&decomp);
        let mut baseline: Option<Matrix<f64>> = None;
        let (a, b) = operands(shape, 7);
        for threads in [1, 2, 3, 4, 8] {
            if threads < floor {
                continue;
            }
            let exec = CpuExecutor::with_threads(threads);
            let c = exec.gemm::<f64, f64>(&a, &b, &decomp);
            match &baseline {
                None => {
                    c.assert_close(&gemm_naive::<f64, f64>(&a, &b), 1e-10);
                    baseline = Some(c);
                }
                Some(base) => prop_assert_eq!(
                    c.max_abs_diff(base),
                    0.0,
                    "threads={} must be bit-exact vs threads of first run ({:?})",
                    threads,
                    strategy
                ),
            }
        }
        prop_assert!(baseline.is_some(), "at least one worker count must be admissible");
    }

    /// The layout matrix: worker count × operand layout × pack-cache
    /// mode must never change a single output bit. `RowMajor` operands
    /// are read in place; `ColMajor` ones run transposed (DESIGN.md
    /// §9, "Orientation") and store a column-major C, through the
    /// private-pack and shared-cache paths whenever an operand packs.
    #[test]
    fn output_is_bit_exact_across_layout_matrix(
        shape in shapes(),
        strategy in strategies(),
    ) {
        let decomp = Decomposition::from_strategy(shape, TILE, strategy);
        let floor = residency_floor(&decomp);
        let (a, b) = operands(shape, 11);
        let mut baseline: Option<Matrix<f64>> = None;
        for threads in [1, 2, 4, 8] {
            if threads < floor {
                continue;
            }
            for layout in [Layout::RowMajor, Layout::ColMajor] {
                let (al, bl) = (a.to_layout(layout), b.to_layout(layout));
                for cache in [true, false] {
                    let exec = CpuExecutor::with_threads(threads).with_pack_cache(cache);
                    let c = exec.gemm::<f64, f64>(&al, &bl, &decomp);
                    match &baseline {
                        None => {
                            c.assert_close(&gemm_naive::<f64, f64>(&a, &b), 1e-10);
                            baseline = Some(c.to_layout(Layout::RowMajor));
                        }
                        Some(base) => prop_assert_eq!(
                            c.to_layout(Layout::RowMajor).max_abs_diff(base),
                            0.0,
                            "threads={} layout={} cache={} diverged ({:?})",
                            threads, layout, cache, strategy
                        ),
                    }
                }
            }
        }
        prop_assert!(baseline.is_some(), "at least one worker count must be admissible");
    }

    /// Fault recovery from column-major operands: the owner's
    /// recomputation path must rebuild a lost or poisoned peer's
    /// contribution from column-major storage, on a launch that runs
    /// transposed, bit-exactly.
    #[test]
    fn single_fault_recovery_from_col_major_operands(
        shape in shapes(),
        grid in 3usize..8,
        victim_idx in 0usize..64,
        poison in 0usize..2,
    ) {
        let decomp = Decomposition::stream_k(shape, TILE, grid);
        let contributors = FaultPlan::contributors(&decomp);
        if contributors.is_empty() {
            return Ok(());
        }
        let victim = contributors[victim_idx % contributors.len()];
        let kind = if poison == 1 { FaultKind::Poison } else { FaultKind::Lose };
        let (a, b) = operands(shape, 13);
        let (a, b) = (a.to_layout(Layout::ColMajor), b.to_layout(Layout::ColMajor));
        let exec = CpuExecutor::with_threads(8).with_watchdog(Duration::from_millis(150));
        let baseline = exec.gemm::<f64, f64>(&a, &b, &decomp);
        let (c, report) = exec
            .gemm_with_faults::<f64, f64>(&a, &b, &decomp, &FaultPlan::single(victim, kind))
            .expect("recovery must mask the fault");
        prop_assert_eq!(report.recoveries(), 1, "{:?}", report);
        prop_assert_eq!(c.max_abs_diff(&baseline), 0.0);
    }

    /// Fault recovery composes with cooperative deferral: losing or
    /// poisoning any single contributor still yields output
    /// bit-identical to the fault-free run.
    #[test]
    fn single_fault_recovery_is_bit_exact_under_deferral(
        shape in shapes(),
        grid in 3usize..8,
        victim_idx in 0usize..64,
        poison in 0usize..2,
    ) {
        let decomp = Decomposition::stream_k(shape, TILE, grid);
        let contributors = FaultPlan::contributors(&decomp);
        if contributors.is_empty() {
            return Ok(());
        }
        let victim = contributors[victim_idx % contributors.len()];
        let kind = if poison == 1 { FaultKind::Poison } else { FaultKind::Lose };
        let exec = CpuExecutor::with_threads(8).with_watchdog(Duration::from_millis(150));
        let baseline = exec.gemm::<f64, f64>(&operands(shape, 9).0, &operands(shape, 9).1, &decomp);
        let (a, b) = operands(shape, 9);
        let (c, report) = exec
            .gemm_with_faults::<f64, f64>(&a, &b, &decomp, &FaultPlan::single(victim, kind))
            .expect("recovery must mask the fault");
        prop_assert_eq!(report.recoveries(), 1, "{:?}", report);
        prop_assert_eq!(c.max_abs_diff(&baseline), 0.0);
    }
}

/// A straggling peer forces its owner to park the consolidation: the
/// owner probes, sees *pending*, defers, and keeps claiming work. The
/// straggler signals well inside the watchdog, so the launch is clean
/// — and the deferral counter proves the cooperative path ran.
#[test]
fn straggling_peer_forces_a_cooperative_deferral() {
    let shape = GemmShape::new(96, 80, 64);
    let decomp = Decomposition::stream_k(shape, TileShape::new(32, 32, 16), 7);
    let (a, b) = operands(shape, 31);
    let exec = CpuExecutor::with_threads(8).with_watchdog(Duration::from_secs(10));
    let baseline = exec.gemm::<f64, f64>(&a, &b, &decomp);

    // Every contributor straggles for far longer than the fault-free
    // compute takes, so every owner reaches its probe while at least
    // one peer is still pending.
    let mut plan = FaultPlan::none();
    for &cta in &FaultPlan::contributors(&decomp) {
        plan = plan.with_fault(cta, FaultKind::Straggle(Duration::from_millis(200)));
    }
    let (c, report) = exec.gemm_with_faults::<f64, f64>(&a, &b, &decomp, &plan).unwrap();
    assert!(report.is_clean(), "stragglers inside the watchdog need no recovery: {report:?}");
    assert_eq!(c.max_abs_diff(&baseline), 0.0);
    let stats = exec.last_stats();
    assert!(stats.deferrals >= 1, "owners must defer on pending peers, got {stats:?}");
}

/// One executor, many launches: the pool is spawned exactly once and
/// serves every launch, and reusing it changes nothing numerically
/// versus a fresh executor per GEMM.
#[test]
fn pool_is_built_once_and_reuse_is_bit_exact() {
    let shapes = [
        GemmShape::new(64, 48, 56),
        GemmShape::new(48, 64, 40),
        // A different tile volume exercises the workspace re-size
        // path between launches.
        GemmShape::new(33, 29, 71),
    ];
    let exec = CpuExecutor::with_threads(4);
    let pool_before = std::ptr::from_ref::<WorkerPool>(exec.worker_pool());
    let launches_before = exec.worker_pool().launches();

    for (i, &shape) in shapes.iter().enumerate() {
        let tile = if i == 2 { TileShape::new(32, 32, 16) } else { TILE };
        let decomp = Decomposition::stream_k(shape, tile, 4);
        let (a, b) = operands(shape, 100 + i as u64);
        let reused = exec.gemm::<f64, f64>(&a, &b, &decomp);
        let fresh = CpuExecutor::with_threads(4).gemm::<f64, f64>(&a, &b, &decomp);
        assert_eq!(
            reused.max_abs_diff(&fresh),
            0.0,
            "launch {i}: warm pool must be bit-exact vs fresh executor"
        );
    }

    assert_eq!(
        std::ptr::from_ref::<WorkerPool>(exec.worker_pool()),
        pool_before,
        "the executor must reuse one pool, not respawn"
    );
    assert_eq!(
        exec.worker_pool().launches() - launches_before,
        shapes.len(),
        "every launch must run on the persistent pool"
    );
    assert_eq!(exec.last_stats().launches, shapes.len());
}

/// Clones share the pool (and its launch counter): an executor handed
/// to another thread keeps using the same workers.
#[test]
fn clones_share_the_pool() {
    let exec = CpuExecutor::with_threads(2);
    let clone = exec.clone();
    assert_eq!(
        std::ptr::from_ref::<WorkerPool>(exec.worker_pool()),
        std::ptr::from_ref::<WorkerPool>(clone.worker_pool()),
    );
    let shape = GemmShape::new(32, 32, 32);
    let decomp = Decomposition::stream_k(shape, TILE, 2);
    let (a, b) = operands(shape, 5);
    let c1 = exec.gemm::<f64, f64>(&a, &b, &decomp);
    let c2 = clone.gemm::<f64, f64>(&a, &b, &decomp);
    assert_eq!(c1.max_abs_diff(&c2), 0.0);
    assert_eq!(exec.worker_pool().launches(), 2);
}

/// Which side of the launch handshake a straggler campaign holds back.
#[derive(Debug, Clone, Copy)]
enum Late {
    /// Every helper: they arrive after the launcher drained the grid
    /// and skip the launch.
    Helpers,
    /// The launcher: it opens the launch, then the helpers drain the
    /// grid before its share starts.
    Launcher,
}

/// Seeded straggler delays for the pool's handshake fault injection:
/// each late worker sleeps 30–60 ms — an order of magnitude longer
/// than any launch in this file takes, debug build included.
fn stragglers(seed: u64, workers: usize, late: Late) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..workers)
        .map(|id| match (late, id) {
            (Late::Helpers, 0) | (Late::Launcher, 1..) => Duration::ZERO,
            _ => Duration::from_millis(30 + rng.next_u64() % 31),
        })
        .collect()
}

/// Runs `launch` undisturbed, then under both straggler campaigns,
/// and requires all three results to be identical.
fn assert_launch_ignores_stragglers<C: PartialEq>(
    exec: &CpuExecutor,
    seed: u64,
    what: &str,
    launch: impl Fn() -> C,
) {
    let baseline = launch();
    for late in [Late::Helpers, Late::Launcher] {
        exec.worker_pool().inject_stragglers(stragglers(seed, exec.threads(), late));
        let disturbed = launch();
        exec.worker_pool().inject_stragglers(Vec::new());
        assert!(disturbed == baseline, "{what}: output changed with {late:?} late");
    }
}

/// Every strategy on 1–8 workers: the single-launch path defers
/// instead of blocking, so whichever workers show up drain the grid by
/// range stealing — f64 output is bit-identical whoever was late.
#[test]
fn gemm_is_bit_exact_whichever_side_of_the_handshake_is_late() {
    let shape = GemmShape::new(48, 40, 64);
    let (a, b) = operands(shape, 41);
    let strategies = [
        Strategy::DataParallel,
        Strategy::FixedSplit { split: 2 },
        Strategy::StreamK { grid: 5 },
        Strategy::DpOneTileStreamK { sms: 4 },
        Strategy::TwoTileStreamKDp { sms: 4 },
    ];
    for (s, &strategy) in strategies.iter().enumerate() {
        let decomp = Decomposition::from_strategy(shape, TILE, strategy);
        for threads in residency_floor(&decomp).max(1)..=8 {
            let exec = CpuExecutor::with_threads(threads);
            let seed = (s * 8 + threads) as u64;
            assert_launch_ignores_stragglers(&exec, seed, &format!("{strategy} on {threads}"), || {
                exec.gemm::<f64, f64>(&a, &b, &decomp)
            });
        }
    }
}

/// Batched and grouped launches go through the same grid loop: owners
/// park instead of blocking, and a worker that drained its range steals
/// from the ones that have not shown up. With the helpers late the
/// launcher runs the whole grid; with the launcher late the helpers do:
/// no deadlock, same bits.
#[test]
fn batched_and_grouped_are_bit_exact_whichever_side_of_the_handshake_is_late() {
    let shape = GemmShape::new(32, 32, 48);
    let shapes = [GemmShape::new(32, 32, 48), GemmShape::new(48, 16, 96), GemmShape::new(16, 64, 16)];
    let instances = |shapes: &[GemmShape], seed: u64| -> (Vec<Matrix<f64>>, Vec<Matrix<f64>>) {
        shapes.iter().enumerate().map(|(i, &s)| operands(s, seed + 2 * i as u64)).unzip()
    };
    let (ba, bb) = instances(&[shape; 4], 51);
    let (ga, gb) = instances(&shapes, 61);
    for threads in 1..=8usize {
        let exec = CpuExecutor::with_threads(threads);
        // Data-parallel (no seams, any worker count) and Stream-K with
        // one CTA per worker (seams; at most two CTAs cover a tile).
        let batched = [
            BatchedDecomposition::data_parallel(BatchedSpace::new(4, shape, TILE)),
            BatchedDecomposition::stream_k(BatchedSpace::new(4, shape, TILE), threads),
        ];
        for (d, decomp) in batched.iter().enumerate() {
            let seed = (100 + d * 8 + threads) as u64;
            assert_launch_ignores_stragglers(&exec, seed, &format!("batched #{d} on {threads}"), || {
                exec.gemm_batched::<f64, f64>(&ba, &bb, decomp)
            });
        }
        let grouped = [
            GroupedDecomposition::data_parallel(GroupedSpace::new(&shapes, TILE)),
            GroupedDecomposition::stream_k(GroupedSpace::new(&shapes, TILE), threads),
        ];
        for (d, decomp) in grouped.iter().enumerate() {
            let seed = (200 + d * 8 + threads) as u64;
            assert_launch_ignores_stragglers(&exec, seed, &format!("grouped #{d} on {threads}"), || {
                exec.gemm_grouped::<f64, f64>(&ga, &gb, decomp)
            });
        }
    }

    // The split tile, pinned: two workers, two CTAs, nine tiles — CTA 0
    // owns the middle tile, CTA 1 finishes it. With the helper 40 ms
    // late the launcher parks the split tile, steals the absent
    // worker's range — CTA 1 — and finishes without waiting for it.
    let exec = CpuExecutor::with_threads(2);
    let odd = GemmShape::new(16, 48, 48);
    let decomp = BatchedDecomposition::stream_k(BatchedSpace::new(3, odd, TILE), 2);
    assert!(!decomp.fixups().is_empty(), "an odd tile count over two CTAs splits a tile");
    let late = Duration::from_millis(40);
    exec.worker_pool().inject_stragglers(vec![Duration::ZERO, late]);
    let (a3, b3) = instances(&[odd; 3], 71);
    let disturbed = exec.gemm_batched::<f64, f64>(&a3, &b3, &decomp);
    exec.worker_pool().inject_stragglers(Vec::new());
    let stats = exec.last_stats();
    assert!(stats.wait_stall < late / 4, "the owner waited for its late peer's worker: {stats:?}");
    assert!(stats.deferrals >= 1, "the owner should have parked the split tile: {stats:?}");
    assert!(stats.steals >= 1, "the launcher should have stolen the absent worker's range: {stats:?}");
    let calm = exec.gemm_batched::<f64, f64>(&a3, &b3, &decomp);
    assert!(disturbed == calm, "the late helper changed the output");
}

/// `ExecStats` after a batched launch are that launch's own: a late
/// helper shows as parked owners or stolen ranges, and a lost
/// contributor as exactly the recoveries the report lists.
#[test]
fn batched_launches_report_their_real_counters() {
    let shape = GemmShape::new(16, 48, 48);
    let decomp = BatchedDecomposition::stream_k(BatchedSpace::new(3, shape, TILE), 2);
    let (a, b): (Vec<_>, Vec<_>) = (0..3).map(|i| operands(shape, 81 + 2 * i)).unzip();
    let exec = CpuExecutor::with_threads(2).with_watchdog(Duration::from_millis(100));
    let calm = exec.gemm_batched::<f64, f64>(&a, &b, &decomp);

    exec.worker_pool().inject_stragglers(vec![Duration::ZERO, Duration::from_millis(40)]);
    let late = exec.gemm_batched::<f64, f64>(&a, &b, &decomp);
    exec.worker_pool().inject_stragglers(Vec::new());
    let stats = exec.last_stats();
    assert!(stats.deferrals + stats.steals > 0, "a late helper must show in the counters: {stats:?}");
    assert!(late == calm);

    let mut plan = FaultPlan::none();
    for cta in contributors(&decomp.fixups()) {
        plan = plan.with_fault(cta, FaultKind::Lose);
    }
    assert!(!plan.is_empty(), "the split tile has a contributor to lose");
    let (lost, report) =
        exec.gemm_batched_with_faults::<f64, f64>(&a, &b, &decomp, &plan).expect("recovery masks the loss");
    let stats = exec.last_stats();
    assert_eq!(report.recoveries(), plan.len(), "{report:?}");
    assert_eq!(stats.recoveries, report.recoveries(), "{stats:?}");
    assert!(stats.wait_stall >= Duration::from_millis(100), "a lost peer costs its owner a watchdog: {stats:?}");
    assert!(lost == calm, "recovery changed the output");
}

/// One tile segment as the trace and the plan both name it: its CTA,
/// its tile (numbered within its instance) and its iteration count. A
/// CTA's range is contiguous, so within one instance the pair (CTA,
/// tile) fixes the segment's k-range.
type Segment = (usize, usize, usize);

/// The segments a traced launch ran: one per `Mac` span, credited to
/// the `Cta` span that closes next on the same worker — a unit's span
/// encloses its segment's MAC, and each worker's ring keeps finish
/// order.
fn traced_segments(trace: &ExecTrace) -> Vec<Segment> {
    let mut ran = Vec::new();
    for worker in &trace.workers {
        assert_eq!(worker.dropped, 0, "a span ring overflowed");
        let mut macs = Vec::new();
        for span in &worker.spans {
            match span.kind {
                SpanKind::Mac => macs.push((span.arg as usize, span.arg2 as usize)),
                SpanKind::Cta => ran.extend(macs.drain(..).map(|(tile, iters)| (span.arg as usize, tile, iters))),
                _ => {}
            }
        }
        assert!(macs.is_empty(), "a MAC span outside every unit: {macs:?}");
    }
    ran.sort_unstable();
    ran
}

/// The segments `ctas` must run over `space`, each once.
fn planned_segments(space: &GroupedSpace, ctas: &[CtaWork]) -> Vec<Segment> {
    let mut plan: Vec<Segment> = ctas
        .iter()
        .flat_map(|cta| space.segments(cta).into_iter().map(|s| (cta.cta_id, s.local_tile, s.local_end - s.local_begin)))
        .collect();
    plan.sort_unstable();
    plan
}

/// Runs `launch` traced on `workers` workers with one seeded worker up
/// to 3 ms late — on time, arriving mid-launch while the others steal
/// from its range (a CTA then runs partly on each), or after they
/// drained it — and requires the trace to hold exactly `plan`. Returns
/// the output.
fn run_exactly_once<C>(workers: usize, seed: u64, plan: &[Segment], what: &str, launch: impl Fn(&CpuExecutor) -> C) -> C {
    let exec = CpuExecutor::with_threads(workers).with_trace(true);
    let mut rng = StdRng::seed_from_u64(seed);
    let late = (rng.next_u64() % workers as u64) as usize;
    let delay = Duration::from_micros(rng.next_u64() % 3000);
    exec.worker_pool().inject_stragglers((0..workers).map(|w| if w == late { delay } else { Duration::ZERO }).collect());
    let c = launch(&exec);
    exec.worker_pool().inject_stragglers(Vec::new());
    let trace = exec.last_trace().expect("a traced launch records a trace");
    assert_eq!(traced_segments(&trace), plan, "{what}: segments run vs planned");
    c
}

/// [`residency_floor`] of a batched or grouped grid's `fixups`.
fn fixup_floor(fixups: &[TileFixup]) -> usize {
    fixups.iter().map(TileFixup::covering_ctas).max().unwrap_or(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every strategy — a batch and a group too — on 1–4 workers, one
    /// of them late: the `Mac` spans are exactly the decomposition's
    /// (CTA, tile, k-range) segments, each run once whoever claimed or
    /// stole it, and the output is bit-identical to a calm run on the
    /// fewest workers the grid admits — one, unless a seam needs more
    /// CTAs resident than that (the executor's residency check).
    #[test]
    fn mid_cta_steals_run_every_segment_exactly_once(shape in shapes(), seed in 0u64..1 << 20) {
        let (a, b) = operands(shape, seed);
        let param = 2 + (seed % 4) as usize;
        let strategies = [
            Strategy::DataParallel,
            Strategy::FixedSplit { split: param.min(4) },
            Strategy::StreamK { grid: param + 1 },
            Strategy::DpOneTileStreamK { sms: param },
            Strategy::TwoTileStreamKDp { sms: param },
        ];
        for strategy in strategies {
            let decomp = Decomposition::from_strategy(shape, TILE, strategy);
            let plan = planned_segments(&GroupedSpace::new(&[shape], TILE), decomp.ctas());
            let floor = residency_floor(&decomp);
            let alone = CpuExecutor::with_threads(floor).gemm::<f64, f64>(&a, &b, &decomp);
            for workers in floor..=4 {
                let what = format!("{strategy} on {workers}");
                let c = run_exactly_once(workers, seed + workers as u64, &plan, &what, |e| e.gemm::<f64, f64>(&a, &b, &decomp));
                prop_assert!(c == alone, "{}: output differs from the calm run's", what);
            }
        }

        let shapes = [shape, GemmShape::new(shape.n, 32, shape.m), GemmShape::new(16, shape.k, 48)];
        let (ga, gb): (Vec<_>, Vec<_>) = shapes.iter().zip(seed..).map(|(&s, i)| operands(s, 3 * i)).unzip();
        let (ba, bb): (Vec<_>, Vec<_>) = (0..3).map(|i| operands(shape, seed + 5 * i)).unzip();
        let batch = BatchedSpace::new(3, shape, TILE);
        let group = GroupedSpace::new(&shapes, TILE);
        for grid in [None, Some(param), Some(param + 3)] {
            let batched = grid.map_or_else(|| BatchedDecomposition::data_parallel(batch.clone()), |g| BatchedDecomposition::stream_k(batch.clone(), g));
            let grouped = grid.map_or_else(|| GroupedDecomposition::data_parallel(group.clone()), |g| GroupedDecomposition::stream_k(group.clone(), g));
            let batch_plan = planned_segments(&GroupedSpace::new(&[shape; 3], TILE), batched.ctas());
            let group_plan = planned_segments(&group, grouped.ctas());
            let (batch_floor, group_floor) = (fixup_floor(&batched.fixups()), fixup_floor(&grouped.fixups()));
            let batch_alone = CpuExecutor::with_threads(batch_floor).gemm_batched::<f64, f64>(&ba, &bb, &batched);
            let group_alone = CpuExecutor::with_threads(group_floor).gemm_grouped::<f64, f64>(&ga, &gb, &grouped);
            for workers in batch_floor..=4 {
                let what = format!("batched grid {grid:?} on {workers}");
                let c = run_exactly_once(workers, seed ^ workers as u64, &batch_plan, &what, |e| e.gemm_batched::<f64, f64>(&ba, &bb, &batched));
                prop_assert!(c == batch_alone, "{}: output differs from the calm run's", what);
            }
            for workers in group_floor..=4 {
                let what = format!("grouped grid {grid:?} on {workers}");
                let c = run_exactly_once(workers, seed ^ (8 + workers) as u64, &group_plan, &what, |e| e.gemm_grouped::<f64, f64>(&ga, &gb, &grouped));
                prop_assert!(c == group_alone, "{}: output differs from the calm run's", what);
            }
        }
    }
}

/// Two CTAs of four whole tiles each — no seam — with the helper 40 ms
/// late: the launcher runs CTA 0, then takes CTA 1 a block of tiles at
/// a time. A steal of whole CTAs would show one steal; stealing units
/// shows several, every one inside CTA 1, and the output is the calm
/// run's.
#[test]
fn mid_cta_steals_split_a_late_helpers_cta() {
    // 4 x 2 tiles of six iterations: 48 iterations, 24 per CTA.
    let shape = GemmShape::new(64, 32, 48);
    let decomp = Decomposition::stream_k(shape, TILE, 2);
    assert!(decomp.fixups().iter().all(TileFixup::is_data_parallel), "every CTA holds whole tiles");
    let (a, b) = operands(shape, 91);
    let exec = CpuExecutor::with_threads(2).with_trace(true);
    let calm = exec.gemm::<f64, f64>(&a, &b, &decomp);

    exec.worker_pool().inject_stragglers(vec![Duration::ZERO, Duration::from_millis(40)]);
    let late = exec.gemm::<f64, f64>(&a, &b, &decomp);
    exec.worker_pool().inject_stragglers(Vec::new());
    let trace = exec.last_trace().expect("a traced launch records a trace");
    let steals: Vec<u32> = trace.workers[0].spans.iter().filter(|s| s.kind == SpanKind::Steal).map(|s| s.arg).collect();
    assert!(steals.len() >= 2, "the launcher should take CTA 1 in blocks of tiles, got steals {steals:?}");
    assert!(steals.iter().all(|&cta| cta == 1), "every steal is inside CTA 1: {steals:?}");
    assert_eq!(exec.last_stats().steals, steals.len());
    let ran = traced_segments(&trace);
    assert_eq!(ran, planned_segments(&GroupedSpace::new(&[shape], TILE), decomp.ctas()));
    assert!(late == calm, "the late helper changed the output");
}
