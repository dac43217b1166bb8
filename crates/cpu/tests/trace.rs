//! Tracing invariants at the executor level.
//!
//! The observability layer's three hard promises, as integration
//! tests against real traced launches:
//!
//! 1. **Non-perturbation**: a traced run is *bit-exact* against an
//!    untraced run of the same launch, across thread counts — spans
//!    observe the computation, they never change it.
//! 2. **Bounded overhead**: with tracing off, no span ring is ever
//!    allocated; with tracing on, warm pool workers reuse the rings
//!    of previous launches, and a full ring drops the *oldest* spans
//!    and counts them instead of blocking or growing.
//! 3. **Structural sanity**: per worker, recorded spans are laminar
//!    (any two either nest or are disjoint) and lie within the launch
//!    wall time — the Chrome-trace export inherits well-nestedness
//!    from this.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use streamk_core::{
    BatchedDecomposition, BatchedSpace, Decomposition, GroupedDecomposition, GroupedSpace, Phase,
    SpanKind,
};
use streamk_cpu::trace::{ring_allocations, LAUNCH_JOIN, LAUNCH_SKIPPED, LAUNCH_WAKE};
use streamk_cpu::{CpuExecutor, ExecTrace, FaultKind, FaultPlan};
use streamk_matrix::Matrix;
use streamk_types::{GemmShape, Layout, TileShape};

/// Serializes tests that assert on the process-global ring-allocation
/// counter against the traced launches in this binary: *every* test
/// that builds a traced executor allocates rings, so every one of
/// them takes the gate, not just the two that read the counter.
static ALLOC_GATE: Mutex<()> = Mutex::new(());

/// The gate guards no data, so a test that failed while holding it
/// must not fail the rest through poisoning.
fn alloc_gate() -> MutexGuard<'static, ()> {
    ALLOC_GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn operands(shape: GemmShape, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, seed);
    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, seed + 1);
    (a, b)
}

/// A shape/grid with split tiles, so traced runs exercise the fixup
/// protocol (signal, wait, load-partials, deferral) — not just MACs.
fn split_launch() -> (GemmShape, TileShape, Decomposition) {
    let shape = GemmShape::new(96, 80, 128);
    let tile = TileShape::new(32, 32, 16);
    let decomp = Decomposition::stream_k(shape, tile, 6);
    assert!(decomp.split_tiles() > 0, "the test launch must cross tile seams");
    (shape, tile, decomp)
}

type Outputs = Vec<Matrix<f64>>;

/// The same kind of launch through each of the three entries: what it
/// computes, and how many MAC iterations that takes in all.
struct Entry {
    name: &'static str,
    total_iters: usize,
    launch: Box<dyn Fn(&CpuExecutor) -> Outputs>,
}

/// A single, a batched and a grouped launch, each with split tiles.
fn entries(seed: u64) -> Vec<Entry> {
    let (shape, tile, decomp) = split_launch();
    let (a, b) = operands(shape, seed);
    let single = Entry {
        name: "gemm",
        total_iters: decomp.space().total_iters(),
        launch: Box::new(move |exec| vec![exec.gemm::<f64, f64>(&a, &b, &decomp)]),
    };

    let instance = GemmShape::new(64, 48, 80);
    let batched = BatchedDecomposition::stream_k(BatchedSpace::new(3, instance, tile), 7);
    assert!(batched.fixups().iter().any(|f| !f.is_data_parallel()), "the batch must cross tile seams");
    let (a, b): (Vec<_>, Vec<_>) = (0..3).map(|i| operands(instance, seed + 10 + 2 * i)).unzip();
    let batch = Entry {
        name: "gemm_batched",
        total_iters: batched.space().total_iters(),
        launch: Box::new(move |exec| exec.gemm_batched::<f64, f64>(&a, &b, &batched)),
    };

    let shapes = [GemmShape::new(64, 48, 80), GemmShape::new(40, 96, 48), GemmShape::new(32, 32, 144)];
    let grouped = GroupedDecomposition::stream_k(GroupedSpace::new(&shapes, tile), 6);
    assert!(grouped.fixups().iter().any(|f| !f.is_data_parallel()), "the group must cross tile seams");
    let (a, b): (Vec<_>, Vec<_>) =
        shapes.iter().zip(0..).map(|(&s, i)| operands(s, seed + 20 + 2 * i)).unzip();
    let group = Entry {
        name: "gemm_grouped",
        total_iters: grouped.space().total_iters(),
        launch: Box::new(move |exec| exec.gemm_grouped::<f64, f64>(&a, &b, &grouped)),
    };
    vec![single, batch, group]
}

#[test]
fn traced_runs_are_bit_exact_across_thread_counts() {
    let _gate = alloc_gate();
    for entry in entries(0x7A0) {
        let baseline = (entry.launch)(&CpuExecutor::with_threads(2));
        // Split seams need two co-resident CTAs, so two workers is the
        // floor for these grids.
        for threads in 2..=8 {
            let exec = CpuExecutor::with_threads(threads).with_trace(true);
            let traced = (entry.launch)(&exec);
            assert!(traced == baseline, "{}: tracing perturbed the result at {threads} threads", entry.name);
            let trace = exec.last_trace().expect("traced launch yields a trace");
            assert_eq!(trace.workers.len(), threads, "{}", entry.name);
            assert!(trace.total_spans() > 0, "{}: traced launch recorded nothing", entry.name);
        }
    }
}

/// Per worker: every span inside the launch, and any two either nested
/// or disjoint. O(n²) is fine at test scale.
fn assert_laminar_within_the_launch(name: &str, trace: &ExecTrace) {
    for (wid, worker) in trace.workers.iter().enumerate() {
        for s in &worker.spans {
            assert!(s.start_ns <= s.end_ns, "{name} worker {wid}: inverted span {s:?}");
            assert!(s.end_ns <= trace.wall_ns, "{name} worker {wid}: span ends after the launch: {s:?}");
        }
        for (i, x) in worker.spans.iter().enumerate() {
            for y in &worker.spans[i + 1..] {
                let disjoint = x.end_ns <= y.start_ns || y.end_ns <= x.start_ns;
                let x_in_y = y.start_ns <= x.start_ns && x.end_ns <= y.end_ns;
                let y_in_x = x.start_ns <= y.start_ns && y.end_ns <= x.end_ns;
                assert!(
                    disjoint || x_in_y || y_in_x,
                    "{name} worker {wid}: partially overlapping spans {x:?} / {y:?}"
                );
            }
        }
    }
}

#[test]
fn spans_are_well_nested_and_within_the_launch_per_worker() {
    let _gate = alloc_gate();
    for entry in entries(0x7A2) {
        let name = entry.name;
        let exec = CpuExecutor::with_threads(4).with_trace(true);
        let _ = (entry.launch)(&exec);
        let trace = exec.last_trace().unwrap_or_else(|| panic!("{name}: traced launch yields a trace"));
        assert_eq!(trace.dropped_spans(), 0, "{name}: default ring must hold this launch");
        assert_laminar_within_the_launch(name, &trace);
        // Every worker that entered accounts for its wake, and took
        // each CTA it ran by a claim or a steal.
        for (wid, worker) in trace.workers.iter().enumerate() {
            let count = |kind: SpanKind| worker.spans.iter().filter(|s| s.kind == kind).count();
            if worker.spans.iter().any(|s| s.kind == SpanKind::Launch && s.arg == LAUNCH_SKIPPED) {
                continue;
            }
            assert!(count(SpanKind::Launch) >= 1, "{name} worker {wid}: no launch span");
            assert_eq!(
                count(SpanKind::Claim) + count(SpanKind::Steal),
                count(SpanKind::Cta),
                "{name} worker {wid}: a CTA without its claim"
            );
        }
        let metrics = trace.metrics();
        assert!(metrics.count(SpanKind::Cta) > 0, "{name}: a launch must record its CTAs");
        assert!(metrics.count(SpanKind::Mac) > 0, "{name}: a GEMM launch must record MAC spans");
        // Every split seam signals: the fixup protocol shows up as spans.
        assert!(metrics.count(SpanKind::Signal) > 0, "{name}: split launch recorded no signals");
        assert!(metrics.count(SpanKind::LoadPartials) > 0, "{name}: owner folds recorded no loads");
    }
}

/// A `Mac` span carries its segment's iteration count: over a launch
/// they add up to the whole iteration space — of every instance, for a
/// batch or a group — each iteration executed exactly once.
#[test]
fn mac_spans_account_for_every_iteration_of_the_combined_space() {
    let _gate = alloc_gate();
    for entry in entries(0x7B2) {
        let exec = CpuExecutor::with_threads(3).with_trace(true);
        let _ = (entry.launch)(&exec);
        let trace = exec.last_trace().expect("traced launch yields a trace");
        assert_eq!(trace.dropped_spans(), 0);
        let iters: usize =
            trace.iter().filter(|(_, s)| s.kind == SpanKind::Mac).map(|(_, s)| s.arg2 as usize).sum();
        assert_eq!(iters, entry.total_iters, "{}", entry.name);
    }
}

#[test]
fn full_ring_drops_oldest_and_counts_without_blocking() {
    let _gate = alloc_gate();
    let (_, _, decomp) = split_launch();
    let (a, b) = operands(GemmShape::new(96, 80, 128), 0x7A4);
    let exec = CpuExecutor::with_threads(2).with_trace(true).with_trace_capacity(4);
    let baseline = CpuExecutor::with_threads(2).gemm::<f64, f64>(&a, &b, &decomp);
    let traced = exec.gemm::<f64, f64>(&a, &b, &decomp);
    assert_eq!(traced.max_abs_diff(&baseline), 0.0, "overflow must not perturb results");
    let trace = exec.last_trace().unwrap();
    assert!(trace.dropped_spans() > 0, "a 4-span ring must overflow on this launch");
    for worker in &trace.workers {
        assert!(worker.spans.len() <= 4, "ring exceeded its capacity");
        // Drop-oldest: the survivors are the *latest* spans, so each
        // worker's record still reaches the end of its timeline.
        if let Some(last) = worker.spans.iter().map(|s| s.end_ns).max() {
            let first = worker.spans.iter().map(|s| s.start_ns).min().unwrap();
            assert!(last >= first);
        }
    }
    // The dropped spans are reported by the metrics registry too.
    assert_eq!(trace.metrics().dropped_spans, trace.dropped_spans() as u64);
}

/// Phase times are self times: a `Mac` span encloses the pack spans
/// of every chunk its segment walked, and on a split deep-k launch —
/// several chunks per segment, packing a large share of the work —
/// charging that time to both phases used to make the phases add up
/// to more worker-time than the launch had.
#[test]
fn phase_times_fit_in_the_launch_on_a_split_deep_k_tile() {
    let _gate = alloc_gate();
    let shape = GemmShape::new(32, 32, 4096);
    let tile = TileShape::new(32, 32, 16);
    let decomp = Decomposition::stream_k(shape, tile, 2);
    assert_eq!(decomp.split_tiles(), 1, "one tile, split across both CTAs");
    // Operands the executor still packs, whichever way round it runs
    // the launch (narrow row-major ones are read in place and record
    // no pack span; DESIGN.md §9, "Orientation"): an A whose k-stride —
    // the row length of the stored Aᵀ — is past 2 KiB, and a B that is
    // a window of a row-major matrix as wide. Both have adjacent lanes
    // and a long k-stride, so each packs as either operand: a tie,
    // which keeps the caller's orientation.
    let at = Matrix::<f64>::random::<f64>(shape.k, 264, Layout::RowMajor, 0x7AC);
    let a = at.t().submatrix(0..shape.m, 0..shape.k);
    let wide = Matrix::<f64>::random::<f64>(shape.k, 264, Layout::RowMajor, 0x7AD);
    let b = wide.view().submatrix(0..shape.k, 0..shape.n);
    let mut c = Matrix::<f64>::zeros(shape.m, shape.n, Layout::RowMajor);
    let exec = CpuExecutor::with_threads(2).with_trace(true);
    exec.gemm_ex::<f64, f64>(1.0, &a, &b, 0.0, &mut c, &decomp);
    let trace = exec.last_trace().unwrap();
    assert_eq!(trace.dropped_spans(), 0);
    let m = trace.metrics();
    // Each worker's segment crosses chunk seams: more pack spans than
    // the one MAC span that encloses them.
    assert!(m.count(SpanKind::PackCached) > 2 * m.count(SpanKind::Mac), "{m:?}");
    let pack = m.phase_ns(Phase::Pack);
    assert!(pack > 0);
    assert_eq!(
        m.phase_ns(Phase::Compute),
        m.total_ns(SpanKind::Mac) - pack,
        "compute is MAC time net of the packing nested in it"
    );
    assert!(
        m.leaf_total_ns() <= trace.workers.len() as u64 * trace.wall_ns,
        "phases claim {} ns of a launch that had {} x {} ns",
        m.leaf_total_ns(),
        trace.workers.len(),
        trace.wall_ns
    );
}

#[test]
fn tracing_off_allocates_no_rings() {
    let _gate = alloc_gate();
    let (_, _, decomp) = split_launch();
    let (a, b) = operands(GemmShape::new(96, 80, 128), 0x7A6);
    let exec = CpuExecutor::with_threads(4);
    let _ = exec.gemm::<f64, f64>(&a, &b, &decomp); // warm the pool
    let before = ring_allocations();
    let _ = exec.gemm::<f64, f64>(&a, &b, &decomp);
    assert_eq!(ring_allocations(), before, "untraced launch allocated a span ring");
    assert!(exec.last_trace().is_none(), "untraced executor must not fabricate a trace");
}

#[test]
fn traced_launches_reuse_rings_once_warm() {
    let _gate = alloc_gate();
    let (_, _, decomp) = split_launch();
    let (a, b) = operands(GemmShape::new(96, 80, 128), 0x7AA);
    let exec = CpuExecutor::with_threads(4).with_trace(true);
    // First traced launch allocates one ring per pool worker...
    let _ = exec.gemm::<f64, f64>(&a, &b, &decomp);
    let before = ring_allocations();
    // ...and steady-state traced launches reuse them.
    let _ = exec.gemm::<f64, f64>(&a, &b, &decomp);
    assert_eq!(ring_allocations(), before, "warm traced launch allocated a new span ring");
    let trace = exec.last_trace().unwrap();
    assert!(trace.total_spans() > 0, "reused rings must still record spans");
    assert!(
        trace.workers.iter().all(|w| w.spans.iter().all(|s| s.end_ns <= trace.wall_ns)),
        "reused rings must be rebased on the new launch epoch"
    );
}

/// Worker 0 is whichever thread launches, so its ring must belong to
/// the worker id, not to the thread: a ring left in the launcher's
/// thread-local would cost one allocation per launcher thread.
#[test]
fn launcher_threads_share_worker_zeros_ring() {
    let _gate = alloc_gate();
    let (_, _, decomp) = split_launch();
    let (a, b) = operands(GemmShape::new(96, 80, 128), 0x7AE);
    let threads = 4;
    let baseline = CpuExecutor::with_threads(threads).gemm::<f64, f64>(&a, &b, &decomp);
    let exec = CpuExecutor::with_threads(threads).with_trace(true);
    let before = ring_allocations();
    for launcher in 0..8 {
        std::thread::scope(|s| {
            s.spawn(|| {
                let traced = exec.gemm::<f64, f64>(&a, &b, &decomp);
                assert_eq!(traced.max_abs_diff(&baseline), 0.0, "launcher thread {launcher}");
                let trace = exec.last_trace().expect("traced launch yields a trace");
                assert_eq!(trace.workers.len(), threads);
                assert!(!trace.workers[0].spans.is_empty(), "worker 0 is the launcher: it always runs");
            });
        });
    }
    assert_eq!(
        ring_allocations() - before,
        threads,
        "eight launcher threads must share one ring per worker id"
    );
}

/// The launch handshake is a span: every worker accounts for the
/// stretch from the launch epoch to its entry into the job, worker 0
/// for the join at the end, and a helper that arrived after the close
/// for the whole launch — no worker's timeline is silently blank.
#[test]
fn every_worker_accounts_for_the_launch_handshake() {
    let _gate = alloc_gate();
    let (_, _, decomp) = split_launch();
    let (a, b) = operands(GemmShape::new(96, 80, 128), 0x7B0);
    let exec = CpuExecutor::with_threads(4).with_trace(true);
    let _ = exec.gemm::<f64, f64>(&a, &b, &decomp);
    let trace = exec.last_trace().unwrap();
    for (wid, worker) in trace.workers.iter().enumerate() {
        let stages: Vec<u32> =
            worker.spans.iter().filter(|s| s.kind == SpanKind::Launch).map(|s| s.arg).collect();
        if wid == 0 {
            assert_eq!(stages, vec![LAUNCH_WAKE, LAUNCH_JOIN], "worker 0 wakes first and joins last");
            let join = worker.spans.last().unwrap();
            assert_eq!(join.end_ns, trace.wall_ns, "the join ends when the launch returns");
        } else if stages == [LAUNCH_SKIPPED] {
            assert_eq!(worker.spans.len(), 1, "worker {wid} never entered: nothing but the skip");
            assert_eq!((worker.spans[0].start_ns, worker.spans[0].end_ns), (0, trace.wall_ns));
        } else {
            assert_eq!(stages, vec![LAUNCH_WAKE], "worker {wid} entered once");
            assert_eq!(worker.spans[0].kind, SpanKind::Launch, "the wake precedes all work");
            assert_eq!(worker.spans[0].start_ns, 0, "the wake starts at the launch epoch");
        }
    }
    let m = trace.metrics();
    assert!(m.count(SpanKind::Launch) >= 5, "one wake or skip per worker plus the join");
    assert!(m.phase_ns(Phase::Schedule) >= m.total_ns(SpanKind::Launch), "launch is a schedule span");
}

#[test]
fn stats_overwrite_per_launch_and_launches_accumulate() {
    let _gate = alloc_gate();
    let shape = GemmShape::new(96, 80, 128);
    let tile = TileShape::new(32, 32, 16);
    let (a, b) = operands(shape, 0x7A8);
    let split = Decomposition::stream_k(shape, tile, 6);
    let dp = Decomposition::data_parallel(shape, tile);
    let exec = CpuExecutor::with_threads(4).with_watchdog(Duration::from_millis(100));

    // Lose a contributor: the owner must stall through the watchdog
    // and recover, so wait_stall and recoveries are both provably
    // nonzero in this launch.
    let victim = *FaultPlan::contributors(&split).first().expect("split grid has contributors");
    let plan = FaultPlan::single(victim, FaultKind::Lose);
    let _ = exec.gemm_with_faults::<f64, f64>(&a, &b, &split, &plan).expect("recovery succeeds");
    let first = exec.last_stats();
    assert_eq!(first.launches, 1);
    assert!(first.wait_stall.as_nanos() > 0, "a lost peer must show up as wait stall");
    assert!(first.recoveries > 0, "a lost peer must be recovered");

    // A data-parallel launch has no seams: every per-launch field must
    // be *overwritten* to this launch's values, not accumulated.
    let _ = exec.gemm::<f64, f64>(&a, &b, &dp);
    let second = exec.last_stats();
    assert_eq!(second.launches, 2, "launches is the one cumulative field");
    assert_eq!(second.deferrals, 0, "deferrals must reset per launch");
    assert_eq!(second.wait_stall.as_nanos(), 0, "wait_stall must reset per launch");
    assert_eq!(second.recoveries, 0, "recoveries must reset per launch");
}

/// Tracing is per launch, the record of the last traced one is not: a
/// launch on an untraced clone records nothing and leaves the last
/// trace where it was, for the original and the clone alike.
#[test]
fn an_untraced_launch_leaves_the_last_trace_in_place() {
    let _gate = alloc_gate();
    let (shape, _, decomp) = split_launch();
    let (a, b) = operands(shape, 0x7B2);
    let exec = CpuExecutor::with_threads(4).with_trace(true);
    let _ = exec.gemm::<f64, f64>(&a, &b, &decomp);
    let traced = exec.last_trace().expect("traced launch yields a trace");
    let untraced = exec.clone().with_trace(false);
    let launches = exec.last_stats().launches;
    let _ = untraced.gemm::<f64, f64>(&a, &b, &decomp);
    assert_eq!(exec.last_stats().launches, launches + 1, "the untraced launch ran");
    assert_eq!(exec.last_trace().as_ref(), Some(&traced), "an untraced launch replaced the last trace");
    assert_eq!(untraced.last_trace().as_ref(), Some(&traced), "the clone reads the same last trace");
}

/// The last-launch record belongs to the executor and all its clones:
/// whichever of them launches, every one reads the same stats and the
/// same trace afterwards.
#[test]
fn clones_read_the_same_last_stats_and_trace() {
    let _gate = alloc_gate();
    let (shape, _, decomp) = split_launch();
    let (a, b) = operands(shape, 0x7B4);
    let exec = CpuExecutor::with_threads(4).with_trace(true);
    let clone = exec.clone();
    for (round, launcher) in [&clone, &exec, &clone].into_iter().enumerate() {
        let _ = launcher.gemm::<f64, f64>(&a, &b, &decomp);
        assert_eq!(exec.last_stats(), clone.last_stats(), "round {round}");
        assert_eq!(exec.last_stats().launches, round + 1, "round {round}");
        let trace = exec.last_trace().expect("traced launch yields a trace");
        assert!(trace.total_spans() > 0, "round {round}");
        assert_eq!(clone.last_trace(), Some(trace), "round {round}");
    }
}

/// `launches` counts launches, whatever the entry: `gemm`, `gemm_ex`,
/// `gemm_grouped` and `gemm_batched` each add exactly one.
#[test]
fn launches_count_every_entry_alike() {
    let _gate = alloc_gate();
    let exec = CpuExecutor::with_threads(4);
    let mut expected = 0;
    for entry in entries(0x7B6) {
        let _ = (entry.launch)(&exec);
        expected += 1;
        assert_eq!(exec.last_stats().launches, expected, "{}", entry.name);
    }
    let (shape, _, decomp) = split_launch();
    let (a, b) = operands(shape, 0x7B8);
    let mut c = Matrix::<f64>::zeros(shape.m, shape.n, Layout::RowMajor);
    exec.gemm_ex(1.0, &a.view(), &b.view(), 0.0, &mut c, &decomp);
    assert_eq!(exec.last_stats().launches, expected + 1, "gemm_ex");
}
