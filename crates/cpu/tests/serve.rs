//! Service suite: concurrent-launch bit-exactness, isolation, and
//! admission behavior of `streamk_cpu::serve`.
//!
//! The load-bearing property, as a proptest: a request's result is
//! **byte-identical** whether it ran alone through the single-launch
//! executor or interleaved with arbitrary other requests — across
//! worker counts, priority mixes, injected faults, and mid-flight
//! cancellations, and whoever computes: the pool alone, or the
//! callers waiting on the handles, who run the same claim loop while
//! they wait. Everything else (backpressure, deadlines, panic
//! isolation, weighted admission, what a waiting caller may and may
//! not do) is pinned by deterministic tests.

use proptest::prelude::*;
use std::time::{Duration, Instant};
use streamk_core::{Decomposition, Strategy};
use streamk_cpu::{
    AdmissionError, CompletionHandle, CpuExecutor, FaultKind, FaultPlan, GemmService,
    LaunchRequest, Priority, RequestStats, ServeConfig, ServeError, ServeFaultKind, WorkerPool,
};
use streamk_matrix::Matrix;
use streamk_types::{GemmShape, Layout, TileShape};

const WATCHDOG: Duration = Duration::from_millis(150);

fn exec(threads: usize) -> CpuExecutor {
    CpuExecutor::with_threads(threads).with_watchdog(WATCHDOG)
}

fn operands(shape: GemmShape, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, seed);
    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, seed + 1);
    (a, b)
}

/// A small palette of shapes so concurrent requests are heterogeneous.
const SHAPES: [GemmShape; 3] = [
    GemmShape { m: 48, n: 40, k: 32 },
    GemmShape { m: 32, n: 32, k: 64 },
    GemmShape { m: 64, n: 24, k: 40 },
];

type Outcome = Result<(Matrix<f64>, RequestStats), ServeError>;

/// Awaits `handles` from `callers` threads at once (handle `i` on
/// thread `i % callers`, each thread in submission order) and returns
/// the outcomes in submission order. Every one of those threads
/// computes while it waits.
fn wait_from(callers: usize, handles: Vec<CompletionHandle<f64, f64>>) -> Vec<Outcome> {
    let mut lanes: Vec<Vec<_>> = (0..callers).map(|_| Vec::new()).collect();
    for (i, handle) in handles.into_iter().enumerate() {
        lanes[i % callers].push((i, handle));
    }
    let mut outcomes: Vec<_> = std::thread::scope(|s| {
        let threads: Vec<_> = lanes
            .into_iter()
            .map(|lane| s.spawn(move || lane.into_iter().map(|(i, h)| (i, h.wait())).collect::<Vec<_>>()))
            .collect();
        threads.into_iter().flat_map(|t| t.join().expect("a waiting caller never unwinds")).collect()
    });
    outcomes.sort_by_key(|(i, _)| *i);
    outcomes.into_iter().map(|(_, outcome)| outcome).collect()
}

fn priority_for(idx: u8) -> Priority {
    Priority::ALL[idx as usize % Priority::ALL.len()]
}

/// Maskable service faults only: every one of these must leave the
/// request's output bit-exact.
fn maskable_fault_for(idx: u8) -> Option<ServeFaultKind> {
    match idx % 5 {
        0 => None,
        1 => Some(ServeFaultKind::AdmitDelay(WATCHDOG / 8)),
        2 => Some(ServeFaultKind::Protocol(FaultKind::Straggle(WATCHDOG / 8))),
        3 => Some(ServeFaultKind::Protocol(FaultKind::Lose)),
        _ => Some(ServeFaultKind::Protocol(FaultKind::Poison)),
    }
}

/// Splitmix64 over a mutable state: derives an arbitrary-length spec
/// list from one sampled seed (the vendored proptest has no
/// collection strategies).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// N concurrent launches vs the same launches run sequentially:
    /// bit-exact, for every worker count, priority mix, window size,
    /// and maskable-fault assignment — with some requests cancelled
    /// mid-flight, which must fail typed without disturbing the rest —
    /// whether the handles are awaited from one thread, two, or one
    /// each (more waiting callers than guest slots, on small pools).
    #[test]
    fn concurrent_launches_match_sequential_bit_exact(
        threads in 2usize..9,
        window in 1usize..5,
        n in 2usize..7,
        callers in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let mut state = seed;
        let specs: Vec<(usize, usize, u8, u8, bool)> = (0..n)
            .map(|_| {
                (
                    (splitmix(&mut state) % 3) as usize,
                    2 + (splitmix(&mut state) % 5) as usize,
                    splitmix(&mut state) as u8,
                    splitmix(&mut state) as u8,
                    splitmix(&mut state).is_multiple_of(5),
                )
            })
            .collect();
        let e = exec(threads);
        // Sequential baselines through the legacy single-launch path
        // (grids whose fixup groups outsize the pool are skipped —
        // the service rejects those same requests at admission).
        let mut jobs = Vec::new();
        for (i, &(shape_idx, grid, prio_idx, fault_idx, cancel)) in specs.iter().enumerate() {
            let shape = SHAPES[shape_idx];
            let decomp = Decomposition::stream_k(shape, TileShape::new(16, 16, 8), grid);
            let cover = decomp.fixups().iter().map(|f| f.covering_ctas()).max().unwrap_or(1);
            if cover > threads {
                continue;
            }
            let (a, b) = operands(shape, 1000 + i as u64);
            let baseline = e.gemm::<f64, f64>(&a, &b, &decomp);
            jobs.push((a, b, decomp, baseline, prio_idx, fault_idx, cancel));
        }
        prop_assume!(!jobs.is_empty());

        let stats_before = e.last_stats();
        let service = GemmService::<f64, f64>::start(
            &e,
            ServeConfig::default().with_window(window),
        );
        let mut handles = Vec::new();
        for (a, b, decomp, _, prio_idx, fault_idx, cancel) in &jobs {
            let mut req = LaunchRequest::new(a.clone(), b.clone(), decomp.clone())
                .with_priority(priority_for(*prio_idx));
            if *cancel {
                req = req.with_serve_fault(ServeFaultKind::Cancel);
            } else if let Some(kind) = maskable_fault_for(*fault_idx) {
                req = req.with_serve_fault(kind);
            }
            handles.push(service.submit(req).expect("valid request admitted"));
        }
        let callers = [1, 2, handles.len()][callers];
        for (outcome, (_, _, decomp, baseline, _, fault_idx, cancel)) in
            wait_from(callers, handles).into_iter().zip(&jobs)
        {
            if *cancel {
                prop_assert_eq!(outcome.unwrap_err(), ServeError::Cancelled);
                continue;
            }
            let (c, stats) = outcome.expect("request must complete");
            prop_assert!(
                c.max_abs_diff(baseline) == 0.0,
                "concurrent result diverged from sequential"
            );
            // Lose/Poison protocol faults must actually exercise the
            // owner-side recovery path, not be silently skipped —
            // unless the grid has no split seams, where the injection
            // degrades to a no-op (nothing crosses CTAs to lose).
            if matches!(
                maskable_fault_for(*fault_idx),
                Some(ServeFaultKind::Protocol(FaultKind::Lose | FaultKind::Poison))
            ) && !FaultPlan::contributors(decomp).is_empty()
            {
                prop_assert!(stats.recoveries >= 1, "protocol fault never recovered");
            }
        }
        let final_stats = service.shutdown();
        prop_assert_eq!(final_stats.pool_poisonings, 0);
        // The serve session is invisible to the legacy per-launch
        // stats: same counters as before the service started.
        prop_assert_eq!(e.last_stats(), stats_before);
    }
}

/// The service reads each operand the way its stride allows: of two
/// requests in flight together, one has a narrow row-major B (read in
/// place by `execute_cta` and `recover_peer` alike) and the other a B
/// whose rows are past the in-place k-stride limit (packed privately
/// by both). Each loses a partial and recovers it through the same
/// source choice, bit-exact with its sequential launch.
#[test]
fn narrow_and_wide_b_requests_recover_side_by_side_bit_exact() {
    let tile = TileShape::new(16, 16, 8);
    let e = exec(4);
    // f64 rows of 33 columns are 264 B apart; of 290, 2320 B. Both
    // shapes are ragged against the tile and the register block.
    let jobs: Vec<_> = [GemmShape::new(40, 33, 96), GemmShape::new(24, 290, 64)]
        .into_iter()
        .enumerate()
        .map(|(i, shape)| {
            let decomp = Decomposition::stream_k(shape, tile, 4);
            assert!(!FaultPlan::contributors(&decomp).is_empty(), "{shape} must have a seam to lose");
            let (a, b) = operands(shape, 40 + i as u64);
            let sequential = e.gemm::<f64, f64>(&a, &b, &decomp);
            (a, b, decomp, sequential)
        })
        .collect();

    let service = GemmService::<f64, f64>::start(&e, ServeConfig::default().with_window(2));
    for round in 0..4 {
        let handles: Vec<_> = jobs
            .iter()
            .map(|(a, b, decomp, _)| {
                let req = LaunchRequest::new(a.clone(), b.clone(), decomp.clone())
                    .with_serve_fault(ServeFaultKind::Protocol(FaultKind::Lose));
                service.submit(req).expect("valid request admitted")
            })
            .collect();
        for (handle, (_, b, _, sequential)) in handles.into_iter().zip(&jobs) {
            let (c, stats) = handle.wait().expect("a lost partial is recovered, not fatal");
            assert_eq!(c.max_abs_diff(sequential), 0.0, "round {round}, B {} wide", b.cols());
            assert!(stats.recoveries >= 1, "round {round}: the lost partial was never recomputed");
        }
    }
    assert_eq!(service.shutdown().pool_poisonings, 0);
}

#[test]
fn panic_is_isolated_to_its_request_and_pool_survives() {
    let shape = GemmShape::new(48, 40, 32);
    let tile = TileShape::new(16, 16, 8);
    let e = exec(4);
    let decomp = Decomposition::stream_k(shape, tile, 4);
    let (a, b) = operands(shape, 7);
    let baseline = e.gemm::<f64, f64>(&a, &b, &decomp);
    let pool_before: *const WorkerPool = e.worker_pool();

    let service = GemmService::<f64, f64>::start(&e, ServeConfig::default());
    let good_before = service
        .submit(LaunchRequest::new(a.clone(), b.clone(), decomp.clone()))
        .unwrap();
    let bomb = service
        .submit(
            LaunchRequest::new(a.clone(), b.clone(), decomp.clone())
                .with_serve_fault(ServeFaultKind::PanicCta),
        )
        .unwrap();
    let good_after = service
        .submit(LaunchRequest::new(a.clone(), b.clone(), decomp.clone()))
        .unwrap();

    // The panicking request fails typed, with the payload preserved.
    match bomb.wait() {
        Err(ServeError::Panicked { message }) => {
            assert!(message.contains("injected serve fault"), "got: {message}")
        }
        other => panic!("expected a panic failure, got {other:?}"),
    }
    // Its neighbors — submitted before and after — are bit-exact.
    let (c1, _) = good_before.wait().expect("request before the panic");
    let (c2, _) = good_after.wait().expect("request after the panic");
    assert_eq!(c1.max_abs_diff(&baseline), 0.0);
    assert_eq!(c2.max_abs_diff(&baseline), 0.0);

    let stats = service.shutdown();
    assert_eq!(stats.panicked, 1);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.pool_poisonings, 0, "panic must never reach the pool");

    // The same pool object serves the legacy path afterwards — no
    // respawn, still bit-exact. Identity, not the process-wide build
    // counter: sibling tests build pools of their own meanwhile.
    assert!(std::ptr::eq(e.worker_pool(), pool_before), "pool must not be rebuilt");
    let again = e.gemm::<f64, f64>(&a, &b, &decomp);
    assert_eq!(again.max_abs_diff(&baseline), 0.0);
}

/// How long the tests below keep the pool's own workers out of a
/// launch (`WorkerPool::inject_stragglers`), so that whatever computes
/// in the meantime is a caller inside `wait`.
const HELD_BACK: Duration = Duration::from_millis(300);

/// Every decomposition strategy × 1–4 service workers × who computes —
/// the pool alone (handles collected after shutdown), one waiting
/// caller, or one per handle (more callers than guest slots on the
/// small pools): the same bits as the single-launch executor.
#[test]
fn every_strategy_is_bit_exact_whoever_computes() {
    let shape = GemmShape::new(48, 40, 32);
    let tile = TileShape::new(16, 16, 8);
    let (a, b) = operands(shape, 31);
    for workers in 1..=4usize {
        let e = exec(workers);
        let strategies = [
            Strategy::DataParallel,
            Strategy::FixedSplit { split: workers.max(2) },
            Strategy::StreamK { grid: 3 },
            Strategy::StreamK { grid: 5 },
            Strategy::StreamK { grid: 7 },
            Strategy::DpOneTileStreamK { sms: 4 },
            Strategy::TwoTileStreamKDp { sms: 4 },
        ];
        let mut admitted = 0;
        for strategy in strategies {
            let decomp = Decomposition::from_strategy(shape, tile, strategy);
            // What the service would reject for residency is not a case.
            if decomp.fixups().iter().any(|f| f.covering_ctas() > workers) {
                continue;
            }
            admitted += 1;
            let baseline = e.gemm::<f64, f64>(&a, &b, &decomp);
            for callers in [0usize, 1, 3] {
                let service = GemmService::<f64, f64>::start(&e, ServeConfig::default().with_window(2));
                let handles: Vec<_> = (0..3)
                    .map(|_| service.submit(LaunchRequest::new(a.clone(), b.clone(), decomp.clone())).unwrap())
                    .collect();
                let outcomes = if callers == 0 {
                    let stats = service.shutdown();
                    assert_eq!(stats.guest_ctas, 0, "nobody waited, so nobody but the pool computed");
                    wait_from(1, handles)
                } else {
                    let outcomes = wait_from(callers, handles);
                    let stats = service.shutdown();
                    assert!(stats.guest_ctas <= stats.ctas);
                    assert_eq!(stats.pool_poisonings, 0);
                    outcomes
                };
                for outcome in outcomes {
                    let (c, _) = outcome.expect("request completes");
                    assert_eq!(
                        c.max_abs_diff(&baseline),
                        0.0,
                        "{strategy} on {workers} worker(s), {callers} waiting caller(s)"
                    );
                }
            }
        }
        assert!(admitted >= 2, "only {admitted} strategies fit {workers} worker(s)");
    }
}

/// The caller alone finishes its request: with the service's one
/// worker held back, `submit` + `wait` returns well inside the delay,
/// every CTA having run on the waiting thread.
#[test]
fn a_waiting_caller_finishes_its_request_alone() {
    let shape = GemmShape::new(48, 40, 32);
    let e = exec(1);
    // Nine tiles on three CTAs: no seams, as one worker requires.
    let decomp = Decomposition::stream_k(shape, TileShape::new(16, 16, 8), 3);
    let (a, b) = operands(shape, 37);
    let baseline = e.gemm::<f64, f64>(&a, &b, &decomp);

    e.worker_pool().inject_stragglers(vec![HELD_BACK]);
    let service = GemmService::<f64, f64>::start(&e, ServeConfig::default());
    let t0 = Instant::now();
    let handle = service.submit(LaunchRequest::new(a.clone(), b.clone(), decomp)).unwrap();
    let (c, stats) = handle.wait().expect("the caller computes its own request");
    let took = t0.elapsed();
    assert!(took < HELD_BACK / 2, "wait took {took:?}: it slept until the pool's worker showed up");
    // Retired at resolution, not at some worker's next sweep (the one
    // worker there is has yet to make its first).
    assert_eq!(service.queue_depth(), (0, 0), "a resolved request has left the window");
    assert_eq!(c.max_abs_diff(&baseline), 0.0);
    assert_eq!(stats.ctas, 3);

    let final_stats = service.shutdown();
    e.worker_pool().inject_stragglers(Vec::new());
    assert_eq!((final_stats.ctas, final_stats.guest_ctas), (3, 3), "every CTA ran inside wait");
    assert_eq!(final_stats.completed, 1);
}

/// A guest never walks away with parked work. Stream-K request `sk`
/// is a chain — CTA 0 owns tile 0 and waits for CTA 1, which owns
/// tile 1 and waits for CTA 2 — and both contributions straggle. The
/// pool's workers are held back, so the caller waiting on `short` is
/// the one that runs CTAs 0 and 1 and parks both consolidations, and a
/// second caller (released once those two are claimed) is the one
/// asleep inside CTA 2. `short` resolves long before CTA 2 signals —
/// and `wait` on it must not return until tile 1, which only its
/// caller can finish, is stored.
#[test]
fn a_guest_sees_its_parked_consolidations_through_before_it_leaves() {
    let tile = TileShape::new(16, 16, 8);
    // Recovery must not be what resolves the seam: the straggler is.
    let e = CpuExecutor::with_threads(2).with_watchdog(Duration::from_secs(5));
    // Two tiles of six iterations on three CTAs of four.
    let sk_shape = GemmShape::new(16, 32, 48);
    let sk_decomp = Decomposition::stream_k(sk_shape, tile, 3);
    assert_eq!(FaultPlan::contributors(&sk_decomp), vec![1, 2], "CTAs 1 and 2 each join a tile mid-stream");
    let (sk_a, sk_b) = operands(sk_shape, 41);
    let sk_baseline = e.gemm::<f64, f64>(&sk_a, &sk_b, &sk_decomp);
    let short_shape = GemmShape::new(16, 16, 16);
    let short_decomp = Decomposition::data_parallel(short_shape, tile);
    let (short_a, short_b) = operands(short_shape, 43);
    let short_baseline = e.gemm::<f64, f64>(&short_a, &short_b, &short_decomp);

    e.worker_pool().inject_stragglers(vec![HELD_BACK, HELD_BACK]);
    let service = GemmService::<f64, f64>::start(&e, ServeConfig::default());
    let stragglers = FaultPlan::none()
        .with_fault(1, FaultKind::Straggle(HELD_BACK / 5))
        .with_fault(2, FaultKind::Straggle(HELD_BACK / 2));
    let sk = service
        .submit(LaunchRequest::new(sk_a, sk_b, sk_decomp).with_cta_faults(stragglers))
        .unwrap();
    let short_request = || LaunchRequest::new(short_a.clone(), short_b.clone(), short_decomp.clone());
    let short = service.submit(short_request()).unwrap();
    let other = service.submit(short_request()).unwrap();

    let (short_outcome, other_outcome) = std::thread::scope(|s| {
        let second_caller = s.spawn(|| {
            while sk.stats().ctas < 2 {
                std::thread::yield_now();
            }
            other.wait()
        });
        let outcome = short.wait();
        let seen_through = sk.is_finished();
        if !seen_through {
            // Nobody holds that tile any more: let the service drain.
            sk.cancel();
        }
        assert!(seen_through, "wait returned while its caller still held a parked tile of `sk`");
        (outcome, second_caller.join().expect("the second caller never unwinds"))
    });
    assert_eq!(service.queue_depth(), (0, 0), "nothing outstanding");
    let (c, _) = short_outcome.expect("the short request completes");
    assert_eq!(c.max_abs_diff(&short_baseline), 0.0);
    let (c, _) = other_outcome.expect("the second caller's request completes");
    assert_eq!(c.max_abs_diff(&short_baseline), 0.0);
    let (c, stats) = sk.wait().expect("the chain completes");
    assert_eq!(c.max_abs_diff(&sk_baseline), 0.0);
    assert!(stats.deferrals >= 1, "the owner parked instead of blocking");
    assert_eq!(stats.recoveries, 0, "the stragglers signaled; nothing was recomputed");

    let final_stats = service.shutdown();
    e.worker_pool().inject_stragglers(Vec::new());
    assert_eq!(final_stats.completed, 3);
    assert_eq!(final_stats.pool_poisonings, 0);
}

/// Isolation holds on the caller's thread: the caller waiting on `y`
/// is the only thread computing, so it is the one that runs the CTA of
/// `x` that panics. `x` fails typed, `y` returns its result, and the
/// waiting thread — this test — does not unwind.
#[test]
fn a_panic_in_a_cta_the_caller_runs_fails_only_that_request() {
    let shape = GemmShape::new(48, 40, 32);
    let e = exec(1);
    let decomp = Decomposition::stream_k(shape, TileShape::new(16, 16, 8), 3);
    let (a, b) = operands(shape, 47);
    let baseline = e.gemm::<f64, f64>(&a, &b, &decomp);

    e.worker_pool().inject_stragglers(vec![HELD_BACK]);
    let service = GemmService::<f64, f64>::start(&e, ServeConfig::default());
    let x = service
        .submit(
            LaunchRequest::new(a.clone(), b.clone(), decomp.clone())
                .with_serve_fault(ServeFaultKind::PanicCta),
        )
        .unwrap();
    let y = service.submit(LaunchRequest::new(a.clone(), b.clone(), decomp)).unwrap();

    let (c, _) = y.wait().expect("the caller's own request is untouched by the panic it caught");
    assert_eq!(c.max_abs_diff(&baseline), 0.0);
    assert!(x.is_finished(), "x is ahead of y in admission order: the caller ran it first");
    assert!(matches!(x.wait(), Err(ServeError::Panicked { .. })));

    let final_stats = service.shutdown();
    e.worker_pool().inject_stragglers(Vec::new());
    assert_eq!((final_stats.panicked, final_stats.completed), (1, 1));
    assert_eq!(final_stats.guest_ctas, final_stats.ctas, "the held-back worker computed nothing");
    assert_eq!(final_stats.pool_poisonings, 0);
}

/// One `wait` per handle on a burst with more requests than there are
/// guest slots: the one waiting thread takes a slot per wait and hands
/// it back, so with the pool held back it computes the whole burst.
#[test]
fn waits_compute_a_burst_larger_than_the_guest_stack() {
    let shape = GemmShape::new(48, 40, 32);
    let e = exec(1);
    let decomp = Decomposition::stream_k(shape, TileShape::new(16, 16, 8), 3);
    let pairs: Vec<_> = (0..5).map(|i| operands(shape, 50 + i)).collect();
    let baselines: Vec<_> = pairs.iter().map(|(a, b)| e.gemm::<f64, f64>(a, b, &decomp)).collect();

    e.worker_pool().inject_stragglers(vec![HELD_BACK]);
    let service = GemmService::<f64, f64>::start(&e, ServeConfig::default().with_window(2));
    assert!(pairs.len() > service.workers());
    let t0 = Instant::now();
    let handles: Vec<_> = pairs
        .iter()
        .map(|(a, b)| service.submit(LaunchRequest::new(a.clone(), b.clone(), decomp.clone())).unwrap())
        .collect();
    assert!(handles.windows(2).all(|w| w[0].id() < w[1].id()), "ids are issued in submission order");
    let results: Vec<_> = handles.into_iter().map(|h| h.wait().expect("the burst completes")).collect();
    let took = t0.elapsed();
    assert!(took < HELD_BACK / 2, "the waits took {took:?}: some request waited for the pool");
    for ((c, _), baseline) in results.iter().zip(&baselines) {
        assert_eq!(c.max_abs_diff(baseline), 0.0);
    }

    let final_stats = service.shutdown();
    e.worker_pool().inject_stragglers(Vec::new());
    assert_eq!((final_stats.ctas, final_stats.guest_ctas), (15, 15));
}

#[test]
fn zero_deadline_times_out_typed_never_silently_dropped() {
    let shape = GemmShape::new(48, 40, 32);
    let e = exec(4);
    let decomp = Decomposition::stream_k(shape, TileShape::new(16, 16, 8), 4);
    let (a, b) = operands(shape, 11);
    // Baseline before the service claims the pool's launch slot: the
    // legacy path blocks for the lifetime of a running service.
    let baseline = e.gemm::<f64, f64>(&a, &b, &decomp);
    let service = GemmService::<f64, f64>::start(&e, ServeConfig::default());

    let doomed = service
        .submit(
            LaunchRequest::new(a.clone(), b.clone(), decomp.clone())
                .with_deadline(Duration::ZERO),
        )
        .unwrap();
    let healthy = service
        .submit(LaunchRequest::new(a.clone(), b.clone(), decomp.clone()))
        .unwrap();

    assert_eq!(doomed.wait().unwrap_err(), ServeError::Timeout { deadline: Duration::ZERO });
    let (c, _) = healthy.wait().expect("no-deadline request unaffected");
    assert_eq!(c.max_abs_diff(&baseline), 0.0);

    let stats = service.shutdown();
    assert_eq!(stats.timed_out, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn full_queue_rejects_with_backpressure_not_blocking() {
    let shape = GemmShape::new(32, 32, 64);
    let e = exec(2);
    let decomp = Decomposition::stream_k(shape, TileShape::new(16, 16, 8), 2);
    let (a, b) = operands(shape, 13);
    // Baseline before the service claims the pool's launch slot: the
    // legacy path blocks for the lifetime of a running service.
    let baseline = e.gemm::<f64, f64>(&a, &b, &decomp);
    // Capacity 1: a single queued request saturates the service.
    let service = GemmService::<f64, f64>::start(
        &e,
        ServeConfig::default().with_capacity(1).with_window(1),
    );

    // Held in the queue by an admission delay, keeping it full.
    let held = service
        .submit(
            LaunchRequest::new(a.clone(), b.clone(), decomp.clone())
                .with_serve_fault(ServeFaultKind::AdmitDelay(Duration::from_millis(120))),
        )
        .unwrap();
    let t0 = Instant::now();
    let err = service
        .submit(LaunchRequest::new(a.clone(), b.clone(), decomp.clone()))
        .unwrap_err();
    assert_eq!(err, AdmissionError::QueueFull { capacity: 1 });
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "rejection must be immediate, not a blocked submit"
    );

    // Backpressure is transient: the held request drains and completes.
    let (c, stats) = held.wait().expect("held request completes after its delay");
    assert_eq!(c.max_abs_diff(&baseline), 0.0);
    assert!(stats.queued >= Duration::from_millis(100), "admission delay respected");

    let final_stats = service.shutdown();
    assert_eq!(final_stats.rejected, 1);
    assert_eq!(final_stats.completed, 1);
}

#[test]
fn cancel_resolves_queued_and_running_requests() {
    let shape = GemmShape::new(48, 40, 32);
    let e = exec(4);
    let decomp = Decomposition::stream_k(shape, TileShape::new(16, 16, 8), 4);
    let (a, b) = operands(shape, 17);
    let service = GemmService::<f64, f64>::start(&e, ServeConfig::default());

    // Cancelled while still queued (held there by an admission delay).
    let queued = service
        .submit(
            LaunchRequest::new(a.clone(), b.clone(), decomp.clone())
                .with_serve_fault(ServeFaultKind::AdmitDelay(Duration::from_millis(500))),
        )
        .unwrap();
    assert!(queued.cancel(), "first cancel wins");
    assert_eq!(service.queue_depth().0, 0, "a cancelled request gives its queue slot back at once");
    assert!(!queued.cancel(), "second cancel is a no-op");
    assert!(queued.is_finished());
    assert_eq!(queued.wait().unwrap_err(), ServeError::Cancelled);

    // Cancelled mid-flight at claim granularity (injected).
    let midflight = service
        .submit(
            LaunchRequest::new(a.clone(), b.clone(), decomp.clone())
                .with_serve_fault(ServeFaultKind::Cancel),
        )
        .unwrap();
    assert_eq!(midflight.wait().unwrap_err(), ServeError::Cancelled);

    let stats = service.shutdown();
    assert_eq!(stats.cancelled, 2);
    assert_eq!(stats.pool_poisonings, 0);
}

#[test]
fn weighted_admission_starts_high_priority_first() {
    let shape = GemmShape::new(48, 40, 32);
    let e = exec(4);
    let decomp = Decomposition::stream_k(shape, TileShape::new(16, 16, 8), 4);
    let (a, b) = operands(shape, 19);
    // Window 1 serializes starts, so start_seq is the admission order.
    let service =
        GemmService::<f64, f64>::start(&e, ServeConfig::default().with_window(1));

    // A straggling blocker occupies the single window slot while the
    // six contenders queue up behind it — deterministic, unlike racing
    // on admission-delay expiry against the worker poll loop.
    let blocker = service
        .submit(
            LaunchRequest::new(a.clone(), b.clone(), decomp.clone())
                .with_priority(Priority::High)
                .with_serve_fault(ServeFaultKind::Protocol(FaultKind::Straggle(
                    Duration::from_millis(100),
                ))),
        )
        .unwrap();
    let t0 = Instant::now();
    while service.queue_depth() != (0, 1) {
        assert!(t0.elapsed() < Duration::from_secs(5), "blocker never admitted");
        std::thread::yield_now();
    }

    let submit = |prio: Priority| {
        service
            .submit(
                LaunchRequest::new(a.clone(), b.clone(), decomp.clone()).with_priority(prio),
            )
            .unwrap()
    };
    // Submitted bulk-first, so FIFO order would start Bulk first.
    let bulks = [submit(Priority::Bulk), submit(Priority::Bulk)];
    let normals = [submit(Priority::Normal), submit(Priority::Normal)];
    let highs = [submit(Priority::High), submit(Priority::High)];

    let seq_of = |h: streamk_cpu::CompletionHandle<f64, f64>| {
        let (_, stats) = h.wait().expect("request completes");
        stats.start_seq
    };
    assert_eq!(seq_of(blocker), 0, "the blocker held the window from the start");
    let bulk_seqs = bulks.map(seq_of);
    let normal_seqs = normals.map(seq_of);
    let high_seqs = highs.map(seq_of);

    let min = |s: &[u64; 2]| *s.iter().min().unwrap();
    let max = |s: &[u64; 2]| *s.iter().max().unwrap();
    assert!(
        min(&high_seqs) < min(&bulk_seqs),
        "a High must start before any Bulk despite FIFO order: high={high_seqs:?} normal={normal_seqs:?} bulk={bulk_seqs:?}"
    );
    assert!(
        max(&high_seqs) < max(&bulk_seqs),
        "4:2:1 weighting must start both Highs before the last Bulk: high={high_seqs:?} bulk={bulk_seqs:?}"
    );
    assert!(
        min(&normal_seqs) < max(&bulk_seqs),
        "Normal must interleave ahead of the last Bulk: normal={normal_seqs:?} bulk={bulk_seqs:?}"
    );
    service.shutdown();
}

/// A request runs its service executor's kernel — there is no
/// per-request override — so the kernel is a property of the service.
/// The same seeded request mix, every request carrying a lost or a
/// poisoned CTA, through a service over the scalar oracle and one over
/// the default register block: outputs `==`, the same recoveries per
/// request, and the same `RecoveryReport` events when each executor
/// launches the mix directly under the same faults.
#[test]
fn scalar_and_block_services_agree_under_cta_faults() {
    use streamk_cpu::{KernelKind, RecoveryCause, RecoveryReport};
    // Long enough that no live peer outlasts it on a loaded host: every
    // recovery below is one of the injected faults.
    let watchdog = Duration::from_millis(500);
    let tile = TileShape::new(16, 16, 8);
    let mix: Vec<_> = (0..6u64)
        .map(|i| {
            let shape = SHAPES[i as usize % SHAPES.len()];
            // Five CTAs split a tile of every shape in the palette.
            let decomp = Decomposition::stream_k(shape, tile, 5);
            let (a, b) = operands(shape, 300 + i);
            let contributors = FaultPlan::contributors(&decomp);
            let victim = contributors[(i as usize * 7) % contributors.len()];
            let kind = if i % 2 == 0 { FaultKind::Lose } else { FaultKind::Poison };
            (a, b, decomp, FaultPlan::single(victim, kind))
        })
        .collect();
    // Timeouts carry how long the owner waited; the rest must match.
    let events = |report: &RecoveryReport| -> Vec<_> {
        let events = report.events.iter();
        events.map(|e| (e.peer, e.tile_idx, matches!(e.cause, RecoveryCause::Poisoned), e.recomputed_iters)).collect()
    };
    let runs: Vec<_> = [KernelKind::Scalar, KernelKind::default()]
        .into_iter()
        .map(|kernel| {
            let e = CpuExecutor::with_threads(4).with_watchdog(watchdog).with_kernel(kernel);
            let service = GemmService::<f64, f64>::start(&e, ServeConfig::default());
            let handles: Vec<_> = mix
                .iter()
                .map(|(a, b, decomp, plan)| {
                    let request = LaunchRequest::new(a.clone(), b.clone(), decomp.clone()).with_cta_faults(plan.clone());
                    service.submit(request).expect("admitted")
                })
                .collect();
            let served: Vec<_> = handles
                .into_iter()
                .map(|h| {
                    let (c, stats) = h.wait().expect("recovery masks the fault");
                    assert!(stats.recoveries >= 1, "{kernel}: the injected fault must be recovered");
                    (c, stats.recoveries)
                })
                .collect();
            let stats = service.shutdown();
            assert_eq!(stats.pool_poisonings, 0);
            let direct: Vec<_> = mix
                .iter()
                .zip(&served)
                .map(|((a, b, decomp, plan), (c, _))| {
                    let (direct, report) = e.gemm_with_faults::<f64, f64>(a, b, decomp, plan).expect("survives");
                    assert_eq!(direct.max_abs_diff(c), 0.0, "{kernel}: served and direct launches differ");
                    events(&report)
                })
                .collect();
            (served, direct)
        })
        .collect();
    let [(scalar, scalar_events), (block, block_events)] = <[_; 2]>::try_from(runs).expect("two kernels");
    for (i, ((cs, rs), (cb, rb))) in scalar.iter().zip(&block).enumerate() {
        assert_eq!(cs.max_abs_diff(cb), 0.0, "request {i}: scalar and block services differ");
        assert_eq!(rs, rb, "request {i}: recoveries differ");
    }
    assert_eq!(scalar_events, block_events, "recovery events differ between the kernels");
}
