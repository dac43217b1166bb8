//! Chaos suite: fault injection across every strategy and every
//! launch entry (`gemm`, `gemm_batched`, `gemm_grouped`).
//!
//! The two guarantees the fault-tolerant fixup protocol makes, as
//! properties:
//!
//! 1. **Deadlock-freedom**: every execution under every fault plan
//!    terminates — a lost peer costs at most one watchdog deadline
//!    per owner-side wait, never an unbounded spin;
//! 2. **Numerical correctness**: the recovered output is *bit-exact*
//!    against the fault-free executor run (recovery recomputes the
//!    peer's exact local iteration range with the same kernel and
//!    accumulates it at the same point in peer order), and within
//!    reassociation tolerance of the naive reference GEMM.
//!
//! The watchdog here is deliberately short so lost-CTA cases stay
//! cheap; correctness must not depend on the deadline's length.

use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use std::time::{Duration, Instant};
use streamk_core::{
    BatchedDecomposition, BatchedSpace, Decomposition, ExecutorError, GroupedDecomposition,
    GroupedSpace, Strategy, TileFixup,
};
use streamk_cpu::{CpuExecutor, FaultKind, FaultPlan, RecoveryReport};
use streamk_matrix::reference::gemm_naive;
use streamk_matrix::Matrix;
use streamk_types::{GemmShape, Layout, TileShape};

const WATCHDOG: Duration = Duration::from_millis(150);
const THREADS: usize = 8;

fn exec() -> CpuExecutor {
    exec_on(THREADS)
}

fn exec_on(threads: usize) -> CpuExecutor {
    CpuExecutor::with_threads(threads).with_watchdog(WATCHDOG)
}

fn kind_for(idx: u8) -> FaultKind {
    match idx % 3 {
        // Inside the watchdog: the bounded wait absorbs it.
        0 => FaultKind::Straggle(WATCHDOG / 8),
        1 => FaultKind::Lose,
        _ => FaultKind::Poison,
    }
}

fn operands(shape: GemmShape) -> (Matrix<f64>, Matrix<f64>) {
    instance_operands(shape, 0)
}

/// Operands for instance `i` of a batch or group: a seed of its own.
fn instance_operands(shape: GemmShape, i: usize) -> (Matrix<f64>, Matrix<f64>) {
    let seed = ((shape.m * 73 + shape.n) * 37 + shape.k + 1009 * i) as u64;
    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, seed);
    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, seed + 1);
    (a, b)
}

/// One launch through any of the three entries — its decomposition
/// and operands — with what the chaos properties need of it, whichever
/// entry it is.
enum Launch {
    Single(Decomposition, Matrix<f64>, Matrix<f64>),
    Batched(BatchedDecomposition, Vec<Matrix<f64>>, Vec<Matrix<f64>>),
    Grouped(GroupedDecomposition, Vec<Matrix<f64>>, Vec<Matrix<f64>>),
}

impl Launch {
    fn single(shape: GemmShape, tile: TileShape, strategy: Strategy) -> Self {
        let (a, b) = operands(shape);
        Launch::Single(Decomposition::from_strategy(shape, tile, strategy), a, b)
    }

    /// `batch` instances of `shape` under Stream-K with `grid` CTAs.
    fn batched(batch: usize, shape: GemmShape, tile: TileShape, grid: usize) -> Self {
        let (a, b) = (0..batch).map(|i| instance_operands(shape, i)).unzip();
        Launch::Batched(BatchedDecomposition::stream_k(BatchedSpace::new(batch, shape, tile), grid), a, b)
    }

    /// `shape` and two unrelated shapes derived from it, under
    /// Stream-K with `grid` CTAs.
    fn grouped(shape: GemmShape, tile: TileShape, grid: usize) -> Self {
        let shapes =
            [shape, GemmShape::new(shape.n, 16, shape.k + 24), GemmShape::new(24, shape.m, 32)];
        let (a, b) = shapes.into_iter().enumerate().map(|(i, s)| instance_operands(s, i)).unzip();
        Launch::Grouped(GroupedDecomposition::stream_k(GroupedSpace::new(&shapes, tile), grid), a, b)
    }

    fn fixups(&self) -> Vec<TileFixup> {
        match self {
            Launch::Single(d, ..) => d.fixups(),
            Launch::Batched(d, ..) => d.fixups(),
            Launch::Grouped(d, ..) => d.fixups(),
        }
    }

    /// The widest owner+peers group: the fewest workers that admit it.
    fn max_cover(&self) -> usize {
        self.fixups().iter().map(TileFixup::covering_ctas).max().unwrap_or(1)
    }

    /// The CTAs that contribute partials — the meaningful victims.
    fn contributors(&self) -> Vec<usize> {
        let mut peers: Vec<usize> = self.fixups().iter().flat_map(|f| f.peers.iter().copied()).collect();
        peers.sort_unstable();
        peers
    }

    /// The fault-free outputs, through the entry that injects nothing.
    fn baseline(&self, e: &CpuExecutor) -> Vec<Matrix<f64>> {
        match self {
            Launch::Single(d, a, b) => vec![e.try_gemm::<f64, f64>(a, b, d).expect("fault-free run")],
            Launch::Batched(d, a, b) => e.gemm_batched::<f64, f64>(a, b, d),
            Launch::Grouped(d, a, b) => e.gemm_grouped::<f64, f64>(a, b, d),
        }
    }

    fn run_with_faults(
        &self,
        e: &CpuExecutor,
        plan: &FaultPlan,
    ) -> Result<(Vec<Matrix<f64>>, RecoveryReport), ExecutorError> {
        match self {
            Launch::Single(d, a, b) => {
                e.gemm_with_faults::<f64, f64>(a, b, d, plan).map(|(c, report)| (vec![c], report))
            }
            Launch::Batched(d, a, b) => e.gemm_grouped_with_faults::<f64, f64>(a, b, d.group(), plan),
            Launch::Grouped(d, a, b) => e.gemm_grouped_with_faults::<f64, f64>(a, b, d, plan),
        }
    }

    /// The naive reference product of every instance.
    fn reference(&self) -> Vec<Matrix<f64>> {
        match self {
            Launch::Single(_, a, b) => vec![gemm_naive::<f64, f64>(a, b)],
            Launch::Batched(_, a, b) | Launch::Grouped(_, a, b) => {
                a.iter().zip(b).map(|(a, b)| gemm_naive::<f64, f64>(a, b)).collect()
            }
        }
    }
}

/// `got` and `want` agree bit for bit, instance by instance.
fn bit_exact(got: &[Matrix<f64>], want: &[Matrix<f64>]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g.max_abs_diff(w) == 0.0)
}

fn shapes() -> impl proptest::strategy::Strategy<Value = GemmShape> {
    (16usize..97, 16usize..97, 32usize..161).prop_map(|(m, n, k)| GemmShape::new(m, n, k))
}

/// Every strategy the paper discusses, with parameters small enough
/// that the widest owner+peers group fits the 8-worker pool.
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One injected fault, any kind, any victim, any strategy — or a
    /// batched or grouped launch on 2–8 workers: execution terminates
    /// within a small multiple of the watchdog budget and the
    /// recovered output is bit-exact against the fault-free run.
    #[test]
    fn any_single_fault_recovers_bit_exact(
        shape in shapes(),
        strategy in strategies(),
        entry in 0usize..3,
        workers in 2usize..9,
        kind_idx in 0u8..3,
        victim_idx in 0usize..64,
    ) {
        let tile = TileShape::new(16, 16, 8);
        let (launch, e) = match entry {
            0 => (Launch::single(shape, tile, strategy), exec()),
            1 => (Launch::batched(3, shape, tile, workers), exec_on(workers)),
            _ => (Launch::grouped(shape, tile, workers), exec_on(workers)),
        };
        prop_assume!(launch.max_cover() <= e.threads());

        let baseline = launch.baseline(&e);

        let contributors = launch.contributors();
        let plan = if contributors.is_empty() {
            FaultPlan::none()
        } else {
            FaultPlan::single(contributors[victim_idx % contributors.len()], kind_for(kind_idx))
        };

        let start = Instant::now();
        let (c, report) = launch.run_with_faults(&e, &plan).expect("survives");
        let elapsed = start.elapsed();

        // Deadlock-freedom: a single fault costs at most one watchdog
        // per owner wait; generous ceiling for loaded CI machines.
        prop_assert!(elapsed < Duration::from_secs(20), "took {elapsed:?}");
        // Lost/poisoned victims must actually exercise recovery.
        if !plan.is_empty() && !matches!(kind_for(kind_idx), FaultKind::Straggle(_)) {
            prop_assert!(report.recoveries() >= 1, "no recovery for {plan:?}");
        }
        // Bit-exact vs the fault-free executor...
        prop_assert!(bit_exact(&c, &baseline), "recovered output diverged");
        // ...and within reassociation tolerance of the reference GEMM.
        for (c, naive) in c.iter().zip(launch.reference()) {
            prop_assert!(c.max_abs_diff(&naive) < 1e-9 * (shape.k + 24) as f64);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The saturation case: *every* contributor in the grid is
    /// faulted at once (kinds cycling straggle/lose/poison), and the
    /// owners still reconstruct an answer bit-exact against the
    /// fault-free run.
    #[test]
    fn every_contributor_faulted_still_recovers(
        shape in shapes(),
        strategy in strategies(),
        phase in 0u8..3,
    ) {
        let tile = TileShape::new(16, 16, 8);
        let decomp = Decomposition::from_strategy(shape, tile, strategy);
        let max_cover = decomp.fixups().iter().map(|f| f.covering_ctas()).max().unwrap_or(1);
        prop_assume!(max_cover <= THREADS);

        let (a, b) = operands(shape);
        let e = exec();
        let baseline = e.try_gemm::<f64, f64>(&a, &b, &decomp).expect("fault-free run");

        let contributors = FaultPlan::contributors(&decomp);
        let mut plan = FaultPlan::none();
        for (i, &cta) in contributors.iter().enumerate() {
            plan = plan.with_fault(cta, kind_for(phase + i as u8));
        }

        let (c, report) = e.gemm_with_faults::<f64, f64>(&a, &b, &decomp, &plan).expect("survives");
        let stragglers =
            plan.faults().iter().filter(|f| matches!(f.kind, FaultKind::Straggle(_))).count();
        prop_assert!(report.recoveries() == plan.len() - stragglers, "{report:?} vs {plan:?}");
        prop_assert!(c.max_abs_diff(&baseline) == 0.0);
    }
}

/// The deterministic acceptance matrix: every strategy × every fault
/// kind, one seed each, then a batched and a grouped launch on 2–8
/// workers with *every* contributor faulted — checked exhaustively so
/// a regression names the exact cell that broke.
#[test]
fn acceptance_matrix_every_strategy_every_fault() {
    let shape = GemmShape::new(96, 80, 64);
    let tile = TileShape::new(32, 32, 16);
    let strategies = [
        Strategy::DataParallel,
        Strategy::FixedSplit { split: 3 },
        Strategy::StreamK { grid: 7 },
        Strategy::DpOneTileStreamK { sms: 4 },
        Strategy::TwoTileStreamKDp { sms: 4 },
    ];
    let e = exec();
    for strategy in strategies {
        let launch = Launch::single(shape, tile, strategy);
        let baseline = launch.baseline(&e);
        let contributors = launch.contributors();
        for kind_idx in 0..3u8 {
            let kind = kind_for(kind_idx);
            let plan = match contributors.first() {
                Some(&victim) => FaultPlan::single(victim, kind),
                None => FaultPlan::none(),
            };
            let (c, _) = launch
                .run_with_faults(&e, &plan)
                .unwrap_or_else(|err| panic!("{strategy} x {} failed: {err}", kind.name()));
            assert!(bit_exact(&c, &baseline), "{strategy} x {} not bit-exact", kind.name());
        }
    }

    // Eleven one-tile instances of seven iterations, and a ragged
    // group: no worker count from 2 to 8 divides either into whole
    // tiles.
    for workers in 2..=8 {
        let e = exec_on(workers);
        let launches = [
            ("batched", Launch::batched(11, GemmShape::new(32, 32, 104), tile, workers)),
            ("grouped", Launch::grouped(GemmShape::new(80, 40, 104), tile, workers)),
        ];
        for (entry, launch) in launches {
            let baseline = launch.baseline(&e);
            let contributors = launch.contributors();
            assert!(!contributors.is_empty(), "{entry} on {workers}: the launch must cross tile seams");
            for kind_idx in 0..3u8 {
                let kind = kind_for(kind_idx);
                let cell = format!("{entry} on {workers} x {}", kind.name());
                let mut plan = FaultPlan::none();
                for &cta in &contributors {
                    plan = plan.with_fault(cta, kind);
                }
                let (c, report) =
                    launch.run_with_faults(&e, &plan).unwrap_or_else(|err| panic!("{cell} failed: {err}"));
                assert!(bit_exact(&c, &baseline), "{cell} not bit-exact");
                // A straggler inside the watchdog is absorbed; a lost
                // or poisoned record is recovered, each exactly once.
                let (timeouts, poisonings) = match kind {
                    FaultKind::Straggle(_) => (0, 0),
                    FaultKind::Lose => (plan.len(), 0),
                    FaultKind::Poison => (0, plan.len()),
                };
                assert_eq!((report.timeouts(), report.poisonings()), (timeouts, poisonings), "{cell}: {report:?}");
            }
        }
    }
}

/// Seeded plans drive the same machinery the CLI campaign uses:
/// every seed terminates and recovers bit-exact.
#[test]
fn seeded_campaign_is_deterministic_and_survives() {
    let shape = GemmShape::new(64, 64, 96);
    let tile = TileShape::new(32, 32, 16);
    let decomp = Decomposition::stream_k(shape, tile, 6);
    let e = exec();
    let (a, b) = operands(shape);
    let baseline = e.try_gemm::<f64, f64>(&a, &b, &decomp).expect("fault-free run");
    for seed in 0..6 {
        let plan = FaultPlan::seeded(seed, &decomp, WATCHDOG);
        assert_eq!(plan, FaultPlan::seeded(seed, &decomp, WATCHDOG));
        let (c, _) = e.gemm_with_faults::<f64, f64>(&a, &b, &decomp, &plan).expect("survives");
        assert_eq!(c.max_abs_diff(&baseline), 0.0, "seed {seed}");
    }
}
