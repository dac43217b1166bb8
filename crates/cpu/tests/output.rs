//! Output suite: the run-based tile epilogue and outputs born from
//! their tiles.
//!
//! 1. **The epilogue is the element loop it replaced.** Every executor
//!    stores a finished tile by cutting its destination into the
//!    contiguous runs the layout has. The oracle here is the deleted
//!    loop itself — `Layout::index` once per element, `α·acc (+ β·c)`
//!    — and the two must agree bit for bit in all four layouts, on
//!    ragged edge tiles narrower than `blk_n`, for f32 and f64, and
//!    with `β = 0` over a NaN-filled **C** (never read).
//! 2. **A `β = 0` output is never filled before its tiles are
//!    stored.** `gemm`, `gemm_batched`, `gemm_grouped` and the service
//!    reserve their **C** and let each worker's tile store be the
//!    first write its elements see. Whatever the worker count,
//!    strategy or operand layout, the result must be the one the
//!    borrowed path (`gemm_ex` into a caller's zeroed **C**) produces,
//!    fault recovery included. (That an output missing a tile is
//!    withheld, and that a failed launch drops its buffer unread, is
//!    pinned next to the private types: `output::tests` and
//!    `executor::tests::lost_peer_without_recovery_is_a_watchdog_error`.)
//!    And it starts on a cache line, from every entry.

use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use std::time::Duration;
use streamk_core::{
    BatchedDecomposition, BatchedSpace, Decomposition, GroupedDecomposition, GroupedSpace, IterSpace,
    Strategy, TileFixup,
};
use streamk_cpu::output::store_every_tile;
use streamk_cpu::{CpuExecutor, FaultKind, FaultPlan, GemmService, LaunchRequest, ServeConfig};
use streamk_matrix::reference::gemm_naive;
use streamk_matrix::{Matrix, Scalar, LINE};
use streamk_types::{GemmShape, Layout, TileShape};

const ALL_LAYOUTS: [Layout; 4] = [Layout::RowMajor, Layout::ColMajor, Layout::BlockMajor, Layout::BlockMajorZ];

/// `(α, β)`: a plain store, an accumulate, and a general blend.
const SCALINGS: [(f64, f64); 3] = [(1.0, 0.0), (1.0, 1.0), (-0.5, 2.0)];

fn all_layouts() -> impl proptest::strategy::Strategy<Value = Layout> {
    (0usize..ALL_LAYOUTS.len()).prop_map(|i| ALL_LAYOUTS[i])
}

/// Operand layouts (the output takes A's).
fn layouts() -> impl proptest::strategy::Strategy<Value = Layout> {
    prop_oneof![Just(Layout::RowMajor), Just(Layout::ColMajor)]
}

fn tiles() -> impl proptest::strategy::Strategy<Value = TileShape> {
    prop_oneof![
        Just(TileShape::new(16, 16, 8)),
        Just(TileShape::new(32, 32, 16)),
        Just(TileShape::new(8, 32, 4)),
        // Off the fragment grid of the block-major layouts and off
        // every vector width.
        Just(TileShape::new(13, 11, 5)),
        Just(TileShape::new(9, 17, 3)),
    ]
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

/// The widest owner+peers group — the executor's residency floor.
fn residency_floor(fixups: &[TileFixup]) -> usize {
    fixups.iter().map(|f| f.covering_ctas()).max().unwrap_or(1)
}

fn bits<T: Scalar>(storage: &[T]) -> Vec<u64> {
    storage.iter().map(|v| v.to_f64().to_bits()).collect()
}

/// Stores one accumulator tile as every tile of an `m × n` output, by
/// runs and by the element loop, and compares the whole backing
/// storage (block-major padding included: neither may touch it).
fn check_epilogue<T: Scalar + streamk_matrix::Promote<T>>(m: usize, n: usize, tile: TileShape, layout: Layout, alpha: f64, beta: f64, seed: u64) {
    let space = IterSpace::new(GemmShape::new(m, n, tile.blk_k), tile);
    let accum = Matrix::<T>::random::<T>(tile.blk_m, tile.blk_n, Layout::RowMajor, seed).into_vec();
    let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
    let mut prior = Matrix::<T>::random::<T>(m, n, layout, seed + 1);
    if beta == T::ZERO {
        // BLAS convention: β = 0 never reads C, so a NaN there (or,
        // in an owned output, no value at all) must not leak through.
        prior.as_mut_slice().fill(T::from_f64(f64::NAN));
    }

    let mut got = prior.clone();
    store_every_tile(&mut got, &space, &accum, alpha, beta);

    let mut want = prior.into_vec();
    for tile_idx in 0..space.tiles() {
        let (row_range, col_range) = space.tile_extents(tile_idx);
        for (ti, r) in row_range.enumerate() {
            for (tj, c) in col_range.clone().enumerate() {
                let cell = &mut want[layout.index(r, c, m, n)];
                let scaled = alpha * accum[ti * tile.blk_n + tj];
                *cell = if beta == T::ZERO { scaled } else { scaled + beta * *cell };
            }
        }
    }
    assert_eq!(bits(got.as_slice()), bits(&want), "{m}x{n} {tile:?} {layout} alpha={alpha:?} beta={beta:?}");
    if beta == T::ZERO {
        for r in 0..m {
            for c in 0..n {
                assert!(got.get(r, c) == got.get(r, c), "NaN leaked into ({r},{c})");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn run_store_is_the_element_loop_bit_for_bit(
        m in 1usize..70,
        n in 1usize..70,
        tile in tiles(),
        layout in all_layouts(),
        scaling in 0usize..SCALINGS.len(),
        seed in 0u64..1_000_000,
    ) {
        let (alpha, beta) = SCALINGS[scaling];
        check_epilogue::<f32>(m, n, tile, layout, alpha, beta, seed);
        check_epilogue::<f64>(m, n, tile, layout, alpha, beta, seed);
    }
}

fn shapes() -> impl proptest::strategy::Strategy<Value = GemmShape> {
    (5usize..81, 5usize..81, 16usize..97).prop_map(|(m, n, k)| GemmShape::new(m, n, k))
}

fn operands(shape: GemmShape, layout: Layout, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, layout, seed);
    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, layout, seed + 1);
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `gemm` and a service request, 1–8 workers: the unfilled output
    /// holds exactly what `gemm_ex` writes into a caller's zeroed C.
    #[test]
    fn born_output_matches_the_borrowed_path(
        shape in shapes(),
        tile in tiles(),
        strategy in strategies(),
        layout in layouts(),
    ) {
        let decomp = Decomposition::from_strategy(shape, tile, strategy);
        let (a, b) = operands(shape, layout, 21);
        let mut baseline: Option<Matrix<f64>> = None;
        for threads in residency_floor(&decomp.fixups())..=8 {
            let exec = CpuExecutor::with_threads(threads);
            let mut borrowed = Matrix::<f64>::zeros(shape.m, shape.n, layout);
            exec.gemm_ex(1.0, &a.view(), &b.view(), 0.0, &mut borrowed, &decomp);
            let born = exec.gemm::<f64, f64>(&a, &b, &decomp);
            prop_assert_eq!(bits(born.as_slice()), bits(borrowed.as_slice()), "gemm, threads={}", threads);
            prop_assert_eq!(born.layout(), layout);

            let service = GemmService::<f64, f64>::start(&exec, ServeConfig::default());
            let handle = service
                .submit(LaunchRequest::new(a.clone(), b.clone(), decomp.clone()))
                .expect("valid request admitted");
            let (served, _) = handle.wait().expect("request completes");
            prop_assert_eq!(bits(served.as_slice()), bits(borrowed.as_slice()), "service, threads={}", threads);
            let _ = service.shutdown();

            match &baseline {
                None => {
                    born.assert_close(&gemm_naive::<f64, f64>(&a, &b), 1e-10);
                    baseline = Some(born);
                }
                Some(base) => prop_assert_eq!(bits(born.as_slice()), bits(base.as_slice()), "threads={}", threads),
            }
        }
        prop_assert!(baseline.is_some(), "at least one worker count must be admissible");
    }

    /// `gemm_batched` / `gemm_grouped`: every instance's unfilled
    /// output is complete and identical for every worker count.
    #[test]
    fn born_batched_and_grouped_outputs_are_thread_count_invariant(
        shape in shapes(),
        tile in tiles(),
        grid in 1usize..9,
        layout in layouts(),
    ) {
        let batch = 3;
        let a: Vec<_> = (0..batch).map(|i| operands(shape, layout, 40 + 2 * i as u64).0).collect();
        let b: Vec<_> = (0..batch).map(|i| operands(shape, layout, 40 + 2 * i as u64).1).collect();
        let batched = [
            BatchedDecomposition::stream_k(BatchedSpace::new(batch, shape, tile), grid),
            BatchedDecomposition::data_parallel(BatchedSpace::new(batch, shape, tile)),
        ];
        // Unrelated shapes for the grouped launch, sharing the tile.
        let shapes = [shape, GemmShape::new(shape.n, shape.m, shape.k / 2 + 1), GemmShape::new(7, shape.n, shape.k)];
        let ga: Vec<_> = shapes.iter().enumerate().map(|(i, s)| operands(*s, layout, 60 + 2 * i as u64).0).collect();
        let gb: Vec<_> = shapes.iter().enumerate().map(|(i, s)| operands(*s, layout, 60 + 2 * i as u64).1).collect();
        let grouped = [
            GroupedDecomposition::stream_k(GroupedSpace::new(&shapes, tile), grid),
            GroupedDecomposition::data_parallel(GroupedSpace::new(&shapes, tile)),
        ];

        for decomp in &batched {
            let mut baseline: Option<Vec<Matrix<f64>>> = None;
            for threads in residency_floor(&decomp.fixups())..=8 {
                let c = CpuExecutor::with_threads(threads).gemm_batched::<f64, f64>(&a, &b, decomp);
                match &baseline {
                    None => {
                        for i in 0..batch {
                            c[i].assert_close(&gemm_naive::<f64, f64>(&a[i], &b[i]), 1e-10);
                            prop_assert_eq!(c[i].layout(), layout);
                        }
                        baseline = Some(c);
                    }
                    Some(base) => prop_assert!(&c == base, "batched, threads={}", threads),
                }
            }
        }
        for decomp in &grouped {
            let mut baseline: Option<Vec<Matrix<f64>>> = None;
            for threads in residency_floor(&decomp.fixups())..=8 {
                let c = CpuExecutor::with_threads(threads).gemm_grouped::<f64, f64>(&ga, &gb, decomp);
                match &baseline {
                    None => {
                        for i in 0..shapes.len() {
                            c[i].assert_close(&gemm_naive::<f64, f64>(&ga[i], &gb[i]), 1e-10);
                        }
                        baseline = Some(c);
                    }
                    Some(base) => prop_assert!(&c == base, "grouped, threads={}", threads),
                }
            }
        }
    }
}

fn on_line<T>(c: &Matrix<T>) -> bool
where
    T: Copy + Default,
{
    (c.as_slice().as_ptr() as usize).is_multiple_of(LINE)
}

/// Every output an executor allocates starts on a cache line, like an
/// allocating `Matrix` constructor: `gemm`, `gemm_batched`,
/// `gemm_grouped` and a service request, 1–4 workers, f32 and f64, in
/// every layout, with shapes whose rows are no whole number of lines.
#[test]
fn born_outputs_start_on_a_line() {
    fn check<T: Scalar + streamk_matrix::Promote<T>>(layout: Layout) {
        let tile = TileShape::new(16, 16, 8);
        let shapes = [GemmShape::new(37, 21, 40), GemmShape::new(3, 5, 9), GemmShape::new(1, 1, 1)];
        let fill = |rows, cols, seed| Matrix::<T>::random::<T>(rows, cols, layout, seed);
        let a: Vec<_> = shapes.iter().map(|s| fill(s.m, s.k, 3)).collect();
        let b: Vec<_> = shapes.iter().map(|s| fill(s.k, s.n, 4)).collect();
        let what = |entry: &str, threads| format!("{entry} {} {layout} at {threads} workers", std::any::type_name::<T>());
        for threads in 1..=4 {
            let exec = CpuExecutor::with_threads(threads);
            for (i, &shape) in shapes.iter().enumerate() {
                let decomp = Decomposition::data_parallel(shape, tile);
                assert!(on_line(&exec.gemm::<T, T>(&a[i], &b[i], &decomp)), "{}", what("gemm", threads));
            }
            let batched = BatchedDecomposition::stream_k(BatchedSpace::new(2, shapes[0], tile), threads);
            let pair = |m: &Matrix<T>| vec![m.clone(), m.clone()];
            for c in exec.gemm_batched::<T, T>(&pair(&a[0]), &pair(&b[0]), &batched) {
                assert!(on_line(&c), "{}", what("gemm_batched", threads));
            }
            let grouped = GroupedDecomposition::data_parallel(GroupedSpace::new(&shapes, tile));
            for c in exec.gemm_grouped::<T, T>(&a, &b, &grouped) {
                assert!(on_line(&c), "{}", what("gemm_grouped", threads));
            }
            let service = GemmService::<T, T>::start(&exec, ServeConfig::default());
            let decomp = Decomposition::data_parallel(shapes[0], tile);
            let handle = service.submit(LaunchRequest::new(a[0].clone(), b[0].clone(), decomp)).expect("admitted");
            let (served, _) = handle.wait().expect("request completes");
            assert!(on_line(&served), "{}", what("service request", threads));
            let _ = service.shutdown();
        }
    }
    for layout in ALL_LAYOUTS {
        check::<f32>(layout);
        check::<f64>(layout);
    }
}

/// A lost or poisoned partial is recomputed by the tile's owner and
/// the tile is then stored once, like any other (a second store, or a
/// tile left out, would panic in the writer): the unfilled output is
/// bit-identical to the fault-free one, in every layout of C.
#[test]
fn recovered_tiles_are_stored_once_bit_exact() {
    let shape = GemmShape::new(70, 45, 96);
    let tile = TileShape::new(16, 16, 8);
    let decomp = Decomposition::stream_k(shape, tile, 4);
    let contributors = FaultPlan::contributors(&decomp);
    assert!(!contributors.is_empty(), "the grid must have split seams");
    let exec = CpuExecutor::with_threads(4).with_watchdog(Duration::from_millis(100));
    for layout in ALL_LAYOUTS {
        let (a, b) = operands(shape, layout, 81);
        let clean = exec.gemm::<f64, f64>(&a, &b, &decomp);
        for (i, &victim) in contributors.iter().enumerate() {
            let kind = if i % 2 == 0 { FaultKind::Lose } else { FaultKind::Poison };
            let plan = FaultPlan::single(victim, kind);
            let (c, report) = exec.gemm_with_faults::<f64, f64>(&a, &b, &decomp, &plan).expect("recovered");
            assert_eq!(report.recoveries(), 1, "{layout} victim {victim}: {report:?}");
            assert_eq!(bits(c.as_slice()), bits(clean.as_slice()), "{layout} victim {victim}");
        }
    }
}
