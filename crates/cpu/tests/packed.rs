//! Packed-pipeline property suite: the bit-exactness contract.
//!
//! Every [`KernelKind`] — scalar, blocked, and all four packed
//! register blockings — must produce *identical* f64 results, because
//! each accumulates every output element in ascending-k order and the
//! packed variants' zero-padding only fills lanes that are discarded.
//! These properties pin that contract at three levels:
//!
//! 1. **Kernel level**: random shapes, tiles, and iteration
//!    sub-ranges (ragged edges included) through `mac_loop_kernel`
//!    vs the scalar `mac_loop_view`;
//! 2. **Executor level**: full Stream-K launches where only
//!    `ExecutorConfig::kernel` varies must agree bit-for-bit;
//! 3. **Fault level**: split-tile fixup under the chaos fault plan
//!    with packed kernels recovers bit-exact, proving recovery
//!    recomputation and the packed pipeline compose.

use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use std::time::Duration;
use streamk_core::{Decomposition, IterSpace, Strategy};
use streamk_cpu::macloop::mac_loop_view;
use streamk_cpu::{mac_loop_kernel, CpuExecutor, FaultKind, FaultPlan, KernelKind, PackBuffers};
use streamk_matrix::Matrix;
use streamk_types::{GemmShape, Layout, TileShape};

const THREADS: usize = 8;

fn operands(shape: GemmShape, layout: Layout) -> (Matrix<f64>, Matrix<f64>) {
    let seed = ((shape.m * 73 + shape.n) * 37 + shape.k) as u64;
    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, layout, seed);
    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, layout, seed + 1);
    (a, b)
}

fn shapes() -> impl proptest::strategy::Strategy<Value = GemmShape> {
    (5usize..70, 5usize..70, 8usize..120).prop_map(|(m, n, k)| GemmShape::new(m, n, k))
}

fn tiles() -> impl proptest::strategy::Strategy<Value = TileShape> {
    prop_oneof![
        Just(TileShape::new(16, 16, 8)),
        Just(TileShape::new(32, 32, 16)),
        Just(TileShape::new(8, 32, 4)),
        Just(TileShape::new(32, 8, 4)),
        Just(TileShape::new(13, 11, 5)), // deliberately unaligned to MR/NR
    ]
}

fn layouts() -> impl proptest::strategy::Strategy<Value = Layout> {
    prop_oneof![Just(Layout::RowMajor), Just(Layout::ColMajor)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kernel level: any shape, tile, layout, tile index, and local
    /// iteration sub-range — every kernel's f64 output is identical
    /// to the scalar MAC loop's.
    #[test]
    fn every_kernel_bit_exact_vs_scalar(
        shape in shapes(),
        tile in tiles(),
        layout in layouts(),
        tile_sel in 0usize..64,
        range_sel in (0usize..64, 0usize..64),
    ) {
        let space = IterSpace::new(shape, tile);
        let (a, b) = operands(shape, layout);
        let tile_idx = tile_sel % space.tiles();
        let ipt = space.iters_per_tile();
        // An arbitrary sub-range [lo, hi) of the tile's iterations —
        // the segment shapes Stream-K actually produces.
        let (mut lo, mut hi) = (range_sel.0 % (ipt + 1), range_sel.1 % (ipt + 1));
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }

        let len = tile.blk_m * tile.blk_n;
        let mut reference = vec![0.0f64; len];
        mac_loop_view(&a.view(), &b.view(), &space, tile_idx, lo, hi, &mut reference);

        let mut bufs = PackBuffers::new();
        for kind in KernelKind::ALL {
            let mut got = vec![0.0f64; len];
            mac_loop_kernel(kind, &a.view(), &b.view(), &space, tile_idx, lo, hi, &mut got, &mut bufs);
            prop_assert!(got == reference, "{kind} diverged on {shape} {tile} tile {tile_idx} [{lo},{hi})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Executor level: a full launch's output must not depend on the
    /// configured kernel — runs differing only in
    /// `ExecutorConfig::kernel` agree bit-for-bit, split seams and
    /// all.
    #[test]
    fn executor_output_is_kernel_invariant(
        shape in shapes(),
        tile in prop_oneof![Just(TileShape::new(16, 16, 8)), Just(TileShape::new(32, 32, 16))],
        layout in layouts(),
        grid in 2usize..8,
    ) {
        let decomp = Decomposition::stream_k(shape, tile, grid);
        let max_cover = decomp.fixups().iter().map(|f| f.covering_ctas()).max().unwrap_or(1);
        prop_assume!(max_cover <= THREADS);

        let (a, b) = operands(shape, layout);
        let reference = CpuExecutor::with_threads(THREADS)
            .with_kernel(KernelKind::Scalar)
            .gemm::<f64, f64>(&a, &b, &decomp);
        for kind in KernelKind::ALL {
            let c = CpuExecutor::with_threads(THREADS)
                .with_kernel(kind)
                .gemm::<f64, f64>(&a, &b, &decomp);
            prop_assert!(c.max_abs_diff(&reference) == 0.0, "{kind} changed the launch output");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fault level: split-tile fixup under injected faults with the
    /// packed pipeline — owner-side recovery recomputes with the same
    /// packed kernel, so the recovered output stays bit-exact against
    /// the fault-free packed run.
    #[test]
    fn packed_fixup_recovers_bit_exact_under_faults(
        shape in shapes(),
        layout in layouts(),
        strategy in prop_oneof![
            (2usize..5).prop_map(|split| Strategy::FixedSplit { split }),
            (2usize..8).prop_map(|grid| Strategy::StreamK { grid }),
        ],
        kind_sel in 0usize..KernelKind::PACKED.len(),
        fault_idx in 0u8..2,
        victim_idx in 0usize..64,
    ) {
        let tile = TileShape::new(16, 16, 8);
        let decomp = Decomposition::from_strategy(shape, tile, strategy);
        let max_cover = decomp.fixups().iter().map(|f| f.covering_ctas()).max().unwrap_or(1);
        prop_assume!(max_cover <= THREADS);

        let kernel = KernelKind::PACKED[kind_sel];
        let (a, b) = operands(shape, layout);
        let e = CpuExecutor::with_threads(THREADS)
            .with_kernel(kernel)
            .with_watchdog(Duration::from_millis(150));
        let baseline = e.try_gemm::<f64, f64>(&a, &b, &decomp).expect("fault-free run");

        let contributors = FaultPlan::contributors(&decomp);
        let plan = match contributors.first() {
            None => FaultPlan::none(),
            Some(_) => {
                let victim = contributors[victim_idx % contributors.len()];
                let kind = if fault_idx == 0 { FaultKind::Lose } else { FaultKind::Poison };
                FaultPlan::single(victim, kind)
            }
        };
        let (c, report) = e.gemm_with_faults::<f64, f64>(&a, &b, &decomp, &plan).expect("survives");
        if !plan.is_empty() {
            prop_assert!(report.recoveries() >= 1, "no recovery for {plan:?}");
        }
        prop_assert!(c.max_abs_diff(&baseline) == 0.0, "{kernel} recovery diverged");
    }
}

/// The deterministic corner: a tile smaller than every register
/// block, exercised through the executor with each packed kernel.
#[test]
fn tiny_ragged_problem_every_kernel() {
    let shape = GemmShape::new(3, 2, 5);
    let tile = TileShape::new(16, 16, 8);
    let decomp = Decomposition::data_parallel(shape, tile);
    let (a, b) = operands(shape, Layout::RowMajor);
    let reference = CpuExecutor::with_threads(2)
        .with_kernel(KernelKind::Scalar)
        .gemm::<f64, f64>(&a, &b, &decomp);
    for kind in KernelKind::ALL {
        let c = CpuExecutor::with_threads(2).with_kernel(kind).gemm::<f64, f64>(&a, &b, &decomp);
        assert_eq!(c.max_abs_diff(&reference), 0.0, "{kind}");
    }
}

/// Batched and grouped executions run the same dispatcher: their
/// outputs must also be kernel-invariant.
#[test]
fn batched_and_grouped_are_kernel_invariant() {
    use streamk_core::{BatchedDecomposition, BatchedSpace, GroupedDecomposition, GroupedSpace};

    let tile = TileShape::new(16, 16, 8);
    let shape = GemmShape::new(33, 29, 41);
    let (a0, b0) = operands(shape, Layout::RowMajor);
    let (a1, b1) = operands(GemmShape::new(shape.m + 1, shape.n + 2, shape.k + 3), Layout::RowMajor);

    // Batched: identical shapes.
    let batch_a = vec![a0.clone(), a0.clone()];
    let batch_b = vec![b0.clone(), b0.clone()];
    let bdecomp = BatchedDecomposition::stream_k(BatchedSpace::new(2, shape, tile), 5);
    let bref = CpuExecutor::with_threads(5)
        .with_kernel(KernelKind::Scalar)
        .gemm_batched::<f64, f64>(&batch_a, &batch_b, &bdecomp);
    for kind in KernelKind::PACKED.into_iter().chain(KernelKind::SIMD) {
        let c = CpuExecutor::with_threads(5)
            .with_kernel(kind)
            .gemm_batched::<f64, f64>(&batch_a, &batch_b, &bdecomp);
        for (ci, ri) in c.iter().zip(&bref) {
            assert_eq!(ci.max_abs_diff(ri), 0.0, "batched {kind}");
        }
    }

    // Grouped: unrelated shapes sharing the blocking factor.
    let shapes = [shape, GemmShape::new(shape.m + 1, shape.n + 2, shape.k + 3)];
    let group_a = vec![a0, a1];
    let group_b = vec![b0, b1];
    let gdecomp = GroupedDecomposition::stream_k(GroupedSpace::new(&shapes, tile), 5);
    let gref = CpuExecutor::with_threads(5)
        .with_kernel(KernelKind::Scalar)
        .gemm_grouped::<f64, f64>(&group_a, &group_b, &gdecomp);
    for kind in KernelKind::PACKED.into_iter().chain(KernelKind::SIMD) {
        let c = CpuExecutor::with_threads(5)
            .with_kernel(kind)
            .gemm_grouped::<f64, f64>(&group_a, &group_b, &gdecomp);
        for (ci, ri) in c.iter().zip(&gref) {
            assert_eq!(ci.max_abs_diff(ri), 0.0, "grouped {kind}");
        }
    }
}
