//! Register-block property suite: the bit-exactness contract.
//!
//! The register block and the scalar MAC loop must produce *identical*
//! results, because each accumulates every output element in
//! ascending-k order with one fused MAC and the block's zero-padding
//! only fills lanes that are discarded. These properties pin that
//! contract at three levels:
//!
//! 1. **Block level**: random shapes, tiles, layouts and iteration
//!    sub-ranges (ragged edges included) through the const-generic
//!    `mac_loop_cached` at every tested geometry, over packed and
//!    in-place operands, in f64, f32 and f16 → f32, vs the scalar
//!    `mac_loop_view` (the `geometry` harness);
//! 2. **Executor level**: full Stream-K launches where only
//!    `ExecutorConfig::kernel` varies must agree bit-for-bit;
//! 3. **Batched and grouped**: the same for the launches that share
//!    one grid across instances.

mod geometry;

use proptest::prelude::*;
use streamk_core::{Decomposition, IterSpace};
use streamk_cpu::macloop::mac_loop_view;
use streamk_cpu::{CpuExecutor, KernelKind};
use streamk_matrix::{f16, Matrix, Promote, Scalar};
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

/// One tile segment of `a · b` in element type `In` through every
/// geometry, against the scalar MAC loop.
fn segment_agrees<In: Promote<Acc>, Acc: Scalar>(
    shape: GemmShape,
    tile: TileShape,
    layout: Layout,
    tile_sel: usize,
    range_sel: (usize, usize),
) -> Result<(), TestCaseError> {
    let space = IterSpace::new(shape, tile);
    let seed = ((shape.m * 73 + shape.n) * 37 + shape.k) as u64;
    let a = Matrix::<In>::random::<Acc>(shape.m, shape.k, layout, seed);
    let b = Matrix::<In>::random::<Acc>(shape.k, shape.n, layout, seed + 1);
    let tile_idx = tile_sel % space.tiles();
    let ipt = space.iters_per_tile();
    // An arbitrary sub-range [lo, hi) of the tile's iterations — the
    // segment shapes Stream-K actually produces.
    let (mut lo, mut hi) = (range_sel.0 % (ipt + 1), range_sel.1 % (ipt + 1));
    if lo > hi {
        std::mem::swap(&mut lo, &mut hi);
    }
    let mut reference = vec![Acc::ZERO; tile.blk_m * tile.blk_n];
    mac_loop_view(&a.view(), &b.view(), &space, tile_idx, lo, hi, &mut reference);
    geometry::every_geometry_agrees(&a.view(), &b.view(), &space, tile_idx, (lo, hi), &reference)
        .map_err(TestCaseError::Fail)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Block level: any shape, tile, layout, tile index, and local
    /// iteration sub-range — the register block at every geometry,
    /// over packed and in-place operands, gives the scalar MAC loop's
    /// output exactly, in f64, f32 and f16 → f32.
    #[test]
    fn every_geometry_bit_exact_vs_scalar(
        shape in shapes(),
        tile in tiles(),
        layout in layouts(),
        tile_sel in 0usize..64,
        range_sel in (0usize..64, 0usize..64),
    ) {
        segment_agrees::<f64, f64>(shape, tile, layout, tile_sel, range_sel)?;
        segment_agrees::<f32, f32>(shape, tile, layout, tile_sel, range_sel)?;
        segment_agrees::<f16, f32>(shape, tile, layout, tile_sel, range_sel)?;
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

/// The deterministic corner: a problem smaller than the register
/// block, exercised through the executor with each kernel.
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
    let c = CpuExecutor::with_threads(5)
        .with_kernel(KernelKind::Block)
        .gemm_batched::<f64, f64>(&batch_a, &batch_b, &bdecomp);
    for (ci, ri) in c.iter().zip(&bref) {
        assert_eq!(ci.max_abs_diff(ri), 0.0, "batched");
    }

    // Grouped: unrelated shapes sharing the blocking factor.
    let shapes = [shape, GemmShape::new(shape.m + 1, shape.n + 2, shape.k + 3)];
    let group_a = vec![a0, a1];
    let group_b = vec![b0, b1];
    let gdecomp = GroupedDecomposition::stream_k(GroupedSpace::new(&shapes, tile), 5);
    let gref = CpuExecutor::with_threads(5)
        .with_kernel(KernelKind::Scalar)
        .gemm_grouped::<f64, f64>(&group_a, &group_b, &gdecomp);
    let c = CpuExecutor::with_threads(5)
        .with_kernel(KernelKind::Block)
        .gemm_grouped::<f64, f64>(&group_a, &group_b, &gdecomp);
    for (ci, ri) in c.iter().zip(&gref) {
        assert_eq!(ci.max_abs_diff(ri), 0.0, "grouped");
    }
}
