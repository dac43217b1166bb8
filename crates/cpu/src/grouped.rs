//! Grouped GEMM execution — one grid, many problem shapes.
//!
//! The executor's grid loop is written over a list of instances with
//! concatenated iteration spaces, which is exactly what a
//! [`GroupedDecomposition`] describes: this entry validates it and
//! hands over its instance spaces. It is also the batched entry's
//! path: a uniform batch runs as the group of its equal shapes.

use crate::engine::{splits_a_tile, Grid, Instance, Orientation, Output};
use crate::executor::{CpuExecutor, RecoveryReport};
use crate::fault::FaultPlan;
use crate::output::OwnedTileWriter;
use streamk_core::{ExecutorError, GroupedDecomposition};
use streamk_matrix::{Matrix, Promote, Scalar};

impl CpuExecutor {
    /// Computes `C_i = A_i · B_i` for every instance of the group by
    /// executing `decomp`'s single grid. Instances may have unrelated
    /// shapes; they share the blocking factor.
    ///
    /// # Panics
    ///
    /// Panics if the operand counts or shapes don't match the
    /// decomposition, if the decomposition is invalid, or if the fixup
    /// structure needs more co-resident CTAs than there are workers.
    #[must_use]
    pub fn gemm_grouped<In, Acc>(
        &self,
        a: &[Matrix<In>],
        b: &[Matrix<In>],
        decomp: &GroupedDecomposition,
    ) -> Vec<Matrix<Acc>>
    where
        In: Promote<Acc>,
        Acc: Scalar,
    {
        self.gemm_grouped_with_faults(a, b, decomp, &FaultPlan::none()).map_or_else(|e| panic!("{e}"), |(c, _)| c)
    }

    /// [`gemm_grouped`](Self::gemm_grouped) while injecting `plan`'s
    /// faults into the fixup protocol and recovering from each, exactly
    /// as [`gemm_with_faults`](Self::gemm_with_faults) does for a
    /// single GEMM: outputs bit-identical to the fault-free launch's,
    /// and a [`RecoveryReport`] of what recovery had to do.
    ///
    /// Instance `i` computes `a[i] · b[i]` in the group's `i`-th space,
    /// the launch's iteration space being theirs concatenated in order.
    /// Each output is born from its tiles (reserved unfilled, every
    /// element first written by the worker that computed its tile); one
    /// grid-shared pack-cache table spans the instances.
    ///
    /// # Errors
    ///
    /// As [`gemm_with_faults`](Self::gemm_with_faults), except that
    /// operand counts or shapes that don't match the decomposition
    /// panic.
    pub fn gemm_grouped_with_faults<In, Acc>(
        &self,
        a: &[Matrix<In>],
        b: &[Matrix<In>],
        decomp: &GroupedDecomposition,
        plan: &FaultPlan,
    ) -> Result<(Vec<Matrix<Acc>>, RecoveryReport), ExecutorError>
    where
        In: Promote<Acc>,
        Acc: Scalar,
    {
        decomp.validate().map_err(ExecutorError::InvalidDecomposition)?;
        let spaces = decomp.space().instances();
        assert_eq!(a.len(), spaces.len(), "need one A per instance");
        assert_eq!(b.len(), spaces.len(), "need one B per instance");
        let fixups = decomp.fixups();
        let splits = splits_a_tile(&fixups);
        let mut first_iter = 0;
        let instances: Vec<Instance<'_, In, Acc>> = spaces
            .iter()
            .zip(a.iter().zip(b))
            .enumerate()
            .map(|(i, (space, (ai, bi)))| {
                let shape = space.shape();
                assert_eq!((ai.rows(), ai.cols()), (shape.m, shape.k), "A[{i}] must be m x k");
                assert_eq!((bi.rows(), bi.cols()), (shape.k, shape.n), "B[{i}] must be k x n");
                let (av, bv) = (ai.view(), bi.view());
                let (orientation, layout, space) =
                    Orientation::choose(self.kernel(), &av, &bv, ai.layout(), space, splits);
                let out = Output::Owned(OwnedTileWriter::new(layout, &space));
                let instance = Instance::new(orientation, av, bv, out, first_iter);
                first_iter += space.total_iters();
                instance
            })
            .collect();
        let grid = Grid { ctas: decomp.ctas(), instances: &instances, alpha: Acc::ONE, beta: Acc::ZERO };
        let report = self.run_grid(&grid, &fixups, plan, 1)?;
        Ok((instances.iter().map(Instance::take).collect(), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_core::GroupedSpace;
    use streamk_matrix::reference::gemm_naive;
    use streamk_types::{GemmShape, Layout, TileShape};

    fn operands(shapes: &[GemmShape], seed: u64) -> (Vec<Matrix<f64>>, Vec<Matrix<f64>>) {
        let a = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| Matrix::<f64>::random::<f64>(s.m, s.k, Layout::RowMajor, seed + i as u64))
            .collect();
        let b = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| Matrix::<f64>::random::<f64>(s.k, s.n, Layout::RowMajor, seed + 50 + i as u64))
            .collect();
        (a, b)
    }

    fn verify(shapes: &[GemmShape], tile: TileShape, grid: usize, threads: usize, seed: u64) {
        let (a, b) = operands(shapes, seed);
        let space = GroupedSpace::new(shapes, tile);
        let decomp = GroupedDecomposition::stream_k(space, grid);
        let c = CpuExecutor::with_threads(threads).gemm_grouped::<f64, f64>(&a, &b, &decomp);
        for i in 0..shapes.len() {
            c[i].assert_close(&gemm_naive::<f64, f64>(&a[i], &b[i]), 1e-11);
        }
    }

    #[test]
    fn mixed_shapes_match_reference() {
        verify(
            &[GemmShape::new(32, 32, 48), GemmShape::new(48, 16, 96), GemmShape::new(16, 64, 16)],
            TileShape::new(16, 16, 8),
            6,
            6,
            1,
        );
    }

    #[test]
    fn ragged_mixed_shapes() {
        verify(
            &[GemmShape::new(19, 23, 31), GemmShape::new(7, 53, 11), GemmShape::new(41, 13, 67)],
            TileShape::new(16, 16, 8),
            5,
            5,
            2,
        );
    }

    #[test]
    fn transformer_like_group() {
        // The four GEMMs of one attention layer at tokens = 24,
        // hidden = 32: wildly different aspect ratios, one launch.
        let h = 32;
        let t = 24;
        verify(
            &[
                GemmShape::new(t, 3 * h, h),
                GemmShape::new(t, h, h),
                GemmShape::new(t, 4 * h, h),
                GemmShape::new(t, h, 4 * h),
            ],
            TileShape::new(16, 16, 8),
            8,
            8,
            3,
        );
    }

    #[test]
    fn grouped_data_parallel_matches_reference() {
        let shapes = [GemmShape::new(32, 32, 16), GemmShape::new(16, 16, 64)];
        let (a, b) = operands(&shapes, 4);
        let decomp = GroupedDecomposition::data_parallel(GroupedSpace::new(&shapes, TileShape::new(16, 16, 8)));
        let c = CpuExecutor::with_threads(4).gemm_grouped::<f64, f64>(&a, &b, &decomp);
        for i in 0..2 {
            c[i].assert_close(&gemm_naive::<f64, f64>(&a[i], &b[i]), 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "one A per instance")]
    fn mismatched_group_count_panics() {
        let shapes = [GemmShape::new(16, 16, 16)];
        let (a, b) = operands(&shapes, 5);
        let both = [shapes[0], shapes[0]];
        let decomp = GroupedDecomposition::stream_k(GroupedSpace::new(&both, TileShape::new(16, 16, 16)), 2);
        let _ = CpuExecutor::with_threads(2).gemm_grouped::<f64, f64>(&a, &b, &decomp);
    }
}
