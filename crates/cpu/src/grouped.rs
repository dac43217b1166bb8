//! Grouped GEMM execution — one grid, many problem shapes.
//!
//! The executor's grid loop is written over a list of instances with
//! concatenated iteration spaces, which is exactly what a
//! [`GroupedDecomposition`] describes: this entry validates it and
//! hands over its instance spaces.

use crate::executor::{CpuExecutor, RecoveryReport};
use crate::fault::FaultPlan;
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
        self.grouped_fresh(a, b, decomp, &FaultPlan::none(), false).map_or_else(|e| panic!("{e}"), |(c, _)| c)
    }

    /// [`gemm_grouped`](Self::gemm_grouped) while injecting `plan`'s
    /// faults into the fixup protocol and recovering from each, exactly
    /// as [`gemm_with_faults`](Self::gemm_with_faults) does for a
    /// single GEMM: outputs bit-identical to the fault-free launch's,
    /// and a [`RecoveryReport`] of what recovery had to do.
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
        self.grouped_fresh(a, b, decomp, plan, true)
    }

    fn grouped_fresh<In, Acc>(
        &self,
        a: &[Matrix<In>],
        b: &[Matrix<In>],
        decomp: &GroupedDecomposition,
        plan: &FaultPlan,
        recover: bool,
    ) -> Result<(Vec<Matrix<Acc>>, RecoveryReport), ExecutorError>
    where
        In: Promote<Acc>,
        Acc: Scalar,
    {
        decomp.validate().map_err(ExecutorError::InvalidDecomposition)?;
        let spaces = decomp.space().instances().iter();
        self.run_group(a, b, spaces, decomp.ctas(), &decomp.fixups(), plan, recover)
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

    /// With recovery off — the entry `gemm_grouped` shares with
    /// `gemm_grouped_with_faults` — a lost peer is the owner's watchdog
    /// timeout, typed, and the outputs are dropped unread.
    #[test]
    fn lost_peer_without_recovery_is_a_watchdog_error() {
        use streamk_core::FixupError;
        let shapes = [GemmShape::new(32, 32, 48), GemmShape::new(48, 16, 96), GemmShape::new(16, 64, 16)];
        let (a, b) = operands(&shapes, 6);
        let decomp = GroupedDecomposition::stream_k(GroupedSpace::new(&shapes, TileShape::new(16, 16, 8)), 4);
        let victim = decomp.fixups().iter().find_map(|f| f.peers.first().copied()).expect("a split tile");
        let plan = FaultPlan::single(victim, crate::FaultKind::Lose);
        let exec = CpuExecutor::with_threads(4).with_watchdog(std::time::Duration::from_millis(100));
        match exec.grouped_fresh::<f64, f64>(&a, &b, &decomp, &plan, false) {
            Err(ExecutorError::Fixup(FixupError::WatchdogTimeout { peer, .. })) => assert_eq!(peer, victim),
            other => panic!("expected a watchdog timeout, got {:?}", other.map(|(_, report)| report)),
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
