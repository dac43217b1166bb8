//! Batched GEMM execution — one Stream-K grid across many instances.
//!
//! Executes a [`BatchedDecomposition`]: a single pool of workers
//! processes the batch's aggregate iteration space, crossing instance
//! boundaries exactly as single-GEMM Stream-K crosses tile
//! boundaries. One launch, one consolidation board, regardless of
//! batch size — and the same launch as any other: to the executor's
//! grid loop a batch is a uniform group of instances, so it schedules,
//! defers, recovers from faults and traces exactly as a single GEMM
//! does.

use crate::executor::{CpuExecutor, RecoveryReport};
use crate::fault::FaultPlan;
use streamk_core::{BatchedDecomposition, ExecutorError};
use streamk_matrix::{Matrix, Promote, Scalar};

impl CpuExecutor {
    /// Computes `C_b = A_b · B_b` for every instance of the batch by
    /// executing `decomp`'s single grid.
    ///
    /// # Panics
    ///
    /// Panics if the operand counts or shapes don't match the
    /// decomposition, if the decomposition is invalid, or if the fixup
    /// structure needs more co-resident CTAs than there are workers.
    #[must_use]
    pub fn gemm_batched<In, Acc>(
        &self,
        a: &[Matrix<In>],
        b: &[Matrix<In>],
        decomp: &BatchedDecomposition,
    ) -> Vec<Matrix<Acc>>
    where
        In: Promote<Acc>,
        Acc: Scalar,
    {
        self.batched_fresh(a, b, decomp, &FaultPlan::none(), false).map_or_else(|e| panic!("{e}"), |(c, _)| c)
    }

    /// [`gemm_batched`](Self::gemm_batched) while injecting `plan`'s
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
    pub fn gemm_batched_with_faults<In, Acc>(
        &self,
        a: &[Matrix<In>],
        b: &[Matrix<In>],
        decomp: &BatchedDecomposition,
        plan: &FaultPlan,
    ) -> Result<(Vec<Matrix<Acc>>, RecoveryReport), ExecutorError>
    where
        In: Promote<Acc>,
        Acc: Scalar,
    {
        self.batched_fresh(a, b, decomp, plan, true)
    }

    fn batched_fresh<In, Acc>(
        &self,
        a: &[Matrix<In>],
        b: &[Matrix<In>],
        decomp: &BatchedDecomposition,
        plan: &FaultPlan,
        recover: bool,
    ) -> Result<(Vec<Matrix<Acc>>, RecoveryReport), ExecutorError>
    where
        In: Promote<Acc>,
        Acc: Scalar,
    {
        decomp.validate().map_err(ExecutorError::InvalidDecomposition)?;
        let spaces = std::iter::repeat_n(decomp.space().instance(), decomp.space().batch());
        self.run_group(a, b, spaces, decomp.ctas(), &decomp.fixups(), plan, recover)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_core::BatchedSpace;
    use streamk_matrix::reference::gemm_naive;
    use streamk_types::{GemmShape, Layout, TileShape};

    fn instances(batch: usize, shape: GemmShape, seed: u64) -> (Vec<Matrix<f64>>, Vec<Matrix<f64>>) {
        let a = (0..batch)
            .map(|i| Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, seed + i as u64))
            .collect();
        let b = (0..batch)
            .map(|i| Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, seed + 100 + i as u64))
            .collect();
        (a, b)
    }

    #[test]
    fn batched_stream_k_matches_reference_per_instance() {
        let shape = GemmShape::new(48, 40, 64);
        let tile = TileShape::new(16, 16, 8);
        let (a, b) = instances(6, shape, 1);
        let space = BatchedSpace::new(6, shape, tile);
        let decomp = BatchedDecomposition::stream_k(space, 7);
        let c = CpuExecutor::with_threads(7).gemm_batched::<f64, f64>(&a, &b, &decomp);
        assert_eq!(c.len(), 6);
        for i in 0..6 {
            c[i].assert_close(&gemm_naive::<f64, f64>(&a[i], &b[i]), 1e-11);
        }
    }

    #[test]
    fn batched_data_parallel_matches_reference() {
        let shape = GemmShape::new(32, 32, 40);
        let tile = TileShape::new(16, 16, 8);
        let (a, b) = instances(4, shape, 2);
        let decomp = BatchedDecomposition::data_parallel(BatchedSpace::new(4, shape, tile));
        let c = CpuExecutor::with_threads(4).gemm_batched::<f64, f64>(&a, &b, &decomp);
        for i in 0..4 {
            c[i].assert_close(&gemm_naive::<f64, f64>(&a[i], &b[i]), 1e-12);
        }
    }

    #[test]
    fn tiny_instances_wide_grid() {
        // Single-tile instances: every split crosses instance
        // boundaries, the worst case for the global bookkeeping.
        let shape = GemmShape::new(16, 16, 48);
        let tile = TileShape::new(16, 16, 8);
        let (a, b) = instances(5, shape, 3);
        let decomp = BatchedDecomposition::stream_k(BatchedSpace::new(5, shape, tile), 8);
        let c = CpuExecutor::with_threads(8).gemm_batched::<f64, f64>(&a, &b, &decomp);
        for i in 0..5 {
            c[i].assert_close(&gemm_naive::<f64, f64>(&a[i], &b[i]), 1e-11);
        }
    }

    #[test]
    fn ragged_instances() {
        let shape = GemmShape::new(19, 23, 31);
        let tile = TileShape::new(8, 8, 8);
        let (a, b) = instances(3, shape, 4);
        let decomp = BatchedDecomposition::stream_k(BatchedSpace::new(3, shape, tile), 6);
        let c = CpuExecutor::with_threads(6).gemm_batched::<f64, f64>(&a, &b, &decomp);
        for i in 0..3 {
            c[i].assert_close(&gemm_naive::<f64, f64>(&a[i], &b[i]), 1e-11);
        }
    }

    /// With recovery off — the entry `gemm_batched` shares with
    /// `gemm_batched_with_faults` — a lost peer is the owner's watchdog
    /// timeout, typed, and the outputs are dropped unread.
    #[test]
    fn lost_peer_without_recovery_is_a_watchdog_error() {
        use streamk_core::FixupError;
        let shape = GemmShape::new(16, 16, 48);
        let (a, b) = instances(5, shape, 6);
        let decomp = BatchedDecomposition::stream_k(BatchedSpace::new(5, shape, TileShape::new(16, 16, 8)), 4);
        let victim = decomp.fixups().iter().find_map(|f| f.peers.first().copied()).expect("a split tile");
        let plan = FaultPlan::single(victim, crate::FaultKind::Lose);
        let exec = CpuExecutor::with_threads(4).with_watchdog(std::time::Duration::from_millis(100));
        match exec.batched_fresh::<f64, f64>(&a, &b, &decomp, &plan, false) {
            Err(ExecutorError::Fixup(FixupError::WatchdogTimeout { peer, .. })) => assert_eq!(peer, victim),
            other => panic!("expected a watchdog timeout, got {:?}", other.map(|(_, report)| report)),
        }
    }

    #[test]
    #[should_panic(expected = "one A per instance")]
    fn wrong_batch_count_panics() {
        let shape = GemmShape::new(16, 16, 16);
        let tile = TileShape::new(16, 16, 16);
        let (a, b) = instances(2, shape, 5);
        let decomp = BatchedDecomposition::stream_k(BatchedSpace::new(3, shape, tile), 3);
        let _ = CpuExecutor::with_threads(3).gemm_batched::<f64, f64>(&a, &b, &decomp);
    }
}
