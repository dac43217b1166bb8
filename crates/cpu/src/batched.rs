//! Batched GEMM execution — one Stream-K grid across many instances.
//!
//! A uniform batch is the group of its equal shapes
//! ([`BatchedDecomposition::group`]), so [`gemm_batched`] runs it
//! through [`gemm_grouped`]: one launch, one consolidation board,
//! regardless of batch size, crossing instance boundaries exactly as
//! single-GEMM Stream-K crosses tile boundaries. It schedules, defers,
//! traces and reports stats exactly as a single GEMM does; to inject
//! faults into a batch, pass its group to
//! [`gemm_grouped_with_faults`](CpuExecutor::gemm_grouped_with_faults).
//!
//! [`gemm_batched`]: CpuExecutor::gemm_batched
//! [`gemm_grouped`]: CpuExecutor::gemm_grouped

use crate::executor::CpuExecutor;
use streamk_core::BatchedDecomposition;
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
        self.gemm_grouped(a, b, decomp.group())
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
