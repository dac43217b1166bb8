//! The selection loop threaded through the CPU execution surfaces.
//!
//! [`SelectingExecutor`] wraps a [`CpuExecutor`] and closes the
//! measure → feed back → converge loop on every entry point:
//!
//! - single launches ([`gemm_adaptive`](SelectingExecutor::gemm_adaptive));
//! - uniform batches ([`gemm_batched_adaptive`](SelectingExecutor::gemm_batched_adaptive));
//! - ragged groups ([`gemm_grouped_adaptive`](SelectingExecutor::gemm_grouped_adaptive));
//! - the concurrent service, via per-request selection
//!   ([`request_for`](SelectingExecutor::request_for) /
//!   [`feedback_request`](SelectingExecutor::feedback_request)) keyed
//!   by each request's own shape class.
//!
//! A selection is a schedule — strategy and tile — and every launch
//! runs the wrapped executor's own kernel.

use crate::selector::{AdaptiveSelector, Selection, SelectorConfig};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;
use streamk_core::{
    BatchedDecomposition, BatchedSpace, GroupedDecomposition, GroupedSpace, Strategy,
};
use streamk_cpu::{CpuExecutor, LaunchRequest, RequestStats, StrassenConfig};
use streamk_matrix::{Matrix, Promote, Scalar};
use streamk_types::GemmShape;

/// A [`CpuExecutor`] with the adaptive selection loop attached.
#[derive(Debug)]
pub struct SelectingExecutor {
    executor: CpuExecutor,
    selector: Mutex<AdaptiveSelector>,
}

impl SelectingExecutor {
    /// Wraps `executor`. The selector's worker count is forced to the
    /// executor's thread count — selections must be keyed to the
    /// machine they run on.
    #[must_use]
    pub fn new(executor: CpuExecutor, config: SelectorConfig) -> Self {
        let config = SelectorConfig { workers: executor.threads(), ..config };
        Self { executor, selector: Mutex::new(AdaptiveSelector::new(config)) }
    }

    /// The wrapped executor.
    #[must_use]
    pub fn executor(&self) -> &CpuExecutor {
        &self.executor
    }

    /// Runs `f` against the selector (persist, distill, inspection).
    pub fn with_selector<R>(&self, f: impl FnOnce(&mut AdaptiveSelector) -> R) -> R {
        f(&mut self.selector.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Adaptive `C = A · B`: select a schedule for the launch's shape
    /// class, execute it, and feed the measured time and `ExecStats`
    /// back. Returns the product and the selection that produced it.
    ///
    /// When the selector was built with
    /// [`SelectorConfig::with_strassen`] and picks a hybrid
    /// candidate (`strassen_depth > 0`), the launch routes through
    /// [`CpuExecutor::gemm_strassen`] at that depth; the measured
    /// time competes in the same epsilon-greedy table as the
    /// classical candidates, so the crossover is learned online
    /// per shape class.
    pub fn gemm_adaptive<In, Acc>(&self, a: &Matrix<In>, b: &Matrix<In>) -> (Matrix<Acc>, Selection)
    where
        In: Promote<Acc> + Scalar,
        Acc: Scalar,
    {
        let shape = GemmShape::new(a.rows(), b.cols(), a.cols());
        let selection = self
            .with_selector(|s| s.select(shape, a.layout()));
        let depth = selection.candidate.strassen_depth;
        if depth > 0 {
            let base = self
                .with_selector(|s| s.config().strassen)
                .unwrap_or_else(StrassenConfig::enabled);
            let config = StrassenConfig { enabled: true, max_depth: depth as usize, ..base };
            let start = Instant::now();
            let (c, _report) =
                self.executor.gemm_strassen(a, b, selection.candidate.tile, &config);
            let secs = start.elapsed().as_secs_f64();
            let stats = self.executor.last_stats();
            self.with_selector(|s| s.feedback(&selection, secs, &stats));
            return (c, selection);
        }
        let decomp = selection.candidate.decompose(shape);
        let start = Instant::now();
        let c = self.executor.gemm(a, b, &decomp);
        let secs = start.elapsed().as_secs_f64();
        let stats = self.executor.last_stats();
        self.with_selector(|s| s.feedback(&selection, secs, &stats));
        (c, selection)
    }

    /// Adaptive uniform batch. Selection is keyed by the *instance*
    /// shape; the chosen strategy maps onto the batched decomposition
    /// forms (`DataParallel` stays data-parallel, everything else
    /// becomes batched Stream-K over the workers), and the tile carries
    /// over as-is.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or mismatched instance shapes.
    pub fn gemm_batched_adaptive<In, Acc>(
        &self,
        a: &[Matrix<In>],
        b: &[Matrix<In>],
    ) -> (Vec<Matrix<Acc>>, Selection)
    where
        In: Promote<Acc>,
        Acc: Scalar,
    {
        assert!(!a.is_empty() && a.len() == b.len(), "batch must be non-empty and aligned");
        let shape = GemmShape::new(a[0].rows(), b[0].cols(), a[0].cols());
        let selection = self.with_selector(|s| s.select(shape, a[0].layout()));
        let space = BatchedSpace::new(a.len(), shape, selection.candidate.tile);
        let workers = self.executor.threads();
        let decomp = match selection.candidate.strategy {
            Strategy::DataParallel => BatchedDecomposition::data_parallel(space),
            Strategy::StreamK { grid } => BatchedDecomposition::stream_k(space, grid.max(1)),
            _ => BatchedDecomposition::stream_k(space, workers),
        };
        let decomp = residency_guard_batched(decomp, shape, a.len(), selection.candidate.tile, workers);
        let start = Instant::now();
        let c = self.executor.gemm_batched(a, b, &decomp);
        let secs = start.elapsed().as_secs_f64();
        let stats = self.executor.last_stats();
        self.with_selector(|s| s.feedback(&selection, secs, &stats));
        (c, selection)
    }

    /// Adaptive ragged group. Selection is keyed by the group's
    /// *dominant* member (most MAC iterations — it decides the
    /// makespan); strategy mapping is as in the batched path.
    ///
    /// # Panics
    ///
    /// Panics on an empty group or mismatched operand lists.
    pub fn gemm_grouped_adaptive<In, Acc>(
        &self,
        a: &[Matrix<In>],
        b: &[Matrix<In>],
    ) -> (Vec<Matrix<Acc>>, Selection)
    where
        In: Promote<Acc>,
        Acc: Scalar,
    {
        assert!(!a.is_empty() && a.len() == b.len(), "group must be non-empty and aligned");
        let shapes: Vec<GemmShape> = a
            .iter()
            .zip(b)
            .map(|(ai, bi)| GemmShape::new(ai.rows(), bi.cols(), ai.cols()))
            .collect();
        let dominant = *shapes
            .iter()
            .max_by_key(|s| s.m * s.n * s.k)
            .expect("non-empty group");
        let selection = self.with_selector(|s| s.select(dominant, a[0].layout()));
        let space = GroupedSpace::new(&shapes, selection.candidate.tile);
        let workers = self.executor.threads();
        let decomp = match selection.candidate.strategy {
            Strategy::DataParallel => GroupedDecomposition::data_parallel(space),
            Strategy::StreamK { grid } => GroupedDecomposition::stream_k(space, grid.max(1)),
            _ => GroupedDecomposition::stream_k(space, workers),
        };
        let decomp = {
            let max_cover = decomp
                .fixups()
                .iter()
                .map(streamk_core::TileFixup::covering_ctas)
                .max()
                .unwrap_or(1);
            if max_cover > workers {
                GroupedDecomposition::data_parallel(GroupedSpace::new(
                    &shapes,
                    selection.candidate.tile,
                ))
            } else {
                decomp
            }
        };
        let start = Instant::now();
        let c = self.executor.gemm_grouped(a, b, &decomp);
        let secs = start.elapsed().as_secs_f64();
        let stats = self.executor.last_stats();
        self.with_selector(|s| s.feedback(&selection, secs, &stats));
        (c, selection)
    }

    /// Builds a service request with per-request selection: the
    /// request carries the decomposition the selector chose for its
    /// shape class. Pair with
    /// [`feedback_request`](Self::feedback_request) once the
    /// completion handle resolves. Hybrid candidates degrade to
    /// their classical base schedule here — a single service request
    /// carries one decomposition, not a recursion; use
    /// [`streamk_cpu::GemmService::gemm_strassen`] to put a hybrid
    /// burst through the service.
    pub fn request_for<In>(&self, a: Matrix<In>, b: Matrix<In>) -> (LaunchRequest<In>, Selection) {
        let shape = GemmShape::new(a.rows(), b.cols(), a.cols());
        let selection = self.with_selector(|s| s.select(shape, a.layout()));
        let decomp = selection.candidate.decompose(shape);
        let request = LaunchRequest::new(a, b, decomp);
        (request, selection)
    }

    /// Feeds a completed request's measured stats back into the
    /// selector (uses service time, not queue latency).
    pub fn feedback_request(&self, selection: &Selection, stats: &RequestStats) {
        self.with_selector(|s| s.feedback_request(selection, stats));
    }
}

/// Falls back to batched data-parallel when the mapped Stream-K grid
/// would need more co-resident CTAs than the pool has workers.
fn residency_guard_batched(
    decomp: BatchedDecomposition,
    shape: GemmShape,
    batch: usize,
    tile: streamk_types::TileShape,
    workers: usize,
) -> BatchedDecomposition {
    let max_cover = decomp
        .fixups()
        .iter()
        .map(streamk_core::TileFixup::covering_ctas)
        .max()
        .unwrap_or(1);
    if max_cover > workers {
        BatchedDecomposition::data_parallel(BatchedSpace::new(batch, shape, tile))
    } else {
        decomp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::SelectionSource;
    use streamk_core::Decomposition;
    use streamk_types::{Layout, Precision};

    fn adaptive(threads: usize) -> SelectingExecutor {
        SelectingExecutor::new(
            CpuExecutor::with_threads(threads),
            SelectorConfig::new(Precision::Fp64, threads).with_top_k(4),
        )
    }

    fn operands(shape: GemmShape) -> (Matrix<f64>, Matrix<f64>) {
        let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, 11);
        let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, 12);
        (a, b)
    }

    #[test]
    fn adaptive_gemm_is_correct_and_feeds_back() {
        let e = adaptive(2);
        let shape = GemmShape::new(96, 64, 48);
        let (a, b) = operands(shape);
        // Reference through the same decomposition the selection
        // will pick is not knowable up front; use a fixed
        // decomposition and compare numerically.
        let reference: Matrix<f64> = e
            .executor()
            .gemm(&a, &b, &Decomposition::data_parallel(shape, streamk_types::TileShape::new(32, 32, 16)));
        let mut sources = Vec::new();
        for _ in 0..5 {
            let (c, sel): (Matrix<f64>, _) = e.gemm_adaptive(&a, &b);
            c.assert_close(&reference, 1e-10);
            sources.push(sel.source);
        }
        assert_eq!(sources[0], SelectionSource::ColdHeuristic);
        assert_eq!(e.with_selector(|s| s.total_trials()), 5);
    }

    #[test]
    fn adaptive_batched_and_grouped_are_correct() {
        let e = adaptive(2);
        let shape = GemmShape::new(64, 48, 32);
        let (a1, b1) = operands(shape);
        let (a2, b2) = operands(shape);
        let single: Matrix<f64> = e
            .executor()
            .gemm(&a1, &b1, &Decomposition::data_parallel(shape, streamk_types::TileShape::new(16, 16, 8)));

        let (cs, _) = e.gemm_batched_adaptive::<f64, f64>(
            &[a1.clone(), a2.clone()],
            &[b1.clone(), b2.clone()],
        );
        assert_eq!(cs.len(), 2);
        cs[0].assert_close(&single, 1e-10);

        let big = GemmShape::new(96, 96, 64);
        let (a3, b3) = operands(big);
        let (gs, sel) = e.gemm_grouped_adaptive::<f64, f64>(
            &[a1.clone(), a3],
            &[b1.clone(), b3],
        );
        assert_eq!(gs.len(), 2);
        gs[0].assert_close(&single, 1e-10);
        // Dominant-member keying: the class is the big shape's.
        assert_eq!(sel.class, e.with_selector(|s| s.class_of(big, Layout::RowMajor)));
    }

    #[test]
    fn strassen_candidate_is_routed_and_measured_when_opted_in() {
        use streamk_cpu::StrassenConfig;
        let threads = 2;
        let e = SelectingExecutor::new(
            CpuExecutor::with_threads(threads),
            SelectorConfig::new(Precision::Fp64, threads)
                .with_top_k(3)
                .with_strassen(StrassenConfig::enabled().with_cutoff(32).with_max_depth(1)),
        );
        let shape = GemmShape::new(96, 96, 96);
        let (a, b) = operands(shape);
        let reference: Matrix<f64> = e.executor().gemm(
            &a,
            &b,
            &Decomposition::data_parallel(shape, streamk_types::TileShape::new(32, 32, 16)),
        );

        let (_, slate) = e.with_selector(|s| s.slate(shape, Layout::RowMajor));
        assert_eq!(slate.last().map(|c| c.strassen_depth), Some(1), "hybrid joins the slate");

        // Warm the whole slate: the hybrid candidate gets routed
        // through gemm_strassen and measured like any other.
        let mut saw_hybrid = false;
        for _ in 0..slate.len() + 1 {
            let (c, sel): (Matrix<f64>, _) = e.gemm_adaptive(&a, &b);
            c.assert_close(&reference, 1e-9);
            saw_hybrid |= sel.candidate.strassen_depth > 0;
        }
        assert!(saw_hybrid, "warming must explore the hybrid candidate");
        assert_eq!(e.with_selector(|s| s.total_trials()), slate.len() as u64 + 1);
    }

    #[test]
    fn service_requests_carry_per_request_selection() {
        use streamk_cpu::{GemmService, ServeConfig};
        let e = adaptive(2);
        let shape = GemmShape::new(64, 48, 32);
        let (a, b) = operands(shape);
        let reference: Matrix<f64> = e
            .executor()
            .gemm(&a, &b, &Decomposition::data_parallel(shape, streamk_types::TileShape::new(16, 16, 8)));

        let service = GemmService::<f64, f64>::start(e.executor(), ServeConfig::default());
        for _ in 0..3 {
            let (request, selection) = e.request_for(a.clone(), b.clone());
            let handle = service.submit(request).expect("admitted");
            let (c, stats) = handle.wait().expect("completes");
            c.assert_close(&reference, 1e-10);
            e.feedback_request(&selection, &stats);
        }
        service.shutdown();
        assert_eq!(e.with_selector(|s| s.total_trials()), 3);
    }
}
