//! Batched GEMM — Stream-K for "other GEMM-like workloads" (§7).
//!
//! A batched GEMM computes `C_b = A_b · B_b` for `b ∈ [0, batch)`,
//! every instance sharing one shape. Deep-learning inference issues
//! these constantly (per-head attention products, grouped
//! convolutions lowered to GEMM), and small-instance batches suffer
//! exactly the quantization inefficiency the paper targets: each
//! instance's few output tiles quantize badly on a wide processor,
//! and per-instance kernel launches serialize.
//!
//! Stream-K generalizes directly: concatenate the instances' iteration
//! spaces — `batch → m → n → k` — and split the aggregate iteration
//! count evenly across one grid of CTAs that crosses instance
//! boundaries as freely as tile boundaries. That is exactly what a
//! [`grouped`](crate::grouped) GEMM does, so a batch *is* the group of
//! `batch` copies of its shape: [`BatchedDecomposition`] builds that
//! [`GroupedDecomposition`] and hands it out through
//! [`group`](BatchedDecomposition::group), and every simulator,
//! executor and selector path runs the group. Global tile ids are
//! `b · tiles per instance + tile`.

use crate::grouped::{GroupedDecomposition, GroupedSpace};
use crate::space::IterSpace;
use crate::work::{CtaWork, TileFixup};
use streamk_types::{GemmShape, TileShape};

/// The iteration space of a uniform batch of GEMMs.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedSpace {
    instance: IterSpace,
    batch: usize,
}

impl BatchedSpace {
    /// Builds the space for `batch` instances of `shape` blocked by
    /// `tile`.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    #[must_use]
    pub fn new(batch: usize, shape: GemmShape, tile: TileShape) -> Self {
        assert!(batch > 0, "batch must be at least 1");
        Self { instance: IterSpace::new(shape, tile), batch }
    }

    /// The per-instance iteration space.
    #[must_use]
    pub fn instance(&self) -> &IterSpace {
        &self.instance
    }

    /// Number of GEMM instances.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Global output tiles: `batch` times the instance's.
    #[must_use]
    pub fn tiles(&self) -> usize {
        self.batch * self.instance.tiles()
    }

    /// Aggregate MAC-loop iterations across the batch.
    #[must_use]
    pub fn total_iters(&self) -> usize {
        self.batch * self.instance.total_iters()
    }

    /// The group of `batch` copies of the instance shape.
    fn group(&self) -> GroupedSpace {
        GroupedSpace::new(&vec![self.instance.shape(); self.batch], self.instance.tile())
    }
}

/// A Stream-K (or degenerate data-parallel) decomposition of a
/// batched GEMM: a view of the [`GroupedDecomposition`] of the batch's
/// group of equal shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedDecomposition {
    space: BatchedSpace,
    group: GroupedDecomposition,
}

impl BatchedDecomposition {
    /// Stream-K across the whole batch: `grid` CTAs, each receiving an
    /// even share (within one) of *all* instances' MAC-loop
    /// iterations.
    ///
    /// # Panics
    ///
    /// Panics if `grid == 0`.
    #[must_use]
    pub fn stream_k(space: BatchedSpace, grid: usize) -> Self {
        let group = GroupedDecomposition::stream_k(space.group(), grid);
        Self { space, group }
    }

    /// One CTA per global output tile — the batched data-parallel
    /// baseline (equivalent to Stream-K at `g = batch · t`).
    #[must_use]
    pub fn data_parallel(space: BatchedSpace) -> Self {
        let group = GroupedDecomposition::data_parallel(space.group());
        Self { space, group }
    }

    /// The batched space.
    #[must_use]
    pub fn space(&self) -> &BatchedSpace {
        &self.space
    }

    /// The same schedule as a group of `batch` equal shapes: what the
    /// simulator, the executor and the selector run.
    #[must_use]
    pub fn group(&self) -> &GroupedDecomposition {
        &self.group
    }

    /// Grid size.
    #[must_use]
    pub fn grid_size(&self) -> usize {
        self.group.grid_size()
    }

    /// Per-CTA assignments over the global iteration space.
    #[must_use]
    pub fn ctas(&self) -> &[CtaWork] {
        self.group.ctas()
    }

    /// Consolidation structure over *global* tile ids.
    #[must_use]
    pub fn fixups(&self) -> Vec<TileFixup> {
        self.group.fixups()
    }

    /// Structural validation: contiguous exact cover and dense ids.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        self.group.validate()
    }

    /// Iteration imbalance across non-empty CTAs (≤ 1 by
    /// construction).
    #[must_use]
    pub fn iter_imbalance(&self) -> usize {
        self.group.iter_imbalance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> BatchedSpace {
        // 8 instances of a 2x2-tile GEMM with 4 iters/tile:
        // 32 global tiles, 128 iterations.
        BatchedSpace::new(8, GemmShape::new(64, 64, 32), TileShape::new(32, 32, 8))
    }

    #[test]
    fn space_accounting() {
        let s = space();
        assert_eq!(s.instance().tiles(), 4);
        assert_eq!(s.tiles(), 32);
        assert_eq!(s.instance().iters_per_tile(), 4);
        assert_eq!(s.total_iters(), 128);
        let group = BatchedDecomposition::stream_k(s, 6);
        let group = group.group().space();
        assert_eq!((group.groups(), group.tiles(), group.total_iters()), (8, 32, 128));
    }

    #[test]
    fn stream_k_covers_whole_batch_evenly() {
        let d = BatchedDecomposition::stream_k(space(), 6);
        assert!(d.validate().is_ok());
        assert_eq!(d.grid_size(), 6);
        assert!(d.iter_imbalance() <= 1);
        let total: usize = d.ctas().iter().map(CtaWork::len).sum();
        assert_eq!(total, 128);
    }

    #[test]
    fn ctas_cross_instance_boundaries() {
        // 128 iterations over 6 CTAs: ~21.3 each; instance boundary at
        // every 16 iterations — CTAs necessarily straddle them.
        let d = BatchedDecomposition::stream_k(space(), 6);
        let straddles = d.ctas().iter().any(|c| {
            let first_instance = c.iter_begin / 16;
            let last_instance = (c.iter_end - 1) / 16;
            first_instance != last_instance
        });
        assert!(straddles, "no CTA crossed an instance boundary");
    }

    #[test]
    fn fixups_have_unique_owners_and_consecutive_peers() {
        let d = BatchedDecomposition::stream_k(space(), 7);
        let fixups = d.fixups();
        assert_eq!(fixups.len(), 32);
        for f in &fixups {
            for (i, &p) in f.peers.iter().enumerate() {
                assert_eq!(p, f.owner + i + 1);
            }
        }
    }

    #[test]
    fn data_parallel_is_one_cta_per_global_tile() {
        let d = BatchedDecomposition::data_parallel(space());
        assert_eq!(d.grid_size(), 32);
        assert!(d.fixups().iter().all(|f| f.is_data_parallel()));
    }

    #[test]
    fn single_instance_matches_unbatched_stream_k() {
        let shape = GemmShape::new(96, 96, 64);
        let tile = TileShape::new(32, 32, 16);
        let batched = BatchedDecomposition::stream_k(BatchedSpace::new(1, shape, tile), 5);
        let plain = crate::Decomposition::stream_k(shape, tile, 5);
        assert_eq!(batched.ctas(), plain.ctas());
    }

    #[test]
    #[should_panic(expected = "batch must be")]
    fn zero_batch_panics() {
        let _ = BatchedSpace::new(0, GemmShape::new(8, 8, 8), TileShape::new(8, 8, 8));
    }
}
