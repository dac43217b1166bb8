//! Batched GEMM execution — one Stream-K grid across many instances.
//!
//! Executes a [`BatchedDecomposition`]: a single pool of workers
//! processes the batch's aggregate iteration space, crossing instance
//! boundaries exactly as single-GEMM Stream-K crosses tile
//! boundaries. One launch, one consolidation board, regardless of
//! batch size.

use crate::executor::CpuExecutor;
use crate::fixup::FixupBoard;
use crate::output::OwnedTileWriter;
use crate::packcache::mac_loop_instance_cached;
use crate::sched::GridCursor;
use crate::workspace::Workspace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use streamk_core::{BatchedDecomposition, PeerTable};
use streamk_matrix::{Matrix, Promote, Scalar};

impl CpuExecutor {
    /// Computes `C_b = A_b · B_b` for every instance of the batch by
    /// executing `decomp`'s single grid.
    ///
    /// # Panics
    ///
    /// Panics if the operand counts or shapes don't match the
    /// decomposition, or if the fixup structure needs more co-resident
    /// CTAs than there are workers.
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
        let space = decomp.space();
        let instance = space.instance();
        let shape = instance.shape();
        assert_eq!(a.len(), space.batch(), "need one A per instance");
        assert_eq!(b.len(), space.batch(), "need one B per instance");
        for (i, (ai, bi)) in a.iter().zip(b).enumerate() {
            assert_eq!((ai.rows(), ai.cols()), (shape.m, shape.k), "A[{i}] must be m x k");
            assert_eq!((bi.rows(), bi.cols()), (shape.k, shape.n), "B[{i}] must be k x n");
        }
        decomp.validate().expect("invalid batched decomposition");

        let fixups = decomp.fixups();
        let max_covering = fixups.iter().map(|f| f.covering_ctas()).max().unwrap_or(1);
        assert!(
            max_covering <= self.threads(),
            "decomposition needs {max_covering} co-resident CTAs but the executor has {} threads",
            self.threads()
        );
        // Flat CSR peer table — no per-launch Vec-of-Vec cloning.
        let owner_peers = PeerTable::new(decomp.grid_size(), &fixups);

        let tile = instance.tile();
        // One output per instance, born from its tiles: reserved
        // unfilled, each element first written by the worker that
        // computed its tile.
        let outputs: Vec<OwnedTileWriter<Acc>> =
            a.iter().map(|ai| OwnedTileWriter::new(ai.layout(), instance)).collect();

        let board = FixupBoard::<Acc>::new(decomp.grid_size());
        let cursor = GridCursor::new(decomp.grid_size());
        let ctas = decomp.ctas();
        let ipt = space.iters_per_tile();

        let kind = self.kernel();
        // One slot table spanning the instances (they have distinct
        // operands), grid-shared; `None` when nothing packs (every
        // operand is read in place), caching is off or the kernel does
        // not consume panels, and the dispatcher packs privately.
        let cache = self
            .launch_pack_cache((0..space.batch()).map(|i| (instance, a[i].view(), b[i].view())), 1);
        // Round-robin cursor claiming (not the single-GEMM path's
        // static ranges): batched owners *block* in `wait_and_take`,
        // and the round-robin order guarantees a blocked owner's peers
        // are claimed by other workers — already, or as soon as a
        // helper still on its way arrives: the pool keeps the launch
        // open for as long as the launcher (worker 0) is inside this
        // loop, blocked or not, and closes it only once the cursor is
        // drained, when every peer is claimed by a worker that signals
        // before it can block (DESIGN.md §10).
        let tile_len = tile.blk_m * tile.blk_n;
        let wait_ns = AtomicU64::new(0);
        self.worker_pool().run(&|wid, scratch| {
            // Per-worker arena from the persistent pool's scratch
            // store: accumulator, pack panels, and the fixup-partial
            // pool stay warm across segments *and* across launches.
            let ws = scratch.get_or_insert_with(|| Workspace::<In, Acc>::new(tile_len));
            ws.begin_launch(tile_len);
            while let Some(id) = cursor.claim() {
                let cta = &ctas[id];
                // Walk the CTA's global range tile by tile (the
                // batched analogue of Algorithm 5's outer loop).
                let mut iter = cta.iter_begin;
                while iter < cta.iter_end {
                    let global_tile = iter / ipt;
                    let tile_first = global_tile * ipt;
                    let seg_end = cta.iter_end.min(tile_first + ipt);
                    let (instance_idx, local_tile) = space.locate(global_tile);

                    let starts = iter == tile_first;
                    let ends = seg_end == tile_first + ipt;
                    if !starts {
                        let mut partial = ws.take_partial();
                        mac_loop_instance_cached(
                            kind,
                            cache.as_ref(),
                            instance_idx,
                            wid,
                            &a[instance_idx].view(),
                            &b[instance_idx].view(),
                            instance,
                            local_tile,
                            iter - tile_first,
                            seg_end - tile_first,
                            &mut partial,
                            &mut ws.pack,
                        );
                        board
                            .store_and_signal(cta.cta_id, partial)
                            .expect("fault-free batched schedule");
                    } else {
                        ws.reset_accum();
                        mac_loop_instance_cached(
                            kind,
                            cache.as_ref(),
                            instance_idx,
                            wid,
                            &a[instance_idx].view(),
                            &b[instance_idx].view(),
                            instance,
                            local_tile,
                            iter - tile_first,
                            seg_end - tile_first,
                            &mut ws.accum,
                            &mut ws.pack,
                        );
                        if !ends {
                            for &peer in owner_peers.peers(cta.cta_id) {
                                let t0 = Instant::now();
                                let partial = board.wait_and_take(peer);
                                wait_ns.fetch_add(
                                    t0.elapsed().as_nanos() as u64,
                                    Ordering::Relaxed,
                                );
                                for (acc, p) in ws.accum.iter_mut().zip(&partial) {
                                    *acc += *p;
                                }
                                ws.recycle_partial(partial);
                            }
                        }
                        outputs[instance_idx].writer().store_tile(local_tile, tile.blk_n, &ws.accum);
                    }
                    iter = seg_end;
                }
            }
        });
        self.record_stats(0, 0, Duration::from_nanos(wait_ns.load(Ordering::Relaxed)), 0);
        self.retire_pack_cache(cache);
        outputs.iter().map(OwnedTileWriter::take).collect()
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
