//! Grouped GEMM execution — one grid, many problem shapes.

use crate::executor::CpuExecutor;
use crate::fixup::FixupBoard;
use crate::output::OwnedTileWriter;
use crate::packcache::mac_loop_instance_cached;
use crate::sched::GridCursor;
use crate::workspace::Workspace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use streamk_core::{GroupedDecomposition, PeerTable};
use streamk_matrix::{Matrix, Promote, Scalar};

impl CpuExecutor {
    /// Computes `C_i = A_i · B_i` for every instance of the group by
    /// executing `decomp`'s single grid. Instances may have unrelated
    /// shapes; they share the blocking factor.
    ///
    /// # Panics
    ///
    /// Panics if the operand counts or shapes don't match the
    /// decomposition, or if the fixup structure needs more co-resident
    /// CTAs than there are workers.
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
        let space = decomp.space();
        assert_eq!(a.len(), space.groups(), "need one A per instance");
        assert_eq!(b.len(), space.groups(), "need one B per instance");
        for (i, inst) in space.instances().iter().enumerate() {
            let shape = inst.shape();
            assert_eq!((a[i].rows(), a[i].cols()), (shape.m, shape.k), "A[{i}] must be m x k");
            assert_eq!((b[i].rows(), b[i].cols()), (shape.k, shape.n), "B[{i}] must be k x n");
        }
        decomp.validate().expect("invalid grouped decomposition");

        let fixups = decomp.fixups();
        let max_covering = fixups.iter().map(|f| f.covering_ctas()).max().unwrap_or(1);
        assert!(
            max_covering <= self.threads(),
            "decomposition needs {max_covering} co-resident CTAs but the executor has {} threads",
            self.threads()
        );
        // Flat CSR peer table — no per-launch Vec-of-Vec cloning.
        let owner_peers = PeerTable::new(decomp.grid_size(), &fixups);

        // One blocking factor for all instances — the shared
        // accumulator size.
        let tile = space.instances()[0].tile();
        // One output per instance, born from its tiles (see
        // `batched.rs`).
        let outputs: Vec<OwnedTileWriter<Acc>> = space
            .instances()
            .iter()
            .enumerate()
            .map(|(i, inst)| OwnedTileWriter::new(a[i].layout(), inst))
            .collect();

        let board = FixupBoard::<Acc>::new(decomp.grid_size());
        let cursor = GridCursor::new(decomp.grid_size());
        let ctas = decomp.ctas();
        let kind = self.kernel();
        // One slot table spanning the instances, each corner keyed by
        // that instance's own iteration space (grouped instances have
        // unrelated shapes), grid-shared. `None` when nothing packs
        // (every operand is read in place), caching is off or the
        // kernel doesn't consume panels; the dispatcher then packs
        // privately.
        let cache = self.launch_pack_cache(
            space.instances().iter().enumerate().map(|(i, inst)| (inst, a[i].view(), b[i].view())),
            1,
        );

        // Round-robin cursor claiming (owners block in
        // `wait_and_take`): the interleave keeps a blocked owner's
        // peers claimed by other workers, which static ranges would
        // not guarantee. A peer no one has claimed yet is waiting for
        // a helper that has not arrived: the launch stays open while
        // the launcher is inside this loop, so it will (see
        // `batched.rs` and DESIGN.md §10).
        let tile_len = tile.blk_m * tile.blk_n;
        let wait_ns = AtomicU64::new(0);
        self.worker_pool().run(&|wid, scratch| {
            // Per-worker arena from the persistent pool's scratch
            // store, warm across launches; the dispatcher handles each
            // instance's layout (packed kernels normalize it, Blocked
            // falls back to scalar when strided).
            let ws = scratch.get_or_insert_with(|| Workspace::<In, Acc>::new(tile_len));
            ws.begin_launch(tile_len);
            while let Some(id) = cursor.claim() {
                let cta = &ctas[id];
                for seg in space.segments(cta) {
                    let inst = &space.instances()[seg.instance];
                    let (av, bv) = (a[seg.instance].view(), b[seg.instance].view());

                    if !seg.starts_tile {
                        let mut partial = ws.take_partial();
                        mac_loop_instance_cached(kind, cache.as_ref(), seg.instance, wid, &av, &bv, inst, seg.local_tile, seg.local_begin, seg.local_end, &mut partial, &mut ws.pack);
                        board
                            .store_and_signal(cta.cta_id, partial)
                            .expect("fault-free grouped schedule");
                        continue;
                    }
                    ws.reset_accum();
                    mac_loop_instance_cached(kind, cache.as_ref(), seg.instance, wid, &av, &bv, inst, seg.local_tile, seg.local_begin, seg.local_end, &mut ws.accum, &mut ws.pack);
                    if !seg.ends_tile {
                        for &peer in owner_peers.peers(cta.cta_id) {
                            let t0 = Instant::now();
                            let partial = board.wait_and_take(peer);
                            wait_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            for (acc, p) in ws.accum.iter_mut().zip(&partial) {
                                *acc += *p;
                            }
                            ws.recycle_partial(partial);
                        }
                    }
                    outputs[seg.instance].writer().store_tile(seg.local_tile, tile.blk_n, &ws.accum);
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
