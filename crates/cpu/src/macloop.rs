//! The CTA-wide `MacLoop` subroutine (Algorithm 3).
//!
//! Performs a range of MAC-loop iterations for one output tile,
//! accumulating into a `BLK_M × BLK_N` accumulator at accumulator
//! precision. Inputs are promoted per element — the f16 → f32
//! promotion of mixed-precision GEMM happens here, exactly where
//! tensor cores do it.
//!
//! Operands arrive as [`MatrixView`]s, so transposed and strided
//! inputs (the `_nt`/`_tn`/`_tt` GEMM variants) share this one
//! kernel; a fast path covers the row-contiguous case.

use streamk_core::IterSpace;
use streamk_matrix::{MatrixView, Promote, Scalar};

/// Executes local MAC-loop iterations `[local_begin, local_end)` of
/// `tile_idx`, adding into `accum` (a row-major `BLK_M × BLK_N`
/// scratch tile). Operands are logical `m × k` / `k × n` views.
///
/// Edge tiles are clamped to the problem extents; accumulator entries
/// outside the clamped region are left untouched.
///
/// # Panics
///
/// Panics if `accum` is not `BLK_M · BLK_N` long or the local range is
/// out of bounds.
pub fn mac_loop_view<In, Acc>(
    a: &MatrixView<'_, In>,
    b: &MatrixView<'_, In>,
    space: &IterSpace,
    tile_idx: usize,
    local_begin: usize,
    local_end: usize,
    accum: &mut [Acc],
) where
    In: Promote<Acc>,
    Acc: Scalar,
{
    let tile = space.tile();
    assert_eq!(accum.len(), tile.blk_m * tile.blk_n, "accumulator must be BLK_M x BLK_N");
    assert!(local_end <= space.iters_per_tile(), "local range out of bounds");
    let (rows, cols) = space.tile_extents(tile_idx);

    // Fast path: row-contiguous operands let us walk B rows as slices
    // in the inner loop (i-k-j order), the cache-friendly traversal
    // the shared-memory staging of Algorithm 3 emulates.
    if a.rows_contiguous() && b.rows_contiguous() {
        for local in local_begin..local_end {
            let ks = space.k_extents(local);
            for i in rows.clone() {
                let arow = a.row_slice(i);
                let acc_row = &mut accum[(i - rows.start) * tile.blk_n..];
                for k in ks.clone() {
                    let aik = arow[k].promote();
                    let brow = &b.row_slice(k)[cols.clone()];
                    for (acc, &bkj) in acc_row.iter_mut().zip(brow) {
                        *acc = acc.mac(aik, bkj.promote());
                    }
                }
            }
        }
        return;
    }

    // Generic path for any stride combination.
    for local in local_begin..local_end {
        let ks = space.k_extents(local);
        for i in rows.clone() {
            for k in ks.clone() {
                let aik = a.get(i, k).promote();
                for j in cols.clone() {
                    let idx = (i - rows.start) * tile.blk_n + (j - cols.start);
                    accum[idx] = accum[idx].mac(aik, b.get(k, j).promote());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_matrix::reference::gemm_naive;
    use streamk_matrix::Matrix;
    use streamk_types::{GemmShape, Layout, TileShape};

    fn space(shape: GemmShape, tile: TileShape) -> IterSpace {
        IterSpace::new(shape, tile)
    }

    #[test]
    fn full_tile_matches_reference() {
        let shape = GemmShape::new(8, 8, 12);
        let tile = TileShape::new(8, 8, 4);
        let s = space(shape, tile);
        let a = Matrix::<f64>::random::<f64>(8, 12, Layout::RowMajor, 1);
        let b = Matrix::<f64>::random::<f64>(12, 8, Layout::RowMajor, 2);
        let mut accum = vec![0.0f64; 64];
        mac_loop_view(&a.view(), &b.view(), &s, 0, 0, s.iters_per_tile(), &mut accum);
        let reference = gemm_naive::<f64, f64>(&a, &b);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(accum[i * 8 + j], reference.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn split_ranges_sum_to_whole() {
        // Accumulating [0,2) then [2,5) must equal [0,5) exactly
        // (same order, same arithmetic).
        let shape = GemmShape::new(4, 4, 20);
        let tile = TileShape::new(4, 4, 4);
        let s = space(shape, tile);
        let a = Matrix::<f64>::random::<f64>(4, 20, Layout::RowMajor, 3);
        let b = Matrix::<f64>::random::<f64>(20, 4, Layout::RowMajor, 4);
        let mut whole = vec![0.0f64; 16];
        mac_loop_view(&a.view(), &b.view(), &s, 0, 0, 5, &mut whole);
        let mut parts = vec![0.0f64; 16];
        mac_loop_view(&a.view(), &b.view(), &s, 0, 0, 2, &mut parts);
        mac_loop_view(&a.view(), &b.view(), &s, 0, 2, 5, &mut parts);
        assert_eq!(whole, parts);
    }

    #[test]
    fn edge_tile_clamps() {
        // 10x6 output with 8x8 tiles: 2x1 tile grid; tile 1 covers
        // rows 8..10, cols 0..6.
        let shape = GemmShape::new(10, 6, 4);
        let tile = TileShape::new(8, 8, 4);
        let s = space(shape, tile);
        assert_eq!(s.tiles(), 2);
        let a = Matrix::<f64>::random::<f64>(10, 4, Layout::RowMajor, 5);
        let b = Matrix::<f64>::random::<f64>(4, 6, Layout::RowMajor, 6);
        let mut accum = vec![0.0f64; 64];
        mac_loop_view(&a.view(), &b.view(), &s, 1, 0, 1, &mut accum);
        let reference = gemm_naive::<f64, f64>(&a, &b);
        for i in 0..2 {
            for j in 0..6 {
                assert_eq!(accum[i * 8 + j], reference.get(8 + i, j));
            }
        }
        // Outside the clamped region the accumulator is untouched.
        assert_eq!(accum[2 * 8], 0.0);
        assert_eq!(accum[7], 0.0);
    }

    #[test]
    fn generic_path_matches_fast_path() {
        let shape = GemmShape::new(16, 12, 24);
        let tile = TileShape::new(8, 8, 8);
        let s = space(shape, tile);
        let a_r = Matrix::<f64>::random::<f64>(16, 24, Layout::RowMajor, 7);
        let b_r = Matrix::<f64>::random::<f64>(24, 12, Layout::RowMajor, 8);
        let a_c = a_r.to_layout(Layout::ColMajor);
        let b_c = b_r.to_layout(Layout::ColMajor);
        for tile_idx in 0..s.tiles() {
            let mut fast = vec![0.0f64; 64];
            let mut generic = vec![0.0f64; 64];
            mac_loop_view(&a_r.view(), &b_r.view(), &s, tile_idx, 0, s.iters_per_tile(), &mut fast);
            mac_loop_view(&a_c.view(), &b_c.view(), &s, tile_idx, 0, s.iters_per_tile(), &mut generic);
            assert_eq!(fast, generic, "tile {tile_idx}");
        }
    }

    #[test]
    fn transposed_views_match_materialized_transpose() {
        let shape = GemmShape::new(12, 10, 14);
        let tile = TileShape::new(8, 8, 8);
        let s = space(shape, tile);
        // A stored as kxm, B stored as nxk; use transposed views.
        let a_store = Matrix::<f64>::random::<f64>(14, 12, Layout::RowMajor, 9);
        let b_store = Matrix::<f64>::random::<f64>(10, 14, Layout::RowMajor, 10);
        let a_mat = a_store.transposed();
        let b_mat = b_store.transposed();
        for tile_idx in 0..s.tiles() {
            let mut via_views = vec![0.0f64; 64];
            let mut via_copies = vec![0.0f64; 64];
            mac_loop_view(&a_store.t(), &b_store.t(), &s, tile_idx, 0, s.iters_per_tile(), &mut via_views);
            mac_loop_view(&a_mat.view(), &b_mat.view(), &s, tile_idx, 0, s.iters_per_tile(), &mut via_copies);
            assert_eq!(via_views, via_copies, "tile {tile_idx}");
        }
    }

    #[test]
    fn mixed_precision_promotes_before_accumulating() {
        use streamk_matrix::f16;
        let shape = GemmShape::new(4, 4, 8);
        let tile = TileShape::new(4, 4, 4);
        let s = space(shape, tile);
        let a = Matrix::<f16>::patterned::<f32>(4, 8, Layout::RowMajor);
        let b = Matrix::<f16>::patterned::<f32>(8, 4, Layout::RowMajor);
        let mut accum = vec![0.0f32; 16];
        mac_loop_view(&a.view(), &b.view(), &s, 0, 0, 2, &mut accum);
        let reference = gemm_naive::<f16, f32>(&a, &b);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(accum[i * 4 + j], reference.get(i, j));
            }
        }
    }

    #[test]
    #[should_panic(expected = "accumulator")]
    fn wrong_accumulator_size_panics() {
        let shape = GemmShape::new(8, 8, 8);
        let tile = TileShape::new(8, 8, 8);
        let s = space(shape, tile);
        let a = Matrix::<f64>::zeros(8, 8, Layout::RowMajor);
        let b = Matrix::<f64>::zeros(8, 8, Layout::RowMajor);
        let mut accum = vec![0.0f64; 10];
        mac_loop_view(&a.view(), &b.view(), &s, 0, 0, 1, &mut accum);
    }
}
