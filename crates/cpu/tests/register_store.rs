//! Whole tiles are stored from the register block.
//!
//! A segment that starts and ends its tile, into an output stored by
//! rows in the engine's orientation at `β = 0`, keeps its sums in the
//! tile's own elements of C: they start at +0.0 on the first k-chunk
//! (C is never read before the first write), stay in C across chunk
//! seams, and take `α` in registers as the last chunk is stored. Split
//! tiles, column-major runs and `β ≠ 0` go through a workspace tile,
//! which also starts at zero on its first chunk.
//!
//! The oracle is the `KernelKind::Scalar` launch of the same
//! decomposition, which consumes no panels and always stores through a
//! workspace tile; every launch here must equal it, `==` on every bit,
//! in f32 and f64: `gemm` (an owned output), `gemm_ex` at `α = 1.5`,
//! `β = 0` into a NaN-filled C, a service request, a group, and the two
//! launches that must keep the workspace tile — `β ≠ 0`, and a launch
//! that runs transposed into a row-major C, whose engine-side output is
//! column-major. Tiles span three 1024-k chunks (`k = 2·1024 + 48`),
//! with ragged m and n edges, under a data-parallel grid (every tile
//! whole) and a Stream-K grid (whole tiles beside split ones).

use streamk_core::{Decomposition, GroupedDecomposition, GroupedSpace};
use streamk_cpu::{CpuExecutor, GemmService, KernelKind, LaunchRequest, ServeConfig};
use streamk_matrix::{Matrix, Promote, Scalar};
use streamk_types::{GemmShape, Layout, TileShape};

/// Three k-chunks of 64 iterations, 64, then 3; two tile rows and two
/// tile columns, the last of each ragged for both register blocks
/// (8 × 32 over f32, 8 × 16 over f64).
const SHAPE: GemmShape = GemmShape { m: 43, n: 37, k: 2 * 1024 + 48 };
const TILE: TileShape = TileShape { blk_m: 32, blk_n: 32, blk_k: 16 };

/// C's elements in row-major order, as bits.
fn bits<T: Scalar>(c: &Matrix<T>) -> Vec<u64> {
    (0..c.rows())
        .flat_map(|r| (0..c.cols()).map(move |col| (r, col)))
        .map(|(r, col)| c.get(r, col).to_f64().to_bits())
        .collect()
}

fn grids() -> [(&'static str, Decomposition); 2] {
    // Three CTAs over 4 tiles of 131 iterations: CTA 0 runs tile 0 whole
    // and starts tile 1, CTA 2 ends tile 2 and runs tile 3 whole.
    [
        ("data-parallel", Decomposition::data_parallel(SHAPE, TILE)),
        ("stream-k", Decomposition::stream_k(SHAPE, TILE, 3)),
    ]
}

fn check<T: Scalar + Promote<T>>() {
    let (block, scalar) = (CpuExecutor::with_threads(2), CpuExecutor::with_threads(2).with_kernel(KernelKind::Scalar));
    let (m, n, k) = (SHAPE.m, SHAPE.n, SHAPE.k);
    let a = Matrix::<T>::random::<T>(m, k, Layout::RowMajor, 1);
    let b = Matrix::<T>::random::<T>(k, n, Layout::RowMajor, 2);
    let (alpha, half) = (T::from_f64(1.5), T::from_f64(0.5));
    for (grid, decomp) in grids() {
        let what = |entry: &str| format!("{entry}, {grid} grid, {}-byte elements", size_of::<T>());

        let want = scalar.gemm::<T, T>(&a, &b, &decomp);
        assert!(bits(&block.gemm::<T, T>(&a, &b, &decomp)) == bits(&want), "{}", what("gemm"));

        // α in registers, C never read.
        let nan = || Matrix::from_fn(m, n, Layout::RowMajor, |_, _| T::from_f64(f64::NAN));
        let (mut got, mut want) = (nan(), nan());
        block.gemm_ex(alpha, &a.view(), &b.view(), T::ZERO, &mut got, &decomp);
        scalar.gemm_ex(alpha, &a.view(), &b.view(), T::ZERO, &mut want, &decomp);
        assert!(bits(&got) == bits(&want), "{}", what("gemm_ex α = 1.5 β = 0"));

        // β ≠ 0 reads C: the workspace tile and the blend.
        let c0 = Matrix::<T>::random::<T>(m, n, Layout::RowMajor, 3);
        let (mut got, mut want) = (c0.clone(), c0);
        block.gemm_ex(alpha, &a.view(), &b.view(), half, &mut got, &decomp);
        scalar.gemm_ex(alpha, &a.view(), &b.view(), half, &mut want, &decomp);
        assert!(bits(&got) == bits(&want), "{}", what("gemm_ex β = 0.5"));

        // A and B as `.t()` of row-major storage: run as called B would
        // pack, run transposed nothing does, so the launch stores `Cᵀ`
        // by columns over the row-major C — a column-major run.
        let (at, bt) = (a.transposed(), b.transposed());
        let fresh = CpuExecutor::with_threads(2);
        let (mut got, mut want) = (nan(), nan());
        fresh.gemm_ex(alpha, &at.t(), &bt.t(), T::ZERO, &mut got, &decomp);
        assert_eq!(
            fresh.pack_arena_stats::<T>().consumed_bytes,
            0,
            "{}",
            what("a launch run transposed packs nothing")
        );
        scalar.gemm_ex(alpha, &a.view(), &b.view(), T::ZERO, &mut want, &decomp);
        assert!(bits(&got) == bits(&want), "{}", what("transposed gemm_ex"));

        let service = GemmService::<T, T>::start(&block, ServeConfig::default());
        let request = LaunchRequest::new(a.clone(), b.clone(), decomp.clone());
        let (served, _) = service.submit(request).expect("admitted").wait().expect("request completes");
        let _ = service.shutdown();
        assert!(bits(&served) == bits(&scalar.gemm::<T, T>(&a, &b, &decomp)), "{}", what("service request"));
    }

    // A group: the shape and its transpose under one Stream-K grid.
    let other = GemmShape::new(n, m, k);
    let group = GroupedDecomposition::stream_k(GroupedSpace::new(&[SHAPE, other], TILE), 3);
    let (a2, b2) =
        (Matrix::<T>::random::<T>(n, k, Layout::RowMajor, 4), Matrix::<T>::random::<T>(k, m, Layout::RowMajor, 5));
    let (lhs, rhs) = ([a.clone(), a2], [b.clone(), b2]);
    let got = block.gemm_grouped::<T, T>(&lhs, &rhs, &group);
    let want = scalar.gemm_grouped::<T, T>(&lhs, &rhs, &group);
    for (got, want) in got.iter().zip(&want) {
        assert!(bits(got) == bits(want), "gemm_grouped, {}-byte elements", size_of::<T>());
    }
}

#[test]
fn whole_tiles_stored_from_the_register_block_match_the_scalar_launch_f32() {
    check::<f32>();
}

#[test]
fn whole_tiles_stored_from_the_register_block_match_the_scalar_launch_f64() {
    check::<f64>();
}
