//! Criterion benches of the inner kernels: the scalar `MacLoop`
//! against the register block (packed, read in place, and on its own),
//! the strided (generic) path, and the tile epilogue.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use streamk_core::IterSpace;
use streamk_cpu::{
    mac_loop_kernel, mac_loop_kernel_cached, macloop::mac_loop_view,
    output::store_every_tile,
    simd::{simd_block, Strided},
    KernelKind, PackBuffers, PackCache, SimdLevel, WaitPolicy,
};
use streamk_matrix::{Matrix, MatrixView, Promote, Scalar};
use streamk_types::{GemmShape, Layout, TileShape};

fn inner_kernels(c: &mut Criterion) {
    let shape = GemmShape::new(64, 64, 512);
    let tile = TileShape::new(64, 64, 16); // 1 tile x 32 iterations
    let space = IterSpace::new(shape, tile);
    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, 1);
    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, 2);
    let a_t = a.to_layout(Layout::ColMajor);
    let b_t = b.to_layout(Layout::ColMajor);
    let iters = space.iters_per_tile();

    let mut group = c.benchmark_group("inner_kernels_64x64x512_f64");
    group.sample_size(30);
    group.bench_function("scalar_contiguous", |bencher| {
        let mut accum = vec![0.0f64; tile.blk_m * tile.blk_n];
        bencher.iter(|| {
            accum.fill(0.0);
            mac_loop_view(&a.view(), &b.view(), &space, 0, 0, iters, black_box(&mut accum));
        });
    });
    group.bench_function("block", |bencher| {
        let mut accum = vec![0.0f64; tile.blk_m * tile.blk_n];
        let mut bufs = PackBuffers::new();
        bencher.iter(|| {
            accum.fill(0.0);
            mac_loop_kernel(KernelKind::Block, &a.view(), &b.view(), &space, 0, 0, iters, black_box(&mut accum), &mut bufs);
        });
    });
    group.bench_function("scalar_strided", |bencher| {
        let mut accum = vec![0.0f64; tile.blk_m * tile.blk_n];
        bencher.iter(|| {
            accum.fill(0.0);
            mac_loop_view(&a_t.view(), &b_t.view(), &space, 0, 0, iters, black_box(&mut accum));
        });
    });
    group.bench_function("block_strided", |bencher| {
        // Packing normalizes layout: the strided penalty is paid once
        // per operand element, not once per MAC.
        let mut accum = vec![0.0f64; tile.blk_m * tile.blk_n];
        let mut bufs = PackBuffers::new();
        bencher.iter(|| {
            accum.fill(0.0);
            mac_loop_kernel(
                KernelKind::Block,
                &a_t.view(),
                &b_t.view(),
                &space,
                0,
                0,
                iters,
                black_box(&mut accum),
                &mut bufs,
            );
        });
    });
    group.finish();
}

/// What the copy costs where a packed element is reused only a few
/// dozen times: every 32×32 tile of a service-sized f32 problem through
/// the default kernel, once always packing privately per tile
/// (`mac_loop_kernel`, how the service ran every request before
/// operands were read in place) and once through the source rule with
/// no cache (`mac_loop_kernel_cached`), which reads a row-major A and
/// a row-major B this narrow where they lie. 128 and 512 columns put
/// B's k-stride at 512 B and at the 2 KiB limit; wider B is packed by
/// both, so there is nothing to compare.
fn in_place_vs_packed_f32(c: &mut Criterion) {
    let kind = KernelKind::default();
    let tile = TileShape::new(32, 32, 16);
    let mut group = c.benchmark_group("in_place_vs_packed_32x32_tiles_f32");
    group.sample_size(30);
    for n in [128, 512] {
        let shape = GemmShape::new(64, n, 256);
        let space = IterSpace::new(shape, tile);
        let a = Matrix::<f32>::random::<f32>(shape.m, shape.k, Layout::RowMajor, 5);
        let b = Matrix::<f32>::random::<f32>(shape.k, shape.n, Layout::RowMajor, 6);
        let iters = space.iters_per_tile();
        group.bench_function(&format!("packed_n{n}"), |bencher| {
            let mut accum = vec![0.0f32; tile.blk_m * tile.blk_n];
            let mut bufs = PackBuffers::new();
            bencher.iter(|| {
                for t in 0..space.tiles() {
                    accum.fill(0.0);
                    mac_loop_kernel(kind, &a.view(), &b.view(), &space, t, 0, iters, black_box(&mut accum), &mut bufs);
                }
            });
        });
        group.bench_function(&format!("in_place_n{n}"), |bencher| {
            let mut accum = vec![0.0f32; tile.blk_m * tile.blk_n];
            let mut bufs = PackBuffers::new();
            bencher.iter(|| {
                for t in 0..space.tiles() {
                    accum.fill(0.0);
                    mac_loop_kernel_cached(
                        kind, None, 0, &a.view(), &b.view(), &space, t, 0, iters, black_box(&mut accum), &mut bufs,
                    );
                }
            });
        });
    }
    group.finish();
}

/// What split loads cost a B read in place: one warm deep-k tile
/// (64×192×8192 f32, the default 8×32 block, A row-major and read in
/// place) with B's rows 768 bytes apart — twelve whole lines — starting
/// on a line (`b_on_lines`, what every allocating constructor gives
/// since storage is line-aligned), 16 bytes off it (`b_16b_off`, what
/// a 16-byte aligned allocation gave: every 64-byte load of a B row
/// spans two lines), and column-major so that it is packed, with the
/// chunks already in the cache (`b_packed`). 0.201 GFLOP per
/// iteration: GF/s = 0.201 / (s/iter). DESIGN.md §8 "Storage starts on
/// a line" has the numbers.
fn in_place_alignment(c: &mut Criterion) {
    let kind = KernelKind::default();
    let shape = GemmShape::new(64, 192, 8192);
    let tile = TileShape::new(64, 192, 32);
    let space = IterSpace::new(shape, tile);
    let iters = space.iters_per_tile();
    let a = Matrix::<f32>::random::<f32>(shape.m, shape.k, Layout::RowMajor, 7);
    // One spare line in front of B's elements: views at offsets 16 and
    // 4 are B on a line and B 16 bytes off it.
    let stored = Matrix::<f32>::random::<f32>(shape.k + 1, shape.n, Layout::RowMajor, 8);
    let at = |offset: usize| MatrixView::from_parts(&stored.as_slice()[offset..], shape.k, shape.n, shape.n, 1);
    let b_col = at(16).to_matrix().to_layout(Layout::ColMajor);
    let cache = PackCache::for_kernel(&space, kind, WaitPolicy::default());

    let mut group = c.benchmark_group("in_place_alignment");
    group.sample_size(15);
    for (id, b, cache) in [
        ("b_on_lines", at(16), None),
        ("b_16b_off", at(4), None),
        ("b_packed", b_col.view(), cache.as_ref()),
    ] {
        group.bench_function(id, |bencher| {
            let mut accum = vec![0.0f32; tile.blk_m * tile.blk_n];
            let mut bufs = PackBuffers::new();
            let mut run = |accum: &mut [f32]| {
                accum.fill(0.0);
                mac_loop_kernel_cached(kind, cache, 0, &a.view(), &b, &space, 0, 0, iters, black_box(accum), &mut bufs);
            };
            run(&mut accum); // warm: the packed cell's chunks are in the cache from here on
            bencher.iter(|| run(&mut accum));
        });
    }
    group.finish();
}

/// The register block on its own: the host's vector block
/// ([`simd_block`]) at each element type's shape (8 × 32 over f32,
/// 8 × 16 over f64) over one pair of packed panels, at a k-depth whose
/// panels stay in L1 (`kc64`) and at the pack cache's chunk depth
/// (`kc1024`: 160–320 KiB of panels, streamed from L2 on every call).
/// Every cell runs 2²⁵ MACs per iteration, so GF/s = 0.0671 / (s/iter).
/// This is the MAC ceiling the tile and executor figures sit under —
/// EXPERIMENTS.md "One fused MAC" has the table, with the parent
/// commit's multiply-then-add block measured by this same group.
fn register_block(c: &mut Criterion) {
    const MACS: usize = 1 << 25;
    fn cells<T: Promote<T> + Scalar, const MR: usize, const NR: usize>(
        group: &mut criterion::BenchmarkGroup<'_>,
        ty: &str,
    ) {
        let level = SimdLevel::detect();
        for kc in [64usize, 1024] {
            let id = format!("{ty}_{MR}x{NR}_kc{kc}");
            let panel = |lanes: usize, seed: usize| -> Vec<T> {
                (0..lanes * kc).map(|i| T::from_f64(((i * 37 + seed) % 61) as f64 / 61.0 - 0.5)).collect()
            };
            let (a, b) = (panel(MR, 1), panel(NR, 2));
            let mut acc = vec![T::ZERO; MR * NR];
            let mut block =
                || simd_block::<T, T, MR, NR>(level, Strided::packed(&a, MR), Strided::packed(&b, NR), kc, &mut acc, NR);
            if !block() {
                println!("  {id:<32} (no vector block at level {level})");
                continue;
            }
            group.bench_function(&id, |bencher| {
                bencher.iter(|| {
                    for _ in 0..MACS / (MR * NR * kc) {
                        black_box(block());
                    }
                });
            });
        }
    }
    let mut group = c.benchmark_group("register_block");
    group.sample_size(15);
    cells::<f32, 8, 32>(&mut group, "f32");
    cells::<f64, 8, 16>(&mut group, "f64");
    group.finish();
}

/// The tile epilogue on its own (`StoreTile`, the step every tile of
/// every schedule pays): all 64 or 16 tiles of a cache-resident
/// 256×256 output stored from one warm accumulator tile, so a figure
/// divided by the tile count is one tile's store. β = 0 writes
/// `α·acc`; β = 1 also reads C. Row-major destinations take a tile
/// row per run, column-major ones a tile column fed by a strided read
/// of the accumulator.
fn epilogue(c: &mut Criterion) {
    fn cells<T: streamk_matrix::Scalar>(c: &mut Criterion, ty: &str) {
        let mut group = c.benchmark_group(&format!("epilogue_256x256_{ty}"));
        group.sample_size(30);
        for blk in [32, 64] {
            let space = IterSpace::new(GemmShape::new(256, 256, 16), TileShape::new(blk, blk, 16));
            let accum: Vec<T> = (0..blk * blk).map(|i| T::from_f64(i as f64 * 0.25)).collect();
            for (layout, tag) in [(Layout::RowMajor, "row"), (Layout::ColMajor, "col")] {
                for beta in [T::ZERO, T::ONE] {
                    let mut out = Matrix::<T>::zeros(256, 256, layout);
                    group.bench_function(&format!("tile{blk}_{tag}_beta{}", beta.to_f64()), |bencher| {
                        bencher.iter(|| {
                            store_every_tile(black_box(&mut out), &space, black_box(&accum), T::ONE, beta);
                        });
                    });
                }
            }
        }
        group.finish();
    }
    cells::<f32>(c, "f32");
    cells::<f64>(c, "f64");
}

criterion_group!(
    benches,
    inner_kernels,
    in_place_vs_packed_f32,
    in_place_alignment,
    register_block,
    epilogue
);
criterion_main!(benches);
