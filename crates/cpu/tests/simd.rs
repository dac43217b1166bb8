//! Operand-source and pack-cache property suite.
//!
//! The register block — vector or portable — promises the scalar MAC
//! loop's contract: each output element accumulates in ascending-k
//! order with one *fused* multiply-add per MAC, so its results are
//! bit-identical to the scalar MAC loop — in f64, f32 and f16 → f32,
//! wherever the operands are read from (in place, a private pack, the
//! shared cache), at every geometry the `geometry` harness drives it
//! at, fault-free or mid-recovery — and the
//! scalar MAC loop is bit-identical to a `mul_add` chain written here,
//! outside [`Scalar::mac`], on data where a `c + a * b` chain is not.
//! These properties pin that — including on shapes deep enough that the
//! cache's k-chunk walk crosses chunk seams mid-segment — plus the
//! [`PackCache`] claim/publish invariant: with far more peers than
//! chunk slots, each chunk is packed exactly once and every reader
//! sees bytes identical to a private pack.

mod geometry;

use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use std::time::Duration;
use streamk_core::{Decomposition, IterSpace, Strategy};
use streamk_cpu::macloop::mac_loop_view;
use streamk_cpu::{
    mac_loop_kernel, mac_loop_kernel_cached, CpuExecutor, FaultKind, FaultPlan, KernelKind,
    PackBuffers, PackCache, WaitPolicy,
};
use streamk_matrix::{
    f16, gemm_ex_reference, pack_a_into, pack_b_into, Matrix, MatrixView, Promote, Scalar,
};
use streamk_types::{GemmShape, Layout, TileShape};

const THREADS: usize = 8;

fn operands64(shape: GemmShape, layout: Layout) -> (Matrix<f64>, Matrix<f64>) {
    let seed = ((shape.m * 73 + shape.n) * 37 + shape.k) as u64;
    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, layout, seed);
    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, layout, seed + 1);
    (a, b)
}

fn shapes() -> impl proptest::strategy::Strategy<Value = GemmShape> {
    (5usize..70, 5usize..70, 8usize..120).prop_map(|(m, n, k)| GemmShape::new(m, n, k))
}

fn tiles() -> impl proptest::strategy::Strategy<Value = TileShape> {
    prop_oneof![
        Just(TileShape::new(16, 16, 8)),
        Just(TileShape::new(32, 32, 16)),
        Just(TileShape::new(8, 32, 4)),
        // Deliberately unaligned to every SIMD MR/NR — forces the
        // zero-padded ragged lanes through the vector kernels.
        Just(TileShape::new(13, 11, 5)),
        Just(TileShape::new(9, 17, 3)),
    ]
}

fn layouts() -> impl proptest::strategy::Strategy<Value = Layout> {
    prop_oneof![Just(Layout::RowMajor), Just(Layout::ColMajor)]
}

/// K-steps per pack-cache chunk at `tile`: the cache's chunk-length
/// constant rounded to whole `blk_k` iterations.
fn chunk_k(tile: TileShape) -> usize {
    let probe = IterSpace::new(GemmShape::new(tile.blk_m, tile.blk_n, tile.blk_k), tile);
    PackCache::<f64>::new(&probe, 8, 8, WaitPolicy::default()).chunk_k()
}

/// A shape two to three cache chunks deep at `tile` and a couple of
/// tiles wide. `k_extra` is arbitrary, so k is a multiple of neither
/// the chunk nor `blk_k` except by accident.
fn deep_shape(m: usize, n: usize, k_extra: usize, tile: TileShape) -> GemmShape {
    GemmShape::new(m, n, chunk_k(tile) + k_extra)
}

/// How a logical `rows × cols` operand is stored and viewed. Which of
/// these the dispatcher reads in place and which it packs is the
/// source rule's business (DESIGN.md §8); the results may not differ.
#[derive(Debug, Clone, Copy)]
enum Presented {
    RowMajor,
    ColMajor,
    /// The `.t()` of a row-major `cols × rows` matrix.
    Transposed,
    /// A `submatrix` window at a non-zero origin of a row-major parent
    /// `pad` columns wider than the window and, unless `to_the_end`,
    /// two rows taller — `to_the_end` puts the window's last entry on
    /// the allocation's last element, where reading one lane too many
    /// has nowhere to land. A `pad` of several hundred puts the
    /// k-stride of a B window past what is read in place.
    Window { pad: usize, to_the_end: bool },
}

impl Presented {
    /// The stored matrix behind a logical `rows × cols` operand.
    fn store<T: Promote<Acc>, Acc: Scalar>(self, rows: usize, cols: usize, seed: u64) -> Matrix<T> {
        let (r, c, layout) = match self {
            Presented::RowMajor => (rows, cols, Layout::RowMajor),
            Presented::ColMajor => (rows, cols, Layout::ColMajor),
            Presented::Transposed => (cols, rows, Layout::RowMajor),
            Presented::Window { pad, to_the_end } => {
                (rows + if to_the_end { 1 } else { 3 }, cols + 2 + pad, Layout::RowMajor)
            }
        };
        Matrix::<T>::random::<Acc>(r, c, layout, seed)
    }

    fn view<T: Copy + Default>(self, stored: &Matrix<T>, rows: usize, cols: usize) -> MatrixView<'_, T> {
        match self {
            Presented::RowMajor | Presented::ColMajor => stored.view(),
            Presented::Transposed => stored.t(),
            Presented::Window { pad, .. } => stored.view().submatrix(1..1 + rows, 2 + pad..2 + pad + cols),
        }
    }
}

fn presentations() -> impl proptest::strategy::Strategy<Value = Presented> {
    prop_oneof![
        Just(Presented::RowMajor),
        Just(Presented::ColMajor),
        Just(Presented::Transposed),
        (prop_oneof![Just(0usize), Just(3), Just(600)], 0usize..2)
            .prop_map(|(pad, end)| Presented::Window { pad, to_the_end: end == 1 }),
    ]
}

/// The arithmetic contract written from outside [`Scalar::mac`]: one
/// step of an accumulation chain, either the element type's own
/// `mul_add` (`fused`, the contract) or `c + a * b` (what it replaced).
trait Chain: Scalar {
    fn step(self, a: Self, b: Self, fused: bool) -> Self;
}

impl Chain for f64 {
    fn step(self, a: f64, b: f64, fused: bool) -> f64 {
        if fused { f64::mul_add(a, b, self) } else { self + a * b }
    }
}

impl Chain for f32 {
    fn step(self, a: f32, b: f32, fused: bool) -> f32 {
        if fused { f32::mul_add(a, b, self) } else { self + a * b }
    }
}

/// Ascending-k chains over `ks` for the `rows × cols` window of
/// `a · b`, row-major at row stride `stride`, from zero.
fn oracle<In: Promote<Acc>, Acc: Chain>(
    a: &MatrixView<'_, In>,
    b: &MatrixView<'_, In>,
    (rows, cols): (std::ops::Range<usize>, std::ops::Range<usize>),
    ks: std::ops::Range<usize>,
    (stride, len): (usize, usize),
    fused: bool,
) -> Vec<Acc> {
    let mut out = vec![Acc::ZERO; len];
    for i in rows.clone() {
        for j in cols.clone() {
            let acc = &mut out[(i - rows.start) * stride + (j - cols.start)];
            for k in ks.clone() {
                *acc = acc.step(a.get(i, k).promote(), b.get(k, j).promote(), fused);
            }
        }
    }
    out
}

/// One tile segment through the register block three ways — always
/// packed ([`mac_loop_kernel`]), the source rule with no cache (the
/// service's path) and with one (the executors') — and through the
/// `geometry` harness at every tested block shape, against the scalar
/// MAC loop, for one element type; and the scalar MAC loop and
/// [`gemm_ex_reference`] against the `mul_add` [`oracle`] (and, for a
/// segment over all of k, against each other element by element). With
/// `rounds` (products of this `In` do not fit `Acc`: not f16 → f32)
/// the `c + a * b` oracle must give other bits on the same operands.
#[allow(clippy::too_many_arguments)]
fn sources_agree<In, Acc>(
    shape: GemmShape,
    tile: TileShape,
    (pa, pb): (Presented, Presented),
    tile_sel: usize,
    range_sel: (usize, usize),
    rounds: bool,
) -> Result<(), TestCaseError>
where
    In: Promote<Acc>,
    Acc: Chain,
{
    let space = IterSpace::new(shape, tile);
    let seed = ((shape.m * 73 + shape.n) * 37 + shape.k) as u64;
    let a_store = pa.store::<In, Acc>(shape.m, shape.k, seed);
    let b_store = pb.store::<In, Acc>(shape.k, shape.n, seed + 1);
    let (a, b) = (pa.view(&a_store, shape.m, shape.k), pb.view(&b_store, shape.k, shape.n));
    let tile_idx = tile_sel % space.tiles();
    let ipt = space.iters_per_tile();
    let (mut lo, mut hi) = (range_sel.0 % (ipt + 1), range_sel.1 % (ipt + 1));
    if lo > hi {
        std::mem::swap(&mut lo, &mut hi);
    }

    let len = tile.blk_m * tile.blk_n;
    let mut reference = vec![Acc::ZERO; len];
    mac_loop_view(&a, &b, &space, tile_idx, lo, hi, &mut reference);
    let ks = if lo < hi { space.k_extents(lo).start..space.k_extents(hi - 1).end } else { 0..0 };
    let fused = oracle::<In, Acc>(&a, &b, space.tile_extents(tile_idx), ks, (tile.blk_n, len), true);
    prop_assert!(reference == fused, "mac_loop_view is not the mul_add chain: {shape} {tile} {pa:?} x {pb:?}");

    let whole = |fused| {
        oracle::<In, Acc>(&a, &b, (0..shape.m, 0..shape.n), 0..shape.k, (shape.n, shape.m * shape.n), fused)
    };
    let mut c = Matrix::<Acc>::zeros(shape.m, shape.n, Layout::RowMajor);
    gemm_ex_reference(Acc::ONE, &a, &b, Acc::ZERO, &mut c);
    prop_assert!(c.as_slice() == whole(true), "gemm_ex_reference is not the mul_add chain: {shape} {pa:?} x {pb:?}");
    if rounds {
        prop_assert!(c.as_slice() != whole(false), "operands cannot tell fused from unfused: {shape}");
    }

    // A segment over all of k is the tile of C itself (α = 1, β = 0).
    if (lo, hi) == (0, ipt) {
        let (rows, cols) = space.tile_extents(tile_idx);
        for (i, r) in rows.enumerate() {
            for (j, col) in cols.clone().enumerate() {
                prop_assert!(reference[i * tile.blk_n + j] == c.get(r, col), "tile {tile_idx} is not gemm_ex_reference's ({r},{col})");
            }
        }
    }

    let mut bufs = PackBuffers::new();
    let kind = KernelKind::Block;
    let what = format!("{shape} {tile} {pa:?} x {pb:?} tile {tile_idx} [{lo},{hi})");
    let mut packed = vec![Acc::ZERO; len];
    mac_loop_kernel(kind, &a, &b, &space, tile_idx, lo, hi, &mut packed, &mut bufs);
    prop_assert!(packed == reference, "packed diverged: {what}");
    let cache = PackCache::for_kernel(&space, kind, WaitPolicy::default());
    for cache in [None, cache.as_ref()] {
        let mut got = vec![Acc::ZERO; len];
        mac_loop_kernel_cached(kind, cache, 0, &a, &b, &space, tile_idx, lo, hi, &mut got, &mut bufs);
        prop_assert!(got == reference, "source rule (cache: {}) diverged: {what}", cache.is_some());
    }
    geometry::every_geometry_agrees(&a, &b, &space, tile_idx, (lo, hi), &reference)
        .map_err(|e| TestCaseError::Fail(format!("{e}: {pa:?} x {pb:?}")))
}

fn strategies() -> impl proptest::strategy::Strategy<Value = Strategy> {
    prop_oneof![
        Just(Strategy::DataParallel),
        (2usize..4).prop_map(|split| Strategy::FixedSplit { split }),
        (2usize..7).prop_map(|grid| Strategy::StreamK { grid }),
        (2usize..5).prop_map(|sms| Strategy::DpOneTileStreamK { sms }),
        (2usize..5).prop_map(|sms| Strategy::TwoTileStreamKDp { sms }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Wherever an operand is read from — in place, a private pack, a
    /// cache chunk — the register block, at the library's geometry and
    /// every tested one, agrees bit for bit with the scalar MAC loop, and the scalar MAC loop with a
    /// `mul_add` chain written in this file: over row-major, column-major,
    /// transposed and windowed operands (windows that end on their
    /// allocation's last element included), ragged edges, and f64,
    /// f32 and f16→f32 elements.
    #[test]
    fn in_place_packed_and_scalar_agree_on_every_view(
        shape in shapes(),
        tile in tiles(),
        presented in (presentations(), presentations()),
        tile_sel in 0usize..64,
        range_sel in (0usize..64, 0usize..64),
    ) {
        sources_agree::<f64, f64>(shape, tile, presented, tile_sel, range_sel, true)?;
        sources_agree::<f32, f32>(shape, tile, presented, tile_sel, range_sel, true)?;
        // Two f16 values multiply exactly in f32: nothing to tell apart.
        sources_agree::<f16, f32>(shape, tile, presented, tile_sel, range_sel, false)?;
    }
}

/// The default block packs 16-wide panels over f64 (at 8 × 32 its
/// accumulators alone would fill the vector register file): on tiles
/// 16 wider than a multiple of 32 every panel is whole at 16 where 32
/// would leave a ragged one. Whole-tile segments through every source
/// — packed, in place, cached — and every presentation of A and B are
/// `==` to the scalar MAC loop, to the `mul_add` chain and to
/// [`gemm_ex_reference`].
#[test]
fn f64_sixteen_wide_panels_agree_with_the_reference() {
    let presented = [
        Presented::RowMajor,
        Presented::ColMajor,
        Presented::Transposed,
        Presented::Window { pad: 600, to_the_end: true },
    ];
    for (shape, tile) in [
        (GemmShape::new(37, 48, 70), TileShape::new(32, 48, 16)),
        (GemmShape::new(21, 80, 1100), TileShape::new(16, 80, 8)),
    ] {
        assert_eq!(shape.n % 32, 16);
        let space = IterSpace::new(shape, tile);
        for pa in presented {
            for pb in presented {
                for tile_sel in 0..space.tiles() {
                    let whole = (0, space.iters_per_tile());
                    sources_agree::<f64, f64>(shape, tile, (pa, pb), tile_sel, whole, true)
                        .unwrap_or_else(|e| panic!("{shape} {tile} {pa:?} x {pb:?}: {e:?}"));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fault level: split-tile fixup under injected faults with the
    /// register block and the shared pack cache enabled — owner-side
    /// recovery recomputes through the same block and operand
    /// sources (row-major operands in place, column-major B through
    /// the cache), so the recovered output stays bit-exact against the
    /// fault-free run.
    #[test]
    fn simd_fixup_recovers_bit_exact_under_faults(
        shape in shapes(),
        layout in layouts(),
        strategy in prop_oneof![
            (2usize..5).prop_map(|split| Strategy::FixedSplit { split }),
            (2usize..8).prop_map(|grid| Strategy::StreamK { grid }),
        ],
        fault_idx in 0u8..2,
        victim_idx in 0usize..64,
    ) {
        let tile = TileShape::new(16, 16, 8);
        let decomp = Decomposition::from_strategy(shape, tile, strategy);
        let max_cover = decomp.fixups().iter().map(|f| f.covering_ctas()).max().unwrap_or(1);
        prop_assume!(max_cover <= THREADS);

        let (a, b) = operands64(shape, layout);
        let e = CpuExecutor::with_threads(THREADS).with_watchdog(Duration::from_millis(150));
        let baseline = e.try_gemm::<f64, f64>(&a, &b, &decomp).expect("fault-free run");

        let contributors = FaultPlan::contributors(&decomp);
        let plan = match contributors.first() {
            None => FaultPlan::none(),
            Some(_) => {
                let victim = contributors[victim_idx % contributors.len()];
                let kind = if fault_idx == 0 { FaultKind::Lose } else { FaultKind::Poison };
                FaultPlan::single(victim, kind)
            }
        };
        let (c, report) = e.gemm_with_faults::<f64, f64>(&a, &b, &decomp, &plan).expect("survives");
        if !plan.is_empty() {
            prop_assert!(report.recoveries() >= 1, "no recovery for {plan:?}");
        }
        prop_assert!(c.max_abs_diff(&baseline) == 0.0, "recovery diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The chunk walk at kernel level: on multi-chunk shapes, any
    /// segment — beginning and ending mid-chunk included — through
    /// the cache is bit-identical to the private-pack pipeline and to
    /// the scalar MAC loop.
    #[test]
    fn chunked_cache_bit_exact_on_deep_k_segments(
        (m, n, k_extra) in (5usize..40, 5usize..40, 18usize..1200),
        tile in tiles(),
        layout in layouts(),
        tile_sel in 0usize..64,
        range_sel in (0usize..4096, 0usize..4096),
    ) {
        let shape = deep_shape(m, n, k_extra, tile);
        let space = IterSpace::new(shape, tile);
        let (a, b) = operands64(shape, layout);
        let tile_idx = tile_sel % space.tiles();
        let ipt = space.iters_per_tile();
        let (mut lo, mut hi) = (range_sel.0 % (ipt + 1), range_sel.1 % (ipt + 1));
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }

        let len = tile.blk_m * tile.blk_n;
        let mut reference = vec![0.0f64; len];
        mac_loop_view(&a.view(), &b.view(), &space, tile_idx, lo, hi, &mut reference);

        let mut bufs = PackBuffers::new();
        let kind = KernelKind::Block;
        let mut private = vec![0.0f64; len];
        mac_loop_kernel(kind, &a.view(), &b.view(), &space, tile_idx, lo, hi, &mut private, &mut bufs);
        prop_assert!(private == reference, "private diverged on {shape} {tile} [{lo},{hi})");

        let cache = PackCache::for_kernel(&space, kind, WaitPolicy::default()).unwrap();
        prop_assert!(cache.chunk_k() < shape.k, "{shape} must span several chunks");
        let mut cached = vec![0.0f64; len];
        mac_loop_kernel_cached(kind, Some(&cache), 0, &a.view(), &b.view(), &space, tile_idx, lo, hi, &mut cached, &mut bufs);
        prop_assert!(cached == reference, "cached diverged on {shape} {tile} tile {tile_idx} [{lo},{hi})");
    }

    /// The chunk walk at executor level: 1-4 workers under every
    /// strategy on multi-chunk shapes, sharded cache on (it serves
    /// the column-major B; row-major operands are read in place),
    /// agree bit for bit with the scalar executor (no panels, no
    /// cache).
    #[test]
    fn chunked_cache_launches_match_the_scalar_executor(
        (m, n, k_extra) in (5usize..40, 5usize..40, 18usize..1200),
        tile in prop_oneof![Just(TileShape::new(16, 16, 8)), Just(TileShape::new(13, 11, 5))],
        layout in layouts(),
        strategy in strategies(),
    ) {
        let shape = deep_shape(m, n, k_extra, tile);
        let decomp = Decomposition::from_strategy(shape, tile, strategy);
        let floor = decomp.fixups().iter().map(|f| f.covering_ctas()).max().unwrap_or(1);
        prop_assume!(floor <= 4);
        let (a, b) = operands64(shape, layout);
        let reference = CpuExecutor::with_threads(4)
            .with_kernel(KernelKind::Scalar)
            .gemm::<f64, f64>(&a, &b, &decomp);
        for threads in floor..=4 {
            let c = CpuExecutor::with_threads(threads).gemm::<f64, f64>(&a, &b, &decomp);
            prop_assert!(
                c.max_abs_diff(&reference) == 0.0,
                "{threads} workers diverged on {shape} {tile} {strategy:?}"
            );
        }
    }
}

/// Pack-cache concurrency: 16 peers hammer a cache holding only 24
/// chunk slots (8 panels, three chunks deep). Every reader must observe bytes identical to a private
/// pack, and when the dust settles each chunk was packed exactly once
/// — no duplicate packs, no watchdog fallbacks.
#[test]
fn pack_cache_packs_each_chunk_exactly_once_under_contention() {
    let tile = TileShape::new(16, 16, 8);
    let (mr, nr) = (8, 8);
    let chunk_k = chunk_k(tile);
    // Ragged every way: last panels padded, last chunk short.
    let shape = GemmShape::new(61, 58, 2 * chunk_k + 96);
    let chunks = 3;
    let space = IterSpace::new(shape, tile);
    let (a, b) = operands64(shape, Layout::ColMajor);
    let cache = PackCache::new(&space, mr, nr, WaitPolicy::default());
    assert_eq!(cache.panels(), chunks * (space.tiles_m() + space.tiles_n()));

    // Reference chunks, packed privately: `expect[panel][chunk]`.
    let chunk_ks = |c: usize| c * chunk_k..shape.k.min((c + 1) * chunk_k);
    let expect_a: Vec<Vec<Vec<f64>>> = (0..space.tiles_m())
        .map(|tm| {
            let rows = tm * tile.blk_m..shape.m.min((tm + 1) * tile.blk_m);
            (0..chunks)
                .map(|c| {
                    let mut p = Vec::new();
                    pack_a_into(&a.view(), rows.clone(), chunk_ks(c), mr, &mut p);
                    p
                })
                .collect()
        })
        .collect();
    let expect_b: Vec<Vec<Vec<f64>>> = (0..space.tiles_n())
        .map(|tn| {
            let cols = tn * tile.blk_n..shape.n.min((tn + 1) * tile.blk_n);
            (0..chunks)
                .map(|c| {
                    let mut p = Vec::new();
                    pack_b_into(&b.view(), chunk_ks(c), cols.clone(), nr, &mut p);
                    p
                })
                .collect()
        })
        .collect();

    let peers = 2 * THREADS; // peers ≫ panels
    std::thread::scope(|scope| {
        for peer in 0..peers {
            let (cache, space, a, b, expect_a, expect_b) =
                (&cache, &space, &a, &b, &expect_a, &expect_b);
            scope.spawn(move || {
                // Each peer walks every chunk of every panel several
                // times, starting at a peer-dependent offset so the
                // per-chunk claims interleave.
                for round in 0..4 {
                    for step in 0..space.tiles_m() * chunks {
                        let slot = (peer + round + step) % (space.tiles_m() * chunks);
                        let (tm, c) = (slot / chunks, slot % chunks);
                        let chunk = cache.a_chunk(&a.view(), tm, c, 0).expect("no fallback expected");
                        assert_eq!(&*chunk, &expect_a[tm][c][..], "A panel {tm} chunk {c} seen by peer {peer}");
                    }
                    for step in 0..space.tiles_n() * chunks {
                        let slot = (peer + round + step) % (space.tiles_n() * chunks);
                        let (tn, c) = (slot / chunks, slot % chunks);
                        let chunk = cache.b_chunk(&b.view(), tn, c, 0).expect("no fallback expected");
                        assert_eq!(&*chunk, &expect_b[tn][c][..], "B panel {tn} chunk {c} seen by peer {peer}");
                    }
                }
            });
        }
    });

    assert_eq!(cache.packs(), cache.panels(), "each chunk packed exactly once");
    assert_eq!(cache.fallbacks(), 0, "no watchdog fallbacks under healthy contention");
}

/// Executor level: through the shared pack cache, the launch output
/// is identical across every worker count (and to the scalar oracle,
/// which packs nothing) — scheduling nondeterminism never changes who
/// packs what *into*, only who packs first.
#[test]
fn executor_with_cache_is_bit_exact_across_thread_counts() {
    let tile = TileShape::new(16, 16, 8);
    let shape = GemmShape::new(67, 59, 83);
    let kind = KernelKind::default();
    // Column-major: B goes through the cache this test is about.
    let (a, b) = operands64(shape, Layout::ColMajor);

    // Stream-K with fixups needs co-resident peers: sweep 2..=8.
    let decomp = Decomposition::stream_k(shape, tile, 6);
    let reference = CpuExecutor::with_threads(THREADS)
        .with_kernel(KernelKind::Scalar)
        .gemm::<f64, f64>(&a, &b, &decomp);
    for threads in [2, 3, 4, THREADS] {
        let c = CpuExecutor::with_threads(threads).with_kernel(kind).gemm::<f64, f64>(&a, &b, &decomp);
        assert_eq!(c.max_abs_diff(&reference), 0.0, "threads={threads} diverged");
    }

    // Data-parallel has no cross-CTA waits, so one thread is legal.
    let dp = Decomposition::data_parallel(shape, tile);
    let dp_ref = CpuExecutor::with_threads(1)
        .with_kernel(KernelKind::Scalar)
        .gemm::<f64, f64>(&a, &b, &dp);
    for threads in 1..=4 {
        let c = CpuExecutor::with_threads(threads).with_kernel(kind).gemm::<f64, f64>(&a, &b, &dp);
        assert_eq!(c.max_abs_diff(&dp_ref), 0.0, "data-parallel threads={threads} diverged");
    }
}
