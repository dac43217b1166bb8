//! Orientation never changes bits.
//!
//! A launch may run the caller's `C = op(A)·op(B)` as
//! `Cᵀ = op(B)ᵀ·op(A)ᵀ`, storing `Cᵀ` over C's own storage, when that
//! packs fewer operand bytes (DESIGN.md §9, "Orientation"). Either way
//! every element of C is the same ascending-k chain of fused
//! multiply-adds over the same k-ranges with the same seams — the
//! transposed launch runs the caller's decomposition, schedule tile `s`
//! on the transpose of the caller's tile `s` — and IEEE
//! `fma(a, b, c) == fma(b, a, c)`.
//!
//! The oracle is the same decomposition run over materialised
//! row-major copies of `op(A)` and `op(B)` into a row-major C, a launch
//! the orientation rule never transposes. Every entry — `gemm`,
//! `gemm_ex` at `β = 0` and `β = 1`, `gemm_with_faults` under `Lose`
//! and `Poison`, `gemm_batched`, `gemm_grouped` and a `GemmService`
//! request — must match it bit for bit, for every `Strategy`, 1–4
//! workers, f64, f32 and f16 → f32, over operands stored row-major,
//! column-major, as `.t()` of a row-major matrix, or as windows of
//! parents whose rows are shorter or longer than the in-place k-stride
//! limit, so that launches run as called and transposed alike. What
//! recovery does — peer, tile, recomputed iterations — must be
//! identical too.

use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use std::time::Duration;
use streamk_core::{
    BatchedDecomposition, BatchedSpace, Decomposition, GroupedDecomposition, GroupedSpace, Strategy,
    TileFixup, TileOrder,
};
use streamk_cpu::{
    CpuExecutor, FaultKind, FaultPlan, GemmService, LaunchRequest, RecoveryReport, ServeConfig,
};
use streamk_matrix::{f16, Matrix, MatrixView, Promote, Scalar};
use streamk_types::{GemmShape, Layout, TileShape};

/// How an operand reaches the executor.
#[derive(Debug, Clone, Copy)]
enum Form {
    RowMajor,
    ColMajor,
    /// `.t()` of the row-major transpose.
    Transposed,
    /// A window at (1, 2) of a row-major parent `pad` columns wider:
    /// with `pad = 600` the parent's rows are past the in-place
    /// k-stride limit for every element type, with `pad = 3` they are
    /// not (for the shapes drawn here).
    Window { pad: usize },
}

impl Form {
    /// The layout of the `Matrix` an entry that takes whole matrices
    /// is handed: a transposed view's strides are a column-major
    /// matrix's, a window's a row-major one's.
    fn layout(self) -> Layout {
        match self {
            Form::ColMajor | Form::Transposed => Layout::ColMajor,
            Form::RowMajor | Form::Window { .. } => Layout::RowMajor,
        }
    }
}

fn forms() -> impl proptest::strategy::Strategy<Value = Form> {
    prop_oneof![
        Just(Form::RowMajor),
        Just(Form::ColMajor),
        Just(Form::Transposed),
        Just(Form::Window { pad: 3 }),
        Just(Form::Window { pad: 600 }),
    ]
}

/// Storage for a `rows × cols` operand in `form`; [`view`] reads it.
fn store<In: Promote<Acc>, Acc: Scalar>(rows: usize, cols: usize, form: Form, seed: u64) -> Matrix<In> {
    match form {
        Form::RowMajor => Matrix::random::<Acc>(rows, cols, Layout::RowMajor, seed),
        Form::ColMajor => Matrix::random::<Acc>(rows, cols, Layout::ColMajor, seed),
        Form::Transposed => Matrix::random::<Acc>(cols, rows, Layout::RowMajor, seed),
        Form::Window { pad } => Matrix::random::<Acc>(rows + 1, cols + 2 + pad, Layout::RowMajor, seed),
    }
}

fn view<In: Copy + Default>(storage: &Matrix<In>, rows: usize, cols: usize, form: Form) -> MatrixView<'_, In> {
    match form {
        Form::RowMajor | Form::ColMajor => storage.view(),
        Form::Transposed => storage.t(),
        Form::Window { .. } => storage.view().submatrix(1..rows + 1, 2..cols + 2),
    }
}

/// The operand as a whole matrix in `form.layout()`.
fn whole<In: Copy + Default>(v: &MatrixView<'_, In>, form: Form) -> Matrix<In> {
    v.to_matrix().to_layout(form.layout())
}

fn tiles() -> impl proptest::strategy::Strategy<Value = TileShape> {
    prop_oneof![
        Just(TileShape::new(16, 16, 8)),
        Just(TileShape::new(32, 16, 16)),
        Just(TileShape::new(16, 32, 8)),
        Just(TileShape::new(13, 11, 5)),
    ]
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

fn shapes() -> impl proptest::strategy::Strategy<Value = GemmShape> {
    (3usize..70, 3usize..70, 8usize..90).prop_map(|(m, n, k)| GemmShape::new(m, n, k))
}

/// C's elements in row-major order, as bits: outputs in any layout
/// compare by value, `==` on every bit.
fn bits<Acc: Scalar>(c: &Matrix<Acc>) -> Vec<u64> {
    let mut out = Vec::with_capacity(c.rows() * c.cols());
    for r in 0..c.rows() {
        for col in 0..c.cols() {
            out.push(c.get(r, col).to_f64().to_bits());
        }
    }
    out
}

/// What recovery did, minus how long a watchdog waited.
fn recovered(report: &RecoveryReport) -> Vec<(usize, usize, usize)> {
    report.events.iter().map(|e| (e.peer, e.tile_idx, e.recomputed_iters)).collect()
}

fn residency_floor(fixups: &[TileFixup]) -> usize {
    fixups.iter().map(TileFixup::covering_ctas).max().unwrap_or(1)
}

/// One case: every entry over `forms`, against the row-major oracle.
#[allow(clippy::too_many_arguments)]
fn check<In: Promote<Acc>, Acc: Scalar + Promote<Acc>>(
    shape: GemmShape,
    tile: TileShape,
    strategy: Strategy,
    workers: usize,
    (a_form, b_form): (Form, Form),
    c_layout: Layout,
    seed: u64,
) -> Result<(), TestCaseError> {
    let GemmShape { m, n, k } = shape;
    let decomp = Decomposition::from_strategy(shape, tile, strategy);
    let workers = workers.max(residency_floor(&decomp.fixups()));
    let exec = CpuExecutor::with_threads(workers).with_watchdog(Duration::from_millis(30));
    let what = |entry: &str| format!("{entry}: {shape:?} {tile} {strategy} W={workers} A {a_form:?} B {b_form:?} C {c_layout}");

    let (a_store, b_store) = (store::<In, Acc>(m, k, a_form, seed), store::<In, Acc>(k, n, b_form, seed + 1));
    let (a, b) = (view(&a_store, m, k, a_form), view(&b_store, k, n, b_form));
    let (a_row, b_row) = (a.to_matrix(), b.to_matrix());
    let (a_whole, b_whole) = (whole(&a, a_form), whole(&b, b_form));

    // gemm, and gemm_ex at β = 0 over a NaN-filled C.
    let oracle = exec.gemm::<In, Acc>(&a_row, &b_row, &decomp);
    let c = exec.gemm::<In, Acc>(&a_whole, &b_whole, &decomp);
    prop_assert_eq!(c.layout(), a_form.layout());
    prop_assert_eq!(bits(&c), bits(&oracle), "{}", what("gemm"));
    let mut c = Matrix::from_fn(m, n, c_layout, |_, _| Acc::from_f64(f64::NAN));
    exec.gemm_ex(Acc::ONE, &a, &b, Acc::ZERO, &mut c, &decomp);
    prop_assert_eq!(bits(&c), bits(&oracle), "{}", what("gemm_ex β = 0"));

    // gemm_ex at β = 1, α ≠ 1.
    let c0 = Matrix::<Acc>::random::<Acc>(m, n, Layout::RowMajor, seed + 2);
    let alpha = Acc::from_f64(-0.75);
    let mut want = c0.clone();
    exec.gemm_ex(alpha, &a_row.view(), &b_row.view(), Acc::ONE, &mut want, &decomp);
    let mut c = c0.to_layout(c_layout);
    exec.gemm_ex(alpha, &a, &b, Acc::ONE, &mut c, &decomp);
    prop_assert_eq!(bits(&c), bits(&want), "{}", what("gemm_ex β = 1"));

    // gemm_with_faults: the first contributor lost, the last poisoned.
    let contributors = FaultPlan::contributors(&decomp);
    if let (Some(&first), Some(&last)) = (contributors.first(), contributors.last()) {
        for plan in [FaultPlan::single(first, FaultKind::Lose), FaultPlan::single(last, FaultKind::Poison)] {
            let (want, want_report) = exec.gemm_with_faults::<In, Acc>(&a_row, &b_row, &decomp, &plan).expect("recovers");
            let (c, report) = exec.gemm_with_faults::<In, Acc>(&a_whole, &b_whole, &decomp, &plan).expect("recovers");
            prop_assert_eq!(bits(&c), bits(&want), "{}", what("gemm_with_faults"));
            prop_assert_eq!(bits(&c), bits(&oracle), "{}", what("gemm_with_faults vs gemm"));
            prop_assert_eq!(recovered(&report), recovered(&want_report), "{}", what("recovery"));
            prop_assert_eq!(report.recoveries(), 1, "{}", what("recovery count"));
        }
    }

    // A service request, one contributor's record poisoned.
    let service = GemmService::<In, Acc>::start(&exec, ServeConfig::default());
    let plan = contributors.last().map_or_else(FaultPlan::none, |&cta| FaultPlan::single(cta, FaultKind::Poison));
    let request = LaunchRequest::new(a_whole.clone(), b_whole.clone(), decomp.clone()).with_cta_faults(plan);
    let (served, stats) = service.submit(request).expect("admitted").wait().expect("request completes");
    let _ = service.shutdown();
    prop_assert_eq!(served.layout(), a_form.layout());
    prop_assert_eq!(bits(&served), bits(&oracle), "{}", what("service"));
    prop_assert_eq!(stats.recoveries, usize::from(!contributors.is_empty()), "{}", what("service recovery"));

    // A batch of two and a group of two unrelated shapes, one grid each.
    let batched = BatchedDecomposition::stream_k(BatchedSpace::new(2, shape, tile), workers);
    let (batch_a, batch_b) = (vec![a_whole.clone(), a_whole.clone()], vec![b_whole.clone(), b_whole.clone()]);
    let (row_a, row_b) = (vec![a_row.clone(), a_row.clone()], vec![b_row.clone(), b_row.clone()]);
    let got = exec.gemm_batched::<In, Acc>(&batch_a, &batch_b, &batched);
    let want = exec.gemm_batched::<In, Acc>(&row_a, &row_b, &batched);
    for (c, w) in got.iter().zip(&want) {
        prop_assert_eq!(bits(c), bits(w), "{}", what("gemm_batched"));
    }

    let other = GemmShape::new(n, m.max(5), k / 2 + 1);
    let (oa_store, ob_store) = (store::<In, Acc>(other.m, other.k, b_form, seed + 3), store::<In, Acc>(other.k, other.n, a_form, seed + 4));
    let (oa, ob) = (view(&oa_store, other.m, other.k, b_form), view(&ob_store, other.k, other.n, a_form));
    let grouped = GroupedDecomposition::stream_k(GroupedSpace::new(&[shape, other], tile), workers);
    let got = exec.gemm_grouped::<In, Acc>(&[a_whole, whole(&oa, b_form)], &[b_whole, whole(&ob, a_form)], &grouped);
    let want = exec.gemm_grouped::<In, Acc>(&[a_row, oa.to_matrix()], &[b_row, ob.to_matrix()], &grouped);
    for (c, w) in got.iter().zip(&want) {
        prop_assert_eq!(bits(c), bits(w), "{}", what("gemm_grouped"));
    }
    Ok(())
}

fn c_layouts() -> impl proptest::strategy::Strategy<Value = Layout> {
    prop_oneof![Just(Layout::RowMajor), Just(Layout::ColMajor)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_entry_is_bit_identical_whichever_way_round_it_runs(
        shape in shapes(),
        tile in tiles(),
        strategy in strategies(),
        workers in 1usize..5,
        a_form in forms(),
        b_form in forms(),
        c_layout in c_layouts(),
        seed in 0u64..1_000_000,
    ) {
        let forms = (a_form, b_form);
        check::<f64, f64>(shape, tile, strategy, workers, forms, c_layout, seed)?;
        check::<f32, f32>(shape, tile, strategy, workers, forms, c_layout, seed)?;
        check::<f16, f32>(shape, tile, strategy, workers, forms, c_layout, seed)?;
    }
}

/// Past the in-place k-stride limit for f32 and f64 alike: a row-major
/// B this wide, or a column-major A this tall, packs.
const PACKS: usize = 520;

/// One unsplit grid, banded by the launch and pinned row-major: `gemm`
/// and `gemm_ex` into a row- and a column-major C at `β = 0` and
/// `β = 1` must agree bit for bit. With `held`, every helper sleeps
/// before entering, so worker 0 starts alone and the helpers steal.
#[allow(clippy::too_many_arguments)]
fn check_banded<In: Promote<Acc>, Acc: Scalar + Promote<Acc>>(
    shape: GemmShape,
    tile: TileShape,
    tiles_per_cta: usize,
    workers: usize,
    (a_layout, b_layout): (Layout, Layout),
    held: bool,
    seed: u64,
) -> Result<(), TestCaseError> {
    let GemmShape { m, n, k } = shape;
    let tiles = tile.tiles_m(shape) * tile.tiles_n(shape);
    let decomp = if tiles.is_multiple_of(tiles_per_cta) {
        Decomposition::stream_k(shape, tile, tiles / tiles_per_cta)
    } else {
        Decomposition::data_parallel(shape, tile)
    };
    prop_assert_eq!(decomp.split_tiles(), 0);
    let pinned = decomp.clone().with_tile_order(TileOrder::RowMajor);
    let exec = CpuExecutor::with_threads(workers);
    if held {
        let delays = (0..workers).map(|w| Duration::from_millis(if w == 0 { 0 } else { 2 })).collect();
        exec.worker_pool().inject_stragglers(delays);
    }
    let what = |entry: &str| {
        format!("{entry}: {shape:?} {tile} {} W={workers} A {a_layout} B {b_layout} held={held}", decomp.strategy())
    };

    let a = Matrix::<In>::random::<Acc>(m, k, a_layout, seed);
    let b = Matrix::<In>::random::<Acc>(k, n, b_layout, seed + 1);
    let want = exec.gemm::<In, Acc>(&a, &b, &pinned);
    prop_assert_eq!(bits(&exec.gemm::<In, Acc>(&a, &b, &decomp)), bits(&want), "{}", what("gemm"));

    let c0 = Matrix::<Acc>::random::<Acc>(m, n, Layout::RowMajor, seed + 2);
    let alpha = Acc::from_f64(-0.75);
    for c_layout in [Layout::RowMajor, Layout::ColMajor] {
        for beta in [Acc::ZERO, Acc::ONE] {
            let mut want = c0.to_layout(c_layout);
            exec.gemm_ex(alpha, &a.view(), &b.view(), beta, &mut want, &pinned);
            let mut c = c0.to_layout(c_layout);
            exec.gemm_ex(alpha, &a.view(), &b.view(), beta, &mut c, &decomp);
            prop_assert_eq!(bits(&c), bits(&want), "{}", what(&format!("gemm_ex into {c_layout} at β = {beta:?}")));
        }
    }
    exec.worker_pool().inject_stragglers(Vec::new());
    Ok(())
}

/// An extent that is small, or past [`PACKS`] so its operand packs.
fn extent(packs: bool, small: usize) -> usize {
    if packs { PACKS + small } else { small }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn an_unsplit_grid_gives_the_same_bits_in_any_tile_order(
        (tall, wide) in prop_oneof![Just((false, true)), Just((true, false)), Just((true, true))],
        (m, n, k) in (3usize..40, 3usize..40, 8usize..40),
        tile in tiles(),
        tiles_per_cta in 1usize..4,
        workers in 1usize..5,
        // Bit 0: A column-major, bit 1: B column-major, bit 2: helpers held back.
        flags in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let shape = GemmShape::new(extent(tall, m), extent(wide, n), k);
        let layout = |bit: usize| if flags >> bit & 1 == 1 { Layout::ColMajor } else { Layout::RowMajor };
        let (layouts, held) = ((layout(0), layout(1)), flags & 4 != 0);
        check_banded::<f64, f64>(shape, tile, tiles_per_cta, workers, layouts, held, seed)?;
        check_banded::<f32, f32>(shape, tile, tiles_per_cta, workers, layouts, held, seed)?;
    }
}

/// The forms the proptest draws do transpose launches: a column-major
/// B packs as the right operand and not as the left, so a `gemm` of
/// column-major operands runs transposed — it packs nothing, where the
/// caller's orientation would pack B — while its row-major copy, run
/// as called, packs B.
#[test]
fn the_drawn_forms_run_both_ways_round() {
    // B 264 columns wide: its row-major copy packs too.
    let shape = GemmShape::new(40, 264, 64);
    let decomp = Decomposition::stream_k(shape, TileShape::new(16, 16, 8), 3);
    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::ColMajor, 1);
    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::ColMajor, 2);
    let exec = CpuExecutor::with_threads(3);
    let c = exec.gemm::<f64, f64>(&a, &b, &decomp);
    assert_eq!(exec.pack_arena_stats::<f64>().consumed_bytes, 0, "the column-major launch packed");
    let rows = exec.gemm::<f64, f64>(&a.view().to_matrix(), &b.view().to_matrix(), &decomp);
    assert!(exec.pack_arena_stats::<f64>().consumed_bytes > 0, "the row-major launch packed nothing");
    assert_eq!(bits(&c), bits(&rows));
}
