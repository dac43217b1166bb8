//! Strassen–Winograd hybrid suite.
//!
//! Three property groups:
//!
//! 1. **Quadrant views are lossless**: zero-padded split → recombine
//!    round-trips bit-exactly on both layouts (RowMajor, ColMajor)
//!    and every odd/ragged extent — padding is a view trick, never a
//!    numeric one.
//! 2. **The hybrid is bounded, the fallback is exact**: every
//!    recursive launch stays within the DESIGN.md §15 forward-error
//!    bound against the classical executor; every below-cutoff
//!    launch is bit-identical to it.
//! 3. **Faults inside a sub-product stay absorbed**: seeded CTA
//!    fault plans (§7 chaos discipline) injected into the middle of
//!    a service-path burst must be masked by owner-side recovery —
//!    the burst's result is identical to the fault-free one.

use proptest::prelude::*;
use std::time::Duration;
use streamk_cpu::{
    leaf_decomposition, machine_epsilon, max_abs, recombine_quadrants, split_quadrants,
    strassen_error_bound, CpuExecutor, FaultPlan, GemmService, ServeConfig, StrassenConfig,
};
use streamk_matrix::Matrix;
use streamk_types::{GemmShape, Layout, TileShape};

const TILE: TileShape = TileShape { blk_m: 16, blk_n: 16, blk_k: 8 };

fn operands32(shape: GemmShape, seed: u64) -> (Matrix<f32>, Matrix<f32>) {
    let a = Matrix::<f32>::random::<f32>(shape.m, shape.k, Layout::RowMajor, seed);
    let b = Matrix::<f32>::random::<f32>(shape.k, shape.n, Layout::RowMajor, seed + 1);
    (a, b)
}

fn classical(e: &CpuExecutor, a: &Matrix<f32>, b: &Matrix<f32>) -> Matrix<f32> {
    let shape = GemmShape::new(a.rows(), b.cols(), a.cols());
    e.gemm(a, b, &leaf_decomposition(shape, TILE, e.threads()))
}

fn layouts() -> impl Strategy<Value = Layout> {
    prop_oneof![Just(Layout::RowMajor), Just(Layout::ColMajor)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: split → recombine is the identity for every
    /// layout and every ragged extent, including padding that
    /// overhangs the source on both axes.
    #[test]
    fn quadrant_split_recombine_is_lossless(
        rows in 1usize..40,
        cols in 1usize..40,
        pad_r in 0usize..5,
        pad_c in 0usize..5,
        layout in layouts(),
        seed in 0u64..1000,
    ) {
        let src = Matrix::<f64>::random::<f64>(rows, cols, layout, seed);
        let pad_rows = (rows + pad_r).div_ceil(2) * 2;
        let pad_cols = (cols + pad_c).div_ceil(2) * 2;
        let quads = split_quadrants(&src, pad_rows, pad_cols);
        let back = recombine_quadrants(&quads, rows, cols, layout);
        prop_assert_eq!(back.layout(), src.layout());
        prop_assert_eq!(back.max_abs_diff(&src), 0.0, "round-trip must be bit-exact");

        // The padding region really is zero: recombining into the
        // padded extent shows zeros outside the source.
        let full = recombine_quadrants(&quads, pad_rows, pad_cols, Layout::RowMajor);
        for r in 0..pad_rows {
            for c in 0..pad_cols {
                let expect = if r < rows && c < cols { src.get(r, c) } else { 0.0 };
                prop_assert_eq!(full.get(r, c), expect);
            }
        }
    }

    /// Property 2a: odd/ragged hybrid launches stay within the
    /// documented error bound against the classical path.
    #[test]
    fn ragged_hybrid_stays_within_bound(
        m in 33usize..80,
        n in 33usize..80,
        k in 33usize..80,
        seed in 0u64..500,
    ) {
        let e = CpuExecutor::with_threads(2);
        let shape = GemmShape::new(m, n, k);
        let (a, b) = operands32(shape, seed);
        let cfg = StrassenConfig::enabled().with_cutoff(16).with_max_depth(1);
        let (c, report) = e.gemm_strassen::<f32, f32>(&a, &b, TILE, &cfg);
        prop_assert!(!report.fell_back);
        let reference = classical(&e, &a, &b);
        let eps = machine_epsilon::<f32>();
        let bound = strassen_error_bound(shape, 1, max_abs(&a), max_abs(&b), eps)
            + strassen_error_bound(shape, 0, max_abs(&a), max_abs(&b), eps);
        let err = c.max_abs_diff(&reference);
        prop_assert!(err <= bound, "err {} exceeds bound {}", err, bound);
    }
}

/// Property 2b: below the cutoff an *enabled* config is still
/// bit-identical to the classical executor — opt-in never perturbs
/// small launches.
#[test]
fn below_cutoff_fallback_is_bit_exact() {
    let e = CpuExecutor::with_threads(2);
    for (m, n, k) in [(31, 47, 53), (64, 64, 64), (17, 90, 33)] {
        let shape = GemmShape::new(m, n, k);
        let (a, b) = operands32(shape, (m * 31 + n) as u64);
        let cfg = StrassenConfig::enabled().with_cutoff(64);
        let (c, report) = e.gemm_strassen::<f32, f32>(&a, &b, TILE, &cfg);
        assert!(report.fell_back, "{shape:?} must fall back below the cutoff");
        assert_eq!(c.max_abs_diff(&classical(&e, &a, &b)), 0.0, "{shape:?}");
    }
}

/// The hybrid accepts operands in either storage order and returns
/// the input layout, still within the bound.
#[test]
fn hybrid_preserves_the_operand_layout() {
    let e = CpuExecutor::with_threads(2);
    let shape = GemmShape::new(96, 96, 96);
    for layout in [Layout::RowMajor, Layout::ColMajor] {
        let a = Matrix::<f32>::random::<f32>(shape.m, shape.k, layout, 5);
        let b = Matrix::<f32>::random::<f32>(shape.k, shape.n, layout, 6);
        let cfg = StrassenConfig::enabled().with_cutoff(16).with_max_depth(1);
        let (c, report) = e.gemm_strassen::<f32, f32>(&a, &b, TILE, &cfg);
        assert!(!report.fell_back);
        assert_eq!(c.layout(), layout, "output must keep the operand layout");
        let reference: Matrix<f32> =
            e.gemm(&a, &b, &leaf_decomposition(shape, TILE, e.threads()));
        let eps = machine_epsilon::<f32>();
        let bound = strassen_error_bound(shape, 1, max_abs(&a), max_abs(&b), eps)
            + strassen_error_bound(shape, 0, max_abs(&a), max_abs(&b), eps);
        assert!(c.max_abs_diff(&reference) <= bound, "{layout:?}");
    }
}

/// Property 3: the service-path burst with seeded CTA faults in one
/// sub-product launch recovers to the identical result — recovery is
/// invisible at the group surface.
#[test]
fn fault_injection_inside_a_sub_product_is_recovered() {
    let threads = 4;
    let exec = CpuExecutor::with_threads(threads).with_watchdog(Duration::from_millis(150));
    let shape = GemmShape::new(96, 96, 96);
    let (a, b) = operands32(shape, 97);
    let cfg = StrassenConfig::enabled().with_cutoff(16).with_max_depth(1);

    let service = GemmService::<f32, f32>::start(&exec, ServeConfig::default());
    let (clean, clean_report) =
        service.gemm_strassen(&a, &b, TILE, &cfg).expect("fault-free burst completes");
    assert!(!clean_report.fell_back);
    assert_eq!(clean_report.leaf_products, 7);

    // Seed a fault plan against the decomposition the leaves run
    // under (§7 chaos discipline: seeded, strategy-shaped) and point
    // it at the middle of the burst.
    let leaf = GemmShape::new(48, 48, 48);
    let decomp = leaf_decomposition(leaf, TILE, threads);
    for seed in 0..3u64 {
        let plan = FaultPlan::seeded(seed, &decomp, Duration::from_millis(150));
        let (faulted, report) = service
            .gemm_strassen_with_faults(&a, &b, TILE, &cfg, &[(3, plan)])
            .expect("faulted burst must still complete");
        assert!(!report.fell_back);
        assert_eq!(
            faulted.max_abs_diff(&clean),
            0.0,
            "seed {seed}: recovery must reproduce the fault-free result bit-exactly"
        );
    }
    service.shutdown();
}

/// The direct-path burst and the service-path burst agree exactly:
/// both run the same leaf products and the same recombination, so
/// the only permitted difference is leaf accumulation order — pinned
/// here by comparing against the same classical reference bound.
#[test]
fn direct_and_service_paths_agree_within_bound() {
    let e = CpuExecutor::with_threads(2);
    let shape = GemmShape::new(80, 80, 80);
    let (a, b) = operands32(shape, 41);
    let cfg = StrassenConfig::enabled().with_cutoff(16).with_max_depth(1);
    let (direct, _) = e.gemm_strassen::<f32, f32>(&a, &b, TILE, &cfg);
    let service = GemmService::<f32, f32>::start(&e, ServeConfig::default());
    let (served, report) = service.gemm_strassen(&a, &b, TILE, &cfg).expect("burst completes");
    service.shutdown();
    assert!(!report.fell_back);
    let eps = machine_epsilon::<f32>();
    let bound = 2.0
        * (strassen_error_bound(shape, 1, max_abs(&a), max_abs(&b), eps)
            + strassen_error_bound(shape, 0, max_abs(&a), max_abs(&b), eps));
    assert!(served.max_abs_diff(&direct) <= bound);
}
