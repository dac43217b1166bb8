//! Strassen-on-Stream-K hybrid: seven sub-products, one grouped
//! launch, a documented error bound.
//!
//! One Strassen–Winograd level trades one multiplication for extra
//! additions: 7 half-size products instead of 8, a 12.5% MAC saving
//! per level. The catch on a fixed-width machine is *skew* — seven
//! independent launches quantize badly. Here the seven (or 7^d)
//! leaf products are concatenated into a single grouped Stream-K
//! launch, so the pool splits the aggregate MAC loop evenly and the
//! saving survives.
//!
//! The hybrid is opt-in (`StrassenConfig`), falls back to the
//! classical path below a calibrated cutoff, and every result is
//! checked against the DESIGN.md §15 forward-error bound.
//!
//! ```text
//! cargo run --release --example strassen_hybrid
//! ```

use std::time::Instant;
use streamk::cpu::{
    leaf_decomposition, machine_epsilon, max_abs, strassen_error_bound, StrassenArena,
    StrassenConfig,
};
use streamk::prelude::*;

fn main() {
    let n = 1024;
    let shape = GemmShape::new(n, n, n);
    let tile = TileShape::new(64, 64, 16);
    let threads = 8;
    let reps = 3;

    let exec = CpuExecutor::with_threads(threads);
    let a = Matrix::<f32>::random::<f32>(shape.m, shape.k, Layout::RowMajor, 1);
    let b = Matrix::<f32>::random::<f32>(shape.k, shape.n, Layout::RowMajor, 2);

    println!("strassen hybrid at {shape}, f32, {threads} threads, blocking {tile}\n");

    // Classical baseline: one Stream-K launch over the full shape.
    let decomp = leaf_decomposition(shape, tile, threads);
    let mut classical: Matrix<f32> = exec.gemm(&a, &b, &decomp);
    let mut classical_s = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        classical = exec.gemm(&a, &b, &decomp);
        classical_s = classical_s.min(t.elapsed().as_secs_f64());
    }
    println!("classical stream-k        {:>8.1} ms", classical_s * 1e3);

    // Hybrid: depth forced to 1 (cutoff n/2) and then adaptive. The
    // arena is reused across repetitions — steady state allocates
    // nothing (DESIGN.md §8 discipline).
    for (label, config) in [
        ("hybrid depth 1", StrassenConfig::enabled().with_cutoff(n / 2).with_max_depth(1)),
        ("hybrid adaptive", StrassenConfig::enabled().with_cutoff(256).with_max_depth(3)),
    ] {
        let mut arena = StrassenArena::new();
        let (mut c, mut report) =
            exec.gemm_strassen_with_arena::<f32, f32>(&a, &b, tile, &config, &mut arena);
        let mut hybrid_s = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            (c, report) = exec.gemm_strassen_with_arena::<f32, f32>(&a, &b, tile, &config, &mut arena);
            hybrid_s = hybrid_s.min(t.elapsed().as_secs_f64());
        }

        let eps = machine_epsilon::<f32>();
        let err = c.max_abs_diff(&classical) as f64;
        // The comparison target is itself computed in f32, so it
        // carries its own classical bound on top of the hybrid's.
        let bound = strassen_error_bound(shape, report.depth, max_abs(&a), max_abs(&b), eps)
            + strassen_error_bound(shape, 0, max_abs(&a), max_abs(&b), eps);
        assert!(err <= bound, "hybrid error {err:.3e} exceeds bound {bound:.3e}");

        println!(
            "{label:<25} {:>8.1} ms   {:+5.1}% vs classical   depth {}  leaves {}",
            hybrid_s * 1e3,
            (classical_s / hybrid_s - 1.0) * 100.0,
            report.depth,
            report.leaf_products,
        );
        println!(
            "{:<25} max |err| {err:.3e}  <=  bound {bound:.3e}",
            "",
        );
    }

    println!("\nevery hybrid result verified within the DESIGN.md §15 forward-error bound.");
}
