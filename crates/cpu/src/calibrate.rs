//! Microbenchmark calibration of the Appendix A.1 cost model.
//!
//! The paper's deployment story: the four workload constants
//! `{a, b, c, d}` "are trivially chosen with empirical measurements
//! and need only be done once per target architecture" (§5.1). This
//! module performs that measurement against the *CPU executor* —
//! timing single-CTA workloads across a spread of iteration counts
//! and fixup-peer counts, then least-squares fitting
//! [`CostModel`] to the samples.
//!
//! The fitted constants describe this machine's microkernel, so they
//! feed the grid-size model when the CPU executor (rather than the
//! A100 simulator) is the execution target — see the
//! `calibrated_gemm` example.

use crate::executor::CpuExecutor;
use std::time::Instant;
use streamk_core::{CostModel, Decomposition, GridSizeModel};
use streamk_matrix::Matrix;
use streamk_types::{GemmShape, Layout, TileShape};

/// Calibration settings.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationConfig {
    /// The blocking factor to calibrate for.
    pub tile: TileShape,
    /// Iteration counts to sample (the `c` axis).
    pub iter_samples: &'static [usize],
    /// Split factors to sample (the `b`/`d` axis).
    pub split_samples: &'static [usize],
    /// Repetitions per sample; the fastest is kept.
    pub reps: usize,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            tile: TileShape::new(32, 32, 8),
            iter_samples: &[4, 8, 16, 32, 64],
            split_samples: &[1, 2, 4, 8],
            reps: 5,
        }
    }
}

/// Measures `{a, b, c, d}` for this machine's microkernel at
/// `config.tile` and returns the fitted model, or `None` if the fit
/// is degenerate (should not happen with the default sample grid).
///
/// Each sample runs a single-tile problem of `iters` MAC-loop
/// iterations split `s` ways across `s` worker threads and records
/// the fastest wall time against the model regressors
/// `(iters_per_cta, fixup_peers)`. Whatever else the host is doing
/// only ever adds to a run's time, so the minimum is the repetition
/// that measured the launch and not its neighbours; a median of a
/// few runs on a busy host can rank a short launch above a long one
/// and fit a negative per-iteration cost.
#[must_use]
pub fn calibrate(config: &CalibrationConfig) -> Option<CostModel> {
    let tile = config.tile;
    let mut samples: Vec<(usize, usize, f64)> = Vec::new();

    for &iters in config.iter_samples {
        let shape = GemmShape::new(tile.blk_m, tile.blk_n, tile.blk_k * iters);
        let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, 1);
        let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, 2);
        for &split in config.split_samples {
            if split > iters {
                continue;
            }
            let decomp = Decomposition::fixed_split(shape, tile, split);
            let exec = CpuExecutor::with_threads(split.max(1));
            // Warm-up run to touch memory and spin the pool up.
            let _ = exec.gemm::<f64, f64>(&a, &b, &decomp);
            let fastest = (0..config.reps)
                .map(|_| {
                    let t0 = Instant::now();
                    let _ = exec.gemm::<f64, f64>(&a, &b, &decomp);
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            let iters_per_cta = iters.div_ceil(split);
            samples.push((iters_per_cta, split, fastest));
        }
    }
    CostModel::fit(&samples)
}

/// Convenience: calibrates with defaults and builds a
/// [`GridSizeModel`] for a `threads`-worker executor.
#[must_use]
pub fn calibrated_grid_model(threads: usize) -> Option<GridSizeModel> {
    calibrate(&CalibrationConfig::default()).map(|cost| GridSizeModel::new(cost, threads))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Calibration must produce a usable model on any machine: a
    /// positive per-iteration cost, and it must feed the grid-size
    /// selector without panicking. (Absolute values are
    /// machine-dependent; noisy CI boxes can even fit slightly
    /// negative overhead terms, which the selector tolerates.) The
    /// iteration counts span 16x so the slope is a few hundred
    /// microseconds of MAC work, not the few microseconds a thread
    /// wake-up can swamp.
    #[test]
    fn calibration_produces_positive_iteration_cost() {
        let config = CalibrationConfig {
            iter_samples: &[16, 64, 256],
            split_samples: &[1, 2, 4],
            reps: 5,
            ..CalibrationConfig::default()
        };
        let model = calibrate(&config).expect("fit should be well-determined");
        assert!(model.c > 0.0, "per-iteration cost must be positive: {model:?}");

        let grid_model = GridSizeModel::new(model, 8);
        let g = grid_model.best_grid(GemmShape::new(32, 32, 8 * 64), config.tile);
        assert!((1..=8).contains(&g));
    }
}
