//! Microbenchmark calibration of the Appendix A.1 cost model.
//!
//! The paper's deployment story: the four workload constants
//! `{a, b, c, d}` "are trivially chosen with empirical measurements
//! and need only be done once per target architecture" (§5.1). This
//! module performs that measurement against the *CPU executor* —
//! timing single-CTA workloads across a spread of iteration counts
//! and fixup-peer counts, then least-squares fitting
//! [`CostModel`](streamk_core::CostModel) to the samples.
//!
//! The fitted constants describe this machine's microkernel, so they
//! feed the grid-size model when the CPU executor (rather than the
//! A100 simulator) is the execution target — see the
//! `calibrated_gemm` example.

use crate::executor::CpuExecutor;
use crate::microkernel::{mac_loop_kernel, KernelKind, PackBuffers};
use std::time::Instant;
use streamk_core::{CostModel, Decomposition, GridSizeModel, IterSpace};
use streamk_matrix::{Matrix, Promote, Scalar};
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

/// Outcome of [`select_kernel`] / [`select_kernel_on`]: the fastest
/// kernel for this machine plus every candidate's median time, and
/// the problem shape the contest was run on (so benchmark reports can
/// state what the winner actually won — a selection made on a
/// single-tile toy does not transfer to a 512-cubed headline).
#[derive(Debug, Clone)]
pub struct KernelSelection {
    /// The fastest candidate.
    pub best: KernelKind,
    /// `(kernel, median seconds per run)` for every candidate, in the
    /// order tried.
    pub timings: Vec<(KernelKind, f64)>,
    /// The problem shape every candidate was timed on.
    pub shape: GemmShape,
}

impl KernelSelection {
    /// Median time of `kind`, if it was a candidate.
    #[must_use]
    pub fn time_of(&self, kind: KernelKind) -> Option<f64> {
        self.timings.iter().find(|(k, _)| *k == kind).map(|&(_, t)| t)
    }

    /// `kind`'s throughput in GFLOP/s over the calibration shape
    /// (2·m·n·k flops per run), if it was timed and took measurable
    /// time.
    #[must_use]
    pub fn gflops_of(&self, kind: KernelKind) -> Option<f64> {
        let t = self.time_of(kind)?;
        let flops = 2.0 * self.shape.m as f64 * self.shape.n as f64 * self.shape.k as f64;
        (t > 0.0).then(|| flops / t / 1e9)
    }

    /// `best`'s speedup over the [`KernelKind::Blocked`] baseline
    /// (`> 1.0` means the packed pipeline won), if both were timed.
    #[must_use]
    pub fn speedup_vs_blocked(&self) -> Option<f64> {
        let blocked = self.time_of(KernelKind::Blocked)?;
        let best = self.time_of(self.best)?;
        (best > 0.0).then(|| blocked / best)
    }

    /// `best`'s speedup over the [`KernelKind::Scalar`] baseline, if
    /// both were timed.
    #[must_use]
    pub fn speedup_vs_scalar(&self) -> Option<f64> {
        let scalar = self.time_of(KernelKind::Scalar)?;
        let best = self.time_of(self.best)?;
        (best > 0.0).then(|| scalar / best)
    }
}

/// Empirically picks the fastest MAC-loop kernel for `tile` on this
/// machine — the microarchitectural sibling of [`calibrate`]: where
/// that fits the A.1 constants `{a, b, c, d}` for the *grid* model,
/// this measures the per-iteration constant `c` under each register
/// blocking and returns the winner to plug into
/// [`ExecutorConfig::kernel`](crate::ExecutorConfig).
///
/// Times a single-tile, deep-k problem (`k = blk_k · iters`) so the
/// measured quantity is the inner loop itself, not decomposition
/// overhead. Use [`select_kernel_on`] to calibrate against a
/// realistic multi-tile shape instead.
#[must_use]
pub fn select_kernel<In, Acc>(tile: TileShape, iters: usize, reps: usize) -> KernelSelection
where
    In: Promote<Acc>,
    Acc: Scalar,
{
    let shape = GemmShape::new(tile.blk_m, tile.blk_n, tile.blk_k * iters.max(1));
    select_kernel_on::<In, Acc>(tile, shape, reps)
}

/// Times every [`KernelKind`] candidate over `shape` decomposed by
/// `tile` and returns the winner. Unlike [`select_kernel`]'s
/// single-tile microbenchmark, this sweeps *all* tiles of the space
/// each rep, so per-tile pack traffic, cache pressure, and ragged
/// edges are all represented — calibrate on the shape you intend to
/// run, and the recorded [`KernelSelection::shape`] says which that
/// was.
///
/// Candidates are every [`KernelKind::ALL`] entry, timed
/// single-threaded (packing included for panel kernels).
#[must_use]
pub fn select_kernel_on<In, Acc>(tile: TileShape, shape: GemmShape, reps: usize) -> KernelSelection
where
    In: Promote<Acc>,
    Acc: Scalar,
{
    let space = IterSpace::new(shape, tile);
    let a = Matrix::<In>::random::<Acc>(shape.m, shape.k, Layout::RowMajor, 7);
    let b = Matrix::<In>::random::<Acc>(shape.k, shape.n, Layout::RowMajor, 8);
    let (av, bv) = (a.view(), b.view());
    let mut bufs = PackBuffers::new();
    let mut accum = vec![Acc::ZERO; tile.blk_m * tile.blk_n];
    let total = space.iters_per_tile();

    let mut timings = Vec::new();
    for kind in KernelKind::ALL {
        let sweep = |accum: &mut [Acc], bufs: &mut PackBuffers<In>| {
            for t in 0..space.tiles() {
                accum.fill(Acc::ZERO);
                mac_loop_kernel(kind, &av, &bv, &space, t, 0, total, accum, bufs);
            }
        };
        // Warm-up grows the pack buffers and faults pages in.
        sweep(&mut accum, &mut bufs);
        let mut times: Vec<f64> = (0..reps.max(1))
            .map(|_| {
                let t0 = Instant::now();
                sweep(&mut accum, &mut bufs);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        times.sort_by(f64::total_cmp);
        timings.push((kind, times[times.len() / 2]));
    }
    let best = timings
        .iter()
        .min_by(|x, y| x.1.total_cmp(&y.1))
        .map_or(KernelKind::default(), |&(k, _)| k);
    KernelSelection { best, timings, shape }
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

    #[test]
    fn select_kernel_times_every_candidate() {
        let sel = select_kernel::<f32, f32>(TileShape::new(32, 32, 8), 16, 3);
        assert_eq!(sel.timings.len(), KernelKind::ALL.len());
        assert!(sel.timings.iter().all(|&(_, t)| t >= 0.0));
        assert!(sel.time_of(KernelKind::Blocked).is_some());
        assert!(sel.time_of(KernelKind::Scalar).is_some());
        assert!(sel.time_of(sel.best).is_some());
        assert_eq!(sel.shape, GemmShape::new(32, 32, 8 * 16));
        // The winner is the minimum of the recorded timings.
        let min = sel.timings.iter().min_by(|x, y| x.1.total_cmp(&y.1)).unwrap().0;
        assert_eq!(sel.best, min);
    }

    #[test]
    fn select_kernel_on_covers_multi_tile_shapes() {
        // A ragged multi-tile shape: the sweep must still time every
        // candidate and record the shape it measured.
        let shape = GemmShape::new(40, 35, 24);
        let sel = select_kernel_on::<f32, f32>(TileShape::new(16, 16, 8), shape, 2);
        assert_eq!(sel.timings.len(), KernelKind::ALL.len());
        assert_eq!(sel.shape, shape);
        assert!(sel.gflops_of(sel.best).is_some_and(|g| g > 0.0));
    }
}
