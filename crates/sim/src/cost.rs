//! Per-CTA cost derivation.
//!
//! Translates a simulated GPU's physical parameters into the four
//! workload constants of the Appendix A.1 CTA runtime model, in
//! seconds, for a given precision and blocking factor.
//!
//! The time scale comes from physics: one MAC-loop iteration of a
//! `BLK_M × BLK_N × BLK_K` tile runs on a *single SM*, so
//! `c = 2·BLK_M·BLK_N·BLK_K · p / (peak · efficiency)` seconds (the
//! whole-GPU peak divided by `p` SMs). The *ratios* `a/c`, `b/c`,
//! `d/c` come from the calibrated
//! [`CostModel`] — the same constants the
//! Appendix A.1 grid-size selector uses, so the simulator and the
//! launch heuristic agree about the cost of splitting (exactly as the
//! paper's microbenchmark-calibrated deployment would).

use crate::gpu::GpuSpec;
use streamk_core::CostModel;
use streamk_types::{Precision, TileShape};

/// The Appendix A.1 constants in seconds for one (GPU, precision,
/// blocking, efficiency) combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtaCosts {
    /// Fixed per-CTA cost, seconds.
    pub a: f64,
    /// Partial-store + signal cost, seconds.
    pub b: f64,
    /// Per-MAC-iteration cost, seconds.
    pub c: f64,
    /// Per-peer fixup (wait bookkeeping + load + accumulate) cost,
    /// seconds.
    pub d: f64,
}

/// The fraction of peak throughput the paper's chosen blocking factors
/// achieve on very large volumes (§5.1: "the smallest CTA-wide tile
/// size capable of achieving 99% of the GPU's peak").
pub const DEFAULT_MAC_EFFICIENCY: f64 = 0.99;

impl CtaCosts {
    /// Derives the constants for `tile` at `precision` on `gpu`,
    /// where `mac_efficiency ∈ (0, 1]` is the fraction of peak this
    /// blocking factor can sustain (smaller tiles hide less latency
    /// and sustain less — §3.2).
    ///
    /// # Panics
    ///
    /// Panics if `mac_efficiency` is not in `(0, 1]`.
    #[must_use]
    pub fn derive(gpu: &GpuSpec, precision: Precision, tile: TileShape, mac_efficiency: f64) -> Self {
        assert!(
            mac_efficiency > 0.0 && mac_efficiency <= 1.0,
            "mac_efficiency must be in (0, 1], got {mac_efficiency}"
        );
        // Per-SM sustained throughput for this blocking factor.
        let per_sm_flops = gpu.peak_flops(precision) * mac_efficiency / gpu.sms as f64;
        let flops_per_iter = 2.0 * tile.macs_per_iter() as f64;
        let c = flops_per_iter / per_sm_flops;

        let units: CostModel = gpu.cost_units(precision);
        CtaCosts {
            a: units.a / units.c * c,
            b: units.b / units.c * c,
            c,
            d: units.d / units.c * c,
        }
    }

    /// Constants at the default 99%-of-peak efficiency.
    #[must_use]
    pub fn default_for(gpu: &GpuSpec, precision: Precision, tile: TileShape) -> Self {
        Self::derive(gpu, precision, tile, DEFAULT_MAC_EFFICIENCY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp16_iteration_cost_magnitude() {
        let gpu = GpuSpec::a100();
        let costs = CtaCosts::default_for(&gpu, Precision::Fp16To32, TileShape::FP16_STREAMK);
        // One 128×128×32 iteration = 1,048,576 flops at a per-SM peak
        // of ~2.04 TFLOP/s ≈ 0.51 µs.
        assert!((4.0e-7..6.5e-7).contains(&costs.c), "c = {}", costs.c);
        // Fixup costs sit between one iteration and one tile
        // (32 iterations).
        assert!(costs.d > costs.c);
        assert!(costs.d < 32.0 * costs.c);
    }

    #[test]
    fn fp64_iteration_cost_magnitude() {
        let gpu = GpuSpec::a100();
        let costs = CtaCosts::default_for(&gpu, Precision::Fp64, TileShape::FP64_STREAMK);
        // One 64×64×16 iteration = 131,072 flops at a per-SM peak of
        // ~127 GFLOP/s ≈ 1.03 µs.
        assert!((0.8e-6..1.3e-6).contains(&costs.c), "c = {}", costs.c);
    }

    #[test]
    fn ratios_match_calibrated_model() {
        let gpu = GpuSpec::a100();
        let units = CostModel::a100_fp16();
        let costs = CtaCosts::default_for(&gpu, Precision::Fp16To32, TileShape::FP16_STREAMK);
        assert!((costs.d / costs.c - units.d / units.c).abs() < 1e-9);
        assert!((costs.a / costs.c - units.a / units.c).abs() < 1e-9);
    }

    #[test]
    fn aggregate_mac_time_matches_peak() {
        // Total MAC time across all SMs must equal flops / (peak·eff):
        // the simulator can neither create nor destroy throughput.
        let gpu = GpuSpec::a100();
        let tile = TileShape::FP16_STREAMK;
        let costs = CtaCosts::derive(&gpu, Precision::Fp16To32, tile, 1.0);
        let iters = 1_000u64;
        let agg_sm_seconds = costs.c * iters as f64;
        let flops = 2.0 * tile.macs_per_iter() as f64 * iters as f64;
        let ideal_gpu_seconds = flops / gpu.peak_flops(Precision::Fp16To32);
        assert!((agg_sm_seconds / gpu.sms as f64 - ideal_gpu_seconds).abs() / ideal_gpu_seconds < 1e-12);
    }

    #[test]
    fn hypothetical_gpu_has_zero_overheads() {
        let gpu = GpuSpec::hypothetical_4sm();
        let costs = CtaCosts::default_for(&gpu, Precision::Fp64, TileShape::new(128, 128, 4));
        assert_eq!(costs.a, 0.0);
        assert_eq!(costs.b, 0.0);
        assert_eq!(costs.d, 0.0);
        assert!(costs.c > 0.0);
    }

    #[test]
    fn lower_efficiency_raises_all_costs_proportionally() {
        let gpu = GpuSpec::a100();
        let tile = TileShape::new(64, 64, 16);
        let full = CtaCosts::derive(&gpu, Precision::Fp64, tile, 1.0);
        let half = CtaCosts::derive(&gpu, Precision::Fp64, tile, 0.5);
        assert!((half.c / full.c - 2.0).abs() < 1e-12);
        assert!((half.d / full.d - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mac_efficiency")]
    fn rejects_zero_efficiency() {
        let gpu = GpuSpec::a100();
        let _ = CtaCosts::derive(&gpu, Precision::Fp64, TileShape::FP64_STREAMK, 0.0);
    }
}
