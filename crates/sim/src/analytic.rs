//! Closed-form schedule predictions.
//!
//! For schedules without cross-CTA dependencies and with
//! near-uniform CTA durations, makespans have closed forms. They are
//! cross-checks of the event-driven engine now; the corpus-scale
//! shortcut is `engine::data_parallel_makespan`, which walks the
//! engine's own waves and matches its report bit for bit.

use crate::cost::CtaCosts;
use crate::gpu::GpuSpec;
use streamk_core::Decomposition;
use streamk_types::{ceil_div, GemmShape, TileShape};

/// Closed-form compute makespan of the pure data-parallel schedule:
/// `⌈t / p⌉ · (a + c·iters_per_tile)` — every CTA is identical and
/// independent, so the greedy dispatcher produces exactly
/// `waves` back-to-back rounds.
#[must_use]
pub fn data_parallel_makespan(shape: GemmShape, tile: TileShape, gpu: &GpuSpec, costs: &CtaCosts) -> f64 {
    let tiles = tile.output_tiles(shape);
    let waves = ceil_div(tiles, gpu.sms);
    waves as f64 * (costs.a + costs.c * tile.iters_per_tile(shape) as f64)
}

/// Closed-form *lower bound* on any schedule's compute makespan: the
/// critical-path bound `max(total work / p, longest CTA)`.
#[must_use]
pub fn makespan_lower_bound(decomp: &Decomposition, gpu: &GpuSpec, costs: &CtaCosts) -> f64 {
    let total_work: f64 = decomp
        .ctas()
        .iter()
        .map(|c| costs.a + costs.c * c.len() as f64)
        .sum();
    let longest = decomp
        .ctas()
        .iter()
        .map(|c| costs.a + costs.c * c.len() as f64)
        .fold(0.0f64, f64::max);
    (total_work / gpu.sms as f64).max(longest)
}

/// The analytic quantization-efficiency ceiling of a data-parallel
/// schedule (Figure 1's 75% / 90% numbers): `t / (⌈t/p⌉ · p)`.
#[must_use]
pub fn data_parallel_ceiling(shape: GemmShape, tile: TileShape, sms: usize) -> f64 {
    streamk_types::quantization_efficiency(tile.output_tiles(shape), sms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_types::Precision;
    use crate::cost::DEFAULT_MAC_EFFICIENCY;
    use crate::engine::simulate;

    /// The DES must agree with the closed form exactly for pure
    /// data-parallel schedules on any GPU.
    #[test]
    fn des_matches_closed_form_for_dp() {
        for (m, n, k) in [(384, 384, 128), (4096, 2048, 512), (129, 257, 65)] {
            let shape = GemmShape::new(m, n, k);
            let tile = TileShape::new(64, 64, 16);
            let decomp = Decomposition::data_parallel(shape, tile);
            for gpu in [GpuSpec::a100(), GpuSpec::hypothetical_4sm(), GpuSpec::v100_like()] {
                let costs = CtaCosts::derive(&gpu, Precision::Fp64, tile, DEFAULT_MAC_EFFICIENCY);
                let des = simulate(&decomp, &gpu, Precision::Fp64);
                let closed = data_parallel_makespan(shape, tile, &gpu, &costs);
                assert!(
                    (des.compute_makespan - closed).abs() <= 1e-12 * closed.max(1e-30),
                    "{m}x{n}x{k} on {}: DES {} vs closed {closed}",
                    gpu.name,
                    des.compute_makespan
                );
            }
        }
    }

    /// No simulated schedule may beat the critical-path bound.
    #[test]
    fn des_respects_lower_bound() {
        let shape = GemmShape::new(1000, 700, 900);
        let tile = TileShape::new(64, 64, 16);
        let gpu = GpuSpec::a100();
        for decomp in [
            Decomposition::data_parallel(shape, tile),
            Decomposition::stream_k(shape, tile, gpu.sms),
            Decomposition::two_tile_stream_k_dp(shape, tile, gpu.sms),
            Decomposition::fixed_split(shape, tile, 2),
        ] {
            let costs = CtaCosts::derive(&gpu, Precision::Fp64, tile, DEFAULT_MAC_EFFICIENCY);
            let des = simulate(&decomp, &gpu, Precision::Fp64);
            let bound = makespan_lower_bound(&decomp, &gpu, &costs);
            assert!(
                des.compute_makespan >= bound * (1.0 - 1e-12),
                "{}: DES {} beat bound {bound}",
                decomp.strategy(),
                des.compute_makespan
            );
        }
    }

    /// The analytic ceiling matches the simulated quantization
    /// efficiency on the overhead-free GPU.
    #[test]
    fn ceiling_matches_overhead_free_simulation() {
        let shape = GemmShape::new(384, 384, 128);
        let tile = TileShape::new(128, 128, 128);
        let gpu = GpuSpec::hypothetical_4sm();
        let des = simulate(&Decomposition::data_parallel(shape, tile), &gpu, Precision::Fp64);
        let ceiling = data_parallel_ceiling(shape, tile, gpu.sms);
        assert!((des.quantization_efficiency() - ceiling).abs() < 1e-12);
        assert!((ceiling - 0.75).abs() < 1e-12);
    }
}
