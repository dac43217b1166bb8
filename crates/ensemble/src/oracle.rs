//! The idealized kernel-selection oracle.

use crate::tiles::{TileConfig, TileEnsemble};
use streamk_core::Decomposition;
use streamk_sim::{data_parallel_makespan, simulate_with_efficiency, GpuSpec, SimReport};
use streamk_types::GemmShape;

/// An oracle that "will always select the highest performing
/// *data-parallel* CUTLASS blocking factor to execute for a given
/// GEMM instance" (§6 "Methodology") — implemented literally: time
/// every ensemble member, keep the fastest. Every member is a grid of
/// identical whole-tile CTAs, so its simulated makespan is the
/// engine's wave replay under the memory roofline
/// ([`data_parallel_makespan`]), bit for bit what a full simulation
/// would report; only the winner is simulated into a report.
///
/// This is the strongest possible tile-centric baseline; anything the
/// oracle still loses to Stream-K is a utilization level "simply not
/// possible from tile-centric work decompositions".
#[derive(Debug, Clone)]
pub struct Oracle {
    ensemble: TileEnsemble,
}

impl Oracle {
    /// Builds an oracle over `ensemble`.
    ///
    /// # Panics
    ///
    /// Panics on an empty ensemble.
    #[must_use]
    pub fn new(ensemble: TileEnsemble) -> Self {
        assert!(!ensemble.is_empty(), "oracle needs at least one kernel");
        Self { ensemble }
    }

    /// The underlying ensemble.
    #[must_use]
    pub fn ensemble(&self) -> &TileEnsemble {
        &self.ensemble
    }

    /// Ranks every member on `shape` by the makespan its
    /// data-parallel grid would simulate to, and simulates the fastest
    /// (the first of equals, in ensemble order) into its report.
    #[must_use]
    pub fn select(&self, shape: GemmShape, gpu: &GpuSpec) -> (TileConfig, SimReport) {
        let precision = self.ensemble.precision;
        let (config, _) = self
            .ensemble
            .configs
            .iter()
            .map(|&config| (config, data_parallel_makespan(shape, config.tile, gpu, precision, config.mac_efficiency)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty ensemble");
        let d = Decomposition::data_parallel(shape, config.tile);
        (config, simulate_with_efficiency(&d, gpu, precision, config.mac_efficiency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_types::{Precision, TileShape};

    #[test]
    fn oracle_picks_big_tiles_for_big_cubes() {
        // A huge, perfectly divisible cube: the most efficient large
        // blocking should win.
        let oracle = Oracle::new(TileEnsemble::fp16t32());
        let (config, report) = oracle.select(GemmShape::new(8192, 8192, 8192), &GpuSpec::a100());
        assert!(config.mac_efficiency >= 0.99);
        assert!(report.utilization() > 0.8, "{}", report.utilization());
    }

    #[test]
    fn oracle_avoids_padding_waste_on_small_m() {
        // m = 32: a 128-row tile would waste 75% of its compute on
        // padding; the oracle must pick a 32-row blocking.
        let oracle = Oracle::new(TileEnsemble::fp64());
        let (config, _) = oracle.select(GemmShape::new(32, 8192, 4096), &GpuSpec::a100());
        assert_eq!(config.tile.blk_m, 32, "picked {}", config.tile);
    }

    #[test]
    fn oracle_beats_or_matches_every_member() {
        let oracle = Oracle::new(TileEnsemble::fp64());
        let gpu = GpuSpec::a100();
        for shape in [
            GemmShape::new(384, 384, 384),
            GemmShape::new(1000, 700, 300),
            GemmShape::new(130, 130, 8000),
        ] {
            let (_, best) = oracle.select(shape, &gpu);
            for &config in &oracle.ensemble().configs {
                let d = Decomposition::data_parallel(shape, config.tile);
                let r = simulate_with_efficiency(&d, &gpu, Precision::Fp64, config.mac_efficiency);
                assert!(best.makespan <= r.makespan + 1e-15, "{shape} {}", config.tile);
            }
        }
    }

    #[test]
    fn oracle_prefers_quantization_over_raw_efficiency_when_it_pays() {
        // 9 tiles of 128x128 on 4 SMs is the Figure 1 problem: the
        // oracle (given only two configs) must choose the one with the
        // better end-to-end time, which on an ideal GPU is the
        // better-quantizing smaller tile despite lower efficiency.
        let ensemble = TileEnsemble {
            precision: Precision::Fp64,
            configs: vec![
                TileConfig { tile: TileShape::new(128, 128, 16), mac_efficiency: 0.99 },
                TileConfig { tile: TileShape::new(128, 64, 16), mac_efficiency: 0.90 },
            ],
        };
        let oracle = Oracle::new(ensemble);
        let (config, _) = oracle.select(GemmShape::new(384, 384, 128), &GpuSpec::hypothetical_4sm());
        // 75% ceiling at 0.99 eff (≈0.74 effective) loses to 90%
        // ceiling at 0.90 eff (≈0.81 effective).
        assert_eq!(config.tile, TileShape::new(128, 64, 16));
    }
}
