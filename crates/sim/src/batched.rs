//! Simulating batched decompositions.
//!
//! A [`BatchedDecomposition`] runs through the same dispatch as a
//! single GEMM — its global tile ids behave exactly like tile ids, so a
//! data-parallel batch replays by waves and a Stream-K batch goes
//! through the event queue. Only the roofline bookkeeping differs:
//! compulsory input traffic and useful FLOPs scale with the batch.

use crate::cost::{CtaCosts, DEFAULT_MAC_EFFICIENCY};
use crate::engine::{dispatch, finish_report, Volume};
use crate::fault::SimFaultPlan;
use crate::gpu::GpuSpec;
use crate::report::SimReport;
use streamk_core::BatchedDecomposition;
use streamk_types::Precision;

/// Simulates a batched decomposition on `gpu` at `precision`, at the
/// default MAC efficiency.
///
/// # Panics
///
/// Panics if the decomposition is structurally invalid or its
/// dependency graph deadlocks.
#[must_use]
pub fn simulate_batched(decomp: &BatchedDecomposition, gpu: &GpuSpec, precision: Precision) -> SimReport {
    decomp.validate().expect("invalid batched decomposition");
    let space = decomp.space();
    let instance = space.instance();
    let costs = CtaCosts::derive(gpu, precision, instance.tile(), DEFAULT_MAC_EFFICIENCY);
    let none = SimFaultPlan::none();
    let (des, unfinished, partial_records) =
        dispatch(decomp.ctas(), space.iters_per_tile(), || decomp.fixups(), gpu, &costs, &none);
    unfinished.assert_none();
    finish_report(des, partial_records, &Volume::of(instance, precision, space.batch()), gpu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_core::{BatchedSpace, Decomposition};
    use streamk_types::{GemmShape, TileShape};

    #[test]
    fn batch_of_one_matches_single_gemm() {
        let shape = GemmShape::new(512, 384, 768);
        let tile = TileShape::FP16_STREAMK;
        let gpu = GpuSpec::a100();
        let batched = BatchedDecomposition::stream_k(BatchedSpace::new(1, shape, tile), 64);
        let single = Decomposition::stream_k(shape, tile, 64);
        let rb = simulate_batched(&batched, &gpu, Precision::Fp16To32);
        let rs = crate::engine::simulate(&single, &gpu, Precision::Fp16To32);
        assert!((rb.makespan - rs.makespan).abs() / rs.makespan < 1e-12);
        assert_eq!(rb.useful_flops, rs.useful_flops);
    }

    /// The batched motivation: many tiny instances quantize terribly
    /// as per-instance grids but perfectly as one Stream-K grid.
    #[test]
    fn batched_stream_k_beats_per_instance_dispatch() {
        let gpu = GpuSpec::a100();
        // 40 instances x 9 tiles = 360 global tiles; per-instance DP
        // would run 9 CTAs on 108 SMs, 40 times (with 40 launches).
        let shape = GemmShape::new(384, 384, 2048);
        let tile = TileShape::FP16_STREAMK;

        let per_instance_makespan: f64 = (0..40)
            .map(|_| {
                crate::engine::simulate(&Decomposition::data_parallel(shape, tile), &gpu, Precision::Fp16To32)
                    .makespan
            })
            .sum();

        let batched = BatchedDecomposition::stream_k(BatchedSpace::new(40, shape, tile), gpu.sms);
        let r = simulate_batched(&batched, &gpu, Precision::Fp16To32);
        assert!(
            r.makespan < per_instance_makespan / 5.0,
            "batched {} vs per-instance {}",
            r.makespan,
            per_instance_makespan
        );
        assert!(r.utilization() > 0.8, "utilization {}", r.utilization());
    }

    #[test]
    fn batched_dp_still_quantizes_badly() {
        let gpu = GpuSpec::a100();
        // 13 compute-bound instances x 9 tiles = 117 global tiles on
        // 108 SMs: the classic partial second wave, now arising from
        // the batch axis.
        let shape = GemmShape::new(384, 384, 4096);
        let tile = TileShape::FP16_STREAMK;
        let space = BatchedSpace::new(13, shape, tile);
        assert_eq!(space.tiles(), 117);
        let dp = simulate_batched(&BatchedDecomposition::data_parallel(space.clone()), &gpu, Precision::Fp16To32);
        let sk = simulate_batched(&BatchedDecomposition::stream_k(space, gpu.sms), &gpu, Precision::Fp16To32);
        assert!(sk.makespan < dp.makespan);
        assert!(dp.quantization_efficiency() < 0.60);
        assert!(sk.quantization_efficiency() > 0.85);
    }

    #[test]
    fn report_accounting_scales_with_batch() {
        let gpu = GpuSpec::a100();
        let shape = GemmShape::new(256, 256, 512);
        let tile = TileShape::FP16_STREAMK;
        let r1 = simulate_batched(
            &BatchedDecomposition::stream_k(BatchedSpace::new(2, shape, tile), 16),
            &gpu,
            Precision::Fp16To32,
        );
        let r2 = simulate_batched(
            &BatchedDecomposition::stream_k(BatchedSpace::new(4, shape, tile), 16),
            &gpu,
            Precision::Fp16To32,
        );
        assert!((r2.useful_flops / r1.useful_flops - 2.0).abs() < 1e-12);
        assert!(r2.traffic_bytes > r1.traffic_bytes);
    }
}
