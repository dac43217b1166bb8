//! Simulating grouped decompositions — and uniform batches, each the
//! group of its equal shapes
//! ([`BatchedDecomposition::group`](streamk_core::BatchedDecomposition::group)).
//!
//! A group whose members all take the same iterations per tile goes
//! through the same dispatch as a single GEMM: its global tile ids
//! behave exactly like tile ids, so a data-parallel batch replays by
//! waves and a Stream-K one goes through the event queue. A group of
//! mixed tile depths derives its per-CTA facts, peers included, from
//! the grouped segment walk and always takes the queue. Only the roofline
//! bookkeeping sums over the members.

use crate::cost::{CtaCosts, DEFAULT_MAC_EFFICIENCY};
use crate::engine::{dispatch, finish_report, run_des, CtaFacts, GridDesc, Volume};
use crate::fault::SimFaultPlan;
use crate::gpu::GpuSpec;
use crate::report::SimReport;
use streamk_core::GroupedDecomposition;
use streamk_types::Precision;

/// Simulates a grouped decomposition on `gpu` at `precision`, at the
/// default MAC efficiency.
///
/// # Panics
///
/// Panics if the decomposition is structurally invalid or its
/// dependency graph deadlocks.
#[must_use]
pub fn simulate_grouped(decomp: &GroupedDecomposition, gpu: &GpuSpec, precision: Precision) -> SimReport {
    decomp.validate().expect("invalid grouped decomposition");
    let space = decomp.space();
    let instances = space.instances();
    let costs = CtaCosts::derive(gpu, precision, instances[0].tile(), DEFAULT_MAC_EFFICIENCY);
    let none = SimFaultPlan::none();
    let ipt = instances[0].iters_per_tile();
    let (des, unfinished, partial_records) = if instances.iter().all(|inst| inst.iters_per_tile() == ipt) {
        dispatch(decomp.ctas(), ipt, gpu, &costs, &none)
    } else {
        let grid = segment_grid(decomp);
        let (des, unfinished) = run_des(&grid, gpu, &costs, &none);
        (des, unfinished, grid.partial_records)
    };
    unfinished.assert_none();
    finish_report(des, partial_records, &Volume::of(instances, precision), gpu)
}

/// The grid of a group of any tile depths, from its segment walk: a
/// CTA contributes when its first segment does not start its tile, and
/// opens a tile when its last segment starts one it does not finish.
fn segment_grid(decomp: &GroupedDecomposition) -> GridDesc {
    let space = decomp.space();
    GridDesc::fold(decomp.ctas().iter().map(|cta| {
        let mut segments = space.segments(cta);
        let Some(first) = segments.next() else {
            return (CtaFacts::default(), false);
        };
        let last = segments.last().unwrap_or(first);
        let facts = CtaFacts {
            iters: cta.len(),
            contributes: !first.starts_tile,
            first_seg_iters: first.local_end - first.local_begin,
            peers: 0..0,
        };
        (facts, last.starts_tile && !last.ends_tile)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_core::{BatchedDecomposition, BatchedSpace, Decomposition, GroupedSpace};
    use streamk_types::{GemmShape, TileShape};

    /// The segment walk gives every owner the peers, and the grid the
    /// partial records, that `fixups()` does on groups of mixed tile
    /// depths, empty CTAs included; and it agrees with the uniform-depth
    /// derivation where both apply.
    #[test]
    fn segment_grid_is_the_fixups() {
        use crate::engine::tests::assert_matches_fixups;
        let tile = TileShape::new(64, 64, 16);
        let mixed = [
            GemmShape::new(100, 200, 300),
            GemmShape::new(77, 33, 999),
            GemmShape::new(64, 64, 16),
            GemmShape::new(300, 64, 64),
        ];
        let space = GroupedSpace::new(&mixed, tile);
        for g in (1..=80).chain([space.total_iters() - 1, space.total_iters(), space.total_iters() + 3]) {
            let d = GroupedDecomposition::stream_k(space.clone(), g);
            assert_matches_fixups(&segment_grid(&d), &d.fixups(), &format!("mixed g={g}"));
        }
        let d = GroupedDecomposition::data_parallel(space);
        assert_matches_fixups(&segment_grid(&d), &d.fixups(), "mixed dp");

        let uniform = GroupedSpace::new(&[GemmShape::new(300, 200, 1024), GemmShape::new(128, 900, 1020)], tile);
        let ipt = uniform.instances()[0].iters_per_tile();
        assert!(uniform.instances().iter().all(|inst| inst.iters_per_tile() == ipt));
        for g in [1, 5, 64, 108, uniform.total_iters() + 1] {
            let d = GroupedDecomposition::stream_k(uniform.clone(), g);
            let (walked, derived) = (segment_grid(&d), GridDesc::from_parts(d.ctas(), ipt));
            assert_eq!((walked.facts, walked.partial_records), (derived.facts, derived.partial_records), "g={g}");
        }
    }

    #[test]
    fn single_group_matches_plain_simulation() {
        let shape = GemmShape::new(512, 384, 768);
        let tile = TileShape::FP16_STREAMK;
        let gpu = GpuSpec::a100();
        let grouped = GroupedDecomposition::stream_k(GroupedSpace::new(&[shape], tile), 64);
        let plain = Decomposition::stream_k(shape, tile, 64);
        let rg = simulate_grouped(&grouped, &gpu, Precision::Fp16To32);
        let rp = crate::engine::simulate(&plain, &gpu, Precision::Fp16To32);
        assert!((rg.makespan - rp.makespan).abs() / rp.makespan < 1e-12);
        assert_eq!(rg.useful_flops, rp.useful_flops);
    }

    /// The grouped motivation: a mixture of small instances, each
    /// quantizing badly alone, schedules near-perfectly as one grid.
    #[test]
    fn grouped_stream_k_beats_sequential_launches() {
        let gpu = GpuSpec::a100();
        let tile = TileShape::FP16_STREAMK;
        // A dozen mismatched compute-bound instances.
        let shapes: Vec<GemmShape> = (0..12)
            .map(|i| GemmShape::new(256 + 128 * (i % 4), 384 + 128 * (i % 3), 2048 + 512 * (i % 5)))
            .collect();

        let sequential: f64 = shapes
            .iter()
            .map(|&s| crate::engine::simulate(&Decomposition::data_parallel(s, tile), &gpu, Precision::Fp16To32).makespan)
            .sum();

        let grouped = GroupedDecomposition::stream_k(GroupedSpace::new(&shapes, tile), gpu.sms);
        let r = simulate_grouped(&grouped, &gpu, Precision::Fp16To32);
        assert!(
            r.makespan < sequential / 3.0,
            "grouped {} vs sequential {sequential}",
            r.makespan
        );
        assert!(r.utilization() > 0.7, "utilization {}", r.utilization());
    }

    #[test]
    fn report_is_self_consistent() {
        let gpu = GpuSpec::a100();
        let tile = TileShape::new(64, 64, 16);
        let shapes = [GemmShape::new(100, 200, 300), GemmShape::new(77, 33, 999)];
        let grouped = GroupedDecomposition::stream_k(GroupedSpace::new(&shapes, tile), 32);
        let r = simulate_grouped(&grouped, &gpu, Precision::Fp64);
        let span_iters: usize = r.spans.iter().map(|s| s.iters).sum();
        assert_eq!(span_iters, grouped.space().total_iters());
        assert!(r.utilization() > 0.0 && r.utilization() <= 1.0);
    }

    #[test]
    fn batch_of_one_matches_single_gemm() {
        let shape = GemmShape::new(512, 384, 768);
        let tile = TileShape::FP16_STREAMK;
        let gpu = GpuSpec::a100();
        let batched = BatchedDecomposition::stream_k(BatchedSpace::new(1, shape, tile), 64);
        let single = Decomposition::stream_k(shape, tile, 64);
        let rb = simulate_grouped(batched.group(), &gpu, Precision::Fp16To32);
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
        let r = simulate_grouped(batched.group(), &gpu, Precision::Fp16To32);
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
        let dp = simulate_grouped(BatchedDecomposition::data_parallel(space.clone()).group(), &gpu, Precision::Fp16To32);
        let sk = simulate_grouped(BatchedDecomposition::stream_k(space, gpu.sms).group(), &gpu, Precision::Fp16To32);
        assert!(sk.makespan < dp.makespan);
        assert!(dp.quantization_efficiency() < 0.60);
        assert!(sk.quantization_efficiency() > 0.85);
    }

    #[test]
    fn report_accounting_scales_with_batch() {
        let gpu = GpuSpec::a100();
        let shape = GemmShape::new(256, 256, 512);
        let tile = TileShape::FP16_STREAMK;
        let r1 = simulate_grouped(
            BatchedDecomposition::stream_k(BatchedSpace::new(2, shape, tile), 16).group(),
            &gpu,
            Precision::Fp16To32,
        );
        let r2 = simulate_grouped(
            BatchedDecomposition::stream_k(BatchedSpace::new(4, shape, tile), 16).group(),
            &gpu,
            Precision::Fp16To32,
        );
        assert!((r2.useful_flops / r1.useful_flops - 2.0).abs() < 1e-12);
        assert!(r2.traffic_bytes > r1.traffic_bytes);
    }
}
