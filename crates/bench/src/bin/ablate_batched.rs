//! Ablation A7 (§7 future work, batched form): one Stream-K grid over
//! a batch of small GEMMs vs per-instance data-parallel dispatch.
//!
//! Sweeps batch size for an attention-sized instance and reports the
//! simulated A100 makespans (per-instance dispatch pays one launch
//! per GEMM and quantizes each small grid independently; batched
//! Stream-K pays one launch and balances globally).

use streamk_core::{BatchedDecomposition, BatchedSpace, Decomposition};
use streamk_sim::{simulate, simulate_grouped, GpuSpec};
use streamk_types::{GemmShape, Precision, TileShape};

fn main() {
    let gpu = GpuSpec::a100();
    let precision = Precision::Fp16To32;
    // One attention-head-sized instance: 3x3 tiles at the default
    // blocking, deep enough k to be compute-bound.
    let shape = GemmShape::new(384, 384, 4096);
    let tile = TileShape::FP16_STREAMK;

    println!("batch,global_tiles,per_instance_s,batched_dp_s,batched_sk_s,sk_vs_per_instance,sk_vs_batched_dp,sk_util");
    for batch in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let per_instance: f64 = (0..batch)
            .map(|_| simulate(&Decomposition::data_parallel(shape, tile), &gpu, precision).makespan)
            .sum();

        let space = BatchedSpace::new(batch, shape, tile);
        let global_tiles = space.tiles();
        let bdp = simulate_grouped(BatchedDecomposition::data_parallel(space.clone()).group(), &gpu, precision);
        let bsk = simulate_grouped(BatchedDecomposition::stream_k(space, gpu.sms).group(), &gpu, precision);

        println!(
            "{batch},{global_tiles},{per_instance:.4e},{:.4e},{:.4e},{:.2},{:.2},{:.3}",
            bdp.makespan,
            bsk.makespan,
            per_instance / bsk.makespan,
            bdp.makespan / bsk.makespan,
            bsk.utilization()
        );
    }
    eprintln!("# expectation: per-instance dispatch wastes ~(1 - 9/108) of the machine per");
    eprintln!("# launch; batched Stream-K approaches full utilization once the batch");
    eprintln!("# supplies more than one wave of work.");
}
