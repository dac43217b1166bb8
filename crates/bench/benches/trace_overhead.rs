//! Criterion bench of the tracing layer's overhead: the same 256³
//! Stream-K launch with span recording off and on.
//!
//! The observability contract is that tracing costs ≤5% wall time —
//! recording is a thread-local ring write plus two `Instant::now`
//! calls per span, no locks, no allocation. The gated figure is the
//! service's (`crates/cpu/tests/timing.rs`, run with `--ignored`); this
//! bench is the statistically careful look at a direct launch.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use streamk_core::Decomposition;
use streamk_cpu::CpuExecutor;
use streamk_matrix::Matrix;
use streamk_types::{GemmShape, Layout, TileShape};

const THREADS: usize = 4;

fn trace_overhead(c: &mut Criterion) {
    let shape = GemmShape::new(256, 256, 256);
    let tile = TileShape::new(32, 32, 16);
    let decomp = Decomposition::stream_k(shape, tile, THREADS);
    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, 1);
    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, 2);

    let mut group = c.benchmark_group("trace_overhead_256");
    group.sample_size(20);
    for (name, tracing) in [("trace_off", false), ("trace_on", true)] {
        let exec = CpuExecutor::with_threads(THREADS).with_trace(tracing);
        group.bench_function(name, |bencher| {
            bencher.iter(|| black_box(exec.gemm::<f64, f64>(black_box(&a), black_box(&b), &decomp)));
        });
    }
    group.finish();
}

criterion_group!(benches, trace_overhead);
criterion_main!(benches);
