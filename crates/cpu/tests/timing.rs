//! Timing gates: the two wall-clock contracts, kept out of the default
//! test run (`#[ignore]`) because their verdict depends on the machine
//! and its neighbours. CI runs them by name:
//!
//! ```text
//! cargo test --release -p streamk-cpu --test timing -- --ignored --nocapture
//! ```
//!
//! 1. **Scaling**: a 128³ f32 Stream-K launch (grid = workers, pack
//!    cache on) at 4 workers keeps ≥ 70 % of the 1-worker rate per
//!    worker. Enforced only when the machine has at least 4 cores;
//!    below that 4 workers oversubscribe it, the curve is flat by
//!    construction, and the figure is printed, not judged.
//! 2. **Serve tracing**: per-request span recording costs ≤ 5 % of a
//!    fault-free burst through `GemmService`, as min-of-reps over
//!    interleaved untraced/traced bursts (a slow window hits both arms
//!    alike; the fastest rep is the least-perturbed observation).
//! 3. **Bands**: a 1024³ f32 launch on 2 workers whose grid splits no
//!    tile, walked in the bands the launch picks along its packed B
//!    (DESIGN.md §9, "Bands along the packed operand"), beats the same
//!    launch pinned row-major in at least 6 of 10 interleaved rounds —
//!    it does by 3–7 % in the median round; a round is too short to win
//!    all ten against a shared host's swings. Enforced only when the
//!    machine has at least 2 cores.
//!
//! The three hold one lock, so none times another's workers.

use std::sync::Mutex;
use std::time::Instant;
use streamk_core::{Decomposition, TileOrder};
use streamk_cpu::{CpuExecutor, GemmService, LaunchRequest, ServeConfig};
use streamk_matrix::Matrix;
use streamk_types::{GemmShape, Layout, TileShape};

static SERIAL: Mutex<()> = Mutex::new(());

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Median wall time of five launches of a 128³ f32 Stream-K GEMM
/// (grid = workers) through one warm executor.
fn launch_median_s(threads: usize) -> f64 {
    let shape = GemmShape::new(128, 128, 128);
    let decomp = Decomposition::stream_k(shape, TileShape::new(64, 64, 16), threads);
    let a = Matrix::<f32>::random::<f32>(shape.m, shape.k, Layout::RowMajor, 1);
    let b = Matrix::<f32>::random::<f32>(shape.k, shape.n, Layout::RowMajor, 2);
    let exec = CpuExecutor::with_threads(threads);
    let _ = exec.gemm::<f32, f32>(&a, &b, &decomp); // warm-up: pool, arenas, pages
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let _ = exec.gemm::<f32, f32>(&a, &b, &decomp);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

#[test]
#[ignore = "timing gate: run by name with --ignored"]
fn four_workers_keep_seventy_percent_parallel_efficiency() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (t1, t4) = (launch_median_s(1), launch_median_s(4));
    let efficiency_pct = t1 / t4 / 4.0 * 100.0;
    let cores = nproc();
    println!("4-worker parallel efficiency: {efficiency_pct:.1}% (1 worker {t1:.3e}s, 4 workers {t4:.3e}s; {cores} cores)");
    if cores < 4 {
        println!("report-only: 4 workers oversubscribe this {cores}-core machine");
        return;
    }
    assert!(
        efficiency_pct >= 70.0,
        "4-worker efficiency {efficiency_pct:.1}% is below the 70% floor"
    );
}

/// Requests per serve burst: enough that a burst lasts several
/// milliseconds even on two cores, so the per-request tracing cost, not
/// the service's start-up or the scheduler's noise, decides the gate.
const BURST: usize = 96;

/// Wall time of one fault-free burst of [`BURST`] requests through a
/// fresh service; `traced` toggles per-request span rings and nothing
/// else.
fn serve_burst_s(threads: usize, traced: bool) -> f64 {
    // Heavy enough that each request's MAC work dwarfs per-span
    // bookkeeping: the tracing tax on real requests, not on ring set-up.
    let shape = GemmShape::new(160, 128, 96);
    let decomp = Decomposition::stream_k(shape, TileShape::new(16, 16, 8), threads.clamp(2, 4));
    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, 0x7E1E);
    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, 0x7E1F);
    let exec = CpuExecutor::with_threads(threads);
    let config = ServeConfig::default()
        .with_window(4)
        .with_capacity(BURST)
        .with_trace(traced)
        .with_trace_capacity(512);
    let service = GemmService::<f64, f64>::start(&exec, config);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..BURST)
        .map(|_| {
            service
                .submit(LaunchRequest::new(a.clone(), b.clone(), decomp.clone()))
                .expect("burst fits the queue")
        })
        .collect();
    for h in handles {
        h.wait().expect("fault-free request completes");
    }
    let wall = t0.elapsed().as_secs_f64();
    service.shutdown();
    wall
}

#[test]
#[ignore = "timing gate: run by name with --ignored"]
fn serve_tracing_costs_at_most_five_percent() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Workers stay within the machine: oversubscription would measure
    // the scheduler, not the tracer.
    let threads = nproc().min(8);
    let (mut untraced, mut traced) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        untraced = untraced.min(serve_burst_s(threads, false));
        traced = traced.min(serve_burst_s(threads, true));
    }
    // A negative delta is noise in the traced arm's favour, not a
    // tracing speed-up: the gated figure clamps at zero.
    let raw_pct = (traced - untraced) / untraced * 100.0;
    let overhead_pct = raw_pct.max(0.0);
    println!("serve tracing overhead: untraced {untraced:.3e}s traced {traced:.3e}s ({raw_pct:+.2}% raw) on {threads} workers");
    assert!(
        overhead_pct <= 5.0,
        "serve tracing costs {overhead_pct:.2}% > 5%"
    );
}

/// One round of the bands gate: `LAUNCHES` launches of each of `pair`
/// through `exec` into `c`, alternating launch by launch so that a slow
/// stretch of the host hits both, and each side's median wall time. A
/// held output keeps a launch from paying page faults for the one
/// before it.
fn round_medians_s(
    exec: &CpuExecutor,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    c: &mut Matrix<f32>,
    pair: [&Decomposition; 2],
) -> [f64; 2] {
    const LAUNCHES: usize = 7;
    let mut times = [Vec::with_capacity(LAUNCHES), Vec::with_capacity(LAUNCHES)];
    for launch in 0..LAUNCHES {
        for side in [launch % 2, 1 - launch % 2] {
            let t0 = Instant::now();
            exec.gemm_ex(1.0, &a.view(), &b.view(), 0.0, c, pair[side]);
            times[side].push(t0.elapsed().as_secs_f64());
        }
    }
    times.map(|mut side| {
        side.sort_by(f64::total_cmp);
        side[LAUNCHES / 2]
    })
}

#[test]
#[ignore = "timing gate: run by name with --ignored"]
fn banded_launches_beat_row_major_in_most_rounds() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // `direct-square`'s launch: one tile per CTA, A read in place, B's
    // 4 KiB rows packed.
    let shape = GemmShape::new(1024, 1024, 1024);
    let banded = Decomposition::data_parallel(shape, TileShape::new(64, 64, 16));
    let row_major = banded.clone().with_tile_order(TileOrder::RowMajor);
    let a = Matrix::<f32>::random::<f32>(shape.m, shape.k, Layout::RowMajor, 1);
    let b = Matrix::<f32>::random::<f32>(shape.k, shape.n, Layout::RowMajor, 2);
    let mut c = Matrix::<f32>::zeros(shape.m, shape.n, Layout::RowMajor);
    let exec = CpuExecutor::with_threads(2);
    let _ = round_medians_s(&exec, &a, &b, &mut c, [&banded, &row_major]); // warm-up: pool, arena
    let rounds: Vec<[f64; 2]> =
        (0..10).map(|_| round_medians_s(&exec, &a, &b, &mut c, [&banded, &row_major])).collect();
    let wins = rounds.iter().filter(|[bd, rm]| bd < rm).count();
    let mut ratios: Vec<f64> = rounds.iter().map(|[bd, rm]| bd / rm).collect();
    ratios.sort_by(f64::total_cmp);
    let cores = nproc();
    println!(
        "banded vs row-major: faster in {wins} of 10 rounds, median ratio {:.3} (range {:.3}..{:.3}; {cores} cores)",
        ratios[5], ratios[0], ratios[9]
    );
    if cores < 2 {
        println!("report-only: 2 workers oversubscribe this {cores}-core machine");
        return;
    }
    assert!(wins >= 6, "the banded launch lost {} of 10 rounds to row-major", 10 - wins);
}
