//! Probes that do not depend on a workload's inputs: the machine's
//! measured peaks (the roofline denominators) and the unit cost of
//! each `streamk-cpu` mechanism, each taken through public functions.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;
use streamk_core::IterSpace;
use streamk_cpu::{
    CtaScheduler, FixupBoard, PackCache, SimdLevel, TryTake, WaitPolicy, WorkerPool,
};
use streamk_matrix::Matrix;
use streamk_select::{candidates_for, AdaptiveSelector, SelectorConfig};
use streamk_types::{GemmShape, Layout, Precision, TileShape};

/// Independent accumulator chains in the peak loops. Twelve vector
/// chains of a dependent multiply-then-add (8 cycles of latency, 24
/// operations per round at two per cycle) keep both FP ports busy and
/// still fit the sixteen AVX2 registers with the two constants.
const CHAINS: usize = 12;

/// The best of `repeats` timings of `f`, in seconds per call.
pub fn best_of(repeats: usize, mut f: impl FnMut()) -> f64 {
    (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::CHAINS;
    use std::arch::x86_64::*;

    /// Generates `fn(rounds) -> f64` running `rounds` rounds of
    /// `x = step(x, m, a)` over [`CHAINS`] register-resident vectors.
    macro_rules! chain_loop {
        ($name:ident, $feature:literal, $vec:ty, $elem:ty, $lanes:literal, $set1:ident, |$x:ident, $m:ident, $a:ident| $step:expr) => {
            /// # Safety
            ///
            /// The host must support the enabled target feature.
            #[target_feature(enable = $feature)]
            pub unsafe fn $name(rounds: u64) -> f64 {
                let $m = $set1(0.999);
                let $a = $set1(0.001);
                let mut acc: [$vec; CHAINS] = std::array::from_fn(|i| $set1(1.0 + i as $elem));
                for _ in 0..rounds {
                    for $x in acc.iter_mut() {
                        *$x = {
                            let $x = *$x;
                            $step
                        };
                    }
                }
                // Fold every lane into the result so no chain is dead.
                acc.iter()
                    .map(|v| {
                        // SAFETY: a SIMD vector and an array of its
                        // lanes have the same size and no padding.
                        let lanes: [$elem; $lanes] = unsafe { std::mem::transmute(*v) };
                        lanes.iter().map(|l| f64::from(*l)).sum::<f64>()
                    })
                    .sum()
            }
        };
    }

    chain_loop!(
        avx512_f32,
        "avx512f",
        __m512,
        f32,
        16,
        _mm512_set1_ps,
        |x, m, a| _mm512_add_ps(_mm512_mul_ps(x, m), a)
    );
    chain_loop!(
        avx512_f64,
        "avx512f",
        __m512d,
        f64,
        8,
        _mm512_set1_pd,
        |x, m, a| _mm512_add_pd(_mm512_mul_pd(x, m), a)
    );
    chain_loop!(
        avx512_fma_f32,
        "avx512f",
        __m512,
        f32,
        16,
        _mm512_set1_ps,
        |x, m, a| _mm512_fmadd_ps(x, m, a)
    );
    chain_loop!(
        avx2_f32,
        "avx2",
        __m256,
        f32,
        8,
        _mm256_set1_ps,
        |x, m, a| _mm256_add_ps(_mm256_mul_ps(x, m), a)
    );
    chain_loop!(
        avx2_f64,
        "avx2",
        __m256d,
        f64,
        4,
        _mm256_set1_pd,
        |x, m, a| _mm256_add_pd(_mm256_mul_pd(x, m), a)
    );
    chain_loop!(
        avx2_fma_f32,
        "avx2,fma",
        __m256,
        f32,
        8,
        _mm256_set1_ps,
        |x, m, a| _mm256_fmadd_ps(x, m, a)
    );
}

/// The portable stand-in where no vector unit was detected: the same
/// chains over 8-lane arrays, vectorised as far as the compiler can.
fn portable_chain<T>(rounds: u64, m: T, a: T, one: T) -> f64
where
    T: Copy + std::ops::Mul<Output = T> + std::ops::Add<Output = T> + Into<f64>,
{
    let mut acc = [[one; 8]; CHAINS];
    for _ in 0..rounds {
        for chain in &mut acc {
            for x in chain.iter_mut() {
                *x = *x * m + a;
            }
        }
    }
    acc.iter().flatten().map(|x| (*x).into()).sum()
}

/// Which peak loop to run.
#[derive(Debug, Clone, Copy)]
enum Peak {
    MulAddF32,
    MulAddF64,
    FmaF32,
}

/// One-thread register-only peak in GFLOP/s at the detected SIMD
/// width. The multiply-then-add loops are the ceiling for this repo's
/// kernels, which never fuse (bit-exactness); the FMA figure is what
/// the hardware would give a fused tier. 0 for FMA where the host has
/// none.
fn peak_gflops(level: SimdLevel, which: Peak) -> f64 {
    type Loop = Box<dyn Fn(u64) -> f64>;
    #[cfg(target_arch = "x86_64")]
    let (lanes, run): (usize, Loop) = {
        // SAFETY (all arms): the loop's target feature was detected at
        // run time — by `SimdLevel::detect` for AVX-512F/AVX2, by the
        // explicit `fma` check for the AVX2 FMA loop.
        match (level, which) {
            (SimdLevel::Avx512, Peak::MulAddF32) => {
                (16, Box::new(|r| unsafe { x86::avx512_f32(r) }))
            }
            (SimdLevel::Avx512, Peak::MulAddF64) => {
                (8, Box::new(|r| unsafe { x86::avx512_f64(r) }))
            }
            (SimdLevel::Avx512, Peak::FmaF32) => {
                (16, Box::new(|r| unsafe { x86::avx512_fma_f32(r) }))
            }
            (SimdLevel::Avx2, Peak::MulAddF32) => (8, Box::new(|r| unsafe { x86::avx2_f32(r) })),
            (SimdLevel::Avx2, Peak::MulAddF64) => (4, Box::new(|r| unsafe { x86::avx2_f64(r) })),
            (SimdLevel::Avx2, Peak::FmaF32) if is_x86_feature_detected!("fma") => {
                (8, Box::new(|r| unsafe { x86::avx2_fma_f32(r) }))
            }
            (_, Peak::FmaF32) => return 0.0,
            (_, Peak::MulAddF32) => (8, Box::new(|r| portable_chain(r, 0.999f32, 0.001, 1.0))),
            (_, Peak::MulAddF64) => (8, Box::new(|r| portable_chain(r, 0.999f64, 0.001, 1.0))),
        }
    };
    #[cfg(not(target_arch = "x86_64"))]
    let (lanes, run): (usize, Loop) = match which {
        Peak::FmaF32 => return 0.0,
        Peak::MulAddF32 => (8, Box::new(|r| portable_chain(r, 0.999f32, 0.001, 1.0))),
        Peak::MulAddF64 => (8, Box::new(|r| portable_chain(r, 0.999f64, 0.001, 1.0))),
    };
    let _ = level;
    const ROUNDS: u64 = 4_000_000;
    let secs = best_of(5, || {
        std::hint::black_box(run(std::hint::black_box(ROUNDS)));
    });
    // Two floating-point operations per lane per chain per round.
    (ROUNDS as usize * CHAINS * lanes * 2) as f64 / secs / 1e9
}

/// The machine's one-thread compute ceilings in GFLOP/s, taken in the
/// same run as every figure that is divided by them.
#[derive(Debug, Clone, Copy)]
pub struct Peaks {
    pub mul_add_f32: f64,
    pub mul_add_f64: f64,
    pub fma_f32: f64,
}

pub fn peaks() -> Peaks {
    let level = SimdLevel::detect();
    Peaks {
        mul_add_f32: peak_gflops(level, Peak::MulAddF32),
        mul_add_f64: peak_gflops(level, Peak::MulAddF64),
        fma_f32: peak_gflops(level, Peak::FmaF32),
    }
}

/// The largest cache level's size in bytes as sysfs reports it for
/// cpu0; 32 MiB where it cannot be read.
fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .filter_map(|s| {
            let s = s.trim();
            let (digits, unit) =
                s.split_at(s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len()));
            let scale = match unit {
                "K" => 1 << 10,
                "M" => 1 << 20,
                "G" => 1 << 30,
                _ => 1,
            };
            digits.parse::<usize>().ok().map(|n| n * scale)
        })
        .max()
        .unwrap_or(32 << 20)
}

/// One-thread read bandwidth over an array four times the last-level
/// cache (capped at 2 GiB so the probe cannot exhaust a small host),
/// best of two passes. Returns `(GB/s, cache MB, array MB)`; bytes are
/// computed from the array size.
pub fn stream_read() -> (f64, f64, f64) {
    let llc = llc_bytes();
    let bytes = (4 * llc).min(2 << 30);
    let data = vec![1u64; bytes / 8];
    let secs = best_of(2, || {
        std::hint::black_box(
            std::hint::black_box(&data)
                .iter()
                .copied()
                .fold(0u64, u64::wrapping_add),
        );
    });
    const MB: f64 = (1 << 20) as f64;
    (
        bytes as f64 / secs / 1e9,
        llc as f64 / MB,
        bytes as f64 / MB,
    )
}

/// `WorkerPool::run` of an empty job on `workers` threads: the wake,
/// barrier and join every launch pays. Mean of 2 000 launches, µs.
pub fn pool_launch_us(workers: usize) -> f64 {
    const LAUNCHES: usize = 2_000;
    let pool = WorkerPool::new(workers);
    let job = |_: usize, _: &mut streamk_cpu::ScratchStore| {};
    for _ in 0..100 {
        pool.run(&job);
    }
    let t0 = Instant::now();
    for _ in 0..LAUNCHES {
        pool.run(&job);
    }
    t0.elapsed().as_secs_f64() * 1e6 / LAUNCHES as f64
}

/// `CtaScheduler::next` draining a million CTAs: ns per claim alone
/// on one range, and thread-ns per claim with `workers` threads
/// draining their ranges (and stealing) at once.
pub fn sched_claim_ns(workers: usize) -> (f64, f64) {
    const CTAS: usize = 1 << 20;
    let drain = |threads: usize| {
        let sched = CtaScheduler::new(CTAS, threads);
        let barrier = Barrier::new(threads);
        let claimed = AtomicUsize::new(0);
        let slowest_ns = AtomicU64::new(0);
        std::thread::scope(|s| {
            for w in 0..threads {
                let (sched, barrier, claimed, slowest_ns) =
                    (&sched, &barrier, &claimed, &slowest_ns);
                s.spawn(move || {
                    barrier.wait();
                    let t0 = Instant::now();
                    let mut n = 0;
                    while sched.next(w).is_some() {
                        n += 1;
                    }
                    slowest_ns.fetch_max(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    claimed.fetch_add(n, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(
            claimed.load(Ordering::Relaxed),
            CTAS,
            "every CTA is claimed exactly once"
        );
        slowest_ns.load(Ordering::Relaxed) as f64 * threads as f64 / CTAS as f64
    };
    (drain(1), drain(workers))
}

/// One fixup hand-off between two threads: `store_and_signal` of a
/// tile-sized partial by one, `try_take` polling by the other; the
/// signaler waits for each take before the next store, so hand-offs
/// do not overlap. Median µs from the start of the store to the end
/// of the take.
pub fn fixup_signal_take_us(tile_len: usize) -> f64 {
    const HANDOFFS: usize = 2_000;
    let board = FixupBoard::<f32>::new(HANDOFFS);
    let epoch = Instant::now();
    let taken = AtomicUsize::new(0);
    let stored_at: Vec<AtomicU64> = (0..HANDOFFS).map(|_| AtomicU64::new(0)).collect();
    let mut latencies = vec![0.0f64; HANDOFFS];
    std::thread::scope(|s| {
        s.spawn(|| {
            for (i, stored) in stored_at.iter().enumerate() {
                while taken.load(Ordering::Acquire) < i {
                    std::hint::spin_loop();
                }
                let partial = vec![1.0f32; tile_len];
                // Published before the flag's release-store, so the
                // taker's acquire of the flag also sees this.
                stored.store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
                board
                    .store_and_signal(i, partial)
                    .expect("each slot is signaled once");
            }
        });
        for (i, latency) in latencies.iter_mut().enumerate() {
            loop {
                match board.try_take(i) {
                    TryTake::Ready(partial) => {
                        let now = epoch.elapsed().as_nanos() as u64;
                        std::hint::black_box(partial);
                        *latency =
                            now.saturating_sub(stored_at[i].load(Ordering::Relaxed)) as f64 / 1e3;
                        break;
                    }
                    TryTake::Pending => std::hint::spin_loop(),
                    TryTake::Poisoned => unreachable!("nothing poisons this board"),
                }
            }
            taken.store(i + 1, Ordering::Release);
        }
    });
    crate::stats::median(&latencies)
}

/// `PackCache::a_panel` on a slot that is already READY: the flag
/// load and read-lock every cached MAC segment pays, ns per call.
pub fn packcache_hit_ns() -> f64 {
    const HITS: usize = 1_000_000;
    let shape = GemmShape::new(64, 64, 256);
    let space = IterSpace::new(shape, TileShape::new(64, 64, 16));
    let a = Matrix::<f32>::random::<f32>(shape.m, shape.k, Layout::RowMajor, 1);
    let cache = PackCache::<f32>::new(&space, 8, 32, WaitPolicy::default());
    drop(
        cache
            .a_panel(&a.view(), 0, 0)
            .expect("the first caller packs"),
    );
    let t0 = Instant::now();
    for _ in 0..HITS {
        std::hint::black_box(
            cache
                .a_panel(&a.view(), 0, 0)
                .expect("the slot is ready")
                .len(),
        );
    }
    t0.elapsed().as_secs_f64() * 1e9 / HITS as f64
}

/// `candidates_for` building one slate, and `select_frozen` on a
/// class whose whole slate has been measured; mean µs each.
pub fn select_us(shape: GemmShape, workers: usize) -> (f64, f64) {
    const SELECTS: usize = 20_000;
    let config = SelectorConfig::new(Precision::Fp64, workers);
    // A slate costs from 0.3 ms to 17 ms depending on the shape, so
    // the repeat count follows the clock: 50 ms, three calls at least.
    let t0 = Instant::now();
    let mut slates = 0;
    while slates < 3 || t0.elapsed().as_secs_f64() < 0.05 {
        std::hint::black_box(candidates_for(
            shape,
            config.precision,
            workers,
            config.top_k,
        ));
        slates += 1;
    }
    let slate_us = t0.elapsed().as_secs_f64() * 1e6 / slates as f64;

    let mut selector = AdaptiveSelector::new(config);
    let (_, slate) = selector.slate(shape, Layout::RowMajor);
    for round in 0..slate.len() + 2 {
        let selection = selector.select(shape, Layout::RowMajor);
        selector.feedback_raw(
            &selection,
            1e-3 * (1 + (selection.index + round) % 5) as f64,
            0.0,
        );
    }
    let t0 = Instant::now();
    for _ in 0..SELECTS {
        std::hint::black_box(selector.select_frozen(shape, Layout::RowMajor));
    }
    (slate_us, t0.elapsed().as_secs_f64() * 1e6 / SELECTS as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_size_parses_sysfs_units() {
        // Whatever the host reports, the probe must size a non-empty
        // array from it.
        assert!(llc_bytes() >= 1 << 10);
    }

    #[test]
    fn peak_loops_count_their_flops() {
        // 0.999·x + 0.001 converges to 1 from any start, so the folded
        // lanes stay finite; the loop must not be optimised away.
        assert!(portable_chain(1000, 0.999f32, 0.001, 1.0).is_finite());
        assert!(peak_gflops(SimdLevel::detect(), Peak::MulAddF32) > 0.0);
    }
}
