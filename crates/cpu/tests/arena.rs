//! The executor's pack arena from outside: a steady-state launch
//! allocates no pack storage, a launch that reads every operand in
//! place never touches it, retention follows one launch's
//! consumption, the storage goes with the executor, and recycling
//! dirty storage across launches of different kinds and shapes never
//! shows in a result.
//!
//! The first three properties are counted by a `#[global_allocator]`
//! wrapper, which sees every thread of the process — so the tests of
//! this binary take [`alloc_gate`] and run one at a time.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use streamk_core::{
    BatchedDecomposition, BatchedSpace, Decomposition, GroupedDecomposition, GroupedSpace,
};
use streamk_cpu::CpuExecutor;
use streamk_matrix::Matrix;
use streamk_types::{GemmShape, Layout, TileShape};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics and never
// influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout`, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` come from a matching `alloc` on
        // this allocator, which forwarded to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

static ALLOC_GATE: Mutex<()> = Mutex::new(());

/// Serialises the tests of this binary. The gate guards no data, so a
/// test that failed while holding it must not fail the rest through
/// poisoning.
fn alloc_gate() -> MutexGuard<'static, ()> {
    ALLOC_GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocations `f` makes, on any thread.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

const TILE: TileShape = TileShape { blk_m: 32, blk_n: 32, blk_k: 16 };
const WORKERS: usize = 2;

/// Operands with A in the first layout and B in the second. The
/// executor reads a narrow row-major operand where it lies and packs
/// nothing for it, and runs a launch as `Cᵀ = Bᵀ·Aᵀ` when that packs
/// less (DESIGN.md §9, "Orientation"), so the tests of the pack
/// storage pick operands that pack whichever way round a launch runs:
/// [`PACKING`] packs exactly one of its operands, [`BOTH_PACK`] both.
fn operands<T: streamk_matrix::Promote<T> + streamk_matrix::Scalar>(
    shapes: &[GemmShape],
    (a_layout, b_layout): (Layout, Layout),
    seed: u64,
) -> (Vec<Matrix<T>>, Vec<Matrix<T>>) {
    let fill = |rows, cols, layout, s| Matrix::<T>::random::<T>(rows, cols, layout, s);
    let a = shapes.iter().enumerate().map(|(i, s)| fill(s.m, s.k, a_layout, seed + i as u64)).collect();
    let b = shapes.iter().enumerate().map(|(i, s)| fill(s.k, s.n, b_layout, seed + 100 + i as u64)).collect();
    (a, b)
}

/// Narrow row-major operands: both read in place, either way round.
const IN_PLACE: (Layout, Layout) = (Layout::RowMajor, Layout::RowMajor);
/// A row-major A and a column-major B: in either orientation one of
/// them is the right operand, whose lanes are not adjacent in storage
/// — so exactly one operand packs, whichever way round the launch runs.
const PACKING: (Layout, Layout) = (Layout::RowMajor, Layout::ColMajor);
/// A column-major A more than 2 KiB tall and a row-major B more than
/// 2 KiB wide (256 `f64`): both k-strides are past the in-place limit,
/// so both operands pack in either orientation — a tie, which keeps
/// the caller's.
const BOTH_PACK: (Layout, Layout) = (Layout::ColMajor, Layout::RowMajor);

/// One direct, one batched and one grouped problem with their
/// operands, all ragged against [`TILE`].
struct Problems<T> {
    direct: Decomposition,
    batched: BatchedDecomposition,
    grouped: GroupedDecomposition,
    /// Operands of the direct problem, then the batch, then the group.
    a: Vec<Matrix<T>>,
    b: Vec<Matrix<T>>,
    batch: usize,
}

impl<T: streamk_matrix::Promote<T> + streamk_matrix::Scalar> Problems<T> {
    fn new(
        direct: GemmShape,
        batch: usize,
        instance: GemmShape,
        group: &[GemmShape],
        layouts: (Layout, Layout),
        seed: u64,
    ) -> Self {
        let shapes: Vec<GemmShape> = std::iter::once(direct)
            .chain(std::iter::repeat_n(instance, batch))
            .chain(group.iter().copied())
            .collect();
        let (a, b) = operands(&shapes, layouts, seed);
        Self {
            direct: Decomposition::stream_k(direct, TILE, WORKERS),
            batched: BatchedDecomposition::stream_k(BatchedSpace::new(batch, instance, TILE), WORKERS),
            grouped: GroupedDecomposition::stream_k(GroupedSpace::new(group, TILE), WORKERS),
            a,
            b,
            batch,
        }
    }

    /// Number of problem instances across the three launches.
    fn instances(&self) -> usize {
        self.a.len()
    }

    fn gemm(&self, exec: &CpuExecutor) -> Matrix<T> {
        exec.gemm::<T, T>(&self.a[0], &self.b[0], &self.direct)
    }

    fn gemm_batched(&self, exec: &CpuExecutor) -> Vec<Matrix<T>> {
        let to = 1 + self.batch;
        exec.gemm_batched::<T, T>(&self.a[1..to], &self.b[1..to], &self.batched)
    }

    fn gemm_grouped(&self, exec: &CpuExecutor) -> Vec<Matrix<T>> {
        let from = 1 + self.batch;
        exec.gemm_grouped::<T, T>(&self.a[from..], &self.b[from..], &self.grouped)
    }

    /// `gemm`, then `gemm_grouped`, then `gemm_batched`.
    fn all(&self, exec: &CpuExecutor) -> Vec<Matrix<T>> {
        let mut outs = vec![self.gemm(exec)];
        outs.extend(self.gemm_grouped(exec));
        outs.extend(self.gemm_batched(exec));
        outs
    }
}

fn mixed_problems(layouts: (Layout, Layout), seed: u64) -> Problems<f32> {
    Problems::new(
        GemmShape::new(200, 168, 1100),
        6,
        GemmShape::new(96, 80, 72),
        &[GemmShape::new(72, 136, 264), GemmShape::new(40, 200, 1500), GemmShape::new(130, 50, 90)],
        layouts,
        seed,
    )
}

#[test]
fn steady_state_launches_allocate_no_pack_storage() {
    let _gate = alloc_gate();
    let p = mixed_problems(PACKING, 0xA0);
    // One shard, so where a chunk lands does not depend on which
    // worker claimed what. (With a shard per worker a stolen range's
    // chunks continue in a neighbour's slab, which can strand a tail
    // shorter than a chunk and grow a slab once more by that much.)
    let exec = CpuExecutor::with_threads(WORKERS).with_pack_shards(1);
    assert_eq!(exec.pack_arena_stats::<f32>().fresh, 0, "no arena before the first launch");
    for _ in 0..3 {
        let _ = p.all(&exec);
    }
    let warm = exec.pack_arena_stats::<f32>();
    assert!(warm.fresh > 0 && warm.retained_bytes > 0, "the warm-up launches packed: {warm:?}");

    let (direct, _) = allocs_during(|| p.gemm(&exec));
    let (batched, _) = allocs_during(|| p.gemm_batched(&exec));
    let (grouped, _) = allocs_during(|| p.gemm_grouped(&exec));
    let after = exec.pack_arena_stats::<f32>();
    assert_eq!(after.fresh, warm.fresh, "a warm launch allocated pack storage");
    assert_eq!(after.retained_bytes, warm.retained_bytes, "a warm launch grew the arena");
    assert!(after.consumed_bytes > 0 && after.consumed_bytes <= after.retained_bytes, "{after:?}");

    // What is left is per launch (boards, tables, the scheduler, the
    // decomposition's own validation and segment lists) or per
    // instance (an output matrix and its writer): 12, 20 and 42–43 as
    // written, against the dozens of B chunks these launches pack.
    let bound = |instances: usize| 32 + 8 * instances;
    assert!(direct <= bound(1), "gemm made {direct} allocations");
    assert!(batched <= bound(p.batch), "gemm_batched made {batched} allocations");
    assert!(
        grouped <= bound(p.instances() - 1 - p.batch),
        "gemm_grouped made {grouped} allocations"
    );
}

/// Nobody builds what nobody reads: launches whose operands are all
/// consumed in place (narrow row-major) make no pack cache — no slot
/// table, no arena taken out or handed back — so they leave the arena
/// exactly as they found it, cold or warm, and allocate less than the
/// launches above.
#[test]
fn in_place_launches_leave_the_arena_alone() {
    let _gate = alloc_gate();
    let p = mixed_problems(IN_PLACE, 0xA1);
    let exec = CpuExecutor::with_threads(WORKERS).with_pack_shards(1);
    for _ in 0..3 {
        let _ = p.all(&exec);
    }
    let cold = exec.pack_arena_stats::<f32>();
    assert_eq!((cold.fresh, cold.consumed_bytes, cold.retained_bytes), (0, 0, 0), "{cold:?}");

    // The same on an arena a packing launch left warm: the in-place
    // launches neither consume nor settle it.
    let packing = mixed_problems(PACKING, 0xA2);
    let _ = packing.gemm(&exec);
    let warm = exec.pack_arena_stats::<f32>();
    assert!(warm.fresh > 0 && warm.consumed_bytes > 0, "{warm:?}");
    let (direct, _) = allocs_during(|| p.gemm(&exec));
    let (batched, _) = allocs_during(|| p.gemm_batched(&exec));
    let (grouped, _) = allocs_during(|| p.gemm_grouped(&exec));
    let after = exec.pack_arena_stats::<f32>();
    assert_eq!(after.fresh, warm.fresh, "an in-place launch allocated pack storage");
    assert_eq!(after.consumed_bytes, warm.consumed_bytes, "an in-place launch touched the arena");
    assert_eq!(after.retained_bytes, warm.retained_bytes);

    // 10, 18 and 40–41 as written: the cache's instance list and its
    // slot table are gone from each count of the test above.
    assert!(direct <= 10, "gemm made {direct} allocations");
    assert!(batched <= 18, "gemm_batched made {batched} allocations");
    assert!(grouped <= 41, "gemm_grouped made {grouped} allocations");
}

/// A launch that runs transposed hands its born output back without a
/// copy. A `β = 0` `gemm` of column-major operands runs as
/// `Cᵀ = Bᵀ·Aᵀ` — which reads both operands in place here, where the
/// caller's way round would pack B — into a row-major `Cᵀ` that is C's
/// column-major storage. It makes no more allocations than the same
/// product launched that way round by the caller (row-major `Bᵀ` and
/// `Aᵀ` over the same storage, which never swap), and its storage is
/// that launch's, bit for bit.
#[test]
fn a_transposed_launch_allocates_no_more_than_its_twin() {
    let _gate = alloc_gate();
    let shape = GemmShape::new(200, 168, 1100);
    let (a, b) = operands::<f32>(&[shape], (Layout::ColMajor, Layout::ColMajor), 0xD0);
    let (a, b) = (&a[0], &b[0]);
    let bt = Matrix::from_storage(shape.n, shape.k, Layout::RowMajor, b.clone().into_storage());
    let at = Matrix::from_storage(shape.k, shape.m, Layout::RowMajor, a.clone().into_storage());
    // Data-parallel: no split seam, so the two launches' tiles need not
    // line up for their bits to.
    let decomp = Decomposition::data_parallel(shape, TILE);
    let twin = Decomposition::data_parallel(
        GemmShape::new(shape.n, shape.m, shape.k),
        TileShape { blk_m: TILE.blk_n, blk_n: TILE.blk_m, blk_k: TILE.blk_k },
    );
    let exec = CpuExecutor::with_threads(WORKERS);
    for _ in 0..3 {
        let _ = exec.gemm::<f32, f32>(a, b, &decomp);
        let _ = exec.gemm::<f32, f32>(&bt, &at, &twin);
    }
    let (swapped, c) = allocs_during(|| exec.gemm::<f32, f32>(a, b, &decomp));
    let (straight, ct) = allocs_during(|| exec.gemm::<f32, f32>(&bt, &at, &twin));
    let stats = exec.pack_arena_stats::<f32>();
    assert_eq!((stats.fresh, stats.consumed_bytes), (0, 0), "the column-major launch packed: {stats:?}");
    assert!(swapped <= straight, "the transposed launch made {swapped} allocations, its twin {straight}");
    assert_eq!((c.rows(), c.cols(), c.layout()), (shape.m, shape.n, Layout::ColMajor));
    assert_eq!((ct.rows(), ct.cols(), ct.layout()), (shape.n, shape.m, Layout::RowMajor));
    let bits = |m: &Matrix<f32>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&c), bits(&ct), "C is not its twin's Cᵀ storage");
}

#[test]
fn retention_is_one_launchs_consumption_and_dies_with_the_executor() {
    let _gate = alloc_gate();
    // The large launch packs both operands ([`BOTH_PACK`]: 264 rows of
    // A, 264 columns of B). The small one packs one of its operands
    // ([`PACKING`]), which is still more than the arena's retention
    // floor.
    let large = GemmShape::new(264, 264, 2200);
    let small = GemmShape::new(128, 160, 360);
    let (mut a, mut b) = operands::<f64>(&[large], BOTH_PACK, 0xB0);
    let (a_small, b_small) = operands::<f64>(&[small], PACKING, 0xB1);
    a.extend(a_small);
    b.extend(b_small);
    // Process-wide lazies (thread-count probe, SIMD detection) are
    // allocated by whichever executor comes first: not this one.
    drop(CpuExecutor::with_threads(WORKERS).gemm::<f64, f64>(
        &a[1],
        &b[1],
        &Decomposition::stream_k(small, TILE, WORKERS),
    ));

    let live_before = LIVE.load(Ordering::Relaxed);
    // One shard again: the bound below is exact.
    let exec = CpuExecutor::with_threads(WORKERS).with_pack_shards(1);
    let _ = exec.gemm::<f64, f64>(&a[0], &b[0], &Decomposition::stream_k(large, TILE, WORKERS));
    let cold = exec.pack_arena_stats::<f64>();
    let consumed = cold.consumed_bytes;
    // Every k-step of both operands, padded to the register block.
    assert!(consumed >= (large.m + large.n) * large.k * size_of::<f64>(), "{cold:?}");
    assert_eq!(cold.retained_bytes, consumed, "a cold launch keeps what it consumed: {cold:?}");
    for _ in 0..4 {
        let _ = exec.gemm::<f64, f64>(&a[1], &b[1], &Decomposition::stream_k(small, TILE, WORKERS));
    }
    let stats = exec.pack_arena_stats::<f64>();
    assert_eq!(stats.retained_bytes, consumed, "the large launch's consumption, no more: {stats:?}");
    assert!(stats.consumed_bytes < consumed / 10, "small launches consume little: {stats:?}");
    assert!(LIVE.load(Ordering::Relaxed) >= live_before + consumed, "the arena is live heap");

    // Held for the launches that might need it again, not for life:
    // eight small launches after the large one it is given back.
    for _ in 0..4 {
        let _ = exec.gemm::<f64, f64>(&a[1], &b[1], &Decomposition::stream_k(small, TILE, WORKERS));
    }
    let settled = exec.pack_arena_stats::<f64>();
    // What the small launch consumes, and at most one of its chunks
    // (a tile's rows or columns over all of this k).
    let chunk = TILE.blk_m.max(TILE.blk_n) * small.k * size_of::<f64>();
    assert!(settled.retained_bytes >= settled.consumed_bytes, "{settled:?}");
    assert!(settled.retained_bytes <= settled.consumed_bytes + chunk, "{settled:?}");
    // Start over from what is left.
    let consumed = settled.retained_bytes;
    let live_before = LIVE.load(Ordering::Relaxed) - consumed;

    drop(exec);
    let leaked = LIVE.load(Ordering::Relaxed).saturating_sub(live_before);
    assert!(leaked < consumed / 10, "dropping the executor left {leaked} of {consumed} bytes live");
}

/// Recycled storage is dirty and the arena grows, shrinks its use and
/// changes shard counts from launch to launch; none of that may show.
/// Three rounds of `gemm` → `gemm_grouped` → `gemm_batched` over
/// different ragged f64 shapes on one executor, each result compared
/// bit for bit with a fresh executor's.
#[test]
fn results_on_recycled_storage_match_a_fresh_executors_bit_for_bit() {
    let _gate = alloc_gate();
    let rounds = [
        Problems::<f64>::new(
            GemmShape::new(67, 59, 1300),
            3,
            GemmShape::new(45, 51, 70),
            &[GemmShape::new(19, 23, 31), GemmShape::new(7, 53, 1100), GemmShape::new(41, 13, 67)],
            PACKING,
            0xC0,
        ),
        // Smaller everywhere: every range is a dirty prefix of a
        // larger one, and pad lanes land where data was.
        Problems::<f64>::new(
            GemmShape::new(33, 35, 90),
            5,
            GemmShape::new(13, 17, 97),
            &[GemmShape::new(61, 58, 40), GemmShape::new(5, 5, 5)],
            PACKING,
            0xC1,
        ),
        // Larger again — the direct launch packs 2100 k-steps of a
        // 71- or 270-lane operand: the arena outgrows what it kept.
        Problems::<f64>::new(
            GemmShape::new(270, 71, 2100),
            4,
            GemmShape::new(70, 66, 130),
            &[GemmShape::new(96, 33, 1030), GemmShape::new(37, 129, 64), GemmShape::new(64, 64, 64)],
            PACKING,
            0xC2,
        ),
    ];
    let exec = CpuExecutor::with_threads(WORKERS);
    for pass in 0..2 {
        for (round, p) in rounds.iter().enumerate() {
            let got = p.all(&exec);
            let want = p.all(&CpuExecutor::with_threads(WORKERS));
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.max_abs_diff(w), 0.0, "pass {pass} round {round} output {i}");
            }
        }
    }
}
