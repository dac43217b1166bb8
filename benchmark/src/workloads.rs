//! The seven workloads: inputs generated from the seed, warmed and
//! verified in set-up, then timed op by op.
//!
//! The program under test only ever sees generated matrices and
//! shapes. Every timed result is compared bit for bit, on a fixed
//! 64-entry sample, with the output that set-up verified against the
//! sequential reference — every path is deterministic for a fixed
//! decomposition, so any difference is a failure.

use crate::env::Env;
use crate::reference::Reference;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use streamk_core::{
    BatchedDecomposition, BatchedSpace, CostModel, Decomposition, GridSizeModel,
    GroupedDecomposition, GroupedSpace,
};
use streamk_corpus::{Corpus, CorpusConfig};
use streamk_cpu::{
    CompletionHandle, CpuExecutor, GemmService, LaunchRequest, Priority, ServeConfig,
};
use streamk_ensemble::runners;
use streamk_matrix::{gemm_ex_reference, Matrix, MatrixView, Promote, Scalar};
use streamk_sim::{GpuSpec, SimReport};
use streamk_types::{GemmShape, Layout, Precision, TileShape};

/// Entries of the fixed output sample checked after every timed op.
pub const SAMPLE: usize = 64;
/// Untimed ops run in set-up before anything is verified or timed.
const WARM_OPS: usize = 3;

const TILE: TileShape = TileShape {
    blk_m: 64,
    blk_n: 64,
    blk_k: 16,
};
const SMALL_TILE: TileShape = TileShape {
    blk_m: 32,
    blk_n: 32,
    blk_k: 16,
};

/// What one timed region produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per-op wall time, ms, in execution order.
    pub op_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// The whole timed region, output checks included.
    pub wall_s: f64,
    /// Per-request timings (`serve-closed` only).
    pub requests: Vec<RequestTimes>,
    /// Reference-job times, ms, one per stretch of the end-to-end run.
    pub ref_ms: Vec<f64>,
    /// Op samples taken before each reference job ran.
    pub ref_after: Vec<usize>,
    /// The fastest any thread ran the reference job, ms.
    pub ref_fastest_ms: f64,
}

/// Per-request timings of a closed loop, seconds.
#[derive(Debug, Clone, Copy)]
pub struct RequestTimes {
    pub submit: f64,
    pub queued: f64,
    pub service: f64,
}

impl Outcome {
    /// An empty outcome with room for `ops` samples, so that storing
    /// them allocates nothing while the heap is being watched.
    pub fn with_capacity(ops: usize) -> Self {
        Self {
            op_ms: Vec::with_capacity(ops),
            requests: Vec::with_capacity(ops),
            ref_ms: Vec::with_capacity(ops),
            ref_after: Vec::with_capacity(ops),
            ref_fastest_ms: f64::INFINITY,
            ..Self::default()
        }
    }
}

/// Runs `op` until `budget` has passed (at least once), adding to
/// `out`; `op` returns its own timed seconds and whether its output
/// was correct.
pub fn time_ops(budget: Duration, out: &mut Outcome, mut op: impl FnMut(usize) -> (f64, bool)) {
    let start = Instant::now();
    loop {
        let (secs, ok) = op(out.attempted);
        out.attempted += 1;
        out.failed += usize::from(!ok);
        out.op_ms.push(secs * 1e3);
        if start.elapsed() >= budget {
            break;
        }
    }
    out.wall_s += start.elapsed().as_secs_f64();
}

/// How long ops run between two reference jobs. The job takes under a
/// millisecond, so it costs the run about a twentieth, and the host's
/// weather changes more slowly than this.
const STRETCH: Duration = Duration::from_millis(15);
/// The same for the closed loop, which drains its requests in flight
/// before each job: long enough that the few requests that finish
/// into an emptying queue stay under a twentieth of the samples.
const SERVE_STRETCH: Duration = Duration::from_millis(100);

/// Runs `stretch` (at least once) until `budget` has passed, with
/// `between` after every stretch.
fn stretches(
    budget: Duration,
    out: &mut Outcome,
    mut between: impl FnMut(&mut Outcome),
    mut stretch: impl FnMut(&mut Outcome),
) {
    let start = Instant::now();
    loop {
        stretch(out);
        between(out);
        if start.elapsed() >= budget {
            break;
        }
    }
}

/// Spreads [`SAMPLE`] seeded positions round-robin over outputs of
/// the given `(rows, cols)`.
fn pick_positions(rng: &mut StdRng, dims: &[(usize, usize)]) -> Vec<Vec<(usize, usize)>> {
    let mut at = vec![Vec::new(); dims.len()];
    for e in 0..SAMPLE {
        let (rows, cols) = dims[e % dims.len()];
        at[e % dims.len()].push((rng.random_range(0..rows), rng.random_range(0..cols)));
    }
    at
}

fn read_sample<T: Scalar>(c: &Matrix<T>, at: &[(usize, usize)]) -> Vec<T> {
    at.iter().map(|&(r, col)| c.get(r, col)).collect()
}

/// Whether `c` holds `expected` at `at`, bit for bit. Allocates
/// nothing, so the check does not show in the allocation counts.
fn sample_matches<T: Scalar>(c: &Matrix<T>, at: &[(usize, usize)], expected: &[T]) -> bool {
    at.len() == expected.len()
        && at
            .iter()
            .zip(expected)
            .all(|(&(r, col), want)| c.get(r, col) == *want)
}

/// Checks `got` at `at` against the sequential reference
/// `α·op(A)·op(B) + β·C₀`, computed entry by entry with
/// `gemm_ex_reference` on 1×1 sub-views. Unsplit schedules must match
/// bit for bit; split seams reassociate the k-sum, so they get a
/// rounding tolerance.
#[allow(clippy::too_many_arguments)]
fn matches_reference<T: Promote<T> + Scalar>(
    alpha: T,
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, T>,
    beta: T,
    c0: Option<&Matrix<T>>,
    at: &[(usize, usize)],
    got: &[T],
    exact: bool,
) -> bool {
    let k = a.cols();
    let tol = if std::mem::size_of::<T>() == 4 {
        1e-3
    } else {
        1e-9
    };
    at.iter().zip(got).all(|(&(r, col), &g)| {
        let prior = c0.map_or(T::ZERO, |c| c.get(r, col));
        let mut cell = Matrix::from_vec(1, 1, Layout::RowMajor, vec![prior]);
        gemm_ex_reference(
            alpha,
            &a.submatrix(r..r + 1, 0..k),
            &b.submatrix(0..k, col..col + 1),
            beta,
            &mut cell,
        );
        let want = cell.get(0, 0);
        let (got, reference) = (Scalar::to_f64(g), Scalar::to_f64(want));
        if exact {
            g == want
        } else {
            (got - reference).abs() <= tol * (1.0 + reference.abs())
        }
    })
}

// ---------------------------------------------------------------------------
// Direct executor launches
// ---------------------------------------------------------------------------

/// One GEMM of a direct workload's op cycle.
pub struct Gemm<T> {
    pub shape: GemmShape,
    pub tile: TileShape,
    a: Matrix<T>,
    b: Matrix<T>,
    /// Operands are stored transposed and passed as `.t()` views.
    transposed: bool,
    alpha: T,
    beta: T,
    /// The `C` every op starts from; `Some` selects `gemm_ex`.
    c0: Option<Matrix<T>>,
    /// The schedule under test.
    pub sk: Decomposition,
    /// Data-parallel on the same tiles — the schedule-free baseline.
    pub dp: Decomposition,
    at: Vec<(usize, usize)>,
    expected: Vec<T>,
}

impl<T: Promote<T> + Scalar> Gemm<T> {
    pub fn a_view(&self) -> MatrixView<'_, T> {
        if self.transposed {
            self.a.t()
        } else {
            self.a.view()
        }
    }

    pub fn b_view(&self) -> MatrixView<'_, T> {
        if self.transposed {
            self.b.t()
        } else {
            self.b.view()
        }
    }

    /// The untimed part of an op: a fresh copy of the starting `C`.
    pub fn prepare(&self) -> Option<Matrix<T>> {
        self.c0.clone()
    }

    /// One launch under `decomp`: `CpuExecutor::gemm` for the plain
    /// product, `gemm_ex` into `c` otherwise.
    pub fn launch(
        &self,
        exec: &CpuExecutor,
        decomp: &Decomposition,
        c: Option<Matrix<T>>,
    ) -> Matrix<T> {
        match c {
            Some(mut c) => {
                exec.gemm_ex(
                    self.alpha,
                    &self.a_view(),
                    &self.b_view(),
                    self.beta,
                    &mut c,
                    decomp,
                );
                c
            }
            None => exec.gemm::<T, T>(&self.a, &self.b, decomp),
        }
    }

    pub fn matches(&self, c: &Matrix<T>) -> bool {
        sample_matches(c, &self.at, &self.expected)
    }
}

/// A cycle of GEMMs launched one after the other on one executor.
pub struct Direct<T> {
    pub exec: CpuExecutor,
    pub gemms: Vec<Gemm<T>>,
    /// How `sk` was derived, so the traced run can time the derivation.
    pub schedule: Schedule,
    verified: bool,
}

/// How a direct workload schedules a shape on `W` workers.
pub type Schedule = fn(GemmShape, TileShape, usize) -> Decomposition;

fn model_schedule(shape: GemmShape, tile: TileShape, workers: usize) -> Decomposition {
    GridSizeModel::new(CostModel::a100_fp64(), workers).decompose(shape, tile)
}

impl<T: Promote<T> + Scalar> Direct<T> {
    fn setup(
        seed: u64,
        workers: usize,
        shapes: &[GemmShape],
        tile: TileShape,
        schedule: Schedule,
        transposed_axpy: bool,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims: Vec<_> = shapes.iter().map(|s| (s.m, s.n)).collect();
        let positions = pick_positions(&mut rng, &dims);
        let exec = CpuExecutor::with_threads(workers);
        let mut verified = true;
        let gemms = shapes
            .iter()
            .zip(positions)
            .map(|(&shape, at)| {
                let GemmShape { m, n, k } = shape;
                let mut fill = |rows, cols| {
                    Matrix::<T>::random::<T>(rows, cols, Layout::RowMajor, rng.next_u64())
                };
                let (a, b, c0) = if transposed_axpy {
                    (fill(k, m), fill(n, k), Some(fill(m, n)))
                } else {
                    (fill(m, k), fill(k, n), None)
                };
                let mut g = Gemm {
                    shape,
                    tile,
                    a,
                    b,
                    transposed: transposed_axpy,
                    alpha: T::ONE,
                    beta: if transposed_axpy { T::ONE } else { T::ZERO },
                    c0,
                    sk: schedule(shape, tile, workers),
                    dp: Decomposition::data_parallel(shape, tile),
                    at,
                    expected: Vec::new(),
                };
                let mut out = g.launch(&exec, &g.sk, g.prepare());
                for _ in 1..WARM_OPS {
                    out = g.launch(&exec, &g.sk, g.prepare());
                }
                g.expected = read_sample(&out, &g.at);
                verified &= matches_reference(
                    g.alpha,
                    &g.a_view(),
                    &g.b_view(),
                    g.beta,
                    g.c0.as_ref(),
                    &g.at,
                    &g.expected,
                    g.sk.split_tiles() == 0,
                );
                g
            })
            .collect();
        Self {
            exec,
            gemms,
            schedule,
            verified,
        }
    }

    /// One cycle on `exec`, each GEMM under the schedule `pick`
    /// selects. Returns the seconds each launch took; `after` sees
    /// every output outside the timed interval.
    pub fn cycle(
        &self,
        exec: &CpuExecutor,
        pick: fn(&Gemm<T>) -> &Decomposition,
        mut after: impl FnMut(usize, &Gemm<T>, &Matrix<T>),
    ) -> Vec<f64> {
        self.gemms
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let c = g.prepare();
                let t0 = Instant::now();
                let out = g.launch(exec, pick(g), c);
                let secs = t0.elapsed().as_secs_f64();
                after(i, g, &out);
                secs
            })
            .collect()
    }

    /// One op: the cycle under the schedule under test, every output
    /// checked against the verified sample.
    pub fn op(&self) -> (f64, bool) {
        let mut ok = true;
        let secs = self.cycle(&self.exec, |g| &g.sk, |_, g, out| ok &= g.matches(out));
        (secs.iter().sum(), ok)
    }
}

// ---------------------------------------------------------------------------
// Batched + grouped launches
// ---------------------------------------------------------------------------

const BATCH: usize = 24;
const BATCH_SHAPE: GemmShape = GemmShape {
    m: 256,
    n: 256,
    k: 64,
};
const GROUP_SHAPES: [GemmShape; 6] = [
    GemmShape {
        m: 384,
        n: 1152,
        k: 384,
    },
    GemmShape {
        m: 384,
        n: 384,
        k: 384,
    },
    GemmShape {
        m: 384,
        n: 1536,
        k: 384,
    },
    GemmShape {
        m: 384,
        n: 384,
        k: 1536,
    },
    GemmShape {
        m: 200,
        n: 120,
        k: 520,
    },
    GemmShape {
        m: 72,
        n: 648,
        k: 264,
    },
];

/// One `gemm_batched` plus one `gemm_grouped` per op.
pub struct GroupedBatched {
    pub exec: CpuExecutor,
    /// Operands of the 24 batch instances, then of the 6 group members.
    pub a: Vec<Matrix<f32>>,
    pub b: Vec<Matrix<f32>>,
    pub batched: BatchedDecomposition,
    pub batched_dp: BatchedDecomposition,
    pub grouped: GroupedDecomposition,
    pub grouped_dp: GroupedDecomposition,
    at: Vec<Vec<(usize, usize)>>,
    expected: Vec<Vec<f32>>,
    verified: bool,
}

impl GroupedBatched {
    pub fn shapes() -> Vec<GemmShape> {
        std::iter::repeat_n(BATCH_SHAPE, BATCH)
            .chain(GROUP_SHAPES)
            .collect()
    }

    fn setup(seed: u64, workers: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let shapes = Self::shapes();
        let dims: Vec<_> = shapes.iter().map(|s| (s.m, s.n)).collect();
        let at = pick_positions(&mut rng, &dims);
        let mut fill =
            |rows, cols| Matrix::<f32>::random::<f32>(rows, cols, Layout::RowMajor, rng.next_u64());
        let a: Vec<_> = shapes.iter().map(|s| fill(s.m, s.k)).collect();
        let b: Vec<_> = shapes.iter().map(|s| fill(s.k, s.n)).collect();
        let batched_space = BatchedSpace::new(BATCH, BATCH_SHAPE, TILE);
        let grouped_space = GroupedSpace::new(&GROUP_SHAPES, TILE);
        let mut w = Self {
            exec: CpuExecutor::with_threads(workers),
            a,
            b,
            batched: BatchedDecomposition::stream_k(batched_space.clone(), workers),
            batched_dp: BatchedDecomposition::data_parallel(batched_space),
            grouped: GroupedDecomposition::stream_k(grouped_space.clone(), workers),
            grouped_dp: GroupedDecomposition::data_parallel(grouped_space),
            at,
            expected: Vec::new(),
            verified: true,
        };
        let mut outs = w.launch(&w.exec, false);
        for _ in 1..WARM_OPS {
            outs = w.launch(&w.exec, false);
        }
        w.expected = outs
            .iter()
            .zip(&w.at)
            .map(|(c, at)| read_sample(c, at))
            .collect();
        // Both grids split tiles at instance seams, so the reference
        // check carries the reassociation tolerance throughout.
        w.verified = (0..outs.len()).all(|i| {
            matches_reference(
                1.0,
                &w.a[i].view(),
                &w.b[i].view(),
                0.0,
                None,
                &w.at[i],
                &w.expected[i],
                false,
            )
        });
        w
    }

    /// Both launches on `exec`, Stream-K over the combined spaces or
    /// (`data_parallel`) the tile-per-CTA baseline.
    pub fn launch(&self, exec: &CpuExecutor, data_parallel: bool) -> Vec<Matrix<f32>> {
        let (bd, gd) = if data_parallel {
            (&self.batched_dp, &self.grouped_dp)
        } else {
            (&self.batched, &self.grouped)
        };
        let mut outs = exec.gemm_batched::<f32, f32>(&self.a[..BATCH], &self.b[..BATCH], bd);
        outs.extend(exec.gemm_grouped::<f32, f32>(&self.a[BATCH..], &self.b[BATCH..], gd));
        outs
    }

    pub fn op(&self) -> (f64, bool) {
        let t0 = Instant::now();
        let outs = self.launch(&self.exec, false);
        let secs = t0.elapsed().as_secs_f64();
        let ok = outs
            .iter()
            .zip(&self.at)
            .zip(&self.expected)
            .all(|((c, at), want)| sample_matches(c, at, want));
        (secs, ok)
    }
}

// ---------------------------------------------------------------------------
// Closed-loop service
// ---------------------------------------------------------------------------

const SERVE_SHAPES: [GemmShape; 4] = [
    GemmShape {
        m: 96,
        n: 96,
        k: 96,
    },
    GemmShape {
        m: 128,
        n: 128,
        k: 128,
    },
    GemmShape {
        m: 64,
        n: 192,
        k: 256,
    },
    GemmShape {
        m: 256,
        n: 256,
        k: 192,
    },
];
/// Requests the one generator thread keeps in flight.
const IN_FLIGHT: usize = 4;
pub const SERVE_WINDOW: usize = 4;
pub const SERVE_CAPACITY: usize = 256;
/// One deck: every shape ten times, priorities 10/70/20
/// High/Normal/Bulk spread evenly over the shapes. The seed only
/// shuffles it, so every seed offers the same traffic mix.
const DECK: usize = 40;

/// One request kind of the service mix.
pub struct MixEntry {
    pub shape: GemmShape,
    pub a: Matrix<f32>,
    pub b: Matrix<f32>,
    pub decomp: Decomposition,
    at: Vec<(usize, usize)>,
    expected: Vec<f32>,
}

impl MixEntry {
    pub fn matches(&self, c: &Matrix<f32>) -> bool {
        sample_matches(c, &self.at, &self.expected)
    }
}

/// Requests through a `GemmService`, four in flight.
pub struct Serve {
    pub exec: CpuExecutor,
    pub mix: Vec<MixEntry>,
    rng: StdRng,
    deck: Vec<(usize, Priority)>,
    dealt: usize,
    verified: bool,
}

impl Serve {
    pub fn config() -> ServeConfig {
        ServeConfig::default()
            .with_window(SERVE_WINDOW)
            .with_capacity(SERVE_CAPACITY)
    }

    fn setup(seed: u64, service_workers: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims: Vec<_> = SERVE_SHAPES.iter().map(|s| (s.m, s.n)).collect();
        let positions = pick_positions(&mut rng, &dims);
        let exec = CpuExecutor::with_threads(service_workers);
        let mut mix: Vec<MixEntry> = SERVE_SHAPES
            .iter()
            .zip(positions)
            .map(|(&shape, at)| MixEntry {
                shape,
                a: Matrix::<f32>::random::<f32>(shape.m, shape.k, Layout::RowMajor, rng.next_u64()),
                b: Matrix::<f32>::random::<f32>(shape.k, shape.n, Layout::RowMajor, rng.next_u64()),
                decomp: Decomposition::stream_k(shape, SMALL_TILE, service_workers),
                at,
                expected: Vec::new(),
            })
            .collect();
        let deck = (0..DECK)
            .map(|i| {
                let priority = match i * 10 / DECK {
                    0 => Priority::High,
                    1..=7 => Priority::Normal,
                    _ => Priority::Bulk,
                };
                (i % SERVE_SHAPES.len(), priority)
            })
            .collect();
        // Warm and verify through a service of the same configuration
        // as the timed one, so the expected sample is the service's
        // own output.
        let mut verified = true;
        let service = GemmService::<f32, f32>::start(&exec, Self::config());
        for m in &mut mix {
            for _ in 0..WARM_OPS {
                let req = LaunchRequest::new(m.a.clone(), m.b.clone(), m.decomp.clone());
                match service.submit(req).map(CompletionHandle::wait) {
                    Ok(Ok((c, _))) => m.expected = read_sample(&c, &m.at),
                    _ => verified = false,
                }
            }
            verified &= m.expected.len() == m.at.len()
                && matches_reference(
                    1.0,
                    &m.a.view(),
                    &m.b.view(),
                    0.0,
                    None,
                    &m.at,
                    &m.expected,
                    m.decomp.split_tiles() == 0,
                );
        }
        service.shutdown();
        Self {
            exec,
            mix,
            rng,
            deck,
            dealt: 0,
            verified,
        }
    }

    /// The next request of the seeded stream: decks dealt in order,
    /// each reshuffled before its first card.
    pub fn deal(&mut self) -> (usize, Priority) {
        let card = self.dealt % DECK;
        if card == 0 {
            for i in (1..DECK).rev() {
                self.deck.swap(i, self.rng.random_range(0..=i));
            }
        }
        self.dealt += 1;
        self.deck[card]
    }

    pub fn request(&self, entry: usize, priority: Priority) -> LaunchRequest<f32> {
        let m = &self.mix[entry];
        LaunchRequest::new(m.a.clone(), m.b.clone(), m.decomp.clone()).with_priority(priority)
    }

    /// A closed loop on `service`: the generator keeps [`IN_FLIGHT`]
    /// requests outstanding and waits for the oldest. An op is one
    /// request, timed from submission to completion (`submit()` time
    /// plus `RequestStats::latency`); a rejection or error is a
    /// failure. `each_completion` hears the completed count.
    pub fn closed_loop(
        &mut self,
        service: &GemmService<f32, f32>,
        budget: Duration,
        out: &mut Outcome,
        mut each_completion: impl FnMut(usize),
    ) {
        let first = out.attempted;
        let mut inflight: VecDeque<(usize, f64, CompletionHandle<f32, f32>)> = VecDeque::new();
        let start = Instant::now();
        loop {
            let open = out.attempted == first || start.elapsed() < budget;
            while open && inflight.len() < IN_FLIGHT {
                let (entry, priority) = self.deal();
                let req = self.request(entry, priority);
                out.attempted += 1;
                let t0 = Instant::now();
                match service.submit(req) {
                    Ok(handle) => inflight.push_back((entry, t0.elapsed().as_secs_f64(), handle)),
                    Err(_) => out.failed += 1,
                }
            }
            let Some((entry, submit, handle)) = inflight.pop_front() else {
                if open {
                    continue;
                }
                break;
            };
            match handle.wait() {
                Ok((c, stats)) => {
                    out.failed += usize::from(!self.mix[entry].matches(&c));
                    out.op_ms.push((submit + stats.latency.as_secs_f64()) * 1e3);
                    out.requests.push(RequestTimes {
                        submit,
                        queued: stats.queued.as_secs_f64(),
                        service: stats.service.as_secs_f64(),
                    });
                }
                Err(_) => out.failed += 1,
            }
            each_completion(out.op_ms.len());
        }
        out.wall_s += start.elapsed().as_secs_f64();
    }

    /// Closed loops of [`SERVE_STRETCH`] on one service, each drained
    /// before `between` runs.
    fn measure(&mut self, budget: Duration, out: &mut Outcome, between: impl FnMut(&mut Outcome)) {
        let service = GemmService::<f32, f32>::start(&self.exec, Self::config());
        stretches(budget, out, between, |out| {
            self.closed_loop(&service, SERVE_STRETCH, out, |_| {})
        });
        service.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Simulator corpus
// ---------------------------------------------------------------------------

/// Shapes per corpus slice, and slices the workload cycles through.
const SLICE: usize = 2_000;
const SLICES: usize = 8;
const SIM_PRECISIONS: [Precision; 2] = [Precision::Fp16To32, Precision::Fp64];

/// The paper's four contenders on the simulated A100, one shape at
/// one precision per op, single-threaded.
pub struct SimCorpus {
    /// Slices `0..8` of the paper corpus.
    pub shapes: Vec<GemmShape>,
    /// The shape the seed starts the cycle at: the head of a slice.
    first: usize,
    pub gpu: GpuSpec,
    /// Makespan bits for the first [`SAMPLE`]` / 2` shapes at both
    /// precisions, from set-up. The sampled shapes do not depend on
    /// the seed, so neither does set-up's time or memory; the timed
    /// cycle checks them whenever it comes round to them.
    expected: Vec<[u64; 4]>,
    verified: bool,
}

impl SimCorpus {
    fn setup(seed: u64) -> Self {
        let corpus = Corpus::generate(CorpusConfig::paper());
        let mut w = Self {
            shapes: corpus.shapes()[..SLICE * SLICES].to_vec(),
            first: (seed % SLICES as u64) as usize * SLICE,
            gpu: GpuSpec::a100(),
            expected: Vec::with_capacity(SAMPLE),
            verified: true,
        };
        for k in 0..SAMPLE {
            let (reports, _) = w.contenders(w.shapes[k / 2], SIM_PRECISIONS[k % 2]);
            w.verified &= Self::plausible(&reports);
            w.expected.push(reports.map(|r| r.makespan.to_bits()));
        }
        w
    }

    /// Op `i`'s shape index and precision index: shapes in order from
    /// the seed's slice, both precisions of a shape back to back,
    /// wrapping at the end of the eight slices.
    fn slot(&self, i: usize) -> (usize, usize) {
        ((self.first + i / 2) % self.shapes.len(), i % 2)
    }

    pub fn problem(&self, i: usize) -> (GemmShape, Precision) {
        let (shape, precision) = self.slot(i);
        (self.shapes[shape], SIM_PRECISIONS[precision])
    }

    /// Stream-K, data-parallel, heuristic and oracle reports for one
    /// problem, and the seconds the four took.
    fn contenders(&self, shape: GemmShape, precision: Precision) -> ([SimReport; 4], f64) {
        let t0 = Instant::now();
        let reports = [
            runners::run_stream_k(shape, precision, &self.gpu),
            runners::run_dp_single(shape, precision, &self.gpu),
            runners::run_heuristic(shape, precision, &self.gpu),
            runners::run_oracle(shape, precision, &self.gpu),
        ];
        (reports, t0.elapsed().as_secs_f64())
    }

    /// No schedule beats the machine (`utilization ≤ 1`, i.e. the
    /// makespan is at least the work over all SMs' peak), and the
    /// data-parallel oracle is never slower than the single
    /// data-parallel blocking it contains. (It *can* lose to the
    /// heuristic, which may split k.)
    fn plausible(reports: &[SimReport; 4]) -> bool {
        let [_, dp_single, _, oracle] = reports;
        reports
            .iter()
            .all(|r| r.makespan.is_finite() && r.makespan > 0.0 && r.utilization() <= 1.0 + 1e-9)
            && oracle.makespan <= dp_single.makespan * (1.0 + 1e-12)
    }

    pub fn op(&self, i: usize) -> (f64, bool) {
        let (shape, precision) = self.slot(i);
        let (reports, secs) = self.contenders(self.shapes[shape], SIM_PRECISIONS[precision]);
        let repeats = self
            .expected
            .get(2 * shape + precision)
            .is_none_or(|want| *want == reports.each_ref().map(|r| r.makespan.to_bits()));
        (secs, repeats && Self::plausible(&reports))
    }
}

// ---------------------------------------------------------------------------
// The workload set
// ---------------------------------------------------------------------------

/// Threads workload `name` keeps busy at once: what the reference job
/// must occupy to feel the same host.
pub fn busy_threads(name: &str, env: &Env) -> usize {
    match name {
        "serve-closed" => env.service_workers + 1,
        "sim-corpus" => 1,
        _ => env.workers,
    }
}

/// A set-up workload, ready to be timed.
pub enum Workload {
    F32(Direct<f32>),
    F64(Direct<f64>),
    GroupedBatched(Box<GroupedBatched>),
    Serve(Serve),
    Sim(SimCorpus),
}

impl Workload {
    /// Generates `name`'s inputs from `seed`, warms the path with
    /// three untimed ops and verifies the output against the
    /// reference. `None` for a name the benchmark does not declare.
    pub fn setup(name: &str, seed: u64, env: &Env) -> Option<Workload> {
        let w = env.workers;
        let stream_k: Schedule = Decomposition::stream_k;
        let s = GemmShape::new;
        Some(match name {
            "direct-square" => Workload::F32(Direct::setup(
                seed,
                w,
                &[s(1024, 1024, 1024)],
                TILE,
                model_schedule,
                false,
            )),
            "direct-deepk" => Workload::F32(Direct::setup(
                seed,
                w,
                &[
                    s(64, 64, 32768),
                    s(64, 192, 8192),
                    s(64, 320, 4096),
                    s(64, 448, 4096),
                    s(192, 192, 4096),
                ],
                TILE,
                stream_k,
                false,
            )),
            "direct-f64-tt" => Workload::F64(Direct::setup(
                seed,
                w,
                &[s(768, 768, 768)],
                TILE,
                model_schedule,
                true,
            )),
            "grouped-batched" => Workload::GroupedBatched(Box::new(GroupedBatched::setup(seed, w))),
            "direct-small" => Workload::F32(Direct::setup(
                seed,
                w,
                &[
                    s(64, 64, 64),
                    s(96, 96, 96),
                    s(128, 128, 128),
                    s(160, 128, 96),
                ],
                SMALL_TILE,
                stream_k,
                false,
            )),
            "serve-closed" => Workload::Serve(Serve::setup(seed, env.service_workers)),
            "sim-corpus" => Workload::Sim(SimCorpus::setup(seed)),
            _ => return None,
        })
    }

    /// Whether set-up's output matched the sequential reference.
    pub fn verified(&self) -> bool {
        match self {
            Workload::F32(d) => d.verified,
            Workload::F64(d) => d.verified,
            Workload::GroupedBatched(g) => g.verified,
            Workload::Serve(s) => s.verified,
            Workload::Sim(s) => s.verified,
        }
    }

    /// Times ops for `budget`, adding to `out`, in stretches with one
    /// run of the reference job after each.
    pub fn measure(&mut self, budget: Duration, reference: &Reference, out: &mut Outcome) {
        let between = |out: &mut Outcome| {
            out.ref_after.push(out.op_ms.len());
            let job = reference.run();
            out.ref_ms.push(job.slowest);
            out.ref_fastest_ms = out.ref_fastest_ms.min(job.fastest);
        };
        let ops = |out: &mut Outcome, op: &mut dyn FnMut(usize) -> (f64, bool)| {
            stretches(budget, out, between, |out| time_ops(STRETCH, out, &mut *op))
        };
        match self {
            Workload::F32(d) => ops(out, &mut |_| d.op()),
            Workload::F64(d) => ops(out, &mut |_| d.op()),
            Workload::GroupedBatched(g) => ops(out, &mut |_| g.op()),
            Workload::Serve(s) => s.measure(budget, out, between),
            Workload::Sim(s) => ops(out, &mut |i| s.op(i)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_positions_are_a_function_of_the_seed() {
        let dims = [(64, 64), (96, 200), (7, 3)];
        let pick = |seed| pick_positions(&mut StdRng::seed_from_u64(seed), &dims);
        assert_eq!(pick(1), pick(1));
        assert_ne!(pick(1), pick(2));
        let at = pick(9);
        assert_eq!(at.iter().map(Vec::len).sum::<usize>(), SAMPLE);
        for (positions, &(rows, cols)) in at.iter().zip(&dims) {
            assert!(positions.iter().all(|&(r, c)| r < rows && c < cols));
        }
    }

    #[test]
    fn service_stream_is_seeded_and_keeps_its_mix() {
        let env = Env::detect(Some(1)).unwrap();
        let deal_all = |seed| {
            let Some(Workload::Serve(mut s)) = Workload::setup("serve-closed", seed, &env) else {
                panic!("serve-closed is declared")
            };
            assert!(s.verified);
            (0..2 * DECK).map(|_| s.deal()).collect::<Vec<_>>()
        };
        let a = deal_all(5);
        assert_eq!(a, deal_all(5));
        assert_ne!(a, deal_all(6));
        for deck in a.chunks(DECK) {
            for shape in 0..SERVE_SHAPES.len() {
                assert_eq!(
                    deck.iter().filter(|(s, _)| *s == shape).count(),
                    DECK / SERVE_SHAPES.len()
                );
            }
            let count = |p| deck.iter().filter(|(_, q)| *q == p).count();
            assert_eq!(
                (
                    count(Priority::High),
                    count(Priority::Normal),
                    count(Priority::Bulk)
                ),
                (4, 28, 8)
            );
        }
    }

    #[test]
    fn direct_inputs_are_a_function_of_the_seed_and_verify() {
        let env = Env::detect(Some(1)).unwrap();
        let sample = |seed| {
            let Some(Workload::F32(d)) = Workload::setup("direct-small", seed, &env) else {
                panic!("direct-small is declared")
            };
            assert!(d.verified);
            assert!(d.op().1, "a timed op reproduces the verified output");
            d.gemms
                .iter()
                .map(|g| (g.at.clone(), g.expected.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(sample(3), sample(3));
        assert_ne!(sample(3), sample(4));
    }

    #[test]
    fn simulator_ops_follow_the_seeded_rotation_and_repeat() {
        let a = SimCorpus::setup(0);
        let b = SimCorpus::setup(3);
        assert!(a.verified && b.verified);
        assert_eq!(a.shapes.len(), SLICE * SLICES);
        assert_eq!(b.problem(0), (a.shapes[3 * SLICE], Precision::Fp16To32));
        assert_eq!(a.problem(1), (a.shapes[0], Precision::Fp64));
        assert_eq!(a.problem(2 * a.shapes.len()), a.problem(0));
        assert_eq!(
            a.expected, b.expected,
            "the verified sample does not depend on the seed"
        );
        assert!(
            (0..4).all(|i| a.op(i).1),
            "a second pass is bit-identical to set-up's"
        );
        // Seed 3 starts at slice 3 and reaches the sampled shapes
        // five slices later.
        let back_at_sample = 2 * 5 * SLICE;
        assert_eq!(b.slot(back_at_sample), (0, 0));
        assert!(b.op(back_at_sample).1);
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(Workload::setup("no-such-workload", 0, &Env::detect(Some(1)).unwrap()).is_none());
    }
}
