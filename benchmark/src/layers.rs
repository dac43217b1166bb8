//! The traced run: per-layer figures for one workload.
//!
//! Every figure is either the benchmark's own span around a public
//! call on the workload's inputs, or a public counter read after one.
//! End-to-end metrics are never taken here — tracing is off in that
//! run — but this run repeats the untraced loop beside the traced one
//! so the cost of tracing is the difference within one process.
//!
//! A metric of a layer the workload does not exercise reads 0, and a
//! metric that cannot be measured in this environment (one core)
//! reads 0 with a `not_measured` line saying why.

use crate::env::Env;
use crate::probes::{self, best_of};
use crate::reference::Reference;
use crate::spans::Recorder;
use crate::spec::spec;
use crate::workloads::{
    busy_threads, time_ops, Direct, Gemm, GroupedBatched, Outcome, RequestTimes, Serve, SimCorpus,
    Workload, SERVE_WINDOW,
};
use crate::{env, heap, in_declared_order, stats, RunResult};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use streamk_core::tev::TraceWriter;
use streamk_core::{
    contiguous_range, validate_json, BatchedDecomposition, CostModel, CtaWork, Decomposition,
    GridSizeModel, GroupedDecomposition, IterSpace, Phase,
};
use streamk_corpus::{Corpus, CorpusConfig};
use streamk_cpu::{
    mac_loop_kernel_cached, CompletionHandle, CpuExecutor, ExecStats, ExecTrace, GemmService,
    KernelKind, PackBuffers, PackCache, ServeTrace, ServiceStats, Span, WaitPolicy,
};
use streamk_ensemble::runners;
use streamk_matrix::{pack_a_into, pack_b_into, MatrixView, Promote, Scalar};
use streamk_types::{ceil_div, GemmShape, TileShape};

/// Share of `--seconds` a launch workload's paired loop runs for:
/// each round times the op untraced, traced, data-parallel and on one
/// worker back to back, so every ratio between them is taken over
/// the same stretch of machine weather.
const PAIRED_SHARE: f64 = 0.8;
/// Shares of `--seconds` for the service's regions: each closed loop
/// (untraced and traced, in two alternating halves), the direct
/// baseline, and each open-loop rate.
const CLOSED_SHARE: f64 = 0.25;
const DIRECT_SHARE: f64 = 0.1;
const OPEN_LOOP_SHARE: f64 = 0.2;
/// Open-loop arrival rates, requests per second.
const OPEN_RATES: [usize; 3] = [250, 500, 1000];
/// Latency limit an open-loop rate must meet at its tail.
const OPEN_LIMIT_MS: f64 = 10.0;
/// How far the phase shares may overshoot 1 before the run says so:
/// self times on one track cannot overlap, so anything beyond clock
/// granularity means spans that overlap without nesting.
const SHARE_TOLERANCE: f64 = 0.02;
/// Ops of the traced loop that get a span of their own in the trace.
const OP_SPANS: usize = 64;
/// Runs of the reference job behind `machine.ref_job_ms`.
const REF_JOB_RUNS: usize = 100;

/// The per-layer metric table, every declared name present from the
/// start so the printed set always equals the declared one.
struct Layers {
    values: Vec<(String, f64)>,
    notes: Vec<String>,
}

impl Layers {
    fn new() -> Self {
        Self {
            values: spec()
                .per_layer
                .iter()
                .map(|m| (m.name.clone(), 0.0))
                .collect(),
            notes: Vec::new(),
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("`{name}` is not declared in BENCHMARK.json"));
        slot.1 = value;
    }

    fn not_measured(&mut self, names: &str, why: &str) {
        self.notes.push(format!("{names}: not_measured ({why})"));
    }
}

/// A fresh timed region: `op` run for `budget`.
fn timed(budget: Duration, op: impl FnMut(usize) -> (f64, bool)) -> Outcome {
    let mut out = Outcome::default();
    time_ops(budget, &mut out, op);
    out
}

/// `op_samples`, `op_ms_p95`, `op_ms_p99` and `ops_per_s` from the
/// untraced op times; a percentile without ten samples beyond it is
/// left at 0. Throughput is ops per second of op time (the mean, so a
/// stall the median hides still shows); the untraced ops of a paired
/// loop are not contiguous, so there is no wall time to divide by.
/// Returns the p50, ms.
fn op_percentiles(layers: &mut Layers, op_ms: &[f64]) -> f64 {
    let sorted = stats::sorted(op_ms.to_vec());
    let n = sorted.len();
    layers.set("op_samples", n as f64);
    layers.set("op_ms_p50", stats::percentile(&sorted, 50));
    layers.set("ops_per_s", n as f64 * 1e3 / op_ms.iter().sum::<f64>());
    for p in [95, 99] {
        if stats::supported(p, n) {
            layers.set(&format!("op_ms_p{p}"), stats::percentile(&sorted, p));
        } else {
            layers.not_measured(
                &format!("op_ms_p{p}"),
                &format!("{n} samples leave fewer than ten beyond it"),
            );
        }
    }
    stats::percentile(&sorted, 50)
}

/// Milliseconds at the median of per-op seconds.
fn median_ms(secs: &[f64]) -> f64 {
    stats::median(secs) * 1e3
}

// ---------------------------------------------------------------------------
// core
// ---------------------------------------------------------------------------

/// What `core` decided for one schedule.
struct Schedule {
    ctas: Vec<CtaWork>,
    split_tiles: usize,
    iter_imbalance: usize,
    total_iters: usize,
}

impl From<Decomposition> for Schedule {
    fn from(d: Decomposition) -> Self {
        d.validate()
            .expect("the benchmark builds valid decompositions");
        let _ = d.fixups();
        Self {
            split_tiles: d.split_tiles(),
            iter_imbalance: d.iter_imbalance(),
            total_iters: d.space().total_iters(),
            ctas: d.ctas().to_vec(),
        }
    }
}

/// The batched and grouped decompositions share their accessors'
/// names but no trait.
macro_rules! schedule_from_combined_space {
    ($decomposition:ty) => {
        impl From<$decomposition> for Schedule {
            fn from(d: $decomposition) -> Self {
                d.validate()
                    .expect("the benchmark builds valid decompositions");
                Self {
                    split_tiles: d.fixups().iter().filter(|f| !f.is_data_parallel()).count(),
                    iter_imbalance: d.iter_imbalance(),
                    total_iters: d.space().total_iters(),
                    ctas: d.ctas().to_vec(),
                }
            }
        }
    };
}
schedule_from_combined_space!(BatchedDecomposition);
schedule_from_combined_space!(GroupedDecomposition);

/// `core.*` for an op cycle whose schedules `build` constructs:
/// construction + `validate` + `fixups` timed (best of five, summed
/// over the cycle), the rest read off the result. Quantization
/// efficiency is useful iterations over `W × waves × longest CTA`.
fn core_layer(
    rec: &mut Recorder,
    layers: &mut Layers,
    workers: usize,
    build: impl Fn() -> Vec<Schedule>,
) {
    let (schedules, _) = rec.span("core.decompose", |_| build());
    layers.set(
        "core.decompose_us",
        best_of(5, || drop(std::hint::black_box(build()))) * 1e6,
    );
    layers.set(
        "core.ctas",
        schedules.iter().map(|s| s.ctas.len()).sum::<usize>() as f64,
    );
    layers.set(
        "core.split_tiles",
        schedules.iter().map(|s| s.split_tiles).sum::<usize>() as f64,
    );
    layers.set(
        "core.iter_imbalance",
        schedules
            .iter()
            .map(|s| s.iter_imbalance)
            .max()
            .unwrap_or(0) as f64,
    );
    let useful: usize = schedules.iter().map(|s| s.total_iters).sum();
    let occupied: usize = schedules
        .iter()
        .map(|s| {
            workers
                * ceil_div(s.ctas.len(), workers)
                * s.ctas.iter().map(CtaWork::len).max().unwrap_or(0)
        })
        .sum();
    layers.set("core.quant_eff", useful as f64 / occupied.max(1) as f64);
}

// ---------------------------------------------------------------------------
// matrix / microkernel / packcache on a workload's own operands
// ---------------------------------------------------------------------------

/// One GEMM of an op cycle as the inner layers see it.
struct Problem<'a, T> {
    a: MatrixView<'a, T>,
    b: MatrixView<'a, T>,
    space: IterSpace,
    /// The CTAs the executor's workers would run on this space.
    ctas: Vec<CtaWork>,
}

impl<'a, T: Promote<T> + Scalar> Problem<'a, T> {
    fn of(g: &'a Gemm<T>) -> Self {
        Self {
            a: g.a_view(),
            b: g.b_view(),
            space: g.sk.space().clone(),
            ctas: g.sk.ctas().to_vec(),
        }
    }
}

/// What the inner-layer probes found, for the executor figures.
struct Inner {
    /// One-thread MAC time of the whole cycle on warm panels, ms.
    mac_ms: f64,
    /// `2·m·n·k` summed over the cycle.
    flops: f64,
}

/// `matrix.*`, `cpu.microkernel.*` and `cpu.packcache.{packs,
/// redundancy,fallbacks}` for one op cycle at the default kernel.
fn inner_layers<T: Promote<T> + Scalar>(
    rec: &mut Recorder,
    layers: &mut Layers,
    problems: &[Problem<'_, T>],
    workers: usize,
    peak_gflops: f64,
) -> Inner {
    let kind = KernelKind::default();
    let (mr, nr) = kind
        .register_block()
        .expect("the default kernel consumes panels");
    let elem = std::mem::size_of::<T>();

    // matrix: both operands packed whole, once each, on this thread.
    // Bytes are computed from the operand sizes, not measured.
    let (mut a_secs, mut b_secs, mut a_bytes, mut b_bytes) = (0.0, 0.0, 0usize, 0usize);
    rec.span("matrix.pack", |_| {
        let mut buf = Vec::new();
        for p in problems {
            let GemmShape { m, n, k } = p.space.shape();
            a_secs += best_of(3, || pack_a_into(&p.a, 0..m, 0..k, mr, &mut buf));
            b_secs += best_of(3, || pack_b_into(&p.b, 0..k, 0..n, nr, &mut buf));
            a_bytes += m * k * elem;
            b_bytes += k * n * elem;
        }
    });
    layers.set("matrix.pack_a_gbps", a_bytes as f64 / a_secs / 1e9);
    layers.set("matrix.pack_b_gbps", b_bytes as f64 / b_secs / 1e9);
    layers.set("matrix.pack_ms", (a_secs + b_secs) * 1e3);

    // microkernel: `mac_loop_kernel_cached` over panels that are
    // already published, so packing is not in the figure. One full-k
    // tile gives the rate; every tile gives the serial MAC floor.
    let (mut tile_flops, mut tile_secs, mut mac_secs, mut flops, mut bytes) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    rec.span("cpu.microkernel", |_| {
        let mut bufs = PackBuffers::new();
        for p in problems {
            let shape = p.space.shape();
            let tile = p.space.tile();
            let ipt = p.space.iters_per_tile();
            let cache = PackCache::for_kernel(&p.space, kind, WaitPolicy::default());
            let mut accum = vec![T::ZERO; tile.blk_m * tile.blk_n];
            let mut all_tiles = |accum: &mut [T]| {
                for t in 0..p.space.tiles() {
                    mac_loop_kernel_cached(
                        kind,
                        cache.as_ref(),
                        0,
                        &p.a,
                        &p.b,
                        &p.space,
                        t,
                        0,
                        ipt,
                        accum,
                        &mut bufs,
                    );
                }
            };
            all_tiles(&mut accum);
            mac_secs += best_of(3, || all_tiles(&mut accum));
            let (rows, cols) = p.space.tile_extents(0);
            let reps = 1 + (2e7 / (rows.len() * cols.len() * shape.k) as f64) as usize;
            tile_secs += best_of(3, || {
                for _ in 0..reps {
                    mac_loop_kernel_cached(
                        kind,
                        cache.as_ref(),
                        0,
                        &p.a,
                        &p.b,
                        &p.space,
                        0,
                        0,
                        ipt,
                        &mut accum,
                        &mut bufs,
                    );
                }
            });
            tile_flops += (2 * rows.len() * cols.len() * shape.k * reps) as f64;
            std::hint::black_box(&accum);
            flops += shape.flops() as f64;
            bytes += ((shape.m * shape.k + shape.k * shape.n + shape.m * shape.n) * elem) as f64;
        }
    });
    let tile_gflops = tile_flops / tile_secs / 1e9;
    layers.set("cpu.microkernel.tile_gflops", tile_gflops);
    layers.set(
        "cpu.microkernel.pct_of_peak",
        100.0 * tile_gflops / peak_gflops,
    );
    layers.set("cpu.microkernel.mac_ms", mac_secs * 1e3);
    layers.set("cpu.microkernel.flops", flops);
    layers.set("cpu.microkernel.intensity", flops / bytes);

    // packcache: the executor's sharded table (one shard per worker),
    // each worker thread running its contiguous share of the CTAs.
    // Redundancy is packs per distinct panel: 1 when every panel was
    // packed once, W when every shard packed everything.
    let (mut packs, mut distinct, mut fallbacks) = (0, 0, 0);
    rec.span("cpu.packcache", |_| {
        for p in problems {
            let tile = p.space.tile();
            let cache =
                PackCache::for_kernel_sharded(&p.space, kind, WaitPolicy::default(), workers)
                    .expect("the default kernel consumes panels");
            std::thread::scope(|s| {
                for w in 0..workers {
                    let cache = &cache;
                    s.spawn(move || {
                        let mut bufs = PackBuffers::new();
                        let mut accum = vec![T::ZERO; tile.blk_m * tile.blk_n];
                        for cta in &p.ctas[contiguous_range(p.ctas.len(), workers, w)] {
                            for seg in cta.segments(&p.space) {
                                mac_loop_kernel_cached(
                                    kind,
                                    Some(cache),
                                    w,
                                    &p.a,
                                    &p.b,
                                    &p.space,
                                    seg.tile_idx,
                                    seg.local_begin,
                                    seg.local_end,
                                    &mut accum,
                                    &mut bufs,
                                );
                            }
                        }
                        std::hint::black_box(&accum);
                    });
                }
            });
            packs += cache.packs();
            distinct += cache.panels() / cache.shards();
            fallbacks += cache.fallbacks();
        }
    });
    layers.set("cpu.packcache.packs", packs as f64);
    layers.set(
        "cpu.packcache.redundancy",
        packs as f64 / distinct.max(1) as f64,
    );
    layers.set("cpu.packcache.fallbacks", fallbacks as f64);

    Inner {
        mac_ms: mac_secs * 1e3,
        flops,
    }
}

// ---------------------------------------------------------------------------
// executor and trace figures
// ---------------------------------------------------------------------------

/// What the timed loops of a traced run produced.
struct Loops {
    /// Untraced op times, ms.
    untraced: Outcome,
    /// Traced op p50, ms; `None` where the path records no trace.
    traced_p50_ms: Option<f64>,
    /// One worker, data-parallel schedule: the plain baseline, ms.
    t1_ms: f64,
    /// `W` workers, data-parallel schedule, ms.
    dp_ms: f64,
    /// Heap allocations the untraced ops made, and the bytes that
    /// were still live after each op beyond what was live before it.
    heap: HeapUse,
    counters: LaunchCounters,
}

/// The executor's public per-launch counters (`last_stats()`), summed
/// over the untraced launches of a traced run.
#[derive(Default, Clone, Copy)]
struct LaunchCounters {
    stall_us: f64,
    deferrals: usize,
    recoveries: usize,
    steals: usize,
}

impl LaunchCounters {
    fn add(&mut self, s: ExecStats) {
        self.stall_us += s.wait_stall.as_secs_f64() * 1e6;
        self.deferrals += s.deferrals;
        self.recoveries += s.recoveries;
        self.steals += s.steals;
    }

    /// Per-op means; the two figures that need a second thread stay
    /// at 0 on one worker (the unit probes print why).
    fn publish(&self, layers: &mut Layers, ops: usize, parallel: bool) {
        let ops = ops as f64;
        layers.set("cpu.sched.steals", self.steals as f64 / ops);
        layers.set("cpu.fixup.recoveries", self.recoveries as f64 / ops);
        if parallel {
            layers.set("cpu.fixup.wait_stall_us", self.stall_us / ops);
            layers.set("cpu.fixup.deferrals", self.deferrals as f64 / ops);
        }
    }
}

/// Heap activity summed over the untraced ops of a traced run.
#[derive(Default, Clone, Copy)]
struct HeapUse {
    allocs: u64,
    growth_bytes: i64,
}

impl HeapUse {
    /// Runs `op` and adds what it allocated and left behind.
    fn watch<T>(&mut self, op: impl FnOnce() -> T) -> T {
        let (allocs, live) = (heap::allocs(), heap::live());
        let out = op();
        self.allocs += heap::allocs() - allocs;
        self.growth_bytes += heap::live() as i64 - live as i64;
        out
    }

    fn publish(&self, layers: &mut Layers, ops: usize) {
        layers.set("heap.allocs_per_op", self.allocs as f64 / ops as f64);
        layers.set(
            "heap.growth_kb_per_op",
            self.growth_bytes as f64 / 1024.0 / ops as f64,
        );
    }
}

/// `op_*`, `heap.*`, the per-launch counters, `cpu.executor.*` and
/// `cpu.trace.overhead_pct`; returns the untraced ops' counts.
fn executor_layer(
    layers: &mut Layers,
    env: &Env,
    loops: &Loops,
    inner: &Inner,
    peak_gflops: f64,
) -> Counts {
    let p50_ms = op_percentiles(layers, &loops.untraced.op_ms);
    loops.heap.publish(layers, loops.untraced.attempted);
    loops
        .counters
        .publish(layers, loops.untraced.attempted, env.parallel());
    let gflops = inner.flops / (p50_ms * 1e-3) / 1e9;
    layers.set("cpu.executor.gflops", gflops);
    layers.set(
        "cpu.executor.pct_of_peak",
        100.0 * gflops / (env.workers as f64 * peak_gflops),
    );
    layers.set("cpu.executor.t1_ms", loops.t1_ms);
    layers.set("cpu.executor.dp_ms", loops.dp_ms);
    layers.set(
        "cpu.executor.overhead_ms",
        p50_ms - inner.mac_ms / env.workers as f64,
    );
    if env.parallel() {
        layers.set(
            "cpu.executor.parallel_eff",
            loops.t1_ms / (env.workers as f64 * p50_ms),
        );
        layers.set("cpu.executor.sk_over_dp", p50_ms / loops.dp_ms);
    } else {
        layers.not_measured(
            "cpu.executor.parallel_eff, cpu.executor.sk_over_dp*",
            "one worker: no second thread to scale onto or to split a tile with",
        );
    }
    match loops.traced_p50_ms {
        Some(traced) => layers.set("cpu.trace.overhead_pct", 100.0 * (traced - p50_ms) / p50_ms),
        None => layers.not_measured(
            "cpu.trace.overhead_pct, cpu.phase.*",
            "this entry point records no trace",
        ),
    }
    Counts::from(&loops.untraced)
}

/// Accumulated self time per phase against the time it could fill.
#[derive(Default)]
struct PhaseTotals {
    phase_ns: [u64; Phase::ALL.len()],
    /// Worker-time (launches) or request-time (service) available, ns.
    available_ns: u64,
}

impl PhaseTotals {
    /// Adds one track's spans (one worker of a launch, or one request
    /// of the service) by *self* time: a span's duration minus what
    /// the spans inside it cover. `Mac` spans enclose the pack spans
    /// of the same segment, so summing durations per phase — what
    /// `Metrics::phase_ns` does — counts packing twice. Container
    /// kinds (`Cta`, `DeferResume`) keep only what no leaf inside
    /// them claims, and that stays unattributed.
    fn add_track(&mut self, spans: &[Span]) {
        let mut order: Vec<&Span> = spans.iter().collect();
        order.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
        let mut self_ns = vec![0u64; order.len()];
        let mut open: Vec<usize> = Vec::new();
        for (i, span) in order.iter().enumerate() {
            while open
                .last()
                .is_some_and(|&top| order[top].end_ns <= span.start_ns)
            {
                open.pop();
            }
            self_ns[i] = span.dur_ns();
            if let Some(&parent) = open.last() {
                let covered = span.end_ns.min(order[parent].end_ns) - span.start_ns;
                self_ns[parent] = self_ns[parent].saturating_sub(covered);
            }
            open.push(i);
        }
        for (span, ns) in order.iter().zip(self_ns) {
            if !span.kind.is_container() {
                self.phase_ns[span.kind.phase().index()] += ns;
            }
        }
    }

    fn add_launch(&mut self, trace: &ExecTrace) {
        for worker in &trace.workers {
            self.add_track(&worker.spans);
        }
        self.available_ns += trace.wall_ns * trace.workers.len() as u64;
    }

    /// `cpu.phase.*`: each phase's self time over the available time,
    /// the remainder as `unattributed`. Self times on one track cannot
    /// exceed it, so the shares sum to 1; if spans overlap without
    /// nesting they can overshoot, and the run then prints the gap.
    fn publish(&self, layers: &mut Layers) {
        if self.available_ns == 0 {
            return;
        }
        let share = |p: Phase| self.phase_ns[p.index()] as f64 / self.available_ns as f64;
        let attributed: f64 = Phase::ALL.iter().map(|p| share(*p)).sum();
        for p in Phase::ALL {
            layers.set(&format!("cpu.phase.{}_share", p.name()), share(p));
        }
        layers.set("cpu.phase.unattributed_share", (1.0 - attributed).max(0.0));
        if attributed > 1.0 + SHARE_TOLERANCE {
            layers.notes.push(format!(
                "cpu.phase.*_share: spans claim {attributed:.4} of the available time — a gap of {:.4} beyond the {SHARE_TOLERANCE} tolerance",
                attributed - 1.0
            ));
        }
    }
}

/// Ops the untraced loop attempted and how many produced a wrong
/// output — the traced run's `attempted` and `failed`.
struct Counts {
    attempted: usize,
    failed: usize,
}

impl From<&Outcome> for Counts {
    fn from(out: &Outcome) -> Self {
        Self {
            attempted: out.attempted,
            failed: out.failed,
        }
    }
}

/// What a traced run keeps for the Chrome trace besides its own spans.
#[derive(Default)]
struct Captures {
    launch: Option<ExecTrace>,
    service: Option<ServeTrace>,
}

fn direct_layers<T: Promote<T> + Scalar>(
    rec: &mut Recorder,
    layers: &mut Layers,
    captures: &mut Captures,
    d: &Direct<T>,
    env: &Env,
    seconds: f64,
    peak_gflops: f64,
) -> Counts {
    let w = env.workers;
    let share = |s: f64| Duration::from_secs_f64(seconds * s);
    core_layer(rec, layers, w, || {
        d.gemms
            .iter()
            .map(|g| Schedule::from((d.schedule)(g.shape, g.tile, w)))
            .collect()
    });
    let problems: Vec<_> = d.gemms.iter().map(Problem::of).collect();
    let inner = inner_layers(rec, layers, &problems, w, peak_gflops);

    // The paired loop. Untraced: op and per-GEMM times plus the
    // executor's public per-launch counters. Traced: the same op on an
    // executor with its own tracing on. Then the data-parallel
    // schedule on W workers and on one — the plain baseline.
    let traced_exec = CpuExecutor::with_threads(w).with_trace(true);
    let single = CpuExecutor::with_threads(1);
    let mut phases = PhaseTotals::default();
    let mut per_gemm: Vec<Vec<f64>> = vec![Vec::new(); d.gemms.len()];
    let mut dp_per_gemm = per_gemm.clone();
    let (mut traced_s, mut dp_s, mut t1_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut heap, mut counters) = (HeapUse::default(), LaunchCounters::default());
    let (untraced, _) = rec.span("paired_loop", |rec| {
        timed(share(PAIRED_SHARE), |i| {
            let mut ok = true;
            let secs = heap.watch(|| {
                d.cycle(
                    &d.exec,
                    |g| &g.sk,
                    |_, g, out| {
                        ok &= g.matches(out);
                        counters.add(d.exec.last_stats());
                    },
                )
            });
            let mut traced_op = |_: &mut Recorder| {
                d.cycle(
                    &traced_exec,
                    |g| &g.sk,
                    |_, _, _| {
                        if let Some(trace) = traced_exec.last_trace() {
                            phases.add_launch(&trace);
                            captures.launch.get_or_insert(trace);
                        }
                    },
                )
            };
            let traced = if i < OP_SPANS {
                rec.span("traced_op", &mut traced_op).0
            } else {
                traced_op(rec)
            };
            let dp = d.cycle(&d.exec, |g| &g.dp, |_, _, _| {});
            let t1 = d.cycle(&single, |g| &g.dp, |_, _, _| {});
            for (g, (sk, dp)) in secs.iter().zip(&dp).enumerate() {
                per_gemm[g].push(*sk);
                dp_per_gemm[g].push(*dp);
            }
            traced_s.push(traced.iter().sum());
            dp_s.push(dp.iter().sum());
            t1_s.push(t1.iter().sum());
            (secs.iter().sum(), ok)
        })
    });
    phases.publish(layers);
    let loops = Loops {
        untraced,
        traced_p50_ms: Some(median_ms(&traced_s)),
        t1_ms: median_ms(&t1_s),
        dp_ms: median_ms(&dp_s),
        heap,
        counters,
    };
    let counts = executor_layer(layers, env, &loops, &inner, peak_gflops);
    // Stream-K against data-parallel shape by shape, where a cycle
    // has more than one (`direct-deepk` declares five).
    if env.parallel() && d.gemms.len() > 1 {
        for (i, (sk, dp)) in per_gemm.iter().zip(&dp_per_gemm).enumerate().take(5) {
            layers.set(
                &format!("cpu.executor.sk_over_dp.s{i}"),
                median_ms(sk) / median_ms(dp),
            );
        }
    }
    counts
}

fn grouped_batched_layers(
    rec: &mut Recorder,
    layers: &mut Layers,
    g: &GroupedBatched,
    env: &Env,
    seconds: f64,
    peak_gflops: f64,
) -> Counts {
    let w = env.workers;
    let share = |s: f64| Duration::from_secs_f64(seconds * s);
    core_layer(rec, layers, w, || {
        vec![
            BatchedDecomposition::stream_k(g.batched.space().clone(), w).into(),
            GroupedDecomposition::stream_k(g.grouped.space().clone(), w).into(),
        ]
    });
    // The inner layers see each instance as its own space, split the
    // way basic Stream-K would split it alone; the combined grids'
    // own CTAs cross instances and have no per-instance cache.
    let problems: Vec<_> = GroupedBatched::shapes()
        .into_iter()
        .enumerate()
        .map(|(i, shape)| {
            let tile = g.batched.space().instance().tile();
            Problem {
                a: g.a[i].view(),
                b: g.b[i].view(),
                space: IterSpace::new(shape, tile),
                ctas: Decomposition::stream_k(shape, tile, w).ctas().to_vec(),
            }
        })
        .collect();
    let inner = inner_layers(rec, layers, &problems, w, peak_gflops);

    let single = CpuExecutor::with_threads(1);
    let timed_dp = |exec: &CpuExecutor| {
        let t0 = Instant::now();
        std::hint::black_box(g.launch(exec, true));
        t0.elapsed().as_secs_f64()
    };
    let (mut dp_s, mut t1_s) = (Vec::new(), Vec::new());
    let (mut heap, mut counters) = (HeapUse::default(), LaunchCounters::default());
    let (untraced, _) = rec.span("paired_loop", |_| {
        timed(share(PAIRED_SHARE), |_| {
            let out = heap.watch(|| g.op());
            // Counters of the op's second launch (the grouped one);
            // the batched launch's are overwritten before it returns.
            counters.add(g.exec.last_stats());
            dp_s.push(timed_dp(&g.exec));
            t1_s.push(timed_dp(&single));
            out
        })
    });
    let loops = Loops {
        untraced,
        traced_p50_ms: None,
        t1_ms: median_ms(&t1_s),
        dp_ms: median_ms(&dp_s),
        heap,
        counters,
    };
    executor_layer(layers, env, &loops, &inner, peak_gflops)
}

// ---------------------------------------------------------------------------
// service
// ---------------------------------------------------------------------------

/// One open-loop run at `rate` requests per second for `duration`:
/// request `i` is due at `i / rate` whatever the service is doing,
/// and is timed from that due time. Returns `(p50_ms, p99_ms,
/// late_p99_ms, ok)`, `ok` meaning the tail met [`OPEN_LIMIT_MS`],
/// nothing was rejected or wrong, and the backlog did not grow.
fn open_loop(s: &mut Serve, rate: usize, duration: Duration) -> (f64, f64, f64, bool) {
    let total = (rate as f64 * duration.as_secs_f64()).ceil() as usize;
    let mut requests = Vec::with_capacity(total);
    for _ in 0..total {
        let (entry, priority) = s.deal();
        requests.push((entry, s.request(entry, priority)));
    }
    let service = GemmService::<f32, f32>::start(&s.exec, Serve::config());
    // Per request in flight: its mix entry, the seconds that passed
    // between its due time and the end of `submit()` (before the
    // service's own clock starts), and its handle.
    let mut inflight: VecDeque<(usize, f64, CompletionHandle<f32, f32>)> = VecDeque::new();
    let (mut latency_ms, mut late_ms) = (Vec::with_capacity(total), Vec::with_capacity(total));
    let (mut failed, mut backlog_half) = (0usize, 0usize);
    let mix = &s.mix;
    let mut settle =
        |(entry, head_start_s, handle): (usize, f64, CompletionHandle<f32, f32>)| match handle
            .wait()
        {
            Ok((c, stats)) => {
                failed += usize::from(!mix[entry].matches(&c));
                latency_ms.push((head_start_s + stats.latency.as_secs_f64()) * 1e3);
            }
            Err(_) => failed += 1,
        };
    let mut rejected_at_submit = 0usize;
    let start = Instant::now();
    for (i, (entry, req)) in requests.into_iter().enumerate() {
        let due = Duration::from_secs_f64(i as f64 / rate as f64);
        // Sleep most of the gap, spin the rest: a sleeping generator
        // wakes late, and lateness is part of what is reported.
        while start.elapsed() < due {
            let gap = due.saturating_sub(start.elapsed());
            if gap > Duration::from_micros(200) {
                std::thread::sleep(gap - Duration::from_micros(100));
            } else {
                std::hint::spin_loop();
            }
        }
        late_ms.push((start.elapsed() - due).as_secs_f64() * 1e3);
        match service.submit(req) {
            Ok(handle) => {
                inflight.push_back((entry, (start.elapsed() - due).as_secs_f64(), handle))
            }
            Err(_) => rejected_at_submit += 1,
        }
        // Collect what has finished, so outputs do not pile up.
        while inflight.front().is_some_and(|(_, _, h)| h.is_finished()) {
            settle(inflight.pop_front().expect("front exists"));
        }
        if i == total / 2 {
            backlog_half = inflight.len();
        }
    }
    let backlog_end = inflight.len();
    inflight.into_iter().for_each(&mut settle);
    service.shutdown();
    let (latency_ms, late_ms) = (stats::sorted(latency_ms), stats::sorted(late_ms));
    let tail = stats::highest_supported(&[50, 90, 95, 99], latency_ms.len()).unwrap_or(50);
    let tail_ms = stats::percentile(&latency_ms, tail);
    let ok = failed == 0
        && rejected_at_submit == 0
        && tail_ms <= OPEN_LIMIT_MS
        && backlog_end <= backlog_half + SERVE_BACKLOG_SLACK;
    (
        stats::percentile(&latency_ms, 50),
        tail_ms,
        stats::percentile(&late_ms, tail),
        ok,
    )
}

/// Requests the backlog may grow by between the middle and the end of
/// an open-loop run before it counts as growing: two service windows.
const SERVE_BACKLOG_SLACK: usize = 2 * SERVE_WINDOW;

fn serve_layers(
    rec: &mut Recorder,
    layers: &mut Layers,
    captures: &mut Captures,
    s: &mut Serve,
    env: &Env,
    seconds: f64,
    peak_gflops: f64,
) -> Counts {
    let w = env.service_workers;
    let share = |x: f64| Duration::from_secs_f64(seconds * x);
    let shapes: Vec<(GemmShape, TileShape)> = s
        .mix
        .iter()
        .map(|m| (m.shape, m.decomp.space().tile()))
        .collect();
    core_layer(rec, layers, w, || {
        shapes
            .iter()
            .map(|&(shape, tile)| Decomposition::stream_k(shape, tile, w).into())
            .collect()
    });
    {
        let problems: Vec<_> = s
            .mix
            .iter()
            .map(|m| Problem {
                a: m.a.view(),
                b: m.b.view(),
                space: m.decomp.space().clone(),
                ctas: m.decomp.ctas().to_vec(),
            })
            .collect();
        inner_layers(rec, layers, &problems, w, peak_gflops);
    }

    // Closed loops, untraced and traced (per-request span rings on),
    // in two alternating halves each so neither has the quieter
    // machine to itself. The untraced halves give the service's
    // public per-request and service-wide counters; request traces
    // are drained as the traced halves run (the service keeps the
    // last 1024).
    let half = share(CLOSED_SHARE / 2.0);
    let (mut untraced, mut traced) = (Outcome::default(), Outcome::default());
    let mut totals = ServiceStats::default();
    let mut phases = PhaseTotals::default();
    let mut heap = HeapUse::default();
    for _ in 0..2 {
        let service = GemmService::<f32, f32>::start(&s.exec, Serve::config());
        // The sample buffers grow inside the loop; reserve them first
        // so their growth is not counted as the service's.
        untraced.op_ms.reserve(1 << 16);
        untraced.requests.reserve(1 << 16);
        heap.watch(|| {
            rec.span("untraced_loop", |_| {
                s.closed_loop(&service, half, &mut untraced, |_| {})
            })
        });
        let t = service.shutdown();
        totals.completed += t.completed;
        totals.rejected += t.rejected;
        totals.ctas += t.ctas;
        totals.steals += t.steals;
        totals.deferrals += t.deferrals;
        totals.wait_stall += t.wait_stall;

        let service = GemmService::<f32, f32>::start(&s.exec, Serve::config().with_trace(true));
        let drain = |phases: &mut PhaseTotals, captures: &mut Captures| {
            let trace = service.take_trace();
            for request in &trace.requests {
                phases.add_track(&request.spans);
            }
            captures.service.get_or_insert(trace);
        };
        rec.span("traced_loop", |_| {
            s.closed_loop(&service, half, &mut traced, |done| {
                if done % 512 == 0 {
                    drain(&mut phases, captures);
                }
            })
        });
        drain(&mut phases, captures);
        service.shutdown();
    }
    let column = |f: fn(&RequestTimes) -> f64| {
        stats::sorted(untraced.requests.iter().map(|t| f(t) * 1e6).collect())
    };
    let (submit, queued, service_us) = (
        column(|t| t.submit),
        column(|t| t.queued),
        column(|t| t.service),
    );
    let n = untraced.op_ms.len();
    let p50_ms = op_percentiles(layers, &untraced.op_ms);
    // Request clones made by the generator are in the count: the
    // service's `LaunchRequest` takes its operands by value.
    heap.publish(layers, untraced.attempted);
    if stats::supported(99, n) {
        layers.set("cpu.serve.submit_us_p99", stats::percentile(&submit, 99));
        layers.set("cpu.serve.queued_us_p99", stats::percentile(&queued, 99));
    }
    layers.set("cpu.serve.submit_us_p50", stats::percentile(&submit, 50));
    layers.set("cpu.serve.queued_us_p50", stats::percentile(&queued, 50));
    layers.set(
        "cpu.serve.service_us_p50",
        stats::percentile(&service_us, 50),
    );
    let completed = totals.completed.max(1) as f64;
    layers.set("cpu.serve.ctas", totals.ctas as f64 / completed);
    layers.set("cpu.serve.steals", totals.steals as f64 / completed);
    layers.set("cpu.serve.deferrals", totals.deferrals as f64 / completed);
    layers.set(
        "cpu.serve.wait_stall_us",
        totals.wait_stall.as_secs_f64() * 1e6 / completed,
    );
    layers.set("cpu.serve.rejected", totals.rejected as f64);
    // Four requests are in flight at once, so the service's
    // throughput is requests over the loops' wall time.
    let closed_rps = n as f64 / untraced.wall_s;
    layers.set("ops_per_s", closed_rps);
    // Request-time, not worker-time: a request is queued or in
    // service for its whole latency, so that is what its spans fill.
    phases.available_ns = (traced
        .requests
        .iter()
        .map(|t| t.queued + t.service)
        .sum::<f64>()
        * 1e9) as u64;
    phases.publish(layers);
    layers.set(
        "cpu.trace.overhead_pct",
        100.0 * (stats::median(&traced.op_ms) - p50_ms) / p50_ms,
    );

    // The same mix launched directly on the same executor: what the
    // service adds to a request, and what it costs in throughput.
    let mut launch_us = Vec::new();
    let (direct, _) = rec.span("baseline.direct", |_| {
        timed(share(DIRECT_SHARE), |_| {
            let (entry, _) = s.deal();
            let m = &s.mix[entry];
            let t0 = Instant::now();
            let c = s.exec.gemm::<f32, f32>(&m.a, &m.b, &m.decomp);
            let secs = t0.elapsed().as_secs_f64();
            launch_us.push(secs * 1e6);
            (secs, m.matches(&c))
        })
    });
    let direct_p50_us = stats::median(&launch_us);
    layers.set(
        "cpu.serve.service_over_direct",
        stats::percentile(&service_us, 50) / direct_p50_us,
    );
    layers.set(
        "cpu.serve.closed_over_direct",
        closed_rps / (direct.op_ms.len() as f64 / direct.wall_s),
    );

    // Open-loop sweep. Diagnostic: these figures do not repeat from
    // run to run well enough to be end-to-end metrics (see README).
    let mut max_rate_ok = 0.0;
    for rate in OPEN_RATES {
        let ((p50, tail, late, ok), _) = rec.span(&format!("open_loop.r{rate}"), |_| {
            open_loop(s, rate, share(OPEN_LOOP_SHARE))
        });
        layers.set(&format!("cpu.serve.open.r{rate}.p50_ms"), p50);
        layers.set(&format!("cpu.serve.open.r{rate}.p99_ms"), tail);
        layers.set(&format!("cpu.serve.open.r{rate}.late_p99_ms"), late);
        if ok {
            max_rate_ok = rate as f64;
        }
    }
    layers.set("cpu.serve.open.max_rate_ok", max_rate_ok);
    Counts::from(&untraced)
}

// ---------------------------------------------------------------------------
// simulator
// ---------------------------------------------------------------------------

fn sim_layers(rec: &mut Recorder, layers: &mut Layers, s: &SimCorpus, seconds: f64) -> Counts {
    let mut heap = HeapUse::default();
    let (untraced, _) = rec.span("untraced_loop", |_| {
        timed(Duration::from_secs_f64(seconds * PAIRED_SHARE), |i| {
            heap.watch(|| s.op(i))
        })
    });
    heap.publish(layers, untraced.attempted);
    let counts = Counts::from(&untraced);
    op_percentiles(layers, &untraced.op_ms);
    layers.not_measured(
        "machine.*, matrix.*, cpu.*, select.*",
        "the simulator workload never enters those layers",
    );

    // Each layer of the simulated stack on the workload's first 64
    // problems, mean µs per call.
    const PROBLEMS: usize = crate::workloads::SAMPLE;
    let mean_us = |rec: &mut Recorder, name: &str, f: &dyn Fn(usize)| {
        rec.span(name, |_| best_of(3, || (0..PROBLEMS).for_each(f)))
            .0
            * 1e6
            / PROBLEMS as f64
    };
    let model_decomp = |i: usize| {
        let (shape, precision) = s.problem(i);
        let model = GridSizeModel::new(CostModel::for_precision(precision), s.gpu.sms);
        (
            model.decompose(shape, TileShape::streamk_default(precision)),
            precision,
        )
    };
    let decomps: Vec<_> = (0..PROBLEMS).map(model_decomp).collect();
    layers.set(
        "core.decompose_us",
        mean_us(rec, "core.decompose", &|i| {
            drop(std::hint::black_box(model_decomp(i)))
        }),
    );
    layers.set(
        "core.ctas",
        decomps.iter().map(|(d, _)| d.grid_size()).sum::<usize>() as f64 / PROBLEMS as f64,
    );
    layers.set(
        "core.split_tiles",
        decomps.iter().map(|(d, _)| d.split_tiles()).sum::<usize>() as f64 / PROBLEMS as f64,
    );
    layers.set(
        "core.iter_imbalance",
        decomps
            .iter()
            .map(|(d, _)| d.iter_imbalance())
            .max()
            .unwrap_or(0) as f64,
    );
    layers.set(
        "sim.simulate_us",
        mean_us(rec, "sim.simulate", &|i| {
            let (d, precision) = &decomps[i];
            std::hint::black_box(streamk_sim::simulate(d, &s.gpu, *precision));
        }),
    );
    layers.set(
        "ensemble.heuristic_us",
        mean_us(rec, "ensemble.heuristic", &|i| {
            let (shape, precision) = s.problem(i);
            std::hint::black_box(runners::run_heuristic(shape, precision, &s.gpu));
        }),
    );
    layers.set(
        "ensemble.oracle_us",
        mean_us(rec, "ensemble.oracle", &|i| {
            let (shape, precision) = s.problem(i);
            std::hint::black_box(runners::run_oracle(shape, precision, &s.gpu));
        }),
    );
    let (_, generate_s) = rec.span("corpus.generate", |_| {
        std::hint::black_box(Corpus::generate(CorpusConfig::paper()))
    });
    layers.set("corpus.generate_ms", generate_s * 1e3);
    counts
}

// ---------------------------------------------------------------------------
// the traced run
// ---------------------------------------------------------------------------

/// Compute peaks and the unit cost of each `cpu` mechanism, measured
/// in this run so every `pct_of_peak` has its denominator beside it.
/// Returns the one-thread multiply-add peak for the workload's element
/// type.
fn machine_and_unit_probes(
    rec: &mut Recorder,
    layers: &mut Layers,
    env: &Env,
    shape: GemmShape,
    f64_elems: bool,
) -> f64 {
    let (peaks, _) = rec.span("machine.peaks", |_| probes::peaks());
    layers.set("machine.peak_gflops_f32", peaks.mul_add_f32);
    layers.set("machine.peak_gflops_f64", peaks.mul_add_f64);
    layers.set("machine.peak_fma_gflops_f32", peaks.fma_f32);

    layers.set(
        "cpu.pool.launch_us",
        rec.span("cpu.pool.launch", |_| probes::pool_launch_us(env.workers))
            .0,
    );
    let ((alone, contended), _) =
        rec.span("cpu.sched.claim", |_| probes::sched_claim_ns(env.workers));
    layers.set("cpu.sched.claim_ns", alone);
    layers.set(
        "cpu.packcache.hit_ns",
        rec.span("cpu.packcache.hit", |_| probes::packcache_hit_ns())
            .0,
    );
    if env.parallel() {
        layers.set("cpu.sched.claim_contended_ns", contended);
        layers.set(
            "cpu.fixup.signal_take_us",
            rec.span("cpu.fixup.signal_take", |_| {
                probes::fixup_signal_take_us(64 * 64)
            })
            .0,
        );
    } else {
        layers.not_measured(
            "cpu.sched.claim_contended_ns, cpu.fixup.signal_take_us, cpu.fixup.wait_stall_us, cpu.fixup.deferrals",
            "one core: a hand-off between two threads would time the OS scheduler",
        );
    }
    let ((slate_us, select_us), _) = rec.span("select", |_| probes::select_us(shape, env.workers));
    layers.set("select.slate_us", slate_us);
    layers.set("select.select_warm_us", select_us);
    if f64_elems {
        peaks.mul_add_f64
    } else {
        peaks.mul_add_f32
    }
}

/// Where the traced runs leave their Chrome traces.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Sets `name` up once, measures every per-layer metric, and writes
/// the run's spans as `benchmark/out/<name>.trace.json`.
pub fn run_traced(
    name: &str,
    idx: usize,
    seed: u64,
    seconds: f64,
    env: &Env,
) -> Result<RunResult, String> {
    let mut rec = Recorder::new();
    let mut layers = Layers::new();
    let mut captures = Captures::default();
    let ((verified, counts), _) = rec.span(name, |rec| {
        let (workload, _) = rec.span("setup", |_| Workload::setup(name, seed, env));
        let mut workload = workload.expect("the workload name was checked against the declaration");
        let (layers, captures) = (&mut layers, &mut captures);
        let counts = match &mut workload {
            Workload::F32(d) => {
                let peak = machine_and_unit_probes(rec, layers, env, d.gemms[0].shape, false);
                direct_layers(rec, layers, captures, d, env, seconds, peak)
            }
            Workload::F64(d) => {
                let peak = machine_and_unit_probes(rec, layers, env, d.gemms[0].shape, true);
                direct_layers(rec, layers, captures, d, env, seconds, peak)
            }
            Workload::GroupedBatched(g) => {
                let peak =
                    machine_and_unit_probes(rec, layers, env, GroupedBatched::shapes()[0], false);
                grouped_batched_layers(rec, layers, g, env, seconds, peak)
            }
            Workload::Serve(s) => {
                let peak = machine_and_unit_probes(rec, layers, env, s.mix[0].shape, false);
                serve_layers(rec, layers, captures, s, env, seconds, peak)
            }
            Workload::Sim(s) => sim_layers(rec, layers, s, seconds),
        };
        // Resident memory is read before the reference job and the
        // bandwidth probe map their arrays.
        layers.set("peak_rss_mb", env::peak_rss_mb());
        let (job_ms, _) = rec.span("machine.ref_job", |_| {
            let job = Reference::new(busy_threads(name, env));
            stats::median(
                &(0..REF_JOB_RUNS)
                    .map(|_| job.run().slowest)
                    .collect::<Vec<_>>(),
            )
        });
        layers.set("machine.ref_job_ms", job_ms);
        if !matches!(workload, Workload::Sim(_)) {
            let ((gbps, llc_mb, array_mb), _) =
                rec.span("machine.stream", |_| probes::stream_read());
            layers.set("machine.stream_gbps", gbps);
            layers.set("machine.llc_mb", llc_mb);
            layers.set("machine.stream_mb", array_mb);
        }
        (workload.verified(), counts)
    });

    let mut w = TraceWriter::new();
    rec.write_chrome_trace(&mut w, 1, name, idx);
    if let Some(trace) = &captures.launch {
        trace.write_chrome_trace(&mut w, 2, "executor: first traced launch");
    }
    if let Some(trace) = &captures.service {
        trace.write_chrome_trace(&mut w, 3, "service: first drained requests");
    }
    let doc = w.finish();
    validate_json(&doc).map_err(|e| format!("the {name} trace is not valid JSON: {e}"))?;
    let path = out_dir().join(format!("{name}.trace.json"));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, doc))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{name}: traced run, seed {seed}, {seconds} s shared by its timed regions; {} probe spans -> {}", rec.len(), path.display());
    for note in &layers.notes {
        println!("{name}: {note}");
    }
    Ok(RunResult {
        correct: verified && counts.failed == 0,
        attempted: counts.attempted,
        failed: counts.failed,
        metrics: in_declared_order(&spec().per_layer, layers.values),
    })
}
