//! Command implementations.

use crate::args::{Cli, Command, StrategyArg, USAGE};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamk_core::{
    BatchedDecomposition, BatchedSpace, CostModel, Decomposition, ExecutorError, GridSizeModel,
    GroupedDecomposition, GroupedSpace, IterSpace, Phase, SpanKind, TileFixup, TraceWriter,
};
use streamk_corpus::{Corpus, CorpusConfig};
use streamk_cpu::trace::ring_allocations;
use streamk_cpu::{
    leaf_decomposition, mac_loop_kernel, mac_loop_kernel_cached, machine_epsilon, max_abs,
    strassen_error_bound, CpuExecutor, FaultKind, FaultPlan, GemmService,
    KernelKind, LaunchRequest, PackBuffers, PackCache, Priority, RecoveryReport, ServeConfig,
    ServeError, ServeFaultKind, ServeFaultPlan, ServiceCounter, SimdLevel, StrassenArena, StrassenConfig,
    TelemetryRegistry, WaitPolicy,
};
use streamk_cpu::macloop::mac_loop_view;
use streamk_ensemble::runners;
use streamk_matrix::Matrix;
use streamk_sim::{
    render_gantt, render_svg, simulate, simulate_with_faults, write_chrome_trace, CtaSpan, GpuSpec,
    SimFaultPlan, SimReport, SvgOptions,
};
use streamk_types::{GemmShape, Layout, Precision, TileShape};

/// Provenance stamp for bench reports: tool name, short git commit,
/// and rustc version, so trajectory entries stay attributable across
/// PRs. Both probes degrade to `"unknown"` outside a git checkout or
/// without a toolchain on PATH.
fn provenance(tool: &str) -> String {
    let probe = |cmd: &str, args: &[&str]| -> Option<String> {
        let out = std::process::Command::new(cmd).args(args).output().ok()?;
        if !out.status.success() {
            return None;
        }
        let text = String::from_utf8(out.stdout).ok()?;
        let text = text.trim();
        (!text.is_empty()).then(|| text.to_string())
    };
    let commit =
        probe("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let rustc = probe("rustc", &["--version"]).unwrap_or_else(|| "rustc unknown".into());
    format!("streamk {tool} @ {commit} ({rustc})")
}

/// Builds the decomposition a [`StrategyArg`] describes.
fn build(strategy: StrategyArg, shape: GemmShape, tile: TileShape, sms: usize, precision: Precision) -> Decomposition {
    match strategy {
        StrategyArg::DataParallel => Decomposition::data_parallel(shape, tile),
        StrategyArg::FixedSplit(s) => Decomposition::fixed_split(shape, tile, s),
        StrategyArg::StreamK(g) => Decomposition::stream_k(shape, tile, g),
        StrategyArg::Hybrid => Decomposition::two_tile_stream_k_dp(shape, tile, sms),
        StrategyArg::Auto => GridSizeModel::new(CostModel::for_precision(precision), sms).decompose(shape, tile),
    }
}

/// Executes a parsed invocation, returning the output text.
#[must_use]
pub fn execute(cli: &Cli) -> String {
    match &cli.command {
        Command::Help => USAGE.to_string(),
        Command::Schedule { shape, tile, sms, strategy } => {
            let decomp = build(*strategy, *shape, *tile, *sms, Precision::Fp64);
            let mut gpu = GpuSpec::hypothetical_4sm();
            gpu.sms = *sms;
            let report = simulate(&decomp, &gpu, Precision::Fp64);
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{shape} GEMM, blocking {tile}, {} on a {sms}-SM overhead-free GPU",
                decomp.strategy()
            );
            let _ = writeln!(
                out,
                "{} output tiles x {} iterations; grid {} CTAs; {} split seams\n",
                decomp.space().tiles(),
                decomp.space().iters_per_tile(),
                decomp.grid_size(),
                decomp.split_tiles()
            );
            out.push_str(&render_gantt(&report, 72));
            out
        }
        Command::BestGrid { shape, tile, precision, sms } => {
            let model = GridSizeModel::new(CostModel::for_precision(*precision), *sms);
            let best = model.best_grid(*shape, *tile);
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{shape} at {tile} ({precision}): {} tiles x {} iters; modeled best grid g* = {best}",
                tile.output_tiles(*shape),
                tile.iters_per_tile(*shape)
            );
            let _ = writeln!(out, "\n  g   iters/CTA  peers  time(units)");
            let curve = model.curve(*shape, *tile);
            // Print a readable subsample: every point for small curves,
            // powers + neighbourhood of the minimum for large ones.
            let show: Vec<usize> = if curve.len() <= 24 {
                (1..=curve.len()).collect()
            } else {
                let mut v: Vec<usize> = vec![1, 2, 4, 8, 16, 32, 64, curve.len()];
                for g in best.saturating_sub(2)..=(best + 2).min(curve.len()) {
                    if g >= 1 {
                        v.push(g);
                    }
                }
                v.sort_unstable();
                v.dedup();
                v
            };
            for g in show {
                let (_, t) = curve[g - 1];
                let marker = if g == best { "  <-- g*" } else { "" };
                let _ = writeln!(
                    out,
                    "{g:>4} {:>10} {:>6} {:>12.1}{marker}",
                    model.iters_per_cta(*shape, *tile, g),
                    model.fixup_peers(*shape, *tile, g),
                    t
                );
            }
            out
        }
        Command::Compare { shape, precision } => {
            let gpu = GpuSpec::a100();
            let sk = runners::run_stream_k(*shape, *precision, &gpu);
            let dp = runners::run_dp_single(*shape, *precision, &gpu);
            let heur = runners::run_heuristic(*shape, *precision, &gpu);
            let oracle = runners::run_oracle(*shape, *precision, &gpu);
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{shape} ({precision}) on the simulated A100 — intensity {:.1} flops/B ({})",
                shape.arithmetic_intensity(*precision),
                if shape.is_compute_bound(*precision) { "compute-bound" } else { "memory-bound" }
            );
            let _ = writeln!(out, "\n{:<22} {:>12} {:>9} {:>10}", "implementation", "makespan", "util", "vs stream-k");
            for (name, r) in [("stream-k", &sk), ("data-parallel", &dp), ("cublas-like", &heur), ("oracle", &oracle)] {
                let _ = writeln!(
                    out,
                    "{name:<22} {:>11.3e}s {:>8.1}% {:>9.2}x",
                    r.makespan,
                    r.utilization() * 100.0,
                    r.makespan / sk.makespan
                );
            }
            out
        }
        Command::Corpus { count } => {
            let corpus = Corpus::generate(CorpusConfig::smoke(*count));
            let mut flops: Vec<u64> = corpus.shapes().iter().map(GemmShape::flops).collect();
            flops.sort_unstable();
            let mut out = String::new();
            let _ = writeln!(out, "corpus: {} shapes, m/n/k log-uniform in [128, 8192]", corpus.len());
            let _ = writeln!(
                out,
                "flops: min {:.2e}  median {:.2e}  max {:.2e}",
                flops[0] as f64,
                flops[flops.len() / 2] as f64,
                flops[flops.len() - 1] as f64
            );
            for p in Precision::ALL {
                let cb = corpus.compute_bound(p);
                let _ = writeln!(
                    out,
                    "{p}: {} of {} compute-bound (> {} flops/B)",
                    cb.len(),
                    corpus.len(),
                    p.compute_bound_threshold()
                );
            }
            out
        }
        Command::Chaos { shape, tile, seeds, threads, watchdog_ms, serve } => {
            run_chaos(*shape, *tile, *seeds, *threads, *watchdog_ms, *serve)
        }
        Command::Bench { size, tile, corpus, reps, smoke, out } => {
            run_bench(*size, *tile, *corpus, *reps, *smoke, out)
        }
        Command::ServeBench {
            threads,
            requests,
            window,
            capacity,
            watchdog_ms,
            smoke,
            out,
            metrics_out,
        } => run_serve_bench(
            *threads,
            *requests,
            *window,
            *capacity,
            *watchdog_ms,
            *smoke,
            out,
            metrics_out.as_deref(),
        ),
        Command::SelectBench { shapes, rounds, reps, threads, smoke, cache, out } => {
            run_select_bench(*shapes, *rounds, *reps, *threads, *smoke, cache, out)
        }
        Command::StrassenBench { cutoff, tile, reps, threads, smoke, out } => {
            run_strassen_bench(*cutoff, *tile, *reps, *threads, *smoke, out)
        }
        Command::Profile { shape, tile, threads, strategy, out, svg, serve } => {
            run_profile(*shape, *tile, *threads, *strategy, out, svg.as_deref(), *serve)
        }
        Command::Svg { shape, tile, sms, strategy, out } => {
            let decomp = build(*strategy, *shape, *tile, *sms, Precision::Fp64);
            let mut gpu = GpuSpec::hypothetical_4sm();
            gpu.sms = *sms;
            let report = simulate(&decomp, &gpu, Precision::Fp64);
            let svg = render_svg(&report, &SvgOptions::default());
            match std::fs::write(out, svg) {
                Ok(()) => format!(
                    "wrote {out} ({} CTAs, {:.1}% quantization)\n",
                    decomp.grid_size(),
                    report.quantization_efficiency() * 100.0
                ),
                Err(e) => format!("failed to write {out}: {e}\n"),
            }
        }
    }
}

/// Times one kernel over every tile of `space` (full local range,
/// single thread) and returns the median of `reps` wall times.
///
/// With `cached`, each run builds a fresh [`PackCache`] and drives the
/// tiles through the cached dispatcher — panels are packed once per
/// run instead of once per tile, which is exactly what the executor's
/// grid does. The scalar kernel, which has no register block, ignores
/// the flag.
#[allow(clippy::too_many_arguments)]
fn time_kernel_f32(
    kind: KernelKind,
    cached: bool,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    space: &IterSpace,
    reps: usize,
    accum: &mut Vec<f32>,
    bufs: &mut PackBuffers<f32>,
) -> f64 {
    let tile = space.tile();
    accum.clear();
    accum.resize(tile.blk_m * tile.blk_n, 0.0);
    let (av, bv) = (a.view(), b.view());
    let total = space.iters_per_tile();
    let run = |acc: &mut [f32], bufs: &mut PackBuffers<f32>| {
        let cache = if cached { PackCache::for_kernel(space, kind, WaitPolicy::default()) } else { None };
        for t in 0..space.tiles() {
            acc.fill(0.0);
            mac_loop_kernel_cached(kind, cache.as_ref(), 0, &av, &bv, space, t, 0, total, acc, bufs);
        }
    };
    run(accum, bufs); // warm-up: grows pack buffers, faults pages in
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            run(accum, bufs);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The bit-exactness gate, layer 1: the register block's f64 output —
/// privately packed *and* through a shared [`PackCache`] — must be
/// *identical* to the scalar `mac_loop_view` on a ragged problem.
/// Returns an error description on the first mismatch.
fn bit_exact_gate(tile: TileShape) -> Result<(), String> {
    let shape = GemmShape::new(tile.blk_m * 2 + 5, tile.blk_n * 2 + 3, tile.blk_k * 4 + 7);
    let space = IterSpace::new(shape, tile);
    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, 0xACC);
    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, 0xB17);
    let mut bufs = PackBuffers::new();
    let len = tile.blk_m * tile.blk_n;
    for kind in KernelKind::ALL {
        let cache = PackCache::for_kernel(&space, kind, WaitPolicy::default());
        for t in 0..space.tiles() {
            let mut reference = vec![0.0f64; len];
            mac_loop_view(&a.view(), &b.view(), &space, t, 0, space.iters_per_tile(), &mut reference);
            let mut got = vec![0.0f64; len];
            mac_loop_kernel(kind, &a.view(), &b.view(), &space, t, 0, space.iters_per_tile(), &mut got, &mut bufs);
            if got != reference {
                return Err(format!("kernel {kind} diverged from mac_loop_view on tile {t} of {shape}"));
            }
            let mut cached = vec![0.0f64; len];
            mac_loop_kernel_cached(kind, cache.as_ref(), 0, &a.view(), &b.view(), &space, t, 0, space.iters_per_tile(), &mut cached, &mut bufs);
            if cached != reference {
                return Err(format!("kernel {kind} through the pack cache diverged on tile {t} of {shape}"));
            }
        }
    }
    Ok(())
}

/// The bit-exactness gate, layer 2: the *executor* must produce
/// byte-identical f64 output with the pack cache on and off, across
/// thread counts, and through a fault-recovery run. Returns an error
/// description on the first divergence.
fn executor_exact_gate(tile: TileShape) -> Result<(), String> {
    let shape = GemmShape::new(tile.blk_m * 2 + 5, tile.blk_n * 2 + 3, tile.blk_k * 4 + 7);
    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, 0xE8A);
    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, 0xE8B);
    let decomp = Decomposition::stream_k(shape, tile, 6);
    let baseline = CpuExecutor::with_threads(6)
        .with_pack_cache(false)
        .gemm::<f64, f64>(&a, &b, &decomp);
    // The grid's split seams need two co-resident CTAs, so two
    // workers is the floor.
    for threads in [2usize, 6] {
        for cache in [false, true] {
            let c = CpuExecutor::with_threads(threads)
                .with_pack_cache(cache)
                .gemm::<f64, f64>(&a, &b, &decomp);
            if c.max_abs_diff(&baseline) != 0.0 {
                return Err(format!("executor diverged at {threads} threads, pack_cache={cache}"));
            }
        }
    }
    // Fault recovery with the cache active: a lost contributor must
    // still recover to the identical answer.
    let contributors = FaultPlan::contributors(&decomp);
    if let Some(&victim) = contributors.first() {
        let plan = FaultPlan::single(victim, FaultKind::Lose);
        let exec = CpuExecutor::with_threads(6).with_watchdog(Duration::from_millis(100));
        match exec.gemm_with_faults::<f64, f64>(&a, &b, &decomp, &plan) {
            Ok((c, report)) => {
                if c.max_abs_diff(&baseline) != 0.0 {
                    return Err("fault recovery with pack cache diverged".into());
                }
                if report.recoveries() == 0 {
                    return Err("fault plan injected but no recovery happened".into());
                }
            }
            Err(e) => return Err(format!("fault recovery failed under pack cache: {e}")),
        }
    }
    Ok(())
}

/// JSON object fragment mapping kernel names to timings.
fn json_timings(timings: &[(KernelKind, f64)]) -> String {
    let fields: Vec<String> =
        timings.iter().map(|(k, t)| format!("\"{}\": {t:.6e}", k.name())).collect();
    format!("{{{}}}", fields.join(", "))
}

/// The kernel sweep behind `streamk bench`: times the register block
/// against the scalar kernel on the headline `size³` f32 problem —
/// privately packed and through the shared [`PackCache`] — plus a
/// corpus slice and a thread-scaling sweep, runs the two-layer f64
/// bit-exactness gate, and writes the whole record to `out` as JSON.
///
/// # Panics
///
/// Panics if the kernel or an executor configuration fails the
/// bit-exactness gates — CI treats that as a hard failure.
fn run_bench(
    size: usize,
    tile: TileShape,
    corpus: usize,
    reps: usize,
    smoke: bool,
    out_path: &str,
) -> String {
    let mut out = String::new();
    let mut accum = Vec::new();
    let mut bufs = PackBuffers::new();
    let simd_level = SimdLevel::detect();
    let block = KernelKind::Block;

    // Gates first: timings of wrong kernels are worthless.
    if let Err(e) = bit_exact_gate(tile) {
        panic!("bit-exactness gate failed: {e}");
    }
    if let Err(e) = executor_exact_gate(tile) {
        panic!("executor bit-exactness gate failed: {e}");
    }
    let _ = writeln!(out, "bit-exactness gate: register block (packed + cached) identical to mac_loop_view (f64)");
    let _ = writeln!(out, "executor gate: pack cache on/off, 2..6 threads, and fault recovery all bit-identical (f64)");
    let _ = writeln!(out, "simd level: {simd_level}");

    // Headline: size³ f32 -> f32, single thread, scalar vs the
    // register block, private per-tile packing vs one shared pack per
    // GEMM.
    let shape = GemmShape::new(size, size, size);
    let space = IterSpace::new(shape, tile);
    let a = Matrix::<f32>::random::<f32>(shape.m, shape.k, Layout::RowMajor, 1);
    let b = Matrix::<f32>::random::<f32>(shape.k, shape.n, Layout::RowMajor, 2);
    let flops = shape.flops() as f64;
    let _ = writeln!(out, "\nheadline {shape} f32, blocking {tile}, single thread, {reps} reps:");
    let mut headline: Vec<(KernelKind, f64)> = Vec::new();
    let mut headline_cached: Vec<(KernelKind, f64)> = Vec::new();
    for kind in KernelKind::ALL {
        let t = time_kernel_f32(kind, false, &a, &b, &space, reps, &mut accum, &mut bufs);
        // The scalar kernel takes the identical path either way —
        // don't time it twice.
        let tc = if kind == block { time_kernel_f32(kind, true, &a, &b, &space, reps, &mut accum, &mut bufs) } else { t };
        let _ = writeln!(
            out,
            "  {:<10} private {t:>10.3e} s ({:>6.2} GF/s)   cached {tc:>10.3e} s ({:>6.2} GF/s)",
            kind.name(),
            flops / t / 1e9,
            flops / tc / 1e9
        );
        headline.push((kind, t));
        headline_cached.push((kind, tc));
    }
    let scalar_s = headline[0].1;
    let block_s = headline_cached[1].1;
    let speedup = scalar_s / block_s;
    let _ = writeln!(out, "  block vs scalar: the register block (cached) is {speedup:.2}x the scalar kernel");

    // Corpus slice: clamp the log-uniform shapes so the sweep stays
    // tractable, then time both kernels on each.
    let cap = if smoke { 128 } else { 320 };
    let shapes: Vec<GemmShape> = Corpus::generate(CorpusConfig::smoke(corpus.max(1) * 3))
        .shapes()
        .iter()
        .map(|s| GemmShape::new(s.m.min(cap), s.n.min(cap), s.k.min(cap)))
        .take(corpus)
        .collect();
    let mut corpus_rows: Vec<(GemmShape, Vec<(KernelKind, f64)>)> = Vec::new();
    let _ = writeln!(out, "\ncorpus slice ({} shapes, dims clamped to {cap}):", shapes.len());
    for s in &shapes {
        let sp = IterSpace::new(*s, tile);
        let ca = Matrix::<f32>::random::<f32>(s.m, s.k, Layout::RowMajor, 3);
        let cb = Matrix::<f32>::random::<f32>(s.k, s.n, Layout::RowMajor, 4);
        let row: Vec<(KernelKind, f64)> = KernelKind::ALL
            .iter()
            .map(|&k| (k, time_kernel_f32(k, k == block, &ca, &cb, &sp, reps, &mut accum, &mut bufs)))
            .collect();
        let _ = writeln!(out, "  {s}: scalar {:.3e}s  block {:.3e}s", row[0].1, row[1].1);
        corpus_rows.push((*s, row));
    }

    // Thread-scaling sweep: the executor's grid at 1/2/4/N workers,
    // the register block, pack cache on vs off. Grid = worker count
    // (one CTA per worker, the Stream-K ideal).
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut thread_counts = vec![1usize, 2, 4, nproc];
    thread_counts.sort_unstable();
    thread_counts.dedup();
    let _ = writeln!(out, "\nthread scaling ({shape} f32, kernel {block}, grid = workers):");
    let _ = writeln!(out, "  threads   private(s)    cached(s)   cache speedup");
    let mut sweep_rows: Vec<(usize, f64, f64)> = Vec::new();
    let mut sweep_stats: Vec<(usize, usize)> = Vec::new();
    for &threads in &thread_counts {
        let decomp = Decomposition::stream_k(shape, tile, threads);
        // Each timing reuses one executor across the warm-up and all
        // reps, so the persistent pool and warm per-worker arenas are
        // what is measured; returns (median, steals, deferrals of the
        // last rep).
        let time_exec = |cache: bool| -> (f64, usize, usize) {
            let exec = CpuExecutor::with_threads(threads).with_pack_cache(cache);
            let _ = exec.gemm::<f32, f32>(&a, &b, &decomp); // warm-up
            let mut times: Vec<f64> = (0..reps.max(1))
                .map(|_| {
                    let t0 = Instant::now();
                    let _ = exec.gemm::<f32, f32>(&a, &b, &decomp);
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            times.sort_by(f64::total_cmp);
            let stats = exec.last_stats();
            (times[times.len() / 2], stats.steals, stats.deferrals)
        };
        let (private, _, _) = time_exec(false);
        let (cached, steals, deferrals) = time_exec(true);
        let _ = writeln!(
            out,
            "  {threads:>7} {private:>12.3e} {cached:>12.3e} {:>14.2}x{}",
            private / cached,
            if threads > nproc { "  (oversubscribed)" } else { "" }
        );
        sweep_rows.push((threads, private, cached));
        sweep_stats.push((steals, deferrals));
    }

    // Parallel efficiency: measured scaling of the cached executor
    // against the simulator's prediction for the same decomposition on
    // an overhead-free p-SM processor. The simulated speedup is the
    // quantization-limited ideal, so the measured curve should sit at
    // or below it; on machines with fewer cores than the sweep point
    // the measured curve flattens and only the upper bound applies.
    let sim_makespan = |p: usize| -> f64 {
        let decomp = Decomposition::stream_k(shape, tile, p);
        let base = GpuSpec::hypothetical_4sm();
        // The simulator's per-SM rate is total peak / sms, so a width
        // sweep must scale the total peak with p to hold each SM's
        // throughput constant.
        let gpu = GpuSpec {
            sms: p,
            fp64_tflops: base.fp64_tflops * p as f64 / base.sms as f64,
            name: "scaling-sim",
            ..base
        };
        simulate(&decomp, &gpu, Precision::Fp64).makespan
    };
    let base_cached = sweep_rows[0].2;
    let sim_base = sim_makespan(thread_counts[0]);
    let _ = writeln!(out, "\nparallel efficiency (cached, vs {} thread(s); sim = overhead-free p-SM prediction):", thread_counts[0]);
    let _ = writeln!(out, "  threads   GFLOP/s  speedup    eff%  sim speedup  bracket  steals  deferrals");
    let mut eff_json: Vec<String> = Vec::new();
    for (i, &(threads, _, cached)) in sweep_rows.iter().enumerate() {
        let (steals, deferrals) = sweep_stats[i];
        let gflops = flops / cached / 1e9;
        let speedup = base_cached / cached;
        let efficiency_pct = speedup / threads as f64 * 100.0;
        let sim_speedup = sim_base / sim_makespan(threads);
        // Upper bound always holds (the sim is an ideal); the lower
        // bound only binds when the host actually has `threads` cores.
        let within_bracket =
            speedup <= sim_speedup * 1.15 && (threads > nproc || speedup >= sim_speedup * 0.5);
        let _ = writeln!(
            out,
            "  {threads:>7} {gflops:>9.2} {speedup:>7.2}x {efficiency_pct:>6.1} {sim_speedup:>11.2}x {:>8} {steals:>7} {deferrals:>10}",
            if within_bracket { "ok" } else { "MISS" }
        );
        eff_json.push(format!(
            "    {{\"threads\": {threads}, \"oversubscribed\": {}, \"gflops\": {gflops:.3}, \"speedup\": {speedup:.3}, \"efficiency_pct\": {efficiency_pct:.1}, \"sim_speedup\": {sim_speedup:.3}, \"within_bracket\": {within_bracket}, \"steals\": {steals}, \"deferrals\": {deferrals}}}",
            threads > nproc
        ));
    }

    // Tracing overhead: the identical Stream-K launch with span
    // recording off and on (same shape family as the criterion
    // `trace_overhead` group). The observability contract is ≤5%.
    // Workers are capped at the core count — oversubscribed threads
    // turn the measurement into scheduler noise, not tracing cost —
    // so on a single-core machine the grid degenerates to one CTA
    // (split seams need two co-resident CTAs, which one worker
    // cannot host).
    let side = if smoke { size.min(128) } else { 256 };
    let t_threads = 4.min(nproc).max(1);
    let t_shape = GemmShape::new(side, side, side);
    let t_decomp = Decomposition::stream_k(t_shape, tile, t_threads);
    let ta = Matrix::<f64>::random::<f64>(t_shape.m, t_shape.k, Layout::RowMajor, 5);
    let tb = Matrix::<f64>::random::<f64>(t_shape.k, t_shape.n, Layout::RowMajor, 6);
    // Interleave the off/on reps and compare minima: on a shared or
    // thermally-throttled machine, slow windows hit both arms equally
    // and the fastest rep is the least-perturbed observation of the
    // (deterministic) tracing cost. Back-to-back medians measured the
    // throttle schedule, not the tracer.
    let exec_off = CpuExecutor::with_threads(t_threads);
    let exec_on = CpuExecutor::with_threads(t_threads).with_trace(true);
    let _ = exec_off.gemm::<f64, f64>(&ta, &tb, &t_decomp); // warm-up
    let _ = exec_on.gemm::<f64, f64>(&ta, &tb, &t_decomp);
    let (mut trace_off, mut trace_on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(15) {
        let t0 = Instant::now();
        let _ = exec_off.gemm::<f64, f64>(&ta, &tb, &t_decomp);
        trace_off = trace_off.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let _ = exec_on.gemm::<f64, f64>(&ta, &tb, &t_decomp);
        trace_on = trace_on.min(t0.elapsed().as_secs_f64());
    }
    // The raw delta can be negative when scheduler noise makes the
    // traced arm win a rep; a negative "overhead" is a measurement
    // artifact, not a tracing speedup, so the gated figure clamps at
    // zero and the signed delta is recorded separately for honesty.
    let overhead_raw_pct = (trace_on - trace_off) / trace_off * 100.0;
    let overhead_pct = overhead_raw_pct.max(0.0);
    let trace_within_gate = overhead_pct <= 5.0;
    let _ = writeln!(
        out,
        "\ntracing overhead ({t_shape} f64, {t_threads} threads): off {trace_off:.3e}s  on {trace_on:.3e}s  -> {overhead_pct:.1}% (raw {overhead_raw_pct:+.1}%, gate 5%: {})",
        if trace_within_gate { "ok" } else { "MISS" }
    );

    let corpus_json: Vec<String> = corpus_rows
        .iter()
        .map(|(s, row)| format!("    {{\"shape\": \"{s}\", \"timings_s\": {}}}", json_timings(row)))
        .collect();
    let sweep_json: Vec<String> = sweep_rows
        .iter()
        .map(|(t, p, c)| {
            format!(
                "    {{\"threads\": {t}, \"oversubscribed\": {}, \"private_s\": {p:.6e}, \"cached_s\": {c:.6e}, \"cache_speedup\": {:.3}}}",
                *t > nproc,
                p / c
            )
        })
        .collect();
    let generated_by = provenance("bench");
    let json = format!(
        "{{\n  \"generated_by\": \"{generated_by}\",\n  \"smoke\": {smoke},\n  \"tile\": \"{tile}\",\n  \"simd_level\": \"{simd_level}\",\n  \"nproc\": {nproc},\n  \"bit_exact_f64\": true,\n  \"headline\": {{\n    \"shape\": \"{shape}\",\n    \"dtype\": \"f32\",\n    \"reps\": {reps},\n    \"timings_s\": {},\n    \"cached_timings_s\": {},\n    \"block_gflops\": {:.2},\n    \"speedup_block_vs_scalar\": {speedup:.3}\n  }},\n  \"thread_scaling\": [\n{}\n  ],\n  \"parallel_efficiency\": [\n{}\n  ],\n  \"tracing_overhead\": {{\"shape\": \"{t_shape}\", \"threads\": {t_threads}, \"trace_off_s\": {trace_off:.6e}, \"trace_on_s\": {trace_on:.6e}, \"overhead_pct\": {overhead_pct:.2}, \"overhead_raw_pct\": {overhead_raw_pct:.2}, \"gate_pct\": 5.0, \"within_gate\": {trace_within_gate}}},\n  \"corpus\": [\n{}\n  ]\n}}\n",
        json_timings(&headline),
        json_timings(&headline_cached),
        flops / block_s / 1e9,
        sweep_json.join(",\n"),
        eff_json.join(",\n"),
        corpus_json.join(",\n"),
    );
    match std::fs::write(out_path, &json) {
        Ok(()) => {
            let _ = writeln!(out, "wrote {out_path}");
        }
        Err(e) => {
            let _ = writeln!(out, "failed to write {out_path}: {e}");
        }
    }
    out
}

/// Splices `"key": section` as the last member of the JSON object at
/// `out_path`, replacing any previous splice of the same key. A
/// missing or non-object file is replaced by a fresh object holding
/// only the section — `select-bench` must work standalone and as an
/// addendum to an existing `BENCH_cpu.json`.
fn splice_json_section(out_path: &str, key: &str, section: &str) -> std::io::Result<()> {
    let marker = format!(",\n  \"{key}\":");
    let body = match std::fs::read_to_string(out_path) {
        Ok(t) if t.trim_start().starts_with('{') => {
            if let Some(idx) = t.find(&marker) {
                t[..idx].to_string()
            } else {
                let trimmed = t.trim_end();
                trimmed.strip_suffix('}').unwrap_or(trimmed).trim_end().to_string()
            }
        }
        _ => format!("{{\n  \"generated_by\": \"{}\"", provenance("bench-splice")),
    };
    let sep = if body.trim_end().ends_with('{') { "" } else { "," };
    std::fs::write(out_path, format!("{body}{sep}\n  \"{key}\": {section}\n}}\n"))
}

/// One measured cell of the select-bench oracle table: a candidate's
/// median wall time and mean fixup wait stall on one corpus shape.
struct MeasuredCell {
    candidate: streamk_select::Candidate,
    median_s: f64,
    wait_s: f64,
}

/// Measures `candidate` on `shape`: runs a scalar-kernel execution of
/// the *same* decomposition first (every kernel accumulates in the
/// identical ascending-k order, so the outputs must be bit-identical)
/// and panics on divergence, then returns the median of `reps` timed
/// runs plus the last run's wait stall.
fn measure_candidate(
    base: &CpuExecutor,
    candidate: &streamk_select::Candidate,
    shape: GemmShape,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    reps: usize,
) -> MeasuredCell {
    let decomp = candidate.decompose(shape);
    let reference = base.clone().with_kernel(KernelKind::Scalar).gemm::<f64, f64>(a, b, &decomp);
    let c = base.gemm::<f64, f64>(a, b, &decomp); // warm-up + exactness probe
    assert!(
        c.max_abs_diff(&reference) == 0.0,
        "select-bench: candidate {candidate} on {shape} diverged from the scalar run of its own decomposition"
    );
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            let _ = base.gemm::<f64, f64>(a, b, &decomp);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    MeasuredCell {
        candidate: *candidate,
        median_s: times[times.len() / 2],
        wait_s: base.last_stats().wait_stall.as_secs_f64(),
    }
}

/// The adaptive-selection regret study behind `streamk select-bench`.
///
/// Measures every slate candidate on a Fig-4-style corpus (anchors
/// spanning the square / strong-scaling / wide-tile regimes plus
/// log-uniform corpus shapes, dims clamped for tractability), each
/// candidate verified bit-exact against a scalar-kernel run of its own
/// decomposition before timing. The per-shape minimum is the measured
/// oracle. Three selector passes replay the corpus against that table:
///
/// - **cold**: a fresh selector's frozen picks — the App. A.1 static
///   heuristic floor;
/// - **warm**: after `rounds` epsilon-greedy adaptation rounds fed the
///   measured times, the converged frozen picks;
/// - **distilled**: the decision tree distilled from the converged
///   table, predicting with zero table lookups.
///
/// Regret = selected-total / oracle-total − 1 per pass. The warm table
/// persists to `cache` (temp-file + atomic rename) and is reloaded by
/// a fresh selector to prove round-trip consistency; a second
/// invocation starts from the persisted table (`cache_loaded` in the
/// report). Results splice into `out` as a `selection_adaptive`
/// section.
///
/// # Panics
///
/// Panics if any candidate fails the bit-exactness probe — CI treats
/// that as a hard failure.
#[allow(clippy::too_many_lines)]
fn run_select_bench(
    corpus_n: usize,
    rounds: usize,
    reps: usize,
    threads: usize,
    smoke: bool,
    cache_path: &str,
    out_path: &str,
) -> String {
    use streamk_select::{AdaptiveSelector, SelectorConfig};

    let mut out = String::new();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Oversubscribed workers would measure scheduler noise, not
    // schedules; the sweep stays within the machine.
    let workers = threads.min(nproc).max(1);
    let top_k = if smoke { 5 } else { 8 };
    let layout = Layout::RowMajor;
    let precision = Precision::Fp64;
    let _ = writeln!(
        out,
        "select-bench: {workers} workers (requested {threads}, nproc {nproc}), top-{top_k} slates, {rounds} adaptation rounds, {reps} reps{}",
        if smoke { " (smoke)" } else { "" }
    );

    // Corpus: regime anchors plus clamped log-uniform shapes.
    let cap = if smoke { 96 } else { 256 };
    let kcap = if smoke { 256 } else { 1024 };
    let mut shapes = vec![
        GemmShape::new(cap, cap, cap),
        GemmShape::new(cap / 4, cap / 4, kcap),
        GemmShape::new(cap, cap / 2, cap / 4),
    ];
    for s in Corpus::generate(CorpusConfig::smoke(corpus_n * 3)).shapes().iter().take(corpus_n) {
        let clamped = GemmShape::new(s.m.min(cap), s.n.min(cap), s.k.min(kcap));
        if !shapes.contains(&clamped) {
            shapes.push(clamped);
        }
    }

    // The slate authority: one selector queried in corpus order, so
    // same-class shapes share one slate exactly as the live selector
    // would key them.
    let config = || SelectorConfig::new(precision, workers).with_top_k(top_k);
    let mut slates = AdaptiveSelector::new(config());

    // Oracle table: measure every slate candidate on every shape.
    let base = CpuExecutor::with_threads(workers);
    let mut table: Vec<(GemmShape, Vec<MeasuredCell>)> = Vec::new();
    let _ = writeln!(out, "\nmeasured oracle ({} shapes, every cell bit-exact vs scalar):", shapes.len());
    for &shape in &shapes {
        let (_, slate) = slates.slate(shape, layout);
        let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, layout, 0x5E1E);
        let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, layout, 0x5E1F);
        let cells: Vec<MeasuredCell> =
            slate.iter().map(|c| measure_candidate(&base, c, shape, &a, &b, reps)).collect();
        let best = cells.iter().min_by(|x, y| x.median_s.total_cmp(&y.median_s)).expect("slate non-empty");
        let _ = writeln!(
            out,
            "  {shape}: {} candidates, oracle {} at {:.3e}s",
            cells.len(),
            best.candidate,
            best.median_s
        );
        table.push((shape, cells));
    }
    fn lookup(
        table: &[(GemmShape, Vec<MeasuredCell>)],
        shape: GemmShape,
        candidate: &streamk_select::Candidate,
    ) -> Option<(f64, f64)> {
        table
            .iter()
            .find(|(s, _)| *s == shape)
            .and_then(|(_, cells)| cells.iter().find(|c| c.candidate == *candidate))
            .map(|c| (c.median_s, c.wait_s))
    }
    let oracle_total: f64 = table
        .iter()
        .map(|(_, cells)| {
            cells.iter().map(|c| c.median_s).fold(f64::INFINITY, f64::min)
        })
        .sum();

    // Cold pass: a fresh selector, frozen — pure App. A.1 decisions.
    let mut cold = AdaptiveSelector::new(config());
    let cold_picks: Vec<streamk_select::Candidate> =
        shapes.iter().map(|&s| cold.select_frozen(s, layout).candidate).collect();

    // Warm selector: persists to `cache_path`; a prior invocation's
    // table is picked up here (the cross-invocation CI gate).
    let mut warm = AdaptiveSelector::new(config().with_cache_path(cache_path));
    let cache_loaded = warm.loaded_from_disk();
    let _ = writeln!(
        out,
        "\ncache {cache_path}: {}",
        if cache_loaded { "loaded from a previous invocation" } else { "cold start" }
    );

    // Adaptation: replay the corpus, feeding measured times back. The
    // measured table stands in for re-running each launch — the same
    // schedule costs the same, and the replay exercises exactly the
    // explore → converge ladder a live executor would.
    for _ in 0..rounds.max(1) {
        for &shape in &shapes {
            let sel = warm.select(shape, layout);
            if let Some((secs, wait)) = lookup(&table, shape, &sel.candidate) {
                warm.feedback_raw(&sel, secs, wait);
            }
        }
    }
    // Finish coverage so the frozen winner is the true table argmin:
    // replay keeps exploring until no slate entry is untried.
    for &shape in &shapes {
        loop {
            let sel = warm.select(shape, layout);
            let Some((secs, wait)) = lookup(&table, shape, &sel.candidate) else { break };
            warm.feedback_raw(&sel, secs, wait);
            let (class, slate) = warm.slate(shape, layout);
            let entry = &warm.cache().entries[&class];
            if (0..slate.len()).all(|i| entry.stats.get(i).is_none_or(|s| s.trials > 0)) {
                break;
            }
        }
    }
    let warm_picks: Vec<streamk_select::Candidate> =
        shapes.iter().map(|&s| warm.select_frozen(s, layout).candidate).collect();

    // Persist and prove the round trip: a fresh selector over the same
    // file must reproduce every frozen pick.
    let cache_written = warm.persist().unwrap_or(false);
    let mut reloaded = AdaptiveSelector::new(config().with_cache_path(cache_path));
    let cache_reload_consistent = cache_written
        && reloaded.loaded_from_disk()
        && shapes
            .iter()
            .zip(&warm_picks)
            .all(|(&s, pick)| reloaded.select_frozen(s, layout).candidate == *pick);

    // Distilled pass: the decision tree's zero-lookup predictions.
    let distilled_classes = warm.distill().unwrap_or(0);
    let distilled_picks: Vec<streamk_select::Candidate> = shapes
        .iter()
        .zip(&warm_picks)
        .map(|(&s, warm_pick)| warm.predict_distilled(s, layout).unwrap_or(*warm_pick))
        .collect();

    // Score the three passes. A distilled tree may predict a schedule
    // from a sibling class's slate that this shape's table never
    // measured — measure it on demand rather than guessing.
    let mut pass_time = |picks: &[streamk_select::Candidate], out: &mut String, name: &str| -> f64 {
        let mut total = 0.0;
        for (&shape, candidate) in shapes.iter().zip(picks) {
            let secs = match lookup(&table, shape, candidate) {
                Some((secs, _)) => secs,
                None => {
                    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, layout, 0x5E1E);
                    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, layout, 0x5E1F);
                    let cell = measure_candidate(&base, candidate, shape, &a, &b, reps);
                    let secs = cell.median_s;
                    let _ = writeln!(out, "  [{name}] measured off-slate pick {candidate} on {shape}: {secs:.3e}s");
                    table.iter_mut().find(|(s, _)| *s == shape).expect("shape in table").1.push(cell);
                    secs
                }
            };
            total += secs;
        }
        total
    };
    let cold_total = pass_time(&cold_picks, &mut out, "cold");
    let warm_total = pass_time(&warm_picks, &mut out, "warm");
    let distilled_total = pass_time(&distilled_picks, &mut out, "distilled");
    let regret = |total: f64| (total / oracle_total - 1.0) * 100.0;
    let (cold_regret, warm_regret, distilled_regret) =
        (regret(cold_total), regret(warm_total), regret(distilled_total));
    let distilled_vs_warm = (distilled_total / warm_total - 1.0) * 100.0;

    let _ = writeln!(out, "\nregret vs measured oracle (total {oracle_total:.3e}s):");
    let _ = writeln!(out, "  {:<11} {:>12} {:>9}", "pass", "total(s)", "regret");
    for (name, total, r) in [
        ("cold", cold_total, cold_regret),
        ("warm", warm_total, warm_regret),
        ("distilled", distilled_total, distilled_regret),
    ] {
        let _ = writeln!(out, "  {name:<11} {total:>12.3e} {r:>8.2}%");
    }
    let _ = writeln!(
        out,
        "warm ≤ cold: {}; distilled vs warm: {distilled_vs_warm:+.2}%; tree trained on {distilled_classes} classes",
        if warm_regret <= cold_regret + 1e-9 { "yes" } else { "NO" }
    );
    let _ = writeln!(
        out,
        "cache: loaded {cache_loaded}, written {cache_written}, reload-consistent {cache_reload_consistent}"
    );

    let per_shape: Vec<String> = shapes
        .iter()
        .enumerate()
        .map(|(i, &shape)| {
            let cells = &table.iter().find(|(s, _)| *s == shape).expect("shape in table").1;
            let best = cells.iter().min_by(|x, y| x.median_s.total_cmp(&y.median_s)).expect("cells");
            let t = |c: &streamk_select::Candidate| lookup(&table, shape, c).map_or(f64::NAN, |(s, _)| s);
            format!(
                "      {{\"shape\": \"{shape}\", \"slate\": {}, \"oracle_s\": {:.6e}, \"oracle\": \"{}\", \"cold_s\": {:.6e}, \"cold\": \"{}\", \"warm_s\": {:.6e}, \"warm\": \"{}\", \"distilled_s\": {:.6e}}}",
                cells.len(),
                best.median_s,
                best.candidate.encode(),
                t(&cold_picks[i]),
                cold_picks[i].encode(),
                t(&warm_picks[i]),
                warm_picks[i].encode(),
                t(&distilled_picks[i]),
            )
        })
        .collect();
    let generated_by = provenance("select-bench");
    let section = format!(
        "{{\n    \"generated_by\": \"{generated_by}\",\n    \"smoke\": {smoke},\n    \"workers\": {workers},\n    \"requested_threads\": {threads},\n    \"nproc\": {nproc},\n    \"top_k\": {top_k},\n    \"rounds\": {rounds},\n    \"reps\": {reps},\n    \"shapes\": {},\n    \"classes\": {},\n    \"all_bit_exact\": true,\n    \"cache_path\": \"{cache_path}\",\n    \"cache_loaded\": {cache_loaded},\n    \"cache_written\": {cache_written},\n    \"cache_reload_consistent\": {cache_reload_consistent},\n    \"distilled_classes\": {distilled_classes},\n    \"oracle_total_s\": {oracle_total:.6e},\n    \"cold_total_s\": {cold_total:.6e},\n    \"warm_total_s\": {warm_total:.6e},\n    \"distilled_total_s\": {distilled_total:.6e},\n    \"cold_regret_pct\": {cold_regret:.3},\n    \"warm_regret_pct\": {warm_regret:.3},\n    \"distilled_regret_pct\": {distilled_regret:.3},\n    \"distilled_vs_warm_pct\": {distilled_vs_warm:.3},\n    \"per_shape\": [\n{}\n    ]\n  }}",
        shapes.len(),
        warm.class_count(),
        per_shape.join(",\n"),
    );
    match splice_json_section(out_path, "selection_adaptive", &section) {
        Ok(()) => {
            let _ = writeln!(out, "wrote selection_adaptive section into {out_path}");
        }
        Err(e) => {
            let _ = writeln!(out, "failed to write {out_path}: {e}");
        }
    }
    out
}

/// Finish-time skew within each dispatch wave: spans sorted by start,
/// chunked `width` at a time, `max(end) - min(end)` per chunk.
fn wave_skews(mut spans: Vec<(f64, f64)>, width: usize) -> Vec<f64> {
    spans.sort_by(|x, y| x.0.total_cmp(&y.0));
    spans
        .chunks(width.max(1))
        .map(|wave| {
            let hi = wave.iter().map(|s| s.1).fold(f64::MIN, f64::max);
            let lo = wave.iter().map(|s| s.1).fold(f64::MAX, f64::min);
            hi - lo
        })
        .collect()
}

/// The Strassen–Winograd crossover study behind `streamk
/// strassen-bench`: for each cubic size, the classical register-block
/// executor races a forced depth-1 hybrid and an adaptive-depth
/// hybrid (recursing under `cutoff`), every hybrid result is gated
/// against the DESIGN.md §15 forward-error bound, and the section
/// records the measured crossover point plus three structural gates
/// (classical f64 bit-exactness through the fallback, fallback below
/// the cutoff, and the service-path request group). Splices a
/// `strassen_hybrid` section into `out_path`.
fn run_strassen_bench(
    cutoff: usize,
    tile: TileShape,
    reps: usize,
    threads: usize,
    smoke: bool,
    out_path: &str,
) -> String {
    let mut out = String::new();
    let exec = CpuExecutor::with_threads(threads);
    let sizes: &[usize] = if smoke { &[128, 256] } else { &[512, 768, 1024, 1536, 2048] };
    let eps32 = machine_epsilon::<f32>();

    let median = |times: &mut Vec<f64>| -> f64 {
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };

    let _ = writeln!(
        out,
        "strassen hybrid crossover: f32, {threads} thread(s), tile {tile}, cutoff {cutoff}, reps {reps}"
    );
    let _ = writeln!(
        out,
        "\n  {:>6} {:>13} {:>13} {:>13} {:>6} {:>11} {:>11}",
        "size", "classical_s", "hybrid_d1_s", "adaptive_s", "depth", "max_err", "bound"
    );

    let mut rows = Vec::new();
    let mut all_within = true;
    let mut crossover: Option<usize> = None;
    let mut largest: Option<(usize, f64, f64)> = None;
    for &n in sizes {
        let shape = GemmShape::new(n, n, n);
        let a = Matrix::<f32>::random::<f32>(n, n, Layout::RowMajor, 0xA100 + n as u64);
        let b = Matrix::<f32>::random::<f32>(n, n, Layout::RowMajor, 0xB100 + n as u64);
        let decomp = leaf_decomposition(shape, tile, threads);

        let c_classical: Matrix<f32> = exec.gemm(&a, &b, &decomp); // warm-up
        let mut times: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                let _: Matrix<f32> = exec.gemm(&a, &b, &decomp);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        let classical_s = median(&mut times);

        // Forced depth 1 regardless of the global cutoff — the
        // crossover curve needs hybrid timings on both sides of it.
        let d1_cfg =
            StrassenConfig::enabled().with_max_depth(1).with_cutoff((n / 2).max(1));
        let mut arena = StrassenArena::<f32, f32>::new();
        let (c_d1, report_d1) =
            exec.gemm_strassen_with_arena(&a, &b, tile, &d1_cfg, &mut arena);
        let mut times: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                let _ = exec.gemm_strassen_with_arena::<f32, f32>(&a, &b, tile, &d1_cfg, &mut arena);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        let hybrid_d1_s = median(&mut times);

        // Adaptive depth under the configured cutoff (the shipping
        // configuration; below 2·cutoff this is the classical
        // fallback and times the dispatch overhead).
        let ad_cfg = StrassenConfig::enabled().with_max_depth(3).with_cutoff(cutoff);
        let mut ad_arena = StrassenArena::<f32, f32>::new();
        let (c_ad, report_ad) =
            exec.gemm_strassen_with_arena(&a, &b, tile, &ad_cfg, &mut ad_arena);
        let mut times: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                let _ =
                    exec.gemm_strassen_with_arena::<f32, f32>(&a, &b, tile, &ad_cfg, &mut ad_arena);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        let adaptive_s = median(&mut times);

        let (amax, bmax) = (max_abs(&a), max_abs(&b));
        let classical_bound = strassen_error_bound(shape, 0, amax, bmax, eps32);
        let err_d1 = c_d1.max_abs_diff(&c_classical);
        let bound_d1 = strassen_error_bound(shape, 1, amax, bmax, eps32) + classical_bound;
        let err_ad = c_ad.max_abs_diff(&c_classical);
        let bound_ad =
            strassen_error_bound(shape, report_ad.depth, amax, bmax, eps32) + classical_bound;
        let within = err_d1 <= bound_d1 && err_ad <= bound_ad;
        all_within &= within;

        assert!(!report_d1.fell_back, "forced depth-1 must recurse at {n}");
        if crossover.is_none() && hybrid_d1_s < classical_s {
            crossover = Some(n);
        }
        largest = Some((n, classical_s, hybrid_d1_s.min(adaptive_s)));

        let _ = writeln!(
            out,
            "  {n:>6} {classical_s:>13.3e} {hybrid_d1_s:>13.3e} {adaptive_s:>13.3e} {:>6} {err_d1:>11.3e} {bound_d1:>11.3e}{}",
            report_ad.depth,
            if within { "" } else { "  EXCEEDS BOUND" }
        );
        rows.push(format!(
            "      {{\"size\": {n}, \"classical_s\": {classical_s:.6e}, \"hybrid_d1_s\": {hybrid_d1_s:.6e}, \"hybrid_adaptive_s\": {adaptive_s:.6e}, \"adaptive_depth\": {}, \"adaptive_leaves\": {}, \"d1_speedup\": {:.4}, \"max_abs_err_d1\": {err_d1:.6e}, \"err_bound_d1\": {bound_d1:.6e}, \"max_abs_err_adaptive\": {err_ad:.6e}, \"err_bound_adaptive\": {bound_ad:.6e}, \"within_bound\": {within}}}",
            report_ad.depth,
            report_ad.leaf_products,
            classical_s / hybrid_d1_s,
        ));
    }

    // Gate 1: the f64 fallback stays bit-identical to the classical
    // executor (the hybrid never perturbs the disabled path).
    let g = GemmShape::new(192, 160, 176);
    let ga = Matrix::<f64>::random::<f64>(g.m, g.k, Layout::RowMajor, 51);
    let gb = Matrix::<f64>::random::<f64>(g.k, g.n, Layout::RowMajor, 52);
    let (gc, g_report) = exec.gemm_strassen::<f64, f64>(&ga, &gb, tile, &StrassenConfig::default());
    let g_ref: Matrix<f64> = exec.gemm(&ga, &gb, &leaf_decomposition(g, tile, threads));
    let classical_f64_bit_exact = g_report.fell_back && gc.max_abs_diff(&g_ref) == 0.0;

    // Gate 2: an enabled config still falls back (bit-exactly) below
    // its cutoff.
    let fb_n = cutoff.max(32);
    let fb = GemmShape::new(fb_n, fb_n, fb_n);
    let fa = Matrix::<f32>::random::<f32>(fb.m, fb.k, Layout::RowMajor, 61);
    let fbm = Matrix::<f32>::random::<f32>(fb.k, fb.n, Layout::RowMajor, 62);
    let (fc, f_report) = exec.gemm_strassen::<f32, f32>(
        &fa,
        &fbm,
        tile,
        &StrassenConfig::enabled().with_cutoff(cutoff),
    );
    let f_ref: Matrix<f32> = exec.gemm(&fa, &fbm, &leaf_decomposition(fb, tile, threads));
    let fallback_below_cutoff = f_report.fell_back && fc.max_abs_diff(&f_ref) == 0.0;

    // Gate 3: the same recursion through the service's request-group
    // surface completes as a unit and stays within the bound.
    let s_n = if smoke { 128 } else { 512 };
    let s_shape = GemmShape::new(s_n, s_n, s_n);
    let sa = Matrix::<f32>::random::<f32>(s_n, s_n, Layout::RowMajor, 71);
    let sb = Matrix::<f32>::random::<f32>(s_n, s_n, Layout::RowMajor, 72);
    let s_cfg = StrassenConfig::enabled().with_max_depth(1).with_cutoff((s_n / 2).max(1));
    let service = GemmService::<f32, f32>::start(&exec, ServeConfig::default());
    let service_result = service.gemm_strassen(&sa, &sb, tile, &s_cfg);
    service.shutdown();
    let s_ref: Matrix<f32> = exec.gemm(&sa, &sb, &leaf_decomposition(s_shape, tile, threads));
    let s_bound = strassen_error_bound(s_shape, 1, max_abs(&sa), max_abs(&sb), eps32)
        + strassen_error_bound(s_shape, 0, max_abs(&sa), max_abs(&sb), eps32);
    let service_group_ok = match &service_result {
        Ok((c, report)) => !report.fell_back && c.max_abs_diff(&s_ref) <= s_bound,
        Err(_) => false,
    };

    let (largest_size, largest_classical, largest_hybrid) =
        largest.expect("at least one size");
    let speedup_at_largest = largest_classical / largest_hybrid;
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "  crossover (hybrid d1 < classical): {}",
        crossover.map_or("not reached".to_string(), |n| format!("{n}³")),
    );
    let _ = writeln!(
        out,
        "  at {largest_size}³: hybrid {:.3e}s vs classical {:.3e}s ({speedup_at_largest:.3}x)",
        largest_hybrid, largest_classical
    );
    let _ = writeln!(out, "  classical f64 bit-exact: {classical_f64_bit_exact}");
    let _ = writeln!(out, "  fallback below cutoff:   {fallback_below_cutoff}");
    let _ = writeln!(out, "  service group path:      {service_group_ok}");
    let _ = writeln!(out, "  all within error bound:  {all_within}");

    let generated_by = provenance("strassen-bench");
    let section = format!(
        "{{\n    \"generated_by\": \"{generated_by}\",\n    \"smoke\": {smoke},\n    \"dtype\": \"f32\",\n    \"kernel\": \"block\",\n    \"threads\": {threads},\n    \"tile\": \"{tile}\",\n    \"cutoff\": {cutoff},\n    \"reps\": {reps},\n    \"rows\": [\n{}\n    ],\n    \"classical_f64_bit_exact\": {classical_f64_bit_exact},\n    \"fallback_below_cutoff\": {fallback_below_cutoff},\n    \"service_group_ok\": {service_group_ok},\n    \"all_within_bound\": {all_within},\n    \"crossover_size\": {},\n    \"largest_size\": {largest_size},\n    \"classical_s_at_largest\": {largest_classical:.6e},\n    \"hybrid_s_at_largest\": {largest_hybrid:.6e},\n    \"hybrid_speedup_at_largest\": {speedup_at_largest:.4},\n    \"hybrid_beats_classical_at_largest\": {}\n  }}",
        rows.join(",\n"),
        crossover.map_or("null".to_string(), |n| n.to_string()),
        speedup_at_largest >= 1.0,
    );
    match splice_json_section(out_path, "strassen_hybrid", &section) {
        Ok(()) => {
            let _ = writeln!(out, "\nspliced strassen_hybrid into {out_path}");
        }
        Err(e) => {
            let _ = writeln!(out, "\nfailed to write {out_path}: {e}");
        }
    }
    out
}

/// The measured-vs-modeled study behind `streamk profile`: one
/// untraced executor run (the reference result, and proof that
/// tracing-off allocates nothing), one traced run (bit-exactness
/// checked against the reference), then the simulator on a GPU spec
/// *calibrated from the measured MAC rate* — so the residual report
/// compares the Appendix A.1 schedule model against a real machine at
/// matched per-"SM" throughput. Emits a merged Chrome trace (pid 1 =
/// measured workers, pid 2 = predicted SMs) and optionally the
/// measured timeline as SVG.
#[allow(clippy::too_many_arguments)]
fn run_profile(
    shape: GemmShape,
    tile: TileShape,
    threads: usize,
    strategy: StrategyArg,
    out_path: &str,
    svg_path: Option<&str>,
    serve: bool,
) -> String {
    let mut out = String::new();
    let decomp = build(strategy, shape, tile, threads, Precision::Fp64);
    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, 0x9A0F);
    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, 0x9A0E);
    let _ = writeln!(
        out,
        "profile: {shape} GEMM, blocking {tile}, {} on {threads} workers ({} CTAs)",
        decomp.strategy(),
        decomp.grid_size()
    );

    // Untraced reference first: pins the result tracing must not
    // perturb, and the zero-allocation claim (tracing off must never
    // construct a span ring).
    let allocs_before = ring_allocations();
    let baseline = CpuExecutor::with_threads(threads).gemm::<f64, f64>(&a, &b, &decomp);
    let untraced_allocs = ring_allocations() - allocs_before;
    let _ = writeln!(out, "untraced ring allocations: {untraced_allocs} (must be 0)");

    let exec = CpuExecutor::with_threads(threads).with_trace(true);
    let traced = exec.gemm::<f64, f64>(&a, &b, &decomp);
    let bit_exact = traced.max_abs_diff(&baseline) == 0.0;
    let _ = writeln!(out, "traced vs untraced bit-exact: {}", if bit_exact { "yes" } else { "NO" });
    let stats = exec.last_stats();
    let trace = exec.last_trace().expect("traced launch records a timeline");
    let metrics = trace.metrics();
    let wall_s = trace.wall_ns as f64 / 1e9;
    let _ = writeln!(
        out,
        "measured: {wall_s:.3e}s wall, {} spans / {} workers ({} dropped), {} steals, {} deferrals",
        trace.total_spans(),
        trace.workers.len(),
        metrics.dropped_spans,
        stats.steals,
        stats.deferrals
    );

    // Per-phase breakdown over leaf spans (container spans — whole
    // CTAs, deferral resumptions — hold nested leaves and would
    // double-count).
    let leaf_ns = metrics.leaf_total_ns().max(1);
    let _ = writeln!(out, "\nphase breakdown (busy worker-time in leaf spans):");
    for phase in Phase::ALL {
        let ns = metrics.phase_ns(phase);
        let _ = writeln!(
            out,
            "  {:<9} {:>10.3e}s {:>6.1}%",
            phase.name(),
            ns as f64 / 1e9,
            ns as f64 / leaf_ns as f64 * 100.0
        );
    }
    let _ = writeln!(
        out,
        "cta duration: n={} mean {:.3e}s max {:.3e}s; fixup latency: n={} mean {:.3e}s",
        metrics.cta_duration.count(),
        metrics.cta_duration.mean_ns() as f64 / 1e9,
        metrics.cta_duration.max_ns() as f64 / 1e9,
        metrics.fixup_latency.count(),
        metrics.fixup_latency.mean_ns() as f64 / 1e9
    );
    // The handshake's share of `schedule`: every worker's wake (launch
    // epoch to entering the job), worker 0's join, and the whole
    // launch for a helper that arrived after the close.
    let (launches, launch_ns) = (metrics.count(SpanKind::Launch), metrics.total_ns(SpanKind::Launch));
    let _ = writeln!(
        out,
        "launch handshake: n={launches} total {:.3e}s ({:.1}% of leaf time) mean {:.3e}s",
        launch_ns as f64 / 1e9,
        launch_ns as f64 / leaf_ns as f64 * 100.0,
        launch_ns as f64 / launches.max(1) as f64 / 1e9
    );

    // Calibrate a GPU spec from the measured MAC rate: each worker is
    // one "SM" whose peak is the iteration throughput it actually
    // sustained, so the simulator predicts this machine, not an A100.
    let mac_ns = metrics.total_ns(SpanKind::Mac).max(1);
    let mac_iters: u64 = trace
        .iter()
        .filter(|(_, s)| s.kind == SpanKind::Mac)
        .map(|(_, s)| u64::from(s.arg2))
        .sum();
    let flops_per_iter = 2.0 * (tile.blk_m * tile.blk_n * tile.blk_k) as f64;
    let per_worker_flops = mac_iters as f64 * flops_per_iter / (mac_ns as f64 / 1e9);
    let gpu = GpuSpec {
        name: "cpu-calibrated",
        sms: threads,
        fp64_tflops: per_worker_flops * threads as f64 / 1e12,
        ..GpuSpec::hypothetical_4sm()
    };
    let report = simulate(&decomp, &gpu, Precision::Fp64);

    // Residuals: where the model and the measurement disagree. The
    // model predicts the compute schedule, so the observed makespan is
    // the CTA-span timeline (last CTA end); the wall time additionally
    // carries pool wake-up and teardown and is reported alongside.
    let predicted = report.makespan.max(f64::MIN_POSITIVE);
    let observed = trace
        .iter()
        .filter(|(_, s)| s.kind == SpanKind::Cta)
        .map(|(_, s)| s.end_ns)
        .max()
        .unwrap_or(trace.wall_ns) as f64
        / 1e9;
    let residual_pct = (observed - predicted) / predicted * 100.0;
    let measured_stall = stats.wait_stall.as_secs_f64() / (threads as f64 * wall_s.max(1e-12));
    let predicted_stall = report.total_wait / (report.sms as f64 * predicted);
    let _ = writeln!(
        out,
        "\nmodel-vs-measured residuals (sim: {threads} SMs calibrated at {:.2} GFLOP/s each):",
        per_worker_flops / 1e9
    );
    let _ = writeln!(
        out,
        "  makespan: observed {observed:.3e}s (wall {wall_s:.3e}s)  predicted {predicted:.3e}s  residual {residual_pct:+.1}%"
    );
    let _ = writeln!(
        out,
        "  stall fraction: measured {:.2}%  predicted {:.2}%",
        measured_stall * 100.0,
        predicted_stall * 100.0
    );
    let measured_ctas: Vec<(f64, f64)> = trace
        .iter()
        .filter(|(_, s)| s.kind == SpanKind::Cta)
        .map(|(_, s)| (s.start_ns as f64 / 1e9, s.end_ns as f64 / 1e9))
        .collect();
    let predicted_ctas: Vec<(f64, f64)> = report.spans.iter().map(|s| (s.start, s.end)).collect();
    let measured_skews = wave_skews(measured_ctas, threads);
    let predicted_skews = wave_skews(predicted_ctas, report.sms);
    let _ = writeln!(out, "  per-wave finish skew (measured vs predicted):");
    for (i, skew) in measured_skews.iter().take(8).enumerate() {
        let pred = predicted_skews.get(i).copied().unwrap_or(0.0);
        let _ = writeln!(out, "    wave {i}: {skew:.3e}s vs {pred:.3e}s");
    }
    if measured_skews.len() > 8 {
        let _ = writeln!(out, "    ... {} more waves", measured_skews.len() - 8);
    }

    // The merged Chrome trace: measured workers and predicted SMs as
    // two processes of one timeline (open in Perfetto / about:tracing).
    let mut w = TraceWriter::new();
    trace.write_chrome_trace(&mut w, 1, &format!("streamk-cpu measured ({threads} workers)"));
    write_chrome_trace(&mut w, &report, 2);
    let mut processes = 2;

    // --serve: the same launch as a traced service campaign. Each
    // request renders as its own track, with queue-wait a first-class
    // phase ahead of its CTA/MAC/fixup spans.
    if serve {
        let n_requests = 6.min(threads * 2).max(2);
        let service =
            GemmService::<f64, f64>::start(&exec, ServeConfig::default().with_trace(true));
        let handles: Vec<_> = (0..n_requests)
            .map(|i| {
                let req = LaunchRequest::new(a.clone(), b.clone(), decomp.clone())
                    .with_priority(Priority::ALL[i % Priority::ALL.len()]);
                service.submit(req).expect("profile request admitted")
            })
            .collect();
        let mut serve_exact = true;
        for h in handles {
            match h.wait() {
                Ok((c, _)) => serve_exact &= c.max_abs_diff(&baseline) == 0.0,
                Err(_) => serve_exact = false,
            }
        }
        // Harvest after shutdown: the join guarantees the trailing
        // CTA span of each completing claim has been remnant-merged.
        let registry = service.telemetry();
        service.shutdown();
        let strace = registry.take_trace();
        let queue_waits: usize = strace
            .requests
            .iter()
            .map(|r| r.spans.iter().filter(|s| s.kind == SpanKind::QueueWait).count())
            .sum();
        let _ = writeln!(
            out,
            "\nserve campaign: {} request tracks ({} dropped), {queue_waits} queue-wait spans, bit-exact {}",
            strace.requests.len(),
            strace.dropped_requests,
            if serve_exact { "yes" } else { "NO" }
        );
        strace.write_chrome_trace(&mut w, 3, "streamk-serve requests");
        processes = 3;
    }

    let events = w.events();
    match std::fs::write(out_path, w.finish()) {
        Ok(()) => {
            let _ = writeln!(out, "\nwrote {out_path} ({events} trace events, {processes} processes)");
        }
        Err(e) => {
            let _ = writeln!(out, "\nfailed to write {out_path}: {e}");
        }
    }

    // Optional SVG of the measured timeline: reuse the simulator's
    // renderer by expressing the measured CTA spans as a SimReport.
    if let Some(svg_path) = svg_path {
        let mut spans: Vec<CtaSpan> = Vec::new();
        for (wid, worker) in trace.workers.iter().enumerate() {
            for s in &worker.spans {
                if s.kind != SpanKind::Cta {
                    continue;
                }
                let nested = |kind: SpanKind| {
                    worker
                        .spans
                        .iter()
                        .filter(move |m| {
                            m.kind == kind && m.start_ns >= s.start_ns && m.end_ns <= s.end_ns
                        })
                };
                spans.push(CtaSpan {
                    cta_id: s.arg as usize,
                    sm: wid,
                    start: s.start_ns as f64 / 1e9,
                    end: s.end_ns as f64 / 1e9,
                    iters: nested(SpanKind::Mac).map(|m| m.arg2 as usize).sum(),
                    waited: nested(SpanKind::Wait).map(|m| m.dur_ns() as f64 / 1e9).sum(),
                });
            }
        }
        let measured_report = SimReport {
            precision: Precision::Fp64,
            sms: trace.workers.len(),
            peak_flops: gpu.fp64_tflops * 1e12,
            makespan: wall_s,
            compute_makespan: wall_s,
            memory_time: 0.0,
            useful_flops: shape.flops() as f64,
            traffic_bytes: 0.0,
            mac_busy: mac_ns as f64 / 1e9,
            total_wait: stats.wait_stall.as_secs_f64(),
            spans,
        };
        let svg = render_svg(&measured_report, &SvgOptions::default());
        match std::fs::write(svg_path, svg) {
            Ok(()) => {
                let _ = writeln!(out, "wrote {svg_path} (measured timeline)");
            }
            Err(e) => {
                let _ = writeln!(out, "failed to write {svg_path}: {e}");
            }
        }
    }
    out
}

/// The seeded fault campaign behind `streamk chaos`: every strategy
/// — and a batched and a grouped launch — × every fault kind × every
/// seed through the recovering executor, with bit-exactness checked
/// against the fault-free run, followed by the simulator's
/// straggler-SM injection.
/// What a serve-bench request is contracted to do: complete
/// bit-exactly, or fail typed with the matching error.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ServeExpect {
    Exact,
    Cancelled,
    Panicked,
    TimedOut,
}

/// One request spec in a serve-bench mix.
struct ServeReq {
    shape: GemmShape,
    grid: usize,
    prio: Priority,
    fault: Option<ServeFaultKind>,
    deadline: Option<Duration>,
}

impl ServeReq {
    fn expect(&self) -> ServeExpect {
        if self.deadline == Some(Duration::ZERO) {
            return ServeExpect::TimedOut;
        }
        match self.fault {
            Some(ServeFaultKind::Cancel) => ServeExpect::Cancelled,
            Some(ServeFaultKind::PanicCta) => ServeExpect::Panicked,
            _ => ServeExpect::Exact,
        }
    }
}

/// One mix's verdict plus its report fragments.
struct ServeMixOutcome {
    text: String,
    json: String,
    bit_exact: bool,
    contract_ok: bool,
    pool_poisonings: usize,
    incidents: u64,
    /// The mix's telemetry registry, alive past service shutdown —
    /// the `--metrics-out` snapshot and incident dumps come from here.
    registry: Arc<TelemetryRegistry>,
}

/// Runs one mix of requests through a fresh executor + service:
/// sequential baselines first (the service holds the pool's launch
/// slot for its whole lifetime), then the full burst, then per-handle
/// verdicts against each request's contract.
fn run_serve_mix(
    name: &str,
    specs: &[ServeReq],
    threads: usize,
    window: usize,
    capacity: usize,
    watchdog: Duration,
    oversubscribed: bool,
) -> ServeMixOutcome {
    let tile = TileShape::new(16, 16, 8);
    let exec = CpuExecutor::with_threads(threads).with_watchdog(watchdog);
    type Combo = (Matrix<f64>, Matrix<f64>, Decomposition, Matrix<f64>);
    let mut combos: Vec<((usize, usize, usize, usize), Combo)> = Vec::new();
    for s in specs {
        let key = (s.shape.m, s.shape.n, s.shape.k, s.grid);
        if combos.iter().any(|(k, _)| *k == key) {
            continue;
        }
        let decomp = Decomposition::stream_k(s.shape, tile, s.grid);
        let seed = (key.0 * 31 + key.1 * 7 + key.2 * 3 + key.3) as u64;
        let a = Matrix::<f64>::random::<f64>(s.shape.m, s.shape.k, Layout::RowMajor, seed);
        let b = Matrix::<f64>::random::<f64>(s.shape.k, s.shape.n, Layout::RowMajor, seed + 1);
        let baseline = exec.gemm::<f64, f64>(&a, &b, &decomp);
        combos.push((key, (a, b, decomp, baseline)));
    }
    let combo_of = |s: &ServeReq| -> &Combo {
        let key = (s.shape.m, s.shape.n, s.shape.k, s.grid);
        &combos.iter().find(|(k, _)| *k == key).expect("combo precomputed").1
    };

    // Injected CTA panics are expected here; the default hook's
    // backtrace spew is noise, so silence it for the campaign.
    let quiet = specs.iter().any(|s| s.fault == Some(ServeFaultKind::PanicCta));
    let prev_hook = quiet.then(std::panic::take_hook);
    if quiet {
        std::panic::set_hook(Box::new(|_| {}));
    }

    let service = GemmService::<f64, f64>::start(
        &exec,
        ServeConfig::default().with_window(window).with_capacity(capacity),
    );
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for s in specs {
        let (a, b, decomp, _) = combo_of(s);
        let mut req =
            LaunchRequest::new(a.clone(), b.clone(), decomp.clone()).with_priority(s.prio);
        if let Some(kind) = s.fault {
            req = req.with_serve_fault(kind);
        }
        if let Some(d) = s.deadline {
            req = req.with_deadline(d);
        }
        // A full queue rejects; the service counts it and the burst
        // moves on — that lost request is the backpressure story.
        handles.push((s, service.submit(req).ok()));
    }
    let mut latencies: Vec<f64> = Vec::new();
    let (mut bit_exact, mut contract_ok) = (true, true);
    for (s, handle) in handles {
        let Some(handle) = handle else { continue };
        match (s.expect(), handle.wait()) {
            (ServeExpect::Cancelled, Err(ServeError::Cancelled))
            | (ServeExpect::Panicked, Err(ServeError::Panicked { .. }))
            | (ServeExpect::TimedOut, Err(ServeError::Timeout { .. })) => {}
            (ServeExpect::Exact, Ok((c, stats))) => {
                latencies.push(stats.latency.as_secs_f64());
                if c.max_abs_diff(&combo_of(s).3) != 0.0 {
                    bit_exact = false;
                }
            }
            _ => contract_ok = false,
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let registry = service.telemetry();
    let stats = service.shutdown();
    if let Some(prev) = prev_hook {
        std::panic::set_hook(prev);
    }
    let incidents = registry.get(ServiceCounter::Incidents);

    latencies.sort_by(f64::total_cmp);
    let pct = |p: f64| {
        let idx = (latencies.len().saturating_sub(1)) as f64 * p;
        latencies.get(idx as usize).copied().unwrap_or(0.0)
    };
    let (p50, p99) = (pct(0.50), pct(0.99));
    let rps = if wall > 0.0 { stats.completed as f64 / wall } else { 0.0 };
    let text = format!(
        "  {name:<22} {:>4} reqs {:>5} ok {:>4} rej {:>4} t/o {:>4} can {:>4} pan {:>9.1} req/s  p50 {p50:.2e}s  p99 {p99:.2e}s  bit-exact {}\n",
        specs.len(),
        stats.completed,
        stats.rejected,
        stats.timed_out,
        stats.cancelled,
        stats.panicked,
        rps,
        if bit_exact && contract_ok { "yes" } else { "NO" }
    );
    let json = format!(
        "    {{\"name\": \"{name}\", \"requests\": {}, \"threads\": {threads}, \"oversubscribed\": {oversubscribed}, \"window\": {window}, \"capacity\": {capacity}, \"submitted\": {}, \"completed\": {}, \"rejected\": {}, \"timed_out\": {}, \"cancelled\": {}, \"panicked\": {}, \"failed\": {}, \"requests_per_s\": {rps:.2}, \"p50_latency_s\": {p50:.6e}, \"p99_latency_s\": {p99:.6e}, \"bit_exact\": {bit_exact}, \"contract_ok\": {contract_ok}, \"pool_poisonings\": {}, \"incidents\": {incidents}}}",
        specs.len(),
        stats.submitted,
        stats.completed,
        stats.rejected,
        stats.timed_out,
        stats.cancelled,
        stats.panicked,
        stats.failed,
        stats.pool_poisonings,
    );
    ServeMixOutcome {
        text,
        json,
        bit_exact,
        contract_ok,
        pool_poisonings: stats.pool_poisonings,
        incidents,
        registry,
    }
}

/// Wall time of one fault-free uniform burst through a fresh service,
/// for the tracing-overhead comparison. `traced` toggles per-request
/// span rings; everything else is identical.
fn time_serve_burst(
    threads: usize,
    window: usize,
    capacity: usize,
    requests: usize,
    traced: bool,
) -> f64 {
    // Heavy enough that each request's MAC work dwarfs per-span
    // bookkeeping — the overhead figure is the tracing tax on real
    // requests, not on ring setup for near-empty ones.
    let shape = GemmShape::new(160, 128, 96);
    let tile = TileShape::new(16, 16, 8);
    let grid = 4usize.min(threads.max(2));
    let decomp = Decomposition::stream_k(shape, tile, grid);
    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, 0x7E1E);
    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, 0x7E1F);
    let exec = CpuExecutor::with_threads(threads);
    let service = GemmService::<f64, f64>::start(
        &exec,
        ServeConfig::default()
            .with_window(window)
            .with_capacity(capacity)
            .with_trace(traced)
            .with_trace_capacity(512),
    );
    let t0 = Instant::now();
    let handles: Vec<_> = (0..requests)
        .map(|_| {
            service
                .submit(LaunchRequest::new(a.clone(), b.clone(), decomp.clone()))
                .expect("burst fits the queue")
        })
        .collect();
    for h in handles {
        let _ = h.wait();
    }
    let wall = t0.elapsed().as_secs_f64();
    service.shutdown();
    wall
}

/// The concurrent-launch benchmark behind `streamk serve-bench`:
/// three request mixes through [`GemmService`] — a uniform small-GEMM
/// burst, a heterogeneous size/priority burst, and a seeded fault
/// campaign under queue pressure — reporting throughput, p50/p99
/// latency, admission rejections, deadline timeouts, and the
/// bit-exactness verdict per mix to stdout and `out` as JSON.
#[allow(clippy::too_many_arguments)]
fn run_serve_bench(
    threads: usize,
    requests: usize,
    window: usize,
    capacity: usize,
    watchdog_ms: u64,
    smoke: bool,
    out_path: &str,
    metrics_out: Option<&str>,
) -> String {
    let watchdog = Duration::from_millis(watchdog_ms.max(1));
    let shapes =
        [GemmShape::new(48, 40, 32), GemmShape::new(32, 32, 64), GemmShape::new(96, 80, 48)];
    let grids = [4usize, 2, 6];
    // Grids are clamped to the pool so no mix trips the co-residency
    // admission check on small --threads runs.
    let grid_for = |i: usize| grids[i % grids.len()].min(threads.max(2));

    let uniform: Vec<ServeReq> = (0..requests)
        .map(|_| ServeReq {
            shape: shapes[0],
            grid: grid_for(0),
            prio: Priority::Normal,
            fault: None,
            deadline: None,
        })
        .collect();
    let mixed: Vec<ServeReq> = (0..requests)
        .map(|i| ServeReq {
            shape: shapes[i % shapes.len()],
            grid: grid_for(i),
            prio: Priority::ALL[i % Priority::ALL.len()],
            fault: None,
            deadline: None,
        })
        .collect();
    // Faulted burst: seeded request faults (cancellations, injected
    // CTA panics, admission delays, protocol faults) plus two
    // zero-deadline requests — guaranteed typed timeouts. Full
    // capacity, so every fault actually enters the service.
    let plan = ServeFaultPlan::seeded(0xC0FFEE, requests, watchdog);
    let faulted: Vec<ServeReq> = (0..requests)
        .map(|i| {
            let deadline = (i < 2).then_some(Duration::ZERO);
            ServeReq {
                shape: shapes[i % shapes.len()],
                grid: grid_for(i),
                prio: Priority::ALL[i % Priority::ALL.len()],
                fault: if deadline.is_some() { None } else { plan.fault_for(i) },
                deadline,
            }
        })
        .collect();
    // Overflow burst: fault-free requests into a quarter-size queue —
    // the backpressure story, rejections counted not blocked on.
    let tight_capacity = (requests / 4).max(4).min(capacity);
    // Oversubscription probe: the same uniform burst on 2x the
    // requested workers. Rows beyond nproc carry scheduler noise, so
    // they are marked and latency gates skip them.
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let over_threads = (threads * 2).max(nproc + 1);
    let mixes: [(&str, &[ServeReq], usize, usize); 5] = [
        ("uniform-small", &uniform, capacity, threads),
        ("mixed-sizes", &mixed, capacity, threads),
        ("faulted", &faulted, requests.max(capacity), threads),
        ("burst-overflow", &uniform, tight_capacity, threads),
        ("oversubscribed-2x", &uniform, capacity, over_threads),
    ];

    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve-bench: {requests} requests/mix, {threads} workers (nproc {nproc}), window {window}, capacity {capacity}, watchdog {watchdog_ms}ms{}",
        if smoke { " (smoke)" } else { "" }
    );
    let mut mix_json = Vec::new();
    let (mut all_exact, mut all_contract) = (true, true);
    let mut poisonings = 0usize;
    let mut incidents = 0u64;
    let mut faulted_registry: Option<Arc<TelemetryRegistry>> = None;
    for (name, specs, cap, mix_threads) in mixes {
        let r =
            run_serve_mix(name, specs, mix_threads, window, cap, watchdog, mix_threads > nproc);
        out.push_str(&r.text);
        mix_json.push(r.json);
        all_exact &= r.bit_exact;
        all_contract &= r.contract_ok;
        poisonings += r.pool_poisonings;
        incidents += r.incidents;
        if name == "faulted" {
            faulted_registry = Some(r.registry);
        }
    }
    let _ = writeln!(
        out,
        "all mixes bit-exact: {}; contracts honored: {}; pool poisonings: {poisonings}; incidents: {incidents}",
        if all_exact { "yes" } else { "NO" },
        if all_contract { "yes" } else { "NO" }
    );

    // Tracing overhead: interleaved untraced/traced uniform bursts,
    // min-of-reps each (min discards scheduler noise; the residual
    // difference is the per-span bookkeeping itself). Pinned within
    // nproc — oversubscription would measure the scheduler, not the
    // tracer.
    let overhead_threads = threads.min(nproc).max(1);
    let overhead_reps = if smoke { 7 } else { 9 };
    let burst = requests.min(if smoke { 12 } else { 32 }).max(4);
    let (mut untraced_s, mut traced_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..overhead_reps {
        untraced_s = untraced_s
            .min(time_serve_burst(overhead_threads, window, capacity.max(burst), burst, false));
        traced_s = traced_s
            .min(time_serve_burst(overhead_threads, window, capacity.max(burst), burst, true));
    }
    let overhead_raw_pct = (traced_s - untraced_s) / untraced_s.max(1e-12) * 100.0;
    let overhead_pct = overhead_raw_pct.max(0.0);
    let _ = writeln!(
        out,
        "serve tracing overhead: untraced {untraced_s:.3e}s traced {traced_s:.3e}s ({overhead_raw_pct:+.2}% raw, {overhead_pct:.2}% clamped)"
    );

    if let Some(path) = metrics_out {
        // The faulted mix's registry is the snapshot of record: it
        // carries every counter class (completions, timeouts,
        // cancellations, panics) plus incident dumps.
        let rendered = faulted_registry.as_deref().map(TelemetryRegistry::render);
        match rendered {
            Some(text) => match std::fs::write(path, &text) {
                Ok(()) => {
                    let _ = writeln!(out, "wrote {path} (Prometheus text, faulted mix)");
                }
                Err(e) => {
                    let _ = writeln!(out, "failed to write {path}: {e}");
                }
            },
            None => {
                let _ = writeln!(out, "no faulted-mix registry; {path} not written");
            }
        }
    }

    let generated_by = provenance("serve-bench");
    let json = format!(
        "{{\n  \"generated_by\": \"{generated_by}\",\n  \"smoke\": {smoke},\n  \"threads\": {threads},\n  \"nproc\": {nproc},\n  \"requests_per_mix\": {requests},\n  \"window\": {window},\n  \"capacity\": {capacity},\n  \"watchdog_ms\": {watchdog_ms},\n  \"mixes\": [\n{}\n  ],\n  \"serve_tracing_overhead\": {{\"reps\": {overhead_reps}, \"requests\": {burst}, \"untraced_s\": {untraced_s:.6e}, \"traced_s\": {traced_s:.6e}, \"overhead_raw_pct\": {overhead_raw_pct:.3}, \"overhead_pct\": {overhead_pct:.3}}},\n  \"all_bit_exact\": {all_exact},\n  \"all_contracts_ok\": {all_contract},\n  \"total_pool_poisonings\": {poisonings},\n  \"total_incidents\": {incidents}\n}}\n",
        mix_json.join(",\n"),
    );
    match std::fs::write(out_path, &json) {
        Ok(()) => {
            let _ = writeln!(out, "wrote {out_path}");
        }
        Err(e) => {
            let _ = writeln!(out, "failed to write {out_path}: {e}");
        }
    }
    out
}

fn run_chaos(shape: GemmShape, tile: TileShape, seeds: u64, threads: usize, watchdog_ms: u64, serve: bool) -> String {
    let watchdog = Duration::from_millis(watchdog_ms.max(1));
    let strategies: [(&str, Decomposition); 5] = [
        ("dp", Decomposition::data_parallel(shape, tile)),
        ("splitk:3", Decomposition::fixed_split(shape, tile, 3)),
        (
            "streamk",
            Decomposition::stream_k(shape, tile, threads.min(tile.output_tiles(shape).max(1) * 2)),
        ),
        ("dp+1t-streamk", Decomposition::dp_one_tile_stream_k(shape, tile, threads)),
        ("2t-streamk+dp", Decomposition::two_tile_stream_k_dp(shape, tile, threads)),
    ];
    type KindCtor = fn(Duration) -> FaultKind;
    let kinds: [(&str, KindCtor); 3] = [
        ("straggler", |w| FaultKind::Straggle(w / 4)),
        ("lost", |_| FaultKind::Lose),
        ("poison", |_| FaultKind::Poison),
    ];

    let exec = CpuExecutor::with_threads(threads).with_watchdog(watchdog);
    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, 0xC0FFEE);
    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, 0xBEEF);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos: {shape} GEMM, blocking {tile}, {threads} workers, watchdog {watchdog_ms}ms, {seeds} seed(s) per cell"
    );
    let _ = writeln!(
        out,
        "\n{:<16} {:<10} {:>5} {:>9} {:>11} {:>12} {:>10}",
        "strategy", "fault", "runs", "survived", "recoveries", "recomputed", "bit-exact"
    );

    // The batched and grouped entries launch through the same grid
    // loop: three instances of the shape, and the shape with two
    // relatives of it, under one Stream-K grid each.
    let operands = |shapes: &[GemmShape]| -> (Vec<Matrix<f64>>, Vec<Matrix<f64>>) {
        let fill = |rows, cols, seed| Matrix::<f64>::random::<f64>(rows, cols, Layout::RowMajor, seed);
        shapes.iter().zip(0u64..).map(|(s, i)| (fill(s.m, s.k, 0xC0FFEE + i), fill(s.k, s.n, 0xBEEF + i))).unzip()
    };
    let batched = BatchedDecomposition::stream_k(BatchedSpace::new(3, shape, tile), threads);
    let (batch_a, batch_b) = operands(&[shape; 3]);
    let group = [shape, GemmShape::new(shape.n, shape.m, shape.k), GemmShape::new(shape.m, shape.n, 2 * shape.k)];
    let grouped = GroupedDecomposition::stream_k(GroupedSpace::new(&group, tile), threads);
    let (group_a, group_b) = operands(&group);

    // One row group of the table: its contributors, and how to run it
    // under a plan.
    type Outcome = Result<(Vec<Matrix<f64>>, RecoveryReport), ExecutorError>;
    type Cell<'a> = (&'a str, Vec<usize>, Box<dyn Fn(&FaultPlan) -> Outcome + 'a>);
    let peers = |fixups: Vec<TileFixup>| -> Vec<usize> {
        let mut peers: Vec<usize> = fixups.iter().flat_map(|f| f.peers.iter().copied()).collect();
        peers.sort_unstable();
        peers
    };
    let mut cells: Vec<Cell<'_>> = Vec::new();
    for (name, decomp) in &strategies {
        let (exec, a, b) = (&exec, &a, &b);
        cells.push((name, peers(decomp.fixups()), Box::new(move |plan| {
            exec.gemm_with_faults::<f64, f64>(a, b, decomp, plan).map(|(c, report)| (vec![c], report))
        })));
    }
    cells.push(("batched", peers(batched.fixups()), Box::new(|plan| {
        exec.gemm_batched_with_faults::<f64, f64>(&batch_a, &batch_b, &batched, plan)
    })));
    cells.push(("grouped", peers(grouped.fixups()), Box::new(|plan| {
        exec.gemm_grouped_with_faults::<f64, f64>(&group_a, &group_b, &grouped, plan)
    })));

    for (name, contributors, run) in &cells {
        let baseline = match run(&FaultPlan::none()) {
            Ok((c, _)) => c,
            Err(e) => {
                let _ = writeln!(out, "{name:<16} skipped: {e}");
                continue;
            }
        };
        for (kind_name, make_kind) in &kinds {
            let mut survived = 0u64;
            let mut recoveries = 0usize;
            let mut recomputed = 0usize;
            let mut bit_exact = true;
            for seed in 0..seeds {
                let plan = if contributors.is_empty() {
                    // No split seams: the fault has no victim and the
                    // run trivially survives.
                    FaultPlan::none()
                } else {
                    let victim = contributors[(seed as usize) % contributors.len()];
                    FaultPlan::single(victim, make_kind(watchdog))
                };
                match run(&plan) {
                    Ok((c, report)) => {
                        survived += 1;
                        recoveries += report.recoveries();
                        recomputed += report.recomputed_iters();
                        bit_exact &= c == baseline;
                    }
                    Err(_) => bit_exact = false,
                }
            }
            let _ = writeln!(
                out,
                "{name:<16} {kind_name:<10} {seeds:>5} {survived:>9} {recoveries:>11} {recomputed:>12} {:>10}",
                if bit_exact { "yes" } else { "NO" }
            );
        }
    }
    drop(cells);

    let _ = writeln!(out, "\nsim straggler injection (A100 fp64, 2x slowdown on SM 1):");
    let _ = writeln!(out, "{:<16} {:>11} {:>19}", "strategy", "makespan x", "fixup-stall delta");
    let gpu = GpuSpec::a100();
    let sim_plan = SimFaultPlan::none().with_sm_slowdown(1, 2.0);
    for (name, decomp) in &strategies {
        let r = simulate_with_faults(decomp, &gpu, Precision::Fp64, &sim_plan);
        let _ = writeln!(
            out,
            "{name:<16} {:>10.3}x {:>17.3e}s",
            r.makespan_amplification(),
            r.fixup_stall_delta()
        );
    }

    // Service-level campaign: the same executor, but through
    // `GemmService` with seeded *request* faults — cancellations,
    // injected CTA panics, admission delays, and protocol faults all
    // interleaved in one concurrent burst per seed.
    if serve {
        let n_requests = 24usize;
        let decomp = &strategies[2].1;
        let baseline = match exec.try_gemm::<f64, f64>(&a, &b, decomp) {
            Ok(c) => c,
            Err(e) => {
                let _ = writeln!(out, "\nserve campaign skipped: {e}");
                return out;
            }
        };
        let _ = writeln!(
            out,
            "\nserve campaign ({n_requests} concurrent requests per seed through GemmService, stream-k grid):"
        );
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>9} {:>9} {:>8} {:>9} {:>11} {:>10} {:>11}",
            "seed",
            "submitted",
            "completed",
            "cancelled",
            "panicked",
            "timed-out",
            "recoveries",
            "bit-exact",
            "poisonings"
        );
        for seed in 0..seeds {
            let plan = ServeFaultPlan::seeded(seed, n_requests, watchdog);
            let quiet =
                plan.faults().iter().any(|f| matches!(f.kind, ServeFaultKind::PanicCta));
            let prev_hook = quiet.then(std::panic::take_hook);
            if quiet {
                std::panic::set_hook(Box::new(|_| {}));
            }
            let service = GemmService::<f64, f64>::start(&exec, ServeConfig::default());
            let handles: Vec<_> = (0..n_requests)
                .map(|i| {
                    let mut req = LaunchRequest::new(a.clone(), b.clone(), decomp.clone())
                        .with_priority(Priority::ALL[i % Priority::ALL.len()]);
                    if let Some(kind) = plan.fault_for(i) {
                        req = req.with_serve_fault(kind);
                    }
                    (i, service.submit(req).expect("chaos request admitted"))
                })
                .collect();
            let mut recoveries = 0usize;
            let mut bit_exact = true;
            for (i, handle) in handles {
                match (plan.fault_for(i), handle.wait()) {
                    (Some(ServeFaultKind::Cancel), Err(ServeError::Cancelled))
                    | (Some(ServeFaultKind::PanicCta), Err(ServeError::Panicked { .. })) => {}
                    (
                        None
                        | Some(
                            ServeFaultKind::AdmitDelay(_) | ServeFaultKind::Protocol(_),
                        ),
                        Ok((c, stats)),
                    ) => {
                        recoveries += stats.recoveries;
                        bit_exact &= c.max_abs_diff(&baseline) == 0.0;
                    }
                    _ => bit_exact = false,
                }
            }
            let s = service.shutdown();
            if let Some(prev) = prev_hook {
                std::panic::set_hook(prev);
            }
            let _ = writeln!(
                out,
                "{seed:<6} {:>9} {:>9} {:>9} {:>8} {:>9} {recoveries:>11} {:>10} {:>11}",
                s.submitted,
                s.completed,
                s.cancelled,
                s.panicked,
                s.timed_out,
                if bit_exact { "yes" } else { "NO" },
                s.pool_poisonings
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Cli;

    fn run(s: &str) -> String {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        execute(&Cli::parse(&argv).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        let out = run("help");
        assert!(out.contains("USAGE"));
        assert!(out.contains("streamk:G"));
    }

    #[test]
    fn schedule_shows_gantt_and_stats() {
        let out = run("schedule 384 384 128 --tile 128x128x4 --strategy streamk:4");
        assert!(out.contains("9 output tiles"));
        assert!(out.contains("SM0"));
        assert!(out.contains("quantization 100.0%"));
    }

    #[test]
    fn bestgrid_reproduces_figure8c() {
        let out = run("bestgrid 128 128 16384 --precision fp16");
        assert!(out.contains("g* = 8"), "{out}");
        assert!(out.contains("<-- g*"));
    }

    #[test]
    fn compare_lists_four_contenders() {
        let out = run("compare 1024 1024 1024 --precision fp64");
        for name in ["stream-k", "data-parallel", "cublas-like", "oracle"] {
            assert!(out.contains(name), "missing {name}: {out}");
        }
    }

    #[test]
    fn corpus_summary() {
        let out = run("corpus 200");
        assert!(out.contains("200 shapes"));
        assert!(out.contains("compute-bound"));
    }

    #[test]
    fn chaos_campaign_survives_every_cell() {
        // Small problem, short watchdog: the full campaign in well
        // under a second per lost-CTA cell.
        let out = run("chaos 96 80 64 --tile 32x32x16 --seeds 2 --threads 8 --watchdog-ms 100");
        for row in ["dp", "splitk:3", "streamk", "dp+1t-streamk", "2t-streamk+dp", "batched", "grouped"] {
            assert!(out.contains(&format!("\n{row} ")), "missing {row}: {out}");
        }
        for kind in ["straggler", "lost", "poison"] {
            assert!(out.contains(kind), "missing {kind}: {out}");
        }
        assert!(out.contains("sim straggler injection"), "{out}");
        assert!(!out.contains("NO"), "a cell lost bit-exactness:\n{out}");
        assert!(!out.contains("skipped"), "a strategy was skipped:\n{out}");
    }

    #[test]
    fn chaos_serve_campaign_is_bit_exact_and_never_poisons() {
        let out = run("chaos 96 80 64 --tile 32x32x16 --seeds 2 --threads 8 --watchdog-ms 100 --serve");
        assert!(out.contains("serve campaign"), "{out}");
        assert!(out.contains("recoveries"), "{out}");
        assert!(!out.contains("skipped"), "{out}");
        assert!(!out.contains("NO"), "a campaign cell lost bit-exactness:\n{out}");
    }

    #[test]
    fn serve_bench_smoke_writes_json() {
        let path = std::env::temp_dir().join("streamk_cli_serve_bench_test.json");
        let out = run(&format!(
            "serve-bench --smoke --requests 8 --threads 4 --watchdog-ms 150 --out {}",
            path.display()
        ));
        assert!(out.contains("uniform-small"), "{out}");
        assert!(out.contains("mixed-sizes"), "{out}");
        assert!(out.contains("faulted"), "{out}");
        assert!(out.contains("burst-overflow"), "{out}");
        assert!(out.contains("all mixes bit-exact: yes"), "{out}");
        assert!(out.contains("contracts honored: yes"), "{out}");
        assert!(out.contains("pool poisonings: 0"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"all_bit_exact\": true"), "{json}");
        assert!(json.contains("\"all_contracts_ok\": true"), "{json}");
        assert!(json.contains("\"total_pool_poisonings\": 0"), "{json}");
        assert!(json.contains("\"p99_latency_s\""), "{json}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bench_smoke_writes_json() {
        let path = std::env::temp_dir().join("streamk_cli_bench_test.json");
        let out = run(&format!(
            "bench --smoke --size 96 --tile 32x32x8 --corpus 1 --reps 1 --out {}",
            path.display()
        ));
        assert!(out.contains("bit-exactness gate"), "{out}");
        assert!(out.contains("executor gate"), "{out}");
        assert!(out.contains("block vs scalar"), "{out}");
        assert!(!out.contains("select_kernel_on"), "{out}");
        assert!(out.contains("thread scaling"), "{out}");
        assert!(out.contains("wrote"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"bit_exact_f64\": true"), "{json}");
        assert!(json.contains("\"speedup_block_vs_scalar\""), "{json}");
        assert!(json.contains("\"block_gflops\""), "{json}");
        assert!(json.contains("\"cached_timings_s\""), "{json}");
        assert!(json.contains("\"thread_scaling\""), "{json}");
        assert!(json.contains("\"simd_level\""), "{json}");
        assert!(json.contains("\"cache_speedup\""), "{json}");
        // Sweep rows above the machine's core count are flagged so
        // downstream gates can skip them instead of judging noise.
        assert!(json.contains("\"oversubscribed\""), "{json}");
        assert!(json.contains("\"tracing_overhead\""), "{json}");
        assert!(json.contains("\"overhead_pct\""), "{json}");
        assert!(json.contains("\"overhead_raw_pct\""), "{json}");
        assert!(json.contains("\"gate_pct\": 5.0"), "{json}");
        assert!(out.contains("tracing overhead"), "{out}");
        // The gated overhead figure is clamped at zero — only the raw
        // delta may go negative.
        assert!(!json.contains("\"overhead_pct\": -"), "{json}");
        // Two storage orders and no contest between them.
        assert!(!json.contains("\"layout_comparison\""), "{json}");
        assert!(!out.contains("layout comparison"), "{out}");
        // No kernel contest: the headline times the two kinds there are.
        assert!(!json.contains("\"selection\""), "{json}");
        assert!(json.contains("\"shape\": \"96x96x96\""), "{json}");
        assert!(json.contains("\"timings_s\": {\"scalar\": "), "{json}");
        assert!(json.contains("\"block\": "), "{json}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn select_bench_smoke_adapts_and_persists() {
        let dir = std::env::temp_dir().join(format!("streamk_cli_select_bench_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("cache");
        let json_path = dir.join("bench.json");
        let cmd = format!(
            "select-bench --smoke --shapes 1 --rounds 1 --reps 1 --cache {} --out {}",
            cache.display(),
            json_path.display()
        );
        let out = run(&cmd);
        assert!(out.contains("measured oracle"), "{out}");
        assert!(out.contains("warm ≤ cold: yes"), "{out}");
        assert!(out.contains("written true, reload-consistent true"), "{out}");
        assert!(out.contains("loaded false"), "first invocation must start cold: {out}");
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"selection_adaptive\""), "{json}");
        assert!(json.contains("\"all_bit_exact\": true"), "{json}");
        assert!(json.contains("\"cache_loaded\": false"), "{json}");
        assert!(json.contains("\"cache_written\": true"), "{json}");
        assert!(json.contains("\"cache_reload_consistent\": true"), "{json}");
        assert!(json.contains("\"warm_regret_pct\""), "{json}");
        assert!(json.contains("\"per_shape\""), "{json}");

        // Second invocation: starts from the persisted table, and the
        // splice replaces the old section instead of stacking a copy.
        let out2 = run(&cmd);
        assert!(out2.contains("loaded from a previous invocation"), "{out2}");
        let json2 = std::fs::read_to_string(&json_path).unwrap();
        assert!(json2.contains("\"cache_loaded\": true"), "{json2}");
        assert_eq!(json2.matches("\"selection_adaptive\"").count(), 1, "{json2}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_emits_merged_trace_and_residuals() {
        let path = std::env::temp_dir().join("streamk_cli_profile_test.json");
        let svg = std::env::temp_dir().join("streamk_cli_profile_test.svg");
        let out = run(&format!(
            "profile 96 96 128 --tile 32x32x16 --threads 4 --strategy streamk:6 --out {} --svg {}",
            path.display(),
            svg.display()
        ));
        assert!(out.contains("untraced ring allocations: 0"), "{out}");
        assert!(out.contains("bit-exact: yes"), "{out}");
        assert!(out.contains("phase breakdown"), "{out}");
        assert!(out.contains("residual"), "{out}");
        assert!(out.contains("per-wave finish skew"), "{out}");
        assert!(out.contains("wrote"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        streamk_core::validate_json(&json).expect("merged trace must parse");
        // Both timelines are present as named processes.
        assert!(json.contains("streamk-cpu measured"), "{json}");
        assert!(json.contains("streamk-sim"), "{json}");
        assert!(json.contains("\"ph\": \"X\""), "{json}");
        let svg_doc = std::fs::read_to_string(&svg).unwrap();
        assert!(svg_doc.starts_with("<svg"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&svg);
    }

    #[test]
    fn svg_writes_file() {
        let path = std::env::temp_dir().join("streamk_cli_test.svg");
        let out = run(&format!("svg 384 384 128 --tile 128x128x4 --strategy streamk:4 --out {}", path.display()));
        assert!(out.contains("wrote"), "{out}");
        let svg = std::fs::read_to_string(&path).unwrap();
        assert!(svg.starts_with("<svg"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn auto_strategy_uses_model() {
        let out = run("schedule 128 128 16384 --tile 128x128x32 --sms 108 --strategy auto");
        // The schedule command models with FP64 constants: the tie-broken
        // minimum for a 512-iteration single tile lands at g = 9.
        assert!(out.contains("stream-k(g=9)"), "{out}");
    }
}
