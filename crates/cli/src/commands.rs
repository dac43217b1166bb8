//! Command implementations.

use crate::args::{Cli, Command, StrategyArg, USAGE};
use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt::Write as _;
use std::time::Duration;
use streamk_core::{
    BatchedDecomposition, BatchedSpace, CostModel, Decomposition, ExecutorError, GridSizeModel,
    GroupedDecomposition, GroupedSpace, Phase, SpanKind, TileFixup, TraceWriter,
};
use streamk_corpus::{Corpus, CorpusConfig};
use streamk_cpu::trace::ring_allocations;
use streamk_cpu::{
    CpuExecutor, ExecTrace, FaultKind, FaultPlan, GemmService, LaunchRequest, Priority, RecoveryReport,
    ServeConfig, ServeError, ServeFaultKind, ServeFaultPlan,
};
use streamk_ensemble::runners;
use streamk_matrix::Matrix;
use streamk_sim::{
    render_gantt, render_svg, simulate, simulate_with_faults, write_chrome_trace, CtaSpan, GpuSpec,
    SimFaultPlan, SimReport, SvgOptions,
};
use streamk_types::{GemmShape, Layout, Precision, TileShape};

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

/// A traced launch's CTAs as the simulator reports them. The executor
/// dispatches one tile segment at a time, so a CTA leaves one `Cta`
/// span per segment (its `arg` the CTA id), possibly on several
/// workers when one stole the tail of another's CTA. Each CTA's spans
/// merge into one, from its first segment's start to its last one's
/// end, on the worker that started it, with its segments' MAC
/// iterations and waits summed — so the residuals compare CTAs to
/// simulated CTAs, not tiles.
fn measured_ctas(trace: &ExecTrace) -> Vec<CtaSpan> {
    let mut ctas: BTreeMap<usize, CtaSpan> = BTreeMap::new();
    for (wid, worker) in trace.workers.iter().enumerate() {
        for s in worker.spans.iter().filter(|s| s.kind == SpanKind::Cta) {
            let nested = |kind: SpanKind| {
                worker.spans.iter().filter(move |m| m.kind == kind && m.start_ns >= s.start_ns && m.end_ns <= s.end_ns)
            };
            let unit = CtaSpan {
                cta_id: s.arg as usize,
                sm: wid,
                start: s.start_ns as f64 / 1e9,
                end: s.end_ns as f64 / 1e9,
                iters: nested(SpanKind::Mac).map(|m| m.arg2 as usize).sum(),
                waited: nested(SpanKind::Wait).map(|m| m.dur_ns() as f64 / 1e9).sum(),
            };
            match ctas.entry(unit.cta_id) {
                Entry::Vacant(slot) => {
                    slot.insert(unit);
                }
                Entry::Occupied(mut slot) => {
                    let cta = slot.get_mut();
                    if unit.start < cta.start {
                        (cta.sm, cta.start) = (unit.sm, unit.start);
                    }
                    cta.end = cta.end.max(unit.end);
                    cta.iters += unit.iters;
                    cta.waited += unit.waited;
                }
            }
        }
    }
    ctas.into_values().collect()
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
        "unit duration: n={} mean {:.3e}s max {:.3e}s; fixup latency: n={} mean {:.3e}s",
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
    let measured = measured_ctas(&trace);
    let predicted_ctas: Vec<(f64, f64)> = report.spans.iter().map(|s| (s.start, s.end)).collect();
    let measured_skews = wave_skews(measured.iter().map(|s| (s.start, s.end)).collect(), threads);
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
    // renderer by expressing the measured CTAs as a SimReport.
    if let Some(svg_path) = svg_path {
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
            spans: measured,
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

    /// CTA 1 ran its first segment on worker 1 while worker 0, done
    /// with CTA 0, stole its last two: one measured CTA per CTA id, on
    /// the worker that started it, from its first segment's start to
    /// its last one's end, with every segment's iterations and waits.
    #[test]
    fn measured_ctas_merge_a_split_cta_by_id() {
        use streamk_cpu::{Span, WorkerTrace};
        let span = |kind, start_ns, end_ns, arg, arg2| Span { kind, start_ns, end_ns, arg, arg2 };
        let worker0 = vec![
            span(SpanKind::Mac, 0, 90, 0, 4),
            span(SpanKind::Cta, 0, 100, 0, 0),
            span(SpanKind::Mac, 110, 190, 2, 4),
            span(SpanKind::Cta, 105, 200, 1, 0),
            span(SpanKind::Wait, 210, 240, 1, 3),
            span(SpanKind::Mac, 200, 290, 3, 2),
            span(SpanKind::Cta, 200, 300, 1, 0),
        ];
        let worker1 = vec![span(SpanKind::Mac, 60, 140, 1, 4), span(SpanKind::Cta, 50, 150, 1, 1)];
        let trace = ExecTrace {
            workers: vec![WorkerTrace { spans: worker0, dropped: 0 }, WorkerTrace { spans: worker1, dropped: 0 }],
            wall_ns: 300,
        };
        let ctas = measured_ctas(&trace);
        let key: Vec<_> = ctas.iter().map(|c| (c.cta_id, c.sm, c.start, c.end, c.iters)).collect();
        assert_eq!(key, vec![(0, 0, 0.0, 100e-9, 4), (1, 1, 50e-9, 300e-9, 10)]);
        assert!((ctas[1].waited - 30e-9).abs() < 1e-15, "{:?}", ctas[1]);
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
