//! Telemetry suite: the observability layer's three load-bearing
//! contracts, tested end-to-end through a live `GemmService`.
//!
//! 1. The Prometheus export and `ServiceStats` reconcile **exactly**
//!    — both are views of the same `TelemetryRegistry`, and this
//!    suite parses the rendered text back to prove it.
//! 2. The flight recorder drops oldest under overflow, and a seeded
//!    `ServeFaultPlan` campaign produces the *same* incident dumps
//!    and lifecycle verdicts run after run.
//! 3. Per-request span timelines are laminar: every span comes from
//!    the serve vocabulary, queue wait appears exactly once per
//!    request and leads its track, and nothing leaks across requests.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use streamk_core::{Decomposition, SpanKind};
use streamk_cpu::telemetry::SERVE_SPAN_KINDS;
use streamk_cpu::{
    CpuExecutor, FlightRecorder, GemmService, LaunchRequest, Priority, ServeConfig, ServeError,
    ServeFaultKind, ServeFaultPlan, ServiceCounter, ServiceEventKind, ServiceStats,
};
use streamk_matrix::Matrix;
use streamk_types::{GemmShape, Layout, TileShape};

const WATCHDOG: Duration = Duration::from_millis(150);
const SHAPE: GemmShape = GemmShape { m: 48, n: 40, k: 32 };

fn exec(threads: usize) -> CpuExecutor {
    CpuExecutor::with_threads(threads).with_watchdog(WATCHDOG)
}

fn decomp(grid: usize) -> Decomposition {
    Decomposition::stream_k(SHAPE, TileShape::new(16, 16, 8), grid)
}

fn operands(seed: u64) -> (Matrix<f64>, Matrix<f64>) {
    let a = Matrix::<f64>::random::<f64>(SHAPE.m, SHAPE.k, Layout::RowMajor, seed);
    let b = Matrix::<f64>::random::<f64>(SHAPE.k, SHAPE.n, Layout::RowMajor, seed + 1);
    (a, b)
}

/// Parses every *unlabeled* `streamk_serve_*` counter sample out of a
/// Prometheus text exposition — the lines the reconciliation test
/// compares against `ServiceStats` field by field.
fn parse_serve_counters(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            if name.contains('{') || !name.starts_with("streamk_serve_") {
                return None;
            }
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Every lifecycle class through one service, then the rendered
/// Prometheus text must reconcile exactly with the `ServiceStats`
/// snapshot — they are two views of one registry, and this parses the
/// text back to prove no field drifts.
#[test]
fn prometheus_export_reconciles_exactly_with_service_stats() {
    let e = exec(4);
    let d = decomp(4);
    let (a, b) = operands(41);
    let service = GemmService::<f64, f64>::start(&e, ServeConfig::default());

    let mut good = Vec::new();
    for prio in Priority::ALL {
        let req =
            LaunchRequest::new(a.clone(), b.clone(), d.clone()).with_priority(prio);
        good.push(service.submit(req).unwrap());
    }
    let doomed = service
        .submit(
            LaunchRequest::new(a.clone(), b.clone(), d.clone())
                .with_deadline(Duration::ZERO),
        )
        .unwrap();
    let bomb = service
        .submit(
            LaunchRequest::new(a.clone(), b.clone(), d.clone())
                .with_serve_fault(ServeFaultKind::PanicCta),
        )
        .unwrap();
    let victim = service
        .submit(
            LaunchRequest::new(a.clone(), b.clone(), d.clone())
                .with_serve_fault(ServeFaultKind::Cancel),
        )
        .unwrap();
    // Structural rejection: A's shape contradicts the decomposition.
    let wrong = Matrix::<f64>::random::<f64>(SHAPE.m + 16, SHAPE.k, Layout::RowMajor, 99);
    assert!(service.submit(LaunchRequest::new(wrong, b.clone(), d.clone())).is_err());

    for h in good {
        h.wait().expect("healthy request completes");
    }
    assert_eq!(doomed.wait().unwrap_err(), ServeError::Timeout { deadline: Duration::ZERO });
    assert!(matches!(bomb.wait().unwrap_err(), ServeError::Panicked { .. }));
    assert_eq!(victim.wait().unwrap_err(), ServeError::Cancelled);

    let registry = service.telemetry();
    let incidents = service.incidents();
    let stats = service.shutdown();
    let text = registry.render();

    // Every declared counter renders with HELP, TYPE, and a sample.
    for c in ServiceCounter::ALL {
        let name = c.metric_name();
        assert!(text.contains(&format!("# HELP {name} ")), "missing HELP for {name}");
        assert!(text.contains(&format!("# TYPE {name} counter")), "missing TYPE for {name}");
    }
    let parsed = parse_serve_counters(&text);
    for c in ServiceCounter::ALL {
        assert_eq!(
            parsed.get(c.metric_name()).copied(),
            Some(registry.get(c)),
            "rendered sample for {} diverged from the registry",
            c.metric_name()
        );
    }

    // Exact reconciliation: parsed text vs the ServiceStats snapshot,
    // every field. Both derive from the registry, so equality is by
    // construction — this pins that it stays that way.
    let field = |name: &str| parsed[name] as usize;
    assert_eq!(field("streamk_serve_submitted_total"), stats.submitted);
    assert_eq!(field("streamk_serve_rejected_total"), stats.rejected);
    assert_eq!(field("streamk_serve_completed_total"), stats.completed);
    assert_eq!(field("streamk_serve_timed_out_total"), stats.timed_out);
    assert_eq!(field("streamk_serve_cancelled_total"), stats.cancelled);
    assert_eq!(field("streamk_serve_panicked_total"), stats.panicked);
    assert_eq!(field("streamk_serve_failed_total"), stats.failed);
    assert_eq!(field("streamk_serve_pool_poisonings_total"), stats.pool_poisonings);
    assert_eq!(field("streamk_serve_ctas_total"), stats.ctas);
    assert_eq!(field("streamk_serve_guest_ctas_total"), stats.guest_ctas);
    assert!(stats.guest_ctas <= stats.ctas, "callers' CTAs are a subset: {stats:?}");
    assert_eq!(field("streamk_serve_steals_total"), stats.steals);
    assert_eq!(field("streamk_serve_deferrals_total"), stats.deferrals);
    assert_eq!(field("streamk_serve_recoveries_total"), stats.recoveries);
    assert_eq!(
        parsed["streamk_serve_wait_stall_ns_total"],
        stats.wait_stall.as_nanos() as u64
    );
    assert_eq!(field("streamk_serve_incidents_total"), incidents.len());

    // The lifecycle ledger itself.
    assert_eq!(stats.submitted, 6);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.timed_out, 1);
    assert_eq!(stats.panicked, 1);
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.pool_poisonings, 0);

    // Latency histograms saw every resolved request, and the quantile
    // gauges render for each lane.
    let lat_count: u64 = text
        .lines()
        .filter(|l| l.starts_with("streamk_serve_latency_ns_count{"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    assert_eq!(
        lat_count as usize,
        stats.completed + stats.timed_out + stats.cancelled + stats.panicked + stats.failed
    );
    for lane in ["high", "normal", "bulk"] {
        assert!(text.contains(&format!("streamk_serve_latency_p50_ns{{lane=\"{lane}\"}}")));
        assert!(text.contains(&format!("streamk_serve_latency_p99_ns{{lane=\"{lane}\"}}")));
    }

    // The timeout and the panic each dumped an incident.
    assert!(incidents.iter().any(|r| r.reason == "timeout"), "no timeout incident");
    assert!(incidents.iter().any(|r| r.reason == "panic"), "no panic incident");
    for report in &incidents {
        assert!(!report.events.is_empty(), "incident carries no flight history");
        assert_eq!(report.counters.len(), ServiceCounter::ALL.len());
        let json = report.to_json();
        assert!(json.contains(&format!("\"reason\": \"{}\"", report.reason)));
        assert!(json.contains("streamk_serve_submitted_total"));
    }
}

/// The recorder is bounded and never blocks: overflowing it keeps the
/// newest `capacity` events, oldest-first, with the total recorded
/// count still exact.
#[test]
fn flight_recorder_drops_oldest_under_overflow() {
    let rec = FlightRecorder::new(8, Instant::now());
    for i in 0..20u64 {
        rec.record(ServiceEventKind::Submitted, i, (i % 3) as usize, i * 10);
    }
    assert_eq!(rec.recorded(), 20);
    let events = rec.recent();
    assert_eq!(events.len(), 8, "ring holds exactly its capacity");
    for (offset, e) in events.iter().enumerate() {
        assert_eq!(e.seq, 12 + offset as u64, "oldest-first, survivors are the last 8");
        assert_eq!(e.request, e.seq);
        assert_eq!(e.detail, e.seq * 10);
    }
}

/// The pool-poisoning backstop's anomaly path, exercised directly on
/// a registry (a real poisoning requires a bug in the serve loop
/// itself): the incident is counted, logged, and dumped to the
/// configured directory as a parseable JSON document.
#[test]
fn pool_poisoning_incident_dumps_structured_report_to_disk() {
    use streamk_cpu::TelemetryRegistry;
    let dir = std::env::temp_dir().join(format!("streamk_incidents_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = TelemetryRegistry::new();
    registry.set_incident_dir(&dir);
    registry.inc(ServiceCounter::PoolPoisonings);
    registry.flight().record(ServiceEventKind::Poisoned, u64::MAX, 0, 0);
    let seq = registry.incident("pool_poisoning", u64::MAX, 0, Vec::new());

    assert_eq!(registry.get(ServiceCounter::Incidents), 1);
    let reports = registry.incidents();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].reason, "pool_poisoning");
    assert!(reports[0].events.iter().any(|e| e.kind == ServiceEventKind::Poisoned));

    let path = dir.join(format!("incident-{seq:04}-pool_poisoning.json"));
    let json = std::fs::read_to_string(&path).expect("incident dump written to disk");
    assert!(json.contains("\"reason\": \"pool_poisoning\""));
    assert!(json.contains("\"request\": null"), "service-wide incidents have no request");
    assert!(json.contains("streamk_serve_pool_poisonings_total"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// One seeded fault campaign: submits `n` requests with
/// `ServeFaultPlan::seeded` faults plus one guaranteed timeout and
/// one guaranteed panic, and returns the deterministic verdict —
/// sorted incident reasons and the lifecycle counters.
fn run_seeded_campaign(seed: u64) -> (Vec<String>, ServiceStats) {
    let e = exec(4);
    let d = decomp(4);
    let (a, b) = operands(23);
    let n = 15;
    let plan = ServeFaultPlan::seeded(seed, n, WATCHDOG);
    let service = GemmService::<f64, f64>::start(&e, ServeConfig::default());
    let mut handles = Vec::new();
    for i in 0..n {
        let mut req = LaunchRequest::new(a.clone(), b.clone(), d.clone());
        if let Some(kind) = plan.fault_for(i) {
            req = req.with_serve_fault(kind);
        }
        handles.push(service.submit(req).unwrap());
    }
    handles.push(
        service
            .submit(
                LaunchRequest::new(a.clone(), b.clone(), d.clone())
                    .with_deadline(Duration::ZERO),
            )
            .unwrap(),
    );
    handles.push(
        service
            .submit(
                LaunchRequest::new(a.clone(), b.clone(), d.clone())
                    .with_serve_fault(ServeFaultKind::PanicCta),
            )
            .unwrap(),
    );
    for h in handles {
        let _ = h.wait();
    }
    let mut reasons: Vec<String> =
        service.incidents().iter().map(|r| r.reason.clone()).collect();
    reasons.sort_unstable();
    (reasons, service.shutdown())
}

/// A request's fate is a pure function of its planned fault, so the
/// whole anomaly pipeline — which requests die, how, and what dumps —
/// must replay identically for the same seed. Only timing-derived
/// fields (stall, steals, CTA interleavings) may differ.
#[test]
fn seeded_fault_campaign_dumps_identical_incidents_each_run() {
    let (reasons_a, stats_a) = run_seeded_campaign(0xD1A6);
    let (reasons_b, stats_b) = run_seeded_campaign(0xD1A6);

    assert_eq!(reasons_a, reasons_b, "incident dumps diverged across identical runs");
    assert!(reasons_a.iter().any(|r| r == "timeout"), "campaign lost its timeout incident");
    assert!(reasons_a.iter().any(|r| r == "panic"), "campaign lost its panic incident");
    // Every anomaly produced exactly one dump: incidents fire for
    // timeouts, panics, and unmaskable failures, and nothing else.
    assert_eq!(reasons_a.len(), stats_a.timed_out + stats_a.panicked + stats_a.failed);

    for stats in [&stats_a, &stats_b] {
        assert_eq!(stats.pool_poisonings, 0, "faults must stay isolated from the pool");
        assert_eq!(
            stats.submitted,
            stats.completed + stats.timed_out + stats.cancelled + stats.panicked + stats.failed,
            "every submission resolved exactly once"
        );
    }
    let verdict = |s: &ServiceStats| {
        (s.submitted, s.rejected, s.completed, s.timed_out, s.cancelled, s.panicked, s.failed)
    };
    assert_eq!(verdict(&stats_a), verdict(&stats_b), "lifecycle verdict diverged");
}

/// Concurrent traced requests: every harvested timeline speaks only
/// the serve span vocabulary, queue wait opens each track exactly
/// once and names its own request, and per-CTA spans across all
/// tracks sum to the service's CTA counter — no span leaks into a
/// neighbor's track and none go missing.
#[test]
fn concurrent_request_spans_are_laminar() {
    let e = exec(4);
    let grid = 4;
    let d = decomp(grid);
    let (a, b) = operands(67);
    let baseline = e.gemm::<f64, f64>(&a, &b, &d);
    let service =
        GemmService::<f64, f64>::start(&e, ServeConfig::default().with_trace(true));

    let n = 9usize;
    let mut handles = Vec::new();
    let mut lanes = Vec::new();
    for i in 0..n {
        let prio = Priority::ALL[i % Priority::ALL.len()];
        lanes.push(prio.lane());
        let req = LaunchRequest::new(a.clone(), b.clone(), d.clone()).with_priority(prio);
        handles.push(service.submit(req).unwrap());
    }
    for h in handles {
        let (c, _) = h.wait().expect("traced request completes");
        assert_eq!(c.max_abs_diff(&baseline), 0.0, "tracing changed the result");
    }

    // Harvest after shutdown: the join guarantees every worker has
    // closed (and remnant-harvested) its trailing CTA span, so the
    // span/counter reconciliation below is exact, not approximate.
    let registry = service.telemetry();
    let stats = service.shutdown();
    let trace = registry.take_trace();
    // Harvest is a take: a second drain is empty.
    assert_eq!(registry.take_trace().requests.len(), 0);

    assert_eq!(trace.dropped_requests, 0);
    assert_eq!(trace.requests.len(), n, "every request harvested exactly one track");
    let mut seen_ids: Vec<u64> = trace.requests.iter().map(|r| r.id).collect();
    seen_ids.sort_unstable();
    assert_eq!(seen_ids, (0..n as u64).collect::<Vec<_>>(), "ids are dense per service");

    let mut total_ctas = 0usize;
    for r in &trace.requests {
        assert_eq!(r.dropped, 0, "request ring overflowed");
        assert_eq!(r.lane, lanes[r.id as usize], "track landed in the wrong lane");
        assert!(!r.spans.is_empty());
        for span in &r.spans {
            assert!(
                SERVE_SPAN_KINDS.contains(&span.kind),
                "span kind {:?} is outside the serve vocabulary",
                span.kind
            );
            assert!(span.end_ns >= span.start_ns, "negative-duration span");
        }
        let queue_waits: Vec<_> =
            r.spans.iter().filter(|s| s.kind == SpanKind::QueueWait).collect();
        assert_eq!(queue_waits.len(), 1, "queue wait is one first-class phase per request");
        let qw = queue_waits[0];
        assert_eq!(u64::from(qw.arg2), r.id, "queue-wait span leaked across requests");
        assert_eq!(qw.arg as usize, r.lane);
        assert!(
            r.spans.iter().all(|s| s.start_ns >= qw.start_ns),
            "queue wait must open the track"
        );
        let ctas = r.spans.iter().filter(|s| s.kind == SpanKind::Cta).count();
        assert!(ctas >= 1 && ctas <= grid, "CTA spans per request bounded by the grid");
        total_ctas += ctas;
        assert!(
            r.spans.iter().any(|s| s.kind == SpanKind::Mac),
            "a completed request must have MAC work"
        );
    }
    assert_eq!(total_ctas, stats.ctas, "per-track CTA spans reconcile with the counter");
}
