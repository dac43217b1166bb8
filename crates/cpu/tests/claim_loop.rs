//! The worker loop, pinned span by span.
//!
//! Every entry's CTAs run through one claim loop: resume what is
//! parked, claim, run the unit, and once nothing is claimable finish
//! what is parked blocking. This suite makes one thread the only one
//! computing — the pool's helpers are held back
//! (`WorkerPool::inject_stragglers`), and a service's handles are
//! polled with `is_finished`, never awaited — and records what that
//! thread does: every span as `kind arg arg2`, in order, without
//! times, and what recovery did. It compares the record with
//! `claim_loop.txt`, so a change to the loop that moves one claim,
//! steal, park, resumption, wait or recovery fails here.
//!
//! A blocking wait's `arg2` counts the watchdog's backoff rounds, and a
//! timeout's cause carries how long the owner waited: both are timing,
//! not behaviour, and are written as `0` and `timeout`.

use std::time::Duration;
use streamk_core::{Decomposition, GroupedDecomposition, GroupedSpace, Strategy};
use streamk_cpu::trace::{SpanKind, LAUNCH_SKIPPED};
use streamk_cpu::{
    CpuExecutor, FaultKind, FaultPlan, GemmService, LaunchRequest, RecoveryCause, RecoveryEvent, ServeConfig,
    ServeFaultKind, Span, WorkerTrace,
};
use streamk_matrix::reference::gemm_naive;
use streamk_matrix::Matrix;
use streamk_types::{GemmShape, Layout, TileShape};

const WORKERS: usize = 3;
const WATCHDOG: Duration = Duration::from_millis(20);
/// Longer than either test's launches take: a helper that wakes while
/// a launch is open would enter it, and the checks below refuse that.
const HELD_BACK: Duration = Duration::from_secs(4);

const SHAPE: GemmShape = GemmShape { m: 48, n: 40, k: 40 };
const TILE: TileShape = TileShape { blk_m: 16, blk_n: 16, blk_k: 8 };
/// Split tiles (every Stream-K and hybrid grid here has seams) and
/// one grid without.
const STRATEGIES: [Strategy; 6] = [
    Strategy::DataParallel,
    Strategy::StreamK { grid: 2 },
    Strategy::StreamK { grid: 4 },
    Strategy::StreamK { grid: 7 },
    Strategy::DpOneTileStreamK { sms: 2 },
    Strategy::TwoTileStreamKDp { sms: 2 },
];
/// One tile of five iterations, then two tiles of three: over four
/// Stream-K CTAs, CTA 1 finishes the first instance's tile and crosses
/// into the second.
const GROUP: [GemmShape; 2] = [GemmShape { m: 16, n: 16, k: 40 }, GemmShape { m: 16, n: 32, k: 24 }];

fn operands(shape: GemmShape, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, seed);
    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, seed + 1);
    (a, b)
}

/// The fault-free plan, and one losing the first contributor and —
/// when there is another — poisoning the last.
fn plans(contributors: &[usize]) -> Vec<(&'static str, FaultPlan)> {
    let none = ("none", FaultPlan::none());
    match *contributors {
        [] => vec![none],
        [lost] => vec![none, ("lose", FaultPlan::single(lost, FaultKind::Lose))],
        [lost, .., poisoned] => {
            vec![
                none,
                ("lose+poison", FaultPlan::single(lost, FaultKind::Lose).with_fault(poisoned, FaultKind::Poison)),
            ]
        }
    }
}

fn contributors(fixups: &[streamk_core::TileFixup]) -> Vec<usize> {
    let mut peers: Vec<usize> = fixups.iter().flat_map(|f| f.peers.iter().copied()).collect();
    peers.sort_unstable();
    peers.dedup();
    peers
}

fn span_lines(spans: &[Span], out: &mut Vec<String>) {
    for span in spans {
        let arg2 = if span.kind == SpanKind::Wait { 0 } else { span.arg2 };
        out.push(format!("  {} {} {arg2}", span.kind.name(), span.arg));
    }
}

fn event_lines(events: &[RecoveryEvent], out: &mut Vec<String>) {
    for e in events {
        let cause = match e.cause {
            RecoveryCause::Timeout(_) => "timeout",
            RecoveryCause::Poisoned => "poisoned",
        };
        out.push(format!("  recovered peer {} tile {} {cause} {} iters", e.peer, e.tile_idx, e.recomputed_iters));
    }
}

/// Worker 0's spans; every helper must have skipped the launch.
fn worker0(workers: &[WorkerTrace], case: &str) -> Vec<Span> {
    for (wid, helper) in workers.iter().enumerate().skip(1) {
        let skipped = helper.spans.len() == 1
            && helper.spans[0].kind == SpanKind::Launch
            && helper.spans[0].arg == LAUNCH_SKIPPED;
        assert!(skipped, "{case}: held-back helper {wid} entered the launch: {:?}", helper.spans);
    }
    workers[0].spans.clone()
}

/// Direct launches on one computing thread: a single GEMM under every
/// strategy and a group whose CTA crosses an instance boundary, each
/// fault-free and with a lost and a poisoned peer.
fn direct_launches() -> Vec<String> {
    let e = CpuExecutor::with_threads(WORKERS).with_watchdog(WATCHDOG).with_trace(true);
    let mut held = vec![HELD_BACK; WORKERS];
    held[0] = Duration::ZERO;
    e.worker_pool().inject_stragglers(held);
    let mut out = Vec::new();
    let (a, b) = operands(SHAPE, 11);
    let reference = gemm_naive::<f64, f64>(&a, &b);
    for strategy in STRATEGIES {
        let decomp = Decomposition::from_strategy(SHAPE, TILE, strategy);
        assert!(decomp.fixups().iter().all(|f| f.covering_ctas() <= WORKERS), "{strategy} needs more workers");
        let mut calm = None;
        for (name, plan) in plans(&contributors(&decomp.fixups())) {
            let case = format!("gemm {strategy} {name}");
            let (c, report) = e.gemm_with_faults::<f64, f64>(&a, &b, &decomp, &plan).expect("recovery masks faults");
            c.assert_close(&reference, 1e-11);
            assert!(calm.get_or_insert_with(|| c.clone()) == &c, "{case}: recovery changed C");
            let stats = e.last_stats();
            out.push(format!("{case}: steals {} deferrals {}", stats.steals, stats.deferrals));
            span_lines(&worker0(&e.last_trace().expect("traced").workers, &case), &mut out);
            event_lines(&report.events, &mut out);
        }
    }
    let (ga, gb): (Vec<_>, Vec<_>) = GROUP.iter().zip(20..).map(|(&s, seed)| operands(s, seed)).unzip();
    let decomp = GroupedDecomposition::stream_k(GroupedSpace::new(&GROUP, TILE), 4);
    let mut calm = None;
    for (name, plan) in plans(&contributors(&decomp.fixups())) {
        let case = format!("grouped stream-k(g=4) {name}");
        let (c, report) =
            e.gemm_grouped_with_faults::<f64, f64>(&ga, &gb, &decomp, &plan).expect("recovery masks faults");
        assert!(calm.get_or_insert_with(|| c.clone()) == &c, "{case}: recovery changed C");
        let stats = e.last_stats();
        out.push(format!("{case}: steals {} deferrals {}", stats.steals, stats.deferrals));
        span_lines(&worker0(&e.last_trace().expect("traced").workers, &case), &mut out);
        event_lines(&report.events, &mut out);
    }
    e.worker_pool().inject_stragglers(Vec::new());
    out
}

/// Service requests on one computing thread, the coordinator: each
/// strategy fault-free and with a lost and a poisoned peer, then one
/// request that panics in a CTA and one cancelled mid-flight. They are
/// submitted one at a time, the next once the last has finished.
fn service_requests() -> Vec<String> {
    let e = CpuExecutor::with_threads(WORKERS).with_watchdog(WATCHDOG);
    let (a, b) = operands(SHAPE, 11);
    let reference = gemm_naive::<f64, f64>(&a, &b);
    let mut held = vec![HELD_BACK; WORKERS];
    held[0] = Duration::ZERO;
    e.worker_pool().inject_stragglers(held);
    let service = GemmService::<f64, f64>::start(&e, ServeConfig::default().with_trace(true));
    let mut cases = Vec::new();
    let mut submit = |case: String, request: LaunchRequest<f64>| {
        let handle = service.submit(request).expect("admitted");
        while !handle.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        cases.push((case, handle));
    };
    for strategy in STRATEGIES {
        let decomp = Decomposition::from_strategy(SHAPE, TILE, strategy);
        for (name, plan) in plans(&contributors(&decomp.fixups())) {
            let request = LaunchRequest::new(a.clone(), b.clone(), decomp.clone()).with_cta_faults(plan);
            submit(format!("request {strategy} {name}"), request);
        }
    }
    let decomp = Decomposition::from_strategy(SHAPE, TILE, Strategy::StreamK { grid: 4 });
    for (name, fault) in [("panic", ServeFaultKind::PanicCta), ("cancel", ServeFaultKind::Cancel)] {
        let request = LaunchRequest::new(a.clone(), b.clone(), decomp.clone()).with_serve_fault(fault);
        submit(format!("request stream-k(g=4) {name}"), request);
    }
    let telemetry = service.telemetry();
    let stats = service.shutdown();
    e.worker_pool().inject_stragglers(Vec::new());
    assert_eq!((stats.guest_ctas, stats.pool_poisonings), (0, 0), "{stats:?}");
    let trace = telemetry.take_trace();
    let mut out = vec![format!(
        "service: ctas {} steals {} deferrals {} recoveries {}",
        stats.ctas, stats.steals, stats.deferrals, stats.recoveries
    )];
    for (case, handle) in cases {
        let id = handle.id();
        let outcome = match handle.wait() {
            Ok((c, s)) => {
                c.assert_close(&reference, 1e-11);
                format!("ok ctas {} deferrals {} recoveries {}", s.ctas, s.deferrals, s.recoveries)
            }
            Err(err) => format!("{err}"),
        };
        out.push(format!("{case}: {outcome}"));
        let track = trace.requests.iter().find(|r| r.id == id).expect("every request has a track");
        assert_eq!(track.dropped, 0);
        span_lines(&track.spans, &mut out);
    }
    out
}

fn check(actual: &[String], expected: &str) {
    let expected: Vec<&str> = expected.lines().collect();
    let moved = actual.iter().zip(&expected).position(|(a, e)| a != e);
    if let Some(line) = moved {
        panic!("line {} moved: got {:?}, recorded {:?}", line + 1, actual[line], expected[line]);
    }
    assert_eq!(actual.len(), expected.len(), "line count");
}

const FIXTURE: &str = include_str!("claim_loop.txt");

fn section<'a>(fixture: &'a str, name: &str) -> &'a str {
    let start = fixture.find(&format!("## {name}\n")).expect("a section per test") + name.len() + 4;
    let end = fixture[start..].find("## ").map_or(fixture.len(), |i| start + i);
    &fixture[start..end]
}

#[test]
fn a_direct_launch_on_one_thread_claims_parks_and_recovers_as_recorded() {
    check(&direct_launches(), section(FIXTURE, "direct"));
}

#[test]
fn a_service_coordinator_alone_runs_requests_as_recorded() {
    check(&service_requests(), section(FIXTURE, "service"));
}
