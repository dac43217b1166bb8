//! The fault simulator's schedules, pinned bit for bit.
//!
//! Every other fault test asserts an inequality (a slow SM makes the
//! makespan longer, a lost peer blocks its owner). This one
//! fingerprints every field and span of both reports of
//! `simulate_with_faults`, plus its `deadlocked`, `lost_ctas`,
//! `unresolved_owners` and `redispatches`, over a grid of shapes ×
//! GPUs × strategies × precisions × plans, and compares them with
//! `fault_schedules.txt`: one line per case, in the order below.
//! A change to the event queue that moves any bit of any of them,
//! deadlocks and re-dispatches included, fails here.

use streamk_core::Decomposition;
use streamk_sim::{simulate, simulate_with_faults, FaultSimReport, GpuSpec, SimFaultPlan, SimReport};
use streamk_types::{GemmShape, Precision, TileShape};

const SHAPES: [(usize, usize, usize); 5] =
    [(128, 128, 4096), (896, 384, 1024), (1000, 700, 900), (384, 384, 128), (4096, 4096, 1024)];

/// FNV-1a over 64-bit words: stable across platforms and toolchains.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn usizes(&mut self, xs: &[usize]) {
        self.word(xs.len() as u64);
        xs.iter().for_each(|&x| self.word(x as u64));
    }

    fn report(&mut self, r: &SimReport) {
        self.word(r.precision as u64);
        self.word(r.sms as u64);
        for x in [r.peak_flops, r.makespan, r.compute_makespan, r.memory_time, r.useful_flops, r.traffic_bytes] {
            self.float(x);
        }
        self.float(r.mac_busy);
        self.float(r.total_wait);
        self.word(r.spans.len() as u64);
        for s in &r.spans {
            self.usizes(&[s.cta_id, s.sm, s.iters]);
            self.float(s.start);
            self.float(s.end);
            self.float(s.waited);
        }
    }

    fn fault_report(mut self, r: &FaultSimReport) -> u64 {
        self.report(&r.faulty);
        self.report(&r.baseline);
        self.word(u64::from(r.deadlocked));
        self.usizes(&r.lost_ctas);
        self.usizes(&r.unresolved_owners);
        self.word(r.redispatches as u64);
        self.0
    }
}

/// The seven plans, named, for a decomposition whose fault-free
/// makespan is `makespan`.
fn plans(d: &Decomposition, gpu: &GpuSpec, makespan: f64) -> Vec<(&'static str, SimFaultPlan)> {
    let g = d.grid_size();
    let first_owner = d.fixups().iter().find(|f| !f.peers.is_empty()).map_or(0, |f| f.owner);
    let every_sm_slow = (0..gpu.sms).fold(SimFaultPlan::none(), |plan, sm| plan.with_sm_slowdown(sm, 1.25));
    vec![
        ("none", SimFaultPlan::none()),
        ("sm1x2", SimFaultPlan::none().with_sm_slowdown(1, 2.0)),
        ("two-slow", SimFaultPlan::none().with_sm_slowdown(0, 1.5).with_sm_slowdown(2, 3.0)),
        ("mid-redispatch", SimFaultPlan::none().with_preemption(g / 2, 0.5, Some(makespan * 0.1))),
        ("last-lost", SimFaultPlan::none().with_preemption(g - 1, 0.5, None)),
        ("cta0-zero-delay+sm1", SimFaultPlan::none().with_preemption(0, 0.25, Some(0.0)).with_sm_slowdown(1, 1.5)),
        ("all-slow+owner", every_sm_slow.with_preemption(first_owner, 0.5, Some(makespan * 0.05))),
    ]
}

fn cases() -> Vec<String> {
    let tile = TileShape::new(128, 128, 32);
    let mut lines = Vec::new();
    for (m, n, k) in SHAPES {
        let shape = GemmShape::new(m, n, k);
        for gpu in [GpuSpec::a100(), GpuSpec::hypothetical_4sm()] {
            for d in [
                Decomposition::data_parallel(shape, tile),
                Decomposition::fixed_split(shape, tile, 4),
                Decomposition::stream_k(shape, tile, gpu.sms),
                Decomposition::dp_one_tile_stream_k(shape, tile, gpu.sms),
                Decomposition::two_tile_stream_k_dp(shape, tile, gpu.sms),
            ] {
                for precision in Precision::ALL {
                    let makespan = simulate(&d, &gpu, precision).makespan;
                    for (name, plan) in plans(&d, &gpu, makespan) {
                        let r = simulate_with_faults(&d, &gpu, precision, &plan);
                        lines.push(format!(
                            "{m}x{n}x{k} {}sm {:?} {precision:?} {name} {:016x}",
                            gpu.sms,
                            d.strategy(),
                            Fingerprint::new().fault_report(&r)
                        ));
                    }
                }
            }
        }
    }
    lines
}

#[test]
fn faulty_schedules_match_their_recorded_fingerprints() {
    let expected: Vec<&str> = include_str!("fault_schedules.txt").lines().collect();
    let actual = cases();
    assert_eq!(actual.len(), 700);
    assert_eq!(actual.len(), expected.len(), "case count");
    let moved: Vec<(&String, &&str)> = actual.iter().zip(&expected).filter(|(a, e)| a != e).collect();
    assert!(moved.is_empty(), "{} of {} schedules moved; first: {:?}", moved.len(), actual.len(), moved.first());
}
