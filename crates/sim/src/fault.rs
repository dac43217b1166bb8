//! Fault injection for the timing simulator.
//!
//! Where `streamk-cpu`'s fault plan corrupts the fixup *protocol*
//! (and proves recovery correct), this module degrades the
//! *schedule* and quantifies what the paper's timing model predicts
//! faults cost. It has no event queue of its own: a [`SimFaultPlan`]
//! is a perturbation of the engine's one queue (`engine::run_des`),
//! the queue every fault-free report comes from too.
//!
//! - **per-SM straggler slowdown** — a slow SM multiplies every cost
//!   term of the CTAs it hosts, modeling a thermally-throttled or
//!   contended processor. Stream-K's fixup dependencies then amplify
//!   the damage: an owner whose peer landed on the slow SM inherits
//!   the delay through the `Wait`.
//! - **CTA preemption / re-dispatch** — a CTA is evicted after some
//!   fraction of its MAC work (the partial progress is wasted, as on
//!   a GPU without CTA checkpointing) and re-enters the dispatch
//!   queue after a delay, or never returns ([`Preemption`] with
//!   `redispatch_after: None`): the lost-CTA case, whose blocked
//!   owners surface as [`FaultSimReport::deadlocked`] instead of a
//!   panic.
//!
//! [`FaultSimReport`] pairs the degraded schedule with its fault-free
//! baseline so makespan degradation and fixup-stall amplification are
//! one method call away.

use crate::cost::{CtaCosts, DEFAULT_MAC_EFFICIENCY};
use crate::engine::{dispatch, finish_report, Unfinished, Volume};
use crate::gpu::GpuSpec;
use crate::report::SimReport;
use crate::simulate;
use streamk_core::Decomposition;
use streamk_types::Precision;

/// One CTA preemption event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Preemption {
    /// Fraction of the CTA's MAC work completed when it is evicted
    /// (clamped to `[0, 1]`); that partial progress is wasted.
    pub progress: f64,
    /// Seconds after eviction until the CTA re-enters the dispatch
    /// queue and restarts from scratch; `None` means it never
    /// returns — the lost-CTA case.
    pub redispatch_after: Option<f64>,
}

/// Schedule-level faults to inject into one simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimFaultPlan {
    slowdowns: Vec<(usize, f64)>,
    preemptions: Vec<(usize, Preemption)>,
}

impl SimFaultPlan {
    /// The empty plan: a fault-free schedule.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Marks SM `sm` as running `factor`× slower than nominal
    /// (`factor = 2.0` → everything on that SM takes twice as long).
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and ≥ 1.
    #[must_use]
    pub fn with_sm_slowdown(mut self, sm: usize, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 1.0, "slowdown factor must be >= 1, got {factor}");
        self.slowdowns.retain(|&(s, _)| s != sm);
        self.slowdowns.push((sm, factor));
        self
    }

    /// Preempts CTA `cta` (first dispatch only) after `progress` of
    /// its MAC work, re-dispatching it `redispatch_after` seconds
    /// later — or never, if `None`.
    ///
    /// # Panics
    ///
    /// Panics unless `progress` is finite (it is then clamped to
    /// `[0, 1]`) and a re-dispatch delay is finite and ≥ 0.
    #[must_use]
    pub fn with_preemption(mut self, cta: usize, progress: f64, redispatch_after: Option<f64>) -> Self {
        assert!(progress.is_finite(), "preemption progress must be finite, got {progress}");
        assert!(
            redispatch_after.is_none_or(|delay| delay.is_finite() && delay >= 0.0),
            "re-dispatch delay must be finite and >= 0, got {redispatch_after:?}"
        );
        self.preemptions.retain(|&(c, _)| c != cta);
        self.preemptions.push((cta, Preemption { progress: progress.clamp(0.0, 1.0), redispatch_after }));
        self
    }

    /// `true` when the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slowdowns.is_empty() && self.preemptions.is_empty()
    }

    /// The slowdown factor for `sm` (1.0 when healthy).
    #[must_use]
    pub fn sm_factor(&self, sm: usize) -> f64 {
        self.slowdowns.iter().find(|&&(s, _)| s == sm).map_or(1.0, |&(_, f)| f)
    }

    /// The preemption planned for `cta`, if any.
    #[must_use]
    pub fn preemption_for(&self, cta: usize) -> Option<Preemption> {
        self.preemptions.iter().find(|&&(c, _)| c == cta).map(|&(_, p)| p)
    }
}

/// The outcome of a fault-injected simulation, paired with its
/// fault-free baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSimReport {
    /// The degraded schedule.
    pub faulty: SimReport,
    /// The same decomposition simulated fault-free.
    pub baseline: SimReport,
    /// `true` when at least one tile owner blocked forever on a peer
    /// that never signaled (a lost contributor). The GPU analogue is
    /// a hung kernel; the simulator reports it instead of panicking.
    pub deadlocked: bool,
    /// CTAs that were preempted and never re-dispatched.
    pub lost_ctas: Vec<usize>,
    /// Owners still blocked when the schedule drained.
    pub unresolved_owners: Vec<usize>,
    /// Number of re-dispatch events that occurred.
    pub redispatches: usize,
}

impl FaultSimReport {
    /// Makespan degradation: `faulty / baseline` (≥ 1 for any real
    /// fault; exactly 1 for an empty plan).
    #[must_use]
    pub fn makespan_amplification(&self) -> f64 {
        self.faulty.makespan / self.baseline.makespan
    }

    /// Additional fixup-stall time the faults induced, seconds.
    #[must_use]
    pub fn fixup_stall_delta(&self) -> f64 {
        self.faulty.total_wait - self.baseline.total_wait
    }

    /// Fixup-stall amplification: `faulty.total_wait /
    /// baseline.total_wait`. When the baseline had no stalls at all,
    /// returns 1.0 if the faulty run also has none and `f64::INFINITY`
    /// otherwise (any stall is infinitely worse than no stall).
    #[must_use]
    pub fn fixup_stall_amplification(&self) -> f64 {
        if self.baseline.total_wait > 0.0 {
            self.faulty.total_wait / self.baseline.total_wait
        } else if self.faulty.total_wait > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    }

    /// `true` when every CTA completed and no owner is blocked.
    #[must_use]
    pub fn survived(&self) -> bool {
        !self.deadlocked && self.lost_ctas.is_empty()
    }
}

/// Simulates `decomp` on `gpu` under `plan`'s schedule faults and
/// pairs the result with the fault-free baseline.
///
/// Unlike [`simulate`], a dependency that can never resolve (an owner
/// waiting on a lost peer) is *reported* — the schedule drains as far
/// as it can and [`FaultSimReport::deadlocked`] is set — rather than
/// panicking, because reaching that state is the point of injecting
/// the fault.
#[must_use]
pub fn simulate_with_faults(
    decomp: &Decomposition,
    gpu: &GpuSpec,
    precision: Precision,
    plan: &SimFaultPlan,
) -> FaultSimReport {
    let baseline = simulate(decomp, gpu, precision);
    let space = decomp.space();
    let costs = CtaCosts::derive(gpu, precision, space.tile(), DEFAULT_MAC_EFFICIENCY);
    let (des, unfinished, partial_records) =
        dispatch(decomp.ctas(), space.iters_per_tile(), || decomp.fixups(), gpu, &costs, plan);
    let Unfinished { lost_ctas, unresolved_owners, redispatches } = unfinished;
    FaultSimReport {
        faulty: finish_report(des, partial_records, &Volume::of(space, precision, 1), gpu),
        baseline,
        deadlocked: !unresolved_owners.is_empty(),
        lost_ctas,
        unresolved_owners,
        redispatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_types::{GemmShape, TileShape};

    fn split_decomp() -> Decomposition {
        // Deep fixed-split: plenty of fixup traffic for faults to
        // amplify.
        Decomposition::fixed_split(GemmShape::new(128, 128, 4096), TileShape::new(128, 128, 32), 16)
    }

    #[test]
    fn empty_plan_reproduces_the_baseline() {
        let d = split_decomp();
        let r = simulate_with_faults(&d, &GpuSpec::a100(), Precision::Fp16To32, &SimFaultPlan::none());
        assert!(r.survived());
        assert!(!r.deadlocked);
        assert_eq!(r.redispatches, 0);
        assert_eq!(r.faulty, r.baseline);
        assert!((r.makespan_amplification() - 1.0).abs() < 1e-12);
        assert!((r.fixup_stall_amplification() - 1.0).abs() < 1e-12 || r.baseline.total_wait > 0.0);
        assert_eq!(r.fixup_stall_delta(), 0.0);
    }

    #[test]
    fn slow_sm_degrades_makespan_and_amplifies_stalls() {
        let d = split_decomp();
        let gpu = GpuSpec::a100();
        // CTA i dispatches onto SM i here; slowing SM 1 makes peer
        // CTA 1 a straggler the tile owner (CTA 0) must wait out.
        let plan = SimFaultPlan::none().with_sm_slowdown(1, 4.0);
        let r = simulate_with_faults(&d, &gpu, Precision::Fp16To32, &plan);
        assert!(r.survived());
        assert!(r.makespan_amplification() > 1.0, "amplification {}", r.makespan_amplification());
        // The owner waits on peers hosted by the slow SM: stalls grow.
        assert!(r.fixup_stall_delta() > 0.0, "delta {}", r.fixup_stall_delta());
        assert!(r.fixup_stall_amplification() > 1.0);
    }

    #[test]
    fn straggler_slowdown_is_interrogable() {
        let plan = SimFaultPlan::none().with_sm_slowdown(3, 2.5).with_sm_slowdown(3, 3.0);
        assert_eq!(plan.sm_factor(3), 3.0);
        assert_eq!(plan.sm_factor(0), 1.0);
        assert!(!plan.is_empty());
    }

    #[test]
    #[should_panic(expected = "slowdown factor")]
    fn sub_unit_slowdown_is_rejected() {
        let _ = SimFaultPlan::none().with_sm_slowdown(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "preemption progress")]
    fn nan_progress_is_rejected() {
        let _ = SimFaultPlan::none().with_preemption(0, f64::NAN, Some(0.0));
    }

    #[test]
    #[should_panic(expected = "re-dispatch delay")]
    fn nan_delay_is_rejected() {
        let _ = SimFaultPlan::none().with_preemption(0, 0.5, Some(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "re-dispatch delay")]
    fn negative_delay_is_rejected() {
        let _ = SimFaultPlan::none().with_preemption(0, 0.5, Some(-1.0));
    }

    #[test]
    #[should_panic(expected = "re-dispatch delay")]
    fn infinite_delay_is_rejected() {
        let _ = SimFaultPlan::none().with_preemption(0, 0.5, Some(f64::INFINITY));
    }

    #[test]
    fn preempted_cta_redispatches_and_completes() {
        let d = split_decomp();
        let gpu = GpuSpec::a100();
        // Preempt a contributor halfway, bring it back shortly after.
        let victim = d.fixups()[0].peers[0];
        let base = simulate(&d, &gpu, Precision::Fp16To32);
        let delay = base.makespan * 0.1;
        let plan = SimFaultPlan::none().with_preemption(victim, 0.5, Some(delay));
        let r = simulate_with_faults(&d, &gpu, Precision::Fp16To32, &plan);
        assert!(r.survived());
        assert_eq!(r.redispatches, 1);
        // Two spans for the victim: the wasted attempt and the rerun.
        let victim_spans: Vec<_> = r.faulty.spans.iter().filter(|s| s.cta_id == victim).collect();
        assert_eq!(victim_spans.len(), 2);
        assert!(r.makespan_amplification() > 1.0);
    }

    /// Evicted CTAs rejoin the queue behind every undispatched one, in
    /// arrival order, ties in eviction order: on the overhead-free GPU
    /// CTAs 0 and 1 are both evicted at t = 0 and ready at once.
    #[test]
    fn redispatches_follow_the_grid_in_eviction_order() {
        let d = Decomposition::data_parallel(GemmShape::new(384, 384, 128), TileShape::new(128, 128, 128));
        let plan = SimFaultPlan::none().with_preemption(1, 0.0, Some(0.0)).with_preemption(0, 0.0, Some(0.0));
        let r = simulate_with_faults(&d, &GpuSpec::hypothetical_4sm(), Precision::Fp64, &plan);
        assert!(r.survived());
        let order: Vec<usize> = r.faulty.spans.iter().map(|s| s.cta_id).collect();
        assert_eq!(order, [0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1]);
    }

    #[test]
    fn lost_contributor_deadlocks_its_owner_without_panicking() {
        let d = split_decomp();
        let victim = d.fixups()[0].peers[0];
        let owner = d.fixups()[0].owner;
        let plan = SimFaultPlan::none().with_preemption(victim, 0.3, None);
        let r = simulate_with_faults(&d, &GpuSpec::a100(), Precision::Fp16To32, &plan);
        assert!(r.deadlocked);
        assert!(!r.survived());
        assert_eq!(r.lost_ctas, vec![victim]);
        assert!(r.unresolved_owners.contains(&owner), "{:?}", r.unresolved_owners);
    }

    #[test]
    fn lost_data_parallel_cta_loses_a_tile_but_nothing_blocks() {
        let d = Decomposition::data_parallel(GemmShape::new(384, 384, 128), TileShape::new(128, 128, 128));
        let plan = SimFaultPlan::none().with_preemption(2, 0.9, None);
        let r = simulate_with_faults(&d, &GpuSpec::hypothetical_4sm(), Precision::Fp64, &plan);
        // No fixup structure: nobody waits on the lost CTA, so the
        // schedule drains — but the run did not survive intact.
        assert!(!r.deadlocked);
        assert_eq!(r.lost_ctas, vec![2]);
        assert!(!r.survived());
    }

    #[test]
    fn faulty_spans_never_overlap_on_an_sm() {
        let d = split_decomp();
        let victim = d.fixups()[0].peers[1];
        let plan = SimFaultPlan::none().with_sm_slowdown(1, 2.0).with_preemption(victim, 0.4, Some(1e-6));
        let r = simulate_with_faults(&d, &GpuSpec::a100(), Precision::Fp16To32, &plan);
        assert!(r.survived());
        let mut per_sm: Vec<Vec<(f64, f64)>> = vec![Vec::new(); r.faulty.sms];
        for s in &r.faulty.spans {
            assert!(s.end >= s.start);
            per_sm[s.sm].push((s.start, s.end));
        }
        for sm_spans in &mut per_sm {
            sm_spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for pair in sm_spans.windows(2) {
                assert!(pair[1].0 >= pair[0].1 - 1e-15, "overlap on an SM: {pair:?}");
            }
        }
    }
}
