//! The event-driven execution engine: `run_des` is the simulator's
//! one event queue. Every report comes out of it: single, batched and
//! grouped grids, and the fault simulator's perturbed schedules.
//!
//! Dispatch model: CTAs launch in id order onto the
//! earliest-available SM, one resident CTA per SM — the GPU work
//! distributor's wave behaviour. Fixup dependencies follow
//! Algorithm 5:
//!
//! - a CTA whose *first* segment does not start its tile is a
//!   **contributor**: after its MAC iterations it stores a partial
//!   record (`b`) and signals; its signal time never depends on any
//!   wait, which is what makes the schedule deadlock-free;
//! - a CTA whose *last* segment starts but does not end its tile is
//!   the tile's **owner**: it must wait for each peer's signal, then
//!   pays `d` per peer for the serial accumulate, then stores the
//!   tile.
//!
//! A waiting owner occupies its SM (GPUs cannot preempt a resident
//! CTA), so fixup stalls genuinely consume processor time — the effect
//! the two-tile hybrid exists to hide (§5.2).
//!
//! The queue takes a [`SimFaultPlan`] as a perturbation. A slow SM
//! multiplies every cost term of the CTAs it hosts. A preempted CTA
//! frees its SM part-way through its first dispatch and is queued
//! again after its delay, behind every CTA not yet dispatched
//! (re-dispatches in arrival order), or never. Under the empty plan
//! every factor is exactly 1.0 and only CTAs in id order are queued,
//! so a fault-free report keeps its bits. When every SM holds an owner
//! whose peer never signals, the queue stops and returns what it left
//! `Unfinished`; the `simulate*` entries assert that nothing is.
//!
//! A grid with no seam — every CTA exactly one whole tile, as in every
//! data-parallel grid — skips the queue under the empty plan and is
//! replayed by waves (`UniformGrid`). Its CTAs store no partial and
//! wait for none, so each takes `a + c·iters`, the same for all. The
//! queue starts with every SM free at 0 and breaks ties by SM id, so
//! CTAs `0..sms` land on SMs `0..sms` and end together, and the next
//! `sms` pop in SM order again: CTA `i` runs on SM `i mod sms` in wave
//! `⌊i / sms⌋`, which starts where the previous wave ended. The replay
//! computes each end with the queue's own `(start + a) + c·iters` and
//! sums `mac_busy` in CTA order, so its report is `==` to the queue's,
//! spans included — the paper's tile-wave term `⌈t / p⌉` (Figure 1),
//! walked in `⌈t / p⌉` steps instead of `t` heap operations. Every
//! grid with a seam (Stream-K, fixed-split, the hybrids), every ragged
//! group and every perturbed grid goes through the queue.

use crate::cost::{CtaCosts, DEFAULT_MAC_EFFICIENCY};
use crate::fault::SimFaultPlan;
use crate::gpu::GpuSpec;
use crate::report::{CtaSpan, SimReport};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use streamk_core::{CtaWork, Decomposition, IterSpace, TileFixup};
use streamk_types::{waves, GemmShape, Precision, TileShape};

/// Simulates `decomp` on `gpu` at `precision`, with the blocking
/// factor running at the default 99%-of-peak MAC efficiency.
///
/// ```
/// use streamk_core::Decomposition;
/// use streamk_sim::{simulate, GpuSpec};
/// use streamk_types::{GemmShape, Precision, TileShape};
///
/// // Figure 1a: nine large tiles on four SMs cap at 75%.
/// let d = Decomposition::data_parallel(GemmShape::new(384, 384, 128), TileShape::new(128, 128, 128));
/// let r = simulate(&d, &GpuSpec::hypothetical_4sm(), Precision::Fp64);
/// assert!((r.quantization_efficiency() - 0.75).abs() < 1e-9);
/// ```
///
/// # Panics
///
/// Panics if the decomposition is structurally invalid (debug builds
/// validate it) or if its dependency graph deadlocks — which no
/// decomposition produced by `streamk-core` can.
#[must_use]
pub fn simulate(decomp: &Decomposition, gpu: &GpuSpec, precision: Precision) -> SimReport {
    simulate_with_efficiency(decomp, gpu, precision, DEFAULT_MAC_EFFICIENCY)
}

/// [`simulate`] with an explicit MAC efficiency for the blocking
/// factor (used by the ensemble baselines, whose smaller tiles sustain
/// a lower fraction of peak).
#[must_use]
pub fn simulate_with_efficiency(
    decomp: &Decomposition,
    gpu: &GpuSpec,
    precision: Precision,
    mac_efficiency: f64,
) -> SimReport {
    debug_assert!(decomp.validate().is_ok(), "invalid decomposition: {:?}", decomp.validate());
    let space = decomp.space();
    let costs = CtaCosts::derive(gpu, precision, space.tile(), mac_efficiency);
    let none = SimFaultPlan::none();
    let (des, unfinished, partial_records) =
        dispatch(decomp.ctas(), space.iters_per_tile(), || decomp.fixups(), gpu, &costs, &none);
    unfinished.assert_none();
    finish_report(des, partial_records, &Volume::of(space, precision, 1), gpu)
}

/// The makespan [`simulate_with_efficiency`] reports for
/// `Decomposition::data_parallel(shape, tile)`, bit for bit, without
/// building the decomposition or its spans: the wave replay's last
/// wave under the memory roofline. What the data-parallel oracle ranks
/// its ensemble by.
#[must_use]
pub fn data_parallel_makespan(
    shape: GemmShape,
    tile: TileShape,
    gpu: &GpuSpec,
    precision: Precision,
    mac_efficiency: f64,
) -> f64 {
    let space = IterSpace::new(shape, tile);
    let costs = CtaCosts::derive(gpu, precision, tile, mac_efficiency);
    let grid = UniformGrid { ctas: space.tiles(), iters: space.iters_per_tile() };
    Volume::of(&space, precision, 1).roofline(grid.compute_makespan(gpu.sms, &costs), 0, gpu).makespan
}

/// Dispatches a grid of `ctas` under `plan`: by waves when the plan is
/// empty and the grid is a [`UniformGrid`], through [`run_des`]
/// otherwise. `fixups` is only called in the second case. Returns the
/// outcome, what it left unfinished and the number of partial records
/// the grid stores.
pub(crate) fn dispatch(
    ctas: &[CtaWork],
    iters_per_tile: usize,
    fixups: impl FnOnce() -> Vec<TileFixup>,
    gpu: &GpuSpec,
    costs: &CtaCosts,
    plan: &SimFaultPlan,
) -> (DesOutcome, Unfinished, usize) {
    if let Some(uniform) = UniformGrid::of(ctas, iters_per_tile).filter(|_| plan.is_empty()) {
        return (uniform.replay(gpu.sms, costs), Unfinished::default(), 0);
    }
    let grid = GridDesc::from_parts(ctas, iters_per_tile, fixups());
    let (des, unfinished) = run_des(&grid, gpu, costs, plan);
    (des, unfinished, grid.partial_records)
}

/// A grid with no seam: `ctas` CTAs of exactly one whole tile each,
/// `iters` MAC iterations apiece. None stores a partial, none waits,
/// and all take the same time, so the event queue dispatches it in
/// waves (see the module doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct UniformGrid {
    ctas: usize,
    iters: usize,
}

impl UniformGrid {
    /// `Some` when every CTA of `ctas` covers exactly one whole tile
    /// of an `iters_per_tile`-iteration space (an empty CTA does not).
    /// Looks at the CTA list alone and allocates nothing.
    fn of(ctas: &[CtaWork], iters_per_tile: usize) -> Option<Self> {
        let whole_tile = |cta: &CtaWork| cta.len() == iters_per_tile && cta.iter_begin.is_multiple_of(iters_per_tile);
        (iters_per_tile > 0 && ctas.iter().all(whole_tile)).then_some(Self { ctas: ctas.len(), iters: iters_per_tile })
    }

    /// The waves the event queue dispatches on `sms` SMs: each wave's
    /// CTA ids, start and end. Wave `w` holds CTAs `w·sms ..` on SMs
    /// `0 ..` and ends at `(start + a) + c·iters`, [`run_des`]'s own
    /// arithmetic; the next wave starts there.
    fn waves(self, sms: usize, costs: &CtaCosts) -> impl Iterator<Item = (Range<usize>, f64, f64)> {
        let CtaCosts { a, c, .. } = *costs;
        let mut start = 0.0f64;
        (0..waves(self.ctas, sms)).map(move |w| {
            let end = start + a + c * self.iters as f64;
            let wave = (w * sms..((w + 1) * sms).min(self.ctas), start, end);
            start = end;
            wave
        })
    }

    /// The end of the last wave (0 for an empty grid).
    fn compute_makespan(self, sms: usize, costs: &CtaCosts) -> f64 {
        self.waves(sms, costs).last().map_or(0.0, |(_, _, end)| end)
    }

    /// What [`run_des`] returns for this grid under the empty plan,
    /// `==` to the last bit: CTA `i` on SM `i mod sms`, `mac_busy`
    /// summed in CTA order, no waits.
    fn replay(self, sms: usize, costs: &CtaCosts) -> DesOutcome {
        let mut spans = Vec::with_capacity(self.ctas);
        let mut mac_busy = 0.0f64;
        for (ctas, start, end) in self.waves(sms, costs) {
            for cta_id in ctas {
                mac_busy += costs.c * self.iters as f64;
                spans.push(CtaSpan { cta_id, sm: cta_id % sms, start, end, iters: self.iters, waited: 0.0 });
            }
        }
        let compute_makespan = spans.last().map_or(0.0, |s| s.end);
        DesOutcome { spans, compute_makespan, mac_busy, total_wait: 0.0 }
    }
}

/// A simulator-facing description of a grid: per-CTA iteration
/// ranges plus the derived fixup structure. Built from single-GEMM,
/// batched and grouped decompositions alike.
pub(crate) struct GridDesc {
    pub(crate) facts: Vec<CtaFacts>,
    pub(crate) owner_peers: Vec<Vec<usize>>,
    pub(crate) partial_records: usize,
}

/// Per-CTA static facts the DES consumes (all zero for an empty CTA).
#[derive(Default)]
pub(crate) struct CtaFacts {
    pub(crate) iters: usize,
    /// First segment stores a partial (it does not start its tile).
    pub(crate) contributes: bool,
    /// Length of that first segment.
    pub(crate) first_seg_iters: usize,
}

impl GridDesc {
    /// The grid of `facts`, one per CTA in id order, whose tiles are
    /// consolidated by `fixups`.
    pub(crate) fn new(facts: Vec<CtaFacts>, fixups: Vec<TileFixup>) -> Self {
        let mut owner_peers: Vec<Vec<usize>> = vec![Vec::new(); facts.len()];
        let mut partial_records = 0usize;
        for fixup in fixups {
            partial_records += fixup.peers.len();
            if !fixup.peers.is_empty() {
                owner_peers[fixup.owner] = fixup.peers;
            }
        }
        Self { facts, owner_peers, partial_records }
    }

    /// The grid of a single or batched decomposition, whose tiles all
    /// take `iters_per_tile` iterations.
    pub(crate) fn from_parts(ctas: &[CtaWork], iters_per_tile: usize, fixups: Vec<TileFixup>) -> Self {
        let facts = ctas
            .iter()
            .map(|cta| {
                if cta.is_empty() {
                    return CtaFacts::default();
                }
                let tile_first = (cta.iter_begin / iters_per_tile) * iters_per_tile;
                let first_seg_end = cta.iter_end.min(tile_first + iters_per_tile);
                CtaFacts {
                    iters: cta.len(),
                    contributes: cta.iter_begin != tile_first,
                    first_seg_iters: first_seg_end - cta.iter_begin,
                }
            })
            .collect();
        Self::new(facts, fixups)
    }
}

/// The raw outcome of the event-driven dispatch.
#[derive(Debug, PartialEq)]
pub(crate) struct DesOutcome {
    pub(crate) spans: Vec<CtaSpan>,
    pub(crate) compute_makespan: f64,
    pub(crate) mac_busy: f64,
    pub(crate) total_wait: f64,
}

/// What a perturbed schedule did not finish: CTAs evicted for good,
/// owners still blocked when the queue drained (both sorted), and how
/// many evicted CTAs were re-dispatched. All empty under the empty
/// plan unless the grid deadlocks.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Unfinished {
    pub(crate) lost_ctas: Vec<usize>,
    pub(crate) unresolved_owners: Vec<usize>,
    pub(crate) redispatches: usize,
}

impl Unfinished {
    /// The fault-free contract of every `simulate*`.
    ///
    /// # Panics
    ///
    /// Panics unless every CTA ran once and every owner finished.
    pub(crate) fn assert_none(&self) {
        assert!(*self == Self::default(), "simulation deadlocked: {self:?}");
    }
}

/// Runs the event-driven dispatch of `grid` on `gpu` at the given
/// per-CTA costs, perturbed by `plan` (see the module doc). When every
/// SM holds a blocked owner nothing can dispatch again: the queue
/// stops there and reports the owners as unfinished.
pub(crate) fn run_des(grid: &GridDesc, gpu: &GpuSpec, costs: &CtaCosts, plan: &SimFaultPlan) -> (DesOutcome, Unfinished) {
    let g = grid.facts.len();
    // Min-heap of (free_time, sm). Non-negative f64 orders correctly
    // through its bit pattern.
    let key = |t: f64, sm: usize| Reverse((t.to_bits(), sm));
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..gpu.sms).map(|sm| Reverse((0f64.to_bits(), sm))).collect();

    // CTAs `next..g` have not dispatched yet. Evicted CTAs coming back
    // wait in `arrivals` as (ready time, cta), in arrival order: sorted
    // by ready time, ties in eviction order.
    let mut next = 0usize;
    let mut arrivals: Vec<(f64, usize)> = Vec::new();

    let mut signal_time: Vec<Option<f64>> = vec![None; g];
    let mut spans: Vec<CtaSpan> = Vec::with_capacity(g);
    // Owners blocked on unresolved peer signals: (cta, sm, time after
    // its own MACs, span index).
    let mut blocked: Vec<(usize, usize, f64, usize)> = Vec::new();
    let mut mac_busy = 0.0f64;
    let mut total_wait = 0.0f64;
    let mut unfinished = Unfinished::default();

    let finish_owner = |t_ready: f64, d: f64, peers: &[usize], signals: &[Option<f64>]| -> (f64, f64) {
        // Serial accumulation in peer order: each load can begin only
        // after that peer has signaled.
        let mut t = t_ready;
        let mut waited = 0.0;
        for &p in peers {
            let sig = signals[p].expect("peer signal resolved");
            if sig > t {
                waited += sig - t;
                t = sig;
            }
            t += d;
        }
        (t, waited)
    };

    while next < g || !arrivals.is_empty() {
        let Some(Reverse((bits, sm))) = heap.pop() else {
            break; // every SM holds a blocked owner
        };
        let t_free = f64::from_bits(bits);
        // The undispatched CTAs in id order first, then the first
        // arrival: at once if it is due, else when it is.
        let (start, cta_id, first_dispatch) = if next < g {
            next += 1;
            (t_free, next - 1, true)
        } else {
            let (ready, cta) = arrivals.remove(0);
            (ready.max(t_free), cta, false)
        };
        let f = &grid.facts[cta_id];
        let slow = plan.sm_factor(sm);

        if let Some(p) = plan.preemption_for(cta_id).filter(|_| first_dispatch) {
            // Evicted mid-MAC-loop: the SM frees, the partial progress
            // is discarded (no checkpoint), nothing signals.
            let wasted_iters = (f.iters as f64 * p.progress) as usize;
            let end = start + slow * (costs.a + costs.c * f.iters as f64 * p.progress);
            spans.push(CtaSpan { cta_id, sm, start, end, iters: wasted_iters, waited: 0.0 });
            heap.push(key(end, sm));
            match p.redispatch_after {
                Some(delay) => {
                    let ready = end + delay;
                    arrivals.insert(arrivals.partition_point(|&(r, _)| r <= ready), (ready, cta_id));
                    unfinished.redispatches += 1;
                }
                None => unfinished.lost_ctas.push(cta_id),
            }
            continue;
        }

        let mut t = start + costs.a * slow;
        if f.contributes {
            // MACs of the first segment, then partial store + signal.
            t += slow * (costs.c * f.first_seg_iters as f64 + costs.b);
            signal_time[cta_id] = Some(t);
            // Remaining segments' MACs.
            t += slow * costs.c * (f.iters - f.first_seg_iters) as f64;
        } else {
            t += slow * costs.c * f.iters as f64;
        }
        mac_busy += slow * costs.c * f.iters as f64;

        let span_idx = spans.len();
        spans.push(CtaSpan { cta_id, sm, start, end: t, iters: f.iters, waited: 0.0 });

        let peers = &grid.owner_peers[cta_id];
        if peers.is_empty() {
            heap.push(key(t, sm));
        } else if peers.iter().all(|&p| signal_time[p].is_some()) {
            let (end, waited) = finish_owner(t, costs.d * slow, peers, &signal_time);
            total_wait += waited;
            spans[span_idx].end = end;
            spans[span_idx].waited = waited;
            heap.push(key(end, sm));
        } else {
            blocked.push((cta_id, sm, t, span_idx));
        }

        // Newly resolved signals may unblock earlier owners.
        if signal_time[cta_id].is_some() {
            let mut i = 0;
            while i < blocked.len() {
                let (owner, owner_sm, t_ready, span_idx) = blocked[i];
                if grid.owner_peers[owner].iter().all(|&p| signal_time[p].is_some()) {
                    let d = costs.d * plan.sm_factor(owner_sm);
                    let (end, waited) = finish_owner(t_ready, d, &grid.owner_peers[owner], &signal_time);
                    total_wait += waited;
                    spans[span_idx].end = end;
                    spans[span_idx].waited = waited;
                    heap.push(key(end, owner_sm));
                    blocked.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }
    }

    // Owners still blocked wait on a peer that never signals; their
    // spans end where their own work did, and their unbounded stall
    // stays out of `total_wait`.
    unfinished.unresolved_owners = blocked.iter().map(|&(cta, ..)| cta).collect();
    unfinished.unresolved_owners.sort_unstable();
    unfinished.lost_ctas.sort_unstable();

    let compute_makespan = spans.iter().map(|s| s.end).fold(0.0f64, f64::max);
    (DesOutcome { spans, compute_makespan, mac_busy, total_wait }, unfinished)
}

/// What a launch computes and moves whatever its schedule: everything
/// the memory roofline needs besides the GPU and the partial records.
pub(crate) struct Volume {
    pub(crate) precision: Precision,
    pub(crate) tile: TileShape,
    pub(crate) total_iters: usize,
    pub(crate) tiles: usize,
    /// Compulsory floor: each input element read at least once.
    pub(crate) compulsory_input_bytes: f64,
    pub(crate) useful_flops: f64,
}

/// The memory roofline applied to a compute schedule.
pub(crate) struct Roofline {
    /// `max(compute makespan, memory floor)` plus the launch latency.
    pub(crate) makespan: f64,
    pub(crate) memory_time: f64,
    pub(crate) traffic_bytes: f64,
}

impl Volume {
    /// `batch` instances of `instance`'s GEMM in one launch.
    pub(crate) fn of(instance: &IterSpace, precision: Precision, batch: usize) -> Self {
        let shape = instance.shape();
        let instances = batch as f64;
        Self {
            precision,
            tile: instance.tile(),
            total_iters: batch * instance.total_iters(),
            tiles: batch * instance.tiles(),
            compulsory_input_bytes: instances
                * ((shape.m * shape.k + shape.k * shape.n) * precision.input_bytes()) as f64,
            useful_flops: instances * shape.flops() as f64,
        }
    }

    /// The roofline over a schedule whose compute takes
    /// `compute_makespan` and which stores `partial_records` partials.
    pub(crate) fn roofline(&self, compute_makespan: f64, partial_records: usize, gpu: &GpuSpec) -> Roofline {
        let (tile, precision) = (self.tile, self.precision);
        let fragment_traffic = self.total_iters as f64 * tile.fragment_bytes(precision) as f64 / gpu.l2_reuse;
        let input_traffic = fragment_traffic.max(self.compulsory_input_bytes);
        let output_traffic = (self.tiles * tile.tile_output_bytes(precision) as usize) as f64;
        // Each partial record is written once and read once, at
        // accumulator width. Partials are produced and consumed within
        // the launch and fit comfortably in L2 (O(g) tile-sized buffers),
        // so they ride the L2 bandwidth lane, not DRAM.
        let partial_traffic = 2.0 * partial_records as f64 * tile.tile_output_bytes(precision) as f64;
        let traffic_bytes = input_traffic + output_traffic + partial_traffic;
        let dram_time = if gpu.mem_bw.is_finite() { (input_traffic + output_traffic) / gpu.mem_bw } else { 0.0 };
        let l2_time = if gpu.l2_bw.is_finite() { traffic_bytes / gpu.l2_bw } else { 0.0 };
        let memory_time = dram_time.max(l2_time);
        Roofline { makespan: compute_makespan.max(memory_time) + gpu.grid_launch_s, memory_time, traffic_bytes }
    }
}

/// Applies the memory roofline and assembles the report.
pub(crate) fn finish_report(des: DesOutcome, partial_records: usize, volume: &Volume, gpu: &GpuSpec) -> SimReport {
    let roofline = volume.roofline(des.compute_makespan, partial_records, gpu);
    SimReport {
        precision: volume.precision,
        sms: gpu.sms,
        peak_flops: gpu.peak_flops(volume.precision),
        makespan: roofline.makespan,
        compute_makespan: des.compute_makespan,
        memory_time: roofline.memory_time,
        useful_flops: volume.useful_flops,
        traffic_bytes: roofline.traffic_bytes,
        mac_busy: des.mac_busy,
        total_wait: des.total_wait,
        spans: des.spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_types::{GemmShape, TileShape};

    const FIG1_SHAPE: GemmShape = GemmShape { m: 384, n: 384, k: 128 };

    /// Figure 1a: 9 large tiles on 4 SMs, data-parallel → exactly 75%
    /// quantization efficiency.
    #[test]
    fn figure1a_utilization_ceiling() {
        let d = Decomposition::data_parallel(FIG1_SHAPE, TileShape::new(128, 128, 128));
        let r = simulate(&d, &GpuSpec::hypothetical_4sm(), Precision::Fp64);
        assert!((r.quantization_efficiency() - 0.75).abs() < 1e-9, "{}", r.quantization_efficiency());
    }

    /// Figure 1b: halving BLK_N gives 18 tiles → 90%.
    #[test]
    fn figure1b_utilization_ceiling() {
        let d = Decomposition::data_parallel(FIG1_SHAPE, TileShape::new(128, 64, 128));
        let r = simulate(&d, &GpuSpec::hypothetical_4sm(), Precision::Fp64);
        assert!((r.quantization_efficiency() - 0.90).abs() < 1e-9);
    }

    /// Figure 2a: fixed-split s=2 → 18 CTAs → 90%.
    #[test]
    fn figure2a_fixed_split_efficiency() {
        let d = Decomposition::fixed_split(FIG1_SHAPE, TileShape::new(128, 128, 64), 2);
        let r = simulate(&d, &GpuSpec::hypothetical_4sm(), Precision::Fp64);
        assert!((r.quantization_efficiency() - 0.90).abs() < 1e-9);
    }

    /// Figure 2b: basic Stream-K g=4 → 100% on the overhead-free GPU.
    #[test]
    fn figure2b_stream_k_efficiency() {
        let d = Decomposition::stream_k(FIG1_SHAPE, TileShape::new(128, 128, 4), 4);
        let r = simulate(&d, &GpuSpec::hypothetical_4sm(), Precision::Fp64);
        assert!((r.quantization_efficiency() - 1.0).abs() < 1e-9);
        // And Stream-K beats data-parallel end to end.
        let dp = Decomposition::data_parallel(FIG1_SHAPE, TileShape::new(128, 128, 128));
        let dp_r = simulate(&dp, &GpuSpec::hypothetical_4sm(), Precision::Fp64);
        assert!(r.makespan < dp_r.makespan);
    }

    /// The fixup dependency is real: on a GPU with overheads, a
    /// 32-way fixed-split of one tile serializes its reduction in the
    /// owner.
    #[test]
    fn fixed_split_owner_waits() {
        let shape = GemmShape::new(128, 128, 16384);
        let tile = TileShape::new(128, 128, 32);
        let d = Decomposition::fixed_split(shape, tile, 32);
        let r = simulate(&d, &GpuSpec::a100(), Precision::Fp16To32);
        // Owner is CTA 0; all 31 peers finish at ~the same time, so
        // the owner must have stalled.
        assert!(r.total_wait > 0.0);
        assert_eq!(r.spans[0].cta_id, 0);
        assert!(r.spans[0].waited > 0.0);
    }

    /// Stream-K's temporal skew hides fixup latency: with more tiles
    /// than CTAs, the owner reaches its wait long after the peer
    /// signaled, so waits are (near) zero (§4).
    #[test]
    fn stream_k_skew_hides_fixup_latency() {
        let shape = GemmShape::new(1024, 1024, 2048);
        let tile = TileShape::new(128, 128, 32);
        let d = Decomposition::stream_k(shape, tile, 8);
        let r = simulate(&d, &GpuSpec::a100(), Precision::Fp16To32);
        assert_eq!(r.total_wait, 0.0, "wait = {}", r.total_wait);
    }

    /// Every span is well-formed and within the makespan; SMs never
    /// run two CTAs at once.
    #[test]
    fn spans_are_consistent() {
        let shape = GemmShape::new(896, 384, 128);
        let tile = TileShape::new(128, 128, 32);
        for d in [
            Decomposition::data_parallel(shape, tile),
            Decomposition::stream_k(shape, tile, 4),
            Decomposition::fixed_split(shape, tile, 3),
            Decomposition::two_tile_stream_k_dp(shape, tile, 4),
        ] {
            let r = simulate(&d, &GpuSpec::a100(), Precision::Fp64);
            let mut per_sm: Vec<Vec<(f64, f64)>> = vec![Vec::new(); r.sms];
            for s in &r.spans {
                assert!(s.end >= s.start);
                assert!(s.end <= r.compute_makespan + 1e-15);
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

    /// Utilization can never exceed 1 (useful flops ≤ peak · time).
    #[test]
    fn utilization_bounded() {
        let gpu = GpuSpec::a100();
        for (m, n, k) in [(128, 128, 128), (4096, 4096, 4096), (256, 3584, 8192), (129, 257, 511)] {
            let shape = GemmShape::new(m, n, k);
            let tile = TileShape::FP16_STREAMK;
            let d = Decomposition::two_tile_stream_k_dp(shape, tile, gpu.sms);
            let r = simulate(&d, &gpu, Precision::Fp16To32);
            assert!(r.utilization() <= 1.0, "{m}x{n}x{k}: {}", r.utilization());
            assert!(r.utilization() > 0.0);
        }
    }

    /// Large cube problems must land near peak for Stream-K.
    #[test]
    fn large_problem_near_peak() {
        let gpu = GpuSpec::a100();
        let shape = GemmShape::new(8192, 8192, 8192);
        let d = Decomposition::two_tile_stream_k_dp(shape, TileShape::FP16_STREAMK, gpu.sms);
        let r = simulate(&d, &gpu, Precision::Fp16To32);
        assert!(r.utilization() > 0.90, "utilization = {}", r.utilization());
    }

    /// Small problems are memory-bound.
    #[test]
    fn small_problem_memory_bound() {
        // A wide, shallow product: 62 flops/byte, far below the
        // fp16→32 balance point of ~143.
        let gpu = GpuSpec::a100();
        let shape = GemmShape::new(4096, 4096, 128);
        let d = Decomposition::two_tile_stream_k_dp(shape, TileShape::FP16_STREAMK, gpu.sms);
        let r = simulate(&d, &gpu, Precision::Fp16To32);
        assert!(r.is_memory_bound());
    }

    /// The queue's outcome on `ctas`, and the wave replay's when the
    /// grid passes the uniform check.
    fn both_ways(
        ctas: &[CtaWork],
        ipt: usize,
        fixups: Vec<TileFixup>,
        gpu: &GpuSpec,
        costs: &CtaCosts,
    ) -> (DesOutcome, Option<DesOutcome>) {
        let (queue, _) = run_des(&GridDesc::from_parts(ctas, ipt, fixups), gpu, costs, &SimFaultPlan::none());
        (queue, UniformGrid::of(ctas, ipt).map(|uniform| uniform.replay(gpu.sms, costs)))
    }

    /// A grid of identical whole-tile CTAs replays by waves to exactly
    /// what the event queue computes: spans, compute makespan,
    /// `mac_busy` and `total_wait`, `==`. Every grid with a seam or an
    /// empty CTA fails the uniform check, and so stays with the queue.
    #[test]
    fn wave_replay_is_the_event_queue_on_uniform_grids() {
        use streamk_core::{BatchedDecomposition, BatchedSpace, TileOrder};
        let a100 = GpuSpec::a100();
        let four = GpuSpec::hypothetical_4sm();
        let one = GpuSpec { sms: 1, ..GpuSpec::a100() };
        let uniform = |d: &Decomposition, gpu: &GpuSpec, precision: Precision, eff: f64| {
            let costs = CtaCosts::derive(gpu, precision, d.space().tile(), eff);
            let (queue, waves) = both_ways(d.ctas(), d.space().iters_per_tile(), d.fixups(), gpu, &costs);
            assert_eq!(waves.as_ref(), Some(&queue), "{:?} on {} SMs", d.strategy(), gpu.sms);
            let (shape, tile) = (d.space().shape(), d.space().tile());
            let volume = Volume::of(d.space(), precision, 1);
            assert_eq!(
                data_parallel_makespan(shape, tile, gpu, precision, eff).to_bits(),
                volume.roofline(queue.compute_makespan, 0, gpu).makespan.to_bits(),
                "{shape} at {tile} on {} SMs",
                gpu.sms
            );
        };

        // Data-parallel at several tiles, both precisions, and swizzled.
        for (m, n, k) in [(384, 384, 128), (1000, 700, 300), (130, 130, 8000), (4096, 4096, 1024), (8192, 8192, 64)] {
            for tile in [
                TileShape::new(128, 128, 32),
                TileShape::new(64, 64, 16),
                TileShape::new(256, 128, 32),
                TileShape::new(32, 32, 8),
            ] {
                for precision in Precision::ALL {
                    let d = Decomposition::data_parallel(GemmShape::new(m, n, k), tile);
                    uniform(&d, &a100, precision, 0.9);
                    uniform(&d.clone().with_tile_order(TileOrder::ColumnGrouped(8)), &a100, precision, 0.9);
                    uniform(&d.with_tile_order(TileOrder::Morton), &a100, precision, 0.9);
                }
            }
        }
        // n < sms, n = k·sms, n = k·sms + 1, on four SMs and on one.
        for tiles in [1, 3, 4, 5, 8, 9, 12, 13] {
            let d = Decomposition::data_parallel(GemmShape::new(128 * tiles, 128, 256), TileShape::new(128, 128, 32));
            assert_eq!(d.grid_size(), tiles);
            uniform(&d, &four, Precision::Fp64, 1.0);
            uniform(&d, &one, Precision::Fp16To32, 0.99);
        }
        // Figures 1a and 1b.
        for tile in [TileShape::new(128, 128, 128), TileShape::new(128, 64, 128)] {
            uniform(&Decomposition::data_parallel(FIG1_SHAPE, tile), &four, Precision::Fp64, 1.0);
        }
        // A batched data-parallel grid: 13 instances × 9 tiles on 108 SMs.
        let batched = BatchedDecomposition::data_parallel(BatchedSpace::new(
            13,
            GemmShape::new(384, 384, 4096),
            TileShape::FP16_STREAMK,
        ));
        let costs = CtaCosts::default_for(&a100, Precision::Fp16To32, TileShape::FP16_STREAMK);
        let ipt = batched.space().iters_per_tile();
        let (queue, waves) = both_ways(batched.ctas(), ipt, batched.fixups(), &a100, &costs);
        assert_eq!(waves, Some(queue));

        // Seams: fixed-split, Stream-K and both hybrids.
        let shape = GemmShape::new(896, 384, 1024);
        let tile = TileShape::new(128, 128, 32);
        for d in [
            Decomposition::fixed_split(shape, tile, 2),
            Decomposition::stream_k(shape, tile, 4),
            Decomposition::stream_k(shape, tile, 108),
            Decomposition::two_tile_stream_k_dp(shape, tile, 4),
            Decomposition::dp_one_tile_stream_k(shape, tile, 4),
        ] {
            assert_eq!(UniformGrid::of(d.ctas(), d.space().iters_per_tile()), None, "{:?}", d.strategy());
        }
        // An empty CTA: four one-iteration tiles on five CTAs, every
        // non-empty CTA a whole tile.
        let d = Decomposition::stream_k(GemmShape::new(128, 128, 16), TileShape::new(64, 64, 16), 5);
        assert!(d.ctas().iter().any(CtaWork::is_empty));
        assert!(d.ctas().iter().filter(|c| !c.is_empty()).all(|c| c.len() == d.space().iters_per_tile()));
        assert_eq!(UniformGrid::of(d.ctas(), d.space().iters_per_tile()), None);
    }

    /// Empty CTAs (grid larger than the iteration space) simulate
    /// without incident.
    #[test]
    fn empty_ctas_are_harmless() {
        let shape = GemmShape::new(64, 64, 32);
        let tile = TileShape::new(64, 64, 16);
        let d = Decomposition::stream_k(shape, tile, 7);
        let r = simulate(&d, &GpuSpec::hypothetical_4sm(), Precision::Fp64);
        assert_eq!(r.spans.len(), 7);
        assert!(r.makespan > 0.0);
    }
}
