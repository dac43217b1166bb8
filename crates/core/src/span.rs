//! Span and phase vocabulary for measured executor timelines.
//!
//! The CPU executor's tracer (`streamk-cpu::trace`) records what each
//! worker was doing as typed spans; the profiler and the metrics
//! registry aggregate them per [`Phase`]. The vocabulary lives here —
//! next to the decomposition the events describe — so exporters,
//! reports, and tests across crates agree on names without string
//! matching.

/// What one traced worker event was doing.
///
/// Kinds mirror the stages of the paper's Stream-K kernel loop
/// (Algorithm 5 + §4): claiming a CTA's iteration range, packing
/// operand panels, the MAC loop itself, and the fixup protocol
/// (store/signal, wait, load-partials) — plus the executor's own
/// mechanisms (deferral, range stealing, fault recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// Claiming the next unit from the worker's own range queue (`arg`:
    /// its CTA).
    Claim,
    /// Claiming a unit stolen from another worker's range queue (`arg`:
    /// its CTA).
    Steal,
    /// One claimed unit's execution — a tile segment of a CTA in a
    /// launch, a whole CTA in a service request — under its CTA's id
    /// (container for the spans below).
    Cta,
    /// A contiguous run of MAC-loop iterations on one tile segment.
    Mac,
    /// Packing operand panels into worker-private buffers.
    PackPrivate,
    /// Packing a grid-shared pack-cache panel on behalf of everyone.
    PackCached,
    /// `StorePartials` + `Signal`: publishing a partial to the owner.
    Signal,
    /// An owner stalled in `Wait` on an unfinished peer.
    Wait,
    /// `LoadPartials`: folding one signaled partial into the tile.
    LoadPartials,
    /// Parking a tile consolidation because a peer was still pending.
    DeferPark,
    /// Resuming and completing a parked consolidation (container).
    DeferResume,
    /// Recomputing a lost or poisoned peer's contribution.
    Recovery,
    /// A serve-layer request waiting in its admission lane before the
    /// first CTA claim (admit → first claim).
    QueueWait,
    /// The launch handshake, where a worker is in no other span: from
    /// the launch epoch to the worker's entry into the job, on worker
    /// 0 (the launching thread) from the end of its share until the
    /// launch returns, and the whole launch on a helper that arrived
    /// after worker 0 closed it and so never entered.
    Launch,
}

impl SpanKind {
    /// Every kind, in a fixed order usable for dense indexing.
    pub const ALL: [Self; 14] = [
        Self::Claim,
        Self::Steal,
        Self::Cta,
        Self::Mac,
        Self::PackPrivate,
        Self::PackCached,
        Self::Signal,
        Self::Wait,
        Self::LoadPartials,
        Self::DeferPark,
        Self::DeferResume,
        Self::Recovery,
        Self::QueueWait,
        Self::Launch,
    ];

    /// Stable display name (also the event name in Chrome traces).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Claim => "claim",
            Self::Steal => "steal",
            Self::Cta => "cta",
            Self::Mac => "mac",
            Self::PackPrivate => "pack(private)",
            Self::PackCached => "pack(cached)",
            Self::Signal => "signal",
            Self::Wait => "wait",
            Self::LoadPartials => "load_partials",
            Self::DeferPark => "defer_park",
            Self::DeferResume => "defer_resume",
            Self::Recovery => "recovery",
            Self::QueueWait => "queue_wait",
            Self::Launch => "launch",
        }
    }

    /// Position of `self` in [`SpanKind::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|k| *k == self).expect("every kind is in ALL")
    }

    /// The aggregation phase this kind belongs to.
    #[must_use]
    pub fn phase(self) -> Phase {
        match self {
            Self::Claim | Self::Steal | Self::DeferPark | Self::DeferResume | Self::Launch => {
                Phase::Schedule
            }
            Self::Cta | Self::Mac => Phase::Compute,
            Self::PackPrivate | Self::PackCached => Phase::Pack,
            Self::Signal | Self::LoadPartials => Phase::Fixup,
            Self::Wait => Phase::Stall,
            Self::Recovery => Phase::Recovery,
            Self::QueueWait => Phase::Queue,
        }
    }

    /// Whether spans of this kind *contain* other spans on the same
    /// worker ([`Cta`](Self::Cta) wraps a claimed unit of a CTA;
    /// [`DeferResume`](Self::DeferResume) wraps the waits and folds of
    /// a resumed consolidation). Container durations overlap their
    /// children, so per-phase time breakdowns must sum leaf kinds only.
    #[must_use]
    pub fn is_container(self) -> bool {
        matches!(self, Self::Cta | Self::DeferResume)
    }
}

/// Coarse activity classes for per-phase time breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Claiming, stealing, deferral bookkeeping, and the launch
    /// handshake.
    Schedule,
    /// MAC-loop iterations (useful flops).
    Compute,
    /// Operand panel packing, private or cache-shared.
    Pack,
    /// Fixup traffic: signaling and folding partials.
    Fixup,
    /// Owners stalled waiting on peers.
    Stall,
    /// Recomputing lost or poisoned contributions.
    Recovery,
    /// Serve-layer admission-lane waiting (request queued, not yet
    /// claimed by any worker).
    Queue,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Self; 7] = [
        Self::Compute,
        Self::Pack,
        Self::Fixup,
        Self::Stall,
        Self::Schedule,
        Self::Recovery,
        Self::Queue,
    ];

    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Schedule => "schedule",
            Self::Compute => "compute",
            Self::Pack => "pack",
            Self::Fixup => "fixup",
            Self::Stall => "stall",
            Self::Recovery => "recovery",
            Self::Queue => "queue",
        }
    }

    /// Position of `self` in [`Phase::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|p| *p == self).expect("every phase is in ALL")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_a_distinct_name_and_index() {
        let mut names: Vec<&str> = SpanKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SpanKind::ALL.len());
        for (i, k) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn containers_are_excluded_from_leaf_phases() {
        assert!(SpanKind::Cta.is_container());
        assert!(SpanKind::DeferResume.is_container());
        let leaves = SpanKind::ALL.iter().filter(|k| !k.is_container()).count();
        assert_eq!(leaves, SpanKind::ALL.len() - 2);
    }

    #[test]
    fn every_phase_is_reachable_from_some_kind() {
        for phase in Phase::ALL {
            assert!(
                SpanKind::ALL.iter().any(|k| k.phase() == phase),
                "phase {} unused",
                phase.name()
            );
            assert_eq!(Phase::ALL[phase.index()], phase);
        }
    }
}
