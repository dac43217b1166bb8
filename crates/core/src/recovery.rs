//! Fault model and recovery arithmetic for the fixup protocol.
//!
//! Stream-K's correctness hangs on the cross-CTA `Signal`/`Wait`
//! consolidation of Algorithms 4-5: a tile-owning CTA blocks until
//! every contributing peer has published its partial record. On real
//! hardware (and on the CPU executor's thread pool) a peer can be
//! *slow* (straggler), *lost* (preempted and never re-dispatched), or
//! *corrupted* (its partial record fails validation — modeled as a
//! poisoned flag). This module provides the pieces every layer shares:
//!
//! - typed errors for protocol violations and execution failures
//!   ([`FixupError`], [`ExecutorError`]);
//! - the **recovery identity**: a peer's contribution to a tile is a
//!   closed-form function of its [`CtaWork`] descriptor, so the owner
//!   can *recompute* a missing peer's k-range instead of deadlocking
//!   ([`peer_contribution`]). Because the recomputation runs the same
//!   MAC loop over the same local iteration range, the recovered
//!   partial is bit-identical to what the peer would have produced,
//!   and the final output is bit-exact under every fault.

use crate::space::IterSpace;
use crate::work::{CtaWork, TileSegment};
use std::fmt;

/// A violation or failure of the `Signal`/`Wait` fixup protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FixupError {
    /// A CTA signaled the same slot twice — a protocol violation
    /// (each CTA contributes partials to at most one tile).
    DoubleSignal {
        /// The offending CTA.
        cta: usize,
    },
    /// A CTA signaled a slot that was already poisoned; the poison is
    /// sticky and the late signal is rejected.
    SignalAfterPoison {
        /// The offending CTA.
        cta: usize,
    },
    /// A slot index outside the board's grid.
    SlotOutOfRange {
        /// The requested slot.
        cta: usize,
        /// The board's grid size.
        grid: usize,
    },
}

impl fmt::Display for FixupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixupError::DoubleSignal { cta } => write!(f, "CTA {cta} signaled twice"),
            FixupError::SignalAfterPoison { cta } => {
                write!(f, "CTA {cta} signaled a slot already poisoned")
            }
            FixupError::SlotOutOfRange { cta, grid } => {
                write!(f, "fixup slot {cta} out of range for grid of {grid}")
            }
        }
    }
}

impl std::error::Error for FixupError {}

/// Why a grid execution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutorError {
    /// An operand's dimensions don't match the decomposition's
    /// problem shape.
    ShapeMismatch {
        /// Which operand (`"op(A)"`, `"op(B)"`, `"C"`).
        operand: &'static str,
        /// The `rows x cols` the decomposition requires.
        expected: (usize, usize),
        /// The `rows x cols` actually supplied.
        got: (usize, usize),
    },
    /// The decomposition failed structural validation.
    InvalidDecomposition(
        /// The validator's message.
        String,
    ),
    /// The grid's fixup structure needs more co-resident CTAs than the
    /// executor has workers — running it would risk deadlock, so it is
    /// refused up front.
    InsufficientResidency {
        /// Co-resident CTAs the widest owner+peers group needs.
        needed: usize,
        /// Workers available.
        threads: usize,
    },
    /// The fixup protocol failed and recovery could not mask it.
    Fixup(FixupError),
}

impl fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutorError::ShapeMismatch { operand, expected, got } => write!(
                f,
                "{operand} must be {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            ExecutorError::InvalidDecomposition(why) => write!(f, "invalid decomposition: {why}"),
            ExecutorError::InsufficientResidency { needed, threads } => write!(
                f,
                "decomposition needs {needed} co-resident CTAs but the executor has {threads} threads"
            ),
            ExecutorError::Fixup(e) => write!(f, "fixup protocol failure: {e}"),
        }
    }
}

impl std::error::Error for ExecutorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecutorError::Fixup(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FixupError> for ExecutorError {
    fn from(e: FixupError) -> Self {
        ExecutorError::Fixup(e)
    }
}

/// The [`TileSegment`] a peer CTA contributes to `tile_idx`, or
/// `None` if the CTA does not contribute partials to that tile.
///
/// This is the recovery identity: the segment depends only on the
/// peer's static [`CtaWork`] descriptor and the iteration space, so a
/// tile owner holding the grid's work descriptors can recompute a
/// lost peer's exact k-range without any communication. A CTA
/// *contributes* to a tile when it covers part of the tile but does
/// not start it (Algorithm 5: the k=0 CTA owns the tile and performs
/// the consolidation instead of storing partials).
#[must_use]
pub fn peer_contribution(peer: &CtaWork, space: &IterSpace, tile_idx: usize) -> Option<TileSegment> {
    peer.segments(space).find(|seg| seg.tile_idx == tile_idx && !seg.starts_tile)
}

/// The number of MAC-loop iterations the owner must re-execute to
/// reconstruct `peer`'s contribution to `tile_idx` (0 when the peer
/// contributes nothing).
#[must_use]
pub fn recompute_cost(peer: &CtaWork, space: &IterSpace, tile_idx: usize) -> usize {
    peer_contribution(peer, space, tile_idx).map_or(0, |seg| seg.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::Decomposition;
    use streamk_types::{GemmShape, TileShape};

    fn space() -> IterSpace {
        // 9 tiles x 32 iters, the Figure 2b space.
        IterSpace::new(GemmShape::new(384, 384, 128), TileShape::new(128, 128, 4))
    }

    #[test]
    fn contribution_is_the_unowned_first_segment() {
        let s = space();
        // CTA 1 of the g=4 Stream-K launch: [72, 144) finishes tile 2.
        let cta = CtaWork { cta_id: 1, iter_begin: 72, iter_end: 144 };
        let seg = peer_contribution(&cta, &s, 2).expect("contributes to tile 2");
        assert_eq!((seg.local_begin, seg.local_end), (8, 32));
        assert!(!seg.starts_tile && seg.ends_tile);
        assert_eq!(recompute_cost(&cta, &s, 2), 24);
        // It owns tiles 3 and 4 — no contribution records there.
        assert!(peer_contribution(&cta, &s, 3).is_none());
        assert!(peer_contribution(&cta, &s, 4).is_none());
        assert_eq!(recompute_cost(&cta, &s, 3), 0);
    }

    #[test]
    fn contributions_reconstruct_every_fixup() {
        // For every split tile of several decompositions, the owner's
        // peers' recomputed ranges exactly tile the part of the tile
        // the owner didn't execute itself.
        let shape = GemmShape::new(96, 80, 640);
        let tile = TileShape::new(32, 32, 16);
        for decomp in [
            Decomposition::stream_k(shape, tile, 7),
            Decomposition::fixed_split(shape, tile, 3),
            Decomposition::two_tile_stream_k_dp(shape, tile, 4),
        ] {
            let space = decomp.space();
            let ctas = decomp.ctas();
            for fixup in decomp.fixups() {
                let covered: usize = fixup
                    .peers
                    .iter()
                    .map(|&p| recompute_cost(&ctas[p], space, fixup.tile_idx))
                    .sum();
                let owner_part: usize = ctas[fixup.owner]
                    .segments(space)
                    .filter(|seg| seg.tile_idx == fixup.tile_idx)
                    .map(|seg| seg.len())
                    .sum();
                assert_eq!(
                    covered + owner_part,
                    space.iters_per_tile(),
                    "tile {} of {}",
                    fixup.tile_idx,
                    decomp.strategy()
                );
            }
        }
    }

    #[test]
    fn errors_display_and_chain() {
        let e = FixupError::DoubleSignal { cta: 3 };
        assert!(e.to_string().contains("CTA 3"));
        let exec: ExecutorError = e.clone().into();
        assert!(exec.to_string().contains("fixup protocol failure"));
        assert_eq!(
            std::error::Error::source(&exec).map(std::string::ToString::to_string),
            Some(e.to_string())
        );
        let shape = ExecutorError::ShapeMismatch { operand: "op(A)", expected: (4, 8), got: (4, 7) };
        assert!(shape.to_string().contains("op(A) must be 4x8"));
        assert!(std::error::Error::source(&shape).is_none());
        assert!(FixupError::DoubleSignal { cta: 2 }.to_string().contains("twice"));
        assert!(FixupError::SlotOutOfRange { cta: 9, grid: 4 }.to_string().contains("out of range"));
        assert!(FixupError::SignalAfterPoison { cta: 1 }.to_string().contains("poisoned"));
        assert!(ExecutorError::InsufficientResidency { needed: 8, threads: 2 }.to_string().contains("co-resident"));
        assert!(ExecutorError::InvalidDecomposition("gap".into()).to_string().contains("gap"));
    }
}
