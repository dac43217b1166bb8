//! The per-class candidate slate.
//!
//! Candidates cross the `streamk-tune` tile space with the
//! decomposition strategies of the paper, then keep the model-ranked
//! top K. There is no kernel axis: every candidate runs the
//! executor's one register block. The App. A.1 heuristic
//! pick is always seeded at the front of the slate, so the epsilon-
//! greedy loop starts from the static decision and can only improve
//! on it.

use streamk_core::{Decomposition, Strategy};
use streamk_ensemble::HeuristicSelector;
use streamk_tune::{candidate_tiles, estimated_efficiency};
use streamk_types::{GemmShape, Precision, TileShape};

/// One selectable schedule: strategy × tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The decomposition strategy.
    pub strategy: Strategy,
    /// The blocking factor.
    pub tile: TileShape,
}

impl Candidate {
    /// Builds the decomposition this candidate describes for `shape`.
    #[must_use]
    pub fn decompose(&self, shape: GemmShape) -> Decomposition {
        Decomposition::from_strategy(shape, self.tile, self.strategy)
    }

    /// Compact stable encoding used by the cache file format.
    #[must_use]
    pub fn encode(&self) -> String {
        let strategy = match self.strategy {
            Strategy::DataParallel => "dp".to_string(),
            Strategy::FixedSplit { split } => format!("fs.{split}"),
            Strategy::StreamK { grid } => format!("sk.{grid}"),
            Strategy::DpOneTileStreamK { sms } => format!("dp1.{sms}"),
            Strategy::TwoTileStreamKDp { sms } => format!("sk2.{sms}"),
        };
        format!("{strategy} {}", self.tile)
    }

    /// Parses an [`encode`](Self::encode)d candidate.
    #[must_use]
    pub fn decode(s: &str) -> Option<Self> {
        let mut parts = s.split(' ');
        let strat = parts.next()?;
        let tile: TileShape = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        let strategy = match strat.split_once('.') {
            None if strat == "dp" => Strategy::DataParallel,
            Some(("fs", v)) => Strategy::FixedSplit { split: v.parse().ok()? },
            Some(("sk", v)) => Strategy::StreamK { grid: v.parse().ok()? },
            Some(("dp1", v)) => Strategy::DpOneTileStreamK { sms: v.parse().ok()? },
            Some(("sk2", v)) => Strategy::TwoTileStreamKDp { sms: v.parse().ok()? },
            _ => return None,
        };
        Some(Self { strategy, tile })
    }
}

impl std::fmt::Display for Candidate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} @ {}", self.strategy, self.tile)
    }
}

/// `true` when the candidate's fixup structure can run on `workers`
/// co-resident CTAs — the executor's admission constraint.
#[must_use]
pub fn feasible(candidate: &Candidate, shape: GemmShape, workers: usize) -> bool {
    let d = candidate.decompose(shape);
    if d.validate().is_err() {
        return false;
    }
    d.fixups().iter().map(streamk_core::TileFixup::covering_ctas).max().unwrap_or(1) <= workers
}

/// A crude CPU makespan proxy for ranking only: list-scheduling lower
/// bound over the workers, derated by tile efficiency,
/// plus a per-seam consolidation term. Measurement corrects any
/// ranking error inside the top K; this only has to keep obviously
/// bad candidates out of the slate.
fn proxy_cost(candidate: &Candidate, shape: GemmShape, workers: usize, precision: Precision) -> f64 {
    let d = candidate.decompose(shape);
    let per_iter =
        (candidate.tile.blk_m * candidate.tile.blk_n * candidate.tile.blk_k) as f64;
    let total = d.space().total_iters() as f64 * per_iter;
    let critical = d.max_iters_per_cta() as f64 * per_iter;
    // Wave quantization for one-tile-per-CTA grids: a worker runs
    // ceil(ctas/workers) CTAs back to back.
    let ctas = d.ctas().iter().filter(|c| !c.is_empty()).count();
    let waves = ctas.div_ceil(workers) as f64;
    let lower = (total / workers as f64).max(critical).max(waves * d.min_iters_per_cta().max(1) as f64 * per_iter);
    let eff = estimated_efficiency(candidate.tile, precision);
    let seam_cost = (candidate.tile.blk_m * candidate.tile.blk_n) as f64 * 2.0;
    lower / eff + d.split_tiles() as f64 * seam_cost
}

/// Builds the candidate slate for `shape`: the heuristic App. A.1
/// pick first, then the proxy-ranked top of the strategy × tile
/// cross product, feasibility-filtered, at most `top_k`
/// entries (the heuristic seed does not count against `top_k` when it
/// would have been cut).
///
/// # Panics
///
/// Panics if `workers == 0` or `top_k == 0`.
#[must_use]
pub fn candidates_for(
    shape: GemmShape,
    precision: Precision,
    workers: usize,
    top_k: usize,
) -> Vec<Candidate> {
    assert!(workers > 0, "workers must be at least 1");
    assert!(top_k > 0, "top_k must be at least 1");

    let heuristic =
        HeuristicSelector::new(streamk_ensemble::TileEnsemble::for_precision(precision), workers);
    let (config, strategy) = heuristic.select(shape);
    let seed = Candidate { strategy, tile: config.tile };

    let mut strategies = vec![
        Strategy::DataParallel,
        Strategy::StreamK { grid: workers },
        Strategy::TwoTileStreamKDp { sms: workers },
        Strategy::DpOneTileStreamK { sms: workers },
    ];
    if workers >= 2 {
        strategies.push(Strategy::FixedSplit { split: 2 });
    }

    let mut scored: Vec<(f64, Candidate)> = Vec::new();
    for tile in candidate_tiles(precision) {
        for &strategy in &strategies {
            let candidate = Candidate { strategy, tile };
            if candidate == seed || !feasible(&candidate, shape, workers) {
                continue;
            }
            scored.push((proxy_cost(&candidate, shape, workers, precision), candidate));
        }
    }
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut slate = vec![seed];
    for (_, candidate) in scored {
        if slate.len() >= top_k {
            break;
        }
        slate.push(candidate);
    }
    slate
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_types::Layout;

    #[test]
    fn encode_decode_round_trips_every_strategy() {
        for strategy in [
            Strategy::DataParallel,
            Strategy::FixedSplit { split: 4 },
            Strategy::StreamK { grid: 7 },
            Strategy::DpOneTileStreamK { sms: 3 },
            Strategy::TwoTileStreamKDp { sms: 8 },
        ] {
            let c = Candidate { strategy, tile: TileShape::new(32, 64, 8) };
            assert_eq!(Candidate::decode(&c.encode()), Some(c), "{c}");
        }
        let dp = Candidate { strategy: Strategy::DataParallel, tile: TileShape::new(64, 64, 16) };
        assert_eq!(dp.encode(), "dp 64x64x16");
        assert_eq!(Candidate::decode("nope 32x32x8"), None);
        assert_eq!(Candidate::decode("dp"), None);
        assert_eq!(Candidate::decode("dp 32x32x8 extra"), None);
        // Neither a kernel token (the version-1 cache format) nor an
        // `sw.N` recursion-depth token (version 2) is part of one.
        assert_eq!(Candidate::decode("dp 64x64x16 simd8x32"), None);
        assert_eq!(Candidate::decode("dp 32x32x8 sw.1"), None);
    }

    #[test]
    fn slate_is_seeded_with_the_heuristic_pick() {
        let shape = GemmShape::new(512, 512, 512);
        let workers = 4;
        let slate = candidates_for(shape, Precision::Fp64, workers, 8);
        let heuristic = HeuristicSelector::new(
            streamk_ensemble::TileEnsemble::for_precision(Precision::Fp64),
            workers,
        );
        let (config, strategy) = heuristic.select(shape);
        assert_eq!(slate[0].tile, config.tile);
        assert_eq!(slate[0].strategy, strategy);
    }

    #[test]
    fn slate_respects_top_k_and_feasibility() {
        let shape = GemmShape::new(256, 256, 256);
        for workers in [1, 2, 4] {
            let slate = candidates_for(shape, Precision::Fp64, workers, 6);
            assert!(slate.len() <= 6, "workers={workers}: {}", slate.len());
            assert!(slate.len() >= 2, "workers={workers}: slate too small");
            for c in &slate {
                assert!(feasible(c, shape, workers), "workers={workers}: infeasible {c}");
            }
        }
    }

    #[test]
    fn slate_is_duplicate_free_and_deterministic() {
        let shape = GemmShape::new(384, 128, 768);
        let a = candidates_for(shape, Precision::Fp64, 4, 8);
        let b = candidates_for(shape, Precision::Fp64, 4, 8);
        assert_eq!(a, b);
        for i in 0..a.len() {
            for j in (i + 1)..a.len() {
                assert_ne!(a[i], a[j], "duplicate at {i}/{j}");
            }
        }
    }

    #[test]
    fn single_worker_slate_never_needs_coresidency() {
        // With one worker every fixed-split / multi-CTA seam would
        // deadlock the executor; feasibility must exclude them all.
        let shape = GemmShape::new(96, 96, 4096);
        let slate = candidates_for(shape, Precision::Fp64, 1, 8);
        for c in &slate {
            let d = c.decompose(shape);
            let max_cover = d
                .fixups()
                .iter()
                .map(streamk_core::TileFixup::covering_ctas)
                .max()
                .unwrap_or(1);
            assert_eq!(max_cover, 1, "{c}");
        }
    }

    #[test]
    fn decompose_matches_class_keying() {
        // The slate is shape-specific but must stay identical across
        // shapes in the same class when built from the representative.
        let shape = GemmShape::new(512, 512, 512);
        let class =
            crate::class::ShapeClass::of(shape, Precision::Fp64, Layout::RowMajor, 4);
        let from_repr = candidates_for(class.representative(), Precision::Fp64, 4, 8);
        assert!(!from_repr.is_empty());
    }
}
