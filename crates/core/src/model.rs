//! The Appendix A.1 analytical grid-size model.
//!
//! Stream-K is a tile-splitting approach, so it pays fixup costs the
//! plain data-parallel decomposition does not. Whether more
//! parallelism pays off is a strong-scaling question, and the paper
//! answers it with a four-constant model of a tile-outputting CTA's
//! runtime:
//!
//! ```text
//! time_cta(g) = a + b·[FixupPeers(g) > 1] + c·ItersPerCta(g) + d·(FixupPeers(g) − 1)
//! ```
//!
//! where `a` is fixed per-CTA cost (launch latency, compulsory misses,
//! output-tile store), `b` the conditional cost of emitting temporary
//! partials, `c` the per-MAC-iteration workload, and `d` the
//! per-collaborator cost of reading and accumulating one peer's
//! partial sums. `{a, b, c, d}` are unique to each (blocking factor,
//! data type, microarchitecture) and measured once via
//! microbenchmarks.

use crate::decomposition::Decomposition;
use streamk_types::{ceil_div, GemmShape, Precision, TileShape};

/// The `{a, b, c, d}` workload constants of the Appendix A.1 CTA
/// runtime model, in arbitrary consistent time units (this workspace
/// uses "cost units" ≈ one tensor-core-saturated MAC-loop iteration of
/// the default blocking ≈ `c = 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// One-time fixed cost per CTA: grid launch latency, compulsory
    /// cache misses, storing the final output tile.
    pub a: f64,
    /// Conditional cost of writing temporary partial sums (paid once
    /// by a CTA whose tile work doesn't align with tile boundaries).
    pub b: f64,
    /// Instruction and stall cost of one MAC-loop iteration.
    pub c: f64,
    /// Cost of reading and accumulating one peer's partial sums.
    pub d: f64,
}

impl CostModel {
    /// Constants calibrated for this workspace's A100-like simulator
    /// at the paper's FP16→32 blocking (128×128×32). Chosen — as the
    /// paper prescribes, by fitting microbenchmark behaviour — to
    /// reproduce the three grid-size selections of Figure 8:
    /// `g* = 108` for 256×3584×8192, `g* = 64` for 1024³, and
    /// `g* = 8` for 128×128×16384.
    #[must_use]
    pub fn a100_fp16() -> Self {
        CostModel { a: 2.0, b: 8.0, c: 1.0, d: 8.0 }
    }

    /// Constants for the paper's FP64 blocking (64×64×16). FP64 tiles
    /// are 8× smaller in MACs but move proportionally more data per
    /// flop; the fixup-to-iteration cost ratios stay similar.
    #[must_use]
    pub fn a100_fp64() -> Self {
        CostModel { a: 2.0, b: 5.0, c: 1.0, d: 5.0 }
    }

    /// The calibrated constants for `precision`'s default Stream-K
    /// blocking.
    #[must_use]
    pub fn for_precision(precision: Precision) -> Self {
        match precision {
            Precision::Fp64 => Self::a100_fp64(),
            Precision::Fp16To32 => Self::a100_fp16(),
        }
    }

    /// Fits the four constants from measured samples of
    /// `(iters_per_cta, fixup_peers, observed_time)` by ordinary least
    /// squares on the model's four regressors. This is the
    /// "determined empirically via microbenchmarks" step of Appendix
    /// A.1; `streamk-cpu` uses it to calibrate against real thread
    /// timings.
    ///
    /// Returns `None` if the system is under-determined (fewer than 4
    /// independent samples).
    #[must_use]
    pub fn fit(samples: &[(usize, usize, f64)]) -> Option<Self> {
        if samples.len() < 4 {
            return None;
        }
        // Regressors: x0 = 1, x1 = [peers > 1], x2 = iters, x3 = peers − 1.
        let rows: Vec<[f64; 4]> = samples
            .iter()
            .map(|&(iters, peers, _)| {
                [1.0, f64::from(u8::from(peers > 1)), iters as f64, (peers.max(1) - 1) as f64]
            })
            .collect();
        let y: Vec<f64> = samples.iter().map(|&(_, _, t)| t).collect();
        // Normal equations: (XᵀX) β = Xᵀy, solved by Gaussian
        // elimination with partial pivoting on the 4×4 system.
        let mut xtx = [[0.0f64; 4]; 4];
        let mut xty = [0.0f64; 4];
        for (row, &yi) in rows.iter().zip(&y) {
            for i in 0..4 {
                for j in 0..4 {
                    xtx[i][j] += row[i] * row[j];
                }
                xty[i] += row[i] * yi;
            }
        }
        let beta = solve4(xtx, xty)?;
        Some(CostModel { a: beta[0], b: beta[1], c: beta[2], d: beta[3] })
    }
}

/// Solves a 4×4 linear system by Gaussian elimination with partial
/// pivoting. Returns `None` for (numerically) singular systems.
fn solve4(mut m: [[f64; 4]; 4], mut rhs: [f64; 4]) -> Option<[f64; 4]> {
    for col in 0..4 {
        // Pivot.
        let pivot = (col..4).max_by(|&i, &j| m[i][col].abs().total_cmp(&m[j][col].abs()))?;
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        rhs.swap(col, pivot);
        // Eliminate below.
        for row in (col + 1)..4 {
            let f = m[row][col] / m[col][col];
            let (above, below) = m.split_at_mut(row);
            let pivot_row = &above[col];
            for (rv, pv) in below[0][col..].iter_mut().zip(&pivot_row[col..]) {
                *rv -= f * pv;
            }
            rhs[row] -= f * rhs[col];
        }
    }
    // Back-substitute.
    let mut x = [0.0f64; 4];
    for row in (0..4).rev() {
        let mut acc = rhs[row];
        for j in (row + 1)..4 {
            acc -= m[row][j] * x[j];
        }
        x[row] = acc / m[row][row];
    }
    Some(x)
}

/// The grid-size selection model: given a problem, a blocking factor
/// and the processor width, predicts the runtime of every candidate
/// grid size and picks the best (Appendix A.1).
///
/// ```
/// use streamk_core::{CostModel, GridSizeModel};
/// use streamk_types::{GemmShape, TileShape};
///
/// let model = GridSizeModel::new(CostModel::a100_fp16(), 108);
/// let tile = TileShape::new(128, 128, 32);
///
/// // The paper's Figure 8 selections reproduce exactly:
/// assert_eq!(model.best_grid(GemmShape::new(256, 3584, 8192), tile), 108);
/// assert_eq!(model.best_grid(GemmShape::new(1024, 1024, 1024), tile), 64);
/// assert_eq!(model.best_grid(GemmShape::new(128, 128, 16384), tile), 8);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GridSizeModel {
    /// The workload constants in use.
    pub cost: CostModel,
    /// Processor cores `p` (maximum concurrently resident CTAs).
    pub sms: usize,
}

impl GridSizeModel {
    /// Creates a model for a `sms`-core processor with the given
    /// constants.
    ///
    /// # Panics
    ///
    /// Panics if `sms == 0`.
    #[must_use]
    pub fn new(cost: CostModel, sms: usize) -> Self {
        assert!(sms > 0, "sms must be at least 1");
        Self { cost, sms }
    }

    /// `ItersPerCta(g)` — the ceiling share of MAC-loop iterations per
    /// CTA.
    #[must_use]
    pub fn iters_per_cta(&self, shape: GemmShape, tile: TileShape, g: usize) -> usize {
        ceil_div(tile.total_iters(shape), g)
    }

    /// `FixupPeers(g)` — the model's estimate of how many CTAs
    /// collaborate on one output tile.
    #[must_use]
    pub fn fixup_peers(&self, shape: GemmShape, tile: TileShape, g: usize) -> usize {
        ceil_div(tile.iters_per_tile(shape), self.iters_per_cta(shape, tile, g))
    }

    /// `time_cta(g)` — the modeled runtime of a tile-outputting CTA,
    /// and therefore of the whole single-wave Stream-K schedule.
    #[must_use]
    pub fn time_cta(&self, shape: GemmShape, tile: TileShape, g: usize) -> f64 {
        self.time_of(tile.total_iters(shape), tile.iters_per_tile(shape), g)
    }

    /// `time_cta(g)` from the problem's total and per-tile iteration
    /// counts: `ItersPerCta(g)`, then `FixupPeers(g)` from it.
    fn time_of(&self, total_iters: usize, iters_per_tile: usize, g: usize) -> f64 {
        let iters = ceil_div(total_iters, g);
        let peers = ceil_div(iters_per_tile, iters);
        self.cost.a
            + self.cost.b * f64::from(u8::from(peers > 1))
            + self.cost.c * iters as f64
            + self.cost.d * (peers - 1) as f64
    }

    /// `(g, time_cta(g))` for every candidate `g ∈ [1, min(p,
    /// total_iters)]` in ascending order, each evaluated once, with the
    /// problem's iteration counts computed once for the sweep.
    fn sweep(&self, shape: GemmShape, tile: TileShape) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (total_iters, iters_per_tile) = (tile.total_iters(shape), tile.iters_per_tile(shape));
        let max_g = self.sms.min(total_iters).max(1);
        (1..=max_g).map(move |g| (g, self.time_of(total_iters, iters_per_tile, g)))
    }

    /// The modeled-best grid size: the `g ∈ [1, min(p, total_iters)]`
    /// minimizing `time_cta(g)`, with ties broken toward smaller
    /// grids (less fixup surface for the same predicted time).
    ///
    /// Depending on shape this lands anywhere from full-processor
    /// splitting (`g = p`), to no splitting at all (`g = t`), to a
    /// strong-scaling sweet spot in between (Figure 8).
    #[must_use]
    pub fn best_grid(&self, shape: GemmShape, tile: TileShape) -> usize {
        // `min_by` keeps the first of equal minima: the smallest grid.
        self.sweep(shape, tile).min_by(|a, b| a.1.total_cmp(&b.1)).expect("candidate range is non-empty").0
    }

    /// The full `(g, time_cta(g))` curve for plotting (Figure 8).
    #[must_use]
    pub fn curve(&self, shape: GemmShape, tile: TileShape) -> Vec<(usize, f64)> {
        self.sweep(shape, tile).collect()
    }

    /// Builds the launch-ready decomposition for `shape`: the two-tile
    /// hybrid when a full data-parallel wave exists, otherwise basic
    /// Stream-K at the modeled-best grid size. This is the "dynamic
    /// problem-specific configuration" step of §5.1.
    #[must_use]
    pub fn decompose(&self, shape: GemmShape, tile: TileShape) -> Decomposition {
        let tiles = tile.output_tiles(shape);
        if tiles >= self.sms {
            Decomposition::two_tile_stream_k_dp(shape, tile, self.sms)
        } else {
            Decomposition::stream_k(shape, tile, self.best_grid(shape, tile))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TILE: TileShape = TileShape { blk_m: 128, blk_n: 128, blk_k: 32 };

    fn model() -> GridSizeModel {
        GridSizeModel::new(CostModel::a100_fp16(), 108)
    }

    /// Figure 8a: 256×3584×8192 → 56 tiles × 256 iters; best grid is
    /// maximal parallelism, g* = 108 with 132/133 iters per CTA.
    #[test]
    fn figure8a_best_grid_is_full_processor() {
        let shape = GemmShape::new(256, 3584, 8192);
        let m = model();
        assert_eq!(m.best_grid(shape, TILE), 108);
        assert_eq!(m.iters_per_cta(shape, TILE, 108), 133);
    }

    /// Figure 8b: 1024×1024×1024 → 64 tiles × 32 iters; fixup costs
    /// outweigh iteration savings, the model dips at g* = 64.
    #[test]
    fn figure8b_best_grid_is_tile_count() {
        let shape = GemmShape::new(1024, 1024, 1024);
        assert_eq!(model().best_grid(shape, TILE), 64);
    }

    /// Figure 8c: 128×128×16384 → 1 tile × 512 iters; serial reduction
    /// costs cap useful splitting at g* = 8.
    #[test]
    fn figure8c_best_grid_is_eight() {
        let shape = GemmShape::new(128, 128, 16384);
        assert_eq!(model().best_grid(shape, TILE), 8);
    }

    #[test]
    fn fixup_peers_matches_paper_quantities() {
        let shape = GemmShape::new(128, 128, 16384);
        let m = model();
        // Single tile split g ways: every CTA is a peer of the owner.
        assert_eq!(m.fixup_peers(shape, TILE, 8), 8);
        assert_eq!(m.fixup_peers(shape, TILE, 1), 1);
    }

    #[test]
    fn time_is_monotone_in_iters_for_fixed_peers() {
        let m = model();
        let s1 = GemmShape::new(128, 128, 4096);
        let s2 = GemmShape::new(128, 128, 8192);
        // Same single-tile structure, g=1 → no fixup, more iterations
        // must cost more.
        assert!(m.time_cta(s2, TILE, 1) > m.time_cta(s1, TILE, 1));
    }

    #[test]
    fn curve_covers_candidate_range() {
        let shape = GemmShape::new(1024, 1024, 1024);
        let curve = model().curve(shape, TILE);
        assert_eq!(curve.len(), 108);
        assert_eq!(curve[0].0, 1);
        assert_eq!(curve[107].0, 108);
    }

    /// `best_grid` is the first argmin of `curve()`, and `curve()` is
    /// `time_cta` at every candidate, over shapes, tiles and widths.
    #[test]
    fn best_grid_is_the_first_argmin_of_the_curve() {
        let tiles = [TILE, TileShape::new(64, 64, 16), TileShape::new(128, 256, 64), TileShape::new(32, 32, 8)];
        let extents = [1, 128, 129, 1000, 4096, 16384];
        let shapes = extents.iter().flat_map(|&m| extents.iter().flat_map(move |&n| extents.map(|k| GemmShape::new(m, n, k))));
        for cost in [CostModel::a100_fp16(), CostModel::a100_fp64(), CostModel { a: 1.0, b: 0.0, c: 1.0, d: 0.0 }] {
            for sms in [1, 4, 7, 108, 132] {
                let model = GridSizeModel::new(cost, sms);
                for tile in tiles {
                    for shape in shapes.clone() {
                        let curve = model.curve(shape, tile);
                        for &(g, t) in &curve {
                            assert_eq!(t.to_bits(), model.time_cta(shape, tile, g).to_bits(), "{shape} {tile:?} g={g}");
                        }
                        let min = curve.iter().map(|&(_, t)| t).fold(f64::INFINITY, f64::min);
                        let first = curve.iter().find(|&&(_, t)| t == min).expect("non-empty curve").0;
                        assert_eq!(model.best_grid(shape, tile), first, "{shape} {tile:?} on {sms}");
                    }
                }
            }
        }
    }

    #[test]
    fn decompose_picks_hybrid_for_many_tiles() {
        let m = model();
        // 4096x4096: 1024 tiles >> 108 SMs → two-tile hybrid.
        let d = m.decompose(GemmShape::new(4096, 4096, 1024), TILE);
        assert!(matches!(d.strategy(), crate::Strategy::TwoTileStreamKDp { .. }));
        // Single tile → basic Stream-K at the modeled grid.
        let d = m.decompose(GemmShape::new(128, 128, 16384), TILE);
        assert!(matches!(d.strategy(), crate::Strategy::StreamK { grid: 8 }));
    }

    #[test]
    fn fit_recovers_known_constants() {
        let truth = CostModel { a: 17.0, b: 6.5, c: 1.25, d: 4.0 };
        // Synthesize exact samples over a spread of (iters, peers).
        let mut samples = Vec::new();
        for &iters in &[8usize, 16, 32, 64, 128, 256] {
            for &peers in &[1usize, 2, 3, 5, 9] {
                let t = truth.a
                    + truth.b * f64::from(u8::from(peers > 1))
                    + truth.c * iters as f64
                    + truth.d * (peers - 1) as f64;
                samples.push((iters, peers, t));
            }
        }
        let fitted = CostModel::fit(&samples).expect("well-determined system");
        assert!((fitted.a - truth.a).abs() < 1e-6);
        assert!((fitted.b - truth.b).abs() < 1e-6);
        assert!((fitted.c - truth.c).abs() < 1e-6);
        assert!((fitted.d - truth.d).abs() < 1e-6);
    }

    #[test]
    fn fit_rejects_underdetermined() {
        assert!(CostModel::fit(&[(1, 1, 1.0), (2, 1, 2.0)]).is_none());
        // Plenty of samples but no variation → singular.
        let degenerate: Vec<_> = (0..10).map(|_| (32usize, 2usize, 40.0)).collect();
        assert!(CostModel::fit(&degenerate).is_none());
    }
}
