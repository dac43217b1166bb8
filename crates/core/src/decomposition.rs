//! Work decomposition strategies.

use crate::space::IterSpace;
use crate::work::{CtaWork, TileFixup};
use std::fmt;
use streamk_types::{ceil_div, GemmShape, TileShape};

/// A work-decomposition strategy from the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Algorithm 2: one CTA per output tile.
    DataParallel,
    /// Algorithm 4: `split` CTAs per output tile, splitting the
    /// accumulation axis uniformly.
    FixedSplit {
        /// The splitting factor `s ≥ 1`.
        split: usize,
    },
    /// Algorithm 5: `grid` CTAs, each receiving an even share (within
    /// one) of all MAC-loop iterations.
    StreamK {
        /// The grid size `g ≥ 1`.
        grid: usize,
    },
    /// §5.2's simplest hybrid: full data-parallel waves, with Stream-K
    /// iteration balancing applied only to the tiles that would have
    /// formed the final, partially full wave.
    DpOneTileStreamK {
        /// Processor cores `p` (CTAs per full wave).
        sms: usize,
    },
    /// §5.2's production hybrid: one *fewer* full data-parallel wave,
    /// so each Stream-K CTA receives between one and two tiles' worth
    /// of iterations — better latency hiding, at most one fixup peer
    /// per tile when `w ≥ 2`.
    TwoTileStreamKDp {
        /// Processor cores `p`.
        sms: usize,
    },
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::DataParallel => write!(f, "data-parallel"),
            Strategy::FixedSplit { split } => write!(f, "fixed-split(s={split})"),
            Strategy::StreamK { grid } => write!(f, "stream-k(g={grid})"),
            Strategy::DpOneTileStreamK { sms } => write!(f, "dp+1tile-sk(p={sms})"),
            Strategy::TwoTileStreamKDp { sms } => write!(f, "2tile-sk+dp(p={sms})"),
        }
    }
}

/// A concrete assignment of the iteration space to a grid of CTAs.
///
/// This is the paper's contribution reified as data: both the GPU
/// simulator and the CPU executor consume a `Decomposition` verbatim,
/// and its invariants (exact cover, unique tile ownership, consecutive
/// fixup peers) are what make the consolidation protocol of
/// Algorithm 5 correct.
///
/// ```
/// use streamk_core::Decomposition;
/// use streamk_types::{GemmShape, TileShape};
///
/// // The paper's Figure 2b: 9 tiles x 32 iterations over 4 CTAs.
/// let shape = GemmShape::new(384, 384, 128);
/// let tile = TileShape::new(128, 128, 4);
/// let d = Decomposition::stream_k(shape, tile, 4);
///
/// // Every CTA receives exactly 72 MAC-loop iterations...
/// assert_eq!(d.max_iters_per_cta(), 72);
/// assert_eq!(d.iter_imbalance(), 0);
/// // ...and only 3 of the 9 tiles need cross-CTA consolidation.
/// assert_eq!(d.split_tiles(), 3);
/// assert!(d.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    space: IterSpace,
    strategy: Strategy,
    ctas: Vec<CtaWork>,
}

impl Decomposition {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// The classic *data-parallel* decomposition (Algorithm 2): grid
    /// size `g = t`, CTA `x` produces output tile `x` alone.
    #[must_use]
    pub fn data_parallel(shape: GemmShape, tile: TileShape) -> Self {
        let space = IterSpace::new(shape, tile);
        let ipt = space.iters_per_tile();
        let ctas = (0..space.tiles())
            .map(|x| CtaWork { cta_id: x, iter_begin: x * ipt, iter_end: (x + 1) * ipt })
            .collect();
        Self { space, strategy: Strategy::DataParallel, ctas }
    }

    /// The *fixed-split* decomposition (Algorithm 4): `split` CTAs per
    /// tile, each covering `⌈iters_per_tile / split⌉` iterations of the
    /// accumulation. CTAs are numbered tile-major (`x·s + y`), so the
    /// tile's splits have consecutive ids with the owner first.
    ///
    /// # Panics
    ///
    /// Panics if `split == 0`.
    #[must_use]
    pub fn fixed_split(shape: GemmShape, tile: TileShape, split: usize) -> Self {
        assert!(split > 0, "splitting factor must be at least 1");
        let space = IterSpace::new(shape, tile);
        let ipt = space.iters_per_tile();
        let ips = ceil_div(ipt, split);
        let mut ctas = Vec::with_capacity(space.tiles() * split);
        for x in 0..space.tiles() {
            let first = space.tile_first_iter(x);
            for y in 0..split {
                let begin = (y * ips).min(ipt);
                let end = ((y + 1) * ips).min(ipt);
                ctas.push(CtaWork {
                    cta_id: x * split + y,
                    iter_begin: first + begin,
                    iter_end: first + end,
                });
            }
        }
        Self { space, strategy: Strategy::FixedSplit { split }, ctas }
    }

    /// The basic *Stream-K* decomposition (Algorithm 5): `grid` CTAs,
    /// each receiving an even share — within one iteration — of the
    /// aggregate workload, mapped contiguously into the m→n→k
    /// linearization.
    ///
    /// (Algorithm 5 as printed uses `⌈total/g⌉` for every CTA, which
    /// can leave trailing CTAs idle; we distribute the remainder so
    /// the shares differ by at most one, which is what the paper's
    /// text specifies: "an even share (within one)".)
    ///
    /// # Panics
    ///
    /// Panics if `grid == 0`.
    #[must_use]
    pub fn stream_k(shape: GemmShape, tile: TileShape, grid: usize) -> Self {
        let space = IterSpace::new(shape, tile);
        let ctas = balanced_ranges(space.total_iters(), grid, 0, 0);
        Self { space, strategy: Strategy::StreamK { grid }, ctas }
    }

    /// §5.2's "*data-parallel + one-tile Stream-K*" hybrid: all `⌊t/p⌋`
    /// full waves run data-parallel; the `t mod p` leftover tiles are
    /// iteration-balanced across `p` Stream-K CTAs, each receiving
    /// less than one tile's worth.
    ///
    /// Degenerates to pure data-parallel when `t mod p == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `sms == 0`.
    #[must_use]
    pub fn dp_one_tile_stream_k(shape: GemmShape, tile: TileShape, sms: usize) -> Self {
        assert!(sms > 0, "sms must be at least 1");
        let space = IterSpace::new(shape, tile);
        let t = space.tiles();
        let ipt = space.iters_per_tile();
        let r = t % sms;
        let strategy = Strategy::DpOneTileStreamK { sms };
        if r == 0 {
            let mut dp = Self::data_parallel(shape, tile);
            dp.strategy = strategy;
            return dp;
        }
        let dp_tiles = t - r;
        let mut ctas: Vec<CtaWork> = (0..dp_tiles)
            .map(|x| CtaWork { cta_id: x, iter_begin: x * ipt, iter_end: (x + 1) * ipt })
            .collect();
        let sk_iters = r * ipt;
        let sk_grid = sms.min(sk_iters);
        ctas.extend(balanced_ranges(sk_iters, sk_grid, dp_tiles * ipt, dp_tiles));
        Self { space, strategy, ctas }
    }

    /// §5.2's "*two-tile Stream-K + data-parallel*" hybrid — the
    /// schedule the paper's evaluated kernels implement. One fewer
    /// full data-parallel wave runs; the last full wave *plus* the
    /// partial wave (`p + t mod p` tiles) is iteration-balanced across
    /// `p` Stream-K CTAs, so each receives between one and two tiles'
    /// worth of iterations. The Stream-K CTAs are numbered first
    /// (dispatched first), the data-parallel waves follow.
    ///
    /// Degenerates to pure data-parallel when `t mod p == 0`, and to
    /// basic Stream-K with `g = min(p, total_iters)` when `t < p`.
    ///
    /// # Panics
    ///
    /// Panics if `sms == 0`.
    #[must_use]
    pub fn two_tile_stream_k_dp(shape: GemmShape, tile: TileShape, sms: usize) -> Self {
        assert!(sms > 0, "sms must be at least 1");
        let space = IterSpace::new(shape, tile);
        let t = space.tiles();
        let ipt = space.iters_per_tile();
        let w = t / sms;
        let r = t % sms;
        let strategy = Strategy::TwoTileStreamKDp { sms };
        if r == 0 {
            let mut dp = Self::data_parallel(shape, tile);
            dp.strategy = strategy;
            return dp;
        }
        if w == 0 {
            // Fewer tiles than cores: the whole problem is the
            // Stream-K region.
            let grid = sms.min(space.total_iters());
            let mut sk = Self::stream_k(shape, tile, grid);
            sk.strategy = strategy;
            return sk;
        }
        let sk_tiles = sms + r; // between p+1 and 2p-1
        let sk_iters = sk_tiles * ipt;
        let mut ctas = balanced_ranges(sk_iters, sms, 0, 0);
        let dp_tiles = t - sk_tiles;
        ctas.extend((0..dp_tiles).map(|i| {
            let first = sk_iters + i * ipt;
            CtaWork { cta_id: sms + i, iter_begin: first, iter_end: first + ipt }
        }));
        Self { space, strategy, ctas }
    }

    /// Builds the decomposition `strategy` describes.
    #[must_use]
    pub fn from_strategy(shape: GemmShape, tile: TileShape, strategy: Strategy) -> Self {
        match strategy {
            Strategy::DataParallel => Self::data_parallel(shape, tile),
            Strategy::FixedSplit { split } => Self::fixed_split(shape, tile, split),
            Strategy::StreamK { grid } => Self::stream_k(shape, tile, grid),
            Strategy::DpOneTileStreamK { sms } => Self::dp_one_tile_stream_k(shape, tile, sms),
            Strategy::TwoTileStreamKDp { sms } => Self::two_tile_stream_k_dp(shape, tile, sms),
        }
    }

    /// Re-targets this decomposition onto a cache-aware tile
    /// traversal order (§7 future work). CTA iteration ranges,
    /// ownership and fixup structure are untouched — schedule tile
    /// `s` simply lands on the `s`-th coordinate of the order's
    /// permutation instead of the row-major one.
    #[must_use]
    pub fn with_tile_order(mut self, order: crate::order::TileOrder) -> Self {
        self.space = IterSpace::with_order(self.space.shape(), self.space.tile(), order);
        self
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The iteration space being decomposed.
    #[must_use]
    pub fn space(&self) -> &IterSpace {
        &self.space
    }

    /// The strategy that produced this decomposition.
    #[must_use]
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The grid size (number of CTAs, including empty ones).
    #[must_use]
    pub fn grid_size(&self) -> usize {
        self.ctas.len()
    }

    /// The per-CTA work assignments, in CTA-id order.
    #[must_use]
    pub fn ctas(&self) -> &[CtaWork] {
        &self.ctas
    }

    /// The largest per-CTA iteration count.
    #[must_use]
    pub fn max_iters_per_cta(&self) -> usize {
        self.ctas.iter().map(CtaWork::len).max().unwrap_or(0)
    }

    /// The smallest *non-empty* per-CTA iteration count (0 if all CTAs
    /// are empty).
    #[must_use]
    pub fn min_iters_per_cta(&self) -> usize {
        self.ctas.iter().map(CtaWork::len).filter(|&l| l > 0).min().unwrap_or(0)
    }

    /// Iteration-count imbalance `max − min` over non-empty CTAs. The
    /// paper's Stream-K guarantee is that this is ≤ 1.
    #[must_use]
    pub fn iter_imbalance(&self) -> usize {
        self.max_iters_per_cta() - self.min_iters_per_cta()
    }

    /// The consolidation structure of every output tile, in tile
    /// order. Tiles wholly produced by one CTA have no peers.
    #[must_use]
    pub fn fixups(&self) -> Vec<TileFixup> {
        let segments =
            self.ctas.iter().flat_map(|cta| cta.segments(&self.space).map(|seg| (cta.cta_id, seg.tile_idx, seg.starts_tile)));
        fold_fixups(self.space.tiles(), segments)
    }

    /// Number of tiles that require cross-CTA consolidation — the
    /// count of "splitting seams", which for Stream-K is O(g) rather
    /// than O(t) (paper §7).
    #[must_use]
    pub fn split_tiles(&self) -> usize {
        self.fixups().iter().filter(|f| !f.is_data_parallel()).count()
    }

    /// Checks every structural invariant, returning a description of
    /// the first violation. Used by tests and property tests; cheap
    /// enough to run on every simulator input in debug builds.
    ///
    /// # Errors
    ///
    /// Returns `Err` with a human-readable description if any invariant
    /// fails.
    pub fn validate(&self) -> Result<(), String> {
        // 1. Dense ids, ranges forming a contiguous ascending cover.
        check_cover(&self.ctas, self.space.total_iters())?;
        // 2. Every CTA stores at most one partial record: only its
        //    first segment may be a non-starting contribution.
        for cta in &self.ctas {
            for (i, seg) in cta.segments(&self.space).enumerate() {
                if i > 0 && !seg.starts_tile {
                    return Err(format!("cta {} has a non-starting segment after its first", cta.cta_id));
                }
            }
        }
        // 3. Tile ownership and peer consecutiveness.
        for fixup in self.fixups() {
            for (i, &peer) in fixup.peers.iter().enumerate() {
                if peer != fixup.owner + i + 1 {
                    return Err(format!(
                        "tile {} peers {:?} not consecutive after owner {}",
                        fixup.tile_idx, fixup.peers, fixup.owner
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Folds a grid's tile segments — `(cta, tile, starts_tile)`, in CTA
/// order — into the consolidation structure of each of its `tiles`
/// tiles: the CTA that starts a tile owns it, every other CTA touching
/// it is a peer, in ascending id order.
///
/// # Panics
///
/// Panics if a tile has no owner (the grid does not cover it).
pub(crate) fn fold_fixups(tiles: usize, segments: impl Iterator<Item = (usize, usize, bool)>) -> Vec<TileFixup> {
    let mut fixups: Vec<TileFixup> =
        (0..tiles).map(|tile_idx| TileFixup { tile_idx, owner: usize::MAX, peers: Vec::new() }).collect();
    for (cta, tile, starts_tile) in segments {
        let fixup = &mut fixups[tile];
        if starts_tile {
            fixup.owner = cta;
        } else {
            fixup.peers.push(cta);
        }
    }
    if let Some(orphan) = fixups.iter().find(|f| f.owner == usize::MAX) {
        panic!("tile {} has no owner — invalid decomposition", orphan.tile_idx);
    }
    fixups
}

/// Checks that `ctas` have dense ids in order and ranges forming a
/// contiguous ascending cover of `[0, total)`, returning the first
/// violation.
pub(crate) fn check_cover(ctas: &[CtaWork], total: usize) -> Result<(), String> {
    let mut cursor = 0;
    for (i, cta) in ctas.iter().enumerate() {
        if cta.cta_id != i {
            return Err(format!("cta at position {i} has id {}", cta.cta_id));
        }
        if cta.iter_begin > cta.iter_end {
            return Err(format!("cta {i} has inverted range [{}, {})", cta.iter_begin, cta.iter_end));
        }
        if cta.iter_begin != cursor {
            return Err(format!("cta {i} begins at {} but previous coverage ended at {cursor}", cta.iter_begin));
        }
        cursor = cta.iter_end;
    }
    if cursor == total {
        Ok(())
    } else {
        Err(format!("coverage ends at {cursor}, expected {total}"))
    }
}

/// Splits `total` iterations across `grid` CTAs so shares differ by at
/// most one, offset by `iter_offset` and with CTA ids starting at
/// `id_offset`.
///
/// # Panics
///
/// Panics if `grid == 0`.
pub(crate) fn balanced_ranges(total: usize, grid: usize, iter_offset: usize, id_offset: usize) -> Vec<CtaWork> {
    assert!(grid > 0, "grid size must be at least 1");
    let base = total / grid;
    let rem = total % grid;
    let mut ctas = Vec::with_capacity(grid);
    let mut cursor = iter_offset;
    for i in 0..grid {
        let len = base + usize::from(i < rem);
        ctas.push(CtaWork { cta_id: id_offset + i, iter_begin: cursor, iter_end: cursor + len });
        cursor += len;
    }
    ctas
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2_SHAPE: GemmShape = GemmShape { m: 384, n: 384, k: 128 };
    const FIG2_TILE: TileShape = TileShape { blk_m: 128, blk_n: 128, blk_k: 4 };

    #[test]
    fn data_parallel_one_cta_per_tile() {
        let d = Decomposition::data_parallel(FIG2_SHAPE, FIG2_TILE);
        assert_eq!(d.grid_size(), 9);
        assert!(d.validate().is_ok());
        assert_eq!(d.iter_imbalance(), 0);
        assert_eq!(d.split_tiles(), 0);
        for f in d.fixups() {
            assert!(f.is_data_parallel());
            assert_eq!(f.owner, f.tile_idx);
        }
    }

    /// Figure 2a: fixed-split s=2 over 9 tiles → 18 CTAs, each with 16
    /// of the 32 per-tile iterations.
    #[test]
    fn fixed_split_figure2a() {
        let d = Decomposition::fixed_split(FIG2_SHAPE, FIG2_TILE, 2);
        assert_eq!(d.grid_size(), 18);
        assert!(d.validate().is_ok());
        assert_eq!(d.max_iters_per_cta(), 16);
        assert_eq!(d.min_iters_per_cta(), 16);
        // Every tile is a seam with exactly one peer.
        for f in d.fixups() {
            assert_eq!(f.covering_ctas(), 2);
            assert_eq!(f.owner, f.tile_idx * 2);
            assert_eq!(f.peers, vec![f.tile_idx * 2 + 1]);
        }
    }

    #[test]
    fn fixed_split_ragged_leaves_empty_ctas() {
        // 5 iterations per tile split 4 ways: ⌈5/4⌉=2 → splits of
        // 2,2,1,0.
        let shape = GemmShape::new(64, 64, 5 * 16);
        let tile = TileShape::new(64, 64, 16);
        let d = Decomposition::fixed_split(shape, tile, 4);
        assert!(d.validate().is_ok());
        let lens: Vec<_> = d.ctas().iter().map(CtaWork::len).collect();
        assert_eq!(lens, vec![2, 2, 1, 0]);
    }

    /// Figure 2b: basic Stream-K with g=4 over 288 iterations → every
    /// CTA gets exactly 72.
    #[test]
    fn stream_k_figure2b() {
        let d = Decomposition::stream_k(FIG2_SHAPE, FIG2_TILE, 4);
        assert_eq!(d.grid_size(), 4);
        assert!(d.validate().is_ok());
        assert_eq!(d.max_iters_per_cta(), 72);
        assert_eq!(d.min_iters_per_cta(), 72);
        // 9 tiles over 4 CTAs: tiles 2, 4 (covered half/half) — the
        // seams are wherever 72 doesn't align with 32.
        assert_eq!(d.split_tiles(), 3); // tiles 2, 4, 6 are split
    }

    #[test]
    fn stream_k_within_one_balance() {
        for g in 1..40 {
            let d = Decomposition::stream_k(FIG2_SHAPE, FIG2_TILE, g);
            assert!(d.validate().is_ok(), "g={g}: {:?}", d.validate());
            assert!(d.iter_imbalance() <= 1, "g={g} imbalance {}", d.iter_imbalance());
        }
    }

    /// Paper §4: Stream-K with g = t behaves exactly as data-parallel.
    #[test]
    fn stream_k_generalizes_data_parallel() {
        let sk = Decomposition::stream_k(FIG2_SHAPE, FIG2_TILE, 9);
        let dp = Decomposition::data_parallel(FIG2_SHAPE, FIG2_TILE);
        assert_eq!(sk.ctas(), dp.ctas());
    }

    /// Paper §4: Stream-K with g = s·t behaves exactly as fixed-split
    /// when the split divides the per-tile iteration count.
    #[test]
    fn stream_k_generalizes_fixed_split() {
        // 32 iters per tile, s=2 divides evenly.
        let sk = Decomposition::stream_k(FIG2_SHAPE, FIG2_TILE, 18);
        let fs = Decomposition::fixed_split(FIG2_SHAPE, FIG2_TILE, 2);
        assert_eq!(sk.ctas(), fs.ctas());
    }

    #[test]
    fn stream_k_grid_larger_than_iters() {
        let shape = GemmShape::new(64, 64, 32);
        let tile = TileShape::new(64, 64, 16);
        // 2 iterations total, 5 CTAs: 3 empty.
        let d = Decomposition::stream_k(shape, tile, 5);
        assert!(d.validate().is_ok());
        let nonempty = d.ctas().iter().filter(|c| !c.is_empty()).count();
        assert_eq!(nonempty, 2);
    }

    #[test]
    fn one_tile_hybrid_figure3b() {
        // Figure 3: 896×384×128 on 4 SMs with 128×128×32 blocking →
        // 7×3 = 21 tiles, 4 iters/tile; w = 5 full waves, r = 1.
        let shape = GemmShape::new(896, 384, 128);
        let tile = TileShape::new(128, 128, 32);
        let d = Decomposition::dp_one_tile_stream_k(shape, tile, 4);
        assert!(d.validate().is_ok());
        // 20 DP CTAs + 4 SK CTAs over the last tile's 4 iterations.
        assert_eq!(d.grid_size(), 24);
        let sk_lens: Vec<_> = d.ctas()[20..].iter().map(CtaWork::len).collect();
        assert_eq!(sk_lens, vec![1, 1, 1, 1]);
        // The final tile is owned by CTA 20 with peers 21..24.
        let f = d.fixups().pop().unwrap();
        assert_eq!(f.owner, 20);
        assert_eq!(f.peers, vec![21, 22, 23]);
    }

    #[test]
    fn two_tile_hybrid_figure3c() {
        let shape = GemmShape::new(896, 384, 128);
        let tile = TileShape::new(128, 128, 32);
        let d = Decomposition::two_tile_stream_k_dp(shape, tile, 4);
        assert!(d.validate().is_ok());
        // SK region: 4 + 1 = 5 tiles (20 iters) over 4 CTAs (5 each);
        // DP region: 16 tiles. Grid = 4 + 16 = 20 = exactly 5 waves.
        assert_eq!(d.grid_size(), 20);
        for cta in &d.ctas()[..4] {
            assert_eq!(cta.len(), 5);
        }
        for cta in &d.ctas()[4..] {
            assert_eq!(cta.len(), 4);
        }
        // Every SK CTA receives more than one tile's worth (5 > 4) but
        // fewer than two (5 < 8) — the "two-tile" property.
        // Each split tile has exactly one peer.
        for f in d.fixups() {
            assert!(f.covering_ctas() <= 2, "tile {} covered by {}", f.tile_idx, f.covering_ctas());
        }
    }

    #[test]
    fn hybrids_degenerate_to_dp_on_perfect_quantization() {
        // 8 tiles on 4 SMs: two full waves, r = 0.
        let shape = GemmShape::new(256, 512, 64);
        let tile = TileShape::new(128, 128, 16);
        let one = Decomposition::dp_one_tile_stream_k(shape, tile, 4);
        let two = Decomposition::two_tile_stream_k_dp(shape, tile, 4);
        let dp = Decomposition::data_parallel(shape, tile);
        assert_eq!(one.ctas(), dp.ctas());
        assert_eq!(two.ctas(), dp.ctas());
    }

    #[test]
    fn two_tile_hybrid_degenerates_to_stream_k_when_few_tiles() {
        // 2 tiles on 4 SMs (t < p).
        let shape = GemmShape::new(128, 256, 512);
        let tile = TileShape::new(128, 128, 16);
        let d = Decomposition::two_tile_stream_k_dp(shape, tile, 4);
        assert!(d.validate().is_ok());
        assert_eq!(d.grid_size(), 4);
        assert_eq!(d.iter_imbalance(), 0); // 64 iters over 4 CTAs
    }

    #[test]
    fn from_strategy_round_trips() {
        for strategy in [
            Strategy::DataParallel,
            Strategy::FixedSplit { split: 3 },
            Strategy::StreamK { grid: 4 },
            Strategy::DpOneTileStreamK { sms: 4 },
            Strategy::TwoTileStreamKDp { sms: 4 },
        ] {
            let d = Decomposition::from_strategy(FIG2_SHAPE, FIG2_TILE, strategy);
            assert_eq!(d.strategy(), strategy);
            assert!(d.validate().is_ok(), "{strategy}: {:?}", d.validate());
        }
    }

    #[test]
    fn split_tiles_scale_with_grid_not_tiles() {
        // A large problem: Stream-K's seams stay bounded by g while
        // fixed-split's grow with t.
        let shape = GemmShape::new(2048, 2048, 512);
        let tile = TileShape::new(128, 128, 32);
        let sk = Decomposition::stream_k(shape, tile, 108);
        assert!(sk.split_tiles() <= 108);
        let fs = Decomposition::fixed_split(shape, tile, 2);
        assert_eq!(fs.split_tiles(), 256); // every tile
    }

    #[test]
    fn strategy_display() {
        assert_eq!(Strategy::DataParallel.to_string(), "data-parallel");
        assert_eq!(Strategy::StreamK { grid: 7 }.to_string(), "stream-k(g=7)");
    }
}
