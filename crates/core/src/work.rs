//! Per-CTA work descriptors.

use crate::space::IterSpace;

/// The contiguous range of linear MAC-loop iterations assigned to one
/// CTA (Algorithm 5 lines 7-8).
///
/// An empty range (`iter_begin == iter_end`) is legal — e.g. a
/// fixed-split launch whose splitting factor exceeds a tile's
/// iteration count leaves some CTAs with nothing to do — and executors
/// treat such CTAs as immediate no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtaWork {
    /// This CTA's index within the grid.
    pub cta_id: usize,
    /// First linear iteration (inclusive).
    pub iter_begin: usize,
    /// Last linear iteration (exclusive).
    pub iter_end: usize,
}

impl CtaWork {
    /// Number of MAC-loop iterations assigned to this CTA.
    #[must_use]
    pub fn len(&self) -> usize {
        self.iter_end - self.iter_begin
    }

    /// `true` when the CTA has no work.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.iter_begin == self.iter_end
    }

    /// Splits this CTA's range at tile boundaries, yielding one
    /// [`TileSegment`] per output tile it touches, in execution order
    /// (Algorithm 5's iteration-processing outer loop).
    pub fn segments(&self, space: &IterSpace) -> impl Iterator<Item = TileSegment> + '_ {
        SegmentIter { iters_per_tile: space.iters_per_tile(), iter: self.iter_begin, iter_end: self.iter_end }
    }
}

/// One CTA's slice of one output tile: a range of *local* MAC-loop
/// iterations `[local_begin, local_end)` within `tile_idx`'s
/// `iters_per_tile`-long accumulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSegment {
    /// The output tile this segment accumulates into.
    pub tile_idx: usize,
    /// First local iteration (inclusive); 0 means this CTA *starts*
    /// the tile and will own its output.
    pub local_begin: usize,
    /// Last local iteration (exclusive); `iters_per_tile` means this
    /// CTA *ends* the tile.
    pub local_end: usize,
    /// Whether this segment performs the tile's k=0 iteration.
    pub starts_tile: bool,
    /// Whether this segment performs the tile's final iteration.
    pub ends_tile: bool,
}

impl TileSegment {
    /// Number of local iterations in this segment.
    #[must_use]
    pub fn len(&self) -> usize {
        self.local_end - self.local_begin
    }

    /// `true` when the segment is empty (never produced by
    /// [`CtaWork::segments`], but useful defensively).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.local_begin == self.local_end
    }

    /// `true` when this CTA covers the whole tile alone (the
    /// data-parallel case — no fixup needed).
    #[must_use]
    pub fn covers_whole_tile(&self) -> bool {
        self.starts_tile && self.ends_tile
    }
}

struct SegmentIter {
    iters_per_tile: usize,
    iter: usize,
    iter_end: usize,
}

impl Iterator for SegmentIter {
    type Item = TileSegment;

    fn next(&mut self) -> Option<TileSegment> {
        if self.iter >= self.iter_end {
            return None;
        }
        let ipt = self.iters_per_tile;
        let tile_idx = self.iter / ipt;
        let tile_first = tile_idx * ipt;
        let seg_end = self.iter_end.min(tile_first + ipt);
        let seg = TileSegment {
            tile_idx,
            local_begin: self.iter - tile_first,
            local_end: seg_end - tile_first,
            starts_tile: self.iter == tile_first,
            ends_tile: seg_end == tile_first + ipt,
        };
        self.iter = seg_end;
        Some(seg)
    }
}

/// The consolidation ("fixup") structure of one output tile: which CTA
/// owns the output and which CTAs contribute partial sums (§4).
///
/// The owner is the CTA that performed the tile's k=0 iteration; every
/// other covering CTA stores a partial-sum record and signals a flag,
/// and the owner waits on each peer before accumulating and writing
/// the final tile (Algorithm 5 lines 20-39).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileFixup {
    /// The output tile.
    pub tile_idx: usize,
    /// The CTA that starts the tile and writes the final output.
    pub owner: usize,
    /// CTAs contributing partial sums, in ascending id order. Empty in
    /// the data-parallel case. Because every strategy assigns
    /// iteration ranges in ascending CTA order, peers are exactly
    /// `owner+1 ..= owner+peers.len()`.
    pub peers: Vec<usize>,
}

impl TileFixup {
    /// Total CTAs covering this tile (owner + peers) — the
    /// `FixupPeers` quantity of the Appendix A.1 model.
    #[must_use]
    pub fn covering_ctas(&self) -> usize {
        1 + self.peers.len()
    }

    /// `true` when the tile needs no cross-CTA consolidation.
    #[must_use]
    pub fn is_data_parallel(&self) -> bool {
        self.peers.is_empty()
    }
}

/// Per-owner peer lists in one flat CSR table, indexed by CTA id.
///
/// Executors consult "who are CTA `i`'s fixup peers?" once per owner
/// segment; building that lookup by cloning each [`TileFixup`]'s peers
/// vector costs one heap allocation per split tile per launch. The
/// table stores all peer lists in two flat vectors instead (offsets +
/// concatenated ids) — two allocations per launch, borrowed slices
/// everywhere after.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerTable {
    /// `offsets[i]..offsets[i + 1]` indexes `peers` for owner `i`.
    offsets: Vec<usize>,
    /// All peer ids, concatenated in owner order, each list ascending.
    peers: Vec<usize>,
}

impl PeerTable {
    /// Builds the table for a grid of `grid` CTAs from its fixups.
    ///
    /// # Panics
    ///
    /// Panics if a fixup names an owner outside the grid.
    #[must_use]
    pub fn new(grid: usize, fixups: &[TileFixup]) -> Self {
        // One table does both jobs. Peer counts go in two slots past
        // their owner, so after the prefix sum slot `i + 1` holds where
        // owner `i`'s list *starts*; filling advances it to where the
        // list ends — which is where owner `i + 1`'s starts, the
        // offset layout `peers` reads.
        let mut offsets = vec![0usize; grid + 2];
        for f in fixups {
            assert!(f.owner < grid, "fixup owner {} outside grid of {grid}", f.owner);
            offsets[f.owner + 2] += f.peers.len();
        }
        for i in 2..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut peers = vec![0usize; offsets[grid + 1]];
        for f in fixups {
            for &p in &f.peers {
                peers[offsets[f.owner + 1]] = p;
                offsets[f.owner + 1] += 1;
            }
        }
        offsets.truncate(grid + 1);
        Self { offsets, peers }
    }

    /// The fixup peers of CTA `owner`, in ascending id order (empty
    /// for CTAs that own no split tile).
    ///
    /// # Panics
    ///
    /// Panics if `owner` is outside the grid.
    #[must_use]
    pub fn peers(&self, owner: usize) -> &[usize] {
        &self.peers[self.offsets[owner]..self.offsets[owner + 1]]
    }

    /// The grid size this table was built for.
    #[must_use]
    pub fn grid(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total peer entries across all owners.
    #[must_use]
    pub fn total_peers(&self) -> usize {
        self.peers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_types::{GemmShape, TileShape};

    fn space() -> IterSpace {
        // 9 tiles x 32 iters = 288 total (Figure 2b).
        IterSpace::new(GemmShape::new(384, 384, 128), TileShape::new(128, 128, 4))
    }

    #[test]
    fn single_tile_segment() {
        let s = space();
        let cta = CtaWork { cta_id: 0, iter_begin: 32, iter_end: 64 };
        let segs: Vec<_> = cta.segments(&s).collect();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].tile_idx, 1);
        assert!(segs[0].starts_tile && segs[0].ends_tile);
        assert!(segs[0].covers_whole_tile());
    }

    #[test]
    fn cross_tile_segments() {
        let s = space();
        // Figure 2b, CTA 0: iterations [0, 72) = tile 0 fully + first
        // 40 of ... no: 72 = 32 + 32 + 8, so tiles 0, 1 fully and the
        // first 8 iterations of tile 2.
        let cta = CtaWork { cta_id: 0, iter_begin: 0, iter_end: 72 };
        let segs: Vec<_> = cta.segments(&s).collect();
        assert_eq!(segs.len(), 3);
        assert!(segs[0].covers_whole_tile());
        assert!(segs[1].covers_whole_tile());
        assert_eq!(segs[2].tile_idx, 2);
        assert_eq!((segs[2].local_begin, segs[2].local_end), (0, 8));
        assert!(segs[2].starts_tile);
        assert!(!segs[2].ends_tile);
    }

    #[test]
    fn mid_tile_start_segment() {
        let s = space();
        // Figure 2b, CTA 1: iterations [72, 144) — finishes tile 2
        // (local 8..32), covers tile 3, starts tile 4 (local 0..16).
        let cta = CtaWork { cta_id: 1, iter_begin: 72, iter_end: 144 };
        let segs: Vec<_> = cta.segments(&s).collect();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].tile_idx, 2);
        assert_eq!((segs[0].local_begin, segs[0].local_end), (8, 32));
        assert!(!segs[0].starts_tile);
        assert!(segs[0].ends_tile);
        assert_eq!(segs[1].tile_idx, 3);
        assert!(segs[1].covers_whole_tile());
        assert_eq!(segs[2].tile_idx, 4);
        assert_eq!((segs[2].local_begin, segs[2].local_end), (0, 16));
    }

    #[test]
    fn segments_partition_the_range() {
        let s = space();
        for (b, e) in [(0usize, 288usize), (5, 200), (31, 33), (100, 101), (0, 1)] {
            let cta = CtaWork { cta_id: 0, iter_begin: b, iter_end: e };
            let total: usize = cta.segments(&s).map(|seg| seg.len()).sum();
            assert_eq!(total, e - b, "range [{b},{e})");
        }
    }

    #[test]
    fn empty_cta_yields_no_segments() {
        let s = space();
        let cta = CtaWork { cta_id: 3, iter_begin: 100, iter_end: 100 };
        assert!(cta.is_empty());
        assert_eq!(cta.segments(&s).count(), 0);
    }

    #[test]
    fn fixup_counts() {
        let f = TileFixup { tile_idx: 0, owner: 2, peers: vec![3, 4] };
        assert_eq!(f.covering_ctas(), 3);
        assert!(!f.is_data_parallel());
        let dp = TileFixup { tile_idx: 1, owner: 0, peers: vec![] };
        assert!(dp.is_data_parallel());
    }

    #[test]
    fn peer_table_matches_fixups() {
        let fixups = vec![
            TileFixup { tile_idx: 0, owner: 0, peers: vec![1, 2] },
            TileFixup { tile_idx: 3, owner: 2, peers: vec![] },
            TileFixup { tile_idx: 5, owner: 4, peers: vec![5, 6, 7] },
        ];
        let table = PeerTable::new(8, &fixups);
        assert_eq!(table.grid(), 8);
        assert_eq!(table.total_peers(), 5);
        assert_eq!(table.peers(0), &[1, 2]);
        assert_eq!(table.peers(2), &[] as &[usize]);
        assert_eq!(table.peers(4), &[5, 6, 7]);
        for owner in [1, 3, 5, 6, 7] {
            assert!(table.peers(owner).is_empty(), "owner {owner}");
        }
    }

    #[test]
    fn peer_table_of_empty_grid() {
        let table = PeerTable::new(0, &[]);
        assert_eq!(table.grid(), 0);
        assert_eq!(table.total_peers(), 0);
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn peer_table_rejects_out_of_grid_owner() {
        let _ = PeerTable::new(2, &[TileFixup { tile_idx: 0, owner: 5, peers: vec![6] }]);
    }
}
