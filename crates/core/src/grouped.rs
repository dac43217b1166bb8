//! Grouped GEMM — one Stream-K grid over instances of *different*
//! shapes.
//!
//! Grouped GEMM schedules a set of problems with unrelated extents (the
//! mixture a transformer layer or a multi-tenant serving batch
//! produces) as **one** launch: the per-instance iteration spaces are
//! concatenated — `group₀ → group₁ → …`, each internally m→n→k — and
//! the aggregate iteration count splits evenly across the grid. This
//! is precisely the workload class the paper's §7 points Stream-K at:
//! per-instance tile counts quantize terribly alone, and their *sum*
//! quantizes perfectly.
//!
//! All instances share one blocking factor (one kernel — the paper's
//! single-kernel story), but may differ in every problem extent. A
//! uniform [`batch`](crate::batched) is the group whose members share
//! one shape.

use crate::decomposition::{balanced_ranges, check_cover, fold_fixups};
use crate::space::IterSpace;
use crate::work::{CtaWork, TileFixup};
use streamk_types::{GemmShape, TileShape};

/// A segment of one CTA's work within one instance's tile, located in
/// group coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupedSegment {
    /// Which instance.
    pub instance: usize,
    /// Tile index *within* that instance.
    pub local_tile: usize,
    /// Tile index in the global (concatenated) numbering.
    pub global_tile: usize,
    /// First local MAC iteration within the tile (inclusive).
    pub local_begin: usize,
    /// Last local MAC iteration (exclusive).
    pub local_end: usize,
    /// Whether this segment performs the tile's first iteration.
    pub starts_tile: bool,
    /// Whether this segment performs the tile's last iteration.
    pub ends_tile: bool,
}

/// The concatenated iteration space of a group of GEMMs sharing one
/// blocking factor.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedSpace {
    instances: Vec<IterSpace>,
    /// Prefix sums: `iter_offsets[i]` is the first global iteration of
    /// instance `i`; last entry is the total.
    iter_offsets: Vec<usize>,
    /// Prefix sums over tiles, same convention.
    tile_offsets: Vec<usize>,
}

impl GroupedSpace {
    /// Builds the space for `shapes` blocked by `tile`.
    ///
    /// # Panics
    ///
    /// Panics if `shapes` is empty.
    #[must_use]
    pub fn new(shapes: &[GemmShape], tile: TileShape) -> Self {
        assert!(!shapes.is_empty(), "grouped GEMM needs at least one instance");
        let instances: Vec<IterSpace> = shapes.iter().map(|&s| IterSpace::new(s, tile)).collect();
        let mut iter_offsets = Vec::with_capacity(instances.len() + 1);
        let mut tile_offsets = Vec::with_capacity(instances.len() + 1);
        let (mut it, mut tl) = (0usize, 0usize);
        for space in &instances {
            iter_offsets.push(it);
            tile_offsets.push(tl);
            it += space.total_iters();
            tl += space.tiles();
        }
        iter_offsets.push(it);
        tile_offsets.push(tl);
        Self { instances, iter_offsets, tile_offsets }
    }

    /// The per-instance spaces.
    #[must_use]
    pub fn instances(&self) -> &[IterSpace] {
        &self.instances
    }

    /// Number of instances.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.instances.len()
    }

    /// Total MAC-loop iterations across the group.
    #[must_use]
    pub fn total_iters(&self) -> usize {
        *self.iter_offsets.last().expect("non-empty")
    }

    /// Total output tiles across the group.
    #[must_use]
    pub fn tiles(&self) -> usize {
        *self.tile_offsets.last().expect("non-empty")
    }

    /// The instance containing global iteration `iter` (binary
    /// search over the prefix sums).
    ///
    /// # Panics
    ///
    /// Panics if `iter` is out of range.
    #[must_use]
    pub fn instance_of(&self, iter: usize) -> usize {
        assert!(iter < self.total_iters(), "iteration {iter} out of range");
        self.iter_offsets.partition_point(|&o| o <= iter) - 1
    }

    /// Splits a CTA's contiguous global range into
    /// [`GroupedSegment`]s, crossing tile and instance boundaries. Finds
    /// the first segment's instance by binary search and steps to the
    /// next instances from there.
    pub fn segments(&self, cta: &CtaWork) -> impl Iterator<Item = GroupedSegment> + '_ {
        let (mut iter, end) = (cta.iter_begin, cta.iter_end);
        let mut instance = if iter < end { self.instance_of(iter) } else { 0 };
        std::iter::from_fn(move || {
            if iter >= end {
                return None;
            }
            while self.iter_offsets[instance + 1] <= iter {
                instance += 1;
            }
            let base = self.iter_offsets[instance];
            let ipt = self.instances[instance].iters_per_tile();
            let local_tile = (iter - base) / ipt;
            let tile_first = base + local_tile * ipt;
            let tile_end = tile_first + ipt;
            let seg_end = end.min(tile_end);
            let seg = GroupedSegment {
                instance,
                local_tile,
                global_tile: self.tile_offsets[instance] + local_tile,
                local_begin: iter - tile_first,
                local_end: seg_end - tile_first,
                starts_tile: iter == tile_first,
                ends_tile: seg_end == tile_end,
            };
            iter = seg_end;
            Some(seg)
        })
    }
}

/// A Stream-K (or degenerate data-parallel) decomposition of a
/// grouped GEMM.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedDecomposition {
    space: GroupedSpace,
    ctas: Vec<CtaWork>,
    grid: usize,
}

impl GroupedDecomposition {
    /// Stream-K across the whole group: `grid` CTAs, each receiving an
    /// even share (within one) of every instance's iterations
    /// combined.
    ///
    /// # Panics
    ///
    /// Panics if `grid == 0`.
    #[must_use]
    pub fn stream_k(space: GroupedSpace, grid: usize) -> Self {
        let ctas = balanced_ranges(space.total_iters(), grid, 0, 0);
        Self { space, ctas, grid }
    }

    /// One CTA per global tile — the grouped data-parallel baseline.
    /// (Only when every instance takes the same iterations per tile, as
    /// a uniform batch's do, is this Stream-K at one CTA per tile.)
    #[must_use]
    pub fn data_parallel(space: GroupedSpace) -> Self {
        let mut ctas = Vec::with_capacity(space.tiles());
        let mut id = 0usize;
        for (i, inst) in space.instances.iter().enumerate() {
            let base = space.iter_offsets[i];
            let ipt = inst.iters_per_tile();
            for t in 0..inst.tiles() {
                ctas.push(CtaWork { cta_id: id, iter_begin: base + t * ipt, iter_end: base + (t + 1) * ipt });
                id += 1;
            }
        }
        let grid = ctas.len();
        Self { space, ctas, grid }
    }

    /// The grouped space.
    #[must_use]
    pub fn space(&self) -> &GroupedSpace {
        &self.space
    }

    /// Grid size.
    #[must_use]
    pub fn grid_size(&self) -> usize {
        self.grid
    }

    /// Per-CTA assignments over the concatenated iteration space.
    #[must_use]
    pub fn ctas(&self) -> &[CtaWork] {
        &self.ctas
    }

    /// Consolidation structure over global tile ids, folded as
    /// [`Decomposition::fixups`](crate::Decomposition::fixups) folds a
    /// single GEMM's.
    #[must_use]
    pub fn fixups(&self) -> Vec<TileFixup> {
        let segments = self.ctas.iter().flat_map(|cta| {
            self.space.segments(cta).map(|seg| (cta.cta_id, seg.global_tile, seg.starts_tile))
        });
        fold_fixups(self.space.tiles(), segments)
    }

    /// Structural validation: contiguous exact cover, dense ids, and
    /// per-tile segment partitions.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        check_cover(&self.ctas, self.space.total_iters())?;
        // Every tile's segments, met in CTA order, cover its iterations
        // once each and in order, and the tiles follow one another.
        let (mut tile, mut next) = (0, 0);
        for seg in self.ctas.iter().flat_map(|cta| self.space.segments(cta)) {
            if (seg.global_tile, seg.local_begin) != (tile, next) {
                return Err(format!(
                    "global tile {} resumes at {} where tile {tile} was covered to {next}",
                    seg.global_tile, seg.local_begin
                ));
            }
            next = seg.local_end;
            if seg.ends_tile {
                (tile, next) = (tile + 1, 0);
            }
        }
        if tile == self.space.tiles() {
            Ok(())
        } else {
            Err(format!("segments end in global tile {tile} of {}", self.space.tiles()))
        }
    }

    /// Iteration imbalance across non-empty CTAs.
    #[must_use]
    pub fn iter_imbalance(&self) -> usize {
        let max = self.ctas.iter().map(CtaWork::len).max().unwrap_or(0);
        let min = self.ctas.iter().map(CtaWork::len).filter(|&l| l > 0).min().unwrap_or(0);
        max - min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_space() -> GroupedSpace {
        // Three very different instances sharing a 16x16x8 blocking:
        //  - 32x32x32: 4 tiles x 4 iters = 16
        //  - 48x16x64: 3 tiles x 8 iters = 24
        //  - 16x16x8 : 1 tile  x 1 iter  = 1
        GroupedSpace::new(
            &[GemmShape::new(32, 32, 32), GemmShape::new(48, 16, 64), GemmShape::new(16, 16, 8)],
            TileShape::new(16, 16, 8),
        )
    }

    #[test]
    fn prefix_sums() {
        let s = mixed_space();
        assert_eq!(s.groups(), 3);
        assert_eq!(s.total_iters(), 16 + 24 + 1);
        assert_eq!(s.tiles(), 4 + 3 + 1);
        assert_eq!(s.instance_of(0), 0);
        assert_eq!(s.instance_of(15), 0);
        assert_eq!(s.instance_of(16), 1);
        assert_eq!(s.instance_of(39), 1);
        assert_eq!(s.instance_of(40), 2);
    }

    #[test]
    fn segments_cross_instances() {
        let s = mixed_space();
        // A CTA spanning the end of instance 0 and start of instance 1.
        let cta = CtaWork { cta_id: 0, iter_begin: 14, iter_end: 30 };
        let segs: Vec<GroupedSegment> = s.segments(&cta).collect();
        // [14,16): tail of instance 0 tile 3; [16,24): instance 1 tile
        // 0 iters 0..8 (whole); [24,30): instance 1 tile 1 iters 0..6.
        assert_eq!(segs.len(), 3);
        assert_eq!((segs[0].instance, segs[0].local_tile, segs[0].local_begin, segs[0].local_end), (0, 3, 2, 4));
        assert!(!segs[0].starts_tile && segs[0].ends_tile);
        assert_eq!((segs[1].instance, segs[1].local_tile), (1, 0));
        assert!(segs[1].starts_tile && segs[1].ends_tile);
        assert_eq!((segs[2].instance, segs[2].local_tile, segs[2].local_end), (1, 1, 6));
        assert!(segs[2].starts_tile && !segs[2].ends_tile);
    }

    #[test]
    fn stream_k_validates_and_balances() {
        for g in [1usize, 2, 3, 5, 7, 11, 41] {
            let d = GroupedDecomposition::stream_k(mixed_space(), g);
            assert!(d.validate().is_ok(), "g={g}: {:?}", d.validate());
            assert!(d.iter_imbalance() <= 1, "g={g}");
        }
    }

    #[test]
    fn data_parallel_one_cta_per_global_tile() {
        let d = GroupedDecomposition::data_parallel(mixed_space());
        assert_eq!(d.grid_size(), 8);
        assert!(d.validate().is_ok());
        assert!(d.fixups().iter().all(|f| f.is_data_parallel()));
        // CTA lengths reflect per-instance iteration depths: 4,4,4,4,
        // 8,8,8, 1.
        let lens: Vec<usize> = d.ctas().iter().map(CtaWork::len).collect();
        assert_eq!(lens, vec![4, 4, 4, 4, 8, 8, 8, 1]);
    }

    #[test]
    fn fixup_peers_are_consecutive() {
        let d = GroupedDecomposition::stream_k(mixed_space(), 5);
        for f in d.fixups() {
            for (i, &p) in f.peers.iter().enumerate() {
                assert_eq!(p, f.owner + i + 1, "tile {}", f.tile_idx);
            }
        }
    }

    #[test]
    fn single_group_matches_plain_stream_k() {
        let shape = GemmShape::new(96, 80, 64);
        let tile = TileShape::new(32, 32, 16);
        let grouped = GroupedDecomposition::stream_k(GroupedSpace::new(&[shape], tile), 5);
        let plain = crate::Decomposition::stream_k(shape, tile, 5);
        assert_eq!(grouped.ctas(), plain.ctas());
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn empty_group_panics() {
        let _ = GroupedSpace::new(&[], TileShape::new(8, 8, 8));
    }
}
