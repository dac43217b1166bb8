//! Cache-aware tile traversal orders.
//!
//! The paper's future-work list (§7) names "cache-aware, tile-access
//! patterns such as Morton Order" as an optimization avenue: the
//! order in which a schedule walks output tiles determines how many
//! distinct **A** row-panels and **B** column-panels one wave of CTAs
//! touches, and therefore how well the L2 can serve the wave.
//!
//! This module provides three orders — row-major (the default
//! m→n→k linearization), a CUTLASS-style column-grouped swizzle, and
//! Morton (Z-curve) — plus the *wave footprint* metric that
//! quantifies their cache friendliness. An order plugs into
//! [`IterSpace`](crate::IterSpace) in one of two ways: a caller pins
//! one with
//! [`Decomposition::with_tile_order`](crate::Decomposition::with_tile_order),
//! or leaves it open and the launch picks [`TileOrder::band`] — column
//! groups when only the operand whose panels run along C's tile
//! columns is packed and no tile is split, row-major otherwise
//! ([`IterSpace::launch_order`](crate::IterSpace::launch_order)). Either
//! way the schedule keeps its iteration ranges, and only the mapping
//! from schedule-tile to output-tile coordinates changes.

use std::sync::Arc;

/// A traversal order over the `tiles_m × tiles_n` output-tile grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TileOrder {
    /// Row-major: tile `s` maps to `(s / tiles_n, s mod tiles_n)`.
    #[default]
    RowMajor,
    /// CUTLASS-style swizzle: tiles are walked in column groups of
    /// the given width, row-major within a group, so a wave stays
    /// within a few **B** column-panels.
    ColumnGrouped(
        /// Group width in tiles (≥ 1).
        usize,
    ),
    /// Morton (Z-curve): tiles sorted by the bit-interleave of their
    /// coordinates, giving quadrant-recursive locality in both
    /// operands.
    Morton,
}

/// The width, in tile columns, of the groups [`TileOrder::band`] walks:
/// two packed panels of the operand plus the row panel they meet stay
/// in a core's L2 at the benchmark's 1024³ and 2048³ f32 launches
/// (EXPERIMENTS.md, "Bands along the packed operand").
pub(crate) const BAND_GROUP: usize = 2;

impl TileOrder {
    /// The order a launch walks an unsplit grid in when the caller left
    /// the order open: the one whose contiguous runs stay within few
    /// panels of the operand that is packed.
    ///
    /// Every worker claims a contiguous run of schedule tiles and packs
    /// into its own shard, so the order decides how many packed panels
    /// a worker touches. Panels that run along C's tile rows (A's) are
    /// banded by row-major; panels that run along C's tile columns
    /// (B's) need column groups of two (`BAND_GROUP`), each walked
    /// row-major, so that a run of `⌈t / W⌉` tiles touches at most
    /// `⌈groups / W⌉ + 1` groups. With both packed, or neither, no
    /// order saves a pack and row-major stays.
    #[must_use]
    pub fn band(rows_pack: bool, columns_pack: bool) -> Self {
        if columns_pack && !rows_pack {
            TileOrder::ColumnGrouped(BAND_GROUP)
        } else {
            TileOrder::RowMajor
        }
    }

    /// Coordinates `(tile_m, tile_n)` of schedule tile `s` over a
    /// `tiles_m × tiles_n` grid, in closed form — `None` for Morton,
    /// whose walk is a sorted table ([`tile_permutation`]).
    ///
    /// # Panics
    ///
    /// Panics on a zero group width.
    #[inline]
    #[must_use]
    pub(crate) fn coords(self, s: usize, tiles_m: usize, tiles_n: usize) -> Option<(usize, usize)> {
        match self {
            TileOrder::RowMajor => Some((s / tiles_n, s % tiles_n)),
            TileOrder::ColumnGrouped(group) => {
                assert!(group > 0, "group width must be at least 1");
                // Every group but the last is `group` columns wide, so
                // the group of `s` is a division; the last one may be
                // narrower.
                let first_col = s / (tiles_m * group) * group;
                let width = group.min(tiles_n - first_col);
                let within = s - first_col * tiles_m;
                Some((within / width, first_col + within % width))
            }
            TileOrder::Morton => None,
        }
    }
}

/// Interleaves the low 32 bits of `x` (even positions) and `y` (odd
/// positions) — the Morton code of `(x, y)`.
#[must_use]
pub fn morton_code(x: u32, y: u32) -> u64 {
    fn spread(v: u32) -> u64 {
        let mut v = u64::from(v);
        v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
        v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
        v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
        v = (v | (v << 2)) & 0x3333_3333_3333_3333;
        v = (v | (v << 1)) & 0x5555_5555_5555_5555;
        v
    }
    spread(x) | (spread(y) << 1)
}

/// The permutation `schedule position → (tile_m, tile_n)` for `order`
/// over a `tiles_m × tiles_n` grid.
///
/// # Panics
///
/// Panics on an empty grid or a zero group width.
#[must_use]
pub fn tile_permutation(order: TileOrder, tiles_m: usize, tiles_n: usize) -> Vec<(usize, usize)> {
    assert!(tiles_m > 0 && tiles_n > 0, "empty tile grid");
    if order == TileOrder::Morton {
        let mut coords: Vec<(usize, usize)> =
            (0..tiles_m).flat_map(|tm| (0..tiles_n).map(move |tn| (tm, tn))).collect();
        coords.sort_by_key(|&(tm, tn)| morton_code(tm as u32, tn as u32));
        return coords;
    }
    (0..tiles_m * tiles_n).map(|s| order.coords(s, tiles_m, tiles_n).expect("a closed-form order")).collect()
}

/// [`tile_permutation`] shared behind an `Arc` (the form `IterSpace`
/// stores for Morton, the one order without closed-form coordinates).
#[must_use]
pub fn shared_permutation(order: TileOrder, tiles_m: usize, tiles_n: usize) -> Arc<[(usize, usize)]> {
    tile_permutation(order, tiles_m, tiles_n).into()
}

/// The *wave footprint* of an order: walking the permutation in waves
/// of `wave` consecutive tiles, the mean count of distinct tile-rows
/// plus distinct tile-columns per wave.
///
/// Each distinct tile-row is an **A** row-panel the wave must hold,
/// each distinct tile-column a **B** column-panel; smaller footprints
/// mean more cross-CTA reuse in the L2 (§5.2's motivation, §7's
/// future work).
///
/// # Panics
///
/// Panics if `wave == 0`.
#[must_use]
pub fn wave_footprint(perm: &[(usize, usize)], wave: usize) -> f64 {
    assert!(wave > 0, "wave must be at least 1");
    if perm.is_empty() {
        return 0.0;
    }
    let mut total = 0usize;
    let mut waves = 0usize;
    for chunk in perm.chunks(wave) {
        let mut rows: Vec<usize> = chunk.iter().map(|&(tm, _)| tm).collect();
        rows.sort_unstable();
        rows.dedup();
        let mut cols: Vec<usize> = chunk.iter().map(|&(_, tn)| tn).collect();
        cols.sort_unstable();
        cols.dedup();
        total += rows.len() + cols.len();
        waves += 1;
    }
    total as f64 / waves as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_permutation(perm: &[(usize, usize)], tiles_m: usize, tiles_n: usize) -> bool {
        let mut seen = vec![false; tiles_m * tiles_n];
        for &(tm, tn) in perm {
            if tm >= tiles_m || tn >= tiles_n {
                return false;
            }
            let i = tm * tiles_n + tn;
            if seen[i] {
                return false;
            }
            seen[i] = true;
        }
        seen.iter().all(|&s| s)
    }

    /// The column-grouped walk by its definition: groups of `group`
    /// columns left to right (the last one narrower), row-major inside.
    fn walk_column_groups(group: usize, tiles_m: usize, tiles_n: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for g0 in (0..tiles_n).step_by(group) {
            for tm in 0..tiles_m {
                out.extend((g0..(g0 + group).min(tiles_n)).map(|tn| (tm, tn)));
            }
        }
        out
    }

    #[test]
    fn closed_form_column_groups_are_the_walk() {
        for (tm, tn) in [(1, 1), (4, 4), (7, 3), (3, 13), (16, 16), (5, 1), (1, 9), (11, 37)] {
            for group in 1..=tn + 1 {
                let closed = tile_permutation(TileOrder::ColumnGrouped(group), tm, tn);
                assert_eq!(closed, walk_column_groups(group, tm, tn), "group {group} over {tm}x{tn}");
            }
        }
        assert_eq!(TileOrder::Morton.coords(0, 2, 2), None);
    }

    #[test]
    fn the_band_rule_follows_the_packed_panels() {
        assert_eq!(TileOrder::band(false, true), TileOrder::ColumnGrouped(BAND_GROUP));
        for (rows_pack, columns_pack) in [(false, false), (true, false), (true, true)] {
            assert_eq!(TileOrder::band(rows_pack, columns_pack), TileOrder::RowMajor, "{rows_pack} {columns_pack}");
        }
    }

    /// Distinct tile columns — packed column panels — in each worker's
    /// contiguous share of `perm`.
    fn columns_per_share(perm: &[(usize, usize)], workers: usize) -> Vec<usize> {
        (0..workers)
            .map(|w| {
                let mut cols: Vec<usize> =
                    perm[crate::contiguous_range(perm.len(), workers, w)].iter().map(|&(_, tn)| tn).collect();
                cols.sort_unstable();
                cols.dedup();
                cols.len()
            })
            .collect()
    }

    /// A worker's share of a one-tile-per-CTA grid in the band order
    /// covers at most `⌈groups / W⌉ + 1` column groups, so about
    /// `1/W` of the packed panels, where row-major hands every worker
    /// every column. A share boundary can fall inside a group, hence
    /// the `+ 1` group (at most [`BAND_GROUP`] panels).
    #[test]
    fn each_share_of_the_band_order_packs_its_own_band() {
        let band = TileOrder::band(false, true);
        for tm in 1..20 {
            for tn in 1..40 {
                let perm = tile_permutation(band, tm, tn);
                let groups = tn.div_ceil(BAND_GROUP);
                for workers in 1..9 {
                    for (w, cols) in columns_per_share(&perm, workers).into_iter().enumerate() {
                        let bound = BAND_GROUP * (groups.div_ceil(workers) + 1);
                        assert!(cols <= bound.min(tn), "{tm}x{tn} W={workers}: worker {w} covers {cols} > {bound}");
                    }
                }
            }
        }
        // The benchmark's 1024³ grid at 64×64 tiles, two workers: 8
        // panels each, against all 16 under row-major.
        assert_eq!(columns_per_share(&tile_permutation(band, 16, 16), 2), [8, 8]);
        assert_eq!(columns_per_share(&tile_permutation(TileOrder::RowMajor, 16, 16), 2), [16, 16]);
    }

    #[test]
    fn morton_code_interleaves() {
        assert_eq!(morton_code(0, 0), 0);
        assert_eq!(morton_code(1, 0), 1);
        assert_eq!(morton_code(0, 1), 2);
        assert_eq!(morton_code(1, 1), 3);
        assert_eq!(morton_code(2, 0), 4);
        assert_eq!(morton_code(0b11, 0b11), 0b1111);
        assert_eq!(morton_code(u32::MAX, 0), 0x5555_5555_5555_5555);
    }

    #[test]
    fn all_orders_are_permutations() {
        for (tm, tn) in [(1, 1), (4, 4), (7, 3), (3, 13), (16, 16), (5, 1)] {
            for order in [TileOrder::RowMajor, TileOrder::ColumnGrouped(2), TileOrder::ColumnGrouped(5), TileOrder::Morton] {
                let perm = tile_permutation(order, tm, tn);
                assert!(is_permutation(&perm, tm, tn), "{order:?} {tm}x{tn}");
            }
        }
    }

    #[test]
    fn row_major_is_identity_order() {
        let perm = tile_permutation(TileOrder::RowMajor, 3, 4);
        assert_eq!(perm[0], (0, 0));
        assert_eq!(perm[1], (0, 1));
        assert_eq!(perm[4], (1, 0));
    }

    #[test]
    fn morton_square_pow2_is_z_curve() {
        let perm = tile_permutation(TileOrder::Morton, 2, 2);
        assert_eq!(perm, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn column_grouped_stays_in_group() {
        let perm = tile_permutation(TileOrder::ColumnGrouped(2), 3, 5);
        // First 6 entries cover columns {0,1} only.
        for &(_, tn) in &perm[..6] {
            assert!(tn < 2);
        }
    }

    /// The future-work claim, quantified: on a square grid, Morton
    /// waves touch fewer distinct panels than row-major waves.
    #[test]
    fn morton_has_smaller_wave_footprint() {
        let (tm, tn) = (16, 16);
        let wave = 16;
        let rm = wave_footprint(&tile_permutation(TileOrder::RowMajor, tm, tn), wave);
        let mo = wave_footprint(&tile_permutation(TileOrder::Morton, tm, tn), wave);
        // Row-major: a 16-tile wave is one whole row → 1 + 16 = 17.
        assert!((rm - 17.0).abs() < 1e-12, "rm = {rm}");
        // Morton: a 16-tile wave is a 4x4 quadrant → 4 + 4 = 8.
        assert!((mo - 8.0).abs() < 1e-12, "mo = {mo}");
    }

    #[test]
    fn column_grouping_trades_rows_for_cols() {
        let (tm, tn) = (16, 16);
        let wave = 16;
        let cg = wave_footprint(&tile_permutation(TileOrder::ColumnGrouped(2), tm, tn), wave);
        // Groups of 2 columns: a 16-tile wave covers 8 rows x 2 cols = 10.
        assert!((cg - 10.0).abs() < 1e-12, "cg = {cg}");
    }

    #[test]
    fn footprint_handles_ragged_tail() {
        let perm = tile_permutation(TileOrder::RowMajor, 3, 3);
        // Waves of 4 over 9 tiles: tail wave of 1 → footprint 2.
        let f = wave_footprint(&perm, 4);
        assert!(f > 0.0);
    }

    #[test]
    fn morton_non_pow2_is_sorted_compact_permutation() {
        // On ragged grids compact Morton must still be a permutation,
        // visited in strictly ascending morton_code order.
        for (tm, tn) in [(7, 3), (3, 13), (5, 6), (9, 2), (15, 17)] {
            let perm = tile_permutation(TileOrder::Morton, tm, tn);
            assert!(is_permutation(&perm, tm, tn), "{tm}x{tn}");
            for w in perm.windows(2) {
                let a = morton_code(w[0].0 as u32, w[0].1 as u32);
                let b = morton_code(w[1].0 as u32, w[1].1 as u32);
                assert!(a < b, "{tm}x{tn}: out of z-order at {w:?}");
            }
        }
    }

    #[test]
    fn morton_degenerate_grids_are_identity_walks() {
        // 1×N and N×1 grids: the z-curve collapses to a straight walk
        // along the single axis.
        for n in [1, 2, 5, 8, 13] {
            let row = tile_permutation(TileOrder::Morton, 1, n);
            assert_eq!(row, (0..n).map(|tn| (0, tn)).collect::<Vec<_>>(), "1x{n}");
            let col = tile_permutation(TileOrder::Morton, n, 1);
            assert_eq!(col, (0..n).map(|tm| (tm, 0)).collect::<Vec<_>>(), "{n}x1");
        }
    }
}
