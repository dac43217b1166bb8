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
//! quantifies their cache friendliness. Orders plug into
//! [`IterSpace`](crate::IterSpace) via
//! [`Decomposition::with_tile_order`](crate::Decomposition::with_tile_order):
//! the schedule keeps its iteration ranges, and only the mapping from
//! schedule-tile to output-tile coordinates changes.

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
    match order {
        TileOrder::RowMajor => {
            (0..tiles_m * tiles_n).map(|s| (s / tiles_n, s % tiles_n)).collect()
        }
        TileOrder::ColumnGrouped(group) => {
            assert!(group > 0, "group width must be at least 1");
            let mut out = Vec::with_capacity(tiles_m * tiles_n);
            let mut g0 = 0;
            while g0 < tiles_n {
                let g1 = (g0 + group).min(tiles_n);
                for tm in 0..tiles_m {
                    for tn in g0..g1 {
                        out.push((tm, tn));
                    }
                }
                g0 = g1;
            }
            out
        }
        TileOrder::Morton => {
            let mut coords: Vec<(usize, usize)> = (0..tiles_m)
                .flat_map(|tm| (0..tiles_n).map(move |tn| (tm, tn)))
                .collect();
            coords.sort_by_key(|&(tm, tn)| morton_code(tm as u32, tn as u32));
            coords
        }
    }
}

/// [`tile_permutation`] shared behind an `Arc` (the form `IterSpace`
/// stores).
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
