//! Property tests for the decomposition invariants.
//!
//! These are the load-bearing guarantees of the whole reproduction:
//! every strategy must assign every MAC-loop iteration exactly once,
//! tile ownership must be unique, and fixup peers must be consecutive
//! — otherwise the Algorithm 5 consolidation protocol (and everything
//! the simulator and CPU executor compute) is wrong.

use proptest::prelude::*;
use streamk_core::Decomposition;
use streamk_core::Strategy as Decomp;
use streamk_types::{GemmShape, TileShape};

/// Arbitrary problem shapes: small enough to keep iteration spaces
/// tractable, ragged on purpose (primes, off-by-ones).
fn shapes() -> impl proptest::strategy::Strategy<Value = GemmShape> {
    (1usize..600, 1usize..600, 1usize..600).prop_map(|(m, n, k)| GemmShape::new(m, n, k))
}

/// Arbitrary blocking factors, including degenerate 1-wide tiles.
fn tiles() -> impl proptest::strategy::Strategy<Value = TileShape> {
    (1usize..129, 1usize..129, 1usize..65).prop_map(|(m, n, k)| TileShape::new(m, n, k))
}

fn strategies() -> impl proptest::strategy::Strategy<Value = Decomp> {
    prop_oneof![
        Just(Decomp::DataParallel),
        (1usize..12).prop_map(|split| Decomp::FixedSplit { split }),
        (1usize..200).prop_map(|grid| Decomp::StreamK { grid }),
        (1usize..24).prop_map(|sms| Decomp::DpOneTileStreamK { sms }),
        (1usize..24).prop_map(|sms| Decomp::TwoTileStreamKDp { sms }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every strategy yields a structurally valid decomposition:
    /// contiguous exact cover, dense CTA ids, unique tile owners,
    /// consecutive peers, one partial store per CTA.
    #[test]
    fn every_strategy_validates(shape in shapes(), tile in tiles(), strategy in strategies()) {
        let d = Decomposition::from_strategy(shape, tile, strategy);
        prop_assert!(d.validate().is_ok(), "{strategy} on {shape}/{tile}: {:?}", d.validate());
    }

    /// Exact cover, independently recomputed: for every tile the
    /// per-CTA segments partition [0, iters_per_tile).
    #[test]
    fn segments_partition_every_tile(shape in shapes(), tile in tiles(), strategy in strategies()) {
        let d = Decomposition::from_strategy(shape, tile, strategy);
        let space = d.space();
        let ipt = space.iters_per_tile();
        let mut covered = vec![0usize; space.tiles()];
        for cta in d.ctas() {
            for seg in cta.segments(space) {
                covered[seg.tile_idx] += seg.len();
            }
        }
        for (t, &c) in covered.iter().enumerate() {
            prop_assert_eq!(c, ipt, "tile {} covered {} of {}", t, c, ipt);
        }
    }

    /// Stream-K's headline guarantee: an even share within one
    /// iteration, for every grid size.
    #[test]
    fn stream_k_imbalance_at_most_one(shape in shapes(), tile in tiles(), grid in 1usize..300) {
        let d = Decomposition::stream_k(shape, tile, grid);
        prop_assert!(d.iter_imbalance() <= 1);
    }

    /// §4 generalization: Stream-K at g = t is exactly data-parallel.
    #[test]
    fn stream_k_at_tile_count_is_data_parallel(shape in shapes(), tile in tiles()) {
        let t = tile.output_tiles(shape);
        let sk = Decomposition::stream_k(shape, tile, t);
        let dp = Decomposition::data_parallel(shape, tile);
        prop_assert_eq!(sk.ctas(), dp.ctas());
    }

    /// §4 generalization: Stream-K at g = s·t equals fixed-split
    /// whenever s divides the per-tile iteration count (we construct k
    /// as blk_k · split · j so divisibility always holds).
    #[test]
    fn stream_k_at_multiple_is_fixed_split(shape in shapes(), tile in tiles(), split in 1usize..9, j in 1usize..6) {
        let shape = GemmShape::new(shape.m, shape.n, tile.blk_k * split * j);
        let t = tile.output_tiles(shape);
        let sk = Decomposition::stream_k(shape, tile, t * split);
        let fs = Decomposition::fixed_split(shape, tile, split);
        prop_assert_eq!(sk.ctas(), fs.ctas());
    }

    /// Stream-K's seam count is bounded by the grid size, never the
    /// tile count (§7: overheads scale with processor width).
    #[test]
    fn stream_k_seams_bounded_by_grid(shape in shapes(), tile in tiles(), grid in 1usize..200) {
        let d = Decomposition::stream_k(shape, tile, grid);
        prop_assert!(d.split_tiles() < grid.max(1) + 1);
    }

    /// The two-tile hybrid's Stream-K CTAs receive at least one and
    /// fewer than two tiles' worth of iterations whenever it doesn't
    /// degenerate (w ≥ 1, r > 0).
    #[test]
    fn two_tile_hybrid_share_bounds(shape in shapes(), tile in tiles(), sms in 1usize..24) {
        let t = tile.output_tiles(shape);
        let ipt = tile.iters_per_tile(shape);
        prop_assume!(t >= sms && !t.is_multiple_of(sms));
        let d = Decomposition::two_tile_stream_k_dp(shape, tile, sms);
        for cta in &d.ctas()[..sms] {
            prop_assert!(cta.len() >= ipt, "SK CTA below one tile: {} < {}", cta.len(), ipt);
            prop_assert!(cta.len() <= 2 * ipt, "SK CTA above two tiles: {} > {}", cta.len(), 2 * ipt);
            // The strict "fewer than two tiles" property needs enough
            // iterations per tile to absorb the ceiling (ipt ≥ p).
            if ipt >= sms {
                prop_assert!(cta.len() < 2 * ipt, "SK CTA at two tiles: {} >= {}", cta.len(), 2 * ipt);
            }
        }
        // And every DP CTA gets exactly one tile.
        for cta in &d.ctas()[sms..] {
            prop_assert_eq!(cta.len(), ipt);
        }
    }

    /// Hybrid fixup depth: with at least two full waves, every tile in
    /// the two-tile schedule is covered by at most two CTAs (§5.2).
    #[test]
    fn two_tile_hybrid_at_most_one_peer(shape in shapes(), tile in tiles(), sms in 1usize..24) {
        let t = tile.output_tiles(shape);
        prop_assume!(t >= 2 * sms && !t.is_multiple_of(sms));
        let d = Decomposition::two_tile_stream_k_dp(shape, tile, sms);
        for f in d.fixups() {
            prop_assert!(f.covering_ctas() <= 2, "tile {} covered by {}", f.tile_idx, f.covering_ctas());
        }
    }

    /// The owner of every tile is the CTA covering its first
    /// iteration, and owners are strictly increasing across tiles.
    #[test]
    fn owners_are_monotone(shape in shapes(), tile in tiles(), strategy in strategies()) {
        let d = Decomposition::from_strategy(shape, tile, strategy);
        let fixups = d.fixups();
        for pair in fixups.windows(2) {
            prop_assert!(pair[0].owner <= pair[1].owner);
        }
    }
}

/// A batch is the group of its equal shapes: for every batch size,
/// instance shape, tile and grid — data-parallel grids and grids with
/// more CTAs than iterations included — the batched decomposition's
/// CTAs and fixups are `==` those of the grouped decomposition of
/// `batch` copies of the instance shape.
#[test]
fn a_batch_decomposes_as_the_group_of_its_equal_shapes() {
    use streamk_core::{BatchedDecomposition, BatchedSpace, CtaWork, GroupedDecomposition, GroupedSpace};
    let mut empty_ctas_seen = false;
    for batch in [1usize, 2, 3, 5, 8] {
        for (m, n, k) in [(64, 64, 32), (19, 23, 31), (96, 80, 64), (16, 16, 48), (1, 1, 1)] {
            let shape = GemmShape::new(m, n, k);
            for tile in [TileShape::new(32, 32, 8), TileShape::new(16, 16, 8), TileShape::new(8, 8, 8), TileShape::new(64, 16, 32)] {
                let batched = BatchedSpace::new(batch, shape, tile);
                let grouped = GroupedSpace::new(&vec![shape; batch], tile);
                assert_eq!(batched.tiles(), grouped.tiles());
                assert_eq!(batched.total_iters(), grouped.total_iters());
                let what = format!("{batch} x {shape} at {tile}");
                let (b, g) =
                    (BatchedDecomposition::data_parallel(batched.clone()), GroupedDecomposition::data_parallel(grouped.clone()));
                assert_eq!(b.grid_size(), g.grid_size(), "{what}, data-parallel");
                assert_eq!(b.ctas(), g.ctas(), "{what}, data-parallel");
                assert_eq!(b.fixups(), g.fixups(), "{what}, data-parallel");
                let total = batched.total_iters();
                for grid in [1, 2, 3, 4, 7, 13, batched.tiles(), total, total + 5] {
                    let b = BatchedDecomposition::stream_k(batched.clone(), grid);
                    let g = GroupedDecomposition::stream_k(grouped.clone(), grid);
                    assert_eq!(b.grid_size(), g.grid_size(), "{what}, grid {grid}");
                    assert_eq!(b.ctas(), g.ctas(), "{what}, grid {grid}");
                    assert_eq!(b.fixups(), g.fixups(), "{what}, grid {grid}");
                    assert_eq!(b.validate(), g.validate(), "{what}, grid {grid}");
                    assert_eq!(b.iter_imbalance(), g.iter_imbalance(), "{what}, grid {grid}");
                    empty_ctas_seen |= b.ctas().iter().any(CtaWork::is_empty);
                }
            }
        }
    }
    assert!(empty_ctas_seen, "some grid has more CTAs than iterations");
}
