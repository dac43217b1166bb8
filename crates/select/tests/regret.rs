//! Selection regret as a deterministic replay (the Stream-K++ framing,
//! arXiv:2408.11417: regret against a measured oracle).
//!
//! A fixed corpus — the three regime anchors (square, strong-scaling
//! deep-k, wide-tile) plus clamped log-uniform corpus shapes, one shape
//! per class — and a seeded cost table over each class's slate stand
//! in for measured launch times, so the replay needs no wall clock:
//! the same table every run, every candidate at least 10 % from its
//! neighbours (well outside the selector's 2 % near-tie band). The
//! replay feeds the table to the selector exactly as a live executor
//! would feed measured times, then checks that adaptation converges on
//! the table's argmin, that the warm pass never regrets more than the
//! cold (App. A.1 heuristic) pass, and that the persisted table
//! reproduces every frozen pick after a reload.

use std::collections::BTreeSet;
use streamk_corpus::{Corpus, CorpusConfig};
use streamk_cpu::{CpuExecutor, KernelKind};
use streamk_matrix::Matrix;
use streamk_select::{AdaptiveSelector, Candidate, SelectorConfig};
use streamk_types::{GemmShape, Layout, Precision};

const WORKERS: usize = 4;
const TOP_K: usize = 5;
const LAYOUT: Layout = Layout::RowMajor;
const SEED: u64 = 0x5E1E;

fn config() -> SelectorConfig {
    SelectorConfig::new(Precision::Fp64, WORKERS).with_top_k(TOP_K)
}

/// The three regime anchors, then corpus shapes clamped to 96 (m, n)
/// and 256 (k); a shape whose class is already present is skipped, so
/// each class's table row is one shape's.
fn corpus(selector: &AdaptiveSelector) -> Vec<GemmShape> {
    let (cap, kcap) = (96, 256);
    let anchors = [
        GemmShape::new(cap, cap, cap),
        GemmShape::new(cap / 4, cap / 4, kcap),
        GemmShape::new(cap, cap / 2, cap / 4),
    ];
    let clamped = Corpus::generate(CorpusConfig::smoke(12))
        .shapes()
        .iter()
        .map(|s| GemmShape::new(s.m.min(cap), s.n.min(cap), s.k.min(kcap)))
        .collect::<Vec<_>>();
    let mut classes = BTreeSet::new();
    anchors
        .into_iter()
        .chain(clamped)
        .filter(|&s| classes.insert(selector.class_of(s, LAYOUT)))
        .collect()
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One table row: the class slate and a seeded cost per candidate —
/// a shuffled ladder `1e-4 · (1 + 0.1 · rank)`.
struct Row {
    shape: GemmShape,
    slate: Vec<Candidate>,
    cost: Vec<f64>,
}

impl Row {
    fn cost_of(&self, candidate: &Candidate) -> f64 {
        let i = self
            .slate
            .iter()
            .position(|c| c == candidate)
            .expect("picks come from the slate");
        self.cost[i]
    }

    fn oracle(&self) -> f64 {
        self.cost.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

fn table(selector: &mut AdaptiveSelector, shapes: &[GemmShape]) -> Vec<Row> {
    shapes
        .iter()
        .map(|&shape| {
            let (_, slate) = selector.slate(shape, LAYOUT);
            let mut state =
                SEED ^ ((shape.m as u64) << 40 | (shape.n as u64) << 20 | shape.k as u64);
            let mut rank: Vec<usize> = (0..slate.len()).collect();
            for i in (1..rank.len()).rev() {
                rank.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
            }
            let cost = rank
                .iter()
                .map(|&r| 1e-4 * (1.0 + 0.1 * r as f64))
                .collect();
            Row { shape, slate, cost }
        })
        .collect()
}

fn regret(rows: &[Row], picks: &[Candidate]) -> f64 {
    let total: f64 = rows
        .iter()
        .zip(picks)
        .map(|(row, pick)| row.cost_of(pick))
        .sum();
    let oracle: f64 = rows.iter().map(Row::oracle).sum();
    total / oracle - 1.0
}

/// Cold, warm and reloaded passes over the replayed table: after
/// adaptation every frozen pick is its row's argmin, warm regret is at
/// most cold regret (which the table makes positive, so a selector that
/// stops learning from `feedback_raw` fails here), and a selector
/// reloaded from the persisted file picks exactly what the warm one did.
#[test]
fn replay_converges_to_the_table_argmin_and_survives_a_reload() {
    let mut cold = AdaptiveSelector::new(config());
    let shapes = corpus(&cold);
    assert!(shapes.len() >= 5, "anchors plus corpus shapes: {shapes:?}");
    let rows = table(&mut cold, &shapes);
    let cold_picks: Vec<Candidate> = shapes
        .iter()
        .map(|&s| cold.select_frozen(s, LAYOUT).candidate)
        .collect();
    let cold_regret = regret(&rows, &cold_picks);
    assert!(
        cold_regret > 0.0,
        "the heuristic already picks every argmin: the replay would test nothing"
    );

    let dir = std::env::temp_dir().join(format!("streamk-select-regret-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("cache");
    let mut warm = AdaptiveSelector::new(config().with_cache_path(&path));
    assert!(!warm.loaded_from_disk(), "no file yet: must start cold");

    // Two passes over each slate: the first `TOP_K` selections of a
    // class try every candidate once, the rest are epsilon-greedy.
    for _ in 0..2 * TOP_K {
        for row in &rows {
            let sel = warm.select(row.shape, LAYOUT);
            warm.feedback_raw(&sel, row.cost_of(&sel.candidate), 0.0);
        }
    }
    let warm_picks: Vec<Candidate> = shapes
        .iter()
        .map(|&s| warm.select_frozen(s, LAYOUT).candidate)
        .collect();
    for (row, pick) in rows.iter().zip(&warm_picks) {
        assert_eq!(
            row.cost_of(pick),
            row.oracle(),
            "{}: frozen pick {pick} is not the argmin",
            row.shape
        );
    }
    let warm_regret = regret(&rows, &warm_picks);
    assert!(
        warm_regret <= cold_regret,
        "warm {warm_regret} > cold {cold_regret}"
    );

    assert!(
        warm.persist().expect("persist"),
        "path configured: must write"
    );
    let mut reloaded = AdaptiveSelector::new(config().with_cache_path(&path));
    assert!(reloaded.loaded_from_disk(), "intact file must be recovered");
    for (&shape, pick) in shapes.iter().zip(&warm_picks) {
        assert_eq!(
            reloaded.select_frozen(shape, LAYOUT).candidate,
            *pick,
            "{shape}: reload changed the pick"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every candidate of every slate in the replay corpus runs bit-exact
/// against a scalar-kernel run of its own decomposition: a schedule is
/// only worth choosing if it computes the same bits (every kernel
/// accumulates each element in ascending-k order with one fused MAC).
#[test]
fn every_slate_candidate_is_bit_exact_against_the_scalar_kernel() {
    let mut selector = AdaptiveSelector::new(config());
    let shapes = corpus(&selector);
    let exec = CpuExecutor::with_threads(WORKERS);
    let scalar = exec.clone().with_kernel(KernelKind::Scalar);
    for row in table(&mut selector, &shapes) {
        let a = Matrix::<f64>::random::<f64>(row.shape.m, row.shape.k, LAYOUT, 0x5E1E);
        let b = Matrix::<f64>::random::<f64>(row.shape.k, row.shape.n, LAYOUT, 0x5E1F);
        for candidate in &row.slate {
            let decomp = candidate.decompose(row.shape);
            let reference = scalar.gemm::<f64, f64>(&a, &b, &decomp);
            let c = exec.gemm::<f64, f64>(&a, &b, &decomp);
            assert!(
                c.max_abs_diff(&reference) == 0.0,
                "{candidate} on {} diverged from its scalar run",
                row.shape
            );
        }
    }
}
