//! The oracle against its definition, and where it loses, on a slice
//! of the paper's corpus.

use streamk_core::{Decomposition, Strategy};
use streamk_corpus::{Corpus, CorpusConfig};
use streamk_ensemble::runners::{run_heuristic, run_oracle};
use streamk_ensemble::{HeuristicSelector, Oracle, TileConfig, TileEnsemble};
use streamk_sim::{simulate_with_efficiency, GpuSpec, SimReport};
use streamk_types::{GemmShape, Precision};

/// 2,000 shapes spread evenly over the paper's 32,824.
fn corpus_slice() -> Vec<GemmShape> {
    let corpus = Corpus::generate(CorpusConfig::paper());
    corpus.shapes().iter().copied().step_by(corpus.len() / 2000).take(2000).collect()
}

/// §6's oracle as written: simulate every member's data-parallel grid
/// and keep the first fastest.
fn simulate_every_member(ensemble: &TileEnsemble, shape: GemmShape, gpu: &GpuSpec) -> (TileConfig, SimReport) {
    ensemble
        .configs
        .iter()
        .map(|&config| {
            let d = Decomposition::data_parallel(shape, config.tile);
            (config, simulate_with_efficiency(&d, gpu, ensemble.precision, config.mac_efficiency))
        })
        .min_by(|a, b| a.1.makespan.total_cmp(&b.1.makespan))
        .expect("non-empty ensemble")
}

/// Ranking by makespan and simulating only the winner picks the same
/// member and builds the same report, spans included, as simulating
/// every member.
#[test]
fn oracle_is_simulate_every_member_and_keep_the_first_fastest() {
    let gpu = GpuSpec::a100();
    let shapes = corpus_slice();
    assert_eq!(shapes.len(), 2000);
    for precision in Precision::ALL {
        let ensemble = TileEnsemble::for_precision(precision);
        let oracle = Oracle::new(ensemble.clone());
        for &shape in &shapes {
            let reference = simulate_every_member(&ensemble, shape, &gpu);
            assert_eq!(oracle.select(shape, &gpu), reference, "{shape} {precision}");
        }
    }
}

/// The data-parallel oracle loses to the heuristic only where the
/// heuristic split k: §6 defines the oracle over data-parallel
/// blockings, so it cannot choose `FixedSplit` (EXPERIMENTS.md, "Why
/// the oracle loses to the heuristic").
#[test]
fn oracle_loses_to_the_heuristic_only_where_the_heuristic_splits() {
    let gpu = GpuSpec::a100();
    let mut losses = 0;
    for precision in Precision::ALL {
        let selector = HeuristicSelector::new(TileEnsemble::for_precision(precision), gpu.sms);
        for shape in corpus_slice() {
            if run_oracle(shape, precision, &gpu).makespan > run_heuristic(shape, precision, &gpu).makespan {
                losses += 1;
                let (config, strategy) = selector.select(shape);
                assert!(
                    matches!(strategy, Strategy::FixedSplit { .. }),
                    "{shape} {precision}: oracle lost to {strategy:?} at {}",
                    config.tile
                );
            }
        }
    }
    // The slice holds some of the corpus's 3.8 % losses, so the claim
    // above is not vacuous.
    assert!(losses > 0);
}
