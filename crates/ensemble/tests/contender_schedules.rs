//! The four contenders' schedules on the paper's corpus, pinned bit
//! for bit.
//!
//! Fingerprints every field and span of the reports of `run_stream_k`,
//! `run_dp_single`, `run_heuristic` and `run_oracle` over the first
//! 2,000 shapes of the paper's corpus at both precisions on the A100,
//! and compares them with `contender_schedules.txt`: one line per
//! contender × precision × block of 100 shapes, in the order below.
//! The paper tables print only aggregates; a change to the simulator,
//! the grid-size model or a selector that moves any bit of any
//! contender's report, a span included, fails here.

#[path = "../../sim/tests/fingerprint/mod.rs"]
mod fingerprint;

use fingerprint::Fingerprint;
use streamk_corpus::{Corpus, CorpusConfig};
use streamk_ensemble::runners::{run_dp_single, run_heuristic, run_oracle, run_stream_k};
use streamk_sim::{GpuSpec, SimReport};
use streamk_types::{GemmShape, Precision};

const SHAPES: usize = 2000;
const BLOCK: usize = 100;

type Contender = fn(GemmShape, Precision, &GpuSpec) -> SimReport;

fn cases() -> Vec<String> {
    let corpus = Corpus::generate(CorpusConfig::paper());
    let shapes = &corpus.shapes()[..SHAPES];
    let gpu = GpuSpec::a100();
    let contenders: [(&str, Contender); 4] = [
        ("stream-k", run_stream_k),
        ("dp-single", run_dp_single),
        ("heuristic", run_heuristic),
        ("oracle", run_oracle),
    ];
    let mut lines = Vec::new();
    for (name, run) in contenders {
        for precision in Precision::ALL {
            for (block, chunk) in shapes.chunks(BLOCK).enumerate() {
                let mut print = Fingerprint::new();
                chunk.iter().for_each(|&shape| print.report(&run(shape, precision, &gpu)));
                let first = block * BLOCK;
                lines.push(format!("{name} {precision:?} {first}..{} {:016x}", first + chunk.len(), print.0));
            }
        }
    }
    lines
}

#[test]
fn contender_schedules_match_their_recorded_fingerprints() {
    let expected: Vec<&str> = include_str!("contender_schedules.txt").lines().collect();
    let actual = cases();
    assert_eq!(actual.len(), 160);
    assert_eq!(actual.len(), expected.len(), "case count");
    let moved: Vec<(&String, &&str)> = actual.iter().zip(&expected).filter(|(a, e)| a != e).collect();
    assert!(moved.is_empty(), "{} of {} blocks moved; first: {:?}", moved.len(), actual.len(), moved.first());
}
