//! Batched schedules, pinned bit for bit.
//!
//! Fingerprints every field and span of the report of a uniform batch
//! — data-parallel and Stream-K over the SMs — over a grid of instance
//! shapes × batch sizes × GPUs × precisions, and compares them with
//! `batched_schedules.txt`: one line per case, in the order below. A
//! batch is the group of its equal shapes, and a data-parallel batch
//! replays by waves; a change to how a batch reaches the event queue
//! that moves any bit of any report fails here.

mod fingerprint;

use fingerprint::Fingerprint;
use streamk_core::{BatchedDecomposition, BatchedSpace};
use streamk_sim::{simulate_grouped, GpuSpec};
use streamk_types::{GemmShape, Precision, TileShape};

const SHAPES: [(usize, usize, usize); 5] =
    [(384, 384, 4096), (256, 256, 512), (128, 128, 4096), (1000, 700, 900), (896, 384, 1024)];

const BATCHES: [usize; 4] = [1, 3, 13, 40];

fn cases() -> Vec<String> {
    let tile = TileShape::new(128, 128, 32);
    let mut lines = Vec::new();
    for (m, n, k) in SHAPES {
        let shape = GemmShape::new(m, n, k);
        for batch in BATCHES {
            let space = BatchedSpace::new(batch, shape, tile);
            for gpu in [GpuSpec::a100(), GpuSpec::hypothetical_4sm()] {
                let schedules = [
                    ("data-parallel", BatchedDecomposition::data_parallel(space.clone())),
                    ("stream-k", BatchedDecomposition::stream_k(space.clone(), gpu.sms)),
                ];
                for (name, b) in &schedules {
                    for precision in Precision::ALL {
                        let r = simulate_grouped(b.group(), &gpu, precision);
                        let mut print = Fingerprint::new();
                        print.report(&r);
                        lines.push(format!("{batch}x{m}x{n}x{k} {}sm {name} {precision:?} {:016x}", gpu.sms, print.0));
                    }
                }
            }
        }
    }
    lines
}

#[test]
fn batched_schedules_match_their_recorded_fingerprints() {
    let expected: Vec<&str> = include_str!("batched_schedules.txt").lines().collect();
    let actual = cases();
    assert_eq!(actual.len(), 160);
    assert_eq!(actual.len(), expected.len(), "case count");
    let moved: Vec<(&String, &&str)> = actual.iter().zip(&expected).filter(|(a, e)| a != e).collect();
    assert!(moved.is_empty(), "{} of {} schedules moved; first: {:?}", moved.len(), actual.len(), moved.first());
}
