//! The reference job: a fixed piece of the benchmark's own work, run
//! between timed ops on as many threads as the workload keeps busy.
//!
//! The hosts this benchmark runs on are a few cores of a shared
//! machine, and what the neighbours do moves every timing by tens of
//! percent for seconds or minutes at a stretch — with no steal time to
//! show for it, so it is the core's other hyperthread, the shared
//! caches or the clock. The reference job is slowed by the same weather
//! as the ops around it, and it is code no later change to the program
//! can touch, so an op time *divided by the reference time of the same
//! stretch of the run* keeps what the program did and drops most of
//! what the host did. A program that gets 10 % faster still reads 10 %
//! lower.
//!
//! The job is a GEMM in miniature, so that it feels the host the way
//! the program does: a pack-like gather (64 rows a long stride apart
//! into contiguous panels), then tile products over cache-resident
//! operands — multiply, add and loads from the first two cache levels.
//! It is compiled with the program's flags.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const TILE: usize = 32;
const DEPTH: usize = 512;
/// Tile products per run of the job: about half a millisecond.
const PRODUCTS: usize = 2;

/// The gather reads a `PACK_ROWS × PACK_COLS` window of a row-major
/// `PACK_ROWS × PACK_LD` array, a different window every run, and
/// writes it column by column: about a third of a millisecond.
const PACK_ROWS: usize = 64;
const PACK_LD: usize = 32768;
const PACK_COLS: usize = 4096;

/// One run of the job, in ms of each thread's own clock.
#[derive(Debug, Clone, Copy)]
pub struct JobTimes {
    /// The slowest thread: a launch ends when its last worker does.
    pub slowest: f64,
    /// The fastest thread: the weather on the less disturbed core.
    pub fastest: f64,
}

pub struct Reference {
    threads: usize,
    a: Vec<f32>,
    b: Vec<f32>,
    unpacked: Vec<f32>,
    /// One gather destination per thread.
    packed: Vec<Mutex<Vec<f32>>>,
    /// Windows gathered so far, over all threads.
    cursor: AtomicUsize,
}

impl Reference {
    /// A job for `threads` threads (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        // Fixed operands near 1, so no product over- or underflows.
        let fill = |len: usize, salt: usize| -> Vec<f32> {
            (0..len)
                .map(|i| 0.5 + ((i * 31 + salt) % 97) as f32 / 194.0)
                .collect()
        };
        Self {
            threads,
            a: fill(TILE * DEPTH, 7),
            b: fill(TILE * DEPTH, 53),
            unpacked: fill(PACK_ROWS * PACK_LD, 11),
            packed: (0..threads)
                .map(|_| Mutex::new(vec![0.0; PACK_ROWS * PACK_COLS]))
                .collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// One thread's share of the job — gather window `window`, then
    /// `c += a · b` on one `TILE × TILE` tile [`PRODUCTS`] times — and
    /// the seconds it took this thread.
    fn work(&self, window: usize) -> f64 {
        let mut packed = self.packed[window % self.threads]
            .lock()
            .expect("no thread panics holding a gather buffer");
        let t0 = Instant::now();
        let first_col = (window * PACK_COLS) % PACK_LD;
        let unpacked = std::hint::black_box(&self.unpacked);
        for (col, panel) in packed.chunks_exact_mut(PACK_ROWS).enumerate() {
            for (row, p) in panel.iter_mut().enumerate() {
                *p = unpacked[row * PACK_LD + first_col + col];
            }
        }
        std::hint::black_box(&packed[..]);
        let mut c = [0.0f32; TILE * TILE];
        for _ in 0..PRODUCTS {
            let (a, b) = (std::hint::black_box(&self.a), std::hint::black_box(&self.b));
            for k in 0..DEPTH {
                let (a_k, b_k) = (&a[k * TILE..][..TILE], &b[k * TILE..][..TILE]);
                for (row, &a_ik) in c.chunks_exact_mut(TILE).zip(a_k) {
                    for (c_ij, &b_kj) in row.iter_mut().zip(b_k) {
                        *c_ij += a_ik * b_kj;
                    }
                }
            }
        }
        std::hint::black_box(&c);
        t0.elapsed().as_secs_f64()
    }

    /// Runs the job once on every thread at the same time. Thread
    /// start-up is outside the figures.
    pub fn run(&self) -> JobTimes {
        let first = self.cursor.fetch_add(self.threads, Ordering::Relaxed);
        let (slowest, fastest) = if self.threads == 1 {
            let secs = self.work(first);
            (secs, secs)
        } else {
            std::thread::scope(|s| {
                let started: Vec<_> = (0..self.threads)
                    .map(|t| s.spawn(move || self.work(first + t)))
                    .collect();
                started
                    .into_iter()
                    .map(|t| t.join().expect("the reference job does not panic"))
                    .fold((0.0, f64::INFINITY), |(slow, fast), secs| {
                        (f64::max(slow, secs), f64::min(fast, secs))
                    })
            })
        };
        JobTimes {
            slowest: slowest * 1e3,
            fastest: fastest * 1e3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_job_runs_on_one_thread_and_on_several() {
        for threads in [0, 1, 2] {
            let job = Reference::new(threads);
            for _ in 0..(PACK_LD / PACK_COLS + 1) {
                let ms = job.run();
                assert!(ms.fastest > 0.0 && ms.fastest <= ms.slowest && ms.slowest.is_finite());
            }
        }
    }
}
