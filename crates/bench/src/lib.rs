//! Experiment harness for the Stream-K reproduction.
//!
//! One binary per paper table/figure lives in `src/bin/`; this
//! library holds the shared machinery: evaluating the four contenders
//! over a corpus, intensity binning for roofline output, and small
//! CLI/CSV helpers.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `fig1_fig2` | Figures 1-2: schedules on the hypothetical 4-SM GPU |
//! | `fig3` | Figure 3: basic vs hybrid Stream-K schedules |
//! | `fig4` | Figure 4: the corpus domain |
//! | `fig5_fig6` | Figures 5-6: roofline landscapes, both precisions |
//! | `fig7` | Figure 7: Stream-K speedup vs the cuBLAS stand-in |
//! | `fig8` | Figure 8: grid-size model curves |
//! | `fig9` | Figure 9: strong-scaling schedules |
//! | `table1`, `table2` | Tables 1-2: relative performance summaries |
//! | `ablate_hybrid`, `ablate_gridsize`, `ablate_fixup` | design-choice ablations |

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod plot;

use streamk_corpus::{Corpus, CorpusConfig, RatioStats};
use streamk_ensemble::runners;
use streamk_sim::GpuSpec;
use streamk_types::{GemmShape, Precision};

/// The four contenders' results on one problem shape.
#[derive(Debug, Clone, Copy)]
pub struct ShapeResult {
    /// The problem.
    pub shape: GemmShape,
    /// Arithmetic intensity at the evaluated precision, FLOP/byte.
    pub intensity: f64,
    /// Stream-K makespan, seconds.
    pub sk: f64,
    /// Single-blocking data-parallel makespan, seconds.
    pub dp: f64,
    /// cuBLAS-like heuristic ensemble makespan, seconds.
    pub heuristic: f64,
    /// Oracle ensemble makespan, seconds.
    pub oracle: f64,
    /// Stream-K fraction-of-peak utilization.
    pub sk_util: f64,
    /// Data-parallel utilization.
    pub dp_util: f64,
    /// Heuristic utilization.
    pub heuristic_util: f64,
    /// Oracle utilization.
    pub oracle_util: f64,
}

impl ShapeResult {
    /// Evaluates all four contenders on `shape`.
    #[must_use]
    pub fn evaluate(shape: GemmShape, precision: Precision, gpu: &GpuSpec) -> Self {
        let sk = runners::run_stream_k(shape, precision, gpu);
        let dp = runners::run_dp_single(shape, precision, gpu);
        let heuristic = runners::run_heuristic(shape, precision, gpu);
        let oracle = runners::run_oracle(shape, precision, gpu);
        Self {
            shape,
            intensity: shape.arithmetic_intensity(precision),
            sk: sk.makespan,
            dp: dp.makespan,
            heuristic: heuristic.makespan,
            oracle: oracle.makespan,
            sk_util: sk.utilization(),
            dp_util: dp.utilization(),
            heuristic_util: heuristic.utilization(),
            oracle_util: oracle.utilization(),
        }
    }

    /// Stream-K speedup over the single-blocking data-parallel kernel.
    #[must_use]
    pub fn speedup_vs_dp(&self) -> f64 {
        self.dp / self.sk
    }

    /// Stream-K speedup over the heuristic ensemble.
    #[must_use]
    pub fn speedup_vs_heuristic(&self) -> f64 {
        self.heuristic / self.sk
    }

    /// Stream-K speedup over the oracle.
    #[must_use]
    pub fn speedup_vs_oracle(&self) -> f64 {
        self.oracle / self.sk
    }
}

/// Evaluates the four contenders over every shape in `corpus`.
#[must_use]
pub fn evaluate_corpus(corpus: &Corpus, precision: Precision, gpu: &GpuSpec) -> Vec<ShapeResult> {
    corpus.shapes().iter().map(|&s| ShapeResult::evaluate(s, precision, gpu)).collect()
}

/// The paper's Table 1/Table 2 row set for one precision: Stream-K
/// relative performance vs the three baselines plus the compute-bound
/// heuristic subset.
#[derive(Debug, Clone)]
pub struct RelativePerformanceTable {
    /// Precision evaluated.
    pub precision: Precision,
    /// vs the same-blocking data-parallel kernel.
    pub vs_dp: RatioStats,
    /// vs the cuBLAS-like heuristic ensemble.
    pub vs_heuristic: RatioStats,
    /// vs the heuristic, restricted to compute-bound problems.
    pub vs_heuristic_compute_bound: RatioStats,
    /// vs the idealized oracle.
    pub vs_oracle: RatioStats,
}

impl RelativePerformanceTable {
    /// Builds the table from per-shape results.
    ///
    /// # Panics
    ///
    /// Panics if `results` is empty or contains no compute-bound
    /// problems.
    #[must_use]
    pub fn build(results: &[ShapeResult], precision: Precision) -> Self {
        let vs_dp: Vec<f64> = results.iter().map(ShapeResult::speedup_vs_dp).collect();
        let vs_heuristic: Vec<f64> = results.iter().map(ShapeResult::speedup_vs_heuristic).collect();
        let threshold = precision.compute_bound_threshold();
        let vs_heuristic_cb: Vec<f64> = results
            .iter()
            .filter(|r| r.intensity > threshold)
            .map(ShapeResult::speedup_vs_heuristic)
            .collect();
        let vs_oracle: Vec<f64> = results.iter().map(ShapeResult::speedup_vs_oracle).collect();
        Self {
            precision,
            vs_dp: RatioStats::of(&vs_dp),
            vs_heuristic: RatioStats::of(&vs_heuristic),
            vs_heuristic_compute_bound: RatioStats::of(&vs_heuristic_cb),
            vs_oracle: RatioStats::of(&vs_oracle),
        }
    }

    /// Renders the table in the paper's layout.
    #[must_use]
    pub fn render(&self) -> String {
        let header = match self.precision {
            Precision::Fp64 => "Table 1. Stream-K FP64 Relative Performance",
            Precision::Fp16To32 => "Table 2. Stream-K FP16->32 Relative Performance",
        };
        let cols = [
            ("vs data-parallel (same blocking)", &self.vs_dp),
            ("vs cuBLAS-like heuristic", &self.vs_heuristic),
            ("vs heuristic, compute-bound only", &self.vs_heuristic_compute_bound),
            ("vs oracle ensemble", &self.vs_oracle),
        ];
        let mut out = format!("{header}\n");
        out.push_str(&format!("{:<36} {:>8} {:>8} {:>8} {:>8}\n", "", "Average", "StdDev", "Min", "Max"));
        for (label, s) in cols {
            out.push_str(&format!(
                "{:<36} {:>7.2}x {:>8.2} {:>7.2}x {:>7.2}x\n",
                label, s.avg, s.stddev, s.min, s.max
            ));
        }
        out
    }
}

/// Mean utilization per logarithmic intensity bin — the data series
/// behind a roofline landscape plot (Figures 5-6).
#[must_use]
pub fn roofline_series(points: &[(f64, f64)], bins: usize) -> Vec<(f64, f64, f64, f64)> {
    assert!(bins > 0, "need at least one bin");
    if points.is_empty() {
        return Vec::new();
    }
    let lo = points.iter().map(|p| p.0).fold(f64::INFINITY, f64::min).ln();
    let hi = points.iter().map(|p| p.0).fold(0.0f64, f64::max).ln();
    let width = ((hi - lo) / bins as f64).max(f64::MIN_POSITIVE);
    let mut acc: Vec<Vec<f64>> = vec![Vec::new(); bins];
    for &(x, y) in points {
        let b = (((x.ln() - lo) / width) as usize).min(bins - 1);
        acc[b].push(y);
    }
    acc.into_iter()
        .enumerate()
        .filter(|(_, ys)| !ys.is_empty())
        .map(|(i, ys)| {
            let center = (lo + (i as f64 + 0.5) * width).exp();
            let mean = ys.iter().sum::<f64>() / ys.len() as f64;
            let min = ys.iter().copied().fold(f64::INFINITY, f64::min);
            let max = ys.iter().copied().fold(0.0f64, f64::max);
            (center, mean, min, max)
        })
        .collect()
}

/// Shared CLI convention for the corpus binaries: the first positional
/// argument (if any) overrides the corpus size; `--full` forces the
/// paper's 32,824. The default keeps interactive runs snappy.
#[must_use]
pub fn corpus_from_args(default_count: usize) -> Corpus {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let config = if full {
        CorpusConfig::paper()
    } else if let Some(n) = args.iter().find_map(|a| a.parse::<usize>().ok()) {
        CorpusConfig::smoke(n)
    } else {
        CorpusConfig::smoke(default_count)
    };
    let hint = if full { "" } else { " (use --full for the paper's 32,824)" };
    eprintln!("# corpus: {} shapes{hint}", config.count);
    Corpus::generate(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_result_sane() {
        let gpu = GpuSpec::a100();
        let r = ShapeResult::evaluate(GemmShape::new(512, 512, 512), Precision::Fp64, &gpu);
        assert!(r.sk > 0.0 && r.dp > 0.0 && r.heuristic > 0.0 && r.oracle > 0.0);
        assert!(r.sk_util > 0.0 && r.sk_util <= 1.0);
        // The oracle never loses to the plain DP kernel.
        assert!(r.oracle <= r.dp * 1.0001);
    }

    #[test]
    fn table_builds_from_small_corpus() {
        let gpu = GpuSpec::a100();
        let corpus = Corpus::generate(CorpusConfig::smoke(40));
        let results = evaluate_corpus(&corpus, Precision::Fp16To32, &gpu);
        let table = RelativePerformanceTable::build(&results, Precision::Fp16To32);
        // Headline property: Stream-K at least matches data-parallel
        // on average (it generalizes it).
        assert!(table.vs_dp.avg >= 1.0, "{}", table.render());
        let text = table.render();
        assert!(text.contains("Table 2"));
        assert!(text.contains("vs oracle"));
    }

    #[test]
    fn roofline_bins_cover_all_points() {
        let points: Vec<(f64, f64)> = (1..=1000).map(|i| (f64::from(i), 0.5)).collect();
        let series = roofline_series(&points, 16);
        assert!(!series.is_empty());
        for (center, mean, min, max) in series {
            assert!(center > 0.0);
            assert!((mean - 0.5).abs() < 1e-12);
            assert_eq!((min, max), (0.5, 0.5));
        }
    }
}
