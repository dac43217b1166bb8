//! `benchmark compare BASE.json NEW.json`: the bounds of
//! `BENCHMARK.json` applied to two result sets written by
//! `benchmark run --out`.
//!
//! One row per workload and metric, every ratio beside its base:
//!
//! - `regressed` — the new median is worse than the base median by
//!   more than the metric's bound, or more ops failed;
//! - `unresolved` — the run-to-run spread (interquartile distance over
//!   the median, on either side) is wider than the bound, so the
//!   medians cannot be told apart — unless every new run reads better
//!   than every base run;
//! - `ok` — otherwise. Metrics without a bound (per-layer) and result
//!   sets with one run a side (no spread) are still printed, marked
//!   `info` and `ok?`.

use crate::json::Json;
use crate::spec::{spec, Metric};
use crate::stats;

/// The runs of one workload in a result set.
struct Runs {
    /// Per metric name, one value per run.
    metrics: Vec<(String, Vec<f64>)>,
    attempted: f64,
    failed: f64,
    incorrect: usize,
}

fn load(path: &str) -> Result<Vec<(String, Runs)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{path}: no `workloads` object"))?;
    workloads
        .iter()
        .map(|(name, runs)| {
            let mut out = Runs {
                metrics: Vec::new(),
                attempted: 0.0,
                failed: 0.0,
                incorrect: 0,
            };
            for run in runs
                .as_arr()
                .ok_or_else(|| format!("{path}: `{name}` is not a list of runs"))?
            {
                let result = run
                    .get("result")
                    .ok_or_else(|| format!("{path}: a `{name}` run has no result"))?;
                let number = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                out.attempted += number("attempted");
                out.failed += number("failed");
                out.incorrect += usize::from(result.get("correct") != Some(&Json::Bool(true)));
                for (metric, reading) in result
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .unwrap_or_default()
                {
                    let value = reading.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                    match out.metrics.iter_mut().find(|(n, _)| n == metric) {
                        Some((_, values)) => values.push(value),
                        None => out.metrics.push((metric.clone(), vec![value])),
                    }
                }
            }
            Ok((name.clone(), out))
        })
        .collect()
}

/// How one metric of one workload moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Within the bound, but a side has a single run: no spread to
    /// hold the bound against.
    OkUnspread,
    Regressed,
    Unresolved,
    /// No bound declared (a per-layer metric).
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::OkUnspread => "ok?",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        }
    }
}

/// Judges `new` against `base` for `metric`; also returns the share of
/// the base median by which the new median is worse (negative when it
/// is better).
pub fn judge(metric: &Metric, base: &[f64], new: &[f64]) -> (Verdict, f64) {
    let (base_med, new_med) = (stats::median(base), stats::median(new));
    let worse_by = if base_med == 0.0 {
        0.0
    } else if metric.higher_is_better {
        (base_med - new_med) / base_med.abs()
    } else {
        (new_med - base_med) / base_med.abs()
    };
    let Some(bound) = metric.bound else {
        return (Verdict::Info, worse_by);
    };
    // Set-up time is exempt from the spread rule (the contract judges
    // it on medians alone): it is short, so its spread is wide.
    let spreads = (metric.name != "setup_s").then(|| (stats::spread(base), stats::spread(new)));
    if let Some((b, n)) = spreads {
        if [b, n].into_iter().flatten().any(|s| s > bound) {
            let all_better = if metric.higher_is_better {
                new.iter().all(|n| base.iter().all(|b| n > b))
            } else {
                new.iter().all(|n| base.iter().all(|b| n < b))
            };
            return (
                if all_better {
                    Verdict::Ok
                } else {
                    Verdict::Unresolved
                },
                worse_by,
            );
        }
    }
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if base.len() < 2 || new.len() < 2 {
        Verdict::OkUnspread
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

fn describe(values: &[f64]) -> String {
    let spread = stats::spread(values).map_or("n/a".to_owned(), |s| format!("{:.1}%", s * 100.0));
    format!(
        "{:.6} (n={}, spread {spread})",
        stats::median(values),
        values.len()
    )
}

/// Prints every row and returns whether no row regressed.
pub fn compare_files(base_path: &str, new_path: &str) -> Result<bool, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    let declared: Vec<&Metric> = spec().end_to_end.iter().chain(&spec().per_layer).collect();
    let (mut regressed, mut unresolved, mut rows) = (0, 0, 0);
    println!("base = {base_path}, new = {new_path}; `worse by` is a share of the base median");
    for (workload, base_runs) in &base {
        let Some((_, new_runs)) = new.iter().find(|(n, _)| n == workload) else {
            println!("{workload}: missing from {new_path} — regressed");
            regressed += 1;
            continue;
        };
        for (name, base_values) in &base_runs.metrics {
            let metric = declared.iter().find(|m| m.name == *name);
            let new_values = new_runs
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_slice());
            let (Some(metric), Some(new_values)) = (metric, new_values) else {
                println!("{workload}  {name}: not declared, or missing from {new_path} — skipped");
                continue;
            };
            let (verdict, worse_by) = judge(metric, base_values, new_values);
            let bound = metric
                .bound
                .map_or("none".to_owned(), |b| format!("{:.0}%", b * 100.0));
            println!(
                "{workload}  {name} [{}]: base {} -> new {}: worse by {:+.2}% of base (bound {bound})  {}",
                metric.unit,
                describe(base_values),
                describe(new_values),
                worse_by * 100.0,
                verdict.label()
            );
            rows += 1;
            regressed += usize::from(verdict == Verdict::Regressed);
            unresolved += usize::from(verdict == Verdict::Unresolved);
        }
        // Any increase in the share of failed ops is a regression.
        let share = |r: &Runs| {
            if r.attempted > 0.0 {
                r.failed / r.attempted
            } else {
                0.0
            }
        };
        let (b, n) = (share(base_runs), share(new_runs));
        let failed_more = n > b || new_runs.incorrect > base_runs.incorrect;
        println!(
            "{workload}  failed_share: base {b} ({} of {}) -> new {n} ({} of {}), incorrect runs {} -> {}  {}",
            base_runs.failed,
            base_runs.attempted,
            new_runs.failed,
            new_runs.attempted,
            base_runs.incorrect,
            new_runs.incorrect,
            if failed_more { "regressed" } else { "ok" }
        );
        rows += 1;
        regressed += usize::from(failed_more);
    }
    println!("{rows} rows: {regressed} regressed, {unresolved} unresolved");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: Option<f64>) -> Metric {
        Metric {
            name: "op_ms_p50".into(),
            unit: "ms".into(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn a_median_worse_than_the_bound_regresses() {
        let m = metric(false, Some(0.10));
        let base = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(&m, &base, &[11.5, 11.4, 11.6, 11.5]).0,
            Verdict::Regressed
        );
        assert_eq!(judge(&m, &base, &[10.5, 10.4, 10.6, 10.5]).0, Verdict::Ok);
        assert_eq!(judge(&m, &base, &[8.0, 8.1, 7.9, 8.0]).0, Verdict::Ok);
        let (_, worse_by) = judge(&m, &base, &[11.0, 11.0, 11.0, 11.0]);
        assert!((worse_by - 0.10).abs() < 1e-12);
    }

    #[test]
    fn higher_is_better_metrics_regress_downwards() {
        let m = metric(true, Some(0.10));
        let base = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            judge(&m, &base, &[85.0, 86.0, 84.0, 85.0]).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&m, &base, &[120.0, 121.0, 119.0, 120.0]).0,
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let m = metric(false, Some(0.10));
        let noisy = [10.0, 14.0, 8.0, 12.0, 9.0];
        assert_eq!(
            judge(&m, &noisy, &[10.0, 10.1, 9.9, 10.0]).0,
            Verdict::Unresolved
        );
        assert_eq!(judge(&m, &noisy, &[7.0, 7.1, 6.9, 7.0]).0, Verdict::Ok);
    }

    #[test]
    fn single_runs_and_unbounded_metrics_are_marked() {
        assert_eq!(
            judge(&metric(false, Some(0.10)), &[10.0], &[10.2]).0,
            Verdict::OkUnspread
        );
        assert_eq!(
            judge(&metric(false, Some(0.10)), &[10.0], &[12.0]).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&metric(false, None), &[10.0, 10.0], &[20.0, 20.0]).0,
            Verdict::Info
        );
    }

    #[test]
    fn setup_time_is_judged_on_medians_alone() {
        let m = Metric {
            name: "setup_s".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: Some(0.25),
        };
        let noisy = [0.10, 0.20, 0.05, 0.15, 0.10];
        assert_eq!(
            judge(&m, &noisy, &[0.11, 0.19, 0.06, 0.14, 0.11]).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&m, &noisy, &[0.20, 0.25, 0.15, 0.22, 0.20]).0,
            Verdict::Regressed
        );
    }
}
