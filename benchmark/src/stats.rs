//! Order statistics for timing samples and for run-to-run spreads.

/// Sorts samples ascending (NaN-free by construction: they are clock
/// differences).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The nearest-rank `p`-th percentile of ascending `sorted`; 0 when
/// there are no samples.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Samples that lie beyond the `p`-th percentile of `n`.
fn beyond(p: u32, n: usize) -> usize {
    n * (100 - p as usize) / 100
}

/// The highest of `candidates` that still has at least ten of `n`
/// samples beyond it — a percentile with fewer is one outlier's
/// position, not a property of the distribution.
pub fn highest_supported(candidates: &[u32], n: usize) -> Option<u32> {
    candidates
        .iter()
        .copied()
        .filter(|&p| beyond(p, n) >= 10)
        .max()
}

/// Whether the `p`-th percentile of `n` samples has ten beyond it.
pub fn supported(p: u32, n: usize) -> bool {
    highest_supported(&[p], n).is_some()
}

/// The median of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Op time over reference time, the host's weather divided out.
///
/// `op_ms` holds a run's op samples in time order and `ref_ms` one
/// reference-job time per stretch of the run, taken when
/// `ref_after[i]` ops had been sampled. The stretches are cut into
/// `windows` consecutive groups of equal count (fewer when there are
/// not four stretches for each); within a group the ratio is the lower
/// quartile of its op times over the lower quartile of its reference
/// times — interference only ever adds time, so the lower quartiles
/// are the two readings least disturbed, taken over the same stretch
/// of weather — and the result is the median group's ratio. 0 when
/// there is nothing to divide.
pub fn windowed_ratio(op_ms: &[f64], ref_ms: &[f64], ref_after: &[usize], windows: usize) -> f64 {
    let stretches = ref_ms.len().min(ref_after.len());
    let groups = windows.min(stretches / 4).max(1);
    let ratios: Vec<f64> = (0..groups)
        .filter_map(|g| {
            let (from, to) = (g * stretches / groups, (g + 1) * stretches / groups);
            let first_op = if from == 0 { 0 } else { ref_after[from - 1] };
            let ops = sorted(
                op_ms
                    .get(first_op..*ref_after.get(to.checked_sub(1)?)?)?
                    .to_vec(),
            );
            let refs = sorted(ref_ms[from..to].to_vec());
            let reference = percentile(&refs, 25);
            (!ops.is_empty() && reference > 0.0).then(|| percentile(&ops, 25) / reference)
        })
        .collect();
    median(&ratios)
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

/// The interquartile distance as a share of the median — the spread
/// the benchmark's bounds are judged against. `None` below two values
/// or with a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), 50.0);
        assert_eq!(percentile(&s, 95), 95.0);
        assert_eq!(percentile(&s, 99), 99.0);
        assert_eq!(percentile(&s[..3], 50), 2.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        let ladder = [50, 95, 99];
        assert_eq!(highest_supported(&ladder, 19), None);
        assert_eq!(highest_supported(&ladder, 20), Some(50));
        assert_eq!(highest_supported(&ladder, 199), Some(50));
        assert_eq!(highest_supported(&ladder, 200), Some(95));
        assert_eq!(highest_supported(&ladder, 999), Some(95));
        assert_eq!(highest_supported(&ladder, 1000), Some(99));
        assert!(supported(95, 420) && !supported(99, 420));
    }

    #[test]
    fn windowed_ratio_divides_each_window_by_its_own_reference() {
        // Eight stretches of two ops each; the host is twice as slow
        // in the second half, for ops and reference alike.
        let slow = |i: usize| if i < 4 { 1.0 } else { 2.0 };
        let op_ms: Vec<f64> = (0..16).map(|i| 6.0 * slow(i / 2)).collect();
        let ref_ms: Vec<f64> = (0..8).map(|i| 2.0 * slow(i)).collect();
        let ref_after: Vec<usize> = (1..=8).map(|i| 2 * i).collect();
        assert_eq!(windowed_ratio(&op_ms, &ref_ms, &ref_after, 2), 3.0);
        assert_eq!(windowed_ratio(&op_ms, &ref_ms, &ref_after, 20), 3.0);
        // One window over everything compares lower quartiles: calm with calm.
        assert_eq!(windowed_ratio(&op_ms, &ref_ms, &ref_after, 1), 3.0);
        // An op that gets 10 % faster reads 10 % lower.
        let faster: Vec<f64> = op_ms.iter().map(|ms| ms * 0.9).collect();
        let ratio = windowed_ratio(&faster, &ref_ms, &ref_after, 2);
        assert!((ratio - 2.7).abs() < 1e-12);
        assert_eq!(windowed_ratio(&[], &[], &[], 20), 0.0);
        assert_eq!(windowed_ratio(&[1.0], &[2.0], &[1], 20), 0.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3.0, 1.0], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(5.5 / 5.5));
    }
}
