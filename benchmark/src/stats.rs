//! Order statistics the benchmark reports: medians, quartiles as Python's
//! `statistics.quantiles(values, n=4)` gives them (the acceptance check uses
//! exactly that method, so calibration must too), interpolated percentiles,
//! and the median-of-slices throughput.

/// Sorts a copy of `values` ascending (NaN-free input).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are finite"));
    v
}

/// Median of `values`; 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q2, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`: the i-th cut point sits at position
/// `i * (len + 1) / 4` (1-based) with linear interpolation, clamped to the
/// data. Needs at least two values; fewer yield the single value thrice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile range as a share of the median (0.0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The `p`-quantile (`p` in `[0, 1]`) of an ascending-sorted slice, linearly
/// interpolated between the two neighbouring order statistics so the value
/// is continuous in the samples (no bucket quantisation).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = rank - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }
}

/// How many samples lie beyond the `p`-quantile of `n` samples. The guides
/// ask for at least ten beyond the highest percentile reported.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    ((1.0 - p) * n as f64).floor() as usize
}

/// Events per second as the median over `slices` equal slices of
/// `[start, end)`: one scheduling hiccup moves one slice, not the result.
/// `times` need not be sorted; events outside the window are ignored.
pub fn slice_median_rate(times: &[u64], start: u64, end: u64, slices: usize) -> f64 {
    let counts = slice_counts(times, start, end, slices);
    if counts.is_empty() {
        return 0.0;
    }
    let slice_secs = (end - start) as f64 / slices as f64 / 1e9;
    let rates: Vec<f64> = counts.iter().map(|c| *c as f64 / slice_secs).collect();
    median(&rates)
}

/// Event counts per equal slice of `[start, end)`.
pub fn slice_counts(times: &[u64], start: u64, end: u64, slices: usize) -> Vec<u64> {
    if end <= start || slices == 0 {
        return Vec::new();
    }
    let mut counts = vec![0u64; slices];
    let span = (end - start) as u128;
    for &t in times {
        if t >= start && t < end {
            let idx = ((t - start) as u128 * slices as u128 / span) as usize;
            counts[idx.min(slices - 1)] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12, "{q1}");
        assert!((q2 - 5.5).abs() < 1e-12, "{q2}");
        assert!((q3 - 8.25).abs() < 1e-12, "{q3}");
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q2, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q1, q2, q3), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, q2, q3), (1.5, 3.0, 4.5));
        assert!((spread(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&v, 0.0), 10.0);
        assert_eq!(percentile_sorted(&v, 1.0), 40.0);
        assert!((percentile_sorted(&v, 0.5) - 25.0).abs() < 1e-12);
        assert!((percentile_sorted(&v, 0.99) - 39.7).abs() < 1e-9);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
    }

    #[test]
    fn slice_median_ignores_one_stalled_slice() {
        // 10 slices of 1 s; 100 events in each but the third, which has 10.
        let mut times = Vec::new();
        for s in 0..10u64 {
            let n = if s == 2 { 10 } else { 100 };
            for i in 0..n {
                times.push(5_000_000_000 + s * 1_000_000_000 + i * 1_000_000);
            }
        }
        times.push(1); // before the window
        times.push(99_000_000_000); // after it
        let rate = slice_median_rate(&times, 5_000_000_000, 15_000_000_000, 10);
        assert_eq!(rate, 100.0);
        let counts = slice_counts(&times, 5_000_000_000, 15_000_000_000, 10);
        assert_eq!(counts.iter().sum::<u64>(), 910);
        assert_eq!(counts[2], 10);
    }
}
