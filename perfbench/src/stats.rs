//! Summary statistics for repeated measurements.

/// The samples sorted ascending (total order, so NaN cannot panic the sort).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the two middle samples for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// First, second and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
/// spreads printed here match the ones an external harness computes from
/// the same values. `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        // Negative at the clamped low end (extrapolation), as in Python.
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// The highest percentile that still has at least ten samples beyond it:
/// with `n` samples sorted ascending, the sample at 0-based rank `n − 11`
/// has exactly ten samples after it, and sits at percentile
/// `100 · (n − 10) / n`. Returns `(percentile, value, n)`, or `None` below
/// eleven samples (no tail estimate is then supported by the data).
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64, usize)> {
    let v = sorted(xs);
    let n = v.len();
    (n >= 11).then(|| (100.0 * (n - 10) as f64 / n as f64, v[n - 11], n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        let (p, v, n) = tail_percentile(&xs).unwrap();
        assert_eq!((p, v, n), (50.0, 9.0, 20));
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        let xs: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let (p, v, n) = tail_percentile(&xs).unwrap();
        assert_eq!((p, v, n), (99.0, 989.0, 1000));
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }
}
