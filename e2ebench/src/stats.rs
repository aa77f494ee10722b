//! Percentiles and quartiles shared by every workload.
//!
//! A timing is always reported with its sample count, and a percentile
//! is refused unless at least [`MIN_BEYOND`] samples lie beyond it: a
//! p99 of 300 samples is the third-largest sample, not a p99.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A set of timings (any unit), kept sorted on demand.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: Samples) {
        self.values.extend(other.values);
        self.sorted = false;
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
    }

    /// The nearest-rank `q`-th percentile (`0 < q < 100`), or `None`
    /// when fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&mut self, q: f64) -> Option<f64> {
        self.sort();
        percentile_sorted(&self.values, q)
    }
}

/// [`Samples::percentile`] over an ascending slice.
fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 100.0, "percentile {q} outside (0, 100)");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest sample with at least q% of samples at
    // or below it.
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    (n - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// The median of unsorted values (mean of the middle pair for even
/// counts), as Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so spreads computed here
/// match the ones any acceptance script computes. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a bound is compared against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let mut s = Samples::new();
        for i in 1..=100 {
            s.push(i as f64);
        }
        // p90 of 100 samples is the 90th value; ten lie beyond it.
        assert_eq!(s.percentile(90.0), Some(90.0));
        // p99 would leave one sample beyond: refused.
        assert_eq!(s.percentile(99.0), None);
        assert_eq!(s.percentile(50.0), Some(50.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let mut s = Samples::new();
        for i in 0..999 {
            s.push(i as f64);
        }
        assert_eq!(s.percentile(99.0), None);
        s.push(999.0);
        assert_eq!(s.percentile(99.0), Some(989.0));
    }

    #[test]
    fn percentile_sorts_lazily_after_pushes() {
        let mut s = Samples::new();
        for i in (0..40).rev() {
            s.push(i as f64);
        }
        assert_eq!(s.percentile(50.0), Some(19.0));
        s.push(-1.0);
        assert_eq!(s.len(), 41);
        assert_eq!(s.percentile(50.0), Some(19.0));
    }

    #[test]
    fn empty_samples_have_no_percentile() {
        assert_eq!(Samples::new().percentile(50.0), None);
        assert_eq!(median(&[]), None);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_spread(&v).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }
}
