//! Summary statistics.

/// Mean/variance summary of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance (0 for n < 2).
    pub variance: f64,
    /// Standard error of the mean (0 for n < 2).
    pub stderr: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or contains non-finite values.
    pub fn from_slice(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "cannot summarize an empty sample");
        assert!(
            xs.iter().all(|x| x.is_finite()),
            "sample contains non-finite values"
        );
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let variance = if n < 2 {
            0.0
        } else {
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        };
        let stderr = (variance / n as f64).sqrt();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            n,
            mean,
            variance,
            stderr,
            min,
            max,
        }
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation of order
/// statistics.
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "cannot take a quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile must lie in [0, 1]");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean, 5.0);
        assert!((s.variance - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.n, 8);
    }

    #[test]
    fn singleton_summary() {
        let s = Summary::from_slice(&[3.5]);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.stderr, 0.0);
    }

    #[test]
    fn quantile_endpoints_and_median() {
        let xs = [3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_summary_panics() {
        let _ = Summary::from_slice(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_rejected() {
        let _ = Summary::from_slice(&[1.0, f64::NAN]);
    }
}
