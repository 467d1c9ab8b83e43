//! Streaming and batch statistics used by trace analysis and experiments.

/// Zipf weights `w_i = 1/(i+1)^s` for ranks `0..n`.
///
/// `s = 0` is uniform; real rack popularity distributions are commonly
/// fitted with `s ∈ [0.8, 1.6]`. Shared by the trace generators and the
/// demand-matrix constructors (one definition, so the two layers cannot
/// drift apart).
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    assert!(n > 0 && s >= 0.0);
    (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect()
}

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample standard deviation (0 if fewer than 2 observations).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Minimum observation (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Maximum observation (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

/// Summary of a batch of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Summarizes a slice of samples; returns zeros for an empty slice.
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary {
            count: 0,
            mean: 0.0,
            stddev: 0.0,
            min: 0.0,
            max: 0.0,
        };
    }
    let mut acc = OnlineStats::new();
    for &x in samples {
        acc.push(x);
    }
    Summary {
        count: samples.len(),
        mean: acc.mean(),
        stddev: acc.stddev(),
        min: acc.min(),
        max: acc.max(),
    }
}

/// Gini coefficient of non-negative weights: 0 = perfectly uniform,
/// → 1 = maximally skewed. Used to quantify spatial skew of traffic matrices.
pub fn gini(weights: &[f64]) -> f64 {
    let n = weights.len();
    if n == 0 {
        return 0.0;
    }
    let mut v: Vec<f64> = weights.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in gini input"));
    let total: f64 = v.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    // Gini = (2 * sum_i i*x_(i) ) / (n * total) - (n + 1) / n, with 1-based i.
    let weighted: f64 = v.iter().enumerate().map(|(i, x)| (i + 1) as f64 * x).sum();
    (2.0 * weighted) / (n as f64 * total) - (n as f64 + 1.0) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn gini_extremes() {
        assert!(gini(&[1.0, 1.0, 1.0, 1.0]).abs() < 1e-12);
        let skewed = gini(&[0.0, 0.0, 0.0, 100.0]);
        assert!(skewed > 0.7, "skewed gini was {skewed}");
        assert!(gini(&[]) == 0.0);
    }

    #[test]
    fn summarize_empty() {
        let s = summarize(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }
}
