//! Random-variate samplers for the network simulator.
//!
//! `rand_distr` is not in the allowed dependency set, so the distributions
//! the delay/loss models need are implemented here:
//!
//! * [`Normal`] — Marsaglia polar method;
//! * [`LogNormal`] — exp of a normal; models the body of RTT noise
//!   (RTT distributions are right-skewed, Fontugne et al. INFOCOM'15);
//! * [`Exponential`] — inversion; inter-event times;
//! * [`Pareto`] — inversion; heavy-tailed delay spikes and the rare gross
//!   outliers that break mean-based detection (Fig. 3b);
//! * Bernoulli helpers live on `SplitMix64` directly.
//!
//! Each sampler is validated against its analytic moments in the tests.

use crate::rng::SplitMix64;

/// Normal (Gaussian) distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Create a normal distribution.
    ///
    /// # Panics
    /// Panics if `std_dev < 0` or parameters are non-finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(mean.is_finite() && std_dev.is_finite(), "non-finite params");
        assert!(std_dev >= 0.0, "negative std dev");
        Normal { mean, std_dev }
    }

    /// Draw one sample (Marsaglia polar method).
    pub fn sample(&self, rng: &mut SplitMix64) -> f64 {
        if self.std_dev == 0.0 {
            return self.mean;
        }
        loop {
            let u = 2.0 * rng.next_f64() - 1.0;
            let v = 2.0 * rng.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mean + self.std_dev * u * factor;
            }
        }
    }
}

/// Log-normal distribution parameterized by the underlying normal's µ and σ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    norm: Normal,
}

impl LogNormal {
    /// Create from the location (µ) and scale (σ) of `ln X`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            norm: Normal::new(mu, sigma),
        }
    }

    /// Create from the desired *median* of X and σ of `ln X`.
    ///
    /// Convenient for delay modelling: `median` is the typical extra delay,
    /// σ controls the tail weight.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "log-normal median must be positive");
        LogNormal::new(median.ln(), sigma)
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut SplitMix64) -> f64 {
        self.norm.sample(rng).exp()
    }

    /// Analytic mean `exp(µ + σ²/2)`.
    pub fn mean(&self) -> f64 {
        (self.norm.mean + self.norm.std_dev * self.norm.std_dev / 2.0).exp()
    }
}

/// Exponential distribution with rate λ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Create with rate `lambda` (> 0).
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda.is_finite(), "lambda must be > 0");
        Exponential { lambda }
    }

    /// Create from the mean (1/λ).
    pub fn from_mean(mean: f64) -> Self {
        Exponential::new(1.0 / mean)
    }

    /// Draw one sample by inversion.
    pub fn sample(&self, rng: &mut SplitMix64) -> f64 {
        // 1 − U avoids ln(0).
        -(1.0 - rng.next_f64()).ln() / self.lambda
    }
}

/// Pareto (type I) distribution: `P(X > x) = (x_m / x)^α` for `x ≥ x_m`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Create with scale `x_m` (> 0) and shape α (> 0).
    pub fn new(scale: f64, shape: f64) -> Self {
        assert!(scale > 0.0 && shape > 0.0, "pareto params must be > 0");
        Pareto { scale, shape }
    }

    /// Draw one sample by inversion.
    pub fn sample(&self, rng: &mut SplitMix64) -> f64 {
        let u = 1.0 - rng.next_f64(); // in (0, 1]
        self.scale / u.powf(1.0 / self.shape)
    }

    /// Analytic mean (∞ when α ≤ 1, returned as `f64::INFINITY`).
    pub fn mean(&self) -> f64 {
        if self.shape <= 1.0 {
            f64::INFINITY
        } else {
            self.shape * self.scale / (self.shape - 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::Summary;

    fn sample_n(n: usize, seed: u64, mut f: impl FnMut(&mut SplitMix64) -> f64) -> Summary {
        let mut rng = SplitMix64::new(seed);
        let mut s = Summary::new();
        for _ in 0..n {
            s.push(f(&mut rng));
        }
        s
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(5.0, 2.0);
        let s = sample_n(200_000, 1, |r| d.sample(r));
        assert!((s.mean() - 5.0).abs() < 0.02, "mean {}", s.mean());
        assert!((s.std_dev() - 2.0).abs() < 0.02, "sd {}", s.std_dev());
        assert!(s.skewness().abs() < 0.05, "skew {}", s.skewness());
    }

    #[test]
    fn normal_zero_sigma_is_constant() {
        let d = Normal::new(3.0, 0.0);
        let mut rng = SplitMix64::new(2);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.0);
        }
    }

    #[test]
    #[should_panic(expected = "negative std dev")]
    fn normal_rejects_negative_sigma() {
        Normal::new(0.0, -1.0);
    }

    #[test]
    fn lognormal_median_and_mean() {
        let d = LogNormal::from_median(2.0, 0.5);
        let mut rng = SplitMix64::new(3);
        let mut xs: Vec<f64> = (0..100_001).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[xs.len() / 2];
        assert!((med - 2.0).abs() < 0.05, "median {med}");
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(
            (mean - d.mean()).abs() < 0.05,
            "mean {mean} vs {}",
            d.mean()
        );
        assert!(xs[0] > 0.0, "log-normal must be positive");
    }

    #[test]
    fn lognormal_is_right_skewed() {
        let d = LogNormal::from_median(1.0, 1.0);
        let s = sample_n(50_000, 4, |r| d.sample(r));
        assert!(s.skewness() > 1.0, "skew {}", s.skewness());
    }

    #[test]
    fn exponential_moments() {
        let d = Exponential::from_mean(4.0);
        let s = sample_n(200_000, 5, |r| d.sample(r));
        assert!((s.mean() - 4.0).abs() < 0.05, "mean {}", s.mean());
        // Var = mean² for exponential.
        assert!((s.variance() - 16.0).abs() < 0.5, "var {}", s.variance());
        assert!(s.min() >= 0.0);
    }

    #[test]
    fn pareto_tail_and_mean() {
        let d = Pareto::new(1.0, 2.5);
        let s = sample_n(300_000, 6, |r| d.sample(r));
        assert!(s.min() >= 1.0);
        assert!(
            (s.mean() - d.mean()).abs() < 0.05,
            "mean {} vs {}",
            s.mean(),
            d.mean()
        );
        // Tail check: P(X > 4) = 4^-2.5 ≈ 0.03125.
        let mut rng = SplitMix64::new(7);
        let n = 200_000;
        let tail = (0..n).filter(|_| d.sample(&mut rng) > 4.0).count() as f64 / n as f64;
        assert!((tail - 0.03125).abs() < 0.003, "tail {tail}");
    }

    #[test]
    fn pareto_infinite_mean_flagged() {
        assert!(Pareto::new(1.0, 0.9).mean().is_infinite());
    }

    #[test]
    fn samplers_are_deterministic_per_seed() {
        let d = Normal::new(0.0, 1.0);
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..50 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }
}
