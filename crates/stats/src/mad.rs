//! Median absolute deviation and the event magnitude metric (Eq. 10).
//!
//! AS-level event detection (§6) normalizes each severity time series by its
//! one-week sliding median and MAD:
//!
//! ```text
//! mag(X) = (X − median(X)) / (1 + 1.4826 · MAD(X))
//! ```
//!
//! The `1.4826` factor makes the MAD a consistent estimator of the standard
//! deviation under normality (Wilcox 2010); the `1 +` in the denominator
//! keeps the metric finite when the window is perfectly quiet (MAD = 0).

use crate::quantile::median;

/// Consistency constant making MAD comparable to σ under normality.
pub const MAD_TO_SIGMA: f64 = 1.4826;

/// Median absolute deviation of a sample: `median(|x − median(x)|)`.
///
/// Returns `None` on an empty slice.
pub fn mad(data: &[f64]) -> Option<f64> {
    let m = median(data)?;
    let deviations: Vec<f64> = data.iter().map(|x| (x - m).abs()).collect();
    median(&deviations)
}

/// Magnitude of the latest value against a window (Eq. 10).
///
/// `window` is the sliding history (the paper uses one week of hourly bins)
/// and `x` the value to score. Returns `None` when the window is empty.
pub fn magnitude(window: &[f64], x: f64) -> Option<f64> {
    let med = median(window)?;
    let dev = mad(window)?;
    Some((x - med) / (1.0 + MAD_TO_SIGMA * dev))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mad_of_symmetric_sample() {
        // median = 3, |x−3| = [2,1,0,1,2] → MAD = 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some(1.0));
    }

    #[test]
    fn mad_constant_series_is_zero() {
        assert_eq!(mad(&[4.0; 10]), Some(0.0));
        assert_eq!(mad(&[]), None);
    }

    #[test]
    fn mad_is_outlier_robust() {
        let mut xs: Vec<f64> = (0..100).map(f64::from).collect();
        let clean = mad(&xs).unwrap();
        xs[0] = 1e9;
        let dirty = mad(&xs).unwrap();
        assert!((dirty - clean).abs() <= 1.0);
    }

    #[test]
    fn magnitude_zero_for_typical_value() {
        let window: Vec<f64> = (0..168).map(|i| f64::from(i % 5)).collect();
        let med = median(&window).unwrap();
        assert_eq!(magnitude(&window, med), Some(0.0));
    }

    #[test]
    fn magnitude_finite_on_quiet_window() {
        // All-zero window (an AS with no alarms all week): MAD = 0, the
        // `1 +` denominator keeps the spike finite and equal to the raw
        // deviation.
        let window = [0.0; 168];
        assert_eq!(magnitude(&window, 42.0), Some(42.0));
    }

    #[test]
    fn magnitude_sign_tracks_direction() {
        let window: Vec<f64> = (0..100).map(|i| f64::from(i % 7)).collect();
        assert!(magnitude(&window, 100.0).unwrap() > 0.0);
        assert!(magnitude(&window, -100.0).unwrap() < 0.0);
    }

    #[test]
    fn magnitude_matches_eq10_by_hand() {
        // Window [1, 2, 3, 4, 100]: median 3, |x − 3| = [2, 1, 0, 1, 97]
        // → MAD 1. At x = 10, Eq. 10 gives 7 / (1 + 1.4826 · 1), about
        // 2.8196; an unscaled MAD would give 3.5.
        let window = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(median(&window), Some(3.0));
        assert_eq!(mad(&window), Some(1.0));
        let got = magnitude(&window, 10.0).unwrap();
        assert!((got - 7.0 / 2.4826).abs() < 1e-12, "{got}");
    }

    #[test]
    fn magnitude_empty_window_is_none() {
        assert_eq!(magnitude(&[], 1.0), None);
    }

    proptest! {
        #[test]
        fn prop_mad_nonnegative(data in prop::collection::vec(-1e5f64..1e5, 1..200)) {
            prop_assert!(mad(&data).unwrap() >= 0.0);
        }

        #[test]
        fn prop_mad_translation_invariant(data in prop::collection::vec(-1e3f64..1e3, 1..100), shift in -1e3f64..1e3) {
            let m1 = mad(&data).unwrap();
            let shifted: Vec<f64> = data.iter().map(|x| x + shift).collect();
            let m2 = mad(&shifted).unwrap();
            prop_assert!((m1 - m2).abs() < 1e-6);
        }

        #[test]
        fn prop_magnitude_monotone_in_x(data in prop::collection::vec(-1e3f64..1e3, 2..100), x1 in -1e3f64..1e3, x2 in -1e3f64..1e3) {
            let (a, b) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
            let ma = magnitude(&data, a).unwrap();
            let mb = magnitude(&data, b).unwrap();
            prop_assert!(ma <= mb + 1e-12);
        }
    }
}
