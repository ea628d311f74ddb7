//! Wilson score confidence intervals for the median (Eq. 5).
//!
//! The paper computes a distribution-free confidence interval on the median
//! by treating "sample below/above the median" as a Bernoulli(p = 0.5)
//! variable and applying the Wilson score interval (Wilson 1927), reported
//! to behave well even at small n (Newcombe 1998). The score yields two
//! fractions `w_l`, `w_u` in `[0,1]`; multiplied by n they give the *ranks*
//! of the order statistics bounding the interval:
//!
//! ```text
//! w = ( p + z²/2n ± z √(p(1−p)/n + z²/4n²) ) / (1 + z²/n)       (Eq. 5)
//! ```
//!
//! "Based solely on order statistics, the Wilson score produces asymmetric
//! confidence intervals in the case of skewed distributions" (§4.2.2) — the
//! asymmetry falls out naturally because the bounding order statistics of a
//! skewed sample are asymmetric around the median.

use crate::quantile::{median_sorted, select_range};

/// The z value for a 95 % confidence level, used throughout the paper.
pub const Z_95: f64 = 1.96;

/// Fractional rank bounds `(w_l, w_u)` of the Wilson score interval.
///
/// `p` is the quantile under test (0.5 for the median), `n` the sample
/// count, `z` the normal critical value ([`Z_95`] in the paper).
///
/// # Panics
/// Panics if `n == 0`, `p ∉ [0,1]`, or `z < 0`.
pub fn wilson_bounds(n: usize, p: f64, z: f64) -> (f64, f64) {
    assert!(n > 0, "wilson_bounds needs at least one sample");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    assert!(z >= 0.0, "z must be non-negative");
    let nf = n as f64;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let center = p + z2 / (2.0 * nf);
    let spread = z * (p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)).sqrt();
    let wl = ((center - spread) / denom).clamp(0.0, 1.0);
    let wu = ((center + spread) / denom).clamp(0.0, 1.0);
    (wl, wu)
}

/// The 0-based order-statistic indices `(li, ui)` bounding the Wilson
/// median CI for `n` samples at critical value `z`.
///
/// This is the canonical rank mapping shared by both CI paths (sorted and
/// selecting): `l = n·w_l` floored, `u = n·w_u`
/// ceiled, both clamped into `[1, n]` and converted to 0-based indices so
/// small samples yield conservative (wide) intervals. The result depends
/// only on `(n, z)` — callers characterizing many same-sized sample sets
/// can compute it once per distinct `n` (see the engine's per-shard rank
/// cache).
///
/// # Panics
/// Panics if `n == 0` or `z < 0` (via [`wilson_bounds`]).
pub fn wilson_rank_bounds(n: usize, z: f64) -> (usize, usize) {
    let (wl, wu) = wilson_bounds(n, 0.5, z);
    let li = ((n as f64 * wl).floor() as usize).min(n - 1);
    let ui = ((n as f64 * wu).ceil() as usize).clamp(1, n) - 1;
    (li.min(ui), ui.max(li))
}

/// A median with its confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound of the interval.
    pub lower: f64,
    /// The median itself.
    pub median: f64,
    /// Upper bound of the interval.
    pub upper: f64,
    /// Number of samples the interval was computed from.
    pub n: usize,
}

impl ConfidenceInterval {
    /// Construct directly (used for references built from smoothed state).
    pub fn new(lower: f64, median: f64, upper: f64, n: usize) -> Self {
        debug_assert!(lower <= median && median <= upper, "unordered CI");
        ConfidenceInterval {
            lower,
            median,
            upper,
            n,
        }
    }

    /// Whether two intervals overlap (closed intervals).
    ///
    /// Non-overlap is the paper's significance test: "If the two confidence
    /// intervals are not overlapping, we conclude that there is a
    /// statistically significant difference between the two medians"
    /// (§4.2.3).
    pub fn overlaps(&self, other: &ConfidenceInterval) -> bool {
        self.lower <= other.upper && other.lower <= self.upper
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }
}

/// Median and Wilson-score CI of **sorted** samples.
///
/// Rank mapping follows the paper: `l = n·w_l`, `u = n·w_u`, bounds are the
/// order statistics `Δ(l)` and `Δ(u)`. Ranks are clamped into `[1, n]` and
/// converted to 0-based indices (floor for the lower rank, ceil for the
/// upper) so small samples yield conservative (wide) intervals.
///
/// Returns `None` on an empty slice.
pub fn median_ci_sorted(sorted: &[f64], z: f64) -> Option<ConfidenceInterval> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let med = median_sorted(sorted)?;
    let (li, ui) = wilson_rank_bounds(n, z);
    Some(ConfidenceInterval {
        lower: sorted[li].min(med),
        median: med,
        upper: sorted[ui].max(med),
        n,
    })
}

/// Median and Wilson-score CI of unsorted samples by **selection** — no
/// full sort — with the Wilson ranks `(li, ui)` precomputed by
/// [`wilson_rank_bounds`]`(data.len(), z)`: the engine's per-shard
/// characterization pass caches them per distinct sample count.
///
/// One range selection pins every rank from the lowest needed (`li`, or
/// the lower central rank) to the highest (`ui`, or the upper central
/// one), under [`f64::total_cmp`]. The result is bit-identical to
/// [`median_ci_sorted`] of a `total_cmp`-sorted copy, signed zeros
/// included. The buffer is permuted in place, which is exactly what the
/// bin engine wants — it hands in the buffer it gathered the link into.
///
/// Non-finite values must be filtered by the caller. Returns `None` on an
/// empty slice.
///
/// # Panics
/// Panics if `ui >= data.len()` on a non-empty slice.
pub fn median_ci_select_ranks(
    data: &mut [f64],
    li: usize,
    ui: usize,
) -> Option<ConfidenceInterval> {
    let n = data.len();
    if n == 0 {
        return None;
    }
    let central = (n - 1) / 2..=n / 2;
    select_range(data, li.min(*central.start()), ui.max(*central.end()));
    let med = median_sorted(&data[central])?;
    Some(ConfidenceInterval {
        lower: data[li].min(med),
        median: med,
        upper: data[ui].max(med),
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use proptest::prelude::*;

    /// The reference: [`median_ci_sorted`] of a `total_cmp`-sorted copy.
    fn sorted_ci(data: &[f64], z: f64) -> Option<ConfidenceInterval> {
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        median_ci_sorted(&sorted, z)
    }

    /// The engine's path: [`median_ci_select_ranks`] on a copy.
    fn select_ci(data: &[f64], z: f64) -> Option<ConfidenceInterval> {
        let mut buf = data.to_vec();
        let (li, ui) = wilson_rank_bounds(buf.len(), z);
        median_ci_select_ranks(&mut buf, li, ui)
    }

    /// Every field by bit pattern: `==` on `f64` cannot tell `-0.0`
    /// from `+0.0`.
    fn bits(ci: Option<ConfidenceInterval>) -> Option<[u64; 4]> {
        ci.map(|c| {
            [
                c.lower.to_bits(),
                c.median.to_bits(),
                c.upper.to_bits(),
                c.n as u64,
            ]
        })
    }

    #[test]
    fn bounds_bracket_p() {
        let (wl, wu) = wilson_bounds(100, 0.5, Z_95);
        assert!(wl < 0.5 && 0.5 < wu);
        // Known closed-form check: n=100, p=0.5, z=1.96 →
        // w = (0.5 + 0.019208 ± 1.96*sqrt(0.0025+9.604e-5)) / 1.038416
        let denom = 1.0 + Z_95 * Z_95 / 100.0;
        let center = 0.5 + Z_95 * Z_95 / 200.0;
        let spread = Z_95 * (0.25 / 100.0 + Z_95 * Z_95 / 40_000.0).sqrt();
        assert!((wl - (center - spread) / denom).abs() < 1e-12);
        assert!((wu - (center + spread) / denom).abs() < 1e-12);
    }

    #[test]
    fn interval_narrows_with_n() {
        let (l1, u1) = wilson_bounds(10, 0.5, Z_95);
        let (l2, u2) = wilson_bounds(1000, 0.5, Z_95);
        assert!(u2 - l2 < u1 - l1);
    }

    #[test]
    fn z_zero_collapses_interval() {
        let (wl, wu) = wilson_bounds(50, 0.5, 0.0);
        assert!((wl - 0.5).abs() < 1e-12);
        assert!((wu - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_n_panics() {
        wilson_bounds(0, 0.5, Z_95);
    }

    #[test]
    fn ci_orders_bounds() {
        let data = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0];
        let ci = select_ci(&data, Z_95).unwrap();
        assert!(ci.lower <= ci.median && ci.median <= ci.upper);
        assert_eq!(ci.n, 7);
    }

    #[test]
    fn ci_single_sample_degenerates() {
        let ci = select_ci(&[4.2], Z_95).unwrap();
        assert_eq!((ci.lower, ci.median, ci.upper), (4.2, 4.2, 4.2));
    }

    #[test]
    fn overlap_logic() {
        let a = ConfidenceInterval::new(1.0, 2.0, 3.0, 10);
        let b = ConfidenceInterval::new(2.5, 3.5, 4.0, 10);
        let c = ConfidenceInterval::new(3.1, 4.0, 5.0, 10);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        // Touching endpoints count as overlap (conservative detector).
        let d = ConfidenceInterval::new(3.0, 3.2, 3.4, 10);
        assert!(a.overlaps(&d));
    }

    #[test]
    fn skewed_sample_gives_asymmetric_interval() {
        // Log-normal-ish right-skewed data: upper arm should be longer.
        let mut rng = SplitMix64::new(77);
        let data: Vec<f64> = (0..500)
            .map(|_| (-2.0 * rng.next_f64().max(1e-12).ln()).exp())
            .collect();
        let ci = select_ci(&data, Z_95).unwrap();
        let lower_arm = ci.median - ci.lower;
        let upper_arm = ci.upper - ci.median;
        assert!(
            upper_arm > lower_arm,
            "expected right-skewed asymmetry: {lower_arm} vs {upper_arm}"
        );
    }

    #[test]
    fn coverage_is_near_95_percent() {
        // Empirical coverage check for the CLT-variant machinery: the true
        // median of U(0,1) is 0.5; the Wilson CI should contain it ~95 % of
        // the time.
        let mut rng = SplitMix64::new(123);
        let trials = 2000;
        let mut hits = 0;
        for _ in 0..trials {
            let data: Vec<f64> = (0..61).map(|_| rng.next_f64()).collect();
            let ci = select_ci(&data, Z_95).unwrap();
            if ci.lower <= 0.5 && 0.5 <= ci.upper {
                hits += 1;
            }
        }
        let coverage = f64::from(hits) / f64::from(trials);
        assert!(
            (0.92..=0.995).contains(&coverage),
            "coverage {coverage} outside tolerance"
        );
    }

    proptest! {
        #[test]
        fn prop_bounds_ordered_and_in_unit(n in 1usize..5000, p in 0.0f64..=1.0, z in 0.0f64..5.0) {
            let (wl, wu) = wilson_bounds(n, p, z);
            prop_assert!((0.0..=1.0).contains(&wl));
            prop_assert!((0.0..=1.0).contains(&wu));
            prop_assert!(wl <= wu);
        }

        #[test]
        fn prop_ci_contains_median(data in prop::collection::vec(-1e5f64..1e5, 1..300)) {
            let ci = select_ci(&data, Z_95).unwrap();
            prop_assert!(ci.lower <= ci.median);
            prop_assert!(ci.median <= ci.upper);
        }

        #[test]
        fn prop_ci_bounds_are_sample_values(data in prop::collection::vec(-1e3f64..1e3, 3..100)) {
            let ci = select_ci(&data, Z_95).unwrap();
            let close = |target: f64| data.iter().any(|x| (x - target).abs() < 1e-9);
            // Bounds are order statistics of the sample (or the median for
            // even n, which may interpolate).
            prop_assert!(close(ci.lower) || (ci.lower - ci.median).abs() < 1e-9);
            prop_assert!(close(ci.upper) || (ci.upper - ci.median).abs() < 1e-9);
        }

        #[test]
        fn prop_select_matches_sort_path(
            data in prop::collection::vec(-1e5f64..1e5, 1..300),
            z in 0.0f64..4.0,
        ) {
            // The engine-parity guarantee rests on selection and the
            // sorted reference agreeing bit for bit.
            let mut buf = data.clone();
            let (li, ui) = wilson_rank_bounds(buf.len(), z);
            let fast = median_ci_select_ranks(&mut buf, li, ui);
            prop_assert_eq!(bits(fast), bits(sorted_ci(&data, z)));
            // And the buffer is a permutation of the input.
            let mut b = data;
            b.sort_by(f64::total_cmp);
            buf.sort_by(f64::total_cmp);
            prop_assert_eq!(&buf, &b);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        #[test]
        fn prop_select_ranks_match_total_order_sort_by_bits(seed in 0u64..u64::MAX) {
            // Every n up to a deep link's pool, drawn from a few values
            // (heavy ties) that include both signed zeros; z from the
            // collapsed interval to one so wide that li = 0, ui = n − 1.
            const VALUES: [f64; 8] = [-0.0, 0.0, 0.0, -0.0, 1.5, -2.0, 3.25, 1.5];
            let mut rng = SplitMix64::new(seed);
            for n in 1..=1100usize {
                let data: Vec<f64> = (0..n)
                    .map(|_| VALUES[rng.next_below(VALUES.len() as u64) as usize])
                    .collect();
                for z in [0.0, Z_95, 1e9] {
                    let (li, ui) = wilson_rank_bounds(n, z);
                    if z == 1e9 {
                        prop_assert_eq!((li, ui), (0, n - 1));
                    }
                    prop_assert_eq!(
                        bits(select_ci(&data, z)),
                        bits(sorted_ci(&data, z)),
                        "n={} z={}",
                        n,
                        z
                    );
                }
            }
        }
    }

    #[test]
    fn z_zero_even_n_pins_both_central_ranks() {
        // z = 0 on even n drives the Wilson upper rank *below* the median
        // index (ui = m_idx − 1) — the corner the selected rank range
        // must still cover.
        for data in [vec![4.0, 1.0], vec![7.0, 3.0, 9.0, 1.0, 5.0, 2.0]] {
            assert_eq!(bits(select_ci(&data, 0.0)), bits(sorted_ci(&data, 0.0)));
        }
    }

    #[test]
    fn rank_bounds_are_ordered_and_in_range() {
        for n in 1..200usize {
            let (li, ui) = wilson_rank_bounds(n, Z_95);
            assert!(li <= ui && ui < n, "n={n}: ({li}, {ui})");
        }
    }

    #[test]
    fn select_ci_empty_is_none() {
        assert_eq!(median_ci_select_ranks(&mut [], 0, 0), None);
        assert_eq!(median_ci_sorted(&[], Z_95), None);
    }
}
