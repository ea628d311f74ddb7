//! Medians, quantiles, and order statistics.
//!
//! The delay-change detector's estimator is the *median* differential RTT
//! (§4.2.2): the paper replaces the arithmetic mean of the classical CLT
//! with the median, which "is much more robust to outlying values and
//! requires less samples to converge to the normal distribution".
//!
//! Two access patterns are provided:
//! * sorting-based [`quantile_sorted`]/[`median_sorted`] when the caller
//!   already needs the full order;
//! * in-place selection for the median ([`median`]) and the Wilson CI
//!   ([`crate::wilson::median_ci_select_ranks`]): one kernel pins a contiguous
//!   range of ranks with the standard library's `select_nth_unstable_by`
//!   under [`f64::total_cmp`], in O(n) worst case. Under that total order
//!   each rank holds exactly one value — `-0.0` ranks below `+0.0` — so
//!   selection and a `total_cmp` sort agree bit for bit.

/// Pin the order statistics `lo..=hi` of `data` in place under
/// [`f64::total_cmp`]: afterwards `data[k]` holds the value a full
/// `total_cmp` sort would put at `k`, for every `k` in `lo..=hi`. Two
/// selections fix both ends (the second inside the tail the first
/// leaves), and the window between them, which holds exactly the ranks
/// `lo + 1..hi`, is sorted.
///
/// # Panics
/// Panics unless `lo <= hi < data.len()`.
pub(crate) fn select_range(data: &mut [f64], lo: usize, hi: usize) {
    assert!(
        lo <= hi && hi < data.len(),
        "ranks {lo}..={hi} out of bounds {}",
        data.len()
    );
    let (_, _, tail) = data.select_nth_unstable_by(lo, f64::total_cmp);
    if hi > lo {
        let (window, _, _) = tail.select_nth_unstable_by(hi - lo - 1, f64::total_cmp);
        window.sort_unstable_by(f64::total_cmp);
    }
}

/// Median of a slice (copies and selects; input order preserved).
///
/// Even-length inputs return the mean of the two central order statistics.
/// Returns `None` on an empty slice. The result is bit-identical to the
/// [`median_sorted`] of a [`f64::total_cmp`]-sorted copy; filter
/// non-finite values first where they must not count.
pub fn median(data: &[f64]) -> Option<f64> {
    let n = data.len();
    if n == 0 {
        return None;
    }
    let mut buf = data.to_vec();
    let central = (n - 1) / 2..=n / 2;
    select_range(&mut buf, *central.start(), *central.end());
    median_sorted(&buf[central])
}

/// Median of an already-sorted slice.
pub fn median_sorted(sorted: &[f64]) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    if n % 2 == 1 {
        Some(sorted[n / 2])
    } else {
        Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0)
    }
}

/// Linear-interpolation quantile (R-7 / NumPy `linear`) of sorted data,
/// `q ∈ [0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let n = sorted.len();
    if n == 1 {
        return Some(sorted[0]);
    }
    let pos = q * (n - 1) as f64;
    let i = pos.floor() as usize;
    let frac = pos - i as f64;
    if i + 1 < n {
        Some(sorted[i] * (1.0 - frac) + sorted[i + 1] * frac)
    } else {
        Some(sorted[n - 1])
    }
}

/// Quantile of unsorted data (sorts a copy).
pub fn quantile(data: &[f64], q: f64) -> Option<f64> {
    let mut buf = data.to_vec();
    buf.sort_by(|a, b| a.partial_cmp(b).expect("non-finite value in quantile"));
    quantile_sorted(&buf, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_with_duplicates() {
        assert_eq!(median(&[1.0, 1.0, 1.0, 9.0]), Some(1.0));
        assert_eq!(median(&[2.0, 2.0]), Some(2.0));
    }

    #[test]
    fn median_is_outlier_robust() {
        // The exact property the paper relies on: one huge outlier moves the
        // mean but not the median.
        let mut xs: Vec<f64> = (0..101).map(f64::from).collect();
        let clean = median(&xs).unwrap();
        xs[0] = 1e9;
        let dirty = median(&xs).unwrap();
        assert!((dirty - clean).abs() <= 1.0);
    }

    #[test]
    fn select_range_pins_each_single_rank() {
        let data = [9.0, -3.0, 7.0, 0.5, 7.0, 2.0, 11.0, -8.0];
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        for (k, &want) in sorted.iter().enumerate() {
            let mut buf = data.to_vec();
            select_range(&mut buf, k, k);
            assert_eq!(buf[k], want, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn select_on_empty_panics() {
        select_range(&mut [], 0, 0);
    }

    #[test]
    fn select_range_pins_every_rank() {
        let data = [9.0, -3.0, 7.0, 0.5, 7.0, 2.0, 11.0, -8.0, 4.0];
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mut buf = data.to_vec();
        select_range(&mut buf, 2, 6);
        assert_eq!(buf[2..=6], sorted[2..=6]);
        // And the buffer is still a permutation of the input.
        let mut perm = buf;
        perm.sort_by(f64::total_cmp);
        assert_eq!(perm, sorted);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn select_range_rank_out_of_bounds_panics() {
        select_range(&mut [1.0, 2.0], 0, 2);
    }

    #[test]
    fn median_orders_signed_zeros() {
        // -0.0 ranks below +0.0, as in a `total_cmp` sort.
        assert_eq!(
            median(&[0.0, 0.0, -0.0]).unwrap().to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(
            median(&[-0.0, 0.0, -0.0]).unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn quantile_interpolation() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&sorted, 1.0), Some(4.0));
        assert_eq!(quantile_sorted(&sorted, 0.5), Some(2.5));
        assert!((quantile_sorted(&sorted, 0.25).unwrap() - 1.75).abs() < 1e-12);
        assert_eq!(quantile_sorted(&sorted, 1.5), None);
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile(&[7.0], 0.3), Some(7.0));
    }

    #[test]
    fn median_agrees_with_quantile_half() {
        let data = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0];
        assert_eq!(median(&data), quantile(&data, 0.5));
    }

    proptest! {
        #[test]
        fn prop_median_between_min_max(data in prop::collection::vec(-1e6f64..1e6, 1..200)) {
            let m = median(&data).unwrap();
            let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= lo && m <= hi);
        }

        #[test]
        fn prop_median_matches_naive(data in prop::collection::vec(-1e6f64..1e6, 1..100)) {
            let mut sorted = data.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let naive = median_sorted(&sorted).unwrap();
            prop_assert!((median(&data).unwrap() - naive).abs() < 1e-9);
        }

        #[test]
        fn prop_select_range_matches_sort(
            data in prop::collection::vec(-1e3f64..1e3, 1..80),
            a in 0.0f64..1.0,
            b in 0.0f64..1.0,
        ) {
            let rank = |f: f64| ((data.len() - 1) as f64 * f) as usize;
            let (lo, hi) = (rank(a.min(b)), rank(a.max(b)));
            let mut sorted = data.clone();
            sorted.sort_by(f64::total_cmp);
            let mut buf = data.clone();
            select_range(&mut buf, lo, hi);
            prop_assert_eq!(&buf[lo..=hi], &sorted[lo..=hi]);
        }

        #[test]
        fn prop_quantile_monotone(data in prop::collection::vec(-1e4f64..1e4, 2..100), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
            let (qa, qb) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let a = quantile(&data, qa).unwrap();
            let b = quantile(&data, qb).unwrap();
            prop_assert!(a <= b + 1e-12);
        }

        #[test]
        fn prop_median_translation_equivariant(data in prop::collection::vec(-1e4f64..1e4, 1..60), shift in -1e3f64..1e3) {
            let m1 = median(&data).unwrap();
            let shifted: Vec<f64> = data.iter().map(|x| x + shift).collect();
            let m2 = median(&shifted).unwrap();
            prop_assert!((m2 - (m1 + shift)).abs() < 1e-6);
        }
    }
}
