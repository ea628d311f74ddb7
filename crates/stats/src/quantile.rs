//! Medians, quantiles, and order statistics.
//!
//! The delay-change detector's estimator is the *median* differential RTT
//! (§4.2.2): the paper replaces the arithmetic mean of the classical CLT
//! with the median, which "is much more robust to outlying values and
//! requires less samples to converge to the normal distribution".
//!
//! Two access patterns are provided:
//! * sorting-based [`quantile_sorted`]/[`median_sorted`] when the caller
//!   already needs the full order (Wilson CIs index into the sorted array);
//! * an in-place quickselect [`select_kth`] for one-off order statistics in
//!   O(n) expected time.

/// Select (in place) the `k`-th smallest element (0-based) of `data`.
///
/// Expected O(n) quickselect with median-of-three pivoting. After the call,
/// `data[k]` holds the k-th order statistic and the slice is partitioned
/// around it.
///
/// # Panics
/// Panics if `data` is empty or `k >= data.len()`.
pub fn select_kth(data: &mut [f64], k: usize) -> f64 {
    assert!(!data.is_empty(), "select_kth on empty slice");
    assert!(k < data.len(), "k {k} out of bounds {}", data.len());
    let (mut lo, mut hi) = (0usize, data.len() - 1);
    // Classic Hoare quickselect: narrow [lo, hi] around k until it pins a
    // single element. The Hoare partition only guarantees a split point —
    // not that data[p] is final — so there is no early-exit on k == p.
    while lo < hi {
        let pivot = median_of_three(data, lo, hi);
        let p = partition(data, lo, hi, pivot);
        if k <= p {
            hi = p;
        } else {
            lo = p + 1;
        }
    }
    data[k]
}

/// Select (in place) **several** order statistics in one pass.
///
/// `ks` must be sorted ascending, deduplicated, and in bounds. After the
/// call `data[k]` holds the `k`-th order statistic for every `k` in
/// `ks`. Each Hoare partition serves every rank at once: the sorted rank
/// list splits at the partition point and each side is resolved inside
/// the sub-range that partition already produced — the partition work a
/// rank-by-rank [`select_kth`] sequence would redo is shared instead.
/// With the same pivot rule (`median_of_three`) and partition scheme
/// as [`select_kth`], every pinned value is the exact order statistic a
/// full sort would place there.
///
/// # Panics
/// Panics if `ks` is non-empty and `data` is empty, or any rank is out
/// of bounds.
pub fn select_multi(data: &mut [f64], ks: &[usize]) {
    if ks.is_empty() {
        return;
    }
    assert!(!data.is_empty(), "select_multi on empty slice");
    debug_assert!(ks.windows(2).all(|w| w[0] < w[1]), "ranks must ascend");
    assert!(
        *ks.last().expect("non-empty") < data.len(),
        "rank {} out of bounds {}",
        ks.last().expect("non-empty"),
        data.len()
    );
    select_multi_in(data, 0, data.len() - 1, ks);
}

/// The recursive core of [`select_multi`]: resolve `ks` within
/// `data[lo..=hi]`. Iterates while the ranks stay on one side of the
/// partition (exactly [`select_kth`]'s narrowing loop); recurses only
/// when they straddle it, so the depth is bounded by `ks.len()`.
fn select_multi_in(data: &mut [f64], mut lo: usize, mut hi: usize, mut ks: &[usize]) {
    while !ks.is_empty() && lo < hi {
        let pivot = median_of_three(data, lo, hi);
        let p = partition(data, lo, hi, pivot);
        let split = ks.partition_point(|&k| k <= p);
        let (left, right) = ks.split_at(split);
        if left.is_empty() {
            lo = p + 1;
            ks = right;
        } else if right.is_empty() {
            hi = p;
            ks = left;
        } else {
            select_multi_in(data, lo, p, left);
            lo = p + 1;
            ks = right;
        }
    }
}

fn median_of_three(data: &mut [f64], lo: usize, hi: usize) -> f64 {
    let mid = lo + (hi - lo) / 2;
    // Order data[lo] <= data[mid] <= data[hi].
    if data[mid] < data[lo] {
        data.swap(mid, lo);
    }
    if data[hi] < data[lo] {
        data.swap(hi, lo);
    }
    if data[hi] < data[mid] {
        data.swap(hi, mid);
    }
    data[mid]
}

fn partition(data: &mut [f64], lo: usize, hi: usize, pivot: f64) -> usize {
    let mut i = lo;
    let mut j = hi;
    loop {
        while data[i] < pivot {
            i += 1;
        }
        while data[j] > pivot {
            j -= 1;
        }
        if i >= j {
            return j;
        }
        data.swap(i, j);
        i += 1;
        if j == 0 {
            return 0;
        }
        j -= 1;
    }
}

/// Median of a slice (copies and selects; input order preserved).
///
/// Even-length inputs return the mean of the two central order statistics.
/// Returns `None` on an empty slice. Non-finite values must be filtered by
/// the caller; they would poison comparisons.
pub fn median(data: &[f64]) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    let mut buf = data.to_vec();
    let n = buf.len();
    if n % 2 == 1 {
        Some(select_kth(&mut buf, n / 2))
    } else {
        let hi = select_kth(&mut buf, n / 2);
        // After selecting n/2, the max of the lower partition is the other
        // central element.
        let lo = buf[..n / 2]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        Some((lo + hi) / 2.0)
    }
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

/// Sort a copy of the data (ascending), for callers that need repeated
/// order-statistic access.
pub fn sorted_copy(data: &[f64]) -> Vec<f64> {
    let mut buf = data.to_vec();
    buf.sort_by(|a, b| a.partial_cmp(b).expect("non-finite value in sorted_copy"));
    buf
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
    fn select_kth_matches_sort() {
        let data = [9.0, -3.0, 7.0, 0.5, 7.0, 2.0, 11.0, -8.0];
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (k, &want) in sorted.iter().enumerate() {
            let mut buf = data.to_vec();
            assert_eq!(select_kth(&mut buf, k), want, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn select_on_empty_panics() {
        select_kth(&mut [], 0);
    }

    #[test]
    fn select_multi_pins_every_rank() {
        let data = [9.0, -3.0, 7.0, 0.5, 7.0, 2.0, 11.0, -8.0, 4.0];
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut buf = data.to_vec();
        let ks = [0usize, 2, 4, 8];
        select_multi(&mut buf, &ks);
        for &k in &ks {
            assert_eq!(buf[k], sorted[k], "k={k}");
        }
        // And the buffer is still a permutation of the input.
        let mut perm = buf;
        perm.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(perm, sorted);
    }

    #[test]
    fn select_multi_empty_ranks_is_noop() {
        let mut buf = vec![3.0, 1.0, 2.0];
        select_multi(&mut buf, &[]);
        assert_eq!(buf, vec![3.0, 1.0, 2.0]);
        select_multi(&mut [], &[]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn select_multi_rank_out_of_bounds_panics() {
        select_multi(&mut [1.0, 2.0], &[2]);
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
        fn prop_select_kth_matches_sort(data in prop::collection::vec(-1e3f64..1e3, 1..80), k_frac in 0.0f64..1.0) {
            let k = ((data.len() - 1) as f64 * k_frac) as usize;
            let mut sorted = data.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut buf = data.clone();
            prop_assert_eq!(select_kth(&mut buf, k), sorted[k]);
        }

        #[test]
        fn prop_select_multi_matches_sort(
            data in prop::collection::vec(-1e3f64..1e3, 1..80),
            fracs in prop::collection::vec(0.0f64..1.0, 1..5),
        ) {
            let mut ks: Vec<usize> = fracs
                .iter()
                .map(|f| ((data.len() - 1) as f64 * f) as usize)
                .collect();
            ks.sort_unstable();
            ks.dedup();
            let mut sorted = data.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut buf = data.clone();
            select_multi(&mut buf, &ks);
            for &k in &ks {
                prop_assert_eq!(buf[k], sorted[k]);
            }
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
