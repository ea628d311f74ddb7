//! Stable LSD radix sort over `u64` composite keys.
//!
//! The engine's per-shard grouping sorts a run/row index by a packed
//! `u64` key where equal keys must keep their gather (= record) order.
//! A least-significant-digit radix sort is *stable by construction*, so
//! it replaces the comparison sort's explicit `(chunk, start)` tiebreak
//! for free — and runs in O(n · live_digits) instead of O(n log n).
//!
//! The keys are packed small dense ids (`local_id << 32 | slot`), so
//! most of the eight byte digits are constant across a shard's keys. A
//! cheap XOR-diff pre-pass finds the digits that actually vary; only
//! those pay a histogram + counting-sort pass (typically 1–3 for
//! realistic shards), and constant digits cost nothing — not even the
//! 1 KiB histogram zeroing.

/// Element count below which a comparison sort beats the histogram
/// pre-pass. The engine's grouping paths use this as their small-N
/// fallback threshold.
pub const RADIX_MIN_KEYS: usize = 64;

/// Stable LSD radix sort of `data` by `key`, ascending.
///
/// `scratch` is the ping-pong buffer; it is cleared and resized to
/// `data.len()` — hand in a recycled buffer to make steady-state calls
/// allocation-free. After the call `data` is sorted and **equal keys
/// keep their input order** (stability), which is what lets the engine
/// drop its explicit gather-order tiebreak.
///
/// # Panics
/// Panics if `data.len()` exceeds `u32::MAX` (the counting buckets are
/// `u32`; shard-local indexes are far below that by construction).
pub fn sort_by_u64_key<T: Copy>(data: &mut Vec<T>, scratch: &mut Vec<T>, key: impl Fn(&T) -> u64) {
    let n = data.len();
    if n < 2 {
        return;
    }
    assert!(n <= u32::MAX as usize, "radix index overflows u32 counts");
    // XOR-diff pre-pass: a digit whose byte never differs from the first
    // key's is constant across the shard and already "sorted" — find
    // those with one OR per item so they never pay histogram zeroing or
    // a scatter pass. Packed small-id keys leave 5–7 of 8 digits dead.
    // The same pass watches for monotone input: gather emits runs in
    // first-appearance order, which is often already key order, and a
    // sorted input needs no passes at all (stability keeps ties put).
    let k0 = key(&data[0]);
    let mut diff = 0u64;
    let mut prev = k0;
    let mut descents = 0usize;
    for item in data.iter() {
        let k = key(item);
        diff |= k ^ k0;
        descents += usize::from(k < prev);
        prev = k;
    }
    if diff == 0 || descents == 0 {
        // All keys equal or already ascending: for a stable sort the
        // input order already stands.
        return;
    }
    if descents * 8 < n {
        // Nearly sorted — a handful of ascending runs, the shape a
        // chunked gather produces (each chunk emits keys in first-
        // appearance order). The standard library's stable sort merges
        // pre-sorted runs in ~O(n log runs), which beats paying every
        // radix pass; stability keeps the result identical.
        data.sort_by_key(key);
        return;
    }
    scratch.clear();
    scratch.resize(n, data[0]);
    for d in 0..8 {
        let shift = d * 8;
        if (diff >> shift) & 0xFF == 0 {
            continue;
        }
        // Histogram just this live digit, then turn it into exclusive
        // prefix sums (bucket start offsets) in place.
        let mut offsets = [0u32; 256];
        for item in data.iter() {
            offsets[((key(item) >> shift) & 0xFF) as usize] += 1;
        }
        let mut sum = 0u32;
        for o in offsets.iter_mut() {
            let count = *o;
            *o = sum;
            sum += count;
        }
        // Stable scatter: input order within a bucket is preserved.
        for item in data.iter() {
            let b = ((key(item) >> shift) & 0xFF) as usize;
            scratch[offsets[b] as usize] = *item;
            offsets[b] += 1;
        }
        std::mem::swap(data, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use proptest::prelude::*;

    fn radix_sorted(mut v: Vec<(u64, u32)>) -> Vec<(u64, u32)> {
        let mut scratch = Vec::new();
        sort_by_u64_key(&mut v, &mut scratch, |r| r.0);
        v
    }

    #[test]
    fn sorts_and_keeps_equal_keys_in_input_order() {
        // Payloads record input positions; equal keys must stay ordered.
        let input = vec![(3u64, 0u32), (1, 1), (3, 2), (1, 3), (2, 4), (1, 5)];
        assert_eq!(
            radix_sorted(input),
            vec![(1, 1), (1, 3), (1, 5), (2, 4), (3, 0), (3, 2)]
        );
    }

    #[test]
    fn trivial_inputs_are_untouched() {
        assert_eq!(radix_sorted(Vec::new()), Vec::new());
        assert_eq!(radix_sorted(vec![(9, 0)]), vec![(9, 0)]);
    }

    #[test]
    fn all_equal_keys_keep_order_exactly() {
        let input: Vec<(u64, u32)> = (0..100).map(|i| (42, i)).collect();
        assert_eq!(radix_sorted(input.clone()), input);
    }

    #[test]
    fn high_digit_spread_is_sorted() {
        // Keys differing only in the top byte exercise the last pass.
        let input: Vec<(u64, u32)> = (0..64u32).map(|i| ((64 - i as u64) << 56, i)).collect();
        let out = radix_sorted(input);
        assert!(out.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn matches_stable_sort_on_packed_engine_keys() {
        // The engine's key shape: small dense id << 32 | small slot, with
        // heavy duplication — the realistic stress for the skip logic.
        let mut rng = SplitMix64::new(7);
        let mut v: Vec<(u64, u32)> = (0..5000)
            .map(|i| {
                let link = rng.next_raw() % 37;
                let probe = rng.next_raw() % 11;
                ((link << 32) | probe, i)
            })
            .collect();
        let mut want = v.clone();
        want.sort_by_key(|r| r.0); // std stable sort
        let mut scratch = Vec::new();
        sort_by_u64_key(&mut v, &mut scratch, |r| r.0);
        assert_eq!(v, want);
    }

    #[test]
    fn scratch_is_recycled_across_calls() {
        let mut scratch = Vec::new();
        for round in 0..3u64 {
            let mut v: Vec<(u64, u32)> = (0..200u32)
                .map(|i| ((round * 1000 + (200 - i as u64)), i))
                .collect();
            sort_by_u64_key(&mut v, &mut scratch, |r| r.0);
            assert!(v.windows(2).all(|w| w[0].0 <= w[1].0), "round {round}");
        }
    }

    proptest! {
        /// The tentpole parity argument: radix order on (key, chunk, start)
        /// triples equals the engine's old comparison sort — a stable sort
        /// by key alone reproduces the (key, chunk, start) tiebreak when
        /// the input arrives in (chunk, start) order, and equals the full
        /// composite sort in general when the payload rides in the key
        /// comparison. Both facets are checked here.
        #[test]
        fn prop_radix_matches_unstable_composite_sort(
            mut triples in prop::collection::vec(
                (0u64..50, 0u32..8, 0u32..1000), 0..400)
        ) {
            // The engine gathers runs in (chunk, start) order; model that.
            triples.sort_by_key(|t| (t.1, t.2));
            let mut want = triples.clone();
            want.sort_by_key(|t| (t.0, t.1, t.2));
            let mut got = triples;
            let mut scratch = Vec::new();
            sort_by_u64_key(&mut got, &mut scratch, |t| t.0);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn prop_radix_matches_stable_sort_any_input(
            pairs in prop::collection::vec((0u64..=u64::MAX, 0u32..10_000), 0..300)
        ) {
            let mut want = pairs.clone();
            want.sort_by_key(|r| r.0);
            let mut got = pairs;
            let mut scratch = Vec::new();
            sort_by_u64_key(&mut got, &mut scratch, |r| r.0);
            prop_assert_eq!(got, want);
        }
    }
}
