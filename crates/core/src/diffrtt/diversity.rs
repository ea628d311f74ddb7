//! Step 2: probe-diversity filtering (§4.3).
//!
//! Differential RTTs only isolate the monitored link's delay when the
//! contributing probes have *diverse return paths*. Two criteria:
//!
//! 1. links monitored by probes from fewer than `min_as_diversity` (3)
//!    distinct ASes are discarded outright;
//! 2. if the probe-per-AS counts are unbalanced — normalized entropy
//!    H(A) ≤ 0.5 — probes are randomly removed from the most-represented AS
//!    until H(A) exceeds the threshold ("the link is not discarded.
//!    Instead, a probe from the most represented AS is randomly selected
//!    and discarded").
//!
//! [`decide`] returns the verdict without copying a sample: the
//! characterization pass then gathers only what survives, and only a
//! rebalanced link runs the rebalancing loop and draws from its per-link
//! RNG.

use super::compute::LinkSlice;
use crate::config::DetectorConfig;
use pinpoint_model::{Asn, ProbeId};
use pinpoint_stats::entropy::normalized_entropy;
use pinpoint_stats::rng::SplitMix64;
use std::collections::HashMap;

/// The §4.3 rebalancing loop: given each probe and its AS, decide which
/// probes to discard. Probe order does not matter — the per-AS lists are
/// sorted before any random choice is made.
fn rebalance_removals(
    probes: impl Iterator<Item = (ProbeId, Asn)>,
    cfg: &DetectorConfig,
    rng: &mut SplitMix64,
) -> Vec<ProbeId> {
    // Probe lists per AS, deterministically ordered.
    let mut by_as: HashMap<Asn, Vec<ProbeId>> = HashMap::new();
    for (probe, asn) in probes {
        by_as.entry(asn).or_default().push(probe);
    }
    for probes in by_as.values_mut() {
        probes.sort_unstable();
    }
    let mut ases: Vec<Asn> = by_as.keys().copied().collect();
    ases.sort_unstable();

    let mut removed: Vec<ProbeId> = Vec::new();
    let mut counts: Vec<u32> = Vec::with_capacity(ases.len());
    loop {
        counts.clear();
        counts.extend(ases.iter().map(|a| by_as[a].len() as u32));
        let Some(h) = normalized_entropy(&counts) else {
            break;
        };
        if h > cfg.entropy_threshold {
            break;
        }
        // Drop a random probe from the most-represented AS (deterministic
        // tie-break on ASN order).
        let Some((max_as, _)) = ases
            .iter()
            .map(|a| (*a, by_as[a].len()))
            .max_by_key(|&(a, n)| (n, std::cmp::Reverse(a)))
        else {
            break;
        };
        let Some(probes) = by_as.get_mut(&max_as) else {
            break;
        };
        if probes.len() <= 1 {
            // Cannot rebalance further; entropy can no longer change.
            break;
        }
        let idx = rng.next_below(probes.len() as u64) as usize;
        removed.push(probes.swap_remove(idx));
    }
    removed
}

/// Reusable buffers for the balanced-link fast path of [`decide`].
#[derive(Debug, Default)]
pub struct Scratch {
    by_as: Vec<(Asn, u32)>,
    counts: Vec<u32>,
}

/// The §4.3 verdict for one link, *without* materializing the surviving
/// samples: they stay in the chunk pools until the characterization pass
/// gathers them, so a discarded link is never copied and a rebalanced
/// one is copied without its dropped probes.
#[derive(Debug, PartialEq, Eq)]
pub enum Keep {
    /// Below the AS-diversity floor: discard the link.
    Discard,
    /// Already balanced: every probe's samples survive. No RNG is drawn.
    All,
    /// Rebalanced: drop the listed probes' samples, keep the rest.
    Without(Vec<ProbeId>),
}

/// Decide a link's fate under both criteria.
///
/// Most links are already balanced, so the common case is handled without
/// touching the rebalancing loop: probe-per-AS counts are accumulated in
/// `scratch` (sorted by ASN — the same summation order the loop uses, so
/// the entropy value is bit-identical), and if H(A) already clears the
/// threshold no per-probe lists are ever built and the RNG is never drawn
/// from — exactly like a rebalancing loop that exits on its first check.
pub fn decide(
    slice: &LinkSlice<'_>,
    cfg: &DetectorConfig,
    rng: &mut SplitMix64,
    scratch: &mut Scratch,
) -> Keep {
    if slice.as_count < cfg.min_as_diversity {
        return Keep::Discard;
    }
    // Fast path: probe counts per AS, kept sorted by ASN.
    scratch.by_as.clear();
    for (_, asn, _) in slice.probes() {
        match scratch.by_as.binary_search_by_key(&asn, |&(a, _)| a) {
            Ok(i) => scratch.by_as[i].1 += 1,
            Err(i) => scratch.by_as.insert(i, (asn, 1)),
        }
    }
    scratch.counts.clear();
    scratch.counts.extend(scratch.by_as.iter().map(|&(_, c)| c));
    let balanced = match normalized_entropy(&scratch.counts) {
        Some(h) => h > cfg.entropy_threshold,
        None => true, // unreachable post-as_count check; treat as no-op
    };
    if balanced {
        return Keep::All;
    }
    // Unbalanced link: run the loop. Its first iteration recomputes the
    // entropy just checked — accepted redundancy, so the loop stays whole.
    Keep::Without(rebalance_removals(
        slice.probes().map(|(p, a, _)| (p, a)),
        cfg,
        rng,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diffrtt::compute::SampleArena;
    use pinpoint_model::records::{Hop, Reply, TracerouteRecord};
    use pinpoint_model::{MeasurementId, SimTime};

    /// The verdict on one link seen by probes `(probe id, asn, samples)`:
    /// each probe traceroutes the link once with `samples` far replies.
    fn verdict(spec: &[(u32, u32, usize)], cfg: &DetectorConfig, seed: u64) -> Keep {
        let ip = |s: &str| s.parse::<std::net::Ipv4Addr>().unwrap();
        let records: Vec<TracerouteRecord> = spec
            .iter()
            .map(|&(probe, asn, n)| TracerouteRecord {
                msm_id: MeasurementId(1),
                probe_id: ProbeId(probe),
                probe_asn: Asn(asn),
                dst: ip("198.51.100.1"),
                timestamp: SimTime(0),
                paris_id: 0,
                hops: vec![
                    Hop::new(1, vec![Reply::new(ip("10.0.0.1"), 1.0)]),
                    Hop::new(2, vec![Reply::new(ip("10.0.1.1"), 3.0); n]),
                ],
                destination_reached: true,
            })
            .collect();
        let mut arena = SampleArena::default();
        arena.build(&records);
        assert_eq!(arena.link_count(), 1);
        let slice = arena.link(0);
        decide(
            &slice,
            cfg,
            &mut SplitMix64::new(seed),
            &mut Scratch::default(),
        )
    }

    /// Probes a verdict keeps, out of `spec`'s.
    fn kept(spec: &[(u32, u32, usize)], cfg: &DetectorConfig, seed: u64) -> usize {
        match verdict(spec, cfg, seed) {
            Keep::Discard => 0,
            Keep::All => spec.len(),
            Keep::Without(removed) => spec.len() - removed.len(),
        }
    }

    fn cfg() -> DetectorConfig {
        DetectorConfig::default()
    }

    #[test]
    fn fewer_than_three_ases_discarded() {
        let two = [(1, 100, 3), (2, 100, 3), (3, 200, 3)];
        assert_eq!(verdict(&two, &cfg(), 1), Keep::Discard);
        let three = [(1, 100, 3), (2, 200, 3), (3, 300, 3)];
        assert_ne!(verdict(&three, &cfg(), 1), Keep::Discard);
    }

    #[test]
    fn balanced_probes_keep_all_samples() {
        let spec = [(1, 100, 4), (2, 200, 4), (3, 300, 4)];
        assert_eq!(verdict(&spec, &cfg(), 1), Keep::All);
    }

    #[test]
    fn paper_example_rebalances_dominant_as() {
        // §4.3's example: 100 probes in 5 ASes, 90 in one. The dominant
        // AS must lose probes until entropy exceeds 0.5.
        let mut spec: Vec<(u32, u32, usize)> = (0..90).map(|p| (p, 100, 1)).collect();
        for (i, asn) in [200, 300, 400, 500].iter().enumerate() {
            // A couple probes each in the other ASes.
            spec.push((100 + 2 * i as u32, *asn, 1));
            spec.push((101 + 2 * i as u32, *asn, 1));
        }
        let Keep::Without(removed) = verdict(&spec, &cfg(), 5) else {
            panic!("the dominant AS was not rebalanced");
        };
        // Only the dominant AS's probes are dropped, and far fewer than
        // 50 of the 98 probes survive — but never fewer than the 8 the
        // other ASes hold.
        assert!(removed.iter().all(|p| p.0 < 90), "{removed:?}");
        let kept = spec.len() - removed.len();
        assert!((8..50).contains(&kept), "kept {kept}");
    }

    #[test]
    fn rebalancing_is_deterministic_per_seed() {
        let spec: Vec<(u32, u32, usize)> = (0..40)
            .map(|p| (p, if p < 36 { 100 } else { 200 + p % 3 * 100 }, 2))
            .collect();
        let a = verdict(&spec, &cfg(), 9);
        assert!(matches!(a, Keep::Without(_)), "{a:?}");
        assert_eq!(a, verdict(&spec, &cfg(), 9));
    }

    #[test]
    fn single_probe_per_as_cannot_rebalance_but_passes() {
        // 3 ASes, one probe each: entropy is 1.0 > 0.5 → pass untouched.
        let spec = [(1, 100, 2), (2, 200, 2), (3, 300, 2)];
        assert_eq!(kept(&spec, &cfg(), 3), 3);
    }

    #[test]
    fn stuck_rebalancing_terminates() {
        // Pathological: every AS has exactly one probe except one with
        // two; if entropy still can't clear the bar the loop must exit
        // rather than spin, after dropping the one spare probe.
        let mut c = cfg();
        c.entropy_threshold = 1.1; // unattainable
        let spec = [(1, 100, 2), (2, 200, 2), (3, 300, 2), (4, 300, 2)];
        assert_eq!(kept(&spec, &c, 3), 3);
    }
}
