//! Cross-stream severity merging for analyzer fleets.
//!
//! Each measurement stream carries its own §6 aggregation (per-stream
//! [`MagnitudeTracker`](super::MagnitudeTracker)s), but an event like the
//! AMS-IX outage is observed by *many* streams at once — anchor meshes,
//! builtins, user-defined measurements — each seeing only part of it. The
//! fleet view sums the per-AS severities across streams before magnitude
//! normalization, so partial signals that individually stay under the
//! reporting threshold combine into one clear event (the
//! traceroute-empathy idea: independent vantage streams corroborating the
//! same anomaly).

use super::magnitude::AsMagnitude;
use pinpoint_model::Asn;
use std::collections::BTreeMap;

/// Sum per-AS raw severities across the streams' per-bin magnitude maps.
///
/// Returns `(delay, forwarding)` severity maps ready for a fleet-level
/// [`MagnitudeTracker::score_bin`](super::MagnitudeTracker::score_bin).
/// Every AS any stream tracks appears in the output (severity 0 when
/// quiet), so the fleet baseline is scored in every bin exactly like the
/// per-stream ones.
pub fn merge_severities<'a, I>(streams: I) -> (BTreeMap<Asn, f64>, BTreeMap<Asn, f64>)
where
    I: IntoIterator<Item = &'a BTreeMap<Asn, AsMagnitude>>,
{
    let mut delay = BTreeMap::new();
    let mut forwarding = BTreeMap::new();
    for magnitudes in streams {
        for (&asn, m) in magnitudes {
            *delay.entry(asn).or_insert(0.0) += m.delay_severity;
            *forwarding.entry(asn).or_insert(0.0) += m.forwarding_severity;
        }
    }
    (delay, forwarding)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mags(entries: &[(u32, f64, f64)]) -> BTreeMap<Asn, AsMagnitude> {
        entries
            .iter()
            .map(|&(asn, d, f)| {
                (
                    Asn(asn),
                    AsMagnitude {
                        delay_severity: d,
                        forwarding_severity: f,
                        ..Default::default()
                    },
                )
            })
            .collect()
    }

    #[test]
    fn severities_sum_per_as_across_streams() {
        let a = mags(&[(100, 2.0, -0.5), (200, 1.0, 0.0)]);
        let b = mags(&[(100, 3.0, -0.25)]);
        let (d, f) = merge_severities([&a, &b]);
        assert_eq!(d[&Asn(100)], 5.0);
        assert_eq!(d[&Asn(200)], 1.0);
        assert_eq!(f[&Asn(100)], -0.75);
        assert_eq!(f[&Asn(200)], 0.0);
    }

    #[test]
    fn quiet_ases_stay_in_the_merged_maps() {
        // A registered AS with zero severity must still be scored at the
        // fleet level — otherwise the merged baseline skips quiet bins.
        let a = mags(&[(100, 0.0, 0.0)]);
        let (d, f) = merge_severities([&a]);
        assert_eq!(d[&Asn(100)], 0.0);
        assert_eq!(f[&Asn(100)], 0.0);
    }

    #[test]
    fn empty_fleet_merges_to_empty() {
        let (d, f) = merge_severities(std::iter::empty::<&BTreeMap<Asn, AsMagnitude>>());
        assert!(d.is_empty() && f.is_empty());
    }

    #[test]
    fn duplicate_cross_stream_severities_sum_per_as() {
        // Two streams exciting the same AS add up; a stream that tracks
        // the AS quietly adds nothing.
        let a = mags(&[(100, 2.0, 0.0), (200, 0.0, 0.0)]);
        let b = mags(&[(100, 3.0, -0.5), (200, 0.0, -1.0)]);
        let c = mags(&[(100, 0.0, 0.0)]);
        let (d, f) = merge_severities([&a, &b, &c]);
        assert_eq!(d[&Asn(100)], 5.0);
        assert_eq!(f[&Asn(100)], -0.5);
        assert_eq!(d[&Asn(200)], 0.0);
        assert_eq!(f[&Asn(200)], -1.0);
    }
}
