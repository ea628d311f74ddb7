//! Record sanitizer: the quarantine gate in front of both detectors.
//!
//! Real Atlas feeds are riddled with measurement artifacts — false links
//! and loops from per-flow load balancing, wrong-hop ICMP attribution,
//! duplicated hops, bogus RTTs. The detectors' medians absorb a lot of
//! this, but structurally broken records (loops, impossible RTTs) bias
//! link extraction itself, so they are *quarantined* — dropped before
//! scatter — rather than passed through. Records with a benignly
//! repairable defect (a duplicated adjacent hop) are *repaired* in place
//! and kept.
//!
//! The contract, in wave-model terms: `Sanitizer::sanitize` is a pure
//! per-record function applied **once per record slice, serially, before
//! the scatter wave is built** — in `Analyzer::open_scatter` and the
//! sequential reference path alike. Because the verdict for a record
//! depends only on that record and the config, the sanitized sequence is
//! independent of thread count and chunk size; downstream byte-for-byte
//! report parity is preserved by construction (and re-proven by
//! `tests/robustness.rs` over hostile feeds).
//!
//! What is checked, in order (first hit wins):
//!
//! 1. **Too many hops** — more than `sanitize_max_hops`: quarantine.
//! 2. **Impossible RTT** — any responsive reply with a non-finite,
//!    negative, or > `sanitize_max_rtt_ms` RTT: quarantine.
//! 3. **Duplicate-hop collapse** — adjacent hops answered by the same
//!    router (re-announced TTL): the later copy is removed — **repair**.
//! 4. **Loop** — the same responder at non-adjacent hops after collapse:
//!    quarantine (per-flow load-balancer artifact, would fabricate
//!    false links).
//! 5. **Gross RTT inversion** — an adjacent responsive pair whose
//!    min-RTTs *decrease* by more than `sanitize_max_inversion_ms`:
//!    quarantine. Mild inversions are legitimate (reverse-path
//!    asymmetry, Challenge 1 of the paper), so the threshold is
//!    deliberately generous.
//!
//! Constant per-probe clock skew is deliberately **not** detected here:
//! differential RTTs subtract the near hop's RTT from the far hop's, so
//! a constant offset cancels — the paper-faithful defense is the method
//! itself, not a filter.
//!
//! Counters land in [`SanitizeStats`], surfaced through
//! `Analyzer::sanitize_stats` / `StreamRouter::sanitize_stats` exactly
//! like `ingest_stats`.

use crate::config::DetectorConfig;
use pinpoint_model::records::{Hop, TracerouteRecord};
use std::net::Ipv4Addr;

/// Why a record was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quarantine {
    /// The same responder appeared at non-adjacent hops.
    Loop,
    /// A responsive reply carried a non-finite, negative, or absurdly
    /// large RTT.
    ImpossibleRtt,
    /// Adjacent min-RTTs decreased by more than the configured bound.
    RttInversion,
    /// More hops than any real traceroute produces.
    TooManyHops,
}

/// The sanitizer's judgement on one record.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Verdict {
    /// Structurally sound: pass through untouched.
    Clean,
    /// Defective but repairable: the fixed copy to use instead.
    Repaired(TracerouteRecord),
    /// Structurally broken: drop, with the reason.
    Quarantined(Quarantine),
}

/// Per-bin and cumulative sanitizer counters, the `IngestStats` shape:
/// `bin_*` fields reset at every `begin_bin`, the rest accumulate over
/// the analyzer's lifetime. Fleet totals fold with
/// [`SanitizeStats::merged`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SanitizeStats {
    /// Records inspected in the most recent bin.
    pub bin_records: u64,
    /// Records quarantined in the most recent bin.
    pub bin_quarantined: u64,
    /// Records repaired in the most recent bin.
    pub bin_repaired: u64,
    /// Cumulative records inspected.
    pub records: u64,
    /// Cumulative quarantines: traceroute loops.
    pub quarantined_loops: u64,
    /// Cumulative quarantines: impossible RTT values.
    pub quarantined_rtt: u64,
    /// Cumulative quarantines: gross adjacent RTT inversions.
    pub quarantined_inversions: u64,
    /// Cumulative quarantines: hop-count overflow.
    pub quarantined_hops: u64,
    /// Cumulative repairs (duplicate-hop collapses).
    pub repaired: u64,
}

impl SanitizeStats {
    /// Total cumulative quarantines across all reasons.
    pub fn quarantined(&self) -> u64 {
        self.quarantined_loops
            + self.quarantined_rtt
            + self.quarantined_inversions
            + self.quarantined_hops
    }

    /// Sum two stat sets (e.g. every stream of a fleet).
    pub fn merged(self, other: SanitizeStats) -> SanitizeStats {
        SanitizeStats {
            bin_records: self.bin_records + other.bin_records,
            bin_quarantined: self.bin_quarantined + other.bin_quarantined,
            bin_repaired: self.bin_repaired + other.bin_repaired,
            records: self.records + other.records,
            quarantined_loops: self.quarantined_loops + other.quarantined_loops,
            quarantined_rtt: self.quarantined_rtt + other.quarantined_rtt,
            quarantined_inversions: self.quarantined_inversions + other.quarantined_inversions,
            quarantined_hops: self.quarantined_hops + other.quarantined_hops,
            repaired: self.repaired + other.repaired,
        }
    }
}

/// Smallest finite RTT among a hop's responsive replies.
fn min_rtt(hop: &Hop) -> Option<f64> {
    hop.replies
        .iter()
        .filter(|r| r.is_responsive())
        .filter_map(|r| r.rtt_ms)
        .filter(|r| r.is_finite())
        .fold(None, |acc: Option<f64>, r| {
            Some(acc.map_or(r, |a| a.min(r)))
        })
}

/// Judge one record against the config's sanitize knobs. Pure: the
/// verdict depends only on `(rec, cfg)`, which is what makes sanitizing
/// invisible to the thread/chunk/depth parity contract.
pub(crate) fn inspect(rec: &TracerouteRecord, cfg: &DetectorConfig) -> Verdict {
    if rec.hops.len() > cfg.sanitize_max_hops {
        return Verdict::Quarantined(Quarantine::TooManyHops);
    }
    for hop in &rec.hops {
        for reply in &hop.replies {
            if !reply.is_responsive() {
                continue;
            }
            if let Some(rtt) = reply.rtt_ms {
                if !rtt.is_finite() || rtt < 0.0 || rtt > cfg.sanitize_max_rtt_ms {
                    return Verdict::Quarantined(Quarantine::ImpossibleRtt);
                }
            }
        }
    }

    // Collapse runs of adjacent hops answered by the same router (the
    // duplicated-hop artifact), keeping the first copy of each run.
    let mut collapsed: Vec<usize> = Vec::with_capacity(rec.hops.len());
    for (i, hop) in rec.hops.iter().enumerate() {
        if let Some(&prev) = collapsed.last() {
            if let (Some(a), Some(b)) = (rec.hops[prev].first_responder(), hop.first_responder()) {
                if a == b {
                    continue;
                }
            }
        }
        collapsed.push(i);
    }
    let removed = rec.hops.len() - collapsed.len();

    // Loop check on the collapsed path: any responder still appearing
    // twice is a genuine loop, not a re-announced TTL.
    let responders: Vec<Ipv4Addr> = collapsed
        .iter()
        .filter_map(|&i| rec.hops[i].first_responder())
        .collect();
    for (i, a) in responders.iter().enumerate() {
        if responders[i + 1..].contains(a) {
            return Verdict::Quarantined(Quarantine::Loop);
        }
    }

    // Gross min-RTT inversion between adjacent responsive hops; an
    // unresponsive hop breaks the comparison chain.
    let mut prev_min: Option<f64> = None;
    for &i in &collapsed {
        let hop = &rec.hops[i];
        if hop.is_unresponsive() {
            prev_min = None;
            continue;
        }
        let here = min_rtt(hop);
        if let (Some(near), Some(far)) = (prev_min, here) {
            if near > far + cfg.sanitize_max_inversion_ms {
                return Verdict::Quarantined(Quarantine::RttInversion);
            }
        }
        if here.is_some() {
            prev_min = here;
        }
    }

    if removed == 0 {
        return Verdict::Clean;
    }
    let mut repaired = rec.clone();
    repaired.hops = collapsed.into_iter().map(|i| rec.hops[i].clone()).collect();
    Verdict::Repaired(repaired)
}

/// The per-analyzer sanitizer: counters plus a reusable buffer for the
/// slow path. Lives next to the detectors inside `Analyzer` and is
/// driven from every ingestion entry point.
#[derive(Debug, Default)]
pub(crate) struct Sanitizer {
    stats: SanitizeStats,
    buf: Vec<TracerouteRecord>,
}

impl Sanitizer {
    /// Reset the per-bin counters (cumulative ones persist).
    pub(crate) fn begin_bin(&mut self) {
        self.stats.bin_records = 0;
        self.stats.bin_quarantined = 0;
        self.stats.bin_repaired = 0;
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> SanitizeStats {
        self.stats
    }

    /// Rebuild a sanitizer carrying restored cumulative counters (the
    /// snapshot path; the record buffer is per-bin scratch).
    pub(crate) fn from_stats(stats: SanitizeStats) -> Self {
        Sanitizer {
            stats,
            buf: Vec::new(),
        }
    }

    /// Sanitize one record slice. The fast path — every record clean,
    /// the overwhelmingly common case on a healthy feed — returns the
    /// input slice itself: zero copies, one read-only pass. Otherwise
    /// the surviving records are gathered into an internal buffer that
    /// stays valid until the next `sanitize` call (by which time the
    /// previous slice's rows have been scattered into the arenas).
    pub(crate) fn sanitize<'a>(
        &'a mut self,
        records: &'a [TracerouteRecord],
        cfg: &DetectorConfig,
    ) -> &'a [TracerouteRecord] {
        self.stats.bin_records += records.len() as u64;
        self.stats.records += records.len() as u64;
        if !cfg.sanitize {
            return records;
        }
        let Some(first) = records
            .iter()
            .position(|r| !matches!(inspect(r, cfg), Verdict::Clean))
        else {
            return records;
        };
        self.buf.clear();
        self.buf.extend_from_slice(&records[..first]);
        for rec in &records[first..] {
            match inspect(rec, cfg) {
                Verdict::Clean => self.buf.push(rec.clone()),
                Verdict::Repaired(fixed) => {
                    self.stats.bin_repaired += 1;
                    self.stats.repaired += 1;
                    self.buf.push(fixed);
                }
                Verdict::Quarantined(reason) => {
                    self.stats.bin_quarantined += 1;
                    match reason {
                        Quarantine::Loop => self.stats.quarantined_loops += 1,
                        Quarantine::ImpossibleRtt => self.stats.quarantined_rtt += 1,
                        Quarantine::RttInversion => self.stats.quarantined_inversions += 1,
                        Quarantine::TooManyHops => self.stats.quarantined_hops += 1,
                    }
                }
            }
        }
        &self.buf
    }
}

/// One-shot convenience: sanitize a slice into an owned vector and
/// return the surviving records with the counters. For harnesses and
/// the benchmark; the analyzer itself uses the zero-copy `Sanitizer`.
pub fn sanitize_records(
    records: &[TracerouteRecord],
    cfg: &DetectorConfig,
) -> (Vec<TracerouteRecord>, SanitizeStats) {
    let mut s = Sanitizer::default();
    s.begin_bin();
    let clean = s.sanitize(records, cfg).to_vec();
    (clean, s.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_model::records::Reply;
    use pinpoint_model::{Asn, MeasurementId, ProbeId, SimTime};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn record(hops: Vec<Hop>) -> TracerouteRecord {
        TracerouteRecord {
            msm_id: MeasurementId(1),
            probe_id: ProbeId(1),
            probe_asn: Asn(64500),
            dst: ip("10.9.9.9"),
            timestamp: SimTime(0),
            paris_id: 0,
            hops,
            destination_reached: true,
        }
    }

    fn hop(ttl: u8, addr: &str, rtt: f64) -> Hop {
        Hop::new(ttl, vec![Reply::new(ip(addr), rtt); 3])
    }

    fn clean_record() -> TracerouteRecord {
        record(vec![
            hop(1, "10.0.0.1", 1.0),
            hop(2, "10.0.0.2", 5.0),
            hop(3, "10.0.0.3", 9.0),
        ])
    }

    #[test]
    fn clean_records_pass_through_zero_copy() {
        let cfg = DetectorConfig::default();
        let records = vec![clean_record(); 4];
        let mut s = Sanitizer::default();
        s.begin_bin();
        let out = s.sanitize(&records, &cfg);
        assert_eq!(out.len(), 4);
        assert!(
            std::ptr::eq(out.as_ptr(), records.as_ptr()),
            "fast path must not copy"
        );
        let st = s.stats();
        assert_eq!(st.bin_records, 4);
        assert_eq!(st.quarantined(), 0);
        assert_eq!(st.repaired, 0);
    }

    #[test]
    fn loops_are_quarantined() {
        let cfg = DetectorConfig::default();
        let rec = record(vec![
            hop(1, "10.0.0.1", 1.0),
            hop(2, "10.0.0.2", 5.0),
            hop(3, "10.0.0.1", 9.0),
        ]);
        assert_eq!(inspect(&rec, &cfg), Verdict::Quarantined(Quarantine::Loop));
    }

    #[test]
    fn impossible_rtts_are_quarantined() {
        let cfg = DetectorConfig::default();
        for bad in [
            f64::NAN,
            f64::INFINITY,
            -3.0,
            1e300,
            cfg.sanitize_max_rtt_ms * 2.0,
        ] {
            let mut rec = clean_record();
            rec.hops[1].replies[2] = Reply::new(ip("10.0.0.2"), bad);
            assert_eq!(
                inspect(&rec, &cfg),
                Verdict::Quarantined(Quarantine::ImpossibleRtt),
                "rtt {bad} must quarantine"
            );
        }
    }

    #[test]
    fn gross_inversions_quarantine_but_mild_ones_pass() {
        let cfg = DetectorConfig::default();
        // Mild inversion (reverse-path asymmetry): fine.
        let rec = record(vec![hop(1, "10.0.0.1", 40.0), hop(2, "10.0.0.2", 10.0)]);
        assert_eq!(inspect(&rec, &cfg), Verdict::Clean);
        // Gross inversion: quarantined.
        let rec = record(vec![
            hop(1, "10.0.0.1", 40.0 + cfg.sanitize_max_inversion_ms * 2.0),
            hop(2, "10.0.0.2", 10.0),
        ]);
        assert_eq!(
            inspect(&rec, &cfg),
            Verdict::Quarantined(Quarantine::RttInversion)
        );
        // An unresponsive hop breaks the comparison chain.
        let rec = record(vec![
            hop(1, "10.0.0.1", 40.0 + cfg.sanitize_max_inversion_ms * 2.0),
            Hop::new(2, vec![Reply::TIMEOUT; 3]),
            hop(3, "10.0.0.2", 10.0),
        ]);
        assert_eq!(inspect(&rec, &cfg), Verdict::Clean);
    }

    #[test]
    fn adjacent_duplicate_hops_are_collapsed() {
        let cfg = DetectorConfig::default();
        let rec = record(vec![
            hop(1, "10.0.0.1", 1.0),
            hop(2, "10.0.0.1", 1.3), // re-announced TTL: duplicate
            hop(2, "10.0.0.2", 5.0),
            hop(3, "10.0.0.3", 9.0),
        ]);
        let Verdict::Repaired(fixed) = inspect(&rec, &cfg) else {
            panic!("expected a repair");
        };
        assert_eq!(fixed.hops.len(), 3);
        assert_eq!(fixed.hops[0].first_responder(), Some(ip("10.0.0.1")));
        assert_eq!(
            fixed.hops[0].replies[0].rtt_ms,
            Some(1.0),
            "keep the first copy"
        );
        assert_eq!(fixed.hops[1].first_responder(), Some(ip("10.0.0.2")));
    }

    #[test]
    fn hop_count_overflow_is_quarantined() {
        let cfg = DetectorConfig::default();
        let hops: Vec<Hop> = (0..=cfg.sanitize_max_hops as u32)
            .map(|i| {
                Hop::new(
                    (i % 250) as u8,
                    vec![Reply::new(
                        Ipv4Addr::new(10, 1, (i / 250) as u8, (i % 250) as u8),
                        1.0 + i as f64 * 0.01,
                    )],
                )
            })
            .collect();
        let rec = record(hops);
        assert_eq!(
            inspect(&rec, &cfg),
            Verdict::Quarantined(Quarantine::TooManyHops)
        );
    }

    #[test]
    fn disabled_sanitizer_passes_everything() {
        let cfg = DetectorConfig {
            sanitize: false,
            ..DetectorConfig::default()
        };
        let rec = record(vec![hop(1, "10.0.0.1", -1.0)]);
        let (out, stats) = sanitize_records(std::slice::from_ref(&rec), &cfg);
        assert_eq!(out, vec![rec]);
        assert_eq!(stats.quarantined(), 0);
        assert_eq!(stats.records, 1);
    }

    #[test]
    fn mixed_slice_counts_every_reason() {
        let cfg = DetectorConfig::default();
        let looped = record(vec![
            hop(1, "10.0.0.1", 1.0),
            hop(2, "10.0.0.2", 5.0),
            hop(3, "10.0.0.1", 9.0),
        ]);
        let mut bad_rtt = clean_record();
        bad_rtt.hops[0].replies[0] = Reply::new(ip("10.0.0.1"), -1.0);
        let dup = record(vec![
            hop(1, "10.0.0.1", 1.0),
            hop(2, "10.0.0.1", 1.2),
            hop(3, "10.0.0.2", 5.0),
        ]);
        let records = vec![clean_record(), looped, bad_rtt, dup, clean_record()];
        let (out, stats) = sanitize_records(&records, &cfg);
        assert_eq!(out.len(), 3, "two quarantined, repaired one kept");
        assert_eq!(stats.records, 5);
        assert_eq!(stats.quarantined_loops, 1);
        assert_eq!(stats.quarantined_rtt, 1);
        assert_eq!(stats.repaired, 1);
        assert_eq!(stats.bin_quarantined, 2);
        assert_eq!(stats.bin_repaired, 1);
        assert_eq!(out[1].hops.len(), 2, "repaired record collapsed");
    }

    #[test]
    fn stats_merge_sums_fields() {
        let a = SanitizeStats {
            records: 10,
            quarantined_loops: 2,
            repaired: 1,
            ..SanitizeStats::default()
        };
        let b = SanitizeStats {
            records: 5,
            quarantined_rtt: 3,
            ..SanitizeStats::default()
        };
        let m = a.merged(b);
        assert_eq!(m.records, 15);
        assert_eq!(m.quarantined(), 5);
        assert_eq!(m.repaired, 1);
    }
}
