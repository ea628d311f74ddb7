//! Record sanitizer: the quarantine gate in front of both detectors.
//!
//! Real Atlas feeds are riddled with measurement artifacts — false links
//! and loops from per-flow load balancing, wrong-hop ICMP attribution,
//! duplicated hops, bogus RTTs. The detectors' medians absorb a lot of
//! this, but structurally broken records (loops, impossible RTTs) bias
//! link extraction itself, so they are *quarantined* — dropped before
//! scatter — rather than passed through. Records with a benignly
//! repairable defect (a duplicated adjacent hop) are *repaired* and kept.
//!
//! The contract, in wave-model terms: the verdict is a pure per-record
//! function (`inspect`) that runs **inside the scatter wave**. Every
//! scatter job owns one raw record chunk and one `Gate`; per record it
//! asks the gate for a verdict and hands the survivor — the record itself,
//! or the gate's repaired scratch copy — straight to both detectors'
//! scatter bodies, so a record crosses the cache once and a clean or
//! quarantined one is never copied. The gates' counters are folded into
//! [`SanitizeStats`] at the merge fence. Because the verdict for a record
//! depends only on that record and the config, the surviving sequence is
//! independent of thread count and chunk size; downstream byte-for-byte
//! report parity is preserved by construction (and re-proven by
//! `tests/robustness.rs` over hostile feeds). The oracle in
//! `pinpoint-bench` filters the bin with the same gate first
//! ([`sanitize_records`]) and feeds the survivors afterwards.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Structurally sound: pass through untouched.
    Clean,
    /// Defective but repairable: keep only the hops [`Scratch::kept`]
    /// lists.
    Repaired,
    /// Structurally broken: drop, with the reason.
    Quarantined(Quarantine),
}

/// Per-bin and cumulative sanitizer counters, the `IngestStats` shape:
/// `bin_*` fields describe the most recent bin, the rest accumulate over
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

/// [`inspect`]'s working memory, reused from record to record so a
/// verdict allocates nothing once the buffers have grown to the longest
/// record seen.
#[derive(Debug, Default)]
struct Scratch {
    /// Indices of the hops that survive the duplicate-hop collapse.
    kept: Vec<usize>,
    /// First responders along the collapsed path (the loop check).
    responders: Vec<Ipv4Addr>,
}

/// Judge one record against the config's sanitize knobs. Pure: the
/// verdict depends only on `(rec, cfg)`, which is what makes sanitizing
/// invisible to the thread/chunk parity contract. After a
/// [`Verdict::Repaired`], `scratch.kept` lists the hops to keep.
fn inspect(rec: &TracerouteRecord, cfg: &DetectorConfig, scratch: &mut Scratch) -> Verdict {
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
    let Scratch { kept, responders } = scratch;
    kept.clear();
    for (i, hop) in rec.hops.iter().enumerate() {
        if let Some(&prev) = kept.last() {
            if let (Some(a), Some(b)) = (rec.hops[prev].first_responder(), hop.first_responder()) {
                if a == b {
                    continue;
                }
            }
        }
        kept.push(i);
    }

    // Loop check on the collapsed path: any responder still appearing
    // twice is a genuine loop, not a re-announced TTL.
    responders.clear();
    responders.extend(kept.iter().filter_map(|&i| rec.hops[i].first_responder()));
    for (i, a) in responders.iter().enumerate() {
        if responders[i + 1..].contains(a) {
            return Verdict::Quarantined(Quarantine::Loop);
        }
    }

    // Gross min-RTT inversion between adjacent responsive hops; an
    // unresponsive hop breaks the comparison chain.
    let mut prev_min: Option<f64> = None;
    for &i in kept.iter() {
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

    if kept.len() == rec.hops.len() {
        Verdict::Clean
    } else {
        Verdict::Repaired
    }
}

/// One scatter chunk's sanitizer: the inspection scratch, the one record
/// a repair is materialised into, and the chunk's own counters. Used by
/// exactly one scatter job per bin (no sharing, no locks) and reused
/// across bins.
#[derive(Debug, Default)]
pub(crate) struct Gate {
    scratch: Scratch,
    /// The repaired copy handed out by the last [`Gate::admit`] that
    /// needed one; its hop and reply buffers are recycled.
    repaired: Option<TracerouteRecord>,
    /// What this gate has judged since it was last drained — the
    /// `bin_*` fields count the same records as the cumulative ones.
    counts: SanitizeStats,
}

impl Gate {
    /// Judge `rec` and count the verdict. Returns the record the
    /// detectors should see — `rec` itself when clean (or when the
    /// sanitizer is off), the gate's repaired copy (valid until the next
    /// call) when repairable — or `None` when it is quarantined.
    pub(crate) fn admit<'a>(
        &'a mut self,
        rec: &'a TracerouteRecord,
        cfg: &DetectorConfig,
    ) -> Option<&'a TracerouteRecord> {
        let counts = &mut self.counts;
        counts.bin_records += 1;
        counts.records += 1;
        if !cfg.sanitize {
            return Some(rec);
        }
        match inspect(rec, cfg, &mut self.scratch) {
            Verdict::Clean => Some(rec),
            Verdict::Repaired => {
                counts.bin_repaired += 1;
                counts.repaired += 1;
                // Rebuild the scratch record around its old hop buffers:
                // the ~1 % of records that take this path are the only
                // copies the sanitizer makes.
                let mut hops = self.repaired.take().map(|r| r.hops).unwrap_or_default();
                hops.resize_with(self.scratch.kept.len(), Hop::default);
                for (out, &i) in hops.iter_mut().zip(&self.scratch.kept) {
                    out.ttl = rec.hops[i].ttl;
                    out.replies.clone_from(&rec.hops[i].replies);
                }
                Some(self.repaired.insert(TracerouteRecord {
                    msm_id: rec.msm_id,
                    probe_id: rec.probe_id,
                    probe_asn: rec.probe_asn,
                    dst: rec.dst,
                    timestamp: rec.timestamp,
                    paris_id: rec.paris_id,
                    hops,
                    destination_reached: rec.destination_reached,
                }))
            }
            Verdict::Quarantined(reason) => {
                counts.bin_quarantined += 1;
                match reason {
                    Quarantine::Loop => counts.quarantined_loops += 1,
                    Quarantine::ImpossibleRtt => counts.quarantined_rtt += 1,
                    Quarantine::RttInversion => counts.quarantined_inversions += 1,
                    Quarantine::TooManyHops => counts.quarantined_hops += 1,
                }
                None
            }
        }
    }
}

/// The per-analyzer sanitizer: the counters and one reusable [`Gate`] per
/// scatter chunk. Lives next to the detectors inside `Analyzer`.
#[derive(Debug, Default)]
pub(crate) struct Sanitizer {
    stats: SanitizeStats,
    gates: Vec<Gate>,
}

impl Sanitizer {
    /// Current counters.
    pub(crate) fn stats(&self) -> SanitizeStats {
        self.stats
    }

    /// Rebuild a sanitizer carrying restored counters (the snapshot
    /// path; the gates are per-bin scratch).
    pub(crate) fn from_stats(stats: SanitizeStats) -> Self {
        Sanitizer {
            stats,
            gates: Vec::new(),
        }
    }

    /// The gates of a bin of `chunks` scatter chunks, one per chunk in
    /// chunk order.
    pub(crate) fn gates(&mut self, chunks: usize) -> &mut [Gate] {
        if self.gates.len() < chunks {
            self.gates.resize_with(chunks, Gate::default);
        }
        &mut self.gates[..chunks]
    }

    /// Close a bin the caller counted itself: `bin` becomes the per-bin
    /// view and is added to the cumulative counters.
    pub(crate) fn close_bin(&mut self, bin: SanitizeStats) {
        let carried = SanitizeStats {
            bin_records: 0,
            bin_quarantined: 0,
            bin_repaired: 0,
            ..self.stats
        };
        self.stats = carried.merged(bin);
    }

    /// The merge fence: drain every gate, in chunk order, and close the
    /// bin whose scatter wave just ran (an empty one closes with zeros).
    pub(crate) fn merge(&mut self) {
        let drained = self
            .gates
            .iter_mut()
            .map(|gate| std::mem::take(&mut gate.counts));
        let bin = drained.fold(SanitizeStats::default(), SanitizeStats::merged);
        self.close_bin(bin);
    }
}

/// Sanitize a slice into an owned vector: the surviving records (one
/// clone each, repaired ones in their repaired form) with the counters.
/// Its callers are outside the engine: the filter-then-feed oracle in
/// `pinpoint-bench`, and the benchmark. The engine itself never copies a
/// bin (`Gate::admit` inside the scatter wave).
pub fn sanitize_records(
    records: &[TracerouteRecord],
    cfg: &DetectorConfig,
) -> (Vec<TracerouteRecord>, SanitizeStats) {
    let mut gate = Gate::default();
    let mut clean = Vec::with_capacity(records.len());
    clean.extend(
        records
            .iter()
            .filter_map(|rec| gate.admit(rec, cfg).cloned()),
    );
    (clean, gate.counts)
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

    fn verdict(rec: &TracerouteRecord, cfg: &DetectorConfig) -> Verdict {
        inspect(rec, cfg, &mut Scratch::default())
    }

    #[test]
    fn clean_records_are_admitted_by_reference() {
        let cfg = DetectorConfig::default();
        let records = vec![clean_record(); 4];
        let mut gate = Gate::default();
        for rec in &records {
            let out = gate.admit(rec, &cfg).expect("clean record survives");
            assert!(std::ptr::eq(out, rec), "a clean record must not be copied");
        }
        assert!(gate.repaired.is_none());
        assert_eq!(gate.counts.bin_records, 4);
        assert_eq!(gate.counts.quarantined(), 0);
        assert_eq!(gate.counts.repaired, 0);
    }

    #[test]
    fn merge_replaces_the_bin_view_and_grows_the_totals() {
        let cfg = DetectorConfig::default();
        let looped = record(vec![
            hop(1, "10.0.0.1", 1.0),
            hop(2, "10.0.0.2", 5.0),
            hop(3, "10.0.0.1", 9.0),
        ]);
        let mut s = Sanitizer::default();
        let gates = s.gates(2);
        assert!(gates[0].admit(&clean_record(), &cfg).is_some());
        assert!(gates[1].admit(&looped, &cfg).is_none());
        s.merge();
        assert_eq!(s.stats().bin_records, 2);
        assert_eq!(s.stats().bin_quarantined, 1);
        // An empty bin: no gate is touched, the bin view resets, the
        // totals stay.
        s.gates(0);
        s.merge();
        assert_eq!(s.stats().bin_records, 0);
        assert_eq!(s.stats().bin_quarantined, 0);
        assert_eq!(s.stats().records, 2);
        assert_eq!(s.stats().quarantined_loops, 1);
    }

    #[test]
    fn loops_are_quarantined() {
        let cfg = DetectorConfig::default();
        let rec = record(vec![
            hop(1, "10.0.0.1", 1.0),
            hop(2, "10.0.0.2", 5.0),
            hop(3, "10.0.0.1", 9.0),
        ]);
        assert_eq!(verdict(&rec, &cfg), Verdict::Quarantined(Quarantine::Loop));
    }

    #[test]
    fn impossible_rtts_are_quarantined() {
        let cfg = DetectorConfig::default();
        for bad in [
            f64::NAN,
            f64::INFINITY,
            -3.0,
            1e300,
            cfg.sanitize_max_rtt_ms.next_up(),
        ] {
            let mut rec = clean_record();
            rec.hops[1].replies[2] = Reply::new(ip("10.0.0.2"), bad);
            assert_eq!(
                verdict(&rec, &cfg),
                Verdict::Quarantined(Quarantine::ImpossibleRtt),
                "rtt {bad} must quarantine"
            );
        }
        // The limit itself is possible (on the last hop, so no inversion).
        let mut rec = clean_record();
        rec.hops[2].replies[2] = Reply::new(ip("10.0.0.3"), cfg.sanitize_max_rtt_ms);
        assert_eq!(verdict(&rec, &cfg), Verdict::Clean);
    }

    #[test]
    fn gross_inversions_quarantine_but_mild_ones_pass() {
        let cfg = DetectorConfig::default();
        // Mild inversion (reverse-path asymmetry): fine.
        let rec = record(vec![hop(1, "10.0.0.1", 40.0), hop(2, "10.0.0.2", 10.0)]);
        assert_eq!(verdict(&rec, &cfg), Verdict::Clean);
        // Gross inversion: quarantined.
        let rec = record(vec![
            hop(1, "10.0.0.1", 40.0 + cfg.sanitize_max_inversion_ms * 2.0),
            hop(2, "10.0.0.2", 10.0),
        ]);
        assert_eq!(
            verdict(&rec, &cfg),
            Verdict::Quarantined(Quarantine::RttInversion)
        );
        // Exactly at the threshold passes; just past it quarantines.
        let at = 10.0 + cfg.sanitize_max_inversion_ms;
        let rec = record(vec![hop(1, "10.0.0.1", at), hop(2, "10.0.0.2", 10.0)]);
        assert_eq!(verdict(&rec, &cfg), Verdict::Clean);
        let rec = record(vec![
            hop(1, "10.0.0.1", at.next_up()),
            hop(2, "10.0.0.2", 10.0),
        ]);
        assert_eq!(
            verdict(&rec, &cfg),
            Verdict::Quarantined(Quarantine::RttInversion)
        );
        // An unresponsive hop breaks the comparison chain.
        let rec = record(vec![
            hop(1, "10.0.0.1", 40.0 + cfg.sanitize_max_inversion_ms * 2.0),
            Hop::new(2, vec![Reply::TIMEOUT; 3]),
            hop(3, "10.0.0.2", 10.0),
        ]);
        assert_eq!(verdict(&rec, &cfg), Verdict::Clean);
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
        assert_eq!(verdict(&rec, &cfg), Verdict::Repaired);
        let mut gate = Gate::default();
        let fixed = gate.admit(&rec, &cfg).expect("a repaired record survives");
        assert_eq!((fixed.probe_id, fixed.dst), (rec.probe_id, rec.dst));
        assert_eq!(fixed.hops.len(), 3);
        assert_eq!(fixed.hops[0].first_responder(), Some(ip("10.0.0.1")));
        assert_eq!(
            fixed.hops[0].replies[0].rtt_ms,
            Some(1.0),
            "keep the first copy"
        );
        assert_eq!(fixed.hops[1].first_responder(), Some(ip("10.0.0.2")));
        // The gate's scratch record is recycled: a later, shorter repair
        // must carry nothing over from this one.
        let mut shorter = record(vec![hop(1, "10.0.1.1", 2.0), hop(2, "10.0.1.1", 2.5)]);
        shorter.hops[0].replies.truncate(1);
        shorter.probe_id = ProbeId(7);
        let fixed = gate.admit(&shorter, &cfg).expect("repaired");
        let mut want = shorter.clone();
        want.hops.truncate(1);
        assert_eq!(*fixed, want);
        assert_eq!(gate.counts.bin_repaired, 2);
    }

    #[test]
    fn hop_count_overflow_is_quarantined() {
        let cfg = DetectorConfig::default();
        let path = |len: usize| {
            record(
                (0..len as u32)
                    .map(|i| {
                        Hop::new(
                            (i % 250) as u8,
                            vec![Reply::new(
                                Ipv4Addr::new(10, 1, (i / 250) as u8, (i % 250) as u8),
                                1.0 + i as f64 * 0.01,
                            )],
                        )
                    })
                    .collect(),
            )
        };
        // Exactly at the limit passes; one hop more quarantines.
        assert_eq!(verdict(&path(cfg.sanitize_max_hops), &cfg), Verdict::Clean);
        assert_eq!(
            verdict(&path(cfg.sanitize_max_hops + 1), &cfg),
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
