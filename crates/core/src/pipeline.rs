//! The end-to-end analysis pipeline.
//!
//! [`Analyzer`] owns both detectors, the IP→AS mapper, and the magnitude
//! tracker; [`Analyzer::process_bin`] runs one analysis bin through all of
//! §4–§6 and returns a [`BinReport`]. Feed it bins in order — the
//! references and sliding windows are stateful, exactly like the online
//! deployment of §8 consuming the Atlas stream.
//!
//! [`Analyzer::process_bin`] is the one-bin call; continuous streams run
//! through [`Analyzer::session`], the one bin executor
//! ([`crate::session::Session`]): whole bins in, each bin's report out of
//! the push that fed it. See the executor section in `src/README.md`.

use crate::aggregate::{
    delay_severity, forwarding_severity, AsMagnitude, AsMapper, EmpathyExtractor, FleetEvent,
    MagnitudeTracker, StreamEvidence,
};
use crate::config::DetectorConfig;
use crate::diffrtt::{DelayAlarm, DelayDetector, LinkStat};
use crate::forwarding::{ForwardingAlarm, ForwardingDetector};
use crate::graph::AlarmGraph;
use crate::sanitize::{SanitizeStats, Sanitizer};
use crate::session::AnalyzerSet;
use crate::snapshot::{self, Reader, SnapshotError, Writer};
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::{Asn, BinId, IpLink, Prefix};
use std::collections::{BTreeMap, HashMap};

/// Everything the pipeline learned from one bin.
///
/// Every field is public data (the serde derives come through the
/// workspace's offline shim; the canonical wire format is
/// [`crate::render::bin_report`]).
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct BinReport {
    /// The bin analyzed.
    pub bin: BinId,
    /// Delay-change alarms, strongest first.
    pub delay_alarms: Vec<DelayAlarm>,
    /// Forwarding anomalies, most anti-correlated first.
    pub forwarding_alarms: Vec<ForwardingAlarm>,
    /// Per-link robust statistics (all characterized links, alarmed or not).
    pub link_stats: HashMap<IpLink, LinkStat>,
    /// Per-AS severities and magnitudes.
    pub magnitudes: BTreeMap<Asn, AsMagnitude>,
    /// Number of traceroutes consumed.
    pub records: usize,
    /// This bin's event deltas from the incremental empathy extractor
    /// (events opened, updated, or closed by this bin, ascending id) —
    /// the per-bin slice of the event channel.
    pub events: Vec<FleetEvent>,
}

impl BinReport {
    /// The alarm graph of this bin (delay edges + forwarding flags).
    pub fn alarm_graph(&self) -> AlarmGraph {
        let mut g = AlarmGraph::new();
        g.add_stream_delay_alarms(0, &self.delay_alarms);
        g.add_stream_forwarding_alarms(0, &self.forwarding_alarms);
        g
    }

    /// Magnitudes of one AS, if tracked.
    pub fn magnitude(&self, asn: Asn) -> Option<&AsMagnitude> {
        self.magnitudes.get(&asn)
    }
}

/// The stateful §4–§6 pipeline.
#[derive(Debug)]
pub struct Analyzer {
    cfg: DetectorConfig,
    delay: DelayDetector,
    forwarding: ForwardingDetector,
    sanitizer: Sanitizer,
    mapper: AsMapper,
    magnitudes: MagnitudeTracker,
    events: EmpathyExtractor,
}

impl Analyzer {
    /// Create an analyzer. The `mapper` provides the §6 IP→AS grouping
    /// (from a RIB dump in production; from simulator ground truth here).
    ///
    /// # Panics
    /// When the configuration fails [`DetectorConfig::validate`] — a
    /// degenerate knob (zero expiry, NaN threshold, …) would silently
    /// produce garbage, so construction fails loudly with the knob named.
    pub fn new(cfg: DetectorConfig, mapper: AsMapper) -> Self {
        if let Err(msg) = cfg.validate() {
            panic!("invalid DetectorConfig: {msg}");
        }
        Analyzer {
            delay: DelayDetector::new(&cfg),
            forwarding: ForwardingDetector::new(&cfg),
            sanitizer: Sanitizer::default(),
            magnitudes: MagnitudeTracker::new(cfg.magnitude_window_bins),
            events: EmpathyExtractor::new(&cfg),
            cfg,
            mapper,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// Pre-register ASes for magnitude tracking from bin zero.
    pub fn register_ases<I: IntoIterator<Item = Asn>>(&mut self, ases: I) {
        self.magnitudes.register(ases);
    }

    /// Run one bin through the full pipeline — one push of the executor
    /// ([`crate::session::Session`]), for callers that hold one bin at a
    /// time.
    ///
    /// The bin runs as two waves on ONE scoped worker pool
    /// (`crate::engine`). First the ingestion wave: the record chunks are
    /// sanitized and scattered for both detectors in one parallel pass
    /// against the persistent intern tables (`Analyzer::open_scatter`),
    /// followed by the short sequential chunk-ordered merge fence. Then
    /// the shard wave: one job per delay-link shard and per
    /// forwarding-pattern shard (§4 ∥ §5), claimed by the same workers
    /// instead of the two detectors racing on separate thread herds. The
    /// §6 aggregation joins their outputs. Output is byte-identical for
    /// any thread count (and so any chunk cut).
    ///
    /// A fleet of analyzers shares one pool the same way: see
    /// [`crate::stream::StreamRouter`], whose session pools every
    /// member's scatter chunks in one wave and every member's shard jobs
    /// in the next.
    pub fn process_bin(&mut self, bin: BinId, records: &[TracerouteRecord]) -> BinReport {
        crate::session::Session::new(self).push(bin, &[records])
    }

    /// Open one bin's ingestion (both arenas' bins, one sanitizer gate
    /// per chunk) and return its scatter jobs: one per *raw* record chunk,
    /// each taking every record of its chunk through the gate and — when
    /// it survives — through the delay and then the forwarding scatter
    /// body while it is hot, so none is copied unless it is repaired.
    /// Each job first runs [`first_touch`] over its chunk, so the chunk's
    /// cold hop vectors load together rather than one record at a time.
    /// The executor runs the jobs on the
    /// shared pool — a fleet's scatter chunks all in one wave — then
    /// calls [`Analyzer::merge_scatter`]. No compaction happens here: the
    /// executor sweeps ([`Analyzer::compact_epochs`]) first.
    pub(crate) fn open_scatter<'a>(
        &'a mut self,
        records: &'a [TracerouteRecord],
        threads: usize,
    ) -> Vec<crate::engine::Job<'a>> {
        let chunk = crate::ingest::resolve_chunk_for(threads);
        let Analyzer {
            delay,
            forwarding,
            sanitizer,
            cfg,
            ..
        } = self;
        let cfg = &*cfg;
        let chunks = records.len().div_ceil(chunk);
        let gates = sanitizer.gates(chunks).iter_mut();
        let writers = delay
            .arena
            .open_bin(chunks)
            .zip(forwarding.arena.open_bin(chunks));
        (records.chunks(chunk).zip(gates).zip(writers))
            .map(|((records, gate), (mut delay, mut forwarding))| {
                Box::new(move || {
                    first_touch(records);
                    delay.begin();
                    forwarding.begin();
                    for rec in records {
                        if let Some(rec) = gate.admit(rec, cfg) {
                            delay.record(rec);
                            forwarding.record(rec);
                        }
                    }
                }) as crate::engine::Job<'a>
            })
            .collect()
    }

    /// Compact both detectors' intern epochs at `bin`. Runs at bin open,
    /// before [`Analyzer::open_scatter`].
    pub(crate) fn compact_epochs(&mut self, bin: BinId) {
        let expiry = self.cfg.reference_expiry_bins;
        self.delay.arena.compact(bin, expiry);
        self.forwarding.arena.compact(bin, expiry);
    }

    /// The sequential chunk-ordered fence between the scatter wave and
    /// the shard wave: the gates' counters become this bin's
    /// [`SanitizeStats`], then both detectors' intern merges.
    pub(crate) fn merge_scatter(&mut self, bin: BinId) {
        self.sanitizer.merge();
        self.delay.arena.merge(bin);
        self.forwarding.arena.merge(bin);
    }

    /// Interning-epoch counters summed over both detectors' arenas. A
    /// steady-state bin — every link, probe, pattern, and next hop
    /// already interned — shows `bin_insertions == 0`.
    pub fn ingest_stats(&self) -> crate::ingest::IngestStats {
        self.delay
            .ingest_stats()
            .merged(self.forwarding.ingest_stats())
    }

    /// Sanitizer counters: records inspected, quarantined (by reason),
    /// and repaired. The `bin_*` fields describe the most recently
    /// reported bin.
    pub fn sanitize_stats(&self) -> SanitizeStats {
        self.sanitizer.stats()
    }

    /// Stage one bin's shard work for the shared engine without running
    /// it (after the scatter wave and [`Analyzer::merge_scatter`]). The
    /// executor pools the jobs of every member into one wave on `workers`
    /// workers, then
    /// collects with [`AnalyzerStage::finish`] and hands the result back
    /// through [`Analyzer::absorb`].
    pub(crate) fn stage(&mut self, bin: BinId, workers: usize) -> AnalyzerStage<'_> {
        let Analyzer {
            delay, forwarding, ..
        } = self;
        AnalyzerStage {
            delay: delay.stage(bin, workers),
            forwarding: forwarding.stage(bin, workers),
        }
    }

    /// The serial fence after a bin's shard wave: stamp every observed
    /// link and pattern in the epoch tables (must run before the next
    /// bin's compaction sweep), then fold the staged
    /// detector outputs into the analyzer's stateful trackers and
    /// aggregate them into a [`BinReport`] (§6).
    pub(crate) fn absorb(&mut self, bin: BinId, records: usize, staged: StagedBin) -> BinReport {
        self.delay.arena.stamp_bin(bin);
        self.forwarding.arena.stamp_bin(bin);
        self.delay.links_seen += staged.new_links;
        self.aggregate(
            bin,
            records,
            staged.delay_alarms,
            staged.link_stats,
            staged.forwarding_alarms,
        )
    }

    fn aggregate(
        &mut self,
        bin: BinId,
        records: usize,
        delay_alarms: Vec<DelayAlarm>,
        link_stats: HashMap<IpLink, LinkStat>,
        forwarding_alarms: Vec<ForwardingAlarm>,
    ) -> BinReport {
        let dsev = delay_severity(&delay_alarms, &self.mapper);
        let fsev = forwarding_severity(&forwarding_alarms, &self.mapper);
        let magnitudes = self.magnitudes.score_bin(&dsev, &fsev);
        // The event channel updates here, once per bin, in bin order — so
        // the deltas are deterministic by construction.
        let events = self.events.observe(
            bin,
            &[StreamEvidence {
                delay: &delay_alarms,
                forwarding: &forwarding_alarms,
                mapper: &self.mapper,
            }],
            &magnitudes,
        );
        BinReport {
            bin,
            delay_alarms,
            forwarding_alarms,
            link_stats,
            magnitudes,
            records,
            events,
        }
    }

    /// The [`crate::session::AnalysisSession`] over this analyzer — the
    /// one executor behind batch and streaming use (see the
    /// [`crate::session`] docs). `depth` is vestigial: it is accepted and
    /// selects nothing, there is one schedule.
    pub fn session(&mut self, _depth: usize) -> crate::session::AnalyzerSession<'_> {
        crate::session::Session::new(self)
    }

    /// Serialize the analyzer's complete resumable state into a
    /// self-contained byte snapshot.
    ///
    /// The snapshot determinism rule (see [`crate::snapshot`]): the same
    /// analytic state always yields the same bytes, regardless of how
    /// many threads produced it — the `threads` knob is normalized out,
    /// and every map is serialized in sorted or dense-id order. Restoring and feeding the remaining bins
    /// yields reports byte-identical to the uninterrupted run.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::with_header(snapshot::KIND_ANALYZER);
        self.snapshot_body(&mut w);
        w.into_bytes()
    }

    /// Write the analyzer's state without the container header — the
    /// stream router embeds many of these in one fleet snapshot.
    pub(crate) fn snapshot_body(&self, w: &mut Writer) {
        self.cfg.snapshot_into(w);
        let prefixes = self.mapper.prefixes();
        w.seq(prefixes.len());
        for (prefix, asn) in prefixes {
            w.ip(prefix.network());
            w.u8(prefix.len());
            w.u32(asn.0);
        }
        self.delay.snapshot_into(w);
        self.forwarding.snapshot_into(w);
        let s = self.sanitizer.stats();
        for v in [
            s.bin_records,
            s.bin_quarantined,
            s.bin_repaired,
            s.records,
            s.quarantined_loops,
            s.quarantined_rtt,
            s.quarantined_inversions,
            s.quarantined_hops,
            s.repaired,
        ] {
            w.u64(v);
        }
        self.magnitudes.snapshot_into(w);
        self.events.snapshot_into(w);
    }

    /// Rebuild an analyzer from [`Analyzer::snapshot`] bytes. The
    /// restored analyzer picks up exactly where the snapshot was taken:
    /// feeding it the remaining bins produces reports byte-identical to
    /// the uninterrupted run.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Self::restore_with(bytes, |_| {})
    }

    /// [`Analyzer::restore`] with a configuration hook, for re-pinning
    /// the throughput knob `threads` that snapshots normalize to "auto".
    /// Analytic knobs can also be inspected here, but changing them
    /// mid-stream voids the byte-parity contract.
    pub fn restore_with(
        bytes: &[u8],
        tune: impl FnOnce(&mut DetectorConfig),
    ) -> Result<Self, SnapshotError> {
        let (kind, mut r) = Reader::open(bytes)?;
        if kind != snapshot::KIND_ANALYZER {
            return Err(SnapshotError::Corrupt("not an analyzer snapshot"));
        }
        let analyzer = Self::restore_body(&mut r, tune)?;
        if !r.is_exhausted() {
            return Err(SnapshotError::Corrupt("trailing bytes"));
        }
        Ok(analyzer)
    }

    /// Read one analyzer body (the [`Analyzer::snapshot_body`] layout).
    pub(crate) fn restore_body(
        r: &mut Reader<'_>,
        tune: impl FnOnce(&mut DetectorConfig),
    ) -> Result<Self, SnapshotError> {
        let mut cfg = DetectorConfig::restore_from(r)?;
        tune(&mut cfg);
        if cfg.validate().is_err() {
            return Err(SnapshotError::Corrupt("invalid config"));
        }
        let n = r.seq()?;
        let mut mapper = AsMapper::new();
        for _ in 0..n {
            let addr = r.ip()?;
            let len = r.u8()?;
            if len > 32 {
                return Err(SnapshotError::Corrupt("prefix length"));
            }
            let asn = Asn(r.u32()?);
            mapper.insert(Prefix::new(addr, len), asn);
        }
        let delay = DelayDetector::restore_from(r, &cfg)?;
        let forwarding = ForwardingDetector::restore_from(r, &cfg)?;
        let stats = SanitizeStats {
            bin_records: r.u64()?,
            bin_quarantined: r.u64()?,
            bin_repaired: r.u64()?,
            records: r.u64()?,
            quarantined_loops: r.u64()?,
            quarantined_rtt: r.u64()?,
            quarantined_inversions: r.u64()?,
            quarantined_hops: r.u64()?,
            repaired: r.u64()?,
        };
        let magnitudes = MagnitudeTracker::restore_from(r)?;
        let events = EmpathyExtractor::restore_from(r)?;
        Ok(Analyzer {
            cfg,
            delay,
            forwarding,
            sanitizer: Sanitizer::from_stats(stats),
            mapper,
            magnitudes,
            events,
        })
    }

    /// Number of links with a learned delay reference.
    pub fn tracked_links(&self) -> usize {
        self.delay.tracked_links()
    }

    /// Number of (router, destination) forwarding models.
    pub fn tracked_patterns(&self) -> usize {
        self.forwarding.tracked_patterns()
    }

    /// Mean next hops per forwarding model (Table A).
    pub fn mean_next_hops(&self) -> f64 {
        self.forwarding.mean_next_hops()
    }

    /// The IP→AS mapper.
    pub fn mapper(&self) -> &AsMapper {
        &self.mapper
    }

    /// The event channel's cumulative view: every event extracted so
    /// far (open and closed), ranked by severity. The per-bin deltas
    /// ride on [`BinReport::events`].
    pub fn events(&self) -> Vec<FleetEvent> {
        self.events.events()
    }
}

/// Read the first reply of every hop of `records` and discard it. Each
/// record reaches its replies through two dependent heap loads (record →
/// hop vector → reply vector), and the gate that reads them first would
/// otherwise wait on each record's misses in turn. This loop writes
/// nothing and never branches on what a reply holds (only on whether a
/// hop has one), so the core keeps the misses of many records in flight
/// together, and the per-record loop that follows finds its records
/// cached. It is the safe stand-in for a prefetch intrinsic, which this
/// crate cannot call: it forbids `unsafe`.
fn first_touch(records: &[TracerouteRecord]) {
    let mut seen = 0u64;
    for rec in records {
        for hop in &rec.hops {
            seen += hop
                .replies
                .first()
                .map_or(0, |r| u64::from(r.rtt_ms.is_some()));
        }
    }
    std::hint::black_box(seen);
}

/// A solo analyzer is a set of one: its input is the one member's feed
/// and the reduce step is the identity.
impl AnalyzerSet for Analyzer {
    type Input = [TracerouteRecord];
    type Report = BinReport;

    fn threads(&self) -> usize {
        self.cfg.threads
    }

    fn members(&mut self) -> Vec<&mut Analyzer> {
        vec![self]
    }

    fn feeds<'i>(&self, input: &'i [TracerouteRecord]) -> Vec<&'i [TracerouteRecord]> {
        vec![input]
    }

    fn reduce(&mut self, _bin: BinId, mut reports: Vec<BinReport>) -> BinReport {
        reports.pop().expect("a set of one yields one report")
    }

    fn events(&self) -> Vec<FleetEvent> {
        Analyzer::events(self)
    }

    fn snapshot(&self) -> Vec<u8> {
        Analyzer::snapshot(self)
    }

    fn ingest_stats(&self) -> crate::ingest::IngestStats {
        Analyzer::ingest_stats(self)
    }

    fn sanitize_stats(&self) -> SanitizeStats {
        Analyzer::sanitize_stats(self)
    }
}

/// One analyzer's bin, staged for the shared engine: the delay and
/// forwarding stages side by side. [`AnalyzerStage::jobs`] hands out every
/// boxed shard job of both detectors; after the pool ran them,
/// [`AnalyzerStage::finish`] merges each detector's outputs in job order.
pub(crate) struct AnalyzerStage<'a> {
    delay: crate::diffrtt::DelayStage<'a>,
    forwarding: crate::forwarding::ForwardingStage<'a>,
}

impl<'a> AnalyzerStage<'a> {
    /// All shard jobs of this analyzer's bin, one per shard: delay first,
    /// then forwarding, all claimed from the one wave by whichever worker
    /// is free.
    pub(crate) fn jobs<'s>(&'s mut self) -> Vec<crate::engine::Job<'s>> {
        let mut jobs = self.delay.jobs();
        jobs.extend(self.forwarding.jobs());
        jobs
    }

    /// Deterministic merge of both detectors' outputs.
    pub(crate) fn finish(self) -> StagedBin {
        let (delay_alarms, link_stats, new_links) = self.delay.finish();
        StagedBin {
            delay_alarms,
            link_stats,
            new_links,
            forwarding_alarms: self.forwarding.finish(),
        }
    }
}

/// What one analyzer's staged bin produced, before aggregation.
pub(crate) struct StagedBin {
    delay_alarms: Vec<DelayAlarm>,
    link_stats: HashMap<IpLink, LinkStat>,
    new_links: usize,
    forwarding_alarms: Vec<ForwardingAlarm>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_model::records::{Hop, Reply};
    use pinpoint_model::{MeasurementId, ProbeId, SimTime};
    use std::net::Ipv4Addr;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// Hand-built three-probe world: probes in AS 100/200/300 traverse the
    /// same link (10.0.0.1 → 10.0.0.2) towards 198.51.100.1, with
    /// per-probe return-path offsets and controllable link delay.
    fn records(bin: u64, link_delay: f64, drop_far_hop: bool) -> Vec<TracerouteRecord> {
        let mut out = Vec::new();
        for (probe, asn, eps) in [(1u32, 100u32, 0.4), (2, 200, -0.8), (3, 300, 1.3)] {
            for shot in 0..2 {
                let base = 10.0 + eps;
                let far_replies = if drop_far_hop {
                    vec![Reply::TIMEOUT; 3]
                } else {
                    (0..3)
                        .map(|k| {
                            Reply::new(ip("10.0.0.2"), base + link_delay + 0.01 * f64::from(k))
                        })
                        .collect()
                };
                out.push(TracerouteRecord {
                    msm_id: MeasurementId(1),
                    probe_id: ProbeId(probe),
                    probe_asn: pinpoint_model::Asn(asn),
                    dst: ip("198.51.100.1"),
                    timestamp: SimTime(bin * 3600 + shot * 1800),
                    paris_id: 0,
                    hops: vec![
                        Hop::new(
                            1,
                            (0..3)
                                .map(|k| Reply::new(ip("10.0.0.1"), base + 0.01 * f64::from(k)))
                                .collect(),
                        ),
                        Hop::new(2, far_replies),
                        Hop::new(
                            3,
                            vec![Reply::new(ip("198.51.100.1"), base + link_delay + 2.0); 3],
                        ),
                    ],
                    destination_reached: true,
                });
            }
        }
        out
    }

    fn mapper() -> AsMapper {
        AsMapper::from_prefixes([
            ("10.0.0.0/16".parse().unwrap(), Asn(64500)),
            ("198.51.100.0/24".parse().unwrap(), Asn(64501)),
        ])
    }

    #[test]
    fn end_to_end_delay_event_detected_and_aggregated() {
        let mut analyzer = Analyzer::new(DetectorConfig::fast_test(), mapper());
        analyzer.register_ases([Asn(64500)]);
        // Quiet warm-up.
        for b in 0..24 {
            let report = analyzer.process_bin(BinId(b), &records(b, 2.0, false));
            assert!(
                report.delay_alarms.is_empty(),
                "false alarm at bin {b}: {:?}",
                report.delay_alarms
            );
        }
        // Delay surge: +30 ms on the link.
        let report = analyzer.process_bin(BinId(24), &records(24, 32.0, false));
        assert_eq!(report.delay_alarms.len(), 1, "surge not detected");
        let alarm = &report.delay_alarms[0];
        assert_eq!(alarm.link, IpLink::new(ip("10.0.0.1"), ip("10.0.0.2")));
        assert!(alarm.median_shift_ms() > 25.0);
        // Aggregation: AS 64500 has positive delay severity and magnitude.
        let mag = report.magnitude(Asn(64500)).unwrap();
        assert!(mag.delay_severity > 0.0);
        assert!(
            mag.delay_magnitude > 1.0,
            "magnitude {}",
            mag.delay_magnitude
        );
        // The alarm graph contains the link's component.
        let g = report.alarm_graph();
        assert!(g.component_of(ip("10.0.0.2")).is_some());
    }

    #[test]
    fn end_to_end_forwarding_event_detected() {
        let mut analyzer = Analyzer::new(DetectorConfig::fast_test(), mapper());
        for b in 0..12 {
            let report = analyzer.process_bin(BinId(b), &records(b, 2.0, false));
            assert!(report.forwarding_alarms.is_empty(), "false alarm at {b}");
        }
        // The far hop goes dark (all packets lost there).
        let report = analyzer.process_bin(BinId(12), &records(12, 2.0, true));
        assert!(
            !report.forwarding_alarms.is_empty(),
            "loss event not detected"
        );
        let alarm = &report.forwarding_alarms[0];
        assert_eq!(alarm.router, ip("10.0.0.1"));
        // The vanished next hop is the most devalued.
        let (hop, score) = alarm.most_devalued().unwrap();
        assert_eq!(*hop, crate::forwarding::NextHop::Ip(ip("10.0.0.2")));
        assert!(*score < 0.0);
        // And the AS forwarding severity went negative.
        let mag = report.magnitude(Asn(64500)).unwrap();
        assert!(mag.forwarding_severity < 0.0);
    }

    #[test]
    fn no_delay_alarm_without_rtt_samples() {
        // When the far hop is dark the delay detector must stay silent for
        // that link (no samples), demonstrating the complementarity the
        // paper stresses in §7.3.
        let mut analyzer = Analyzer::new(DetectorConfig::fast_test(), mapper());
        for b in 0..12 {
            analyzer.process_bin(BinId(b), &records(b, 2.0, false));
        }
        let report = analyzer.process_bin(BinId(12), &records(12, 2.0, true));
        let link = IpLink::new(ip("10.0.0.1"), ip("10.0.0.2"));
        assert!(report.delay_alarms.iter().all(|a| a.link != link));
        assert!(!report.link_stats.contains_key(&link));
    }

    #[test]
    fn stats_present_even_without_alarms() {
        let mut analyzer = Analyzer::new(DetectorConfig::fast_test(), mapper());
        let report = analyzer.process_bin(BinId(0), &records(0, 2.0, false));
        let link = IpLink::new(ip("10.0.0.1"), ip("10.0.0.2"));
        assert!(report.link_stats.contains_key(&link));
        assert_eq!(report.records, 6);
        assert!(analyzer.tracked_links() >= 1);
        assert!(analyzer.tracked_patterns() >= 1);
    }

    #[test]
    #[should_panic(expected = "reference_expiry_bins")]
    fn degenerate_config_panics_at_construction() {
        let cfg = DetectorConfig {
            reference_expiry_bins: 0,
            ..DetectorConfig::default()
        };
        let _ = Analyzer::new(cfg, mapper());
    }

    #[test]
    fn quarantined_records_never_reach_the_detectors() {
        let mut analyzer = Analyzer::new(DetectorConfig::fast_test(), mapper());
        // A looped record traversing a link the clean records never use.
        let mut looped = records(0, 2.0, false);
        looped.truncate(1);
        let bad_link = (ip("10.0.9.1"), ip("10.0.9.2"));
        looped[0].hops = vec![
            Hop::new(1, vec![Reply::new(bad_link.0, 1.0); 3]),
            Hop::new(2, vec![Reply::new(bad_link.1, 5.0); 3]),
            Hop::new(3, vec![Reply::new(bad_link.0, 9.0); 3]),
        ];
        let mut batch = records(0, 2.0, false);
        batch.extend(looped);
        let report = analyzer.process_bin(BinId(0), &batch);
        // The raw count is reported, but the loop's link was never built.
        assert_eq!(report.records, 7);
        assert!(!report
            .link_stats
            .contains_key(&IpLink::new(bad_link.0, bad_link.1)));
        let stats = analyzer.sanitize_stats();
        assert_eq!(stats.bin_records, 7);
        assert_eq!(stats.quarantined_loops, 1);
        assert_eq!(stats.bin_quarantined, 1);
    }
}
