//! Multi-stream analysis: a fleet of per-stream [`Analyzer`]s on one
//! shared engine pool.
//!
//! The paper's deployment (§8) analyzes many concurrent Atlas measurement
//! streams — builtin anchor meshes plus user-defined measurements — and
//! each stream needs its own references, sliding windows, and per-AS
//! baselines (mixing feeds with different probing rates into one analyzer
//! would smear every reference). [`StreamRouter`] owns one [`Analyzer`]
//! per stream and runs a whole bin of the fleet through ONE scoped worker
//! pool, in two waves. The ingestion wave pools every stream's
//! scatter-chunk jobs — stream A's record→row scatter overlaps stream
//! B's on the same workers, against each stream's own persistent intern
//! epoch. The shard wave pools every stream's delay-link shards and
//! forwarding-pattern shards, one job each, claimed by the same workers,
//! so stream A's delay shards interleave with stream B's forwarding
//! shards instead of each stream spinning up its own thread herd.
//!
//! ## Determinism contract
//!
//! The fleet inherits the engine's contract (see `crate::engine`): shard
//! assignment is stable, job outputs merge in job order, and per-link
//! randomness derives from `(seed, link, bin)`. On top of that the router
//! adds *stream ordering*: streams are staged, merged, and aggregated in
//! the order they were added ([`StreamId`] order), never in completion
//! order. Under both rules the thread count is purely a throughput knob —
//! [`StreamRouter::process_bin`] output is byte-identical across thread
//! counts and to the paper-literal oracle fleet
//! (`pinpoint_bench::oracle::FleetOracle`), which `tests/stream_parity.rs`
//! proves.
//!
//! ## Merged reporting
//!
//! Each bin yields a [`FleetReport`]: the per-stream [`BinReport`]s (each
//! with its own per-stream magnitudes) plus a fleet-level magnitude view —
//! per-AS severities are summed across streams
//! ([`crate::aggregate::merge_severities`]) and normalized by a fleet
//! [`MagnitudeTracker`]. Cross-stream correlation is the point: an event
//! partially visible from several vantages can cross the reporting
//! threshold in the merged view while every individual stream stays below
//! it.

use crate::aggregate::{
    merge_severities, AsMagnitude, EmpathyExtractor, FleetEvent, MagnitudeTracker, StreamEvidence,
};
use crate::config::DetectorConfig;
use crate::graph::AlarmGraph;
use crate::pipeline::{Analyzer, BinReport};
use crate::session::AnalyzerSet;
use crate::snapshot::{self, Reader, SnapshotError, Writer};
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::{Asn, BinId};
use std::collections::BTreeMap;

/// Index of a stream within its router, in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub usize);

/// One measurement stream of the fleet: a label (measurement-set name) and
/// its dedicated analyzer.
#[derive(Debug)]
struct Stream {
    label: String,
    analyzer: Analyzer,
}

/// A fleet of per-stream analyzers sharing one engine pool.
#[derive(Debug)]
pub struct StreamRouter {
    streams: Vec<Stream>,
    fleet_magnitudes: MagnitudeTracker,
    /// The fleet event channel, created lazily from the first stream's
    /// config at the first merge (a router is assembled before its
    /// streams exist).
    fleet_events: Option<EmpathyExtractor>,
    threads: usize,
}

impl Default for StreamRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamRouter {
    /// Empty router with the paper's default one-week fleet magnitude
    /// window.
    pub fn new() -> Self {
        Self::with_magnitude_window(DetectorConfig::default().magnitude_window_bins)
    }

    /// Empty router with an explicit fleet-level magnitude window (bins).
    pub fn with_magnitude_window(window_bins: usize) -> Self {
        StreamRouter {
            streams: Vec::new(),
            fleet_magnitudes: MagnitudeTracker::new(window_bins),
            fleet_events: None,
            threads: 0,
        }
    }

    /// Worker threads for the shared pool: `0` (default) means "use all
    /// available cores". Purely a throughput knob — output is
    /// byte-identical for any value.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Add a stream; its analyzer keeps all per-stream state (references,
    /// sliding windows, magnitude baselines). Returns the stream's id —
    /// also its index into [`FleetReport::streams`].
    pub fn add_stream(&mut self, label: impl Into<String>, analyzer: Analyzer) -> StreamId {
        let id = StreamId(self.streams.len());
        self.streams.push(Stream {
            label: label.into(),
            analyzer,
        });
        id
    }

    /// Number of streams in the fleet.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether the fleet has no streams.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// The label a stream was added under.
    pub fn label(&self, id: StreamId) -> &str {
        &self.streams[id.0].label
    }

    /// A stream's analyzer.
    pub fn analyzer(&self, id: StreamId) -> &Analyzer {
        &self.streams[id.0].analyzer
    }

    /// Pre-register ASes for magnitude tracking in the fleet view AND in
    /// every current stream, so all baselines score them from bin zero.
    pub fn register_ases<I: IntoIterator<Item = Asn>>(&mut self, ases: I) {
        let ases: Vec<Asn> = ases.into_iter().collect();
        self.fleet_magnitudes.register(ases.iter().copied());
        for stream in &mut self.streams {
            stream.analyzer.register_ases(ases.iter().copied());
        }
    }

    /// Run one bin of the whole fleet through one shared worker pool —
    /// one push of the executor ([`crate::session::Session`]).
    ///
    /// `feeds[i]` is the record feed of stream `i` (one slot per stream,
    /// empty when the stream saw no traffic this bin). The fleet bin runs
    /// as two pooled waves: first every stream's scatter-chunk jobs
    /// (stream A's ingestion overlaps stream B's on the same workers),
    /// then — after the per-stream chunk-ordered intern merges, done in
    /// stream order — every stream's delay and forwarding shard jobs.
    /// The calling thread and the engine's scoped helpers claim each
    /// wave's jobs from one index, so the fleet runs as one thread herd;
    /// the streams then aggregate in stream order and merge.
    ///
    /// # Panics
    /// When `feeds.len()` differs from the number of streams.
    pub fn process_bin(&mut self, bin: BinId, feeds: &[Vec<TracerouteRecord>]) -> FleetReport {
        let feeds = AnalyzerSet::feeds(self, feeds);
        crate::session::Session::new(self).push(bin, &feeds)
    }

    /// Fleet-level aggregation: sum per-AS severities across the streams'
    /// reports, score them against the fleet magnitude baseline, and run
    /// the merged view through the fleet event channel, once per bin, in
    /// stream order — so the event deltas are deterministic by
    /// construction.
    fn merge(&mut self, bin: BinId, reports: Vec<BinReport>) -> FleetReport {
        let (dsev, fsev) = merge_severities(reports.iter().map(|r| &r.magnitudes));
        let magnitudes = self.fleet_magnitudes.score_bin(&dsev, &fsev);
        if self.fleet_events.is_none() {
            if let Some(s) = self.streams.first() {
                self.fleet_events = Some(EmpathyExtractor::new(s.analyzer.config()));
            }
        }
        let events = match &mut self.fleet_events {
            Some(extractor) => {
                let evidence: Vec<StreamEvidence<'_>> = reports
                    .iter()
                    .zip(&self.streams)
                    .map(|(r, s)| StreamEvidence {
                        delay: &r.delay_alarms,
                        forwarding: &r.forwarding_alarms,
                        mapper: s.analyzer.mapper(),
                    })
                    .collect();
                extractor.observe(bin, &evidence, &magnitudes)
            }
            None => Vec::new(),
        };
        FleetReport {
            bin,
            streams: reports,
            magnitudes,
            events,
        }
    }

    /// The fleet event channel's cumulative view: every event extracted
    /// so far (open and closed), ranked by merged cross-stream severity.
    /// The per-bin deltas ride on [`FleetReport::events`].
    pub fn events(&self) -> Vec<FleetEvent> {
        self.fleet_events
            .as_ref()
            .map(EmpathyExtractor::events)
            .unwrap_or_default()
    }

    /// Links with a learned delay reference, summed over the fleet.
    pub fn tracked_links(&self) -> usize {
        self.streams
            .iter()
            .map(|s| s.analyzer.tracked_links())
            .sum()
    }

    /// (router, destination) forwarding models, summed over the fleet.
    pub fn tracked_patterns(&self) -> usize {
        self.streams
            .iter()
            .map(|s| s.analyzer.tracked_patterns())
            .sum()
    }

    /// Interning-epoch counters summed over every stream's arenas: in a
    /// steady-state fleet bin, `bin_insertions` is zero across the board.
    pub fn ingest_stats(&self) -> crate::ingest::IngestStats {
        self.streams
            .iter()
            .map(|s| s.analyzer.ingest_stats())
            .fold(crate::ingest::IngestStats::default(), |acc, s| {
                acc.merged(s)
            })
    }

    /// Sanitizer counters summed over every stream: records inspected,
    /// quarantined (by reason), and repaired — the fleet twin of
    /// [`Analyzer::sanitize_stats`].
    pub fn sanitize_stats(&self) -> crate::sanitize::SanitizeStats {
        self.streams
            .iter()
            .map(|s| s.analyzer.sanitize_stats())
            .fold(crate::sanitize::SanitizeStats::default(), |acc, s| {
                acc.merged(s)
            })
    }

    /// The [`crate::session::AnalysisSession`] over the fleet — the same
    /// executor as [`Analyzer::session`], over every stream at once: each
    /// wave carries every stream's job set. `depth` is vestigial: it is
    /// accepted and selects nothing, there is one schedule.
    pub fn session(&mut self, _depth: usize) -> crate::session::FleetSession<'_> {
        crate::session::Session::new(self)
    }

    /// Serialize the whole fleet's resumable state — every stream's
    /// label and analyzer body, the fleet magnitude baseline, and the
    /// fleet event channel — under the same determinism rule as
    /// [`Analyzer::snapshot`]: throughput knobs (including the router's
    /// own [`StreamRouter::set_threads`]) are normalized out, so the
    /// bytes are identical across the whole execution matrix.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::with_header(snapshot::KIND_FLEET);
        w.seq(self.streams.len());
        for stream in &self.streams {
            w.str(&stream.label);
            stream.analyzer.snapshot_body(&mut w);
        }
        self.fleet_magnitudes.snapshot_into(&mut w);
        match &self.fleet_events {
            Some(extractor) => {
                w.bool(true);
                extractor.snapshot_into(&mut w);
            }
            None => w.bool(false),
        }
        w.into_bytes()
    }

    /// Rebuild a fleet from [`StreamRouter::snapshot`] bytes. The
    /// restored router's thread knob is "auto" — re-pin it with
    /// [`StreamRouter::set_threads`] if desired; the per-stream
    /// throughput knobs can be re-pinned via the `tune` hook of
    /// [`StreamRouter::restore_with`].
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Self::restore_with(bytes, |_| {})
    }

    /// [`StreamRouter::restore`] with a per-stream configuration hook
    /// (applied to every stream's restored config, like
    /// [`Analyzer::restore_with`]).
    pub fn restore_with(
        bytes: &[u8],
        mut tune: impl FnMut(&mut DetectorConfig),
    ) -> Result<Self, SnapshotError> {
        let (kind, mut r) = Reader::open(bytes)?;
        if kind != snapshot::KIND_FLEET {
            return Err(SnapshotError::Corrupt("not a fleet snapshot"));
        }
        let n = r.seq()?;
        let mut streams = Vec::with_capacity(n);
        for _ in 0..n {
            let label = r.str()?;
            let analyzer = Analyzer::restore_body(&mut r, &mut tune)?;
            streams.push(Stream { label, analyzer });
        }
        let fleet_magnitudes = MagnitudeTracker::restore_from(&mut r)?;
        let fleet_events = if r.bool()? {
            Some(EmpathyExtractor::restore_from(&mut r)?)
        } else {
            None
        };
        if !r.is_exhausted() {
            return Err(SnapshotError::Corrupt("trailing bytes"));
        }
        Ok(StreamRouter {
            streams,
            fleet_magnitudes,
            fleet_events,
            threads: 0,
        })
    }
}

/// A fleet is the set of its streams' analyzers, reduced by the fleet
/// merge.
impl AnalyzerSet for StreamRouter {
    type Input = [Vec<TracerouteRecord>];
    type Report = FleetReport;

    fn threads(&self) -> usize {
        self.threads
    }

    fn members(&mut self) -> Vec<&mut Analyzer> {
        self.streams.iter_mut().map(|s| &mut s.analyzer).collect()
    }

    fn feeds<'i>(&self, input: &'i [Vec<TracerouteRecord>]) -> Vec<&'i [TracerouteRecord]> {
        assert_eq!(
            input.len(),
            self.streams.len(),
            "one feed per stream (streams: {}, feeds: {})",
            self.streams.len(),
            input.len()
        );
        input.iter().map(Vec::as_slice).collect()
    }

    fn reduce(&mut self, bin: BinId, reports: Vec<BinReport>) -> FleetReport {
        self.merge(bin, reports)
    }

    fn events(&self) -> Vec<FleetEvent> {
        StreamRouter::events(self)
    }

    fn snapshot(&self) -> Vec<u8> {
        StreamRouter::snapshot(self)
    }

    fn ingest_stats(&self) -> crate::ingest::IngestStats {
        StreamRouter::ingest_stats(self)
    }

    fn sanitize_stats(&self) -> crate::sanitize::SanitizeStats {
        StreamRouter::sanitize_stats(self)
    }
}

/// Everything the fleet learned from one bin: the per-stream reports plus
/// the merged cross-stream magnitude view.
///
/// Serde derives come through the workspace's offline shim; the
/// canonical wire format is [`crate::render::fleet_report`].
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct FleetReport {
    /// The bin analyzed.
    pub bin: BinId,
    /// Per-stream reports, in [`StreamId`] order.
    pub streams: Vec<BinReport>,
    /// Fleet-level per-AS magnitudes: severities summed across streams,
    /// normalized against the fleet's own sliding baseline.
    pub magnitudes: BTreeMap<Asn, AsMagnitude>,
    /// This bin's fleet event deltas from the incremental empathy
    /// extractor (events opened, updated, or closed by this bin,
    /// ascending id) — the per-bin slice of the fleet event channel.
    pub events: Vec<FleetEvent>,
}

impl FleetReport {
    /// One stream's report.
    pub fn stream(&self, id: StreamId) -> &BinReport {
        &self.streams[id.0]
    }

    /// Merged magnitudes of one AS, if tracked.
    pub fn magnitude(&self, asn: Asn) -> Option<&AsMagnitude> {
        self.magnitudes.get(&asn)
    }

    /// Total traceroutes consumed across the fleet.
    pub fn records(&self) -> usize {
        self.streams.iter().map(|r| r.records).sum()
    }

    /// Total delay alarms across the fleet.
    pub fn delay_alarms(&self) -> usize {
        self.streams.iter().map(|r| r.delay_alarms.len()).sum()
    }

    /// Total forwarding alarms across the fleet.
    pub fn forwarding_alarms(&self) -> usize {
        self.streams.iter().map(|r| r.forwarding_alarms.len()).sum()
    }

    /// The union alarm graph of the bin: every stream's delay edges and
    /// forwarding flags in one graph, so a component fragmented across
    /// vantages connects (Fig. 8 / Fig. 12, fleet-wide). Duplicate
    /// cross-stream edges merge into one edge that keeps per-stream
    /// provenance ([`crate::graph::AlarmEdge::streams`]).
    pub fn alarm_graph(&self) -> AlarmGraph {
        let mut g = AlarmGraph::new();
        for (idx, report) in self.streams.iter().enumerate() {
            g.add_stream_delay_alarms(idx, &report.delay_alarms);
            g.add_stream_forwarding_alarms(idx, &report.forwarding_alarms);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AsMapper;
    use pinpoint_model::records::{Hop, Reply};
    use pinpoint_model::{MeasurementId, ProbeId, SimTime};
    use std::net::Ipv4Addr;

    fn mapper() -> AsMapper {
        AsMapper::from_prefixes([
            ("10.0.0.0/16".parse().unwrap(), Asn(64500)),
            ("198.51.100.0/24".parse().unwrap(), Asn(64501)),
        ])
    }

    /// Three probes traverse `near → far` towards a per-stream target,
    /// with a controllable link delay — enough to pass the §4.3 filter.
    fn feed(stream: u8, bin: u64, link_delay: f64) -> Vec<TracerouteRecord> {
        let near = Ipv4Addr::new(10, 0, stream, 1);
        let far = Ipv4Addr::new(10, 0, stream, 2);
        let dst = Ipv4Addr::new(198, 51, 100, stream + 1);
        let mut out = Vec::new();
        for (probe, asn, eps) in [(1u32, 100u32, 0.4), (2, 200, -0.8), (3, 300, 1.3)] {
            for shot in 0..2 {
                let base = 10.0 + eps;
                out.push(TracerouteRecord {
                    msm_id: MeasurementId(u32::from(stream)),
                    probe_id: ProbeId(probe),
                    probe_asn: Asn(asn),
                    dst,
                    timestamp: SimTime(bin * 3600 + shot * 1800),
                    paris_id: 0,
                    hops: vec![
                        Hop::new(
                            1,
                            (0..3)
                                .map(|k| Reply::new(near, base + 0.01 * f64::from(k)))
                                .collect(),
                        ),
                        Hop::new(
                            2,
                            (0..3)
                                .map(|k| Reply::new(far, base + link_delay + 0.01 * f64::from(k)))
                                .collect(),
                        ),
                        Hop::new(3, vec![Reply::new(dst, base + link_delay + 2.0); 3]),
                    ],
                    destination_reached: true,
                });
            }
        }
        out
    }

    fn router(streams: usize) -> StreamRouter {
        let mut r = StreamRouter::with_magnitude_window(24);
        for i in 0..streams {
            r.add_stream(
                format!("stream-{i}"),
                Analyzer::new(DetectorConfig::fast_test(), mapper()),
            );
        }
        r.register_ases([Asn(64500)]);
        r
    }

    #[test]
    fn fleet_processes_three_streams_through_one_bin() {
        let mut r = router(3);
        assert_eq!(r.len(), 3);
        let feeds: Vec<_> = (0..3).map(|s| feed(s, 0, 2.0)).collect();
        let report = r.process_bin(BinId(0), &feeds);
        assert_eq!(report.streams.len(), 3);
        assert_eq!(report.records(), 18);
        assert!(r.tracked_links() >= 3, "each stream tracks its own links");
        // Per-stream link stats stay private to their stream.
        for (i, stream_report) in report.streams.iter().enumerate() {
            assert_eq!(stream_report.records, 6, "stream {i}");
            assert!(!stream_report.link_stats.is_empty(), "stream {i}");
        }
    }

    #[test]
    fn merged_magnitudes_sum_stream_severities() {
        let mut r = router(3);
        // Quiet warm-up for all streams.
        for b in 0..24u64 {
            let feeds: Vec<_> = (0..3).map(|s| feed(s, b, 2.0)).collect();
            r.process_bin(BinId(b), &feeds);
        }
        // All three streams see a +30 ms surge on their own link.
        let feeds: Vec<_> = (0..3).map(|s| feed(s, 24, 32.0)).collect();
        let report = r.process_bin(BinId(24), &feeds);
        assert_eq!(report.delay_alarms(), 3, "one alarm per stream");
        let merged = report.magnitude(Asn(64500)).unwrap().delay_severity;
        let summed: f64 = report
            .streams
            .iter()
            .map(|s| s.magnitude(Asn(64500)).unwrap().delay_severity)
            .sum();
        assert!((merged - summed).abs() < 1e-12, "{merged} != {summed}");
        assert!(merged > 0.0);
        // And the union graph contains each stream's alarmed link.
        let g = report.alarm_graph();
        for s in 0..3u8 {
            assert!(g.component_of(Ipv4Addr::new(10, 0, s, 2)).is_some());
        }
    }

    #[test]
    fn empty_feeds_are_valid_bins() {
        let mut r = router(2);
        let report = r.process_bin(BinId(0), &[Vec::new(), Vec::new()]);
        assert_eq!(report.records(), 0);
        assert_eq!(report.delay_alarms(), 0);
        // Registered ASes are still scored in the merged view.
        assert!(report.magnitude(Asn(64500)).is_some());
    }

    #[test]
    #[should_panic(expected = "one feed per stream")]
    fn feed_count_mismatch_panics() {
        let mut r = router(2);
        r.process_bin(BinId(0), &[Vec::new()]);
    }

    #[test]
    fn labels_and_ids_line_up() {
        let mut r = StreamRouter::new();
        assert!(r.is_empty());
        let a = r.add_stream(
            "builtin",
            Analyzer::new(DetectorConfig::fast_test(), mapper()),
        );
        let b = r.add_stream(
            "anchors",
            Analyzer::new(DetectorConfig::fast_test(), mapper()),
        );
        assert_eq!((a, b), (StreamId(0), StreamId(1)));
        assert_eq!(r.label(a), "builtin");
        assert_eq!(r.label(b), "anchors");
        assert_eq!(r.analyzer(b).tracked_links(), 0);
    }
}
