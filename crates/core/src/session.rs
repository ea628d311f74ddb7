//! The bin schedule: one executor, one session API.
//!
//! The §8 deployment is one loop — consume the stream bin by bin, keep
//! references, emit reports — and this module is the only place that
//! loop's schedule is written. [`Session`] runs consecutive bins over an
//! [`AnalyzerSet`]: a set of member [`Analyzer`]s plus a reduce step. A
//! solo [`Analyzer`] is a set of one with the identity reduce; a
//! [`StreamRouter`] is its streams with the fleet merge. One stream and
//! many streams therefore reach the report funnel through the same code.
//!
//! * [`AnalysisSession`] — one open-ended run over consecutive bins.
//!   [`AnalysisSession::push_bin`] feeds one whole bin (zero-copy) and
//!   is the only way in: a streaming source hands over whole bins, and
//!   the engine alone decides how a bin is cut into scatter chunks
//!   ([`crate::ingest::resolve_chunk_for`]). A bin's report leaves the
//!   push that fed it: nothing is ever left in flight.
//! * [`BinSource`] — anything that yields `(BinId, feed)` pairs in
//!   increasing bin order. Every `Iterator<Item = (BinId, F)>` is a
//!   `BinSource` for free, so `platform.stream(..)`, a `Vec` of
//!   pre-collected bins, or a channel-draining adapter all plug in
//!   unchanged.
//!
//! [`drive`] connects the two: it exhausts a source through a session
//! and hands every report to an observer, which is the whole run loop of
//! `scenarios::run`; the live service's executor thread is the same loop
//! over its collect queue.
//!
//! [`AnalyzerSession`] (from [`Analyzer::session`]) and [`FleetSession`]
//! (from [`StreamRouter::session`]) are aliases of [`Session`]. For a
//! fixed record sequence the emitted reports are byte-identical across
//! every thread count, and so across every chunk cut the engine derives
//! from it.

use crate::aggregate::FleetEvent;
use crate::engine;
use crate::ingest::IngestStats;
use crate::pipeline::{Analyzer, AnalyzerStage, BinReport};
use crate::sanitize::SanitizeStats;
use crate::stream::StreamRouter;
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::BinId;
use std::borrow::Borrow;

/// A supplier of consecutive bins: yields `(bin, feed)` pairs in strictly
/// increasing bin order, `None` when the feed is exhausted.
///
/// Every `Iterator<Item = (BinId, F)>` is a `BinSource` via the blanket
/// impl, so platform streams, vectors of pre-collected bins, and ad-hoc
/// adapters need no wrapper type.
pub trait BinSource {
    /// What one bin's records look like (e.g. `Vec<TracerouteRecord>` for
    /// a solo analyzer, `Vec<Vec<TracerouteRecord>>` for a fleet).
    type Feed;

    /// The next bin, or `None` when the feed is exhausted.
    fn next_bin(&mut self) -> Option<(BinId, Self::Feed)>;
}

impl<I, F> BinSource for I
where
    I: Iterator<Item = (BinId, F)>,
{
    type Feed = F;

    fn next_bin(&mut self) -> Option<(BinId, F)> {
        self.next()
    }
}

/// One open-ended analysis run over consecutive bins — the single
/// interface in front of the executor (see the [module docs](self)).
pub trait AnalysisSession {
    /// One bin's worth of input, borrowed (`[TracerouteRecord]` for a
    /// solo analyzer, `[Vec<TracerouteRecord>]` — one slot per stream —
    /// for a fleet).
    type Input: ?Sized;
    /// What a finished bin produces.
    type Report;

    /// Feed one whole bin, zero-copy: the input slice goes straight to
    /// the executor. Always `Some`: the pushed bin's report.
    ///
    /// # Panics
    /// When `bin` does not increase.
    fn push_bin(&mut self, bin: BinId, input: &Self::Input) -> Option<Self::Report>;

    /// Vestigial: every report already left its own push, so there is
    /// never anything to drain.
    fn flush(&mut self) -> Option<Self::Report> {
        None
    }

    /// Vestigial: no bin ever stays in flight, so the depth is always 1.
    fn depth(&self) -> usize {
        1
    }

    /// The event channel's cumulative view: every event the run has
    /// extracted so far (open and closed), ranked by merged severity.
    /// Per-bin deltas ride on the reports
    /// ([`BinReport::events`](crate::pipeline::BinReport::events) /
    /// [`FleetReport::events`](crate::stream::FleetReport::events));
    /// this reads the same state between bins, e.g. for a final
    /// listing.
    fn events(&self) -> Vec<FleetEvent>;

    /// Serialize the run's complete resumable state
    /// ([`Analyzer::snapshot`] / [`StreamRouter::snapshot`] layout).
    /// Between pushes every pushed bin is fully analyzed, so the
    /// snapshot covers them all and taking it never disturbs the
    /// schedule; the session keeps running afterwards.
    fn checkpoint(&mut self) -> Vec<u8>;
}

/// Exhaust a [`BinSource`] through an [`AnalysisSession`], handing every
/// report to `observer` strictly in bin order. This is the canonical run
/// loop — `scenarios::run` and the service's executor thread are both
/// this shape.
pub fn drive<S, B>(session: &mut S, mut source: B, mut observer: impl FnMut(S::Report))
where
    S: AnalysisSession + ?Sized,
    B: BinSource,
    B::Feed: Borrow<S::Input>,
{
    while let Some((bin, feed)) = source.next_bin() {
        if let Some(report) = session.push_bin(bin, feed.borrow()) {
            observer(report);
        }
    }
}

/// What the bin schedule runs over: a set of member [`Analyzer`]s that
/// share one worker herd, plus the reduce step that turns their per-bin
/// reports into the set's report. Implemented by [`Analyzer`] (a set of
/// one, identity reduce) and [`StreamRouter`] (its streams, the fleet
/// merge); [`Session`] and the service's executor thread are generic
/// over it.
pub trait AnalyzerSet {
    /// One bin's worth of input, borrowed.
    type Input: ?Sized;
    /// What a finished bin produces.
    type Report;

    /// The `threads` knob of the shared herd (`0` = all cores).
    fn threads(&self) -> usize;

    /// The member analyzers, in member order — the order they are
    /// staged, merged, and reduced in, never completion order.
    fn members(&mut self) -> Vec<&mut Analyzer>;

    /// Split one bin's input into one record slice per member.
    ///
    /// # Panics
    /// When the input does not carry exactly one feed per member.
    fn feeds<'i>(&self, input: &'i Self::Input) -> Vec<&'i [TracerouteRecord]>;

    /// Fold the members' reports of one bin (member order) into the
    /// set's report. This is the single funnel every bin flows through,
    /// so anything stateful here (fleet magnitudes, the fleet event
    /// channel) is deterministic by construction.
    fn reduce(&mut self, bin: BinId, reports: Vec<BinReport>) -> Self::Report;

    /// The event channel's cumulative view (see
    /// [`AnalysisSession::events`]).
    fn events(&self) -> Vec<FleetEvent>;

    /// The set's complete resumable state, serialized.
    fn snapshot(&self) -> Vec<u8>;

    /// Interning-epoch counters summed over the members.
    fn ingest_stats(&self) -> IngestStats;

    /// Sanitizer counters summed over the members.
    fn sanitize_stats(&self) -> SanitizeStats;
}

/// The bin executor and the [`AnalysisSession`] in front of it (create
/// with [`Analyzer::session`] / [`StreamRouter::session`]).
///
/// One push is one bin, start to finish, in a straight line:
///
/// 1. **Compaction sweep.** Every member evicts the intern keys that
///    expired on the `reference_expiry_bins` clock. The sweep renumbers
///    dense ids, which is safe exactly here — the previous bin's rows
///    are dead and this bin's are not scattered yet.
/// 2. **Scatter wave.** Every member's raw record chunks run as one wave
///    on the shared worker herd. The sanitizer rides this wave: a chunk's
///    job judges each record, skips a quarantined one, and scatters the
///    survivor for both detectors in the same pass — there is no serial
///    pre-pass and no copy of the bin.
/// 3. **Merge fence.** The members' sequential chunk-ordered merges, in
///    member order: the chunks' sanitize counters fold into the member's
///    [`SanitizeStats`], then the intern merges — the only place intern
///    epochs advance, so id assignment depends on `(records, tables at
///    bin open)` alone.
/// 4. **Shard wave.** Every member's delay and forwarding shard jobs run
///    as one wave; shard jobs never write the epoch tables.
/// 5. **Absorb and reduce.** The members stamp their observed keys and
///    aggregate in member order, and the set reduces their reports.
///
/// The report of bin *n* is the return value of the push of bin *n*.
pub struct Session<'a, S: AnalyzerSet> {
    set: &'a mut S,
    /// Resolved worker count of the shared herd.
    threads: usize,
    /// Last bin pushed — enforces the increasing-order contract.
    last: Option<BinId>,
}

/// A solo-analyzer session (create with [`Analyzer::session`]).
pub type AnalyzerSession<'a> = Session<'a, Analyzer>;

/// A fleet session over a [`StreamRouter`] (create with
/// [`StreamRouter::session`]): input is one feed per stream, index =
/// [`crate::stream::StreamId`]; reports are merged
/// [`FleetReport`](crate::stream::FleetReport)s.
pub type FleetSession<'a> = Session<'a, StreamRouter>;

impl<'a, S: AnalyzerSet> Session<'a, S> {
    /// A session over `set`.
    pub fn new(set: &'a mut S) -> Self {
        let threads = engine::resolve_threads(set.threads());
        Session {
            set,
            threads,
            last: None,
        }
    }

    /// The underlying set — its counters ([`AnalyzerSet::ingest_stats`]
    /// / [`AnalyzerSet::sanitize_stats`]) describe the bin just
    /// reported, which is how the live service's `/stats` endpoint reads
    /// them.
    pub fn inner(&self) -> &S {
        self.set
    }

    /// The schedule (see the type docs): one bin in, its report out.
    pub(crate) fn push(&mut self, bin: BinId, feeds: &[&[TracerouteRecord]]) -> S::Report {
        if let Some(last) = self.last {
            assert!(
                bin.0 > last.0,
                "bins must be fed in increasing order ({bin:?} after {last:?})"
            );
        }
        self.last = Some(bin);
        let threads = self.threads;
        let reports = {
            let mut members = self.set.members();
            let mut scatter = Vec::new();
            for (analyzer, records) in members.iter_mut().zip(feeds) {
                analyzer.compact_epochs(bin);
                scatter.extend(analyzer.open_scatter(records, threads));
            }
            engine::run_jobs(scatter, threads);
            for analyzer in members.iter_mut() {
                analyzer.merge_scatter(bin);
            }
            let staged: Vec<_> = {
                let mut stages: Vec<_> = members
                    .iter_mut()
                    .map(|analyzer| analyzer.stage(bin, threads))
                    .collect();
                let shards = stages.iter_mut().flat_map(AnalyzerStage::jobs).collect();
                engine::run_jobs(shards, threads);
                stages.into_iter().map(AnalyzerStage::finish).collect()
            };
            members
                .iter_mut()
                .zip(feeds)
                .zip(staged)
                .map(|((analyzer, records), staged)| analyzer.absorb(bin, records.len(), staged))
                .collect()
        };
        self.set.reduce(bin, reports)
    }
}

impl<S: AnalyzerSet> AnalysisSession for Session<'_, S> {
    type Input = S::Input;
    type Report = S::Report;

    fn push_bin(&mut self, bin: BinId, input: &S::Input) -> Option<S::Report> {
        let feeds = self.set.feeds(input);
        Some(self.push(bin, &feeds))
    }

    fn events(&self) -> Vec<FleetEvent> {
        self.set.events()
    }

    fn checkpoint(&mut self) -> Vec<u8> {
        self.set.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AsMapper;
    use crate::config::DetectorConfig;

    fn analyzer(threads: usize) -> Analyzer {
        let mut cfg = DetectorConfig::fast_test();
        cfg.threads = threads;
        Analyzer::new(cfg, AsMapper::new())
    }

    fn fleet(threads: usize) -> StreamRouter {
        let mut router = StreamRouter::new();
        router.add_stream("a", analyzer(threads));
        router.add_stream("b", analyzer(threads));
        router.set_threads(threads);
        router
    }

    /// The cadence itself: on every herd size, every push returns the
    /// report of the bin it was fed and nothing is left to flush.
    #[test]
    fn every_push_reports_its_own_bin_on_every_thread_count() {
        for threads in [1usize, 2, 8] {
            let mut a = analyzer(threads);
            let mut session = a.session(0);
            for bin in 0..3u64 {
                let report = session
                    .push_bin(BinId(bin), &[])
                    .expect("every push reports");
                assert_eq!(report.bin, BinId(bin), "solo threads={threads}");
            }
            assert!(session.flush().is_none(), "solo threads={threads}");

            let mut router = fleet(threads);
            let mut session = router.session(0);
            let feeds = vec![Vec::new(), Vec::new()];
            for bin in 0..3u64 {
                let report = session
                    .push_bin(BinId(bin), &feeds)
                    .expect("every push reports");
                assert_eq!(report.bin, BinId(bin), "fleet threads={threads}");
            }
            assert!(session.flush().is_none(), "fleet threads={threads}");
        }
    }

    #[test]
    fn depth_argument_selects_nothing() {
        for depth in [0usize, 1, 2, 7] {
            assert_eq!(analyzer(2).session(depth).depth(), 1, "solo depth={depth}");
            assert_eq!(fleet(2).session(depth).depth(), 1, "fleet depth={depth}");
        }
    }

    /// One stream's feed over `LANES` lanes (`near → far → dst`, three
    /// probes in three ASes, two traceroutes each) starting at lane
    /// `first`: 1 200 records, so a bin scatters as three 512-record chunks
    /// and its lanes spread over every shard. In the surge bin every fifth
    /// lane gains 30 ms on its `near → far` link (delay alarms) and every
    /// seventh lane's far hop goes dark (forwarding alarms).
    fn lanes(stream: u8, first: usize, bin: u64, surge: bool) -> Vec<TracerouteRecord> {
        use pinpoint_model::records::{Hop, Reply};
        use pinpoint_model::{Asn, MeasurementId, ProbeId, SimTime};
        use std::net::Ipv4Addr;
        const LANES: usize = 200;
        let mut out = Vec::new();
        for lane in first..first + LANES {
            let (hi, lo) = ((lane / 250) as u8, (lane % 250) as u8);
            let near = Ipv4Addr::new(10, 1 + stream, hi, lo);
            let far = Ipv4Addr::new(10, 101 + stream, hi, lo);
            let dst = Ipv4Addr::new(198, 51, 100 + stream, lo);
            let delay = if surge && lane % 5 == 0 { 32.0 } else { 2.0 };
            let dark = surge && lane % 7 == 0;
            for (probe, asn, eps) in [(1u32, 100u32, 0.4), (2, 200, -0.8), (3, 300, 1.3)] {
                for shot in 0..2 {
                    let base = 10.0 + eps + (lane % 11) as f64 * 0.1;
                    let replies = |at: Ipv4Addr, rtt: f64| {
                        (0..3)
                            .map(|k| Reply::new(at, rtt + 0.01 * f64::from(k)))
                            .collect()
                    };
                    let far_replies = if dark {
                        vec![Reply::TIMEOUT; 3]
                    } else {
                        replies(far, base + delay)
                    };
                    out.push(TracerouteRecord {
                        msm_id: MeasurementId(u32::from(stream)),
                        probe_id: ProbeId(probe),
                        probe_asn: Asn(asn),
                        dst,
                        timestamp: SimTime(bin * 3600 + shot * 1800),
                        paris_id: 0,
                        hops: vec![
                            Hop::new(1, replies(near, base)),
                            Hop::new(2, far_replies),
                            Hop::new(3, replies(dst, base + delay + 2.0)),
                        ],
                        destination_reached: true,
                    });
                }
            }
        }
        out
    }

    /// The bins the placement test pushes: six quiet warm-up bins, a surge
    /// bin with alarms, an empty bin, then two churn bins whose lanes are
    /// half new — and, with a 2-bin expiry, whose second bin compacts the
    /// lanes last seen in the surge bin away.
    fn placement_bins(stream: u8) -> Vec<Vec<TracerouteRecord>> {
        let mut bins: Vec<_> = (0..6).map(|b| lanes(stream, 0, b, false)).collect();
        bins.push(lanes(stream, 0, 6, true));
        bins.push(Vec::new());
        bins.extend((8..10).map(|b| lanes(stream, 100, b, false)));
        bins
    }

    /// Everything a push schedule could leak into: every report's bytes,
    /// the cumulative event listing and the snapshot, for a solo analyzer
    /// and a 2-stream fleet on `threads` workers.
    fn placement_run(threads: usize) -> (Vec<String>, Vec<String>, Vec<u8>) {
        use crate::render;
        let cfg = DetectorConfig {
            threads,
            reference_expiry_bins: 2,
            ..DetectorConfig::fast_test()
        };
        let mapper = || {
            AsMapper::from_prefixes([
                ("10.0.0.0/8".parse().unwrap(), pinpoint_model::Asn(64500)),
                ("198.51.0.0/16".parse().unwrap(), pinpoint_model::Asn(64501)),
            ])
        };
        let (solo_bins, other_bins) = (placement_bins(0), placement_bins(1));
        let mut solo = Analyzer::new(cfg.clone(), mapper());
        let mut fleet = StreamRouter::with_magnitude_window(24);
        fleet.add_stream("a", Analyzer::new(cfg.clone(), mapper()));
        fleet.add_stream("b", Analyzer::new(cfg, mapper()));
        fleet.set_threads(threads);
        let (mut reports, mut events, mut snapshots) = (Vec::new(), Vec::new(), Vec::new());
        {
            let (mut solo, mut fleet) = (solo.session(0), fleet.session(0));
            for (b, (mine, other)) in solo_bins.iter().zip(&other_bins).enumerate() {
                let bin = BinId(b as u64);
                let report = solo.push_bin(bin, mine).expect("every push reports");
                reports.push(render::bin_report(&report).to_string());
                let feeds = vec![mine.clone(), other.clone()];
                let report = fleet.push_bin(bin, &feeds).expect("every push reports");
                reports.push(render::fleet_report(&report).to_string());
            }
            for events_of in [solo.events(), fleet.events()] {
                events.push(render::events(&events_of).to_string());
            }
            snapshots.extend(solo.checkpoint());
            snapshots.extend(fleet.checkpoint());
        }
        (reports, events, snapshots)
    }

    /// Placement is invisible: with the workers' claims natural, reversed
    /// (the last job of every wave starts first) or with the calling
    /// thread stalled until the helpers claimed half of each wave, every
    /// report, the event listing and the snapshot bytes equal the inline
    /// one-worker run's — through alarms, an empty bin and key churn.
    #[test]
    fn placement_is_invisible() {
        use crate::engine::claim_order::{self, ClaimOrder};
        let want = placement_run(1);
        let surge = &want.0[2 * 6];
        assert!(
            surge.contains("\"delay_alarms\":[{"),
            "the surge bin must raise delay alarms"
        );
        assert!(
            surge.contains("\"forwarding_alarms\":[{"),
            "the surge bin must raise forwarding alarms"
        );
        assert!(want.1.iter().all(|e| e != "[]"), "events must open");
        for order in [
            ClaimOrder::Natural,
            ClaimOrder::Reversed,
            ClaimOrder::Stalled,
        ] {
            for threads in [2usize, 3, 4] {
                let got = claim_order::with(order, || placement_run(threads));
                assert!(got == want, "{order:?} threads={threads}");
            }
        }
    }

    #[test]
    fn drive_exhausts_a_source_in_order() {
        let mut a = analyzer(2);
        let bins: Vec<(BinId, Vec<TracerouteRecord>)> =
            (0..4u64).map(|b| (BinId(b), Vec::new())).collect();
        let mut seen = Vec::new();
        let mut session = a.session(0);
        drive(&mut session, bins.into_iter(), |r| seen.push(r.bin));
        assert_eq!(seen, vec![BinId(0), BinId(1), BinId(2), BinId(3)]);
    }
}
