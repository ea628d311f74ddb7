//! The bin schedule: one executor, one session API.
//!
//! The §8 deployment is one loop — consume the stream bin by bin, keep
//! references, emit reports — and this module is the only place that
//! loop's schedule is written. [`Session`] runs consecutive bins over an
//! [`AnalyzerSet`]: a set of member [`Analyzer`]s plus a reduce step. A
//! solo [`Analyzer`] is a set of one with the identity reduce; a
//! [`StreamRouter`] is its streams with the fleet merge. One stream and
//! many streams therefore reach the report funnel through the same code,
//! at every depth.
//!
//! * [`AnalysisSession`] — one open-ended run over consecutive bins.
//!   [`AnalysisSession::push_bin`] feeds a whole bin at once (zero-copy);
//!   `begin_bin` / `ingest` / `finish_bin` stage a bin's slices in a
//!   reused buffer as they arrive and push it on `finish_bin`;
//!   [`AnalysisSession::flush`] drains whatever the executor still
//!   holds. Reports come back **strictly in bin order**, but possibly
//!   delayed: at pipeline depth 2 each push returns the *previous* bin's
//!   report and `flush` returns the last one. Depth-1 sessions return
//!   every report immediately and `flush` returns `None`. Consumers that
//!   handle the `Option` uniformly are automatically correct at every
//!   depth — that is the point of the trait.
//! * [`BinSource`] — anything that yields `(BinId, feed)` pairs in
//!   increasing bin order. Every `Iterator<Item = (BinId, F)>` is a
//!   `BinSource` for free, so `platform.stream(..)`, a `Vec` of
//!   pre-collected bins, or a channel-draining adapter all plug in
//!   unchanged.
//!
//! [`drive`] connects the two: it exhausts a source through a session
//! and hands every report to an observer, which is the whole run loop of
//! `scenarios::run_pipelined`; the live service's executor thread is the
//! same loop over its collect queue.
//!
//! [`AnalyzerSession`] (from [`Analyzer::session`]) and [`FleetSession`]
//! (from [`StreamRouter::session`]) are aliases of [`Session`]. `depth`
//! `0` resolves to the engine default (2), `1` is the strictly serial
//! schedule, deeper clamps to 2, and a one-worker herd always runs
//! serially (`engine::resolve_schedule`). For a fixed record sequence the
//! emitted reports are byte-identical across every depth, thread count,
//! and chunk size.

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

    /// Open the next bin for incremental ingestion.
    ///
    /// # Panics
    /// When a bin is already open, or `bin` does not increase.
    fn begin_bin(&mut self, bin: BinId);

    /// Feed one slice of the open bin's records, in arrival order.
    ///
    /// # Panics
    /// Without an open bin.
    fn ingest(&mut self, input: &Self::Input);

    /// Close the open bin. Returns the next in-order report — the closed
    /// bin's at depth 1, the *previous* bin's at depth 2 (`None` until
    /// the pipeline has filled).
    ///
    /// # Panics
    /// Without an open bin.
    fn finish_bin(&mut self) -> Option<Self::Report>;

    /// Feed one whole bin at once. Equivalent to `begin_bin` + `ingest` +
    /// `finish_bin` but zero-copy: the input slice goes straight to the
    /// executor without touching the session's staging buffer.
    ///
    /// # Panics
    /// When a bin is open, or `bin` does not increase.
    fn push_bin(&mut self, bin: BinId, input: &Self::Input) -> Option<Self::Report>;

    /// Drain the executor: the in-flight bin's report at depth 2, `None`
    /// at depth 1 (every report was already returned). Idempotent.
    ///
    /// # Panics
    /// When a bin is still open.
    fn flush(&mut self) -> Option<Self::Report>;

    /// The resolved pipeline depth (1 or 2): how many bins may be in
    /// flight, and therefore how far reports trail pushes.
    fn depth(&self) -> usize;

    /// The event channel's cumulative view: every event the run has
    /// extracted so far (open and closed), ranked by merged severity.
    /// Per-bin deltas ride on the reports
    /// ([`BinReport::events`](crate::pipeline::BinReport::events) /
    /// [`FleetReport::events`](crate::stream::FleetReport::events));
    /// this reads the same state between bins, e.g. for a final
    /// listing. Reflects only *reported* bins — at depth 2, a
    /// pushed-but-unreported bin is not yet visible.
    fn events(&self) -> Vec<FleetEvent>;

    /// Drain the executor and serialize the run's complete resumable
    /// state: returns the flushed in-flight report (if the pipeline held
    /// one — hand it to the observer like any other) and the snapshot
    /// bytes ([`Analyzer::snapshot`] / [`StreamRouter::snapshot`]
    /// layout). Draining inserts one pipeline bubble at depth 2, exactly
    /// like the epoch fence, and is invisible in report bytes — so a
    /// checkpoint cadence never voids the determinism contract. The
    /// session keeps running afterwards; the pipeline refills on the
    /// next push.
    ///
    /// # Panics
    /// When a bin is still open (`finish_bin` first).
    fn checkpoint(&mut self) -> (Option<Self::Report>, Vec<u8>);
}

/// Exhaust a [`BinSource`] through an [`AnalysisSession`], handing every
/// report to `observer` strictly in bin order (including the flushed
/// tail). This is the canonical run loop — `scenarios::run_pipelined`
/// and the service's executor thread are both this shape.
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
    if let Some(report) = session.flush() {
        observer(report);
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
    /// set's report. This is the single funnel every schedule flows
    /// through, so anything stateful here (fleet magnitudes, the fleet
    /// event channel) is deterministic by construction.
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

/// One bin in flight: scattered and merged, its shard wave not yet run.
struct Pending {
    bin: BinId,
    /// Each member's record count (reported on its `BinReport`).
    records: Vec<usize>,
}

/// The bin executor and the [`AnalysisSession`] in front of it (create
/// with [`Analyzer::session`] / [`StreamRouter::session`]).
///
/// A pushed bin is *opened* — every member's scatter chunks run as one
/// wave, followed by the members' sequential chunk-ordered intern merges
/// — and then *analyzed*: every member's delay and forwarding shard jobs
/// run as one wave, the members stamp and aggregate in member order, and
/// the set reduces their reports. At depth 1 both steps happen inside the
/// push. At depth 2 the session keeps one bin in flight: its shard wave
/// runs *inside the next push*, overlapped with that push's scatter
/// chunks as one two-lane engine wave, so a push returns the report of
/// the **previous** bin (`None` for the very first) and
/// [`AnalysisSession::flush`] returns the last one — reports always
/// emerge strictly in bin order.
///
/// Two serial fences keep the overlap byte-identical to the serial
/// schedule:
///
/// * **The merge fence.** Intern epochs only advance in the sequential
///   merge after each wave, in bin order; shard jobs never write the
///   epoch tables (observed keys are stamped after the wave). Scatter
///   output depends only on `(records, tables at bin open)`, and the
///   tables a bin opens against are identical under either schedule —
///   so id assignment, and with it every report byte, cannot change.
/// * **The epoch fence.** A compaction sweep renumbers dense ids, so it
///   may only run when no bin's rows are in flight: when any member's
///   interned key is overdue (unseen past `reference_expiry_bins + 1` —
///   expired even if the still-unstamped pending bin observed it), the
///   session drains the pending bin first, sweeps every member, and
///   refills the pipeline — one bubble per sweep, only when something is
///   genuinely dead, and no member ever renumbers ids under in-flight
///   rows. The same keys get evicted as under the serial schedule, at
///   most one bin later; invisible in reports, since dense ids never
///   reach them.
///
/// Dropping the session without [`AnalysisSession::flush`] abandons the
/// in-flight bin: its shard wave never runs, so it produces no report
/// and never touches the detectors' references (only its keys were
/// interned — harmless, and compacted away like any unused key).
pub struct Session<'a, S: AnalyzerSet> {
    set: &'a mut S,
    depth: usize,
    /// Resolved worker count of the shared herd.
    threads: usize,
    pending: Option<Pending>,
    /// Last bin pushed — enforces the increasing-order contract at every
    /// depth (`pending` alone goes `None` at depth 1 and after a drain).
    last: Option<BinId>,
    /// The incrementally-open bin, if any.
    open: Option<BinId>,
    /// Per-member staging buffers for incremental ingestion (sized at
    /// the first `begin_bin`, reused across bins; never allocated in
    /// pure `push_bin` use).
    buffers: Vec<Vec<TracerouteRecord>>,
}

/// A solo-analyzer session (create with [`Analyzer::session`]).
pub type AnalyzerSession<'a> = Session<'a, Analyzer>;

/// A fleet session over a [`StreamRouter`] (create with
/// [`StreamRouter::session`]): input is one feed per stream, index =
/// [`crate::stream::StreamId`]; reports are merged
/// [`FleetReport`](crate::stream::FleetReport)s.
pub type FleetSession<'a> = Session<'a, StreamRouter>;

impl<'a, S: AnalyzerSet> Session<'a, S> {
    /// A session over `set` at pipeline `depth` (`0` = engine default).
    pub fn new(set: &'a mut S, depth: usize) -> Self {
        let threads = engine::resolve_threads(set.threads());
        Session {
            set,
            depth: engine::resolve_schedule(depth, threads),
            threads,
            pending: None,
            last: None,
            open: None,
            buffers: Vec::new(),
        }
    }

    /// The underlying set — its cumulative counters
    /// ([`AnalyzerSet::ingest_stats`] / [`AnalyzerSet::sanitize_stats`])
    /// stay readable while bins are in flight, which is how the live
    /// service's `/stats` endpoint reads them.
    pub fn inner(&self) -> &S {
        self.set
    }

    fn assert_increasing(&self, bin: BinId) {
        if let Some(last) = self.last {
            assert!(
                bin.0 > last.0,
                "bins must be fed in increasing order ({bin:?} after {last:?})"
            );
        }
    }

    /// The schedule: one bin in, the next in-order report out.
    fn push(&mut self, bin: BinId, feeds: &[&[TracerouteRecord]]) -> Option<S::Report> {
        self.assert_increasing(bin);
        self.last = Some(bin);
        let drained = match self.pending.take() {
            Some(pending) if !self.set.members().iter().any(|a| a.needs_compaction(bin)) => {
                // Steady state: the pending bin's shard jobs and this
                // bin's scatter chunks run as one two-lane wave on one
                // worker herd; then the merge fence for this bin.
                let report = self.analyze(&pending, Some(feeds));
                self.merge_fence(bin, feeds);
                return Some(report);
            }
            // Nothing in flight, or the epoch fence (see the type docs):
            // drain before sweeping.
            pending => pending.map(|pending| self.analyze(&pending, None)),
        };
        // A drained gap — no bin's rows in flight — so the compaction
        // sweep may renumber dense ids; then scatter + merge this bin.
        {
            let mut members = self.set.members();
            let mut wave = engine::Wave::new();
            for (analyzer, records) in members.iter_mut().zip(feeds) {
                analyzer.compact_epochs(bin);
                wave.push_scatter(analyzer.open_scatter(records, self.threads));
            }
            wave.run(self.threads);
        }
        self.merge_fence(bin, feeds);
        if self.depth == 1 {
            // Serial schedule: nothing stays in flight.
            self.drain()
        } else {
            drained
        }
    }

    /// The merge fence: every member's sequential chunk-ordered intern
    /// merge for the just-scattered `bin`, in member order, leaving the
    /// bin pending.
    fn merge_fence(&mut self, bin: BinId, feeds: &[&[TracerouteRecord]]) {
        for analyzer in self.set.members() {
            analyzer.merge_scatter(bin);
        }
        self.pending = Some(Pending {
            bin,
            records: feeds.iter().map(|records| records.len()).collect(),
        });
    }

    /// Run the pending bin's shard wave — alone (a drain), or with the
    /// `next` bin's scatter chunks in the wave's scatter lane (the
    /// depth-2 overlap) — then the post-wave fences: members stamp and
    /// aggregate in member order, and the set reduces their reports.
    fn analyze(&mut self, pending: &Pending, next: Option<&[&[TracerouteRecord]]>) -> S::Report {
        let threads = self.threads;
        let reports = {
            let mut members = self.set.members();
            let staged: Vec<_> = {
                let mut stages = Vec::with_capacity(members.len());
                let mut wave = engine::Wave::new();
                match next {
                    None => {
                        for analyzer in members.iter_mut() {
                            stages.push(analyzer.stage(pending.bin, threads));
                        }
                    }
                    Some(feeds) => {
                        for (analyzer, records) in members.iter_mut().zip(feeds) {
                            let (stage, scatter) =
                                analyzer.overlap_wave(pending.bin, records, threads);
                            wave.push_scatter(scatter);
                            stages.push(stage);
                        }
                    }
                }
                for stage in &mut stages {
                    wave.push_analysis(stage.jobs());
                }
                wave.run(threads);
                stages.into_iter().map(AnalyzerStage::finish).collect()
            };
            members
                .iter_mut()
                .zip(&pending.records)
                .zip(staged)
                .map(|((analyzer, &records), staged)| analyzer.absorb(pending.bin, records, staged))
                .collect()
        };
        self.set.reduce(pending.bin, reports)
    }

    /// Analyze the in-flight bin, if any, on its own.
    fn drain(&mut self) -> Option<S::Report> {
        let pending = self.pending.take()?;
        Some(self.analyze(&pending, None))
    }
}

impl<S: AnalyzerSet> AnalysisSession for Session<'_, S> {
    type Input = S::Input;
    type Report = S::Report;

    fn begin_bin(&mut self, bin: BinId) {
        assert!(
            self.open.is_none(),
            "begin_bin called while a bin is already open (finish_bin first)"
        );
        self.assert_increasing(bin);
        self.open = Some(bin);
        let members = self.set.members().len();
        self.buffers.resize_with(members, Vec::new);
    }

    fn ingest(&mut self, input: &S::Input) {
        assert!(self.open.is_some(), "ingest called without begin_bin");
        for (buffer, feed) in self.buffers.iter_mut().zip(self.set.feeds(input)) {
            buffer.extend_from_slice(feed);
        }
    }

    fn finish_bin(&mut self) -> Option<S::Report> {
        let bin = self
            .open
            .take()
            .expect("finish_bin called without begin_bin");
        let mut buffers = std::mem::take(&mut self.buffers);
        let feeds: Vec<&[TracerouteRecord]> = buffers.iter().map(Vec::as_slice).collect();
        let report = self.push(bin, &feeds);
        for buffer in &mut buffers {
            buffer.clear();
        }
        self.buffers = buffers;
        report
    }

    fn push_bin(&mut self, bin: BinId, input: &S::Input) -> Option<S::Report> {
        assert!(
            self.open.is_none(),
            "push_bin called while a bin is open (finish_bin first)"
        );
        let feeds = self.set.feeds(input);
        self.push(bin, &feeds)
    }

    fn flush(&mut self) -> Option<S::Report> {
        assert!(
            self.open.is_none(),
            "flush called while a bin is open (finish_bin first)"
        );
        self.drain()
    }

    fn depth(&self) -> usize {
        self.depth
    }

    fn events(&self) -> Vec<FleetEvent> {
        self.set.events()
    }

    fn checkpoint(&mut self) -> (Option<S::Report>, Vec<u8>) {
        let report = self.flush();
        (report, self.set.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AsMapper;
    use crate::config::DetectorConfig;

    fn analyzer() -> Analyzer {
        Analyzer::new(DetectorConfig::fast_test(), AsMapper::new())
    }

    /// An analyzer whose herd has two workers — required by every test
    /// that exercises depth-2 cadence, because a one-worker herd
    /// collapses the overlapped schedule to serial
    /// (`engine::resolve_schedule`), regardless of the host's core count.
    fn pipelined_analyzer() -> Analyzer {
        let mut cfg = DetectorConfig::fast_test();
        cfg.threads = 2;
        Analyzer::new(cfg, AsMapper::new())
    }

    #[test]
    fn depth_resolution_defaults_and_clamps() {
        let mut a = pipelined_analyzer();
        assert_eq!(a.session(1).depth(), 1);
        let mut a = pipelined_analyzer();
        assert_eq!(a.session(2).depth(), 2);
        let mut a = pipelined_analyzer();
        assert_eq!(a.session(7).depth(), 2, "deeper than 2 clamps");
        let mut a = pipelined_analyzer();
        assert_eq!(a.session(0).depth(), 2, "0 falls through to the default");
    }

    #[test]
    fn one_worker_session_collapses_to_serial() {
        let mut cfg = DetectorConfig::fast_test();
        cfg.threads = 1;
        let mut a = Analyzer::new(cfg, AsMapper::new());
        let mut session = a.session(2);
        assert_eq!(session.depth(), 1, "one worker has nothing to overlap");
        // Serial cadence: every push reports its own bin immediately.
        let report = session
            .push_bin(BinId(0), &[])
            .expect("serial schedule reports immediately");
        assert_eq!(report.bin, BinId(0));
        assert!(session.flush().is_none());
    }

    #[test]
    fn serial_session_reports_every_bin_immediately() {
        let mut a = analyzer();
        let mut session = a.session(1);
        for bin in 0..3u64 {
            let report = session
                .push_bin(BinId(bin), &[])
                .expect("depth 1 is immediate");
            assert_eq!(report.bin, BinId(bin));
        }
        assert!(session.flush().is_none());
    }

    #[test]
    fn pipelined_session_trails_one_bin_and_flushes_the_tail() {
        let mut a = pipelined_analyzer();
        let mut session = a.session(2);
        assert!(session.push_bin(BinId(0), &[]).is_none());
        assert_eq!(session.push_bin(BinId(1), &[]).unwrap().bin, BinId(0));
        assert_eq!(session.flush().unwrap().bin, BinId(1));
        assert!(session.flush().is_none(), "flush is idempotent");
    }

    #[test]
    fn incremental_slices_and_drive_agree_on_report_order() {
        let mut a = pipelined_analyzer();
        let mut session = a.session(2);
        session.begin_bin(BinId(0));
        session.ingest(&[]);
        session.ingest(&[]);
        assert!(session.finish_bin().is_none());
        assert_eq!(session.push_bin(BinId(1), &[]).unwrap().bin, BinId(0));
    }

    #[test]
    fn drive_exhausts_a_source_in_order() {
        let mut a = pipelined_analyzer();
        let bins: Vec<(BinId, Vec<TracerouteRecord>)> =
            (0..4u64).map(|b| (BinId(b), Vec::new())).collect();
        let mut seen = Vec::new();
        let mut session = a.session(2);
        drive(&mut session, bins.into_iter(), |r| seen.push(r.bin));
        assert_eq!(seen, vec![BinId(0), BinId(1), BinId(2), BinId(3)]);
    }

    #[test]
    fn fleet_session_round_trips() {
        let mut router = StreamRouter::new();
        router.add_stream("a", pipelined_analyzer());
        router.add_stream("b", pipelined_analyzer());
        router.set_threads(2);
        let mut session = router.session(2);
        let feeds = vec![Vec::new(), Vec::new()];
        assert!(session.push_bin(BinId(0), &feeds).is_none());
        assert_eq!(session.push_bin(BinId(1), &feeds).unwrap().bin, BinId(0));
        assert_eq!(session.flush().unwrap().bin, BinId(1));
    }

    #[test]
    #[should_panic(expected = "flush called while a bin is open")]
    fn flush_with_open_bin_panics() {
        let mut a = pipelined_analyzer();
        let mut session = a.session(2);
        session.begin_bin(BinId(0));
        session.flush();
    }
}
