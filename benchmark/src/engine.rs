//! The write side without a daemon: a closed-loop replay of a
//! [`Stream`] through `Analyzer::session` or `StreamRouter::session`,
//! every report rendered to its final string, plus the single-threaded
//! reference replay the output checks compare against.

use crate::gen::{self, Planted, Stream, WARMUP_BINS};
use crate::trace::Tracer;
use pinpoint_core::aggregate::AsMagnitude;
use pinpoint_core::session::AnalysisSession;
use pinpoint_core::{
    render, Analyzer, BinReport, DetectorConfig, FleetReport, IngestStats, StreamRouter,
};
use pinpoint_model::json::Value;
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::{Asn, BinId};
use pinpoint_service::{Daemon, ReportHook, ServiceConfig};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Reports from bin 0 on that every run keeps as strings: the warm-up
/// bins plus the first 40 timed ones.
pub const KEPT_REPORTS: u64 = WARMUP_BINS + 40;
/// Bins the reference replay covers: past the first planted delay shift
/// (47–49) and the first planted flip (56–59).
pub const REFERENCE_BINS: u64 = 64;

/// What the checks need to know about one report.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// The bin the report is for.
    pub bin: u64,
    /// Records the report consumed.
    pub records: usize,
    /// Delay alarms, over all members.
    pub delay_alarms: usize,
    /// Forwarding alarms, over all members.
    pub forwarding_alarms: usize,
}

/// A solo analyzer or a fleet, behind the one face the benchmark drives.
/// Both run on `DetectorConfig::default()` unless a caller pins the
/// thread count for the reference replay.
pub trait Kind: 'static {
    /// `Analyzer` or `StreamRouter`.
    type Engine: Send + 'static;
    /// One bin's input as the session borrows it.
    type Input: ?Sized;
    /// One bin's input as a daemon feed owns it.
    type Owned: Send + 'static;
    /// What a bin produces.
    type Report;
    /// The engine's session type.
    type Session<'a>: AnalysisSession<Input = Self::Input, Report = Self::Report>;

    /// A fresh engine over the benchmark's address plan with `members`
    /// streams; `threads` = 0 keeps the default (all cores).
    fn engine(members: usize, threads: usize) -> Self::Engine;
    /// Open a session (`depth` 0 = the engine's default).
    fn session(engine: &mut Self::Engine, depth: usize) -> Self::Session<'_>;
    /// Borrow a bin's feeds as session input.
    fn input(feeds: &[Vec<TracerouteRecord>]) -> &Self::Input;
    /// Clone a bin's feeds for a daemon.
    fn owned(feeds: &[Vec<TracerouteRecord>]) -> Self::Owned;
    /// The report's canonical JSON value.
    fn render(report: &Self::Report) -> Value;
    /// The report's headline counts.
    fn counts(report: &Self::Report) -> Counts;
    /// Per-member reports.
    fn members(report: &Self::Report) -> &[BinReport];
    /// The magnitudes the event extractor sees (fleet-level for a fleet).
    fn magnitudes(report: &Self::Report) -> &BTreeMap<Asn, AsMagnitude>;
    /// Interning counters, summed over members.
    fn ingest_stats(engine: &Self::Engine) -> IngestStats;
    /// The engine's snapshot bytes.
    fn snapshot(engine: &Self::Engine) -> Vec<u8>;
    /// Restore an engine; `true` on success.
    fn restore(bytes: &[u8]) -> bool;
    /// Spawn a daemon over the engine. The reporter hook exists for solo
    /// daemons only; a fleet ignores it.
    fn spawn<F>(
        cfg: ServiceConfig,
        engine: Self::Engine,
        feed: F,
        hook: Option<ReportHook>,
    ) -> std::io::Result<Daemon>
    where
        F: Iterator<Item = (BinId, Self::Owned)> + Send + 'static;
}

fn analyzer(threads: usize) -> Analyzer {
    let cfg = DetectorConfig {
        threads,
        ..DetectorConfig::default()
    };
    let mut analyzer = Analyzer::new(cfg, gen::mapper());
    analyzer.register_ases(gen::plan_ases());
    analyzer
}

/// A solo `Analyzer`.
pub struct Solo;

impl Kind for Solo {
    type Engine = Analyzer;
    type Input = [TracerouteRecord];
    type Owned = Vec<TracerouteRecord>;
    type Report = BinReport;
    type Session<'a> = pinpoint_core::AnalyzerSession<'a>;

    fn engine(members: usize, threads: usize) -> Analyzer {
        assert_eq!(members, 1, "a solo analyzer reads one feed");
        analyzer(threads)
    }
    fn session(engine: &mut Analyzer, depth: usize) -> Self::Session<'_> {
        engine.session(depth)
    }
    fn input(feeds: &[Vec<TracerouteRecord>]) -> &[TracerouteRecord] {
        &feeds[0]
    }
    fn owned(feeds: &[Vec<TracerouteRecord>]) -> Vec<TracerouteRecord> {
        feeds[0].clone()
    }
    fn render(report: &BinReport) -> Value {
        render::bin_report(report)
    }
    fn counts(r: &BinReport) -> Counts {
        Counts {
            bin: r.bin.0,
            records: r.records,
            delay_alarms: r.delay_alarms.len(),
            forwarding_alarms: r.forwarding_alarms.len(),
        }
    }
    fn members(report: &BinReport) -> &[BinReport] {
        std::slice::from_ref(report)
    }
    fn magnitudes(report: &BinReport) -> &BTreeMap<Asn, AsMagnitude> {
        &report.magnitudes
    }
    fn ingest_stats(engine: &Analyzer) -> IngestStats {
        engine.ingest_stats()
    }
    fn snapshot(engine: &Analyzer) -> Vec<u8> {
        engine.snapshot()
    }
    fn restore(bytes: &[u8]) -> bool {
        Analyzer::restore(bytes).is_ok()
    }
    fn spawn<F>(
        cfg: ServiceConfig,
        engine: Analyzer,
        feed: F,
        hook: Option<ReportHook>,
    ) -> std::io::Result<Daemon>
    where
        F: Iterator<Item = (BinId, Self::Owned)> + Send + 'static,
    {
        match hook {
            Some(hook) => Daemon::spawn_with_report_hook(cfg, engine, feed, hook),
            None => Daemon::spawn(cfg, engine, feed),
        }
    }
}

/// A `StreamRouter` fleet.
pub struct Fleet;

impl Kind for Fleet {
    type Engine = StreamRouter;
    type Input = [Vec<TracerouteRecord>];
    type Owned = Vec<Vec<TracerouteRecord>>;
    type Report = FleetReport;
    type Session<'a> = pinpoint_core::FleetSession<'a>;

    fn engine(members: usize, threads: usize) -> StreamRouter {
        let mut router = StreamRouter::new();
        router.set_threads(threads);
        for m in 0..members {
            router.add_stream(format!("stream-{m}"), analyzer(threads));
        }
        router.register_ases(gen::plan_ases());
        router
    }
    fn session(engine: &mut StreamRouter, depth: usize) -> Self::Session<'_> {
        engine.session(depth)
    }
    fn input(feeds: &[Vec<TracerouteRecord>]) -> &[Vec<TracerouteRecord>] {
        feeds
    }
    fn owned(feeds: &[Vec<TracerouteRecord>]) -> Vec<Vec<TracerouteRecord>> {
        feeds.to_vec()
    }
    fn render(report: &FleetReport) -> Value {
        render::fleet_report(report)
    }
    fn counts(r: &FleetReport) -> Counts {
        Counts {
            bin: r.bin.0,
            records: r.records(),
            delay_alarms: r.delay_alarms(),
            forwarding_alarms: r.forwarding_alarms(),
        }
    }
    fn members(report: &FleetReport) -> &[BinReport] {
        &report.streams
    }
    fn magnitudes(report: &FleetReport) -> &BTreeMap<Asn, AsMagnitude> {
        &report.magnitudes
    }
    fn ingest_stats(engine: &StreamRouter) -> IngestStats {
        engine.ingest_stats()
    }
    fn snapshot(engine: &StreamRouter) -> Vec<u8> {
        engine.snapshot()
    }
    fn restore(bytes: &[u8]) -> bool {
        StreamRouter::restore(bytes).is_ok()
    }
    fn spawn<F>(
        cfg: ServiceConfig,
        engine: StreamRouter,
        feed: F,
        _hook: Option<ReportHook>,
    ) -> std::io::Result<Daemon>
    where
        F: Iterator<Item = (BinId, Self::Owned)> + Send + 'static,
    {
        Daemon::spawn_fleet(cfg, engine, feed)
    }
}

/// Planted-anomaly bookkeeping by alarm counts: how many of the planted
/// alarms fired inside the windows, and how many alarms fired outside.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    sides: [Side; 2],
}

#[derive(Debug, Clone, Default)]
struct Side {
    /// Keys the detector watches (links or patterns).
    keys: usize,
    /// Keys anomalous in a window.
    planted: usize,
    expected: u64,
    hit: u64,
    quiet_bins: u64,
    quiet_alarms: u64,
}

/// Lowest accepted share of planted alarms that fire. Frozen from the
/// seed commit, where every seed tried reads 1.0.
pub const MIN_RECALL: f64 = 0.9;
/// Highest accepted alarms per key-bin outside windows. Frozen from the
/// seed commit, where the delay side reads 0 and the forwarding side
/// 0.005–0.008 on every seed tried.
pub const MAX_FALSE_RATE: f64 = 0.01;

impl Tally {
    /// A tally for `stream`'s planted keys.
    pub fn for_stream(stream: &Stream) -> Self {
        let side = |keys, planted| Side {
            keys,
            planted,
            ..Side::default()
        };
        Tally {
            sides: [
                side(stream.links(), stream.planted_links()),
                side(stream.patterns(), stream.planted_patterns()),
            ],
        }
    }

    /// Account one report. Warm-up bins are ignored.
    pub fn observe(&mut self, c: &Counts) {
        if c.bin < WARMUP_BINS {
            return;
        }
        let alarms = [c.delay_alarms, c.forwarding_alarms];
        for (planted, side) in [Planted::Delay, Planted::Flip]
            .into_iter()
            .zip(&mut self.sides)
        {
            let n = alarms[planted as usize];
            if planted.on_at(c.bin) && side.planted > 0 {
                side.expected += side.planted as u64;
                side.hit += n.min(side.planted) as u64;
            } else if !planted.recovering_at(c.bin) {
                side.quiet_bins += 1;
                side.quiet_alarms += n as u64;
            }
        }
    }

    /// `(delay, forwarding)` share of planted alarms that fired; 1 when
    /// none were due.
    pub fn recall(&self) -> [f64; 2] {
        [0, 1].map(|i| {
            let s = &self.sides[i];
            if s.expected == 0 {
                1.0
            } else {
                s.hit as f64 / s.expected as f64
            }
        })
    }

    /// `(delay, forwarding)` alarms per key-bin outside windows. A
    /// detector with no keys of its own is rated per bin.
    pub fn false_rate(&self) -> [f64; 2] {
        [0, 1].map(|i| {
            let s = &self.sides[i];
            s.quiet_alarms as f64 / (s.quiet_bins.max(1) * s.keys.max(1) as u64) as f64
        })
    }

    /// What is out of bounds, if anything.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, name) in ["delay", "forwarding"].into_iter().enumerate() {
            if self.recall()[i] < MIN_RECALL {
                out.push(format!(
                    "{name} recall {:.3} < {MIN_RECALL}",
                    self.recall()[i]
                ));
            }
            if self.false_rate()[i] > MAX_FALSE_RATE {
                out.push(format!(
                    "{name} false-alarm rate {:.4} > {MAX_FALSE_RATE}",
                    self.false_rate()[i]
                ));
            }
        }
        out
    }
}

/// When a run of bins ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many bins.
    Bins(u64),
    /// At the first bin boundary past this much time.
    After(Duration),
}

/// What a write side measured, whatever ran it.
#[derive(Debug, Default)]
pub struct WriteSide {
    /// `(seconds since the side began, records)` per completed bin.
    pub completions: Vec<(f64, f64)>,
    /// Bin handed over (its due time when paced) → its report rendered
    /// (replay) or visible (daemon).
    pub publish_ms: Vec<f64>,
    /// How late each paced bin was handed over, in ms (empty if not paced).
    pub late_ms: Vec<f64>,
    /// Bins handed over.
    pub attempted: u64,
    /// Bins whose report was missing, out of order, or for another bin.
    pub failed: u64,
    /// Wall seconds of the side.
    pub wall_s: f64,
}

impl WriteSide {
    /// Fold another run of the same side into this one. Completion times
    /// continue after this side's wall time.
    pub fn extend(&mut self, other: WriteSide) {
        let offset = self.wall_s;
        self.completions
            .extend(other.completions.into_iter().map(|(t, r)| (t + offset, r)));
        self.publish_ms.extend(other.publish_ms);
        self.late_ms.extend(other.late_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
    }
}

/// Receives every rendered report of a run, in bin order.
pub struct Sink {
    /// The first [`KEPT_REPORTS`] bodies from bin 0.
    pub kept: Vec<String>,
    /// Planted-anomaly bookkeeping.
    pub tally: Tally,
    /// Bytes rendered.
    pub bytes: u64,
}

impl Sink {
    /// An empty sink for `stream`.
    pub fn for_stream(stream: &Stream) -> Self {
        Sink {
            kept: Vec::new(),
            tally: Tally::for_stream(stream),
            bytes: 0,
        }
    }

    fn accept(&mut self, counts: &Counts, body: String) {
        self.tally.observe(counts);
        self.bytes += body.len() as u64;
        if counts.bin < KEPT_REPORTS && counts.bin == self.kept.len() as u64 {
            self.kept.push(body);
        } else {
            std::hint::black_box(body);
        }
    }
}

/// Replay: push bins `first..` of `stream` through `session` until
/// `stop`, rendering every report to its final string.
///
/// Without a `pace` the loop is closed: the next bin is pushed the moment
/// the previous push returned and the report it released was rendered.
/// With `pace = Some(interval)` it is open: bin `first + k` is due at
/// `k × interval` whatever the engine does, is pushed no earlier, and its
/// latency counts from the due time, so a bin that had to wait for the
/// one before it is charged the wait.
pub fn replay<K: Kind>(
    session: &mut K::Session<'_>,
    stream: &mut Stream,
    first: u64,
    stop: Stop,
    pace: Option<Duration>,
    sink: &mut Sink,
    tracer: &mut Tracer,
) -> WriteSide {
    let began = Instant::now();
    let mut side = WriteSide::default();
    // (bin, push start, records, root span) of bins not yet reported.
    let mut pending = VecDeque::new();
    let mut finish = |report: K::Report,
                      pending: &mut VecDeque<(u64, Instant, usize, Option<u32>)>,
                      side: &mut WriteSide,
                      tracer: &mut Tracer| {
        let counts = K::counts(&report);
        let (bin, pushed, records, root) =
            pending.pop_front().expect("a report without a pushed bin");
        let (value, _) = tracer.time("core.render.build", bin, root, || K::render(&report));
        let (body, _) = tracer.time("model.json.write", bin, root, || value.to_string());
        let done = Instant::now();
        tracer.close(root, done);
        if counts.bin != bin || counts.records != records {
            side.failed += 1;
        }
        side.publish_ms.push((done - pushed).as_secs_f64() * 1e3);
        side.completions
            .push(((done - began).as_secs_f64(), records as f64));
        sink.accept(&counts, body);
    };
    let mut bin = first;
    loop {
        let due = pace.map(|interval| began + interval * (bin - first) as u32);
        let done = match stop {
            Stop::Bins(n) => bin - first >= n,
            Stop::After(d) => due.unwrap_or_else(Instant::now) >= began + d,
        };
        if done {
            break;
        }
        let feeds = stream.bin(bin);
        let records = feeds.iter().map(Vec::len).sum();
        let pushed = match due {
            Some(due) => {
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                side.late_ms
                    .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                due
            }
            None => Instant::now(),
        };
        let root = tracer.open("bench.bin", bin, None, pushed);
        pending.push_back((bin, pushed, records, root));
        let (report, _) = tracer.time("core.session.push_bin", bin, root, || {
            session.push_bin(BinId(bin), K::input(feeds))
        });
        side.attempted += 1;
        if let Some(report) = report {
            finish(report, &mut pending, &mut side, tracer);
        }
        bin += 1;
    }
    if let Some(report) = session.flush() {
        finish(report, &mut pending, &mut side, tracer);
    }
    side.failed += pending.len() as u64;
    side.wall_s = began.elapsed().as_secs_f64();
    side
}

/// The reference replay: bins `0..bins` on one thread at pipeline
/// depth 1.
pub struct Reference<K: Kind> {
    /// Rendered bodies from bin 0.
    pub bodies: Vec<String>,
    /// The reports behind them.
    pub reports: Vec<K::Report>,
    /// The engine after the last bin.
    pub engine: K::Engine,
}

/// Replay bins `0..bins` of `stream` with `threads = 1, pipeline_depth =
/// 1`. By the determinism contract every other schedule must render the
/// same bytes.
pub fn reference<K: Kind>(stream: &mut Stream, bins: u64) -> Reference<K> {
    let mut engine = K::engine(stream.members(), 1);
    let mut bodies = Vec::new();
    let mut reports = Vec::new();
    {
        let mut session = K::session(&mut engine, 1);
        for bin in 0..bins {
            let report = session
                .push_bin(BinId(bin), K::input(stream.bin(bin)))
                .expect("a depth-1 session reports at once");
            bodies.push(K::render(&report).to_string());
            reports.push(report);
        }
    }
    Reference {
        bodies,
        reports,
        engine,
    }
}

/// Index of the first body that differs from the reference, if any.
/// `bodies[0]` is the report of bin `first`.
pub fn first_mismatch(reference: &[String], bodies: &[impl AsRef<str>], first: u64) -> Option<u64> {
    bodies
        .iter()
        .zip(&reference[first as usize..])
        .position(|(got, want)| got.as_ref() != want)
        .map(|i| first + i as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(bin: u64, delay: usize, fwd: usize) -> Counts {
        Counts {
            bin,
            records: 0,
            delay_alarms: delay,
            forwarding_alarms: fwd,
        }
    }

    #[test]
    fn tally_rates_windows_and_quiet_bins_apart() {
        let mut t = Tally {
            sides: [
                Side {
                    keys: 100,
                    planted: 10,
                    ..Side::default()
                },
                Side {
                    keys: 0,
                    planted: 0,
                    ..Side::default()
                },
            ],
        };
        t.observe(&counts(3, 50, 50)); // warm-up: ignored
        t.observe(&counts(46, 1, 0)); // quiet
        t.observe(&counts(47, 9, 0)); // window: 9 of 10
        t.observe(&counts(48, 30, 0)); // window: capped at 10
        t.observe(&counts(49, 10, 0));
        t.observe(&counts(50, 10, 0)); // recovery: ignored
        t.observe(&counts(51, 0, 0)); // quiet
        assert_eq!(t.recall(), [29.0 / 30.0, 1.0]);
        assert_eq!(t.false_rate()[0], 1.0 / 200.0);
        assert!(t.failures().is_empty());
        t.observe(&counts(52, 0, 1)); // a detector with no keys alarms
        assert_eq!(t.failures().len(), 1);
    }

    #[test]
    fn a_paced_replay_waits_for_due_times_and_counts_from_them() {
        use crate::gen::{DelaySpec, StreamSpec};
        let spec = StreamSpec {
            delay: Some(DelaySpec { pairs: 2 }),
            ..StreamSpec::default()
        };
        let mut stream = Stream::generate(spec, 1, 7);
        let mut engine = Solo::engine(1, 1);
        let mut session = Solo::session(&mut engine, 1);
        let mut sink = Sink::for_stream(&stream);
        let mut quiet = Tracer::new(false, Instant::now(), 0);
        let pace = Duration::from_millis(15);
        let paced = replay::<Solo>(
            &mut session,
            &mut stream,
            0,
            Stop::Bins(4),
            Some(pace),
            &mut sink,
            &mut quiet,
        );
        assert_eq!((paced.attempted, paced.failed), (4, 0));
        assert_eq!(paced.late_ms.len(), 4);
        // Bin 3 is due 45 ms in, and a depth-1 session reports at once:
        // a tiny bin's latency from its due time is far below the pace.
        assert!(paced.wall_s >= 0.045, "{}", paced.wall_s);
        assert!(paced.publish_ms.iter().all(|ms| *ms < 15.0), "{paced:?}");
        let closed = replay::<Solo>(
            &mut session,
            &mut stream,
            4,
            Stop::Bins(4),
            None,
            &mut sink,
            &mut quiet,
        );
        assert!(closed.late_ms.is_empty());
        assert!(closed.wall_s < paced.wall_s);
    }

    #[test]
    fn mismatch_is_reported_by_bin() {
        let reference: Vec<String> = ["a", "b", "c", "d"].map(String::from).to_vec();
        assert_eq!(first_mismatch(&reference, &["c", "d"], 2), None);
        assert_eq!(first_mismatch(&reference, &["b", "x"], 1), Some(2));
    }
}
