//! The four workloads (see `README.md` for why each exists):
//!
//! | workload | write side | read side |
//! |---|---|---|
//! | `replay_delay` | closed-loop solo session, delay-heavy bins | traced run only: closed-loop tail over the replay's first reports |
//! | `replay_fleet_dirty` | closed-loop 3-stream fleet session, dirty forwarding-heavy bins | same tail, fleet bodies |
//! | `live_mixed` | daemon, paced open loop | open-loop reader beside the writes |
//! | `read_heavy` | daemon, paced open loop, nobody reading | closed loop, nobody writing |

use crate::engine::{
    first_mismatch, reference, replay, Counts, Fleet, Kind, Reference, Sink, Solo, Stop, Tally,
    WriteSide, KEPT_REPORTS, REFERENCE_BINS,
};
use crate::gen::{plan_ases, Stream, StreamSpec, WARMUP_BINS};
use crate::http::{closed_loop, open_loop, ReadSide, Sample, Target};
use crate::live::{start, DaemonPlan, Drained, TempDir};
use crate::probes::{self, Values};
use crate::stats::{
    cpu_jiffies, median, peak_rss_mb, percentile, quartiles, segment_percentiles, segment_rates,
    steal_share,
};
use crate::trace::Tracer;
use pinpoint_core::snapshot::crc32;
use pinpoint_model::json;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by the untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("records_per_s", "rec/s"),
    ("publish_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("core.session.push_ms_p50", "ms"),
    ("core.session.push_ms_p99", "ms"),
    ("core.session.depth", "count"),
    ("core.session.serial_ms_per_bin", "ms"),
    ("core.sanitize.ms_per_bin", "ms"),
    ("core.sanitize.quarantined_share", "ratio"),
    ("core.sanitize.repaired_share", "ratio"),
    ("core.diffrtt.ms_per_bin", "ms"),
    ("core.diffrtt.links_per_bin", "count"),
    ("core.diffrtt.alarms_per_bin", "count"),
    ("core.forwarding.ms_per_bin", "ms"),
    ("core.forwarding.patterns_tracked", "count"),
    ("core.forwarding.alarms_per_bin", "count"),
    ("core.ingest.interned", "count"),
    ("core.ingest.inserts_per_bin", "count"),
    ("core.ingest.evictions", "count"),
    ("core.aggregate.observe_ms_per_bin", "ms"),
    ("core.aggregate.event_deltas_per_bin", "count"),
    ("core.aggregate.events_open_peak", "count"),
    ("core.render.build_ms_per_bin", "ms"),
    ("core.render.bytes_per_bin", "B"),
    ("model.json.write_ms_per_bin", "ms"),
    ("model.json.parse_mb_per_s", "MB/s"),
    ("stats.wilson.select_ns_per_sample", "ns"),
    ("stats.radix.sort_ns_per_key", "ns"),
    ("core.snapshot.encode_ms", "ms"),
    ("core.snapshot.bytes", "B"),
    ("core.snapshot.restore_ms", "ms"),
    ("service.checkpoint.save_ms", "ms"),
    ("service.checkpoint.load_ms", "ms"),
    ("service.queue.hop_ns", "ns"),
    ("service.daemon.feed_wait_ms_p50", "ms"),
    ("service.daemon.collect_to_report_ms_p50", "ms"),
    ("service.daemon.render_publish_ms_p50", "ms"),
    ("service.daemon.internal_latency_ms_mean", "ms"),
    ("service.daemon.queue_peak_collect", "count"),
    ("service.daemon.queue_peak_report", "count"),
    ("service.daemon.overhead_ms_per_bin", "ms"),
    ("service.state.report_lookup_ns", "ns"),
    ("service.state.bins_json_ms", "ms"),
    ("service.state.health_json_us", "us"),
    ("service.http.report.ms_p50", "ms"),
    ("service.http.bin_events.ms_p50", "ms"),
    ("service.http.graph.ms_p50", "ms"),
    ("service.http.events.ms_p50", "ms"),
    ("service.http.bins.ms_p50", "ms"),
    ("service.http.timeline.ms_p50", "ms"),
    ("service.http.health.ms_p50", "ms"),
    ("service.http.connect_us_p50", "us"),
    ("service.http.ttfb_us_p50", "us"),
    ("service.http.bytes_per_req", "B"),
    ("service.http.status_other", "count"),
    ("bench.feed.late_ms_p99", "ms"),
    ("bench.reader.late_ms_p99", "ms"),
    ("bench.trace.overhead_share", "ratio"),
    ("bench.trace.spans", "count"),
    ("bench.inputs_mb", "MB"),
    ("bench.write.bins", "count"),
    ("bench.write.records_per_s", "rec/s"),
    ("bench.read.requests", "count"),
    ("bench.read.req_per_s", "req/s"),
    ("bench.read.ms_p50", "ms"),
    ("bench.read.ms_p99", "ms"),
    ("bench.publish_ms_p90", "ms"),
    ("bench.failed_share", "ratio"),
    ("bench.peak_rss_mb", "MB"),
    ("bench.host.steal_share", "ratio"),
];

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "replay_delay",
    "replay_fleet_dirty",
    "live_mixed",
    "read_heavy",
];

/// What the command line asked for.
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

/// What a run produced.
pub struct Outcome {
    /// Every metric of the run's mode by name.
    pub values: Values,
    /// Further lines for the reader: digests, sizes, quartiles, counts.
    pub notes: Vec<String>,
    /// Operations attempted: bins handed over plus requests sent.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// The run's spans.
    pub tracer: Tracer,
    /// The machine's CPU counters when the run began.
    jiffies: Option<(u64, u64)>,
}

/// Times set-up is repeated in an untraced run; `setup_s` is the median.
const SETUPS: usize = 3;
/// Equal consecutive segments a throughput is the median of.
const SEGMENTS: usize = 10;
/// Closed-loop reader threads.
const READ_CLIENTS: u32 = 2;
/// A paced daemon is fed one bin per interval; the reader beside it in
/// `live_mixed` sends requests `READ_INTERVAL` apart on average (200 req/s).
const BIN_INTERVAL: Duration = Duration::from_millis(40);
/// The paced half of `replay_fleet_dirty`: a fleet bin takes three times
/// a solo bin, so it is paced at two and a half times the interval.
const FLEET_INTERVAL: Duration = Duration::from_millis(100);
const READ_INTERVAL: Duration = Duration::from_millis(5);
/// A paced run whose feed left later than this at the 99th percentile
/// is flagged: it measured the generator's scheduling, not the daemon.
const MAX_FEED_LATE_MS: f64 = 5.0;
/// Bins `read_heavy` publishes before it reads (~28 MB of cached bodies).
const FILL_BINS: u64 = 160;
/// Bins a saturated daemon (traced `live_mixed` only) takes to fill its
/// queues; its throughput is read after them.
const QUEUE_FILL_BINS: usize = 16;
/// A traced replay writes for this share of the time, in alternating
/// blocks of this many bins with spans off and on.
const TRACED_WRITE_SHARE: f64 = 0.6;
const TRACE_BLOCK_BINS: u64 = 8;

fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    match quartiles(samples) {
        Some([lo, mid, hi]) if samples.len() <= 12 => {
            let all: Vec<String> = samples.iter().map(|v| format!("{v:.3}")).collect();
            format!(
                "{name} {unit} p25={lo:.3} p50={mid:.3} p75={hi:.3} n={} [{}]",
                samples.len(),
                all.join(" ")
            )
        }
        Some([lo, mid, hi]) => format!(
            "{name} {unit} p25={lo:.3} p50={mid:.3} p75={hi:.3} n={}",
            samples.len()
        ),
        None => format!("{name} {unit} n=0"),
    }
}

/// Throughput segments of a write side, skipping its first `skip` bins.
fn write_rates(side: &WriteSide, skip: usize, segments: usize) -> Vec<f64> {
    let Some(steady) = side.completions.get(skip..) else {
        return Vec::new();
    };
    let origin = if skip == 0 {
        0.0
    } else {
        side.completions[skip - 1].0
    };
    let shifted: Vec<_> = steady.iter().map(|(t, r)| (t - origin, *r)).collect();
    segment_rates(&shifted, segments)
}

/// A read side's samples in completion order.
fn in_time_order(reads: &ReadSide) -> Vec<Sample> {
    let mut samples = reads.samples.clone();
    samples.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    samples
}

fn digest(bodies: &[&str]) -> u32 {
    bodies
        .iter()
        .fold(0, |acc: u32, b| acc.rotate_left(1) ^ crc32(b.as_bytes()))
}

impl Outcome {
    fn new(tracer: Tracer) -> Self {
        Outcome {
            values: Values::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            tracer,
            jiffies: cpu_jiffies(),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    fn count(&mut self, write: &WriteSide, reads: &ReadSide) {
        self.attempted += write.attempted + reads.samples.len() as u64;
        self.failed += write.failed + reads.failed();
    }

    /// The first kept bodies and the tally against what must hold for
    /// every run of the seed.
    fn check_outputs(
        &mut self,
        what: &str,
        bodies: &[&str],
        first: u64,
        reference: &[String],
        tally: &Tally,
    ) {
        self.check(!bodies.is_empty(), || {
            format!("{what}: no report to compare")
        });
        if let Some(bin) = first_mismatch(reference, bodies, first) {
            self.check(false, || {
                format!("{what}: report of bin {bin} differs from the threads=1, depth=1 replay")
            });
        }
        for failure in tally.failures() {
            self.check(false, || format!("{what}: {failure}"));
        }
        let (recall, quiet) = (tally.recall(), tally.false_rate());
        self.notes.push(format!(
            "{what}: report_digest {:08x} over bins {first}..{} recall delay={:.3} forwarding={:.3} false_rate delay={:.5} forwarding={:.5}",
            digest(bodies),
            first + bodies.len() as u64,
            recall[0],
            recall[1],
            quiet[0],
            quiet[1]
        ));
    }

    /// A drained daemon's cache against the reference replay, its bin
    /// listing against the planted schedule.
    fn check_daemon(
        &mut self,
        what: &str,
        drained: &Drained,
        stream: &Stream,
        reference: &[String],
    ) {
        let state = drained.daemon.state();
        let upto = drained.bins.end.min(KEPT_REPORTS).max(drained.bins.start);
        let cached: Vec<_> = (drained.bins.start..upto)
            .filter_map(|b| state.report(b))
            .collect();
        self.check(cached.len() as u64 == upto - drained.bins.start, || {
            format!("{what}: a fed bin has no cached report")
        });
        let mut tally = Tally::for_stream(stream);
        let listing = json::parse(&state.bins_json()).expect("/bins is JSON");
        for row in listing
            .get("bins")
            .and_then(|b| b.as_array())
            .unwrap_or(&[])
        {
            let field = |name| row.get(name).and_then(|v| v.as_u64()).unwrap_or(u64::MAX);
            tally.observe(&Counts {
                bin: field("bin"),
                records: field("records") as usize,
                delay_alarms: field("delay_alarms") as usize,
                forwarding_alarms: field("forwarding_alarms") as usize,
            });
        }
        let bodies: Vec<&str> = cached.iter().map(|b| b.as_str()).collect();
        self.check_outputs(what, &bodies, drained.bins.start, reference, &tally);
    }

    /// The gated metrics. Throughputs are the median over [`SEGMENTS`]
    /// equal consecutive segments of the run; so are the percentiles,
    /// each taken within a segment, so that a burst of outside noise does
    /// not move them. What the run measured beside them goes to the
    /// notes.
    fn end_to_end(&mut self, setups: &[f64], rates: &[f64], publish_ms: &[f64], reads: &ReadSide) {
        self.values.insert("setup_s", median(setups));
        self.values.insert("records_per_s", median(rates));
        let each = segment_percentiles(publish_ms, SEGMENTS, 50.0);
        self.values.insert("publish_ms_p50", median(&each));
        self.values
            .insert("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
        self.notes
            .push(describe("publish_ms_p50 segments", "ms", &each));
        self.notes.push(describe("setup_s", "s", setups));
        self.notes
            .push(describe("records_per_s segments", "rec/s", rates));
        for (name, unit, value) in self.ungated(publish_ms, reads) {
            self.notes.push(format!("{name} {unit} {value}"));
        }
        self.notes.push(format!(
            "failed_share ratio {:.6} ({} of {})",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        ));
        self.notes.push(format!(
            "bench.host.steal_share ratio {:.4}",
            steal_share(self.jiffies)
        ));
    }

    /// The publish tail and the read side: measured like the gated
    /// metrics, reported without a bound because this host moves them by
    /// more than any bound between runs of one commit (see the README).
    /// A run without a read side reports no read metric.
    fn ungated(
        &mut self,
        publish_ms: &[f64],
        reads: &ReadSide,
    ) -> Vec<(&'static str, &'static str, f64)> {
        let mut pooled = publish_ms.to_vec();
        self.notes.push(format!(
            "publish_ms pooled ms p50={:.3} p90={:.3} n={}",
            percentile(&mut pooled, 50.0).unwrap_or(0.0),
            percentile(&mut pooled, 90.0).unwrap_or(0.0),
            pooled.len()
        ));
        let tail = segment_percentiles(publish_ms, SEGMENTS, 90.0);
        let mut out = vec![("bench.publish_ms_p90", "ms", median(&tail))];
        if reads.samples.is_empty() {
            return out;
        }
        let samples = in_time_order(reads);
        let verified: Vec<(f64, f64)> = samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| (s.done_s, 1.0))
            .collect();
        let read_segments = segment_rates(&verified, SEGMENTS);
        let read_ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
        let mut pooled = read_ms.clone();
        self.notes.push(format!(
            "read_ms pooled ms p50={:.3} p99={:.3} n={}",
            percentile(&mut pooled, 50.0).unwrap_or(0.0),
            percentile(&mut pooled, 99.0).unwrap_or(0.0),
            pooled.len()
        ));
        self.notes.push(describe(
            "bench.read.req_per_s segments",
            "req/s",
            &read_segments,
        ));
        out.push(("bench.read.req_per_s", "req/s", median(&read_segments)));
        for (name, p) in [("bench.read.ms_p50", 50.0), ("bench.read.ms_p99", 99.0)] {
            out.push((
                name,
                "ms",
                median(&segment_percentiles(&read_ms, SEGMENTS, p)),
            ));
        }
        out
    }

    /// The traced run's own bookkeeping: how much was measured, and what
    /// tracing cost.
    fn bench_layer(
        &mut self,
        stream: &Stream,
        write: &WriteSide,
        rates: (f64, f64),
        publish_ms: &[f64],
        reads: &ReadSide,
    ) {
        for (name, _, value) in self.ungated(publish_ms, reads) {
            self.values.insert(name, value);
        }
        self.values.insert(
            "bench.trace.overhead_share",
            1.0 - rates.1 / rates.0.max(1e-9),
        );
        self.values
            .insert("bench.trace.spans", self.tracer.spans().len() as f64);
        self.values
            .insert("bench.inputs_mb", stream.heap_bytes() as f64 / 1e6);
        self.values
            .insert("bench.write.bins", write.attempted as f64);
        self.values.insert("bench.write.records_per_s", rates.1);
        self.values
            .insert("bench.read.requests", reads.samples.len() as f64);
        self.values.insert(
            "bench.failed_share",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        self.values
            .insert("bench.peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
        self.values
            .insert("bench.host.steal_share", steal_share(self.jiffies));
    }
}

fn target(drained: &Drained) -> Target {
    Target {
        addr: drained.daemon.local_addr(),
        state: Arc::clone(drained.daemon.state()),
        bins: drained.bins.clone(),
        ases: plan_ases().iter().map(|a| a.0).collect(),
    }
}

fn join(drained: Drained) {
    drained.daemon.join().expect("daemon threads end cleanly");
}

fn locked(stream: &Arc<Mutex<Stream>>) -> std::sync::MutexGuard<'_, Stream> {
    stream.lock().expect("the stream's users never panic")
}

/// A fresh engine that has seen the warm-up bins, fed at the workload's
/// pace as the measured bins are. Returns the engine and what the warm-up
/// rendered.
fn warmed<K: Kind>(stream: &mut Stream, pace: Duration) -> (K::Engine, Sink, WriteSide) {
    let mut engine = K::engine(stream.members(), 0);
    let mut sink = Sink::for_stream(stream);
    let mut quiet = Tracer::new(false, Instant::now(), 0);
    let warm = replay::<K>(
        &mut K::session(&mut engine, 0),
        stream,
        0,
        Stop::Bins(WARMUP_BINS),
        Some(pace),
        &mut sink,
        &mut quiet,
    );
    (engine, sink, warm)
}

/// `replay_delay` and `replay_fleet_dirty`.
fn replay_workload<K: Kind>(
    args: &Args,
    spec: StreamSpec,
    members: usize,
    pace: Duration,
) -> std::io::Result<Outcome> {
    let mut out = Outcome::new(Tracer::new(args.trace, Instant::now(), 1));
    let mut quiet = out.tracer.fork(0);
    let mut tracer = out.tracer.fork(2);
    let budget = Duration::from_secs_f64(args.seconds);

    // Set-up: generate the inputs and feed the warm-up bins.
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(prepared.take());
        let began = Instant::now();
        let mut stream = Stream::generate(spec, members, args.seed);
        let warm = warmed::<K>(&mut stream, pace);
        setups.push(began.elapsed().as_secs_f64());
        prepared = Some((stream, warm));
    }
    let (mut stream, (mut engine, mut sink, warm)) = prepared.expect("set-up ran");
    out.check(warm.failed == 0, || "warm-up lost a report".to_string());

    // Write side: closed loop. A traced run measures it twice, spans off
    // and on, to price the spans.
    let measured = Instant::now();
    let (write, rates, paced) = {
        let mut session = K::session(&mut engine, 0);
        if args.trace {
            // Blocks of bins with spans off and on take turns, so a slow
            // stretch of the machine falls on both.
            let (mut both, mut plain, mut traced) = (WriteSide::default(), Vec::new(), Vec::new());
            while measured.elapsed() < budget.mul_f64(TRACED_WRITE_SHARE) {
                for (spans, rates) in [(&mut quiet, &mut plain), (&mut tracer, &mut traced)] {
                    let block = replay::<K>(
                        &mut session,
                        &mut stream,
                        WARMUP_BINS + both.attempted,
                        Stop::Bins(TRACE_BLOCK_BINS),
                        None,
                        &mut sink,
                        spans,
                    );
                    rates.extend(write_rates(&block, 0, 1));
                    both.extend(block);
                }
            }
            (both, (median(&plain), median(&traced)), None)
        } else {
            // Half of the time as fast as the engine goes, half at a
            // fixed pace on the same session.
            let closed = replay::<K>(
                &mut session,
                &mut stream,
                WARMUP_BINS,
                Stop::After(budget.mul_f64(0.5)),
                None,
                &mut sink,
                &mut quiet,
            );
            let paced = replay::<K>(
                &mut session,
                &mut stream,
                WARMUP_BINS + closed.attempted,
                Stop::After(budget.mul_f64(0.5)),
                Some(pace),
                &mut sink,
                &mut quiet,
            );
            let rate = median(&write_rates(&closed, 0, SEGMENTS));
            (closed, (rate, rate), Some(paced))
        }
    };
    let ingest = K::ingest_stats(&engine);
    out.count(&write, &ReadSide::default());

    // Output checks.
    let reference: Reference<K> = reference(
        &mut stream,
        if args.trace {
            REFERENCE_BINS
        } else {
            KEPT_REPORTS
        },
    );
    let kept: Vec<&str> = sink.kept.iter().map(String::as_str).collect();
    out.check_outputs("replay", &kept, 0, &reference.bodies, &sink.tally);
    out.notes.push(format!(
        "input_digest {:08x} records/bin {} bins {} rendered MB {:.1}",
        stream.input_digest,
        stream.records_per_bin(),
        write.attempted,
        sink.bytes as f64 / 1e6
    ));
    if let Some(paced) = paced {
        out.count(&paced, &ReadSide::default());
        // The closed loop is what an archive replay feels, and what this
        // host cannot hold still (see the README): it is reported, and
        // the paced half carries the gated metrics.
        let closed = write_rates(&write, 0, SEGMENTS);
        out.notes.push(format!(
            "closed_loop.records_per_s rec/s {}",
            median(&closed)
        ));
        out.notes.push(describe(
            "closed_loop.records_per_s segments",
            "rec/s",
            &closed,
        ));
        for (name, p) in [
            ("closed_loop.publish_ms_p50", 50.0),
            ("closed_loop.publish_ms_p90", 90.0),
        ] {
            out.notes.push(format!(
                "{name} ms {}",
                median(&segment_percentiles(&write.publish_ms, SEGMENTS, p))
            ));
        }
        out.notes.push(format!(
            "paced: {} bins at {} ms, left {:.3} ms late at p99",
            paced.attempted,
            pace.as_millis(),
            probes::p99(&paced.late_ms)
        ));
        out.end_to_end(
            &setups,
            &write_rates(&paced, 0, SEGMENTS),
            &paced.publish_ms,
            &ReadSide::default(),
        );
        return Ok(out);
    }

    // A traced run adds a read tail for the service layers: a daemon over
    // a fresh engine republishes the first bins, then two clients read
    // them.
    let stream = Arc::new(Mutex::new(stream));
    let plan = DaemonPlan {
        first: 0,
        stop: Stop::Bins(KEPT_REPORTS),
        pace: None,
        watch: true,
        checkpoint_dir: None,
    };
    let tail =
        start::<K>(K::engine(members, 0), Arc::clone(&stream), &plan, &tracer)?.drain(&mut tracer);
    let reads = closed_loop(
        &target(&tail),
        READ_CLIENTS,
        budget.mul_f64(0.1),
        args.seed,
        &mut tracer,
    );
    out.count(&tail.side, &reads);
    let mut stream = locked(&stream);
    out.check_daemon("tail daemon", &tail, &stream, &reference.bodies);

    let scratch = TempDir::new("probe")?;
    let session_ms = probes::core_layers(
        &mut stream,
        &reference,
        args.seed,
        &scratch.0,
        &mut out.values,
        &mut tracer,
    );
    probes::ingest_layer(ingest, &mut out.values);
    probes::state_layer(
        tail.daemon.state(),
        tail.bins.clone(),
        args.seed,
        &mut out.values,
        &mut tracer,
    );
    probes::daemon_layer(
        &tail.daemon,
        Some(tail.side.wall_s * 1e3 / KEPT_REPORTS as f64 - session_ms),
        &tracer,
        &mut out.values,
    );
    probes::http_layer(&reads, &mut out.values);
    out.tracer.merge(tracer);
    out.bench_layer(&stream, &write, rates, &write.publish_ms, &reads);
    join(tail);
    Ok(out)
}

/// `live_mixed`: the operator's daemon, writes beside reads.
fn live_mixed(args: &Args) -> std::io::Result<Outcome> {
    let mut out = Outcome::new(Tracer::new(args.trace, Instant::now(), 1));
    let mut tracer = out.tracer.fork(2);
    let mut quiet = out.tracer.fork(0);
    let budget = Duration::from_secs_f64(args.seconds);
    let tmp = TempDir::new("live")?;

    // Set-up: generate the inputs and warm one engine per daemon. A
    // traced run adds two saturated daemons, reporter hook off and on.
    let daemons = if args.trace { 3 } else { 1 };
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(prepared.take());
        let began = Instant::now();
        let mut stream = Stream::generate(StreamSpec::mixed(), 1, args.seed);
        let engines: Vec<_> = (0..daemons)
            .map(|_| warmed::<Solo>(&mut stream, BIN_INTERVAL))
            .collect();
        setups.push(began.elapsed().as_secs_f64());
        prepared = Some((stream, engines));
    }
    let (stream, mut engines) = prepared.expect("set-up ran");
    let stream = Arc::new(Mutex::new(stream));
    let warm_bodies = engines[0].1.kept.clone();
    let mut engine = || engines.pop().expect("one warmed engine per daemon").0;

    // Open loop: a bin every 40 ms and a request every 5 ms, whatever
    // the daemon does.
    let paced_for = budget.mul_f64(if args.trace { 0.4 } else { 1.0 });
    let plan = DaemonPlan {
        first: WARMUP_BINS,
        stop: Stop::After(paced_for),
        pace: Some(BIN_INTERVAL),
        watch: true,
        checkpoint_dir: Some(tmp.0.join("paced")),
    };
    let running = start::<Solo>(engine(), Arc::clone(&stream), &plan, &tracer)?;
    let aim = Target {
        addr: running.daemon.local_addr(),
        state: Arc::clone(running.daemon.state()),
        bins: 0..0,
        ases: Vec::new(),
    };
    let reader = open_loop(
        aim,
        Arc::clone(&running.newest),
        READ_INTERVAL,
        paced_for,
        args.seed,
        tracer.fork(3),
    );
    let paced = running.drain(&mut tracer);
    let (reads, lane) = reader.join().expect("the reader does not panic");
    tracer.merge(lane);
    let feed_late = probes::p99(&paced.feed_late_ms);
    let reader_late = probes::p99(&reads.samples.iter().map(|s| s.late_ms).collect::<Vec<_>>());
    if feed_late > MAX_FEED_LATE_MS {
        out.notes.push(format!(
            "INVALID-PACING: the paced feed left {feed_late:.2} ms late at p99 (limit {MAX_FEED_LATE_MS} ms): read it as invalid, not slow"
        ));
    }
    out.count(&paced.side, &reads);

    // A traced run also saturates two fresh daemons, reporter hook off
    // and on: a feed that never waits prices the service against a bare
    // session on the same stream.
    let mut saturated = Vec::new();
    if args.trace {
        for (dir, spans) in [("off", &mut quiet), ("on", &mut tracer)] {
            let plan = DaemonPlan {
                first: WARMUP_BINS,
                stop: Stop::After(budget.mul_f64(0.2)),
                pace: None,
                watch: false,
                checkpoint_dir: Some(tmp.0.join(dir)),
            };
            let drained = start::<Solo>(engine(), Arc::clone(&stream), &plan, spans)?.drain(spans);
            out.count(&drained.side, &ReadSide::default());
            saturated.push(drained);
        }
    }

    // Output checks.
    let mut stream = locked(&stream);
    let reference: Reference<Solo> = reference(
        &mut stream,
        if args.trace {
            REFERENCE_BINS
        } else {
            KEPT_REPORTS
        },
    );
    let warm: Vec<&str> = warm_bodies.iter().map(String::as_str).collect();
    out.check(
        first_mismatch(&reference.bodies, &warm, 0).is_none(),
        || "warm-up reports differ from the reference".to_string(),
    );
    out.check_daemon("paced daemon", &paced, &stream, &reference.bodies);
    for drained in &saturated {
        out.check_daemon("saturated daemon", drained, &stream, &reference.bodies);
    }
    out.notes.push(format!(
        "input_digest {:08x} records/bin {} bins {} at {} ms, {} requests at {} ms",
        stream.input_digest,
        stream.records_per_bin(),
        paced.side.attempted,
        BIN_INTERVAL.as_millis(),
        reads.samples.len(),
        READ_INTERVAL.as_millis(),
    ));
    out.notes
        .push(format!("bench.feed.late_ms_p99 ms {feed_late:.3}"));
    out.notes
        .push(format!("bench.reader.late_ms_p99 ms {reader_late:.3}"));
    out.notes
        .push(describe("bench.feed.late_ms", "ms", &paced.feed_late_ms));

    if let [plain, hooked] = &saturated[..] {
        // Route timings come from a short closed-loop mix on the cache
        // the hooked daemon left.
        let mix = closed_loop(
            &target(hooked),
            READ_CLIENTS,
            budget.mul_f64(0.1),
            args.seed,
            &mut tracer,
        );
        out.count(&WriteSide::default(), &mix);
        let scratch = TempDir::new("probe")?;
        let session_ms = probes::core_layers(
            &mut stream,
            &reference,
            args.seed,
            &scratch.0,
            &mut out.values,
            &mut tracer,
        );
        probes::ingest_layer(probes::daemon_ingest(&hooked.daemon), &mut out.values);
        probes::state_layer(
            hooked.daemon.state(),
            hooked.bins.clone(),
            args.seed,
            &mut out.values,
            &mut tracer,
        );
        probes::daemon_layer(
            &hooked.daemon,
            Some(hooked.side.wall_s * 1e3 / hooked.side.attempted.max(1) as f64 - session_ms),
            &tracer,
            &mut out.values,
        );
        probes::http_layer(&mix, &mut out.values);
        out.values.insert("bench.feed.late_ms_p99", feed_late);
        out.values.insert("bench.reader.late_ms_p99", reader_late);
        out.tracer.merge(tracer);
        let rate = |d: &Drained| median(&write_rates(&d.side, QUEUE_FILL_BINS, SEGMENTS));
        out.bench_layer(
            &stream,
            &hooked.side,
            (rate(plain), rate(hooked)),
            &paced.side.publish_ms,
            &reads,
        );
    } else {
        out.end_to_end(
            &setups,
            &write_rates(&paced.side, 0, SEGMENTS),
            &paced.side.publish_ms,
            &reads,
        );
    }
    join(paced);
    saturated.into_iter().for_each(join);
    Ok(out)
}

/// `read_heavy`: a daemon publishes with nobody reading, then is read
/// with nobody writing.
fn read_heavy(args: &Args) -> std::io::Result<Outcome> {
    let mut out = Outcome::new(Tracer::new(args.trace, Instant::now(), 1));
    let mut tracer = out.tracer.fork(2);
    let budget = Duration::from_secs_f64(args.seconds);

    // Set-up: generate the inputs and warm the engine.
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(prepared.take());
        let began = Instant::now();
        let mut stream = Stream::generate(StreamSpec::mixed(), 1, args.seed);
        let warm = warmed::<Solo>(&mut stream, BIN_INTERVAL);
        setups.push(began.elapsed().as_secs_f64());
        prepared = Some((stream, warm));
    }
    let (stream, (engine, sink, warm)) = prepared.expect("set-up ran");
    out.check(warm.failed == 0, || "warm-up lost a report".to_string());
    let stream = Arc::new(Mutex::new(stream));

    // Write side: the cache is filled at the pace of `live_mixed`, one
    // bin per 40 ms, so publishing alone stands beside publishing under
    // reads. It is part of the measured time.
    let measured = Instant::now();
    let plan = DaemonPlan {
        first: WARMUP_BINS,
        stop: Stop::Bins(FILL_BINS),
        pace: Some(BIN_INTERVAL),
        watch: true,
        checkpoint_dir: None,
    };
    let filled = start::<Solo>(engine, Arc::clone(&stream), &plan, &tracer)?.drain(&mut tracer);
    out.count(&filled.side, &ReadSide::default());

    // Read side: closed loop, two clients, zero think time, for the rest
    // of the measured time.
    let read_for = budget
        .saturating_sub(measured.elapsed())
        .mul_f64(if args.trace { 0.5 } else { 1.0 });
    let reads = closed_loop(
        &target(&filled),
        READ_CLIENTS,
        read_for,
        args.seed,
        &mut tracer,
    );
    out.count(&WriteSide::default(), &reads);

    // Output checks.
    let mut stream = locked(&stream);
    let reference: Reference<Solo> = reference(
        &mut stream,
        if args.trace {
            REFERENCE_BINS
        } else {
            KEPT_REPORTS
        },
    );
    let warm: Vec<&str> = sink.kept.iter().map(String::as_str).collect();
    out.check(
        first_mismatch(&reference.bodies, &warm, 0).is_none(),
        || "warm-up reports differ from the reference".to_string(),
    );
    out.check_daemon("filled daemon", &filled, &stream, &reference.bodies);
    let cached_mb: usize = filled
        .bins
        .clone()
        .filter_map(|b| filled.daemon.state().report(b))
        .map(|r| r.len())
        .sum();
    out.notes.push(format!(
        "input_digest {:08x} records/bin {} cached bins {} at {} ms, report bodies MB {:.1}, clients {READ_CLIENTS} for {:.1} s",
        stream.input_digest,
        stream.records_per_bin(),
        FILL_BINS,
        BIN_INTERVAL.as_millis(),
        cached_mb as f64 / 1e6,
        read_for.as_secs_f64()
    ));

    if args.trace {
        let scratch = TempDir::new("probe")?;
        probes::core_layers(
            &mut stream,
            &reference,
            args.seed,
            &scratch.0,
            &mut out.values,
            &mut tracer,
        );
        probes::ingest_layer(probes::daemon_ingest(&filled.daemon), &mut out.values);
        probes::state_layer(
            filled.daemon.state(),
            filled.bins.clone(),
            args.seed,
            &mut out.values,
            &mut tracer,
        );
        // A paced daemon has no saturated wall time to price.
        probes::daemon_layer(&filled.daemon, None, &tracer, &mut out.values);
        probes::http_layer(&reads, &mut out.values);
        out.tracer.merge(tracer);
        let rate = median(&write_rates(&filled.side, 0, SEGMENTS));
        out.bench_layer(
            &stream,
            &filled.side,
            (rate, rate),
            &filled.side.publish_ms,
            &reads,
        );
    } else {
        out.end_to_end(
            &setups,
            &write_rates(&filled.side, 0, SEGMENTS),
            &filled.side.publish_ms,
            &reads,
        );
    }
    join(filled);
    Ok(out)
}

/// Run one workload.
pub fn run(args: &Args) -> std::io::Result<Outcome> {
    match args.workload.as_str() {
        "replay_delay" => replay_workload::<Solo>(args, StreamSpec::delay_heavy(), 1, BIN_INTERVAL),
        "replay_fleet_dirty" => {
            replay_workload::<Fleet>(args, StreamSpec::forwarding_dirty(), 3, FLEET_INTERVAL)
        }
        "live_mixed" => live_mixed(args),
        "read_heavy" => read_heavy(args),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("unknown workload {other:?}; expected one of {WORKLOADS:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_rates_skip_the_queue_fill() {
        let side = WriteSide {
            completions: (1..=6).map(|i| (f64::from(i), 10.0)).collect(),
            ..WriteSide::default()
        };
        assert_eq!(write_rates(&side, 0, 2), vec![10.0, 10.0]);
        // Skipping two bins starts the clock at the second completion.
        assert_eq!(write_rates(&side, 2, 2), vec![10.0, 10.0]);
        assert!(write_rates(&side, 9, 2).is_empty());
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_code_prints() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let manifest = json::parse(&manifest).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            manifest
                .get(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let coded = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), coded(&END_TO_END));
        assert_eq!(listed("per_layer"), coded(&PER_LAYER));
        let workloads: Vec<_> = manifest
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
