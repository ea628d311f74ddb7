//! Per-layer numbers for the traced run.
//!
//! The program under test is not instrumented, so each layer is timed
//! from outside, by calling its public functions on the workload's own
//! bins: *isolated-call* time, not self time inside the engine. Every
//! call is also recorded as a span.

use crate::engine::{Kind, Reference};
use crate::gen::{self, Stream, RING, WARMUP_BINS};
use crate::http::{ReadSide, Route};
use crate::stats::{mean, median as p50, percentile};
use crate::trace::Tracer;
use pinpoint_core::aggregate::{EmpathyExtractor, StreamEvidence};
use pinpoint_core::sanitize::sanitize_records;
use pinpoint_core::session::AnalysisSession;
use pinpoint_core::{DelayDetector, DetectorConfig, ForwardingDetector, IngestStats};
use pinpoint_model::json;
use pinpoint_model::BinId;
use pinpoint_service::{BoundedQueue, CheckpointStore, Daemon, QueueGauge, ServiceState};
use pinpoint_stats::wilson::median_ci_select_ranks;
use pinpoint_stats::{sort_by_u64_key, wilson_rank_bounds, SplitMix64};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Measured values by metric name. A metric a workload does not set
/// reads 0: the workload does not exercise that layer.
pub type Values = BTreeMap<&'static str, f64>;

/// First bin the standalone detectors see: their warm-up ends right
/// before the first planted delay shift (47–49), and the measured bins
/// cover the first planted flip (56–59) too.
const DETECTOR_FIRST_BIN: u64 = 40;
const DETECTOR_BINS: u64 = 24;

/// The 99th percentile by nearest rank; 0 on no samples.
pub fn p99(samples: &[f64]) -> f64 {
    percentile(&mut samples.to_vec(), 99.0).unwrap_or(0.0)
}

/// `core.session.*`: every `push_bin` of a fresh engine at its default
/// depth, and the same bins through `session(1)`. Returns the mean
/// milliseconds per bin at the default depth.
fn session<K: Kind>(stream: &mut Stream, out: &mut Values, tracer: &mut Tracer) -> f64 {
    let mut default_ms_per_bin = 0.0;
    for (depth, name) in [
        (0, "core.session.push_bin"),
        (1, "core.session.push_bin_serial"),
    ] {
        let mut engine = K::engine(stream.members(), 0);
        let mut session = K::session(&mut engine, depth);
        let mut ms = Vec::new();
        for bin in 0..WARMUP_BINS + RING as u64 {
            let feeds = stream.bin(bin);
            let (_, took) = tracer.time(name, bin, None, || {
                black_box(session.push_bin(BinId(bin), K::input(feeds)))
            });
            if bin >= WARMUP_BINS {
                ms.push(took);
            }
        }
        if depth == 0 {
            out.insert("core.session.push_ms_p50", p50(&ms));
            out.insert("core.session.push_ms_p99", p99(&ms));
            out.insert("core.session.depth", session.depth() as f64);
            default_ms_per_bin = mean(&ms);
        } else {
            out.insert("core.session.serial_ms_per_bin", mean(&ms));
        }
        black_box(session.flush());
    }
    default_ms_per_bin
}

/// `core.sanitize.*`, `core.diffrtt.*`, `core.forwarding.*`: the
/// sanitizer and each detector on its own, member by member.
fn detectors(stream: &mut Stream, out: &mut Values, tracer: &mut Tracer) {
    let cfg = DetectorConfig::default();
    let members = stream.members();
    let mut delay: Vec<_> = (0..members).map(|_| DelayDetector::new(&cfg)).collect();
    let mut forwarding: Vec<_> = (0..members)
        .map(|_| ForwardingDetector::new(&cfg))
        .collect();
    let (mut sanitize_ms, mut delay_ms, mut forwarding_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut links, mut delay_alarms, mut forwarding_alarms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut seen, mut quarantined, mut repaired) = (0u64, 0u64, 0u64);
    for bin in DETECTOR_FIRST_BIN..DETECTOR_FIRST_BIN + DETECTOR_BINS {
        let mut ms = [0.0; 3];
        let mut counts = [0usize; 3];
        for (m, feed) in stream.bin(bin).iter().enumerate() {
            let ((clean, stats), took) =
                tracer.time("core.sanitize.sanitize_records", bin, None, || {
                    sanitize_records(feed, &cfg)
                });
            ms[0] += took;
            seen += stats.bin_records;
            quarantined += stats.bin_quarantined;
            repaired += stats.bin_repaired;
            let ((alarms, link_stats), took) =
                tracer.time("core.diffrtt.process_bin", bin, None, || {
                    delay[m].process_bin(BinId(bin), &clean)
                });
            ms[1] += took;
            counts[0] += link_stats.len();
            counts[1] += alarms.len();
            let (alarms, took) = tracer.time("core.forwarding.process_bin", bin, None, || {
                forwarding[m].process_bin(BinId(bin), &clean)
            });
            ms[2] += took;
            counts[2] += alarms.len();
        }
        if bin >= DETECTOR_FIRST_BIN + WARMUP_BINS {
            sanitize_ms.push(ms[0]);
            delay_ms.push(ms[1]);
            forwarding_ms.push(ms[2]);
            links.push(counts[0] as f64);
            delay_alarms.push(counts[1] as f64);
            forwarding_alarms.push(counts[2] as f64);
        }
    }
    out.insert("core.sanitize.ms_per_bin", mean(&sanitize_ms));
    out.insert(
        "core.sanitize.quarantined_share",
        quarantined as f64 / seen.max(1) as f64,
    );
    out.insert(
        "core.sanitize.repaired_share",
        repaired as f64 / seen.max(1) as f64,
    );
    out.insert("core.diffrtt.ms_per_bin", mean(&delay_ms));
    out.insert("core.diffrtt.links_per_bin", mean(&links));
    out.insert("core.diffrtt.alarms_per_bin", mean(&delay_alarms));
    out.insert("core.forwarding.ms_per_bin", mean(&forwarding_ms));
    out.insert(
        "core.forwarding.patterns_tracked",
        forwarding
            .iter()
            .map(|f| f.tracked_patterns())
            .sum::<usize>() as f64,
    );
    out.insert("core.forwarding.alarms_per_bin", mean(&forwarding_alarms));
}

/// `core.aggregate.*`, `core.render.*`, `model.json.*`: the reference
/// replay's reports through the event extractor, the renderer, and the
/// JSON writer and parser.
fn reports<K: Kind>(reference: &Reference<K>, out: &mut Values, tracer: &mut Tracer) {
    let cfg = DetectorConfig::default();
    let mapper = gen::mapper();
    let mut extractor = EmpathyExtractor::new(&cfg);
    let (mut observe_ms, mut deltas, mut open_peak) = (Vec::new(), Vec::new(), 0);
    let (mut build_ms, mut write_ms, mut bytes, mut parse_s) =
        (Vec::new(), Vec::new(), 0usize, 0.0);
    for report in &reference.reports {
        let bin = K::counts(report).bin;
        let evidence: Vec<_> = K::members(report)
            .iter()
            .map(|r| StreamEvidence {
                delay: &r.delay_alarms,
                forwarding: &r.forwarding_alarms,
                mapper: &mapper,
            })
            .collect();
        let (events, took) = tracer.time("core.aggregate.observe", bin, None, || {
            extractor.observe(BinId(bin), &evidence, K::magnitudes(report))
        });
        observe_ms.push(took);
        deltas.push(events.len() as f64);
        open_peak = open_peak.max(extractor.open_count());

        let (value, took) = tracer.time("core.render.build", bin, None, || K::render(report));
        build_ms.push(took);
        let (body, took) = tracer.time("model.json.write", bin, None, || value.to_string());
        write_ms.push(took);
        bytes += body.len();
        let (parsed, took) = tracer.time("model.json.parse", bin, None, || json::parse(&body));
        assert!(parsed.is_ok(), "a rendered report must parse");
        parse_s += took / 1e3;
    }
    out.insert("core.aggregate.observe_ms_per_bin", mean(&observe_ms));
    out.insert("core.aggregate.event_deltas_per_bin", mean(&deltas));
    out.insert("core.aggregate.events_open_peak", open_peak as f64);
    out.insert("core.render.build_ms_per_bin", mean(&build_ms));
    out.insert(
        "core.render.bytes_per_bin",
        bytes as f64 / reference.reports.len().max(1) as f64,
    );
    out.insert("model.json.write_ms_per_bin", mean(&write_ms));
    out.insert(
        "model.json.parse_mb_per_s",
        bytes as f64 / 1e6 / parse_s.max(1e-9),
    );
}

/// `stats.wilson.*`, `stats.radix.*`: rank selection on pools and a
/// grouping sort on key runs shaped like one shard of the workload's bin.
fn statistics(stream: &Stream, seed: u64, out: &mut Values, tracer: &mut Tracer) {
    let mut rng = SplitMix64::new(seed ^ 0x57A7);
    // Nine shallow pools (216 samples) for every deep one (1 008).
    let pools: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            let n = if i % 10 == 0 { 1008 } else { 216 };
            (0..n)
                .map(|_| 5.0 + rng.next_range_f64(-1.0, 1.0))
                .collect()
        })
        .collect();
    let samples: usize = pools.iter().map(Vec::len).sum();
    let reps = 50;
    let start = Instant::now();
    for _ in 0..reps {
        for pool in &pools {
            let mut scratch = pool.clone();
            let (lo, hi) = wilson_rank_bounds(scratch.len(), 1.96);
            black_box(median_ci_select_ranks(&mut scratch, lo, hi));
        }
    }
    let end = Instant::now();
    tracer.record("stats.wilson.select", 0, None, start, end);
    out.insert(
        "stats.wilson.select_ns_per_sample",
        (end - start).as_nanos() as f64 / (reps * samples) as f64,
    );

    // One of 32 shards sees a 32nd of the bin's (record, link) runs,
    // keyed by packed (link id, probe id), in shuffled arrival order.
    let keys: Vec<u64> = (0..(stream.records_per_bin() * 2 / 32).max(64))
        .map(|_| rng.next_below(64) << 32 | rng.next_below(4096))
        .collect();
    let mut scratch = Vec::new();
    let start = Instant::now();
    for _ in 0..reps * 4 {
        let mut data = keys.clone();
        sort_by_u64_key(&mut data, &mut scratch, |k| *k);
        black_box(&data);
    }
    let end = Instant::now();
    tracer.record("stats.radix.sort", 0, None, start, end);
    out.insert(
        "stats.radix.sort_ns_per_key",
        (end - start).as_nanos() as f64 / (reps * 4 * keys.len()) as f64,
    );
}

/// `core.snapshot.*`, `service.checkpoint.*`: the reference engine's
/// state through the snapshot codec and the checkpoint store.
fn persistence<K: Kind>(
    reference: &Reference<K>,
    dir: &Path,
    out: &mut Values,
    tracer: &mut Tracer,
) {
    let (mut encode, mut restore, mut save, mut load) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let store = CheckpointStore::new(dir.join("probe"));
    let mut bytes = 0;
    for rep in 0..5 {
        let (snapshot, took) = tracer.time("core.snapshot.encode", rep, None, || {
            K::snapshot(&reference.engine)
        });
        encode.push(took);
        bytes = snapshot.len();
        let (ok, took) = tracer.time("core.snapshot.restore", rep, None, || K::restore(&snapshot));
        assert!(ok, "a fresh snapshot must restore");
        restore.push(took);
        let (saved, took) = tracer.time("service.checkpoint.save", rep, None, || {
            store.save(rep, &snapshot)
        });
        saved.expect("the checkpoint directory is writable");
        save.push(took);
        let (loaded, took) = tracer.time("service.checkpoint.load_latest", rep, None, || {
            store.load_latest()
        });
        assert_eq!(loaded.map(|(bin, _)| bin), Some(rep));
        load.push(took);
    }
    out.insert("core.snapshot.encode_ms", p50(&encode));
    out.insert("core.snapshot.bytes", bytes as f64);
    out.insert("core.snapshot.restore_ms", p50(&restore));
    out.insert("service.checkpoint.save_ms", p50(&save));
    out.insert("service.checkpoint.load_ms", p50(&load));
}

/// `service.queue.hop_ns`: one push and one pop of a `BoundedQueue`.
fn queue(out: &mut Values, tracer: &mut Tracer) {
    let q = BoundedQueue::new(4);
    let hops = 200_000u64;
    let start = Instant::now();
    for i in 0..hops {
        q.push(i).expect("the queue is open");
        black_box(q.pop().expect("the queue holds an item"));
    }
    let end = Instant::now();
    tracer.record("service.queue.hop", 0, None, start, end);
    out.insert(
        "service.queue.hop_ns",
        (end - start).as_nanos() as f64 / hops as f64,
    );
}

/// Everything that needs only the workload's bins and its reference
/// replay. Returns the mean milliseconds per bin of a bare session on
/// the stream, for [`daemon_layer`].
pub fn core_layers<K: Kind>(
    stream: &mut Stream,
    reference: &Reference<K>,
    seed: u64,
    scratch_dir: &Path,
    out: &mut Values,
    tracer: &mut Tracer,
) -> f64 {
    let session_ms_per_bin = session::<K>(stream, out, tracer);
    detectors(stream, out, tracer);
    reports(reference, out, tracer);
    statistics(stream, seed, out, tracer);
    persistence(reference, scratch_dir, out, tracer);
    queue(out, tracer);
    session_ms_per_bin
}

/// `core.ingest.*` from interning counters read at the end of the
/// longest write side the workload ran.
pub fn ingest_layer(stats: IngestStats, out: &mut Values) {
    out.insert("core.ingest.interned", stats.interned as f64);
    out.insert("core.ingest.inserts_per_bin", stats.bin_insertions as f64);
    out.insert("core.ingest.evictions", stats.evictions as f64);
}

/// The interning counters a daemon publishes in `/stats`.
pub fn daemon_ingest(daemon: &Daemon) -> IngestStats {
    let (collect, report) = daemon.queue_gauges();
    let stats = json::parse(&daemon.state().stats_json(collect, report)).expect("/stats is JSON");
    let field = |name| {
        stats
            .get("ingest")
            .and_then(|i| i.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    IngestStats {
        interned: field("interned") as usize,
        bin_insertions: field("bin_insertions"),
        insertions: field("insertions"),
        evictions: field("evictions"),
    }
}

/// `service.state.*` at the cache's final size.
pub fn state_layer(
    state: &ServiceState,
    bins: std::ops::Range<u64>,
    seed: u64,
    out: &mut Values,
    tracer: &mut Tracer,
) {
    let mut rng = SplitMix64::new(seed ^ 0x57A7E);
    let lookups = 20_000;
    let start = Instant::now();
    for _ in 0..lookups {
        black_box(state.report(bins.start + rng.next_below(bins.end - bins.start)));
    }
    let end = Instant::now();
    tracer.record("service.state.report", 0, None, start, end);
    out.insert(
        "service.state.report_lookup_ns",
        (end - start).as_nanos() as f64 / lookups as f64,
    );
    let bins_ms: Vec<f64> = (0..20)
        .map(|i| {
            tracer
                .time("service.state.bins_json", i, None, || {
                    black_box(state.bins_json())
                })
                .1
        })
        .collect();
    out.insert("service.state.bins_json_ms", p50(&bins_ms));
    let health_ms: Vec<f64> = (0..200)
        .map(|i| {
            tracer
                .time("service.state.health_json", i, None, || {
                    black_box(state.health_json())
                })
                .1
        })
        .collect();
    out.insert("service.state.health_json_us", p50(&health_ms) * 1e3);
}

/// `service.daemon.*` from the stamps a traced daemon run left, its own
/// latency counter and its queue gauges. `overhead_ms_per_bin` is the
/// wall time per bin of a saturated daemon on the stream minus the same
/// through a bare session; a workload without a saturated daemon has
/// none.
pub fn daemon_layer(
    daemon: &Daemon,
    overhead_ms_per_bin: Option<f64>,
    tracer: &Tracer,
    out: &mut Values,
) {
    for (metric, span) in [
        (
            "service.daemon.feed_wait_ms_p50",
            "service.daemon.feed_wait",
        ),
        (
            "service.daemon.collect_to_report_ms_p50",
            "service.daemon.collect_to_report",
        ),
        (
            "service.daemon.render_publish_ms_p50",
            "service.daemon.render_publish",
        ),
    ] {
        out.insert(metric, p50(&tracer.ms_of(span)));
    }
    out.insert(
        "service.daemon.internal_latency_ms_mean",
        daemon.state().latency_ms().1,
    );
    let (collect, report): (QueueGauge, QueueGauge) = daemon.queue_gauges();
    out.insert("service.daemon.queue_peak_collect", collect.peak as f64);
    out.insert("service.daemon.queue_peak_report", report.peak as f64);
    if let Some(ms) = overhead_ms_per_bin {
        out.insert("service.daemon.overhead_ms_per_bin", ms);
    }
}

/// `service.http.*` from the client-side stamps of a read side.
pub fn http_layer(reads: &ReadSide, out: &mut Values) {
    const NAMES: [&str; 7] = [
        "service.http.report.ms_p50",
        "service.http.bin_events.ms_p50",
        "service.http.graph.ms_p50",
        "service.http.events.ms_p50",
        "service.http.bins.ms_p50",
        "service.http.timeline.ms_p50",
        "service.http.health.ms_p50",
    ];
    for (route, name) in Route::ALL.into_iter().zip(NAMES) {
        let ms: Vec<f64> = reads
            .samples
            .iter()
            .filter(|s| s.route == route)
            .map(|s| s.ms)
            .collect();
        out.insert(name, p50(&ms));
    }
    let of = |f: fn(&crate::http::Sample) -> f64| reads.samples.iter().map(f).collect::<Vec<f64>>();
    out.insert("service.http.connect_us_p50", p50(&of(|s| s.connect_us)));
    out.insert("service.http.ttfb_us_p50", p50(&of(|s| s.ttfb_us)));
    out.insert("service.http.bytes_per_req", mean(&of(|s| s.bytes as f64)));
    out.insert(
        "service.http.status_other",
        reads.samples.iter().filter(|s| s.status_other).count() as f64,
    );
}
