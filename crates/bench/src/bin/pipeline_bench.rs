//! Engine throughput tracker: times `Analyzer::process_bin` (the sharded
//! parallel engine) against `Analyzer::process_bin_sequential` (the
//! nested-map, full-sort reference path) and writes `BENCH_pipeline.json`
//! so the perf trajectory is recorded from PR to PR.
//!
//! ```text
//! usage: pipeline_bench [--seed=N] [--reps=N] [--out=PATH] [--check=PATH]
//! ```
//!
//! Twelve workloads run: the steady scenario's Small bin (faithful
//! simulator output), a synthetic Atlas-scale delay-heavy bin (hundreds
//! of diversity-passing links), a forwarding-heavy bin (~1200 next-hop
//! patterns, links below the diversity floor), a mixed bin driving both
//! detectors' shard pipelines at once, a three-stream fleet bin run
//! through one `StreamRouter` pool (every stream's §4 and §5 shards on the
//! same workers), a scatter-dominated `ingest_heavy` bin (long responsive
//! paths, ~200k samples, almost no per-key analysis) that isolates the
//! chunked-ingestion layer, an
//! `artifact_heavy` bin — the mixed workload corrupted by a hostile
//! `ArtifactModel` — that times the record sanitizer's front-door pass in
//! isolation (`sanitize_ms`) and records how many records it quarantined
//! (`quarantined`, asserted non-zero), and a `service_e2e` workload that
//! pushes the mixed stream through an in-process live daemon (collector →
//! executor → reporter over bounded queues), parity-gates its cached
//! renders byte-for-byte against the offline path, and records the mean
//! collect→report latency (`e2e_latency_ms`) plus the queue high-water
//! mark (`queue_peak`, asserted ≤ capacity), and an `event_extraction`
//! workload that replays the three-stream AMS-IX outage with the empathy
//! extractor live in the merge funnel, parity-gates the incremental
//! event deltas byte-for-byte against the sequential reference, and
//! records the events and deltas the channel carried, a grouping-bound
//! `grouping_heavy` bin (a horde of single-sample probes, so the
//! per-shard `(link, probe)` key sort — the LSD radix grouping path —
//! is the bill), a characterization-bound `characterize_heavy` bin
//! (few links, ~1.1k samples each, so the batched shard-level rank
//! selection + cached Wilson bounds dominate), and a `checkpoint_heavy`
//! stream that re-runs the mixed bins with a durable state snapshot
//! taken after every bin — the crash-safety tax at its most aggressive
//! cadence — recording the isolated `Analyzer::snapshot()` wall
//! (`snapshot_ms`) and the snapshot size (`snapshot_bytes`), gated on
//! checkpoint/restore/resume byte parity. Each is timed over
//! `reps` repetitions on warmed analyzers and summarized by the median
//! wall time, with the two timed arms of every workload interleaved
//! rep by rep so clock drift and allocator growth cannot bias whichever
//! arm runs second; alarm/stat outputs of both paths are cross-checked
//! for equality before any number is reported — so a run doubles as an
//! engine-parity gate. Per workload, the work bin's intern-table
//! insertions are recorded too: a steady bin (same key universe as the
//! warm bin) must report 0 — the persistent interning epoch at work.
//!
//! `--check=PATH` additionally compares the run against a committed
//! baseline (normally the repo's `BENCH_pipeline.json`): a missing
//! baseline workload fails the run, while a >25 % parallel-throughput
//! regression emits a GitHub Actions `::warning::` annotation and keeps
//! going — machine-to-machine variance makes absolute speed advisory, but
//! parity is law.

use pinpoint_bench::workload::{
    forwarding_bin, grouping_bin, ingest_bin, mixed_bin, multi_stream_feeds, synthetic_bin,
    synthetic_mapper, ForwardingSpec, GroupingSpec, IngestSpec, WorkloadSpec,
};
use pinpoint_core::aggregate::AsMapper;
use pinpoint_core::sanitize::sanitize_records;
use pinpoint_core::{
    render, AnalysisSession, Analyzer, DetectorConfig, EventTable, FleetReport, StreamRouter,
};
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::BinId;
use pinpoint_netsim::ArtifactModel;
use pinpoint_scenarios::{ixp, multi, steady, Scale};
use pinpoint_service::{Daemon, ServiceConfig};
use std::io::Write as _;
use std::time::Instant;

struct WorkloadResult {
    name: String,
    records: usize,
    links: usize,
    sequential_ms: f64,
    parallel_ms: f64,
    /// Intern-table insertions during the (warmed) work bin — 0 when the
    /// warm bin already interned the whole key universe.
    intern_inserts: u64,
    /// Median wall milliseconds of a standalone sanitizer pass over the
    /// work bin (0 for workloads that do not time it separately).
    sanitize_ms: f64,
    /// Records the sanitizer quarantined in the work bin.
    quarantined: u64,
    /// Mean collect→report latency per bin through the live daemon
    /// (0 for workloads that don't run the service).
    e2e_latency_ms: f64,
    /// High-water mark across the daemon's two bounded queues (must
    /// never exceed the configured capacity; 0 for offline workloads).
    queue_peak: u64,
    /// Distinct fleet events extracted over the workload's window (0 for
    /// workloads that do not run the empathy extractor).
    events: u64,
    /// Incremental event deltas emitted over the window — the volume the
    /// event channel actually carries.
    event_deltas: u64,
    /// Median wall milliseconds of one `Analyzer::snapshot()` call on the
    /// warmed analyzer (0 for workloads that do not checkpoint).
    snapshot_ms: f64,
    /// Size of the final snapshot in bytes (0 for workloads that do not
    /// checkpoint).
    snapshot_bytes: u64,
}

impl WorkloadResult {
    fn speedup(&self) -> f64 {
        self.sequential_ms / self.parallel_ms
    }

    fn records_per_sec_parallel(&self) -> f64 {
        self.records as f64 / (self.parallel_ms / 1e3)
    }
}

/// Time `reps` bins of both engine paths on warmed analyzers with the
/// passes interleaved (sequential, parallel, sequential, parallel, …):
/// both arms see the same clock drift, allocator state, and cache
/// pressure, so their ratio is not biased by whichever arm happens to
/// run second. Returns `(sequential_ms, parallel_ms)` medians per bin.
fn time_paths(
    mapper: &AsMapper,
    warm: &[TracerouteRecord],
    work: &[TracerouteRecord],
    reps: usize,
) -> (f64, f64) {
    let mut seq = Analyzer::new(DetectorConfig::default(), mapper.clone());
    seq.process_bin_sequential(BinId(0), warm);
    let mut par = Analyzer::new(DetectorConfig::default(), mapper.clone());
    par.process_bin(BinId(0), warm);
    let mut seq_samples = Vec::with_capacity(reps);
    let mut par_samples = Vec::with_capacity(reps);
    for rep in 0..reps {
        let bin = BinId(1 + rep as u64);
        let t = Instant::now();
        std::hint::black_box(seq.process_bin_sequential(bin, work));
        seq_samples.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        std::hint::black_box(par.process_bin(bin, work));
        par_samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (
        pinpoint_stats::median(&seq_samples).expect("reps >= 1"),
        pinpoint_stats::median(&par_samples).expect("reps >= 1"),
    )
}

fn run_workload(
    name: &str,
    mapper: &AsMapper,
    warm: &[TracerouteRecord],
    work: &[TracerouteRecord],
    reps: usize,
) -> WorkloadResult {
    // Parity gate: identical outputs from warmed-equal analyzers, so the
    // timings below compare engines that do the same work.
    let mut a = Analyzer::new(DetectorConfig::default(), mapper.clone());
    let mut b = Analyzer::new(DetectorConfig::default(), mapper.clone());
    a.process_bin(BinId(0), warm);
    b.process_bin_sequential(BinId(0), warm);
    let ra = a.process_bin(BinId(1), work);
    let rb = b.process_bin_sequential(BinId(1), work);
    assert_eq!(
        ra.delay_alarms, rb.delay_alarms,
        "{name}: engine parity broke"
    );
    assert_eq!(
        ra.forwarding_alarms, rb.forwarding_alarms,
        "{name}: engine parity broke"
    );
    assert_eq!(ra.link_stats, rb.link_stats, "{name}: engine parity broke");
    let links = ra.link_stats.len();
    let intern_inserts = a.ingest_stats().bin_insertions;
    let quarantined = a.sanitize_stats().bin_quarantined;

    let (sequential_ms, parallel_ms) = time_paths(mapper, warm, work, reps);
    WorkloadResult {
        name: name.to_string(),
        records: work.len(),
        links,
        sequential_ms,
        parallel_ms,
        intern_inserts,
        sanitize_ms: 0.0,
        quarantined,
        e2e_latency_ms: 0.0,
        queue_peak: 0,
        events: 0,
        event_deltas: 0,
        snapshot_ms: 0.0,
        snapshot_bytes: 0,
    }
}

/// Median wall milliseconds of a pure [`sanitize_records`] pass over one
/// bin — the sanitizer's isolated overhead, outside any detector work.
fn time_sanitize(work: &[TracerouteRecord], reps: usize) -> f64 {
    let cfg = DetectorConfig::default();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(sanitize_records(work, &cfg));
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    pinpoint_stats::median(&samples).expect("reps >= 1")
}

/// Build the bench fleet: one analyzer per stream on the default config.
fn fleet(mapper: &AsMapper, streams: usize) -> StreamRouter {
    let mut router = StreamRouter::new();
    for i in 0..streams {
        router.add_stream(
            format!("stream-{i}"),
            Analyzer::new(DetectorConfig::default(), mapper.clone()),
        );
    }
    router
}

/// Demand two fleet reports carry identical detector outputs.
fn assert_fleet_parity(name: &str, a: &FleetReport, b: &FleetReport) {
    assert_eq!(
        a.streams.len(),
        b.streams.len(),
        "{name}: fleet parity broke"
    );
    for (ra, rb) in a.streams.iter().zip(&b.streams) {
        assert_eq!(
            ra.delay_alarms, rb.delay_alarms,
            "{name}: fleet parity broke"
        );
        assert_eq!(
            ra.forwarding_alarms, rb.forwarding_alarms,
            "{name}: fleet parity broke"
        );
        assert_eq!(ra.link_stats, rb.link_stats, "{name}: fleet parity broke");
    }
    assert_eq!(a.magnitudes, b.magnitudes, "{name}: fleet parity broke");
}

/// Time `reps` fleet bins of both router paths on warmed routers with
/// the passes interleaved, like [`time_paths`]. Returns
/// `(sequential_ms, parallel_ms)` medians per bin.
fn time_fleets(
    mapper: &AsMapper,
    warm: &[Vec<TracerouteRecord>],
    work: &[Vec<TracerouteRecord>],
    reps: usize,
) -> (f64, f64) {
    let mut seq = fleet(mapper, warm.len());
    seq.process_bin_sequential(BinId(0), warm);
    let mut par = fleet(mapper, warm.len());
    par.process_bin(BinId(0), warm);
    let mut seq_samples = Vec::with_capacity(reps);
    let mut par_samples = Vec::with_capacity(reps);
    for rep in 0..reps {
        let bin = BinId(1 + rep as u64);
        let t = Instant::now();
        std::hint::black_box(seq.process_bin_sequential(bin, work));
        seq_samples.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        std::hint::black_box(par.process_bin(bin, work));
        par_samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (
        pinpoint_stats::median(&seq_samples).expect("reps >= 1"),
        pinpoint_stats::median(&par_samples).expect("reps >= 1"),
    )
}

/// The fleet workload: parity-gate the pooled router against the
/// sequential path, then time both.
fn run_multi_workload(
    name: &str,
    mapper: &AsMapper,
    warm: &[Vec<TracerouteRecord>],
    work: &[Vec<TracerouteRecord>],
    reps: usize,
) -> WorkloadResult {
    let mut a = fleet(mapper, warm.len());
    let mut b = fleet(mapper, warm.len());
    a.process_bin(BinId(0), warm);
    b.process_bin_sequential(BinId(0), warm);
    let ra = a.process_bin(BinId(1), work);
    let rb = b.process_bin_sequential(BinId(1), work);
    assert_fleet_parity(name, &ra, &rb);
    let links: usize = ra.streams.iter().map(|r| r.link_stats.len()).sum();
    let intern_inserts = a.ingest_stats().bin_insertions;

    let (sequential_ms, parallel_ms) = time_fleets(mapper, warm, work, reps);
    WorkloadResult {
        name: name.to_string(),
        records: work.iter().map(Vec::len).sum(),
        links,
        sequential_ms,
        parallel_ms,
        intern_inserts,
        sanitize_ms: 0.0,
        quarantined: 0,
        e2e_latency_ms: 0.0,
        queue_peak: 0,
        events: 0,
        event_deltas: 0,
        snapshot_ms: 0.0,
        snapshot_bytes: 0,
    }
}

/// The live-service workload: the same mixed-bin stream pushed through
/// an in-process [`Daemon`] (collector → executor → reporter over the
/// bounded queues) instead of a bare session. `sequential_ms` is the
/// in-process session wall per bin, `parallel_ms` the daemon wall per
/// bin (spawn → drained), so `speedup` reads as service overhead (≈1.0
/// when the pipeline hides the queue hops). Additionally records the
/// mean collect→report latency (`e2e_latency_ms`) and the high-water
/// mark across both queues (`queue_peak`, asserted ≤ capacity). The
/// feed here is unpaced, so the latency is mostly time spent queued
/// behind earlier bins. The 102 ms this row carried until PR 14 (1 hw
/// thread; 58.6 ms re-run on 2) was that plus the one-bin report delay
/// of the depth-2 session — report *n* waited for `push_bin(n+1)`; with
/// reports leaving their own push it reads 40.7 ms (2 hw threads).
/// Parity
/// gate: every report the daemon caches must be byte-identical to the
/// offline `render::bin_report` of the same stream.
fn run_service_workload(
    name: &str,
    mapper: &AsMapper,
    bins: &[Vec<TracerouteRecord>],
    reps: usize,
) -> WorkloadResult {
    // Offline reference: one session over the whole stream, rendered.
    let mut offline = Analyzer::new(DetectorConfig::default(), mapper.clone());
    let mut reports = Vec::new();
    {
        let mut session = offline.session(0);
        for (i, records) in bins.iter().enumerate() {
            reports.extend(session.push_bin(BinId(i as u64), records));
        }
    }
    let links = reports.last().map_or(0, |r| r.link_stats.len());
    let want: Vec<String> = reports
        .iter()
        .map(|r| render::bin_report(r).to_string())
        .collect();

    // Offline session and live daemon over the identical feed, with the
    // arms interleaved (offline, daemon, offline, daemon, …) so drift
    // cannot bias either median; the daemon is parity-gated every rep.
    let mut offline_samples = Vec::with_capacity(reps);
    let mut wall_samples = Vec::with_capacity(reps);
    let mut latency_samples = Vec::with_capacity(reps);
    let mut queue_peak = 0usize;
    for _ in 0..reps {
        // Offline wall per bin: fresh analyzer, same cold stream.
        let mut analyzer = Analyzer::new(DetectorConfig::default(), mapper.clone());
        let t = Instant::now();
        let mut session = analyzer.session(0);
        for (i, records) in bins.iter().enumerate() {
            std::hint::black_box(session.push_bin(BinId(i as u64), records));
        }
        offline_samples.push(t.elapsed().as_secs_f64() * 1e3 / bins.len() as f64);

        let feed: Vec<(BinId, Vec<TracerouteRecord>)> = bins
            .iter()
            .enumerate()
            .map(|(i, records)| (BinId(i as u64), records.clone()))
            .collect();
        let cfg = ServiceConfig {
            http_workers: 2,
            ..ServiceConfig::default()
        };
        let analyzer = Analyzer::new(DetectorConfig::default(), mapper.clone());
        let t = Instant::now();
        let daemon = Daemon::spawn(cfg, analyzer, feed.into_iter()).expect("daemon spawns");
        daemon.state().wait_done();
        wall_samples.push(t.elapsed().as_secs_f64() * 1e3 / bins.len() as f64);
        let (_, mean, _) = daemon.state().latency_ms();
        latency_samples.push(mean);
        let (collect_q, report_q) = daemon.queue_gauges();
        assert!(
            collect_q.peak <= collect_q.capacity && report_q.peak <= report_q.capacity,
            "{name}: a bounded queue exceeded its capacity"
        );
        queue_peak = queue_peak.max(collect_q.peak).max(report_q.peak);
        for (i, want) in want.iter().enumerate() {
            let got = daemon
                .state()
                .report(i as u64)
                .unwrap_or_else(|| panic!("{name}: daemon never reported bin {i}"));
            assert_eq!(
                got.as_str(),
                want,
                "{name}: daemon diverged from the offline render on bin {i}"
            );
        }
        daemon.join().expect("clean daemon exit");
    }

    WorkloadResult {
        name: name.to_string(),
        records: bins.iter().map(Vec::len).sum::<usize>() / bins.len(),
        links,
        sequential_ms: pinpoint_stats::median(&offline_samples).expect("reps >= 1"),
        parallel_ms: pinpoint_stats::median(&wall_samples).expect("reps >= 1"),
        intern_inserts: 0,
        sanitize_ms: 0.0,
        quarantined: 0,
        e2e_latency_ms: pinpoint_stats::median(&latency_samples).expect("reps >= 1"),
        queue_peak: queue_peak as u64,
        events: 0,
        event_deltas: 0,
        snapshot_ms: 0.0,
        snapshot_bytes: 0,
    }
}

/// The event-extraction workload: the three-stream AMS-IX outage driven
/// through a fleet session with the empathy extractor live. Parity gate:
/// the per-bin event deltas (rendered exactly as `pinpointd` serves
/// them) must be byte-for-byte identical to the sequential reference
/// path's, the delta folds must agree, and the window must yield at
/// least one event. `sequential_ms` is the sequential fleet wall per
/// bin, `parallel_ms` the session's, like every other row; `events` /
/// `event_deltas` record what the channel carried.
fn run_event_workload(name: &str, seed: u64, reps: usize) -> WorkloadResult {
    let mut case = multi::case_study(seed, Scale::Small);
    case.cfg = DetectorConfig::fast_test();
    let (outage_start, outage_end) = ixp::outage_bins();
    let bins: Vec<(BinId, Vec<Vec<TracerouteRecord>>)> = (outage_start - 4..outage_end + 2)
        .map(|b| (BinId(b), case.collect_bin(BinId(b))))
        .collect();

    // One pass over the window through either path: the rendered deltas
    // and their fold.
    let drive = |sequential: bool| {
        let mut router = case.router();
        let mut deltas: Vec<String> = Vec::new();
        let mut table = EventTable::new();
        for (bin, feeds) in &bins {
            let report = if sequential {
                router.process_bin_sequential(*bin, feeds)
            } else {
                router.process_bin(*bin, feeds)
            };
            table.absorb(&report.events);
            deltas.extend(report.events.iter().map(|e| render::event(e).to_string()));
        }
        (deltas, table)
    };
    let (want, table) = drive(true);
    assert!(
        !table.is_empty(),
        "{name}: the outage window extracted no fleet events"
    );
    let (got, got_table) = drive(false);
    assert_eq!(
        got, want,
        "{name}: event-delta parity broke against the sequential reference"
    );
    assert_eq!(
        got_table.ranked(),
        table.ranked(),
        "{name}: the delta folds diverged from the sequential reference"
    );

    // Interleave the arms (sequential, session, sequential, …) so
    // environmental drift cannot bias one arm's median.
    let mut samples = [Vec::with_capacity(reps), Vec::with_capacity(reps)];
    for _ in 0..reps {
        for (arm, sequential) in [true, false].into_iter().enumerate() {
            let t = Instant::now();
            std::hint::black_box(drive(sequential));
            samples[arm].push(t.elapsed().as_secs_f64() * 1e3 / bins.len() as f64);
        }
    }
    let sequential_ms = pinpoint_stats::median(&samples[0]).expect("reps >= 1");
    let parallel_ms = pinpoint_stats::median(&samples[1]).expect("reps >= 1");

    WorkloadResult {
        name: name.to_string(),
        records: bins
            .iter()
            .map(|(_, feeds)| feeds.iter().map(Vec::len).sum::<usize>())
            .sum::<usize>()
            / bins.len(),
        links: 0,
        sequential_ms,
        parallel_ms,
        intern_inserts: 0,
        sanitize_ms: 0.0,
        quarantined: 0,
        e2e_latency_ms: 0.0,
        queue_peak: 0,
        events: table.len() as u64,
        event_deltas: want.len() as u64,
        snapshot_ms: 0.0,
        snapshot_bytes: 0,
    }
}

/// The checkpoint-cadence workload: the mixed-bin stream driven once as
/// a plain session (`sequential_ms` per bin) and once checkpointing
/// after **every** bin — one `Analyzer::snapshot()` per push
/// (`parallel_ms` per bin), so `speedup` reads as checkpoint overhead
/// (≤ 1.0; the gap is the price of crash-safety at its most aggressive
/// cadence). The isolated `snapshot()` call is also timed on the warmed
/// analyzer (`snapshot_ms`) and the final snapshot size recorded
/// (`snapshot_bytes`). Parity gates: the checkpointing session's reports
/// byte-match the plain session's; a mid-stream snapshot restored into a
/// fresh analyzer replays the tail byte-identically; and restore →
/// re-snapshot reproduces the exact snapshot bytes.
fn run_checkpoint_workload(
    name: &str,
    mapper: &AsMapper,
    bins: &[Vec<TracerouteRecord>],
    reps: usize,
) -> WorkloadResult {
    // Uninterrupted reference.
    let mut reference = Vec::new();
    let mut analyzer = Analyzer::new(DetectorConfig::default(), mapper.clone());
    {
        let mut session = analyzer.session(0);
        for (i, records) in bins.iter().enumerate() {
            reference.extend(session.push_bin(BinId(i as u64), records));
        }
    }
    let want: Vec<String> = reference
        .iter()
        .map(|r| render::bin_report(r).to_string())
        .collect();
    let links = reference.last().map_or(0, |r| r.link_stats.len());

    // Gate 1: checkpointing after every bin changes no report bytes.
    let mut analyzer = Analyzer::new(DetectorConfig::default(), mapper.clone());
    let mut got = Vec::new();
    let mut last_snapshot = Vec::new();
    {
        let mut session = analyzer.session(0);
        for (i, records) in bins.iter().enumerate() {
            got.extend(session.push_bin(BinId(i as u64), records));
            last_snapshot = session.checkpoint();
        }
    }
    assert_eq!(got.len(), want.len(), "{name}: checkpointing lost reports");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            &render::bin_report(g).to_string(),
            w,
            "{name}: checkpointing changed report bytes on bin {}",
            g.bin.0
        );
    }

    // Gate 2: restore → re-snapshot is byte-identical (the codec is a
    // pure function of the analysis state).
    let resnapshot = Analyzer::restore(&last_snapshot)
        .unwrap_or_else(|e| panic!("{name}: snapshot failed to restore: {e:?}"))
        .snapshot();
    assert_eq!(
        resnapshot, last_snapshot,
        "{name}: restore → snapshot did not reproduce the bytes"
    );

    // Gate 3: a mid-stream snapshot resumes byte-identically.
    let cut = bins.len() / 2;
    let mut analyzer = Analyzer::new(DetectorConfig::default(), mapper.clone());
    let mid_snapshot = {
        let mut session = analyzer.session(0);
        for (i, records) in bins[..cut].iter().enumerate() {
            let _ = session.push_bin(BinId(i as u64), records);
        }
        session.checkpoint()
    };
    let knobs = DetectorConfig::default();
    let mut resumed = Analyzer::restore_with(&mid_snapshot, |c| {
        c.threads = knobs.threads;
        c.ingest_chunk_records = knobs.ingest_chunk_records;
    })
    .unwrap_or_else(|e| panic!("{name}: mid-stream snapshot failed to restore: {e:?}"));
    let mut tail = Vec::new();
    {
        let mut session = resumed.session(0);
        for (i, records) in bins[cut..].iter().enumerate() {
            tail.extend(session.push_bin(BinId((cut + i) as u64), records));
        }
    }
    assert_eq!(tail.len(), want.len() - cut, "{name}: resume lost reports");
    for (g, w) in tail.iter().zip(&want[cut..]) {
        assert_eq!(
            &render::bin_report(g).to_string(),
            w,
            "{name}: resume diverged on bin {}",
            g.bin.0
        );
    }

    // Timing: plain and checkpoint-every-bin arms interleaved, plus the
    // isolated snapshot() call on the warmed analyzer.
    let mut plain_samples = Vec::with_capacity(reps);
    let mut ckpt_samples = Vec::with_capacity(reps);
    let mut snap_samples = Vec::with_capacity(reps);
    let mut snapshot_bytes = 0usize;
    for _ in 0..reps {
        let mut analyzer = Analyzer::new(DetectorConfig::default(), mapper.clone());
        let t = Instant::now();
        let mut session = analyzer.session(0);
        for (i, records) in bins.iter().enumerate() {
            std::hint::black_box(session.push_bin(BinId(i as u64), records));
        }
        drop(session);
        plain_samples.push(t.elapsed().as_secs_f64() * 1e3 / bins.len() as f64);

        let mut analyzer = Analyzer::new(DetectorConfig::default(), mapper.clone());
        let t = Instant::now();
        let mut session = analyzer.session(0);
        for (i, records) in bins.iter().enumerate() {
            std::hint::black_box(session.push_bin(BinId(i as u64), records));
            std::hint::black_box(session.checkpoint());
        }
        drop(session);
        ckpt_samples.push(t.elapsed().as_secs_f64() * 1e3 / bins.len() as f64);

        let t = Instant::now();
        let snapshot = std::hint::black_box(analyzer.snapshot());
        snap_samples.push(t.elapsed().as_secs_f64() * 1e3);
        snapshot_bytes = snapshot.len();
    }

    WorkloadResult {
        name: name.to_string(),
        records: bins.iter().map(Vec::len).sum::<usize>() / bins.len(),
        links,
        sequential_ms: pinpoint_stats::median(&plain_samples).expect("reps >= 1"),
        parallel_ms: pinpoint_stats::median(&ckpt_samples).expect("reps >= 1"),
        intern_inserts: 0,
        sanitize_ms: 0.0,
        quarantined: 0,
        e2e_latency_ms: 0.0,
        queue_peak: 0,
        events: 0,
        event_deltas: 0,
        snapshot_ms: pinpoint_stats::median(&snap_samples).expect("reps >= 1"),
        snapshot_bytes: snapshot_bytes as u64,
    }
}

/// Pull `"field": <number>` out of one workload's object in the baseline
/// JSON (the workspace deliberately has no serde_json; the file is written
/// by this binary, so the shape is known).
fn baseline_field(baseline: &str, workload: &str, field: &str) -> Option<f64> {
    let obj_start = baseline.find(&format!("\"name\": \"{workload}\""))?;
    let obj = &baseline[obj_start..];
    let obj = &obj[..obj.find('}').unwrap_or(obj.len())];
    let v = obj.split(&format!("\"{field}\": ")).nth(1)?;
    let end = v
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(v.len());
    v[..end].parse().ok()
}

/// Compare a run against the committed baseline. A workload missing from
/// the baseline is fatal (the trajectory file must stay complete); a >25 %
/// drop in parallel throughput is a non-fatal GitHub annotation.
fn check_against_baseline(results: &[WorkloadResult], baseline_path: &str) {
    let baseline = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("--check: cannot read {baseline_path}: {e}"));
    for r in results {
        let Some(want) = baseline_field(&baseline, &r.name, "records_per_sec_parallel") else {
            panic!(
                "--check: workload {:?} missing from {baseline_path}",
                r.name
            );
        };
        let got = r.records_per_sec_parallel();
        if got < 0.75 * want {
            println!(
                "::warning title=pipeline_bench regression::{} parallel throughput {got:.0} rec/s \
                 is {:.0}% of the committed {want:.0} rec/s",
                r.name,
                100.0 * got / want
            );
        } else {
            println!(
                "check {:<16} ok: {got:.0} rec/s vs committed {want:.0} rec/s",
                r.name
            );
        }
    }
}

fn main() {
    let mut seed = 2015u64;
    let mut reps = 9usize;
    let mut out_path = String::from("BENCH_pipeline.json");
    let mut check_path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--seed=") {
            seed = v.parse().expect("--seed must be a u64");
        } else if let Some(v) = arg.strip_prefix("--reps=") {
            reps = v.parse().expect("--reps must be a usize");
            assert!(reps >= 1, "--reps must be at least 1");
        } else if let Some(v) = arg.strip_prefix("--out=") {
            out_path = v.to_string();
        } else if let Some(v) = arg.strip_prefix("--check=") {
            check_path = Some(v.to_string());
        } else if arg == "--help" || arg == "-h" {
            eprintln!("usage: pipeline_bench [--seed=N] [--reps=N] [--out=PATH] [--check=PATH]");
            return;
        } else {
            // A typo'd flag must not silently record default-parameter
            // numbers into the tracked perf-trajectory file.
            panic!("unknown argument {arg:?} (see --help)");
        }
    }

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("==== pipeline_bench ==== (seed {seed}, {reps} reps, {threads} hw threads)");

    // Workload 1: faithful simulator bin.
    let case = steady::case_study(seed, Scale::Small);
    let warm = case.platform.collect_bin(BinId(0));
    let work = case.platform.collect_bin(BinId(1));
    let steady_result = run_workload("steady_small", &case.mapper, &warm, &work, reps);

    // Workload 2: synthetic Atlas-scale delay-heavy bin.
    let spec = WorkloadSpec::large();
    let mapper = synthetic_mapper();
    let warm = synthetic_bin(&spec, seed, 0);
    let work = synthetic_bin(&spec, seed, 1);
    let large_result = run_workload("synthetic_large", &mapper, &warm, &work, reps);

    // Workload 3: forwarding-heavy bin (§5 dominates; delay links fall
    // below the AS-diversity floor).
    let fwd_spec = ForwardingSpec::large();
    let warm = forwarding_bin(&fwd_spec, seed, 0);
    let work = forwarding_bin(&fwd_spec, seed, 1);
    let forwarding_result = run_workload("forwarding_heavy", &mapper, &warm, &work, reps);

    // Workload 4: mixed bin — both detectors' shard pipelines loaded in
    // the same combined (§4 ∥ §5) pass.
    let warm = mixed_bin(&spec, &fwd_spec, seed, 0);
    let work = mixed_bin(&spec, &fwd_spec, seed, 1);
    let mixed_result = run_workload("mixed_full", &mapper, &warm, &work, reps);

    // Workload 5: three-stream fleet — every stream's delay + forwarding
    // shards pooled onto ONE shared worker herd via the StreamRouter.
    let warm = multi_stream_feeds(3, seed, 0);
    let work = multi_stream_feeds(3, seed, 1);
    let multi_result = run_multi_workload("multi_stream", &mapper, &warm, &work, reps);

    // Workload 6: scatter-dominated ingestion bin — the record→row front
    // end is the cost; per-key analysis is nearly free. The work bin's
    // key universe equals the warm bin's, so the persistent intern epoch
    // must report zero insertions (asserted: this is the steady-state
    // no-insertion guarantee, gated on every bench run).
    let ingest_spec = IngestSpec::large();
    let warm = ingest_bin(&ingest_spec, seed, 0);
    let work = ingest_bin(&ingest_spec, seed, 1);
    let ingest_result = run_workload("ingest_heavy", &mapper, &warm, &work, reps);
    assert_eq!(
        ingest_result.intern_inserts, 0,
        "ingest_heavy steady-state bin performed intern insertions"
    );

    // The mixed-bin stream the service and checkpoint workloads replay.
    let stream_bins: Vec<Vec<TracerouteRecord>> = (0..5)
        .map(|b| mixed_bin(&spec, &fwd_spec, seed, b))
        .collect();

    // Workload 7: the mixed bin mangled by a hostile artifact model —
    // loops, false links, swapped replies, duplicated hops. The engine
    // parity gate now also proves both paths sanitize identically; the
    // standalone sanitizer pass is timed separately so its overhead is
    // tracked PR over PR, along with how much the pass quarantined.
    let artifact_model = ArtifactModel::hostile(seed);
    let corrupt_bin = |b: u64| {
        // Mixed (both detectors) plus the long ingest paths: loops and
        // false links need middle hops to land on.
        let mut records = mixed_bin(&spec, &fwd_spec, seed, b);
        records.extend(ingest_bin(&ingest_spec, seed, b));
        for rec in &mut records {
            artifact_model.corrupt(rec);
        }
        records
    };
    let warm = corrupt_bin(0);
    let work = corrupt_bin(1);
    let mut artifact_result = run_workload("artifact_heavy", &mapper, &warm, &work, reps);
    artifact_result.sanitize_ms = time_sanitize(&work, reps);
    assert!(
        artifact_result.quarantined > 0,
        "artifact_heavy work bin quarantined nothing — the workload is not exercising the sanitizer"
    );

    // Workload 8: the same mixed stream served end-to-end by the live
    // daemon — the collector/executor/reporter pipeline over bounded
    // queues, parity-gated byte-for-byte against the offline render,
    // with the collect→report latency and the queue high-water mark
    // recorded in the trajectory file.
    let service_result = run_service_workload("service_e2e", &mapper, &stream_bins, reps);

    // Workload 9: the three-stream AMS-IX outage with the empathy
    // extractor live in the merge funnel — the incremental event channel
    // parity-gated against the sequential reference and timed end to end.
    let event_result = run_event_workload("event_extraction", seed, reps);

    // Workload 10: grouping-bound bin — a horde of probes, one sample
    // each, so the per-shard (link, probe) key sort in `finalize` is the
    // bill. Exercises the LSD radix grouping path end to end; the key
    // universe is steady across bins (asserted zero insertions).
    let grouping_spec = GroupingSpec::large();
    let warm = grouping_bin(&grouping_spec, seed, 0);
    let work = grouping_bin(&grouping_spec, seed, 1);
    let grouping_result = run_workload("grouping_heavy", &mapper, &warm, &work, reps);
    assert_eq!(
        grouping_result.intern_inserts, 0,
        "grouping_heavy steady-state bin performed intern insertions"
    );

    // Workload 11: characterization-bound bin — few links, ~1.1k samples
    // each across five ASes, so the shard-level batched math (rank
    // selection + cached Wilson bounds + diversity verdicts) dominates.
    let char_spec = WorkloadSpec::characterize_heavy();
    let warm = synthetic_bin(&char_spec, seed, 0);
    let work = synthetic_bin(&char_spec, seed, 1);
    let characterize_result = run_workload("characterize_heavy", &mapper, &warm, &work, reps);

    // Workload 12: the mixed stream with a durable checkpoint after
    // every bin — the crash-safety tax at its most aggressive cadence,
    // with the isolated snapshot() wall and the snapshot size recorded,
    // and the snapshot/restore/resume byte-parity gates run every time.
    let checkpoint_result =
        run_checkpoint_workload("checkpoint_heavy", &mapper, &stream_bins, reps);

    let results = [
        steady_result,
        large_result,
        forwarding_result,
        mixed_result,
        multi_result,
        ingest_result,
        artifact_result,
        service_result,
        event_result,
        grouping_result,
        characterize_result,
        checkpoint_result,
    ];
    for r in &results {
        println!(
            "{:<16} {:>6} records {:>5} links | sequential {:>9.3} ms | parallel {:>9.3} ms | speedup {:>5.2}x | {:>10.0} rec/s | {:>4} intern inserts | sanitize {:>7.3} ms | {:>5} quarantined | e2e {:>7.3} ms | q-peak {} | {} event(s) / {} delta(s) | snapshot {:>7.3} ms / {} B",
            r.name,
            r.records,
            r.links,
            r.sequential_ms,
            r.parallel_ms,
            r.speedup(),
            r.records_per_sec_parallel(),
            r.intern_inserts,
            r.sanitize_ms,
            r.quarantined,
            r.e2e_latency_ms,
            r.queue_peak,
            r.events,
            r.event_deltas,
            r.snapshot_ms,
            r.snapshot_bytes,
        );
    }

    // Hand-rolled JSON (the workspace deliberately has no serde_json).
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"analyzer_process_bin\",\n");
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"hw_threads\": {threads},\n"));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"records\": {}, \"links\": {}, \"sequential_ms\": {:.3}, \"parallel_ms\": {:.3}, \"speedup\": {:.3}, \"records_per_sec_parallel\": {:.0}, \"intern_inserts\": {}, \"sanitize_ms\": {:.3}, \"quarantined\": {}, \"e2e_latency_ms\": {:.3}, \"queue_peak\": {}, \"events\": {}, \"event_deltas\": {}, \"snapshot_ms\": {:.3}, \"snapshot_bytes\": {}}}{}\n",
            r.name,
            r.records,
            r.links,
            r.sequential_ms,
            r.parallel_ms,
            r.speedup(),
            r.records_per_sec_parallel(),
            r.intern_inserts,
            r.sanitize_ms,
            r.quarantined,
            r.e2e_latency_ms,
            r.queue_peak,
            r.events,
            r.event_deltas,
            r.snapshot_ms,
            r.snapshot_bytes,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let mut file = std::fs::File::create(&out_path).expect("create bench output");
    file.write_all(json.as_bytes()).expect("write bench output");
    println!("wrote {out_path}");

    if let Some(baseline_path) = check_path {
        check_against_baseline(&results, &baseline_path);
    }
}
