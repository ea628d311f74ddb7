//! Engine parity on the Atlas-scale synthetic shapes of
//! `pinpoint_bench::workload`: one warm bin, then one work bin, through
//! `process_bin` (the sharded engine) and `pinpoint_bench::oracle` (the
//! paper-literal reference) — whole reports identical on every shape:
//! alarms, link statistics, record counts, AS magnitudes and event
//! deltas. The scenario-fed parity suites under `tests/` never reach these
//! volumes (hundreds of diversity-passing links, ~1k samples per link,
//! ~900 sort keys per shard, dozens of auto scatter chunks per bin); this
//! file is where they are checked. The CI parity matrix re-runs it under
//! `PINPOINT_THREADS` ∈ {1, 2, 4, 8}, exactly like the root parity suites.

use pinpoint_bench::oracle::{FleetOracle, Oracle};
use pinpoint_bench::workload::{
    forwarding_bin, grouping_bin, ingest_bin, mixed_bin, multi_stream_feeds, synthetic_bin,
    synthetic_mapper, ForwardingSpec, GroupingSpec, IngestSpec, WorkloadSpec,
};
use pinpoint_core::{Analyzer, BinReport, DetectorConfig, StreamRouter};
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::BinId;
use pinpoint_netsim::ArtifactModel;

const SEED: u64 = 2015;

/// Worker-thread count under test — the `tests/common` contract of the
/// root parity suites: `PINPOINT_THREADS` unset means 0 ("all cores"),
/// any other value must parse as a non-negative integer, and a value that
/// does not is a harness misconfiguration that fails loudly.
fn threads_from_env() -> usize {
    match std::env::var("PINPOINT_THREADS") {
        Ok(v) => v.trim().parse().unwrap_or_else(|_| {
            panic!(
                "PINPOINT_THREADS={v:?} is not a valid thread count: set PINPOINT_THREADS \
                 to 0 (use all cores) or a positive integer, e.g. \
                 `PINPOINT_THREADS=4 cargo test`"
            )
        }),
        Err(std::env::VarError::NotPresent) => 0,
        Err(std::env::VarError::NotUnicode(v)) => {
            panic!("PINPOINT_THREADS={v:?} is not valid unicode — cannot be a thread count")
        }
    }
}

/// The engine-side config: defaults at the matrix-selected thread count.
fn engine_config() -> DetectorConfig {
    DetectorConfig {
        threads: threads_from_env(),
        ..DetectorConfig::default()
    }
}

fn assert_reports_match(name: &str, a: &BinReport, b: &BinReport) {
    assert_eq!(a.bin, b.bin, "{name}: bin");
    assert_eq!(a.records, b.records, "{name}: records");
    assert_eq!(a.delay_alarms, b.delay_alarms, "{name}: delay alarms");
    assert_eq!(
        a.forwarding_alarms, b.forwarding_alarms,
        "{name}: forwarding alarms"
    );
    assert_eq!(a.link_stats, b.link_stats, "{name}: link stats");
    assert_eq!(a.magnitudes, b.magnitudes, "{name}: magnitudes");
    assert_eq!(a.events, b.events, "{name}: event deltas");
}

/// Warm the engine and the oracle on `bin(0)`, compare them on `bin(1)`,
/// and hand back the engine-side analyzer so the caller can read its
/// per-bin counters.
fn check_shape(name: &str, bin: impl Fn(u64) -> Vec<TracerouteRecord>) -> Analyzer {
    let mut engine = Analyzer::new(engine_config(), synthetic_mapper());
    let mut oracle = Oracle::new(DetectorConfig::default(), synthetic_mapper());
    let warm = bin(0);
    assert_reports_match(
        &format!("{name} warm"),
        &engine.process_bin(BinId(0), &warm),
        &oracle.process_bin(BinId(0), &warm),
    );
    let work = bin(1);
    let a = engine.process_bin(BinId(1), &work);
    let b = oracle.process_bin(BinId(1), &work);
    assert_reports_match(name, &a, &b);
    assert_eq!(engine.sanitize_stats(), oracle.sanitize_stats(), "{name}");
    engine
}

#[test]
fn synthetic_large() {
    let spec = WorkloadSpec::large();
    check_shape("synthetic_large", |b| synthetic_bin(&spec, SEED, b));
}

#[test]
fn forwarding_heavy() {
    let spec = ForwardingSpec::large();
    check_shape("forwarding_heavy", |b| forwarding_bin(&spec, SEED, b));
}

#[test]
fn mixed_full() {
    let (delay, forwarding) = (WorkloadSpec::large(), ForwardingSpec::large());
    check_shape("mixed_full", |b| mixed_bin(&delay, &forwarding, SEED, b));
}

#[test]
fn ingest_heavy_is_steady_state() {
    let spec = IngestSpec::large();
    let engine = check_shape("ingest_heavy", |b| ingest_bin(&spec, SEED, b));
    // The work bin replays the warm bin's key universe.
    assert_eq!(engine.ingest_stats().bin_insertions, 0);
}

#[test]
fn grouping_heavy_is_steady_state() {
    let spec = GroupingSpec::large();
    let engine = check_shape("grouping_heavy", |b| grouping_bin(&spec, SEED, b));
    assert_eq!(engine.ingest_stats().bin_insertions, 0);
}

#[test]
fn characterize_heavy() {
    let spec = WorkloadSpec::characterize_heavy();
    check_shape("characterize_heavy", |b| synthetic_bin(&spec, SEED, b));
}

/// The mixed bin plus the long ingest paths (loops and false links need
/// middle hops to land on), every record run through a hostile
/// `ArtifactModel`: the engine must sanitize as the oracle does, and the
/// sanitizer must actually have something to quarantine.
#[test]
fn artifact_heavy_quarantines_on_both_paths() {
    let (delay, forwarding) = (WorkloadSpec::large(), ForwardingSpec::large());
    let ingest = IngestSpec::large();
    let model = ArtifactModel::hostile(SEED);
    let engine = check_shape("artifact_heavy", |b| {
        let mut records = mixed_bin(&delay, &forwarding, SEED, b);
        records.extend(ingest_bin(&ingest, SEED, b));
        for rec in &mut records {
            model.corrupt(rec);
        }
        records
    });
    assert!(engine.sanitize_stats().bin_quarantined > 0);
}

#[test]
fn multi_stream_fleet() {
    let cfg = engine_config();
    let mut engine = StreamRouter::new();
    let mut oracle = FleetOracle::new(DetectorConfig::default().magnitude_window_bins);
    for i in 0..3 {
        engine.add_stream(
            format!("stream-{i}"),
            Analyzer::new(cfg.clone(), synthetic_mapper()),
        );
        oracle.add_stream(Oracle::new(DetectorConfig::default(), synthetic_mapper()));
    }
    engine.set_threads(cfg.threads);
    for b in 0..2 {
        let feeds = multi_stream_feeds(3, SEED, b);
        let a = engine.process_bin(BinId(b), &feeds);
        let o = oracle.process_bin(BinId(b), &feeds);
        assert_eq!(a.streams.len(), o.streams.len());
        for (i, (ra, ro)) in a.streams.iter().zip(&o.streams).enumerate() {
            assert_reports_match(&format!("multi_stream[{i}] bin {b}"), ra, ro);
        }
        assert_eq!(
            a.magnitudes, o.magnitudes,
            "multi_stream bin {b}: magnitudes"
        );
        assert_eq!(a.events, o.events, "multi_stream bin {b}: event deltas");
    }
}
