//! Incremental event-channel parity: the fleet event deltas emitted per
//! bin by the empathy extractor — through `Analyzer::aggregate` and
//! `StreamRouter::merge`, the two funnels every execution path shares —
//! must be *byte-for-byte* identical for any thread count (and so for
//! both auto chunk cuts); the fold of those deltas must equal the ranked
//! table `events()` returns, and a fresh extractor's over the same
//! evidence; and the channel must survive
//! mid-stream intern compaction unchanged.
//!
//! Like the other parity suites, the CI matrix re-runs this file under
//! `PINPOINT_THREADS` via `common::parity_config`; the tests additionally
//! sweep threads locally, so every matrix point proves several schedules.

#[allow(dead_code)]
mod common;

use common::parity_config;
use pinpoint::core::aggregate::{EmpathyExtractor, StreamEvidence};
use pinpoint::core::{render, AnalysisSession, DetectorConfig, EventTable, FleetReport};
use pinpoint::model::json::Value;
use pinpoint::model::records::TracerouteRecord;
use pinpoint::model::BinId;
use pinpoint::scenarios::{ixp, multi, Scale};
use pinpoint_bench::oracle::FleetOracle;

/// Render one bin's event deltas the way the service does — the byte
/// sequence under test.
fn deltas_json(report: &FleetReport) -> String {
    Value::Array(report.events.iter().map(render::event).collect()).to_string()
}

/// A fresh multi-stream AMS-IX case with the given detector config.
/// `case_study` is deterministic in its seed, so every call replays the
/// identical feed.
fn fresh_case(cfg: DetectorConfig) -> multi::MultiStreamCase {
    let mut case = multi::case_study(2015, Scale::Small);
    case.cfg = cfg;
    case
}

/// Run the outage window bin by bin through `step`, returning each bin's
/// rendered deltas plus the final ranked listing (rendered from the delta
/// fold, exactly as the service reporter serves it).
fn fold_window(
    case: &multi::MultiStreamCase,
    mut step: impl FnMut(BinId, &[Vec<TracerouteRecord>]) -> FleetReport,
) -> (Vec<String>, String) {
    let (outage_start, outage_end) = ixp::outage_bins();
    let mut per_bin = Vec::new();
    let mut table = EventTable::new();
    for bin in outage_start - 4..outage_end + 2 {
        let report = step(BinId(bin), &case.collect_bin(BinId(bin)));
        table.absorb(&report.events);
        per_bin.push(deltas_json(&report));
    }
    (per_bin, render::events(&table.ranked()).to_string())
}

/// Drive the outage window through a fleet session.
fn drive(cfg: DetectorConfig) -> (Vec<String>, String) {
    let case = fresh_case(cfg);
    let mut router = case.router();
    let mut session = router.session(0);
    fold_window(&case, |bin, feeds| {
        session
            .push_bin(bin, feeds)
            .expect("every push reports its own bin")
    })
}

/// The same window through the oracle fleet, which has no intern tables
/// to compact.
fn drive_oracle(cfg: DetectorConfig) -> (Vec<String>, String) {
    let case = fresh_case(cfg);
    let mut oracle = FleetOracle::for_case(&case);
    fold_window(&case, |bin, feeds| oracle.process_bin(bin, feeds))
}

/// The incremental event channel through the AMS-IX outage must emit the
/// identical bytes for the env-selected matrix point and a local thread
/// sweep.
#[test]
fn fleet_event_deltas_are_byte_identical_across_schedules() {
    let (want_bins, want_listing) = drive(DetectorConfig::fast_test());
    assert!(
        want_bins.iter().any(|b| b != "[]"),
        "the outage emitted no event deltas — parity would only be proven on quiet bins"
    );

    // The env-selected matrix point (CI exports the axes).
    let (got_bins, got_listing) = drive(parity_config());
    assert_eq!(got_bins, want_bins, "deltas diverged at the matrix point");
    assert_eq!(got_listing, want_listing);

    // A local sweep over both auto chunk cuts (one worker: 128 records;
    // more: 512), including a thread count that doesn't divide the shard
    // count.
    for threads in [1usize, 2, 3] {
        let mut cfg = DetectorConfig::fast_test();
        cfg.threads = threads;
        let (got_bins, got_listing) = drive(cfg);
        assert_eq!(got_bins, want_bins, "deltas diverged at threads {threads}");
        assert_eq!(got_listing, want_listing);
    }
}

/// The fold of the emitted deltas must equal the session's cumulative
/// `events()` table AND a fresh extractor replaying the same evidence — the
/// incremental channel loses nothing and invents nothing.
#[test]
fn delta_fold_equals_post_hoc_extraction() {
    let case = fresh_case(parity_config());
    let (outage_start, outage_end) = ixp::outage_bins();

    let mut router = case.router();
    let mut session = router.session(0);
    let mut reports: Vec<FleetReport> = Vec::new();
    for bin in outage_start - 4..outage_end + 2 {
        let feeds = case.collect_bin(BinId(bin));
        reports.extend(session.push_bin(BinId(bin), &feeds));
    }

    let mut table = EventTable::new();
    for report in &reports {
        table.absorb(&report.events);
    }
    assert!(!table.is_empty(), "the outage produced no events");

    // The session's own ranked view is the same fold.
    assert_eq!(session.events(), table.ranked());

    // A fresh extractor replaying the emitted per-stream evidence lands
    // on the identical table: incremental emission IS the extraction.
    let mut replay = EmpathyExtractor::new(&case.cfg);
    let mut replay_table = EventTable::new();
    for report in &reports {
        let evidence: Vec<StreamEvidence<'_>> = report
            .streams
            .iter()
            .map(|r| StreamEvidence {
                delay: &r.delay_alarms,
                forwarding: &r.forwarding_alarms,
                mapper: &case.mapper,
            })
            .collect();
        let deltas = replay.observe(report.bin, &evidence, &report.magnitudes);
        replay_table.absorb(&deltas);
    }
    assert_eq!(replay.events(), table.ranked());
    assert_eq!(replay_table.ranked(), table.ranked());
}

/// The channel must survive intern compaction: with a short reference
/// expiry the intern tables compact mid-stream, and the deltas must still
/// match the oracle — which interns nothing — byte for byte.
#[test]
fn event_channel_survives_compaction_drain_fence() {
    let mut cfg = parity_config();
    cfg.reference_expiry_bins = 3;

    let (want_bins, want_listing) = drive_oracle(cfg.clone());
    assert!(
        want_bins.iter().any(|b| b != "[]"),
        "no deltas through the compaction schedule"
    );
    let (got_bins, got_listing) = drive(cfg);
    assert_eq!(got_bins, want_bins, "deltas diverged across compaction");
    assert_eq!(got_listing, want_listing);
}
