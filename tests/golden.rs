//! Golden report digests: what the system says, pinned.
//!
//! The parity suites prove that two ways of running a bin agree; they
//! cannot see a change that moves both. This file pins the bytes
//! themselves. Each row maps (scenario, seed, bins) to the
//! `(len, crc32)` of every bin's rendered report concatenated
//! (`render::bin_report` for a solo analyzer, `render::fleet_report`
//! for the `multi` fleet) and of the final `--events` listing (the
//! event deltas folded into an `EventTable`, rendered with
//! `render::events` — the bytes `pinpointd --offline --events` prints).
//!
//! The windows are short slices of the `Small` scenarios around each
//! scenario's event, under `DetectorConfig::fast_test`. The thread count
//! comes from `PINPOINT_THREADS`; output is byte-identical for every
//! value, so the table holds at every point of the CI matrix.
//!
//! A change that moves a digest on purpose names the digest and the
//! reason in CHANGES.md; on a mismatch the failure message prints the
//! row to paste.

#[allow(dead_code)]
mod common;

use common::threads_from_env;
use pinpoint::core::snapshot::crc32;
use pinpoint::core::{render, DetectorConfig, EventTable};
use pinpoint::model::BinId;
use pinpoint::netsim::ArtifactModel;
use pinpoint::scenarios::runner::{run, CaseStudy};
use pinpoint::scenarios::{ddos, ixp, leak, multi, steady, Scale};

/// `(len, crc32)` of a byte string.
type Digest = (usize, u32);

/// One golden row: the seed, the half-open bin window, and the digests
/// of the concatenated reports and of the folded event listing.
type Row = (u64, (u64, u64), Digest, Digest);

fn digest(bytes: &str) -> Digest {
    (bytes.len(), crc32(bytes.as_bytes()))
}

fn config() -> DetectorConfig {
    let mut cfg = DetectorConfig::fast_test();
    cfg.threads = threads_from_env();
    cfg
}

/// Replay `case` over `window` through one analyzer session.
fn solo(mut case: CaseStudy, window: (u64, u64)) -> (Digest, Digest) {
    case.cfg = config();
    case.start_bin = BinId(window.0);
    case.end_bin = BinId(window.1);
    let mut analyzer = case.analyzer();
    let mut reports = String::new();
    let mut table = EventTable::new();
    run(&case, &mut analyzer, |report| {
        reports.push_str(&render::bin_report(report).to_string());
        table.absorb(&report.events);
    });
    (
        digest(&reports),
        digest(&render::events(&table.ranked()).to_string()),
    )
}

/// Replay the three-stream AMS-IX fleet over `window`.
fn fleet(seed: u64, window: (u64, u64)) -> (Digest, Digest) {
    let mut case = multi::case_study(seed, Scale::Small);
    case.cfg = config();
    let mut router = case.router();
    let mut reports = String::new();
    let mut table = EventTable::new();
    for bin in window.0..window.1 {
        let report = router.process_bin(BinId(bin), &case.collect_bin(BinId(bin)));
        reports.push_str(&render::fleet_report(&report).to_string());
        table.absorb(&report.events);
    }
    (
        digest(&reports),
        digest(&render::events(&table.ranked()).to_string()),
    )
}

/// Compare every row, reporting all mismatches at once with the rows to
/// paste.
fn check(scenario: &str, rows: &[Row], replay: impl Fn(u64, (u64, u64)) -> (Digest, Digest)) {
    let mut wrong = Vec::new();
    for &(seed, window, reports, events) in rows {
        let got = replay(seed, window);
        if got != (reports, events) {
            wrong.push(format!(
                "({seed}, {window:?}, {:?}, {:?}), // want ({reports:?}, {events:?})",
                got.0, got.1
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "{scenario}: golden digests moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn steady_reports_are_pinned() {
    check(
        "steady",
        &[
            (7, (0, 12), (239423, 3733431525), (43, 617125085)),
            (2015, (0, 12), (235510, 2325562968), (43, 617125085)),
        ],
        |seed, window| solo(steady::case_study(seed, Scale::Small), window),
    );
}

#[test]
fn ddos_reports_are_pinned() {
    check(
        "ddos",
        &[
            (7, (98, 108), (197052, 171132304), (633, 1392804075)),
            (2015, (98, 108), (217127, 403014208), (663, 2973761193)),
        ],
        |seed, window| solo(ddos::case_study(seed, Scale::Small), window),
    );
}

#[test]
fn leak_reports_are_pinned() {
    check(
        "leak",
        &[
            (7, (100, 112), (299381, 1965903598), (1040, 3124240440)),
            (2015, (100, 112), (295719, 1154162973), (895, 4003859982)),
        ],
        |seed, window| solo(leak::case_study(seed, Scale::Small), window),
    );
}

#[test]
fn ixp_reports_are_pinned() {
    // The outage bins (130, 132) with a warm-up in front and a recovery
    // bin behind; `ixp hostile` and `multi` replay the same window.
    assert_eq!(ixp::outage_bins(), (130, 132));
    check(
        "ixp",
        &[
            (7, (126, 134), (142831, 2927747916), (615, 4276818994)),
            (2015, (126, 134), (155128, 284702062), (558, 661640476)),
        ],
        |seed, window| solo(ixp::case_study(seed, Scale::Small), window),
    );
}

#[test]
fn ixp_under_hostile_artifacts_reports_are_pinned() {
    check(
        "ixp hostile",
        &[
            (7, (126, 134), (374950, 1711246349), (1158, 610324889)),
            (2015, (126, 134), (379488, 2492228171), (1750, 1037153110)),
        ],
        |seed, window| {
            let mut case = ixp::case_study(seed, Scale::Small);
            case.platform
                .set_artifact_model(Some(ArtifactModel::hostile(seed)));
            solo(case, window)
        },
    );
}

#[test]
fn multi_fleet_reports_are_pinned() {
    check(
        "multi",
        &[
            (7, (126, 134), (104555, 2034513113), (518, 3749499009)),
            (2015, (126, 134), (130444, 847800825), (454, 605720817)),
        ],
        fleet,
    );
}
