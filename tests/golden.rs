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
//! `alarm_graphs_are_pinned` pins every bin's rendered alarm graph over
//! the same windows, from the same replays.
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
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// `(len, crc32)` of a byte string.
type Digest = (usize, u32);

/// One golden row: the seed, the half-open bin window, and the digests
/// of the concatenated reports and of the folded event listing.
type Row = (u64, (u64, u64), Digest, Digest);

/// The digests of one replay: every bin's rendered report concatenated,
/// the folded `--events` listing, and every bin's rendered alarm graph
/// concatenated (the `/bins/{id}/graph` bodies).
#[derive(Debug, Clone, Copy)]
struct Replay {
    reports: Digest,
    events: Digest,
    graphs: Digest,
}

fn digest(bytes: &str) -> Digest {
    (bytes.len(), crc32(bytes.as_bytes()))
}

fn config() -> DetectorConfig {
    let mut cfg = DetectorConfig::fast_test();
    cfg.threads = threads_from_env();
    cfg
}

/// Replay `case` over `window` through one analyzer session.
fn solo(mut case: CaseStudy, window: (u64, u64)) -> Replay {
    case.cfg = config();
    case.start_bin = BinId(window.0);
    case.end_bin = BinId(window.1);
    let mut analyzer = case.analyzer();
    let mut reports = String::new();
    let mut graphs = String::new();
    let mut table = EventTable::new();
    run(&case, &mut analyzer, |report| {
        reports.push_str(&render::bin_report(report).to_string());
        graphs.push_str(&render::alarm_graph(&report.alarm_graph()).to_string());
        table.absorb(&report.events);
    });
    Replay {
        reports: digest(&reports),
        events: digest(&render::events(&table.ranked()).to_string()),
        graphs: digest(&graphs),
    }
}

/// Replay the three-stream AMS-IX fleet over `window`.
fn fleet(seed: u64, window: (u64, u64)) -> Replay {
    let mut case = multi::case_study(seed, Scale::Small);
    case.cfg = config();
    let mut router = case.router();
    let mut reports = String::new();
    let mut graphs = String::new();
    let mut table = EventTable::new();
    for bin in window.0..window.1 {
        let report = router.process_bin(BinId(bin), &case.collect_bin(BinId(bin)));
        reports.push_str(&render::fleet_report(&report).to_string());
        graphs.push_str(&render::alarm_graph(&report.alarm_graph()).to_string());
        table.absorb(&report.events);
    }
    Replay {
        reports: digest(&reports),
        events: digest(&render::events(&table.ranked()).to_string()),
        graphs: digest(&graphs),
    }
}

/// Replay one scenario's window at `seed`, once per test binary: the
/// report rows and the graph pin read the same replays, and a test that
/// asks for a replay another test is running waits for it.
fn replay(scenario: &'static str, seed: u64, window: (u64, u64)) -> Replay {
    type Key = (&'static str, u64, (u64, u64));
    static DONE: Mutex<BTreeMap<Key, Arc<OnceLock<Replay>>>> = Mutex::new(BTreeMap::new());
    let slot = Arc::clone(
        DONE.lock()
            .unwrap()
            .entry((scenario, seed, window))
            .or_default(),
    );
    *slot.get_or_init(|| match scenario {
        "steady" => solo(steady::case_study(seed, Scale::Small), window),
        "ddos" => solo(ddos::case_study(seed, Scale::Small), window),
        "leak" => solo(leak::case_study(seed, Scale::Small), window),
        "ixp" => solo(ixp::case_study(seed, Scale::Small), window),
        "ixp hostile" => {
            let mut case = ixp::case_study(seed, Scale::Small);
            case.platform
                .set_artifact_model(Some(ArtifactModel::hostile(seed)));
            solo(case, window)
        }
        "multi" => fleet(seed, window),
        other => panic!("no replay named {other:?}"),
    })
}

/// Compare every row, reporting all mismatches at once with the rows to
/// paste.
fn check(scenario: &'static str, rows: &[Row]) {
    let mut wrong = Vec::new();
    for &(seed, window, reports, events) in rows {
        let got = replay(scenario, seed, window);
        if (got.reports, got.events) != (reports, events) {
            wrong.push(format!(
                "({seed}, {window:?}, {:?}, {:?}), // want ({reports:?}, {events:?})",
                got.reports, got.events
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
    );
}

/// The `/bins/{id}/graph` bytes of the same windows: every bin's
/// `render::alarm_graph` concatenated (`BinReport::alarm_graph` for a
/// solo analyzer, `FleetReport::alarm_graph` for `multi`). The report
/// rows above do not carry the graph, so a change to the alarm graph's
/// edges, flags or component order shows here and nowhere else.
#[test]
fn alarm_graphs_are_pinned() {
    let rows: &[(&str, u64, (u64, u64), Digest)] = &[
        ("steady", 7, (0, 12), (967, 2877312500)),
        ("steady", 2015, (0, 12), (1018, 1702253809)),
        ("ddos", 7, (98, 108), (9578, 3807407091)),
        ("ddos", 2015, (98, 108), (9659, 285330040)),
        ("leak", 7, (100, 112), (24862, 1880905141)),
        ("leak", 2015, (100, 112), (17361, 313362653)),
        ("ixp", 7, (126, 134), (1249, 1389463131)),
        ("ixp", 2015, (126, 134), (707, 1520919147)),
        ("ixp hostile", 7, (126, 134), (8674, 4292504900)),
        ("ixp hostile", 2015, (126, 134), (6275, 2998137925)),
        ("multi", 7, (126, 134), (758, 2371009373)),
        ("multi", 2015, (126, 134), (598, 993073608)),
    ];
    let mut wrong = Vec::new();
    for &(scenario, seed, window, graphs) in rows {
        let got = replay(scenario, seed, window).graphs;
        if got != graphs {
            wrong.push(format!(
                "({scenario:?}, {seed}, {window:?}, {got:?}), // want {graphs:?}"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "alarm graph digests moved:\n{}",
        wrong.join("\n")
    );
}
