//! Snapshot/restore parity: serializing the complete resumable state at
//! an arbitrary bin cut and restoring it — in the same process or from
//! bytes alone, as a fresh process would — must leave the remaining bins
//! byte-identical to the uninterrupted run. Like the other parity
//! suites, the CI matrix re-runs this file under `PINPOINT_THREADS`; the
//! snapshot determinism rule (the thread count normalized out, maps in
//! sorted or dense-id order — see `pinpoint_core::snapshot`) makes the
//! bytes themselves stable across that matrix too.

#[allow(dead_code)]
mod common;

use common::{assert_reports_identical, parity_config};
use pinpoint::core::aggregate::AsMapper;
use pinpoint::core::{
    AnalysisSession, Analyzer, BinReport, DetectorConfig, FleetReport, StreamRouter,
};
use pinpoint::model::records::{Hop, Reply, TracerouteRecord};
use pinpoint::model::{Asn, BinId, MeasurementId, ProbeId, SimTime};
use pinpoint::scenarios::{ixp, Scale};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn mapper() -> AsMapper {
    AsMapper::from_prefixes([
        ("10.0.0.0/8".parse().unwrap(), Asn(64500)),
        ("198.51.0.0/16".parse().unwrap(), Asn(64501)),
    ])
}

/// Three probes in three ASes traverse one link with a controllable
/// delay; `surge` fires a delay alarm once references are warm.
fn delay_records(bin: u64, surge: bool) -> Vec<TracerouteRecord> {
    let (near, far, dst) = (
        Ipv4Addr::new(10, 1, 0, 1),
        Ipv4Addr::new(10, 1, 0, 2),
        Ipv4Addr::new(198, 51, 100, 1),
    );
    let link_delay = if surge { 34.0 } else { 2.0 };
    let mut out = Vec::new();
    for (probe, asn, eps) in [(1u32, 100u32, 0.4), (2, 200, -0.8), (3, 300, 1.3)] {
        for shot in 0..2u64 {
            let base = 10.0 + eps + 0.05 * shot as f64;
            out.push(TracerouteRecord {
                msm_id: MeasurementId(1),
                probe_id: ProbeId(probe),
                probe_asn: Asn(asn),
                dst,
                timestamp: SimTime(bin * 3600 + shot * 1800),
                paris_id: 0,
                hops: vec![
                    Hop::new(
                        1,
                        (0..3)
                            .map(|k| Reply::new(near, base + 0.01 * f64::from(k)))
                            .collect(),
                    ),
                    Hop::new(
                        2,
                        (0..3)
                            .map(|k| Reply::new(far, base + link_delay + 0.01 * f64::from(k)))
                            .collect(),
                    ),
                    Hop::new(3, vec![Reply::new(dst, base + link_delay + 2.0); 3]),
                ],
                destination_reached: true,
            });
        }
    }
    out
}

/// One churn traceroute over keys unique to `bin` — interns fresh keys
/// every bin so compaction sweeps and eviction counters are live state
/// the snapshot must carry.
fn churn_records(bin: u64) -> Vec<TracerouteRecord> {
    let near = Ipv4Addr::new(10, 9, (bin % 250) as u8, 1);
    let far = Ipv4Addr::new(10, 9, (bin % 250) as u8, 2);
    vec![TracerouteRecord {
        msm_id: MeasurementId(9),
        probe_id: ProbeId(9_000 + bin as u32),
        probe_asn: Asn(64900),
        dst: Ipv4Addr::new(198, 51, 200, (bin % 250) as u8),
        timestamp: SimTime(bin * 3600 + 7),
        paris_id: 0,
        hops: vec![
            Hop::new(1, vec![Reply::new(near, 3.0); 3]),
            Hop::new(2, vec![Reply::new(far, 5.0); 3]),
        ],
        destination_reached: true,
    }]
}

/// A schedule with warm references, churn, an empty bin, and a surge bin
/// — every kind of state a snapshot has to carry.
fn schedule() -> Vec<(BinId, Vec<TracerouteRecord>)> {
    (0..12u64)
        .map(|b| {
            let mut records = if b == 5 {
                Vec::new()
            } else {
                delay_records(b, b == 9)
            };
            if b < 4 {
                records.extend(churn_records(b));
            }
            (BinId(b), records)
        })
        .collect()
}

/// The uninterrupted reference reports over a schedule.
fn uninterrupted(cfg: &DetectorConfig, bins: &[(BinId, Vec<TracerouteRecord>)]) -> Vec<BinReport> {
    let mut analyzer = Analyzer::new(cfg.clone(), mapper());
    bins.iter()
        .map(|(bin, records)| analyzer.process_bin(*bin, records))
        .collect()
}

/// Snapshot-at-cut + restore + remaining bins must reproduce the
/// uninterrupted reports byte for byte — at every cut point, on the
/// matrix-selected configuration, restoring both with the auto thread
/// count (`Analyzer::restore`) and with the matrix thread count re-pinned
/// (`Analyzer::restore_with`).
#[test]
fn restore_at_every_cut_resumes_byte_identical() {
    let cfg = parity_config();
    let bins = schedule();
    let want = uninterrupted(&cfg, &bins);
    assert!(
        want.iter().any(|r| !r.delay_alarms.is_empty()),
        "the schedule fired no alarms — parity would only be proven on quiet bins"
    );

    for cut in 0..=bins.len() {
        let mut head = Analyzer::new(cfg.clone(), mapper());
        for (bin, records) in &bins[..cut] {
            head.process_bin(*bin, records);
        }
        let bytes = head.snapshot();

        // Fresh-process restore: only the bytes cross the boundary.
        let mut tail = Analyzer::restore(&bytes).expect("restore");
        for ((bin, records), reference) in bins[cut..].iter().zip(&want[cut..]) {
            let got = tail.process_bin(*bin, records);
            assert_reports_identical(&got, reference, &format!("cut {cut} bin {bin:?}"));
        }

        // Restore with the matrix thread count re-pinned.
        let mut pinned =
            Analyzer::restore_with(&bytes, |c| c.threads = cfg.threads).expect("restore_with");
        for ((bin, records), reference) in bins[cut..].iter().zip(&want[cut..]) {
            let got = pinned.process_bin(*bin, records);
            assert_reports_identical(&got, reference, &format!("pinned cut {cut} bin {bin:?}"));
        }
    }
}

/// The snapshot determinism rule: the same analytic state must yield the
/// same bytes no matter which thread count (and so which chunk cut)
/// produced it — and re-snapshotting a restored analyzer reproduces the
/// bytes exactly (the codec round-trips losslessly).
#[test]
fn snapshot_bytes_are_identical_across_the_scheduling_matrix() {
    let bins = schedule();
    let mut reference_bytes: Option<Vec<u8>> = None;
    for threads in [1usize, 2, 3, 5, 0] {
        let mut cfg = DetectorConfig::fast_test();
        cfg.threads = threads;
        let mut analyzer = Analyzer::new(cfg, mapper());
        let mut session = analyzer.session(0);
        for (bin, records) in &bins {
            session.push_bin(*bin, records);
        }
        let bytes = session.checkpoint();
        match &reference_bytes {
            None => reference_bytes = Some(bytes),
            Some(want) => assert_eq!(&bytes, want, "snapshot bytes diverged at threads={threads}"),
        }
    }
    // Lossless round-trip: restore + re-snapshot reproduces the bytes.
    let bytes = reference_bytes.unwrap();
    let restored = Analyzer::restore(&bytes).expect("restore");
    assert_eq!(
        restored.snapshot(),
        bytes,
        "restore + snapshot is not the identity"
    );
}

/// The session-level checkpoint: snapshot a running session mid-stream,
/// restore a fresh session from the bytes, and finish the run —
/// byte-identical through the realistic AMS-IX outage scenario.
#[test]
fn session_checkpoint_resumes_through_ixp_outage() {
    let case = ixp::case_study(7, Scale::Small);
    let (outage_start, outage_end) = ixp::outage_bins();
    let bins: Vec<(BinId, Vec<TracerouteRecord>)> = (outage_start - 3..outage_end + 2)
        .map(|b| (BinId(b), case.platform.collect_bin(BinId(b))))
        .collect();
    let cut = bins.len() / 2; // mid-outage

    let cfg = parity_config();
    let mut reference = Analyzer::new(cfg.clone(), case.mapper.clone());
    let want: Vec<BinReport> = bins
        .iter()
        .map(|(bin, records)| reference.process_bin(*bin, records))
        .collect();
    assert!(
        want.iter().any(|r| !r.forwarding_alarms.is_empty()),
        "the outage fired no alarms"
    );

    let mut got: Vec<BinReport> = Vec::new();
    let bytes = {
        let mut head = Analyzer::new(cfg.clone(), case.mapper.clone());
        let mut session = head.session(0);
        for (bin, records) in &bins[..cut] {
            got.extend(session.push_bin(*bin, records));
        }
        session.checkpoint()
    };
    let mut tail = Analyzer::restore_with(&bytes, |c| c.threads = cfg.threads).expect("restore");
    let mut session = tail.session(0);
    for (bin, records) in &bins[cut..] {
        got.extend(session.push_bin(*bin, records));
    }
    assert_eq!(got.len(), want.len(), "report count");
    for (a, b) in got.iter().zip(&want) {
        assert_reports_identical(a, b, &format!("bin {:?}", a.bin));
    }
    // The cumulative event channel also survived the boundary.
    assert_eq!(tail.events(), reference.events(), "events");
}

/// One bin of the two-stream fleet's feeds: a delay stream with a surge
/// at bin 9 beside a stream that churns keys for its first four bins.
fn fleet_feeds(bin: u64) -> Vec<Vec<TracerouteRecord>> {
    vec![
        delay_records(bin, bin == 9),
        if bin < 4 {
            churn_records(bin)
        } else {
            delay_records(bin, false)
        },
    ]
}

/// The two-stream fleet those feeds run through.
fn fleet(cfg: &DetectorConfig) -> StreamRouter {
    let mut router = StreamRouter::with_magnitude_window(cfg.magnitude_window_bins);
    router.add_stream("alpha", Analyzer::new(cfg.clone(), mapper()));
    router.add_stream("beta", Analyzer::new(cfg.clone(), mapper()));
    router.set_threads(cfg.threads);
    router.register_ases([Asn(64500)]);
    router
}

/// Fleet snapshots carry every stream's label and analyzer plus the
/// fleet-level baseline and event channel; restoring resumes the merged
/// reports byte-identically.
#[test]
fn fleet_snapshot_resumes_byte_identical() {
    let cfg = parity_config();
    let mut reference = fleet(&cfg);
    let want: Vec<FleetReport> = (0..12u64)
        .map(|b| reference.process_bin(BinId(b), &fleet_feeds(b)))
        .collect();

    for cut in [0usize, 1, 5, 10, 12] {
        let mut head = fleet(&cfg);
        for b in 0..cut as u64 {
            head.process_bin(BinId(b), &fleet_feeds(b));
        }
        let bytes = head.snapshot();
        let mut tail = StreamRouter::restore(&bytes).expect("fleet restore");
        assert_eq!(tail.len(), 2, "cut {cut}: stream count");
        assert_eq!(tail.label(pinpoint::core::StreamId(0)), "alpha");
        for b in cut as u64..12 {
            let got = tail.process_bin(BinId(b), &fleet_feeds(b));
            let reference = &want[b as usize];
            assert_eq!(got.bin, reference.bin, "cut {cut} bin {b}");
            assert_eq!(
                got.magnitudes, reference.magnitudes,
                "cut {cut} bin {b}: merged magnitudes"
            );
            assert_eq!(got.events, reference.events, "cut {cut} bin {b}: events");
            for (i, (ra, rb)) in got.streams.iter().zip(&reference.streams).enumerate() {
                assert_reports_identical(ra, rb, &format!("cut {cut} bin {b} stream {i}"));
            }
        }
        assert_eq!(tail.events(), reference.events(), "cut {cut}: fleet events");
    }
}

/// The wire format itself, not just self-consistency: the bytes a build
/// writes for a fixed schedule are pinned, so a refactor of any codec
/// (config, references, intern arenas, trackers, events) that reorders or
/// resizes a field fails here instead of silently orphaning every
/// checkpoint on disk. The solo schedule includes the churn bins, so
/// compacted tables and eviction counters are in the bytes; the fleet is
/// the two-stream router of `fleet_snapshot_resumes_byte_identical`.
///
/// A deliberate format change bumps `VERSION` in
/// `crates/core/src/snapshot.rs` and these four constants together.
#[test]
fn snapshot_bytes_are_pinned_to_format_version_2() {
    const SOLO: (usize, u32) = (3493, 2_121_014_078);
    const FLEET: (usize, u32) = (7175, 2_054_407_611);
    let pin = |bytes: &[u8]| (bytes.len(), pinpoint::core::snapshot::crc32(bytes));

    let cfg = parity_config();
    let mut analyzer = Analyzer::new(cfg.clone(), mapper());
    for (bin, records) in schedule() {
        analyzer.process_bin(bin, &records);
    }
    let solo = analyzer.snapshot();
    assert_eq!(&solo[4..8], &2u32.to_le_bytes(), "format version");
    assert_eq!(pin(&solo), SOLO, "solo snapshot (len, crc32)");

    let mut router = fleet(&cfg);
    for b in 0..12u64 {
        router.process_bin(BinId(b), &fleet_feeds(b));
    }
    assert_eq!(
        pin(&router.snapshot()),
        FLEET,
        "fleet snapshot (len, crc32)"
    );
}

/// Corrupt or truncated snapshots must be rejected with an error — never
/// a panic, never a silently wrong analyzer.
#[test]
fn truncated_and_corrupt_snapshots_are_rejected_not_panics() {
    let mut analyzer = Analyzer::new(DetectorConfig::fast_test(), mapper());
    for (bin, records) in schedule() {
        analyzer.process_bin(bin, &records);
    }
    let bytes = analyzer.snapshot();

    // Every proper prefix fails cleanly.
    for cut in 0..bytes.len() {
        assert!(
            Analyzer::restore(&bytes[..cut]).is_err(),
            "truncation at {cut}/{} was accepted",
            bytes.len()
        );
    }
    // Trailing garbage fails cleanly.
    let mut padded = bytes.clone();
    padded.extend_from_slice(b"garbage");
    assert!(
        Analyzer::restore(&padded).is_err(),
        "trailing bytes accepted"
    );
    // A fleet snapshot is not an analyzer snapshot and vice versa.
    let fleet_bytes = StreamRouter::new().snapshot();
    assert!(Analyzer::restore(&fleet_bytes).is_err(), "kind confusion");
    assert!(StreamRouter::restore(&bytes).is_err(), "kind confusion");
    // A flipped magic byte fails cleanly.
    let mut flipped = bytes.clone();
    flipped[0] ^= 0xFF;
    assert!(Analyzer::restore(&flipped).is_err(), "bad magic accepted");
}

/// The config block keeps the slot of a retired chunk-size knob as a
/// reserved `0` (so the version-2 layout does not move). Every writer
/// since the slot was normalized has written 0 there, so anything else is
/// corruption, refused rather than silently restored.
#[test]
fn nonzero_reserved_config_slot_is_corrupt() {
    // Header (magic 4 + version 4 + kind 1), then twelve 8-byte config
    // fields — the last one `seed` — then the reserved slot.
    const SEED_AT: usize = 9 + 11 * 8;
    const RESERVED_AT: usize = SEED_AT + 8;
    let cfg = DetectorConfig::fast_test();
    let mut analyzer = Analyzer::new(cfg.clone(), mapper());
    for (bin, records) in schedule() {
        analyzer.process_bin(bin, &records);
    }
    let bytes = analyzer.snapshot();
    assert_eq!(
        bytes[SEED_AT..RESERVED_AT],
        cfg.seed.to_le_bytes(),
        "layout"
    );
    assert_eq!(bytes[RESERVED_AT..RESERVED_AT + 8], [0; 8], "writers put 0");
    assert!(Analyzer::restore(&bytes).is_ok());

    for value in [1u64, 3, 512, u64::MAX] {
        let mut crafted = bytes.clone();
        crafted[RESERVED_AT..RESERVED_AT + 8].copy_from_slice(&value.to_le_bytes());
        assert!(
            matches!(
                Analyzer::restore(&crafted),
                Err(pinpoint::core::SnapshotError::Corrupt(_))
            ),
            "reserved slot {value} was not refused as corrupt"
        );
    }
}

/// Decode a generated spec into a traceroute record (same tiny address
/// space as the ingest-parity generator, so key collisions are common).
fn record_from_spec(i: usize, hops: &[Vec<u32>]) -> TracerouteRecord {
    TracerouteRecord {
        msm_id: MeasurementId(1),
        probe_id: ProbeId((i % 5) as u32),
        probe_asn: Asn(64000 + (i % 4) as u32),
        dst: Ipv4Addr::new(198, 51, 100, (i % 3) as u8),
        timestamp: SimTime(0),
        paris_id: 0,
        hops: hops
            .iter()
            .enumerate()
            .map(|(ttl, replies)| {
                Hop::new(
                    ttl as u8 + 1,
                    replies
                        .iter()
                        .map(|&code| {
                            if code == 0 {
                                Reply::TIMEOUT
                            } else {
                                Reply::new(
                                    Ipv4Addr::new(10, 0, (code % 3) as u8, (code % 7) as u8),
                                    f64::from(code % 11) * 0.7 + ttl as f64 * 0.1,
                                )
                            }
                        })
                        .collect(),
                )
            })
            .collect(),
        destination_reached: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Snapshot/restore at an arbitrary bin cut over arbitrary record
    /// streams equals the uninterrupted run — and the restore crosses a
    /// process-boundary-shaped interface (bytes only), with the codec
    /// round-tripping losslessly.
    #[test]
    fn prop_snapshot_cut_equals_uninterrupted(
        cut_seed in 0usize..64,
        hop_specs in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u32..9, 0..5), 0..5),
            1..9,
        ),
        n_bins in 2usize..6,
    ) {
        let records: Vec<TracerouteRecord> = hop_specs
            .iter()
            .enumerate()
            .map(|(i, hops)| record_from_spec(i, hops))
            .collect();
        let cut = cut_seed % (n_bins + 1);
        let cfg = DetectorConfig::fast_test();

        let mut full = Analyzer::new(cfg.clone(), mapper());
        let want: Vec<BinReport> = (0..n_bins as u64)
            .map(|b| full.process_bin(BinId(b), &records))
            .collect();

        let mut head = Analyzer::new(cfg, mapper());
        for b in 0..cut as u64 {
            head.process_bin(BinId(b), &records);
        }
        let bytes = head.snapshot();
        drop(head); // only the bytes survive, as across a process boundary

        let mut tail = Analyzer::restore(&bytes).expect("restore");
        prop_assert_eq!(tail.snapshot(), bytes, "restore + snapshot is not the identity");
        for b in cut as u64..n_bins as u64 {
            let got = tail.process_bin(BinId(b), &records);
            assert_reports_identical(&got, &want[b as usize], &format!("cut {cut} bin {b}"));
        }
        prop_assert_eq!(tail.sanitize_stats(), full.sanitize_stats());
        prop_assert_eq!(tail.tracked_links(), full.tracked_links());
        prop_assert_eq!(tail.tracked_patterns(), full.tracked_patterns());
    }
}
