//! Chaos-restart walk-through: checkpoint a live analysis, "crash" it,
//! restore from the bytes on disk, and verify the resumed run is
//! byte-identical to one that never crashed.
//!
//! The crash-safety contract has three layers:
//!
//! 1. `Analyzer::snapshot()` is a deterministic, byte-stable encoding of
//!    the *complete* resumable state (EWMA medians, reference wait
//!    times, open events, interner — everything), with the throughput
//!    knobs normalized out so the same analysis state always produces
//!    the same bytes.
//! 2. `CheckpointStore` wraps those bytes in a length + CRC-32 frame and
//!    writes them atomically (temp file + rename), so a `kill -9`
//!    mid-write can never leave a half-valid checkpoint — on restart the
//!    newest file that verifies wins, corrupt tails are skipped.
//! 3. The daemon's collector rejects any bin at or below the resume
//!    point, so a replaying feed cannot double-count what the snapshot
//!    already folded in.
//!
//! ```sh
//! cargo run --release --example chaos_restart
//! ```

use pinpoint::core::session::AnalysisSession;
use pinpoint::core::{render, Analyzer};
use pinpoint::model::records::TracerouteRecord;
use pinpoint::model::BinId;
use pinpoint::scenarios::{ixp, Scale};
use pinpoint::service::{CheckpointStore, Daemon, ServiceConfig};
use std::collections::BTreeMap;

fn main() {
    // The AMS-IX outage window: bins with real alarms and events, so the
    // byte-comparison below proves more than quiet bins would.
    let mut case = ixp::case_study(7, Scale::Small);
    let (outage_start, outage_end) = ixp::outage_bins();
    case.start_bin = BinId(outage_start - 3);
    case.end_bin = BinId(outage_end + 2);
    let feed: Vec<(BinId, Vec<TracerouteRecord>)> = case
        .platform
        .collect_bins(case.start_bin, case.end_bin)
        .into_iter()
        .collect();
    println!(
        "window: bins [{}, {}) over the AMS-IX outage",
        case.start_bin.0, case.end_bin.0
    );

    // ── The uninterrupted reference ────────────────────────────────────
    let mut reference: BTreeMap<u64, String> = BTreeMap::new();
    let mut analyzer = case.analyzer();
    {
        let mut session = analyzer.session(0);
        for (bin, records) in &feed {
            if let Some(report) = session.push_bin(*bin, records) {
                reference.insert(report.bin.0, render::bin_report(&report).to_string());
            }
        }
    }
    println!(
        "reference: {} bins analyzed without interruption",
        reference.len()
    );

    // ── Act 1: run with periodic checkpoints, then crash ───────────────
    let dir = std::env::temp_dir().join(format!("pinpoint-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let crash_at = case.start_bin.0 + 5;
    let cfg = ServiceConfig {
        checkpoint_every: 2,
        checkpoint_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    // The "crash": the feed just stops mid-window. What's on disk is
    // exactly what a kill -9 would have left — the atomic rename means
    // there is no in-between state to be left in.
    let partial: Vec<_> = feed
        .iter()
        .filter(|(b, _)| b.0 < crash_at)
        .cloned()
        .collect();
    let daemon = Daemon::spawn(cfg, case.analyzer(), partial.into_iter()).expect("daemon spawns");
    daemon.state().wait_done();
    let covered = daemon
        .state()
        .last_checkpoint()
        .expect("a checkpoint landed");
    daemon.join().expect("clean join");
    println!(
        "act 1: crashed after bin {}, newest checkpoint covers bin {covered}",
        crash_at - 1
    );

    // ── Act 2: a fresh process restores from bytes alone ───────────────
    let store = CheckpointStore::new(&dir);
    let (last_bin, snapshot) = store.load_latest().expect("a valid checkpoint survives");
    println!(
        "act 2: restored {} snapshot bytes covering bins ≤ {last_bin}",
        snapshot.len()
    );
    // Snapshots normalize the throughput knob `threads` to zero —
    // re-pin it for the new process. It changes wall-clock behaviour
    // only, never report bytes.
    let restored = Analyzer::restore_with(&snapshot, |c| c.threads = case.cfg.threads)
        .expect("frame verified, snapshot decodes");

    // Resume: replay the feed from one bin BEFORE the checkpoint — the
    // collector's monotonicity rule rejects the overlap, proving a
    // sloppy replaying feed cannot double-count.
    let cfg = ServiceConfig {
        resume_from: Some(last_bin),
        ..ServiceConfig::default()
    };
    let rest: Vec<_> = feed
        .iter()
        .filter(|(b, _)| b.0 >= last_bin)
        .cloned()
        .collect();
    let daemon = Daemon::spawn(cfg, restored, rest.into_iter()).expect("daemon spawns");
    daemon.state().wait_done();
    println!(
        "act 2: resumed bins {:?}, rejected {} replayed bin(s)",
        daemon.state().bin_ids(),
        daemon.state().feed_rejected()
    );

    // ── The verdict: byte equality with the run that never crashed ─────
    let mut checked = 0usize;
    for bin in daemon.state().bin_ids() {
        let resumed = daemon.state().report(bin).expect("resumed bin cached");
        let want = reference.get(&bin).expect("reference bin");
        assert_eq!(resumed.as_str(), want, "bin {bin} diverged after resume");
        checked += 1;
    }
    daemon.join().expect("clean join");
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "verdict: {checked}/{checked} post-crash reports byte-identical to the uninterrupted run"
    );
}
