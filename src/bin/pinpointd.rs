//! `pinpointd` — the live pinpoint daemon over a simulated Atlas feed.
//!
//! Builds one of the reproducible case studies (`steady` or the AMS-IX
//! `ixp` outage), then serves it live: a collector thread pulls each
//! hourly bin from the platform while the executor analyzes the
//! previous one, and the rendered reports are exposed over the HTTP
//! surface (`/health`, `/bins`, `/bins/{id}/report`, `/bins/{id}/events`,
//! `/events`, `/events/{id}`, `/asn/{id}/timeline`, `/alarms/graph`,
//! `/stats`). `POST /shutdown` drains gracefully.
//!
//! `--offline` runs the identical window through the offline
//! `scenarios::run` path instead and prints one bin's rendered
//! report to stdout (no trailing newline) — the CI smoke test diffs that
//! byte-for-byte against the daemon's `/bins/{id}/report` body.
//! `--offline --events` prints the final ranked event listing instead —
//! the exact bytes the daemon serves for `/events` once the feed drains.
//!
//! Crash safety: `--checkpoint-every=N --checkpoint-dir=PATH` persists a
//! byte-stable snapshot every N bins; after a crash (`kill -9` included)
//! the same command line plus `--resume` restores the newest valid
//! checkpoint and replays only the remaining bins — every report
//! byte-identical to an uninterrupted run, which the CI chaos job
//! verifies. `--faults=mild|hostile` (with `--fault-seed=N`) runs the
//! feed through the deterministic netsim fault injector: the collector
//! rides out stalls, retries disconnects with capped backoff, and
//! rejects duplicated/reordered bins.

use pinpoint::core::render;
use pinpoint::core::{Analyzer, DetectorConfig};
use pinpoint::model::records::TracerouteRecord;
use pinpoint::model::BinId;
use pinpoint::netsim::{ArtifactModel, FaultModel, FaultyFeed, FeedEvent};
use pinpoint::scenarios::{ixp, runner, steady, CaseStudy, Scale};
use pinpoint::service::{CheckpointStore, Daemon, FeedSignal, Phase, ServiceConfig, SignalFeed};

/// An owning bin feed: `Platform::stream` borrows the platform, but the
/// collector thread needs an iterator it can take with it.
struct PlatformFeed {
    platform: pinpoint::atlas::Platform,
    next: u64,
    end: u64,
}

impl Iterator for PlatformFeed {
    type Item = (BinId, Vec<TracerouteRecord>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.end {
            return None;
        }
        let bin = BinId(self.next);
        self.next += 1;
        Some((bin, self.platform.collect_bin(bin)))
    }
}

struct Args {
    scenario: String,
    seed: u64,
    bins: Option<u64>,
    addr: String,
    artifacts: String,
    fast: bool,
    offline: bool,
    bin: Option<u64>,
    events: bool,
    checkpoint_every: u64,
    checkpoint_dir: Option<String>,
    resume: bool,
    faults: String,
    fault_seed: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: pinpointd [--scenario=steady|ixp] [--seed=N] [--bins=N] \
         [--addr=HOST:PORT] [--artifacts=none|mild|hostile] \
         [--fast] [--checkpoint-every=N] [--checkpoint-dir=PATH] [--resume] \
         [--faults=none|mild|hostile] [--fault-seed=N] \
         [--offline [--bin=N] [--events]]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        scenario: "ixp".to_string(),
        seed: 42,
        bins: None,
        addr: "127.0.0.1:7411".to_string(),
        artifacts: "none".to_string(),
        fast: false,
        offline: false,
        bin: None,
        events: false,
        checkpoint_every: 0,
        checkpoint_dir: None,
        resume: false,
        faults: "none".to_string(),
        fault_seed: None,
    };
    for arg in std::env::args().skip(1) {
        let (key, value) = match arg.split_once('=') {
            Some((k, v)) => (k, Some(v)),
            None => (arg.as_str(), None),
        };
        match (key, value) {
            ("--scenario", Some(v)) => args.scenario = v.to_string(),
            ("--seed", Some(v)) => args.seed = v.parse().unwrap_or_else(|_| usage()),
            ("--bins", Some(v)) => args.bins = Some(v.parse().unwrap_or_else(|_| usage())),
            ("--addr", Some(v)) => args.addr = v.to_string(),
            ("--artifacts", Some(v)) => args.artifacts = v.to_string(),
            ("--fast", None) => args.fast = true,
            ("--offline", None) => args.offline = true,
            ("--bin", Some(v)) => args.bin = Some(v.parse().unwrap_or_else(|_| usage())),
            ("--events", None) => args.events = true,
            ("--checkpoint-every", Some(v)) => {
                args.checkpoint_every = v.parse().unwrap_or_else(|_| usage())
            }
            ("--checkpoint-dir", Some(v)) => args.checkpoint_dir = Some(v.to_string()),
            ("--resume", None) => args.resume = true,
            ("--faults", Some(v)) => args.faults = v.to_string(),
            ("--fault-seed", Some(v)) => {
                args.fault_seed = Some(v.parse().unwrap_or_else(|_| usage()))
            }
            ("--help" | "-h", None) => usage(),
            _ => usage(),
        }
    }
    args
}

/// Assemble the requested case study with the window / config overrides
/// applied — shared by the live and offline paths so both see the exact
/// same feed.
fn build_case(args: &Args) -> CaseStudy {
    let mut case = match args.scenario.as_str() {
        "steady" => steady::case_study(args.seed, Scale::Small),
        "ixp" => ixp::case_study(args.seed, Scale::Small),
        _ => usage(),
    };
    if args.fast {
        case.cfg = DetectorConfig::fast_test();
    }
    if let Some(bins) = args.bins {
        case.end_bin = BinId(case.end_bin.0.min(case.start_bin.0 + bins));
    }
    let model = match args.artifacts.as_str() {
        "none" => None,
        "mild" => Some(ArtifactModel::mild(args.seed)),
        "hostile" => Some(ArtifactModel::hostile(args.seed)),
        _ => usage(),
    };
    case.platform.set_artifact_model(model);
    case
}

/// Offline reference: run the window through `scenarios::run`
/// and print the target bin's rendered report — the exact bytes the
/// daemon serves for `/bins/{id}/report`.
fn run_offline(args: &Args, case: CaseStudy) -> i32 {
    let target = args.bin.unwrap_or(case.end_bin.0.saturating_sub(1));
    let mut analyzer = case.analyzer();
    if args.events {
        // Fold the incremental event channel exactly as the daemon's
        // reporter does: the final listing must equal the live /events.
        let mut table = pinpoint::core::EventTable::new();
        runner::run(&case, &mut analyzer, |report| {
            table.absorb(&report.events);
        });
        // No trailing newline: stdout must equal the HTTP body.
        print!("{}", render::events(&table.ranked()));
        return 0;
    }
    let mut body = None;
    runner::run(&case, &mut analyzer, |report| {
        if report.bin.0 == target {
            body = Some(render::bin_report(report).to_string());
        }
    });
    match body {
        Some(body) => {
            // No trailing newline: stdout must equal the HTTP body.
            print!("{body}");
            0
        }
        None => {
            eprintln!(
                "pinpointd: bin {target} outside the window [{}, {})",
                case.start_bin.0, case.end_bin.0
            );
            1
        }
    }
}

fn run_live(args: &Args, case: CaseStudy) -> i32 {
    // Resume: restore the newest valid checkpoint and start the feed
    // just past the last bin it covers. Snapshots normalize the
    // throughput knob `threads`, so re-pin it from the case config — it
    // changes wall-clock behaviour only, never report bytes.
    let mut resume_from = None;
    let analyzer: Analyzer = if args.resume {
        let Some(dir) = args.checkpoint_dir.as_deref() else {
            eprintln!("pinpointd: --resume requires --checkpoint-dir");
            return 2;
        };
        match CheckpointStore::new(dir).load_latest() {
            Some((last_bin, snapshot)) => {
                match Analyzer::restore_with(&snapshot, |c| c.threads = case.cfg.threads) {
                    Ok(analyzer) => {
                        eprintln!("pinpointd: resumed from checkpoint at bin {last_bin}");
                        resume_from = Some(last_bin);
                        analyzer
                    }
                    Err(e) => {
                        eprintln!("pinpointd: checkpoint restore failed: {e:?}");
                        return 1;
                    }
                }
            }
            None => {
                eprintln!("pinpointd: no valid checkpoint in {dir}; starting fresh");
                case.analyzer()
            }
        }
    } else {
        case.analyzer()
    };
    let start = resume_from.map_or(case.start_bin.0, |b| (b + 1).max(case.start_bin.0));
    let window = case.end_bin.0.saturating_sub(start);
    let feed = PlatformFeed {
        next: start,
        end: case.end_bin.0,
        platform: case.platform,
    };
    let cfg = ServiceConfig {
        addr: args.addr.clone(),
        checkpoint_every: args.checkpoint_every,
        checkpoint_dir: args.checkpoint_dir.clone().map(Into::into),
        resume_from,
        ..ServiceConfig::default()
    };
    let spawned = match args.faults.as_str() {
        "none" => Daemon::spawn(cfg, analyzer, feed),
        grade => {
            let model = match grade {
                "mild" => FaultModel::mild(args.fault_seed.unwrap_or(args.seed)),
                "hostile" => FaultModel::hostile(args.fault_seed.unwrap_or(args.seed)),
                _ => usage(),
            };
            let signals = FaultyFeed::new(feed, model).map(|event| match event {
                FeedEvent::Bin(bin, records) => FeedSignal::Bin(bin, records),
                FeedEvent::Stall(n) => FeedSignal::Stall(n),
                FeedEvent::Disconnect => FeedSignal::Disconnect,
            });
            Daemon::spawn_recovering(cfg, analyzer, SignalFeed(signals))
        }
    };
    let daemon = match spawned {
        Ok(d) => d,
        Err(e) => {
            eprintln!("pinpointd: failed to start: {e}");
            return 1;
        }
    };
    eprintln!(
        "pinpointd: serving {} ({window} bins) on http://{}",
        args.scenario,
        daemon.local_addr()
    );
    // The feed is finite: wait until every bin is reported, then keep
    // serving the cached reports until someone POSTs /shutdown.
    let state = std::sync::Arc::clone(daemon.state());
    state.wait_done();
    if matches!(state.phase(), Phase::Failed) {
        eprintln!(
            "pinpointd: pipeline failed: {}",
            state
                .last_fault()
                .unwrap_or_else(|| "unknown fault".to_string())
        );
        let _ = daemon.join();
        return 1;
    }
    eprintln!("pinpointd: feed drained; serving cached reports (POST /shutdown to exit)");
    state.wait_shutdown_requested();
    match daemon.join() {
        Ok(()) => {
            eprintln!("pinpointd: drained and stopped");
            0
        }
        Err(_) => {
            eprintln!("pinpointd: a pipeline thread panicked");
            1
        }
    }
}

fn main() {
    let args = parse_args();
    let case = build_case(&args);
    let code = if args.offline {
        run_offline(&args, case)
    } else {
        run_live(&args, case)
    };
    std::process::exit(code);
}
