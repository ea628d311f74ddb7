//! The collector → executor → reporter pipeline.
//!
//! Three threads, two bounded queues:
//!
//! ```text
//!   feed (BinSource /                         ┌───────────────┐
//!    RecoverableSource)               ┌─────▶│ HTTP workers  │
//!        │ next_signal()              │      │ (cached JSON) │
//!        ▼                            │      └───────────────┘
//!   ┌───────────┐  collect queue  ┌───┴─────┐
//!   │ collector │ ───(bounded)──▶ │executor │  report queue   ┌──────────┐
//!   │  thread   │                 │ session │ ───(bounded)──▶ │ reporter │
//!   └───────────┘                 └─────────┘                 │  thread  │
//!                                                             └──────────┘
//! ```
//!
//! The collector pulls bin *n+1* from the feed while the executor
//! analyzes bin *n* and the reporter renders bin *n−1* — each report is
//! forwarded the moment its bin is analyzed and rendered **once** into
//! the immutable cache. Both queues block their
//! producer when full (see [`crate::queue`]), so a stalled consumer
//! stalls the stage above it — backpressure all the way to the feed,
//! never unbounded growth. Graceful shutdown stops only the collector;
//! everything already collected drains through the executor and
//! reporter before the phase flips to `done`, so no collected bin goes
//! unreported.
//!
//! **Supervision.** Every stage runs under `catch_unwind`. A panicking
//! stage records its fault in the shared state, flips the phase to
//! [`Phase::Failed`] (sticky), and *poisons* both queues — blocked
//! peers fail fast instead of deadlocking, and the HTTP surface keeps
//! serving the cached reports plus a degraded `/health`.
//!
//! **Fault-aware collection.** Through [`Daemon::spawn_recovering`] the
//! collector consumes a [`RecoverableSource`]: feed disconnects are
//! retried with capped exponential backoff, stalls are recorded, and
//! duplicate or out-of-order bins are rejected by the monotonicity rule
//! (`bin ≤ last accepted` drops) — the same rule
//! `netsim::RecoveredFeed` applies, so a daemon over a faulty feed
//! byte-matches an offline run over the recovered feed.
//!
//! **Checkpointing.** With `checkpoint_every > 0` and a
//! `checkpoint_dir`, the executor snapshots its session every N bins
//! and writes the byte-stable bytes through [`CheckpointStore`] (framed,
//! checksummed, atomically renamed). A later process restores the
//! snapshot and resumes with [`ServiceConfig::resume_from`]; reports
//! from then on are byte-identical to the uninterrupted run.

use crate::checkpoint::CheckpointStore;
use crate::feed::{FeedSignal, RecoverableSource, SteadyFeed};
use crate::http::{HttpServer, Router};
use crate::queue::BoundedQueue;
use crate::state::{Phase, PublishedBin, QueueGauge, ServiceState, TimelinePoint};
use pinpoint_core::render;
use pinpoint_core::session::{AnalysisSession, AnalyzerSet, BinSource, Session};
use pinpoint_core::{
    Analyzer, BinReport, EventTable, FleetEvent, FleetReport, IngestStats, SanitizeStats,
    StreamRouter,
};
use pinpoint_model::json::Value;
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::{Asn, BinId};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon knobs. `Default` binds an ephemeral localhost port with small
/// queues — the shape the tests and the example use.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Listen address (`127.0.0.1:0` = ephemeral port).
    pub addr: String,
    /// Bound of the collector → executor queue.
    pub collect_capacity: usize,
    /// Bound of the executor → reporter queue.
    pub report_capacity: usize,
    /// HTTP worker threads (concurrent clients served in parallel).
    pub http_workers: usize,
    /// First sleep after a feed disconnect, in milliseconds; each
    /// further consecutive disconnect doubles it up to
    /// [`ServiceConfig::retry_cap_ms`].
    pub retry_base_ms: u64,
    /// Ceiling of the feed-retry backoff, in milliseconds.
    pub retry_cap_ms: u64,
    /// Write a durable checkpoint every N accepted bins (`0` = off;
    /// requires [`ServiceConfig::checkpoint_dir`]).
    pub checkpoint_every: u64,
    /// Directory for checkpoint files (created on first write).
    pub checkpoint_dir: Option<PathBuf>,
    /// The bin id the restored snapshot already covers: the collector
    /// rejects every feed bin `≤` this, exactly as it rejects
    /// duplicates, so a replaying feed cannot double-count bins after a
    /// `--resume`.
    pub resume_from: Option<u64>,
    /// Total wall-clock budget for reading one HTTP request head, in
    /// milliseconds — a byte-at-a-time slow-loris client is cut off
    /// with `408` when it runs out.
    pub http_read_deadline_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            collect_capacity: 4,
            report_capacity: 4,
            http_workers: 8,
            retry_base_ms: 50,
            retry_cap_ms: 2_000,
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume_from: None,
            http_read_deadline_ms: 10_000,
        }
    }
}

/// One collected bin riding the collect queue, stamped for end-to-end
/// latency accounting.
struct Collected<F> {
    bin: BinId,
    feed: F,
    at: Instant,
}

/// One analyzed bin riding the report queue (not yet rendered — the
/// reporter owns rendering).
struct Emitted {
    report: ReportKind,
    ingest: IngestStats,
    sanitize: SanitizeStats,
    collected_at: Instant,
}

enum ReportKind {
    Solo(BinReport),
    Fleet(FleetReport),
}

impl From<BinReport> for ReportKind {
    fn from(report: BinReport) -> Self {
        ReportKind::Solo(report)
    }
}

impl From<FleetReport> for ReportKind {
    fn from(report: FleetReport) -> Self {
        ReportKind::Fleet(report)
    }
}

impl ReportKind {
    fn bin(&self) -> u64 {
        match self {
            ReportKind::Solo(r) => r.bin.0,
            ReportKind::Fleet(r) => r.bin.0,
        }
    }

    /// This bin's event deltas (ascending id).
    fn events(&self) -> &[FleetEvent] {
        match self {
            ReportKind::Solo(r) => &r.events,
            ReportKind::Fleet(r) => &r.events,
        }
    }

    /// Render once (report + alarm graph + event channel) and extract
    /// the headline counters and per-AS timeline points. `events` is
    /// the reporter's running fold of every delta so far — this bin's
    /// deltas must already be absorbed.
    fn render(
        &self,
        events: &EventTable,
        ingest: IngestStats,
        sanitize: SanitizeStats,
        latency_ms: f64,
    ) -> PublishedBin {
        let (bin, report, graph, records, delay, forwarding, magnitudes) = match self {
            ReportKind::Solo(r) => (
                r.bin.0,
                render::bin_report(r),
                render::alarm_graph(&r.alarm_graph()),
                r.records,
                r.delay_alarms.len(),
                r.forwarding_alarms.len(),
                &r.magnitudes,
            ),
            ReportKind::Fleet(r) => (
                r.bin.0,
                render::fleet_report(r),
                render::alarm_graph(&r.alarm_graph()),
                r.records(),
                r.delay_alarms(),
                r.forwarding_alarms(),
                &r.magnitudes,
            ),
        };
        let deltas = self.events();
        PublishedBin {
            bin,
            report: report.to_string(),
            graph: graph_with_bin(bin, graph),
            events: events_with_bin(bin, deltas),
            events_listing: render::events(&events.ranked()).to_string(),
            // Each delta carries the event's full state and the table
            // absorbed it already, so the delta IS the current body.
            event_bodies: deltas
                .iter()
                .map(|e| (e.id, render::event(e).to_string()))
                .collect(),
            events_open: events.open_count(),
            records,
            delay_alarms: delay,
            forwarding_alarms: forwarding,
            timeline: timeline_points(bin, magnitudes),
            ingest,
            sanitize,
            latency_ms,
        }
    }
}

/// Wrap a rendered alarm graph with the bin it belongs to.
fn graph_with_bin(bin: u64, graph: Value) -> String {
    Value::object(vec![("bin", Value::Number(bin as f64)), ("graph", graph)]).to_string()
}

/// Wrap one bin's event deltas with the bin they belong to.
fn events_with_bin(bin: u64, deltas: &[FleetEvent]) -> String {
    Value::object(vec![
        ("bin", Value::Number(bin as f64)),
        (
            "events",
            Value::Array(deltas.iter().map(render::event).collect()),
        ),
    ])
    .to_string()
}

fn timeline_points(
    bin: u64,
    magnitudes: &BTreeMap<Asn, pinpoint_core::aggregate::AsMagnitude>,
) -> Vec<(u32, TimelinePoint)> {
    magnitudes
        .iter()
        .map(|(asn, m)| {
            (
                asn.0,
                TimelinePoint {
                    bin,
                    delay_severity: m.delay_severity,
                    forwarding_severity: m.forwarding_severity,
                    delay_magnitude: m.delay_magnitude,
                    forwarding_magnitude: m.forwarding_magnitude,
                },
            )
        })
        .collect()
}

/// The executor's periodic-checkpoint cadence: every `every` accepted
/// bins, persist the session's byte-stable snapshot.
struct Checkpointing {
    store: CheckpointStore,
    every: u64,
    seen: u64,
    state: Arc<ServiceState>,
}

/// The executor thread's body: run one session over the collect queue
/// until it closes, forwarding each bin's report — stamped with the
/// counters of that same bin and its collect timestamp — the moment the
/// bin is analyzed. The thread owns its analyzer (or fleet) and the
/// session is created here, inside the thread, because a session borrows
/// its set and cannot cross the spawn boundary itself. `emit` returning
/// `false` means the downstream stage is gone — stop driving (dead-stage
/// shutdown propagation). With `ckpt`, the session's snapshot is durably
/// saved every N bins.
fn drive_session<S>(
    set: &mut S,
    mut ckpt: Option<Checkpointing>,
    bins: &BoundedQueue<Collected<<S::Input as ToOwned>::Owned>>,
    emit: &mut dyn FnMut(Emitted) -> bool,
) where
    S: AnalyzerSet,
    S::Input: ToOwned,
    S::Report: Into<ReportKind>,
{
    let mut session = Session::new(set);
    while let Ok(c) = bins.pop() {
        let report = session
            .push_bin(c.bin, c.feed.borrow())
            .expect("every push reports its own bin");
        let emitted = Emitted {
            report: report.into(),
            ingest: session.inner().ingest_stats(),
            sanitize: session.inner().sanitize_stats(),
            collected_at: c.at,
        };
        if !emit(emitted) {
            return;
        }
        if let Some(ck) = ckpt.as_mut() {
            ck.seen += 1;
            if ck.seen % ck.every == 0 {
                match ck.store.save(c.bin.0, &session.checkpoint()) {
                    Ok(_) => ck.state.record_checkpoint(c.bin.0),
                    Err(e) => ck
                        .state
                        .record_fault(format!("checkpoint write failed: {e}")),
                }
            }
        }
    }
}

/// Extract a printable message from a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Run one stage body under `catch_unwind`. On panic: record the fault,
/// flip the phase to [`Phase::Failed`] (before poisoning, so no racing
/// stage can claim `Done` first), then poison both queues so blocked
/// neighbours fail fast instead of deadlocking.
fn supervise<A, B>(
    stage: &'static str,
    state: &Arc<ServiceState>,
    collect_q: &Arc<BoundedQueue<A>>,
    report_q: &Arc<BoundedQueue<B>>,
    body: impl FnOnce(),
) {
    if let Err(panic) = std::panic::catch_unwind(AssertUnwindSafe(body)) {
        state.record_fault(format!(
            "{stage} stage panicked: {}",
            panic_message(panic.as_ref())
        ));
        state.set_phase(Phase::Failed);
        collect_q.poison();
        report_q.poison();
    }
}

/// Called by the reporter thread just before publishing each bin —
/// tests install a slow hook here to prove the backpressure chain.
pub type ReportHook = Box<dyn FnMut(u64) + Send>;

/// A running pinpoint daemon (see the [module docs](self) for the
/// thread/queue topology). Dropping the daemon stops the HTTP server
/// but detaches the pipeline threads — call [`Daemon::join`] for an
/// orderly exit.
pub struct Daemon {
    state: Arc<ServiceState>,
    stop_collect: Arc<AtomicBool>,
    gauges: Arc<dyn Fn() -> (QueueGauge, QueueGauge) + Send + Sync>,
    http: HttpServer,
    threads: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Spawn the daemon over a solo analyzer. `feed` yields each bin's
    /// records in increasing bin order (any
    /// `Iterator<Item = (BinId, Vec<TracerouteRecord>)>` works).
    pub fn spawn<F>(cfg: ServiceConfig, analyzer: Analyzer, feed: F) -> std::io::Result<Daemon>
    where
        F: BinSource<Feed = Vec<TracerouteRecord>> + Send + 'static,
    {
        Self::spawn_engine(cfg, analyzer, SteadyFeed(feed), None)
    }

    /// Spawn the daemon over a solo analyzer fed by a fault-signalling
    /// source: disconnects are retried with capped exponential backoff,
    /// stalls are recorded in `/health`, and duplicate or out-of-order
    /// bins are rejected at the collector.
    pub fn spawn_recovering<F>(
        cfg: ServiceConfig,
        analyzer: Analyzer,
        feed: F,
    ) -> std::io::Result<Daemon>
    where
        F: RecoverableSource<Feed = Vec<TracerouteRecord>>,
    {
        Self::spawn_engine(cfg, analyzer, feed, None)
    }

    /// [`Daemon::spawn`] with a reporter-side hook, called with each bin
    /// id before its report is published (used by the backpressure
    /// tests to deliberately stall — or kill — the reporter).
    pub fn spawn_with_report_hook<F>(
        cfg: ServiceConfig,
        analyzer: Analyzer,
        feed: F,
        hook: ReportHook,
    ) -> std::io::Result<Daemon>
    where
        F: BinSource<Feed = Vec<TracerouteRecord>> + Send + 'static,
    {
        Self::spawn_engine(cfg, analyzer, SteadyFeed(feed), Some(hook))
    }

    /// Spawn the daemon over a stream fleet. `feed` yields one
    /// `Vec<TracerouteRecord>` per stream per bin.
    pub fn spawn_fleet<F>(
        cfg: ServiceConfig,
        router: StreamRouter,
        feed: F,
    ) -> std::io::Result<Daemon>
    where
        F: BinSource<Feed = Vec<Vec<TracerouteRecord>>> + Send + 'static,
    {
        Self::spawn_engine(cfg, router, SteadyFeed(feed), None)
    }

    /// Spawn the three stages over any [`AnalyzerSet`] — a solo analyzer
    /// and a fleet differ only in feed and report types.
    fn spawn_engine<S, F>(
        cfg: ServiceConfig,
        mut set: S,
        feed: F,
        hook: Option<ReportHook>,
    ) -> std::io::Result<Daemon>
    where
        S: AnalyzerSet + Send + 'static,
        S::Input: ToOwned,
        S::Report: Into<ReportKind>,
        F: RecoverableSource<Feed = <S::Input as ToOwned>::Owned>,
        F::Feed: Send,
    {
        let state = ServiceState::new();
        let collect_q = Arc::new(BoundedQueue::<Collected<F::Feed>>::new(
            cfg.collect_capacity,
        ));
        let report_q = Arc::new(BoundedQueue::<Emitted>::new(cfg.report_capacity));
        let stop_collect = Arc::new(AtomicBool::new(false));
        // The full current event list (open + closed) — non-empty after a
        // snapshot restore, where the reporter's event fold must be
        // seeded with it or `/events` would forget everything from
        // before the checkpoint.
        let initial_events = set.events();
        let ckpt = match (&cfg.checkpoint_dir, cfg.checkpoint_every) {
            (Some(dir), every) if every > 0 => Some(Checkpointing {
                store: CheckpointStore::new(dir),
                every,
                seen: 0,
                state: Arc::clone(&state),
            }),
            _ => None,
        };
        let mut threads = Vec::with_capacity(3);

        // Collector: pull signals from the feed until it runs dry or a
        // shutdown stops it, then close the queue so the executor
        // drains. A blocked push IS the backpressure edge: the feed is
        // simply not asked for bin n+2 until the executor frees a slot.
        {
            let collect_q = Arc::clone(&collect_q);
            let report_q = Arc::clone(&report_q);
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop_collect);
            let mut feed = feed;
            let resume_from = cfg.resume_from;
            let retry_base = cfg.retry_base_ms.max(1);
            let retry_cap = cfg.retry_cap_ms.max(retry_base);
            threads.push(
                std::thread::Builder::new()
                    .name("pinpointd-collector".to_string())
                    .spawn(move || {
                        supervise("collector", &state, &collect_q, &report_q, || {
                            let mut last_accepted = resume_from;
                            let mut backoff = retry_base;
                            while !stop.load(Ordering::SeqCst) {
                                match feed.next_signal() {
                                    None => break,
                                    Some(FeedSignal::Bin(bin, records)) => {
                                        // Monotonicity rule: a bin at or
                                        // below the last accepted id is a
                                        // duplicate or a late straggler —
                                        // reject it (netsim's
                                        // `RecoveredFeed` rule).
                                        if last_accepted.is_some_and(|last| bin.0 <= last) {
                                            state.record_feed_rejected();
                                            continue;
                                        }
                                        last_accepted = Some(bin.0);
                                        backoff = retry_base;
                                        state.record_collected();
                                        if collect_q
                                            .push(Collected {
                                                bin,
                                                feed: records,
                                                at: Instant::now(),
                                            })
                                            .is_err()
                                        {
                                            break;
                                        }
                                    }
                                    Some(FeedSignal::Stall(bins)) => {
                                        state.record_fault(format!(
                                            "feed stalled for {bins} bin interval(s)"
                                        ));
                                    }
                                    Some(FeedSignal::Disconnect) => {
                                        state.record_feed_retry(format!(
                                            "feed disconnected; retrying in {backoff} ms"
                                        ));
                                        std::thread::sleep(Duration::from_millis(backoff));
                                        backoff = (backoff * 2).min(retry_cap);
                                    }
                                }
                            }
                            collect_q.close();
                        });
                    })?,
            );
        }

        // Executor: one session over the whole queue; closes the report
        // queue when the collect queue is drained. A push into a dead
        // report queue stops the drive early.
        {
            let collect_q = Arc::clone(&collect_q);
            let report_q = Arc::clone(&report_q);
            let state = Arc::clone(&state);
            threads.push(
                std::thread::Builder::new()
                    .name("pinpointd-executor".to_string())
                    .spawn(move || {
                        supervise("executor", &state, &collect_q, &report_q, || {
                            drive_session(&mut set, ckpt, &collect_q, &mut |emitted| {
                                report_q.push(emitted).is_ok()
                            });
                            report_q.close();
                        });
                    })?,
            );
        }

        // Reporter: render once, publish to the immutable cache, flip
        // the phase to Done when everything drained. After a snapshot
        // restore its event fold starts from the analyzer's restored
        // table, not empty — otherwise `/events` would forget every
        // event extracted before the checkpoint.
        {
            let collect_q = Arc::clone(&collect_q);
            let report_q = Arc::clone(&report_q);
            let state = Arc::clone(&state);
            let mut hook = hook;
            threads.push(
                std::thread::Builder::new()
                    .name("pinpointd-reporter".to_string())
                    .spawn(move || {
                        supervise("reporter", &state, &collect_q, &report_q, || {
                            // The reporter's fold of the incremental
                            // event channel: absorbing every bin's deltas
                            // in emission order reconstructs the
                            // extractor's table byte-for-byte.
                            let mut events = EventTable::new();
                            if !initial_events.is_empty() {
                                events.absorb(&initial_events);
                                state.seed_events(
                                    render::events(&events.ranked()).to_string(),
                                    initial_events
                                        .iter()
                                        .map(|e| (e.id, render::event(e).to_string()))
                                        .collect(),
                                    events.open_count(),
                                );
                            }
                            while let Ok(e) = report_q.pop() {
                                if let Some(hook) = hook.as_mut() {
                                    hook(e.report.bin());
                                }
                                events.absorb(e.report.events());
                                let latency_ms = e.collected_at.elapsed().as_secs_f64() * 1e3;
                                state.publish(
                                    e.report.render(&events, e.ingest, e.sanitize, latency_ms),
                                );
                            }
                            state.set_phase(Phase::Done);
                        });
                    })?,
            );
        }

        let gauges: Arc<dyn Fn() -> (QueueGauge, QueueGauge) + Send + Sync> = {
            let collect_q = Arc::clone(&collect_q);
            let report_q = Arc::clone(&report_q);
            Arc::new(move || (gauge(&collect_q), gauge(&report_q)))
        };

        let http = HttpServer::spawn(&cfg.addr, cfg.http_workers, {
            let state = Arc::clone(&state);
            let shutdown_state = Arc::clone(&state);
            let stop = Arc::clone(&stop_collect);
            let gauges = Arc::clone(&gauges);
            Router {
                state,
                gauges: Box::new(move || gauges()),
                on_shutdown: Box::new(move || {
                    shutdown_state.request_shutdown();
                    shutdown_state.set_phase(Phase::Draining);
                    stop.store(true, Ordering::SeqCst);
                }),
                read_deadline: Duration::from_millis(cfg.http_read_deadline_ms.max(1)),
            }
        })?;

        state.set_phase(Phase::Running);
        Ok(Daemon {
            state,
            stop_collect,
            gauges,
            http,
            threads,
        })
    }

    /// The bound address (resolve the ephemeral port here).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.http.local_addr()
    }

    /// The shared state (phase, counters, cached reports).
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Live `(collect, report)` queue gauges.
    pub fn queue_gauges(&self) -> (QueueGauge, QueueGauge) {
        (self.gauges)()
    }

    /// Request a graceful drain: the collector stops pulling new bins;
    /// every bin already collected still flows through the executor and
    /// reporter, after which the phase flips to [`Phase::Done`].
    /// Idempotent, non-blocking — follow with [`Daemon::join`] or
    /// [`ServiceState::wait_done`].
    pub fn shutdown(&self) {
        self.state.request_shutdown();
        self.state.set_phase(Phase::Draining);
        self.stop_collect.store(true, Ordering::SeqCst);
    }

    /// Graceful exit: [`Daemon::shutdown`], drain the pipeline, join
    /// every thread, stop the HTTP server. Stage panics are caught by
    /// the supervisor (the phase reads [`Phase::Failed`]), so the join
    /// itself only errors if a thread died outside its supervised body.
    pub fn join(mut self) -> std::thread::Result<()> {
        self.shutdown();
        for thread in self.threads.drain(..) {
            thread.join()?;
        }
        self.http.stop();
        Ok(())
    }
}

fn gauge<T>(q: &BoundedQueue<T>) -> QueueGauge {
    QueueGauge {
        len: q.len(),
        capacity: q.capacity(),
        peak: q.peak_depth(),
    }
}
