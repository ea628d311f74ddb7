//! The daemon's shared, HTTP-visible state.
//!
//! The reporter thread is the **only writer of report content**: it
//! renders each emitted report once (through `pinpoint_core::render`)
//! and publishes the strings here behind `Arc`s — the immutable-report
//! cache. HTTP workers clone the `Arc` and serve the exact bytes, so a
//! report is never re-rendered, never mutated, and every concurrent
//! client sees the identical byte sequence (the determinism contract's
//! service extension).

use pinpoint_core::render;
use pinpoint_core::{IngestStats, SanitizeStats};
use pinpoint_model::json::Value;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};

/// Where the pipeline is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Threads are starting; nothing collected yet.
    Starting,
    /// Collector, executor, and reporter are live.
    Running,
    /// Shutdown requested; the pipeline is draining queued bins.
    Draining,
    /// Every collected bin has been reported.
    Done,
    /// A supervised stage died (panicked). Terminal and sticky: once
    /// failed, the phase never changes again — the cached reports stay
    /// servable, `/health` carries the fault, and the process should be
    /// restarted (with `--resume` to pick up the latest checkpoint).
    Failed,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Starting => "starting",
            Phase::Running => "running",
            Phase::Draining => "draining",
            Phase::Done => "done",
            Phase::Failed => "failed",
        }
    }
}

/// One published bin: the cached render plus its headline counters.
struct BinEntry {
    /// The full `render::bin_report` / `render::fleet_report` string.
    report: Arc<String>,
    /// The `render::alarm_graph` string.
    graph: Arc<String>,
    /// The bin's event deltas (`/bins/{id}/events` body).
    events: Arc<String>,
    records: usize,
    delay_alarms: usize,
    forwarding_alarms: usize,
    /// Collect→report latency of this bin.
    latency_ms: f64,
}

/// One `(bin, magnitude)` sample of an AS's timeline.
pub(crate) struct TimelinePoint {
    pub bin: u64,
    pub delay_severity: f64,
    pub forwarding_severity: f64,
    pub delay_magnitude: f64,
    pub forwarding_magnitude: f64,
}

#[derive(Default)]
struct Counters {
    collected: u64,
    reported: u64,
    latency_last_ms: f64,
    latency_peak_ms: f64,
    latency_sum_ms: f64,
}

/// Degraded-mode bookkeeping surfaced in `/health`: the last fault the
/// supervisor or collector saw, how often the feed was retried, and how
/// far the latest checkpoint trails the latest report.
#[derive(Default)]
struct Degraded {
    /// Human-readable description of the most recent fault.
    last_fault: Option<String>,
    /// Feed reconnect attempts (capped-exponential-backoff retries).
    feed_retries: u64,
    /// Duplicate / out-of-order bins the collector rejected.
    feed_rejected: u64,
    /// The bin id of the latest durable checkpoint, if any was written.
    last_checkpoint_bin: Option<u64>,
}

struct Inner {
    phase: Phase,
    shutdown_requested: bool,
    entries: BTreeMap<u64, BinEntry>,
    timelines: BTreeMap<u32, Vec<TimelinePoint>>,
    /// The ranked `/events` listing as of the latest reported bin.
    events_listing: Arc<String>,
    /// Current state of every event ever reported (`/events/{id}`).
    event_bodies: BTreeMap<u64, Arc<String>>,
    /// Events still open as of the latest reported bin.
    events_open: usize,
    ingest: IngestStats,
    sanitize: SanitizeStats,
    counters: Counters,
    degraded: Degraded,
}

/// Live queue-depth reading of one pipeline edge (for `/stats`).
#[derive(Debug, Clone, Copy)]
pub struct QueueGauge {
    /// Items queued right now.
    pub len: usize,
    /// The bound.
    pub capacity: usize,
    /// High-water mark.
    pub peak: usize,
}

impl QueueGauge {
    fn json(&self) -> Value {
        Value::object(vec![
            ("len", Value::Number(self.len as f64)),
            ("capacity", Value::Number(self.capacity as f64)),
            ("peak", Value::Number(self.peak as f64)),
        ])
    }
}

/// What the reporter publishes for one bin (already rendered).
pub(crate) struct PublishedBin {
    pub bin: u64,
    pub report: String,
    pub graph: String,
    /// The bin's event deltas, wrapped with the bin id.
    pub events: String,
    /// The full ranked listing as of this bin.
    pub events_listing: String,
    /// `(id, body)` for every event this bin touched.
    pub event_bodies: Vec<(u64, String)>,
    /// Open events as of this bin.
    pub events_open: usize,
    pub records: usize,
    pub delay_alarms: usize,
    pub forwarding_alarms: usize,
    pub timeline: Vec<(u32, TimelinePoint)>,
    pub ingest: IngestStats,
    pub sanitize: SanitizeStats,
    pub latency_ms: f64,
}

/// The daemon's shared state: phase, counters, and the immutable-report
/// cache (see the [module docs](self)).
pub struct ServiceState {
    inner: Mutex<Inner>,
    changed: Condvar,
}

impl Default for ServiceState {
    fn default() -> Self {
        ServiceState {
            inner: Mutex::new(Inner {
                phase: Phase::Starting,
                shutdown_requested: false,
                entries: BTreeMap::new(),
                timelines: BTreeMap::new(),
                events_listing: Arc::new(render::events(&[]).to_string()),
                event_bodies: BTreeMap::new(),
                events_open: 0,
                ingest: IngestStats::default(),
                sanitize: SanitizeStats::default(),
                counters: Counters::default(),
                degraded: Degraded::default(),
            }),
            changed: Condvar::new(),
        }
    }
}

impl ServiceState {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    pub(crate) fn set_phase(&self, phase: Phase) {
        let mut inner = self.inner.lock().unwrap();
        // Failed is terminal, and Done never regresses (a shutdown()
        // arriving after the feed already drained must not flip the
        // phase back to Draining) — but a stage dying *while* the
        // drain completes still wins: Done → Failed is allowed.
        let allowed = match inner.phase {
            Phase::Failed => false,
            Phase::Done => matches!(phase, Phase::Done | Phase::Failed),
            _ => true,
        };
        if allowed {
            inner.phase = phase;
        }
        self.changed.notify_all();
    }

    /// The current lifecycle phase.
    pub fn phase(&self) -> Phase {
        self.inner.lock().unwrap().phase
    }

    /// Block until the pipeline reaches a terminal phase —
    /// [`Phase::Done`] on a clean drain, [`Phase::Failed`] if a
    /// supervised stage died (check [`ServiceState::phase`] after).
    pub fn wait_done(&self) {
        let mut inner = self.inner.lock().unwrap();
        while !matches!(inner.phase, Phase::Done | Phase::Failed) {
            inner = self.changed.wait(inner).unwrap();
        }
    }

    pub(crate) fn request_shutdown(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.shutdown_requested = true;
        self.changed.notify_all();
    }

    /// Whether a shutdown was requested (via [`crate::Daemon::shutdown`]
    /// or `POST /shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.inner.lock().unwrap().shutdown_requested
    }

    /// Block until a shutdown is requested.
    pub fn wait_shutdown_requested(&self) {
        let mut inner = self.inner.lock().unwrap();
        while !inner.shutdown_requested {
            inner = self.changed.wait(inner).unwrap();
        }
    }

    pub(crate) fn record_collected(&self) {
        self.inner.lock().unwrap().counters.collected += 1;
    }

    /// Note a fault (stage panic, feed hiccup, checkpoint-write error)
    /// for degraded-mode reporting. The message shows up verbatim as
    /// `last_fault` in `/health`.
    pub(crate) fn record_fault(&self, message: String) {
        let mut inner = self.inner.lock().unwrap();
        inner.degraded.last_fault = Some(message);
        self.changed.notify_all();
    }

    /// Note one feed reconnect attempt (with its fault description).
    pub(crate) fn record_feed_retry(&self, message: String) {
        let mut inner = self.inner.lock().unwrap();
        inner.degraded.feed_retries += 1;
        inner.degraded.last_fault = Some(message);
        self.changed.notify_all();
    }

    /// Note one duplicate / out-of-order bin the collector rejected.
    pub(crate) fn record_feed_rejected(&self) {
        self.inner.lock().unwrap().degraded.feed_rejected += 1;
    }

    /// Note a durable checkpoint through `bin`.
    pub(crate) fn record_checkpoint(&self, bin: u64) {
        self.inner.lock().unwrap().degraded.last_checkpoint_bin = Some(bin);
    }

    /// The most recent fault, if any (also in `/health` as `last_fault`).
    pub fn last_fault(&self) -> Option<String> {
        self.inner.lock().unwrap().degraded.last_fault.clone()
    }

    /// Feed reconnect attempts so far.
    pub fn feed_retries(&self) -> u64 {
        self.inner.lock().unwrap().degraded.feed_retries
    }

    /// Duplicate / out-of-order bins the collector rejected so far.
    pub fn feed_rejected(&self) -> u64 {
        self.inner.lock().unwrap().degraded.feed_rejected
    }

    /// The bin id of the latest durable checkpoint, if one was written.
    pub fn last_checkpoint(&self) -> Option<u64> {
        self.inner.lock().unwrap().degraded.last_checkpoint_bin
    }

    /// Seed the event cache from a restored analyzer's table so
    /// `/events` and `/events/{id}` are correct immediately after a
    /// `--resume`, before the first post-restart bin reports.
    pub(crate) fn seed_events(&self, listing: String, bodies: Vec<(u64, String)>, open: usize) {
        let mut inner = self.inner.lock().unwrap();
        inner.events_listing = Arc::new(listing);
        for (id, body) in bodies {
            inner.event_bodies.insert(id, Arc::new(body));
        }
        inner.events_open = open;
    }

    /// Bins the collector has pulled from the feed so far.
    pub fn bins_collected(&self) -> u64 {
        self.inner.lock().unwrap().counters.collected
    }

    /// Bins with a published report.
    pub fn bins_reported(&self) -> u64 {
        self.inner.lock().unwrap().counters.reported
    }

    pub(crate) fn publish(&self, p: PublishedBin) {
        let mut inner = self.inner.lock().unwrap();
        inner.entries.insert(
            p.bin,
            BinEntry {
                report: Arc::new(p.report),
                graph: Arc::new(p.graph),
                events: Arc::new(p.events),
                records: p.records,
                delay_alarms: p.delay_alarms,
                forwarding_alarms: p.forwarding_alarms,
                latency_ms: p.latency_ms,
            },
        );
        inner.events_listing = Arc::new(p.events_listing);
        for (id, body) in p.event_bodies {
            inner.event_bodies.insert(id, Arc::new(body));
        }
        inner.events_open = p.events_open;
        for (asn, point) in p.timeline {
            inner.timelines.entry(asn).or_default().push(point);
        }
        inner.ingest = p.ingest;
        inner.sanitize = p.sanitize;
        inner.counters.reported += 1;
        inner.counters.latency_last_ms = p.latency_ms;
        inner.counters.latency_peak_ms = inner.counters.latency_peak_ms.max(p.latency_ms);
        inner.counters.latency_sum_ms += p.latency_ms;
        self.changed.notify_all();
    }

    /// The cached report of one bin — the exact bytes every client gets.
    pub fn report(&self, bin: u64) -> Option<Arc<String>> {
        self.inner
            .lock()
            .unwrap()
            .entries
            .get(&bin)
            .map(|e| Arc::clone(&e.report))
    }

    /// The cached alarm graph of one bin (`None` = latest reported).
    pub fn graph(&self, bin: Option<u64>) -> Option<Arc<String>> {
        let inner = self.inner.lock().unwrap();
        match bin {
            Some(b) => inner.entries.get(&b).map(|e| Arc::clone(&e.graph)),
            None => inner
                .entries
                .values()
                .next_back()
                .map(|e| Arc::clone(&e.graph)),
        }
    }

    /// Ids of every reported bin, ascending.
    pub fn bin_ids(&self) -> Vec<u64> {
        self.inner.lock().unwrap().entries.keys().copied().collect()
    }

    /// The cached `/events` listing — ranked fleet events as of the
    /// latest reported bin (an empty listing before the first bin).
    pub fn events_json(&self) -> Arc<String> {
        Arc::clone(&self.inner.lock().unwrap().events_listing)
    }

    /// The cached current state of one event (`/events/{id}`).
    pub fn event_json(&self, id: u64) -> Option<Arc<String>> {
        self.inner
            .lock()
            .unwrap()
            .event_bodies
            .get(&id)
            .map(Arc::clone)
    }

    /// The cached event deltas of one bin (`/bins/{id}/events`).
    pub fn bin_events(&self, bin: u64) -> Option<Arc<String>> {
        self.inner
            .lock()
            .unwrap()
            .entries
            .get(&bin)
            .map(|e| Arc::clone(&e.events))
    }

    /// Events still open as of the latest reported bin.
    pub fn events_open(&self) -> usize {
        self.inner.lock().unwrap().events_open
    }

    /// `/health` body. Besides the lifecycle counters it carries the
    /// degraded-mode triple: the last fault seen (stage panic, feed
    /// hiccup, checkpoint-write error), the feed retry / rejection
    /// counters, and the checkpoint position with its lag behind the
    /// latest reported bin.
    pub fn health_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let latest = inner.entries.keys().next_back().copied();
        let degraded = inner.phase == Phase::Failed || inner.degraded.last_fault.is_some();
        let checkpoint = inner.degraded.last_checkpoint_bin.map_or(Value::Null, |b| {
            Value::object(vec![
                ("last_bin", Value::Number(b as f64)),
                (
                    "lag_bins",
                    Value::Number(latest.map_or(0, |l| l.saturating_sub(b)) as f64),
                ),
            ])
        });
        Value::object(vec![
            ("service", Value::String("pinpointd".to_string())),
            ("phase", Value::String(inner.phase.as_str().to_string())),
            ("ready", Value::Bool(!inner.entries.is_empty())),
            (
                "bins_collected",
                Value::Number(inner.counters.collected as f64),
            ),
            (
                "bins_reported",
                Value::Number(inner.counters.reported as f64),
            ),
            (
                "latest_bin",
                latest.map_or(Value::Null, |b| Value::Number(b as f64)),
            ),
            ("events_open", Value::Number(inner.events_open as f64)),
            ("degraded", Value::Bool(degraded)),
            (
                "last_fault",
                inner
                    .degraded
                    .last_fault
                    .as_ref()
                    .map_or(Value::Null, |f| Value::String(f.clone())),
            ),
            (
                "feed_retries",
                Value::Number(inner.degraded.feed_retries as f64),
            ),
            (
                "feed_rejected",
                Value::Number(inner.degraded.feed_rejected as f64),
            ),
            ("checkpoint", checkpoint),
        ])
        .to_string()
    }

    /// `/bins` body: every reported bin with its headline counters. The
    /// listing is built under the state mutex and stringified after it
    /// is released, so a reader holds up the reporter's `publish` for
    /// the copy only.
    pub fn bins_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let rows = inner
            .entries
            .iter()
            .map(|(bin, e)| {
                Value::object(vec![
                    ("bin", Value::Number(*bin as f64)),
                    ("records", Value::Number(e.records as f64)),
                    ("delay_alarms", Value::Number(e.delay_alarms as f64)),
                    (
                        "forwarding_alarms",
                        Value::Number(e.forwarding_alarms as f64),
                    ),
                    ("latency_ms", Value::Number(e.latency_ms)),
                ])
            })
            .collect();
        let latest = inner
            .entries
            .keys()
            .next_back()
            .map_or(Value::Null, |b| Value::Number(*b as f64));
        drop(inner);
        Value::object(vec![("bins", Value::Array(rows)), ("latest", latest)]).to_string()
    }

    /// `/asn/{id}/timeline` body, `None` when the AS was never scored.
    /// Stringified outside the state mutex, like [`Self::bins_json`].
    pub fn timeline_json(&self, asn: u32) -> Option<String> {
        let inner = self.inner.lock().unwrap();
        let points = inner.timelines.get(&asn)?;
        let rows = points
            .iter()
            .map(|p| {
                Value::object(vec![
                    ("bin", Value::Number(p.bin as f64)),
                    ("delay_severity", Value::Number(p.delay_severity)),
                    ("forwarding_severity", Value::Number(p.forwarding_severity)),
                    ("delay_magnitude", Value::Number(p.delay_magnitude)),
                    (
                        "forwarding_magnitude",
                        Value::Number(p.forwarding_magnitude),
                    ),
                ])
            })
            .collect();
        drop(inner);
        Some(
            Value::object(vec![
                ("asn", Value::Number(f64::from(asn))),
                ("points", Value::Array(rows)),
            ])
            .to_string(),
        )
    }

    /// `(last, mean, peak)` collect→report latency over every reported
    /// bin, in wall milliseconds — the number the `service_e2e` bench
    /// workload tracks PR over PR.
    pub fn latency_ms(&self) -> (f64, f64, f64) {
        let inner = self.inner.lock().unwrap();
        (
            inner.counters.latency_last_ms,
            mean_latency(&inner.counters),
            inner.counters.latency_peak_ms,
        )
    }

    /// `/stats` body; queue gauges are read live by the caller.
    pub fn stats_json(&self, collect: QueueGauge, report: QueueGauge) -> String {
        let inner = self.inner.lock().unwrap();
        let mean = mean_latency(&inner.counters);
        Value::object(vec![
            ("phase", Value::String(inner.phase.as_str().to_string())),
            (
                "bins_collected",
                Value::Number(inner.counters.collected as f64),
            ),
            (
                "bins_reported",
                Value::Number(inner.counters.reported as f64),
            ),
            ("ingest", render::ingest_stats(&inner.ingest)),
            ("sanitize", render::sanitize_stats(&inner.sanitize)),
            (
                "queues",
                Value::object(vec![("collect", collect.json()), ("report", report.json())]),
            ),
            (
                "latency_ms",
                Value::object(vec![
                    ("last", Value::Number(inner.counters.latency_last_ms)),
                    ("mean", Value::Number(mean)),
                    ("peak", Value::Number(inner.counters.latency_peak_ms)),
                ]),
            ),
        ])
        .to_string()
    }
}

fn mean_latency(counters: &Counters) -> f64 {
    if counters.reported > 0 {
        counters.latency_sum_ms / counters.reported as f64
    } else {
        0.0
    }
}
