//! The write side through `pinpoint_service::Daemon`: a feed that is
//! either paced (open loop: one bin per interval, whatever the daemon
//! does) or saturated (closed by backpressure: the next bin is ready the
//! moment the collector asks), and a watcher that stamps when each
//! report becomes visible in `ServiceState`.

use crate::engine::{Kind, Stop, WriteSide};
use crate::gen::Stream;
use crate::trace::Tracer;
use pinpoint_model::BinId;
use pinpoint_service::{Daemon, Phase, ReportHook, ServiceConfig, ServiceState};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The watcher's polling interval. Visibility stamps are late by at most
/// this much.
const WATCH_INTERVAL: Duration = Duration::from_micros(200);

/// Bin id + 1 of the newest visible report (0 = none yet), shared with
/// the open-loop reader.
pub type Newest = Arc<AtomicU64>;

/// One bin as the feed handed it over.
#[derive(Debug, Clone, Copy)]
struct Pulled {
    bin: u64,
    records: usize,
    /// When the bin was due (= when the collector asked, if saturated).
    due: Instant,
    /// When the feed returned it to the collector.
    at: Instant,
}

impl Pulled {
    /// How late the bin left the feed.
    fn late_ms(&self) -> f64 {
        (self.at - self.due).as_secs_f64() * 1e3
    }
}

/// A `BinSource` over a [`Stream`] (every `Iterator` of `(BinId, feed)`
/// is one).
pub struct Feed<K: Kind> {
    stream: Arc<Mutex<Stream>>,
    next: u64,
    first: u64,
    stop: Stop,
    /// `Some(interval)`: bin `first + k` is due at `began + k × interval`.
    pace: Option<Duration>,
    began: Instant,
    log: Arc<Mutex<Vec<Pulled>>>,
    kind: std::marker::PhantomData<fn() -> K>,
}

impl<K: Kind> Iterator for Feed<K> {
    type Item = (BinId, K::Owned);

    fn next(&mut self) -> Option<Self::Item> {
        let k = self.next - self.first;
        let due = self.pace.map(|interval| self.began + interval * k as u32);
        let done = match self.stop {
            Stop::Bins(n) => k >= n,
            Stop::After(d) => due.unwrap_or_else(Instant::now) >= self.began + d,
        };
        if done {
            return None;
        }
        let (owned, records) = {
            let mut stream = self.stream.lock().expect("the stream's users never panic");
            let feeds = stream.bin(self.next);
            (K::owned(feeds), feeds.iter().map(Vec::len).sum())
        };
        // The bin is cloned before the wait, so a paced bin leaves at
        // its due time, not a clone later.
        let due = match due {
            Some(due) => {
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                due
            }
            None => Instant::now(),
        };
        self.log
            .lock()
            .expect("log users never panic")
            .push(Pulled {
                bin: self.next,
                records,
                due,
                at: Instant::now(),
            });
        self.next += 1;
        Some((BinId(self.next - 1), owned))
    }
}

/// Removes the directory it names when dropped, so checkpoint files do
/// not outlive a run, whether it ends well or in a failed check.
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// A fresh directory under `benchmark/out/` (inside the checkout;
    /// nothing is written elsewhere).
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = PathBuf::from(format!("benchmark/out/tmp-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// How to run a daemon over a stream.
pub struct DaemonPlan {
    /// First bin fed.
    pub first: u64,
    /// When the feed ends.
    pub stop: Stop,
    /// Paced interval, or `None` for a saturated feed.
    pub pace: Option<Duration>,
    /// Watch `ServiceState` to stamp visibility (costs a polling thread).
    pub watch: bool,
    /// Checkpoint every 32 bins into this directory.
    pub checkpoint_dir: Option<PathBuf>,
}

/// A daemon whose feed is being consumed.
pub struct Running<K: Kind> {
    /// The daemon; its HTTP surface serves while and after the feed runs.
    pub daemon: Daemon,
    /// Newest visible bin, for readers.
    pub newest: Newest,
    first: u64,
    paced: bool,
    began: Instant,
    log: Arc<Mutex<Vec<Pulled>>>,
    hooks: Arc<Mutex<Vec<(u64, Instant)>>>,
    watcher: Option<(Arc<AtomicBool>, std::thread::JoinHandle<Watched>)>,
    kind: std::marker::PhantomData<fn() -> K>,
}

struct Watched {
    /// `(bin, first poll that saw it)`.
    visible: Vec<(u64, Instant)>,
    /// Polls that found the newest expected bin missing from the cache.
    out_of_order: u64,
}

/// A daemon whose feed ran dry and whose pipeline drained.
pub struct Drained {
    /// Still serving HTTP; `join` it when done.
    pub daemon: Daemon,
    /// What the write side measured.
    pub side: WriteSide,
    /// How late each paced bin left the feed, in ms (empty if saturated).
    pub feed_late_ms: Vec<f64>,
    /// First and one-past-last bin fed.
    pub bins: std::ops::Range<u64>,
}

fn watch(state: Arc<ServiceState>, first: u64, newest: Newest, stop: Arc<AtomicBool>) -> Watched {
    let mut out = Watched {
        visible: Vec::new(),
        out_of_order: 0,
    };
    let mut seen = 0;
    loop {
        // Read the flag first: a final poll after it is set catches
        // whatever was published in between.
        let last = stop.load(Ordering::SeqCst);
        let reported = state.bins_reported();
        if reported > seen {
            let now = Instant::now();
            // Reports are published in bin order, so `reported` of them
            // visible means bins first..first+reported are, and the
            // newest of those must be in the cache.
            if state.report(first + reported - 1).is_none() {
                out.out_of_order += 1;
            }
            out.visible
                .extend((seen..reported).map(|k| (first + k, now)));
            newest.store(first + reported, Ordering::SeqCst);
            seen = reported;
        }
        if last {
            return out;
        }
        std::thread::sleep(WATCH_INTERVAL);
    }
}

/// Spawn a daemon on `ServiceConfig::default()` (ephemeral port;
/// checkpointing if the plan names a directory) and start feeding it.
/// With a tracer that is on, a reporter hook stamps when each report
/// reaches the reporter (solo daemons only).
pub fn start<K: Kind>(
    engine: K::Engine,
    stream: Arc<Mutex<Stream>>,
    plan: &DaemonPlan,
    tracer: &Tracer,
) -> std::io::Result<Running<K>> {
    let cfg = ServiceConfig {
        checkpoint_every: if plan.checkpoint_dir.is_some() { 32 } else { 0 },
        checkpoint_dir: plan.checkpoint_dir.clone(),
        ..ServiceConfig::default()
    };
    let log = Arc::new(Mutex::new(Vec::new()));
    let hooks = Arc::new(Mutex::new(Vec::new()));
    let hook = tracer.on().then(|| {
        let hooks = Arc::clone(&hooks);
        Box::new(move |bin| {
            hooks
                .lock()
                .expect("hook users never panic")
                .push((bin, Instant::now()))
        }) as ReportHook
    });
    let began = Instant::now();
    let feed = Feed::<K> {
        stream,
        next: plan.first,
        first: plan.first,
        stop: plan.stop,
        pace: plan.pace,
        began,
        log: Arc::clone(&log),
        kind: std::marker::PhantomData,
    };
    let daemon = K::spawn(cfg, engine, feed, hook)?;
    let newest: Newest = Arc::new(AtomicU64::new(0));
    let watcher = plan.watch.then(|| {
        let stop = Arc::new(AtomicBool::new(false));
        let (state, newest, flag) = (
            Arc::clone(daemon.state()),
            Arc::clone(&newest),
            Arc::clone(&stop),
        );
        let first = plan.first;
        (
            stop,
            std::thread::spawn(move || watch(state, first, newest, flag)),
        )
    });
    Ok(Running {
        daemon,
        newest,
        first: plan.first,
        paced: plan.pace.is_some(),
        began,
        log,
        hooks,
        watcher,
        kind: std::marker::PhantomData,
    })
}

impl<K: Kind> Running<K> {
    /// Wait until the feed ran dry and every collected bin is published,
    /// then account the run. Spans go to `tracer` when it is on.
    pub fn drain(self, tracer: &mut Tracer) -> Drained {
        let state = Arc::clone(self.daemon.state());
        state.wait_done();
        let wall_s = self.began.elapsed().as_secs_f64();
        let watched = self.watcher.map(|(stop, handle)| {
            stop.store(true, Ordering::SeqCst);
            handle.join().expect("the watcher does not panic")
        });
        let log = std::mem::take(&mut *self.log.lock().expect("the feed is gone"));
        let hooks = std::mem::take(&mut *self.hooks.lock().expect("the reporter is gone"));
        let fed = log.len() as u64;
        let bins = self.first..self.first + fed;

        let mut side = WriteSide {
            attempted: fed,
            wall_s,
            ..WriteSide::default()
        };
        // Every fed bin exactly once: the cache holds exactly the fed ids
        // and the counter agrees. (In order: the watcher's check above.)
        let ids = state.bin_ids();
        if state.phase() != Phase::Done
            || state.bins_reported() != fed
            || !ids.iter().copied().eq(bins.clone())
        {
            side.failed += fed.max(1);
        }
        // A saturated feed is asked for bin k+1 when the pipeline has
        // room, so the pull times pace the throughput.
        side.completions = log
            .iter()
            .map(|p| ((p.at - self.began).as_secs_f64(), p.records as f64))
            .collect();
        if let Some(w) = &watched {
            side.failed += w.out_of_order + fed.saturating_sub(w.visible.len() as u64);
            for (pulled, (bin, visible)) in log.iter().zip(&w.visible) {
                debug_assert_eq!(pulled.bin, *bin);
                side.publish_ms
                    .push(visible.saturating_duration_since(pulled.due).as_secs_f64() * 1e3);
                let root = tracer.record("bench.publish", *bin, None, pulled.due, *visible);
                tracer.record(
                    "service.daemon.feed_wait",
                    *bin,
                    root,
                    pulled.due,
                    pulled.at,
                );
                if let Some((_, hooked)) = hooks.get((*bin - self.first) as usize) {
                    tracer.record(
                        "service.daemon.collect_to_report",
                        *bin,
                        root,
                        pulled.at,
                        *hooked,
                    );
                    tracer.record(
                        "service.daemon.render_publish",
                        *bin,
                        root,
                        *hooked,
                        *visible,
                    );
                }
            }
        }
        Drained {
            daemon: self.daemon,
            side,
            feed_late_ms: if self.paced {
                log.iter().map(Pulled::late_ms).collect()
            } else {
                Vec::new()
            },
            bins,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Solo;
    use crate::gen::{DelaySpec, StreamSpec};

    #[test]
    fn a_paced_feed_reports_how_late_each_bin_left() {
        let spec = StreamSpec {
            delay: Some(DelaySpec { pairs: 2 }),
            ..StreamSpec::default()
        };
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut feed = Feed::<Solo> {
            stream: Arc::new(Mutex::new(Stream::generate(spec, 1, 7))),
            next: 5,
            first: 5,
            stop: Stop::Bins(3),
            pace: Some(Duration::from_millis(10)),
            began: Instant::now(),
            log: Arc::clone(&log),
            kind: std::marker::PhantomData,
        };
        // Bin 5 is due at once; bins 6 and 7 are due at 10 and 20 ms but
        // are asked for at ~35 ms, so they leave ~25 and ~15 ms late.
        assert_eq!(feed.next().unwrap().0, BinId(5));
        std::thread::sleep(Duration::from_millis(35));
        assert_eq!(feed.next().unwrap().0, BinId(6));
        assert_eq!(feed.next().unwrap().0, BinId(7));
        assert!(feed.next().is_none());
        let late: Vec<f64> = log.lock().unwrap().iter().map(Pulled::late_ms).collect();
        assert!(late[0] < 5.0, "{late:?}");
        assert!((24.0..40.0).contains(&late[1]), "{late:?}");
        assert!((14.0..30.0).contains(&late[2]), "{late:?}");
        assert!(
            late[1] > late[2],
            "a due time is fixed when the feed starts, not when it is asked"
        );
    }
}
