//! # pinpoint-service
//!
//! The live deployment shape of the pipeline (§8's "Internet Health
//! Report" service): a long-running daemon that collects traceroute
//! bins from a feed, analyzes them on the bin executor through the
//! unified `pinpoint_core::session` API, renders each
//! report once into an immutable cache, and serves the results over a
//! std-only HTTP surface.
//!
//! Three stages, two bounded queues (see [`daemon`] for the topology):
//! the collector pulls bin *n+1* while the executor analyzes bin *n*;
//! the reporter renders and publishes each report as soon as its bin is
//! analyzed. Every queue blocks its producer
//! when full ([`queue::BoundedQueue`]), so a slow consumer stalls the
//! stage above instead of growing a backlog — the service is
//! memory-bounded by construction. Graceful shutdown ([`Daemon::
//! shutdown`] or `POST /shutdown`) stops only the collector and drains
//! everything already collected: no collected bin goes unreported.
//!
//! **Determinism contract, extended to the service:** replaying the
//! same record sequence through the daemon produces reports
//! byte-identical to the offline `scenarios::run` rendered through
//! `pinpoint_core::render` — proven by `tests/service_parity.rs` across
//! the thread/chunk CI matrix.
//!
//! **Crash safety:** every stage runs supervised (`catch_unwind`); a
//! panic poisons both queues, flips the phase to [`Phase::Failed`], and
//! leaves the HTTP surface serving cached reports plus a degraded
//! `/health`. The executor can periodically persist byte-stable
//! snapshots through [`checkpoint::CheckpointStore`]; a restarted
//! process restores the newest valid checkpoint and resumes with
//! reports byte-identical to the uninterrupted run. Live feeds plug in
//! through [`feed::RecoverableSource`], whose disconnect/stall signals
//! the collector answers with capped-exponential-backoff retries and
//! whose duplicated or reordered bins it rejects by monotonicity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod daemon;
pub mod feed;
pub mod http;
pub mod queue;
pub mod state;

pub use checkpoint::CheckpointStore;
pub use daemon::{Daemon, ReportHook, ServiceConfig};
pub use feed::{FeedSignal, RecoverableSource, SignalFeed, SteadyFeed};
pub use queue::{BoundedQueue, Closed};
pub use state::{Phase, QueueGauge, ServiceState};
