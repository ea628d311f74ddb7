//! # pinpoint
//!
//! Facade crate re-exporting the full `pinpoint` workspace: a reproduction
//! of *"Pinpointing Delay and Forwarding Anomalies Using Large-Scale
//! Traceroute Measurements"* (Fontugne, Aben, Pelsser, Bush — IMC 2017).
//!
//! ```
//! use pinpoint::core::{Analyzer, DetectorConfig};
//! use pinpoint::core::aggregate::AsMapper;
//!
//! // An analyzer ready to consume hourly bins of traceroute records —
//! // see `examples/quickstart.rs` for the end-to-end walk-through.
//! let analyzer = Analyzer::new(DetectorConfig::default(), AsMapper::new());
//! assert_eq!(analyzer.tracked_links(), 0);
//! ```
//!
//! * [`model`] — shared data model (addresses, time bins, traceroute records)
//! * [`stats`] — robust statistics (medians, Wilson scores, entropy, MAD)
//! * [`netsim`] — deterministic Internet simulator with event injection
//! * [`atlas`] — RIPE Atlas measurement platform emulator
//! * [`core`] — the paper's detection pipeline (see its crate docs for the
//!   parallel bin-engine architecture)
//! * [`scenarios`] — reproducible case-study scenarios
//! * [`service`] — the live daemon (`pinpointd`): collector → executor →
//!   reporter pipeline behind bounded queues, with an HTTP health API

#![forbid(unsafe_code)]

pub use pinpoint_atlas as atlas;
pub use pinpoint_core as core;
pub use pinpoint_model as model;
pub use pinpoint_netsim as netsim;
pub use pinpoint_scenarios as scenarios;
pub use pinpoint_service as service;
pub use pinpoint_stats as stats;
