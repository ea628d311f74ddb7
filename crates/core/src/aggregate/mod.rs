//! AS-level aggregation and event magnitudes (§6).
//!
//! Individual alarms are too numerous to triage by hand; the paper groups
//! them per AS and tracks two severity time series per AS — Σ d(Δ) for
//! delay changes and Σ rᵢ for forwarding anomalies — then normalizes each
//! by its one-week sliding median/MAD into the *magnitude* (Eq. 10) whose
//! peaks are the reportable events.

pub mod asmap;
pub mod empathy;
pub mod fleet;
pub mod magnitude;
pub mod severity;

pub use asmap::AsMapper;
pub use empathy::{
    Element, EmpathyExtractor, EventKind, EventStatus, EventTable, FleetEvent, StreamEvidence,
};
pub use fleet::merge_severities;
pub use magnitude::{AsMagnitude, MagnitudeTracker};
pub use severity::{delay_severity, forwarding_severity};
