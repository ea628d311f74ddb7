//! # pinpoint-bench
//!
//! The evaluation harness: the paper's figures and tables as one table of
//! claims ([`reproduce`], run by the `reproduce` binary), plus the
//! synthetic Atlas-scale workload generators ([`workload`]) and the
//! paper-literal reference the engine is checked against ([`oracle`]).
//!
//! `reproduce` accepts:
//!
//! * `--scale=small|paper` — fidelity (default `small`; `paper`
//!   approximates the published figure's probe counts and windows);
//! * `--seed=<u64>` — scenario seed (default 2015);
//! * `--only=<id>[,<id>…]` — the claims to run (default all 13).
//!
//! Each claim prints the *series its figure plots* (plus an ASCII
//! sparkline for quick eyeballing) and a `VERDICT:` line; the run ends in
//! a summary table and exits 1 when any claim diverged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oracle;
pub mod reproduce;
pub mod workload;
