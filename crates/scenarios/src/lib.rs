//! # pinpoint-scenarios
//!
//! Reproducible case-study scenarios: each builds a simulated Internet
//! containing the paper's protagonists, scripts the documented disruption,
//! runs the measurement platform, and exposes everything the figure
//! harnesses need.
//!
//! | Scenario | Paper section | Ground truth |
//! |----------|--------------|--------------|
//! | [`steady`] | Fig. 2/3 | a quiet fortnight on a Cogent-like ZRH→MUC link |
//! | [`ddos`] | §7.1, Fig. 5–8 | two DDoS windows against anycast root services |
//! | [`leak`] | §7.2, Fig. 9–12 | a customer route leak through a tier-1 |
//! | [`ixp`] | §7.3, Fig. 13 | an IXP fabric outage blackholing its LAN |
//! | [`multi`] | §7.3 + §8 | the same outage split over a three-stream analyzer fleet |
//! | [`artifacts`] | §3 (data) | the IXP outage under graded measurement-artifact noise, with recall / false-alarm gates |
//! | [`full`] | Fig. 5, Table A | all of the above over two months |
//!
//! All scenarios share the [`world`] topology so addresses and ASNs are
//! consistent across figures; [`Scale`] trades fidelity for runtime
//! (`Small` for unit tests, `Paper` for figure regeneration).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod ddos;
pub mod full;
pub mod ixp;
pub mod leak;
pub mod multi;
pub mod runner;
pub mod steady;
pub mod world;

pub use runner::{run, CaseStudy, RunSummary};
pub use world::{Landmarks, Scale, World};
