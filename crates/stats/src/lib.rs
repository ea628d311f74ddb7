//! # pinpoint-stats
//!
//! Robust statistics toolkit underpinning the `pinpoint` detection methods.
//!
//! The paper's central technical claim is that *robust statistics* — the
//! median, Wilson-score confidence intervals on order statistics, the median
//! absolute deviation — turn extremely noisy traceroute RTTs into stable,
//! normally-distributed estimators (§4.2.2). This crate implements every
//! statistical primitive the paper uses, from scratch:
//!
//! * [`mod@quantile`] — medians, arbitrary quantiles, order statistics
//!   (selection under `f64::total_cmp`), used for the median differential
//!   RTT;
//! * [`wilson`] — the Wilson score interval (Eq. 5) yielding distribution-free
//!   confidence intervals on the median;
//! * [`entropy`] — normalized Shannon entropy of probe-per-AS counts (§4.3);
//! * [`correlation`] — Pearson product-moment correlation for forwarding
//!   pattern comparison (§5.2.1);
//! * [`smoothing`] — exponential smoothing for scalar and vector references
//!   (Eq. 7 / Eq. 8);
//! * [`mod@mad`] — median absolute deviation and the magnitude metric (Eq. 10);
//! * [`sliding`] — one-week sliding median/MAD windows (§6);
//! * [`normal`] — standard normal CDF/quantile functions and Q-Q utilities
//!   (Fig. 3 normality checks);
//! * [`ecdf`] — empirical CDF/CCDF and histograms (Fig. 5);
//! * [`radix`] — stable LSD radix sort over `u64` composite keys, the
//!   engine's grouping kernel (stability preserves gather order, so the
//!   parallel engine's byte-for-byte parity holds by construction);
//! * [`descriptive`] — mean/variance/skewness for the comparisons against
//!   non-robust estimators;
//! * [`rng`] and [`distributions`] — a deterministic, seedable RNG and the
//!   samplers (normal, log-normal, exponential, Pareto, Bernoulli) used by
//!   the simulator. `rand_distr` is not in the allowed dependency set, so
//!   these are implemented and tested here.
//!
//! All functions are pure and deterministic; nothing here allocates global
//! state, so the whole pipeline is reproducible from a single seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod descriptive;
pub mod distributions;
pub mod ecdf;
pub mod entropy;
pub mod mad;
pub mod normal;
pub mod quantile;
pub mod radix;
pub mod rng;
pub mod sliding;
pub mod smoothing;
pub mod wilson;

pub use correlation::pearson;
pub use descriptive::Summary;
pub use ecdf::Ecdf;
pub use entropy::normalized_entropy;
pub use mad::{mad, magnitude};
pub use quantile::{median, quantile};
pub use radix::{sort_by_u64_key, RADIX_MIN_KEYS};
pub use rng::SplitMix64;
pub use sliding::SlidingRobust;
pub use smoothing::Ewma;
pub use wilson::{wilson_bounds, wilson_rank_bounds, ConfidenceInterval};
