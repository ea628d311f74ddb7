//! # pinpoint-core
//!
//! The paper's contribution: detection of delay changes and forwarding
//! anomalies from large-scale traceroute measurements, and AS-level
//! aggregation into event magnitudes.
//!
//! *Fontugne, Aben, Pelsser, Bush — "Pinpointing Delay and Forwarding
//! Anomalies Using Large-Scale Traceroute Measurements", IMC 2017.*
//!
//! ## Architecture
//!
//! ```text
//!   TracerouteRecord stream (pinpoint-atlas, or your own Atlas feed)
//!        │ 1-hour bins
//!        ▼
//!   ┌──────────────────────────┐   ┌──────────────────────────────┐
//!   │ diffrtt: differential    │   │ forwarding: per-(router,dst) │
//!   │ RTT per IP link,         │   │ next-hop patterns, Pearson   │
//!   │ ≥3-AS + entropy filter,  │   │ correlation vs smoothed      │
//!   │ median + Wilson CI vs    │   │ reference, per-hop           │
//!   │ smoothed reference (§4)  │   │ responsibility scores (§5)   │
//!   └───────────┬──────────────┘   └───────────────┬──────────────┘
//!               │ DelayAlarm(d(Δ))                 │ ForwardingAlarm(ρ, rᵢ)
//!               ▼                                  ▼
//!   ┌──────────────────────────────────────────────────────────────┐
//!   │ aggregate: IP→AS longest-prefix match, per-AS severity time  │
//!   │ series, magnitude = sliding median/MAD normalization (§6)    │
//!   └──────────────────────────────────────────────────────────────┘
//!               │                                  │
//!               ▼                                  ▼
//!        AS delay magnitude                AS forwarding magnitude
//!               └────────────── graph: alarm connected components
//!                               around an address (Fig. 8 / Fig. 12)
//! ```
//!
//! In front of it all sits the record [`sanitize`]r: real traceroute
//! feeds carry measurement artifacts (loops and false links from
//! per-flow load balancing, wrong-hop ICMP attribution, impossible
//! RTTs), and structurally broken records are quarantined — with
//! repairable ones replaced by a fixed copy — before any detector sees
//! them. The verdict runs inside the scatter wave, record by record, so
//! a bin is read once and never copied; it is counted per bin in
//! [`sanitize::SanitizeStats`]
//! ([`pipeline::Analyzer::sanitize_stats`] /
//! [`stream::StreamRouter::sanitize_stats`]).
//!
//! [`pipeline::Analyzer`] wires the stages together for both offline batch
//! runs and the §8 streaming ("Internet Health Report") mode;
//! [`stream::StreamRouter`] scales that to a fleet of analyzers — one per
//! concurrent measurement stream — sharing one engine pool with merged
//! cross-stream reporting. Both run bins through the one executor in
//! [`session`] ([`pipeline::Analyzer::session`] /
//! [`stream::StreamRouter::session`]); `process_bin` is one push of
//! it.
//!
//! ## Performance
//!
//! The per-bin hot path is a sharded, parallel, allocation-lean engine
//! (the paper's system must keep pace with the full Atlas stream, §8):
//!
//! * **Chunked parallel ingestion** — the record→row scatter pass (the
//!   front door of every bin) splits records into fixed-size chunks —
//!   one cut per bin, derived from the worker count alone
//!   ([`ingest::resolve_chunk_for`]) — and scatters them on the engine
//!   pool into per-(chunk, shard) row buffers, concatenated per shard
//!   **in chunk order** so grouped output is byte-identical for any
//!   chunk size or thread count ([`ingest`]). A bin enters whole
//!   ([`session::AnalysisSession::push_bin`]).
//! * **Persistent interning epochs** — links, probes, pattern keys, and
//!   next hops intern into dense ids once and stay interned across bins:
//!   steady-state bins perform zero intern-table insertions (counted by
//!   [`pipeline::Analyzer::ingest_stats`], asserted in tests), and a
//!   compaction sweep on the shared
//!   `reference_expiry_bins` clock keeps the tables bounded under key
//!   churn — invisibly, since dense ids never reach reports.
//! * **One arena, two specs** — both detectors stage a bin through the
//!   same `ingest::EpochArena` (intern epochs, chunk-local pending ids,
//!   chunk-ordered merge and gather, stamp fence, compaction, snapshot
//!   codec — written once); a spec supplies only its key types, its
//!   per-record scatter body and its per-shard grouped layout
//!   (`diffrtt::compute::DelaySpec`, `forwarding::pattern::PatternSpec`).
//! * **Flat sample arena with run-length staging** — each (record, link)
//!   observation lands as ONE `(key, start, len)` run over a per-shard
//!   value pool (the delay spec's staging): its 1–9 differential RTTs
//!   share a key, so the per-shard grouping sort touches ~an order of
//!   magnitude fewer elements than row-by-row staging would, and equal
//!   keys keep record order by a (chunk, offset) tiebreak. Every buffer
//!   is reused across bins: a steady stream settles into zero
//!   steady-state allocation.
//! * **Sharded per-link pipeline** — links (and their smoothed
//!   references) are assigned to 32 shards by a stable hash; a scoped
//!   thread pool walks whole shards, so reference mutation needs no
//!   locks. `DetectorConfig::threads` picks the worker count (0 = all
//!   cores).
//! * **Sharded forwarding engine** — the §5 detector runs the same
//!   architecture: next-hop packets are staged as 16-byte rows in the
//!   same arena under the pattern spec (bin-reused buffers), pattern
//!   keys shard by a stable `FxHash`, and each shard worker owns its
//!   reference map through the check → alarm → update pipeline.
//! * **Reference eviction on both sides** — delay *and* forwarding
//!   references carry a last-seen bin and age out after
//!   `DetectorConfig::reference_expiry_bins`, so churned links and
//!   (router, destination) pairs cannot grow the maps without bound
//!   (and links that die mid-warm-up release their warm-up buffers).
//! * **One worker pool for both detectors** — the shared engine module
//!   boxes one job per shard of *both* detectors, and inside
//!   [`pipeline::Analyzer::process_bin`] the calling thread and its
//!   scoped helpers claim them from one atomic index, so delay-link
//!   shards and forwarding-pattern shards interleave on the same cores
//!   (§4 ∥ §5) instead of racing as two thread herds, and a wave ends
//!   when its work does.
//! * **One worker pool for a whole fleet** — a [`stream::StreamRouter`]
//!   session stages every member analyzer's bin first, then runs ALL
//!   streams' shard jobs on one pool: stream A's delay shards interleave with
//!   stream B's forwarding shards. Per-stream state stays per-stream;
//!   the merged [`stream::FleetReport`] sums per-AS severities across
//!   streams and normalizes them against a fleet-level baseline. See
//!   `src/README.md` for the architecture and the full determinism
//!   contract.
//! * **Report on push** — the bin executor ([`session::Session`], the
//!   same code for a solo analyzer and a fleet) runs one straight-line
//!   schedule per bin: compaction sweep, scatter wave, serial merge
//!   fence (the only place intern epochs advance), shard wave, absorb.
//!   A bin's report is the return value of the push that fed it, so a
//!   live consumer learns about bin *n* without waiting for bin *n+1*;
//!   the cross-bin overlap that remains is between the service's
//!   threads (feed pull ∥ analyze ∥ render). An earlier depth-2
//!   schedule that overlapped bin *n+1*'s scatter with bin *n*'s shards
//!   was removed on measurement — see `src/README.md`.
//! * **Radix grouping** — the per-shard grouping sort runs a stable
//!   LSD radix sort over the packed `u64` run keys
//!   (`pinpoint_stats::sort_by_u64_key`): an XOR-diff pre-pass skips
//!   the constant byte digits packed ids leave dead, bails out on
//!   already-sorted shards, and hands nearly-sorted shards (the
//!   k-ascending-runs shape a chunked gather produces) to the standard
//!   library's run-adaptive stable merge — so only genuinely shuffled
//!   shards pay counting passes, where radix beats the comparison sort
//!   2–4×. Stability replaces the explicit gather-order tiebreak;
//!   shards below `pinpoint_stats::RADIX_MIN_KEYS` keep the comparison
//!   sort.
//! * **Selection, not sorting** — per-link characterization fetches
//!   the median and both Wilson-rank CI bounds with one range selection
//!   (`median_ci_select_ranks`: two `select_nth_unstable_by` calls under
//!   `f64::total_cmp`, then a sort of the small window between the
//!   Wilson ranks) instead of a full sort; the Wilson rank bounds (a pure
//!   function of the sample count) are memoized per shard, and each
//!   kept link's samples are copied **once**, from the chunk pools the
//!   scatter wrote them to into the shard's selection buffer; a link the
//!   §4.3 diversity floor discards is never copied.
//! * **Determinism** — per-link randomness is derived from
//!   `(seed, link, bin)`, job outputs merge in job order (never
//!   completion order), alarms get a final total-order sort, ingestion
//!   follows the chunk-order rule, and intern epochs advance only at
//!   the merge fence, so output is byte-for-byte identical for any
//!   thread count and any scatter chunk size. This crate holds no second
//!   copy of the detectors: the reference lives outside it, in
//!   `pinpoint_bench::oracle`, which recomputes each report from the
//!   paper's formulas with ordered maps. `tests/engine_parity.rs` +
//!   `tests/forwarding_parity.rs` + `tests/stream_parity.rs` +
//!   `tests/ingest_parity.rs` + `tests/pipeline_overlap_parity.rs`
//!   compare the engine with it across scenarios, seeds, thread counts,
//!   and the chunk cuts they derive (re-run in CI under a
//!   `PINPOINT_THREADS` ∈ {1, 2, 4, 8} matrix on a multi-core runner),
//!   and `tests/golden.rs` pins the report bytes themselves.
//!
//! Performance is measured in one place: the benchmark declared by
//! `BENCHMARK.json` at the repo root (its own workspace in `benchmark/`),
//! four workloads with bounded end-to-end metrics and a per-layer set
//! (`core.session.*`, `core.diffrtt.*`, `core.ingest.*`, …).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod config;
pub mod diffrtt;
pub(crate) mod engine;
pub mod forwarding;
pub mod graph;
pub mod ingest;
pub mod pipeline;
pub mod render;
pub mod sanitize;
pub mod session;
pub mod snapshot;
pub mod stream;

pub use aggregate::{EmpathyExtractor, EventTable, FleetEvent};
pub use config::DetectorConfig;
pub use diffrtt::{DelayAlarm, DelayDetector};
pub use forwarding::{ForwardingAlarm, ForwardingDetector, NextHop};
pub use ingest::IngestStats;
pub use pipeline::{Analyzer, BinReport};
pub use sanitize::SanitizeStats;
pub use session::{
    AnalysisSession, AnalyzerSession, AnalyzerSet, BinSource, FleetSession, Session,
};
pub use snapshot::SnapshotError;
pub use stream::{FleetReport, StreamId, StreamRouter};
