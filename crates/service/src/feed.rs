//! Fault-aware feed sources for the collector.
//!
//! The offline entry points consume a plain [`BinSource`] — an
//! infallible in-order bin iterator. A live deployment's feed is neither: it
//! stalls, disconnects, and (after reconnects) replays duplicated or
//! out-of-order bins. [`RecoverableSource`] is the contract the
//! collector actually consumes: a stream of [`FeedSignal`]s where
//! transport faults are explicit markers the collector answers with
//! capped-exponential-backoff retries, and bin-stream faults
//! (duplicates, reordering) are handled by the collector's own
//! monotonicity rule — a bin whose id is ≤ the last accepted id is
//! rejected, exactly the rule `netsim::RecoveredFeed` applies, so the
//! daemon over a faulty feed byte-matches an offline run over the
//! recovered feed.

use pinpoint_core::session::BinSource;
use pinpoint_model::BinId;

/// One observation from a live feed: a bin, or a transport fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedSignal<F> {
    /// A bin arrived (possibly duplicated, reordered, or truncated —
    /// the collector's monotonicity rule sorts that out).
    Bin(BinId, F),
    /// The feed stalled for roughly this many bin intervals before the
    /// next delivery. Informational: the collector records it and keeps
    /// waiting.
    Stall(u64),
    /// The transport dropped. The collector sleeps one backoff step
    /// (capped exponential) and polls again.
    Disconnect,
}

/// A feed that can signal transport faults. `None` means the stream is
/// over for good (graceful end), not a fault.
pub trait RecoverableSource: Send + 'static {
    /// What one bin's payload looks like (`Vec<TracerouteRecord>` solo,
    /// `Vec<Vec<TracerouteRecord>>` fleet).
    type Feed;

    /// The next signal, blocking until one is available.
    fn next_signal(&mut self) -> Option<FeedSignal<Self::Feed>>;
}

/// An iterator of [`FeedSignal`]s lifted into a [`RecoverableSource`]
/// — the bridge for `netsim::FaultyFeed` (map its `FeedEvent`s into
/// signals, wrap the iterator in this).
pub struct SignalFeed<I>(pub I);

impl<I, F> RecoverableSource for SignalFeed<I>
where
    I: Iterator<Item = FeedSignal<F>> + Send + 'static,
{
    type Feed = F;

    fn next_signal(&mut self) -> Option<FeedSignal<F>> {
        self.0.next()
    }
}

/// A fault-free [`BinSource`] lifted into the fault-aware contract —
/// what [`crate::Daemon::spawn`] wraps a plain feed in.
pub struct SteadyFeed<F>(pub F);

impl<F> RecoverableSource for SteadyFeed<F>
where
    F: BinSource + Send + 'static,
{
    type Feed = F::Feed;

    fn next_signal(&mut self) -> Option<FeedSignal<F::Feed>> {
        self.0
            .next_bin()
            .map(|(bin, feed)| FeedSignal::Bin(bin, feed))
    }
}
