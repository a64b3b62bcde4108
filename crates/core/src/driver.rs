//! The execution engines behind the [`crate::Garnet`] facade, and the
//! stage counters it reads off them.
//!
//! [`GarnetConfig::driver`] picks between two hostings of the same FIFO
//! [`Router`](crate::router::Router), which the facade owns directly:
//!
//! * [`DriverKind::Fifo`] — every stage inline, in the caller's thread;
//! * [`DriverKind::Threaded`] — the same FIFO router, with its ingest
//!   shards on worker threads
//!   ([`ShardedIngest::pooled`](crate::router::ShardedIngest::pooled)).
//!   Dispatch and the control graph stay inline.
//!
//! Both run the same router code over the same queue, so deliveries,
//! metrics and trace dumps are identical for the same input schedule.
//!
//! [`GarnetConfig::driver`]: crate::GarnetConfig::driver

use garnet_simkit::Histogram;

use crate::filtering::FilteringService;

/// Which execution engine hosts the service graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriverKind {
    /// The single-threaded FIFO [`Router`](crate::router::Router): one event at a time, the
    /// reference interleaving. The simulation default.
    Fifo,
    /// The FIFO [`Router`](crate::router::Router) with its ingest shards
    /// on worker threads:
    /// each filtering pass runs one job per shard on a supervised pool
    /// and waits for all of them, so every observable matches the FIFO
    /// engine.
    Threaded,
}

impl Default for DriverKind {
    /// [`DriverKind::Fifo`], unless the `GARNET_TEST_DRIVER`
    /// environment variable says `threaded` — the hook CI uses to run
    /// default-config test suites against both engines without
    /// editing them.
    fn default() -> Self {
        match std::env::var("GARNET_TEST_DRIVER") {
            Ok(v) if v.eq_ignore_ascii_case("threaded") => DriverKind::Threaded,
            _ => DriverKind::Fifo,
        }
    }
}

/// Ingest-stage counters, snapshotted by value. (By value because the
/// stage aggregates per-shard snapshots on demand — there is no single
/// struct to borrow.)
#[derive(Clone, Copy, Debug, Default)]
pub struct FilterStats {
    pub(crate) delivered: u64,
    pub(crate) duplicates: u64,
    pub(crate) crc_failures: u64,
    pub(crate) reordered: u64,
    pub(crate) gaps: u64,
    pub(crate) restarts: u64,
    pub(crate) streams: usize,
}

impl FilterStats {
    /// Snapshot of one filtering shard's counters.
    pub(crate) fn of(filter: &FilteringService) -> Self {
        FilterStats {
            delivered: filter.delivered_count(),
            duplicates: filter.duplicate_count(),
            crc_failures: filter.crc_failure_count(),
            reordered: filter.reordered_count(),
            gaps: filter.gap_count(),
            restarts: filter.restart_count(),
            streams: filter.stream_count(),
        }
    }

    /// Sums two shard snapshots (streams are partitioned across
    /// shards, so the sums are exact).
    pub(crate) fn absorb(mut self, other: FilterStats) -> Self {
        self.delivered += other.delivered;
        self.duplicates += other.duplicates;
        self.crc_failures += other.crc_failures;
        self.reordered += other.reordered;
        self.gaps += other.gaps;
        self.restarts += other.restarts;
        self.streams += other.streams;
        self
    }

    /// Messages released downstream.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Duplicate frames eliminated.
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates
    }

    /// Frames rejected by CRC/decode.
    pub fn crc_failure_count(&self) -> u64 {
        self.crc_failures
    }

    /// Frames buffered out of order.
    pub fn reordered_count(&self) -> u64 {
        self.reordered
    }

    /// Gaps accepted.
    pub fn gap_count(&self) -> u64 {
        self.gaps
    }

    /// Stream restarts detected.
    pub fn restart_count(&self) -> u64 {
        self.restarts
    }

    /// Streams tracked.
    pub fn stream_count(&self) -> usize {
        self.streams
    }
}

/// Dispatch-stage counters, snapshotted by value.
#[derive(Clone, Debug, Default)]
pub struct DispatchStats {
    pub(crate) dispatched: u64,
    pub(crate) deliveries: u64,
    pub(crate) unclaimed: u64,
    pub(crate) fanout: Histogram,
    pub(crate) subscribers: usize,
    pub(crate) match_cache: garnet_net::MatchCacheStats,
}

impl DispatchStats {
    /// Messages routed.
    pub fn dispatched_count(&self) -> u64 {
        self.dispatched
    }

    /// Total (message, subscriber) deliveries.
    pub fn delivery_count(&self) -> u64 {
        self.deliveries
    }

    /// Messages that matched nobody.
    pub fn unclaimed_count(&self) -> u64 {
        self.unclaimed
    }

    /// Distribution of per-message fan-out.
    pub fn fanout(&self) -> &Histogram {
        &self.fanout
    }

    /// Distinct subscribers with live subscriptions.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers
    }

    /// Match-cache counters, folded across dispatch shards.
    pub fn match_cache(&self) -> garnet_net::MatchCacheStats {
        self.match_cache
    }
}
