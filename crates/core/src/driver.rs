//! The execution engines behind the [`crate::Garnet`] facade.
//!
//! [`RouterDriver`] is the router-facing surface the facade actually
//! uses: frame admission, pumping to quiescence, subscription changes,
//! the metrics counters, the overload ledger, shard supervision and the
//! flight recorder. [`FifoDriver`] implements it over the FIFO
//! [`Router`], and hosts both engines [`GarnetConfig::driver`] picks
//! between:
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

use garnet_net::{ShardFailure, SubscriberId, TopicFilter};
use garnet_radio::ReceiverId;
use garnet_simkit::trace::{TraceConfig, TraceSnapshot};
use garnet_simkit::{Histogram, SimTime};
use garnet_wire::{FrameBytes, StreamId};

use crate::filtering::FilteringService;
use crate::router::{
    ControlGraph, FrameAdmission, OverloadConfig, OverloadTotals, Router, Services,
};
use crate::service::{BatchedFrame, ServiceEvent, ServiceOutput};
use crate::stream::ShardedStreamRegistry;
use crate::telemetry::{PipelineSpans, QueueDepthGauges};

/// Which execution engine hosts the service graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriverKind {
    /// The single-threaded FIFO [`Router`]: one event at a time, the
    /// reference interleaving. The simulation default.
    Fifo,
    /// The FIFO [`Router`] with its ingest shards on worker threads:
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

/// Ingest-stage counters, snapshotted by value through the driver
/// surface. (By value because the stage aggregates per-shard snapshots
/// on demand — there is no single struct to borrow.)
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

/// Dispatch-stage counters, snapshotted by value through the driver
/// surface.
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

/// The router-facing surface [`crate::Garnet`] drives. Everything the
/// facade needs — admission, pumping, subscriptions, stream catalogue,
/// control-plane access, metrics, the overload ledger, shard
/// supervision and the flight recorder — with both engines behind it.
///
/// The contract the facade's determinism guarantees rest on:
///
/// * [`RouterDriver::pump`] returns escaped outputs in the exact order
///   the FIFO router would surface them; an empty batch means the
///   graph is quiescent.
/// * Subscription and registry mutations only happen between pumps
///   (the facade is single-threaded), so engines may serve them from
///   shared state without locking the hot path.
/// * [`RouterDriver::shutdown`] drains in-flight work; afterwards reads
///   (metrics, traces, streams) still work.
pub trait RouterDriver: std::fmt::Debug {
    /// Queues one boundary event — the control path: never shed.
    fn push_event(&mut self, ev: ServiceEvent, now: SimTime);

    /// Offers one frame to admission control. Returns any outputs that
    /// escaped the graph while admission made room (only
    /// [`crate::router::OverloadPolicy::Block`] produces these; they
    /// must be applied before the next pump).
    fn admit_frame(
        &mut self,
        receiver: ReceiverId,
        rssi_dbm: f64,
        frame: FrameBytes,
        now: SimTime,
    ) -> Vec<ServiceOutput>;

    /// Offers a burst of frames to admission control as one unit.
    ///
    /// Semantically identical to calling [`RouterDriver::admit_frame`]
    /// once per frame in order — the overload ledger counts every
    /// individual frame — but engines amortise per-frame costs over
    /// the burst (one filtering pass per batch).
    fn admit_frames(&mut self, frames: Vec<BatchedFrame>, now: SimTime) -> Vec<ServiceOutput>;

    /// Advances the graph, returning escaped outputs in canonical
    /// order. An empty batch means quiescence; the facade loops until
    /// then, applying outputs (which may push new events) in between.
    fn pump(&mut self, now: SimTime) -> Vec<ServiceOutput>;

    /// Allocates a fresh subscriber identity.
    fn register_subscriber(&mut self) -> SubscriberId;

    /// Adds a subscription. Returns true if new.
    fn subscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool;

    /// Removes one subscription.
    fn unsubscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool;

    /// Removes every subscription of a departing subscriber, returning
    /// how many it held.
    fn unsubscribe_all(&mut self, subscriber: SubscriberId) -> usize;

    /// True if a message on `stream` would reach at least one
    /// subscriber.
    fn would_deliver(&self, stream: StreamId) -> bool;

    /// Overrides the stream catalogue's claimed flag.
    fn set_claimed(&mut self, stream: StreamId, claimed: bool);

    /// The stream catalogue.
    fn streams(&self) -> &ShardedStreamRegistry;

    /// The control-plane services (synchronous request/response calls:
    /// orphanage claims, location reads, profile registration).
    fn control(&self) -> &ControlGraph;

    /// Mutable control-plane access.
    fn control_mut(&mut self) -> &mut ControlGraph;

    /// Ingest-stage counters.
    fn filter_stats(&self) -> FilterStats;

    /// Dispatch-stage counters.
    fn dispatch_stats(&self) -> DispatchStats;

    /// Monotonic admission totals; at quiescence
    /// `offered == shed + delivered`.
    fn overload_totals(&self) -> OverloadTotals;

    /// High-water mark of the frame queue.
    fn peak_queue_depth(&self) -> u64;

    /// p99 of queue-depth-at-admission samples (0 when unbounded —
    /// neither engine samples an ungoverned queue).
    fn queue_depth_p99(&self) -> u64;

    /// Shard restarts performed by a supervision policy (always 0 when
    /// ingest runs inline — nothing panics, nothing restarts).
    fn shard_restart_count(&self) -> u64;

    /// Jobs accepted per [`garnet_net::EdgeClass`] at the engine's
    /// worker boundary, indexed by `EdgeClass::index`. All zeros when
    /// ingest runs inline, with no channel boundary to account at.
    fn edge_class_submits(&self) -> [u64; 3] {
        [0; 3]
    }

    /// The pipeline latency spans recorded so far (filtering /
    /// dispatching / end-to-end, sim-time driven and therefore
    /// engine-invariant). Still readable after shutdown.
    fn pipeline_spans(&self) -> &PipelineSpans;

    /// The per-ingest-shard admission-depth gauges. Still readable
    /// after shutdown.
    fn queue_depth_gauges(&self) -> &QueueDepthGauges;

    /// Turns latency-span and depth-gauge recording on or off (on by
    /// default).
    fn set_telemetry_recording(&mut self, enabled: bool);

    /// Resets the telemetry depth counts at a logical quiescence point
    /// (the facade calls this after pumping the engine dry; watermarks
    /// survive).
    fn note_telemetry_quiescent(&mut self);

    /// Takes worker failures recorded since the last call (always
    /// empty when ingest runs inline, with no threads to lose).
    fn take_shard_failures(&mut self) -> Vec<ShardFailure>;

    /// The earliest time-driven deadline across services.
    fn next_deadline(&self) -> Option<SimTime>;

    /// Replaces the flight recorder with one of the given capacity.
    fn configure_trace(&mut self, config: TraceConfig);

    /// The flight recorder's current contents.
    fn trace_snapshot(&self) -> TraceSnapshot;

    /// Streams the flight recorder's window to `w` as JSONL and clears
    /// it (see [`garnet_simkit::trace::Tracer::drain_to`]).
    fn trace_drain_to(&mut self, w: &mut dyn std::io::Write) -> std::io::Result<usize>;

    /// Drains in-flight work, returning the outputs released on the way
    /// out. Reads keep working afterwards.
    fn shutdown(&mut self, now: SimTime) -> Vec<ServiceOutput>;
}

/// The FIFO [`Router`] behind the driver surface — the host of both
/// [`DriverKind`]s, which differ only in the services' ingest stage.
#[derive(Debug)]
pub struct FifoDriver {
    router: Router,
    /// Pump with [`Router::step_batch`] (consume consecutive Frame runs
    /// in one filtering pass) instead of [`Router::step`]. Bit-identical
    /// either way; `false` is the legacy path CI compares against.
    batch: bool,
}

impl FifoDriver {
    /// Wraps a router over the given services. `batch` selects batch
    /// pumping (see [`FifoDriver::batch`]).
    pub fn new(services: Services, overload: Option<OverloadConfig>, batch: bool) -> Self {
        FifoDriver { router: Router::with_overload(services, overload), batch }
    }
}

impl RouterDriver for FifoDriver {
    fn push_event(&mut self, ev: ServiceEvent, _now: SimTime) {
        self.router.enqueue(ev);
    }

    fn admit_frame(
        &mut self,
        receiver: ReceiverId,
        rssi_dbm: f64,
        frame: FrameBytes,
        now: SimTime,
    ) -> Vec<ServiceOutput> {
        let mut escaped = Vec::new();
        let mut pending = frame;
        // A blocked admission drains one event to make room, then
        // retries. The queue is non-empty whenever admission blocks
        // (capacity ≥ 1 and we are at capacity), so the inner step
        // always makes progress.
        while let FrameAdmission::Blocked(frame) =
            self.router.admit_frame(receiver, rssi_dbm, pending, now)
        {
            pending = frame;
            let Some(outputs) = self.router.step(now) else {
                break; // defensive: cannot happen
            };
            escaped.extend(outputs);
        }
        escaped
    }

    fn admit_frames(&mut self, frames: Vec<BatchedFrame>, now: SimTime) -> Vec<ServiceOutput> {
        // Admission stays per-frame (exact ledger, exact queue-depth
        // samples); the batch win comes from the pump, where
        // `step_batch` pops the consecutive Frame run and filters it
        // in one pass.
        let mut escaped = Vec::new();
        for f in frames {
            escaped.extend(self.admit_frame(f.receiver, f.rssi_dbm, f.frame, now));
        }
        escaped
    }

    fn pump(&mut self, now: SimTime) -> Vec<ServiceOutput> {
        // Steps until the first non-empty output batch: the facade
        // applies it (possibly pushing new events) and calls again, so
        // the apply-per-step cadence of driving the router directly is
        // preserved exactly. In batch mode `step_batch` consumes runs
        // of consecutive Frame events in one filtering pass; frame
        // steps emit no external outputs, so the batch is observably
        // identical to stepping the run one frame at a time.
        if self.batch {
            while let Some(outputs) = self.router.step_batch(now) {
                if !outputs.is_empty() {
                    return outputs;
                }
            }
        } else {
            while let Some(outputs) = self.router.step(now) {
                if !outputs.is_empty() {
                    return outputs;
                }
            }
        }
        Vec::new()
    }

    fn register_subscriber(&mut self) -> SubscriberId {
        self.router.services_mut().dispatch.register_subscriber()
    }

    fn subscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool {
        self.router.services_mut().dispatch.subscribe(subscriber, filter)
    }

    fn unsubscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool {
        self.router.services_mut().dispatch.unsubscribe(subscriber, filter)
    }

    fn unsubscribe_all(&mut self, subscriber: SubscriberId) -> usize {
        self.router.services_mut().dispatch.unsubscribe_all(subscriber)
    }

    fn would_deliver(&self, stream: StreamId) -> bool {
        self.router.services().dispatch.would_deliver(stream)
    }

    fn set_claimed(&mut self, stream: StreamId, claimed: bool) {
        self.router.services_mut().dispatch.streams.set_claimed(stream, claimed);
    }

    fn streams(&self) -> &ShardedStreamRegistry {
        &self.router.services().dispatch.streams
    }

    fn control(&self) -> &ControlGraph {
        &self.router.services().control
    }

    fn control_mut(&mut self) -> &mut ControlGraph {
        &mut self.router.services_mut().control
    }

    fn filter_stats(&self) -> FilterStats {
        self.router.services().ingest.stats()
    }

    fn dispatch_stats(&self) -> DispatchStats {
        let d = &self.router.services().dispatch;
        DispatchStats {
            dispatched: d.dispatched_count(),
            deliveries: d.delivery_count(),
            unclaimed: d.unclaimed_count(),
            fanout: d.fanout(),
            subscribers: d.subscriber_count(),
            match_cache: d.cache_stats(),
        }
    }

    fn overload_totals(&self) -> OverloadTotals {
        self.router.overload_totals()
    }

    fn peak_queue_depth(&self) -> u64 {
        self.router.peak_queue_depth()
    }

    fn queue_depth_p99(&self) -> u64 {
        self.router.depth_histogram().p99()
    }

    fn shard_restart_count(&self) -> u64 {
        self.router.services().ingest.supervised_restart_count()
    }

    fn edge_class_submits(&self) -> [u64; 3] {
        self.router.services().ingest.class_submits()
    }

    fn pipeline_spans(&self) -> &PipelineSpans {
        self.router.pipeline_spans()
    }

    fn queue_depth_gauges(&self) -> &QueueDepthGauges {
        self.router.queue_depth_gauges()
    }

    fn set_telemetry_recording(&mut self, enabled: bool) {
        self.router.set_telemetry_recording(enabled);
    }

    fn note_telemetry_quiescent(&mut self) {
        self.router.note_telemetry_quiescent();
    }

    fn take_shard_failures(&mut self) -> Vec<ShardFailure> {
        self.router.services_mut().ingest.take_failures()
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.router.next_deadline()
    }

    fn configure_trace(&mut self, config: TraceConfig) {
        self.router.configure_trace(config);
    }

    fn trace_snapshot(&self) -> TraceSnapshot {
        self.router.trace_snapshot()
    }

    fn trace_drain_to(&mut self, w: &mut dyn std::io::Write) -> std::io::Result<usize> {
        self.router.trace_drain_to(w)
    }

    fn shutdown(&mut self, now: SimTime) -> Vec<ServiceOutput> {
        // Drain whatever is still queued. Pooled ingest shards hold no
        // work between passes; their workers are joined when the
        // engine is dropped.
        let mut out = Vec::new();
        while let Some(outputs) = self.router.step(now) {
            out.extend(outputs);
        }
        out
    }
}
