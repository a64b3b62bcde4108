//! The event router: Figure 1's arrows as a FIFO of typed events.
//!
//! [`Router`] owns every sans-io service and moves
//! [`ServiceEvent`]s between them. One [`Router::step`] pops one event,
//! hands it to the owning service, re-enqueues any
//! [`ServiceOutput::Emit`] at the *back* of the queue, and returns the
//! remaining outputs (deliveries, plans, denials, expiries) for the
//! facade to apply. The queue is strictly FIFO, which makes the whole
//! middleware a deterministic event machine: the same enqueue sequence
//! always produces the same output sequence, regardless of how the
//! ingest stage is sharded.
//!
//! Both engines run this router. The ingest hot path (the Filtering
//! Service) is the only stage with per-message CPU cost worth
//! parallelising, so it alone can leave the caller's thread:
//! [`ShardedIngest`] partitions streams across N independent
//! [`FilteringService`]s by sensor id (every stream of a sensor lands on
//! one shard, so per-stream sequence state never crosses shards) and
//! merges results back into arrival order, and flushes into the
//! stream-id order a single service would have produced. The FIFO
//! engine runs the shards inline; the threaded engine
//! ([`crate::DriverKind::Threaded`]) hosts them on a supervised
//! [`garnet_net::ShardPool`], one worker per shard, and blocks on the
//! pool for each filtering pass — dispatch and the control graph stay
//! inline either way, so the two engines are bit-identical by
//! construction.
//!
//! The queue is unbounded. Admission control — shedding and coalescing
//! frames under overload — runs in front of the router, in the
//! facade's [`crate::qos::QosScheduler`], which hands the router only
//! the frames it admitted.

use std::collections::VecDeque;

use garnet_net::{EdgeClass, RestartEvent, ShardFailure, ShardPool, SupervisionConfig};
use garnet_radio::ReceiverId;
use garnet_simkit::trace::{
    TraceConfig, TraceEventKind, TraceOutcome, TraceRecord, TraceSnapshot, TraceStage, Tracer,
};
use garnet_simkit::{Histogram, SimTime};
use garnet_wire::{peek_stream, ActuationTarget, FrameBytes};

use crate::actuation::{ActuationConfig, ActuationService};
use crate::coordinator::{CoordinationMode, SuperCoordinator};
use crate::dispatching::{DispatchOutcome, DispatchingService};
use crate::driver::{DispatchStats, FilterStats};
use crate::filtering::{Delivery, FilterConfig, FilterResult, FilteringService, FrameArrival};
use crate::location::{LocationConfig, LocationService};
use crate::orphanage::{Orphanage, OrphanageConfig};
use crate::replicator::MessageReplicator;
use crate::resource::{MediationPolicy, ResourceManager};
use crate::service::{BatchedFrame, GarnetService, ServiceEvent, ServiceOutput};
use crate::stream::{shard_of_sensor, ShardedStreamRegistry};
use crate::telemetry::{PipelineSpans, QueueDepthGauges};
#[cfg(feature = "trace")]
use crate::trace::event_record;
use crate::trace::RootTag;

/// The ingest stage: N filtering shards partitioned by sensor id.
///
/// With `shards == 1` this is exactly one [`FilteringService`]. With
/// more, each sensor's streams are pinned to one shard; frame handling
/// is embarrassingly parallel across shards because the only shared
/// state — per-stream sequence windows — is partitioned with them.
/// Results come back in arrival order and reorder flushes are merged
/// into ascending stream-id order, which is the order a single
/// service's `BTreeMap` walk produces, so the event sequence leaving
/// this stage is bit-identical for any shard count — and for either
/// hosting ([`ShardedIngest::new`] inline, [`ShardedIngest::pooled`] on
/// worker threads).
#[derive(Debug)]
pub struct ShardedIngest {
    shards: Shards,
}

/// Where the filtering shards run.
#[derive(Debug)]
enum Shards {
    /// In the caller's thread.
    Inline(Vec<FilteringService>),
    /// One per worker of a supervised pool.
    Pooled(Box<PooledShards>),
}

/// The threaded engine's ingest: the shards live on pool workers, so
/// their counters and reorder deadlines ride back on every job.
#[derive(Debug)]
struct PooledShards {
    pool: ShardPool<ShardJob, ShardDone>,
    /// Each shard's counters and earliest reorder deadline as of its
    /// last completed job (exact between passes: every pass waits for
    /// all of its jobs).
    last: Vec<(FilterStats, Option<SimTime>)>,
}

/// One pooled filtering pass for one shard.
enum ShardJob {
    /// The shard's frames of one batch, in arrival order.
    Frames(Vec<FrameArrival>),
    /// Flush reorder buffers up to the given instant.
    Flush(SimTime),
}

/// What a shard worker hands back for one [`ShardJob`].
struct ShardDone {
    shard: usize,
    kind: ShardDoneKind,
    stats: FilterStats,
    next_deadline: Option<SimTime>,
}

enum ShardDoneKind {
    /// One result per frame of the job, in job order.
    Frames(Vec<FilterResult>),
    /// The shard's flush releases, in its own stream-id order.
    Flush(Vec<Delivery>),
}

impl ShardedIngest {
    /// Creates an ingest stage with `shards` filtering shards (0 is
    /// treated as 1), run inline in the caller's thread.
    pub fn new(config: FilterConfig, shards: usize) -> Self {
        let n = shards.max(1);
        ShardedIngest {
            shards: Shards::Inline((0..n).map(|_| FilteringService::new(config)).collect()),
        }
    }

    /// Creates an ingest stage whose `shards` filtering shards (0 is
    /// treated as 1) each run on a worker of a [`ShardPool`] under the
    /// default [`SupervisionConfig`]. Every filtering pass submits one
    /// job per shard it touches and blocks until all of them are back,
    /// so callers see exactly the inline stage's results. A worker that
    /// panics loses its job's frames (they produce no outputs; the loss
    /// surfaces via [`ShardedIngest::take_failures`]) and is rebuilt
    /// with fresh filter state once the supervision backoff elapses.
    pub fn pooled(config: FilterConfig, shards: usize) -> Self {
        let n = shards.max(1);
        // One job per shard is ever in flight, so a one-deep queue
        // never blocks a submission.
        let pool =
            ShardPool::with_supervision(n, 1, Some(SupervisionConfig::default()), move |shard| {
                let mut filter = FilteringService::new(config);
                Box::new(move |job: ShardJob| {
                    let kind = match job {
                        ShardJob::Frames(frames) => ShardDoneKind::Frames(filter.on_batch(&frames)),
                        ShardJob::Flush(now) => ShardDoneKind::Flush(filter.on_tick(now)),
                    };
                    ShardDone {
                        shard,
                        kind,
                        stats: FilterStats::of(&filter),
                        next_deadline: filter.next_deadline(),
                    }
                })
            });
        ShardedIngest {
            shards: Shards::Pooled(Box::new(PooledShards {
                pool,
                last: vec![(FilterStats::default(), None); n],
            })),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        match &self.shards {
            Shards::Inline(shards) => shards.len(),
            Shards::Pooled(p) => p.last.len(),
        }
    }

    /// The shard a frame belongs to. Undecodable-but-headed frames
    /// still shard deterministically via [`peek_stream`]; frames too
    /// short to carry a stream id land on shard 0 (they fail CRC
    /// wherever they land — the choice only has to be deterministic).
    pub fn shard_of(&self, frame: &[u8]) -> usize {
        match peek_stream(frame) {
            Some(stream) => shard_of_sensor(stream.sensor().as_u32(), self.shard_count()),
            None => 0,
        }
    }

    /// Feeds one frame to its shard, returning the raw filter result.
    pub fn on_frame(
        &mut self,
        receiver: ReceiverId,
        rssi_dbm: f64,
        frame: &FrameBytes,
        now: SimTime,
    ) -> FilterResult {
        let shard = self.shard_of(frame);
        if let Shards::Inline(shards) = &mut self.shards {
            return shards[shard].on_frame(receiver, rssi_dbm, frame, now);
        }
        let arrival = FrameArrival { receiver, rssi_dbm, frame: frame.clone(), at: now };
        self.on_batch(vec![arrival]).pop().expect("one result per frame")
    }

    /// Feeds a burst of frames, equivalent to [`ShardedIngest::on_frame`]
    /// per entry in order: results come back in arrival order, and since
    /// streams are pinned to shards, routing each shard its own
    /// arrival-ordered sub-batch observes exactly the per-frame state
    /// evolution. Each shard validates its sub-batch's headers in one
    /// prepass ([`FilteringService::on_batch`]).
    pub fn on_batch(&mut self, frames: Vec<FrameArrival>) -> Vec<FilterResult> {
        if let Shards::Inline(shards) = &mut self.shards {
            if shards.len() == 1 {
                return shards[0].on_batch(&frames);
            }
        }
        let n = self.shard_count();
        let mut slots: Vec<usize> = Vec::with_capacity(frames.len());
        let mut per_shard: Vec<Vec<FrameArrival>> = (0..n).map(|_| Vec::new()).collect();
        for f in frames {
            let shard = self.shard_of(&f.frame);
            slots.push(shard);
            per_shard[shard].push(f);
        }
        let mut results: Vec<std::vec::IntoIter<FilterResult>> = match &mut self.shards {
            Shards::Inline(shards) => {
                shards.iter_mut().zip(&per_shard).map(|(s, b)| s.on_batch(b).into_iter()).collect()
            }
            Shards::Pooled(p) => {
                let jobs: Vec<(usize, ShardJob)> = per_shard
                    .into_iter()
                    .enumerate()
                    .filter(|(_, b)| !b.is_empty())
                    .map(|(shard, b)| (shard, ShardJob::Frames(b)))
                    .collect();
                let results = p.run(jobs).into_iter().map(|done| match done {
                    Some(ShardDoneKind::Frames(results)) => results,
                    _ => Vec::new(),
                });
                results.map(Vec::into_iter).collect()
            }
        };
        // A shard whose job died with its worker returns no results:
        // its frames produce nothing.
        slots.into_iter().map(|shard| results[shard].next().unwrap_or_default()).collect()
    }

    /// Flushes expired reorder buffers on every shard and merges the
    /// releases into ascending stream-id order (identical to a single
    /// unsharded service: each shard flushes in stream-id order, and
    /// streams are partitioned, so a stable merge by stream id
    /// reproduces the global order).
    pub fn on_tick(&mut self, now: SimTime) -> Vec<Delivery> {
        let mut out: Vec<Delivery> = Vec::new();
        match &mut self.shards {
            Shards::Inline(shards) => {
                for shard in shards {
                    out.extend(shard.on_tick(now));
                }
            }
            Shards::Pooled(p) => {
                let jobs = (0..p.last.len()).map(|shard| (shard, ShardJob::Flush(now))).collect();
                for done in p.run(jobs).into_iter().flatten() {
                    if let ShardDoneKind::Flush(d) = done {
                        out.extend(d);
                    }
                }
            }
        }
        out.sort_by_key(|d| d.msg.stream().to_raw());
        out
    }

    /// The earliest reorder deadline across shards.
    pub fn next_deadline(&self) -> Option<SimTime> {
        match &self.shards {
            Shards::Inline(shards) => {
                shards.iter().filter_map(FilteringService::next_deadline).min()
            }
            Shards::Pooled(p) => p.last.iter().filter_map(|(_, deadline)| *deadline).min(),
        }
    }

    pub(crate) fn frame_outputs(result: FilterResult) -> Vec<ServiceOutput> {
        let mut out = Vec::new();
        if let Some(obs) = result.observation {
            out.push(ServiceOutput::Emit(ServiceEvent::Observed(obs)));
        }
        for d in &result.deliveries {
            if let Some(request_id) = d.msg.ack() {
                out.push(ServiceOutput::Emit(ServiceEvent::AckReceived {
                    request_id,
                    status: garnet_wire::AckStatus::Applied,
                }));
            }
        }
        out.extend(
            result
                .deliveries
                .into_iter()
                .map(|delivery| ServiceOutput::Emit(ServiceEvent::Filtered { delivery, depth: 0 })),
        );
        out
    }

    /// Counters summed across shards (streams are partitioned, so the
    /// sums are exact).
    pub fn stats(&self) -> FilterStats {
        match &self.shards {
            Shards::Inline(shards) => {
                shards.iter().fold(FilterStats::default(), |acc, s| acc.absorb(FilterStats::of(s)))
            }
            Shards::Pooled(p) => {
                p.last.iter().fold(FilterStats::default(), |acc, (s, _)| acc.absorb(*s))
            }
        }
    }

    /// Takes the worker failures recorded since the last call (always
    /// empty inline, where nothing runs on a worker).
    pub fn take_failures(&mut self) -> Vec<ShardFailure> {
        match &mut self.shards {
            Shards::Inline(_) => Vec::new(),
            Shards::Pooled(p) => p.pool.take_failures(),
        }
    }

    /// Shard restarts performed by the supervision policy.
    pub fn supervised_restart_count(&self) -> u64 {
        match &self.shards {
            Shards::Inline(_) => 0,
            Shards::Pooled(p) => p.pool.restart_count(),
        }
    }

    /// Takes the supervised restarts performed since the last call,
    /// each with the backoff delay it waited out.
    pub fn take_restart_events(&mut self) -> Vec<RestartEvent> {
        match &mut self.shards {
            Shards::Inline(_) => Vec::new(),
            Shards::Pooled(p) => p.pool.take_restart_events(),
        }
    }

    /// Jobs handed to the shard workers per [`EdgeClass`], indexed by
    /// [`EdgeClass::index`] (all zeros inline).
    pub fn class_submits(&self) -> [u64; 3] {
        match &self.shards {
            Shards::Inline(_) => [0; 3],
            Shards::Pooled(p) => p.pool.class_submits(),
        }
    }
}

impl PooledShards {
    /// Runs one pass — at most one job per shard — and blocks until
    /// every job is back or lost. Returns one slot per shard: `None`
    /// for a shard that had no job or lost it.
    fn run(&mut self, jobs: Vec<(usize, ShardJob)>) -> Vec<Option<ShardDoneKind>> {
        for (shard, job) in jobs {
            // Frames are data; a reorder flush is graph-keeping.
            let class = match job {
                ShardJob::Frames(_) => EdgeClass::Data,
                ShardJob::Flush(_) => EdgeClass::Control,
            };
            self.pool.submit_tagged(shard, job, class);
        }
        let mut by_shard: Vec<Option<ShardDoneKind>> = self.last.iter().map(|_| None).collect();
        for done in self.pool.wait() {
            self.last[done.shard] = (done.stats, done.next_deadline);
            by_shard[done.shard] = Some(done.kind);
        }
        by_shard
    }
}

impl GarnetService for ShardedIngest {
    fn handle(&mut self, ev: ServiceEvent, now: SimTime) -> Vec<ServiceOutput> {
        match ev {
            ServiceEvent::Frame { receiver, rssi_dbm, frame } => {
                let result = self.on_frame(receiver, rssi_dbm, &frame, now);
                Self::frame_outputs(result)
            }
            ServiceEvent::FrameBatch(frames) => {
                let arrivals: Vec<FrameArrival> = frames
                    .into_iter()
                    .map(|f| FrameArrival {
                        receiver: f.receiver,
                        rssi_dbm: f.rssi_dbm,
                        frame: f.frame,
                        at: now,
                    })
                    .collect();
                self.on_batch(arrivals).into_iter().flat_map(Self::frame_outputs).collect()
            }
            ServiceEvent::FlushReorder => self
                .on_tick(now)
                .into_iter()
                .map(|delivery| ServiceOutput::Emit(ServiceEvent::Filtered { delivery, depth: 0 }))
                .collect(),
            _ => Vec::new(),
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        ShardedIngest::next_deadline(self)
    }
}

/// The dispatch stage partitioned by sensor id — the same
/// [`shard_of_sensor`] hash as [`ShardedIngest`], so all of a sensor's
/// streams route on one dispatch shard and the per-shard
/// [`StreamRegistry`] partitions never overlap.
///
/// Subscription state is *partitioned* with the streams: a
/// `Stream`/`Sensor` filter lives only on the shard that owns every
/// stream it can match, so per-shard table size no longer scales as
/// `shards × subscribers`. Only [`garnet_net::TopicFilter::All`] — which
/// matches streams on every shard — is replicated, one copy per shard.
/// Message-path calls (`route`, registry updates) go to the owning
/// shard only; counters sum across shards and the catalogue merges in
/// ascending stream-id order — with the sim driver pumping events in
/// FIFO order, every observable is bit-identical for any shard count.
#[derive(Debug)]
pub struct ShardedDispatch {
    dispatchers: Vec<DispatchingService>,
    /// The stream catalogue, partitioned with the dispatchers.
    pub streams: ShardedStreamRegistry,
    next_subscriber: u32,
    /// Whether the most recent [`ShardedDispatch::route`] (re)built its
    /// match set — consumed by the tracer via
    /// [`ShardedDispatch::take_last_rebuild`].
    last_rebuilt: bool,
}

impl ShardedDispatch {
    /// Creates a dispatch stage with `shards` partitions (0 is treated
    /// as 1), under the default match-cache configuration.
    pub fn new(shards: usize) -> Self {
        Self::with_cache(shards, garnet_net::DispatchCacheConfig::default())
    }

    /// Creates a dispatch stage whose per-shard match caches run under
    /// an explicit configuration.
    pub fn with_cache(shards: usize, cache: garnet_net::DispatchCacheConfig) -> Self {
        let n = shards.max(1);
        ShardedDispatch {
            dispatchers: (0..n).map(|_| DispatchingService::with_cache(cache)).collect(),
            streams: ShardedStreamRegistry::new(n),
            next_subscriber: 0,
            last_rebuilt: false,
        }
    }

    /// Number of dispatch shards.
    pub fn shard_count(&self) -> usize {
        self.dispatchers.len()
    }

    fn shard_of(&self, stream: garnet_wire::StreamId) -> usize {
        shard_of_sensor(stream.sensor().as_u32(), self.dispatchers.len())
    }

    /// Allocates a fresh subscriber identity. Allocation is global —
    /// one counter across all shards — so ids never collide however the
    /// stage is sharded.
    pub fn register_subscriber(&mut self) -> garnet_net::SubscriberId {
        let id = garnet_net::SubscriberId::new(self.next_subscriber);
        self.next_subscriber += 1;
        id
    }

    /// The shard that owns every stream `filter` can match (`None` for
    /// [`garnet_net::TopicFilter::All`], which has no single owner).
    fn shard_of_filter(&self, filter: garnet_net::TopicFilter) -> Option<usize> {
        match filter {
            garnet_net::TopicFilter::Stream(stream) => Some(self.shard_of(stream)),
            garnet_net::TopicFilter::Sensor(sensor) => {
                Some(shard_of_sensor(sensor.as_u32(), self.dispatchers.len()))
            }
            garnet_net::TopicFilter::All => None,
        }
    }

    /// Adds a subscription on the shard that owns the filter's streams
    /// (`All` is replicated to every shard). Returns true if new.
    pub fn subscribe(
        &mut self,
        subscriber: garnet_net::SubscriberId,
        filter: garnet_net::TopicFilter,
    ) -> bool {
        match self.shard_of_filter(filter) {
            Some(shard) => self.dispatchers[shard].subscribe(subscriber, filter),
            None => self
                .dispatchers
                .iter_mut()
                .map(|d| d.subscribe(subscriber, filter))
                .fold(false, |a, b| a | b),
        }
    }

    /// Removes one subscription from its owning shard (every shard for
    /// `All`).
    pub fn unsubscribe(
        &mut self,
        subscriber: garnet_net::SubscriberId,
        filter: garnet_net::TopicFilter,
    ) -> bool {
        match self.shard_of_filter(filter) {
            Some(shard) => self.dispatchers[shard].unsubscribe(subscriber, filter),
            None => self
                .dispatchers
                .iter_mut()
                .map(|d| d.unsubscribe(subscriber, filter))
                .fold(false, |a, b| a | b),
        }
    }

    /// Removes every subscription of a departing consumer, on every
    /// shard. Returns the consumer's distinct filter count (an `All`
    /// filter counts once however many shards replicate it).
    pub fn unsubscribe_all(&mut self, subscriber: garnet_net::SubscriberId) -> usize {
        let distinct: std::collections::BTreeSet<garnet_net::TopicFilter> =
            self.dispatchers.iter().flat_map(|d| d.filters_of(subscriber)).collect();
        for d in &mut self.dispatchers {
            d.unsubscribe_all(subscriber);
        }
        distinct.len()
    }

    /// Routes one message on its owning shard.
    pub fn route(&mut self, stream: garnet_wire::StreamId) -> DispatchOutcome {
        let shard = self.shard_of(stream);
        let outcome = self.dispatchers[shard].route(stream);
        self.last_rebuilt = outcome.rebuilt;
        outcome
    }

    /// Whether the most recent route (re)built its match set, clearing
    /// the flag — the FIFO router reads this right after pumping a
    /// `Filtered` event to append the `CacheRebuild` trace record.
    pub fn take_last_rebuild(&mut self) -> bool {
        std::mem::take(&mut self.last_rebuilt)
    }

    /// Per-shard match-cache counters folded into one view.
    pub fn cache_stats(&self) -> garnet_net::MatchCacheStats {
        let mut stats = garnet_net::MatchCacheStats::default();
        for d in &self.dispatchers {
            stats.absorb(d.cache_stats());
        }
        stats
    }

    /// Peeks the match set without accounting (owning shard).
    pub fn would_deliver(&self, stream: garnet_wire::StreamId) -> bool {
        self.dispatchers[self.shard_of(stream)].would_deliver(stream)
    }

    /// Messages routed (all shards).
    pub fn dispatched_count(&self) -> u64 {
        self.dispatchers.iter().map(DispatchingService::dispatched_count).sum()
    }

    /// Total (message, subscriber) deliveries (all shards).
    pub fn delivery_count(&self) -> u64 {
        self.dispatchers.iter().map(DispatchingService::delivery_count).sum()
    }

    /// Messages that matched nobody (all shards).
    pub fn unclaimed_count(&self) -> u64 {
        self.dispatchers.iter().map(DispatchingService::unclaimed_count).sum()
    }

    /// Distribution of per-message fan-out, merged across shards.
    pub fn fanout(&self) -> Histogram {
        let mut h = Histogram::new();
        for d in &self.dispatchers {
            h.merge(d.fanout());
        }
        h
    }

    /// Distinct subscribers with live subscriptions across all shards.
    pub fn subscriber_count(&self) -> usize {
        let ids: std::collections::BTreeSet<garnet_net::SubscriberId> =
            self.dispatchers.iter().flat_map(|d| d.subscriber_ids()).collect();
        ids.len()
    }

    /// Per-shard subscription-table sizes — the partitioning regression
    /// metric: `Stream`/`Sensor` filters live on exactly one shard, so
    /// (absent `All` filters) the sum equals an unsharded table holding
    /// the same subscriptions.
    pub fn shard_subscription_counts(&self) -> Vec<usize> {
        self.dispatchers.iter().map(DispatchingService::subscription_count).collect()
    }
}

impl GarnetService for ShardedDispatch {
    fn handle(&mut self, ev: ServiceEvent, _now: SimTime) -> Vec<ServiceOutput> {
        let ServiceEvent::Filtered { delivery, depth } = ev else {
            return Vec::new();
        };
        self.streams.note_message(
            delivery.msg.stream(),
            delivery.msg.payload().len(),
            delivery.delivered_at,
            depth > 0,
        );
        let outcome = self.route(delivery.msg.stream());
        self.streams.set_claimed(delivery.msg.stream(), !outcome.unclaimed);
        if outcome.unclaimed {
            return vec![ServiceOutput::Emit(ServiceEvent::Orphaned(delivery))];
        }
        outcome
            .recipients
            .iter()
            .map(|&recipient| ServiceOutput::Deliver {
                recipient,
                delivery: delivery.clone(),
                depth,
            })
            .collect()
    }
}

/// The control-plane services downstream of dispatch, owned together
/// with their routing: the orphanage, location, resource, actuation,
/// replicator and coordinator boxes of Figure 1. They form a *closed*
/// cascade — no control service ever emits a `Frame` or `Filtered`
/// event back into the data plane.
#[derive(Debug)]
pub struct ControlGraph {
    /// Unclaimed-message retention.
    pub orphanage: Orphanage,
    /// Sensor location inference.
    pub location: LocationService,
    /// Actuation conflict mediation.
    pub resource: ResourceManager,
    /// Stream-update tracking and retry.
    pub actuation: ActuationService,
    /// Area-targeted downlink planning.
    pub replicator: MessageReplicator,
    /// State-triggered policy actions.
    pub coordinator: SuperCoordinator,
}

impl Default for ControlGraph {
    /// A control graph with every service at its default configuration
    /// and no receiver/transmitter arrays — the shape tests and benches
    /// want when the run exercises the data path rather than radio
    /// geometry.
    fn default() -> Self {
        ControlGraph {
            orphanage: Orphanage::new(OrphanageConfig::default()),
            location: LocationService::new(LocationConfig::default(), &[]),
            resource: ResourceManager::new(MediationPolicy::MergeMax),
            actuation: ActuationService::new(ActuationConfig::default()),
            replicator: MessageReplicator::new(Vec::new()),
            coordinator: SuperCoordinator::new(CoordinationMode::Predictive {
                min_confidence: 0.6,
            }),
        }
    }
}

impl ControlGraph {
    fn route(&mut self, ev: ServiceEvent, now: SimTime) -> Vec<ServiceOutput> {
        use ServiceEvent::*;
        match ev {
            Orphaned(_) => self.orphanage.handle(ev, now),
            Observed(_) | Hint { .. } => self.location.handle(ev, now),
            ActuationRequested { .. } => self.resource.handle(ev, now),
            Submit { .. } | AckReceived { .. } | ActuationTick => self.actuation.handle(ev, now),
            Replicate { origin, requester, request, estimate } => {
                // The replicator's read-dependency on the Location
                // Service is resolved here, at routing time, so the
                // replicator itself stays free of service references.
                let estimate = estimate.or_else(|| match request.target {
                    ActuationTarget::Sensor(s) => self.location.estimate(s, now),
                    ActuationTarget::Stream(st) => self.location.estimate(st.sensor(), now),
                    ActuationTarget::Area(_) => None,
                });
                self.replicator.handle(Replicate { origin, requester, request, estimate }, now)
            }
            StateReported { .. } => self.coordinator.handle(ev, now),
            // Data-plane events are not ours; ignoring them keeps the
            // contract total.
            Frame { .. } | FrameBatch(_) | FlushReorder | Filtered { .. } => Vec::new(),
        }
    }
}

impl GarnetService for ControlGraph {
    fn handle(&mut self, ev: ServiceEvent, now: SimTime) -> Vec<ServiceOutput> {
        self.route(ev, now)
    }

    fn next_deadline(&self) -> Option<SimTime> {
        GarnetService::next_deadline(&self.actuation)
    }
}

/// Every routed service, owned together so the router can borrow them
/// independently — grouped by stage: the sharded data plane (ingest,
/// dispatch) and the control plane behind it. Fields are public: the
/// facade reaches in for direct reads (statistics) and the rare
/// synchronous call (subscription changes, orphanage claims) that is
/// request/response rather than dataflow.
#[derive(Debug)]
pub struct Services {
    /// Sharded filtering (the ingest hot path).
    pub ingest: ShardedIngest,
    /// Sharded subscription routing + stream catalogue.
    pub dispatch: ShardedDispatch,
    /// Everything downstream of dispatch.
    pub control: ControlGraph,
}

/// How the QoS scheduler's bounded Data tier responds when it is at
/// capacity (see [`crate::qos::QosScheduler`]). Only Data-class frames
/// are ever governed — control events (acks, actuations, flushes) are
/// never dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Drop the oldest staged frame to admit the newest — the arrivals
    /// most likely to still matter survive.
    Shed,
    /// Replace a staged frame of the arriving frame's stream with
    /// whichever carries the newer sequence number (per-stream
    /// freshness, as a GSN-style drop policy); falls back to shedding
    /// the oldest staged frame when the stream has nothing staged.
    CoalesceFrames,
    /// Admit nothing over capacity: the facade releases the staged
    /// tier, pumps the engine dry to make room and re-offers, pushing
    /// backpressure to the caller instead of losing frames.
    Block,
}

/// Bounded admission control for the facade's frame intake: the QoS
/// scheduler's Data-tier capacity and policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Maximum number of frames staged at once (0 is treated as 1).
    pub capacity: usize,
    /// What to do with a frame arriving at capacity.
    pub policy: OverloadPolicy,
}

/// Monotonic frame-admission totals, for metrics deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverloadTotals {
    /// Frames accepted into admission (everything except blocked
    /// attempts, which retry and count once on success).
    pub offered: u64,
    /// Frames dropped by the overload policy before filtering.
    pub shed: u64,
    /// The subset of `shed` dropped in favour of a newer same-stream
    /// sequence.
    pub coalesced: u64,
    /// Frames routed on towards filtering.
    pub delivered: u64,
}

/// The FIFO event router over [`Services`].
#[derive(Debug)]
pub struct Router {
    services: Services,
    /// Each queued event carries the root-sequence tag of the boundary
    /// event it descends from (a zero-sized unit unless the `trace`
    /// feature is on).
    queue: VecDeque<(RootTag, ServiceEvent)>,
    /// `Frame` events currently in `queue` (control events excluded).
    queued_frames: usize,
    /// Frames admitted through [`Router::admit_frame`].
    offered: u64,
    /// Frames popped off the queue and routed into filtering.
    delivered: u64,
    peak_queued: u64,
    /// The flight recorder (a zero-sized no-op unless the `trace`
    /// feature is on).
    tracer: Tracer,
    /// Always-on latency spans, recorded once per dispatched delivery.
    spans: PipelineSpans,
    /// Per-ingest-shard admission-depth gauges.
    depths: QueueDepthGauges,
    /// Next root sequence number for a boundary enqueue.
    #[cfg(feature = "trace")]
    next_root: u64,
}

impl Router {
    /// Creates a router over the given services with an empty,
    /// unbounded queue.
    pub fn new(services: Services) -> Self {
        let depths = QueueDepthGauges::new(services.ingest.shard_count());
        Router {
            services,
            queue: VecDeque::new(),
            queued_frames: 0,
            offered: 0,
            delivered: 0,
            peak_queued: 0,
            tracer: Tracer::new(TraceConfig::default()),
            spans: PipelineSpans::new(),
            depths,
            #[cfg(feature = "trace")]
            next_root: 0,
        }
    }

    /// Replaces the flight recorder with one of the given capacity
    /// (any records already buffered are discarded). A no-op without
    /// the `trace` feature.
    pub fn configure_trace(&mut self, config: TraceConfig) {
        self.tracer = Tracer::new(config);
    }

    /// The flight recorder's current contents (chronological) plus
    /// per-stage statistics. Empty without the `trace` feature.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.tracer.snapshot()
    }

    /// Streams the flight recorder's window to `w` as JSONL and clears
    /// it (see [`Tracer::drain_to`]).
    pub fn trace_drain_to(&mut self, mut w: &mut dyn std::io::Write) -> std::io::Result<usize> {
        self.tracer.drain_to(&mut w)
    }

    /// Shared view of the services.
    pub fn services(&self) -> &Services {
        &self.services
    }

    /// Mutable view of the services (for synchronous facade calls).
    pub fn services_mut(&mut self) -> &mut Services {
        &mut self.services
    }

    /// Enqueues an event at the back of the queue — the control path
    /// for acks, actuations, flushes and every other non-radio event.
    /// Frames entering here still count towards the queue depth.
    #[cfg_attr(not(feature = "trace"), allow(clippy::let_unit_value))]
    pub fn enqueue(&mut self, ev: ServiceEvent) {
        let tag = self.alloc_root();
        self.enqueue_tagged(tag, ev);
    }

    /// Allocates a fresh root-sequence tag for a boundary enqueue.
    #[cfg(feature = "trace")]
    fn alloc_root(&mut self) -> RootTag {
        let root = self.next_root;
        self.next_root += 1;
        root
    }

    #[cfg(not(feature = "trace"))]
    #[inline(always)]
    fn alloc_root(&mut self) -> RootTag {}

    /// Enqueues under an existing root tag — the cascade path: events a
    /// service emitted while handling `tag`'s work stay attributed to
    /// that boundary event.
    fn enqueue_tagged(&mut self, tag: RootTag, ev: ServiceEvent) {
        if matches!(ev, ServiceEvent::Frame { .. }) {
            self.queued_frames += 1;
            self.peak_queued = self.peak_queued.max(self.queued_frames as u64);
        }
        self.queue.push_back((tag, ev));
    }

    /// Queues a radio frame, counting it as offered and sampling the
    /// telemetry depth gauges. The queue is unbounded: admission
    /// control runs in front of the router, in the facade's
    /// [`crate::qos::QosScheduler`].
    pub fn admit_frame(&mut self, receiver: ReceiverId, rssi_dbm: f64, frame: FrameBytes) {
        self.offered += 1;
        if self.depths.enabled() {
            // A single-shard deployment (the default) needs no header
            // peek — every frame lands on shard 0.
            let shard = if self.services.ingest.shard_count() == 1 {
                0
            } else {
                self.services.ingest.shard_of(&frame)
            };
            self.depths.note_admitted(shard);
        }
        self.enqueue(ServiceEvent::Frame { receiver, rssi_dbm, frame });
    }

    /// Queues a burst of frames, one [`Router::admit_frame`] per frame
    /// in order — the pump, not admission, amortises the burst.
    pub fn admit_frames(&mut self, frames: Vec<BatchedFrame>) {
        for f in frames {
            self.admit_frame(f.receiver, f.rssi_dbm, f.frame);
        }
    }

    /// Pops and routes one event. `Emit` outputs go to the back of the
    /// queue; everything else is returned for the driver to apply.
    /// Returns `None` when the queue is empty (quiescence).
    pub fn step(&mut self, now: SimTime) -> Option<Vec<ServiceOutput>> {
        let (tag, ev) = self.queue.pop_front()?;
        if matches!(ev, ServiceEvent::Frame { .. }) {
            self.queued_frames -= 1;
            self.delivered += 1;
        }
        // Every delivery passes through here exactly once (batch-mode
        // cascades re-enter the queue), so this is the span point.
        if let ServiceEvent::Filtered { delivery, .. } = &ev {
            self.spans.record(delivery.first_received_at, delivery.delivered_at, now);
        }
        #[cfg(feature = "trace")]
        let rec = {
            let rec = event_record(&ev, now, Some(tag));
            self.tracer.note_occupancy(rec.stage, self.queue.len() as u64);
            self.tracer.record(|| rec);
            rec
        };
        let outputs = self.route(ev, now);
        // A dispatch hop that had to (re)build its match set appends a
        // CacheRebuild record right behind its Filtered one.
        #[cfg(feature = "trace")]
        if rec.kind == TraceEventKind::Filtered && self.services.dispatch.take_last_rebuild() {
            self.tracer.record(|| TraceRecord { kind: TraceEventKind::CacheRebuild, ..rec });
        }
        let mut external = Vec::new();
        for o in outputs {
            match o {
                ServiceOutput::Emit(ev) => self.enqueue_tagged(tag, ev),
                other => external.push(other),
            }
        }
        Some(external)
    }

    /// Pops and routes a maximal run of consecutive `Frame` events as
    /// one filtering batch (falling back to [`Router::step`] when the
    /// queue head is anything else). Bit-identical to stepping the same
    /// events one at a time: frames were adjacent in the queue, so their
    /// cascades would have been enqueued back-to-back in this exact
    /// order anyway, and each frame keeps its own root tag, trace record
    /// and ledger entry — only the per-event dispatch and header
    /// re-validation are amortised.
    pub fn step_batch(&mut self, now: SimTime) -> Option<Vec<ServiceOutput>> {
        if !matches!(self.queue.front(), Some((_, ServiceEvent::Frame { .. }))) {
            return self.step(now);
        }
        let mut tags: Vec<RootTag> = Vec::new();
        let mut arrivals: Vec<FrameArrival> = Vec::new();
        while matches!(self.queue.front(), Some((_, ServiceEvent::Frame { .. }))) {
            let (tag, ev) = self.queue.pop_front().expect("front was just matched");
            self.queued_frames -= 1;
            self.delivered += 1;
            #[cfg(feature = "trace")]
            {
                let rec = event_record(&ev, now, Some(tag));
                self.tracer.note_occupancy(rec.stage, self.queue.len() as u64);
                self.tracer.record(|| rec);
            }
            let ServiceEvent::Frame { receiver, rssi_dbm, frame } = ev else {
                unreachable!("front was matched as a Frame");
            };
            tags.push(tag);
            arrivals.push(FrameArrival { receiver, rssi_dbm, frame, at: now });
        }
        let results = self.services.ingest.on_batch(arrivals);
        self.trace_restarts();
        let mut external = Vec::new();
        for (tag, result) in tags.into_iter().zip(results) {
            for o in ShardedIngest::frame_outputs(result) {
                match o {
                    ServiceOutput::Emit(ev) => self.enqueue_tagged(tag, ev),
                    other => external.push(other),
                }
            }
        }
        Some(external)
    }

    fn route(&mut self, ev: ServiceEvent, now: SimTime) -> Vec<ServiceOutput> {
        use ServiceEvent::*;
        match ev {
            Frame { .. } | FrameBatch(_) | FlushReorder => {
                let outputs = self.services.ingest.handle(ev, now);
                self.trace_restarts();
                outputs
            }
            Filtered { .. } => self.services.dispatch.handle(ev, now),
            other => self.services.control.handle(other, now),
        }
    }

    /// Records the ingest pool's supervised shard restarts, each with
    /// the backoff delay it waited out. Restarts happen on the wall
    /// clock, not the simulated one, so the records carry `at_us: 0`.
    fn trace_restarts(&mut self) {
        for e in self.services.ingest.take_restart_events() {
            self.tracer.record(|| TraceRecord {
                shard: Some(e.shard as u32),
                backoff_us: Some(e.delay.as_micros() as u64),
                ..TraceRecord::new(
                    0,
                    TraceStage::Filtering,
                    TraceEventKind::ShardRestart,
                    TraceOutcome::Delivered,
                )
            });
        }
    }

    /// Steps until the first non-empty output batch, returning it; an
    /// empty batch means quiescence. The facade applies each batch
    /// (possibly enqueueing new events) and calls again, so outputs
    /// are applied at the same cadence as stepping the router by hand.
    /// With `batch`, [`Router::step_batch`] consumes runs of
    /// consecutive Frame events in one filtering pass; frame steps emit
    /// no external outputs, so the batch is observably identical to
    /// stepping the run one frame at a time.
    pub fn pump(&mut self, now: SimTime, batch: bool) -> Vec<ServiceOutput> {
        loop {
            let step = if batch { self.step_batch(now) } else { self.step(now) };
            match step {
                Some(outputs) if outputs.is_empty() => continue,
                Some(outputs) => return outputs,
                None => return Vec::new(),
            }
        }
    }

    /// Drains whatever is still queued, returning every output released
    /// on the way out. Pooled ingest shards hold no work between
    /// passes; their workers are joined when the router is dropped.
    pub fn shutdown(&mut self, now: SimTime) -> Vec<ServiceOutput> {
        let mut out = Vec::new();
        while let Some(outputs) = self.step(now) {
            out.extend(outputs);
        }
        out
    }

    /// Dispatch-stage counters, aggregated across shards.
    pub fn dispatch_stats(&self) -> DispatchStats {
        let d = &self.services.dispatch;
        DispatchStats {
            dispatched: d.dispatched_count(),
            deliveries: d.delivery_count(),
            unclaimed: d.unclaimed_count(),
            fanout: d.fanout(),
            subscribers: d.subscriber_count(),
            match_cache: d.cache_stats(),
        }
    }

    /// Monotonic admission totals: frames offered and frames delivered
    /// into filtering. The unbounded queue never sheds, so at
    /// quiescence `offered == delivered`.
    pub fn overload_totals(&self) -> OverloadTotals {
        OverloadTotals { offered: self.offered, delivered: self.delivered, ..Default::default() }
    }

    /// High-water mark of the frame queue.
    pub fn peak_queue_depth(&self) -> u64 {
        self.peak_queued
    }

    /// The pipeline latency spans recorded so far.
    pub fn pipeline_spans(&self) -> &PipelineSpans {
        &self.spans
    }

    /// The per-ingest-shard admission-depth gauges.
    pub fn queue_depth_gauges(&self) -> &QueueDepthGauges {
        &self.depths
    }

    /// Turns latency-span and depth-gauge recording on or off (on by
    /// default; `GarnetConfig.telemetry.spans` drives this).
    pub fn set_telemetry_recording(&mut self, enabled: bool) {
        self.spans.set_enabled(enabled);
        self.depths.set_enabled(enabled);
    }

    /// Resets the telemetry depth counts (the watermarks survive).
    /// Called by the facade after it pumps the engine dry.
    pub fn note_telemetry_quiescent(&mut self) {
        self.depths.note_quiescent();
    }

    /// The earliest time-driven deadline across routed services.
    pub fn next_deadline(&self) -> Option<SimTime> {
        [
            GarnetService::next_deadline(&self.services.ingest),
            GarnetService::next_deadline(&self.services.control),
        ]
        .into_iter()
        .flatten()
        .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garnet_wire::{DataMessage, SensorId, SequenceNumber, StreamId, StreamIndex};

    fn frame(sensor: u32, seq: u16) -> garnet_wire::FrameBytes {
        let stream = StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0));
        DataMessage::builder(stream)
            .seq(SequenceNumber::new(seq))
            .payload(vec![seq as u8])
            .build()
            .unwrap()
            .encode_to_vec()
            .into()
    }

    #[test]
    fn subscription_entries_partition_across_dispatch_shards() {
        use garnet_net::TopicFilter;
        // Stream/Sensor filters must live on exactly one shard each, so
        // the per-shard entry counts sum to what an unsharded table
        // would hold — subscription memory must not scale with the
        // shard count.
        let stream =
            |sensor: u32| StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0));
        let filters: Vec<TopicFilter> = (1..=40u32)
            .map(|s| {
                if s % 2 == 0 {
                    TopicFilter::Sensor(SensorId::new(s).unwrap())
                } else {
                    TopicFilter::Stream(stream(s))
                }
            })
            .collect();
        let mut unsharded = ShardedDispatch::new(1);
        let sub = unsharded.register_subscriber();
        for f in &filters {
            assert!(unsharded.subscribe(sub, *f));
        }
        let total: usize = unsharded.shard_subscription_counts().iter().sum();
        assert_eq!(total, filters.len());
        for shards in [2usize, 4, 7] {
            let mut sharded = ShardedDispatch::new(shards);
            let sub = sharded.register_subscriber();
            for f in &filters {
                assert!(sharded.subscribe(sub, *f));
            }
            let counts = sharded.shard_subscription_counts();
            assert_eq!(counts.len(), shards);
            assert_eq!(
                counts.iter().sum::<usize>(),
                total,
                "shards={shards}: entries duplicated across shards: {counts:?}"
            );
            assert!(
                counts.iter().filter(|c| **c > 0).count() > 1,
                "shards={shards}: everything landed on one shard: {counts:?}"
            );
            // An `All` wiretap is the one filter that must replicate.
            sharded.subscribe(sub, TopicFilter::All);
            let with_all = sharded.shard_subscription_counts();
            assert_eq!(with_all.iter().sum::<usize>(), total + shards);
            // Departure reports distinct filters, not per-shard copies.
            assert_eq!(sharded.unsubscribe_all(sub), filters.len() + 1);
            assert_eq!(sharded.shard_subscription_counts().iter().sum::<usize>(), 0);
        }
    }

    #[test]
    fn sensors_pin_to_one_shard() {
        let ingest = ShardedIngest::new(FilterConfig::default(), 4);
        for sensor in 1..200u32 {
            let a = ingest.shard_of(&frame(sensor, 0));
            let b = ingest.shard_of(&frame(sensor, 9));
            assert_eq!(a, b, "sensor {sensor} moved shards");
        }
    }

    #[test]
    fn sharded_flush_is_stream_id_ordered() {
        // Leave a reorder gap on several sensors spread across shards,
        // then flush: releases must come back in ascending stream id.
        for shards in [1usize, 2, 4, 8] {
            let mut ingest = ShardedIngest::new(FilterConfig::default(), shards);
            for sensor in [9u32, 3, 14, 7, 11] {
                ingest.on_frame(ReceiverId::new(0), -40.0, &frame(sensor, 0), SimTime::ZERO);
                ingest.on_frame(
                    ReceiverId::new(0),
                    -40.0,
                    &frame(sensor, 2), // gap at 1
                    SimTime::from_millis(1),
                );
            }
            let out = ingest.on_tick(SimTime::from_secs(10));
            let ids: Vec<u32> = out.iter().map(|d| d.msg.stream().to_raw()).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "shards={shards}");
            assert_eq!(out.len(), 5, "shards={shards}");
        }
    }

    #[test]
    fn sharded_counters_aggregate() {
        let mut ingest = ShardedIngest::new(FilterConfig::default(), 4);
        for sensor in 1..=8u32 {
            let fr = frame(sensor, 0);
            ingest.on_frame(ReceiverId::new(0), -40.0, &fr, SimTime::ZERO);
            ingest.on_frame(ReceiverId::new(1), -50.0, &fr, SimTime::ZERO); // dup
        }
        let stats = ingest.stats();
        assert_eq!(stats.delivered_count(), 8);
        assert_eq!(stats.duplicate_count(), 8);
        assert_eq!(stats.stream_count(), 8);
    }

    #[test]
    fn pooled_ingest_matches_inline_ingest() {
        // Same frames, same flushes: the pooled stage must return the
        // inline stage's results, releases, counters and deadlines.
        for shards in [1usize, 3] {
            let mut inline = ShardedIngest::new(FilterConfig::default(), shards);
            let mut pooled = ShardedIngest::pooled(FilterConfig::default(), shards);
            let render = |results: Vec<FilterResult>| -> Vec<String> {
                results.iter().map(|r| format!("{:?}", r.deliveries)).collect()
            };
            for round in 0..6u16 {
                let at = SimTime::from_millis(u64::from(round));
                let frames: Vec<FrameArrival> = (1..=7u32)
                    .filter(|sensor| (u32::from(round) + sensor) % 4 != 0) // reorder gaps
                    .flat_map(|sensor| [frame(sensor, round), frame(sensor, round)]) // dups
                    .map(|frame| FrameArrival {
                        receiver: ReceiverId::new(0),
                        rssi_dbm: -40.0,
                        frame,
                        at,
                    })
                    .collect();
                assert_eq!(
                    render(pooled.on_batch(frames.clone())),
                    render(inline.on_batch(frames)),
                    "shards={shards} round={round}"
                );
                assert_eq!(pooled.next_deadline(), inline.next_deadline());
            }
            let one = frame(2, 9);
            assert_eq!(
                format!(
                    "{:?}",
                    pooled
                        .on_frame(ReceiverId::new(1), -50.0, &one, SimTime::from_millis(7))
                        .deliveries
                ),
                format!(
                    "{:?}",
                    inline
                        .on_frame(ReceiverId::new(1), -50.0, &one, SimTime::from_millis(7))
                        .deliveries
                ),
            );
            let flush = SimTime::from_secs(10);
            assert_eq!(
                format!("{:?}", pooled.on_tick(flush)),
                format!("{:?}", inline.on_tick(flush))
            );
            assert_eq!(format!("{:?}", pooled.stats()), format!("{:?}", inline.stats()));
            assert!(pooled.take_failures().is_empty());
            // One frames job per shard per pass, one flush job per shard.
            assert_eq!(pooled.class_submits()[EdgeClass::Control.index()], shards as u64);
        }
    }
}
