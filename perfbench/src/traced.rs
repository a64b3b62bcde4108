//! The traced pass. Beside the facade, replica instances of each layer
//! — built from the same configuration values and fed the same inputs —
//! are called through their public functions, and every call is timed
//! from here. Spans are kept in memory and written out when the pass
//! ends; the per-layer metrics are computed from them.
//!
//! One span covers one layer's calls for one burst (e.g. the 64 decodes
//! of a burst), so the clock is read twice per layer per burst rather
//! than twice per call.

use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use garnet_core::actuation::ActuationService;
use garnet_core::dispatching::DispatchingService;
use garnet_core::filtering::{Delivery, FilteringService, FrameArrival};
use garnet_core::location::LocationService;
use garnet_core::middleware::GarnetConfig;
use garnet_core::orphanage::Orphanage;
use garnet_core::qos::{DeliverySchedule, QosScheduler};
use garnet_core::replicator::MessageReplicator;
use garnet_core::resource::{Decision, ResourceManager};
use garnet_core::service::BatchedFrame;
use garnet_net::{SubscriberId, TopicFilter};
use garnet_simkit::SimTime;
use garnet_store::{ArchiveRecord, FileStore, FrameArchive};
use garnet_wire::{AckStatus, ActuationTarget, DataMessage, SensorCommand, StreamId};

use crate::gen::{stream_of, Reception};
use crate::node::{filters, slow_index, WorkDir};
use crate::spec::{ConsumerPlan, Spec};

/// What a span measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One burst and the calls after it.
    Root,
    /// `Garnet::on_frames`.
    Facade,
    /// The facade calls a gateway makes between bursts (churn,
    /// actuation with its ack, `on_tick`).
    FacadeOps,
    /// `DataMessage::decode_frame`.
    Wire,
    /// `FilteringService::on_batch`.
    Filtering,
    /// `LocationService::observe`.
    Location,
    /// `DispatchingService::route`.
    Dispatch,
    /// `Orphanage::take_in`.
    Orphanage,
    /// `QosScheduler::offer_frame`.
    QosOffer,
    /// `QosScheduler::release`, `DeliverySchedule::offer`/`drain`.
    QosRelease,
    /// `FrameArchive::append`.
    Store,
    /// `DispatchingService::unsubscribe` + `subscribe`.
    Churn,
    /// `ResourceManager::request`.
    Resource,
    /// `ActuationService::submit`.
    Actuation,
    /// `MessageReplicator::plan`.
    Replicator,
    /// `Garnet::telemetry`.
    Telemetry,
}

const LAYERS: usize = 16;

/// Spans kept for the trace file (the first ones of the measured
/// windows); the per-layer sums cover every span.
const SPANS_KEPT: usize = 200_000;

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Root => "root",
            Layer::Facade => "facade",
            Layer::FacadeOps => "facade.ops",
            Layer::Wire => "wire",
            Layer::Filtering => "filtering",
            Layer::Location => "location",
            Layer::Dispatch => "dispatching",
            Layer::Orphanage => "orphanage",
            Layer::QosOffer => "qos.offer",
            Layer::QosRelease => "qos.release",
            Layer::Store => "store",
            Layer::Churn => "dispatching.churn",
            Layer::Resource => "resource",
            Layer::Actuation => "actuation",
            Layer::Replicator => "replicator",
            Layer::Telemetry => "telemetry",
        }
    }
}

/// One timed interval; every span but the root has the burst's root as
/// its parent.
#[derive(Clone, Copy, Debug)]
struct Span {
    burst: u32,
    layer: Layer,
    start_ns: u64,
    dur_ns: u64,
}

/// Dispatch routes split by whether the match cache rebuilt.
#[derive(Clone, Copy, Debug, Default)]
struct Routes {
    /// Time and count of routes in spans without a rebuild.
    hit_ns: u64,
    hits: u64,
    /// Time, cache hits and rebuilds of spans with a rebuild.
    mixed_ns: u64,
    mixed_hits: u64,
    rebuilds: u64,
}

/// The replica layers and the spans recorded around them.
pub struct Replicas {
    filter: FilteringService,
    location: LocationService,
    orphanage: Orphanage,
    dispatch: DispatchingService,
    qos: Option<QosScheduler>,
    delivery: Option<DeliverySchedule>,
    slow: Option<SubscriberId>,
    store: Option<FrameArchive>,
    resource: ResourceManager,
    actuation: ActuationService,
    replicator: MessageReplicator,
    ids: Vec<SubscriberId>,
    publisher: Option<(SubscriberId, u64, StreamId)>,
    publisher_deliveries: u64,
    /// Whether spans are being kept (the measured windows).
    pub measuring: bool,
    origin: Instant,
    burst: u32,
    spans: Vec<Span>,
    ns: [u64; LAYERS],
    calls: [u64; LAYERS],
    routes: Routes,
    /// Receptions offered in measured windows.
    pub frames: u64,
    frame_bytes: u64,
    store_bytes: u64,
    store_errors: u64,
    filtered: u64,
}

impl Replicas {
    /// Replicas of `config`'s layers with `spec`'s subscriptions
    /// (`subs` the fan-out plan, `derived` the node's derived stream).
    ///
    /// # Errors
    ///
    /// The replica archive directory cannot be created or opened.
    pub fn new(
        spec: &Spec,
        config: &GarnetConfig,
        subs: &[Vec<u32>],
        derived: Option<StreamId>,
        work: &WorkDir,
    ) -> Result<Replicas, String> {
        let mut dispatch = DispatchingService::with_cache(config.dispatch_cache);
        let mut ids = Vec::new();
        for index in 0..crate::node::consumer_count(spec) {
            let id = dispatch.register_subscriber();
            for filter in filters(spec, subs, derived, index) {
                dispatch.subscribe(id, filter);
            }
            ids.push(id);
        }
        let publisher = match (spec.consumers, derived) {
            (ConsumerPlan::FanOut { publish_every, .. }, Some(d)) => {
                Some((ids[0], publish_every, d))
            }
            _ => None,
        };
        let slow = slow_index(spec).map(|i| ids[i]);
        let delivery = slow.map(|id| {
            let mut ds = DeliverySchedule::new(config.qos.consumer_queue_capacity);
            if let ConsumerPlan::FastAndSlow { drain_limit } = spec.consumers {
                ds.set_limit(id, Some(drain_limit));
            }
            ds
        });
        let store = match &config.archive {
            Some(a) => {
                let dir = work.replica();
                let _ = std::fs::remove_dir_all(&dir);
                let fs = FileStore::open(&dir).map_err(|e| format!("replica archive: {e}"))?;
                let (archive, _) = FrameArchive::open(Box::new(fs), a.segment_max_bytes)
                    .map_err(|e| format!("replica archive: {e}"))?;
                Some(archive)
            }
            None => None,
        };
        Ok(Replicas {
            filter: FilteringService::new(config.filter),
            location: LocationService::new(config.location.clone(), &config.receivers),
            orphanage: Orphanage::new(config.orphanage),
            dispatch,
            qos: config.overload.map(|o| QosScheduler::new(o, &config.qos)),
            delivery,
            slow,
            store,
            resource: ResourceManager::new(config.mediation),
            actuation: ActuationService::new(config.actuation),
            replicator: MessageReplicator::new(config.transmitters.clone()),
            ids,
            publisher,
            publisher_deliveries: 0,
            measuring: false,
            origin: Instant::now(),
            burst: 0,
            spans: Vec::new(),
            ns: [0; LAYERS],
            calls: [0; LAYERS],
            routes: Routes::default(),
            frames: 0,
            frame_bytes: 0,
            store_bytes: 0,
            store_errors: 0,
            filtered: 0,
        })
    }

    /// Closes a span of `layer` that began at `start` and covered
    /// `calls` calls; returns its length in ns.
    pub fn record(&mut self, layer: Layer, start: Instant, calls: u64) -> u64 {
        let end = Instant::now();
        let dur_ns = (end - start).as_nanos() as u64;
        if self.measuring {
            if self.spans.len() < SPANS_KEPT {
                self.spans.push(Span {
                    burst: self.burst,
                    layer,
                    start_ns: (start - self.origin).as_nanos() as u64,
                    dur_ns,
                });
            }
            self.ns[layer as usize] += dur_ns;
            self.calls[layer as usize] += calls;
        }
        dur_ns
    }

    /// Feeds one burst through every replica layer, in pipeline order.
    pub fn frames(&mut self, frames: &[Reception], now: SimTime) {
        self.burst += 1;
        let n = frames.len() as u64;
        if self.measuring {
            self.frames += n;
            self.frame_bytes += frames.iter().map(|f| f.2.len() as u64).sum::<u64>();
        }
        if let Some(q) = self.qos.as_mut() {
            let batch: Vec<BatchedFrame> = frames
                .iter()
                .map(|(receiver, rssi_dbm, frame)| BatchedFrame {
                    receiver: *receiver,
                    rssi_dbm: *rssi_dbm,
                    frame: frame.clone(),
                })
                .collect();
            let t = Instant::now();
            for b in batch {
                black_box(q.offer_frame(b, now));
            }
            self.record(Layer::QosOffer, t, n);
            let q = self.qos.as_mut().expect("checked above");
            let t = Instant::now();
            black_box(q.release(now));
            self.record(Layer::QosRelease, t, n);
        }
        if let Some(store) = self.store.as_mut() {
            let recs: Vec<ArchiveRecord> = frames
                .iter()
                .map(|(r, rssi, f)| ArchiveRecord::frame(r.as_u32(), *rssi, f.clone(), now))
                .collect();
            let mut errors = 0;
            let t = Instant::now();
            for rec in &recs {
                errors += u64::from(store.append(rec).is_err());
            }
            self.record(Layer::Store, t, n);
            self.store_errors += errors;
            if self.measuring {
                self.store_bytes += recs.iter().map(|r| r.encoded_len() as u64).sum::<u64>();
            }
        }
        let t = Instant::now();
        for f in frames {
            let _ = black_box(DataMessage::decode_frame(&f.2));
        }
        self.record(Layer::Wire, t, n);

        let arrivals: Vec<FrameArrival> = frames
            .iter()
            .map(|(receiver, rssi_dbm, frame)| FrameArrival {
                receiver: *receiver,
                rssi_dbm: *rssi_dbm,
                frame: frame.clone(),
                at: now,
            })
            .collect();
        let t = Instant::now();
        let results = self.filter.on_batch(&arrivals);
        self.record(Layer::Filtering, t, n);

        let observations = results.iter().filter(|r| r.observation.is_some()).count() as u64;
        let t = Instant::now();
        for r in &results {
            if let Some(o) = &r.observation {
                self.location.observe(o);
            }
        }
        self.record(Layer::Location, t, observations);

        let deliveries: Vec<Delivery> = results.into_iter().flat_map(|r| r.deliveries).collect();
        if self.measuring {
            self.filtered += deliveries.len() as u64;
        }
        self.dispatch_all(&deliveries);
    }

    fn dispatch_all(&mut self, deliveries: &[Delivery]) {
        let before = self.dispatch.cache_stats();
        let mut outcomes = Vec::with_capacity(deliveries.len());
        let t = Instant::now();
        for d in deliveries {
            outcomes.push(self.dispatch.route(d.msg.stream()));
        }
        let mut dur = self.record(Layer::Dispatch, t, deliveries.len() as u64);
        // The multi-level consumer's derived publications re-enter
        // dispatch like the facade's do: one route per publication.
        if let Some((publisher, every, derived)) = self.publisher {
            for o in &outcomes {
                if o.recipients.binary_search(&publisher).is_ok() {
                    self.publisher_deliveries += 1;
                    if self.publisher_deliveries.is_multiple_of(every) {
                        let t = Instant::now();
                        black_box(self.dispatch.route(derived));
                        dur += self.record(Layer::Dispatch, t, 1);
                    }
                }
            }
        }
        let after = self.dispatch.cache_stats();
        let rebuilds =
            (after.misses + after.invalidations) - (before.misses + before.invalidations);
        let hits = after.hits - before.hits;
        if rebuilds == 0 {
            if self.measuring {
                self.routes.hit_ns += dur;
                self.routes.hits += hits;
            }
        } else {
            // Cold routes are counted in warm-up too: after it, a cache
            // miss happens only at churn.
            self.routes.mixed_ns += dur;
            self.routes.mixed_hits += hits;
            self.routes.rebuilds += rebuilds;
        }

        let orphans = outcomes.iter().filter(|o| o.unclaimed).count() as u64;
        let t = Instant::now();
        for (d, o) in deliveries.iter().zip(&outcomes) {
            if o.unclaimed {
                self.orphanage.take_in(d);
            }
        }
        self.record(Layer::Orphanage, t, orphans);

        if let (Some(ds), Some(slow)) = (self.delivery.as_mut(), self.slow) {
            let staged: Vec<Delivery> = deliveries
                .iter()
                .zip(&outcomes)
                .filter(|(_, o)| o.recipients.binary_search(&slow).is_ok())
                .map(|(d, _)| d.clone())
                .collect();
            let t = Instant::now();
            for d in staged {
                black_box(ds.offer(slow, d, 0));
            }
            black_box(ds.drain());
            self.record(Layer::QosRelease, t, 0);
        }
    }

    /// Moves consumer `consumer`'s subscription from `from` to `to`.
    pub fn churn(&mut self, consumer: usize, from: u32, to: u32) {
        let id = self.ids[consumer];
        let t = Instant::now();
        self.dispatch.unsubscribe(id, TopicFilter::Stream(stream_of(from)));
        self.dispatch.subscribe(id, TopicFilter::Stream(stream_of(to)));
        self.record(Layer::Churn, t, 2);
    }

    /// The control path of one actuation request, acked when granted.
    pub fn actuate(
        &mut self,
        requester: SubscriberId,
        target: ActuationTarget,
        command: SensorCommand,
        priority: u8,
        now: SimTime,
    ) {
        let t = Instant::now();
        let decision = self.resource.request(requester, priority, &target, &command);
        self.record(Layer::Resource, t, 1);
        if let Decision::Granted { effective } = decision {
            let t = Instant::now();
            let request = self.actuation.submit(target, effective, priority, now);
            self.record(Layer::Actuation, t, 1);
            let id = request.request_id;
            let t = Instant::now();
            black_box(self.replicator.plan(request, &self.location, now));
            self.record(Layer::Replicator, t, 1);
            self.actuation.on_ack(id, AckStatus::Applied, now);
        }
    }

    /// Mean ns per call of `layer` (0 when it made no calls).
    fn per_call(&self, layer: Layer) -> f64 {
        let calls = self.calls[layer as usize];
        if calls == 0 {
            0.0
        } else {
            self.ns[layer as usize] as f64 / calls as f64
        }
    }

    /// Mean ns per offered frame of `layer`.
    fn per_frame(&self, layer: Layer) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.ns[layer as usize] as f64 / self.frames as f64
        }
    }

    /// Mean ns of one cache-hit route.
    fn route_ns(&self) -> f64 {
        ratio(self.routes.hit_ns as f64, self.routes.hits as f64)
    }

    /// Mean ns of one match-set rebuild: the spans holding rebuilds,
    /// less their cache hits at the hit cost.
    fn rebuild_ns(&self) -> f64 {
        let r = self.routes;
        let rebuild = r.mixed_ns as f64 - r.mixed_hits as f64 * self.route_ns();
        ratio(rebuild.max(0.0), r.rebuilds as f64)
    }

    /// Writes every span as CSV (`burst,layer,parent,start_ns,dur_ns`).
    ///
    /// # Errors
    ///
    /// The file cannot be written.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "burst,layer,parent,start_ns,dur_ns")?;
        for s in &self.spans {
            let parent = if s.layer == Layer::Root { "" } else { "root" };
            writeln!(w, "{},{},{},{},{}", s.burst, s.layer.name(), parent, s.start_ns, s.dur_ns)?;
        }
        w.flush()
    }

    /// The per-layer metrics measured by the replicas themselves, plus
    /// the engine figures derived from the facade span; `callback_ns`
    /// and `callbacks` are the consumers' own time and count.
    pub fn layer_metrics(&self, callback_ns: u64, callbacks: u64) -> Vec<(&'static str, f64)> {
        let frames = self.frames as f64;
        let callback_per_frame = ratio(callback_ns as f64, frames);
        let engine = self.per_frame(Layer::Facade);
        let layers = [
            Layer::Filtering,
            Layer::Location,
            Layer::Orphanage,
            Layer::Dispatch,
            Layer::QosOffer,
            Layer::QosRelease,
            Layer::Store,
        ];
        let attributed: f64 =
            layers.iter().map(|&l| self.per_frame(l)).sum::<f64>() + callback_per_frame;
        vec![
            ("wire.decode_ns", self.per_frame(Layer::Wire)),
            ("wire.bytes_per_frame", ratio(self.frame_bytes as f64, frames)),
            ("filtering.ns_per_frame", self.per_frame(Layer::Filtering)),
            ("filtering.useful_ratio", ratio(self.filtered as f64, frames)),
            ("location.observe_ns", self.per_call(Layer::Location)),
            ("orphanage.take_in_ns", self.per_call(Layer::Orphanage)),
            ("dispatching.route_ns", self.route_ns()),
            ("dispatching.rebuild_ns", self.rebuild_ns()),
            (
                "dispatching.fanout_mean",
                ratio(
                    self.dispatch.delivery_count() as f64,
                    self.dispatch.dispatched_count() as f64,
                ),
            ),
            ("dispatching.churn_op_ns", self.per_call(Layer::Churn)),
            ("delivery.per_frame", ratio(callbacks as f64, frames)),
            ("delivery.callback_ns", ratio(callback_ns as f64, callbacks as f64)),
            ("qos.offer_ns", self.per_frame(Layer::QosOffer)),
            ("qos.release_ns", self.per_frame(Layer::QosRelease)),
            ("store.append_ns", self.per_frame(Layer::Store)),
            ("store.bytes_per_frame", ratio(self.store_bytes as f64, frames)),
            ("resource.request_ns", self.per_call(Layer::Resource)),
            ("actuation.submit_ns", self.per_call(Layer::Actuation)),
            ("replicator.plan_ns", self.per_call(Layer::Replicator)),
            ("telemetry.snapshot_ns", self.per_call(Layer::Telemetry)),
            ("engine.ns_per_frame", engine),
            ("engine.residual_ns_per_frame", engine - attributed),
        ]
    }

    /// Receptions offered and ns spent in facade calls (every call the
    /// gateway made) in measured windows so far, for the trace overhead.
    pub fn facade_totals(&self) -> (u64, u64) {
        let ns = [Layer::Facade, Layer::FacadeOps, Layer::Telemetry]
            .iter()
            .map(|&l| self.ns[l as usize])
            .sum::<u64>();
        (self.frames, ns)
    }

    /// Replica appends the backend refused.
    pub fn store_errors(&self) -> u64 {
        self.store_errors
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
