//! Building the node under test: the `GarnetConfig` of a workload, the
//! benchmark consumers and their subscriptions, and the working
//! directories inside the checkout.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use garnet_core::middleware::{Garnet, GarnetConfig};
use garnet_core::qos::{QosConfig, QosMode};
use garnet_core::router::{OverloadConfig, OverloadPolicy};
use garnet_core::{ArchiveBackend, ArchiveConfig, TelemetryConfig};
use garnet_net::{DispatchCacheConfig, SubscriberId, Token, TopicFilter};
use garnet_radio::geometry::Point;
use garnet_radio::{Receiver, Transmitter};
use garnet_wire::{SensorId, StreamId, StreamIndex};

use crate::gen::stream_of;
use crate::reference::{BenchConsumer, ConsumerRef, Mode, Probe};
use crate::spec::{ConsumerPlan, Spec};

/// Directories a run writes, all under one root inside the checkout.
#[derive(Clone, Debug)]
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    /// A work directory rooted at `root` (created on demand).
    pub fn new(root: impl Into<PathBuf>) -> WorkDir {
        WorkDir { root: root.into() }
    }

    /// A subdirectory of this one.
    pub fn sub(&self, name: &str) -> WorkDir {
        WorkDir { root: self.root.join(name) }
    }

    /// The root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The pre-written archive, never appended to.
    pub fn golden(&self) -> PathBuf {
        self.root.join("archive-golden")
    }

    /// The archive the node opens: a copy of the golden log.
    pub fn live(&self) -> PathBuf {
        self.root.join("archive-live")
    }

    /// The replica archive of the traced pass.
    pub fn replica(&self) -> PathBuf {
        self.root.join("archive-replica")
    }

    /// The telemetry sink.
    pub fn telemetry(&self) -> PathBuf {
        self.root.join("telemetry")
    }
}

/// Spacing of the receiver and transmitter grids (m).
const GRID_SPACING_M: f64 = 50.0;
/// Coverage radius of each grid element (m), over the spacing so that
/// coverage overlaps.
const GRID_RANGE_M: f64 = 80.0;

/// The node configuration of `spec`. Every setting the library would
/// otherwise read from the environment is set explicitly.
pub fn config(spec: &Spec, work: &WorkDir) -> GarnetConfig {
    let origin = Point::new(0.0, 0.0);
    let tx = if spec.transmitters { spec.grid } else { 0 };
    GarnetConfig {
        driver: spec.driver,
        ingest_shards: 1,
        dispatch_shards: 1,
        receivers: Receiver::grid(origin, spec.grid, spec.grid, GRID_SPACING_M, GRID_RANGE_M),
        transmitters: Transmitter::grid(origin, tx, tx, GRID_SPACING_M, GRID_RANGE_M),
        overload: spec
            .qos_capacity
            .map(|capacity| OverloadConfig { capacity, policy: OverloadPolicy::Shed }),
        qos: QosConfig {
            mode: QosMode::Scheduled,
            data_floor: None,
            data_ceiling: None,
            consumer_queue_capacity: spec.consumer_queue_capacity,
        },
        batch_ingest: true,
        archive: (spec.archive_records > 0).then(|| ArchiveConfig {
            backend: ArchiveBackend::Directory(work.live()),
            ..ArchiveConfig::default()
        }),
        dispatch_cache: DispatchCacheConfig {
            enabled: true,
            capacity: DispatchCacheConfig::DEFAULT_CAPACITY,
        },
        telemetry: TelemetryConfig {
            sink_dir: spec.ticks.then(|| work.telemetry()),
            ..TelemetryConfig::default()
        },
        ..GarnetConfig::default()
    }
}

/// The filters consumer `index` of `spec`'s plan holds at set-up
/// (`subs` is the seeded fan-out plan; `derived` the derived stream).
pub fn filters(
    spec: &Spec,
    subs: &[Vec<u32>],
    derived: Option<StreamId>,
    index: usize,
) -> Vec<TopicFilter> {
    let sensors = 1..=spec.sensors;
    let sensor = |s: u32| SensorId::new(s).expect("sensor ids are 1..=sensors");
    match spec.consumers {
        ConsumerPlan::OddAndQuarter if index == 0 => {
            sensors.filter(|s| s % 2 == 1).map(|s| TopicFilter::Sensor(sensor(s))).collect()
        }
        ConsumerPlan::OddAndQuarter => {
            sensors.filter(|s| s % 4 == 0).map(|s| TopicFilter::Stream(stream_of(s))).collect()
        }
        ConsumerPlan::FanOut { derived_subscribers, .. } => match subs.get(index) {
            Some(own) => {
                let mut f: Vec<TopicFilter> =
                    own.iter().map(|&s| TopicFilter::Stream(stream_of(s))).collect();
                if (1..=derived_subscribers).contains(&index) {
                    f.extend(derived.map(TopicFilter::Stream));
                }
                f
            }
            None => vec![TopicFilter::All],
        },
        ConsumerPlan::FastAndSlow { .. } if index == 0 => vec![TopicFilter::All],
        ConsumerPlan::FastAndSlow { .. } => {
            sensors.filter(|s| s % 4 == 0).map(|s| TopicFilter::Sensor(sensor(s))).collect()
        }
    }
}

/// Number of consumers in `spec`'s plan.
pub fn consumer_count(spec: &Spec) -> usize {
    match spec.consumers {
        ConsumerPlan::OddAndQuarter | ConsumerPlan::FastAndSlow { .. } => 2,
        ConsumerPlan::FanOut { consumers, .. } => consumers + 2,
    }
}

/// The index of the drain-limited consumer, if the plan has one.
pub fn slow_index(spec: &Spec) -> Option<usize> {
    matches!(spec.consumers, ConsumerPlan::FastAndSlow { .. }).then_some(1)
}

/// The node under test with its consumers' references.
pub struct Node {
    /// The facade.
    pub garnet: Garnet,
    /// The all-capability token the gateway acts with.
    pub token: Token,
    /// Subscriber id of each consumer, by plan index.
    pub ids: Vec<SubscriberId>,
    /// Reference of each consumer, by plan index.
    pub refs: Vec<Rc<RefCell<ConsumerRef>>>,
    /// The derived stream, when the plan publishes one.
    pub derived: Option<StreamId>,
}

impl Node {
    /// Builds the node: `Garnet::new`, consumer registration,
    /// subscriptions and drain limits — everything `setup_s` times.
    pub fn build(spec: &Spec, config: GarnetConfig, subs: &[Vec<u32>], probe: &Rc<Probe>) -> Node {
        let mut garnet = Garnet::new(config);
        let token = garnet.issue_default_token("perfbench-gateway");
        let n = consumer_count(spec);
        let slow = slow_index(spec);
        let mut ids = Vec::with_capacity(n);
        let mut refs = Vec::with_capacity(n);
        let mut derived = None;
        for index in 0..n {
            let mode = if slow == Some(index) { Mode::Monotone } else { Mode::Exact };
            let state = Rc::new(RefCell::new(ConsumerRef::new(mode, spec.sensors, derived)));
            let consumer = BenchConsumer::new(
                format!("c{index}"),
                Rc::clone(&state),
                Rc::clone(probe),
                slow != Some(index),
            );
            let id = garnet
                .register_consumer(Box::new(consumer), &token, 1)
                .expect("the gateway token may subscribe");
            if let ConsumerPlan::FanOut { publish_every, .. } = spec.consumers {
                if index == 0 {
                    state.borrow_mut().publish_every(publish_every);
                    let vs = garnet.virtual_sensor(id).expect("registered consumers have one");
                    derived = Some(StreamId::new(vs, StreamIndex::new(0)));
                }
            }
            for filter in filters(spec, subs, derived, index) {
                garnet.subscribe(id, filter, &token).expect("the gateway token may subscribe");
                activate(&mut state.borrow_mut(), spec, filter, derived);
            }
            if slow == Some(index) {
                if let ConsumerPlan::FastAndSlow { drain_limit } = spec.consumers {
                    garnet.set_consumer_drain_limit(id, Some(drain_limit));
                }
            }
            ids.push(id);
            refs.push(state);
        }
        Node { garnet, token, ids, refs, derived }
    }
}

/// Marks the reference slots `filter` covers as expected from the
/// first frame on.
fn activate(r: &mut ConsumerRef, spec: &Spec, filter: TopicFilter, derived: Option<StreamId>) {
    match filter {
        TopicFilter::All => {
            for s in 1..=spec.sensors {
                r.activate(s as usize, 0);
            }
            if derived.is_some() {
                r.activate(r.derived_slot(), 0);
            }
        }
        TopicFilter::Sensor(s) => r.activate(s.as_u32() as usize, 0),
        TopicFilter::Stream(st) if Some(st) == derived => r.activate(r.derived_slot(), 0),
        TopicFilter::Stream(st) => r.activate(st.sensor().as_u32() as usize, 0),
    }
}
