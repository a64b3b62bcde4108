//! The four workloads: sizes, consumers and the calls a receiver
//! gateway makes between bursts. See `perfbench/README.md` for why each
//! workload exists and which layer it loads.

use garnet_core::DriverKind;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Stream reconstruction: three receiver copies per frame, swaps,
    /// a quarter of the sensors orphaned.
    FaninDup,
    /// Dispatch fan-out with subscription churn, FIFO engine.
    FanoutFifo,
    /// The same inputs as `FanoutFifo` on the threaded engine.
    FanoutThreaded,
    /// File archive, armed QoS, actuation, ticks and a telemetry sink.
    DurableControl,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::FaninDup,
        Workload::FanoutFifo,
        Workload::FanoutThreaded,
        Workload::DurableControl,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FaninDup => "fanin_dup",
            Workload::FanoutFifo => "fanout_fifo",
            Workload::FanoutThreaded => "fanout_threaded",
            Workload::DurableControl => "durable_control",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size for measurement, tiny for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` and the README describe.
    Full,
    /// A few dozen sensors and consumers, so a whole run takes well
    /// under a second.
    Tiny,
}

/// Who subscribes to what.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConsumerPlan {
    /// One consumer subscribes by `Sensor` to every odd sensor, one by
    /// `Stream` to every sensor divisible by 4; the rest is orphaned.
    OddAndQuarter,
    /// `consumers` consumers with `subs_each` distinct seeded `Stream`
    /// subscriptions, two `All` wiretaps, consumer 0 publishing a
    /// derived stream every `publish_every` deliveries and
    /// `derived_subscribers` consumers subscribed to it.
    FanOut {
        /// Consumers holding seeded stream subscriptions.
        consumers: usize,
        /// Distinct stream subscriptions per consumer.
        subs_each: usize,
        /// Deliveries between two derived publications.
        publish_every: u64,
        /// Consumers (1..=n) also subscribed to the derived stream.
        derived_subscribers: usize,
    },
    /// One fast `All` consumer and one consumer subscribed by `Sensor`
    /// to every sensor divisible by 4, drained at most `drain_limit`
    /// deliveries per facade call.
    FastAndSlow {
        /// The slow consumer's per-call drain limit.
        drain_limit: usize,
    },
}

/// Everything that defines a workload's inputs and node.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Which workload this is.
    pub workload: Workload,
    /// Execution engine.
    pub driver: DriverKind,
    /// Sensors, ids `1..=sensors`, one stream (index 0) each.
    pub sensors: u32,
    /// Receiver copies of every frame.
    pub copies: usize,
    /// Receiver (and, with `transmitters`, transmitter) grid side; 0
    /// configures no receivers.
    pub grid: usize,
    /// Whether a transmitter grid beside the receivers is configured.
    pub transmitters: bool,
    /// One frame in this many is swapped with its stream successor.
    pub swap_one_in: Option<u64>,
    /// Payload bytes per frame.
    pub payload_len: usize,
    /// Receptions per `on_frames` call.
    pub burst: usize,
    /// Simulated time for every sensor to report once.
    pub round_us: u64,
    /// Consumers and subscriptions.
    pub consumers: ConsumerPlan,
    /// One subscription moves after every this many bursts.
    pub churn_every: Option<u64>,
    /// `request_actuation` after every this many bursts (acked at once).
    pub actuation_every: Option<u64>,
    /// `on_tick` and `Garnet::telemetry` at every whole simulated
    /// second.
    pub ticks: bool,
    /// Frame records pre-written to the archive directory.
    pub archive_records: u64,
    /// QoS data-tier capacity (`OverloadPolicy::Shed`); `None` leaves
    /// the scheduler unarmed.
    pub qos_capacity: Option<usize>,
    /// Per-consumer staged-delivery bound of the QoS delivery plane.
    pub consumer_queue_capacity: usize,
    /// Timed `request_actuation` calls after every measured window.
    pub probe_requests: usize,
    /// Length of one measured window (s).
    pub window_s: f64,
    /// Bursts generated at once, between timed segments.
    pub segment_bursts: usize,
    /// Minimum set-up repetitions.
    pub setup_reps: usize,
    /// Set-up repetitions continue until this much set-up time has
    /// been timed (at most 201 repetitions).
    pub setup_budget_s: f64,
}

impl Spec {
    /// The spec for `workload` at `scale`.
    pub fn new(workload: Workload, scale: Scale) -> Spec {
        let tiny = scale == Scale::Tiny;
        let fan_out = ConsumerPlan::FanOut {
            consumers: if tiny { 24 } else { 256 },
            subs_each: if tiny { 4 } else { 16 },
            publish_every: 16,
            derived_subscribers: 8,
        };
        let base = Spec {
            workload,
            driver: DriverKind::Fifo,
            sensors: 0,
            copies: 1,
            grid: 0,
            transmitters: false,
            swap_one_in: None,
            payload_len: 16,
            burst: 64,
            round_us: 20_000,
            consumers: fan_out,
            churn_every: None,
            actuation_every: None,
            ticks: false,
            archive_records: 0,
            qos_capacity: None,
            consumer_queue_capacity: 64,
            probe_requests: if tiny { 100 } else { 1_000 },
            window_s: 0.1,
            segment_bursts: if tiny { 16 } else { 1_024 },
            setup_reps: if tiny { 2 } else { 5 },
            setup_budget_s: if tiny { 0.0 } else { 2.0 },
        };
        match workload {
            Workload::FaninDup => Spec {
                sensors: if tiny { 64 } else { 4_096 },
                copies: 3,
                grid: 8,
                swap_one_in: Some(32),
                consumers: ConsumerPlan::OddAndQuarter,
                ..base
            },
            Workload::FanoutFifo => {
                Spec { sensors: if tiny { 32 } else { 256 }, churn_every: Some(64), ..base }
            }
            Workload::FanoutThreaded => Spec {
                workload,
                driver: DriverKind::Threaded,
                ..Spec::new(Workload::FanoutFifo, scale)
            },
            Workload::DurableControl => Spec {
                sensors: if tiny { 64 } else { 1_024 },
                copies: 2,
                grid: 4,
                transmitters: true,
                round_us: 100_000,
                consumers: ConsumerPlan::FastAndSlow { drain_limit: 4 },
                actuation_every: Some(16),
                ticks: true,
                archive_records: if tiny { 2_000 } else { 1_000_000 },
                qos_capacity: Some(256),
                consumer_queue_capacity: 512,
                ..base
            },
        }
    }

    /// Bursts needed for every sensor to report once.
    pub fn round_bursts(&self) -> u64 {
        (u64::from(self.sensors) * self.copies as u64).div_ceil(self.burst as u64)
    }
}
