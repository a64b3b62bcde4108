//! Seeded input generation. Everything the node receives — frames,
//! subscription choices, churn, actuation requests — comes from here
//! and is generated before the segment that uses it is timed. The node
//! never sees the seed, only the generated inputs.

use std::collections::VecDeque;

use garnet_radio::ReceiverId;
use garnet_simkit::SimTime;
use garnet_wire::{
    ActuationTarget, DataMessage, FrameBytes, SensorCommand, SensorId, SequenceNumber, StreamId,
    StreamIndex,
};

use crate::spec::{ConsumerPlan, Spec};

/// SplitMix64: small, fast and good enough to pick sensors and bytes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent uses of
    /// one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One frame as one receiver heard it — an `on_frames` element.
pub type Reception = (ReceiverId, f64, FrameBytes);

/// The single stream (index 0) of `sensor`.
pub fn stream_of(sensor: u32) -> StreamId {
    StreamId::new(SensorId::new(sensor).expect("sensor ids are 1..=sensors"), StreamIndex::new(0))
}

/// A call the gateway makes after a burst.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Consumer `consumer` moves one `Stream` subscription from sensor
    /// `from` to sensor `to`. `from_next`/`to_next` are how many frames
    /// of each stream had been sent when the move happens.
    Churn {
        /// Consumer index (not the node's subscriber id).
        consumer: usize,
        /// Sensor whose stream is unsubscribed.
        from: u32,
        /// Sensor whose stream is subscribed.
        to: u32,
        /// Frames of `from` sent before the move.
        from_next: u64,
        /// Frames of `to` sent before the move.
        to_next: u64,
    },
    /// `request_actuation` by the actuating consumer, acked at once
    /// when granted.
    Actuate {
        /// Target sensor.
        target: ActuationTarget,
        /// Command asked for.
        command: SensorCommand,
        /// Requester priority.
        priority: u8,
    },
    /// `on_tick` then `Garnet::telemetry` at the burst's time (a whole
    /// simulated second).
    Tick,
}

/// One burst and the calls that follow it.
#[derive(Debug)]
pub struct Step {
    /// The receptions handed to `on_frames`.
    pub frames: Vec<Reception>,
    /// Simulated time of the burst.
    pub now: SimTime,
    /// Calls made after `on_frames` returns.
    pub ops: Vec<Op>,
}

/// Round-robin frame source: every sensor reports once per round, each
/// frame is heard by `copies` fixed receivers, and (optionally) a frame
/// is sent after its successor.
#[derive(Debug)]
pub struct FrameGen {
    sensors: u32,
    copies: usize,
    burst: usize,
    payload_len: usize,
    swap_one_in: Option<u64>,
    round_us: u64,
    listeners: Vec<Vec<ReceiverId>>,
    rng: Rng,
    next_seq: Vec<u64>,
    held: Vec<Option<u64>>,
    cursor: u32,
    unique: u64,
    pending: VecDeque<Reception>,
}

impl FrameGen {
    /// A source for `spec`'s sensors, driven by `rng`.
    pub fn new(spec: &Spec, mut rng: Rng) -> FrameGen {
        let grid = spec.grid.max(1);
        let receivers = (grid * grid) as u64;
        let listeners = (0..spec.sensors)
            .map(|_| {
                let base = rng.below(receivers) as usize;
                let offsets = [0, 1, grid, grid + 1];
                (0..spec.copies)
                    .map(|k| ReceiverId::new(((base + offsets[k % 4]) % (grid * grid)) as u32))
                    .collect()
            })
            .collect();
        let slots = spec.sensors as usize + 1;
        FrameGen {
            sensors: spec.sensors,
            copies: spec.copies,
            burst: spec.burst,
            payload_len: spec.payload_len,
            swap_one_in: spec.swap_one_in,
            round_us: spec.round_us,
            listeners,
            rng,
            next_seq: vec![0; slots],
            held: vec![None; slots],
            cursor: 0,
            unique: 0,
            pending: VecDeque::new(),
        }
    }

    /// Frames of `sensor`'s stream sent so far (sequence numbers
    /// `0..next_seq` are out, except a frame held back by a swap).
    pub fn next_seq(&self, sensor: u32) -> u64 {
        self.next_seq[sensor as usize]
    }

    /// Simulated time of the newest frame.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.unique * self.round_us / u64::from(self.sensors))
    }

    fn emit(&mut self, sensor: u32, seq: u64) {
        let mut payload = vec![0u8; self.payload_len];
        for chunk in payload.chunks_mut(8) {
            let bytes = self.rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        let frame: FrameBytes = DataMessage::builder(stream_of(sensor))
            .seq(SequenceNumber::new(seq as u16))
            .payload(payload)
            .build()
            .expect("a 16-byte payload always encodes")
            .encode_to_vec()
            .into();
        for k in 0..self.copies {
            let rssi = -45.0 - 35.0 * self.rng.unit();
            self.pending.push_back((self.listeners[sensor as usize - 1][k], rssi, frame.clone()));
        }
        self.unique += 1;
    }

    fn push_next_frame(&mut self) {
        let sensor = self.cursor + 1;
        self.cursor = (self.cursor + 1) % self.sensors;
        let s = sensor as usize;
        if let Some(seq) = self.held[s].take() {
            self.emit(sensor, seq);
            return;
        }
        let seq = self.next_seq[s];
        // The first frame of a stream is never swapped: whatever arrives
        // first starts the stream, so a swapped pair would lose seq 0.
        let swap = seq > 0 && self.swap_one_in.is_some_and(|n| self.rng.below(n) == 0);
        if swap {
            self.emit(sensor, seq + 1);
            self.held[s] = Some(seq);
            self.next_seq[s] = seq + 2;
        } else {
            self.emit(sensor, seq);
            self.next_seq[s] = seq + 1;
        }
    }

    /// The next burst of receptions and its simulated time.
    pub fn next_burst(&mut self) -> (Vec<Reception>, SimTime) {
        while self.pending.len() < self.burst {
            self.push_next_frame();
        }
        (self.pending.drain(..self.burst).collect(), self.now())
    }

    /// Sends every frame still held back by a swap, plus any receptions
    /// not yet in a burst, so that every generated frame can be
    /// delivered. `None` when nothing is outstanding.
    pub fn drain_held(&mut self) -> Option<(Vec<Reception>, SimTime)> {
        for s in 1..=self.sensors {
            if let Some(seq) = self.held[s as usize].take() {
                self.emit(s, seq);
            }
        }
        if self.pending.is_empty() {
            None
        } else {
            Some((self.pending.drain(..).collect(), self.now()))
        }
    }
}

/// The seeded `Stream` subscriptions of a fan-out plan: per consumer,
/// `subs_each` distinct sensors.
pub fn plan_subscriptions(spec: &Spec, seed: u64) -> Vec<Vec<u32>> {
    let ConsumerPlan::FanOut { consumers, subs_each, .. } = spec.consumers else {
        return Vec::new();
    };
    let mut rng = Rng::new(seed, 2);
    (0..consumers)
        .map(|_| {
            let mut subs: Vec<u32> = Vec::with_capacity(subs_each);
            while subs.len() < subs_each.min(spec.sensors as usize) {
                let s = 1 + rng.below(u64::from(spec.sensors)) as u32;
                if !subs.contains(&s) {
                    subs.push(s);
                }
            }
            subs
        })
        .collect()
}

/// A random `SetReportInterval` request for one of `sensors`.
pub fn actuation_op(rng: &mut Rng, sensors: u32) -> Op {
    let sensor = 1 + rng.below(u64::from(sensors)) as u32;
    let interval_ms = [250, 500, 1_000, 2_000][rng.below(4) as usize];
    Op::Actuate {
        target: ActuationTarget::Sensor(SensorId::new(sensor).expect("sensor ids are 1..=sensors")),
        command: SensorCommand::SetReportInterval { stream: StreamIndex::new(0), interval_ms },
        priority: rng.below(4) as u8,
    }
}

/// The whole input stream of one pass: frames plus the gateway's calls.
#[derive(Debug)]
pub struct Inputs {
    frames: FrameGen,
    ops_rng: Rng,
    subs: Vec<Vec<u32>>,
    churn_every: Option<u64>,
    actuation_every: Option<u64>,
    ticks: bool,
    next_tick_s: u64,
    sensors: u32,
    bursts: u64,
}

impl Inputs {
    /// The inputs of `spec` for `seed`; `subs` is the plan from
    /// [`plan_subscriptions`] that churn starts from.
    pub fn new(spec: &Spec, seed: u64, subs: Vec<Vec<u32>>) -> Inputs {
        Inputs {
            frames: FrameGen::new(spec, Rng::new(seed, 1)),
            ops_rng: Rng::new(seed, 3),
            subs,
            churn_every: spec.churn_every,
            actuation_every: spec.actuation_every,
            ticks: spec.ticks,
            next_tick_s: 1,
            sensors: spec.sensors,
            bursts: 0,
        }
    }

    /// The frame source (for the reference's final counts).
    pub fn frames(&self) -> &FrameGen {
        &self.frames
    }

    /// Generates the next `n` steps.
    pub fn segment(&mut self, n: usize) -> Vec<Step> {
        (0..n).map(|_| self.step()).collect()
    }

    fn step(&mut self) -> Step {
        let (frames, now) = self.frames.next_burst();
        self.bursts += 1;
        let mut ops = Vec::new();
        if self.churn_every.is_some_and(|k| self.bursts.is_multiple_of(k)) && !self.subs.is_empty()
        {
            ops.push(self.churn());
        }
        if self.actuation_every.is_some_and(|k| self.bursts.is_multiple_of(k)) {
            ops.push(actuation_op(&mut self.ops_rng, self.sensors));
        }
        if self.ticks && now >= SimTime::from_secs(self.next_tick_s) {
            self.next_tick_s = now.as_micros() / 1_000_000 + 1;
            ops.push(Op::Tick);
        }
        Step { frames, now, ops }
    }

    fn churn(&mut self) -> Op {
        let rng = &mut self.ops_rng;
        let consumer = rng.below(self.subs.len() as u64) as usize;
        let held = &mut self.subs[consumer];
        let slot = rng.below(held.len() as u64) as usize;
        let from = held[slot];
        let to = loop {
            let s = 1 + rng.below(u64::from(self.sensors)) as u32;
            if !held.contains(&s) {
                break s;
            }
        };
        held[slot] = to;
        Op::Churn {
            consumer,
            from,
            to,
            from_next: self.frames.next_seq(from),
            to_next: self.frames.next_seq(to),
        }
    }

    /// The final step: frames held back by swaps (no calls after it).
    pub fn drain(&mut self) -> Option<Step> {
        self.frames.drain_held().map(|(frames, now)| Step { frames, now, ops: Vec::new() })
    }
}
