//! The correctness reference. Each benchmark consumer checks every
//! delivery against what the generated inputs say it must receive:
//! each unique `(stream, seq)` of a subscribed stream exactly once and
//! in sequence order, or — for a drain-limited consumer, whose
//! coalescing is deliberate — strictly increasing sequences only.
//! The harness adds the ledger checks after the run.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use garnet_core::consumer::{Consumer, ConsumerCtx};
use garnet_core::filtering::Delivery;
use garnet_wire::{SequenceNumber, StreamId, StreamIndex};

use crate::hist::Hist;

/// How a consumer's deliveries are checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Every sequence number, once, in order.
    Exact,
    /// Strictly increasing sequence numbers; gaps are allowed (the QoS
    /// delivery plane coalesces them away).
    Monotone,
}

#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    active: bool,
    /// Exact: the next expected logical sequence number. Monotone: one
    /// past the last delivered one.
    next: u64,
    /// Logical sequence number at activation.
    start: u64,
}

/// What one consumer must receive, and what it did receive.
#[derive(Debug)]
pub struct ConsumerRef {
    mode: Mode,
    sensors: u32,
    derived: Option<StreamId>,
    slots: Vec<Slot>,
    publish_every: Option<u64>,
    skip_delivery: Option<u64>,
    /// Deliveries seen.
    pub deliveries: u64,
    /// Deliveries (or missing deliveries) that broke the reference.
    pub failures: u64,
    /// Derived messages this consumer published.
    pub published: u64,
    /// Expected deliveries accounted so far by deactivated slots.
    expected_closed: u64,
}

impl ConsumerRef {
    /// A consumer of `sensors` raw streams (plus `derived`, if any)
    /// checked under `mode`, with no slot active yet.
    pub fn new(mode: Mode, sensors: u32, derived: Option<StreamId>) -> ConsumerRef {
        ConsumerRef {
            mode,
            sensors,
            derived,
            slots: vec![Slot::default(); sensors as usize + 2],
            publish_every: None,
            skip_delivery: None,
            deliveries: 0,
            failures: 0,
            published: 0,
            expected_closed: 0,
        }
    }

    /// Makes this consumer publish one derived message every `n`
    /// deliveries.
    pub fn publish_every(&mut self, n: u64) {
        self.publish_every = Some(n);
    }

    /// Fault injection: the reference ignores delivery number `k`
    /// (1-based), as if the node had never made it.
    pub fn skip_delivery(&mut self, k: u64) {
        self.skip_delivery = Some(k);
    }

    /// The slot of the derived stream.
    pub fn derived_slot(&self) -> usize {
        self.sensors as usize + 1
    }

    fn slot_of(&self, stream: StreamId) -> Option<usize> {
        if Some(stream) == self.derived {
            return Some(self.derived_slot());
        }
        let sensor = stream.sensor().as_u32();
        (stream.index().as_u8() == 0 && (1..=self.sensors).contains(&sensor))
            .then_some(sensor as usize)
    }

    /// Expects deliveries on `slot` from logical sequence `next` on.
    pub fn activate(&mut self, slot: usize, next: u64) {
        self.slots[slot] = Slot { active: true, next, start: next };
    }

    /// Stops expecting deliveries on `slot`, whose stream had `sent`
    /// frames out when the subscription ended; a shortfall counts as
    /// missing deliveries.
    pub fn deactivate(&mut self, slot: usize, sent: u64) {
        let s = self.slots[slot];
        self.close(s, sent);
        self.slots[slot].active = false;
    }

    fn close(&mut self, s: Slot, sent: u64) {
        self.expected_closed += sent.saturating_sub(s.start);
        if self.mode == Mode::Exact && s.next != sent {
            self.failures += s.next.abs_diff(sent);
        }
        if self.mode == Mode::Monotone && s.next > sent {
            self.failures += 1;
        }
    }

    /// Checks one delivery; returns true when the consumer should
    /// publish a derived message now.
    pub fn observe(&mut self, stream: StreamId, seq: SequenceNumber) -> bool {
        self.deliveries += 1;
        if self.skip_delivery == Some(self.deliveries) {
            return false;
        }
        let Some(i) = self.slot_of(stream).filter(|&i| self.slots[i].active) else {
            self.failures += 1;
            return false;
        };
        let slot = &mut self.slots[i];
        let d = seq.as_u16().wrapping_sub(slot.next as u16) as i16;
        match (self.mode, d) {
            (Mode::Exact, 0) => slot.next += 1,
            (Mode::Exact, gap) if gap > 0 => {
                self.failures += gap as u64;
                slot.next += gap as u64 + 1;
            }
            (Mode::Monotone, ahead) if ahead >= 0 => slot.next += ahead as u64 + 1,
            _ => self.failures += 1,
        }
        self.publish_every.is_some_and(|n| self.deliveries.is_multiple_of(n)) && {
            self.published += 1;
            true
        }
    }

    /// Closes every active slot against `sent(slot)`, the frames its
    /// stream had out at the end, and returns the deliveries this
    /// consumer was expected to make.
    pub fn finish(&mut self, sent: impl Fn(usize) -> u64) -> u64 {
        for i in 0..self.slots.len() {
            let s = self.slots[i];
            if s.active {
                self.close(s, sent(i));
                self.slots[i].active = false;
            }
        }
        self.expected_closed
    }
}

/// State shared by the harness and every benchmark consumer.
#[derive(Debug)]
pub struct Probe {
    /// When the current `on_frames` call began.
    pub entry: Cell<Instant>,
    /// Whether deliveries are inside a timed `on_frames` call.
    pub recording: Cell<bool>,
    /// Delivery latency (ns) of the current window.
    pub latency: RefCell<Hist>,
    /// Whether consumers time their own callbacks (traced pass).
    pub tracing: Cell<bool>,
    /// Nanoseconds spent inside consumer callbacks while tracing.
    pub callback_ns: Cell<u64>,
    /// Callbacks made while tracing.
    pub callbacks: Cell<u64>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            entry: Cell::new(Instant::now()),
            recording: Cell::new(false),
            latency: RefCell::new(Hist::default()),
            tracing: Cell::new(false),
            callback_ns: Cell::new(0),
            callbacks: Cell::new(0),
        }
    }
}

/// A consumer that checks its deliveries against its [`ConsumerRef`]
/// and records their latency.
pub struct BenchConsumer {
    name: String,
    state: Rc<RefCell<ConsumerRef>>,
    probe: Rc<Probe>,
    timed: bool,
}

impl BenchConsumer {
    /// A consumer named `name`; `timed` consumers add to the latency
    /// histogram (drain-limited ones do not: their wait is policy).
    pub fn new(
        name: String,
        state: Rc<RefCell<ConsumerRef>>,
        probe: Rc<Probe>,
        timed: bool,
    ) -> BenchConsumer {
        BenchConsumer { name, state, probe, timed }
    }
}

impl Consumer for BenchConsumer {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_data(&mut self, delivery: &Delivery, ctx: &mut ConsumerCtx) {
        let t = Instant::now();
        let probe = &*self.probe;
        if self.timed && probe.recording.get() {
            probe.latency.borrow_mut().record((t - probe.entry.get()).as_nanos() as u64);
        }
        let publish = self.state.borrow_mut().observe(delivery.msg.stream(), delivery.msg.seq());
        if publish {
            let n = self.state.borrow().published;
            ctx.publish_derived(StreamIndex::new(0), n.to_le_bytes().to_vec());
        }
        if probe.tracing.get() {
            probe.callback_ns.set(probe.callback_ns.get() + t.elapsed().as_nanos() as u64);
            probe.callbacks.set(probe.callbacks.get() + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::stream_of;

    fn seq(n: u16) -> SequenceNumber {
        SequenceNumber::new(n)
    }

    #[test]
    fn exact_mode_counts_gaps_duplicates_and_shortfall() {
        let mut r = ConsumerRef::new(Mode::Exact, 4, None);
        r.activate(1, 0);
        for n in [0, 1, 3, 3] {
            r.observe(stream_of(1), seq(n));
        }
        assert_eq!(r.failures, 2, "one gap (2) and one duplicate (3)");
        assert_eq!(r.finish(|_| 5), 5);
        assert_eq!(r.failures, 3, "seq 4 never arrived");
    }

    #[test]
    fn monotone_mode_allows_gaps_but_not_reordering() {
        let mut r = ConsumerRef::new(Mode::Monotone, 4, None);
        r.activate(2, 0);
        for n in [0, 5, 9, 7] {
            r.observe(stream_of(2), seq(n));
        }
        assert_eq!(r.failures, 1);
        r.finish(|_| 10);
        assert_eq!(r.failures, 1);
    }

    #[test]
    fn unsubscribed_streams_fail_and_wraparound_is_in_order() {
        let mut r = ConsumerRef::new(Mode::Exact, 4, None);
        r.activate(3, 65_535);
        r.observe(stream_of(3), seq(65_535));
        r.observe(stream_of(3), seq(0));
        r.observe(stream_of(4), seq(0));
        assert_eq!(r.failures, 1);
        assert_eq!(r.finish(|_| 65_537), 2);
        assert_eq!(r.failures, 1);
    }
}
