//! Glue between the service graph and the `garnet-simkit` flight
//! recorder: the event→record mapping the FIFO `Router` traces every
//! hop with. Both engines run that router, so their dumps are
//! identical.
//!
//! Everything here is feature-gated: with `trace` off the module
//! exports only the zero-sized [`RootTag`] alias, and every call site
//! in the router is behind `#[cfg(feature = "trace")]` (or goes through
//! the no-op `Tracer`), so the hot path pays nothing.

/// The root-sequence tag carried by every queued event in the
/// single-threaded `Router` so trace records can attribute hops to the
/// boundary event they descend from. A real sequence number only when
/// tracing is compiled in; a zero-sized unit otherwise, so the queue
/// layout (and the hot path) is unchanged.
#[cfg(feature = "trace")]
pub(crate) type RootTag = u64;

/// Zero-sized twin of the root tag (the `trace` feature is off).
#[cfg(not(feature = "trace"))]
pub(crate) type RootTag = ();

#[cfg(feature = "trace")]
pub(crate) use imp::event_record;

#[cfg(feature = "trace")]
mod imp {
    use garnet_simkit::trace::{TraceEventKind, TraceOutcome, TraceRecord, TraceStage};
    use garnet_simkit::SimTime;
    use garnet_wire::{peek_stream, ActuationTarget};

    use crate::filtering::Delivery;
    use crate::service::ServiceEvent;

    fn target_ids(target: &ActuationTarget) -> (Option<u32>, Option<u32>) {
        match target {
            ActuationTarget::Sensor(s) => (None, Some(s.as_u32())),
            ActuationTarget::Stream(st) => (Some(st.to_raw()), Some(st.sensor().as_u32())),
            ActuationTarget::Area(_) => (None, None),
        }
    }

    fn delivery_record(
        stage: TraceStage,
        kind: TraceEventKind,
        delivery: &Delivery,
        now: SimTime,
    ) -> TraceRecord {
        TraceRecord {
            stream: Some(delivery.msg.stream().to_raw()),
            sensor: Some(delivery.msg.stream().sensor().as_u32()),
            age_us: now.saturating_since(delivery.first_received_at).as_micros(),
            ..TraceRecord::new(now.as_micros(), stage, kind, TraceOutcome::Delivered)
        }
    }

    /// The canonical record for one event hop. Pure on the event, so
    /// the same event at the same simulated time always produces the
    /// same bytes.
    pub(crate) fn event_record(ev: &ServiceEvent, now: SimTime, root: Option<u64>) -> TraceRecord {
        use ServiceEvent::*;
        let at = now.as_micros();
        let base = |stage, kind| TraceRecord::new(at, stage, kind, TraceOutcome::Delivered);
        let mut rec = match ev {
            Frame { frame, .. } => {
                let stream = peek_stream(frame);
                TraceRecord {
                    stream: stream.map(|s| s.to_raw()),
                    sensor: stream.map(|s| s.sensor().as_u32()),
                    ..base(TraceStage::Filtering, TraceEventKind::Frame)
                }
            }
            // Batches never reach the queue on the hot path (admission
            // splits them into per-frame entries so each hop gets its
            // own record); an externally enqueued batch is attributed
            // to its first frame's stream.
            FrameBatch(frames) => {
                let stream = frames.first().and_then(|f| peek_stream(&f.frame));
                TraceRecord {
                    stream: stream.map(|s| s.to_raw()),
                    sensor: stream.map(|s| s.sensor().as_u32()),
                    ..base(TraceStage::Filtering, TraceEventKind::Frame)
                }
            }
            FlushReorder => base(TraceStage::Filtering, TraceEventKind::FlushReorder),
            Filtered { delivery, .. } => {
                delivery_record(TraceStage::Dispatch, TraceEventKind::Filtered, delivery, now)
            }
            Orphaned(delivery) => {
                delivery_record(TraceStage::Orphanage, TraceEventKind::Orphaned, delivery, now)
            }
            Observed(obs) => TraceRecord {
                sensor: Some(obs.sensor.as_u32()),
                ..base(TraceStage::Control, TraceEventKind::Observed)
            },
            Hint { sensor, .. } => TraceRecord {
                sensor: Some(sensor.as_u32()),
                ..base(TraceStage::Control, TraceEventKind::Hint)
            },
            AckReceived { .. } => base(TraceStage::Actuation, TraceEventKind::AckReceived),
            ActuationRequested { target, .. } => {
                let (stream, sensor) = target_ids(target);
                TraceRecord {
                    stream,
                    sensor,
                    ..base(TraceStage::Control, TraceEventKind::ActuationRequested)
                }
            }
            Submit { target, .. } => {
                let (stream, sensor) = target_ids(target);
                TraceRecord {
                    stream,
                    sensor,
                    ..base(TraceStage::Actuation, TraceEventKind::Submit)
                }
            }
            Replicate { request, .. } => {
                let (stream, sensor) = target_ids(&request.target);
                TraceRecord {
                    stream,
                    sensor,
                    ..base(TraceStage::Control, TraceEventKind::Replicate)
                }
            }
            ActuationTick => base(TraceStage::Actuation, TraceEventKind::ActuationTick),
            StateReported { .. } => base(TraceStage::Control, TraceEventKind::StateReported),
        };
        rec.root = root;
        rec
    }
}
