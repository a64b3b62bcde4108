//! E21 — admission batch-size sweep on the zero-copy frame path.
//!
//! E3 sweeps ingest *shards*; this sweep holds the topology at one
//! shard per stage and varies the **admission batch size** instead: how
//! many frames enter per `Garnet::on_frames` call on the facade's
//! threaded engine. Each batch costs one worker round-trip however many
//! frames it carries, so per-frame overhead (enqueue, wake-up, merge)
//! amortises across the batch. The shape to reproduce: per-frame cost
//! falls monotonically from batch size 1 to 64, flattening once the
//! fixed cost is fully amortised.
//!
//! Emits `BENCH_batch.json`: one row per batch size, keyed by `batch`,
//! with `host_cores` recorded.

use garnet_core::middleware::GarnetConfig;
use garnet_core::DriverKind;

use crate::e03_pipeline::{host_cores, shard_workload, ShardPoint};
use crate::e20_runtime_mode::run_facade_point;
use crate::table::{f2, n, Table};

/// Consumers of every stream (the dispatch fan-out).
const GRAPH_SUBSCRIBERS: u32 = 8;

/// The batch sizes the sweep visits.
pub const BATCH_SIZES: [usize; 4] = [1, 8, 64, 256];

/// The `driver` string of `BENCH_batch.json`.
pub const BATCH_SWEEP_DRIVER: &str = "Garnet(Threaded,1x1)";

/// One batch-size sample: the sweep variable plus the wall-clock point.
#[derive(Clone, Copy, Debug)]
pub struct BatchPoint {
    /// Frames per `on_frames` call.
    pub batch: usize,
    /// The wall-clock sample at that batch size.
    pub point: ShardPoint,
}

/// Pushes `workload` through the facade on the threaded engine (1×1
/// shards, [`GRAPH_SUBSCRIBERS`] consumers of every stream) in
/// `on_frames` calls of `batch` frames.
pub fn run_batch_point(workload: &[garnet_wire::FrameBytes], batch: usize) -> ShardPoint {
    let config = GarnetConfig { driver: DriverKind::Threaded, ..GarnetConfig::default() };
    run_facade_point(workload, config, GRAPH_SUBSCRIBERS, batch, |_| {}).0
}

/// Runs [`run_batch_point`] at each batch size over `frames` frames
/// round-robined across `sensors` sensors.
pub fn batch_sweep(frames: u32, sensors: u32, batches: &[usize]) -> Vec<BatchPoint> {
    let workload = shard_workload(frames, sensors);
    batches
        .iter()
        .map(|&batch| BatchPoint { batch, point: run_batch_point(&workload, batch) })
        .collect()
}

/// Renders a batch sweep as the `BENCH_batch.json` document: bench id,
/// driver, host core count, and one row per batch size with its
/// speedup over the first (batch 1) point.
pub fn batch_sweep_json(bench: &str, points: &[BatchPoint]) -> String {
    let base = points.first().map_or(1.0, |p| p.point.throughput_fps);
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"batch\": {}, \"frames\": {}, \"elapsed_us\": {}, \
                 \"throughput_fps\": {:.1}, \"speedup_vs_1\": {:.3}}}",
                p.batch,
                p.point.frames,
                p.point.elapsed_us,
                p.point.throughput_fps,
                p.point.throughput_fps / base
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"driver\": \"{BATCH_SWEEP_DRIVER}\",\n  \
         \"host_cores\": {},\n  \"points\": [\n{}\n  ]\n}}\n",
        host_cores(),
        rows.join(",\n")
    )
}

/// Runs the sweep for the experiments binary.
pub fn run() -> (Vec<BatchPoint>, Table) {
    let mut table = Table::new(
        "E21 — admission batch-size sweep: single-shard facade throughput vs frames per call",
        &["batch", "frames", "elapsed µs", "frames/s", "speedup vs batch 1"],
    );
    let points = batch_sweep(20_000, 64, &BATCH_SIZES);
    let base = points[0].point.throughput_fps;
    for p in &points {
        table.row(&[
            n(p.batch as u64),
            n(p.point.frames),
            n(p.point.elapsed_us),
            f2(p.point.throughput_fps),
            f2(p.point.throughput_fps / base),
        ]);
    }
    (points, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_sweep_is_lossless_and_serialisable() {
        let points = batch_sweep(1_000, 16, &[1, 64]);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.point.frames, 1_000, "batch {} lost frames", p.batch);
            assert_eq!(p.point.shards, 1, "the topology is one shard per stage");
        }
        let json = batch_sweep_json("e21_batch", &points);
        assert!(json.contains("\"bench\": \"e21_batch\""));
        assert!(json.contains("\"driver\": \"Garnet(Threaded,1x1)\""));
        assert!(json.contains("\"host_cores\""));
        assert!(json.contains("{\"batch\": 1,"));
        assert!(json.contains("{\"batch\": 64,"));
        assert!(!json.contains("\"shards\""), "batch sizes are not shard counts");
    }
}
