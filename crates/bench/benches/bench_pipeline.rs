//! E3: the full Fig. 1 pipeline at one operating point, plus the ingest
//! shard sweep through the facade on the threaded engine (writes
//! `BENCH_pipeline_shards.json` next to the bench's working directory).
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use garnet_bench::e03_pipeline::{
    expected_min_speedup, host_cores, run_point, run_shard_point, shard_workload, sweep_json,
    SHARD_SWEEP_DRIVER,
};
use garnet_simkit::{SimDuration, SimTime};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e03_pipeline");
    group.sample_size(10);
    group.bench_function("habitat_6x6_60s", |b| {
        b.iter(|| {
            let p = run_point(6, SimDuration::from_secs(5), SimTime::from_secs(60));
            assert!(p.delivered > 0);
            std::hint::black_box(p)
        });
    });
    group.finish();

    let frames = 50_000u32;
    let workload = shard_workload(frames, 64);
    let mut group = c.benchmark_group("e03_pipeline_shards");
    group.sample_size(10);
    group.throughput(Throughput::Elements(u64::from(frames)));
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, &s| {
            b.iter(|| std::hint::black_box(run_shard_point(&workload, s)));
        });
    }
    group.finish();

    let cores = host_cores();
    let points: Vec<_> = [1usize, 2, 4, 8].iter().map(|&s| run_shard_point(&workload, s)).collect();
    // Record the sweep before gating it, so a failing gate still
    // leaves its measurements behind.
    let json = sweep_json("e03_pipeline_shards", SHARD_SWEEP_DRIVER, cores, &points);
    if let Err(e) = std::fs::write("BENCH_pipeline_shards.json", &json) {
        eprintln!("could not write BENCH_pipeline_shards.json: {e}");
    }
    println!("{json}");
    let base = points[0].throughput_fps;
    for p in &points {
        // Only claim a speedup where the host can actually deliver one;
        // a single-core runner records the sweep without the gate.
        if let Some(min) = expected_min_speedup(p.shards, cores) {
            let speedup = p.throughput_fps / base;
            assert!(
                speedup >= min,
                "{} shards on {} cores: speedup {:.3} below expected {:.2}",
                p.shards,
                cores,
                speedup,
                min
            );
        }
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
