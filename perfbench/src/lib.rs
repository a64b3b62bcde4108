//! Wall-clock benchmark of the Garnet facade (`garnet_core::Garnet`):
//! four workloads, end-to-end metrics from an untraced pass and
//! per-layer metrics from a traced pass, every run checked against a
//! reference built from the generated inputs. See `README.md`.

pub mod gen;
pub mod hist;
pub mod node;
pub mod pass;
pub mod reference;
pub mod report;
pub mod spec;
pub mod traced;

use crate::hist::median;
use crate::node::WorkDir;
use crate::pass::{run_pass, Fault, Options, Outcome};
use crate::report::{peak_rss_mb, END_TO_END, PER_LAYER};
use crate::spec::{Scale, Spec, Workload};

/// One benchmark run's result.
#[derive(Debug)]
pub struct RunResult {
    /// Every check passed.
    pub correct: bool,
    /// Checked operations.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra provenance fields (formatted JSON values).
    pub fields: Vec<(&'static str, String)>,
    /// One line per failed check.
    pub notes: Vec<String>,
}

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Workload.
    pub workload: Workload,
    /// Sizes.
    pub scale: Scale,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per pass.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Injected fault.
    pub fault: Fault,
}

/// The best of `values` under `pick` (`f64::max` or `f64::min`): the
/// window least slowed by other work on the host. 0 when empty.
fn best(values: &[f64], pick: fn(f64, f64) -> f64) -> f64 {
    values.iter().copied().reduce(pick).unwrap_or(0.0)
}

fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64)> {
    vec![
        ("throughput_fps", best(&o.window_fps, f64::max)),
        ("latency_p50_us", best(&o.window_p50_us, f64::min)),
        ("latency_p99_us", best(&o.window_p99_us, f64::min)),
        ("actuation_p50_us", best(&o.block_act_p50_us, f64::min)),
        ("actuation_p99_us", best(&o.block_act_p99_us, f64::min)),
        ("setup_s", median(&o.setup_s)),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

/// Runs one workload: the untraced pass, and with `trace` also the
/// traced pass, whose per-layer metrics are then the result.
///
/// # Errors
///
/// The working directory cannot be prepared.
pub fn run(cfg: RunConfig, work: &WorkDir) -> Result<RunResult, String> {
    let spec = Spec::new(cfg.workload, cfg.scale);
    std::fs::create_dir_all(work.root()).map_err(|e| format!("work dir: {e}"))?;
    // A traced run splits its time between the untraced pass (for the
    // overhead) and the traced pass.
    let seconds = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let opts = Options { seed: cfg.seed, seconds, fault: cfg.fault };
    let prep = std::time::Instant::now();
    let written =
        if spec.archive_records > 0 { pass::prewrite_archive(&spec, cfg.seed, work)? } else { 0 };
    let prewrite_s = prep.elapsed().as_secs_f64();
    let plain = run_pass(&spec, opts, work, false, written)?;
    let mut fields = vec![
        ("latency_samples", plain.latency_samples.to_string()),
        ("actuation_samples", plain.actuation_samples.to_string()),
        ("setup_reps", plain.setup_s.len().to_string()),
        ("windows", plain.window_fps.len().to_string()),
        ("frames", plain.frames.to_string()),
        ("busy_s", report::json_num(plain.busy_s)),
        ("window_fps", report::json_list(&plain.window_fps)),
        ("window_p50_us", report::json_list(&plain.window_p50_us)),
        ("window_p99_us", report::json_list(&plain.window_p99_us)),
        ("block_actuation_p50_us", report::json_list(&plain.block_act_p50_us)),
        ("block_actuation_p99_us", report::json_list(&plain.block_act_p99_us)),
        ("setup_s_samples", report::json_list(&plain.setup_s)),
    ];
    let (mut attempted, mut failed, mut notes) =
        (plain.attempted, plain.failed, plain.notes.clone());
    let metrics = if cfg.trace {
        let traced = run_pass(&spec, opts, work, true, written)?;
        attempted += traced.attempted;
        failed += traced.failed;
        notes.extend(traced.notes.iter().cloned());
        let traced_fps = best(&traced.window_traced_fps, f64::max);
        let overhead = (best(&plain.window_fps, f64::max) / traced_fps - 1.0) * 100.0;
        fields.push(("traced_frames", traced.frames.to_string()));
        let mut m = traced.layers.clone();
        m.push(("loadgen.prepare_s", traced.prepare_s + prewrite_s));
        m.push(("trace.overhead_pct", overhead));
        m
    } else {
        end_to_end(&plain)
    };
    let _ = std::fs::remove_dir_all(work.golden());
    let catalogue = if cfg.trace { PER_LAYER } else { END_TO_END };
    for name in report::missing(catalogue, &metrics) {
        failed += 1;
        notes.push(format!("metric {name} was not measured"));
    }
    let failed_ratio = traced::ratio(failed as f64, attempted as f64);
    fields.push(("failed_ratio", report::json_num(failed_ratio)));
    Ok(RunResult {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        fields,
        notes,
    })
}
