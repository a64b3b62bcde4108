//! Metric names and units, the result line, and the provenance line.

use std::fmt::Write as _;
use std::path::Path;

use crate::spec::Spec;

/// A metric as `BENCHMARK.json` declares it.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// The end-to-end metrics (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    def("throughput_fps", "frames/s", "higher"),
    def("latency_p50_us", "us", "lower"),
    def("latency_p99_us", "us", "lower"),
    def("actuation_p50_us", "us", "lower"),
    def("actuation_p99_us", "us", "lower"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// The per-layer metrics (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    def("wire.decode_ns", "ns", "lower"),
    def("wire.bytes_per_frame", "B", "lower"),
    def("filtering.ns_per_frame", "ns", "lower"),
    def("filtering.useful_ratio", "ratio", "higher"),
    def("filtering.reordered", "count", "lower"),
    def("filtering.duplicates", "count", "lower"),
    def("location.observe_ns", "ns", "lower"),
    def("orphanage.take_in_ns", "ns", "lower"),
    def("orphanage.resident_streams", "count", "lower"),
    def("dispatching.route_ns", "ns", "lower"),
    def("dispatching.rebuild_ns", "ns", "lower"),
    def("dispatching.cache_hit_ratio", "ratio", "higher"),
    def("dispatching.fanout_mean", "count", "higher"),
    def("dispatching.churn_op_ns", "ns", "lower"),
    def("dispatch.match_cache.hits", "count", "higher"),
    def("dispatch.match_cache.misses", "count", "lower"),
    def("dispatch.match_cache.invalidations", "count", "lower"),
    def("delivery.per_frame", "count", "higher"),
    def("delivery.callback_ns", "ns", "lower"),
    def("qos.offer_ns", "ns", "lower"),
    def("qos.release_ns", "ns", "lower"),
    def("qos.coalesced_ratio", "ratio", "lower"),
    def("qos.backlog_peak", "count", "lower"),
    def("qos.data.offered", "count", "higher"),
    def("qos.data.shed", "count", "lower"),
    def("qos.data.coalesced", "count", "lower"),
    def("qos.data.delivered", "count", "higher"),
    def("store.append_ns", "ns", "lower"),
    def("store.bytes_per_frame", "B", "lower"),
    def("store.recover_ms", "ms", "lower"),
    def("store.dropped", "count", "lower"),
    def("archive.archived", "count", "higher"),
    def("archive.dropped", "count", "lower"),
    def("resource.request_ns", "ns", "lower"),
    def("actuation.submit_ns", "ns", "lower"),
    def("replicator.plan_ns", "ns", "lower"),
    def("actuation.granted_ratio", "ratio", "higher"),
    def("telemetry.snapshot_ns", "ns", "lower"),
    def("telemetry.sink_bytes", "B/snapshot", "lower"),
    def("engine.ns_per_frame", "ns", "lower"),
    def("engine.residual_ns_per_frame", "ns", "lower"),
    def("engine.edge_submits", "count", "lower"),
    def("loadgen.prepare_s", "s", "lower"),
    def("trace.overhead_pct", "%", "lower"),
];

/// Formats a JSON number; non-finite values become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Escapes a JSON string body.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The result line: `catalogue` metrics in order, each looked up in
/// `values` (a missing one is reported as 0 and counted as a failure by
/// the caller's completeness check).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[MetricDef],
    values: &[(&str, f64)],
) -> String {
    let mut metrics = String::new();
    for (i, m) in catalogue.iter().enumerate() {
        let v = values.iter().find(|(n, _)| *n == m.name).map_or(0.0, |(_, v)| *v);
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(v),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

/// Names in `catalogue` missing from `values`.
pub fn missing<'a>(catalogue: &'a [MetricDef], values: &[(&str, f64)]) -> Vec<&'a str> {
    catalogue.iter().filter(|m| !values.iter().any(|(n, _)| *n == m.name)).map(|m| m.name).collect()
}

/// The process's peak resident set (`VmHWM`), in MB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The git revision of the checkout, read from `.git` without running
/// git; `"unknown"` outside a repository.
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(refname)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(refname))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// FNV-1a over the path and bytes of every `.rs`/`.toml` file under
/// `dir` (sorted walk): identifies the measured source when the
/// checkout is not a git repository.
pub fn source_digest(dir: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    if files.is_empty() {
        return "unknown".to_owned();
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Facts recorded with every result.
pub struct Provenance<'a> {
    /// The workload's spec.
    pub spec: &'a Spec,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per pass.
    pub seconds: f64,
    /// Traced run or not.
    pub trace: bool,
}

impl Provenance<'_> {
    /// The provenance line (one JSON object), with extra `fields`
    /// already formatted as JSON values.
    pub fn line(&self, fields: &[(&str, String)]) -> String {
        let root = Path::new(".");
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let engine = match self.spec.driver {
            garnet_core::DriverKind::Fifo => "fifo",
            garnet_core::DriverKind::Threaded => "threaded",
        };
        let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
        let mut s = format!(
            "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"git_revision\": \"{}\", \"source_digest\": \"{}\", \"nproc\": {nproc}, \
             \"engine\": \"{engine}\", \"shards\": \"1x1\", \"build_profile\": \"{profile}\"",
            self.spec.workload.name(),
            self.seed,
            json_num(self.seconds),
            u8::from(self.trace),
            escape(&git_revision(root)),
            source_digest(&root.join("crates")),
        );
        for (k, v) in fields {
            let _ = write!(s, ", \"{k}\": {v}");
        }
        s.push_str("}}");
        s
    }
}

/// Formats `values` as a JSON array of numbers.
pub fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| json_num(v)).collect();
    format!("[{}]", items.join(", "))
}
