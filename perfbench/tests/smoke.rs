//! Smoke tests at tiny size: every declared metric is emitted with its
//! unit, every run passes its reference, and each correctness check
//! trips on an injected fault.

use perfbench::node::WorkDir;
use perfbench::pass::Fault;
use perfbench::report::{result_line, MetricDef, END_TO_END, PER_LAYER};
use perfbench::spec::{Scale, Workload};
use perfbench::{run, RunConfig, RunResult};

fn run_tiny(workload: Workload, trace: bool, fault: Fault, dir: &str) -> RunResult {
    let work = WorkDir::new(env!("CARGO_TARGET_TMPDIR")).sub(dir);
    let cfg = RunConfig { workload, scale: Scale::Tiny, seed: 7, seconds: 0.2, trace, fault };
    run(cfg, &work).expect("the work directory is writable")
}

fn benchmark_json() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root")
}

fn assert_emitted(r: &RunResult, catalogue: &[MetricDef], what: &str) {
    let names: Vec<&str> = r.metrics.iter().map(|(n, _)| *n).collect();
    for m in catalogue {
        assert!(names.contains(&m.name), "{what}: {} not emitted", m.name);
    }
    assert_eq!(names.len(), catalogue.len(), "{what}: unexpected extra metrics {names:?}");
    for (n, v) in &r.metrics {
        assert!(
            v.is_finite() && *v >= 0.0
                || *n == "engine.residual_ns_per_frame"
                || *n == "trace.overhead_pct",
            "{what}: {n} = {v}"
        );
    }
    let line = result_line(r.correct, r.attempted, r.failed, catalogue, &r.metrics);
    for m in catalogue {
        let needle = format!("\"{}\": {{\"value\": ", m.name);
        let at =
            line.find(&needle).unwrap_or_else(|| panic!("{what}: {} missing in {line}", m.name));
        let entry = &line[at..];
        let entry = &entry[..=entry.find('}').expect("every metric object closes")];
        let unit = format!("\"unit\": \"{}\"}}", m.unit);
        assert!(entry.ends_with(&unit), "{what}: {entry} should end with {unit}");
    }
}

#[test]
fn benchmark_json_declares_the_catalogue() {
    let json = benchmark_json();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\",\n      \"unit\": \"{}\",\n      \"better\": \"{}\"",
            m.name, m.unit, m.better
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())), "{} not declared", w.name());
    }
    assert_eq!(json.matches("\"better\"").count(), END_TO_END.len() + PER_LAYER.len());
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_reference() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let what = format!("{} trace={trace}", w.name());
            let r = run_tiny(w, trace, Fault::None, &format!("all-{}-{trace}", w.name()));
            assert!(r.correct && r.failed == 0, "{what}: {:?}", r.notes);
            assert!(r.attempted > 0, "{what}");
            assert_emitted(&r, if trace { PER_LAYER } else { END_TO_END }, &what);
        }
    }
}

#[test]
fn each_check_trips_on_an_injected_fault() {
    let cases = [
        (Fault::DropDelivery, Workload::FaninDup),
        (Fault::DropDelivery, Workload::FanoutFifo),
        (Fault::ArchiveDropped, Workload::DurableControl),
        (Fault::QosLedger, Workload::DurableControl),
        (Fault::RecoveryCount, Workload::DurableControl),
        (Fault::ActuationUnresolved, Workload::FanoutThreaded),
    ];
    for (fault, w) in cases {
        let r = run_tiny(w, false, fault, &format!("fault-{fault:?}-{}", w.name()));
        assert!(!r.correct && r.failed > 0, "{fault:?} on {} went unnoticed", w.name());
    }
}
