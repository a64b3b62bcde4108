//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, then (last) one JSON result line. Run it
//! from the repository root: it writes only under `.perfbench_work/`.

use std::process::ExitCode;

use perfbench::node::WorkDir;
use perfbench::pass::Fault;
use perfbench::report::{result_line, Provenance, END_TO_END, PER_LAYER};
use perfbench::spec::{Scale, Spec, Workload};
use perfbench::{run, RunConfig};

const USAGE: &str =
    "usage: perfbench --workload <fanin_dup|fanout_fifo|fanout_threaded|durable_control> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return Err("--workload, --seed, --seconds and --trace are all required".to_owned());
    };
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_owned());
    }
    Ok(RunConfig { workload, scale: Scale::Full, seed, seconds, trace, fault: Fault::None })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir::new(".perfbench_work").sub(cfg.workload.name());
    let result = match run(cfg, &work) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &result.notes {
        eprintln!("check failed: {note}");
    }
    let spec = Spec::new(cfg.workload, cfg.scale);
    let prov = Provenance { spec: &spec, seed: cfg.seed, seconds: cfg.seconds, trace: cfg.trace };
    println!("{}", prov.line(&result.fields));
    let catalogue = if cfg.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        result_line(result.correct, result.attempted, result.failed, catalogue, &result.metrics)
    );
    ExitCode::SUCCESS
}
