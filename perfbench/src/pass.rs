//! One pass over a workload: prepare, set up (several times), warm up,
//! measure in windows, drain, and check the outputs against the
//! reference. The untraced pass gives the end-to-end metrics; the traced
//! pass adds the replica layers of [`crate::traced`].

use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use garnet_core::middleware::ActuationOutcome;
use garnet_core::qos::PriorityClass;
use garnet_net::TopicFilter;
use garnet_simkit::SimTime;
use garnet_store::{ArchiveRecord, FileStore, FrameArchive, SegmentStore};
use garnet_wire::{AckStatus, ActuationTarget, SensorCommand};

use crate::gen::{actuation_op, plan_subscriptions, stream_of, FrameGen, Inputs, Op, Rng, Step};
use crate::hist::{exact_quantile, median};
use crate::node::{config, slow_index, Node, WorkDir};
use crate::reference::Probe;
use crate::spec::Spec;
use crate::traced::{Layer, Replicas};

/// A fault injected into the checks, to show that each one trips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// No fault.
    None,
    /// The reference of consumer 0 ignores its tenth delivery.
    DropDelivery,
    /// One archive record is counted as dropped.
    ArchiveDropped,
    /// One data frame too many is counted as offered to the QoS ledger.
    QosLedger,
    /// Recovery is expected to find one record more than was written.
    RecoveryCount,
    /// One actuation call is counted as unresolved.
    ActuationUnresolved,
}

/// What one pass measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Frames per second of each window.
    pub window_fps: Vec<f64>,
    /// Delivery latency p50 (µs) of each window.
    pub window_p50_us: Vec<f64>,
    /// Delivery latency p99 (µs) of each window.
    pub window_p99_us: Vec<f64>,
    /// Latency samples over all windows.
    pub latency_samples: u64,
    /// Actuation latency p50 (µs) of each probe block.
    pub block_act_p50_us: Vec<f64>,
    /// Actuation latency p99 (µs) of each probe block.
    pub block_act_p99_us: Vec<f64>,
    /// Probe requests timed over all blocks.
    pub actuation_samples: u64,
    /// Actuation requests made, and how many were granted.
    pub requests: u64,
    /// Granted requests.
    pub granted: u64,
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Input generation time.
    pub prepare_s: f64,
    /// Frames offered in the measured windows and their busy time.
    pub frames: u64,
    /// Busy time of the measured windows.
    pub busy_s: f64,
    /// Checked operations.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
    /// Per-layer metrics (traced pass only).
    pub layers: Vec<(&'static str, f64)>,
    /// Frames per second of facade time in each measured window
    /// (traced pass only).
    pub window_traced_fps: Vec<f64>,
}

impl Outcome {
    fn fail(&mut self, count: u64, note: String) {
        if count > 0 {
            self.failed += count;
            self.notes.push(note);
        }
    }
}

/// Run-wide settings of a pass.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Injected fault.
    pub fault: Fault,
}

/// Writes `spec.archive_records` frame records into the golden archive
/// directory, one store append per full segment. Returns the records
/// written.
///
/// # Errors
///
/// The directory cannot be written.
pub fn prewrite_archive(spec: &Spec, seed: u64, work: &WorkDir) -> Result<u64, String> {
    let dir = work.golden();
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = FileStore::open(&dir).map_err(|e| format!("golden archive: {e}"))?;
    let segment_max = garnet_core::ArchiveConfig::default().segment_max_bytes as usize;
    let mut frames = FrameGen::new(spec, Rng::new(seed, 5));
    let mut buf = Vec::with_capacity(segment_max);
    let mut segment = 0;
    let mut written = 0;
    while written < spec.archive_records {
        let (burst, now) = frames.next_burst();
        for (r, rssi, f) in burst.into_iter().take((spec.archive_records - written) as usize) {
            let rec = ArchiveRecord::frame(r.as_u32(), rssi, f, now);
            if buf.len() + rec.encoded_len() > segment_max {
                store.append(segment, &buf).map_err(|e| format!("golden archive: {e}"))?;
                segment += 1;
                buf.clear();
            }
            rec.encode_into(&mut buf);
            written += 1;
        }
    }
    if !buf.is_empty() {
        store.append(segment, &buf).map_err(|e| format!("golden archive: {e}"))?;
    }
    // On disk before the run starts, so that writing it back does not
    // overlap the measured windows.
    store.sync().map_err(|e| format!("golden archive: {e}"))?;
    Ok(written)
}

/// Puts the golden log in `golden` into the directory `work`'s node
/// opens: the last segment, which the node appends to, is copied; the
/// others are hard-linked (copied where links are unsupported), so no
/// set-up rewrites the whole log.
fn copy_golden(golden: &Path, work: &WorkDir) -> Result<(), String> {
    let live = work.live();
    let _ = std::fs::remove_dir_all(&live);
    std::fs::create_dir_all(&live).map_err(|e| format!("live archive: {e}"))?;
    let mut segments: Vec<_> = std::fs::read_dir(golden)
        .map_err(|e| format!("golden archive: {e}"))?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("golden archive: {e}"))?;
    segments.sort();
    for (i, src) in segments.iter().enumerate() {
        let dst = live.join(src.file_name().expect("directory entries have names"));
        if i + 1 == segments.len() || std::fs::hard_link(src, &dst).is_err() {
            std::fs::copy(src, &dst).map_err(|e| format!("live archive: {e}"))?;
        }
    }
    Ok(())
}

/// Milliseconds `FrameArchive::open` takes on the golden log (median of
/// three opens), and the record count it recovered.
fn time_recovery(work: &WorkDir) -> Result<(f64, u64), String> {
    let mut ms = Vec::new();
    let mut records = 0;
    for _ in 0..3 {
        let store = FileStore::open(work.golden()).map_err(|e| format!("golden archive: {e}"))?;
        let t = Instant::now();
        let (_, report) = FrameArchive::open(Box::new(store), u64::MAX)
            .map_err(|e| format!("golden archive: {e}"))?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        records = report.records;
    }
    Ok((median(&ms), records))
}

/// Builds a node from `work`'s directories (the `golden` log copied in
/// first, untimed), times the build as one `setup_s` sample and checks
/// what the archive recovered.
fn build_timed(
    spec: &Spec,
    golden: &Path,
    work: &WorkDir,
    subs: &[Vec<u32>],
    probe: &Rc<Probe>,
    expected_records: u64,
    out: &mut Outcome,
) -> Result<Node, String> {
    if spec.archive_records > 0 {
        copy_golden(golden, work)?;
    }
    let cfg = config(spec, work);
    let t = Instant::now();
    let node = Node::build(spec, cfg, subs, probe);
    out.setup_s.push(t.elapsed().as_secs_f64());
    if let Some(report) = node.garnet.archive_recovery() {
        out.attempted += 1;
        let wrong = report.records != expected_records || report.truncation.is_some();
        let note = format!("recovered {} records, wrote {expected_records}", report.records);
        out.fail(u64::from(wrong), note);
    }
    Ok(node)
}

/// The state of a running pass.
struct Pass<'a> {
    spec: &'a Spec,
    node: Node,
    probe: Rc<Probe>,
    inputs: Inputs,
    replicas: Option<Replicas>,
    out: Outcome,
    prepare: Duration,
    work: &'a WorkDir,
    subs: Vec<Vec<u32>>,
    expected_records: u64,
    probe_rng: Rng,
    expired: u64,
    unresolved: u64,
    snapshots: u64,
}

impl Pass<'_> {
    fn generate(&mut self, bursts: usize) -> Vec<Step> {
        let t = Instant::now();
        let steps = self.inputs.segment(bursts);
        self.prepare += t.elapsed();
        steps
    }

    /// Runs `steps` back to back; returns frames offered and busy time.
    fn run(&mut self, steps: Vec<Step>, measuring: bool) -> (u64, Duration) {
        if let Some(r) = self.replicas.as_mut() {
            r.measuring = measuring;
        }
        let t = Instant::now();
        let mut frames = 0;
        for step in steps {
            frames += self.step(step, measuring);
        }
        (frames, t.elapsed())
    }

    fn step(&mut self, step: Step, measuring: bool) -> u64 {
        let root = Instant::now();
        let n = step.frames.len() as u64;
        if let Some(r) = self.replicas.as_mut() {
            r.frames(&step.frames, step.now);
        }
        let tracing = self.replicas.is_some() && measuring;
        let t = Instant::now();
        self.probe.entry.set(t);
        self.probe.recording.set(measuring);
        self.probe.tracing.set(tracing);
        self.node.garnet.on_frames(step.frames, step.now);
        self.probe.recording.set(false);
        self.probe.tracing.set(false);
        if let Some(r) = self.replicas.as_mut() {
            r.record(Layer::Facade, t, n);
        }
        for op in step.ops {
            self.op(op, step.now, measuring);
        }
        if let Some(r) = self.replicas.as_mut() {
            r.record(Layer::Root, root, 1);
        }
        n
    }

    fn op(&mut self, op: Op, now: SimTime, measuring: bool) {
        match op {
            Op::Churn { consumer, from, to, from_next, to_next } => {
                let t = Instant::now();
                let id = self.node.ids[consumer];
                self.node.garnet.unsubscribe(id, TopicFilter::Stream(stream_of(from)));
                let moved = self.node.garnet.subscribe_at(
                    id,
                    TopicFilter::Stream(stream_of(to)),
                    &self.node.token,
                    now,
                );
                if let Some(rep) = self.replicas.as_mut() {
                    rep.record(Layer::FacadeOps, t, 1);
                }
                if let Err(e) = moved {
                    self.out.fail(1, format!("subscribe failed: {e}"));
                }
                let mut r = self.node.refs[consumer].borrow_mut();
                r.deactivate(from as usize, from_next);
                r.activate(to as usize, to_next);
                drop(r);
                if let Some(rep) = self.replicas.as_mut() {
                    rep.churn(consumer, from, to);
                }
            }
            Op::Actuate { target, command, priority } => {
                self.actuate(target, command, priority, now, measuring);
            }
            Op::Tick => {
                let t = Instant::now();
                let out = self.node.garnet.on_tick(now);
                if let Some(rep) = self.replicas.as_mut() {
                    rep.record(Layer::FacadeOps, t, 1);
                }
                self.expired += out.expired_requests.len() as u64;
                let t = Instant::now();
                self.node.garnet.telemetry(now);
                self.snapshots += 1;
                if let Some(r) = self.replicas.as_mut() {
                    r.record(Layer::Telemetry, t, 1);
                }
            }
        }
    }

    /// One `request_actuation`, acked at once when granted; returns its
    /// wall-clock time. `in_window` calls are part of the measured
    /// burst loop (the traced pass counts them as facade time).
    fn actuate(
        &mut self,
        target: ActuationTarget,
        command: SensorCommand,
        priority: u8,
        now: SimTime,
        in_window: bool,
    ) -> Duration {
        let actor = self.node.ids[0];
        let t = Instant::now();
        let outcome =
            self.node.garnet.request_actuation(actor, &self.node.token, target, command, now);
        let dt = t.elapsed();
        self.out.requests += 1;
        match outcome {
            Ok(ActuationOutcome::Granted { request_id, .. }) => {
                self.out.granted += 1;
                self.node.garnet.on_standalone_ack(request_id, AckStatus::Applied, now);
            }
            Ok(ActuationOutcome::Denied { .. }) => {}
            Err(_) => self.unresolved += 1,
        }
        if let Some(r) = self.replicas.as_mut() {
            if in_window {
                r.record(Layer::FacadeOps, t, 1);
            }
            r.actuate(actor, target, command, priority, now);
        }
        dt
    }

    /// Warm-up, then measured windows of `spec.window_s` each, `seconds`
    /// in total, each followed by a block of actuation probes.
    fn measure(&mut self, seconds: f64) {
        let segment = self.spec.segment_bursts;
        let min_bursts = 2 * self.spec.round_bursts() as usize;
        let (mut warm_bursts, mut warm_busy) = (0usize, Duration::ZERO);
        let rate = loop {
            let steps = self.generate(segment);
            let (_, busy) = self.run(steps, false);
            warm_bursts += segment;
            warm_busy += busy;
            if warm_bursts >= min_bursts && warm_busy.as_secs_f64() >= seconds / 10.0 {
                break segment as f64 / busy.as_secs_f64().max(1e-9);
            }
        };
        let windows = ((seconds / self.spec.window_s).round() as usize).max(2);
        let per_window = ((rate * seconds / windows as f64) as usize).max(1);
        // Further set-ups are spread over the run, so that their median
        // is not taken from one noisy second.
        let first = self.out.setup_s[0].max(1e-9);
        let reps = ((self.spec.setup_budget_s / first).round() as usize)
            .clamp(self.spec.setup_reps, windows + 1);
        let stride = (windows / (reps - 1).max(1)).max(1);
        for window in 0..windows {
            let facade_before = self.replicas.as_ref().map(Replicas::facade_totals);
            let (mut frames, mut busy) = (0u64, Duration::ZERO);
            let mut left = per_window;
            while left > 0 {
                let n = left.min(segment);
                let steps = self.generate(n);
                let (f, b) = self.run(steps, true);
                frames += f;
                busy += b;
                left -= n;
            }
            let mut hist = self.probe.latency.borrow_mut();
            self.out.window_fps.push(frames as f64 / busy.as_secs_f64());
            self.out.window_p50_us.push(hist.quantile(0.5) / 1e3);
            self.out.window_p99_us.push(hist.quantile(0.99) / 1e3);
            self.out.latency_samples += hist.count();
            hist.clear();
            drop(hist);
            self.out.frames += frames;
            self.out.busy_s += busy.as_secs_f64();
            if let (Some(r), Some((f0, ns0))) = (&self.replicas, facade_before) {
                let (f1, ns1) = r.facade_totals();
                self.out.window_traced_fps.push((f1 - f0) as f64 * 1e9 / (ns1 - ns0).max(1) as f64);
            }
            self.probe_block();
            if self.out.setup_s.len() < reps && (window + 1) % stride == 0 {
                self.setup_rep();
            }
        }
        if let Some(step) = self.inputs.drain() {
            self.run(vec![step], false);
        }
    }

    /// One more timed set-up of a fresh node (built beside the measured
    /// one, from its own copy of the golden archive, then dropped).
    fn setup_rep(&mut self) {
        let work = self.work.sub("setup");
        let golden = self.work.golden();
        let built = build_timed(
            self.spec,
            &golden,
            &work,
            &self.subs,
            &self.probe,
            self.expected_records,
            &mut self.out,
        );
        match built {
            Ok(node) => drop(node),
            Err(e) => self.out.fail(1, e),
        }
        let _ = std::fs::remove_dir_all(work.root());
    }

    /// `spec.probe_requests` timed `request_actuation` calls on the
    /// quiescent node; records the block's p50 and p99.
    fn probe_block(&mut self) {
        let now = self.inputs.frames().now();
        let mut us = Vec::with_capacity(self.spec.probe_requests);
        for _ in 0..self.spec.probe_requests {
            if let Op::Actuate { target, command, priority } =
                actuation_op(&mut self.probe_rng, self.spec.sensors)
            {
                us.push(self.actuate(target, command, priority, now, false).as_secs_f64() * 1e6);
            }
        }
        self.out.actuation_samples += us.len() as u64;
        self.out.block_act_p50_us.push(exact_quantile(&mut us, 0.5));
        self.out.block_act_p99_us.push(exact_quantile(&mut us, 0.99));
    }

    /// Compares the node's outputs and ledgers with the reference.
    fn check(&mut self, fault: Fault) {
        let spec = self.spec;
        let frames = self.inputs.frames();
        let published = self.node.refs[0].borrow().published;
        let derived_slot = spec.sensors as usize + 1;
        let sent = |slot: usize| {
            if slot == derived_slot {
                published
            } else {
                frames.next_seq(slot as u32)
            }
        };
        let slow = slow_index(spec);
        for (i, r) in self.node.refs.iter().enumerate() {
            let mut r = r.borrow_mut();
            let expected = r.finish(sent);
            if slow != Some(i) {
                self.out.attempted += expected;
            }
            let failures = r.failures;
            drop(r);
            self.out
                .fail(failures, format!("consumer {i}: {failures} deliveries broke the reference"));
        }
        let garnet = &self.node.garnet;
        if let Some(i) = slow {
            let l = *garnet.delivery_ledger();
            let backlog = garnet.delivery_backlog();
            let expected: u64 =
                (1..=spec.sensors).filter(|s| s % 4 == 0).map(|s| frames.next_seq(s)).sum();
            let received = self.node.refs[i].borrow().deliveries;
            self.out.attempted += expected;
            let fails = [
                (l.offered.abs_diff(l.shed + l.delivered + backlog), "delivery ledger unbalanced"),
                (l.offered.abs_diff(expected), "delivery ledger offered != frames routed"),
                (received.abs_diff(l.delivered), "slow consumer got != ledger delivered"),
            ];
            for (n, what) in fails {
                self.out.fail(n, format!("{what}: {l:?}, backlog {backlog}"));
            }
        }
        if let Some(ledgers) = garnet.qos_ledgers() {
            for class in PriorityClass::ALL {
                let mut l = *ledgers.class(class);
                if fault == Fault::QosLedger && class == PriorityClass::Data {
                    l.offered += 1;
                }
                self.out.attempted += 1;
                self.out
                    .fail(u64::from(!l.balanced()), format!("qos {} ledger: {l:?}", class.name()));
            }
        }
        if let Some(mut l) = garnet.archive_ledger() {
            if fault == Fault::ArchiveDropped {
                l.dropped += 1;
            }
            self.out.attempted += l.offered;
            self.out.fail(l.dropped, format!("archive dropped records: {l:?}"));
            let unbalanced = l.offered != l.archived + l.dropped + l.pending;
            self.out.fail(u64::from(unbalanced), format!("archive ledger unbalanced: {l:?}"));
        }
        let act = garnet.actuation();
        let unresolved = self.unresolved
            + self.expired
            + act.timeout_count()
            + act.in_flight() as u64
            + u64::from(fault == Fault::ActuationUnresolved);
        self.out.attempted += self.out.requests;
        self.out.fail(unresolved, format!("{unresolved} actuation calls unresolved or expired"));
        if self.out.requests == 0 {
            self.out.fail(1, "no actuation request was made".to_owned());
        }
    }
}

/// Runs one pass of `spec`; `traced` adds the replica layers.
///
/// # Errors
///
/// The working directories cannot be prepared.
/// `written` is the record count [`prewrite_archive`] put in the
/// golden log (0 without an archive).
pub fn run_pass(
    spec: &Spec,
    opts: Options,
    work: &WorkDir,
    traced: bool,
    written: u64,
) -> Result<Outcome, String> {
    let prep = Instant::now();
    let subs = plan_subscriptions(spec, opts.seed);
    let mut out = Outcome::default();
    let expected_records = written + u64::from(opts.fault == Fault::RecoveryCount && written > 0);
    let _ = std::fs::remove_dir_all(work.telemetry());
    let recovery =
        if traced && spec.archive_records > 0 { Some(time_recovery(work)?) } else { None };
    if let Some((_, records)) = recovery {
        out.attempted += 1;
        out.fail(
            u64::from(records != expected_records),
            format!("golden log recovered {records} records"),
        );
    }
    let mut prepare = prep.elapsed();

    let probe = Rc::new(Probe::default());
    let node = build_timed(spec, &work.golden(), work, &subs, &probe, expected_records, &mut out)?;
    if opts.fault == Fault::DropDelivery {
        node.refs[0].borrow_mut().skip_delivery(10);
    }
    let replicas = if traced {
        let cfg = config(spec, work);
        Some(Replicas::new(spec, &cfg, &subs, node.derived, work)?)
    } else {
        None
    };
    let t = Instant::now();
    let inputs = Inputs::new(spec, opts.seed, subs.clone());
    prepare += t.elapsed();

    let mut pass = Pass {
        spec,
        node,
        probe,
        inputs,
        replicas,
        out,
        prepare,
        work,
        subs,
        expected_records,
        probe_rng: Rng::new(opts.seed, 4),
        expired: 0,
        unresolved: 0,
        snapshots: 0,
    };
    pass.measure(opts.seconds);
    if let Some(r) = pass.replicas.as_mut() {
        if !spec.ticks {
            // Workloads without periodic snapshots still price one.
            r.measuring = true;
            let now = pass.inputs.frames().now();
            for _ in 0..16 {
                let t = Instant::now();
                pass.node.garnet.telemetry(now);
                r.record(Layer::Telemetry, t, 1);
            }
        }
    }
    pass.check(opts.fault);
    pass.out.prepare_s = pass.prepare.as_secs_f64();
    if let Some(r) = pass.replicas.take() {
        let sink_bytes: u64 = std::fs::read_dir(work.telemetry())
            .map(|d| d.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
            .unwrap_or(0);
        let recover_ms = recovery.map_or(0.0, |(ms, _)| ms);
        pass.out.layers = layer_metrics(&pass, &r, recover_ms, sink_bytes);
        let errors = r.store_errors();
        pass.out.fail(errors, format!("{errors} replica archive appends failed"));
        let _ = r.write_spans(&work.root().join(format!("trace-{}.csv", spec.workload.name())));
    }
    let _ = std::fs::remove_dir_all(work.live());
    let _ = std::fs::remove_dir_all(work.replica());
    Ok(pass.out)
}

/// Every per-layer metric of a traced pass (the trace overhead and the
/// load generator's time are added by the caller).
fn layer_metrics(
    pass: &Pass<'_>,
    r: &Replicas,
    recover_ms: f64,
    sink_bytes: u64,
) -> Vec<(&'static str, f64)> {
    let garnet = &pass.node.garnet;
    let m = garnet.metrics();
    let count = |name: &str| m.counter_value(name) as f64;
    let mut out = r.layer_metrics(pass.probe.callback_ns.get(), pass.probe.callbacks.get());
    let dl = garnet.delivery_ledger();
    out.extend([
        ("filtering.reordered", count("filtering.reordered")),
        ("filtering.duplicates", count("filtering.duplicates")),
        ("orphanage.resident_streams", garnet.orphanage().stream_count() as f64),
        (
            "dispatching.cache_hit_ratio",
            crate::traced::ratio(
                count("dispatch.match_cache.hits"),
                count("dispatch.match_cache.hits")
                    + count("dispatch.match_cache.misses")
                    + count("dispatch.match_cache.invalidations"),
            ),
        ),
        ("dispatch.match_cache.hits", count("dispatch.match_cache.hits")),
        ("dispatch.match_cache.misses", count("dispatch.match_cache.misses")),
        ("dispatch.match_cache.invalidations", count("dispatch.match_cache.invalidations")),
        ("qos.coalesced_ratio", crate::traced::ratio(dl.coalesced as f64, dl.offered as f64)),
        ("qos.backlog_peak", count("qos.delivery.peak_backlog")),
        ("qos.data.offered", count("qos.data.offered")),
        ("qos.data.shed", count("qos.data.shed")),
        ("qos.data.coalesced", count("qos.data.coalesced")),
        ("qos.data.delivered", count("qos.data.delivered")),
        ("store.recover_ms", recover_ms),
        ("store.dropped", count("archive.dropped")),
        ("archive.archived", count("archive.archived")),
        ("archive.dropped", count("archive.dropped")),
        (
            "actuation.granted_ratio",
            crate::traced::ratio(pass.out.granted as f64, pass.out.requests as f64),
        ),
        ("telemetry.sink_bytes", crate::traced::ratio(sink_bytes as f64, pass.snapshots as f64)),
        ("engine.edge_submits", garnet.edge_class_submits().iter().sum::<u64>() as f64),
    ]);
    out
}
