//! The repository benchmark.
//!
//! One command runs one workload (`write-hot`, `lookup-cold` or `churn`) as a
//! closed loop: two client threads, one per compute server, each keeping 8
//! operations in flight through `TreeClient::run_pipelined`.  It times every
//! operation from outside, checks every result, and prints its metrics by
//! name and unit, ending with one JSON line.  Untraced runs report the
//! end-to-end metrics; traced runs report the per-layer metrics and write
//! their spans to a JSON file.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload write-hot --seed 1 --seconds 10 --trace 0
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod clock;
pub mod driver;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod trace;
pub mod workload;

use check::{CheckReport, Model};
use clock::HostMark;
use driver::{Lane, Stop};
use json::Object;
use metrics::{
    band_mean_us, median, percentile, Counters, Measured, MetricDef, Segment, END_TO_END, MID,
    PER_LAYER, TAIL,
};
use sherman::Cluster;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use trace::Tracer;
use workload::{Scale, Workload, DEPTH, THREADS};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// One benchmark run's parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload.
    pub workload: Workload,
    /// Data-set size.
    pub scale: Scale,
    /// Seed of every operation stream.
    pub seed: u64,
    /// How long the measured phase runs.
    pub stop: Stop,
    /// Whether this is a traced run (per-layer metrics and spans).
    pub trace: bool,
    /// Client threads (one per compute server).
    pub threads: usize,
    /// Operations in flight per thread.
    pub depth: usize,
    /// Set-up repetitions.
    pub setup_reps: usize,
    /// Where a traced run writes its spans.
    pub spans_path: PathBuf,
}

impl RunConfig {
    /// The benchmark's configuration for `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Self {
        RunConfig {
            workload,
            scale: Scale::Full,
            seed,
            stop: Stop::After(Duration::from_secs(seconds)),
            trace,
            threads: THREADS,
            depth: DEPTH,
            setup_reps: SETUP_REPS,
            spans_path: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}.json", workload.name())),
        }
    }
}

/// What a run produced.
pub struct RunOutcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations admitted (set-up fill included).
    pub attempted: u64,
    /// Operations in flight when a `run_pipelined` call aborted.
    pub failed: u64,
    /// The reported metrics, in registry order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// The checks' findings.
    pub check: CheckReport,
    /// Every lane, records included (for the self-tests).
    pub lanes: Vec<Lane>,
}

impl RunOutcome {
    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|(_, v)| *v)
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self) -> String {
        let mut metrics = Object::new();
        for (def, value) in &self.metrics {
            metrics = metrics.raw(
                def.name,
                Object::new()
                    .num("value", *value)
                    .str("unit", def.unit)
                    .finish(),
            );
        }
        Object::new()
            .bool("correct", self.correct)
            .int("attempted", self.attempted)
            .int("failed", self.failed)
            .raw("metrics", metrics.finish())
            .finish()
    }
}

fn measure(
    cluster: &Arc<Cluster>,
    lanes: &mut [Lane],
    cfg: &RunConfig,
    stop: Stop,
    tracer: &mut Tracer,
) -> Measured {
    let before = Counters::read(cluster);
    let mark = HostMark::now();
    let span = tracer.open("measure", None, cluster.fabric().now());
    let run = driver::run_segment(cluster, lanes, cfg.depth, stop, tracer, span);
    tracer.close(span, cluster.fabric().now());
    let (wall_ns, cpu_ns) = mark.elapsed();
    Measured {
        run,
        before,
        after: Counters::read(cluster),
        wall_ns,
        cpu_ns,
    }
}

fn halve(stop: Stop) -> Stop {
    match stop {
        Stop::After(d) => Stop::After(d / 2),
        Stop::Ops(n) => Stop::Ops(n.div_ceil(2)),
    }
}

/// Run the benchmark once.
pub fn run(cfg: &RunConfig) -> RunOutcome {
    let mut notes = Vec::new();
    let mut tracer = Tracer::new(cfg.trace, 0);
    let prepared = driver::prepare(
        cfg.workload,
        cfg.scale,
        cfg.seed,
        (cfg.threads, cfg.depth),
        cfg.setup_reps,
        &mut tracer,
    );
    let cluster = prepared.cluster;
    let mut lanes = prepared.lanes;
    let setup_cpu: Vec<f64> = prepared.setup.iter().map(|s| s.cpu_s).collect();
    let setup_wall: Vec<f64> = prepared.setup.iter().map(|s| s.wall_s).collect();
    notes.push(format!(
        "setup: {} repetitions, cpu s {:?}, wall s {:?}",
        setup_cpu.len(),
        setup_cpu,
        setup_wall
    ));

    // An untraced run measures once.  A traced run first measures half its
    // time untraced, then half traced, so the tracing overhead compares
    // like with like on one deployment.
    let plain_stop = if cfg.trace { halve(cfg.stop) } else { cfg.stop };
    let mut off = Tracer::new(false, 0);
    let plain = measure(&cluster, &mut lanes, cfg, plain_stop, &mut off);
    let traced = cfg
        .trace
        .then(|| measure(&cluster, &mut lanes, cfg, halve(cfg.stop), &mut tracer));

    // Quiesce: every compute server drains its coherence inbox, one client
    // at a time so each advances the virtual clock alone.
    let span = tracer.open("quiesce", None, cluster.fabric().now());
    for cs in 0..cluster.fabric().compute_servers() as u16 {
        cluster.client(cs).quiesce_coherence();
    }
    tracer.close(span, cluster.fabric().now());

    let span = tracer.open("verify", None, cluster.fabric().now());
    let mut check = CheckReport::default();
    let model = Model::new(cfg.workload, cfg.scale, cfg.seed, &lanes);
    model.check_results(&mut check);
    let pending = cluster.coherence_stats().pending();
    if pending != 0 {
        check.fail(format!(
            "{pending} coherence messages still pending after quiesce"
        ));
    }
    let stale_before = cluster.coherence_stats().stale_hits;
    model.check_final(&cluster, &mut check);
    let stale_after = cluster.coherence_stats().stale_hits - stale_before;
    if stale_after != 0 {
        check.fail(format!(
            "{stale_after} stale cache hits after the coherence drain"
        ));
    }
    let census = match cluster.node_census() {
        Ok(c) => c.total(),
        Err(e) => {
            check.fail(format!("node census failed: {e}"));
            0
        }
    };
    let outstanding = cluster.nodes_outstanding();
    if census != outstanding {
        check.fail(format!(
            "node census {census} != nodes outstanding {outstanding}"
        ));
    }
    tracer.close(span, cluster.fabric().now());

    let attempted: u64 = lanes.iter().map(|l| l.records.len() as u64).sum();
    let failed: u64 = lanes.iter().map(|l| l.failed).sum();
    notes.push(format!(
        "errors: {failed} of {attempted} operations failed (error rate {:.6})",
        failed as f64 / attempted.max(1) as f64
    ));
    for lane in &lanes {
        for e in lane.errors.iter().take(5) {
            notes.push(format!("thread {} aborted a call: {e}", lane.thread));
        }
    }
    notes.push(format!(
        "checks: {} results, {} keys read back ({} left open by overlapping writes), {} failures",
        check.results_checked, check.keys_read_back, check.open_keys, check.failures
    ));
    for e in &check.examples {
        notes.push(format!("check failed: {e}"));
    }

    let plain = Segment {
        lanes: &lanes,
        m: plain,
    };
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    if let Some(m) = traced {
        let traced = Segment { lanes: &lanes, m };
        values.extend(traced.layer_metrics());
        values.extend(plain.host_metrics());
        let (untraced_cpu, traced_cpu) = (plain.cpu_us_per_op(), traced.cpu_us_per_op());
        values.push(("host.cpu_us_per_op", untraced_cpu));
        values.push(("host.traced_cpu_us_per_op", traced_cpu));
        values.push(("host.tracing_overhead", traced_cpu / untraced_cpu - 1.0));
        values.push(("trace.spans", tracer.spans().len() as f64));
        let meta = Object::new()
            .str("workload", cfg.workload.name())
            .int("seed", cfg.seed)
            .num("untraced_cpu_us_per_op", untraced_cpu)
            .num("traced_cpu_us_per_op", traced_cpu);
        match tracer.write_json(&cfg.spans_path, meta) {
            Ok(()) => notes.push(format!(
                "spans: {} written to {}; tracing overhead {:+.1}% CPU per op ({:.2} -> {:.2} us)",
                tracer.spans().len(),
                cfg.spans_path.display(),
                (traced_cpu / untraced_cpu - 1.0) * 100.0,
                untraced_cpu,
                traced_cpu
            )),
            Err(e) => check.fail(format!(
                "writing spans to {}: {e}",
                cfg.spans_path.display()
            )),
        }
    } else {
        let (lookups, writes) = plain.latencies();
        for (class, v) in [("lookup", &lookups), ("write", &writes)] {
            let thin = if v.len() < 1_000 {
                "; fewer than 1000 samples, so the tail is not resolved"
            } else {
                ""
            };
            notes.push(format!(
                "{class}s: {} samples, p50 {:.3} us, p99 {:.3} us, p99.9 {:.3} us (admission -> completion){thin}",
                v.len(),
                percentile(v, 0.5) as f64 / 1e3,
                percentile(v, 0.99) as f64 / 1e3,
                percentile(v, 0.999) as f64 / 1e3,
            ));
        }
        notes.push(format!(
            "host: {:.3} us CPU per op (median of one-second windows; reported as host.cpu_us_per_op by traced runs)",
            plain.cpu_us_per_op()
        ));
        let carved = cluster.pool().nodes_carved() as f64;
        let band = |v: &[u64], (lo, hi): (f64, f64)| band_mean_us(v, lo, hi);
        values.extend([
            ("throughput_mops", plain.throughput_mops()),
            ("lookup_mid_us", band(&lookups, MID)),
            ("lookup_tail_us", band(&lookups, TAIL)),
            ("write_mid_us", band(&writes, MID)),
            ("write_tail_us", band(&writes, TAIL)),
            (
                "success_ratio",
                1.0 - failed as f64 / attempted.max(1) as f64,
            ),
            ("space_amp", carved / census.max(1) as f64),
            ("setup_s", median(&setup_cpu)),
        ]);
    }
    let registry = if cfg.trace { PER_LAYER } else { END_TO_END };
    let metrics = registry
        .iter()
        .map(|def| {
            let value = values
                .iter()
                .find(|(n, _)| *n == def.name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("metric {} was not computed", def.name));
            (*def, if value.is_finite() { value } else { 0.0 })
        })
        .collect();
    RunOutcome {
        correct: check.passed(),
        attempted,
        failed,
        metrics,
        notes,
        check,
        lanes,
    }
}
