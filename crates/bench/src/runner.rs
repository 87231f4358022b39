//! End-to-end tree experiments: bulkload, multi-threaded workload drive,
//! aggregation — plus the **pipelined** experiments that sweep the
//! split-phase scheduler's in-flight depth over read-only and mixed
//! read/write workloads.

use crate::driver::{deploy, drive_ops, fabric_config, spawn_clients, to_pipeline_op, DrivePath};
use sherman::{Cluster, PipelineOp, PipelinedResult, TreeConfig, TreeOptions};
use sherman_metrics::{
    CountHistogram, LatencyHistogram, OverlapGauges, RunSummary, SizeHistogram, ThreadReport,
    ThroughputAggregator,
};
use sherman_sim::metrics::MetricsSnapshot;
use sherman_sim::Fabric;
use sherman_workload::{KeyDistribution, Mix, WorkloadSpec};
use std::sync::Arc;

/// A fully-specified tree experiment.
#[derive(Debug, Clone)]
pub struct TreeExperiment {
    /// Human-readable label printed in result rows.
    pub name: String,
    /// Number of memory servers.
    pub memory_servers: usize,
    /// Number of compute servers.
    pub compute_servers: usize,
    /// Number of client threads (spread round-robin over compute servers).
    pub threads: usize,
    /// Key-space size.
    pub key_space: u64,
    /// Fraction of the key space bulkloaded before the measured phase.
    pub bulkload_fraction: f64,
    /// Operations issued by each client thread during the measured phase.
    pub ops_per_thread: usize,
    /// Operation mix.
    pub mix: Mix,
    /// Key popularity.
    pub distribution: KeyDistribution,
    /// Entries returned per range query.
    pub range_size: u64,
    /// How each client issues its operations.
    pub drive: DrivePath,
    /// Technique selection (the ablation axis).
    pub options: TreeOptions,
    /// Tree geometry.
    pub tree: TreeConfig,
    /// RNG seed.
    pub seed: u64,
}

impl TreeExperiment {
    /// A write-intensive, skewed experiment at the harness's default scale.
    pub fn default_scaled(name: impl Into<String>, options: TreeOptions) -> Self {
        TreeExperiment {
            name: name.into(),
            memory_servers: 4,
            compute_servers: 2,
            threads: 8,
            key_space: 1 << 18,
            bulkload_fraction: 0.8,
            ops_per_thread: 400,
            mix: Mix::WRITE_INTENSIVE,
            distribution: KeyDistribution::ScrambledZipfian { theta: 0.99 },
            range_size: 100,
            drive: DrivePath::Blocking,
            options,
            tree: TreeConfig::default(),
            seed: 0x5EED,
        }
    }

    /// Shrink the experiment for smoke runs (`--quick`).
    pub fn quick(mut self) -> Self {
        self.threads = self.threads.min(4);
        self.key_space = self.key_space.min(1 << 15);
        self.ops_per_thread = self.ops_per_thread.min(100);
        // Large scans dominate smoke runs of the range benches; cap them too.
        self.range_size = self.range_size.min(100);
        self
    }

    /// The workload specification this experiment drives.
    pub fn workload(&self) -> WorkloadSpec {
        WorkloadSpec {
            key_space: self.key_space,
            bulkload_keys: (self.key_space as f64 * self.bulkload_fraction) as u64,
            mix: self.mix,
            distribution: self.distribution,
            range_size: self.range_size,
            seed: self.seed,
            update_fraction: 2.0 / 3.0,
        }
    }
}

/// What one tree or pipeline experiment produced.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Experiment label.
    pub name: String,
    /// How the measured phase drove the workload.
    pub drive: DrivePath,
    /// Throughput / latency summary.
    pub summary: RunSummary,
    /// Round trips per *write* operation (Figure 14(b)).
    pub write_round_trips: CountHistogram,
    /// Consistency-check retries per *read* operation (Figure 14(a)).
    pub read_retries: CountHistogram,
    /// Bytes written per *write* operation (Figure 14(c)).
    pub write_sizes: SizeHistogram,
    /// Fraction of operations whose leaf address came from the index cache.
    pub cache_hit_ratio: f64,
    /// Fraction of write operations whose lock was obtained via handover.
    pub handover_fraction: f64,
    /// Overlap gauges merged over every thread (in-flight depth, overlapped
    /// round trips).
    pub overlap: OverlapGauges,
    /// Fabric-wide verb counters accumulated during the measured phase.
    pub fabric: MetricsSnapshot,
}

/// The per-operation records of one client; the run's total merges every
/// field but the latency histogram, which the throughput aggregator folds.
#[derive(Default)]
struct Tally {
    ops: u64,
    latency: LatencyHistogram,
    write_round_trips: CountHistogram,
    read_retries: CountHistogram,
    write_sizes: SizeHistogram,
    cache_hits: u64,
    handovers: u64,
    writes: u64,
    overlap: OverlapGauges,
}

impl Tally {
    fn record(&mut self, r: &PipelinedResult) {
        self.ops += 1;
        self.latency.record(r.latency_ns);
        if r.cache_hit {
            self.cache_hits += 1;
        }
        match r.op {
            PipelineOp::Insert { .. } | PipelineOp::Delete { .. } => {
                self.writes += 1;
                self.write_round_trips.record(r.round_trips);
                self.write_sizes.record(r.bytes_written);
                if r.handed_over {
                    self.handovers += 1;
                }
            }
            PipelineOp::Lookup { .. } | PipelineOp::Range { .. } => {
                self.read_retries.record(r.read_retries);
            }
        }
    }
}

/// Drive `spec` from `threads` clients along `drive`, then fold every
/// client's records into one result.
fn run_workload(
    name: &str,
    cluster: &Arc<Cluster>,
    spec: WorkloadSpec,
    threads: usize,
    ops_per_thread: usize,
    drive: DrivePath,
) -> ExperimentResult {
    let baseline_metrics = cluster.fabric().metrics().snapshot();
    let connect = Arc::clone(cluster);
    let (tallies, elapsed) = spawn_clients(
        cluster.fabric(),
        threads,
        move |cs| connect.client(cs),
        move |t, mut client| {
            let mut gen = spec.generator(t as u64);
            let ops = (0..ops_per_thread).map(|_| to_pipeline_op(gen.next_op()));
            let driven = drive_ops(&mut client, ops, drive)
                .unwrap_or_else(|e| panic!("operation failed: {e}"));
            let mut tally = Tally {
                overlap: driven.overlap,
                ..Tally::default()
            };
            for r in &driven.results {
                tally.record(r);
            }
            tally
        },
    );
    let fabric = cluster
        .fabric()
        .metrics()
        .snapshot()
        .delta_since(&baseline_metrics);

    let mut agg = ThroughputAggregator::new();
    let mut total = Tally::default();
    for t in &tallies {
        agg.add(&ThreadReport {
            ops: t.ops,
            latency: t.latency.clone(),
        });
        total.ops += t.ops;
        total.write_round_trips.merge(&t.write_round_trips);
        total.read_retries.merge(&t.read_retries);
        total.write_sizes.merge(&t.write_sizes);
        total.cache_hits += t.cache_hits;
        total.handovers += t.handovers;
        total.writes += t.writes;
        total.overlap.merge(&t.overlap);
    }
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    ExperimentResult {
        name: name.to_string(),
        drive,
        summary: agg.finish(elapsed),
        cache_hit_ratio: ratio(total.cache_hits, total.ops),
        handover_fraction: ratio(total.handovers, total.writes),
        write_round_trips: total.write_round_trips,
        read_retries: total.read_retries,
        write_sizes: total.write_sizes,
        overlap: total.overlap,
        fabric,
    }
}

/// Run one tree experiment to completion and aggregate the results.
pub fn run_tree_experiment(exp: &TreeExperiment) -> ExperimentResult {
    let spec = exp.workload();
    spec.validate().expect("invalid workload");
    let cluster = deploy::<Fabric>(
        fabric_config(exp.memory_servers, exp.compute_servers),
        exp.tree.clone(),
        exp.options,
        spec.bulkload_iter(),
    );
    run_workload(
        &exp.name,
        &cluster,
        spec,
        exp.threads,
        exp.ops_per_thread,
        exp.drive,
    )
}

// ----------------------------------------------------------------------
// Pipelined experiments
// ----------------------------------------------------------------------

/// An experiment driven through the pipelined scheduler: every thread
/// multiplexes its in-flight operations (uniform lookups, scans, and — when
/// `insert_pct > 0` — inserts) over one fabric context.
///
/// [`DrivePath::Blocking`] selects the **blocking reference** (the plain
/// `TreeClient::lookup`/`range`/`insert` loop) so the depth-1 scheduler can
/// be validated against it.
#[derive(Debug, Clone)]
pub struct PipelineExperiment {
    /// Label printed in result rows.
    pub name: String,
    /// Number of memory servers.
    pub memory_servers: usize,
    /// Number of compute servers.
    pub compute_servers: usize,
    /// Number of client threads.
    pub threads: usize,
    /// Key-space size.
    pub key_space: u64,
    /// Fraction of the key space bulkloaded before the measured phase.
    pub bulkload_fraction: f64,
    /// Logical operations issued per thread.
    pub ops_per_thread: usize,
    /// Percentage of operations that are range scans (the rest are uniform
    /// lookups; the acceptance workload uses 0).
    pub range_pct: u8,
    /// Percentage of operations that are inserts (half of them updates of
    /// bulkloaded keys).  The write-path pipelining gate uses 50.
    pub insert_pct: u8,
    /// Entries per range scan.
    pub range_size: u64,
    /// How each client issues its operations.
    pub drive: DrivePath,
    /// Technique selection.
    pub options: TreeOptions,
    /// Tree geometry.
    pub tree: TreeConfig,
    /// RNG seed.
    pub seed: u64,
}

impl PipelineExperiment {
    /// The uniform-lookup experiment at the harness's default scale.
    pub fn default_scaled(name: impl Into<String>, drive: DrivePath) -> Self {
        PipelineExperiment {
            name: name.into(),
            memory_servers: 4,
            compute_servers: 2,
            threads: 4,
            key_space: 1 << 18,
            bulkload_fraction: 0.8,
            ops_per_thread: 2_000,
            range_pct: 0,
            insert_pct: 0,
            range_size: 50,
            drive,
            options: TreeOptions::sherman(),
            tree: TreeConfig::default(),
            seed: 0x9196_5EED,
        }
    }

    /// Shrink the experiment for smoke runs (`--quick` / `--smoke`).
    pub fn quick(mut self) -> Self {
        self.threads = self.threads.min(2);
        self.key_space = self.key_space.min(1 << 15);
        self.ops_per_thread = self.ops_per_thread.min(500);
        self.range_size = self.range_size.min(20);
        self
    }

    /// The workload specification this experiment draws keys from.
    pub fn workload(&self) -> WorkloadSpec {
        WorkloadSpec {
            key_space: self.key_space,
            bulkload_keys: (self.key_space as f64 * self.bulkload_fraction) as u64,
            mix: Mix {
                insert_pct: self.insert_pct,
                lookup_pct: 100 - self.range_pct - self.insert_pct,
                delete_pct: 0,
                range_pct: self.range_pct,
            },
            distribution: KeyDistribution::Uniform,
            range_size: self.range_size,
            seed: self.seed,
            update_fraction: if self.insert_pct > 0 { 0.5 } else { 0.0 },
        }
    }
}

/// Run one pipelined (or blocking-reference) experiment.
pub fn run_pipeline_experiment(exp: &PipelineExperiment) -> ExperimentResult {
    let spec = exp.workload();
    spec.validate().expect("invalid pipeline workload");
    let cluster = deploy::<Fabric>(
        fabric_config(exp.memory_servers, exp.compute_servers),
        exp.tree.clone(),
        exp.options,
        spec.bulkload_iter(),
    );
    run_workload(
        &exp.name,
        &cluster,
        spec,
        exp.threads,
        exp.ops_per_thread,
        exp.drive,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(options: TreeOptions) -> TreeExperiment {
        TreeExperiment {
            memory_servers: 2,
            compute_servers: 2,
            threads: 2,
            key_space: 1 << 12,
            ops_per_thread: 40,
            tree: TreeConfig {
                cache_bytes: 1 << 20,
                chunk_bytes: 256 << 10,
                ..TreeConfig::default()
            },
            ..TreeExperiment::default_scaled("tiny", options)
        }
    }

    #[test]
    fn sherman_experiment_produces_sane_numbers() {
        let result = run_tree_experiment(&tiny(TreeOptions::sherman()));
        assert_eq!(result.summary.ops, 80);
        assert!(result.summary.throughput_ops > 0.0);
        assert!(result.summary.p99_ns >= result.summary.p50_ns);
        assert!(result.cache_hit_ratio > 0.5, "bulkload warms the cache");
        // Write ops exist in a write-intensive mix and their sizes are
        // entry-granular for Sherman.
        assert!(result.write_sizes.total() > 0);
        assert!(result.write_sizes.mean() < 200.0);
    }

    #[test]
    fn baseline_writes_whole_nodes() {
        let result = run_tree_experiment(&tiny(TreeOptions::fg_plus()));
        assert!(result.write_sizes.mean() >= 1024.0);
        // FG+ needs at least one more round trip per write than Sherman.
        let sherman = run_tree_experiment(&tiny(TreeOptions::sherman()));
        assert!(
            result.write_round_trips.mean() > sherman.write_round_trips.mean(),
            "FG+ {} vs Sherman {}",
            result.write_round_trips.mean(),
            sherman.write_round_trips.mean()
        );
    }

    fn tiny_pipeline(drive: DrivePath) -> PipelineExperiment {
        PipelineExperiment {
            memory_servers: 2,
            compute_servers: 2,
            threads: 2,
            key_space: 1 << 12,
            ops_per_thread: 150,
            tree: TreeConfig {
                cache_bytes: 1 << 20,
                chunk_bytes: 256 << 10,
                ..TreeConfig::default()
            },
            ..PipelineExperiment::default_scaled(format!("pipe-{drive}"), drive)
        }
    }

    #[test]
    fn depth_one_pipeline_matches_the_blocking_reference() {
        let blocking = run_pipeline_experiment(&tiny_pipeline(DrivePath::Blocking));
        let depth1 = run_pipeline_experiment(&tiny_pipeline(DrivePath::Pipelined(1)));
        let ratio = depth1.summary.throughput_ops / blocking.summary.throughput_ops;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "depth-1 must reproduce the blocking path within 5%, ratio {ratio:.3}"
        );
        assert_eq!(depth1.overlap.max_in_flight, 1);
        assert_eq!(depth1.overlap.overlapped_round_trips, 0);
    }

    #[test]
    fn depth_four_pipeline_overlaps_and_outperforms() {
        let depth1 = run_pipeline_experiment(&tiny_pipeline(DrivePath::Pipelined(1)));
        let depth4 = run_pipeline_experiment(&tiny_pipeline(DrivePath::Pipelined(4)));
        let speedup = depth4.summary.throughput_ops / depth1.summary.throughput_ops;
        assert!(
            speedup >= 1.5,
            "depth 4 should beat depth 1 by 1.5x on uniform lookups, got {speedup:.2}x"
        );
        assert!(
            depth4.overlap.mean_in_flight() > 1.5,
            "mean in-flight {:.2}",
            depth4.overlap.mean_in_flight()
        );
        assert!(depth4.overlap.overlapped_round_trips > 0);
        assert!(depth4.overlap.overlap_factor() > depth1.overlap.overlap_factor());
    }

    #[test]
    fn tree_experiment_reports_its_drive_path_and_pipelines_writes() {
        let blocking = run_tree_experiment(&tiny(TreeOptions::sherman()));
        assert_eq!(blocking.drive, DrivePath::Blocking);

        let piped = run_tree_experiment(&TreeExperiment {
            drive: DrivePath::Pipelined(4),
            ..tiny(TreeOptions::sherman())
        });
        assert_eq!(piped.drive, DrivePath::Pipelined(4));
        // The mixed write-intensive workload really ran (and through the
        // scheduler): same op count, write histograms populated.
        assert_eq!(piped.summary.ops, 80);
        assert!(piped.write_sizes.total() > 0);
        assert!(piped.write_round_trips.total() > 0);
    }

    #[test]
    fn mixed_pipeline_depth_one_matches_blocking_and_depth_four_overlaps() {
        let mixed = |drive: DrivePath| {
            let mut exp = tiny_pipeline(drive);
            exp.insert_pct = 50;
            exp
        };
        let blocking = run_pipeline_experiment(&mixed(DrivePath::Blocking));
        let depth1 = run_pipeline_experiment(&mixed(DrivePath::Pipelined(1)));
        let ratio = depth1.summary.throughput_ops / blocking.summary.throughput_ops;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "depth-1 mixed must reproduce the blocking path within 5%, ratio {ratio:.3}"
        );
        let depth4 = run_pipeline_experiment(&mixed(DrivePath::Pipelined(4)));
        let speedup = depth4.summary.throughput_ops / depth1.summary.throughput_ops;
        assert!(
            speedup >= 1.3,
            "depth 4 should beat depth 1 by 1.3x on 50% inserts, got {speedup:.2}x"
        );
        assert!(depth4.overlap.overlapped_round_trips > 0);
    }

    #[test]
    fn pipeline_experiment_supports_scans() {
        let mut exp = tiny_pipeline(DrivePath::Pipelined(4));
        exp.range_pct = 20;
        let result = run_pipeline_experiment(&exp);
        assert_eq!(result.summary.ops, 300);
        assert!(result.summary.throughput_ops > 0.0);
        assert!(result.cache_hit_ratio > 0.5, "bulkload warms the cache");
    }

    #[test]
    fn quick_shrinks_the_experiment() {
        let mut exp = TreeExperiment::default_scaled("x", TreeOptions::sherman());
        exp.range_size = 1_000; // as fig12's large-scan rows configure
        let exp = exp.quick();
        assert!(exp.threads <= 4);
        assert!(exp.ops_per_thread <= 100);
        assert!(exp.range_size <= 100, "quick runs must cap scan size");
        exp.workload().validate().unwrap();
    }
}
