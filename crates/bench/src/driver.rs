//! The one client driver every experiment runs on.
//!
//! Every figure drives the same closed loop — bring up a deployment, spawn N
//! clients, line them up, run operations, join, aggregate — with a different
//! knob set.  This module owns the parts that do not vary:
//!
//! * [`deploy`] builds a cluster (on [`fabric_config`]'s server counts) and
//!   bulkloads it with the shared `k * 3 + 1` values,
//! * [`spawn_clients`] spawns one OS thread per client, registers the client
//!   on the fabric, lines every client up on a start barrier, runs the
//!   experiment's body and joins,
//! * [`drive_ops`] is the only blocking-versus-pipelined dispatch: whichever
//!   [`DrivePath`] runs, every operation comes back as the scheduler's
//!   [`PipelinedResult`], so each experiment folds one record type.

use sherman::{
    Cluster, ClusterConfig, OpOutput, OpStats, PipelineOp, PipelinedResult, TreeClient, TreeConfig,
    TreeOptions, TreeResult,
};
use sherman_metrics::OverlapGauges;
use sherman_sim::{FabricBackend, FabricConfig};
use sherman_workload::Op;
use std::sync::{Arc, Barrier};
use std::thread;

/// How a client issues its operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrivePath {
    /// One blocking operation at a time: the reference the depth-1 scheduler
    /// is validated against.
    Blocking,
    /// The split-phase scheduler with the given in-flight depth.
    Pipelined(usize),
}

impl std::fmt::Display for DrivePath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DrivePath::Blocking => write!(f, "blocking"),
            DrivePath::Pipelined(d) => write!(f, "pipelined(depth={d})"),
        }
    }
}

/// The smoke gates' ceiling on one operation's restarts
/// (`OpStats::restarts`: re-locations and torn re-reads, not B-link sibling
/// chases): a livelock trips it long before the operation's 10,000-attempt
/// budget fails it with `RetriesExhausted`.
pub const MAX_OP_RESTARTS: u64 = 64;

/// The fabric of a bench deployment: the given server counts, calibrated
/// defaults for everything else.
pub fn fabric_config(memory_servers: usize, compute_servers: usize) -> FabricConfig {
    FabricConfig {
        memory_servers,
        compute_servers,
        ..FabricConfig::default()
    }
}

/// Build a cluster on backend `B` and bulkload `keys`, each with the value
/// `k * 3 + 1`.
pub fn deploy<B: FabricBackend>(
    fabric: FabricConfig,
    tree: TreeConfig,
    options: TreeOptions,
    keys: impl IntoIterator<Item = u64>,
) -> Arc<Cluster<B>> {
    let cluster = Cluster::<B>::new_on(ClusterConfig { fabric, tree }, options);
    cluster
        .bulkload(keys.into_iter().map(|k| (k, k.wrapping_mul(3) + 1)))
        .expect("bulkload");
    cluster
}

/// Run `threads` clients of `fabric` to completion.
///
/// Thread `t` connects on compute server `t % compute_servers` through
/// `connect`, waits until every client has connected — so all of them are
/// registered with the virtual clock and their operations genuinely overlap
/// — then runs `body(t, client)`.  Returns each thread's outcome in thread
/// order and the elapsed fabric time from before the spawn to after the join
/// (at least 1 ns).
pub fn spawn_clients<B, C, R>(
    fabric: &Arc<B>,
    threads: usize,
    connect: impl Fn(u16) -> C + Send + Sync + 'static,
    body: impl Fn(usize, C) -> R + Send + Sync + 'static,
) -> (Vec<R>, u64)
where
    B: FabricBackend,
    R: Send + 'static,
{
    let compute_servers = fabric.compute_servers();
    let start = fabric.now();
    let shared = Arc::new((Barrier::new(threads), connect, body));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let (barrier, connect, body) = &*shared;
                let client = connect((t % compute_servers) as u16);
                barrier.wait();
                body(t, client)
            })
        })
        .collect();
    let outcomes = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();
    (outcomes, fabric.now().saturating_sub(start).max(1))
}

/// Map a workload operation onto its pipelined-scheduler form.
pub fn to_pipeline_op(op: Op) -> PipelineOp {
    match op {
        Op::Lookup { key } => PipelineOp::Lookup { key },
        Op::Insert { key, value } => PipelineOp::Insert { key, value },
        Op::Delete { key } => PipelineOp::Delete { key },
        Op::Range { start_key, count } => PipelineOp::Range {
            start_key,
            count: count as usize,
        },
    }
}

/// What one [`drive_ops`] call produced.
#[derive(Debug, Clone)]
pub struct Driven {
    /// One record per operation, in completion order (issue order when
    /// blocking).
    pub results: Vec<PipelinedResult>,
    /// Overlap gauges of the call.
    pub overlap: OverlapGauges,
}

/// Run `ops` on `client` along `drive`.
///
/// Stops at the first failed operation and returns its error; under
/// [`DrivePath::Pipelined`] the scheduler has then abandoned every other
/// operation of the call.
pub fn drive_ops<B: FabricBackend>(
    client: &mut TreeClient<B>,
    ops: impl IntoIterator<Item = PipelineOp>,
    drive: DrivePath,
) -> TreeResult<Driven> {
    match drive {
        DrivePath::Blocking => {
            let before = client.fabric_stats();
            let t0 = client.now();
            let results = ops
                .into_iter()
                .map(|op| run_blocking(client, op))
                .collect::<TreeResult<Vec<_>>>()?;
            let stats = client.fabric_stats().delta_since(&before);
            let overlap = sherman::overlap_from_stats(&stats, client.now().saturating_sub(t0));
            Ok(Driven { results, overlap })
        }
        DrivePath::Pipelined(depth) => {
            let report = client.run_pipelined(ops, depth)?;
            Ok(Driven {
                results: report.results,
                overlap: report.overlap,
            })
        }
    }
}

/// Run one operation through the blocking client calls.
fn run_blocking<B: FabricBackend>(
    client: &mut TreeClient<B>,
    op: PipelineOp,
) -> TreeResult<PipelinedResult> {
    let (output, stats): (OpOutput, OpStats) = match op {
        PipelineOp::Lookup { key } => {
            let (value, s) = client.lookup(key)?;
            (OpOutput::Lookup(value), s)
        }
        PipelineOp::Range { start_key, count } => {
            let (entries, s) = client.range(start_key, count)?;
            (OpOutput::Range(entries), s)
        }
        PipelineOp::Insert { key, value } => (OpOutput::Insert, client.insert(key, value)?),
        PipelineOp::Delete { key } => {
            let (existed, s) = client.delete(key)?;
            (OpOutput::Delete(existed), s)
        }
    };
    Ok(PipelinedResult {
        op,
        output,
        latency_ns: stats.latency_ns,
        round_trips: stats.round_trips,
        bytes_written: stats.bytes_written,
        read_retries: stats.read_retries,
        restarts: stats.restarts,
        handed_over: stats.handed_over,
        cache_hit: stats.cache_hit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sherman_sim::Fabric;
    use sherman_workload::{KeyDistribution, Mix, WorkloadSpec};

    /// The blocking path and the depth-1 scheduler produce the same record
    /// for every operation, field for field: the record conversion loses
    /// nothing the ratio gates could not see.
    #[test]
    fn blocking_and_depth_one_yield_identical_records() {
        let spec = WorkloadSpec {
            key_space: 1 << 12,
            bulkload_keys: 1 << 11,
            mix: Mix {
                insert_pct: 50,
                lookup_pct: 50,
                delete_pct: 0,
                range_pct: 0,
            },
            distribution: KeyDistribution::Uniform,
            range_size: 1,
            seed: 0xD21E,
            update_fraction: 0.5,
        };
        let run = |drive: DrivePath| {
            let cluster = deploy::<Fabric>(
                fabric_config(2, 1),
                TreeConfig::small_test(),
                TreeOptions::sherman(),
                spec.bulkload_iter(),
            );
            let mut gen = spec.generator(0);
            let ops = (0..400).map(|_| to_pipeline_op(gen.next_op()));
            drive_ops(&mut cluster.client(0), ops, drive)
                .expect("drive")
                .results
        };
        let blocking = run(DrivePath::Blocking);
        let depth1 = run(DrivePath::Pipelined(1));
        assert_eq!(blocking.len(), 400);
        assert!(blocking
            .iter()
            .any(|r| matches!(r.op, PipelineOp::Insert { .. })));
        for (b, p) in blocking.iter().zip(&depth1) {
            assert_eq!(b, p, "blocking and depth-1 records differ");
        }
    }
}
