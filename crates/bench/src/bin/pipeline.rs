//! Pipeline — the split-phase scheduler's depth sweep (beyond the paper).
//!
//! Sherman's evaluation hides RDMA round-trip latency by running multiple
//! coroutines per client thread; this reproduction's analogue is the
//! pipelined read scheduler (`TreeClient::run_pipelined`), which multiplexes
//! N logical lookups/scans over one fabric context.  This binary sweeps the
//! in-flight depth over {1, 2, 4, 8} on the uniform-lookup workload and
//! reports the virtual-time throughput curve next to the blocking reference,
//! plus the overlap gauges that prove the depth actually materialized
//! (mean/max in-flight verbs, overlapped round trips, serial-vs-elapsed
//! overlap factor).
//!
//! ```text
//! cargo run --release -p sherman_bench --bin pipeline [-- --quick] [--smoke]
//!     [--threads N] [--keys N] [--ops N] [--range-pct P] [--insert-pct P]
//!     [--depths 1,2,4,8]
//! ```
//!
//! `--smoke` runs the CI gate at `--quick` scale and exits non-zero when
//! depth 1 deviates from the blocking path by more than 5%, when depth 4
//! fails to beat depth 1 by at least 1.5× on uniform lookups, or when the
//! overlap gauges show the pipeline never went concurrent (mean in-flight
//! ≤ 1.5 at depth 4).  The gate then repeats the sweep on a 50%-insert
//! uniform workload — write pipelining through the lock critical sections —
//! requiring depth-1 equivalence within 5% and a depth-4 speedup of at
//! least 1.3×.  Last, a skewed 50%-write case gates on properties rather
//! than tolerances: at depth 8 at least one write must take its lock by
//! local HOCL handover, and the tree must match the model afterwards.

use sherman::{OpOutput, PipelineOp, TreeConfig, TreeOptions};
use sherman_bench::driver::{deploy, fabric_config};
use sherman_bench::{
    fmt_mops, fmt_us, print_table, run_pipeline_experiment, Args, DrivePath, ExperimentResult,
    PipelineExperiment,
};
use sherman_sim::Fabric;
use sherman_workload::{KeyDistribution, Mix, Op, WorkloadSpec};
use std::collections::BTreeSet;

fn main() {
    let args = Args::from_env();
    if args.flag("smoke") {
        smoke(&args);
        return;
    }
    let depths = args.get_usize_list("depths", vec![1, 2, 4, 8]);

    println!("Pipeline: split-phase read scheduler, in-flight depth sweep (uniform lookups)");
    let blocking = run_pipeline_experiment(&configure(&args, "blocking", DrivePath::Blocking));
    let base = blocking.summary.throughput_ops;
    let mut rows = vec![row(&blocking, base)];
    for &depth in &depths {
        let drive = DrivePath::Pipelined(depth);
        let result = run_pipeline_experiment(&configure(&args, &format!("depth-{depth}"), drive));
        rows.push(row(&result, base));
    }
    print_table(
        &[
            "system",
            "Mops",
            "vs blocking",
            "p50",
            "p99",
            "mean-inflight",
            "max",
            "overlapped-rt",
            "overlap-x",
        ],
        &rows,
    );
    println!("\nvs blocking  = virtual-time throughput relative to the blocking client loop");
    println!("mean/max     = in-flight verb depth at post time (1.0 when blocking)");
    println!("overlapped-rt= fraction of round trips whose window overlapped another verb");
    println!("overlap-x    = serial verb time / elapsed time (how many RTTs were hidden)");
}

fn configure(args: &Args, name: &str, drive: DrivePath) -> PipelineExperiment {
    let mut exp = PipelineExperiment::default_scaled(name, drive);
    exp.threads = args.get_usize("threads", exp.threads);
    exp.key_space = args.get_u64("keys", exp.key_space);
    exp.ops_per_thread = args.get_usize("ops", exp.ops_per_thread);
    exp.range_pct = args.get_u64("range-pct", exp.range_pct as u64) as u8;
    exp.range_size = args.get_u64("range-size", exp.range_size);
    exp.insert_pct = args.get_u64("insert-pct", exp.insert_pct as u64) as u8;
    if args.quick() || args.flag("smoke") {
        exp = exp.quick();
    }
    exp
}

fn row(result: &ExperimentResult, base: f64) -> Vec<String> {
    vec![
        result.name.clone(),
        fmt_mops(result.summary.throughput_ops),
        format!("{:.2}x", result.summary.throughput_ops / base.max(f64::MIN_POSITIVE)),
        fmt_us(result.summary.p50_ns),
        fmt_us(result.summary.p99_ns),
        format!("{:.2}", result.overlap.mean_in_flight()),
        result.overlap.max_in_flight.to_string(),
        format!("{:.0}%", result.overlap.overlapped_fraction() * 100.0),
        format!("{:.2}", result.overlap.overlap_factor()),
    ]
}

/// CI gate: depth-1 equivalence and the depth-4 speedup, at quick scale —
/// once on uniform lookups (≥ 1.5×) and once on a 50%-insert mixed workload
/// (≥ 1.3×) — then the skewed-write property case.
fn smoke(args: &Args) {
    let mut failures = Vec::new();
    smoke_case(args, "reads", 0, 1.5, &mut failures);
    smoke_case(args, "mixed-50i", 50, 1.3, &mut failures);
    smoke_skewed_writes(&mut failures);
    if failures.is_empty() {
        println!("pipeline smoke: OK");
    } else {
        for f in &failures {
            eprintln!("pipeline smoke FAILED: {f}");
        }
        std::process::exit(1);
    }
}

fn smoke_case(
    args: &Args,
    case: &str,
    insert_pct: u8,
    min_speedup: f64,
    failures: &mut Vec<String>,
) {
    let with_writes = |mut exp: PipelineExperiment| {
        exp.insert_pct = insert_pct;
        exp
    };
    let run = |name: &str, drive: DrivePath| {
        run_pipeline_experiment(&with_writes(configure(args, name, drive)))
    };
    let blocking = run("blocking", DrivePath::Blocking);
    let depth1 = run("depth-1", DrivePath::Pipelined(1));
    let depth4 = run("depth-4", DrivePath::Pipelined(4));

    let equivalence = depth1.summary.throughput_ops / blocking.summary.throughput_ops;
    let speedup = depth4.summary.throughput_ops / depth1.summary.throughput_ops;
    println!(
        "pipeline smoke [{case}]: blocking={} depth1={} depth4={} equivalence={:.3} \
         speedup={:.2}x mean_inflight(d4)={:.2} max_inflight(d4)={} overlapped(d4)={:.0}%",
        fmt_mops(blocking.summary.throughput_ops),
        fmt_mops(depth1.summary.throughput_ops),
        fmt_mops(depth4.summary.throughput_ops),
        equivalence,
        speedup,
        depth4.overlap.mean_in_flight(),
        depth4.overlap.max_in_flight,
        depth4.overlap.overlapped_fraction() * 100.0,
    );
    if !(0.95..=1.05).contains(&equivalence) {
        failures.push(format!(
            "[{case}] depth-1 deviates from the blocking path by more than 5% \
             (ratio {equivalence:.3})"
        ));
    }
    if speedup < min_speedup {
        failures.push(format!(
            "[{case}] depth-4 throughput only {speedup:.2}x depth-1 (needs >= {min_speedup}x)"
        ));
    }
    if depth4.overlap.mean_in_flight() <= 1.5 {
        failures.push(format!(
            "[{case}] depth-4 mean in-flight {:.2} shows no real overlap (needs > 1.5)",
            depth4.overlap.mean_in_flight()
        ));
    }
}

/// The skewed-write property case: one client keeps 8 operations in flight
/// on a scrambled-Zipfian (θ = 0.99) mix of 50% updates and 50% lookups.
/// Every update of a key stores the same value, so the final tree does not
/// depend on the order in which writes to one key commit and must equal the
/// model exactly; lookups must see the old or the new value.  Same-context
/// writers queue on the hot leaves' locks, so some of them must get their
/// lock by local handover.
fn smoke_skewed_writes(failures: &mut Vec<String>) {
    let spec = WorkloadSpec {
        key_space: 1 << 15,
        bulkload_keys: 1 << 15,
        mix: Mix {
            insert_pct: 50,
            lookup_pct: 50,
            delete_pct: 0,
            range_pct: 0,
        },
        distribution: KeyDistribution::ScrambledZipfian { theta: 0.99 },
        range_size: 1,
        seed: 0x5EED,
        update_fraction: 1.0,
    };
    spec.validate().expect("valid skewed workload");
    // `deploy` bulkloads every key with the value `k * 3 + 1`.
    let old = |k: u64| k * 3 + 1;
    let new = |k: u64| k * 5 + 7;
    let cluster = deploy::<Fabric>(
        fabric_config(4, 2),
        TreeConfig::default(),
        TreeOptions::sherman(),
        0..spec.key_space,
    );
    let mut gen = spec.generator(0);
    let ops: Vec<PipelineOp> = (0..4_000)
        .map(|_| match gen.next_op() {
            Op::Insert { key, .. } => PipelineOp::Insert {
                key,
                value: new(key),
            },
            Op::Lookup { key } => PipelineOp::Lookup { key },
            other => unreachable!("the mix issues updates and lookups only, got {other:?}"),
        })
        .collect();
    let report = cluster
        .client(0)
        .run_pipelined(ops.iter().copied(), 8)
        .expect("pipelined run");

    let handovers = report.results.iter().filter(|r| r.handed_over).count();
    let mut mismatches = 0usize;
    for r in &report.results {
        if let (PipelineOp::Lookup { key }, OpOutput::Lookup(v)) = (&r.op, &r.output) {
            if *v != Some(old(*key)) && *v != Some(new(*key)) {
                mismatches += 1;
            }
        }
    }
    let written: BTreeSet<u64> = ops
        .iter()
        .filter_map(|op| match *op {
            PipelineOp::Insert { key, .. } => Some(key),
            _ => None,
        })
        .collect();
    let (scan, _) = cluster
        .client(1)
        .range(0, spec.key_space as usize + 1)
        .expect("model scan");
    let expect: Vec<(u64, u64)> = (0..spec.key_space)
        .map(|k| (k, if written.contains(&k) { new(k) } else { old(k) }))
        .collect();
    if scan != expect {
        mismatches += 1;
    }
    let writes = ops
        .iter()
        .filter(|op| matches!(op, PipelineOp::Insert { .. }))
        .count();
    println!(
        "pipeline smoke [skewed-50w]: depth8={} handovers={handovers}/{writes} writes \
         model_mismatches={mismatches}",
        fmt_mops(report.throughput_ops()),
    );
    if handovers == 0 {
        failures.push("[skewed-50w] no write took its lock by local handover at depth 8".into());
    }
    if mismatches > 0 {
        failures.push(format!(
            "[skewed-50w] {mismatches} lookup(s) or the final tree disagree with the model"
        ));
    }
}
