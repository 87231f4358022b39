//! Scenario — hostile workloads under adaptive memory pressure.
//!
//! Runs the six-scenario hostile suite (shifting zipfian hot spot, flash
//! crowd, sequential right-edge appends, long scans racing churn, pool
//! near-exhaustion, mid-run cache re-budgeting) through **both** drive
//! paths: one blocking operation at a time, and the split-phase pipelined
//! scheduler.  Reports throughput, tail latency, overlap depth, allocator
//! backpressure, pressure evictions and the cache hit ratio before/after the
//! mid-run budget change.
//!
//! ```text
//! cargo run --release -p sherman_bench --bin scenario [-- --quick] [--smoke]
//!     [--threads N] [--ops N] [--depth D] [--key-space N] [--backend sim|threaded]
//! ```
//!
//! `--smoke` runs the whole suite at `--quick` scale on both drive paths and
//! exits non-zero when a hostile run breaks an invariant: any op error, a
//! fixable shape-audit defect, a census/outstanding mismatch outside pool
//! exhaustion, a pool-exhaustion run that never saw backpressure, a cache
//! shrink whose hit ratio fell off a cliff (more than 50 points absolute), or
//! an operation that took more than 64 restarts (a livelock's signature;
//! advisory on `--backend threaded`).

use sherman_bench::driver::MAX_OP_RESTARTS;
use sherman_bench::{
    fmt_mops, fmt_us, hostile_suite, print_table, run_scenario_experiment,
    run_scenario_experiment_on, Args, DrivePath, MemoryPressure, ScenarioExperiment,
    ScenarioResult,
};
use sherman_sim::ThreadedFabric;

/// Dispatch on `--backend sim|threaded` (default: the virtual-time simulator).
fn run(args: &Args, exp: &ScenarioExperiment) -> ScenarioResult {
    match args.get("backend").unwrap_or("sim") {
        "sim" => run_scenario_experiment(exp),
        "threaded" => run_scenario_experiment_on::<ThreadedFabric>(exp),
        other => {
            eprintln!("unknown --backend {other} (expected sim|threaded)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args = Args::from_env();
    if args.flag("smoke") {
        smoke(&args);
        return;
    }

    println!("Scenario: hostile workloads under adaptive memory pressure");
    let mut rows = Vec::new();
    let depth = args.get_usize("depth", 4);
    for drive in [DrivePath::Blocking, DrivePath::Pipelined(depth)] {
        for exp in hostile_suite(drive) {
            let exp = configure(&args, exp);
            let r = run(&args, &exp);
            rows.push(row(&r));
        }
    }
    print_table(
        &[
            "scenario",
            "pressure",
            "drive",
            "Mops",
            "p50",
            "p99",
            "in-flight",
            "backpr ops",
            "exhaust",
            "press-evict",
            "hit pre",
            "hit post",
            "space amp",
            "errs",
        ],
        &rows,
    );
    println!("\nbackpr ops  = operations refused with the typed allocation error");
    println!("exhaust     = allocator exhaustion events (every server + free list dry)");
    println!("press-evict = cache entries evicted by the mid-run budget shrink");
    println!("hit pre/post= type-1 cache hit ratio before / after the midpoint");
    println!("(the pool-exhaustion rows run a deliberately tiny pool; the cache/4 rows");
    println!(" cut every compute server's index-cache budget 4x at the midpoint)");
}

fn row(r: &ScenarioResult) -> Vec<String> {
    vec![
        r.name.clone(),
        r.pressure.to_string(),
        r.drive.to_string(),
        fmt_mops(r.summary.throughput_ops),
        fmt_us(r.summary.p50_ns),
        fmt_us(r.summary.p99_ns),
        format!("{:.1}", r.overlap.mean_in_flight()),
        r.backpressure_ops.to_string(),
        r.backpressure.exhaustion_events.to_string(),
        r.pressure_evictions.to_string(),
        format!("{:.0}%", r.hit_before * 100.0),
        format!("{:.0}%", r.hit_after * 100.0),
        format!("{:.2}", r.space_amplification),
        r.op_errors.len().to_string(),
    ]
}

fn configure(args: &Args, mut exp: ScenarioExperiment) -> ScenarioExperiment {
    exp.threads = args.get_usize("threads", exp.threads);
    exp.ops_per_thread = args.get_usize("ops", exp.ops_per_thread);
    exp.key_space = args.get_u64("key-space", exp.key_space);
    if args.quick() || args.flag("smoke") {
        exp = exp.quick();
    }
    exp
}

/// One scenario's smoke verdict: push a line per violated invariant.
fn gate(r: &ScenarioResult, failures: &mut Vec<String>) {
    let tag = format!("{} [{}]", r.name, r.drive);
    if !r.op_errors.is_empty() {
        failures.push(format!("{tag}: {} op errors: {:?}", r.op_errors.len(), r.op_errors));
    }
    // Tiny-node bulkloads legitimately leave a few underfull rightmost
    // tails; the gate is that hostile traffic adds none on top.
    if r.audit.underfull_rightmost_fixable > r.audit_baseline.underfull_rightmost_fixable
        || r.audit.underfull_internals_fixable > r.audit_baseline.underfull_internals_fixable
    {
        failures.push(format!(
            "{tag}: the run added fixable shape defects (rightmost {} -> {}, internals {} -> {})",
            r.audit_baseline.underfull_rightmost_fixable,
            r.audit.underfull_rightmost_fixable,
            r.audit_baseline.underfull_internals_fixable,
            r.audit.underfull_internals_fixable
        ));
    }
    match r.pressure {
        MemoryPressure::PoolExhaustion => {
            if r.backpressure_ops == 0 || !r.backpressure.saw_pressure() {
                failures.push(format!(
                    "{tag}: the tiny pool never backpressured (carved {} nodes)",
                    r.nodes_carved
                ));
            }
        }
        _ => {
            // Outside exhaustion every carved-but-released node must be
            // accounted for: what the census reaches equals what the
            // allocator says is outstanding.
            if r.census.total() != r.nodes_outstanding {
                failures.push(format!(
                    "{tag}: census {} != outstanding {}",
                    r.census.total(),
                    r.nodes_outstanding
                ));
            }
        }
    }
    if let MemoryPressure::CacheShrink { .. } = r.pressure {
        if r.pressure_evictions == 0 {
            failures.push(format!("{tag}: the budget shrink evicted nothing"));
        }
        if r.hit_before - r.hit_after > 0.5 {
            failures.push(format!(
                "{tag}: hit ratio fell off a cliff: {:.2} -> {:.2}",
                r.hit_before, r.hit_after
            ));
        }
    }
}

/// CI gate: the whole suite at quick scale on both drive paths; non-zero
/// exit on any invariant violation.
fn smoke(args: &Args) {
    let mut failures = Vec::new();
    // The restart ceiling is timing-coupled (how long a lost race stays
    // lost): strict where the clock is modeled, advisory on the threaded
    // backend.
    let sim = args.get("backend").unwrap_or("sim") == "sim";
    let mut max_restarts = 0;
    for drive in [DrivePath::Blocking, DrivePath::Pipelined(4)] {
        for exp in hostile_suite(drive) {
            let exp = configure(args, exp);
            let r = run(args, &exp);
            println!(
                "scenario smoke: {:<18} [{:>9}] ops={} backpr={} exhaust={} \
                 press_evict={} hit={:.0}%->{:.0}% errs={} restarts={}",
                r.name,
                r.drive.to_string(),
                r.summary.ops,
                r.backpressure_ops,
                r.backpressure.exhaustion_events,
                r.pressure_evictions,
                r.hit_before * 100.0,
                r.hit_after * 100.0,
                r.op_errors.len(),
                r.max_restarts,
            );
            gate(&r, &mut failures);
            if sim && r.max_restarts > MAX_OP_RESTARTS {
                failures.push(format!(
                    "{} [{}]: an operation took {} restarts (ceiling {MAX_OP_RESTARTS})",
                    r.name, r.drive, r.max_restarts
                ));
            }
            max_restarts = max_restarts.max(r.max_restarts);
        }
    }
    if !sim {
        println!(
            "scenario smoke: max restarts per op {max_restarts} \
             (ceiling {MAX_OP_RESTARTS}, advisory here)"
        );
    }
    if failures.is_empty() {
        println!("scenario smoke: OK");
    } else {
        for f in &failures {
            eprintln!("scenario smoke FAILED: {f}");
        }
        std::process::exit(1);
    }
}
