//! Self-tests of the benchmark: its outside timing, its determinism, its
//! output checks on a tiny run of every workload, and `BENCHMARK.json`.

use perfbench::driver::Stop;
use perfbench::workload::{Scale, Workload};
use perfbench::{manifest, run, RunConfig};
use std::path::PathBuf;

fn tiny(workload: Workload, threads: usize, depth: usize, ops: u64) -> RunConfig {
    RunConfig {
        scale: Scale::Tiny,
        stop: Stop::Ops(ops),
        threads,
        depth,
        setup_reps: 1,
        ..RunConfig::new(workload, 7, 1, false)
    }
}

/// At depth 1 nothing queues behind another slot, so the admission →
/// completion time the feed stamps must equal the scheduler's attributed
/// service time for every operation.
#[test]
fn depth_one_feed_stamps_equal_attributed_latency() {
    for workload in Workload::ALL {
        let outcome = run(&tiny(workload, 1, 1, 1_500));
        assert!(
            outcome.correct,
            "{workload:?}: {:?}",
            outcome.check.examples
        );
        let records = &outcome.lanes[0].records;
        assert!(records.len() >= 1_500);
        for (i, r) in records.iter().enumerate() {
            assert!(r.completed(), "{workload:?} op {i} did not complete");
            assert_eq!(
                r.latency_ns(),
                r.attributed_ns,
                "{workload:?} op {i} ({:?})",
                r.op
            );
        }
    }
}

/// One client on the virtual clock is deterministic: the same seed gives the
/// same virtual metrics and the same per-op timings.
#[test]
fn single_client_run_repeats_its_virtual_metrics() {
    let cfg = tiny(Workload::WriteHot, 1, 8, 3_000);
    let (a, b) = (run(&cfg), run(&cfg));
    assert!(a.correct && b.correct);
    for name in [
        "throughput_mops",
        "lookup_mid_us",
        "lookup_tail_us",
        "write_mid_us",
        "write_tail_us",
        "success_ratio",
        "space_amp",
    ] {
        assert_eq!(a.metric(name), b.metric(name), "{name}");
    }
    let times = |o: &perfbench::RunOutcome| -> Vec<(u64, u64)> {
        o.lanes[0]
            .records
            .iter()
            .map(|r| (r.admit_v, r.done_v))
            .collect()
    };
    assert_eq!(times(&a), times(&b));
}

/// A tiny two-client run of every workload passes every output check, fails
/// no operation and reports every end-to-end metric; a traced run reports
/// every per-layer metric and writes its spans.
#[test]
fn tiny_run_of_each_workload_passes_its_checks() {
    for workload in Workload::ALL {
        let outcome = run(&tiny(workload, 2, 8, 1_500));
        assert!(
            outcome.correct,
            "{workload:?}: {:?}",
            outcome.check.examples
        );
        assert_eq!(outcome.failed, 0, "{workload:?}");
        assert!(outcome.check.results_checked > 0 && outcome.check.keys_read_back > 0);
        assert_eq!(outcome.metrics.len(), perfbench::metrics::END_TO_END.len());
        for (def, value) in &outcome.metrics {
            assert!(*value > 0.0, "{workload:?}: {} = {value}", def.name);
        }
        let line = outcome.result_line();
        assert!(
            line.starts_with(r#"{"correct": true, "attempted": "#),
            "{line}"
        );
    }
    let mut traced = tiny(Workload::Churn, 2, 8, 1_000);
    traced.trace = true;
    traced.spans_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/selftest-spans.json");
    let outcome = run(&traced);
    assert!(outcome.correct, "{:?}", outcome.check.examples);
    assert_eq!(outcome.metrics.len(), perfbench::metrics::PER_LAYER.len());
    assert!(outcome.metric("trace.spans").unwrap() > 1_000.0);
    let spans = std::fs::read_to_string(&traced.spans_path).unwrap();
    for name in [
        "setup.window_fill",
        "run_pipelined",
        "op.insert",
        "quiesce",
        "verify",
    ] {
        assert!(spans.contains(&format!(r#""name": "{name}""#)), "{name}");
    }
    std::fs::remove_file(&traced.spans_path).unwrap();
}

/// `BENCHMARK.json` at the repository root is exactly what the registry
/// renders; regenerate it with `manifest::benchmark_json()` after changing
/// a workload or a metric.
#[test]
fn benchmark_json_matches_the_registry() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).unwrap();
    assert_eq!(on_disk, manifest::benchmark_json());
}
