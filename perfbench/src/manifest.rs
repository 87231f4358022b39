//! `BENCHMARK.json`, rendered from the workload list and the metric
//! registry so the file and the code cannot drift apart (a self-test
//! compares them byte for byte).

use crate::json::{self, Object};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workload::Workload;

/// Seconds each run measures.
pub const RUN_SECONDS: u64 = 10;

/// The command that runs the benchmark from the repository root; the driver
/// appends `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

fn list(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[\n    {}\n  ]", items.join(",\n    "))
}

fn metric(def: &MetricDef) -> String {
    let o = Object::new()
        .str("name", def.name)
        .str("unit", def.unit)
        .str("better", def.better);
    match def.bound {
        Some(bound) => o.num("bound", bound),
        None => o,
    }
    .finish()
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command: Vec<String> = COMMAND.iter().map(|s| json::string(s)).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        RUN_SECONDS,
        list(Workload::ALL.iter().map(|w| {
            Object::new().str("name", w.name()).str("why", w.why()).finish()
        })),
        list(END_TO_END.iter().map(metric)),
        list(PER_LAYER.iter().map(metric)),
    )
}
