//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name and unit, then one JSON result line; exits 1
//! when an output check fails and 2 on a bad command line.

use perfbench::workload::Workload;
use perfbench::{run, RunConfig};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(&format!("bad seed {value:?}")),
            },
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=3600).contains(&s) => seconds = Some(s),
                _ => return usage(&format!("bad seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage(&format!("bad trace {value:?}")),
            },
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };

    let cfg = RunConfig::new(workload, seed, seconds, trace);
    let outcome = run(&cfg);
    println!(
        "perfbench {} seed {} ({} s, trace {})",
        workload.name(),
        seed,
        seconds,
        u8::from(trace)
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (def, value) in &outcome.metrics {
        let moves = if def.moves.is_empty() {
            String::new()
        } else {
            format!("  (moves {})", def.moves)
        };
        println!("  {:<30} {:>14.4} {:<14}{moves}", def.name, value, def.unit);
    }
    println!("{}", outcome.result_line());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
