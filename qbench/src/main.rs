//! `qbench --workload <hot_12k|cold_1m|drift_12k> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints informational lines, then one JSON object as the last line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits non-zero, without a result, on any correctness violation.

use std::process::ExitCode;

use qbench::fixture::{Scale, Workload};
use qbench::run::{run, Metric, Options};

fn usage(msg: &str) -> ExitCode {
    eprintln!("qbench: {msg}");
    eprintln!("usage: qbench --workload <hot_12k|cold_1m|drift_12k> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag `{flag}`")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage(
            "--workload, --seed, --seconds and --trace are all required and must be valid",
        );
    };
    let scratch = std::path::PathBuf::from(".qbench-scratch").join(format!(
        "{}-{}",
        workload.name(),
        std::process::id()
    ));
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::of(workload),
        scratch: scratch.clone(),
    };
    let outcome = run(&opts);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".qbench-scratch");
    match outcome {
        Ok(out) => {
            for line in &out.notes {
                println!("{line}");
            }
            println!("{}", json(true, out.attempted, out.failed, &out.metrics));
            ExitCode::SUCCESS
        }
        Err(violations) => {
            for v in &violations {
                eprintln!("qbench: correctness violation: {v}");
            }
            ExitCode::FAILURE
        }
    }
}
