//! `diq-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the checkout root and prints its metrics; the
//! last line of standard output is the result as one JSON object.

use diq_perfbench::common::Ctx;
use diq_perfbench::report::END_TO_END;
use diq_perfbench::{serve_short, stress_replay};
use std::process::ExitCode;

const WORKLOADS: [&str; 2] = ["stress-replay", "serve-short"];

fn usage(msg: &str) -> ExitCode {
    eprintln!("diq-perfbench: {msg}");
    eprintln!(
        "usage: diq-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("`{}` needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("every flag needs a valid value");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload `{workload}`"));
    }
    let ctx = match Ctx::new(&workload, seed, seconds) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("diq-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match (workload.as_str(), trace) {
        ("stress-replay", false) => stress_replay::run(&ctx),
        ("stress-replay", true) => stress_replay::run_traced(&ctx),
        ("serve-short", false) => serve_short::run(&ctx),
        _ => serve_short::run_traced(&ctx),
    };
    drop(ctx);
    match result {
        Ok(mut report) => {
            if !trace {
                let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
                report.checks.check(names == END_TO_END, || {
                    format!("reported metrics {names:?} are not the end-to-end set")
                });
            }
            report.print(&workload);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("diq-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
