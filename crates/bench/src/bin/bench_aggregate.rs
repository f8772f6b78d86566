//! Measures the server's serial aggregate phase and writes a
//! machine-readable report (`BENCH_pr10.json` by default), or gates a
//! fresh report against the checked-in baseline.
//!
//! Usage: `bench_aggregate [output.json] [--reps N]`
//!        `bench_aggregate --gate <current.json> <baseline.json>`

use std::process::ExitCode;
use threelc_bench::aggregate_perf::{self, AggregateBenchReport};

fn read_report(path: &str) -> Result<AggregateBenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: not an aggregate bench report: {e}"))
}

fn gate(current: &str, baseline: &str) -> ExitCode {
    let (current, baseline) = match (read_report(current), read_report(baseline)) {
        (Ok(c), Ok(b)) => (c, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match aggregate_perf::gate(&current, &baseline) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(violations) => {
            eprintln!("aggregate bench gate FAILED:\n{violations}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--gate") {
        let [_, current, baseline] = args.as_slice() else {
            eprintln!("usage: bench_aggregate --gate <current.json> <baseline.json>");
            return ExitCode::from(2);
        };
        return gate(current, baseline);
    }

    let mut out = "BENCH_pr10.json".to_string();
    let mut reps = 5usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reps" => match it.next().map(|v| v.parse()) {
                Some(Ok(n)) => reps = n,
                _ => {
                    eprintln!("--reps requires an integer value");
                    return ExitCode::from(2);
                }
            },
            other if other.starts_with("--") => {
                eprintln!(
                    "unknown flag `{other}`\nusage: bench_aggregate [output.json] [--reps N] | bench_aggregate --gate <current.json> <baseline.json>"
                );
                return ExitCode::from(2);
            }
            path => out = path.to_string(),
        }
    }

    let report = aggregate_perf::measure(reps);
    print!("{}", report.render());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Err(e) = std::fs::write(&out, json + "\n") {
        eprintln!("{out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    ExitCode::SUCCESS
}
