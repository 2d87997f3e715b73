//! Command-line entry point of the pmcast benchmark.
//!
//! ```text
//! pmcast-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a detail line, then the result line last.  Exits 1 when an
//! output check fails and 2 on bad arguments.

use std::process::ExitCode;

use pmcast_perfbench::{run, span_summary, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let parsed = value
                    .parse::<f64>()
                    .map_err(|_| bad("a number of seconds"))?;
                if !(parsed.is_finite() && parsed > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = run(&args.workload, args.seed, args.seconds, args.trace);
    if args.trace {
        println!("{}", span_summary(&args.workload, &result.metrics));
    }
    for failure in &result.failures {
        eprintln!("check failed: {failure}");
    }
    println!(
        "workload {} seed {} seconds {} trace {}: {} checks failed",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        result.failures.len()
    );
    println!("{}", result.json_line());
    if result.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
