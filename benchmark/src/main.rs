//! `lpbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! lpbench --workload <name> --seed <u64> [--seconds 24] [--trace 0|1] [--shape <u64>]
//! lpbench aa [--runs 5] [--seconds 24]
//! ```
//!
//! See `benchmark/README.md` for the metric and workload definitions.

mod aa;
mod child;
mod corpus;
mod hostspeed;
mod ledger;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::process::ExitCode;
use workloads::{RunArgs, NOMINAL_SECONDS};

/// Value following the flag `name`, if the flag is present.
pub(crate) fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let number = |name: &str, default: Option<u64>| -> Result<u64, String> {
        match (flag(args, name), default) {
            (Some(text), _) => text
                .parse()
                .map_err(|_| format!("{name} {text:?} is not a whole number")),
            (None, Some(default)) => Ok(default),
            (None, None) => Err(format!("{name} is required")),
        }
    };
    let seconds = number("--seconds", Some(NOMINAL_SECONDS))?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(RunArgs {
        workload: flag(args, "--workload")
            .ok_or("--workload is required")?
            .to_string(),
        seed: number("--seed", None)?,
        shape: number("--shape", Some(corpus::DEFAULT_SHAPE))?,
        seconds,
        trace: number("--trace", Some(0))? != 0,
    })
}

fn run_workload(args: &[String]) -> Result<bool, String> {
    let run = parse_run_args(args)?;
    for line in report::environment_header(&run, sys::nproc()) {
        println!("{line}");
    }
    let result = workloads::run(&run)?;
    for line in result.notes.iter().chain(&report::metric_table(&result)) {
        println!("{line}");
    }
    for problem in &result.problems {
        println!("# INCORRECT: {problem}");
    }
    println!("{}", report::result_line(&result)?);
    Ok(result.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("serve-child") => child::serve_child_main(&args[1..]).map(|()| true),
        Some("aa") => aa::main(&args[1..]),
        _ => run_workload(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("lpbench: {message}");
            ExitCode::from(2)
        }
    }
}
