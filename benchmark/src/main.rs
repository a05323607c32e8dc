//! wizard-rs's one layered benchmark. See `benchmark/README.md`.
//!
//! ```text
//! wizard-benchmark --workload W --seed N --seconds S --trace 0|1   one measured run (the driver's form)
//! wizard-benchmark run [--seed N] [--seconds S] [--trace] [--smoke]
//!                      [--workload W] [--check-determinism] [--out F] every workload, one process each
//! wizard-benchmark compare A.json B.json                            deltas against the fixed bounds
//! wizard-benchmark compare --pairs A1 B1 A2 B2 ...                  the ten-pair rule
//! wizard-benchmark gen-inputs                                       (feature `gen-inputs`) refreeze inputs
//! ```

mod compare;
#[cfg(feature = "gen-inputs")]
mod gen;
mod inputs;
mod json;
mod metrics;
mod orchestrate;
mod run;
mod spans;
mod stats;
mod surface;
mod workloads;

use std::process::ExitCode;

use json::Json;
use run::{RunArgs, RunResult};
use workloads::Workload;

/// Pulls `--flag value` out of `args`; `Err` if the value is missing or
/// does not parse.
fn take<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let raw = args.remove(i + 1);
    args.remove(i);
    raw.parse().map(Some).map_err(|_| format!("{flag}: cannot read {raw:?}"))
}

/// Pulls a bare `--flag` out of `args`.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(r: &RunResult) -> Json {
    let metrics = r.metrics.iter().map(|(name, value, unit)| {
        (*name, Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]))
    });
    Json::obj([
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// One measured run, as the driver invokes it.
fn measure(mut args: Vec<String>) -> Result<ExitCode, String> {
    let name: String = take(&mut args, "--workload")?.ok_or("--workload is required")?;
    let workload = Workload::parse(&name)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {:?}", metrics::WORKLOADS))?;
    let seed = take(&mut args, "--seed")?.unwrap_or(orchestrate::DEFAULT_SEED);
    let seconds = take(&mut args, "--seconds")?.unwrap_or(orchestrate::DEFAULT_SECONDS);
    let trace = match take::<u8>(&mut args, "--trace")? {
        None | Some(0) => false,
        Some(1) => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if !args.is_empty() {
        return Err(format!("unexpected arguments {args:?}"));
    }

    let r = run::run(&RunArgs { workload, seed, seconds, trace })?;
    for note in &r.notes {
        eprintln!("{note}");
    }
    for (name, value, unit) in &r.metrics {
        eprintln!("  {name:<32} {value:>16.6} {unit}");
    }
    for why in &r.failures {
        eprintln!("FAILED {why}");
    }
    // The line before the result carries what the contract's line has no
    // room for; `run` and `compare` read it, the driver ignores it.
    let spread = r.block_spread.iter().map(|(n, s)| (*n, Json::Num(*s)));
    println!("{}", Json::obj([("block_spread", Json::obj(spread))]));
    println!("{}", result_line(&r));
    Ok(if r.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => orchestrate::run(args.split_off(1)),
        Some("compare") => compare::main(args.split_off(1)),
        #[cfg(feature = "gen-inputs")]
        Some("gen-inputs") => {
            gen::generate(std::path::Path::new("."), &inputs::bench_dir().join("inputs"))
                .map(|()| ExitCode::SUCCESS)
        }
        _ => measure(args),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("wizard-benchmark: {why}");
        ExitCode::from(2)
    })
}
