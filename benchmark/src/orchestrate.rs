//! `run`: every workload, one process each. The orchestrator re-executes
//! this binary once per workload and pass, sequentially, so `peak_rss_mb`
//! is per workload and allocator state does not leak between workloads.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use crate::inputs::bench_dir;
use crate::json::Json;
use crate::metrics::{END_TO_END, EXACT, PER_LAYER, WORKLOADS};
use crate::{take, take_flag};

pub const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`, for runs started by hand.
pub const DEFAULT_SECONDS: f64 = 18.0;
const SMOKE_SECONDS: f64 = 0.5;

/// One child run: the parsed result line plus the block-spread line.
struct Child {
    result: Json,
    block_spread: Json,
}

fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot re-execute the benchmark: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or(format!("{workload}: the run printed no result"))?;
    let spread = lines.next().unwrap_or("{}");
    let child = Child { result: Json::parse(result)?, block_spread: Json::parse(spread)? };
    // A failed verification exits non-zero but still prints its result.
    if !out.status.success() && child.result.get("failed").is_none() {
        return Err(format!("{workload}: the run exited with {}", out.status));
    }
    Ok(child)
}

/// Every name `BENCHMARK.json` lists under `key`.
fn declared(doc: &Json, key: &str) -> Vec<String> {
    let list = doc.get(key).and_then(Json::as_arr).unwrap_or_default();
    list.iter().filter_map(|m| m.get("name")?.as_str().map(str::to_owned)).collect()
}

/// The emitted names must be exactly those `BENCHMARK.json` declares.
pub fn schema_check(doc: &Json) -> Result<(), String> {
    let same = |what: &str, declared: Vec<String>, emitted: Vec<&str>| {
        if declared == emitted {
            Ok(())
        } else {
            Err(format!("BENCHMARK.json {what} {declared:?} differ from the emitted {emitted:?}"))
        }
    };
    same("workloads", declared(doc, "workloads"), WORKLOADS.to_vec())?;
    same("end_to_end", declared(doc, "end_to_end"), END_TO_END.iter().map(|m| m.0).collect())?;
    same("per_layer", declared(doc, "per_layer"), PER_LAYER.iter().map(|m| m.0).collect())
}

pub fn benchmark_json() -> Result<Json, String> {
    let path = match bench_dir().parent() {
        Some(root) if !root.as_os_str().is_empty() => root.join("BENCHMARK.json"),
        _ => PathBuf::from("BENCHMARK.json"),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Same seed twice, another seed once: the exact counts of the
/// single-threaded workloads must be identical in all three.
fn check_determinism(workloads: &[&str], seed: u64) -> Result<(), String> {
    for &w in workloads.iter().filter(|w| **w != "serve_mixed") {
        let runs = [
            child(w, seed, SMOKE_SECONDS, true)?,
            child(w, seed, SMOKE_SECONDS, true)?,
            child(w, seed + 1, SMOKE_SECONDS, true)?,
        ];
        for name in EXACT {
            let values: Vec<Option<f64>> =
                runs.iter().map(|r| metric_value(&r.result, name)).collect();
            if values[0].is_none() || values.iter().any(|v| *v != values[0]) {
                return Err(format!(
                    "{w}: {name} is not exact: {values:?} (seed {seed}, seed {seed} again, seed {})",
                    seed + 1
                ));
            }
        }
        eprintln!(
            "{w}: {} exact counts identical across same-seed and other-seed runs",
            EXACT.len()
        );
    }
    Ok(())
}

pub fn run(mut args: Vec<String>) -> Result<ExitCode, String> {
    let seed = take(&mut args, "--seed")?.unwrap_or(DEFAULT_SEED);
    let smoke = take_flag(&mut args, "--smoke");
    let trace = take_flag(&mut args, "--trace") || smoke;
    let determinism = take_flag(&mut args, "--check-determinism");
    let only: Option<String> = take(&mut args, "--workload")?;
    let out: Option<PathBuf> = take(&mut args, "--out")?;
    let declared_seconds = || benchmark_json().ok()?.get("run_seconds")?.as_f64();
    let seconds = match take(&mut args, "--seconds")? {
        Some(s) => s,
        None if smoke => SMOKE_SECONDS,
        None => declared_seconds().unwrap_or(DEFAULT_SECONDS),
    };
    if !args.is_empty() {
        return Err(format!("unexpected arguments {args:?}"));
    }
    let workloads: Vec<&str> = match &only {
        Some(w) if WORKLOADS.contains(&w.as_str()) => vec![w.as_str()],
        Some(w) => return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}")),
        None => WORKLOADS.to_vec(),
    };
    if smoke {
        schema_check(&benchmark_json()?)?;
        eprintln!("schema: emitted names match BENCHMARK.json");
    }
    if determinism {
        check_determinism(&workloads, seed)?;
    }

    let mut failed = 0.0;
    let mut rows = Vec::new();
    for &w in &workloads {
        let untraced = child(w, seed, seconds, false)?;
        failed += untraced.result.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
        let mut row = vec![
            ("end_to_end", untraced.result),
            (
                "block_spread",
                untraced.block_spread.get("block_spread").cloned().unwrap_or(Json::Null),
            ),
        ];
        if trace {
            let traced = child(w, seed, seconds, true)?;
            failed += traced.result.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
            row.push(("per_layer", traced.result));
        }
        rows.push((w, Json::obj(row)));
    }
    let nproc = crate::workloads::host_parallelism();
    let doc = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("nproc", Json::Num(nproc as f64)),
        ("workloads", Json::obj(rows)),
    ]);
    let path = out.unwrap_or_else(|| bench_dir().join("out").join(format!("run_seed{seed}.json")));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&path, doc.to_string() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("results written to {}", path.display());
    Ok(if failed == 0.0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    #[test]
    fn emitted_names_match_benchmark_json() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = crate::json::Json::parse(&std::fs::read_to_string(root).unwrap()).unwrap();
        super::schema_check(&doc).unwrap();
    }
}
