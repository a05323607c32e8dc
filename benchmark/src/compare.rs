//! `compare`: two result files of `run` against the bounds fixed in
//! `BENCHMARK.json`, one row per (metric, workload) — and `--pairs`, the
//! rule a claimed gain has to pass.

use std::process::ExitCode;

use crate::json::Json;
use crate::orchestrate::benchmark_json;
use crate::stats::{median, quartiles};
use crate::take_flag;

/// A claim needs at least this many parent/change pairs…
const MIN_PAIRS: usize = 10;
/// …and the change must win this share of them (ties count for neither).
const WIN_SHARE: f64 = 0.9;

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared() -> Result<Vec<Declared>, String> {
    let doc = benchmark_json()?;
    let list = doc.get("end_to_end").and_then(Json::as_arr).ok_or("BENCHMARK.json: end_to_end")?;
    list.iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_owned(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".into())
}

fn load(path: &str) -> Result<Json, String> {
    Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
}

fn workloads(doc: &Json) -> Vec<&str> {
    let pairs = doc.get("workloads").and_then(Json::as_obj).unwrap_or_default();
    pairs.iter().map(|(w, _)| w.as_str()).collect()
}

fn value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    let row = doc.get("workloads")?.get(workload)?;
    row.get("end_to_end")?.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn block_spread(doc: &Json, workload: &str, metric: &str) -> f64 {
    let spread = || doc.get("workloads")?.get(workload)?.get("block_spread")?.get(metric)?.as_f64();
    spread().unwrap_or(0.0)
}

/// By how much of `a` is `b` worse (negative = better).
fn worse_by(d: &Declared, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if d.lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

pub fn verdict(worse: f64, bound: f64, spread_a: f64, spread_b: f64) -> &'static str {
    if spread_a > bound || spread_b > bound {
        "unresolved"
    } else if worse > bound {
        "REGRESSION"
    } else if worse < -bound {
        "better"
    } else {
        "within bound"
    }
}

fn compare_two(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let metrics = declared()?;
    let mut regressions = 0;
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for w in workloads(&a) {
        for d in &metrics {
            let (Some(va), Some(vb)) = (value(&a, w, &d.name), value(&b, w, &d.name)) else {
                println!("{w:<12} {:<16} missing on one side", d.name);
                regressions += 1;
                continue;
            };
            let worse = worse_by(d, va, vb);
            let v =
                verdict(worse, d.bound, block_spread(&a, w, &d.name), block_spread(&b, w, &d.name));
            regressions += usize::from(v == "REGRESSION");
            println!(
                "{w:<12} {:<16} {va:>14.4} {vb:>14.4} {:>+8.1}% {:>6.0}%  {v}",
                d.name,
                worse * 100.0,
                d.bound * 100.0
            );
        }
    }
    Ok(if regressions == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The outcome of the pair rule for one (metric, workload).
#[derive(Debug, PartialEq)]
pub struct PairRule {
    pub wins: usize,
    pub losses: usize,
    pub median_a: f64,
    pub median_b: f64,
    pub iqr_a: f64,
    pub gain: bool,
}

/// `a[i]` and `b[i]` are the parent's and the change's value in pair `i`.
pub fn pair_rule(a: &[f64], b: &[f64], lower_is_better: bool) -> PairRule {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let wins = a.iter().zip(b).filter(|(a, b)| better(**b, **a)).count();
    let losses = a.iter().zip(b).filter(|(a, b)| better(**a, **b)).count();
    let (median_a, median_b) = (median(a), median(b));
    let (q1, q3) = quartiles(a);
    let iqr_a = q3 - q1;
    let gain = a.len() >= MIN_PAIRS
        && wins as f64 >= WIN_SHARE * a.len() as f64
        && better(median_b, median_a)
        && (median_b - median_a).abs() > iqr_a;
    PairRule { wins, losses, median_a, median_b, iqr_a, gain }
}

fn compare_pairs(paths: &[String]) -> Result<ExitCode, String> {
    if !paths.len().is_multiple_of(2) || paths.len() < 2 * MIN_PAIRS {
        return Err(format!(
            "--pairs takes A1 B1 A2 B2 …: at least {MIN_PAIRS} pairs, alternating which side ran first"
        ));
    }
    let docs = paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>()?;
    let metrics = declared()?;
    println!(
        "{:<12} {:<16} {:>5} {:>6} {:>14} {:>14} {:>12}  claim",
        "workload", "metric", "wins", "losses", "median A", "median B", "IQR of A"
    );
    for w in workloads(&docs[0]) {
        for d in &metrics {
            let side = |offset: usize| -> Option<Vec<f64>> {
                docs.iter().skip(offset).step_by(2).map(|doc| value(doc, w, &d.name)).collect()
            };
            let (Some(a), Some(b)) = (side(0), side(1)) else {
                println!("{w:<12} {:<16} missing in some file", d.name);
                continue;
            };
            let r = pair_rule(&a, &b, d.lower_is_better);
            println!(
                "{w:<12} {:<16} {:>5} {:>6} {:>14.4} {:>14.4} {:>12.4}  {}",
                d.name,
                r.wins,
                r.losses,
                r.median_a,
                r.median_b,
                r.iqr_a,
                if r.gain { "gain" } else { "no claim" }
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

pub fn main(mut args: Vec<String>) -> Result<ExitCode, String> {
    if take_flag(&mut args, "--pairs") {
        return compare_pairs(&args);
    }
    match args.as_slice() {
        [a, b] => compare_two(a, b),
        _ => Err("compare takes A.json B.json, or --pairs A1 B1 A2 B2 …".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_respect_bound_and_spread() {
        assert_eq!(verdict(0.04, 0.10, 0.01, 0.02), "within bound");
        assert_eq!(verdict(0.14, 0.10, 0.01, 0.02), "REGRESSION");
        assert_eq!(verdict(-0.2, 0.10, 0.01, 0.02), "better");
        assert_eq!(verdict(0.14, 0.10, 0.12, 0.02), "unresolved", "spread wider than the bound");
    }

    #[test]
    fn pair_rule_needs_wins_and_a_gap_beyond_the_parents_spread() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let faster: Vec<f64> = a.iter().map(|x| x - 20.0).collect();
        let r = pair_rule(&a, &faster, true);
        assert!(r.gain && r.wins == 10 && r.losses == 0, "{r:?}");

        // Wins every pair, but by less than the parent's own spread.
        let barely: Vec<f64> = a.iter().map(|x| x - 1.0).collect();
        assert!(!pair_rule(&a, &barely, true).gain);

        // Large gap but only 8 of 10 wins.
        let mut mixed = faster.clone();
        mixed[0] = 500.0;
        mixed[1] = 500.0;
        assert!(!pair_rule(&a, &mixed, true).gain);

        // Nine pairs are not enough, whatever they say.
        assert!(!pair_rule(&a[..9], &faster[..9], true).gain);

        // Higher-is-better metrics flip the comparison.
        assert!(pair_rule(&faster, &a, false).gain);
    }
}
