//! Figure 4: relative execution time of the hotness and branch monitors
//! in the compiled tier (the paper's JIT; here the register form, whose
//! probe sites bind intrinsified or generic), with and without probe
//! intrinsification, across PolyBench (ratios relative to uninstrumented
//! execution in the same tier).
//!
//! Emits `BENCH_intrinsify.json` (schema in `EXPERIMENTS.md`) so the
//! perf trajectory accumulates across runs, and prints the same series
//! as a table.

use wizard_bench::json::Json;
use wizard_bench::{baseline, measure, relative, Analysis, System};
use wizard_suites::polybench_suite;

fn main() {
    let scale = wizard_bench::scale();
    let suite = polybench_suite(scale);
    println!("=== Figure 4: JIT with and without intrinsification (PolyBench) ===");
    println!(
        "{:<16} {:>14} {:>14} {:>14} {:>14} {:>12}",
        "benchmark", "hot(intrins)", "hot(JIT)", "br(intrins)", "br(JIT)", "probe fires"
    );
    let mut ranges: [Vec<f64>; 4] = Default::default();
    let mut series = Vec::new();
    for b in &suite {
        let base = baseline(b, System::JitIntrinsified);
        let hi = measure(b, System::JitIntrinsified, Analysis::Hotness);
        let hj = measure(b, System::Jit, Analysis::Hotness);
        let bi = measure(b, System::JitIntrinsified, Analysis::Branch);
        let bj = measure(b, System::Jit, Analysis::Branch);
        assert_eq!(hi.checksum, base.checksum, "{}: perturbed", b.name);
        let r = [
            relative(&hi, &base),
            relative(&hj, &base),
            relative(&bi, &base),
            relative(&bj, &base),
        ];
        for (acc, v) in ranges.iter_mut().zip(r) {
            acc.push(v);
        }
        println!(
            "{:<16} {:>13.2}x {:>13.2}x {:>13.2}x {:>13.2}x {:>12}",
            b.name, r[0], r[1], r[2], r[3], hi.fires
        );
        series.push(Json::object([
            ("benchmark", Json::str(b.name)),
            ("hotness_intrinsified", Json::num(r[0])),
            ("hotness_jit", Json::num(r[1])),
            ("branch_intrinsified", Json::num(r[2])),
            ("branch_jit", Json::num(r[3])),
            ("fires", Json::num(hi.fires as f64)),
        ]));
    }
    let rng = |v: &[f64]| {
        (v.iter().copied().fold(f64::INFINITY, f64::min), v.iter().copied().fold(0.0f64, f64::max))
    };
    println!("\n=== §5.3 summary ===");
    let (a, b) = rng(&ranges[1]);
    println!("hotness JIT (paper 7-134x):             {a:.1}-{b:.1}x");
    let (a, b) = rng(&ranges[0]);
    println!("hotness JIT intrinsified (paper 2.2-7.7x): {a:.1}-{b:.1}x");
    let (a, b) = rng(&ranges[3]);
    println!("branch JIT (paper 1.0-16.6x):           {a:.1}-{b:.1}x");
    let (a, b) = rng(&ranges[2]);
    println!("branch JIT intrinsified (paper 1.0-2.8x):  {a:.1}-{b:.1}x");

    let summary = |v: &[f64]| {
        let (min, max) = rng(v);
        Json::object([("min", Json::num(min)), ("max", Json::num(max))])
    };
    let mut fields = wizard_bench::metadata(
        "fig4_jit_intrinsify",
        &["polybench"],
        &wizard_engine::EngineConfig::default(),
    );
    fields.push(("series".to_string(), Json::array(series)));
    fields.push((
        "summary".to_string(),
        Json::object([
            ("hotness_intrinsified", summary(&ranges[0])),
            ("hotness_jit", summary(&ranges[1])),
            ("branch_intrinsified", summary(&ranges[2])),
            ("branch_jit", summary(&ranges[3])),
        ]),
    ));
    let doc = Json::Obj(fields);
    let path = "BENCH_intrinsify.json";
    std::fs::write(path, format!("{doc}\n")).expect("write BENCH_intrinsify.json");
    println!("\nwrote {path}");
}
