//! Figure 3: relative execution time of the hotness and branch monitors
//! implemented with *local* probes vs a single *global* probe, in the
//! interpreter, across PolyBench. Also prints the §5.2 summary ranges.
//!
//! Emits `BENCH_probes.json` (schema in `EXPERIMENTS.md`) so the perf
//! trajectory accumulates across runs, and prints the same series as a
//! table.

use wizard_bench::json::Json;
use wizard_bench::{baseline, measure, relative, Analysis, System};
use wizard_suites::polybench_suite;

fn main() {
    let scale = wizard_bench::scale();
    let suite = polybench_suite(scale);
    println!("=== Figure 3: hotness & branch, local vs global probes (interpreter) ===");
    println!(
        "{:<16} {:>14} {:>14} {:>14} {:>14} {:>12}",
        "benchmark", "hot(local)", "hot(global)", "br(local)", "br(global)", "probe fires"
    );
    let mut br_local = Vec::new();
    let mut br_global = Vec::new();
    let mut hot_local = Vec::new();
    let mut hot_global = Vec::new();
    let mut series = Vec::new();
    for b in &suite {
        let base = baseline(b, System::Interp);
        let hl = measure(b, System::Interp, Analysis::Hotness);
        let hg = measure(b, System::InterpGlobal, Analysis::Hotness);
        let bl = measure(b, System::Interp, Analysis::Branch);
        let bg = measure(b, System::InterpGlobal, Analysis::Branch);
        assert_eq!(hl.checksum, base.checksum, "{}: hotness perturbed the program", b.name);
        assert_eq!(bl.checksum, base.checksum, "{}: branch perturbed the program", b.name);
        let (rhl, rhg) = (relative(&hl, &base), relative(&hg, &base));
        let (rbl, rbg) = (relative(&bl, &base), relative(&bg, &base));
        hot_local.push(rhl);
        hot_global.push(rhg);
        br_local.push(rbl);
        br_global.push(rbg);
        println!(
            "{:<16} {:>13.2}x {:>13.2}x {:>13.2}x {:>13.2}x {:>12}",
            b.name, rhl, rhg, rbl, rbg, hl.fires
        );
        series.push(Json::object([
            ("benchmark", Json::str(b.name)),
            ("hotness_local", Json::num(rhl)),
            ("hotness_global", Json::num(rhg)),
            ("branch_local", Json::num(rbl)),
            ("branch_global", Json::num(rbg)),
            ("fires", Json::num(hl.fires as f64)),
        ]));
    }
    let rng = |v: &[f64]| {
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(0.0f64, f64::max);
        (min, max)
    };
    println!("\n=== §5.2 summary (paper: branch local 1.0-2.2x vs global 7.7-16.4x) ===");
    let (a, b) = rng(&br_local);
    println!("branch monitor, local probes:  {a:.1}-{b:.1}x");
    let (a, b) = rng(&br_global);
    println!("branch monitor, global probe:  {a:.1}-{b:.1}x");
    let (a, b) = rng(&hot_local);
    println!("hotness monitor, local probes: {a:.1}-{b:.1}x");
    let (a, b) = rng(&hot_global);
    println!("hotness monitor, global probe: {a:.1}-{b:.1}x");

    let summary = |v: &[f64]| {
        let (min, max) = rng(v);
        Json::object([("min", Json::num(min)), ("max", Json::num(max))])
    };
    let mut fields = wizard_bench::metadata(
        "fig3_local_vs_global",
        &["polybench"],
        &wizard_engine::EngineConfig::interpreter_bytecode(),
    );
    fields.push(("series".to_string(), Json::array(series)));
    fields.push((
        "summary".to_string(),
        Json::object([
            ("hotness_local", summary(&hot_local)),
            ("hotness_global", summary(&hot_global)),
            ("branch_local", summary(&br_local)),
            ("branch_global", summary(&br_global)),
        ]),
    ));
    let doc = Json::Obj(fields);
    let path = "BENCH_probes.json";
    std::fs::write(path, format!("{doc}\n")).expect("write BENCH_probes.json");
    println!("\nwrote {path}");
}
