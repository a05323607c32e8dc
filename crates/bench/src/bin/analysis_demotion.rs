//! Fact-driven probe demotion: what static analysis buys the script
//! compiler. Attaches a set of zoo scripts to a workload twice — once
//! with per-site dataflow facts (the default) and once with
//! `ScriptMonitor::without_facts()` — and compares the probe-shape
//! census: how many sites lowered to intrinsified `Count` probes, how
//! many stayed `Operand`/`Generic`, and how many were dropped outright
//! (`none`). Facts may only change *how* a probe observes, never *what*
//! it counts, so the bench also runs each configuration and asserts the
//! reports are row-identical. Emits `BENCH_analysis.json` (schema in
//! `EXPERIMENTS.md`).
//!
//! Environment: `WIZARD_SCALE`, `WIZARD_RUNS` as everywhere else.

use wizard_bench::json::Json;
use wizard_engine::store::Linker;
use wizard_engine::{EngineConfig, Process, Report, Value};
use wizard_script::ScriptMonitor;
use wizard_suites::{all_suites, Benchmark};

/// Zoo scripts with `tos` predicates of varying static decidability.
const SCRIPTS: &[(&str, &str)] = &[
    // Pure counter: already all-Count, facts change nothing.
    ("hotness", "match * do inc exec[site]\nreport \"summary\" total \"execs\" exec"),
    // `tos` over a non-consuming opcode: Generic without facts; where
    // the stack is provably empty the predicate folds and demotes.
    (
        "cold-get",
        "match local.get when tos == 0 do inc cold[site]\n\
         report \"summary\" total \"cold gets\" cold",
    ),
    // `tos` over every site: the broadest demotion surface.
    ("zero-tos", "match * when tos == 0 do inc z[site]\nreport \"summary\" total \"zeros\" z"),
    // `tos` over branches: consumes the operand, stays Operand-shaped.
    (
        "branch-taken",
        "match branch when tos != 0 do inc taken[site]\n\
         report \"summary\" total \"taken\" taken",
    ),
];

struct Census {
    count: usize,
    operand: usize,
    generic: usize,
    dropped: usize,
    report: Report,
}

fn attach_and_run(b: &Benchmark, src: &str, facts: bool) -> Census {
    let mut p = Process::new(b.module.clone(), EngineConfig::default(), &Linker::new())
        .expect("instantiates");
    let mut mon = ScriptMonitor::from_source(src).expect("compiles");
    if !facts {
        mon = mon.without_facts();
    }
    let m = p.attach_monitor(mon).expect("attach");
    let (count, operand, generic) = m.borrow().kind_counts();
    let dropped = m.borrow().dropped_sites();
    p.invoke_export("run", &[Value::I32(b.n)]).expect("runs");
    let report = m.report();
    Census { count, operand, generic, dropped, report }
}

fn main() {
    let scale = wizard_bench::scale();
    let workload = &all_suites(scale)[0];

    println!("=== analysis demotion: probe-shape census, facts off vs on ===");
    println!("workload: {}/{}", workload.suite, workload.name);
    println!(
        "{:<14} {:>22} {:>22} {:>8}",
        "script", "off (cnt/opr/gen/none)", "on (cnt/opr/gen/none)", "rows"
    );

    let mut series = Vec::new();
    let mut any_demoted = false;
    for (name, src) in SCRIPTS {
        let off = attach_and_run(workload, src, false);
        let on = attach_and_run(workload, src, true);
        assert_eq!(on.report, off.report, "{name}: fact-driven lowering changed the reported rows");
        assert!(
            on.generic <= off.generic,
            "{name}: facts may only demote generic probes, never add them"
        );
        any_demoted |= on.generic < off.generic;
        println!(
            "{:<14} {:>6}/{}/{}/{:<6} {:>8}/{}/{}/{:<6} {:>8}",
            name,
            off.count,
            off.operand,
            off.generic,
            off.dropped,
            on.count,
            on.operand,
            on.generic,
            on.dropped,
            "equal"
        );
        series.push(Json::object([
            ("script", Json::str(*name)),
            ("count_off", Json::num(off.count as f64)),
            ("operand_off", Json::num(off.operand as f64)),
            ("generic_off", Json::num(off.generic as f64)),
            ("none_off", Json::num(off.dropped as f64)),
            ("count_on", Json::num(on.count as f64)),
            ("operand_on", Json::num(on.operand as f64)),
            ("generic_on", Json::num(on.generic as f64)),
            ("none_on", Json::num(on.dropped as f64)),
        ]));
    }
    assert!(
        any_demoted,
        "no script lowered fewer generic probes with facts on — the analysis buys nothing"
    );

    let mut fields =
        wizard_bench::metadata("analysis_demotion", &[workload.suite], &EngineConfig::default());
    fields.push(("workload".to_string(), Json::str(workload.name)));
    fields.push(("series".to_string(), Json::array(series)));
    let doc = Json::Obj(fields);
    let path = "BENCH_analysis.json";
    std::fs::write(path, format!("{doc}\n")).expect("write BENCH_analysis.json");
    println!("wrote {path}");
}
