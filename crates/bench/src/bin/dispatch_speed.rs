//! Dispatch speed: classic byte-walking dispatch vs the production
//! interpreter tiers, on richards + PolyBench, interpreter-only and
//! tiered.
//!
//! Two dispatchers, selectable via [`wizard_engine::Dispatch`] and kept
//! comparable on purpose:
//!
//! * `Bytecode` — the paper's in-place interpreter: LEB128 immediates and
//!   side-table branch resolution paid per executed instruction.
//! * `Register` (the default) — clean code runs the register IR: locals
//!   and stack slots are numbered registers, `local.get`/consts fold into
//!   inline operands, and the stack traffic disappears from the hot loop
//!   entirely.
//!
//! Emits `BENCH_dispatch.json` (series schema v3, see `EXPERIMENTS.md`)
//! with the shared metadata block, per-benchmark times for both
//! dispatchers in both modes, and geomean speedups. Outside smoke mode the
//! register interpreter geomean must reach ≥ 2.0× over bytecode — the
//! acceptance bar of the register tier.
//!
//! Environment: `WIZARD_SCALE`, `WIZARD_RUNS`, `WIZARD_SMOKE`.

use std::time::{Duration, Instant};

use wizard_bench::json::Json;
use wizard_bench::{geomean, metadata};
use wizard_engine::store::Linker;
use wizard_engine::{Dispatch, EngineConfig, Process, Value};
use wizard_suites::Benchmark;

/// Best-of-N wall time and checksum of an uninstrumented run under
/// `config`.
///
/// Unlike the figure benches (which follow §5.1 and time the entire
/// program), this measures *execution only*: instantiation — module
/// clone, validation, linking — is identical under all dispatchers and
/// would only dilute the dispatch ratio being measured. One warmup
/// invocation per process absorbs lazy lowering/compilation, and the
/// *minimum* over `WIZARD_RUNS` repetitions is reported — the standard
/// microbenchmark estimator for "dispatch cost without scheduler noise".
fn time_config(b: &Benchmark, config: &EngineConfig) -> (Duration, u64) {
    let n = wizard_bench::runs();
    let mut best = Duration::MAX;
    let mut checksum = 0;
    let mut p = Process::new(b.module.clone(), config.clone(), &Linker::new())
        .expect("benchmark instantiates");
    p.invoke_export("run", &[Value::I32(b.n)]).expect("warmup runs");
    for _ in 0..n {
        let start = Instant::now();
        let r = p.invoke_export("run", &[Value::I32(b.n)]).expect("runs");
        best = best.min(start.elapsed());
        checksum = r.first().map_or(0, |v| v.to_slot().0);
    }
    (best, checksum)
}

/// One mode's dispatcher pair (bytecode / register).
struct Cells {
    label: &'static str,
    bytecode: EngineConfig,
    register: EngineConfig,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(base: Duration, x: Duration) -> f64 {
    base.as_secs_f64() / x.as_secs_f64().max(1e-9)
}

fn main() {
    let scale = wizard_bench::scale();
    let mut suite = vec![wizard_suites::richards_benchmark(match scale {
        wizard_suites::Scale::Test => 50,
        wizard_suites::Scale::Small => 300,
        wizard_suites::Scale::Medium => 1000,
    })];
    suite.extend(wizard_suites::polybench_suite(scale));

    let modes = [
        Cells {
            label: "interp",
            bytecode: EngineConfig::interpreter_bytecode(),
            register: EngineConfig::interpreter(),
        },
        Cells {
            label: "tiered",
            bytecode: EngineConfig::builder().dispatch(Dispatch::Bytecode).build(),
            register: EngineConfig::tiered(),
        },
    ];

    println!("=== dispatch speed: bytecode vs register dispatch ===");
    println!(
        "{:<16} {:<7} {:>12} {:>12} {:>9}",
        "benchmark", "mode", "bytecode", "register", "reg/byte"
    );

    let mut series = Vec::new();
    // Per-mode speedup series for geomeans.
    let mut speedups: [Vec<f64>; 2] = Default::default();
    for b in &suite {
        let mut fields = vec![("benchmark".to_string(), Json::str(b.name))];
        for (mi, m) in modes.iter().enumerate() {
            let (tb, cs_b) = time_config(b, &m.bytecode);
            let (tr, cs_r) = time_config(b, &m.register);
            assert_eq!(cs_r, cs_b, "{}/{}: register tier changed the result", b.name, m.label);
            let sr = ratio(tb, tr);
            speedups[mi].push(sr);
            println!(
                "{:<16} {:<7} {:>10.2}ms {:>10.2}ms {:>8.2}x",
                b.name,
                m.label,
                ms(tb),
                ms(tr),
                sr
            );
            fields.push((
                format!("{}_ms", m.label),
                Json::object([("bytecode", Json::num(ms(tb))), ("register", Json::num(ms(tr)))]),
            ));
            fields.push((
                format!("{}_speedup", m.label),
                Json::object([("register", Json::num(sr))]),
            ));
        }
        series.push(Json::Obj(fields));
    }

    let g = |mi: usize| geomean(&speedups[mi]);
    println!("\ngeomean interpreter speedup vs bytecode: register {:.2}x", g(0));
    println!("geomean tiered speedup vs bytecode:      register {:.2}x", g(1));

    // Assert before writing: a regression run must not leave a failing
    // row for trajectory tooling to ingest.
    if wizard_bench::smoke() {
        println!("(smoke mode: skipping the geomean assertion)");
    } else {
        let gr = g(0);
        assert!(
            gr >= 2.0,
            "register interpreter dispatch must be >=2.0x over byte dispatch (got {gr:.2}x)"
        );
    }

    let mut fields =
        metadata("dispatch_speed", &["richards", "polybench"], &EngineConfig::interpreter());
    fields.push(("series_schema".to_string(), Json::num(3.0)));
    fields.push(("series".to_string(), Json::array(series)));
    fields.push((
        "summary".to_string(),
        Json::object([
            ("interp_geomean_register", Json::num(g(0))),
            ("tiered_geomean_register", Json::num(g(1))),
        ]),
    ));
    let doc = Json::Obj(fields);
    let path = "BENCH_dispatch.json";
    std::fs::write(path, format!("{doc}\n")).expect("write BENCH_dispatch.json");
    println!("wrote {path}");
}
