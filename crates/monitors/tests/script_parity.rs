//! Report-for-report parity between wizard-script programs and the
//! hand-written zoo monitors, on the Richards benchmark: the scripted
//! hotness / branch / coverage analyses must produce *identical* reports
//! (same title, same sections, same rows, same values, same order) —
//! the acceptance gate for "instrumentation as data".

use wizard_engine::store::Linker;
use wizard_engine::{EngineConfig, Monitor, ProbeKind, Process, Report, RunOutcome, Value};
use wizard_monitors::{BranchMonitor, CoverageMonitor, HotnessMonitor};
use wizard_pool::{Job, Pool, PoolConfig};
use wizard_script::ScriptMonitor;

const RICHARDS_LOOPS: i32 = 30;

const HOTNESS: &str = r#"
monitor "hotness"
match * do inc exec[site]
report "top locations" top 20 exec
report "summary" total "total instruction executions" exec
"#;

const BRANCH: &str = r#"
monitor "branch"
match branch when op == br_table || tos != 0 do inc taken[site]
match branch when op != br_table && tos == 0 do inc fall[site]
report "branch profile" ratio "taken" taken / fall
report "summary" total "total branches" taken + fall
"#;

const COVERAGE: &str = r#"
monitor "coverage"
match * once do inc hit[site]
report "per-function" perfunc hit
report "summary" percent "overall %" hit
"#;

/// Runs richards under a monitor, returning its final report.
fn run_with<M: Monitor + 'static>(config: EngineConfig, monitor: M) -> Report {
    let b = wizard_suites::richards_benchmark(RICHARDS_LOOPS);
    let mut p = Process::new(b.module, config, &Linker::new()).expect("richards instantiates");
    let m = p.attach_monitor(monitor).expect("attach");
    p.invoke_export("run", &[Value::I32(b.n)]).expect("runs");
    m.report()
}

fn assert_row_for_row(scripted: &Report, handwritten: &Report) {
    assert_eq!(scripted.title, handwritten.title);
    assert_eq!(
        scripted.sections.len(),
        handwritten.sections.len(),
        "section count: {scripted} vs {handwritten}"
    );
    for (s, h) in scripted.sections.iter().zip(&handwritten.sections) {
        assert_eq!(s.name, h.name);
        assert_eq!(s.rows.len(), h.rows.len(), "row count in [{}]", s.name);
        for (sr, hr) in s.rows.iter().zip(&h.rows) {
            assert_eq!(sr, hr, "row mismatch in [{}]", s.name);
        }
    }
    // Belt and braces: the whole structure compares equal.
    assert_eq!(scripted, handwritten);
}

#[test]
fn scripted_hotness_matches_the_zoo_row_for_row() {
    for config in [EngineConfig::interpreter(), EngineConfig::tiered()] {
        let scripted =
            run_with(config.clone(), ScriptMonitor::from_source(HOTNESS).expect("parses"));
        let handwritten = run_with(config, HotnessMonitor::new());
        assert_row_for_row(&scripted, &handwritten);
    }
}

/// Richards in `fuel`-sized slices, the monitor detached and a fresh one
/// attached at every slice boundary: one report per session. Both
/// spellings count per run, so this is where their mid-run corrections
/// (attach and detach while suspended inside a run) must agree.
fn sliced_sessions<M: Monitor + 'static>(
    config: EngineConfig,
    fuel: u64,
    monitor: impl Fn() -> M,
) -> Vec<Report> {
    let b = wizard_suites::richards_benchmark(RICHARDS_LOOPS);
    let mut p = Process::new(b.module, config, &Linker::new()).expect("richards instantiates");
    let mut reports = Vec::new();
    let mut m = p.attach_monitor(monitor()).expect("attach");
    let mut out = p.run_export_bounded("run", &[Value::I32(b.n)], fuel).expect("runs");
    while out == RunOutcome::OutOfFuel {
        p.detach_monitor(m.handle()).expect("detach");
        reports.push(m.report());
        m = p.attach_monitor(monitor()).expect("attach");
        out = p.resume(fuel).expect("runs");
    }
    p.detach_monitor(m.handle()).expect("detach");
    reports.push(m.report());
    reports
}

#[test]
fn scripted_hotness_matches_the_zoo_in_every_session_of_a_sliced_run() {
    for config in [EngineConfig::interpreter(), EngineConfig::tiered()] {
        let scripted = sliced_sessions(config.clone(), 37, || {
            ScriptMonitor::from_source(HOTNESS).expect("parses")
        });
        let handwritten = sliced_sessions(config.clone(), 37, HotnessMonitor::new);
        assert!(scripted.len() > 20, "richards really was sliced: {}", scripted.len());
        assert_eq!(scripted.len(), handwritten.len());
        let (mut all_s, mut all_h) = (Report::new("hotness"), Report::new("hotness"));
        for (s, h) in scripted.iter().zip(&handwritten) {
            assert_row_for_row(s, h);
            all_s.merge(s);
            all_h.merge(h);
        }
        // And the sessions add up to the uninterrupted run.
        let whole = run_with(config, HotnessMonitor::new());
        let total = |r: &Report| r.get("summary").unwrap().count_of("total instruction executions");
        assert_eq!(total(&all_s), total(&whole));
        assert_eq!(total(&all_h), total(&whole));
    }
}

#[test]
fn scripted_hotness_matches_the_zoo_across_a_mid_run_trap() {
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::ValType::I32;

    // run(n) = sum of 100 / (n - i - 3) for i in 0..n: traps at i == n - 3
    // (if n >= 3), in the middle of the loop body's straight-line run.
    let mut mb = ModuleBuilder::new();
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let i = f.local(I32);
    let acc = f.local(I32);
    f.for_range(i, 0, |f| {
        f.i32_const(100).local_get(0).local_get(i).i32_sub().i32_const(3).i32_sub().i32_div_s();
        f.local_get(acc).i32_add().local_set(acc);
    });
    f.local_get(acc);
    mb.add_func("run", f);
    let module = mb.build().unwrap();

    // The report after the first trap, and after a clean run and a second
    // trap on top of it.
    fn reports<M: Monitor + 'static>(
        module: &wizard_wasm::module::Module,
        config: &EngineConfig,
        monitor: M,
    ) -> (Report, Report) {
        let mut p = Process::new(module.clone(), config.clone(), &Linker::new()).unwrap();
        let m = p.attach_monitor(monitor).unwrap();
        assert!(p.invoke_export("run", &[Value::I32(9)]).is_err(), "divides by zero");
        let trapped = m.report();
        p.invoke_export("run", &[Value::I32(2)]).expect("no zero divisor in 0..2");
        assert!(p.invoke_export("run", &[Value::I32(5)]).is_err());
        (trapped, m.report())
    }

    for config in [EngineConfig::interpreter(), EngineConfig::jit(), EngineConfig::tiered()] {
        let scripted = reports(&module, &config, ScriptMonitor::from_source(HOTNESS).unwrap());
        let handwritten = reports(&module, &config, HotnessMonitor::new());
        assert_row_for_row(&scripted.0, &handwritten.0);
        assert_row_for_row(&scripted.1, &handwritten.1);
        // The instruction-by-instruction count agrees too: the suffix of
        // the abandoned run was debited.
        let mut p =
            Process::new(module.clone(), EngineConfig::interpreter(), &Linker::new()).unwrap();
        let oracle = p
            .attach_monitor(HotnessMonitor::with_mode(wizard_monitors::ProbeMode::Global))
            .unwrap();
        assert!(p.invoke_export("run", &[Value::I32(9)]).is_err());
        assert_row_for_row(&handwritten.0, &oracle.report());
    }
}

#[test]
fn scripted_branch_matches_the_zoo_row_for_row() {
    for config in [EngineConfig::interpreter(), EngineConfig::tiered()] {
        let scripted =
            run_with(config.clone(), ScriptMonitor::from_source(BRANCH).expect("parses"));
        let handwritten = run_with(config, BranchMonitor::new());
        assert_row_for_row(&scripted, &handwritten);
    }
}

#[test]
fn scripted_coverage_matches_the_zoo_row_for_row() {
    for config in [EngineConfig::interpreter(), EngineConfig::tiered()] {
        let scripted =
            run_with(config.clone(), ScriptMonitor::from_source(COVERAGE).expect("parses"));
        let handwritten = run_with(config, CoverageMonitor::new());
        assert_row_for_row(&scripted, &handwritten);
    }
}

#[test]
fn counter_only_script_lowers_to_intrinsified_count_probes() {
    let b = wizard_suites::richards_benchmark(RICHARDS_LOOPS);
    let mut p = Process::new(b.module, EngineConfig::jit(), &Linker::new()).expect("instantiates");
    let m = p.attach_monitor(ScriptMonitor::from_source(HOTNESS).expect("parses")).expect("attach");
    let mon = m.borrow();
    let (count, operand, generic) = mon.kind_counts();
    // `match *` covers every straight-line run completely, so the bump is
    // counted per run: one Count probe on each run's leader.
    let runs = p.artifact().runs();
    let probed: std::collections::BTreeSet<_> = mon.lowering().iter().map(|l| l.loc).collect();
    assert_eq!((probed.len(), p.probed_location_count()), (count, count));
    assert!(count > 20 && runs.sites().len() > 5 * count, "{} sites", runs.sites().len());
    // Only the runs the analysis proves dead go without a probe.
    let unprobed = (0..runs.len()).filter(|&r| !probed.contains(&runs.leader(r)));
    assert_eq!(unprobed.map(|r| runs.run(r).len()).sum::<usize>(), mon.dropped_sites());
    assert_eq!((operand, generic), (0, 0), "pure counter script must not need slow paths");
    // The engine's own view agrees at every probed location.
    for l in mon.lowering() {
        assert!(
            p.probe_kinds_at(l.loc.func, l.loc.pc).iter().all(|k| *k == ProbeKind::Count),
            "site {} not intrinsifiable",
            l.loc
        );
    }
}

#[test]
fn branch_script_classification_splits_by_opcode() {
    let b = wizard_suites::richards_benchmark(RICHARDS_LOOPS);
    let mut p = Process::new(b.module, EngineConfig::jit(), &Linker::new()).expect("instantiates");
    let m = p.attach_monitor(ScriptMonitor::from_source(BRANCH).expect("parses")).expect("attach");
    let mon = m.borrow();
    let (_, operand, generic) = mon.kind_counts();
    assert!(operand > 0, "if/br_if sites become operand probes");
    assert_eq!(generic, 0, "the branch rules never need a generic probe");
}

#[test]
fn br_table_sites_fold_to_pure_counters() {
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::{BlockType, ValType::I32};

    // switch (x) { 0, 1, default } — one br_table, no other branches.
    let mut mb = ModuleBuilder::new();
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    f.block(BlockType::Empty);
    f.block(BlockType::Empty);
    f.block(BlockType::Empty);
    f.local_get(0).br_table(&[0, 1], 2);
    f.end();
    f.end();
    f.end();
    f.i32_const(7);
    mb.add_func("switch", f);
    let mut p = Process::new(mb.build().unwrap(), EngineConfig::jit(), &Linker::new()).unwrap();

    let m = p.attach_monitor(ScriptMonitor::from_source(BRANCH).expect("parses")).expect("attach");
    {
        let mon = m.borrow();
        // Rule 1 folded to a pure counter at the br_table site; rule 2
        // folded to false there — the only branch site needs no dynamic
        // predicate at all.
        let (count, operand, generic) = mon.kind_counts();
        assert_eq!((count, operand, generic), (1, 0, 0));
        assert_eq!(mon.dropped_sites(), 1, "`op != br_table && tos == 0` proven dead");
        assert!(mon.lowering()[0].residual.is_none());
        assert!(p
            .probe_kinds_at(mon.lowering()[0].loc.func, mon.lowering()[0].loc.pc)
            .iter()
            .all(|k| *k == ProbeKind::Count));
    }
    p.invoke_export("switch", &[Value::I32(1)]).unwrap();
    let r = m.report();
    assert_eq!(r.get("summary").unwrap().count_of("total branches"), Some(1));
}

#[test]
fn script_fleet_merges_like_handwritten_fleet() {
    let b = wizard_suites::richards_benchmark(RICHARDS_LOOPS);
    let factory = wizard_script::monitor_factory(HOTNESS).expect("compiles");

    let run_fleet = |scripted: bool| -> Report {
        let mut pool = Pool::new(PoolConfig {
            shards: 2,
            engine: EngineConfig::builder().fuel_slice(500).build(),
        });
        for k in 0..4 {
            let job = Job::new(format!("r-{k}"), b.module.clone(), "run", vec![Value::I32(b.n)]);
            let job = if scripted {
                job.with_monitor_factory(factory.clone())
            } else {
                job.with_monitor(HotnessMonitor::new)
            };
            pool.submit(job);
        }
        let outcome = pool.run();
        assert!(outcome.all_ok());
        assert!(outcome.stats.suspensions > 0, "fleet really was fuel-sliced");
        outcome.merged_report("hotness").expect("merged report").clone()
    };

    assert_row_for_row(&run_fleet(true), &run_fleet(false));
}
