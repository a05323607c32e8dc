//! Cross-crate integration tests: monitor composition, instrumentation
//! equivalence across systems, attach→run→detach round-trips, and
//! end-to-end runs over the benchmark suites.

use wizard::engine::store::Linker;
use wizard::engine::{EngineConfig, Process, Value};
use wizard::monitors::{BranchMonitor, CallsMonitor, CoverageMonitor, HotnessMonitor, LoopMonitor};
use wizard::suites::{all_suites, polybench_suite, richards_benchmark, Scale};

fn process(module: wizard::wasm::Module, config: EngineConfig) -> Process {
    Process::new(module, config, &Linker::new()).expect("instantiates")
}

/// The paper's composability claim (§2.4): multiple monitors attach to the
/// same process without explicit coordination and each observes exactly
/// what it would observe alone.
#[test]
fn monitors_compose_without_interference() {
    let bench = polybench_suite(Scale::Test).into_iter().find(|b| b.name == "gemm").unwrap();

    // Solo runs.
    let mut p = process(bench.module.clone(), EngineConfig::tiered());
    let solo_hot = p.attach_monitor(HotnessMonitor::new()).unwrap();
    let solo_result = p.invoke_export("run", &[Value::I32(bench.n)]).unwrap();
    let solo_total = solo_hot.borrow().total();

    let mut p = process(bench.module.clone(), EngineConfig::tiered());
    let solo_br = p.attach_monitor(BranchMonitor::new()).unwrap();
    p.invoke_export("run", &[Value::I32(bench.n)]).unwrap();
    let solo_branches = solo_br.borrow().total_branches();

    // Composed run: hotness + branch + loop + coverage together.
    let mut p = process(bench.module.clone(), EngineConfig::tiered());
    let hot = p.attach_monitor(HotnessMonitor::new()).unwrap();
    let br = p.attach_monitor(BranchMonitor::new()).unwrap();
    let lp = p.attach_monitor(LoopMonitor::new()).unwrap();
    let cov = p.attach_monitor(CoverageMonitor::new()).unwrap();
    assert_eq!(p.monitor_count(), 4);
    let composed_result = p.invoke_export("run", &[Value::I32(bench.n)]).unwrap();

    assert_eq!(solo_result[0].to_slot(), composed_result[0].to_slot(), "non-intrusiveness");
    assert_eq!(hot.borrow().total(), solo_total, "hotness unaffected by composition");
    assert_eq!(br.borrow().total_branches(), solo_branches, "branch unaffected by composition");
    assert!(cov.borrow().ratio() > 0.5, "coverage observed most of the kernel");
    assert!(lp.borrow().total() > 0);

    // Detaching everything restores the zero-overhead baseline.
    for h in p.monitor_handles() {
        p.detach_monitor(h).unwrap();
    }
    assert_eq!(p.monitor_count(), 0);
    assert_eq!(p.probed_location_count(), 0);
    assert!(!p.in_global_mode());
}

/// Attach→run→detach→run round-trips on interpreter and JIT configs: the
/// second (uninstrumented) run still computes the same result, the monitor
/// stops observing, and the process is provably back at baseline.
#[test]
fn detach_round_trip_across_tiers() {
    let bench = polybench_suite(Scale::Test).into_iter().find(|b| b.name == "trisolv").unwrap();
    for config in [EngineConfig::interpreter(), EngineConfig::jit(), EngineConfig::tiered()] {
        let mut p = process(bench.module.clone(), config);
        let hot = p.attach_monitor(HotnessMonitor::new()).unwrap();
        let r1 = p.invoke_export("run", &[Value::I32(bench.n)]).unwrap();
        let observed = hot.borrow().total();
        assert!(observed > 0);

        p.detach_monitor(hot.handle()).unwrap();
        assert_eq!(p.probed_location_count(), 0, "no probed locations after detach");
        assert!(!p.in_global_mode(), "not in global mode after detach");

        let r2 = p.invoke_export("run", &[Value::I32(bench.n)]).unwrap();
        assert_eq!(r1[0].to_slot(), r2[0].to_slot(), "detach did not perturb results");
        assert_eq!(hot.borrow().total(), observed, "no events observed after detach");
    }
}

/// Every instrumentation system agrees on WHAT happened (counts), even
/// though they differ wildly in HOW much it costs.
#[test]
fn systems_agree_on_event_counts() {
    let bench = polybench_suite(Scale::Test).into_iter().find(|b| b.name == "trisolv").unwrap();

    // Engine probes (interpreter).
    let mut p = process(bench.module.clone(), EngineConfig::interpreter());
    let hot = p.attach_monitor(HotnessMonitor::new()).unwrap();
    p.invoke_export("run", &[Value::I32(bench.n)]).unwrap();
    let probe_count = hot.borrow().total();

    // Static rewriting.
    let counted = wizard::rewriter::count_instructions(&bench.module).unwrap();
    let mut p = process(counted.module.clone(), EngineConfig::jit());
    p.invoke_export("run", &[Value::I32(bench.n)]).unwrap();
    let rewrite_count = counted.total(p.memory().unwrap());

    // Wasabi-style host callbacks.
    let run = wizard::baselines::wasabi::hotness(&bench.module).unwrap();
    let mut p = Process::new(run.module.clone(), EngineConfig::jit(), &run.linker).unwrap();
    p.invoke_export("run", &[Value::I32(bench.n)]).unwrap();
    let wasabi_count = run.analysis.events();

    // DBI-style clean calls.
    let run = wizard::baselines::dbi::hotness(&bench.module).unwrap();
    let mut p = Process::new(run.module.clone(), EngineConfig::jit(), &run.linker).unwrap();
    p.invoke_export("run", &[Value::I32(bench.n)]).unwrap();
    let dbi_count = run.tool.clean_calls();

    assert_eq!(probe_count, rewrite_count, "probes vs rewriting");
    assert_eq!(probe_count, wasabi_count, "probes vs wasabi-style");
    assert_eq!(probe_count, dbi_count, "probes vs DBI-style");
}

/// All 49 suite programs run with the hotness monitor attached under the
/// tiered engine, with results identical to uninstrumented runs.
#[test]
fn full_suite_non_intrusiveness_sweep() {
    for bench in all_suites(Scale::Test) {
        let mut plain = process(bench.module.clone(), EngineConfig::tiered());
        let expected = plain.invoke_export("run", &[Value::I32(bench.n)]).unwrap();

        let mut p = process(bench.module.clone(), EngineConfig::tiered());
        let hot = p.attach_monitor(HotnessMonitor::new()).unwrap();
        let got = p.invoke_export("run", &[Value::I32(bench.n)]).unwrap();
        assert_eq!(
            expected[0].to_slot(),
            got[0].to_slot(),
            "{}/{}: instrumentation was intrusive",
            bench.suite,
            bench.name
        );
        assert!(hot.borrow().total() > 0, "{}: no events", bench.name);
    }
}

/// Richards under the Calls monitor: the call structure the JVMTI
/// experiment depends on (indirect-call-heavy).
#[test]
fn richards_call_structure() {
    let bench = richards_benchmark(5_000);
    let mut p = process(bench.module.clone(), EngineConfig::tiered());
    let calls = p.attach_monitor(CallsMonitor::new()).unwrap();
    p.invoke_export("run", &[Value::I32(bench.n)]).unwrap();
    let sites = calls.borrow().indirect_sites();
    assert_eq!(sites.len(), 1, "one indirect dispatch site");
    let (_, site) = &sites[0];
    assert!(site.targets.len() >= 3, "dispatch reaches several task kinds");
    let indirect: u64 = site.targets.values().sum();
    assert_eq!(indirect, 5_000, "one indirect call per scheduling step");
    assert!(calls.borrow().total_calls() > indirect, "plus direct helper calls");
}

/// The binary codec round-trips every suite module and the decoded module
/// behaves identically.
#[test]
fn binary_roundtrip_preserves_behavior() {
    for bench in polybench_suite(Scale::Test).into_iter().take(8) {
        let bytes = wizard::wasm::encode::encode(&bench.module);
        let decoded = wizard::wasm::decode::decode(&bytes).expect("decodes");
        let mut a = process(bench.module.clone(), EngineConfig::jit());
        let mut b = process(decoded, EngineConfig::jit());
        let ra = a.invoke_export("run", &[Value::I32(bench.n)]).unwrap();
        let rb = b.invoke_export("run", &[Value::I32(bench.n)]).unwrap();
        assert_eq!(ra[0].to_slot(), rb[0].to_slot(), "{}", bench.name);
    }
}

/// Dynamic tiering on a long run: tier-up happens, results stay identical
/// to the interpreter, and a global probe mid-flight doesn't discard code.
/// The tiering run is metered: clean unmetered code runs in the register
/// tier, which never tiers up.
#[test]
fn tiering_with_global_probe_round_trip() {
    let bench = polybench_suite(Scale::Test).into_iter().find(|b| b.name == "gemm").unwrap();
    let mut interp = process(bench.module.clone(), EngineConfig::interpreter_bytecode());
    let expected = interp.invoke_export("run", &[Value::I32(bench.n)]).unwrap();

    let mut p = process(bench.module.clone(), EngineConfig::builder().tierup_threshold(5).build());
    let r1 = match p.run_export_bounded("run", &[Value::I32(bench.n)], 1 << 40).unwrap() {
        wizard::engine::RunOutcome::Done(r) => r,
        wizard::engine::RunOutcome::OutOfFuel => panic!("the budget covers the run"),
    };
    assert_eq!(r1[0].to_slot(), expected[0].to_slot());
    assert!(p.stats().tier_ups > 0, "tier-up happened: {:?}", p.stats());
    let compiles = p.stats().compiles;

    use std::cell::Cell;
    use std::rc::Rc;
    let count = Rc::new(Cell::new(0u64));
    let c = Rc::clone(&count);
    let id = p
        .add_global_probe(wizard::engine::ClosureProbe::shared(move |_| c.set(c.get() + 1)))
        .unwrap();
    let r2 = p.invoke_export("run", &[Value::I32(bench.n)]).unwrap();
    assert_eq!(r2[0].to_slot(), expected[0].to_slot());
    assert!(count.get() > 1000, "global probe fired per instruction");
    p.remove_probe(id).unwrap();
    let r3 = p.invoke_export("run", &[Value::I32(bench.n)]).unwrap();
    assert_eq!(r3[0].to_slot(), expected[0].to_slot());
    assert_eq!(p.stats().compiles, compiles, "the global probe discarded no code");
}

/// Runs `bench` with a monitor attached, either unbounded (`fuel: None`)
/// or fuel-sliced to completion, and returns (result slot, report).
fn monitored_run<M: wizard::engine::Monitor + 'static>(
    bench: &wizard::suites::Benchmark,
    config: EngineConfig,
    monitor: M,
    fuel: Option<u64>,
) -> (u64, wizard::engine::Report) {
    use wizard::engine::RunOutcome;
    let mut p = process(bench.module.clone(), config);
    let m = p.attach_monitor(monitor).unwrap();
    let args = [Value::I32(bench.n)];
    let r = match fuel {
        None => p.invoke_export("run", &args).unwrap(),
        Some(slice) => {
            let mut out = p.run_export_bounded("run", &args, slice).unwrap();
            loop {
                match out {
                    RunOutcome::Done(v) => break v,
                    RunOutcome::OutOfFuel => out = p.resume(slice).unwrap(),
                }
            }
        }
    };
    let report = m.report();
    p.detach_monitor(m.handle()).unwrap();
    (r[0].to_slot().0, report)
}

/// The preemption-transparency acceptance criterion: fuel-bounded runs of
/// richards and a polybench kernel — at several slice sizes, on the
/// interpreter *and* the tiered engine — produce monitor reports
/// *identical* to an unbounded run (not just equal totals: equal reports,
/// row for row).
#[test]
fn bounded_runs_produce_identical_monitor_reports() {
    let richards = richards_benchmark(15);
    let gemm = polybench_suite(Scale::Test).into_iter().find(|b| b.name == "gemm").unwrap();
    for bench in [&richards, &gemm] {
        for config in
            [EngineConfig::interpreter(), EngineConfig::builder().tierup_threshold(5).build()]
        {
            let (expected_result, expected_report) =
                monitored_run(bench, config.clone(), HotnessMonitor::new(), None);
            for slice in [997u64, 20_011] {
                let (result, report) =
                    monitored_run(bench, config.clone(), HotnessMonitor::new(), Some(slice));
                assert_eq!(result, expected_result, "{} slice {slice}: wrong result", bench.name);
                assert_eq!(
                    report, expected_report,
                    "{} slice {slice}: bounded report differs from unbounded",
                    bench.name
                );
            }
        }
    }
}

/// The same criterion through the pool: a two-worker, fuel-sliced fleet of
/// richards + polybench processes reports exactly what the same monitors
/// report on dedicated unbounded processes.
#[test]
fn pool_fleet_reports_match_dedicated_runs() {
    use wizard::pool::{Job, Pool, PoolConfig};
    let fleet = wizard::suites::fleet(Scale::Test, 8);

    let mut expected = Vec::new();
    for b in &fleet {
        expected.push(monitored_run(b, EngineConfig::tiered(), HotnessMonitor::new(), None));
    }

    let config =
        PoolConfig { shards: 2, engine: EngineConfig::builder().fuel_slice(1_500).build() };
    let mut pool = Pool::new(config);
    for (k, b) in fleet.iter().enumerate() {
        pool.submit(
            Job::new(format!("{}-{k}", b.name), b.module.clone(), "run", vec![Value::I32(b.n)])
                .with_monitor(HotnessMonitor::new),
        );
    }
    let outcome = pool.run();
    assert!(outcome.all_ok());
    assert!(outcome.stats.suspensions > 0, "the fleet really was time-sliced");
    for (j, (expected_result, expected_report)) in outcome.jobs.iter().zip(&expected) {
        assert_eq!(j.result.as_ref().unwrap()[0].to_slot().0, *expected_result, "{}", j.name);
        assert_eq!(
            j.report.as_ref().unwrap(),
            expected_report,
            "{}: pooled report differs from dedicated run",
            j.name
        );
    }
}

/// The serving-engine transparency criterion: a mixed multi-tenant fleet
/// — corpus modules behind shim linkers, polybench, richards; scripted
/// *and* zoo monitors; mixed priorities — served by the work-stealing
/// engine produces, job for job, exactly the results and reports of
/// dedicated single-process runs, while jobs are being sliced, stolen,
/// migrated across workers, and cancelled around them.
#[test]
fn serve_fleet_reports_match_dedicated_runs_under_stealing_and_cancellation() {
    use wizard::engine::Shims;
    use wizard::pool::{Job, JobStatus, Priority, ServeConfig, ServeEngine};
    use wizard::script::ScriptMonitor;
    use wizard::suites::tenant_fleet;

    const SRC: &str = "monitor \"hotness\"\n\
                       match * do inc exec[site]\n\
                       report \"top locations\" top 20 exec\n\
                       report \"summary\" total \"total instruction executions\" exec";

    let fleet = tenant_fleet(Scale::Test, 12);

    // Dedicated reference runs: even jobs carry the zoo hotness monitor,
    // odd jobs the scripted one (they agree anyway, but this pins both
    // attach paths).
    let mut expected = Vec::new();
    for (k, j) in fleet.iter().enumerate() {
        let linker = if j.uses_imports {
            Shims::standard().linker_for(&j.module).expect("corpus shims resolve")
        } else {
            Linker::new()
        };
        let mut p = Process::new(j.module.clone(), EngineConfig::tiered(), &linker).unwrap();
        let report = if k % 2 == 0 {
            let m = p.attach_monitor(HotnessMonitor::new()).unwrap();
            let r = p.invoke_export("run", &[Value::I32(j.n)]).unwrap();
            let rep = m.report();
            p.detach_monitor(m.handle()).unwrap();
            (r[0].to_slot().0, rep)
        } else {
            let m = p.attach_monitor(ScriptMonitor::from_source(SRC).unwrap()).unwrap();
            let r = p.invoke_export("run", &[Value::I32(j.n)]).unwrap();
            let rep = m.report();
            p.detach_monitor(m.handle()).unwrap();
            (r[0].to_slot().0, rep)
        };
        expected.push((k, report));
    }

    let engine = ServeEngine::new(ServeConfig {
        workers: 2,
        engine: EngineConfig::builder().fuel_slice(1_000).build(),
        stride: 1, // rotate aggressively: maximize interleave + stealing
        ..ServeConfig::default()
    });
    let script_factory = wizard::script::monitor_factory(SRC).unwrap();
    let mut handles = Vec::new();
    let mut victims = Vec::new();
    for (k, j) in fleet.iter().enumerate() {
        let mut job =
            Job::new(format!("{}-{k}", j.name), j.module.clone(), "run", vec![Value::I32(j.n)])
                .for_tenant(j.tenant)
                .at_priority(match j.class {
                    0 => Priority::High,
                    1 => Priority::Normal,
                    _ => Priority::Low,
                });
        job = if k % 2 == 0 {
            job.with_monitor(HotnessMonitor::new)
        } else {
            job.with_monitor_factory(script_factory.clone())
        };
        if j.uses_imports {
            let module = j.module.clone();
            job = job.with_linker(move || {
                Shims::standard().linker_for(&module).expect("corpus shims resolve")
            });
        }
        handles.push(engine.try_submit(job).handle().unwrap());
        // Interleave doomed richards jobs that get cancelled mid-fleet:
        // their teardown (monitor detach, process drop) must not perturb
        // any sibling's report.
        if k % 4 == 0 {
            let doomed = Job::new(
                format!("victim-{k}"),
                wizard::suites::richards_benchmark(1_000_000).module,
                "run",
                vec![Value::I32(1_000_000)],
            )
            .with_monitor(HotnessMonitor::new);
            victims.push(engine.try_submit(doomed).handle().unwrap());
        }
    }
    for v in &victims {
        v.cancel();
    }

    for (h, (k, (expected_result, expected_report))) in handles.iter().zip(&expected) {
        let out = h.wait();
        assert_eq!(
            out.status.values().map(|v| v[0].to_slot().0),
            Some(*expected_result),
            "{}: wrong result",
            out.name
        );
        assert_eq!(
            out.report.as_ref().unwrap(),
            expected_report,
            "job {k} ({}): served report differs from dedicated run \
             (slices={}, migrations={})",
            out.name,
            out.slices,
            out.migrations
        );
    }
    for v in &victims {
        assert_eq!(v.wait().status, JobStatus::Cancelled);
    }
    let summary = engine.shutdown();
    assert!(summary.stats.suspensions > 0, "the fleet really was time-sliced");
    assert_eq!(summary.completed, (handles.len() + victims.len()) as u64);
    // The fleet merges one report per analysis title across all jobs.
    assert!(summary.merged_report("hotness").is_some());
}

/// Scripts are monitors all the way down: a wizard-script program
/// composes with hand-written monitors on one process without
/// interference, and a fuel-sliced (bounded) scripted run reports
/// exactly what an unbounded one does — the transparency guarantee
/// extends to data-driven instrumentation.
#[test]
fn scripted_monitors_compose_and_survive_preemption() {
    use wizard::engine::RunOutcome;
    use wizard::script::ScriptMonitor;

    const SRC: &str = "monitor \"hotness\"\n\
                       match * do inc exec[site]\n\
                       report \"top locations\" top 20 exec\n\
                       report \"summary\" total \"total instruction executions\" exec";
    let bench = richards_benchmark(25);

    // Unbounded scripted run next to a hand-written branch monitor.
    let mut p = process(bench.module.clone(), EngineConfig::tiered());
    let script = p.attach_monitor(ScriptMonitor::from_source(SRC).unwrap()).unwrap();
    let branch = p.attach_monitor(BranchMonitor::new()).unwrap();
    p.invoke_export("run", &[Value::I32(bench.n)]).unwrap();
    let unbounded_report = script.report();
    let solo_branches = branch.borrow().total_branches();
    assert!(solo_branches > 0);

    // The scripted counts equal the hand-written hotness monitor's.
    let mut p = process(bench.module.clone(), EngineConfig::tiered());
    let hot = p.attach_monitor(HotnessMonitor::new()).unwrap();
    p.invoke_export("run", &[Value::I32(bench.n)]).unwrap();
    assert_eq!(unbounded_report, hot.report(), "scripted vs handwritten, composed");

    // Bounded (fuel-sliced) scripted run: identical report, row for row.
    let mut p = process(bench.module, EngineConfig::tiered());
    let script2 = p.attach_monitor(ScriptMonitor::from_source(SRC).unwrap()).unwrap();
    let mut out = p.run_export_bounded("run", &[Value::I32(bench.n)], 500).unwrap();
    let mut slices = 1;
    while out == RunOutcome::OutOfFuel {
        out = p.resume(500).unwrap();
        slices += 1;
    }
    assert!(slices > 1, "the run really was preempted");
    assert_eq!(script2.report(), unbounded_report, "bounded vs unbounded scripted run");
}
