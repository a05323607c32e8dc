//! Scheduler tests for the work-stealing multi-tenant serving engine:
//! correctness across worker counts, stealing, strict priorities,
//! deficit-round-robin tenant fairness (starvation-freedom), budgets
//! under cancellation, deadlines, backpressure, panic containment, and
//! drain/shutdown.
//!
//! CI runs this file with `--test-threads=1` pinned so the timing-
//! sensitive assertions (steal counters, the 1-worker throughput
//! regression) don't fight sibling tests for the host's cores.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wizard_engine::{
    ClosureProbe, CountProbe, EngineConfig, EngineStats, InstrumentationCtx, Monitor, ProbeError,
    Process, Report, RunOutcome,
};
use wizard_monitors::HotnessMonitor;
use wizard_pool::{Job, JobStatus, Priority, ServeConfig, ServeEngine, Submit};
use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard_wasm::module::Module;
use wizard_wasm::types::ValType::I32;

/// `run(n)` = sum 0..n; ~3 fuel per iteration, so `n` controls job length.
fn sum_module() -> Module {
    let mut mb = ModuleBuilder::new();
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let i = f.local(I32);
    let acc = f.local(I32);
    f.for_range(i, 0, |f| {
        f.local_get(acc).local_get(i).i32_add().local_set(acc);
    });
    f.local_get(acc);
    mb.add_func("run", f);
    mb.build().unwrap()
}

fn sum_job(name: impl Into<String>, n: i32) -> Job {
    Job::new(name, sum_module(), "run", vec![wizard_engine::Value::I32(n)])
}

fn sum_of(n: i32) -> wizard_engine::Value {
    wizard_engine::Value::I32((0..n).sum())
}

fn config(workers: usize, fuel_slice: u64) -> ServeConfig {
    ServeConfig {
        workers,
        engine: EngineConfig::builder().fuel_slice(fuel_slice).build(),
        ..ServeConfig::default()
    }
}

#[test]
fn fleet_results_are_correct_across_worker_counts() {
    for workers in [1usize, 2, 4] {
        let engine = ServeEngine::new(config(workers, 500));
        assert_eq!(engine.workers(), workers);
        let handles: Vec<_> = (0..12)
            .map(|k| engine.try_submit(sum_job(format!("sum-{k}"), 2_000)).handle().unwrap())
            .collect();
        for h in &handles {
            let out = h.wait();
            assert_eq!(out.status.values(), Some(&[sum_of(2_000)][..]), "{}", out.name);
            assert!(out.slices >= 2, "{} was never preempted", out.name);
            assert!(out.latency >= out.queue_delay);
        }
        let summary = engine.shutdown();
        assert_eq!(summary.completed, 12);
        assert!(summary.stats.suspensions > 0);
        assert!(summary.stats.slices_executed >= 24);
        assert!(summary.stats.queue_depth_max >= 1);
        // 12 byte-identical modules resolve to one shared artifact at
        // the admission path: one build, 11 warm hits.
        assert_eq!(summary.stats.artifact_cache_misses, 1);
        assert_eq!(summary.stats.artifact_cache_hits, 11);
    }
}

#[test]
fn work_is_stolen_between_workers() {
    // Jobs queued behind a long one are not head-of-line blocked: two
    // workers spawned paused, a long job admitted first and 16 short ones
    // behind it, all at one priority. Whichever worker takes the long job
    // also grabs a batch of the short ones into its stealable deque, and
    // never rotates to them (the stride outlasts the long job). The other
    // worker runs the rest of the backlog and then steals that batch —
    // pending jobs only, since started ones never change workers. Zero
    // steals across every attempt would need the long job (50 000
    // iterations) to finish before the other worker gets through eight
    // 100-iteration jobs each time.
    let mut total_steals = 0;
    for _ in 0..5 {
        let mut cfg = config(2, 200);
        cfg.stride = u64::MAX;
        cfg.start_paused = true;
        let engine = ServeEngine::new(cfg);
        let mut handles = vec![engine.try_submit(sum_job("long", 50_000)).handle().unwrap()];
        handles.extend(
            (0..16).map(|k| engine.try_submit(sum_job(format!("s-{k}"), 100)).handle().unwrap()),
        );
        engine.start();
        for h in &handles {
            assert!(h.wait().status.is_ok());
        }
        let summary = engine.shutdown();
        total_steals += summary.stats.steals;
        if total_steals > 0 {
            break;
        }
    }
    assert!(total_steals > 0, "no pending job was ever stolen across 5 two-worker fleets");
}

#[test]
fn suspended_jobs_resume_on_their_worker_with_exact_reports() {
    // Two workers rotating every slice, so preempted jobs sit in deques
    // while an idle peer looks for work. A job that has started stays on
    // its worker — no job records a migration — and every monitor report
    // is exactly what a dedicated single-process run produces.
    let mut cfg = config(2, 200);
    cfg.stride = 1;
    let engine = ServeEngine::new(cfg);
    let handles: Vec<_> = (0..12)
        .map(|k| {
            let job = sum_job(format!("m-{k}"), 300).with_monitor(HotnessMonitor::new);
            engine.try_submit(job).handle().unwrap()
        })
        .collect();
    let outcomes: Vec<_> = handles.iter().map(|h| h.wait()).collect();
    engine.shutdown();

    // Reference: the same program, monitored, in a dedicated process.
    let mut process = Process::new(
        sum_module(),
        EngineConfig::builder().fuel_slice(200).build(),
        &wizard_engine::store::Linker::new(),
    )
    .unwrap();
    let mon = process.attach_monitor(HotnessMonitor::new()).unwrap();
    process.invoke_export("run", &[wizard_engine::Value::I32(300)]).unwrap();
    process.detach_monitor(mon.handle()).unwrap();
    let expected = mon.report();

    for out in &outcomes {
        assert!(out.status.is_ok());
        assert!(out.slices >= 2, "{} was never suspended", out.name);
        assert_eq!(out.migrations, 0, "{} resumed on another worker", out.name);
        assert_eq!(
            out.report.as_ref().unwrap().to_string(),
            expected.to_string(),
            "{}: report differs from a dedicated run",
            out.name,
        );
    }
}

/// `run()` calls the host function `env.boom` once.
fn host_call_module() -> Module {
    let mut mb = ModuleBuilder::new();
    let boom = mb.import_func("env", "boom", &[], &[]);
    let mut f = FuncBuilder::new(&[], &[I32]);
    f.call(boom).i32_const(7);
    mb.add_func("run", f);
    mb.build().unwrap()
}

/// A monitor whose probe on the entry function's first instruction
/// panics when it fires.
struct PanickingProbe;

impl Monitor for PanickingProbe {
    fn name(&self) -> &'static str {
        "panicking-probe"
    }
    fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
        let func = ctx.module().num_imported_funcs();
        ctx.add_local_probe_val(func, 0, ClosureProbe::new(|_| panic!("probe exploded")))?;
        Ok(())
    }
    fn report(&self) -> Report {
        Report::new(self.name())
    }
}

/// A monitor that installs nothing and panics when asked for its report.
struct PanickingReport;

impl Monitor for PanickingReport {
    fn name(&self) -> &'static str {
        "panicking-report"
    }
    fn on_attach(&mut self, _ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
        Ok(())
    }
    fn report(&self) -> Report {
        panic!("report exploded")
    }
}

#[test]
fn a_panicking_job_fails_alone() {
    // Three jobs panic — in a probe closure, in `Monitor::report` and in a
    // host function — among ordinary jobs on two workers. Each panicking
    // job fails with the panic's message and no report; every other job
    // completes with its value, and the engine still drains and shuts
    // down (a worker that died with its job would leave it hanging).
    let engine = ServeEngine::new(config(2, 300));
    let mut handles = Vec::new();
    for k in 0..9 {
        let job = match k {
            1 => sum_job("probe-panics", 400).with_monitor(|| PanickingProbe),
            4 => sum_job("report-panics", 400).with_monitor(|| PanickingReport),
            7 => Job::new("host-panics", host_call_module(), "run", vec![]).with_linker(|| {
                let mut linker = wizard_engine::store::Linker::new();
                linker.func("env", "boom", |_, _| panic!("host exploded"));
                linker
            }),
            _ => sum_job(format!("fine-{k}"), 400).with_monitor(HotnessMonitor::new),
        };
        handles.push(engine.try_submit(job).handle().unwrap());
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    let outcomes: Vec<_> = handles
        .iter()
        .map(|h| h.wait_timeout(deadline.saturating_duration_since(Instant::now())))
        .collect();
    if outcomes.iter().any(Option::is_none) {
        // A worker died with its job: the engine can never drain, so
        // dropping it would hang this test instead of failing it.
        std::mem::forget(engine);
        panic!("a job never finished: its worker died with it");
    }
    let mut fuel = 0;
    for out in outcomes.into_iter().flatten() {
        fuel += out.stats.fuel_consumed;
        let expected_panic = match out.name.as_str() {
            "probe-panics" => Some("panicked: probe exploded"),
            "report-panics" => Some("panicked: report exploded"),
            "host-panics" => Some("panicked: host exploded"),
            _ => None,
        };
        match expected_panic {
            Some(message) => {
                assert_eq!(out.status, JobStatus::Failed(message.into()), "{}", out.name);
                assert!(out.report.is_none(), "{} reported after panicking", out.name);
                if out.name == "report-panics" {
                    // Every slice completed before the report panicked.
                    assert!(out.stats.fuel_consumed > 0, "its fuel went unreported");
                }
            }
            None => {
                assert_eq!(out.status.values(), Some(&[sum_of(400)][..]), "{}", out.name);
                assert!(out.report.is_some(), "{}", out.name);
            }
        }
    }
    let summary = engine.shutdown();
    assert_eq!(summary.completed, 9);
    // The panicking report is never merged; the six hotness reports are.
    assert_eq!(summary.merged_reports.len(), 1);
    // Panicked jobs are billed for the fuel their outcome reports.
    assert_eq!(summary.tenants.iter().map(|t| t.fuel_spent).sum::<u64>(), fuel);
}

#[test]
fn strict_priority_orders_first_slices_on_one_worker() {
    // One worker, spawned paused: admit lows first, then highs. Strict
    // priority means every high job takes its first slice before any low
    // job does — deterministically, since there is one worker.
    let mut cfg = config(1, 300);
    cfg.start_paused = true;
    let engine = ServeEngine::new(cfg);
    let lows: Vec<_> = (0..4)
        .map(|k| {
            let job = sum_job(format!("low-{k}"), 150).at_priority(Priority::Low);
            engine.try_submit(job).handle().unwrap()
        })
        .collect();
    let highs: Vec<_> = (0..4)
        .map(|k| {
            let job = sum_job(format!("high-{k}"), 150).at_priority(Priority::High);
            engine.try_submit(job).handle().unwrap()
        })
        .collect();
    engine.start();
    let max_high_delay = highs.iter().map(|h| h.wait().queue_delay).max().unwrap();
    let min_low_delay = lows.iter().map(|h| h.wait().queue_delay).min().unwrap();
    assert!(
        max_high_delay <= min_low_delay,
        "a low-priority job started ({min_low_delay:?}) before a high one ({max_high_delay:?})"
    );
    engine.shutdown();
}

#[test]
fn saturating_high_priority_tenant_cannot_starve_low_priority_tenant() {
    // The starvation case strict priority alone would lose: a hog tenant
    // saturates the engine with high-priority work while a meek tenant
    // has one low-priority job. The hog's fuel budget throttles it every
    // round, so the meek job keeps making progress and finishes while
    // hog work is still queued.
    let mut cfg = config(1, 500);
    cfg.round_fuel = 20_000;
    cfg = cfg.tenant_budget("hog", 5_000);
    let engine = ServeEngine::new(cfg);
    let hogs: Vec<_> = (0..6)
        .map(|k| {
            let job =
                sum_job(format!("hog-{k}"), 20_000).for_tenant("hog").at_priority(Priority::High);
            engine.try_submit(job).handle().unwrap()
        })
        .collect();
    let meek = engine
        .try_submit(sum_job("meek", 4_000).for_tenant("meek").at_priority(Priority::Low))
        .handle()
        .unwrap();

    let meek_out = meek.wait();
    assert!(meek_out.status.is_ok());
    // The meek job finished; hog work must still be in flight (it needs
    // ~24x the meek job's fuel but is capped at 5k per 20k round).
    assert!(
        hogs.iter().any(|h| h.try_outcome().is_none()),
        "every hog job finished before the starved tenant's single job"
    );
    for h in &hogs {
        assert!(h.wait().status.is_ok());
    }
    let summary = engine.shutdown();
    assert!(summary.stats.budget_throttles > 0, "the hog tenant was never throttled");
    let hog = summary.tenants.iter().find(|t| t.tenant == "hog").unwrap();
    let meek_t = summary.tenants.iter().find(|t| t.tenant == "meek").unwrap();
    assert!(hog.throttles > 0);
    assert!(hog.fuel_spent > meek_t.fuel_spent);
    assert_eq!(hog.jobs, 6);
    assert_eq!(meek_t.jobs, 1);
}

/// A monitor that installs a real probe (so detach has baseline to
/// restore) and raises a flag when `on_detach` runs.
struct DetachFlag {
    flag: Arc<AtomicBool>,
    probe: CountProbe,
}

impl Monitor for DetachFlag {
    fn name(&self) -> &'static str {
        "detach-flag"
    }
    fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
        let func = ctx.module().num_imported_funcs();
        ctx.add_local_probe_val(func, 0, self.probe.clone())?;
        Ok(())
    }
    fn on_detach(&mut self, _process: &mut Process) {
        self.flag.store(true, Ordering::SeqCst);
    }
    fn report(&self) -> Report {
        let mut r = Report::new(self.name());
        r.section("summary").count("entries", self.probe.cell().get());
        r
    }
}

#[test]
fn cancel_while_suspended_detaches_monitor_and_releases_budget() {
    // A budget-throttled job is parked *suspended mid-run*. Cancelling
    // it must finalize it as Cancelled, detach its monitor (restoring
    // the baseline — observed via on_detach), report the fuel it really
    // burned, and leave the tenant's budget usable by later jobs.
    let mut cfg = config(1, 500);
    cfg.round_fuel = 1_000_000; // rounds only advance when the worker idles
    cfg = cfg.tenant_budget("capped", 2_000);
    let engine = ServeEngine::new(cfg);
    let detached = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&detached);
    let job = sum_job("capped-long", 1_000_000)
        .for_tenant("capped")
        .with_monitor(move || DetachFlag { flag: Arc::clone(&flag), probe: CountProbe::new() });
    let h = engine.try_submit(job).handle().unwrap();

    // Wait until the job is parked on its budget, then cancel it.
    let start = Instant::now();
    while engine.stats().budget_throttles == 0 {
        assert!(start.elapsed() < Duration::from_secs(30), "job never got throttled");
        std::thread::sleep(Duration::from_millis(1));
    }
    h.cancel();
    let out = h.wait();
    assert_eq!(out.status, JobStatus::Cancelled);
    assert!(out.slices > 0, "the job had started");
    assert!(out.stats.fuel_consumed > 0, "burned fuel is still reported");
    assert!(detached.load(Ordering::SeqCst), "monitor was not detached on cancellation");
    let report = out.report.expect("cancelled jobs still report");
    assert!(report.get("summary").unwrap().count_of("entries") >= Some(1));

    // The tenant's budget recovered: a short job from the same tenant
    // completes (next round refills the deficit the dead job drained).
    let h2 = engine.try_submit(sum_job("capped-short", 100).for_tenant("capped")).handle().unwrap();
    assert!(h2.wait().status.is_ok(), "tenant budget leaked by the cancelled job");
    engine.shutdown();
}

#[test]
fn cancel_before_start_never_instantiates() {
    let mut cfg = config(1, 500);
    cfg.start_paused = true;
    let engine = ServeEngine::new(cfg);
    let h = engine.try_submit(sum_job("queued", 100)).handle().unwrap();
    h.cancel();
    assert!(h.is_cancelled());
    engine.start();
    let out = h.wait();
    assert_eq!(out.status, JobStatus::Cancelled);
    assert_eq!(out.slices, 0);
    assert_eq!(out.stats, EngineStats::default(), "no process was ever built");
    engine.shutdown();
}

#[test]
fn deadlines_cancel_queued_and_running_jobs_but_fuel_still_counts() {
    let engine = ServeEngine::new(config(1, 300));
    // Pre-expired: never takes a slice.
    let dead = engine
        .try_submit(sum_job("dead-on-arrival", 100).with_deadline(Duration::ZERO))
        .handle()
        .unwrap();
    let out = dead.wait();
    assert_eq!(out.status, JobStatus::DeadlineExceeded);
    assert_eq!(out.slices, 0);

    // Expires mid-run: takes slices until the boundary after the
    // deadline, and the fuel it burned is credited to tenant + fleet.
    let slow = engine
        .try_submit(
            sum_job("too-slow", i32::MAX).for_tenant("t").with_deadline(Duration::from_millis(50)),
        )
        .handle()
        .unwrap();
    let out = slow.wait();
    assert_eq!(out.status, JobStatus::DeadlineExceeded);
    assert!(out.slices > 0);
    assert!(out.stats.fuel_consumed > 0);
    let summary = engine.shutdown();
    assert!(summary.stats.fuel_consumed >= out.stats.fuel_consumed);
    let tenant = summary.tenants.iter().find(|t| t.tenant == "t").unwrap();
    assert_eq!(tenant.fuel_spent, out.stats.fuel_consumed, "mid-slice fuel was not credited");
}

#[test]
fn bounded_admission_backpressure() {
    let mut cfg = config(1, 500);
    cfg.queue_capacity = 2;
    cfg.start_paused = true; // nothing drains until start()
    let engine = ServeEngine::new(cfg);
    let h1 = engine.try_submit(sum_job("a", 50)).handle().unwrap();
    let h2 = engine.try_submit(sum_job("b", 50)).handle().unwrap();
    match engine.try_submit(sum_job("c", 50)) {
        Submit::Rejected(job) => assert_eq!(job.name, "c"),
        other => panic!("expected Rejected, got {other:?}"),
    }
    match engine.submit_timeout(sum_job("d", 50), Duration::from_millis(20)) {
        Submit::Rejected(job) => assert_eq!(job.name, "d"),
        other => panic!("expected timeout Rejected, got {other:?}"),
    }
    engine.start();
    // With workers draining, a blocking submit gets in.
    let h3 = match engine.submit_blocking(sum_job("e", 50)) {
        Submit::Accepted(h) => h,
        other => panic!("expected Accepted, got {other:?}"),
    };
    for h in [&h1, &h2, &h3] {
        assert!(h.wait().status.is_ok());
    }
    let summary = engine.shutdown();
    assert_eq!(summary.completed, 3);
    assert_eq!(summary.stats.queue_depth_max, 2, "high-water mark of a capacity-2 queue");
}

#[test]
fn invalid_modules_are_rejected_at_admission() {
    let mut bad = sum_module();
    bad.exports.push(wizard_wasm::module::Export {
        name: "phantom".into(),
        kind: wizard_wasm::types::ExternKind::Func,
        index: 999,
    });
    let engine = ServeEngine::new(config(1, 500));
    match engine.try_submit(Job::new("bad", bad, "run", vec![])) {
        Submit::Invalid { job, .. } => assert_eq!(job.name, "bad"),
        other => panic!("expected Invalid, got {other:?}"),
    }
    // Invalid submissions never occupy the queue or a worker.
    assert_eq!(engine.in_flight(), 0);
    let summary = engine.shutdown();
    assert_eq!(summary.completed, 0);
}

#[test]
fn drain_closes_admission() {
    let engine = ServeEngine::new(config(1, 500));
    let h = engine.try_submit(sum_job("last", 100)).handle().unwrap();
    engine.drain();
    assert!(h.try_outcome().is_some(), "drain waits for in-flight jobs");
    match engine.try_submit(sum_job("late", 10)) {
        Submit::Closed(job) => assert_eq!(job.name, "late"),
        other => panic!("expected Closed, got {other:?}"),
    }
    engine.shutdown();
}

#[test]
fn abort_cancels_everything_in_flight() {
    let mut cfg = config(1, 500);
    cfg.start_paused = true;
    let engine = ServeEngine::new(cfg);
    let handles: Vec<_> = (0..4)
        .map(|k| engine.try_submit(sum_job(format!("doomed-{k}"), i32::MAX)).handle().unwrap())
        .collect();
    engine.start();
    // Let at least one job start burning fuel before pulling the plug.
    let start = Instant::now();
    while engine.stats().slices_executed == 0 {
        assert!(start.elapsed() < Duration::from_secs(30), "no job ever started");
        std::thread::sleep(Duration::from_millis(1));
    }
    let summary = engine.abort();
    assert_eq!(summary.completed, 4);
    for h in &handles {
        assert_eq!(h.wait().status, JobStatus::Cancelled);
    }
}

#[test]
fn per_job_stats_never_carry_scheduler_counters() {
    // The scheduler counters are contributed by the engine exactly once,
    // not by processes: per-job stats report 0 for all four (mirroring
    // how processes never touch artifact_cache_*), so merging job stats
    // with the engine contribution cannot double-count.
    let mut cfg = config(2, 300);
    cfg.stride = 1;
    let engine = ServeEngine::new(cfg);
    let handles: Vec<_> = (0..8)
        .map(|k| {
            let job = sum_job(format!("j-{k}"), 300).with_monitor(HotnessMonitor::new);
            engine.try_submit(job).handle().unwrap()
        })
        .collect();
    for h in &handles {
        let out = h.wait();
        assert_eq!(out.stats.steals, 0);
        assert_eq!(out.stats.queue_depth_max, 0);
        assert_eq!(out.stats.slices_executed, 0);
        assert_eq!(out.stats.budget_throttles, 0);
        assert!(out.stats.probe_fires > 0, "the monitor really ran");
    }
    let summary = engine.shutdown();
    assert!(summary.stats.slices_executed >= 8);
    assert!(summary.stats.queue_depth_max >= 1);
}

#[test]
fn queue_depth_max_merges_as_high_water_mark() {
    let mut a = EngineStats { queue_depth_max: 7, steals: 2, ..EngineStats::default() };
    let b = EngineStats { queue_depth_max: 3, steals: 5, ..EngineStats::default() };
    a.merge(&b);
    assert_eq!(a.queue_depth_max, 7, "high-water marks take the max, not the sum");
    assert_eq!(a.steals, 7, "volume counters still add");
    let c = EngineStats { queue_depth_max: 11, ..EngineStats::default() };
    a.merge(&c);
    assert_eq!(a.queue_depth_max, 11);
}

#[test]
fn one_worker_throughput_not_worse_than_sequential_loop() {
    // The shard-scaling-inversion regression guard: a 1-worker serving
    // engine degrades to cooperative slicing and must stay in the same
    // ballpark as the bare loop it schedules — start every job, then
    // round-robin `resume` turns on this thread. Scheduling machinery may
    // not cost multiples.
    const FUEL_SLICE: u64 = 2_000;
    let arg = [wizard_engine::Value::I32(3_000)];
    let loop_wall = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let engine = EngineConfig::builder().fuel_slice(FUEL_SLICE).build();
            let linker = wizard_engine::store::Linker::new();
            let mut live = std::collections::VecDeque::new();
            for _ in 0..8 {
                let mut p = Process::new(sum_module(), engine.clone(), &linker).unwrap();
                if p.run_export_bounded("run", &arg, FUEL_SLICE).unwrap() == RunOutcome::OutOfFuel {
                    live.push_back(p);
                }
            }
            while let Some(mut p) = live.pop_front() {
                if p.resume(FUEL_SLICE).unwrap() == RunOutcome::OutOfFuel {
                    live.push_back(p);
                }
            }
            t0.elapsed()
        })
        .min()
        .unwrap();
    let serve_wall = (0..3)
        .map(|_| {
            let engine = ServeEngine::new(config(1, FUEL_SLICE));
            let t0 = Instant::now();
            let handles: Vec<_> = (0..8)
                .map(|k| engine.try_submit(sum_job(format!("t-{k}"), 3_000)).handle().unwrap())
                .collect();
            for h in &handles {
                assert!(h.wait().status.is_ok());
            }
            let wall = t0.elapsed();
            engine.shutdown();
            wall
        })
        .min()
        .unwrap();
    assert!(
        serve_wall <= loop_wall * 2,
        "1-worker serving engine is >2x slower than a sequential slice loop \
         ({serve_wall:?} vs {loop_wall:?})"
    );
}
