//! The insert/remove contract of compiled code (paper §4.2/§4.5): a probe
//! site compiles to one micro-op whose *binding* is re-bound in place when
//! the site's probe list changes. Removal, and insertion where the code
//! already has a site, cost no invalidation, no deopt and no recompile;
//! only a probe on an instruction the code has no site for, and the
//! function's last probe leaving, invalidate. Pinned with exact
//! `EngineStats`, so a regression to recompile-per-removal fails here and
//! not only in the benchmark.

use std::cell::Cell;
use std::rc::Rc;

use wizard_engine::store::Linker;
use wizard_engine::{
    ClosureProbe, CountProbe, EngineConfig, ExecMode, InstrumentationCtx, Monitor, ProbeBatch,
    ProbeError, ProbeId, ProbeRef, Process, Report, RunOutcome, Value,
};
use wizard_monitors::{CoverageMonitor, HotnessMonitor};
use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard_wasm::instr::InstrIter;
use wizard_wasm::module::Module;
use wizard_wasm::types::ValType::I32;

/// `sum(n)`: loop from 0..n accumulating i.
fn sum_module() -> Module {
    let mut mb = ModuleBuilder::new();
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let i = f.local(I32);
    let acc = f.local(I32);
    f.for_range(i, 0, |f| {
        f.local_get(acc).local_get(i).i32_add().local_set(acc);
    });
    f.local_get(acc);
    mb.add_func("sum", f);
    mb.build().expect("valid module")
}

fn pcs(m: &Module) -> Vec<u32> {
    InstrIter::new(&m.funcs[0].body.code).map(|i| i.unwrap().pc).collect()
}

/// JIT-only, with the lazy dead-site recompile out of reach: what these
/// tests count is what probe traffic itself costs.
fn jit() -> EngineConfig {
    EngineConfig::builder().mode(ExecMode::JitOnly).tierup_threshold(1 << 30).build()
}

/// A probe that removes itself the first time it fires.
fn once(fired: &Rc<Cell<u64>>) -> (ProbeRef, Rc<Cell<Option<ProbeId>>>) {
    let id = Rc::new(Cell::new(None));
    let (fired, me) = (Rc::clone(fired), Rc::clone(&id));
    let probe = ClosureProbe::shared(move |ctx| {
        fired.set(fired.get() + 1);
        ctx.remove_probe(me.get().expect("id set at insertion"));
    });
    (probe, id)
}

/// The per-instruction counts of `sum(n)` under the interpreter.
fn reference_counts(m: &Module, n: i32) -> Vec<u64> {
    let mut p = Process::new(m.clone(), EngineConfig::interpreter(), &Linker::new()).unwrap();
    let cells: Vec<_> = pcs(m)
        .into_iter()
        .map(|pc| {
            let probe = CountProbe::new();
            let cell = probe.cell();
            p.add_local_probe_val(0, pc, probe).unwrap();
            cell
        })
        .collect();
    p.invoke(0, &[Value::I32(n)]).unwrap();
    cells.iter().map(|c| c.get()).collect()
}

/// (a) N self-removing probes firing inside a compiled loop cost compiled
/// code nothing, and their sibling counters stay exact.
#[test]
fn self_removing_probes_in_a_compiled_loop_never_recompile() {
    let m = sum_module();
    let sites = pcs(&m);
    let mut p = Process::new(m.clone(), jit(), &Linker::new()).unwrap();
    let fired = Rc::new(Cell::new(0));
    let mut batch = ProbeBatch::new();
    let mut cells = Vec::new();
    let mut ids = Vec::new();
    for pc in &sites {
        let (probe, id) = once(&fired);
        batch.add_local(0, *pc, probe);
        ids.push(id);
        let counter = CountProbe::new();
        cells.push(counter.cell());
        batch.add_local_val(0, *pc, counter);
    }
    for (cell, id) in ids.iter().zip(p.apply_batch(batch).unwrap().into_iter().step_by(2)) {
        cell.set(Some(id));
    }
    assert_eq!(p.stats().invalidation_passes, 1, "the batch's new sites");

    assert_eq!(p.invoke(0, &[Value::I32(100)]).unwrap(), vec![Value::I32(4950)]);
    let stats = p.stats();
    let reference = reference_counts(&m, 100);
    let executed = reference.iter().filter(|n| **n > 0).count() as u64;
    assert!(executed > 15, "most of the function runs");
    assert_eq!(fired.get(), executed, "each fired once");
    assert_eq!(stats.compiles, 1, "compiled once, at the call");
    assert_eq!(stats.deopts, 0);
    assert_eq!(stats.invalidation_passes, 1, "no removal invalidated");
    // While a self-remover shared the site, the whole list went through the
    // runtime: both probes, once. After that the site is an inline bump.
    assert_eq!(stats.probe_fires, 2 * executed);
    let counts: Vec<u64> = cells.iter().map(|c| c.get()).collect();
    assert_eq!(counts, reference, "sibling counters are exact");
    assert!(sites.iter().all(|pc| p.has_probe_byte(0, *pc)), "the counters remain");

    // A second call runs the same code, now fully intrinsified.
    p.invoke(0, &[Value::I32(100)]).unwrap();
    assert_eq!(p.stats().compiles, 1);
    assert_eq!(p.stats().probe_fires, stats.probe_fires);
}

/// (b) A site holding a generic and a `Count` probe re-binds to the
/// intrinsified form when the generic one removes itself.
#[test]
fn a_site_rebinds_to_the_intrinsified_form_when_its_generic_probe_leaves() {
    let m = sum_module();
    let loop_pc = wizard_wasm::validate::validate(&m).unwrap().funcs[0].loop_headers[0];
    let mut p = Process::new(m, jit(), &Linker::new()).unwrap();
    let counter = CountProbe::new();
    let cell = counter.cell();
    p.add_local_probe_val(0, loop_pc, counter).unwrap();
    let fired = Rc::new(Cell::new(0));
    let (probe, id) = once(&fired);
    id.set(Some(p.add_local_probe(0, loop_pc, probe).unwrap()));
    let passes = p.stats().invalidation_passes;

    let listing = p.compiled_listing(0).unwrap();
    assert!(listing.contains("probe.generic") && !listing.contains("count.bump"), "{listing}");
    let lines = listing.lines().count();

    p.invoke(0, &[Value::I32(10)]).unwrap();
    assert_eq!((fired.get(), cell.get()), (1, 11));
    let after_first = p.stats();
    assert_eq!(after_first.probe_fires, 2, "one trip through the runtime, both probes");

    let listing = p.compiled_listing(0).unwrap();
    assert!(listing.contains("count.bump") && !listing.contains("probe.generic"), "{listing}");
    assert_eq!(listing.lines().count(), lines, "the same code, re-bound");

    p.invoke(0, &[Value::I32(10)]).unwrap();
    assert_eq!(cell.get(), 22);
    let stats = p.stats();
    assert_eq!(stats.probe_fires, 2, "inline bumps do not reach the runtime");
    assert_eq!((stats.compiles, stats.deopts), (1, 0));
    assert_eq!(stats.invalidation_passes, passes);
    assert_eq!(p.probe_kinds_at(0, loop_pc), vec![wizard_engine::ProbeKind::Count]);
}

/// A monitor with one generic counting probe on every instruction.
#[derive(Default)]
struct GenericEverywhere {
    fires: Rc<Cell<u64>>,
}

impl Monitor for GenericEverywhere {
    fn name(&self) -> &'static str {
        "generic-everywhere"
    }

    fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
        let mut batch = ProbeBatch::new();
        for site in ctx.instruction_sites().iter() {
            let fires = Rc::clone(&self.fires);
            let probe = ClosureProbe::shared(move |_| fires.set(fires.get() + 1));
            batch.add_local(site.func, site.pc, probe);
        }
        ctx.apply_batch(batch).map(|_| ())
    }

    fn report(&self) -> Report {
        Report::new(self.name())
    }
}

/// (c) A frame suspended out of fuel in compiled code, whose sites a
/// `detach_monitor` empties between slices, resumes in the same code.
#[test]
fn a_suspended_jit_frame_survives_a_detach_that_empties_its_sites() {
    let m = sum_module();
    let mut p = Process::new(m, jit(), &Linker::new()).unwrap();
    // One probe outside the monitor keeps the function instrumented, so the
    // detach empties sites without the function rejoining the baseline.
    let entry = CountProbe::new();
    let entries = entry.cell();
    p.add_local_probe_val(0, 0, entry).unwrap();
    let monitor = p.attach_monitor(GenericEverywhere::default()).unwrap();

    assert_eq!(p.run_bounded(0, &[Value::I32(500)], 300).unwrap(), RunOutcome::OutOfFuel);
    let seen = monitor.borrow().fires.get();
    assert_eq!(seen, 300, "every instruction of the first slice fired the monitor");
    let before = p.stats();
    assert_eq!((before.compiles, before.deopts), (1, 0));

    p.detach_monitor(monitor.handle()).unwrap();
    assert_eq!(p.stats().invalidation_passes, before.invalidation_passes, "re-bound, not stale");
    assert!(p.is_compiled(0));
    assert!(p.compiled_listing(0).unwrap().contains("site.empty"));

    let out = p.resume(u64::MAX).unwrap();
    assert_eq!(out, RunOutcome::Done(vec![Value::I32(124_750)]));
    let stats = p.stats();
    assert_eq!((stats.compiles, stats.deopts), (1, 0), "resumed in the code it was parked in");
    assert_eq!(stats.probe_fires, before.probe_fires, "the emptied sites fire nothing");
    assert_eq!(monitor.borrow().fires.get(), seen);
    assert_eq!(entries.get(), 1);
}

/// (d) The other half of the contract: a probe at an instruction that was
/// not a site when the code was compiled invalidates it, and a frame
/// parked in that code deoptimizes.
#[test]
fn a_probe_on_a_new_site_still_invalidates_and_deopts() {
    let m = sum_module();
    let sites = pcs(&m);
    let mut p = Process::new(m, jit(), &Linker::new()).unwrap();
    p.add_local_probe_val(0, sites[0], CountProbe::new()).unwrap();
    assert_eq!(p.run_bounded(0, &[Value::I32(500)], 300).unwrap(), RunOutcome::OutOfFuel);
    let before = p.stats();

    // Where the code has a site: re-bound.
    let again = p.add_local_probe_val(0, sites[0], CountProbe::new()).unwrap();
    assert!(p.is_compiled(0));
    p.remove_probe(again).unwrap();
    assert!(p.is_compiled(0));
    assert_eq!(p.stats().invalidation_passes, before.invalidation_passes);

    // Where it has none: invalidated.
    let counter = CountProbe::new();
    let cell = counter.cell();
    p.add_local_probe_val(0, *sites.last().unwrap(), counter).unwrap();
    assert!(!p.is_compiled(0));
    assert_eq!(p.stats().invalidation_passes, before.invalidation_passes + 1);

    assert_eq!(p.resume(u64::MAX).unwrap(), RunOutcome::Done(vec![Value::I32(124_750)]));
    assert_eq!(p.stats().deopts, before.deopts + 1, "the parked frame left the stale code");
    assert_eq!(cell.get(), 1, "and the new probe fired");
}

/// The lazy half of removal: dead sites cost one dispatch each until
/// removals have been quiet for a second tier-up threshold of crossings;
/// then the function recompiles without them, once.
#[test]
fn dead_sites_are_dropped_by_one_lazy_recompile() {
    let m = sum_module();
    let sites = pcs(&m);
    let config = EngineConfig::builder().mode(ExecMode::Tiered).tierup_threshold(5).build();
    let mut p = Process::new(m, config, &Linker::new()).unwrap();
    p.add_local_probe_val(0, sites[0], CountProbe::new()).unwrap();
    let monitor = p.attach_monitor(GenericEverywhere::default()).unwrap();
    p.invoke(0, &[Value::I32(50)]).unwrap();
    assert!(p.is_compiled(0));
    let hot = p.stats();

    p.detach_monitor(monitor.handle()).unwrap();
    assert!(p.compiled_listing(0).unwrap().contains("site.empty"));
    assert_eq!(p.stats().invalidation_passes, hot.invalidation_passes, "removal is free now");

    assert_eq!(p.invoke(0, &[Value::I32(50)]).unwrap(), vec![Value::I32(1225)]);
    let stats = p.stats();
    assert_eq!(stats.compiles, hot.compiles + 1, "one recompile");
    assert_eq!(stats.deopts, hot.deopts + 1, "through one deopt");
    assert_eq!(stats.invalidation_passes, hot.invalidation_passes + 1);
    let listing = p.compiled_listing(0).unwrap();
    assert!(!listing.contains("site.empty"), "{listing}");
    assert_eq!(listing.matches("count.bump").count(), 1, "the surviving probe's site");

    // Zero dead dispatches from here on: nothing left to trigger on.
    p.invoke(0, &[Value::I32(50)]).unwrap();
    assert_eq!(p.stats().compiles, stats.compiles);
    assert_eq!(p.stats().deopts, stats.deopts);
}

/// (e) The benchmark's `probe_churn` schedule, scaled down: 5 000-fuel
/// slices, and every two slices the coverage monitor is replaced and the
/// instruction counter toggles between a global `CountProbe` and a
/// `HotnessMonitor`. Totals are exact, and the invalidation work is bounded
/// by the number of swaps — not by the number of probes removed.
#[test]
fn churn_schedule_costs_invalidations_per_swap_not_per_removal() {
    enum Counter {
        Global(ProbeId, Rc<Cell<u64>>),
        Hotness(wizard_engine::MonitorRef<HotnessMonitor>),
    }
    fn install(p: &mut Process, global: bool) -> Counter {
        if global {
            let probe = CountProbe::new();
            let cell = probe.cell();
            Counter::Global(p.add_global_probe_val(probe).unwrap(), cell)
        } else {
            Counter::Hotness(p.attach_monitor(HotnessMonitor::new()).unwrap())
        }
    }
    fn remove(p: &mut Process, counter: Counter) -> u64 {
        match counter {
            Counter::Global(id, cell) => {
                p.remove_probe(id).unwrap();
                cell.get()
            }
            Counter::Hotness(m) => {
                p.detach_monitor(m.handle()).unwrap();
                let total = m.borrow().total();
                total
            }
        }
    }

    let richards = wizard_suites::richards_benchmark(2000);
    let kernel = wizard_suites::polybench_suite(wizard_suites::Scale::Test)
        .into_iter()
        .find(|b| b.name == "gemm")
        .expect("gemm is a PolyBench kernel");
    for (bench, n) in [(richards, 2000), (kernel, 14)] {
        let name = bench.name;
        // The reference: one uninterrupted run, every instruction counted.
        let mut plain =
            Process::new(bench.module.clone(), EngineConfig::default(), &Linker::new()).unwrap();
        let hotness = plain.attach_monitor(HotnessMonitor::new()).unwrap();
        let expect = plain.invoke_export("run", &[Value::I32(n)]).unwrap();
        let funcs = plain.module().funcs.len() as u64;
        let instrs = hotness.borrow().total();
        let executed: std::collections::BTreeSet<_> =
            hotness.borrow().counts().into_iter().filter(|(_, n)| *n > 0).map(|(l, _)| l).collect();

        for global_first in [true, false] {
            let mut p = Process::new(bench.module.clone(), EngineConfig::default(), &Linker::new())
                .unwrap();
            let mut covered = std::collections::BTreeSet::new();
            let mut counted = 0;
            let mut coverage = p.attach_monitor(CoverageMonitor::new()).unwrap();
            let mut counter = install(&mut p, global_first);
            let (mut slices, mut swaps) = (1u64, 0u64);
            let mut out = p.run_export_bounded("run", &[Value::I32(n)], 5_000).unwrap();
            while out == RunOutcome::OutOfFuel {
                if slices % 2 == 0 {
                    swaps += 1;
                    p.detach_monitor(coverage.handle()).unwrap();
                    covered.extend(coverage.borrow().covered());
                    coverage = p.attach_monitor(CoverageMonitor::new()).unwrap();
                    let next_is_global = matches!(counter, Counter::Hotness(_));
                    counted += remove(&mut p, counter);
                    counter = install(&mut p, next_is_global);
                }
                out = p.resume(5_000).unwrap();
                slices += 1;
            }
            p.detach_monitor(coverage.handle()).unwrap();
            covered.extend(coverage.borrow().covered());
            counted += remove(&mut p, counter);

            let what = format!("{name}, global first: {global_first}, {swaps} swaps");
            assert!(swaps >= 4, "{what}: the schedule must cycle to mean anything");
            assert_eq!(out, RunOutcome::Done(expect.clone()), "{what}");
            assert_eq!(p.probed_location_count(), 0, "{what}");
            assert_eq!(p.resident_overlay_bytes(), 0, "{what}");
            let stats = p.stats();
            assert_eq!(counted, instrs, "{what}: each instruction counted by exactly one counter");
            assert_eq!(covered, executed, "{what}: the coverage monitors' union");
            // In a swap period a function is invalidated when its last
            // coverage probe leaves (it rejoins the baseline) and when the
            // next monitor lands on the rejoined code, and so recompiles
            // at most once; self-removals and detaches in between re-bind.
            assert!(stats.invalidation_passes <= (funcs + 2) * (swaps + 1), "{what}: {stats:?}");
            assert!(stats.compiles <= funcs * (swaps + 1), "{what}: {stats:?}");
            assert!(stats.deopts <= 4 * (swaps + 1), "{what}: {stats:?}");
        }
    }
}

/// (f) A run counter holds its functions' sites. It probes run leaders
/// only, where the per-instruction counter it replaces held every site:
/// the sites a coverage monitor beside it empties are therefore kept — no
/// lazy recompile while the counter stays — and the next coverage monitor
/// re-binds onto them. Once the counter is gone they are dropped as usual.
#[test]
fn a_run_counter_keeps_the_sites_emptied_beside_it() {
    let config = EngineConfig::builder().mode(ExecMode::JitOnly).tierup_threshold(5).build();
    let mut p = Process::new(sum_module(), config, &Linker::new()).unwrap();
    let hotness = p.attach_monitor(HotnessMonitor::new()).unwrap();
    let coverage = p.attach_monitor(CoverageMonitor::new()).unwrap();
    p.invoke(0, &[Value::I32(50)]).unwrap();
    let first = p.stats();
    assert_eq!((first.compiles, first.deopts), (1, 0));
    assert!(p.compiled_listing(0).unwrap().contains("site.empty"), "coverage burnt off");

    // Hundreds of dead crossings, far past the quiet period: still held.
    p.invoke(0, &[Value::I32(50)]).unwrap();
    let held = p.stats();
    assert_eq!((held.compiles, held.deopts), (1, 0));
    assert_eq!(held.invalidation_passes, first.invalidation_passes);

    // The next coverage monitor lands on sites the code still has.
    p.detach_monitor(coverage.handle()).unwrap();
    let coverage = p.attach_monitor(CoverageMonitor::new()).unwrap();
    assert!(p.is_compiled(0));
    assert_eq!(p.stats().invalidation_passes, first.invalidation_passes, "re-bound");
    let total = hotness.borrow().total();

    // Without the counter, the sites coverage empties are dropped again.
    p.detach_monitor(hotness.handle()).unwrap();
    assert_eq!(hotness.borrow().total(), total);
    p.invoke(0, &[Value::I32(50)]).unwrap();
    assert_eq!(p.stats().deopts, 1, "left the code with the dead sites");
    p.invoke(0, &[Value::I32(50)]).unwrap();
    assert_eq!(p.stats().compiles, 2, "one lazy recompile");
    assert!(!p.compiled_listing(0).unwrap().contains("site.empty"));
    assert!(!coverage.borrow().covered().is_empty());
}
