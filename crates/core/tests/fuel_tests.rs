//! Fuel-metered (preemptible) execution: suspension/resume semantics, the
//! one billing rule — the byte-walking reference's instruction count, in
//! every tier — and the probe-consistency guarantee: a bounded run fires
//! exactly the probes of an unbounded run, for any slice size, across
//! instrumentation changes while suspended.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use wizard_engine::store::Linker;
use wizard_engine::{
    CountProbe, EngineConfig, InstrumentationCtx, Location, Monitor, ProbeBatch, ProbeError,
    Process, Report, RunOutcome, Shims, Value,
};
use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard_wasm::module::Module;
use wizard_wasm::types::ValType::I32;
use wizard_wasm::validate::ModuleMeta;

/// `sum(n) = 0 + 1 + ... + n-1` via a loop.
fn sum_module() -> (Module, ModuleMeta) {
    let mut mb = ModuleBuilder::new();
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let i = f.local(I32);
    let acc = f.local(I32);
    f.for_range(i, 0, |f| {
        f.local_get(acc).local_get(i).i32_add().local_set(acc);
    });
    f.local_get(acc);
    mb.add_func("sum", f);
    mb.build_with_meta().unwrap()
}

fn interp() -> EngineConfig {
    EngineConfig::interpreter()
}

/// Everything a bounded run bills and where it stops: the outcome, the
/// fuel consumed, and the location of every suspension, in order.
type Billing = (Result<Vec<Value>, wizard_engine::Trap>, u64, Vec<Location>);

/// Runs `run(arg)` of `m` under `config` in slices of `slice` fuel to the
/// end, recording what [`Billing`] holds.
fn billing(m: &Module, imports: bool, config: EngineConfig, arg: i32, slice: u64) -> Billing {
    let linker = if imports { Shims::standard().linker_for(m).unwrap() } else { Linker::new() };
    let mut p = Process::new(m.clone(), config, &linker).unwrap();
    p.reset_stats();
    let mut stops = Vec::new();
    let result = (|| {
        let mut out = p.run_export_bounded("run", &[Value::I32(arg)], slice)?;
        while out == RunOutcome::OutOfFuel {
            stops.push(p.suspended_at().expect("suspended"));
            out = p.resume(slice)?;
        }
        Ok(out.done().expect("done"))
    })();
    (result, p.stats().fuel_consumed, stops)
}

/// Drives a suspended process to completion, returning the results and the
/// number of resume slices it took.
fn drain(p: &mut Process, fuel: u64) -> (Vec<Value>, u64) {
    let mut slices = 0;
    loop {
        slices += 1;
        match p.resume(fuel).expect("no trap") {
            RunOutcome::Done(v) => return (v, slices),
            RunOutcome::OutOfFuel => {}
        }
    }
}

/// Fuel billing does not depend on the tier: for every slice size, the
/// register form — paying per run, handing a run it cannot pay for to the
/// byte interpreter — consumes exactly the fuel of the byte-walking
/// reference and suspends at exactly its locations, on the loop kernel and
/// on every corpus module (calls, `call_indirect`, `br_table`, host
/// imports, early returns).
#[test]
fn fuel_and_suspensions_match_the_bytecode_reference() {
    let mut programs: Vec<(String, Module, bool, i32)> = Vec::new();
    let mut mb = ModuleBuilder::new();
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let i = f.local(I32);
    let acc = f.local(I32);
    f.for_range(i, 0, |f| {
        f.local_get(acc).local_get(i).i32_add().local_set(acc);
    });
    f.local_get(acc);
    mb.add_func("run", f);
    programs.push(("sum".into(), mb.build().unwrap(), false, 1000));
    // A `loop` no branch targets is no run's first instruction: the stack
    // interpreter must not hand a frame to the register form there.
    let mut mb = ModuleBuilder::new();
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let i = f.local(I32);
    let acc = f.local(I32);
    f.for_range(i, 0, |f| {
        f.local_get(acc).i32_const(3).i32_add().local_set(acc);
        f.loop_(wizard_wasm::types::BlockType::Empty);
        f.local_get(acc).local_get(i).i32_xor().local_set(acc);
        f.end();
    });
    f.local_get(acc);
    mb.add_func("run", f);
    programs.push(("straight-line loop".into(), mb.build().unwrap(), false, 300));
    for e in wizard_suites::corpus::corpus(wizard_suites::Scale::Test) {
        programs.push((e.name.into(), e.module, e.uses_imports, e.n));
    }
    // Random programs: nested loops, `if`/`else`, and trapping division,
    // whose fuel is billed up to the trapping instruction.
    for seed in 0..6 {
        programs.push((
            format!("random {seed}"),
            wizard_suites::randgen::random_module(seed),
            false,
            7,
        ));
    }
    // The suite kernels and richards: deep loop nests, calls, floats.
    let richards = wizard_suites::richards_benchmark(5);
    for b in wizard_suites::all_suites(wizard_suites::Scale::Test).into_iter().chain([richards]) {
        programs.push((format!("{}/{}", b.suite, b.name), b.module, false, b.n));
    }
    for (name, m, imports, arg) in &programs {
        let (_, total, _) =
            billing(m, *imports, EngineConfig::interpreter_bytecode(), *arg, u64::MAX);
        // Every slice size up to 40 where that stays cheap.
        let fine = if total < 50_000 { 40 } else { 0 };
        let slices =
            (1..=fine).chain([97, 1_000, 4_099, total / 3 + 1, total - 1, total, total + 1]);
        for slice in slices.filter(|&s| s > 0) {
            let reference = billing(m, *imports, EngineConfig::interpreter_bytecode(), *arg, slice);
            let got = billing(m, *imports, EngineConfig::default(), *arg, slice);
            assert_eq!(got.1, reference.1, "{name}, slice {slice}: fuel consumed");
            assert_eq!(got.2, reference.2, "{name}, slice {slice}: suspension locations");
            assert_eq!(got.0, reference.0, "{name}, slice {slice}: outcome");
        }
    }
}

#[test]
fn bounded_run_completes_within_slice() {
    let (m, _) = sum_module();
    let mut p = Process::new(m, interp(), &Linker::new()).unwrap();
    let outcome = p.run_export_bounded("sum", &[Value::I32(3)], 1_000_000).unwrap();
    assert_eq!(outcome, RunOutcome::Done(vec![Value::I32(3)]));
    assert!(!p.is_suspended());
    assert_eq!(p.stats().suspensions, 0);
    assert!(p.stats().fuel_consumed > 0);
}

#[test]
fn bounded_run_suspends_and_resumes_with_same_result() {
    let (m, _) = sum_module();
    for slice in [1u64, 3, 7, 64] {
        let mut p = Process::new(m.clone(), interp(), &Linker::new()).unwrap();
        let first = p.run_export_bounded("sum", &[Value::I32(50)], slice).unwrap();
        assert_eq!(first, RunOutcome::OutOfFuel, "slice {slice} should preempt");
        assert!(p.is_suspended());
        let (r, slices) = drain(&mut p, slice);
        assert_eq!(r, vec![Value::I32(1225)]);
        assert!(slices > 1);
        assert_eq!(p.stats().suspensions, slices, "one suspension per non-final slice + start");
    }
}

/// §2.4 consistency under preemption: fuel exhaustion inside a
/// probe-instrumented loop neither skips nor double-fires probes — the
/// total count matches an unbounded run exactly, for every slice size.
#[test]
fn fuel_exhaustion_inside_probed_loop_keeps_probe_counts_exact() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];

    // Reference: unbounded run.
    let expected = {
        let mut p = Process::new(m.clone(), interp(), &Linker::new()).unwrap();
        let f = p.module().export_func("sum").unwrap();
        let probe = CountProbe::new();
        let cell = probe.cell();
        p.add_local_probe_val(f, loop_pc, probe).unwrap();
        p.invoke(f, &[Value::I32(40)]).unwrap();
        cell.get()
    };
    assert!(expected > 0);

    for slice in [1u64, 2, 5, 13] {
        let mut p = Process::new(m.clone(), interp(), &Linker::new()).unwrap();
        let f = p.module().export_func("sum").unwrap();
        let probe = CountProbe::new();
        let cell = probe.cell();
        p.add_local_probe_val(f, loop_pc, probe).unwrap();
        match p.run_bounded(f, &[Value::I32(40)], slice).unwrap() {
            RunOutcome::Done(_) => {}
            RunOutcome::OutOfFuel => {
                drain(&mut p, slice);
            }
        }
        assert_eq!(cell.get(), expected, "slice {slice} changed probe fires");
    }
}

/// A minimal lifecycle monitor counting loop-header executions.
struct LoopCounter {
    cell: Rc<Cell<u64>>,
    loop_pc: u32,
}

impl Monitor for LoopCounter {
    fn name(&self) -> &'static str {
        "loop-counter"
    }

    fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
        let func = ctx.module().export_func("sum").unwrap();
        let probe = CountProbe::new();
        self.cell = probe.cell();
        let mut batch = ProbeBatch::new();
        batch.add_local_val(func, self.loop_pc, probe);
        ctx.apply_batch(batch)?;
        Ok(())
    }

    fn report(&self) -> Report {
        let mut r = Report::new(self.name());
        r.section("summary").count("loop headers", self.cell.get());
        r
    }
}

/// Detaching a monitor while a bounded run is suspended: the resumed run
/// completes correctly, the monitor's probes stop firing at the detach
/// point, and the process is back at the zero-overhead baseline.
#[test]
fn resume_across_detach_monitor() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    let mut p = Process::new(m, interp(), &Linker::new()).unwrap();
    let mon = p.attach_monitor(LoopCounter { cell: Rc::new(Cell::new(0)), loop_pc }).unwrap();

    let out = p.run_export_bounded("sum", &[Value::I32(60)], 25).unwrap();
    assert_eq!(out, RunOutcome::OutOfFuel);
    let fired_before_detach = mon.borrow().cell.get();
    assert!(fired_before_detach > 0, "the loop ran before preemption");

    // Detach mid-suspension: probes are removed in one batched pass.
    p.detach_monitor(mon.handle()).unwrap();
    assert_eq!(p.probed_location_count(), 0);

    let (r, _) = drain(&mut p, 25);
    assert_eq!(r, vec![Value::I32(1770)]);
    assert_eq!(
        mon.borrow().cell.get(),
        fired_before_detach,
        "no probe fires after detach, even though the run continued"
    );
}

/// A slice that cannot pay for the next run demotes the frame to the
/// byte interpreter, which suspends exactly where the reference would;
/// the resumed slice promotes it back to register form at its next run
/// leader (a tier-up), with the same result and probe counts as an
/// unbounded run.
#[test]
fn resume_tiers_up_from_interp_to_jit() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];

    let expected_fires = {
        let mut p = Process::new(m.clone(), EngineConfig::default(), &Linker::new()).unwrap();
        let f = p.module().export_func("sum").unwrap();
        let probe = CountProbe::new();
        let cell = probe.cell();
        p.add_local_probe_val(f, loop_pc, probe).unwrap();
        let r = p.invoke(f, &[Value::I32(200)]).unwrap();
        assert_eq!(r, vec![Value::I32(19_900)]);
        assert_eq!((p.stats().tier_ups, p.stats().deopts), (0, 0), "never left register form");
        cell.get()
    };

    let mut p = Process::new(m, EngineConfig::default(), &Linker::new()).unwrap();
    let f = p.module().export_func("sum").unwrap();
    let probe = CountProbe::new();
    let cell = probe.cell();
    p.add_local_probe_val(f, loop_pc, probe).unwrap();

    let out = p.run_bounded(f, &[Value::I32(200)], 5).unwrap();
    assert_eq!(out, RunOutcome::OutOfFuel);
    assert_eq!(p.stats().deopts, 1, "the slice could not pay for the next run");
    assert_eq!(p.stats().tier_ups, 0);
    let (r, _) = drain(&mut p, 50);
    assert_eq!(r, vec![Value::I32(19_900)]);
    assert!(p.stats().tier_ups > 0, "promoted at run leaders across suspensions");
    assert_eq!(p.stats().compiles, 1, "one instrumented form, lowered once");
    assert_eq!(cell.get(), expected_fires);
}

/// Suspend, then insert a probe on an instruction the function's register
/// form has no site for: the form is invalidated and re-lowered when the
/// resumed frame next needs it (at its promotion), and the run completes
/// with the probe firing on the remainder.
#[test]
fn resume_deopts_suspended_jit_frame_after_instrumentation_change() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    let mut p = Process::new(m, EngineConfig::default(), &Linker::new()).unwrap();
    let f = p.module().export_func("sum").unwrap();
    p.add_local_probe_val(f, 0, CountProbe::new()).unwrap();

    let out = p.run_bounded(f, &[Value::I32(300)], 40).unwrap();
    assert_eq!(out, RunOutcome::OutOfFuel);
    assert_eq!(p.stats().compiles, 1);

    // A new site while suspended invalidates the instrumented form.
    let probe = CountProbe::new();
    let cell = probe.cell();
    let passes = p.stats().invalidation_passes;
    p.add_local_probe_val(f, loop_pc, probe).unwrap();
    assert_eq!(p.stats().invalidation_passes, passes + 1);
    assert_eq!(p.stats().compiles, 1, "re-lowering is lazy");

    let (r, _) = drain(&mut p, 40);
    assert_eq!(r, vec![Value::I32(44_850)]);
    assert_eq!(p.stats().compiles, 2, "re-lowered once, with the new site");
    assert!(p.compiled_listing(f).unwrap().contains("count.bump"));
    assert!(cell.get() > 0, "probe inserted mid-suspension fires on the remainder");
}

#[test]
fn trap_during_resumed_slice_clears_suspension() {
    let mut mb = ModuleBuilder::new();
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let i = f.local(I32);
    f.for_range(i, 0, |f| {
        f.nop();
    });
    // Loop, then trap.
    f.i32_const(1).i32_const(0).i32_div_s();
    mb.add_func("spin_then_trap", f);
    let m = mb.build().unwrap();

    let mut p = Process::new(m, interp(), &Linker::new()).unwrap();
    let out = p.run_export_bounded("spin_then_trap", &[Value::I32(50)], 10).unwrap();
    assert_eq!(out, RunOutcome::OutOfFuel);
    let err = loop {
        match p.resume(10) {
            Ok(RunOutcome::OutOfFuel) => {}
            Ok(RunOutcome::Done(_)) => panic!("must trap"),
            Err(t) => break t,
        }
    };
    assert_eq!(err, wizard_engine::Trap::DivisionByZero);
    assert!(!p.is_suspended(), "trap clears the suspension");

    // The trapping slice's own fuel counts as consumed: trap within the
    // *first* slice of a fresh run, whose fuel would otherwise be lost.
    let before = p.stats().fuel_consumed;
    let err = p.run_export_bounded("spin_then_trap", &[Value::I32(5)], 1_000_000).unwrap_err();
    assert_eq!(err, wizard_engine::Trap::DivisionByZero);
    assert!(p.stats().fuel_consumed > before, "trapping slice fuel was dropped");
    // The process is reusable after the trap.
    let out = p.run_export_bounded("spin_then_trap", &[Value::I32(0)], 2).unwrap();
    assert_eq!(out, RunOutcome::OutOfFuel);
    p.cancel_suspended();
}

/// Discarding a suspended run — by cancel or by dropping the process —
/// invalidates the parked frames' accessors (the FrameAccessor contract
/// survives preemption).
#[test]
fn discarded_suspension_invalidates_parked_accessors() {
    use wizard_engine::{ClosureProbe, FrameAccessor};

    let grab = |p: &mut Process, loop_pc: u32| {
        let f = p.module().export_func("sum").unwrap();
        let slot: Rc<RefCell<Option<FrameAccessor>>> = Rc::new(RefCell::new(None));
        let s = Rc::clone(&slot);
        p.add_local_probe(
            f,
            loop_pc,
            ClosureProbe::shared(move |ctx| {
                *s.borrow_mut() = Some(ctx.accessor());
            }),
        )
        .unwrap();
        assert_eq!(p.run_bounded(f, &[Value::I32(50)], 20).unwrap(), RunOutcome::OutOfFuel);
        let acc = slot.borrow().clone().expect("probe captured an accessor");
        assert!(acc.is_valid(), "frame is parked but alive");
        acc
    };

    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];

    // Cancelled explicitly.
    let mut p = Process::new(m.clone(), interp(), &Linker::new()).unwrap();
    let acc = grab(&mut p, loop_pc);
    p.cancel_suspended();
    assert!(!acc.is_valid(), "cancel invalidates parked accessors");

    // Process dropped while suspended.
    let mut p = Process::new(m, interp(), &Linker::new()).unwrap();
    let acc = grab(&mut p, loop_pc);
    drop(p);
    assert!(!acc.is_valid(), "drop invalidates parked accessors");
}

#[test]
fn cancel_discards_suspended_run() {
    let (m, _) = sum_module();
    let mut p = Process::new(m, interp(), &Linker::new()).unwrap();
    assert!(!p.cancel_suspended(), "nothing to cancel");
    let out = p.run_export_bounded("sum", &[Value::I32(100)], 7).unwrap();
    assert_eq!(out, RunOutcome::OutOfFuel);
    assert!(p.cancel_suspended());
    assert!(!p.is_suspended());
    // A fresh (unbounded) invocation works after cancelling.
    let r = p.invoke_export("sum", &[Value::I32(4)]).unwrap();
    assert_eq!(r, vec![Value::I32(6)]);
}

#[test]
#[should_panic(expected = "bounded run is suspended")]
fn invoke_while_suspended_panics() {
    let (m, _) = sum_module();
    let mut p = Process::new(m, interp(), &Linker::new()).unwrap();
    p.run_export_bounded("sum", &[Value::I32(100)], 3).unwrap();
    let _ = p.invoke_export("sum", &[Value::I32(1)]);
}

#[test]
fn zero_fuel_resume_makes_no_progress_but_is_safe() {
    let (m, _) = sum_module();
    let mut p = Process::new(m, interp(), &Linker::new()).unwrap();
    let out = p.run_export_bounded("sum", &[Value::I32(10)], 0).unwrap();
    assert_eq!(out, RunOutcome::OutOfFuel);
    assert_eq!(p.resume(0).unwrap(), RunOutcome::OutOfFuel);
    let (r, _) = drain(&mut p, 1000);
    assert_eq!(r, vec![Value::I32(45)]);
}

/// A bounded run of clean code runs in the register form between
/// suspensions: each slice that cannot pay for a run demotes the frame
/// once, and the next slice promotes it back at a run leader; nothing is
/// compiled, because the shared form serves metered runs too.
#[test]
fn bounded_run_resumes_in_compiled_code() {
    let (m, _) = sum_module();
    let mut p = Process::new(m, EngineConfig::default(), &Linker::new()).unwrap();
    let out = p.run_export_bounded("sum", &[Value::I32(100)], 17).unwrap();
    assert_eq!(out, RunOutcome::OutOfFuel);
    let (r, _) = drain(&mut p, 17);
    assert_eq!(r, vec![Value::I32(4950)]);
    let stats = p.stats();
    assert_eq!(stats.compiles, 0);
    assert!(stats.tier_ups > 0, "{stats:?}");
    assert!(stats.deopts > 0 && stats.deopts <= stats.suspensions, "{stats:?}");
}
