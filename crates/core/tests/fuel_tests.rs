//! Fuel-metered (preemptible) execution: suspension/resume semantics and
//! the probe-consistency guarantee — a bounded run fires exactly the
//! probes of an unbounded run, for any slice size, in every tier, across
//! instrumentation changes while suspended.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use wizard_engine::store::Linker;
use wizard_engine::{
    CountProbe, EngineConfig, ExecMode, InstrumentationCtx, Monitor, ProbeBatch, ProbeError,
    Process, Report, RunOutcome, Value,
};
use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard_wasm::module::Module;
use wizard_wasm::types::ValType::I32;
use wizard_wasm::validate::ModuleMeta;

/// `sum(n) = 0 + 1 + ... + n-1` via a loop (a tier-up candidate).
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

fn tiered(threshold: u32) -> EngineConfig {
    EngineConfig::builder().mode(ExecMode::Tiered).tierup_threshold(threshold).build()
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

/// Suspend while interpreting, tier up during the resumed slices: the
/// function gets hot mid-run, compiles, and the bounded run finishes in
/// the JIT with the same result and probe counts as an unbounded run.
#[test]
fn resume_tiers_up_from_interp_to_jit() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];

    let expected_fires = {
        let mut p = Process::new(m.clone(), tiered(10), &Linker::new()).unwrap();
        let f = p.module().export_func("sum").unwrap();
        let probe = CountProbe::new();
        let cell = probe.cell();
        p.add_local_probe_val(f, loop_pc, probe).unwrap();
        let r = p.invoke(f, &[Value::I32(200)]).unwrap();
        assert_eq!(r, vec![Value::I32(19_900)]);
        assert!(p.is_compiled(f), "reference run tiered up");
        cell.get()
    };

    let mut p = Process::new(m, tiered(10), &Linker::new()).unwrap();
    let f = p.module().export_func("sum").unwrap();
    let probe = CountProbe::new();
    let cell = probe.cell();
    p.add_local_probe_val(f, loop_pc, probe).unwrap();

    let out = p.run_bounded(f, &[Value::I32(200)], 5).unwrap();
    assert_eq!(out, RunOutcome::OutOfFuel);
    assert!(!p.is_compiled(f), "still cold at first suspension");
    let (r, _) = drain(&mut p, 50);
    assert_eq!(r, vec![Value::I32(19_900)]);
    assert!(p.is_compiled(f), "tiered up across suspensions");
    assert!(p.stats().tier_ups > 0);
    assert_eq!(cell.get(), expected_fires);
}

/// Suspend while a JIT frame is parked, invalidate its code by inserting a
/// probe, resume: the frame deoptimizes to the interpreter and the run
/// completes with consistent probe counts (JIT → interp resume).
#[test]
fn resume_deopts_suspended_jit_frame_after_instrumentation_change() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    let mut p = Process::new(m, tiered(5), &Linker::new()).unwrap();
    let f = p.module().export_func("sum").unwrap();

    // Warm up so the bounded run starts straight in compiled code. The
    // warm-up is metered too: clean unmetered runs stay in the register
    // tier and never compile.
    let warm = p.run_bounded(f, &[Value::I32(100)], 1_000_000).unwrap();
    assert_eq!(warm, RunOutcome::Done(vec![Value::I32(4_950)]));
    assert!(p.is_compiled(f));

    let out = p.run_bounded(f, &[Value::I32(300)], 40).unwrap();
    assert_eq!(out, RunOutcome::OutOfFuel);

    // Instrumentation change while suspended invalidates the parked
    // frame's compiled code.
    let probe = CountProbe::new();
    let cell = probe.cell();
    p.add_local_probe_val(f, loop_pc, probe).unwrap();
    assert!(!p.is_compiled(f));
    let deopts_before = p.stats().deopts;

    let (r, _) = drain(&mut p, 40);
    assert_eq!(r, vec![Value::I32(44_850)]);
    assert!(p.stats().deopts > deopts_before, "suspended JIT frame deoptimized");
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

/// Fuel metering in a JIT-only configuration: suspension points land at
/// instruction boundaries in compiled code, and resume re-enters compiled
/// code directly (cip-based resume, no deopt when nothing changed).
#[test]
fn jit_only_bounded_run_resumes_in_compiled_code() {
    let (m, _) = sum_module();
    let mut p = Process::new(m, EngineConfig::jit(), &Linker::new()).unwrap();
    let out = p.run_export_bounded("sum", &[Value::I32(100)], 17).unwrap();
    assert_eq!(out, RunOutcome::OutOfFuel);
    let deopts_at_suspend = p.stats().deopts;
    let (r, _) = drain(&mut p, 17);
    assert_eq!(r, vec![Value::I32(4950)]);
    assert_eq!(p.stats().deopts, deopts_at_suspend, "pure JIT resume needs no deopt");
}
