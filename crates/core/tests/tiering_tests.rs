//! Tiering and deoptimization edge cases of the engine's two tiers, the
//! register form and the byte interpreter: re-lowering after probe churn,
//! parked frames resuming in a re-lowered form, global probes inserted
//! from inside compiled code, demotion at a run leader a fuel slice
//! cannot pay for and promotion at the next, and the Coverage-style
//! "asymptotically zero overhead" claim.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use wizard_engine::store::Linker;
use wizard_engine::{
    ClosureProbe, CountProbe, EngineConfig, ModuleArtifact, Process, RunOutcome, Tier, Value,
};
use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard_wasm::module::Module;
use wizard_wasm::types::ValType::I32;
use wizard_wasm::validate::ModuleMeta;

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

/// Probe insertion on an instruction the register form has no site for
/// invalidates it; the next activation *re-lowers* it (with the probe's
/// site) rather than running anything slower. (An entry probe makes the
/// function instrumented from the start: clean code runs the artifact's
/// shared form and never compiles.)
#[test]
fn hot_function_recompiles_after_probe_insertion() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    let mut p = Process::new(m, EngineConfig::default(), &Linker::new()).unwrap();
    let f = p.module().export_func("sum").unwrap();
    let entry = CountProbe::new();
    let entries = entry.cell();
    p.add_local_probe_val(f, 0, entry).unwrap();
    p.invoke(f, &[Value::I32(1000)]).unwrap();
    let before = p.stats();
    assert_eq!(before.compiles, 1);

    let probe = CountProbe::new();
    let cell = probe.cell();
    p.add_local_probe_val(f, loop_pc, probe).unwrap();
    assert_eq!(p.stats().invalidation_passes, before.invalidation_passes + 1, "invalidated");

    let r = p.invoke(f, &[Value::I32(1000)]).unwrap();
    assert_eq!(r, vec![Value::I32(499_500)]);
    assert_eq!(p.stats().compiles, before.compiles + 1, "re-lowered once, with the probe");
    assert_eq!((p.stats().deopts, p.stats().tier_ups), (0, 0), "never left compiled code");
    assert_eq!(cell.get(), 1001);
    assert_eq!(entries.get(), 2);
}

/// The Coverage claim (§3): after self-removing probes fire, the function
/// rejoins the probe-free shared form — execution asymptotically
/// approaches zero overhead (the very code of never-instrumented runs).
#[test]
fn self_removing_probes_leave_clean_compiled_code() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    let mut p = Process::new(m.clone(), EngineConfig::default(), &Linker::new()).unwrap();
    let f = p.module().export_func("sum").unwrap();
    let id_cell: Rc<Cell<Option<wizard_engine::ProbeId>>> = Rc::new(Cell::new(None));
    let idc = Rc::clone(&id_cell);
    let id = p
        .add_local_probe(
            f,
            loop_pc,
            ClosureProbe::shared(move |ctx| {
                if let Some(id) = idc.get() {
                    ctx.remove_probe(id);
                }
            }),
        )
        .unwrap();
    id_cell.set(Some(id));
    p.invoke(f, &[Value::I32(1000)]).unwrap();
    assert!(!p.has_probe_byte(f, loop_pc));
    p.invoke(f, &[Value::I32(1000)]).unwrap();
    let listing = p.compiled_listing(f).unwrap();
    assert!(!listing.contains("site"), "the code carries no probe sites:\n{listing}");

    // And it matches the listing of a never-instrumented process.
    let mut clean = Process::new(m, EngineConfig::default(), &Linker::new()).unwrap();
    clean.invoke(f, &[Value::I32(1000)]).unwrap();
    assert_eq!(listing, clean.compiled_listing(f).unwrap(), "asymptotically zero overhead");
}

/// A global probe inserted from inside a local probe firing in compiled
/// code pulls the frame back to the byte interpreter mid-loop, and
/// removal sends it back to compiled code at the next run leader.
#[test]
fn global_probe_inserted_from_jit_probe_deopts_current_frame() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    let mut p = Process::new(m, EngineConfig::default(), &Linker::new()).unwrap();
    let f = p.module().export_func("sum").unwrap();
    let global_fires = Rc::new(Cell::new(0u64));
    let inserted = Rc::new(Cell::new(false));
    let (gf, ins) = (Rc::clone(&global_fires), Rc::clone(&inserted));
    p.add_local_probe(
        f,
        loop_pc,
        ClosureProbe::shared(move |ctx| {
            // After 100 loop iterations (well into compiled code), switch on a
            // global probe that runs for 50 instructions then removes itself.
            if !ins.get() && ctx.frame().local(1).unwrap().as_i32().unwrap() == 100 {
                ins.set(true);
                let gf2 = Rc::clone(&gf);
                let gid: Rc<Cell<Option<wizard_engine::ProbeId>>> = Rc::new(Cell::new(None));
                let gid2 = Rc::clone(&gid);
                let id = ctx.insert_global_probe(ClosureProbe::shared(move |gctx| {
                    gf2.set(gf2.get() + 1);
                    if gf2.get() >= 50 {
                        if let Some(id) = gid2.get() {
                            gctx.remove_probe(id);
                        }
                    }
                }));
                gid.set(Some(id.unwrap()));
            }
        }),
    )
    .unwrap();
    let r = p.invoke(f, &[Value::I32(1000)]).unwrap();
    assert_eq!(r, vec![Value::I32(499_500)], "mode transitions preserve semantics");
    assert_eq!(global_fires.get(), 50, "one-shot window fired exactly 50 times");
    assert!(!p.in_global_mode());
    let stats = p.stats();
    assert_eq!(stats.deopts, 1, "the compiled frame deoptimized: {stats:?}");
    assert_eq!(stats.tier_ups, 1, "and went back: {stats:?}");
}

/// Parked frames (callers deeper in the stack) whose function was
/// re-lowered beneath them resume in the new form at their byte pc.
#[test]
fn suspended_caller_frames_deopt_on_return() {
    // outer(n) calls inner(n) in a loop; a probe inside inner instruments
    // OUTER mid-run, so outer's register form is invalidated while its
    // frame is parked. Outer is instrumented (a loop-header count) from
    // the start, so it runs a register form of its own.
    let mut mb = ModuleBuilder::new();
    let inner = mb.declare_func("inner", &[I32], &[I32]);
    let mut fi = FuncBuilder::new(&[I32], &[I32]);
    let j = fi.local(I32);
    let acc = fi.local(I32);
    fi.for_range(j, 0, |f| {
        f.local_get(acc).i32_const(1).i32_add().local_set(acc);
    });
    fi.local_get(acc);
    mb.define_func(inner, fi);
    let mut fo = FuncBuilder::new(&[I32], &[I32]);
    let i = fo.local(I32);
    let total = fo.local(I32);
    fo.for_range(i, 0, |f| {
        f.local_get(total).i32_const(50).call(inner).i32_add().local_set(total);
    });
    fo.local_get(total);
    mb.add_func("outer", fo);
    mb.export("inner", wizard_wasm::types::ExternKind::Func, inner);
    let (m, meta) = mb.build_with_meta().unwrap();

    let mut p = Process::new(m, EngineConfig::default(), &Linker::new()).unwrap();
    let outer = p.module().export_func("outer").unwrap();
    let inner = p.module().export_func("inner").unwrap();
    let header = CountProbe::new();
    let headers = header.cell();
    p.add_local_probe_val(outer, meta.funcs[outer as usize].loop_headers[0], header).unwrap();
    let done = Rc::new(Cell::new(false));
    let d = Rc::clone(&done);
    p.add_local_probe(
        inner,
        0,
        ClosureProbe::shared(move |ctx| {
            if !d.get() {
                d.set(true);
                // Instrument the CALLER's entry: outer's register form is
                // now stale while its frame sits parked below us.
                let caller = ctx.frame().caller().map(|a| a.func()).unwrap_or(0);
                ctx.insert_local_probe(caller, 0, ClosureProbe::shared(|_| {})).unwrap();
            }
        }),
    )
    .unwrap();
    let r = p.invoke(outer, &[Value::I32(100)]).unwrap();
    assert_eq!(r, vec![Value::I32(5000)]);
    let stats = p.stats();
    // outer's and inner's first forms, then outer's with the new site,
    // lowered when its parked frame resumed.
    assert_eq!(stats.compiles, 3, "stale caller re-lowered: {stats:?}");
    assert_eq!(stats.deopts, 0, "and resumed in it: {stats:?}");
    assert_eq!(headers.get(), 101, "the loop-header count is exact across the re-lowering");
}

/// A metered frame arriving at a run leader its slice cannot pay for
/// demotes there; the byte interpreter runs (and charges) that run
/// instruction by instruction, suspends where the byte-dispatch reference
/// does, and the frame promotes at the *next* run leader — billed exactly
/// the reference's fuel throughout.
#[test]
fn a_metered_frame_demoted_at_an_unpaid_leader_promotes_at_the_next_leader() {
    let (m, _) = sum_module();
    let art = ModuleArtifact::new(m.clone()).unwrap();
    let runs = art.runs();
    // Run 0 sets up the loop; run 1 is the loop header's test; run 2 the
    // body, entered when the test falls through.
    let (entry, unpaid) = (runs.run(0), runs.run(1));
    assert!(unpaid.len() >= 2, "{runs:?}");
    let second = runs.sites()[unpaid.start + 1];
    let next = runs.leader(2);
    // The entry run and one instruction more: the frame reaches the
    // header's run with one unit left.
    let fuel = entry.len() as u64 + 1;

    let run = |config: EngineConfig| {
        let mut p = Process::new(m.clone(), config, &Linker::new()).unwrap();
        let f = p.module().export_func("sum").unwrap();
        let tiers: Rc<RefCell<Vec<(u32, Tier)>>> = Rc::default();
        for loc in [second, next] {
            let t = Rc::clone(&tiers);
            let probe = ClosureProbe::shared(move |ctx| {
                t.borrow_mut().push((ctx.location().pc, ctx.frame().tier()));
            });
            p.add_local_probe(loc.func, loc.pc, probe).unwrap();
        }
        assert_eq!(p.run_bounded(f, &[Value::I32(3)], fuel).unwrap(), RunOutcome::OutOfFuel);
        let (at, parked) = (p.suspended_at(), p.stats());
        let out = p.resume(1 << 20).unwrap();
        let tiers = tiers.borrow().clone();
        (at, parked, out, p.stats(), tiers)
    };
    let reference = run(EngineConfig::interpreter_bytecode());
    let (at, parked, out, done, tiers) = run(EngineConfig::default());
    assert_eq!(at, Some(second), "suspended after the unpaid leader's first instruction");
    assert_eq!(at, reference.0, "where the reference suspends");
    assert_eq!((parked.deopts, parked.tier_ups), (1, 0), "demoted at the unpaid leader");
    assert_eq!(parked.fuel_consumed, reference.1.fuel_consumed);
    assert_eq!(out, RunOutcome::Done(vec![Value::I32(3)]));
    assert_eq!(out, reference.2);
    assert_eq!(done.fuel_consumed, reference.3.fuel_consumed, "fuel equal to the reference");
    assert_eq!((done.deopts, done.tier_ups), (1, 1), "promoted once, and stayed");
    // The rest of the unpaid run ran in the byte interpreter; the next
    // leader's probe already fired in the register form.
    assert_eq!(tiers[..2], [(second.pc, Tier::Interp), (next.pc, Tier::Reg)]);
    assert!(tiers[2..].iter().all(|&(_, tier)| tier == Tier::Reg), "{tiers:?}");
}

/// `EngineConfig::interpreter()` — the default under its historical name —
/// never compiles clean code, no matter how hot it gets: the artifact's
/// shared register form runs it, and no frame changes tier.
#[test]
fn interp_only_mode_never_compiles() {
    let (m, _) = sum_module();
    let mut p = Process::new(m, EngineConfig::interpreter(), &Linker::new()).unwrap();
    let f = p.module().export_func("sum").unwrap();
    p.invoke(f, &[Value::I32(100_000)]).unwrap();
    let stats = p.stats();
    assert_eq!((stats.compiles, stats.tier_ups, stats.deopts), (0, 0, 0), "{stats:?}");
    assert_eq!(stats.functions_lowered, 1);
}

/// Frame modification during deep recursion affects only the modified
/// frame; every activation of the function keeps running compiled code
/// (§4.6, footnote 15) — in the register form none needs to deoptimize.
#[test]
fn frame_modification_deopts_only_target_frame() {
    let mut mb = ModuleBuilder::new();
    let fib = mb.declare_func("fib", &[I32], &[I32]);
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    f.local_get(0).i32_const(2).i32_lt_s().if_(wizard_wasm::types::BlockType::Value(I32));
    f.local_get(0);
    f.else_();
    f.local_get(0).i32_const(1).i32_sub().call(fib);
    f.local_get(0).i32_const(2).i32_sub().call(fib);
    f.i32_add();
    f.end();
    mb.define_func(fib, f);
    mb.export("fib", wizard_wasm::types::ExternKind::Func, fib);
    let m = mb.build().unwrap();
    let mut p = Process::new(m, EngineConfig::default(), &Linker::new()).unwrap();
    let f = p.module().export_func("fib").unwrap();
    let modified = Rc::new(Cell::new(0u32));
    let md = Rc::clone(&modified);
    p.add_local_probe(
        f,
        0,
        ClosureProbe::shared(move |ctx| {
            // Rewrite the argument of exactly one deep activation: 13 -> 1.
            let mut view = ctx.frame();
            if view.local(0).unwrap().as_i32().unwrap() == 13 && md.get() == 0 {
                md.set(1);
                view.set_local(0, Value::I32(1)).unwrap();
            }
        }),
    )
    .unwrap();
    let r = p.invoke(f, &[Value::I32(15)]).unwrap();
    // fib(15) with one fib(13) activation replaced by fib(1)=1:
    // fib(15) = fib(14) + fib(13); the first-reached 13-activation is the
    // fib(14)->fib(13) one, so result = (fib(13)+1) + fib(13) where the
    // remaining computation is unmodified: 233+1+233 = ... compute:
    // unperturbed fib: 13->233, 14->377, 15->610. Modified:
    // fib(14) = fib(13_mod=1) + fib(12)=144 => 145; fib(15) = 145 + 233 = 378.
    assert_eq!(r, vec![Value::I32(378)]);
    assert_eq!(modified.get(), 1);
    assert_eq!(p.stats().deopts, 0);
}
