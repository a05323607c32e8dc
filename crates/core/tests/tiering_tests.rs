//! Tiering and deoptimization edge cases: recompilation after probe
//! churn, deopt of suspended frames, global probes inserted from inside
//! JIT code, and the Coverage-style "asymptotically zero overhead" claim.

use std::cell::Cell;
use std::rc::Rc;

use wizard_engine::store::Linker;
use wizard_engine::{ClosureProbe, CountProbe, EngineConfig, ExecMode, Process, Value};
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

fn tiered(threshold: u32) -> EngineConfig {
    EngineConfig::builder().mode(ExecMode::Tiered).tierup_threshold(threshold).build()
}

/// Probe insertion invalidates compiled code; the hot function is then
/// *recompiled* (with the probe baked in) rather than stuck interpreting.
/// (An entry probe makes the function instrumented from the start: clean
/// code runs in the register tier and never compiles.)
#[test]
fn hot_function_recompiles_after_probe_insertion() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    let mut p = Process::new(m, tiered(5), &Linker::new()).unwrap();
    let f = p.module().export_func("sum").unwrap();
    let entry = CountProbe::new();
    let entries = entry.cell();
    p.add_local_probe_val(f, 0, entry).unwrap();
    p.invoke(f, &[Value::I32(1000)]).unwrap();
    assert!(p.is_compiled(f));
    let compiles_before = p.stats().compiles;

    let probe = CountProbe::new();
    let cell = probe.cell();
    p.add_local_probe_val(f, loop_pc, probe).unwrap();
    assert!(!p.is_compiled(f), "insertion invalidates compiled code");

    let r = p.invoke(f, &[Value::I32(1000)]).unwrap();
    assert_eq!(r, vec![Value::I32(499_500)]);
    assert!(p.is_compiled(f), "hot function recompiled with the probe");
    assert!(p.stats().compiles > compiles_before);
    assert_eq!(cell.get(), 1001);
    assert_eq!(entries.get(), 2);
}

/// The Coverage claim (§3): after self-removing probes fire, the function
/// recompiles probe-free — execution asymptotically approaches zero
/// overhead (same compiled shape as never-instrumented code).
#[test]
fn self_removing_probes_leave_clean_compiled_code() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    let mut p = Process::new(m.clone(), tiered(5), &Linker::new()).unwrap();
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
    assert!(!listing.contains("probe"), "recompiled code carries no probe ops:\n{listing}");

    // And it matches the listing of a never-instrumented process.
    let mut clean = Process::new(m, tiered(5), &Linker::new()).unwrap();
    clean.invoke(f, &[Value::I32(1000)]).unwrap();
    assert_eq!(listing, clean.compiled_listing(f).unwrap(), "asymptotically zero overhead");
}

/// A global probe inserted from inside a JIT-executing local probe pulls
/// the frame back to the interpreter mid-loop, and removal resumes JIT.
#[test]
fn global_probe_inserted_from_jit_probe_deopts_current_frame() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    let mut p = Process::new(m, tiered(2), &Linker::new()).unwrap();
    let f = p.module().export_func("sum").unwrap();
    let global_fires = Rc::new(Cell::new(0u64));
    let inserted = Rc::new(Cell::new(false));
    let (gf, ins) = (Rc::clone(&global_fires), Rc::clone(&inserted));
    p.add_local_probe(
        f,
        loop_pc,
        ClosureProbe::shared(move |ctx| {
            // After 100 loop iterations (well into JIT execution), switch on a
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
    assert!(p.stats().deopts >= 1, "the JIT frame deoptimized: {:?}", p.stats());
}

/// Suspended JIT frames (callers deeper in the stack) deoptimize when
/// resumed after instrumentation changed beneath them.
#[test]
fn suspended_caller_frames_deopt_on_return() {
    // outer(n) calls inner(n) in a loop; a probe inside inner instruments
    // OUTER mid-run, so outer's suspended JIT frame is stale on resume.
    // Outer is instrumented (a loop-header count) from the start, so it
    // runs the stack tiers and compiles.
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

    let mut p = Process::new(m, tiered(2), &Linker::new()).unwrap();
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
                // Instrument the CALLER's entry: outer's compiled code is now
                // stale while its frame sits suspended below us.
                let caller = ctx.frame().caller().map(|a| a.func()).unwrap_or(0);
                ctx.insert_local_probe(caller, 0, ClosureProbe::shared(|_| {})).unwrap();
            }
        }),
    )
    .unwrap();
    let r = p.invoke(outer, &[Value::I32(100)]).unwrap();
    assert_eq!(r, vec![Value::I32(5000)]);
    assert!(p.stats().deopts >= 1, "stale caller deopted: {:?}", p.stats());
    assert_eq!(headers.get(), 101, "the loop-header count is exact across the deopt");
}

/// JIT-only mode compiles on first call and never interprets (except when
/// explicitly deoptimized by instrumentation churn), and OSR stats stay
/// zero.
#[test]
fn jit_only_mode_has_no_tier_ups() {
    let (m, _) = sum_module();
    let mut p = Process::new(m, EngineConfig::jit(), &Linker::new()).unwrap();
    let f = p.module().export_func("sum").unwrap();
    p.invoke(f, &[Value::I32(100)]).unwrap();
    let stats = p.stats();
    assert!(p.is_compiled(f));
    assert_eq!(stats.tier_ups, 0, "no OSR in JIT-only mode");
    assert_eq!(stats.deopts, 0);
    assert!(stats.compiles >= 1);
}

/// Interp-only mode never compiles, no matter how hot the code gets.
#[test]
fn interp_only_mode_never_compiles() {
    let (m, _) = sum_module();
    let mut p = Process::new(m, EngineConfig::interpreter(), &Linker::new()).unwrap();
    let f = p.module().export_func("sum").unwrap();
    p.invoke(f, &[Value::I32(100_000)]).unwrap();
    assert!(!p.is_compiled(f));
    assert_eq!(p.stats().compiles, 0);
}

/// Frame modification during deep recursion only deoptimizes the modified
/// frame; other activations of the same function keep running compiled
/// code (§4.6, footnote 15).
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
    let mut p = Process::new(m, tiered(2), &Linker::new()).unwrap();
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
}
