//! The **after-instruction** utility (paper §2.6): run M-code *after* an
//! instruction executes, even though the engine only offers fire-before
//! probes — built, like function entry/exit, purely above the probe
//! hierarchy.
//!
//! This implements the paper's third strategy: from within the
//! before-probe, insert a one-shot *global* probe; it fires on the next
//! executed instruction — wherever control went, including through
//! `call_indirect` with its unbounded target set — and removes itself.
//! The paper notes this is only viable because enabling global probes
//! does not discard compiled code (§4.1), which this engine guarantees.

use std::cell::Cell;
use std::rc::Rc;

use wizard_engine::{ClosureProbe, Location, ProbeCtx, ProbeError, ProbeId};

/// From within a firing probe, schedules `callback` to run immediately
/// after the current instruction executes. The callback receives the
/// location *reached* (the instruction about to execute next).
///
/// One-shot: the underlying global probe removes itself after firing.
///
/// # Errors
///
/// Fails as [`ProbeCtx::insert_global_probe`] does; nothing is scheduled
/// then.
pub fn run_after_instruction(
    ctx: &mut ProbeCtx<'_, '_>,
    callback: impl FnOnce(&mut ProbeCtx<'_, '_>, Location) + 'static,
) -> Result<(), ProbeError> {
    let id_cell: Rc<Cell<Option<ProbeId>>> = Rc::new(Cell::new(None));
    let idc = Rc::clone(&id_cell);
    let mut cb = Some(callback);
    let id = ctx.insert_global_probe(ClosureProbe::shared(move |gctx| {
        if let Some(id) = idc.get() {
            gctx.remove_probe(id);
        }
        if let Some(cb) = cb.take() {
            let loc = gctx.location();
            cb(gctx, loc);
        }
    }))?;
    id_cell.set(Some(id));
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use wizard_engine::store::Linker;
    use wizard_engine::{ClosureProbe, EngineConfig, Process, Value};
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::ValType::I32;

    use super::*;

    /// Profile the dynamic targets of a `call_indirect` — the paper's
    /// motivating case for after-instruction, since the target set is
    /// unbounded (cannot pre-instrument all destinations).
    #[test]
    fn observes_call_indirect_targets() {
        let mut mb = ModuleBuilder::new();
        mb.table(2);
        let mut a = FuncBuilder::new(&[I32], &[I32]);
        a.local_get(0).i32_const(1).i32_add();
        let a = mb.add_private_func("a", a);
        let mut b = FuncBuilder::new(&[I32], &[I32]);
        b.local_get(0).i32_const(2).i32_mul();
        let b = mb.add_private_func("b", b);
        mb.elem(0, &[a, b]);
        let sig = mb.sig(&[I32], &[I32]);
        let mut main = FuncBuilder::new(&[I32, I32], &[I32]);
        main.local_get(0).local_get(1);
        let ci_pc = main.pc();
        main.call_indirect(sig);
        mb.add_func("dispatch", main);
        let m = mb.build().unwrap();

        let mut p = Process::new(m, EngineConfig::interpreter(), &Linker::new()).unwrap();
        let f = p.module().export_func("dispatch").unwrap();
        let entered: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let e = Rc::clone(&entered);
        p.add_local_probe(
            f,
            ci_pc,
            ClosureProbe::shared(move |ctx| {
                let e2 = Rc::clone(&e);
                run_after_instruction(ctx, move |_gctx, loc| {
                    // The instruction after call_indirect executes inside the
                    // callee: loc.func IS the dynamic target.
                    e2.borrow_mut().push(loc.func);
                })
                .unwrap();
            }),
        )
        .unwrap();

        assert_eq!(p.invoke(f, &[Value::I32(5), Value::I32(0)]).unwrap(), vec![Value::I32(6)]);
        assert_eq!(p.invoke(f, &[Value::I32(5), Value::I32(1)]).unwrap(), vec![Value::I32(10)]);
        assert_eq!(*entered.borrow(), vec![a, b], "dynamic targets observed");
        assert!(!p.in_global_mode(), "one-shot probes removed themselves");
    }

    /// After-instruction nests: a callback can schedule another one.
    #[test]
    fn after_instruction_chains() {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[], &[I32]);
        f.i32_const(1).i32_const(2).i32_add().i32_const(3).i32_add();
        mb.add_func("run", f);
        let m = mb.build().unwrap();
        let mut p = Process::new(m, EngineConfig::interpreter(), &Linker::new()).unwrap();
        let f = p.module().export_func("run").unwrap();
        let pcs: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let pc2 = Rc::clone(&pcs);
        p.add_local_probe(
            f,
            0,
            ClosureProbe::shared(move |ctx| {
                let pc3 = Rc::clone(&pc2);
                run_after_instruction(ctx, move |gctx, loc| {
                    pc3.borrow_mut().push(loc.pc);
                    let pc4 = Rc::clone(&pc3);
                    run_after_instruction(gctx, move |_g, loc2| {
                        pc4.borrow_mut().push(loc2.pc);
                    })
                    .unwrap();
                })
                .unwrap();
            }),
        )
        .unwrap();
        assert_eq!(p.invoke(f, &[]).unwrap(), vec![Value::I32(6)]);
        // i32.const 1 is at pc 0 (2 bytes), i32.const 2 at 2, i32.add at 4.
        assert_eq!(*pcs.borrow(), vec![2, 4]);
    }
}
