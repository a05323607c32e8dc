//! DynamoRIO-style dynamic binary instrumentation cost model (§5.7).
//!
//! DynamoRIO recompiles native code into a basic-block cache and inserts
//! *clean calls* at instrumentation points: each clean call spills and
//! restores the register file and EFLAGS around a call into analysis
//! code. The paper measures hotness at 3.9–192× and branch at 4.4–153×,
//! dominated by exactly those spills.
//!
//! We model the clean call explicitly: the injected hook saves a 16-slot
//! virtual register file plus a flags word, performs the analysis action
//! (a counter bump in a tuple-keyed map), and restores. The
//! "uninstrumented native" baseline is the same program on the engine's
//! compiled tier without hooks.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use wizard_engine::store::Linker;
use wizard_rewriter::inject_host_call;
use wizard_wasm::module::Module;
use wizard_wasm::opcodes as op;
use wizard_wasm::validate::ValidateError;

/// The DBI tool state.
#[derive(Debug, Default)]
pub struct DbiTool {
    /// The simulated machine context (register file + flags), spilled and
    /// restored around every clean call.
    machine_ctx: RefCell<[u64; 17]>,
    spill_area: RefCell<[u64; 17]>,
    counters: RefCell<HashMap<(i32, i32), u64>>,
    clean_calls: Cell<u64>,
}

impl DbiTool {
    /// Number of clean calls executed.
    pub fn clean_calls(&self) -> u64 {
        self.clean_calls.get()
    }

    /// Sum of all counters.
    pub fn total(&self) -> u64 {
        self.counters.borrow().values().sum()
    }
}

/// A DBI-instrumented program plus its tool state.
pub struct DbiRun {
    /// The instrumented module.
    pub module: Module,
    /// Shared tool state.
    pub tool: Rc<DbiTool>,
    /// Linker providing the clean-call target.
    pub linker: Linker,
}

fn make_run(module: &Module, branch: bool) -> Result<DbiRun, ValidateError> {
    let select: fn(&wizard_wasm::instr::Instr) -> bool =
        if branch { |i| matches!(i.op, op::IF | op::BR_IF | op::BR_TABLE) } else { |_| true };
    let (instrumented, _) = inject_host_call(module, "clean_call", select, branch)?;
    let tool = Rc::new(DbiTool::default());
    let t = Rc::clone(&tool);
    let mut linker = Linker::new();
    linker.func("hook", "clean_call", move |_ctx, args| {
        t.clean_calls.set(t.clean_calls.get() + 1);
        // Spill the machine context (registers + flags)...
        {
            let ctx = t.machine_ctx.borrow();
            let mut spill = t.spill_area.borrow_mut();
            spill.copy_from_slice(&*ctx);
        }
        // ...run the analysis payload...
        {
            let f = args[0].as_i32().unwrap_or(0);
            let pc = args[1].as_i32().unwrap_or(0);
            let mut map = t.counters.borrow_mut();
            *map.entry((f, pc)).or_insert(0) += 1;
        }
        // ...and restore it (the EFLAGS word gets "recomputed").
        {
            let spill = t.spill_area.borrow();
            let mut ctx = t.machine_ctx.borrow_mut();
            ctx.copy_from_slice(&*spill);
            ctx[16] = ctx[16].wrapping_add(1); // flags write-back
        }
        Ok(vec![])
    });
    Ok(DbiRun { module: instrumented, tool, linker })
}

/// Hotness via DBI clean calls at every instruction.
///
/// # Errors
///
/// Propagates validation failure of the rewritten module.
pub fn hotness(module: &Module) -> Result<DbiRun, ValidateError> {
    make_run(module, false)
}

/// Branch profiling via DBI clean calls at conditional branches.
///
/// # Errors
///
/// Propagates validation failure of the rewritten module.
pub fn branch(module: &Module) -> Result<DbiRun, ValidateError> {
    make_run(module, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_engine::{EngineConfig, Process, Value};
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::ValType::I32;

    #[test]
    fn clean_calls_fire_and_preserve_results() {
        let mut mb = ModuleBuilder::new();
        mb.memory(1);
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let i = f.local(I32);
        let acc = f.local(I32);
        f.for_range(i, 0, |f| {
            f.local_get(acc).local_get(i).i32_add().local_set(acc);
        });
        f.local_get(acc);
        mb.add_func("run", f);
        let m = mb.build().unwrap();
        let run = hotness(&m).unwrap();
        let mut p = Process::new(run.module, EngineConfig::default(), &run.linker).unwrap();
        let r = p.invoke_export("run", &[Value::I32(10)]).unwrap();
        assert_eq!(r, vec![Value::I32(45)]);
        assert!(run.tool.clean_calls() > 50);
        assert_eq!(run.tool.total(), run.tool.clean_calls());
    }
}
