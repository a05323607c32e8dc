//! `wizard-rewriter`: static Wasm-to-Wasm bytecode rewriting — the
//! *intrusive* instrumentation baseline of the paper's §5.5 (there
//! implemented with the Walrus library).
//!
//! The rewriter decodes each function body to an instruction list, injects
//! stack-neutral payloads before matching instructions, and re-encodes.
//! Because Wasm branch targets are relative label *depths* (not byte
//! offsets), inserting non-control instructions never invalidates
//! branches; byte offsets shift, which is exactly the intrusiveness the
//! paper calls out (original locations are lost).
//!
//! Two ready-made transforms mirror the paper's experiments:
//!
//! * [`count_instructions`] — the hotness monitor by rewriting: an i64
//!   counter in a reserved linear-memory region, load/add/store before
//!   every instruction;
//! * [`count_branches`] — the branch monitor by rewriting: the same
//!   counter bump before every `if`/`br_if`/`br_table`;
//! * [`inject_host_call`] — a Wasabi-style trampoline: a call to an
//!   imported hook before matching instructions, passing `(func, pc)` and
//!   optionally the top-of-stack value via a scratch local.
//!
//! # Example
//!
//! Rewrite a module to count every instruction, run the *instrumented*
//! module on the engine, and read the counters back out of its linear
//! memory — behavior is preserved, but locations are not (the paper's
//! intrusiveness):
//!
//! ```
//! use wizard_engine::store::Linker;
//! use wizard_engine::{EngineConfig, Process, Value};
//! use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
//! use wizard_wasm::types::ValType::I32;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mb = ModuleBuilder::new();
//! mb.memory(1); // counter rewriting stores counts in linear memory
//! let mut f = FuncBuilder::new(&[I32], &[I32]);
//! f.local_get(0).i32_const(1).i32_add();
//! mb.add_func("inc", f);
//! let module = mb.build()?;
//!
//! let counted = wizard_rewriter::count_instructions(&module)?;
//! let mut p = Process::new(counted.module.clone(), EngineConfig::interpreter(), &Linker::new())?;
//! let r = p.invoke_export("inc", &[Value::I32(41)])?;
//! assert_eq!(r, vec![Value::I32(42)], "rewriting must not change results");
//! assert_eq!(counted.sites.len(), 4); // local.get, i32.const, i32.add, end
//! assert_eq!(counted.total(p.memory().unwrap()), 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use wizard_wasm::instr::{encode, Imm, Instr, InstrIter};
use wizard_wasm::module::{FuncIdx, Import, ImportDesc, Module};
use wizard_wasm::opcodes as op;
use wizard_wasm::types::{ValType, PAGE_SIZE};
use wizard_wasm::validate::{validate, ValidateError};

/// A site selected for instrumentation (pre-rewrite coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// Function (global index, post-rewrite index space).
    pub func: FuncIdx,
    /// Original byte offset of the instruction.
    pub pc: u32,
    /// The instruction's opcode.
    pub opcode: u8,
}

/// Result of a counter-injection rewrite.
#[derive(Debug, Clone)]
pub struct Counted {
    /// The instrumented module.
    pub module: Module,
    /// Byte offset of the counter array in linear memory.
    pub counter_base: u32,
    /// The instrumented sites, in counter order.
    pub sites: Vec<Site>,
}

impl Counted {
    /// Reads counter `i` from a memory snapshot of the instrumented run.
    pub fn counter(&self, memory: &[u8], i: usize) -> u64 {
        let at = self.counter_base as usize + i * 8;
        u64::from_le_bytes(memory[at..at + 8].try_into().expect("in bounds"))
    }

    /// Sum of all counters.
    pub fn total(&self, memory: &[u8]) -> u64 {
        (0..self.sites.len()).map(|i| self.counter(memory, i)).sum()
    }
}

/// Generic rewriting: for every instruction of every local function where
/// `select` returns true, `payload` emits raw instruction bytes that are
/// inserted *before* the instruction. The payload must be stack-neutral.
///
/// `payload(site_index, site, out)` — `site_index` counts selected sites
/// across the whole module in code order.
///
/// # Errors
///
/// Returns the validation error if the rewritten module is invalid (i.e.
/// the payload was not stack-neutral).
pub fn rewrite(
    module: &Module,
    select: impl Fn(&Instr) -> bool,
    mut payload: impl FnMut(usize, &Site, &mut Vec<u8>),
) -> Result<(Module, Vec<Site>), ValidateError> {
    let mut out = module.clone();
    let n_imp = module.num_imported_funcs();
    let mut sites = Vec::new();
    let mut idx = 0usize;
    for (i, f) in out.funcs.iter_mut().enumerate() {
        let func = n_imp + i as u32;
        let mut code = Vec::with_capacity(f.body.code.len() * 2);
        for item in InstrIter::new(&f.body.code) {
            let instr = item.expect("validated input");
            if select(&instr) {
                let site = Site { func, pc: instr.pc, opcode: instr.op };
                if instr.op == op::LOOP {
                    // A probe at a loop header fires on entry AND on every
                    // backedge (branches target the loop instruction). The
                    // static equivalent is the payload as the first
                    // instruction of the loop body.
                    encode(instr.op, &instr.imm, &mut code);
                    payload(idx, &site, &mut code);
                } else {
                    payload(idx, &site, &mut code);
                    encode(instr.op, &instr.imm, &mut code);
                }
                sites.push(site);
                idx += 1;
            } else {
                encode(instr.op, &instr.imm, &mut code);
            }
        }
        f.body.code = code;
    }
    validate(&out)?;
    Ok((out, sites))
}

/// Pages the module currently declares for memory 0 (0 if none).
fn memory_pages(module: &Module) -> u32 {
    module.memory0().map_or(0, |m| m.limits.min)
}

/// Grows the module's memory by enough pages for `n` 8-byte counters and
/// returns the counter base address.
///
/// # Panics
///
/// Panics if the module has no memory (counting in memory requires one).
fn reserve_counters(module: &mut Module, n: usize) -> u32 {
    let pages = memory_pages(module);
    assert!(!module.memories.is_empty(), "counter rewriting requires a module-defined memory");
    let extra = (n * 8).div_ceil(PAGE_SIZE) as u32 + 1;
    let mem = &mut module.memories[0];
    mem.limits.min = pages + extra;
    if let Some(max) = mem.limits.max {
        mem.limits.max = Some(max.max(pages + extra));
    }
    pages * PAGE_SIZE as u32
}

fn counter_bump_payload(counter_base: u32, site_index: usize, out: &mut Vec<u8>) {
    let addr = counter_base as i32 + (site_index as i32) * 8;
    // i32.const addr ; i32.const addr ; i64.load ; i64.const 1 ; i64.add ;
    // i64.store — the paper's "counters stored in memory, necessitating
    // loads and stores".
    encode(op::I32_CONST, &Imm::I32(addr), out);
    encode(op::I32_CONST, &Imm::I32(addr), out);
    encode(op::I64_LOAD, &Imm::Mem { align: 3, offset: 0 }, out);
    encode(op::I64_CONST, &Imm::I64(1), out);
    encode(op::I64_ADD, &Imm::None, out);
    encode(op::I64_STORE, &Imm::Mem { align: 3, offset: 0 }, out);
}

/// The hotness monitor by static rewriting: an in-memory counter bump
/// before *every* instruction.
///
/// # Errors
///
/// Propagates validation failure of the rewritten module.
pub fn count_instructions(module: &Module) -> Result<Counted, ValidateError> {
    counted(module, |_| true)
}

/// The branch monitor by static rewriting: a counter bump before every
/// conditional branch.
///
/// # Errors
///
/// Propagates validation failure of the rewritten module.
pub fn count_branches(module: &Module) -> Result<Counted, ValidateError> {
    counted(module, |i| matches!(i.op, op::IF | op::BR_IF | op::BR_TABLE))
}

fn counted(module: &Module, select: impl Fn(&Instr) -> bool) -> Result<Counted, ValidateError> {
    // First pass: count sites so we can size the counter region.
    let n_sites: usize = module
        .funcs
        .iter()
        .map(|f| {
            InstrIter::new(&f.body.code).map(|i| i.expect("validated")).filter(&select).count()
        })
        .sum();
    let mut grown = module.clone();
    let counter_base = reserve_counters(&mut grown, n_sites);
    let (module, sites) = rewrite(&grown, select, |idx, _site, out| {
        counter_bump_payload(counter_base, idx, out);
    })?;
    Ok(Counted { module, counter_base, sites })
}

/// Injects a call to an imported hook function before each selected
/// instruction — the Wasabi-style trampoline transform.
///
/// The hook is imported as `(import "hook" <name> (func (param i32 i32 i32)))`
/// receiving `(func_index, original_pc, top_of_stack_or_zero)`. When
/// `pass_top` is true, the instruction's top-of-stack i32 operand is
/// passed via a scratch local (for branch-style analyses); the payload is
/// still stack-neutral.
///
/// Because imports precede local functions in the index space, all
/// function references in the module are shifted by one; the rewriter
/// fixes up `call` immediates, element segments, exports and the start
/// function.
///
/// # Errors
///
/// Propagates validation failure of the rewritten module.
///
/// # Panics
///
/// Panics if the module already imports functions (not needed for the
/// benchmark suites).
pub fn inject_host_call(
    module: &Module,
    hook_name: &str,
    select: impl Fn(&Instr) -> bool,
    pass_top: bool,
) -> Result<(Module, Vec<Site>), ValidateError> {
    let mut shifted = module.clone();
    assert_eq!(
        shifted.num_imported_funcs(),
        0,
        "inject_host_call supports modules without pre-existing function imports"
    );
    // Add the hook import (function index 0; all others shift by 1).
    let ty = {
        use wizard_wasm::types::FuncType;
        let t = FuncType::new(&[ValType::I32, ValType::I32, ValType::I32], &[]);
        if let Some(i) = shifted.types.iter().position(|x| *x == t) {
            i as u32
        } else {
            shifted.types.push(t);
            shifted.types.len() as u32 - 1
        }
    };
    shifted.imports.push(Import {
        module: "hook".into(),
        name: hook_name.into(),
        desc: ImportDesc::Func(ty),
    });
    // Fix up all function references.
    for e in &mut shifted.exports {
        if e.kind == wizard_wasm::types::ExternKind::Func {
            e.index += 1;
        }
    }
    for seg in &mut shifted.elems {
        for fidx in &mut seg.funcs {
            *fidx += 1;
        }
    }
    if let Some(s) = &mut shifted.start {
        *s += 1;
    }
    // Add a scratch local to every function when passing the top of stack.
    let scratch: Vec<u32> = shifted
        .funcs
        .iter_mut()
        .map(|f| {
            let ty = &module.types[f.type_idx as usize];
            let base = ty.params.len() as u32 + f.body.local_count();
            if pass_top {
                f.body.locals.push((1, ValType::I32));
            }
            base
        })
        .collect();
    let n_imp = 1u32; // the hook
    let mut out = shifted.clone();
    let mut sites = Vec::new();
    for (i, f) in out.funcs.iter_mut().enumerate() {
        let func = n_imp + i as u32;
        let scratch_local = scratch[i];
        let mut code = Vec::with_capacity(f.body.code.len() * 2);
        for item in InstrIter::new(&f.body.code) {
            let mut instr = item.expect("validated input");
            // Fix shifted direct-call targets.
            if instr.op == op::CALL {
                if let Imm::Idx(t) = instr.imm {
                    instr.imm = Imm::Idx(t + 1);
                }
            }
            if select(&instr) {
                sites.push(Site { func, pc: instr.pc, opcode: instr.op });
                let after_loop = instr.op == op::LOOP;
                if after_loop {
                    encode(instr.op, &instr.imm, &mut code);
                }
                if pass_top {
                    // [cond] local.tee s ; i32.const func ; i32.const pc ;
                    // local.get s ; call hook   (cond remains on the stack)
                    encode(op::LOCAL_TEE, &Imm::Idx(scratch_local), &mut code);
                    encode(op::I32_CONST, &Imm::I32(func as i32), &mut code);
                    encode(op::I32_CONST, &Imm::I32(instr.pc as i32), &mut code);
                    encode(op::LOCAL_GET, &Imm::Idx(scratch_local), &mut code);
                } else {
                    encode(op::I32_CONST, &Imm::I32(func as i32), &mut code);
                    encode(op::I32_CONST, &Imm::I32(instr.pc as i32), &mut code);
                    encode(op::I32_CONST, &Imm::I32(0), &mut code);
                }
                encode(op::CALL, &Imm::Idx(0), &mut code);
                if !after_loop {
                    encode(instr.op, &instr.imm, &mut code);
                }
            } else {
                encode(instr.op, &instr.imm, &mut code);
            }
        }
        f.body.code = code;
    }
    validate(&out)?;
    Ok((out, sites))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;
    use wizard_engine::store::Linker;
    use wizard_engine::{EngineConfig, Process, Value};
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::ValType::I32;

    fn loop_module() -> Module {
        let mut mb = ModuleBuilder::new();
        mb.memory(1);
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let i = f.local(I32);
        let acc = f.local(I32);
        f.for_range(i, 0, |f| {
            f.local_get(acc).local_get(i).i32_add().local_set(acc);
            // Touch memory so the kernel resembles real workloads.
            f.i32_const(64).local_get(acc).i32_store(0);
        });
        f.local_get(acc);
        mb.add_func("run", f);
        mb.build().unwrap()
    }

    #[test]
    fn instruction_counting_matches_engine_hotness() {
        let m = loop_module();
        let counted = count_instructions(&m).unwrap();
        let mut p =
            Process::new(counted.module.clone(), EngineConfig::default(), &Linker::new()).unwrap();
        let r = p.invoke_export("run", &[Value::I32(10)]).unwrap();
        assert_eq!(r, vec![Value::I32(45)], "rewriting must preserve semantics");
        let total = counted.total(p.memory().unwrap());
        // Compare with the engine's own hotness monitor on the original.
        let mut p2 = Process::new(m, EngineConfig::interpreter(), &Linker::new()).unwrap();
        let hot = p2.attach_monitor(wizard_monitors::HotnessMonitor::new()).unwrap();
        p2.invoke_export("run", &[Value::I32(10)]).unwrap();
        assert_eq!(total, hot.borrow().total(), "rewriting and probes count identically");
    }

    #[test]
    fn branch_counting_counts_only_branches() {
        let m = loop_module();
        let counted = count_branches(&m).unwrap();
        assert_eq!(counted.sites.len(), 1); // the loop's br_if
        let mut p =
            Process::new(counted.module.clone(), EngineConfig::default(), &Linker::new()).unwrap();
        p.invoke_export("run", &[Value::I32(10)]).unwrap();
        assert_eq!(counted.total(p.memory().unwrap()), 11);
    }

    #[test]
    fn host_call_injection_with_top_of_stack() {
        let m = loop_module();
        let (instrumented, sites) = inject_host_call(
            &m,
            "branch",
            |i| matches!(i.op, op::IF | op::BR_IF | op::BR_TABLE),
            true,
        )
        .unwrap();
        assert_eq!(sites.len(), 1);
        let taken = Rc::new(Cell::new(0u64));
        let not_taken = Rc::new(Cell::new(0u64));
        let (t2, n2) = (Rc::clone(&taken), Rc::clone(&not_taken));
        let mut linker = Linker::new();
        linker.func("hook", "branch", move |_ctx, args| {
            if args[2].as_i32().unwrap() != 0 {
                t2.set(t2.get() + 1);
            } else {
                n2.set(n2.get() + 1);
            }
            Ok(vec![])
        });
        let mut p = Process::new(instrumented, EngineConfig::default(), &linker).unwrap();
        let r = p.invoke_export("run", &[Value::I32(10)]).unwrap();
        assert_eq!(r, vec![Value::I32(45)]);
        assert_eq!(taken.get(), 1);
        assert_eq!(not_taken.get(), 10);
    }

    #[test]
    fn rewriting_preserves_polybench_semantics() {
        for (name, m) in wizard_suites::polybench::all().into_iter().take(6) {
            let counted =
                count_instructions(&m).unwrap_or_else(|e| panic!("{name}: rewrite failed: {e}"));
            let mut orig = Process::new(m, EngineConfig::default(), &Linker::new()).unwrap();
            let mut inst =
                Process::new(counted.module, EngineConfig::default(), &Linker::new()).unwrap();
            let a = orig.invoke_export("run", &[Value::I32(8)]).unwrap();
            let b = inst.invoke_export("run", &[Value::I32(8)]).unwrap();
            assert_eq!(a[0].to_slot(), b[0].to_slot(), "{name}: instrumented result differs");
        }
    }

    #[test]
    fn host_call_injection_on_richards_fixes_indices() {
        let m = wizard_suites::richards::module();
        let calls = Rc::new(Cell::new(0u64));
        let c2 = Rc::clone(&calls);
        let (instrumented, _) =
            inject_host_call(&m, "every", |i| op::is_call(i.op), false).unwrap();
        let mut linker = Linker::new();
        linker.func("hook", "every", move |_ctx, _args| {
            c2.set(c2.get() + 1);
            Ok(vec![])
        });
        let mut orig = Process::new(m, EngineConfig::default(), &Linker::new()).unwrap();
        let mut inst = Process::new(instrumented, EngineConfig::default(), &linker).unwrap();
        let a = orig.invoke_export("run", &[Value::I32(500)]).unwrap();
        let b = inst.invoke_export("run", &[Value::I32(500)]).unwrap();
        assert_eq!(a, b, "call/elem index fixup must preserve behavior");
        assert!(calls.get() > 500, "hook fired per callsite execution");
    }
}
