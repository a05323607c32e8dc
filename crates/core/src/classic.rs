//! The classic byte-walking interpreter: the pre-lowering dispatch loop,
//! kept as a selectable engine configuration
//! ([`Dispatch::Bytecode`](crate::Dispatch)).
//!
//! This is the in-place dispatch the engine shipped with before the
//! lowered code cache ([`crate::lowered`]): it walks raw bytecode,
//! LEB128-decodes immediates on every execution, and resolves branches
//! through the validator's per-pc side-table `HashMap`. It is retained for
//! two reasons:
//!
//! * the `dispatch_speed` benchmark measures the default tiers *against*
//!   this loop, so the decode-tax win stays measurable instead of becoming
//!   folklore, and the figure binaries time probes on it (the paper's
//!   in-place interpreter);
//! * the differential test suite runs programs under both dispatchers and
//!   requires identical results, traps, and probe behavior — byte-walking
//!   is the semantic reference for the register and lowered tiers.
//!
//! Structure is identical to [`crate::interp`]: a 256-entry handler table,
//! with a second all-stub table switched in for global-probe mode
//! (paper §4.1), and bytecode overwriting for local probes (§4.2).

use std::sync::LazyLock;

use wizard_wasm::opcodes as op;
use wizard_wasm::validate::SideEntry;

use crate::exec::{Exec, Exit, Sig};
use crate::frame::Tier;
use crate::numeric;
use crate::probe::Location;
use crate::trap::Trap;
use crate::value::Slot;
use crate::ExecMode;

/// A classic interpreter handler: executes one instruction from raw bytes
/// (including advancing the byte pc) or raises a [`Sig`].
pub(crate) type Handler = fn(&mut Exec, u8) -> Result<(), Sig>;

static NORMAL: LazyLock<[Handler; 256]> = LazyLock::new(build_normal);
static INSTRUMENTED: LazyLock<[Handler; 256]> = LazyLock::new(|| [op_global_stub as Handler; 256]);

/// The dispatch table used when no global probes are active.
pub(crate) fn normal_table() -> &'static [Handler; 256] {
    &NORMAL
}

/// The dispatch table used in global-probe mode.
pub(crate) fn instrumented_table() -> &'static [Handler; 256] {
    &INSTRUMENTED
}

fn build_normal() -> [Handler; 256] {
    let mut t: [Handler; 256] = [op_invalid; 256];
    t[op::UNREACHABLE as usize] = op_unreachable;
    t[op::NOP as usize] = op_nop;
    t[op::BLOCK as usize] = op_block;
    t[op::LOOP as usize] = op_loop;
    t[op::IF as usize] = op_if;
    t[op::ELSE as usize] = op_else;
    t[op::END as usize] = op_end;
    t[op::BR as usize] = op_br;
    t[op::BR_IF as usize] = op_br_if;
    t[op::BR_TABLE as usize] = op_br_table;
    t[op::RETURN as usize] = op_return;
    t[op::CALL as usize] = op_call;
    t[op::CALL_INDIRECT as usize] = op_call_indirect;
    t[op::DROP as usize] = op_drop;
    t[op::SELECT as usize] = op_select;
    t[op::LOCAL_GET as usize] = op_local_get;
    t[op::LOCAL_SET as usize] = op_local_set;
    t[op::LOCAL_TEE as usize] = op_local_tee;
    t[op::GLOBAL_GET as usize] = op_global_get;
    t[op::GLOBAL_SET as usize] = op_global_set;
    t[op::MEMORY_SIZE as usize] = op_memory_size;
    t[op::MEMORY_GROW as usize] = op_memory_grow;
    t[op::I32_CONST as usize] = op_i32_const;
    t[op::I64_CONST as usize] = op_i64_const;
    t[op::F32_CONST as usize] = op_f32_const;
    t[op::F64_CONST as usize] = op_f64_const;
    let mut b = 0usize;
    while b < 256 {
        let byte = b as u8;
        if numeric::is_binop(byte) {
            t[b] = op_bin;
        } else if numeric::is_unop(byte) {
            t[b] = op_un;
        } else if op::is_load(byte) {
            t[b] = op_load;
        } else if op::is_store(byte) {
            t[b] = op_store;
        }
        b += 1;
    }
    t[op::PROBE as usize] = op_probe;
    t
}

/// Runs the current (interpreter-tier) frame until the invocation finishes,
/// the current frame changes tier, or a trap unwinds. `ex.pc` holds a
/// *byte* pc throughout.
pub(crate) fn run_frame(ex: &mut Exec) -> Result<Exit, Trap> {
    debug_assert_eq!(ex.frames.last().map(|f| f.tier), Some(Tier::Interp));
    loop {
        // Fuel metering (bounded runs only): one unit per bytecode
        // instruction, checked *before* dispatch so a suspension lands
        // before the instruction — and before its probes — execute.
        if ex.metered {
            if ex.fuel == 0 {
                ex.sync_pc();
                return Ok(Exit::OutOfFuel);
            }
            ex.fuel -= 1;
        }
        if ex.pc >= ex.views.code.len() {
            // Fell off the end of the function body: implicit return.
            match ex.do_return(Tier::Interp) {
                Ok(()) => continue,
                Err(Sig::Done) => return Ok(Exit::Done),
                Err(Sig::Switch) => return Ok(Exit::Redispatch),
                Err(Sig::Trap(t)) => return Err(t),
            }
        }
        let b = ex.views.code.byte(ex.pc);
        match ex.ctable[b as usize](ex, b) {
            Ok(()) => {}
            Err(Sig::Done) => return Ok(Exit::Done),
            Err(Sig::Switch) => return Ok(Exit::Redispatch),
            Err(Sig::Trap(t)) => return Err(t),
        }
    }
}

// ---- control ----

fn op_invalid(ex: &mut Exec, b: u8) -> Result<(), Sig> {
    unreachable!("invalid opcode {b:#04x} at pc={} in validated code", ex.pc)
}

fn op_unreachable(_ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    Err(Trap::Unreachable.into())
}

fn op_nop(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    ex.pc += 1;
    Ok(())
}

fn op_end(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    ex.pc += 1;
    Ok(())
}

fn op_block(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    ex.pc += 2; // opcode + block type byte
    Ok(())
}

fn op_loop(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    // Loop headers drive hotness-based tier-up with on-stack replacement
    // into compiled code — unless global-probe mode pins us to the
    // interpreter (paper §4.1).
    if ex.proc.config.mode == ExecMode::Tiered && !ex.proc.global_mode {
        let fc = &ex.proc.code[ex.lf];
        let h = fc.hotness.get() + 1;
        fc.hotness.set(h);
        if h >= ex.proc.config.tierup_threshold {
            ex.proc.ensure_compiled(ex.lf);
            let compiled = ex.proc.code[ex.lf].compiled.borrow().clone().expect("just compiled");
            if let Some(&ip) = compiled.code.osr_entry.get(&(ex.pc as u32)) {
                let f = ex.frames.last_mut().expect("frame");
                f.tier = Tier::Jit;
                f.cip = ip as usize;
                f.pc = ex.pc + 2; // unused while in JIT, kept sane
                f.code_version = compiled.version();
                ex.proc.stats.tier_ups += 1;
                return Err(Sig::Switch);
            }
        }
    }
    ex.pc += 2;
    Ok(())
}

fn side_target(ex: &Exec, pc: u32) -> wizard_wasm::validate::Target {
    match ex.views.meta.side.get(&pc) {
        Some(SideEntry::Br(t) | SideEntry::IfFalse(t) | SideEntry::ElseSkip(t)) => *t,
        other => unreachable!("missing side entry at pc={pc}: {other:?}"),
    }
}

fn op_if(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    let cond = ex.pop().i32();
    if cond != 0 {
        ex.pc += 2;
    } else {
        let t = side_target(ex, ex.pc as u32);
        ex.do_branch(t);
    }
    Ok(())
}

fn op_else(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    // Reached only by falling out of the then-branch: skip to after `end`.
    let t = side_target(ex, ex.pc as u32);
    ex.do_branch(t);
    Ok(())
}

fn op_br(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    let t = side_target(ex, ex.pc as u32);
    ex.do_branch(t);
    Ok(())
}

fn op_br_if(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    let cond = ex.pop().i32();
    if cond != 0 {
        let t = side_target(ex, ex.pc as u32);
        ex.do_branch(t);
    } else {
        let (_, next) = ex.views.code.read_u32(ex.pc + 1);
        ex.pc = next;
    }
    Ok(())
}

fn op_br_table(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    let idx = ex.pop().u32() as usize;
    let pc = ex.pc as u32;
    let t = match ex.views.meta.side.get(&pc) {
        Some(SideEntry::Table(entries)) => {
            let i = idx.min(entries.len() - 1);
            entries[i]
        }
        other => unreachable!("missing br_table side entry at pc={pc}: {other:?}"),
    };
    ex.do_branch(t);
    Ok(())
}

fn op_return(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    ex.do_return(Tier::Interp)
}

fn op_call(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    let call_pc = ex.pc;
    let (callee, next) = ex.views.code.read_u32(ex.pc + 1);
    ex.pc = next;
    ex.sync_pc();
    let r = ex.do_call(callee, Tier::Interp);
    if matches!(r, Err(Sig::Trap(_))) {
        // No frame was pushed: back the cursor up onto the call, where
        // `Exec::trap_location` reads it.
        ex.pc = call_pc;
    }
    r
}

fn op_call_indirect(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    let call_pc = ex.pc;
    let (type_idx, p) = ex.views.code.read_u32(ex.pc + 1);
    let (_table, next) = ex.views.code.read_u32(p);
    ex.pc = next;
    ex.sync_pc();
    let r = ex.do_call_indirect(type_idx, Tier::Interp);
    if matches!(r, Err(Sig::Trap(_))) {
        ex.pc = call_pc;
    }
    r
}

// ---- parametric ----

fn op_drop(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    ex.pop();
    ex.pc += 1;
    Ok(())
}

fn op_select(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    let c = ex.pop().i32();
    let v2 = ex.pop();
    let v1 = ex.pop();
    ex.push(if c != 0 { v1 } else { v2 });
    ex.pc += 1;
    Ok(())
}

// ---- variables ----

fn op_local_get(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    let (i, next) = ex.views.code.read_u32(ex.pc + 1);
    let v = ex.values[ex.base + i as usize];
    ex.values.push(v);
    ex.pc = next;
    Ok(())
}

fn op_local_set(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    let (i, next) = ex.views.code.read_u32(ex.pc + 1);
    let v = ex.pop();
    ex.values[ex.base + i as usize] = v.0;
    ex.pc = next;
    Ok(())
}

fn op_local_tee(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    let (i, next) = ex.views.code.read_u32(ex.pc + 1);
    let v = ex.peek();
    ex.values[ex.base + i as usize] = v.0;
    ex.pc = next;
    Ok(())
}

fn op_global_get(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    let (i, next) = ex.views.code.read_u32(ex.pc + 1);
    let v = ex.proc.globals[i as usize];
    ex.values.push(v);
    ex.pc = next;
    Ok(())
}

fn op_global_set(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    let (i, next) = ex.views.code.read_u32(ex.pc + 1);
    let v = ex.pop();
    ex.proc.globals[i as usize] = v.0;
    ex.pc = next;
    Ok(())
}

// ---- memory ----

fn op_load(ex: &mut Exec, b: u8) -> Result<(), Sig> {
    let (_align, p) = ex.views.code.read_u32(ex.pc + 1);
    let (offset, next) = ex.views.code.read_u32(p);
    let addr = ex.pop().u32();
    let mem = ex.proc.memory.as_ref().expect("validated: memory exists");
    let v = numeric::do_load(mem, b, addr, offset)?;
    ex.push(v);
    ex.pc = next;
    Ok(())
}

fn op_store(ex: &mut Exec, b: u8) -> Result<(), Sig> {
    let (_align, p) = ex.views.code.read_u32(ex.pc + 1);
    let (offset, next) = ex.views.code.read_u32(p);
    let val = ex.pop();
    let addr = ex.pop().u32();
    let mem = ex.proc.memory.as_mut().expect("validated: memory exists");
    numeric::do_store(mem, b, addr, offset, val)?;
    ex.pc = next;
    Ok(())
}

fn op_memory_size(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    let pages = ex.proc.memory.as_ref().expect("validated").pages();
    ex.push(Slot::from_u32(pages));
    ex.pc += 2;
    Ok(())
}

fn op_memory_grow(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    let delta = ex.pop().u32();
    let r = ex.proc.memory.as_mut().expect("validated").grow(delta);
    ex.push(Slot::from_i32(r));
    ex.pc += 2;
    Ok(())
}

// ---- constants ----

fn op_i32_const(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    let (v, next) = ex.views.code.read_i32(ex.pc + 1);
    ex.push(Slot::from_i32(v));
    ex.pc = next;
    Ok(())
}

fn op_i64_const(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    let (v, next) = ex.views.code.read_i64(ex.pc + 1);
    ex.push(Slot::from_i64(v));
    ex.pc = next;
    Ok(())
}

fn op_f32_const(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    let (bits, next) = ex.views.code.read_f32_bits(ex.pc + 1);
    ex.push(Slot::from_u32(bits));
    ex.pc = next;
    Ok(())
}

fn op_f64_const(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    let (bits, next) = ex.views.code.read_f64_bits(ex.pc + 1);
    ex.push(Slot::from_u64(bits));
    ex.pc = next;
    Ok(())
}

// ---- numeric ----

fn op_bin(ex: &mut Exec, b: u8) -> Result<(), Sig> {
    let rhs = ex.pop();
    let lhs = ex.pop();
    let r = numeric::binop(b, lhs, rhs)?;
    ex.push(r);
    ex.pc += 1;
    Ok(())
}

fn op_un(ex: &mut Exec, b: u8) -> Result<(), Sig> {
    let a = ex.pop();
    let r = numeric::unop(b, a)?;
    ex.push(r);
    ex.pc += 1;
    Ok(())
}

// ---- instrumentation ----

/// Handler for the probe opcode installed by bytecode overwriting: fires
/// local probes, then executes the original instruction (paper §4.2).
fn op_probe(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    let pc = ex.pc as u32;
    let loc = Location { func: ex.func, pc };
    if ex.skip_probe == Some(loc) {
        // The probes at this location already fired (in the JIT tier,
        // immediately before deoptimizing here). Execute the original
        // instruction without re-firing.
        ex.skip_probe = None;
    } else {
        // Probe locations are validated against the lowered form, so a
        // probed function has one even under byte dispatch.
        let slot = ex.proc.code[ex.lf].artifact().lowered().slot_of(pc);
        ex.fire_site(slot.expect("a probe byte sits on an instruction boundary"), pc);
    }
    // Dispatch the original opcode, whether or not the firing probes
    // removed themselves (restoring the byte). Immediates are untouched by
    // overwriting, so handlers decode them normally.
    let orig = ex.proc.code[ex.lf].orig_opcode(pc);
    normal_table()[orig as usize](ex, orig)
}

/// Every entry of the instrumented dispatch table: fire global probes for
/// this instruction, then dispatch its real handler through the normal
/// table (paper §4.1).
fn op_global_stub(ex: &mut Exec, _b: u8) -> Result<(), Sig> {
    ex.fire_global_probes();
    // Global probes may themselves have mutated instrumentation; re-read.
    let b = ex.views.code.byte(ex.pc);
    normal_table()[b as usize](ex, b)
}
