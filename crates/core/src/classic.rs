//! The byte interpreter: the paper's in-place interpreter (§4.1–4.2) and
//! the engine's slow tier.
//!
//! It walks raw bytecode, LEB128-decodes immediates on every execution,
//! and resolves branches through the validator's per-pc side table. It
//! runs three kinds of frames:
//!
//! * **every frame under [`Dispatch::Bytecode`](crate::Dispatch)** — the
//!   semantic reference the differential suites hold the register form
//!   to, and the baseline `dispatch_speed` and the figure binaries
//!   measure. Such frames never promote;
//! * **every frame while a global probe the register form cannot count is
//!   installed** (generic global mode): inserting one switches the
//!   dispatch table pointer to an all-stub table that fires the global
//!   probes before each instruction (§4.1);
//! * **frames the register form handed back** — a metered frame whose
//!   slice cannot pay for its next run, a frame whose code a probe event
//!   replaced or that global probes must now reach (§4.6), and functions
//!   the register allocator declines. Such a frame promotes to the register
//!   form at the next run leader it can pay for, so it spends at most one
//!   run here.
//!
//! Local probes are *bytecode overwriting* (§4.2): a probed instruction's
//! opcode byte reads as the probe opcode in the process's overlay copy,
//! and its handler fires the site's probes, then dispatches the original
//! opcode. While global `Count` probes are installed the all-stub table
//! bumps their cells before each instruction — the byte-interpreter twin
//! of the register form's per-run charge.
//!
//! `ex.pc` holds a *byte* pc throughout.

use std::sync::LazyLock;

use wizard_wasm::opcodes as op;
use wizard_wasm::validate::SideEntry;

use crate::exec::{Exec, Exit, Sig};
use crate::frame::Tier;
use crate::numeric;
use crate::probe::Location;
use crate::trap::Trap;
use crate::value::Slot;

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
        // A run leader of the frame's register form, if it has one: the
        // frame goes back to compiled code when it may. Byte dispatch
        // resolves no register form, so it never gets here.
        if let Some(cost) = ex.views.reg.as_deref().and_then(|rf| rf.run_cost_at(ex.pc)) {
            if promote(ex, cost) {
                return Ok(Exit::Redispatch);
            }
        }
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
        let r = if ex.skip_probe.is_some() && skipping(ex) {
            // This instruction's event already fired, in the register form
            // just before the frame demoted here: run the original opcode
            // without its local probes and without the global stubs.
            ex.skip_probe = None;
            let orig = ex.proc.code[ex.lf].orig_opcode(ex.pc as u32);
            normal_table()[orig as usize](ex, orig)
        } else {
            let b = ex.views.code.byte(ex.pc);
            ex.ctable[b as usize](ex, b)
        };
        match r {
            Ok(()) => {}
            Err(Sig::Done) => return Ok(Exit::Done),
            Err(Sig::Switch) => return Ok(Exit::Redispatch),
            Err(Sig::Trap(t)) => return Err(t),
        }
    }
}

/// `true` if the instruction at the cursor is the one whose event already
/// fired in the register form ([`Exec::skip_probe`]).
fn skipping(ex: &Exec) -> bool {
    ex.skip_probe == Some(Location { func: ex.func, pc: ex.pc as u32 })
}

/// At the first instruction of a run that costs `cost`: promotes the frame
/// to its function's register form if the form may run it now — no
/// generic global probe needs this loop, the slice (if metered) can pay
/// for the whole run, and the instruction's event did not already fire
/// there. Returns `true` if it did.
#[cold]
fn promote(ex: &mut Exec, cost: u32) -> bool {
    if ex.proc.global_mode || (ex.metered && ex.fuel < u64::from(cost)) || skipping(ex) {
        return false;
    }
    ex.sync_pc();
    ex.frames.last_mut().expect("a frame is executing").tier = Tier::Reg;
    ex.load_cur();
    ex.proc.stats.tier_ups += 1;
    true
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
    let slot = ex.proc.code[ex.lf].artifact().ordinal_of(pc);
    ex.fire_site(slot.expect("a probe byte sits on an instruction boundary"), pc);
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
