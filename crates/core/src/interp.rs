//! The lowered-code interpreter.
//!
//! Executes the function's *lowered* form ([`crate::lowered`]): one
//! fixed-width [`LInstr`] per bytecode instruction, with immediates
//! pre-decoded and branch targets pre-resolved at lowering time. The hot
//! loop therefore pays no LEB128 decoding and no side-table `HashMap`
//! lookups — the decode tax is paid once per function, not once per
//! executed instruction.
//!
//! Activations run in the register form ([`crate::regint`]) instead
//! whenever they can; this loop runs global-probe mode, the functions the
//! register allocator declines, the part of a run a fuel slice cannot pay
//! for, and frames demoted mid-run — and promotes a frame back to register
//! form at its next loop header once it can run there again.
//!
//! The paper's two instrumentation mechanisms carry over structurally
//! unchanged, operating on lowered *slots* instead of opcode bytes:
//!
//! * the **normal** 256-entry dispatch table — zero overhead when no
//!   global probes are active; local probes cost only at slots whose
//!   opcode field was overwritten with the probe opcode (§4.2);
//! * the **instrumented** table — every entry a stub that fires global
//!   probes and re-dispatches; inserting a global probe *switches the
//!   table pointer* (§4.1).
//!
//! `ex.pc` holds a **slot index** while this loop runs; frames always park
//! byte pcs at sync points ([`Exec::sync_pc`] converts), so the paper's
//! byte-offset `Location` space remains the contract everywhere outside
//! this loop.

use std::sync::LazyLock;

use wizard_wasm::opcodes as op;

use crate::exec::{Exec, Exit, Sig};
use crate::frame::Tier;
use crate::lowered::LInstr;
use crate::numeric;
use crate::probe::Location;
use crate::trap::Trap;
use crate::value::Slot;

/// A lowered-code handler: executes one instruction (including advancing
/// the slot cursor) or raises a [`Sig`].
pub(crate) type Handler = fn(&mut Exec, LInstr) -> Result<(), Sig>;

static NORMAL: LazyLock<[Handler; 256]> = LazyLock::new(build_normal);
static INSTRUMENTED: LazyLock<[Handler; 256]> = LazyLock::new(|| [op_global_stub as Handler; 256]);

/// The dispatch table used when no global probes are active.
pub(crate) fn normal_table() -> &'static [Handler; 256] {
    &NORMAL
}

/// The dispatch table used in global-probe mode: all 256 entries point to a
/// stub that fires global probes, then dispatches the original handler.
pub(crate) fn instrumented_table() -> &'static [Handler; 256] {
    &INSTRUMENTED
}

fn build_normal() -> [Handler; 256] {
    let mut t: [Handler; 256] = [op_invalid; 256];
    t[op::UNREACHABLE as usize] = op_unreachable;
    t[op::NOP as usize] = op_skip;
    t[op::BLOCK as usize] = op_skip;
    t[op::LOOP as usize] = op_loop;
    t[op::IF as usize] = op_if;
    t[op::ELSE as usize] = op_else;
    t[op::END as usize] = op_skip;
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
    // All four const opcodes lowered their payload to slot bits in `z`.
    t[op::I32_CONST as usize] = op_const;
    t[op::I64_CONST as usize] = op_const;
    t[op::F32_CONST as usize] = op_const;
    t[op::F64_CONST as usize] = op_const;
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
/// *slot index* throughout.
pub(crate) fn run_frame(ex: &mut Exec) -> Result<Exit, Trap> {
    debug_assert_eq!(ex.frames.last().map(|f| f.tier), Some(Tier::Interp));
    // Metering is fixed for the whole run; monomorphize the loop so the
    // unmetered hot path carries no fuel checks at all.
    if ex.metered {
        run_loop::<true>(ex)
    } else {
        run_loop::<false>(ex)
    }
}

fn run_loop<const METERED: bool>(ex: &mut Exec) -> Result<Exit, Trap> {
    loop {
        // Fuel metering (bounded runs only): one unit per bytecode
        // instruction, checked *before* dispatch so a suspension lands
        // before the instruction — and before its probes — execute.
        if METERED {
            if ex.fuel == 0 {
                ex.sync_pc();
                return Ok(Exit::OutOfFuel);
            }
            ex.fuel -= 1;
        }
        if ex.pc >= ex.views.low.len() {
            // Fell off the end of the function body: implicit return.
            match ex.do_return(Tier::Interp) {
                Ok(()) => continue,
                Err(Sig::Done) => return Ok(Exit::Done),
                Err(Sig::Switch) => return Ok(Exit::Redispatch),
                Err(Sig::Trap(t)) => return Err(t),
            }
        }
        let li = ex.views.low.get(ex.pc);
        // Global-probe mode dispatches everything through the (stub-filled)
        // instrumented table; normal mode takes the inlined fast path.
        let r = if ex.proc.global_mode { ex.table[li.op as usize](ex, li) } else { step(ex, li) };
        match r {
            Ok(()) => {}
            Err(Sig::Done) => return Ok(Exit::Done),
            Err(Sig::Switch) => return Ok(Exit::Redispatch),
            Err(Sig::Trap(t)) => return Err(t),
        }
    }
}

/// One normal-mode dispatch step. Every opcode pattern is a *constant*
/// (ranges included), so the match compiles to a single jump table with
/// the handler bodies inlined into the arms — threaded dispatch, no
/// indirect call, loop state kept in registers across handlers. Anything
/// not matched (the probe opcode, invalid bytes) falls back to the normal
/// handler table.
#[inline(always)]
fn step(ex: &mut Exec, li: LInstr) -> Result<(), Sig> {
    match li.op {
        op::LOCAL_GET => op_local_get(ex, li),
        op::LOCAL_SET => op_local_set(ex, li),
        op::LOCAL_TEE => op_local_tee(ex, li),
        op::GLOBAL_GET => op_global_get(ex, li),
        op::GLOBAL_SET => op_global_set(ex, li),
        op::I32_CONST | op::I64_CONST | op::F32_CONST | op::F64_CONST => op_const(ex, li),
        op::NOP | op::BLOCK | op::END => op_skip(ex, li),
        op::LOOP => op_loop(ex, li),
        op::IF => op_if(ex, li),
        op::BR => op_br(ex, li),
        op::BR_IF => op_br_if(ex, li),
        op::BR_TABLE => op_br_table(ex, li),
        op::RETURN => op_return(ex, li),
        op::CALL => op_call(ex, li),
        op::CALL_INDIRECT => op_call_indirect(ex, li),
        op::DROP => op_drop(ex, li),
        op::SELECT => op_select(ex, li),
        op::MEMORY_SIZE => op_memory_size(ex, li),
        op::MEMORY_GROW => op_memory_grow(ex, li),
        op::UNREACHABLE => op_unreachable(ex, li),
        // Binops (constant ranges mirroring `numeric::is_binop`).
        op::I32_EQ..=op::I32_GE_U
        | op::I64_EQ..=op::I64_GE_U
        | op::F32_EQ..=op::F32_GE
        | op::F64_EQ..=op::F64_GE
        | op::I32_ADD..=op::I32_ROTR
        | op::I64_ADD..=op::I64_ROTR
        | op::F32_ADD..=op::F32_COPYSIGN
        | op::F64_ADD..=op::F64_COPYSIGN => op_bin(ex, li),
        // Unops (mirroring `numeric::is_unop`).
        op::I32_EQZ
        | op::I64_EQZ
        | op::I32_CLZ
        | op::I32_CTZ
        | op::I32_POPCNT
        | op::I64_CLZ
        | op::I64_CTZ
        | op::I64_POPCNT
        | op::F32_ABS..=op::F32_SQRT
        | op::F64_ABS..=op::F64_SQRT
        | op::I32_WRAP_I64..=op::F64_REINTERPRET_I64
        | op::I32_EXTEND8_S..=op::I64_EXTEND32_S => op_un(ex, li),
        // Memory accesses (mirroring `op::is_load` / `op::is_store`).
        op::I32_LOAD..=op::I64_LOAD32_U => op_load(ex, li),
        op::I32_STORE..=op::I64_STORE32 => op_store(ex, li),
        _ => normal_table()[li.op as usize](ex, li),
    }
}

// ---- control ----

fn op_invalid(ex: &mut Exec, li: LInstr) -> Result<(), Sig> {
    unreachable!("invalid lowered opcode {:#04x} at slot={} in validated code", li.op, ex.pc)
}

fn op_unreachable(_ex: &mut Exec, _li: LInstr) -> Result<(), Sig> {
    Err(Trap::Unreachable.into())
}

/// `nop` / `block` / `end`: structural, one slot each.
fn op_skip(ex: &mut Exec, _li: LInstr) -> Result<(), Sig> {
    ex.pc += 1;
    Ok(())
}

fn op_loop(ex: &mut Exec, _li: LInstr) -> Result<(), Sig> {
    // A loop header is where a frame goes back to register form (a probed
    // header promotes from `op_probe`, before its probes fire).
    if ex.views.low.get(ex.pc).op == op::LOOP && ex.promote_at_loop() {
        return Err(Sig::Switch);
    }
    ex.pc += 1;
    Ok(())
}

fn op_if(ex: &mut Exec, li: LInstr) -> Result<(), Sig> {
    let cond = ex.pop().i32();
    if cond != 0 {
        ex.pc += 1;
    } else {
        let t = ex.views.low.target(li.x);
        ex.do_branch_lowered(t);
    }
    Ok(())
}

fn op_else(ex: &mut Exec, li: LInstr) -> Result<(), Sig> {
    // Reached only by falling out of the then-branch: skip to after `end`.
    let t = ex.views.low.target(li.x);
    ex.do_branch_lowered(t);
    Ok(())
}

fn op_br(ex: &mut Exec, li: LInstr) -> Result<(), Sig> {
    let t = ex.views.low.target(li.x);
    ex.do_branch_lowered(t);
    Ok(())
}

fn op_br_if(ex: &mut Exec, li: LInstr) -> Result<(), Sig> {
    let cond = ex.pop().i32();
    if cond != 0 {
        let t = ex.views.low.target(li.x);
        ex.do_branch_lowered(t);
    } else {
        ex.pc += 1;
    }
    Ok(())
}

fn op_br_table(ex: &mut Exec, li: LInstr) -> Result<(), Sig> {
    let idx = ex.pop().u32() as usize;
    let t = {
        let entries = ex.views.low.table(li.x);
        entries[idx.min(entries.len() - 1)]
    };
    ex.do_branch_lowered(t);
    Ok(())
}

fn op_return(ex: &mut Exec, _li: LInstr) -> Result<(), Sig> {
    ex.do_return(Tier::Interp)
}

fn op_call(ex: &mut Exec, li: LInstr) -> Result<(), Sig> {
    ex.pc += 1;
    ex.sync_pc();
    let r = ex.do_call(li.x, Tier::Interp);
    if matches!(r, Err(Sig::Trap(_))) {
        // No frame was pushed: back the cursor up onto the call, where
        // `Exec::trap_location` reads it.
        ex.pc -= 1;
    }
    r
}

fn op_call_indirect(ex: &mut Exec, li: LInstr) -> Result<(), Sig> {
    ex.pc += 1;
    ex.sync_pc();
    let r = ex.do_call_indirect(li.x, Tier::Interp);
    if matches!(r, Err(Sig::Trap(_))) {
        ex.pc -= 1;
    }
    r
}

// ---- parametric ----

fn op_drop(ex: &mut Exec, _li: LInstr) -> Result<(), Sig> {
    ex.pop();
    ex.pc += 1;
    Ok(())
}

fn op_select(ex: &mut Exec, _li: LInstr) -> Result<(), Sig> {
    let c = ex.pop().i32();
    let v2 = ex.pop();
    let v1 = ex.pop();
    ex.push(if c != 0 { v1 } else { v2 });
    ex.pc += 1;
    Ok(())
}

// ---- variables ----

fn op_local_get(ex: &mut Exec, li: LInstr) -> Result<(), Sig> {
    let v = ex.values[ex.base + li.x as usize];
    ex.values.push(v);
    ex.pc += 1;
    Ok(())
}

fn op_local_set(ex: &mut Exec, li: LInstr) -> Result<(), Sig> {
    let v = ex.pop();
    ex.values[ex.base + li.x as usize] = v.0;
    ex.pc += 1;
    Ok(())
}

fn op_local_tee(ex: &mut Exec, li: LInstr) -> Result<(), Sig> {
    let v = ex.peek();
    ex.values[ex.base + li.x as usize] = v.0;
    ex.pc += 1;
    Ok(())
}

fn op_global_get(ex: &mut Exec, li: LInstr) -> Result<(), Sig> {
    let v = ex.proc.globals[li.x as usize];
    ex.values.push(v);
    ex.pc += 1;
    Ok(())
}

fn op_global_set(ex: &mut Exec, li: LInstr) -> Result<(), Sig> {
    let v = ex.pop();
    ex.proc.globals[li.x as usize] = v.0;
    ex.pc += 1;
    Ok(())
}

// ---- memory ----

fn op_load(ex: &mut Exec, li: LInstr) -> Result<(), Sig> {
    let addr = ex.pop().u32();
    let mem = ex.proc.memory.as_ref().expect("validated: memory exists");
    let v = numeric::do_load(mem, li.op, addr, li.x)?;
    ex.push(v);
    ex.pc += 1;
    Ok(())
}

fn op_store(ex: &mut Exec, li: LInstr) -> Result<(), Sig> {
    let val = ex.pop();
    let addr = ex.pop().u32();
    let mem = ex.proc.memory.as_mut().expect("validated: memory exists");
    numeric::do_store(mem, li.op, addr, li.x, val)?;
    ex.pc += 1;
    Ok(())
}

fn op_memory_size(ex: &mut Exec, _li: LInstr) -> Result<(), Sig> {
    let pages = ex.proc.memory.as_ref().expect("validated").pages();
    ex.push(Slot::from_u32(pages));
    ex.pc += 1;
    Ok(())
}

fn op_memory_grow(ex: &mut Exec, _li: LInstr) -> Result<(), Sig> {
    let delta = ex.pop().u32();
    let r = ex.proc.memory.as_mut().expect("validated").grow(delta);
    ex.push(Slot::from_i32(r));
    ex.pc += 1;
    Ok(())
}

// ---- constants ----

/// All four `*.const` forms: the payload was lowered to slot bits.
fn op_const(ex: &mut Exec, li: LInstr) -> Result<(), Sig> {
    ex.values.push(li.z);
    ex.pc += 1;
    Ok(())
}

// ---- numeric ----

fn op_bin(ex: &mut Exec, li: LInstr) -> Result<(), Sig> {
    let rhs = ex.pop();
    let lhs = ex.pop();
    let r = numeric::binop(li.op, lhs, rhs)?;
    ex.push(r);
    ex.pc += 1;
    Ok(())
}

fn op_un(ex: &mut Exec, li: LInstr) -> Result<(), Sig> {
    let a = ex.pop();
    let r = numeric::unop(li.op, a)?;
    ex.push(r);
    ex.pc += 1;
    Ok(())
}

// ---- instrumentation ----

/// Handler for a probe-patched slot: fires local probes, then executes the
/// original instruction (paper §4.2, on the lowered form). The slot's
/// immediates are untouched by patching, so the original handler receives
/// them pre-decoded as usual.
fn op_probe(ex: &mut Exec, _li: LInstr) -> Result<(), Sig> {
    let slot = ex.pc;
    let pc = ex.views.low.pc_of(slot);
    let loc = Location { func: ex.func, pc };
    let orig = ex.views.low.original(slot);
    if ex.skip_probe == Some(loc) {
        // The probes at this location already fired, in the register
        // form, immediately before it demoted here. Execute the original
        // instruction without re-firing.
        ex.skip_probe = None;
    } else if orig.op == op::LOOP && ex.promote_at_loop() {
        // The register form fires this header's probes.
        return Err(Sig::Switch);
    } else {
        ex.fire_site(slot as u32, pc);
    }
    // Dispatch the original instruction (the shared form's, so it is
    // unchanged whether or not the firing probes removed themselves).
    normal_table()[orig.op as usize](ex, orig)
}

/// Every entry of the instrumented dispatch table: fire global probes for
/// this instruction, then dispatch its real handler through the normal
/// table. Installed by switching the table pointer when a global probe is
/// inserted (paper §4.1).
fn op_global_stub(ex: &mut Exec, _li: LInstr) -> Result<(), Sig> {
    match ex.skip_probe {
        Some(loc) if loc == Location { func: ex.func, pc: ex.views.low.pc_of(ex.pc) } => {
            // This instruction's event already fired, in the register form
            // just before it demoted here; `op_probe` skips its local
            // probes, if it still has any.
            if ex.views.low.get(ex.pc).op != op::PROBE {
                ex.skip_probe = None;
            }
        }
        _ => ex.fire_global_probes(),
    }
    // Global probes may themselves have mutated instrumentation; re-read.
    let li = ex.views.low.get(ex.pc);
    normal_table()[li.op as usize](ex, li)
}
