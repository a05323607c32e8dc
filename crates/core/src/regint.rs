//! The register-form interpreter — the engine's stack-traffic-free hot
//! dispatch path ([`Dispatch::Register`](crate::Dispatch)).
//!
//! Executes the function's register form ([`crate::regir`]): `ex.pc`
//! holds a **register-instruction index** while this loop runs, and the
//! value stack is widened once per frame to the function's full register
//! window (`opbase + num_temps`, see [`Exec::reg_extend`]) so every
//! instruction addresses its operands with plain indexed loads — no
//! pushes, no pops, no stack-pointer motion between instructions.
//!
//! The same `step` body also serves as the **register-form JIT runner**
//! ([`run_jit`], reached from [`crate::jit::run_frame`] when a function's
//! compiled code is register-shaped): the `JIT` const generic selects the
//! frame-parking discipline (`cip` register-index resume points, and
//! re-resolution of compiled code on every wasm frame change) and turns
//! the loop-header OSR site into a plain fall-through.
//!
//! Two invariants keep the byte-offset `Location` contract intact:
//!
//! * register frames only *park* at calls and returns — points where the
//!   allocator has flushed every deferred operand to its canonical stack
//!   position and the runtime has truncated the value stack to the exact
//!   operand height, so a parked register frame is indistinguishable
//!   from a stack-tier frame at the same byte pc;
//! * fuel-metered (bounded) runs never enter this loop at all
//!   (`tier_for_call` pins them to the stack interpreter), so there is no
//!   mid-function suspension to account for.

use std::rc::Rc;

use crate::exec::{Exec, Exit, Sig};
use crate::frame::Tier;
use crate::numeric;
use crate::regir::{
    RInstr, ARG_POOL_BIT, R_BIN, R_BIN_IR, R_BIN_RI, R_BR, R_BR_IF, R_BR_IF_Z, R_BR_TABLE, R_CALL,
    R_CALL_INDIRECT, R_CMP_BR, R_CMP_BR_RI, R_CONST, R_COPY, R_GLOBAL_GET, R_GLOBAL_SET, R_LOAD,
    R_LOOP, R_MEM_GROW, R_MEM_SIZE, R_RETURN, R_SELECT, R_STORE, R_UN, R_UNREACHABLE,
};
use crate::trap::Trap;
use crate::value::Slot;
use crate::ExecMode;

/// Runs the current [`Tier::Reg`] frame until the invocation finishes,
/// the current frame changes tier, or a trap unwinds.
pub(crate) fn run_frame(ex: &mut Exec) -> Result<Exit, Trap> {
    debug_assert_eq!(ex.frames.last().map(|f| f.tier), Some(Tier::Reg));
    if ex.metered {
        // Bounded slices charge fuel in the stack interpreters (see
        // `tier_for_call`); a register frame reaching a metered drive
        // loop demotes rather than running unaccounted.
        ex.frames.last_mut().expect("frame").tier = Tier::Interp;
        ex.proc.stats.reg_demotions += 1;
        ex.load_cur();
        return Ok(Exit::Redispatch);
    }
    ex.reg_extend();
    loop {
        let ri = ex.reg().get(ex.pc);
        match step::<false>(ex, ri) {
            Ok(()) => {}
            Err(Sig::Done) => return Ok(Exit::Done),
            Err(Sig::Switch) => return Ok(Exit::Redispatch),
            Err(Sig::Trap(t)) => return Err(t),
        }
    }
}

/// Runs the current JIT-tier frame over register-shaped compiled code,
/// starting from the frame's parked `cip`. Called by
/// [`crate::jit::run_frame`] after its version check.
pub(crate) fn run_jit(ex: &mut Exec, compiled: &crate::jit::Compiled) -> Result<Exit, Trap> {
    debug_assert!(!ex.metered, "metered runs never reach register-form compiled code");
    // Register-shaped compiled code *is* the function's register form, the
    // one `load_cur` already switched `ex.views` to.
    debug_assert!(
        compiled.code.reg.as_ref().is_some_and(|rf| std::ptr::eq(&**rf, ex.reg())),
        "register-shaped compiled code wraps the current function's register form"
    );
    ex.pc = ex.frames.last().expect("frame").cip;
    ex.reg_extend();
    loop {
        let ri = ex.reg().get(ex.pc);
        match step::<true>(ex, ri) {
            Ok(()) => {}
            Err(Sig::Done) => return Ok(Exit::Done),
            Err(Sig::Switch) => return Ok(Exit::Redispatch),
            Err(Sig::Trap(t)) => return Err(t),
        }
    }
}

/// One register-instruction dispatch step. Like the stack interpreter's
/// `step`, every pattern is a constant so the match compiles to a jump
/// table with the handler bodies inlined; unlike it, operands are indexed
/// register reads — the value stack does not move.
#[inline(always)]
fn step<const JIT: bool>(ex: &mut Exec, ri: RInstr) -> Result<(), Sig> {
    match ri.op {
        R_CONST => {
            ex.values[ex.base + ri.dst as usize] = ri.z;
            ex.pc += 1;
            Ok(())
        }
        R_COPY => {
            ex.values[ex.base + ri.dst as usize] = ex.values[ex.base + ri.a as usize];
            ex.pc += 1;
            Ok(())
        }
        R_BIN => {
            let a = Slot(ex.values[ex.base + ri.a as usize]);
            let b = Slot(ex.values[ex.base + ri.b as usize]);
            ex.values[ex.base + ri.dst as usize] = numeric::binop(ri.y, a, b)?.0;
            ex.pc += 1;
            Ok(())
        }
        R_BIN_RI => {
            let a = Slot(ex.values[ex.base + ri.a as usize]);
            ex.values[ex.base + ri.dst as usize] = numeric::binop(ri.y, a, Slot(ri.z))?.0;
            ex.pc += 1;
            Ok(())
        }
        R_BIN_IR => {
            let b = Slot(ex.values[ex.base + ri.b as usize]);
            ex.values[ex.base + ri.dst as usize] = numeric::binop(ri.y, Slot(ri.z), b)?.0;
            ex.pc += 1;
            Ok(())
        }
        R_UN => {
            let a = Slot(ex.values[ex.base + ri.a as usize]);
            ex.values[ex.base + ri.dst as usize] = numeric::unop(ri.y, a)?.0;
            ex.pc += 1;
            Ok(())
        }
        R_LOAD => {
            let addr = Slot(ex.values[ex.base + ri.a as usize]).u32();
            let mem = ex.proc.memory.as_ref().expect("validated: memory exists");
            ex.values[ex.base + ri.dst as usize] = numeric::do_load(mem, ri.y, addr, ri.x)?.0;
            ex.pc += 1;
            Ok(())
        }
        R_STORE => {
            let addr = Slot(ex.values[ex.base + ri.a as usize]).u32();
            let val = Slot(ex.values[ex.base + ri.b as usize]);
            let mem = ex.proc.memory.as_mut().expect("validated: memory exists");
            numeric::do_store(mem, ri.y, addr, ri.x, val)?;
            ex.pc += 1;
            Ok(())
        }
        R_SELECT => {
            let c = Slot(ex.values[ex.base + ri.x as usize]).i32();
            let src = if c != 0 { ri.a } else { ri.b };
            ex.values[ex.base + ri.dst as usize] = ex.values[ex.base + src as usize];
            ex.pc += 1;
            Ok(())
        }
        R_GLOBAL_GET => {
            ex.values[ex.base + ri.dst as usize] = ex.proc.globals[ri.x as usize];
            ex.pc += 1;
            Ok(())
        }
        R_GLOBAL_SET => {
            ex.proc.globals[ri.x as usize] = ex.values[ex.base + ri.a as usize];
            ex.pc += 1;
            Ok(())
        }
        R_MEM_SIZE => {
            let pages = ex.proc.memory.as_ref().expect("validated").pages();
            ex.values[ex.base + ri.dst as usize] = Slot::from_u32(pages).0;
            ex.pc += 1;
            Ok(())
        }
        R_MEM_GROW => {
            let delta = Slot(ex.values[ex.base + ri.a as usize]).u32();
            let r = ex.proc.memory.as_mut().expect("validated").grow(delta);
            ex.values[ex.base + ri.dst as usize] = Slot::from_i32(r).0;
            ex.pc += 1;
            Ok(())
        }
        R_BR => {
            if ri.y == 1 {
                ex.values[ex.base + ri.b as usize] = ex.values[ex.base + ri.a as usize];
            }
            ex.pc = ri.x as usize;
            Ok(())
        }
        R_BR_IF => {
            if Slot(ex.values[ex.base + ri.dst as usize]).i32() != 0 {
                if ri.y == 1 {
                    ex.values[ex.base + ri.b as usize] = ex.values[ex.base + ri.a as usize];
                }
                ex.pc = ri.x as usize;
            } else {
                ex.pc += 1;
            }
            Ok(())
        }
        R_BR_IF_Z => {
            if Slot(ex.values[ex.base + ri.dst as usize]).i32() == 0 {
                if ri.y == 1 {
                    ex.values[ex.base + ri.b as usize] = ex.values[ex.base + ri.a as usize];
                }
                ex.pc = ri.x as usize;
            } else {
                ex.pc += 1;
            }
            Ok(())
        }
        R_CMP_BR => {
            let a = Slot(ex.values[ex.base + ri.a as usize]);
            let b = Slot(ex.values[ex.base + ri.b as usize]);
            if numeric::binop(ri.y, a, b)?.i32() != 0 {
                ex.pc = ri.x as usize;
            } else {
                ex.pc += 1;
            }
            Ok(())
        }
        R_CMP_BR_RI => {
            let a = Slot(ex.values[ex.base + ri.a as usize]);
            if numeric::binop(ri.y, a, Slot(ri.z))?.i32() != 0 {
                ex.pc = ri.x as usize;
            } else {
                ex.pc += 1;
            }
            Ok(())
        }
        R_BR_TABLE => {
            let i = Slot(ex.values[ex.base + ri.dst as usize]).u32() as usize;
            let e = {
                let entries = ex.reg().table(ri.x);
                entries[i.min(entries.len() - 1)]
            };
            if e.keep == 1 {
                ex.values[ex.base + e.dst as usize] = ex.values[ex.base + ri.a as usize];
            }
            ex.pc = e.idx as usize;
            Ok(())
        }
        R_LOOP => op_loop::<JIT>(ex, ri),
        R_RETURN => {
            let v = ex.values[ex.base + ri.a as usize];
            ex.values.truncate(ex.opbase);
            if ri.y == 1 {
                ex.values.push(v);
            }
            match ex.do_return(if JIT { Tier::Jit } else { Tier::Reg }) {
                Ok(()) if JIT => {
                    // Same-tier caller, but its compiled code may be
                    // stack-shaped: bounce out so the driver re-resolves.
                    Err(Sig::Switch)
                }
                Ok(()) => {
                    ex.reg_extend();
                    Ok(())
                }
                Err(s) => Err(s),
            }
        }
        R_CALL => {
            let callee = ri.x;
            do_reg_call::<JIT>(ex, callee, ri)
        }
        R_CALL_INDIRECT => {
            // `do_call_indirect` pops the index from the value stack; the
            // register form reads it from `r[dst]` and inlines the table
            // lookup and signature check instead.
            let index = Slot(ex.values[ex.base + ri.dst as usize]).u32();
            let callee = ex.resolve_indirect(index, ri.x)?;
            do_reg_call::<JIT>(ex, callee, ri)
        }
        R_UNREACHABLE => Err(Trap::Unreachable.into()),
        _ => unreachable!("invalid register opcode {} at idx={}", ri.op, ex.pc),
    }
}

/// Loop header: the hotness/OSR site in interpreter mode, a fall-through
/// in JIT mode. Mirrors the stack interpreter's `op_loop`, except the OSR
/// entry key (`ri.x`, the `loop` byte pc) and the parked continuation pc
/// (`ri.z`) are carried inline instead of being derived from maps.
fn op_loop<const JIT: bool>(ex: &mut Exec, ri: RInstr) -> Result<(), Sig> {
    if !JIT && ex.proc.config.mode == ExecMode::Tiered {
        let fc = &ex.proc.code[ex.lf];
        let h = fc.hotness.get() + 1;
        fc.hotness.set(h);
        if h >= ex.proc.config.tierup_threshold {
            ex.proc.ensure_compiled(ex.lf);
            let compiled = ex.proc.code[ex.lf].compiled.borrow().clone().expect("just compiled");
            if let Some(&ip) = compiled.code.osr_entry.get(&ri.x) {
                // The loop head is a park point: every live operand is in
                // its canonical register, so truncating to the entry
                // height yields an exact stack-shaped frame to transfer.
                ex.values.truncate(ex.opbase + ri.dst as usize);
                let f = ex.frames.last_mut().expect("frame");
                f.tier = Tier::Jit;
                f.cip = ip as usize;
                f.pc = ri.z as usize; // unused while in JIT, kept sane
                f.code_version = compiled.version();
                ex.proc.stats.tier_ups += 1;
                return Err(Sig::Switch);
            }
        }
    }
    ex.pc += 1;
    Ok(())
}

/// The shared call tail: writes the argument slice into the callee's
/// frame-to-be, truncates to the exact call height (parking the caller in
/// canonical stack shape), and hands off to `do_call`.
fn do_reg_call<const JIT: bool>(ex: &mut Exec, callee: u32, ri: RInstr) -> Result<(), Sig> {
    let hb = ri.a as usize;
    let nargs = ri.b as usize;
    let slice_idx = ri.z as u32;
    let ret_pc = (ri.z >> 32) as usize;
    let views = Rc::clone(&ex.views);
    let rf = views.reg.as_deref().expect("register frames have register code");
    let slice = rf.arg_slice(slice_idx);
    debug_assert_eq!(slice.len(), nargs);
    for (i, &src) in slice.iter().enumerate() {
        let v = if src & ARG_POOL_BIT != 0 {
            rf.pool(src & !ARG_POOL_BIT)
        } else {
            ex.values[ex.base + src as usize]
        };
        ex.values[ex.opbase + hb + i] = v;
    }
    ex.values.truncate(ex.opbase + hb + nargs);
    {
        let f = ex.frames.last_mut().expect("frame");
        f.pc = ret_pc;
        if JIT {
            f.cip = ex.pc + 1;
        }
    }
    let depth = ex.frames.len();
    match ex.do_call(callee, if JIT { Tier::Jit } else { Tier::Reg }) {
        Ok(()) if ex.frames.len() == depth => {
            // Host call, executed inline: continue in this frame.
            ex.reg_extend();
            ex.pc += 1;
            Ok(())
        }
        Ok(()) if JIT => {
            // Same-tier wasm callee; bounce out so the JIT driver
            // re-resolves the callee's compiled code (it may be
            // stack-shaped).
            Err(Sig::Switch)
        }
        Ok(()) => {
            // Same-tier wasm callee: `load_cur` switched `ex.views`/`ex.pc`
            // to the callee; widen its register window and keep going.
            ex.reg_extend();
            Ok(())
        }
        Err(s) => Err(s),
    }
}
