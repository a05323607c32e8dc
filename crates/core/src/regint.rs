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
//! This loop is the top tier for what it runs: a register frame never
//! tiers up (nothing compiled is faster), and compiled code is stack-form
//! only. Two invariants keep the byte-offset `Location` contract intact:
//!
//! * register frames only *park* at calls and returns — points where the
//!   allocator has flushed every deferred operand to its canonical stack
//!   position and the runtime has truncated the value stack to the exact
//!   operand height, so a parked register frame is indistinguishable
//!   from a stack-tier frame at the same byte pc (which is what lets one
//!   demote when its function gains a probe);
//! * fuel-metered (bounded) runs never enter this loop at all
//!   (`tier_for_call` gives them the lowered tiers), so there is no
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

/// Runs the current [`Tier::Reg`] frame until the invocation finishes,
/// the current frame changes tier, or a trap unwinds.
pub(crate) fn run_frame(ex: &mut Exec) -> Result<Exit, Trap> {
    debug_assert_eq!(ex.frames.last().map(|f| f.tier), Some(Tier::Reg));
    debug_assert!(!ex.metered, "metered runs never start a register frame");
    ex.reg_extend();
    loop {
        let ri = ex.reg().get(ex.pc);
        match step(ex, ri) {
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
fn step(ex: &mut Exec, ri: RInstr) -> Result<(), Sig> {
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
        // Loop header: a park point with nothing left to do at run time.
        R_LOOP => {
            ex.pc += 1;
            Ok(())
        }
        R_RETURN => {
            let v = ex.values[ex.base + ri.a as usize];
            ex.values.truncate(ex.opbase);
            if ri.y == 1 {
                ex.values.push(v);
            }
            ex.do_return(Tier::Reg)?;
            ex.reg_extend();
            Ok(())
        }
        R_CALL => {
            let callee = ri.x;
            do_reg_call(ex, callee, ri)
        }
        R_CALL_INDIRECT => {
            // `do_call_indirect` pops the index from the value stack; the
            // register form reads it from `r[dst]` and inlines the table
            // lookup and signature check instead.
            let index = Slot(ex.values[ex.base + ri.dst as usize]).u32();
            let callee = ex.resolve_indirect(index, ri.x)?;
            do_reg_call(ex, callee, ri)
        }
        R_UNREACHABLE => Err(Trap::Unreachable.into()),
        _ => unreachable!("invalid register opcode {} at idx={}", ri.op, ex.pc),
    }
}

/// The shared call tail: writes the argument slice into the callee's
/// frame-to-be, truncates to the exact call height (parking the caller in
/// canonical stack shape), and hands off to `do_call`.
fn do_reg_call(ex: &mut Exec, callee: u32, ri: RInstr) -> Result<(), Sig> {
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
    ex.frames.last_mut().expect("frame").pc = ret_pc;
    let depth = ex.frames.len();
    ex.do_call(callee, Tier::Reg)?;
    if ex.frames.len() == depth {
        // Host call, executed inline: continue in this frame.
        ex.pc += 1;
    }
    // Otherwise a same-tier wasm callee: `load_cur` switched
    // `ex.views`/`ex.pc` to it. Either way, widen the current frame's
    // register window and keep going.
    ex.reg_extend();
    Ok(())
}
