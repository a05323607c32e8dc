//! The register-form interpreter — the engine's compiled tier
//! ([`Dispatch::Register`](crate::Dispatch), the default).
//!
//! Executes the function's register form ([`crate::regir`]): `ex.pc`
//! holds a **register-instruction index** while this loop runs, and the
//! value stack is widened once per frame to the function's full register
//! window (`opbase + num_temps`, see [`Exec::reg_extend`]) so every
//! instruction addresses its operands with plain indexed loads — no
//! pushes, no pops, no stack-pointer motion between instructions.
//!
//! Instrumented, metered and globally counted activations run here too:
//!
//! * an `R_SITE` executes its site's binding — nothing, an inline count,
//!   direct operand calls with the top-of-stack register, or a generic
//!   fire with the frame truncated to its canonical stack (§4.4);
//! * the loop is monomorphized on whether runs are charged. At a run's
//!   first instruction ([`RInstr::cost`](crate::regir::RInstr::cost)) a
//!   metered frame pays for the whole run, and demotes to the byte
//!   interpreter at the run's byte pc when the slice cannot pay; while
//!   global `Count` probes are installed the run's instruction count is
//!   added to every cell. A trap takes back both for the part of the run
//!   that never executed. The plain loop carries no charge at all.
//!
//! Register frames only *park* at points where the allocator has flushed
//! every deferred operand to its canonical stack position and the runtime
//! has truncated the value stack to the exact operand height — calls,
//! returns, sites, run leaders — so a parked register frame is
//! indistinguishable from a byte-interpreter frame at the same byte pc.
//! That is what lets one demote (§4.6), promote back, and resume in a
//! re-lowered form, at byte granularity.

use std::rc::Rc;

use crate::exec::{Exec, Exit, Sig};
use crate::frame::Tier;
use crate::numeric;
use crate::probe::{Binding, Intrinsified, Location};
use crate::regir::{
    self, RInstr, ARG_POOL_BIT, R_BIN, R_BIN_IR, R_BIN_RI, R_BR, R_BR_IF, R_BR_IF_Z, R_BR_TABLE,
    R_CALL, R_CALL_INDIRECT, R_CMP_BR, R_CMP_BR_RI, R_CONST, R_COPY, R_GLOBAL_GET, R_GLOBAL_SET,
    R_LOAD, R_LOOP, R_MEM_GROW, R_MEM_SIZE, R_RETURN, R_SELECT, R_SITE, R_STORE, R_UN,
    R_UNREACHABLE,
};
use crate::trap::Trap;
use crate::value::Slot;

/// Runs the current [`Tier::Reg`] frame until the invocation finishes,
/// the current frame changes tier, or a trap unwinds.
pub(crate) fn run_frame(ex: &mut Exec) -> Result<Exit, Trap> {
    debug_assert_eq!(ex.frames.last().map(|f| f.tier), Some(Tier::Reg));
    ex.reg_extend();
    // Whether runs are charged is fixed until the loop hands off —
    // metering for the whole run, global counting until a generic fire,
    // which re-enters here; monomorphize the loop so the plain hot path
    // carries no per-run charge at all.
    if ex.metered || ex.counting() {
        run_loop::<true>(ex)
    } else {
        run_loop::<false>(ex)
    }
}

fn run_loop<const CHARGED: bool>(ex: &mut Exec) -> Result<Exit, Trap> {
    loop {
        let ri = ex.reg().get(ex.pc);
        if CHARGED && ri.cost != 0 && !charge_run(ex, ri.cost) {
            return Ok(Exit::Redispatch);
        }
        match step(ex, ri) {
            Ok(()) => {}
            Err(Sig::Done) => return Ok(Exit::Done),
            Err(Sig::Switch) => return Ok(Exit::Redispatch),
            Err(Sig::Trap(t)) => {
                if CHARGED {
                    refund_trapped_run(ex);
                }
                return Err(t);
            }
        }
    }
}

/// At the first instruction of a run that costs `cost`: pays for the run,
/// if metered, and adds its instructions to the global counts. `false` if
/// the slice cannot pay, and the frame has demoted.
#[inline(always)]
fn charge_run(ex: &mut Exec, cost: u32) -> bool {
    if ex.metered {
        if ex.fuel < u64::from(cost) {
            demote_at_leader(ex);
            return false;
        }
        ex.fuel -= u64::from(cost);
    }
    if ex.counting() {
        ex.add_global_counts(i64::from(ex.reg().counted(ex.pc, cost)));
    }
    true
}

/// The slice cannot pay for the run the current instruction leads: the
/// frame demotes at the run's first byte pc, with its stack truncated to
/// the canonical height there, and the byte interpreter runs (and
/// charges) the run instruction by instruction.
#[cold]
fn demote_at_leader(ex: &mut Exec) {
    let leader = ex.reg().leader(ex.pc).expect("a run is paid for at its leader");
    ex.values.truncate(ex.opbase + leader.height as usize);
    let f = ex.frames.last_mut().expect("a frame is executing");
    f.pc = leader.pc as usize;
    f.tier = Tier::Interp;
    ex.proc.stats.deopts += 1;
    ex.load_cur();
}

/// A trap ends the run at the trapping instruction: the part of the run
/// after it, paid for (and counted) at the leader, never executed.
#[cold]
fn refund_trapped_run(ex: &mut Exec) {
    if ex.frames.last().is_some_and(|f| f.tier == Tier::Reg) {
        let pc = ex.reg().pc_of(ex.pc);
        let (rest, ret) = regir::run_rest(ex.proc.code[ex.lf].artifact(), pc);
        if ex.metered {
            ex.fuel += u64::from(rest - 1 + u32::from(ret));
        }
        ex.add_global_counts(-i64::from(rest - 1));
    }
}

/// One register-instruction dispatch step. Every pattern is a constant so
/// the match compiles to a jump table with the handler bodies inlined;
/// operands are indexed register reads — the value stack does not move.
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
        // Loop header or run anchor: a park point with nothing left to do
        // at run time.
        R_LOOP => {
            ex.pc += 1;
            Ok(())
        }
        R_SITE => site(ex, ri),
        R_RETURN => {
            // A void return reads nothing: its `a` may name no register at
            // all (a function with no locals and no temps has none).
            let v = (ri.y == 1).then(|| ex.values[ex.base + ri.a as usize]);
            ex.values.truncate(ex.opbase);
            ex.values.extend(v);
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

/// A probe site: executes the site's current binding. Intrinsified
/// bindings run inline; a generic one — or an operand probe with no
/// operand to read — takes a checkpoint and fires.
#[inline(always)]
fn site(ex: &mut Exec, ri: RInstr) -> Result<(), Sig> {
    let sites = ex.proc.code[ex.lf].sites().expect("an instrumented form runs over a site table");
    match &sites[ri.x as usize].binding {
        Binding::Empty => {}
        Binding::Count(cell) => cell.set(cell.get() + 1),
        Binding::Intrinsic(list) if ri.dst > 0 => {
            // Direct calls with the top-of-stack register: no runtime
            // dispatch, no FrameAccessor.
            let loc = Location { func: ex.func, pc: ex.reg().pc_of(ex.pc) };
            let top = Slot(ex.values[ex.opbase + ri.dst as usize - 1]);
            for probe in list.iter() {
                match probe {
                    Intrinsified::Count(cell) => cell.set(cell.get() + 1),
                    Intrinsified::Operand(p) => p.borrow_mut().fire_operand(loc, top),
                }
            }
        }
        Binding::Intrinsic(_) | Binding::Generic => {
            drop(sites);
            return fire_site(ex, ri);
        }
    }
    ex.pc += 1;
    Ok(())
}

/// A generic site: the frame is truncated to its canonical stack (every
/// operand flushed there, nothing live above) so probes see exactly what
/// the byte interpreter would show them, then the site fires. If the
/// event's instrumentation changes left the frame unable to continue in
/// this code, it has demoted (`Exec::end_event`) and the loop hands off;
/// if they switched global counting on or off, the loop is re-entered in
/// the shape that charges runs accordingly.
#[cold]
fn fire_site(ex: &mut Exec, ri: RInstr) -> Result<(), Sig> {
    let idx = ex.pc;
    ex.values.truncate(ex.opbase + ri.dst as usize);
    let pc = ex.reg().pc_of(idx);
    let counting = ex.counting();
    ex.fire_site(ri.x, pc);
    if ex.frames.last().expect("a frame is executing").tier != Tier::Reg {
        return Err(Sig::Switch);
    }
    ex.pc = idx + 1;
    ex.reg_extend();
    if ex.counting() != counting {
        return Err(Sig::Switch);
    }
    Ok(())
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
