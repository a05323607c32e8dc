//! The JIT tier: a pre-decoded micro-op compiler and executor.
//!
//! This stands in for Wizard's baseline JIT (which emits x86-64). The
//! function's *lowered* form ([`crate::lowered`] — immediates pre-decoded,
//! side table fused) is compiled into a dense array of micro-ops executed
//! by a tight dispatch loop — the same structural role machine code plays
//! in the paper. The JIT shares the lowering with the interpreter instead
//! of re-walking raw bytes:
//!
//! * a probed instruction compiles to one *site micro-op* ([`Op::Site`])
//!   ahead of the instruction's own ops. What the micro-op does is its
//!   **binding**, which lives in the function's site table
//!   ([`FuncOverlay`]) and is re-bound in
//!   place whenever the site's probe list changes:
//!   * *generic* — a state checkpoint and a runtime call that fires the
//!     list (paper Figure 2, second column);
//!   * *intrinsified* — an inline counter increment for a `CountProbe`, a
//!     direct top-of-stack call for an operand probe (Figure 2, third and
//!     fourth columns), no FrameAccessor reification;
//!   * *empty* — the probes are gone; the micro-op is dead weight, and
//!     counts its own executions on the function's tier-up counter so the
//!     function recompiles without it once removals have gone quiet;
//! * so removing a probe, or inserting one where the code already has a
//!   site, costs compiled code nothing but the re-bind. Only a probe on an
//!   instruction the code has no site for — and the function's last probe
//!   leaving — bump the instrumentation version and invalidate; executing
//!   frames then deoptimize back to the interpreter in place (paper
//!   §4.5–4.6, strategy 4).
//!
//! Compiled code is split in two layers so probe-free code can be shared:
//!
//! * [`CompiledCode`] is plain data (`Send + Sync`): the op stream, pc
//!   metadata and OSR entries. Site micro-ops name their site by lowered
//!   *slot*, never through pointers.
//! * [`Compiled`] binds a `CompiledCode` to one process and one
//!   instrumentation version; the bindings its slots resolve against are
//!   the process's site table. Probe-free code has no sites at all, so the
//!   artifact caches one `Arc<CompiledCode>` and every uninstrumented
//!   process of the module executes the very same compiled ops
//!   ([`FuncArtifact::baseline_compiled`](crate::artifact::FuncArtifact)).
//!   The first probe invalidates only that process's wrapper; siblings
//!   keep running the shared code.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use wizard_wasm::opcodes as op;

use crate::code::FuncOverlay;
use crate::exec::{Exec, Exit, Sig};
use crate::frame::Tier;
use crate::lowered::{LTarget, Lowered, LoweredView};
use crate::numeric;
use crate::probe::{Binding, Intrinsified, Location};
use crate::trap::Trap;
use crate::value::Slot;

/// A resolved branch target in compiled code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JTarget {
    /// Destination op index.
    pub ip: u32,
    /// Values carried across the branch.
    pub keep: u32,
    /// Operand height (above the frame's operand base) to truncate to.
    pub height: u32,
}

/// One compiled micro-op. Plain data — a probe site names its entry of the
/// function's site table by slot, keeping the op stream shareable.
#[derive(Clone)]
pub enum Op {
    /// Push a constant slot.
    Const(u64),
    /// Push local `n`.
    LocalGet(u32),
    /// Pop into local `n`.
    LocalSet(u32),
    /// Copy top of stack into local `n`.
    LocalTee(u32),
    /// Push global `n`.
    GlobalGet(u32),
    /// Pop into global `n`.
    GlobalSet(u32),
    /// Pop and discard.
    Drop,
    /// Ternary select.
    Select,
    /// Binary numeric op (shared semantics with the interpreter).
    Bin(u8),
    /// Unary numeric op.
    Un(u8),
    /// Memory load with constant offset.
    Load {
        /// Original opcode (selects width/signedness).
        op: u8,
        /// Constant offset.
        offset: u32,
    },
    /// Memory store with constant offset.
    Store {
        /// Original opcode.
        op: u8,
        /// Constant offset.
        offset: u32,
    },
    /// `memory.size`.
    MemorySize,
    /// `memory.grow`.
    MemoryGrow,
    /// Unconditional branch.
    Br(JTarget),
    /// Branch if popped i32 is non-zero (`br_if`).
    BrIf(JTarget),
    /// Branch if popped i32 is zero (`if` false edge).
    BrIfZero(JTarget),
    /// `br_table`: targets then default (last).
    BrTable(Box<[JTarget]>),
    /// Explicit return.
    Return,
    /// Direct call.
    Call {
        /// Callee function index.
        callee: u32,
        /// Bytecode pc of the instruction after the call (frame resume point).
        ret_pc: u32,
    },
    /// Indirect call through the table.
    CallIndirect {
        /// Expected type index.
        type_idx: u32,
        /// Bytecode resume pc.
        ret_pc: u32,
    },
    /// `unreachable`.
    Unreachable,
    /// A probe site: executes the site's current binding — a generic
    /// checkpointed fire, intrinsified bumps / operand calls, or nothing
    /// (Figure 2's three instrumented columns, chosen at bind time).
    Site {
        /// Lowered slot of the probed instruction: the site-table index.
        slot: u32,
        /// Bytecode pc of the probed instruction.
        pc: u32,
    },
}

impl core::fmt::Debug for Op {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Op::Const(v) => write!(f, "const {v:#x}"),
            Op::LocalGet(i) => write!(f, "local.get {i}"),
            Op::LocalSet(i) => write!(f, "local.set {i}"),
            Op::LocalTee(i) => write!(f, "local.tee {i}"),
            Op::GlobalGet(i) => write!(f, "global.get {i}"),
            Op::GlobalSet(i) => write!(f, "global.set {i}"),
            Op::Drop => f.write_str("drop"),
            Op::Select => f.write_str("select"),
            Op::Bin(b) => f.write_str(op::name(*b)),
            Op::Un(b) => f.write_str(op::name(*b)),
            Op::Load { op: b, offset } => write!(f, "{} +{offset}", op::name(*b)),
            Op::Store { op: b, offset } => write!(f, "{} +{offset}", op::name(*b)),
            Op::MemorySize => f.write_str("memory.size"),
            Op::MemoryGrow => f.write_str("memory.grow"),
            Op::Br(t) => write!(f, "br -> ip {} (keep {}, h {})", t.ip, t.keep, t.height),
            Op::BrIf(t) => write!(f, "br_if -> ip {} (keep {}, h {})", t.ip, t.keep, t.height),
            Op::BrIfZero(t) => {
                write!(f, "br_if_zero -> ip {} (keep {}, h {})", t.ip, t.keep, t.height)
            }
            Op::BrTable(ts) => {
                write!(f, "br_table [")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{}", t.ip)?;
                }
                write!(f, "]")
            }
            Op::Return => f.write_str("return"),
            Op::Call { callee, .. } => write!(f, "call {callee}"),
            Op::CallIndirect { type_idx, .. } => write!(f, "call_indirect (type {type_idx})"),
            Op::Unreachable => f.write_str("unreachable"),
            Op::Site { slot, pc } => write!(f, "site slot={slot} pc={pc}"),
        }
    }
}

/// A function compiled to micro-ops: the shareable, process-independent
/// layer (plain data, `Send + Sync`).
#[derive(Debug)]
pub struct CompiledCode {
    /// Instrumentation version this code was specialized against (0 for
    /// the shared probe-free baseline).
    pub version: u32,
    /// The op stream.
    pub ops: Vec<Op>,
    /// Bytecode pc for each op (deoptimization metadata).
    pub ip_to_pc: Vec<u32>,
    /// OSR entry points: loop-header pc → op index *after* that pc's probe
    /// ops (so tier-up does not re-fire probes the interpreter already ran).
    pub osr_entry: HashMap<u32, u32>,
}

/// Compiled code bound to one process: the shareable op stream plus the
/// instrumentation version it is valid for. Its site micro-ops resolve
/// against the process's site table for the function; probe-free code has
/// none and wraps the artifact's shared `Arc<CompiledCode>`.
#[derive(Debug)]
pub struct Compiled {
    /// The (possibly shared) op stream.
    pub code: Arc<CompiledCode>,
    /// The owning process's instrumentation version this binding is valid
    /// for. For privately-compiled code this equals `code.version`; for
    /// the shared baseline it is the process's version at wrap time
    /// (`code.version` stays 0 there). Stamped per process so versions
    /// observed by live frames stay strictly monotonic even though the
    /// baseline op stream is reused across probe/detach cycles.
    pub version: u32,
}

impl Compiled {
    /// The instrumentation version this process-bound code is valid for.
    #[inline]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Address of the op stream, for sharing assertions.
    pub fn code_addr(&self) -> usize {
        Arc::as_ptr(&self.code) as usize
    }
}

/// Compiles the probe-free baseline (instrumentation version 0) of `func`
/// from the shared lowered form. The result references no process state
/// and is cached on the [`FuncArtifact`](crate::artifact::FuncArtifact),
/// shared by every process until it instruments the function.
pub(crate) fn compile_baseline(low: &Arc<Lowered>) -> CompiledCode {
    compile_inner(&LoweredView::shared((**low).clone()), None, 0)
}

/// Compiles `fc` from its *lowered* view to micro-ops, with a site
/// micro-op at every instruction that currently holds probes.
///
/// The lowering pass already pre-decoded every immediate and fused the
/// side table, so compilation is a single walk over fixed-width slots.
pub(crate) fn compile(fc: &FuncOverlay, low: &LoweredView) -> Compiled {
    let version = fc.version.get();
    Compiled { code: Arc::new(compile_inner(low, Some(fc), version)), version }
}

/// The shared compilation walk. `sites` is the overlay whose probed slots
/// get site micro-ops; `None` compiles the pristine baseline.
fn compile_inner(low: &LoweredView, sites: Option<&FuncOverlay>, version: u32) -> CompiledCode {
    let nslots = low.len();
    let mut ops: Vec<Op> = Vec::with_capacity(nslots);
    let mut ip_to_pc: Vec<u32> = Vec::with_capacity(nslots);
    let mut slot_to_ip: Vec<u32> = Vec::with_capacity(nslots + 1);
    let mut osr_entry: HashMap<u32, u32> = HashMap::new();

    // Branch targets are emitted with `ip` temporarily holding the lowered
    // *slot*; a second pass resolves slots to op indices.
    let jt = |t: LTarget| JTarget { ip: t.slot, keep: t.keep, height: t.height };

    for slot in 0..nslots {
        // Probe-patched slots compile from the original instruction, with
        // the site's micro-op ahead of it: how the site's probes run is
        // the site's binding, not this code's business.
        let pc = low.pc_of(slot);
        let mut li = low.get(slot);
        if li.op == op::PROBE {
            li = low.original(slot);
        }
        slot_to_ip.push(ops.len() as u32);
        let opb = li.op;
        if sites.is_some_and(|fc| fc.claim_site(slot)) {
            ops.push(Op::Site { slot: slot as u32, pc });
            ip_to_pc.push(pc);
        }
        if opb == op::LOOP {
            osr_entry.insert(pc, ops.len() as u32);
        }
        let emitted: Option<Op> = match opb {
            op::NOP | op::BLOCK | op::LOOP | op::END => None,
            op::UNREACHABLE => Some(Op::Unreachable),
            op::BR | op::ELSE => Some(Op::Br(jt(low.target(li.x)))),
            op::BR_IF => Some(Op::BrIf(jt(low.target(li.x)))),
            op::IF => Some(Op::BrIfZero(jt(low.target(li.x)))),
            op::BR_TABLE => Some(Op::BrTable(low.table(li.x).iter().map(|t| jt(*t)).collect())),
            op::RETURN => Some(Op::Return),
            op::CALL => Some(Op::Call { callee: li.x, ret_pc: low.pc_of(slot + 1) }),
            op::CALL_INDIRECT => {
                Some(Op::CallIndirect { type_idx: li.x, ret_pc: low.pc_of(slot + 1) })
            }
            op::DROP => Some(Op::Drop),
            op::SELECT => Some(Op::Select),
            op::LOCAL_GET => Some(Op::LocalGet(li.x)),
            op::LOCAL_SET => Some(Op::LocalSet(li.x)),
            op::LOCAL_TEE => Some(Op::LocalTee(li.x)),
            op::GLOBAL_GET => Some(Op::GlobalGet(li.x)),
            op::GLOBAL_SET => Some(Op::GlobalSet(li.x)),
            op::MEMORY_SIZE => Some(Op::MemorySize),
            op::MEMORY_GROW => Some(Op::MemoryGrow),
            // The lowering already holds const payloads as slot bits.
            op::I32_CONST | op::I64_CONST | op::F32_CONST | op::F64_CONST => Some(Op::Const(li.z)),
            b if op::is_load(b) => Some(Op::Load { op: b, offset: li.x }),
            b if op::is_store(b) => Some(Op::Store { op: b, offset: li.x }),
            b if numeric::is_binop(b) => Some(Op::Bin(b)),
            b if numeric::is_unop(b) => Some(Op::Un(b)),
            b => unreachable!("unhandled opcode {b:#04x} in validated code"),
        };
        if let Some(o) = emitted {
            ops.push(o);
            ip_to_pc.push(pc);
        }
    }
    // Sentinel: branches to one-past-the-end resolve to the return path.
    slot_to_ip.push(ops.len() as u32);

    // Resolve branch targets: JTarget.ip currently holds a lowered slot.
    let map = |t: &mut JTarget| {
        t.ip = slot_to_ip[t.ip as usize];
    };
    for o in &mut ops {
        match o {
            Op::Br(t) | Op::BrIf(t) | Op::BrIfZero(t) => map(t),
            Op::BrTable(ts) => {
                for t in ts.iter_mut() {
                    map(t);
                }
            }
            _ => {}
        }
    }

    CompiledCode { version, ops, ip_to_pc, osr_entry }
}

/// Runs the current (JIT-tier) frame until the invocation finishes, the
/// frame deoptimizes, or a trap unwinds.
#[allow(clippy::too_many_lines)]
pub(crate) fn run_frame(ex: &mut Exec) -> Result<Exit, Trap> {
    'frames: loop {
        let (lf, start_ip, expect_version) = {
            let f = ex.frames.last().expect("frame");
            debug_assert_eq!(f.tier, Tier::Jit);
            (f.lf, f.cip, f.code_version)
        };
        let fc = Rc::clone(&ex.proc.code[lf]);
        let current = fc.compiled.borrow().clone();
        let Some(compiled) =
            current.filter(|c| c.version() == expect_version && !ex.proc.global_mode)
        else {
            // While this frame was suspended its code was invalidated, or a
            // global probe arrived (which only the interpreter runs): deopt.
            deopt_here(ex);
            return Ok(Exit::Redispatch);
        };
        let func = ex.func;
        let code = &compiled.code;
        // The site table stays borrowed while this frame runs; it is let go
        // before anything that leaves the frame: a generic fire, which can
        // apply instrumentation changes, and calls and returns, which hand
        // control to other activations.
        let mut sites = fc.sites();
        let mut ip = start_ip;
        loop {
            if ip >= code.ops.len() {
                // Fell off the end: return.
                ex.frames.last_mut().expect("frame").cip = ip;
                match ex.do_return(Tier::Jit) {
                    Ok(()) => continue 'frames,
                    Err(Sig::Done) => return Ok(Exit::Done),
                    Err(Sig::Switch) => return Ok(Exit::Redispatch),
                    Err(Sig::Trap(t)) => return Err(t),
                }
            }
            // Fuel metering (bounded runs only): charge one unit at the
            // first micro-op of each bytecode instruction. Site ops are
            // emitted *before* their instruction's ops and share its pc, so
            // a suspension here is always before an instruction whose
            // probes have not fired yet — `cip` resumes compiled code
            // exactly here, and `pc` is a valid interpreter resume point if
            // the code is invalidated while suspended.
            if ex.metered && (ip == 0 || code.ip_to_pc[ip] != code.ip_to_pc[ip - 1]) {
                if ex.fuel == 0 {
                    let pc = code.ip_to_pc[ip] as usize;
                    ex.pc = pc;
                    let f = ex.frames.last_mut().expect("frame");
                    f.cip = ip;
                    f.pc = pc;
                    return Ok(Exit::OutOfFuel);
                }
                ex.fuel -= 1;
            }
            match &code.ops[ip] {
                Op::Const(v) => ex.values.push(*v),
                Op::LocalGet(i) => {
                    let v = ex.values[ex.base + *i as usize];
                    ex.values.push(v);
                }
                Op::LocalSet(i) => {
                    let v = ex.pop();
                    ex.values[ex.base + *i as usize] = v.0;
                }
                Op::LocalTee(i) => {
                    let v = ex.peek();
                    ex.values[ex.base + *i as usize] = v.0;
                }
                Op::GlobalGet(i) => {
                    let v = ex.proc.globals[*i as usize];
                    ex.values.push(v);
                }
                Op::GlobalSet(i) => {
                    let v = ex.pop();
                    ex.proc.globals[*i as usize] = v.0;
                }
                Op::Drop => {
                    ex.pop();
                }
                Op::Select => {
                    let c = ex.pop().i32();
                    let v2 = ex.pop();
                    let v1 = ex.pop();
                    ex.push(if c != 0 { v1 } else { v2 });
                }
                Op::Bin(b) => {
                    let rhs = ex.pop();
                    let lhs = ex.pop();
                    match numeric::binop(*b, lhs, rhs) {
                        Ok(v) => ex.push(v),
                        Err(t) => return trap(ex, ip, t),
                    }
                }
                Op::Un(b) => {
                    let a = ex.pop();
                    match numeric::unop(*b, a) {
                        Ok(v) => ex.push(v),
                        Err(t) => return trap(ex, ip, t),
                    }
                }
                Op::Load { op: b, offset } => {
                    let addr = ex.pop().u32();
                    let mem = ex.proc.memory.as_ref().expect("validated");
                    match numeric::do_load(mem, *b, addr, *offset) {
                        Ok(v) => ex.push(v),
                        Err(t) => return trap(ex, ip, t),
                    }
                }
                Op::Store { op: b, offset } => {
                    let val = ex.pop();
                    let addr = ex.pop().u32();
                    let mem = ex.proc.memory.as_mut().expect("validated");
                    if let Err(t) = numeric::do_store(mem, *b, addr, *offset, val) {
                        return trap(ex, ip, t);
                    }
                }
                Op::MemorySize => {
                    let pages = ex.proc.memory.as_ref().expect("validated").pages();
                    ex.push(Slot::from_u32(pages));
                }
                Op::MemoryGrow => {
                    let delta = ex.pop().u32();
                    let r = ex.proc.memory.as_mut().expect("validated").grow(delta);
                    ex.push(Slot::from_i32(r));
                }
                Op::Br(t) => {
                    ex.branch_values(t.keep, t.height);
                    ip = t.ip as usize;
                    continue;
                }
                Op::BrIf(t) => {
                    let c = ex.pop().i32();
                    if c != 0 {
                        ex.branch_values(t.keep, t.height);
                        ip = t.ip as usize;
                        continue;
                    }
                }
                Op::BrIfZero(t) => {
                    let c = ex.pop().i32();
                    if c == 0 {
                        ex.branch_values(t.keep, t.height);
                        ip = t.ip as usize;
                        continue;
                    }
                }
                Op::BrTable(ts) => {
                    let i = ex.pop().u32() as usize;
                    let t = ts[i.min(ts.len() - 1)];
                    ex.branch_values(t.keep, t.height);
                    ip = t.ip as usize;
                    continue;
                }
                Op::Return => {
                    drop(sites.take());
                    ex.frames.last_mut().expect("frame").cip = ip + 1;
                    match ex.do_return(Tier::Jit) {
                        Ok(()) => continue 'frames,
                        Err(Sig::Done) => return Ok(Exit::Done),
                        Err(Sig::Switch) => return Ok(Exit::Redispatch),
                        Err(Sig::Trap(t)) => return Err(t),
                    }
                }
                Op::Call { callee, ret_pc } => {
                    drop(sites.take());
                    ex.pc = *ret_pc as usize;
                    {
                        let f = ex.frames.last_mut().expect("frame");
                        f.cip = ip + 1;
                        f.pc = *ret_pc as usize;
                    }
                    match ex.do_call(*callee, Tier::Jit) {
                        Ok(()) => continue 'frames,
                        Err(Sig::Switch) => return Ok(Exit::Redispatch),
                        Err(Sig::Trap(t)) => return trap(ex, ip, t),
                        Err(Sig::Done) => unreachable!("call cannot finish invocation"),
                    }
                }
                Op::CallIndirect { type_idx, ret_pc } => {
                    drop(sites.take());
                    ex.pc = *ret_pc as usize;
                    {
                        let f = ex.frames.last_mut().expect("frame");
                        f.cip = ip + 1;
                        f.pc = *ret_pc as usize;
                    }
                    match ex.do_call_indirect(*type_idx, Tier::Jit) {
                        Ok(()) => continue 'frames,
                        Err(Sig::Switch) => return Ok(Exit::Redispatch),
                        Err(Sig::Trap(t)) => return trap(ex, ip, t),
                        Err(Sig::Done) => unreachable!("call cannot finish invocation"),
                    }
                }
                Op::Unreachable => return trap(ex, ip, Trap::Unreachable),
                Op::Site { slot, pc } => {
                    let table = sites.as_deref().expect("site micro-ops run on an overlay");
                    let binding = &table[*slot as usize].binding;
                    match binding {
                        // Fully-inlined counter: the intrinsified fast path.
                        Binding::Count(cell) => cell.set(cell.get() + 1),
                        Binding::Intrinsic(list) => {
                            for probe in list.iter() {
                                match probe {
                                    Intrinsified::Count(cell) => cell.set(cell.get() + 1),
                                    // Direct call with the top-of-stack
                                    // value; no runtime dispatch, no
                                    // FrameAccessor.
                                    Intrinsified::Operand(p) => p
                                        .borrow_mut()
                                        .fire_operand(Location { func, pc: *pc }, ex.peek()),
                                }
                            }
                        }
                        Binding::Generic | Binding::Empty => {
                            let fire = matches!(binding, Binding::Generic);
                            drop(sites.take());
                            // Checkpoint: sync pc/cip before anything
                            // observes (or leaves) the frame.
                            let pcv = *pc;
                            ex.pc = pcv as usize;
                            {
                                let f = ex.frames.last_mut().expect("frame");
                                f.cip = ip + 1;
                                f.pc = pcv as usize;
                            }
                            if fire {
                                // Generic probe site: fire through the same
                                // runtime path as the interpreter.
                                ex.fire_site(*slot, pcv);
                            } else {
                                // A removed probe's site, crossed once more.
                                // Removals re-arm the tier-up counter to the
                                // threshold, so a second threshold on top
                                // means they have gone quiet: drop the dead
                                // sites by recompiling (this frame re-enters
                                // through the usual tier-up) — unless a run
                                // counter is keeping them for the next monitor
                                // to re-bind.
                                let h = fc.hotness.get().saturating_add(1);
                                fc.hotness.set(h);
                                if h >= ex.proc.config.tierup_threshold.saturating_mul(2)
                                    && fc.run_counters.get() == 0
                                {
                                    fc.invalidate();
                                    ex.proc.stats.invalidation_passes += 1;
                                }
                            }
                            // Consistency checks: invalidated code or frame
                            // modification force deoptimization of this
                            // frame only (paper §4.6, strategy 4).
                            let deopt_needed = {
                                let f = ex.frames.last().expect("frame");
                                fc.version.get() != compiled.version()
                                    || f.deopt_requested
                                    || ex.proc.global_mode
                            };
                            if deopt_needed {
                                // The interpreter will re-charge fuel for
                                // this pc on re-entry; refund the unit this
                                // tier already charged so the instruction
                                // costs one unit, not two.
                                if ex.metered {
                                    ex.fuel += 1;
                                }
                                let f = ex.frames.last_mut().expect("frame");
                                f.tier = Tier::Interp;
                                f.pc = pcv as usize;
                                f.deopt_requested = false;
                                // The probes at this pc already fired;
                                // suppress the interpreter's re-fire if the
                                // probe byte remains.
                                if fire && fc.byte_at(pcv as usize) == op::PROBE {
                                    ex.skip_probe = Some(Location { func, pc: pcv });
                                }
                                ex.proc.stats.deopts += 1;
                                ex.load_cur();
                                return Ok(Exit::Redispatch);
                            }
                            sites = fc.sites();
                        }
                    }
                }
            }
            ip += 1;
        }
    }
}

/// Deoptimizes the current frame in place to the interpreter (its `pc` is
/// already a valid bytecode resume point — frames suspend only at sync
/// points).
fn deopt_here(ex: &mut Exec) {
    let f = ex.frames.last_mut().expect("frame");
    f.tier = Tier::Interp;
    f.deopt_requested = false;
    ex.proc.stats.deopts += 1;
    ex.load_cur();
}

/// The trap exit: leaves the trapping op's index in the cursor
/// for [`Exec::trap_location`].
#[cold]
fn trap(ex: &mut Exec, ip: usize, t: Trap) -> Result<Exit, Trap> {
    ex.pc = ip;
    Err(t)
}
