//! Translation validation of the register lowering (byte ≡ register).
//!
//! [`crate::validator`] proves the byte→`Lowered` translation by effect
//! equality per slot; the register form cannot be checked that way — the
//! allocator *eliminates* instructions (`local.get`, consts fold into
//! consumers) and *moves* work (deferred operands materialize at flush
//! points), so there is no slot-per-instruction correspondence left.
//!
//! This module instead runs both representations **symbolically, in
//! lockstep, one basic block at a time**:
//!
//! * The byte side executes a stack machine over symbolic values; the
//!   register side executes the [`RInstr`] stream over a symbolic
//!   register file. Both start each block from the same fresh symbols
//!   (local `r` ↔ register `r`, stack slot `i` ↔ canonical register
//!   `num_slots + i`), so hash-consed structural equality decides value
//!   agreement.
//! * Every **observable** action — loads, stores, global accesses,
//!   memory ops, calls, branches, returns, traps — must appear on both
//!   sides at the same byte pc with symbolically equal operands. Reads
//!   of mutable state are numbered events, so ordering is part of the
//!   proof.
//! * At every **park point** (labels, loop headers, calls, taken branch
//!   edges) the canonical registers below the live height and all local
//!   registers must equal the byte side's stack and locals — exactly
//!   the invariant that makes a parked register frame indistinguishable
//!   from a stack frame for probes and for demotion to the stack tier.
//!
//! Block-entry resets make the check per-block (no fixpoint): any path
//! reaching a label has, by the park rule, flushed to canonical form,
//! so a fresh-symbol state at the label covers all predecessors.
//!
//! The walker re-derives labels, branch targets, and dead regions from
//! the *validation side tables*, not from the allocator — it shares no
//! code with `regir`, which is the point.

use std::collections::HashMap;
use std::fmt;

use wizard_engine::regir::{
    RInstr, RegFunc, ARG_POOL_BIT, R_BIN, R_BIN_IR, R_BIN_RI, R_BR, R_BR_IF, R_BR_IF_Z, R_BR_TABLE,
    R_CALL, R_CALL_INDIRECT, R_CMP_BR, R_CMP_BR_RI, R_CONST, R_COPY, R_GLOBAL_GET, R_GLOBAL_SET,
    R_LOAD, R_LOOP, R_MEM_GROW, R_MEM_SIZE, R_RETURN, R_SELECT, R_STORE, R_UN, R_UNREACHABLE,
};
use wizard_engine::value::Slot;
use wizard_engine::ModuleArtifact;
use wizard_wasm::instr::{decode_at, Imm, Instr};
use wizard_wasm::module::FuncIdx;
use wizard_wasm::opcodes as op;
use wizard_wasm::types::FuncType;
use wizard_wasm::validate::{numeric_sig, FuncMeta, SideEntry, Target};

/// A byte→register translation defect, pinpointed to a function and
/// byte pc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterMismatch {
    /// Global function index.
    pub func: FuncIdx,
    /// Byte offset of the offending instruction.
    pub pc: u32,
    /// What disagreed.
    pub msg: String,
}

impl fmt::Display for RegisterMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "register-lowering mismatch in func {} at pc={}: {}",
            self.func, self.pc, self.msg
        )
    }
}

impl std::error::Error for RegisterMismatch {}

type SId = u32;

/// A symbolic value, hash-consed so equality is index equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum SNode {
    /// Local `r` at function entry.
    Entry(u16),
    /// Local `r` at block entry `pc` (fresh per label).
    LabelLocal(u32, u16),
    /// Canonical stack slot `i` at block entry `pc`.
    LabelStack(u32, u32),
    /// A compile-time constant (slot bits).
    Const(u64),
    /// `binop(lhs, rhs)`.
    Bin(u8, SId, SId),
    /// `unop(a)`.
    Un(u8, SId),
    /// `cond != 0 ? v1 : v2`.
    Select(SId, SId, SId),
    /// The result of observable event number `k` (load, global read,
    /// memory query, call result) — mutable state reads are ordered.
    Ev(u32),
}

#[derive(Default)]
struct Arena {
    nodes: Vec<SNode>,
    map: HashMap<SNode, SId>,
}

impl Arena {
    fn intern(&mut self, n: SNode) -> SId {
        if let Some(&i) = self.map.get(&n) {
            return i;
        }
        let i = self.nodes.len() as SId;
        self.nodes.push(n.clone());
        self.map.insert(n, i);
        i
    }
}

/// An observable action with its symbolic operands.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    Load { op: u8, offset: u32, addr: SId },
    Store { op: u8, offset: u32, addr: SId, val: SId },
    GlobalGet(u32),
    GlobalSet(u32, SId),
    MemSize,
    MemGrow(SId),
}

/// What the byte instruction at the current pc requires the register
/// interval to contain (beyond pure register writes).
enum Expected {
    /// An effectful non-control instruction; `results` are the event
    /// symbols its destination register must receive.
    Event(Event, Vec<SId>),
    /// A branch-shaped instruction; `rop` is the required `R_*` opcode.
    Branch {
        rop: u8,
        cond: Option<SId>,
        t: Target,
    },
    /// `br_table` with the index value and the side-table targets.
    Table {
        index: SId,
        ts: Vec<Target>,
    },
    /// `return`, carrying the result value if the function has one.
    Return {
        val: Option<SId>,
    },
    Unreachable,
    /// A loop header.
    Loop,
    /// A call park point.
    Call {
        /// `Some((type_idx, index_sval))` for `call_indirect`.
        indirect: Option<(u32, SId)>,
        /// Callee function index (direct) — ignored for indirect.
        callee: u32,
        args: Vec<SId>,
        hb: usize,
        ret_pc: u32,
        results: Vec<SId>,
    },
}

struct V<'a> {
    func: FuncIdx,
    bytes: &'a [u8],
    meta: &'a FuncMeta,
    reg: &'a RegFunc,
    func_types: &'a [FuncType],
    types: &'a [FuncType],
    nres: usize,
    num_slots: usize,
    ar: Arena,
    /// Byte-side symbolic operand stack.
    stack: Vec<SId>,
    /// Byte-side symbolic locals.
    blocals: Vec<SId>,
    /// Register-side symbolic register file (`None` = dead/unwritten).
    regfile: Vec<Option<SId>>,
    /// Branch-target pc → required entry height (from the side tables).
    labels: HashMap<u32, u32>,
    ev: u32,
    /// Next register instruction to consume.
    cursor: usize,
    dead: bool,
}

impl<'a> V<'a> {
    fn fail<T>(&self, pc: u32, msg: impl Into<String>) -> Result<T, RegisterMismatch> {
        Err(RegisterMismatch { func: self.func, pc, msg: msg.into() })
    }

    fn temp(&self, i: usize) -> usize {
        self.num_slots + i
    }

    fn fresh_ev(&mut self) -> SId {
        let s = self.ar.intern(SNode::Ev(self.ev));
        self.ev += 1;
        s
    }

    fn r(&self, pc: u32, id: usize) -> Result<SId, RegisterMismatch> {
        match self.regfile.get(id) {
            Some(Some(s)) => Ok(*s),
            Some(None) => self.fail(pc, format!("register r{id} read while dead")),
            None => self.fail(pc, format!("register id r{id} out of range")),
        }
    }

    fn w(&mut self, pc: u32, id: usize, s: SId) -> Result<(), RegisterMismatch> {
        match self.regfile.get_mut(id) {
            Some(slot) => {
                *slot = Some(s);
                Ok(())
            }
            None => self.fail(pc, format!("register id r{id} out of range")),
        }
    }

    fn pop(&mut self, pc: u32) -> Result<SId, RegisterMismatch> {
        match self.stack.pop() {
            Some(s) => Ok(s),
            None => self.fail(pc, "byte-side operand stack underflow"),
        }
    }

    /// Canonical registers `0..upto` must mirror the byte stack — the
    /// park-point flush invariant.
    fn check_canonical(&self, pc: u32, upto: usize) -> Result<(), RegisterMismatch> {
        if self.stack.len() < upto {
            return self
                .fail(pc, format!("park needs height {upto}, stack is {}", self.stack.len()));
        }
        for (i, &want) in self.stack.iter().enumerate().take(upto) {
            let id = self.temp(i);
            if self.regfile.get(id).copied().flatten() != Some(want) {
                return self
                    .fail(pc, format!("canonical register r{id} (stack slot {i}) not flushed"));
            }
        }
        Ok(())
    }

    /// Local registers must mirror the byte locals at every park point.
    fn check_locals(&self, pc: u32) -> Result<(), RegisterMismatch> {
        for (r, &want) in self.blocals.iter().enumerate() {
            if self.regfile[r] != Some(want) {
                return self.fail(pc, format!("local register r{r} diverges from local {r}"));
            }
        }
        Ok(())
    }

    /// Enters the label at `pc`: verify the fall-through flush (when
    /// live), then reset both sides to the same fresh block symbols.
    fn label_entry(&mut self, pc: u32) -> Result<(), RegisterMismatch> {
        let entry = self.labels[&pc] as usize;
        if !self.dead {
            if self.stack.len() != entry {
                return self.fail(
                    pc,
                    format!(
                        "label entry height {entry} but fall-through height {}",
                        self.stack.len()
                    ),
                );
            }
            self.check_canonical(pc, entry)?;
            self.check_locals(pc)?;
        }
        self.dead = false;
        self.stack.clear();
        for r in 0..self.num_slots {
            let s = self.ar.intern(SNode::LabelLocal(pc, r as u16));
            self.blocals[r] = s;
            self.regfile[r] = Some(s);
        }
        for i in 0..entry {
            let s = self.ar.intern(SNode::LabelStack(pc, i as u32));
            self.stack.push(s);
            let id = self.temp(i);
            if id >= self.regfile.len() {
                return self.fail(pc, format!("label height {entry} exceeds the register file"));
            }
            self.regfile[id] = Some(s);
        }
        for slot in self.regfile.iter_mut().skip(self.num_slots + entry) {
            *slot = None;
        }
        Ok(())
    }

    fn side_target(&self, pc: u32) -> Result<Target, RegisterMismatch> {
        match self.meta.side.get(&pc) {
            Some(SideEntry::Br(t) | SideEntry::IfFalse(t) | SideEntry::ElseSkip(t)) => Ok(*t),
            other => self.fail(pc, format!("no branch side entry: {other:?}")),
        }
    }

    /// Executes one byte instruction symbolically; returns what the
    /// register interval must observably do.
    fn exec_byte(
        &mut self,
        instr: &Instr,
        next: usize,
    ) -> Result<Option<Expected>, RegisterMismatch> {
        let pc = instr.pc;
        let o = instr.op;
        Ok(match (o, &instr.imm) {
            (op::NOP | op::BLOCK | op::END, _) => None,
            (op::UNREACHABLE, _) => {
                self.dead = true;
                Some(Expected::Unreachable)
            }
            (op::LOOP, _) => Some(Expected::Loop),
            (op::IF, _) => {
                let cond = self.pop(pc)?;
                let t = self.side_target(pc)?;
                Some(Expected::Branch { rop: R_BR_IF_Z, cond: Some(cond), t })
            }
            (op::ELSE, _) => {
                let t = self.side_target(pc)?;
                self.dead = true;
                Some(Expected::Branch { rop: R_BR, cond: None, t })
            }
            (op::BR, _) => {
                let t = self.side_target(pc)?;
                self.dead = true;
                Some(Expected::Branch { rop: R_BR, cond: None, t })
            }
            (op::BR_IF, _) => {
                let cond = self.pop(pc)?;
                let t = self.side_target(pc)?;
                Some(Expected::Branch { rop: R_BR_IF, cond: Some(cond), t })
            }
            (op::BR_TABLE, _) => {
                let index = self.pop(pc)?;
                let ts = match self.meta.side.get(&pc) {
                    Some(SideEntry::Table(ts)) => ts.clone(),
                    other => return self.fail(pc, format!("no table side entry: {other:?}")),
                };
                self.dead = true;
                Some(Expected::Table { index, ts })
            }
            (op::RETURN, _) => {
                let val = if self.nres > 0 { Some(self.pop(pc)?) } else { None };
                self.dead = true;
                Some(Expected::Return { val })
            }
            (op::CALL, &Imm::Idx(f)) => {
                let ty = match self.func_types.get(f as usize) {
                    Some(ty) => ty.clone(),
                    None => return self.fail(pc, format!("callee {f} out of range")),
                };
                Some(self.call_expected(pc, next, None, f, &ty)?)
            }
            (op::CALL_INDIRECT, &Imm::CallIndirect { type_idx, .. }) => {
                let index = self.pop(pc)?;
                let ty = match self.types.get(type_idx as usize) {
                    Some(ty) => ty.clone(),
                    None => return self.fail(pc, format!("type {type_idx} out of range")),
                };
                Some(self.call_expected(pc, next, Some((type_idx, index)), 0, &ty)?)
            }
            (op::DROP, _) => {
                self.pop(pc)?;
                None
            }
            (op::SELECT, _) => {
                let c = self.pop(pc)?;
                let v2 = self.pop(pc)?;
                let v1 = self.pop(pc)?;
                let s = self.ar.intern(SNode::Select(c, v1, v2));
                self.stack.push(s);
                None
            }
            (op::LOCAL_GET, &Imm::Idx(x)) => {
                self.stack.push(self.blocals[x as usize]);
                None
            }
            (op::LOCAL_SET, &Imm::Idx(x)) => {
                let v = self.pop(pc)?;
                self.blocals[x as usize] = v;
                None
            }
            (op::LOCAL_TEE, &Imm::Idx(x)) => {
                let v = *self.stack.last().ok_or_else(|| RegisterMismatch {
                    func: self.func,
                    pc,
                    msg: "tee on empty stack".into(),
                })?;
                self.blocals[x as usize] = v;
                None
            }
            (op::GLOBAL_GET, &Imm::Idx(g)) => {
                let s = self.fresh_ev();
                self.stack.push(s);
                Some(Expected::Event(Event::GlobalGet(g), vec![s]))
            }
            (op::GLOBAL_SET, &Imm::Idx(g)) => {
                let v = self.pop(pc)?;
                Some(Expected::Event(Event::GlobalSet(g, v), vec![]))
            }
            (op::MEMORY_SIZE, _) => {
                let s = self.fresh_ev();
                self.stack.push(s);
                Some(Expected::Event(Event::MemSize, vec![s]))
            }
            (op::MEMORY_GROW, _) => {
                let pages = self.pop(pc)?;
                let s = self.fresh_ev();
                self.stack.push(s);
                Some(Expected::Event(Event::MemGrow(pages), vec![s]))
            }
            (op::I32_CONST, &Imm::I32(v)) => {
                let s = self.ar.intern(SNode::Const(Slot::from_i32(v).0));
                self.stack.push(s);
                None
            }
            (op::I64_CONST, &Imm::I64(v)) => {
                let s = self.ar.intern(SNode::Const(Slot::from_i64(v).0));
                self.stack.push(s);
                None
            }
            (op::F32_CONST, &Imm::F32(v)) => {
                let s = self.ar.intern(SNode::Const(Slot::from_f32(v).0));
                self.stack.push(s);
                None
            }
            (op::F64_CONST, &Imm::F64(v)) => {
                let s = self.ar.intern(SNode::Const(Slot::from_f64(v).0));
                self.stack.push(s);
                None
            }
            (o, &Imm::Mem { offset, .. }) if op::is_load(o) => {
                let addr = self.pop(pc)?;
                let s = self.fresh_ev();
                self.stack.push(s);
                Some(Expected::Event(Event::Load { op: o, offset, addr }, vec![s]))
            }
            (o, &Imm::Mem { offset, .. }) if op::is_store(o) => {
                let val = self.pop(pc)?;
                let addr = self.pop(pc)?;
                Some(Expected::Event(Event::Store { op: o, offset, addr, val }, vec![]))
            }
            (o, _) => match numeric_sig(o).map(|(p, _)| p.len()) {
                Some(2) => {
                    let rhs = self.pop(pc)?;
                    let lhs = self.pop(pc)?;
                    let s = self.ar.intern(SNode::Bin(o, lhs, rhs));
                    self.stack.push(s);
                    None
                }
                Some(1) => {
                    let a = self.pop(pc)?;
                    let s = self.ar.intern(SNode::Un(o, a));
                    self.stack.push(s);
                    None
                }
                _ => return self.fail(pc, format!("opcode {o:#04x} not modeled but lowered")),
            },
        })
    }

    fn call_expected(
        &mut self,
        pc: u32,
        next: usize,
        indirect: Option<(u32, SId)>,
        callee: u32,
        ty: &FuncType,
    ) -> Result<Expected, RegisterMismatch> {
        let nargs = ty.params.len();
        let hb = match self.stack.len().checked_sub(nargs) {
            Some(hb) => hb,
            None => return self.fail(pc, "call args exceed stack height"),
        };
        let args = self.stack[hb..].to_vec();
        self.stack.truncate(hb);
        let mut results = Vec::with_capacity(ty.results.len());
        for _ in 0..ty.results.len() {
            let s = self.fresh_ev();
            results.push(s);
            self.stack.push(s);
        }
        Ok(Expected::Call { indirect, callee, args, hb, ret_pc: next as u32, results })
    }

    /// Verifies a branch-shaped register instruction against the side
    /// table: opcode, condition, resolved target, carried-value shuffle,
    /// and the taken-edge park invariant.
    fn check_branch(
        &self,
        pc: u32,
        ri: RInstr,
        rop: u8,
        cond: Option<SId>,
        t: &Target,
    ) -> Result<(), RegisterMismatch> {
        if ri.op != rop {
            return self.fail(pc, format!("register op {} where branch op {rop} expected", ri.op));
        }
        if let Some(c) = cond {
            if self.r(pc, ri.dst as usize)? != c {
                return self.fail(pc, "branch condition diverges");
            }
        }
        if ri.x as usize != self.reg.idx_of(t.target_pc as usize) {
            return self.fail(
                pc,
                format!("branch resolves to instruction {} instead of pc {}", ri.x, t.target_pc),
            );
        }
        if u32::from(ri.y) != t.arity {
            return self
                .fail(pc, format!("branch carries {} values, side table says {}", ri.y, t.arity));
        }
        if t.arity == 1 {
            let kept = match self.stack.last() {
                Some(&s) => s,
                None => return self.fail(pc, "carried value but empty stack"),
            };
            if self.r(pc, ri.a as usize)? != kept {
                return self.fail(pc, "carried value diverges");
            }
            if ri.b as usize != self.temp(t.height as usize) {
                return self.fail(pc, "carried value lands off its canonical register");
            }
        }
        self.check_canonical(pc, t.height as usize)?;
        self.check_locals(pc)
    }

    /// Matches one effectful/control register instruction against the
    /// byte side's expectation for this pc.
    fn match_expected(
        &mut self,
        pc: u32,
        ri: RInstr,
        exp: Expected,
    ) -> Result<(), RegisterMismatch> {
        match exp {
            Expected::Event(ev, results) => {
                let got = match ri.op {
                    R_LOAD => {
                        Event::Load { op: ri.y, offset: ri.x, addr: self.r(pc, ri.a as usize)? }
                    }
                    R_STORE => Event::Store {
                        op: ri.y,
                        offset: ri.x,
                        addr: self.r(pc, ri.a as usize)?,
                        val: self.r(pc, ri.b as usize)?,
                    },
                    R_GLOBAL_GET => Event::GlobalGet(ri.x),
                    R_GLOBAL_SET => Event::GlobalSet(ri.x, self.r(pc, ri.a as usize)?),
                    R_MEM_SIZE => Event::MemSize,
                    R_MEM_GROW => Event::MemGrow(self.r(pc, ri.a as usize)?),
                    o => return self.fail(pc, format!("register op {o} where effect expected")),
                };
                if got != ev {
                    return self.fail(pc, format!("effect diverges: {got:?} != {ev:?}"));
                }
                if let Some(&s) = results.first() {
                    self.w(pc, ri.dst as usize, s)?;
                }
                Ok(())
            }
            Expected::Branch { rop, cond, t } => self.check_branch(pc, ri, rop, cond, &t),
            Expected::Table { index, ts } => {
                if ri.op != R_BR_TABLE {
                    return self.fail(pc, format!("register op {} where br_table expected", ri.op));
                }
                if self.r(pc, ri.dst as usize)? != index {
                    return self.fail(pc, "br_table index diverges");
                }
                let table = self.reg.table(ri.x);
                if table.len() != ts.len() {
                    return self.fail(
                        pc,
                        format!("table has {} entries, side table {}", table.len(), ts.len()),
                    );
                }
                for (e, t) in table.iter().zip(ts.iter()) {
                    if e.idx as usize != self.reg.idx_of(t.target_pc as usize) {
                        return self.fail(pc, format!("table entry misses pc {}", t.target_pc));
                    }
                    if u32::from(e.keep) != t.arity {
                        return self.fail(pc, "table entry arity diverges");
                    }
                    if t.arity == 1 {
                        let kept = match self.stack.last() {
                            Some(&s) => s,
                            None => return self.fail(pc, "carried value but empty stack"),
                        };
                        if self.r(pc, ri.a as usize)? != kept {
                            return self.fail(pc, "table carried value diverges");
                        }
                        if e.dst as usize != self.temp(t.height as usize) {
                            return self.fail(pc, "table carried value lands off-canonical");
                        }
                    }
                    self.check_canonical(pc, t.height as usize)?;
                }
                self.check_locals(pc)
            }
            Expected::Return { val } => {
                if ri.op != R_RETURN {
                    return self.fail(pc, format!("register op {} where return expected", ri.op));
                }
                if usize::from(ri.y) != self.nres {
                    return self
                        .fail(pc, format!("return carries {} results, not {}", ri.y, self.nres));
                }
                if let Some(v) = val {
                    if self.r(pc, ri.a as usize)? != v {
                        return self.fail(pc, "return value diverges");
                    }
                }
                Ok(())
            }
            Expected::Unreachable => {
                if ri.op != R_UNREACHABLE {
                    return self
                        .fail(pc, format!("register op {} where unreachable expected", ri.op));
                }
                Ok(())
            }
            Expected::Loop => {
                if ri.op != R_LOOP {
                    return self.fail(pc, format!("register op {} where loop expected", ri.op));
                }
                if usize::from(ri.dst) != self.stack.len() {
                    return self.fail(pc, "loop entry height diverges");
                }
                self.check_canonical(pc, self.stack.len())?;
                self.check_locals(pc)
            }
            Expected::Call { indirect, callee, args, hb, ret_pc, results } => {
                match (&indirect, ri.op) {
                    (None, R_CALL) => {
                        if ri.x != callee {
                            return self.fail(pc, format!("call targets {} not {callee}", ri.x));
                        }
                    }
                    (Some((type_idx, index)), R_CALL_INDIRECT) => {
                        if ri.x != *type_idx {
                            return self.fail(pc, "call_indirect type index diverges");
                        }
                        if self.r(pc, ri.dst as usize)? != *index {
                            return self.fail(pc, "call_indirect element index diverges");
                        }
                    }
                    _ => {
                        return self.fail(pc, format!("register op {} where call expected", ri.op))
                    }
                }
                if ri.a as usize != hb || ri.b as usize != args.len() {
                    return self.fail(pc, "call frame geometry (hb/nargs) diverges");
                }
                if (ri.z >> 32) as u32 != ret_pc {
                    return self.fail(pc, "call return pc diverges");
                }
                let slice = self.reg.arg_slice((ri.z & 0xffff_ffff) as u32);
                if slice.len() != args.len() {
                    return self.fail(pc, "argument slice length diverges");
                }
                for (i, (&src, &want)) in slice.iter().zip(args.iter()).enumerate() {
                    let got = if src & ARG_POOL_BIT != 0 {
                        self.ar.intern(SNode::Const(self.reg.pool(src & !ARG_POOL_BIT)))
                    } else {
                        self.r(pc, src as usize)?
                    };
                    if got != want {
                        return self.fail(pc, format!("call argument {i} diverges"));
                    }
                }
                self.check_canonical(pc, hb)?;
                self.check_locals(pc)?;
                for (i, &s) in results.iter().enumerate() {
                    let id = self.temp(hb + i);
                    self.w(pc, id, s)?;
                }
                // The runtime truncates to the results on return and
                // zero-fills above: everything higher is dead.
                for slot in self.regfile.iter_mut().skip(self.num_slots + hb + results.len()) {
                    *slot = None;
                }
                Ok(())
            }
        }
    }

    /// A compare-and-branch with no byte-side branch at this pc: the
    /// fused `cmp; br_if` form. Verifies the condition against the cmp
    /// result just pushed, then the branch against the *next* byte
    /// instruction's side entry. Returns the fused-over `br_if` pc.
    fn check_fused(&mut self, pc: u32, next: usize, ri: RInstr) -> Result<u32, RegisterMismatch> {
        let cond = self.pop(pc)?;
        let (bri, _) = match decode_at(self.bytes, next) {
            Ok(v) => v,
            Err(e) => return self.fail(pc, format!("fused branch decode: {e:?}")),
        };
        if bri.op != op::BR_IF {
            return self.fail(pc, "compare-branch fuses over a non-br_if");
        }
        let t = self.side_target(bri.pc)?;
        if t.arity != 0 {
            return self.fail(pc, "fused branch carries values");
        }
        if self.labels.contains_key(&bri.pc) {
            return self.fail(pc, "fused over a branch-target br_if");
        }
        let lhs = self.r(pc, ri.a as usize)?;
        let rhs = if ri.op == R_CMP_BR_RI {
            self.ar.intern(SNode::Const(ri.z))
        } else {
            self.r(pc, ri.b as usize)?
        };
        if self.ar.intern(SNode::Bin(ri.y, lhs, rhs)) != cond {
            return self.fail(pc, "fused compare operands diverge");
        }
        if ri.x as usize != self.reg.idx_of(t.target_pc as usize) {
            return self.fail(pc, format!("fused branch misses pc {}", t.target_pc));
        }
        self.check_canonical(pc, t.height as usize)?;
        self.check_locals(pc)?;
        Ok(bri.pc)
    }

    /// Consumes every register instruction attributed to `[pc, next)`:
    /// pure writes evaluate into the register file, the (at most one)
    /// observable instruction must match `expected`. Returns the pc of
    /// a fused-over `br_if`, if this interval fused one.
    fn exec_interval(
        &mut self,
        pc: u32,
        next: usize,
        mut expected: Option<Expected>,
    ) -> Result<Option<u32>, RegisterMismatch> {
        let mut fused = None;
        while self.cursor < self.reg.len() && (self.reg.pc_of(self.cursor) as usize) < next {
            let ri = self.reg.get(self.cursor);
            self.cursor += 1;
            match ri.op {
                R_CONST => {
                    let s = self.ar.intern(SNode::Const(ri.z));
                    self.w(pc, ri.dst as usize, s)?;
                }
                R_COPY => {
                    let s = self.r(pc, ri.a as usize)?;
                    self.w(pc, ri.dst as usize, s)?;
                }
                R_BIN => {
                    let a = self.r(pc, ri.a as usize)?;
                    let b = self.r(pc, ri.b as usize)?;
                    let s = self.ar.intern(SNode::Bin(ri.y, a, b));
                    self.w(pc, ri.dst as usize, s)?;
                }
                R_BIN_RI => {
                    let a = self.r(pc, ri.a as usize)?;
                    let b = self.ar.intern(SNode::Const(ri.z));
                    let s = self.ar.intern(SNode::Bin(ri.y, a, b));
                    self.w(pc, ri.dst as usize, s)?;
                }
                R_BIN_IR => {
                    let a = self.ar.intern(SNode::Const(ri.z));
                    let b = self.r(pc, ri.b as usize)?;
                    let s = self.ar.intern(SNode::Bin(ri.y, a, b));
                    self.w(pc, ri.dst as usize, s)?;
                }
                R_UN => {
                    let a = self.r(pc, ri.a as usize)?;
                    let s = self.ar.intern(SNode::Un(ri.y, a));
                    self.w(pc, ri.dst as usize, s)?;
                }
                R_SELECT => {
                    let c = self.r(pc, ri.x as usize)?;
                    let v1 = self.r(pc, ri.a as usize)?;
                    let v2 = self.r(pc, ri.b as usize)?;
                    let s = self.ar.intern(SNode::Select(c, v1, v2));
                    self.w(pc, ri.dst as usize, s)?;
                }
                R_CMP_BR | R_CMP_BR_RI if expected.is_none() && fused.is_none() => {
                    fused = Some(self.check_fused(pc, next, ri)?);
                }
                _ => match expected.take() {
                    Some(exp) => self.match_expected(pc, ri, exp)?,
                    None => {
                        return self.fail(
                            pc,
                            format!("register op {} with no byte-side counterpart", ri.op),
                        )
                    }
                },
            }
        }
        if expected.is_some() {
            return self.fail(pc, "byte instruction has no register counterpart");
        }
        Ok(fused)
    }

    /// Structural checks on the pc maps: `idx_to_pc` non-decreasing and
    /// in range, `pc_to_idx` the exact forward map, and the body ends in
    /// the sentinel return.
    fn check_maps(&self) -> Result<(), RegisterMismatch> {
        let body_len = self.bytes.len();
        let mut prev = 0u32;
        for i in 0..self.reg.len() {
            let p = self.reg.pc_of(i);
            if p < prev || p as usize > body_len {
                return self.fail(p, format!("instruction {i}: pc map not monotone"));
            }
            prev = p;
        }
        let mut idx = 0usize;
        for pc in 0..=body_len {
            while idx < self.reg.len() && (self.reg.pc_of(idx) as usize) < pc {
                idx += 1;
            }
            if self.reg.idx_of(pc) != idx {
                return self.fail(pc as u32, "forward pc map is not the lower bound");
            }
        }
        let last = match self.reg.len().checked_sub(1) {
            Some(l) => l,
            None => return self.fail(0, "empty register stream"),
        };
        let fin = self.reg.get(last);
        if fin.op != R_RETURN || self.reg.pc_of(last) as usize != body_len {
            return self.fail(body_len as u32, "body does not end in the sentinel return");
        }
        Ok(())
    }

    fn run(&mut self) -> Result<(), RegisterMismatch> {
        self.check_maps()?;
        let body_len = self.bytes.len();
        let mut pos = 0usize;
        let mut skip_pc: Option<u32> = None;
        while pos < body_len {
            let (instr, next) = match decode_at(self.bytes, pos) {
                Ok(v) => v,
                Err(e) => return self.fail(e.pc, format!("bytes do not decode: {e:?}")),
            };
            let pc = instr.pc;
            if self.labels.contains_key(&pc) {
                self.label_entry(pc)?;
            }
            if skip_pc == Some(pc) {
                // The fused-over br_if: already verified; its interval
                // may still hold flush copies for a following label.
                skip_pc = None;
                self.exec_interval(pc, next, None)?;
                pos = next;
                continue;
            }
            if self.dead {
                if self.cursor < self.reg.len() && (self.reg.pc_of(self.cursor) as usize) < next {
                    return self.fail(pc, "register instructions attributed to dead code");
                }
                pos = next;
                continue;
            }
            let expected = self.exec_byte(&instr, next)?;
            if let Some(fpc) = self.exec_interval(pc, next, expected)? {
                skip_pc = Some(fpc);
            }
            pos = next;
        }

        // The sentinel return: a branch to the function's end lands
        // here; fall-through must leave exactly the results flushed.
        if let Some(&entry) = self.labels.get(&(body_len as u32)).filter(|_| self.dead) {
            let _ = entry;
            self.label_entry(body_len as u32)?;
        }
        let fin = self.reg.get(self.reg.len() - 1);
        if !self.dead {
            if self.stack.len() != self.nres {
                return self.fail(
                    body_len as u32,
                    format!("fall-through height {} but {} results", self.stack.len(), self.nres),
                );
            }
            let val = if self.nres > 0 { Some(self.stack[0]) } else { None };
            self.match_expected(body_len as u32, fin, Expected::Return { val })?;
        }
        if self.cursor != self.reg.len() - 1 {
            return self.fail(
                body_len as u32,
                format!(
                    "{} register instructions left unconsumed",
                    self.reg.len() - 1 - self.cursor
                ),
            );
        }
        Ok(())
    }
}

/// Collects branch-target pcs with their entry heights from the side
/// tables (independently of the allocator's own label pass).
fn collect_labels(func: FuncIdx, meta: &FuncMeta) -> Result<HashMap<u32, u32>, RegisterMismatch> {
    let mut labels = HashMap::new();
    let mut add = |t: &Target| -> Result<(), RegisterMismatch> {
        let entry = t.height + t.arity;
        match labels.insert(t.target_pc, entry) {
            Some(prev) if prev != entry => Err(RegisterMismatch {
                func,
                pc: t.target_pc,
                msg: format!("conflicting label heights {prev} and {entry}"),
            }),
            _ => Ok(()),
        }
    };
    for e in meta.side.values() {
        match e {
            SideEntry::Br(t) | SideEntry::IfFalse(t) | SideEntry::ElseSkip(t) => add(t)?,
            SideEntry::Table(ts) => {
                for t in ts {
                    add(t)?;
                }
            }
        }
    }
    Ok(labels)
}

/// Validates the register lowering of one function body against its
/// bytes: symbolic lockstep execution per basic block (see the module
/// docs for the proof obligations).
pub fn validate_func_register(
    func: FuncIdx,
    bytes: &[u8],
    meta: &FuncMeta,
    num_results: usize,
    func_types: &[FuncType],
    types: &[FuncType],
    reg: &RegFunc,
) -> Result<(), RegisterMismatch> {
    if u32::from(reg.num_slots()) != meta.num_slots {
        return Err(RegisterMismatch {
            func,
            pc: 0,
            msg: format!("{} local registers but {} slots", reg.num_slots(), meta.num_slots),
        });
    }
    let num_slots = meta.num_slots as usize;
    let labels = collect_labels(func, meta)?;
    let mut ar = Arena::default();
    let blocals: Vec<SId> = (0..num_slots).map(|r| ar.intern(SNode::Entry(r as u16))).collect();
    let mut regfile: Vec<Option<SId>> = blocals.iter().map(|&s| Some(s)).collect();
    regfile.resize(num_slots + reg.num_temps() as usize, None);
    let mut v = V {
        func,
        bytes,
        meta,
        reg,
        func_types,
        types,
        nres: num_results,
        num_slots,
        ar,
        stack: Vec::new(),
        blocals,
        regfile,
        labels,
        ev: 0,
        cursor: 0,
        dead: false,
    };
    v.run()
}

/// Validates the register lowering of every function the allocator
/// lowers, building each function's register form that is not built yet.
pub fn validate_register_lowering(artifact: &ModuleArtifact) -> Result<(), RegisterMismatch> {
    let func_types = artifact.func_types();
    let types = &artifact.module().types;
    for (lf, fa) in artifact.funcs().iter().enumerate() {
        if let Some(rf) = artifact.reg_func(lf) {
            validate_func_register(
                fa.func,
                &fa.bytes,
                &fa.meta,
                fa.num_results as usize,
                func_types,
                types,
                rf,
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::ValType::I32;

    fn module_for(f: FuncBuilder) -> wizard_wasm::module::Module {
        let mut mb = ModuleBuilder::new();
        mb.add_func("f", f);
        mb.build().expect("validates")
    }

    fn artifact_for(f: FuncBuilder) -> ModuleArtifact {
        ModuleArtifact::new(module_for(f)).expect("validates")
    }

    #[test]
    fn straight_line_register_form_validates() {
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0).i32_const(1).i32_add();
        let a = artifact_for(f);
        assert!(a.funcs()[0].reg_built().is_none());
        validate_register_lowering(&a).expect("register form is faithful");
        assert!(a.funcs()[0].reg_built().is_some(), "validation builds the register form");
    }

    #[test]
    fn fused_loops_validate_and_exercise_cmp_br() {
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let i = f.local(I32);
        let acc = f.local(I32);
        f.for_range(i, 0, |f| {
            f.local_get(acc).local_get(i).i32_add().local_set(acc);
        });
        f.local_get(acc);
        let a = artifact_for(f);
        let rf = a.reg_func(0).expect("lowers");
        let fused = rf.ops().iter().any(|ri| matches!(ri.op, R_CMP_BR | R_CMP_BR_RI));
        assert!(fused, "loop backedge should fuse to a compare-and-branch");
        validate_register_lowering(&a).expect("fused register form is faithful");
    }

    #[test]
    fn all_suite_kernels_validate() {
        for b in wizard_suites::all_suites(wizard_suites::Scale::Test) {
            let a = ModuleArtifact::new(b.module).expect("kernel validates");
            if let Err(e) = validate_register_lowering(&a) {
                panic!("{}/{}: {e}", b.suite, b.name);
            }
        }
    }

    #[test]
    fn corrupted_const_payload_is_rejected() {
        // Lower a body differing in one const payload, then validate
        // that register form against the *original* bytes.
        let build = |c: i32| {
            let mut f = FuncBuilder::new(&[I32], &[I32]);
            f.local_get(0).i32_const(c).i32_add();
            artifact_for(f)
        };
        let original = build(5);
        let tampered = build(6);
        let rf = tampered.reg_func(0).expect("lowers");
        let fa = &original.funcs()[0];
        let err = validate_func_register(
            fa.func,
            &fa.bytes,
            &fa.meta,
            fa.num_results as usize,
            original.func_types(),
            &original.module().types,
            rf,
        )
        .expect_err("corrupted stream must be rejected");
        assert_eq!(err.func, 0);
        let shown = err.to_string();
        assert!(shown.contains("func 0"), "diagnostic: {shown}");
    }

    #[test]
    fn wrong_branch_target_is_rejected() {
        // A loop summing down vs. a body without the loop: lowering one
        // against the other's bytes must fail fast.
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let i = f.local(I32);
        f.for_range(i, 0, |_| {});
        f.local_get(0);
        let looped = artifact_for(f);

        let mut g = FuncBuilder::new(&[I32], &[I32]);
        g.local_get(0);
        let plain = artifact_for(g);

        let rf = plain.reg_func(0).expect("lowers");
        let fa = &looped.funcs()[0];
        validate_func_register(
            fa.func,
            &fa.bytes,
            &fa.meta,
            fa.num_results as usize,
            looped.func_types(),
            &looped.module().types,
            rf,
        )
        .expect_err("mismatched control flow must be rejected");
    }
}
