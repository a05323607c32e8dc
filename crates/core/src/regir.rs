//! The register IR: stack-free lowering for the hot dispatch path.
//!
//! [`Lowered`](crate::lowered) still models the operand stack — every
//! `local.get`/`local.set` is a dispatched push or pop. This module lowers
//! a validated function one step further, to an **infinite-virtual-register,
//! fixed-width form** ([`RInstr`]) in which locals *and* operand-stack
//! slots are numbered registers of the frame:
//!
//! * register `r < num_slots` is local `r`;
//! * register `num_slots + i` is the operand-stack slot at height `i`
//!   (its *canonical position*).
//!
//! Both live at `values[base + r]`, so the interpreter addresses every
//! operand with one indexed load and the operand stack never moves while a
//! register frame runs. An abstract-stack allocator walks the bytecode
//! once: `local.get` and `*.const` push *symbolic* entries and emit
//! nothing; consumers fold those entries into inline operands
//! ([`R_BIN_RI`], call argument slices, …), so most stack traffic
//! disappears at lowering time. Call/`br_table` argument lists go through
//! a per-function **deduplicated operand-slice arena** and **const pool**
//! (the wasmi register-IR design).
//!
//! The paper's byte-offset `Location` contract survives translation:
//! every register instruction carries its source byte pc
//! ([`RegFunc::pc_of`]) and every byte pc forward-maps to the first
//! register instruction at-or-after it ([`RegFunc::idx_of`]) — eliminated
//! instructions (`local.get`, consts) have no runtime effect, so resuming
//! a frame parked at their pc correctly lands on the consumer. At every
//! **park point** (calls, returns, loop headers, taken branches) the
//! allocator has flushed the abstract stack to canonical registers, so a
//! register frame is indistinguishable from a stack-machine frame: probes
//! walking the frame and demotion to the stack interpreter all keep
//! working at byte granularity.
//!
//! Lowering is per function, on the function's first clean activation
//! ([`ModuleArtifact::reg_func`](crate::ModuleArtifact::reg_func)), and
//! total-or-nothing: any shape the allocator does not model (register ids
//! beyond `u16`, inconsistent label heights) returns `None` and that
//! function simply keeps running on the lowered stack tier.

use std::collections::HashMap;

use wizard_wasm::instr::{decode_at, Imm};
use wizard_wasm::opcodes as op;
use wizard_wasm::types::FuncType;
use wizard_wasm::validate::{FuncMeta, SideEntry, Target};

use crate::artifact::FuncArtifact;
use crate::numeric;
use crate::value::Slot;

// ---- register opcodes ----
//
// A fresh, dense opcode space (unrelated to wasm opcode bytes). `y` holds
// the original numeric/memory opcode byte where one is needed.

/// `r[dst] = z` (immediate constant).
pub const R_CONST: u8 = 1;
/// `r[dst] = r[a]`.
pub const R_COPY: u8 = 2;
/// `r[dst] = binop<y>(r[a], r[b])`.
pub const R_BIN: u8 = 3;
/// `r[dst] = binop<y>(r[a], z)` — right operand folded to an immediate.
pub const R_BIN_RI: u8 = 4;
/// `r[dst] = binop<y>(z, r[b])` — left operand folded to an immediate.
pub const R_BIN_IR: u8 = 5;
/// `r[dst] = unop<y>(r[a])`.
pub const R_UN: u8 = 6;
/// `r[dst] = load<y>(r[a] + x)`.
pub const R_LOAD: u8 = 7;
/// `store<y>(r[a] + x, r[b])`.
pub const R_STORE: u8 = 8;
/// `r[dst] = r[x] != 0 ? r[a] : r[b]`.
pub const R_SELECT: u8 = 9;
/// `r[dst] = globals[x]`.
pub const R_GLOBAL_GET: u8 = 10;
/// `globals[x] = r[a]`.
pub const R_GLOBAL_SET: u8 = 11;
/// `r[dst] = memory.size`.
pub const R_MEM_SIZE: u8 = 12;
/// `r[dst] = memory.grow(r[a])`.
pub const R_MEM_GROW: u8 = 13;
/// Unconditional jump to instruction `x`, carrying `y` (0 or 1) values:
/// `r[b] = r[a]` when `y == 1`.
pub const R_BR: u8 = 14;
/// As [`R_BR`] if `r[dst] != 0`, else fall through.
pub const R_BR_IF: u8 = 15;
/// As [`R_BR`] if `r[dst] == 0`, else fall through (the `if` false edge).
pub const R_BR_IF_Z: u8 = 16;
/// Indexed jump through table `x` on `r[dst]`; each entry carries its own
/// destination register, the common source register is `a`.
pub const R_BR_TABLE: u8 = 17;
/// Return `y` (0 or 1) results, the value read from `r[a]`.
pub const R_RETURN: u8 = 18;
/// Call function `x`; `a` = stack height below the arguments, `b` = arg
/// count, `z` = argument-slice index | return byte pc << 32.
pub const R_CALL: u8 = 19;
/// As [`R_CALL`] through the table: `x` = expected type index, `r[dst]` =
/// table element index.
pub const R_CALL_INDIRECT: u8 = 20;
/// Trap: unreachable.
pub const R_UNREACHABLE: u8 = 21;
/// Loop header, a park point that does nothing at run time: `dst` = entry
/// height (every operand below it is in its canonical register).
pub const R_LOOP: u8 = 22;
/// Fused `binop<y>; br_if` (branch arity 0): taken when
/// `binop<y>(r[a], r[b]) != 0`.
pub const R_CMP_BR: u8 = 23;
/// As [`R_CMP_BR`] with the right operand folded: `binop<y>(r[a], z)`.
pub const R_CMP_BR_RI: u8 = 24;

/// Tag bit marking a call-argument source as a const-pool index rather
/// than a register id.
pub const ARG_POOL_BIT: u32 = 1 << 31;

/// One fixed-width register instruction. 24 bytes, immediates pre-decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RInstr {
    /// Wide immediate payload: inline constant bits, or
    /// `slice_idx | ret_pc << 32` for calls.
    pub z: u64,
    /// Branch-target instruction index / callee / global index / memory
    /// offset / table index, depending on `op`.
    pub x: u32,
    /// Destination register (also: condition register for branches, index
    /// register for `br_table`/`call_indirect`, entry height for loops).
    pub dst: u16,
    /// First source register.
    pub a: u16,
    /// Second source register.
    pub b: u16,
    /// Register opcode (`R_*`).
    pub op: u8,
    /// Sub-opcode: the original numeric/memory wasm opcode byte, or the
    /// carried-value count for branches/returns.
    pub y: u8,
}

impl RInstr {
    const NOP: RInstr = RInstr { z: 0, x: 0, dst: 0, a: 0, b: 0, op: 0, y: 0 };

    fn new(op: u8) -> RInstr {
        RInstr { op, ..RInstr::NOP }
    }
}

/// One `br_table` entry: pre-resolved target instruction index plus the
/// per-target shuffle (the source register is shared by all entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RTableEntry {
    /// Target instruction index.
    pub idx: u32,
    /// Destination register for the carried value.
    pub dst: u16,
    /// Number of carried values (0 or 1).
    pub keep: u8,
}

/// The register form of one function: the instruction stream, the
/// bidirectional byte-pc ↔ instruction-index maps, and the function's
/// const pool and operand-slice arena.
#[derive(Debug)]
pub struct RegFunc {
    ops: Box<[RInstr]>,
    /// Source byte pc of each instruction (non-decreasing).
    idx_to_pc: Box<[u32]>,
    /// Forward map: byte pc → first instruction at-or-after it
    /// (`len = body_len + 1`; the sentinel maps to the final return).
    pc_to_idx: Box<[u32]>,
    /// `br_table` jump tables, deduplicated within the function.
    tables: Box<[Box<[RTableEntry]>]>,
    /// Const pool (deduplicated u64 slot bits).
    pool: Box<[u64]>,
    /// Flattened argument-source stream.
    args: Box<[u32]>,
    /// `(start, len)` argument slices into `args`, deduplicated.
    slices: Box<[(u32, u32)]>,
    /// Registers above the locals: exactly the function's max operand
    /// height, so `num_slots + num_temps` registers address the frame.
    num_temps: u16,
    num_slots: u16,
}

impl RegFunc {
    /// Number of register instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if there are no instructions (never, for a lowered function).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The instruction at `idx`.
    #[inline(always)]
    pub fn get(&self, idx: usize) -> RInstr {
        self.ops[idx]
    }

    /// The full instruction stream.
    pub fn ops(&self) -> &[RInstr] {
        &self.ops
    }

    /// Source byte pc of instruction `idx`.
    #[inline]
    pub fn pc_of(&self, idx: usize) -> u32 {
        self.idx_to_pc[idx]
    }

    /// First instruction at-or-after byte pc `pc`. Total over
    /// `0..=body_len`: pcs of eliminated instructions forward-map to their
    /// consumer, which is exactly where a parked frame must resume.
    #[inline]
    pub fn idx_of(&self, pc: usize) -> usize {
        self.pc_to_idx[pc] as usize
    }

    /// Registers above the locals (== the function's max operand height).
    pub fn num_temps(&self) -> u16 {
        self.num_temps
    }

    /// Local-slot count (register ids below this are locals).
    pub fn num_slots(&self) -> u16 {
        self.num_slots
    }

    /// The `br_table` jump table at `idx`.
    #[inline]
    pub fn table(&self, idx: u32) -> &[RTableEntry] {
        &self.tables[idx as usize]
    }

    /// The argument-source slice at `idx` (see [`ARG_POOL_BIT`]).
    #[inline]
    pub fn arg_slice(&self, idx: u32) -> &[u32] {
        let (start, len) = self.slices[idx as usize];
        &self.args[start as usize..(start + len) as usize]
    }

    /// The const-pool value at `idx`.
    #[inline]
    pub fn pool(&self, idx: u32) -> u64 {
        self.pool[idx as usize]
    }

    /// Bytes this register form occupies (for code-size accounting).
    pub fn size_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ops.len() * size_of::<RInstr>()
            + self.idx_to_pc.len() * 4
            + self.pc_to_idx.len() * 4
            + self.tables.iter().map(|t| t.len() * size_of::<RTableEntry>()).sum::<usize>()
    }
}

// ---- the allocator ----

/// A function's const pool and operand-slice arena under construction.
#[derive(Default)]
struct Arenas {
    pool: Vec<u64>,
    pool_map: HashMap<u64, u32>,
    args: Vec<u32>,
    slices: Vec<(u32, u32)>,
    slice_map: HashMap<Vec<u32>, u32>,
}

impl Arenas {
    fn pool_idx(&mut self, bits: u64) -> Option<u32> {
        if let Some(&i) = self.pool_map.get(&bits) {
            return Some(i);
        }
        let i = u32::try_from(self.pool.len()).ok()?;
        if i & ARG_POOL_BIT != 0 {
            return None;
        }
        self.pool.push(bits);
        self.pool_map.insert(bits, i);
        Some(i)
    }

    fn slice_idx(&mut self, slice: Vec<u32>) -> Option<u32> {
        if let Some(&i) = self.slice_map.get(&slice) {
            return Some(i);
        }
        let i = u32::try_from(self.slices.len()).ok()?;
        let start = u32::try_from(self.args.len()).ok()?;
        self.slices.push((start, slice.len() as u32));
        self.args.extend_from_slice(&slice);
        self.slice_map.insert(slice, i);
        Some(i)
    }
}

/// An abstract operand-stack entry. A `Temp` at stack position `i` always
/// lives in its canonical register `num_slots + i`; `Local`/`Const`
/// entries are deferred — they emitted nothing yet and fold into the
/// consumer's operands (or materialize at a flush point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Av {
    Temp,
    Local(u32),
    Const(u64),
}

struct FnBuilder {
    ops: Vec<RInstr>,
    idx_to_pc: Vec<u32>,
    tables: Vec<Box<[RTableEntry]>>,
    table_map: HashMap<Vec<RTableEntry>, u32>,
    stack: Vec<Av>,
    /// Required entry height of the label at each byte pc
    /// (`0..=body_len`), [`NO_LABEL`] where no branch lands.
    labels: Vec<u32>,
    num_slots: u16,
    arenas: Arenas,
}

/// [`FnBuilder::labels`] entry of a pc no branch targets.
const NO_LABEL: u32 = u32::MAX;

impl FnBuilder {
    /// Entry height of the label at `pc`, if a branch targets it.
    fn label(&self, pc: u32) -> Option<u32> {
        self.labels.get(pc as usize).copied().filter(|&h| h != NO_LABEL)
    }

    /// Canonical register of operand-stack position `pos`.
    fn temp(&self, pos: usize) -> u16 {
        self.num_slots + pos as u16
    }

    fn emit(&mut self, pc: u32, ri: RInstr) {
        self.ops.push(ri);
        self.idx_to_pc.push(pc);
    }

    /// Materializes the abstract entry at stack position `pos` into its
    /// canonical register (no-op for `Temp`).
    fn materialize(&mut self, pc: u32, pos: usize) {
        let dst = self.temp(pos);
        match self.stack[pos] {
            Av::Temp => return,
            Av::Local(x) => {
                self.emit(pc, RInstr { dst, a: x as u16, ..RInstr::new(R_COPY) });
            }
            Av::Const(z) => {
                self.emit(pc, RInstr { dst, z, ..RInstr::new(R_CONST) });
            }
        }
        self.stack[pos] = Av::Temp;
    }

    /// Flushes every abstract entry below `upto` to canonical registers —
    /// the park-point discipline: after a flush the register frame is
    /// indistinguishable from a stack-machine frame at the same height.
    fn flush(&mut self, pc: u32, upto: usize) {
        for p in 0..upto {
            self.materialize(pc, p);
        }
    }

    /// Register holding a *popped* value whose former stack position was
    /// `pos`; `Const` entries materialize into that (now-scratch) slot.
    fn reg_of_at(&mut self, pc: u32, av: Av, pos: usize) -> u16 {
        match av {
            Av::Temp => self.temp(pos),
            Av::Local(x) => x as u16,
            Av::Const(z) => {
                let dst = self.temp(pos);
                self.emit(pc, RInstr { dst, z, ..RInstr::new(R_CONST) });
                dst
            }
        }
    }

    /// Before writing local `x`, materialize every deferred read of it.
    fn hazard(&mut self, pc: u32, x: u32, upto: usize) {
        for p in 0..upto {
            if self.stack[p] == Av::Local(x) {
                self.materialize(pc, p);
            }
        }
    }

    /// Emits a branch-shaped instruction toward `t`; the target pc goes in
    /// `x` temporarily and is patched to an instruction index later. The
    /// shuffle moves `t.arity` carried values from the current canonical
    /// top to the target's canonical positions on the taken edge.
    fn branch(&mut self, pc: u32, opb: u8, cond: u16, t: &Target) -> Option<()> {
        let keep = u8::try_from(t.arity).ok()?;
        if keep > 1 {
            return None; // MVP block arity is 0 or 1; anything else falls back.
        }
        let h = self.stack.len();
        let src = self.temp(h - keep as usize);
        let dstr = self.temp(t.height as usize);
        self.emit(
            pc,
            RInstr { x: t.target_pc, dst: cond, a: src, b: dstr, y: keep, ..RInstr::new(opb) },
        );
        Some(())
    }
}

/// `true` for the comparison binops (result is an i32 truth value) —
/// eligible heads for the fused compare-and-branch forms.
fn is_cmp(o: u8) -> bool {
    matches!(o,
        op::I32_EQ..=op::I32_GE_U
        | op::I64_EQ..=op::I64_GE_U
        | op::F32_EQ..=op::F32_GE
        | op::F64_EQ..=op::F64_GE)
}

/// Collects every branch-target pc of a `body_len`-byte body with its
/// required entry height (`height + arity`), indexed by pc. Returns `None`
/// on conflicting heights.
fn collect_labels(meta: &FuncMeta, body_len: usize) -> Option<Vec<u32>> {
    let mut labels = vec![NO_LABEL; body_len + 1];
    let mut add = |t: &Target| -> Option<()> {
        let entry = t.height + t.arity;
        let slot = labels.get_mut(t.target_pc as usize)?;
        match *slot {
            NO_LABEL => *slot = entry,
            prev if prev != entry => return None,
            _ => {}
        }
        Some(())
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
    Some(labels)
}

/// Lowers one function to register form, or `None` if any shape falls
/// outside the allocator's model (the stack tier then serves it).
/// `func_types` spans the module's function index space, `types` is its
/// type section.
pub(crate) fn lower_func(
    fa: &FuncArtifact,
    func_types: &[FuncType],
    types: &[FuncType],
) -> Option<RegFunc> {
    let meta: &FuncMeta = &fa.meta;
    let bytes: &[u8] = &fa.bytes;
    let num_slots = u16::try_from(meta.num_slots).ok()?;
    let num_temps = u16::try_from(meta.max_height).ok()?;
    num_slots.checked_add(num_temps)?;
    let nres = fa.num_results as usize;
    let labels = collect_labels(meta, bytes.len())?;

    let mut b = FnBuilder {
        ops: Vec::with_capacity(bytes.len() / 2),
        idx_to_pc: Vec::with_capacity(bytes.len() / 2),
        tables: Vec::new(),
        table_map: HashMap::new(),
        stack: Vec::with_capacity(meta.max_height as usize),
        labels,
        num_slots,
        arenas: Arenas::default(),
    };

    let mut pos = 0usize;
    let mut dead = false;
    let mut last_pc = 0u32;
    let mut end_pc = 0u32; // pc of the body's final `end`.
    while pos < bytes.len() {
        let (instr, next) = decode_at(bytes, pos).ok()?;
        let pc = instr.pc;
        end_pc = pc;
        // Label entry: flush on the fall-through edge (attributed to the
        // *previous* pc so jumps land past the copies), or resurrect dead
        // code at the label's canonical entry state.
        if let Some(entry) = b.label(pc) {
            if dead {
                b.stack.clear();
                b.stack.resize(entry as usize, Av::Temp);
                dead = false;
            } else {
                b.flush(last_pc, b.stack.len());
                if b.stack.len() != entry as usize {
                    return None;
                }
            }
        }
        if dead {
            pos = next;
            last_pc = pc;
            continue;
        }
        match instr.op {
            op::NOP | op::BLOCK | op::END => {}
            op::UNREACHABLE => {
                b.emit(pc, RInstr::new(R_UNREACHABLE));
                dead = true;
            }
            op::LOOP => {
                // Loop heads are park points: fully canonical entry.
                b.flush(pc, b.stack.len());
                let h = b.stack.len() as u16;
                b.emit(pc, RInstr { dst: h, ..RInstr::new(R_LOOP) });
            }
            op::IF => {
                let t = match meta.side.get(&pc)? {
                    SideEntry::IfFalse(t) => *t,
                    _ => return None,
                };
                let cond = b.stack.pop()?;
                let h = b.stack.len();
                let creg = b.reg_of_at(pc, cond, h);
                b.flush(pc, h);
                b.branch(pc, R_BR_IF_Z, creg, &t)?;
            }
            op::ELSE => {
                let t = match meta.side.get(&pc)? {
                    SideEntry::ElseSkip(t) => *t,
                    _ => return None,
                };
                b.flush(pc, b.stack.len());
                b.branch(pc, R_BR, 0, &t)?;
                dead = true;
            }
            op::BR => {
                let t = match meta.side.get(&pc)? {
                    SideEntry::Br(t) => *t,
                    _ => return None,
                };
                b.flush(pc, b.stack.len());
                b.branch(pc, R_BR, 0, &t)?;
                dead = true;
            }
            op::BR_IF => {
                let t = match meta.side.get(&pc)? {
                    SideEntry::Br(t) => *t,
                    _ => return None,
                };
                let cond = b.stack.pop()?;
                let h = b.stack.len();
                let creg = b.reg_of_at(pc, cond, h);
                b.flush(pc, h);
                b.branch(pc, R_BR_IF, creg, &t)?;
            }
            op::BR_TABLE => {
                let ts = match meta.side.get(&pc)? {
                    SideEntry::Table(ts) => ts.clone(),
                    _ => return None,
                };
                let idx = b.stack.pop()?;
                let h = b.stack.len();
                let ireg = b.reg_of_at(pc, idx, h);
                b.flush(pc, h);
                let keep = u8::try_from(ts.first()?.arity).ok()?;
                if keep > 1 {
                    return None;
                }
                let src = b.temp(h - keep as usize);
                let entries: Vec<RTableEntry> = ts
                    .iter()
                    .map(|t| RTableEntry {
                        idx: t.target_pc, // patched to an instruction index below
                        dst: b.temp(t.height as usize),
                        keep,
                    })
                    .collect();
                let ti = match b.table_map.get(&entries) {
                    Some(&i) => i,
                    None => {
                        let i = b.tables.len() as u32;
                        b.tables.push(entries.clone().into_boxed_slice());
                        b.table_map.insert(entries, i);
                        i
                    }
                };
                b.emit(pc, RInstr { dst: ireg, a: src, x: ti, ..RInstr::new(R_BR_TABLE) });
                dead = true;
            }
            op::RETURN => {
                let mut a = 0;
                if nres > 0 {
                    let v = b.stack.pop()?;
                    a = b.reg_of_at(pc, v, b.stack.len());
                }
                b.emit(pc, RInstr { y: nres as u8, a, ..RInstr::new(R_RETURN) });
                dead = true;
            }
            op::CALL | op::CALL_INDIRECT => {
                let (callee_x, ireg, ty): (u32, u16, &FuncType) = match (instr.op, &instr.imm) {
                    (op::CALL, &Imm::Idx(f)) => (f, 0, func_types.get(f as usize)?),
                    (op::CALL_INDIRECT, &Imm::CallIndirect { type_idx, .. }) => {
                        let idx = b.stack.pop()?;
                        let ireg = b.reg_of_at(pc, idx, b.stack.len());
                        // The expected signature lives in the module's
                        // type section; every callee through the table
                        // type-checks against it at run time.
                        (type_idx, ireg, types.get(type_idx as usize)?)
                    }
                    _ => return None,
                };
                let (nargs, nret) = (ty.params.len(), ty.results.len());
                let h = b.stack.len();
                let hb = h.checked_sub(nargs)?;
                b.flush(pc, hb);
                // Gather the argument sources *before* popping: deferred
                // locals/consts skip materialization entirely and are
                // written straight into the callee frame at call time.
                let mut slice = Vec::with_capacity(nargs);
                for (i, &av) in b.stack[hb..].iter().enumerate() {
                    slice.push(match av {
                        Av::Temp => u32::from(b.temp(hb + i)),
                        Av::Local(x) => x,
                        Av::Const(c) => ARG_POOL_BIT | b.arenas.pool_idx(c)?,
                    });
                }
                let si = b.arenas.slice_idx(slice)?;
                b.stack.truncate(hb);
                let z = u64::from(si) | (next as u64) << 32;
                let ri = RInstr {
                    x: callee_x,
                    dst: ireg,
                    a: hb as u16,
                    b: nargs as u16,
                    z,
                    ..RInstr::new(if instr.op == op::CALL { R_CALL } else { R_CALL_INDIRECT })
                };
                b.emit(pc, ri);
                b.stack.resize(hb + nret, Av::Temp);
            }
            op::DROP => {
                b.stack.pop()?;
            }
            op::SELECT => {
                let c = b.stack.pop()?;
                let v2 = b.stack.pop()?;
                let v1 = b.stack.pop()?;
                let h = b.stack.len();
                let r1 = b.reg_of_at(pc, v1, h);
                let r2 = b.reg_of_at(pc, v2, h + 1);
                let rc = b.reg_of_at(pc, c, h + 2);
                let dst = b.temp(h);
                b.emit(pc, RInstr { dst, a: r1, b: r2, x: u32::from(rc), ..RInstr::new(R_SELECT) });
                b.stack.push(Av::Temp);
            }
            op::LOCAL_GET => {
                let Imm::Idx(x) = instr.imm else { return None };
                b.stack.push(Av::Local(x));
            }
            op::LOCAL_SET | op::LOCAL_TEE => {
                let Imm::Idx(x) = instr.imm else { return None };
                let top = b.stack.len().checked_sub(1)?;
                b.hazard(pc, x, top);
                let v = b.stack[top];
                let dst = x as u16;
                match v {
                    Av::Local(y) if y == x => {} // `local.get x; local.set x`: no-op.
                    Av::Local(y) => {
                        b.emit(pc, RInstr { dst, a: y as u16, ..RInstr::new(R_COPY) });
                    }
                    Av::Const(z) => b.emit(pc, RInstr { dst, z, ..RInstr::new(R_CONST) }),
                    Av::Temp => {
                        b.emit(pc, RInstr { dst, a: b.temp(top), ..RInstr::new(R_COPY) });
                    }
                }
                if instr.op == op::LOCAL_SET {
                    b.stack.pop();
                }
                // tee keeps the entry; `Local(y)`/`Const` stay valid —
                // the hazard pass re-materializes on a later write.
            }
            op::GLOBAL_GET => {
                let Imm::Idx(g) = instr.imm else { return None };
                let dst = b.temp(b.stack.len());
                b.emit(pc, RInstr { dst, x: g, ..RInstr::new(R_GLOBAL_GET) });
                b.stack.push(Av::Temp);
            }
            op::GLOBAL_SET => {
                let Imm::Idx(g) = instr.imm else { return None };
                let v = b.stack.pop()?;
                let a = b.reg_of_at(pc, v, b.stack.len());
                b.emit(pc, RInstr { a, x: g, ..RInstr::new(R_GLOBAL_SET) });
            }
            op::MEMORY_SIZE => {
                let dst = b.temp(b.stack.len());
                b.emit(pc, RInstr { dst, ..RInstr::new(R_MEM_SIZE) });
                b.stack.push(Av::Temp);
            }
            op::MEMORY_GROW => {
                let v = b.stack.pop()?;
                let h = b.stack.len();
                let a = b.reg_of_at(pc, v, h);
                b.emit(pc, RInstr { dst: b.temp(h), a, ..RInstr::new(R_MEM_GROW) });
                b.stack.push(Av::Temp);
            }
            op::I32_CONST | op::I64_CONST | op::F32_CONST | op::F64_CONST => {
                let bits = match instr.imm {
                    Imm::I32(v) => Slot::from_i32(v).0,
                    Imm::I64(v) => Slot::from_i64(v).0,
                    Imm::F32(v) => Slot::from_f32(v).0,
                    Imm::F64(v) => Slot::from_f64(v).0,
                    _ => return None,
                };
                b.stack.push(Av::Const(bits));
            }
            o if numeric::is_binop(o) => {
                let rhs = b.stack.pop()?;
                let lhs = b.stack.pop()?;
                let h = b.stack.len();
                let dst = b.temp(h);
                // Compare-and-branch fusion: a comparison immediately
                // consumed by an arity-0 `br_if` (and the `br_if` pc is
                // not itself a branch target) becomes one instruction —
                // the loop-backedge pattern.
                let fused = if is_cmp(o) && !matches!(lhs, Av::Const(_)) {
                    match decode_at(bytes, next) {
                        Ok((nx, after)) if nx.op == op::BR_IF && b.label(nx.pc).is_none() => {
                            match meta.side.get(&nx.pc) {
                                Some(SideEntry::Br(t)) if t.arity == 0 => Some((*t, after)),
                                _ => None,
                            }
                        }
                        _ => None,
                    }
                } else {
                    None
                };
                if let Some((t, after)) = fused {
                    let ra = b.reg_of_at(pc, lhs, h);
                    b.flush(pc, h);
                    let (opb, rb, z) = match rhs {
                        Av::Const(z) => (R_CMP_BR_RI, 0, z),
                        _ => (R_CMP_BR, b.reg_of_at(pc, rhs, h + 1), 0),
                    };
                    b.emit(
                        pc,
                        RInstr { y: o, a: ra, b: rb, z, x: t.target_pc, ..RInstr::new(opb) },
                    );
                    last_pc = next as u32; // the fused-over br_if's pc
                    pos = after;
                    continue;
                }
                let ri = match (lhs, rhs) {
                    (Av::Const(zl), Av::Const(zr)) => {
                        // Two consts: no folding (binops can trap) —
                        // materialize the left, fold the right.
                        let a = b.reg_of_at(pc, Av::Const(zl), h);
                        RInstr { y: o, dst, a, z: zr, ..RInstr::new(R_BIN_RI) }
                    }
                    (l, Av::Const(z)) => {
                        let a = b.reg_of_at(pc, l, h);
                        RInstr { y: o, dst, a, z, ..RInstr::new(R_BIN_RI) }
                    }
                    (Av::Const(z), r) => {
                        let rb = b.reg_of_at(pc, r, h + 1);
                        RInstr { y: o, dst, b: rb, z, ..RInstr::new(R_BIN_IR) }
                    }
                    (l, r) => {
                        let a = b.reg_of_at(pc, l, h);
                        let rb = b.reg_of_at(pc, r, h + 1);
                        RInstr { y: o, dst, a, b: rb, ..RInstr::new(R_BIN) }
                    }
                };
                b.emit(pc, ri);
                b.stack.push(Av::Temp);
            }
            o if numeric::is_unop(o) => {
                let v = b.stack.pop()?;
                let h = b.stack.len();
                let a = b.reg_of_at(pc, v, h);
                b.emit(pc, RInstr { y: o, dst: b.temp(h), a, ..RInstr::new(R_UN) });
                b.stack.push(Av::Temp);
            }
            o if op::is_load(o) => {
                let Imm::Mem { offset, .. } = instr.imm else { return None };
                let v = b.stack.pop()?;
                let h = b.stack.len();
                let a = b.reg_of_at(pc, v, h);
                b.emit(pc, RInstr { y: o, dst: b.temp(h), a, x: offset, ..RInstr::new(R_LOAD) });
                b.stack.push(Av::Temp);
            }
            o if op::is_store(o) => {
                let Imm::Mem { offset, .. } = instr.imm else { return None };
                let val = b.stack.pop()?;
                let addr = b.stack.pop()?;
                let h = b.stack.len();
                let a = b.reg_of_at(pc, addr, h);
                let rb = b.reg_of_at(pc, val, h + 1);
                b.emit(pc, RInstr { y: o, a, b: rb, x: offset, ..RInstr::new(R_STORE) });
            }
            _ => return None,
        }
        last_pc = pc;
        pos = next;
    }

    // The implicit return. A branch targeting the function's end lands at
    // the sentinel pc (`body_len`), which must map to the return itself —
    // the fall-through flush copies (attributed to the final `end`) sit
    // before it.
    let body_len = bytes.len() as u32;
    if let Some(entry) = b.label(body_len) {
        if dead {
            b.stack.clear();
            b.stack.resize(entry as usize, Av::Temp);
            dead = false;
        }
    }
    if !dead {
        b.flush(end_pc, b.stack.len());
        if b.stack.len() != nres {
            return None;
        }
    }
    b.emit(body_len, RInstr { y: nres as u8, a: b.temp(0), ..RInstr::new(R_RETURN) });

    // Forward byte-pc → instruction-index map (total over 0..=body_len).
    let mut pc_to_idx = vec![0u32; bytes.len() + 1];
    let mut idx = 0usize;
    for (pc, slot) in pc_to_idx.iter_mut().enumerate() {
        while idx < b.idx_to_pc.len() && (b.idx_to_pc[idx] as usize) < pc {
            idx += 1;
        }
        *slot = idx as u32;
    }

    // Patch branch targets from byte pcs to instruction indexes.
    let resolve = |tpc: u32| pc_to_idx[tpc as usize];
    for ri in &mut b.ops {
        match ri.op {
            R_BR | R_BR_IF | R_BR_IF_Z | R_CMP_BR | R_CMP_BR_RI => ri.x = resolve(ri.x),
            _ => {}
        }
    }
    for t in &mut b.tables {
        for e in t.iter_mut() {
            e.idx = resolve(e.idx);
        }
    }

    Some(RegFunc {
        ops: b.ops.into(),
        idx_to_pc: b.idx_to_pc.into(),
        pc_to_idx: pc_to_idx.into(),
        tables: b.tables.into(),
        pool: b.arenas.pool.into(),
        args: b.arenas.args.into(),
        slices: b.arenas.slices.into(),
        num_temps,
        num_slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModuleArtifact;
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::ValType::I32;

    fn lower(mb: ModuleBuilder) -> ModuleArtifact {
        ModuleArtifact::new(mb.build().unwrap()).unwrap()
    }

    /// `inc(x) = x + 1`: the deferred local and const fold into one
    /// `R_BIN_RI` — zero stack traffic, two instructions total.
    #[test]
    fn straight_line_add_is_one_bin_ri() {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0).i32_const(1).i32_add();
        mb.add_func("inc", f);
        let art = lower(mb);
        let rf = art.reg_func(0).expect("lowers");
        assert_eq!(rf.num_slots(), 1);
        let ops = rf.ops();
        assert_eq!(ops.len(), 2, "bin + return, nothing else: {ops:?}");
        assert_eq!(ops[0].op, R_BIN_RI);
        assert_eq!(ops[0].y, op::I32_ADD);
        assert_eq!(ops[0].a, 0, "lhs reads local 0 directly");
        assert_eq!(ops[0].z, Slot::from_i32(1).0, "rhs folded inline");
        assert_eq!(ops[0].dst, rf.num_slots(), "dst is stack slot 0");
        assert_eq!(ops[1].op, R_RETURN);
        assert_eq!((ops[1].y, ops[1].a), (1, rf.num_slots()));
    }

    /// `local.get x; local.set x` emits nothing; a deferred local
    /// reaching the implicit return materializes via one flush copy.
    #[test]
    fn get_set_same_local_is_erased() {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0).local_set(0).local_get(0);
        mb.add_func("id", f);
        let art = lower(mb);
        let rf = art.reg_func(0).unwrap();
        let ops = rf.ops();
        assert_eq!(ops.len(), 2, "flush copy + return: {ops:?}");
        assert_eq!((ops[0].op, ops[0].dst, ops[0].a), (R_COPY, rf.num_slots(), 0));
        assert_eq!(ops[1].op, R_RETURN);
    }

    /// The loop-backedge compare + `br_if` pair fuses into one
    /// `R_CMP_BR`, and the loop header emits an `R_LOOP` park point.
    #[test]
    fn loop_backedge_fuses_compare_and_branch() {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let i = f.local(I32);
        let acc = f.local(I32);
        f.for_range(i, 0, |f| {
            f.local_get(acc).local_get(i).i32_add().local_set(acc);
        });
        f.local_get(acc);
        mb.add_func("sum", f);
        let art = lower(mb);
        let rf = art.reg_func(0).unwrap();
        let ops = rf.ops();
        assert!(ops.iter().any(|ri| ri.op == R_LOOP));
        let fused: Vec<_> =
            ops.iter().filter(|ri| ri.op == R_CMP_BR || ri.op == R_CMP_BR_RI).collect();
        assert!(!fused.is_empty(), "backedge did not fuse: {ops:?}");
        assert!(numeric::is_binop(fused[0].y) && is_cmp(fused[0].y));
        // The backedge targets the loop header: some branch's patched
        // target index resolves to an instruction at the header's pc.
        let loop_pc = rf.pc_of(ops.iter().position(|ri| ri.op == R_LOOP).unwrap());
        let back = ops
            .iter()
            .filter(|ri| matches!(ri.op, R_BR | R_CMP_BR | R_CMP_BR_RI))
            .find(|ri| rf.pc_of(ri.x as usize) == loop_pc);
        assert!(back.is_some(), "no branch targets the loop header: {ops:?}");
    }

    /// Byte-pc ↔ instruction-index maps: `idx_to_pc` is monotone,
    /// `idx_of` is total over `0..=body_len` and returns the first
    /// instruction at-or-after the pc, and the stream ends in the
    /// implicit `R_RETURN` at the `body_len` sentinel.
    #[test]
    fn pc_maps_round_trip() {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let i = f.local(I32);
        let acc = f.local(I32);
        f.for_range(i, 0, |f| {
            f.local_get(acc).local_get(i).i32_add().local_set(acc);
        });
        f.local_get(acc);
        mb.add_func("sum", f);
        let art = ModuleArtifact::new(mb.build().unwrap()).unwrap();
        let body_len = art.funcs()[0].bytes.len();
        let rf = art.reg_func(0).unwrap();

        for w in (0..rf.len()).collect::<Vec<_>>().windows(2) {
            assert!(rf.pc_of(w[0]) <= rf.pc_of(w[1]), "idx_to_pc not monotone");
        }
        for pc in 0..=body_len {
            let idx = rf.idx_of(pc);
            assert!(idx < rf.len());
            assert!(rf.pc_of(idx) as usize >= pc, "instr before pc {pc}");
            if idx > 0 {
                assert!((rf.pc_of(idx - 1) as usize) < pc, "not the first at-or-after {pc}");
            }
        }
        let last = rf.get(rf.len() - 1);
        assert_eq!(last.op, R_RETURN);
        assert_eq!(rf.pc_of(rf.len() - 1) as usize, body_len);
    }

    /// Two calls passing the same const arguments share one slice in the
    /// function's operand arena, and its const pool holds each value once
    /// — addressed through `ARG_POOL_BIT`.
    #[test]
    fn call_arg_slices_and_const_pool_dedup() {
        let mut mb = ModuleBuilder::new();
        let mut h = FuncBuilder::new(&[I32, I32], &[I32]);
        h.local_get(0).local_get(1).i32_add();
        mb.add_func("helper", h);
        let mut f = FuncBuilder::new(&[], &[I32]);
        f.i32_const(7).i32_const(9).call(0);
        f.i32_const(7).i32_const(9).call(0).i32_add();
        mb.add_func("f", f);
        let art = lower(mb);
        let rf = art.reg_func(1).unwrap();
        let calls: Vec<RInstr> = rf.ops().iter().filter(|ri| ri.op == R_CALL).copied().collect();
        assert_eq!(calls.len(), 2);
        let (s0, s1) = (calls[0].z as u32, calls[1].z as u32);
        assert_eq!(s0, s1, "identical arg lists share one slice");
        assert_eq!(rf.slices.len(), 1);
        assert_eq!(rf.pool.len(), 2, "each const pooled once");
        let slice = rf.arg_slice(s0);
        assert_eq!(slice.len(), 2);
        assert!(slice.iter().all(|&a| a & ARG_POOL_BIT != 0), "consts via pool");
        assert_eq!(rf.pool(slice[0] & !ARG_POOL_BIT), Slot::from_i32(7).0);
        assert_eq!(rf.pool(slice[1] & !ARG_POOL_BIT), Slot::from_i32(9).0);
        assert_eq!((calls[0].a, calls[0].b), (0, 2), "args written from height 0, two of them");
        assert_eq!((calls[1].a, calls[1].b), (1, 2), "above the first call's result");
    }

    /// Per-function indexing: every local function lowers (the MVP op set
    /// is fully modeled), each on its own first demand and exactly once,
    /// and the size accounting is non-trivial.
    #[test]
    fn module_indexing_and_totals() {
        let mut mb = ModuleBuilder::new();
        for n in 0..3 {
            let mut f = FuncBuilder::new(&[I32], &[I32]);
            f.local_get(0).i32_const(n).i32_add();
            mb.add_func(&format!("f{n}"), f);
        }
        let art = lower(mb);
        for lf in 0..3 {
            assert!(art.funcs()[lf].reg_built().is_none(), "nothing built up front");
            let (rf, built_now) = art.reg_func_init(lf);
            assert!(built_now && rf.is_some());
            assert!(rf.unwrap().size_bytes() > 0);
            assert!(!art.reg_func_init(lf).1, "built once");
            assert!(art.funcs()[lf].reg_built().is_some());
        }
    }
}
