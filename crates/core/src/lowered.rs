//! The lowered code pipeline: one-time translation of validated bytecode
//! into fixed-width internal instructions with pre-decoded immediates and
//! pre-resolved branch targets.
//!
//! The in-place interpreter pays a *decode tax* when it dispatches over raw
//! bytes: every immediate is LEB128-decoded on every execution, and every
//! branch resolves its destination through a per-pc side-table `HashMap`
//! lookup. Lowering pays that tax **once per function**: a single pass over
//! the body produces one [`LInstr`] per bytecode instruction, with the
//! side table fused into a dense target array, and the interpreter then
//! dispatches over *slots* — no LEB, no hashing in the hot loop.
//!
//! Since the shared-artifact refactor the lowered form is split in two:
//!
//! * [`Lowered`] is the **immutable, thread-safe shared form** — all
//!   `Arc`-backed, `Send + Sync`, built once per function inside a
//!   [`ModuleArtifact`](crate::artifact::ModuleArtifact) and shared by
//!   every process instantiated from it. Nothing ever mutates it.
//! * [`LoweredView`] is the **per-process read view** the execution tiers
//!   dispatch through: normally it reads straight from the shared op
//!   stream (zero copies, pointer-shared across processes); once the
//!   process installs a probe in the function, the view reads from the
//!   process-local **copy-on-write op stream** owned by that function's
//!   [`FuncOverlay`](crate::code::FuncOverlay).
//!
//! Two properties make this compatible with the paper's instrumentation
//! design:
//!
//! * **The byte-offset `Location` space stays the public contract.** The
//!   lowering keeps a bidirectional `pc ↔ slot` map ([`Lowered::pc_of`],
//!   [`Lowered::slot_of`]), and frames always park byte pcs at sync points,
//!   so probes, monitors, script matching, disassembly, fuel suspension and
//!   deoptimization all keep speaking byte offsets.
//! * **Probe patching works exactly like bytecode overwriting** — on the
//!   overlay's copy. A slot is one instruction; installing a probe
//!   overwrites the copied slot's *opcode field* with the probe opcode
//!   (immediates untouched), and removal restores it — the same O(1)
//!   patch/restore the paper performs on the opcode byte (§4.2). The
//!   shared form is never touched, which is what makes instrumentation
//!   invisible to sibling processes of the same artifact.

use std::cell::Cell;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;

use wizard_wasm::instr::{Imm, InstrIter};
use wizard_wasm::opcodes as op;
use wizard_wasm::validate::{FuncMeta, SideEntry, Target};

use crate::numeric;
use crate::value::Slot;

/// Fused superinstruction: `local.get a; local.get b` (`x` = a, `z` = b).
pub const FUSED_GET_GET: u8 = 0xe8;
/// Fused superinstruction: `local.get a; <binop>` (`x` = a, `y` = binop).
pub const FUSED_GET_BIN: u8 = 0xe9;
/// Fused superinstruction: `<const>; <binop>` (`z` = const bits, `y` = binop,
/// `x` = the const's own opcode).
pub const FUSED_CONST_BIN: u8 = 0xea;
/// Fused superinstruction: `local.get a; local.set b` (`x` = a, `z` = b).
pub const FUSED_GET_SET: u8 = 0xeb;
/// Fused superinstruction: `<comparison>; br_if` (`y` = cmp, `x` = target).
pub const FUSED_CMP_BR: u8 = 0xec;
/// Fused superinstruction: `local.get a; local.get b; <binop>`
/// (`x` = a, `z` = b, `y` = binop).
pub const FUSED_GET_GET_BIN: u8 = 0xed;
/// Fused superinstruction: `local.get a; local.get b; <comparison>;
/// br_if` — the loop-backedge test (`z` = a | b<<32, `y` = cmp,
/// `x` = target).
pub const FUSED_GG_CMP_BR: u8 = 0xee;
/// Fused superinstruction: `local.get a; <const>; <binop>; local.set a` —
/// the in-place induction update (`x` = a, `z` = const bits, `y` = binop).
pub const FUSED_UPD: u8 = 0xef;

/// `true` for the lowering-internal fused superinstruction opcodes. These
/// bytes are never valid module bytecode; they exist only in lowered op
/// streams.
#[inline]
pub fn is_fused(opcode: u8) -> bool {
    (FUSED_GET_GET..=FUSED_UPD).contains(&opcode)
}

/// Number of bytecode instructions a fused superinstruction executes
/// (equivalently: 1 + the covered slots after its head).
#[inline]
pub fn fused_len(opcode: u8) -> usize {
    match opcode {
        FUSED_GET_GET_BIN => 3,
        FUSED_GG_CMP_BR | FUSED_UPD => 4,
        _ => 2,
    }
}

/// Offset, from a fused head, of the one instruction of the group that can
/// trap: its binop (comparisons never trap, so the branch forms have none).
#[inline]
pub fn fused_trap_offset(opcode: u8) -> usize {
    match opcode {
        FUSED_GET_BIN | FUSED_CONST_BIN => 1,
        FUSED_GET_GET_BIN | FUSED_UPD => 2,
        _ => 0,
    }
}

/// `true` for binops that produce an `i32` condition and cannot trap —
/// the fusable heads of `FUSED_CMP_BR`.
fn is_cmp(opcode: u8) -> bool {
    matches!(opcode,
        op::I32_EQ..=op::I32_GE_U
        | op::I64_EQ..=op::I64_GE_U
        | op::F32_EQ..=op::F32_GE
        | op::F64_EQ..=op::F64_GE)
}

/// The original first instruction behind `li` if it is a fused
/// superinstruction (each encoding keeps everything its head needs), `li`
/// itself otherwise. The covered slots always hold their originals, so
/// this is all it takes to read — or restore — one instruction per slot.
#[inline]
fn unfuse(li: LInstr) -> LInstr {
    match li.op {
        FUSED_GET_GET | FUSED_GET_BIN | FUSED_GET_SET | FUSED_GET_GET_BIN | FUSED_UPD => {
            LInstr::with_x(op::LOCAL_GET, li.x)
        }
        FUSED_GG_CMP_BR => LInstr::with_x(op::LOCAL_GET, li.z as u32),
        FUSED_CONST_BIN => LInstr::with_z(li.x as u8, li.z),
        FUSED_CMP_BR => LInstr::plain(li.y),
        _ => li,
    }
}

/// A pre-resolved control-transfer destination in lowered code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LTarget {
    /// Destination slot index.
    pub slot: u32,
    /// Number of operand values carried across the branch.
    pub keep: u32,
    /// Operand-stack height (above the frame's operand base) to truncate to.
    pub height: u32,
}

/// One fixed-width lowered instruction.
///
/// `op` reuses the Wasm opcode byte space (including the reserved probe
/// opcode when an overlay slot is patched), so the interpreter's 256-entry
/// dispatch tables — normal and global-probe-instrumented — carry over
/// unchanged in shape. The immediate fields are interpreted per opcode:
///
/// | opcode                      | `x`                       | `z`             |
/// |-----------------------------|---------------------------|-----------------|
/// | `local.*` / `global.*`      | index                     | —               |
/// | `*.const`                   | —                         | value as slot bits |
/// | loads / stores              | constant offset           | —               |
/// | `br` / `br_if` / `if` / `else` | index into [`Lowered::targets`] | —    |
/// | `br_table`                  | index into [`Lowered::tables`] | —          |
/// | `call`                      | callee function index     | —               |
/// | `call_indirect`             | expected type index       | —               |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LInstr {
    /// Lowered opcode (Wasm opcode byte space, a fused superinstruction
    /// opcode, or `op::PROBE` when an overlay slot is patched).
    pub op: u8,
    /// Secondary opcode of a fused superinstruction (the second
    /// instruction's binop byte); 0 otherwise. Lives in what would be
    /// padding, so fusion costs no slot width.
    pub y: u8,
    /// Primary pre-decoded immediate (see table above).
    pub x: u32,
    /// Wide pre-decoded immediate: constant payloads as value-slot bits.
    pub z: u64,
}

impl LInstr {
    fn plain(opcode: u8) -> LInstr {
        LInstr { op: opcode, y: 0, x: 0, z: 0 }
    }

    fn with_x(opcode: u8, x: u32) -> LInstr {
        LInstr { op: opcode, y: 0, x, z: 0 }
    }

    fn with_z(opcode: u8, z: u64) -> LInstr {
        LInstr { op: opcode, y: 0, x: 0, z }
    }
}

/// A process-local copy-on-write op stream: the mutable half of the
/// overlay, materialized from [`Lowered::cow_ops`] when the first probe
/// lands in a function and dropped again when the last probe leaves.
pub type OverlayOps = Rc<[Cell<LInstr>]>;

/// A function body lowered to fixed-width instructions — the **immutable,
/// shared form**.
///
/// Every field is `Arc`-backed plain data: the whole structure is
/// `Send + Sync` and is shared by reference between every process
/// instantiated from the same
/// [`ModuleArtifact`](crate::artifact::ModuleArtifact). Instrumentation
/// never mutates it; probe patching operates on a per-process
/// [`OverlayOps`] copy read through a [`LoweredView`].
#[derive(Debug, Clone)]
pub struct Lowered {
    /// One slot per bytecode instruction, in code order (pristine:
    /// superinstructions fused, no probe opcodes).
    ops: Arc<[LInstr]>,
    /// Pre-resolved branch targets (side table fused in), referenced by
    /// `x` of `br`/`br_if`/`if`/`else` slots.
    pub targets: Arc<[LTarget]>,
    /// `br_table` target lists (targets then default, matching the side
    /// table), referenced by `x` of `br_table` slots.
    pub tables: Arc<[Box<[LTarget]>]>,
    /// slot → byte pc of the instruction; one extra sentinel entry mapping
    /// `slot == len()` to the body's byte length (one-past-the-end).
    slot_to_pc: Arc<[u32]>,
    /// byte pc → slot; `u32::MAX` for offsets that are not instruction
    /// boundaries; one extra sentinel entry for `pc == body len`.
    pc_to_slot: Arc<[u32]>,
}

impl Lowered {
    /// Lowers a *clean* body (no probe bytes) using its validation metadata.
    ///
    /// # Panics
    ///
    /// Panics on undecodable bytes or missing side entries — impossible for
    /// validated code.
    pub fn lower(clean: &[u8], meta: &FuncMeta) -> Lowered {
        let mut ops: Vec<LInstr> = Vec::with_capacity(clean.len() / 2 + 1);
        let mut targets: Vec<LTarget> = Vec::new();
        let mut tables: Vec<Box<[LTarget]>> = Vec::new();
        let mut slot_to_pc: Vec<u32> = Vec::with_capacity(ops.capacity() + 1);
        let mut pc_to_slot: Vec<u32> = vec![u32::MAX; clean.len() + 1];

        // Targets are collected with `slot` temporarily holding the
        // destination *byte pc*; a second pass resolves them to slots once
        // the pc → slot map is complete.
        let unresolved = |t: Target| LTarget { slot: t.target_pc, keep: t.arity, height: t.height };
        let side_br = |pc: u32| -> Target {
            match meta.side.get(&pc) {
                Some(SideEntry::Br(t) | SideEntry::IfFalse(t) | SideEntry::ElseSkip(t)) => *t,
                other => unreachable!("missing side entry at pc={pc}: {other:?}"),
            }
        };

        for item in InstrIter::new(clean) {
            let instr = item.expect("validated code decodes");
            let pc = instr.pc;
            pc_to_slot[pc as usize] = ops.len() as u32;
            slot_to_pc.push(pc);
            let lowered = match instr.op {
                op::BR | op::BR_IF | op::IF | op::ELSE => {
                    targets.push(unresolved(side_br(pc)));
                    LInstr::with_x(instr.op, targets.len() as u32 - 1)
                }
                op::BR_TABLE => match meta.side.get(&pc) {
                    Some(SideEntry::Table(entries)) => {
                        tables.push(entries.iter().map(|t| unresolved(*t)).collect());
                        LInstr::with_x(instr.op, tables.len() as u32 - 1)
                    }
                    other => unreachable!("missing br_table side entry at pc={pc}: {other:?}"),
                },
                op::I32_CONST => match instr.imm {
                    Imm::I32(v) => LInstr::with_z(instr.op, Slot::from_i32(v).0),
                    _ => unreachable!("decoder invariant"),
                },
                op::I64_CONST => match instr.imm {
                    Imm::I64(v) => LInstr::with_z(instr.op, Slot::from_i64(v).0),
                    _ => unreachable!("decoder invariant"),
                },
                op::F32_CONST => match instr.imm {
                    Imm::F32(v) => LInstr::with_z(instr.op, Slot::from_f32(v).0),
                    _ => unreachable!("decoder invariant"),
                },
                op::F64_CONST => match instr.imm {
                    Imm::F64(v) => LInstr::with_z(instr.op, Slot::from_f64(v).0),
                    _ => unreachable!("decoder invariant"),
                },
                _ => match instr.imm {
                    Imm::None | Imm::Block(_) | Imm::MemIdx(_) => LInstr::plain(instr.op),
                    Imm::Idx(i) => LInstr::with_x(instr.op, i),
                    Imm::CallIndirect { type_idx, .. } => LInstr::with_x(instr.op, type_idx),
                    Imm::Mem { offset, .. } => LInstr::with_x(instr.op, offset),
                    _ => unreachable!("immediate shape handled above"),
                },
            };
            ops.push(lowered);
        }

        // Sentinels: one-past-the-end maps both ways, so branches to the
        // body end and the implicit-return pc stay representable.
        let end_slot = ops.len() as u32;
        slot_to_pc.push(clean.len() as u32);
        pc_to_slot[clean.len()] = end_slot;

        let resolve = |t: &mut LTarget| {
            let slot = pc_to_slot[t.slot as usize];
            debug_assert_ne!(slot, u32::MAX, "branch target {t:?} is not an instruction boundary");
            t.slot = slot;
        };
        for t in &mut targets {
            resolve(t);
        }
        for table in &mut tables {
            for t in table.iter_mut() {
                resolve(t);
            }
        }

        fuse(&mut ops, &targets, &tables);

        Lowered {
            ops: ops.into(),
            targets: targets.into(),
            tables: tables.into(),
            slot_to_pc: slot_to_pc.into(),
            pc_to_slot: pc_to_slot.into(),
        }
    }

    /// An empty lowering (placeholder before the first frame loads).
    pub fn empty() -> Lowered {
        Lowered::lower(&[], &FuncMeta::default())
    }

    /// Number of instruction slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the body lowered to no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Reads the pristine (shared-form) instruction at `slot`.
    #[inline]
    pub fn get(&self, slot: usize) -> LInstr {
        self.ops[slot]
    }

    /// The pristine *single* instruction at `slot`: what a probe there
    /// overwrites, and what its removal restores.
    #[inline]
    pub fn original(&self, slot: usize) -> LInstr {
        unfuse(self.ops[slot])
    }

    /// Byte pc of the instruction at `slot` (`slot == len()` maps to the
    /// body's byte length).
    #[inline]
    pub fn pc_of(&self, slot: usize) -> u32 {
        self.slot_to_pc[slot]
    }

    /// Slot of the instruction starting at byte `pc`, or `None` if `pc` is
    /// not an instruction boundary.
    #[inline]
    pub fn slot_of(&self, pc: u32) -> Option<u32> {
        match self.pc_to_slot.get(pc as usize) {
            Some(&s) if s != u32::MAX => Some(s),
            _ => None,
        }
    }

    /// Resolves a target index of a `br`/`br_if`/`if`/`else` slot.
    #[inline]
    pub fn target(&self, idx: u32) -> LTarget {
        self.targets[idx as usize]
    }

    /// Resolves a `br_table` slot's target list.
    #[inline]
    pub fn table(&self, idx: u32) -> &[LTarget] {
        &self.tables[idx as usize]
    }

    /// Address of the shared op stream — the identity tests and benches
    /// use to assert that two processes really dispatch from the same
    /// memory until a probe lands.
    pub fn ops_addr(&self) -> usize {
        self.ops.as_ptr() as usize
    }

    /// Number of live handles on the shared op stream (this form and every
    /// clone of it) — what tests read to prove that execution takes no
    /// clone of shared state per frame switch.
    pub fn share_count(&self) -> usize {
        Arc::strong_count(&self.ops)
    }

    /// Size of the lowered form in bytes (op stream + targets + maps) —
    /// the per-process memory a shared artifact saves its siblings.
    pub fn size_bytes(&self) -> usize {
        self.ops.len() * core::mem::size_of::<LInstr>()
            + self.targets.len() * core::mem::size_of::<LTarget>()
            + self.tables.iter().map(|t| t.len() * core::mem::size_of::<LTarget>()).sum::<usize>()
            + (self.slot_to_pc.len() + self.pc_to_slot.len()) * core::mem::size_of::<u32>()
    }

    /// Materializes a process-local copy of the op stream — the
    /// copy-on-write step, taken by a
    /// [`FuncOverlay`](crate::code::FuncOverlay) when the first probe
    /// lands in the function.
    pub fn cow_ops(&self) -> OverlayOps {
        self.ops.iter().map(|&o| Cell::new(o)).collect()
    }

    /// Overwrites the opcode field of overlay slot `slot` with the probe
    /// opcode — the lowered-form analogue of overwriting the opcode byte,
    /// applied to the process-local copy. Immediates are untouched.
    /// Removal writes [`Lowered::original`] back: a head that probe traffic
    /// touched stays unfused in the overlay (degradation, never
    /// incorrectness) until the function's last probe leaves and the
    /// process rejoins the shared, still-fused op stream.
    ///
    /// If the slot is covered by a fused superinstruction, the fused head
    /// is restored to its original single instruction first — sequential
    /// flow must reach the probed slot, never skip over it.
    pub fn patch_probe(&self, ops: &[Cell<LInstr>], slot: u32) {
        // Scan back over the longest possible fused region for a head that
        // covers this slot (fusions never overlap, so at most one does).
        for d in 1..=3u32 {
            let Some(head) = slot.checked_sub(d) else { break };
            let cell = &ops[head as usize];
            let li = cell.get();
            if is_fused(li.op) && fused_len(li.op) as u32 > d {
                cell.set(unfuse(li));
                break;
            }
        }
        let cell = &ops[slot as usize];
        cell.set(LInstr { op: op::PROBE, ..cell.get() });
    }
}

/// The per-process read view of a function's lowered code: shared pristine
/// ops by default, the process-local [`OverlayOps`] copy once the function
/// is instrumented. A bundle of handles on the shared form: cloning one
/// writes the artifact's (fleet-wide) reference counts, so a process
/// builds it once per function — inside the
/// [`FuncViews`](crate::code::FuncViews) its overlay caches — and
/// execution only ever borrows it.
#[derive(Debug, Clone)]
pub struct LoweredView {
    shared: Lowered,
    local: Option<OverlayOps>,
}

impl LoweredView {
    /// A view reading straight from the shared form (uninstrumented).
    pub fn shared(low: Lowered) -> LoweredView {
        LoweredView { shared: low, local: None }
    }

    /// A view reading through a process-local overlay op stream.
    pub fn overlaid(low: Lowered, ops: OverlayOps) -> LoweredView {
        LoweredView { shared: low, local: Some(ops) }
    }

    /// An empty view (placeholder before the first frame loads).
    pub fn empty() -> LoweredView {
        LoweredView::shared(Lowered::empty())
    }

    /// `true` while this view reads a process-local copy-on-write op
    /// stream instead of the shared artifact's.
    pub fn is_overlaid(&self) -> bool {
        self.local.is_some()
    }

    /// Address of the op stream this view dispatches from (overlay copy
    /// if present, shared otherwise) — the pointer identity used by
    /// sharing assertions.
    pub fn ops_addr(&self) -> usize {
        match &self.local {
            Some(ops) => ops.as_ptr() as usize,
            None => self.shared.ops_addr(),
        }
    }

    /// Reads the instruction at `slot` (overlay copy if present).
    #[inline]
    pub fn get(&self, slot: usize) -> LInstr {
        match &self.local {
            Some(ops) => ops[slot].get(),
            None => self.shared.get(slot),
        }
    }

    /// The slot's instruction with fusion undone: a fused head reports its
    /// original first instruction (the covered slot always holds its
    /// original second instruction). Consumers that need the strict
    /// one-instruction-per-slot view — the JIT compiler, fuel-metered
    /// execution (exactly one fuel unit per bytecode instruction), and
    /// global-probe dispatch (a probe fires before *every* instruction) —
    /// read through this instead of [`LoweredView::get`].
    #[inline]
    pub fn unfused(&self, slot: usize) -> LInstr {
        unfuse(self.get(slot))
    }

    /// The original single instruction behind a probe-patched `slot`; see
    /// [`Lowered::original`].
    #[inline]
    pub fn original(&self, slot: usize) -> LInstr {
        self.shared.original(slot)
    }

    /// Number of instruction slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// `true` if the body lowered to no instructions.
    pub fn is_empty(&self) -> bool {
        self.shared.is_empty()
    }

    /// Byte pc of the instruction at `slot`; see [`Lowered::pc_of`].
    #[inline]
    pub fn pc_of(&self, slot: usize) -> u32 {
        self.shared.pc_of(slot)
    }

    /// Slot of the instruction at byte `pc`; see [`Lowered::slot_of`].
    #[inline]
    pub fn slot_of(&self, pc: u32) -> Option<u32> {
        self.shared.slot_of(pc)
    }

    /// Resolves a target index of a `br`/`br_if`/`if`/`else` slot.
    #[inline]
    pub fn target(&self, idx: u32) -> LTarget {
        self.shared.target(idx)
    }

    /// Resolves a `br_table` slot's target list.
    #[inline]
    pub fn table(&self, idx: u32) -> &[LTarget] {
        self.shared.table(idx)
    }

    /// Number of fused superinstruction heads currently visible to this
    /// view (diagnostics/tests).
    pub fn fused_count(&self) -> usize {
        (0..self.len()).filter(|&s| is_fused(self.get(s).op)).count()
    }
}

/// The pair-fusion pass: replaces common two-instruction sequences with one
/// fixed-width superinstruction, halving dispatch overhead on the hottest
/// patterns (operand fetch + ALU, induction updates, compare-and-branch
/// loop backedges).
///
/// Fusion never changes the slot count — the covered (second) slot keeps
/// its original instruction and is simply skipped by sequential flow — so
/// the `pc ↔ slot` bijection, branch targets, and probe locations are
/// untouched. A pair is fusable only when the covered slot is not a branch
/// target; probes landing on covered slots unfuse the head of the overlay
/// copy at patch time ([`Lowered::patch_probe`]).
fn fuse(ops: &mut [LInstr], targets: &[LTarget], tables: &[Box<[LTarget]>]) {
    let mut branch_targets: HashSet<u32> = targets.iter().map(|t| t.slot).collect();
    for table in tables {
        branch_targets.extend(table.iter().map(|t| t.slot));
    }
    let is_const =
        |o: u8| matches!(o, op::I32_CONST | op::I64_CONST | op::F32_CONST | op::F64_CONST);
    // The covered slots `s+1 .. s+len-1` must not be branch targets:
    // control may only enter a fused region at its head.
    let coverable =
        |s: usize, len: usize| (s + 1..s + len).all(|c| !branch_targets.contains(&(c as u32)));

    let mut s = 0;
    while s + 1 < ops.len() {
        let a = ops[s];
        let b = ops[s + 1];
        let c = ops.get(s + 2).copied();
        let d = ops.get(s + 3).copied();
        // Longest pattern first; every fusion is strictly non-overlapping
        // (the cursor skips the whole fused region).
        let f: Option<(LInstr, usize)> = match (a.op, b.op, c.map(|i| i.op), d.map(|i| i.op)) {
            // local.get a; local.get b; <cmp>; br_if — the loop backedge.
            (op::LOCAL_GET, op::LOCAL_GET, Some(cc), Some(op::BR_IF))
                if is_cmp(cc) && coverable(s, 4) =>
            {
                let d = d.expect("matched");
                let z = u64::from(a.x) | (u64::from(b.x) << 32);
                Some((LInstr { op: FUSED_GG_CMP_BR, y: cc, x: d.x, z }, 4))
            }
            // local.get a; <const>; <binop>; local.set a — induction update.
            (op::LOCAL_GET, bc, Some(cc), Some(op::LOCAL_SET))
                if is_const(bc)
                    && numeric::is_binop(cc)
                    && d.expect("matched").x == a.x
                    && coverable(s, 4) =>
            {
                Some((LInstr { op: FUSED_UPD, y: cc, x: a.x, z: b.z }, 4))
            }
            // local.get a; local.get b; <binop>.
            (op::LOCAL_GET, op::LOCAL_GET, Some(cc), _)
                if numeric::is_binop(cc) && coverable(s, 3) =>
            {
                Some((LInstr { op: FUSED_GET_GET_BIN, y: cc, x: a.x, z: u64::from(b.x) }, 3))
            }
            (op::LOCAL_GET, op::LOCAL_GET, _, _) if coverable(s, 2) => {
                Some((LInstr { op: FUSED_GET_GET, y: 0, x: a.x, z: u64::from(b.x) }, 2))
            }
            (op::LOCAL_GET, op::LOCAL_SET, _, _) if coverable(s, 2) => {
                Some((LInstr { op: FUSED_GET_SET, y: 0, x: a.x, z: u64::from(b.x) }, 2))
            }
            (op::LOCAL_GET, bb, _, _) if numeric::is_binop(bb) && coverable(s, 2) => {
                Some((LInstr { op: FUSED_GET_BIN, y: bb, x: a.x, z: 0 }, 2))
            }
            (ac, bb, _, _) if is_const(ac) && numeric::is_binop(bb) && coverable(s, 2) => {
                Some((LInstr { op: FUSED_CONST_BIN, y: bb, x: u32::from(ac), z: a.z }, 2))
            }
            (aa, op::BR_IF, _, _) if is_cmp(aa) && coverable(s, 2) => {
                Some((LInstr { op: FUSED_CMP_BR, y: aa, x: b.x, z: 0 }, 2))
            }
            _ => None,
        };
        if let Some((fi, len)) = f {
            debug_assert_eq!(unfuse(fi), a, "a fused encoding keeps its head");
            ops[s] = fi;
            s += len;
        } else {
            s += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::ValType::I32;
    use wizard_wasm::validate::validate;

    fn lowered_for(f: FuncBuilder) -> (Vec<u8>, Lowered) {
        let mut mb = ModuleBuilder::new();
        mb.add_func("f", f);
        let m = mb.build().expect("validates");
        let meta = validate(&m).expect("validates");
        let body = m.funcs[0].body.code.clone();
        let low = Lowered::lower(&body, &meta.funcs[0]);
        (body, low)
    }

    #[test]
    fn lowered_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Lowered>();
    }

    #[test]
    fn slots_map_bijectively_to_instruction_boundaries() {
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0).i32_const(624_485).i32_add();
        let (body, low) = lowered_for(f);
        // local.get 0; i32.const (3-byte LEB); i32.add; end
        assert_eq!(low.len(), 4);
        for slot in 0..low.len() {
            let pc = low.pc_of(slot);
            assert_eq!(low.slot_of(pc), Some(slot as u32));
        }
        // Sentinels: one-past-the-end maps both ways.
        assert_eq!(low.pc_of(low.len()) as usize, body.len());
        assert_eq!(low.slot_of(body.len() as u32), Some(low.len() as u32));
        // Mid-immediate offsets are not boundaries.
        assert_eq!(low.slot_of(low.pc_of(1) + 1), None);
    }

    #[test]
    fn immediates_are_predecoded() {
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0).i32_const(-99_999).i32_add();
        let (_, low) = lowered_for(f);
        let view = LoweredView::shared(low);
        assert_eq!(view.get(0).op, wizard_wasm::opcodes::LOCAL_GET);
        assert_eq!(view.get(0).x, 0);
        // `i32.const; i32.add` fuses; the head keeps the const payload and
        // the covered slot keeps the original add.
        assert_eq!(view.get(1).op, FUSED_CONST_BIN);
        assert_eq!(view.get(1).y, wizard_wasm::opcodes::I32_ADD);
        assert_eq!(Slot(view.get(1).z).i32(), -99_999);
        assert_eq!(view.unfused(1).op, wizard_wasm::opcodes::I32_CONST);
        assert_eq!(view.get(2).op, wizard_wasm::opcodes::I32_ADD);
    }

    #[test]
    fn fusion_pairs_and_probe_unfusing_on_the_overlay() {
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0).local_get(0).i32_add();
        let (_, low) = lowered_for(f);
        // `local.get; local.get; i32.add` fuses into one three-wide
        // superinstruction; the covered slots keep their originals.
        let shared = LoweredView::shared(low.clone());
        assert_eq!(shared.get(0).op, FUSED_GET_GET_BIN);
        assert_eq!(shared.get(0).y, wizard_wasm::opcodes::I32_ADD);
        assert_eq!(shared.fused_count(), 1);
        assert_eq!(shared.unfused(0).op, wizard_wasm::opcodes::LOCAL_GET);
        assert_eq!(shared.get(1).op, wizard_wasm::opcodes::LOCAL_GET);
        assert_eq!(shared.get(2).op, wizard_wasm::opcodes::I32_ADD);
        // A probe on a covered slot patches the *overlay copy* and
        // restores the head there: sequential flow must reach the probed
        // instruction. The shared form stays fused and untouched.
        let ops = low.cow_ops();
        low.patch_probe(&ops, 2);
        let view = LoweredView::overlaid(low.clone(), Rc::clone(&ops));
        assert_eq!(view.get(0).op, wizard_wasm::opcodes::LOCAL_GET);
        assert_eq!(view.get(2).op, wizard_wasm::opcodes::PROBE);
        assert_eq!(view.fused_count(), 0);
        assert_eq!(shared.get(0).op, FUSED_GET_GET_BIN, "shared form untouched");
        assert_eq!(shared.fused_count(), 1);
        assert_ne!(view.ops_addr(), shared.ops_addr());
    }

    #[test]
    fn backedge_and_induction_fuse_four_wide() {
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let i = f.local(I32);
        let acc = f.local(I32);
        f.for_range(i, 0, |f| {
            f.local_get(acc).local_get(i).i32_add().local_set(acc);
        });
        f.local_get(acc);
        let (_, low) = lowered_for(f);
        let ops: Vec<u8> = (0..low.len()).map(|s| low.get(s).op).collect();
        assert!(
            ops.contains(&FUSED_GG_CMP_BR),
            "loop bound check fuses to get;get;cmp;br_if: {ops:02x?}"
        );
        assert!(
            ops.contains(&FUSED_UPD),
            "induction update fuses to get;const;add;set: {ops:02x?}"
        );
    }

    #[test]
    fn branch_targets_resolve_to_slots() {
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let i = f.local(I32);
        f.for_range(i, 0, |f| {
            f.nop();
        });
        f.local_get(i);
        let (_, low) = lowered_for(f);
        let mut saw_branch = false;
        for slot in 0..low.len() {
            let li = low.get(slot);
            if matches!(
                li.op,
                wizard_wasm::opcodes::BR
                    | wizard_wasm::opcodes::BR_IF
                    | wizard_wasm::opcodes::IF
                    | FUSED_CMP_BR
            ) {
                let t = low.target(li.x);
                assert!((t.slot as usize) <= low.len(), "target slot in range");
                saw_branch = true;
            }
        }
        assert!(saw_branch, "loop lowering produced branches");
    }

    #[test]
    fn probe_patch_roundtrip_preserves_immediates() {
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0).i32_const(7).i32_add();
        let (_, low) = lowered_for(f);
        let ops = low.cow_ops();
        // Slot 1 is a fused `const;add` head; patching it installs the
        // probe over the *fused* op while the immediates stay intact, and
        // the probe handler re-dispatches the site's saved original.
        low.patch_probe(&ops, 1);
        let view = LoweredView::overlaid(low.clone(), Rc::clone(&ops));
        assert_eq!(view.get(1).op, wizard_wasm::opcodes::PROBE);
        assert_eq!(Slot(view.get(1).z).i32(), 7, "immediate untouched by patching");
        // Restoring the original leaves a correct, merely-unfused
        // instruction.
        ops[1].set(low.original(1));
        assert_eq!(
            view.get(1),
            LInstr::with_z(wizard_wasm::opcodes::I32_CONST, Slot::from_i32(7).0)
        );
        // The shared form never saw any of it.
        assert_eq!(low.get(1).op, FUSED_CONST_BIN);
    }

    #[test]
    fn empty_lowering_is_consistent() {
        let low = Lowered::empty();
        assert!(low.is_empty());
        assert_eq!(low.pc_of(0), 0);
        assert_eq!(low.slot_of(0), Some(0));
        let view = LoweredView::empty();
        assert!(view.is_empty());
        assert!(!view.is_overlaid());
    }
}
