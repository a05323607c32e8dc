//! The execution core: the unified value stack, frame management, the
//! tier dispatcher, probe firing with the paper's consistency guarantees,
//! and the [`ProbeCtx`] / [`FrameView`] APIs that M-code programs against.

use std::rc::Rc;

use wizard_wasm::module::FuncIdx;
use wizard_wasm::opcodes as op;
use wizard_wasm::validate::Target;

use crate::classic;
use crate::code::FuncViews;
use crate::engine::{Dispatch, ProbeError, Process};
use crate::frame::{Frame, FrameAccessor, Tier};
use crate::interp;
use crate::lowered::{fused_trap_offset, LTarget};
use crate::probe::{Location, Pending, ProbeId, ProbeRef, Site};
use crate::regir::RegFunc;
use crate::store::HostCtx;
use crate::trap::Trap;
use crate::value::{Slot, Value};
use crate::ExecMode;

/// Control signal raised by interpreter handlers.
#[derive(Debug)]
pub(crate) enum Sig {
    /// A trap occurred; unwind.
    Trap(Trap),
    /// The outermost invocation frame returned.
    Done,
    /// The current frame changed tier (or frames changed in a way the
    /// running loop cannot continue from); re-dispatch.
    Switch,
}

impl From<Trap> for Sig {
    fn from(t: Trap) -> Sig {
        Sig::Trap(t)
    }
}

/// Why a tier loop returned to the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exit {
    Done,
    Redispatch,
    /// The metered fuel slice is exhausted. The current frame's `pc` (and
    /// `cip` in the JIT tier) is a valid resume point *before* an
    /// instruction whose probes have not fired yet, so resuming — in either
    /// tier — fires exactly the probes an unbounded run would.
    OutOfFuel,
}

/// Error from a frame modification that the engine configuration forbids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameModError {
    /// Frame state modification requires the interpreter; the engine is in
    /// JIT-only mode (paper §4.6: "Wizard will not allow modifications in
    /// the JIT-only configuration").
    JitOnly,
    /// The value's type does not match the local's declared type.
    TypeMismatch,
    /// The referenced local or operand index is out of range.
    OutOfRange,
    /// The accessor no longer refers to a live frame.
    InvalidFrame,
}

impl core::fmt::Display for FrameModError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameModError::JitOnly => {
                f.write_str("frame modification requires the interpreter tier")
            }
            FrameModError::TypeMismatch => f.write_str("value type does not match slot type"),
            FrameModError::OutOfRange => f.write_str("local or operand index out of range"),
            FrameModError::InvalidFrame => f.write_str("accessor does not refer to a live frame"),
        }
    }
}

impl std::error::Error for FrameModError {}

/// Execution state for one invocation.
pub(crate) struct Exec<'p> {
    pub proc: &'p mut Process,
    /// Unified locals+operand stack.
    pub values: Vec<u64>,
    /// Call stack; `frames.last()` is the current frame (its `pc`/`cip`
    /// are authoritative only at sync points).
    pub frames: Vec<Frame>,
    /// Live cursor of the current frame. In the lowered interpreter this
    /// is a *slot index*; in the classic (byte-walking) interpreter and in
    /// the JIT tier's sync writes it is a byte pc (the JIT tier's trap
    /// exit leaves its op index here: [`Exec::trap_location`]). Frames
    /// always receive byte pcs ([`Exec::sync_pc`] converts), keeping the
    /// paper's byte-offset location space the contract everywhere outside
    /// the lowered hot loop.
    pub pc: usize,
    /// Current function (global index).
    pub func: FuncIdx,
    /// Current local-function index.
    pub lf: usize,
    /// Locals base of the current frame.
    pub base: usize,
    /// Operand base of the current frame.
    pub opbase: usize,
    /// Result arity of the current function.
    pub results: u32,
    /// Current function's execution views — byte view (`views.code`),
    /// lowered view (`views.low`), register form and metadata — as this
    /// process resolved them on the function's first frame. A handle on
    /// the bundle its [`FuncOverlay`](crate::code::FuncOverlay) caches:
    /// [`Exec::load_cur`] switches functions by swapping this one
    /// process-local `Rc`, so a frame switch never clones (never writes
    /// the refcounts of) anything the shared artifact owns.
    pub views: Rc<FuncViews>,
    /// `true` when the engine is configured for classic byte dispatch
    /// ([`Dispatch::Bytecode`]).
    pub classic: bool,
    /// Active lowered dispatch table (normal or global-probe-instrumented).
    pub table: &'static [interp::Handler; 256],
    /// Active classic dispatch table (kept in lockstep with `table`).
    pub ctable: &'static [classic::Handler; 256],
    /// Source of activation ids.
    pub activations: u64,
    /// One-shot suppression of probe firing at a location, used when
    /// deoptimizing at a probe site whose probes already fired in the JIT.
    pub skip_probe: Option<Location>,
    /// `true` when this run is fuel-metered (bounded).
    pub metered: bool,
    /// Remaining fuel units (one unit per bytecode instruction). Only
    /// meaningful when `metered`.
    pub fuel: u64,
}

/// The owned, suspendable portion of an execution: everything a bounded
/// run needs to carry across an [`Exit::OutOfFuel`] suspension. The rest
/// of [`Exec`] is a cache rebuilt from the process and the top frame.
pub(crate) struct ExecState {
    values: Vec<u64>,
    frames: Vec<Frame>,
    activations: u64,
    skip_probe: Option<Location>,
}

impl ExecState {
    /// Where the parked run continues: the innermost frame's next
    /// instruction (frames suspend before an instruction's probes fire).
    pub fn top(&self) -> Option<Location> {
        self.frames.last().map(|f| Location { func: f.func, pc: f.pc as u32 })
    }
}

impl Drop for ExecState {
    /// A suspended run that is discarded rather than resumed — explicit
    /// cancellation, a trap elsewhere, or the process being dropped —
    /// still upholds the FrameAccessor contract: accessors of its parked
    /// frames are invalidated, never left dangling-but-"valid".
    fn drop(&mut self) {
        for f in &mut self.frames {
            f.invalidate_accessor();
        }
    }
}

impl<'p> Exec<'p> {
    /// A fresh execution with empty stacks sized for a typical invocation.
    pub fn new(proc: &'p mut Process) -> Exec<'p> {
        Exec::over(proc, Vec::with_capacity(1024), Vec::with_capacity(64))
    }

    /// An execution over the given stacks, with the dispatch tables derived
    /// from the process and no current frame loaded (the views are the
    /// shared placeholder until [`Exec::load_cur`] runs).
    fn over(proc: &'p mut Process, values: Vec<u64>, frames: Vec<Frame>) -> Exec<'p> {
        let global = proc.global_mode;
        let table = if global { interp::instrumented_table() } else { interp::normal_table() };
        let ctable = if global { classic::instrumented_table() } else { classic::normal_table() };
        let classic = proc.config.dispatch == Dispatch::Bytecode;
        Exec {
            proc,
            values,
            frames,
            pc: 0,
            func: 0,
            lf: 0,
            base: 0,
            opbase: 0,
            results: 0,
            views: FuncViews::placeholder(),
            classic,
            table,
            ctable,
            activations: 0,
            skip_probe: None,
            metered: false,
            fuel: 0,
        }
    }

    /// Rebuilds an execution from a suspended state with a fresh fuel
    /// slice, directly over the parked stacks (nothing is allocated). The
    /// dispatch table is re-derived from the process (global mode may have
    /// changed while suspended) and the cached current-frame fields are
    /// reloaded; stale JIT frames are caught by the version checks on
    /// redispatch.
    pub fn from_state(proc: &'p mut Process, mut state: ExecState, fuel: u64) -> Exec<'p> {
        // Fields are taken (not moved) because ExecState's Drop handles
        // accessor invalidation for *discarded* suspensions; the emptied
        // state dropped here has nothing left to invalidate.
        let values = std::mem::take(&mut state.values);
        let frames = std::mem::take(&mut state.frames);
        let mut ex = Exec::over(proc, values, frames);
        ex.activations = state.activations;
        ex.skip_probe = state.skip_probe.take();
        ex.metered = true;
        ex.fuel = fuel;
        if !ex.frames.is_empty() {
            ex.load_cur();
        }
        ex
    }

    /// Tears the execution down to its suspendable state (at an
    /// [`Exit::OutOfFuel`] sync point), handing the process back so the
    /// caller can park the state in it.
    pub fn into_state(self) -> (ExecState, &'p mut Process) {
        let state = ExecState {
            values: self.values,
            frames: self.frames,
            activations: self.activations,
            skip_probe: self.skip_probe,
        };
        (state, self.proc)
    }

    // ---- value stack ----

    #[inline]
    pub fn push(&mut self, s: Slot) {
        self.values.push(s.0);
    }

    #[inline]
    pub fn pop(&mut self) -> Slot {
        Slot(self.values.pop().expect("validated code cannot underflow"))
    }

    #[inline]
    pub fn peek(&self) -> Slot {
        Slot(*self.values.last().expect("validated code cannot underflow"))
    }

    // ---- frame sync ----

    /// `true` while `self.pc` holds a lowered slot index (the lowered
    /// interpreter is the running tier) rather than a byte pc.
    #[inline]
    fn pc_is_slot(&self) -> bool {
        !self.classic && self.frames.last().is_some_and(|f| f.tier == Tier::Interp)
    }

    /// `true` while `self.pc` holds a register-instruction index (the
    /// register interpreter is the running tier).
    #[inline]
    fn pc_is_reg_idx(&self) -> bool {
        !self.classic && self.frames.last().is_some_and(|f| f.tier == Tier::Reg)
    }

    /// Writes the live pc back into the current frame — converted to a
    /// *byte* pc if the cursor is currently a lowered slot or a register
    /// instruction index — before probes fire or state is otherwise
    /// observed.
    #[inline]
    pub fn sync_pc(&mut self) {
        if self.frames.is_empty() {
            return;
        }
        let pc = if self.pc_is_slot() {
            self.views.low.pc_of(self.pc) as usize
        } else if self.pc_is_reg_idx() {
            self.reg().pc_of(self.pc) as usize
        } else {
            self.pc
        };
        self.frames.last_mut().expect("non-empty").pc = pc;
    }

    /// The current function's register form.
    ///
    /// # Panics
    ///
    /// Panics if the function has none — register-tier frames only exist
    /// for functions the allocator lowered.
    #[inline(always)]
    pub(crate) fn reg(&self) -> &RegFunc {
        self.views.reg.as_deref().expect("register frames have register code")
    }

    /// Refreshes the cached current-frame fields from `frames.last()`:
    /// switches [`Exec::views`] to the frame's function (resolving them on
    /// the function's first frame in this process — which, under lowered
    /// dispatch, is also what lowers it on first touch) and converts the
    /// parked byte pc back to the running tier's cursor.
    pub fn load_cur(&mut self) {
        let (pc, mut tier) = {
            let f = self.frames.last().expect("at least one frame");
            self.func = f.func;
            self.lf = f.lf;
            self.base = f.base;
            self.opbase = f.opbase;
            self.results = f.results;
            (f.pc, f.tier)
        };
        self.views = self.proc.views_for(self.lf);
        if self.classic {
            self.pc = pc;
            return;
        }
        if tier == Tier::Reg && (self.proc.global_mode || self.views.code.is_overlaid()) {
            // The function can no longer run in register form: global
            // probes need the instrumented stack dispatch table, and probe
            // overlays exist only in the stack representations. Demote the
            // frame — register frames park at byte pcs with every deferred
            // operand flushed to its canonical stack position, so the
            // stack interpreter resumes them exactly.
            self.frames.last_mut().expect("at least one frame").tier = Tier::Interp;
            self.proc.stats.reg_demotions += 1;
            tier = Tier::Interp;
        }
        self.pc = match tier {
            Tier::Reg => self.reg().idx_of(pc),
            Tier::Interp => {
                self.views.low.slot_of(pc as u32).expect("frame pc is an instruction boundary")
                    as usize
            }
            Tier::Jit => pc,
        };
    }

    /// Grows the value stack to the current register frame's full window
    /// (`opbase + num_temps`), so every temp register is addressable.
    /// Slots beyond the live operand height are dead until written; the
    /// register tiers truncate back to exact heights at every park point
    /// (calls, returns), which is what keeps parked frames observable at
    /// their canonical stack shape.
    #[inline]
    pub(crate) fn reg_extend(&mut self) {
        let need = self.opbase + self.reg().num_temps() as usize;
        if self.values.len() < need {
            self.values.resize(need, 0);
        }
    }

    // ---- branching ----

    /// The branch value shuffle shared by all tiers: truncate the operand
    /// stack to the label height, carrying the top `keep` values.
    #[inline]
    pub fn branch_values(&mut self, keep: u32, height: u32) {
        let keep = keep as usize;
        let dest = self.opbase + height as usize;
        let src = self.values.len() - keep;
        if src != dest {
            for k in 0..keep {
                self.values[dest + k] = self.values[src + k];
            }
            self.values.truncate(dest + keep);
        }
    }

    /// Executes a side-table branch (classic byte dispatch).
    #[inline]
    pub fn do_branch(&mut self, t: Target) {
        self.branch_values(t.arity, t.height);
        self.pc = t.target_pc as usize;
    }

    /// Executes a pre-resolved lowered branch (slot destination).
    #[inline]
    pub fn do_branch_lowered(&mut self, t: LTarget) {
        self.branch_values(t.keep, t.height);
        self.pc = t.slot as usize;
    }

    // ---- calls and returns ----

    /// `true` when a new activation of `lf` may run in the register tier:
    /// the function is uninstrumented (no probe overlay) and the allocator
    /// lowered it.
    fn reg_eligible(&mut self, lf: usize) -> bool {
        !self.proc.code[lf].has_overlay() && self.proc.reg_func_for(lf).is_some()
    }

    /// Decides which tier a new activation of `lf` should start in, compiling
    /// if warranted. Never returns `Jit` in global-probe mode (paper §4.1).
    ///
    /// Under [`Dispatch::Register`] an uninstrumented, unmetered activation
    /// of a function the allocator lowered runs in the register
    /// interpreter (unless the mode is JIT-only) and stays there: nothing
    /// compiled is faster, so it neither counts hotness nor tiers up.
    /// Every other activation — metered ones included, since the register
    /// loop charges no fuel — follows the [`Dispatch::Lowered`] policy.
    fn tier_for_call(&mut self, lf: usize) -> Tier {
        if self.proc.global_mode {
            return Tier::Interp;
        }
        if self.proc.config.dispatch == Dispatch::Register
            && self.proc.config.mode != ExecMode::JitOnly
            && !self.metered
            && self.reg_eligible(lf)
        {
            return Tier::Reg;
        }
        match self.proc.config.mode {
            ExecMode::InterpOnly => Tier::Interp,
            ExecMode::JitOnly => {
                self.proc.ensure_compiled(lf);
                Tier::Jit
            }
            ExecMode::Tiered => {
                let fc = &self.proc.code[lf];
                if fc.compiled.borrow().is_some() {
                    return Tier::Jit;
                }
                let h = fc.hotness.get() + 1;
                fc.hotness.set(h);
                if h >= self.proc.config.tierup_threshold {
                    self.proc.ensure_compiled(lf);
                    self.proc.stats.tier_ups += 1;
                    Tier::Jit
                } else {
                    Tier::Interp
                }
            }
        }
    }

    /// Calls function `callee` (host or Wasm). Arguments must already be on
    /// the operand stack. On Wasm calls, pushes a frame and loads it as the
    /// current frame. `my_tier` is the tier of the running loop; returns
    /// `Err(Sig::Switch)` when the new frame runs in a different tier.
    pub fn do_call(&mut self, callee: FuncIdx, my_tier: Tier) -> Result<(), Sig> {
        let n_imp = self.proc.module.num_imported_funcs();
        if callee < n_imp {
            return self.do_host_call(callee);
        }
        let lf = (callee - n_imp) as usize;
        if self.frames.len() >= self.proc.config.max_call_depth {
            return Err(Trap::StackOverflow.into());
        }
        let tier = self.tier_for_call(lf);
        let (num_params, num_slots, results, max_height, code_version) = {
            let fc = &self.proc.code[lf];
            let code_version = if tier == Tier::Jit {
                fc.compiled.borrow().as_ref().map_or(0, |c| c.version())
            } else {
                0
            };
            (
                fc.num_params() as usize,
                fc.num_slots() as usize,
                fc.num_results(),
                fc.meta().max_height as usize,
                code_version,
            )
        };
        if self.values.len() + (num_slots - num_params) + max_height
            > self.proc.config.max_value_stack
        {
            return Err(Trap::ValueStackOverflow.into());
        }
        let base = self.values.len() - num_params;
        // Zero the declared (non-param) locals.
        self.values.resize(base + num_slots, 0);
        self.activations += 1;
        self.frames.push(Frame {
            func: callee,
            lf,
            base,
            opbase: base + num_slots,
            results,
            pc: 0,
            cip: 0,
            tier,
            code_version,
            activation: self.activations,
            accessor: None,
            deopt_requested: false,
        });
        self.load_cur();
        if tier == my_tier {
            Ok(())
        } else {
            Err(Sig::Switch)
        }
    }

    /// Calls an imported host function inline (no Wasm frame is pushed).
    fn do_host_call(&mut self, callee: FuncIdx) -> Result<(), Sig> {
        /// Argument lists up to this long are marshalled on the stack.
        const INLINE_ARGS: usize = 8;
        // The signature is borrowed from the artifact's table, disjoint
        // from the memory and value stack the call mutates.
        let ty = &self.proc.func_types[callee as usize];
        let n = ty.params.len();
        let split = self.values.len() - n;
        let mut inline = [Value::I32(0); INLINE_ARGS];
        let mut spilled = Vec::new();
        let args: &mut [Value] = if n <= INLINE_ARGS {
            &mut inline[..n]
        } else {
            spilled.resize(n, Value::I32(0));
            &mut spilled
        };
        for ((arg, raw), t) in args.iter_mut().zip(&self.values[split..]).zip(&ty.params) {
            *arg = Value::from_slot(Slot(*raw), *t);
        }
        self.values.truncate(split);
        let f = Rc::clone(&self.proc.host[callee as usize]);
        let mut ctx = HostCtx { memory: self.proc.memory.as_mut() };
        let rets = f(&mut ctx, args).map_err(Sig::Trap)?;
        if rets.len() != ty.results.len() {
            return Err(Sig::Trap(Trap::Host(format!(
                "host function returned {} values, expected {}",
                rets.len(),
                ty.results.len()
            ))));
        }
        for (v, t) in rets.iter().zip(&ty.results) {
            if v.ty() != *t {
                return Err(Sig::Trap(Trap::Host("host function result type mismatch".into())));
            }
            self.values.push(v.to_slot().0);
        }
        Ok(())
    }

    /// Returns from the current frame: moves results down, pops the frame,
    /// invalidates its accessor, and resumes the caller. Returns
    /// `Err(Sig::Done)` when the entry frame returns and `Err(Sig::Switch)`
    /// when the resumed frame runs in a different tier than `my_tier`.
    pub fn do_return(&mut self, my_tier: Tier) -> Result<(), Sig> {
        let mut frame = self.frames.pop().expect("return with no frame");
        frame.invalidate_accessor();
        let nres = frame.results as usize;
        let src = self.values.len() - nres;
        let dst = frame.base;
        for k in 0..nres {
            self.values[dst + k] = self.values[src + k];
        }
        self.values.truncate(dst + nres);
        if self.frames.is_empty() {
            return Err(Sig::Done);
        }
        // Stale-frame check: if the caller was running JIT code that has
        // since been invalidated (probe insertion/removal), or the engine
        // entered global-probe mode, deoptimize it to the interpreter.
        {
            let caller = self.frames.last_mut().expect("non-empty");
            if caller.tier == Tier::Jit {
                let fc = &self.proc.code[caller.lf];
                let stale = fc
                    .compiled
                    .borrow()
                    .as_ref()
                    .is_none_or(|c| c.version() != caller.code_version);
                if stale || self.proc.global_mode || caller.deopt_requested {
                    caller.tier = Tier::Interp;
                    caller.deopt_requested = false;
                    self.proc.stats.deopts += 1;
                }
            }
        }
        self.load_cur();
        if self.frames.last().expect("non-empty").tier == my_tier {
            Ok(())
        } else {
            Err(Sig::Switch)
        }
    }

    /// Resolves and calls through the funcref table (`call_indirect`).
    pub fn do_call_indirect(&mut self, type_idx: u32, my_tier: Tier) -> Result<(), Sig> {
        let index = self.pop().u32();
        let callee = self.resolve_indirect(index, type_idx)?;
        self.do_call(callee, my_tier)
    }

    /// Resolves funcref table slot `index` to a callee and checks its
    /// signature against the expected type — by canonical type index, so
    /// the structural comparison was paid once, when the artifact was
    /// built.
    #[inline]
    pub(crate) fn resolve_indirect(&self, index: u32, type_idx: u32) -> Result<FuncIdx, Trap> {
        let callee = self.proc.table.get(index)?;
        if self.proc.artifact.canon_of_type(type_idx) != self.proc.artifact.canon_of_func(callee) {
            return Err(Trap::IndirectCallTypeMismatch);
        }
        Ok(callee)
    }

    // ---- probes ----

    /// Fires the probes of the current function's site at lowered slot
    /// `slot` (byte offset `pc`) in insertion order, then applies the
    /// instrumentation requests they queued.
    pub fn fire_site(&mut self, slot: u32, pc: u32) {
        let fc = Rc::clone(&self.proc.code[self.lf]);
        let Some(sites) = fc.sites() else {
            return;
        };
        self.sync_pc();
        let loc = Location { func: self.func, pc };
        // Requests are only queued while an event fires, so the borrowed
        // list is the event's snapshot (§2.4.1).
        self.proc.probes.firing += 1;
        for (_, probe) in &sites[slot as usize].probes {
            self.proc.stats.probe_fires += 1;
            probe.borrow_mut().fire(&mut ProbeCtx { ex: self, loc });
        }
        drop(sites);
        self.end_event();
    }

    /// Fires all global probes for the instruction at the current cursor.
    pub fn fire_global_probes(&mut self) {
        let counts = &self.proc.probes.global_counts;
        if !counts.is_empty() {
            // All `Count`: the interpreter-side twin of §4.4's
            // intrinsification — bump the cells, call nothing.
            for cell in counts {
                cell.set(cell.get() + 1);
            }
            self.proc.stats.probe_fires += counts.len() as u64;
            self.proc.stats.global_fires += counts.len() as u64;
            return;
        }
        let list = self.proc.probes.globals();
        if list.is_empty() {
            return;
        }
        self.sync_pc();
        let pc = self.frames.last().expect("a frame is executing").pc as u32;
        let loc = Location { func: self.func, pc };
        self.proc.probes.firing += 1;
        for (_, probe) in list.iter() {
            self.proc.stats.probe_fires += 1;
            self.proc.stats.global_fires += 1;
            probe.borrow_mut().fire(&mut ProbeCtx { ex: self, loc });
        }
        self.end_event();
    }

    /// Ends an event's dispatch: applies the instrumentation changes its
    /// probes queued, if any.
    fn end_event(&mut self) {
        self.proc.probes.firing -= 1;
        if self.proc.probes.firing != 0 || self.proc.probes.pending.is_empty() {
            return;
        }
        for p in std::mem::take(&mut self.proc.probes.pending) {
            self.proc.apply_instrumentation(p);
        }
        // The dispatch tables may have changed (global-probe mode).
        let global = self.proc.global_mode;
        self.table = if global { interp::instrumented_table() } else { interp::normal_table() };
        self.ctable = if global { classic::instrumented_table() } else { classic::normal_table() };
        // Instrumenting the current function may have copy-on-wrote (or
        // rejoined) its code: `self.views` would keep reading the stale
        // stream (the overlay dropped its cached bundle; ours is the old
        // one). Reload from the frame — the pc was synced before the
        // probes fired, so this is view-identity for the cursor and only
        // swaps the op/byte sources.
        if !self.frames.is_empty() {
            self.load_cur();
        }
    }

    /// After a tier loop returned a trap: the trapping instruction. Every
    /// tier leaves its cursor on it — a call that traps backs the cursor up
    /// again, the micro-op tier writes its op index on the trap exit — so
    /// only the cursor's unit differs. `None` if no frame was entered.
    pub fn trap_location(&self) -> Option<Location> {
        let frame = self.frames.last()?;
        let pc = match frame.tier {
            Tier::Interp if self.classic => self.pc as u32,
            Tier::Interp => {
                // A fused head dispatched as one: its binop is what trapped.
                let fused = !self.metered && !self.proc.global_mode;
                let op = self.views.low.get(self.pc).op;
                self.views.low.pc_of(self.pc + if fused { fused_trap_offset(op) } else { 0 })
            }
            Tier::Reg => self.reg().pc_of(self.pc),
            Tier::Jit => {
                let compiled = self.proc.code[frame.lf].compiled.borrow();
                let at = compiled.as_ref().and_then(|c| c.code.ip_to_pc.get(self.pc).copied());
                // A frame that traps is running the function's current
                // code (stale code is left at the next checkpoint, before
                // anything can trap in it); its last checkpoint otherwise.
                debug_assert!(at.is_some(), "trapped in code that is not the function's");
                at.unwrap_or(frame.pc as u32)
            }
        };
        Some(Location { func: frame.func, pc })
    }

    /// Unwinds all frames of this invocation after a trap, invalidating
    /// their accessors (paper §2.3, mechanism 3).
    pub fn unwind(&mut self) {
        while let Some(mut f) = self.frames.pop() {
            f.invalidate_accessor();
        }
        self.values.clear();
    }

    // ---- accessors ----

    /// Materializes (or retrieves) the accessor for frame `index`.
    pub fn accessor_for(&mut self, index: usize) -> FrameAccessor {
        if let Some(acc) = &self.frames[index].accessor {
            return acc.clone();
        }
        let f = &self.frames[index];
        let acc = FrameAccessor::new(f.activation, f.func, index as u32 + 1, index);
        self.frames[index].accessor = Some(acc.clone());
        acc
    }

    /// Resolves an accessor back to a live frame index, enforcing validity
    /// (paper mechanism 5: the frame must still point at this activation).
    pub fn resolve_accessor(&self, acc: &FrameAccessor) -> Option<usize> {
        if !acc.is_valid() {
            return None;
        }
        let idx = acc.inner.frame_index.get();
        let f = self.frames.get(idx)?;
        if f.activation != acc.inner.activation {
            acc.inner.valid.set(false);
            return None;
        }
        Some(idx)
    }

    /// End of frame `index`'s operand segment in the value stack.
    fn operand_end(&self, index: usize) -> usize {
        if index + 1 == self.frames.len() {
            self.values.len()
        } else {
            self.frames[index + 1].base
        }
    }
}

/// The context passed to a firing probe: the program location, frame
/// access, read-only views of memory and globals, and dynamic probe
/// insertion/removal (deferred per the consistency guarantees).
pub struct ProbeCtx<'a, 'p> {
    pub(crate) ex: &'a mut Exec<'p>,
    pub(crate) loc: Location,
}

impl<'a, 'p> ProbeCtx<'a, 'p> {
    /// The location whose event is firing.
    pub fn location(&self) -> Location {
        self.loc
    }

    /// The opcode about to execute at the probed location (the original
    /// opcode, not the overwritten probe byte).
    pub fn opcode(&self) -> u8 {
        if self.loc.func == self.ex.func {
            self.ex.proc.code[self.ex.lf].orig_opcode(self.loc.pc)
        } else {
            op::NOP
        }
    }

    /// Call-stack depth (number of live Wasm frames).
    pub fn depth(&self) -> u32 {
        self.ex.frames.len() as u32
    }

    /// Materializes the FrameAccessor of the current (topmost) frame.
    ///
    /// The accessor is cached in the frame's accessor slot, so repeated
    /// requests return the *same* identity (paper §2.3).
    pub fn accessor(&mut self) -> FrameAccessor {
        let idx = self.ex.frames.len() - 1;
        self.ex.accessor_for(idx)
    }

    /// A view of the current frame.
    pub fn frame(&mut self) -> FrameView<'_, 'p> {
        let idx = self.ex.frames.len() - 1;
        FrameView { ex: self.ex, index: idx }
    }

    /// Resolves a stored accessor to a live frame view, if still valid.
    pub fn view(&mut self, acc: &FrameAccessor) -> Option<FrameView<'_, 'p>> {
        let idx = self.ex.resolve_accessor(acc)?;
        Some(FrameView { ex: self.ex, index: idx })
    }

    /// Top-of-stack operand of the current frame (convenience used by
    /// branch-style monitors).
    pub fn top_of_stack(&self) -> Option<Slot> {
        let end = self.ex.values.len();
        if end > self.ex.opbase {
            Some(Slot(self.ex.values[end - 1]))
        } else {
            None
        }
    }

    /// Read-only view of linear memory.
    pub fn memory(&self) -> Option<&[u8]> {
        self.ex.proc.memory.as_ref().map(|m| m.data())
    }

    /// Reads a global variable.
    pub fn global(&self, idx: u32) -> Option<Value> {
        let ty = self.ex.proc.global_types.get(idx as usize)?;
        let raw = self.ex.proc.globals.get(idx as usize)?;
        Some(Value::from_slot(Slot(*raw), ty.value))
    }

    /// Resolves a funcref table slot to a function index (used by monitors
    /// that profile `call_indirect` targets).
    pub fn resolve_table(&self, index: u32) -> Option<FuncIdx> {
        self.ex.proc.table.get(index).ok()
    }

    /// The module under execution.
    pub fn module(&self) -> &wizard_wasm::Module {
        &self.ex.proc.module
    }

    /// Inserts a local probe at `(func, pc)`. Takes effect when the current
    /// event's dispatch completes; if inserted on the *same* event that is
    /// firing, it does not fire until the next occurrence (paper §2.4.1).
    ///
    /// # Errors
    ///
    /// As [`Process::add_local_probe`]: the location is validated now, so a
    /// bad one is the caller's error, never a deferred panic.
    pub fn insert_local_probe(
        &mut self,
        func: FuncIdx,
        pc: u32,
        probe: ProbeRef,
    ) -> Result<ProbeId, ProbeError> {
        let slot = self.ex.proc.check_location(func, pc)?;
        let id = self.ex.proc.probes.fresh_id(Site::Local { func, slot });
        self.ex.proc.probes.pending.push(Pending::Insert(id, probe));
        Ok(id)
    }

    /// Inserts a global probe (deferred like local insertion).
    ///
    /// # Errors
    ///
    /// As [`Process::add_global_probe`].
    pub fn insert_global_probe(&mut self, probe: ProbeRef) -> Result<ProbeId, ProbeError> {
        self.ex.proc.check_global_allowed()?;
        let id = self.ex.proc.probes.fresh_id(Site::Global);
        self.ex.proc.probes.pending.push(Pending::Insert(id, probe));
        Ok(id)
    }

    /// Removes a probe. If removed on the same event that is firing, the
    /// removed probe still fires on this occurrence but not on subsequent
    /// ones (paper §2.4.1).
    pub fn remove_probe(&mut self, id: ProbeId) {
        self.ex.proc.probes.pending.push(Pending::Remove(id));
    }
}

impl core::fmt::Debug for ProbeCtx<'_, '_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ProbeCtx").field("loc", &self.loc).finish()
    }
}

/// A borrow-scoped view of one live frame: read locals and operands, walk
/// to the caller, and (consistently) modify frame state.
pub struct FrameView<'a, 'p> {
    ex: &'a mut Exec<'p>,
    index: usize,
}

impl<'a, 'p> FrameView<'a, 'p> {
    /// The function this frame executes.
    pub fn func(&self) -> FuncIdx {
        self.ex.frames[self.index].func
    }

    /// The frame's current bytecode pc (synced before probes fire).
    pub fn pc(&self) -> u32 {
        self.ex.frames[self.index].pc as u32
    }

    /// Call depth of this frame (1 = bottom of the invocation).
    pub fn depth(&self) -> u32 {
        self.index as u32 + 1
    }

    /// The tier this frame currently executes in.
    pub fn tier(&self) -> Tier {
        self.ex.frames[self.index].tier
    }

    /// Number of locals (params + declared).
    pub fn num_locals(&self) -> u32 {
        let lf = self.ex.frames[self.index].lf;
        self.ex.proc.code[lf].num_slots()
    }

    /// Reads local `i` as a typed value.
    pub fn local(&self, i: u32) -> Option<Value> {
        let f = &self.ex.frames[self.index];
        let lf = f.lf;
        let ty = *self.ex.proc.code[lf].local_types().get(i as usize)?;
        let raw = self.ex.values[f.base + i as usize];
        Some(Value::from_slot(Slot(raw), ty))
    }

    /// Writes local `i` — a *frame modification* with the paper's
    /// consistency guarantee: the change is applied immediately, and if the
    /// frame is executing JIT code it is deoptimized to the interpreter
    /// before execution resumes (§4.6, strategy 4).
    ///
    /// # Errors
    ///
    /// Fails in JIT-only mode, on type mismatch, or if `i` is out of range.
    pub fn set_local(&mut self, i: u32, v: Value) -> Result<(), FrameModError> {
        if self.ex.proc.config.mode == ExecMode::JitOnly {
            return Err(FrameModError::JitOnly);
        }
        let f = &self.ex.frames[self.index];
        let lf = f.lf;
        let base = f.base;
        let ty = *self.ex.proc.code[lf]
            .local_types()
            .get(i as usize)
            .ok_or(FrameModError::OutOfRange)?;
        if v.ty() != ty {
            return Err(FrameModError::TypeMismatch);
        }
        self.ex.values[base + i as usize] = v.to_slot().0;
        self.mark_modified();
        Ok(())
    }

    /// Number of operand-stack slots currently live in this frame.
    pub fn operand_count(&self) -> usize {
        let end = self.ex.operand_end(self.index);
        end - self.ex.frames[self.index].opbase
    }

    /// Reads operand `i` counting from the top (0 = top of stack).
    ///
    /// Operands are untyped slots: the engine does not track operand types
    /// at runtime; the observing monitor knows the type from context.
    pub fn operand(&self, i: usize) -> Option<Slot> {
        let end = self.ex.operand_end(self.index);
        let opbase = self.ex.frames[self.index].opbase;
        if i < end - opbase {
            Some(Slot(self.ex.values[end - 1 - i]))
        } else {
            None
        }
    }

    /// Writes operand `i` from the top — a frame modification (see
    /// [`FrameView::set_local`]).
    ///
    /// # Errors
    ///
    /// Fails in JIT-only mode or if `i` is out of range.
    pub fn set_operand(&mut self, i: usize, v: Slot) -> Result<(), FrameModError> {
        if self.ex.proc.config.mode == ExecMode::JitOnly {
            return Err(FrameModError::JitOnly);
        }
        let end = self.ex.operand_end(self.index);
        let opbase = self.ex.frames[self.index].opbase;
        if i >= end - opbase {
            return Err(FrameModError::OutOfRange);
        }
        self.ex.values[end - 1 - i] = v.0;
        self.mark_modified();
        Ok(())
    }

    /// Materializes the accessor for this frame.
    pub fn accessor(&mut self) -> FrameAccessor {
        self.ex.accessor_for(self.index)
    }

    /// Walks to the caller frame, materializing its accessor — the paper's
    /// stackwalking support for context-sensitive analyses.
    pub fn caller(&mut self) -> Option<FrameAccessor> {
        if self.index == 0 {
            return None;
        }
        Some(self.ex.accessor_for(self.index - 1))
    }

    fn mark_modified(&mut self) {
        let f = &mut self.ex.frames[self.index];
        if f.tier == Tier::Jit {
            f.deopt_requested = true;
            self.ex.proc.stats.deopts += 1;
        }
    }
}

impl core::fmt::Debug for FrameView<'_, '_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FrameView")
            .field("func", &self.func())
            .field("pc", &self.pc())
            .field("depth", &self.depth())
            .finish()
    }
}
