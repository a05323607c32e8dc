//! The execution core: the unified value stack, frame management, the
//! tier dispatcher, probe firing with the paper's consistency guarantees,
//! and the [`ProbeCtx`] / [`FrameView`] APIs that M-code programs against.
//!
//! Two tiers share this state: the byte interpreter (`classic.rs`) and
//! the register form (`regint.rs`). Frames move between them at byte
//! pcs: `Exec::load_cur` demotes a register frame its function can no
//! longer run in register form, the byte interpreter promotes at run
//! leaders, and `Exec::end_event` settles a register frame an event
//! changed under it — demotion, and the global counts its run was
//! charged to.

use std::cell::Cell;
use std::rc::Rc;

use wizard_wasm::module::FuncIdx;
use wizard_wasm::opcodes as op;
use wizard_wasm::validate::Target;

use crate::classic;
use crate::code::FuncViews;
use crate::engine::{Dispatch, ProbeError, Process};
use crate::frame::{Frame, FrameAccessor, Tier};
use crate::probe::{Location, Pending, ProbeId, ProbeRef, Site};
use crate::regir::{self, RegFunc};
use crate::store::HostCtx;
use crate::trap::Trap;
use crate::value::{Slot, Value};

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
    /// The metered fuel slice is exhausted. The current frame's `pc` is a
    /// valid resume point *before* an instruction whose probes have not
    /// fired yet, so resuming fires exactly the probes an unbounded run
    /// would.
    OutOfFuel,
}

/// Error from a frame modification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameModError {
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
    /// Call stack; `frames.last()` is the current frame (its `pc` is
    /// authoritative only at sync points).
    pub frames: Vec<Frame>,
    /// Live cursor of the current frame: a register-instruction index in
    /// the register form, a byte pc in the byte interpreter. Frames always
    /// receive byte pcs ([`Exec::sync_pc`] converts), keeping the paper's
    /// byte-offset location space the contract everywhere outside the
    /// hot loops.
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
    /// register form and metadata — as this process resolved them on the
    /// function's first frame. A handle on
    /// the bundle its [`FuncOverlay`](crate::code::FuncOverlay) caches:
    /// [`Exec::load_cur`] switches functions by swapping this one
    /// process-local `Rc`, so a frame switch never clones (never writes
    /// the refcounts of) anything the shared artifact owns.
    pub views: Rc<FuncViews>,
    /// `true` when the engine is configured for classic byte dispatch
    /// ([`Dispatch::Bytecode`]).
    pub classic: bool,
    /// Active byte-interpreter dispatch table: the normal one, or the
    /// all-stub one while any global probe is installed.
    pub ctable: &'static [classic::Handler; 256],
    /// Source of activation ids.
    pub activations: u64,
    /// One-shot suppression of an instruction's event — local probes,
    /// global probes and global counts — used when a register frame
    /// demotes at a probe site whose event already fired there.
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
        let ctable = table_for(proc);
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
    /// reloaded; parked register frames pick up their function's current
    /// register form as they are reached.
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

    /// Writes the live pc back into the current frame — converted to a
    /// *byte* pc if the cursor is a register-instruction index — before
    /// probes fire or state is otherwise observed.
    #[inline]
    pub fn sync_pc(&mut self) {
        let Some(tier) = self.frames.last().map(|f| f.tier) else { return };
        let pc = if tier == Tier::Reg { self.reg().pc_of(self.pc) as usize } else { self.pc };
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
    /// the function's first frame in this process) and converts the parked
    /// byte pc back to the running tier's cursor.
    ///
    /// Unless the engine dispatches bytes or a generic global probe is
    /// installed, this is also where the function's register form is
    /// built — or re-lowered, if a probe arrived since — so that a register
    /// frame resumes in its function's *current* form (it parked at a call
    /// or return, where `idx_of` maps every form alike) and a
    /// byte-interpreter frame can promote at its next run leader. If the
    /// function cannot run in register form now, a register frame demotes:
    /// register frames park with every deferred operand flushed to its
    /// canonical stack position, so the byte interpreter resumes them
    /// exactly.
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
        let compiled = !self.classic && !self.proc.global_mode && self.proc.has_reg_code(self.lf);
        if tier == Tier::Reg && !compiled {
            self.frames.last_mut().expect("at least one frame").tier = Tier::Interp;
            self.proc.stats.deopts += 1;
            tier = Tier::Interp;
        }
        self.views = self.proc.views_for(self.lf);
        if compiled && self.views.reg.is_none() {
            // The views were resolved (by a byte-interpreter activation)
            // before the register form was built.
            self.views = self.proc.resolve_views(self.lf);
        }
        self.pc = match tier {
            Tier::Reg => self.reg().idx_of(pc),
            Tier::Interp => pc,
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

    // ---- calls and returns ----

    /// Decides which tier a new activation of `lf` starts in: the register
    /// form whenever the function has one — instrumented or not, metered
    /// or not, globally counted or not — except under
    /// [`Dispatch::Bytecode`] and while a generic global probe is
    /// installed (paper §4.1), which run the byte interpreter.
    fn tier_for_call(&mut self, lf: usize) -> Tier {
        if self.classic || self.proc.global_mode || !self.proc.has_reg_code(lf) {
            Tier::Interp
        } else {
            Tier::Reg
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
        let (num_params, num_slots, results, max_height) = {
            let fc = &self.proc.code[lf];
            (
                fc.num_params() as usize,
                fc.num_slots() as usize,
                fc.num_results(),
                fc.meta().max_height as usize,
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
            tier,
            activation: self.activations,
            accessor: None,
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

    /// Fires the probes of the current function's site for the
    /// instruction with ordinal `slot` (byte offset `pc`) in insertion
    /// order, then applies the instrumentation requests they queued.
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
        if self.counting() {
            // All `Count`: the byte-interpreter twin of the register form's
            // per-run charge — bump the cells, call nothing.
            self.add_global_counts(1);
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

    /// `true` while every global probe is a `Count` probe the engine bumps
    /// itself (and at least one is installed).
    #[inline]
    pub(crate) fn counting(&self) -> bool {
        !self.proc.probes.global_counts.is_empty()
    }

    /// Adds `n` instructions to the cell of every global `Count` probe —
    /// negative `n` takes back instructions that never executed.
    #[inline]
    pub(crate) fn add_global_counts(&self, n: i64) {
        add_counts(&self.proc.probes.global_counts, n);
    }

    /// Ends an event's dispatch: applies the instrumentation changes its
    /// probes queued, if any.
    fn end_event(&mut self) {
        self.proc.probes.firing -= 1;
        if self.proc.probes.firing != 0 || self.proc.probes.pending.is_empty() {
            return;
        }
        // A register frame fires at its `R_SITE`, mid-run: the global
        // counts it runs under were charged the whole run at its leader.
        let counted = self
            .frames
            .last()
            .is_some_and(|f| f.tier == Tier::Reg)
            .then(|| self.proc.probes.global_counts.clone());
        for p in std::mem::take(&mut self.proc.probes.pending) {
            self.proc.apply_instrumentation(p);
        }
        // The dispatch table may have changed (global probes).
        self.ctable = table_for(self.proc);
        if let Some(counted) = counted {
            self.settle_register_frame(&counted);
        }
        // Instrumenting the current function may have copy-on-wrote (or
        // rejoined) its code: `self.views` would keep reading the stale
        // stream (the overlay dropped its cached bundle; ours is the old
        // one). Reload from the frame — the pc was synced before the
        // probes fired, so this is view-identity for the cursor and only
        // swaps the byte and register sources.
        self.load_cur();
    }

    /// After an event a register frame fired at a site mid-run, its run
    /// charged at the leader to the global counts `counted`. If generic
    /// global probes arrived, or the change replaced the frame's register
    /// form (re-lowered with a new site, or rejoined the shared form), the
    /// frame demotes at the site's pc (§4.6), where the byte interpreter
    /// must not raise the event again. The rest of the run after the site
    /// is taken back from `counted` and, if the frame stays, charged to the
    /// counts now installed: a count inserted mid-run is credited, one
    /// removed debited. A demoted metered frame is refunded the run's fuel
    /// from the site on, which the byte interpreter charges again.
    fn settle_register_frame(&mut self, counted: &[Rc<Cell<u64>>]) {
        let global = self.proc.global_mode;
        let current = self.proc.code[self.lf].cached_views();
        let demote = global || !current.is_some_and(|v| Rc::ptr_eq(&v, &self.views));
        let counts = &self.proc.probes.global_counts;
        let recount = counted.len() != counts.len()
            || counted.iter().zip(counts).any(|(a, b)| !Rc::ptr_eq(a, b));
        if !demote && !recount {
            return;
        }
        let top = self.frames.last_mut().expect("a register frame fired");
        let pc = top.pc as u32;
        let (rest, ret) = regir::run_rest(self.proc.code[self.lf].artifact(), pc);
        let after = i64::from(rest - 1);
        add_counts(counted, -after);
        if demote {
            top.tier = Tier::Interp;
            if self.metered {
                self.fuel += u64::from(rest + u32::from(ret));
            }
            self.skip_probe = Some(Location { func: self.func, pc });
            self.proc.stats.deopts += 1;
        } else {
            self.add_global_counts(after);
        }
    }

    /// After a tier loop returned a trap: the trapping instruction. Every
    /// tier leaves its cursor on it — a call that traps backs the cursor up
    /// again — so only the cursor's unit differs. `None` if no frame was
    /// entered.
    pub fn trap_location(&self) -> Option<Location> {
        let frame = self.frames.last()?;
        let pc = match frame.tier {
            Tier::Interp => self.pc as u32,
            Tier::Reg => self.reg().pc_of(self.pc),
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

/// Adds `n` instructions to every cell (negative `n` takes them back).
fn add_counts(cells: &[Rc<Cell<u64>>], n: i64) {
    for cell in cells {
        cell.set(cell.get().wrapping_add_signed(n));
    }
}

/// The byte-interpreter dispatch table `proc`'s global probes select.
fn table_for(proc: &Process) -> &'static [classic::Handler; 256] {
    if proc.probes.has_global() {
        classic::instrumented_table()
    } else {
        classic::normal_table()
    }
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
    /// Never fails: every configuration has a byte interpreter to run
    /// global probes in. Fallible like [`ProbeCtx::insert_local_probe`].
    pub fn insert_global_probe(&mut self, probe: ProbeRef) -> Result<ProbeId, ProbeError> {
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
    /// consistency guarantee: the change is applied immediately and every
    /// tier observes it. No frame needs to deoptimize for it (§4.6): a
    /// probe only sees a register frame at a park point, after which the
    /// register form reads every local and operand back from its slot.
    ///
    /// # Errors
    ///
    /// Fails on type mismatch, or if `i` is out of range.
    pub fn set_local(&mut self, i: u32, v: Value) -> Result<(), FrameModError> {
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
    /// Fails if `i` is out of range.
    pub fn set_operand(&mut self, i: usize, v: Slot) -> Result<(), FrameModError> {
        let end = self.ex.operand_end(self.index);
        let opbase = self.ex.frames[self.index].opbase;
        if i >= end - opbase {
            return Err(FrameModError::OutOfRange);
        }
        self.ex.values[end - 1 - i] = v.0;
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
