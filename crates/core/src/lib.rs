//! `wizard-engine`: a two-tier WebAssembly engine with flexible,
//! non-intrusive dynamic instrumentation — the primary contribution of
//! Titzer et al., *Flexible Non-intrusive Dynamic Instrumentation for
//! WebAssembly* (ASPLOS 2024), reproduced in Rust.
//!
//! # Architecture
//!
//! * **Shared artifacts & copy-on-write overlays** ([`artifact`],
//!   [`code`]): a [`ModuleArtifact`] holds everything process-independent
//!   — the validated module, side-table metadata, each function's
//!   instruction list and probe-free register form — each built lazily
//!   once per function, `Arc`-shared and `Send + Sync`.
//!   [`Process::instantiate`] links against it without re-validating;
//!   uninstrumented processes execute *the same* shared code
//!   (pointer-equal), and the first probe a process installs in a function
//!   copy-on-writes just that function's bytes into its private overlay —
//!   invisible to siblings, dropped again when the last probe detaches.
//! * **Two tiers**, picked per activation by the engine, as in the paper
//!   (§4). The compiled tier is the register form ([`regir`]): locals and
//!   operand slots are numbered registers, so `local.get`/const/push/pop
//!   traffic is allocated away. It runs every activation it can — clean,
//!   instrumented, fuel-metered and globally counted alike: an
//!   instrumented function is lowered per process with one probe site per
//!   probed instruction, bound to the site's probes (intrinsified where
//!   they allow), and a straight-line run pays its fuel, and adds to the
//!   cells of global `Count` probes, at its first instruction. The slow
//!   tier is the paper's in-place byte interpreter, with §4.1's switchable
//!   dispatch table: global probes are implemented by *switching the
//!   dispatch table pointer* — zero overhead when disabled. It runs
//!   generic global probes, the functions the register allocator
//!   declines, the run a fuel slice cannot pay for, and frames demoted
//!   mid-run, each until the next run leader it can promote at; under
//!   [`Dispatch::Bytecode`] it runs everything, the reference the register
//!   form is tested against. Byte-pc ↔ index maps keep the paper's
//!   byte-offset location space as the public contract.
//! * **Local probes** are implemented by *bytecode overwriting*: the probed
//!   instruction's opcode byte is replaced by a reserved probe opcode, and
//!   the original is kept on the side — zero overhead for uninstrumented
//!   instructions, O(1) insertion/removal, and offsets stay valid.
//! * **Probe sites in compiled code** ([`regir`], [`probe`]): a probed
//!   instruction lowers to one `R_SITE` whose *binding* is re-bound in
//!   place when its probe list changes. `CountProbe`s and top-of-stack
//!   operand probes are *intrinsified* — inlined or called directly
//!   without reifying a FrameAccessor (§4.4); only a probe on an
//!   instruction the form has no site for re-lowers the function (§4.5).
//! * **Consistency** ([`probe`], [`exec`]): insertion order is firing
//!   order; inserts/removals during an event are deferred to its end; a
//!   register frame whose code a probe replaced, or that generic global
//!   probes must now reach, demotes to the byte interpreter at its byte pc
//!   (§4.6); frame modifications need no deoptimization, because a probe
//!   only observes a register frame at a park point.
//! * **FrameAccessor** ([`frame`], [`exec::ProbeCtx`]): probes receive
//!   program state through a façade over the live frame, with validity
//!   protection against dangling access.
//! * **Preemptible execution** ([`Process::run_bounded`],
//!   [`Process::resume`]): invocations can be fuel-metered — one unit per
//!   bytecode instruction — and suspend with [`RunOutcome::OutOfFuel`] at a
//!   bytecode-valid resume point when the slice runs out. Suspension is
//!   transparent to instrumentation (a bounded run fires exactly the
//!   probes of an unbounded run) and tolerant of instrumentation changes
//!   while parked, which is what lets `wizard-pool` multiplex many
//!   instrumented processes over one engine thread.
//! * **Monitor lifecycle** ([`monitor`]): analyses implement the
//!   [`Monitor`] trait and are attached/detached as sessions —
//!   [`Process::attach_monitor`] records every probe a monitor inserts
//!   (batched via [`ProbeBatch`], one invalidation pass for N probes) and
//!   [`Process::detach_monitor`] removes them all, provably restoring the
//!   zero-overhead baseline. Reports are structured ([`Report`]): named
//!   sections of typed key/value rows.
//!
//! # Quick start: raw probes
//!
//! ```
//! use wizard_engine::{CountProbe, EngineConfig, Process};
//! use wizard_engine::store::Linker;
//! use wizard_engine::value::Value;
//! use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
//! use wizard_wasm::types::ValType::I32;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a module with a loop.
//! let mut mb = ModuleBuilder::new();
//! let mut f = FuncBuilder::new(&[I32], &[I32]);
//! let i = f.local(I32);
//! let acc = f.local(I32);
//! f.for_range(i, 0, |f| {
//!     f.local_get(acc).local_get(i).i32_add().local_set(acc);
//! });
//! f.local_get(acc);
//! mb.add_func("sum", f);
//! let module = mb.build()?;
//!
//! // Instantiate and attach a counter probe at pc 0 of the function.
//! let mut process = Process::new(module, EngineConfig::default(), &Linker::new())?;
//! let func = process.module().export_func("sum").unwrap();
//! let probe = CountProbe::new();
//! let counter = probe.cell();
//! process.add_local_probe_val(func, 0, probe)?;
//!
//! let r = process.invoke(func, &[Value::I32(10)])?;
//! assert_eq!(r, vec![Value::I32(45)]);
//! assert_eq!(counter.get(), 1); // entry instruction executed once
//! # Ok(())
//! # }
//! ```
//!
//! # Quick start: a lifecycle monitor
//!
//! ```
//! use wizard_engine::store::Linker;
//! use wizard_engine::{
//!     CountProbe, EngineConfig, InstrumentationCtx, Monitor, ProbeBatch, ProbeError,
//!     Process, Report, Value,
//! };
//! use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
//! use wizard_wasm::types::ValType::I32;
//!
//! /// Counts entries of every exported function.
//! #[derive(Default)]
//! struct EntryCounter {
//!     cells: Vec<std::rc::Rc<std::cell::Cell<u64>>>,
//! }
//!
//! impl Monitor for EntryCounter {
//!     fn name(&self) -> &'static str {
//!         "entry-counter"
//!     }
//!
//!     fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
//!         let funcs: Vec<u32> = (ctx.module().num_imported_funcs()
//!             ..ctx.module().num_funcs())
//!             .collect();
//!         let mut batch = ProbeBatch::new(); // N probes, 1 invalidation pass
//!         for func in funcs {
//!             let probe = CountProbe::new();
//!             self.cells.push(probe.cell());
//!             batch.add_local_val(func, 0, probe);
//!         }
//!         ctx.apply_batch(batch)?;
//!         Ok(())
//!     }
//!
//!     fn report(&self) -> Report {
//!         let mut r = Report::new(self.name());
//!         r.section("summary")
//!             .count("entries", self.cells.iter().map(|c| c.get()).sum());
//!         r
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mb = ModuleBuilder::new();
//! let mut f = FuncBuilder::new(&[I32], &[I32]);
//! f.local_get(0).i32_const(1).i32_add();
//! mb.add_func("inc", f);
//!
//! let config = EngineConfig::builder().intrinsify(false).build();
//! let mut process = Process::new(mb.build()?, config, &Linker::new())?;
//!
//! let counter = process.attach_monitor(EntryCounter::default())?;
//! process.invoke_export("inc", &[Value::I32(41)])?;
//! assert_eq!(counter.report().get("summary").unwrap().count_of("entries"), Some(1));
//!
//! // Detach removes all recorded probes: back to the zero-overhead baseline.
//! process.detach_monitor(counter.handle())?;
//! assert_eq!(process.probed_location_count(), 0);
//! assert!(!process.in_global_mode());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod artifact;
mod classic;
pub mod code;
mod engine;
pub mod exec;
pub mod frame;
pub mod monitor;
pub mod numeric;
pub mod probe;
mod regint;
pub mod regir;
pub mod runs;
pub mod shims;
pub mod store;
pub mod trap;
pub mod value;

pub use artifact::{FuncArtifact, ModuleArtifact};
pub use engine::{
    register_lowering_validator, Dispatch, EngineConfig, EngineConfigBuilder, EngineStats,
    LinkError, LoweringValidator, ProbeError, Process, RunOutcome,
};
pub use exec::{FrameModError, FrameView, ProbeCtx};
pub use frame::{FrameAccessor, Tier};
pub use monitor::{
    InstrumentationCtx, MetricValue, Monitor, MonitorHandle, MonitorRef, Report, Row, Section,
};
pub use probe::{
    ClosureProbe, CountProbe, EmptyOperandProbe, EmptyProbe, Location, Probe, ProbeBatch, ProbeId,
    ProbeKind, ProbeRef,
};
pub use runs::{RunCounts, RunTable};
pub use shims::{ShimError, Shims};
pub use trap::Trap;
pub use value::{Slot, Value};

/// Tests of the code each function is lowered to — its register form — and
/// of the byte overlay that probe patching writes beside it.
#[cfg(test)]
mod lowered {
    mod tests {
        use crate::code::FuncOverlay;
        use crate::probe::{ProbeRegistry, Site};
        use crate::regir::*;
        use crate::{EmptyProbe, EngineConfig, ModuleArtifact, Slot};
        use std::cell::RefCell;
        use std::rc::Rc;
        use std::sync::Arc;
        use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
        use wizard_wasm::opcodes as op;
        use wizard_wasm::types::ValType::I32;

        fn artifact_for(f: FuncBuilder) -> ModuleArtifact {
            let mut mb = ModuleBuilder::new();
            mb.add_func("f", f);
            ModuleArtifact::new(mb.build().expect("validates")).expect("validates")
        }

        #[test]
        fn lowered_is_send_and_sync() {
            fn assert_send_sync<T: Send + Sync>() {}
            assert_send_sync::<RegFunc>();
            assert_send_sync::<Arc<RegFunc>>();
        }

        /// Const immediates are decoded once, at lowering: the folded
        /// operand carries the value itself, not a reference to the bytes.
        #[test]
        fn immediates_are_predecoded() {
            let mut f = FuncBuilder::new(&[I32], &[I32]);
            f.local_get(0).i32_const(-99_999).i32_add();
            let art = artifact_for(f);
            let rf = art.reg_func(0).expect("lowers");
            let add = rf.get(0);
            assert_eq!((add.op, add.y), (R_BIN_RI, op::I32_ADD), "{:?}", rf.ops());
            assert_eq!(add.a, 0, "lhs reads local 0");
            assert_eq!(Slot(add.z).i32(), -99_999);

            let mut g = FuncBuilder::new(&[], &[I32]);
            g.i32_const(624_485);
            let art = artifact_for(g);
            let rf = art.reg_func(0).expect("lowers");
            let c = rf.ops().iter().find(|ri| ri.op == R_CONST).expect("const materializes");
            assert_eq!(Slot(c.z).i32(), 624_485);
        }

        /// Every branch in a loop's register form names an instruction
        /// index in range, and that index sits on an instruction boundary
        /// of the bytecode it was lowered from.
        #[test]
        fn branch_targets_resolve_to_slots() {
            let mut f = FuncBuilder::new(&[I32], &[I32]);
            let i = f.local(I32);
            f.for_range(i, 0, |f| {
                f.nop();
            });
            f.local_get(i);
            let art = artifact_for(f);
            let fa = &art.funcs()[0];
            let rf = art.reg_func(0).expect("lowers");
            let mut saw_branch = false;
            for ri in rf.ops() {
                if matches!(ri.op, R_BR | R_BR_IF | R_BR_IF_Z | R_CMP_BR | R_CMP_BR_RI) {
                    let t = ri.x as usize;
                    assert!(t < rf.len(), "target index in range: {ri:?}");
                    let pc = rf.pc_of(t);
                    assert!(
                        fa.ordinal_of(pc).is_some() || pc as usize == fa.bytes.len(),
                        "target pc {pc} is an instruction boundary"
                    );
                    saw_branch = true;
                }
            }
            assert!(saw_branch, "loop lowering produced branches: {:?}", rf.ops());
        }

        /// A probe overwrites only the opcode byte of its instruction: the
        /// immediate after it is intact in the overlay, the register form
        /// lowered with the site still folds the value, and removing the
        /// probe restores the byte. The shared bytes never see any of it.
        #[test]
        fn probe_patch_roundtrip_preserves_immediates() {
            let mut f = FuncBuilder::new(&[I32], &[I32]);
            f.local_get(0).i32_const(7).i32_add();
            let art = artifact_for(f);
            let fa = Arc::clone(&art.funcs()[0]);
            let c = FuncOverlay::new(Arc::clone(&fa));
            let config = EngineConfig::default();
            let mut registry = ProbeRegistry::default();

            let slot = 1; // the const
            let pc = fa.instr_pcs()[slot as usize];
            let id = registry.fresh_id(Site::Local { func: c.func(), slot });
            c.add_probe(slot, id, Rc::new(RefCell::new(EmptyProbe)), &config);
            assert_eq!(c.byte_at(pc as usize), op::PROBE);
            assert_eq!(c.orig_opcode(pc), op::I32_CONST);
            assert_eq!(c.bytes_view().read_i32(pc as usize + 1).0, 7, "immediate untouched");

            let sites = c.claim_sites();
            assert_eq!(sites, [(pc, slot)]);
            let rf = lower_func(&fa, art.func_types(), &art.module().types, &sites).unwrap();
            assert!(rf.ops().iter().any(|ri| ri.op == R_SITE), "{:?}", rf.ops());
            assert!(
                rf.ops()
                    .iter()
                    .any(|ri| matches!(ri.op, R_CONST | R_BIN_RI | R_BIN_IR)
                        && Slot(ri.z).i32() == 7),
                "the probed form still carries the immediate: {:?}",
                rf.ops()
            );

            c.remove_probe(slot, id, &config).expect("installed");
            assert!(!c.has_overlay());
            assert_eq!(c.byte_at(pc as usize), op::I32_CONST);
            assert_eq!(fa.bytes[pc as usize], op::I32_CONST, "shared bytes never patched");
        }
    }
}
