//! `wizard-engine`: a two-tier WebAssembly engine with flexible,
//! non-intrusive dynamic instrumentation — the primary contribution of
//! Titzer et al., *Flexible Non-intrusive Dynamic Instrumentation for
//! WebAssembly* (ASPLOS 2024), reproduced in Rust.
//!
//! # Architecture
//!
//! * **Shared artifacts & copy-on-write overlays** ([`artifact`],
//!   [`code`]): a [`ModuleArtifact`] holds everything process-independent
//!   — the validated module, side-table metadata, per-function lowered
//!   code and the probe-free register form — each built lazily once per
//!   function, `Arc`-shared and `Send + Sync`. [`Process::instantiate`]
//!   links against it without re-validating; uninstrumented processes
//!   execute *the same* shared code (pointer-equal), and the first probe a
//!   process installs in a function copy-on-writes just that function into
//!   its private overlay — invisible to siblings, dropped again when the
//!   last probe detaches.
//! * **Two tiers**, picked per activation by the engine, as in the paper
//!   (§4). The compiled tier is the register form ([`regir`]): locals and
//!   operand slots are numbered registers, so `local.get`/const/push/pop
//!   traffic is allocated away. It runs every activation it can — clean,
//!   instrumented and fuel-metered alike: an instrumented function is
//!   lowered per process with one probe site per probed instruction,
//!   bound to the site's probes (intrinsified where they allow), and a
//!   metered frame pays for a whole straight-line run at its first
//!   instruction. The interpreter tier is the lowered stack interpreter
//!   ([`lowered`]): each function body is lowered *once* into fixed-width
//!   internal instructions — immediates pre-decoded, branch side table
//!   resolved into pre-resolved targets — dispatched through a 256-entry
//!   handler table. It runs global-probe mode, the functions the register
//!   allocator declines, the part of a run a fuel slice cannot pay for,
//!   and frames demoted mid-run, until their next loop header promotes
//!   them back. Bidirectional `pc ↔ slot`/`pc ↔ index` maps keep the
//!   paper's byte-offset location space as the public contract. Global
//!   probes are implemented by *switching the dispatch table pointer* —
//!   zero overhead when disabled. The paper's in-place byte-walking
//!   interpreter survives as [`Dispatch::Bytecode`], the reference and
//!   measured baseline.
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
//!   register frame whose code a probe replaced, or that global probes
//!   must now reach, demotes to the stack interpreter at its byte pc
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
mod interp;
pub mod lowered;
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
    LinkError, LoweringValidator, ProbeError, Process, RunOutcome, SiteLoweringValidator,
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
