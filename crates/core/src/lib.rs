//! `wizard-engine`: a multi-tier WebAssembly engine with flexible,
//! non-intrusive dynamic instrumentation — the primary contribution of
//! Titzer et al., *Flexible Non-intrusive Dynamic Instrumentation for
//! WebAssembly* (ASPLOS 2024), reproduced in Rust.
//!
//! # Architecture
//!
//! * **Shared artifacts & copy-on-write overlays** ([`artifact`],
//!   [`code`]): a [`ModuleArtifact`] holds everything process-independent
//!   — the validated module, side-table metadata, per-function lowered
//!   code and probe-free baseline JIT code — built once, `Arc`-shared and
//!   `Send + Sync`. [`Process::instantiate`] links against it without
//!   re-validating; uninstrumented processes execute *the same* shared
//!   code (pointer-equal), and the first probe a process installs in a
//!   function copy-on-writes just that function into its private overlay
//!   — invisible to siblings, dropped again when the last probe detaches.
//! * **Lowered interpreter** ([`lowered`]): each function body is lowered
//!   *once* into fixed-width internal instructions — immediates
//!   pre-decoded, branch side table fused into pre-resolved targets — and
//!   the interpreter dispatches over lowered slots through a 256-entry
//!   handler table. A bidirectional `pc ↔ slot` map keeps the paper's
//!   byte-offset location space as the public contract. Global probes are
//!   implemented by *switching the dispatch table pointer* — zero overhead
//!   when disabled. The classic byte-walking dispatch survives as
//!   [`Dispatch::Bytecode`], the measured baseline for the lowering win.
//! * **Local probes** are implemented by *bytecode overwriting*: the probed
//!   instruction's opcode byte is replaced by a reserved probe opcode, and
//!   the original is kept on the side — zero overhead for uninstrumented
//!   instructions, O(1) insertion/removal, and offsets stay valid.
//! * **JIT tier** ([`jit`]): functions are compiled to pre-decoded
//!   micro-ops; local probes are compiled into the code. `CountProbe`s and
//!   top-of-stack operand probes can be *intrinsified* — inlined or called
//!   directly without reifying a FrameAccessor.
//! * **Consistency** ([`probe`], [`exec`]): insertion order is firing
//!   order; inserts/removals during an event are deferred to its end; frame
//!   modifications deoptimize exactly the modified frame back to the
//!   interpreter (strategy 4 of §4.6); probe changes invalidate compiled
//!   code and existing frames deoptimize at the next safe point.
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
//! let config = EngineConfig::builder().tierup_threshold(10).build();
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
pub mod jit;
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
    ExecMode, LinkError, ProbeError, Process, RunOutcome,
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
