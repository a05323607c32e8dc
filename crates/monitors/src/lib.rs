//! `wizard-monitors`: the Monitor Zoo (paper §3).
//!
//! A *monitor* is a self-contained analysis that observes an application's
//! execution through probes. Every monitor here is built purely from the
//! engine's public instrumentation API — global probes, local probes, and
//! the FrameAccessor — demonstrating the paper's thesis that a small, fully
//! programmable primitive supports a wide range of analyses:
//!
//! | Monitor | Mechanism |
//! |---|---|
//! | [`TraceMonitor`] | one global probe |
//! | [`CoverageMonitor`] | self-removing local probe per straight-line run, marking the whole run |
//! | [`LoopMonitor`] | `CountProbe` per loop header |
//! | [`HotnessMonitor`] | counts every instruction: a `Count` probe per straight-line run, exact per-site rows (or one global probe) |
//! | [`BranchMonitor`] | operand probe per branch (or one global probe) |
//! | [`MemoryMonitor`] | local probe per load/store, FrameAccessor operands |
//! | [`CallsMonitor`] | local probe per callsite, table resolution |
//! | [`CallTreeMonitor`] | the [`entry_exit`] library + wall-clock time |
//! | [`Debugger`] | breakpoints, stepping, frame modification |
//!
//! All monitors implement the engine's lifecycle [`Monitor`] trait:
//! [`Monitor::on_attach`] installs probes through an
//! [`InstrumentationCtx`] (batched, so N insertions cost one invalidation
//! pass), [`Monitor::on_detach`] finalizes shadow state, and
//! [`Monitor::report`] renders a structured [`Report`]. Attach and detach
//! through the process:
//!
//! ```
//! use wizard_engine::store::Linker;
//! use wizard_engine::{EngineConfig, Process, Value};
//! use wizard_monitors::LoopMonitor;
//! use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
//! use wizard_wasm::types::ValType::I32;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mb = ModuleBuilder::new();
//! let mut f = FuncBuilder::new(&[I32], &[I32]);
//! let i = f.local(I32);
//! f.for_range(i, 0, |f| {
//!     f.nop();
//! });
//! f.local_get(0);
//! mb.add_func("spin", f);
//!
//! let mut p = Process::new(mb.build()?, EngineConfig::default(), &Linker::new())?;
//! let loops = p.attach_monitor(LoopMonitor::new())?;
//! p.invoke_export("spin", &[Value::I32(10)])?;
//! assert_eq!(loops.borrow().total(), 11); // entry + 10 backedges
//!
//! // Detach restores the zero-overhead baseline.
//! p.detach_monitor(loops.handle())?;
//! assert_eq!(p.probed_location_count(), 0);
//! assert!(!p.in_global_mode());
//! println!("{}", loops.report());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod after_instr;
pub mod branch;
pub mod calls;
pub mod calltree;
pub mod coverage;
pub mod debugger;
pub mod entry_exit;
pub mod hotness;
pub mod loops;
pub mod memory;
pub mod trace;
pub mod util;

pub use after_instr::run_after_instruction;
pub use branch::BranchMonitor;
pub use calls::CallsMonitor;
pub use calltree::CallTreeMonitor;
pub use coverage::CoverageMonitor;
pub use debugger::Debugger;
pub use hotness::HotnessMonitor;
pub use loops::LoopMonitor;
pub use memory::MemoryMonitor;
pub use trace::TraceMonitor;

// The lifecycle API lives in the engine (monitors are registered on the
// `Process`); re-exported here so analyses depend on one crate.
pub use wizard_engine::{
    InstrumentationCtx, MetricValue, Monitor, MonitorHandle, MonitorRef, ProbeBatch, Report,
};

/// Whether a monitor implements its instrumentation with per-location
/// local probes or a single global probe (the paper's Figure-3 comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeMode {
    /// Sparse local probes at the locations of interest.
    #[default]
    Local,
    /// One global probe filtering every executed instruction.
    Global,
}
