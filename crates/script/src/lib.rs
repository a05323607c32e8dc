//! `wizard-script`: a declarative match-rule instrumentation language
//! compiled onto the probe engine.
//!
//! Every analysis in the Monitor Zoo (`wizard-monitors`) is hand-written
//! Rust linked at build time. This crate turns instrumentation into
//! *data*: a small `match`-rule language whose programs arrive at
//! runtime (a string — per job, per request, per experiment), are matched
//! statically against the module, and are *lowered onto the probe
//! engine* so scripted analyses inherit the paper's §4.4 compiled-code fast paths
//! instead of paying generic-probe checkpoint costs:
//!
//! ```text
//! source ──parse──▶ Script ──match──▶ sites ──classify──▶ probes
//!           (lex.rs,        (matcher.rs)      (lower.rs)
//!            parse.rs)
//! ```
//!
//! A rule is `match <selector> [once] [when <predicate>] do <actions>`:
//!
//! * **selectors** name opcode classes (`call`, `branch`, `load|store`,
//!   `loop-header`, `func:enter`, `func:exit`, `*`), exact mnemonics
//!   (`i32.div_s`), or exact locations (`func[3]+12`);
//! * **predicates** are integer expressions over `pc`, `func`, `op`
//!   (static per site — folded at compile time), `tos`/`tos64`/`depth`
//!   (dynamic), and named counters (`$n`);
//! * **actions** bump named counters: scalars (`inc calls`) or per-site
//!   tables (`inc exec[site]`);
//! * **`report` directives** render the counters as a structured
//!   [`Report`](wizard_engine::Report), so scripted runs merge into
//!   `wizard-pool` fleet aggregates like any hand-written monitor.
//!
//! The compiler classifies every rule-site pair: a statically-false
//! predicate installs *nothing*; a pure counter bump lowers to a
//! [`ProbeKind::Count`](wizard_engine::ProbeKind) probe (an inline
//! increment); a residue touching only the top of stack lowers to an
//! operand probe (direct call, no FrameAccessor); everything else falls
//! back to a generic probe. `match branch when op == br_table || tos != 0
//! do inc taken[site]` is the canonical example — free on `br_table`
//! sites, an operand probe on `if`/`br_if`.
//!
//! ```
//! use wizard_engine::store::Linker;
//! use wizard_engine::{EngineConfig, Process, Value};
//! use wizard_script::ScriptMonitor;
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
//! let monitor = ScriptMonitor::from_source(
//!     "monitor \"spin-stats\"\n\
//!      match loop-header do inc iters\n\
//!      match * do inc exec[site]\n\
//!      report \"summary\" total \"loop-header executions\" iters\n\
//!      report \"summary\" total \"instructions\" exec",
//! )?;
//!
//! let mut p = Process::new(mb.build()?, EngineConfig::default(), &Linker::new())?;
//! let m = p.attach_monitor(monitor)?;
//! p.invoke_export("spin", &[Value::I32(10)])?;
//! assert_eq!(m.borrow().counter("iters"), 11); // entry + 10 backedges
//! let report = m.report();
//! assert_eq!(report.title, "spin-stats");
//! p.detach_monitor(m.handle())?; // zero-overhead baseline restored
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lex;
pub mod lower;
pub mod matcher;
pub mod monitor;
pub mod parse;

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use wizard_engine::Monitor;
use wizard_pool::MonitorFactory;

pub use ast::{Script, Selector};
pub use error::ScriptError;
pub use monitor::{LoweredSite, ScriptMonitor};

impl Script {
    /// Parses and validates a script; see [`parse::parse`].
    ///
    /// # Errors
    ///
    /// Returns [`ScriptError`] on syntax or script-level validation
    /// failures.
    pub fn parse(source: &str) -> Result<Script, ScriptError> {
        parse::parse(source)
    }
}

/// Builds a `Send + Sync` [`MonitorFactory`] from script source, so a
/// `wizard-pool` fleet runs the script per job: the source is parsed and
/// validated *once, up front* (errors surface here, before any job is
/// submitted), and each worker thread then compiles its own
/// [`ScriptMonitor`] against its job's module. Module-dependent failures
/// (a rule matching nothing) fail only that job, as a
/// `monitor attach error`.
///
/// ```
/// use wizard_engine::Value;
/// use wizard_pool::{Job, Pool, PoolConfig};
/// # use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
/// # use wizard_wasm::types::ValType::I32;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mut mb = ModuleBuilder::new();
/// # let mut f = FuncBuilder::new(&[I32], &[I32]);
/// # let i = f.local(I32);
/// # f.for_range(i, 0, |f| { f.nop(); });
/// # f.local_get(0);
/// # mb.add_func("run", f);
/// # let module = mb.build()?;
/// let factory = wizard_script::monitor_factory(
///     "monitor \"iters\"\n\
///      match loop-header do inc n\n\
///      report \"summary\" total \"loop headers\" n",
/// )?;
/// let mut pool = Pool::new(PoolConfig::default());
/// for k in 0..4 {
///     pool.submit(
///         Job::new(format!("job-{k}"), module.clone(), "run", vec![Value::I32(5)])
///             .with_monitor_factory(factory.clone()),
///     );
/// }
/// let outcome = pool.run();
/// assert!(outcome.all_ok());
/// let merged = outcome.merged_report("iters").expect("merged script report");
/// assert_eq!(merged.get("summary").unwrap().count_of("loop headers"), Some(4 * 6));
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`ScriptError`] if the source does not parse or validate.
pub fn monitor_factory(source: &str) -> Result<MonitorFactory, ScriptError> {
    let script = Script::parse(source)?;
    Ok(Arc::new(move || {
        Rc::new(RefCell::new(ScriptMonitor::new(script.clone()))) as Rc<RefCell<dyn Monitor>>
    }))
}
