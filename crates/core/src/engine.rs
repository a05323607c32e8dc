//! The engine facade: configuration, instantiation, invocation, and the
//! public dynamic-instrumentation API.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use wizard_wasm::module::{ConstExpr, FuncIdx, ImportDesc, Module};
use wizard_wasm::opcodes as op;
use wizard_wasm::types::{FuncType, GlobalType};
use wizard_wasm::validate::ValidateError;

use crate::artifact::ModuleArtifact;
use crate::classic;
use crate::code::{FuncOverlay, FuncViews};
use crate::exec::{Exec, ExecState, Exit};
use crate::frame::Tier;
use crate::monitor::MonitorRegistry;
use crate::probe::{
    BatchOp, Binding, Intrinsified, Location, Pending, Probe, ProbeBatch, ProbeId, ProbeRef,
    ProbeRegistry, Site,
};
use crate::regint;
use crate::regir::{self, RegFunc, R_SITE};
use crate::store::{HostFn, Linker, Memory, Table};
use crate::trap::Trap;
use crate::value::{Slot, Value};

/// How the engine dispatches instructions.
///
/// The tier itself is the engine's choice, made per activation from what
/// it can see; this only selects the production engine or the reference
/// interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dispatch {
    /// The production engine: two tiers, as in the paper (§4). Function
    /// bodies are lowered into a register IR ([`crate::regir`]) whose
    /// instructions name their operands directly, so
    /// `local.get`/`local.set` and operand push/pop traffic are allocated
    /// away — the engine's compiled tier. It runs clean code from the
    /// artifact's shared form and instrumented functions from a
    /// per-process form with their probe sites (intrinsified where the
    /// probes allow, §4.4); it charges fuel, and global `Count` probes,
    /// per straight-line run. The byte interpreter runs the rest: generic
    /// global probes (§4.1), the rare function the register allocator
    /// cannot lower ([`EngineStats::reg_fallbacks`]), the run a fuel
    /// slice cannot pay for, and frames demoted mid-run
    /// ([`EngineStats::deopts`]) — each until the next run leader it can
    /// promote at ([`EngineStats::tier_ups`]).
    #[default]
    Register,
    /// Byte dispatch only — the paper's in-place interpreter: LEB128
    /// immediates decoded and branch side-table hashed on every
    /// execution. The semantic reference for differential testing and the
    /// measured baseline (`dispatch_speed` bench, the figure binaries).
    /// Execution in this mode never lowers and never promotes.
    Bytecode,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Dispatch: the production tiers (default) or the byte-walking
    /// reference.
    pub dispatch: Dispatch,
    /// Intrinsify [`CountProbe`](crate::probe::CountProbe)s in compiled
    /// code (the paper's `intrinsifyCountProbe` flag).
    pub intrinsify_count: bool,
    /// Intrinsify top-of-stack operand probes (`intrinsifyOperandProbe`).
    pub intrinsify_operand: bool,
    /// Maximum Wasm call depth.
    pub max_call_depth: usize,
    /// Maximum unified value-stack slots.
    pub max_value_stack: usize,
    /// Default fuel slice for preemptible execution, advisory: the engine
    /// itself never reads it — [`Process::invoke`] is always unbounded,
    /// and [`Process::run_bounded`] / [`Process::resume`] take their
    /// budget explicitly. Schedulers like `wizard-pool` read this as the
    /// per-turn budget to pass to the bounded API.
    pub fuel_slice: Option<u64>,
    /// Run the translation validator over every function's register form
    /// at instantiation, and over every instrumented register form as it
    /// is lowered (debug builds and CI); an instrumented form that fails is
    /// an engine bug and panics. Requires the validator to be registered
    /// via [`register_lowering_validator`] — the engine crate is
    /// dependency-free, so the analysis crate (`wizard-analysis`) injects
    /// it through that hook (call its `install_engine_validator()`).
    pub validate_lowering: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            dispatch: Dispatch::Register,
            intrinsify_count: true,
            intrinsify_operand: true,
            max_call_depth: 10_000,
            max_value_stack: 1 << 22,
            fuel_slice: None,
            validate_lowering: false,
        }
    }
}

impl EngineConfig {
    /// The default configuration, under its historical name: the engine
    /// has one production configuration, and its interpreter and compiled
    /// tiers are picked per activation, not configured.
    pub fn interpreter() -> EngineConfig {
        EngineConfig::default()
    }

    /// Classic byte-walking dispatch — the paper's in-place interpreter,
    /// kept as the measurable baseline and the semantic reference.
    pub fn interpreter_bytecode() -> EngineConfig {
        EngineConfig { dispatch: Dispatch::Bytecode, ..EngineConfig::default() }
    }

    /// Starts a builder from the default configuration.
    ///
    /// ```
    /// use wizard_engine::{Dispatch, EngineConfig};
    ///
    /// let config = EngineConfig::builder().dispatch(Dispatch::Bytecode).intrinsify(false).build();
    /// assert_eq!(config.dispatch, Dispatch::Bytecode);
    /// assert!(!config.intrinsify_count);
    /// ```
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }
}

/// Builder for [`EngineConfig`], replacing hand-rolled struct literals in
/// binaries and tests. Obtain one via [`EngineConfig::builder`].
#[derive(Debug, Clone, Default)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Sets the dispatch strategy.
    pub fn dispatch(mut self, dispatch: Dispatch) -> EngineConfigBuilder {
        self.config.dispatch = dispatch;
        self
    }

    /// Enables/disables count-probe intrinsification in compiled code.
    pub fn intrinsify_count(mut self, on: bool) -> EngineConfigBuilder {
        self.config.intrinsify_count = on;
        self
    }

    /// Enables/disables operand-probe intrinsification in compiled code.
    pub fn intrinsify_operand(mut self, on: bool) -> EngineConfigBuilder {
        self.config.intrinsify_operand = on;
        self
    }

    /// Enables/disables both intrinsification flags at once.
    pub fn intrinsify(self, on: bool) -> EngineConfigBuilder {
        self.intrinsify_count(on).intrinsify_operand(on)
    }

    /// Sets the maximum Wasm call depth.
    pub fn max_call_depth(mut self, n: usize) -> EngineConfigBuilder {
        self.config.max_call_depth = n;
        self
    }

    /// Sets the maximum unified value-stack slots.
    pub fn max_value_stack(mut self, n: usize) -> EngineConfigBuilder {
        self.config.max_value_stack = n;
        self
    }

    /// Sets the default fuel slice (instructions per turn) for preemptible
    /// execution; see [`EngineConfig::fuel_slice`].
    pub fn fuel_slice(mut self, n: u64) -> EngineConfigBuilder {
        self.config.fuel_slice = Some(n);
        self
    }

    /// Enables/disables translation validation of the register forms; see
    /// [`EngineConfig::validate_lowering`].
    pub fn validate_lowering(mut self, on: bool) -> EngineConfigBuilder {
        self.config.validate_lowering = on;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

/// Declares [`EngineStats`] and its [`EngineStats::merge`] from one list:
/// each counter appears once, with its documentation and its merge rule —
/// `sum` for volumes, `max` for high-water marks.
macro_rules! engine_stats {
    ($($(#[$doc:meta])* $name:ident: $rule:ident,)*) => {
        /// Counters the engine maintains about instrumentation and tiering
        /// activity (the paper's figures annotate probe-fire counts).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct EngineStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl EngineStats {
            /// Accumulates another process's counters into this one — the
            /// aggregation primitive used by multi-process schedulers
            /// (`wizard-pool`) to report fleet-wide engine activity.
            pub fn merge(&mut self, other: &EngineStats) {
                $(engine_stats!(@$rule self.$name, other.$name);)*
            }
        }
    };
    (@sum $mine:expr, $theirs:expr) => {
        $mine += $theirs
    };
    (@max $mine:expr, $theirs:expr) => {
        $mine = $mine.max($theirs)
    };
}

engine_stats! {
    /// Probe fires dispatched through the runtime: generic local probes and
    /// generic global lists. Intrinsified fires — inline counts, direct
    /// operand calls, global `Count` probes bumped per run or per
    /// instruction — are not runtime-dispatched; their monitors count them.
    probe_fires: sum,
    /// Global-probe fires dispatched through the runtime (subset of
    /// `probe_fires`).
    global_fires: sum,
    /// Instrumented register forms lowered: one per function each time an
    /// activation finds its probes moved to instructions its form has no
    /// site for (paper §4.5's recompile). Probe-free forms are shared from
    /// the artifact and counted in [`EngineStats::functions_lowered`].
    compiles: sum,
    /// Byte-interpreter frames promoted to register form at a run leader.
    tier_ups: sum,
    /// Register frames demoted to the byte interpreter at their byte pc
    /// (paper §4.6): generic global probes arrived, their function's
    /// register form was replaced under a frame firing a probe, or a fuel
    /// slice could not pay for the next run.
    deopts: sum,
    /// Invalidation passes over instrumented register forms. Most
    /// instrumentation changes need none — the form re-binds its probe
    /// sites in place. A pass is paid when a probe lands on an instruction
    /// that had no probes when the function was lowered and when a
    /// function's last probe leaves (it rejoins the shared form). A site
    /// emptied by removals stays, bound to nothing, until one of those.
    /// Individually that is one pass per such change; a whole
    /// [`ProbeBatch`] committed via [`Process::apply_batch`] costs at most
    /// one.
    invalidation_passes: sum,
    /// Fuel units consumed by bounded runs ([`Process::run_bounded`] /
    /// [`Process::resume`]): one unit per bytecode instruction executed,
    /// and one per implicit return at a function's end, in every tier.
    fuel_consumed: sum,
    /// Out-of-fuel suspensions of bounded runs.
    suspensions: sum,
    /// Functions lowered to the shared register form ([`crate::regir`]),
    /// counted by the process whose demand built it (the work happens
    /// once per function per artifact: warm instantiations report 0, and
    /// probe traffic never rebuilds it).
    functions_lowered: sum,
    /// Forced re-lowering passes ([`Process::relower`]). Probe insertion
    /// and removal — batched or not — never re-lower, so under normal
    /// instrumentation traffic this stays 0.
    relower_passes: sum,
    /// Instantiations served from an already-built shared
    /// [`ModuleArtifact`] by an artifact cache (e.g. `wizard-pool`'s):
    /// validation was skipped, and lowering is shared.
    /// Caches contribute this counter when fleet stats are merged;
    /// processes themselves never increment it.
    artifact_cache_hits: sum,
    /// Artifact-cache lookups that had to build (validate) the artifact.
    /// Contributed by caches, like [`EngineStats::artifact_cache_hits`].
    artifact_cache_misses: sum,
    /// Copy-on-write overlay materializations: the first probe this
    /// process installed in each function copied that function's bytes
    /// into process-local storage. Detaching the last
    /// probe drops the copy again (rejoining the shared artifact), so
    /// this counts copies *made*, not copies currently resident.
    overlay_copies: sum,
    /// Successful translation-validation passes over a module's register
    /// forms ([`EngineConfig::validate_lowering`]); one per instantiation
    /// that ran the registered validator.
    lowering_validations: sum,
    /// Functions the register allocator declined to lower (they execute
    /// in the byte interpreter), counted like
    /// [`EngineStats::functions_lowered`] when the build was tried.
    reg_fallbacks: sum,
    /// Trace events captured by streaming trace monitors attached to this
    /// process. Contributed at detach time via [`Process::record_trace`]
    /// (intrinsified operand fires bypass the runtime, so the engine
    /// cannot count them itself).
    trace_events: sum,
    /// Encoded trace bytes emitted to trace sinks, including stream
    /// header and block framing. Contributed like
    /// [`EngineStats::trace_events`].
    trace_bytes: sum,
    /// Pending jobs a scheduler worker stole from another worker's deque
    /// (a job that has started never changes workers, so only jobs not
    /// yet instantiated are stolen). Contributed by multi-worker
    /// schedulers (`wizard-pool`'s serving engine) when fleet stats are
    /// merged; processes themselves never increment it.
    steals: sum,
    /// High-water mark of a scheduler's admission queue depth. Merged
    /// with `max` (a high-water mark, not a volume), contributed by
    /// schedulers like [`EngineStats::steals`].
    queue_depth_max: max,
    /// Fuel slices a scheduler executed across its fleet (every
    /// `run_export_bounded`/`resume` turn, whether it suspended or
    /// finished). Contributed by schedulers like [`EngineStats::steals`].
    slices_executed: sum,
    /// Times a scheduler parked a runnable task because its tenant's
    /// fuel budget for the current round was exhausted. Contributed by
    /// schedulers like [`EngineStats::steals`].
    budget_throttles: sum,
}

/// Result of one fuel slice of a bounded run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The invocation ran to completion with these results.
    Done(Vec<Value>),
    /// The fuel slice was exhausted; the run is suspended at a bytecode
    /// instruction boundary inside the process and can be continued with
    /// [`Process::resume`] (or discarded with
    /// [`Process::cancel_suspended`]).
    OutOfFuel,
}

impl RunOutcome {
    /// `true` when the run completed.
    pub fn is_done(&self) -> bool {
        matches!(self, RunOutcome::Done(_))
    }

    /// The results, if the run completed.
    pub fn done(self) -> Option<Vec<Value>> {
        match self {
            RunOutcome::Done(v) => Some(v),
            RunOutcome::OutOfFuel => None,
        }
    }
}

/// Error instantiating a module.
#[derive(Debug)]
pub enum LinkError {
    /// The module failed validation.
    Validate(ValidateError),
    /// An import could not be resolved.
    UnresolvedImport(String, String),
    /// An import kind is not supported by this engine.
    UnsupportedImport(String, String, &'static str),
    /// An imported global's provided value has the wrong type.
    GlobalTypeMismatch(String, String),
    /// A data or element segment was out of bounds.
    SegmentOutOfBounds(&'static str),
    /// The start function trapped.
    StartTrapped(Trap),
    /// Translation validation was requested
    /// ([`EngineConfig::validate_lowering`]) and the registered validator
    /// rejected the module — or no validator was registered at all.
    LoweringInvalid(String),
}

impl core::fmt::Display for LinkError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LinkError::Validate(e) => write!(f, "{e}"),
            LinkError::UnresolvedImport(m, n) => write!(f, "unresolved import {m}.{n}"),
            LinkError::UnsupportedImport(m, n, k) => {
                write!(f, "unsupported import kind {k} for {m}.{n}")
            }
            LinkError::GlobalTypeMismatch(m, n) => {
                write!(f, "imported global {m}.{n} has mismatched type")
            }
            LinkError::SegmentOutOfBounds(k) => write!(f, "{k} segment out of bounds"),
            LinkError::StartTrapped(t) => write!(f, "start function trapped: {t}"),
            LinkError::LoweringInvalid(msg) => write!(f, "lowering validation failed: {msg}"),
        }
    }
}

impl std::error::Error for LinkError {}

impl From<ValidateError> for LinkError {
    fn from(e: ValidateError) -> LinkError {
        LinkError::Validate(e)
    }
}

/// The shape of an injectable byte→register translation validator over
/// one register form: the artifact, the local function index and the form
/// — the artifact's shared one, or one lowered with the function's probe
/// sites.
pub type LoweringValidator = fn(&ModuleArtifact, usize, &RegFunc) -> Result<(), String>;

/// The registered translation validator, if any. The engine crate is
/// dependency-free by design, so the validator itself lives in
/// `wizard-analysis` and is injected here at startup.
static LOWERING_VALIDATOR: std::sync::OnceLock<LoweringValidator> = std::sync::OnceLock::new();

/// Registers the translation validator consulted under
/// [`EngineConfig::validate_lowering`]: on every function's shared register
/// form when a process is instantiated, and on every instrumented register
/// form a process lowers. First registration wins; later calls are no-ops
/// (the hook is set once per process lifetime).
/// `wizard_analysis::install_engine_validator()` is the canonical caller.
pub fn register_lowering_validator(validator: LoweringValidator) {
    let _ = LOWERING_VALIDATOR.set(validator);
}

/// Error from the dynamic instrumentation API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeError {
    /// The function index does not name a locally-defined function.
    NotALocalFunction(FuncIdx),
    /// The pc does not fall on an instruction boundary.
    InvalidPc(FuncIdx, u32),
    /// No probe with this id is installed.
    UnknownProbe,
    /// No monitor with this handle is attached.
    UnknownMonitor,
    /// This monitor instance is *currently* attached; attaching it again
    /// would double-register its probes. (After a detach the instance may
    /// be attached again; see `Monitor::on_attach` for what that implies.)
    MonitorAlreadyAttached,
    /// The monitor itself rejected the attach — e.g. a compiled
    /// instrumentation script whose rules match nothing in this module.
    /// The message is monitor-specific and human-readable; the engine
    /// rolls back any probes the failed attach had already inserted.
    MonitorRejected(String),
}

impl core::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProbeError::NotALocalFunction(i) => {
                write!(f, "function {i} is imported or out of range")
            }
            ProbeError::InvalidPc(func, pc) => {
                write!(f, "pc {pc} is not an instruction boundary in function {func}")
            }
            ProbeError::UnknownProbe => f.write_str("unknown probe id"),
            ProbeError::UnknownMonitor => f.write_str("unknown monitor handle"),
            ProbeError::MonitorAlreadyAttached => {
                f.write_str("monitor instance is already attached")
            }
            ProbeError::MonitorRejected(msg) => write!(f, "monitor rejected attach: {msg}"),
        }
    }
}

impl std::error::Error for ProbeError {}

/// An instantiated module together with its execution and instrumentation
/// state — the engine's top-level object.
///
/// # Examples
///
/// ```
/// use wizard_engine::{EngineConfig, Process};
/// use wizard_engine::store::Linker;
/// use wizard_engine::value::Value;
/// use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
/// use wizard_wasm::types::ValType::I32;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut mb = ModuleBuilder::new();
/// let mut f = FuncBuilder::new(&[I32], &[I32]);
/// f.local_get(0).i32_const(1).i32_add();
/// mb.add_func("inc", f);
/// let module = mb.build()?;
///
/// let mut process = Process::new(module, EngineConfig::default(), &Linker::new())?;
/// let r = process.invoke_export("inc", &[Value::I32(41)])?;
/// assert_eq!(r, vec![Value::I32(42)]);
/// # Ok(())
/// # }
/// ```
pub struct Process {
    pub(crate) artifact: Arc<ModuleArtifact>,
    pub(crate) module: Arc<Module>,
    pub(crate) config: EngineConfig,
    pub(crate) code: Vec<Rc<FuncOverlay>>,
    pub(crate) host: Vec<HostFn>,
    pub(crate) memory: Option<Memory>,
    pub(crate) table: Table,
    pub(crate) globals: Vec<u64>,
    pub(crate) global_types: Vec<GlobalType>,
    pub(crate) func_types: Arc<[FuncType]>,
    pub(crate) probes: ProbeRegistry,
    pub(crate) monitors: MonitorRegistry,
    /// A global probe the register form cannot count is installed: every
    /// frame runs the byte interpreter's all-stub dispatch table (§4.1).
    pub(crate) global_mode: bool,
    pub(crate) stats: EngineStats,
    /// The suspended bounded run, if any (see [`Process::run_bounded`]).
    suspended: Option<Suspended>,
}

/// A bounded run parked at an out-of-fuel suspension point.
struct Suspended {
    state: ExecState,
    /// The entry function, whose signature types the results on completion.
    func: FuncIdx,
}

impl Process {
    /// Validates, links and instantiates `module`, running data/element
    /// segment initialization and the start function.
    ///
    /// This is the *owned-module* path: it builds a private
    /// [`ModuleArtifact`] and instantiates from it. Fleets running many
    /// instances of the same module should build the artifact once and use
    /// [`Process::instantiate`] instead, paying validation and lowering a
    /// single time for all of them.
    ///
    /// # Errors
    ///
    /// Returns a [`LinkError`] on validation failure, unresolved imports,
    /// out-of-bounds segments, or a trapping start function.
    pub fn new(
        module: Module,
        config: EngineConfig,
        linker: &Linker,
    ) -> Result<Process, LinkError> {
        let artifact = Arc::new(ModuleArtifact::new(module)?);
        Process::instantiate(artifact, config, linker)
    }

    /// Links and instantiates a process from a pre-built, possibly shared
    /// [`ModuleArtifact`] — running data/element segment initialization
    /// and the start function, but **skipping validation** (the artifact
    /// is validated by construction) and sharing the artifact's register
    /// forms.
    ///
    /// Processes instantiated from the same artifact execute from the
    /// same shared code until they instrument it: instrumentation is
    /// per-process — the first probe on a function copy-on-writes just
    /// that function into the probing process
    /// ([`EngineStats::overlay_copies`]), and sibling processes never
    /// observe it.
    ///
    /// # Errors
    ///
    /// Returns a [`LinkError`] on unresolved imports, out-of-bounds
    /// segments, or a trapping start function.
    pub fn instantiate(
        artifact: Arc<ModuleArtifact>,
        config: EngineConfig,
        linker: &Linker,
    ) -> Result<Process, LinkError> {
        let module = Arc::clone(artifact.module());

        // Resolve imports.
        let mut host: Vec<HostFn> = Vec::new();
        let mut imported_globals: Vec<(GlobalType, Value)> = Vec::new();
        for imp in &module.imports {
            match &imp.desc {
                ImportDesc::Func(_) => {
                    let f = linker.resolve_func(&imp.module, &imp.name).ok_or_else(|| {
                        LinkError::UnresolvedImport(imp.module.clone(), imp.name.clone())
                    })?;
                    host.push(f);
                }
                ImportDesc::Global(g) => {
                    let v = linker.resolve_global(&imp.module, &imp.name).ok_or_else(|| {
                        LinkError::UnresolvedImport(imp.module.clone(), imp.name.clone())
                    })?;
                    if v.ty() != g.value {
                        return Err(LinkError::GlobalTypeMismatch(
                            imp.module.clone(),
                            imp.name.clone(),
                        ));
                    }
                    imported_globals.push((*g, v));
                }
                ImportDesc::Memory(_) => {
                    return Err(LinkError::UnsupportedImport(
                        imp.module.clone(),
                        imp.name.clone(),
                        "memory",
                    ));
                }
                ImportDesc::Table(_) => {
                    return Err(LinkError::UnsupportedImport(
                        imp.module.clone(),
                        imp.name.clone(),
                        "table",
                    ));
                }
            }
        }

        // Function types across the whole index space (shared, precomputed
        // by the artifact — warm instantiation clones one Arc).
        let func_types = Arc::clone(artifact.func_types());

        // Globals: imported first, then module-defined.
        let mut global_types: Vec<GlobalType> = Vec::new();
        let mut globals: Vec<u64> = Vec::new();
        for (g, v) in &imported_globals {
            global_types.push(*g);
            globals.push(v.to_slot().0);
        }
        for g in &module.globals {
            global_types.push(g.ty);
            let v = eval_const(&g.init, &globals, &global_types);
            globals.push(v);
        }

        // Code objects: fresh (empty) per-process overlays over the
        // artifact's shared per-function code.
        let code: Vec<Rc<FuncOverlay>> =
            artifact.funcs().iter().map(|fa| Rc::new(FuncOverlay::new(Arc::clone(fa)))).collect();

        // Memory + data segments.
        let mut memory = module.memory0().map(|m| Memory::new(m.limits));
        for d in &module.data {
            let off = eval_const(&d.offset, &globals, &global_types) as u32;
            memory
                .as_mut()
                .expect("validated: data requires memory")
                .init(off, &d.bytes)
                .map_err(|_| LinkError::SegmentOutOfBounds("data"))?;
        }

        // Table + element segments.
        let mut table = module.table0().map_or_else(Table::default, |t| Table::new(t.limits));
        for e in &module.elems {
            let off = eval_const(&e.offset, &globals, &global_types) as u32;
            table.init(off, &e.funcs).map_err(|_| LinkError::SegmentOutOfBounds("element"))?;
        }

        let mut p = Process {
            artifact,
            module,
            config,
            code,
            host,
            memory,
            table,
            globals,
            global_types,
            func_types,
            probes: ProbeRegistry::default(),
            monitors: MonitorRegistry::default(),
            global_mode: false,
            stats: EngineStats::default(),
            suspended: None,
        };
        if p.config.validate_lowering {
            let Some(validator) = LOWERING_VALIDATOR.get() else {
                return Err(LinkError::LoweringInvalid(
                    "no validator registered; call wizard_analysis::install_engine_validator()"
                        .into(),
                ));
            };
            for lf in 0..p.code.len() {
                if let Some(reg) = p.artifact.reg_func(lf) {
                    validator(&p.artifact, lf, reg).map_err(LinkError::LoweringInvalid)?;
                }
            }
            p.stats.lowering_validations += 1;
        }
        if let Some(s) = p.module.start {
            p.invoke(s, &[]).map_err(LinkError::StartTrapped)?;
        }
        Ok(p)
    }

    /// The module under execution.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Engine activity counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Resets the activity counters.
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }

    /// Credits trace capture activity to this process's counters
    /// ([`EngineStats::trace_events`] / [`EngineStats::trace_bytes`]).
    /// Called by streaming trace monitors from `on_detach`, because
    /// intrinsified operand fires never cross the runtime and so cannot
    /// be counted engine-side.
    pub fn record_trace(&mut self, events: u64, bytes: u64) {
        self.stats.trace_events += events;
        self.stats.trace_bytes += bytes;
    }

    /// Read-only view of linear memory (if the module has one).
    pub fn memory(&self) -> Option<&[u8]> {
        self.memory.as_ref().map(Memory::data)
    }

    /// Reads a global by index.
    pub fn global(&self, idx: u32) -> Option<Value> {
        let ty = self.global_types.get(idx as usize)?;
        Some(Value::from_slot(Slot(self.globals[idx as usize]), ty.value))
    }

    /// Invokes an exported function by name.
    ///
    /// # Errors
    ///
    /// Traps as [`Process::invoke`]; unknown exports trap with
    /// [`Trap::Host`].
    pub fn invoke_export(&mut self, name: &str, args: &[Value]) -> Result<Vec<Value>, Trap> {
        let idx = self
            .module
            .export_func(name)
            .ok_or_else(|| Trap::Host(format!("no exported function {name:?}")))?;
        self.invoke(idx, args)
    }

    /// Invokes function `func` with `args`.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] if execution traps; all frames are unwound and
    /// their accessors invalidated.
    ///
    /// # Panics
    ///
    /// Panics if `args` do not match the function's parameter types, or if
    /// a bounded run is currently suspended (finish it with
    /// [`Process::resume`] or discard it with
    /// [`Process::cancel_suspended`] first).
    pub fn invoke(&mut self, func: FuncIdx, args: &[Value]) -> Result<Vec<Value>, Trap> {
        assert!(
            self.suspended.is_none(),
            "cannot invoke while a bounded run is suspended; resume or cancel it first"
        );
        let mut ex = start_call(self, func, args, None)?;
        match drive(&mut ex) {
            Ok(Exit::Done) => {}
            Ok(Exit::OutOfFuel | Exit::Redispatch) => {
                unreachable!("unbounded run cannot suspend")
            }
            Err(t) => {
                unwind_trapped(&mut ex);
                return Err(t);
            }
        }
        Ok(extract_results(&ex, func))
    }

    // ---- preemptible (fuel-bounded) execution ----

    /// Starts a *bounded* invocation of `func`: executes at most `fuel`
    /// bytecode instructions, then suspends.
    ///
    /// Fuel is charged one unit per bytecode instruction executed, plus
    /// one per implicit return at a function's end — the byte-walking
    /// reference's count, in both tiers: the register form pays for a
    /// whole straight-line run at its first instruction, and a run the
    /// slice cannot pay for runs in the byte interpreter, which charges
    /// per instruction and suspends exactly where the reference would.
    ///
    /// Returns [`RunOutcome::Done`] with the results if the invocation
    /// finished within the slice, or [`RunOutcome::OutOfFuel`] if it was
    /// preempted — the run is parked inside the process at a bytecode
    /// instruction boundary and continues with [`Process::resume`].
    /// Suspension is transparent to instrumentation: a bounded run fires
    /// exactly the probes, in exactly the order, of an unbounded
    /// [`Process::invoke`] of the same call. Instrumentation may change
    /// *while* the run is suspended (attach/detach, probe insertion): the
    /// register form re-binds its probe sites in place; a change it cannot
    /// follow — a probe on an instruction it has no site for, the
    /// function's last probe leaving — re-lowers it when a frame next
    /// needs it, and parked frames resume in the new form at their byte
    /// pc; an arriving generic global probe demotes them to the byte
    /// interpreter.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] if execution traps (in any slice); all frames
    /// are unwound and the suspension is cleared.
    ///
    /// # Panics
    ///
    /// Panics if `args` do not match the function's parameter types or if
    /// another bounded run is already suspended.
    pub fn run_bounded(
        &mut self,
        func: FuncIdx,
        args: &[Value],
        fuel: u64,
    ) -> Result<RunOutcome, Trap> {
        assert!(
            self.suspended.is_none(),
            "a bounded run is already suspended; resume or cancel it first"
        );
        // Metering is set *before* the entry call, so the entry frame's
        // first run is paid for like every other.
        let ex = start_call(self, func, args, Some(fuel))?;
        drive_bounded(ex, fuel, func)
    }

    /// Bounded invocation of an exported function by name; see
    /// [`Process::run_bounded`].
    ///
    /// # Errors
    ///
    /// As [`Process::run_bounded`]; unknown exports trap with
    /// [`Trap::Host`].
    pub fn run_export_bounded(
        &mut self,
        name: &str,
        args: &[Value],
        fuel: u64,
    ) -> Result<RunOutcome, Trap> {
        let idx = self
            .module
            .export_func(name)
            .ok_or_else(|| Trap::Host(format!("no exported function {name:?}")))?;
        self.run_bounded(idx, args, fuel)
    }

    /// Continues the suspended bounded run with a fresh fuel slice.
    ///
    /// # Errors
    ///
    /// As [`Process::run_bounded`].
    ///
    /// # Panics
    ///
    /// Panics if no bounded run is suspended.
    pub fn resume(&mut self, fuel: u64) -> Result<RunOutcome, Trap> {
        let s = self.suspended.take().expect("no suspended bounded run to resume");
        let ex = Exec::from_state(self, s.state, fuel);
        drive_bounded(ex, fuel, s.func)
    }

    /// `true` while a bounded run is parked at a suspension point.
    pub fn is_suspended(&self) -> bool {
        self.suspended.is_some()
    }

    /// Where the suspended bounded run will continue: the instruction its
    /// innermost frame executes next, whose probes have not fired yet.
    /// `None` when no run is suspended. What instrumentation that counts
    /// in bulk ([`RunCounts`](crate::RunCounts)) consults when it is
    /// installed or removed between slices.
    ///
    /// ```
    /// use wizard_engine::store::Linker;
    /// use wizard_engine::{EngineConfig, Location, Process, RunOutcome};
    /// use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut mb = ModuleBuilder::new();
    /// let mut f = FuncBuilder::new(&[], &[]);
    /// f.nop().nop().nop();
    /// mb.add_func("f", f);
    /// let mut p = Process::new(mb.build()?, EngineConfig::default(), &Linker::new())?;
    /// assert_eq!(p.suspended_at(), None);
    /// // Two units of fuel execute two `nop`s; the third is next.
    /// assert_eq!(p.run_export_bounded("f", &[], 2)?, RunOutcome::OutOfFuel);
    /// assert_eq!(p.suspended_at(), Some(Location { func: 0, pc: 2 }));
    /// assert!(p.resume(100)?.is_done());
    /// assert_eq!(p.suspended_at(), None);
    /// # Ok(())
    /// # }
    /// ```
    pub fn suspended_at(&self) -> Option<Location> {
        self.suspended.as_ref().and_then(|s| s.state.top())
    }

    /// Discards the suspended bounded run, if any: the accessors of its
    /// parked frames are invalidated and attached monitors are told where
    /// it stopped ([`Monitor::on_unwind`](crate::Monitor::on_unwind)) —
    /// which also happens if the process is simply dropped while
    /// suspended. Returns `true` if a run was discarded.
    pub fn cancel_suspended(&mut self) -> bool {
        self.abandon_suspended(false)
    }

    /// [`Process::cancel_suspended`], also for a process that is
    /// `dropping`.
    fn abandon_suspended(&mut self, dropping: bool) -> bool {
        let Some(suspended) = self.suspended.take() else {
            return false;
        };
        let top = suspended.state.top();
        drop(suspended);
        if let Some(top) = top {
            self.notify_unwind(top, false, dropping);
        }
        true
    }

    // ---- instrumentation API ----

    /// Inserts a probe at `(func, pc)`. The location's first probe
    /// overwrites the instruction's opcode byte; the function's register
    /// form is invalidated only if it has no probe site there to re-bind.
    ///
    /// # Errors
    ///
    /// Fails if `func` is imported/unknown or `pc` is not an instruction
    /// boundary.
    pub fn add_local_probe(
        &mut self,
        func: FuncIdx,
        pc: u32,
        probe: ProbeRef,
    ) -> Result<ProbeId, ProbeError> {
        let slot = self.check_location(func, pc)?;
        let id = self.probes.fresh_id(Site::Local { func, slot });
        self.apply_instrumentation(Pending::Insert(id, probe));
        Ok(id)
    }

    /// Convenience: inserts an owned probe value.
    ///
    /// # Errors
    ///
    /// As [`Process::add_local_probe`].
    pub fn add_local_probe_val(
        &mut self,
        func: FuncIdx,
        pc: u32,
        probe: impl Probe,
    ) -> Result<ProbeId, ProbeError> {
        self.add_local_probe(func, pc, Rc::new(RefCell::new(probe)))
    }

    /// Inserts a global probe, switching the byte interpreter to the
    /// instrumented dispatch table (paper §4.1). While every global probe
    /// is an intrinsifiable [`CountProbe`](crate::CountProbe), register
    /// frames keep running and add each straight-line run to the counts at
    /// its first instruction; any other global probe sends execution to
    /// the byte interpreter until it is removed. Register forms are never
    /// discarded for it.
    ///
    /// # Errors
    ///
    /// Never fails: every configuration has a byte interpreter to run
    /// global probes in. Fallible like [`Process::add_local_probe`].
    pub fn add_global_probe(&mut self, probe: ProbeRef) -> Result<ProbeId, ProbeError> {
        let id = self.probes.fresh_id(Site::Global);
        self.apply_instrumentation(Pending::Insert(id, probe));
        Ok(id)
    }

    /// Convenience: inserts an owned global probe value.
    ///
    /// # Errors
    ///
    /// As [`Process::add_global_probe`].
    pub fn add_global_probe_val(&mut self, probe: impl Probe) -> Result<ProbeId, ProbeError> {
        self.add_global_probe(Rc::new(RefCell::new(probe)))
    }

    /// Removes a probe by id. Removing the last probe at a location
    /// restores the original opcode byte; removing the last global probe
    /// switches the dispatch table back. The register form keeps running:
    /// its site re-binds to the probes that remain (to nothing, if none
    /// do), and only the function's *last* probe leaving invalidates it,
    /// so the process rejoins the artifact's shared form.
    ///
    /// # Errors
    ///
    /// Fails if the id is unknown.
    pub fn remove_probe(&mut self, id: ProbeId) -> Result<(), ProbeError> {
        let installed = match id.site {
            Site::Global => self.probes.contains_global(id),
            Site::Local { func, slot } => self.code[self.local_index(func)].has_probe(slot, id),
        };
        if !installed {
            return Err(ProbeError::UnknownProbe);
        }
        self.apply_instrumentation(Pending::Remove(id));
        Ok(())
    }

    /// Index into `code` of locally-defined function `func`.
    pub(crate) fn local_index(&self, func: FuncIdx) -> usize {
        (func - self.module.num_imported_funcs()) as usize
    }

    /// Applies a whole [`ProbeBatch`] — N insertions/removals — in at most
    /// a *single* invalidation/deoptimization pass, returning the ids of
    /// the inserted probes in queue order.
    ///
    /// The batch is validated atomically up front: if any queued location
    /// is invalid nothing is applied. Each function whose register form
    /// cannot follow the batch by re-binding its sites (see
    /// [`EngineStats::invalidation_passes`]) is invalidated exactly once,
    /// and the counter increases by at most one — versus once per new site
    /// when inserting individually.
    ///
    /// # Errors
    ///
    /// Fails as [`Process::add_local_probe`] for any queued insertion;
    /// queued removals never fail (removing an unknown id is a no-op,
    /// making detach-style cleanup idempotent).
    pub fn apply_batch(&mut self, batch: ProbeBatch) -> Result<Vec<ProbeId>, ProbeError> {
        let mut sites = Vec::with_capacity(batch.ops.len());
        for op in &batch.ops {
            sites.push(match op {
                BatchOp::Local(func, pc, _) => {
                    Site::Local { func: *func, slot: self.check_location(*func, *pc)? }
                }
                BatchOp::Global(_) => Site::Global,
                BatchOp::Remove(id) => id.site,
            });
        }
        let mut inserted = Vec::new();
        let mut stale: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        for (op, site) in batch.ops.into_iter().zip(sites) {
            let touched = match op {
                BatchOp::Local(_, _, probe) | BatchOp::Global(probe) => {
                    let id = self.probes.fresh_id(site);
                    inserted.push(id);
                    self.do_insert(id, probe)
                }
                BatchOp::Remove(id) => self.do_remove(id),
            };
            stale.extend(touched);
        }
        if !stale.is_empty() {
            for lf in stale {
                self.code[lf].invalidate();
            }
            self.stats.invalidation_passes += 1;
        }
        Ok(inserted)
    }

    /// Installs probe `id` at its site. Returns the local function whose
    /// register form the caller must invalidate (immediately, or once per
    /// batch), if the insertion made it stale.
    fn do_insert(&mut self, id: ProbeId, probe: ProbeRef) -> Option<usize> {
        match id.site {
            Site::Global => {
                // Switches the dispatch table; register forms are kept.
                self.probes.insert_global(id, probe, &self.config);
                self.global_mode = self.probes.global_counts.is_empty();
                None
            }
            Site::Local { func, slot } => {
                let lf = self.local_index(func);
                let change = self.code[lf].add_probe(slot, id, probe, &self.config);
                if change.copied {
                    // First probe in this function: its bytes were just
                    // copy-on-wrote into the process-local overlay.
                    self.stats.overlay_copies += 1;
                }
                change.stale.then_some(lf)
            }
        }
    }

    /// Uninstalls probe `id` (a no-op if it is not installed), restoring
    /// the probe byte / dispatch table as needed. Returns the local
    /// function to invalidate, as [`Process::do_insert`] does.
    fn do_remove(&mut self, id: ProbeId) -> Option<usize> {
        match id.site {
            Site::Global => {
                if self.probes.remove_global(id, &self.config) {
                    self.global_mode =
                        self.probes.has_global() && self.probes.global_counts.is_empty();
                }
                None
            }
            Site::Local { func, slot } => {
                let lf = self.local_index(func);
                let change = self.code[lf].remove_probe(slot, id, &self.config)?;
                change.stale.then_some(lf)
            }
        }
    }

    /// `true` while at least one global probe is installed.
    pub fn in_global_mode(&self) -> bool {
        self.probes.has_global()
    }

    /// Number of distinct locations with local probes.
    pub fn probed_location_count(&self) -> usize {
        self.code.iter().map(|c| c.probed_sites()).sum()
    }

    /// The [`ProbeKind`](crate::probe::ProbeKind)s of the probes
    /// installed at `(func, pc)`, in firing order. Empty if the location
    /// has no probes.
    ///
    /// This is the engine's own intrinsification view: a site whose kinds
    /// are all `Count` / `Operand` binds to inlined bumps / direct operand
    /// calls (when the corresponding `intrinsify_*` config flags are on)
    /// instead of a generic checkpointed fire. Used by tests and by the script compiler to
    /// *prove* that a lowering hit the fast path.
    pub fn probe_kinds_at(&self, func: FuncIdx, pc: u32) -> Vec<crate::probe::ProbeKind> {
        let n_imp = self.module.num_imported_funcs();
        if func < n_imp || func >= self.module.num_funcs() {
            return Vec::new();
        }
        let fc = &self.code[(func - n_imp) as usize];
        let Some(sites) = fc.sites() else {
            return Vec::new();
        };
        let slot = fc.artifact().ordinal_of(pc);
        slot.and_then(|s| sites.get(s as usize)).map_or_else(Vec::new, |site| {
            site.probes.iter().map(|(_, p)| p.borrow().kind()).collect()
        })
    }

    /// Validates that `(func, pc)` names an instruction boundary of a local
    /// function and returns the instruction's ordinal — the index of the
    /// function's site table. Boundaries come from the artifact's
    /// per-function instruction list (decoded on first demand), which the
    /// site tables and the register forms' sites share.
    pub(crate) fn check_location(&self, func: FuncIdx, pc: u32) -> Result<u32, ProbeError> {
        let n_imp = self.module.num_imported_funcs();
        if func < n_imp || func >= self.module.num_funcs() {
            return Err(ProbeError::NotALocalFunction(func));
        }
        let lf = (func - n_imp) as usize;
        self.code[lf].artifact().ordinal_of(pc).ok_or(ProbeError::InvalidPc(func, pc))
    }

    /// The execution views of local function `lf` — what every frame
    /// switch loads. The common case hands out the bundle the function's
    /// overlay caches (one process-local `Rc` bump); the function's first
    /// frame in this process, or its first after an overlay identity
    /// change, resolves it from the shared artifact.
    #[inline]
    pub(crate) fn views_for(&mut self, lf: usize) -> Rc<FuncViews> {
        match self.code[lf].cached_views() {
            Some(views) => views,
            None => self.resolve_views(lf),
        }
    }

    /// First touch: resolves the views, with the register form if it is
    /// built already (byte dispatch never reads one).
    #[cold]
    pub(crate) fn resolve_views(&mut self, lf: usize) -> Rc<FuncViews> {
        self.code[lf].resolve_views(self.config.dispatch != Dispatch::Bytecode)
    }

    /// `true` if local function `lf` can run in register form now: the
    /// artifact's shared form while uninstrumented — built on the first
    /// demand from any process, and counted in this process's
    /// [`EngineStats::functions_lowered`] if this demand built it — and
    /// this process's instrumented form otherwise, re-lowered if a probe
    /// invalidated it. `false` if the allocator declines the function.
    #[inline]
    pub(crate) fn has_reg_code(&mut self, lf: usize) -> bool {
        let (reg, built_now) = self.artifact.reg_func_init(lf);
        let lowered = reg.is_some();
        if built_now && lowered {
            self.stats.functions_lowered += 1;
        } else if built_now {
            self.stats.reg_fallbacks += 1;
        }
        lowered && (!self.code[lf].needs_reg() || self.lower_sites(lf))
    }

    /// Lowers instrumented function `lf`'s register form with one site per
    /// probed instruction (paper §4.5's recompile, counted in
    /// [`EngineStats::compiles`]), validating it under
    /// [`EngineConfig::validate_lowering`].
    ///
    /// # Panics
    ///
    /// Panics if validation was requested and the form fails it: the
    /// lowering is wrong, and running it would be too.
    #[cold]
    fn lower_sites(&mut self, lf: usize) -> bool {
        let sites = self.code[lf].claim_sites();
        let fa = Arc::clone(self.code[lf].artifact());
        let Some(reg) = regir::lower_func(&fa, &self.func_types, &self.module.types, &sites) else {
            return false;
        };
        if self.config.validate_lowering {
            if let Some(validate) = LOWERING_VALIDATOR.get() {
                if let Err(e) = validate(&self.artifact, lf, &reg) {
                    panic!("instrumented register form failed translation validation: {e}");
                }
            }
        }
        self.stats.compiles += 1;
        self.code[lf].set_reg(Arc::new(reg));
        true
    }

    /// Rebuilds `func`'s process-local overlay from the shared artifact,
    /// re-applying the currently-installed probe patches, and invalidates
    /// its instrumented register form. Counted in
    /// [`EngineStats::relower_passes`]. A function this process never
    /// instrumented has no overlay to rebuild; the call still invalidates
    /// (and recounts).
    ///
    /// Instrumentation never takes this path — probe insertion/removal
    /// patches overlay bytes in place. The API exists for tooling and tests
    /// that need a function's process-local caches provably rebuilt. The
    /// shared artifact itself is immutable and is never re-lowered.
    ///
    /// # Errors
    ///
    /// Fails if `func` is imported or out of range.
    pub fn relower(&mut self, func: FuncIdx) -> Result<(), ProbeError> {
        let n_imp = self.module.num_imported_funcs();
        if func < n_imp || func >= self.module.num_funcs() {
            return Err(ProbeError::NotALocalFunction(func));
        }
        let lf = (func - n_imp) as usize;
        self.code[lf].rebuild_overlay();
        self.code[lf].invalidate();
        self.stats.relower_passes += 1;
        Ok(())
    }

    /// Applies one instrumentation change (immediately; deferral during
    /// probe dispatch is handled by the pending queue in `exec`).
    pub(crate) fn apply_instrumentation(&mut self, p: Pending) {
        let stale = match p {
            Pending::Insert(id, probe) => self.do_insert(id, probe),
            Pending::Remove(id) => self.do_remove(id),
        };
        // The register form follows most changes by re-binding the site;
        // the ones it cannot follow invalidate it at once (paper §4.5).
        // Batches route through apply_batch to pay one pass for all of
        // them.
        if let Some(lf) = stale {
            self.code[lf].invalidate();
            self.stats.invalidation_passes += 1;
        }
    }

    /// The probe opcode currently at `(func, pc)`? Used by tests to verify
    /// bytecode overwriting behavior.
    pub fn has_probe_byte(&self, func: FuncIdx, pc: u32) -> bool {
        let n_imp = self.module.num_imported_funcs();
        if func < n_imp {
            return false;
        }
        let fc = &self.code[(func - n_imp) as usize];
        (pc as usize) < fc.len() && fc.byte_at(pc as usize) == op::PROBE
    }

    /// Returns a textual listing of the register form `func` runs in,
    /// lowering it if needed — the Figure-2 "generated code" view. Each
    /// probe site is listed as what it is currently bound to. Empty where
    /// there is no register form: under [`Dispatch::Bytecode`] and for a
    /// function the register allocator declines.
    ///
    /// # Errors
    ///
    /// Fails if `func` is not a local function.
    pub fn compiled_listing(&mut self, func: FuncIdx) -> Result<String, ProbeError> {
        let Some(reg) = self.reg_form(func)? else {
            return Ok(String::new());
        };
        let lf = self.local_index(func);
        let sites = self.code[lf].sites();
        let mut out = String::new();
        for idx in 0..reg.len() {
            let pc = reg.pc_of(idx);
            let ri = reg.get(idx);
            let text = match (&sites, ri.op) {
                (Some(sites), R_SITE) => describe_binding(&sites[ri.x as usize].binding, pc),
                _ => reg.describe(idx),
            };
            out.push_str(&format!("{idx:>4} (pc {pc:>4}): {text}\n"));
        }
        Ok(out)
    }

    /// The register form this process runs `func` in — the artifact's
    /// shared form (`Arc::ptr_eq` across uninstrumented siblings) or this
    /// process's instrumented one — lowering it if needed; `None` under
    /// [`Dispatch::Bytecode`] and for functions the allocator declines.
    ///
    /// # Errors
    ///
    /// Fails if `func` is imported or out of range.
    pub fn reg_form(&mut self, func: FuncIdx) -> Result<Option<Arc<RegFunc>>, ProbeError> {
        let n_imp = self.module.num_imported_funcs();
        if func < n_imp || func >= self.module.num_funcs() {
            return Err(ProbeError::NotALocalFunction(func));
        }
        if self.config.dispatch == Dispatch::Bytecode {
            return Ok(None);
        }
        let lf = (func - n_imp) as usize;
        if !self.has_reg_code(lf) {
            return Ok(None);
        }
        Ok(self.code[lf].reg().or_else(|| self.artifact.reg_func(lf).cloned()))
    }

    // ---- shared-artifact introspection ----

    /// The shared [`ModuleArtifact`] this process executes from. Two
    /// processes with `Arc::ptr_eq` artifacts share validated metadata,
    /// bytecode and register forms.
    pub fn artifact(&self) -> &Arc<ModuleArtifact> {
        &self.artifact
    }

    /// `true` while this process holds a copy-on-write instrumented copy
    /// of `func` (i.e. at least one of its own probes is installed there).
    /// Imported functions report `false`.
    pub fn has_overlay(&self, func: FuncIdx) -> bool {
        let n_imp = self.module.num_imported_funcs();
        if func < n_imp || func >= self.module.num_funcs() {
            return false;
        }
        self.code[(func - n_imp) as usize].has_overlay()
    }

    /// Identity (address) of the bytecode this process would dispatch
    /// `func` from — the artifact's shared bytes until a probe lands, the
    /// process-local overlay copy the probe opcode overwrites after. Two
    /// uninstrumented sibling processes report the *same* address: they
    /// literally share the code.
    ///
    /// # Errors
    ///
    /// Fails if `func` is imported or out of range.
    pub fn code_identity(&mut self, func: FuncIdx) -> Result<usize, ProbeError> {
        let n_imp = self.module.num_imported_funcs();
        if func < n_imp || func >= self.module.num_funcs() {
            return Err(ProbeError::NotALocalFunction(func));
        }
        Ok(self.code[(func - n_imp) as usize].bytes_view().addr())
    }

    /// Bytes of process-private code this process currently holds in
    /// copy-on-write overlays — 0 for an uninstrumented process, which
    /// executes entirely from the shared artifact. (The paper's detach
    /// guarantee, extended to memory: removing the last probe returns
    /// this to 0.)
    pub fn resident_overlay_bytes(&self) -> usize {
        self.code.iter().map(|c| c.overlay_size_bytes()).sum()
    }
}

impl Drop for Process {
    /// A process dropped mid-run abandons the run like
    /// [`Process::cancel_suspended`] does, so monitors that outlive it
    /// report what actually executed.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.abandon_suspended(true);
        }
    }
}

impl core::fmt::Debug for Process {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Process")
            .field("funcs", &self.module.num_funcs())
            .field("global_mode", &self.global_mode)
            .field("probes", &self.probes)
            .field("stats", &self.stats)
            .finish()
    }
}

/// Renders a probe site's binding for [`Process::compiled_listing`]: one
/// Figure-2 line per probe of an intrinsified site.
fn describe_binding(binding: &Binding, pc: u32) -> String {
    const COUNT: &str = "count.bump          ; intrinsified: inline counter increment";
    match binding {
        Binding::Empty => {
            "site.empty          ; probes removed: dropped at the next re-lowering".into()
        }
        Binding::Count(_) => COUNT.into(),
        Binding::Intrinsic(list) => {
            let lines: Vec<String> = list
                .iter()
                .map(|p| match p {
                    Intrinsified::Count(_) => COUNT.into(),
                    Intrinsified::Operand(_) => format!(
                        "probe.operand pc={pc} ; intrinsified: direct call with top-of-stack"
                    ),
                })
                .collect();
            lines.join("\n                ")
        }
        Binding::Generic => format!(
            "probe.generic pc={pc}  ; checkpoint state, runtime call, FrameAccessor available"
        ),
    }
}

/// Builds an execution for calling `func` with `args` pushed and the entry
/// frame set up (type-checked against the function's signature). `fuel`
/// makes it a metered (bounded) run.
///
/// # Panics
///
/// Panics if `args` do not match the function's parameter types.
fn start_call<'p>(
    proc: &'p mut Process,
    func: FuncIdx,
    args: &[Value],
    fuel: Option<u64>,
) -> Result<Exec<'p>, Trap> {
    assert!(
        args.iter().map(Value::ty).eq(proc.func_types[func as usize].params.iter().copied()),
        "argument types must match the function signature"
    );
    let mut ex = Exec::new(proc);
    ex.metered = fuel.is_some();
    ex.fuel = fuel.unwrap_or(0);
    for a in args {
        ex.values.push(a.to_slot().0);
    }
    match ex.do_call(func, Tier::Interp) {
        Ok(()) | Err(crate::exec::Sig::Switch) => Ok(ex),
        Err(crate::exec::Sig::Trap(t)) => Err(t),
        Err(crate::exec::Sig::Done) => unreachable!("entry call cannot signal done"),
    }
}

/// The tier dispatcher: runs frames in their current tier until the
/// invocation completes, traps, or (metered runs) exhausts its fuel slice.
fn drive(ex: &mut Exec<'_>) -> Result<Exit, Trap> {
    while !ex.frames.is_empty() {
        let tier = ex.frames.last().expect("non-empty").tier;
        let r = match tier {
            Tier::Interp => classic::run_frame(ex),
            Tier::Reg => regint::run_frame(ex),
        };
        match r? {
            Exit::Done => return Ok(Exit::Done),
            Exit::OutOfFuel => return Ok(Exit::OutOfFuel),
            Exit::Redispatch => {}
        }
    }
    Ok(Exit::Done)
}

/// Runs a metered `ex` of entry function `func` until completion or
/// suspension, doing the fuel accounting; a suspended run is parked back
/// in its process.
fn drive_bounded(mut ex: Exec<'_>, fuel: u64, func: FuncIdx) -> Result<RunOutcome, Trap> {
    // A trapping slice's fuel still counts as consumed — and so does a
    // panicking one's (a probe's or a host function's), which a scheduler
    // that survives the panic bills from this counter.
    let exit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drive(&mut ex)));
    ex.proc.stats.fuel_consumed += fuel - ex.fuel;
    let exit = exit.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    match exit {
        Ok(Exit::Done) => Ok(RunOutcome::Done(extract_results(&ex, func))),
        Ok(Exit::OutOfFuel) => {
            let (state, proc) = ex.into_state();
            proc.stats.suspensions += 1;
            proc.suspended = Some(Suspended { state, func });
            Ok(RunOutcome::OutOfFuel)
        }
        Ok(Exit::Redispatch) => unreachable!("drive loops on redispatch"),
        Err(t) => {
            unwind_trapped(&mut ex);
            Err(t)
        }
    }
}

/// Unwinds a trapped invocation, then tells the monitors where its
/// innermost frame stopped ([`Monitor::on_unwind`](crate::Monitor)).
fn unwind_trapped(ex: &mut Exec<'_>) {
    let top = ex.trap_location();
    ex.unwind();
    if let Some(top) = top {
        ex.proc.notify_unwind(top, true, false);
    }
}

/// Reads entry function `func`'s results off the (now quiescent) value stack.
fn extract_results(ex: &Exec<'_>, func: FuncIdx) -> Vec<Value> {
    let results = &ex.proc.func_types[func as usize].results;
    results.iter().enumerate().map(|(i, t)| Value::from_slot(Slot(ex.values[i]), *t)).collect()
}

fn eval_const(e: &ConstExpr, globals: &[u64], _types: &[GlobalType]) -> u64 {
    match e {
        ConstExpr::I32(v) => Slot::from_i32(*v).0,
        ConstExpr::I64(v) => Slot::from_i64(*v).0,
        ConstExpr::F32(v) => Slot::from_f32(*v).0,
        ConstExpr::F64(v) => Slot::from_f64(*v).0,
        ConstExpr::GlobalGet(i) => globals[*i as usize],
    }
}
