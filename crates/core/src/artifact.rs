//! Shared module artifacts: validate and lower **once**, instantiate many
//! times.
//!
//! A [`ModuleArtifact`] is everything about a module that is independent of
//! any particular process: the validated [`Module`], its validation
//! metadata, and the per-function lowered code ([`Lowered`]), register
//! form ([`RegFunc`]) and probe-free baseline JIT code, each built lazily
//! exactly once. The whole structure is immutable
//! and `Send + Sync`, so a fleet runner holds it in an `Arc` and every
//! worker thread instantiates processes from the same artifact —
//! [`Process::instantiate`](crate::Process::instantiate) skips
//! re-validation, re-lowering, and re-compilation entirely.
//!
//! The paper's non-intrusiveness guarantee is preserved per process by the
//! **copy-on-write instrumentation overlay**
//! ([`FuncOverlay`](crate::code::FuncOverlay)): uninstrumented processes
//! execute directly from the artifact's shared lowered slots, and the
//! first probe a process installs in a function copies just that
//! function's bytes and lowered slots into process-local storage. Sibling
//! processes of the same artifact never observe the probe.
//!
//! ```
//! use std::sync::Arc;
//! use wizard_engine::store::Linker;
//! use wizard_engine::{EngineConfig, ModuleArtifact, Process, Value};
//! use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
//! use wizard_wasm::types::ValType::I32;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mb = ModuleBuilder::new();
//! let mut f = FuncBuilder::new(&[I32], &[I32]);
//! f.local_get(0).i32_const(1).i32_add();
//! mb.add_func("inc", f);
//!
//! // Validate + lower once...
//! let artifact = Arc::new(ModuleArtifact::new(mb.build()?)?);
//! // ...instantiate twice: both processes share the artifact's code.
//! let mut p1 = Process::instantiate(Arc::clone(&artifact), EngineConfig::default(), &Linker::new())?;
//! let mut p2 = Process::instantiate(Arc::clone(&artifact), EngineConfig::default(), &Linker::new())?;
//! assert_eq!(p1.invoke_export("inc", &[Value::I32(1)])?, vec![Value::I32(2)]);
//! assert_eq!(p2.invoke_export("inc", &[Value::I32(41)])?, vec![Value::I32(42)]);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use wizard_wasm::module::{FuncIdx, Module};
use wizard_wasm::types::{FuncType, ValType};
use wizard_wasm::validate::{validate, FuncMeta, ValidateError};

use crate::jit::CompiledCode;
use crate::lowered::Lowered;
use crate::probe::Location;
use crate::regir::RegFunc;
use crate::runs::RunTable;

/// The immutable, shared per-function half of the code pipeline: pristine
/// bytecode, validation metadata, and the lazily-built-once lowered form,
/// register form and probe-free baseline JIT code.
///
/// Everything mutable about a function at runtime — probe bytes, the
/// copy-on-write op stream, compiled-code slots, hotness — lives in the
/// per-process [`FuncOverlay`](crate::code::FuncOverlay) instead.
#[derive(Debug)]
pub struct FuncArtifact {
    /// Global function index.
    pub func: FuncIdx,
    /// Pristine bytecode (never mutated; probe bytes land on the overlay).
    pub bytes: Arc<[u8]>,
    /// Branch side table and other validation metadata.
    pub meta: Arc<FuncMeta>,
    /// Types of params followed by declared locals.
    pub local_types: Arc<[ValType]>,
    /// Number of parameters.
    pub num_params: u32,
    /// Number of results (0 or 1).
    pub num_results: u32,
    /// The shared lowered form, built on first demand by whichever process
    /// needs it first and then shared by all.
    lowered: OnceLock<Arc<Lowered>>,
    /// The shared register form, built on the function's first clean
    /// activation in any process; `None` inside if the allocator declined
    /// the function. See [`ModuleArtifact::reg_func`].
    reg: OnceLock<Option<Arc<RegFunc>>>,
    /// Probe-free (instrumentation version 0) compiled code, shareable
    /// across processes until a probe lands; see
    /// [`FuncArtifact::baseline_compiled`].
    baseline: OnceLock<Arc<CompiledCode>>,
}

impl FuncArtifact {
    /// The shared lowered form, lowering now if no process has demanded it
    /// yet.
    pub fn lowered(&self) -> &Arc<Lowered> {
        self.lowered_init().0
    }

    /// As [`FuncArtifact::lowered`], additionally reporting whether *this*
    /// call performed the lowering — the hook
    /// [`EngineStats::functions_lowered`](crate::EngineStats) counting runs
    /// through.
    pub(crate) fn lowered_init(&self) -> (&Arc<Lowered>, bool) {
        let mut lowered_now = false;
        let low = self.lowered.get_or_init(|| {
            lowered_now = true;
            Arc::new(Lowered::lower(&self.bytes, &self.meta))
        });
        (low, lowered_now)
    }

    /// The probe-free baseline JIT code (compiled at instrumentation
    /// version 0), compiling now if no process has demanded it yet; the
    /// flag reports whether *this* call performed the compilation.
    ///
    /// Baseline code contains no probe sites, so it is identical for every
    /// process and every engine configuration — one compilation serves the
    /// whole fleet until a process instruments the function, at which
    /// point that process compiles privately against its own probe list.
    pub(crate) fn baseline_compiled(&self) -> (&Arc<CompiledCode>, bool) {
        let mut compiled_now = false;
        let code = self.baseline.get_or_init(|| {
            compiled_now = true;
            Arc::new(crate::jit::compile_baseline(self.lowered()))
        });
        (code, compiled_now)
    }

    /// The register form if some process already built it — lets
    /// validators and views read it without building it.
    pub fn reg_built(&self) -> Option<&Arc<RegFunc>> {
        self.reg.get()?.as_ref()
    }

    /// `true` once the shared lowered form has been built.
    pub fn is_lowered(&self) -> bool {
        self.lowered.get().is_some()
    }

    /// Total local slots (params + declared locals).
    pub fn num_slots(&self) -> u32 {
        self.local_types.len() as u32
    }

    /// Bytes of shared code this artifact holds for the function (pristine
    /// bytecode plus the lowered form, if built).
    pub fn code_size_bytes(&self) -> usize {
        self.bytes.len() + self.lowered.get().map_or(0, |l| l.size_bytes())
    }
}

/// A validated module plus its shared, immutable code pipeline — build it
/// once, `Arc`-share it, and instantiate any number of [`Process`]es from
/// it on any thread ([`Process::instantiate`]).
///
/// [`Process`]: crate::Process
/// [`Process::instantiate`]: crate::Process::instantiate
#[derive(Debug)]
pub struct ModuleArtifact {
    module: Arc<Module>,
    /// Per-local-function artifacts, indexed by local function index.
    funcs: Vec<Arc<FuncArtifact>>,
    /// Function types across the whole index space (imports first).
    func_types: Arc<[FuncType]>,
    /// Canonical type index of every entry of the module's type section:
    /// the index of the first structurally equal type. Two signatures are
    /// equal exactly when their canonical indices are, which is what
    /// `call_indirect` compares.
    type_canon: Arc<[u32]>,
    /// Canonical type index of every function's signature, across the
    /// whole index space like `func_types`.
    func_canon: Arc<[u32]>,
    /// Every instruction of every local function, in code order, and its
    /// partition into straight-line runs; see
    /// [`ModuleArtifact::instruction_sites`] and [`ModuleArtifact::runs`].
    runs: OnceLock<Arc<RunTable>>,
}

impl ModuleArtifact {
    /// Validates `module` and builds its shared artifact. This is the
    /// *only* place validation happens — instantiation from an artifact
    /// never re-validates.
    ///
    /// # Errors
    ///
    /// Returns the [`ValidateError`] if the module is invalid.
    pub fn new(module: Module) -> Result<ModuleArtifact, ValidateError> {
        let meta = validate(&module)?;
        let n_imp = module.num_imported_funcs();
        let mut func_types = Vec::with_capacity(module.num_funcs() as usize);
        for i in 0..module.num_funcs() {
            func_types.push(module.func_type(i).expect("validated").clone());
        }
        let mut first_of: HashMap<&FuncType, u32> = HashMap::new();
        let type_canon: Arc<[u32]> =
            (0u32..).zip(&module.types).map(|(i, ty)| *first_of.entry(ty).or_insert(i)).collect();
        let func_canon: Arc<[u32]> =
            module.func_type_indices().map(|t| type_canon[t as usize]).collect();
        let mut funcs = Vec::with_capacity(module.funcs.len());
        for (i, (f, m)) in module.funcs.iter().zip(meta.funcs.iter()).enumerate() {
            let ty = &module.types[f.type_idx as usize];
            let mut local_types: Vec<ValType> = ty.params.clone();
            local_types.extend(f.body.flat_locals());
            funcs.push(Arc::new(FuncArtifact {
                func: n_imp + i as u32,
                bytes: Arc::from(f.body.code.as_slice()),
                meta: Arc::new(m.clone()),
                local_types: Arc::from(local_types.into_boxed_slice()),
                num_params: ty.params.len() as u32,
                num_results: ty.results.len() as u32,
                lowered: OnceLock::new(),
                reg: OnceLock::new(),
                baseline: OnceLock::new(),
            }));
        }
        Ok(ModuleArtifact {
            module: Arc::new(module),
            funcs,
            func_types: func_types.into(),
            type_canon,
            func_canon,
            runs: OnceLock::new(),
        })
    }

    /// The validated module.
    pub fn module(&self) -> &Arc<Module> {
        &self.module
    }

    /// Function types across the whole index space (imports first).
    pub fn func_types(&self) -> &Arc<[FuncType]> {
        &self.func_types
    }

    /// Canonical index of type-section entry `type_idx` (see
    /// [`ModuleArtifact::canon_of_func`]).
    #[inline]
    pub fn canon_of_type(&self, type_idx: u32) -> u32 {
        self.type_canon[type_idx as usize]
    }

    /// Canonical type index of function `func`'s signature: equal to
    /// [`ModuleArtifact::canon_of_type`] of a type exactly when the two
    /// signatures are structurally equal.
    #[inline]
    pub fn canon_of_func(&self, func: FuncIdx) -> u32 {
        self.func_canon[func as usize]
    }

    /// The per-function artifacts, indexed by *local* function index.
    pub fn funcs(&self) -> &[Arc<FuncArtifact>] {
        &self.funcs
    }

    /// Number of locally-defined functions.
    pub fn num_local_funcs(&self) -> usize {
        self.funcs.len()
    }

    /// The register form ([`crate::regir`]) of local function `lf`,
    /// building it now if no process has demanded it yet; `None` if the
    /// register allocator declined the function, which then runs on the
    /// lowered stack tier.
    pub fn reg_func(&self, lf: usize) -> Option<&Arc<RegFunc>> {
        self.reg_func_init(lf).0
    }

    /// As [`ModuleArtifact::reg_func`], additionally reporting whether
    /// *this* call performed the build — the hook
    /// [`EngineStats::functions_reg_lowered`](crate::EngineStats) and
    /// `reg_fallbacks` counting runs through.
    pub(crate) fn reg_func_init(&self, lf: usize) -> (Option<&Arc<RegFunc>>, bool) {
        let fa = &self.funcs[lf];
        let mut built_now = false;
        let reg = fa.reg.get_or_init(|| {
            built_now = true;
            crate::regir::lower_func(fa, &self.func_types, &self.module.types).map(Arc::new)
        });
        (reg.as_ref(), built_now)
    }

    /// Every instruction of every locally-defined function, in code order —
    /// the site list of whole-module monitors (coverage; hotness through
    /// [`ModuleArtifact::runs`], which this list is one half of). Read off
    /// the lowered forms' `slot → pc` maps (lowering what is not lowered
    /// yet) once per artifact, so an attach never re-decodes a body.
    pub fn instruction_sites(&self) -> &Arc<[Location]> {
        self.runs().sites()
    }

    /// The site list and its partition into straight-line *runs* — what a
    /// whole-function counting monitor needs to count with one probe per
    /// run instead of one per instruction ([`RunCounts`](crate::RunCounts)).
    /// Built on a monitor's first request (lowering what is not lowered
    /// yet), once per artifact; never at construction or by
    /// [`ModuleArtifact::lower_all`].
    pub fn runs(&self) -> &Arc<RunTable> {
        self.runs.get_or_init(|| {
            let pcs = |f: &Arc<FuncArtifact>| {
                let (func, low) = (f.func, Arc::clone(f.lowered()));
                (0..low.len()).map(move |slot| Location { func, pc: low.pc_of(slot) })
            };
            Arc::new(RunTable::build(&self.funcs, self.funcs.iter().flat_map(pcs).collect()))
        })
    }

    /// Forces every function's lowered form to be built now. Optional —
    /// lowering is lazy and shared either way — but a fleet runner can
    /// call this once to take the whole decode tax off the serving path.
    pub fn lower_all(&self) {
        for f in &self.funcs {
            let _ = f.lowered();
        }
    }

    /// Bytes of shared code the artifact currently holds (pristine
    /// bytecode plus every lowered form built so far) — the per-process
    /// memory each additional sibling instantiation does *not* pay.
    pub fn code_size_bytes(&self) -> usize {
        self.funcs.iter().map(|f| f.code_size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::ValType::I32;

    fn artifact() -> ModuleArtifact {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0).i32_const(1).i32_add();
        mb.add_func("inc", f);
        ModuleArtifact::new(mb.build().unwrap()).unwrap()
    }

    #[test]
    fn artifact_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModuleArtifact>();
        assert_send_sync::<FuncArtifact>();
    }

    #[test]
    fn lowering_is_lazy_shared_and_counted_once() {
        let a = artifact();
        assert!(!a.funcs()[0].is_lowered());
        let (_, first) = a.funcs()[0].lowered_init();
        assert!(first, "first demand lowers");
        let (low1, again) = a.funcs()[0].lowered_init();
        assert!(!again, "second demand shares");
        let low2 = a.funcs()[0].lowered();
        assert_eq!(low1.ops_addr(), low2.ops_addr());
        assert!(a.funcs()[0].code_size_bytes() > a.funcs()[0].bytes.len());
    }

    #[test]
    fn invalid_module_fails_at_artifact_build() {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0);
        mb.add_func("id", f);
        let mut m = mb.build().unwrap();
        // Corrupt the body behind the builder's back: i32.add underflows.
        m.funcs[0].body.code = vec![wizard_wasm::opcodes::I32_ADD, wizard_wasm::opcodes::END];
        assert!(ModuleArtifact::new(m).is_err());
    }

    #[test]
    fn instruction_sites_list_every_boundary_once() {
        let a = artifact();
        let sites = a.instruction_sites();
        // local.get 0; i32.const 1; i32.add; end
        let pcs: Vec<u32> = sites.iter().map(|l| l.pc).collect();
        assert_eq!(pcs, [0, 2, 4, 5]);
        assert!(sites.iter().all(|l| l.func == 0));
        assert!(Arc::ptr_eq(sites, a.instruction_sites()), "built once");
    }

    #[test]
    fn runs_split_at_branch_targets_and_after_calls() {
        use wizard_wasm::types::BlockType;
        let mut mb = ModuleBuilder::new();
        let callee = mb.declare_func("callee", &[I32], &[I32]);
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0);
        mb.define_func(callee, f);
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0).call(callee).if_(BlockType::Value(I32));
        f.i32_const(1);
        f.else_();
        f.i32_const(2);
        f.end();
        mb.add_func("f", f);
        let a = ModuleArtifact::new(mb.build().unwrap()).unwrap();
        a.lower_all();
        assert!(a.runs.get().is_none(), "lower_all does not build the run table");
        let runs = a.runs();
        let leaders: Vec<Location> = (0..runs.len()).map(|r| runs.leader(r)).collect();
        let sites = a.instruction_sites();
        let at = |func, nth: usize| {
            *sites.iter().filter(|l| l.func == func).nth(nth).expect("instruction exists")
        };
        // callee: one run. f: local.get call | if | const else | const end | end
        // (`else` skips past the `if`'s own `end`).
        let expect = [at(0, 0), at(1, 0), at(1, 2), at(1, 3), at(1, 5), at(1, 7)];
        assert_eq!(leaders, expect);
        for (r, leader) in leaders.iter().enumerate() {
            let run = runs.run(r);
            assert_eq!(runs.site_index(*leader), Some(run.start));
            assert!(run.clone().all(|s| runs.run_of(s) == r));
        }
        assert_eq!(runs.run(runs.len() - 1).end, sites.len());
        assert!(Arc::ptr_eq(runs, a.runs()), "built once");
    }

    #[test]
    fn lower_all_prewarms_every_function() {
        let a = artifact();
        a.lower_all();
        assert!(a.funcs().iter().all(|f| f.is_lowered()));
    }

    #[test]
    fn baseline_code_compiles_once_and_is_shared() {
        let a = artifact();
        let (_, first) = a.funcs()[0].baseline_compiled();
        assert!(first);
        let (c1, again) = a.funcs()[0].baseline_compiled();
        assert!(!again);
        assert_eq!(c1.version, 0);
    }
}
