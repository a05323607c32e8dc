//! Per-function **instrumentation overlays**: the process-local, mutable
//! half of the code pipeline.
//!
//! The immutable half — pristine bytecode, validation metadata, the shared
//! lowered form — lives in the `Arc`-shared
//! [`FuncArtifact`]. A [`FuncOverlay`] owns
//! everything one process may mutate about one function:
//!
//! * the **copy-on-write instrumented code**: the first probe installed in
//!   a function copies its bytes and lowered op stream into process-local
//!   storage (`FuncOverlay::add_probe`), and removing the last probe
//!   drops the copy again so the process *rejoins* the shared artifact
//!   (`FuncOverlay::remove_probe`) — sibling processes of the same
//!   artifact never observe either transition;
//! * the **site table**, allocated and dropped with that copy: one entry
//!   per lowered slot, holding the site's ordered probe list and the
//!   *binding* compiled code executes there — what insertion, removal,
//!   firing and compilation need to know about a probe site is one array
//!   read away (the overwritten instruction is another: the shared
//!   artifact still has it);
//! * the instrumentation version and the compiled-code slot (probe-free
//!   code is shared from the artifact; instrumented code is private);
//! * the hotness counter driving tier-up;
//! * the function's **resolved execution views** ([`FuncViews`]): the
//!   byte view, lowered view, register form and metadata the execution
//!   tiers read, resolved from the shared artifact once per process and
//!   handed to every frame switch as one process-local `Rc`.
//!
//! Local probes still work by *bytecode overwriting* (paper §4.2): the
//! probed instruction's opcode byte is replaced by [`op::PROBE`] on the
//! overlay copy; immediates are never touched, so all other offsets remain
//! valid — the property that makes overwriting vastly simpler than
//! bytecode injection.

use std::cell::{Cell, Ref, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use wizard_wasm::leb128;
use wizard_wasm::module::FuncIdx;
use wizard_wasm::opcodes as op;
use wizard_wasm::types::ValType;
use wizard_wasm::validate::FuncMeta;

use crate::artifact::FuncArtifact;
use crate::jit::Compiled;
use crate::lowered::{Lowered, LoweredView, OverlayOps};
use crate::probe::{Binding, Entry, ProbeId, ProbeRef};
use crate::regir::RegFunc;
use crate::EngineConfig;

/// A process-local copy-on-write byte stream (mirrors
/// [`OverlayOps`] one level down).
pub type OverlayBytes = Rc<[Cell<u8>]>;

/// A function's bytecode as the execution tiers read it: the artifact's
/// shared pristine bytes, overlaid by the process-local copy-on-write
/// cells once the function is instrumented.
///
/// Uninstrumented processes read (and share) the pristine bytes directly;
/// a probe materializes the overlay and flips every reader of this view to
/// the instrumented copy. The view itself is read-only — writes go through
/// [`FuncOverlay`], which owns the overlay cells.
#[derive(Debug, Clone)]
pub struct CodeBytes {
    shared: Arc<[u8]>,
    local: Option<OverlayBytes>,
}

impl CodeBytes {
    /// Wraps a byte slice as a (pristine, shared) code view. Used by tests
    /// and as the empty placeholder; real processes get their views from
    /// [`FuncOverlay::bytes_view`].
    pub fn new(bytes: &[u8]) -> CodeBytes {
        CodeBytes { shared: Arc::from(bytes), local: None }
    }

    pub(crate) fn with_overlay(shared: Arc<[u8]>, local: Option<OverlayBytes>) -> CodeBytes {
        CodeBytes { shared, local }
    }

    /// Code length in bytes.
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// `true` if the body is empty.
    pub fn is_empty(&self) -> bool {
        self.shared.is_empty()
    }

    /// `true` while this view reads a process-local copy-on-write byte
    /// stream instead of the artifact's.
    pub fn is_overlaid(&self) -> bool {
        self.local.is_some()
    }

    /// Reads the byte at `pc`.
    #[inline]
    pub fn byte(&self, pc: usize) -> u8 {
        match &self.local {
            Some(cells) => cells[pc].get(),
            None => self.shared[pc],
        }
    }

    /// Reads the byte at `pc`, if in range.
    #[inline]
    fn get(&self, pc: usize) -> Option<u8> {
        match &self.local {
            Some(cells) => cells.get(pc).map(Cell::get),
            None => self.shared.get(pc).copied(),
        }
    }

    /// Reads an unsigned LEB128 u32 at `pos`, returning `(value, next pos)`.
    ///
    /// Delegates to the shared [`leb128`] reader so the normalization
    /// contract (see that module's docs) lives in exactly one place.
    ///
    /// # Panics
    ///
    /// Panics on malformed encodings — impossible for validated code.
    #[inline]
    pub fn read_u32(&self, pos: usize) -> (u32, usize) {
        leb128::read_u32_by(|i| self.get(i), pos).expect("validated code has well-formed LEB128")
    }

    /// Reads a signed LEB128 i32 at `pos` (shared [`leb128`] contract).
    #[inline]
    pub fn read_i32(&self, pos: usize) -> (i32, usize) {
        leb128::read_i32_by(|i| self.get(i), pos).expect("validated code has well-formed LEB128")
    }

    /// Reads a signed LEB128 i64 at `pos` (shared [`leb128`] contract).
    #[inline]
    pub fn read_i64(&self, pos: usize) -> (i64, usize) {
        leb128::read_i64_by(|i| self.get(i), pos).expect("validated code has well-formed LEB128")
    }

    /// Reads 4 little-endian bytes at `pos`.
    #[inline]
    pub fn read_f32_bits(&self, pos: usize) -> (u32, usize) {
        let mut v = 0u32;
        for i in 0..4 {
            v |= u32::from(self.byte(pos + i)) << (8 * i);
        }
        (v, pos + 4)
    }

    /// Reads 8 little-endian bytes at `pos`.
    #[inline]
    pub fn read_f64_bits(&self, pos: usize) -> (u64, usize) {
        let mut v = 0u64;
        for i in 0..8 {
            v |= u64::from(self.byte(pos + i)) << (8 * i);
        }
        (v, pos + 8)
    }
}

/// Everything the execution tiers read about one function, resolved
/// **once per process** from the shared [`FuncArtifact`] and this process's
/// overlay.
///
/// The rule this type exists for: *execution never writes to memory shared
/// between processes*. Every handle in here is a clone of an artifact-owned
/// `Arc`, and cloning one is an atomic read-modify-write on a cache line
/// every sibling process — on every worker thread — also touches. So the
/// clones are taken a single time, on the first frame that enters the
/// function (`FuncOverlay::resolve_views`), and the bundle lives behind a
/// process-local `Rc`: a call, return, tier switch or slice resume switches
/// [`Exec`](crate::exec) to a function with one non-atomic `Rc` bump and
/// touches nothing shared. The cached bundle is dropped (and lazily
/// re-resolved) only when the overlay changes identity — copy-on-write
/// materialization, rejoin, rebuild.
#[derive(Debug)]
pub struct FuncViews {
    /// The function's bytecode view: shared pristine bytes, or the
    /// process-local instrumented overlay.
    pub code: CodeBytes,
    /// The function's lowered view: the artifact's shared op stream until
    /// this process instruments the function, then its copy-on-write
    /// overlay. Empty (never read) under [`Dispatch::Bytecode`](crate::Dispatch),
    /// whose execution does not lower.
    pub low: LoweredView,
    /// The function's register form, if some process had built it when
    /// these views were resolved (a clean activation builds it first; see
    /// `Exec::load_cur`); `None` under
    /// [`Dispatch::Bytecode`](crate::Dispatch) and for functions the
    /// allocator declined.
    pub reg: Option<Arc<RegFunc>>,
    /// Validation metadata (the classic interpreter's branch side table).
    pub meta: Arc<FuncMeta>,
}

thread_local! {
    /// The one placeholder bundle per thread: what `Exec` points at before
    /// its first frame loads, and the source of the never-read empty
    /// lowered view of byte-dispatch processes.
    static PLACEHOLDER: Rc<FuncViews> = Rc::new(FuncViews {
        code: CodeBytes::new(&[]),
        low: LoweredView::empty(),
        reg: None,
        meta: Arc::new(FuncMeta::default()),
    });
}

impl FuncViews {
    /// The shared (per-thread) placeholder: views of no function.
    pub(crate) fn placeholder() -> Rc<FuncViews> {
        PLACEHOLDER.with(Rc::clone)
    }
}

/// One entry of a function's site table: everything the engine knows
/// about the probes at one instruction.
///
/// The instruction a probe overwrote needs no field: probe opcodes only
/// ever land on the overlay's copies, so the saved original *is* the
/// shared artifact's ([`LoweredView::original`],
/// [`FuncOverlay::orig_opcode`]).
pub(crate) struct SiteEntry {
    /// The site's probes in insertion — firing — order.
    pub probes: Vec<Entry>,
    /// What compiled code does here; always `Binding::of(probes)`.
    pub binding: Binding,
    /// The instrumentation version of the compiled code that carries this
    /// site's micro-op, [`NOT_COMPILED`] if none ever did. Compiled code
    /// of the *current* version re-binds in place when the list changes;
    /// a probe landing anywhere else invalidates.
    compiled_at: u32,
}

const NOT_COMPILED: u32 = u32::MAX;

/// The process-local copy-on-write half of an instrumented function.
struct Cow {
    /// Instrumented bytecode.
    bytes: OverlayBytes,
    /// Lowered op stream, patched in tandem with `bytes`.
    ops: OverlayOps,
    /// The site table, indexed by lowered slot.
    sites: Box<[SiteEntry]>,
    /// Sites currently holding probes (probe bytes installed).
    live: usize,
}

/// What [`FuncOverlay::add_probe`] / [`FuncOverlay::remove_probe`] did
/// beyond the list edit itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SiteChange {
    /// The overlay was materialized (counted in
    /// [`EngineStats::overlay_copies`](crate::EngineStats)).
    pub copied: bool,
    /// Compiled code cannot follow the change by re-binding — the probe
    /// landed on an instruction its compiled code has no site for, or the
    /// function's last probe left and the overlay was dropped: the caller
    /// must [`FuncOverlay::invalidate`].
    pub stale: bool,
}

/// The engine's per-process, per-function code object: a shared
/// [`FuncArtifact`] plus this process's instrumentation overlay and tier
/// state.
pub struct FuncOverlay {
    /// The shared, immutable half.
    art: Arc<FuncArtifact>,
    /// Copy-on-write instrumented code and its site table; `None` while
    /// uninstrumented.
    cow: RefCell<Option<Cow>>,
    /// Instrumentation version; bumped (strictly monotonically — see
    /// [`FuncOverlay::invalidate`]) whenever compiled code is invalidated
    /// (paper §4.5).
    pub version: Cell<u32>,
    /// Compiled (JIT-tier) code, if any and still valid. While the
    /// function is probe-free this wraps the artifact's shared baseline
    /// op stream; otherwise it is private.
    pub compiled: RefCell<Option<Rc<Compiled>>>,
    /// Hotness counter driving tier-up — and, re-armed whenever a removal
    /// leaves a dead site in compiled code, the lazy recompile that drops
    /// it (`FuncOverlay::remove_probe`).
    pub hotness: Cell<u32>,
    /// Run counters ([`RunCounts`](crate::RunCounts)) holding leader probes
    /// in this function. While there is one, the sites other monitors
    /// empty are kept instead of being dropped by the lazy recompile: the
    /// run counter stands in for a probe on every instruction, and a
    /// monitor swapped in beside it re-binds onto those sites as it did
    /// when the counter held each of them itself.
    pub(crate) run_counters: Cell<u32>,
    /// The resolved execution views, `None` until the first frame enters
    /// the function and again after every overlay identity change.
    views: RefCell<Option<Rc<FuncViews>>>,
}

impl core::fmt::Debug for FuncOverlay {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FuncOverlay")
            .field("func", &self.art.func)
            .field("probed_sites", &self.probed_sites())
            .field("version", &self.version.get())
            .field("compiled", &self.compiled.borrow().is_some())
            .finish()
    }
}

impl FuncOverlay {
    /// A fresh (uninstrumented) overlay over `art`.
    pub fn new(art: Arc<FuncArtifact>) -> FuncOverlay {
        FuncOverlay {
            art,
            cow: RefCell::new(None),
            version: Cell::new(0),
            compiled: RefCell::new(None),
            hotness: Cell::new(0),
            run_counters: Cell::new(0),
            views: RefCell::new(None),
        }
    }

    /// The shared half.
    pub fn artifact(&self) -> &Arc<FuncArtifact> {
        &self.art
    }

    /// Global function index.
    pub fn func(&self) -> FuncIdx {
        self.art.func
    }

    /// Validation metadata.
    pub fn meta(&self) -> &Arc<FuncMeta> {
        &self.art.meta
    }

    /// Types of params followed by declared locals.
    pub fn local_types(&self) -> &Arc<[ValType]> {
        &self.art.local_types
    }

    /// Number of parameters.
    pub fn num_params(&self) -> u32 {
        self.art.num_params
    }

    /// Number of results (0 or 1).
    pub fn num_results(&self) -> u32 {
        self.art.num_results
    }

    /// Total local slots (params + declared locals).
    pub fn num_slots(&self) -> u32 {
        self.art.num_slots()
    }

    /// `true` while this process holds a copy-on-write instrumented copy
    /// of the function (i.e. at least one probe byte is installed).
    pub fn has_overlay(&self) -> bool {
        self.cow.borrow().is_some()
    }

    /// Number of locations in this function currently holding probes.
    pub fn probed_sites(&self) -> usize {
        self.cow.borrow().as_ref().map_or(0, |c| c.live)
    }

    /// The byte view the execution tiers read: pristine shared bytes, or
    /// the instrumented overlay copy.
    pub fn bytes_view(&self) -> CodeBytes {
        let local = self.cow.borrow().as_ref().map(|c| Rc::clone(&c.bytes));
        CodeBytes::with_overlay(Arc::clone(&self.art.bytes), local)
    }

    /// The lowered view the execution tiers dispatch through (lowering the
    /// shared form on first demand): shared pristine slots, or the
    /// patched overlay copy.
    pub fn lowered_view(&self) -> LoweredView {
        let low = (**self.art.lowered()).clone();
        match &*self.cow.borrow() {
            Some(c) => LoweredView::overlaid(low, Rc::clone(&c.ops)),
            None => LoweredView::shared(low),
        }
    }

    /// The resolved execution views, if some frame already entered the
    /// function since the overlay last changed identity. One non-atomic
    /// `Rc` bump; nothing shared is written.
    #[inline]
    pub(crate) fn cached_views(&self) -> Option<Rc<FuncViews>> {
        self.views.borrow().clone()
    }

    /// Resolves and caches the execution views — the one place per
    /// function per process that clones out of the shared artifact.
    /// `lowered` is `false` for byte-dispatch processes, which must not
    /// force the shared lowering. The register form is picked up only if
    /// it is built already: the views never build it.
    pub(crate) fn resolve_views(&self, lowered: bool) -> Rc<FuncViews> {
        let low = if lowered { self.lowered_view() } else { PLACEHOLDER.with(|p| p.low.clone()) };
        let views = Rc::new(FuncViews {
            code: self.bytes_view(),
            low,
            reg: if lowered { self.art.reg_built().cloned() } else { None },
            meta: Arc::clone(&self.art.meta),
        });
        *self.views.borrow_mut() = Some(Rc::clone(&views));
        views
    }

    /// The byte at `pc` as this process sees it.
    pub fn byte_at(&self, pc: usize) -> u8 {
        match &*self.cow.borrow() {
            Some(c) => c.bytes[pc].get(),
            None => self.art.bytes[pc],
        }
    }

    /// Body length in bytes.
    pub fn len(&self) -> usize {
        self.art.bytes.len()
    }

    /// `true` if the body is empty.
    pub fn is_empty(&self) -> bool {
        self.art.bytes.is_empty()
    }

    /// Bytes of process-private code this overlay currently holds (the
    /// copy-on-write copies; 0 while uninstrumented) — the "resident code
    /// size" a process pays only for the functions it instruments.
    pub fn overlay_size_bytes(&self) -> usize {
        self.cow.borrow().as_ref().map_or(0, |c| {
            c.bytes.len() + c.ops.len() * core::mem::size_of::<crate::lowered::LInstr>()
        })
    }

    /// The site table, for the readers on the execution side: probe
    /// firing, the probe handlers and compiled code's site micro-ops.
    /// `None` while uninstrumented. The borrow must not be held across
    /// anything that can apply instrumentation changes.
    #[inline]
    pub(crate) fn sites(&self) -> Option<Ref<'_, [SiteEntry]>> {
        Ref::filter_map(self.cow.borrow(), |c| c.as_ref().map(|c| &*c.sites)).ok()
    }

    /// Adds `probe` to the end of the list at lowered slot `slot` and
    /// re-binds the site. The function's first probe materializes the
    /// overlay — bytes, lowered ops and site table; a site's first probe
    /// overwrites the instruction's opcode, in the bytes and in the lowered
    /// slot, with the probe opcode (paper §4.2).
    pub(crate) fn add_probe(
        &self,
        slot: u32,
        id: ProbeId,
        probe: ProbeRef,
        config: &EngineConfig,
    ) -> SiteChange {
        let low = self.art.lowered();
        let mut cow = self.cow.borrow_mut();
        let copied = cow.is_none();
        let cow = cow.get_or_insert_with(|| {
            // Identity change: resolved views still read the shared
            // streams. The next frame switch re-resolves.
            self.views.take();
            Cow {
                bytes: self.art.bytes.iter().map(|&b| Cell::new(b)).collect(),
                ops: low.cow_ops(),
                sites: (0..low.len())
                    .map(|_| SiteEntry {
                        probes: Vec::new(),
                        binding: Binding::Empty,
                        compiled_at: NOT_COMPILED,
                    })
                    .collect(),
                live: 0,
            }
        });
        let site = &mut cow.sites[slot as usize];
        if site.probes.is_empty() {
            cow.bytes[low.pc_of(slot as usize) as usize].set(op::PROBE);
            Lowered::patch_probe(&cow.ops, slot);
            cow.live += 1;
        }
        site.probes.push((id, probe));
        site.binding = Binding::of(&site.probes, config);
        SiteChange { copied, stale: site.compiled_at != self.version.get() }
    }

    /// Removes probe `id` from the list at `slot` and re-binds the site;
    /// `None` if it is not installed there. A site's last probe restores
    /// the instruction (bytes and lowered slot); the function's last
    /// probed site drops the overlay and the process rejoins the shared
    /// artifact (probe-freeness makes the shared baseline JIT code eligible
    /// again).
    pub(crate) fn remove_probe(
        &self,
        slot: u32,
        id: ProbeId,
        config: &EngineConfig,
    ) -> Option<SiteChange> {
        let mut guard = self.cow.borrow_mut();
        let cow = guard.as_mut()?;
        let site = cow.sites.get_mut(slot as usize)?;
        let at = site.probes.iter().position(|(pid, _)| *pid == id)?;
        site.probes.remove(at);
        site.binding = Binding::of(&site.probes, config);
        if !site.probes.is_empty() {
            return Some(SiteChange { copied: false, stale: false });
        }
        let low = self.art.lowered();
        let pc = low.pc_of(slot as usize) as usize;
        cow.bytes[pc].set(self.art.bytes[pc]);
        cow.ops[slot as usize].set(low.get(slot as usize));
        cow.live -= 1;
        if cow.live == 0 {
            *guard = None;
            self.views.take();
            return Some(SiteChange { copied: false, stale: true });
        }
        if site.compiled_at == self.version.get() {
            // Compiled code now carries a dead site. Re-arm the tier-up
            // counter to the threshold — the function stays hot — and let
            // the dead sites count a second threshold on top: once they
            // have been crossed that often with no further removal, the
            // function recompiles without them (`jit::run_frame`).
            self.hotness.set(config.tierup_threshold);
        }
        Some(SiteChange { copied: false, stale: false })
    }

    /// `true` if probe `id` is installed at `slot`.
    pub(crate) fn has_probe(&self, slot: u32, id: ProbeId) -> bool {
        self.sites().is_some_and(|sites| {
            sites.get(slot as usize).is_some_and(|s| s.probes.iter().any(|(pid, _)| *pid == id))
        })
    }

    /// For the compiler: `true` if `slot` currently holds probes, in which
    /// case the code being compiled (at the current version) is recorded
    /// as carrying the site's micro-op.
    pub(crate) fn claim_site(&self, slot: usize) -> bool {
        let mut cow = self.cow.borrow_mut();
        let Some(site) = cow.as_mut().map(|c| &mut c.sites[slot]) else {
            return false;
        };
        let live = !site.probes.is_empty();
        if live {
            site.compiled_at = self.version.get();
        }
        live
    }

    /// Rebuilds the overlay's code copies from the shared artifact,
    /// re-applying the currently-installed probe patches (the site table
    /// is kept). Used by [`Process::relower`](crate::Process::relower);
    /// probe traffic never takes this path. A function with no overlay is
    /// left sharing the artifact (nothing to rebuild).
    pub fn rebuild_overlay(&self) {
        let mut guard = self.cow.borrow_mut();
        let Some(cow) = guard.as_mut() else {
            return;
        };
        let low = self.art.lowered();
        cow.bytes = self.art.bytes.iter().map(|&b| Cell::new(b)).collect();
        cow.ops = low.cow_ops();
        for (slot, site) in cow.sites.iter().enumerate() {
            if !site.probes.is_empty() {
                cow.bytes[low.pc_of(slot) as usize].set(op::PROBE);
                Lowered::patch_probe(&cow.ops, slot as u32);
            }
        }
        self.views.take();
    }

    /// The original opcode at `pc`, whether or not a probe byte currently
    /// overwrites it: probe bytes only ever land on the overlay, so the
    /// shared bytes are the originals.
    #[inline]
    pub fn orig_opcode(&self, pc: u32) -> u8 {
        self.art.bytes[pc as usize]
    }

    /// Invalidates compiled code and bumps the instrumentation version.
    ///
    /// Probe traffic calls this only when compiled code cannot follow a
    /// change by re-binding its sites in place: a probe landed on an
    /// instruction the code has no site micro-op for, the function's last
    /// probe left (the overlay and its site table are gone, and the shared
    /// baseline is eligible again), or a quiet period ended and the code's
    /// dead sites are being dropped.
    ///
    /// The version is strictly monotonic — never reused — because live
    /// JIT frames detect staleness by comparing their recorded version
    /// against the current compile's; a recurring version would let a
    /// parked frame resume at a saved `cip` inside a differently-laid-out
    /// op stream. Baseline-code sharing does not need version 0: it is
    /// keyed on probe-freeness ([`FuncOverlay::has_overlay`]), and the
    /// per-process [`Compiled`] wrapper stamps the shared op stream with
    /// the process's current version.
    pub fn invalidate(&self) {
        *self.compiled.borrow_mut() = None;
        self.version.set(self.version.get() + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ModuleArtifact;
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::ValType::I32;

    /// Builds an overlay over a real validated single-function module:
    /// `inc(x) = x + k` with enough body to probe.
    fn overlay() -> FuncOverlay {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.nop().local_get(0).i32_const(5).i32_add();
        mb.add_func("inc", f);
        let art = ModuleArtifact::new(mb.build().unwrap()).unwrap();
        FuncOverlay::new(Arc::clone(&art.funcs()[0]))
    }

    /// A test double for the engine side of instrumentation: hands out
    /// ids and drives `add_probe` / `remove_probe` by byte pc.
    struct Probes {
        registry: crate::probe::ProbeRegistry,
        config: EngineConfig,
    }

    impl Probes {
        fn new() -> Probes {
            Probes { registry: Default::default(), config: EngineConfig::default() }
        }

        fn add(
            &mut self,
            c: &FuncOverlay,
            pc: u32,
            probe: impl crate::Probe,
        ) -> (ProbeId, SiteChange) {
            let slot = c.artifact().lowered().slot_of(pc).unwrap();
            let id = self.registry.fresh_id(crate::probe::Site::Local { func: c.func(), slot });
            (id, c.add_probe(slot, id, Rc::new(RefCell::new(probe)), &self.config))
        }

        fn remove(&self, c: &FuncOverlay, id: ProbeId) -> Option<SiteChange> {
            let crate::probe::Site::Local { slot, .. } = id.site else { unreachable!() };
            c.remove_probe(slot, id, &self.config)
        }
    }

    use crate::probe::{CountProbe, EmptyProbe};

    #[test]
    fn overwrite_and_restore_round_trip_rejoins() {
        let c = overlay();
        let mut probes = Probes::new();
        assert!(!c.has_overlay());
        let (a, change) = probes.add(&c, 0, EmptyProbe);
        assert_eq!(change, SiteChange { copied: true, stale: true }, "first probe copies");
        assert!(c.has_overlay());
        assert_eq!(c.byte_at(0), op::PROBE);
        assert_eq!(c.orig_opcode(0), op::NOP);
        // Pristine shared bytes untouched.
        assert_eq!(c.artifact().bytes[0], op::NOP);
        // Second probe in the same function: no new copy.
        let pc1 = 1; // local.get 0
        let (b, change) = probes.add(&c, pc1, EmptyProbe);
        assert!(!change.copied);
        assert_eq!(c.orig_opcode(pc1), op::LOCAL_GET);
        assert_eq!(c.probed_sites(), 2);
        // Restores: the last one drops the overlay entirely.
        assert_eq!(probes.remove(&c, b), Some(SiteChange { copied: false, stale: false }));
        assert!(c.has_overlay());
        assert_eq!(c.byte_at(pc1 as usize), op::LOCAL_GET);
        let rejoined = probes.remove(&c, a).unwrap();
        assert!(rejoined.stale, "last restore rejoins the artifact: compiled code must go");
        assert!(!c.has_overlay());
        assert_eq!(c.byte_at(0), op::NOP);
        assert_eq!(c.overlay_size_bytes(), 0);
        assert_eq!(probes.remove(&c, a), None, "removing twice is a no-op");
    }

    #[test]
    fn insertion_order_is_list_order() {
        let c = overlay();
        let mut probes = Probes::new();
        let (a, _) = probes.add(&c, 0, EmptyProbe);
        let (b, _) = probes.add(&c, 0, CountProbe::new());
        assert_eq!(c.probed_sites(), 1, "two probes, one site");
        let ids: Vec<ProbeId> = c.sites().unwrap()[0].probes.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [a, b]);
        assert!(c.has_probe(0, b) && !c.has_probe(1, b));
        // The binding follows the list.
        assert!(matches!(c.sites().unwrap()[0].binding, Binding::Generic));
        probes.remove(&c, a).unwrap();
        assert!(matches!(c.sites().unwrap()[0].binding, Binding::Count(_)), "re-bound in place");
    }

    #[test]
    fn double_install_keeps_original() {
        let c = overlay();
        let mut probes = Probes::new();
        let (a, _) = probes.add(&c, 0, EmptyProbe);
        let (b, _) = probes.add(&c, 0, EmptyProbe);
        assert_eq!(c.orig_opcode(0), op::NOP);
        probes.remove(&c, a).unwrap();
        assert_eq!(c.byte_at(0), op::PROBE, "a probe remains");
        probes.remove(&c, b).unwrap();
        assert_eq!(c.byte_at(0), op::NOP);
    }

    #[test]
    fn remove_reports_emptied_site() {
        let c = overlay();
        let mut probes = Probes::new();
        let (a, _) = probes.add(&c, 0, EmptyProbe);
        let (other, _) = probes.add(&c, 1, EmptyProbe);
        probes.remove(&c, a).unwrap();
        assert_eq!(c.byte_at(0), op::NOP, "emptied: the instruction is back");
        assert!(matches!(c.sites().unwrap()[0].binding, Binding::Empty));
        assert_eq!(c.probed_sites(), 1);
        assert!(c.has_overlay(), "the other site keeps the overlay");
        assert_eq!(probes.remove(&c, a), None, "already removed");
        probes.remove(&c, other).unwrap();
        assert!(!c.has_overlay());
    }

    #[test]
    fn only_probes_on_new_sites_and_the_last_removal_make_compiled_code_stale() {
        let c = overlay();
        let mut probes = Probes::new();
        let (a, change) = probes.add(&c, 0, CountProbe::new());
        assert!(change.stale, "no compiled code carries this site");
        c.invalidate();
        // "Compile": the code built at this version carries site 0 only.
        assert!(c.claim_site(0));
        assert!(!c.claim_site(1), "no probes there: no micro-op");
        let (b, change) = probes.add(&c, 0, EmptyProbe);
        assert!(!change.stale, "a compiled site re-binds");
        assert!(!probes.remove(&c, b).unwrap().stale);
        let (_, change) = probes.add(&c, 1, EmptyProbe);
        assert!(change.stale, "not a site when the code was compiled");
        c.invalidate();
        let (d, change) = probes.add(&c, 0, EmptyProbe);
        assert!(change.stale, "the claim was for the invalidated version");
        // Emptying a compiled site leaves it dead and re-arms the counter.
        assert!(c.claim_site(0));
        c.hotness.set(99);
        probes.remove(&c, d).unwrap();
        assert_eq!(c.hotness.get(), 99, "the site still has a probe");
        assert!(!probes.remove(&c, a).unwrap().stale);
        assert_eq!(c.hotness.get(), probes.config.tierup_threshold, "dead site: re-armed");
    }

    #[test]
    fn invalidate_versions_are_strictly_monotonic() {
        let c = overlay();
        let mut probes = Probes::new();
        assert_eq!(c.version.get(), 0);
        let (a, _) = probes.add(&c, 0, EmptyProbe);
        c.invalidate();
        assert_eq!(c.version.get(), 1);
        assert!(c.compiled.borrow().is_none());
        probes.remove(&c, a).unwrap();
        c.invalidate();
        // Rejoin does NOT reset the version: a recurring version would be
        // an ABA hazard for the JIT's stale-frame check. Baseline sharing
        // is keyed on probe-freeness, not on version 0.
        assert_eq!(c.version.get(), 2);
        assert!(!c.has_overlay());
    }

    #[test]
    fn probe_patches_apply_to_lowered_in_tandem() {
        let c = overlay();
        let mut probes = Probes::new();
        // Probing the const (pc 3, after nop + local.get) patches the
        // overlay copy only.
        let low_shared = c.artifact().lowered().clone();
        let pc_const = 3; // nop; local.get 0; i32.const 5 starts at byte 3
        let (id, _) = probes.add(&c, pc_const, EmptyProbe);
        let view = c.lowered_view();
        assert!(view.is_overlaid());
        let slot = view.slot_of(pc_const).unwrap() as usize;
        assert_eq!(view.get(slot).op, op::PROBE);
        assert_eq!(crate::value::Slot(view.get(slot).z).i32(), 5, "immediates survive");
        assert_eq!(view.original(slot).op, op::I32_CONST, "the original is recovered");
        assert_ne!(low_shared.get(slot).op, op::PROBE, "shared form untouched");
        // Restore rejoins: the view reads the shared slots again.
        probes.remove(&c, id).unwrap();
        let view = c.lowered_view();
        assert!(!view.is_overlaid());
        assert_eq!(view.ops_addr(), low_shared.ops_addr());
    }

    #[test]
    fn rebuild_overlay_preserves_probe_patches() {
        let c = overlay();
        Probes::new().add(&c, 1, EmptyProbe);
        let before = c.lowered_view();
        c.rebuild_overlay();
        let after = c.lowered_view();
        assert_ne!(before.ops_addr(), after.ops_addr(), "fresh copy");
        let slot = after.slot_of(1).unwrap() as usize;
        assert_eq!(after.get(slot).op, op::PROBE, "probe patch re-applied");
        assert_eq!(c.byte_at(1), op::PROBE);
        assert_eq!(c.probed_sites(), 1, "the site table is kept");
    }

    #[test]
    fn resolved_views_are_dropped_on_every_overlay_identity_change() {
        let c = overlay();
        let mut probes = Probes::new();
        assert!(c.cached_views().is_none(), "resolved lazily, on the first frame");
        let shared = c.resolve_views(true);
        assert!(Rc::ptr_eq(&shared, &c.cached_views().unwrap()), "then handed out as cached");
        assert!(!shared.low.is_overlaid() && !shared.code.is_overlaid());
        // Materialize: the cached bundle reads the shared streams — stale.
        let (a, _) = probes.add(&c, 0, EmptyProbe);
        assert!(c.cached_views().is_none());
        let overlaid = c.resolve_views(true);
        assert!(overlaid.low.is_overlaid() && overlaid.code.is_overlaid());
        // A second probe patches the same overlay cells: still valid.
        let (b, _) = probes.add(&c, 1, EmptyProbe);
        assert!(Rc::ptr_eq(&overlaid, &c.cached_views().unwrap()));
        assert_eq!(overlaid.code.byte(1), op::PROBE, "patches show through the cached view");
        // Rebuild: fresh cells.
        c.rebuild_overlay();
        assert!(c.cached_views().is_none());
        c.resolve_views(true);
        // Rejoin: the cells are gone.
        probes.remove(&c, b).unwrap();
        assert!(c.cached_views().is_some(), "a probe remains: same overlay");
        probes.remove(&c, a).unwrap();
        assert!(c.cached_views().is_none());
        assert!(!c.resolve_views(true).low.is_overlaid());
        // Byte-dispatch processes resolve without forcing the lowering.
        let unlowered = overlay();
        assert!(unlowered.resolve_views(false).low.is_empty());
        assert!(!unlowered.artifact().is_lowered());
    }

    #[test]
    fn leb_readers_match_encoder() {
        let mut buf = vec![0u8];
        wizard_wasm::leb128::write_u32(&mut buf, 624485);
        wizard_wasm::leb128::write_i32(&mut buf, -99999);
        wizard_wasm::leb128::write_i64(&mut buf, -(1i64 << 40));
        let c = CodeBytes::new(&buf);
        let (a, p) = c.read_u32(1);
        assert_eq!(a, 624485);
        let (b, p) = c.read_i32(p);
        assert_eq!(b, -99999);
        let (d, p) = c.read_i64(p);
        assert_eq!(d, -(1i64 << 40));
        assert_eq!(p, buf.len());
    }

    #[test]
    fn float_bit_readers() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1.5f32.to_le_bytes());
        buf.extend_from_slice(&(-2.25f64).to_le_bytes());
        let c = CodeBytes::new(&buf);
        let (f32_bits, p) = c.read_f32_bits(0);
        assert_eq!(f32::from_bits(f32_bits), 1.5);
        let (f64_bits, p2) = c.read_f64_bits(p);
        assert_eq!(f64::from_bits(f64_bits), -2.25);
        assert_eq!(p2, 12);
    }
}
