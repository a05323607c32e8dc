//! Per-function **instrumentation overlays**: the process-local, mutable
//! half of the code pipeline.
//!
//! The immutable half — pristine bytecode, validation metadata, the shared
//! register form — lives in the `Arc`-shared
//! [`FuncArtifact`]. A [`FuncOverlay`] owns
//! everything one process may mutate about one function:
//!
//! * the **copy-on-write instrumented code**: the first probe installed in
//!   a function copies its bytes into process-local storage
//!   (`FuncOverlay::add_probe`), and removing the last probe
//!   drops the copy again so the process *rejoins* the shared artifact
//!   (`FuncOverlay::remove_probe`) — sibling processes of the same
//!   artifact never observe either transition;
//! * the **site table**, allocated and dropped with that copy: one entry
//!   per instruction (by ordinal, [`FuncArtifact::instr_pcs`]), holding
//!   the site's ordered probe list and the
//!   *binding* the register form's [`R_SITE`](crate::regir::R_SITE)
//!   executes there — what insertion, removal, firing and lowering need
//!   to know about a probe site is one array read away (the overwritten
//!   instruction is another: the shared artifact still has it);
//! * the **instrumented register form**, also held by that copy: the
//!   function re-lowered with one site per probed instruction, built
//!   lazily on the first activation after a probe lands where it has no
//!   site (the probe-free form is shared from the artifact), and the
//!   instrumentation version that tells which sites it carries;
//! * the function's **resolved execution views** ([`FuncViews`]): the
//!   byte view, register form and metadata the two execution tiers read,
//!   resolved from the shared artifact once per process and handed to
//!   every frame switch as one process-local `Rc`.
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
use crate::probe::{Binding, Entry, ProbeId, ProbeRef};
use crate::regir::RegFunc;
use crate::EngineConfig;

/// A process-local copy-on-write byte stream: the instrumented copy of a
/// function's bytecode, where probe opcodes overwrite instructions.
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

    /// Address of the byte stream this view dispatches from (the overlay
    /// copy if present, the shared bytes otherwise) — the pointer identity
    /// sharing assertions compare.
    pub fn addr(&self) -> usize {
        match &self.local {
            Some(cells) => cells.as_ptr() as usize,
            None => self.shared.as_ptr() as usize,
        }
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
    /// The function's bytecode view — what the byte interpreter walks:
    /// shared pristine bytes, or the process-local instrumented overlay.
    pub code: CodeBytes,
    /// The function's register form as this process runs it — the
    /// artifact's shared form, or the process's instrumented one — if it
    /// was built when these views were resolved (activations build it;
    /// see `Process::has_reg_code`); `None` under
    /// [`Dispatch::Bytecode`](crate::Dispatch) and for functions the
    /// allocator declined.
    pub reg: Option<Arc<RegFunc>>,
    /// Validation metadata (the classic interpreter's branch side table).
    pub meta: Arc<FuncMeta>,
}

thread_local! {
    /// The one placeholder bundle per thread: what `Exec` points at before
    /// its first frame loads.
    static PLACEHOLDER: Rc<FuncViews> = Rc::new(FuncViews {
        code: CodeBytes::new(&[]),
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
/// ever land on the overlay's copy, so the saved original *is* the shared
/// artifact's ([`FuncOverlay::orig_opcode`]).
pub(crate) struct SiteEntry {
    /// The site's probes in insertion — firing — order.
    pub probes: Vec<Entry>,
    /// What the register form's `R_SITE` does here; always
    /// `Binding::of(probes)`.
    pub binding: Binding,
    /// The instrumentation version of the register form that carries this
    /// site's `R_SITE`, [`NOT_COMPILED`] if none ever did. A form of the
    /// *current* version re-binds in place when the list changes; a probe
    /// landing anywhere else invalidates it.
    compiled_at: u32,
}

const NOT_COMPILED: u32 = u32::MAX;

/// The process-local copy-on-write half of an instrumented function.
struct Cow {
    /// Instrumented bytecode: probe opcodes overwrite probed instructions.
    bytes: OverlayBytes,
    /// The site table, indexed by instruction ordinal.
    sites: Box<[SiteEntry]>,
    /// Sites currently holding probes (probe bytes installed).
    live: usize,
    /// The register form lowered with this copy's sites, once an
    /// activation needed it; dropped by [`FuncOverlay::invalidate`].
    reg: Option<Arc<RegFunc>>,
}

/// What [`FuncOverlay::add_probe`] / [`FuncOverlay::remove_probe`] did
/// beyond the list edit itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SiteChange {
    /// The overlay was materialized (counted in
    /// [`EngineStats::overlay_copies`](crate::EngineStats)).
    pub copied: bool,
    /// The register form cannot follow the change by re-binding — the
    /// probe landed on an instruction it has no site for, or the
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
    /// Copy-on-write instrumented code, its site table and its register
    /// form; `None` while uninstrumented.
    cow: RefCell<Option<Cow>>,
    /// Instrumentation version; bumped (strictly monotonically — see
    /// [`FuncOverlay::invalidate`]) whenever the instrumented register
    /// form is invalidated (paper §4.5).
    pub version: Cell<u32>,
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

    /// The resolved execution views, if some frame already entered the
    /// function since the overlay last changed identity. One non-atomic
    /// `Rc` bump; nothing shared is written.
    #[inline]
    pub(crate) fn cached_views(&self) -> Option<Rc<FuncViews>> {
        self.views.borrow().clone()
    }

    /// Resolves and caches the execution views — the one place per
    /// function per process that clones out of the shared artifact.
    /// `with_reg` is `false` for byte-dispatch processes, which never run
    /// the register form. The register form is picked up only if it is
    /// built already: the views never build it.
    pub(crate) fn resolve_views(&self, with_reg: bool) -> Rc<FuncViews> {
        let reg = match &*self.cow.borrow() {
            _ if !with_reg => None,
            Some(c) => c.reg.clone(),
            None => self.art.reg_built().cloned(),
        };
        let views =
            Rc::new(FuncViews { code: self.bytes_view(), reg, meta: Arc::clone(&self.art.meta) });
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
    /// copy-on-write bytes; 0 while uninstrumented) — the "resident code
    /// size" a process pays only for the functions it instruments.
    pub fn overlay_size_bytes(&self) -> usize {
        self.cow.borrow().as_ref().map_or(0, |c| c.bytes.len())
    }

    /// The site table, for the readers on the execution side: probe
    /// firing, the probe handlers and the register form's sites.
    /// `None` while uninstrumented. The borrow must not be held across
    /// anything that can apply instrumentation changes.
    #[inline]
    pub(crate) fn sites(&self) -> Option<Ref<'_, [SiteEntry]>> {
        Ref::filter_map(self.cow.borrow(), |c| c.as_ref().map(|c| &*c.sites)).ok()
    }

    /// Adds `probe` to the end of the list of the instruction with ordinal
    /// `slot` and re-binds the site. The function's first probe
    /// materializes the overlay — bytes and site table; a site's first
    /// probe overwrites the instruction's opcode byte with the probe opcode
    /// (paper §4.2).
    pub(crate) fn add_probe(
        &self,
        slot: u32,
        id: ProbeId,
        probe: ProbeRef,
        config: &EngineConfig,
    ) -> SiteChange {
        let pcs = self.art.instr_pcs();
        let mut cow = self.cow.borrow_mut();
        let copied = cow.is_none();
        let cow = cow.get_or_insert_with(|| {
            // Identity change: resolved views still read the shared
            // bytes. The next frame switch re-resolves.
            self.views.take();
            Cow {
                bytes: self.art.bytes.iter().map(|&b| Cell::new(b)).collect(),
                sites: (0..pcs.len())
                    .map(|_| SiteEntry {
                        probes: Vec::new(),
                        binding: Binding::Empty,
                        compiled_at: NOT_COMPILED,
                    })
                    .collect(),
                live: 0,
                reg: None,
            }
        });
        let site = &mut cow.sites[slot as usize];
        if site.probes.is_empty() {
            cow.bytes[pcs[slot as usize] as usize].set(op::PROBE);
            cow.live += 1;
        }
        site.probes.push((id, probe));
        site.binding = Binding::of(&site.probes, config);
        SiteChange { copied, stale: site.compiled_at != self.version.get() }
    }

    /// Removes probe `id` from the list at `slot` and re-binds the site;
    /// `None` if it is not installed there. A site's last probe restores
    /// the instruction's opcode byte; the function's last
    /// probed site drops the overlay and the process rejoins the shared
    /// artifact, register form included. An emptied site stays in the
    /// register form, bound to nothing, until the form is next re-lowered
    /// or the function rejoins.
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
        let pc = self.art.instr_pcs()[slot as usize] as usize;
        cow.bytes[pc].set(self.art.bytes[pc]);
        cow.live -= 1;
        if cow.live == 0 {
            *guard = None;
            self.views.take();
            return Some(SiteChange { copied: false, stale: true });
        }
        Some(SiteChange { copied: false, stale: false })
    }

    /// `true` if probe `id` is installed at `slot`.
    pub(crate) fn has_probe(&self, slot: u32, id: ProbeId) -> bool {
        self.sites().is_some_and(|sites| {
            sites.get(slot as usize).is_some_and(|s| s.probes.iter().any(|(pid, _)| *pid == id))
        })
    }

    /// For the lowering: the sites currently holding probes, as
    /// `(pc, slot)` by ascending pc, each recorded as carried by the
    /// register form being lowered at the current version.
    pub(crate) fn claim_sites(&self) -> Vec<(u32, u32)> {
        let pcs = self.art.instr_pcs();
        let version = self.version.get();
        let mut cow = self.cow.borrow_mut();
        let Some(cow) = cow.as_mut() else {
            return Vec::new();
        };
        let mut claimed = Vec::with_capacity(cow.live);
        for (slot, site) in cow.sites.iter_mut().enumerate() {
            if !site.probes.is_empty() {
                site.compiled_at = version;
                claimed.push((pcs[slot], slot as u32));
            }
        }
        claimed
    }

    /// `true` while the function is instrumented and its register form
    /// was invalidated (or never lowered): the next activation lowers it.
    #[inline]
    pub(crate) fn needs_reg(&self) -> bool {
        self.cow.borrow().as_ref().is_some_and(|c| c.reg.is_none())
    }

    /// The instrumented register form, if one was lowered since the last
    /// invalidation.
    pub(crate) fn reg(&self) -> Option<Arc<RegFunc>> {
        self.cow.borrow().as_ref().and_then(|c| c.reg.clone())
    }

    /// Installs `reg`, lowered from [`FuncOverlay::claim_sites`], as the
    /// instrumented register form; resolved views re-resolve to pick it
    /// up.
    pub(crate) fn set_reg(&self, reg: Arc<RegFunc>) {
        if let Some(cow) = self.cow.borrow_mut().as_mut() {
            cow.reg = Some(reg);
            self.views.take();
        }
    }

    /// Rebuilds the overlay's byte copy from the shared artifact,
    /// re-applying the currently-installed probe patches (the site table
    /// is kept). Used by [`Process::relower`](crate::Process::relower);
    /// probe traffic never takes this path. A function with no overlay is
    /// left sharing the artifact (nothing to rebuild).
    pub fn rebuild_overlay(&self) {
        let mut guard = self.cow.borrow_mut();
        let Some(cow) = guard.as_mut() else {
            return;
        };
        let pcs = self.art.instr_pcs();
        cow.bytes = self.art.bytes.iter().map(|&b| Cell::new(b)).collect();
        for (slot, site) in cow.sites.iter().enumerate() {
            if !site.probes.is_empty() {
                cow.bytes[pcs[slot] as usize].set(op::PROBE);
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

    /// Drops the instrumented register form and bumps the instrumentation
    /// version; the next activation re-lowers (paper §4.5).
    ///
    /// Probe traffic calls this only when the register form cannot follow
    /// a change by re-binding its sites in place: a probe landed on an
    /// instruction the form has no site for, or the function's last probe
    /// left (the overlay and its site table are gone, and the shared form
    /// is the function's code again).
    ///
    /// The version is strictly monotonic — never reused — so a site
    /// claimed by a dropped form can never pass for one the current form
    /// carries.
    pub fn invalidate(&self) {
        if let Some(cow) = self.cow.borrow_mut().as_mut() {
            cow.reg = None;
        }
        self.views.take();
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
            let slot = c.artifact().ordinal_of(pc).unwrap();
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
        assert!(change.stale, "no register form carries this site");
        c.invalidate();
        // "Lower": the form built at this version carries site 0 only.
        assert_eq!(c.claim_sites(), [(0, 0)], "no probes elsewhere: no other site");
        let (b, change) = probes.add(&c, 0, EmptyProbe);
        assert!(!change.stale, "a carried site re-binds");
        assert!(!probes.remove(&c, b).unwrap().stale);
        let (_, change) = probes.add(&c, 1, EmptyProbe);
        assert!(change.stale, "not a site when the form was lowered");
        c.invalidate();
        let (d, change) = probes.add(&c, 0, EmptyProbe);
        assert!(change.stale, "the claim was for the invalidated version");
        // Emptying a carried site leaves it in the form, bound to nothing.
        assert_eq!(c.claim_sites().len(), 2);
        probes.remove(&c, d).unwrap();
        assert!(!probes.remove(&c, a).unwrap().stale, "dead sites cost no invalidation");
        assert!(matches!(c.sites().unwrap()[0].binding, Binding::Empty));
    }

    #[test]
    fn invalidate_versions_are_strictly_monotonic() {
        let c = overlay();
        let mut probes = Probes::new();
        assert_eq!(c.version.get(), 0);
        let (a, _) = probes.add(&c, 0, EmptyProbe);
        let sites = c.claim_sites();
        let reg = crate::regir::lower_func(c.artifact(), &[], &[], &sites).expect("lowers");
        c.set_reg(Arc::new(reg));
        assert!(c.reg().is_some());
        c.invalidate();
        assert_eq!(c.version.get(), 1);
        assert!(c.reg().is_none(), "the next activation re-lowers");
        probes.remove(&c, a).unwrap();
        c.invalidate();
        // Rejoin does not reset the version: a recurring version would let
        // a claim from a dropped form pass for a current one.
        assert_eq!(c.version.get(), 2);
        assert!(!c.has_overlay());
    }

    #[test]
    fn probe_patches_apply_to_lowered_in_tandem() {
        let c = overlay();
        let mut probes = Probes::new();
        // Probing the const (pc 3, after nop + local.get) patches the
        // overlay copy only, and the register form lowered for it carries
        // the site in tandem.
        let shared = c.bytes_view();
        let pc_const = 3; // nop; local.get 0; i32.const 5 starts at byte 3
        let (id, _) = probes.add(&c, pc_const, EmptyProbe);
        let view = c.bytes_view();
        assert!(view.is_overlaid());
        assert_eq!(view.byte(pc_const as usize), op::PROBE);
        assert_eq!(view.read_i32(pc_const as usize + 1).0, 5, "immediates survive");
        assert_eq!(c.orig_opcode(pc_const), op::I32_CONST, "the original is recovered");
        assert_eq!(shared.byte(pc_const as usize), op::I32_CONST, "shared bytes untouched");
        let sites = c.claim_sites();
        assert_eq!(sites, [(pc_const, 2)], "the site is named by the instruction's ordinal");
        let reg = crate::regir::lower_func(c.artifact(), &[], &[], &sites).expect("lowers");
        let site = reg.ops().iter().position(|ri| ri.op == crate::regir::R_SITE).unwrap();
        assert_eq!((reg.pc_of(site), reg.get(site).x), (pc_const, 2));
        // Restore rejoins: the view reads the shared bytes again.
        probes.remove(&c, id).unwrap();
        let view = c.bytes_view();
        assert!(!view.is_overlaid());
        assert_eq!(view.addr(), shared.addr());
    }

    #[test]
    fn rebuild_overlay_preserves_probe_patches() {
        let c = overlay();
        Probes::new().add(&c, 1, EmptyProbe);
        let before = c.bytes_view();
        c.rebuild_overlay();
        let after = c.bytes_view();
        assert_ne!(before.addr(), after.addr(), "fresh copy");
        assert_eq!(after.byte(1), op::PROBE, "probe patch re-applied");
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
        assert!(!shared.code.is_overlaid());
        // Materialize: the cached bundle reads the shared bytes — stale.
        let (a, _) = probes.add(&c, 0, EmptyProbe);
        assert!(c.cached_views().is_none());
        let overlaid = c.resolve_views(true);
        assert!(overlaid.code.is_overlaid());
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
        assert!(!c.resolve_views(true).code.is_overlaid());
        // Byte-dispatch processes resolve without the register form, even
        // once it is built.
        let bytes_only = overlay();
        assert!(bytes_only.resolve_views(false).reg.is_none());
        assert!(bytes_only.artifact().reg_built().is_none(), "and resolving builds nothing");
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
