//! The probe framework: the paper's core instrumentation primitive.
//!
//! A [`Probe`] is M-code — monitor logic executed by the engine when an
//! event fires. *Global probes* fire before every instruction; *local
//! probes* fire before a specific `(func, pc)` location. Probe lists (the
//! global one here, a local site's in its function's site table —
//! [`FuncOverlay`](crate::code::FuncOverlay)) keep the paper's §2.4.1
//! consistency guarantees:
//!
//! * **insertion order is firing order** — lists are ordered;
//! * **deferred inserts and removals on same event** — M-code can only
//!   *queue* instrumentation changes, and the queue is applied when the
//!   firing event's dispatch completes: the list an event dispatches is
//!   the list as it was when the event began.

use std::cell::Cell;
use std::cell::RefCell;
use std::rc::Rc;

use wizard_wasm::module::FuncIdx;

use crate::exec::ProbeCtx;
use crate::value::Slot;
use crate::EngineConfig;

/// A code location: function index and byte offset within the body.
///
/// Together with the module (one per process) this is the paper's
/// `(module, funcdecl, pc)` location triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Location {
    /// Function index.
    pub func: FuncIdx,
    /// Byte offset of the instruction within the function body.
    pub pc: u32,
}

impl core::fmt::Display for Location {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "func[{}]+{}", self.func, self.pc)
    }
}

/// Classifies a probe for JIT intrinsification (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// Arbitrary M-code: requires a full state checkpoint and a runtime
    /// call when compiled.
    Generic,
    /// A pure counter: the JIT inlines the increment, no call at all.
    Count,
    /// M-code that only needs the top-of-stack operand: the JIT passes the
    /// value directly, skipping FrameAccessor reification.
    Operand,
}

/// M-code attached to an execution event.
///
/// Implementations are free-form; the engine calls [`Probe::fire`] with a
/// [`ProbeCtx`] granting access to the program location, the
/// [`FrameAccessor`](crate::frame::FrameAccessor) machinery, and dynamic
/// probe insertion/removal.
pub trait Probe: 'static {
    /// Fires the probe before the instruction at `ctx.location()` executes.
    fn fire(&mut self, ctx: &mut ProbeCtx<'_, '_>);

    /// The intrinsification class of this probe. Defaults to
    /// [`ProbeKind::Generic`]; probes overriding this must uphold the
    /// corresponding contract ([`Probe::count_cell`] / [`Probe::fire_operand`]).
    fn kind(&self) -> ProbeKind {
        ProbeKind::Generic
    }

    /// For [`ProbeKind::Count`] probes: the counter cell the JIT increments
    /// inline.
    fn count_cell(&self) -> Option<Rc<Cell<u64>>> {
        None
    }

    /// For [`ProbeKind::Operand`] probes: fired with the top-of-stack slot
    /// directly from compiled code.
    fn fire_operand(&mut self, loc: Location, top: Slot) {
        let _ = (loc, top);
    }
}

/// Shared handle to a probe.
pub type ProbeRef = Rc<RefCell<dyn Probe>>;

/// Identifier of an inserted probe, used for removal. Opaque; it names
/// the probe's site as well as the probe, so removal needs no lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProbeId {
    /// Unique per process, never reused.
    serial: u64,
    pub(crate) site: Site,
}

/// A counter probe: increments a shared counter each time its location is
/// reached. Fully inlined by the JIT when count intrinsification is on
/// (paper Figure 2, right column).
#[derive(Debug, Clone, Default)]
pub struct CountProbe {
    cell: Rc<Cell<u64>>,
}

impl CountProbe {
    /// Creates a counter probe with a fresh counter.
    pub fn new() -> CountProbe {
        CountProbe::default()
    }

    /// A counter probe bumping an existing counter, which several probes
    /// may share.
    pub fn over(cell: Rc<Cell<u64>>) -> CountProbe {
        CountProbe { cell }
    }

    /// The current count.
    pub fn count(&self) -> u64 {
        self.cell.get()
    }

    /// A shared handle to the counter (e.g. for reports).
    pub fn cell(&self) -> Rc<Cell<u64>> {
        Rc::clone(&self.cell)
    }
}

impl Probe for CountProbe {
    fn fire(&mut self, _ctx: &mut ProbeCtx<'_, '_>) {
        self.cell.set(self.cell.get() + 1);
    }

    fn kind(&self) -> ProbeKind {
        ProbeKind::Count
    }

    fn count_cell(&self) -> Option<Rc<Cell<u64>>> {
        Some(Rc::clone(&self.cell))
    }
}

/// A probe with an empty `fire` body. Used to measure pure probe-dispatch
/// overhead (T_PD) in the paper's Figure-5 decomposition.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmptyProbe;

impl Probe for EmptyProbe {
    fn fire(&mut self, _ctx: &mut ProbeCtx<'_, '_>) {}
}

/// An empty probe that *claims* operand intrinsifiability — the intrinsified
/// analogue of [`EmptyProbe`] for decomposition experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmptyOperandProbe;

impl Probe for EmptyOperandProbe {
    fn fire(&mut self, _ctx: &mut ProbeCtx<'_, '_>) {}

    fn kind(&self) -> ProbeKind {
        ProbeKind::Operand
    }

    fn fire_operand(&mut self, _loc: Location, _top: Slot) {}
}

/// Wraps a closure as a generic probe.
pub struct ClosureProbe<F: FnMut(&mut ProbeCtx<'_, '_>) + 'static> {
    f: F,
}

impl<F: FnMut(&mut ProbeCtx<'_, '_>) + 'static> ClosureProbe<F> {
    /// Creates a probe from a closure.
    pub fn new(f: F) -> ClosureProbe<F> {
        ClosureProbe { f }
    }

    /// Boxes a closure into a [`ProbeRef`].
    pub fn shared(f: F) -> ProbeRef {
        Rc::new(RefCell::new(ClosureProbe { f }))
    }
}

impl<F: FnMut(&mut ProbeCtx<'_, '_>) + 'static> Probe for ClosureProbe<F> {
    fn fire(&mut self, ctx: &mut ProbeCtx<'_, '_>) {
        (self.f)(ctx);
    }
}

impl<F: FnMut(&mut ProbeCtx<'_, '_>) + 'static> core::fmt::Debug for ClosureProbe<F> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("ClosureProbe")
    }
}

/// A set of probe insertions and removals applied in at most a single
/// invalidation/deoptimization pass.
///
/// Compiled code follows most instrumentation changes by re-binding its
/// probe sites in place (paper §4.5): removals, and insertions at
/// instructions that already held probes when the function was compiled,
/// cost it nothing. A probe on a *new* site invalidates the function's
/// code, so inserting N of those one at a time pays N invalidation passes.
/// Monitors instrumenting many sites — coverage probes *every* instruction,
/// hotness every straight-line run — batch their insertions instead and
/// commit them through
/// [`Process::apply_batch`](crate::Process::apply_batch), which
/// invalidates each affected function's code at most once and counts as at
/// most one invalidation pass in
/// [`EngineStats::invalidation_passes`](crate::EngineStats).
///
/// Batches are validated atomically: if any operation names an invalid
/// location, nothing is applied. Removals of already-removed probe ids are
/// skipped silently, which makes detach-style cleanup idempotent.
#[derive(Default)]
pub struct ProbeBatch {
    pub(crate) ops: Vec<BatchOp>,
}

pub(crate) enum BatchOp {
    Local(FuncIdx, u32, ProbeRef),
    Global(ProbeRef),
    Remove(ProbeId),
}

impl ProbeBatch {
    /// Creates an empty batch.
    pub fn new() -> ProbeBatch {
        ProbeBatch::default()
    }

    /// Queues insertion of a local probe at `(func, pc)`.
    pub fn add_local(&mut self, func: FuncIdx, pc: u32, probe: ProbeRef) -> &mut ProbeBatch {
        self.ops.push(BatchOp::Local(func, pc, probe));
        self
    }

    /// Queues insertion of an owned local probe value.
    pub fn add_local_val(&mut self, func: FuncIdx, pc: u32, probe: impl Probe) -> &mut ProbeBatch {
        self.add_local(func, pc, Rc::new(RefCell::new(probe)))
    }

    /// Queues insertion of a global probe.
    pub fn add_global(&mut self, probe: ProbeRef) -> &mut ProbeBatch {
        self.ops.push(BatchOp::Global(probe));
        self
    }

    /// Queues insertion of an owned global probe value.
    pub fn add_global_val(&mut self, probe: impl Probe) -> &mut ProbeBatch {
        self.add_global(Rc::new(RefCell::new(probe)))
    }

    /// Queues removal of a probe. Removing an id that is no longer
    /// installed is a no-op.
    pub fn remove(&mut self, id: ProbeId) -> &mut ProbeBatch {
        self.ops.push(BatchOp::Remove(id));
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl core::fmt::Debug for ProbeBatch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ProbeBatch").field("ops", &self.ops.len()).finish()
    }
}

/// An ordered probe list entry.
pub(crate) type Entry = (ProbeId, ProbeRef);

/// Where a probe is attached. Local sites are named by lowered *slot*: the
/// index of the function's per-slot site table
/// ([`FuncOverlay`](crate::code::FuncOverlay)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum Site {
    Global,
    Local { func: FuncIdx, slot: u32 },
}

/// A deferred instrumentation request, queued while an event is firing.
/// Insertions are validated when queued; the id carries the site.
pub(crate) enum Pending {
    Insert(ProbeId, ProbeRef),
    Remove(ProbeId),
}

/// What compiled code does at a probe site — the process-private half of
/// a site micro-op ([`Op::Site`](crate::jit::Op)), recomputed from the
/// site's probe list whenever the list changes (paper §4.4).
#[derive(Default)]
pub(crate) enum Binding {
    /// No probes: the site is dead weight until the function recompiles.
    #[default]
    Empty,
    /// Exactly one `Count` probe: an inline increment of its cell.
    Count(Rc<Cell<u64>>),
    /// Any other list whose probes are all intrinsifiable, in firing order.
    Intrinsic(Box<[Intrinsified]>),
    /// At least one probe needs the runtime: checkpoint, then fire the
    /// whole list through [`Exec::fire_site`](crate::exec).
    Generic,
}

/// One intrinsified probe of a [`Binding::Intrinsic`] list.
pub(crate) enum Intrinsified {
    Count(Rc<Cell<u64>>),
    Operand(ProbeRef),
}

impl Binding {
    /// The binding of `probes` under `config`'s intrinsification flags.
    pub fn of(probes: &[Entry], config: &EngineConfig) -> Binding {
        let intrinsified = |p: &ProbeRef| {
            // A probe its owner is mutating right now just stays generic.
            let probe = p.try_borrow().ok()?;
            match probe.kind() {
                ProbeKind::Count if config.intrinsify_count => {
                    probe.count_cell().map(Intrinsified::Count)
                }
                ProbeKind::Operand if config.intrinsify_operand => {
                    Some(Intrinsified::Operand(Rc::clone(p)))
                }
                _ => None,
            }
        };
        match probes {
            [] => Binding::Empty,
            [(_, p)] => match intrinsified(p) {
                Some(Intrinsified::Count(cell)) => Binding::Count(cell),
                Some(operand) => Binding::Intrinsic(Box::new([operand])),
                None => Binding::Generic,
            },
            many => many
                .iter()
                .map(|(_, p)| intrinsified(p))
                .collect::<Option<Box<[_]>>>()
                .map_or(Binding::Generic, Binding::Intrinsic),
        }
    }
}

/// The process-wide half of probe bookkeeping: probe ids, the global probe
/// list and the deferred-request queue. Local probe lists live in each
/// function's site table.
///
/// Lists need no copy per event to give §2.4's snapshot semantics: M-code
/// can only *queue* changes ([`ProbeCtx`]), and the queue is applied when
/// the firing event's dispatch completes, so a list never changes under
/// the dispatch that iterates it.
#[derive(Default)]
pub(crate) struct ProbeRegistry {
    next_id: u64,
    global: Rc<Vec<Entry>>,
    /// The cells of the global list when every global probe is an
    /// intrinsifiable `Count`: the instrumented dispatch table bumps them
    /// directly. Empty otherwise.
    pub(crate) global_counts: Vec<Rc<Cell<u64>>>,
    pub(crate) pending: Vec<Pending>,
    /// Nonzero while an event's probe list is being dispatched.
    pub(crate) firing: u32,
}

impl ProbeRegistry {
    pub fn fresh_id(&mut self, site: Site) -> ProbeId {
        self.next_id += 1;
        ProbeId { serial: self.next_id, site }
    }

    pub fn has_global(&self) -> bool {
        !self.global.is_empty()
    }

    /// The global probe list (cheap Rc clone).
    pub fn globals(&self) -> Rc<Vec<Entry>> {
        Rc::clone(&self.global)
    }

    /// Inserts a global probe (callers are outside firing, or applying the
    /// pending queue).
    pub fn insert_global(&mut self, id: ProbeId, probe: ProbeRef, config: &EngineConfig) {
        Rc::make_mut(&mut self.global).push((id, probe));
        self.rebind_global(config);
    }

    /// Removes a global probe by id; `false` if it is not installed.
    pub fn remove_global(&mut self, id: ProbeId, config: &EngineConfig) -> bool {
        let list = Rc::make_mut(&mut self.global);
        let before = list.len();
        list.retain(|(pid, _)| *pid != id);
        let removed = list.len() != before;
        if removed {
            self.rebind_global(config);
        }
        removed
    }

    /// `true` if a global probe with this id is installed.
    pub fn contains_global(&self, id: ProbeId) -> bool {
        self.global.iter().any(|(pid, _)| *pid == id)
    }

    fn rebind_global(&mut self, config: &EngineConfig) {
        let cells: Option<Vec<_>> = self
            .global
            .iter()
            .map(|(_, p)| {
                let p = p.try_borrow().ok()?;
                (config.intrinsify_count && p.kind() == ProbeKind::Count)
                    .then(|| p.count_cell())
                    .flatten()
            })
            .collect();
        self.global_counts = cells.unwrap_or_default();
    }
}

impl core::fmt::Debug for ProbeRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ProbeRegistry")
            .field("global_probes", &self.global.len())
            .field("firing", &self.firing)
            .field("pending", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_ref() -> ProbeRef {
        Rc::new(RefCell::new(EmptyProbe))
    }

    fn count_ref() -> ProbeRef {
        Rc::new(RefCell::new(CountProbe::new()))
    }

    #[test]
    fn global_list_lifecycle() {
        let config = EngineConfig::default();
        let mut r = ProbeRegistry::default();
        assert!(!r.has_global());
        let a = r.fresh_id(Site::Global);
        let b = r.fresh_id(Site::Global);
        r.insert_global(a, empty_ref(), &config);
        r.insert_global(b, empty_ref(), &config);
        assert_eq!(r.globals().iter().map(|(id, _)| *id).collect::<Vec<_>>(), [a, b]);
        assert!(r.remove_global(a, &config));
        assert!(!r.remove_global(a, &config), "already removed");
        assert!(r.contains_global(b) && !r.contains_global(a));
        assert!(r.remove_global(b, &config));
        assert!(!r.has_global());
    }

    #[test]
    fn snapshot_is_isolated_from_mutation() {
        let config = EngineConfig::default();
        let mut r = ProbeRegistry::default();
        let a = r.fresh_id(Site::Global);
        r.insert_global(a, empty_ref(), &config);
        let snap = r.globals();
        let b = r.fresh_id(Site::Global);
        r.insert_global(b, empty_ref(), &config);
        // A list handed out earlier never changes under its reader.
        assert_eq!(snap.len(), 1);
        assert_eq!(r.globals().len(), 2);
    }

    #[test]
    fn bindings_follow_the_list_and_the_intrinsify_flags() {
        let on = EngineConfig::default();
        let off = EngineConfig::jit_no_intrinsics();
        let mut r = ProbeRegistry::default();
        let mut entry = |p: ProbeRef| (r.fresh_id(Site::Global), p);
        assert!(matches!(Binding::of(&[], &on), Binding::Empty));
        let count = [entry(count_ref())];
        assert!(matches!(Binding::of(&count, &on), Binding::Count(_)));
        assert!(matches!(Binding::of(&count, &off), Binding::Generic));
        let two = [entry(count_ref()), entry(Rc::new(RefCell::new(EmptyOperandProbe)))];
        assert!(matches!(Binding::of(&two, &on), Binding::Intrinsic(l) if l.len() == 2));
        let mixed = [entry(count_ref()), entry(empty_ref())];
        assert!(matches!(Binding::of(&mixed, &on), Binding::Generic));
    }

    #[test]
    fn global_counts_are_bound_only_for_all_count_lists() {
        let config = EngineConfig::default();
        let mut r = ProbeRegistry::default();
        let a = r.fresh_id(Site::Global);
        let b = r.fresh_id(Site::Global);
        let c = r.fresh_id(Site::Global);
        r.insert_global(a, count_ref(), &config);
        r.insert_global(b, count_ref(), &config);
        assert_eq!(r.global_counts.len(), 2);
        r.insert_global(c, empty_ref(), &config);
        assert!(r.global_counts.is_empty(), "a generic probe sends the list through the runtime");
        r.remove_global(c, &config);
        assert_eq!(r.global_counts.len(), 2);
        let mut off = ProbeRegistry::default();
        let d = off.fresh_id(Site::Global);
        off.insert_global(d, count_ref(), &EngineConfig::jit_no_intrinsics());
        assert!(off.global_counts.is_empty(), "intrinsify_count is honoured");
    }

    #[test]
    fn count_probe_kind_and_cell() {
        let p = CountProbe::new();
        assert_eq!(p.kind(), ProbeKind::Count);
        let cell = p.count_cell().unwrap();
        cell.set(5);
        assert_eq!(p.count(), 5);
    }
}
