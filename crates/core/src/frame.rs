//! Execution frames and the FrameAccessor handle machinery.
//!
//! The paper's `FrameAccessor` is an engine-heap object representing one
//! live stack frame, with observable identity and validity protection
//! against dangling access (paper §2.3). In Rust we split it in two:
//!
//! * [`FrameAccessor`] — a cloneable, storable handle with stable identity
//!   (Rc pointer equality), materialized lazily and cached in the frame's
//!   *accessor slot*; invalidated on return and unwind;
//! * `FrameView` (in [`crate::exec`]) — a borrow-scoped view used to read
//!   and write the frame's state through a [`ProbeCtx`](crate::exec::ProbeCtx).

use std::cell::Cell;
use std::rc::Rc;

use wizard_wasm::module::FuncIdx;

/// Which execution tier a frame is currently running in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The byte interpreter: the paper's in-place interpreter — every
    /// frame under [`Dispatch::Bytecode`](crate::Dispatch), and otherwise
    /// the frames the register form hands back until their next run
    /// leader.
    Interp,
    /// The register form ([`crate::regir`]), the engine's compiled tier:
    /// stack traffic eliminated, probe sites and fuel charges carried in
    /// the code, and frames still park byte pcs at every sync point.
    Reg,
}

/// One Wasm activation record.
#[derive(Debug)]
pub(crate) struct Frame {
    /// Global function index.
    pub func: FuncIdx,
    /// Index into the process's local-function code table.
    pub lf: usize,
    /// Base of locals in the unified value stack.
    pub base: usize,
    /// Base of the operand stack (== `base + num_slots`).
    pub opbase: usize,
    /// Result arity of the function.
    pub results: u32,
    /// Resume/current bytecode pc (authoritative at sync points).
    ///
    /// Always a *byte offset* — the paper's location space — even though
    /// the register form's live cursor is a register-instruction index:
    /// `Exec` converts through the function's `pc ↔ index` maps when
    /// parking or loading a frame. That keeps
    /// every consumer of parked frames (FrameAccessors, fuel
    /// suspension/resume, demotion and promotion, probe locations)
    /// dispatch-representation-agnostic.
    pub pc: usize,
    /// Execution tier.
    pub tier: Tier,
    /// Unique id of this activation (for accessor validity).
    pub activation: u64,
    /// The accessor slot: cleared on entry, filled lazily on first request
    /// (paper mechanism 1).
    pub accessor: Option<FrameAccessor>,
}

impl Frame {
    /// Invalidate the accessor (on return/unwind — paper mechanisms 2/3).
    pub fn invalidate_accessor(&mut self) {
        if let Some(acc) = self.accessor.take() {
            acc.inner.valid.set(false);
        }
    }
}

#[derive(Debug)]
pub(crate) struct AccessorInner {
    pub activation: u64,
    pub func: FuncIdx,
    /// Depth of the frame when materialized (1 = bottom frame).
    pub depth: u32,
    /// Cached index into the frame stack (revalidated on each use).
    pub frame_index: Cell<usize>,
    pub valid: Cell<bool>,
}

/// A storable handle to a live stack frame.
///
/// Identity is observable: two handles compare equal iff they refer to the
/// same activation's accessor object, so monitors can correlate callbacks
/// across events (paper §2.3). Once the frame returns, unwinds, or the
/// process traps, the handle becomes invalid and all accesses through it
/// fail gracefully.
#[derive(Debug, Clone)]
pub struct FrameAccessor {
    pub(crate) inner: Rc<AccessorInner>,
}

impl FrameAccessor {
    pub(crate) fn new(activation: u64, func: FuncIdx, depth: u32, frame_index: usize) -> Self {
        FrameAccessor {
            inner: Rc::new(AccessorInner {
                activation,
                func,
                depth,
                frame_index: Cell::new(frame_index),
                valid: Cell::new(true),
            }),
        }
    }

    /// `true` while the underlying frame is still live.
    pub fn is_valid(&self) -> bool {
        self.inner.valid.get()
    }

    /// The function this frame executes.
    pub fn func(&self) -> FuncIdx {
        self.inner.func
    }

    /// Call-stack depth of the frame (1 = bottom).
    ///
    /// This is the paper's `depth()` — cheap to answer without walking.
    pub fn depth(&self) -> u32 {
        self.inner.depth
    }

    /// The activation's unique id.
    pub fn activation(&self) -> u64 {
        self.inner.activation
    }
}

impl PartialEq for FrameAccessor {
    fn eq(&self, other: &Self) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for FrameAccessor {}

impl std::hash::Hash for FrameAccessor {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (Rc::as_ptr(&self.inner) as usize).hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_pointer_identity() {
        let a = FrameAccessor::new(1, 0, 1, 0);
        let b = a.clone();
        let c = FrameAccessor::new(1, 0, 1, 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn invalidation_visible_through_clones() {
        let mut frame = Frame {
            func: 0,
            lf: 0,
            base: 0,
            opbase: 0,
            results: 0,
            pc: 0,
            tier: Tier::Interp,
            activation: 7,
            accessor: None,
        };
        let acc = FrameAccessor::new(7, 0, 1, 0);
        frame.accessor = Some(acc.clone());
        assert!(acc.is_valid());
        frame.invalidate_accessor();
        assert!(!acc.is_valid());
        assert!(frame.accessor.is_none());
    }

    #[test]
    fn metadata_accessors() {
        let a = FrameAccessor::new(42, 3, 5, 4);
        assert_eq!(a.activation(), 42);
        assert_eq!(a.func(), 3);
        assert_eq!(a.depth(), 5);
    }
}
