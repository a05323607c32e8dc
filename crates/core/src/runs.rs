//! Run counters: exact per-instruction counts from one probe per
//! straight-line *run*.
//!
//! A **run** is a maximal instruction sequence that control can only enter
//! at its first instruction (its *leader*) and only leave after its last:
//! leaders are a function's entry, every branch target, and the instruction
//! after `br`/`br_if`/`br_table`/`if`/`else`/`return`/`unreachable`/`call`/
//! `call_indirect`. Every pass through a run that completes executes each
//! of its instructions exactly once, so one [`Count`](crate::ProbeKind) probe on
//! the leader counts them all — [`RunTable`] is the partition, computed
//! once per [`ModuleArtifact`](crate::ModuleArtifact), and [`RunCounts`]
//! installs the leader probes and expands run counts back to per-site rows.
//!
//! Calls end runs, so a frame below the top of the call stack is always
//! parked *between* runs: only the **top** frame can be inside a run when
//! execution stops or instrumentation changes. That leaves three cold-path
//! corrections, each over the part of the top frame's run that lies at or
//! after the stopping point, to stay exact to the instruction:
//!
//! * `+1` when installed while the process is suspended mid-run (the
//!   leader already went by uncounted, the suffix will still execute);
//! * `−1` when removed while suspended mid-run (the leader counted the
//!   whole run, the suffix executes unobserved);
//! * `−1` when the run is abandoned — a trap, a cancelled or dropped
//!   suspension — delivered through [`Monitor::on_unwind`](crate::Monitor).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use wizard_wasm::opcodes as op;

use crate::artifact::FuncArtifact;
use crate::monitor::InstrumentationCtx;
use crate::probe::{CountProbe, Location, ProbeBatch};
use crate::Process;

/// The partition of every locally-defined function into straight-line
/// runs, over the artifact's
/// [`instruction_sites`](crate::ModuleArtifact::instruction_sites): run `r`
/// is the contiguous site range [`RunTable::run`]`(r)`, its first site the
/// leader. Runs never span functions (an entry is a leader).
#[derive(Debug)]
pub struct RunTable {
    sites: Arc<[Location]>,
    /// Site index of each run's leader, ascending, plus `sites.len()`.
    starts: Box<[u32]>,
}

/// `true` for the instructions control may leave a run through: the next
/// instruction starts a new one.
fn ends_run(opcode: u8) -> bool {
    matches!(
        opcode,
        op::BR
            | op::BR_IF
            | op::BR_TABLE
            | op::IF
            | op::ELSE
            | op::RETURN
            | op::UNREACHABLE
            | op::CALL
            | op::CALL_INDIRECT
    )
}

impl RunTable {
    /// Partitions `funcs` (whose instructions `sites` lists in code order).
    pub(crate) fn build(funcs: &[Arc<FuncArtifact>], sites: Arc<[Location]>) -> RunTable {
        let mut starts = Vec::new();
        let mut base = 0;
        for f in funcs {
            let low = f.lowered();
            let n = low.len();
            // One extra flag: branches may target one-past-the-end.
            let mut leader = vec![false; n + 1];
            leader[0] = true;
            for t in low.targets.iter().chain(low.tables.iter().flat_map(|t| t.iter())) {
                leader[t.slot as usize] = true;
            }
            for slot in 0..n {
                if ends_run(low.original(slot).op) {
                    leader[slot + 1] = true;
                }
            }
            starts.extend((0..n).filter(|&s| leader[s]).map(|s| (base + s) as u32));
            base += n;
        }
        debug_assert_eq!(base, sites.len());
        starts.push(base as u32);
        RunTable { sites, starts: starts.into() }
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// `true` if the module defines no code.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every instruction site, in code order (the artifact's
    /// `instruction_sites`).
    pub fn sites(&self) -> &Arc<[Location]> {
        &self.sites
    }

    /// The site-index range of run `r`; `run(r).start` is its leader.
    pub fn run(&self, r: usize) -> Range<usize> {
        self.starts[r] as usize..self.starts[r + 1] as usize
    }

    /// The leader of run `r`.
    pub fn leader(&self, r: usize) -> Location {
        self.sites[self.starts[r] as usize]
    }

    /// The run containing the instruction at `loc`, if it is one.
    pub fn run_at(&self, loc: Location) -> Option<usize> {
        self.site_index(loc).map(|site| self.run_of(site))
    }

    /// Index into [`RunTable::sites`] of the instruction at `loc`, if it is
    /// one.
    pub(crate) fn site_index(&self, loc: Location) -> Option<usize> {
        self.sites.binary_search(&loc).ok()
    }

    /// The run containing site `site`.
    pub(crate) fn run_of(&self, site: usize) -> usize {
        self.starts.partition_point(|&s| s as usize <= site) - 1
    }
}

/// Engine-provided whole-run counters: one ordinary
/// [`ProbeKind::Count`](crate::ProbeKind) probe on the leader of each
/// counted run, reported as exact per-instruction counts
/// (`run count − corrections`; see the [module docs](self)).
///
/// The owning [`Monitor`](crate::Monitor) forwards three lifecycle events:
/// [`RunCounts::install`] from `on_attach`, [`RunCounts::uninstall`] from
/// `on_detach` and [`RunCounts::on_unwind`] from `on_unwind`. An instance
/// that is installed again after being uninstalled keeps accumulating into
/// the same rows.
#[derive(Debug, Default)]
pub struct RunCounts {
    table: Option<Arc<RunTable>>,
    /// The counter of every run ever counted, by run index.
    cells: BTreeMap<u32, Rc<Cell<u64>>>,
    /// Runs whose leader holds this instance's probes right now,
    /// ascending; a run counted `k` times a pass is listed `k` times.
    live: Vec<u32>,
    /// The corrections, by site index.
    adjust: BTreeMap<u32, i64>,
}

impl RunCounts {
    /// Creates an instance counting nothing yet.
    pub fn new() -> RunCounts {
        RunCounts::default()
    }

    /// Queues one `Count` probe per run of `runs` (indices into the
    /// process's [`InstrumentationCtx::runs`]; a run listed `k` times gets
    /// `k` probes and counts `k` per pass) on `batch`, for the caller to
    /// commit with [`InstrumentationCtx::apply_batch`] along with whatever
    /// else it installs. If the process is suspended inside one of those
    /// runs, the instructions it has yet to execute are credited here.
    pub fn install(
        &mut self,
        ctx: &mut InstrumentationCtx<'_>,
        runs: impl IntoIterator<Item = usize>,
        batch: &mut ProbeBatch,
    ) {
        let table = ctx.runs();
        if self.table.as_ref().is_some_and(|t| !Arc::ptr_eq(t, &table)) {
            // Another module: rows of the old one mean nothing here.
            *self = RunCounts::default();
        }
        self.live = runs.into_iter().map(|r| r as u32).collect();
        self.live.sort_unstable();
        for &r in &self.live {
            let cell = self.cells.entry(r).or_default();
            let leader = table.leader(r as usize);
            batch.add_local_val(leader.func, leader.pc, CountProbe::over(Rc::clone(cell)));
        }
        self.table = Some(table);
        self.hold_sites(ctx.process(), true);
        if let Some(at) = ctx.process().suspended_at() {
            self.correct(at, false, 1);
        }
    }

    /// Registers (or, with `on` false, unregisters) this instance with
    /// every function holding one of its leaders
    /// ([`FuncOverlay::run_counters`](crate::code::FuncOverlay)): where the
    /// per-instruction counter this replaces kept every site of the
    /// function alive in compiled code, the run counter keeps the sites
    /// other monitors empty, so swapping those monitors still re-binds.
    fn hold_sites(&self, process: &Process, on: bool) {
        let Some(table) = &self.table else { return };
        let mut funcs: Vec<_> = self.live.iter().map(|&r| table.leader(r as usize).func).collect();
        funcs.dedup();
        for func in funcs {
            let held = &process.code[process.local_index(func)].run_counters;
            held.set(if on { held.get() + 1 } else { held.get().saturating_sub(1) });
        }
    }

    /// Call from [`Monitor::on_detach`](crate::Monitor::on_detach), before
    /// the engine removes the probes: if the process is suspended inside a
    /// counted run, the instructions it has yet to execute are debited.
    pub fn uninstall(&mut self, process: &Process) {
        if let Some(at) = process.suspended_at() {
            self.correct(at, false, -1);
        }
        self.hold_sites(process, false);
        self.live.clear();
    }

    /// Call from [`Monitor::on_unwind`](crate::Monitor::on_unwind): debits
    /// the instructions of the abandoned run that never executed.
    pub fn on_unwind(&mut self, top: Location, executed: bool) {
        self.correct(top, executed, -1);
    }

    /// Adds `delta` to the part of `top`'s run that had not executed when
    /// execution stopped at `top` — from `top` itself, or from the
    /// instruction after it if `top` `executed` — provided the run holds a
    /// probe and the pass through it had begun.
    fn correct(&mut self, top: Location, executed: bool, delta: i64) {
        let Some(table) = &self.table else { return };
        let Some(at) = table.site_index(top) else { return };
        let r = table.run_of(at);
        let probes = self.live.iter().filter(|&&live| live as usize == r).count() as i64;
        let run = table.run(r);
        if probes == 0 || (!executed && at == run.start) {
            // Not counted — or stopped on the leader before its probes
            // fired, so nothing of this pass was.
            return;
        }
        for site in at + usize::from(executed)..run.end {
            *self.adjust.entry(site as u32).or_insert(0) += delta * probes;
        }
    }

    fn count(&self, run: &Cell<u64>, site: usize) -> u64 {
        run.get().wrapping_add_signed(self.adjust.get(&(site as u32)).copied().unwrap_or(0))
    }

    /// One row per instruction of every counted run, in code order.
    pub fn per_site(&self) -> Vec<(Location, u64)> {
        let Some(table) = &self.table else { return Vec::new() };
        let mut rows = Vec::new();
        for (&r, cell) in &self.cells {
            rows.extend(table.run(r as usize).map(|s| (table.sites[s], self.count(cell, s))));
        }
        rows
    }

    /// Sum of [`RunCounts::per_site`].
    pub fn total(&self) -> u64 {
        let Some(table) = &self.table else { return 0 };
        let runs: u64 =
            self.cells.iter().map(|(&r, c)| c.get() * table.run(r as usize).len() as u64).sum();
        runs.wrapping_add_signed(self.adjust.values().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Linker;
    use crate::{EngineConfig, Monitor, ProbeError, Report, RunOutcome, Trap};
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::BlockType;

    /// Counts the runs it is given, through the three forwarded events.
    struct Counted {
        counts: RunCounts,
        runs: Vec<usize>,
    }

    impl Monitor for Counted {
        fn name(&self) -> &'static str {
            "counted"
        }
        fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
            let mut batch = ProbeBatch::new();
            self.counts.install(ctx, self.runs.iter().copied(), &mut batch);
            ctx.apply_batch(batch).map(drop)
        }
        fn on_detach(&mut self, process: &mut Process) {
            self.counts.uninstall(process);
        }
        fn on_unwind(&mut self, top: Location, executed: bool) {
            self.counts.on_unwind(top, executed);
        }
        fn report(&self) -> Report {
            Report::new(self.name())
        }
    }

    /// `per_site` answers per instruction — no rows outside the counted
    /// runs — and a run listed twice counts twice, corrections included.
    #[test]
    fn count_at_is_exact_for_a_run_listed_twice() {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[], &[]);
        // A run ending in a `br`, the `block`'s unreachable `end`, and the
        // run counted: from the `br`'s target through a division by zero
        // to the function's `end`.
        f.block(BlockType::Empty).nop().nop().br(0).end();
        f.nop().i32_const(1).i32_const(0).i32_div_u().drop_().nop();
        mb.add_func("f", f);
        let mut p =
            Process::new(mb.build().unwrap(), EngineConfig::default(), &Linker::new()).unwrap();
        let table = Arc::clone(p.artifact().runs());
        let last = table.len() - 1;
        assert_eq!((table.run(0).len(), table.run(last).len()), (4, 7), "{table:?}");
        let counted = Counted { counts: RunCounts::new(), runs: vec![last, last] };

        // Suspended two instructions in, inside run 0: nothing to credit.
        assert_eq!(p.run_export_bounded("f", &[], 2).unwrap(), RunOutcome::OutOfFuel);
        let m = p.attach_monitor(counted).unwrap();
        assert_eq!(p.resume(u64::MAX), Err(Trap::DivisionByZero));

        let m = m.borrow();
        let run = table.run(last);
        let rows = m.counts.per_site();
        let row_sites: Vec<Location> = rows.iter().map(|&(loc, _)| loc).collect();
        let run_sites: Vec<Location> = run.clone().map(|site| table.sites()[site]).collect();
        assert_eq!(row_sites, run_sites, "one row per instruction of the counted run");
        for (k, &(loc, count)) in rows.iter().enumerate() {
            // Up to and including the division: once, under two probes.
            // What follows it was debited twice.
            let expect = if k <= 3 { 2 } else { 0 };
            assert_eq!(count, expect, "{loc:?}");
        }
        assert_eq!(table.run_at(table.sites()[run.end - 1]), Some(last));
        assert!(rows.iter().all(|&(loc, _)| loc != table.sites()[0]), "run 0 has no rows");
        assert_eq!(m.counts.total(), 2 * 4);
    }
}
