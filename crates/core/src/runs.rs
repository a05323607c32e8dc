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
//! after the stopping point ([`RunTable::rest_of_run`]), to stay exact to
//! the instruction:
//!
//! * `+1` when installed while the process is suspended mid-run (the
//!   leader already went by uncounted, the suffix will still execute);
//! * `−1` when removed while suspended mid-run (the leader counted the
//!   whole run, the suffix executes unobserved);
//! * `−1` when the run is abandoned — a trap, a cancelled or dropped
//!   suspension — delivered through [`Monitor::on_unwind`](crate::Monitor).
//!
//! Coverage by run (`wizard_monitors::CoverageMonitor`) makes the same
//! three corrections to the sites its leader probes mark.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use wizard_wasm::opcodes as op;
use wizard_wasm::validate::SideEntry;

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
pub(crate) fn ends_run(opcode: u8) -> bool {
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
    /// Lists every instruction of `funcs` in code order and partitions
    /// the list into runs.
    pub(crate) fn build(funcs: &[Arc<FuncArtifact>]) -> RunTable {
        let mut sites = Vec::new();
        let mut starts = Vec::new();
        for f in funcs {
            let pcs = f.instr_pcs();
            // Leaders by byte pc; one extra flag, as branches may target
            // one-past-the-end.
            let mut leader = vec![false; f.bytes.len() + 1];
            leader[0] = true;
            for e in f.meta.side.values() {
                let targets = match e {
                    SideEntry::Br(t) | SideEntry::IfFalse(t) | SideEntry::ElseSkip(t) => {
                        std::slice::from_ref(t)
                    }
                    SideEntry::Table(ts) => ts.as_slice(),
                };
                for t in targets {
                    leader[t.target_pc as usize] = true;
                }
            }
            for w in pcs.windows(2) {
                if ends_run(f.bytes[w[0] as usize]) {
                    leader[w[1] as usize] = true;
                }
            }
            for &pc in pcs {
                if leader[pc as usize] {
                    starts.push(sites.len() as u32);
                }
                sites.push(Location { func: f.func, pc });
            }
        }
        starts.push(sites.len() as u32);
        RunTable { sites: sites.into(), starts: starts.into() }
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

    /// The run execution stopped in at `top`, and the site range of it that
    /// had not executed: from `top` itself, or from the instruction after
    /// it if `top` `executed`. `None` if `top` is no instruction, or if it
    /// is a leader that had not `executed` — stopped before the leader's
    /// probes fired, so nothing of a pass through the run began.
    pub fn rest_of_run(&self, top: Location, executed: bool) -> Option<(usize, Range<usize>)> {
        let at = self.site_index(top)?;
        let r = self.run_of(at);
        let run = self.run(r);
        if !executed && at == run.start {
            return None;
        }
        Some((r, at + usize::from(executed)..run.end))
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
        if let Some(at) = ctx.suspended_at() {
            self.correct(at, false, 1);
        }
    }

    /// Call from [`Monitor::on_detach`](crate::Monitor::on_detach), before
    /// the engine removes the probes: if the process is suspended inside a
    /// counted run, the instructions it has yet to execute are debited.
    pub fn uninstall(&mut self, process: &Process) {
        if let Some(at) = process.suspended_at() {
            self.correct(at, false, -1);
        }
        self.live.clear();
    }

    /// Call from [`Monitor::on_unwind`](crate::Monitor::on_unwind): debits
    /// the instructions of the abandoned run that never executed.
    pub fn on_unwind(&mut self, top: Location, executed: bool) {
        self.correct(top, executed, -1);
    }

    /// Adds `delta` to the part of `top`'s run that had not executed when
    /// execution stopped at `top` ([`RunTable::rest_of_run`]), provided the
    /// run holds a probe.
    fn correct(&mut self, top: Location, executed: bool, delta: i64) {
        let Some(table) = &self.table else { return };
        let Some((r, rest)) = table.rest_of_run(top, executed) else { return };
        let probes = self.live.iter().filter(|&&live| live as usize == r).count() as i64;
        if probes == 0 {
            return;
        }
        for site in rest {
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
