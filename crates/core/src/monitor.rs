//! The monitor lifecycle API: attachable/detachable instrumentation
//! sessions over a [`Process`].
//!
//! A [`Monitor`] is a self-contained dynamic analysis. Its lifecycle is
//! driven by the engine:
//!
//! 1. [`Process::attach_monitor`] calls [`Monitor::on_attach`] with an
//!    [`InstrumentationCtx`] — a facade over the process that *records
//!    every probe the monitor inserts* and lets it commit a whole
//!    [`ProbeBatch`] in one invalidation pass;
//! 2. the application runs; the monitor observes it through its probes;
//! 3. [`Process::detach_monitor`] calls [`Monitor::on_detach`], then
//!    removes all of the monitor's recorded probes in a single batched
//!    pass — provably restoring the zero-overhead baseline
//!    (`probed_location_count() == 0`, `!in_global_mode()` once the last
//!    monitor is gone);
//! 4. [`Monitor::report`] renders a structured [`Report`] at any point —
//!    named sections of typed key/value rows with a `Display` impl.
//!
//! Attachment is transactional: if `on_attach` fails midway, every probe
//! it already inserted is rolled back and the process is left unchanged.

use std::cell::{Ref, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use wizard_wasm::module::{FuncIdx, Module};

use crate::engine::{EngineConfig, ProbeError, Process};
use crate::probe::{Location, Probe, ProbeBatch, ProbeId, ProbeRef};
use crate::runs::RunTable;

// ---- structured reports ----

/// A typed report value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// An event count.
    Count(u64),
    /// A signed integer.
    Int(i64),
    /// A floating-point metric.
    Float(f64),
    /// A `covered / total` pair, displayed with a percentage.
    Fraction(u64, u64),
    /// A wall-clock duration.
    Duration(Duration),
    /// Free-form text.
    Text(String),
}

impl MetricValue {
    /// Accumulates `other` into this value — the row-level primitive of
    /// [`Report::merge`]. Counts, ints, floats, durations, and fractions
    /// (componentwise) add; text keeps the first value seen. Mismatched
    /// kinds keep `self` unchanged.
    pub fn combine(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Count(a), MetricValue::Count(b)) => *a += b,
            (MetricValue::Int(a), MetricValue::Int(b)) => *a += b,
            (MetricValue::Float(a), MetricValue::Float(b)) => *a += b,
            (MetricValue::Fraction(c, t), MetricValue::Fraction(oc, ot)) => {
                *c += oc;
                *t += ot;
            }
            (MetricValue::Duration(a), MetricValue::Duration(b)) => *a += *b,
            _ => {}
        }
    }
}

impl core::fmt::Display for MetricValue {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MetricValue::Count(n) => write!(f, "{n}"),
            MetricValue::Int(n) => write!(f, "{n}"),
            MetricValue::Float(v) => write!(f, "{v:.2}"),
            MetricValue::Fraction(c, t) => {
                let pct = 100.0 * *c as f64 / (*t).max(1) as f64;
                write!(f, "{c}/{t} ({pct:.1}%)")
            }
            MetricValue::Duration(d) => write!(f, "{d:?}"),
            MetricValue::Text(s) => f.write_str(s),
        }
    }
}

/// One labelled row of a report section.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Row label (a location, function name, or metric name).
    pub label: String,
    /// The typed value.
    pub value: MetricValue,
}

/// A named group of rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Section {
    /// Section name.
    pub name: String,
    /// Rows in insertion order.
    pub rows: Vec<Row>,
}

impl Section {
    /// Creates an empty section.
    pub fn new(name: impl Into<String>) -> Section {
        Section { name: name.into(), rows: Vec::new() }
    }

    /// Appends a row.
    pub fn row(&mut self, label: impl Into<String>, value: MetricValue) -> &mut Section {
        self.rows.push(Row { label: label.into(), value });
        self
    }

    /// Appends a [`MetricValue::Count`] row.
    pub fn count(&mut self, label: impl Into<String>, n: u64) -> &mut Section {
        self.row(label, MetricValue::Count(n))
    }

    /// Appends a [`MetricValue::Float`] row.
    pub fn float(&mut self, label: impl Into<String>, v: f64) -> &mut Section {
        self.row(label, MetricValue::Float(v))
    }

    /// Appends a [`MetricValue::Fraction`] row.
    pub fn fraction(&mut self, label: impl Into<String>, covered: u64, total: u64) -> &mut Section {
        self.row(label, MetricValue::Fraction(covered, total))
    }

    /// Appends a [`MetricValue::Duration`] row.
    pub fn duration(&mut self, label: impl Into<String>, d: Duration) -> &mut Section {
        self.row(label, MetricValue::Duration(d))
    }

    /// Appends a [`MetricValue::Text`] row.
    pub fn text(&mut self, label: impl Into<String>, s: impl Into<String>) -> &mut Section {
        self.row(label, MetricValue::Text(s.into()))
    }

    /// The value of the first row with this label, if any.
    pub fn get(&self, label: &str) -> Option<&MetricValue> {
        self.rows.iter().find(|r| r.label == label).map(|r| &r.value)
    }

    /// The count value of the first row with this label, if it is a
    /// [`MetricValue::Count`].
    pub fn count_of(&self, label: &str) -> Option<u64> {
        match self.get(label) {
            Some(MetricValue::Count(n)) => Some(*n),
            _ => None,
        }
    }

    /// Accumulates `other` into this section: rows are matched by label
    /// (first occurrence) and their values combined with
    /// [`MetricValue::combine`]; unmatched rows are appended.
    pub fn merge(&mut self, other: &Section) {
        for row in &other.rows {
            match self.rows.iter_mut().find(|r| r.label == row.label) {
                Some(mine) => mine.value.combine(&row.value),
                None => self.rows.push(row.clone()),
            }
        }
    }
}

/// A structured post-execution report: named sections of typed rows.
///
/// ```
/// use wizard_engine::{MetricValue, Report};
///
/// let mut r = Report::new("hotness");
/// r.section("summary").count("total instruction executions", 42);
/// assert_eq!(
///     r.get("summary").unwrap().count_of("total instruction executions"),
///     Some(42)
/// );
/// assert!(r.to_string().contains("total instruction executions: 42"));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Report title (conventionally the monitor's [`Monitor::name`]).
    pub title: String,
    /// Sections in insertion order.
    pub sections: Vec<Section>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>) -> Report {
        Report { title: title.into(), sections: Vec::new() }
    }

    /// Appends an empty section and returns it for row insertion.
    pub fn section(&mut self, name: impl Into<String>) -> &mut Section {
        self.sections.push(Section::new(name));
        self.sections.last_mut().expect("just pushed")
    }

    /// The first section with this name, if any.
    pub fn get(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Accumulates `other` into this report: sections are matched by name
    /// and merged ([`Section::merge`]); unmatched sections are appended.
    ///
    /// This is how a multi-process scheduler (`wizard-pool`) folds the
    /// per-process reports of the *same* monitor across a fleet into one
    /// aggregate — e.g. summing the hotness counts of N instrumented
    /// processes running the same analysis.
    ///
    /// ```
    /// use wizard_engine::Report;
    ///
    /// let mut a = Report::new("hotness");
    /// a.section("summary").count("events", 2);
    /// let mut b = Report::new("hotness");
    /// b.section("summary").count("events", 3);
    /// a.merge(&b);
    /// assert_eq!(a.get("summary").unwrap().count_of("events"), Some(5));
    /// ```
    pub fn merge(&mut self, other: &Report) {
        for section in &other.sections {
            match self.sections.iter_mut().find(|s| s.name == section.name) {
                Some(mine) => mine.merge(section),
                None => self.sections.push(section.clone()),
            }
        }
    }
}

impl core::fmt::Display for Report {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "=== {} ===", self.title)?;
        for s in &self.sections {
            writeln!(f, "[{}]", s.name)?;
            for r in &s.rows {
                writeln!(f, "  {}: {}", r.label, r.value)?;
            }
        }
        Ok(())
    }
}

// ---- the lifecycle trait ----

/// A self-contained dynamic analysis with an attach/detach lifecycle.
///
/// Implementations observe the application purely through probes inserted
/// via the [`InstrumentationCtx`] they receive in [`Monitor::on_attach`];
/// the engine tracks those probes and removes them on detach.
pub trait Monitor {
    /// A short, stable identifier (used as the default report title).
    fn name(&self) -> &'static str;

    /// Installs this monitor's probes.
    ///
    /// Insertions of many probes should go through a [`ProbeBatch`]
    /// committed with [`InstrumentationCtx::apply_batch`] so the whole set
    /// costs one invalidation pass.
    ///
    /// Called at most once per attachment: attaching an instance that is
    /// currently attached is rejected
    /// ([`ProbeError::MonitorAlreadyAttached`]). An instance *may* be
    /// attached again after being detached; implementations that keep
    /// per-attachment state (site lists, counters) and want fresh numbers
    /// per session should reset it here — otherwise observations
    /// accumulate across sessions.
    ///
    /// # Errors
    ///
    /// Propagates [`ProbeError`]s; the engine rolls back any probes
    /// already inserted by the failed attach.
    fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError>;

    /// Called by [`Process::detach_monitor`] *before* the monitor's probes
    /// are removed — the place to take final samples or drain shadow
    /// state. The default does nothing.
    fn on_detach(&mut self, process: &mut Process) {
        let _ = process;
    }

    /// Called when the running invocation is abandoned instead of
    /// completing: it trapped, or its suspension was discarded
    /// ([`Process::cancel_suspended`], or the process was dropped while
    /// suspended). Every frame is already unwound — accessors are invalid —
    /// and `top` is where the innermost one stopped: the trapping
    /// instruction (`executed`: its probes fired and it began executing),
    /// or the instruction a suspended run would have executed next (not
    /// `executed`: its probes never fired). Monitors that keep shadow
    /// state or count in bulk settle it here — the entry/exit library
    /// drains its shadow stack, [`RunCounts`](crate::RunCounts) debits the
    /// rest of the abandoned run. The default does nothing.
    ///
    /// ```
    /// use wizard_engine::store::Linker;
    /// use wizard_engine::{
    ///     EngineConfig, InstrumentationCtx, Location, Monitor, ProbeError, Process, Report, Trap,
    /// };
    /// use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    ///
    /// #[derive(Default)]
    /// struct LastStop(Option<(Location, bool)>);
    ///
    /// impl Monitor for LastStop {
    ///     fn name(&self) -> &'static str {
    ///         "last-stop"
    ///     }
    ///     fn on_attach(&mut self, _: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
    ///         Ok(())
    ///     }
    ///     fn on_unwind(&mut self, top: Location, executed: bool) {
    ///         self.0 = Some((top, executed));
    ///     }
    ///     fn report(&self) -> Report {
    ///         Report::new(self.name())
    ///     }
    /// }
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut mb = ModuleBuilder::new();
    /// let mut f = FuncBuilder::new(&[], &[]);
    /// f.nop().unreachable();
    /// mb.add_func("boom", f);
    /// let mut p = Process::new(mb.build()?, EngineConfig::default(), &Linker::new())?;
    /// let m = p.attach_monitor(LastStop::default())?;
    /// assert_eq!(p.invoke_export("boom", &[]), Err(Trap::Unreachable));
    /// // `unreachable` sits at byte 1 of function 0, and it did execute.
    /// assert_eq!(m.borrow().0, Some((Location { func: 0, pc: 1 }, true)));
    /// # Ok(())
    /// # }
    /// ```
    fn on_unwind(&mut self, top: Location, executed: bool) {
        let _ = (top, executed);
    }

    /// Renders the structured post-execution report.
    fn report(&self) -> Report;
}

// ---- the attach-time facade ----

/// The facade a [`Monitor`] instruments through during
/// [`Monitor::on_attach`].
///
/// Every probe inserted through the context is recorded against the
/// monitor's handle, so [`Process::detach_monitor`] can later remove all
/// of them in one batched pass.
pub struct InstrumentationCtx<'a> {
    process: &'a mut Process,
    recorded: Vec<ProbeId>,
}

impl<'a> InstrumentationCtx<'a> {
    pub(crate) fn new(process: &'a mut Process) -> InstrumentationCtx<'a> {
        InstrumentationCtx { process, recorded: Vec::new() }
    }

    /// The module under instrumentation.
    pub fn module(&self) -> &Module {
        self.process.module()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        self.process.config()
    }

    /// Every instruction of every locally-defined function, in code order:
    /// the site list of a whole-module monitor. Shared by everything
    /// instantiated from the module's artifact — no body is decoded here.
    pub fn instruction_sites(&mut self) -> Arc<[Location]> {
        self.process.instruction_sites()
    }

    /// The partition of the module's code into straight-line runs
    /// ([`ModuleArtifact::runs`](crate::ModuleArtifact::runs)), shared like
    /// [`InstrumentationCtx::instruction_sites`].
    pub fn runs(&mut self) -> Arc<RunTable> {
        self.process.runs()
    }

    /// The process under instrumentation.
    pub(crate) fn process(&self) -> &Process {
        self.process
    }

    /// Inserts one local probe immediately (one invalidation pass if the
    /// instruction is a new probe site). Prefer
    /// [`InstrumentationCtx::apply_batch`] when inserting many.
    ///
    /// # Errors
    ///
    /// As [`Process::add_local_probe`].
    pub fn add_local_probe(
        &mut self,
        func: FuncIdx,
        pc: u32,
        probe: ProbeRef,
    ) -> Result<ProbeId, ProbeError> {
        let id = self.process.add_local_probe(func, pc, probe)?;
        self.recorded.push(id);
        Ok(id)
    }

    /// Inserts one owned local probe value immediately.
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
        let id = self.process.add_local_probe_val(func, pc, probe)?;
        self.recorded.push(id);
        Ok(id)
    }

    /// Inserts a global probe.
    ///
    /// # Errors
    ///
    /// As [`Process::add_global_probe`].
    pub fn add_global_probe(&mut self, probe: ProbeRef) -> Result<ProbeId, ProbeError> {
        let id = self.process.add_global_probe(probe)?;
        self.recorded.push(id);
        Ok(id)
    }

    /// Inserts an owned global probe value.
    ///
    /// # Errors
    ///
    /// As [`Process::add_global_probe`].
    pub fn add_global_probe_val(&mut self, probe: impl Probe) -> Result<ProbeId, ProbeError> {
        let id = self.process.add_global_probe_val(probe)?;
        self.recorded.push(id);
        Ok(id)
    }

    /// Commits a [`ProbeBatch`] in at most one invalidation pass, returning
    /// the ids of the inserted probes in queue order. All ids are recorded
    /// for removal at detach.
    ///
    /// # Errors
    ///
    /// As [`Process::apply_batch`]; a failed batch changes nothing.
    pub fn apply_batch(&mut self, batch: ProbeBatch) -> Result<Vec<ProbeId>, ProbeError> {
        let ids = self.process.apply_batch(batch)?;
        self.recorded.extend(ids.iter().copied());
        Ok(ids)
    }

    /// The probe ids recorded so far during this attach.
    pub fn recorded(&self) -> &[ProbeId] {
        &self.recorded
    }

    pub(crate) fn finish(self) -> Vec<ProbeId> {
        self.recorded
    }
}

// ---- handles and the registry ----

/// Identifier of an attached monitor, used for detaching. `Copy`, so it
/// can be kept alongside the typed [`MonitorRef`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MonitorHandle(pub(crate) u64);

/// A typed, shared reference to an attached (or detached) monitor.
///
/// The engine and the caller share ownership of the monitor: the caller
/// keeps the `MonitorRef` for typed queries and final reporting; the
/// engine drops its half at [`Process::detach_monitor`].
pub struct MonitorRef<M: Monitor + ?Sized> {
    pub(crate) handle: MonitorHandle,
    pub(crate) monitor: Rc<RefCell<M>>,
}

impl<M: Monitor + ?Sized> MonitorRef<M> {
    /// The handle to pass to [`Process::detach_monitor`].
    pub fn handle(&self) -> MonitorHandle {
        self.handle
    }

    /// Borrows the monitor for typed queries.
    ///
    /// # Panics
    ///
    /// Panics if called while the monitor is borrowed mutably (i.e. from
    /// inside one of its own probes).
    pub fn borrow(&self) -> Ref<'_, M> {
        self.monitor.borrow()
    }

    /// Renders the monitor's report.
    pub fn report(&self) -> Report {
        self.monitor.borrow().report()
    }
}

impl<M: Monitor + ?Sized> Clone for MonitorRef<M> {
    fn clone(&self) -> MonitorRef<M> {
        MonitorRef { handle: self.handle, monitor: Rc::clone(&self.monitor) }
    }
}

impl<M: Monitor + ?Sized> core::fmt::Debug for MonitorRef<M> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MonitorRef")
            .field("handle", &self.handle)
            .field("name", &self.monitor.borrow().name())
            .finish()
    }
}

pub(crate) struct MonitorEntry {
    pub(crate) monitor: Rc<RefCell<dyn Monitor>>,
    pub(crate) probes: Vec<ProbeId>,
}

/// Per-process monitor bookkeeping.
#[derive(Default)]
pub(crate) struct MonitorRegistry {
    next: u64,
    pub(crate) entries: Vec<(MonitorHandle, MonitorEntry)>,
}

impl MonitorRegistry {
    pub(crate) fn fresh(&mut self) -> MonitorHandle {
        self.next += 1;
        MonitorHandle(self.next)
    }
}

impl Process {
    /// An *ad-hoc* instrumentation context, not tied to any monitor.
    ///
    /// Useful for one-off tooling and for libraries (like entry/exit
    /// instrumentation) that are layered above probes but below monitors.
    /// Probes inserted through an ad-hoc context are not registered for
    /// automatic removal — the caller keeps the returned [`ProbeId`]s.
    pub fn instrumentation(&mut self) -> InstrumentationCtx<'_> {
        InstrumentationCtx::new(self)
    }

    /// Attaches `monitor`: runs [`Monitor::on_attach`] and registers every
    /// probe it inserts under a fresh [`MonitorHandle`]. Returns a typed
    /// [`MonitorRef`] sharing ownership of the monitor with the engine.
    ///
    /// # Errors
    ///
    /// Propagates the monitor's [`ProbeError`], after rolling back any
    /// probes the failed attach had already inserted.
    pub fn attach_monitor<M: Monitor + 'static>(
        &mut self,
        monitor: M,
    ) -> Result<MonitorRef<M>, ProbeError> {
        let rc = Rc::new(RefCell::new(monitor));
        let dynamic: Rc<RefCell<dyn Monitor>> = Rc::clone(&rc) as Rc<RefCell<dyn Monitor>>;
        let handle = self.attach_monitor_dyn(dynamic)?;
        Ok(MonitorRef { handle, monitor: rc })
    }

    /// Type-erased [`Process::attach_monitor`], for callers selecting
    /// monitors dynamically (e.g. a `--monitors=` flag).
    ///
    /// # Errors
    ///
    /// As [`Process::attach_monitor`]; additionally fails with
    /// [`ProbeError::MonitorAlreadyAttached`] if this exact instance is
    /// already attached (`on_attach` is not required to be idempotent).
    pub fn attach_monitor_dyn(
        &mut self,
        monitor: Rc<RefCell<dyn Monitor>>,
    ) -> Result<MonitorHandle, ProbeError> {
        if self.monitors.entries.iter().any(|(_, e)| Rc::ptr_eq(&e.monitor, &monitor)) {
            return Err(ProbeError::MonitorAlreadyAttached);
        }
        let mut ctx = InstrumentationCtx::new(self);
        let result = monitor.borrow_mut().on_attach(&mut ctx);
        let recorded = ctx.finish();
        if let Err(e) = result {
            let mut rollback = ProbeBatch::new();
            for id in recorded {
                rollback.remove(id);
            }
            self.apply_batch(rollback).expect("removals cannot fail");
            return Err(e);
        }
        let handle = self.monitors.fresh();
        self.monitors.entries.push((handle, MonitorEntry { monitor, probes: recorded }));
        Ok(handle)
    }

    /// Detaches a monitor: calls [`Monitor::on_detach`], then removes all
    /// of its recorded probes in one batch (compiled code re-binds the
    /// emptied sites; a function left with no probes at all rejoins the
    /// shared baseline code). Once the
    /// last monitor is detached the process is back at the zero-overhead
    /// baseline: no probed locations, not in global mode, and original
    /// bytecode restored everywhere.
    ///
    /// Probes the monitor already removed itself (e.g. self-removing
    /// coverage probes) are skipped silently.
    ///
    /// # Errors
    ///
    /// Fails with [`ProbeError::UnknownMonitor`] if the handle was never
    /// attached or is already detached.
    pub fn detach_monitor(&mut self, handle: MonitorHandle) -> Result<(), ProbeError> {
        let pos = self
            .monitors
            .entries
            .iter()
            .position(|(h, _)| *h == handle)
            .ok_or(ProbeError::UnknownMonitor)?;
        let (_, entry) = self.monitors.entries.remove(pos);
        entry.monitor.borrow_mut().on_detach(self);
        let mut batch = ProbeBatch::new();
        for id in entry.probes {
            batch.remove(id);
        }
        self.apply_batch(batch).expect("removals cannot fail");
        Ok(())
    }

    /// Tells every attached monitor that the running invocation was
    /// abandoned at `top` ([`Monitor::on_unwind`]). Only when `dropping`
    /// — the process is being dropped, which must not panic — does a
    /// monitor its owner holds borrowed across the call miss the event.
    pub(crate) fn notify_unwind(&mut self, top: Location, executed: bool, dropping: bool) {
        for (_, entry) in &self.monitors.entries {
            match entry.monitor.try_borrow_mut() {
                Ok(mut monitor) => monitor.on_unwind(top, executed),
                Err(e) => assert!(dropping, "a monitor is borrowed across an unwind: {e}"),
            }
        }
    }

    /// Number of currently attached monitors.
    pub fn monitor_count(&self) -> usize {
        self.monitors.entries.len()
    }

    /// Handles of all currently attached monitors, in attach order.
    pub fn monitor_handles(&self) -> Vec<MonitorHandle> {
        self.monitors.entries.iter().map(|(h, _)| *h).collect()
    }

    /// Reports from all currently attached monitors, in attach order.
    pub fn monitor_reports(&self) -> Vec<Report> {
        self.monitors.entries.iter().map(|(_, e)| e.monitor.borrow().report()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_display_and_lookup() {
        let mut r = Report::new("demo");
        r.section("summary").count("events", 7).fraction("coverage", 3, 4).text("note", "hello");
        let s = r.to_string();
        assert!(s.contains("=== demo ==="));
        assert!(s.contains("[summary]"));
        assert!(s.contains("events: 7"));
        assert!(s.contains("coverage: 3/4 (75.0%)"));
        assert!(s.contains("note: hello"));
        assert_eq!(r.get("summary").unwrap().count_of("events"), Some(7));
        assert_eq!(r.get("missing"), None);
        assert_eq!(r.get("summary").unwrap().count_of("note"), None);
    }

    #[test]
    fn metric_value_display() {
        assert_eq!(MetricValue::Count(5).to_string(), "5");
        assert_eq!(MetricValue::Int(-3).to_string(), "-3");
        assert_eq!(MetricValue::Float(1.234).to_string(), "1.23");
        assert_eq!(MetricValue::Fraction(0, 0).to_string(), "0/0 (0.0%)");
    }
}
