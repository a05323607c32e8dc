//! [`ScriptMonitor`]: a compiled script as a standard lifecycle
//! [`Monitor`] — attach compiles (match → classify → batch-install),
//! detach removes every installed probe in one pass (restoring the
//! zero-overhead baseline), and [`Monitor::report`] renders the script's
//! `report` directives over its counter bank.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::rc::Rc;

use wizard_engine::{
    InstrumentationCtx, Location, Monitor, ProbeBatch, ProbeError, ProbeKind, Process, Report,
    RunTable,
};
use wizard_trace::{
    BranchTraceProbe, MemorySink, SiteDict, TraceCounters, TraceSink, TraceWriter, WriterRef,
};
use wizard_wasm::module::Module;

use wizard_analysis::{ModuleFacts, TosFact};

use crate::ast::{Action, Expr, ReportKind, Rule, Script};
use crate::error::ScriptError;
use crate::lower::{
    lower_rule_with_facts, materialize_rule, CounterBank, LoweredProbe, SiteFacts, Table,
};
use crate::matcher::{match_rule_indexed, ModuleIndex, Site};
use crate::parse;

/// One installed probe, as the compiler classified it. A per-site bump
/// counted per run ([`ScriptMonitor::lowering`]) is one `Count` entry at
/// the run's leader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoweredSite {
    /// Index of the originating rule within the script.
    pub rule: usize,
    /// The probed location.
    pub loc: Location,
    /// The probe shape the rule lowered to at this site.
    pub kind: ProbeKind,
    /// The residual predicate after static folding (`None` if the probe
    /// fires unconditionally).
    pub residual: Option<String>,
}

/// Attach-time state: the counter bank plus compilation metadata.
struct Attached {
    bank: CounterBank,
    lowering: Vec<LoweredSite>,
    labels: HashMap<u32, String>,
    matched_sites: usize,
    dropped_sites: usize,
    warnings: Vec<String>,
}

/// Live trace-capture state, present while a script with a `trace`
/// action is attached (the writer moves out at detach).
struct TraceState {
    writer: Option<WriterRef>,
    dict: SiteDict,
    final_counters: TraceCounters,
    error: Option<io::Error>,
}

/// A [`Monitor`] executing a wizard-script program.
///
/// The script is compiled against the process's module during
/// [`Monitor::on_attach`]; compilation failures (a rule matching nothing,
/// a bad location) reject the attach with
/// [`ProbeError::MonitorRejected`] carrying the script diagnostic, and
/// the engine rolls back any probes already inserted.
pub struct ScriptMonitor {
    script: Script,
    attached: Option<Attached>,
    use_facts: bool,
    trace_sink: Option<Box<dyn TraceSink>>,
    trace_memory: Option<MemorySink>,
    trace: Option<TraceState>,
}

impl ScriptMonitor {
    /// Creates a monitor over a parsed script.
    ///
    /// Attach-time lowering consults per-site dataflow facts (stack
    /// shape and top-of-stack constancy from [`wizard_analysis`]) to
    /// fold `tos` predicates and drop probes at statically-unreachable
    /// sites; disable with [`ScriptMonitor::without_facts`].
    pub fn new(script: Script) -> ScriptMonitor {
        ScriptMonitor {
            script,
            attached: None,
            use_facts: true,
            trace_sink: None,
            trace_memory: None,
            trace: None,
        }
    }

    /// Disables fact-driven lowering: every site compiles exactly as if
    /// no static analysis ran. Reports are identical either way — facts
    /// only change *how* a probe observes, never *what* it counts.
    #[must_use]
    pub fn without_facts(mut self) -> ScriptMonitor {
        self.use_facts = false;
        self
    }

    /// Parses `source` and creates the monitor.
    ///
    /// # Errors
    ///
    /// Returns [`ScriptError`] as [`parse::parse`].
    pub fn from_source(source: &str) -> Result<ScriptMonitor, ScriptError> {
        Ok(ScriptMonitor::new(parse::parse(source)?))
    }

    /// The script this monitor executes.
    pub fn script(&self) -> &Script {
        &self.script
    }

    /// The compiled probe classification, one entry per installed probe
    /// (empty before the first attach), in rule order.
    ///
    /// An unconditional rule's `inc t[site]` — no `when`, not `once`, and
    /// no predicate anywhere in the script reading `t` — is counted *per
    /// run* wherever the rule matches every instruction of a straight-line
    /// run: one `Count` probe on the run's leader stands for the whole
    /// run here (and in [`ScriptMonitor::kind_counts`]), and the report
    /// expands it back to exact per-site rows. `match * do inc exec[site]`
    /// is all of them.
    pub fn lowering(&self) -> &[LoweredSite] {
        self.attached.as_ref().map_or(&[], |a| &a.lowering)
    }

    /// `(count, operand, generic)` installed-probe totals — the assertion
    /// surface for "this script lowered to the intrinsified fast path". A
    /// bump counted per run is one `Count` probe per run, not per site.
    pub fn kind_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for l in self.lowering() {
            match l.kind {
                ProbeKind::Count => c.0 += 1,
                ProbeKind::Operand => c.1 += 1,
                ProbeKind::Generic => c.2 += 1,
            }
        }
        c
    }

    /// Sites matched by some rule (before predicate folding).
    pub fn matched_sites(&self) -> usize {
        self.attached.as_ref().map_or(0, |a| a.matched_sites)
    }

    /// Rule-site pairs whose predicate folded to `false` — instrumentation
    /// the compiler proved away.
    pub fn dropped_sites(&self) -> usize {
        self.attached.as_ref().map_or(0, |a| a.dropped_sites)
    }

    /// The current value of a counter (scalar value, or table sum).
    pub fn counter(&self, name: &str) -> u64 {
        self.attached.as_ref().map_or(0, |a| a.bank.sum(name))
    }

    /// Attach-time diagnostics: rules whose every matched site the
    /// analysis proved unreachable (the rule installs nothing and its
    /// counters stay zero), in the same spirit as the matcher's
    /// nearest-candidate hints.
    pub fn warnings(&self) -> &[String] {
        self.attached.as_ref().map_or(&[], |a| &a.warnings)
    }

    /// Streams `trace` actions to `sink` instead of the default internal
    /// [`MemorySink`] (e.g. a `FileSink` for long captures). The sink is
    /// consumed by the first attach; a re-attach falls back to a fresh
    /// in-memory sink.
    #[must_use]
    pub fn with_trace_sink(mut self, sink: Box<dyn TraceSink>) -> ScriptMonitor {
        self.trace_sink = Some(sink);
        self
    }

    /// The captured trace stream for scripts with a `trace` action and
    /// the default in-memory sink. Complete once detached; `None` when
    /// nothing traced or an external sink was supplied.
    pub fn trace_data(&self) -> Option<Vec<u8>> {
        self.trace_memory.as_ref().map(MemorySink::data)
    }

    /// The trace site dictionary built at attach (`None` when the script
    /// has no `trace` action or before the first attach).
    pub fn trace_dict(&self) -> Option<&SiteDict> {
        self.trace.as_ref().map(|t| &t.dict)
    }

    /// Trace writer counters (all zero when the script has no `trace`
    /// action); final once detached.
    pub fn trace_counters(&self) -> TraceCounters {
        match &self.trace {
            Some(t) => match &t.writer {
                Some(w) => w.borrow().counters(),
                None => t.final_counters,
            },
            None => TraceCounters::default(),
        }
    }

    /// The first trace-sink error hit during the stream, if any (taken
    /// at detach; probe fire paths cannot propagate errors).
    pub fn trace_error(&self) -> Option<&io::Error> {
        self.trace.as_ref().and_then(|t| t.error.as_ref())
    }
}

/// Maps an analysis fact about the stack *before* a site to the
/// lowering-facts shape `lower_rule_with_facts` consumes.
fn site_facts(fact: TosFact) -> SiteFacts {
    match fact {
        TosFact::Unreachable => SiteFacts { unreachable: true, ..SiteFacts::default() },
        TosFact::Empty => SiteFacts { stack_empty: true, ..SiteFacts::default() },
        TosFact::Const(bits) => SiteFacts { tos_const: Some(bits), ..SiteFacts::default() },
        TosFact::Unknown => SiteFacts::default(),
    }
}

fn func_label(module: &Module, func: u32) -> String {
    module.func_name(func).map_or_else(|| format!("func[{func}]"), ToString::to_string)
}

/// `true` if `e` reads counter `name`.
fn reads(e: &Expr, name: &str) -> bool {
    match e {
        Expr::Counter { name: n, .. } => n == name,
        Expr::Unary(_, a) => reads(a, name),
        Expr::Binary(_, a, b) => reads(a, name) || reads(b, name),
        _ => false,
    }
}

/// The table `action` of `rule` bumps, if the bump may be counted per run:
/// an unconditional per-site bump of a table no predicate of the script
/// reads back.
fn countable_per_run<'a>(rules: &[Rule], rule: &Rule, action: &'a Action) -> Option<&'a str> {
    let Action::Inc { counter, per_site: true } = action else { return None };
    let read = rules.iter().any(|r| r.when.as_ref().is_some_and(|w| reads(w, counter)));
    (!rule.once && rule.when.is_none() && !read).then_some(counter)
}

/// The runs `sites` cover completely, counting only sites that can execute
/// (a run with a provably dead instruction keeps its per-site lowering,
/// which drops the dead probe). `site_runs[k]` is the run of `sites[k]`.
fn covered_runs(table: &RunTable, site_runs: &[Option<usize>], facts: &[SiteFacts]) -> Vec<usize> {
    let mut hits = vec![0; table.len()];
    for (k, run) in site_runs.iter().enumerate() {
        if let (Some(r), false) = (run, facts.get(k).is_some_and(|f| f.unreachable)) {
            hits[*r] += 1;
        }
    }
    (0..table.len()).filter(|&r| hits[r] == table.run(r).len()).collect()
}

impl Monitor for ScriptMonitor {
    fn name(&self) -> &'static str {
        "script"
    }

    fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
        // Match and lower every rule against this module.
        let mut bank = CounterBank::default();
        let mut lowered: Vec<LoweredProbe> = Vec::new();
        let mut matched_sites = 0;
        let mut dropped_sites = 0;
        let mut labels = HashMap::new();
        let mut warnings = Vec::new();
        let mut trace_sites: Vec<Site> = Vec::new();
        let mut lowering: Vec<LoweredSite> = Vec::new();
        // The tables counted per run, with the runs each is counted on (a
        // run once per rule bumping it there) — and the run table, if
        // there is any such table.
        let rules = &self.script.rules;
        let mut per_run: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for rule in rules {
            for table in rule.actions.iter().filter_map(|a| countable_per_run(rules, rule, a)) {
                bank.count_per_run(table);
                per_run.entry(table).or_default();
            }
        }
        let runs = (!per_run.is_empty()).then(|| ctx.runs());
        {
            let module = ctx.module();
            let index = ModuleIndex::new(module);
            let facts = self.use_facts.then(|| ModuleFacts::compute(module));
            // Phase 1: match every rule and materialize every counter
            // cell, so predicate reads of a table resolve to the live
            // cells even when the incrementing rule comes later.
            let mut matched: Vec<(Vec<Site>, Vec<SiteFacts>)> = Vec::with_capacity(rules.len());
            for (i, rule) in rules.iter().enumerate() {
                let sites = match_rule_indexed(module, &index, rule)?;
                matched_sites += sites.len();
                for s in &sites {
                    labels.entry(s.loc.func).or_insert_with(|| func_label(module, s.loc.func));
                }
                if trace_sites.is_empty() && rule.actions.contains(&Action::Trace) {
                    // Every `trace` rule is a plain `match branch`
                    // (validation enforces it), so all of them match the
                    // same code-order site list — identical to the one
                    // `StreamingTraceMonitor` enumerates itself, which is
                    // what keeps the two streams byte-identical. Taking
                    // the first rule's sites also means several trace
                    // rules install one probe per site, not duplicates.
                    trace_sites = sites.clone();
                }
                let mut site_facts: Vec<SiteFacts> = facts.as_ref().map_or_else(Vec::new, |mf| {
                    sites.iter().map(|s| site_facts(mf.at(s.loc.func, s.loc.pc))).collect()
                });
                if !sites.is_empty()
                    && !site_facts.is_empty()
                    && site_facts.iter().all(|f| f.unreachable)
                {
                    warnings.push(format!(
                        "rule {i} (`{}`) matches only statically-unreachable sites; \
                         all {} probes dropped and its counters will stay zero",
                        rule.text,
                        sites.len()
                    ));
                }
                // Inside the runs the rule covers completely, its bumps of
                // those tables are left to one probe on the run's leader.
                let bulk: Vec<&str> =
                    rule.actions.iter().filter_map(|a| countable_per_run(rules, rule, a)).collect();
                if let Some(runs) = runs.as_ref().filter(|_| !bulk.is_empty()) {
                    let site_runs: Vec<_> = sites.iter().map(|s| runs.run_at(s.loc)).collect();
                    let covered = covered_runs(runs, &site_runs, &site_facts);
                    site_facts.resize(sites.len(), SiteFacts::default());
                    for (fact, run) in site_facts.iter_mut().zip(&site_runs) {
                        fact.counted_per_run =
                            run.is_some_and(|r| covered.binary_search(&r).is_ok());
                    }
                    for table in bulk {
                        per_run.entry(table).or_default().extend(&covered);
                        lowering.extend(covered.iter().map(|&r| LoweredSite {
                            rule: i,
                            loc: runs.leader(r),
                            kind: ProbeKind::Count,
                            residual: None,
                        }));
                    }
                }
                materialize_rule(rule, &sites, &site_facts, &mut bank);
                matched.push((sites, site_facts));
            }
            // Phase 2: classify and lower, consulting the per-site facts.
            for (i, (rule, (sites, site_facts))) in rules.iter().zip(&matched).enumerate() {
                lowered.extend(lower_rule_with_facts(
                    i,
                    rule,
                    sites,
                    site_facts,
                    &mut bank,
                    &mut dropped_sites,
                ));
            }
        }

        // Install the whole probe set in one invalidation pass, then wire
        // up the self-removal ids of `once` probes.
        let mut batch = ProbeBatch::new();
        for p in &lowered {
            batch.add_local(p.loc.func, p.loc.pc, Rc::clone(&p.probe));
        }
        // `trace` rules ride the same batch: a branch-outcome probe per
        // matched site feeding one writer over the monitor's sink.
        if !trace_sites.is_empty() {
            let dict = SiteDict::from_locations(trace_sites.iter().map(|s| s.loc));
            let sink = self.trace_sink.take().unwrap_or_else(|| {
                let mem = MemorySink::new();
                self.trace_memory = Some(mem.clone());
                Box::new(mem)
            });
            let writer: WriterRef = Rc::new(RefCell::new(TraceWriter::new(&dict, sink)));
            for (id, site) in trace_sites.iter().enumerate() {
                batch.add_local_val(
                    site.loc.func,
                    site.loc.pc,
                    BranchTraceProbe::new(site.opcode, id as u32, Rc::clone(&writer)),
                );
            }
            self.trace = Some(TraceState {
                writer: Some(writer),
                dict,
                final_counters: TraceCounters::default(),
                error: None,
            });
        }
        // Per-run bumps: one `Count` probe on each covered run's leader.
        for (table, runs) in per_run {
            bank.count_per_run(table).install(ctx, runs, &mut batch);
        }
        let ids = match ctx.apply_batch(batch) {
            Ok(ids) => ids,
            Err(e) => {
                // The engine rolled the batch back; drop the half-built
                // trace state so a later attach starts clean.
                self.trace = None;
                return Err(e);
            }
        };
        // The batch queued the per-site probes first: their ids lead.
        for (p, id) in lowered.into_iter().zip(ids) {
            if let Some(cell) = &p.once_id {
                cell.set(Some(id));
            }
            lowering.push(LoweredSite {
                rule: p.rule,
                loc: p.loc,
                kind: p.kind,
                residual: p.residual,
            });
        }
        lowering.sort_by_key(|l| l.rule);
        self.attached =
            Some(Attached { bank, lowering, labels, matched_sites, dropped_sites, warnings });
        Ok(())
    }

    fn on_unwind(&mut self, top: Location, executed: bool) {
        for counts in self.attached.iter_mut().flat_map(|a| a.bank.run_counts_mut()) {
            counts.on_unwind(top, executed);
        }
    }

    fn on_detach(&mut self, process: &mut Process) {
        for counts in self.attached.iter_mut().flat_map(|a| a.bank.run_counts_mut()) {
            counts.uninstall(process);
        }
        let Some(t) = &mut self.trace else { return };
        if let Some(writer) = t.writer.take() {
            let mut writer = writer.borrow_mut();
            match writer.finish() {
                Ok(counters) => t.final_counters = counters,
                Err(e) => {
                    t.final_counters = writer.counters();
                    t.error = Some(e);
                }
            }
            process.record_trace(t.final_counters.events, t.final_counters.bytes);
        }
    }

    fn report(&self) -> Report {
        let mut r = Report::new(self.script.title().to_string());
        let Some(a) = &self.attached else {
            return r;
        };
        let label = |loc: &Location| {
            a.labels.get(&loc.func).map_or_else(|| format!("func[{}]", loc.func), Clone::clone)
        };
        for directive in &self.script.reports {
            // Directives naming the same section append to it, so e.g.
            // two `report "summary" total …` lines build one summary.
            let section = match r.sections.iter().position(|s| s.name == directive.section) {
                Some(i) => &mut r.sections[i],
                None => r.section(directive.section.clone()),
            };
            match &directive.kind {
                ReportKind::Top { n, table } => {
                    let Some(t) = a.bank.table(table) else { continue };
                    let mut rows: Vec<(Location, u64)> = t.rows().into_iter().collect();
                    rows.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
                    for (loc, count) in rows.into_iter().take(*n) {
                        section.count(format!("{}+{}", label(&loc), loc.pc), count);
                    }
                }
                ReportKind::Total { label, counters } => {
                    section.count(label.clone(), counters.iter().map(|c| a.bank.sum(c)).sum());
                }
                ReportKind::Ratio { suffix, num, den } => {
                    let rows = |t: &str| a.bank.table(t).map(Table::rows).unwrap_or_default();
                    let (tn, td) = (rows(num), rows(den));
                    let mut locs: Vec<Location> = tn.keys().chain(td.keys()).copied().collect();
                    locs.sort_unstable();
                    locs.dedup();
                    for loc in locs {
                        let x = tn.get(&loc).copied().unwrap_or(0);
                        let y = td.get(&loc).copied().unwrap_or(0);
                        if x + y == 0 {
                            continue;
                        }
                        section.fraction(format!("{}+{} {suffix}", label(&loc), loc.pc), x, x + y);
                    }
                }
                ReportKind::PerFunc { table } => {
                    let Some(t) = a.bank.table(table) else { continue };
                    let mut per: std::collections::BTreeMap<u32, (u64, u64)> =
                        std::collections::BTreeMap::new();
                    for (loc, n) in t.rows() {
                        let e = per.entry(loc.func).or_insert((0, 0));
                        e.1 += 1;
                        if n > 0 {
                            e.0 += 1;
                        }
                    }
                    for (func, (covered, total)) in per {
                        section.fraction(label(&Location { func, pc: 0 }), covered, total);
                    }
                }
                ReportKind::Percent { label, table } => {
                    let (mut covered, mut total) = (0u64, 0u64);
                    if let Some(t) = a.bank.table(table) {
                        for n in t.rows().into_values() {
                            total += 1;
                            if n > 0 {
                                covered += 1;
                            }
                        }
                    }
                    let pct =
                        if total == 0 { 100.0 } else { 100.0 * covered as f64 / total as f64 };
                    section.float(label.clone(), pct);
                }
                ReportKind::Counters => {
                    for (name, value) in a.bank.scalars() {
                        section.count(name, value);
                    }
                }
            }
        }
        if let Some(t) = &self.trace {
            let c = self.trace_counters();
            let s = r.section("trace");
            s.count("sites", t.dict.len() as u64);
            s.count("events", c.events);
            s.count("bytes", c.bytes);
            if let Some(e) = &t.error {
                s.text("sink error", e.to_string());
            }
        }
        r
    }
}

impl core::fmt::Debug for ScriptMonitor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ScriptMonitor")
            .field("title", &self.script.title())
            .field("rules", &self.script.rules.len())
            .field("attached", &self.attached.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_engine::store::Linker;
    use wizard_engine::{EngineConfig, Process, Value};
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::ValType::I32;

    fn sum_process(config: EngineConfig) -> Process {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let i = f.local(I32);
        let acc = f.local(I32);
        f.for_range(i, 0, |f| {
            f.local_get(acc).local_get(i).i32_add().local_set(acc);
        });
        f.local_get(acc);
        mb.add_func("sum", f);
        Process::new(mb.build().unwrap(), config, &Linker::new()).unwrap()
    }

    #[test]
    fn counter_script_counts_and_intrinsifies() {
        let src = "monitor \"demo\"\n\
                   match * do inc exec[site]\n\
                   match loop-header do inc loops\n\
                   report \"summary\" total \"execs\" exec\n\
                   report \"summary\" total \"loop headers\" loops";
        for config in [
            EngineConfig::interpreter_bytecode(),
            EngineConfig::default(),
            EngineConfig::builder().intrinsify(false).build(),
        ] {
            let mut p = sum_process(config);
            let m = p.attach_monitor(ScriptMonitor::from_source(src).unwrap()).unwrap();
            // Counter-only scripts lower exclusively to Count probes: the
            // per-site bump of `match *` one per straight-line run, the
            // loop-header bump one at the function's single loop...
            let (count, operand, generic) = m.borrow().kind_counts();
            let runs = p.artifact().runs();
            let leaders: Vec<Location> =
                m.borrow().lowering().iter().filter(|l| l.rule == 0).map(|l| l.loc).collect();
            assert!(leaders.len() > 3 && runs.sites().len() > 10);
            assert_eq!(count, leaders.len() + 1);
            assert_eq!((operand, generic), (0, 0));
            // Only a run the analysis proves dead goes without a probe.
            let unprobed = (0..runs.len()).filter(|&r| !leaders.contains(&runs.leader(r)));
            assert_eq!(
                unprobed.map(|r| runs.run(r).len()).sum::<usize>(),
                m.borrow().dropped_sites()
            );
            // ...and the engine agrees, site by site (a site can carry
            // several probes when several rules match it).
            for l in m.borrow().lowering() {
                let kinds = p.probe_kinds_at(l.loc.func, l.loc.pc);
                assert!(!kinds.is_empty(), "no probe installed at {}", l.loc);
                assert!(kinds.iter().all(|k| *k == ProbeKind::Count), "at {}: {kinds:?}", l.loc);
            }
            p.invoke_export("sum", &[Value::I32(10)]).unwrap();
            assert_eq!(m.borrow().counter("loops"), 11, "entry + 10 backedges");
            assert!(m.borrow().counter("exec") > 50);
            let r = m.report();
            assert_eq!(r.title, "demo");
            assert_eq!(r.get("summary").unwrap().count_of("loop headers"), Some(11));
        }
    }

    #[test]
    fn rules_sharing_a_table_count_per_run_exactly() {
        // Two whole-run bumps and a per-site one into one table: each run
        // carries two probes over one counter, and a cancelled run debits
        // both.
        let per_run = "match * do inc exec[site]\n\
                       match i32.add do inc exec[site]\n\
                       match * do inc exec[site]\n\
                       report \"rows\" top 1000 exec";
        // The same rows from per-site probes: a predicate reads the table.
        let per_site = format!("{per_run}\nmatch loop-header when $exec[site] < 0 do inc never");
        for config in [
            EngineConfig::interpreter_bytecode(),
            EngineConfig::default(),
            EngineConfig::builder().intrinsify(false).build(),
        ] {
            // Run to completion, and cancelled mid-run: every tier bills
            // fuel by the same count, so the two scripts stop at the same
            // instruction.
            for cancel in [false, true] {
                let rows = |src: &str| {
                    let mut p = sum_process(config.clone());
                    let m = p.attach_monitor(ScriptMonitor::from_source(src).unwrap()).unwrap();
                    let mut out = p.run_export_bounded("sum", &[Value::I32(10)], 23).unwrap();
                    while !cancel && !out.is_done() {
                        out = p.resume(23).unwrap();
                    }
                    assert_eq!(p.cancel_suspended(), cancel);
                    let probes = m.borrow().kind_counts().0;
                    (probes, m.report().to_string())
                };
                let (run_probes, run_rows) = rows(per_run);
                let (site_probes, site_rows) = rows(&per_site);
                assert!(2 * run_probes < site_probes, "{run_probes} vs {site_probes}");
                assert_eq!(run_rows, site_rows, "cancelled: {cancel}");
            }
        }
    }

    #[test]
    fn predicate_folding_drops_and_specializes() {
        let src = "match * when op == br_if && tos == 0 do inc fall[site]\n\
                   report \"summary\" total \"falls\" fall";
        let mut p = sum_process(EngineConfig::interpreter());
        let m = p.attach_monitor(ScriptMonitor::from_source(src).unwrap()).unwrap();
        {
            let mon = m.borrow();
            // Probes survive only at br_if sites, as operand observers.
            let (count, operand, generic) = mon.kind_counts();
            assert_eq!(count, 0);
            assert!(operand >= 1);
            assert_eq!(generic, 0);
            assert!(mon.dropped_sites() > 10, "non-br_if sites dropped at compile time");
            assert!(mon.lowering().iter().all(|l| l.residual.as_deref() == Some("(tos == 0)")));
        }
        p.invoke_export("sum", &[Value::I32(7)]).unwrap();
        // for_range's br_if exit check falls through once per iteration + 0 at exit.
        assert_eq!(m.borrow().counter("fall"), 7);
    }

    #[test]
    fn once_rules_self_remove() {
        let src = "match * once do inc hit[site]\n\
                   report \"summary\" percent \"overall %\" hit";
        let mut p = sum_process(EngineConfig::interpreter());
        let m = p.attach_monitor(ScriptMonitor::from_source(src).unwrap()).unwrap();
        let installed = p.probed_location_count();
        assert!(installed > 10);
        p.invoke_export("sum", &[Value::I32(3)]).unwrap();
        assert!(p.probed_location_count() < installed, "fired probes removed themselves");
        let r1 = m.borrow().counter("hit");
        p.invoke_export("sum", &[Value::I32(3)]).unwrap();
        assert_eq!(m.borrow().counter("hit"), r1, "removed probes observe nothing further");
        p.detach_monitor(m.handle()).unwrap();
        assert_eq!(p.probed_location_count(), 0);
    }

    #[test]
    fn bad_script_rejects_attach_with_diagnostic() {
        let mut p = sum_process(EngineConfig::interpreter());
        let m = ScriptMonitor::from_source("match f64.sqrt do inc a").unwrap();
        let err = p.attach_monitor(m).unwrap_err();
        match err {
            ProbeError::MonitorRejected(msg) => {
                assert!(msg.contains("matched no sites"), "{msg}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The failed attach left the process untouched.
        assert_eq!(p.probed_location_count(), 0);
        assert_eq!(p.monitor_count(), 0);
    }

    #[test]
    fn detach_restores_baseline_and_reattach_resets() {
        let src = "match * do inc exec[site]\nreport \"summary\" total \"execs\" exec";
        let mut p = sum_process(EngineConfig::interpreter());
        let m1 = p.attach_monitor(ScriptMonitor::from_source(src).unwrap()).unwrap();
        p.invoke_export("sum", &[Value::I32(5)]).unwrap();
        let first = m1.borrow().counter("exec");
        assert!(first > 0);
        p.detach_monitor(m1.handle()).unwrap();
        assert_eq!(p.probed_location_count(), 0);

        let m2 = p.attach_monitor(ScriptMonitor::from_source(src).unwrap()).unwrap();
        p.invoke_export("sum", &[Value::I32(5)]).unwrap();
        assert_eq!(m2.borrow().counter("exec"), first, "fresh attach, fresh counters");
    }

    #[test]
    fn counter_reads_see_later_rules_cells() {
        // A predicate reading a table counter that a *later* rule
        // increments must observe the live cell — rule order cannot
        // change semantics. `first` counts loop headers reached while
        // `seen[site]` is still zero, i.e. exactly once.
        let src = "match loop-header when $seen[site] == 0 do inc first\n\
                   match loop-header do inc seen[site]\n\
                   report \"summary\" total \"first\" first";
        let swapped = "match loop-header do inc seen[site]\n\
                       match loop-header when $seen[site] == 0 do inc first\n\
                       report \"summary\" total \"first\" first";
        let mut totals = Vec::new();
        for source in [src, swapped] {
            let mut p = sum_process(EngineConfig::interpreter());
            let m = p.attach_monitor(ScriptMonitor::from_source(source).unwrap()).unwrap();
            p.invoke_export("sum", &[Value::I32(10)]).unwrap();
            totals.push(m.borrow().counter("first"));
        }
        // Reader-first: fires before the bump each time the header
        // executes with seen==0 — exactly the first execution. Writer-
        // first: seen is already 1 when the reader fires, except the
        // very first execution where both fire in order bump-then-read.
        assert_eq!(totals[0], 1, "reader-before-writer sees live cells");
        assert_eq!(totals[1], 0, "writer-before-reader observes the bump");
    }

    #[test]
    fn facts_demote_generic_probes_with_row_identical_reports() {
        // `tos` over a non-operand-consuming site normally forces a
        // Generic probe; where the analysis proves the operand stack
        // empty, `tos` reads 0, the predicate folds, and the probe
        // demotes to a plain counter. The reported rows must not move.
        let src = "match local.get when tos == 0 do inc cold[site]\n\
                   report \"summary\" total \"cold\" cold";
        let run = |use_facts: bool| {
            let mut p = sum_process(EngineConfig::interpreter());
            let mut mon = ScriptMonitor::from_source(src).unwrap();
            if !use_facts {
                mon = mon.without_facts();
            }
            let m = p.attach_monitor(mon).unwrap();
            // The engine's installed shapes agree with the classification.
            for l in m.borrow().lowering() {
                let kinds = p.probe_kinds_at(l.loc.func, l.loc.pc);
                assert!(kinds.contains(&l.kind), "at {}: {kinds:?} vs {:?}", l.loc, l.kind);
            }
            p.invoke_export("sum", &[Value::I32(6)]).unwrap();
            let out = (m.borrow().kind_counts(), m.report());
            out
        };
        let ((count_on, _, generic_on), report_on) = run(true);
        let ((count_off, _, generic_off), report_off) = run(false);
        assert_eq!(count_off, 0, "without facts every tos predicate stays generic");
        assert!(generic_off > 0);
        assert!(count_on >= 1, "provably-empty-stack sites demote to Count");
        assert!(generic_on < generic_off);
        assert_eq!(report_on, report_off, "demotion must not change reported rows");
    }

    #[test]
    fn all_unreachable_rules_warn_and_install_nothing() {
        // The only i32.const sits after an unconditional branch; the
        // rule matches it, the analysis proves it dead, and attach
        // surfaces a diagnostic instead of silently counting nothing.
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0).br(0);
        f.i32_const(9).drop_();
        f.local_get(0);
        mb.add_func("id", f);
        let module = mb.build().unwrap();
        let src = "match i32.const do inc dead[site]\n\
                   report \"summary\" total \"dead\" dead";
        let mut p = Process::new(module, EngineConfig::interpreter(), &Linker::new()).unwrap();
        let m = p.attach_monitor(ScriptMonitor::from_source(src).unwrap()).unwrap();
        {
            let mon = m.borrow();
            assert_eq!(mon.lowering().len(), 0);
            assert_eq!(mon.dropped_sites(), 1);
            assert_eq!(mon.warnings().len(), 1);
            let w = &mon.warnings()[0];
            assert!(w.contains("match i32.const"), "{w}");
            assert!(w.contains("statically-unreachable"), "{w}");
        }
        assert_eq!(p.probed_location_count(), 0);
        p.invoke_export("id", &[Value::I32(3)]).unwrap();
        assert_eq!(m.borrow().counter("dead"), 0);
        // The materialized row still reports, at zero.
        let r = m.report();
        assert_eq!(r.get("summary").unwrap().count_of("dead"), Some(0));
    }

    #[test]
    fn tiers_agree_on_operand_scripts() {
        let src = "match branch when tos != 0 do inc taken[site]\n\
                   match branch when tos == 0 do inc fall[site]\n\
                   report \"profile\" ratio \"taken\" taken / fall\n\
                   report \"summary\" total \"branches\" taken + fall";
        let mut reports = Vec::new();
        for config in [
            EngineConfig::interpreter_bytecode(),
            EngineConfig::default(),
            EngineConfig::builder().intrinsify(false).build(),
        ] {
            let mut p = sum_process(config);
            let m = p.attach_monitor(ScriptMonitor::from_source(src).unwrap()).unwrap();
            p.invoke_export("sum", &[Value::I32(9)]).unwrap();
            reports.push(m.report());
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
        assert_eq!(reports[0].get("summary").unwrap().count_of("branches"), Some(10));
    }
}
