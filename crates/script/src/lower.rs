//! The lowering pass: per matched site, partially evaluate the rule's
//! predicate against the site's static facts (`pc`, `func`, `op`),
//! classify the residue, and pick the cheapest probe shape the engine can
//! execute (paper §4.4):
//!
//! * predicate statically **false** → *no probe at all*;
//! * predicate statically **true**, plain counter bumps → a
//!   [`ProbeKind::Count`] probe per bump — compiled code inlines the increment
//!   (and where an unconditional rule's per-site bump covers a whole
//!   straight-line run, the monitor installs one such probe for the run
//!   instead: [`Table`], [`RunCounts`]);
//! * residue reads only the **top of stack** (at an operand-consuming
//!   instruction) → a [`ProbeKind::Operand`] probe — direct call with the
//!   top slot, no FrameAccessor;
//! * anything else (reads `depth` or counters, or the rule is `once`) →
//!   a generic probe with the full [`ProbeCtx`].
//!
//! This is what makes `match branch when op == br_table || tos != 0 do
//! inc taken[site]` free on `br_table` sites (pure counter) and cheap on
//! `if`/`br_if` sites (operand probe), with no interpretation at runtime.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

use wizard_engine::{
    CountProbe, Location, Probe, ProbeCtx, ProbeId, ProbeKind, ProbeRef, RunCounts, Slot,
};
use wizard_wasm::opcodes as op;

use crate::ast::{Action, BinOp, Expr, Rule, UnOp};
use crate::matcher::Site;

// ---- static environment and partial evaluation ----

/// Interprets an i64 as a boolean: nonzero is true.
fn truthy(v: i64) -> bool {
    v != 0
}

fn fold_binop(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Or => i64::from(truthy(a) || truthy(b)),
        BinOp::And => i64::from(truthy(a) && truthy(b)),
        BinOp::Eq => i64::from(a == b),
        BinOp::Ne => i64::from(a != b),
        BinOp::Lt => i64::from(a < b),
        BinOp::Le => i64::from(a <= b),
        BinOp::Gt => i64::from(a > b),
        BinOp::Ge => i64::from(a >= b),
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        // Division/remainder by zero are defined as 0 (consistently at
        // fold time and at runtime) so predicates cannot trap.
        BinOp::Div => a.checked_div(b).unwrap_or(0),
        BinOp::Rem => a.checked_rem(b).unwrap_or(0),
    }
}

/// The value of `e` if it is a constant.
fn const_of(e: &Expr) -> Option<i64> {
    match e {
        Expr::Const(v) => Some(*v),
        _ => None,
    }
}

/// Partially evaluates `e` at a site: `pc`/`func`/`op` become constants,
/// constant subtrees fold, and `||`/`&&` short-circuit around constant
/// operands (expressions are side-effect-free, so folding a constant
/// right operand is sound too).
pub fn simplify(e: &Expr, site: Site) -> Expr {
    match e {
        Expr::Pc => Expr::Const(i64::from(site.loc.pc)),
        Expr::Func => Expr::Const(i64::from(site.loc.func)),
        Expr::Op => Expr::Const(i64::from(site.opcode)),
        Expr::Const(_) | Expr::Tos | Expr::Tos64 | Expr::Depth | Expr::Counter { .. } => e.clone(),
        Expr::Unary(uop, a) => {
            let a = simplify(a, site);
            match (uop, const_of(&a)) {
                (UnOp::Not, Some(v)) => Expr::Const(i64::from(!truthy(v))),
                (UnOp::Neg, Some(v)) => Expr::Const(v.wrapping_neg()),
                _ => Expr::Unary(*uop, Box::new(a)),
            }
        }
        Expr::Binary(bop, a, b) => {
            let a = simplify(a, site);
            let b = simplify(b, site);
            match (bop, const_of(&a), const_of(&b)) {
                (_, Some(x), Some(y)) => Expr::Const(fold_binop(*bop, x, y)),
                (BinOp::Or, Some(x), _) => {
                    if truthy(x) {
                        Expr::Const(1)
                    } else {
                        b
                    }
                }
                (BinOp::Or, _, Some(y)) => {
                    if truthy(y) {
                        Expr::Const(1)
                    } else {
                        a
                    }
                }
                (BinOp::And, Some(x), _) => {
                    if truthy(x) {
                        b
                    } else {
                        Expr::Const(0)
                    }
                }
                (BinOp::And, _, Some(y)) => {
                    if truthy(y) {
                        a
                    } else {
                        Expr::Const(0)
                    }
                }
                _ => Expr::Binary(*bop, Box::new(a), Box::new(b)),
            }
        }
    }
}

// ---- counters ----

/// The monitor's counter storage: named scalar cells and named per-site
/// tables (every matched location materialized at lowering, so unexecuted
/// sites report as zero rows).
#[derive(Debug, Default)]
pub struct CounterBank {
    scalars: Vec<(String, Rc<Cell<u64>>)>,
    tables: Vec<(String, Table)>,
}

/// A per-site counter table. A location's count is the sum of its own
/// cell, if some rule bumps it individually, and of the table's whole-run
/// counter ([`RunCounts`]) where that covers it — what an unconditional
/// `inc t[site]` lowers to on the straight-line runs its rule matches
/// completely, provided no predicate reads `t`.
#[derive(Debug, Default)]
pub struct Table {
    cells: BTreeMap<Location, Rc<Cell<u64>>>,
    /// `Some` if the table is counted per run wherever a rule allows it.
    runs: Option<RunCounts>,
}

impl Table {
    /// The individually-bumped cell at `loc`, if any: what a predicate's
    /// `$t[site]` reads (a table some predicate reads is never counted
    /// per run, so its cells are the whole truth).
    pub fn cell(&self, loc: Location) -> Option<&Rc<Cell<u64>>> {
        self.cells.get(&loc)
    }

    /// Every row of the table, in code order.
    pub fn rows(&self) -> BTreeMap<Location, u64> {
        let mut rows: BTreeMap<Location, u64> =
            self.cells.iter().map(|(loc, c)| (*loc, c.get())).collect();
        for (loc, n) in self.runs.iter().flat_map(RunCounts::per_site) {
            *rows.entry(loc).or_insert(0) += n;
        }
        rows
    }

    /// Sum of all rows.
    pub fn sum(&self) -> u64 {
        let cells: u64 = self.cells.values().map(|c| c.get()).sum();
        cells + self.runs.as_ref().map_or(0, RunCounts::total)
    }
}

impl CounterBank {
    /// The scalar cell for `name`, created on first use.
    pub fn scalar(&mut self, name: &str) -> Rc<Cell<u64>> {
        if let Some((_, c)) = self.scalars.iter().find(|(n, _)| n == name) {
            return Rc::clone(c);
        }
        let cell = Rc::new(Cell::new(0));
        self.scalars.push((name.to_string(), Rc::clone(&cell)));
        cell
    }

    fn table_mut(&mut self, name: &str) -> &mut Table {
        let idx = match self.tables.iter().position(|(n, _)| n == name) {
            Some(i) => i,
            None => {
                self.tables.push((name.to_string(), Table::default()));
                self.tables.len() - 1
            }
        };
        &mut self.tables[idx].1
    }

    /// The table cell for `name` at `loc`, created on first use.
    pub fn table_cell(&mut self, name: &str, loc: Location) -> Rc<Cell<u64>> {
        Rc::clone(self.table_mut(name).cells.entry(loc).or_default())
    }

    /// The whole-run counter of table `name`, created on first use — which
    /// makes the table one that is counted per run: at a site whose
    /// [`SiteFacts::counted_per_run`] is set, per-site bumps of it lower to
    /// nothing, and the caller installs this counter on the site's run.
    pub fn count_per_run(&mut self, name: &str) -> &mut RunCounts {
        self.table_mut(name).runs.get_or_insert_with(RunCounts::new)
    }

    /// Every table's whole-run counter, for forwarding the monitor's
    /// lifecycle events.
    pub fn run_counts_mut(&mut self) -> impl Iterator<Item = &mut RunCounts> {
        self.tables.iter_mut().filter_map(|(_, t)| t.runs.as_mut())
    }

    /// `true` if per-site bump `action` is counted per run at a site with
    /// `fact`.
    fn counted_per_run(&self, action: &Action, fact: SiteFacts) -> bool {
        let Action::Inc { counter, per_site: true } = action else { return false };
        fact.counted_per_run && self.table(counter).is_some_and(|t| t.runs.is_some())
    }

    /// The table for `name`, if any rule incremented it per-site.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// The scalar value of `name`, if declared.
    pub fn scalar_value(&self, name: &str) -> Option<u64> {
        self.scalars.iter().find(|(n, _)| n == name).map(|(_, c)| c.get())
    }

    /// All scalar counters in declaration order.
    pub fn scalars(&self) -> impl Iterator<Item = (&str, u64)> {
        self.scalars.iter().map(|(n, c)| (n.as_str(), c.get()))
    }

    /// Sum of a counter by name: a scalar's value, or a table summed
    /// across its sites. 0 for an undeclared name.
    pub fn sum(&self, name: &str) -> u64 {
        if let Some(v) = self.scalar_value(name) {
            return v;
        }
        self.table(name).map_or(0, Table::sum)
    }
}

// ---- resolved (runtime) expressions ----

/// A residual predicate with counter reads resolved to their cells: what
/// a probe actually evaluates at fire time. Static atoms are already
/// folded away by [`simplify`].
#[derive(Debug, Clone)]
pub enum RExpr {
    /// A constant.
    Const(i64),
    /// Top of stack as a signed 32-bit value (0 on an empty stack).
    Tos,
    /// Top of stack as a signed 64-bit value.
    Tos64,
    /// Call-stack depth.
    Depth,
    /// A resolved counter read.
    Cell(Rc<Cell<u64>>),
    /// A unary operation.
    Unary(UnOp, Box<RExpr>),
    /// A binary operation.
    Binary(BinOp, Box<RExpr>, Box<RExpr>),
}

/// Resolves counter reads in a simplified expression against the bank at
/// one site. Reading a table counter at a site outside the table is a
/// constant 0.
pub fn resolve(e: &Expr, bank: &mut CounterBank, loc: Location) -> RExpr {
    match e {
        Expr::Const(v) => RExpr::Const(*v),
        Expr::Tos => RExpr::Tos,
        Expr::Tos64 => RExpr::Tos64,
        Expr::Depth => RExpr::Depth,
        Expr::Counter { name, per_site: false } => RExpr::Cell(bank.scalar(name)),
        Expr::Counter { name, per_site: true } => match bank.table(name) {
            Some(t) => t.cell(loc).map_or(RExpr::Const(0), |c| RExpr::Cell(Rc::clone(c))),
            None => RExpr::Const(0),
        },
        Expr::Unary(op, a) => RExpr::Unary(*op, Box::new(resolve(a, bank, loc))),
        Expr::Binary(op, a, b) => {
            RExpr::Binary(*op, Box::new(resolve(a, bank, loc)), Box::new(resolve(b, bank, loc)))
        }
        Expr::Pc | Expr::Func | Expr::Op => unreachable!("folded by simplify"),
    }
}

/// What dynamic state an expression touches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Atoms {
    /// Reads the top-of-stack slot.
    pub tos: bool,
    /// Reads the call depth.
    pub depth: bool,
    /// Reads a counter cell.
    pub cells: bool,
}

/// Analyzes a resolved expression's dynamic dependencies.
pub fn atoms(e: &RExpr) -> Atoms {
    match e {
        RExpr::Const(_) => Atoms::default(),
        RExpr::Tos | RExpr::Tos64 => Atoms { tos: true, ..Atoms::default() },
        RExpr::Depth => Atoms { depth: true, ..Atoms::default() },
        RExpr::Cell(_) => Atoms { cells: true, ..Atoms::default() },
        RExpr::Unary(_, a) => atoms(a),
        RExpr::Binary(_, a, b) => {
            let (x, y) = (atoms(a), atoms(b));
            Atoms { tos: x.tos || y.tos, depth: x.depth || y.depth, cells: x.cells || y.cells }
        }
    }
}

/// Evaluates a resolved expression.
pub fn eval(e: &RExpr, tos: Option<Slot>, depth: u32) -> i64 {
    match e {
        RExpr::Const(v) => *v,
        RExpr::Tos => i64::from(tos.map_or(0, Slot::i32)),
        RExpr::Tos64 => tos.map_or(0, Slot::i64),
        RExpr::Depth => i64::from(depth),
        RExpr::Cell(c) => c.get() as i64,
        RExpr::Unary(UnOp::Not, a) => i64::from(!truthy(eval(a, tos, depth))),
        RExpr::Unary(UnOp::Neg, a) => eval(a, tos, depth).wrapping_neg(),
        RExpr::Binary(op, a, b) => {
            // `||`/`&&` could short-circuit, but operands are pure.
            fold_binop(*op, eval(a, tos, depth), eval(b, tos, depth))
        }
    }
}

// ---- probe shapes ----

/// A top-of-stack observer — [`ProbeKind::Operand`]: compiled code calls
/// [`Probe::fire_operand`] with the top slot directly.
#[derive(Debug)]
pub struct TosProbe {
    pred: RExpr,
    cells: Vec<Rc<Cell<u64>>>,
}

impl TosProbe {
    fn record(&self, top: Option<Slot>) {
        if truthy(eval(&self.pred, top, 0)) {
            for c in &self.cells {
                c.set(c.get() + 1);
            }
        }
    }
}

impl Probe for TosProbe {
    fn fire(&mut self, ctx: &mut ProbeCtx<'_, '_>) {
        self.record(ctx.top_of_stack());
    }

    fn kind(&self) -> ProbeKind {
        ProbeKind::Operand
    }

    fn fire_operand(&mut self, _loc: Location, top: Slot) {
        self.record(Some(top));
    }
}

/// The generic fallback: full predicate over the [`ProbeCtx`], optional
/// self-removal (`once`).
#[derive(Debug)]
pub struct GenericRuleProbe {
    pred: Option<RExpr>,
    cells: Vec<Rc<Cell<u64>>>,
    /// For `once` rules: this probe's id, filled in after batch commit;
    /// the probe removes itself after its first effective firing.
    once_id: Option<Rc<Cell<Option<ProbeId>>>>,
}

impl Probe for GenericRuleProbe {
    fn fire(&mut self, ctx: &mut ProbeCtx<'_, '_>) {
        let holds = match &self.pred {
            None => true,
            Some(p) => truthy(eval(p, ctx.top_of_stack(), ctx.depth())),
        };
        if !holds {
            return;
        }
        for c in &self.cells {
            c.set(c.get() + 1);
        }
        if let Some(idc) = &self.once_id {
            if let Some(id) = idc.get() {
                ctx.remove_probe(id);
            }
        }
    }
}

fn shared(p: impl Probe) -> ProbeRef {
    Rc::new(std::cell::RefCell::new(p))
}

// ---- the lowering itself ----

/// One probe the compiler decided to install.
pub struct LoweredProbe {
    /// Index of the originating rule within the script.
    pub rule: usize,
    /// Where the probe goes.
    pub loc: Location,
    /// The shape it lowered to.
    pub kind: ProbeKind,
    /// The probe value, ready for a [`ProbeBatch`](wizard_engine::ProbeBatch).
    pub probe: ProbeRef,
    /// For `once` probes: the id cell to fill after batch commit.
    pub once_id: Option<Rc<Cell<Option<ProbeId>>>>,
    /// The residual predicate, for diagnostics (`None` = unconditional).
    pub residual: Option<String>,
}

impl core::fmt::Debug for LoweredProbe {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LoweredProbe")
            .field("rule", &self.rule)
            .field("loc", &self.loc)
            .field("kind", &self.kind)
            .field("residual", &self.residual)
            .finish()
    }
}

/// `true` if the instruction is guaranteed to have at least one operand
/// on the stack when it executes (a probe fires *before* the
/// instruction), making an intrinsified top-of-stack read well-defined.
fn consumes_operand(opcode: u8) -> bool {
    matches!(
        opcode,
        op::IF
            | op::BR_IF
            | op::BR_TABLE
            | op::DROP
            | op::SELECT
            | op::LOCAL_SET
            | op::LOCAL_TEE
            | op::GLOBAL_SET
            | op::CALL_INDIRECT
            | op::MEMORY_GROW
    ) || op::is_memory_access(opcode)
        || (op::I32_EQZ..=op::I64_EXTEND32_S).contains(&opcode)
}

/// Materializes the counter cells of one rule's actions at its matched
/// sites, so report tables include never-executed sites as zero rows —
/// and so that the per-site counters a predicate reads resolve to the
/// same cells the actions bump.
///
/// Callers lowering several rules must materialize *every* rule first,
/// then lower: a predicate reading `$t[site]` is resolved against the
/// bank, and the cell must already exist even when the rule incrementing
/// `t` appears later in the script (rule order must not change
/// semantics).
pub fn materialize_rule(rule: &Rule, sites: &[Site], facts: &[SiteFacts], bank: &mut CounterBank) {
    for (i, site) in sites.iter().enumerate() {
        let fact = facts.get(i).copied().unwrap_or_default();
        for action in &rule.actions {
            match action {
                _ if bank.counted_per_run(action, fact) => {}
                Action::Inc { counter, per_site } => {
                    if *per_site {
                        bank.table_cell(counter, site.loc);
                    } else {
                        bank.scalar(counter);
                    }
                }
                // `trace` streams events; it owns no counter cells.
                Action::Trace => {}
            }
        }
    }
}

/// Dataflow facts about one site, as consumed by the lowering pass —
/// the bridge from `wizard-analysis`'s
/// [`TosFact`](wizard_analysis::TosFact) to predicate folding. The
/// default (no facts) lowers exactly as before the analysis existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteFacts {
    /// The site can never execute: no probe is installed at all (its
    /// zero table rows are still materialized, so reports are
    /// row-identical to an unfactored lowering).
    pub unreachable: bool,
    /// The operand stack is provably empty when the probe fires, so
    /// `tos`/`tos64` read as 0 ([`eval`] maps an absent top slot to 0).
    pub stack_empty: bool,
    /// The top of stack is provably this slot bit pattern.
    pub tos_const: Option<u64>,
    /// The site's straight-line run is counted as a whole for this rule:
    /// its per-site bumps of tables counted per run
    /// ([`CounterBank::count_per_run`]) get neither a cell nor a probe here.
    pub counted_per_run: bool,
}

impl SiteFacts {
    /// The constant slot `tos` reads at this site, if any.
    fn tos_slot(&self) -> Option<Slot> {
        if self.stack_empty {
            // An empty stack reads as 0 through both `tos` and `tos64`.
            Some(Slot(0))
        } else {
            self.tos_const.map(Slot)
        }
    }
}

/// Substitutes provably-constant `tos`/`tos64` reads before folding,
/// mirroring [`eval`]'s slot conversions exactly (`tos` truncates to
/// i32, `tos64` reads the full slot).
fn substitute_tos(e: &Expr, facts: SiteFacts) -> Expr {
    let Some(slot) = facts.tos_slot() else { return e.clone() };
    match e {
        Expr::Tos => Expr::Const(i64::from(slot.i32())),
        Expr::Tos64 => Expr::Const(slot.i64()),
        Expr::Unary(op, a) => Expr::Unary(*op, Box::new(substitute_tos(a, facts))),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(substitute_tos(a, facts)),
            Box::new(substitute_tos(b, facts)),
        ),
        _ => e.clone(),
    }
}

/// [`simplify`] with dataflow facts folded in: `tos` reads at sites with
/// a provably-constant (or provably-empty) stack become constants first,
/// often collapsing the whole predicate.
pub fn simplify_with_facts(e: &Expr, site: Site, facts: SiteFacts) -> Expr {
    simplify(&substitute_tos(e, facts), site)
}

/// Lowers one rule at its matched sites, returning the probes to
/// install. The rule's cells are materialized first (idempotently) —
/// when lowering a multi-rule script, call [`materialize_rule`] for
/// *all* rules before lowering any of them. Sites whose predicate folds
/// to false produce nothing (and are counted in `dropped`).
pub fn lower_rule(
    rule_index: usize,
    rule: &Rule,
    sites: &[Site],
    bank: &mut CounterBank,
    dropped: &mut usize,
) -> Vec<LoweredProbe> {
    lower_rule_with_facts(rule_index, rule, sites, &[], bank, dropped)
}

/// [`lower_rule`] with per-site dataflow facts: unreachable sites get no
/// probe, and provably-constant `tos` predicates fold — demoting shapes
/// (generic → operand → count → nothing) without changing any observable
/// count. `facts` is indexed like `sites`; an empty slice (or
/// [`SiteFacts::default`] entries) disables fact-driven folding.
pub fn lower_rule_with_facts(
    rule_index: usize,
    rule: &Rule,
    sites: &[Site],
    facts: &[SiteFacts],
    bank: &mut CounterBank,
    dropped: &mut usize,
) -> Vec<LoweredProbe> {
    materialize_rule(rule, sites, facts, bank);

    let mut out = Vec::new();
    for (i, site) in sites.iter().enumerate() {
        let fact = facts.get(i).copied().unwrap_or_default();
        if fact.unreachable {
            // The probe could never fire; its cells are already
            // materialized above, so reports keep the zero rows.
            *dropped += 1;
            continue;
        }
        let simplified = rule.when.as_ref().map(|w| simplify_with_facts(w, *site, fact));
        if let Some(Expr::Const(v)) = &simplified {
            if !truthy(*v) {
                *dropped += 1;
                continue;
            }
        }
        let always = matches!(&simplified, None | Some(Expr::Const(_)));
        let cells: Vec<Rc<Cell<u64>>> = rule
            .actions
            .iter()
            .filter_map(|action| match action {
                // Left to the probe on the run's leader.
                _ if bank.counted_per_run(action, fact) => None,
                Action::Inc { counter, per_site } => Some(if *per_site {
                    bank.table_cell(counter, site.loc)
                } else {
                    bank.scalar(counter)
                }),
                // `trace` is lowered separately (a dedicated branch probe
                // in the monitor), not as a counter bump here.
                Action::Trace => None,
            })
            .collect();

        if rule.once {
            let pred =
                if always { None } else { simplified.as_ref().map(|e| resolve(e, bank, site.loc)) };
            let residual = (!always).then(|| simplified.as_ref().expect("residual").to_string());
            let once_id: Rc<Cell<Option<ProbeId>>> = Rc::new(Cell::new(None));
            out.push(LoweredProbe {
                rule: rule_index,
                loc: site.loc,
                kind: ProbeKind::Generic,
                probe: shared(GenericRuleProbe { pred, cells, once_id: Some(Rc::clone(&once_id)) }),
                once_id: Some(once_id),
                residual,
            });
        } else if always {
            // Pure counter bumps: one Count probe per action, each fully
            // inlined in compiled code.
            for cell in cells {
                out.push(LoweredProbe {
                    rule: rule_index,
                    loc: site.loc,
                    kind: ProbeKind::Count,
                    probe: shared(CountProbe::over(cell)),
                    once_id: None,
                    residual: None,
                });
            }
        } else {
            let expr = simplified.as_ref().expect("residual predicate");
            let resolved = resolve(expr, bank, site.loc);
            let a = atoms(&resolved);
            let residual = Some(expr.to_string());
            if a.tos && !a.depth && !a.cells && consumes_operand(site.opcode) {
                out.push(LoweredProbe {
                    rule: rule_index,
                    loc: site.loc,
                    kind: ProbeKind::Operand,
                    probe: shared(TosProbe { pred: resolved, cells }),
                    once_id: None,
                    residual,
                });
            } else {
                out.push(LoweredProbe {
                    rule: rule_index,
                    loc: site.loc,
                    kind: ProbeKind::Generic,
                    probe: shared(GenericRuleProbe { pred: Some(resolved), cells, once_id: None }),
                    once_id: None,
                    residual,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn site(opcode: u8, func: u32, pc: u32) -> Site {
        Site { loc: Location { func, pc }, opcode }
    }

    fn pred_of(src: &str) -> Expr {
        parse(src).unwrap().rules[0].when.clone().unwrap()
    }

    #[test]
    fn static_facts_fold_away() {
        let w = pred_of("match * when op == br_table || tos != 0 do inc a");
        // At a br_table site the whole predicate is constant-true...
        assert_eq!(simplify(&w, site(op::BR_TABLE, 0, 4)), Expr::Const(1));
        // ...and at a br_if site it reduces to the dynamic residue.
        let residual = simplify(&w, site(op::BR_IF, 0, 4));
        assert_eq!(residual.to_string(), "(tos != 0)");
    }

    #[test]
    fn arithmetic_and_shortcircuit_folding() {
        let w = pred_of("match * when pc * 2 + 1 == 9 do inc a");
        assert_eq!(simplify(&w, site(op::NOP, 0, 4)), Expr::Const(1));
        assert_eq!(simplify(&w, site(op::NOP, 0, 5)), Expr::Const(0));
        let w = pred_of("match * when 0 && tos != 0 do inc a");
        assert_eq!(simplify(&w, site(op::NOP, 0, 0)), Expr::Const(0));
        let w = pred_of("match * when tos / 0 == 0 do inc a");
        // Division by zero is 0, not a trap.
        let r = simplify(&w, site(op::NOP, 0, 0));
        assert_eq!(
            eval(
                &resolve(&r, &mut CounterBank::default(), Location { func: 0, pc: 0 }),
                Some(Slot::from_i32(5)),
                0
            ),
            1
        );
    }

    #[test]
    fn classification_per_site() {
        let script = parse(
            "match * when op == br_table || tos != 0 do inc t[site]\n\
             match * do inc all[site]\n\
             match * when depth > 1 do inc deep",
        )
        .unwrap();
        let mut bank = CounterBank::default();
        let mut dropped = 0;
        let sites = [site(op::BR_TABLE, 0, 0), site(op::BR_IF, 0, 3)];

        let l0 = lower_rule(0, &script.rules[0], &sites, &mut bank, &mut dropped);
        assert_eq!(l0.len(), 2);
        assert_eq!(l0[0].kind, ProbeKind::Count, "br_table side folded to pure counter");
        assert_eq!(l0[1].kind, ProbeKind::Operand, "br_if side is a top-of-stack observer");
        assert_eq!(l0[1].residual.as_deref(), Some("(tos != 0)"));

        let l1 = lower_rule(1, &script.rules[1], &sites, &mut bank, &mut dropped);
        assert!(l1.iter().all(|p| p.kind == ProbeKind::Count));

        let l2 = lower_rule(2, &script.rules[2], &sites, &mut bank, &mut dropped);
        assert!(l2.iter().all(|p| p.kind == ProbeKind::Generic), "depth needs the full ctx");
        assert_eq!(dropped, 0);
    }

    #[test]
    fn false_predicates_drop_the_probe() {
        let script = parse("match * when op == nop do inc a").unwrap();
        let mut bank = CounterBank::default();
        let mut dropped = 0;
        let lowered = lower_rule(
            0,
            &script.rules[0],
            &[site(op::NOP, 0, 0), site(op::BR_IF, 0, 2)],
            &mut bank,
            &mut dropped,
        );
        assert_eq!(lowered.len(), 1, "only the nop site keeps a probe");
        assert_eq!(lowered[0].kind, ProbeKind::Count);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn tos_on_non_operand_sites_stays_generic() {
        // `local.get` pushes; the stack may be empty when it executes, so
        // an intrinsified top-of-stack read is not well-defined there.
        let script = parse("match * when tos != 0 do inc a").unwrap();
        let mut bank = CounterBank::default();
        let mut dropped = 0;
        let lowered = lower_rule(
            0,
            &script.rules[0],
            &[site(op::LOCAL_GET, 0, 0), site(op::I32_ADD, 0, 2)],
            &mut bank,
            &mut dropped,
        );
        assert_eq!(lowered[0].kind, ProbeKind::Generic);
        assert_eq!(lowered[1].kind, ProbeKind::Operand, "i32.add always pops");
    }

    #[test]
    fn facts_fold_tos_predicates_to_cheaper_shapes() {
        // `local.get` doesn't consume an operand, so `tos == 0` is
        // normally a Generic probe — but with a provably-empty stack the
        // predicate folds to constant-true (Count), and with a
        // provably-nonzero top it folds to constant-false (no probe).
        let script = parse("match * when tos == 0 do inc a[site]").unwrap();
        let sites =
            [site(op::LOCAL_GET, 0, 0), site(op::LOCAL_GET, 0, 2), site(op::LOCAL_GET, 0, 4)];
        let mut bank = CounterBank::default();
        let mut dropped = 0;

        let baseline = lower_rule(0, &script.rules[0], &sites, &mut bank, &mut dropped);
        assert!(baseline.iter().all(|p| p.kind == ProbeKind::Generic));

        let facts = [
            SiteFacts { stack_empty: true, ..SiteFacts::default() },
            SiteFacts { tos_const: Some(Slot::from_i32(7).0), ..SiteFacts::default() },
            SiteFacts::default(),
        ];
        let mut bank = CounterBank::default();
        let mut dropped = 0;
        let lowered =
            lower_rule_with_facts(0, &script.rules[0], &sites, &facts, &mut bank, &mut dropped);
        assert_eq!(lowered.len(), 2, "constant-false site installs nothing");
        assert_eq!(lowered[0].kind, ProbeKind::Count, "empty stack folds tos==0 to true");
        assert_eq!(lowered[0].residual, None);
        assert_eq!(lowered[1].kind, ProbeKind::Generic, "no facts, no demotion");
        assert_eq!(dropped, 1);
    }

    #[test]
    fn unreachable_sites_drop_probes_but_keep_zero_rows() {
        let script = parse("match * do inc t[site]").unwrap();
        let sites = [site(op::NOP, 0, 0), site(op::NOP, 0, 1)];
        let facts = [SiteFacts::default(), SiteFacts { unreachable: true, ..SiteFacts::default() }];
        let mut bank = CounterBank::default();
        let mut dropped = 0;
        let lowered =
            lower_rule_with_facts(0, &script.rules[0], &sites, &facts, &mut bank, &mut dropped);
        assert_eq!(lowered.len(), 1);
        assert_eq!(dropped, 1);
        // The dead site still reports as a zero row.
        let rows = bank.table("t").unwrap().rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[&Location { func: 0, pc: 1 }], 0);
    }

    #[test]
    fn tos64_substitution_matches_eval_conversions() {
        // A constant top slot must fold through `tos` (i32 view) and
        // `tos64` (full slot) exactly as `eval` would read them.
        let slot = Slot::from_i64(-1);
        let w = pred_of("match * when tos == -1 && tos64 == -1 do inc a");
        let folded = simplify_with_facts(
            &w,
            site(op::NOP, 0, 0),
            SiteFacts { tos_const: Some(slot.0), ..SiteFacts::default() },
        );
        assert_eq!(folded, Expr::Const(1));
    }

    #[test]
    fn bank_sums_scalars_and_tables() {
        let mut bank = CounterBank::default();
        bank.scalar("s").set(3);
        bank.table_cell("t", Location { func: 0, pc: 0 }).set(2);
        bank.table_cell("t", Location { func: 0, pc: 2 }).set(5);
        assert_eq!(bank.sum("s"), 3);
        assert_eq!(bank.sum("t"), 7);
        assert_eq!(bank.sum("missing"), 0);
        assert_eq!(bank.scalars().collect::<Vec<_>>(), vec![("s", 3)]);
    }
}
