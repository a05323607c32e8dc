//! The **Call tree** profiler (paper §3): measures wall-clock execution
//! time of function calls and prints self and nested time over the full
//! calling-context tree; can also emit flame-graph lines. Built entirely
//! on the [`crate::entry_exit`] library — a monitor measuring
//! *non-virtualized* metrics like real time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use wizard_engine::{InstrumentationCtx, Location, Monitor, ProbeError, Process, Report};
use wizard_wasm::module::FuncIdx;

use crate::entry_exit::EntryExit;
use crate::util::func_label;

#[derive(Debug)]
struct Node {
    func: FuncIdx,
    calls: u64,
    total: Duration,
    self_time: Duration,
    children: BTreeMap<FuncIdx, usize>,
}

#[derive(Debug, Default)]
struct TreeState {
    nodes: Vec<Node>,
    roots: BTreeMap<FuncIdx, usize>,
    /// Stack of `(node id, start, accumulated child time)`.
    path: Vec<(usize, Instant, Duration)>,
}

impl TreeState {
    fn child_of(&mut self, parent: Option<usize>, func: FuncIdx) -> usize {
        let map = match parent {
            Some(p) => &mut self.nodes[p].children,
            None => &mut self.roots,
        };
        if let Some(id) = map.get(&func) {
            return *id;
        }
        let id = self.nodes.len();
        match parent {
            Some(p) => {
                self.nodes[p].children.insert(func, id);
            }
            None => {
                self.roots.insert(func, id);
            }
        }
        self.nodes.push(Node {
            func,
            calls: 0,
            total: Duration::ZERO,
            self_time: Duration::ZERO,
            children: BTreeMap::new(),
        });
        id
    }
}

/// Profiles self/total wall-clock time over the calling-context tree.
pub struct CallTreeMonitor {
    state: Rc<RefCell<TreeState>>,
    entry_exit: Option<EntryExit>,
    labels: Rc<RefCell<BTreeMap<FuncIdx, String>>>,
}

impl Default for CallTreeMonitor {
    fn default() -> CallTreeMonitor {
        CallTreeMonitor::new()
    }
}

impl CallTreeMonitor {
    /// Creates the profiler.
    pub fn new() -> CallTreeMonitor {
        CallTreeMonitor {
            state: Rc::new(RefCell::new(TreeState::default())),
            entry_exit: None,
            labels: Rc::new(RefCell::new(BTreeMap::new())),
        }
    }

    /// Drains any trap-unwound frames. The engine's unwind hook does this
    /// on every trap and cancelled suspension, so the tree is balanced as
    /// soon as the invocation is over; calling it again is harmless.
    pub fn drain(&self) {
        if let Some(ee) = &self.entry_exit {
            ee.drain();
        }
    }

    /// Flame-graph lines: `path;to;func <self time in µs>`.
    pub fn flame_lines(&self) -> Vec<String> {
        let st = self.state.borrow();
        let labels = self.labels.borrow();
        let mut out = Vec::new();
        let mut stack: Vec<(usize, String)> = Vec::new();
        for id in st.roots.values() {
            stack.push((*id, labels[&st.nodes[*id].func].clone()));
        }
        while let Some((id, path)) = stack.pop() {
            let n = &st.nodes[id];
            out.push(format!("{path} {}", n.self_time.as_micros()));
            for cid in n.children.values() {
                let c = &st.nodes[*cid];
                stack.push((*cid, format!("{path};{}", labels[&c.func])));
            }
        }
        out.sort();
        out
    }

    /// `(func, calls, total, self)` rows, flattened depth-first.
    pub fn rows(&self) -> Vec<(FuncIdx, u64, Duration, Duration)> {
        let st = self.state.borrow();
        let mut out = Vec::new();
        let mut stack: Vec<usize> = st.roots.values().copied().collect();
        while let Some(id) = stack.pop() {
            let n = &st.nodes[id];
            out.push((n.func, n.calls, n.total, n.self_time));
            stack.extend(n.children.values().copied());
        }
        out
    }
}

impl Monitor for CallTreeMonitor {
    fn name(&self) -> &'static str {
        "calltree"
    }

    fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
        {
            let mut labels = self.labels.borrow_mut();
            for func in 0..ctx.module().num_funcs() {
                labels.insert(func, func_label(ctx.module(), func));
            }
        }
        let st_in = Rc::clone(&self.state);
        let st_out = Rc::clone(&self.state);
        let ee = EntryExit::attach(
            ctx,
            move |func, _| {
                let mut st = st_in.borrow_mut();
                let parent = st.path.last().map(|(id, _, _)| *id);
                let id = st.child_of(parent, func);
                st.path.push((id, Instant::now(), Duration::ZERO));
            },
            move |_func, _| {
                let mut st = st_out.borrow_mut();
                let Some((id, start, child)) = st.path.pop() else {
                    return;
                };
                let elapsed = start.elapsed();
                let n = &mut st.nodes[id];
                n.calls += 1;
                n.total += elapsed;
                n.self_time += elapsed.saturating_sub(child);
                if let Some((_, _, parent_child)) = st.path.last_mut() {
                    *parent_child += elapsed;
                }
            },
        )?;
        self.entry_exit = Some(ee);
        Ok(())
    }

    fn on_unwind(&mut self, _top: Location, _executed: bool) {
        // The abandoned activations end here — their exit callbacks and
        // wall-clock spans with them — not at the next entry event.
        self.drain();
    }

    fn on_detach(&mut self, _process: &mut Process) {
        self.drain();
    }

    fn report(&self) -> Report {
        let st = self.state.borrow();
        let labels = self.labels.borrow();
        let mut r = Report::new(self.name());
        let tree = r.section("calling-context tree (self / total)");
        fn render(
            st: &TreeState,
            labels: &BTreeMap<FuncIdx, String>,
            id: usize,
            depth: usize,
            out: &mut wizard_engine::Section,
        ) {
            let n = &st.nodes[id];
            out.text(
                format!("{:indent$}{}", "", labels[&n.func], indent = depth * 2),
                format!("calls={} self={:?} total={:?}", n.calls, n.self_time, n.total),
            );
            for cid in n.children.values() {
                render(st, labels, *cid, depth + 1, out);
            }
        }
        for id in st.roots.values() {
            render(&st, &labels, *id, 1, tree);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_engine::store::Linker;
    use wizard_engine::{EngineConfig, Value};
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::ValType::I32;

    #[test]
    fn builds_calling_context_tree_with_times() {
        let mut mb = ModuleBuilder::new();
        let mut leaf = FuncBuilder::new(&[I32], &[I32]);
        let i = leaf.local(I32);
        let acc = leaf.local(I32);
        leaf.for_range(i, 0, |f| {
            f.local_get(acc).local_get(i).i32_add().local_set(acc);
        });
        leaf.local_get(acc);
        let leaf = mb.add_private_func("leaf", leaf);
        let mut mid = FuncBuilder::new(&[I32], &[I32]);
        mid.local_get(0).call(leaf).local_get(0).call(leaf).i32_add();
        let mid = mb.add_private_func("mid", mid);
        let mut main = FuncBuilder::new(&[I32], &[I32]);
        main.local_get(0).call(mid);
        mb.add_func("main", main);
        let mut p =
            Process::new(mb.build().unwrap(), EngineConfig::interpreter(), &Linker::new()).unwrap();
        let mon = p.attach_monitor(CallTreeMonitor::new()).unwrap();
        p.invoke_export("main", &[Value::I32(200)]).unwrap();
        mon.borrow().drain();
        let rows = mon.borrow().rows();
        // main (1 call), mid (1), leaf-under-mid (2 calls).
        let leaf_row = *rows.iter().find(|(f, _, _, _)| *f == leaf).unwrap();
        assert_eq!(leaf_row.1, 2);
        let mid_row = *rows.iter().find(|(f, _, _, _)| *f == mid).unwrap();
        assert_eq!(mid_row.1, 1);
        // Nested time: mid's total covers leaf's total.
        assert!(mid_row.2 >= leaf_row.2);
        let report = mon.report().to_string();
        assert!(report.contains("main"));
        assert!(report.contains("leaf"));
        let flames = mon.borrow().flame_lines();
        assert!(flames.iter().any(|l| l.starts_with("main;mid;leaf ")));
    }

    #[test]
    fn a_trapped_activation_exits_at_the_trap() {
        // main -> mid -> boom, which traps.
        let mut mb = ModuleBuilder::new();
        let mut boom = FuncBuilder::new(&[], &[]);
        boom.unreachable();
        let boom = mb.add_private_func("boom", boom);
        let mut mid = FuncBuilder::new(&[], &[]);
        mid.call(boom);
        let mid = mb.add_private_func("mid", mid);
        let mut main = FuncBuilder::new(&[], &[]);
        main.call(mid);
        mb.add_func("main", main);
        let mut p =
            Process::new(mb.build().unwrap(), EngineConfig::interpreter(), &Linker::new()).unwrap();
        let mon = p.attach_monitor(CallTreeMonitor::new()).unwrap();
        assert!(p.invoke_export("main", &[]).is_err());
        // Before any further call, drain or detach: the shadow stack is
        // empty and every entered activation has been exited.
        let mon = mon.borrow();
        assert_eq!(mon.entry_exit.as_ref().unwrap().depth(), 0);
        assert!(mon.state.borrow().path.is_empty());
        let calls: Vec<u64> = mon.rows().iter().map(|(_, calls, _, _)| *calls).collect();
        assert_eq!(calls, [1, 1, 1], "main, mid and boom each entered and exited once");
    }
}
