//! The **Memory** monitor (paper §3): traces all memory accesses —
//! loaded/stored addresses and values — "a good example of non-trivial
//! FrameAccessor usage": the probe reads the address and value operands
//! off the frame's operand stack before the instruction executes.

use std::cell::RefCell;
use std::rc::Rc;

use wizard_engine::{ClosureProbe, InstrumentationCtx, Monitor, ProbeBatch, ProbeError, Report};
use wizard_wasm::instr::Imm;
use wizard_wasm::opcodes as op;

use crate::util::sites;

/// One observed memory access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemEvent {
    /// Function containing the access.
    pub func: u32,
    /// pc of the access.
    pub pc: u32,
    /// The access opcode.
    pub opcode: u8,
    /// Effective address (base operand + constant offset).
    pub addr: u32,
    /// For stores, the raw value slot being stored.
    pub value: Option<u64>,
}

#[derive(Debug, Default)]
struct MemState {
    loads: u64,
    stores: u64,
    events: Vec<MemEvent>,
}

/// Traces loads and stores with effective addresses and stored values.
#[derive(Debug)]
pub struct MemoryMonitor {
    state: Rc<RefCell<MemState>>,
    max_events: usize,
}

impl Default for MemoryMonitor {
    fn default() -> MemoryMonitor {
        MemoryMonitor::new(100_000)
    }
}

impl MemoryMonitor {
    /// Creates a monitor retaining at most `max_events` detailed events
    /// (counts are always exact).
    pub fn new(max_events: usize) -> MemoryMonitor {
        MemoryMonitor { state: Rc::new(RefCell::new(MemState::default())), max_events }
    }

    /// Number of loads observed.
    pub fn loads(&self) -> u64 {
        self.state.borrow().loads
    }

    /// Number of stores observed.
    pub fn stores(&self) -> u64 {
        self.state.borrow().stores
    }

    /// The retained events.
    pub fn events(&self) -> Vec<MemEvent> {
        self.state.borrow().events.clone()
    }
}

impl Monitor for MemoryMonitor {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
        let mem_sites = sites(ctx.module(), |i| op::is_memory_access(i.op));
        let mut batch = ProbeBatch::new();
        for (func, instr) in &mem_sites {
            let Imm::Mem { offset, .. } = instr.imm else {
                unreachable!("memory access has a memarg");
            };
            let opcode = instr.op;
            let state = Rc::clone(&self.state);
            let max = self.max_events;
            batch.add_local(
                *func,
                instr.pc,
                ClosureProbe::shared(move |ctx| {
                    let is_store = op::is_store(opcode);
                    let view = ctx.frame();
                    let (addr_slot, value) = if is_store {
                        (view.operand(1).expect("store addr"), view.operand(0).map(|s| s.0))
                    } else {
                        (view.operand(0).expect("load addr"), None)
                    };
                    let loc = ctx.location();
                    let mut st = state.borrow_mut();
                    if is_store {
                        st.stores += 1;
                    } else {
                        st.loads += 1;
                    }
                    if st.events.len() < max {
                        st.events.push(MemEvent {
                            func: loc.func,
                            pc: loc.pc,
                            opcode,
                            addr: addr_slot.u32().wrapping_add(offset),
                            value,
                        });
                    }
                }),
            );
        }
        ctx.apply_batch(batch)?;
        Ok(())
    }

    fn report(&self) -> Report {
        let st = self.state.borrow();
        let mut r = Report::new(self.name());
        let trace = r.section("accesses");
        for e in st.events.iter().take(50) {
            let label = format!("func[{}]+{} {}", e.func, e.pc, op::name(e.opcode));
            match e.value {
                Some(v) => trace.text(label, format!("addr={:#x} value={v:#x}", e.addr)),
                None => trace.text(label, format!("addr={:#x}", e.addr)),
            };
        }
        r.section("summary").count("loads", st.loads).count("stores", st.stores);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_engine::store::Linker;
    use wizard_engine::{EngineConfig, Process, Value};
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::ValType::I32;

    #[test]
    fn observes_addresses_and_values() {
        let mut mb = ModuleBuilder::new();
        mb.memory(1);
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.i32_const(8).local_get(0).i32_store(4); // addr 8 + offset 4 = 12
        f.i32_const(8).i32_load(4);
        mb.add_func("rw", f);
        let module = mb.build().unwrap();
        for config in [EngineConfig::interpreter_bytecode(), EngineConfig::default()] {
            let mut p = Process::new(module.clone(), config, &Linker::new()).unwrap();
            let m = p.attach_monitor(MemoryMonitor::default()).unwrap();
            let r = p.invoke_export("rw", &[Value::I32(77)]).unwrap();
            assert_eq!(r, vec![Value::I32(77)]);
            assert_eq!(m.borrow().loads(), 1);
            assert_eq!(m.borrow().stores(), 1);
            let ev = m.borrow().events();
            assert_eq!(ev[0].addr, 12);
            assert_eq!(ev[0].value, Some(77));
            assert_eq!(ev[1].addr, 12);
            assert_eq!(ev[1].value, None);
            assert!(m.report().to_string().contains("loads: 1"));
        }
    }
}
