//! The streaming trace monitor: lowers branch (and optionally call and
//! function-boundary) sites onto operand/generic probes that feed a
//! [`TraceWriter`] — one [`ProbeBatch`] at attach, baseline restored at
//! detach.

use std::cell::RefCell;
use std::rc::Rc;

use wizard_engine::{
    InstrumentationCtx, Location, Monitor, Probe, ProbeBatch, ProbeCtx, ProbeError, ProbeKind,
    Process, Report, Slot,
};
use wizard_wasm::instr::{Imm, InstrIter};
use wizard_wasm::opcodes as op;

use crate::format::{SiteDict, INDIRECT_CALLEE};
use crate::sink::{MemorySink, TraceSink};
use crate::writer::{TraceCounters, TraceWriter};

/// What the tracer captures. Branch capture is the always-on core;
/// calls and function boundaries are opt-in (they use generic probes,
/// which are costlier than intrinsified operand probes).
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Capture branch outcomes at every `if`/`br_if`/`br_table` site.
    pub branches: bool,
    /// Capture `call`/`call_indirect` events.
    pub calls: bool,
    /// Capture function enter/exit events.
    pub funcs: bool,
    /// Block payload limit handed to the [`TraceWriter`].
    pub block_limit: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            branches: true,
            calls: false,
            funcs: false,
            block_limit: crate::writer::DEFAULT_BLOCK_LIMIT,
        }
    }
}

/// Shared handle to a [`TraceWriter`], cloned into every probe.
pub type WriterRef = Rc<RefCell<TraceWriter>>;

/// The per-site branch probe: [`ProbeKind::Operand`], so compiled code
/// intrinsifies it into a direct call carrying the top-of-stack
/// condition (or `br_table` index) with no `ProbeCtx` reification.
///
/// Shared with wizard-script's `trace` action so scripted and
/// hand-attached tracers emit byte-identical streams.
#[derive(Debug)]
pub struct BranchTraceProbe {
    opcode: u8,
    site: u32,
    writer: WriterRef,
}

impl BranchTraceProbe {
    /// A probe recording outcomes of the branch with dictionary id
    /// `site` and opcode `opcode` into `writer`.
    pub fn new(opcode: u8, site: u32, writer: WriterRef) -> BranchTraceProbe {
        BranchTraceProbe { opcode, site, writer }
    }

    #[inline]
    fn record(&self, top: Slot) {
        // Same taken convention as the branch-profile monitor: br_table
        // is always taken, conditional branches on a non-zero condition.
        let taken = self.opcode == op::BR_TABLE || top.i32() != 0;
        self.writer.borrow_mut().branch(self.site, taken);
    }
}

impl Probe for BranchTraceProbe {
    fn fire(&mut self, ctx: &mut ProbeCtx<'_, '_>) {
        let top = ctx.top_of_stack().expect("branch has a condition operand");
        self.record(top);
    }

    fn kind(&self) -> ProbeKind {
        ProbeKind::Operand
    }

    fn fire_operand(&mut self, _loc: Location, top: Slot) {
        self.record(top);
    }
}

/// A generic probe emitting one fixed event when its site executes.
struct EventProbe {
    event: crate::format::TraceEvent,
    writer: WriterRef,
}

impl Probe for EventProbe {
    fn fire(&mut self, _ctx: &mut ProbeCtx<'_, '_>) {
        self.writer.borrow_mut().emit(&self.event);
    }
}

/// Streams a compact binary trace of branch outcomes (and optionally
/// calls and function boundaries) to a [`TraceSink`] while the traced
/// program runs.
///
/// Attach installs one probe per captured site in a single
/// [`ProbeBatch`]; detach finishes the writer (flushing the final block
/// and the sink) and credits the captured event/byte counts to the
/// process via [`Process::record_trace`].
pub struct StreamingTraceMonitor {
    config: TraceConfig,
    sink: Option<Box<dyn TraceSink>>,
    memory: Option<MemorySink>,
    writer: Option<WriterRef>,
    dict: SiteDict,
    final_counters: TraceCounters,
    error: Option<std::io::Error>,
}

impl StreamingTraceMonitor {
    /// A branch tracer writing to an internal [`MemorySink`]; read the
    /// captured stream with [`StreamingTraceMonitor::trace_data`] after
    /// detach.
    pub fn in_memory() -> StreamingTraceMonitor {
        let mem = MemorySink::new();
        StreamingTraceMonitor {
            config: TraceConfig::default(),
            sink: Some(Box::new(mem.clone())),
            memory: Some(mem),
            writer: None,
            dict: SiteDict::default(),
            final_counters: TraceCounters::default(),
            error: None,
        }
    }

    /// A branch tracer writing to `sink`.
    pub fn with_sink(sink: Box<dyn TraceSink>) -> StreamingTraceMonitor {
        StreamingTraceMonitor {
            config: TraceConfig::default(),
            sink: Some(sink),
            memory: None,
            writer: None,
            dict: SiteDict::default(),
            final_counters: TraceCounters::default(),
            error: None,
        }
    }

    /// Replaces the capture configuration.
    pub fn with_config(mut self, config: TraceConfig) -> StreamingTraceMonitor {
        self.config = config;
        self
    }

    /// The site dictionary built at attach (empty before attach).
    pub fn dict(&self) -> &SiteDict {
        &self.dict
    }

    /// The captured stream, for monitors built with
    /// [`StreamingTraceMonitor::in_memory`]. Complete once detached.
    pub fn trace_data(&self) -> Option<Vec<u8>> {
        self.memory.as_ref().map(MemorySink::data)
    }

    /// Final writer counters; populated at detach.
    pub fn counters(&self) -> TraceCounters {
        match &self.writer {
            Some(w) => w.borrow().counters(),
            None => self.final_counters,
        }
    }

    /// The first sink error hit during the stream, if any (taken at
    /// detach; probe fire paths cannot propagate errors).
    pub fn sink_error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }
}

impl Monitor for StreamingTraceMonitor {
    fn name(&self) -> &'static str {
        "streaming-trace"
    }

    fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
        let module = ctx.module();
        // One static pass: the branch-site dictionary in code order, with
        // each site's opcode alongside for the probe's taken convention.
        let n_imp = module.num_imported_funcs();
        let mut branch_sites: Vec<(Location, u8)> = Vec::new();
        for (i, f) in module.funcs.iter().enumerate() {
            let func = n_imp + i as u32;
            for item in InstrIter::new(&f.body.code) {
                let instr = item.expect("module was validated");
                if matches!(instr.op, op::IF | op::BR_IF | op::BR_TABLE) {
                    branch_sites.push((Location { func, pc: instr.pc }, instr.op));
                }
            }
        }
        self.dict = SiteDict::from_locations(branch_sites.iter().map(|(l, _)| *l));
        let sink = self.sink.take().expect("streaming tracer cannot be re-attached");
        let writer: WriterRef = Rc::new(RefCell::new(TraceWriter::with_block_limit(
            &self.dict,
            sink,
            self.config.block_limit,
        )));

        let mut batch = ProbeBatch::new();
        if self.config.branches {
            for (site, (loc, opcode)) in branch_sites.iter().enumerate() {
                batch.add_local_val(
                    loc.func,
                    loc.pc,
                    BranchTraceProbe::new(*opcode, site as u32, Rc::clone(&writer)),
                );
            }
        }
        if self.config.calls || self.config.funcs {
            use crate::format::TraceEvent;
            for (i, f) in module.funcs.iter().enumerate() {
                let func = n_imp + i as u32;
                let mut first = true;
                for item in InstrIter::new(&f.body.code) {
                    let instr = item.expect("module was validated");
                    if self.config.funcs && first {
                        batch.add_local_val(
                            func,
                            instr.pc,
                            EventProbe {
                                event: TraceEvent::FuncEnter { func },
                                writer: Rc::clone(&writer),
                            },
                        );
                        first = false;
                    }
                    let event = match instr.op {
                        op::CALL if self.config.calls => {
                            let Imm::Idx(callee) = instr.imm else { unreachable!("call imm") };
                            Some(TraceEvent::Call { callee })
                        }
                        op::CALL_INDIRECT if self.config.calls => {
                            Some(TraceEvent::Call { callee: INDIRECT_CALLEE })
                        }
                        op::RETURN if self.config.funcs => Some(TraceEvent::Return { func }),
                        _ => None,
                    };
                    if let Some(event) = event {
                        batch.add_local_val(
                            func,
                            instr.pc,
                            EventProbe { event, writer: Rc::clone(&writer) },
                        );
                    }
                }
            }
        }
        ctx.apply_batch(batch)?;
        self.writer = Some(writer);
        Ok(())
    }

    fn on_detach(&mut self, process: &mut Process) {
        if let Some(writer) = self.writer.take() {
            let mut writer = writer.borrow_mut();
            match writer.finish() {
                Ok(counters) => self.final_counters = counters,
                Err(e) => {
                    self.final_counters = writer.counters();
                    self.error = Some(e);
                }
            }
            process.record_trace(self.final_counters.events, self.final_counters.bytes);
        }
    }

    fn report(&self) -> Report {
        let c = self.counters();
        let mut r = Report::new(self.name());
        let s = r.section("trace");
        s.count("sites", self.dict.len() as u64);
        s.count("events", c.events);
        s.count("branches", c.branches);
        s.count("bytes", c.bytes);
        if c.branches > 0 {
            s.float("bytes/branch", c.bytes as f64 / c.branches as f64);
        }
        if let Some(e) = &self.error {
            s.text("sink error", e.to_string());
        }
        r
    }
}
