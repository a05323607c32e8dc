//! §6.4 / Appendix A.8: the JVMTI comparison. A JVMTI-style MethodEntry
//! agent vs Wizard's Calls monitor on the Richards benchmark, at
//! increasing loop counts, using the appendix's base-time-subtracted
//! relative execution time:
//! `(T_i - T_bi) / (T_u - T_bu)` where the `b` runs use 0 loops.

use std::time::{Duration, Instant};

use wizard_baselines::jvmti::Agent;
use wizard_engine::store::Linker;
use wizard_engine::{EngineConfig, Process, Value};
use wizard_monitors::CallsMonitor;
use wizard_suites::richards_benchmark;

#[derive(Clone, Copy)]
enum Mode {
    Uninstrumented,
    WizardCalls,
    Jvmti,
}

fn run_once(loops: i32, mode: Mode) -> Duration {
    let b = richards_benchmark(loops);
    let start = Instant::now();
    let mut p = Process::new(b.module.clone(), EngineConfig::default(), &Linker::new())
        .expect("richards instantiates");
    let _keep: Option<Box<dyn std::any::Any>> = match mode {
        Mode::Uninstrumented => None,
        Mode::WizardCalls => {
            let m = p.attach_monitor(CallsMonitor::new()).expect("attach");
            Some(Box::new(m))
        }
        Mode::Jvmti => Some(Box::new(Agent::attach(&mut p).expect("attach"))),
    };
    p.invoke_export("run", &[Value::I32(loops)]).expect("runs");
    start.elapsed()
}

fn avg(loops: i32, mode: Mode, n: u32) -> f64 {
    let mut total = Duration::ZERO;
    for _ in 0..n {
        total += run_once(loops, mode);
    }
    (total / n).as_secs_f64()
}

fn main() {
    let n = wizard_bench::runs();
    println!("=== §6.4: MethodEntry interception on Richards ===");
    println!("{:<10} {:>16} {:>16}", "loops", "JVMTI-style", "Wizard Calls");
    let base_u = avg(0, Mode::Uninstrumented, n);
    let base_w = avg(0, Mode::WizardCalls, n);
    let base_j = avg(0, Mode::Jvmti, n);
    for loops in [9_999, 99_999, 999_999] {
        let tu = avg(loops, Mode::Uninstrumented, n) - base_u;
        let tw = avg(loops, Mode::WizardCalls, n) - base_w;
        let tj = avg(loops, Mode::Jvmti, n) - base_j;
        let denom = tu.max(1e-9);
        println!("{loops:<10} {:>15.2}x {:>15.2}x", tj / denom, tw / denom);
    }
    println!("\n(paper: JVMTI 50-100x vs Wizard Calls 2.5-3x — shape: JVMTI-style");
    println!(" event boxing/dispatch costs an order of magnitude more than engine");
    println!(" probes counting at callsites)");
}
