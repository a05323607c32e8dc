//! Figure 5: decomposition of instrumented JIT execution time — the
//! compiled tier, the register form — into program time (T_JIT),
//! probe-dispatch overhead (T_PD, measured with empty probes), and M-code
//! time (T_M), with and without intrinsification — the paper's
//! empty-probe methodology (§5.3).

use wizard_bench::{baseline, measure, Analysis, System};
use wizard_suites::polybench_suite;

fn main() {
    let suite = polybench_suite(wizard_bench::scale());
    for (analysis, empty, label) in [
        (Analysis::Hotness, Analysis::HotnessEmpty, "hotness"),
        (Analysis::Branch, Analysis::BranchEmpty, "branch"),
    ] {
        println!("=== Figure 5 ({label}): % of runtime in program / probe dispatch / M-code ===");
        println!(
            "{:<16} {:>28} {:>28}",
            "benchmark", "JIT (prog/PD/M %)", "JIT intrins (prog/PD/M %)"
        );
        for b in &suite {
            let base = baseline(b, System::JitIntrinsified).time.as_secs_f64();
            let mut cols = Vec::new();
            for system in [System::Jit, System::JitIntrinsified] {
                let t_pd = measure(b, system, empty).time.as_secs_f64();
                let t_all = measure(b, system, analysis).time.as_secs_f64();
                let prog = base.min(t_all);
                let pd = (t_pd - base).max(0.0).min(t_all - prog);
                let m = (t_all - prog - pd).max(0.0);
                let total = t_all.max(1e-9);
                cols.push(format!(
                    "{:>7.1}/{:>5.1}/{:>5.1}",
                    100.0 * prog / total,
                    100.0 * pd / total,
                    100.0 * m / total
                ));
            }
            println!("{:<16} {:>28} {:>28}", b.name, cols[0], cols[1]);
        }
        println!();
    }
    println!("(cross-hatched region of the paper = the JIT column minus the intrins column)");
}
