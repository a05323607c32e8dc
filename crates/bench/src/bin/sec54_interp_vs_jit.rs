//! §5.4: interpreter vs JIT — relative execution times differ wildly but
//! *absolute* overheads are comparable, because the interpreter's baseline
//! is slower and probes need no state checkpointing there. The
//! interpreter is the byte-walking one ([`System::Interp`]); the JIT is
//! the engine's compiled tier, the register form, with generic probe
//! sites ([`System::Jit`]).

use wizard_bench::{baseline, measure, relative, Analysis, System};
use wizard_suites::polybench_suite;

fn main() {
    let suite = polybench_suite(wizard_bench::scale());
    println!("=== §5.4: relative and absolute overhead, interpreter vs JIT ===");
    println!(
        "{:<16} {:>11} {:>11} {:>12} {:>12}",
        "benchmark", "rel(interp)", "rel(JIT)", "abs(interp)", "abs(JIT)"
    );
    let mut abs_i = Vec::new();
    let mut abs_j = Vec::new();
    for b in &suite {
        let base_i = baseline(b, System::Interp);
        let base_j = baseline(b, System::JitIntrinsified);
        let mi = measure(b, System::Interp, Analysis::Branch);
        let mj = measure(b, System::Jit, Analysis::Branch);
        let ai = mi.time.saturating_sub(base_i.time);
        let aj = mj.time.saturating_sub(base_j.time);
        abs_i.push(ai.as_secs_f64());
        abs_j.push(aj.as_secs_f64());
        println!(
            "{:<16} {:>10.2}x {:>10.2}x {:>11.1}ms {:>11.1}ms",
            b.name,
            relative(&mi, &base_i),
            relative(&mj, &base_j),
            ai.as_secs_f64() * 1e3,
            aj.as_secs_f64() * 1e3,
        );
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\nmean absolute overhead (branch monitor): interpreter {:.1}ms vs JIT {:.1}ms",
        mean(&abs_i) * 1e3,
        mean(&abs_j) * 1e3
    );
    println!("(paper: 2.6s vs 2.3s at the medium dataset — comparable magnitudes)");
}
