//! Figures 6 and 7: relative execution times of the hotness and branch
//! monitors across all three suites and all systems — DynamoRIO-style,
//! Wasabi-style, Wizard interpreter, Wizard JIT (± intrinsification; the
//! compiled tier is the register form), and static bytecode rewriting. Figure 7 is the per-suite geometric means,
//! printed at the end.

use std::collections::BTreeMap;

use wizard_bench::{baseline, geomean, measure, relative, Analysis, System};
use wizard_suites::all_suites;

const SYSTEMS: [System; 6] = [
    System::Dbi,
    System::Wasabi,
    System::Interp,
    System::JitIntrinsified,
    System::Jit,
    System::Rewriting,
];

fn main() {
    let suite = all_suites(wizard_bench::scale());
    let mut means: BTreeMap<(&str, &str, &str), Vec<f64>> = BTreeMap::new();
    for (analysis, label) in [(Analysis::Hotness, "hotness"), (Analysis::Branch, "branch")] {
        println!("=== Figure 6 ({label} monitor): relative execution time per program ===");
        print!("{:<12} {:<16}", "suite", "benchmark");
        for s in SYSTEMS {
            print!(" {:>13}", short(s));
        }
        println!();
        for b in &suite {
            print!("{:<12} {:<16}", b.suite, b.name);
            for system in SYSTEMS {
                let base = baseline(b, system);
                let m = measure(b, system, analysis);
                let r = relative(&m, &base);
                means.entry((label, b.suite, sys_key(system))).or_default().push(r);
                print!(" {r:>12.2}x");
            }
            println!();
        }
        println!();
    }
    println!("=== Figure 7: per-suite geometric means ===");
    for label in ["hotness", "branch"] {
        println!("[{label} monitor]");
        print!("{:<12}", "suite");
        for s in SYSTEMS {
            print!(" {:>13}", short(s));
        }
        println!();
        for suite_name in ["polybench", "libsodium", "ostrich"] {
            print!("{suite_name:<12}");
            for system in SYSTEMS {
                let xs = means
                    .get(&(label, suite_name, sys_key(system)))
                    .map(Vec::as_slice)
                    .unwrap_or(&[]);
                print!(" {:>12.2}x", geomean(xs));
            }
            println!();
        }
        println!();
    }
    println!("paper shape check: Wasabi >> DynamoRIO > Wizard JIT > rewriting ≳ JIT-intrins;");
    println!("interpreter has the lowest *relative* overhead (slow baseline, §5.4).");
}

fn short(s: System) -> &'static str {
    match s {
        System::Dbi => "DBI(native)",
        System::Wasabi => "Wasabi",
        System::Interp => "Interp",
        System::JitIntrinsified => "JIT-intr",
        System::Jit => "JIT",
        System::Rewriting => "Rewriting",
        System::InterpGlobal => "Interp-glob",
    }
}

fn sys_key(s: System) -> &'static str {
    short(s)
}
