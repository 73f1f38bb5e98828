//! The paper's compiler-optimization-level experiment: compile one
//! benchmark at -O0..-O3 and partition each binary, showing that binary-
//! level synthesis keeps working (and usually improves) as the software
//! compiler optimizes harder.
//!
//! Run with: `cargo run --release --example opt_levels`

use binpart::core::flow::FlowOptions;
use binpart::core::stage::StagedFlow;
use binpart::minicc::OptLevel;
use binpart::workloads::opt_level_subset;

fn main() {
    for b in opt_level_subset() {
        println!("{} ({}):", b.name, b.suite.label());
        for level in OptLevel::ALL {
            let binary = b.compile(level).expect("compiles");
            let mut options = FlowOptions::default();
            options.decompile.recover_jump_tables = true;
            let r = StagedFlow::new(&binary).run(&options).expect("flow");
            println!(
                "  {}: sw {:>8.3} ms -> hybrid {:>7.3} ms, speedup {:>5.2}x, energy {:>3.0}%",
                level.flag(),
                r.hybrid.sw_time_s * 1e3,
                r.hybrid.hybrid_time_s * 1e3,
                r.hybrid.app_speedup,
                r.hybrid.energy_savings * 100.0
            );
        }
    }
}
