//! Dumps the RTL VHDL the behavioral synthesizer emits for the hottest
//! kernel of a benchmark — the artifact the original flow handed to
//! Xilinx ISE.
//!
//! Run with: `cargo run --release --example vhdl_dump`

use binpart::core::flow::FlowOptions;
use binpart::core::stage::StagedFlow;
use binpart::minicc::OptLevel;
use binpart::workloads::suite;

fn main() {
    let b = suite().into_iter().find(|b| b.name == "crc").unwrap();
    let binary = b.compile(OptLevel::O1).expect("compiles");
    let report = StagedFlow::new(&binary)
        .run(&FlowOptions::default())
        .expect("flow");
    for k in &report.partition.kernels {
        println!(
            "-- kernel {} : II={}, depth={}, clock {:.0} MHz, {} gates",
            k.name,
            k.synth.timing.innermost_ii,
            k.synth.timing.innermost_depth,
            k.synth.timing.clock_mhz,
            k.synth.area.gate_equivalents
        );
        println!("{}", k.synth.vhdl(&report.program.functions[k.func_index]));
    }
}
