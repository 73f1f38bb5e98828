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
    for (k, c) in report.partition.selected() {
        println!(
            "-- kernel {} : II={}, depth={}, clock {:.0} MHz, {} gates",
            c.name,
            k.synth.timing.innermost_ii,
            k.synth.timing.innermost_depth,
            k.synth.timing.clock_mhz,
            k.synth.area.gate_equivalents
        );
        let (f, counts) = (&report.program.functions[c.func_index], &report.counts[c.func_index]);
        println!("{}", k.synth.vhdl(f, counts));
    }
}
