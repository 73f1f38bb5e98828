//! Quickstart: compile a small program, run the decompilation-based
//! partitioning flow, and print the evaluation report.
//!
//! Run with: `cargo run --release --example quickstart`

use binpart::core::flow::FlowOptions;
use binpart::core::stage::StagedFlow;
use binpart::minicc::{compile, OptLevel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = "
        int samples[256]; int coefs[16];
        int main(void) {
          int i; int j; int acc; int chk = 0;
          for (i = 0; i < 256; i++) samples[i] = (i * 37 + 11) & 0x3ff;
          for (i = 0; i < 16; i++) coefs[i] = i * 5 - 40;
          for (j = 0; j < 64; j++) {
            acc = 0;
            for (i = 0; i < 16; i++) acc += samples[j * 3 + i] * coefs[i];
            chk += acc >> 8;
          }
          return chk & 0xffff;
        }";
    // Any compiler could have produced this binary; the flow only sees the
    // binary itself.
    let binary = compile(source, OptLevel::O1)?;
    println!(
        "binary: {} instructions, {} bytes of data",
        binary.text.len(),
        binary.data.len()
    );
    let report = StagedFlow::new(&binary).run(&FlowOptions::default())?;
    println!("software cycles:   {}", report.sw_cycles);
    println!("exit value:        {}", report.sw_exit_value);
    println!("app speedup:       {:.2}x", report.hybrid.app_speedup);
    println!(
        "kernel speedup:    {:.1}x (mean)",
        report.hybrid.mean_kernel_speedup()
    );
    println!(
        "energy savings:    {:.0}%",
        report.hybrid.energy_savings * 100.0
    );
    println!("area:              {} gate equivalents", report.hybrid.total_area_gates);
    println!("kernels selected:  {}", report.partition.kernels.len());
    for k in &report.partition.kernels {
        println!(
            "  {} (step {}): {} sw cycles -> {} hw cycles @ {:.0} MHz, {} gates, BRAM={}",
            k.name,
            k.step,
            k.sw_cycles,
            k.synth.timing.hw_cycles,
            k.synth.timing.clock_mhz,
            k.synth.area.gate_equivalents,
            k.mem_in_bram
        );
    }
    Ok(())
}
