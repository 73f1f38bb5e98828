//! End-to-end hybrid co-simulation of one benchmark: partition it, then
//! *execute* the partitioned system — software on the fast MIPS simulator,
//! each selected kernel on the cycle-accurate FSMD executor — and print
//! measured vs analytically estimated numbers side by side.
//!
//! ```text
//! cargo run --release --example hybrid_run [benchmark] [O0|O1|O2|O3] [--trace-out FILE] [--vcd-out FILE]
//! ```
//!
//! `--trace-out FILE` writes the run's telemetry as Chrome-trace JSON
//! (per-stage spans + counter tracks); load it in `chrome://tracing` or
//! Perfetto.
//!
//! `--vcd-out FILE` writes the first executed kernel's first-invocation
//! FSMD waveform (FSM state, bus strobes, bound registers) as a VCD file
//! viewable in GTKWave.

use binpart::core::flow::FlowOptions;
use binpart::core::stage::StagedFlow;
use binpart::minicc::OptLevel;
use binpart::telemetry::Recorder;

fn main() {
    let mut trace_out: Option<String> = None;
    let mut vcd_out: Option<String> = None;
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            trace_out = Some(args.next().unwrap_or_else(|| {
                eprintln!("hybrid_run: --trace-out needs a file path");
                std::process::exit(2);
            }));
        } else if a == "--vcd-out" {
            vcd_out = Some(args.next().unwrap_or_else(|| {
                eprintln!("hybrid_run: --vcd-out needs a file path");
                std::process::exit(2);
            }));
        } else {
            positional.push(a);
        }
    }
    let name = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "autcor00".into());
    let level = match positional.get(1).map(String::as_str) {
        Some("O0") => OptLevel::O0,
        Some("O2") => OptLevel::O2,
        Some("O3") => OptLevel::O3,
        _ => OptLevel::O1,
    };
    let bench = binpart::workloads::suite()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let binary = bench.compile(level).expect("suite compiles");

    let mut options = FlowOptions::default();
    options.decompile.recover_jump_tables = true;

    let recorder = Recorder::new();
    let staged = StagedFlow::with_telemetry(&binary, &recorder);
    let report = staged.cosimulate(&options).expect("co-simulation runs");

    println!("== {} at -{:?}: hybrid co-simulation ==", bench.name, level);
    println!(
        "software reference: {} cycles | hybrid exit bit-identical: {}",
        report.sw_cycles, report.exit_bit_identical
    );
    println!();
    println!(
        "{:<28} {:>6} {:>6} {:>12} {:>12} {:>8} {:>6}",
        "kernel", "inv", "hw-inv", "hw-cyc meas", "hw-cyc est", "err%", "mism"
    );
    for k in &report.kernels {
        println!(
            "{:<28} {:>6} {:>6} {:>12} {:>12} {:>8} {:>6}",
            k.name,
            k.invocations,
            k.hw_invocations,
            k.hw_cycles_measured,
            k.hw_cycles_estimated,
            k.error_pct
                .map(|e| format!("{e:+.1}"))
                .unwrap_or_else(|| "-".into()),
            k.store_mismatches,
        );
    }
    println!();
    // The measured hardware side of the story: where each kernel's cycles
    // actually went, from the FSMD profiler the instrumented flow attaches.
    println!(
        "{:<28} {:>12} {:>10} {:>8} {:>8} {:>8} {:>7} {:>7} {:>6}",
        "kernel (cycle attribution)", "cycles", "steady-II", "fill", "stall", "seq", "stall%", "fill%", "cov%"
    );
    for k in &report.kernels {
        let Some(p) = &k.hw_profile else { continue };
        println!(
            "{:<28} {:>12} {:>10} {:>8} {:>8} {:>8} {:>6.1}% {:>6.1}% {:>5.0}%",
            k.name,
            p.measured_cycles,
            p.attributed.steady_ii,
            p.attributed.fill_drain,
            p.attributed.bus_stall,
            p.attributed.block_seq,
            p.bus_stall_pct(),
            p.fill_overhead_pct(),
            p.state_coverage() * 100.0,
        );
    }
    println!();
    println!(
        "estimated (analytic): speedup {:.2}x, energy savings {:.0}%",
        report.estimated.app_speedup,
        report.estimated.energy_savings * 100.0
    );
    println!(
        "measured  (executed): speedup {:.2}x, energy savings {:.0}%",
        report.measured.app_speedup,
        report.measured.energy_savings * 100.0
    );
    if let Some(mean) = report.mean_abs_error_pct() {
        println!(
            "hardware-cycle estimate error: mean |{mean:.1}|%, max |{:.1}|%",
            report.max_abs_error_pct().unwrap_or(0.0)
        );
    }
    if report.unmapped_kernels > 0 {
        println!(
            "({} kernel(s) had no recoverable live-in binding and stayed in software)",
            report.unmapped_kernels
        );
    }
    if let Some(path) = vcd_out {
        // First executed kernel's first-invocation waveform, rendered now.
        match report
            .kernels
            .iter()
            .find_map(|k| k.hw_profile.as_ref()?.vcd().map(|v| (&k.name, v)))
        {
            Some((kernel, vcd)) => {
                std::fs::write(&path, &vcd).expect("vcd file writes");
                println!(
                    "wrote {kernel}'s first-invocation waveform to {path} ({} bytes) — open in GTKWave",
                    vcd.len()
                );
            }
            None => println!("no kernel executed in hardware; nothing to write to {path}"),
        }
    }
    if let Some(path) = trace_out {
        let trace = recorder.chrome_trace().expect("span stream balances");
        std::fs::write(&path, &trace).expect("trace file writes");
        println!(
            "wrote Chrome trace to {path} ({} bytes) — load in chrome://tracing or Perfetto",
            trace.len()
        );
    }
}
