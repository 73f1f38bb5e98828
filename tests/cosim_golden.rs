//! Exactness golden for the FSMD co-simulation: every kernel's measured
//! numbers over the whole workload suite at every optimization level, plus
//! the byte length and FNV-1a digest of one instrumented first-invocation
//! VCD. Any change to how the hardware executes — timing, values, store
//! order, telemetry hook sequence — shows up as a diff against
//! `tests/golden/cosim_kernels.txt`.
//!
//! Re-pin an intended change with
//! `BINPART_PIN_GOLDEN=1 cargo test --test cosim_golden`.

use binpart::core::flow::FlowOptions;
use binpart::core::stage::StagedFlow;
use binpart::minicc::OptLevel;
use binpart::telemetry::Recorder;
use binpart::workloads::suite;

fn options() -> FlowOptions {
    let mut options = FlowOptions::default();
    // Jump-table recovery on, so all 20 benchmarks decompile.
    options.decompile.recover_jump_tables = true;
    options
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One header line per (benchmark, OptLevel) cell, then one line per
/// kernel: `name mapped invocations hw_invocations not_executed
/// hw_cycles_measured sw_cycles_replaced store_mismatches`.
fn kernel_lines() -> String {
    let mut text = String::new();
    for b in suite() {
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let report = StagedFlow::new(&binary)
                .cosimulate(&options())
                .unwrap_or_else(|e| panic!("{} {level}: cosimulation failed: {e}", b.name));
            text.push_str(&format!("# {} {level}\n", b.name));
            for k in &report.kernels {
                text.push_str(&format!(
                    "{} {} {} {} {} {} {} {}\n",
                    k.name,
                    k.mapped,
                    k.invocations,
                    k.hw_invocations,
                    k.not_executed,
                    k.hw_cycles_measured,
                    k.sw_cycles_replaced,
                    k.store_mismatches
                ));
            }
        }
    }
    text
}

/// The first executed kernel's first-invocation VCD of `autcor00 -O1`,
/// through the instrumented `cosimulate` the `hybrid_run --vcd-out`
/// example takes.
fn vcd_line() -> String {
    let b = suite().into_iter().find(|b| b.name == "autcor00").unwrap();
    let binary = b.compile(OptLevel::O1).unwrap();
    let recorder = Recorder::new();
    let report = StagedFlow::with_telemetry(&binary, &recorder)
        .cosimulate(&options())
        .unwrap();
    let (kernel, vcd) = report
        .kernels
        .iter()
        .find_map(|k| k.hw_profile.as_ref()?.vcd().map(|v| (k.name.clone(), v)))
        .expect("autcor00 -O1 executes a kernel in hardware");
    format!(
        "vcd autcor00 O1 {kernel} bytes={} fnv1a={:016x}\n",
        vcd.len(),
        fnv1a(vcd.as_bytes())
    )
}

#[test]
fn cosim_kernels_and_vcd_digest_match_golden() {
    let text = kernel_lines() + &vcd_line();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/cosim_kernels.txt");
    if std::env::var_os("BINPART_PIN_GOLDEN").is_some() {
        std::fs::write(path, &text).unwrap();
    }
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    assert_eq!(
        text, golden,
        "co-simulation drifted from tests/golden/cosim_kernels.txt; if the \
         change is intended, re-pin with BINPART_PIN_GOLDEN=1 cargo test \
         --test cosim_golden"
    );
}
