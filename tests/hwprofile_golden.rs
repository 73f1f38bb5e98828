//! Exactness golden for the hardware recorder: every kernel's
//! [`HwProfile`](binpart::hwsim::HwProfile) over the whole workload suite
//! at every optimization level, through the instrumented `cosimulate`.
//! Each public field is pinned by its `Debug`, the captured wave by the
//! byte length and FNV-1a digest of its rendered VCD. Any change to what
//! the recorder counts, attributes, rolls back or captures shows up as a
//! diff against `tests/golden/hwprofile.txt`.
//!
//! Re-pin an intended change with
//! `BINPART_PIN_GOLDEN=1 cargo test --test hwprofile_golden`.

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

/// One header line per (benchmark, OptLevel) cell, then per kernel with a
/// profile a `kernel` line and one indented line per field.
fn profile_lines() -> String {
    let mut text = String::new();
    for b in suite() {
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let recorder = Recorder::new();
            let report = StagedFlow::with_telemetry(&binary, &recorder)
                .cosimulate(&options())
                .unwrap_or_else(|e| panic!("{} {level}: cosimulation failed: {e}", b.name));
            text.push_str(&format!("# {} {level}\n", b.name));
            for k in &report.kernels {
                let Some(p) = &k.hw_profile else { continue };
                text.push_str(&format!("kernel {}\n", k.name));
                let fields: [(&str, String); 18] = [
                    ("invocations", format!("{:?}", p.invocations)),
                    ("committed", format!("{:?}", p.committed)),
                    ("aborted", format!("{:?}", p.aborted)),
                    ("measured_cycles", format!("{:?}", p.measured_cycles)),
                    ("state_cycles", format!("{:?}", p.state_cycles)),
                    ("block_execs", format!("{:?}", p.block_execs)),
                    ("attributed", format!("{:?}", p.attributed)),
                    ("analytic", format!("{:?}", p.analytic)),
                    ("bus_reads", format!("{:?}", p.bus_reads)),
                    ("bus_writes", format!("{:?}", p.bus_writes)),
                    ("bus_read_words", format!("{:?}", p.bus_read_words)),
                    ("bus_write_words", format!("{:?}", p.bus_write_words)),
                    ("bram_transfer_words", format!("{:?}", p.bram_transfer_words)),
                    ("states_executed", format!("{:?}", p.states_executed)),
                    ("states_total", format!("{:?}", p.states_total)),
                    ("last_bus", format!("{:?}", p.last_bus)),
                    ("final_state", format!("{:?}", p.final_state)),
                    (
                        "vcd",
                        match p.vcd() {
                            Some(v) => format!("bytes={} fnv1a={:016x}", v.len(), fnv1a(v.as_bytes())),
                            None => "none".to_string(),
                        },
                    ),
                ];
                for (name, value) in fields {
                    text.push_str(&format!("  {name} {value}\n"));
                }
            }
        }
    }
    text
}

#[test]
fn hw_profiles_match_golden() {
    let text = profile_lines();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/hwprofile.txt");
    if std::env::var_os("BINPART_PIN_GOLDEN").is_some() {
        std::fs::write(path, &text).unwrap();
    }
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    assert_eq!(
        text, golden,
        "hardware profiles drifted from tests/golden/hwprofile.txt; if the \
         change is intended, re-pin with BINPART_PIN_GOLDEN=1 cargo test \
         --test hwprofile_golden"
    );
}
