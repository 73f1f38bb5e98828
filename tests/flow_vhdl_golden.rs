//! Golden for the flow's emitted RTL: per (benchmark, OptLevel) cell, the
//! selected kernels' names plus the byte length and FNV-1a digest of
//! `FlowReport::vhdl()`. Any change to what the emitter renders — entity
//! names, state sequence, register declarations, the choice of hot block —
//! shows up as a diff against `tests/golden/flow_vhdl.txt`.
//!
//! Re-pin an intended change with
//! `BINPART_PIN_GOLDEN=1 cargo test --test flow_vhdl_golden`.

use binpart::core::flow::FlowOptions;
use binpart::core::stage::StagedFlow;
use binpart::minicc::OptLevel;
use binpart::workloads::suite;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line per cell: `benchmark level kernels=a,b,... bytes=N fnv1a=H`.
fn vhdl_lines() -> String {
    let mut options = FlowOptions::default();
    // Jump-table recovery on, so all 20 benchmarks decompile.
    options.decompile.recover_jump_tables = true;
    let mut text = String::new();
    for b in suite() {
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let report = StagedFlow::new(&binary)
                .run(&options)
                .unwrap_or_else(|e| panic!("{} {level}: flow failed: {e}", b.name));
            let names: Vec<&str> = report.partition.selected().map(|(_, c)| &*c.name).collect();
            let vhdl = report.vhdl();
            text.push_str(&format!(
                "{} {level} kernels={} bytes={} fnv1a={:016x}\n",
                b.name,
                names.join(","),
                vhdl.len(),
                fnv1a(vhdl.as_bytes())
            ));
        }
    }
    text
}

#[test]
fn flow_vhdl_matches_golden() {
    let text = vhdl_lines();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/flow_vhdl.txt");
    if std::env::var_os("BINPART_PIN_GOLDEN").is_some() {
        std::fs::write(path, &text).unwrap();
    }
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    assert_eq!(
        text, golden,
        "emitted RTL drifted from tests/golden/flow_vhdl.txt; if the change \
         is intended, re-pin with BINPART_PIN_GOLDEN=1 cargo test --test \
         flow_vhdl_golden"
    );
}
