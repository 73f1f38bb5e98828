//! Cross-crate integration tests: the complete compiler → simulator →
//! decompiler → partitioner → synthesis → platform pipeline, exercised the
//! way a downstream user would.

use binpart::core::flow::FlowOptions;
use binpart::core::stage::StagedFlow;
use binpart::core::{decompile, DecompileOptions};
use binpart::minicc::OptLevel;
use binpart::mips::sim::Machine;
use binpart::mips::{Binary, Reg};
use binpart::platform::Platform;
use binpart::workloads::{suite, Suite};

/// The suite's two jump-table benchmarks fail plain CDFG recovery and
/// succeed with recovery enabled — the paper's 18-of-20 result plus the
/// extension.
#[test]
fn jump_table_failures_match_paper_and_recovery_fixes_them() {
    let mut failed = Vec::new();
    for b in suite() {
        let binary = b.compile(OptLevel::O1).unwrap();
        if decompile(&binary, DecompileOptions::default()).is_err() {
            failed.push(b.name);
            // recovery extension must succeed
            let opts = DecompileOptions {
                recover_jump_tables: true,
                ..Default::default()
            };
            decompile(&binary, opts)
                .unwrap_or_else(|e| panic!("{}: recovery failed: {e}", b.name));
        }
    }
    assert_eq!(failed, vec!["tblook01", "canrdr01"]);
}

/// Binary round trip: serialize, reload, decompile, same statistics.
#[test]
fn binary_serialization_round_trips_through_flow() {
    let b = suite().into_iter().find(|b| b.name == "crc").unwrap();
    let binary = b.compile(OptLevel::O1).unwrap();
    let bytes = binary.to_bytes();
    let reloaded = Binary::from_bytes(&bytes).unwrap();
    let r1 = StagedFlow::new(&binary).run(&FlowOptions::default()).unwrap();
    let r2 = StagedFlow::new(&reloaded).run(&FlowOptions::default()).unwrap();
    assert_eq!(r1.sw_cycles, r2.sw_cycles);
    assert!((r1.hybrid.app_speedup - r2.hybrid.app_speedup).abs() < 1e-12);
}

/// Every recovered benchmark must accelerate: this is the paper's headline
/// claim at the per-benchmark level.
#[test]
fn every_recovered_benchmark_accelerates() {
    for b in suite() {
        if b.has_jump_table {
            continue;
        }
        let binary = b.compile(OptLevel::O1).unwrap();
        let r = StagedFlow::new(&binary).run(&FlowOptions::default()).unwrap();
        assert!(
            r.hybrid.app_speedup > 1.0,
            "{}: speedup {}",
            b.name,
            r.hybrid.app_speedup
        );
        assert!(
            r.hybrid.energy_savings > 0.0,
            "{}: savings {}",
            b.name,
            r.hybrid.energy_savings
        );
    }
}

/// The decompiler does not change observable behaviour: the simulator's
/// exit value matches before and after any compile level.
#[test]
fn simulation_results_stable_across_levels_for_eembc_class() {
    for b in suite().into_iter().filter(|b| b.suite == Suite::Eembc) {
        let mut first = None;
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let mut m = Machine::new(&binary).unwrap();
            let v = m.run().unwrap().reg(Reg::V0);
            match first {
                None => first = Some(v),
                Some(f) => assert_eq!(f, v, "{} at {level}", b.name),
            }
        }
    }
}

/// The platform sweep keeps the paper's ordering on the full suite level.
#[test]
fn platform_sweep_ordering_holds_for_a_hot_benchmark() {
    let b = suite().into_iter().find(|b| b.name == "aifirf01").unwrap();
    let binary = b.compile(OptLevel::O1).unwrap();
    let run = |hz: f64| {
        let o = FlowOptions {
            platform: Platform::mips_virtex2(hz),
            ..Default::default()
        };
        StagedFlow::new(&binary).run(&o).unwrap().hybrid
    };
    let (r40, r200, r400) = (run(40e6), run(200e6), run(400e6));
    assert!(r40.app_speedup > r200.app_speedup && r200.app_speedup > r400.app_speedup);
    assert!(
        r40.energy_savings > r200.energy_savings
            && r200.energy_savings > r400.energy_savings
    );
}

/// Compiling by hand with the assembler and feeding the raw binary through
/// the flow works without any compiler metadata (symbols stripped).
#[test]
fn flow_works_on_stripped_hand_written_binary() {
    use binpart::mips::{Asm, BinaryBuilder};
    let mut a = Asm::new();
    let top = a.new_label();
    a.li(Reg::T0, 50_000);
    a.li(Reg::V0, 0);
    a.bind(top);
    a.addu(Reg::V0, Reg::V0, Reg::T0);
    a.addiu(Reg::T0, Reg::T0, -1);
    a.bgtz(Reg::T0, top);
    a.nop();
    a.jr(Reg::Ra);
    a.nop();
    let binary = BinaryBuilder::new().text(a.finish().unwrap()).build();
    assert!(binary.symbols.is_empty());
    let r = StagedFlow::new(&binary).run(&FlowOptions::default()).unwrap();
    assert!(r.hybrid.app_speedup > 1.0, "{}", r.hybrid.app_speedup);
    assert!(r.partition.kernels.len() == 1);
}

/// Decompiler statistics are non-trivial across the suite (E4 sanity).
#[test]
fn decompiler_statistics_accumulate() {
    let mut loops = 0;
    let mut narrowed = 0;
    for b in suite().into_iter().take(8) {
        let binary = b.compile(OptLevel::O1).unwrap();
        let opts = DecompileOptions {
            recover_jump_tables: true,
            ..Default::default()
        };
        let prog = decompile(&binary, opts).unwrap();
        loops += prog.stats.structure.loops();
        narrowed += prog.stats.passes.values_narrowed;
    }
    assert!(loops >= 16, "loops {loops}");
    assert!(narrowed > 50, "narrowed {narrowed}");
}
