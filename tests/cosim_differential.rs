//! Differential verification of the cycle-accurate FSMD co-simulation
//! engine: over the entire workload suite at every optimization level, the
//! hybrid CPU/FPGA run must produce **bit-identical architectural results**
//! (`Exit`: registers, reason, total cycles/instructions) to a
//! pure-software run, every hardware invocation's data-section store
//! sequence must match the software oracle's exactly, and the hardware
//! must actually execute (this is a co-simulation, not a bypass). This is
//! the license for reporting measured — rather than modeled — hardware
//! speedups.

use binpart::core::flow::FlowOptions;
use binpart::core::stage::StagedFlow;
use binpart::minicc::OptLevel;
use binpart::workloads::suite;

fn options() -> FlowOptions {
    let mut options = FlowOptions::default();
    // Jump-table recovery on, so all 20 benchmarks decompile.
    options.decompile.recover_jump_tables = true;
    options
}

#[test]
fn hybrid_exit_is_bit_identical_on_whole_suite_at_every_level() {
    let mut total_hw_invocations = 0u64;
    let mut kernels_executed = 0usize;
    let mut kernels_unmapped = 0usize;
    let mut cells_with_kernels = 0usize;
    for b in suite() {
        for level in OptLevel::ALL {
            let tag = format!("{} {level}", b.name);
            let binary = b.compile(level).unwrap();
            let staged = StagedFlow::new(&binary);
            let report = staged
                .cosimulate(&options())
                .unwrap_or_else(|e| panic!("{tag}: cosimulation failed: {e}"));
            assert!(
                report.exit_bit_identical,
                "{tag}: hybrid exit diverged from pure software \
                 (hybrid regs {:?})",
                report.hybrid_exit.regs
            );
            assert_eq!(
                report.store_mismatches(),
                0,
                "{tag}: hardware store sequence diverged: {:?}",
                report
                    .kernels
                    .iter()
                    .filter(|k| k.store_mismatches > 0)
                    .map(|k| (k.name.clone(), k.store_mismatches))
                    .collect::<Vec<_>>()
            );
            if !report.kernels.is_empty() {
                cells_with_kernels += 1;
            }
            total_hw_invocations += report.hw_invocations();
            kernels_executed += report
                .kernels
                .iter()
                .filter(|k| k.hw_invocations > 0)
                .count();
            kernels_unmapped += report.unmapped_kernels;
            // Estimate errors are finite wherever hardware executed.
            for k in &report.kernels {
                if let Some(e) = k.error_pct {
                    assert!(e.is_finite(), "{tag}: {} error {e}", k.name);
                }
            }
        }
    }
    // The co-simulation must exercise real hardware across the matrix:
    // most cells partition something, and the mapped kernels dominate.
    assert!(
        cells_with_kernels >= 60,
        "only {cells_with_kernels} matrix cells had a non-empty partition"
    );
    assert!(
        total_hw_invocations >= 100,
        "only {total_hw_invocations} hardware invocations across the matrix"
    );
    assert!(
        kernels_executed > kernels_unmapped,
        "unmapped kernels ({kernels_unmapped}) outnumber executed ones ({kernels_executed})"
    );
}

#[test]
fn hybrid_exit_is_bit_identical_with_superblocks_enabled() {
    // The hybrid machine runs software on the superblock engine: trap pcs
    // are mandatory trace boundaries and partition changes invalidate the
    // trace cache, so the co-simulated run must stay bit-identical and the
    // hardware store oracle must still see zero divergences. Two levels
    // over the full suite keep the runtime bounded; the pure-software
    // differential already covers all four levels.
    let mut total_hw_invocations = 0u64;
    for b in suite() {
        for level in [OptLevel::O1, OptLevel::O3] {
            let tag = format!("{} {level} superblocks", b.name);
            let binary = b.compile(level).unwrap();
            let staged = StagedFlow::new(&binary);
            let report = staged
                .cosimulate(&options())
                .unwrap_or_else(|e| panic!("{tag}: cosimulation failed: {e}"));
            assert!(
                report.exit_bit_identical,
                "{tag}: hybrid exit diverged from pure software \
                 (hybrid regs {:?})",
                report.hybrid_exit.regs
            );
            assert_eq!(
                report.store_mismatches(),
                0,
                "{tag}: hardware store sequence diverged"
            );
            total_hw_invocations += report.hw_invocations();
        }
    }
    assert!(
        total_hw_invocations >= 50,
        "only {total_hw_invocations} hardware invocations with superblocks on"
    );
}

#[test]
fn instrumented_cosim_conserves_attribution_and_stays_bit_identical_suite_wide() {
    // The hardware-observability contract over the entire 20x4 matrix:
    // under an instrumented flow every executed kernel carries an FSMD
    // profile whose cycle attribution (steady-state II + fill/drain +
    // bus-stall + sequential) and per-state occupancy each sum to the
    // measured kernel cycles *exactly* — the probes charge every cycle
    // the executor counts, once. And instrumentation must be pure
    // observation: the hybrid exit stays bit-identical to software, the
    // store oracle still sees zero divergences, and the measured cycle
    // and invocation totals match the uninstrumented flow.
    let rec = binpart::telemetry::Recorder::new();
    let mut profiles_checked = 0usize;
    for b in suite() {
        for level in OptLevel::ALL {
            let tag = format!("{} {level}", b.name);
            let binary = b.compile(level).unwrap();
            let instrumented = StagedFlow::with_telemetry(&binary, &rec)
                .cosimulate(&options())
                .unwrap_or_else(|e| panic!("{tag}: instrumented cosimulation failed: {e}"));
            assert!(
                instrumented.exit_bit_identical,
                "{tag}: instrumented hybrid exit diverged from pure software"
            );
            assert_eq!(
                instrumented.store_mismatches(),
                0,
                "{tag}: instrumented hardware store sequence diverged"
            );
            let plain = StagedFlow::new(&binary).cosimulate(&options()).unwrap();
            assert_eq!(
                instrumented.hw_invocations(),
                plain.hw_invocations(),
                "{tag}: instrumentation changed the invocation count"
            );
            for (ki, k) in instrumented.kernels.iter().enumerate() {
                assert_eq!(
                    k.hw_cycles_measured, plain.kernels[ki].hw_cycles_measured,
                    "{tag}: instrumentation changed {}'s measured cycles",
                    k.name
                );
                let Some(p) = &k.hw_profile else {
                    assert_eq!(
                        k.hw_invocations, 0,
                        "{tag}: executed kernel {} has no hardware profile",
                        k.name
                    );
                    continue;
                };
                profiles_checked += 1;
                assert_eq!(
                    p.attributed.total(),
                    k.hw_cycles_measured,
                    "{tag}: {}: attributed cycles != measured cycles",
                    k.name
                );
                assert_eq!(
                    p.measured_cycles, k.hw_cycles_measured,
                    "{tag}: {}: profile cycle total != kernel measurement",
                    k.name
                );
                assert_eq!(
                    p.state_cycles.iter().map(|&(_, c)| c).sum::<u64>(),
                    k.hw_cycles_measured,
                    "{tag}: {}: per-state occupancy != measured cycles",
                    k.name
                );
                assert_eq!(
                    p.committed, k.hw_invocations,
                    "{tag}: {}: committed invocations != kernel invocations",
                    k.name
                );
            }
        }
    }
    assert!(
        profiles_checked >= 60,
        "only {profiles_checked} kernel profiles seen across the matrix"
    );
}

#[test]
fn measured_estimate_error_is_bounded_on_the_smoke_subset() {
    // The four-benchmark smoke subset: the analytic model and the executed
    // FSMD share schedules and IIs, so the per-kernel error isolates the
    // estimator's count/trip assumptions — it must stay moderate.
    for b in binpart::workloads::opt_level_subset() {
        let binary = b.compile(OptLevel::O1).unwrap();
        let staged = StagedFlow::new(&binary);
        let report = staged.cosimulate(&options()).unwrap();
        if let Some(mean) = report.mean_abs_error_pct() {
            assert!(
                mean < 150.0,
                "{}: mean |estimate error| {mean:.1}% out of bounds",
                b.name
            );
        }
    }
}
