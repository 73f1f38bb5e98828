//! The analytic estimator and the executed FSMD agree on every kernel's
//! cycle model: for each mapped kernel of every (benchmark, OptLevel)
//! cell, the analytic per-category attribution the FSMD derives from its
//! compiled schedule tables sums to the synthesis estimate the partitioner
//! priced (up to the estimate's `max(1)` floor). A schedule the executor
//! runs that differs from the one the estimate priced breaks this.

use binpart::core::flow::FlowOptions;
use binpart::core::stage::StagedFlow;
use binpart::minicc::OptLevel;
use binpart::telemetry::Recorder;
use binpart::workloads::suite;

#[test]
fn analytic_attribution_matches_estimate_on_every_mapped_kernel() {
    let mut options = FlowOptions::default();
    options.decompile.recover_jump_tables = true;
    let (mut mapped, mut unmapped) = (0usize, 0usize);
    for b in suite() {
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let recorder = Recorder::new();
            let report = StagedFlow::with_telemetry(&binary, &recorder)
                .cosimulate(&options)
                .unwrap_or_else(|e| panic!("{} {level}: cosimulation failed: {e}", b.name));
            for k in &report.kernels {
                if !k.mapped {
                    unmapped += 1;
                    continue;
                }
                mapped += 1;
                let profile = k
                    .hw_profile
                    .as_ref()
                    .unwrap_or_else(|| panic!("{} {level} {}: no hardware profile", b.name, k.name));
                assert_eq!(
                    profile.analytic.total().max(1),
                    k.hw_cycles_estimated,
                    "{} {level} {}: analytic attribution disagrees with the estimate",
                    b.name,
                    k.name
                );
            }
        }
    }
    assert!(mapped > 0, "no kernel was mapped ({unmapped} unmapped)");
}
