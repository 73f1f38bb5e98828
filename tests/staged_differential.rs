//! Differential verification of the optimized paths against their
//! reference counterparts:
//!
//! * cache reuse in the staged flow (`binpart::core::stage::StagedFlow`):
//!   one flow evaluated at many option points, its profile, CDFG and
//!   synthesis memo warm from the earlier points, vs a fresh flow per
//!   point — identical `HybridReport` and `Partition` across the
//!   benchmark × OptLevel matrix;
//! * an instrumented flow (live telemetry recorder) vs the uninstrumented
//!   one — bit-identical profiles and evaluations;
//! * the dense (index/bitset-based) SSA construction vs the retained
//!   map-based oracle (`ssa::reference_construct`) — identical functions
//!   (same phi placement, same SSA names), identical live-ins, identical
//!   live-in/live-out sets from the bitset liveness.

use binpart::cdfg::dataflow::Liveness;
use binpart::cdfg::ssa;
use binpart::core::flow::FlowOptions;
use binpart::core::lift;
use binpart::core::stage::StagedFlow;
use binpart::core::{DecompileOptions, PassStats};
use binpart::minicc::OptLevel;
use binpart::platform::Platform;
use binpart::workloads::suite;

/// A flow shared across all six clock × budget points must evaluate each
/// point bit-identically to a fresh flow built for that point alone, for
/// every (benchmark, OptLevel) cell, including the cells where CDFG
/// recovery fails. This guards the reuse of profiles, CDFGs and the
/// synthesis memo across points.
#[test]
fn staged_flow_matches_monolithic_flow_across_matrix() {
    for b in suite() {
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let shared = StagedFlow::new(&binary);
            for clock in [40e6, 200e6, 400e6] {
                for budget in [15_000u64, 250_000] {
                    let mut options = FlowOptions {
                        platform: Platform::mips_virtex2(clock),
                        ..Default::default()
                    };
                    options.decompile.recover_jump_tables = true;
                    options.partition.area_budget_gates = budget;
                    let tag = format!("{} {level} @{clock}Hz/{budget}", b.name);
                    let fresh = StagedFlow::new(&binary).evaluate(&options);
                    let reused = shared.evaluate(&options);
                    // Debug output covers every field of the report (or
                    // the error), and prints each f64 round-trip exact.
                    assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "{tag}");
                }
            }
        }
    }
}

/// The telemetry overhead gate, correctness leg: with a live recorder
/// attached, every observable artifact — the software `Exit` (profile +
/// cycles) and the full evaluation — must be bit-identical to the
/// uninstrumented `NullTelemetry` flow across the whole suite matrix.
/// Telemetry may *observe* the flow; it may never perturb it.
#[test]
fn telemetry_instrumented_flow_is_bit_identical_suite_wide() {
    use binpart::telemetry::{Counter, Recorder};
    let recorder = Recorder::new();
    let mut cells = 0usize;
    for b in suite() {
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let mut options = FlowOptions::default();
            options.decompile.recover_jump_tables = true;
            // Superblocks on: the trace-cache counter harvest is the one
            // telemetry path that touches simulator state accessors.
            options.sim.superblocks = true;
            let plain = StagedFlow::new(&binary);
            let instrumented = StagedFlow::with_telemetry(&binary, &recorder);
            let tag = format!("{} {level}", b.name);

            let exit_plain = plain.profile(options.sim).unwrap();
            let exit_inst = instrumented.profile(options.sim).unwrap();
            assert_eq!(exit_plain.cycles, exit_inst.cycles, "{tag}: cycles");
            assert_eq!(exit_plain.instrs, exit_inst.instrs, "{tag}: instrs");
            assert_eq!(exit_plain.regs, exit_inst.regs, "{tag}: registers");
            assert_eq!(exit_plain.profile, exit_inst.profile, "{tag}: profile");

            let (p, i) = (plain.evaluate(&options), instrumented.evaluate(&options));
            assert_eq!(format!("{p:?}"), format!("{i:?}"), "{tag}: evaluation");
            cells += 1;
        }
    }
    assert_eq!(cells, 80, "matrix should cover the suite");
    // The recorder actually observed the pass: every cell missed its
    // profile slot exactly once, and the superblock engine reported in.
    assert_eq!(recorder.counter_total(Counter::ProfileStageMiss), 80);
    assert!(recorder.counter_total(Counter::TracePasses) > 0);
}

/// The dense SSA construction must produce *bit-identical* functions to
/// the retained map-based oracle — same phi placement and argument order,
/// same fresh-name numbering, same recovered live-ins — and the bitset
/// liveness over both must agree, on every function of the suite matrix.
#[test]
fn dense_ssa_matches_reference_oracle_on_suite() {
    let opts = DecompileOptions {
        recover_jump_tables: true,
        ..Default::default()
    };
    let mut functions_checked = 0usize;
    for b in suite() {
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let lifted = match lift::lift_program(&binary, opts) {
                Ok(l) => l,
                Err(e) => panic!("{} {level}: lift failed: {e}", b.name),
            };
            for f in lifted.functions {
                // The pipeline runs stack-op removal pre-SSA; mirror it so
                // the oracle sees the same input shapes.
                let mut pre = f.clone();
                let mut stats = PassStats::default();
                binpart::core::opts::stack_op_removal(&mut pre, &mut stats);
                let mut dense = pre.clone();
                let mut reference = pre;
                let info_dense = ssa::construct(&mut dense);
                let info_ref = ssa::reference_construct(&mut reference);
                let tag = format!("{} {level} fn {}", b.name, dense.name);
                assert_eq!(
                    info_dense.live_ins, info_ref.live_ins,
                    "{tag}: live-ins differ"
                );
                assert_eq!(
                    format!("{dense}"),
                    format!("{reference}"),
                    "{tag}: SSA functions differ"
                );
                ssa::verify(&dense).unwrap_or_else(|e| panic!("{tag}: {e}"));
                // Liveness over both must agree set-for-set.
                let ld = Liveness::compute(&dense);
                let lr = Liveness::compute(&reference);
                for bi in dense.block_ids() {
                    assert_eq!(
                        ld.live_in[bi.index()], lr.live_in[bi.index()],
                        "{tag}: live-in at {bi:?}"
                    );
                    assert_eq!(
                        ld.live_out[bi.index()], lr.live_out[bi.index()],
                        "{tag}: live-out at {bi:?}"
                    );
                }
                functions_checked += 1;
            }
        }
    }
    assert!(
        functions_checked >= 80,
        "matrix should cover the suite ({functions_checked} functions)"
    );
}
