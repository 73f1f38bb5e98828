//! The decompiler computes each function's loop forest once and hands it
//! from pass to pass and on to the partitioner; it runs the second
//! constant propagation only where strength promotion or loop rerolling
//! changed the function. Over all 80 (benchmark, OptLevel) cells, these
//! tests check that the handed-over forest equals a fresh computation and
//! that the skipped propagation would have changed nothing.

use binpart::cdfg::loops::LoopForest;
use binpart::cdfg::ssa;
use binpart::core::lift::lift_program;
use binpart::core::{decompile, opts, DecompileOptions, PassStats};
use binpart::minicc::OptLevel;
use binpart::workloads::suite;

fn options() -> DecompileOptions {
    DecompileOptions {
        recover_jump_tables: true,
        ..Default::default()
    }
}

#[test]
fn handed_over_forests_equal_fresh_ones() {
    let mut functions = 0;
    for b in suite() {
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let prog = decompile(&binary, options()).unwrap();
            assert_eq!(prog.forests.len(), prog.functions.len());
            for (f, forest) in prog.functions.iter().zip(prog.forests.iter()) {
                assert!(
                    *forest == LoopForest::compute(f),
                    "{} {level} {}: the kept forest differs from a fresh one",
                    b.name,
                    f.name
                );
                functions += 1;
            }
        }
    }
    assert!(functions >= 80, "only {functions} functions decompiled");
}

/// Replays `decompile`'s passes up to the second constant propagation;
/// wherever strength promotion and loop rerolling changed nothing, that
/// propagation must leave the function and every counter unchanged.
#[test]
fn second_const_prop_has_no_work_where_it_is_skipped() {
    let (mut skipped, mut ran) = (0, 0);
    for b in suite() {
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let lifted = lift_program(&binary, options()).unwrap();
            for mut f in lifted.functions {
                let mut stats = PassStats::default();
                opts::stack_op_removal(&mut f, &mut stats);
                ssa::construct(&mut f);
                opts::const_copy_prop(&mut f, &mut stats).unwrap();
                let forest = LoopForest::compute(&f);
                let promoted = opts::strength_promotion(&mut f, &mut stats);
                let rerolled = opts::loop_reroll(&mut f, &forest, &mut stats).unwrap();
                if promoted || rerolled {
                    ran += 1;
                    continue;
                }
                skipped += 1;
                let mut again = f.clone();
                let mut again_stats = stats;
                let cfg_changed = opts::const_copy_prop(&mut again, &mut again_stats).unwrap();
                let cell = format!("{} {level} {}", b.name, f.name);
                assert!(
                    !cfg_changed,
                    "{cell}: the skipped propagation changes the CFG"
                );
                assert_eq!(
                    again_stats, stats,
                    "{cell}: the skipped propagation counts work"
                );
                assert!(
                    again == f,
                    "{cell}: the skipped propagation rewrites the function"
                );
            }
        }
    }
    assert!(skipped > 0 && ran > 0, "skipped {skipped}, ran {ran}");
}
