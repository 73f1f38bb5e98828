//! Differential verification of the fast simulation engines against the
//! retained seed engine (`binpart::mips::reference`): over the entire
//! workload suite at every optimization level, every `Engine` must produce
//! bit-identical architectural results (`Exit`) and identical `Profile`
//! counts. This is the license for every fast-path trick in
//! `binpart::mips::sim` (micro-op lowering, block dispatch, fused
//! control/delay-slot epilogues, superinstruction fusion, the superblock
//! trace cache, the memory TLB) and for the pay-as-you-go
//! `BlockCountProfiler`.

use binpart::minicc::OptLevel;
use binpart::mips::reference::ReferenceMachine;
use binpart::mips::sim::{BlockCountProfiler, Engine, Machine, SimConfig, SimError};
use binpart::workloads::suite;

const ENGINES: [Engine; 3] = [Engine::Unfused, Engine::Fused, Engine::Superblock];

fn machine(binary: &binpart::mips::Binary, engine: Engine) -> Machine {
    Machine::with_engine(binary, SimConfig::default(), engine).unwrap()
}

#[test]
fn fast_engine_matches_reference_on_whole_suite_at_every_fusion_level() {
    // The two block-dispatch engines: plain and fused streams (the
    // superblock engine has its own test below).
    for b in suite() {
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let reference = ReferenceMachine::new(&binary)
                .unwrap()
                .run()
                .unwrap_or_else(|e| panic!("{} {level}: reference failed: {e}", b.name));
            for engine in [Engine::Unfused, Engine::Fused] {
                let tag = format!("{} {level} {engine:?}", b.name);
                let fast = machine(&binary, engine)
                    .run()
                    .unwrap_or_else(|e| panic!("{tag}: fast engine failed: {e}"));
                assert_eq!(fast.reason, reference.reason, "{tag}: exit reason");
                assert_eq!(fast.regs, reference.regs, "{tag}: register file");
                assert_eq!(fast.cycles, reference.cycles, "{tag}: cycles");
                assert_eq!(fast.instrs, reference.instrs, "{tag}: instrs");
                // Full profile equality: per-instruction counts, branch
                // taken counts, call counts, loads/stores, totals.
                assert_eq!(fast.profile, reference.profile, "{tag}: profile");
            }
        }
    }
}

#[test]
fn superblock_engine_matches_reference_on_whole_suite() {
    // The trace-cache/threaded-code backend — the engine `Machine::new`
    // runs — must be observationally invisible: every benchmark at every
    // level still produces bit-identical Exit and Profile. This is the
    // license for specialized straight-line trace execution (skipped
    // loop-top checks, fused epilogues, trace chaining).
    let mut traces_installed = 0u64;
    for b in suite() {
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let reference = ReferenceMachine::new(&binary)
                .unwrap()
                .run()
                .unwrap_or_else(|e| panic!("{} {level}: reference failed: {e}", b.name));
            let tag = format!("{} {level} superblock", b.name);
            let mut m = machine(&binary, Engine::Superblock);
            let fast = m
                .run()
                .unwrap_or_else(|e| panic!("{tag}: superblock engine failed: {e}"));
            assert_eq!(fast.reason, reference.reason, "{tag}: exit reason");
            assert_eq!(fast.regs, reference.regs, "{tag}: register file");
            assert_eq!(fast.cycles, reference.cycles, "{tag}: cycles");
            assert_eq!(fast.instrs, reference.instrs, "{tag}: instrs");
            assert_eq!(fast.profile, reference.profile, "{tag}: profile");
            traces_installed += m.trace_cache_stats().traces as u64;
        }
    }
    // Not vacuous: hot paths across the matrix actually got traced.
    assert!(
        traces_installed > 100,
        "only {traces_installed} traces installed across the whole matrix"
    );
}

#[test]
fn block_count_profiler_is_observationally_exact_on_whole_suite() {
    // The cheap profiler must reconstruct *exact* per-instruction counts
    // (and totals) from block boundary deltas alone, under every engine —
    // it only forgoes
    // taken/call/load/store attribution.
    for b in suite() {
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let reference = ReferenceMachine::new(&binary).unwrap().run().unwrap();
            for engine in ENGINES {
                let tag = format!("{} {level} {engine:?}", b.name);
                let mut prof = BlockCountProfiler::new();
                let fast = machine(&binary, engine)
                    .run_with(&mut prof)
                    .unwrap_or_else(|e| panic!("{tag}: blockcount run failed: {e}"));
                assert_eq!(fast.reason, reference.reason, "{tag}: exit reason");
                assert_eq!(fast.regs, reference.regs, "{tag}: register file");
                assert_eq!(fast.cycles, reference.cycles, "{tag}: cycles");
                assert_eq!(fast.instrs, reference.instrs, "{tag}: instrs");
                assert_eq!(
                    fast.profile.counts, reference.profile.counts,
                    "{tag}: per-instruction counts"
                );
                assert_eq!(
                    fast.profile.total_instrs, reference.profile.total_instrs,
                    "{tag}: total instrs"
                );
                assert_eq!(
                    fast.profile.total_cycles, reference.profile.total_cycles,
                    "{tag}: total cycles"
                );
            }
        }
    }
}

#[test]
fn edge_profiler_is_observationally_exact_on_whole_suite() {
    // The edge profiler adds exact branch-bias (taken) counts on top of
    // the block-count scheme — counts *and* taken must match the full
    // reference profile bit-for-bit under every engine; only call
    // edges and load/store totals are forgone. This licenses feeding its
    // branch bias into the partitioner's measured loop-entry estimates.
    use binpart::mips::sim::EdgeProfiler;
    for b in suite() {
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let reference = ReferenceMachine::new(&binary).unwrap().run().unwrap();
            for engine in ENGINES {
                let tag = format!("{} {level} {engine:?}", b.name);
                let mut prof = EdgeProfiler::new();
                let fast = machine(&binary, engine)
                    .run_with(&mut prof)
                    .unwrap_or_else(|e| panic!("{tag}: edge run failed: {e}"));
                assert_eq!(fast.regs, reference.regs, "{tag}: register file");
                assert_eq!(
                    fast.profile.counts, reference.profile.counts,
                    "{tag}: per-instruction counts"
                );
                assert_eq!(
                    fast.profile.taken, reference.profile.taken,
                    "{tag}: branch taken counts"
                );
                assert!(fast.profile.has_taken_data(), "{tag}: bias collected");
            }
        }
    }
}

#[test]
fn unprofiled_run_matches_reference_architectural_state() {
    for b in suite().into_iter().take(6) {
        let binary = b.compile(OptLevel::O1).unwrap();
        let fast = Machine::new(&binary).unwrap().run_unprofiled().unwrap();
        let reference = ReferenceMachine::new(&binary).unwrap().run().unwrap();
        assert_eq!(fast.regs, reference.regs, "{}", b.name);
        assert_eq!(fast.cycles, reference.cycles, "{}", b.name);
        assert_eq!(fast.instrs, reference.instrs, "{}", b.name);
        assert_eq!(fast.reason, reference.reason, "{}", b.name);
    }
}

#[test]
fn engines_agree_on_step_limit_boundary() {
    // MaxSteps must fire at exactly the same instruction in both engines,
    // including mid-block, around fused control/delay-slot pairs, in the
    // middle of a superinstruction (which must fall back to per-op
    // retirement at the budget boundary), and mid-superblock (where the
    // trace must bail to the dispatcher rather than overrun the budget).
    let b = suite().into_iter().find(|b| b.name == "crc").unwrap();
    let binary = b.compile(OptLevel::O1).unwrap();
    for engine in ENGINES {
        for max_steps in [1, 2, 3, 7, 100, 101, 102, 103, 1000, 12345] {
            let config = SimConfig {
                max_steps,
                ..SimConfig::default()
            };
            let tag = format!("at {max_steps} {engine:?}");
            let fast = Machine::with_engine(&binary, config, engine).unwrap().run();
            let reference = ReferenceMachine::with_config(&binary, config)
                .unwrap()
                .run();
            match (&fast, &reference) {
                (
                    Err(SimError::MaxStepsExceeded { limit: a }),
                    Err(SimError::MaxStepsExceeded { limit: b }),
                ) => {
                    assert_eq!(a, b, "{tag}")
                }
                (Ok(x), Ok(y)) => assert_eq!(x.regs, y.regs, "{tag}"),
                _ => panic!("divergent outcome {tag}: {fast:?} vs {reference:?}"),
            }
        }
    }
}

#[test]
fn engines_agree_on_alignment_faults() {
    use binpart::mips::{Asm, BinaryBuilder, Reg};
    // lw from an odd address inside a straight-line run: both engines must
    // fault with the same error and identical partial profiles.
    let mut a = Asm::new();
    a.li(Reg::T0, 6);
    a.li(Reg::T1, 1);
    a.li(Reg::T2, 2);
    a.lw(Reg::V0, 0, Reg::T0); // faults: addr 6 unaligned for a word
    a.jr(Reg::Ra);
    a.nop();
    let binary = BinaryBuilder::new().text(a.finish().unwrap()).build();
    let reference = ReferenceMachine::new(&binary).unwrap().run().unwrap_err();
    for engine in ENGINES {
        let fast = machine(&binary, engine).run().unwrap_err();
        assert_eq!(fast, reference, "{engine:?}");
        assert!(matches!(fast, SimError::Unaligned { addr: 6, .. }));
    }
}

#[test]
fn fused_memory_idioms_fault_with_exact_pc() {
    use binpart::mips::{Asm, BinaryBuilder, Reg};
    // sll/addu/lw triple whose load lands on an unaligned address: the
    // fault pc must point at the *lw* (last constituent), not the fused
    // op's first slot, in every engine.
    let mut a = Asm::new();
    a.li(Reg::T1, 1); // index 1
    a.li(Reg::T2, 2); // "base" 2 → addr = (1 << 2) + 2 = 6, unaligned
    a.sll(Reg::T3, Reg::T1, 2);
    a.addu(Reg::T3, Reg::T2, Reg::T3);
    a.lw(Reg::V0, 0, Reg::T3);
    a.jr(Reg::Ra);
    a.nop();
    let binary = BinaryBuilder::new().text(a.finish().unwrap()).build();
    let reference = ReferenceMachine::new(&binary).unwrap().run().unwrap_err();
    for engine in ENGINES {
        let mut machine = machine(&binary, engine);
        let fast = machine.run().unwrap_err();
        assert_eq!(fast, reference, "{engine:?}");
        assert!(matches!(fast, SimError::Unaligned { addr: 6, .. }));
        // Partial profiles agree too (the faulting op is counted).
        let r2 = {
            let mut m = ReferenceMachine::new(&binary).unwrap();
            let _ = m.run();
            m.profile().clone()
        };
        assert_eq!(machine.profile(), &r2, "{engine:?}: partial profile");
    }
}

#[test]
fn superblock_faults_mid_trace_with_exact_pc_and_profile() {
    use binpart::mips::{Asm, BinaryBuilder, Reg};
    // A loop that runs far past the trace-cache heat threshold with
    // aligned loads, then computes an unaligned address on its final
    // iteration: the fault fires *inside* an installed superblock, and the
    // error (pc, addr) and the partial profile must still match the
    // reference interpreter bit-for-bit.
    let mut a = Asm::new();
    let top = a.new_label();
    a.li(Reg::T1, 40);
    a.bind(top);
    a.sltiu(Reg::T2, Reg::T1, 1); // 1 only on the last pass (T1 == 0)
    a.sll(Reg::T2, Reg::T2, 1); // 0 aligned, 2 unaligned
    a.lw(Reg::V0, 0, Reg::T2); // faults at addr 2 on the last pass
    a.addiu(Reg::T1, Reg::T1, -1);
    a.bgez(Reg::T1, top);
    a.nop();
    a.jr(Reg::Ra);
    a.nop();
    let binary = BinaryBuilder::new().text(a.finish().unwrap()).build();
    let reference = ReferenceMachine::new(&binary).unwrap().run().unwrap_err();
    let ref_profile = {
        let mut m = ReferenceMachine::new(&binary).unwrap();
        let _ = m.run();
        m.profile().clone()
    };
    assert!(matches!(reference, SimError::Unaligned { addr: 2, .. }));
    let mut machine = machine(&binary, Engine::Superblock);
    let fast = machine.run().unwrap_err();
    assert_eq!(fast, reference);
    assert_eq!(machine.profile(), &ref_profile, "partial profile");
    // The loop really was running as a superblock when it faulted.
    let stats = machine.trace_cache_stats();
    assert!(
        stats.traces > 0 && stats.superblock_instrs > 0,
        "loop never got traced ({stats:?})"
    );
}
