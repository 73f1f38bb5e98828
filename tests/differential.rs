//! Differential verification of the fast simulator against the retained
//! seed engine (`binpart::mips::reference`): over the entire workload
//! suite at every optimization level, `Machine::run` must produce a
//! bit-identical `Exit` — architectural state and `Profile` counts alike.
//! This is the license for every fast-path trick in `binpart::mips::sim`
//! (micro-op lowering, block dispatch, fused control/delay-slot epilogues,
//! superinstruction fusion, the superblock trace cache, the memory TLB,
//! profile reconstruction from block boundary deltas).

use binpart::minicc::OptLevel;
use binpart::mips::reference::ReferenceMachine;
use binpart::mips::sim::{Machine, SimConfig, SimError};
use binpart::workloads::suite;

#[test]
fn superblock_engine_matches_reference_on_whole_suite() {
    // Every benchmark at every level produces a bit-identical Exit: exit
    // reason, registers, cycles, instrs, and the profile (per-instruction
    // counts, branch taken counts, totals) reconstructed from block
    // boundary deltas. This is the license for specialized straight-line
    // trace execution (skipped loop-top checks, fused epilogues, trace
    // chaining) and for feeding the profile's branch bias into the
    // partitioner's measured loop-entry estimates.
    let mut traces_installed = 0u64;
    for b in suite() {
        for level in OptLevel::ALL {
            let tag = format!("{} {level}", b.name);
            let binary = b.compile(level).unwrap();
            let reference = ReferenceMachine::new(&binary)
                .unwrap()
                .run()
                .unwrap_or_else(|e| panic!("{tag}: reference failed: {e}"));
            let mut m = Machine::new(&binary).unwrap();
            let fast = m
                .run()
                .unwrap_or_else(|e| panic!("{tag}: fast engine failed: {e}"));
            assert_eq!(fast, reference, "{tag}");
            assert!(
                fast.profile.taken.iter().any(|&t| t > 0),
                "{tag}: branch bias collected"
            );
            traces_installed += m.trace_cache_stats().traces as u64;
        }
    }
    // Not vacuous: hot paths across the matrix actually got traced.
    assert!(
        traces_installed > 100,
        "only {traces_installed} traces installed across the whole matrix"
    );
}

/// Dispatch boundaries forced at every `stride`-th text slot (none for
/// `stride == 0`). A round never spans a boundary, so this dials the
/// rounds superblocks record and fuse from the natural ones (no extra
/// boundaries) down to none (a boundary at every slot, one op per dispatch
/// round).
fn boundary_pcs(binary: &binpart::mips::Binary, stride: usize) -> Vec<u32> {
    if stride == 0 {
        return Vec::new();
    }
    (0..binary.text.len())
        .step_by(stride)
        .map(|i| binary.text_base + 4 * i as u32)
        .collect()
}

#[test]
fn fast_engine_matches_reference_on_whole_suite_at_every_fusion_level() {
    // No extra boundaries, a boundary at every other slot, and one at
    // every slot: boundaries cut dispatch rounds, and with them the rounds
    // a superblock records and fuses (a boundary at every slot leaves no
    // round to record). Exit and Profile must agree with the reference
    // bit-for-bit however the rounds and traces are cut.
    const LEVELS: [(&str, usize); 3] = [("full", 0), ("partial", 2), ("none", 1)];
    for b in suite() {
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let reference = ReferenceMachine::new(&binary)
                .unwrap()
                .run()
                .unwrap_or_else(|e| panic!("{} {level}: reference failed: {e}", b.name));
            for (fusion, stride) in LEVELS {
                let tag = format!("{} {level} fusion={fusion}", b.name);
                let mut m = Machine::new(&binary).unwrap();
                m.set_dispatch_boundaries(&boundary_pcs(&binary, stride));
                let fast = m
                    .run()
                    .unwrap_or_else(|e| panic!("{tag}: fast engine failed: {e}"));
                assert_eq!(fast.reason, reference.reason, "{tag}: exit reason");
                assert_eq!(fast.regs, reference.regs, "{tag}: register file");
                assert_eq!(fast.cycles, reference.cycles, "{tag}: cycles");
                assert_eq!(fast.instrs, reference.instrs, "{tag}: instrs");
                assert_eq!(fast.profile, reference.profile, "{tag}: profile");
            }
        }
    }
}

#[test]
fn block_count_profiler_is_observationally_exact_on_whole_suite() {
    // `Machine::run` reconstructs per-instruction counts from block
    // boundary deltas alone. The reconstruction must be exact (counts and
    // totals) under the natural block shapes and under blocks cut at
    // every third slot, and self-consistent (counts sum to the total).
    for b in suite() {
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let reference = ReferenceMachine::new(&binary).unwrap().run().unwrap();
            for stride in [0, 3] {
                let tag = format!("{} {level} stride={stride}", b.name);
                let mut m = Machine::new(&binary).unwrap();
                m.set_dispatch_boundaries(&boundary_pcs(&binary, stride));
                let fast = m
                    .run()
                    .unwrap_or_else(|e| panic!("{tag}: blockcount run failed: {e}"));
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
                assert_eq!(
                    fast.profile.counts.iter().sum::<u64>(),
                    fast.profile.total_instrs,
                    "{tag}: counts sum to total"
                );
            }
        }
    }
}

#[test]
fn edge_profiler_is_observationally_exact_on_whole_suite() {
    // Branch-bias (taken) counts must match the reference bit-for-bit at
    // every branch, never exceed the branch's execution count, and be
    // collected at all. This licenses feeding the branch bias into the
    // partitioner's measured loop-entry estimates.
    for b in suite() {
        for level in OptLevel::ALL {
            let tag = format!("{} {level}", b.name);
            let binary = b.compile(level).unwrap();
            let reference = ReferenceMachine::new(&binary).unwrap().run().unwrap();
            let fast = Machine::new(&binary)
                .unwrap()
                .run()
                .unwrap_or_else(|e| panic!("{tag}: edge run failed: {e}"));
            assert_eq!(
                fast.profile.taken, reference.profile.taken,
                "{tag}: branch taken counts"
            );
            for (i, (&t, &c)) in fast
                .profile
                .taken
                .iter()
                .zip(&fast.profile.counts)
                .enumerate()
            {
                assert!(t <= c, "{tag}: slot {i} taken {t} > executed {c}");
                let pc = binary.text_base + 4 * i as u32;
                assert_eq!(fast.profile.taken_at(pc), t, "{tag}: taken_at {pc:#x}");
            }
            assert!(
                fast.profile.taken.iter().any(|&t| t > 0),
                "{tag}: bias collected"
            );
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
    for max_steps in [1, 2, 3, 7, 100, 101, 102, 103, 1000, 12345] {
        let config = SimConfig {
            max_steps,
            ..SimConfig::default()
        };
        let tag = format!("at {max_steps}");
        let fast = Machine::with_config(&binary, config).unwrap().run();
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
    let fast = Machine::new(&binary).unwrap().run().unwrap_err();
    assert_eq!(fast, reference);
    assert!(matches!(fast, SimError::Unaligned { addr: 6, .. }));
}

#[test]
fn fused_memory_idioms_fault_with_exact_pc() {
    use binpart::mips::{Asm, BinaryBuilder, Reg};
    // sll/addu/lw triple whose load lands on an unaligned address: the
    // fault pc must point at the *lw* (last constituent), not the fused
    // op's first slot.
    let mut a = Asm::new();
    a.li(Reg::T1, 1); // index 1
    a.li(Reg::T2, 2); // "base" 2 → addr = (1 << 2) + 2 = 6, unaligned
    a.sll(Reg::T3, Reg::T1, 2);
    a.addu(Reg::T3, Reg::T2, Reg::T3);
    a.lw(Reg::V0, 0, Reg::T3);
    a.jr(Reg::Ra);
    a.nop();
    let binary = BinaryBuilder::new().text(a.finish().unwrap()).build();
    let mut reference = ReferenceMachine::new(&binary).unwrap();
    let ref_err = reference.run().unwrap_err();
    let mut machine = Machine::new(&binary).unwrap();
    let fast = machine.run().unwrap_err();
    assert_eq!(fast, ref_err);
    assert!(matches!(fast, SimError::Unaligned { addr: 6, .. }));
    // Partial profiles agree too (the faulting op is counted).
    assert_eq!(machine.profile(), reference.profile(), "partial profile");
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
    let mut reference = ReferenceMachine::new(&binary).unwrap();
    let ref_err = reference.run().unwrap_err();
    assert!(matches!(ref_err, SimError::Unaligned { addr: 2, .. }));
    let mut machine = Machine::new(&binary).unwrap();
    let fast = machine.run().unwrap_err();
    assert_eq!(fast, ref_err);
    assert_eq!(machine.profile(), reference.profile(), "partial profile");
    // The loop really was running as a superblock when it faulted.
    let stats = machine.trace_cache_stats();
    assert!(
        stats.traces > 0 && stats.superblock_instrs > 0,
        "loop never got traced ({stats:?})"
    );
}
