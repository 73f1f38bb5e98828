//! Decompilation-based hardware/software partitioning — the primary
//! contribution of Stitt & Vahid's DATE'05 paper, reimplemented as a
//! library.
//!
//! Given a MIPS software [`binpart_mips::Binary`] produced by *any*
//! compiler, the flow:
//!
//! 1. profiles it on the instruction-set simulator,
//! 2. **decompiles** it — binary parsing and CDFG creation ([`lift`]),
//!    then the decompiler optimizations: constant propagation
//!    (register-move overhead removal), stack operation removal, operator
//!    size reduction, strength promotion, and loop rerolling ([`opts`]),
//!    then control structure recovery
//!    ([`binpart_cdfg::structure`]) — all driven by
//!    [`decompile()`](decompile::decompile),
//! 3. partitions it with the three-step 90-10 heuristic using profile and
//!    alias information ([`partition`], [`alias`]),
//! 4. synthesizes the selected kernels with a Virtex-II area model
//!    (`binpart-synth`; RTL VHDL is rendered on demand by
//!    `FlowReport::vhdl`), and
//! 5. reports hybrid speedup and energy savings (`binpart-platform`).
//!
//! [`stage::StagedFlow`] drives the whole pipeline, with each stage's
//! artifact cached; a one-shot run is
//! `StagedFlow::new(&binary).run(&options)`.
//!
//! # Module map
//!
//! | file | role | entry point |
//! |---|---|---|
//! | `lift.rs` | binary parsing and CDFG creation | [`lift::lift_program`] |
//! | `decompile.rs` | the decompiler: lift, SSA, the passes in order, structure statistics | [`decompile::decompile`] |
//! | `opts/mod.rs` | the decompiler optimizations' counters and entry points | [`PassStats`] |
//! | `opts/const_prop.rs` | constant propagation, with dead-code elimination | [`opts::const_copy_prop`], [`opts::dce`] |
//! | `opts/stack_ops.rs` | stack operation removal | [`opts::stack_op_removal`] |
//! | `opts/size_reduction.rs` | operator size reduction | [`opts::size_reduction`] |
//! | `opts/strength_promotion.rs` | strength promotion | [`opts::strength_promotion`] |
//! | `opts/reroll.rs` | loop rerolling | [`opts::loop_reroll`] |
//! | `alias.rs` | the memory regions a loop touches (partitioning step 2) | [`alias::summarize`] |
//! | `partition.rs` | the three-step 90-10 partitioning heuristic | [`harvest_candidates`], [`partition_with_candidates`] |
//! | `stage.rs` | the staged, memoized pipeline that runs the whole flow | [`StagedFlow`] |
//! | `cosim.rs` | cycle-accurate co-simulation of the partitioned program | [`StagedFlow::cosimulate`] |
//! | `flow.rs` | the flow's options, report and error rollup | [`FlowOptions`], [`FlowReport`], [`FlowError`] |
//! | `diag.rs` | per-region degradation records | [`Diagnostic`] |
//!
//! # Failure policy
//!
//! The flow is **panic-free on foreign input**: every stage returns a typed
//! error, rolled up into [`FlowError`] —
//!
//! * [`lift::LiftError`] — undecodable words, indirect jumps without
//!   recovery, flow leaving `.text`, malformed control structure;
//! * [`lift::DecompileError`] — a lift failure or an optimizer *fuel* trip
//!   (every decompiler fixpoint carries a termination budget);
//! * `binpart_synth::SynthError` — scheduling/binding rejections;
//! * [`cosim::CosimError`] — accelerator packaging or hybrid-run failures;
//! * `binpart_mips::sim::SimError` — software faults and the simulator's
//!   step watchdog ([`binpart_mips::sim::SimConfig::max_steps`]).
//!
//! Failures split into two classes:
//!
//! * **Whole-flow failures** abort with `Err(FlowError)`: the software
//!   reference run faults, or the *entry* function cannot be recovered.
//! * **Per-region failures** degrade: with
//!   [`DecompileOptions::software_fallback`] enabled, a non-entry function
//!   that fails lift or optimization is dropped back to software-only, and
//!   a kernel that fails synthesis, accelerator packaging, or diverges in
//!   co-simulation is rejected from the partition. Each rejection is
//!   recorded as a [`Diagnostic`] naming the region and the failing
//!   [`FlowStage`], collected on [`FlowReport::diagnostics`] /
//!   [`StagedReport::diagnostics`]. The rest of the partition proceeds.
//!
//! `software_fallback` defaults to **off** so that decompilation failures
//! remain observable whole-program outcomes, matching the paper's
//! benchmark evidence (2 of 20 benchmarks fail on jump tables).
//!
//! Transient errors — budget/fuel trips that a bigger budget could clear —
//! answer `true` from [`FlowError::is_transient`]; [`stage::StagedFlow`]
//! refuses to latch them in its memo caches, so a rerun with a raised
//! budget recomputes. Deterministic failures stay cached.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod alias;
pub mod cosim;
pub mod decompile;
pub mod diag;
pub mod flow;
pub mod lift;
pub mod opts;
pub mod partition;
pub mod stage;

pub use binpart_hwsim::{BusTxn, HwAttribution, HwProfile};
pub use cosim::{CosimError, CosimReport, KernelCosim};
pub use decompile::{attach_profile, decompile, DecompileStats, DecompiledProgram};
pub use diag::{Diagnostic, FlowStage};
pub use flow::{FlowError, FlowOptions, FlowReport};
pub use lift::{DecompileError, DecompileOptions, LiftError, SkippedFunction};
pub use opts::PassStats;
pub use partition::{
    harvest_candidates, partition_with_candidates, Candidate, CandidateSet, Decision, Partition,
    PartitionOptions, SelectedKernel,
};
pub use stage::{EstimatedProgram, StagedFlow, StagedReport};
