//! Cycle-accurate FSMD co-simulation of synthesized kernels.
//!
//! `binpart-synth` *estimates* a kernel's hardware cycles analytically from
//! its schedule and block counts. This crate **executes** the same
//! scheduled, bound datapath: a finite-state-machine-with-datapath
//! executor ([`Fsmd`]) steps through the kernel's control steps
//! (state-per-step, chained ops sharing a step, multi-cycle units
//! registering their results), runs pipelined innermost loops at their
//! computed initiation interval, and performs loads/stores against a shared
//! memory model — producing both the kernel's *architectural effects*
//! (values, store sequence) and its *measured* cycle count.
//!
//! [`Fsmd::compile`] lowers each region once into a dense program — block
//! slices of micro-ops over register-file slots, per-block timing, phi
//! copies resolved per CFG edge — so execution is one dispatch per step,
//! the way `binpart_mips::sim` pre-decodes machine code. It lowers from the
//! [`binpart_synth::KernelSchedule`] synthesis kept: this crate schedules
//! nothing and analyzes no loops itself.
//!
//! [`KernelAccel`] packages an [`Fsmd`] as a
//! [`binpart_mips::hybrid::Accelerator`]: it binds the region's SSA
//! live-ins to CPU architectural state at region entry (constants from the
//! decompiled CDFG, machine registers via instruction provenance), executes
//! the FSMD against a page-granular copy-on-write overlay of the CPU's
//! memory ([`OverlayBus`]), and returns the cycle count plus the exact
//! store log for the hybrid machine's per-invocation HW/SW differential.
//!
//! The executor's timing model is
//! [`binpart_synth::schedule::estimate_kernel_cycles`]'s, read from the same
//! tables (the same block schedules, the same pipelined loops at the same
//! `II = max(ResMII, RecMII)`), but it replaces every profile-derived count
//! with the dynamically observed one — so the difference between measured
//! and analytic cycles isolates exactly the estimator's count/trip
//! assumptions. `binpart_core`'s
//! `StagedFlow::cosimulate` reports that error per kernel.
//!
//! The [`hwtel`] module adds the hardware observability layer: a
//! monomorphized [`HwTelemetry`] trait (the [`NullHwTelemetry`] default
//! compiles every probe away; under [`HwRecorder`] the executor counts
//! state entries, pipelined-loop entries and the last bus transactions,
//! and keeps the raw wave of the first invocation) surfaced per kernel as
//! [`HwProfile`], whose occupancy, cycle attribution and bus totals are
//! derived from those counts and which renders the wave as VCD on demand.
//! See the module docs for the count → commit-or-abort → derive
//! lifecycle.
//!
//! | file | role | entry point |
//! |---|---|---|
//! | `fsmd.rs` | the FSMD executor: lower a scheduled region once, run it step by step on a copy-on-write bus | [`Fsmd::compile`], [`Fsmd::execute`], [`OverlayBus`] |
//! | `accel.rs` | bind an FSMD's live-ins to CPU state and serve it to the hybrid machine | [`KernelAccel::compile`], [`KernelSet`] |
//! | `hwtel.rs` | hardware telemetry: the sink trait, the counting recorder, the profile, VCD, post-mortem | [`HwTelemetry`], [`HwRecorder::into_profile`], [`HwProfile::vcd`] |

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod accel;
pub mod fsmd;
pub mod hwtel;

pub use accel::{AccelBuildError, KernelAccel, KernelSet, LiveInSource};
pub use fsmd::{Fsmd, FsmdError, FsmdRun, OverlayBus};
pub use hwtel::{
    clear_post_mortem, post_mortem_context, BusTxn, HwAttribution, HwCounts, HwProfile, HwRecorder,
    HwTelemetry, NullHwTelemetry,
};

/// An empty block-count table, for tests that read no analytic
/// attribution.
#[cfg(test)]
static NO_COUNTS: std::sync::LazyLock<binpart_cdfg::ir::BlockCounts> =
    std::sync::LazyLock::new(Default::default);

/// The schedule synthesis prices `region` of `f` from, at the default
/// budget and library with arrays in block RAM.
#[cfg(test)]
fn schedule(
    f: &binpart_cdfg::ir::Function,
    region: &[binpart_cdfg::ir::BlockId],
) -> binpart_synth::KernelSchedule {
    use binpart_synth::{ResourceBudget, TechLibrary};
    let forest = binpart_cdfg::loops::LoopForest::compute(f);
    let (library, budget) = (TechLibrary::virtex2(), ResourceBudget::default());
    binpart_synth::schedule::schedule_kernel(f, &forest, region, &library, &budget, true)
}
