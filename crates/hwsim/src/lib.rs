//! Cycle-accurate FSMD co-simulation of synthesized kernels.
//!
//! `binpart-synth` *estimates* a kernel's hardware cycles analytically from
//! its schedule and profile counts. This crate **executes** the same
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
//! the way `binpart_mips::sim` pre-decodes machine code.
//!
//! [`KernelAccel`] packages an [`Fsmd`] as a
//! [`binpart_mips::hybrid::Accelerator`]: it binds the region's SSA
//! live-ins to CPU architectural state at region entry (constants from the
//! decompiled CDFG, machine registers via instruction provenance), executes
//! the FSMD against a page-granular copy-on-write overlay of the CPU's
//! memory ([`OverlayBus`]), and returns the cycle count plus the exact
//! store log for the hybrid machine's per-invocation HW/SW differential.
//!
//! The executor's timing model mirrors
//! [`binpart_synth::schedule::estimate_kernel_cycles`] *structurally*
//! (same block schedules, same `II = max(ResMII, RecMII)` pipelining), but
//! replaces every profile-derived count with the dynamically observed one —
//! so the difference between measured and analytic cycles isolates exactly
//! the estimator's count/trip assumptions. `binpart_core`'s
//! `StagedFlow::cosimulate` reports that error per kernel.
//!
//! The [`hwtel`] module adds the hardware observability layer: a
//! monomorphized [`HwTelemetry`] trait (the [`NullHwTelemetry`] default
//! compiles every probe away; [`HwRecorder`] records per-state occupancy,
//! per-category cycle attribution, a bus transaction log, and the raw wave
//! of the first invocation) surfaced per kernel as [`HwProfile`], which
//! renders that wave as VCD on demand. See the
//! module docs for the begin → state/charge/bus → commit-or-abort
//! lifecycle.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod accel;
pub mod fsmd;
pub mod hwtel;

pub use accel::{AccelBuildError, KernelAccel, KernelSet, LiveInSource};
pub use fsmd::{Fsmd, FsmdError, FsmdRun, OverlayBus};
pub use hwtel::{
    clear_post_mortem, post_mortem_context, BusTxn, HwAttr, HwAttribution,
    HwProfile, HwRecorder, HwTelemetry, NullHwTelemetry,
};
