//! # binpart — decompilation-based hardware/software partitioning
//!
//! A reproduction of Stitt & Vahid, *"A Decompilation Approach to
//! Partitioning Software for Microprocessor/FPGA Platforms"* (DATE 2005),
//! as a complete Rust workspace. This umbrella crate re-exports every
//! subsystem:
//!
//! * [`mips`] — MIPS-I ISA model, assembler, binary format, profiling
//!   simulator;
//! * [`minicc`] — a mini-C compiler with gcc-like `-O0..-O3` pipelines
//!   (stands in for "any software compiler");
//! * [`cdfg`] — the control/data-flow-graph IR with SSA, dominators, loops,
//!   and structural analysis;
//! * [`core`] — the paper's contribution: the decompiler (CDFG recovery +
//!   the five decompiler optimizations) and the 90-10 partitioner, driven
//!   by the staged, memoized [`core::stage::StagedFlow`];
//! * [`synth`] — behavioral synthesis to VHDL with a Virtex-II area/clock
//!   model, with per-kernel estimate caching;
//! * [`hwsim`] — cycle-accurate FSMD co-simulation: executes the
//!   scheduled datapaths [`synth`] produces, for measured (not modeled)
//!   hardware cycles and per-invocation architectural verification
//!   ([`core::stage::StagedFlow::cosimulate`]);
//! * [`explore`] — design-space exploration: grid sweeps over the staged
//!   flow ([`core::stage`]) with Pareto-frontier extraction;
//! * [`partition`] — baseline partitioners (knapsack, GCLP, annealing);
//! * [`platform`] — processor/FPGA/energy models;
//! * [`telemetry`] — zero-cost-when-off observability: spans, counters,
//!   Chrome-trace and flamegraph export, threaded through the staged
//!   flow, the superblock engine, co-simulation, and sweeps;
//! * [`workloads`] — the 20-benchmark suite.
//!
//! # Quickstart
//!
//! ```
//! use binpart::core::flow::FlowOptions;
//! use binpart::core::stage::StagedFlow;
//! use binpart::minicc::{compile, OptLevel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let binary = compile(
//!     "int a[64];
//!      int main(void) { int i; int s = 0;
//!        for (i = 0; i < 64; i++) a[i] = i * 3;
//!        for (i = 0; i < 64; i++) s += a[i];
//!        return s; }",
//!     OptLevel::O1,
//! )?;
//! let report = StagedFlow::new(&binary).run(&FlowOptions::default())?;
//! println!("speedup: {:.2}x", report.hybrid.app_speedup);
//! # Ok(())
//! # }
//! ```

pub use binpart_cdfg as cdfg;
pub use binpart_core as core;
pub use binpart_explore as explore;
pub use binpart_hwsim as hwsim;
pub use binpart_minicc as minicc;
pub use binpart_mips as mips;
pub use binpart_partition as partition;
pub use binpart_platform as platform;
pub use binpart_synth as synth;
pub use binpart_telemetry as telemetry;
pub use binpart_workloads as workloads;
