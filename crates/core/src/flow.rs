//! The end-to-end flow's vocabulary: its options ([`FlowOptions`]), its
//! result ([`FlowReport`]), and its error rollup ([`FlowError`]).
//!
//! The pipeline itself — run the binary for a profile, decompile it,
//! partition it, synthesize the kernels, and evaluate the hybrid platform
//! — has one driver, [`StagedFlow`](crate::stage::StagedFlow). Its stages
//! are cached, so a sweep over many option points re-runs only the stages
//! whose inputs changed; a one-shot caller builds a flow and runs it once.
//!
//! # Example
//!
//! ```
//! use binpart_core::flow::FlowOptions;
//! use binpart_core::stage::StagedFlow;
//! use binpart_minicc::{compile, OptLevel};
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
//! assert!(report.hybrid.app_speedup >= 1.0);
//! # Ok(())
//! # }
//! ```

use crate::cosim::CosimError;
use crate::decompile::DecompiledProgram;
use crate::diag::Diagnostic;
use crate::lift::{DecompileError, DecompileOptions};
use crate::partition::{Partition, PartitionOptions};
use binpart_cdfg::ir::BlockCounts;
use binpart_mips::sim::{SimConfig, SimError};
use binpart_platform::{HybridReport, Platform};
use binpart_synth::{ResourceBudget, SynthError, TechLibrary};
use std::fmt;
use std::sync::Arc;

/// Everything the flow needs to run.
#[derive(Debug)]
pub struct FlowOptions {
    /// Target platform (CPU clock, FPGA, power).
    pub platform: Platform,
    /// Decompiler options.
    pub decompile: DecompileOptions,
    /// Partitioner options.
    pub partition: PartitionOptions,
    /// Synthesis resource budget.
    pub budget: ResourceBudget,
    /// Technology library.
    pub library: TechLibrary,
    /// Simulator configuration (cycle model, step limit, stack). The
    /// profile always runs on the default superblock engine, which is
    /// exact, so no engine choice appears here.
    pub sim: SimConfig,
}

impl Clone for FlowOptions {
    fn clone(&self) -> Self {
        FlowOptions {
            platform: self.platform.clone(),
            partition: self.partition.clone(),
            library: self.library.clone(),
            ..*self
        }
    }

    /// Field by field: the platform and library keep every name `Arc`
    /// that already points at `source`'s, so options rewritten from the
    /// same source (a sweep worker's per-point options) touch no
    /// reference count.
    fn clone_from(&mut self, source: &Self) {
        let FlowOptions {
            platform,
            decompile,
            partition,
            budget,
            library,
            sim,
        } = source;
        self.platform.clone_from(platform);
        self.decompile = *decompile;
        self.partition.clone_from(partition);
        self.budget = *budget;
        self.library.clone_from(library);
        self.sim = *sim;
    }
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            platform: Platform::mips_virtex2(200e6),
            decompile: DecompileOptions::default(),
            partition: PartitionOptions::default(),
            budget: ResourceBudget::default(),
            library: TechLibrary::virtex2(),
            sim: SimConfig::default(),
        }
    }
}

/// Flow failure — the rollup of every stage's typed error. See the
/// [crate docs](crate) for the failure policy (whole-flow vs per-region).
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The software run failed.
    Sim(SimError),
    /// CDFG recovery failed (the paper's 2-of-20 case).
    Decompile(DecompileError),
    /// Kernel synthesis failed (only surfaced by direct synthesis entry
    /// points; the partitioner degrades synth failures per-region).
    Synth(SynthError),
    /// The co-simulation stage's hybrid run failed.
    Cosim(CosimError),
}

impl FlowError {
    /// `true` when the failure is a *budget trip* — fuel or step-watchdog
    /// exhaustion that a rerun with a larger budget could clear.
    /// [`crate::stage::StagedFlow`] refuses to latch transient errors in
    /// its memo caches.
    pub fn is_transient(&self) -> bool {
        match self {
            FlowError::Sim(e) => matches!(e, SimError::MaxStepsExceeded { .. }),
            FlowError::Decompile(e) => matches!(e, DecompileError::Fuel { .. }),
            FlowError::Cosim(CosimError::Hybrid(e)) => {
                matches!(e, SimError::MaxStepsExceeded { .. })
            }
            FlowError::Synth(_) => false,
        }
    }
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Sim(e) => write!(f, "simulation failed: {e}"),
            FlowError::Decompile(e) => write!(f, "decompilation failed: {e}"),
            FlowError::Synth(e) => write!(f, "synthesis failed: {e}"),
            FlowError::Cosim(e) => write!(f, "co-simulation failed: {e}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<SimError> for FlowError {
    fn from(e: SimError) -> Self {
        FlowError::Sim(e)
    }
}

impl From<DecompileError> for FlowError {
    fn from(e: DecompileError) -> Self {
        FlowError::Decompile(e)
    }
}

impl From<SynthError> for FlowError {
    fn from(e: SynthError) -> Self {
        FlowError::Synth(e)
    }
}

impl From<CosimError> for FlowError {
    fn from(e: CosimError) -> Self {
        FlowError::Cosim(e)
    }
}

/// The flow's complete result for one binary.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Profiled all-software cycles.
    pub sw_cycles: u64,
    /// Value in `$v0` when the software run exited.
    pub sw_exit_value: u32,
    /// Hybrid execution-time/energy evaluation.
    pub hybrid: HybridReport,
    /// The partition (kernels, areas, decision log).
    pub partition: Partition,
    /// The decompiled program: the decompile stage's artifact, shared.
    pub program: Arc<DecompiledProgram>,
    /// Profiled block execution counts, one table per entry of
    /// `program.functions`.
    pub counts: Vec<BlockCounts>,
    /// Per-region degradation records from every stage (lift/opt fallbacks
    /// from the decompiler, synth rejections from the partitioner). Empty
    /// on a fully clean run.
    pub diagnostics: Vec<Diagnostic>,
}

impl FlowReport {
    /// Concatenated VHDL of all selected kernels, each rendered from its
    /// kept schedule ([`SynthesisResult::vhdl`](binpart_synth::SynthesisResult::vhdl))
    /// over its function in [`FlowReport::program`] and that function's
    /// [`FlowReport::counts`].
    pub fn vhdl(&self) -> String {
        self.partition
            .selected()
            .map(|(k, c)| {
                let fi = c.func_index;
                k.synth.vhdl(&self.program.functions[fi], &self.counts[fi])
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::StagedFlow;
    use binpart_minicc::{compile, OptLevel};

    fn kernel_program() -> &'static str {
        "int a[256]; int coef[16];
         int main(void) {
           int i; int j; int acc; int out = 0;
           for (i = 0; i < 256; i++) a[i] = i & 0xff;
           for (i = 0; i < 16; i++) coef[i] = i + 1;
           for (j = 0; j < 200; j++) {
             acc = 0;
             for (i = 0; i < 16; i++) acc += a[j + i] * coef[i];
             out += acc >> 6;
           }
           return out;
         }"
    }

    #[test]
    fn flow_accelerates_fir_like_kernel() {
        let binary = compile(kernel_program(), OptLevel::O1).unwrap();
        let report = StagedFlow::new(&binary)
            .run(&FlowOptions::default())
            .unwrap();
        assert!(
            report.hybrid.app_speedup > 1.5,
            "speedup {} (partition: {:?})",
            report.hybrid.app_speedup,
            report.partition.log()
        );
        assert!(!report.partition.kernels.is_empty());
        assert!(report.partition.coverage() > 0.5);
        assert!(report.hybrid.total_area_gates > 0);
        assert!(report.vhdl().contains("entity"));
    }

    #[test]
    fn best_kernel_speedup_bounds_app_speedup() {
        let binary = compile(kernel_program(), OptLevel::O1).unwrap();
        let report = StagedFlow::new(&binary)
            .run(&FlowOptions::default())
            .unwrap();
        let best = report
            .hybrid
            .kernels
            .iter()
            .map(|k| k.kernel_speedup)
            .fold(0.0f64, f64::max);
        assert!(
            best * 1.05 >= report.hybrid.app_speedup,
            "best kernel {best} vs app {}",
            report.hybrid.app_speedup
        );
    }

    #[test]
    fn energy_savings_positive_for_hot_kernels() {
        let binary = compile(kernel_program(), OptLevel::O1).unwrap();
        let report = StagedFlow::new(&binary)
            .run(&FlowOptions::default())
            .unwrap();
        assert!(
            report.hybrid.energy_savings > 0.2,
            "savings {}",
            report.hybrid.energy_savings
        );
    }

    #[test]
    fn tiny_area_budget_prevents_selection() {
        let binary = compile(kernel_program(), OptLevel::O1).unwrap();
        let mut options = FlowOptions::default();
        options.partition.area_budget_gates = 10;
        let report = StagedFlow::new(&binary).run(&options).unwrap();
        assert!(report.partition.kernels.is_empty());
        assert!((report.hybrid.app_speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn indirect_jump_binary_reports_cdfg_failure() {
        let src = "int main(void) { int i; int acc = 0;
            for (i = 0; i < 6; i++) {
              switch (i) {
                case 0: acc += 1; break;
                case 1: acc += 2; break;
                case 2: acc += 4; break;
                case 3: acc += 8; break;
                case 4: acc += 16; break;
                case 5: acc += 32; break;
              }
            }
            return acc; }";
        let binary = compile(src, OptLevel::O2).unwrap();
        let err = StagedFlow::new(&binary)
            .run(&FlowOptions::default())
            .unwrap_err();
        assert!(matches!(
            err,
            FlowError::Decompile(DecompileError::Lift(
                crate::lift::LiftError::IndirectJump { .. }
            ))
        ));
        assert!(!err.is_transient(), "indirect jump is deterministic");
    }

    #[test]
    fn unliftable_callee_degrades_to_software_with_diagnostic() {
        // The jump-table switch lives in a *callee*; with software_fallback
        // the flow must complete, dropping only that function, and the hot
        // vector kernel in main must still reach hardware.
        let src = "int a[128]; int classify(int v) {
              switch (v & 7) {
                case 0: return 1;
                case 1: return 3;
                case 2: return 5;
                case 3: return 7;
                case 4: return 11;
                case 5: return 13;
                case 6: return 17;
                case 7: return 19;
              }
              return 0;
            }
            int main(void) { int i; int j; int s = 0;
              s += classify(5);
              for (j = 0; j < 100; j++)
                for (i = 0; i < 128; i++) a[i] = (a[i] + i) & 0xffff;
              for (i = 0; i < 128; i++) s += a[i];
              return s; }";
        let binary = compile(src, OptLevel::O2).unwrap();
        let mut options = FlowOptions::default();
        // Without fallback: whole-flow failure.
        assert!(StagedFlow::new(&binary).run(&options).is_err());
        options.decompile.software_fallback = true;
        let report = StagedFlow::new(&binary).run(&options).unwrap();
        let diag = report
            .diagnostics
            .iter()
            .find(|d| d.stage == crate::diag::FlowStage::Lift)
            .expect("the un-liftable callee must be diagnosed");
        assert!(
            diag.region.contains("classify") || diag.region.starts_with("f_"),
            "diagnostic names the region: {diag}"
        );
        assert!(diag.detail.contains("indirect jump"), "{diag}");
        // The rest of the program still partitions and synthesizes.
        assert!(
            !report.partition.kernels.is_empty(),
            "remaining kernels must still be selected: {:?}",
            report.partition.log()
        );
        assert!(report.vhdl().contains("entity"));
    }

    #[test]
    fn flow_works_across_opt_levels() {
        for level in OptLevel::ALL {
            let binary = compile(kernel_program(), level).unwrap();
            let report = StagedFlow::new(&binary)
                .run(&FlowOptions::default())
                .unwrap_or_else(|e| panic!("flow failed at {level}: {e}"));
            assert!(
                report.hybrid.app_speedup > 1.0,
                "at {level}: speedup {}",
                report.hybrid.app_speedup
            );
        }
    }

    #[test]
    fn slower_cpu_larger_speedup() {
        let binary = compile(kernel_program(), OptLevel::O1).unwrap();
        let run_at = |hz: f64| {
            let o = FlowOptions {
                platform: Platform::mips_virtex2(hz),
                ..Default::default()
            };
            StagedFlow::new(&binary).run(&o).unwrap().hybrid
        };
        let r40 = run_at(40e6);
        let r200 = run_at(200e6);
        let r400 = run_at(400e6);
        assert!(r40.app_speedup > r200.app_speedup);
        assert!(r200.app_speedup > r400.app_speedup);
        assert!(r40.energy_savings >= r200.energy_savings);
        assert!(r200.energy_savings >= r400.energy_savings);
    }
}
