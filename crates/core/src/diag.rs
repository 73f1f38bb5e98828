//! Structured diagnostics: the per-kernel degradation record.
//!
//! The flow's failure policy (see the [crate docs](crate)) distinguishes
//! *whole-flow* failures — the entry function cannot be recovered, the
//! software run faults — from *per-region* failures: one kernel fails a
//! stage (lift, optimization fuel, scheduling/binding, accelerator
//! packaging, co-simulation divergence) and is rejected back to
//! software-only while the rest of the partition proceeds. Every such
//! rejection produces a [`Diagnostic`] naming the region and the failing
//! [`FlowStage`], collected on [`crate::flow::FlowReport::diagnostics`],
//! [`crate::stage::StagedReport::diagnostics`], and
//! [`crate::cosim::CosimReport::diagnostics`].

use std::fmt;

/// The pipeline stage a [`Diagnostic`] originates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStage {
    /// Binary parsing / CDFG creation ([`crate::lift`]).
    Lift,
    /// Decompiler optimization passes ([`crate::opts`]) — fuel trips.
    Opt,
    /// Control-structure recovery.
    Structure,
    /// Kernel scheduling/binding/synthesis (`binpart-synth`).
    Synth,
    /// Accelerator packaging for co-simulation (`binpart-hwsim`).
    AccelBuild,
    /// Hybrid co-simulation (store-differential divergence).
    Cosim,
}

impl fmt::Display for FlowStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlowStage::Lift => "lift",
            FlowStage::Opt => "opt",
            FlowStage::Structure => "structure",
            FlowStage::Synth => "synth",
            FlowStage::AccelBuild => "accel-build",
            FlowStage::Cosim => "cosim",
        };
        f.write_str(s)
    }
}

/// One recorded per-region degradation: which region fell back to
/// software-only, at which stage, and why.
#[derive(Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stage that rejected the region.
    pub stage: FlowStage,
    /// The region's name (function or kernel).
    pub region: String,
    /// Human-readable cause (the underlying error's message).
    pub detail: String,
}

impl Clone for Diagnostic {
    fn clone(&self) -> Self {
        Diagnostic {
            stage: self.stage,
            region: self.region.clone(),
            detail: self.detail.clone(),
        }
    }

    /// Field by field, so the strings keep their buffers: rewriting a
    /// record with one no longer than it held allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        let Diagnostic {
            stage,
            region,
            detail,
        } = source;
        self.stage = *stage;
        self.region.clone_from(region);
        self.detail.clone_from(detail);
    }
}

impl Diagnostic {
    /// Convenience constructor.
    pub fn new(stage: FlowStage, region: impl Into<String>, detail: impl Into<String>) -> Self {
        Diagnostic {
            stage,
            region: region.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} fell back to software: {}",
            self.stage, self.region, self.detail
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_display_names_region_and_stage() {
        let d = Diagnostic::new(FlowStage::Lift, "classify", "indirect jump at 0x40");
        let s = d.to_string();
        assert!(s.contains("lift"), "{s}");
        assert!(s.contains("classify"), "{s}");
        assert!(s.contains("software"), "{s}");
    }
}
