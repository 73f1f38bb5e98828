//! The four workloads' operations, written once and monomorphized twice:
//! with [`Untraced`] the span hooks compile away (end-to-end runs); with
//! [`Layers`] each public pipeline call is timed (the traced run).

use crate::cells::{options, Cell};
use binpart_core::flow::FlowOptions;
use binpart_core::stage::{StagedFlow, StagedReport};
use binpart_explore::Sweep;
use binpart_mips::Reg;
use binpart_telemetry::{Recorder, Telemetry};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// The benchmark's workloads. All are closed loop with one client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PartitionCold,
    DesignSweep,
    CosimVerify,
    CosimProfiled,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PartitionCold,
        Workload::DesignSweep,
        Workload::CosimVerify,
        Workload::CosimProfiled,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PartitionCold => "partition_cold",
            Workload::DesignSweep => "design_sweep",
            Workload::CosimVerify => "cosim_verify",
            Workload::CosimProfiled => "cosim_profiled",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn is_cosim(self) -> bool {
        matches!(self, Workload::CosimVerify | Workload::CosimProfiled)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A span hook around one public pipeline call.
pub trait Spans {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R;
}

/// No spans: the end-to-end configuration.
pub struct Untraced;

impl Spans for Untraced {
    #[inline(always)]
    fn span<R>(&mut self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Total seconds per span name, in memory until the run ends.
#[derive(Debug, Default)]
pub struct Layers {
    pub secs: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn get(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }

    pub fn total(&self) -> f64 {
        self.secs.values().sum()
    }
}

impl Spans for Layers {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        *self.secs.entry(name).or_default() += t.elapsed().as_secs_f64();
        r
    }
}

/// What one op produced: its quality value and the layer counts. Every
/// field is deterministic for a given cell, so a revisit must reproduce
/// it exactly.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Detail {
    /// Hybrid application speedup: analytic on `partition_cold`, the
    /// geometric mean over the grid on `design_sweep`, measured on the
    /// cosim workloads.
    pub speedup: f64,
    pub instrs: u64,
    pub functions: u64,
    pub blocks: u64,
    pub moves_removed: u64,
    pub stack_ops_removed: u64,
    pub values_narrowed: u64,
    pub loops_rerolled: u64,
    pub unstructured: u64,
    pub candidates: u64,
    pub kernels: u64,
    pub hw_invocations: u64,
    pub hw_cycles: u64,
    pub sw_cycles: u64,
    pub unmapped_kernels: u64,
    pub store_mismatches: u64,
    /// Measured-vs-analytic hardware-cycle error of every executed kernel.
    pub error_pcts: Vec<f64>,
}

/// The `design_sweep` grid: 10 clocks × 20 area budgets × 10 coverage
/// targets = 2000 points, enough that `evaluate` dominates the op.
pub fn design_grid() -> Sweep {
    let clocks = (0..10).map(|i| 40e6 + 40e6 * f64::from(i));
    let budgets = (0..20).map(|i| (2_000.0 * 1.35f64.powi(i)).round() as u64);
    let coverage = (0..10).map(|i| 0.5 + 0.05 * f64::from(i));
    Sweep::with_base(options())
        .clocks(clocks)
        .area_budgets(budgets)
        .axis("coverage", coverage, |o, v| o.partition.coverage = v)
}

fn check_v0(what: &str, got: u32, cell: &Cell) -> Result<(), String> {
    if got == cell.expected_v0 {
        Ok(())
    } else {
        Err(format!(
            "{}: {what} $v0 {got:#x} != reference {:#x}",
            cell.name, cell.expected_v0
        ))
    }
}

/// profile → decompile → estimate → evaluate, one span each, in stage
/// order so every span is its layer's self time.
fn stages<T: Telemetry, S: Spans>(
    flow: &StagedFlow<'_, T>,
    o: &FlowOptions,
    cell: &Cell,
    s: &mut S,
    d: &mut Detail,
) -> Result<StagedReport, String> {
    let err = |e: binpart_core::flow::FlowError| format!("{}: {e}", cell.name);
    let exit = s.span("profile", || flow.profile(o.sim)).map_err(err)?;
    let prog = s
        .span("decompile", || flow.decompile(o.decompile))
        .map_err(err)?;
    let est = s
        .span("estimate", || flow.estimate(o.decompile, o.sim))
        .map_err(err)?;
    let report = s.span("evaluate", || flow.evaluate(o)).map_err(err)?;
    check_v0("evaluate", report.sw_exit_value, cell)?;
    let st = &prog.stats;
    d.instrs = exit.instrs;
    d.functions = st.functions as u64;
    d.blocks = st.blocks as u64;
    d.moves_removed = st.passes.moves_removed as u64;
    d.stack_ops_removed = st.passes.stack_ops_removed as u64;
    d.values_narrowed = st.passes.values_narrowed as u64;
    d.loops_rerolled = st.passes.loops_rerolled as u64;
    d.unstructured = st.structure.unstructured as u64;
    d.candidates = est.candidates.candidates.len() as u64;
    d.kernels = report.partition.kernels.len() as u64;
    Ok(report)
}

fn partition_cold<S: Spans>(cell: &Cell, s: &mut S) -> Result<Detail, String> {
    let mut d = Detail::default();
    let flow = StagedFlow::new(&cell.binary);
    let report = stages(&flow, &options(), cell, s, &mut d)?;
    d.speedup = report.hybrid.app_speedup;
    s.span("teardown", || drop(flow));
    Ok(d)
}

fn design_sweep<S: Spans>(cell: &Cell, grid: &Sweep, s: &mut S) -> Result<Detail, String> {
    let result = s.span("sweep", || grid.run(|_| Ok(cell.binary.clone())));
    let mut d = Detail::default();
    if result.points.len() != grid.len() {
        return Err(format!(
            "{}: sweep returned {} of {} points",
            cell.name,
            result.points.len(),
            grid.len()
        ));
    }
    let mut log_sum = 0.0;
    for p in &result.points {
        let r = p
            .outcome
            .as_ref()
            .map_err(|e| format!("{}: sweep point failed: {e}", cell.name))?;
        check_v0("sweep point", r.sw_exit_value, cell)?;
        d.kernels += r.kernels as u64;
        log_sum += r.speedup.ln();
    }
    d.speedup = (log_sum / result.points.len() as f64).exp();
    s.span("teardown", || drop(result));
    Ok(d)
}

/// Synthesis memo traffic of one grid replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    pub points: u64,
    pub synth_hits: u64,
    pub synth_misses: u64,
}

/// The `design_sweep` grid replayed sequentially through the public
/// stage calls (traced run only): splits the op into its layers and
/// measures what the sweep's `par_map` fan-out costs or saves.
pub fn replay(cell: &Cell, grid: &Sweep, s: &mut Layers) -> Result<Replay, String> {
    let points: Vec<FlowOptions> = grid.configs().iter().map(|c| grid.options_for(c)).collect();
    let o = options();
    let flow = StagedFlow::new(&cell.binary);
    let err = |e: binpart_core::flow::FlowError| format!("{}: {e}", cell.name);
    s.span("profile", || flow.profile(o.sim)).map_err(err)?;
    s.span("decompile", || flow.decompile(o.decompile))
        .map_err(err)?;
    let est = s
        .span("estimate", || flow.estimate(o.decompile, o.sim))
        .map_err(err)?;
    let (h0, m0) = (est.cache.hits(), est.cache.misses());
    s.span("evaluate", || -> Result<(), String> {
        for p in &points {
            let r = flow.evaluate(p).map_err(err)?;
            check_v0("replayed point", r.sw_exit_value, cell)?;
        }
        Ok(())
    })?;
    let r = Replay {
        points: points.len() as u64,
        synth_hits: est.cache.hits() - h0,
        synth_misses: est.cache.misses() - m0,
    };
    s.span("teardown", || drop((est, flow)));
    Ok(r)
}

fn cosim<T: Telemetry, S: Spans>(
    flow: StagedFlow<'_, T>,
    cell: &Cell,
    profiled: bool,
    s: &mut S,
) -> Result<Detail, String> {
    let mut d = Detail::default();
    let o = options();
    stages(&flow, &o, cell, s, &mut d)?;
    let rep = s
        .span("cosimulate", || flow.cosimulate(&o))
        .map_err(|e| format!("{}: {e}", cell.name))?;
    check_v0("hybrid", rep.hybrid_exit.reg(Reg::V0), cell)?;
    if !rep.exit_bit_identical {
        return Err(format!("{}: hybrid exit differs from software", cell.name));
    }
    if rep.store_mismatches() != 0 {
        return Err(format!(
            "{}: {} store mismatches",
            cell.name,
            rep.store_mismatches()
        ));
    }
    for k in rep.kernels.iter().filter(|k| k.hw_invocations > 0) {
        if let Some(p) = &k.hw_profile {
            if p.attributed.total() != k.hw_cycles_measured {
                return Err(format!(
                    "{} {}: HwProfile attributes {} cycles, measured {}",
                    cell.name,
                    k.name,
                    p.attributed.total(),
                    k.hw_cycles_measured
                ));
            }
        } else if profiled {
            return Err(format!(
                "{} {}: executed kernel has no HwProfile",
                cell.name, k.name
            ));
        }
    }
    d.speedup = rep.measured.app_speedup;
    d.hw_invocations = rep.hw_invocations();
    d.hw_cycles = rep.kernels.iter().map(|k| k.hw_cycles_measured).sum();
    d.sw_cycles = rep.sw_cycles;
    d.unmapped_kernels = rep.unmapped_kernels as u64;
    d.store_mismatches = rep.store_mismatches();
    d.error_pcts = rep.kernels.iter().filter_map(|k| k.error_pct).collect();
    s.span("teardown", || drop((rep, flow)));
    Ok(d)
}

/// One op of `w` on `cell`.
fn op<S: Spans>(w: Workload, cell: &Cell, grid: &Sweep, s: &mut S) -> Result<Detail, String> {
    match w {
        Workload::PartitionCold => partition_cold(cell, s),
        Workload::DesignSweep => design_sweep(cell, grid, s),
        Workload::CosimVerify => cosim(StagedFlow::new(&cell.binary), cell, false, s),
        Workload::CosimProfiled => {
            let rec = Recorder::new();
            let d = cosim(
                StagedFlow::with_telemetry(&cell.binary, &rec),
                cell,
                true,
                s,
            );
            s.span("teardown", || drop(rec));
            d
        }
    }
}

/// [`op`] with panics caught: a panicking op is a failed op, and the run
/// continues.
pub fn guarded<S: Spans>(
    w: Workload,
    cell: &Cell,
    grid: &Sweep,
    s: &mut S,
) -> Result<Detail, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op(w, cell, grid, s))).unwrap_or_else(
        |p| {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            Err(format!("{}: panicked: {msg}", cell.name))
        },
    )
}
