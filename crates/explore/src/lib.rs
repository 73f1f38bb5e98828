//! Design-space exploration over the staged partitioning flow.
//!
//! The paper's evaluation sweeps one axis at a time (processor clock in
//! E2, compiler level in E3). This crate generalizes that into a grid
//! **sweep engine**: build a [`Sweep`] over platform clock × FPGA area
//! budget × compiler [`OptLevel`] (plus any user-defined
//! [`axis`](Sweep::axis) over [`FlowOptions`]), evaluate
//! every point, and extract the [Pareto frontier](SweepResult::pareto) of
//! speedup vs area vs energy.
//!
//! # Why it is fast
//!
//! Each compiled binary gets one [`StagedFlow`], so all points of the grid
//! share the staged artifacts (software profile per
//! [`SimConfig`], profiled once on the
//! simulator's superblock engine; CDFG
//! per decompile option set, candidate loops + memoized per-kernel
//! synthesis per artifact — see `binpart_core::stage` for the exact
//! invalidation table). A clock × budget sweep therefore simulates,
//! decompiles, and synthesizes **once** and spends the rest of the grid in
//! the selection loop.
//!
//! A point then costs only its evaluation. Points are evaluated with
//! [`binpart_par::par_map_with`] (`BINPART_THREADS=1` forces sequential),
//! and each worker keeps its buffers across the points it evaluates, so a
//! warm point only selects kernels and does the platform math, allocating
//! nothing:
//!
//! * its options are rewritten in place from the point's clock base
//!   ([`Sweep::options_into`]); the sweep builds each clock's processor
//!   spec once, when the clock axis is set, and the rewrite
//!   ([`Clone::clone_from`]) keeps every platform and library name `Arc`
//!   that already points at the base's, so a point formats nothing and
//!   touches no reference count;
//! * it is evaluated into the worker's own report
//!   ([`StagedFlow::evaluate_artifact_into`]), whose kernel, decision,
//!   diagnostic and per-kernel platform lists are cleared and refilled in
//!   place, and whose candidate list is re-shared only when it changes;
//! * the worker looks its stage-3 artifact up once per level and
//!   (decompile, simulator) key, not once per point;
//! * the partitioner reads the synthesis memo through one read view per
//!   evaluation: a hit builds a `Copy` key (region id, block-RAM
//!   placement; the view carries the interned budget/library id) and
//!   borrows the shared result, hits are counted locally and added once,
//!   and only a kernel that is selected clones the result's `Arc`. A
//!   selected kernel names its candidate by index, and decisions are
//!   compact records formatted only when `Partition::log` is called.
//!
//! A warm point therefore touches memory other threads write about six
//! times: the memo's read lock taken and released, its hit count added,
//! and each selected kernel's result `Arc` released from the last point
//! and cloned for this one. The grid itself holds no per-point heap: a
//! [`PointConfig`] is `Copy` and names its custom-axis values by a row of
//! their cross product, [`Sweep::len`] multiplies the axis lengths, and
//! a run holds two grid-sized vectors, the configurations and the points,
//! which the workers build directly. Results are deterministic and
//! ordered regardless of thread count.
//!
//! [`Sweep::run_naive`] evaluates the same grid on a fresh [`StagedFlow`]
//! per point, so nothing is shared — the baseline the staged engine is
//! measured against (`sweep_speedup_vs_naive` in `BENCH_sim.json`); both
//! paths produce bit-identical points.
//!
//! # Example
//!
//! ```
//! use binpart_explore::Sweep;
//! use binpart_minicc::{compile, OptLevel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "int a[64];
//!     int main(void) { int i; int s = 0;
//!       for (i = 0; i < 64; i++) a[i] = i * 3;
//!       for (i = 0; i < 64; i++) s += a[i];
//!       return s; }";
//! let result = Sweep::new()
//!     .clocks([100e6, 200e6, 400e6])
//!     .area_budgets([15_000, 250_000])
//!     .opt_levels([OptLevel::O1])
//!     .run(|level| compile(src, level).map_err(|e| e.to_string()));
//! assert_eq!(result.points.len(), 6);
//! let frontier = result.pareto();
//! assert!(!frontier.is_empty());
//! # Ok(())
//! # }
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

use binpart_core::flow::{FlowError, FlowOptions};
use binpart_core::lift::DecompileOptions;
use binpart_core::stage::{EstimatedProgram, StagedFlow, StagedReport};
use binpart_minicc::OptLevel;
use binpart_mips::sim::SimConfig;
use binpart_mips::Binary;
use binpart_par::par_map_with;
use binpart_platform::ProcessorSpec;
use binpart_telemetry::{Counter, NullTelemetry, SpanGuard, Telemetry};
use std::sync::Arc;

/// How a user-defined axis writes one of its values into [`FlowOptions`].
pub type AxisApply = Arc<dyn Fn(&mut FlowOptions, f64) + Send + Sync>;

/// A user-defined sweep axis: named values applied to [`FlowOptions`].
#[derive(Clone)]
pub struct Axis {
    /// Axis name (reports, debugging).
    pub name: String,
    /// The values the axis takes.
    pub values: Vec<f64>,
    apply: AxisApply,
}

impl std::fmt::Debug for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Axis")
            .field("name", &self.name)
            .field("values", &self.values)
            .finish()
    }
}

/// Grid sweep builder. Every axis defaults to the single point of the
/// base [`FlowOptions`]; setters replace an axis with explicit values.
#[derive(Debug, Clone)]
pub struct Sweep {
    base: FlowOptions,
    clocks_hz: Vec<f64>,
    /// The base options at each clock of `clocks_hz` (same order), built
    /// once when the axis is set so a point formats nothing.
    clock_bases: Vec<FlowOptions>,
    area_budgets: Vec<u64>,
    opt_levels: Vec<OptLevel>,
    axes: Vec<Axis>,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep::new()
    }
}

impl Sweep {
    /// A sweep with default base options and singleton axes.
    pub fn new() -> Sweep {
        Sweep::with_base(FlowOptions::default())
    }

    /// A sweep whose non-swept options come from `base`.
    pub fn with_base(base: FlowOptions) -> Sweep {
        Sweep {
            clocks_hz: vec![base.platform.cpu.clock_hz],
            clock_bases: vec![base.clone()],
            area_budgets: vec![base.partition.area_budget_gates],
            opt_levels: vec![OptLevel::O1],
            axes: Vec::new(),
            base,
        }
    }

    /// Processor clock axis (Hz). With no values the grid is empty.
    #[must_use]
    pub fn clocks(mut self, hz: impl IntoIterator<Item = f64>) -> Sweep {
        self.clocks_hz = hz.into_iter().collect();
        self.clock_bases = self
            .clocks_hz
            .iter()
            .map(|&clock_hz| self.base_at(clock_hz))
            .collect();
        self
    }

    /// FPGA area budget axis (gate equivalents). With no values the grid
    /// is empty.
    #[must_use]
    pub fn area_budgets(mut self, gates: impl IntoIterator<Item = u64>) -> Sweep {
        self.area_budgets = gates.into_iter().collect();
        self
    }

    /// Compiler optimization level axis. With no values the grid is empty.
    #[must_use]
    pub fn opt_levels(mut self, levels: impl IntoIterator<Item = OptLevel>) -> Sweep {
        self.opt_levels = levels.into_iter().collect();
        self
    }

    /// Adds a user-defined axis: `apply` writes each value into the
    /// [`FlowOptions`] of the points along it (e.g. coverage target,
    /// kernel cap, communication overhead). With no values the grid is
    /// empty.
    #[must_use]
    pub fn axis(
        mut self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = f64>,
        apply: impl Fn(&mut FlowOptions, f64) + Send + Sync + 'static,
    ) -> Sweep {
        self.axes.push(Axis {
            name: name.into(),
            values: values.into_iter().collect(),
            apply: Arc::new(apply),
        });
        self
    }

    /// Number of grid points: the product of the axis lengths.
    pub fn len(&self) -> usize {
        self.opt_levels.len() * self.clocks_hz.len() * self.area_budgets.len() * self.axis_rows()
    }

    /// Number of rows of the custom axes' cross product (1 with none).
    fn axis_rows(&self) -> usize {
        self.axes.iter().map(|axis| axis.values.len()).product()
    }

    /// Returns `true` when some axis has no values: the grid has no
    /// points, and [`Sweep::run`] returns none.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The full cross product of the axes, in deterministic row-major
    /// order: level (slowest) × clock × budget × custom axes.
    pub fn configs(&self) -> Vec<PointConfig> {
        let rows = self.axis_rows();
        let mut configs = Vec::with_capacity(self.len());
        for &level in &self.opt_levels {
            for &clock_hz in &self.clocks_hz {
                for &area_budget_gates in &self.area_budgets {
                    configs.extend((0..rows).map(|axis_row| PointConfig {
                        level,
                        clock_hz,
                        area_budget_gates,
                        axis_row,
                    }));
                }
            }
        }
        configs
    }

    /// The [`FlowOptions`] of one grid point: a copy of the base options
    /// rewritten by [`Sweep::options_into`].
    pub fn options_for(&self, config: &PointConfig) -> FlowOptions {
        let mut options = self.base.clone();
        self.options_into(config, &mut options);
        options
    }

    /// Rewrites `options` as the [`FlowOptions`] of one grid point,
    /// whatever it held before: the point's clock base, then its area
    /// budget, then its custom-axis values.
    ///
    /// Non-swept options come from the base verbatim; in particular, a
    /// point whose clock equals the base platform's clock keeps the base
    /// processor spec (power model included). Other clock values use the
    /// paper's MIPS power model ([`ProcessorSpec::mips`]), which is what
    /// the clock axis sweeps. For a clock on the axis this allocates
    /// nothing beyond what the custom axes' closures do: `options` is
    /// rewritten from that clock's prebuilt options with
    /// [`Clone::clone_from`], which keeps every name `Arc` that already
    /// points at theirs, and the custom-axis values are decoded from the
    /// point's row. A sweep worker keeps one `FlowOptions` and rewrites it
    /// per point.
    pub fn options_into(&self, config: &PointConfig, options: &mut FlowOptions) {
        let on_axis = self
            .clocks_hz
            .iter()
            .position(|c| c.to_bits() == config.clock_hz.to_bits());
        match on_axis {
            Some(i) => options.clone_from(&self.clock_bases[i]),
            None => *options = self.base_at(config.clock_hz),
        }
        options.partition.area_budget_gates = config.area_budget_gates;
        // The custom axes' row, decoded row-major: the last axis varies
        // fastest. An empty axis (whose grid has no points) writes
        // nothing.
        let len = |axis: &Axis| axis.values.len().max(1);
        let mut stride: usize = self.axes.iter().map(len).product();
        for axis in &self.axes {
            stride /= len(axis);
            if let Some(&value) = axis.values.get(config.axis_row / stride % len(axis)) {
                (axis.apply)(options, value);
            }
        }
    }

    /// The base options at `clock_hz`, by the clock rule of
    /// [`Sweep::options_into`].
    fn base_at(&self, clock_hz: f64) -> FlowOptions {
        let mut options = self.base.clone();
        if clock_hz != self.base.platform.cpu.clock_hz {
            options.platform.cpu = ProcessorSpec::mips(clock_hz);
        }
        options
    }

    /// Runs the sweep through the staged flow: one compile + one
    /// [`StagedFlow`] per [`OptLevel`], all points sharing its artifacts,
    /// evaluated in parallel. Point order matches [`Sweep::configs`].
    pub fn run(&self, compile: impl FnMut(OptLevel) -> Result<Binary, String>) -> SweepResult {
        self.run_impl(&NullTelemetry, compile, false)
    }

    /// Like [`Sweep::run`], reporting progress through `telemetry`: a
    /// `sweep` span over the whole grid, per-point
    /// `sweep_points_ok`/`sweep_points_failed` counters as points
    /// complete, a `sweep_done` event, and — because each level's
    /// [`StagedFlow`] is built over the same sink — all the per-stage
    /// spans and cache counters of the underlying flow.
    pub fn run_with_telemetry<T: Telemetry>(
        &self,
        telemetry: &T,
        compile: impl FnMut(OptLevel) -> Result<Binary, String>,
    ) -> SweepResult {
        self.run_impl(telemetry, compile, false)
    }

    /// Runs the same grid with a fresh [`StagedFlow`] per point — every
    /// point re-profiles, re-decompiles, and re-synthesizes from scratch.
    /// Same parallel fan-out, bit-identical points; exists as the
    /// baseline the shared-flow engine is benchmarked against.
    pub fn run_naive(
        &self,
        compile: impl FnMut(OptLevel) -> Result<Binary, String>,
    ) -> SweepResult {
        self.run_impl(&NullTelemetry, compile, true)
    }

    fn run_impl<T: Telemetry>(
        &self,
        telemetry: &T,
        mut compile: impl FnMut(OptLevel) -> Result<Binary, String>,
        naive: bool,
    ) -> SweepResult {
        let configs = self.configs();
        if configs.is_empty() {
            return SweepResult { points: Vec::new() };
        }
        let _span = SpanGuard::enter(telemetry, "sweep", || {
            format!(
                "{} points, {} levels{}",
                configs.len(),
                self.opt_levels.len(),
                if naive { ", naive" } else { "" }
            )
        });
        // One binary per level (compiled once, up front), each with the
        // flow its points share.
        let binaries: Vec<Result<Binary, String>> = self
            .opt_levels
            .iter()
            .map(|&level| compile(level))
            .collect();
        let flows: Vec<(OptLevel, Result<StagedFlow<'_, &T>, &String>)> = self
            .opt_levels
            .iter()
            .zip(&binaries)
            .map(|(&level, b)| {
                (
                    level,
                    b.as_ref()
                        .map(|bin| StagedFlow::with_telemetry(bin, telemetry)),
                )
            })
            .collect();
        let points = par_map_with(
            &configs,
            || Worker::new(&self.base),
            |worker, config| {
                self.options_into(config, &mut worker.options);
                let flow = flows
                    .iter()
                    .enumerate()
                    .find(|(_, (level, _))| *level == config.level);
                let outcome = match flow {
                    None => Err(format!("no binary for level {}", config.level)),
                    Some((_, (_, Err(e)))) => Err(format!("compile failed: {e}")),
                    Some((i, (_, Ok(flow)))) => {
                        let evaluated = if naive {
                            StagedFlow::new(flow.binary())
                                .evaluate_into(&worker.options, &mut worker.report)
                        } else {
                            worker.evaluate(i, flow)
                        };
                        evaluated
                            .map(|()| point_report(&worker.report))
                            .map_err(|e| e.to_string())
                    }
                };
                telemetry.counter_add(
                    if outcome.is_ok() {
                        Counter::SweepPointsOk
                    } else {
                        Counter::SweepPointsFailed
                    },
                    1,
                );
                SweepPoint {
                    config: *config,
                    outcome,
                }
            },
        );
        if T::ENABLED {
            let ok = points.iter().filter(|p| p.outcome.is_ok()).count();
            telemetry.event("sweep_done", &format!("{}/{} points ok", ok, points.len()));
        }
        SweepResult { points }
    }
}

/// What one sweep worker keeps across the points it evaluates, so that a
/// warm point allocates nothing: its options, rewritten per point; the
/// report each point is evaluated into; and the stage-3 artifact of its
/// last point, looked up again only when a point's level or its
/// (decompile, simulator) key differs.
struct Worker {
    options: FlowOptions,
    report: StagedReport,
    /// The artifact with its level's index into the sweep's flows and the
    /// key it was built for.
    artifact: Option<(usize, DecompileOptions, SimConfig, Arc<EstimatedProgram>)>,
}

impl Worker {
    fn new(base: &FlowOptions) -> Worker {
        Worker {
            options: base.clone(),
            report: StagedReport::default(),
            artifact: None,
        }
    }

    /// Evaluates the worker's options on `flow` (the flow of level
    /// `level`) into its report.
    fn evaluate<T: Telemetry>(
        &mut self,
        level: usize,
        flow: &StagedFlow<'_, T>,
    ) -> Result<(), FlowError> {
        let (decompile, sim) = (self.options.decompile, self.options.sim);
        let est = match &self.artifact {
            Some((l, d, s, est)) if *l == level && *d == decompile && *s == sim => est,
            _ => {
                let est = flow.estimate(decompile, sim)?;
                &self.artifact.insert((level, decompile, sim, est)).3
            }
        };
        flow.evaluate_artifact_into(est, &self.options, &mut self.report);
        Ok(())
    }
}

/// The sweep's view of one evaluated point.
fn point_report(r: &StagedReport) -> PointReport {
    PointReport {
        sw_cycles: r.sw_cycles,
        sw_exit_value: r.sw_exit_value,
        speedup: r.hybrid.app_speedup,
        energy_savings: r.hybrid.energy_savings,
        area_gates: r.hybrid.total_area_gates,
        kernels: r.partition.kernels.len(),
        coverage: r.partition.coverage(),
        sw_time_s: r.hybrid.sw_time_s,
        hybrid_time_s: r.hybrid.hybrid_time_s,
    }
}

/// Coordinates of one grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointConfig {
    /// Compiler optimization level.
    pub level: OptLevel,
    /// Processor clock (Hz).
    pub clock_hz: f64,
    /// FPGA area budget (gate equivalents).
    pub area_budget_gates: u64,
    /// Row of the user-defined axes' cross product, in row-major order
    /// (the last axis varies fastest); [`Sweep::options_for`] applies its
    /// values.
    pub axis_row: usize,
}

/// The flow's numbers at one point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointReport {
    /// Profiled all-software cycles.
    pub sw_cycles: u64,
    /// `$v0` at software exit.
    pub sw_exit_value: u32,
    /// Application speedup.
    pub speedup: f64,
    /// Energy savings fraction.
    pub energy_savings: f64,
    /// FPGA area used (gate equivalents).
    pub area_gates: u64,
    /// Kernels selected.
    pub kernels: usize,
    /// Fraction of software cycles moved to hardware.
    pub coverage: f64,
    /// All-software time (s).
    pub sw_time_s: f64,
    /// Hybrid time (s).
    pub hybrid_time_s: f64,
}

/// One evaluated grid point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Where on the grid.
    pub config: PointConfig,
    /// The result, or why the point failed (compile error, CDFG recovery
    /// failure).
    pub outcome: Result<PointReport, String>,
}

/// All points of a sweep, in [`Sweep::configs`] order.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Evaluated points.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// Successful points.
    pub fn ok_points(&self) -> impl Iterator<Item = (&PointConfig, &PointReport)> {
        self.points
            .iter()
            .filter_map(|p| p.outcome.as_ref().ok().map(|r| (&p.config, r)))
    }

    /// The Pareto frontier over (maximize speedup, maximize energy
    /// savings, minimize area), in sweep order. A point is on the frontier
    /// when no other successful point is at least as good on every
    /// objective and strictly better on one.
    pub fn pareto(&self) -> Vec<&SweepPoint> {
        let ok: Vec<(usize, &PointReport)> = self
            .points
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.outcome.as_ref().ok().map(|r| (i, r)))
            .collect();
        let dominates = |a: &PointReport, b: &PointReport| -> bool {
            let ge = a.speedup >= b.speedup
                && a.energy_savings >= b.energy_savings
                && a.area_gates <= b.area_gates;
            let gt = a.speedup > b.speedup
                || a.energy_savings > b.energy_savings
                || a.area_gates < b.area_gates;
            ge && gt
        };
        ok.iter()
            .filter(|(_, r)| !ok.iter().any(|(_, other)| dominates(other, r)))
            .map(|&(i, _)| &self.points[i])
            .collect()
    }

    /// The successful point with the highest speedup, if any.
    pub fn best_speedup(&self) -> Option<&SweepPoint> {
        self.points
            .iter()
            .filter_map(|p| p.outcome.as_ref().ok().map(|r| (p, r.speedup)))
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(p, _)| p)
    }
}
