//! Design-space exploration over the staged partitioning flow.
//!
//! The paper's evaluation sweeps one axis at a time (processor clock in
//! E2, compiler level in E3). This crate generalizes that into a grid
//! **sweep engine**: build a [`Sweep`] over platform clock × FPGA area
//! budget × compiler [`OptLevel`] × simulator [`FusionConfig`] (plus any
//! user-defined [`axis`](Sweep::axis) over [`FlowOptions`]), evaluate
//! every point, and extract the [Pareto frontier](SweepResult::pareto) of
//! speedup vs area vs energy.
//!
//! # Why it is fast
//!
//! Each compiled binary gets one [`StagedFlow`], so all points of the grid
//! share the staged artifacts (software profile per [`SimConfig`], CDFG
//! per decompile option set, candidate loops + memoized per-kernel
//! synthesis per artifact — see `binpart_core::stage` for the exact
//! invalidation table). A clock × budget sweep therefore simulates,
//! decompiles, and synthesizes **once** and spends the rest of the grid in
//! the selection loop. Points are evaluated in parallel with
//! [`binpart_par::par_map`] (`BINPART_THREADS=1` forces sequential), and
//! results are deterministic and ordered regardless of thread count.
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

use binpart_core::flow::FlowOptions;
use binpart_core::stage::{StagedFlow, StagedReport};
use binpart_mips::sim::{FusionConfig, SimConfig};
use binpart_mips::Binary;
use binpart_minicc::OptLevel;
use binpart_par::par_map;
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
    area_budgets: Vec<u64>,
    opt_levels: Vec<OptLevel>,
    fusions: Vec<FusionConfig>,
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
            area_budgets: vec![base.partition.area_budget_gates],
            opt_levels: vec![OptLevel::O1],
            fusions: vec![base.sim.fusion],
            axes: Vec::new(),
            base,
        }
    }

    /// Processor clock axis (Hz).
    #[must_use]
    pub fn clocks(mut self, hz: impl IntoIterator<Item = f64>) -> Sweep {
        self.clocks_hz = hz.into_iter().collect();
        assert!(!self.clocks_hz.is_empty(), "empty clock axis");
        self
    }

    /// FPGA area budget axis (gate equivalents).
    #[must_use]
    pub fn area_budgets(mut self, gates: impl IntoIterator<Item = u64>) -> Sweep {
        self.area_budgets = gates.into_iter().collect();
        assert!(!self.area_budgets.is_empty(), "empty budget axis");
        self
    }

    /// Compiler optimization level axis.
    #[must_use]
    pub fn opt_levels(mut self, levels: impl IntoIterator<Item = OptLevel>) -> Sweep {
        self.opt_levels = levels.into_iter().collect();
        assert!(!self.opt_levels.is_empty(), "empty level axis");
        self
    }

    /// Simulator superinstruction-fusion axis. Fusion is observationally
    /// exact, so this axis never changes results; [`Sweep::run`] shares
    /// one estimate artifact across all fusion points, while
    /// [`Sweep::run_naive`] profiles afresh at every point — so only the
    /// naive path measures each configuration's profiling cost.
    #[must_use]
    pub fn fusions(mut self, fusions: impl IntoIterator<Item = FusionConfig>) -> Sweep {
        self.fusions = fusions.into_iter().collect();
        assert!(!self.fusions.is_empty(), "empty fusion axis");
        self
    }

    /// Adds a user-defined axis: `apply` writes each value into the
    /// [`FlowOptions`] of the points along it (e.g. coverage target,
    /// kernel cap, communication overhead).
    #[must_use]
    pub fn axis(
        mut self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = f64>,
        apply: impl Fn(&mut FlowOptions, f64) + Send + Sync + 'static,
    ) -> Sweep {
        let name = name.into();
        let values: Vec<f64> = values.into_iter().collect();
        assert!(!values.is_empty(), "empty axis {name}");
        self.axes.push(Axis {
            name,
            values,
            apply: Arc::new(apply),
        });
        self
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.configs().len()
    }

    /// Returns `true` for a degenerate empty grid (never constructible via
    /// the setters).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The full cross product of the axes, in deterministic row-major
    /// order: level (slowest) × clock × budget × fusion × custom axes.
    pub fn configs(&self) -> Vec<PointConfig> {
        let mut custom: Vec<Vec<f64>> = vec![Vec::new()];
        for axis in &self.axes {
            let mut next = Vec::with_capacity(custom.len() * axis.values.len());
            for prefix in &custom {
                for &v in &axis.values {
                    let mut row = prefix.clone();
                    row.push(v);
                    next.push(row);
                }
            }
            custom = next;
        }
        let mut configs = Vec::new();
        for &level in &self.opt_levels {
            for &clock_hz in &self.clocks_hz {
                for &area_budget_gates in &self.area_budgets {
                    for &fusion in &self.fusions {
                        for axis_values in &custom {
                            configs.push(PointConfig {
                                level,
                                clock_hz,
                                area_budget_gates,
                                fusion,
                                axis_values: axis_values.clone(),
                            });
                        }
                    }
                }
            }
        }
        configs
    }

    /// The [`FlowOptions`] of one grid point.
    ///
    /// Non-swept options come from the base verbatim; in particular, a
    /// point whose clock equals the base platform's clock keeps the base
    /// processor spec (power model included). Other clock values use the
    /// paper's MIPS power model ([`ProcessorSpec::mips`]), which is what
    /// the clock axis sweeps.
    pub fn options_for(&self, config: &PointConfig) -> FlowOptions {
        let mut options = self.base.clone();
        if config.clock_hz != self.base.platform.cpu.clock_hz {
            options.platform.cpu = ProcessorSpec::mips(config.clock_hz);
        }
        options.partition.area_budget_gates = config.area_budget_gates;
        options.sim = SimConfig {
            fusion: config.fusion,
            ..self.base.sim
        };
        for (axis, &value) in self.axes.iter().zip(&config.axis_values) {
            (axis.apply)(&mut options, value);
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
        let _span = SpanGuard::enter(telemetry, "sweep", || {
            format!("{} points, {} levels{}", configs.len(), self.opt_levels.len(), if naive { ", naive" } else { "" })
        });
        // One binary per level (compiled once, up front), each with the
        // flow its points share.
        let binaries: Vec<Result<Binary, String>> =
            self.opt_levels.iter().map(|&level| compile(level)).collect();
        let flows: Vec<(OptLevel, Result<StagedFlow<'_, &T>, &String>)> = self
            .opt_levels
            .iter()
            .zip(&binaries)
            .map(|(&level, b)| {
                (level, b.as_ref().map(|bin| StagedFlow::with_telemetry(bin, telemetry)))
            })
            .collect();
        let points = par_map(&configs, |config| {
            let options = self.options_for(config);
            let outcome = match flows.iter().find(|(level, _)| *level == config.level) {
                None => Err(format!("no binary for level {}", config.level)),
                Some((_, Err(e))) => Err(format!("compile failed: {e}")),
                Some((_, Ok(flow))) => {
                    let evaluated = if naive {
                        StagedFlow::new(flow.binary()).evaluate(&options)
                    } else {
                        flow.evaluate(&options)
                    };
                    evaluated.map(|r| point_report(&r)).map_err(|e| e.to_string())
                }
            };
            telemetry.counter_add(
                if outcome.is_ok() { Counter::SweepPointsOk } else { Counter::SweepPointsFailed },
                1,
            );
            SweepPoint {
                config: config.clone(),
                outcome,
            }
        });
        if T::ENABLED {
            let ok = points.iter().filter(|p| p.outcome.is_ok()).count();
            telemetry.event("sweep_done", &format!("{}/{} points ok", ok, points.len()));
        }
        SweepResult { points }
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
#[derive(Debug, Clone, PartialEq)]
pub struct PointConfig {
    /// Compiler optimization level.
    pub level: OptLevel,
    /// Processor clock (Hz).
    pub clock_hz: f64,
    /// FPGA area budget (gate equivalents).
    pub area_budget_gates: u64,
    /// Simulator fusion configuration.
    pub fusion: FusionConfig,
    /// Values of the user-defined axes, in axis order.
    pub axis_values: Vec<f64>,
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
