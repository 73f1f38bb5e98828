//! Sweep results do not depend on the thread count.
//!
//! `Sweep::run` fans its points out with `binpart_par::par_map`, whose
//! worker count `BINPART_THREADS` pins. Concurrent points share one
//! `StagedFlow` per binary: its stage artifacts, its synthesis memo and
//! the `Arc`-shared candidate data every partition points into. This
//! binary holds one test, so setting the variable races nothing.

mod common;

use binpart::core::stage::StagedFlow;
use binpart::explore::{PointReport, Sweep, SweepResult};
use binpart::minicc::OptLevel;
use binpart::workloads::{suite, Benchmark};
use common::design_grid;

/// `grid` through `Sweep::run` on `threads` workers.
fn run_with_threads(grid: &Sweep, bench: &Benchmark, threads: &str) -> SweepResult {
    std::env::set_var("BINPART_THREADS", threads);
    grid.run(|level| bench.compile(level).map_err(|e| e.to_string()))
}

/// Every point of `grid` (one level, `level`), evaluated one after
/// another on one flow through `StagedFlow::evaluate`.
fn sequential(grid: &Sweep, bench: &Benchmark, level: OptLevel) -> Vec<PointReport> {
    let binary = bench.compile(level).expect("benchmark compiles");
    let flow = StagedFlow::new(&binary);
    grid.configs()
        .iter()
        .map(|c| {
            let r = flow
                .evaluate(&grid.options_for(c))
                .expect("point evaluates");
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
        })
        .collect()
}

#[test]
fn sweep_points_do_not_depend_on_thread_count() {
    let benchmarks = suite();
    let cells = [
        ("aifirf01", OptLevel::O1),
        ("crc", OptLevel::O2),
        ("jpegdct", OptLevel::O3),
    ];
    for (name, level) in cells {
        let bench = benchmarks
            .iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("no benchmark {name}"));
        let grid = design_grid().opt_levels([level]);
        let one = run_with_threads(&grid, bench, "1");
        let four = run_with_threads(&grid, bench, "4");
        let replay = sequential(&grid, bench, level);
        assert_eq!(one.points.len(), replay.len());
        assert_eq!(four.points.len(), replay.len());
        for ((a, b), want) in one.points.iter().zip(&four.points).zip(&replay) {
            assert_eq!(a.config, b.config);
            let a = a.outcome.as_ref().expect("1-thread point evaluates");
            let b = b.outcome.as_ref().expect("4-thread point evaluates");
            assert_eq!(a, want, "{name}{level:?}: 1 thread vs sequential replay");
            assert_eq!(b, want, "{name}{level:?}: 4 threads vs sequential replay");
        }
    }
    std::env::remove_var("BINPART_THREADS");
}
