//! Sweep results do not depend on the thread count.
//!
//! `Sweep::run` fans its points out with `binpart_par::par_map`, whose
//! worker count `BINPART_THREADS` pins. Concurrent points share one
//! `StagedFlow` per binary: its stage artifacts, its synthesis memo and
//! the `Arc`-shared candidate data every partition points into. Each
//! worker also keeps its own options and report across the points it
//! evaluates, rewriting them in place, so a point must not inherit
//! anything from the one before it. The tests set the variable only
//! under one lock, so they race nothing.

mod common;

use binpart::core::flow::FlowOptions;
use binpart::core::stage::StagedFlow;
use binpart::explore::{PointReport, Sweep, SweepResult};
use binpart::minicc::OptLevel;
use binpart::platform::ProcessorSpec;
use binpart::synth::TechLibrary;
use binpart::workloads::{suite, Benchmark};
use common::design_grid;
use std::sync::Mutex;

/// Held while `BINPART_THREADS` is set and read.
static THREADS: Mutex<()> = Mutex::new(());

/// `grid` through `Sweep::run` on `threads` workers.
fn run_with_threads(grid: &Sweep, bench: &Benchmark, threads: &str) -> SweepResult {
    let _lock = THREADS.lock().unwrap_or_else(|p| p.into_inner());
    std::env::set_var("BINPART_THREADS", threads);
    let result = grid.run(|level| bench.compile(level).map_err(|e| e.to_string()));
    std::env::remove_var("BINPART_THREADS");
    result
}

fn benchmark(name: &str) -> Benchmark {
    suite()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("no benchmark {name}"))
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

/// The cells both tests sweep.
const CELLS: [(&str, OptLevel); 3] = [
    ("aifirf01", OptLevel::O1),
    ("crc", OptLevel::O2),
    ("jpegdct", OptLevel::O3),
];

#[test]
fn sweep_points_do_not_depend_on_thread_count() {
    for (name, level) in CELLS {
        let bench = benchmark(name);
        let grid = design_grid().opt_levels([level]);
        let one = run_with_threads(&grid, &bench, "1");
        let four = run_with_threads(&grid, &bench, "4");
        let replay = sequential(&grid, &bench, level);
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
}

/// A grid whose custom axes rewrite more than numbers: one replaces the
/// processor spec (a new name `Arc` per point), one swaps the technology
/// library, one writes the area budget over the budget axis's value. Each
/// axis's first value leaves its field alone, so a point evaluated with
/// anything left over from the point before it would show.
fn rewriting_grid(level: OptLevel) -> Sweep {
    let mut base = FlowOptions::default();
    base.decompile.recover_jump_tables = true;
    let slow = TechLibrary {
        name: "slow".into(),
        lut_delay_ns: 2.4,
        gates_per_lut: 20.0,
        ext_mem_cycles: 9,
        ..TechLibrary::virtex2()
    };
    Sweep::with_base(base)
        .clocks([80e6, 200e6])
        .area_budgets([20_000, 150_000])
        .opt_levels([level])
        .axis("cpu", [0.0, 60e6, 300e6], |o, v| {
            if v > 0.0 {
                o.platform.cpu = ProcessorSpec::mips(v);
            }
        })
        .axis("library", [0.0, 1.0], move |o, v| {
            if v > 0.0 {
                o.library = slow.clone();
            }
        })
        .axis("budget", [0.0, 6_000.0, 90_000.0], |o, v| {
            if v > 0.0 {
                o.partition.area_budget_gates = v as u64;
            }
        })
}

#[test]
fn options_rewritten_in_place_are_exact() {
    for (name, level) in CELLS {
        let bench = benchmark(name);
        let grid = rewriting_grid(level);
        assert_eq!(grid.len(), 72);
        let replay = sequential(&grid, &bench, level);
        // The library axis changes some point's result, so a library
        // left over from the point before would be seen. A row of six
        // points is the two libraries, three budget values each.
        let differs = replay.chunks(6).any(|row| row[..3] != row[3..]);
        assert!(differs, "{name}{level:?}: the library axis changes nothing");
        for threads in ["1", "4"] {
            let run = run_with_threads(&grid, &bench, threads);
            assert_eq!(run.points.len(), replay.len());
            for ((p, config), want) in run.points.iter().zip(grid.configs()).zip(&replay) {
                assert_eq!(p.config, config);
                let got = p.outcome.as_ref().expect("point evaluates");
                assert_eq!(
                    got, want,
                    "{name}{level:?} on {threads} workers at {config:?}"
                );
            }
        }
    }
}
