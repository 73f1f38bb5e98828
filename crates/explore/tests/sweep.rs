//! Sweep-engine correctness: grid shape, staged-vs-naive bit identity,
//! the shared profile against the reference engine, Pareto frontier
//! invariants, custom axes.

use binpart_core::stage::StagedFlow;
use binpart_explore::{PointConfig, Sweep, SweepResult};
use binpart_minicc::OptLevel;
use binpart_mips::reference::ReferenceMachine;
use binpart_mips::sim::SimConfig;

fn bench_compile(name: &str) -> impl FnMut(OptLevel) -> Result<binpart_mips::Binary, String> {
    let b = binpart_workloads::suite()
        .into_iter()
        .find(|b| b.name == name)
        .expect("benchmark exists");
    move |level| b.compile(level).map_err(|e| e.to_string())
}

fn base_with_recovery() -> binpart_core::flow::FlowOptions {
    let mut base = binpart_core::flow::FlowOptions::default();
    base.decompile.recover_jump_tables = true;
    base
}

fn assert_identical(staged: &SweepResult, naive: &SweepResult) {
    assert_eq!(staged.points.len(), naive.points.len());
    for (s, n) in staged.points.iter().zip(&naive.points) {
        assert_eq!(s.config, n.config);
        match (&s.outcome, &n.outcome) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.speedup.to_bits(),
                    b.speedup.to_bits(),
                    "at {:?}",
                    s.config
                );
                assert_eq!(
                    a.energy_savings.to_bits(),
                    b.energy_savings.to_bits(),
                    "at {:?}",
                    s.config
                );
                assert_eq!(a.area_gates, b.area_gates, "at {:?}", s.config);
                assert_eq!(a.kernels, b.kernels, "at {:?}", s.config);
                assert_eq!(a.sw_cycles, b.sw_cycles, "at {:?}", s.config);
                assert_eq!(a.sw_exit_value, b.sw_exit_value, "at {:?}", s.config);
                assert_eq!(
                    a.coverage.to_bits(),
                    b.coverage.to_bits(),
                    "at {:?}",
                    s.config
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "at {:?}", s.config),
            (a, b) => panic!("outcome mismatch at {:?}: {a:?} vs {b:?}", s.config),
        }
    }
}

#[test]
fn grid_is_the_full_cross_product_in_order() {
    let sweep = Sweep::new()
        .clocks([40e6, 200e6])
        .area_budgets([1_000, 2_000, 3_000])
        .opt_levels([OptLevel::O0, OptLevel::O1]);
    let configs = sweep.configs();
    assert_eq!(configs.len(), 12);
    assert_eq!(sweep.len(), 12);
    // level is the slowest axis, budget the fastest of the three.
    assert_eq!(configs[0].level, OptLevel::O0);
    assert_eq!(configs[0].clock_hz, 40e6);
    assert_eq!(configs[0].area_budget_gates, 1_000);
    assert_eq!(configs[1].area_budget_gates, 2_000);
    assert_eq!(configs[3].clock_hz, 200e6);
    assert_eq!(configs[6].level, OptLevel::O1);
}

#[test]
fn an_empty_axis_gives_an_empty_grid() {
    let grids = [
        ("clocks", Sweep::new().clocks([])),
        ("area_budgets", Sweep::new().area_budgets([])),
        ("opt_levels", Sweep::new().opt_levels([])),
        (
            "axis",
            Sweep::new().axis("coverage", [], |o, v| o.partition.coverage = v),
        ),
    ];
    for (what, grid) in grids {
        assert!(grid.is_empty(), "{what}");
        assert_eq!(grid.len(), 0, "{what}");
        assert!(grid.configs().is_empty(), "{what}");
        // A point off the empty grid still has options.
        let off_grid = PointConfig {
            level: OptLevel::O1,
            clock_hz: 100e6,
            area_budget_gates: 9_000,
            axis_row: 0,
        };
        let options = grid.options_for(&off_grid);
        assert_eq!(options.partition.area_budget_gates, 9_000, "{what}");
        let run = grid.run(|_| panic!("{what}: an empty grid compiled a binary"));
        assert!(run.points.is_empty(), "{what}");
        assert!(
            grid.run_naive(bench_compile("crc")).points.is_empty(),
            "{what}"
        );
    }
}

#[test]
fn staged_sweep_is_bit_identical_to_naive_loop() {
    let sweep = Sweep::with_base(base_with_recovery())
        .clocks([40e6, 200e6, 400e6])
        .area_budgets([15_000, 100_000, 250_000])
        .opt_levels(OptLevel::ALL);
    let staged = sweep.run(bench_compile("autcor00"));
    let naive = sweep.run_naive(bench_compile("autcor00"));
    assert_eq!(staged.points.len(), 36);
    assert_identical(&staged, &naive);
    assert!(staged.ok_points().count() == 36);
}

#[test]
fn flow_profile_matches_reference_engine_on_whole_suite() {
    // Every sweep point shares the flow's one profile. The profile stage
    // must equal the reference engine's run field for field on every
    // (benchmark, level) cell, so sharing it across points never depends
    // on how the fast engine produced it.
    let sim = SimConfig::default();
    for b in binpart_workloads::suite() {
        for level in OptLevel::ALL {
            let tag = format!("{} {level}", b.name);
            let binary = b.compile(level).expect("suite compiles");
            let flow = StagedFlow::new(&binary)
                .profile(sim)
                .unwrap_or_else(|e| panic!("{tag}: flow profile failed: {e}"));
            let reference = ReferenceMachine::with_config(&binary, sim)
                .expect("decodes")
                .run()
                .unwrap_or_else(|e| panic!("{tag}: reference run failed: {e}"));
            assert_eq!(flow.reason, reference.reason, "{tag}: exit reason");
            assert_eq!(flow.regs, reference.regs, "{tag}: registers");
            assert_eq!(flow.cycles, reference.cycles, "{tag}: cycles");
            assert_eq!(flow.instrs, reference.instrs, "{tag}: instrs");
            assert_eq!(flow.profile, reference.profile, "{tag}: profile");
        }
    }
}

#[test]
fn jump_table_benchmark_fails_points_without_recovery() {
    // tblook01 compiles to a jump table: plain CDFG recovery fails, so
    // every point reports the decompilation error instead of panicking.
    let sweep = Sweep::new().clocks([40e6, 200e6]);
    let result = sweep.run(bench_compile("tblook01"));
    assert_eq!(result.points.len(), 2);
    for p in &result.points {
        let err = p.outcome.as_ref().unwrap_err();
        assert!(err.contains("decompilation failed"), "{err}");
    }
    assert!(result.pareto().is_empty());
    assert!(result.best_speedup().is_none());
}

#[test]
fn pareto_frontier_is_nondominated_and_covers_best_points() {
    let sweep = Sweep::with_base(base_with_recovery())
        .clocks([40e6, 100e6, 200e6, 400e6])
        .area_budgets([5_000, 40_000, 250_000]);
    let result = sweep.run(bench_compile("aifirf01"));
    let frontier = result.pareto();
    assert!(!frontier.is_empty());
    // No successful point strictly dominates a frontier point.
    for fp in &frontier {
        let f = fp.outcome.as_ref().unwrap();
        for (_, r) in result.ok_points() {
            let dominates = r.speedup >= f.speedup
                && r.energy_savings >= f.energy_savings
                && r.area_gates <= f.area_gates
                && (r.speedup > f.speedup
                    || r.energy_savings > f.energy_savings
                    || r.area_gates < f.area_gates);
            assert!(!dominates, "frontier point dominated");
        }
    }
    // The global best-speedup point is always on the frontier.
    let best = result.best_speedup().unwrap();
    assert!(frontier.iter().any(|p| std::ptr::eq(*p, best)));
}

#[test]
fn custom_axis_applies_to_flow_options() {
    let sweep = Sweep::with_base(base_with_recovery()).clocks([200e6]).axis(
        "max_kernels",
        [1.0, 8.0],
        |options, v| {
            options.partition.max_kernels = v as usize;
        },
    );
    let result = sweep.run(bench_compile("jpegdct"));
    assert_eq!(result.points.len(), 2);
    let one = result.points[0].outcome.as_ref().unwrap();
    let eight = result.points[1].outcome.as_ref().unwrap();
    let first = sweep.options_for(&result.points[0].config);
    assert_eq!(first.partition.max_kernels, 1);
    assert!(one.kernels <= 1);
    assert!(eight.kernels >= one.kernels);
}

#[test]
fn every_point_equals_a_direct_evaluation_of_its_options() {
    // The base processor carries its own power model, so the base-clock
    // rule of `options_for` is observable in the energy numbers.
    let mut base = base_with_recovery();
    base.platform.cpu.name = "base core".into();
    base.platform.cpu.active_power_w = 0.9;
    let base_cpu = base.platform.cpu.clone();
    let sweep = Sweep::with_base(base)
        .clocks([40e6, base_cpu.clock_hz, 400e6])
        .area_budgets([15_000, 250_000])
        .axis("coverage", [0.6, 0.9], |o, v| o.partition.coverage = v);
    let mut compile = bench_compile("autcor00");
    let binary = compile(OptLevel::O1).expect("compiles");
    let flow = StagedFlow::new(&binary);
    let result = sweep.run(compile);
    assert_eq!(result.points.len(), 12);
    for (p, config) in result.points.iter().zip(sweep.configs()) {
        assert_eq!(p.config, config);
        let options = sweep.options_for(&config);
        if config.clock_hz == base_cpu.clock_hz {
            assert_eq!(
                options.platform.cpu, base_cpu,
                "base clock keeps the base core"
            );
        } else {
            assert_eq!(
                options.platform.cpu,
                binpart_platform::ProcessorSpec::mips(config.clock_hz)
            );
        }
        let direct = flow.evaluate(&options).expect("evaluates");
        let got = p.outcome.as_ref().expect("point evaluates");
        let at = format!("at {config:?}");
        assert_eq!(got.sw_cycles, direct.sw_cycles, "{at}");
        assert_eq!(got.sw_exit_value, direct.sw_exit_value, "{at}");
        assert_eq!(
            got.speedup.to_bits(),
            direct.hybrid.app_speedup.to_bits(),
            "{at}"
        );
        assert_eq!(
            got.energy_savings.to_bits(),
            direct.hybrid.energy_savings.to_bits(),
            "{at}"
        );
        assert_eq!(got.area_gates, direct.hybrid.total_area_gates, "{at}");
        assert_eq!(got.kernels, direct.partition.kernels.len(), "{at}");
        assert_eq!(
            got.coverage.to_bits(),
            direct.partition.coverage().to_bits(),
            "{at}"
        );
        assert_eq!(
            got.sw_time_s.to_bits(),
            direct.hybrid.sw_time_s.to_bits(),
            "{at}"
        );
        assert_eq!(
            got.hybrid_time_s.to_bits(),
            direct.hybrid.hybrid_time_s.to_bits(),
            "{at}"
        );
    }
}
