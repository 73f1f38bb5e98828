//! Design-space sweep wall clock: the staged engine (`binpart-explore`
//! over `StagedFlow`, shared artifacts + per-kernel synthesis memo) vs the
//! naive sweep — a fresh `StagedFlow` per point, nothing shared — on the
//! identical grid.
//!
//! The grid is the acceptance grid of the staged-flow work: 5 processor
//! clocks × 5 FPGA area budgets × 4 compiler levels on `autcor00` — 100
//! points. Both paths produce bit-identical results (asserted by
//! `crates/explore/tests/sweep.rs`); only the wall clock differs.
//!
//! `cargo bench -p binpart-bench --bench sweep_explore -- --smoke` runs
//! the CI perf smoke instead: best-of-3 single-core passes per engine,
//! asserting the staged sweep is never slower than the naive loop and
//! that `BENCH_sim.json` (if present) carries the sweep columns, the warm
//! `evaluate_us_per_point` included.

use binpart_core::flow::FlowOptions;
use binpart_explore::Sweep;
use binpart_minicc::OptLevel;
use binpart_workloads::Benchmark;
use criterion::{criterion_group, Criterion};

fn acceptance_sweep() -> (Sweep, Benchmark) {
    let b = binpart_workloads::suite()
        .into_iter()
        .find(|b| b.name == "autcor00")
        .expect("suite has autcor00");
    let mut base = FlowOptions::default();
    base.decompile.recover_jump_tables = true;
    let sweep = Sweep::with_base(base)
        .clocks([40e6, 100e6, 200e6, 300e6, 400e6])
        .area_budgets([5_000, 15_000, 40_000, 100_000, 250_000])
        .opt_levels(OptLevel::ALL);
    (sweep, b)
}

fn bench(c: &mut Criterion) {
    let (sweep, b) = acceptance_sweep();
    let compile = |level: OptLevel| b.compile(level).map_err(|e| e.to_string());
    let mut group = c.benchmark_group("sweep_explore");
    group.sample_size(10);
    group.bench_function("staged_100pt", |bench| {
        bench.iter(|| std::hint::black_box(sweep.run(compile).points.len()))
    });
    group.bench_function("naive_100pt", |bench| {
        bench.iter(|| std::hint::black_box(sweep.run_naive(compile).points.len()))
    });
    group.finish();
}

/// CI perf smoke: the staged sweep must never be slower than the naive
/// per-point loop, and the tracked snapshot must carry the sweep columns.
fn smoke() {
    let (sweep, b) = acceptance_sweep();
    let compile = |level: OptLevel| b.compile(level).map_err(|e| e.to_string());
    let points = sweep.len() as u64;
    std::env::set_var("BINPART_THREADS", "1");
    let (staged_s, staged_n) =
        binpart_bench::best_of(3, &|| sweep.run(compile).points.len() as u64);
    let (naive_s, naive_n) =
        binpart_bench::best_of(3, &|| sweep.run_naive(compile).points.len() as u64);
    std::env::remove_var("BINPART_THREADS");
    assert_eq!(staged_n, points, "staged sweep must evaluate the whole grid");
    assert_eq!(naive_n, points, "naive sweep must evaluate the whole grid");
    println!(
        "smoke: staged {points} pts in {:.4} s ({:.0} pts/s) | naive {:.4} s | speedup {:.1}x",
        staged_s,
        points as f64 / staged_s,
        naive_s,
        naive_s / staged_s
    );
    assert!(
        staged_s <= naive_s,
        "staged sweep slower than the naive loop: {staged_s:.4} s vs {naive_s:.4} s"
    );
    binpart_bench::assert_snapshot_columns(&[
        "decompile_funcs_per_sec",
        "sweep_points_per_sec",
        "sweep_speedup_vs_naive",
        "evaluate_us_per_point",
    ]);
    println!("smoke: PASS");
}

criterion_group!(benches, bench);

// A hand-rolled `criterion_main!`: identical dispatch, plus the `--smoke`
// CI mode (single-pass assertions instead of sampled measurement).
fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
    } else {
        benches();
    }
}
