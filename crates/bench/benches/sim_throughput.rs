//! Raw simulator throughput (retired instructions per second): each
//! `Engine` — unfused, fused, and the superblock engine the flow ships —
//! vs the retained seed engine (`binpart_mips::reference`), plus the cost
//! of each [`Profiler`] mode on the shipped engine.
//!
//! The workload is the full `(benchmark, OptLevel)` matrix — the exact set
//! of binaries the experiment harness simulates — plus per-level slices so
//! the two regimes are visible: at `-O1`+ (register-resident) the gap is
//! dispatch-bound (which is precisely what fusion attacks), at `-O0`
//! (memory-resident locals) the seed's four hash-lookups-per-word memory
//! dominates and the gap is an order of magnitude.
//!
//! Suite-shaped inner loops fan out through `binpart_par::par_map`, so
//! multi-core machines exercise the work-stealing path while benchmarking
//! (pin `BINPART_THREADS=1` for single-core numbers).
//!
//! `cargo bench -p binpart-bench --bench sim_throughput -- --smoke` runs
//! the CI perf smoke instead: one pass over the matrix per engine,
//! asserting that fusion and the trace cache each do not lose throughput
//! and that `BENCH_sim.json` (if present) carries no null fields.

use binpart_minicc::OptLevel;
use binpart_mips::reference::ReferenceMachine;
use binpart_mips::sim::{BlockCountProfiler, Engine, Machine, SimConfig};
use binpart_mips::Binary;
use binpart_par::par_map;
use binpart_workloads::suite;
use criterion::{criterion_group, Criterion, Throughput};

fn binaries(level: OptLevel) -> (Vec<Binary>, u64) {
    let bins: Vec<Binary> = par_map(&suite(), |b| b.compile(level).expect("suite compiles"));
    let total = par_map(&bins, |b| {
        Machine::new(b)
            .unwrap()
            .run_unprofiled()
            .expect("runs")
            .instrs
    })
    .into_iter()
    .sum();
    (bins, total)
}

fn run_engine(bins: &[Binary], engine: Engine) -> u64 {
    par_map(bins, |b| {
        Machine::with_engine(std::hint::black_box(b), SimConfig::default(), engine)
            .unwrap()
            .run_unprofiled()
            .unwrap()
            .instrs
    })
    .into_iter()
    .sum()
}

/// The full profiler on the engine `Machine::new` runs.
fn run_profiled(bins: &[Binary]) -> u64 {
    par_map(bins, |b| {
        Machine::new(std::hint::black_box(b))
            .unwrap()
            .run()
            .unwrap()
            .instrs
    })
    .into_iter()
    .sum()
}

/// The block-count profiler on the engine `Machine::new` runs.
fn run_blockcount(bins: &[Binary]) -> u64 {
    par_map(bins, |b| {
        let mut prof = BlockCountProfiler::new();
        Machine::new(std::hint::black_box(b))
            .unwrap()
            .run_with(&mut prof)
            .unwrap()
            .instrs
    })
    .into_iter()
    .sum()
}

fn run_reference(bins: &[Binary]) -> u64 {
    par_map(bins, |b| {
        ReferenceMachine::new(std::hint::black_box(b))
            .unwrap()
            .run()
            .unwrap()
            .instrs
    })
    .into_iter()
    .sum()
}

fn bench(c: &mut Criterion) {
    // Full matrix: every (benchmark, OptLevel) binary the harness simulates.
    let per_level: Vec<(OptLevel, Vec<Binary>, u64)> = OptLevel::ALL
        .into_iter()
        .map(|l| {
            let (bins, total) = binaries(l);
            (l, bins, total)
        })
        .collect();
    let matrix_total: u64 = per_level.iter().map(|(_, _, n)| n).sum();
    let all_bins: Vec<Binary> = per_level
        .iter()
        .flat_map(|(_, bins, _)| bins.iter().cloned())
        .collect();

    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(matrix_total));
    group.bench_function("matrix_unfused_unprofiled", |b| {
        b.iter(|| run_engine(&all_bins, Engine::Unfused))
    });
    group.bench_function("matrix_fused_unprofiled", |b| {
        b.iter(|| run_engine(&all_bins, Engine::Fused))
    });
    group.bench_function("matrix_superblock_unprofiled", |b| {
        b.iter(|| run_engine(&all_bins, Engine::Superblock))
    });
    group.bench_function("matrix_superblock_profiled_full", |b| {
        b.iter(|| run_profiled(&all_bins))
    });
    group.bench_function("matrix_superblock_profiled_blockcount", |b| {
        b.iter(|| run_blockcount(&all_bins))
    });
    group.bench_function("matrix_reference_seed", |b| {
        b.iter(|| run_reference(&all_bins))
    });
    group.finish();

    // Per-level slices: every engine vs seed, so the dispatch-bound
    // (-O1+) and memory-bound (-O0) regimes stay visible.
    let mut group = c.benchmark_group("sim_throughput_by_level");
    group.sample_size(10);
    for (level, bins, total) in &per_level {
        group.throughput(Throughput::Elements(*total));
        for (name, engine) in [
            ("unfused", Engine::Unfused),
            ("fused", Engine::Fused),
            ("superblock", Engine::Superblock),
        ] {
            group.bench_function(format!("{}_{name}", level.flag()), |b| {
                b.iter(|| run_engine(bins, engine))
            });
        }
        group.bench_function(format!("{}_reference", level.flag()), |b| {
            b.iter(|| run_reference(bins))
        });
    }
    group.finish();
}

/// CI perf smoke: a single timed pass per engine over the full matrix
/// (best of three), asserting neither fusion nor the trace cache loses
/// throughput and the tracked perf snapshot has no holes.
fn smoke() {
    let (bins, total): (Vec<Binary>, u64) = {
        let mut all = Vec::new();
        let mut n = 0;
        for level in OptLevel::ALL {
            let (bins, t) = binaries(level);
            all.extend(bins);
            n += t;
        }
        (all, n)
    };
    let best_ips = |f: &dyn Fn() -> u64| -> f64 {
        let (best_s, retired) = binpart_bench::best_of(3, f);
        assert_eq!(retired, total, "engines must retire the matrix exactly");
        total as f64 / best_s
    };
    let unfused = best_ips(&|| run_engine(&bins, Engine::Unfused));
    let fused = best_ips(&|| run_engine(&bins, Engine::Fused));
    let superblock = best_ips(&|| run_engine(&bins, Engine::Superblock));
    println!(
        "smoke: unfused {:.0} M/s | fused {:.0} M/s | superblock {:.0} M/s",
        unfused / 1e6,
        fused / 1e6,
        superblock / 1e6
    );
    assert!(
        fused >= unfused,
        "fusion lost throughput: unfused {unfused:.0}/s, fused {fused:.0}/s"
    );
    assert!(
        superblock >= fused,
        "superblock engine lost throughput: superblock {superblock:.0}/s vs fused {fused:.0}/s"
    );
    // NullTelemetry overhead gate: the telemetry layer is compiled into the
    // flow this build, so superblock throughput must stay within noise of
    // the tracked pre-telemetry snapshot column. 0.5x is far below any
    // plausible scheduler jitter on a shared box but catches a
    // monomorphization failure (accidental dynamic dispatch or detail
    // strings built when disabled) outright.
    match binpart_bench::read_snapshot_value("sim_instrs_per_sec_superblock") {
        Some(prior) if prior > 0.0 => {
            assert!(
                superblock >= 0.5 * prior,
                "superblock throughput regressed with telemetry compiled in: \
                 {superblock:.0}/s vs snapshot {prior:.0}/s (>2x loss)"
            );
            println!(
                "smoke: superblock {:.0} M/s vs snapshot {:.0} M/s ({:.2}x) — NullTelemetry overhead gate PASS",
                superblock / 1e6,
                prior / 1e6,
                superblock / prior
            );
        }
        _ => println!(
            "smoke: no sim_instrs_per_sec_superblock baseline in BENCH_sim.json, skipping telemetry overhead gate"
        ),
    }
    binpart_bench::assert_snapshot_columns(&[
        "sim_instrs_per_sec_fast",
        "sim_instrs_per_sec_fused",
        "sim_instrs_per_sec_unfused",
        "sim_instrs_per_sec_seed",
        "sim_instrs_per_sec_superblock",
        "superblock_speedup",
        "trace_cache_hit_rate",
        "blockcount_profile_overhead_pct",
        "decompile_funcs_per_sec",
        "sweep_points_per_sec",
        "sweep_speedup_vs_naive",
        "stage_wall_s_profile",
        "stage_wall_s_decompile",
        "stage_wall_s_estimate",
        "stage_wall_s_evaluate",
        "stage_wall_s_cosimulate",
        "estimate_cache_hit_rate",
        "trace_side_exit_rate",
        "full_suite_wall_clock_s",
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
