//! Raw simulator throughput (retired instructions per second): the
//! engine `Machine::new` builds, unprofiled and profiled, vs the retained
//! seed engine (`binpart_mips::reference`).
//!
//! The workload is the full `(benchmark, OptLevel)` matrix — the exact set
//! of binaries the experiment harness simulates — plus per-level slices so
//! the two regimes are visible: at `-O1`+ (register-resident) the gap is
//! dispatch-bound, at `-O0` (memory-resident locals) the seed's four
//! hash-lookups-per-word memory dominates and the gap is an order of
//! magnitude.
//!
//! Suite-shaped inner loops fan out through `binpart_par::par_map`, so
//! multi-core machines exercise the work-stealing path while benchmarking
//! (pin `BINPART_THREADS=1` for single-core numbers).
//!
//! `cargo bench -p binpart-bench --bench sim_throughput -- --smoke` runs
//! the CI perf smoke instead: a best-of-three pass over the matrix,
//! asserting that throughput holds at least half the tracked
//! `sim_instrs_per_sec_fast` snapshot and that `BENCH_sim.json` (if
//! present) carries no null fields.

use binpart_minicc::OptLevel;
use binpart_mips::reference::ReferenceMachine;
use binpart_mips::sim::Machine;
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

fn run_unprofiled(bins: &[Binary]) -> u64 {
    par_map(bins, |b| {
        Machine::new(std::hint::black_box(b))
            .unwrap()
            .run_unprofiled()
            .unwrap()
            .instrs
    })
    .into_iter()
    .sum()
}

/// The profile the flow collects.
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
    group.bench_function("matrix_unprofiled", |b| {
        b.iter(|| run_unprofiled(&all_bins))
    });
    group.bench_function("matrix_profiled", |b| b.iter(|| run_profiled(&all_bins)));
    group.bench_function("matrix_reference_seed", |b| {
        b.iter(|| run_reference(&all_bins))
    });
    group.finish();

    // Per-level slices vs seed, so the dispatch-bound (-O1+) and
    // memory-bound (-O0) regimes stay visible.
    let mut group = c.benchmark_group("sim_throughput_by_level");
    group.sample_size(10);
    for (level, bins, total) in &per_level {
        group.throughput(Throughput::Elements(*total));
        group.bench_function(format!("{}_unprofiled", level.flag()), |b| {
            b.iter(|| run_unprofiled(bins))
        });
        group.bench_function(format!("{}_reference", level.flag()), |b| {
            b.iter(|| run_reference(bins))
        });
    }
    group.finish();
}

/// CI perf smoke: a timed pass over the full matrix (best of three),
/// asserting throughput against the tracked snapshot and that the
/// snapshot has no holes.
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
    let (best_s, retired) = binpart_bench::best_of(3, &|| run_unprofiled(&bins));
    assert_eq!(retired, total, "the engine must retire the matrix exactly");
    let fast = total as f64 / best_s;
    println!("smoke: {:.0} M instrs/s", fast / 1e6);
    // NullTelemetry overhead gate: the telemetry layer is compiled into the
    // flow this build, so throughput must stay within noise of the tracked
    // snapshot column. 0.5x is far below any plausible scheduler jitter on
    // a shared box but catches a monomorphization failure (accidental
    // dynamic dispatch or detail strings built when disabled) outright.
    match binpart_bench::read_snapshot_value("sim_instrs_per_sec_fast") {
        Some(prior) if prior > 0.0 => {
            assert!(
                fast >= 0.5 * prior,
                "throughput regressed with telemetry compiled in: \
                 {fast:.0}/s vs snapshot {prior:.0}/s (>2x loss)"
            );
            println!(
                "smoke: {:.0} M/s vs snapshot {:.0} M/s ({:.2}x) — NullTelemetry overhead gate PASS",
                fast / 1e6,
                prior / 1e6,
                fast / prior
            );
        }
        _ => println!(
            "smoke: no sim_instrs_per_sec_fast baseline in BENCH_sim.json, skipping telemetry overhead gate"
        ),
    }
    binpart_bench::assert_snapshot_columns(&[
        "sim_instrs_per_sec_fast",
        "sim_instrs_per_sec_seed",
        "trace_cache_hit_rate",
        "edge_profile_overhead_pct",
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
