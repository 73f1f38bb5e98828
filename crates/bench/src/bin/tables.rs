//! Regenerates every table/figure of the DATE'05 evaluation.
//!
//! Usage: `tables [e1|e2|e3|e4|a1|a2|a3|check|telemetry|hwprof|trend|all]`
//! (no argument means `all`; anything else prints this usage and exits 2).
//!
//! `all` additionally writes `BENCH_sim.json` (simulator instructions/sec
//! for the fast and seed engines, plus the wall-clock of the whole table
//! regeneration) so the performance trajectory is tracked across PRs, and
//! appends it as one flat line to `BENCH_history.jsonl`, stamped with a
//! monotonic `run_id`. It is the only snapshot writer.
//!
//! `check` is the CI perf and exactness gate on that snapshot: every column
//! present and non-null, simulator, decompiler and co-simulation
//! throughput at least half the snapshot's, warm evaluation, cold
//! synthesis and cold estimate costs at most twice the snapshot's, the
//! staged sweep no slower than the naive one, and the co-simulation matrix
//! exact. It re-measures through the same
//! functions that write the columns, and exits 1 naming any failure.
//!
//! `telemetry` runs one instrumented pass (full cosim matrix + the
//! standard 100-point sweep on a single recorder), renders the telemetry
//! summary table, writes + validates the Chrome-trace export
//! (`BENCH_trace.json`, loadable in `chrome://tracing` / Perfetto) and a
//! collapsed-stack flamegraph of one benchmark's exact per-instruction
//! counts (`BENCH_flame.txt`).
//!
//! `hwprof` runs the instrumented co-simulation on two benchmarks and
//! renders the per-kernel FSMD cycle-attribution table (steady-state II /
//! fill-drain / bus-stall / sequential split, state coverage), asserting
//! the attribution-conservation invariant along the way — the CI
//! hardware-observability smoke.
//!
//! `trend` compares the last two `BENCH_history.jsonl` entries and prints
//! per-column deltas.
//!
//! `ab --pairs N --base '<cmd>' --change '<cmd>'` runs two shell commands
//! in N alternating pairs and judges every metric of their result lines
//! by the claim rule ([`binpart_bench::ab`]).

use binpart_bench::*;
use binpart_core::flow::FlowOptions;
use binpart_core::stage::StagedFlow;
use binpart_minicc::OptLevel;
use binpart_mips::reference::ReferenceMachine;
use binpart_mips::sim::Machine;
use binpart_mips::Binary;
use std::time::Instant;

const USAGE: &str = "usage: tables [e1|e2|e3|e4|a1|a2|a3|check|telemetry|hwprof|trend|all]\n       tables ab --pairs N --base '<cmd>' --change '<cmd>'";

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match which.as_str() {
        "e1" => e1(),
        "e2" => e2(),
        "e3" => e3(),
        "e4" => e4(),
        "a1" => a1(),
        "a2" => a2(),
        "a3" => a3(),
        "check" => check(),
        "telemetry" => telemetry(),
        "hwprof" => hwprof(),
        "trend" => trend(),
        "ab" => ab(std::env::args().skip(2)),
        "all" => {
            let t0 = Instant::now();
            e1();
            e2();
            e3();
            e4();
            a1();
            a2();
            a3();
            let suite_wall = t0.elapsed().as_secs_f64();
            println!(
                "regenerated all tables in {suite_wall:.3} s ({} (benchmark, level) compiles)",
                CompiledSuite::entries_built()
            );
            let report = sim_report(suite_wall);
            write_bench_json(&report);
        }
        other => {
            eprintln!("tables: unknown subcommand `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    }
}

struct SimReport {
    /// `Machine::run_unprofiled` on fresh machines.
    fast_ips: f64,
    /// Fraction of dynamic instructions retired inside installed
    /// superblocks during the measurement pass (trace-cache coverage).
    trace_cache_hit_rate: f64,
    seed_ips: f64,
    /// Relative cost of `Machine::run` (the profile the flow collects) vs
    /// `Machine::run_unprofiled`, in percent.
    edge_overhead_pct: f64,
    total_instrs: u64,
    /// Decompile-stage throughput over the matrix (functions/second,
    /// jump-table recovery on so every binary completes).
    decompile_funcs_per_sec: f64,
    /// Staged design-space sweep throughput (points/second, single-core,
    /// 5 clocks × 5 budgets × 4 levels on autcor00), cold stages included.
    sweep_points_per_sec: f64,
    /// Warm `StagedFlow::evaluate` cost per point of that grid, in µs
    /// (stages and synthesis memo built first; median of five passes).
    evaluate_us_per_point: f64,
    /// Cold `evaluate` cost per synthesis-memo miss over the matrix, in µs
    /// (median of five passes).
    synth_us_per_miss: f64,
    /// Cold `estimate` cost per cell over the matrix, in µs (median of five
    /// passes).
    estimate_us_per_cell: f64,
    /// Wall-clock ratio of the naive sweep (a fresh `StagedFlow` per
    /// point) to the staged sweep over the same grid (single-core).
    sweep_speedup_vs_naive: f64,
    /// Hybrid co-simulation throughput over the matrix: software-equivalent
    /// cycles co-simulated per second (SW oracle + FSMD + per-invocation
    /// store differential).
    cosim_cycles_per_sec: f64,
    /// Mean |measured − analytic| hardware-cycle error, percent, over every
    /// hardware-executed kernel of the matrix.
    estimate_error_pct_mean: f64,
    /// Maximum |estimate error|, percent.
    estimate_error_pct_max: f64,
    /// Per-stage wall clock and cache rates from the instrumented
    /// telemetry pass (full cosim matrix + 100-point sweep; see
    /// [`binpart_bench::telemetry_pass`]).
    telemetry: TelemetryColumns,
    suite_wall_s: f64,
}

/// Passes per timed simulator and decompiler column: the numbers feed a
/// tracked JSON snapshot, and the profiler-overhead column is a small
/// difference of large numbers, so shave scheduler noise hard.
const SIM_PASSES: usize = 5;

/// Every (benchmark, OptLevel) binary the harness simulates.
fn matrix_binaries() -> Vec<&'static Binary> {
    let suite = binpart_workloads::suite();
    OptLevel::ALL
        .into_iter()
        .flat_map(|level| {
            suite
                .iter()
                .map(move |b| CompiledSuite::get(b, level).binary)
        })
        .collect()
}

/// Times the fast engine over the matrix: `Machine::run_unprofiled` on
/// fresh machines (so trace recording counts), single-threaded, best of
/// [`SIM_PASSES`]. Returns `(seconds, instructions retired, instructions
/// retired inside installed superblocks)`. The `sim_instrs_per_sec_fast`
/// column and `check`'s simulator floor both come from here.
fn fast_engine_pass(bins: &[&Binary]) -> (f64, u64, u64) {
    let sb_instrs = std::cell::Cell::new(0u64);
    let (secs, total) = best_of(SIM_PASSES, &|| {
        let mut inside = 0u64;
        let n = bins
            .iter()
            .map(|bin| {
                let mut m = Machine::new(bin).expect("decodes");
                let instrs = m.run_unprofiled().expect("runs").instrs;
                inside += m.trace_cache_stats().superblock_instrs;
                instrs
            })
            .sum();
        sb_instrs.set(inside);
        n
    });
    (secs, total, sb_instrs.get())
}

/// Decompile-stage throughput over the matrix, in functions per second:
/// `decompile` with jump-table recovery on (so the two jump-table
/// benchmarks complete too), single-threaded, best of [`SIM_PASSES`]. The
/// `decompile_funcs_per_sec` column and `check`'s decompiler floor both
/// come from here.
fn decompile_funcs_per_sec(bins: &[&Binary]) -> f64 {
    let dopts = binpart_core::DecompileOptions {
        recover_jump_tables: true,
        ..Default::default()
    };
    let (secs, funcs) = best_of(SIM_PASSES, &|| {
        bins.iter()
            .filter_map(|bin| binpart_core::decompile(bin, dopts).ok())
            .map(|p| p.stats.functions as u64)
            .sum()
    });
    funcs as f64 / secs
}

/// Measures raw simulator throughput over the full (benchmark, OptLevel)
/// matrix, unprofiled and profiled, vs the retained seed engine.
/// Single-threaded on purpose —
/// the instrs/sec trajectory must be comparable across PRs regardless of
/// the host's core count.
fn sim_report(suite_wall_s: f64) -> SimReport {
    let bins = matrix_binaries();
    let best = |run: &dyn Fn() -> u64| best_of(SIM_PASSES, run);
    let (fast_s, total, sb_instrs) = fast_engine_pass(&bins);
    let (profiled_s, _) = best(&|| {
        bins.iter()
            .map(|bin| Machine::new(bin).expect("decodes").run().expect("runs").instrs)
            .sum()
    });
    let (seed_s, _) = best(&|| {
        bins.iter()
            .map(|bin| {
                ReferenceMachine::new(bin)
                    .expect("decodes")
                    .run()
                    .expect("runs")
                    .instrs
            })
            .sum()
    });
    let (sweep_points_per_sec, sweep_speedup_vs_naive) = sweep_report();
    let evaluate_us_per_point = evaluate_report();
    let synth_us_per_miss = synth_report();
    let estimate_us_per_cell = estimate_report();
    let cosim = run_cosim_matrix(COSIM_PASSES);
    if let Err(e) = cosim_exactness(&cosim) {
        panic!("{e} during the snapshot pass");
    }
    let (_, telemetry) = telemetry_pass();
    let ips = |s: f64| total as f64 / s;
    SimReport {
        fast_ips: ips(fast_s),
        trace_cache_hit_rate: sb_instrs as f64 / total as f64,
        seed_ips: ips(seed_s),
        edge_overhead_pct: 100.0 * (profiled_s - fast_s) / fast_s,
        total_instrs: total,
        decompile_funcs_per_sec: decompile_funcs_per_sec(&bins),
        sweep_points_per_sec,
        evaluate_us_per_point,
        synth_us_per_miss,
        estimate_us_per_cell,
        sweep_speedup_vs_naive,
        cosim_cycles_per_sec: cosim.cosim_cycles_per_sec,
        estimate_error_pct_mean: cosim.estimate_error_pct_mean,
        estimate_error_pct_max: cosim.estimate_error_pct_max,
        telemetry,
        suite_wall_s,
    }
}

/// Passes of the co-simulation matrix behind `cosim_cycles_per_sec`.
const COSIM_PASSES: usize = 3;

/// The co-simulation matrix's exactness contract: every cell's hybrid exit
/// bit-identical to pure software, zero HW/SW store divergences, and real
/// hardware executed.
fn cosim_exactness(c: &CosimMatrixSummary) -> Result<(), String> {
    if c.store_mismatches != 0 {
        return Err(format!(
            "{} hardware store sequences diverged",
            c.store_mismatches
        ));
    }
    if c.bit_identical_cells != c.cells {
        return Err(format!(
            "hybrid exits diverged from software on {} of {} cells",
            c.cells - c.bit_identical_cells,
            c.cells
        ));
    }
    if c.hw_invocations == 0 {
        return Err("the co-simulation matrix executed no hardware".into());
    }
    Ok(())
}

/// A throughput floor: `measured` must hold at least half the snapshot's
/// `column`, both shown divided by `scale` in `unit`. The 0.5x margin
/// absorbs shared-host noise but catches a telemetry probe that escaped
/// its compile-time guard (which costs well over 2x) outright.
fn floor(column: &str, measured: f64, scale: f64, unit: &str) -> Result<String, String> {
    let Some(snapshot) = read_snapshot_value(column) else {
        return Err(format!("{column}: no value in {SNAPSHOT}"));
    };
    let line = format!(
        "{column}: measured {:.1} {unit} vs snapshot {:.1} {unit} ({:.2}x, floor 0.50x)",
        measured / scale,
        snapshot / scale,
        measured / snapshot
    );
    gate(measured >= 0.5 * snapshot, line)
}

/// A cost ceiling, the mirror of [`floor`]: `measured` (µs per unit of
/// work) must stay within twice the snapshot's `column`.
fn ceiling(column: &str, measured: f64) -> Result<String, String> {
    let Some(snapshot) = read_snapshot_value(column) else {
        return Err(format!("{column}: no value in {SNAPSHOT}"));
    };
    let line = format!(
        "{column}: measured {measured:.3} us vs snapshot {snapshot:.3} us ({:.2}x, ceiling 2.00x)",
        measured / snapshot
    );
    gate(measured <= 2.0 * snapshot, line)
}

/// One gate's outcome: its report line, as `Err` when the gate failed.
fn gate(pass: bool, line: String) -> Result<String, String> {
    if pass {
        Ok(line)
    } else {
        Err(line)
    }
}

/// The `check` subcommand: the snapshot's columns, then each gate
/// re-measured by the code that writes its column. Prints one line per gate
/// and exits 1 if any failed.
fn check() {
    match check_snapshot_columns(&COLUMNS) {
        Ok(true) => println!(
            "check: {SNAPSHOT} carries all {} columns, none null",
            COLUMNS.len()
        ),
        Ok(false) => {
            eprintln!(
                "check: FAIL {SNAPSHOT} not found in the working directory; run `tables all` first"
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("check: FAIL {e}");
            std::process::exit(1);
        }
    }
    let bins = matrix_binaries();
    let (fast_s, total, _) = fast_engine_pass(&bins);
    let snapshot_total = read_snapshot_value("matrix_total_instrs");
    let retired = format!(
        "matrix_total_instrs: fast engine retired {total} instructions, snapshot {}",
        snapshot_total.unwrap_or(f64::NAN)
    );
    let (_, sweep_speedup) = sweep_report();
    let sweep = format!(
        "sweep_speedup_vs_naive: staged sweep {sweep_speedup:.2}x faster than naive (floor 1.00x)"
    );
    let cosim = run_cosim_matrix(COSIM_PASSES);
    let results = [
        gate(snapshot_total == Some(total as f64), retired),
        floor("sim_instrs_per_sec_fast", total as f64 / fast_s, 1e6, "M/s"),
        floor("decompile_funcs_per_sec", decompile_funcs_per_sec(&bins), 1.0, "funcs/s"),
        gate(sweep_speedup >= 1.0, sweep),
        ceiling("evaluate_us_per_point", evaluate_report()),
        ceiling("synth_us_per_miss", synth_report()),
        ceiling("estimate_us_per_cell", estimate_report()),
        cosim_exactness(&cosim).map(|()| {
            format!(
                "cosim exactness: {} cells bit-identical, 0 store mismatches, {} hardware invocations",
                cosim.cells, cosim.hw_invocations
            )
        }),
        floor("cosim_cycles_per_sec", cosim.cosim_cycles_per_sec, 1e6, "M/s"),
    ];
    let mut failed = false;
    for result in results {
        match result {
            Ok(line) => println!("check: ok   {line}"),
            Err(line) => {
                failed = true;
                eprintln!("check: FAIL {line}");
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("check: PASS");
}

/// The `telemetry` subcommand: one instrumented pass, rendered summary,
/// and validated Chrome-trace + flamegraph artifacts.
fn telemetry() {
    use binpart_telemetry::{collapse_pc_counts, validate_json, FuncExtent};

    let (rec, cols) = telemetry_pass();
    print!("{}", rec.report().render());

    let trace = rec.chrome_trace().expect("span stream balances");
    validate_json(&trace).expect("chrome trace parses");
    let trace_path = "BENCH_trace.json";
    match std::fs::write(trace_path, &trace) {
        Ok(()) => println!(
            "wrote {trace_path}: {} bytes, load in chrome://tracing or Perfetto",
            trace.len()
        ),
        Err(e) => eprintln!("error: could not write {trace_path}: {e}"),
    }

    // Profile one representative benchmark and collapse its exact
    // per-instruction counts through the recovered function extents into
    // flamegraph text. minicc binaries carry no symbol
    // table, so the extents come from the decompiler's own function
    // discovery: each lifted entry address owns the text up to the next
    // entry (entries are function starts, so the gaps are exact).
    let b = binpart_workloads::suite()
        .into_iter()
        .find(|b| b.name == "tblook01")
        .expect("suite has tblook01");
    let bin = b.compile(OptLevel::O1).expect("compiles");
    let profile = Machine::new(&bin)
        .expect("decodes")
        .run()
        .expect("runs")
        .profile;
    let counts: Vec<(u32, u64)> = profile
        .counts
        .iter()
        .enumerate()
        .map(|(i, &c)| (bin.text_base + 4 * i as u32, c))
        .collect();
    let lifted = binpart_core::lift::lift_program(
        &bin,
        binpart_core::DecompileOptions {
            recover_jump_tables: true,
            ..Default::default()
        },
    )
    .expect("tblook01 lifts");
    let mut funcs: Vec<(u32, String)> = lifted
        .entries
        .iter()
        .copied()
        .zip(lifted.functions.iter().map(|f| f.name.clone()))
        .collect();
    funcs.sort_by_key(|&(entry, _)| entry);
    let extents: Vec<FuncExtent> = funcs
        .iter()
        .enumerate()
        .map(|(i, (lo, name))| FuncExtent {
            name: name.clone(),
            lo: *lo,
            hi: funcs.get(i + 1).map_or(bin.text_end(), |&(next, _)| next),
        })
        .collect();
    let flame = collapse_pc_counts(b.name, &counts, &extents);
    let flame_path = "BENCH_flame.txt";
    match std::fs::write(flame_path, &flame) {
        Ok(()) => println!(
            "wrote {flame_path}: {} frames from {} executed instructions (collapsed-stack format)",
            flame.lines().count(),
            profile.total_instrs
        ),
        Err(e) => eprintln!("error: could not write {flame_path}: {e}"),
    }

    println!(
        "telemetry: stages profile {:.4}s decompile {:.4}s estimate {:.4}s evaluate {:.4}s cosim {:.4}s | estimate cache {:.1}% hit | trace side-exit rate {:.3}",
        cols.stage_wall_s_profile,
        cols.stage_wall_s_decompile,
        cols.stage_wall_s_estimate,
        cols.stage_wall_s_evaluate,
        cols.stage_wall_s_cosimulate,
        cols.estimate_cache_hit_rate * 100.0,
        cols.trace_side_exit_rate,
    );
}

/// The `hwprof` subcommand: instrumented co-simulation over two benchmarks
/// (every OptLevel), per-kernel cycle-attribution table, and the hard
/// checks CI leans on — exact attribution conservation and structurally
/// valid first-invocation VCDs.
fn hwprof() {
    use binpart_telemetry::Recorder;
    let mut options = FlowOptions::default();
    options.decompile.recover_jump_tables = true;
    println!("== hwprof: measured FSMD cycle attribution (instrumented co-simulation) ==");
    println!(
        "{:<12} {:<4} {:<20} {:>10} {:>10} {:>8} {:>8} {:>8} {:>7} {:>7} {:>6}",
        "benchmark", "lvl", "kernel", "cycles", "steady", "fill", "stall", "seq", "stall%", "fill%", "cov%"
    );
    let benches: Vec<_> = binpart_workloads::opt_level_subset()
        .into_iter()
        .take(2)
        .collect();
    let mut profiled = 0usize;
    for b in &benches {
        for level in OptLevel::ALL {
            let binary = b.compile(level).expect("compiles");
            let rec = Recorder::new();
            let staged = StagedFlow::with_telemetry(&binary, &rec);
            let report = staged.cosimulate(&options).expect("cosimulates");
            for k in &report.kernels {
                let Some(p) = &k.hw_profile else { continue };
                profiled += 1;
                println!(
                    "{:<12} {:<4} {:<20} {:>10} {:>10} {:>8} {:>8} {:>8} {:>6.1}% {:>6.1}% {:>5.0}%",
                    b.name,
                    level.flag(),
                    k.name,
                    p.measured_cycles,
                    p.attributed.steady_ii,
                    p.attributed.fill_drain,
                    p.attributed.bus_stall,
                    p.attributed.block_seq,
                    p.bus_stall_pct(),
                    p.fill_overhead_pct(),
                    p.state_coverage() * 100.0,
                );
                // The conservation invariant: the attribution split and the
                // per-state occupancy each sum to the measured cycles,
                // exactly — by construction of the instrumented executor.
                assert_eq!(
                    p.attributed.total(),
                    p.measured_cycles,
                    "{} {}: attributed cycles do not sum to measured",
                    b.name,
                    k.name
                );
                assert_eq!(
                    p.state_cycles.iter().map(|&(_, c)| c).sum::<u64>(),
                    p.measured_cycles,
                    "{} {}: per-state occupancy does not sum to measured",
                    b.name,
                    k.name
                );
                // The first-invocation waveform is present and renders to a
                // structurally valid VCD: header, at least one signal, value
                // dump.
                if k.hw_invocations > 0 {
                    let vcd = p.vcd().unwrap_or_default();
                    for marker in ["$timescale", "$var wire", "$enddefinitions", "$dumpvars", "#0"] {
                        assert!(
                            vcd.contains(marker),
                            "{} {}: VCD missing {marker}",
                            b.name,
                            k.name
                        );
                    }
                }
            }
        }
    }
    assert!(profiled > 0, "hwprof saw no instrumented kernel profiles");
    println!("hwprof: {profiled} kernel profiles, attribution conserved exactly, VCDs well-formed");
}

/// The `trend` subcommand: per-column deltas between the last two
/// `BENCH_history.jsonl` entries.
fn trend() {
    let path = "BENCH_history.jsonl";
    let Some((prev, cur)) = history_last_two(path) else {
        println!("trend: {path} holds fewer than two runs; run `tables all` to append one");
        return;
    };
    let id = |cols: &[(String, f64)]| {
        cols.iter()
            .find(|(k, _)| k == "run_id")
            .map_or(0u64, |&(_, v)| v as u64)
    };
    println!("== trend: run {} -> run {} ==", id(&prev), id(&cur));
    println!(
        "{:<34} {:>16} {:>16} {:>10}",
        "column", "previous", "current", "delta%"
    );
    for (key, now) in &cur {
        if key == "run_id" {
            continue;
        }
        let Some((_, was)) = prev.iter().find(|(k, _)| k == key) else {
            println!("{key:<34} {:>16} {now:>16.4} {:>10}", "-", "new");
            continue;
        };
        let delta = if *was == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.1}%", 100.0 * (now - was) / was)
        };
        println!("{key:<34} {was:>16.4} {now:>16.4} {delta:>10}");
    }
}

/// Measures the staged design-space sweep over [`snapshot_sweep`]'s grid
/// (fresh caches per pass) against the naive sweep — a fresh `StagedFlow`
/// per point — over the identical grid, best of three each. Pinned to one
/// thread so the staging win — not the host's core count — is what the
/// snapshot tracks. Returns `(staged points/s, naive/staged wall ratio)`.
fn sweep_report() -> (f64, f64) {
    let (sweep, b) = snapshot_sweep();
    let points = sweep.len() as u64;
    let prev_threads = std::env::var("BINPART_THREADS").ok();
    std::env::set_var("BINPART_THREADS", "1");
    let compile =
        |level: OptLevel| b.compile(level).map_err(|e| e.to_string());
    let (staged_s, staged_n) = best_of(3, &|| sweep.run(compile).points.len() as u64);
    let (naive_s, naive_n) = best_of(3, &|| sweep.run_naive(compile).points.len() as u64);
    match prev_threads {
        Some(v) => std::env::set_var("BINPART_THREADS", v),
        None => std::env::remove_var("BINPART_THREADS"),
    }
    assert_eq!(staged_n, points);
    assert_eq!(naive_n, points);
    (points as f64 / staged_s, naive_s / staged_s)
}

/// Warm evaluation cost: one `StagedFlow` per level with its stages built
/// and one untimed pass to fill the synthesis memo, then the snapshot
/// grid replayed through `StagedFlow::evaluate` five times. Returns the
/// median pass time per point, in µs — `evaluate` alone, no profile,
/// decompile, estimate or sweep machinery.
fn evaluate_report() -> f64 {
    let (sweep, b) = snapshot_sweep();
    let binaries: Vec<(OptLevel, binpart_mips::Binary)> = OptLevel::ALL
        .into_iter()
        .map(|level| (level, b.compile(level).expect("autcor00 compiles")))
        .collect();
    let flows: Vec<(OptLevel, StagedFlow<'_>)> = binaries
        .iter()
        .map(|(level, bin)| (*level, StagedFlow::new(bin)))
        .collect();
    let points: Vec<(&StagedFlow<'_>, FlowOptions)> = sweep
        .configs()
        .iter()
        .map(|c| {
            let (_, flow) = flows
                .iter()
                .find(|(level, _)| *level == c.level)
                .expect("one flow per level");
            (flow, sweep.options_for(c))
        })
        .collect();
    let pass = || {
        for (flow, options) in &points {
            std::hint::black_box(flow.evaluate(options).expect("autcor00 evaluates"));
        }
    };
    for (_, flow) in &flows {
        let o = &points[0].1;
        flow.estimate(o.decompile, o.sim).expect("stages build");
    }
    pass();
    let mut secs: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            pass();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    1e6 * secs[secs.len() / 2] / points.len() as f64
}

/// One cold stage timed over the 80 (benchmark, OptLevel) cells at
/// `FlowOptions::default()` with jump-table recovery on: `cell` gets a
/// fresh `StagedFlow` per cell, builds the stage's inputs untimed, times
/// the stage, and returns `(seconds, units of work)`. Microseconds per
/// unit, median of five passes, single-core.
fn cold_stage_us(cell: impl Fn(&StagedFlow<'_>, &FlowOptions) -> (f64, u64)) -> f64 {
    let suite = binpart_workloads::suite();
    let mut options = FlowOptions::default();
    options.decompile.recover_jump_tables = true;
    let pass = || {
        let (mut secs, mut units) = (0.0, 0u64);
        for b in &suite {
            for level in OptLevel::ALL {
                let flow = StagedFlow::new(CompiledSuite::get(b, level).binary);
                let (s, n) = cell(&flow, &options);
                secs += s;
                units += n;
            }
        }
        1e6 * secs / units.max(1) as f64
    };
    let mut per_unit: Vec<f64> = (0..5).map(|_| pass()).collect();
    per_unit.sort_by(f64::total_cmp);
    per_unit[per_unit.len() / 2]
}

/// Cold synthesis cost: the first `evaluate` of each cell, its profile,
/// decompile and estimate stages built untimed — the evaluation that
/// fills the synthesis memo. Microseconds per memo miss (the pass's total
/// evaluate time over its total `EstimateCache` misses).
fn synth_report() -> f64 {
    cold_stage_us(|flow, o| {
        let est = flow
            .estimate(o.decompile, o.sim)
            .expect("suite stages build");
        let t0 = Instant::now();
        std::hint::black_box(flow.evaluate(o).expect("suite evaluates"));
        (t0.elapsed().as_secs_f64(), est.cache.misses())
    })
}

/// Cold estimate cost: the first `estimate` of each cell, its profile and
/// decompile stages built untimed — the block counts and the candidate
/// harvest (loop nests, cycle weights, alias analysis).
/// Microseconds per cell.
fn estimate_report() -> f64 {
    cold_stage_us(|flow, o| {
        flow.profile(o.sim).expect("suite profiles");
        flow.decompile(o.decompile).expect("suite decompiles");
        let t0 = Instant::now();
        std::hint::black_box(flow.estimate(o.decompile, o.sim).expect("suite estimates"));
        (t0.elapsed().as_secs_f64(), 1)
    })
}

/// The snapshot's columns, in the order [`write_bench_json`] writes them.
const COLUMNS: [&str; 26] = [
    "sim_instrs_per_sec_fast",
    "sim_instrs_per_sec_seed",
    "sim_speedup",
    "trace_cache_hit_rate",
    "edge_profile_overhead_pct",
    "matrix_total_instrs",
    "decompile_funcs_per_sec",
    "sweep_points_per_sec",
    "evaluate_us_per_point",
    "synth_us_per_miss",
    "estimate_us_per_cell",
    "sweep_speedup_vs_naive",
    "cosim_cycles_per_sec",
    "estimate_error_pct_mean",
    "estimate_error_pct_max",
    "stage_wall_s_profile",
    "stage_wall_s_decompile",
    "stage_wall_s_estimate",
    "stage_wall_s_evaluate",
    "stage_wall_s_cosimulate",
    "estimate_cache_hit_rate",
    "trace_side_exit_rate",
    "hw_bus_stall_pct",
    "hw_fill_overhead_pct",
    "hw_state_coverage",
    "full_suite_wall_clock_s",
];

fn write_bench_json(r: &SimReport) {
    let path = SNAPSHOT;
    let values: [String; COLUMNS.len()] = [
        format!("{:.0}", r.fast_ips),
        format!("{:.0}", r.seed_ips),
        format!("{:.2}", r.fast_ips / r.seed_ips),
        format!("{:.3}", r.trace_cache_hit_rate),
        format!("{:.1}", r.edge_overhead_pct),
        format!("{}", r.total_instrs),
        format!("{:.0}", r.decompile_funcs_per_sec),
        format!("{:.0}", r.sweep_points_per_sec),
        format!("{:.3}", r.evaluate_us_per_point),
        format!("{:.2}", r.synth_us_per_miss),
        format!("{:.2}", r.estimate_us_per_cell),
        format!("{:.2}", r.sweep_speedup_vs_naive),
        format!("{:.0}", r.cosim_cycles_per_sec),
        format!("{:.2}", r.estimate_error_pct_mean),
        format!("{:.2}", r.estimate_error_pct_max),
        format!("{:.6}", r.telemetry.stage_wall_s_profile),
        format!("{:.6}", r.telemetry.stage_wall_s_decompile),
        format!("{:.6}", r.telemetry.stage_wall_s_estimate),
        format!("{:.6}", r.telemetry.stage_wall_s_evaluate),
        format!("{:.6}", r.telemetry.stage_wall_s_cosimulate),
        format!("{:.4}", r.telemetry.estimate_cache_hit_rate),
        format!("{:.4}", r.telemetry.trace_side_exit_rate),
        format!("{:.2}", r.telemetry.hw_bus_stall_pct),
        format!("{:.2}", r.telemetry.hw_fill_overhead_pct),
        format!("{:.4}", r.telemetry.hw_state_coverage),
        format!("{:.6}", r.suite_wall_s),
    ];
    let body: Vec<String> = COLUMNS
        .iter()
        .zip(&values)
        .map(|(key, value)| format!("  \"{key}\": {value}"))
        .collect();
    let json = format!("{{\n{}\n}}\n", body.join(",\n"));
    match std::fs::write(path, &json) {
        Ok(()) => println!(
            "wrote {path}: fast {:.0} M instrs/s @ {:.0}% trace coverage, seed {:.0} M instrs/s ({:.1}x); edge profiling {:+.1}%; decompile {:.0} funcs/s; sweep {:.0} pts/s ({:.1}x vs naive), warm evaluate {:.2} us/pt, cold synthesis {:.1} us/miss, cold estimate {:.1} us/cell; cosim {:.1} M cyc/s, estimate error mean {:.1}% max {:.1}%; estimate cache {:.0}% hit, trace side-exit rate {:.3}",
            r.fast_ips / 1e6,
            r.trace_cache_hit_rate * 100.0,
            r.seed_ips / 1e6,
            r.fast_ips / r.seed_ips,
            r.edge_overhead_pct,
            r.decompile_funcs_per_sec,
            r.sweep_points_per_sec,
            r.sweep_speedup_vs_naive,
            r.evaluate_us_per_point,
            r.synth_us_per_miss,
            r.estimate_us_per_cell,
            r.cosim_cycles_per_sec / 1e6,
            r.estimate_error_pct_mean,
            r.estimate_error_pct_max,
            r.telemetry.estimate_cache_hit_rate * 100.0,
            r.telemetry.trace_side_exit_rate,
        ),
        Err(e) => eprintln!(
            "error: could not write {path}: {e} — the snapshot is written to the current \
             directory; run from the workspace root with write permission"
        ),
    }
    // Every snapshot write also extends the performance log, so `tables
    // trend` can diff consecutive runs without re-measuring anything.
    let history = "BENCH_history.jsonl";
    match history_append(history, &json) {
        Ok(run_id) => println!("appended snapshot to {history} as run {run_id}"),
        Err(e) => eprintln!("warning: could not append to {history}: {e}"),
    }
}

fn e1() {
    println!("== E1: per-benchmark results, -O1, 200 MHz MIPS + Virtex-II ==");
    println!(
        "{:<12} {:<11} {:>8} {:>9} {:>8} {:>10} {:>7}",
        "benchmark", "suite", "speedup", "kernel-x", "energy%", "area", "cover%"
    );
    let rows = run_e1(200e6, false);
    for r in &rows {
        match &r.result {
            Some(n) => println!(
                "{:<12} {:<11} {:>8.2} {:>9.1} {:>8.0} {:>10} {:>7.0}",
                r.name,
                r.suite,
                n.app_speedup,
                n.kernel_speedup,
                n.energy_savings * 100.0,
                n.area_gates,
                n.coverage * 100.0
            ),
            None => println!(
                "{:<12} {:<11} {:>8} {:>9} {:>8} {:>10} {:>7}",
                r.name, r.suite, "FAIL", "-", "-", "-", "-"
            ),
        }
    }
    let s = summarize_e1(&rows);
    println!("---");
    println!(
        "measured: {}/{} recovered | speedup {:.1} | kernel {:.1} | energy {:.0}% | area {}",
        s.recovered,
        rows.len(),
        s.mean_speedup,
        s.mean_kernel_speedup,
        s.mean_savings * 100.0,
        s.mean_area
    );
    println!("paper:    18/20 recovered | speedup 5.4 | kernel 44.8 | energy 69% | area 26261");
    println!();
}

fn e2() {
    println!("== E2: platform sweep (paper: 40 MHz 12.6x/84%, 200 MHz 5.4x/69%, 400 MHz 3.8x/49%) ==");
    println!(
        "{:>8} {:>9} {:>9} {:>9}",
        "clock", "speedup", "kernel-x", "energy%"
    );
    for hz in [40e6, 200e6, 400e6] {
        let s = run_e2(hz);
        println!(
            "{:>5} MHz {:>9.2} {:>9.1} {:>9.0}",
            hz / 1e6,
            s.mean_speedup,
            s.mean_kernel_speedup,
            s.mean_savings * 100.0
        );
    }
    println!();
}

fn e3() {
    println!("== E3: compiler optimization levels (4 benchmarks x -O0..-O3, 200 MHz) ==");
    println!(
        "{:<12} {:<5} {:>10} {:>11} {:>8} {:>8}",
        "benchmark", "level", "sw (ms)", "hybrid(ms)", "speedup", "energy%"
    );
    for r in run_e3() {
        println!(
            "{:<12} {:<5} {:>10.3} {:>11.3} {:>8.2} {:>8.0}",
            r.name,
            r.level.flag(),
            r.sw_time_ms,
            r.hybrid_time_ms,
            r.speedup,
            r.savings * 100.0
        );
    }
    println!("paper: sw time improves with level; hybrid usually improves; speedup > 1 at every level but not monotone; savings similar across levels");
    println!();
}

fn e4() {
    println!("== E4: decompilation recovery statistics ==");
    let t = run_e4();
    println!("benchmarks recovered (plain, -O1):   {}/20   (paper: 18/20)", t.recovered);
    println!("CDFG failures from indirect jumps:   {}      (paper: 2)", t.failed);
    println!("loops recovered:                     {}", t.loops);
    println!("conditionals recovered:              {}", t.ifs);
    println!("unstructured regions:                {}", t.unstructured);
    println!("stack slots promoted (-O0 binaries): {}", t.stack_slots);
    println!("muls promoted (-O2 binaries):        {}", t.muls_promoted);
    println!("loops rerolled (-O3 binaries):       {}", t.rerolled);
    println!("values narrowed below 32 bits:       {}", t.narrowed);
    println!();
}

fn a1() {
    println!("== A1: partitioner ablation (gain = cycles saved; runtime matters for dynamic synthesis) ==");
    let r = run_a1(100_000);
    println!("{:<24} {:>14} {:>12}", "algorithm", "gain (cycles)", "time (us)");
    for (name, gain, us) in &r.rows {
        println!("{name:<24} {gain:>14} {us:>12}");
    }
    println!();
}

fn a2() {
    println!("== A2: decompiler-optimization ablation (app speedup with passes on/off) ==");
    println!("{:<12} {:>10} {:>10}", "benchmark", "opt on", "opt off");
    for (name, on, off) in run_a2() {
        println!("{name:<12} {on:>10.2} {off:>10.2}");
    }
    println!();
}

fn a3() {
    println!("== A3: alias step (block RAM migration) ablation ==");
    println!("{:<12} {:>10} {:>10}", "benchmark", "BRAM on", "BRAM off");
    for (name, on, off) in run_a3() {
        println!("{name:<12} {on:>10.2} {off:>10.2}");
    }
    println!();
}

/// `tables ab`: the paired-run comparator ([`binpart_bench::ab`]). Exits 2
/// on bad arguments and 1 when a run fails or prints no result line.
fn ab(mut args: impl Iterator<Item = String>) {
    use binpart_bench::ab::{compare, higher_is_better, result_metrics, run_pairs, samples, Side};
    let usage = |why: &str| -> ! {
        eprintln!("tables ab: {why}\n{USAGE}");
        std::process::exit(2);
    };
    let (mut pairs, mut base, mut change) = (None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--pairs" => pairs = value.parse::<usize>().ok().filter(|&n| n > 0),
            "--base" => base = Some(value),
            "--change" => change = Some(value),
            _ => usage(&format!("unknown flag `{flag}`")),
        }
    }
    let (Some(pairs), Some(base), Some(change)) = (pairs, base, change) else {
        usage("needs --pairs (at least 1), --base and --change")
    };
    let run = |i: usize, side: Side| -> Result<Vec<binpart_bench::ab::Metric>, String> {
        let (what, cmd) = match side {
            Side::Base => ("base", &base),
            Side::Change => ("change", &change),
        };
        let out = std::process::Command::new("sh")
            .args(["-c", cmd])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("pair {i} {what}: cannot run `{cmd}`: {e}"))?;
        if !out.status.success() {
            return Err(format!("pair {i} {what}: `{cmd}` exited with {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or("");
        let metrics = result_metrics(last)
            .ok_or_else(|| format!("pair {i} {what}: last line has no `metrics`: {last}"))?;
        println!("pair {i} {what}: {} metrics", metrics.len());
        Ok(metrics)
    };
    let (base_runs, change_runs) = run_pairs(pairs, run).unwrap_or_else(|e| {
        eprintln!("tables ab: {e}");
        std::process::exit(1);
    });
    println!(
        "\n{pairs} pairs, base first in the even ones; better = 9/10 wins and median gain > base IQR"
    );
    println!(
        "{:<36} {:>6} {:>14} {:>12} {:>14} {:>9} {:>6} {:>6}  verdict",
        "metric", "better", "base median", "base IQR", "change median", "gain", "wins", "losses"
    );
    let mut detail = Vec::new();
    for m in base_runs.first().into_iter().flatten() {
        let (Some(b), Some(c)) = (samples(&base_runs, &m.name), samples(&change_runs, &m.name))
        else {
            continue;
        };
        let higher = higher_is_better(&m.name, &m.unit);
        let cmp = compare(&b, &c, higher);
        println!(
            "{:<36} {:>6} {:>14.6} {:>12.6} {:>14.6} {:>8.2}% {:>3}/{pairs} {:>3}/{pairs}  {:?}",
            m.name,
            if higher { "higher" } else { "lower" },
            cmp.base_median,
            cmp.base_iqr,
            cmp.change_median,
            100.0 * cmp.gain / cmp.base_median.abs(),
            cmp.wins,
            cmp.losses,
            cmp.verdict,
        );
        let list = |xs: &[f64]| xs.iter().map(|x| format!("{x:.6}")).collect::<Vec<_>>().join(" ");
        detail.push(format!("{} ({}): base {} | change {}", m.name, m.unit, list(&b), list(&c)));
    }
    println!("\nsamples by pair:");
    for line in detail {
        println!("  {line}");
    }
}
