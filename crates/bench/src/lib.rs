//! Experiment runners that regenerate every table and figure of the DATE'05
//! evaluation (see DESIGN.md section 4 for the experiment index).
//!
//! The same runners back the `tables` binary (human-readable paper-vs-
//! measured output) and the Criterion benches (wall-clock cost of the flow
//! itself — relevant because the paper motivates the fast greedy
//! partitioner with dynamic-synthesis use).
//!
//! Two throughput layers keep table regeneration fast:
//!
//! * **Memoization** ([`CompiledSuite`]): every `(benchmark, OptLevel)`
//!   binary is compiled once, process-wide, and gets one [`StagedFlow`]
//!   that every experiment (E1/E2/E3/E4/A1/A2/A3) runs it through
//!   ([`run_cell`]). The flow's stage caches are the harness's only cache:
//!   each cell is profiled once per simulator configuration, decompiled
//!   once per [`DecompileOptions`], and synthesizes each kernel once, no
//!   matter how many experiments, clocks or budgets ask for it.
//! * **Parallelism**: suite-shaped loops fan out with
//!   [`binpart_par::par_map`] (work-stealing scoped threads; set
//!   `BINPART_THREADS=1` to force sequential runs).

use binpart_core::flow::{FlowError, FlowOptions};
use binpart_core::stage::{StagedFlow, StagedReport};
use binpart_core::{DecompileError, DecompileOptions, LiftError};
use binpart_minicc::OptLevel;
use binpart_mips::Binary;
use binpart_par::par_map;
use binpart_platform::{geomean, Platform};
use binpart_telemetry::{Counter, Recorder};
use binpart_workloads::{suite, Benchmark};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One benchmark compiled at one optimization level, with the flow every
/// experiment runs it through.
#[derive(Debug)]
pub struct CompiledBench {
    /// The source benchmark.
    pub bench: Benchmark,
    /// The compiled binary. Leaked once per cell: the memo that owns the
    /// cell lives for the whole process anyway.
    pub binary: &'static Binary,
    /// The cell's staged flow; its stage caches hold every profile, CDFG
    /// and synthesis result the experiments share.
    pub flow: StagedFlow<'static>,
}

type SuiteKey = (&'static str, OptLevel);
type SuiteMap = Mutex<HashMap<SuiteKey, Arc<OnceLock<Arc<CompiledBench>>>>>;

/// Process-wide memoization of compiled suite binaries and their flows.
///
/// The map holds one [`OnceLock`] per key so two threads asking for
/// *different* entries never serialize on each other's compile work — the
/// outer mutex is held only for the map lookup.
pub struct CompiledSuite;

impl CompiledSuite {
    fn map() -> &'static SuiteMap {
        static MAP: OnceLock<SuiteMap> = OnceLock::new();
        MAP.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// The compiled binary and flow for `(bench, level)`, compiling on
    /// first use.
    pub fn get(bench: &Benchmark, level: OptLevel) -> Arc<CompiledBench> {
        let cell = {
            let mut map = Self::map().lock().expect("suite cache poisoned");
            map.entry((bench.name, level))
                .or_insert_with(|| Arc::new(OnceLock::new()))
                .clone()
        };
        cell.get_or_init(|| {
            let binary: &'static Binary =
                Box::leak(Box::new(bench.compile(level).expect("suite compiles")));
            Arc::new(CompiledBench {
                bench: bench.clone(),
                binary,
                flow: StagedFlow::new(binary),
            })
        })
        .clone()
    }

    /// Number of distinct `(benchmark, OptLevel)` entries built so far
    /// (observability for tests and the `tables` binary).
    pub fn entries_built() -> usize {
        Self::map().lock().expect("suite cache poisoned").len()
    }
}

/// Times `run` (which returns the number of work items it retired) over
/// `passes` passes and returns `(best_seconds, last_result)` — the shared
/// measurement primitive behind `tables`' `BENCH_sim.json` snapshot and
/// the `sim_throughput --smoke` CI check, so the two stay methodologically
/// comparable. Best-of-N shaves scheduler noise off a shared box.
pub fn best_of(passes: usize, run: &dyn Fn() -> u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut result = 0;
    for _ in 0..passes.max(1) {
        let t0 = std::time::Instant::now();
        result = run();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, result)
}

/// Why a `BENCH_sim.json` snapshot check failed. Every variant names the
/// path that was actually probed and, where relevant, the offending key —
/// and the [`Display`](std::fmt::Display) impl says how to fix it, so a CI
/// failure is actionable without opening the source.
#[derive(Debug)]
pub enum SnapshotError {
    /// The snapshot exists but could not be read (permissions, a directory
    /// squatting on the name, ...). Distinct from "absent", which is fine.
    Unreadable {
        path: String,
        source: std::io::Error,
    },
    /// The snapshot is readable but a required column is missing — a stale
    /// file from before the column existed, or a truncated write.
    MissingKey { path: String, key: String },
    /// The column exists but is `null` (a `tables sim` run that skipped the
    /// full-suite pass, or a corrupt value).
    NullKey { path: String, key: String },
}

/// The one command that rewrites the snapshot; quoted in every error.
const REGEN_HINT: &str =
    "regenerate it from the workspace root with `cargo run --release -p binpart-bench --bin tables sim`";

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Unreadable { path, source } => write!(
                f,
                "snapshot {path} exists but cannot be read ({source}); {REGEN_HINT}"
            ),
            SnapshotError::MissingKey { path, key } => write!(
                f,
                "snapshot {path} is missing the \"{key}\" column (stale or corrupt file); {REGEN_HINT}"
            ),
            SnapshotError::NullKey { path, key } => write!(
                f,
                "snapshot {path} has \"{key}\": null; rerun with `tables all` so the full-suite pass fills it, or {REGEN_HINT}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Unreadable { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Checks that `BENCH_sim.json` carries each of `keys` with a non-null
/// value. Benches run with the package dir as cwd while the snapshot lives
/// at the workspace root, so both locations are probed. `Ok(false)` means
/// the snapshot is absent — fresh checkouts skip the check; an unreadable
/// or corrupt snapshot is an error, never a silent skip.
pub fn check_snapshot_columns(keys: &[&str]) -> Result<bool, SnapshotError> {
    check_snapshot_at(&["BENCH_sim.json", "../../BENCH_sim.json"], keys)
}

/// Path-parameterized core of [`check_snapshot_columns`] so tests can point
/// it at fixture files without faking the working directory.
pub fn check_snapshot_at(paths: &[&str], keys: &[&str]) -> Result<bool, SnapshotError> {
    let mut found = None;
    for path in paths {
        match std::fs::read_to_string(path) {
            Ok(json) => {
                found = Some((path.to_string(), json));
                break;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(source) => {
                return Err(SnapshotError::Unreadable {
                    path: path.to_string(),
                    source,
                })
            }
        }
    }
    let Some((path, json)) = found else {
        return Ok(false);
    };
    for key in keys {
        if !json.contains(&format!("\"{key}\"")) {
            return Err(SnapshotError::MissingKey {
                path: path.clone(),
                key: (*key).to_string(),
            });
        }
        let field = json
            .split(&format!("\"{key}\":"))
            .nth(1)
            .and_then(|t| t.trim().split([',', '}']).next())
            .map(str::trim)
            .unwrap_or("null");
        if field == "null" {
            return Err(SnapshotError::NullKey {
                path: path.clone(),
                key: (*key).to_string(),
            });
        }
    }
    Ok(true)
}

/// Panicking wrapper around [`check_snapshot_columns`] for the CI `--smoke`
/// modes: absent snapshot prints a note and returns `false`; any defect
/// panics with the actionable [`SnapshotError`] message.
pub fn assert_snapshot_columns(keys: &[&str]) -> bool {
    match check_snapshot_columns(keys) {
        Ok(true) => {
            println!("smoke: BENCH_sim.json columns present and non-null: {keys:?}");
            true
        }
        Ok(false) => {
            println!("smoke: BENCH_sim.json not present, skipping field check");
            false
        }
        Err(e) => panic!("{e}"),
    }
}

/// Evaluates one memoized cell through its flow.
///
/// The software profile is taken with [`FlowOptions::aggressive_sim`]'s
/// superinstruction fusion. Fusion is observationally exact (bit-identical
/// `Exit` + `Profile`, asserted by `tests/differential.rs`), so every
/// experiment's numbers are unchanged — the profiling pass is just faster.
///
/// # Errors
///
/// Returns the cell's cached [`FlowError`] when CDFG recovery failed.
pub fn run_cell(
    bench: &Benchmark,
    level: OptLevel,
    mut options: FlowOptions,
) -> Result<StagedReport, FlowError> {
    options.sim.fusion = FlowOptions::aggressive_sim().sim.fusion;
    CompiledSuite::get(bench, level).flow.evaluate(&options)
}

/// Aggregate result of co-simulating the full (benchmark, OptLevel)
/// matrix — the measured (not modeled) hardware numbers.
#[derive(Debug, Clone)]
pub struct CosimMatrixSummary {
    /// Software-equivalent cycles co-simulated per wall-clock second
    /// (single pass over the matrix: every cell runs the hybrid machine —
    /// software + FSMD + per-invocation store differential).
    pub cosim_cycles_per_sec: f64,
    /// Mean absolute measured-vs-analytic hardware-cycle error, percent,
    /// over every hardware-executed kernel of the matrix.
    pub estimate_error_pct_mean: f64,
    /// Maximum absolute estimate error, percent.
    pub estimate_error_pct_max: f64,
    /// Hardware invocations executed across the matrix.
    pub hw_invocations: u64,
    /// Store-sequence divergences (must be zero; asserted by
    /// `tests/cosim_differential.rs`).
    pub store_mismatches: u64,
    /// Matrix cells whose hybrid exit was bit-identical to software.
    pub bit_identical_cells: usize,
    /// Matrix cells co-simulated.
    pub cells: usize,
}

/// Co-simulates every (benchmark, OptLevel) cell (jump-table recovery on,
/// so all 20 benchmarks complete) and reports throughput + estimate-error
/// aggregates. Timing is best-of-`passes`, single-threaded, fresh staged
/// caches per pass — comparable across PRs like the other snapshot rows.
pub fn run_cosim_matrix(passes: usize) -> CosimMatrixSummary {
    let suite = suite();
    let mut options = FlowOptions::default();
    options.decompile.recover_jump_tables = true;
    let details: Mutex<Option<CosimMatrixSummary>> = Mutex::new(None);
    let pass = || -> u64 {
        let mut cycles = 0u64;
        let mut errors: Vec<f64> = Vec::new();
        let mut hw_invocations = 0u64;
        let mut store_mismatches = 0u64;
        let mut bit_identical_cells = 0usize;
        let mut cells = 0usize;
        for b in &suite {
            for level in OptLevel::ALL {
                let compiled = CompiledSuite::get(b, level);
                let staged = StagedFlow::new(compiled.binary);
                let report = staged.cosimulate(&options).expect("suite cosimulates");
                cells += 1;
                cycles += report.sw_cycles;
                hw_invocations += report.hw_invocations();
                store_mismatches += report.store_mismatches();
                bit_identical_cells += usize::from(report.exit_bit_identical);
                errors.extend(report.kernels.iter().filter_map(|k| k.error_pct));
            }
        }
        let abs: Vec<f64> = errors.iter().map(|e| e.abs()).collect();
        let mean = if abs.is_empty() {
            0.0
        } else {
            abs.iter().sum::<f64>() / abs.len() as f64
        };
        let max = abs.iter().fold(0.0f64, |m, &e| m.max(e));
        *details.lock().unwrap() = Some(CosimMatrixSummary {
            cosim_cycles_per_sec: 0.0,
            estimate_error_pct_mean: mean,
            estimate_error_pct_max: max,
            hw_invocations,
            store_mismatches,
            bit_identical_cells,
            cells,
        });
        cycles
    };
    let (secs, cycles) = best_of(passes, &pass);
    let mut summary = details
        .into_inner()
        .unwrap()
        .expect("at least one cosim pass ran");
    summary.cosim_cycles_per_sec = cycles as f64 / secs;
    summary
}

/// The telemetry-derived snapshot columns measured by [`telemetry_pass`]:
/// inclusive per-stage wall clock plus the two cache rates the snapshot
/// tracks across PRs.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryColumns {
    /// Inclusive wall total of every `profile` span, seconds.
    pub stage_wall_s_profile: f64,
    /// Inclusive wall total of every `decompile` span, seconds.
    pub stage_wall_s_decompile: f64,
    /// Inclusive wall total of every `estimate` span, seconds.
    pub stage_wall_s_estimate: f64,
    /// Inclusive wall total of every `evaluate` span, seconds.
    pub stage_wall_s_evaluate: f64,
    /// Inclusive wall total of every `cosimulate` span, seconds.
    pub stage_wall_s_cosimulate: f64,
    /// `EstimateCache` memo hits / (hits + misses) over the whole pass.
    pub estimate_cache_hit_rate: f64,
    /// Superblock side exits per completed trace pass.
    pub trace_side_exit_rate: f64,
    /// Memory-bus stall cycles as a percentage of all measured hardware
    /// cycles, aggregated over every instrumented kernel of the matrix
    /// (from the FSMD cycle-attribution profiles).
    pub hw_bus_stall_pct: f64,
    /// Pipelined-loop fill/drain cycles as a percentage of all measured
    /// hardware cycles.
    pub hw_fill_overhead_pct: f64,
    /// FSM states entered at least once / states in the synthesized
    /// region, aggregated over every instrumented kernel (1.0 = every
    /// state exercised by the suite's data).
    pub hw_state_coverage: f64,
}

/// One fully instrumented pass over the workload the snapshot tracks: the
/// complete (benchmark, OptLevel) co-simulation matrix with the superblock
/// engine on (so the trace-cache counters populate) followed by the
/// standard 100-point staged sweep (5 clocks × 5 budgets × 4 levels on
/// autcor00), all recorded on a single [`Recorder`].
///
/// Returns the recorder (callers export Chrome traces or render the
/// summary table from it) and the derived [`TelemetryColumns`].
pub fn telemetry_pass() -> (Recorder, TelemetryColumns) {
    let rec = Recorder::new();
    let mut options = FlowOptions::aggressive_sim();
    options.decompile.recover_jump_tables = true;
    options.sim.superblocks = true;
    let mut hw_measured = 0u64;
    let mut hw_stall = 0u64;
    let mut hw_fill = 0u64;
    let mut hw_states_executed = 0u64;
    let mut hw_states_total = 0u64;
    for b in &suite() {
        for level in OptLevel::ALL {
            let compiled = CompiledSuite::get(b, level);
            let staged = StagedFlow::with_telemetry(compiled.binary, &rec);
            let report = staged.cosimulate(&options).expect("suite cosimulates");
            // The instrumented flow attaches an FSMD profile to every
            // hardware-executed kernel; aggregate the attribution split
            // suite-wide for the snapshot's hardware columns.
            for k in &report.kernels {
                if let Some(p) = &k.hw_profile {
                    hw_measured += p.measured_cycles;
                    hw_stall += p.attributed.bus_stall;
                    hw_fill += p.attributed.fill_drain;
                    hw_states_executed += p.states_executed as u64;
                    hw_states_total += p.states_total as u64;
                }
            }
        }
    }
    let b = suite()
        .into_iter()
        .find(|b| b.name == "autcor00")
        .expect("suite has autcor00");
    let mut base = FlowOptions::default();
    base.decompile.recover_jump_tables = true;
    let sweep = binpart_explore::Sweep::with_base(base)
        .clocks([40e6, 100e6, 200e6, 300e6, 400e6])
        .area_budgets([5_000, 15_000, 40_000, 100_000, 250_000])
        .opt_levels(OptLevel::ALL);
    let result =
        sweep.run_with_telemetry(&rec, |level| b.compile(level).map_err(|e| e.to_string()));
    assert_eq!(result.points.len(), 100, "sweep grid is 5 x 5 x 4");
    let report = rec.report();
    let passes = rec.counter_total(Counter::TracePasses);
    let side_exits = rec.counter_total(Counter::TraceSideExits);
    let cols = TelemetryColumns {
        stage_wall_s_profile: report.span_total_s("profile"),
        stage_wall_s_decompile: report.span_total_s("decompile"),
        stage_wall_s_estimate: report.span_total_s("estimate"),
        stage_wall_s_evaluate: report.span_total_s("evaluate"),
        stage_wall_s_cosimulate: report.span_total_s("cosimulate"),
        estimate_cache_hit_rate: report
            .hit_rate(Counter::EstimateCacheHit, Counter::EstimateCacheMiss)
            .unwrap_or(0.0),
        trace_side_exit_rate: if passes == 0 {
            0.0
        } else {
            side_exits as f64 / passes as f64
        },
        hw_bus_stall_pct: if hw_measured == 0 {
            0.0
        } else {
            100.0 * hw_stall as f64 / hw_measured as f64
        },
        hw_fill_overhead_pct: if hw_measured == 0 {
            0.0
        } else {
            100.0 * hw_fill as f64 / hw_measured as f64
        },
        hw_state_coverage: if hw_states_total == 0 {
            0.0
        } else {
            hw_states_executed as f64 / hw_states_total as f64
        },
    };
    (rec, cols)
}

/// Reads one numeric column from the tracked `BENCH_sim.json` snapshot,
/// probing the same locations as [`check_snapshot_columns`]. `None` when
/// the snapshot, the key, or a parseable value is absent — callers treat
/// that as "no baseline yet", never an error (fresh checkouts have no
/// snapshot).
pub fn read_snapshot_value(key: &str) -> Option<f64> {
    read_snapshot_value_at(&["BENCH_sim.json", "../../BENCH_sim.json"], key)
}

/// Path-parameterized core of [`read_snapshot_value`] so tests can point it
/// at fixture files without faking the working directory.
pub fn read_snapshot_value_at(paths: &[&str], key: &str) -> Option<f64> {
    for path in paths {
        let Ok(json) = std::fs::read_to_string(path) else {
            continue;
        };
        return json
            .split(&format!("\"{key}\":"))
            .nth(1)
            .and_then(|t| t.trim().split([',', '}']).next())
            .and_then(|v| v.trim().parse().ok());
    }
    None
}

/// Extracts every `"key": number` pair from one flat JSON object, in
/// declaration order. The snapshot and its history lines are machine-
/// written flat objects of numbers (and the occasional `null`, which is
/// skipped), so a full JSON parser — a dependency this workspace does not
/// take — is not needed.
pub fn parse_json_numbers(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(q) = rest.find('"') {
        rest = &rest[q + 1..];
        let Some(qe) = rest.find('"') else { break };
        let key = &rest[..qe];
        rest = &rest[qe + 1..];
        let Some(c) = rest.find(':') else { break };
        let val = rest[c + 1..].trim_start();
        let end = val.find([',', '}', '\n']).unwrap_or(val.len());
        if let Ok(v) = val[..end].trim().parse::<f64>() {
            out.push((key.to_string(), v));
        }
        rest = &rest[c + 1..];
    }
    out
}

/// Appends one snapshot to the `BENCH_history.jsonl` performance log: the
/// (pretty-printed) `BENCH_sim.json` object is flattened to a single line
/// and stamped with a monotonic `run_id` (max existing id + 1, so the log
/// survives manual pruning). Returns the id assigned.
///
/// # Errors
///
/// Propagates I/O failures reading or appending the history file; an
/// absent file is the empty history, not an error.
pub fn history_append(path: &str, snapshot_json: &str) -> std::io::Result<u64> {
    let prev = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let run_id = prev
        .lines()
        .filter_map(|l| {
            parse_json_numbers(l)
                .into_iter()
                .find(|(k, _)| k == "run_id")
                .map(|(_, v)| v as u64)
        })
        .max()
        .unwrap_or(0)
        + 1;
    let flat: String = snapshot_json.lines().map(str::trim).collect();
    let body = flat.strip_prefix('{').unwrap_or(&flat);
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{{\"run_id\": {run_id}, {body}")?;
    Ok(run_id)
}

/// The last two entries of the history log, parsed to `(key, value)`
/// columns — the input to `tables trend`. `None` when the file is absent
/// or holds fewer than two non-empty lines (no trend to report yet).
#[allow(clippy::type_complexity)]
pub fn history_last_two(path: &str) -> Option<(Vec<(String, f64)>, Vec<(String, f64)>)> {
    let text = std::fs::read_to_string(path).ok()?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let [.., prev, cur] = lines[..] else {
        return None;
    };
    Some((parse_json_numbers(prev), parse_json_numbers(cur)))
}

/// One benchmark's row of Table 1 (experiment E1).
#[derive(Debug, Clone)]
pub struct E1Row {
    /// Benchmark name.
    pub name: String,
    /// Suite label.
    pub suite: &'static str,
    /// `None` when CDFG recovery failed (the paper's 2-of-20).
    pub result: Option<E1Numbers>,
}

/// Numbers for a successfully partitioned benchmark.
#[derive(Debug, Clone, Copy)]
pub struct E1Numbers {
    /// Application speedup.
    pub app_speedup: f64,
    /// Mean kernel speedup.
    pub kernel_speedup: f64,
    /// Energy savings fraction.
    pub energy_savings: f64,
    /// Area in gate equivalents.
    pub area_gates: u64,
    /// Fraction of cycles moved to hardware.
    pub coverage: f64,
}

/// E1: the 20-benchmark table at `-O1`, 200 MHz.
pub fn run_e1(clock_hz: f64, recover_jump_tables: bool) -> Vec<E1Row> {
    par_map(&suite(), |b| {
        run_one(b, OptLevel::O1, clock_hz, recover_jump_tables)
    })
}

/// Runs one benchmark through the whole flow (software profile memoized).
pub fn run_one(
    b: &Benchmark,
    level: OptLevel,
    clock_hz: f64,
    recover_jump_tables: bool,
) -> E1Row {
    let options = FlowOptions {
        platform: Platform::mips_virtex2(clock_hz),
        decompile: DecompileOptions {
            recover_jump_tables,
            ..Default::default()
        },
        ..Default::default()
    };
    match run_cell(b, level, options) {
        Ok(report) => E1Row {
            name: b.name.to_string(),
            suite: b.suite.label(),
            result: Some(E1Numbers {
                app_speedup: report.hybrid.app_speedup,
                kernel_speedup: report.hybrid.mean_kernel_speedup(),
                energy_savings: report.hybrid.energy_savings,
                area_gates: report.hybrid.total_area_gates,
                coverage: report.partition.coverage(),
            }),
        },
        Err(FlowError::Decompile(DecompileError::Lift(LiftError::IndirectJump { .. }))) => E1Row {
            name: b.name.to_string(),
            suite: b.suite.label(),
            result: None,
        },
        Err(e) => panic!("{}: unexpected flow error: {e}", b.name),
    }
}

/// Summary statistics over E1 rows.
#[derive(Debug, Clone, Copy)]
pub struct E1Summary {
    /// Successfully recovered benchmarks.
    pub recovered: usize,
    /// Failures (indirect jumps).
    pub failed: usize,
    /// Mean application speedup.
    pub mean_speedup: f64,
    /// Mean kernel speedup.
    pub mean_kernel_speedup: f64,
    /// Mean energy savings.
    pub mean_savings: f64,
    /// Mean area (gate equivalents).
    pub mean_area: u64,
}

/// Averages an E1 table.
pub fn summarize_e1(rows: &[E1Row]) -> E1Summary {
    let ok: Vec<&E1Numbers> = rows.iter().filter_map(|r| r.result.as_ref()).collect();
    let n = ok.len().max(1) as f64;
    E1Summary {
        recovered: ok.len(),
        failed: rows.len() - ok.len(),
        mean_speedup: geomean(ok.iter().map(|r| r.app_speedup)),
        mean_kernel_speedup: geomean(ok.iter().map(|r| r.kernel_speedup)),
        mean_savings: ok.iter().map(|r| r.energy_savings).sum::<f64>() / n,
        mean_area: (ok.iter().map(|r| r.area_gates).sum::<u64>() as f64 / n) as u64,
    }
}

/// E2: the platform sweep row for one clock.
pub fn run_e2(clock_hz: f64) -> E1Summary {
    summarize_e1(&run_e1(clock_hz, false))
}

/// One row of E3 (optimization-level study).
#[derive(Debug, Clone)]
pub struct E3Row {
    /// Benchmark name.
    pub name: String,
    /// Optimization level.
    pub level: OptLevel,
    /// Software time (ms at the platform clock).
    pub sw_time_ms: f64,
    /// Hybrid time (ms).
    pub hybrid_time_ms: f64,
    /// Speedup.
    pub speedup: f64,
    /// Energy savings.
    pub savings: f64,
}

/// E3: 4 benchmarks x 4 levels at 200 MHz (jump-table recovery on, so every
/// cell completes).
pub fn run_e3() -> Vec<E3Row> {
    let cells: Vec<(Benchmark, OptLevel)> = binpart_workloads::opt_level_subset()
        .into_iter()
        .flat_map(|b| OptLevel::ALL.map(|level| (b.clone(), level)))
        .collect();
    par_map(&cells, |(b, level)| {
        let mut options = FlowOptions::default();
        options.decompile.recover_jump_tables = true;
        let report = run_cell(b, *level, options).expect("flow");
        E3Row {
            name: b.name.to_string(),
            level: *level,
            sw_time_ms: report.hybrid.sw_time_s * 1e3,
            hybrid_time_ms: report.hybrid.hybrid_time_s * 1e3,
            speedup: report.hybrid.app_speedup,
            savings: report.hybrid.energy_savings,
        }
    })
}

/// E4: aggregate decompilation statistics over the suite at `-O1` (plus the
/// targeted -O2/-O3 passes).
#[derive(Debug, Clone, Copy, Default)]
pub struct E4Totals {
    /// Benchmarks recovered / failed.
    pub recovered: usize,
    /// CDFG failures.
    pub failed: usize,
    /// Loops recovered.
    pub loops: usize,
    /// Conditionals recovered.
    pub ifs: usize,
    /// Unstructured regions (should be ~0).
    pub unstructured: usize,
    /// Stack slots promoted (from -O0 binaries).
    pub stack_slots: usize,
    /// Multiplications promoted (from -O2 binaries).
    pub muls_promoted: usize,
    /// Loops rerolled (from -O3 binaries).
    pub rerolled: usize,
    /// Values narrowed below 32 bits.
    pub narrowed: usize,
}

/// Runs E4 (decompile-only — the cells' flows run only their decompile
/// stage, so no profile is simulated here).
pub fn run_e4() -> E4Totals {
    let per_bench = par_map(&suite(), |b| {
        let decompiled = |level, opts| CompiledSuite::get(b, level).flow.decompile(opts);
        let mut t = E4Totals::default();
        // structure + widths from the -O1 binary
        match decompiled(OptLevel::O1, DecompileOptions::default()) {
            Ok(prog) => {
                t.recovered += 1;
                t.loops += prog.stats.structure.loops();
                t.ifs += prog.stats.structure.ifs + prog.stats.structure.if_elses;
                t.unstructured += prog.stats.structure.unstructured;
                t.narrowed += prog.stats.passes.values_narrowed;
            }
            Err(_) => t.failed += 1,
        }
        // stack ops from -O0
        if let Ok(prog) = decompiled(OptLevel::O0, DecompileOptions::default()) {
            t.stack_slots += prog.stats.passes.stack_slots_promoted;
        }
        // strength promotion from -O2, rerolling from -O3 (with recovery so
        // jump-table benchmarks still decompile)
        let opts = DecompileOptions {
            recover_jump_tables: true,
            ..Default::default()
        };
        if let Ok(prog) = decompiled(OptLevel::O2, opts) {
            t.muls_promoted += prog.stats.passes.muls_promoted;
        }
        if let Ok(prog) = decompiled(OptLevel::O3, opts) {
            t.rerolled += prog.stats.passes.loops_rerolled;
        }
        t
    });
    let mut total = E4Totals::default();
    for t in per_bench {
        total.recovered += t.recovered;
        total.failed += t.failed;
        total.loops += t.loops;
        total.ifs += t.ifs;
        total.unstructured += t.unstructured;
        total.stack_slots += t.stack_slots;
        total.muls_promoted += t.muls_promoted;
        total.rerolled += t.rerolled;
        total.narrowed += t.narrowed;
    }
    total
}

/// A1: partitioner-quality comparison on abstract candidates harvested from
/// the real flow.
#[derive(Debug, Clone)]
pub struct A1Result {
    /// (algorithm, total gain, solve time in microseconds).
    pub rows: Vec<(&'static str, u64, u128)>,
}

/// Runs the A1 ablation over the whole suite's kernel candidates.
pub fn run_a1(area_budget: u64) -> A1Result {
    use binpart_partition as bp;
    // Harvest candidates from every recovered benchmark, in parallel.
    let harvested = par_map(&suite(), |b| {
        let mut options = FlowOptions::default();
        options.decompile.recover_jump_tables = true;
        let mut items = Vec::new();
        if let Ok(report) = run_cell(b, OptLevel::O1, options) {
            for k in &report.partition.kernels {
                let hw_cpu_cycles = (k.synth.timing.hw_cycles as f64
                    * (200e6 / (k.synth.timing.clock_mhz * 1e6)))
                    as u64;
                items.push(bp::Item {
                    sw_cycles: k.sw_cycles,
                    hw_cycles: hw_cpu_cycles,
                    area: k.synth.area.gate_equivalents,
                });
            }
        }
        items
    });
    let items: Vec<bp::Item> = harvested.into_iter().flatten().collect();
    let timed = |f: &dyn Fn() -> bp::Selection| {
        let t0 = std::time::Instant::now();
        let sel = f();
        (sel.gain, t0.elapsed().as_micros())
    };
    let g = timed(&|| bp::greedy_90_10(&items, area_budget));
    let k = timed(&|| bp::knapsack_optimal(&items, area_budget, 256));
    let c = timed(&|| bp::gclp(&items, area_budget));
    let s = timed(&|| bp::simulated_annealing(&items, area_budget, 12345, 50_000));
    A1Result {
        rows: vec![
            ("greedy-90-10 (paper)", g.0, g.1),
            ("knapsack optimal", k.0, k.1),
            ("GCLP (Kalavade-Lee)", c.0, c.1),
            ("simulated annealing", s.0, s.1),
        ],
    }
}

/// A2: decompiler-optimization ablation — speedup with passes on vs off.
pub fn run_a2() -> Vec<(String, f64, f64)> {
    let subset: Vec<Benchmark> = suite().into_iter().take(6).collect();
    par_map(&subset, |b| {
        let run = |optimize: bool| -> f64 {
            let options = FlowOptions {
                decompile: DecompileOptions {
                    recover_jump_tables: true,
                    optimize,
                    ..Default::default()
                },
                ..Default::default()
            };
            match run_cell(b, OptLevel::O1, options) {
                Ok(r) => r.hybrid.app_speedup,
                Err(_) => 1.0,
            }
        };
        (b.name.to_string(), run(true), run(false))
    })
}

/// A3: alias-step (block RAM) ablation.
pub fn run_a3() -> Vec<(String, f64, f64)> {
    let subset: Vec<Benchmark> = suite().into_iter().take(6).collect();
    par_map(&subset, |b| {
        let run = |alias: bool| -> f64 {
            let mut options = FlowOptions::default();
            options.decompile.recover_jump_tables = true;
            options.partition.alias_step = alias;
            match run_cell(b, OptLevel::O1, options) {
                Ok(r) => r.hybrid.app_speedup,
                Err(_) => 1.0,
            }
        };
        (b.name.to_string(), run(true), run(false))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_suite_builds_each_entry_once() {
        let b = suite().into_iter().find(|b| b.name == "crc").unwrap();
        let first = CompiledSuite::get(&b, OptLevel::O1);
        let again = CompiledSuite::get(&b, OptLevel::O1);
        // Same Arc, not a rebuild.
        assert!(Arc::ptr_eq(&first, &again));
        // One cache per cell: a second clock reuses the cell's estimate
        // artifact and is served from its synthesis memo.
        let dopts = DecompileOptions {
            recover_jump_tables: true,
            ..Default::default()
        };
        let sim = FlowOptions::aggressive_sim().sim;
        run_one(&b, OptLevel::O1, 200e6, true);
        let est = first.flow.estimate(dopts, sim).unwrap();
        let hits = est.cache.hits();
        run_one(&b, OptLevel::O1, 100e6, true);
        let est_again = first.flow.estimate(dopts, sim).unwrap();
        assert!(Arc::ptr_eq(&est, &est_again));
        assert!(est_again.cache.hits() > hits, "second clock must hit the synthesis memo");
    }

    #[test]
    fn memoized_flow_matches_direct_flow() {
        let b = suite().into_iter().find(|b| b.name == "aifirf01").unwrap();
        let binary = b.compile(OptLevel::O1).unwrap();
        let direct = StagedFlow::new(&binary).evaluate(&FlowOptions::default()).unwrap();
        let row = run_one(&b, OptLevel::O1, 200e6, false);
        let n = row.result.expect("recovers");
        assert_eq!(n.app_speedup.to_bits(), direct.hybrid.app_speedup.to_bits());
        assert_eq!(n.area_gates, direct.hybrid.total_area_gates);
    }

    #[test]
    fn e1_parallel_results_are_deterministic_and_ordered() {
        let rows1 = run_e1(200e6, false);
        let rows2 = run_e1(200e6, false);
        assert_eq!(rows1.len(), 20);
        // Order must match the suite declaration order despite par_map.
        let names: Vec<&str> = rows1.iter().map(|r| r.name.as_str()).collect();
        let expect: Vec<&str> = suite().iter().map(|b| b.name).collect();
        assert_eq!(names, expect);
        for (a, b) in rows1.iter().zip(rows2.iter()) {
            match (&a.result, &b.result) {
                (Some(x), Some(y)) => assert_eq!(x.app_speedup.to_bits(), y.app_speedup.to_bits()),
                (None, None) => {}
                _ => panic!("{}: nondeterministic recovery", a.name),
            }
        }
        // The paper's 2-of-20 jump-table failures.
        assert_eq!(rows1.iter().filter(|r| r.result.is_none()).count(), 2);
    }

    #[test]
    fn snapshot_check_reports_missing_and_null_keys_with_path() {
        let dir = std::env::temp_dir().join("binpart_snapshot_check");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        let nulled = dir.join("nulled.json");
        std::fs::write(&good, "{\n  \"sim_speedup\": 12.5\n}\n").unwrap();
        std::fs::write(&nulled, "{\n  \"sim_speedup\": null\n}\n").unwrap();
        let good = good.to_str().unwrap();
        let nulled = nulled.to_str().unwrap();

        // Absent everywhere: a skip, not an error.
        let absent = dir.join("absent.json");
        let absent = absent.to_str().unwrap();
        assert!(matches!(check_snapshot_at(&[absent], &["sim_speedup"]), Ok(false)));

        // Present and populated.
        assert!(matches!(check_snapshot_at(&[good], &["sim_speedup"]), Ok(true)));

        // Missing column: error names both the file and the key, and tells
        // the reader how to regenerate.
        let err = check_snapshot_at(&[good], &["cosim_cycles_per_sec"]).unwrap_err();
        assert!(matches!(&err, SnapshotError::MissingKey { key, .. } if key == "cosim_cycles_per_sec"));
        let msg = err.to_string();
        assert!(msg.contains("good.json"), "{msg}");
        assert!(msg.contains("cosim_cycles_per_sec"), "{msg}");
        assert!(msg.contains("tables"), "{msg}");

        // Null column: distinct variant, still actionable.
        let err = check_snapshot_at(&[nulled], &["sim_speedup"]).unwrap_err();
        assert!(matches!(&err, SnapshotError::NullKey { key, .. } if key == "sim_speedup"));
        assert!(err.to_string().contains("null"), "{err}");
    }

    #[test]
    fn snapshot_value_reader_parses_numbers_and_skips_absent() {
        let dir = std::env::temp_dir().join("binpart_snapshot_value");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("snap.json");
        std::fs::write(
            &file,
            "{\n  \"sim_speedup\": 12.5,\n  \"estimate_cache_hit_rate\": 0.9375,\n  \"full_suite_wall_clock_s\": null\n}\n",
        )
        .unwrap();
        let file = file.to_str().unwrap();
        assert_eq!(read_snapshot_value_at(&[file], "sim_speedup"), Some(12.5));
        assert_eq!(
            read_snapshot_value_at(&[file], "estimate_cache_hit_rate"),
            Some(0.9375)
        );
        // Null and missing keys are both "no baseline", not errors.
        assert_eq!(read_snapshot_value_at(&[file], "full_suite_wall_clock_s"), None);
        assert_eq!(read_snapshot_value_at(&[file], "no_such_key"), None);
        let absent = dir.join("absent.json");
        assert_eq!(read_snapshot_value_at(&[absent.to_str().unwrap()], "sim_speedup"), None);
    }

    #[test]
    fn telemetry_pass_exports_loadable_chrome_trace_and_populated_columns() {
        let (rec, cols) = telemetry_pass();
        // The acceptance shape: a full-suite cosim run plus a 100-point
        // sweep on one recorder exports valid Chrome-trace JSON carrying
        // per-stage spans and cache-hit counter tracks.
        let trace = rec.chrome_trace().expect("spans balance");
        binpart_telemetry::validate_json(&trace).expect("trace parses");
        for span in ["cosimulate", "profile", "decompile", "estimate", "evaluate", "sweep"] {
            assert!(trace.contains(&format!("\"name\":\"{span}\"")), "missing span {span}");
        }
        for track in ["estimate_cache_hit", "estimate_cache_miss", "sweep_points_ok"] {
            assert!(trace.contains(&format!("\"name\":\"{track}\"")), "missing track {track}");
        }
        // The derived columns are live: every stage ran, the estimate memo
        // saw real traffic, and the superblock engine retired trace passes.
        for (name, wall) in [
            ("profile", cols.stage_wall_s_profile),
            ("decompile", cols.stage_wall_s_decompile),
            ("estimate", cols.stage_wall_s_estimate),
            ("evaluate", cols.stage_wall_s_evaluate),
            ("cosimulate", cols.stage_wall_s_cosimulate),
        ] {
            assert!(wall > 0.0, "stage {name} recorded no wall clock");
        }
        assert!(
            cols.estimate_cache_hit_rate > 0.0 && cols.estimate_cache_hit_rate <= 1.0,
            "estimate cache rate out of range: {}",
            cols.estimate_cache_hit_rate
        );
        assert!(
            (0.0..=1.0).contains(&cols.trace_side_exit_rate),
            "side-exit rate out of range: {}",
            cols.trace_side_exit_rate
        );
        assert!(rec.counter_total(Counter::TracePasses) > 0, "superblocks never ran");
        assert_eq!(rec.counter_total(Counter::SweepPointsOk), 100);
        // The hardware-attribution columns are live too: the instrumented
        // matrix saw real FSMD profiles, and the ratios are well-formed.
        assert!(
            (0.0..100.0).contains(&cols.hw_bus_stall_pct),
            "bus-stall share out of range: {}",
            cols.hw_bus_stall_pct
        );
        assert!(
            (0.0..100.0).contains(&cols.hw_fill_overhead_pct) && cols.hw_fill_overhead_pct > 0.0,
            "fill-overhead share out of range: {}",
            cols.hw_fill_overhead_pct
        );
        assert!(
            cols.hw_state_coverage > 0.0 && cols.hw_state_coverage <= 1.0,
            "state coverage out of range: {}",
            cols.hw_state_coverage
        );
        assert!(rec.counter_total(Counter::HwInvocations) > 0, "hw counters never fired");
    }

    #[test]
    fn history_append_assigns_monotonic_run_ids_and_trend_parses_them() {
        let dir = std::env::temp_dir().join("binpart_history_log");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hist.jsonl");
        let _ = std::fs::remove_file(&path);
        let path = path.to_str().unwrap();
        let snap1 = "{\n  \"sim_speedup\": 3.25,\n  \"hw_state_coverage\": 0.9871,\n  \"full_suite_wall_clock_s\": null\n}\n";
        let snap2 = "{\n  \"sim_speedup\": 3.50,\n  \"hw_state_coverage\": 1.0000,\n  \"full_suite_wall_clock_s\": 0.100000\n}\n";
        assert_eq!(history_append(path, snap1).unwrap(), 1);
        assert_eq!(history_append(path, snap2).unwrap(), 2);
        // One line per run, each a flat object stamped with its id.
        let text = std::fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"run_id\": 1, "));
        assert!(lines[1].starts_with("{\"run_id\": 2, "));
        assert!(!lines[1].contains('\t'));
        let (prev, cur) = history_last_two(path).expect("two entries");
        assert_eq!(prev[0], ("run_id".to_string(), 1.0));
        assert_eq!(cur[0], ("run_id".to_string(), 2.0));
        assert!(prev.iter().any(|(k, v)| k == "sim_speedup" && *v == 3.25));
        assert!(cur.iter().any(|(k, v)| k == "sim_speedup" && *v == 3.5));
        // `null` values are skipped, not parsed as zero.
        assert!(!prev.iter().any(|(k, _)| k == "full_suite_wall_clock_s"));
        assert!(cur.iter().any(|(k, v)| k == "full_suite_wall_clock_s" && *v == 0.1));
        // A pruned log keeps counting above the ids that remain.
        std::fs::write(path, format!("{}\n", lines[1])).unwrap();
        assert_eq!(history_append(path, snap1).unwrap(), 3);
        // Fewer than two lines: no trend yet.
        std::fs::write(path, "").unwrap();
        assert!(history_last_two(path).is_none());
        assert_eq!(history_append(path, snap1).unwrap(), 1);
        assert!(history_last_two(path).is_none());
    }

    #[cfg(unix)]
    #[test]
    fn snapshot_check_unreadable_is_an_error_not_a_skip() {
        // A directory squatting on the snapshot name: read_to_string fails
        // with something other than NotFound, which must surface as
        // Unreadable rather than fall through to "absent, skipping".
        let dir = std::env::temp_dir().join("binpart_snapshot_dir.json");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.to_str().unwrap();
        let err = check_snapshot_at(&[path], &["sim_speedup"]).unwrap_err();
        assert!(matches!(&err, SnapshotError::Unreadable { .. }), "{err}");
        assert!(err.to_string().contains("cannot be read"), "{err}");
        use std::error::Error;
        assert!(err.source().is_some());
    }
}
