//! The closed-loop runners: an untraced run of one workload (end-to-end
//! metrics) and the traced run over all four (per-layer metrics).

use crate::affinity;
use crate::cells::{Cell, Rng, SETUP_REPS};
use crate::ops::{guarded, replay, Detail, Layers, Untraced, Workload};
use binpart_explore::Sweep;
use std::time::Instant;

/// One named, measured value.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// A run's result: the counts for the result line, its metrics, and the
/// human-readable report printed above it.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub report: Vec<String>,
}

/// Per-cell bookkeeping: the first result of each cell, against which
/// every revisit is compared, and the failure count.
struct Tally {
    first: Vec<Option<Detail>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn new(cells: usize) -> Tally {
        Tally {
            first: vec![None; cells],
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    fn record(&mut self, cell: &Cell, i: usize, r: Result<Detail, String>) {
        self.attempted += 1;
        match (r, &self.first[i]) {
            (Err(e), _) => self.fail(e),
            (Ok(d), Some(prev)) if d != *prev => {
                self.fail(format!("{}: result differs from its first run", cell.name));
            }
            (Ok(_), Some(_)) => {}
            (Ok(d), None) => self.first[i] = Some(d),
        }
    }

    fn details(&self) -> impl Iterator<Item = &Detail> {
        self.first.iter().flatten()
    }

    fn sum(&self, f: impl Fn(&Detail) -> u64) -> f64 {
        self.details().map(f).sum::<u64>() as f64
    }

    fn speedup_geomean(&self) -> f64 {
        let (n, log_sum) = self
            .details()
            .fold((0usize, 0.0), |(n, s), d| (n + 1, s + d.speedup.ln()));
        if n == 0 {
            0.0
        } else {
            (log_sum / n as f64).exp()
        }
    }

    /// Mean and max absolute estimate error over every executed kernel.
    fn estimate_error(&self) -> (f64, f64) {
        let errs: Vec<f64> = self
            .details()
            .flat_map(|d| d.error_pcts.iter().map(|e| e.abs()))
            .collect();
        let mean = if errs.is_empty() {
            0.0
        } else {
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        (mean, errs.iter().copied().fold(0.0, f64::max))
    }
}

/// Fewest op latencies the timing metrics rest on: ten beyond p95.
const MIN_TIMED_OPS: usize = 200;

/// Nearest-rank percentile of ascending `sorted`, with the number of
/// samples above it.
fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of `v` (sorted in place).
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// Runs whole passes of `w` over `cells` (each pass in a fresh seeded
/// order) until `seconds` of ops have run, one op at a time. `resetup`
/// repeats the set-up and returns its seconds; it runs `SETUP_REPS - 1`
/// times spread evenly over the run, off the op clock, so `setup_s`
/// (the median with `first_setup_s`) samples the same machine as the ops.
///
/// Every cell runs once per pass, so a cell's ops differ only by how
/// much the machine was shared while they ran. The timing metrics come
/// from the middle half of each cell's ops: its fastest and its slowest
/// quarter are dropped (less where that would leave fewer than
/// [`MIN_TIMED_OPS`] ops in all), so every cell weighs the same and
/// neither lucky nor stalled ops move the result. Ops per second is
/// their count over their summed time (one client, closed loop), and
/// the latency percentiles are theirs.
pub fn run_untraced(
    w: Workload,
    cells: &[Cell],
    grid: &Sweep,
    seed: u64,
    seconds: f64,
    first_setup_s: f64,
    resetup: &mut dyn FnMut() -> Result<f64, String>,
) -> Result<Outcome, String> {
    let mut rng = Rng::new(seed);
    let mut tally = Tally::new(cells.len());
    // Op latencies in ms, per cell.
    let mut lat_ms: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut pass_rates = Vec::new();
    let mut setups = vec![first_setup_s];
    let mut op_secs = 0.0;
    // Passes rotate over the CPUs. With more than one sweep worker the
    // workers inherit this thread's affinity, so `design_sweep` then
    // stays unpinned to use them all.
    let cpus = if w == Workload::DesignSweep && binpart_par::thread_count(usize::MAX) > 1 {
        Vec::new()
    } else {
        affinity::allowed()
    };
    loop {
        if cpus.len() > 1 {
            affinity::pin(&[cpus[pass_rates.len() % cpus.len()]]);
        }
        let pass_start = Instant::now();
        for i in rng.permutation(cells.len()) {
            let t = Instant::now();
            let r = guarded(w, &cells[i], grid, &mut Untraced);
            lat_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            tally.record(&cells[i], i, r);
        }
        let pass_secs = pass_start.elapsed().as_secs_f64();
        op_secs += pass_secs;
        pass_rates.push(cells.len() as f64 / pass_secs);
        let done = op_secs >= seconds;
        let due = if done {
            SETUP_REPS
        } else {
            1 + ((SETUP_REPS - 1) as f64 * op_secs / seconds) as usize
        };
        while setups.len() < due {
            if cpus.len() > 1 {
                affinity::pin(&cpus);
            }
            setups.push(resetup()?);
        }
        if done {
            break;
        }
    }
    if cpus.len() > 1 {
        affinity::pin(&cpus);
    }
    let passes = pass_rates.len();
    let trim = (passes / 4).min(passes.saturating_sub(MIN_TIMED_OPS.div_ceil(cells.len())) / 2);
    let mut timed: Vec<f64> = lat_ms
        .iter_mut()
        .flat_map(|l| {
            l.sort_by(f64::total_cmp);
            l[trim..passes - trim].iter().copied()
        })
        .collect();
    timed.sort_by(f64::total_cmp);
    let (p50, _) = percentile(&timed, 0.50);
    let (p95, beyond) = percentile(&timed, 0.95);
    let metrics = vec![
        metric(
            "ops_per_s",
            1e3 * timed.len() as f64 / timed.iter().sum::<f64>(),
            "1/s",
        ),
        metric("op_ms_p50", p50, "ms"),
        metric("op_ms_p95", p95, "ms"),
        metric("app_speedup_geomean", tally.speedup_geomean(), "x"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        metric("setup_s", median(&mut setups), "s"),
    ];
    pass_rates.sort_by(f64::total_cmp);
    let q = |p: f64| pass_rates[((pass_rates.len() - 1) as f64 * p).round() as usize];
    let mut report = vec![
        format!(
            "{w}: {} ops in {passes} passes over {} cells, {op_secs:.2} s; timed each cell's ops but its fastest and slowest {trim}: {} ops, {beyond} beyond p95",
            tally.attempted,
            cells.len(),
            timed.len(),
        ),
        format!(
            "pass rate (ops/s) min {:.1} q1 {:.1} median {:.1} q3 {:.1} max {:.1}; setups {:.4?} s",
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0),
            setups
        ),
        format!(
            "{:<44} {:>16.4} 1",
            "failed_frac",
            ratio(tally.failed as f64, tally.attempted as f64)
        ),
    ];
    if w.is_cosim() {
        let (mean, max) = tally.estimate_error();
        report.push(format!("{:<44} {mean:>16.4} %", "estimate_error_pct_mean"));
        report.push(format!("{:<44} {max:>16.4} %", "estimate_error_pct_max"));
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics,
        report,
    })
}

/// One workload's traced measurements.
struct Trace {
    w: Workload,
    passes: u64,
    ops: u64,
    untraced_s: f64,
    traced_s: f64,
    instrs: u64,
    layers: Layers,
    replay: Layers,
    replayed: crate::ops::Replay,
    tally: Tally,
}

impl Trace {
    fn ms_per_op(&self, l: &Layers, span: &str) -> f64 {
        ratio(1e3 * l.get(span), self.ops as f64)
    }

    fn overhead_pct(&self) -> f64 {
        ratio(100.0 * (self.traced_s - self.untraced_s), self.untraced_s)
    }

    fn unattributed_pct(&self) -> f64 {
        ratio(100.0 * (self.traced_s - self.layers.total()), self.traced_s)
    }

    fn table(&self, out: &mut Vec<String>) {
        out.push(format!(
            "== layers: {} ({} cells x {} passes; ms per op) ==",
            self.w,
            self.tally.first.len(),
            self.passes
        ));
        let op_ms = ratio(1e3 * self.traced_s, self.ops as f64);
        let mut rows: Vec<(&str, f64)> = self.layers.secs.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, secs) in rows {
            out.push(format!(
                "  {name:<14} {:>10.4} {:>6.1}%",
                ratio(1e3 * secs, self.ops as f64),
                ratio(100.0 * secs, self.traced_s)
            ));
        }
        out.push(format!(
            "  {:<14} {:>10.4} {:>6.1}%",
            "unattributed",
            op_ms * self.unattributed_pct() / 100.0,
            self.unattributed_pct()
        ));
        out.push(format!(
            "  op traced {op_ms:.4} ms, untraced {:.4} ms, overhead {:+.2}%; spans cover the op up to the overhead: {}",
            ratio(1e3 * self.untraced_s, self.ops as f64),
            self.overhead_pct(),
            if self.unattributed_pct() <= self.overhead_pct().abs().max(2.0) { "ok" } else { "NO" }
        ));
        if self.replay.total() > 0.0 {
            out.push("  sequential replay of the grid through the stage calls:".into());
            for (name, secs) in &self.replay.secs {
                out.push(format!(
                    "    {name:<12} {:>10.4} {:>6.1}%",
                    ratio(1e3 * secs, self.ops as f64),
                    ratio(100.0 * secs, self.replay.total())
                ));
            }
        }
    }
}

/// The traced run: every workload in turn for a quarter of `seconds`
/// (at least one pass each). Each cell runs once untraced and once
/// traced, alternating which goes first, so the two times share the
/// machine's drift and their difference is the spans' overhead.
pub fn run_traced(cells: &[Cell], grid: &Sweep, seed: u64, seconds: f64) -> Outcome {
    let mut traces = Vec::new();
    for w in Workload::ALL {
        let mut tr = Trace {
            w,
            passes: 0,
            ops: 0,
            untraced_s: 0.0,
            traced_s: 0.0,
            instrs: 0,
            layers: Layers::default(),
            replay: Layers::default(),
            replayed: Default::default(),
            tally: Tally::new(cells.len()),
        };
        let mut rng = Rng::new(seed);
        let start = Instant::now();
        loop {
            for (j, i) in rng.permutation(cells.len()).into_iter().enumerate() {
                let cell = &cells[i];
                for traced in [j % 2 == 1, j % 2 == 0] {
                    let t = Instant::now();
                    let r = if traced {
                        guarded(w, cell, grid, &mut tr.layers)
                    } else {
                        guarded(w, cell, grid, &mut Untraced)
                    };
                    let secs = t.elapsed().as_secs_f64();
                    if traced {
                        tr.traced_s += secs;
                        tr.instrs += r.as_ref().map_or(0, |d| d.instrs);
                    } else {
                        tr.untraced_s += secs;
                    }
                    tr.tally.record(cell, i, r);
                }
                tr.ops += 1;
                if w == Workload::DesignSweep {
                    tr.tally.attempted += 1;
                    match replay(cell, grid, &mut tr.replay) {
                        Ok(r) => {
                            tr.replayed.points += r.points;
                            tr.replayed.synth_hits += r.synth_hits;
                            tr.replayed.synth_misses += r.synth_misses;
                        }
                        Err(e) => tr.tally.fail(e),
                    }
                }
            }
            tr.passes += 1;
            if start.elapsed().as_secs_f64() >= seconds / 4.0 {
                break;
            }
        }
        traces.push(tr);
    }
    layer_outcome(traces, grid)
}

fn layer_outcome(mut traces: Vec<Trace>, grid: &Sweep) -> Outcome {
    let [pc, ds, cv, cp] = [&traces[0], &traces[1], &traces[2], &traces[3]];
    let mut m = vec![
        metric("profile.ms", pc.ms_per_op(&pc.layers, "profile"), "ms"),
        metric(
            "profile.minstr_per_s",
            ratio(pc.instrs as f64 / 1e6, pc.layers.get("profile")),
            "Minstr/s",
        ),
        metric("profile.instrs", pc.tally.sum(|d| d.instrs), "count"),
        metric("decompile.ms", pc.ms_per_op(&pc.layers, "decompile"), "ms"),
        metric(
            "decompile.functions",
            pc.tally.sum(|d| d.functions),
            "count",
        ),
        metric("decompile.blocks", pc.tally.sum(|d| d.blocks), "count"),
        metric(
            "decompile.moves_removed",
            pc.tally.sum(|d| d.moves_removed),
            "count",
        ),
        metric(
            "decompile.stack_ops_removed",
            pc.tally.sum(|d| d.stack_ops_removed),
            "count",
        ),
        metric(
            "decompile.values_narrowed",
            pc.tally.sum(|d| d.values_narrowed),
            "count",
        ),
        metric(
            "decompile.loops_rerolled",
            pc.tally.sum(|d| d.loops_rerolled),
            "count",
        ),
        metric(
            "decompile.unstructured",
            pc.tally.sum(|d| d.unstructured),
            "count",
        ),
        metric("estimate.ms", pc.ms_per_op(&pc.layers, "estimate"), "ms"),
        metric(
            "estimate.candidates",
            pc.tally.sum(|d| d.candidates),
            "count",
        ),
        metric("evaluate.ms", ds.ms_per_op(&ds.replay, "evaluate"), "ms"),
        metric(
            "evaluate.us_per_point",
            ratio(1e6 * ds.replay.get("evaluate"), ds.replayed.points as f64),
            "us",
        ),
        metric(
            "evaluate.synth_hit_rate",
            ratio(
                ds.replayed.synth_hits as f64,
                (ds.replayed.synth_hits + ds.replayed.synth_misses) as f64,
            ),
            "frac",
        ),
        metric(
            "evaluate.synth_attempts",
            ratio(
                (ds.replayed.synth_hits + ds.replayed.synth_misses) as f64,
                ds.passes as f64,
            ),
            "count",
        ),
        metric("evaluate.kernels", ds.tally.sum(|d| d.kernels), "count"),
        metric("sweep.ms", ds.ms_per_op(&ds.layers, "sweep"), "ms"),
        metric("sweep.points", grid.len() as f64, "count"),
        metric(
            "sweep.replay_ms",
            ratio(1e3 * ds.replay.total(), ds.ops as f64),
            "ms",
        ),
        metric("cosim.ms", cv.ms_per_op(&cv.layers, "cosimulate"), "ms"),
        metric(
            "cosim.profiled_ms",
            cp.ms_per_op(&cp.layers, "cosimulate"),
            "ms",
        ),
        metric(
            "cosim.observer_x",
            ratio(
                cp.layers.get("cosimulate") / cp.ops as f64,
                cv.layers.get("cosimulate") / cv.ops as f64,
            ),
            "x",
        ),
        metric(
            "cosim.hw_invocations",
            cv.tally.sum(|d| d.hw_invocations),
            "count",
        ),
        metric("cosim.hw_cycles", cv.tally.sum(|d| d.hw_cycles), "count"),
        metric("cosim.sw_cycles", cv.tally.sum(|d| d.sw_cycles), "count"),
        metric(
            "cosim.unmapped_kernels",
            cv.tally.sum(|d| d.unmapped_kernels),
            "count",
        ),
        metric(
            "cosim.store_mismatches",
            cv.tally.sum(|d| d.store_mismatches),
            "count",
        ),
    ];
    let (err_mean, err_max) = cv.tally.estimate_error();
    m.push(metric("estimate_error_pct_mean", err_mean, "%"));
    m.push(metric("estimate_error_pct_max", err_max, "%"));
    let pc_share = ratio(
        100.0 * (pc.layers.get("profile") + pc.layers.get("decompile")),
        pc.traced_s,
    );
    let ds_share = ratio(100.0 * ds.replay.get("evaluate"), ds.replay.total());
    let cv_share = ratio(100.0 * cv.layers.get("cosimulate"), cv.traced_s);
    m.push(metric(
        "partition_cold.profile_decompile_share_pct",
        pc_share,
        "%",
    ));
    m.push(metric("design_sweep.evaluate_share_pct", ds_share, "%"));
    m.push(metric("cosim_verify.cosim_share_pct", cv_share, "%"));
    for t in &traces {
        m.push(metric(
            format!("trace.overhead_pct.{}", t.w),
            t.overhead_pct(),
            "%",
        ));
        m.push(metric(
            format!("trace.unattributed_pct.{}", t.w),
            t.unattributed_pct(),
            "%",
        ));
    }

    let largest = |l: &Layers| {
        l.secs
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or("", |(k, _)| *k)
    };
    let observer_x = m
        .iter()
        .find(|x| x.name == "cosim.observer_x")
        .map_or(0.0, |x| x.value);
    let verdict = |ok: bool| if ok { "ok" } else { "NO" };
    let mut report = Vec::new();
    for t in &traces {
        t.table(&mut report);
    }
    report.push("== what each workload is for ==".into());
    report.push(format!(
        "  partition_cold: profile+decompile are {pc_share:.1}% of the op (> 50%): {}",
        verdict(pc_share > 50.0)
    ));
    report.push(format!(
        "  design_sweep: evaluate is {ds_share:.1}% of the replayed op (> 50%): {}",
        verdict(ds_share > 50.0)
    ));
    report.push(format!(
        "  cosim_verify: largest layer is {} ({cv_share:.1}%): {}",
        largest(&cv.layers),
        verdict(largest(&cv.layers) == "cosimulate")
    ));
    report.push(format!(
        "  cosim_profiled: observer cost {observer_x:.2}x (> 1): {}",
        verdict(observer_x > 1.0)
    ));

    // Instrumentation must not change any result.
    let perturbed = cv
        .tally
        .first
        .iter()
        .zip(&cp.tally.first)
        .any(|(a, b)| matches!((a, b), (Some(a), Some(b)) if a != b));
    if perturbed {
        traces[3]
            .tally
            .fail("cosim_profiled result differs from cosim_verify".into());
    }
    let mut out = Outcome {
        metrics: m,
        report,
        ..Outcome::default()
    };
    for t in &mut traces {
        out.attempted += t.tally.attempted;
        out.failed += t.tally.failed;
        out.failures.append(&mut t.tally.failures);
    }
    out
}
