//! Closed-loop benchmark of the binpart pipeline (binary → partition →
//! co-simulation). See `README.md` beside this package for the workloads,
//! the metrics and what each layer metric should move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload partition_cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod affinity;
mod cells;
mod ops;
mod runner;

use ops::Workload;
use runner::{Metric, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or(
        "--workload is required (partition_cold, design_sweep, cosim_verify, cosim_profiled)",
    )?;
    if !(seconds >= 0.0 && seconds.is_finite()) {
        return Err(format!(
            "--seconds must be a non-negative number, got {seconds}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The repository root: the parent of this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// `git rev-parse HEAD` when the root is a git checkout.
fn git_rev(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// FNV-1a over the workspace sources (`Cargo.*` and `crates/**/*.rs`,
/// `Cargo.toml`), so a result names the code it measured even where
/// there is no git history.
fn source_hash(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_line(correct: bool, out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Runs the benchmark for `args` over the cells `keep` selects.
fn run(
    args: &Args,
    keep: Option<&dyn Fn(&str) -> bool>,
    grid: &binpart_explore::Sweep,
) -> Result<Outcome, String> {
    let (cells, setup_s) = cells::setup(keep)?;
    if args.trace {
        return Ok(runner::run_traced(&cells, grid, args.seed, args.seconds));
    }
    let mut resetup = || cells::resetup(keep, &cells);
    runner::run_untraced(
        args.workload,
        &cells,
        grid,
        args.seed,
        args.seconds,
        setup_s,
        &mut resetup,
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The sweep's own fan-out: `BINPART_THREADS` if set, else one
    // worker (the client thread), never more than the host has.
    let threads = std::env::var("BINPART_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1)
        .clamp(1, nproc);
    std::env::set_var("BINPART_THREADS", threads.to_string());

    let out = match run(&args, None, &ops::design_grid()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: setup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root = repo_root();
    for line in &out.report {
        println!("{line}");
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    for Metric { name, value, unit } in &out.metrics {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    println!(
        "{{\"stamp\": {{\"rev\": \"{}\", \"src\": \"{}\", \"nproc\": {nproc}, \"threads\": {threads}, \"seed\": {}, \"traced\": {}, \"workload\": \"{}\", \"seconds\": {}}}}}",
        git_rev(&root),
        source_hash(&root),
        args.seed,
        args.trace,
        args.workload,
        args.seconds
    );
    println!("{}", result_line(out.failed == 0, &out));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small grid and four cells keep the self-tests fast in debug
    /// builds.
    fn small_grid() -> binpart_explore::Sweep {
        binpart_explore::Sweep::with_base(cells::options())
            .clocks([100e6, 200e6])
            .area_budgets([15_000, 250_000])
    }

    fn few(name: &str) -> bool {
        (name.starts_with("autcor00") || name.starts_with("crc-"))
            && !name.ends_with("-O0")
            && !name.ends_with("-O3")
    }

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
        }
    }

    /// `(name, unit)` of every metric in one `BENCHMARK.json` section.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\"")).expect("key present");
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = rest[open..].find('"').expect("value closes");
            rest[open..open + close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn assert_prints(section: &str, out: &Outcome) {
        let line = result_line(true, out);
        let names = declared(section);
        assert!(!names.is_empty());
        for (name, unit) in names {
            let m = out.metrics.iter().find(|m| m.name == name);
            let m = m.unwrap_or_else(|| panic!("{section} metric {name} not produced"));
            assert_eq!(m.unit, unit, "{name}");
            assert!(m.value.is_finite(), "{name}");
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing from {line}"
            );
        }
        assert_eq!(
            out.metrics.len(),
            declared(section).len(),
            "undeclared metrics"
        );
    }

    #[test]
    fn minimal_runs_print_every_declared_metric_with_its_unit() {
        let grid = small_grid();
        for w in Workload::ALL {
            let out = run(&args(w, false), Some(&few), &grid).expect("runs");
            assert_eq!(out.failed, 0, "{w}: {:?}", out.failures);
            assert_prints("end_to_end", &out);
        }
        let out = run(&args(Workload::PartitionCold, true), Some(&few), &grid).expect("runs");
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert_prints("per_layer", &out);
    }

    #[test]
    fn corrupted_expected_v0_raises_failed_frac() {
        let grid = small_grid();
        let (mut cells, _) = cells::setup(Some(&few)).expect("setup");
        cells[0].expected_v0 ^= 1;
        for w in Workload::ALL {
            let out =
                runner::run_untraced(w, &cells, &grid, 3, 0.0, 1.0, &mut || Ok(1.0)).expect("runs");
            assert!(out.failed > 0, "{w}: a wrong $v0 went unnoticed");
            assert!(
                out.failed < out.attempted,
                "{w}: only the corrupted cell fails"
            );
        }
    }

    #[test]
    fn cell_order_is_seeded() {
        let a = cells::Rng::new(5).permutation(80);
        assert_eq!(a, cells::Rng::new(5).permutation(80));
        assert_ne!(a, cells::Rng::new(6).permutation(80));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..80).collect::<Vec<_>>());
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload design_sweep --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 3").is_err());
        assert!(parse("--workload partition_cold --trace 2").is_err());
        assert!(parse("--workload partition_cold --bogus 1").is_err());
    }
}
