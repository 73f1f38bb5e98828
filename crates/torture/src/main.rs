//! `torture` — seeded fault-injection campaign against the partitioning
//! flow. See the crate docs and `crates/bench/src/bin/README.md`.
//!
//! ```text
//! torture [--smoke] [--seed N] [--count N] [--max-steps N] [--verbose]
//! ```
//!
//! `--smoke` is the CI preset: fixed seed, 250 mutants, default budgets —
//! then a second, 100-mutant campaign on another fixed seed, so it adds
//! mutants the first never generates. Exit code 1 when any contract
//! violation (panic, hang, differential mismatch) is observed in either
//! campaign; the report names the mutant seed so a failure reproduces with
//! `--seed <mutant seed> --count 1`.

use binpart_torture::{run_campaign, TortureConfig, TortureSummary};

/// Seed of the `--smoke` preset's second campaign.
const SMOKE_SECOND_SEED: u64 = 0x5EC0_2D05;

fn main() {
    let mut cfg = TortureConfig {
        count: 64,
        ..TortureConfig::default()
    };
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        // Violation lines print seeds as 0x…, so accept both bases: the
        // documented repro loop is copy-paste.
        let mut num = |what: &str| -> u64 {
            args.next()
                .and_then(|v| match v.strip_prefix("0x").or(v.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => v.parse().ok(),
                })
                .unwrap_or_else(|| {
                    eprintln!("torture: {what} needs a numeric argument");
                    std::process::exit(2);
                })
        };
        match a.as_str() {
            "--smoke" => {
                cfg.seed = TortureConfig::default().seed;
                cfg.count = 250;
                smoke = true;
            }
            "--seed" => cfg.seed = num("--seed"),
            "--count" => cfg.count = num("--count") as usize,
            "--max-steps" => cfg.max_steps = num("--max-steps"),
            "--verbose" | "-v" => cfg.verbose = true,
            "--help" | "-h" => {
                println!(
                    "usage: torture [--smoke] [--seed N] [--count N] [--max-steps N] [--verbose]"
                );
                return;
            }
            other => {
                eprintln!("torture: unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
    }

    let mut campaigns: Vec<TortureConfig> = vec![cfg.clone()];
    if smoke {
        campaigns.push(TortureConfig {
            seed: SMOKE_SECOND_SEED,
            count: 100,
            ..cfg
        });
    }

    let mut violations = 0usize;
    for cfg in &campaigns {
        println!(
            "torture: {} mutants, seed {:#x}, {} step budget",
            cfg.count, cfg.seed, cfg.max_steps
        );
        let t0 = std::time::Instant::now();
        let s: TortureSummary = run_campaign(cfg);
        println!(
            "torture: {} mutants in {:.1}s — {} full successes ({} degraded), {} typed errors",
            s.total,
            t0.elapsed().as_secs_f64(),
            s.succeeded,
            s.degraded,
            s.typed_errors(),
        );
        for (kind, n) in &s.error_kinds {
            println!("  {n:>5}  {kind}");
        }
        for v in s.panics.iter().chain(&s.mismatches).chain(&s.hangs) {
            eprintln!("VIOLATION: {v}");
        }
        violations += s.violations();
    }
    if smoke {
        // The violation-report machinery itself (span-stack reads,
        // unbalanced bookkeeping, rendering around a panicking pipeline)
        // must never panic: it runs while reporting another failure.
        match binpart_torture::telemetry_emission_smoke() {
            Ok(()) => println!("torture: telemetry emission path is panic-free"),
            Err(e) => {
                eprintln!("VIOLATION: {e}");
                violations += 1;
            }
        }
    }
    if violations > 0 {
        eprintln!("torture: {violations} contract violations");
        std::process::exit(1);
    }
    println!("torture: zero panics, zero hangs, differential clean");
}
