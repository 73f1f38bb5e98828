//! Pins the experiment tables byte for byte: every deterministic
//! `tables` subcommand must print exactly its golden under `golden/`.
//! A refactor of the pipeline or the harness that changes any number
//! fails here. A1's `time (us)` column is wall clock, so its golden holds
//! only the algorithm and gain columns.

use std::process::Command;

fn tables(which: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .arg(which)
        .output()
        .expect("tables runs");
    assert!(
        out.status.success(),
        "tables {which} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("tables prints UTF-8")
}

fn golden(which: &str) -> String {
    let path = format!(
        "{}/tests/golden/tables_{which}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn deterministic_tables_match_goldens() {
    for which in ["e1", "e2", "e3", "e4", "a2", "a3"] {
        assert_eq!(
            tables(which),
            golden(which),
            "tables {which} drifted from its golden"
        );
    }
}

/// Drops a row's trailing integer column (A1's solve time); header and
/// title lines end in text and stay whole.
fn without_time_column(text: &str) -> String {
    text.lines()
        .map(|line| match line.trim_end().rsplit_once(' ') {
            Some((rest, last)) if last.parse::<u128>().is_ok() => rest.trim_end(),
            _ => line,
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

#[test]
fn a1_gains_match_golden() {
    assert_eq!(without_time_column(&tables("a1")), golden("a1"));
}

/// A mistyped subcommand must fail without doing any work: falling
/// through to `all` would rewrite `BENCH_sim.json` and append to
/// `BENCH_history.jsonl`.
#[test]
fn unknown_subcommand_exits_nonzero_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .arg("e5")
        .output()
        .expect("tables runs");
    assert_eq!(out.status.code(), Some(2), "tables e5 must exit 2");
    assert!(out.stdout.is_empty(), "tables e5 printed a table");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: tables"), "{stderr}");
}
