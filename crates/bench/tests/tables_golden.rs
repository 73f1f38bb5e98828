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
/// `BENCH_history.jsonl`. `sim` is a removed subcommand (`all` is the only
/// snapshot writer).
#[test]
fn unknown_subcommand_exits_nonzero_with_usage() {
    for which in ["e5", "sim"] {
        let out = Command::new(env!("CARGO_BIN_EXE_tables"))
            .arg(which)
            .output()
            .expect("tables runs");
        assert_eq!(out.status.code(), Some(2), "tables {which} must exit 2");
        assert!(out.stdout.is_empty(), "tables {which} printed a table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: tables"), "{stderr}");
    }
}

/// `tables check` refuses a snapshot with a hole before measuring
/// anything, naming the column, and refuses a missing snapshot outright.
#[test]
fn check_fails_on_null_column_or_missing_snapshot() {
    let dir = std::env::temp_dir().join(format!("binpart_tables_check_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let check = || {
        Command::new(env!("CARGO_BIN_EXE_tables"))
            .arg("check")
            .current_dir(&dir)
            .output()
            .expect("tables runs")
    };
    let _ = std::fs::remove_file(dir.join("BENCH_sim.json"));
    let out = check();
    assert_eq!(out.status.code(), Some(1), "a missing snapshot must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("not found"));

    let holed: String = workspace_snapshot()
        .lines()
        .map(|line| match line.split_once("\"hw_state_coverage\":") {
            Some((indent, _)) => format!("{indent}\"hw_state_coverage\": null,\n"),
            None => format!("{line}\n"),
        })
        .collect();
    std::fs::write(dir.join("BENCH_sim.json"), holed).unwrap();
    let out = check();
    assert_eq!(out.status.code(), Some(1), "a null column must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"hw_state_coverage\": null"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The committed `BENCH_sim.json` at the workspace root.
fn workspace_snapshot() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Every column of the committed snapshot has a row in the field table of
/// `src/bin/README.md`, so the metric docs cannot fall behind the writer.
#[test]
fn every_snapshot_column_is_documented() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin/README.md");
    let readme = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let columns = binpart_bench::parse_json_numbers(&workspace_snapshot());
    assert!(!columns.is_empty(), "snapshot parsed to no columns");
    for (key, _) in columns {
        assert!(
            readme.contains(&format!("\n| `{key}` |")),
            "BENCH_sim.json column `{key}` has no row in src/bin/README.md"
        );
    }
}
