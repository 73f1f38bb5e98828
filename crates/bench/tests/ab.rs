//! Self-test of `tables ab`: comparing a deterministic command with
//! itself must find no win and no loss on any metric.

use std::process::Command;

#[test]
fn a_command_against_itself_neither_wins_nor_loses() {
    let result = r#"{"correct": true, "metrics": {"ops_per_s": {"value": 336.3, "unit": "1/s"}, "op_ms_p50": {"value": 2.88, "unit": "ms"}, "app_speedup_geomean": {"value": 3.0361077344923166, "unit": "x"}}}"#;
    let cmd = format!("echo 'report line'; echo '{result}'");
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["ab", "--pairs", "4", "--base", &cmd, "--change", &cmd])
        .output()
        .expect("tables runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for metric in ["ops_per_s", "op_ms_p50", "app_speedup_geomean"] {
        let row = stdout
            .lines()
            .find(|l| l.starts_with(metric))
            .unwrap_or_else(|| panic!("no row for {metric}:\n{stdout}"));
        let cols: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(
            cols[cols.len() - 3..],
            ["0/4", "0/4", "Noise"],
            "{row}"
        );
        // metric, better, base median, base IQR, change median, gain, ...
        assert_eq!(cols[2], cols[4], "equal medians: {row}");
        assert_eq!(cols[3], "0.000000", "no spread: {row}");
        assert_eq!(cols[5], "0.00%", "{row}");
    }
}

#[test]
fn a_failing_or_resultless_command_is_an_error() {
    let tables = env!("CARGO_BIN_EXE_tables");
    let ok = r#"echo '{"metrics": {"m": {"value": 1, "unit": "ms"}}}'"#;
    for bad in ["exit 3", "echo no result"] {
        let out = Command::new(tables)
            .args(["ab", "--pairs", "1", "--base", ok, "--change", bad])
            .output()
            .expect("tables runs");
        assert_eq!(out.status.code(), Some(1), "{bad}");
    }
    let out = Command::new(tables)
        .args(["ab", "--pairs", "0", "--base", ok, "--change", ok])
        .output()
        .expect("tables runs");
    assert_eq!(out.status.code(), Some(2));
}
