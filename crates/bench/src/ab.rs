//! Paired-run comparison of two benchmark commands (`tables ab`).
//!
//! Host noise moves a run's throughput by more than most changes do, so
//! a claimed gain is judged on pairs: each pair runs the base command and
//! the changed command back to back, alternating which goes first (base
//! first in the even-numbered pairs, counting from 0), so drift in the
//! host's load hits both sides alike. A command's result is the last line
//! of its standard output, a JSON object with a `metrics` object of
//! `{"value": number, "unit": string}` entries — perfbench's result line.
//!
//! For each metric the comparison reports both medians, the base runs'
//! interquartile range, and in how many pairs the change was strictly
//! better or strictly worse. The claim rule: a change is *better* on a
//! metric when it wins at least 9 pairs in 10 and its median gain exceeds
//! the base IQR; *worse* by the mirror rule; otherwise the difference is
//! inside noise.

use crate::parse_json_numbers;

/// One metric of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as the command printed it.
    pub unit: String,
}

/// The metrics of a result line: every entry of its `metrics` object
/// whose `value` is a number, in order. `None` when the line has no
/// `metrics` object. The entries are flat objects (`{"value": 1.5,
/// "unit": "ms"}`), so no general JSON parser is needed.
pub fn result_metrics(line: &str) -> Option<Vec<Metric>> {
    let at = line.find("\"metrics\"")?;
    let mut rest = line[at + "\"metrics\"".len()..]
        .trim_start()
        .strip_prefix(':')?
        .trim_start()
        .strip_prefix('{')?;
    let mut out = Vec::new();
    loop {
        rest = rest.trim_start().trim_start_matches(',').trim_start();
        let Some(named) = rest.strip_prefix('"') else {
            break;
        };
        let name_end = named.find('"')?;
        let body_end = named.find('}')?;
        let body = &named[name_end + 1..=body_end];
        let value = parse_json_numbers(body)
            .into_iter()
            .find_map(|(k, v)| (k == "value").then_some(v));
        let unit = body
            .split_once("\"unit\"")
            .and_then(|(_, u)| u.trim_start().strip_prefix(':'))
            .and_then(|u| u.trim_start().strip_prefix('"'))
            .and_then(|u| u.split('"').next())
            .unwrap_or("");
        if let Some(value) = value {
            out.push(Metric {
                name: named[..name_end].to_string(),
                value,
                unit: unit.to_string(),
            });
        }
        rest = &named[body_end + 1..];
    }
    Some(out)
}

/// Whether a larger value of a metric in `unit` is better: rates (a unit
/// ending in `/s`) and ratios (`x`) are; times, sizes, counts and
/// percentages are not.
pub fn higher_is_better(unit: &str) -> bool {
    unit.ends_with("/s") || unit == "x"
}

/// The `p`-quantile of `xs` by linear interpolation between closest
/// ranks (`p` in 0..=1). `NaN` for an empty sample.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return f64::NAN;
    };
    let rank = p.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The claim rule's verdict on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// At least 9 wins in 10 and a median gain above the base IQR.
    Better,
    /// The mirror: at least 9 losses in 10 and a median loss above it.
    Worse,
    /// Neither.
    Noise,
}

/// One metric compared over the pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Median of the base runs.
    pub base_median: f64,
    /// Interquartile range of the base runs.
    pub base_iqr: f64,
    /// Median of the changed runs.
    pub change_median: f64,
    /// Median gain of the change, signed so that positive is better.
    pub gain: f64,
    /// Pairs the change won (strictly better).
    pub wins: usize,
    /// Pairs the change lost (strictly worse).
    pub losses: usize,
    /// The claim rule's verdict.
    pub verdict: Verdict,
}

/// Compares paired samples: `base[i]` and `change[i]` come from pair `i`.
pub fn compare(base: &[f64], change: &[f64], higher_better: bool) -> Comparison {
    let sign = if higher_better { 1.0 } else { -1.0 };
    let pairs = base.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| sign * (change[i] - base[i]) > 0.0)
        .count();
    let losses = (0..pairs)
        .filter(|&i| sign * (change[i] - base[i]) < 0.0)
        .count();
    let base_median = quantile(base, 0.5);
    let change_median = quantile(change, 0.5);
    let base_iqr = quantile(base, 0.75) - quantile(base, 0.25);
    let gain = if higher_better {
        change_median - base_median
    } else {
        base_median - change_median
    };
    // 9 in 10, exactly: wins / pairs >= 0.9.
    let most = |n: usize| pairs > 0 && 10 * n >= 9 * pairs;
    let verdict = if most(wins) && gain > base_iqr {
        Verdict::Better
    } else if most(losses) && -gain > base_iqr {
        Verdict::Worse
    } else {
        Verdict::Noise
    };
    Comparison {
        base_median,
        base_iqr,
        change_median,
        gain,
        wins,
        losses,
        verdict,
    }
}

/// Which command a run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The base command.
    Base,
    /// The changed command.
    Change,
}

/// The two sides of pair `i` in run order: base first when `i` is even.
pub fn pair_order(i: usize) -> [Side; 2] {
    if i.is_multiple_of(2) {
        [Side::Base, Side::Change]
    } else {
        [Side::Change, Side::Base]
    }
}

/// The metrics of each run of one side, indexed by pair.
pub type Runs = Vec<Vec<Metric>>;

/// Runs `pairs` pairs through `run` in [`pair_order`] and returns the
/// base and changed runs' metrics.
///
/// # Errors
///
/// The first error `run` returns.
pub fn run_pairs(
    pairs: usize,
    mut run: impl FnMut(usize, Side) -> Result<Vec<Metric>, String>,
) -> Result<(Runs, Runs), String> {
    let (mut base, mut change) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for i in 0..pairs {
        for side in pair_order(i) {
            let metrics = run(i, side)?;
            match side {
                Side::Base => base.push(metrics),
                Side::Change => change.push(metrics),
            }
        }
    }
    Ok((base, change))
}

/// The value of metric `name` in each run, or `None` if a run lacks it.
pub fn samples(runs: &[Vec<Metric>], name: &str) -> Option<Vec<f64>> {
    runs.iter()
        .map(|r| r.iter().find(|m| m.name == name).map(|m| m.value))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"correct": true, "attempted": 560, "failed": 0, "metrics": {"ops_per_s": {"value": 577.6, "unit": "1/s"}, "op_ms_p50": {"value": 1.6, "unit": "ms"}, "gone": {"value": null, "unit": "ms"}, "app_speedup_geomean": {"value": 3.0361077344923166, "unit": "x"}}}"#;

    #[test]
    fn result_line_metrics_parse_in_order() {
        let m = result_metrics(LINE).unwrap();
        let got: Vec<(&str, f64, &str)> = m
            .iter()
            .map(|m| (&*m.name, m.value, &*m.unit))
            .collect();
        assert_eq!(
            got,
            [
                ("ops_per_s", 577.6, "1/s"),
                ("op_ms_p50", 1.6, "ms"),
                ("app_speedup_geomean", 3.0361077344923166, "x"),
            ]
        );
        assert_eq!(result_metrics(r#"{"correct": true}"#), None);
        assert_eq!(result_metrics(r#"{"metrics": {}}"#), Some(vec![]));
    }

    #[test]
    fn direction_follows_the_unit() {
        assert!(higher_is_better("1/s"));
        assert!(higher_is_better("Minstr/s"));
        assert!(higher_is_better("x"));
        for unit in ["ms", "s", "MiB", "count", "%", ""] {
            assert!(!higher_is_better(unit), "{unit}");
        }
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&xs, 0.25), 1.75);
        assert_eq!(quantile(&xs, 0.75), 3.25);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn claim_needs_nine_wins_in_ten_and_a_gain_above_the_iqr() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        // base: median 104.5, IQR 106.75 - 102.25 = 4.5.
        let c = compare(&base, &base.iter().map(|b| b + 5.0).collect::<Vec<_>>(), true);
        assert_eq!((c.wins, c.losses), (10, 0));
        assert_eq!((c.base_median, c.base_iqr, c.gain), (104.5, 4.5, 5.0));
        assert_eq!(c.verdict, Verdict::Better);
        // Every pair won, but by less than the base IQR.
        let c = compare(&base, &base.iter().map(|b| b + 4.0).collect::<Vec<_>>(), true);
        assert_eq!((c.wins, c.verdict), (10, Verdict::Noise));
        // A large median gain, but only 8 wins in 10.
        let mut change: Vec<f64> = base.iter().map(|b| b + 20.0).collect();
        change[3] = 0.0;
        change[7] = 0.0;
        let c = compare(&base, &change, true);
        assert_eq!((c.wins, c.losses, c.verdict), (8, 2, Verdict::Noise));
        // 9 in 10 is enough.
        change[3] = 200.0;
        assert_eq!(compare(&base, &change, true).verdict, Verdict::Better);
        // Lower-is-better metrics mirror: a smaller value wins.
        let slower: Vec<f64> = base.iter().map(|b| b + 5.0).collect();
        let c = compare(&base, &slower, false);
        assert_eq!((c.wins, c.losses, c.gain), (0, 10, -5.0));
        assert_eq!(c.verdict, Verdict::Worse);
    }

    #[test]
    fn identical_samples_are_neither_win_nor_loss() {
        let xs = [3.0, 3.0, 3.0, 3.0];
        for higher in [true, false] {
            let c = compare(&xs, &xs, higher);
            assert_eq!((c.wins, c.losses, c.gain, c.base_iqr), (0, 0, 0.0, 0.0));
            assert_eq!(c.verdict, Verdict::Noise);
        }
    }

    #[test]
    fn pairs_alternate_which_side_runs_first() {
        let mut log = Vec::new();
        let metric = |v: f64| Metric {
            name: "m".into(),
            value: v,
            unit: "ms".into(),
        };
        let (base, change) = run_pairs(4, |i, side| {
            log.push((i, side));
            Ok(vec![metric(if side == Side::Base { i as f64 } else { 10.0 + i as f64 })])
        })
        .unwrap();
        use Side::{Base as B, Change as C};
        assert_eq!(
            log,
            [(0, B), (0, C), (1, C), (1, B), (2, B), (2, C), (3, C), (3, B)]
        );
        assert_eq!(samples(&base, "m").unwrap(), [0.0, 1.0, 2.0, 3.0]);
        assert_eq!(samples(&change, "m").unwrap(), [10.0, 11.0, 12.0, 13.0]);
        assert_eq!(samples(&change, "other"), None);
        let err = run_pairs(3, |i, _| if i == 1 { Err("boom".into()) } else { Ok(vec![]) });
        assert_eq!(err.unwrap_err(), "boom");
    }
}
