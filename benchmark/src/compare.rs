//! `condbench compare A.json B.json`: for every workload and every
//! end-to-end metric declared on it, how much worse B's median is than
//! A's, held against the metric's bound. One row per workload.
//!
//! * `REGRESSION` — B is worse than A by more than the bound
//!   (`failed_share`: by any amount).
//! * `unresolved` — an input made with `--repeat` shows a run-to-run
//!   spread (interquartile distance over median) wider than the bound, so
//!   the pair cannot tell a change from noise; never reported as
//!   "unchanged".
//! * `ok` — within the bound.

use std::path::Path;

use crate::json::Value;
use crate::spec::{self, EndToEnd};
use crate::{stats, BenchResult};

/// Verdict on one workload × metric cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Regression,
    /// The inputs' own spread exceeds the bound.
    Unresolved,
    /// One of the inputs lacks the metric.
    Missing,
}

/// One compared cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// A's value (median under `--repeat`).
    pub base: f64,
    /// B's value.
    pub change: f64,
    /// Relative worsening of B against A; positive is worse.
    pub worsening: f64,
    /// The verdict.
    pub status: Status,
}

fn load(path: &Path) -> BenchResult<Value> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(Value::as_str) != Some(crate::suite::SCHEMA) {
        return Err(format!("{}: not a condbench result.json", path.display()).into());
    }
    Ok(doc)
}

fn metric_entry<'a>(doc: &'a Value, workload: &str, metric: &str) -> Option<&'a Value> {
    doc.get("workloads")?
        .items()
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(workload))?
        .get("end_to_end")?
        .get(metric)
}

/// Spread of a repeated entry's own runs (0 for a single run).
fn own_spread(entry: &Value) -> f64 {
    let runs: Vec<f64> = entry
        .get("runs")
        .map_or(&[][..], Value::items)
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    if runs.len() < 2 {
        0.0
    } else {
        stats::spread(&runs)
    }
}

fn judge(metric: &EndToEnd, base: &Value, change: &Value) -> (f64, f64, f64, Status) {
    let (Some(a), Some(b)) = (
        base.get("value").and_then(Value::as_f64),
        change.get("value").and_then(Value::as_f64),
    ) else {
        return (0.0, 0.0, 0.0, Status::Missing);
    };
    let worse_by = if metric.better == "higher" {
        a - b
    } else {
        b - a
    };
    // A zero base has no relative scale: any worsening is total.
    let worsening = if a != 0.0 {
        worse_by / a.abs()
    } else if worse_by > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    let status = if metric.bound > 0.0 && own_spread(base).max(own_spread(change)) > metric.bound {
        Status::Unresolved
    } else if worsening > metric.bound {
        Status::Regression
    } else {
        Status::Ok
    };
    (a, b, worsening, status)
}

/// Compares two parsed result documents.
pub fn compare(base: &Value, change: &Value) -> Vec<Cell> {
    let mut cells = Vec::new();
    for workload in &spec::WORKLOADS {
        for metric in spec::END_TO_END
            .iter()
            .filter(|m| m.scope.covers(workload.name))
        {
            let (a, b, worsening, status) = match (
                metric_entry(base, workload.name, metric.name),
                metric_entry(change, workload.name, metric.name),
            ) {
                (Some(a), Some(b)) => judge(metric, a, b),
                _ => (0.0, 0.0, 0.0, Status::Missing),
            };
            cells.push(Cell {
                workload: workload.name,
                metric: metric.name,
                base: a,
                change: b,
                worsening,
                status,
            });
        }
    }
    cells
}

/// Renders the comparison, one row per workload.
pub fn render(cells: &[Cell]) -> String {
    let mut out = String::from(
        "change of B against A per end-to-end metric: +worse / -better, against the metric's bound\n",
    );
    for workload in &spec::WORKLOADS {
        out.push_str(workload.name);
        for cell in cells.iter().filter(|c| c.workload == workload.name) {
            let bound = spec::END_TO_END
                .iter()
                .find(|m| m.name == cell.metric)
                .map_or(0.0, |m| m.bound);
            let verdict = match cell.status {
                Status::Ok => "ok",
                Status::Regression => "REGRESSION",
                Status::Unresolved => "unresolved",
                Status::Missing => "missing",
            };
            out.push_str(&format!(
                " | {} {:+.1}%/{:.0}% {verdict}",
                cell.metric,
                cell.worsening * 100.0,
                bound * 100.0
            ));
        }
        out.push('\n');
    }
    out
}

/// `compare` subcommand; exit code 1 on any regression.
pub fn main(base: &Path, change: &Path) -> BenchResult<i32> {
    let cells = compare(&load(base)?, &load(change)?);
    print!("{}", render(&cells));
    let count = |status| cells.iter().filter(|c| c.status == status).count();
    println!(
        "{} regression(s), {} unresolved, {} missing, {} ok",
        count(Status::Regression),
        count(Status::Unresolved),
        count(Status::Missing),
        count(Status::Ok)
    );
    Ok(i32::from(count(Status::Regression) > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(verdict_per_s: Value, failed_share: f64) -> Value {
        let workloads: Vec<Value> = spec::WORKLOADS
            .iter()
            .map(|w| {
                Value::obj().with("name", w.name).with(
                    "end_to_end",
                    Value::obj()
                        .with("verdict_per_s", verdict_per_s.clone())
                        .with("verdict_ms_p50", Value::obj().with("value", 2.0))
                        .with("failed_share", Value::obj().with("value", failed_share)),
                )
            })
            .collect();
        Value::obj()
            .with("schema", crate::suite::SCHEMA)
            .with("workloads", workloads)
    }

    fn single(value: f64) -> Value {
        Value::obj().with("value", value)
    }

    fn status_of(cells: &[Cell], metric: &str) -> Status {
        cells
            .iter()
            .find(|c| c.workload == "durable_rtt" && c.metric == metric)
            .expect("cell")
            .status
    }

    #[test]
    fn bounds_direction_and_failed_share() {
        let base = doc(single(1000.0), 0.0);
        // Higher is better: -5% is inside the 10% bound, -15% is not.
        assert_eq!(
            status_of(&compare(&base, &doc(single(950.0), 0.0)), "verdict_per_s"),
            Status::Ok
        );
        let worse = compare(&base, &doc(single(850.0), 0.0));
        assert_eq!(status_of(&worse, "verdict_per_s"), Status::Regression);
        assert_eq!(status_of(&worse, "verdict_ms_p50"), Status::Ok);
        // Better is never a regression.
        assert_eq!(
            status_of(&compare(&base, &doc(single(2000.0), 0.0)), "verdict_per_s"),
            Status::Ok
        );
        // failed_share: any increase at all.
        assert_eq!(
            status_of(&compare(&base, &doc(single(1000.0), 1e-6)), "failed_share"),
            Status::Regression
        );
        assert_eq!(
            status_of(&compare(&base, &base), "failed_share"),
            Status::Ok
        );
        // Metrics an input lacks are reported, not guessed.
        assert_eq!(
            status_of(&compare(&base, &base), "setup_s"),
            Status::Missing
        );
        assert!(render(&worse).contains("durable_rtt | "));
        assert!(render(&worse).contains("verdict_per_s +15.0%/10% REGRESSION"));
    }

    #[test]
    fn noisy_repeats_are_unresolved_not_unchanged() {
        let noisy = Value::obj().with("value", 1000.0).with(
            "runs",
            vec![Value::from(700.0), Value::from(1000.0), Value::from(1300.0)],
        );
        let steady = Value::obj().with("value", 1000.0).with(
            "runs",
            vec![Value::from(990.0), Value::from(1000.0), Value::from(1010.0)],
        );
        let cells = compare(&doc(noisy, 0.0), &doc(single(500.0), 0.0));
        assert_eq!(status_of(&cells, "verdict_per_s"), Status::Unresolved);
        let cells = compare(&doc(steady, 0.0), &doc(single(500.0), 0.0));
        assert_eq!(status_of(&cells, "verdict_per_s"), Status::Regression);
    }
}
