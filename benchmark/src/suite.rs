//! The four-workload suite: every workload runs untraced and then traced,
//! each in its own child process (fresh heap, fresh `VmHWM`, fresh
//! process-wide counters), `--repeat` times over; the results merge into
//! one `result.json` with a shared schema.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::cli::Options;
use crate::json::Value;
use crate::{host, spec, stats, BenchResult};

/// Schema tag of `result.json`.
pub const SCHEMA: &str = "condbench/1";

/// Where a single run leaves its full report for the suite to collect.
pub fn run_file(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    out_dir.join(format!("run_{workload}_trace{}.json", u8::from(traced)))
}

fn run_child(options: &Options, workload: &str, traced: bool, seed: u64) -> BenchResult<Value> {
    let file = run_file(&options.out_dir, workload, traced);
    std::fs::remove_file(&file).ok();
    let mut command = Command::new(std::env::current_exe()?);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &options.window_s().to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&options.out_dir)
        .arg("--allow-tmpfs")
        .stdin(Stdio::null());
    if options.smoke {
        command.arg("--smoke");
    }
    // The child prints its own metric lines; wait() reaps it before the
    // next workload starts, so no two workloads ever share the machine.
    let status = command.spawn()?.wait()?;
    let report = std::fs::read_to_string(&file).map_err(|e| {
        format!(
            "{workload} (trace {}) left no report ({status}): {e}",
            u8::from(traced)
        )
    })?;
    std::fs::remove_file(&file).ok();
    Ok(Value::parse(&report)?)
}

/// Folds the same metric from `runs` reports into `{value, unit, ...}`:
/// the single run's entry as is, or the median with quartiles and the
/// individual values when repeated.
fn fold_metric(name: &str, runs: &[&Value]) -> Option<Value> {
    let entries: Vec<&Value> = runs
        .iter()
        .filter_map(|r| r.get("metrics")?.get(name))
        .collect();
    let first = *entries.first()?;
    if entries.len() == 1 {
        return Some(first.clone());
    }
    let values: Vec<f64> = entries
        .iter()
        .filter_map(|e| e.get("value")?.as_f64())
        .collect();
    let [q1, median, q3] = stats::quartiles(&values);
    let mut folded = first.clone();
    folded.set("value", median);
    folded.set("q1", q1);
    folded.set("q3", q3);
    folded.set(
        "runs",
        values.into_iter().map(Value::from).collect::<Vec<_>>(),
    );
    Some(folded)
}

fn fold_workload(workload: &spec::Workload, untraced: &[Value], traced: &[Value]) -> Value {
    let untraced_refs: Vec<&Value> = untraced.iter().collect();
    let traced_refs: Vec<&Value> = traced.iter().collect();
    let mut end_to_end = Value::obj();
    for m in spec::END_TO_END
        .iter()
        .filter(|m| m.scope.covers(workload.name))
    {
        if let Some(entry) = fold_metric(m.name, &untraced_refs) {
            end_to_end.set(m.name, entry);
        }
    }
    let mut per_layer = Value::obj();
    for (listed, measured, ..) in spec::driver_per_layer() {
        if let Some(entry) = fold_metric(measured, &traced_refs) {
            per_layer.set(&listed, entry);
        }
    }
    let all = || untraced.iter().chain(traced);
    let sum = |key: &str| -> f64 { all().filter_map(|r| r.get(key)?.as_f64()).sum() };
    let violations: Vec<Value> = all()
        .flat_map(|r| r.get("violations").map_or(&[][..], Value::items))
        .cloned()
        .collect();
    Value::obj()
        .with("name", workload.name)
        .with("why", workload.why)
        .with(
            "correct",
            all().all(|r| r.get("correct") == Some(&Value::Bool(true))),
        )
        .with("attempted", sum("attempted"))
        .with("failed", sum("failed"))
        .with("violations", violations)
        .with(
            "meta",
            untraced
                .first()
                .and_then(|r| r.get("meta"))
                .cloned()
                .unwrap_or(Value::Null),
        )
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

/// Runs the suite; returns the exit code (1 when any oracle failed).
pub fn main(options: &Options) -> BenchResult<i32> {
    std::fs::create_dir_all(&options.out_dir)?;
    let fs = host::fs_type(&options.out_dir);
    if fs == "tmpfs" && !options.allow_tmpfs {
        return Err(format!(
            "{} is on tmpfs: fsync costs nothing there, so the durable workloads would measure the wrong thing. \
             Point --out at a disk-backed directory, or pass --allow-tmpfs to run anyway.",
            options.out_dir.display()
        )
        .into());
    }

    let mut folded = Vec::new();
    let mut all_correct = true;
    for workload in &spec::WORKLOADS {
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for round in 0..options.repeat as u64 {
            // Each repetition gets its own inputs; the same --seed still
            // reproduces the whole suite.
            let seed = options.seed.wrapping_add(round);
            untraced.push(run_child(options, workload.name, false, seed)?);
            traced.push(run_child(options, workload.name, true, seed)?);
        }
        let entry = fold_workload(workload, &untraced, &traced);
        all_correct &= entry.get("correct") == Some(&Value::Bool(true));
        folded.push(entry);
    }

    let result = Value::obj()
        .with("schema", SCHEMA)
        .with("seed", options.seed)
        .with("window_s", options.window_s())
        .with("repeat", options.repeat)
        .with("smoke", options.smoke)
        .with("host", host::metadata(&options.out_dir))
        .with("workloads", folded)
        .with("per_layer_predictions", spec::per_layer_catalog())
        // This benchmark defines the baseline; it claims no gain.
        .with("claim", Value::Null);
    let path = options.out_dir.join("result.json");
    std::fs::write(&path, result.to_pretty())?;
    println!(
        "condbench: wrote {} (journals on {fs}; traffic crossed loopback; crash() keeps the OS page cache)",
        path.display()
    );
    println!(
        "condbench: oracle {}",
        if all_correct { "green" } else { "VIOLATED" }
    );
    println!("\"claim\": null");
    Ok(if all_correct { 0 } else { 1 })
}
