//! E10 — declarative scenario engine: runs every `.toml` scenario under
//! `scenarios/` through `cond-scenario`, on simulated time, reporting
//! sends/s, verdict latency percentiles (scenario-clock ms; "—" in the
//! table and `null` in the JSON for a scenario with no verdict latency,
//! such as one whose members are all sphere rounds), and the oracle
//! verdict per scenario. Every oracle must pass. Results land in
//! `BENCH_scenario.json`.
//!
//! `--quick` selects each scenario's reduced actor populations
//! (`quick_count`) so the binary can run inside the repository gate
//! (`check.sh`); the full run drives the IoT fleet scenario at a million
//! pending conditional messages.

use std::path::PathBuf;
use std::time::Instant;

use cond_bench::{header, percentile, row, write_bench_json};
use cond_scenario::{exec, RunReport, ScenarioSpec};

/// The flagship scenarios, in run order (cheapest first).
const SCENARIOS: &[&str] = &[
    "fig8_relay_crash.toml",
    "msmq_branches.toml",
    "iot_fleet.toml",
];

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// The `p` percentile of a run's verdict latencies, or `none` when the run
/// timed no verdict.
fn latency_ms(report: &RunReport, p: f64, none: &str) -> String {
    percentile(&report.verdict_latency_ms, p).map_or_else(|| none.to_owned(), |ms| ms.to_string())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!(
        "# E10 — declarative scenarios ({} mode)\n",
        if quick { "quick" } else { "full" }
    );
    header(&[
        "scenario",
        "sent",
        "success",
        "failure",
        "spheres c/a",
        "wall (s)",
        "sends/s",
        "verdict p50 (ms)",
        "verdict p95 (ms)",
        "oracle",
    ]);

    let mut reports: Vec<(String, f64, RunReport)> = Vec::new();
    for file in SCENARIOS {
        let path = scenarios_dir().join(file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let spec = ScenarioSpec::from_toml_str(&text)
            .unwrap_or_else(|e| panic!("parse {file}: {e}"));
        let start = Instant::now();
        let report =
            exec::run(&spec, quick).unwrap_or_else(|e| panic!("run {file}: {e}"));
        let wall = start.elapsed().as_secs_f64();
        let rate = report.sent as f64 / wall.max(1e-9);
        row(&[
            report.name.clone(),
            report.sent.to_string(),
            report.success.to_string(),
            report.failure.to_string(),
            format!("{}/{}", report.spheres_committed, report.spheres_aborted),
            format!("{wall:.2}"),
            format!("{rate:.0}"),
            latency_ms(&report, 0.50, "—"),
            latency_ms(&report, 0.95, "—"),
            if report.oracle.passed() {
                "pass".to_owned()
            } else {
                format!("FAIL ({} checks)", report.oracle.failed_count())
            },
        ]);
        if !report.oracle.passed() {
            eprintln!("\noracle report for {file}:\n{}", report.oracle);
        }
        reports.push(((*file).to_owned(), wall, report));
    }

    let mut json = String::from("{\n  \"experiment\": \"scenario\",\n  \"scenarios\": [\n");
    for (k, (file, wall, r)) in reports.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"file\": \"{file}\", \"name\": \"{}\", \
             \"sent\": {}, \"send_errors\": {}, \"success\": {}, \"failure\": {}, \
             \"spheres_committed\": {}, \"spheres_aborted\": {}, \"comps_swept\": {}, \
             \"wall_s\": {wall:.3}, \"sends_per_s\": {:.1}, \
             \"verdict_p50_ms\": {}, \"verdict_p95_ms\": {}, \
             \"oracle_checks\": {}, \"oracle_failed\": {}, \"oracle_passed\": {}}}{}\n",
            r.name,
            r.sent,
            r.send_errors,
            r.success,
            r.failure,
            r.spheres_committed,
            r.spheres_aborted,
            r.comps_swept,
            r.sent as f64 / wall.max(1e-9),
            latency_ms(r, 0.50, "null"),
            latency_ms(r, 0.95, "null"),
            r.oracle.checks.len(),
            r.oracle.failed_count(),
            r.oracle.passed(),
            if k + 1 < reports.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    write_bench_json("BENCH_scenario.json", quick, &json);

    let failed: Vec<&str> = reports
        .iter()
        .filter(|(_, _, r)| !r.oracle.passed())
        .map(|(f, _, _)| f.as_str())
        .collect();
    assert!(
        failed.is_empty(),
        "scenario oracles failed: {failed:?} — every declared message must \
         reach exactly one outcome"
    );
}
