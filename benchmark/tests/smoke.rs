//! Runs the whole suite in `--smoke` mode through the real binary and
//! checks the three descriptions of the benchmark agree: the committed
//! `BENCHMARK.json`, the built-in tables, and what a run actually emits.

use std::path::{Path, PathBuf};
use std::process::Command;

use condbench::json::Value;
use condbench::spec;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = manifest_dir()
        .join("out")
        .join(format!("test-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .expect(key)
        .items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

#[test]
fn committed_benchmark_json_is_the_generated_one() {
    let path = manifest_dir().join("../BENCHMARK.json");
    let committed = Value::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "BENCHMARK.json drifted from `condbench spec`; regenerate it"
    );
    let keys: Vec<&str> = committed.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn smoke_suite_reports_every_declared_metric_and_compare_accepts_it() {
    let out = scratch("smoke");
    let bin = env!("CARGO_BIN_EXE_condbench");
    let status = Command::new(bin)
        .args(["--smoke", "--seed", "7", "--allow-tmpfs", "--out"])
        .arg(&out)
        // The suite resolves nothing relative to the working directory
        // once --out is given; run it from the manifest directory anyway.
        .current_dir(manifest_dir())
        .status()
        .expect("run condbench --smoke");
    assert!(status.success(), "smoke suite failed: {status}");

    let result = Value::parse(
        &std::fs::read_to_string(out.join("result.json")).expect("result.json written"),
    )
    .expect("result.json parses");
    assert_eq!(
        result.get("claim"),
        Some(&Value::Null),
        "no gain is claimed"
    );
    assert_eq!(
        result.get("schema").and_then(Value::as_str),
        Some("condbench/1")
    );
    for key in ["nproc", "git_rev", "rustc", "journal_dir", "journal_fs"] {
        assert!(
            result.get("host").and_then(|h| h.get(key)).is_some(),
            "host.{key}"
        );
    }

    let benchmark = spec::benchmark_json();
    let declared_e2e = names(&benchmark, "end_to_end");
    let declared_layers = names(&benchmark, "per_layer");
    let workloads = result.get("workloads").expect("workloads").items();
    assert_eq!(
        workloads
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect::<Vec<_>>(),
        names(&benchmark, "workloads")
    );
    for w in workloads {
        let name = w.get("name").and_then(Value::as_str).expect("name");
        assert_eq!(w.get("correct"), Some(&Value::Bool(true)), "{name}: oracle");
        let e2e = w.get("end_to_end").expect("end_to_end");
        let layers = w.get("per_layer").expect("per_layer");
        for metric in &declared_e2e {
            let entry = e2e
                .get(metric)
                .unwrap_or_else(|| panic!("{name} lacks {metric}"));
            assert!(
                entry
                    .get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(|v| v > 0.0),
                "{name}.{metric} must be measured and never 0"
            );
            assert!(entry.get("unit").and_then(Value::as_str).is_some());
        }
        for metric in &declared_layers {
            assert!(
                layers.get(metric).is_some(),
                "{name} lacks per-layer {metric}"
            );
        }
        // Every end-to-end metric of the issue, on the workloads it is
        // declared on.
        for m in spec::END_TO_END.iter().filter(|m| m.scope.covers(name)) {
            assert!(e2e.get(m.name).is_some(), "{name} lacks {}", m.name);
        }
        for (metric, _) in e2e.fields().iter().chain(layers.fields()) {
            assert!(name_ok(metric), "bad metric name {metric:?}");
        }
        assert_eq!(
            e2e.get("failed_share")
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(0.0),
            "{name}: failed_share"
        );
        assert!(
            out.join(format!("trace_{name}.jsonl")).exists(),
            "{name}: trace file"
        );
    }

    // The cross-workload predictions that are exact counts.
    let layer = |workload: &str, metric: &str| -> f64 {
        workloads
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(workload))
            .and_then(|w| w.get("per_layer")?.get(metric)?.get("value")?.as_f64())
            .unwrap_or_else(|| panic!("{workload}.{metric}"))
    };
    for workload in ["durable_rtt", "durable_stream"] {
        for metric in [
            "relay.forwarded_per_verdict",
            "relay.duplicates",
            "receiver.comp_delivered",
            "receiver.annihilated",
        ] {
            assert_eq!(layer(workload, metric), 0.0, "{workload}.{metric}");
        }
    }
    for metric in [
        "transport.batches_per_verdict",
        "transport.bytes_per_verdict",
        "relay.forwarded_per_verdict",
    ] {
        assert_eq!(layer("deep_pending", metric), 0.0, "deep_pending.{metric}");
    }
    assert!(layer("relay_comp", "relay.forwarded_per_verdict") > 0.0);
    assert!(layer("relay_comp", "receiver.annihilated") > 0.0);

    // A result compared with itself regresses nowhere.
    let result_path = out.join("result.json");
    let compare = Command::new(bin)
        .arg("compare")
        .arg(&result_path)
        .arg(&result_path)
        .output()
        .expect("run condbench compare");
    assert!(compare.status.success(), "self-compare must exit 0");
    let table = String::from_utf8_lossy(&compare.stdout);
    assert!(table.contains("0 regression(s)"), "{table}");
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn driver_form_prints_the_result_line_last() {
    let out = scratch("driver");
    let bin = env!("CARGO_BIN_EXE_condbench");
    for (trace, wanted) in [("0", "end_to_end"), ("1", "per_layer")] {
        let run = Command::new(bin)
            .args([
                "--workload",
                "durable_rtt",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--smoke",
            ])
            .args(["--trace", trace, "--out"])
            .arg(&out)
            .output()
            .expect("run condbench");
        assert!(
            run.status.success(),
            "trace {trace}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8_lossy(&run.stdout);
        let last = Value::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
        let keys: Vec<&str> = last.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
        assert!(last
            .get("attempted")
            .and_then(Value::as_f64)
            .is_some_and(|n| n >= 1.0));
        let mut emitted: Vec<&str> = last
            .get("metrics")
            .expect("metrics")
            .fields()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut declared = names(&spec::benchmark_json(), wanted);
        emitted.sort_unstable();
        declared.sort_unstable();
        assert_eq!(
            emitted, declared,
            "trace {trace} emits exactly the {wanted} metrics"
        );
    }
    std::fs::remove_dir_all(&out).ok();
}
