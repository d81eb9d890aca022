//! Registry pass: every emitted metric name, trace stage, journal
//! record tag, frame kind and well-known wire string must appear in its
//! declared registry.
//!
//! A `// lint: registry <kind>` annotation on a const declares the
//! single registry for that kind; its string entries may contain `*`
//! wildcards (matching across dots, since queue names embed dots).
//! Emissions come from two sources:
//!
//! * **metric-name** — any call named `counter`/`gauge`/`histogram`/
//!   `register_counter`/`register_gauge`/`register_histogram` whose
//!   arguments contain a string literal. `format!` interpolations
//!   (`{…}`) are wildcardized to `*` before matching.
//! * **sink items** — an item annotated `// lint: registry-sink <kind>`
//!   contributes its string literals (e.g. a `Display` impl for trace
//!   stages, a property-name or queue-name constant) or its tag-position integers (`put_u8(N)` arguments and
//!   ints adjacent to `=>`, e.g. wire encode/decode impls) as
//!   emissions of that kind.
//!
//! Any emission with no matching registry entry is a finding carrying
//! both sites: the emission and the registry declaration.

use std::collections::HashMap;

use crate::parser::{Block, RegistryDecl};
use crate::{Finding, LintRule};

use super::{for_each_call, Workspace};

/// Call names that emit (or read back) a metric by name.
const METRIC_SINKS: &[&str] = &[
    "counter",
    "gauge",
    "histogram",
    "register_counter",
    "register_gauge",
    "register_histogram",
];

/// Runs the pass.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut by_kind: HashMap<&str, &RegistryDecl> = HashMap::new();
    let mut findings = Vec::new();
    for f in &ws.files {
        for r in &f.registries {
            if let Some(prev) = by_kind.insert(r.kind.as_str(), r) {
                findings.push(Finding {
                    rule: LintRule::Registry,
                    path: r.path.clone(),
                    line: r.line as usize,
                    snippet: format!(
                        "duplicate registry for kind `{}`; already declared at {}:{}",
                        r.kind, prev.path, prev.line
                    ),
                });
            }
        }
    }

    // Metric-name emissions from every call site.
    if let Some(decl) = by_kind.get("metric-name").copied() {
        for fnd in &ws.fns {
            let Some(body) = &fnd.body else { continue };
            let mut emissions = Vec::new();
            collect_metric_calls(body, &mut emissions);
            for (name, line) in emissions {
                let pattern = wildcardize(&name);
                if !decl.strs.iter().any(|(entry, _)| glob_match(entry, &pattern)) {
                    findings.push(Finding {
                        rule: LintRule::Registry,
                        path: fnd.path.clone(),
                        line: line as usize,
                        snippet: format!(
                            "metric `{pattern}` is not in the metric-name registry declared at {}:{}",
                            decl.path, decl.line
                        ),
                    });
                }
            }
        }
    }

    // Sink-item emissions.
    for f in &ws.files {
        for sink in &f.sinks {
            let Some(decl) = by_kind.get(sink.kind.as_str()).copied() else {
                findings.push(Finding {
                    rule: LintRule::Registry,
                    path: sink.path.clone(),
                    line: sink
                        .strs
                        .first()
                        .map(|(_, l)| *l)
                        .or_else(|| sink.ints.first().map(|(_, l)| *l))
                        .unwrap_or(1) as usize,
                    snippet: format!("no registry declared for kind `{}`", sink.kind),
                });
                continue;
            };
            if !decl.strs.is_empty() {
                for (s, line) in &sink.strs {
                    if !decl.strs.iter().any(|(entry, _)| glob_match(entry, s)) {
                        findings.push(Finding {
                            rule: LintRule::Registry,
                            path: sink.path.clone(),
                            line: *line as usize,
                            snippet: format!(
                                "{} `{s}` is not in the {} registry declared at {}:{}",
                                sink.kind, sink.kind, decl.path, decl.line
                            ),
                        });
                    }
                }
            }
            if !decl.ints.is_empty() {
                for (v, line) in &sink.ints {
                    if !decl.ints.iter().any(|(entry, _)| entry == v) {
                        findings.push(Finding {
                            rule: LintRule::Registry,
                            path: sink.path.clone(),
                            line: *line as usize,
                            snippet: format!(
                                "{} `{v}` is not in the {} registry declared at {}:{}",
                                sink.kind, sink.kind, decl.path, decl.line
                            ),
                        });
                    }
                }
            }
        }
    }
    findings
}

/// Scans the repo's `scenarios/*.toml` files: every `metric = "…"`
/// value must appear in the metric-name registry and every `stage = "…"`
/// value in the trace-stage registry — a scenario oracle cannot assert
/// on a counter or lifecycle stage the observability layer never emits.
///
/// # Errors
///
/// Propagates read errors on scenario files (a missing `scenarios/`
/// directory is fine — there is simply nothing to check).
pub fn scan_scenarios(root: &std::path::Path, ws: &Workspace) -> std::io::Result<Vec<Finding>> {
    let mut by_kind: HashMap<&str, &RegistryDecl> = HashMap::new();
    for f in &ws.files {
        for r in &f.registries {
            by_kind.entry(r.kind.as_str()).or_insert(r);
        }
    }
    let mut findings = Vec::new();
    let Ok(entries) = std::fs::read_dir(root.join("scenarios")) else {
        return Ok(findings);
    };
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    paths.sort();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        findings.extend(check_scenario_src(&rel, &src, &by_kind));
    }
    Ok(findings)
}

/// The actual per-file scenario check, separated for testability.
fn check_scenario_src(
    rel: &str,
    src: &str,
    by_kind: &HashMap<&str, &RegistryDecl>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (k, raw) in src.lines().enumerate() {
        let line_no = k + 1;
        let t = raw.trim();
        for (key, kind) in [("metric", "metric-name"), ("stage", "trace-stage")] {
            let Some(rest) = t.strip_prefix(key) else { continue };
            let Some(rest) = rest.trim_start().strip_prefix('=') else {
                continue;
            };
            let Some(value) = rest.trim().strip_prefix('"').and_then(|r| r.split('"').next())
            else {
                continue;
            };
            match by_kind.get(kind) {
                Some(decl) => {
                    if !decl.strs.iter().any(|(entry, _)| glob_match(entry, value)) {
                        findings.push(Finding {
                            rule: LintRule::Registry,
                            path: rel.to_owned(),
                            line: line_no,
                            snippet: format!(
                                "scenario {key} `{value}` is not in the {kind} registry \
                                 declared at {}:{}",
                                decl.path, decl.line
                            ),
                        });
                    }
                }
                None => findings.push(Finding {
                    rule: LintRule::Registry,
                    path: rel.to_owned(),
                    line: line_no,
                    snippet: format!("no {kind} registry declared for scenario {key} `{value}`"),
                }),
            }
        }
    }
    findings
}

/// Collects `(name, line)` for metric-sink calls carrying a string.
fn collect_metric_calls(b: &Block, out: &mut Vec<(String, u32)>) {
    for_each_call(b, &mut |c| {
        if METRIC_SINKS.contains(&c.name.as_str()) {
            if let Some(s) = &c.first_str {
                out.push((s.clone(), c.line));
            }
        }
    });
}

/// Replaces `{…}` interpolations with `*`.
fn wildcardize(name: &str) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    for c in name.chars() {
        match c {
            '{' => {
                if depth == 0 {
                    out.push('*');
                }
                depth += 1;
            }
            '}' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// Glob match where `*` in `pattern` matches any substring (including
/// dots and literal `*`s in the subject).
fn glob_match(pattern: &str, subject: &str) -> bool {
    if !pattern.contains('*') {
        return pattern == subject;
    }
    let parts: Vec<&str> = pattern.split('*').collect();
    let mut rest = subject;
    // Anchored prefix.
    let first = parts[0];
    if !rest.starts_with(first) {
        return false;
    }
    rest = &rest[first.len()..];
    // Anchored suffix.
    let last = parts[parts.len() - 1];
    if parts.len() > 1 {
        if rest.len() < last.len() || !rest.ends_with(last) {
            return false;
        }
        rest = &rest[..rest.len() - last.len()];
    }
    // Middles in order.
    for mid in &parts[1..parts.len() - 1] {
        if mid.is_empty() {
            continue;
        }
        match rest.find(mid) {
            Some(at) => rest = &rest[at + mid.len()..],
            None => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_matches_across_dots() {
        assert!(glob_match("mq.queue.*.enqueued", "mq.queue.Q.A.enqueued"));
        assert!(glob_match("mq.queue.*.enqueued", "mq.queue.*.enqueued"));
        assert!(!glob_match("mq.queue.*.enqueued", "mq.queue.Q.A.dequeued"));
        assert!(glob_match("cond.sent", "cond.sent"));
        assert!(!glob_match("cond.sent", "cond.sentx"));
    }

    #[test]
    fn wildcardize_replaces_interpolations() {
        assert_eq!(wildcardize("mq.queue.{queue}.enqueued"), "mq.queue.*.enqueued");
        assert_eq!(wildcardize("plain.name"), "plain.name");
    }

    #[test]
    fn scenario_scan_checks_metrics_and_stages_against_registries() {
        let metric_decl = RegistryDecl {
            kind: "metric-name".to_owned(),
            path: "crates/mq/src/obs.rs".to_owned(),
            line: 35,
            strs: vec![("cond.sent".to_owned(), 36), ("mq.queue.*.depth".to_owned(), 37)],
            ints: Vec::new(),
        };
        let stage_decl = RegistryDecl {
            kind: "trace-stage".to_owned(),
            path: "crates/mq/src/obs.rs".to_owned(),
            line: 126,
            strs: vec![("verdict".to_owned(), 127)],
            ints: Vec::new(),
        };
        let mut by_kind: HashMap<&str, &RegistryDecl> = HashMap::new();
        by_kind.insert("metric-name", &metric_decl);
        by_kind.insert("trace-stage", &stage_decl);

        let src = r#"
[[oracle.metrics]]
metric = "cond.sent"
min = 1

[[oracle.metrics]]
metric = "mq.queue.Q.APP.depth"

[[oracle.metrics]]
metric = "cond.bogus"

[[oracle.stages]]
stage = "verdict"

[[oracle.stages]]
stage = "no-such-stage"
"#;
        let findings = check_scenario_src("scenarios/x.toml", src, &by_kind);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].snippet.contains("cond.bogus"), "{findings:?}");
        assert!(findings[1].snippet.contains("no-such-stage"), "{findings:?}");
        assert!(findings.iter().all(|f| f.path == "scenarios/x.toml"));
    }
}
