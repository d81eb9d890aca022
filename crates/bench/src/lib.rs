//! Shared harness code for the `exp_*` binaries: result-file writing,
//! percentiles and markdown table rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::{Path, PathBuf};

/// Writes an experiment's JSON result file `name` (a `BENCH_*.json`): a
/// full run into the working directory, where the committed result lives;
/// a `--quick` run under `target/bench-quick/`, so a gate run leaves the
/// committed file alone. `json` is one object; every file opens with the
/// same header stamped in front of its fields: `quick`, `cores` (the
/// parallelism the host offers) and `git_rev` (`git describe --always
/// --dirty`: the commit the run was built on, suffixed `-dirty` when the
/// tree carried uncommitted changes, or `"unknown"` without git).
pub fn write_bench_json(name: &str, quick: bool, json: &str) {
    let fields = json
        .strip_prefix('{')
        .unwrap_or_else(|| panic!("{name}: a result is one JSON object"));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"quick\": {quick},\n  \"cores\": {cores},\n  \"git_rev\": \"{}\",{fields}",
        git_rev()
    );
    let path = if quick {
        Path::new("target/bench-quick").join(name)
    } else {
        PathBuf::from(name)
    };
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
}

/// The short hash of the checked-out commit, `-dirty` when the tree
/// differs from it, or `"unknown"`.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_owned())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Nearest-rank percentile of `samples` for `p` in `[0, 1]`, or 0 when
/// empty. Copies and sorts internally; every `exp_*` binary used to
/// hand-roll this.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// [`percentile`] over float samples (NaNs sort last), or NaN when empty.
pub fn percentile_f64(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style table header with separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}
