//! Shared harness code for the `exp_*` binaries: result-file writing,
//! percentiles and markdown table rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::{Path, PathBuf};

/// Writes an experiment's JSON result file `name` (a `BENCH_*.json`): a
/// full run into the working directory, where the committed result lives;
/// a `--quick` run under `target/bench-quick/`, so a gate run leaves the
/// committed file alone.
pub fn write_bench_json(name: &str, quick: bool, json: &str) {
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
